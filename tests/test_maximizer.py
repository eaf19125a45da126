"""Subcritical maximizer: fixed-point solver, multipliers, concentration numbers.

The quantitative oracle is the near-critical quadratic regime: for
epsilon = 4*pi*ell - beta with small beta the maximum of the exponential
functional is Vol + beta/(lambda_1 - alpha) + O(beta^2), with the maximizer
inside the first invariant eigencluster.
"""

import dataclasses
import sys

import numpy as np
import pytest

from tmsurf import discretization
from tmsurf.constructions.green import green_solve
from tmsurf.discretization import (
    NormParams,
    exp_functional,
    norm_one_alpha,
    orbit_reduction,
    quadratic_form_sq,
)
from tmsurf.geometry import geodesic_distance
from tmsurf.maximizer import (
    MaximizerError,
    MaximizerState,
    ProblemSpec,
    blowup_diagnostics,
    multiplier_report,
    normalized_competitor,
    sharpness_probe,
    solve_subcritical,
)
from tmsurf.constructions.radial import RadialModel
from tmsurf.spectrum import invariant_spectrum


def _spec(s, epsilon_sub, level=1, alpha_frac=0.25):
    alpha = alpha_frac * s.spectrum.group_value(level)
    return ProblemSpec(s.red, s.spectrum, level, alpha, epsilon_sub=epsilon_sub)


# ---------------------------------------------------------------- quadratic regime


@pytest.fixture(scope="module")
def quadratic_state(sphere3):
    spec = _spec(sphere3, epsilon_sub=8 * np.pi - 0.05)
    return spec, solve_subcritical(spec, seed="moser")


def test_quadratic_regime_value(sphere3, quadratic_state):
    spec, state = quadratic_state
    assert state.converged
    vol = sphere3.mesh.total_area
    predicted = 0.05 / (sphere3.spectrum.lambda_1 - spec.alpha)
    assert abs((state.value - vol) / predicted - 1.0) < 0.05


def test_quadratic_regime_eigencluster(sphere3, quadratic_state):
    _, state = quadratic_state
    # maximizer sits in the lambda_1 cluster: 5 invariant vectors at L3
    basis = sphere3.red.expand(sphere3.spectrum.eigenvectors[:, :5])
    mu = sphere3.ops.mass @ state.u
    inside = float(np.sum((basis.T @ mu) ** 2))
    total = float(state.u @ mu)
    assert 1.0 - inside / total < 1e-4


def test_quadratic_regime_seed_agreement(sphere3, quadratic_state):
    spec, state = quadratic_state
    sym = solve_subcritical(spec, seed="symmetric")
    assert sym.converged
    assert abs(sym.value - state.value) / state.value < 1e-8
    # the cluster is 5-fold degenerate: a random seed drifts in value-flat
    # directions, so only the value is pinned down
    with pytest.warns(UserWarning, match="residual"):
        rnd = solve_subcritical(spec, seed="random", tol=1e-7, rng_seed=7)
    assert rnd.residual < 1e-5
    assert abs(rnd.value - state.value) / state.value < 1e-6


# ---------------------------------------------------------------- moderate epsilon


@pytest.fixture(scope="module")
def moderate_state(sphere3):
    spec = _spec(sphere3, epsilon_sub=2 * np.pi)
    return spec, solve_subcritical(spec, seed="moser")


def test_moderate_epsilon_converges(sphere3, moderate_state):
    spec, state = moderate_state
    assert state.converged
    assert state.residual <= 1e-8
    assert state.iterations < 400
    assert state.lambda_eps > 0
    assert state.log_value > np.log(sphere3.mesh.total_area)
    assert state.log_value == pytest.approx(np.log(state.value), rel=1e-12)
    assert state.c_eps == pytest.approx(np.abs(state.u).max(), rel=1e-15)
    assert state.x_eps == int(np.flatnonzero(np.abs(state.u) == state.c_eps)[0])


def test_moderate_epsilon_feasibility(sphere3, moderate_state):
    spec, state = moderate_state
    assert norm_one_alpha(state.u, sphere3.ops, spec.norm_params) == pytest.approx(
        1.0, abs=1e-10
    )
    assert abs(sphere3.ops.lumped @ state.u) < 1e-10
    for perm in sphere3.action.permutations:
        np.testing.assert_array_equal(state.u[perm], state.u)


def test_moderate_epsilon_multipliers(sphere3, moderate_state):
    _, state = moderate_state
    report = multiplier_report(state)
    assert report.residual_u < 1e-12
    assert report.residual_const < 1e-12
    assert report.residual_gammas.size == 0
    assert report.mu_over_lambda == pytest.approx(state.mu_eps / state.lambda_eps, rel=1e-14)


def test_one_backsolve_per_iterate(sphere4, monkeypatch):
    # criterion 10's problem: the residual's solve also gives the fixed-point
    # image and the ascent direction, and no polish trial is rejected here, so
    # each iteration solves once (two solves per iteration without that)
    alpha = 0.25 * sphere4.spectrum.lambda_1
    spec = ProblemSpec(sphere4.red, sphere4.spectrum, 1, alpha, epsilon_sub=2 * np.pi)
    solve = sphere4.red.shifted_solver(alpha)
    solves = []

    def counted(b):
        solves.append(1)
        return solve(b)

    monkeypatch.setattr(sphere4.red, "held", (alpha, counted))
    state = solve_subcritical(spec, seed="moser", tol=1e-8)
    assert state.converged
    assert (state.iterations, len(solves)) == (51, 51)


def test_solver_deterministic(sphere3, moderate_state):
    spec, state = moderate_state
    again = solve_subcritical(spec, seed="moser")
    np.testing.assert_array_equal(again.u, state.u)
    assert again.value == state.value
    assert again.iterations == state.iterations


@pytest.mark.parametrize("setup", ["sphere3", "sphere3_dihedral4"])
def test_returned_state_exactly_invariant(request, setup):
    # the loop runs on orbit unknowns; at level 2 the complement correction
    # mixes in eigenvectors, and a random seed is the least invariant input
    s = request.getfixturevalue(setup)
    state = solve_subcritical(_spec(s, epsilon_sub=2 * np.pi, level=2, alpha_frac=0.05), "random")
    assert state.converged
    u = state.u
    assert np.array_equal(u[s.action.permutations], np.broadcast_to(u, s.action.permutations.shape))


@pytest.fixture
def projection_calls(monkeypatch):
    """Calls of project_invariant_meanzero, through every module that binds it."""
    calls = []
    orig = discretization.project_invariant_meanzero

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "tmsurf" and getattr(mod, "project_invariant_meanzero", None) is orig:
            monkeypatch.setattr(mod, "project_invariant_meanzero", counting)
    return calls


@pytest.mark.parametrize("seed", ["moser", "random", "array", "symmetric"])
def test_one_projection_per_vertex_seed(sphere3, projection_calls, seed):
    # one projection takes a vertex seed to orbits; none runs in the loop or the Green solve
    spec = _spec(sphere3, epsilon_sub=2 * np.pi)
    calls = 0 if seed == "symmetric" else 1
    if seed == "array":
        seed = np.random.default_rng(3).standard_normal(sphere3.ops.n)
    state = solve_subcritical(spec, seed)
    assert state.converged and state.iterations > 1
    assert len(projection_calls) == calls
    params = NormParams(alpha=spec.alpha, lambda_gap=sphere3.spectrum.lambda_1)
    green_solve(sphere3.red, 0, params)
    assert len(projection_calls) == calls


@pytest.fixture(scope="module")
def zero_table(sphere3):
    """sphere3's orbit space whose action has its permutation table zeroed."""
    action = dataclasses.replace(
        sphere3.action, permutations=np.zeros_like(sphere3.action.permutations)
    )
    return orbit_reduction(sphere3.ops, action)


def _same_state(a, b):
    np.testing.assert_array_equal(a.u, b.u)
    assert (a.value, a.log_value, a.residual, a.iterations) == (
        b.value, b.log_value, b.residual, b.iterations
    )


@pytest.mark.parametrize("seed", ["moser", "random", "array", "symmetric"])
def test_solver_layers_read_no_permutation_table(sphere3, zero_table, seed):
    # orbit unknowns come from orbit_index alone: the solver layers must give
    # the same bits whatever the permutation table holds
    spectrum = invariant_spectrum(zero_table, count=len(sphere3.spectrum.eigenvalues))
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        np.testing.assert_array_equal(getattr(spectrum, name), getattr(sphere3.spectrum, name))
    if seed == "array":
        seed = np.random.default_rng(3).standard_normal(sphere3.ops.n)
    states = []
    for red, spec in ((sphere3.red, sphere3.spectrum), (zero_table, spectrum)):
        alpha = 0.25 * spec.lambda_1
        states.append(solve_subcritical(ProblemSpec(red, spec, 1, alpha, 2 * np.pi), seed))
    _same_state(*states)
    diags = [blowup_diagnostics(st, radii=(0.4, 0.8)) for st in states]
    np.testing.assert_array_equal(diags[0].local_energies, diags[1].local_energies)
    assert diags[0].peak_share == diags[1].peak_share
    params = NormParams(alpha=0.25 * spectrum.lambda_1, lambda_gap=spectrum.lambda_1)
    greens = [green_solve(red, 0, params) for red in (sphere3.red, zero_table)]
    np.testing.assert_array_equal(greens[0].values, greens[1].values)


def test_unknown_seed_rejected(sphere3):
    spec = _spec(sphere3, epsilon_sub=2 * np.pi)
    with pytest.raises(MaximizerError):
        solve_subcritical(spec, seed="gradient")


def test_normalized_competitor(sphere3, moderate_state, rng):
    spec, _ = moderate_state
    w = normalized_competitor(rng.standard_normal(sphere3.mesh.n_vertices), spec)
    assert w.shape == (sphere3.red.n,)
    v = sphere3.red.expand(w)
    assert norm_one_alpha(v, sphere3.ops, spec.norm_params) == pytest.approx(1.0, abs=1e-10)
    assert abs(sphere3.ops.lumped @ v) < 1e-10
    for perm in sphere3.action.permutations:
        np.testing.assert_array_equal(v[perm], v)


# ---------------------------------------------------------------- second level


def test_normalized_competitor_second_level(sphere3, rng, rayleigh_quotient):
    # alpha just below the level-2 gap is admissible on the complement
    spec = _spec(sphere3, epsilon_sub=2 * np.pi, level=2, alpha_frac=0.9)
    red = sphere3.red
    ops, removed = sphere3.ops, red.expand(spec.orbit_basis)
    values = rng.standard_normal(ops.n)
    v = red.expand(normalized_competitor(values, spec))
    assert norm_one_alpha(v, ops, spec.norm_params) == pytest.approx(1.0, abs=1e-10)
    assert abs(ops.lumped @ v) < 1e-10
    assert np.max(np.abs(removed.T @ (ops.mass @ v))) < 1e-10
    assert rayleigh_quotient(v, ops) > spec.lambda_level * (1 - 1e-8)
    # components along the removed cluster are annihilated
    shifted = red.expand(normalized_competitor(values + removed.sum(axis=1), spec))
    np.testing.assert_allclose(shifted, v, atol=1e-10)


def test_second_level_multipliers(sphere3):
    spec = _spec(sphere3, epsilon_sub=2 * np.pi, level=2)
    state = solve_subcritical(spec, seed="moser")
    assert state.converged
    assert state.gammas.size == 5  # multiplicity of the removed cluster
    report = multiplier_report(state)
    assert report.residual_gammas.size == 5
    assert np.max(report.residual_gammas) < 1e-8
    # solution stays orthogonal to the removed cluster
    basis = sphere3.red.expand(spec.orbit_basis)
    overlap = basis.T @ (sphere3.ops.mass @ state.u)
    assert np.max(np.abs(overlap)) < 1e-10


def _vertex_reference(state, ops):
    """lambda, mu, gammas, the functional and the norm of state.u, on vertex vectors."""
    spec = state.spec
    u = state.u
    basis = spec.red.expand(spec.orbit_basis)
    t = spec.beta * u * u
    shift = float(t.max())
    f_sh = ops.lumped * u * np.exp(t - shift)
    lam_sh = float(u @ f_sh)
    mu_sh = float(np.sum(f_sh)) / ops.mesh.total_area
    gammas = basis.T @ f_sh / lam_sh if basis.size else np.zeros(0)
    val = exp_functional(u, spec.beta, ops)
    return {
        "lambda_eps": lam_sh * np.exp(shift),
        "mu_eps": mu_sh * np.exp(shift),
        "gammas": gammas,
        "value": val.value,
        "log_value": val.log_value,
        "norm": norm_one_alpha(u, ops, spec.norm_params),
    }


@pytest.mark.parametrize(
    "setup, level", [("sphere3", 1), ("sphere3", 2), ("sphere3_dihedral4", 2)]
)
def test_state_matches_vertex_reference(request, setup, level):
    # the state is computed on orbit unknowns; the vertex formulas must agree
    s = request.getfixturevalue(setup)
    spec = _spec(s, epsilon_sub=2 * np.pi, level=level)
    state = solve_subcritical(spec, seed="moser")
    assert state.converged
    ref = _vertex_reference(state, s.ops)
    for name in ("lambda_eps", "mu_eps", "value", "log_value"):
        assert getattr(state, name) == pytest.approx(ref[name], rel=1e-13), name
    w = state.w
    assert norm_one_alpha(w, s.red, spec.norm_params) == pytest.approx(ref["norm"], rel=1e-13)
    assert state.gammas.shape == ref["gammas"].shape == (spec.orbit_basis.shape[1],)
    np.testing.assert_allclose(state.gammas, ref["gammas"], rtol=0, atol=1e-13)
    report = multiplier_report(state)
    assert report.mu_over_lambda == pytest.approx(ref["mu_eps"] / ref["lambda_eps"], rel=1e-13)


# ---------------------------------------------------------------- concentration diagnostics


def _bubble_state(s, profile, c, lambda_eps=4.0, epsilon_sub=25.0):
    """Hand-built invariant state whose peak pair is a rescaled planar bubble."""
    spec = _spec(s, epsilon_sub=epsilon_sub)
    center = s.action.min_orbit_vertex
    partner = int(s.action.permutations[1][center])
    r = np.exp(0.5 * np.log(lambda_eps) - np.log(c) - (4 * np.pi - 0.5 * epsilon_sub) * c * c)
    # min over the two mirrored fields stays bitwise invariant under the flip
    d = np.minimum(
        geodesic_distance(s.mesh, center),
        geodesic_distance(s.mesh, partner),
    )
    u = c + profile(2)(d / r) / c
    value = float(np.sum(s.ops.lumped * np.exp(u)))
    return MaximizerState(
        w=u[s.red.reps],
        lambda_eps=lambda_eps,
        mu_eps=0.1,
        gammas=np.array([]),
        c_eps=c,
        x_eps=center,
        value=value,
        log_value=float(np.log(value)),
        residual=0.0,
        iterations=1,
        converged=True,
        spec=spec,
    )


def test_blowup_orbit_energies_identical(sphere3, bubble_profile):
    state = _bubble_state(sphere3, bubble_profile, c=3.3)
    diag = blowup_diagnostics(state, radii=(0.4, 0.8))
    assert diag.orbit.size == 2
    np.testing.assert_array_equal(diag.local_energies[0], diag.local_energies[1])
    assert np.all(diag.local_energies > 0)
    assert np.all(np.diff(diag.energy_fractions) > 0)
    assert diag.energy_budget == pytest.approx(
        float(state.u @ (sphere3.ops.stiffness @ state.u)), rel=1e-14
    )


def test_peak_share_of_the_lumped_functional(sphere4):
    # at 2pi the lumped J is spread over the sphere; at pi/2 most of it sits
    # on the two vertices of the peak orbit
    red = sphere4.red
    shares = {}
    for eps in (2 * np.pi, np.pi / 2):
        state = solve_subcritical(_spec(sphere4, epsilon_sub=eps), seed="moser")
        assert state.converged
        diag = blowup_diagnostics(state, radii=(0.2,))
        peak = sphere4.action.orbit_index[state.x_eps]
        want = red.lumped[peak] * np.exp(state.spec.beta * state.c_eps**2)
        assert diag.peak_share * state.value == pytest.approx(want, rel=1e-12)
        shares[eps] = diag.peak_share
    assert shares[2 * np.pi] < 0.05
    assert shares[np.pi / 2] > 0.5


# ---------------------------------------------------------------- scalar probes


def test_sharpness_probe_separates_regimes():
    model = RadialModel("sphere", np.pi, 4 * np.pi)
    rows = sharpness_probe(
        model,
        2,
        beta_grid=[0.9 * 8 * np.pi, 1.1 * 8 * np.pi],
        k_grid=[100, 1000, 10000, 100000],
    )
    sub, sup = rows
    assert sup["strictly_increasing"]
    assert not sub["strictly_increasing"]  # saturates and turns over by k = 1e5
    assert sup["slope"] > 3 * abs(sub["slope"]) > 0
    assert sub["variation"] < 1e-3
    assert sup["log_values"] == sorted(sup["log_values"])


def test_alpha_failure_probe_growth(sphere3, alpha_failure_probe):
    e1 = sphere3.red.expand(sphere3.spectrum.eigenvectors[:, 0])
    lam1 = sphere3.spectrum.lambda_1
    rows = alpha_failure_probe(sphere3.ops, e1, alpha=lam1, t_grid=(1.0, 2.0, 4.0, 8.0))
    assert all(row["feasible"] for row in rows)
    assert all(abs(row["shifted_form"]) < 1e-8 * row["t"] ** 2 for row in rows)
    rates = [row["growth_rate"] for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    # log-value itself grows at least quadratically in t
    logs = [row["log_value"] for row in rows]
    assert logs[-1] - logs[0] > 0
    q = quadratic_form_sq(2.0 * e1, sphere3.ops, lam1)
    assert abs(q) < 1e-8
