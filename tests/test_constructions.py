"""Oracles for the analytic constructions.

Closed forms are cross-checked against independent evaluations computed in the
test suite: adaptive quadrature for the bubble mass and the round-sphere Green
function, the even-degree zonal-harmonic series for the shifted regular
constant, and the lattice theta function for the flat-torus Green function.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp as scipy_logsumexp

from tmsurf._sums import logsumexp
from tmsurf.constructions import family as family_module
from tmsurf.constructions import green as green_module
from tmsurf.constructions import radial as radial_module
from tmsurf.constructions.family import FamilyError, build_test_family
from tmsurf.constructions.family import test_family_lower_bound as family_lower_bound
from tmsurf.constructions.green import (
    GreenError,
    extract_A,
    green_l2_norm_sq,
    green_solve,
    invariant_shifted_solver,
    richardson_pair,
    upper_bound_formula,
    upper_bound_value,
)
from tmsurf.constructions.moser import (
    MoserSequence,
    cap_radius_limit,
    min_orbit_separation,
    moser_evaluate,
    moser_semianalytic_log_value,
)
from tmsurf.constructions.radial import log_integral_exp, radial_integral, radial_model
from tmsurf.discretization import (
    NormParams,
    assemble,
    norm_one_alpha,
    orbit_reduction,
    project_invariant_meanzero,
)
from tmsurf.geometry import MeshError, build_flat_torus_mesh, mean_edge_length
from tmsurf.maximizer import MaximizerError, ProblemSpec, normalized_competitor

# ---------------------------------------------------------------- bubble


@pytest.mark.parametrize("ell", [1, 2, 4])
@pytest.mark.parametrize("radius", [1.0, 10.0, 1e3])
def test_bubble_closed_form_matches_quadrature(ell, radius, bubble_integral, bubble_quad):
    closed = bubble_integral(ell, radius)
    adaptive = bubble_quad(ell, radius)
    assert abs(closed - adaptive) <= 1e-9


@pytest.mark.parametrize("ell", [1, 2, 4])
def test_bubble_mass_saturates(ell, bubble_integral):
    assert abs(bubble_integral(ell, 1e3) - 1.0 / ell) < 1e-3
    assert bubble_integral(ell, 0.0) == 0.0


def test_bubble_profile_shape(bubble_profile):
    phi = bubble_profile(2)
    assert phi(0.0) == 0.0
    rho = np.linspace(0.0, 5.0, 50)
    vals = phi(rho)
    assert np.all(np.diff(vals) < 0)
    # exp(8*pi*ell*phi) is the integrand density: (1 + pi*ell*rho^2)^-2
    assert np.exp(8 * np.pi * 2 * phi(1.3)) == pytest.approx(
        (1 + np.pi * 2 * 1.3**2) ** -2, rel=1e-12
    )


def test_bubble_validation(bubble_profile, bubble_integral, bubble_quad):
    with pytest.raises(ValueError):
        bubble_profile(0)
    with pytest.raises(ValueError):
        bubble_integral(2, -1.0)
    with pytest.raises(ValueError):
        bubble_quad(2, -1.0)


# ---------------------------------------------------------------- radial model


def test_radial_model_sphere(sphere3):
    model = radial_model(sphere3.mesh)
    assert model.kind == "sphere"
    assert model.max_rho == pytest.approx(np.pi)
    area = radial_integral(lambda rho: np.ones_like(rho), 0.0, np.pi, model)
    assert area == pytest.approx(4.0 * np.pi, rel=1e-12)
    assert model.ball_area(np.pi) == pytest.approx(4.0 * np.pi, rel=1e-14)
    r = model.ball_radius(2.0)
    assert model.ball_area(r) == pytest.approx(2.0, rel=1e-12)


def test_radial_model_torus(torus24):
    model = radial_model(torus24.mesh)
    assert model.kind == "torus"
    assert model.volume == pytest.approx(1.0)
    assert model.ball_area(0.3) == pytest.approx(np.pi * 0.09, rel=1e-14)
    assert model.ball_radius(np.pi * 0.09) == pytest.approx(0.3, rel=1e-12)


def test_log_integral_exp_consistency(sphere3):
    model = radial_model(sphere3.mesh)
    direct = radial_integral(lambda rho: np.exp(-rho), 0.1, 1.0, model, log_grid=True)
    logged = log_integral_exp(lambda rho: -rho, 0.1, 1.0, model, log_grid=True)
    assert logged == pytest.approx(np.log(direct), rel=1e-12)


def _same_bits(ours, reference):
    return np.float64(ours).tobytes() == np.float64(reference).tobytes()


def test_logsumexp_matches_scipy_bitwise(rng):
    # results.json holds log-sum-exp values; tmsurf's own reducer repeats
    # scipy.special.logsumexp's operations so that they keep scipy's bits
    cases = [[0.3], [-745.0], [np.log(2.0), np.log(3.0)], [1.5, 1.5], [-np.inf, 0.25],
             [np.log(5.0), np.log(2.0) + 3.1, np.log(0.5)], [7.0, 7.0, 7.0]]
    for _ in range(200):
        a = rng.normal(scale=rng.choice([1e-3, 1.0, 50.0, 800.0]), size=400)
        ties = rng.integers(0, 400, size=rng.integers(1, 8))
        a[ties] = a.max()
        cases.append(a.copy())
        a[rng.integers(0, 400, size=rng.integers(1, 200))] = -np.inf
        cases.append(a)
    for a in cases:
        assert _same_bits(logsumexp(a), scipy_logsumexp(np.asarray(a, dtype=float)))
    # all entries -inf, an infinite entry, a nan: scipy's direct-sum fallback
    for a in ([-np.inf] * 3, [1.0, np.inf], [0.0, np.nan]):
        assert _same_bits(logsumexp(a), scipy_logsumexp(a))


def test_logsumexp_matches_scipy_on_family_inputs(family_sweep, monkeypatch):
    # the 2- and 3-term lists of test_family_lower_bound and the 400-node
    # exponents of its inner radial integral
    seen = []

    def recording(values):
        seen.append(np.asarray(values, dtype=float))
        return logsumexp(values)

    monkeypatch.setattr(family_module, "logsumexp", recording)
    monkeypatch.setattr(radial_module, "logsumexp", recording)
    dec, _, fams, _ = family_sweep
    for fam in fams + [build_test_family(dec, 0.1)]:
        family_lower_bound(fam)
    assert {a.size for a in seen} == {2, 3, 400}
    for a in seen:
        assert _same_bits(logsumexp(a), scipy_logsumexp(a))


# ---------------------------------------------------------------- Moser caps


def test_moser_flat_energy_formula(sphere3):
    for k in (10.0, 1e3):
        seq = MoserSequence(center=0, radius=0.1, k=k, ell=2)
        report = moser_evaluate(seq, sphere3.mesh, sphere3.action)
        assert report.flat_energy == pytest.approx(8 * np.pi * 2 * np.log(k), rel=1e-14)
        assert report.values.max() == pytest.approx(np.log(k), rel=1e-14)
        assert seq.plateau_radius == pytest.approx(0.1 * k**-0.25, rel=1e-14)


def test_moser_mesh_energy_tracks_flat(sphere3):
    # k = 1e3 puts the annulus well above the L3 mesh scale
    seq = MoserSequence(center=0, radius=0.1, k=1e3, ell=2)
    v = moser_evaluate(seq, sphere3.mesh, sphere3.action).values
    ratio = float(v @ (sphere3.ops.stiffness @ v)) / (8 * np.pi * 2 * np.log(1e3))
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_moser_orbit_separation(sphere3, sphere3_trivial):
    assert min_orbit_separation(sphere3.mesh, sphere3.action, 0) == pytest.approx(np.pi)
    assert cap_radius_limit(sphere3.mesh, sphere3.action, 0) == pytest.approx(np.pi / 4)
    # singleton orbits fall back to the surface scale
    sep = min_orbit_separation(sphere3_trivial.mesh, sphere3_trivial.action, 0)
    assert sep == pytest.approx(2.0 * np.pi)


def test_moser_overlapping_caps_rejected(sphere3):
    seq = MoserSequence(center=0, radius=0.9, k=10.0, ell=2)
    with pytest.raises(MeshError):
        moser_evaluate(seq, sphere3.mesh, sphere3.action)


def test_moser_orbit_mismatch_rejected(sphere3):
    seq = MoserSequence(center=0, radius=0.1, k=10.0, ell=3)
    with pytest.raises(ValueError):
        moser_evaluate(seq, sphere3.mesh, sphere3.action)


def test_moser_sequence_validation():
    with pytest.raises(ValueError):
        MoserSequence(center=0, radius=0.1, k=0.5, ell=2)
    with pytest.raises(ValueError):
        MoserSequence(center=0, radius=-0.1, k=10.0, ell=2)
    with pytest.raises(ValueError):
        MoserSequence(center=0, radius=0.1, k=10.0, ell=0)


def _cap_competitor(s, k):
    spec = ProblemSpec(s.red, s.spectrum, 1, alpha=0.0, epsilon_sub=2 * np.pi)
    values = moser_evaluate(MoserSequence(0, 0.1, k, 2), s.mesh, s.action).values
    return spec, normalized_competitor(values, spec)


def test_moser_normalized_unit_norm(sphere3):
    spec, w = _cap_competitor(sphere3, 100.0)
    u = sphere3.red.expand(w)
    assert norm_one_alpha(u, sphere3.ops, spec.norm_params) == pytest.approx(1.0, abs=1e-10)
    assert abs(sphere3.ops.lumped @ u) < 1e-10
    np.testing.assert_allclose(project_invariant_meanzero(u, sphere3.red), w, atol=1e-14)


def test_moser_normalized_k1_rejected(sphere3):
    # k = 1 is the zero function, which has no unit-norm multiple
    with pytest.raises(MaximizerError, match="vector vanishes"):
        _cap_competitor(sphere3, 1.0)


def test_moser_semianalytic_limits(sphere3):
    model = radial_model(sphere3.mesh)
    assert moser_semianalytic_log_value(model, 2, 1, 0.1, beta=5.0) == pytest.approx(
        np.log(4 * np.pi)
    )
    vals = [moser_semianalytic_log_value(model, 2, 1000, 0.1, beta=b) for b in (1.0, 5.0, 10.0)]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError):
        moser_semianalytic_log_value(model, 2, 1000, 4.0, beta=1.0)
    with pytest.raises(ValueError):
        moser_semianalytic_log_value(model, 4, 1000, 1.5, beta=1.0)


# ---------------------------------------------------------------- Green: round sphere

# mean of log(2 sin(theta/2)) over the unit sphere gives the additive
# constant of the trivial-group Green function in closed form
_C_SPHERE = (np.log(2.0) - 0.5) / (2.0 * np.pi)


def _sphere_green_exact(theta):
    return -np.log(2.0 * np.sin(theta / 2.0)) / (2.0 * np.pi) + _C_SPHERE


@pytest.fixture(scope="module")
def green_sphere4_trivial(sphere4_trivial):
    s = sphere4_trivial
    params = NormParams(alpha=0.0, lambda_gap=s.spectrum.lambda_1)
    return green_solve(s.red, 0, params)


@pytest.fixture(scope="module")
def green_sphere4_pair(sphere4):
    s = sphere4
    source = s.action.min_orbit_vertex
    gap = s.spectrum.lambda_1
    dec0 = green_solve(s.red, source, NormParams(alpha=0.0, lambda_gap=gap))
    dec3 = green_solve(s.red, source, NormParams(alpha=3.0, lambda_gap=gap))
    return dec0, dec3


def test_sphere_constant_closed_form():
    mean, err = quad(lambda t: np.log(2 * np.sin(t / 2)) * np.sin(t) / 2, 0.0, np.pi)
    assert err < 1e-10
    assert mean / (2 * np.pi) == pytest.approx(_C_SPHERE, abs=1e-12)


def test_sphere_green_pointwise(green_sphere4_trivial, sphere4_trivial):
    dec = green_sphere4_trivial
    sel = dec.dist_source >= 0.1
    exact = _sphere_green_exact(dec.dist_source[sel])
    assert np.max(np.abs(dec.values[sel] - exact)) < 5e-3
    assert abs(sphere4_trivial.ops.lumped @ dec.values) < 1e-10 * (4 * np.pi)
    assert dec.residual < 1e-8


def test_sphere_green_regular_constant(green_sphere4_trivial):
    a = extract_A(green_sphere4_trivial)
    assert abs(a - _C_SPHERE) < 5e-4
    assert green_sphere4_trivial.a_fit_residual < 1e-3


def test_sphere_green_l2_norm(green_sphere4_trivial):
    l2_exact, err = quad(
        lambda t: _sphere_green_exact(t) ** 2 * 2 * np.pi * np.sin(t), 0.0, np.pi
    )
    assert err < 1e-6
    assert abs(green_l2_norm_sq(green_sphere4_trivial) - l2_exact) < 1e-3


# ---------------------------------------------------------------- Green: antipodal sphere

# regular constant of the antipodal two-point Green function; the shifted
# version adds the even-degree zonal series (2l+1)/(l(l+1)(l(l+1)-alpha))
_A_ANTIPODAL_0 = (np.log(2.0) - 1.0) / (4.0 * np.pi)
_A_ANTIPODAL_3 = 0.05226065650612152


def _antipodal_series(alpha: float) -> float:
    l = np.arange(2.0, 4.0e6, 2.0)
    terms = (2 * l + 1) / (l * (l + 1) * (l * (l + 1) - alpha))
    return _A_ANTIPODAL_0 + alpha / (4 * np.pi) * float(np.sum(np.sort(terms, kind="stable")))


def test_antipodal_shifted_series_constant():
    assert _antipodal_series(3.0) == pytest.approx(_A_ANTIPODAL_3, abs=1e-10)
    assert _antipodal_series(0.0) == pytest.approx(_A_ANTIPODAL_0, abs=1e-15)


def test_antipodal_green_regular_constant(green_sphere4_pair):
    dec0, _ = green_sphere4_pair
    assert abs(extract_A(dec0) - _A_ANTIPODAL_0) < 1e-4


def test_antipodal_green_shifted_constant(green_sphere4_pair):
    _, dec3 = green_sphere4_pair
    assert dec3.alpha == 3.0
    assert abs(extract_A(dec3) - _A_ANTIPODAL_3) < 1e-3


def test_antipodal_green_symmetry(green_sphere4_pair, sphere4):
    for dec in green_sphere4_pair:
        for perm in sphere4.action.permutations:
            np.testing.assert_array_equal(dec.values[perm], dec.values)
        assert abs(sphere4.ops.lumped @ dec.values) < 1e-10 * (4 * np.pi)
        assert dec.residual < 1e-8
        assert dec.orbit.size == 2


# ---------------------------------------------------------------- Green: flat torus


def _theta1_abs_log(z):
    # log|theta_1(pi z, q=e^-pi)| via the product expansion; q^2n is below
    # double precision after a dozen factors
    q = np.exp(-np.pi)
    w = np.pi * z
    val = np.log(np.abs(2.0 * q**0.25 * np.sin(w)))
    for n in range(1, 12):
        qq = q ** (2 * n)
        val += (
            np.log(np.abs(1 - qq))
            + np.log(np.abs(1 - qq * np.exp(2j * w)))
            + np.log(np.abs(1 - qq * np.exp(-2j * w)))
        )
    return val


def _torus_log_eta_sum() -> float:
    # log prod (1 - e^-2 pi n)
    n = np.arange(1.0, 40.0)
    return float(np.sum(np.log1p(-np.exp(-2 * np.pi * n))))


def _torus_green_exact(x, y):
    mean_f = 1.0 / 24.0 - _torus_log_eta_sum() / (2 * np.pi)
    z = (x % 1.0) + 1j * (y % 1.0)
    z = np.where(np.abs(z) < 1e-300, 1.0, z)  # source point, masked by caller
    return -_theta1_abs_log(z) / (2 * np.pi) + np.imag(z) ** 2 / 2.0 - mean_f


def test_shifted_solver_residuals(sphere5):
    # SuperLU's threshold pivoting stays on: with diag_pivot_thresh=0 the
    # bordered alpha = 0 factorization pivots on the ~1e-13 last pivot of the
    # singular K_r, and the unbalanced load below comes back with a lumped
    # mean of order 0.1 instead of 0
    red = sphere5.red
    rng = np.random.default_rng(7)
    for alpha in (0.0, -0.5, 0.25 * sphere5.spectrum.lambda_1):
        solve = invariant_shifted_solver(red, alpha)
        b = rng.standard_normal(red.n)
        loads = [b - b.mean(), b] if alpha == 0.0 else [b]  # a balanced one, then any
        for load in loads:
            w = solve(load)
            r = red.stiffness @ w - alpha * (red.mass @ w) - load
            if alpha == 0.0:  # residual of the bordered system: the multiplier takes the mean
                r = np.append(r + red.lumped * load.sum() / red.lumped.sum(), red.lumped @ w)
            assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(load), (alpha, np.linalg.norm(r))


# regular constant of the unit-torus Green function in closed form
_A_TORUS = -(np.log(2 * np.pi) + 2 * _torus_log_eta_sum()) / (2 * np.pi) + 1.0 / 12.0


@pytest.fixture(scope="module")
def green_torus64():
    mesh, action = build_flat_torus_mesh(64, 64)
    red = orbit_reduction(assemble(mesh), action)
    dec = green_solve(red, 0, NormParams(alpha=0.0, lambda_gap=4 * np.pi**2))
    return mesh, dec


def test_torus_lattice_constant_value():
    assert _A_TORUS == pytest.approx(-0.2085777932435014, abs=1e-12)


def test_torus_green_matches_theta(green_torus64):
    mesh, dec = green_torus64
    sel = dec.dist_source >= 0.1
    pts = mesh.vertices[:, :2] - mesh.vertices[0, :2]
    exact = _torus_green_exact(pts[:, 0], pts[:, 1])
    diff = dec.values[sel] - exact[sel]
    w = mesh.vertex_areas[sel]
    diff -= float(w @ diff) / float(w.sum())  # align additive constants
    assert np.max(np.abs(diff)) / np.max(np.abs(exact[sel])) < 3e-3


def test_torus_green_regular_constant(green_torus64):
    _, dec = green_torus64
    assert abs(extract_A(dec) - _A_TORUS) < 1e-3


def test_torus_fit_annulus_guard(torus24):
    # 24^2 spacing pushes the fit annulus past the injectivity scale; the
    # Green solve fits A before it returns, so the solve itself fails
    with pytest.raises(GreenError, match="annulus"):
        green_solve(torus24.red, 0, NormParams(alpha=0.0, lambda_gap=4 * np.pi**2))


def test_green_solve_returns_a_complete_decomposition(green_sphere4_pair):
    for dec in green_sphere4_pair:
        h = mean_edge_length(dec.mesh)
        assert dec.a_annulus == (5.0 * h, 20.0 * h)
        assert np.isfinite(dec.a_const) and 0.0 < dec.a_fit_residual < 1e-3
        assert dec.l2_sq > 0.0
        assert dec.bound == upper_bound_value(dec)
        # a refit and a re-integration reproduce the stored fields bit for bit
        fitted = (dec.a_const, dec.a_fit_residual, dec.a_annulus, dec.l2_sq)
        assert extract_A(dec) == fitted[0]
        assert green_l2_norm_sq(dec) == fitted[3]
        assert (dec.a_const, dec.a_fit_residual, dec.a_annulus, dec.l2_sq) == fitted


# ---------------------------------------------------------------- bound formulas


def test_upper_bound_formula_closed_form():
    # vol + pi*ell*e^(1 + 4*pi*ell*A) at A = 0, ell = 2
    assert upper_bound_formula(4 * np.pi, 2, 0.0).value == pytest.approx(
        4 * np.pi + 2 * np.pi * np.e, rel=1e-14
    )
    b = upper_bound_formula(4 * np.pi, 2, 0.01)
    assert b.value > upper_bound_formula(4 * np.pi, 2, 0.0).value
    assert b.log_value == pytest.approx(np.log(b.value), rel=1e-14)


def test_upper_bound_value_uses_fitted_constant(green_sphere4_pair):
    dec0, _ = green_sphere4_pair
    # the mesh volume, not the continuum one, keeps the sandwich consistent
    ref = upper_bound_formula(dec0.mesh.total_area, dec0.ell, dec0.a_const)
    assert dec0.bound.value == pytest.approx(ref.value, rel=1e-14)


def test_richardson_pair_arithmetic():
    # levels halve h, A converges at O(h^2): (4 a_fine - a_coarse) / 3
    assert richardson_pair(1.0, 1.3) == pytest.approx(1.4, rel=1e-14)
    assert richardson_pair(2.0, 2.0) == 2.0


# ---------------------------------------------------------------- glued family


@pytest.fixture(scope="module")
def family_sweep(sphere3):
    s = sphere3
    source = s.action.min_orbit_vertex
    dec = green_solve(s.red, source, NormParams(alpha=1.5, lambda_gap=s.spectrum.lambda_1))
    eps_grid = (1e-2, 1e-3, 1e-4, 1e-5)
    fams = [build_test_family(dec, eps) for eps in eps_grid]
    reports = [family_lower_bound(fam) for fam in fams]
    return dec, eps_grid, fams, reports


def test_family_normalization(family_sweep):
    _, _, fams, _ = family_sweep
    for fam in fams:
        assert abs(fam.norm_sq - 1.0) < 1e-13
        assert fam.seam_gap < 1e-14
        assert fam.r_eps == pytest.approx(-np.log(fam.eps) * fam.eps, rel=1e-14)


def test_family_norm_times_height_is_free_of_b(family_sweep, monkeypatch):
    # c*eta and c*mbar do not depend on B, so the b-form's norm^2 * c^2 is
    # one constant Q; the closed form picks c^2 = Q
    dec, eps_grid, fams, _ = family_sweep
    norm_sq_glued = family_module._norm_sq_glued
    calls = []

    def record(b, t0, terms):
        calls.append((t0, terms))
        return norm_sq_glued(b, t0, terms)

    monkeypatch.setattr(family_module, "_norm_sq_glued", record)
    for eps, fam in zip(eps_grid, fams):
        assert build_test_family(dec, eps).c_sq == fam.c_sq
        t0, terms = calls.pop()
        assert t0 == pytest.approx(fam.b_const + fam.c_sq, rel=1e-14)
        b_grid = (t0 - 2.0 * fam.c_sq, fam.b_const, t0 - 0.5 * fam.c_sq)
        q = [norm_sq_glued(b, t0, terms) * (t0 - b) for b in b_grid]
        assert q == pytest.approx([fam.c_sq] * 3, rel=1e-13)


def test_family_height_ladder(family_sweep):
    # c^2 ~ R/(2 pi ell) grows by log(10)/(2 pi ell) per decade of eps
    dec, _, fams, _ = family_sweep
    c_sq = np.array([fam.c_sq for fam in fams])
    steps = np.diff(c_sq)
    step_ref = np.log(10.0) / (2 * np.pi * dec.ell)
    assert np.all(np.abs(steps - step_ref) < 0.01 * step_ref)


def test_family_mean_decay(family_sweep):
    _, _, fams, _ = family_sweep
    mbar_c = np.array([fam.mbar_c for fam in fams])
    assert np.all(mbar_c > 0)
    assert np.all(np.diff(mbar_c) < 0)
    assert mbar_c[-1] < 1e-10


def test_family_plateau_profile(family_sweep):
    _, _, fams, _ = family_sweep
    fam = fams[0]
    assert fam.c == pytest.approx(np.sqrt(fam.c_sq), rel=1e-15)
    # center height c + b/c, bubble decay away from it
    assert fam.plateau(0.0) == pytest.approx(fam.c + fam.b_const / fam.c, rel=1e-12)
    rho = np.linspace(0.0, fam.eps, 20)
    assert np.all(np.diff(fam.plateau(rho)) < 0)


def test_family_margin_behavior(family_sweep):
    dec, _, _, reports = family_sweep
    margins = np.array([rep.margin for rep in reports])
    assert np.all(margins > 0)
    assert np.all(np.diff(margins) < 0)
    for rep in reports:
        assert rep.margin == pytest.approx(rep.value - rep.bound.value, rel=1e-12)
        assert rep.margin_c_sq == pytest.approx(rep.margin * rep.c_sq, rel=1e-12)
        assert rep.value == pytest.approx(
            rep.outer_value + rep.inner_value + rep.annulus_value, rel=1e-12
        )
        assert rep.log_value == pytest.approx(np.log(rep.value), rel=1e-12)
        assert rep.inner_reference == pytest.approx(
            np.pi * dec.ell * np.exp(1.0 + 4 * np.pi * dec.ell * dec.a_const), rel=1e-12
        )


def test_family_excess_tracks_green_norm(family_sweep):
    # margin ~ 4*pi*ell*|G|_2^2 / c^2; the ratio stays O(1) down the sweep
    dec, _, fams, reports = family_sweep
    for fam, rep in zip(fams, reports):
        assert rep.tether == pytest.approx(8 * np.pi * dec.l2_sq / fam.c_sq, rel=1e-12)
        assert 1.0 < rep.tether_ratio < 3.0
    b_vals = np.array([rep.b_const for rep in reports])
    assert np.all(np.abs(b_vals - 1.0 / (8 * np.pi)) < 0.2 / (8 * np.pi))


def test_family_reads_the_fitted_fields_without_refitting(sphere3, monkeypatch):
    # green_solve fits A and |G|_2^2 and evaluates the bound once; the family
    # and its lower bound only read them, through whatever module binding
    s = sphere3
    params = NormParams(alpha=1.5, lambda_gap=s.spectrum.lambda_1)
    dec = green_solve(s.red, s.action.min_orbit_vertex, params)
    calls = []
    for name in ("extract_A", "green_l2_norm_sq", "upper_bound_value"):
        def counting(*args, _name=name, _orig=getattr(green_module, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        for module in (green_module, family_module):
            monkeypatch.setattr(module, name, counting, raising=False)
    reports = [family_lower_bound(build_test_family(dec, eps)) for eps in (1e-3, 1e-4)]
    assert calls == []
    assert all(rep.bound == dec.bound for rep in reports)


def test_family_eps_range_guard(family_sweep):
    dec, _, _, _ = family_sweep
    with pytest.raises(FamilyError, match=r"\(0, 0\.2\)"):
        build_test_family(dec, 0.25)
    with pytest.raises(FamilyError):
        build_test_family(dec, 0.0)


def test_family_orbit_separation_guard():
    # quarter-translation orbits on the unit torus leave no room at eps = 0.04
    mesh, action = build_flat_torus_mesh(48, 48, group_kind="shift(24,0)+shift(0,24)")
    red = orbit_reduction(assemble(mesh), action)
    dec = green_solve(red, 0, NormParams(alpha=0.0, lambda_gap=1.0))
    with pytest.raises(FamilyError, match="orbit separation"):
        build_test_family(dec, 0.04)
