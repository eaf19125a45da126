"""Subcritical maximizers of the exponential functional and their concentration.

Maximizes int exp((4*pi*ell - eps) u^2) over invariant mean-zero u with
|u|_(1,alpha) = 1 (intersected with the complement of the first j-1
eigenvalue clusters for j >= 2) by projected ascent preconditioned with the
shifted stiffness solve, followed by a damped fixed-point polish of the
Euler-Lagrange system

    (K - alpha M) u = (1/lambda) F(u) - (mu/lambda) a - sum_k gamma_k M e_k,

where F(u) = a * u * exp(beta u^2) is the lumped nonlinear load, a the lumped
areas, lambda = u.F, mu = sum(F)/Vol, and gamma_k = e_k.F / lambda.  All
multiplier terms are scale-free ratios of the load, so the system is
evaluated with the peak exponent shifted out and never overflows.  Everything
runs on orbit unknowns w, u = S w, with the reduced K, M and areas, so
invariance is exact by construction: ``_multipliers`` is the one evaluation
of the load and the multipliers, shared by the ascent step, the polish, the
returned state and ``multiplier_report``.  Vertex vectors appear only in a
vertex seed's values and in the returned u.

Each evaluated iterate costs one back-substitution on the held factorization
of K - alpha M: the residual r = (K - alpha M) w - rhs is solved once for the
dual-norm defect, z = solve(r), and both search directions follow from it.
By linearity solve(rhs) = w - z, the fixed-point image.  Since
F = lambda rhs + mu a + lambda sum gamma_k M e_k, and solve(a) is constant
((K - alpha M) 1 = -alpha a; zero under the alpha = 0 border) while
solve(M e_k) = e_k / (lambda_k - alpha) up to the eigenpair residual, the
projection that removes the mass mean and the e_k turns the preconditioned
gradient solve(F) into lambda times the projected w - z.

For alpha below the gap and beta <= 4*pi*ell the supremum is attained and
maximizers stay bounded, so ``blowup_diagnostics`` reports only numbers that
hold at any height c_eps: the peak orbit, its share of the lumped
functional, and the orbit-ball Dirichlet energies against the energy budget.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._sums import sorted_sum, sorted_sum3
from .constructions.moser import (
    MoserSequence,
    cap_radius_limit,
    moser_evaluate,
    moser_semianalytic_log_value,
)
from .discretization import (
    NormParams,
    OrbitReduction,
    cotangent_weights,
    exp_functional,
    norm_one_alpha,
    project_invariant_meanzero,
    remove_mass_mean,
)
from .geometry import GroupAction, SurfaceMesh, geodesic_distance
from .spectrum import InvariantSpectrum

__all__ = [
    "MaximizerError",
    "ProblemSpec",
    "MaximizerState",
    "MultiplierReport",
    "BlowupDiagnostics",
    "solve_subcritical",
    "normalized_competitor",
    "multiplier_report",
    "triangle_dirichlet_energies",
    "blowup_diagnostics",
    "sharpness_probe",
]

_STEP_MIN = 1e-12
_POLISH_DAMPING = (1.0, 0.5, 0.25, 0.1)
_POLISH_FACTOR = 1.0 - 1e-6  # any certified residual decrease is progress
_DEFAULT_TOL = 1e-8


class MaximizerError(RuntimeError):
    pass


@dataclass(eq=False)
class ProblemSpec:
    """Maximization problem at exponent 4*pi*ell - epsilon_sub on level ``j``.

    The working subspace is the complement of the first ``level - 1``
    eigenvalue clusters of ``spectrum`` (level 1 removes nothing).
    ``orbit_basis`` holds the removed eigenvectors on orbit unknowns,
    ``spectrum.eigenvectors[:, :m]``, and ``lambda_level``, the
    eigenvalue of cluster ``level``, is the gap that ``alpha`` must stay
    below.  The solver iterates on the orbits of ``red`` with the
    factorization it holds at ``alpha``.
    """

    red: OrbitReduction
    spectrum: InvariantSpectrum = field(repr=False)
    level: int
    alpha: float
    epsilon_sub: float
    lambda_level: float = field(init=False)
    orbit_basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ell = self.action.min_orbit_size
        if not 0.0 < self.epsilon_sub < 4.0 * np.pi * ell:
            raise MaximizerError(
                f"epsilon_sub={self.epsilon_sub} outside (0, 4*pi*ell={4 * np.pi * ell:.6g})"
            )
        self.lambda_level = self.spectrum.group_value(self.level)  # raises outside the clusters
        if self.alpha >= self.lambda_level:
            raise MaximizerError(
                f"alpha={self.alpha} is not below the level-{self.level} "
                f"gap {self.lambda_level:.6g}"
            )
        m = sum(g[1] for g in self.spectrum.groups[: self.level - 1])
        self.orbit_basis = self.spectrum.eigenvectors[:, :m]

    @property
    def action(self) -> GroupAction:
        return self.red.action

    @property
    def ell(self) -> int:
        return self.action.min_orbit_size

    @property
    def beta(self) -> float:
        return 4.0 * np.pi * self.ell - self.epsilon_sub

    @property
    def norm_params(self) -> NormParams:
        return NormParams(alpha=self.alpha, lambda_gap=self.lambda_level)


@dataclass(eq=False)
class MaximizerState:
    w: np.ndarray  # orbit vector: mean-zero, complement member, |w|_(1,alpha) = 1
    lambda_eps: float  # int u^2 e^(beta u^2)
    mu_eps: float  # (1/Vol) int u e^(beta u^2)
    gammas: np.ndarray  # multipliers of the removed eigenvectors (empty at level 1)
    c_eps: float  # max |u|
    x_eps: int  # lowest argmax vertex
    value: float
    log_value: float
    residual: float  # Euler-Lagrange defect in the dual norm
    iterations: int
    converged: bool
    spec: ProblemSpec = field(repr=False, default=None)

    @property
    def u(self) -> np.ndarray:
        """The state on the vertices, an exact copy of ``w`` per orbit."""
        return self.spec.red.expand(self.w)


def _remove_basis(spec: ProblemSpec, w: np.ndarray) -> np.ndarray:
    """Orbit vector ``w`` without its removed-cluster parts."""
    basis = spec.orbit_basis
    if basis.size:
        w = w - basis @ (basis.T @ (spec.red.mass @ w))
    return w


def _constrain(spec: ProblemSpec, w: np.ndarray) -> np.ndarray:
    """Orbit vector ``w`` without its mass mean and its removed-cluster parts."""
    return _remove_basis(spec, remove_mass_mean(w, spec.red))


def _normalize(spec: ProblemSpec, w: np.ndarray) -> np.ndarray:
    nrm = norm_one_alpha(w, spec.red, spec.norm_params)
    if nrm <= 0 or not np.isfinite(nrm):
        raise MaximizerError("vector vanishes after projection; cannot normalize")
    return w / nrm


def normalized_competitor(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Orbit vector of arbitrary vertex values, projected to the unit sphere of the problem."""
    return _normalize(spec, _remove_basis(spec, project_invariant_meanzero(values, spec.red)))


def _seed_orbits(spec: ProblemSpec, seed, rng_seed: int, solve) -> np.ndarray:
    mesh, action = spec.red.mesh, spec.action
    if isinstance(seed, np.ndarray):
        return normalized_competitor(seed, spec)
    if seed == "random":
        rng = np.random.default_rng(rng_seed)
        return normalized_competitor(rng.standard_normal(mesh.n_vertices), spec)
    center = action.min_orbit_vertex
    if seed == "moser":
        dist = geodesic_distance(mesh, center)
        r = 0.8 * cap_radius_limit(mesh, action, center, dist)
        rep = moser_evaluate(MoserSequence(center, r, 10, spec.ell), mesh, action, dist)
        return normalized_competitor(rep.values, spec)
    if seed == "symmetric":
        # smooth non-concentrated invariant profile: shifted solve against the
        # lumped orbit indicator (a Green-type function, no plateau)
        b = -spec.red.lumped / mesh.total_area
        b[action.orbit_index[center]] += 1.0
        return _normalize(spec, _constrain(spec, solve(b)))
    raise MaximizerError(f"unknown seed {seed!r}; use 'moser', 'symmetric', 'random', or an array")


def _multipliers(spec: ProblemSpec, w: np.ndarray):
    """Scale-free Euler-Lagrange data at the orbit vector w.

    Returns (load, rhs, shift, lam_shifted, mu_shifted, gammas): ``load`` is
    the lumped load F = a w e^(beta w^2) times e^-shift, the true lambda and
    mu are lam_shifted * e^shift and mu_shifted * e^shift, and the gammas and
    rhs = (1/lambda) F - (mu/lambda) a - sum gamma_k M e_k need no shift.
    """
    red, basis = spec.red, spec.orbit_basis
    t = spec.beta * w * w
    shift = float(t.max())
    load = red.lumped * w * np.exp(t - shift)
    lam_sh = float(w @ load)
    if lam_sh <= 0:
        raise MaximizerError("degenerate iterate: int u^2 e^(beta u^2) vanished")
    mu_sh = float(np.sum(load)) / red.mesh.total_area
    gammas = basis.T @ load / lam_sh if basis.size else np.zeros(0)
    rhs = load / lam_sh - (mu_sh / lam_sh) * red.lumped
    if basis.size:
        rhs = rhs - (red.mass @ basis) @ gammas
    return load, rhs, shift, lam_sh, mu_sh, gammas


def _residual(spec: ProblemSpec, w: np.ndarray, rhs: np.ndarray, solve):
    """The dual-norm defect of (K - alpha M) w = rhs, and z = solve(r) of its residual r.

    ``w - z`` is solve(rhs), the fixed-point image of ``w``.
    """
    red = spec.red
    r = red.stiffness @ w - spec.alpha * (red.mass @ w) - rhs
    z = solve(r)
    d = _constrain(spec, z)
    return float(np.sqrt(max(float(d @ r), 0.0))), z


def solve_subcritical(
    spec: ProblemSpec,
    seed="moser",
    max_iters: int = 400,
    tol: float = _DEFAULT_TOL,
    rng_seed: int = 0,
) -> MaximizerState:
    """Projected-ascent maximizer with Euler-Lagrange fixed-point polish.

    Each accepted ascent step does not decrease the log-functional
    (backtracking on the step); polish steps are accepted only when they
    shrink the dual-norm defect without losing functional value beyond
    round-off.  Non-convergence returns the best iterate flagged, never
    raises.  The iterates are orbit vectors, solved with the factorization
    ``spec.red`` holds at ``spec.alpha``; the returned state keeps the
    orbit vector and expands it on demand.
    """
    red = spec.red
    solve = red.shifted_solver(spec.alpha)
    w = _seed_orbits(spec, seed, rng_seed, solve)
    log_j = exp_functional(w, spec.beta, red).log_value
    step = 1.0
    best = None  # (residual, w) of the iterate with the smallest residual
    carried = None  # (lam_sh, residual, z) of an accepted polish trial, which is the next w

    it = 0
    for it in range(1, max_iters + 1):
        if carried is None:
            _, rhs, _, lam_sh = _multipliers(spec, w)[:4]
            res, z = _residual(spec, w, rhs, solve)
        else:
            (lam_sh, res, z), carried = carried, None
        if best is None or res < best[0]:
            best = (res, w)
        if res <= tol:
            break

        # damped fixed-point on (K - alpha M) w = rhs(w); solve(rhs) = w - z
        moved = False
        p = _constrain(spec, w - z)
        w_fp = _normalize(spec, p)
        if float(w_fp @ (red.mass @ w)) < 0:
            w_fp = -w_fp
        for theta in _POLISH_DAMPING:
            w_try = _normalize(spec, _constrain(spec, w + theta * (w_fp - w)))
            log_try = exp_functional(w_try, spec.beta, red).log_value
            if log_try + 64 * np.finfo(float).eps * max(1.0, abs(log_j)) < log_j:
                continue
            _, rhs_try, _, lam_try = _multipliers(spec, w_try)[:4]
            res_try, z_try = _residual(spec, w_try, rhs_try, solve)
            if res_try < _POLISH_FACTOR * res:
                w, log_j, moved = w_try, log_try, True
                carried = (lam_try, res_try, z_try)
                break
        if moved:
            continue

        # preconditioned gradient ascent with backtracking on the log value;
        # the projected solve(load) is lam_sh * p (module docstring)
        d = lam_sh * p
        accepted = False
        while step >= _STEP_MIN:
            w_try = _normalize(spec, _constrain(spec, w + step * d))
            log_try = exp_functional(w_try, spec.beta, red).log_value
            if log_try > log_j:
                w, log_j, accepted = w_try, log_try, True
                step = min(step * 1.5, 1e3)
                break
            step *= 0.5
        if not accepted:
            break  # stationary to floating-point resolution

    res, w = best  # normalized when it was evaluated
    _, _, shift, lam_sh, mu_sh, gammas = _multipliers(spec, w)
    val = exp_functional(w, spec.beta, red)
    nrm = norm_one_alpha(w, red, spec.norm_params)
    if abs(nrm - 1.0) > 1e-10:
        raise MaximizerError(f"normalization drifted: |u|_(1,alpha) = {nrm!r}")
    state = MaximizerState(
        w=w,
        lambda_eps=float(lam_sh * np.exp(shift)),
        mu_eps=float(mu_sh * np.exp(shift)),
        gammas=gammas,
        c_eps=float(np.max(np.abs(w))),
        x_eps=int(red.reps[np.argmax(np.abs(w))]),
        value=val.value,
        log_value=val.log_value,
        residual=res,
        iterations=it,
        converged=bool(res <= tol),
        spec=spec,
    )
    if not state.converged:
        warnings.warn(
            f"maximizer stopped at residual {res:.3e} > tol {tol:.0e} after {it} iterations; "
            "returning the best iterate",
            stacklevel=2,
        )
    return state


@dataclass(eq=False)
class MultiplierReport:
    mu_over_lambda: float
    residual_u: float  # testing the Euler-Lagrange equation with u vs |u|^2 = 1
    residual_const: float  # testing with 1 vs mu Vol = int u e^(beta u^2)
    residual_gammas: np.ndarray  # testing with each removed e_k


def multiplier_report(state: MaximizerState) -> MultiplierReport:
    """The state's multipliers checked against the weak form, on orbit unknowns.

    The identities check feasibility, not stationarity: testing the equation
    with u reduces to |u|_(1,alpha) = 1 and mean zero, testing with 1 to mean
    zero and the definition of mu, and testing with a removed e_k to
    orthogonality, so any feasible u passes them.  ``state.residual``, the
    Euler-Lagrange defect in the dual norm, is the stationarity measure.
    """
    spec = state.spec
    red, basis = spec.red, spec.orbit_basis
    w = state.w
    load, _, shift, lam_sh, mu_sh, gammas = _multipliers(spec, w)
    kw = red.stiffness @ w - spec.alpha * (red.mass @ w)

    # test with u: u.(K - aM)u = (1/lam) u.F - (mu/lam) u.a - sum gamma_k u.M e_k
    rhs_u = 1.0 - (mu_sh / lam_sh) * float(red.lumped @ w)
    if basis.size:
        rhs_u -= float((basis.T @ (red.mass @ w)) @ gammas)
    residual_u = abs(float(w @ kw) - rhs_u)

    # test with 1: the equation integrates to zero on both sides
    residual_const = abs(mu_sh * red.mesh.total_area - float(np.sum(load))) / lam_sh
    residual_const += abs(float(np.sum(kw))) / max(lam_sh * np.exp(min(shift, 700.0)), 1.0)

    if basis.size:
        gammas_weak = gammas - (mu_sh / lam_sh) * (basis.T @ red.lumped) - basis.T @ kw
        residual_gammas = np.abs(gammas_weak - gammas)
    else:
        residual_gammas = np.zeros(0)
    return MultiplierReport(
        mu_over_lambda=float(mu_sh / lam_sh),
        residual_u=float(residual_u),
        residual_const=float(residual_const),
        residual_gammas=residual_gammas,
    )


def triangle_dirichlet_energies(u: np.ndarray, mesh: SurfaceMesh) -> np.ndarray:
    """Per-triangle Dirichlet energy, bitwise equal across group-image triangles.

    The three cotangent terms are summed in sorted order so the result depends
    only on the multiset of (edge, value-difference) pairs.  A term is -0
    only where a negative cotangent meets two equal values, and at most one
    cotangent of a triangle is negative, so no triple is all -0, as
    ``sorted_sum3`` requires.
    """
    terms = cotangent_weights(mesh)
    tri = mesh.triangles
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        terms[:, i] *= (u[tri[:, j]] - u[tri[:, k]]) ** 2
    return sorted_sum3(terms[:, 0], terms[:, 1], terms[:, 2])


@dataclass(eq=False)
class BlowupDiagnostics:
    c_eps: float
    orbit: np.ndarray  # orbit of the peak vertex
    peak_share: float  # the peak orbit's term of the lumped sum J, over the sum
    radii: np.ndarray
    local_energies: np.ndarray  # (len(orbit), len(radii)) ball Dirichlet energies
    energy_budget: float  # u.K u = w.K_r w = 1 + alpha u.M u
    energy_fractions: np.ndarray  # per radius: sum of orbit-ball energies / budget


def blowup_diagnostics(state: MaximizerState, radii) -> BlowupDiagnostics:
    """Concentration numbers of a maximizer that hold at any height c_eps.

    ``peak_share`` is the peak orbit's term of the lumped sum that
    ``exp_functional`` takes, divided by that sum.  Ball energies sum full
    triangles whose vertices all lie inside, in sorted order, so orbit-image
    balls report bitwise-equal numbers.
    """
    spec = state.spec
    red, mesh, action = spec.red, spec.red.mesh, spec.action
    t = spec.beta * state.w * state.w
    terms = red.lumped * np.exp(t - t.max())
    peak_share = float(terms[action.orbit_index[state.x_eps]] / sorted_sum(terms))

    orbit = action.orbit_of(state.x_eps)
    radii = np.asarray(radii, dtype=float)
    u = state.u
    e_tri = triangle_dirichlet_energies(u, mesh)
    tri = mesh.triangles
    local = np.empty((len(orbit), len(radii)))
    for i, p in enumerate(orbit):
        dist = geodesic_distance(mesh, int(p))
        tri_dist = dist[tri].max(axis=1)
        for j, r in enumerate(radii):
            local[i, j] = sorted_sum(e_tri[tri_dist <= r])
    budget = float(state.w @ (red.stiffness @ state.w))  # u.K u for u = S w
    return BlowupDiagnostics(
        c_eps=state.c_eps,
        orbit=orbit,
        peak_share=peak_share,
        radii=radii,
        local_energies=local,
        energy_budget=budget,
        energy_fractions=local.sum(axis=0) / budget,
    )


def sharpness_probe(model, ell: int, beta_grid, k_grid, r: float = 0.05,
                    alpha: float = 0.0, n_quad: int = 400) -> list:
    """Divergence table of the semi-analytic cap values across exponents.

    For each beta the log of the exponential functional at the normalized cap
    function is evaluated over k_grid; the slope of log-value against log k
    separates the divergent regime (positive slope persisting for
    beta > 4*pi*ell) from the bounded one.
    """
    rows = []
    for beta in np.asarray(beta_grid, dtype=float):
        logs = [
            moser_semianalytic_log_value(model, ell, int(k), r, float(beta), alpha, n_quad)
            for k in k_grid
        ]
        logs = np.asarray(logs)
        slope = float(np.polyfit(np.log(np.asarray(k_grid, dtype=float)), logs, 1)[0])
        rows.append(
            {
                "beta": float(beta),
                "k": [int(k) for k in k_grid],
                "log_values": [float(v) for v in logs],
                "slope": slope,
                "strictly_increasing": bool(np.all(np.diff(logs) > 0)),
                "variation": float((logs.max() - logs.min()) / max(abs(logs.min()), 1e-300)),
            }
        )
    return rows
