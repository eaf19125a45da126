"""Subcritical maximizers of the exponential functional and their diagnostics.

Maximizes int exp((4*pi*ell - eps) u^2) over invariant mean-zero u with
|u|_(1,alpha) = 1 (intersected with the complement of the first j-1
eigenvalue clusters for j >= 2) by projected ascent preconditioned with the
shifted stiffness solve, followed by a damped fixed-point polish of the
Euler-Lagrange system

    (K - alpha M) u = (1/lambda) F(u) - (mu/lambda) a - sum_k gamma_k M e_k,

where F(u) = a * u * exp(beta u^2) is the lumped nonlinear load, a the lumped
areas, lambda = u.F, mu = sum(F)/Vol, and gamma_k = e_k.F / lambda.  All
multiplier terms are scale-free ratios of the load, so the iteration is
evaluated with the peak exponent shifted out and never overflows.  It runs on
orbit unknowns w, u = S w, with the reduced K, M and areas, so invariance is
exact by construction; vertex vectors appear only in the seed, the returned u
and the numbers reported with it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._sums import sorted_sum
from .constructions.bubble import BubbleProfile
from .constructions.green import invariant_shifted_solver
from .constructions.moser import (
    MoserSequence,
    cap_radius_limit,
    moser_evaluate,
    moser_semianalytic_log_value,
)
from .discretization import (
    FemOperators,
    NormParams,
    OrbitReduction,
    exp_functional,
    norm_one_alpha,
    orbit_reduction,
    project_invariant_meanzero,
    quadratic_form_sq,
    remove_mass_mean,
)
from .geometry import (
    GroupAction,
    SurfaceMesh,
    geodesic_distance,
    mean_edge_length,
    orbit_stats,
    triangle_corners,
    triangle_edge_sq,
)
from .spectrum import ComplementSpace

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
    "alpha_failure_probe",
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

    ``complement`` carries the working subspace (level 1 removes nothing) and
    the eigenvalue gap that ``alpha`` must stay below.  The solver iterates on
    the orbits of ``red``, built from (ops, action) when not given.
    """

    ops: FemOperators
    action: GroupAction
    complement: ComplementSpace
    alpha: float
    epsilon_sub: float
    red: OrbitReduction | None = None
    orbit_basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ell = self.action.min_orbit_size
        if not 0.0 < self.epsilon_sub < 4.0 * np.pi * ell:
            raise MaximizerError(
                f"epsilon_sub={self.epsilon_sub} outside (0, 4*pi*ell={4 * np.pi * ell:.6g})"
            )
        if self.alpha >= self.complement.lambda_level:
            raise MaximizerError(
                f"alpha={self.alpha} is not below the level-{self.complement.level} "
                f"gap {self.complement.lambda_level:.6g}"
            )
        if self.red is None:
            self.red = orbit_reduction(self.ops, self.action)
        self.orbit_basis = self.complement.basis[self.red.reps]

    @property
    def ell(self) -> int:
        return self.action.min_orbit_size

    @property
    def level(self) -> int:
        return self.complement.level

    @property
    def beta(self) -> float:
        return 4.0 * np.pi * self.ell - self.epsilon_sub

    @property
    def norm_params(self) -> NormParams:
        return NormParams(alpha=self.alpha, lambda_gap=self.complement.lambda_level, beta=self.beta)


@dataclass(eq=False)
class MaximizerState:
    u: np.ndarray  # invariant, mean-zero, complement member, |u|_(1,alpha) = 1
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


def _constrain(spec: ProblemSpec, w: np.ndarray) -> np.ndarray:
    """Orbit vector ``w`` without its mass mean and its removed-cluster parts."""
    w = remove_mass_mean(w, spec.red)
    basis = spec.orbit_basis
    if basis.size:
        w = w - basis @ (basis.T @ (spec.red.mass @ w))
    return w


def _normalize(spec: ProblemSpec, w: np.ndarray) -> np.ndarray:
    nrm = norm_one_alpha(w, spec.red, spec.norm_params)
    if nrm <= 0 or not np.isfinite(nrm):
        raise MaximizerError("vector vanishes after projection; cannot normalize")
    return w / nrm


def normalized_competitor(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Projection of arbitrary vertex values to the unit sphere of the problem."""
    u = project_invariant_meanzero(np.asarray(values, dtype=float), spec.ops, spec.action)
    return spec.red.expand(_normalize(spec, _constrain(spec, u[spec.red.reps])))


def _seed_orbits(spec: ProblemSpec, seed, rng_seed: int, solve) -> np.ndarray:
    ops, action, reps = spec.ops, spec.action, spec.red.reps
    if isinstance(seed, np.ndarray):
        return normalized_competitor(seed, spec)[reps]
    if seed == "random":
        rng = np.random.default_rng(rng_seed)
        return normalized_competitor(rng.standard_normal(ops.n), spec)[reps]
    center = int(orbit_stats(action).min_vertices[0])
    if seed == "moser":
        r = 0.8 * cap_radius_limit(ops.mesh, action, center)
        rep = moser_evaluate(MoserSequence(center, r, 10, spec.ell), ops.mesh, action)
        return normalized_competitor(rep.values, spec)[reps]
    if seed == "symmetric":
        # smooth non-concentrated invariant profile: shifted solve against the
        # lumped orbit indicator (a Green-type function, no plateau)
        b = -spec.red.lumped / ops.mesh.total_area
        b[action.orbit_index[center]] += 1.0
        return _normalize(spec, _constrain(spec, solve(b)))
    raise MaximizerError(f"unknown seed {seed!r}; use 'moser', 'symmetric', 'random', or an array")


def _multipliers(spec: ProblemSpec, u: np.ndarray, ops: FemOperators, basis: np.ndarray):
    """Scale-free Euler-Lagrange data at u.

    Takes a vertex u with (spec.ops, spec.complement.basis) or an orbit u
    with (spec.red, spec.orbit_basis).  Returns (rhs, shift, lam_shifted,
    mu_shifted, gammas) where the true lambda is lam_shifted * e^shift and
    rhs is the multiplier-corrected load
    (1/lambda) F - (mu/lambda) a - sum gamma_k M e_k, which needs no shift.
    """
    a = ops.lumped
    t = spec.beta * u * u
    shift = float(t.max())
    f_sh = a * u * np.exp(t - shift)
    lam_sh = float(u @ f_sh)
    if lam_sh <= 0:
        raise MaximizerError("degenerate iterate: int u^2 e^(beta u^2) vanished")
    mu_sh = float(np.sum(f_sh)) / ops.mesh.total_area
    gammas_sh = basis.T @ f_sh if basis.size else np.zeros(0)
    rhs = f_sh / lam_sh - (mu_sh / lam_sh) * a
    if basis.size:
        rhs = rhs - (ops.mass @ basis) @ (gammas_sh / lam_sh)
    return rhs, shift, lam_sh, mu_sh, gammas_sh / lam_sh


def _residual(spec: ProblemSpec, w: np.ndarray, rhs: np.ndarray, solve) -> float:
    red = spec.red
    r = red.stiffness @ w - spec.alpha * (red.mass @ w) - rhs
    d = _constrain(spec, solve(r))
    return float(np.sqrt(max(float(d @ r), 0.0)))


def solve_subcritical(
    spec: ProblemSpec,
    seed="moser",
    max_iters: int = 400,
    tol: float = _DEFAULT_TOL,
    rng_seed: int = 0,
    solve=None,
) -> MaximizerState:
    """Projected-ascent maximizer with Euler-Lagrange fixed-point polish.

    Each accepted ascent step does not decrease the log-functional
    (backtracking on the step); polish steps are accepted only when they
    shrink the dual-norm defect without losing functional value beyond
    round-off.  Non-convergence returns the best iterate flagged, never
    raises.  ``solve`` is an ``invariant_shifted_solver`` of ``spec.red`` at
    ``spec.alpha`` when the caller holds one; otherwise one is built here.
    The iterates are orbit vectors; the returned state holds their expansion.
    """
    ops, red = spec.ops, spec.red
    if solve is None:
        solve = invariant_shifted_solver(red, spec.alpha)
    w = _seed_orbits(spec, seed, rng_seed, solve)
    log_j = exp_functional(w, spec.beta, red).log_value
    step = 1.0
    best = None  # (residual, w, log_j, iteration)
    carried = None  # (rhs, residual) of an accepted polish trial, which is the next w

    it = 0
    for it in range(1, max_iters + 1):
        if carried is None:
            rhs = _multipliers(spec, w, red, spec.orbit_basis)[0]
            res = _residual(spec, w, rhs, solve)
        else:
            (rhs, res), carried = carried, None
        if best is None or res < best[0]:
            best = (res, w, log_j, it)
        if res <= tol:
            break

        # damped fixed-point on (K - alpha M) w = rhs(w)
        moved = False
        w_fp = _normalize(spec, _constrain(spec, solve(rhs)))
        if float(w_fp @ (red.mass @ w)) < 0:
            w_fp = -w_fp
        for theta in _POLISH_DAMPING:
            w_try = _normalize(spec, _constrain(spec, w + theta * (w_fp - w)))
            log_try = exp_functional(w_try, spec.beta, red).log_value
            if log_try + 64 * np.finfo(float).eps * max(1.0, abs(log_j)) < log_j:
                continue
            rhs_try = _multipliers(spec, w_try, red, spec.orbit_basis)[0]
            res_try = _residual(spec, w_try, rhs_try, solve)
            if res_try < _POLISH_FACTOR * res:
                w, log_j, moved = w_try, log_try, True
                carried = (rhs_try, res_try)
                break
        if moved:
            continue

        # preconditioned gradient ascent with backtracking on the log value
        t = spec.beta * w * w
        grad = red.lumped * w * np.exp(t - float(t.max()))
        d = _constrain(spec, solve(grad))
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

    w = _normalize(spec, best[1])
    u = red.expand(w)
    rhs, shift, lam_sh, mu_sh, gammas = _multipliers(spec, u, ops, spec.complement.basis)
    res = _residual(spec, w, red.reduce(rhs), solve)
    val = exp_functional(u, spec.beta, ops)
    lam = lam_sh * np.exp(shift)
    if lam <= 0:
        raise MaximizerError(f"lambda_eps = {lam!r} is not positive at the returned state")
    nrm = norm_one_alpha(u, ops, spec.norm_params)
    if abs(nrm - 1.0) > 1e-10:
        raise MaximizerError(f"normalization drifted: |u|_(1,alpha) = {nrm!r}")
    c_eps = float(np.max(np.abs(u)))
    state = MaximizerState(
        u=u,
        lambda_eps=float(lam),
        mu_eps=float(mu_sh * np.exp(shift)),
        gammas=np.asarray(gammas, dtype=float),
        c_eps=c_eps,
        x_eps=int(np.argmax(np.abs(u))),
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
    lambda_eps: float
    mu_eps: float
    gammas: np.ndarray
    mu_over_lambda: float
    residual_u: float  # testing the Euler-Lagrange equation with u vs |u|^2 = 1
    residual_const: float  # testing with 1 vs mu Vol = int u e^(beta u^2)
    residual_gammas: np.ndarray  # testing with each removed e_k


def multiplier_report(state: MaximizerState, ops: FemOperators) -> MultiplierReport:
    """Multipliers recomputed from quadrature, checked against the weak form."""
    spec = state.spec
    u = state.u
    a = ops.lumped
    t = spec.beta * u * u
    shift = float(t.max())
    f_sh = a * u * np.exp(t - shift)
    lam_sh = float(u @ f_sh)
    mu_sh = float(np.sum(f_sh)) / ops.mesh.total_area
    ku = ops.stiffness @ u - spec.alpha * (ops.mass @ u)
    basis = spec.complement.basis

    # test with u: u.(K - aM)u = (1/lam) u.F - (mu/lam) u.a - sum gamma_k u.M e_k
    rhs_u = 1.0 - (mu_sh / lam_sh) * float(a @ u)
    if basis.size:
        rhs_u -= float((basis.T @ (ops.mass @ u)) @ (basis.T @ f_sh)) / lam_sh
    residual_u = abs(float(u @ ku) - rhs_u)

    # test with 1: the equation integrates to zero on both sides
    residual_const = abs(mu_sh * ops.mesh.total_area - float(np.sum(f_sh))) / max(lam_sh, 1e-300)
    residual_const += abs(float(np.sum(ku))) / max(lam_sh * np.exp(min(shift, 700.0)), 1.0)

    gammas_q = (basis.T @ f_sh) / lam_sh if basis.size else np.zeros(0)
    if basis.size:
        gammas_weak = gammas_q - (mu_sh / lam_sh) * (basis.T @ a) - basis.T @ ku
        residual_gammas = np.abs(gammas_weak - gammas_q)
    else:
        residual_gammas = np.zeros(0)
    return MultiplierReport(
        lambda_eps=float(lam_sh * np.exp(shift)),
        mu_eps=float(mu_sh * np.exp(shift)),
        gammas=gammas_q,
        mu_over_lambda=float(mu_sh / lam_sh),
        residual_u=float(residual_u),
        residual_const=float(residual_const),
        residual_gammas=residual_gammas,
    )


def triangle_dirichlet_energies(u: np.ndarray, mesh: SurfaceMesh) -> np.ndarray:
    """Per-triangle Dirichlet energy, bitwise equal across group-image triangles.

    The three cotangent terms are summed in sorted order so the result depends
    only on the multiset of (edge, value-difference) pairs.
    """
    sq = triangle_edge_sq(triangle_corners(mesh))
    area = mesh.face_areas
    tri = mesh.triangles
    terms = np.empty_like(sq)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cot_w = (sq[:, j] + sq[:, k] - sq[:, i]) / (8.0 * area)
        terms[:, i] = cot_w * (u[tri[:, j]] - u[tri[:, k]]) ** 2
    return np.sort(terms, axis=1).sum(axis=1)


@dataclass(eq=False)
class BlowupDiagnostics:
    r_eps: float
    c_eps: float
    orbit: np.ndarray  # orbit of the peak vertex
    radii: np.ndarray
    local_energies: np.ndarray  # (len(orbit), len(radii)) ball Dirichlet energies
    energy_budget: float  # u.K u = 1 + alpha u.M u
    energy_fractions: np.ndarray  # per radius: sum of orbit-ball energies / budget
    profile_error: float  # sup distance of the rescaled peak to the bubble, nan if skipped
    profile_points: int
    resolution_warning: bool


def blowup_diagnostics(
    state: MaximizerState,
    mesh: SurfaceMesh,
    action: GroupAction,
    bubble: BubbleProfile,
    radii,
    c_threshold: float = 3.0,
    profile_span: float = 5.0,
) -> BlowupDiagnostics:
    """Concentration-scale diagnostics of a converged maximizer.

    The blow-up scale is r_eps = sqrt(lambda)/c * e^(-(2 pi ell - eps/2) c^2);
    ball energies sum full triangles whose vertices all lie inside, in sorted
    order, so orbit-image balls report bitwise-equal numbers.  The rescaled
    profile c (u - c) on the disk of radius ``profile_span`` in blow-up
    coordinates is compared to the bubble when the scale is resolvable.
    """
    spec = state.spec
    if state.c_eps < c_threshold:
        raise MaximizerError(
            f"c_eps = {state.c_eps:.4g} below the blow-up threshold {c_threshold}; "
            "asymptotic diagnostics are not meaningful (pass c_threshold to override)"
        )
    ell = spec.ell
    log_r = (
        0.5 * np.log(state.lambda_eps)
        - np.log(state.c_eps)
        - (2.0 * np.pi * ell - 0.5 * spec.epsilon_sub) * state.c_eps**2
    )
    r_eps = float(np.exp(log_r))

    orbit = np.flatnonzero(action.orbit_index == action.orbit_index[state.x_eps])
    radii = np.asarray(radii, dtype=float)
    e_tri = triangle_dirichlet_energies(state.u, mesh)
    tri = mesh.triangles
    local = np.empty((len(orbit), len(radii)))
    for i, p in enumerate(orbit):
        dist = geodesic_distance(mesh, int(p)).distances
        tri_dist = dist[tri].max(axis=1)
        for j, r in enumerate(radii):
            local[i, j] = sorted_sum(e_tri[tri_dist <= r])
    budget = float(state.u @ (spec.ops.stiffness @ state.u))
    fractions = local.sum(axis=0) / budget

    h = mean_edge_length(mesh)
    profile_error = float("nan")
    n_pts = 0
    resolution_warning = r_eps < h
    if not resolution_warning:
        dist = geodesic_distance(mesh, state.x_eps).distances
        inside = dist <= profile_span * r_eps
        n_pts = int(np.count_nonzero(inside))
        if n_pts < 8:
            resolution_warning = True
        else:
            y = dist[inside] / r_eps
            rescaled = state.c_eps * (state.u[inside] - state.c_eps)
            profile_error = float(np.max(np.abs(rescaled - bubble(y))))
    if resolution_warning:
        warnings.warn(
            f"blow-up scale r_eps = {r_eps:.3e} is at or below the mesh resolution "
            f"(h = {h:.3e}); profile comparison skipped",
            stacklevel=2,
        )
    return BlowupDiagnostics(
        r_eps=r_eps,
        c_eps=state.c_eps,
        orbit=orbit,
        radii=radii,
        local_energies=local,
        energy_budget=budget,
        energy_fractions=fractions,
        profile_error=profile_error,
        profile_points=n_pts,
        resolution_warning=resolution_warning,
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


def alpha_failure_probe(
    ops: FemOperators,
    action: GroupAction,
    eigvec: np.ndarray,
    alpha: float,
    t_grid,
    beta: float = 1.0,
) -> list:
    """Feasibility-vs-growth table for t * e_j at the critical shift alpha = lambda_j.

    The shifted quadratic form of t*e_j is t^2 (lambda_j - alpha) <= 0 + round-off,
    so every t is feasible for the ball constraint while the functional grows
    without bound; (log value - log Vol)/t^2 is non-decreasing in t by
    convexity of t^2 -> log int e^(t^2 g).
    """
    rows = []
    vol = ops.mesh.total_area
    for t in np.asarray(t_grid, dtype=float):
        q = quadratic_form_sq(t * eigvec, ops, alpha)
        val = exp_functional(t * eigvec, beta, ops)
        rows.append(
            {
                "t": float(t),
                "shifted_form": float(q),
                "feasible": bool(q <= 1.0 + 1e-9),
                "log_value": val.log_value,
                "growth_rate": float((val.log_value - np.log(vol)) / t**2) if t else 0.0,
            }
        )
    return rows
