"""Concentrating test-function family and the lower-bound comparison it induces.

The family glues a logarithmic plateau profile of height c inside geodesic
balls of radius R*eps around a minimal orbit (R = -log eps) to the rescaled
Green function G/c outside, through an annulus where the regular remainder
psi~ is faded out by a cutoff. Continuity at the seam ties the gluing
constant B to the height: B = t0 - c^2, with
t0 = -(1/2*pi*ell) log(R*eps) + A + (1/4*pi*ell) log(1 + pi*ell*R^2).
So c*eta is t0 + q (q the log profile) inside the balls and G outside, and
c times the mean of eta is fixed by them: none of the three depends on B.
The shifted norm is then Q/c^2 with Q built from radial integrals alone,
and the unit-norm member has c^2 = Q, an output of the construction.

Evaluating the exponential functional on the family from below uses the
pointwise bound e^t >= 1 + t away from the concentration balls and exact
radial quadrature of the exponential profile inside them, so the reported
value is a certified lower bound of the quadrature model.  Comparing it with
Vol + pi*ell*e^(1+4*pi*ell*A) built from the *same* fitted constant and mesh
volume makes the leading discretization errors cancel in the margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._sums import logsumexp, sorted_sum
from .green import GreenDecomposition, UpperBound
from .moser import min_orbit_separation
from .radial import log_integral_exp, radial_integral

__all__ = [
    "FamilyError",
    "TestFunctionFamily",
    "build_test_family",
    "LowerBoundReport",
    "test_family_lower_bound",
    "EPS_MAX",
]

EPS_MAX = 0.2  # family parameters eps lie in (0, EPS_MAX)
_NORM_TOL = 1e-6
_SEAM_TOL = 1e-8


class FamilyError(RuntimeError):
    """Raised when no admissible family member exists at the requested eps."""


def _smoothstep_down(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


@dataclass(eq=False)
class TestFunctionFamily:
    eps: float
    R: float
    r_eps: float  # seam radius R*eps
    b_const: float
    c_sq: float
    mbar: float
    norm_sq: float
    seam_gap: float
    values: np.ndarray  # vertex samples of phi = eta - mbar
    dec: GreenDecomposition = field(repr=False)

    @property
    def c(self) -> float:
        return float(np.sqrt(self.c_sq))

    @property
    def mbar_c(self) -> float:
        """|mean| * height; decays like R*eps*log(R*eps) as eps -> 0."""
        return abs(self.mbar) * self.c

    def plateau(self, rho):
        """Profile inside the concentration balls (height c at the center)."""
        ell = self.dec.ell
        q = -np.log1p(np.pi * ell * (np.asarray(rho) / self.eps) ** 2) / (4.0 * np.pi * ell) + self.b_const
        return self.c + q / self.c


def _norm_sq_glued(b: float, t0: float, terms: tuple[float, ...]) -> float:
    """Shifted norm^2 of the member glued with constant b (c^2 = t0 - b).

    terms = (ell, alpha, Vol, |B_r_eps|, J_q, seam flux, I_log, I_log2, I_g).
    """
    ell, alpha, vol, area_in, j_q, boundary, i_log, i_log2, i_g = terms
    c_sq = t0 - b
    i_q = i_log + b * area_in
    i_q2 = i_log2 + 2.0 * b * i_log + b * b * area_in
    mbar = ell * (c_sq * area_in + i_q - i_g) / (vol * np.sqrt(c_sq))
    dirichlet = (ell * j_q + boundary + (ell / vol) * i_g) / c_sq
    l2_in = ell * (c_sq * area_in + 2.0 * i_q + i_q2 / c_sq)
    return dirichlet - alpha * l2_in + alpha * vol * mbar * mbar


def build_test_family(
    dec: GreenDecomposition,
    eps: float,
    n_quad: int = 400,
) -> TestFunctionFamily:
    """Member of the family at parameter eps, normalized to unit shifted norm.

    The norm is assembled semi-analytically: radial quadrature inside the
    balls, the integrated-by-parts identity for the outer Dirichlet energy,
    and the mesh L2 norm of G outside.  Cross terms supported on the cutoff
    annulus are of order R*eps*log(R*eps) and are dropped; they are far below
    the O(1/R^2) terms that the construction itself carries.
    """
    if not 0.0 < eps < EPS_MAX:
        raise FamilyError(f"eps={eps} outside (0, {EPS_MAX}); the profile needs R = -log eps > 1")
    ell, alpha, a_const = dec.ell, dec.alpha, dec.a_const
    mesh, model = dec.mesh, dec.model
    vol = mesh.total_area
    R = -np.log(eps)
    r_eps = R * eps
    sep = min_orbit_separation(mesh, dec.action, dec.source, dec.dist_source)
    if 2.0 * r_eps >= 0.5 * sep or 2.0 * r_eps >= model.max_rho:
        raise FamilyError(
            f"eps={eps} too large: cutoff radius {2 * r_eps:.4g} reaches the "
            f"orbit separation scale (sep={sep:.4g})"
        )

    two_pi_ell = 2.0 * np.pi * ell
    t_seam = np.pi * ell * R * R
    t0 = -np.log(r_eps) / two_pi_ell + a_const + np.log1p(t_seam) / (2.0 * two_pi_ell)

    def g_hat(rho):
        return -np.log(rho) / two_pi_ell + a_const

    def q_log(rho):
        return -np.log1p(np.pi * ell * (rho / eps) ** 2) / (2.0 * two_pi_ell)

    def q_prime(rho):
        return -(rho / (2.0 * eps * eps)) / (1.0 + np.pi * ell * (rho / eps) ** 2)

    area_in = model.ball_area(r_eps)
    j_q = radial_integral(lambda r: q_prime(r) ** 2, 0.0, r_eps, model, n=n_quad)
    i_log = radial_integral(q_log, 0.0, r_eps, model, n=n_quad)
    i_log2 = radial_integral(lambda r: q_log(r) ** 2, 0.0, r_eps, model, n=n_quad)
    lo = r_eps * 1e-12
    i_g = radial_integral(g_hat, lo, r_eps, model, n=n_quad, log_grid=True)

    # boundary flux of the parametrix at the seam circle, ell balls in total
    kappa = model.circumference(r_eps) / (2.0 * np.pi * r_eps)
    boundary = kappa * g_hat(r_eps)

    # c * eta and c * mbar do not depend on b, so _norm_sq_glued(b) * (t0 - b) is
    # one constant Q for every b, and the unit-norm member has c^2 = Q
    c_mbar = ell * (t0 * area_in + i_log - i_g) / vol
    c_sq = (
        ell * j_q + boundary + (ell / vol) * i_g
        - alpha * (ell * (i_log2 + 2.0 * t0 * i_log + t0 * t0 * area_in) - vol * c_mbar * c_mbar)
    )
    if c_sq <= 0.0:
        raise FamilyError(f"eps={eps} too large: plateau height c^2 = {c_sq:.4g} <= 0")
    b_const = t0 - c_sq
    c = float(np.sqrt(c_sq))
    mbar = c_mbar / c
    terms = (ell, alpha, vol, area_in, j_q, boundary, i_log, i_log2, i_g)
    norm_sq = _norm_sq_glued(b_const, t0, terms)
    if not abs(norm_sq - 1.0) <= _NORM_TOL:
        raise FamilyError(f"normalized member violates |norm^2 - 1| <= {_NORM_TOL}: {norm_sq!r}")

    # vertex samples; the seam agrees to machine precision by construction
    rho = dec.dist_orbit
    g_v = dec.values
    eta = g_v / c
    ann = (rho >= r_eps) & (rho < 2.0 * r_eps)
    if np.any(ann):
        zeta = _smoothstep_down(rho[ann] / r_eps - 1.0)
        eta[ann] = ((1.0 - zeta) * g_v[ann] + zeta * g_hat(rho[ann])) / c
    inner = rho < r_eps
    eta[inner] = c + (q_log(rho[inner]) + b_const) / c
    phi = eta - mbar
    seam_gap = abs((c + (q_log(r_eps) + b_const) / c) - g_hat(r_eps) / c)
    if seam_gap > _SEAM_TOL * max(1.0, c):
        raise FamilyError(f"seam mismatch {seam_gap:.3e} at r_eps={r_eps:.4g}")

    return TestFunctionFamily(
        eps=float(eps),
        R=float(R),
        r_eps=float(r_eps),
        b_const=float(b_const),
        c_sq=float(c_sq),
        mbar=float(mbar),
        norm_sq=float(norm_sq),
        seam_gap=float(seam_gap),
        values=phi,
        dec=dec,
    )


@dataclass(eq=False)
class LowerBoundReport:
    eps: float
    value: float
    log_value: float
    bound: UpperBound
    margin: float
    tether: float  # 4*pi*ell*|G|_2^2 / c^2, the paper's lower bound on the margin
    margin_c_sq: float  # margin * c^2 -> 4*pi*ell*|G|_2^2 + e^(1+4*pi*ell*A)/4
    b_const: float
    c_sq: float
    mbar_c: float
    inner_value: float
    inner_reference: float  # pi*ell*e^(1+4*pi*ell*A)
    outer_value: float
    annulus_value: float

    @property
    def tether_ratio(self) -> float:
        return self.margin / self.tether if self.tether else float("nan")


def test_family_lower_bound(fam: TestFunctionFamily, n_quad: int = 400) -> LowerBoundReport:
    """Certified-from-below value of the exponential functional on the member.

    Away from the concentration balls every lumped cell contributes
    a_v (1 + gamma phi_v^2) <= a_v e^(gamma phi_v^2); the cells of the orbit
    vertices are replaced by model disks of equal area on which the profile
    is integrated radially -- exponentially inside the seam, linearized
    outside it.  The companion upper bound uses the same fitted constant and
    the same mesh volume, so the margin isolates the 1/c^2 excess.
    """
    dec = fam.dec
    ell, model, areas = dec.ell, dec.model, dec.mesh.vertex_areas
    gamma = 4.0 * np.pi * ell
    c = fam.c
    mbar = fam.mbar

    pole_areas = areas[dec.orbit]
    if np.any(pole_areas != pole_areas[0]):
        raise FamilyError("orbit cells are not exactly congruent; group action is inexact")
    rho_cell = model.ball_radius(float(pole_areas[0]))
    r_in = min(fam.r_eps, rho_cell)

    def log_inner(rho):
        return gamma * (fam.plateau(rho) - mbar) ** 2

    log_i_in = log_integral_exp(log_inner, 0.0, r_in, model, n=n_quad)
    inner_value = float(np.exp(log_i_in))

    annulus_value = 0.0
    if rho_cell > fam.r_eps:

        def lin_tail(rho):
            eta = dec.log_singular_model(rho) / c
            return 1.0 + gamma * (eta - mbar) ** 2

        annulus_value = float(
            radial_integral(lin_tail, fam.r_eps, rho_cell, model, n=n_quad)
        )

    mask = np.ones(len(areas), dtype=bool)
    mask[dec.orbit] = False
    phi = fam.values[mask]
    outer_value = float(
        sorted_sum(areas[mask]) + gamma * sorted_sum(areas[mask] * phi * phi)
    )

    value = outer_value + ell * (inner_value + annulus_value)
    log_value = logsumexp(
        [np.log(outer_value), np.log(ell) + log_i_in]
        + ([np.log(ell * annulus_value)] if annulus_value > 0 else [])
    )
    margin = value - dec.bound.value
    tether = gamma * dec.l2_sq / fam.c_sq
    return LowerBoundReport(
        eps=fam.eps,
        value=value,
        log_value=log_value,
        bound=dec.bound,
        margin=margin,
        tether=float(tether),
        margin_c_sq=float(margin * fam.c_sq),
        b_const=fam.b_const,
        c_sq=fam.c_sq,
        mbar_c=fam.mbar_c,
        inner_value=ell * inner_value,
        inner_reference=float(np.pi * ell * np.exp(1.0 + gamma * dec.a_const)),
        outer_value=outer_value,
        annulus_value=ell * annulus_value,
    )
