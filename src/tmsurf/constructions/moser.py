"""Concentrating cap sequences on an orbit.

The unnormalized profile at level k is log k on the plateau rho <= r*k^(-1/4),
4*log(r/rho) on the annulus up to r, and zero outside; one cap sits on every
point of the chosen orbit, and caps must not overlap (r capped at a quarter of
the minimal pairwise orbit separation). The flat-model Dirichlet energy is
8*pi*ell*log k exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..geometry import GroupAction, MeshError, SurfaceMesh, geodesic_distance
from .radial import RadialModel, log_integral_exp, radial_integral, radial_model

__all__ = [
    "MoserSequence",
    "MoserReport",
    "min_orbit_separation",
    "moser_evaluate",
    "moser_semianalytic_log_value",
]


@dataclass(frozen=True)
class MoserSequence:
    center: int
    radius: float
    k: int
    ell: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"cap level k must be a positive integer, got {self.k}")
        if self.radius <= 0:
            raise ValueError(f"cap radius must be positive, got {self.radius}")
        if self.ell < 1:
            raise ValueError(f"orbit size must be positive, got {self.ell}")

    @property
    def plateau_radius(self) -> float:
        return self.radius * self.k ** (-0.25)


@dataclass(eq=False)
class MoserReport:
    seq: MoserSequence
    values: np.ndarray
    orbit: np.ndarray
    flat_energy: float  # 8*pi*ell*log k


def min_orbit_separation(mesh: SurfaceMesh, action: GroupAction, center: int,
                         dist: np.ndarray | None = None) -> float:
    """Minimal pairwise geodesic distance within the center's orbit.

    A singleton orbit has no pair; it returns twice the largest usable radius
    so that the quarter-separation cap rule degrades to the geometric cap.
    The group's isometries give every orbit point the distances of the
    center (bitwise for signed-permutation groups, to round-off for an
    imported group), so the center's row holds the minimum.  A caller that
    holds that row, ``geodesic_distance(mesh, center)``, passes it as ``dist``.
    """
    orbit = action.orbit_of(center)
    if len(orbit) == 1:
        return 2.0 * radial_model(mesh).max_rho
    d = (geodesic_distance(mesh, center) if dist is None else dist)[orbit]
    return float(np.min(d[d > 0]))


def cap_radius_limit(mesh: SurfaceMesh, action: GroupAction, center: int,
                     dist: np.ndarray | None = None) -> float:
    """r0: quarter of the minimal orbit separation, capped by the surface radius.

    ``dist`` is the center's distance row, as in ``min_orbit_separation``.
    """
    sep = min_orbit_separation(mesh, action, center, dist)
    return min(sep / 4.0, radial_model(mesh).max_rho / 2.0)


def _profile(rho: np.ndarray, r: float, k: int) -> np.ndarray:
    if k == 1:
        return np.zeros_like(rho)
    rho_in = r * k ** (-0.25)
    safe = np.maximum(rho, rho_in)
    ann = 4.0 * np.log(r / safe)
    return np.where(rho <= rho_in, float(np.log(k)), np.where(rho < r, ann, 0.0))


def moser_evaluate(seq: MoserSequence, mesh: SurfaceMesh, action: GroupAction,
                   dist: np.ndarray | None = None) -> MoserReport:
    """Vertex samples of the symmetrized cap function with its flat-model energy.

    ``dist`` is the center's distance row, ``geodesic_distance(mesh,
    seq.center)``, for a caller that holds it; it is computed once otherwise.
    """
    orbit = action.orbit_of(seq.center)
    if len(orbit) != seq.ell:
        raise ValueError(f"center {seq.center} has orbit size {len(orbit)}, sequence says {seq.ell}")
    if len(orbit) != action.min_orbit_size:
        warnings.warn(
            f"center {seq.center} lies on a non-minimal orbit (size {len(orbit)} > "
            f"{action.min_orbit_size}); concentration statements apply to minimal orbits",
            stacklevel=2,
        )
    if dist is None:
        dist = geodesic_distance(mesh, seq.center)
    r0 = cap_radius_limit(mesh, action, seq.center, dist)
    if seq.radius > r0:
        raise MeshError(
            f"overlapping orbit balls: radius {seq.radius} exceeds r0={r0:.6g} "
            "(quarter of the minimal orbit separation)"
        )
    per_point = np.stack(
        [_profile(dist if p == seq.center else geodesic_distance(mesh, int(p)), seq.radius, seq.k)
         for p in orbit]
    )
    # caps are disjoint, so at most one row is nonzero per vertex and the sum
    # is exact in any order: samples are bitwise equal across group images
    values = per_point.sum(axis=0)
    flat = 8.0 * np.pi * seq.ell * float(np.log(seq.k))
    return MoserReport(seq=seq, values=values, orbit=orbit, flat_energy=flat)


def moser_semianalytic_log_value(
    model: RadialModel,
    ell: int,
    k: int,
    r: float,
    beta: float,
    alpha: float = 0.0,
    n_quad: int = 400,
) -> float:
    """log of the exponential functional at the normalized cap function.

    Fully radial evaluation on the model surface: plateau and outside regions
    contribute in closed form, the annulus by log-spaced quadrature, so cap
    levels up to 1e5 are evaluated without meshing the concentration scale.
    Caps on the ell orbit points are assumed disjoint (caller enforces r <= r0).
    """
    vol = model.volume
    if k == 1:
        return float(np.log(vol))
    if not 0 < r < model.max_rho:
        raise ValueError(f"cap radius {r} outside (0, {model.max_rho})")
    logk = float(np.log(k))
    rho_in = r * k ** (-0.25)
    area_in = float(model.ball_area(rho_in))
    area_cap = float(model.ball_area(r))
    if ell * area_cap >= vol:
        raise ValueError("orbit caps exhaust the surface; shrink r")

    dirichlet = ell * radial_integral(
        lambda rho: (4.0 / rho) ** 2, rho_in, r, model, n=n_quad, log_grid=True
    )
    int_m = ell * (
        logk * area_in
        + radial_integral(lambda rho: 4.0 * np.log(r / rho), rho_in, r, model, n=n_quad, log_grid=True)
    )
    int_m2 = ell * (
        logk**2 * area_in
        + radial_integral(
            lambda rho: (4.0 * np.log(r / rho)) ** 2, rho_in, r, model, n=n_quad, log_grid=True
        )
    )
    mean = int_m / vol
    norm_sq = dirichlet - alpha * (int_m2 - vol * mean**2)
    if norm_sq <= 0:
        raise ValueError(f"shifted norm is not definite at alpha={alpha}")
    scale = float(np.sqrt(norm_sq))

    def u_of(m):
        return (m - mean) / scale

    pieces = [
        beta * u_of(logk) ** 2 + np.log(ell * area_in),
        np.log(ell)
        + log_integral_exp(
            lambda rho: beta * u_of(4.0 * np.log(r / rho)) ** 2,
            rho_in,
            r,
            model,
            n=n_quad,
            log_grid=True,
        ),
        beta * u_of(0.0) ** 2 + np.log(vol - ell * area_cap),
    ]
    return float(np.logaddexp.reduce(np.sort(np.asarray(pieces, dtype=float), kind="stable")))
