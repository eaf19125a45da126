"""Geodesic-polar calculus on the model surfaces.

Radial integrals around a point use the exact circumference element:
2*pi*sin(rho) on the unit sphere, 2*pi*rho on a flat torus (valid below the
injectivity radius, which callers must respect). Exponentially large
integrands go through a log-sum-exp reduction so k = 1e5 cap levels stay
finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .._sums import logsumexp
from ..geometry import MeshError, SurfaceMesh, UnsupportedOperation

__all__ = ["RadialModel", "radial_model", "surface_model", "radial_integral", "log_integral_exp"]


@dataclass(frozen=True)
class RadialModel:
    kind: str  # "sphere" | "torus"
    max_rho: float
    volume: float  # exact surface area of the model

    def circumference(self, rho):
        rho = np.asarray(rho, dtype=float)
        if self.kind == "sphere":
            return 2.0 * np.pi * np.sin(rho)
        return 2.0 * np.pi * rho

    def ball_area(self, rho):
        rho = np.asarray(rho, dtype=float)
        if self.kind == "sphere":
            return 2.0 * np.pi * (1.0 - np.cos(rho))
        return np.pi * rho * rho

    def ball_radius(self, area: float) -> float:
        """Inverse of ball_area; used to area-match mesh cells to model disks."""
        if self.kind == "sphere":
            return float(np.arccos(np.clip(1.0 - area / (2.0 * np.pi), -1.0, 1.0)))
        return float(np.sqrt(area / np.pi))


def surface_model(kind: str, periods=(1.0, 1.0)) -> RadialModel:
    """Model of the unit sphere, or of the flat torus with the given periods."""
    if kind == "sphere":
        return RadialModel("sphere", np.pi, 4.0 * np.pi)
    if kind == "torus":
        a, b = periods
        if not (0.0 < a < np.inf and 0.0 < b < np.inf):
            raise MeshError(f"torus 'periods' must be positive and finite, got {list(periods)}")
        return RadialModel("torus", 0.5 * min(a, b), a * b)
    raise UnsupportedOperation(f"no closed-form radial metric for surface kind {kind!r}")


def radial_model(mesh: SurfaceMesh) -> RadialModel:
    return surface_model(mesh.surface_kind, mesh.periods)


@lru_cache(maxsize=8)
def _gauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _nodes(lo: float, hi: float, n: int, log_grid: bool):
    x, w = _gauss(n)
    if log_grid:
        if lo <= 0:
            raise ValueError("log-spaced quadrature needs a positive lower limit")
        t0, t1 = np.log(lo), np.log(hi)
        t = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
        rho = np.exp(t)
        weight = w * 0.5 * (t1 - t0) * rho  # jacobian of rho = e^t
    else:
        rho = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        weight = w * 0.5 * (hi - lo)
    return rho, weight


def radial_integral(f, lo: float, hi: float, model: RadialModel,
                    n: int = 400, log_grid: bool = False) -> float:
    """Integral of f(rho) * circumference over [lo, hi] by Gauss-Legendre."""
    if hi <= lo:
        return 0.0
    rho, weight = _nodes(lo, hi, n, log_grid)
    vals = np.asarray(f(rho), dtype=float) * model.circumference(rho)
    return float(np.sum(np.sort(vals * weight, kind="stable")))


def log_integral_exp(log_f, lo: float, hi: float, model: RadialModel,
                     n: int = 400, log_grid: bool = False) -> float:
    """log of the integral of exp(log_f(rho)) * circumference over [lo, hi]."""
    if hi <= lo:
        return -np.inf
    rho, weight = _nodes(lo, hi, n, log_grid)
    log_meas = np.log(weight * model.circumference(rho))
    return logsumexp(np.asarray(log_f(rho), dtype=float) + log_meas)
