"""The planar concentration profile and its exponential mass.

phi(y) = -(1/4*pi*ell) * log(1 + pi*ell*|y|^2) on R^2; the integral of
exp(8*pi*ell*phi) over a disk of radius R has the closed form
(1/ell) * (1 - 1/(1 + pi*ell*R^2)), approaching 1/ell as R grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BubbleProfile", "bubble_integral"]


@dataclass(frozen=True)
class BubbleProfile:
    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"orbit constant must be a positive integer, got {self.ell}")

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return -np.log1p(np.pi * self.ell * rho * rho) / (4.0 * np.pi * self.ell)


def bubble_integral(ell: int, radius: float) -> float:
    """Closed form of the disk integral of exp(8*pi*ell*phi)."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    t = np.pi * ell * radius * radius
    return float(t / (1.0 + t) / ell)

