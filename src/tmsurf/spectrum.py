"""Invariant Laplace-Beltrami spectra.

Eigenpairs of K u = lambda M u restricted to group-invariant mean-zero
vectors. The restriction is realized on the orbit-constant subspace (one
unknown per orbit), which keeps the solve small and makes invariance of the
returned eigenvectors exact by construction. The constant mode appears there
as an exact zero eigenvalue and is removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .discretization import (
    FemOperators,
    OrbitReduction,
    orbit_reduction,
    remove_mass_mean,
)
from .geometry import GroupAction

__all__ = [
    "SpectrumError",
    "InvariantSpectrum",
    "ComplementSpace",
    "invariant_spectrum",
    "rayleigh_quotient",
    "complement_projector",
]

_DENSE_CUTOFF = 1500
_GROUP_RTOL = 1e-6
_RESIDUAL_TOL = 1e-8


class SpectrumError(RuntimeError):
    pass


@dataclass(eq=False)
class InvariantSpectrum:
    """Ascending invariant eigenvalues with mass-orthonormal eigenvectors."""

    eigenvalues: np.ndarray  # (count,)
    eigenvectors: np.ndarray  # (n, count), invariant, mean-zero, M-orthonormal
    groups: list  # [(value, multiplicity)] with value = first eigenvalue of the cluster
    residuals: np.ndarray

    @property
    def lambda_1(self) -> float:
        return float(self.eigenvalues[0])

    def group_value(self, level: int) -> float:
        """Eigenvalue of the level-th distinct cluster (1-based)."""
        if not 1 <= level <= len(self.groups):
            raise SpectrumError(f"spectrum holds {len(self.groups)} clusters, asked for {level}")
        return self.groups[level - 1][0]


def _group_eigenvalues(values: np.ndarray) -> list:
    groups = []
    for v in values:
        if groups and v - groups[-1][-1] <= _GROUP_RTOL * max(1.0, abs(v)):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(float(g[0]), len(g)) for g in groups]


def invariant_spectrum(
    ops: FemOperators,
    action: GroupAction,
    count: int,
    seed: int = 0,
    red: OrbitReduction | None = None,
) -> InvariantSpectrum:
    """First ``count`` invariant mean-zero eigenpairs, ascending.

    ``red`` is the orbit reduction of (ops, action) when the caller holds one.
    """
    if count < 1:
        raise SpectrumError(f"count must be positive, got {count}")
    if red is None:
        red = orbit_reduction(ops, action)
    n_orb = red.n
    k_req = count + 1  # the orbit space still contains the constant mode
    if k_req > n_orb:
        raise SpectrumError(f"asked for {count} eigenpairs but only {n_orb - 1} exist")

    if n_orb <= _DENSE_CUTOFF or k_req > n_orb - 2:
        vals, vecs = scipy.linalg.eigh(red.stiffness.toarray(), red.mass.toarray())
        vals, vecs = vals[:k_req], vecs[:, :k_req]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n_orb)
        try:
            vals, vecs = spla.eigsh(
                red.stiffness, k=k_req, M=red.mass, sigma=-0.5, which="LM", v0=v0, maxiter=5000
            )
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise SpectrumError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    if abs(vals[0]) > 1e-8 * max(1.0, abs(vals[1])):
        raise SpectrumError(f"constant mode not found, first eigenvalue {vals[0]:.3e}")
    vals, vecs = vals[1:], vecs[:, 1:]

    n = ops.n
    eigvecs = np.empty((n, count))
    residuals = np.empty(count)
    for i in range(count):
        u = remove_mass_mean(red.expand(vecs[:, i]), ops)
        u = u / np.sqrt(float(u @ (ops.mass @ u)))
        j = int(np.argmax(np.abs(u)))
        if u[j] < 0:  # deterministic sign
            u = -u
        r = ops.stiffness @ u - vals[i] * (ops.mass @ u)
        residuals[i] = np.linalg.norm(r)
        scale = np.linalg.norm(ops.mass @ u)
        if residuals[i] > _RESIDUAL_TOL * max(scale, 1e-30):
            raise SpectrumError(
                f"eigenpair {i} residual {residuals[i]:.3e} exceeds {_RESIDUAL_TOL:.0e}*|Me|={_RESIDUAL_TOL * scale:.3e}"
            )
        eigvecs[:, i] = u
    return InvariantSpectrum(
        eigenvalues=vals.copy(),
        eigenvectors=eigvecs,
        groups=_group_eigenvalues(vals),
        residuals=residuals,
    )


def rayleigh_quotient(u: np.ndarray, ops: FemOperators) -> float:
    denom = float(u @ (ops.mass @ u))
    if denom <= 0:
        raise SpectrumError("Rayleigh quotient of the zero vector")
    return float(u @ (ops.stiffness @ u)) / denom


@dataclass(eq=False)
class ComplementSpace:
    """Orthogonal complement of the first ``level - 1`` eigenvalue clusters.

    ``level = 1`` keeps the whole invariant mean-zero space (empty basis).
    The basis holds invariant vertex vectors; on orbit unknowns it is
    ``basis[OrbitReduction.reps]``, exactly, which is where the maximizer
    projects onto the complement.
    """

    level: int
    basis: np.ndarray  # (n, m) mass-orthonormal removed directions
    lambda_level: float  # eigenvalue of cluster ``level`` = gap of the complement


def complement_projector(spec: InvariantSpectrum, level: int) -> ComplementSpace:
    lambda_level = spec.group_value(level)  # raises for a level outside the clusters
    m = sum(g[1] for g in spec.groups[: level - 1])
    return ComplementSpace(
        level=level,
        basis=spec.eigenvectors[:, :m].copy(),
        lambda_level=lambda_level,
    )
