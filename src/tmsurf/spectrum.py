"""Invariant Laplace-Beltrami spectra.

Eigenpairs of K u = lambda M u restricted to group-invariant mean-zero
vectors. The restriction is realized on the orbit-constant subspace (one
unknown per orbit), which keeps the solve small and makes invariance of the
eigenvectors exact by construction: they are returned as orbit vectors w,
u = S w. The constant mode appears there as an exact zero eigenvalue and is
removed.

Small orbit spaces take dense ``eigh``. Larger ones take shift-invert
``eigsh`` at sigma = -0.5, whose inverse operator is the orbit space's held
solver ``red.shifted_solver(-0.5)``: the one sparse factorization path, in the
nested-dissection order ``orbit_reduction`` computed. A later Green or
maximizer alpha replaces that factorization. The Lanczos basis holds
``_NCV_EXTRA`` vectors beyond the requested pairs (never fewer than ARPACK's
default): with ARPACK's default a k that cuts an eigenvalue cluster, such as
k = 9 inside the five-fold l = 4 cluster of the antipodal sphere, restarts a
seed-dependent number of times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .discretization import OrbitReduction, remove_mass_mean

__all__ = [
    "SpectrumError",
    "InvariantSpectrum",
    "invariant_spectrum",
]

_DENSE_CUTOFF = 1500
_SHIFT = -0.5  # shift-invert pole below the zero eigenvalue, so K - _SHIFT M is definite
_GROUP_RTOL = 1e-6
_RESIDUAL_TOL = 1e-8
_NCV_EXTRA = 16  # Lanczos vectors beyond k; see the module docstring


class SpectrumError(RuntimeError):
    pass


@dataclass(eq=False)
class InvariantSpectrum:
    """Ascending invariant eigenvalues with mass-orthonormal eigenvectors."""

    eigenvalues: np.ndarray  # (count,)
    eigenvectors: np.ndarray  # (n_orbits, count) orbit vectors, mean-zero, M_r-orthonormal
    groups: list  # [(value, multiplicity)] with value = first eigenvalue of the cluster
    residuals: np.ndarray  # |K u - lambda M u|_2 over the vertices of u = S w

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


def invariant_spectrum(red: OrbitReduction, count: int, seed: int = 0) -> InvariantSpectrum:
    """First ``count`` invariant mean-zero eigenpairs on the orbit space ``red``, ascending."""
    if count < 1:
        raise SpectrumError(f"count must be positive, got {count}")
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
        op_inv = spla.LinearOperator((n_orb, n_orb), matvec=red.shifted_solver(_SHIFT), dtype=float)
        ncv = min(n_orb, max(2 * k_req + 1, 20, k_req + _NCV_EXTRA))
        try:
            vals, vecs = spla.eigsh(
                red.stiffness, k=k_req, M=red.mass, sigma=_SHIFT, which="LM", v0=v0, ncv=ncv,
                maxiter=5000, OPinv=op_inv,
            )
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise SpectrumError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    if abs(vals[0]) > 1e-8 * max(1.0, abs(vals[1])):
        raise SpectrumError(f"constant mode not found, first eigenvalue {vals[0]:.3e}")
    vals, vecs = vals[1:], vecs[:, 1:]

    # (K S w)_v = (K_r w)_o / |o| at every vertex v of orbit o, so a vertex
    # 2-norm is the orbit norm weighted by 1/sqrt(|o|)
    root_sizes = np.sqrt(red.action.orbit_sizes)
    eigvecs = np.empty((n_orb, count))
    residuals = np.empty(count)
    for i in range(count):
        w = remove_mass_mean(vecs[:, i], red)
        w = w / np.sqrt(float(w @ (red.mass @ w)))
        j = int(np.argmax(np.abs(w)))  # orbit ids follow lowest vertices: w[j] is u's first argmax
        if w[j] < 0:  # deterministic sign
            w = -w
        mw = red.mass @ w
        residuals[i] = np.linalg.norm((red.stiffness @ w - vals[i] * mw) / root_sizes)
        scale = np.linalg.norm(mw / root_sizes)
        if residuals[i] > _RESIDUAL_TOL * max(scale, 1e-30):
            raise SpectrumError(
                f"eigenpair {i} residual {residuals[i]:.3e} exceeds {_RESIDUAL_TOL:.0e}*|Me|={_RESIDUAL_TOL * scale:.3e}"
            )
        eigvecs[:, i] = w
    return InvariantSpectrum(
        eigenvalues=vals.copy(),
        eigenvectors=eigvecs,
        groups=_group_eigenvalues(vals),
        residuals=residuals,
    )
