"""P1 finite elements on surface meshes.

Cotangent stiffness and consistent/lumped mass matrices, the invariant
mean-zero projection, the gradient norm with spectral shift, and the
overflow-safe exponential functional. Assembly accumulates every matrix
entry in value-sorted order, so the operators commute with the group's
permutation matrices bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ._sums import grouped_sorted_sum, segment_sorted_sum, sorted_sum
from .geometry import GroupAction, SurfaceMesh, triangle_corners, triangle_edge_sq

__all__ = [
    "DiscretizationError",
    "FemOperators",
    "NormParams",
    "OrbitReduction",
    "ExpFunctional",
    "assemble",
    "orbit_reduction",
    "project_invariant_meanzero",
    "quadratic_form_sq",
    "norm_one_alpha",
    "exp_functional",
]


class DiscretizationError(ValueError):
    pass


@dataclass(eq=False)
class FemOperators:
    """Assembled operators; ``lumped`` holds the barycentric vertex areas."""

    mesh: SurfaceMesh
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    lumped: np.ndarray

    @property
    def n(self) -> int:
        return self.mesh.n_vertices


@dataclass(frozen=True)
class NormParams:
    """Spectral shift ``alpha`` gated by the invariant gap it must stay below.

    ``beta`` is the exponential weight carried alongside; the shifted quadratic
    form is definite only for ``alpha < lambda_gap``.
    """

    alpha: float
    lambda_gap: float
    beta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.lambda_gap) and np.isfinite(self.beta)):
            raise DiscretizationError("norm parameters must be finite")
        if self.beta <= 0:
            raise DiscretizationError(f"exponential weight must be positive, got {self.beta}")
        if self.lambda_gap <= 0:
            raise DiscretizationError(f"spectral gap must be positive, got {self.lambda_gap}")
        if self.alpha >= self.lambda_gap:
            raise DiscretizationError(
                f"alpha={self.alpha} is not admissible: the shifted form is only "
                f"definite for alpha < {self.lambda_gap}"
            )


class ExpFunctional(NamedTuple):
    value: float
    log_value: float


def assemble(mesh: SurfaceMesh) -> FemOperators:
    """Cotangent stiffness and P1 mass matrices with order-independent sums."""
    corners = triangle_corners(mesh)
    sq = triangle_edge_sq(corners)  # (m, 3), entry i: squared edge opposite corner i
    area = mesh.face_areas  # positive: the mesh builders reject degenerate triangles

    cot_w = np.empty_like(sq)  # cot(angle at corner i) / 2
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cot_w[:, i] = (sq[:, j] + sq[:, k] - sq[:, i]) / (8.0 * area)

    tri = mesh.triangles
    n = mesh.n_vertices
    rows, cols, kvals, mvals = [], [], [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for a, b in ((j, k), (k, j)):
            rows.append(tri[:, a])
            cols.append(tri[:, b])
            kvals.append(-cot_w[:, i])
            mvals.append(area / 12.0)
    rows = np.concatenate(rows).astype(np.int64)
    cols = np.concatenate(cols).astype(np.int64)
    keys = rows * n + cols

    uk, ksums = grouped_sorted_sum(keys, np.concatenate(kvals))
    _, msums = grouped_sorted_sum(keys, np.concatenate(mvals))
    # diagonals accumulated separately so each is a value-sorted multiset sum
    diag_idx = np.concatenate([tri[:, (i + 1) % 3] for i in range(3)] + [tri[:, (i + 2) % 3] for i in range(3)])
    diag_w = np.concatenate([cot_w[:, i] for i in range(3)] * 2)
    kdiag = segment_sorted_sum(diag_idx, diag_w, n)
    mdiag = segment_sorted_sum(tri, np.repeat(area / 6.0, 3), n)

    all_rows = np.concatenate([uk // n, np.arange(n)])
    all_cols = np.concatenate([uk % n, np.arange(n)])
    K = sp.csr_matrix((np.concatenate([ksums, kdiag]), (all_rows, all_cols)), shape=(n, n))
    M = sp.csr_matrix((np.concatenate([msums, mdiag]), (all_rows, all_cols)), shape=(n, n))
    return FemOperators(mesh=mesh, stiffness=K, mass=M, lumped=mesh.vertex_areas.copy())


@dataclass(eq=False)
class OrbitReduction:
    """Restriction of the operators to orbit-constant (invariant) vectors."""

    S: sp.csr_matrix  # (n, n_orbits) orbit indicator
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    areas: np.ndarray  # orbit lumped areas

    @property
    def n_orbits(self) -> int:
        return self.S.shape[1]

    def expand(self, w: np.ndarray) -> np.ndarray:
        return self.S @ w

    def reduce(self, b: np.ndarray) -> np.ndarray:
        return self.S.T @ b


def orbit_reduction(ops: FemOperators, action: GroupAction) -> OrbitReduction:
    n = ops.n
    n_orb = action.n_orbits
    S = sp.csr_matrix((np.ones(n), (np.arange(n), action.orbit_index)), shape=(n, n_orb))
    K_red = (S.T @ ops.stiffness @ S).tocsr()
    M_red = (S.T @ ops.mass @ S).tocsr()
    return OrbitReduction(S=S, stiffness=K_red, mass=M_red, areas=S.T @ ops.lumped)


def project_invariant_meanzero(u: np.ndarray, ops: FemOperators, action: GroupAction) -> np.ndarray:
    """Group average followed by mass-mean removal.

    The average is taken in value-sorted order per vertex, so the output is
    bitwise invariant: values at group-related vertices are equal floats.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (ops.n,):
        raise DiscretizationError(f"expected vector of length {ops.n}")
    gathered = u[action.permutations]  # (order, n)
    v = np.sort(gathered, axis=0).sum(axis=0) / action.order
    mean = float(np.dot(ops.lumped, v) / ops.mesh.total_area)
    return v - mean


def quadratic_form_sq(u: np.ndarray, ops: FemOperators, alpha: float) -> float:
    """u^T K u - alpha u^T M u, without the definiteness gate."""
    return float(u @ (ops.stiffness @ u) - alpha * (u @ (ops.mass @ u)))


def norm_one_alpha(u: np.ndarray, ops: FemOperators, params: NormParams) -> float:
    val = quadratic_form_sq(u, ops, params.alpha)
    if val < 0:
        raise DiscretizationError(
            f"shifted gradient form is negative ({val:.3e}); alpha={params.alpha} "
            "exceeds the invariant gap on this subspace"
        )
    return float(np.sqrt(val))


def exp_functional(u: np.ndarray, beta: float, ops: FemOperators) -> ExpFunctional:
    """Vertex-lumped integral of exp(beta u^2), evaluated through its log."""
    if beta < 0:
        raise DiscretizationError(f"beta must be nonnegative, got {beta}")
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DiscretizationError("non-finite values in argument")
    t = beta * u * u
    shift = float(t.max()) if len(t) else 0.0
    log_value = shift + np.log(sorted_sum(ops.lumped * np.exp(t - shift)))
    value = float(np.exp(log_value)) if log_value < 709.0 else float("inf")
    return ExpFunctional(value=value, log_value=float(log_value))
