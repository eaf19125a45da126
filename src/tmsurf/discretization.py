"""P1 finite elements on surface meshes.

Cotangent stiffness and consistent/lumped mass matrices, their reduction to
orbit unknowns with a fill-reducing order of the orbit graph, the invariant
mean-zero projection onto orbit vectors, the gradient norm with spectral
shift, and the overflow-safe exponential functional. Assembly accumulates
every matrix entry in value-sorted order, so the operators commute with the
group's permutation matrices bitwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ._sums import segment_sorted_sum, sorted_sum
from .geometry import GroupAction, SurfaceMesh, triangle_corners, triangle_edge_sq

__all__ = [
    "DiscretizationError",
    "FemOperators",
    "NormParams",
    "OrbitReduction",
    "ExpFunctional",
    "cotangent_weights",
    "assemble",
    "orbit_reduction",
    "project_invariant_meanzero",
    "remove_mass_mean",
    "quadratic_form_sq",
    "norm_one_alpha",
    "exp_functional",
]


# Parts of the orbit graph at most this large are not dissected further.  The
# factors of 16-orbit leaves hold 6-15% fewer nonzeros than those of 64-orbit
# leaves on the built-in spheres and tori; 8-orbit leaves gain at most 2% more.
_ND_LEAF = 16


class DiscretizationError(ValueError):
    pass


@dataclass(eq=False)
class FemOperators:
    """Assembled operators; ``lumped`` holds the barycentric vertex areas.

    ``stiffness`` and ``mass`` share their ``indices`` and ``indptr`` arrays
    (one canonical CSR pattern).  Change neither structurally in place
    (``eliminate_zeros``, ``prune``, ``resize``, ``sort_indices`` ...), since
    that rewrites the other's pattern too; take ``.copy()`` first.
    """

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

    The shifted quadratic form is definite only for ``alpha < lambda_gap``.
    """

    alpha: float
    lambda_gap: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.lambda_gap)):
            raise DiscretizationError("norm parameters must be finite")
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


def cotangent_weights(mesh: SurfaceMesh) -> np.ndarray:
    """(m, 3) array whose entry i is cot(angle at corner i) / 2 of each triangle."""
    sq = triangle_edge_sq(triangle_corners(mesh))  # entry i: squared edge opposite corner i
    area = mesh.face_areas  # positive: the mesh builders reject degenerate triangles
    cot_w = np.empty_like(sq)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cot_w[:, i] = (sq[:, j] + sq[:, k] - sq[:, i]) / (8.0 * area)
    return cot_w


def assemble(mesh: SurfaceMesh) -> FemOperators:
    """Cotangent stiffness and P1 mass matrices with order-independent sums.

    Every entry is a value-sorted sum over its triangles, so the order of the
    summands below does not matter; the transient arrays are filled in place
    and released before the next sort to keep the peak near the output size.
    K and M are built on one shared CSR pattern: see ``FemOperators`` before
    changing either structurally.
    """
    cot_w = cotangent_weights(mesh)
    area = mesh.face_areas
    tri = mesh.triangles
    n, m = mesh.n_vertices, len(tri)
    keys = np.empty(6 * m, dtype=np.int64)  # row * n + col of each off-diagonal summand
    kvals = np.empty(6 * m)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for s, (a, b) in enumerate(((j, k), (k, j)), start=2 * i):
            block = slice(s * m, (s + 1) * m)
            np.multiply(tri[:, a], n, out=keys[block])
            keys[block] += tri[:, b]
            np.negative(cot_w[:, i], out=kvals[block])
    # On a closed mesh each key occurs exactly twice, once per triangle at its
    # edge; a sum of two terms rounds the same in either order, so one key
    # sort serves K and M and equals the value-sorted sum bitwise.
    order = np.argsort(keys, kind="stable")
    first, second = order[0::2], order[1::2]
    uk = keys[first]
    if not (np.array_equal(uk, keys[second]) and np.all(uk[1:] != uk[:-1])):
        raise DiscretizationError("mesh is not closed: an edge is not shared by exactly two triangles")
    del keys
    ksums = kvals[first] + kvals[second]
    del kvals
    area12 = area / 12.0
    msums = area12[first % m] + area12[second % m]  # summand s lies in triangle s % m
    del order, first, second
    # diagonals accumulated separately so each is a value-sorted multiset sum
    kdiag = segment_sorted_sum(tri.T[[1, 2, 0, 2, 0, 1]], np.tile(cot_w.T, (2, 1)), n)
    del cot_w
    # the value-sorted sum of area/6 over each vertex's triangles: halving is
    # exact, so it commutes with the rounding and the order of vertex_areas
    mdiag = mesh.vertex_areas * 0.5

    # One canonical CSR pattern serves both matrices: the diagonal keys
    # v * (n + 1) merged into the sorted off-diagonal keys uk.
    v = np.arange(n)
    on_diag = np.zeros(len(uk) + n, dtype=bool)
    on_diag[np.searchsorted(uk, v * (n + 1)) + v] = True
    off_diag = ~on_diag
    index = np.int32 if len(on_diag) <= np.iinfo(np.int32).max else np.int64  # as COO -> CSR picks
    indices = np.empty(len(on_diag), dtype=index)
    indices[on_diag] = v
    indices[off_diag] = uk % n
    rows = np.arange(n + 1)
    indptr = (np.searchsorted(uk, rows * n) + rows).astype(index)
    del uk, v, rows

    def csr(off, diag):
        data = np.empty(len(on_diag))
        data[on_diag] = diag
        data[off_diag] = off
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    K = csr(ksums, kdiag)
    del ksums, kdiag
    M = csr(msums, mdiag)
    return FemOperators(mesh=mesh, stiffness=K, mass=M, lumped=mesh.vertex_areas.copy())


@dataclass(eq=False)
class OrbitReduction(FemOperators):
    """The orbit space: operators on invariant vectors u = S w, one unknown w per orbit.

    S^T K S, S^T M S and the orbit areas S^T a take the places of K, M and a,
    so ``quadratic_form_sq``, ``norm_one_alpha``, ``exp_functional`` and
    ``remove_mass_mean`` take w in place of u.  It keeps the ``action`` it was
    reduced from, the nested-dissection ``order`` of the orbit graph that
    ``orbit_reduction`` computes once, and at most one factorization of
    K_r - alpha M_r in that order (see ``shifted_solver``), which the
    spectrum, Green and maximizer layers share.  It owns that factorization's
    memory: ``shifted_solver`` builds and replaces it and ``release`` drops
    it, and each gives the freed heap pages back to the system.  It keeps no
    vertex operator: a vertex quantity comes from ``mesh`` (the lumped areas
    are ``mesh.vertex_areas``) or from an orbit one, since for invariant
    u = S w, u.K u = w.K_r w and S^T K u = K_r w.
    """

    S: sp.csr_matrix  # (n, n_orbits) orbit indicator
    reps: np.ndarray  # first vertex of each orbit; u[reps] is exact for invariant u
    action: GroupAction
    order: np.ndarray  # fill-reducing permutation of the orbits, see _nested_dissection
    held: tuple | None = None  # (alpha, solve) of the one factorization kept

    @property
    def n(self) -> int:
        return self.S.shape[1]

    def expand(self, w: np.ndarray) -> np.ndarray:
        return self.S @ w

    def reduce(self, b: np.ndarray) -> np.ndarray:
        return self.S.T @ b

    def shifted_solver(self, alpha: float):
        """The solver of (K_r - alpha M_r) w = b, factored once per alpha in ``order``.

        The spectrum's shift-invert operator is the solver at alpha = -0.5; the
        Green and maximizer stages' alpha replaces it.  The held alpha returns
        the cached solver.  A new alpha first ``release``s the held
        factorization, then builds its own (``invariant_shifted_solver`` trims
        the heap right before SuperLU builds) and trims the heap again, since
        SuperLU has just freed its workspace and its copy of the operator.
        """
        if self.held is not None and self.held[0] == alpha:
            return self.held[1]
        self.release()
        from .constructions import green  # green imports this module

        self.held = (alpha, green.invariant_shifted_solver(self, alpha))
        _trim_heap()
        return self.held[1]

    def release(self) -> None:
        """Drop the held factorization and trim the heap; a no-op when none is held.

        A solver that a caller still holds keeps its factorization alive
        until the caller lets it go; the stages keep theirs only while they run.
        """
        if self.held is not None:
            self.held = None
            _trim_heap()


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim`` with its C signature, or None without glibc."""
    import ctypes  # only a run that reduces or factors pays for the import

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _trim_heap() -> None:
    """Give the C heap's free pages back to the system; a no-op without glibc.

    glibc returns freed heap memory by itself only from the top of the heap,
    and live arrays can lie above a freed block: the vertex K and M that the
    orbit reduction leaves behind, the copies of the operator freed before a
    factorization is built, SuperLU's workspace once it is built, or a
    dropped factorization.  Without the trim those pages stay
    resident under the next factorization, which takes fresh mapped pages
    for most of its memory.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def orbit_reduction(ops: FemOperators, action: GroupAction) -> OrbitReduction:
    """Reduced operators of ``ops`` on the orbits of ``action``; build it once per run.

    The result holds no reference to ``ops``, so the vertex K and M are freed
    once the caller drops them.
    """
    n = ops.n
    n_orb = action.n_orbits
    S = sp.csr_matrix((np.ones(n), (np.arange(n), action.orbit_index)), shape=(n, n_orb))
    K_red = (S.T @ ops.stiffness @ S).tocsr()
    M_red = (S.T @ ops.mass @ S).tocsr()
    reps = np.unique(action.orbit_index, return_index=True)[1]
    return OrbitReduction(mesh=ops.mesh, stiffness=K_red, mass=M_red, lumped=S.T @ ops.lumped,
                          S=S, reps=reps, action=action,
                          order=_nested_dissection(K_red + M_red))


def _nested_dissection(pattern: sp.spmatrix) -> np.ndarray:
    """Nested-dissection order of the graph of a symmetric sparse pattern.

    Each connected part larger than ``_ND_LEAF`` is split at the middle level
    set of a breadth-first search from a pseudo-peripheral vertex, the one
    farthest from the part's lowest-numbered vertex (George, SIAM J. Numer.
    Anal. 1973); the two sides are ordered first, recursively, and the
    separator after both.  Every part of one recursion depth is split at
    once: column r of ``keys`` is (component label, side) at depth r, or a
    unique negative key once a vertex lies in a separator or a leaf, so
    sorting the vertices by their columns puts each separator after the two
    sides it splits, and an edge stays in the next depth's graph only while
    its two ends share a key.  It uses only hop counts and component labels,
    so the order is deterministic and does not depend on the BLAS thread count.
    """
    pattern = sp.csr_matrix(pattern)
    n = pattern.shape[0]
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    cols = pattern.indices
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]  # sorted by row
    finished = np.arange(n) - n  # the key of a vertex in a separator or a leaf: unique, below 0
    active = np.ones(n, dtype=bool)  # not yet in a separator or a leaf
    key = np.zeros(n, dtype=np.int64)
    keys = []
    while active.any():
        keep = key[rows] == key[cols]  # edges inside one part
        rows, cols = rows[keep], cols[keep]
        indptr = np.searchsorted(rows, np.arange(n + 1))
        graph = sp.csr_matrix((np.ones(len(rows)), cols, indptr), shape=(n, n))
        comp = csgraph.connected_components(graph, directed=False)[1]
        split = active & (np.bincount(comp)[comp] > _ND_LEAF)
        side = np.zeros(n, dtype=np.int64)  # 0 first half, 1 second half, 2 separator
        if split.any():
            idx = np.flatnonzero(split)
            part = comp[idx]
            roots = idx[np.unique(part, return_index=True)[1]]
            for _ in range(2):  # from each part's first vertex to its farthest, then that one's levels
                level = csgraph.dijkstra(graph, indices=roots, unweighted=True, min_only=True)[idx]
                ecc = np.zeros(n)  # each part's largest level
                np.maximum.at(ecc, part, level)
                far = level == ecc[part]
                roots = idx[far][np.unique(part[far], return_index=True)[1]]  # lowest index on ties
            mid = (ecc // 2)[part]
            side[idx] = np.where(level < mid, 0, np.where(level > mid, 1, 2))
        key = np.where(active, 3 * comp + side, finished)
        keys.append(key)
        active = split & (side != 2)
    return np.lexsort(keys[::-1])


def project_invariant_meanzero(u: np.ndarray, red: OrbitReduction) -> np.ndarray:
    """Orbit vector of the group average of vertex values ``u``, mass mean removed.

    The group average of u at a vertex is the mean of u over its orbit, so
    it is the orbit sum over the orbit size, one value per orbit.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (red.mesh.n_vertices,):
        raise DiscretizationError(f"expected vector of length {red.mesh.n_vertices}")
    return remove_mass_mean(red.reduce(u) / red.action.orbit_sizes, red)


def remove_mass_mean(u: np.ndarray, ops: FemOperators) -> np.ndarray:
    """u minus its lumped-mass mean; keeps an exactly invariant u exactly invariant."""
    return u - float(np.dot(ops.lumped, u) / ops.mesh.total_area)


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
