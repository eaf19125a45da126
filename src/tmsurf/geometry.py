"""Triangle meshes of model surfaces with exact finite isometry actions.

Meshes are generated so that every requested isometry maps the vertex set to
itself bitwise. Sphere isometries are restricted to signed coordinate
permutations (inversion, z-rotations and vertical reflections in multiples
of 90 degrees); flat-torus isometries are grid translations. Group elements
then act as exact index permutations, triangle sets are preserved exactly,
and geodesic distances between group images agree bitwise (all reductions
are accumulation-order independent).
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ._sums import ordered3, segment_sorted_sum, sorted_sum, sorted_sum3

__all__ = [
    "MeshError",
    "GroupError",
    "UnsupportedOperation",
    "SurfaceMesh",
    "GroupAction",
    "SPHERE_GROUP_KINDS",
    "build_sphere_mesh",
    "build_flat_torus_mesh",
    "group_action",
    "geodesic_distance",
    "axis_offset",
    "triangle_corners",
    "triangle_areas",
    "mean_edge_length",
    "write_off",
    "read_off",
    "write_group_json",
    "read_group_json",
    "check_group_action",
]


class MeshError(ValueError):
    """Mesh construction or validation failure."""


class GroupError(ValueError):
    """Requested isometry is not an exact symmetry of the mesh."""


class UnsupportedOperation(RuntimeError):
    """Operation not defined for this surface kind (e.g. imported meshes)."""


# ---------------------------------------------------------------------------
# mesh container


@dataclass(eq=False)
class SurfaceMesh:
    """Closed triangle mesh of a model surface.

    vertices are embedded points for spheres and imported meshes, and
    fundamental-domain coordinates for flat tori, where ``grid_shape`` and
    ``periods`` carry the periodic structure: torus vertices are numbered
    row-major, vertex v at grid cell ``divmod(v, ny)``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    vertex_areas: np.ndarray
    face_areas: np.ndarray  # per triangle, computed once by the builder
    total_area: float
    surface_kind: str
    level: int | None = None
    grid_shape: tuple[int, int] | None = None
    periods: tuple[float, float] | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


@dataclass(eq=False)
class GroupAction:
    """Finite isometry group realized as exact vertex permutations."""

    name: str
    permutations: np.ndarray  # (order, n_vertices) int64, identity included
    orbit_index: np.ndarray  # vertex -> orbit id
    orbit_sizes: np.ndarray  # orbit id -> orbit cardinality

    @property
    def order(self) -> int:
        return self.permutations.shape[0]

    @property
    def n_orbits(self) -> int:
        return len(self.orbit_sizes)

    @property
    def min_orbit_size(self) -> int:
        return int(self.orbit_sizes.min())

    @property
    def min_orbit_vertex(self) -> int:
        """The lowest vertex on an orbit of the minimal size."""
        return int(np.argmin(self.orbit_sizes[self.orbit_index]))

    def orbit_of(self, v: int) -> np.ndarray:
        """The vertices on the orbit of vertex ``v``, in increasing order."""
        return np.flatnonzero(self.orbit_index == self.orbit_index[v])


# ---------------------------------------------------------------------------
# base polyhedra and subdivision

_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _canonical_normalize(points: np.ndarray) -> np.ndarray:
    # Sum of squares taken in sorted order: signed coordinate permutations of
    # a point then produce bitwise the same norm, hence bitwise-symmetric
    # projected vertices.
    out = points / np.sqrt(sorted_sum3(*(points * points).T))[:, None]
    return out + 0.0  # clear negative zeros so bitwise matching is stable


def _faces_from_cliques(verts: np.ndarray, edge_sq: float) -> np.ndarray:
    n = len(verts)
    d2 = ((verts[:, None, :] - verts[None, :, :]) ** 2).sum(-1)
    adj = np.abs(d2 - edge_sq) < 1e-9
    faces = []
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i, j]:
                continue
            for k in range(j + 1, n):
                if adj[i, k] and adj[j, k]:
                    faces.append((i, j, k))
    out = np.array(faces, dtype=np.int64)
    # outward orientation for a cleaner OFF export
    tri = verts[out]
    flip = np.linalg.det(tri) < 0
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    v = []
    for s1 in (1.0, -1.0):
        for s2 in (_PHI, -_PHI):
            v += [(0.0, s1, s2), (s1, s2, 0.0), (s2, 0.0, s1)]
    verts = np.array(v, dtype=float)
    return verts, _faces_from_cliques(verts, 4.0)


def _octahedron() -> tuple[np.ndarray, np.ndarray]:
    verts = np.array(
        [
            (1.0, 0.0, 0.0),
            (-1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, -1.0, 0.0),
            (0.0, 0.0, 1.0),
            (0.0, 0.0, -1.0),
        ]
    )
    return verts, _faces_from_cliques(verts, 2.0)


def _edge_keys(n_vertices: int, tris: np.ndarray) -> np.ndarray:
    """Scalar key ``a * n + b`` (a < b) per triangle side, in side order 01, 12, 20.

    Sorting the keys orders the edges exactly as a lexicographic row sort of
    the (a, b) pairs would, at a fraction of the cost of ``unique(axis=0)``.
    """
    ends = np.roll(tris, -1, axis=1)
    return (np.minimum(tris, ends) * n_vertices + np.maximum(tris, ends)).ravel()


def _edges(n_vertices: int, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every edge once, as the pair (a, b) with a < b."""
    keys = np.sort(_edge_keys(n_vertices, tris))
    return np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], n_vertices)


def _subdivide(verts: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each triangle in four; midpoints are deduplicated by edge."""
    n = len(verts)
    keys, inverse = np.unique(_edge_keys(n, tris), return_inverse=True)
    mid = (verts[keys // n] + verts[keys % n]) / 2.0
    new_index = len(verts) + inverse.reshape(-1, 3)  # per triangle: m01, m12, m20
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    m01, m12, m20 = new_index[:, 0], new_index[:, 1], new_index[:, 2]
    out_tris = np.concatenate(
        [
            np.stack([a, m01, m20], axis=1),
            np.stack([m01, b, m12], axis=1),
            np.stack([m20, m12, c], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    return np.vstack([verts, mid]), out_tris.astype(np.int64)


# ---------------------------------------------------------------------------
# per-triangle geometry


def triangle_corners(mesh: SurfaceMesh) -> np.ndarray:
    """Per-triangle corner coordinates; wrap-corrected local frames on tori."""
    if mesh.surface_kind == "torus":
        corners = np.empty((*mesh.triangles.shape, 2))
        index = np.arange(mesh.n_vertices, dtype=np.int32)
        # one grid axis at a time, in int32: scalar operands keep the integer
        # passes contiguous, and the transients a quarter of the output
        for k, (n, period) in enumerate(zip(mesh.grid_shape, mesh.periods)):
            d = _grid_cells(index, mesh.grid_shape[1], k)[mesh.triangles]
            d -= d[:, :1].copy()
            d += n // 2
            d %= n
            d -= n // 2
            np.multiply(d, period / n, out=corners[..., k])
        return corners
    return mesh.vertices[mesh.triangles]


def triangle_edge_sq(corners: np.ndarray) -> np.ndarray:
    """Squared edge lengths (opposite corner 0, 1, 2), order-independent sums.

    Two coordinate squares round the same in either order; three are summed
    in sorted order by ``sorted_sum3``, one side at a time.
    """
    sq = np.empty(corners.shape[:2])
    for i in range(3):
        d = corners[:, (i + 2) % 3] - corners[:, (i + 1) % 3]
        d *= d
        if d.shape[1] == 2:
            np.add(d[:, 0], d[:, 1], out=sq[:, i])
        else:
            sq[:, i] = sorted_sum3(d[:, 0], d[:, 1], d[:, 2])
    return sq


def triangle_areas(mesh: SurfaceMesh) -> np.ndarray:
    """Triangle areas from sorted squared edge lengths (stable Heron form).

    Depending only on the multiset of edge lengths makes areas of group-image
    triangles bitwise equal no matter how their corners are stored.
    """
    sq = triangle_edge_sq(triangle_corners(mesh))
    c, b, a = (np.sqrt(x, out=x) for x in ordered3(sq[:, 0], sq[:, 1], sq[:, 2]))
    del sq
    prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return 0.25 * np.sqrt(np.clip(prod, 0.0, None))


def _check_closed(n_vertices: int, tris: np.ndarray) -> None:
    if tris.min() < 0 or tris.max() >= n_vertices:
        raise MeshError("triangle indices out of range")
    _, counts = np.unique(_edge_keys(n_vertices, tris), return_counts=True)
    if not np.all(counts == 2):
        raise MeshError("mesh is not closed: found edges not shared by exactly two triangles")


def _finish_mesh(verts, tris, kind, **extra) -> SurfaceMesh:
    _check_closed(len(verts), tris)
    mesh = SurfaceMesh(
        vertices=verts,
        triangles=tris,
        vertex_areas=np.zeros(len(verts)),
        face_areas=np.zeros(len(tris)),
        total_area=0.0,
        surface_kind=kind,
        **extra,
    )
    areas = triangle_areas(mesh)
    bad = np.flatnonzero(~(np.isfinite(areas) & (areas > 1e-14)))
    if bad.size:
        raise MeshError(f"degenerate triangle at index {int(bad[0])}: {tris[bad[0]].tolist()}")
    mesh.face_areas = areas
    mesh.vertex_areas = segment_sorted_sum(
        mesh.triangles, np.repeat(areas / 3.0, 3).reshape(-1), len(verts)
    )
    mesh.total_area = sorted_sum(areas)
    return mesh


# ---------------------------------------------------------------------------
# groups

_SHIFT_RE = re.compile(r"^shift\((-?\d+),\s*(-?\d+)\)$")

_ROT_Z2 = np.diag([-1, -1, 1]).astype(np.int64)
_ROT_Z4 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
_MIRROR_XZ = np.diag([1, -1, 1]).astype(np.int64)

# Sphere group kind -> (base polyhedron, generator matrices).  The base carries
# the group exactly: the icosahedron is centrally symmetric, and the octahedron
# has its poles on the z axis.
_SPHERE_GROUPS = {
    "trivial": (_icosahedron, ()),
    "antipodal": (_icosahedron, (-np.eye(3, dtype=np.int64),)),
    "cyclic(1)": (_octahedron, ()),
    "cyclic(2)": (_octahedron, (_ROT_Z2,)),
    "cyclic(4)": (_octahedron, (_ROT_Z4,)),
    "dihedral(1)": (_octahedron, (_MIRROR_XZ,)),
    "dihedral(2)": (_octahedron, (_ROT_Z2, _MIRROR_XZ)),
    "dihedral(4)": (_octahedron, (_ROT_Z4, _MIRROR_XZ)),
}
SPHERE_GROUP_KINDS = tuple(_SPHERE_GROUPS)


def _sphere_group(group_kind: str):
    entry = _SPHERE_GROUPS.get(group_kind.replace(" ", ""))
    if entry is None:
        raise GroupError(
            f"unrecognized sphere group kind {group_kind!r}; the sphere kinds are "
            f"{', '.join(SPHERE_GROUP_KINDS)}"
        )
    return entry


def _row_bytes(points: np.ndarray) -> np.ndarray:
    """Each row of a float array as one opaque value, equal iff bitwise equal."""
    rows = np.ascontiguousarray(points, dtype=np.float64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _is_permutation(row: np.ndarray) -> bool:
    """Whether the int64 ``row`` holds each of 0..len(row)-1 exactly once."""
    n = len(row)
    return n == 0 or bool(row.min() >= 0 and row.max() < n and np.bincount(row, minlength=n).max() == 1)


def _vertex_permutations(verts: np.ndarray, mats: Sequence[np.ndarray], name: str) -> np.ndarray:
    """Index permutation of each matrix, matching image rows to vertices bitwise."""
    keys = _row_bytes(verts)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    n = len(verts)
    perms = np.empty((len(mats), n), dtype=np.int64)
    for idx, mat in enumerate(mats):
        label = f"{name}:{idx}"
        img = _row_bytes(verts @ mat.T.astype(float) + 0.0)  # + 0.0 clears negative zeros
        pos = np.minimum(np.searchsorted(sorted_keys, img), n - 1)
        missing = np.flatnonzero(sorted_keys[pos] != img)
        if missing.size:
            raise GroupError(
                f"offending generator {label}: image of vertex {int(missing[0])} is not a mesh vertex"
            )
        perms[idx] = order[pos]
        if not _is_permutation(perms[idx]):
            raise GroupError(f"offending generator {label}: vertex map is not a bijection")
    return perms


# Leading entries of a permutation row that key it in a lookup; rows with
# equal keys are compared in full, so the key length only affects speed.
_KEY_LEN = 16


def _index_rows(rows) -> dict:
    """Row positions grouped by the rows' leading entries, for ``_find``."""
    index: dict = {}
    for i, row in enumerate(rows):
        index.setdefault(row[:_KEY_LEN].tobytes(), []).append(i)
    return index


def _find(rows, index: dict, row: np.ndarray) -> int | None:
    """Position of the first of ``rows`` equal to ``row``, or None."""
    for i in index.get(row[:_KEY_LEN].tobytes(), ()):
        if np.array_equal(rows[i], row):
            return i
    return None


def _lex_order(rows: list) -> np.ndarray:
    """Order of distinct rows sorted lexicographically, read off the shortest
    prefix (of doubling length) that tells them apart."""
    k = 1
    while True:
        head = np.stack([row[:k] for row in rows])
        order = np.lexsort(head.T[::-1])
        head = head[order]
        if k >= len(rows[0]) or np.all(np.any(head[1:] != head[:-1], axis=1)):
            return order
        k *= 2


def _close(gens: np.ndarray, limit: int) -> np.ndarray:
    """The permutation group generated by the rows of ``gens`` (k, n).

    A breadth-first walk from the identity composes ``a[g]`` for each element
    ``a`` held and each generator ``g``: one n-length gather per product.
    Rows come back in lexicographic order, so the identity is first.  Raises
    GroupError as soon as more than ``limit`` elements are held.
    """
    elems = [np.arange(gens.shape[1], dtype=np.int64)]
    index = _index_rows(elems)
    for a in elems:  # the list grows while it is walked
        for g in gens:
            b = a[g]
            if _find(elems, index, b) is not None:
                continue
            if len(elems) == limit:
                raise GroupError(f"the generators give more than {limit} permutations")
            index.setdefault(b[:_KEY_LEN].tobytes(), []).append(len(elems))
            elems.append(b)
    return np.stack([elems[i] for i in _lex_order(elems)])


def _orbits_from_perms(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    reps = perms.min(axis=0)  # canonical representative per vertex
    _, orbit_index = np.unique(reps, return_inverse=True)
    return orbit_index.astype(np.int64), np.bincount(orbit_index).astype(np.int64)


def _sorted_corners(corners: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(3, m) corner indices -> (a*n + b, c) of each triangle's sorted corners
    a < b < c, ordered by a*n + b: searches run several times faster on
    sorted queries."""
    x, y, z = corners
    a = np.minimum(np.minimum(x, y), z)
    c = np.maximum(np.maximum(x, y), z)
    pairs = a * n + (x + y + z - a - c)
    order = np.argsort(pairs)
    return pairs[order], c[order]


def _check_triangle_equivariance(tris: np.ndarray, gens: np.ndarray, name: str) -> None:
    """Require every generator to map the triangle set onto itself; every
    product of generators then does too.

    A triangle with sorted corners a < b < c gets the exact int64 key
    rank(a*n + b) * n + c, the rank being the first position of a*n + b among
    the mesh's own sorted (a, b) pairs; it stays below m n, where
    (a*n + b)*n + c would overflow for n >= 2**21.  An image pair missing
    from the mesh already fails.
    """
    n = gens.shape[1]
    known, corner = _sorted_corners(tris.T, n)
    canon = np.sort(np.searchsorted(known, known) * n + corner)
    for g in gens:
        pairs, corner = _sorted_corners(g[tris.T], n)
        rank = np.minimum(np.searchsorted(known, pairs), len(known) - 1)
        if not (
            np.array_equal(known[rank], pairs)
            and np.array_equal(canon, np.sort(rank * n + corner))
        ):
            raise GroupError(f"group {name!r} does not preserve the triangle set")


def _simplex_stabilizers(tris: np.ndarray, perms: np.ndarray) -> tuple[int, int]:
    """The largest setwise stabilizer of an edge and of a triangle.

    A permutation that fixes a simplex setwise maps its first corner to one of
    its corners; the few simplices that pass this test are compared in full,
    an edge {a, b} by its image and a triangle by its sorted corners.  The
    counts start at one for the identity, which the loop skips.
    """
    n = perms.shape[1]
    identity = np.arange(n)
    a, b = _edges(n, tris)
    x, y, z = np.ascontiguousarray(tris.T)
    own = np.sort(tris, axis=1)
    edge_stab = np.ones(len(a), dtype=np.int64)
    tri_stab = np.ones(len(tris), dtype=np.int64)
    for p in perms:
        if np.array_equal(p, identity):
            continue
        pa = p[a]
        hit = np.flatnonzero((pa == a) | (pa == b))
        edge_stab[hit] += p[b[hit]] == np.where(pa[hit] == a[hit], b[hit], a[hit])
        px = p[x]
        hit = np.flatnonzero((px == x) | (px == y) | (px == z))
        tri_stab[hit] += np.all(np.sort(p[tris[hit]], axis=1) == own[hit], axis=1)
    return int(edge_stab.max()), int(tri_stab.max())


def _check_simplex_orbits(tris: np.ndarray, action: GroupAction, gens: np.ndarray) -> None:
    """Require the generators to preserve the triangle set and no edge or
    triangle to lie on an orbit smaller than the smallest vertex orbit.

    ell is the minimum orbit size over the whole surface.  A simplex's
    barycentre has the orbit size |G| / |setwise stabilizer|, the smallest
    over its points; a minimum reached only there leaves no vertex to carry it.
    """
    _check_triangle_equivariance(tris, gens, action.name)
    stabs = _simplex_stabilizers(tris, action.permutations)
    for kind, stab in zip(("an edge", "a triangle"), stabs):
        size = action.order // stab
        if size < action.min_orbit_size:
            raise GroupError(
                f"group {action.name!r} has {kind} orbit of size {size}, below its smallest "
                f"vertex orbit of size {action.min_orbit_size}; the Green source and the "
                "test family need a vertex on a minimal orbit"
            )


# Relative tolerance on squared edge lengths for an imported permutation to
# count as an isometry.  Built meshes and their OFF exports match bitwise;
# this leaves room for files written with fewer digits.
_ISOMETRY_RTOL = 1e-9


def _edge_sq(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared lengths of the segments (u[i], v[i]) (or (u, v[i])), across the seam on tori."""
    sq = np.zeros(len(v))
    for k in range(mesh.vertices.shape[1]):
        d = axis_offset(mesh, u, v, k)
        sq += d * d
    return sq


def check_group_action(mesh: SurfaceMesh, action: GroupAction) -> None:
    """Require distinct rows with the identity, closed under composition,
    preserving the triangle set and every edge length, and with its smallest
    orbit on a vertex; otherwise orbits, order or ell are wrong, or the group
    is not an isometry group.

    Generators are picked from the table in row order, each row that the
    closure of those before it lacks.  The table is a group when that closure,
    capped at the table's row count, holds every row.  The triangle set and
    the edge lengths are tested on the generators alone, since products of
    maps that keep both keep them too; the 1e-9 edge tolerance then holds to
    (word length) * 1e-9 for a product.
    """
    perms, name = action.permutations, action.name
    index = _index_rows(perms)
    if any(_find(perms, index, p) != i for i, p in enumerate(perms)):
        raise GroupError(f"group {name!r} repeats a permutation")
    if _find(perms, index, np.arange(perms.shape[1])) is None:
        raise GroupError(f"group {name!r} has no identity permutation")
    picked: list[int] = []
    group = _close(perms[picked], 1)
    found = _index_rows(group)
    for i, p in enumerate(perms):
        if _find(group, found, p) is None:
            picked.append(i)
            try:
                group = _close(perms[picked], len(perms))
            except GroupError as exc:
                raise GroupError(f"group {name!r} is not closed under composition: {exc}") from None
            found = _index_rows(group)
    # the closure now holds every row and has at most as many rows, all distinct: it is the table
    gens = perms[picked]
    _check_simplex_orbits(mesh.triangles, action, gens)
    a, b = _edges(mesh.n_vertices, mesh.triangles)
    sq = _edge_sq(mesh, a, b)
    for g in gens:
        mismatch = float(np.max(np.abs(_edge_sq(mesh, g[a], g[b]) - sq) / sq))
        if mismatch > _ISOMETRY_RTOL:
            raise GroupError(
                f"group {name!r} is not an isometry: a squared edge length "
                f"changes by {mismatch:.3g} (relative) under one of its permutations"
            )


# Every sphere generator is a signed permutation matrix; those form a group of order 48.
_SIGNED_PERMUTATIONS = 48


def _sphere_action(mesh: SurfaceMesh, group_kind: str) -> GroupAction:
    gens = _vertex_permutations(mesh.vertices, _sphere_group(group_kind)[1], group_kind)
    perms = _close(gens, _SIGNED_PERMUTATIONS)
    action = GroupAction(group_kind, perms, *_orbits_from_perms(perms))
    _check_simplex_orbits(mesh.triangles, action, gens)
    return action


def _parse_torus_group(group_kind: str) -> list[tuple[int, int]]:
    """Translation generators from a kind string: 'trivial' or '+'-joined shift(a,b)."""
    spec = group_kind.replace(" ", "")
    if spec == "trivial":
        return []
    gens = []
    for part in spec.split("+"):
        m = _SHIFT_RE.match(part)
        if not m:
            raise GroupError(f"offending generator: {part!r} is not an exact symmetry of a grid torus")
        gens.append((int(m.group(1)), int(m.group(2))))
    return gens


def _torus_action(
    mesh: SurfaceMesh, gens: list[tuple[int, int]], name: str, check_simplices: bool = False
) -> GroupAction:
    nx, ny = mesh.grid_shape
    for sx, sy in gens:
        bad_x = sx % nx != 0 and nx % (sx % nx) != 0
        bad_y = sy % ny != 0 and ny % (sy % ny) != 0
        if bad_x or bad_y:
            raise GroupError(
                f"offending generator: shift({sx},{sy}) does not divide the {nx}x{ny} grid evenly"
            )
    i, j = np.divmod(np.arange(mesh.n_vertices), ny)
    steps = np.empty((len(gens), mesh.n_vertices), dtype=np.int64)
    for row, (sx, sy) in zip(steps, gens):
        row[:] = ((i + sx) % nx) * ny + (j + sy) % ny
    perms = _close(steps, nx * ny)
    action = GroupAction(name, perms, *_orbits_from_perms(perms))
    # The builder's grid triangulation needs no check: for nx, ny >= 3 a
    # nontrivial grid translation fixes no vertex, edge or triangle of it and
    # maps it onto itself.  An imported torus may carry another triangulation.
    if check_simplices:
        _check_simplex_orbits(mesh.triangles, action, steps)
    return action


# ---------------------------------------------------------------------------
# builders


def build_sphere_mesh(level: int, group_kind: str = "trivial") -> tuple[SurfaceMesh, GroupAction]:
    """Geodesic unit sphere by midpoint subdivision of the group kind's base polyhedron."""
    if not isinstance(level, (int, np.integer)) or level < 0 or level > 9:
        raise MeshError(f"invalid subdivision level {level}")
    verts, tris = _sphere_group(group_kind)[0]()
    verts = _canonical_normalize(verts)
    for _ in range(level):
        verts, tris = _subdivide(verts, tris)
        verts = _canonical_normalize(verts)
    mesh = _finish_mesh(verts, tris, "sphere", level=level)
    return mesh, _sphere_action(mesh, group_kind)


def build_flat_torus_mesh(
    nx: int,
    ny: int,
    periods: tuple[float, float] = (1.0, 1.0),
    group_kind: str = "trivial",
) -> tuple[SurfaceMesh, GroupAction]:
    """Uniform grid triangulation of the flat torus R^2 / (aZ x bZ).

    The translation group is ``group_kind``: 'trivial' or '+'-joined 'shift(a,b)'.
    """
    if nx < 3 or ny < 3:
        raise MeshError(f"grid {nx}x{ny} too small to triangulate a torus")
    a, b = float(periods[0]), float(periods[1])
    if not (0.0 < a < np.inf and 0.0 < b < np.inf):
        raise MeshError(f"torus 'periods' must be positive and finite, got {[a, b]}")
    i, j = np.divmod(np.arange(nx * ny), ny)  # row-major: vertex v at cell divmod(v, ny)
    verts = np.stack([i * (a / nx), j * (b / ny)], axis=1)
    idx = lambda i, j: (i % nx) * ny + (j % ny)  # noqa: E731
    t1 = np.stack([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)], axis=1)
    t2 = np.stack([idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)], axis=1)
    tris = np.vstack([t1, t2]).astype(np.int64)
    mesh = _finish_mesh(verts, tris, "torus", grid_shape=(nx, ny), periods=(a, b))
    return mesh, _torus_action(mesh, _parse_torus_group(group_kind), group_kind)


def group_action(mesh: SurfaceMesh, group_kind: str = "trivial") -> GroupAction:
    """Realize a named group on an existing mesh.

    Translation groups need the torus grid structure; the point groups work
    on any embedded mesh whose vertex set they preserve bitwise (in
    particular on re-imported exports, since coordinates round-trip exactly).
    """
    if mesh.surface_kind == "torus":
        name = group_kind.replace(" ", "")
        # only imported tori reach this: their triangles need not be the grid's
        return _torus_action(mesh, _parse_torus_group(name), name, check_simplices=True)
    return _sphere_action(mesh, group_kind)


# ---------------------------------------------------------------------------
# orbits and geodesics


def _grid_cells(index, ny: int, axis: int):
    """Cell along ``axis`` of torus vertices, numbered row-major: v = i * ny + j."""
    return index // ny if axis == 0 else index % ny


def axis_offset(mesh: SurfaceMesh, u, v, axis: int) -> np.ndarray:
    """Coordinate ``axis`` of the displacements from vertices u to vertices v;
    on tori the grid offset wrapped into [-n/2, n/2) cells, times period/n
    (one axis at a time keeps the transients the size of the output)."""
    if mesh.surface_kind != "torus":
        col = mesh.vertices[:, axis]
        return col[v] - col[u]
    n, ny = mesh.grid_shape[axis], mesh.grid_shape[1]
    d = _grid_cells(v, ny, axis) - _grid_cells(u, ny, axis)
    d += n // 2
    d %= n
    d -= n // 2
    return d * (mesh.periods[axis] / n)


def geodesic_distance(mesh: SurfaceMesh, source: int) -> np.ndarray:
    """Closed-form geodesic distances from a source vertex to all vertices."""
    if not 0 <= source < mesh.n_vertices:
        raise MeshError(f"source vertex {source} out of range")
    if mesh.surface_kind == "sphere":
        x, y, z = mesh.vertices.T * mesh.vertices[source][:, None]
        return np.arccos(np.clip(sorted_sum3(x, y, z), -1.0, 1.0))
    if mesh.surface_kind == "torus":
        return np.sqrt(_edge_sq(mesh, source, np.arange(mesh.n_vertices)))
    raise UnsupportedOperation(f"geodesic distances undefined for surface kind {mesh.surface_kind!r}")


def mean_edge_length(mesh: SurfaceMesh) -> float:
    tri = mesh.triangles
    m = len(tri)
    lengths = np.empty(3 * m)  # filled one side at a time, in the order of the sides
    for side, (a, b) in enumerate(((1, 0), (2, 1), (0, 2))):
        np.sqrt(_edge_sq(mesh, tri[:, b], tri[:, a]), out=lengths[side * m : (side + 1) * m])
    return float(lengths.mean())  # each interior edge counted twice; fine for a mean


# ---------------------------------------------------------------------------
# interchange formats


# Rows per block of OFF text: a block's byte table stays near 1 MB whatever
# the mesh size.
_OFF_BLOCK_ROWS = 1 << 14


def _write_lines(fh, words: np.ndarray, index: np.ndarray, lead: bytes = b"") -> None:
    """Write one line per row of ``index``: ``lead``, if any, then the bytes
    words the row indexes, separated by spaces.

    Each word is laid out as its NUL-padded bytes and a space; a block of
    lines is a table of such words with the last space of each row turned
    into a newline.  The text holds no NUL byte, so dropping every zero
    leaves exactly the text, on whichever side a word's padding sits.
    """
    spaced = _followed_by(words, b" ")
    cols = bool(lead) + index.shape[1]
    table = np.zeros((min(_OFF_BLOCK_ROWS, len(index)), cols), dtype=spaced.dtype)
    if lead:
        table[:, 0] = lead + b" "
    for lo in range(0, len(index), _OFF_BLOCK_ROWS):
        block = index[lo : lo + _OFF_BLOCK_ROWS]
        rows = table[: len(block)]
        rows[:, bool(lead) :] = spaced[block]
        text = rows.view(np.uint8).reshape(len(block), -1)
        text[:, -1] = ord("\n")
        fh.write(text[text != 0].tobytes())


def _followed_by(words: np.ndarray, sep: bytes) -> np.ndarray:
    """Each bytes word with ``sep`` after its NUL-padded bytes, as one word."""
    width = words.dtype.itemsize
    padded = np.zeros((len(words), width + len(sep)), dtype=np.uint8)
    padded[:, :width] = words.view(np.uint8).reshape(len(words), width)
    padded[:, width:] = np.frombuffer(sep, dtype=np.uint8)
    return padded.view(f"S{width + len(sep)}").ravel()


@lru_cache(maxsize=1)
def _decimal_words(n: int) -> np.ndarray:
    """The decimal text of 0..n-1 as bytes words, right-aligned behind NUL
    padding, which _write_lines drops.  ``astype(np.bytes_)`` gives the same
    text with trailing padding, but formats each number as a Python int and
    takes several times as long.  One read-only table serves the OFF faces
    and the group rows of an export."""
    width = len(str(max(n - 1, 0)))
    powers = 10 ** np.arange(width - 1, -1, -1)
    values = np.arange(n)[:, None]
    digits = values // powers
    digits %= 10
    digits += ord("0")
    digits[(values < powers) & (powers > 1)] = 0  # leading zeros
    words = digits.astype(np.uint8).view(f"S{width}").ravel()
    words.flags.writeable = False
    return words


def write_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh as OFF text: each coordinate as its shortest round-trip
    repr, as %r prints it, and each face as '3 a b c'."""
    header = "OFF\n"
    if mesh.surface_kind == "torus":
        header += f"# torus periods {mesh.periods[0]!r} {mesh.periods[1]!r}\n"
    elif mesh.surface_kind == "sphere":
        header += "# sphere" + (f" level {mesh.level}" if mesh.level is not None else "") + "\n"
    header += f"{mesh.n_vertices} {mesh.n_triangles} 0\n"
    coords = mesh.vertices if mesh.vertices.shape[1] == 3 else np.c_[mesh.vertices, np.zeros(mesh.n_vertices)]
    # repr once per distinct 64-bit pattern, so -0.0 keeps its own text
    bits, which = np.unique(np.ascontiguousarray(coords).view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=np.bytes_)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        _write_lines(fh, text, which.reshape(coords.shape))
        _write_lines(fh, _decimal_words(mesh.n_vertices), mesh.triangles, lead=b"3")


# a comment runs to the end of its line; \r ends it too, as universal newlines would
_COMMENT_RE = re.compile(rb"#([^\r\n]*)")
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[list(b" \t\n\v\f\r")] = True


def _surface_tag(comments) -> tuple:
    """Surface kind from the OFF comments; the last surface comment wins."""
    surface = ("imported",)
    for comment in comments:
        words = comment.split()
        try:
            if words[:2] == ["torus", "periods"]:
                periods = (float(words[2]), float(words[3]))
                if not all(np.isfinite(p) and p > 0 for p in periods):
                    raise ValueError(periods)
                surface = ("torus", *periods)
            elif words[:1] == ["sphere"]:
                surface = ("sphere", int(words[2]) if len(words) > 2 else None)
        except (IndexError, ValueError):
            raise MeshError(f"malformed surface comment '#{comment.rstrip()}'") from None
    return surface


def _tokens(data: bytes) -> tuple[np.ndarray, bool]:
    """Offset of every token (run of non-ASCII-whitespace bytes) in ``data``,
    and whether some token is a lone ``+`` or ``-``, which numpy's integer
    reader would take for 0 or join to the number after it."""
    byte = np.frombuffer(data, dtype=np.uint8)
    space = np.ones(len(data) + 1, dtype=bool)  # one past the end counts as space
    space[:-1] = _ASCII_SPACE[byte]
    start = ~space
    start[1:] &= space[:-1]
    starts = np.flatnonzero(start)
    del start
    first = byte[starts]
    lone_sign = bool(np.any(((first == ord("+")) | (first == ord("-"))) & space[starts + 1]))
    return starts, lone_sign


def _numbers(data: bytes, dtype, count: int) -> np.ndarray:
    """Exactly ``count`` ASCII literals, or ValueError.

    numpy raises at unmatched bytes (older versions stop reading there), and a
    lone sign is the one token it reads as other than one number.
    """
    values = np.fromstring(data, dtype, sep=" ")
    if values.size != count:
        raise ValueError(f"read {values.size} numbers, expected {count}")
    return values


def read_off(path) -> SurfaceMesh:
    """Read a closed triangle mesh; every malformed file raises MeshError.

    Numbers are ASCII decimal literals separated by ASCII whitespace, and
    face entries are integers.  The file is held once as bytes and its
    blocks are parsed by numpy's C readers, with no Python object per token.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            raise MeshError("OFF file is not text") from None
    surface = _surface_tag(c.decode() for c in _COMMENT_RE.findall(data))
    data = _COMMENT_RE.sub(b"", data)
    starts, lone_sign = _tokens(data)
    if not starts.size or data[starts[0] : starts[0] + 4].split()[:1] != [b"OFF"]:
        raise MeshError("not an OFF file")
    try:
        if lone_sign:
            raise ValueError("a sign without digits")
        if starts.size < 5:
            raise ValueError("the header needs three counts and data after them")
        nv, nf, _ = _numbers(data[starts[1] : starts[4]], np.int64, 3).tolist()
        if nv < 1 or nf < 1:
            raise ValueError(f"header counts {nv} vertices and {nf} faces")
        if starts.size != 4 + 3 * nv + 4 * nf:
            raise ValueError(f"{starts.size - 4} numbers after the header, expected {3 * nv + 4 * nf}")
        split = starts[4 + 3 * nv]
        verts = _numbers(data[starts[4] : split], np.float64, 3 * nv).reshape(nv, 3)
        del starts
        faces = _numbers(data[split:], np.int64, 4 * nf).reshape(nf, 4)
    except ValueError as exc:
        raise MeshError(f"malformed OFF file (triangle faces only): {exc}") from None
    del data
    if not np.all(np.isfinite(verts)):
        raise MeshError("OFF vertex coordinates must be finite")
    if np.any(faces[:, 0] != 3):
        raise MeshError("only triangle faces are supported")
    tris = np.ascontiguousarray(faces[:, 1:])
    if surface[0] == "torus":
        mesh = _reimport_torus(verts, tris, (surface[1], surface[2]))
    elif surface[0] == "sphere":
        mesh = _finish_mesh(verts, tris, "sphere", level=surface[1])
    else:
        mesh = _finish_mesh(verts, tris, "imported")
    # one closed surface: on several, the constants of each component are
    # extra kernel vectors, and spectra and Green solves come out wrong
    n, (x, y, z) = mesh.n_vertices, tris.T
    links = (np.r_[x, x], np.r_[y, z])  # each triangle joins its first corner to the others
    graph = sp.csr_matrix((np.ones(2 * len(tris), dtype=np.int8), links), shape=(n, n))
    count = csgraph.connected_components(graph, directed=False)[0]
    if count > 1:
        raise MeshError(f"mesh has {count} connected components; one closed surface is required")
    return mesh


def _reimport_torus(verts: np.ndarray, tris: np.ndarray, periods) -> SurfaceMesh:
    """Rebuild the periodic grid structure dropped by the flat OFF encoding.

    Coordinates are recovered by rank, not by division, so the result is
    bitwise identical to the original builder output; the row-major vertex
    order is required because translation actions index the grid that way.
    """
    if np.any(verts[:, 2] != 0.0):
        raise MeshError("torus OFF must have z = 0 throughout")
    ux, ix = np.unique(verts[:, 0], return_inverse=True)
    uy, iy = np.unique(verts[:, 1], return_inverse=True)
    nx, ny = len(ux), len(uy)
    if nx * ny != len(verts) or not np.array_equal(ix * ny + iy, np.arange(len(verts))):
        raise MeshError("torus OFF vertices do not form a row-major grid")
    return _finish_mesh(verts[:, :2], tris, "torus", grid_shape=(nx, ny), periods=periods)


def write_group_json(action: GroupAction, path) -> None:
    """Write the group as ``json.dumps`` of its payload and a newline.

    The header comes from ``json.dumps``; each permutation row is its decimal
    words gathered from one table, each followed by ', ', with the NUL
    padding dropped and the last separator cut.
    """
    perms = action.permutations
    n = perms.shape[1]
    head = json.dumps({"name": action.name, "order": int(action.order), "n_vertices": n, "permutations": []})
    words = _followed_by(_decimal_words(n), b", ")
    with open(path, "wb") as fh:
        fh.write(head[:-2].encode())  # up to the '[' that opens the rows
        for i, row in enumerate(perms):
            text = words[row].view(np.uint8)
            fh.write(b"[" if i == 0 else b", [")
            fh.write(text[text != 0][:-2].tobytes())
            fh.write(b"]")
        fh.write(b"]}\n")


def read_group_json(path, n_vertices: int | None = None) -> GroupAction:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise GroupError(f"permutation file is not valid JSON: {exc}") from None
    try:
        rows = payload["permutations"]
        # JSON integers only: numpy would truncate 1.5, and read true and "1" as 1
        if not all(set(map(type, row)) <= {int} for row in rows):
            raise ValueError(rows)
        perms = np.asarray(rows, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise GroupError("permutation payload must be a list of lists of JSON integers") from None
    if perms.ndim != 2:
        raise GroupError("permutation payload must be a list of lists of JSON integers")
    if n_vertices is not None and perms.shape[1] != n_vertices:
        raise GroupError(
            f"permutations act on {perms.shape[1]} vertices, mesh has {n_vertices}"
        )
    for i, p in enumerate(perms):
        if not _is_permutation(p):
            raise GroupError(f"entry {i} is not a permutation of 0..{perms.shape[1] - 1}")
    orbit_index, orbit_sizes = _orbits_from_perms(perms)
    return GroupAction(
        name=str(payload.get("name", "imported")),
        permutations=perms,
        orbit_index=orbit_index,
        orbit_sizes=orbit_sizes,
    )
