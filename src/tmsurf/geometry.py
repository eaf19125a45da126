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
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._sums import segment_sorted_sum, sorted_dot, sorted_sum

__all__ = [
    "MeshError",
    "GroupError",
    "UnsupportedOperation",
    "SurfaceMesh",
    "GroupAction",
    "GeodesicField",
    "OrbitStats",
    "build_sphere_mesh",
    "build_flat_torus_mesh",
    "group_action",
    "orbit_stats",
    "geodesic_distance",
    "triangle_corners",
    "triangle_areas",
    "max_radius",
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
    fundamental-domain coordinates for flat tori (where ``grid_index`` and
    ``periods`` carry the periodic structure).
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
    grid_index: np.ndarray | None = None

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

    def sizes_per_vertex(self) -> np.ndarray:
        return self.orbit_sizes[self.orbit_index]


@dataclass(eq=False)
class OrbitStats:
    sizes_per_vertex: np.ndarray
    min_size: int
    min_vertices: np.ndarray  # vertices lying on some minimal orbit
    histogram: dict  # orbit size -> number of orbits of that size


@dataclass(eq=False)
class GeodesicField:
    """Geodesic distances from a source vertex."""

    source: int
    distances: np.ndarray


# ---------------------------------------------------------------------------
# base polyhedra and subdivision

_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _canonical_normalize(points: np.ndarray) -> np.ndarray:
    # Sum of squares taken in sorted order: signed coordinate permutations of
    # a point then produce bitwise the same norm, hence bitwise-symmetric
    # projected vertices.
    sq = np.sort(points * points, axis=-1)
    norm = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    out = points / norm[..., None]
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
    pairs = np.sort(tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    return pairs[:, 0] * n_vertices + pairs[:, 1]


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
        nx, ny = mesh.grid_shape
        gi = mesh.grid_index[mesh.triangles]  # (m, 3, 2) integer corners
        d = gi - gi[:, :1, :]
        del gi
        wrap = np.array([nx, ny])
        d += wrap // 2  # in place: these integer arrays are as large as the mesh
        d %= wrap
        d -= wrap // 2
        spacing = np.array([mesh.periods[0] / nx, mesh.periods[1] / ny])
        return d * spacing
    return mesh.vertices[mesh.triangles]


def triangle_edge_sq(corners: np.ndarray) -> np.ndarray:
    """Squared edge lengths (opposite corner 0, 1, 2), order-independent sums."""
    d = np.stack(
        [corners[:, 2] - corners[:, 1], corners[:, 0] - corners[:, 2], corners[:, 1] - corners[:, 0]],
        axis=1,
    )
    return np.sort(d * d, axis=-1).sum(axis=-1)


def triangle_areas(mesh: SurfaceMesh) -> np.ndarray:
    """Triangle areas from sorted squared edge lengths (stable Heron form).

    Depending only on the multiset of edge lengths makes areas of group-image
    triangles bitwise equal no matter how their corners are stored.
    """
    sq = np.sort(triangle_edge_sq(triangle_corners(mesh)), axis=1)
    c, b, a = np.sqrt(sq[:, 0]), np.sqrt(sq[:, 1]), np.sqrt(sq[:, 2])
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

_KIND_RE = re.compile(r"^(trivial|antipodal|cyclic\((\d+)\)|dihedral\((\d+)\)|shift\((-?\d+),\s*(-?\d+)\))$")
_SHIFT_RE = re.compile(r"^shift\((-?\d+),\s*(-?\d+)\)$")

_ROT_Z = {
    1: np.eye(3, dtype=np.int64),
    2: np.diag([-1, -1, 1]).astype(np.int64),
    4: np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64),
}
_MIRROR_XZ = np.diag([1, -1, 1]).astype(np.int64)


def _parse_kind(group_kind: str):
    m = _KIND_RE.match(group_kind.replace(" ", ""))
    if not m:
        raise GroupError(f"unrecognized group kind {group_kind!r}")
    if m.group(2) is not None:
        return "cyclic", int(m.group(2))
    if m.group(3) is not None:
        return "dihedral", int(m.group(3))
    if m.group(4) is not None:
        return "shift", (int(m.group(4)), int(m.group(5)))
    return m.group(1), None


def _sphere_generators(kind: str, m) -> list[np.ndarray]:
    if kind == "trivial":
        return []
    if kind == "antipodal":
        return [-np.eye(3, dtype=np.int64)]
    if m is None or m < 1:
        raise GroupError(f"invalid order for {kind} group: {m}")
    if m not in _ROT_Z:
        raise GroupError(
            f"offending generator: rotation by 2*pi/{m} about z is not an exact "
            f"vertex symmetry of the mesh (supported orders: 1, 2, 4)"
        )
    gens = [] if m == 1 else [_ROT_Z[m]]
    if kind == "dihedral":
        gens.append(_MIRROR_XZ)
    return gens


def _close_matrix_group(gens: list[np.ndarray]) -> list[np.ndarray]:
    ident = np.eye(3, dtype=np.int64)
    elems = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = a @ g
                key = b.tobytes()
                if key not in elems:
                    elems[key] = b
                    fresh.append(b)
        frontier = fresh
        if len(elems) > 96:
            raise GroupError("group closure did not terminate at a small order")
    return [elems[k] for k in sorted(elems)]


def _row_bytes(points: np.ndarray) -> np.ndarray:
    """Each row of a float array as one opaque value, equal iff bitwise equal."""
    rows = np.ascontiguousarray(points, dtype=np.float64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _vertex_permutations(verts: np.ndarray, mats: list[np.ndarray], name: str) -> np.ndarray:
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
        if len(np.unique(perms[idx])) != n:
            raise GroupError(f"offending generator {label}: vertex map is not a bijection")
    return perms


def _orbits_from_perms(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    reps = perms.min(axis=0)  # canonical representative per vertex
    _, orbit_index = np.unique(reps, return_inverse=True)
    return orbit_index.astype(np.int64), np.bincount(orbit_index).astype(np.int64)


def _sorted_triangles(tris: np.ndarray) -> np.ndarray:
    rows = np.sort(tris, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def _check_triangle_equivariance(tris: np.ndarray, perms: np.ndarray, name: str) -> None:
    canon = _sorted_triangles(tris)
    for p in perms:
        if not np.array_equal(canon, _sorted_triangles(p[tris])):
            raise GroupError(f"group {name!r} does not preserve the triangle set")


def check_group_action(mesh: SurfaceMesh, action: GroupAction) -> None:
    """Require distinct rows with the identity, closed under composition and
    preserving the triangle set; otherwise orbits and order are wrong."""
    perms = action.permutations
    rows = {p.tobytes() for p in perms}
    if len(rows) != len(perms):
        raise GroupError(f"group {action.name!r} repeats a permutation")
    if np.arange(perms.shape[1], dtype=perms.dtype).tobytes() not in rows:
        raise GroupError(f"group {action.name!r} has no identity permutation")
    for p in perms:
        if any(p[q].tobytes() not in rows for q in perms):
            raise GroupError(f"group {action.name!r} is not closed under composition")
    _check_triangle_equivariance(mesh.triangles, perms, action.name)


def _sphere_action(mesh: SurfaceMesh, group_kind: str) -> GroupAction:
    kind, m = _parse_kind(group_kind)
    if kind == "shift":
        raise GroupError("shift groups act on tori, not spheres")
    mats = _close_matrix_group(_sphere_generators(kind, m))
    perms = _vertex_permutations(mesh.vertices, mats, group_kind)
    _check_triangle_equivariance(mesh.triangles, perms, group_kind)
    orbit_index, orbit_sizes = _orbits_from_perms(perms)
    return GroupAction(group_kind, perms, orbit_index, orbit_sizes)


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


def _torus_action(mesh: SurfaceMesh, gens: list[tuple[int, int]], name: str) -> GroupAction:
    nx, ny = mesh.grid_shape
    for sx, sy in gens:
        bad_x = sx % nx != 0 and nx % (sx % nx) != 0
        bad_y = sy % ny != 0 and ny % (sy % ny) != 0
        if bad_x or bad_y:
            raise GroupError(
                f"offending generator: shift({sx},{sy}) does not divide the {nx}x{ny} grid evenly"
            )
    shifts = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        fresh = []
        for cx, cy in frontier:
            for sx, sy in gens:
                nxt = ((cx + sx) % nx, (cy + sy) % ny)
                if nxt not in shifts:
                    shifts.add(nxt)
                    fresh.append(nxt)
        frontier = fresh
    i = mesh.grid_index[:, 0]
    j = mesh.grid_index[:, 1]
    perms = np.stack(
        [((i + sx) % nx) * ny + ((j + sy) % ny) for sx, sy in sorted(shifts)]
    ).astype(np.int64)
    orbit_index, orbit_sizes = _orbits_from_perms(perms)
    return GroupAction(name, perms, orbit_index, orbit_sizes)


# ---------------------------------------------------------------------------
# builders


def build_sphere_mesh(level: int, group_kind: str = "trivial") -> tuple[SurfaceMesh, GroupAction]:
    """Geodesic unit sphere by midpoint subdivision.

    The base polyhedron is chosen to carry the requested symmetry exactly:
    icosahedron for trivial/antipodal (it is centrally symmetric), regular
    octahedron for z-axis cyclic/dihedral groups (poles are vertices).
    """
    if not isinstance(level, (int, np.integer)) or level < 0 or level > 9:
        raise MeshError(f"invalid subdivision level {level}")
    kind, _ = _parse_kind(group_kind)
    if kind in ("trivial", "antipodal"):
        verts, tris = _icosahedron()
    elif kind in ("cyclic", "dihedral"):
        verts, tris = _octahedron()
    else:
        raise GroupError(f"group kind {group_kind!r} does not act on the sphere")
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
    group_kind: str | None = None,
    translations: list[tuple[int, int]] | None = None,
) -> tuple[SurfaceMesh, GroupAction]:
    """Uniform grid triangulation of the flat torus R^2 / (aZ x bZ).

    The translation group is given either as ``translations`` (list of integer
    grid shifts) or as ``group_kind`` ('trivial' or '+'-joined 'shift(a,b)').
    """
    if nx < 3 or ny < 3:
        raise MeshError(f"grid {nx}x{ny} too small to triangulate a torus")
    if group_kind is not None and translations is not None:
        raise GroupError("pass either group_kind or translations, not both")
    if translations is not None:
        gens = [(int(a), int(b)) for a, b in translations]
        name = "+".join(f"shift({a},{b})" for a, b in gens) or "trivial"
    else:
        name = group_kind or "trivial"
        gens = _parse_torus_group(name)
    a, b = float(periods[0]), float(periods[1])
    if not (a > 0 and b > 0):
        raise MeshError(f"invalid periods {periods}")
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    gi = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(np.int64)
    verts = gi * np.array([a / nx, b / ny])
    idx = lambda i, j: (i % nx) * ny + (j % ny)  # noqa: E731
    i, j = gi[:, 0], gi[:, 1]
    t1 = np.stack([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)], axis=1)
    t2 = np.stack([idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)], axis=1)
    tris = np.vstack([t1, t2]).astype(np.int64)
    mesh = _finish_mesh(
        verts, tris, "torus", grid_shape=(nx, ny), periods=(a, b), grid_index=gi
    )
    return mesh, _torus_action(mesh, gens, name)


def group_action(mesh: SurfaceMesh, group_kind: str = "trivial") -> GroupAction:
    """Realize a named group on an existing mesh.

    Translation groups need the torus grid structure; the point groups work
    on any embedded mesh whose vertex set they preserve bitwise (in
    particular on re-imported exports, since coordinates round-trip exactly).
    """
    if mesh.surface_kind == "torus":
        name = group_kind.replace(" ", "")
        return _torus_action(mesh, _parse_torus_group(name), name)
    return _sphere_action(mesh, group_kind)


# ---------------------------------------------------------------------------
# orbits and geodesics


def orbit_stats(action: GroupAction) -> OrbitStats:
    sizes = action.sizes_per_vertex()
    min_size = int(sizes.min())
    histogram = {}
    for s in action.orbit_sizes:
        histogram[int(s)] = histogram.get(int(s), 0) + 1
    return OrbitStats(
        sizes_per_vertex=sizes,
        min_size=min_size,
        min_vertices=np.flatnonzero(sizes == min_size),
        histogram=histogram,
    )


def geodesic_distance(mesh: SurfaceMesh, source: int) -> GeodesicField:
    """Closed-form geodesic distances from a source vertex to all vertices."""
    if not 0 <= source < mesh.n_vertices:
        raise MeshError(f"source vertex {source} out of range")
    if mesh.surface_kind == "sphere":
        cosang = np.clip(sorted_dot(mesh.vertices, mesh.vertices[source]), -1.0, 1.0)
        dist = np.arccos(cosang)
        return GeodesicField(source, dist)
    if mesh.surface_kind == "torus":
        nx, ny = mesh.grid_shape
        a, b = mesh.periods
        di = (mesh.grid_index[:, 0] - mesh.grid_index[source, 0]) % nx
        dj = (mesh.grid_index[:, 1] - mesh.grid_index[source, 1]) % ny
        # wrapped representative in (-n/2, n/2]; ties resolved to +
        di = np.where(di > nx - di, di - nx, di)
        dj = np.where(dj > ny - dj, dj - ny, dj)
        dx = di * (a / nx)
        dy = dj * (b / ny)
        sq = np.sort(np.stack([dx * dx, dy * dy], axis=1), axis=1)
        dist = np.sqrt(sq[:, 0] + sq[:, 1])
        return GeodesicField(source, dist)
    raise UnsupportedOperation(f"geodesic distances undefined for surface kind {mesh.surface_kind!r}")


def max_radius(mesh: SurfaceMesh) -> float:
    """Largest radius for which radial constructions stay injective."""
    if mesh.surface_kind == "sphere":
        return float(np.pi)
    if mesh.surface_kind == "torus":
        return 0.5 * min(mesh.periods)
    raise UnsupportedOperation("no radial normal coordinates for imported meshes")


def mean_edge_length(mesh: SurfaceMesh) -> float:
    corners = triangle_corners(mesh)
    m = len(corners)
    lengths = np.empty(3 * m)  # filled one side at a time, in the order of the sides
    for side, (a, b) in enumerate(((1, 0), (2, 1), (0, 2))):
        e = corners[:, a] - corners[:, b]
        np.sqrt((e * e).sum(axis=1), out=lengths[side * m : (side + 1) * m])
    return float(lengths.mean())  # each interior edge counted twice; fine for a mean


# ---------------------------------------------------------------------------
# interchange formats


def write_off(mesh: SurfaceMesh, path) -> None:
    header = "OFF\n"
    if mesh.surface_kind == "torus":
        header += f"# torus periods {mesh.periods[0]!r} {mesh.periods[1]!r}\n"
    elif mesh.surface_kind == "sphere":
        header += "# sphere" + (f" level {mesh.level}" if mesh.level is not None else "") + "\n"
    header += f"{mesh.n_vertices} {mesh.n_triangles} 0\n"
    coords = mesh.vertices if mesh.vertices.shape[1] == 3 else np.c_[mesh.vertices, np.zeros(mesh.n_vertices)]
    with open(path, "w") as fh:
        fh.write(header)
        # one %-format per block; %r of a float is its shortest round-trip repr
        fh.write(("%r %r %r\n" * mesh.n_vertices) % tuple(coords.ravel().tolist()))
        fh.write(("3 %d %d %d\n" * mesh.n_triangles) % tuple(mesh.triangles.ravel().tolist()))


_COMMENT_RE = re.compile(r"#([^\n]*)")


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


def read_off(path) -> SurfaceMesh:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise MeshError("OFF file is not text") from None
    surface = _surface_tag(_COMMENT_RE.findall(text))
    # one copy of the text at a time: the tokens alone are ~100 MB on a 384^2 torus
    text = _COMMENT_RE.sub("", text)
    tokens = text.split()
    del text
    if not tokens or tokens[0] != "OFF":
        raise MeshError("not an OFF file")
    try:
        nv, nf, _ = map(int, tokens[1:4])
        if nv < 1 or nf < 1:
            raise ValueError(f"header counts {nv} vertices and {nf} faces")
        if len(tokens) != 4 + 3 * nv + 4 * nf:
            raise ValueError(f"{len(tokens) - 4} numbers after the header, expected {3 * nv + 4 * nf}")
        verts = np.fromiter(map(float, islice(tokens, 4, 4 + 3 * nv)), np.float64, 3 * nv)
        faces = np.fromiter(map(int, islice(tokens, 4 + 3 * nv, None)), np.int64, 4 * nf)
        verts, faces = verts.reshape(nv, 3), faces.reshape(nf, 4)
    except (ValueError, OverflowError) as exc:
        raise MeshError(f"malformed OFF file (triangle faces only): {exc}") from None
    if not np.all(np.isfinite(verts)):
        raise MeshError("OFF vertex coordinates must be finite")
    if np.any(faces[:, 0] != 3):
        raise MeshError("only triangle faces are supported")
    tris = np.ascontiguousarray(faces[:, 1:])
    if surface[0] == "torus":
        return _reimport_torus(verts, tris, (surface[1], surface[2]))
    if surface[0] == "sphere":
        return _finish_mesh(verts, tris, "sphere", level=surface[1])
    return _finish_mesh(verts, tris, "imported")


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
    gi = np.stack([ix, iy], axis=1).astype(np.int64)
    if nx * ny != len(verts) or not np.array_equal(
        gi[:, 0] * ny + gi[:, 1], np.arange(len(verts))
    ):
        raise MeshError("torus OFF vertices do not form a row-major grid")
    return _finish_mesh(
        verts[:, :2], tris, "torus", grid_shape=(nx, ny), periods=periods, grid_index=gi
    )


def write_group_json(action: GroupAction, path) -> None:
    payload = {
        "name": action.name,
        "order": int(action.order),
        "n_vertices": int(action.permutations.shape[1]),
        "permutations": action.permutations.tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")  # dumps runs the C encoder, dump does not


def read_group_json(path, n_vertices: int | None = None) -> GroupAction:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise GroupError(f"permutation file is not valid JSON: {exc}") from None
    try:
        perms = np.asarray(payload["permutations"], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise GroupError("permutation payload must be a list of index arrays") from None
    if perms.ndim != 2:
        raise GroupError("permutation payload must be a list of index arrays")
    if n_vertices is not None and perms.shape[1] != n_vertices:
        raise GroupError(
            f"permutations act on {perms.shape[1]} vertices, mesh has {n_vertices}"
        )
    for i, p in enumerate(perms):
        if not np.array_equal(np.sort(p), np.arange(perms.shape[1])):
            raise GroupError(f"entry {i} is not a permutation of 0..{perms.shape[1] - 1}")
    orbit_index, orbit_sizes = _orbits_from_perms(perms)
    return GroupAction(
        name=str(payload.get("name", "imported")),
        permutations=perms,
        orbit_index=orbit_index,
        orbit_sizes=orbit_sizes,
    )
