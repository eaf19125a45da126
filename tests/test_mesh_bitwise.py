"""The sort-free mesh layer against its row-sort and COO references, bit for bit.

Edge lengths, areas, Dirichlet energies, sphere distances and vertex norms
are summed by a min/max network, torus offsets are read off the row-major
vertex numbering, K and M share one CSR pattern, the mass diagonal is half
the vertex areas, and group.json is written from byte blocks; each must give
exactly the bits of the implementations kept in conftest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsurf import cli, geometry
from tmsurf._sums import ordered3, sorted_sum3
from tmsurf.discretization import assemble
from tmsurf.geometry import (
    GroupAction,
    MeshError,
    SurfaceMesh,
    axis_offset,
    build_flat_torus_mesh,
    build_sphere_mesh,
    geodesic_distance,
    read_off,
    triangle_areas,
    triangle_corners,
    triangle_edge_sq,
    write_group_json,
)
from tmsurf.maximizer import triangle_dirichlet_energies

EXAMPLES = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def _bits_equal(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _torus6_flipped(tmp_path):
    # the 6x6 grid torus with the other diagonal in cell (0, 0)
    torus = tmp_path / "t6.off"
    assert cli.main(["mesh", "--surface", "torus", "--nx", "6", "--ny", "6", "--out", str(torus)]) == 0
    lines = torus.read_text().splitlines()
    first, second = lines.index("3 0 6 7"), lines.index("3 0 7 1")
    lines[first], lines[second] = "3 0 6 1", "3 6 7 1"
    torus.write_text("\n".join(lines) + "\n")
    return read_off(torus)


def _negative_zeros(tmp_path):
    path = tmp_path / "odd.off"
    path.write_text(
        "OFF\n4 4 0\n-0.0 5e-324 0.1\n1e16 0.0 1e-05\n0.0 1e16 1e15\n0.0001 -0.0 -1e16\n"
        "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    )
    return read_off(path)


MESHES = {
    **{
        f"sphere-{kind}-{level}": (lambda k=kind, lv=level: build_sphere_mesh(lv, k)[0])
        for kind in ("trivial", "antipodal", "cyclic(4)", "dihedral(4)")
        for level in range(5)
    },
    "torus3": lambda: build_flat_torus_mesh(3, 3)[0],
    "torus37x38": lambda: build_flat_torus_mesh(37, 38)[0],
    "torus24-periods": lambda: build_flat_torus_mesh(24, 24, periods=(1.0, 2.5))[0],
}
FILE_MESHES = {"torus6-flipped": _torus6_flipped, "negative-zeros": _negative_zeros}


@pytest.fixture(params=[*MESHES, *FILE_MESHES])
def mesh(request, tmp_path) -> SurfaceMesh:
    if request.param in MESHES:
        return MESHES[request.param]()
    return FILE_MESHES[request.param](tmp_path)


def test_geometry_matches_row_sorts(mesh, sorted_references):
    ref = sorted_references
    corners = triangle_corners(mesh)
    assert _bits_equal(corners, ref.corners(mesh))
    assert _bits_equal(triangle_edge_sq(corners), ref.edge_sq(corners))
    areas = ref.areas(mesh)
    assert _bits_equal(triangle_areas(mesh), areas)
    assert _bits_equal(mesh.face_areas, areas)
    rng = np.random.default_rng(mesh.n_vertices)
    for u in (rng.standard_normal(mesh.n_vertices), np.ones(mesh.n_vertices)):
        assert _bits_equal(triangle_dirichlet_energies(u, mesh), ref.energies(u, mesh))


def test_operators_share_one_canonical_pattern(mesh, sorted_references):
    ops = assemble(mesh)
    K, M = ops.stiffness, ops.mass
    # scipy keeps a view of the arrays it is given, so the two share memory
    assert np.shares_memory(K.indices, M.indices) and np.shares_memory(K.indptr, M.indptr)
    assert K.has_canonical_format and M.has_canonical_format
    for got, want in zip((K, M), sorted_references.operators(mesh)):
        assert want.has_canonical_format
        assert got.indices.dtype == want.indices.dtype and got.indptr.dtype == want.indptr.dtype
        assert np.array_equal(got.indices, want.indices) and np.array_equal(got.indptr, want.indptr)
        assert _bits_equal(got.data, want.data)


PRIMITIVE_MESHES = {
    **MESHES,
    "sphere-antipodal-6": lambda: build_sphere_mesh(6, "antipodal")[0],
    "torus17x5-periods": lambda: build_flat_torus_mesh(17, 5, periods=(0.3, 7.1))[0],
}


@pytest.fixture(params=[*PRIMITIVE_MESHES, *FILE_MESHES])
def primitive_mesh(request, tmp_path) -> SurfaceMesh:
    if request.param in PRIMITIVE_MESHES:
        return PRIMITIVE_MESHES[request.param]()
    return FILE_MESHES[request.param](tmp_path)


def test_mesh_primitives_match_their_former_copies(primitive_mesh, sorted_references):
    mesh, ref = primitive_mesh, sorted_references
    tri = mesh.triangles
    for j, k in ((1, 2), (2, 0), (0, 1)):
        u, v = tri[:, j], tri[:, k]
        assert _bits_equal(geometry._edge_sq(mesh, u, v), ref.vertex_edge_sq(mesh, u, v))
    assert _bits_equal(assemble(mesh).mass.diagonal(), ref.mass_diagonal(mesh))
    every = np.arange(mesh.n_vertices)
    for source in sorted({0, mesh.n_vertices // 3, mesh.n_vertices - 1}):
        disp = np.column_stack([axis_offset(mesh, source, every, k) for k in range(mesh.vertices.shape[1])])
        assert _bits_equal(disp, ref.displacements(mesh, source, every))
        if mesh.surface_kind != "imported":
            assert _bits_equal(geodesic_distance(mesh, source), ref.geodesic(mesh, source))


@pytest.mark.parametrize("base", [geometry._icosahedron, geometry._octahedron])
def test_canonical_normalize_matches_a_row_sort(base, sorted_references):
    # the midpoints of every subdivision level, as the sphere builder projects them
    verts, tris = base()
    for _ in range(6):
        assert _bits_equal(geometry._canonical_normalize(verts), sorted_references.normalize(verts))
        verts, tris = geometry._subdivide(geometry._canonical_normalize(verts), tris)
    rng = np.random.default_rng(0)
    heavy = rng.standard_cauchy((20000, 3)) * np.where(rng.random((20000, 3)) < 0.1, 0.0, 1.0)
    heavy = heavy[np.any(heavy != 0, axis=1)]
    assert _bits_equal(geometry._canonical_normalize(heavy), sorted_references.normalize(heavy))


@EXAMPLES
@given(row=st.one_of(
    st.lists(st.integers(-2, 6), max_size=6),
    st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))),
))
def test_permutation_check_matches_a_row_sort(row, sorted_references):
    row = np.array(row, dtype=np.int64)
    assert geometry._is_permutation(row) == sorted_references.is_permutation(row)


# coordinates with many ties, zeros of both signs and repeated corners
COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e-3])


def _triangles(dim):
    return st.lists(st.lists(st.tuples(*[COORD] * dim), min_size=3, max_size=3), min_size=1, max_size=40)


def _soup(corners: np.ndarray) -> SurfaceMesh:
    """Unshared triangles with the given corners, as an imported mesh."""
    m = len(corners)
    mesh = SurfaceMesh(
        vertices=corners.reshape(3 * m, -1),
        triangles=np.arange(3 * m).reshape(m, 3),
        vertex_areas=np.zeros(3 * m),
        face_areas=np.zeros(m),
        total_area=0.0,
        surface_kind="imported",
    )
    mesh.face_areas = triangle_areas(mesh)
    return mesh


@EXAMPLES
@given(planar=_triangles(2), spatial=_triangles(3))
def test_drawn_edge_lengths_and_areas_match_row_sorts(planar, spatial, sorted_references):
    for tris in (planar, spatial):
        corners = np.array(tris, dtype=float)
        assert _bits_equal(triangle_edge_sq(corners), sorted_references.edge_sq(corners))
        mesh = _soup(corners)
        assert _bits_equal(mesh.face_areas, sorted_references.areas(mesh))


@EXAMPLES
@given(tris=_triangles(3), values=st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.25]), min_size=120,
                                           max_size=120))
def test_drawn_energies_match_row_sorts(tris, values, sorted_references):
    mesh = _soup(np.array(tris, dtype=float))
    keep = np.flatnonzero(mesh.face_areas > 0)  # the mesh builders reject the others
    mesh.triangles, mesh.face_areas = mesh.triangles[keep], mesh.face_areas[keep]
    u = np.array(values[: mesh.n_vertices])
    assert _bits_equal(triangle_dirichlet_energies(u, mesh), sorted_references.energies(u, mesh))


SUMMAND = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1e16, -1e16, 3.0, np.inf, -np.inf])


@EXAMPLES
@given(triples=st.lists(st.tuples(SUMMAND, SUMMAND, SUMMAND), min_size=1, max_size=30))
def test_sorted_sum3_matches_a_row_sort(triples):
    # every triple but three -0, whose sorted sum is -0 and which no caller has
    rows = np.array([t for t in triples if not all(x == 0 and np.signbit(x) for x in t)] or [[1.0] * 3])
    with np.errstate(invalid="ignore"):  # inf - inf
        want = np.sort(rows, axis=1).sum(axis=1)
        assert _bits_equal(sorted_sum3(rows[:, 0], rows[:, 1], rows[:, 2]), want)
    lo, mid, hi = ordered3(rows[:, 0], rows[:, 1], rows[:, 2])
    assert np.array_equal(np.stack([lo, mid, hi], axis=1), np.sort(rows, axis=1))


def test_sorted_sum3_of_mixed_zeros_is_positive_zero():
    # whichever zero the network repeats, a sum of zeros that are not all -0 is +0
    for signs in np.ndindex(2, 2, 2):
        if all(signs):
            continue
        a, b, c = (np.array([-0.0 if s else 0.0]) for s in signs)
        total = sorted_sum3(a, b, c)
        assert total[0] == 0.0 and not np.signbit(total[0]), signs


def test_obtuse_triangle_with_equal_values_sums_to_positive_zero(sorted_references):
    # one negative cotangent times a zero difference is -0; the row-sorted sum is +0
    mesh = _soup(np.array([[[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 0.5, 0.0]]]))
    u = np.full(3, 0.3)
    got = triangle_dirichlet_energies(u, mesh)
    assert _bits_equal(got, sorted_references.energies(u, mesh))
    assert got[0] == 0.0 and not np.signbit(got[0])


def test_degenerate_triangle_error_keeps_its_index(tmp_path):
    # vertex 3 sits on vertex 0, so triangles 1 and 2 have a zero and two tied
    # edge lengths; the error names the first of them
    path = tmp_path / "pinched.off"
    path.write_text(
        "OFF\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n1 1 1\n3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    )
    with pytest.raises(MeshError, match=r"degenerate triangle at index 1: \[0, 3, 1\]"):
        read_off(path)


GROUPS = {
    "trivial": lambda: build_sphere_mesh(2, "trivial")[1],
    "antipodal": lambda: build_sphere_mesh(2, "antipodal")[1],
    "dihedral(4)": lambda: build_sphere_mesh(2, "dihedral(4)")[1],
    "torus3-shift": lambda: build_flat_torus_mesh(3, 3, group_kind="shift(1,0)")[1],
    "torus384": lambda: build_flat_torus_mesh(384, 384, group_kind="shift(192,0)+shift(0,192)")[1],
    "escaped-name": lambda: GroupAction(
        'imported "O_h" \\ tab\té☃', np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]]),
        np.zeros(3, dtype=np.int64), np.array([3]),
    ),
    "one-vertex": lambda: GroupAction("one", np.zeros((1, 1), dtype=np.int64),
                                      np.zeros(1, dtype=np.int64), np.array([1])),
}


@pytest.mark.parametrize("name", GROUPS)
def test_group_json_bytes_match_json_dumps(name, tmp_path, sorted_references):
    action = GROUPS[name]()
    write_group_json(action, tmp_path / "new.json")
    sorted_references.group_json(action, tmp_path / "old.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

