"""Meshes, exact group actions, geodesics and interchange formats."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from tmsurf import geometry
from tmsurf.constructions.radial import radial_model
from tmsurf.geometry import (
    GroupError,
    MeshError,
    UnsupportedOperation,
    build_flat_torus_mesh,
    build_sphere_mesh,
    check_group_action,
    geodesic_distance,
    group_action,
    mean_edge_length,
    read_group_json,
    read_off,
    triangle_areas,
    write_group_json,
    write_off,
)


def test_icosphere_counts_and_unit_norms():
    for level, nv in ((0, 12), (1, 42), (2, 162), (3, 642)):
        mesh, _ = build_sphere_mesh(level, "trivial")
        assert mesh.n_vertices == nv  # 10*4^L + 2
        assert mesh.n_triangles == 20 * 4**level
        norms = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-15


def test_octasphere_counts():
    mesh, _ = build_sphere_mesh(2, "cyclic(4)")
    assert mesh.n_vertices == 2 + 4 * 4**2
    assert mesh.n_triangles == 8 * 4**2


def test_sphere_area_converges(sphere3):
    assert abs(sphere3.mesh.total_area - 4 * np.pi) / (4 * np.pi) < 5e-3
    coarse, _ = build_sphere_mesh(2, "antipodal")
    err3 = abs(sphere3.mesh.total_area - 4 * np.pi)
    assert err3 < 0.3 * abs(coarse.total_area - 4 * np.pi)  # ~O(h^2)


def test_antipodal_action_is_exact_negation(sphere3):
    mesh, action = sphere3.mesh, sphere3.action
    assert action.order == 2
    flip = action.permutations[1]
    assert np.array_equal(mesh.vertices[flip], -mesh.vertices)
    assert action.min_orbit_size == 2
    assert np.all(action.orbit_sizes == 2)


def test_cyclic4_has_fixed_poles():
    mesh, action = build_sphere_mesh(2, "cyclic(4)")
    assert action.min_orbit_size == 1
    # exactly the two poles are fixed, everything else has a full orbit
    histogram = np.bincount(action.orbit_sizes)
    assert histogram[1] == 2
    assert np.flatnonzero(histogram).tolist() == [1, 4]
    fixed = np.flatnonzero(action.orbit_sizes[action.orbit_index] == 1)
    assert len(fixed) == 2 and np.allclose(np.abs(mesh.vertices[fixed, 2]), 1.0)
    assert action.min_orbit_vertex == fixed[0]


def test_dihedral_group_order():
    _, action = build_sphere_mesh(1, "dihedral(2)")
    assert action.order == 4


def test_unbuilt_kind_names_itself_and_the_built_kinds():
    kinds = r"trivial, antipodal, cyclic\(1\), cyclic\(2\), cyclic\(4\), dihedral\(1\), dihedral\(2\), dihedral\(4\)"
    for kind in ("cyclic(3)", "cyclic(04)", "cyclic(0)", "shift(1,0)"):
        with pytest.raises(GroupError, match=rf"kind '{re.escape(kind)}'; the sphere kinds are {kinds}$"):
            build_sphere_mesh(2, kind)


def test_unknown_group_kind():
    with pytest.raises(GroupError):
        build_sphere_mesh(1, "icosahedral")


def test_vertex_areas_are_group_invariant(sphere3):
    mesh, action = sphere3.mesh, sphere3.action
    for p in action.permutations:
        assert np.array_equal(mesh.vertex_areas[p], mesh.vertex_areas)


def test_triangle_areas_positive(sphere3, torus24):
    for mesh in (sphere3.mesh, torus24.mesh):
        a = triangle_areas(mesh)
        assert np.all(a > 0)
        assert abs(a.sum() / mesh.total_area - 1.0) < 1e-14


def test_sphere_geodesics_exact(sphere3):
    mesh = sphere3.mesh
    d = geodesic_distance(mesh, 0)
    assert d[0] == 0.0
    i_anti = int(np.argmax(d))
    assert abs(d[i_anti] - np.pi) < 1e-12
    assert np.array_equal(mesh.vertices[i_anti], -mesh.vertices[0])
    # mirrored source gives the bitwise-identical distance field
    flip = sphere3.action.permutations[1]
    d2 = geodesic_distance(mesh, i_anti)
    assert np.array_equal(d2, d[flip])


def test_torus_geodesics_wrap(torus24):
    mesh = torus24.mesh
    d = geodesic_distance(mesh, 0)
    assert d.max() <= np.sqrt(2.0) / 2.0 + 1e-15
    # neighbor across the periodic seam is one grid step away
    nx, ny = mesh.grid_shape
    last_col = (nx - 1) * ny
    assert abs(d[last_col] - 1.0 / nx) < 1e-15


def test_torus_translation_orbits():
    _, action = build_flat_torus_mesh(24, 24, group_kind="shift(12,0)+shift(0,12)")
    assert action.order == 4
    assert action.min_orbit_size == 4
    assert np.all(action.orbit_sizes == 4)


def test_torus_bad_shift_rejected():
    with pytest.raises(GroupError, match="shift\\(7,0\\)"):
        build_flat_torus_mesh(24, 24, group_kind="shift(7,0)")


def test_torus_too_small():
    with pytest.raises(MeshError):
        build_flat_torus_mesh(2, 8)


def test_max_radius_and_mean_edge(sphere3, torus24):
    assert radial_model(sphere3.mesh).max_rho == np.pi
    assert radial_model(torus24.mesh).max_rho == 0.5
    # per triangle two grid sides of 1/24 and one diagonal of sqrt(2)/24
    want = (2 + np.sqrt(2)) / (3 * 24)
    assert mean_edge_length(torus24.mesh) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize(
    "build",
    [lambda: build_flat_torus_mesh(128, 128), lambda: build_sphere_mesh(5, "antipodal")],
    ids=["torus128", "sphere5"],
)
def test_mean_edge_length_transient(build):
    # one side at a time: the lengths themselves (3m floats) plus per-side temporaries
    mesh, _ = build()
    tracemalloc.start()
    try:
        mean_edge_length(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 3 * mesh.n_triangles * 8


@pytest.mark.parametrize(
    "build",
    [lambda: build_flat_torus_mesh(128, 128), lambda: build_sphere_mesh(5, "antipodal")],
    ids=["torus128", "sphere5"],
)
def test_read_off_transient(tmp_path, build):
    # the file's bytes, a flag per byte, the token offsets and the mesh checks
    # read 10.0x and 8.0x the file size; a Python str per token read 19.9x and 14.6x
    mesh, _ = build()
    path = tmp_path / "m.off"
    write_off(mesh, path)
    tracemalloc.start()
    try:
        read_off(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * path.stat().st_size, peak / path.stat().st_size


def test_triangle_check_matches_row_sort():
    """The key test accepts exactly the permutations a sorted-row comparison accepts."""
    mesh, action = build_sphere_mesh(2, "dihedral(4)")
    tris = mesh.triangles

    def rows(t):
        t = np.sort(t, axis=1)
        return t[np.lexsort(t.T[::-1])]

    rng = np.random.default_rng(7)
    candidates = list(action.permutations) + [rng.permutation(mesh.n_vertices)]
    for p in action.permutations[1:]:
        q = p.copy()
        i, j = rng.choice(len(q), 2, replace=False)
        q[[i, j]] = q[[j, i]]
        candidates.append(q)
    verdicts = []
    for p in candidates:
        try:
            geometry._check_triangle_equivariance(tris, p[None], "x")
            verdicts.append(True)
        except GroupError:
            verdicts.append(False)
        assert verdicts[-1] == np.array_equal(rows(tris), rows(p[tris]))
    assert verdicts.count(True) == action.order


def test_off_round_trip_sphere(tmp_path, sphere3):
    path = tmp_path / "s.off"
    write_off(sphere3.mesh, path)
    back = read_off(path)
    assert back.surface_kind == "sphere"
    assert back.level == 3
    assert np.array_equal(back.vertices, sphere3.mesh.vertices)
    assert np.array_equal(back.triangles, sphere3.mesh.triangles)
    assert np.array_equal(back.vertex_areas, sphere3.mesh.vertex_areas)
    # the named action can be rebuilt on the re-import
    action = group_action(back, "antipodal")
    assert np.array_equal(action.permutations, sphere3.action.permutations)


def test_off_round_trip_torus(tmp_path):
    mesh, act = build_flat_torus_mesh(12, 16, periods=(2.0, 1.0), group_kind="shift(6,0)")
    path = tmp_path / "t.off"
    write_off(mesh, path)
    back = read_off(path)
    assert back.surface_kind == "torus"
    assert back.grid_shape == (12, 16)
    assert back.periods == (2.0, 1.0)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert back.grid_shape == mesh.grid_shape
    action = group_action(back, "shift(6,0)")
    assert np.array_equal(action.permutations, act.permutations)


def _assert_off_bytes_match(mesh, tmp_path, off_reference):
    write_off(mesh, tmp_path / "new.off")
    off_reference(mesh, tmp_path / "ref.off")
    assert (tmp_path / "new.off").read_bytes() == (tmp_path / "ref.off").read_bytes()


@pytest.mark.parametrize("kind", ["trivial", "antipodal", "cyclic(4)", "dihedral(4)"])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_write_off_bytes_sphere(tmp_path, off_reference, level, kind):
    # levels 2 and 3 carry vertex indices across 9/10 and 99/100
    _assert_off_bytes_match(build_sphere_mesh(level, kind)[0], tmp_path, off_reference)


@pytest.mark.parametrize(
    "shape, periods",
    [((3, 3), (1.0, 1.0)), ((37, 38), (1.0, 1.0)), ((24, 24), (1.0, 2.5))],
    ids=["3x3", "37x38", "24x24-periods"],
)
def test_write_off_bytes_torus(tmp_path, off_reference, shape, periods):
    # the 37x38 grid also carries vertex indices across 999/1000
    _assert_off_bytes_match(build_flat_torus_mesh(*shape, periods=periods)[0], tmp_path, off_reference)


def test_write_off_bytes_repr_notation(tmp_path, off_reference):
    # values around which repr switches between fixed and exponent notation,
    # the smallest subnormal, and a negative zero that must keep its sign
    path = tmp_path / "odd.off"
    path.write_text(
        "OFF\n4 4 0\n-0.0 5e-324 0.1\n1e16 0.0 1e-05\n0.0 1e16 1e15\n0.0001 -0.0 -1e16\n"
        "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    )
    mesh = read_off(path)
    assert np.signbit(mesh.vertices[0, 0]) and mesh.vertices[0, 1] == 5e-324
    _assert_off_bytes_match(mesh, tmp_path, off_reference)
    assert (tmp_path / "new.off").read_text().splitlines()[2:6] == [
        "-0.0 5e-324 0.1", "1e+16 0.0 1e-05", "0.0 1e+16 1000000000000000.0", "0.0001 -0.0 -1e+16",
    ]


@pytest.mark.parametrize("rows", [2, 3, 4])
def test_write_off_bytes_block_edges(tmp_path, off_reference, monkeypatch, rows):
    # row counts one below, at and one above the block size
    monkeypatch.setattr(geometry, "_OFF_BLOCK_ROWS", 3)
    mesh, _ = build_sphere_mesh(0, "trivial")
    _assert_off_bytes_match(mesh, tmp_path, off_reference)
    part = geometry.SurfaceMesh(
        mesh.vertices[:rows], mesh.triangles[:rows] % rows, mesh.vertex_areas[:rows],
        mesh.face_areas[:rows], mesh.total_area, "imported",
    )
    _assert_off_bytes_match(part, tmp_path, off_reference)


def test_off_rejects_open_mesh(tmp_path):
    path = tmp_path / "open.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n")
    with pytest.raises(MeshError, match="closed"):
        read_off(path)


def test_off_rejects_non_off(tmp_path):
    path = tmp_path / "x.off"
    path.write_text("PLY\n")
    with pytest.raises(MeshError):
        read_off(path)


def test_imported_mesh_has_no_radial_structure(tmp_path, sphere3):
    path = tmp_path / "anon.off"
    write_off(sphere3.mesh, path)
    text = path.read_text()
    path.write_text("\n".join(l for l in text.splitlines() if not l.startswith("#")) + "\n")
    mesh = read_off(path)
    assert mesh.surface_kind == "imported"
    with pytest.raises(UnsupportedOperation):
        geodesic_distance(mesh, 0)
    # the trivial action still applies, so FEM-only workflows remain usable
    action = group_action(mesh, "trivial")
    assert action.order == 1


def test_group_json_round_trip(tmp_path, sphere3):
    path = tmp_path / "g.json"
    write_group_json(sphere3.action, path)
    back = read_group_json(path, sphere3.mesh.n_vertices)
    assert back.order == 2
    assert np.array_equal(back.permutations, sphere3.action.permutations)
    assert np.array_equal(back.orbit_index, sphere3.action.orbit_index)


def test_group_json_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "permutations": [[0, 0, 1]]}')
    with pytest.raises(GroupError, match="not a permutation"):
        read_group_json(path)
    path.write_text('{"name": "x", "permutations": [[0, 1, 2]]}')
    with pytest.raises(GroupError, match="act on 3"):
        read_group_json(path, n_vertices=5)


# each row would load as the swap (1, 0, 2) if numpy converted its entries
@pytest.mark.parametrize(
    "row", ["[1, 0, 2.0]", "[1.5, 0.2, 2]", "[true, false, 2]", '["1", "0", "2"]', "[1, 0, 2e0]"],
    ids=["integral-float", "floats", "booleans", "strings", "exponent"],
)
def test_group_json_takes_only_json_integers(tmp_path, row):
    path = tmp_path / "g.json"
    path.write_text('{"permutations": [[0, 1, 2], ' + row + "]}")
    with pytest.raises(GroupError, match="JSON integers"):
        read_group_json(path, n_vertices=3)


def test_decimal_words_table_is_shared_and_read_only():
    words = geometry._decimal_words(1234)
    assert geometry._decimal_words(1234) is words
    assert not words.flags.writeable


# sha256 of the exports of a level-2 antipodal sphere and a 6x8 shift(3,0)
# torus; the OFF and JSON writers must keep producing exactly these bytes.
GOLDEN_SHA256 = {
    "sphere.off": "0b33bd2575e875b8675165e7a5fe9db0b8aed15160012941852ab894788e90d6",
    "sphere.json": "f57d5aa4a5fbf5c4a75ad0049ab72baacd04b7e21f6092df27382f992425711d",
    "torus.off": "ccf0e2e2133695a1f5b4c5630520bd6017ed4ddd3f229ad314353401b7c3a8f8",
    "torus.json": "fc90a859194b7f2f749797835b73be0fad3031349ffdbed90be477cf2a900287",
}


def test_export_golden_bytes(tmp_path):
    built = {
        "sphere": build_sphere_mesh(2, "antipodal"),
        "torus": build_flat_torus_mesh(6, 8, group_kind="shift(3,0)"),
    }
    for name, (mesh, action) in built.items():
        write_off(mesh, tmp_path / f"{name}.off")
        write_group_json(action, tmp_path / f"{name}.json")
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name



# Leading 16 hex digits of the sha256 of each built-in sphere kind's mesh
# (vertex then triangle bytes) and of its permutation table, per level.
KIND_SHA256 = {
    ("trivial", 0): ("02d31445f61d6df5", "700a4498438a801b"),
    ("trivial", 1): ("e0a75d28159c17be", "9eb9d21600526db7"),
    ("trivial", 2): ("6d1442a2a7114b2e", "2cac535a01116f43"),
    ("trivial", 3): ("1098b34d47936e41", "ecc70a9941abf594"),
    ("antipodal", 0): ("02d31445f61d6df5", "b93c503d8a0d169f"),
    ("antipodal", 1): ("e0a75d28159c17be", "16a8e2fb3d3e6612"),
    ("antipodal", 2): ("6d1442a2a7114b2e", "5911509bbf856ae4"),
    ("antipodal", 3): ("1098b34d47936e41", "7689dd9bc15f939f"),
    ("cyclic(1)", 0): ("29a91dfcf31d8868", "f190072c5052f4f4"),
    ("cyclic(1)", 1): ("d20f092fee456330", "1a053915ce243538"),
    ("cyclic(1)", 2): ("0caa58e954432f62", "73cb2b2808079f17"),
    ("cyclic(1)", 3): ("400a4ce69e536ef5", "1ff5fb2e8e7c04a8"),
    ("cyclic(2)", 0): ("29a91dfcf31d8868", "8102a951badb7452"),
    ("cyclic(2)", 1): ("d20f092fee456330", "53554f120afa56a5"),
    ("cyclic(2)", 2): ("0caa58e954432f62", "bf56e5c86f3f06a9"),
    ("cyclic(2)", 3): ("400a4ce69e536ef5", "452ac39ce91a1b45"),
    ("cyclic(4)", 0): ("29a91dfcf31d8868", "6870aa7ab265f058"),
    ("cyclic(4)", 1): ("d20f092fee456330", "d3ba09c537a87be0"),
    ("cyclic(4)", 2): ("0caa58e954432f62", "2eba536981ca7e84"),
    ("cyclic(4)", 3): ("400a4ce69e536ef5", "fbd256e545bb84ff"),
    ("dihedral(1)", 0): ("29a91dfcf31d8868", "892d008c82ee23b8"),
    ("dihedral(1)", 1): ("d20f092fee456330", "6091ce65f50c238b"),
    ("dihedral(1)", 2): ("0caa58e954432f62", "4a02eda57fd16ef1"),
    ("dihedral(1)", 3): ("400a4ce69e536ef5", "5cbb068b62036035"),
    ("dihedral(2)", 0): ("29a91dfcf31d8868", "8f8f2ffdce9a1119"),
    ("dihedral(2)", 1): ("d20f092fee456330", "16dc7d99a3e0b8ff"),
    ("dihedral(2)", 2): ("0caa58e954432f62", "f1bb8efee6ef788d"),
    ("dihedral(2)", 3): ("400a4ce69e536ef5", "82a849f025d2caf7"),
    ("dihedral(4)", 0): ("29a91dfcf31d8868", "feb3e0dada66d068"),
    ("dihedral(4)", 1): ("d20f092fee456330", "fa3e69b49d9a6f4c"),
    ("dihedral(4)", 2): ("0caa58e954432f62", "a1349abb9d9f3462"),
    ("dihedral(4)", 3): ("400a4ce69e536ef5", "1126a0607eca5345"),
}


@pytest.mark.parametrize("kind, level", KIND_SHA256, ids=[f"{k}-{lv}" for k, lv in KIND_SHA256])
def test_sphere_kind_golden_bytes(kind, level):
    mesh, action = build_sphere_mesh(level, kind)
    mesh_hash = hashlib.sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes()).hexdigest()
    perms_hash = hashlib.sha256(action.permutations.tobytes()).hexdigest()
    assert (mesh_hash[:16], perms_hash[:16]) == KIND_SHA256[kind, level]

def _messy_off(clean: str) -> bytes:
    """The same OFF with comment lines, trailing comments, tabs and CRLF endings.

    A torus comment goes in first, so the sphere comment after it must win.
    """
    lines = clean.splitlines()
    messy = [lines[0], "# torus periods 2.0 3.0"]
    for k, line in enumerate(lines[1:], start=1):
        if k >= 3 and k % 5 == 0:
            messy.append("#\tcomment between data lines")
        line = line.replace(" ", "\t " if k % 2 else "  ")
        if k >= 3 and k % 3 == 0:
            line += "  # trailing note 1 2 3"
        messy.append(line)
    return ("\r\n".join(messy) + "\r\n").encode()


def test_off_comments_and_whitespace(tmp_path, sphere3):
    clean, messy = tmp_path / "clean.off", tmp_path / "messy.off"
    write_off(sphere3.mesh, clean)
    messy.write_bytes(_messy_off(clean.read_text()))
    a, b = read_off(clean), read_off(messy)
    assert (b.surface_kind, b.level) == (a.surface_kind, a.level) == ("sphere", 3)
    for field in ("vertices", "triangles", "vertex_areas", "face_areas"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_off_rejects_edge_shared_four_times(tmp_path):
    # two closed tetrahedra glued along the edge (0, 1): every edge count is
    # even, but that edge bounds four triangles
    verts = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 -1 0\n0 0 -1\n"
    faces = ["0 1 2", "0 3 1", "0 2 3", "1 3 2", "0 4 1", "0 1 5", "0 5 4", "1 4 5"]
    path = tmp_path / "glued.off"
    path.write_text("OFF\n6 8 0\n" + verts + "".join(f"3 {f}\n" for f in faces))
    with pytest.raises(MeshError, match="not closed"):
        read_off(path)


def test_vertex_permutations_match_row_lookup():
    """The sorted-row search gives what a per-vertex dictionary lookup gives."""
    mesh, _ = build_sphere_mesh(2, "dihedral(4)")
    mats = geometry._SPHERE_GROUPS["dihedral(4)"][1]
    perms = geometry._vertex_permutations(mesh.vertices, mats, "dihedral(4)")
    table = {row.tobytes(): i for i, row in enumerate(mesh.vertices)}
    assert len(perms) == len(mats) == 2
    for perm, mat in zip(perms, mats):
        image = mesh.vertices @ mat.T.astype(float) + 0.0
        assert perm.tolist() == [table[row.tobytes()] for row in image]


def test_vertex_permutations_reject_a_map_that_is_not_a_bijection():
    # two equal rows both find the first of them, so vertex 0 is hit twice
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(GroupError, match="offending generator g:0: vertex map is not a bijection"):
        geometry._vertex_permutations(verts, [np.eye(3, dtype=np.int64)], "g")


@pytest.mark.parametrize("kind, count", [("antipodal", 1), ("dihedral(4)", 2)])
def test_sphere_kinds_match_only_their_generators(monkeypatch, kind, count):
    matched = []
    match = geometry._vertex_permutations

    def counting(verts, mats, name):
        matched.append(len(mats))
        return match(verts, mats, name)

    monkeypatch.setattr(geometry, "_vertex_permutations", counting)
    build_sphere_mesh(2, kind)
    assert matched == [count]


def _matrix_closure(gens):
    """Every product of the 3x3 integer matrices ``gens``, one per element."""
    elems = {np.eye(3, dtype=np.int64).tobytes(): np.eye(3, dtype=np.int64)}
    frontier = list(elems.values())
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = a @ g
                if b.tobytes() not in elems:
                    elems[b.tobytes()] = b
                    fresh.append(b)
        frontier = fresh
    return list(elems.values())


_CYCLE = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
_SWAP_XY = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)


@pytest.mark.parametrize("level, base, gens, order", [
    # O_h, the 48 signed permutation matrices, on the octahedral base
    (3, "cyclic(4)", [_CYCLE, _SWAP_XY, np.diag([-1, 1, 1])], 48),
    # T_h, order 24, on the icosphere
    (2, "trivial", [_CYCLE, np.diag([-1, -1, 1]), -np.eye(3, dtype=np.int64)], 24),
], ids=["Oh", "Th"])
def test_generator_closure_matches_per_element_matching(tmp_path, level, base, gens, order):
    mesh, _ = build_sphere_mesh(level, base)
    closed = geometry._close(geometry._vertex_permutations(mesh.vertices, gens, "g"), 48)
    reference = geometry._vertex_permutations(mesh.vertices, _matrix_closure(gens), "g")
    assert len(closed) == len(reference) == order
    assert closed.tolist() == sorted(reference.tolist())  # lexicographic, identity first
    actions = []
    for name, table in (("closed", closed), ("reference", reference)):
        path = tmp_path / f"{name}.json"
        write_group_json(geometry.GroupAction(name, table, *geometry._orbits_from_perms(table)), path)
        actions.append(read_group_json(path, mesh.n_vertices))
        check_group_action(mesh, actions[-1])
    new, old = actions
    np.testing.assert_array_equal(new.orbit_index, old.orbit_index)
    np.testing.assert_array_equal(new.orbit_sizes, old.orbit_sizes)
    assert new.min_orbit_size == old.min_orbit_size == 6


def test_runaway_closure_stops_one_past_the_table(monkeypatch):
    # a random permutation with the antipodal pair generates a huge group;
    # the closure must give up once it holds more rows than the table has
    mesh, action = build_sphere_mesh(2, "antipodal")
    table = np.vstack([action.permutations, np.random.default_rng(5).permutation(mesh.n_vertices)])
    held = []
    find = geometry._find

    def counting(rows, index, row):
        held.append(len(rows))
        return find(rows, index, row)

    monkeypatch.setattr(geometry, "_find", counting)
    imported = geometry.GroupAction("runaway", table, *geometry._orbits_from_perms(table))
    with pytest.raises(GroupError, match="not closed under composition: .* more than 3 permutations"):
        check_group_action(mesh, imported)
    assert max(held) == len(table)  # so at most len(table) + 1 rows were ever built


def test_nudged_vertex_breaks_point_group(tmp_path):
    mesh, _ = build_sphere_mesh(2, "antipodal")
    path = tmp_path / "s.off"
    write_off(mesh, path)
    lines = path.read_text().splitlines()
    row = 3 + 17  # vertex 17
    x, y, z = map(float, lines[row].split())
    lines[row] = f"{float(np.nextafter(x, np.inf))!r} {y!r} {z!r}"
    path.write_text("\n".join(lines) + "\n")
    nudged = read_off(path)
    with pytest.raises(GroupError, match="is not a mesh vertex"):
        group_action(nudged, "antipodal")
