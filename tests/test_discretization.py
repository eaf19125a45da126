"""Operator assembly identities and the stabilized exponential functional."""

import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from tmsurf import discretization
from tmsurf.constructions import green
from tmsurf.constructions.green import invariant_shifted_solver
from tmsurf.discretization import (
    DiscretizationError,
    NormParams,
    assemble,
    exp_functional,
    norm_one_alpha,
    orbit_reduction,
    project_invariant_meanzero,
    quadratic_form_sq,
    remove_mass_mean,
)
from tmsurf.geometry import (
    SurfaceMesh,
    build_flat_torus_mesh,
    build_sphere_mesh,
    triangle_areas,
    triangle_corners,
    triangle_edge_sq,
)


def test_stiffness_annihilates_constants(sphere3, torus24):
    for ops in (sphere3.ops, torus24.ops):
        one = np.ones(ops.n)
        r = ops.stiffness @ one
        assert np.max(np.abs(r)) < 1e-12
        asym = np.abs((ops.stiffness - ops.stiffness.T).data)
        assert asym.size == 0 or asym.max() < 1e-14


def test_mass_row_sums_are_vertex_areas(sphere3, torus24):
    for ops in (sphere3.ops, torus24.ops):
        rows = np.asarray(ops.mass @ np.ones(ops.n))
        assert np.max(np.abs(rows - ops.lumped)) < 1e-14 * ops.mesh.total_area
        assert abs(ops.lumped.sum() - ops.mesh.total_area) < 1e-12 * ops.mesh.total_area


def _csr_sha256(matrix) -> str:
    matrix = matrix.copy()
    matrix.sort_indices()
    digest = hashlib.sha256()
    for part in (matrix.data, matrix.indices, matrix.indptr):
        digest.update(part.tobytes())
    return digest.hexdigest()


# sha256 of (data, indices, indptr) after sort_indices(), recorded before assembly
# was rewritten to fill preallocated arrays; every later number depends on these bytes
GOLDEN_OPERATORS = {
    "sphere3": ("eada8c6b8dac4edeb4ac8e6bd6b20ff9723fb72fc97ca05c51e96a7588aa729a",
                "5e01f9647465d0cae1d2d13cf4f4d92440b0edf556b1513315a43f18335f0390"),
    "torus12": ("0ef520186fe09927868aa873efe6eb6ada4bd0070dc02d013ec852bc3149d019",
                "76ebf73b4fde8b8140468617ad51bee122d725cf5197419af0229df2a467022c"),
}


def test_operator_golden_bytes(sphere3):
    ops = {"sphere3": sphere3.ops, "torus12": assemble(build_flat_torus_mesh(12, 12)[0])}
    for name, (k_digest, m_digest) in GOLDEN_OPERATORS.items():
        assert _csr_sha256(ops[name].stiffness) == k_digest, name
        assert _csr_sha256(ops[name].mass) == m_digest, name


def _grouped_sorted_sum(keys, values):
    """Per-key sums accumulated in value order: the assembly formula before one
    key sort replaced it."""
    order = np.lexsort((values, keys))
    k, v = keys[order], values[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    return k[starts], np.add.reduceat(v, starts)


@pytest.mark.parametrize("name", ["sphere3", "torus24", "sphere3_dihedral4"])
def test_off_diagonals_match_value_sorted_sums(name, request):
    ops = request.getfixturevalue(name).ops
    mesh, n = ops.mesh, ops.n
    sq = triangle_edge_sq(triangle_corners(mesh))
    area, tri = mesh.face_areas, mesh.triangles
    keys, kvals = [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cot = (sq[:, j] + sq[:, k] - sq[:, i]) / (8.0 * area)
        for a, b in ((j, k), (k, j)):
            keys.append(tri[:, a] * n + tri[:, b])
            kvals.append(-cot)
    keys = np.concatenate(keys)
    uk, ksums = _grouped_sorted_sum(keys, np.concatenate(kvals))
    _, msums = _grouped_sorted_sum(keys, np.tile(area / 12.0, 6))
    for matrix, want in ((ops.stiffness, ksums), (ops.mass, msums)):
        coo = matrix.tocoo()
        off = coo.row != coo.col
        got_keys = coo.row[off].astype(np.int64) * n + coo.col[off]
        order = np.argsort(got_keys)
        assert np.array_equal(got_keys[order], uk)
        assert np.array_equal(coo.data[off][order].view(np.int64), want.view(np.int64))


def _hand_built(verts, tris) -> SurfaceMesh:
    mesh = SurfaceMesh(
        vertices=np.array(verts, dtype=float),
        triangles=np.array(tris, dtype=np.int64),
        vertex_areas=np.zeros(len(verts)),
        face_areas=np.zeros(len(tris)),
        total_area=0.0,
        surface_kind="imported",
    )
    mesh.face_areas = triangle_areas(mesh)
    return mesh


TET_VERTS = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
TET_TRIS = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]


def test_assemble_rejects_meshes_that_are_not_closed():
    assert assemble(_hand_built(TET_VERTS, TET_TRIS)).stiffness.nnz == 16
    # one face missing: three edges bound a single triangle
    with pytest.raises(DiscretizationError, match="not closed"):
        assemble(_hand_built(TET_VERTS, TET_TRIS[:3]))
    # two tetrahedra glued along the edge (0, 1): it bounds four triangles
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0), (0, 0, -1)]
    tris = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2), (0, 4, 1), (0, 1, 5), (0, 5, 4), (1, 4, 5)]
    with pytest.raises(DiscretizationError, match="not closed"):
        assemble(_hand_built(verts, tris))


def test_assembly_transient_memory():
    # the heap peak of assembly stays within 5x the operators it returns
    mesh, _ = build_sphere_mesh(5, "antipodal")
    tracemalloc.start()
    try:
        ops = assemble(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(
        part.nbytes for matrix in (ops.stiffness, ops.mass)
        for part in (matrix.data, matrix.indices, matrix.indptr)
    )
    assert peak <= 5 * returned, peak / returned


def test_orbit_reduction_frees_the_vertex_operators():
    # the orbit space keeps K_r, M_r and the orbit areas, not the vertex K and M
    mesh, action = build_sphere_mesh(3, "antipodal")
    ops = assemble(mesh)
    stiffness, mass = weakref.ref(ops.stiffness), weakref.ref(ops.mass)
    red = orbit_reduction(ops, action)
    del ops
    assert stiffness() is None and mass() is None
    assert red.stiffness.shape == red.mass.shape == (action.n_orbits, action.n_orbits)


def test_orbit_space_trims_the_heap_when_it_builds_or_drops_a_factorization(monkeypatch):
    # the held factorization is dropped before its replacement is built, and
    # the heap is trimmed after every build and every drop, never on a cache hit
    mesh, action = build_sphere_mesh(4, "antipodal")
    red = orbit_reduction(assemble(mesh), action)
    events, held, dropped = [], [], []  # held: a weak reference to the last solver built
    factor = green.invariant_shifted_solver

    def watched(red, alpha):
        dropped.extend(ref() is None for ref in held)
        events.append(("build", alpha))
        solve = factor(red, alpha)
        held[:] = [weakref.ref(solve)]
        return solve

    monkeypatch.setattr(discretization, "_trim_heap", lambda: events.append("trim"))
    monkeypatch.setattr(green, "invariant_shifted_solver", watched)
    red.release()  # nothing held: no build, no trim
    assert events == [] and red.held is None
    trims = []
    for call in (lambda: red.shifted_solver(-0.5), lambda: red.shifted_solver(-0.5),
                 lambda: red.shifted_solver(1.0), red.release):
        before = len(events)
        call()
        trims.append(events[before:].count("trim"))
    assert trims == [1, 0, 2, 1]
    assert events == [("build", -0.5), "trim", "trim", ("build", 1.0), "trim", "trim"]
    assert dropped == [True]  # the alpha = -0.5 solver was dead before the 1.0 build
    assert red.held is None and held[0]() is None


@pytest.mark.parametrize("surface, max_ratio", [("sphere5", 1.0), ("torus128", 0.7)])
def test_nested_dissection_order(surface, max_ratio, request, monkeypatch):
    # one fill-reducing order per orbit space: a permutation, the same on every
    # build, and sparser factors of K_r + 0.5 M_r than SuperLU's COLAMD
    # (measured 0.73x on the level-5 sphere and 0.60x on the 128^2 torus)
    if surface == "sphere5":
        setup = request.getfixturevalue("sphere5")
        ops, action = setup.ops, setup.action
    else:
        mesh, action = build_flat_torus_mesh(128, 128, group_kind="shift(64,0)+shift(0,64)")
        ops = assemble(mesh)
    red = orbit_reduction(ops, action)
    assert np.array_equal(np.sort(red.order), np.arange(red.n))
    assert np.array_equal(orbit_reduction(ops, action).order, red.order)
    factors = []  # the factorization invariant_shifted_solver builds
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factors.append(splu(*a, **k)) or factors[-1])
    invariant_shifted_solver(red, -0.5)
    (held,) = factors
    colamd = splu((red.stiffness + 0.5 * red.mass).tocsc())
    ratio = (held.L.nnz + held.U.nnz) / (colamd.L.nnz + colamd.U.nnz)
    assert ratio < max_ratio, ratio


def test_dirichlet_energy_of_coordinate_function(sphere4_trivial):
    # z restricted to the sphere is an l=1 harmonic: energy 2 * (4 pi / 3)
    ops = sphere4_trivial.ops
    z = ops.mesh.vertices[:, 2]
    energy = float(z @ (ops.stiffness @ z))
    assert abs(energy - 8 * np.pi / 3) / (8 * np.pi / 3) < 5e-3
    mass = float(z @ (ops.mass @ z))
    assert abs(mass - 4 * np.pi / 3) / (4 * np.pi / 3) < 5e-3


def test_torus_fourier_mode_energy(torus24):
    # u = cos(2 pi x): energy 2 pi^2, mass 1/2 on the unit torus; both carry
    # an O(h^2) error of 5.7e-3 at h = 1/24
    ops = torus24.ops
    u = np.cos(2 * np.pi * ops.mesh.vertices[:, 0])
    energy = float(u @ (ops.stiffness @ u))
    assert abs(energy - 2 * np.pi**2) / (2 * np.pi**2) < 1e-2
    assert abs(float(u @ (ops.mass @ u)) - 0.5) < 1e-2


def test_quadratic_form_and_norm(sphere3, rng):
    ops = sphere3.ops
    params = NormParams(alpha=1.5, lambda_gap=sphere3.spectrum.lambda_1)
    u = sphere3.red.expand(project_invariant_meanzero(rng.standard_normal(ops.n), sphere3.red))
    q = quadratic_form_sq(u, ops, params.alpha)
    k = float(u @ (ops.stiffness @ u))
    m = float(u @ (ops.mass @ u))
    assert q == pytest.approx(k - 1.5 * m, rel=1e-12)
    assert q > 0  # alpha below the invariant gap
    assert norm_one_alpha(u, ops, params) == pytest.approx(np.sqrt(q), rel=1e-12)


def test_norm_params_validation():
    with pytest.raises(ValueError):
        NormParams(alpha=6.0, lambda_gap=6.0)


def test_projection_is_idempotent_and_invariant(sphere3, sphere3_dihedral4, rng):
    # a separate generator for the second mesh keeps the shared rng's later draws
    for s, gen in ((sphere3, rng), (sphere3_dihedral4, np.random.default_rng(5))):
        ops, action, red = s.ops, s.action, s.red
        u = gen.standard_normal(ops.n)
        w = project_invariant_meanzero(u, red)
        assert w.shape == (red.n,)
        p = red.expand(w)
        assert abs(float(ops.lumped @ p)) < 1e-12 * ops.mesh.total_area
        for perm in action.permutations:
            assert np.array_equal(p[perm], p)
        # the orbit mean is the group average over the permutation table
        average = remove_mass_mean(u[action.permutations].mean(axis=0), ops)
        assert np.max(np.abs(p - average)) < 1e-14
        p2 = red.expand(project_invariant_meanzero(p, red))
        assert np.max(np.abs(p2 - p)) < 1e-13 * max(1.0, np.max(np.abs(p)))


def test_exp_functional_zero_and_shift_stability(sphere3):
    ops = sphere3.ops
    vol = ops.mesh.total_area
    base = exp_functional(np.zeros(ops.n), 1.0, ops)
    assert base.value == pytest.approx(vol, rel=1e-12)
    assert base.log_value == pytest.approx(np.log(vol), rel=1e-12)
    # one huge sample: value overflows but the log stays finite and exact
    u = np.zeros(ops.n)
    u[0] = 40.0
    big = exp_functional(u, 1.0, ops)
    assert big.value == np.inf
    expected = np.logaddexp(np.log(ops.lumped[0]) + 1600.0, np.log(vol - ops.lumped[0]))
    assert big.log_value == pytest.approx(float(expected), rel=1e-12)


def test_exp_functional_monotone_in_beta(sphere3, rng):
    ops = sphere3.ops
    u = rng.standard_normal(ops.n)
    l1 = exp_functional(u, 0.5, ops).log_value
    l2 = exp_functional(u, 1.0, ops).log_value
    assert l2 > l1
