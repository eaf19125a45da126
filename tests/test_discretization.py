"""Operator assembly identities and the stabilized exponential functional."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from tmsurf.discretization import (
    NormParams,
    assemble,
    exp_functional,
    norm_one_alpha,
    project_invariant_meanzero,
    quadratic_form_sq,
)
from tmsurf.geometry import build_flat_torus_mesh, build_sphere_mesh


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
    u = project_invariant_meanzero(rng.standard_normal(ops.n), ops, sphere3.action)
    q = quadratic_form_sq(u, ops, params.alpha)
    k = float(u @ (ops.stiffness @ u))
    m = float(u @ (ops.mass @ u))
    assert q == pytest.approx(k - 1.5 * m, rel=1e-12)
    assert q > 0  # alpha below the invariant gap
    assert norm_one_alpha(u, ops, params) == pytest.approx(np.sqrt(q), rel=1e-12)


def test_norm_params_validation():
    with pytest.raises(ValueError):
        NormParams(alpha=6.0, lambda_gap=6.0)
    with pytest.raises(ValueError):
        NormParams(alpha=0.0, lambda_gap=6.0, beta=0.0)


def test_projection_is_idempotent_and_invariant(sphere3, rng):
    ops, action = sphere3.ops, sphere3.action
    u = rng.standard_normal(ops.n)
    p = project_invariant_meanzero(u, ops, action)
    assert abs(float(ops.lumped @ p)) < 1e-12 * ops.mesh.total_area
    for perm in action.permutations:
        assert np.array_equal(p[perm], p)
    p2 = project_invariant_meanzero(p, ops, action)
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
