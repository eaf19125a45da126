"""Invariant spectra against the separated-variable oracles."""

import numpy as np
import pytest
import scipy.linalg

from tmsurf.constructions import green
from tmsurf.discretization import assemble, orbit_reduction
from tmsurf.geometry import build_sphere_mesh
from tmsurf.maximizer import ProblemSpec
from tmsurf.spectrum import SpectrumError, invariant_spectrum


def test_sphere_trivial_spectrum(sphere3_trivial):
    # l(l+1) ladder: 2 (x3), 6 (x5)
    spec = sphere3_trivial.spectrum
    v1, m1 = spec.groups[0]
    assert abs(v1 - 2.0) / 2.0 < 0.02
    assert m1 == 3
    v2, m2 = spec.groups[1]
    assert abs(v2 - 6.0) / 6.0 < 0.02
    assert m2 == 5


def test_sphere_antipodal_spectrum(sphere3):
    # odd-l harmonics are anti-invariant, so the ladder starts at l = 2
    spec = sphere3.spectrum
    v1, m1 = spec.groups[0]
    assert abs(v1 - 6.0) / 6.0 < 0.02
    assert m1 == 5
    assert spec.lambda_1 == spec.eigenvalues[0]
    assert spec.group_value(1) == v1


def test_torus_spectrum(torus24):
    # 4 pi^2 (|k| = 1 modes, x4)
    v1, m1 = torus24.spectrum.groups[0]
    assert abs(v1 - 4 * np.pi**2) / (4 * np.pi**2) < 0.02
    assert m1 == 4


def test_eigenvectors_orthonormal_meanzero_invariant(sphere3, rayleigh_quotient):
    spec, ops, action = sphere3.spectrum, sphere3.ops, sphere3.action
    assert spec.eigenvectors.shape == (action.n_orbits, len(spec.eigenvalues))
    E = sphere3.red.expand(spec.eigenvectors)
    gram = E.T @ (ops.mass @ E)
    assert np.max(np.abs(gram - np.eye(E.shape[1]))) < 1e-10
    means = ops.lumped @ E
    assert np.max(np.abs(means)) < 1e-10
    for p in action.permutations:
        assert np.array_equal(E[p], E)
    assert np.all(spec.residuals < 1e-8)
    for i in range(E.shape[1]):
        rq = rayleigh_quotient(E[:, i], ops)
        assert rq == pytest.approx(spec.eigenvalues[i], rel=1e-10)


@pytest.mark.parametrize("setup", ["sphere3", "sphere4", "torus24"])
def test_orbit_residuals_and_sign_match_vertex_vectors(request, setup):
    # residuals are computed on orbits; the vertex recomputation of the
    # expanded vectors must agree, and the first argmax vertex is positive
    s = request.getfixturevalue(setup)
    spec, ops = s.spectrum, s.ops
    E = s.red.expand(spec.eigenvectors)
    vertex = np.linalg.norm(ops.stiffness @ E - (ops.mass @ E) * spec.eigenvalues, axis=0)
    np.testing.assert_allclose(spec.residuals, vertex, rtol=1e-2, atol=0)
    peaks = E[np.argmax(np.abs(E), axis=0), np.arange(E.shape[1])]
    assert np.all(peaks > 0)


def test_sparse_path_matches_dense(sphere4_trivial):
    # 2562 orbits take the shift-invert eigsh path on the orbit space's held solver
    red, spec = sphere4_trivial.red, sphere4_trivial.spectrum
    count = len(spec.eigenvalues)
    dense = scipy.linalg.eigh(red.stiffness.toarray(), red.mass.toarray(),
                              subset_by_index=[1, count], eigvals_only=True)
    np.testing.assert_allclose(spec.eigenvalues, dense, rtol=1e-10, atol=0)


def test_spectrum_is_deterministic(sphere3):
    again = invariant_spectrum(sphere3.red, count=8)
    assert np.array_equal(again.eigenvalues, sphere3.spectrum.eigenvalues)
    assert np.array_equal(again.eigenvectors, sphere3.spectrum.eigenvectors)


def test_eigensolve_cost_does_not_hang_on_the_seed(monkeypatch):
    # k = 9 cuts the five-fold l = 4 cluster of the level-6 antipodal sphere;
    # with ARPACK's default 20 Lanczos vectors rng seeds 30 and 37 took 849
    # and 1053 shift-invert solves, against 121 at seed 0
    mesh, action = build_sphere_mesh(6, "antipodal")
    red = orbit_reduction(assemble(mesh), action)
    solves = []
    factor = green.invariant_shifted_solver

    def counted_factor(red, alpha):
        solve = factor(red, alpha)

        def counted(b):
            solves.append(alpha)
            return solve(b)

        return counted

    monkeypatch.setattr(green, "invariant_shifted_solver", counted_factor)
    reference = invariant_spectrum(red, count=8, seed=0).eigenvalues
    for seed in (30, 37):
        solves.clear()
        values = invariant_spectrum(red, count=8, seed=seed).eigenvalues
        assert len(solves) <= 130, (seed, len(solves))
        np.testing.assert_allclose(values, reference, rtol=1e-12, atol=0)


def test_count_validation(sphere3):
    with pytest.raises(SpectrumError):
        invariant_spectrum(sphere3.red, count=0)
    with pytest.raises(SpectrumError):
        invariant_spectrum(sphere3.red, count=10**6)


def _problem(s, level):
    return ProblemSpec(s.red, s.spectrum, level, alpha=0.0, epsilon_sub=2 * np.pi)


def test_complement_level_one_is_whole_space(sphere3):
    spec = _problem(sphere3, 1)
    assert spec.orbit_basis.shape == (sphere3.red.n, 0)
    assert spec.lambda_level == sphere3.spectrum.lambda_1


def test_complement_level_two_removes_first_cluster(sphere3):
    # the projection onto the complement is checked in test_maximizer
    spectrum = sphere3.spectrum
    spec = _problem(sphere3, 2)
    m1 = spectrum.groups[0][1]
    assert spec.lambda_level == spectrum.group_value(2)
    np.testing.assert_array_equal(spec.orbit_basis, spectrum.eigenvectors[:, :m1])


def test_complement_level_out_of_range(sphere3):
    with pytest.raises(SpectrumError):
        _problem(sphere3, 99)
