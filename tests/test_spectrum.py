"""Invariant spectra against the separated-variable oracles."""

import numpy as np
import pytest

from tmsurf.spectrum import (
    SpectrumError,
    complement_projector,
    invariant_spectrum,
    rayleigh_quotient,
)


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


def test_eigenvectors_orthonormal_meanzero_invariant(sphere3):
    spec, ops, action = sphere3.spectrum, sphere3.ops, sphere3.action
    E = spec.eigenvectors
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


def test_spectrum_is_deterministic(sphere3):
    again = invariant_spectrum(sphere3.ops, sphere3.action, count=8)
    assert np.array_equal(again.eigenvalues, sphere3.spectrum.eigenvalues)
    assert np.array_equal(again.eigenvectors, sphere3.spectrum.eigenvectors)


def test_count_validation(sphere3):
    with pytest.raises(SpectrumError):
        invariant_spectrum(sphere3.ops, sphere3.action, count=0)
    with pytest.raises(SpectrumError):
        invariant_spectrum(sphere3.ops, sphere3.action, count=10**6)


def test_complement_level_one_is_whole_space(sphere3):
    comp = complement_projector(sphere3.spectrum, 1)
    assert comp.basis.shape == (sphere3.ops.n, 0)
    assert comp.lambda_level == sphere3.spectrum.lambda_1


def test_complement_level_two_removes_first_cluster(sphere3):
    # the projection onto the complement is checked in test_maximizer
    spec = sphere3.spectrum
    comp = complement_projector(spec, 2)
    m1 = spec.groups[0][1]
    assert comp.lambda_level == spec.group_value(2)
    np.testing.assert_array_equal(comp.basis, spec.eigenvectors[:, :m1])


def test_complement_level_out_of_range(sphere3):
    with pytest.raises(SpectrumError):
        complement_projector(sphere3.spectrum, 99)
