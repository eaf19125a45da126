"""Shared meshes and operators, built once per session.

The level-4/5 spheres also back the acceptance tests, so building them here
keeps the whole suite to a handful of eigensolves and factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from tmsurf.discretization import FemOperators, assemble
from tmsurf.geometry import GroupAction, SurfaceMesh, build_flat_torus_mesh, build_sphere_mesh
from tmsurf.spectrum import InvariantSpectrum, invariant_spectrum


@dataclass(eq=False)
class Setup:
    mesh: SurfaceMesh
    action: GroupAction
    ops: FemOperators
    spectrum: InvariantSpectrum


def _setup(builder, *args, count=8, **kwargs) -> Setup:
    mesh, action = builder(*args, **kwargs)
    ops = assemble(mesh)
    return Setup(mesh, action, ops, invariant_spectrum(ops, action, count=count))


@pytest.fixture(scope="session")
def sphere3() -> Setup:
    return _setup(build_sphere_mesh, 3, "antipodal")


@pytest.fixture(scope="session")
def sphere3_trivial() -> Setup:
    return _setup(build_sphere_mesh, 3, "trivial")


@pytest.fixture(scope="session")
def sphere3_dihedral4() -> Setup:
    return _setup(build_sphere_mesh, 3, "dihedral(4)", count=12)


@pytest.fixture(scope="session")
def sphere4() -> Setup:
    return _setup(build_sphere_mesh, 4, "antipodal")


@pytest.fixture(scope="session")
def sphere4_trivial() -> Setup:
    return _setup(build_sphere_mesh, 4, "trivial")


@pytest.fixture(scope="session")
def torus24() -> Setup:
    return _setup(build_flat_torus_mesh, 24, 24, count=6)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria table after the run, outside capture."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
