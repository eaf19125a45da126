"""Shared meshes and orbit spaces, built once per session, and test oracles.

The level-4/5 spheres also back the acceptance tests, so building them here
keeps the whole suite to a handful of eigensolves and factorizations.  Each
fixture's orbit reduction is built once and passed to the solver layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from tmsurf._sums import segment_sorted_sum
from tmsurf.discretization import (
    FemOperators,
    OrbitReduction,
    assemble,
    exp_functional,
    orbit_reduction,
    quadratic_form_sq,
)
from tmsurf.geometry import GroupAction, SurfaceMesh, build_flat_torus_mesh, build_sphere_mesh
from tmsurf.spectrum import InvariantSpectrum, invariant_spectrum


@dataclass(eq=False)
class Setup:
    mesh: SurfaceMesh
    action: GroupAction
    red: OrbitReduction
    spectrum: InvariantSpectrum

    @property
    def ops(self) -> FemOperators:
        return self.red.ops


def _setup(builder, *args, count=8, **kwargs) -> Setup:
    mesh, action = builder(*args, **kwargs)
    red = orbit_reduction(assemble(mesh), action)
    return Setup(mesh, action, red, invariant_spectrum(red, count=count))


@dataclass(frozen=True)
class BubbleProfile:
    """The planar concentration profile phi(y) = -(1/4*pi*ell) * log(1 + pi*ell*|y|^2)."""

    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"orbit constant must be a positive integer, got {self.ell}")

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return -np.log1p(np.pi * self.ell * rho * rho) / (4.0 * np.pi * self.ell)


def bubble_integral_closed(ell: int, radius: float) -> float:
    """Closed form (1/ell) * (1 - 1/(1 + pi*ell*R^2)) of the disk integral of exp(8*pi*ell*phi)."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    t = np.pi * ell * radius * radius
    return float(t / (1.0 + t) / ell)


def bubble_integral_quad(ell: int, radius: float) -> float:
    """Adaptive-quadrature value of the disk integral of exp(8*pi*ell*phi)."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    phi = BubbleProfile(ell)

    def integrand(rho):
        return 2.0 * np.pi * rho * np.exp(8.0 * np.pi * ell * phi(rho))

    # integrand decays like rho^-3; split at the unit scale so quad resolves
    # both the bump near 1/sqrt(pi*ell) and the long tail
    split = min(radius, 1.0)
    total, err = quad(integrand, 0.0, split, epsabs=1e-13, epsrel=1e-12)
    if radius > split:
        tail, terr = quad(integrand, split, radius, epsabs=1e-13, epsrel=1e-12, limit=200)
        total, err = total + tail, err + terr
    return float(total)


@pytest.fixture(scope="session")
def bubble_profile():
    """The planar bubble, as a class of ``ell``."""
    return BubbleProfile


@pytest.fixture(scope="session")
def bubble_integral():
    """The closed-form bubble mass on a disk of radius R, approaching 1/ell."""
    return bubble_integral_closed


@pytest.fixture(scope="session")
def bubble_quad():
    """The quadrature oracle that the closed-form bubble mass is checked against."""
    return bubble_integral_quad


def rayleigh_quotient_of(u: np.ndarray, ops: FemOperators) -> float:
    """u.K u / u.M u of a nonzero vector."""
    denom = float(u @ (ops.mass @ u))
    assert denom > 0, "Rayleigh quotient of the zero vector"
    return float(u @ (ops.stiffness @ u)) / denom


def alpha_failure_table(ops: FemOperators, eigvec: np.ndarray, alpha: float, t_grid,
                        beta: float = 1.0) -> list:
    """Feasibility-vs-growth table for t * e_j at the critical shift alpha = lambda_j.

    The shifted quadratic form of t*e_j is t^2 (lambda_j - alpha) <= 0 + round-off,
    so every t is feasible for the ball constraint while the functional grows
    without bound; (log value - log Vol)/t^2 is non-decreasing in t by
    convexity of t^2 -> log int e^(t^2 g).
    """
    rows = []
    vol = ops.mesh.total_area
    for t in np.asarray(t_grid, dtype=float):
        q = quadratic_form_sq(t * eigvec, ops, alpha)
        val = exp_functional(t * eigvec, beta, ops)
        rows.append(
            {
                "t": float(t),
                "shifted_form": float(q),
                "feasible": bool(q <= 1.0 + 1e-9),
                "log_value": val.log_value,
                "growth_rate": float((val.log_value - np.log(vol)) / t**2) if t else 0.0,
            }
        )
    return rows


def write_off_reference(mesh: SurfaceMesh, path) -> None:
    """The OFF writer as one %-format per block: the bytes `write_off` must match."""
    header = "OFF\n"
    if mesh.surface_kind == "torus":
        header += f"# torus periods {mesh.periods[0]!r} {mesh.periods[1]!r}\n"
    elif mesh.surface_kind == "sphere":
        header += "# sphere" + (f" level {mesh.level}" if mesh.level is not None else "") + "\n"
    header += f"{mesh.n_vertices} {mesh.n_triangles} 0\n"
    coords = mesh.vertices if mesh.vertices.shape[1] == 3 else np.c_[mesh.vertices, np.zeros(mesh.n_vertices)]
    with open(path, "w") as fh:
        fh.write(header)
        # %r of a float is its shortest round-trip repr
        fh.write(("%r %r %r\n" * mesh.n_vertices) % tuple(coords.ravel().tolist()))
        fh.write(("3 %d %d %d\n" * mesh.n_triangles) % tuple(mesh.triangles.ravel().tolist()))


def triangle_corners_reference(mesh: SurfaceMesh) -> np.ndarray:
    """Corner coordinates with the torus wrap done on (m, 3, 2) int64 arrays."""
    if mesh.surface_kind == "torus":
        nx, ny = mesh.grid_shape
        gi = np.stack(np.divmod(mesh.triangles, ny), axis=-1)  # row-major vertex numbering
        wrap = np.array([nx, ny])
        d = (gi - gi[:, :1, :] + wrap // 2) % wrap - wrap // 2
        return d * np.array([mesh.periods[0] / nx, mesh.periods[1] / ny])
    return mesh.vertices[mesh.triangles]


def triangle_edge_sq_reference(corners: np.ndarray) -> np.ndarray:
    """Squared edge lengths with the coordinate squares summed after a row sort."""
    d = np.stack(
        [corners[:, 2] - corners[:, 1], corners[:, 0] - corners[:, 2], corners[:, 1] - corners[:, 0]],
        axis=1,
    )
    return np.sort(d * d, axis=-1).sum(axis=-1)


def triangle_areas_reference(mesh: SurfaceMesh) -> np.ndarray:
    """Heron's formula on row-sorted squared edge lengths."""
    sq = np.sort(triangle_edge_sq_reference(triangle_corners_reference(mesh)), axis=1)
    c, b, a = np.sqrt(sq[:, 0]), np.sqrt(sq[:, 1]), np.sqrt(sq[:, 2])
    prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return 0.25 * np.sqrt(np.clip(prod, 0.0, None))


def _cotangent_weights_reference(mesh: SurfaceMesh) -> np.ndarray:
    sq = triangle_edge_sq_reference(triangle_corners_reference(mesh))
    cot_w = np.empty_like(sq)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cot_w[:, i] = (sq[:, j] + sq[:, k] - sq[:, i]) / (8.0 * mesh.face_areas)
    return cot_w


def dirichlet_energies_reference(u: np.ndarray, mesh: SurfaceMesh) -> np.ndarray:
    """Per-triangle Dirichlet energies with the three terms summed after a row sort."""
    terms = _cotangent_weights_reference(mesh)
    tri = mesh.triangles
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        terms[:, i] *= (u[tri[:, j]] - u[tri[:, k]]) ** 2
    return np.sort(terms, axis=1).sum(axis=1)


def operators_reference(mesh: SurfaceMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Stiffness and mass matrices built through COO -> CSR, each with its own pattern."""
    cot_w = _cotangent_weights_reference(mesh)
    area, tri = mesh.face_areas, mesh.triangles
    n, m = mesh.n_vertices, len(tri)
    keys, kvals = [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for a, b in ((j, k), (k, j)):
            keys.append(tri[:, a] * n + tri[:, b])
            kvals.append(-cot_w[:, i])
    keys, kvals = np.concatenate(keys), np.concatenate(kvals)
    order = np.argsort(keys, kind="stable")
    first, second = order[0::2], order[1::2]
    uk = keys[first]
    ksums = kvals[first] + kvals[second]
    msums = (area / 12.0)[first % m] + (area / 12.0)[second % m]
    kdiag = segment_sorted_sum(tri.T[[1, 2, 0, 2, 0, 1]], np.tile(cot_w.T, (2, 1)), n)
    mdiag = mass_diagonal_reference(mesh)
    rows = np.concatenate([uk // n, np.arange(n)])
    cols = np.concatenate([uk % n, np.arange(n)])
    return tuple(
        sp.csr_matrix((np.concatenate(parts), (rows, cols)), shape=(n, n))
        for parts in ((ksums, kdiag), (msums, mdiag))
    )


def _grid_index(mesh: SurfaceMesh) -> np.ndarray:
    """(n, 2) grid cells of the torus vertices, as the builders once stored them."""
    return np.stack(np.divmod(np.arange(mesh.n_vertices), mesh.grid_shape[1]), axis=1)


def canonical_normalize_reference(points: np.ndarray) -> np.ndarray:
    """Points scaled to unit norm, their three squares summed after a row sort."""
    sq = np.sort(points * points, axis=-1)
    return points / np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])[..., None] + 0.0


def geodesic_reference(mesh: SurfaceMesh, source: int) -> np.ndarray:
    """Sphere: row-sorted dot products; torus: stored grid cells, ties wrapped to +."""
    if mesh.surface_kind == "sphere":
        dots = np.sort(mesh.vertices * mesh.vertices[source], axis=-1).sum(axis=-1)
        return np.arccos(np.clip(dots, -1.0, 1.0))
    gi = _grid_index(mesh)
    nx, ny = mesh.grid_shape
    a, b = mesh.periods
    di = (gi[:, 0] - gi[source, 0]) % nx
    dj = (gi[:, 1] - gi[source, 1]) % ny
    di = np.where(di > nx - di, di - nx, di)
    dj = np.where(dj > ny - dj, dj - ny, dj)
    dx, dy = di * (a / nx), dj * (b / ny)
    sq = np.sort(np.stack([dx * dx, dy * dy], axis=1), axis=1)
    return np.sqrt(sq[:, 0] + sq[:, 1])


def edge_sq_reference(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared lengths of the edges (u[i], v[i]); tori fold |d| to min(|d|, n - |d|)."""
    sq = np.zeros(len(u))
    if mesh.surface_kind == "torus":
        gi = _grid_index(mesh)
        for k, n in enumerate(mesh.grid_shape):
            d = np.abs(gi[v, k] - gi[u, k])
            sq += (np.minimum(d, n - d) * (mesh.periods[k] / n)) ** 2
    else:
        for col in mesh.vertices.T:
            sq += (col[v] - col[u]) ** 2
    return sq


def displacements_reference(mesh: SurfaceMesh, source: int, sel: np.ndarray) -> np.ndarray:
    """Vertices ``sel`` minus ``source``, wrapped on both grid axes at once on tori."""
    if mesh.surface_kind == "torus":
        nx, ny = mesh.grid_shape
        gi = _grid_index(mesh)
        d = gi[sel] - gi[source]
        d = (d + [nx // 2, ny // 2]) % [nx, ny] - [nx // 2, ny // 2]
        return d * np.array([mesh.periods[0] / nx, mesh.periods[1] / ny])
    return mesh.vertices[sel] - mesh.vertices[source]


def mass_diagonal_reference(mesh: SurfaceMesh) -> np.ndarray:
    """Value-sorted sum of area/6 over the triangles at each vertex."""
    return segment_sorted_sum(mesh.triangles, np.repeat(mesh.face_areas / 6.0, 3), mesh.n_vertices)


def is_permutation_reference(row: np.ndarray) -> bool:
    """Whether the sorted row is 0..len(row)-1."""
    return bool(np.array_equal(np.sort(row), np.arange(len(row))))


def write_group_json_reference(action: GroupAction, path) -> None:
    """The group as ``json.dumps`` of its payload, every entry a Python int."""
    payload = {
        "name": action.name,
        "order": int(action.order),
        "n_vertices": int(action.permutations.shape[1]),
        "permutations": action.permutations.tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


@pytest.fixture(scope="session")
def sorted_references():
    """Row-sort, grid-index and COO implementations whose bits the mesh layer must match."""
    return SimpleNamespace(
        corners=triangle_corners_reference,
        edge_sq=triangle_edge_sq_reference,
        areas=triangle_areas_reference,
        energies=dirichlet_energies_reference,
        operators=operators_reference,
        group_json=write_group_json_reference,
        normalize=canonical_normalize_reference,
        geodesic=geodesic_reference,
        vertex_edge_sq=edge_sq_reference,
        displacements=displacements_reference,
        mass_diagonal=mass_diagonal_reference,
        is_permutation=is_permutation_reference,
    )


@pytest.fixture(scope="session")
def off_reference():
    """The reference OFF writer that `write_off`'s bytes are checked against."""
    return write_off_reference


@pytest.fixture(scope="session")
def rayleigh_quotient():
    """The Rayleigh quotient that eigenpairs and competitors are checked against."""
    return rayleigh_quotient_of


@pytest.fixture(scope="session")
def alpha_failure_probe():
    """The t * e_j table that shows the critical shift alpha = lambda_j failing."""
    return alpha_failure_table


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
def sphere5() -> Setup:
    return _setup(build_sphere_mesh, 5, "antipodal")


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
