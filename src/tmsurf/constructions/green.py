"""Invariant Green functions of the shifted operator and their regular parts.

G solves (K - alpha M) G = b with b carrying weight 1/ell at every vertex of
the source orbit minus the uniform density, so that the load is balanced.
Near the source, G = -(1/2*pi*ell) log(rho) + A + psi~ with psi~(x0) = 0; the
constant A drives the closed-surface upper bound Vol + pi*ell*e^(1+4*pi*ell*A).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .. import discretization
from .._sums import sorted_sum
from ..discretization import NormParams, OrbitReduction
from ..geometry import GroupAction, SurfaceMesh, axis_offset, geodesic_distance, mean_edge_length
from .radial import RadialModel, radial_integral, radial_model

__all__ = [
    "GreenError",
    "GreenDecomposition",
    "green_solve",
    "extract_A",
    "richardson_pair",
    "green_l2_norm_sq",
    "UpperBound",
    "upper_bound_formula",
    "upper_bound_value",
    "invariant_shifted_solver",
]

_RESIDUAL_TOL = 1e-10


class GreenError(RuntimeError):
    pass


def invariant_shifted_solver(red: OrbitReduction, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """Factorized solver of (K_r - alpha M_r) w = b on orbit unknowns.

    ``b`` is an orbit load (``red.reduce`` of a vertex load) and ``w`` an orbit
    vector, so the invariance of ``red.expand(w)`` is exact by construction.
    For alpha = 0 the operator is singular along constants; the factorization
    then carries a mean-zero multiplier row, which leaves balanced loads
    (sum b = 0) unchanged. The operator is factored in the nested-dissection
    ``red.order`` that ``orbit_reduction`` computed, the multiplier last, with
    SuperLU's threshold pivoting kept, and the heap is trimmed right before
    SuperLU builds. This is the one sparse factorization of the program: the
    spectrum's shift-invert operator is its solver at alpha = -0.5. The
    factorization lives as long as the returned solver;
    ``OrbitReduction.shifted_solver`` holds one at a time and frees it.
    """
    shifted = red.stiffness - alpha * red.mass
    p = red.order
    if alpha == 0.0:
        a = sp.csr_matrix(red.lumped.reshape(-1, 1))
        shifted = sp.bmat([[shifted, a], [a.T, None]], format="csr")
        p = np.append(p, red.n)
    shifted = shifted[p][:, p].tocsc()  # the unpermuted operator is freed before splu
    discretization._trim_heap()  # so the freed copies are not resident under SuperLU's build
    try:
        lu = spla.splu(shifted, permc_spec="NATURAL", options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise GreenError(f"shifted operator is singular at alpha={alpha}: {exc}") from exc

    n = red.n

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.zeros(len(p))
        x[:n] = b
        x[p] = lu.solve(x[p])
        return x[:n]

    return solve


class UpperBound(NamedTuple):
    value: float
    log_value: float


@dataclass(eq=False)
class GreenDecomposition:
    """An orbit Green function; ``green_solve`` fills every field, the fitted ones too."""

    values: np.ndarray
    source: int
    orbit: np.ndarray
    alpha: float
    ell: int
    residual: float
    dist_source: np.ndarray  # geodesic distance from the source vertex
    dist_orbit: np.ndarray  # min geodesic distance over the source orbit
    mesh: SurfaceMesh = field(repr=False)
    action: GroupAction = field(repr=False)
    a_const: float = field(init=False)
    a_fit_residual: float = field(init=False)
    a_annulus: tuple[float, float] = field(init=False)
    l2_sq: float = field(init=False)
    bound: UpperBound = field(init=False)  # Vol + pi*ell*e^(1+4*pi*ell*A)

    @property
    def model(self) -> RadialModel:
        return radial_model(self.mesh)

    def log_singular_model(self, rho):
        """-(1/2*pi*ell) log(rho) + A, the radial profile with psi~ removed."""
        return -np.log(rho) / (2.0 * np.pi * self.ell) + self.a_const


def green_solve(red: OrbitReduction, source: int, params: NormParams) -> GreenDecomposition:
    """Solve the orbit-source Green problem with the factorization ``red`` holds.

    Then fit the regular constant A, integrate |G|_2^2 and evaluate the upper
    bound, so the returned decomposition is complete.  The residual is taken
    on orbits: the vertex residual of the invariant G is invariant, its orbit
    sums are r = K_r w - alpha M_r w - S^T b, and its 2-norm is that of
    r / sqrt(orbit sizes).
    """
    mesh, action = red.mesh, red.action
    if not 0 <= source < mesh.n_vertices:
        raise GreenError(f"source vertex {source} out of range")
    orbit = action.orbit_of(source)
    ell = len(orbit)
    if ell != action.min_orbit_size:
        warnings.warn(
            f"source {source} lies on a non-minimal orbit (size {ell} > "
            f"{action.min_orbit_size}); the sharp-constant statements use minimal orbits",
            stacklevel=2,
        )
    b = -mesh.vertex_areas / mesh.total_area
    b[orbit] += 1.0 / ell
    b_red = red.reduce(b)
    g = red.expand(red.shifted_solver(params.alpha)(b_red))
    g -= float(np.dot(mesh.vertex_areas, g) / mesh.total_area)  # the lumped-mass mean
    w = g[red.reps]
    r = red.stiffness @ w - params.alpha * (red.mass @ w) - b_red
    res = np.linalg.norm(r / np.sqrt(action.orbit_sizes))
    if res > _RESIDUAL_TOL * max(1.0, float(np.linalg.norm(b))):
        raise GreenError(f"Green solve residual {res:.3e} exceeds {_RESIDUAL_TOL:.0e}")
    del b, b_red, w, r
    fields = [geodesic_distance(mesh, int(p)) for p in orbit]
    dist_orbit = np.min(np.stack(fields), axis=0)
    dist_source = fields[int(np.flatnonzero(orbit == source)[0])]
    del fields  # the fit below keeps only the source row and the orbit minimum
    dec = GreenDecomposition(
        values=g,
        source=int(source),
        orbit=orbit,
        alpha=params.alpha,
        ell=ell,
        residual=float(res),
        dist_source=dist_source,
        dist_orbit=dist_orbit,
        mesh=mesh,
        action=action,
    )
    extract_A(dec)
    green_l2_norm_sq(dec)
    dec.bound = upper_bound_value(dec)
    return dec


def extract_A(dec: GreenDecomposition, annulus: tuple[float, float] = (5.0, 20.0)) -> float:
    """Regular constant from a least-squares fit over a mesh-scaled annulus.

    Fits G + (1/2*pi*ell) log(rho) over annulus[0]*h <= rho <= annulus[1]*h
    against {1, displacement, rho^2, rho^2 log rho, rho^4, rho^4 log rho}.
    The displacement columns absorb the gradient of psi~ at the source; the
    even radial columns match the parametrix expansion of psi~, whose
    curvature would otherwise leak into the constant over so wide a window.
    All columns vanish at the source, so the constant is the extrapolated
    value there.
    """
    mesh = dec.mesh
    h = mean_edge_length(mesh)
    lo, hi = annulus[0] * h, annulus[1] * h
    if hi >= radial_model(mesh).max_rho:
        raise GreenError(f"fit annulus outer radius {hi:.3g} reaches past the surface scale")
    others = dec.orbit[dec.orbit != dec.source]
    if others.size and float(np.min(dec.dist_source[others])) <= hi:
        raise GreenError("fit annulus contains another source point; refine the mesh")
    rho = dec.dist_source
    sel = np.flatnonzero((rho >= lo) & (rho <= hi))
    if sel.size < 12:
        raise GreenError(f"only {sel.size} vertices in the fit annulus; refine the mesh")
    y = dec.values[sel] + np.log(rho[sel]) / (2.0 * np.pi * dec.ell)
    disp = np.column_stack([axis_offset(mesh, dec.source, sel, k) for k in range(mesh.vertices.shape[1])])
    r2 = (rho[sel] / hi) ** 2  # normalized for conditioning
    log_r = np.log(rho[sel])
    basis = np.column_stack(
        [np.ones(sel.size), disp / hi, r2, r2 * log_r, r2 * r2, r2 * r2 * log_r]
    )
    coef, _, _, _ = np.linalg.lstsq(basis, y, rcond=None)
    fit = basis @ coef
    dec.a_const = float(coef[0])
    dec.a_fit_residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    dec.a_annulus = (lo, hi)
    return dec.a_const


def richardson_pair(a_coarse: float, a_fine: float) -> float:
    """Second-order extrapolation from a mesh-level pair (h halves per level)."""
    return (4.0 * a_fine - a_coarse) / 3.0


def green_l2_norm_sq(dec: GreenDecomposition) -> float:
    """Mesh L2 norm of G with the singular cells integrated radially.

    The source vertices and their one-ring neighbours are excluded from the
    lumped sum; their total area is matched to model disks around the sources,
    on which the log-singular radial profile is integrated exactly. The psi~
    contribution inside the disks is O(rho_ex^2 log rho_ex) and dropped.
    """
    mesh = dec.mesh
    tris = mesh.triangles
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[dec.orbit] = True
    touching = mask[tris].any(axis=1)
    excl = np.zeros(mesh.n_vertices, dtype=bool)
    excl[tris[touching]] = True
    area_excl = sorted_sum(mesh.vertex_areas[excl])
    model = dec.model
    rho_ex = model.ball_radius(area_excl / dec.ell)
    mesh_part = sorted_sum(mesh.vertex_areas[~excl] * dec.values[~excl] ** 2)
    disk_part = dec.ell * radial_integral(
        lambda rho: dec.log_singular_model(rho) ** 2,
        rho_ex * 1e-12,
        rho_ex,
        model,
        log_grid=True,
    )
    dec.l2_sq = float(mesh_part + disk_part)
    return dec.l2_sq


def upper_bound_formula(vol: float, ell: int, a_const: float) -> UpperBound:
    """Vol + pi*ell*e^(1+4*pi*ell*A), evaluated through logs."""
    log_peak = np.log(np.pi * ell) + 1.0 + 4.0 * np.pi * ell * a_const
    log_value = float(np.logaddexp(np.log(vol), log_peak))
    value = float(vol + np.exp(log_peak)) if log_peak < 709.0 else float("inf")
    return UpperBound(value=value, log_value=log_value)


def upper_bound_value(dec: GreenDecomposition) -> UpperBound:
    return upper_bound_formula(dec.mesh.total_area, dec.ell, dec.a_const)
