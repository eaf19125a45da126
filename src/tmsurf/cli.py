"""Experiment runner: every module behind reproducible subcommands.

All outputs are plain JSON/CSV written with canonical formatting (sorted
keys, shortest round-trip floats, no timestamps), so a rerun with the same
config and seed produces byte-identical files.  Every exponential-scale
quantity is accompanied by its log.  Exit codes: 0 success, 2 unusable input
(a ValueError, KeyError or OSError, raised anywhere), 3 any other failure
inside a stage (`tm run` keeps its partial artifacts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .constructions.family import EPS_MAX, build_test_family, test_family_lower_bound
from .constructions.green import GreenDecomposition, green_solve, richardson_pair
from .constructions.radial import radial_model, surface_model
from .discretization import NormParams, OrbitReduction, _trim_heap, assemble, orbit_reduction
from .geometry import (
    SPHERE_GROUP_KINDS,
    GroupAction,
    SurfaceMesh,
    build_flat_torus_mesh,
    build_sphere_mesh,
    check_group_action,
    group_action,
    read_group_json,
    read_off,
    write_group_json,
    write_off,
)
from .maximizer import (
    MaximizerState,
    ProblemSpec,
    blowup_diagnostics,
    multiplier_report,
    sharpness_probe,
    solve_subcritical,
)
from .spectrum import InvariantSpectrum, invariant_spectrum

SCHEMA_VERSION = 1

# Unusable input; exit 2 from every front end, and `tm run` writes no results.
INPUT_ERRORS = (OSError, KeyError, ValueError)


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


# ---------------------------------------------------------------------------
# canonical serialization


def _finite(values: list) -> list:
    """A float array's ``tolist()``, each non-finite entry replaced by None."""
    if values and isinstance(values[0], list):
        return [_finite(row) for row in values]
    return [v if math.isfinite(v) else None for v in values]


def _py(x):
    """JSON-safe deep copy: numpy scalars/arrays to builtins, non-finite to None."""
    if isinstance(x, dict):
        return {str(k): _py(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_py(v) for v in x]
    if isinstance(x, np.ndarray):
        # one tolist() pass per numeric array; it already yields builtins
        if x.dtype.kind == "f":
            return _finite(x.tolist())
        if x.dtype.kind in "biu":
            return x.tolist()
        return [_py(v) for v in x.tolist()]
    if isinstance(x, (np.integer, int)) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if np.isfinite(x) else None
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    return x


def canonical_json(payload) -> str:
    return json.dumps(_py(payload), indent=2, sort_keys=True) + "\n"


def _write_json(path, payload) -> None:
    Path(path).write_text(canonical_json(payload))


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mesh_hash(mesh) -> str:
    return hashlib.sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# payloads


def _spectrum_payload(spec) -> dict:
    return {
        "eigenvalues": spec.eigenvalues,
        "clusters": [[v, m] for v, m in spec.groups],
        "residuals": spec.residuals,
        "lambda_1": spec.lambda_1,
    }


def _green_payload(dec, with_values: bool = True) -> dict:
    out = {
        "alpha": dec.alpha,
        "source": dec.source,
        "orbit": dec.orbit,
        "ell": dec.ell,
        "residual": dec.residual,
        "a_const": dec.a_const,
        "a_fit_residual": dec.a_fit_residual,
        "a_annulus": dec.a_annulus,
        "l2_sq": dec.l2_sq,
    }
    if with_values:
        out["values"] = dec.values
    return out


_MARGIN_COLUMNS = (
    "eps", "margin", "value", "log_value", "bound", "bound_log",
    "tether", "margin_c_sq", "b_const", "c_sq",
)


def _report_payload(rep) -> dict:
    return {
        "eps": rep.eps,
        "value": rep.value,
        "log_value": rep.log_value,
        "bound": rep.bound.value,
        "bound_log": rep.bound.log_value,
        "margin": rep.margin,
        "tether": rep.tether,
        "tether_ratio": rep.tether_ratio,
        "margin_c_sq": rep.margin_c_sq,
        "b_const": rep.b_const,
        "c_sq": rep.c_sq,
        "mbar_c": rep.mbar_c,
        "inner_value": rep.inner_value,
        "inner_reference": rep.inner_reference,
        "outer_value": rep.outer_value,
        "annulus_value": rep.annulus_value,
    }


def _write_margins(path, reports) -> None:
    _write_csv(path, _MARGIN_COLUMNS, [[r[h] for h in _MARGIN_COLUMNS] for r in reports])


def _state_payload(state, with_vector: bool = True) -> dict:
    out = {
        "lambda_eps": state.lambda_eps,
        "mu_eps": state.mu_eps,
        "gammas": state.gammas,
        "c_eps": state.c_eps,
        "x_eps": state.x_eps,
        "value": state.value,
        "log_value": state.log_value,
        "residual": state.residual,
        "iterations": state.iterations,
        "converged": state.converged,
    }
    if with_vector:
        out["u"] = state.u
    return out


# ---------------------------------------------------------------------------
# stages: one implementation behind `tm run` and the subcommands


@dataclass(eq=False)
class Context:
    """The config and what the stages have built from it so far."""

    cfg: dict
    results: dict = field(default_factory=dict)
    out: Path | None = None  # `tm run` directory for per-stage files; None in subcommands
    outputs: list = field(default_factory=list)
    mesh: SurfaceMesh | None = None
    action: GroupAction | None = None
    red: OrbitReduction | None = None  # the orbit space, shared by spectrum, green and maximize
    spec: InvariantSpectrum | None = None
    dec: GreenDecomposition | None = None
    state: MaximizerState | None = None

    def export(self, name: str, write) -> None:
        """Let ``write`` put the per-stage file ``name`` into the run directory."""
        if self.out is not None:
            write(self.out / name)
            self.outputs.append(name)


def _number(value, name: str, kind=float):
    """A config value that must be a finite JSON number, converted by ``kind``.

    An integer key also takes an integral float (``3.0``).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config '{name}' must be a number, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"config '{name}' must be finite, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config '{name}' must be an integer, got {value!r}")
    return kind(value)


def _numbers(value, name: str, kind=float) -> list:
    """A config value that must be a list of JSON numbers, each as in ``_number``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config '{name}' must be a list of numbers, got {value!r}")
    return [_number(v, name, kind) for v in value]


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config '{name}' must be a string, got {value!r}")
    return value


def _config_mesh(cfg: dict):
    surface = cfg.get("surface", {})
    kind = surface.get("kind", "sphere")
    group = _text(cfg.get("group", "trivial"), "group")
    if kind == "sphere":
        return build_sphere_mesh(_number(surface.get("level", 4), "level", int), group)
    if kind == "torus":
        periods = tuple(_numbers(surface.get("periods", (1.0, 1.0)), "periods"))
        if len(periods) != 2:
            raise ConfigError(f"config 'periods' must hold two numbers, got {list(periods)}")
        nx, ny = (_number(surface.get(key, 64), key, int) for key in ("nx", "ny"))
        return build_flat_torus_mesh(nx, ny, periods, group_kind=group)
    if kind == "off":
        mesh = read_off(_text(surface["path"], "path"))
        if "perms" not in surface:
            return mesh, group_action(mesh, group)
        action = read_group_json(_text(surface["perms"], "perms"), mesh.n_vertices)
        check_group_action(mesh, action)
        return mesh, action
    raise ConfigError(f"unknown surface 'kind' {kind!r}; use 'sphere', 'torus' or 'off'")


def _cluster_level(value, spec) -> int:
    """A config eigenvalue level: the 1-based index of a computed cluster."""
    level = _number(value, "level", int)
    if not 1 <= level <= len(spec.groups):
        raise ConfigError(f"config 'level' {level} is not a cluster of the spectrum (1..{len(spec.groups)})")
    return level


def _resolve_alpha(cfg_alpha, spec) -> float:
    if isinstance(cfg_alpha, dict):
        level = _cluster_level(cfg_alpha.get("level", 1), spec)
        if "gap_fraction" not in cfg_alpha:
            raise ConfigError(f"config 'alpha' object needs a 'gap_fraction', got {cfg_alpha!r}")
        return _number(cfg_alpha["gap_fraction"], "gap_fraction") * spec.group_value(level)
    return _number(cfg_alpha, "alpha")


def _rng_seed(cfg: dict) -> int:
    seed = _number(cfg.get("rng_seed", 0), "rng_seed", int)
    if seed < 0:
        raise ConfigError(f"config 'rng_seed' must be nonnegative, got {seed}")
    return seed


def _stage_mesh(ctx: Context) -> None:
    ctx.mesh, ctx.action = _config_mesh(ctx.cfg)
    mesh, action = ctx.mesh, ctx.action
    ctx.results["mesh"] = {
        "surface": mesh.surface_kind,
        "n_vertices": mesh.n_vertices,
        "n_triangles": mesh.n_triangles,
        "group": action.name,
        "group_order": action.order,
        "ell": action.min_orbit_size,
        "total_area": mesh.total_area,
    }
    if "mesh" in ctx.cfg.get("pipeline", ()):  # not when built only for later stages
        ctx.export("mesh.off", lambda path: write_off(mesh, path))
        ctx.export("group.json", lambda path: write_group_json(action, path))


def _stage_spectrum(ctx: Context) -> None:
    count = _number(ctx.cfg.get("eigen_count", 8), "eigen_count", int)
    n_orbits = ctx.action.n_orbits  # the orbit space's size, known before assembly
    if not 1 <= count < n_orbits:
        raise ConfigError(f"config 'eigen_count' {count} outside 1..{n_orbits - 1}, the invariant modes")
    seed = _rng_seed(ctx.cfg)
    ctx.red = orbit_reduction(assemble(ctx.mesh), ctx.action)  # the vertex K and M die here
    _trim_heap()
    ctx.spec = invariant_spectrum(ctx.red, count, seed=seed)
    ctx.results["spectrum"] = _spectrum_payload(ctx.spec)


def _stage_green(ctx: Context) -> None:
    alpha = _resolve_alpha(ctx.cfg.get("alpha", 0.0), ctx.spec)
    params = NormParams(alpha=alpha, lambda_gap=ctx.spec.lambda_1)
    source = ctx.cfg.get("green", {}).get("source", "auto")
    if source == "auto":  # a vertex of a minimal orbit
        source = ctx.action.min_orbit_vertex
    elif isinstance(source, str):  # `tm green --orbit 5`
        source = int(source)
    source = _number(source, "source", int)
    if not 0 <= source < ctx.mesh.n_vertices:
        raise ConfigError(f"green source {source} is not a vertex index (0..{ctx.mesh.n_vertices - 1})")
    ctx.dec = green_solve(ctx.red, source, params)
    ctx.results["green"] = _green_payload(ctx.dec, with_values=False)
    ctx.results["upper_bound"] = ctx.dec.bound._asdict()


def _stage_bounds(ctx: Context) -> None:
    bcfg = ctx.cfg.get("bounds", {})
    epsilons = _numbers(bcfg.get("epsilons", (1e-3, 1e-4, 1e-5)), "epsilons")
    n_quad = _number(bcfg.get("n_quad", 400), "n_quad", int)
    if n_quad < 1:
        raise ConfigError(f"config 'n_quad' must be at least 1, got {n_quad}")
    outside = [e for e in epsilons if not 0.0 < e < EPS_MAX]
    if outside:
        raise ConfigError(f"eps {outside} outside (0, {EPS_MAX})")
    families = (build_test_family(ctx.dec, eps, n_quad=n_quad) for eps in epsilons)
    reports = ctx.results["bounds"] = [
        _report_payload(test_family_lower_bound(fam, n_quad=n_quad)) for fam in families
    ]
    ctx.export("margins.csv", lambda path: _write_margins(path, reports))


def _stage_maximize(ctx: Context) -> None:
    mcfg = ctx.cfg.get("maximize", {})
    ell = ctx.action.min_orbit_size
    eps_sub = _number(mcfg.get("epsilon_sub", np.pi * ell), "epsilon_sub")
    if not 0.0 < eps_sub < 4.0 * np.pi * ell:
        raise ConfigError(f"epsilon_sub={eps_sub} outside (0, 4*pi*ell={4 * np.pi * ell:.6g})")
    level = _cluster_level(mcfg.get("level", 1), ctx.spec)
    alpha = _resolve_alpha(mcfg.get("alpha", ctx.cfg.get("alpha", 0.0)), ctx.spec)
    max_iters = _number(mcfg.get("max_iters", 400), "max_iters", int)
    if max_iters < 1:
        raise ConfigError(f"config 'max_iters' must be at least 1, got {max_iters}")
    tol = _number(mcfg.get("tol", 1e-8), "tol")
    if tol <= 0.0:
        raise ConfigError(f"config 'tol' must be positive, got {tol}")
    problem = ProblemSpec(ctx.red, ctx.spec, level, alpha, eps_sub)
    seed = mcfg.get("seed", "moser")
    if isinstance(seed, list):
        seed = np.asarray(_numbers(seed, "seed"))
        if seed.shape != (ctx.mesh.n_vertices,):
            raise ConfigError(f"config 'seed' must hold {ctx.mesh.n_vertices} vertex values, got {len(seed)}")
    elif seed not in ("moser", "symmetric", "random"):
        raise ConfigError(f"config 'seed' must be 'moser', 'symmetric', 'random' or a list, got {seed!r}")
    state = ctx.state = solve_subcritical(
        problem,
        seed,
        max_iters=max_iters,
        tol=tol,
        rng_seed=_rng_seed(ctx.cfg),
    )
    rep = multiplier_report(state)
    ctx.results["maximize"] = _state_payload(state, with_vector=False)
    ctx.results["maximize"]["multiplier_checks"] = {
        "residual_u": rep.residual_u,
        "residual_const": rep.residual_const,
        "residual_gammas": rep.residual_gammas,
        "mu_over_lambda": rep.mu_over_lambda,
    }
    ctx.export(
        "state.json",
        lambda path: _write_json(path, {"schema": SCHEMA_VERSION, "state": _state_payload(state)}),
    )


def _stage_diagnostics(ctx: Context) -> None:
    dcfg = ctx.cfg.get("diagnostics", {})
    diag = blowup_diagnostics(ctx.state, _numbers(dcfg.get("radii", (0.1, 0.2, 0.4)), "radii"))
    ctx.results["diagnostics"] = {
        "c_eps": diag.c_eps,
        "orbit": diag.orbit,
        "peak_share": diag.peak_share,
        "radii": diag.radii,
        "local_energies": diag.local_energies,
        "energy_budget": diag.energy_budget,
        "energy_fractions": diag.energy_fractions,
    }


def _stage_sharpness(ctx: Context) -> None:
    scfg = ctx.cfg.get("sharpness", {})
    if ctx.mesh is None:  # `tm sharpness` needs only the model surface, not a mesh
        surface = ctx.cfg["surface"]
        model = surface_model(surface["kind"], surface["periods"])
    else:
        model = radial_model(ctx.mesh)
    beta_grid = _numbers(scfg.get("beta_grid", ()), "beta_grid")
    k_grid = _numbers(scfg.get("k_grid", ()), "k_grid", int)
    if beta_grid and (len(k_grid) < 2 or min(k_grid) < 1):
        raise ConfigError(f"config 'k_grid' needs two or more heights >= 1 for a slope, got {k_grid}")
    ell = _number(scfg["ell"], "ell", int) if "ell" in scfg else ctx.action.min_orbit_size
    if ell < 1:
        raise ConfigError(f"config 'ell' must be at least 1, got {ell}")
    r = _number(scfg.get("r", 0.05), "r")
    if not 0.0 < r < model.max_rho:
        raise ConfigError(f"config 'r' {r} outside (0, {model.max_rho:.6g})")
    ctx.results["sharpness"] = sharpness_probe(
        model, ell, beta_grid, k_grid, r=r, alpha=_number(scfg.get("alpha", 0.0), "alpha")
    )


# Stages that solve with the factorization ctx.red holds (the spectrum's at its
# shift-invert pole, then Green's and the maximizer's at their alpha); it is
# dropped after the last of them that the run still needs.
_SOLVER_STAGES = {"spectrum", "green", "maximize"}

# Stage name -> (function, stages it needs), in execution order.
STAGES = {
    "mesh": (_stage_mesh, ()),
    "spectrum": (_stage_spectrum, ("mesh",)),
    "green": (_stage_green, ("spectrum",)),
    "bounds": (_stage_bounds, ("green",)),
    "maximize": (_stage_maximize, ("spectrum",)),
    "diagnostics": (_stage_diagnostics, ("maximize",)),
    "sharpness": (_stage_sharpness, ()),
}


def run_stages(ctx: Context, wanted) -> Context:
    """Run the wanted stages and their prerequisites in table order.

    Input errors propagate unchanged; other failures become a StageError.
    """
    needed = set(wanted)
    for name, (_, needs) in reversed(STAGES.items()):
        if name in needed:
            needed.update(needs)
    for name, (stage, _) in STAGES.items():
        if name not in needed:
            continue
        try:
            stage(ctx)
        except INPUT_ERRORS:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc
        needed.discard(name)
        if ctx.red is not None and not needed & _SOLVER_STAGES:
            ctx.red.release()  # no stage left needs the factorization
    return ctx


# ---------------------------------------------------------------------------
# subcommands: argparse namespace -> the config `tm run` reads


def _add_mesh_args(p: argparse.ArgumentParser, level_flag: str = "--level") -> None:
    p.add_argument("--surface", choices=("sphere", "torus"), default="sphere")
    p.add_argument(level_flag, dest="surface_level", type=int, default=4,
                   help="sphere subdivision level")
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--ny", type=int, default=64)
    p.add_argument("--periods", type=float, nargs=2, default=(1.0, 1.0), metavar=("A", "B"))
    p.add_argument("--group", default="trivial",
                   help=f"sphere: {'|'.join(SPHERE_GROUP_KINDS)}; torus: trivial|shift(a,b)[+shift(c,d)]")
    p.add_argument("--mesh", help="OFF file to load instead of building a surface")
    p.add_argument("--perms", help="permutation JSON for --mesh (defaults to --group, or trivial)")


def _mesh_config(args) -> dict:
    if args.mesh:
        surface = {"kind": "off", "path": args.mesh}
        if args.perms:
            surface["perms"] = args.perms
    else:
        surface = {"kind": args.surface, "level": args.surface_level, "nx": args.nx,
                   "ny": args.ny, "periods": args.periods}
    return {"surface": surface, "group": args.group}


def _green_config(args) -> dict:
    return _mesh_config(args) | {
        "alpha": args.alpha, "eigen_count": args.eig_count, "green": {"source": args.orbit},
    }


def cmd_mesh(args) -> int:
    ctx = run_stages(Context(_mesh_config(args)), ["mesh"])
    mesh, action = ctx.mesh, ctx.action
    write_off(mesh, args.out)
    if args.perms_out:
        write_group_json(action, args.perms_out)
    print(
        f"{mesh.surface_kind}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles, "
        f"group '{action.name}' of order {action.order}, ell={action.min_orbit_size} -> {args.out}"
    )
    return 0


def cmd_spectrum(args) -> int:
    cfg = _mesh_config(args) | {"eigen_count": args.count, "rng_seed": args.rng_seed}
    spec = run_stages(Context(cfg), ["spectrum"]).spec
    _write_json(args.out, {"schema": SCHEMA_VERSION, "spectrum": _spectrum_payload(spec)})
    print(f"lambda_1^G = {spec.lambda_1!r}, {len(spec.groups)} clusters -> {args.out}")
    return 0


def cmd_green(args) -> int:
    ctx = run_stages(Context(_green_config(args)), ["green"])
    dec = ctx.dec
    payload = {
        "schema": SCHEMA_VERSION,
        "green": _green_payload(dec),
        "upper_bound": ctx.results["upper_bound"],
    }
    _write_json(args.out, payload)
    print(f"A = {dec.a_const!r} (fit rms {dec.a_fit_residual:.2e}), residual {dec.residual:.2e} -> {args.out}")
    return 0


def cmd_bounds(args) -> int:
    cfg = _green_config(args) | {"bounds": {"epsilons": args.eps, "n_quad": args.n_quad}}
    results = run_stages(Context(cfg), ["bounds"]).results
    reports = results["bounds"]
    payload = {
        "schema": SCHEMA_VERSION,
        "green": results["green"],
        "upper_bound": results["upper_bound"],
        "sweep": reports,
    }
    _write_json(args.out, payload)
    csv_path = args.csv or Path(args.out).with_suffix(".csv")
    _write_margins(csv_path, reports)
    worst = min(r["margin"] for r in reports)
    print(f"{len(reports)} eps values, min margin {worst!r} -> {args.out}, {csv_path}")
    return 0


def cmd_maximize(args) -> int:
    seed = args.seed
    if seed not in ("moser", "symmetric", "random"):
        with open(seed) as fh:
            payload = json.load(fh)
        # a previous state.json keeps the vector under "state"; a bare {"u": ...} works too
        state = payload.get("state", payload) if isinstance(payload, dict) else None
        if not isinstance(state, dict) or "u" not in state:
            raise ConfigError(f"seed file {args.seed} holds no 'u' vector")
        seed = state["u"]
    cfg = _mesh_config(args) | {
        "eigen_count": args.eig_count,
        "rng_seed": args.rng_seed,
        "maximize": {"level": args.level, "alpha": args.alpha, "epsilon_sub": args.eps,
                     "seed": seed, "max_iters": args.max_iters, "tol": args.tol},
    }
    ctx = run_stages(Context(cfg), ["maximize"])
    state, checks = ctx.state, ctx.results["maximize"]["multiplier_checks"]
    payload = {"schema": SCHEMA_VERSION, "state": _state_payload(state), "multiplier_checks": checks}
    _write_json(args.out, payload)
    print(
        f"value = {state.value!r} (log {state.log_value!r}), c_eps = {state.c_eps!r}, "
        f"residual {state.residual:.2e}, converged={state.converged} -> {args.out}"
    )
    return 0 if state.converged else 3


def cmd_sharpness(args) -> int:
    cfg = {
        "surface": {"kind": args.surface, "periods": args.periods},
        "sharpness": {"ell": args.ell, "beta_grid": args.beta_grid, "k_grid": args.k_grid,
                      "r": args.r, "alpha": args.alpha},
    }
    rows = run_stages(Context(cfg), ["sharpness"]).results["sharpness"]
    csv_rows = []
    for row in rows:
        for k, lv in zip(row["k"], row["log_values"]):
            csv_rows.append(
                [row["beta"], k, lv, row["slope"], row["strictly_increasing"], row["variation"]]
            )
    _write_csv(
        args.out,
        ["beta", "k", "log_value", "slope", "strictly_increasing", "variation"],
        csv_rows,
    )
    for row in rows:
        print(
            f"beta={row['beta']!r}: slope={row['slope']!r}, variation={row['variation']!r}, "
            f"increasing={row['strictly_increasing']}"
        )
    return 0


# ---------------------------------------------------------------------------
# pipeline runner


_OBJECT_SECTIONS = ("surface", "green", "bounds", "maximize", "diagnostics", "sharpness")


def _parse_config(text: str) -> dict:
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config 'schema' {cfg.get('schema')!r}, expected {SCHEMA_VERSION}")
    for name in _OBJECT_SECTIONS:
        if not isinstance(cfg.get(name, {}), dict):
            raise ConfigError(f"config '{name}' must be an object")
    alpha = cfg.get("alpha", 0.0)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float, dict)):
        raise ConfigError("config 'alpha' must be a number or an object")
    pipeline = cfg.get("pipeline", [])
    if not (isinstance(pipeline, list) and all(isinstance(s, str) for s in pipeline)):
        raise ConfigError("config 'pipeline' must be a list of stage names")
    _text(cfg.get("out_dir", "."), "out_dir")
    return cfg


def run_experiment(config_path, out_dir=None) -> int:
    """Execute the pipeline named in the config; see the README for the schema."""
    config_text = Path(config_path).read_text()
    cfg = _parse_config(config_text)
    out = Path(out_dir or cfg.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config_text)
    pipeline = cfg.get("pipeline", [])
    unknown = [s for s in pipeline if s not in STAGES]
    if unknown:
        raise ConfigError(f"unknown pipeline stages {unknown}; valid: {sorted(STAGES)}")
    if not pipeline:
        _write_manifest(out, config_text, None, ["config.json"])
        print(f"empty pipeline: manifest only -> {out}")
        return 0

    results = {"schema": SCHEMA_VERSION, "config_sha256": _sha256_text(config_text)}
    ctx = Context(cfg, results, out, ["config.json"])
    try:
        run_stages(ctx, ["mesh", *pipeline])  # every run records its mesh
    except StageError as exc:
        results["failed_stage"] = exc.stage
        _write_json(out / "results.json", results)
        _write_manifest(out, config_text, ctx.mesh, ctx.outputs + ["results.json"])
        raise
    _write_json(out / "results.json", results)
    ctx.outputs.append("results.json")
    _write_manifest(out, config_text, ctx.mesh, ctx.outputs)
    print(f"pipeline {pipeline} complete -> {out}")
    return 0


def _write_manifest(out: Path, config_text: str, mesh, outputs) -> None:
    manifest = {
        "schema": SCHEMA_VERSION,
        "tool": "tmsurf",
        "version": __version__,
        "config_sha256": _sha256_text(config_text),
        "mesh_sha256": _mesh_hash(mesh) if mesh is not None else None,
        "outputs": sorted(set(outputs) | {"manifest.json"}),
    }
    _write_json(out / "manifest.json", manifest)


def cmd_run(args) -> int:
    return run_experiment(args.config, args.out_dir)


# ---------------------------------------------------------------------------
# comparison of two runs


def _walk(prefix: str, obj, leaves: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _walk(f"{prefix}.{k}" if prefix else str(k), v, leaves)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _walk(f"{prefix}[{i}]", v, leaves)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        leaves[prefix] = float(obj)


def _load_run(d):
    docs = {}
    for name in ("manifest", "results"):
        path = Path(d) / f"{name}.json"
        if not path.exists():
            raise ConfigError(f"no {name}.json under {d}")
        docs[name] = json.loads(path.read_text())
    return docs


def compare_report(dir_a, dir_b) -> dict:
    """Per-quantity relative differences between two run directories.

    When both runs carry the fitted Green constant at different mesh sizes,
    the fine/coarse pair is combined into its Richardson extrapolation.
    """
    run_a, run_b = _load_run(dir_a), _load_run(dir_b)
    schemas = [r["manifest"].get("schema") for r in (run_a, run_b)]
    if schemas[0] != schemas[1]:
        raise ConfigError(f"manifest schema mismatch: {schemas[0]!r} vs {schemas[1]!r}")
    a, b = {}, {}
    _walk("", run_a["results"], a)
    _walk("", run_b["results"], b)
    drop = {"config_sha256", "schema"}
    shared = sorted((set(a) & set(b)) - drop)
    diffs = {}
    for key in shared:
        va, vb = a[key], b[key]
        scale = max(abs(va), abs(vb))
        diffs[key] = {"a": va, "b": vb, "rel_diff": abs(va - vb) / scale if scale else 0.0}
    max_key = max(shared, key=lambda k: diffs[k]["rel_diff"], default=None)
    report = {
        "schema": SCHEMA_VERSION,
        "n_compared": len(shared),
        "only_in_a": sorted(set(a) - set(b) - drop),
        "only_in_b": sorted(set(b) - set(a) - drop),
        "max_rel_diff": diffs[max_key]["rel_diff"] if max_key else 0.0,
        "max_rel_diff_key": max_key,
        "diffs": diffs,
    }
    key_a, key_n = "green.a_const", "mesh.n_vertices"
    if key_a in shared and key_n in shared and a[key_n] != b[key_n]:
        coarse, fine = sorted([(a[key_n], a[key_a]), (b[key_n], b[key_a])])
        report["richardson_a"] = richardson_pair(coarse[1], fine[1])
    return report


def cmd_compare(args) -> int:
    report = compare_report(args.run_a, args.run_b)
    if args.out:
        _write_json(args.out, report)
    print(
        f"{report['n_compared']} shared quantities, max relative difference "
        f"{report['max_rel_diff']!r} at {report['max_rel_diff_key']}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tm", description=__doc__)
    p.add_argument("--version", action="version", version=f"tmsurf {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("mesh", help="build a surface and export OFF + permutations")
    _add_mesh_args(m)
    m.add_argument("--out", required=True)
    m.add_argument("--perms-out", help="write the group permutations as JSON")
    m.set_defaults(fn=cmd_mesh)

    s = sub.add_parser("spectrum", help="invariant mean-zero eigenvalues")
    _add_mesh_args(s)
    s.add_argument("--count", type=int, default=8)
    s.add_argument("--rng-seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_spectrum)

    g = sub.add_parser("green", help="orbit Green function and its regular part")
    _add_mesh_args(g)
    g.add_argument("--alpha", type=float, default=0.0)
    g.add_argument("--orbit", default="auto", help="source vertex index, or 'auto' for a minimal orbit")
    g.add_argument("--eig-count", type=int, default=8)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_green)

    b = sub.add_parser("bounds", help="upper bound vs test-family lower bound")
    _add_mesh_args(b)
    b.add_argument("--alpha", type=float, default=0.0)
    b.add_argument("--orbit", default="auto")
    b.add_argument("--eig-count", type=int, default=8)
    b.add_argument("--eps", type=float, nargs="+", default=(1e-3, 1e-4, 1e-5))
    b.add_argument("--n-quad", type=int, default=400)
    b.add_argument("--out", required=True)
    b.add_argument("--csv", help="also write a margin-vs-eps table")
    b.set_defaults(fn=cmd_bounds)

    x = sub.add_parser("maximize", help="subcritical maximizer of the exponential functional")
    _add_mesh_args(x, level_flag="--surface-level")
    x.add_argument("--alpha", type=float, required=True)
    x.add_argument("--eps", type=float, required=True, help="subcritical deficit in the exponent")
    x.add_argument("--level", type=int, default=1, help="eigenvalue level j whose gap bounds alpha")
    x.add_argument("--seed", default="moser", help="moser|symmetric|random or a JSON file with a 'u' array")
    x.add_argument("--rng-seed", type=int, default=0)
    x.add_argument("--eig-count", type=int, default=12)
    x.add_argument("--max-iters", type=int, default=400)
    x.add_argument("--tol", type=float, default=1e-8)
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_maximize)

    h = sub.add_parser("sharpness", help="divergence table across exponents")
    h.add_argument("--surface", choices=("sphere", "torus"), default="sphere")
    h.add_argument("--periods", type=float, nargs=2, default=(1.0, 1.0))
    h.add_argument("--ell", type=int, default=2)
    h.add_argument("--beta-grid", type=float, nargs="+", required=True)
    h.add_argument("--k-grid", type=int, nargs="+", required=True)
    h.add_argument("--r", type=float, default=0.05)
    h.add_argument("--alpha", type=float, default=0.0)
    h.add_argument("--out", required=True)
    h.set_defaults(fn=cmd_sharpness)

    r = sub.add_parser("run", help="execute a JSON-configured pipeline")
    r.add_argument("config")
    r.add_argument("--out-dir", help="override the config's output directory")
    r.set_defaults(fn=cmd_run)

    c = sub.add_parser("compare", help="relative differences between two run directories")
    c.add_argument("run_a")
    c.add_argument("run_b")
    c.add_argument("--out", help="write the full diff as JSON")
    c.set_defaults(fn=cmd_compare)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a StageError, or a numerical failure outside the stages
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
