"""Layered benchmark of `tm run`, the batch pipeline users wait on.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: each run is a fresh `python3 perfbench/child.py`
process that calls `tmsurf.cli.main(["run", CONFIG, ...])`, the way `tm run`
is invoked, with BLAS threads pinned to 1.  The seed goes into the config's
`rng_seed`.  Runs start until the next one would end after S seconds (at
least MIN_RUNS runs).  Every run goes through a correctness gate (exit code,
headline values against REFERENCE, results.json bytes against the first run
of the same seed); failures count against runs attempted.

--trace 0 reports the end-to-end metrics (medians over runs).  --trace 1
alternates untraced and traced runs and reports per-layer self times and
counts from the traced ones, plus the tracing overhead (median traced run_s
minus median untraced run_s).  The last stdout line is the result object;
the line before it is a report with the environment, the input hashes and
every sample.  `python3 perfbench/selftest.py` checks the traced path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
CHILD = BENCH / "child.py"
MIN_RUNS = {0: 3, 1: 2}
DEADLINE_S = 170  # every child is stopped by then, inside the 180 s limit of a run

SPHERE_LEVEL = 6
TORUS_N = 384
TORUS_GROUP = f"shift({TORUS_N // 2},0)+shift(0,{TORUS_N // 2})"
ALPHA = {"gap_fraction": 0.25, "level": 1}


def sphere_full_config(seed: int, inputs: dict, level: int = SPHERE_LEVEL) -> dict:
    return {
        "schema": 1,
        "rng_seed": seed,
        "surface": {"kind": "sphere", "level": level},
        "group": "antipodal",
        "alpha": ALPHA,
        "pipeline": ["mesh", "spectrum", "green", "bounds", "maximize", "diagnostics", "sharpness"],
        "bounds": {"epsilons": [1e-3, 1e-4, 1e-5]},
        # c_eps is about 0.44 at this resolution, below the default 3.0 gate
        "diagnostics": {"c_threshold": 0.3},
        "sharpness": {"ell": 2, "beta_grid": [22.6, 27.6], "k_grid": [100, 1000, 10000]},
    }


def torus_export_config(seed: int, inputs: dict) -> dict:
    return {
        "schema": 1,
        "rng_seed": seed,
        "surface": {"kind": "torus", "nx": TORUS_N, "ny": TORUS_N},
        "group": TORUS_GROUP,
        "pipeline": ["mesh"],
    }


def torus_import_config(seed: int, inputs: dict) -> dict:
    return {
        "schema": 1,
        "rng_seed": seed,
        "surface": {"kind": "off", "path": inputs["mesh.off"], "perms": inputs["group.json"]},
        "alpha": ALPHA,
        "pipeline": ["green"],
    }


# Headline values of each workload at every seed, produced by this code at
# 1 BLAS thread.  A run fails when one leaves REL_TOL of its reference.
REL_TOL = 1e-6
REFERENCE = {
    "sphere-l6-full": {
        "spectrum.lambda_1": 6.0010886721032275,
        "green.a_const": 0.0025041607209967723,
        "upper_bound.log_value": 3.4260320007233025,
        "bounds.margin": [2.323920379702429, 1.7664408139159775, 1.428864673480419],
        "maximize.log_value": 3.016412790738326,
        "maximize.c_eps": 0.4379231347617337,
        "maximize.converged": True,
    },
    "torus-384-export": {
        "mesh.n_vertices": TORUS_N * TORUS_N,
        "mesh.n_triangles": 2 * TORUS_N * TORUS_N,
        "mesh.group_order": 4,
        "mesh.ell": 4,
        "mesh.total_area": 1.0,
    },
    "torus-384-import-green": {
        "spectrum.lambda_1": 157.9277636709247,
        "green.a_const": -0.06776803144274901,
        "upper_bound.log_value": 0.7574032757103413,
    },
}


def lookup(doc, path: str):
    """Value at a dotted path; a list on the way maps the rest over its items."""
    head, _, rest = path.partition(".")
    value = doc[head]
    if isinstance(value, list):
        return [lookup(v, rest) if rest else v for v in value]
    return lookup(value, rest) if rest else value


def close(got, want) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w) for g, w in zip(got, want)))
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    return isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * max(abs(want), 1.0)


def headline_errors(workload: str, results: dict) -> list:
    errors = []
    for path, want in REFERENCE[workload].items():
        try:
            got = lookup(results, path)
        except (KeyError, TypeError):
            got = None
        if not close(got, want):
            errors.append(f"{path} = {got!r}, reference {want!r}")
    return errors


def export_errors(out: Path) -> list:
    """The exported torus and its group, checked against the grid they encode."""
    n = TORUS_N
    lines = (out / "mesh.off").read_text().splitlines()
    if lines[:3] != ["OFF", "# torus periods 1.0 1.0", f"{n * n} {2 * n * n} 0"]:
        return [f"mesh.off header {lines[:3]!r}"]
    nv, nf = n * n, 2 * n * n
    if len(lines) != 3 + nv + nf:
        return [f"mesh.off has {len(lines)} lines, expected {3 + nv + nf}"]
    verts = np.array(" ".join(lines[3 : 3 + nv]).split(), dtype=float).reshape(nv, 3)
    faces = np.array(" ".join(lines[3 + nv :]).split(), dtype=np.int64).reshape(nf, 4)
    i, j = np.divmod(np.arange(nv), n)
    idx = lambda a, b: (a % n) * n + (b % n)  # noqa: E731
    want_faces = np.vstack(
        [
            np.stack([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)], axis=1),
            np.stack([idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)], axis=1),
        ]
    )
    errors = []
    if not np.array_equal(verts, np.c_[np.stack([i, j], axis=1) * (1.0 / n), np.zeros(nv)]):
        errors.append("mesh.off vertices are not the 1/n grid")
    if not (np.all(faces[:, 0] == 3) and np.array_equal(faces[:, 1:], want_faces)):
        errors.append("mesh.off faces are not the grid triangulation")
    group = json.loads((out / "group.json").read_text())
    shifts = sorted({(0, 0), (0, n // 2), (n // 2, 0), (n // 2, n // 2)})
    want_perms = [idx(i + sx, j + sy).tolist() for sx, sy in shifts]
    if group.get("permutations") != want_perms or group.get("n_vertices") != nv:
        errors.append("group.json permutations are not the four half-period shifts")
    return errors


WORKLOADS = {
    "sphere-l6-full": (sphere_full_config, None),
    "torus-384-export": (torus_export_config, export_errors),
    "torus-384-import-green": (torus_import_config, None),
}

# Per-layer self times: metric -> span names (see child.TRACED), summed.
LAYER_TIMES = {
    "geometry.build_s": ("geometry.build_sphere_mesh", "geometry.build_flat_torus_mesh"),
    "geometry.write_s": ("geometry.write_off", "geometry.write_group_json"),
    "geometry.read_s": ("geometry.read_off", "geometry.read_group_json"),
    "geometry.geodesic_s": ("geometry.geodesic_distance",),
    "discretization.assemble_s": ("discretization.assemble",),
    "discretization.orbit_reduction_s": ("discretization.orbit_reduction",),
    "discretization.project_s": ("discretization.project_invariant_meanzero",),
    "spectrum.eigensolve_s": ("spectrum.invariant_spectrum",),
    "green.solve_s": ("green.green_solve",),
    "green.factor_s": ("green.invariant_shifted_solver",),
    "green.backsolve_s": ("green.backsolve",),
    "green.fit_s": ("green.extract_A", "green.green_l2_norm_sq", "green.upper_bound_value"),
    "family.sweep_s": ("family.build_test_family", "family.test_family_lower_bound"),
    "maximizer.solve_s": ("maximizer.solve_subcritical",),
    "maximizer.diagnostics_s": ("maximizer.multiplier_report", "maximizer.blowup_diagnostics"),
    "maximizer.sharpness_s": ("maximizer.sharpness_probe",),
    "cli.self_s": ("cli.main",),
}
# Per-layer counts: metric -> span names whose calls are counted.
LAYER_COUNTS = {
    "geometry.geodesic_calls": ("geometry.geodesic_distance",),
    "discretization.orbit_reduction_calls": ("discretization.orbit_reduction",),
    "discretization.project_calls": ("discretization.project_invariant_meanzero",),
    "green.factorizations": ("green.invariant_shifted_solver",),
    "green.backsolves": ("green.backsolve",),
    "family.points": ("family.test_family_lower_bound",),
}


def self_times(spans) -> dict:
    """Self time per span id; raises if a span does not nest in its parent."""
    by_id = {s[0]: s for s in spans}
    own = {s[0]: s[4] - s[3] for s in spans}
    last_end = {}
    for sid, parent, name, start, end in spans:
        if end is None or end < start:
            raise RuntimeError(f"span {name} never closed")
        if parent >= 0:
            p = by_id[parent]
            if not (p[3] <= start and end <= p[4]) or start < last_end.get(parent, start):
                raise RuntimeError(f"span {name} does not nest in {p[2]}")
            last_end[parent] = end
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> dict:
    own = self_times(spans)
    out = {m: 0.0 for m in LAYER_TIMES} | {m: 0 for m in LAYER_COUNTS}
    for sid, _, name, _, _ in spans:
        for metric, names in LAYER_TIMES.items():
            if name in names:
                out[metric] += own[sid]
        for metric, names in LAYER_COUNTS.items():
            if name in names:
                out[metric] += 1
    return out


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def launch(config: Path, out: Path, result: Path, trace: bool, deadline: float):
    """One child run; returns its exit code, its result record and its stderr tail."""
    shutil.rmtree(out, ignore_errors=True)
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(config), str(out), str(result)]
    cmd.append(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return -1, None, "timed out"
    record = json.loads(result.read_text()) if result.exists() else None
    return proc.returncode, record, proc.stderr[-400:]


def prepare(workload: str, seed: int, deadline: float) -> dict:
    """Untimed inputs: the import workload reads what the export workload writes."""
    if workload != "torus-384-import-green":
        return {}
    src = WORK / "inputs"
    config = WORK / "inputs.json"
    config.write_text(json.dumps(torus_export_config(seed, {})))
    code, _, err = launch(config, src, WORK / "inputs-result.json", False, deadline)
    if code != 0:
        raise RuntimeError(f"preparing the import inputs failed ({code}): {err}")
    return {name: str(src / name) for name in ("mesh.off", "group.json")}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, list]:
    """Closed-loop runs of one workload: the result object, the report and every sample."""
    make_config, extra_check = WORKLOADS[workload]
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    inputs = prepare(workload, seed, deadline)
    config = WORK / f"{workload}.json"
    config.write_text(json.dumps(make_config(seed, inputs), indent=2))
    out, result = WORK / "out", WORK / "result.json"

    samples, failures, first_bytes = [], [], None
    t_start = time.monotonic()
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        code, record, err = launch(config, out, result, traced, deadline)
        errors = [] if code == 0 and record else [f"exit code {code}: {err.strip()}"]
        if not errors:
            body = (out / "results.json").read_bytes()
            first_bytes = first_bytes or body
            if body != first_bytes:
                errors.append("results.json differs from the first run with this seed")
            results = json.loads(body)
            errors += headline_errors(workload, results)
            if extra_check:
                errors += extra_check(out)
            record["iterations"] = results.get("maximize", {}).get("iterations", 0)
            record["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        samples.append({"traced": traced, "failed": bool(errors), "record": record})
        failures += errors
        elapsed = time.monotonic() - t_start
        if len(samples) >= MIN_RUNS[trace] and elapsed * (1 + 1 / len(samples)) > seconds:
            break

    ok = [s for s in samples if not s["failed"]]
    plain = [s["record"] for s in ok if not s["traced"]]
    if trace:
        traced_recs = [s["record"] for s in ok if s["traced"]]
        if not (plain and traced_recs):
            raise RuntimeError(f"no passing traced and untraced runs: {failures}")
        per_run = [layer_metrics(r["spans"]) for r in traced_recs]
        metrics = {m: statistics.median(p[m] for p in per_run) for m in per_run[0]}
        metrics["maximizer.iterations"] = traced_recs[0]["iterations"]
        metrics["cli.bytes_written"] = traced_recs[0]["bytes_written"]
        metrics["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced_recs) - (
            statistics.median(r["run_s"] for r in plain)
        )
    else:
        if not plain:
            raise RuntimeError(f"no passing run: {failures}")
        metrics = {
            m: statistics.median(r[m] for r in plain) for m in ("run_s", "setup_s", "peak_rss_mb")
        }
    records = [s["record"] for s in samples if s["record"]]
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "environment": records[0]["environment"] if records else None,
        "inputs_sha256": {
            name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for name, p in inputs.items()
        },
        "untraced_functions": sorted({f for r in records for f in r["untraced"]}),
        "failures": failures,
        "samples": [
            {k: s["record"][k] for k in ("run_s", "setup_s", "peak_rss_mb")} | {"traced": s["traced"]}
            for s in samples if s["record"]
        ],
    }
    declared = declared_metrics(trace)
    if sorted(declared) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    summary = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {m: {"value": v, "unit": declared[m]} for m, v in metrics.items()},
    }
    return summary, report, samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tmsurf" / "cli.py").is_file():
        print(f"no tmsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary, report, _ = run(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, m in summary["metrics"].items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    if report["failures"]:
        print("failures: " + "; ".join(report["failures"]), file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
