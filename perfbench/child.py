"""One measured `tm run` in a fresh interpreter.

Usage: python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON SPAWNED [--trace]

SPAWNED is the parent's CLOCK_MONOTONIC reading taken just before it started
this process; the clock is shared by all processes of the machine, so
`setup_s` covers interpreter start plus the numpy/scipy/tmsurf imports that
every `tm` call pays.  BLAS threads are pinned here, before numpy loads,
because threadpoolctl is not available and results change with the BLAS
thread count.  With --trace, spans are recorded around the public functions
listed in TRACED, kept in memory and written once into RESULT_JSON.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# Public functions wrapped in a span, by defining module.  Each wrapper is
# installed in every loaded tmsurf module that binds the original function,
# so calls through `from .x import f` copies are seen too.
TRACED = {
    "tmsurf.geometry": (
        "build_sphere_mesh", "build_flat_torus_mesh", "write_off", "write_group_json",
        "read_off", "read_group_json", "geodesic_distance",
    ),
    "tmsurf.discretization": ("assemble", "orbit_reduction", "project_invariant_meanzero"),
    "tmsurf.spectrum": ("invariant_spectrum",),
    "tmsurf.constructions.green": (
        "invariant_shifted_solver", "green_solve", "extract_A", "green_l2_norm_sq",
        "upper_bound_value",
    ),
    "tmsurf.constructions.family": ("build_test_family", "test_family_lower_bound"),
    "tmsurf.maximizer": (
        "solve_subcritical", "multiplier_report", "blowup_diagnostics", "sharpness_probe",
    ),
    "tmsurf.cli": ("main",),
}
# The solve closure returned by the factorization is itself a span, so
# back-substitutions are counted apart from the factorization and the caller.
RETURNS_SOLVER = {"green.invariant_shifted_solver": "green.backsolve"}


class Recorder:
    """In-memory span log: [id, parent id or -1, name, start, end] per call."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def wrap(self, name, fn, returns=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [len(self.spans), stack[-1][0] if stack else -1, name, time.perf_counter(), None]
            self.spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            return self.wrap(returns, out) if returns else out

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder) -> list:
    """Wrap every TRACED function; return the names that no longer exist."""
    missing = []
    loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "tmsurf"]
    for module, names in TRACED.items():
        mod = sys.modules.get(module)
        for fn in names:
            orig = getattr(mod, fn, None)
            if orig is None:
                missing.append(f"{module}.{fn}")
                continue
            name = f"{module.rsplit('.', 1)[-1]}.{fn}"
            wrapper = recorder.wrap(name, orig, RETURNS_SOLVER.get(name))
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
    return missing


def _environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv) -> int:
    config, out_dir, result_path, spawned = argv[:4]
    trace = "--trace" in argv[4:]
    sys.path.insert(0, str(SRC))
    import tmsurf.cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned)
    if not Path(tmsurf.__file__).resolve().is_relative_to(SRC):
        print(f"tmsurf imported from {tmsurf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    recorder = Recorder()
    missing = install(recorder) if trace else []
    t0 = time.perf_counter()
    code = tmsurf.cli.main(["run", config, "--out-dir", out_dir])
    run_s = time.perf_counter() - t0
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans,
        "untraced": missing,
        "environment": _environment(),
    }
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
