"""Self-test of the benchmark's traced path on a level-3 sphere with all stages.

Usage, from the root of a source checkout: python3 perfbench/selftest.py

Checks that spans nest, that per-layer self times sum to no more than run_s,
that maximizer.iterations matches results.json, that the correctness gate
rejects a wrong headline value, and that the metrics printed for both trace
modes are exactly those declared in BENCHMARK.json.  Exits 1 on a failure.
"""

import functools
import json
import sys

import run

NAME = "sphere-l3-selftest"


def main() -> int:
    run.WORKLOADS[NAME] = (functools.partial(run.sphere_full_config, level=3), None)
    run.REFERENCE[NAME] = {"maximize.converged": True}
    problems = []
    for trace in (0, 1):
        summary, report, samples = run.run(NAME, 0, 0, trace)
        if not summary["correct"]:
            problems.append(f"trace {trace}: runs failed the gate: {report['failures']}")
        declared = run.declared_metrics(trace)
        if {m: v["unit"] for m, v in summary["metrics"].items()} != declared:
            problems.append(f"trace {trace}: metrics {summary['metrics']} != declared {declared}")
        if not trace:
            continue
        results = json.loads((run.WORK / "out" / "results.json").read_text())
        if summary["metrics"]["maximizer.iterations"]["value"] != results["maximize"]["iterations"]:
            problems.append("maximizer.iterations differs from results.json")
        if run.headline_errors(NAME, {"maximize": {"converged": False}}) == []:
            problems.append("the gate accepted an unconverged maximizer")
        for s in samples:
            if not s["traced"]:
                continue
            rec = s["record"]
            try:
                layers = run.layer_metrics(rec["spans"])
            except RuntimeError as exc:
                problems.append(f"spans: {exc}")
                continue
            busy = sum(v for m, v in layers.items() if m in run.LAYER_TIMES)
            if not 0 < busy <= rec["run_s"]:
                problems.append(f"self times sum to {busy!r}, run_s is {rec['run_s']!r}")
            if min(layers.values()) < 0:
                problems.append(f"negative self time: {layers}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
