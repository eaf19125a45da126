"""End-to-end checks of the command line: artifacts, determinism, exit codes.

Every invocation goes through ``cli.main`` in-process so coverage and error
paths stay visible to the test runner.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from tmsurf import cli


def _run_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "schema": 1,
        "surface": {"kind": "sphere", "level": 3},
        "group": "antipodal",
        "alpha": {"gap_fraction": 0.25, "level": 1},
        "pipeline": ["mesh", "spectrum", "green", "bounds"],
        "bounds": {"epsilons": [1e-3, 1e-4]},
        "eigen_count": 8,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("tmsurf ")


# ---------------------------------------------------------------- single commands


def test_mesh_export_and_spectrum_roundtrip(tmp_path):
    off = tmp_path / "mesh.off"
    perms = tmp_path / "perms.json"
    argv = ["mesh", "--surface", "sphere", "--level", "2", "--group", "antipodal",
            "--out", str(off), "--perms-out", str(perms)]
    assert cli.main(argv) == 0
    assert off.exists() and perms.exists()

    direct = tmp_path / "spec_direct.json"
    loaded = tmp_path / "spec_loaded.json"
    base = ["spectrum", "--count", "6", "--rng-seed", "0"]
    assert cli.main(base + ["--surface", "sphere", "--level", "2", "--group", "antipodal",
                            "--out", str(direct)]) == 0
    assert cli.main(base + ["--mesh", str(off), "--perms", str(perms),
                            "--out", str(loaded)]) == 0
    # reimported OFF mesh reproduces the computation bit for bit
    assert direct.read_bytes() == loaded.read_bytes()
    payload = json.loads(direct.read_text())
    assert payload["spectrum"]["lambda_1"] == pytest.approx(6.0, rel=0.05)


def test_green_command_payload(tmp_path):
    out = tmp_path / "green.json"
    argv = ["green", "--surface", "sphere", "--level", "3", "--group", "antipodal",
            "--alpha", "1.5", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    green = payload["green"]
    assert green["alpha"] == 1.5
    assert green["ell"] == 2
    assert len(green["values"]) == 642
    assert payload["upper_bound"]["value"] > 0


def test_bounds_command_csv(tmp_path):
    out = tmp_path / "bounds.json"
    argv = ["bounds", "--surface", "sphere", "--level", "3", "--group", "antipodal",
            "--alpha", "1.5", "--eps", "1e-3", "1e-4", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    assert [row["eps"] for row in payload["sweep"]] == [1e-3, 1e-4]
    assert all(row["margin"] > 0 for row in payload["sweep"])
    csv_lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert csv_lines[0] == "eps,margin,value,log_value,bound,bound_log,tether,margin_log_eps,b_const,c_sq"
    assert len(csv_lines) == 3


def test_maximize_command_and_seed_file(tmp_path):
    out = tmp_path / "state.json"
    argv = ["maximize", "--surface", "sphere", "--surface-level", "3", "--group", "antipodal",
            "--alpha", "1.5", "--eps", str(2 * np.pi), "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    state = payload["state"]
    assert state["converged"]
    assert state["residual"] <= 1e-8
    assert payload["multiplier_checks"]["residual_u"] < 1e-10

    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"u": state["u"]}))
    out2 = tmp_path / "state2.json"
    assert cli.main(argv[:-1] + [str(out2), "--seed", str(seed)]) == 0
    state2 = json.loads(out2.read_text())["state"]
    assert state2["value"] == pytest.approx(state["value"], rel=1e-9)
    assert state2["iterations"] <= state["iterations"]

    # the state.json just written restarts the solver as it is, with "u" under "state"
    out3 = tmp_path / "state3.json"
    assert cli.main(argv[:-1] + [str(out3), "--seed", str(out)]) == 0
    assert out3.read_bytes() == out2.read_bytes()


def test_maximize_iteration_cap_exit(tmp_path):
    out = tmp_path / "state.json"
    argv = ["maximize", "--surface", "sphere", "--surface-level", "3", "--group", "antipodal",
            "--alpha", "1.5", "--eps", str(2 * np.pi), "--seed", "random",
            "--max-iters", "3", "--out", str(out)]
    with pytest.warns(UserWarning, match="residual"):
        rc = cli.main(argv)
    assert rc == 3
    assert not json.loads(out.read_text())["state"]["converged"]


def test_sharpness_command_csv(tmp_path):
    out = tmp_path / "sharpness.csv"
    argv = ["sharpness", "--ell", "2", "--beta-grid", str(0.9 * 8 * np.pi), str(1.1 * 8 * np.pi),
            "--k-grid", "100", "1000", "10000", "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,k,log_value,slope,strictly_increasing,variation"
    assert len(lines) == 7  # two beta rows x three k values


# ---------------------------------------------------------------- error taxonomy


def test_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2

    unknown = _run_config(tmp_path, "unknown.json", surface={"kind": "cube"})
    assert cli.main(["run", str(unknown), "--out-dir", str(tmp_path / "u")]) == 2

    stages = _run_config(tmp_path, "stages.json", pipeline=["mesh", "polish"])
    assert cli.main(["run", str(stages), "--out-dir", str(tmp_path / "s")]) == 2

    missing = _run_config(
        tmp_path, "missing.json", surface={"kind": "off", "path": str(tmp_path / "no.off")}
    )
    assert cli.main(["run", str(missing), "--out-dir", str(tmp_path / "m")]) == 2

    # input errors inside a stage exit 2 and leave no partial results.json
    truncated = tmp_path / "truncated.off"
    truncated.write_text("OFF\n3\n")
    sphere3 = ["--surface", "sphere", "--level", "3", "--group", "antipodal", "--alpha", "1.5"]
    cases = {
        "group": _run_config(tmp_path, "group.json", group="cyclic(5)"),
        "off": _run_config(tmp_path, "off.json", surface={"kind": "off", "path": str(truncated)}),
        "eps": _run_config(tmp_path, "eps.json", alpha=1.5, bounds={"epsilons": [0.5]}),
        "eps_sub": _run_config(tmp_path, "eps_sub.json", alpha=1.5, pipeline=["maximize"],
                               maximize={"epsilon_sub": float("nan")}),
    }
    # config sections of the wrong JSON type are input errors, not stage failures
    wrong_types = {
        "surface": "sphere", "green": "auto", "bounds": [1e-3], "maximize": 1.0,
        "diagnostics": [], "sharpness": None, "alpha": "half", "pipeline": "mesh",
    }
    for key, value in wrong_types.items():
        cases[f"type_{key}"] = _run_config(tmp_path, f"type_{key}.json", **{key: value})
    cases["type_alpha_bool"] = _run_config(tmp_path, "type_alpha_bool.json", alpha=True)
    cases["type_stage_name"] = _run_config(tmp_path, "type_stage_name.json", pipeline=[["mesh"]])
    # keys inside a section of the wrong JSON type, each read by the stage that runs
    cases["type_epsilons"] = _run_config(tmp_path, "type_epsilons.json", bounds={"epsilons": 5})
    cases["type_periods"] = _run_config(
        tmp_path, "type_periods.json", surface={"kind": "torus", "nx": 8, "ny": 8, "periods": 5},
        group="trivial", pipeline=["mesh"],
    )
    cases["type_beta_grid"] = _run_config(
        tmp_path, "type_beta_grid.json", pipeline=["sharpness"],
        sharpness={"ell": 2, "beta_grid": 5, "k_grid": [100, 1000]},
    )
    cases["type_source"] = _run_config(tmp_path, "type_source.json", green={"source": [1]})
    for name, cfg in cases.items():
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / name)]) == 2, name
        assert not (tmp_path / name / "results.json").exists(), name
    out = str(tmp_path / "x.json")
    assert cli.main(["spectrum", "--mesh", str(truncated), "--out", out]) == 2
    assert cli.main(["bounds", *sphere3, "--eps", "0.5", "--out", out]) == 2
    assert cli.main(["maximize", "--surface-level", "3", "--group", "antipodal",
                     "--alpha", "1.5", "--eps", "nan", "--out", out]) == 2


_TETRAHEDRON = "OFF\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"


def test_bad_group_exits_2(tmp_path):
    argv = ["mesh", "--surface", "sphere", "--level", "2", "--group", "cyclic(5)",
            "--out", str(tmp_path / "m.off")]
    assert cli.main(argv) == 2

    # imported permutations must form a group of mesh symmetries
    tet, perms = tmp_path / "tet.off", tmp_path / "perms.json"
    tet.write_text(_TETRAHEDRON)
    perms.write_text(json.dumps({"permutations": [[1, 2, 0, 3]]}))  # no identity row
    assert cli.main(["mesh", "--mesh", str(tet), "--perms", str(perms),
                     "--out", str(tmp_path / "t.off")]) == 2

    sphere, export = tmp_path / "s.off", tmp_path / "s.json"
    assert cli.main(["mesh", "--level", "2", "--out", str(sphere), "--perms-out", str(export)]) == 0
    swap = list(range(json.loads(export.read_text())["n_vertices"]))
    swap[0], swap[1] = 1, 0  # a closed group, but not a symmetry of the triangles
    for rows in ([sorted(swap), swap], [sorted(swap), sorted(swap)]):  # or a repeated row
        perms.write_text(json.dumps({"permutations": rows}))
        assert cli.main(["mesh", "--mesh", str(sphere), "--perms", str(perms),
                         "--out", str(tmp_path / "s2.off")]) == 2


@pytest.mark.parametrize("overrides", [
    {"eigen_count": 0},
    {"eigen_count": 10**6},
    {"pipeline": ["maximize"], "maximize": {"level": 40, "epsilon_sub": 2 * np.pi}},
    {"alpha": {"gap_fraction": 0.25, "level": 40}},
    {"pipeline": ["sharpness"], "sharpness": {"ell": 2, "beta_grid": [22.6]}},
    {"pipeline": ["sharpness"], "sharpness": {"ell": 2, "beta_grid": [22.6], "k_grid": []}},
], ids=["eigen_count_0", "eigen_count_huge", "maximize_level", "alpha_level", "k_grid_missing",
        "k_grid_empty"])
def test_out_of_domain_value_exits_2(tmp_path, overrides):
    # values of the right type outside their domain are input errors, not stage failures
    cfg = _run_config(tmp_path, **overrides)
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "results.json").exists()


def test_stage_failure_exits_3_with_partial_results(tmp_path, capsys):
    # the 24x24 torus leaves no room for the fit annulus: green stage fails
    out = tmp_path / "fail"
    cfg = _run_config(
        tmp_path, "fail.json",
        surface={"kind": "torus", "nx": 24, "ny": 24},
        group="trivial", alpha=0.0, pipeline=["spectrum", "green"],
    )
    assert cli.main(["run", str(cfg), "--out-dir", str(out)]) == 3
    assert "green" in capsys.readouterr().err
    results = json.loads((out / "results.json").read_text())
    assert results["failed_stage"] == "green"
    assert "spectrum" in results  # completed stages are kept
    manifest = json.loads((out / "manifest.json").read_text())
    assert "results.json" in manifest["outputs"]


# ---------------------------------------------------------------- pipeline runner


def test_empty_pipeline_writes_manifest_only(tmp_path):
    out = tmp_path / "empty"
    cfg = _run_config(tmp_path, "empty.json", pipeline=[])
    assert cli.main(["run", str(cfg), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["outputs"] == ["config.json", "manifest.json"]


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("runs")
    cfg = _run_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg), "--out-dir", str(out1)]) == 0
    assert cli.main(["run", str(cfg), "--out-dir", str(out2)]) == 0
    return tmp_path, out1, out2


def test_run_artifacts(pipeline_runs):
    _, out1, _ = pipeline_runs
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["config.json", "group.json", "manifest.json", "margins.csv",
                     "mesh.off", "results.json"]
    results = json.loads((out1 / "results.json").read_text())
    assert results["mesh"]["ell"] == 2
    assert results["spectrum"]["lambda_1"] == pytest.approx(6.07, rel=0.01)
    assert results["green"]["a_const"] is not None
    assert len(results["bounds"]) == 2
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["mesh_sha256"]
    assert manifest["config_sha256"] == results["config_sha256"]


def test_rerun_byte_identical(pipeline_runs):
    _, out1, out2 = pipeline_runs
    for name in ("results.json", "margins.csv", "mesh.off", "group.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_identical_runs(pipeline_runs, tmp_path):
    _, out1, out2 = pipeline_runs
    diff_path = tmp_path / "diff.json"
    assert cli.main(["compare", str(out1), str(out2), "--out", str(diff_path)]) == 0
    report = json.loads(diff_path.read_text())
    assert report["max_rel_diff"] == 0.0
    assert report["n_compared"] > 20
    assert report["only_in_a"] == report["only_in_b"] == []


def test_compare_level_pair_richardson(tmp_path):
    outs = []
    for level in (3, 4):
        cfg = _run_config(tmp_path, f"lvl{level}.json",
                          surface={"kind": "sphere", "level": level}, pipeline=["green"])
        out = tmp_path / f"lvl{level}"
        assert cli.main(["run", str(cfg), "--out-dir", str(out)]) == 0
        outs.append(out)
    diff_path = tmp_path / "diff.json"
    assert cli.main(["compare", str(outs[0]), str(outs[1]), "--out", str(diff_path)]) == 0
    report = json.loads(diff_path.read_text())
    assert "richardson_a" in report
    assert report["max_rel_diff"] > 0


def test_threaded_sweep_matches_serial(pipeline_runs, tmp_path, monkeypatch):
    base, out1, _ = pipeline_runs
    monkeypatch.setenv("TM_THREADS", "3")
    out3 = tmp_path / "threaded"
    assert cli.main(["run", str(base / "run.json"), "--out-dir", str(out3)]) == 0
    assert (out3 / "results.json").read_bytes() == (out1 / "results.json").read_bytes()
    assert (out3 / "margins.csv").read_bytes() == (out1 / "margins.csv").read_bytes()


def test_sharpness_model_follows_imported_mesh(tmp_path):
    sharp = {"ell": 2, "beta_grid": [22.6], "k_grid": [100, 1000]}
    built = _run_config(tmp_path, "built.json", surface={"kind": "sphere", "level": 2},
                        pipeline=["mesh", "sharpness"], sharpness=sharp)
    assert cli.main(["run", str(built), "--out-dir", str(tmp_path / "built")]) == 0
    surface = {"kind": "off", "path": str(tmp_path / "built" / "mesh.off"),
               "perms": str(tmp_path / "built" / "group.json")}
    imported = _run_config(tmp_path, "imported.json", surface=surface,
                           pipeline=["sharpness"], sharpness=sharp)
    assert cli.main(["run", str(imported), "--out-dir", str(tmp_path / "imported")]) == 0
    rows = [json.loads((tmp_path / d / "results.json").read_text())["sharpness"]
            for d in ("built", "imported")]
    assert rows[0] == rows[1]


@pytest.fixture(scope="module")
def parity_runs(tmp_path_factory):
    """`tm bounds`, `tm maximize` and `tm run` on the same sphere and parameters."""
    tmp_path = tmp_path_factory.mktemp("parity")
    sphere = ["--surface", "sphere", "--group", "antipodal", "--alpha", "1.5"]
    bounds, state = tmp_path / "bounds.json", tmp_path / "state.json"
    assert cli.main(["bounds", *sphere, "--level", "3", "--eps", "1e-3", "1e-4",
                     "--out", str(bounds)]) == 0
    assert cli.main(["maximize", *sphere, "--surface-level", "3", "--eig-count", "8",
                     "--eps", str(2 * np.pi), "--out", str(state)]) == 0
    cfg = _run_config(tmp_path, alpha=1.5, pipeline=["bounds", "maximize"],
                      maximize={"epsilon_sub": 2 * np.pi})
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
    docs = [json.loads(p.read_text()) for p in
            (bounds, state, tmp_path / "run" / "results.json", tmp_path / "run" / "state.json")]
    return docs


def test_subcommands_match_run(parity_runs):
    bounds, state, results, run_state = parity_runs
    assert bounds["green"] == results["green"]
    assert bounds["upper_bound"] == results["upper_bound"]
    assert bounds["sweep"] == results["bounds"]
    without_u = {k: v for k, v in state["state"].items() if k != "u"}
    assert results["maximize"] == without_u | {"multiplier_checks": state["multiplier_checks"]}
    assert run_state["state"]["u"] == state["state"]["u"]


def test_green_and_maximize_share_one_factorization(tmp_path, monkeypatch):
    # level 3 takes the dense eigensolver, so every splu call is a shifted-operator factorization
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    cfg = _run_config(tmp_path, pipeline=["green", "maximize"], maximize={"epsilon_sub": 2 * np.pi})
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1

    # a maximizer alpha of its own gets its own factorization; none outlives its last stage
    own_alpha = {"surface": {"kind": "sphere", "level": 3}, "group": "antipodal", "alpha": 1.5,
                 "maximize": {"alpha": 1.0, "epsilon_sub": 2 * np.pi}}
    ctx = cli.run_stages(cli.Context(own_alpha), ["green", "maximize"])
    assert len(calls) == 3
    assert ctx.solver is None


def test_compare_rejects_non_run_directory(tmp_path):
    (tmp_path / "x").mkdir()
    assert cli.main(["compare", str(tmp_path / "x"), str(tmp_path / "x")]) == 2


def test_benchmark_traces_every_layer_function():
    # perfbench/child.py wraps the functions it names in TRACED; a renamed or
    # deleted one would silently empty its per-layer metric.  A subprocess,
    # because install patches modules globally and child pins thread variables.
    root = Path(__file__).resolve().parent.parent
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "import tmsurf.cli\n"
        "import child\n"
        "print(json.dumps(child.install(child.Recorder())))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
