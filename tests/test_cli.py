"""End-to-end checks of the command line: artifacts, determinism, exit codes.

Every invocation goes through ``cli.main`` in-process so coverage and error
paths stay visible to the test runner.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from tmsurf import cli, geometry
from tmsurf.geometry import GroupError, MeshError, check_group_action, read_group_json, read_off


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


def test_canonical_json_of_arrays():
    # one tolist() pass per numeric array, with non-finite floats as null
    payload = {
        "u": np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 5e-324]),
        "grid": np.array([[1.5, np.nan], [2.0, 3.0]]),
        "ints": np.arange(3, dtype=np.int32),
        "flags": np.array([True, False]),
        "empty": np.zeros((0, 3)),
        "f32": np.float32([0.25]),
    }
    assert json.loads(cli.canonical_json(payload)) == {
        "u": [0.1, -0.0, None, None, None, 5e-324],
        "grid": [[1.5, None], [2.0, 3.0]],
        "ints": [0, 1, 2],
        "flags": [True, False],
        "empty": [],
        "f32": [0.25],
    }
    assert '"u": [\n    0.1,\n    -0.0,\n    null,' in cli.canonical_json(payload)


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
    assert csv_lines[0] == "eps,margin,value,log_value,bound,bound_log,tether,margin_c_sq,b_const,c_sq"
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


@pytest.mark.parametrize(
    "argv, key",
    [
        (["maximize", "--max-iters", "0"], "max_iters"),
        (["maximize", "--tol", "-1"], "tol"),
        (["bounds", "--n-quad", "0"], "n_quad"),
        (["spectrum", "--rng-seed", "-1"], "rng_seed"),  # the dense path draws no random start
    ],
    ids=["max-iters", "tol", "n-quad", "rng-seed"],
)
def test_solver_setting_out_of_range_exits_2(tmp_path, capsys, argv, key):
    command, *flags = argv
    extra = ["--alpha", "1.5", "--eps", str(2 * np.pi)] if command == "maximize" else []
    level = "--surface-level" if command == "maximize" else "--level"
    capsys.readouterr()
    assert cli.main([command, level, "3", "--group", "antipodal", *extra, *flags,
                     "--out", str(tmp_path / "x.json")]) == 2
    assert f"config '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("periods", [["1", "-1"], ["0", "1"], ["1", "inf"]])
def test_sharpness_torus_periods_out_of_range_exit_2(tmp_path, capsys, periods):
    argv = ["sharpness", "--surface", "torus", "--periods", *periods, "--beta-grid", "22.6",
            "--k-grid", "100", "1000", "--out", str(tmp_path / "s.csv")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "torus 'periods' must be positive and finite" in capsys.readouterr().err


def test_group_json_with_non_integer_entries_exits_2(tmp_path, capsys):
    # the reflection swapping vertices 0 and 1 is a symmetry of the tetrahedron
    tet, perms = tmp_path / "tet.off", tmp_path / "perms.json"
    tet.write_text(_TETRAHEDRON)
    argv = ["spectrum", "--mesh", str(tet), "--perms", str(perms), "--count", "1",
            "--out", str(tmp_path / "s.json")]
    perms.write_text('{"permutations": [[0, 1, 2, 3], [1, 0, 2, 3]]}')
    assert cli.main(argv) == 0
    for row in ("[1, 0, 2.0, 3]", "[true, false, 2, 3]", '["1", "0", "2", "3"]'):
        perms.write_text('{"permutations": [[0, 1, 2, 3], ' + row + "]}")
        capsys.readouterr()
        assert cli.main(argv) == 2, row
        assert "JSON integers" in capsys.readouterr().err


def test_bad_group_exits_2(tmp_path, capsys):
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

    # the same swap on a 3x4 torus: only the triangle-set check can reject it
    torus = tmp_path / "t.off"
    assert cli.main(["mesh", "--surface", "torus", "--nx", "3", "--ny", "4", "--out", str(torus)]) == 0
    swap = list(range(12))
    swap[0], swap[1] = 1, 0
    perms.write_text(json.dumps({"name": "swap", "permutations": [sorted(swap), swap]}))
    capsys.readouterr()
    assert cli.main(["mesh", "--mesh", str(torus), "--perms", str(perms),
                     "--out", str(tmp_path / "t2.off")]) == 2
    assert "group 'swap' does not preserve the triangle set" in capsys.readouterr().err


def test_imported_torus_with_flipped_diagonal_exits_2(tmp_path, capsys):
    # a built-in shift kind on an imported torus: the vertices form the grid,
    # but cell (0,0) has its other diagonal, which shift(3,0) does not preserve
    torus, flipped = tmp_path / "t6.off", tmp_path / "t6flip.off"
    assert cli.main(["mesh", "--surface", "torus", "--nx", "6", "--ny", "6", "--out", str(torus)]) == 0
    lines = torus.read_text().splitlines()
    first, second = lines.index("3 0 6 7"), lines.index("3 0 7 1")
    lines[first], lines[second] = "3 0 6 1", "3 6 7 1"
    flipped.write_text("\n".join(lines) + "\n")
    argv = ["spectrum", "--group", "shift(3,0)", "--count", "4"]
    capsys.readouterr()
    assert cli.main(argv + ["--mesh", str(flipped), "--out", str(tmp_path / "flip.json")]) == 2
    assert "group 'shift(3,0)' does not preserve the triangle set" in capsys.readouterr().err
    assert cli.main(argv + ["--mesh", str(torus), "--out", str(tmp_path / "grid.json")]) == 0


def test_group_with_smaller_face_orbits_exits_2(tmp_path, capsys):
    # the rotation group T (order 12) is an exact symmetry of the icosphere,
    # but its 3-fold axes pass through face centres, never through vertices:
    # triangle orbits of size 4 against vertex orbits of size 6 or more.
    # T_h adds the inversion, which doubles those face orbits to 8.
    sphere = tmp_path / "ico2.off"
    assert cli.main(["mesh", "--level", "2", "--out", str(sphere)]) == 0
    verts = read_off(sphere).vertices
    cyc = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    rot = np.diag([-1, -1, 1]).astype(np.int64)
    inversion = -np.eye(3, dtype=np.int64)
    streams = {}
    for name, gens, code in (("T", [cyc, rot], 2), ("Th", [cyc, rot, inversion], 0)):
        perms = geometry._close(geometry._vertex_permutations(verts, gens, name), 48)
        export = tmp_path / f"{name}.json"
        export.write_text(json.dumps({"name": name, "permutations": perms.tolist()}))
        capsys.readouterr()
        assert cli.main(["mesh", "--mesh", str(sphere), "--perms", str(export),
                         "--out", str(tmp_path / f"{name}.off")]) == code
        streams[name] = capsys.readouterr()
    err = streams["T"].err
    assert "triangle orbit of size 4, below its smallest vertex orbit of size 6" in err
    assert "need a vertex on a minimal orbit" in err
    assert "group 'Th' of order 24, ell=6" in streams["Th"].out


def test_disconnected_mesh_exits_2(tmp_path, capsys):
    # two disjoint level-2 icospheres pass every per-edge and per-triangle
    # check, and the second one's constant mode would read as lambda_1^G = 0
    mesh, _ = geometry.build_sphere_mesh(2)
    verts = np.vstack([mesh.vertices, mesh.vertices + [3.0, 0.0, 0.0]])
    tris = np.vstack([mesh.triangles, mesh.triangles + mesh.n_vertices])
    path = tmp_path / "two.off"
    path.write_text(
        f"OFF\n{len(verts)} {len(tris)} 0\n"
        + "".join("%r %r %r\n" % tuple(v) for v in verts.tolist())
        + "".join("3 %d %d %d\n" % tuple(t) for t in tris.tolist())
    )
    with pytest.raises(MeshError, match="mesh has 2 connected components"):
        read_off(path)
    capsys.readouterr()
    for sub in ("spectrum", "green"):
        assert cli.main([sub, "--mesh", str(path), "--out", str(tmp_path / f"{sub}.json")]) == 2
        assert "2 connected components" in capsys.readouterr().err


def test_non_isometric_group_exits_2(tmp_path):
    # vertex 0 of a level-1 antipodal sphere pushed out to radius 1.3: the
    # antipodal permutations still form a group preserving the triangles, but
    # the edges at vertex 0 no longer match those at its antipode
    mesh, export = tmp_path / "s.off", tmp_path / "s.json"
    argv = ["mesh", "--level", "1", "--group", "antipodal", "--out", str(mesh)]
    assert cli.main(argv + ["--perms-out", str(export)]) == 0
    lines = mesh.read_text().splitlines()
    lines[3] = " ".join(repr(1.3 * float(x)) for x in lines[3].split())
    mesh.write_text("\n".join(lines) + "\n")
    scaled = read_off(mesh)
    action = read_group_json(export, scaled.n_vertices)
    with pytest.raises(GroupError, match="not an isometry"):
        check_group_action(scaled, action)
    assert cli.main(["spectrum", "--mesh", str(mesh), "--perms", str(export),
                     "--out", str(tmp_path / "spec.json")]) == 2

    # the unscaled export passes
    assert cli.main(argv) == 0
    check_group_action(read_off(mesh), action)


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


def test_eigen_count_is_checked_before_assembly(tmp_path, monkeypatch, capsys):
    # a bad eigen_count exits 2 before the run pays for assembly and reduction
    def no_assembly(mesh):
        raise RuntimeError("assembled before eigen_count was checked")

    monkeypatch.setattr(cli, "assemble", no_assembly)
    cfg = _run_config(tmp_path, eigen_count=0)
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "config 'eigen_count'" in capsys.readouterr().err


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

    # a maximizer alpha of its own gets its own factorization; the orbit space
    # holds none after the last stage that solves
    own_alpha = {"surface": {"kind": "sphere", "level": 3}, "group": "antipodal", "alpha": 1.5,
                 "maximize": {"alpha": 1.0, "epsilon_sub": 2 * np.pi}}
    ctx = cli.run_stages(cli.Context(own_alpha), ["green", "maximize"])
    assert len(calls) == 3
    assert ctx.red.held is None

    # level 5 takes eigsh, whose shift-invert operator is the orbit space's
    # solver at -0.5; the Green alpha replaces it, and nothing else factors
    del calls[:]
    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    hidden = []
    for module, names in ((arpack, ("splu", "lu_factor", "gmres")),
                          (scipy.sparse.linalg, ("spilu", "factorized"))):
        for name in names:
            monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), _name=name, **k:
                                hidden.append(_name) or _f(*a, **k))
    level5 = {"surface": {"kind": "sphere", "level": 5}, "group": "antipodal",
              "alpha": {"gap_fraction": 0.25, "level": 1}}
    ctx = cli.run_stages(cli.Context(level5), ["green"])
    assert hidden == []
    red, p = ctx.red, ctx.red.order
    assert len(calls) == 2
    for (factored,), alpha in zip(calls, (-0.5, ctx.dec.alpha)):
        want = (red.stiffness - alpha * red.mass)[p][:, p]
        assert abs(factored - want).max() == 0.0
    assert ctx.red.held is None


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


def test_benchmark_selftest_passes(tmp_path):
    # the traced path end to end on a level-3 sphere, through the functions
    # perfbench/child.py wraps: the gate passes, spans nest and the metrics
    # are those BENCHMARK.json declares.  It runs from a copy of perfbench/
    # and src/ (child.py refuses a tmsurf that resolves outside its own
    # tree) with BENCHMARK.json linked in, so its work directory lies under
    # tmp_path and nothing is written into the checkout.
    root = Path(__file__).resolve().parent.parent
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for script in (root / "perfbench").glob("*.py"):
        shutil.copy(script, bench / script.name)
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").symlink_to(root / "BENCHMARK.json")
    done = subprocess.run([sys.executable, str(bench / "selftest.py")], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "selftest: ok"


def test_pipeline_loads_no_scipy_special_integrate_or_optimize(tmp_path):
    # these scipy subpackages cost start-up time and resident memory in every
    # tm process and nothing in the pipeline needs them.  Nor does the Green
    # module need the family or the Moser caps, which import it.  A subprocess,
    # because the test session itself has imported them.  Level 3, because on
    # a level-2 sphere the Green fit annulus reaches past the surface scale
    # and the stages after green would not run.
    cfg = {
        "schema": 1,
        "surface": {"kind": "sphere", "level": 3},
        "group": "antipodal",
        "alpha": {"gap_fraction": 0.25, "level": 1},
        "pipeline": ["mesh", "spectrum", "green", "bounds", "maximize", "diagnostics", "sharpness"],
        "bounds": {"epsilons": [1e-3]},
        "maximize": {"epsilon_sub": 2 * np.pi},
        "diagnostics": {"radii": [0.4, 0.8]},
        "sharpness": {"beta_grid": [0.9 * 8 * np.pi], "k_grid": [100, 1000]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    root = Path(__file__).resolve().parent.parent
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}]\n"
        "names = ('scipy.special', 'scipy.integrate', 'scipy.optimize')\n"
        "import tmsurf.constructions.green\n"
        "after_green = [m for m in sys.modules if m.startswith('tmsurf.constructions.')]\n"
        "import tmsurf.cli\n"
        "after_import = [m for m in names if m in sys.modules]\n"
        f"rc = tmsurf.cli.main(['run', {str(path)!r}, '--out-dir', {str(tmp_path / 'out')!r}])\n"
        "after_run = [m for m in names if m in sys.modules]\n"
        "print(json.dumps([sorted(after_green), after_import, rc, after_run]))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    green_only = ["tmsurf.constructions.green", "tmsurf.constructions.radial"]
    assert json.loads(out.stdout.splitlines()[-1]) == [green_only, [], 0, []]
