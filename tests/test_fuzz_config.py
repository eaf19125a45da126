"""The `tm run` config loader fed one key of the wrong JSON type or value.

Each example starts from a small config that exits 0 and replaces one key:
a scalar by an object, a list or null, and a list by a number, a non-numeric
string or null.  `tm run` must exit 0 (the stage that reads the key did not
run) or 2 (input error, no `results.json`); exit 1 would be a traceback and
exit 3 a stage failure blamed on the numerics.  A numeric key of the sphere
config set to NaN or +-Infinity, which `json` reads as floats, must exit 2:
that config runs every stage, and so must a solver setting outside its range
(a finite list of cases).  Examples are derandomized, so every run checks the
same configs.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsurf import cli

# max_examples exceeds the number of (key, wrong value) pairs, so every pair runs
FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# every stage runs; level 3 because the Green fit needs more vertices than level 2 has
SPHERE = {
    "schema": 1,
    "rng_seed": 0,
    "eigen_count": 4,
    "surface": {"kind": "sphere", "level": 3},
    "group": "antipodal",
    "alpha": {"gap_fraction": 0.25, "level": 1},
    "pipeline": list(cli.STAGES),
    "green": {"source": "auto"},
    "bounds": {"epsilons": [1e-3], "n_quad": 100},
    "maximize": {"level": 1, "alpha": 1.5, "epsilon_sub": 6.28, "seed": "moser",
                 "max_iters": 5, "tol": 1e-8},
    "diagnostics": {"radii": [0.2]},
    "sharpness": {"ell": 2, "beta_grid": [22.6], "k_grid": [10, 100], "r": 0.05, "alpha": 0.0},
}
TORUS = {
    "surface": {"kind": "torus", "nx": 12, "ny": 12, "periods": [1.0, 1.0]},
    "group": "shift(6,0)",
    "pipeline": ["spectrum"],
}
OFF = {"surface": {"kind": "off", "path": "mesh.off", "perms": "group.json"}, "pipeline": ["spectrum"]}

LISTS = {"epsilons", "radii", "beta_grid", "k_grid", "periods"}
KEYS = [
    ("sphere", path)
    for path in [
        *[(k,) for k in ("schema", "rng_seed", "eigen_count", "group", "alpha", "pipeline", "out_dir")],
        ("alpha", "gap_fraction"), ("alpha", "level"),
        *[("surface", k) for k in ("kind", "level", "nx")],
        *[(section, k) for section in ("green", "bounds", "maximize", "diagnostics", "sharpness")
          for k in SPHERE[section]],
    ]
] + [("torus", ("surface", k)) for k in ("nx", "ny", "periods")] + [
    ("torus", ("group",)), ("off", ("surface", "path")), ("off", ("surface", "perms"))
]
WRONG_SCALAR = [{}, {"x": 1}, [], [1.0], None]
WRONG_LIST = [5, 0.5, "abc", None]
CASES = [
    (name, path, wrong)
    for name, path in KEYS
    for wrong in (WRONG_LIST if path[-1] in LISTS else WRONG_SCALAR)
]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
NUMERIC_KEYS = [
    path for name, path in KEYS
    if name == "sphere"
    and (path[-1] in LISTS or isinstance(functools.reduce(dict.get, path, SPHERE), (int, float)))
]
NUMERIC_CASES = [(path, [bad] if path[-1] in LISTS else bad) for path in NUMERIC_KEYS for bad in NON_FINITE]
OUT_OF_RANGE = [
    (("maximize", "max_iters"), 0), (("maximize", "max_iters"), -3),
    (("maximize", "tol"), 0.0), (("maximize", "tol"), -1), (("maximize", "tol"), -1e-12),
    (("bounds", "n_quad"), 0), (("bounds", "n_quad"), -1),
]


@pytest.fixture(scope="module")
def off_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("off")
    argv = ["mesh", "--surface", "sphere", "--level", "2", "--group", "antipodal",
            "--out", str(d / "mesh.off"), "--perms-out", str(d / "group.json")]
    assert cli.main(argv) == 0
    return d


def _base(name: str, off_dir: Path) -> dict:
    cfg = copy.deepcopy(SPHERE)
    if name == "torus":
        cfg.update(copy.deepcopy(TORUS))
    elif name == "off":
        cfg.update(copy.deepcopy(OFF))
        for key in ("path", "perms"):
            cfg["surface"][key] = str(off_dir / cfg["surface"][key])
    return cfg


def _run(cfg: dict) -> tuple[int, bool]:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(d) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(path), "--out-dir", str(out)])
        return code, (out / "results.json").exists()


@pytest.mark.parametrize("name", ["sphere", "torus", "off"])
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_base_configs_exit_0(name, off_dir):
    assert _run(_base(name, off_dir)) == (0, True)


@FUZZ
@given(case=st.sampled_from(CASES))
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_wrong_key_type_exits_0_or_2(off_dir, case):
    name, path, wrong = case
    cfg = _base(name, off_dir)
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = copy.deepcopy(wrong)
    code, wrote_results = _run(cfg)
    assert code in (0, 2), (path, wrong, code)
    if code == 2:
        assert not wrote_results, (path, wrong)


@FUZZ
@given(case=st.sampled_from(NUMERIC_CASES))
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_non_finite_number_exits_2(off_dir, case):
    path, bad = case
    cfg = _base("sphere", off_dir)
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = bad
    assert _run(cfg) == (2, False), (path, bad)


@pytest.mark.parametrize("path, bad", OUT_OF_RANGE, ids=[f"{p[-1]}={b}" for p, b in OUT_OF_RANGE])
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_solver_setting_out_of_range_exits_2(off_dir, path, bad):
    cfg = _base("sphere", off_dir)
    cfg[path[0]][path[1]] = bad
    assert _run(cfg) == (2, False), (path, bad)
