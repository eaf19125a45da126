"""Every artifact of three fixed `tm run` pipelines, pinned by its sha256.

The runs are criterion 13's seven-stage level-3 sphere, a 64x64 torus with
the half-period shifts exported by the `mesh` stage, and that export read
back for a `green` run.  Each goes through `python -m tmsurf.cli` in a fresh
interpreter with BLAS pinned to one thread, from a working directory that
holds the configs, so every path in them is relative and `config.json` is
stable.  A change that moves any byte on purpose updates GOLDEN and says
which files moved and why.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import tmsurf

SRC = Path(tmsurf.__file__).resolve().parent.parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
ALPHA = {"gap_fraction": 0.25, "level": 1}

# config name -> (config, output directory)
RUNS = {
    "criterion13.json": (
        {
            "schema": 1,
            "surface": {"kind": "sphere", "level": 3},
            "group": "antipodal",
            "alpha": ALPHA,
            "pipeline": ["mesh", "spectrum", "green", "bounds", "maximize", "diagnostics", "sharpness"],
            "bounds": {"epsilons": [1e-3, 1e-4]},
            "maximize": {"epsilon_sub": 2 * math.pi},
            "diagnostics": {"radii": [0.4, 0.8]},
            "sharpness": {"beta_grid": [0.9 * 8 * math.pi, 1.1 * 8 * math.pi], "k_grid": [100, 1000]},
        },
        "sphere",
    ),
    "export.json": (
        {
            "schema": 1,
            "surface": {"kind": "torus", "nx": 64, "ny": 64},
            "group": "shift(32,0)+shift(0,32)",
            "pipeline": ["mesh"],
        },
        "export",
    ),
    "import.json": (
        {
            "schema": 1,
            "surface": {"kind": "off", "path": "export/mesh.off", "perms": "export/group.json"},
            "alpha": ALPHA,
            "pipeline": ["green"],
        },
        "import",
    ),
}

GOLDEN = {
    "sphere/config.json": "ff010ca0d1138faa20280c55a1eda09687cbd9e48b2d839fca8d3418ac1d16a3",
    "sphere/group.json": "11a75cd70d5274943aa017381d5ed2be79a1d41d7c2743dcc51551ee201e4853",
    "sphere/manifest.json": "2b13acf21a1a900252b1e3029b434f79c7ae5a87996207b66c37f2678cad160a",
    "sphere/margins.csv": "f74d3e3c56d70ad71a8e81a8f71102e475e0cea55e56c4b23de9b54c72a803e2",
    "sphere/mesh.off": "9e6d5eca2889ffb8e4dedc4ac65c57d749e90cafcd197729bb5f4c38e2754b9a",
    "sphere/results.json": "54a8b61729b7856d4f39d0176b42c48dc4efa68e7aeb6cebbc949ff24f4ec15a",
    "sphere/state.json": "dc2e959ff28540e71ccd32a8160d234c5878e6e1eb3e604e8e81e77f47190d78",
    "export/config.json": "4a308a0832c656beb2eff9f694dcf58dbef941aefa0be1994aa7b6375d4c0766",
    "export/group.json": "d0fd0e3fe2b5bfb5e051741144b854b4ed34855f02ac02496916b2dae83eee63",
    "export/manifest.json": "6f6890302f187e6b74b9eb995c3c87226092f48e9d16f770c6de4937c5b218dd",
    "export/mesh.off": "fe2ce2293ee01073f0797a9c7b57e2e9ee77f4c6e17c1ba71dd2ca04ac4bf314",
    "export/results.json": "fd0649e6aeaf0d28665022fbf834d1cc1fe2d7a7069455481606f80f7b5b3346",
    "import/config.json": "db5641b2f60fcbd4c784a2c0e4fc2a88591e9cb53c0b5f351f46d8aaa422ebc7",
    "import/manifest.json": "6b96c77ae717f963b73d4a456cb002a305f6f540329b9379d476ebd100704b26",
    "import/results.json": "2209e3ae057944c528d5a2315d86007cb5ca1a4a17db0ccc8205119efd80f1ee",
}


def artifact_hashes(work: Path) -> dict:
    """Run every config of RUNS in ``work``, in order; sha256 of each file written."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}
    hashes = {}
    for name, (cfg, out) in RUNS.items():
        (work / name).write_text(json.dumps(cfg, indent=2) + "\n")
        cmd = [sys.executable, "-m", "tmsurf.cli", "run", name, "--out-dir", out]
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        assert done.returncode == 0, (name, done.stderr)
        for path in sorted((work / out).iterdir()):
            hashes[f"{out}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_artifacts_match_golden_hashes(tmp_path):
    assert artifact_hashes(tmp_path) == GOLDEN
