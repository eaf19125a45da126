"""Mutated OFF and permutation files: a valid result or the reader's own error.

Each example applies a few token edits (truncate, drop, insert, replace) to a
valid file.  `read_off` must return a mesh or raise `MeshError`;
`read_group_json` followed by `check_group_action` must return a group or
raise `GroupError`.  Any other exception is a crash the CLI would report as
a traceback.  Examples are derandomized, so every run checks the same files.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsurf.geometry import (
    GroupError,
    MeshError,
    SurfaceMesh,
    build_flat_torus_mesh,
    build_sphere_mesh,
    check_group_action,
    read_group_json,
    read_off,
    write_off,
)

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)

OFF_JUNK = [
    "nan", "-nan", "inf", "1e999", "-1", "-3", "0", "3", "4", "1.5", "-0.0", "abc", "OFF",
    "99999999999999999999999", "#", "#", "# sphere level", "# torus periods 1", "torus", "\n",
    # tokens that Python's float()/int() and numpy's C readers treat differently
    "1_0", "+3", "3.0", "1e2", "0x10", "\u0663", "\u00a0", "-", "+",
]
JSON_JUNK = [
    "NaN", "Infinity", "1e999", "-1", "0", "1", "2", "3", "4", "1.5", "true", "null", '"x"',
    '"1"', "99999999999999999999999", "[", "]", "{", "}", ",", ":", '"permutations"',
]

# token edits: (kind, position, junk pick); both indices wrap around their lists
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["truncate", "drop", "insert", "replace"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(tokens: list[str], edits, junk: list[str]) -> list[str]:
    tokens = list(tokens)
    for kind, pos, pick in edits:
        i = pos % (len(tokens) + 1)
        token = junk[pick % len(junk)]
        if kind == "truncate":
            del tokens[i:]
        elif kind == "insert":
            tokens.insert(i, token)
        elif i < len(tokens):
            if kind == "drop":
                del tokens[i]
            else:
                tokens[i] = token
    return tokens


def _off_tokens(mesh) -> list[str]:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.off"
        write_off(mesh, path)
        # words and line breaks, so comments keep ending at the end of their line
        return re.findall(r"\S+|\n", path.read_text())


OFF_BASES = {
    "sphere": _off_tokens(build_sphere_mesh(0, "antipodal")[0]),
    "torus": _off_tokens(build_flat_torus_mesh(3, 4)[0]),
}

TETRAHEDRON = "OFF\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
ROTATIONS = (
    '{"name": "c3", "order": 3, "n_vertices": 4, '
    '"permutations": [[0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3]]}'
)
JSON_TOKENS = re.findall(r'"[^"]*"|[\[\]{},:]|[^\s\[\]{},:"]+', ROTATIONS)


@FUZZ
@given(base=st.sampled_from(sorted(OFF_BASES)), edits=EDITS)
def test_read_off_mutations(tmp_path_factory, base, edits):
    path = tmp_path_factory.mktemp("off") / "m.off"
    path.write_text(" ".join(_mutate(OFF_BASES[base], edits, OFF_JUNK)))
    try:
        mesh = read_off(path)
    except MeshError:
        return
    assert isinstance(mesh, SurfaceMesh)


@FUZZ
@given(edits=EDITS)
def test_read_group_json_mutations(tmp_path_factory, edits):
    tmp = tmp_path_factory.mktemp("group")
    (tmp / "tet.off").write_text(TETRAHEDRON)
    mesh = read_off(tmp / "tet.off")
    path = tmp / "g.json"
    path.write_text("".join(_mutate(JSON_TOKENS, edits, JSON_JUNK)))
    try:
        action = read_group_json(path, mesh.n_vertices)
        check_group_action(mesh, action)
    except GroupError:
        return
    assert action.order >= 1 and action.permutations.shape[1] == mesh.n_vertices


def test_unmutated_bases_are_valid(tmp_path):
    for name, tokens in OFF_BASES.items():
        (tmp_path / f"{name}.off").write_text(" ".join(tokens))
        assert isinstance(read_off(tmp_path / f"{name}.off"), SurfaceMesh)
    (tmp_path / "tet.off").write_text(TETRAHEDRON)
    (tmp_path / "g.json").write_text("".join(JSON_TOKENS))
    mesh = read_off(tmp_path / "tet.off")
    action = read_group_json(tmp_path / "g.json", mesh.n_vertices)
    check_group_action(mesh, action)
    assert action.order == 3


@pytest.mark.parametrize(
    "old, new",
    [
        ("3 0 3 1", "3 0 3.0 1"),  # a face entry must be an integer literal
        ("3 0 3 1", "3 0 \u0663 1"),  # an Arabic-Indic digit three
        ("-1 1 -1", "-1 \u0661 -1"),  # an Arabic-Indic digit one
        ("-1 1 -1", "-1\u00a01 -1"),  # a non-ASCII space
        ("3 1 3 2\n", "3 1 3 -\n"),  # a lone sign, which numpy's reader takes for 0
        ("3 0 3 1", "3 0 - 3 1"),  # a lone sign, which numpy's reader joins to the 3
        ("1 1 1", "1 1_0 1"),  # Python's digit grouping
    ],
    ids=["float_face", "arabic_face", "arabic_coord", "nbsp", "trailing_sign", "split_sign", "underscore"],
)
def test_read_off_rejects_non_ascii_decimal_literals(tmp_path, old, new):
    assert old in TETRAHEDRON
    path = tmp_path / "tet.off"
    path.write_text(TETRAHEDRON.replace(old, new))
    with pytest.raises(MeshError, match="malformed"):
        read_off(path)


def test_read_off_reads_signed_and_exponent_literals(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TETRAHEDRON.replace("1 1 1", "+0.5 1e-3 +1", 1).replace("3 0 1 2", "+3 0 +1 2"))
    mesh = read_off(path)
    assert mesh.vertices[0].tolist() == [0.5, 0.001, 1.0]
    assert np.array_equal(mesh.triangles[0], [0, 1, 2])
