"""Mutation fuzzing of the CLI's file inputs.

Valid input files (the crosstree fixtures and two small family files) are
mutated by inserting, deleting and replacing bytes, then every command that
reads them runs through ``main``. Whatever the input, the CLI contract must
hold: no exception escapes, the exit code is 0, 1 or 2, and exit 2 comes
with an ``error:`` line on stderr.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crossfree.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "crosstree"

INPUTS = {
    "pair": b"n 5\n0,1\n1,2,3\n",
    "family": b"n 5\n-\n0,1\n1,2,3\n2,4\n0,1,2,3,4\n",
    "chains": (FIXTURES / "chains.txt").read_bytes(),
    "ordering": (FIXTURES / "ordering.txt").read_bytes(),
    "tree": (FIXTURES / "tree.json").read_bytes(),
}

# Bytes that are meaningful in some input format, plus one that is not UTF-8.
ALPHABET = b"0123456789,;-# \n\t.{}[]:\"achildrenux\xff"


def commands(paths):
    chains, ordering, tree = paths["chains"], paths["ordering"], paths["tree"]
    inputs = ["--chains", chains, "--ordering", ordering]
    family_commands = [
        argv + [paths[family]]
        for family in ("pair", "family")
        for argv in (["check", "--k", "2"], ["decompose"], ["search", "--k", "2"], ["classify"])
    ]
    return family_commands + [
        ["chains", "select", "--k", "2", "--seed", "1", chains],
        ["chains", "check", "--k", "2", "--indices", "0,1", "--ordering", ordering, chains],
        ["tree", "validate", *inputs, tree],
        ["tree", "extract", *inputs, "--k", "2", tree],
        ["tree", "build", *inputs, "--indices", "0,1,2", "--k", "2", "--height", "1", "--branching", "1"],
        ["tree", "prune", "--keep", "0", tree],
    ]


@st.composite
def mutated_inputs(draw):
    name = draw(st.sampled_from(sorted(INPUTS)))
    data = bytearray(INPUTS[name])
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(ALPHABET))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "delete":
                del data[pos]
            else:
                data[pos] = byte
    return name, bytes(data)


@settings(max_examples=200, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_keep_the_cli_contract(mutation):
    name, data = mutation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, content in INPUTS.items():
            path = Path(tmp) / key
            path.write_bytes(data if key == name else content)
            paths[key] = str(path)
        for argv in commands(paths):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            if code == 2:
                assert any(line.startswith("error: ") for line in err.getvalue().splitlines()), (argv, err.getvalue())
