"""Fuzzing of the CLI's file inputs and integer options.

Valid input files (the crosstree fixtures and two small family files) are
mutated by inserting, deleting and replacing bytes, then every command that
reads them runs through ``main``. Separately, the integer options are drawn
from small ranges that include 0 and negative values, on the unmutated
files. Whatever the input, the CLI contract must hold: no exception
escapes, the exit code is 0, 1 or 2, and exit 2 comes with an ``error:``
line on stderr.
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


def write_inputs(tmp, replaced=None, data=None):
    """Write every input file into ``tmp``; ``replaced`` gets ``data``."""
    paths = {}
    for key, content in INPUTS.items():
        path = Path(tmp) / key
        path.write_bytes(data if key == replaced else content)
        paths[key] = str(path)
    return paths


def assert_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines()), (argv, err.getvalue())


@settings(max_examples=200, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_keep_the_cli_contract(mutation):
    name, data = mutation
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(write_inputs(tmp, name, data)):
            assert_cli_contract(argv)


# Four chains with pairwise incomparable bases: no tree root finds a subtree.
INCOMPARABLE_CHAINS = "n 12\n" + "".join(f"chain {2 + 2 * i},{3 + 2 * i}; 0,1\n" for i in range(4))
NATURAL_ORDERING = " ".join(str(x) for x in range(12)) + "\n"


def option_commands(paths, v):
    """Every command that takes an integer option, with the drawn values."""
    chains, ordering, tree, family = paths["chains"], paths["ordering"], paths["tree"], paths["family"]
    inputs = ["--chains", chains, "--ordering", ordering]
    incomparable = ["--chains", paths["incomparable"], "--ordering", paths["natural"]]
    build = ["--k", v["k"], "--height", v["height"], "--branching", v["branching"]]
    return [
        ["gen", "laminar", "--n", v["n"]],
        ["gen", "intervals", "--n", v["n"]],
        ["gen", "random", "--n", v["random_n"], "--k", v["k"], "--seed", v["seed"]],
        ["check", "--k", v["k"], family],
        ["search", "--k", v["k"], family],
        ["reduce", "--k", v["k"], family],
        ["chains", "extract", "--h", v["h"], family],
        ["chains", "select", "--k", v["k"], "--multiplier", v["multiplier"], "--seed", v["seed"], chains],
        ["chains", "check", "--k", v["k"], "--multiplier", v["multiplier"], "--indices", "0,1",
         "--ordering", ordering, chains],
        ["tree", "extract", *inputs, "--k", v["k"], tree],
        ["tree", "build", *inputs, "--indices", "0,1,2", *build],
        ["tree", "build", *incomparable, "--indices", "0,1,2,3", *build],
    ]


SMALL = st.integers(-3, 10).map(str)
OPTIONS = st.fixed_dictionaries({
    "n": SMALL,
    "random_n": st.integers(-3, 8).map(str),
    "k": SMALL,
    "h": SMALL,
    "height": st.integers(-3, 4).map(str),
    "branching": st.integers(-3, 4).map(str),
    "multiplier": SMALL,
    "seed": SMALL,
})


@settings(max_examples=100, deadline=None)
@given(OPTIONS)
def test_integer_options_keep_the_cli_contract(values):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(tmp)
        for key, text in (("incomparable", INCOMPARABLE_CHAINS), ("natural", NATURAL_ORDERING)):
            paths[key] = str(Path(tmp) / key)
            Path(paths[key]).write_text(text)
        for argv in option_commands(paths, values):
            assert_cli_contract(argv)
