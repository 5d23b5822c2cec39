import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfree import crossing, search, symmetry
from crossfree.cli import build_parser, main
from crossfree.constructions import gen_cyclic_intervals
from crossfree.families import Family, GroundSet, elements_of, serialize_family

FIXTURES = Path(__file__).parent / "fixtures" / "crosstree"
GOLDEN = Path(__file__).parent / "golden"
TREE_INPUTS = ["--chains", str(FIXTURES / "chains.txt"), "--ordering", str(FIXTURES / "ordering.txt")]

# The path of every parser: the top level, 3 groups and 16 commands.
PARSER_PATHS = [
    (), ("check",), ("classify",), ("decompose",),
    ("gen",), ("gen", "laminar"), ("gen", "intervals"), ("gen", "random"),
    ("reduce",),
    ("chains",), ("chains", "extract"), ("chains", "select"), ("chains", "check"),
    ("tree",), ("tree", "validate"), ("tree", "extract"), ("tree", "build"), ("tree", "prune"),
    ("search",), ("table",),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(parse, argv):
    """(exit code, stdout, stderr, result) of ``parse(argv)``; the code is
    None when it returns and the result is None when it exits."""
    out, err = io.StringIO(), io.StringIO()
    code = result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), result


def help_dump():
    """The ``-h`` output of every parser, each under a ``$ crossfree ... -h`` line."""
    text = ""
    for path in PARSER_PATHS:
        argv = [*path, "-h"]
        code, out, err, _ = outcome(main, argv)
        assert (code, err) == (0, ""), argv
        text += "$ " + " ".join(["crossfree", *argv]) + "\n" + out
    return text


def test_help_matches_golden(monkeypatch):
    # argparse wraps help to $COLUMNS; the golden was written at 80.
    monkeypatch.setenv("COLUMNS", "80")
    assert help_dump() == (GOLDEN / "cli_help.txt").read_text()


# One valid argv per command; parse_args never opens the paths.
VALID_ARGVS = [
    ["check", "--k", "2", "--mode", "weak", "--format", "json", "fam.txt"],
    ["classify", "--format", "json", "fam.txt"],
    ["decompose", "fam.txt"],
    ["gen", "laminar", "--n", "4"],
    ["gen", "intervals", "--n", "4", "--include-trivial"],
    ["gen", "random", "--n", "6", "--k", "3", "--mode", "weak", "--seed", "1"],
    ["reduce", "--k", "2", "fam.txt"],
    ["chains", "extract", "--h", "2", "fam.txt"],
    ["chains", "select", "--k", "2", "--multiplier", "0", "--seed", "1", "--format", "json", "c.txt"],
    ["chains", "check", "--k", "2", "--indices", "0,1", "--ordering", "o.txt", "c.txt"],
    ["tree", "validate", "--chains", "c.txt", "--ordering", "o.txt", "--format", "json", "t.json"],
    ["tree", "extract", "--chains", "c.txt", "--ordering", "o.txt", "--k", "3", "t.json"],
    ["tree", "build", "--chains", "c.txt", "--ordering", "o.txt", "--indices", "0",
     "--k", "2", "--height", "1", "--branching", "1"],
    ["tree", "prune", "--keep", "0", "t.json"],
    ["search", "--k", "2", "fam.txt"],
    ["table", "--n", "3..4", "--k", "2", "--universe", "all", "--format", "csv"],
]
NAMES = sorted({name for path in PARSER_PATHS for name in path})


@st.composite
def mutated_argvs(draw):
    argv = list(draw(st.sampled_from(VALID_ARGVS)))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "insert", "rename")))
        if op == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("-h", "--bogus"))))
            continue
        if not argv:
            continue
        i = draw(st.integers(0, len(argv) - 1))
        if op == "drop":
            del argv[i]
        elif op == "duplicate":
            argv.insert(i, argv[i])
        elif op == "swap":
            j = draw(st.integers(0, len(argv) - 1))
            argv[i], argv[j] = argv[j], argv[i]
        else:
            argv[i] = draw(st.sampled_from(NAMES))
    return argv


@settings(max_examples=300, deadline=None)
@given(mutated_argvs())
def test_parser_for_argv_matches_full_parser(argv):
    # The full parser is the oracle: same exit code, output and namespace.
    lazy = outcome(lambda a: build_parser(a).parse_args(a), argv)
    full = outcome(lambda a: build_parser().parse_args(a), argv)
    assert lazy == full


@pytest.mark.parametrize("argv, dest", [
    ([], "command"), (["gen"], "kind"), (["chains"], "chains_command"), (["tree"], "tree_command"),
])
def test_missing_subcommand_error_names_its_dest(argv, dest):
    # argparse prints the metavar here when one is set, so the full parser sets none.
    code, out, err, _ = outcome(main, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: the following arguments are required: {dest}\n")


@pytest.fixture
def parsers_built(monkeypatch):
    """A one-item list counting ArgumentParser constructions."""
    count = [0]
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return count


def test_main_builds_only_the_invoked_path(tmp_path, parsers_built):
    fam = write_family(tmp_path, "n 4\n0\n0,1\n")
    tree = ["tree", "validate", *TREE_INPUTS, str(FIXTURES / "tree.json")]
    for argv, parsers in [(["check", "--k", "2", fam], 2), (tree, 3), (["-h"], len(PARSER_PATHS))]:
        # The second call builds its parsers again: nothing is cached.
        for _ in range(2):
            parsers_built[0] = 0
            code, _, _, result = outcome(main, argv)
            assert 0 in (code, result) and parsers_built[0] == parsers, argv


def write_family(tmp_path, text, name="fam.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_pass_and_fail(capsys, tmp_path):
    good = write_family(tmp_path, "n 4\n0\n0,1\n")
    code, out, _ = run(capsys, "check", "--k", "2", "--mode", "strict", good)
    assert code == 0 and "is 2-cross-free" in out

    bad = write_family(tmp_path, "n 4\n0,1\n1,2\n", "bad.txt")
    code, out, _ = run(capsys, "check", "--k", "2", "--mode", "strict", bad)
    assert code == 1
    assert "0,1" in out and "1,2" in out


def test_check_json_reparses(capsys, tmp_path):
    bad = write_family(tmp_path, "n 4\n0,1\n1,2\n")
    code, out, _ = run(capsys, "check", "--k", "2", "--format", "json", bad)
    doc = json.loads(out)
    assert code == 1 and doc["cross_free"] is False and doc["witness"] == ["0,1", "1,2"]


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    bad = write_family(tmp_path, "n 4\n0,1\n1,2\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "crossfree", "check", "--k", "2", bad], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, "check", "--k", "2", bad)


# The lex-least 12-witness of the strict intervals n=24 under the general
# relabelling random.Random(101), as the plain kernel finds it.
RELABELLED_INTERVALS_24_WITNESS = [
    "0,1,6,8,9,10,11,13,14,17,18,21", "0,2,6,8,9,10,11,13,14,17,18,21",
    "0,1,6,9,10,11,13,14,16,17,18,21", "1,4,6,7,10,11,14,16,17,18,19,22",
    "1,4,6,7,11,14,15,16,17,18,19,22", "1,3,4,5,7,11,14,15,16,19,20,22",
    "1,3,4,5,7,12,14,15,16,19,20,22", "1,3,4,7,11,14,15,16,17,19,20,22",
    "1,4,6,7,11,14,15,16,17,19,20,22", "0,1,6,10,11,13,14,16,17,18,21,22",
    "1,6,7,10,11,13,14,16,17,18,21,22", "1,6,7,10,11,14,16,17,18,19,21,22",
]


def test_check_relabelled_strict_intervals_n24(capsys, tmp_path, monkeypatch):
    # Index order is bad for this relabelling: the plain kernel takes
    # seconds for k=12. Orbital fixing gives the same witness, and both
    # calls look for the group once.
    base = gen_cyclic_intervals(24, False)
    perm = random.Random(101).sample(range(24), 24)
    fam = Family(base.ground, tuple(sum(1 << perm[e] for e in elements_of(m)) for m in base.sets))
    path = write_family(tmp_path, serialize_family(fam))
    searched = []

    def set_orbits(fam):
        searched.append(fam)
        return symmetry.set_orbits(fam)

    monkeypatch.setattr(crossing, "set_orbits", set_orbits)
    code, out, _ = run(capsys, "check", "--k", "12", "--format", "json", path)
    assert code == 1 and json.loads(out)["witness"] == RELABELLED_INTERVALS_24_WITNESS
    code, out, _ = run(capsys, "check", "--k", "13", "--format", "json", path)
    assert code == 0 and json.loads(out)["cross_free"]
    assert len(searched) == 2


def test_classify(capsys, tmp_path):
    fam = write_family(tmp_path, "n 4\n0,1\n1,2\n")
    code, out, _ = run(capsys, "classify", fam)
    assert code == 0 and out.strip().endswith("crossing")
    one = write_family(tmp_path, "n 4\n0,1\n", "one.txt")
    code, _, err = run(capsys, "classify", one)
    assert code == 2 and "exactly 2" in err
    assert err.startswith("error: ")


def test_decompose(capsys, tmp_path):
    fam = write_family(tmp_path, "n 3\n-\n0\n0,1\n")
    code, out, _ = run(capsys, "decompose", fam)
    assert code == 0 and out.startswith("1 chains")
    code, out, _ = run(capsys, "decompose", "--format", "json", fam)
    doc = json.loads(out)
    assert len(doc["chains"]) == 1 and len(doc["max_antichain"]) == 1


def power_set_file(tmp_path, n):
    return write_family(tmp_path, f"n {n}\n" + "".join(
        (",".join(str(e) for e in range(n) if m >> e & 1) or "-") + "\n" for m in range(1 << n)
    ))


def test_decompose_matches_golden(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", power_set_file(tmp_path, 7))
    assert code == 0
    assert out == (GOLDEN / "decompose_all_n7.txt").read_text()


def test_decompose_json_matches_golden(capsys, tmp_path):
    # 126 of the 512 roots find no augmenting path, and the others find
    # long ones, so the chains pin the matching's dead-vertex skipping.
    code, out, _ = run(capsys, "decompose", "--format", "json", power_set_file(tmp_path, 9))
    assert code == 0
    assert out == (GOLDEN / "decompose_all_n9.json").read_text()


@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_gen_random_matches_golden(capsys, mode):
    code, out, _ = run(capsys, "gen", "random", "--n", "10", "--k", "3", "--mode", mode, "--seed", "1234")
    assert code == 0
    assert out == (GOLDEN / f"gen_random_n10_k3_{mode}.txt").read_text()


def nested_chain_files(tmp_path, h, count):
    """``count`` chains with nested prefix bases that each add 0..h-1."""
    n = h + count
    lines = [f"chain {','.join(map(str, range(h, h + s)))}; {','.join(map(str, range(h)))}"
             for s in range(1, count + 1)]
    chains = tmp_path / f"nested{count}.txt"
    chains.write_text(f"n {n}\n" + "\n".join(lines) + "\n")
    ordering = tmp_path / f"natural{count}.txt"
    ordering.write_text(" ".join(map(str, range(n))) + "\n")
    return ["--chains", str(chains), "--ordering", str(ordering),
            "--indices", ",".join(map(str, range(count)))]


def test_tree_build_matches_golden(capsys, tmp_path):
    args = nested_chain_files(tmp_path, 6, 16)
    code, out, err = run(capsys, "tree", "build", *args, "--k", "2", "--height", "2", "--branching", "2")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "tree_build_nested16.json").read_text()

    args = nested_chain_files(tmp_path, 6, 20)
    code, out, err = run(capsys, "tree", "build", *args, "--k", "2", "--height", "2", "--branching", "3")
    assert (code, out) == (1, "")
    assert err == (GOLDEN / "tree_build_nested20.err").read_text()


@pytest.mark.parametrize("count, branching", [(16, "2"), (20, "3")])
def test_tree_build_ignores_k(capsys, tmp_path, count, branching):
    # nested16 builds a tree; nested20 fails and reports every root.
    args = ["tree", "build", *nested_chain_files(tmp_path, 6, count), "--height", "2", "--branching", branching]
    assert run(capsys, *args, "--k", "2") == run(capsys, *args, "--k", "9")


def test_gen_check_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "laminar", "--n", "5")
    assert code == 0
    fam = write_family(tmp_path, out)
    code, _, _ = run(capsys, "check", "--k", "2", "--mode", "weak", fam)
    assert code == 0

    code, out, _ = run(capsys, "gen", "random", "--n", "5", "--k", "3", "--mode", "weak", "--seed", "9")
    fam = write_family(tmp_path, out, "rand.txt")
    code, _, _ = run(capsys, "check", "--k", "3", "--mode", "weak", fam)
    assert code == 0


def test_gen_intervals(capsys):
    code, out, _ = run(capsys, "gen", "intervals", "--n", "4")
    assert code == 0 and len(out.strip().splitlines()) == 13  # header + 12 sets


def test_reduce(capsys, tmp_path):
    fam = write_family(tmp_path, "n 3\n" + "\n".join("-" if m == 0 else ",".join(str(e) for e in range(3) if m >> e & 1) for m in range(8)))
    code, out, _ = run(capsys, "reduce", "--k", "2", fam)
    assert code == 0 and len(out.strip().splitlines()) == 5  # header + 4 sets

    bad = write_family(tmp_path, "n 4\n0,1\n1,2\n", "bad.txt")
    code, out, _ = run(capsys, "reduce", "--k", "2", bad)
    assert code == 1 and "witness" in out


def test_chains_workflow(capsys, tmp_path):
    fam = write_family(tmp_path, "n 4\n-\n0\n0,1\n2\n2,3\n")
    code, out, _ = run(capsys, "chains", "extract", "--h", "1", fam)
    assert code == 0
    chains_path = tmp_path / "chains.txt"
    chains_path.write_text(out)
    assert out.splitlines()[1] == "chain -; 0"

    code, out, _ = run(capsys, "chains", "select", "--k", "2", "--multiplier", "0", "--seed", "4", "--format", "json", str(chains_path))
    assert code == 0
    doc = json.loads(out)
    ordering_path = tmp_path / "ord.txt"
    ordering_path.write_text(" ".join(str(x) for x in doc["ordering"]) + "\n")
    indices = ",".join(str(i) for i in doc["selected"]) or "-"

    code, out, _ = run(
        capsys, "chains", "check", "--k", "2", "--multiplier", "0",
        "--indices", indices, "--ordering", str(ordering_path), str(chains_path),
    )
    assert code == 0 and "C1: pass" in out


def test_tree_validate_and_extract(capsys):
    args = ["--chains", str(FIXTURES / "chains.txt"), "--ordering", str(FIXTURES / "ordering.txt")]
    code, out, _ = run(capsys, "tree", "validate", *args, str(FIXTURES / "tree.json"))
    assert code == 0 and "T5: pass" in out

    code, out, _ = run(capsys, "tree", "validate", "--format", "json", *args, str(FIXTURES / "tree.json"))
    doc = json.loads(out)
    assert doc["ok"] is True

    code, out, _ = run(capsys, "tree", "extract", *args, "--k", "2", str(FIXTURES / "tree.json"))
    assert code == 0 and "witness" in out


def test_tree_prune(capsys, tmp_path):
    code, out, _ = run(capsys, "tree", "prune", "--keep", "0", str(FIXTURES / "tree.json"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["children"]) == 1


def four_nested_chain_files(tmp_path):
    chains = tmp_path / "chains.txt"
    chains.write_text(
        "n 16\n"
        + "".join(f"chain {','.join(str(e) for e in range(2, 2 + s))}; 0,1\n" for s in (3, 5, 7, 9))
    )
    ordering = tmp_path / "ord.txt"
    ordering.write_text(" ".join(str(x) for x in range(16)) + "\n")
    return ["tree", "build", "--chains", str(chains), "--ordering", str(ordering),
            "--k", "2", "--height", "1", "--branching", "1"]


def test_tree_build(capsys, tmp_path):
    code, out, _ = run(capsys, *four_nested_chain_files(tmp_path), "--indices", "0,1,2,3")
    assert code == 0
    assert json.loads(out)["children"]


@pytest.mark.parametrize("indices", ["0,0,1", "0,1,1"])
def test_tree_build_ignores_repeated_indices(capsys, tmp_path, indices):
    args = four_nested_chain_files(tmp_path)
    assert run(capsys, *args, "--indices", indices) == run(capsys, *args, "--indices", "0,1")


def test_search_and_table(capsys, tmp_path):
    fam = write_family(tmp_path, "n 4\n" + "\n".join("-" if m == 0 else ",".join(str(e) for e in range(4) if m >> e & 1) for m in range(16)))
    code, out, _ = run(capsys, "search", "--k", "2", "--mode", "strict", fam)
    assert code == 0 and "size: 12" in out

    code, out, _ = run(capsys, "table", "--n", "3..4", "--k", "2", "--universe", "all", "--mode", "weak", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "3,2,all,weak,6,6,laminar 2n,yes"


@pytest.mark.parametrize("universe, k, mode, golden", [
    ("intervals", 3, "strict", "search_intervals_n8_k3_strict.json"),
    ("all", 4, "weak", "search_all_n5_k4_weak.json"),
    ("intervals", 4, "strict", "search_intervals_n8_k4_strict.json"),
    ("all", 5, "weak", "search_all_n5_k5_weak.json"),
])
def test_search_matches_golden(capsys, tmp_path, universe, k, mode, golden):
    """The optimum family itself, not only its size, for intervals n=8 and 2^[5]."""
    fam = gen_cyclic_intervals(8, False) if universe == "intervals" else Family(GroundSet(5), tuple(range(32)))
    path = write_family(tmp_path, serialize_family(fam))
    code, out, err = run(capsys, "search", "--k", str(k), "--mode", mode, "--format", "json", path)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


def test_duplicate_set_warning_is_one_line(capsys, tmp_path):
    fam = write_family(tmp_path, "n 3\n0,1\n0,1\n1,2\n")
    code, out, err = run(capsys, "search", "--k", "2", fam)
    assert code == 0
    assert out == "maximum 2-cross-free subfamily size: 2 (strict mode)\n  0,1\n  1,2\n"
    assert err == "warning: duplicate set '0,1' at line 3 merged\n"


def test_search_universe_deeper_than_recursion_limit(capsys, tmp_path, monkeypatch):
    # The search never runs the group search, which costs seconds here.
    def no_group(fam):
        raise AssertionError("search fetched the symmetry group")

    monkeypatch.setattr(symmetry, "set_orbits", no_group)
    monkeypatch.setattr(crossing, "set_orbits", no_group)
    monkeypatch.setattr(search, "set_orbits", no_group, raising=False)
    pairs = islice(combinations(range(64), 2), 1100)
    fam = write_family(tmp_path, "n 64\n" + "".join(f"{a},{b}\n" for a, b in pairs))
    code, out, _ = run(capsys, "search", "--k", "200", fam)
    assert code == 0 and "size: 1100" in out


def test_usage_errors(capsys, tmp_path):
    bad = write_family(tmp_path, "n 2\n5\n")
    code, _, err = run(capsys, "check", "--k", "2", bad)
    assert code == 2 and "element 5" in err

    code, _, err = run(capsys, "check", "--k", "2", str(tmp_path / "missing.txt"))
    assert code == 2

    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def assert_usage_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_directory_as_family_path_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--k", "2", str(tmp_path))
    assert out == ""
    assert_usage_error(code, err)


@pytest.mark.parametrize(
    "indices, height, branching",
    [
        pytest.param("0,7", "1", "1", id="0,7-1"),
        pytest.param("0,1", "-1", "1", id="0,1--1"),
        pytest.param("0,1", "1", "0", id="branching-0"),
        pytest.param("0,1", "1", "-2", id="branching--2"),
    ],
)
def test_tree_build_rejects_out_of_range_inputs(capsys, indices, height, branching):
    code, out, err = run(
        capsys, "tree", "build",
        "--chains", str(FIXTURES / "chains.txt"), "--ordering", str(FIXTURES / "ordering.txt"),
        "--indices", indices, "--k", "2", "--height", height, "--branching", branching,
    )
    assert out == ""
    assert_usage_error(code, err)


@pytest.mark.parametrize("indices", ["0,0", "0,1,0"])
def test_chains_check_counts_repeated_indices_once(capsys, indices):
    args = ["chains", "check", "--k", "2", "--ordering", str(FIXTURES / "ordering.txt"),
            str(FIXTURES / "chains.txt")]
    once = ",".join(dict.fromkeys(indices.split(",")))
    assert run(capsys, *args, "--indices", indices) == run(capsys, *args, "--indices", once)


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("chain", "edge_label_from_parent") for v in ("2", 2.0, True)]
    + [("children", 5)],
)
def test_tree_json_rejects_mistyped_fields(capsys, tmp_path, field, value):
    doc = json.loads((FIXTURES / "tree.json").read_text())
    doc["children"][0][field] = value
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "tree", "validate",
        "--chains", str(FIXTURES / "chains.txt"),
        "--ordering", str(FIXTURES / "ordering.txt"),
        str(tree),
    )
    assert out == ""
    assert_usage_error(code, err)


@pytest.mark.parametrize(
    "command, expected",
    [
        (["validate"], "T1: FAIL\n  node (1, 1): edge label -1 outside ground set\n"),
        (["extract", "--k", "2"], "extraction failed: tree does not validate"),
    ],
    ids=["validate", "extract"],
)
def test_negative_edge_label_is_t1(capsys, tmp_path, command, expected):
    doc = json.loads((FIXTURES / "tree.json").read_text())
    doc["children"][1]["children"][1]["edge_label_from_parent"] = -1
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "tree", *command,
        "--chains", str(FIXTURES / "chains.txt"),
        "--ordering", str(FIXTURES / "ordering.txt"),
        str(tree),
    )
    assert code == 1 and err == ""
    assert expected in out


@pytest.mark.parametrize(
    "command",
    [
        ["prune", "--keep", "0"],
        [
            "validate",
            "--chains", str(FIXTURES / "chains.txt"),
            "--ordering", str(FIXTURES / "ordering.txt"),
        ],
    ],
)
def test_deeply_nested_tree_json_is_usage_error(capsys, tmp_path, command):
    depth = 1500
    tree = tmp_path / "tree.json"
    tree.write_text('{"chain": 0, "children": [' * depth + '{"chain": 0}' + "]}" * depth)
    code, out, err = run(capsys, "tree", *command, str(tree))
    assert out == "" and "Traceback" not in err
    assert_usage_error(code, err)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("n 4\nchain 0;\n", 2),
        ("n 4\n# comment\nchain 0; x\n", 3),
        ("n x\nchain 0; 1\n", 1),
        ("n 65\n", 1),
        ("n 4\nchain 0; 0\n", 2),
    ],
)
def test_chain_file_errors_name_the_line(capsys, tmp_path, text, lineno):
    chains = write_family(tmp_path, text, "chains.txt")
    code, out, err = run(capsys, "chains", "select", "--k", "2", "--seed", "1", chains)
    assert out == ""
    assert_usage_error(code, err)
    assert f"at line {lineno}\n" in err


@pytest.mark.parametrize("command", ["chains-select", "chains-check", "tree-build"])
def test_header_only_chain_file_is_usage_error(capsys, tmp_path, command):
    chains = write_family(tmp_path, "n 3\n", "chains.txt")
    ordering = write_family(tmp_path, "0 1 2\n", "ord.txt")
    argv = {
        "chains-select": ["chains", "select", "--k", "2", "--seed", "1", chains],
        "chains-check": ["chains", "check", "--k", "2", "--multiplier", "0", "--indices", "-",
                         "--ordering", ordering, chains],
        "tree-build": ["tree", "build", "--chains", chains, "--ordering", ordering, "--indices", "-",
                       "--k", "2", "--height", "1", "--branching", "1"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_usage_error(code, err)
    assert "no chains" in err


@pytest.mark.parametrize("k", ["0", "1"])
def test_tree_extract_k_below_two_is_usage_error(capsys, k):
    code, out, err = run(capsys, "tree", "extract", *TREE_INPUTS, "--k", k, str(FIXTURES / "tree.json"))
    assert out == ""
    assert_usage_error(code, err)
    assert "k must be >= 2" in err


@pytest.mark.parametrize("command", [
    ["chains", "select", "--seed", "1"],
    ["chains", "check", "--indices", "0", "--ordering", str(FIXTURES / "ordering.txt")],
])
@pytest.mark.parametrize("option, message", [
    (["--k", "0"], "k must be >= 2"),
    (["--k", "1"], "k must be >= 2"),
    (["--k", "2", "--multiplier", "-1"], "multiplier must be >= 0"),
])
def test_chain_conditions_reject_vacuous_parameters(capsys, command, option, message):
    code, out, err = run(capsys, *command, *option, str(FIXTURES / "chains.txt"))
    assert out == ""
    assert_usage_error(code, err)
    assert message in err


@pytest.mark.parametrize("command", [
    ["chains", "check", "--k", "2", "--indices", "0,x", "--ordering", str(FIXTURES / "ordering.txt"),
     str(FIXTURES / "chains.txt")],
    ["tree", "prune", "--keep", "x", str(FIXTURES / "tree.json")],
])
def test_bad_index_list_is_usage_error(capsys, command):
    code, out, err = run(capsys, *command)
    assert out == ""
    assert_usage_error(code, err)
    assert "bad index 'x': expected comma-separated integers or '-'" in err


@pytest.mark.parametrize("option", [["--n", "5..3", "--k", "2"], ["--n", "4", "--k", "3..2"]])
def test_table_reversed_range_is_usage_error(capsys, option):
    code, out, err = run(capsys, "table", *option)
    assert out == ""
    assert_usage_error(code, err)
    assert "empty range" in err


@pytest.mark.parametrize("option, text", [
    (["--n", "3..x", "--k", "2"], "3..x"),
    (["--n", "2..", "--k", "2"], "2.."),
    (["--n", "..3", "--k", "2"], "..3"),
    (["--n", "1..2..3", "--k", "2"], "1..2..3"),
    (["--n", "x", "--k", "2"], "x"),
    (["--n", "4", "--k", "2..x"], "2..x"),
    (["--n", "4", "--k", "..3"], "..3"),
])
def test_table_malformed_range_is_usage_error(capsys, option, text):
    code, out, err = run(capsys, "table", *option)
    assert out == ""
    assert_usage_error(code, err)
    assert f"bad range {text!r}: expected an integer or lo..hi" in err


@pytest.mark.parametrize("n", ["21", "64"])
def test_gen_random_large_n_is_usage_error(capsys, n):
    # Rejected before the 2^n candidate list is allocated.
    code, out, err = run(capsys, "gen", "random", "--n", n, "--k", "3", "--mode", "weak", "--seed", "1")
    assert out == ""
    assert_usage_error(code, err)
    assert "n must be <= 20" in err


def test_determinism_byte_identical(capsys):
    first = run(capsys, "gen", "random", "--n", "6", "--k", "3", "--mode", "strict", "--seed", "77")
    second = run(capsys, "gen", "random", "--n", "6", "--k", "3", "--mode", "strict", "--seed", "77")
    assert first == second
