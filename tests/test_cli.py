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

from crossfree import crossing, symmetry
from crossfree.cli import build_parser, main
from crossfree.constructions import gen_cyclic_intervals
from crossfree.families import Family, GroundSet, serialize_family
from oracles import relabel

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
    # argparse wraps help to $COLUMNS; the goldens were written at 80. From
    # Python 3.13 on, argparse keeps an option and its metavar on one line
    # when it wraps a usage line.
    monkeypatch.setenv("COLUMNS", "80")
    golden = "cli_help_py313.txt" if sys.version_info >= (3, 13) else "cli_help.txt"
    assert help_dump() == (GOLDEN / golden).read_text()


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
    path.write_text(text, encoding="utf-8")
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


def test_family_from_stdin(capsys, tmp_path, monkeypatch):
    text = "n 4\n0,1\n1,2\n"
    from_file = run(capsys, "check", "--k", "2", write_family(tmp_path, text))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, "check", "--k", "2", "-") == from_file


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    bad = write_family(tmp_path, "n 4\n0,1\n1,2\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "crossfree", "check", "--k", "2", bad], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, "check", "--k", "2", bad)


@pytest.mark.parametrize("command, golden", [
    (["search", "--k", "3", "--format", "json", "intervals8"], "search_intervals_n8_k3_strict.json"),
    (["gen", "random", "--n", "10", "--k", "3", "--seed", "1234"], "gen_random_n10_k3_strict.txt"),
    (["decompose", "all7"], "decompose_all_n7.txt"),
])
def test_goldens_survive_python_dash_O(tmp_path, command, golden):
    """``python -O`` strips every ``assert``; the output must not rely on one."""
    inputs = {
        "intervals8": write_family(tmp_path, serialize_family(gen_cyclic_intervals(8, False)), "intervals8.txt"),
        "all7": power_set_file(tmp_path, 7),
    }
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "crossfree", *(inputs.get(arg, arg) for arg in command)],
        capture_output=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / golden).read_bytes()


SELF_CHECKS = """
import crossfree.constructions
import crossfree.kernel
from crossfree.constructions import gen_random_cross_free
from crossfree.families import Family, GroundSet
from crossfree.search import max_cross_free

crossfree.kernel.find_k_clique_in = lambda *args: None
crossfree.constructions._scan_bitsets = lambda order, *args: order
for call in (
    lambda: gen_random_cross_free(6, 4, "strict", 0),
    lambda: gen_random_cross_free(6, 3, "strict", 0),
    lambda: max_cross_free(Family(GroundSet(4), tuple(range(16))), 3, "strict").best,
):
    try:
        print(len(call()))
    except AssertionError:
        print("AssertionError")
"""


def test_self_checks_survive_python_dash_O():
    """With a kernel that never finds a clique, the generator's k >= 4 path
    and the search, and with a k <= 3 bitset scan that keeps every
    candidate, the generator at k=3 return families that are not
    k-cross-free; their re-checks must raise under ``python -O`` too."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECKS], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "AssertionError\nAssertionError\nAssertionError\n"


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
    fam = relabel(gen_cyclic_intervals(24, False), random.Random(101))
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
    code, out, _ = run(capsys, "classify", "--format", "json", fam)
    assert code == 0 and out == '{"a": "0,1", "b": "1,2", "relation": "crossing"}\n'
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


def test_chains_check_reports_c1_violation(capsys, tmp_path):
    # Below element 0 the chains hold {1} and {2}, which are incomparable.
    chains = write_family(tmp_path, "n 3\nchain 1; 0\nchain 2; 0\n", "chains.txt")
    ordering = write_family(tmp_path, "0 1 2\n", "ord.txt")
    code, out, _ = run(
        capsys, "chains", "check", "--k", "2", "--multiplier", "0",
        "--indices", "0,1", "--ordering", ordering, chains,
    )
    assert code == 1
    assert "C1: FAIL\n  chains 0,1: incomparable members below element 0\n" in out


def test_chain_line_without_prefix_is_usage_error(capsys, tmp_path):
    chains = write_family(tmp_path, "n 3\nchain 1; 0\n2; 0\n", "chains.txt")
    code, out, err = run(
        capsys, "tree", "validate", "--chains", chains,
        "--ordering", str(FIXTURES / "ordering.txt"), str(FIXTURES / "tree.json"),
    )
    assert out == ""
    assert_usage_error(code, err)
    assert err == "error: expected 'chain <base>; <added>', got '2; 0' at line 3\n"


def test_file_without_header_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--k", "2", write_family(tmp_path, "# only a comment\n"))
    assert out == ""
    assert_usage_error(code, err)
    assert err == "error: missing 'n <int>' header\n"


def test_tree_root_with_edge_label_is_malformed(capsys, tmp_path):
    doc = json.loads((FIXTURES / "tree.json").read_text())
    doc["edge_label_from_parent"] = 0
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "tree", "validate", *TREE_INPUTS, str(tree))
    assert code == 1
    assert out.startswith("malformed:\n  root must not carry a parent edge label\n")


def test_tree_child_without_edge_label_is_malformed(capsys, tmp_path):
    doc = json.loads((FIXTURES / "tree.json").read_text())
    doc["children"][0]["edge_label_from_parent"] = None
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "tree", "validate", *TREE_INPUTS, str(tree))
    assert code == 1
    assert out.startswith("malformed:\n  node (0,): missing parent edge label\n")


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


# Each case builds from four chains over n=7 with --indices 0,1,2,3 and
# height 1; roots 1-3 hold the top chains below label 2, so only root 0 is
# assembled. A reason of None means that root 0 builds.
@pytest.mark.parametrize("chains, ordering, branching, reason", [
    pytest.param(("4; 1,0,2", "3,4; 0,1,2", "3,4,5; 1,0,2", "3,4,5,6; 0,2,1"), "0 4 3 6 2 5 1", "2",
                 "only 1 chain-compatible subtrees < branching 2", id="chain-compatible"),
    # The S-sets 0,3,4,6 (label 1) and 0,1,3,4,5,6 (label 2) grow from
    # left to right, so the filter keeps only the first (T5).
    pytest.param(("3; 0,1,2", "3,4; 0,1,2", "3,4,6; 0,1,2", "3,4,5,6; 1,0,2"), "0 4 2 6 5 1 3", "1",
                 None, id="t5"),
])
def test_tree_build_failure_reasons(capsys, tmp_path, chains, ordering, branching, reason):
    chains_path = write_family(tmp_path, "n 7\n" + "".join(f"chain {c}\n" for c in chains), "chains.txt")
    ordering_path = write_family(tmp_path, ordering + "\n", "ord.txt")
    code, out, err = run(
        capsys, "tree", "build", "--chains", chains_path, "--ordering", ordering_path,
        "--indices", "0,1,2,3", "--k", "2", "--height", "1", "--branching", branching,
    )
    if reason is None:
        assert (code, err) == (0, "")
        assert json.loads(out) == {"chain": 0, "edge_label_from_parent": None, "children": [
            {"chain": 2, "edge_label_from_parent": 1, "children": []},
        ]}
        return
    assert (code, out) == (1, "")
    assert err == (
        f"no tree meets the branching target\nroot 0: {reason}\n"
        + "".join(f"root {i}: excluded at level 1: a top chain below label 2\n" for i in (1, 2, 3))
    )


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


TABLE_N3_K2 = """\
n  k  universe   mode    exact  formula  formula_name       tight
3  2  all        strict  8      10       2-cross-free 4n-2  no
3  2  intervals  strict  6      6        interval bound     yes
"""


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_table_counts_repeated_universe_once(capsys, fmt):
    args = ["table", "--n", "3", "--k", "2", "--format", fmt, "--universe"]
    once = run(capsys, *args, "all,intervals")
    assert run(capsys, *args, "all,all,intervals,all") == once
    if fmt == "text":
        assert once == (0, TABLE_N3_K2, "")


@pytest.mark.parametrize("n, k, universe, row", [
    # 4(k-1)n - 2*C(2k-1, 2) = -6 and 8n-20 = -4 bound no family size.
    ("3", "4", "intervals", "3  4  intervals  strict  6      -        -             N/A"),
    ("2", "3", "all", "2  3  all       strict  4      -        -             N/A"),
])
def test_table_negative_closed_form_prints_dash(capsys, n, k, universe, row):
    code, out, _ = run(capsys, "table", "--n", n, "--k", k, "--universe", universe)
    assert code == 0 and out.splitlines()[1] == row


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


def test_chains_check_json(capsys):
    code, out, err = run(
        capsys, "chains", "check", "--k", "2", "--indices", "0,1", "--format", "json",
        "--ordering", str(FIXTURES / "ordering.txt"), str(FIXTURES / "chains.txt"),
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "C1": {"passed": True, "violations": []},
        "C2": {"passed": True, "violations": []},
        "C3": {"passed": False, "violations": ["chains 0,1: member sizes interleave"]},
        "C4": {"passed": False, "violations": ["chain 0: minimum member size 1 < 12",
                                               "chain 1: minimum member size 2 < 12"]},
    }


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
    "command",
    [
        ["prune", "--keep", "0"],
        ["validate", *TREE_INPUTS],
        ["extract", *TREE_INPUTS, "--k", "3"],
    ],
)
def test_tree_file_not_json_is_usage_error(capsys, tmp_path, command):
    tree = tmp_path / "tree.json"
    tree.write_text("chain 0\n")
    code, out, err = run(capsys, "tree", *command, str(tree))
    assert out == ""
    assert_usage_error(code, err)
    assert err.startswith("error: tree file is not JSON: Expecting value")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("n 4\nchain 0;\n", 2),
        ("n 4\n# comment\nchain 0; x\n", 3),
        ("n x\nchain 0; 1\n", 1),
        ("n 65\n", 1),
        ("n 4\nchain 0; 0\n", 2),
        ("n 4\nchain 0 1\n", 2),
    ],
)
def test_chain_file_errors_name_the_line(capsys, tmp_path, text, lineno):
    chains = write_family(tmp_path, text, "chains.txt")
    code, out, err = run(capsys, "chains", "select", "--k", "2", "--seed", "1", chains)
    assert out == ""
    assert_usage_error(code, err)
    assert f"at line {lineno}\n" in err


@pytest.mark.parametrize("name, text, token", [
    pytest.param("family", "n 11\n0,1_0\n", "1_0", id="set-underscore"),
    pytest.param("family", "n 4\n+3\n", "+3", id="set-plus"),
    pytest.param("family", "n 4\n-0\n", "-0", id="set-minus-zero"),
    pytest.param("family", "n 4\n\u0663\n", "\u0663", id="set-arabic-indic-digit"),
    pytest.param("family", "n +4\n0\n", "+4", id="header-plus"),
    pytest.param("chains", "n 11\nchain 0; 1_0\n", "1_0", id="chain-added"),
    pytest.param("chains", "n 11\nchain 1_0; 0\n", "1_0", id="chain-base"),
    pytest.param("ordering", "0 1 2 3 4 5 6 7 8 9 1_0\n", "1_0", id="ordering"),
])
def test_integer_tokens_are_ascii_digits(capsys, tmp_path, name, text, token):
    # int() alone reads each of these tokens as a number.
    if name == "family":
        argv = ["check", "--k", "2", write_family(tmp_path, text)]
    else:
        files = {"chains": "n 11\nchain -; 0\n", "ordering": " ".join(map(str, range(11))), name: text}
        argv = ["chains", "check", "--k", "2", "--multiplier", "0", "--indices", "-",
                "--ordering", write_family(tmp_path, files["ordering"], "ord.txt"),
                write_family(tmp_path, files["chains"], "chains.txt")]
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_usage_error(code, err)
    assert repr(token) in err


CHAINS = str(FIXTURES / "chains.txt")


@pytest.mark.parametrize("token", ["\u0663", "+1", "1_0"])
@pytest.mark.parametrize("argv", [
    ["gen", "laminar", "--n", "{}"],
    ["gen", "random", "--n", "3", "--k", "2", "--seed", "{}"],
    ["check", "--k", "{}", "-"],
    ["chains", "extract", "--h", "{}", "-"],
    ["chains", "select", "--k", "2", "--multiplier", "{}", "--seed", "1", CHAINS],
    ["tree", "build", *TREE_INPUTS, "--indices", "0", "--k", "2", "--height", "{}", "--branching", "1"],
    ["tree", "build", *TREE_INPUTS, "--indices", "0", "--k", "2", "--height", "1", "--branching", "{}"],
], ids=lambda argv: argv[argv.index("{}") - 1])
def test_integer_options_take_only_ascii_digits(argv, token):
    # int() reads each of these tokens as a number; the options, like the
    # input files, take ASCII digits alone.
    code, out, err, _ = outcome(main, [token if a == "{}" else a for a in argv])
    assert code == 2 and out == ""
    assert err.endswith(f"expected an integer of ASCII digits, got {token!r}\n")


def whole_chain_file_argv(tmp_path, command, chain_text):
    """argv of ``command``, one of the three that need a chain file of at
    least one chain, all of one h, over ``chain_text`` and the ordering 0 1 2."""
    chains = write_family(tmp_path, chain_text, "chains.txt")
    ordering = write_family(tmp_path, "0 1 2\n", "ord.txt")
    return {
        "chains-select": ["chains", "select", "--k", "2", "--seed", "1", chains],
        "chains-check": ["chains", "check", "--k", "2", "--multiplier", "0", "--indices", "-",
                         "--ordering", ordering, chains],
        "tree-build": ["tree", "build", "--chains", chains, "--ordering", ordering, "--indices", "-",
                       "--k", "2", "--height", "1", "--branching", "1"],
    }[command]


@pytest.mark.parametrize("command", ["chains-select", "chains-check", "tree-build"])
def test_header_only_chain_file_is_usage_error(capsys, tmp_path, command):
    code, out, err = run(capsys, *whole_chain_file_argv(tmp_path, command, "n 3\n"))
    assert out == ""
    assert_usage_error(code, err)
    assert "no chains" in err


def test_tree_extract_rejects_sizes_that_do_not_grow(capsys, tmp_path):
    # The tree meets T1-T5 and fails only the advisory T8: the S of node
    # (1, 1) is no larger than that of its parent (1,), and the greedy path
    # takes both.
    chains = ("4; 1,0,8", "1,2,4,5,11; 3,0,6", "4,5; 2,1,6", "1,2,3,4,5,6,7,10,11; 0,8,9",
              "1,2,4,5,6,11; 3,8,9", "2,4,5,7,10; 1,8,9", "4,5,7; 2,8,9")

    def node(chain, label, *children):
        return {"chain": chain, "edge_label_from_parent": label, "children": list(children)}

    tree = node(0, None, node(1, 0, node(3, 0), node(4, 3)), node(2, 1, node(5, 1), node(6, 2)))
    inputs = [
        "--chains", write_family(tmp_path, "n 12\n" + "".join(f"chain {c}\n" for c in chains), "chains.txt"),
        "--ordering", write_family(tmp_path, "2 1 3 0 4 5 6 7 8 9 10 11\n", "ord.txt"),
        write_family(tmp_path, json.dumps(tree), "tree.json"),
    ]
    code, out, _ = run(capsys, "tree", "validate", "--format", "json", *inputs)
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert [a for a, found in report["advisory"].items() if found] == ["T8"]
    code, out, err = run(capsys, "tree", "extract", "--k", "2", *inputs)
    assert (code, out, err) == (1, "extraction failed: extracted sizes not strictly increasing: [4, 4]\n", "")


@pytest.mark.parametrize("command", ["chains-select", "chains-check", "tree-build"])
def test_mixed_h_chain_file_is_usage_error(capsys, tmp_path, command):
    argv = whole_chain_file_argv(tmp_path, command, "n 3\nchain -; 0\nchain 1; 2,0\n")
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_usage_error(code, err)
    assert err == "error: chains do not all have the same size\n"


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
    assert "bad index 'x': expected comma-separated natural numbers of ASCII digits or '-'" in err


@pytest.mark.parametrize("keep, bad", [
    ("+0,1_0", "+0"), ("0,1_0", "1_0"), ("0,\u0663", "\u0663"), ("-1", "-1"), ("1,-2", "-2"),
])
def test_index_list_takes_only_ascii_digits(capsys, keep, bad):
    code, out, err = run(capsys, "tree", "prune", f"--keep={keep}", str(FIXTURES / "tree.json"))
    assert out == ""
    assert_usage_error(code, err)
    assert f"bad index {bad!r}: expected comma-separated natural numbers of ASCII digits or '-'" in err


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
    # Numbers are ASCII digits alone, as in family files.
    (["--n", "+3", "--k", "\u0663"], "+3"),
    (["--n", "3", "--k", "\u0663"], "\u0663"),
    (["--n", "1_0", "--k", "2"], "1_0"),
    # A negative bound is an integer, but not a natural number.
    (["--n", "3", "--k", "-2"], "-2"),
])
def test_table_malformed_range_is_usage_error(capsys, option, text):
    code, out, err = run(capsys, "table", *option)
    assert out == ""
    assert_usage_error(code, err)
    assert f"bad range {text!r}: expected a natural number of ASCII digits or lo..hi" in err


def test_table_huge_range_is_usage_error(capsys):
    # The rows are counted before any is computed, so a range of 10^15
    # values ends the command at once.
    code, out, err = run(capsys, "table", "--n", "1..1000000000000000", "--k", "2")
    assert out == ""
    assert_usage_error(code, err)
    assert err == "error: table of 1000000000000000 rows exceeds the limit of 1000 rows\n"


@pytest.mark.parametrize("option, rows", [
    (["--n", "3", "--k", "2..1000000000000000", "--universe", "intervals"], 999999999999999),
    # len() of this range raises OverflowError.
    (["--n", "3", "--k", "2..100000000000000000000", "--universe", "intervals"], 10**20 - 1),
    (["--n", "1..2", "--k", "2..501", "--universe", "all,intervals"], 2000),
    (["--n", "1..2", "--k", "2..502", "--universe", "all"], 1002),
])
def test_table_past_the_row_cap_is_usage_error(capsys, option, rows):
    code, out, err = run(capsys, "table", *option)
    assert out == ""
    assert_usage_error(code, err)
    assert err == f"error: table of {rows} rows exceeds the limit of 1000 rows\n"


def test_table_at_the_row_cap_runs(capsys):
    # A repeated universe counts once, so this is 2 x 500 x 1 rows.
    code, out, _ = run(capsys, "table", "--n", "1..2", "--k", "2..501", "--universe", "all,all", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 1000


def test_table_n_past_the_universe_limit_is_usage_error(capsys):
    code, out, err = run(capsys, "table", "--n", "1..6", "--k", "2")
    assert out == ""
    assert_usage_error(code, err)
    assert err == "error: all-subsets universe is limited to n <= 5\n"


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
