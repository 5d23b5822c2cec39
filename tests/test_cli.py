import json
from itertools import combinations, islice
from pathlib import Path

import pytest

from crossfree.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "crosstree"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_decompose_matches_golden(capsys, tmp_path):
    n = 7
    fam = write_family(tmp_path, f"n {n}\n" + "".join(
        (",".join(str(e) for e in range(n) if m >> e & 1) or "-") + "\n" for m in range(1 << n)
    ))
    code, out, _ = run(capsys, "decompose", fam)
    assert code == 0
    assert out == (GOLDEN / "decompose_all_n7.txt").read_text()


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


def test_tree_build(capsys, tmp_path):
    chains = tmp_path / "chains.txt"
    chains.write_text(
        "n 16\n"
        + "".join(f"chain {','.join(str(e) for e in range(2, 2 + s))}; 0,1\n" for s in (3, 5, 7, 9))
    )
    ordering = tmp_path / "ord.txt"
    ordering.write_text(" ".join(str(x) for x in range(16)) + "\n")
    code, out, _ = run(
        capsys, "tree", "build", "--chains", str(chains), "--ordering", str(ordering),
        "--indices", "0,1,2,3", "--k", "2", "--height", "1", "--branching", "1",
    )
    assert code == 0
    assert json.loads(out)["children"]


def test_search_and_table(capsys, tmp_path):
    fam = write_family(tmp_path, "n 4\n" + "\n".join("-" if m == 0 else ",".join(str(e) for e in range(4) if m >> e & 1) for m in range(16)))
    code, out, _ = run(capsys, "search", "--k", "2", "--mode", "strict", fam)
    assert code == 0 and "size: 12" in out

    code, out, _ = run(capsys, "table", "--n", "3..4", "--k", "2", "--universe", "all", "--mode", "weak", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "3,2,all,weak,6,6,laminar 2n,yes"


def test_search_universe_deeper_than_recursion_limit(capsys, tmp_path):
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


@pytest.mark.parametrize("indices, height", [("0,7", "1"), ("0,1", "-1")])
def test_tree_build_rejects_out_of_range_inputs(capsys, indices, height):
    code, out, err = run(
        capsys, "tree", "build",
        "--chains", str(FIXTURES / "chains.txt"), "--ordering", str(FIXTURES / "ordering.txt"),
        "--indices", indices, "--k", "2", "--height", height, "--branching", "1",
    )
    assert out == ""
    assert_usage_error(code, err)


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


def test_determinism_byte_identical(capsys):
    first = run(capsys, "gen", "random", "--n", "6", "--k", "3", "--mode", "strict", "--seed", "77")
    second = run(capsys, "gen", "random", "--n", "6", "--k", "3", "--mode", "strict", "--seed", "77")
    assert first == second
