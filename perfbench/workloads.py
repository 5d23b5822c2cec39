"""The three workloads: seeded inputs, the command sequence of one pass, and
output checks.

Every check uses an oracle local to this file (a 4-region crossing
predicate, a plain clique search, Sperner's theorem, and known optima), so
it does not depend on the crossfree layer under test. A workload's
constructor builds and writes its inputs; ``run`` issues the pass's commands
through ``cli(argv, expect, check)``, which returns the command's stdout and
defers ``check(stdout)`` until the pass has ended.
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path

# --- local oracle -------------------------------------------------------------


def crosses(a: int, b: int, n: int, mode: str) -> bool:
    """The four regions a-b, b-a, a&b and the outside; weak drops the last."""
    if not (a & ~b and b & ~a and a & b):
        return False
    return mode == "weak" or bool(((1 << n) - 1) & ~(a | b))


def has_clique(masks, k: int, n: int, mode: str) -> bool:
    """True iff k of the sets pairwise cross."""
    adj = [0] * len(masks)
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if crosses(a, masks[j], n, mode):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    def grow(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            if grow(cand & adj[low.bit_length() - 1], need - 1):
                return True
        return False

    return grow((1 << len(masks)) - 1, k)


def pairwise_cross(masks, n: int, mode: str) -> bool:
    return all(crosses(a, b, n, mode) for i, a in enumerate(masks) for b in masks[i + 1 :])


def parse_set(text: str) -> int:
    text = text.strip()
    return 0 if text == "-" else sum(1 << int(e) for e in text.split(","))


def format_set(mask: int) -> str:
    return ",".join(str(e) for e in range(mask.bit_length()) if mask >> e & 1) or "-"


def parse_family(text: str) -> tuple[int, list[int]]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return int(lines[0].split()[1]), [parse_set(ln) for ln in lines[1:]]


def write_family(path: Path, n: int, masks) -> None:
    path.write_text(f"n {n}\n" + "".join(format_set(m) + "\n" for m in masks))


def intervals(n: int, trivial: bool) -> list[int]:
    """All proper nonempty cyclic intervals of 0..n-1, optionally with the
    empty and the full set."""
    masks = [
        sum(1 << (s + off) % n for off in range(length))
        for s in range(n)
        for length in range(1, n)
    ]
    return masks + [0, (1 << n) - 1] if trivial else masks


def relabel(masks, perm) -> list[int]:
    """Rename element e to perm[e]. Optima, clique numbers and chain counts
    are invariant under it."""
    return [sum(1 << p for e, p in enumerate(perm) if m >> e & 1) for m in masks]


def random_perm(n: int, rng: random.Random) -> list[int]:
    return rng.sample(range(n), n)


def symmetry(universe: str, n: int, rng: random.Random) -> list[int]:
    """A random relabelling that maps the universe onto itself: a rotation
    or reflection of the cycle for intervals, any permutation for all
    subsets. Only the order of the file's lines changes.

    Search and verify use only these: a general relabelling changes the
    canonical vertex order, and with it the work. Over seeds 101-110 it
    moved search's B&B node count between 21.5k and 25.3k, and over three
    seeds it moved verify's ``check --k 12`` from 1.5 s to 4.7-10.8 s.
    """
    if universe != "intervals":
        return random_perm(n, rng)
    shift, sign = rng.randrange(n), rng.choice((1, -1))
    return [(sign * e + shift) % n for e in range(n)]


def failure(cond: bool, message: str) -> str | None:
    return None if cond else message


# --- search -------------------------------------------------------------------


class Search:
    """Exact maximum k-cross-free subfamily of small universes: B&B bounds,
    the admissibility filter and many tiny kernel calls."""

    # (universe, n, [(k, mode, known optimum)])
    FULL = (
        ("intervals", 8, ((2, "strict", 26), (3, "strict", 44), (4, "strict", 54))),
        ("all", 5, ((2, "strict", 16), (3, "strict", 22), (4, "strict", 26), (3, "weak", 15), (4, "weak", 19))),
    )
    SMOKE = (
        ("intervals", 5, ((2, "strict", 14), (3, "strict", 20))),
        ("all", 4, ((3, "weak", 11),)),
    )

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.cases = []
        for universe, n, runs in self.SMOKE if smoke else self.FULL:
            masks = intervals(n, False) if universe == "intervals" else list(range(1 << n))
            masks = relabel(masks, symmetry(universe, n, random.Random(f"search:{seed}:{universe}")))
            path = workdir / f"{universe}{n}.txt"
            write_family(path, n, masks)
            self.cases.append((path, n, set(masks), runs))

    def run(self, cli) -> None:
        for path, n, universe, runs in self.cases:
            for k, mode, size in runs:
                cli(
                    ["search", "--k", str(k), "--mode", mode, "--format", "json", str(path)],
                    0,
                    lambda out, n=n, universe=universe, k=k, mode=mode, size=size: self.check(
                        out, n, universe, k, mode, size
                    ),
                )

    @staticmethod
    def check(out, n, universe, k, mode, size):
        doc = json.loads(out)
        best = [parse_set(s) for s in doc["best"]]
        return (
            failure(doc["size"] == size == len(set(best)), f"size {doc['size']} != {size}")
            or failure(doc["proven_optimal"], "not proven optimal")
            or failure(set(best) <= universe, "result is not a sub-family of the universe")
            or failure(not has_clique(best, k, n, mode), f"result has {k} pairwise-crossing sets")
        )


# --- verify -------------------------------------------------------------------


class Verify:
    """Witness search and chain decomposition on single large families: the
    O(N^2) crossing graph, one large kernel call, and Dilworth matching."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(f"verify:{seed}")
        # cyclic intervals with trivial sets (k=3 witness); strict intervals
        # whose clique number is n/2; all subsets of n (decompose)
        n_big, n_omega, n_all = (9, 8, 6) if smoke else (37, 24, 10)
        self.omega = n_omega // 2
        self.files = {}
        for name, n, masks in (
            ("big", n_big, relabel(intervals(n_big, True), symmetry("intervals", n_big, rng))),
            ("omega", n_omega, relabel(intervals(n_omega, False), symmetry("intervals", n_omega, rng))),
            ("all", n_all, relabel(range(1 << n_all), symmetry("all", n_all, rng))),
        ):
            path = workdir / f"{name}.txt"
            write_family(path, n, masks)
            self.files[name] = (path, n, set(masks))

    def run(self, cli) -> None:
        big, omega, every = self.files["big"], self.files["omega"], self.files["all"]
        k = self.omega
        cli(["check", "--k", "3", "--format", "json", str(big[0])], 1,
            lambda out: self.check_witness(out, big, 3))
        cli(["check", "--k", str(k), "--format", "json", str(omega[0])], 1,
            lambda out: self.check_witness(out, omega, k))
        cli(["check", "--k", str(k + 1), "--format", "json", str(omega[0])], 0,
            lambda out: self.check_free(out, omega))
        cli(["decompose", "--format", "json", str(every[0])], 0,
            lambda out: self.check_decompose(out, every))

    @staticmethod
    def check_witness(out, file, k):
        _, n, fam = file
        witness = [parse_set(s) for s in json.loads(out)["witness"]]
        return (
            failure(len(set(witness)) == k, f"witness has {len(witness)} sets, not {k}")
            or failure(set(witness) <= fam, "witness set not in the file")
            or failure(pairwise_cross(witness, n, "strict"), "witness sets do not pairwise cross")
        )

    @staticmethod
    def check_free(out, file):
        fam = file[2]
        doc = json.loads(out)
        return failure(
            doc["cross_free"] and doc["witness"] is None and doc["size"] == len(fam),
            "family above its clique number reported as not cross-free",
        )

    @staticmethod
    def check_decompose(out, file):
        _, n, fam = file
        doc = json.loads(out)
        chains = [[parse_set(s) for s in chain] for chain in doc["chains"]]
        antichain = [parse_set(s) for s in doc["max_antichain"]]
        width = comb(n, n // 2)  # Sperner: the width of the Boolean lattice
        members = [m for chain in chains for m in chain]
        return (
            failure(len(chains) == width, f"{len(chains)} chains, not {width}")
            or failure(sorted(members) == sorted(fam), "chains do not partition the family")
            or failure(
                all(a & ~b == 0 and a != b for c in chains for a, b in zip(c, c[1:])),
                "a chain is not strictly increasing",
            )
            or failure(len(set(antichain)) == width, f"antichain of {len(antichain)}, not {width}")
            or failure(set(antichain) <= fam, "antichain member not in the family")
            or failure(
                all(a & ~b and b & ~a for i, a in enumerate(antichain) for b in antichain[i + 1 :]),
                "antichain has a comparable pair",
            )
        )


# --- pipeline -----------------------------------------------------------------


def nested_chains(h: int, count: int) -> tuple[int, str]:
    """``count`` chains with nested prefix bases that each add 0..h-1."""
    n = h + count
    lines = [f"chain {format_set(sum(1 << e for e in range(h, h + s)))}; "
             + ",".join(str(x) for x in range(h)) for s in range(1, count + 1)]
    return n, f"n {n}\n" + "\n".join(lines) + "\n"


class Pipeline:
    """Many short commands: per-command fixed cost, random generation, the
    chain machinery and the tree code."""

    BUILDS = (  # (h, chains, branching, expected exit)
        (6, 16, 2, 0),
        (6, 20, 3, 1),
    )

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from crossfree import gen_synthetic_tree, serialize_chain_collection, serialize_ordering, tree_to_json

        rng = random.Random(f"pipeline:{seed}")
        self.n_random = 6 if smoke else 10
        n_chain = 8 if smoke else 16
        self.rounds = []
        for r in range(2 if smoke else 20):
            sub = rng.randrange(2**32)
            family = relabel(intervals(n_chain, True), random_perm(n_chain, rng))
            files = {"family": workdir / f"intervals{r}.txt"}
            write_family(files["family"], n_chain, family)
            tree, cc, ordering = gen_synthetic_tree(3, 3, 12, sub)
            for name, text in (
                ("tchains", serialize_chain_collection(cc)),
                ("tordering", serialize_ordering(ordering)),
                ("tree", tree_to_json(tree)),
            ):
                files[name] = workdir / f"{name}{r}.txt"
                files[name].write_text(text)
            for name in ("random", "chains", "ordering"):
                files[name] = workdir / f"{name}{r}.txt"
            self.rounds.append((sub, files, set(family)))
        self.builds = []
        for h, count, branching, expect in self.BUILDS:
            n, text = nested_chains(h, count)
            chains = workdir / f"nested{count}.txt"
            chains.write_text(text)
            ordering = workdir / f"natural{count}.txt"
            ordering.write_text(" ".join(str(x) for x in range(n)) + "\n")
            self.builds.append((chains, ordering, count, branching, expect))

    def run(self, cli) -> None:
        for sub, f, family in self.rounds:
            out = cli(["gen", "random", "--n", str(self.n_random), "--k", "3", "--seed", str(sub)], 0,
                      self.check_random)
            f["random"].write_text(out)
            size = len(out.splitlines()) - 1
            cli(["reduce", "--k", "3", str(f["random"])], 0,
                lambda out, size=size: self.check_reduce(out, size))
            out = cli(["chains", "extract", "--h", "3", str(f["family"])], 0,
                      lambda out, family=family: self.check_extract(out, family))
            f["chains"].write_text(out)
            out = cli(["chains", "select", "--k", "3", "--multiplier", "0", "--seed", str(sub),
                       "--format", "json", str(f["chains"])], 0, self.check_select)
            doc = json.loads(out)
            f["ordering"].write_text(" ".join(map(str, doc["ordering"])) + "\n")
            indices = ",".join(map(str, doc["selected"])) or "-"
            cli(["chains", "check", "--k", "3", "--multiplier", "0", "--indices", indices,
                 "--ordering", str(f["ordering"]), str(f["chains"])], 0,
                lambda out: self.check_passes(out, ("C1", "C2", "C3", "C4")))
            tree_args = ["--chains", str(f["tchains"]), "--ordering", str(f["tordering"])]
            cli(["tree", "validate", *tree_args, str(f["tree"])], 0,
                lambda out: self.check_passes(out, ("T1", "T2", "T3", "T4", "T5")))
            cli(["tree", "extract", *tree_args, "--k", "3", str(f["tree"])], 0, self.check_tree_witness)
            for chains, ordering, count, branching, expect in self.builds:
                cli(["tree", "build", "--chains", str(chains), "--ordering", str(ordering),
                     "--indices", ",".join(map(str, range(count))), "--k", "2", "--height", "2",
                     "--branching", str(branching)], expect,
                    lambda out, expect=expect, branching=branching: self.check_build(out, expect, branching))

    @staticmethod
    def check_random(out):
        n, masks = parse_family(out)
        return failure(masks and not has_clique(masks, 3, n, "strict"), "generated family is not 3-cross-free")

    @staticmethod
    def check_reduce(out, size):
        _, masks = parse_family(out)
        return failure(2 * len(masks) >= size, f"reduce kept {len(masks)} of {size}")

    @staticmethod
    def check_extract(out, family):
        used = []
        for line in out.splitlines()[1:]:
            base, added = line[len("chain "):].split(";")
            m = parse_set(base)
            used.append(m)
            steps = [int(x) for x in added.split(",")]
            if len(steps) != 3:
                return f"chain {line!r} does not have h=3"
            for x in steps:
                if m >> x & 1:
                    return f"chain {line!r} re-adds {x}"
                m |= 1 << x
                used.append(m)
        return (
            failure(used, "no chains extracted")
            or failure(set(used) <= family, "chain member not in the family")
            or failure(len(set(used)) == len(used), "chains are not disjoint")
        )

    @staticmethod
    def check_select(out):
        doc = json.loads(out)
        return failure(doc["selected"] == sorted(set(doc["selected"])), "selection not sorted and distinct")

    @staticmethod
    def check_passes(out, names):
        lines = out.splitlines()
        return failure(all(f"{name}: pass" in lines for name in names), "a condition or axiom fails")

    @staticmethod
    def check_tree_witness(out):
        lines = out.splitlines()
        witness = [parse_set(ln) for ln in lines[1:]]
        return failure(
            lines[0] == "witness (weak mode, 3 sets):" and len(set(witness)) == 3
            and pairwise_cross(witness, 0, "weak"),  # weak mode has no outside region
            "tree witness is not 3 pairwise weakly-crossing sets",
        )

    @staticmethod
    def check_build(out, expect, branching):
        if expect:
            return failure(out == "", "failed build printed a tree")
        stack, nodes = [json.loads(out)], 0
        while stack:
            node = stack.pop()
            nodes += 1
            children = node["children"]
            if children and len(children) < branching:
                return "built tree misses the branching target"
            stack.extend(children)
        return failure(nodes > 1, "built tree is a single node")


WORKLOADS = {"search": Search, "verify": Verify, "pipeline": Pipeline}
