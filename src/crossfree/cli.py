"""Command-line front end.

Exit codes: 0 when the checked property holds (or the command simply
succeeds), 1 when a property fails (the witness or violation is printed),
2 for usage and file-format errors. Results go to stdout, diagnostics to
stderr. Every randomized subcommand takes an explicit --seed, so identical
invocations produce byte-identical output.

The parsers come from one table, ``COMMANDS``, of commands and groups.
``build_parser(argv)`` adds only the parsers on the path that ``argv`` names
(2 of the 20 for ``check``, 3 for ``tree validate``): a process runs one
command, and building all 20 takes about 4 ms where the path's parsers
take 0.3-0.5 ms (2-vCPU Xeon VM, Python 3.11). When ``argv`` names no
entry at some level (no argument, ``-h``, an unknown name, an option
first), that level gets every entry, so help, "invalid choice" and
"required" messages are the full parser's. On the short path each
subcommand action gets a metavar listing every name at its level, so the
usage line of an "unrecognized arguments" error is unchanged. It is set
there only: argparse's "arguments are required" message prints the
metavar in place of the dest, and that message can only come from a level
where ``argv`` names nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

from .chains import (
    NotCrossFreeError,
    check_conditions,
    extract_disjoint_chains,
    parse_chain_collection,
    parse_ordering,
    select_conditioned_chains,
    serialize_chain_collection,
    serialize_ordering,
    weak_reduce,
)
from .constructions import gen_cyclic_intervals, gen_laminar_max, gen_random_cross_free
from .crossing import dilworth_partition, find_pairwise_crossing_witness
from .families import (
    classify_pair,
    format_set,
    parse_family,
    serialize_family,
)
from .search import (
    bound_table,
    format_table_csv,
    format_table_text,
    max_cross_free,
)
from .tree import (
    ExtractionError,
    build_tree,
    extract_k_crossing_from_tree,
    prune_root_children,
    tree_from_json,
    tree_to_json,
    validate_tree,
)

USAGE_ERROR = 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _parse_indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text == "-":
        return ()
    indices = []
    for tok in text.split(","):
        try:
            indices.append(int(tok))
        except ValueError:
            raise ValueError(f"bad index {tok!r}: expected comma-separated integers or '-'") from None
    return tuple(indices)


def _parse_range(text: str) -> list[int]:
    """'3' -> [3]; '3..5' -> [3, 4, 5]."""
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1)) if dots else [int(text)]
    except ValueError:
        raise ValueError(f"bad range {text!r}: expected an integer or lo..hi") from None
    if not values:
        raise ValueError(f"empty range {text}")
    return values


def _print_witness(witness) -> None:
    print(f"witness ({witness.mode} mode, {len(witness.sets)} sets):")
    for m in witness.sets:
        print(f"  {format_set(m)}")


def _print_verdicts(lists: dict, suffix: str = "") -> None:
    """A ``name: pass/FAIL`` line per check, then its messages indented."""
    for name, msgs in lists.items():
        print(f"{name}{suffix}: {'FAIL' if msgs else 'pass'}")
        for v in msgs:
            print(f"  {v}")


def cmd_check(args) -> int:
    fam = parse_family(_read(args.family))
    witness = find_pairwise_crossing_witness(fam, args.k, args.mode)
    if args.format == "json":
        doc = {
            "k": args.k,
            "mode": args.mode,
            "size": len(fam),
            "cross_free": witness is None,
            "witness": None if witness is None else [format_set(m) for m in witness.sets],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        if witness is None:
            print(f"family of {len(fam)} sets is {args.k}-cross-free ({args.mode} mode)")
        else:
            print(f"family is NOT {args.k}-cross-free ({args.mode} mode)")
            _print_witness(witness)
    return 0 if witness is None else 1


def cmd_classify(args) -> int:
    fam = parse_family(_read(args.family))
    if len(fam) != 2:
        raise ValueError(f"classify needs exactly 2 distinct sets, got {len(fam)}")
    a, b = fam.sets
    rel = classify_pair(a, b, fam.ground)
    if args.format == "json":
        print(json.dumps({"a": format_set(a), "b": format_set(b), "relation": rel.value}, sort_keys=True))
    else:
        print(f"{format_set(a)} vs {format_set(b)}: {rel.value}")
    return 0


def cmd_decompose(args) -> int:
    fam = parse_family(_read(args.family))
    dec = dilworth_partition(fam)
    if args.format == "json":
        doc = {
            "chains": [[format_set(m) for m in chain] for chain in dec.chains],
            "max_antichain": [format_set(m) for m in dec.max_antichain],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"{len(dec.chains)} chains (max antichain size {len(dec.max_antichain)})")
        for i, chain in enumerate(dec.chains):
            print(f"chain {i}: " + " < ".join(format_set(m) for m in chain))
        print("antichain: " + "; ".join(format_set(m) for m in dec.max_antichain))
    return 0


def cmd_gen(args) -> int:
    if args.kind == "laminar":
        fam = gen_laminar_max(args.n)
    elif args.kind == "intervals":
        fam = gen_cyclic_intervals(args.n, args.include_trivial)
    else:
        fam = gen_random_cross_free(args.n, args.k, args.mode, args.seed)
    sys.stdout.write(serialize_family(fam))
    return 0


def cmd_reduce(args) -> int:
    fam = parse_family(_read(args.family))
    try:
        reduced = weak_reduce(fam, args.k)
    except NotCrossFreeError as exc:
        print(f"input family is not {args.k}-cross-free (strict mode)")
        _print_witness(exc.witness)
        return 1
    sys.stdout.write(serialize_family(reduced))
    return 0


def cmd_chains_extract(args) -> int:
    fam = parse_family(_read(args.family))
    cc = extract_disjoint_chains(fam, args.h)
    sys.stdout.write(serialize_chain_collection(cc))
    return 0


def cmd_chains_select(args) -> int:
    cc = parse_chain_collection(_read(args.chains))
    selected, ordering, _trace = select_conditioned_chains(
        cc, args.k, args.multiplier, args.seed
    )
    if args.format == "json":
        print(json.dumps({"selected": list(selected), "ordering": list(ordering.perm)}, sort_keys=True))
    else:
        print("selected " + (",".join(str(i) for i in selected) if selected else "-"))
        sys.stdout.write("ordering " + serialize_ordering(ordering))
    return 0


def cmd_chains_check(args) -> int:
    cc = parse_chain_collection(_read(args.chains))
    ordering = parse_ordering(_read(args.ordering), cc.ground.n)
    selected = _parse_indices(args.indices)
    report = check_conditions(cc, selected, ordering, args.k, args.multiplier)
    if args.format == "json":
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        _print_verdicts(report.violations)
    return 0 if report.all_pass else 1


def cmd_tree_validate(args) -> int:
    cc = parse_chain_collection(_read(args.chains))
    ordering = parse_ordering(_read(args.ordering), cc.ground.n)
    tree = tree_from_json(_read(args.tree))
    report = validate_tree(tree, cc, ordering)
    if args.format == "json":
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        if report.malformed:
            print("malformed:")
            for m in report.malformed:
                print(f"  {m}")
        _print_verdicts(report.violations)
        _print_verdicts(report.advisory, " (advisory)")
    return 0 if report.ok else 1


def cmd_tree_extract(args) -> int:
    cc = parse_chain_collection(_read(args.chains))
    ordering = parse_ordering(_read(args.ordering), cc.ground.n)
    tree = tree_from_json(_read(args.tree))
    try:
        witness = extract_k_crossing_from_tree(tree, cc, ordering, args.k)
    except ExtractionError as exc:
        print(f"extraction failed: {exc}")
        return 1
    _print_witness(witness)
    return 0


def cmd_tree_build(args) -> int:
    cc = parse_chain_collection(_read(args.chains))
    ordering = parse_ordering(_read(args.ordering), cc.ground.n)
    selected = _parse_indices(args.indices)
    result = build_tree(cc, selected, ordering, args.height, args.branching)
    if result.tree is None:
        print("no tree meets the branching target", file=sys.stderr)
        for i, reason in sorted(result.per_root.items()):
            print(f"root {i}: {reason}", file=sys.stderr)
        return 1
    sys.stdout.write(tree_to_json(result.tree))
    return 0


def cmd_tree_prune(args) -> int:
    tree = tree_from_json(_read(args.tree))
    pruned = prune_root_children(tree, _parse_indices(args.keep))
    sys.stdout.write(tree_to_json(pruned))
    return 0


def cmd_search(args) -> int:
    fam = parse_family(_read(args.family))
    result = max_cross_free(fam, args.k, args.mode)
    if args.format == "json":
        doc = {
            "k": args.k,
            "mode": args.mode,
            "size": result.size,
            "proven_optimal": True,
            "best": [format_set(m) for m in result.best.sets],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"maximum {args.k}-cross-free subfamily size: {result.size} ({args.mode} mode)")
        for m in result.best.sets:
            print(f"  {format_set(m)}")
    return 0


def cmd_table(args) -> int:
    rows = bound_table(
        _parse_range(args.n), _parse_range(args.k), args.universe.split(","), args.mode
    )
    if args.format == "csv":
        sys.stdout.write(format_table_csv(rows))
    else:
        sys.stdout.write(format_table_text(rows))
    return 0


class Command(NamedTuple):
    help: str
    func: Callable
    arguments: tuple


class Group(NamedTuple):
    help: str
    dest: str
    table: dict


def _arg(*flags, **kwargs):
    return flags, kwargs


K = _arg("--k", type=int, required=True)
MODE = _arg("--mode", choices=("strict", "weak"), default="strict")
FORMAT = _arg("--format", choices=("text", "json"), default="text")
FAMILY = _arg("family")
N = _arg("--n", type=int, required=True)
MULTIPLIER = _arg("--multiplier", type=int, default=3)
SEED = _arg("--seed", type=int, required=True)
TREE_INPUTS = (_arg("--chains", required=True), _arg("--ordering", required=True))

COMMANDS = {
    "check": Command("test a family file for k-cross-freeness", cmd_check, (K, MODE, FORMAT, FAMILY)),
    "classify": Command("pair taxonomy for a 2-set family file", cmd_classify, (FORMAT, FAMILY)),
    "decompose": Command(
        "minimum chain partition with antichain certificate", cmd_decompose, (FORMAT, FAMILY)
    ),
    "gen": Group("emit a generated family file", "kind", {
        "laminar": Command("laminar family of size 2n", cmd_gen, (N,)),
        "intervals": Command(
            "all proper cyclic intervals", cmd_gen, (N, _arg("--include-trivial", action="store_true"))
        ),
        "random": Command("randomized maximal k-cross-free family", cmd_gen, (N, K, MODE, SEED)),
    }),
    "reduce": Command("weakly-cross-free half-size reduction", cmd_reduce, (K, FAMILY)),
    "chains": Group("chain extraction, selection, and condition checks", "chains_command", {
        "extract": Command("greedy disjoint continuous chains", cmd_chains_extract, (
            _arg("--h", type=int, required=True), FAMILY,
        )),
        "select": Command("randomized C1-C4 chain selection", cmd_chains_select, (
            K, MULTIPLIER, SEED, FORMAT, _arg("chains"),
        )),
        "check": Command("verify conditions C1-C4", cmd_chains_check, (
            K,
            MULTIPLIER,
            _arg("--indices", required=True, help="comma-separated selected chain indices"),
            _arg("--ordering", required=True, help="ordering file path"),
            FORMAT,
            _arg("chains"),
        )),
    }),
    "tree": Group("cross-support tree operations", "tree_command", {
        "validate": Command(
            "axiom checks T1-T5 (T6-T8 advisory)", cmd_tree_validate, (*TREE_INPUTS, FORMAT, _arg("tree"))
        ),
        "extract": Command(
            "k pairwise weakly-crossing sets from a tree", cmd_tree_extract, (*TREE_INPUTS, K, _arg("tree"))
        ),
        "build": Command("inductive tree construction", cmd_tree_build, (
            *TREE_INPUTS,
            _arg("--indices", required=True),
            K,
            _arg("--height", type=int, required=True),
            _arg("--branching", type=int, required=True),
        )),
        "prune": Command("keep a subset of root children", cmd_tree_prune, (
            _arg("--keep", required=True, help="comma-separated root child positions"),
            _arg("tree"),
        )),
    }),
    "search": Command("exact maximum k-cross-free subfamily", cmd_search, (K, MODE, FORMAT, FAMILY)),
    "table": Command("exact values vs closed-form bounds", cmd_table, (
        _arg("--n", required=True, help="value or range, e.g. 3..5"),
        _arg("--k", required=True, help="value or range"),
        _arg("--universe", default="all", help="comma-separated subset of {all,intervals}"),
        MODE,
        _arg("--format", choices=("text", "csv"), default="text"),
    )),
}


def _add_table(parser, dest: str, table: dict, argv) -> None:
    """Give ``parser`` a required subcommand ``dest`` from ``table``.

    When ``argv[0]`` names an entry, only that entry is added (and the walk
    continues into it with ``argv[1:]``); otherwise every entry is added.
    """
    if argv and argv[0] in table:
        # Lists every name in the usage line, as the full parser would.
        sub = parser.add_subparsers(dest=dest, required=True, metavar="{" + ",".join(table) + "}")
        entries, argv = [(argv[0], table[argv[0]])], argv[1:]
    else:
        sub = parser.add_subparsers(dest=dest, required=True)
        entries, argv = table.items(), ()
    for name, entry in entries:
        p = sub.add_parser(name, help=entry.help)
        if isinstance(entry, Group):
            _add_table(p, entry.dest, entry.table, argv)
        else:
            for flags, kwargs in entry.arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=entry.func)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the parsers on the path that ``argv``
    names, or every parser when it names none (so ``build_parser()`` is the
    full parser)."""
    parser = argparse.ArgumentParser(
        prog="crossfree",
        description="Verification and search toolkit for k-cross-free set families.",
    )
    _add_table(parser, "command", COMMANDS, list(argv))
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning, such as a merged duplicate set, as one ``warning:`` line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            # Format, tree, search-size and JSON errors all subclass ValueError;
            # OSError covers unreadable paths such as missing files and directories.
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
