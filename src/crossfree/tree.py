"""Cross-support trees: validation, pruning, witness extraction, and the
inductive builder.

A tree node carries a chain index into a ChainCollection; children are
ordered left to right and every non-root node carries the label of the edge
to its parent. For a non-root node v with parent-edge label phi, the
derived set S_v is the largest member of v's chain not containing phi.
Nodes are immutable, so pruned trees share subtrees with their originals;
all per-node computations therefore key on root-to-node paths, never on
object identity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .chains import Chain, ChainCollection, Ordering
from .crossing import Witness, dilworth_partition
from .families import Family, GroundSet, format_set, mask_of


class MalformedTreeError(ValueError):
    """Structural defects that keep axioms from being evaluated at all."""


class ExtractionError(ValueError):
    """Witness extraction failed its preconditions or verification."""


@dataclass(frozen=True)
class TreeNode:
    chain: int
    edge_label: int | None
    children: tuple["TreeNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class CrossSupportTree:
    root: TreeNode

    def nodes(self):
        """(path, node) pairs in preorder; paths are child-index tuples."""
        out = []
        stack = [((), self.root)]
        while stack:
            path, node = stack.pop()
            out.append((path, node))
            for idx in range(len(node.children) - 1, -1, -1):
                stack.append((path + (idx,), node.children[idx]))
        return out

    def height(self) -> int:
        depth = 0
        node = self.root
        while node.children:
            node = node.children[0]
            depth += 1
        return depth


@dataclass(frozen=True)
class TreeReport:
    """Per-axiom violation lists; T6-T8 are advisory derived checks."""

    malformed: tuple[str, ...]
    violations: dict[str, tuple[str, ...]]
    advisory: dict[str, tuple[str, ...]]

    AXIOMS = ("T1", "T2", "T3", "T4", "T5")
    ADVISORY = ("T6", "T7", "T8")

    @property
    def ok(self) -> bool:
        return not self.malformed and all(not v for v in self.violations.values())

    @property
    def advisory_ok(self) -> bool:
        return all(not v for v in self.advisory.values())

    def as_dict(self):
        return {
            "malformed": list(self.malformed),
            "violations": {k: list(v) for k, v in sorted(self.violations.items())},
            "advisory": {k: list(v) for k, v in sorted(self.advisory.items())},
            "ok": self.ok,
        }


def _s_value(cc: ChainCollection, node: TreeNode) -> int | None:
    """S_v = largest member of v's chain not containing the parent label."""
    phi = node.edge_label
    if phi is None:
        return None
    chain = cc.chains[node.chain]
    if not chain.support_mask >> phi & 1:
        return None
    return chain.member_below(phi)


def validate_tree(tree: CrossSupportTree, cc: ChainCollection, ordering: Ordering) -> TreeReport:
    """Literal check of T1-T5 plus derived T6-T8 as advisory results.

    Structural problems (imperfect shape, dangling chain indices, missing
    edge labels) are reported under ``malformed`` and suppress the axiom
    checks that depend on the broken parts.
    """
    malformed: list[str] = []
    violations: dict[str, list[str]] = {a: [] for a in TreeReport.AXIOMS}
    advisory: dict[str, list[str]] = {a: [] for a in TreeReport.ADVISORY}
    n = cc.ground.n

    infos = tree.nodes()
    by_path = dict(infos)

    # Structural checks.
    for path, node in infos:
        if not 0 <= node.chain < len(cc):
            malformed.append(f"node {path}: dangling chain index {node.chain}")
        if path and node.edge_label is None:
            malformed.append(f"node {path}: missing parent edge label")
        if not path and node.edge_label is not None:
            malformed.append("root must not carry a parent edge label")
    leaf_depths = {len(path) for path, node in infos if node.is_leaf}
    if len(leaf_depths) > 1:
        malformed.append(f"not perfect: leaf depths {sorted(leaf_depths)}")
    if malformed:
        return TreeReport(
            tuple(malformed),
            {k: tuple(v) for k, v in violations.items()},
            {k: tuple(v) for k, v in advisory.items()},
        )

    # T1: labels are valid chain indices and ground elements.
    for path, node in infos:
        if path and not 0 <= node.edge_label < n:
            violations["T1"].append(f"node {path}: edge label {node.edge_label} outside ground set")

    # T2: incident edge labels lie in the node's support; child labels
    # strictly decrease left to right under the ordering.
    for path, node in infos:
        support = cc.chains[node.chain].support_mask
        if path and 0 <= node.edge_label < n and not support >> node.edge_label & 1:
            violations["T2"].append(
                f"node {path}: parent edge label {node.edge_label} not in chain support"
            )
        labels = [c.edge_label for c in node.children]
        for idx, lab in enumerate(labels):
            if lab is None or not 0 <= lab < n:
                continue
            if not support >> lab & 1:
                violations["T2"].append(
                    f"node {path}: child edge label {lab} not in chain support"
                )
        for left, right in zip(labels, labels[1:]):
            if left is None or right is None:
                continue
            if not (0 <= left < n and 0 <= right < n):
                continue  # out-of-range labels are T1's problem
            if not ordering.before(right, left):
                violations["T2"].append(
                    f"node {path}: child labels {left},{right} not strictly decreasing"
                )

    # T3: parent edge label equals leftmost child edge label.
    for path, node in infos:
        if path and not node.is_leaf:
            leftmost = node.children[0].edge_label
            if leftmost != node.edge_label:
                violations["T3"].append(
                    f"node {path}: parent label {node.edge_label} != leftmost child label {leftmost}"
                )

    # T4: along each edge with label x, the member below x grows strictly.
    for path, node in infos:
        sup_v = cc.chains[node.chain].support_mask
        for idx, child in enumerate(node.children):
            x = child.edge_label
            if x is None or not 0 <= x < n:
                continue
            if not (sup_v >> x & 1 and cc.chains[child.chain].support_mask >> x & 1):
                continue  # already a T2 violation
            below_v = cc.chains[node.chain].member_below(x)
            below_u = cc.chains[child.chain].member_below(x)
            if not (below_v & ~below_u == 0 and below_v != below_u):
                violations["T4"].append(
                    f"edge {path}->{path + (idx,)} label {x}: "
                    f"{format_set(below_v)} not strictly inside {format_set(below_u)}"
                )

    s_vals = {path: _s_value(cc, node) for path, node in infos}

    # T5: same-depth pairs through their lowest common ancestor.
    by_depth: dict[int, list[tuple[int, ...]]] = {}
    for path in by_path:
        by_depth.setdefault(len(path), []).append(path)
    for depth, paths in by_depth.items():
        if depth == 0:
            continue
        paths.sort()
        for a_idx in range(len(paths)):
            for b_idx in range(a_idx + 1, len(paths)):
                left, right = paths[a_idx], paths[b_idx]
                common = 0
                while left[common] == right[common]:
                    common += 1
                # u must be leftmost within the subtree of its branch child.
                if any(step != 0 for step in left[common + 1 :]):
                    continue
                s_left, s_right = s_vals[left], s_vals[right]
                if s_left is None or s_right is None:
                    continue
                if s_right & ~s_left:
                    violations["T5"].append(
                        f"nodes {left},{right}: S {format_set(s_right)} "
                        f"not inside S {format_set(s_left)}"
                    )

    # T6 (advisory): leftmost descendants inherit phi and grow S strictly.
    for path, node in infos:
        if not path:
            continue
        parent = by_path[path[:-1]]
        x = node.edge_label
        s_v = s_vals[path]
        if (
            s_v is not None
            and x is not None
            and 0 <= x < n
            and cc.chains[parent.chain].support_mask >> x & 1
        ):
            below_p = cc.chains[parent.chain].member_below(x)
            if not (below_p & ~s_v == 0 and below_p != s_v):
                advisory["T6"].append(
                    f"node {path}: parent member below {x} not strictly inside S"
                )
        desc = path
        while True:
            d_node = by_path[desc]
            if d_node.edge_label != x:
                advisory["T6"].append(f"nodes {path},{desc}: phi not inherited on leftmost path")
                break
            s_u = s_vals[desc]
            if s_v is None or s_u is None:
                break
            if desc != path and not (s_v & ~s_u == 0 and s_v != s_u):
                advisory["T6"].append(
                    f"nodes {path},{desc}: S does not grow strictly along leftmost path"
                )
            if d_node.is_leaf:
                break
            desc = desc + (0,)

    # T7 (advisory): all members of all used chains pairwise intersect;
    # equivalent to pairwise intersecting chain bases.
    used = sorted({node.chain for _, node in infos})
    for a_idx, ci in enumerate(used):
        for cj in used[a_idx + 1 :]:
            if not cc.chains[ci].base & cc.chains[cj].base:
                advisory["T7"].append(f"chains {ci},{cj}: bases disjoint")

    # T8 (advisory): S strictly larger on descendants.
    for path in by_path:
        if len(path) < 2:
            continue
        for cut in range(1, len(path)):
            anc = path[:cut]
            s_anc, s_desc = s_vals[anc], s_vals[path]
            if s_anc is None or s_desc is None:
                continue
            if not s_anc.bit_count() < s_desc.bit_count():
                advisory["T8"].append(
                    f"nodes {anc},{path}: |S| does not increase ({s_anc.bit_count()}"
                    f" -> {s_desc.bit_count()})"
                )

    return TreeReport(
        tuple(malformed),
        {k: tuple(v) for k, v in violations.items()},
        {k: tuple(v) for k, v in advisory.items()},
    )


def prune_root_children(tree: CrossSupportTree, keep) -> CrossSupportTree:
    """Tree with only the given root-child positions (ascending), in order."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep must be a nonempty subset of root children")
    for idx in keep:
        if not 0 <= idx < len(tree.root.children):
            raise ValueError(f"root child index {idx} out of range")
    root = tree.root
    children = tuple(root.children[i] for i in keep)
    return CrossSupportTree(TreeNode(root.chain, root.edge_label, children))


def extract_k_crossing_from_tree(
    tree: CrossSupportTree, cc: ChainCollection, ordering: Ordering, k: int
) -> Witness:
    """k pairwise weakly-crossing sets from a height-k tree.

    Greedy root-to-leaf path: at each level pick the leftmost child that is
    not the leftmost sibling and whose parent-edge label is fresh. Each
    chosen node v contributes S_v plus its parent-edge label; the witness is
    re-verified pairwise before returning.
    """
    if k < 2:
        raise ExtractionError(f"k must be >= 2, got {k}")
    report = validate_tree(tree, cc, ordering)
    if not report.ok:
        raise ExtractionError(f"tree does not validate: {report.as_dict()}")
    if tree.height() != k:
        raise ExtractionError(f"tree height {tree.height()} != k={k}")
    for path, node in tree.nodes():
        if not node.is_leaf and len(node.children) < k:
            raise ExtractionError(f"node {path} has {len(node.children)} < k children")

    sets = []
    sizes = []
    used_labels: set[int] = set()
    node = tree.root
    while not node.is_leaf:
        chosen = None
        for child in node.children[1:]:
            if child.edge_label not in used_labels:
                chosen = child
                break
        if chosen is None:
            raise ExtractionError("no admissible child on greedy path")
        used_labels.add(chosen.edge_label)
        s_val = cc.chains[chosen.chain].member_below(chosen.edge_label)
        sets.append(s_val | 1 << chosen.edge_label)
        sizes.append(sets[-1].bit_count())
        node = chosen
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ExtractionError(f"extracted sizes not strictly increasing: {sizes}")
    return Witness(cc.ground, tuple(sets), "weak")


@dataclass(frozen=True)
class BuildResult:
    tree: CrossSupportTree | None
    per_root: dict


def build_tree(
    cc: ChainCollection,
    selected,
    ordering: Ordering,
    k: int,
    height: int,
    branching: int,
) -> BuildResult:
    """Inductive cross-support tree construction at desk scale.

    Level 0 trees are single nodes. At each level, each surviving root
    collects per-element candidate subtrees (pools J_x over the late half
    of each root's child labels), excludes the per-element top-of-chain
    indices, matches distinct representatives, prunes candidate subtrees to
    make the edge labels consistent, and finally keeps only the subtrees
    whose leftmost-vertex S-sets form chains at every depth. A tree is
    returned only if it validates and every non-leaf meets the branching
    target; None is the expected outcome for most desk-scale inputs.
    """
    selected = tuple(selected)
    for i in selected:
        if not 0 <= i < len(cc):
            raise ValueError(f"chain index {i} out of range for {len(cc)} chains")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    h = cc.uniform_h()
    trees: dict[int, CrossSupportTree] = {
        i: CrossSupportTree(TreeNode(i, None)) for i in selected
    }
    survivors = list(selected)
    per_root: dict = {}

    for _level in range(height):
        z_sets: dict[int, tuple[int, ...]] = {}
        for i in survivors:
            root = trees[i].root
            if root.children:
                y = tuple(c.edge_label for c in root.children)
            else:
                y = cc.chains[i].added
            # Late half under the ordering: these are the labels whose
            # pruned subtrees keep at least half of their children.
            y_sorted = sorted(y, key=ordering.position)
            z_sets[i] = tuple(y_sorted[len(y_sorted) // 2 :])
        pools: dict[int, list[int]] = {}
        for i in survivors:
            for x in z_sets[i]:
                pools.setdefault(x, []).append(i)
        tops: dict[int, tuple[int, ...]] = {}
        excluded: set[int] = set()
        for x, pool in pools.items():
            ranked = sorted(
                pool,
                key=lambda i: (
                    cc.chains[i].member_below(x).bit_count(),
                    cc.chains[i].member_below(x),
                    i,
                ),
            )
            tops[x] = tuple(ranked[-h:])
            excluded.update(tops[x])
        next_survivors = [i for i in survivors if i not in excluded]

        new_trees: dict[int, CrossSupportTree] = {}
        for i in next_survivors:
            result = _assemble_root(cc, ordering, trees, i, z_sets[i], tops, branching)
            if isinstance(result, CrossSupportTree):
                new_trees[i] = result
                per_root[i] = "ok"
            else:
                per_root[i] = result
        trees = new_trees
        survivors = sorted(new_trees)
        if not survivors:
            break

    final = None
    if height == 0:
        survivors = sorted(trees)
        per_root = {i: "ok" for i in survivors}
    if survivors:
        candidate = trees[survivors[0]]
        report = validate_tree(candidate, cc, ordering)
        if report.ok:
            final = candidate
        else:
            per_root[survivors[0]] = f"failed validation: {report.as_dict()}"
    return BuildResult(final, per_root)


def _assemble_root(cc, ordering, trees, i, z_i, tops, branching):
    """One root of one builder level; returns a tree or a failure reason."""
    # Distinct representatives: process labels left to right (reverse
    # ordering) and take the candidate with the largest member below x.
    taken: set[int] = set()
    rep: dict[int, int] = {}
    for x in sorted(z_i, key=ordering.position, reverse=True):
        candidates = [
            j
            for j in tops.get(x, ())
            if j != i
            and j not in taken
            and _strict_subset(cc.chains[i].member_below(x), cc.chains[j].member_below(x))
        ]
        if not candidates:
            continue
        best = max(
            candidates,
            key=lambda j: (
                cc.chains[j].member_below(x).bit_count(),
                cc.chains[j].member_below(x),
                -j,
            ),
        )
        rep[x] = best
        taken.add(best)
    if len(rep) < branching:
        return f"only {len(rep)} matched subtrees < branching {branching}"

    subtrees: dict[int, TreeNode] = {}
    for x, j in rep.items():
        sub = trees[j]
        root = sub.root
        if root.children:
            keep = [
                idx
                for idx, child in enumerate(root.children)
                if not ordering.before(x, child.edge_label)
            ]
            if not keep:
                return f"subtree for label {x} loses all children when pruned"
            sub = prune_root_children(sub, keep)
            if sub.root.children[0].edge_label != x:
                return f"subtree for label {x} cannot be anchored on its label"
        subtrees[x] = TreeNode(sub.root.chain, x, sub.root.children)

    # Keep only labels whose leftmost-vertex S-sets form a chain per depth.
    labels = sorted(subtrees, key=ordering.position, reverse=True)
    depth = CrossSupportTree(subtrees[labels[0]]).height()
    kept = list(labels)
    for d in range(depth + 1):
        s_of = {}
        for x in kept:
            node = subtrees[x]
            for _ in range(d):
                node = node.children[0]
            s_of[x] = cc.chains[node.chain].member_below(x)
        fam = Family(cc.ground, tuple(set(s_of.values())))
        dec = dilworth_partition(fam)
        members = set(max(dec.chains, key=len))
        kept = [x for x in kept if s_of[x] in members]
    if len(kept) < branching:
        return f"only {len(kept)} chain-compatible subtrees < branching {branching}"

    children = tuple(subtrees[x] for x in sorted(kept, key=ordering.position, reverse=True))
    tree = CrossSupportTree(TreeNode(i, None, children))
    for path, node in tree.nodes():
        if not node.is_leaf and len(node.children) < branching:
            return f"node {path} has {len(node.children)} < branching {branching}"
    report = validate_tree(tree, cc, ordering)
    if not report.ok:
        return f"assembled tree fails validation: {report.as_dict()}"
    return tree


def _strict_subset(a: int, b: int) -> bool:
    return a & ~b == 0 and a != b


# --- synthetic fixtures -----------------------------------------------------


def gen_synthetic_tree(
    height: int, branching: int, h: int, seed: int
) -> tuple[CrossSupportTree, ChainCollection, Ordering]:
    """Random valid cross-support tree over nested prefix-interval chains.

    Chains are indexed by depth: the chain at depth d has a private block of
    (d+1)*h filler elements as its base and adds the h interval elements
    0..h-1 one at a time. Edge labels are interval elements; sibling labels
    decrease to the right and the leftmost child always repeats the parent
    label, which makes every axiom hold by construction. The filler blocks
    grow by h per level so derived set sizes increase strictly with depth.
    """
    if h < (height - 1) * (branching - 1) + branching:
        raise ValueError("h too small for the requested height and branching")
    n = h + (height + 1) * h
    if n > 64:
        raise ValueError("ground set would exceed 64 elements")
    ground = GroundSet(n)
    rng = random.Random(seed)

    chains = []
    for d in range(height + 1):
        base = mask_of(range(h, h + (d + 1) * h))
        chains.append(Chain(base, tuple(range(h))))
    cc = ChainCollection(ground, tuple(chains))
    ordering = Ordering.natural(n)

    def min_label(depth_of_child: int) -> int:
        return (height - depth_of_child) * (branching - 1)

    def build(depth: int, phi: int | None) -> TreeNode:
        if depth == height:
            return TreeNode(depth, phi)
        child_depth = depth + 1
        lo = min_label(child_depth)
        if phi is None:
            labels = sorted(rng.sample(range(lo, h), branching), reverse=True)
        else:
            rest = sorted(rng.sample(range(lo, phi), branching - 1), reverse=True)
            labels = [phi] + rest
        children = tuple(build(child_depth, lab) for lab in labels)
        return TreeNode(depth, phi, children)

    tree = CrossSupportTree(build(0, None))
    return tree, cc, ordering


# --- file format ------------------------------------------------------------


def tree_to_json(tree: CrossSupportTree) -> str:
    def encode(node: TreeNode):
        return {
            "chain": node.chain,
            "edge_label_from_parent": node.edge_label,
            "children": [encode(c) for c in node.children],
        }

    return json.dumps(encode(tree.root), indent=2, sort_keys=True) + "\n"


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which is an int subclass.
    return isinstance(value, int) and not isinstance(value, bool)


def tree_from_json(text: str) -> CrossSupportTree:
    def decode(obj) -> TreeNode:
        if not isinstance(obj, dict) or "chain" not in obj:
            raise MalformedTreeError(f"bad tree node: {obj!r}")
        chain = obj["chain"]
        label = obj.get("edge_label_from_parent")
        children = obj.get("children", [])
        if not _is_int(chain):
            raise MalformedTreeError(f"chain must be an integer, got {chain!r}")
        if label is not None and not _is_int(label):
            raise MalformedTreeError(
                f"edge_label_from_parent must be an integer or null, got {label!r}"
            )
        if not isinstance(children, list):
            raise MalformedTreeError(f"children must be a list, got {children!r}")
        return TreeNode(chain, label, tuple(decode(c) for c in children))

    try:
        return CrossSupportTree(decode(json.loads(text)))
    except RecursionError:
        raise MalformedTreeError("tree JSON is nested too deeply") from None
