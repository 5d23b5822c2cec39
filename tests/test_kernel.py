import random
from itertools import accumulate, combinations
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from crossfree import kernel
from crossfree.constructions import gen_cyclic_intervals, gen_laminar_max
from crossfree.crossing import crossing_graph
from crossfree.families import Family, GroundSet
from crossfree.symmetry import set_orbits
from oracles import all_subsets, brute_cliques, random_graph, relabel


def test_python_kernel_basics():
    # triangle plus isolated vertex
    adj = [0b0110, 0b0101, 0b0011, 0]
    assert kernel.find_k_clique(adj, 3) == (0, 1, 2)
    assert kernel.find_k_clique(adj, 4) is None
    assert kernel.find_k_clique(adj, 1) == (0,)
    assert kernel.find_k_clique(adj, 0) == ()
    assert kernel.find_k_clique_in(adj, 0b1000, 1) == (3,)
    assert kernel.find_k_clique_in(adj, 0b1110, 3) is None  # vertex 3 is isolated
    assert kernel.find_k_clique_in(adj, 0b0110, 2) == (1, 2)
    assert kernel.find_k_clique_in(adj, 0b0111, 3) == (0, 1, 2)
    assert kernel.find_k_clique_in(adj, 0b1011, 3) is None


def test_lex_least_clique():
    # two triangles {0,1,2} and {0,3,4}; lex-least is (0,1,2)
    adj = [0] * 5
    for a, b in ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    assert kernel.find_k_clique(adj, 3) == (0, 1, 2)


def test_python_kernel_matches_brute_force():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(0, 14)
        adj = random_graph(rng, n, rng.random())
        k = rng.randrange(1, 6)
        cand = rng.getrandbits(n) if n else 0
        assert kernel.find_k_clique_in(adj, cand, k) == brute_cliques(adj, cand, k)
        assert kernel.find_k_clique(adj, k) == brute_cliques(adj, (1 << n) - 1, k)


def least_edge(adj, cand):
    """The least pair (i, j), i < j, of adjacent vertices both in cand, or None."""
    verts = [v for v in range(len(adj)) if cand >> v & 1]
    return next(((a, b) for a, b in combinations(verts, 2) if adj[a] >> b & 1), None)


@st.composite
def edge_queries(draw):
    """A random graph with random self-loops, and a candidate mask that is
    empty, one vertex, all vertices or random."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 14))
    adj = random_graph(rng, n, draw(st.sampled_from((0.0, 0.05, 0.2, 0.5, 1.0))))
    for v in range(n):
        if rng.random() < 0.3:
            adj[v] |= 1 << v
    full = (1 << n) - 1
    kind = draw(st.sampled_from(("empty", "one", "all", "random")))
    if kind == "empty" or not n:
        cand = 0
    elif kind == "one":
        cand = 1 << draw(st.integers(0, n - 1))
    else:
        cand = full if kind == "all" else draw(st.integers(0, full))
    return adj, cand


@settings(deadline=None, max_examples=400)
@given(edge_queries())
def test_k2_scan_returns_the_least_edge(query):
    adj, cand = query
    assert kernel.find_k_clique_in(adj, cand, 2) == least_edge(adj, cand)
    edge = least_edge(adj, (1 << len(adj)) - 1)
    assert kernel.find_k_clique(adj, 2) == edge

    def orbits():
        raise AssertionError("k=2 asked for orbits")

    # With orbits too, at any fetch budget, k=2 is the scan.
    assert kernel.find_k_clique(adj, 2, orbits) == edge
    with mock.patch.object(kernel, "_FIX_AFTER", 0):
        assert kernel.find_k_clique(adj, 2, orbits) == edge


@settings(deadline=None, max_examples=300)
@given(edge_queries(), st.integers(3, 5))
def test_kernel_matches_brute_force_on_graphs_with_self_loops(query, k):
    # The DFS answers each node that needs two more vertices with the k=2
    # scan, which must ignore self-loops there too.
    adj, cand = query
    assert kernel.find_k_clique_in(adj, cand, k) == brute_cliques(adj, cand, k)
    assert kernel.find_k_clique(adj, k) == brute_cliques(adj, (1 << len(adj)) - 1, k)


def test_complete_graph_deeper_than_recursion_limit():
    n = 1100
    full = (1 << n) - 1
    adj = [full ^ (1 << v) for v in range(n)]
    assert kernel.find_k_clique(adj, n) == tuple(range(n))


def reference_color_bound(adj, cand, need):
    """The coloring bound read straight from adj, two complements per step, as the oracle."""
    classes = 0
    m = cand
    while m:
        classes += 1
        if classes >= need:
            return classes
        avail = m
        cls = 0
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            cls |= low
            avail &= ~adj[v]
            avail &= ~low
        m &= ~cls
    return classes


@st.composite
def bound_queries(draw):
    """A graph of up to 80 vertices, some with self-loops, a candidate mask
    (a random mask or a random subset of it) and a need of 3-8."""
    n = draw(st.integers(min_value=1, max_value=80))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    adj = random_graph(rng, n, rng.random())
    for v in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        adj[v] |= 1 << v
    mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    subset = mask & draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return adj, draw(st.sampled_from((mask, subset))), draw(st.integers(3, 8))


@settings(deadline=None, max_examples=300)
@given(bound_queries())
def test_color_bound_matches_reference(query):
    adj, cand, need = query
    assert kernel._color_bound(adj, cand, need) == reference_color_bound(adj, cand, need)


def test_color_bound_self_loop():
    # Vertex 0 lists itself as a neighbour; it still ends up in one class.
    adj = [0b011, 0b001, 0b000]
    assert reference_color_bound(adj, 0b111, 5) == 2
    assert kernel._color_bound(adj, 0b111, 5) == 2


def counted_search(fam, k, with_orbits):
    """find_k_clique on fam's strict crossing graph, with the number of
    _color_bound calls it made and of orbits() calls."""
    adj = crossing_graph(fam, "strict").adj
    fired = []

    def orbits():
        fired.append(1)
        return set_orbits(fam)

    with mock.patch.object(kernel, "_color_bound", side_effect=kernel._color_bound) as bound:
        clique = kernel.find_k_clique(adj, k, orbits) if with_orbits else kernel.find_k_clique(adj, k)
    return clique, bound.call_count, len(fired)


def test_strict_intervals_n24_clique_number_is_12():
    # The shape of the benchmark's largest witness check: 552 strict cyclic
    # intervals whose clique number is n/2. The bound counts pin the
    # kernel's work, so a change that prunes less (or more) shows here.
    fam = gen_cyclic_intervals(24, False)
    witness = tuple(range(264, 276))
    assert counted_search(fam, 12, False) == (witness, 37_257, 0)
    assert counted_search(fam, 12, True) == (witness, 114, 1)
    assert counted_search(fam, 13, False) == (None, 898, 0)
    assert counted_search(fam, 13, True) == (None, 114, 1)


def refuted_root_work(adj, k):
    """The work of each root of the plain spine, on a graph with no k-clique,
    counted as the kernel's fetch budget counts it: 1 per node, plus the
    candidate count of each node that runs the color bound or, needing two
    vertices, the edge scan. Also returns the number of color bounds run."""
    n = len(adj)
    work, bounds = [], 0
    for v in range(n - k + 1):
        stack = [(adj[v] >> (v + 1) << (v + 1), k - 1)]
        spent = 0
        while stack:
            spent += 1
            cand, need = stack.pop()
            assert need > 1
            if cand.bit_count() < need:
                continue
            spent += cand.bit_count()
            if need == 2:
                continue  # the scan finds no edge: there is no k-clique
            bounds += 1
            if kernel._color_bound(adj, cand, need) < need:
                continue
            low = cand & -cand
            stack.append((cand ^ low, need))
            stack.append(((cand ^ low) & adj[low.bit_length() - 1], need - 1))
        work.append(spent)
    return work, bounds


def test_orbit_budget_is_summed_over_refuted_roots():
    # check --k 13 on the n=24 strict intervals refutes 540 roots. The first
    # 123 are each cheaper than the budget that fetches the group; only their
    # summed work reaches it.
    fam = gen_cyclic_intervals(24, False)
    adj = crossing_graph(fam, "strict").adj
    budget = kernel._FIX_AFTER * len(adj)
    work, bounds = refuted_root_work(adj, 13)
    assert bounds + 1 == counted_search(fam, 13, False)[1]  # + the entry bound
    fetched_after = next(i for i, spent in enumerate(accumulate(work)) if spent > budget)
    assert fetched_after == 122
    assert max(work[: fetched_after + 1]) < budget
    assert counted_search(fam, 13, True) == (None, 114, 1)
    with mock.patch.object(kernel, "_FIX_AFTER", 10**9):
        assert counted_search(fam, 13, True) == (None, 898, 0)


def test_intervals_n37_with_trivial_sets_k3_never_fetch_orbits():
    # verify's check --k 3 on 1,334 sets: one bound at entry, then the first
    # root finds the witness.
    assert counted_search(gen_cyclic_intervals(37, True), 3, True) == ((75, 76, 77), 1, 0)


def test_entry_bound_refutes_multipartite_graph():
    # A complete 5-partite graph with interleaved parts of 40 vertices has
    # clique number 5; greedy coloring finds the 5 parts, so the bound at
    # entry refutes k = 6 before the spine takes a single root.
    n, parts = 200, 5
    adj = [sum(1 << u for u in range(n) if u % parts != v % parts) for v in range(n)]
    with mock.patch.object(kernel, "_color_bound", side_effect=kernel._color_bound) as bound:
        assert kernel.find_k_clique(adj, parts + 1) is None
        assert bound.call_count == 1
        assert kernel.find_k_clique_in(adj, (1 << n) - 1, parts + 1) is None
        assert bound.call_count == 2
    assert kernel.find_k_clique(adj, parts) == tuple(range(parts))


@st.composite
def symmetric_queries(draw):
    """A family (random n <= 7, relabelled intervals n <= 8, all subsets or a
    relabelled laminar family), a mode and a k of 2-5."""
    kind = draw(st.sampled_from(("random", "intervals", "all", "laminar")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        n = draw(st.integers(1, 7))
        fam = Family(GroundSet(n), tuple(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))))
    elif kind == "intervals":
        fam = relabel(gen_cyclic_intervals(draw(st.integers(3, 8)), draw(st.booleans())), rng)
    elif kind == "all":
        n = draw(st.integers(1, 6))
        fam = Family(GroundSet(n), tuple(range(1 << n)))
    else:
        fam = relabel(gen_laminar_max(draw(st.integers(2, 8))), rng)
    return fam, draw(st.sampled_from(("strict", "weak"))), draw(st.integers(2, 5))


def seeded_symmetric_queries(rng, count):
    """count queries of a family (at most 24 random sets over n <= 7,
    relabelled intervals n 3-8 or all subsets n <= 6), a mode and a k of
    3-5. k=2 never asks for orbits, and a laminar family has no crossing
    pair, so neither is drawn."""
    for _ in range(count):
        kind = rng.choice(("random", "intervals", "all"))
        if kind == "random":
            n = rng.randint(1, 7)
            fam = Family(GroundSet(n), tuple(rng.getrandbits(n) for _ in range(rng.randint(0, 24))))
        elif kind == "intervals":
            fam = relabel(gen_cyclic_intervals(rng.randint(3, 8), rng.random() < 0.5), rng)
        else:
            fam = all_subsets(rng.randint(1, 6))
        yield fam, rng.choice(("strict", "weak")), rng.randint(3, 5)


def test_orbital_fixing_matches_plain_kernel():
    # Run hypothesis' queries at the default _FIX_AFTER, then seeded k >= 3
    # queries at 0, which asks for orbits at the first refuted root, so
    # every query that refutes a root takes the orbit path there; the
    # coverage floors are on that run.
    calls = {"examples": 0, "fired": 0, "brute": 0}

    def check(query):
        fam, mode, k = query
        adj = crossing_graph(fam, mode).adj
        fired = []

        def orbits():
            fired.append(1)
            return set_orbits(fam)

        calls["examples"] += 1
        clique = kernel.find_k_clique(adj, k, orbits)
        calls["fired"] += len(fired)
        assert clique == kernel.find_k_clique(adj, k)
        # The plain kernel shares its DFS with the orbit path, so small
        # families also meet an oracle that shares no code with either.
        if len(adj) <= 20:
            assert clique == brute_cliques(adj, (1 << len(adj)) - 1, k)
            calls["brute"] += len(fired)

    @settings(deadline=None, max_examples=400)
    @given(symmetric_queries())
    def check_drawn(query):
        check(query)

    check_drawn()
    calls = {"examples": 0, "fired": 0, "brute": 0}
    with mock.patch.object(kernel, "_FIX_AFTER", 0):
        for query in seeded_symmetric_queries(random.Random(0), 400):
            check(query)
    assert calls["fired"] >= calls["examples"] // 4
    assert calls["brute"] >= calls["examples"] // 8
