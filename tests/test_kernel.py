import random

from crossfree import kernel


def random_adj(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


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


def brute_cliques(adj, cand, k):
    from itertools import combinations

    verts = [v for v in range(len(adj)) if cand >> v & 1]
    for combo in combinations(verts, k):
        if all(adj[a] >> b & 1 for a, b in combinations(combo, 2)):
            return combo
    return None


def test_python_kernel_matches_brute_force():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(0, 14)
        adj = random_adj(rng, n, rng.random())
        k = rng.randrange(1, 6)
        cand = rng.getrandbits(n) if n else 0
        assert kernel.find_k_clique_in(adj, cand, k) == brute_cliques(adj, cand, k)
        assert kernel.find_k_clique(adj, k) == brute_cliques(adj, (1 << n) - 1, k)


def test_complete_graph_deeper_than_recursion_limit():
    n = 1100
    full = (1 << n) - 1
    adj = [full ^ (1 << v) for v in range(n)]
    assert kernel.find_k_clique(adj, n) == tuple(range(n))
