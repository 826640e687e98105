"""Independent ground truth and enumeration utilities for the tests.

Everything here avoids the library's own graph machinery on purpose: the
brute-force checker works on subsets of states, so agreement with the pair
graph or the guard pipeline is meaningful evidence rather than the same code
tested against itself.
"""
from itertools import permutations, product

from synchk.automaton import Automaton


def brute_force_synchronizing(A, max_len=None):
    """Subset BFS: does some word map the full state set to a singleton?

    Exponential in n, so callers keep n tiny.  ``max_len`` bounds the word
    length when given; BFS depth equals word length, so leaving it None
    explores every reachable subset, which is always enough.
    """
    n, k = A.n, A.k
    if n == 1:
        return True
    cols = [A.column(a) for a in range(k)]
    start = frozenset(range(n))
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        if max_len is not None and depth >= max_len:
            return False
        depth += 1
        nxt = []
        for S in frontier:
            for col in cols:
                T = frozenset(col[q] for q in S)
                if len(T) == 1:
                    return True
                if T not in seen:
                    seen.add(T)
                    nxt.append(T)
        frontier = nxt
    return False


def enumerate_automata(n, k):
    """Every n-state k-letter automaton, as flat transition tuples."""
    for flat in product(range(n), repeat=n * k):
        yield Automaton(n, k, flat)


def relabel(A, perm):
    """The same automaton with state q renamed perm[q]."""
    n, k = A.n, A.k
    flat = [0] * (n * k)
    for q in range(n):
        for a in range(k):
            flat[perm[q] * k + a] = perm[A.delta[q * k + a]]
    return Automaton(n, k, flat)


def all_permutations(n):
    return [list(p) for p in permutations(range(n))]


def cerny(n):
    """The Cerny automaton C_n: letter 0 rotates the states, letter 1 sends
    0 to 1 and fixes the rest.  Synchronizing, with a shortest reset word of
    length (n-1)^2, so its pair-graph BFS is about n^2/2 levels deep."""
    return Automaton(n, 2, [((q + 1) % n, 1 % n if q == 0 else q) for q in range(n)])


def random_cover(base, k, rng):
    """A random 2-fold cover on 2*base states, never synchronizing.

    State 2q+i goes under letter a to 2B(q, a) + (i xor V(q, a)) for a random
    base automaton B and random bits V, so every letter maps each fibre
    {2q, 2q+1} onto a fibre and no word merges a fibre pair.
    """
    lift = [[(rng.randrange(base), rng.randrange(2)) for _ in range(k)]
            for _ in range(base)]
    flat = [2 * b + (i ^ v) for q in range(base) for i in (0, 1) for b, v in lift[q]]
    return Automaton(2 * base, k, flat)


def validate_cluster_structure(cs, f, n):
    """Assert every structural invariant of a one-letter decomposition.

    Checks the cluster partition, the height recurrence along f, branch-root
    bookkeeping, and that each recorded cycle really is a cycle of f in
    action order.
    """
    assert len(cs.cycles) == cs.n_clusters
    assert sum(cs.sizes) == n
    counts = [0] * cs.n_clusters
    for q in range(n):
        counts[cs.cluster[q]] += 1
        assert cs.cluster[f[q]] == cs.cluster[q]
        h = cs.height[q]
        if h == 0:
            assert cs.branch_root[q] == -1
        else:
            assert cs.height[f[q]] == h - 1
            if h == 1:
                assert cs.branch_root[q] == q
            else:
                assert cs.branch_root[q] == cs.branch_root[f[q]]
    assert counts == cs.sizes
    for cid, cyc in enumerate(cs.cycles):
        for j, q in enumerate(cyc):
            assert cs.cluster[q] == cid
            assert cs.height[q] == 0
            assert cs.tree[q] == j
            assert f[q] == cyc[(j + 1) % len(cyc)]


def collect_stable_pairs(A):
    """Drive the pipeline through seed multiplication; both pair sets or None."""
    from synchk.lincheck import (
        analyze_scc, build_cluster_structure, multiply_stable_pairs,
        stable_seed, tallest_branch_candidates)

    scc = analyze_scc(A)
    if scc.multiple_minimal:
        return None
    cs0 = build_cluster_structure(A, 0)
    cs1 = build_cluster_structure(A, 1)
    for info in tallest_branch_candidates(cs0, cs1):
        seed = stable_seed(info, scc, (cs0, cs1)[info.a1])
        if seed is None:
            continue
        zs = multiply_stable_pairs(A, seed, info.a1, info.a2)
        if zs is not None:
            return zs
    return None
