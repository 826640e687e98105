"""Independent ground truth and enumeration utilities for the tests.

Everything here avoids the library's own graph machinery on purpose: the
brute-force checker works on subsets of states, so agreement with the pair
graph or the guard pipeline is meaningful evidence rather than the same code
tested against itself.
"""
from itertools import permutations, product
from math import gcd

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
        build_cluster_structure, multiply_stable_pairs, sink_states,
        stable_seed, tallest_branch_candidates)

    cs0 = build_cluster_structure(A, 0)
    in_q0 = sink_states(A, cs0)
    if in_q0 is None:
        return None
    cs1 = build_cluster_structure(A, 1)
    for info in tallest_branch_candidates(cs0, cs1):
        seed = stable_seed(info, in_q0, (cs0, cs1)[info.a1])
        if seed is None:
            continue
        zs = multiply_stable_pairs(A, seed, info.a1, info.a2)
        if zs is not None:
            return zs
    return None


def planted_two_blocks(n, k, closed, rng):
    """A random automaton whose states split into two non-empty blocks that
    every letter in ``closed`` maps into themselves; the other letters are
    uniform.  With every letter closed it has at least two sink components."""
    block = [0] * n
    for q in rng.sample(range(n), rng.randint(1, n - 1)):
        block[q] = 1
    members = ([q for q in range(n) if not block[q]], [q for q in range(n) if block[q]])
    flat = [rng.choice(members[block[q]]) if a in closed else rng.randrange(n)
            for q in range(n) for a in range(k)]
    return Automaton(n, k, flat)


def cycle_structured_function(rng, n):
    """A random map on n states built cluster by cluster: cycles whose
    lengths share a small factor, so the cluster graph's gcd is often above
    1, then (unless cycles fill every state) the remaining states hung as
    trees on random earlier states.  Short cycles filling every state leave
    no cluster large."""
    lengths = rng.choice(((1, 2, 3), (2, 4, 6, 8), (3, 6, 9, 12)))
    stop = rng.choice((0.0, 0.4))
    f = [0] * n
    q = 0
    while q < n:
        length = min(rng.choice(lengths), n - q)
        for j in range(length):
            f[q + j] = q + (j + 1) % length
        q += length
        if rng.random() < stop:
            break
    for s in range(q, n):
        f[s] = rng.randrange(s)
    return f


def cluster_graph_reference(cs, pairs, n):
    """The cluster-graph guard's outcome, by enumerating residue labellings.

    Large clusters have more than n^0.45 states; a pair (s, t) whose
    clusters c1, c2 are both large is an edge.  A state's level is its
    height minus its tree's cycle position.  The guard fails with
    NO_LARGE_CLUSTERS when no cluster is large, CLUSTER_GRAPH_DISCONNECTED
    when there are no edges or they leave the clusters they touch in more
    than one piece, and CONGRUENCES_ALL_HOLD when, for some prime p
    dividing the gcd d of the touched clusters' cycle lengths, a labelling
    L of the touched clusters into Z_p has L(c2) - L(c1) = level(t) -
    level(s) (mod p) on every edge.  Otherwise it passes (None).
    """
    from synchk.lincheck import FailReason

    large = {c for c, size in enumerate(cs.sizes) if size > n ** 0.45}
    if not large:
        return FailReason.NO_LARGE_CLUSTERS
    level = [cs.height[q] - cs.tree[q] for q in range(n)]
    edges = [(cs.cluster[s], cs.cluster[t], level[t] - level[s])
             for s, t in pairs if cs.cluster[s] in large and cs.cluster[t] in large]
    touched = sorted({c for c1, c2, _ in edges for c in (c1, c2)})
    if not touched:
        return FailReason.CLUSTER_GRAPH_DISCONNECTED
    reached = set(touched[:1])
    grown = True
    while grown:
        grown = False
        for c1, c2, _ in edges:
            if (c1 in reached) != (c2 in reached):
                reached |= {c1, c2}
                grown = True
    if len(reached) < len(touched):
        return FailReason.CLUSTER_GRAPH_DISCONNECTED
    d = 0
    for c in touched:
        d = gcd(d, len(cs.cycles[c]))
    for p in range(2, d + 1):
        if d % p or any(p % r == 0 for r in range(2, p)):
            continue
        for labels in product(range(p), repeat=len(touched)):
            L = dict(zip(touched, labels))
            if all((L[c2] - L[c1] - dh) % p == 0 for c1, c2, dh in edges):
                return FailReason.CONGRUENCES_ALL_HOLD
    return None
