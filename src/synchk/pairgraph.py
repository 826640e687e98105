"""Quadratic synchronizability oracle via reachability in the pair graph.

An automaton is synchronizing exactly when every unordered pair of states can
be mapped to a single state by some word.  That holds for a pair iff it can
reach a diagonal pair in the graph whose vertices are unordered pairs and
whose edges follow the letter actions, so one multi-source BFS from the
diagonal over reversed edges answers all pairs at once in O(k n^2).

Pair {p, q} with q <= p lives at triangular index p(p+1)/2 + q.  The reversed
edges are kept in CSR layout: the predecessors of pair v are
``rev[offs[v]:offs[v + 1]]``.  Tiny automata build that layout in plain
Python, where NumPy's per-call overhead would dominate; larger ones build it
in NumPy.  The BFS expands the frontier level by level in NumPy while it is
wide, then finishes in a scalar loop: the Cerny automaton C_n has about
n^2/2 BFS levels of a single pair each, where one NumPy step per level would
cost more than the scalar loop.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "ORACLE_BYTE_BUDGET",
    "OracleCapExceeded",
    "mergeable_pairs",
    "synch_slow",
]

# Without an explicit cap the oracle refuses, before allocating anything, any
# input whose estimated peak memory is above this budget.
ORACLE_BYTE_BUDGET = 2 * 1024**3

# Below this many states the pure-Python CSR builder is faster than NumPy's
# fixed per-call cost; the two cross near n = 16.
NUMPY_MIN_N = 16

# The BFS expands frontiers of at least WIDE_MIN pairs level by level in NumPy,
# then drains the rest of the search in a scalar loop.  NumPy works in
# chunks of WIDE_CHUNK frontier pairs, so its temporaries stay small.
WIDE_MIN = 64
WIDE_CHUNK = 1 << 16

_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def _index_dtype(m: int, k: int) -> np.dtype:
    """int32 while every pair id and CSR offset (at most m*k) fits, else int64."""
    return _INDEX_DTYPES[m * k >= 2**31]


def _oracle_bytes(n: int, k: int) -> int:
    """Estimated peak bytes the NumPy oracle allocates for n states, k letters.

    The peak is the larger of two phases: the k pair images next to the four
    index arrays that build them, and the images next to their int64 argsort.
    With int32 indices that is 25 bytes per pair at k = 1 and 12k + 5 above
    (29 at k = 2, 53 at k = 4), which is what the peak RSS grows by between
    n = 1000 and n = 3000 on uniform automata.  Per-state arrays add less
    than 256 bytes a state.
    """
    m = n * (n + 1) // 2
    w = _index_dtype(m, k).itemsize
    return m * (max((k + 4) * w + 4, (w + 8) * k + w) + 1) + 256 * n


def _default_cap(k: int) -> int:
    """The largest n whose estimated memory fits ORACLE_BYTE_BUDGET at k letters."""
    lo, hi = 0, math.isqrt(2 * ORACLE_BYTE_BUDGET)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _oracle_bytes(mid, k) <= ORACLE_BYTE_BUDGET:
            lo = mid
        else:
            hi = mid - 1
    return lo


# No n above this is admitted by default, whatever the alphabet: k = 1 is the
# cheapest per pair.
DEFAULT_ORACLE_CAP = _default_cap(1)


class OracleCapExceeded(RuntimeError):
    """Input too large for the quadratic oracle's n^2 memory budget.

    ``cap`` is the largest n admitted at this alphabet size, and ``nbytes``
    the oracle's estimated peak memory for the refused input.
    """

    def __init__(self, n: int, cap: int, nbytes: int):
        super().__init__(
            f"n={n} exceeds the quadratic oracle cap {cap}; the oracle would need "
            f"an estimated {nbytes / 1e9:.3g} GB; raise the cap explicitly to run it"
        )
        self.n = n
        self.cap = cap
        self.nbytes = nbytes


def _csr_python(A, m):
    """Reverse CSR (rev, offs) as Python lists."""
    n, k = A.n, A.k
    tri = [p * (p + 1) // 2 for p in range(n)]

    # forward image of every pair under every letter
    imgs = []
    for a in range(k):
        col = A.column(a)
        img = [0] * m
        u = 0
        for p in range(n):
            cp = col[p]
            tp = tri[cp]
            for q in range(p + 1):
                cq = col[q]
                img[u] = tp + cq if cp >= cq else tri[cq] + cp
                u += 1
        imgs.append(img)

    offs = [0] * (m + 1)
    for img in imgs:
        for v in img:
            offs[v + 1] += 1
    for i in range(m):
        offs[i + 1] += offs[i]
    rev = [0] * (m * k)
    fill = offs[:m]
    for img in imgs:
        for u in range(m):
            v = img[u]
            rev[fill[v]] = u
            fill[v] += 1
    return rev, offs


def _csr_numpy(A, m):
    """Reverse CSR (rev, offs) as NumPy arrays of the index dtype."""
    n, k = A.n, A.k
    dt = _index_dtype(m, k)
    states = np.arange(n, dtype=dt)
    # p(p+1) itself can pass 2**31 while every pair id still fits in int32
    tri = (states.astype(np.int64) * (states + 1) // 2).astype(dt)
    p = np.repeat(states, np.arange(1, n + 1))
    q = np.arange(m, dtype=dt)
    q -= tri[p]
    delta = A.table.astype(dt, copy=False)
    imgs = np.empty((k, m), dtype=dt)
    for a, row in enumerate(imgs):
        col = delta[:, a]
        # fancy indexing casts int32 indices in chunks; np.take copies them
        cp = col[p]
        cq = col[q]
        np.maximum(cp, cq, out=row)
        np.minimum(cp, cq, out=cp)
        del cq
        np.add(tri[row], cp, out=row)
    del p, q, cp

    # one letter at a time: bincount casts its input to int64
    offs = np.zeros(m + 1, dtype=dt)
    for row in imgs:
        offs[1:] += np.bincount(row, minlength=m)
    np.cumsum(offs, out=offs, dtype=dt)
    flat = imgs.reshape(-1)
    # predecessors in any order within a bucket: the unstable sort is faster
    order = np.argsort(flat)
    rev = flat  # reuse the images' buffer, no longer needed once sorted
    np.remainder(order, m, out=rev, casting="unsafe")
    return rev, offs


def _expand(rev, offs, reached, owner, frontier):
    """One BFS level in NumPy: the unreached predecessors of the frontier.

    The frontier is a list of arrays of reached pairs, and so is the result,
    which holds each new pair once.  Work goes in chunks of WIDE_CHUNK pairs,
    so the temporaries stay small next to the pair graph.
    """
    out = []
    for part in frontier:
        for s in range(0, len(part), WIDE_CHUNK):
            chunk = part[s:s + WIDE_CHUNK]
            starts = offs[chunk]
            counts = offs[chunk + 1] - starts
            ends = np.cumsum(counts)
            idx = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
            cand = rev[idx]
            cand = cand[reached[cand] == 0]
            # the last writer owns each pair, which keeps one copy of each
            pos = np.arange(len(cand), dtype=owner.dtype)
            owner[cand] = pos
            cand = cand[owner[cand] == pos]
            reached[cand] = 1
            if len(cand):
                out.append(cand)
    return out


def _drain(rev, offs, reached, pending):
    """Scalar search to the end from a list of reached pairs whose
    predecessors are not yet visited (last in, first out: only the set of
    reached pairs matters)."""
    pop, push = pending.pop, pending.append
    while pending:
        v = pop()
        for u in rev[offs[v]:offs[v + 1]]:
            if not reached[u]:
                reached[u] = 1
                push(u)


def _pair_reach(A, cap):
    """Reachability flags over triangular pair indices.

    Pair {p, q} with q <= p lives at index p(p+1)/2 + q; the returned bytearray
    holds 1 exactly for pairs some word merges.
    """
    n, k = A.n, A.k
    if cap is not None and n > cap:
        raise OracleCapExceeded(n, cap, _oracle_bytes(n, k))
    # below NUMPY_MIN_N a few hundred pairs are far below the memory budget,
    # not worth its estimate, which criteria-sized sweeps would pay millions
    # of times
    if cap is None and n >= NUMPY_MIN_N and _oracle_bytes(n, k) > ORACLE_BYTE_BUDGET:
        raise OracleCapExceeded(n, _default_cap(k), _oracle_bytes(n, k))
    m = n * (n + 1) // 2
    diagonal = [p * (p + 3) // 2 for p in range(n)]
    reached = bytearray(m)
    for v in diagonal:
        reached[v] = 1

    if n < NUMPY_MIN_N:
        rev, offs = _csr_python(A, m)
        _drain(rev, offs, reached, diagonal)
        return reached

    rev, offs = _csr_numpy(A, m)
    flags = np.frombuffer(reached, dtype=np.uint8)
    owner = np.empty(m, dtype=rev.dtype)
    frontier = [np.array(diagonal, dtype=rev.dtype)]
    while sum(map(len, frontier)) >= WIDE_MIN:
        frontier = _expand(rev, offs, flags, owner, frontier)
    if frontier:
        pending = np.concatenate(frontier).tolist()
        _drain(memoryview(rev), memoryview(offs), reached, pending)
    return reached


def synch_slow(A, cap: int | None = None) -> bool:
    """True iff A is synchronizing.  O(k n^2) time and memory.

    Raises OracleCapExceeded when n is past ``cap``, or, with no cap given,
    when the oracle's estimated peak memory is past ORACLE_BYTE_BUDGET.
    """
    return 0 not in _pair_reach(A, cap)


def mergeable_pairs(A, cap: int | None = None) -> set:
    """All unordered pairs (p, q) with p <= q that some word maps to one state.

    Diagonal pairs are included, so A is synchronizing iff the result has
    n(n+1)/2 elements.
    """
    reached = np.frombuffer(_pair_reach(A, cap), dtype=np.uint8)
    hi, lo = np.tril_indices(A.n)
    idx = np.flatnonzero(reached)
    return set(zip(lo[idx].tolist(), hi[idx].tolist()))
