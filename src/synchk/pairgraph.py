"""Quadratic synchronizability oracle via reachability in the pair graph.

An automaton is synchronizing exactly when every unordered pair of states can
be mapped to a single state by some word.  That holds for a pair iff it can
reach a diagonal pair in the graph whose vertices are unordered pairs and
whose edges follow the letter actions, so one multi-source search from the
diagonal over reversed edges answers all pairs at once in O(k n^2).

Pair {p, q} with q <= p lives at triangular index p(p+1)/2 + q.  Below
SWEEP_MIN_N (64) states the reversed edges are Python lists, one a pair,
filled in one pass over the pairs and letters, and a scalar loop searches
them from the diagonal.  At these sizes NumPy's fixed cost per call is a
large share of the work.

From SWEEP_MIN_N states the search starts bottom-up, as in
direction-optimizing BFS, on the pair images alone, built in NumPy.  Each
sweep marks every open pair that has an image already reached, and the
search ends when a sweep adds nothing.  The open pairs' ids and images are
compacted once half of them are reached.  Uniform random automata and
2-fold covers are done in 5 to 9 sweeps, without the reverse edges, whose
build took about as long as the top-down BFS itself.  A thin search hands
over: when a sweep reaches under 1/8 of the open pairs and under 1.5 times
the previous sweep's count while over m/8 pairs are open, the reverse edges
are built from the same images in CSR layout, the predecessors of pair v
being ``rev[offs[v]:offs[v + 1]]``, and a scalar loop searches them to the
end from the pairs the last sweep reached.  A handover means a thin
search: the Cerny automaton C_n has about n^2/2 BFS levels of a single
pair each, where one NumPy step per level would cost more than the scalar
loop, and on the wider frontiers that do hand over a level-by-level NumPy
BFS was no faster than the scalar loop.  C_n hands over after two
sweeps.  The sweeps read at most 32 k m images in all, past which they hand
over too, so the search stays O(k n^2).  Sweeping is faster below 64
states as well, but acceptance criterion 5 times this oracle at n = 50
against the linear pipeline, and it would take most of that gate's margin.

From PREPASS_MIN_N states ``synch_slow`` searches only the pairs of the sink
component Q0, the strongly connected component with no edge out of it.
That is exact.  Q0 is closed under every letter, and every state reaches
it.  So a word moves p into Q0, and a second word moves q in while p stays
inside.  Pairs of Q0 only ever map to pairs of Q0.  Hence A is
synchronizing iff Q0 is unique and every pair of Q0 merges, and the search
on the sub-automaton on Q0 is the same search restricted to those pairs.
"""
from __future__ import annotations

import math
from array import array
from typing import Optional

import numpy as np

from .automaton import Automaton

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

# From this many states the oracle runs two passes before its search:
# _refuse estimates the peak memory, and synch_slow runs Tarjan for the sink
# component Q0.  Below it the estimate could never refuse, and the
# acceptance criteria would pay it millions of times; Tarjan costs about as
# much as the whole search (19.6 against 21.5 us a call at n = 10, k = 2, on
# a 2-CPU x86-64 machine).
PREPASS_MIN_N = 16

# The sweeps below work in chunks of WIDE_CHUNK pairs, so their
# temporaries stay small.  _oracle_bytes allows (16k + 32) bytes a chunk
# pair for them, 1 MB at k = 2, on top of its per-pair count.
WIDE_CHUNK = 1 << 14

# From SWEEP_MIN_N states the search starts with bottom-up sweeps (_sweep),
# below it searches predecessor lists (the module docstring says why).  A
# sweep is thin when it reaches fewer than 1/THIN_SHARE of the pairs open
# before it and fewer than THIN_GROWTH times as many as the sweep before
# it, while more than m/THIN_SHARE pairs are still open.  A thin sweep
# hands the search over to the scalar search of the reverse CSR, and so
# does the sweep that takes the sweeps past SWEEP_READS * k * m image reads
# in all.
SWEEP_MIN_N = 64
THIN_SHARE = 8
THIN_GROWTH = 1.5
SWEEP_READS = 32

_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def _index_dtype(m: int, k: int) -> np.dtype:
    """int32 while every pair id and CSR offset (at most m*k) fits, else int64."""
    return _INDEX_DTYPES[bool(m * k >= 2**31)]


def _oracle_bytes(n: int, k: int) -> int:
    """Estimated peak bytes the NumPy oracle allocates for n states, k letters.

    The peak is the larger of two phases: the k pair images next to the four
    index arrays that build them, and the images next to their int64 argsort
    when the search builds the reverse CSR.  With int32 indices that is 25
    bytes per pair at k = 1 and 12k + 5 above (29 at k = 2, 53 at k = 4),
    which is what the peak RSS grows by between n = 1000 and n = 3000 on
    uniform automata.  The sweeps hold fewer bytes a pair, and they free
    theirs before a handover builds the CSR.  Per-state arrays add less than
    256 bytes a state, and the chunk temporaries a fixed
    (16k + 32) * WIDE_CHUNK bytes.  Only the sweeps make chunk temporaries,
    as the search after a handover is a scalar loop; the term is an upper
    bound for them, kept so that the default caps stay put.

    This bounds an n-state input, and the refusal is decided on it.  From
    PREPASS_MIN_N states synch_slow searches the pair graph of the sink
    component Q0 alone, so its actual peak is the estimate for |Q0| states.
    Below SWEEP_MIN_N states the search holds Python lists in place of
    these arrays, which peaked at 0.26 of the estimate at 63 states, k = 5.
    """
    m = n * (n + 1) // 2
    w = _index_dtype(m, k).itemsize
    return (m * (max((k + 4) * w + 4, (w + 8) * k + w) + 1) + 256 * n
            + (16 * k + 32) * WIDE_CHUNK)


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


def analyze_scc(A) -> Optional[np.ndarray]:
    """The indicator over states of A's unique sink component Q0, a bool
    array, or None when A has two or more.  Iterative Tarjan over all
    letters.

    Working arrays are typed 32-bit buffers: the traversal order is data
    dependent, and compact storage keeps the random accesses cache-resident
    on large inputs.
    """
    n, k = A.n, A.k
    delta = array("i", A.table.tobytes())
    index = array("i", bytes(4 * n))  # 1-based discovery order, 0 = unvisited
    low = array("i", bytes(4 * n))
    on_stack = bytearray(n)
    comp = array("i", bytes(4 * n))
    comp_stack = []
    ncomp = 0
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        comp_stack.append(root)
        on_stack[root] = 1
        call_v = [root]
        call_i = [0]
        while call_v:
            v = call_v[-1]
            i = call_i[-1]
            if i < k:
                call_i[-1] = i + 1
                w = delta[v * k + i]
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    comp_stack.append(w)
                    on_stack[w] = 1
                    call_v.append(w)
                    call_i.append(0)
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                call_v.pop()
                call_i.pop()
                if low[v] == index[v]:
                    while True:
                        w = comp_stack.pop()
                        on_stack[w] = 0
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if call_v and low[v] < low[call_v[-1]]:
                    low[call_v[-1]] = low[v]

    # the first component Tarjan completes has no edge out, so Q0 is
    # component 0 when every other component has an edge out
    comp = np.frombuffer(comp, dtype=np.int32)
    exits = comp[(comp.take(A.table) != comp[:, None]).any(axis=1)]
    if len(np.unique(exits)) < ncomp - 1:
        return None
    return comp == 0


def _pred_lists(A, m):
    """The predecessor lists of the pair graph, one Python list a pair:
    ``preds[v]`` holds every off-diagonal pair that some letter maps to v.
    Diagonal pairs are left out, as the search starts from all of them."""
    n = A.n
    tri = [p * (p + 1) // 2 for p in range(n)]
    preds = [[] for _ in range(m)]
    for a in range(A.k):
        col = A.column(a)
        for p in range(1, n):
            cp = col[p]
            tp = tri[cp]
            u = tri[p]
            for cq in col[:p]:
                preds[tp + cq if cp >= cq else tri[cq] + cp].append(u)
                u += 1
    return preds


def _images(A, m):
    """The (k, m) pair images: row a, entry u is the pair that letter a
    maps pair u to.  The index dtype is _index_dtype's."""
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
    return imgs


def _csr_from_images(imgs, m, ids=None):
    """Reverse CSR (rev, offs) of the edges from the pairs ``ids`` (every
    pair, in order, when None) to their images ``imgs``, a (k, len(ids))
    array whose buffer becomes ``rev``."""
    dt = imgs.dtype
    # one letter at a time: bincount casts its input to int64
    offs = np.zeros(m + 1, dtype=dt)
    for row in imgs:
        offs[1:] += np.bincount(row, minlength=m)
    np.cumsum(offs, out=offs, dtype=dt)
    flat = imgs.reshape(-1)
    # predecessors in any order within a bucket: the unstable sort is faster
    order = np.argsort(flat)
    rev = flat  # reuse the images' buffer, no longer needed once sorted
    np.remainder(order, imgs.shape[1], out=rev, casting="unsafe")
    del order
    if ids is not None:
        rev = ids[rev]
    return rev, offs


def _sweep(imgs, flags, n):
    """Bottom-up search over the pair images ``imgs`` of every pair, from
    the n diagonal pairs reached in ``flags``.

    Each sweep marks, in ``flags``, every open pair with an image already
    reached, so the search is finished when a sweep adds nothing; that
    returns None.  The open pairs' ids and images are compacted once the
    open set has halved.  A thin sweep hands the search over instead: the
    return value is then the open pairs' images, their ids (None for every
    pair) and the pairs the last sweep reached, the only reached pairs
    whose predecessors may still be open.
    """
    k, m = imgs.shape
    live = flags ^ 1  # 1 at the positions of open pairs
    ids = None
    n_open = m - n
    prev = 0
    budget = SWEEP_READS * m  # pairs scanned, k image reads each
    while True:
        size = imgs.shape[1]
        budget -= size
        new = []
        for s in range(0, size, WIDE_CHUNK):
            rows = imgs[:, s:s + WIDE_CHUNK]
            hit = flags.take(rows[0])
            for row in rows[1:]:
                hit |= flags.take(row)
            hit &= live[s:s + WIDE_CHUNK]
            pos = np.flatnonzero(hit)
            if len(pos):
                pos += s
                live[pos] = 0
                if ids is not None:
                    pos = ids[pos]
                flags[pos] = 1
                new.append(pos)
        got = sum(map(len, new))
        if not got or got == n_open:
            return None
        was_open = n_open
        n_open -= got
        if 2 * n_open <= size:
            keep = np.flatnonzero(live).astype(imgs.dtype)
            imgs = imgs[:, keep]
            ids = keep if ids is None else ids[keep]
            live = np.ones(n_open, dtype=np.uint8)
        productive = (THIN_SHARE * got >= was_open or got >= THIN_GROWTH * prev
                      or THIN_SHARE * n_open <= m)
        if budget < 0 or not productive:
            return imgs, ids, new
        prev = got


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


def _refuse(A, cap):
    """Raise OracleCapExceeded when A is too large for the oracle."""
    n, k = A.n, A.k
    if cap is not None and n > cap:
        raise OracleCapExceeded(n, cap, _oracle_bytes(n, k))
    if cap is None and n >= PREPASS_MIN_N and _oracle_bytes(n, k) > ORACLE_BYTE_BUDGET:
        raise OracleCapExceeded(n, _default_cap(k), _oracle_bytes(n, k))


def _reach(A):
    """Reachability flags over triangular pair indices, with no size check
    (_refuse makes it).

    Pair {p, q} with q <= p lives at index p(p+1)/2 + q; the returned bytearray
    holds 1 exactly for pairs some word merges.
    """
    n = A.n
    m = n * (n + 1) // 2
    diagonal = [p * (p + 3) // 2 for p in range(n)]
    reached = bytearray(m)
    for v in diagonal:
        reached[v] = 1

    if n < SWEEP_MIN_N:
        preds = _pred_lists(A, m)
        # last in, first out: only the set of reached pairs matters
        pop, push = diagonal.pop, diagonal.append
        while diagonal:
            for u in preds[pop()]:
                if not reached[u]:
                    reached[u] = 1
                    push(u)
        return reached

    flags = np.frombuffer(reached, dtype=np.uint8)
    handover = _sweep(_images(A, m), flags, n)
    if handover is None:
        return reached
    imgs, ids, frontier = handover
    del handover
    rev, offs = _csr_from_images(imgs, m, ids)
    del imgs, ids
    _drain(memoryview(rev), memoryview(offs), reached, np.concatenate(frontier).tolist())
    return reached


def synch_slow(A, cap: int | None = None, *, _in_q0=None) -> bool:
    """True iff A is synchronizing.  O(k n^2) time and memory.

    Raises OracleCapExceeded when n is past ``cap``, or, with no cap given,
    when the oracle's estimated peak memory for n states is past
    ORACLE_BYTE_BUDGET.  That is decided on n before any other work.

    From PREPASS_MIN_N states only the pairs of the sink component Q0 are
    searched, which is exact (see the module docstring).  Two or more sink
    components give False with no pair graph at all.

    ``_in_q0`` is for lincheck's driver, which has found Q0 already on a
    two-letter automaton, by its reachability search: the bool indicator of
    A's unique sink component, in place of running Tarjan here.  Tarjan
    runs here only without it, for k != 2 or a direct call.
    """
    _refuse(A, cap)
    n = A.n
    if n >= PREPASS_MIN_N:
        inside = analyze_scc(A) if _in_q0 is None else _in_q0
        if inside is None:
            return False
        states = np.flatnonzero(inside)
        if len(states) < n:
            # Q0's states renumbered 0..|Q0|-1 in increasing order
            rank = np.cumsum(inside, dtype=np.int32) - 1
            A = Automaton._raw(len(states), A.k, table=rank.take(A.table.take(states, axis=0)))
    return 0 not in _reach(A)


def mergeable_pairs(A, cap: int | None = None) -> set:
    """All unordered pairs (p, q) with p <= q that some word maps to one state.

    Diagonal pairs are included, so A is synchronizing iff the result has
    n(n+1)/2 elements.
    """
    _refuse(A, cap)
    reached = np.frombuffer(_reach(A), dtype=np.uint8)
    hi, lo = np.tril_indices(A.n)
    idx = np.flatnonzero(reached)
    return set(zip(lo[idx].tolist(), hi[idx].tolist()))
