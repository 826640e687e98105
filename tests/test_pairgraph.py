"""Quadratic oracle: agreement with brute force, invariances, the size cap."""
import random
import tracemalloc

import numpy as np
import pytest

from synchk import pairgraph
from synchk.automaton import Automaton, generate_uniform
from synchk.pairgraph import (
    DEFAULT_ORACLE_CAP, ORACLE_BYTE_BUDGET, OracleCapExceeded, mergeable_pairs, synch_slow)

from helpers import (
    all_permutations, brute_force_synchronizing, cerny, enumerate_automata,
    planted_two_blocks, random_cover, relabel)

# Module settings for each way through the oracle: the predecessor lists;
# bottom-up sweeps to the end; and one sweep handed over to the reverse CSR,
# with the default BFS switch, with every level expanded in NumPy and with
# the whole BFS in the scalar loop.
HANDOVER = {"PREPASS_MIN_N": 0, "SWEEP_MIN_N": 0, "SWEEP_READS": 0}
ORACLE_PATHS = {
    "python": {"SWEEP_MIN_N": 10**9},
    "sweep": {"PREPASS_MIN_N": 0, "SWEEP_MIN_N": 0, "THIN_SHARE": 1, "SWEEP_READS": 10**9},
    "sweep-handover": HANDOVER,
    "handover-wide": {**HANDOVER, "WIDE_MIN": 1},
    "handover-narrow": {**HANDOVER, "WIDE_MIN": 10**9},
}
# the paths that run NumPy, each run again with int64 indices
NUMPY_PATHS = [name for name in ORACLE_PATHS if name != "python"]


_DEFAULTS = {attr: getattr(pairgraph, attr) for path in ORACLE_PATHS.values() for attr in path}


def _force_path(monkeypatch, name):
    for attr, value in {**_DEFAULTS, **ORACLE_PATHS[name]}.items():
        monkeypatch.setattr(pairgraph, attr, value)


def test_known_positive(cerny4):
    assert synch_slow(cerny4)
    # the merge letter applied n-1 times between full rotations synchronizes
    word = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert len({cerny4.apply_word(q, word) for q in range(4)}) == 1


def test_known_negatives(two_shifts):
    assert not synch_slow(two_shifts)
    identity = Automaton(3, 2, [(0, 0), (1, 1), (2, 2)])
    assert not synch_slow(identity)


def test_constant_letter_synchronizes():
    A = Automaton(5, 1, [0, 0, 0, 0, 0])
    assert synch_slow(A)


def test_single_state():
    assert synch_slow(Automaton(1, 2, [0, 0]))


def test_mergeable_pairs_extremes(cerny4, two_shifts):
    n = 4
    everything = {(p, q) for q in range(n) for p in range(q + 1)}
    assert mergeable_pairs(cerny4) == everything
    # permutations never merge anything beyond the diagonal
    assert mergeable_pairs(two_shifts) == {(q, q) for q in range(n)}


def test_mergeable_pairs_characterizes_synch(monkeypatch):
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(1, 3)
        A = generate_uniform(n, k, rng.getrandbits(48))
        full = n * (n + 1) // 2
        for path in ORACLE_PATHS:
            _force_path(monkeypatch, path)
            assert (len(mergeable_pairs(A)) == full) == synch_slow(A), path


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_exhaustive_vs_brute_force(n, k, monkeypatch):
    for A in enumerate_automata(n, k):
        truth = brute_force_synchronizing(A)
        for path in ORACLE_PATHS:
            _force_path(monkeypatch, path)
            assert synch_slow(A) == truth, (path, A.delta)


def test_random_vs_brute_force(monkeypatch):
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        A = generate_uniform(n, k, rng.getrandbits(48))
        truth = brute_force_synchronizing(A)
        for path in ORACLE_PATHS:
            _force_path(monkeypatch, path)
            assert synch_slow(A) == truth, (path, A.delta)


def test_relabeling_invariance():
    # synchronizability only depends on the graph, not on state names
    rng = random.Random(321)
    perms4 = all_permutations(4)
    for _ in range(100):
        A = generate_uniform(4, 2, rng.getrandbits(48))
        v = synch_slow(A)
        for perm in rng.sample(perms4, 5):
            assert synch_slow(relabel(A, perm)) == v


def _with_tail(A, tail, rng):
    """A plus ``tail`` transient states, each sent by every letter to a
    random earlier state, with the states shuffled: the sink components
    are A's."""
    n, k = A.n, A.k
    flat = list(A.delta)
    for s in range(n, n + tail):
        flat += [rng.randrange(s) for _ in range(k)]
    B = Automaton(n + tail, k, flat)
    return relabel(B, rng.sample(range(B.n), B.n))


def _structured_cases():
    """(automaton, known verdict or None) on both sides of PREPASS_MIN_N,
    with sink components of every kind: all states, a proper subset, and
    two or more."""
    rng = random.Random(2024)
    # C_n: a BFS about n^2/2 levels deep, one pair wide
    for n in (1, 2, 3, 15, 17, 40, 60):
        yield relabel(cerny(n), rng.sample(range(n), n)), True
    for n, tail in ((3, 2), (5, 12), (20, 7), (40, 30)):
        yield _with_tail(cerny(n), tail, rng), True
    for base, k in ((1, 1), (1, 2), (3, 5), (8, 2), (9, 1), (30, 2), (40, 5)):
        A = random_cover(base, k, rng)
        yield relabel(A, rng.sample(range(A.n), A.n)), False
        yield _with_tail(A, rng.randint(1, A.n), rng), False
    for n in (1, 2, 7, 15, 16, 17, 90):
        for k in (1, 2, 5):
            yield generate_uniform(n, k, rng.getrandbits(48)), None
    for n in (5, 7, 20, 33, 64):
        for k in (1, 2):
            for _ in range(3):
                yield generate_uniform(n, k, rng.getrandbits(48)), None
    for n in (4, 7, 16, 40):
        for k in (1, 2, 3):
            yield planted_two_blocks(n, k, range(k), rng), False


def test_oracle_paths_agree_on_every_pair(monkeypatch):
    """The predecessor lists, the sweeps with and without a handover, every
    BFS mode after it, and both index widths give the same reached array.
    On every path the verdict, which from PREPASS_MIN_N states comes from
    the sink component alone, is the full pair graph's and the known one
    (brute force's where n <= 7)."""
    kinds = set()
    for A, truth in _structured_cases():
        in_q0 = pairgraph.analyze_scc(A)
        kinds.add("two sinks" if in_q0 is None
                  else "all states" if all(in_q0) else "proper subset")
        if A.n <= 7:
            brute = brute_force_synchronizing(A)
            assert truth in (None, brute), A.delta
            truth = brute
        full = A.n * (A.n + 1) // 2
        reached = {}
        for name in ORACLE_PATHS:
            _force_path(monkeypatch, name)
            reached[name] = bytes(pairgraph._reach(A))
            verdict = synch_slow(A)
            assert verdict == (len(mergeable_pairs(A)) == full), (name, A.delta)
            if truth is not None:
                assert verdict == truth, (name, A.delta)
        monkeypatch.setattr(pairgraph, "_index_dtype", lambda m, k: np.dtype(np.int64))
        for name in NUMPY_PATHS:
            _force_path(monkeypatch, name)
            reached[name + "-int64"] = bytes(pairgraph._reach(A))
        monkeypatch.undo()
        reached["default"] = bytes(pairgraph._reach(A))
        assert len(set(reached.values())) == 1, (A.n, A.k, A.delta)
        # mergeable_pairs lists exactly the reached triangular indices
        flags = reached["python"]
        want = {(q, p) for p in range(A.n) for q in range(p + 1) if flags[p * (p + 1) // 2 + q]}
        assert mergeable_pairs(A) == want
    assert kinds == {"two sinks", "all states", "proper subset"}


def test_two_sinks_build_no_pair_graph(monkeypatch):
    def no_pair_graph(A, m):
        raise AssertionError("the oracle built a pair graph for two sinks")
    monkeypatch.setattr(pairgraph, "_pred_lists", no_pair_graph)
    monkeypatch.setattr(pairgraph, "_images", no_pair_graph)
    rng = random.Random(7)
    for n in (pairgraph.PREPASS_MIN_N + 10, pairgraph.SWEEP_MIN_N + 10):
        for k in (1, 2, 3):
            assert not synch_slow(planted_two_blocks(n, k, range(k), rng))


def test_covers_decide_by_sweeping_alone(monkeypatch):
    """Covers, the benchmark's oracle-bound case, finish bottom-up: no
    reverse CSR and no sort."""
    def no_csr(*args, **kwargs):
        raise AssertionError("the oracle built the reverse CSR")
    monkeypatch.setattr(pairgraph, "_csr_from_images", no_csr)
    monkeypatch.setattr(np, "argsort", no_csr)
    rng = random.Random(400)
    for _ in range(3):
        A = random_cover(200, 2, rng)
        assert not synch_slow(relabel(A, rng.sample(range(A.n), A.n)))


def _fixpoint(A):
    """Reached flags from the diagonal by a NumPy fixpoint: a pair is
    reached once its image under some letter is."""
    n = A.n
    hi, lo = np.tril_indices(n)  # pair {p, q}, q <= p, at p(p+1)/2 + q
    table = np.array(A.delta).reshape(n, A.k)

    def pair_id(x, y):
        big, small = np.maximum(x, y), np.minimum(x, y)
        return big * (big + 1) // 2 + small

    imgs = [pair_id(table[hi, a], table[lo, a]) for a in range(A.k)]
    reached = hi == lo
    while True:
        grown = reached.copy()
        for img in imgs:
            grown |= reached[img]
        if (grown == reached).all():
            return grown.astype(np.uint8).tobytes()
        reached = grown


def _slow_growth_cases(rng):
    """Searches that grow by a few pairs a level, from SWEEP_MIN_N states."""
    for n in (70, 100):
        yield relabel(cerny(n), rng.sample(range(n), n))
        yield _cerny_letters(n, 4)
        perm = rng.sample(range(n), n)
        merge = list(range(n))
        merge[rng.randrange(n)] = rng.randrange(n)
        yield Automaton(n, 2, list(zip(perm, merge)))
        yield Automaton(n, 2, [(min(q + 1, n - 1), perm[q]) for q in range(n)])


def test_slow_growth_matches_fixpoint(monkeypatch):
    """Every oracle path gives the reference's reached array on thin,
    deep searches, and by default C_n is handed over to the reverse CSR."""
    handovers = []
    build = pairgraph._csr_from_images
    monkeypatch.setattr(pairgraph, "_csr_from_images",
                        lambda *args: handovers.append(1) or build(*args))
    cases = list(_slow_growth_cases(random.Random(11)))
    for A in cases:
        want = _fixpoint(A)
        assert bytes(pairgraph._reach(A)) == want, A.delta
        for name in ORACLE_PATHS:
            _force_path(monkeypatch, name)
            assert bytes(pairgraph._reach(A)) == want, (name, A.delta)
        for attr, value in _DEFAULTS.items():
            monkeypatch.setattr(pairgraph, attr, value)
    handovers.clear()
    synch_slow(cases[0])
    assert handovers


def test_index_dtype_widens_before_int32_wraps():
    # pair ids and CSR offsets reach m*k, which int32 holds only below 2**31
    def m(n):
        return n * (n + 1) // 2
    assert pairgraph._index_dtype(m(46340), 2) == np.int32
    assert pairgraph._index_dtype(m(46341), 2) == np.int64
    assert pairgraph._index_dtype(2**31 - 1, 1) == np.int32
    assert pairgraph._index_dtype(2**31, 1) == np.int64
    assert pairgraph._index_dtype(m(70000), 1) == np.int64
    assert pairgraph._index_dtype(m(1000), 5) == np.int32


def _oracle_peak(A, search=synch_slow):
    tracemalloc.start()
    try:
        search(A)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _with_cycle_letter(A, seed):
    """A with letter 0 replaced by a random n-cycle: Q0 is every state."""
    cycle = np.random.default_rng(seed).permutation(A.n)
    table = A.table.copy()
    table[cycle, 0] = np.roll(cycle, -1)
    return Automaton(A.n, A.k, table.tolist())


def _cerny_letters(n, k):
    """C_n's two letters repeated over k letters: a thin search on every
    state, handed over to the reverse CSR."""
    delta = cerny(n).delta
    return Automaton(n, k, [delta[q * 2 + a % 2] for q in range(n) for a in range(k)])


def _path(n):
    """One letter moving each state to the next, the last one fixed."""
    return Automaton(n, 1, [min(q + 1, n - 1) for q in range(n)])


@pytest.mark.parametrize("k", [1, 2, 4])
def test_memory_estimate_bounds_the_allocations(k):
    """The estimate for n states bounds the oracle; the pair graph it
    builds is that of the sink component Q0, so the estimate for |Q0|
    states bounds it too.  Sweeps hold less than the reverse CSR, so the
    estimate is tight on a search handed over to it."""
    n = 1000
    A = generate_uniform(n, k, 5)
    in_q0 = pairgraph.analyze_scc(A)
    peak = _oracle_peak(A)
    assert peak <= pairgraph._oracle_bytes(n, k)
    if in_q0 is None:
        # two sink components: no pair graph, only per-state arrays
        assert peak <= 256 * n
    else:
        assert peak <= pairgraph._oracle_bytes(int(in_q0.sum()), k)
    B = _with_cycle_letter(A, 5)
    assert pairgraph.analyze_scc(B).all()
    estimate = pairgraph._oracle_bytes(n, k)
    assert _oracle_peak(B) <= estimate

    # at k = 1, a path letter through _reach: synch_slow would search its
    # sink component, one state
    thin, search = (_path(n), pairgraph._reach) if k == 1 else (_cerny_letters(n, k), synch_slow)
    assert 0.9 * estimate <= _oracle_peak(thin, search) <= estimate


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_memory_estimate_bounds_small_inputs(k):
    """At 300 states the chunk temporaries are a large share of the peak,
    on sweeps and on the top-down search alike."""
    n = 300
    estimate = pairgraph._oracle_bytes(n, k)
    for A in (_with_cycle_letter(generate_uniform(n, k, 5), 5), _cerny_letters(n, k)):
        assert _oracle_peak(A) <= estimate


def test_memory_estimate_takes_numpy_integers():
    # a state count summed from a bool array is a NumPy integer; the
    # int64 case needs m * k >= 2**31
    for n, k in ((100, 2), (1000, 1), (70000, 1), (40000, 3)):
        assert pairgraph._oracle_bytes(np.int64(n), k) == pairgraph._oracle_bytes(n, k)


def test_default_budget(monkeypatch):
    # the budget admits n = 1000 at k = 2 and never more than 20000 states
    assert pairgraph._oracle_bytes(1000, 2) <= ORACLE_BYTE_BUDGET
    assert DEFAULT_ORACLE_CAP <= 20000
    caps = [pairgraph._default_cap(k) for k in (1, 2, 4, 5)]
    assert caps == sorted(caps, reverse=True) and caps[0] == DEFAULT_ORACLE_CAP
    for k, cap in zip((1, 2, 4, 5), caps):
        assert pairgraph._oracle_bytes(cap, k) <= ORACLE_BYTE_BUDGET
        assert pairgraph._oracle_bytes(cap + 1, k) > ORACLE_BYTE_BUDGET

    # refused before anything is allocated, though below DEFAULT_ORACLE_CAP
    def no_alloc(A, m):
        raise AssertionError("the oracle allocated past its budget")
    monkeypatch.setattr(pairgraph, "_images", no_alloc)
    n = caps[2] + 1
    with pytest.raises(OracleCapExceeded) as exc:
        synch_slow(generate_uniform(n, 4, 0))
    assert n < DEFAULT_ORACLE_CAP
    assert exc.value.cap == caps[2]
    assert exc.value.nbytes == pairgraph._oracle_bytes(n, 4) > ORACLE_BYTE_BUDGET
    assert "GB" in str(exc.value)


def test_cap_raises():
    A = generate_uniform(11, 1, 0)
    with pytest.raises(OracleCapExceeded) as exc:
        synch_slow(A, cap=10)
    assert exc.value.n == 11
    assert exc.value.cap == 10
    assert exc.value.nbytes == pairgraph._oracle_bytes(11, 1)
    with pytest.raises(OracleCapExceeded):
        mergeable_pairs(A, cap=5)


def test_default_cap_applies():
    A = generate_uniform(DEFAULT_ORACLE_CAP + 1, 1, 0)
    with pytest.raises(OracleCapExceeded):
        synch_slow(A)
    # an explicit larger cap overrides the default
    B = generate_uniform(30, 1, 0)
    assert synch_slow(B, cap=30) in (True, False)
