"""Guard pipeline: every stage in isolation, then the assembled checker."""
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchk import lincheck, pairgraph
from synchk.automaton import Automaton, generate_uniform
from synchk.lincheck import (
    CheckOutcome,
    CheckReport,
    FailReason,
    PairOutcome,
    StablePairSet,
    Verdict,
    analyze_scc,
    binary_linear_check,
    build_cluster_structure,
    check_cluster_graph,
    check_cycle_majority,
    check_cycle_pairs,
    check_synchronizing,
    check_two_cycles,
    cluster_count_ok,
    cycle_closure_flags,
    large_state_mask,
    linear_check,
    multiply_stable_pairs,
    shift_exists,
    sink_states,
    stable_seed,
    tallest_branch_candidates,
)
from synchk.pairgraph import OracleCapExceeded, mergeable_pairs, synch_slow

from helpers import (
    brute_force_synchronizing,
    cerny,
    cluster_graph_reference,
    collect_stable_pairs,
    cycle_structured_function,
    planted_two_blocks,
    random_cover,
    relabel,
    validate_cluster_structure,
)

# NUMPY_MIN_N for each way through the linear phase: every pass in pure
# Python, or every pass in NumPy.
LINCHECK_PATHS = {"python": 10**9, "numpy": 1}


def _force_path(monkeypatch, name):
    monkeypatch.setattr(lincheck, "NUMPY_MIN_N", LINCHECK_PATHS[name])


def random_function(rng, n):
    return [rng.randrange(n) for _ in range(n)]


def structure_fields(cs):
    """Every field of a cluster structure as plain lists, whichever path
    built it."""
    per_state = [np.asarray(x).tolist() for x in (cs.cluster, cs.tree, cs.height, cs.branch_root)]
    return [cs.letter, *per_state, cs.cycles, cs.sizes]


# ---------------------------------------------------------------------------
# outcome plumbing


def test_outcome_validation():
    with pytest.raises(ValueError):
        CheckOutcome(Verdict.LINEAR_FAIL)  # reason required
    with pytest.raises(ValueError):
        CheckOutcome(Verdict.SYNCHRONIZING, FailReason.TOO_MANY_CLUSTERS)
    out = CheckOutcome(Verdict.LINEAR_FAIL, FailReason.TOO_MANY_CLUSTERS)
    assert out.step == "cluster-count"
    assert CheckOutcome(Verdict.NOT_SYNCHRONIZING).step == "scc"
    assert CheckOutcome(Verdict.SYNCHRONIZING).step is None


# ---------------------------------------------------------------------------
# sink components


def test_scc_strongly_connected(cerny4):
    in_q0 = analyze_scc(cerny4)
    assert in_q0.dtype == np.bool_
    assert in_q0.tolist() == [True] * 4


def test_scc_two_sinks():
    # 0,1 and 2,3 are separate closed components
    A = Automaton(4, 2, [(1, 1), (0, 0), (3, 3), (2, 2)])
    assert analyze_scc(A) is None


def test_scc_transient_states():
    # 2 falls into the 0-1 component and can never return
    A = Automaton(3, 1, [1, 0, 0])
    assert analyze_scc(A).tolist() == [True, True, False]


def test_scc_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1111)
    for _ in range(150):
        n = rng.randint(1, 12)
        k = rng.randint(1, 3)
        A = generate_uniform(n, k, rng.getrandbits(48))
        in_q0 = analyze_scc(A)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for q in range(n):
            for a in range(k):
                g.add_edge(q, A.target(q, a))
        cond = nx.condensation(g)
        sinks = [c for c in cond.nodes if cond.out_degree(c) == 0]
        if len(sinks) == 1:
            assert set(np.flatnonzero(in_q0).tolist()) == cond.nodes[sinks[0]]["members"]
        else:
            assert in_q0 is None


# ---------------------------------------------------------------------------
# cluster decomposition


def test_cluster_structure_fixture(tall_branch_13):
    cs = build_cluster_structure(tall_branch_13, 0)
    assert cs.n_clusters == 1
    assert cs.cycles == [[0, 1, 2, 3, 4]]
    assert [len(c) for c in cs.cycles] == [5]
    assert cs.sizes == [13]
    assert sorted(cs.height) == [0] * 5 + [1] * 4 + [2] * 3 + [3]
    assert cs.branch_root == [-1, -1, -1, -1, -1, 5, 5, 5, 8, 9, 10, 10, 10]
    # tree[q] is the cycle position where q's tree touches down
    f = tall_branch_13.column(0)
    for q in range(13):
        x = q
        for _ in range(cs.height[q]):
            x = f[x]
        assert cs.cycles[cs.cluster[q]][cs.tree[q]] == x


@settings(max_examples=120)
@given(st.data())
def test_cluster_structure_invariants(data):
    n = data.draw(st.integers(1, 40))
    f = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    for path in LINCHECK_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            _force_path(mp, path)
            cs = build_cluster_structure(Automaton(n, 1, f), 0)
        validate_cluster_structure(cs, f, n)


def _maps(rng):
    """(name, map) pairs from _plain_maps, with the states relabelled at
    random half of the time."""
    for name, f in _plain_maps(rng):
        if rng.random() < 0.5:
            n = len(f)
            perm = list(range(n))
            rng.shuffle(perm)
            g = [0] * n
            for q in range(n):
                g[perm[q]] = perm[f[q]]
            f = g
        yield name, f


def _path(n, cycle):
    """0 -> 1 -> ... -> n-1, closed by n-1 -> n-cycle: one branch, of
    height n - cycle."""
    return [q + 1 if q + 1 < n else n - cycle for q in range(n)]


def _plain_maps(rng):
    """Uniform maps, maps built cluster by cluster, paths into a loop or a
    short cycle, and the two letters of C_n.  Then paths whose branch has
    height - 1 = 2^j - 1, 2^j and 2^j + 1, for j = 3..8: the NumPy
    builder's pointer doubling stops on the round that first moves no
    state 2^i steps, so these sit on either side of that test."""
    for n in list(range(1, 40)) + [rng.randint(40, 400) for _ in range(30)]:
        path = _path(n, rng.randint(1, n))
        C = cerny(n)
        yield from (("uniform", random_function(rng, n)),
                    ("structured", cycle_structured_function(rng, n)),
                    ("path", path), ("cerny-0", C.column(0)), ("cerny-1", C.column(1)))
    for j in range(3, 9):
        for below in (2**j - 1, 2**j, 2**j + 1):
            cycle = rng.randint(1, 5)
            yield "doubling-edge", _path(below + 1 + cycle, cycle)


def test_cluster_builders_agree(monkeypatch):
    # the NumPy builder reproduces the Python one field for field: cluster
    # numbering by least state, cycle rotation, heights and branch roots
    rng = random.Random(8080)
    seen = set()
    for name, f in _maps(rng):
        n = len(f)
        A = Automaton(n, 2, list(zip(f, f[::-1])))
        got = {}
        for path in LINCHECK_PATHS:
            _force_path(monkeypatch, path)
            got[path] = [structure_fields(build_cluster_structure(A, a)) for a in (0, 1)]
        assert got["python"] == got["numpy"], (name, f)
        validate_cluster_structure(build_cluster_structure(A, 0), f, n)
        seen.add(name)
    assert seen == {"uniform", "structured", "path", "cerny-0", "cerny-1", "doubling-edge"}


def test_sink_test_matches_tarjan(monkeypatch):
    # the reachability sink test finds the same sink component as Tarjan,
    # or the same two-or-more; planted blocks closed under every letter give
    # two sinks, closed under some letters often one with transient states.
    # Its searches run all in NumPy, by default, and all one state at a
    # time, from letter 0's cluster structure in list or in array form.
    search_modes = (1, lincheck.WIDE_MIN, 10**9)
    rng = random.Random(9090)
    outcomes = set()
    for k in range(1, 7):
        for _ in range(60):
            n = rng.randint(2, 300)
            closed = rng.choice((range(k), (0,), (k - 1,), ()))
            A = planted_two_blocks(n, k, closed, rng)
            want = analyze_scc(A)
            for path, wide in product(LINCHECK_PATHS, search_modes):
                _force_path(monkeypatch, path)
                monkeypatch.setattr(lincheck, "WIDE_MIN", wide)
                got = sink_states(A)
                if want is None:
                    assert got is None, (path, wide, A.delta)
                else:
                    assert got.tolist() == want.tolist(), (path, wide, A.delta)
                outcomes.add(got is None)
    assert outcomes == {False, True}


def _few_letter_0_cycles(A):
    return cluster_count_ok(build_cluster_structure(A, 0), A.n)


def test_sink_test_runs_no_tarjan(monkeypatch):
    # at every size the sink test is the reachability search; Tarjan runs
    # only when letter 0 has more than 5 ln n cycles
    def no_tarjan(A):
        raise AssertionError("the linear phase ran Tarjan")
    rng = random.Random(6060)
    autos = []
    for n in range(2, 200):
        for k in (1, 2, 3):
            autos.append(generate_uniform(n, k, rng.getrandbits(48)))
            autos.append(planted_two_blocks(n, k, rng.choice((range(k), (0,), ())), rng))
    autos = [A for A in autos if _few_letter_0_cycles(A)]
    assert len(autos) > 900
    for path in LINCHECK_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            _force_path(mp, path)
            mp.setattr(lincheck, "analyze_scc", no_tarjan)
            for A in autos:
                linear_check(A)
                check_synchronizing(A)

    calls = []
    monkeypatch.setattr(lincheck, "analyze_scc",
                        lambda A: calls.append(A.n) or analyze_scc(A))
    ident = list(range(20))
    for g, truth in (([0] * 20, True), (ident, False)):
        A = Automaton(20, 2, list(zip(ident, g)))
        assert not _few_letter_0_cycles(A)
        calls.clear()
        assert check_synchronizing(A).synchronizing is truth
        assert calls == [20]


def test_one_letter_sink_test_counts_clusters(monkeypatch):
    # with one letter every cluster is a sink component, so neither the
    # search nor Tarjan runs, even for identity letters far beyond 5 ln n
    def no_search(*args):
        raise AssertionError("the one-letter sink test searched")
    rng = random.Random(1717)
    outcomes = set()
    for path in LINCHECK_PATHS:
        _force_path(monkeypatch, path)
        monkeypatch.setattr(lincheck, "_reaches", no_search)
        monkeypatch.setattr(lincheck, "analyze_scc", no_search)
        for n in range(1, 200):
            autos = [generate_uniform(n, 1, rng.getrandbits(48)),
                     Automaton(n, 1, list(range(n))),
                     Automaton(n, 1, [(q + 1) % n for q in range(n)])]
            if n >= 2:
                autos += [planted_two_blocks(n, 1, closed, rng) for closed in ((0,), ())]
            for A in autos:
                want = pairgraph.analyze_scc(A)
                got = sink_states(A)
                if want is None:
                    assert got is None, (path, A.delta)
                else:
                    assert got.tolist() == want.tolist(), (path, A.delta)
                outcomes.add(got is None)
    assert outcomes == {False, True}


def test_cluster_count_bound():
    # a single cycle is one cluster: always fine
    n = 40
    cyc = Automaton(n, 1, [(q + 1) % n for q in range(n)])
    assert cluster_count_ok(build_cluster_structure(cyc, 0), n)
    # the identity has n clusters, far beyond 5 ln 40 ~ 18.4
    ident = Automaton(n, 1, list(range(n)))
    assert not cluster_count_ok(build_cluster_structure(ident, 0), n)


# ---------------------------------------------------------------------------
# tallest branch and the seed pair


def test_tallest_branch_fixture(tall_branch_13, monkeypatch):
    for path in LINCHECK_PATHS:
        _force_path(monkeypatch, path)
        cs0 = build_cluster_structure(tall_branch_13, 0)
        cs1 = build_cluster_structure(tall_branch_13, 1)
        cands = tallest_branch_candidates(cs0, cs1)
        assert len(cands) == 1  # letter 1 is a pure cycle: no branches at all
        info = cands[0]
        assert (info.a1, info.a2) == (0, 1)
        assert info.root == 10
        assert info.height == 3
        assert info.second_height == 2
        assert info.cycle_pred == 0  # 0 and 10 both step to 1 under letter 0
        assert tall_branch_13.target(info.cycle_pred, 0) == tall_branch_13.target(info.root, 0)
        assert cs0.branch_root[12] == cs0.branch_root[10] == info.root
        assert cs0.branch_root[6] != info.root


def test_tallest_branch_tie_rejected(monkeypatch):
    # two height-1 branches of equal depth: no strict winner
    f = [1, 2, 0, 0, 1]  # 3-cycle, states 3 and 4 hang at height 1
    for path in LINCHECK_PATHS:
        _force_path(monkeypatch, path)
        cs0 = build_cluster_structure(Automaton(5, 1, f), 0)
        assert tallest_branch_candidates(cs0, cs0) == []


def test_tallest_branch_both_letters(monkeypatch):
    f = [1, 2, 3, 4, 0, 1]  # 5-cycle plus one branch state
    g = [1, 2, 0, 0, 2, 3]  # 3-cycle; branch at 3 reaches height 2 via 5
    A = Automaton(6, 2, list(zip(f, g)))
    for path in LINCHECK_PATHS:
        _force_path(monkeypatch, path)
        cs0 = build_cluster_structure(A, 0)
        cs1 = build_cluster_structure(A, 1)
        cands = tallest_branch_candidates(cs0, cs1)
        assert [c.a1 for c in cands] == [0, 1]  # lower letter first


def test_stable_seed_accepts_and_rejects(tall_branch_13):
    cs0 = build_cluster_structure(tall_branch_13, 0)
    cs1 = build_cluster_structure(tall_branch_13, 1)
    info = tallest_branch_candidates(cs0, cs1)[0]
    assert stable_seed(info, analyze_scc(tall_branch_13), cs0) == (0, 10)

    # same letter-0 graph, but letter 1 collapses into the cycle, so the
    # sink component no longer contains the tall branch
    f = tall_branch_13.column(0)
    B = Automaton(13, 2, list(zip(f, [0] * 13)))
    cs0b = build_cluster_structure(B, 0)
    cs1b = build_cluster_structure(B, 1)
    infob = tallest_branch_candidates(cs0b, cs1b)[0]
    assert infob.root == 10
    in_q0b = analyze_scc(B)
    assert np.flatnonzero(in_q0b).tolist() == [0, 1, 2, 3, 4]
    assert stable_seed(infob, in_q0b, cs0b) is None


# ---------------------------------------------------------------------------
# stable pair multiplication


def test_multiply_stable_pairs_exact(cerny4):
    # jmax = ceil(4^0.4) = 2; walks recorded by hand
    z_a2, z_a1 = multiply_stable_pairs(cerny4, (1, 0), 1, 0)
    assert z_a2.letter == 0
    assert z_a2.pairs == ((2, 1), (2, 1), (3, 2), (3, 2), (1, 3), (1, 3),
                          (2, 1), (2, 1), (3, 2), (3, 2))
    assert z_a1.letter == 1
    assert z_a1.pairs == ((3, 2), (0, 3), (3, 2), (0, 3), (0, 3), (1, 0),
                          (0, 3), (1, 0), (2, 0), (3, 1), (2, 0), (3, 1))


def test_multiply_stable_pairs_gate():
    # letter 1 funnels everything into state 1 almost immediately, so the
    # walks coincide and fewer than 6 positions survive
    A = Automaton(5, 2, list(zip([1, 2, 3, 4, 0], [1, 1, 1, 2, 1])))
    assert multiply_stable_pairs(A, (1, 2), 1, 0) is None


def test_stable_pairs_are_mergeable():
    # every multiplied pair descends from a pair that merges in one step,
    # so the pair-graph oracle must agree that each one is mergeable
    rng = random.Random(2024)
    seen = 0
    for _ in range(400):
        n = rng.randint(4, 12)
        A = generate_uniform(n, 2, rng.getrandbits(48))
        zs = collect_stable_pairs(A)
        if zs is None:
            continue
        seen += 1
        merge = mergeable_pairs(A)
        for z in zs:
            for x, y in z.pairs:
                assert x != y
                assert (min(x, y), max(x, y)) in merge, (A.delta, x, y)
    assert seen > 50  # the sweep must actually exercise the construction


# ---------------------------------------------------------------------------
# cluster graph over large clusters


def test_large_state_mask_threshold():
    # sizes 4 and 3 straddle 16^0.45 ~ 3.48
    f = [1, 2, 3, 0] + [5, 6, 4] + [8, 9, 7] + [11, 12, 10] + [14, 15, 13]
    cs = build_cluster_structure(Automaton(16, 1, f), 0)
    assert cs.sizes == [4, 3, 3, 3, 3]
    mask = large_state_mask(cs, 16)
    assert [q for q in range(16) if mask[q]] == [0, 1, 2, 3]


@pytest.fixture
def two_cycle_graph():
    """One letter, clusters: a 4-cycle carrying state 10 and a 6-cycle.

    Both clusters are large for n = 11, and gcd of the cycle lengths is 2,
    so the congruence test is live.
    """
    f = [1, 2, 3, 0, 5, 6, 7, 8, 9, 4, 0]
    return build_cluster_structure(Automaton(11, 1, f), 0)


@pytest.fixture
def four_cycles_graph():
    """One letter, two 4-cycles (d = 4) with hang-off states 8 at height 1
    and 9 at height 2, so residuals 2 and 3 mod 4 are both reachable."""
    f = [1, 2, 3, 0, 5, 6, 7, 4, 4, 8]
    return build_cluster_structure(Automaton(10, 1, f), 0)


def test_cluster_graph_matches_reference(two_cycle_graph, four_cycles_graph):
    # every sequence of one or two pairs over five graphs; the third has two
    # 3-cycles and hang-off states 6 and 7 at heights 1 and 2, where a
    # label's sign shows mod 3.  In the last two the pair merges in one
    # step: (0, 4) of a 2-cycle, whose heights differ but whose levels do
    # not, and (2, 3) of a 2-cycle beside a large loop that no pair touches;
    # a pair that touches no large cluster, (6, 7), glues nothing
    three = build_cluster_structure(Automaton(8, 1, [1, 2, 0, 4, 5, 3, 0, 6]), 0)
    one_level = build_cluster_structure(Automaton(8, 1, [1, 0, 0, 0, 1, 1, 6, 6]), 0)
    untouched = build_cluster_structure(Automaton(10, 1, [1, 0, 0, 0, 0, 5, 5, 5, 5, 5]), 0)
    for cs, pair, want in ((one_level, (0, 4), FailReason.CONGRUENCES_ALL_HOLD),
                           (untouched, (2, 3), FailReason.CONGRUENCES_ALL_HOLD),
                           (one_level, (6, 7), FailReason.CLUSTER_GRAPH_DISCONNECTED)):
        z = StablePairSet(letter=0, pairs=(pair,))
        assert check_cluster_graph(cs, z, len(cs.cluster)) is want
    seen = set()
    for cs in (two_cycle_graph, four_cycles_graph, three, one_level, untouched):
        n = len(cs.cluster)
        singles = [(s, t) for s in range(n) for t in range(n)]
        for pairs in [(p,) for p in singles] + list(product(singles, repeat=2)):
            got = check_cluster_graph(cs, StablePairSet(letter=0, pairs=pairs), n)
            assert got == cluster_graph_reference(cs, pairs, n), (cs.cycles, pairs)
            seen.add(got)
    assert seen == {None, FailReason.CLUSTER_GRAPH_DISCONNECTED,
                    FailReason.CONGRUENCES_ALL_HOLD}


def test_cluster_graph_congruence_outcomes(two_cycle_graph):
    cs = two_cycle_graph

    def run(pairs):
        return check_cluster_graph(cs, StablePairSet(letter=0, pairs=pairs), 11)

    # a lone tree edge leaves no non-tree edge to break the congruence
    assert run(((0, 4),)) is FailReason.CONGRUENCES_ALL_HOLD
    # 10 and 3 both step to 0, so 10 keeps the odd parity of 3, as 5 does
    assert run(((0, 4), (10, 5))) is FailReason.CONGRUENCES_ALL_HOLD
    # but 4 keeps the even parity of 0: this pair breaks the congruence
    assert run(((0, 4), (10, 4))) is None
    # a second edge between cycle states at equal positions keeps it intact
    assert run(((0, 4), (1, 5))) is FailReason.CONGRUENCES_ALL_HOLD
    # pairs inside each cluster touch both but never glue them
    assert run(((0, 1), (4, 5))) is FailReason.CLUSTER_GRAPH_DISCONNECTED


def test_cluster_graph_residuals_must_generate(four_cycles_graph):
    # labels are all 0 along cycle-to-cycle pairs, so a non-tree pair into
    # height h has residual -h mod 4
    cs = four_cycles_graph
    assert [len(c) for c in cs.cycles] == [4, 4]
    assert (cs.height[8], cs.height[9]) == (1, 2)

    def run(pairs):
        return check_cluster_graph(cs, StablePairSet(letter=0, pairs=pairs), 10)

    # residual 3 is coprime to 4: one broken congruence settles it
    assert run(((0, 4), (0, 8))) is None
    # residual 2 alone generates only {0, 2} mod 4: the parity obstruction
    # survives, so a single broken congruence is not enough here
    assert run(((0, 4), (0, 9))) is FailReason.CONGRUENCES_ALL_HOLD
    # residuals 2 and 3 together generate all of Z_4
    assert run(((0, 4), (0, 9), (0, 8))) is None
    # cycle-to-cycle pairs have residual 0: never a broken congruence
    assert run(((0, 4), (0, 6), (1, 5))) is FailReason.CONGRUENCES_ALL_HOLD


def test_cluster_graph_no_large():
    # every cluster has 3 of 16 states: all below the 3.48 threshold
    f = [1, 2, 0] + [4, 5, 3] + [7, 8, 6] + [10, 11, 9] + [13, 14, 12] + [15]
    cs = build_cluster_structure(Automaton(16, 1, f), 0)
    z = StablePairSet(letter=0, pairs=((0, 1),))
    assert check_cluster_graph(cs, z, 16) is FailReason.NO_LARGE_CLUSTERS


# ---------------------------------------------------------------------------
# cycle coverage conditions


def test_cycle_majority():
    # 3-cycle plus 2-cycle plus loop; only the 3-cycle is constrained
    f = [1, 2, 0, 4, 3, 5]
    cs = build_cluster_structure(Automaton(6, 1, f), 0)
    none = bytearray(6)
    assert not check_cycle_majority(cs, none)
    one = bytearray(6)
    one[0] = 1
    assert not check_cycle_majority(cs, one)  # 1 < ceil(3/2)
    two = bytearray(6)
    two[0] = two[2] = 1
    assert check_cycle_majority(cs, two)


def build_two_cycle_case(b_col):
    """k=2 automaton whose letter 0 has the single 2-cycle {0, 1}."""
    n = len(b_col)
    f = [1, 0] + list(range(2, n))
    return Automaton(n, 2, list(zip(f, b_col))), build_cluster_structure(
        Automaton(n, 1, f), 0)


def test_two_cycles_inside_mask_passes():
    A, cs = build_two_cycle_case([1, 0, 2, 3, 4, 5])  # b swaps the 2-cycle
    lhat_b = bytearray(6)
    lhat_b[0] = lhat_b[1] = 1
    assert check_two_cycles(A, cs, 1, bytearray(6), lhat_b)
    # outside the mask, a swapped image can never make progress
    assert not check_two_cycles(A, cs, 1, bytearray(6), bytearray(6))


def test_two_cycles_collapse_passes():
    A, cs = build_two_cycle_case([2, 2, 2, 3, 4, 5])  # one b step merges
    assert check_two_cycles(A, cs, 1, bytearray(6), bytearray(6))
    A, cs = build_two_cycle_case([2, 3, 4, 4, 4, 5])  # two b steps merge
    assert check_two_cycles(A, cs, 1, bytearray(6), bytearray(6))


def test_two_cycles_three_point_image():
    # b: 0->2, 1->3, 2->4, 3->2: image set {2,3,4,2} has 3 states
    A, cs = build_two_cycle_case([2, 3, 4, 2, 4, 5])
    in_a = bytearray(6)
    in_a[2] = in_a[3] = 1
    assert check_two_cycles(A, cs, 1, in_a, bytearray(6))
    assert not check_two_cycles(A, cs, 1, bytearray(6), bytearray(6))


def test_two_cycles_four_point_image():
    # b walks the 2-cycle out to {2,3} then {4,5}
    A, cs = build_two_cycle_case([2, 3, 4, 5, 4, 5])
    first = bytearray(6)
    first[2] = first[3] = 1
    second = bytearray(6)
    second[4] = second[5] = 1
    assert check_two_cycles(A, cs, 1, first, bytearray(6))
    assert check_two_cycles(A, cs, 1, second, bytearray(6))
    assert not check_two_cycles(A, cs, 1, bytearray(6), bytearray(6))


def test_cycle_closure_flags():
    cs = build_cluster_structure(Automaton(5, 1, [1, 2, 3, 0, 4]), 0)
    lhat_a = bytearray(5)
    lhat_a[4] = 1
    lhat_b = bytearray(5)
    lhat_b[0] = lhat_b[1] = 1
    flags = cycle_closure_flags(cs, [2, 3, 4, 0, 1], lhat_a, lhat_b)
    assert flags == ([True, False], [True, False])


def test_cycle_pairs_loop_rule():
    cs = build_cluster_structure(Automaton(5, 1, [1, 2, 3, 0, 4]), 0)
    lhat_b = bytearray(5)

    def run(in_b, img_in_a):
        return check_cycle_pairs(cs, lhat_b, (in_b, img_in_a), 5)

    # cycle meets the mask and the loop state is inside it
    assert run([True, True], [False, False]) is None
    # same through one-step images
    assert run([False, False], [True, True]) is None
    # loop covered but the big cycle untouched (and vice versa): stuck
    bad = FailReason.CYCLE_PAIR_NOT_COVERED
    assert run([False, True], [False, False]) is bad
    assert run([True, False], [False, False]) is bad


def test_cycle_pairs_shift_test():
    # 4-cycle and 6-cycle with gcd 2; the chain 10..21 pads the first
    # cluster to size 16 so both clusters stay large at n = 22
    f = [1, 2, 3, 0, 5, 6, 7, 8, 9, 4] + list(range(11, 22)) + [0]
    cs = build_cluster_structure(Automaton(22, 1, f), 0)
    assert [len(c) for c in cs.cycles] == [4, 6]
    dummy = ([False] * 2, [False] * 2)

    lhat = bytearray(22)
    for q in (5, 7, 9, 0, 2):
        lhat[q] = 1
    # the 6-cycle avoids residue 0, the 4-cycle residue 1: shifting by one
    # aligns the holes over all of Z_2, so merging can stall
    assert check_cycle_pairs(cs, lhat, dummy, 22) is FailReason.SHIFT_EXISTS

    lhat2 = bytearray(22)
    for q in (5, 7, 9, 0, 1):
        lhat2[q] = 1
    # now the 4-cycle hits both residues: no shift aligns the holes
    assert check_cycle_pairs(cs, lhat2, dummy, 22) is None


def test_cycle_pairs_skips_large_short_cycle():
    # two 6-cycles and a 10-cycle at n = 22: every pair's shorter cycle has
    # at least 6 states, above 22^0.45 ~ 4.02, so nothing is checked
    f = [1, 2, 3, 4, 5, 0] + [7, 8, 9, 10, 11, 6] + [13, 14, 15, 16, 17, 18, 19, 20, 21, 12]
    cs = build_cluster_structure(Automaton(22, 1, f), 0)
    dummy = ([False] * 3, [False] * 3)
    assert check_cycle_pairs(cs, bytearray(22), dummy, 22) is None


def brute_shift_exists(I, J, d):
    residues = set(range(d))
    return any(({(z + i) % d for i in I} | set(J)) == residues for z in range(d))


def test_shift_exists_exhaustive_small_d():
    for d in range(1, 5):
        for I_bits, J_bits in product(range(1 << d), repeat=2):
            I = [i for i in range(d) if I_bits >> i & 1]
            J = [j for j in range(d) if J_bits >> j & 1]
            assert shift_exists(I, J, d) == brute_shift_exists(I, J, d), (I, J, d)


def test_shift_exists_validation():
    with pytest.raises(ValueError):
        shift_exists([], [], 0)
    with pytest.raises(ValueError):
        shift_exists([3], [], 3)
    with pytest.raises(ValueError):
        shift_exists([], [-1], 2)


# ---------------------------------------------------------------------------
# the assembled pipeline


def test_binary_check_requires_two_letters():
    with pytest.raises(ValueError):
        binary_linear_check(Automaton(3, 1, [1, 2, 0]))
    with pytest.raises(ValueError):
        binary_linear_check(generate_uniform(3, 3, 0))


def test_binary_check_single_state():
    out = binary_linear_check(Automaton(1, 2, [0, 0]))
    assert out.verdict is Verdict.SYNCHRONIZING


def test_binary_check_negative_via_scc():
    A = Automaton(4, 2, [(1, 1), (0, 0), (3, 3), (2, 2)])
    out = binary_linear_check(A)
    assert out.verdict is Verdict.NOT_SYNCHRONIZING
    assert out.step == "scc"


def test_binary_check_permutations_fail_fast(two_shifts):
    out = binary_linear_check(two_shifts)
    assert out.verdict is Verdict.LINEAR_FAIL
    assert out.fail_reason is FailReason.NO_UNIQUE_TALLEST_BRANCH


def test_binary_check_cerny_gives_up_at_cluster_graph(cerny4, parity4):
    # the guards prove C_4; from C_5 on, letter 1's clusters are {0, 1} and
    # n - 2 loops, none of them large
    assert binary_linear_check(cerny4).verdict is Verdict.SYNCHRONIZING
    out = binary_linear_check(cerny(5))
    assert (out.fail_reason, out.step) == (FailReason.NO_LARGE_CLUSTERS, "cluster-graph")
    out = binary_linear_check(parity4)
    assert out.verdict is Verdict.LINEAR_FAIL
    assert out.fail_reason is FailReason.CONGRUENCES_ALL_HOLD
    assert out.step == "cluster-graph"


@pytest.mark.parametrize("path", LINCHECK_PATHS)
def test_cerny_fails_the_count_before_letter_1_is_built(path, monkeypatch):
    # letter 1 of C_n fixes n - 1 states, past 5 ln n from n = 15 on; each
    # is a cluster, so the count fails with letter 0's structure alone
    _force_path(monkeypatch, path)
    built = []

    def counting(A, letter):
        built.append(letter)
        return build_cluster_structure(A, letter)

    monkeypatch.setattr(lincheck, "build_cluster_structure", counting)
    for n in (15, 20, 300):
        built.clear()
        out = binary_linear_check(cerny(n))
        assert out.fail_reason is FailReason.TOO_MANY_CLUSTERS, n
        assert built == [0], n


def test_binary_check_stage_tags():
    A5 = Automaton(5, 2, list(zip([1, 2, 3, 4, 0], [1, 1, 1, 2, 1])))
    out = binary_linear_check(A5)
    assert (out.fail_reason, out.step) == (FailReason.TOO_FEW_STABLE_PAIRS, "stable-pairs")

    f = [1, 2, 3, 4, 0, 1, 5, 5, 2, 0, 1, 10, 11]
    B = Automaton(13, 2, list(zip(f, [0] * 13)))
    out = binary_linear_check(B)
    assert (out.fail_reason, out.step) == (
        FailReason.TALLEST_BRANCH_OUTSIDE_Q0, "seed-pair")


def test_binary_check_positive_is_certified_small():
    # labelled by heights, these non-synchronizing 7-state automata pass
    # every guard; labelled by levels, the pipeline gives up on them and
    # the oracle answers
    for flat in ((3, 1, 5, 4, 6, 0, 5, 0, 6, 3, 1, 3, 4, 0),
                 (5, 6, 5, 2, 3, 1, 1, 3, 1, 5, 6, 3, 4, 0)):
        A = Automaton(7, 2, flat)
        assert not synch_slow(A)
        assert binary_linear_check(A).verdict is Verdict.LINEAR_FAIL
        rep = check_synchronizing(A)
        assert (rep.synchronizing, rep.method) == (False, "fallback")


def test_binary_check_positive_examples():
    small = generate_uniform(20, 2, 0)
    big = generate_uniform(40, 2, 0)
    for A in (small, big):
        assert binary_linear_check(A).verdict is Verdict.SYNCHRONIZING
        assert synch_slow(A)


def test_binary_check_soundness_sweep():
    # a positive or negative verdict is always the truth; LINEAR_FAIL may
    # land on either side and is the only inconclusive outcome.  400 runs
    # at 2 to 12 states, then 8000 at 33 to 200
    rng = random.Random(777)
    verdicts = {v: 0 for v in Verdict}
    for i in range(8400):
        n = rng.randint(2, 12) if i < 400 else rng.randint(33, 200)
        A = generate_uniform(n, 2, rng.getrandbits(48))
        out = binary_linear_check(A)
        verdicts[out.verdict] += 1
        if out.verdict is Verdict.SYNCHRONIZING:
            assert synch_slow(A)
        elif out.verdict is Verdict.NOT_SYNCHRONIZING:
            assert not synch_slow(A)
    assert all(verdicts[v] > 0 for v in Verdict), verdicts


# ---------------------------------------------------------------------------
# drivers


def test_linear_check_trivial_sizes():
    assert linear_check(Automaton(1, 3, [0, 0, 0])).synchronizing is True
    # n = 2 is left to the oracle unless the sink pretest settles it
    assert linear_check(Automaton(2, 2, [(1, 1), (0, 0)])).synchronizing is None
    rep = linear_check(Automaton(2, 2, [(0, 0), (1, 1)]))
    assert rep.synchronizing is False
    assert rep.outcomes[0].letters == (0, 1)


def test_linear_check_one_letter():
    # a single letter is decided by its clusters alone: one cluster whose
    # cycle is a fixed point synchronizes
    rep = linear_check(Automaton(3, 1, [0, 0, 0]))
    assert rep.synchronizing is True and rep.outcomes == ()
    assert linear_check(Automaton(3, 1, [1, 2, 0])).synchronizing is False
    rep = linear_check(Automaton(3, 1, [0, 1, 2]))
    assert rep.synchronizing is False  # three separate sink components


def _one_letter(n, cycles, rng):
    """One letter on n states: ``cycles``, a list of cycle lengths, laid
    out first, the other states hung as trees on random earlier states,
    then every state renamed at random."""
    f, start = [], 0
    for length in cycles:
        f += [start + (i + 1) % length for i in range(length)]
        start += length
    f += [rng.randrange(q) for q in range(start, n)]
    return relabel(Automaton(n, 1, f), rng.sample(range(n), n))


def test_one_letter_never_reaches_the_oracle(monkeypatch):
    """One letter is decided without the oracle, on both sides of
    NUMPY_MIN_N: synchronizing iff there is one cluster and its cycle is a
    fixed point.  Two or more clusters keep their sink-test outcome."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("a one-letter automaton reached the oracle")
    monkeypatch.setattr(pairgraph, "synch_slow", no_oracle)
    monkeypatch.setattr(lincheck, "synch_slow", no_oracle)
    rng = random.Random(31)
    for n in (2, 3, 20, lincheck.NUMPY_MIN_N + 50):
        cases = [_one_letter(n, cycles, rng)
                 for cycles in ([1], [n], [2], [1, 1], [1, 2]) if sum(cycles) <= n]
        cases += [generate_uniform(n, 1, (31, n, i)) for i in range(10)]
        for A in cases:
            rep = check_synchronizing(A)
            assert rep.method == "linear", A.delta
            assert rep.synchronizing == brute_force_synchronizing(A), A.delta
            one_cluster = build_cluster_structure(A, 0).n_clusters == 1
            assert (rep.outcomes == ()) == one_cluster, A.delta


def test_linear_check_pairs_letters():
    # letters 0,1 are hopeless (identity + shift), letters 2,3 carry a
    # pipeline-passing automaton; the driver must reach the second pair
    P = generate_uniform(20, 2, 0)
    shift = [(q + 1) % 20 for q in range(20)]
    ident = list(range(20))
    rows = list(zip(shift, ident, P.column(0), P.column(1)))
    rep = linear_check(Automaton(20, 4, rows))
    assert rep.synchronizing is True
    assert rep.method == "linear"
    assert [po.letters for po in rep.outcomes] == [(0, 1), (2, 3)]
    assert rep.outcomes[0].outcome.fail_reason is FailReason.TOO_MANY_CLUSTERS
    assert rep.outcomes[1].outcome.verdict is Verdict.SYNCHRONIZING
    assert rep.fail_reasons() == (FailReason.TOO_MANY_CLUSTERS,)


def test_linear_check_negative_only_binding_for_k2(two_shifts):
    # for k = 2 a definitive negative from the pair is the full answer
    f = [1, 2, 3, 0]
    g = [0, 1, 2, 3]
    rep = linear_check(Automaton(4, 2, list(zip(g, g))))
    assert rep.synchronizing is False  # identity twice: 4 sink components
    # a k = 4 automaton with the same dead pair stays indeterminate:
    # letters 2 and 3 join the four sinks into one
    rows = list(zip(g, g, f, f))
    rep = linear_check(Automaton(4, 4, rows))
    assert rep.synchronizing is None


def test_linear_check_sink_test_sweep(monkeypatch):
    # the whole-alphabet negative appears exactly when the full automaton
    # has two or more sink components, whichever pair finds them first
    rng = random.Random(4242)
    for n in range(1, 15):
        for k in range(1, 7):
            whole = CheckReport(False, "linear", (PairOutcome(
                tuple(range(k)), CheckOutcome(Verdict.NOT_SYNCHRONIZING)),))
            autos = [generate_uniform(n, k, rng.getrandbits(48)) for _ in range(4)]
            if n >= 2:
                for closed in (range(k), (0, 1), (1, 2)):
                    autos += [planted_two_blocks(n, k, closed, rng) for _ in range(3)]
            for A in autos:
                two_sinks = analyze_scc(A) is None
                truth = synch_slow(A)
                for path in LINCHECK_PATHS:
                    _force_path(monkeypatch, path)
                    rep = linear_check(A)
                    assert (rep == whole) == two_sinks, (path, A.delta)
                    assert check_synchronizing(A).synchronizing == truth, (path, A.delta)


def test_linear_check_runs_sink_test_lazily(monkeypatch):
    # alphabet sizes of the automata the sink test runs on, in order
    sizes = []
    real = sink_states

    def counted(A, cs0=None):
        sizes.append(A.k)
        return real(A, cs0)

    monkeypatch.setattr("synchk.lincheck.sink_states", counted)
    # pair (0, 1) proves it: its own sink test is the only one
    assert linear_check(generate_uniform(200, 4, 0)).synchronizing is True
    assert sizes == [2]
    # pair (0, 1) has four sinks, the whole alphabet one, and pair (2, 3)
    # runs its own test
    sizes.clear()
    g, f = [0, 1, 2, 3], [1, 2, 3, 0]
    assert linear_check(Automaton(4, 4, list(zip(g, g, f, f)))).synchronizing is None
    assert sizes == [2, 4, 2]


def test_check_synchronizing_methods(parity4):
    rep = check_synchronizing(generate_uniform(20, 2, 0))
    assert rep.synchronizing is True and rep.method == "linear"
    rep = check_synchronizing(parity4)
    assert rep.synchronizing is True and rep.method == "fallback"
    assert rep.outcomes  # the linear attempt is preserved in the report
    rep = check_synchronizing(Automaton(3, 1, [0, 0, 0]))
    assert rep.synchronizing is True and rep.method == "linear"


def test_check_synchronizing_oracle_cap(parity4):
    with pytest.raises(OracleCapExceeded):
        check_synchronizing(parity4, oracle_cap=3)
    # a linear-phase answer never consults the oracle, so the cap is moot
    rep = check_synchronizing(generate_uniform(40, 2, 0), oracle_cap=3)
    assert rep.synchronizing is True and rep.method == "linear"


def test_fallback_reuses_the_pipeline_sink_component(monkeypatch):
    """With two letters the oracle starts from the sink component that the
    pipeline found, on both sides of NUMPY_MIN_N, and runs no second
    Tarjan; with more letters it finds Q0 itself."""
    def no_tarjan(A):
        raise AssertionError("the oracle ran Tarjan again")
    rng = random.Random(21)
    # a tail of transient states makes Q0 a proper subset
    tails = [Automaton(n + 5, 2, list(cerny(n).delta) + [rng.randrange(n) for _ in range(10)])
             for n in (30, 250)]
    cases = [(A, True) for A in tails] + [(random_cover(b, 2, rng), False) for b in (20, 150)]
    monkeypatch.setattr(pairgraph, "analyze_scc", no_tarjan)
    for A, truth in cases:
        rep = check_synchronizing(A)
        assert (rep.synchronizing, rep.method) == (truth, "fallback"), A.n
        assert rep.outcomes[0].outcome.in_q0 is not None
    calls = []
    monkeypatch.setattr(pairgraph, "analyze_scc",
                        lambda A: calls.append(A.n) or analyze_scc(A))
    c30 = cerny(30).delta
    wide = Automaton(30, 3, [d for q in range(30) for d in (c30[2 * q], c30[2 * q + 1], q)])
    assert check_synchronizing(wide).synchronizing is True
    assert calls == [30]


def test_check_synchronizing_equals_oracle_sweep():
    rng = random.Random(31337)
    for _ in range(300):
        n = rng.randint(2, 12)
        k = rng.randint(1, 3)
        A = generate_uniform(n, k, rng.getrandbits(48))
        assert check_synchronizing(A).synchronizing == synch_slow(A), A.delta


def test_check_synchronizing_matches_brute_force():
    rng = random.Random(5150)
    for _ in range(120):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        A = generate_uniform(n, k, rng.getrandbits(48))
        assert check_synchronizing(A).synchronizing == brute_force_synchronizing(A)


# linear_check on uniform automata over 3 and 4 letters from NUMPY_MIN_N
# states: per letter pair, the verdict, the fail reason and the size of the
# sink component a linear fail hands on, as the pipeline gave them when a
# letter restriction was stored column by column
_WIDE_REPORTS = {
    (200, 3, 0): (True, (((0, 1), "synchronizing", None, None),)),
    (200, 3, 104): (None, (((0, 1), "linear-fail", "TwoCycleFail", 141),)),
    (200, 3, 111): (None, (((0, 1), "linear-fail", "TallestBranchOutsideQ0", 1),)),
    (200, 4, 41): (True, (((0, 1), "linear-fail", "TallestBranchOutsideQ0", 154),
                          ((2, 3), "synchronizing", None, None))),
    (200, 3, 275): (None, (((0, 1), "linear-fail", "ShiftExists", 164),)),
    (200, 4, 98): (True, (((0, 1), "linear-fail", "CyclePairNotCovered", 151),
                          ((2, 3), "synchronizing", None, None))),
    (200, 3, 240): (None, (((0, 1), "linear-fail", "NoUniqueTallestBranch", 162),)),
    (200, 4, 238): (True, (((0, 1), "linear-fail", "TwoCycleFail", 144),
                           ((2, 3), "synchronizing", None, None))),
    (200, 4, 45): (True, (((0, 1), "linear-fail", "NoUniqueTallestBranch", 153),
                          ((2, 3), "synchronizing", None, None))),
    (257, 3, 18): (None, (((0, 1), "not-synchronizing", None, None),)),
    (257, 3, 121): (None, (((0, 1), "linear-fail", "TooFewStablePairs", 214),)),
    (257, 4, 7): (True, (((0, 1), "linear-fail", "ShiftExists", 201),
                         ((2, 3), "synchronizing", None, None))),
    (5000, 3, 1): (True, (((0, 1), "synchronizing", None, None),)),
    (5000, 4, 2): (True, (((0, 1), "synchronizing", None, None),)),
    (20000, 4, 3): (True, (((0, 1), "synchronizing", None, None),)),
}


def _report_summary(report):
    return (report.synchronizing, tuple(
        (po.letters, po.outcome.verdict.value,
         po.outcome.fail_reason and po.outcome.fail_reason.value,
         None if po.outcome.in_q0 is None else int(po.outcome.in_q0.sum()))
        for po in report.outcomes))


def test_wide_alphabet_reports_are_pinned():
    # the restrictions of a table-backed and of a tuple-backed automaton
    # give the same reports, and the same as before
    assert min(n for n, _, _ in _WIDE_REPORTS) >= lincheck.NUMPY_MIN_N
    for (n, k, s), expected in _WIDE_REPORTS.items():
        A = generate_uniform(n, k, (n, k, s))
        assert _report_summary(linear_check(A)) == expected, (n, k, s)
        assert linear_check(Automaton(n, k, A.delta)) == linear_check(A)
