"""Linear expected-time synchronizability check.

The checker proves non-synchronizability only by the sink-component test;
otherwise it runs a pipeline of structural guards on the functional graphs of
a two-letter automaton.  When every guard passes, the automaton is
synchronizing: the guards together are a proof, at every size.
When one fails, the outcome is a LinearFail carrying the reason, and the caller
is expected to fall back to the quadratic oracle.  Each guard is O(n) or
sublinear and is designed to fail only rarely on uniform random input, which
is what makes the combined pipeline linear in expectation.

The sink test is a reachability search from letter 0's cycles at every
size; Tarjan's algorithm runs only when letter 0 has more than 5 ln n
cycles, where the pipeline fails its cluster count anyway.  From
NUMPY_MIN_N states the two cluster decompositions and the per-state guards
run in NumPy; below it, where NumPy's fixed per-call cost would dominate,
in pure Python.

Pipeline order for a two-letter automaton:

  1. sink components of the whole transition graph (a definitive negative
     when there are two or more),
  2. per-letter cluster counts against the 5 ln n bound,
  3. a strictly tallest height-1 branch in one letter's graph,
  4. a seed pair {cycle predecessor, branch root} that merges in one step,
     provided the branch reaches into the sink component,
  5. multiplication of the seed into two sets of stable pairs,
  6. per letter: connectivity of the graph induced on large clusters by the
     stable pairs, with a gcd congruence test on the non-tree edges,
  7. per letter ordering: cycle majority coverage, conditions on 2-cycles,
     and a residue shift test on pairs of small cycles.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import chain
from typing import Optional

import numpy as np

from .pairgraph import analyze_scc, synch_slow

__all__ = [
    "Verdict",
    "FailReason",
    "CheckOutcome",
    "PairOutcome",
    "CheckReport",
    "binary_linear_check",
    "linear_check",
    "check_synchronizing",
]

# From this many states the cluster decompositions and the per-state guards
# run in NumPy.  Below it the pure-Python passes are faster than NumPy's
# fixed per-call cost; the two cross near n = 200.  The sink test does not
# depend on it: its reachability search runs at every size.
NUMPY_MIN_N = 200

# The sink test's reachability search expands its pending states in NumPy
# once at least this many are waiting, and one at a time below that: a
# state-by-state walk through a long chain would otherwise pay one NumPy
# step per state.
WIDE_MIN = 64


class Verdict(Enum):
    SYNCHRONIZING = "synchronizing"
    NOT_SYNCHRONIZING = "not-synchronizing"
    LINEAR_FAIL = "linear-fail"


class FailReason(Enum):
    """Why the linear pipeline gave up (it never means "not synchronizing"),
    with ``step``, the pipeline stage whose guard failed."""

    def __new__(cls, value: str, step: str):
        self = object.__new__(cls)
        self._value_ = value
        self.step = step
        return self

    TOO_MANY_CLUSTERS = "TooManyClusters", "cluster-count"
    NO_UNIQUE_TALLEST_BRANCH = "NoUniqueTallestBranch", "tallest-branch"
    TALLEST_BRANCH_OUTSIDE_Q0 = "TallestBranchOutsideQ0", "seed-pair"
    TOO_FEW_STABLE_PAIRS = "TooFewStablePairs", "stable-pairs"
    NO_LARGE_CLUSTERS = "NoLargeClusters", "cluster-graph"
    CLUSTER_GRAPH_DISCONNECTED = "ClusterGraphDisconnected", "cluster-graph"
    CONGRUENCES_ALL_HOLD = "CongruencesAllHold", "cluster-graph"
    CYCLE_MAJORITY_FAIL = "CycleMajorityFail", "cycle-majority"
    TWO_CYCLE_FAIL = "TwoCycleFail", "two-cycles"
    CYCLE_PAIR_NOT_COVERED = "CyclePairNotCovered", "cycle-pairs"
    SHIFT_EXISTS = "ShiftExists", "cycle-pairs"


@dataclass(frozen=True)
class CheckOutcome:
    """Outcome of one two-letter pipeline run.

    LINEAR_FAIL carries exactly one reason; NOT_SYNCHRONIZING (two or more
    sink components) and SYNCHRONIZING carry none.  A LINEAR_FAIL from
    binary_linear_check also keeps ``in_q0``, the bool indicator of the
    unique sink component that sink_states found, so that the oracle need
    not search for it again.
    """

    verdict: Verdict
    fail_reason: Optional[FailReason] = None
    in_q0: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.verdict is Verdict.LINEAR_FAIL and self.fail_reason is None:
            raise ValueError("LINEAR_FAIL requires a reason")
        if self.verdict is not Verdict.LINEAR_FAIL and self.fail_reason is not None:
            raise ValueError("only LINEAR_FAIL carries a reason")

    @property
    def step(self) -> Optional[str]:
        """The stage that decided a negative or gave up: "scc" for the
        sink-component negative, the failed guard's stage for LINEAR_FAIL,
        None for a proof."""
        if self.verdict is Verdict.NOT_SYNCHRONIZING:
            return "scc"
        return None if self.fail_reason is None else self.fail_reason.step


@dataclass(frozen=True)
class PairOutcome:
    """Pipeline outcome for one letter pair of a wider alphabet."""

    letters: tuple
    outcome: CheckOutcome


@dataclass(frozen=True)
class CheckReport:
    """Result of the driver.  synchronizing=None means indeterminate, which
    only linear-only runs may return."""

    synchronizing: Optional[bool]
    method: str
    outcomes: tuple

    def fail_reasons(self) -> tuple:
        return tuple(
            po.outcome.fail_reason
            for po in self.outcomes
            if po.outcome.fail_reason is not None
        )


def _scalars(x):
    """x itself, or a memoryview of x when it is an array: either way,
    indexing by state gives a Python scalar, which is what the loops over a
    few hundred states want."""
    return memoryview(x) if isinstance(x, np.ndarray) else x


def _column(A, a: int):
    """Letter a's action indexed by state: a list below NUMPY_MIN_N states,
    else a memoryview of the table column."""
    if A.n < NUMPY_MIN_N:
        return A.column(a)
    return memoryview(A.table[:, a])


# ---------------------------------------------------------------------------
# step 1: sink components


def sink_states(A, cs0=None):
    """Bool indicator over states of the unique sink component, or None
    when A has two or more.

    ``cs0`` is letter 0's cluster structure, built here when not given.  The
    answer comes from cs0 at every size: every sink component holds a
    letter-0 cycle, each state reaches at least one sink component, and a
    state of a sink component reaches exactly its own component.  So the
    states reachable from every letter-0 cycle form the sink component when
    it is unique, and none when there are two.

    The cycles are searched from in decreasing order of cluster size.  A
    state of a cluster searched earlier reaches that cluster's cycle, so it
    reaches all of the running intersection; a search that gets there
    leaves the intersection as it is and stops.  On a random automaton
    that leaves about one full search.  A letter with more than 5 ln n
    cycles fails the cluster-count guard anyway, so there the searches
    would buy nothing, and Tarjan decides.  With one letter each cluster's
    cycle is a sink component of its own, so the sink component is unique
    exactly when there is one cluster, and it is that cluster's cycle.
    """
    n = A.n
    if cs0 is None:
        cs0 = build_cluster_structure(A, 0)
    if A.k == 1:
        if cs0.n_clusters > 1:
            return None
        in_q0 = np.zeros(n, dtype=bool)
        in_q0[cs0.cycles[0]] = True
        return in_q0
    if not cluster_count_ok(cs0, n):
        return analyze_scc(A)
    order = sorted(range(cs0.n_clusters), key=cs0.sizes.__getitem__, reverse=True)
    turn = np.empty(len(order), dtype=np.int32)
    turn[order] = range(len(order))
    turn_of = turn.take(cs0.cluster)  # when each state's cluster is searched
    stamp = np.full(n, -1, dtype=np.int32)
    owner = np.empty(n, dtype=np.int32)
    common = None  # states reachable from every cycle searched so far
    for t, c in enumerate(order):
        if _reaches(A.table, cs0.cycles[c], t, stamp, owner, turn_of):
            continue
        if common is None:
            common = stamp == t
        else:
            common &= stamp == t
            if not common.any():
                return None
    return common


def _reaches(table, cycle, t, stamp, owner, turn_of) -> bool:
    """Search turn t: set ``stamp`` to t on every state reachable from the
    states of ``cycle``, or stop early, returning True, at a state whose
    ``turn_of`` is below t.

    Pending states are expanded one at a time from a Python list while
    fewer than WIDE_MIN wait, and all together in NumPy otherwise.  Each
    state is stamped when first reached, so it is pending at most once:
    NumPy keeps one copy of each new state by letting the last writer of
    ``owner`` keep it.
    """
    k = table.shape[1]
    succ = memoryview(table.reshape(-1))
    seen = memoryview(stamp)
    earlier = memoryview(turn_of)
    for q in cycle:
        seen[q] = t
    pending = list(cycle)
    while pending:
        if len(pending) < WIDE_MIN:
            q = pending.pop()
            for r in succ[q * k:(q + 1) * k]:
                if seen[r] != t:
                    if earlier[r] < t:
                        return True
                    seen[r] = t
                    pending.append(r)
            continue
        front = np.array(pending, dtype=np.int32)
        while len(front) >= WIDE_MIN:
            cand = table.take(front, axis=0).reshape(-1)
            cand = cand[stamp.take(cand) != t]
            pos = np.arange(len(cand), dtype=np.int32)
            owner[cand] = pos
            front = cand[owner.take(cand) == pos]
            if t and (turn_of.take(front) < t).any():
                return True
            stamp[front] = t
        pending = front.tolist()
    return False


# ---------------------------------------------------------------------------
# step 2: one-letter cluster decomposition


@dataclass
class ClusterStructure:
    """Shape of one letter's functional graph.

    Every weakly connected component (a cluster) is one cycle with trees
    hanging off the cycle states.  Per state: the cluster id, the position of
    its tree's root on the cluster cycle (``tree``), the distance to the cycle
    (``height``), and its height-1 ancestor (``branch_root``, -1 on the cycle
    itself).  ``cycles[c]`` lists cluster c's cycle states in action order.
    Clusters are numbered by their least state, and each cycle starts at the
    root of that state's tree.  The per-state fields are lists below
    NUMPY_MIN_N states and int32 arrays from there on.
    """

    letter: int
    cluster: list
    tree: list
    height: list
    branch_root: list
    cycles: list
    sizes: list

    @property
    def n_clusters(self) -> int:
        return len(self.cycles)

    def cycle_lengths(self) -> list:
        return [len(c) for c in self.cycles]


def build_cluster_structure(A, letter: int) -> ClusterStructure:
    """Decompose one letter's functional graph in O(n) (O(n log n) array
    work from NUMPY_MIN_N states)."""
    if A.n < NUMPY_MIN_N:
        return _clusters_python(A.delta[letter :: A.k], letter)
    return _clusters_numpy(np.ascontiguousarray(A.table[:, letter]), letter)


def _clusters_python(f, letter: int) -> ClusterStructure:
    """One forward walk from each state not yet settled, in increasing order.

    The walk stops at a settled state or closes a new cycle; either way the
    walked tail is then settled backwards from the state it ran into.  The
    least state of a cluster is the first one walked in it, and its walk
    enters the cycle at its tree's root.
    """
    n = len(f)
    cluster = [-1] * n  # -2 while on the current walk
    tree = [0] * n
    height = [0] * n
    branch_root = [-1] * n
    cycles = []
    for q0 in range(n):
        if cluster[q0] != -1:
            continue
        path = []
        q = q0
        while cluster[q] == -1:
            cluster[q] = -2
            path.append(q)
            q = f[q]
        if cluster[q] == -2:  # the walk closed a brand new cycle
            j = path.index(q)
            cid = len(cycles)
            cycles.append(path[j:])
            for i, c in enumerate(path[j:]):
                cluster[c] = cid
                tree[c] = i
            del path[j:]
        cx, tx, hx, bx = cluster[q], tree[q], height[q], branch_root[q]
        for s in reversed(path):
            hx += 1
            if hx == 1:
                bx = s
            cluster[s] = cx
            tree[s] = tx
            height[s] = hx
            branch_root[s] = bx
    sizes = [0] * len(cycles)
    for cid in cluster:
        sizes[cid] += 1
    return ClusterStructure(letter, cluster, tree, height, branch_root, cycles, sizes)


def _clusters_numpy(f: np.ndarray, letter: int) -> ClusterStructure:
    """The same structure as _clusters_python, by pointer doubling.

    f^(2^L) with 2^L >= n maps every state onto a cycle, and onto every
    cycle state, so its image is the set of cycle states.  With the cycle
    and height-1 states made fixed points, doubling carries each tree state
    to its branch root and counts its height; one more f step from there
    is its tree's root.  Only the cycles, about sqrt(n) states on a random
    map, are walked one state at a time.
    """
    n = len(f)
    states = np.arange(n, dtype=np.int32)
    image = f
    for _ in range((n - 1).bit_length()):
        image = image.take(image)
    on_cycle = np.zeros(n, dtype=np.bool_)
    on_cycle[image] = True

    # cycle states and height-1 states stay put; doubling the map carries
    # every tree state to its branch root, counting the steps on the way.
    # After i rounds a state has moved min(height - 1, 2^i) steps, so once
    # no state has moved 2^i, every one has arrived
    stay = on_cycle.take(f)
    branch_root = np.where(stay, states, f)
    steps = (~stay).astype(np.int32)
    reach = 1
    while steps.max() >= reach:
        steps += steps.take(branch_root)
        branch_root = branch_root.take(branch_root)
        reach *= 2
    height = np.where(on_cycle, 0, steps + 1)
    root = np.where(on_cycle, states, f.take(branch_root))
    branch_root[on_cycle] = -1

    # walk each cycle from its least state; the cycles are found in the
    # order of their least states, which is not yet the cluster order
    succ = memoryview(f)
    seen = bytearray(n)
    walks = []
    for s in np.flatnonzero(on_cycle).tolist():
        if seen[s]:
            continue
        walk = []
        q = s
        while not seen[q]:
            seen[q] = 1
            walk.append(q)
            q = succ[q]
        walks.append(walk)
    count = len(walks)
    lengths = np.array([len(w) for w in walks], dtype=np.int32)
    walked = np.fromiter(chain.from_iterable(walks), dtype=np.int32, count=int(lengths.sum()))
    walk_of = np.empty(n, dtype=np.int32)
    walk_of[walked] = np.repeat(np.arange(count, dtype=np.int32), lengths)
    pos = np.arange(len(walked), dtype=np.int32) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    walk_pos = np.empty(n, dtype=np.int32)
    walk_pos[walked] = pos

    # number the clusters by their least state and start each cycle at the
    # root of that state's tree
    walk_of_state = walk_of.take(root)
    least = np.full(count, n, dtype=np.int32)
    np.minimum.at(least, walk_of_state, states)
    order = np.argsort(least)
    rank = np.empty(count, dtype=np.int32)
    rank[order] = np.arange(count, dtype=np.int32)
    shift = walk_pos.take(root.take(least))
    cycles = []
    for w in order.tolist():
        walk, j = walks[w], int(shift[w])
        cycles.append(walk[j:] + walk[:j])
    cycle_pos = np.empty(n, dtype=np.int32)
    cycle_pos[walked] = (pos - np.repeat(shift, lengths)) % np.repeat(lengths, lengths)

    cluster = rank.take(walk_of_state)
    tree = cycle_pos.take(root)
    sizes = np.bincount(cluster, minlength=len(cycles)).tolist()
    return ClusterStructure(letter, cluster, tree, height, branch_root, cycles, sizes)


def cluster_count_ok(cs: ClusterStructure, n: int) -> bool:
    """Guard: at most 5 ln n clusters (float comparison, no rounding)."""
    return cs.n_clusters <= 5.0 * math.log(n)


def fixed_points_ok(A, a: int) -> bool:
    """At most 5 ln n states fixed by letter a.  Each fixed point is a
    cluster of its own, so a letter that fails this fails the cluster count
    too, and its structure need not be built to tell."""
    n = A.n
    if n < NUMPY_MIN_N:
        fixed = sum(map(operator.eq, A.delta[a::A.k], range(n)))
    else:
        fixed = np.count_nonzero(A.table[:, a] == np.arange(n, dtype=np.int32))
    return fixed <= 5.0 * math.log(n)


# ---------------------------------------------------------------------------
# step 3: tallest height-1 branch


@dataclass
class TallestBranchInfo:
    """A strictly tallest height-1 branch and the cycle state just before it.

    ``root`` is the height-1 state whose subtree out-tops every other height-1
    subtree in letter a1's graph; ``cycle_pred`` is the cycle state p with
    p.a1 = root.a1, so {p, root} merges in a single a1 step.  ``second_height``
    is the tallest height among the other branches.
    """

    a1: int
    a2: int
    root: int
    cycle_pred: int
    height: int
    second_height: int
    branch_root: list = field(repr=False)

    def in_branch(self, q: int) -> bool:
        return self.branch_root[q] == self.root


def _branch_summary(cs: ClusterStructure):
    """(root, height, second height, unique?) over all height-1 branches;
    the root is meaningful only for a unique tallest branch."""
    br = cs.branch_root
    h = cs.height
    if isinstance(h, np.ndarray):
        best = int(h.max())
        if best == 0:
            return -1, 0, 0, False
        tops = br[h == best]
        root = int(tops[0])
        if (tops != root).any():
            return root, best, best, False
        return root, best, int(h[br != root].max()), True
    n = len(h)
    tallest = [0] * n  # indexed by branch root state
    for q in range(n):
        r = br[q]
        if r >= 0 and h[q] > tallest[r]:
            tallest[r] = h[q]
    best = 0
    best_root = -1
    second = 0
    ties = 0
    for r in range(n):
        v = tallest[r]
        if not v:
            continue
        if v > best:
            second = best
            best = v
            best_root = r
            ties = 1
        elif v == best:
            ties += 1
            second = v
        elif v > second:
            second = v
    return best_root, best, second, best > 0 and ties == 1


def tallest_branch_candidates(cs0: ClusterStructure, cs1: ClusterStructure):
    """Letters whose graph has a strictly unique tallest height-1 branch.

    Returns a TallestBranchInfo per qualifying letter, lower-indexed letter
    first.  Later guard stages that hinge on the chosen letter get retried
    with the next candidate, so both qualifying letters must fail before the
    pipeline gives up; that is what keeps those stages rare failures.
    """
    out = []
    for cs, other in ((cs0, cs1), (cs1, cs0)):
        root, hgt, second, unique = _branch_summary(cs)
        if unique:
            cyc = cs.cycles[cs.cluster[root]]
            p = cyc[cs.tree[root] - 1]  # wraps for tree index 0
            out.append(TallestBranchInfo(
                a1=cs.letter,
                a2=other.letter,
                root=root,
                cycle_pred=p,
                height=hgt,
                second_height=second,
                branch_root=cs.branch_root,
            ))
    return out


# ---------------------------------------------------------------------------
# step 4: the seed pair


def stable_seed(info: TallestBranchInfo, in_q0, cs: ClusterStructure):
    """The merge pair (cycle_pred, root), or None.

    Requires a branch state q inside the sink component (``in_q0``, from
    sink_states) whose height beats every other branch; that makes the
    merged pair stable, i.e. any word can be extended by more letters to
    take both entries to one state.
    """
    if in_q0 is None:
        return None
    br = cs.branch_root
    h = cs.height
    root = info.root
    cutoff = info.second_height
    if isinstance(h, np.ndarray):
        tall = np.flatnonzero(h > cutoff)
        if ((br[tall] == root) & in_q0[tall]).any():
            return (info.cycle_pred, info.root)
        return None
    for q in range(len(h)):
        if br[q] == root and h[q] > cutoff and in_q0[q]:
            return (info.cycle_pred, info.root)
    return None


# ---------------------------------------------------------------------------
# step 5: multiplying stable pairs


@dataclass(frozen=True)
class StablePairSet:
    """Stable pairs whose usefulness is probed on ``letter``'s cluster graph.

    Pairs keep their walk orientation and order from the construction; the
    entries of each pair are distinct, but the same pair may appear twice.
    """

    letter: int
    pairs: tuple


def multiply_stable_pairs(A, seed_pair, a1: int, a2: int):
    """Grow the seed pair into the two stable-pair sets.

    The seed is pushed 6 steps by a2; from each of those pairs a walk of
    ceil(n^0.4) a1-steps collects every position where the entries still
    differ (tagged with a2, whose clusters they probe, since a1 steps never
    leave an a1 cluster).  The first 6 collected pairs are walked by a2 the
    same way for the set tagged a1.  Collection keeps walk order and does
    not deduplicate: the gate below asks for enough surviving walk
    positions, and a repeated pair costs nothing downstream.  Returns (set
    tagged a2, set tagged a1), or None when the first set has fewer than 6
    pairs.
    """
    n = A.n
    col1 = _column(A, a1)
    col2 = _column(A, a2)
    jmax = math.ceil(n ** 0.4)

    ordered = []
    p, r = seed_pair
    for _ in range(6):
        p = col2[p]
        r = col2[r]
        x, y = p, r
        for _ in range(jmax):
            x = col1[x]
            y = col1[y]
            if x != y:
                ordered.append((x, y))
    if len(ordered) < 6:
        return None

    ordered2 = []
    for x0, y0 in ordered[:6]:
        x, y = x0, y0
        for _ in range(jmax):
            x = col2[x]
            y = col2[y]
            if x != y:
                ordered2.append((x, y))
    return (
        StablePairSet(letter=a2, pairs=tuple(ordered)),
        StablePairSet(letter=a1, pairs=tuple(ordered2)),
    )


# ---------------------------------------------------------------------------
# step 6: cluster graph over large clusters


def large_state_mask(cs: ClusterStructure, n: int):
    """Bool indicator over states of membership in a large cluster (size >
    n^0.45)."""
    return (np.array(cs.sizes) > n ** 0.45).take(cs.cluster)


def check_cluster_graph(cs: ClusterStructure, z: StablePairSet, n: int):
    """Guard for one letter: the stable pairs touch large clusters (size >
    n^0.45), connect all those they touch, and their residuals generate Z_d,
    d the gcd of the touched clusters' cycle lengths.  Returns a FailReason
    or None for pass.

    After m >= every height steps of the letter, state q sits at cycle
    position tree(q) + m - height(q), so a pair (s, t) from cluster c1 to c2
    asks for residue labels with label(c2) - label(c1) = level(t) - level(s)
    (mod d), where level(q) = height(q) - tree(q).  One union-find pass
    keeps each cluster's label relative to its parent: a pair joining two
    trees fixes one root's label against the other, and a pair inside a
    tree leaves a residual, the amount by which it breaks that labelling.
    The trees need no path compression: in the pipeline they have at most
    5 ln n nodes.  A broken congruence is the good case: it certifies
    progress across the residue obstruction.  Each residual only buys
    alignment shifts by itself, so together they must generate all of Z_d;
    a d=4 graph with a lone residual of 2 still has an untouched parity
    invariant.
    """
    thr = n ** 0.45
    is_large = [sz > thr for sz in cs.sizes]
    if not any(is_large):
        return FailReason.NO_LARGE_CLUSTERS
    cluster = _scalars(cs.cluster)
    h = _scalars(cs.height)
    tree = _scalars(cs.tree)
    parent = {}  # non-root cluster -> (parent, its label minus the parent's)
    touched = set()
    merges = 0
    gen = 0
    for s, t in z.pairs:
        c1, c2 = cluster[s], cluster[t]
        if not (is_large[c1] and is_large[c2]):
            continue
        offset = (h[t] - tree[t]) - (h[s] - tree[s])
        if c1 == c2:  # the walks up the tree would cancel out
            touched.add(c1)
            gen = math.gcd(gen, offset)
            continue
        touched.add(c1)
        touched.add(c2)
        while c1 in parent:
            c1, rel = parent[c1]
            offset += rel
        while c2 in parent:
            c2, rel = parent[c2]
            offset -= rel
        if c1 != c2:
            parent[c2] = (c1, offset)
            merges += 1
        else:
            gen = math.gcd(gen, offset)
    # a large cluster no pair lands in cannot be glued by any edge choice and
    # constrains no label: connectivity and d ask only of the touched ones
    if len(touched) - merges != 1:
        return FailReason.CLUSTER_GRAPH_DISCONNECTED
    d = reduce(math.gcd, (len(cs.cycles[c]) for c in touched))
    return None if math.gcd(gen, d) == 1 else FailReason.CONGRUENCES_ALL_HOLD


# ---------------------------------------------------------------------------
# step 7: cycle coverage conditions


def check_cycle_majority(cs_a: ClusterStructure, lhat_b) -> bool:
    """Every cycle longer than 2 needs at least half its states (rounded up)
    inside the other letter's large clusters."""
    lhat_b = _scalars(lhat_b)
    for cyc in cs_a.cycles:
        s = len(cyc)
        if s <= 2:
            continue
        need = (s + 1) // 2
        cnt = 0
        for q in cyc:
            if lhat_b[q]:
                cnt += 1
        if cnt < need:
            return False
    return True


def check_two_cycles(A, cs_a: ClusterStructure, b: int,
                     lhat_a, lhat_b) -> bool:
    """Coverage conditions on 2-cycles of letter a.

    A 2-cycle C already inside the other letter's large clusters is fine.
    Otherwise C is examined through its images under b: collapsing to one
    state after one or two steps passes; else with U = C.b + C.b^2, |U| = 3
    passes when C.b sits in large a-clusters and |U| = 4 passes when C.b or
    C.b^2 does.  The images are judged against letter a's own mass because a
    state outside lhat_b keeps its whole b-orbit outside lhat_b, so a b-mask
    here could never pass.  Anything else fails the guard.
    """
    colb = _column(A, b)
    lhat_a, lhat_b = _scalars(lhat_a), _scalars(lhat_b)
    for cyc in cs_a.cycles:
        if len(cyc) != 2:
            continue
        x, y = cyc
        if lhat_b[x] and lhat_b[y]:
            continue
        xb, yb = colb[x], colb[y]
        if xb == yb:
            continue
        xb2, yb2 = colb[xb], colb[yb]
        if xb2 == yb2:
            continue
        u = len({xb, yb, xb2, yb2})
        img1_in = lhat_a[xb] and lhat_a[yb]
        if u == 3:
            if img1_in:
                continue
            return False
        if u == 4:
            if img1_in or (lhat_a[xb2] and lhat_a[yb2]):
                continue
            return False
        return False  # u == 2: C.b is a 2-cycle of b equal to C.b^2
    return True


def cycle_closure_flags(cs_a: ClusterStructure, col_b, lhat_a, lhat_b):
    """Per-cluster flags: whether the cycle meets lhat_b, and whether its
    image under b meets lhat_a.  For a loop, meeting a set is lying in it."""
    lhat_a, lhat_b = _scalars(lhat_a), _scalars(lhat_b)
    in_b = [any(lhat_b[q] for q in cyc) for cyc in cs_a.cycles]
    img_in_a = [any(lhat_a[col_b[q]] for q in cyc) for cyc in cs_a.cycles]
    return in_b, img_in_a


def shift_exists(I, J, d: int) -> bool:
    """Whether some rotation z makes (z + I) union J cover all residues mod d."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    full = (1 << d) - 1
    mi = 0
    for i in I:
        if not 0 <= i < d:
            raise ValueError(f"residue {i} out of range mod {d}")
        mi |= 1 << i
    mj = 0
    for j in J:
        if not 0 <= j < d:
            raise ValueError(f"residue {j} out of range mod {d}")
        mj |= 1 << j
    if mj == full:
        return True
    for z in range(d):
        rot = ((mi << z) | (mi >> (d - z))) & full
        if rot | mj == full:
            return True
    return False


def _avoided_residues(cycle, d: int, lhat) -> list:
    """Residues r mod d whose whole position class on the cycle misses lhat."""
    s = len(cycle)
    out = []
    for r in range(d):
        if not any(lhat[cycle[p]] for p in range(r, s, d)):
            out.append(r)
    return out


def check_cycle_pairs(cs_a: ClusterStructure, lhat_b, flags, n: int):
    """Pairwise conditions over letter a's cycles; small second cycle only.

    For each unordered cycle pair, let C be the longer one (s states) and C'
    the shorter (s' states).  Pairs with s' >= n^0.45 are skipped.  When C'
    is a loop its single state sits still while C rotates, so the pair is
    covered once the loop state is in lhat_b and C meets lhat_b anywhere, or
    the same under b-images against lhat_a; full inclusion of C would be far
    stronger than the rotation argument needs.  For s' >= 2 the avoided
    residue sets of C and C' mod gcd(s, s') must not admit a shift z making
    (z + I) union J everything, else merging can stall on that pair.
    """
    in_b, img_in_a = flags
    lhat_b = _scalars(lhat_b)
    cycles = cs_a.cycles
    thr = n ** 0.45
    nc = len(cycles)
    avoided = {}  # (cycle, d) -> _avoided_residues(cycles[cycle], d, lhat_b)
    for i in range(nc):
        for j in range(i + 1, nc):
            ci, cj = i, j
            if len(cycles[ci]) < len(cycles[cj]):
                ci, cj = cj, ci
            short = len(cycles[cj])
            if short >= thr:
                continue
            if short == 1:
                if (in_b[ci] and in_b[cj]) or (img_in_a[ci] and img_in_a[cj]):
                    continue
                return FailReason.CYCLE_PAIR_NOT_COVERED
            d = math.gcd(len(cycles[ci]), short)
            for c in (ci, cj):
                if (c, d) not in avoided:
                    avoided[c, d] = _avoided_residues(cycles[c], d, lhat_b)
            if shift_exists(avoided[ci, d], avoided[cj, d], d):
                return FailReason.SHIFT_EXISTS
    return None


# ---------------------------------------------------------------------------
# the two-letter pipeline and the driver


def binary_linear_check(A) -> CheckOutcome:
    """Run the guard pipeline on a two-letter automaton.

    Returns SYNCHRONIZING (proof), NOT_SYNCHRONIZING (definitive negative
    from the sink-component test), or LINEAR_FAIL with the first failed
    guard and the sink component.  It never touches the quadratic oracle.
    """
    if A.k != 2:
        raise ValueError(f"binary pipeline needs exactly 2 letters, got k={A.k}")
    n = A.n
    if n == 1:
        return CheckOutcome(Verdict.SYNCHRONIZING)

    cs0 = build_cluster_structure(A, 0)
    in_q0 = sink_states(A, cs0)
    if in_q0 is None:
        return CheckOutcome(Verdict.NOT_SYNCHRONIZING)
    reason = _first_failed_guard(A, cs0, in_q0)
    if reason is None:
        return CheckOutcome(Verdict.SYNCHRONIZING)
    return CheckOutcome(Verdict.LINEAR_FAIL, reason, in_q0)


def _first_failed_guard(A, cs0, in_q0) -> Optional[FailReason]:
    """Steps 2 to 7 of the pipeline: the first guard that fails, or None
    when every guard passes, which proves A synchronizing."""
    n = A.n
    # letter 1's structure is built only once the cheaper counts pass: C_n's
    # letter 1 has n - 1 fixed points, which fail the count on their own
    if not (cluster_count_ok(cs0, n) and fixed_points_ok(A, 1)):
        return FailReason.TOO_MANY_CLUSTERS
    cs1 = build_cluster_structure(A, 1)
    if not cluster_count_ok(cs1, n):
        return FailReason.TOO_MANY_CLUSTERS

    candidates = tallest_branch_candidates(cs0, cs1)
    if not candidates:
        return FailReason.NO_UNIQUE_TALLEST_BRANCH
    cs_by_letter = (cs0, cs1)

    # the seed pair, its multiplication, and the cluster-graph gluing all
    # depend on which letter hosts the tallest branch; a failure there is
    # only final once every qualifying letter has been tried
    first_fail = None
    glued = False
    for info in candidates:
        seed = stable_seed(info, in_q0, cs_by_letter[info.a1])
        if seed is None:
            first_fail = first_fail or FailReason.TALLEST_BRANCH_OUTSIDE_Q0
            continue
        zs = multiply_stable_pairs(A, seed, info.a1, info.a2)
        if zs is None:
            first_fail = first_fail or FailReason.TOO_FEW_STABLE_PAIRS
            continue
        z_a2, z_a1 = zs
        reason = None
        for z in (z_a1, z_a2) if info.a1 == 0 else (z_a2, z_a1):  # letter 0 first
            reason = check_cluster_graph(cs_by_letter[z.letter], z, n)
            if reason is not None:
                break
        if reason is not None:
            first_fail = first_fail or reason
            continue
        glued = True
        break
    if not glued:
        return first_fail

    lhat = (large_state_mask(cs0, n), large_state_mask(cs1, n))
    orderings = ((0, 1), (1, 0))
    for a, b in orderings:
        if not check_cycle_majority(cs_by_letter[a], lhat[b]):
            return FailReason.CYCLE_MAJORITY_FAIL
    for a, b in orderings:
        if not check_two_cycles(A, cs_by_letter[a], b, lhat[a], lhat[b]):
            return FailReason.TWO_CYCLE_FAIL
    for a, b in orderings:
        col_b = _column(A, b)
        flags = cycle_closure_flags(cs_by_letter[a], col_b, lhat[a], lhat[b])
        reason = check_cycle_pairs(cs_by_letter[a], lhat[b], flags, n)
        if reason is not None:
            return reason
    return None


def _two_sinks(k: int) -> CheckReport:
    """The whole-alphabet negative for two or more sink components."""
    out = CheckOutcome(Verdict.NOT_SYNCHRONIZING)
    return CheckReport(False, "linear", (PairOutcome(tuple(range(k)), out),))


def linear_check(A) -> CheckReport:
    """Linear phase for any alphabet: the two-letter pipeline on consecutive
    letter pairs (0,1), (2,3), ..., with the sink-component test over the
    whole alphabet where the pairs cannot settle it.

    ``synchronizing`` is True on the first pipeline proof, False on a
    definitive negative, and None when every pair was inconclusive (the
    caller decides whether to consult the quadratic oracle).  With one letter
    or n = 2 no pipeline runs, and the whole-alphabet sink test decides
    alone.  One letter is then always decided: its unique sink component is
    its only cycle, and it merges every pair iff that cycle is one state.
    With n = 2 and more letters only the negative is.  For k > 2 the test
    runs only when pair (0, 1) finds two sinks: a restriction with a single
    sink component leaves the full automaton a single one, and two sinks of
    the full automaton are two sinks of every restriction.
    """
    n, k = A.n, A.k
    if n == 1:
        return CheckReport(True, "linear", ())
    if n == 2 or k == 1:
        in_q0 = sink_states(A)
        if in_q0 is None:
            return _two_sinks(k)
        # the oracle settles n = 2 instantly
        return CheckReport(int(in_q0.sum()) == 1 if k == 1 else None, "linear", ())
    outcomes = []
    for a in range(0, k - 1, 2):
        b = a + 1
        B = A if k == 2 else A.restrict_letters(a, b)
        out = binary_linear_check(B)
        if (a == 0 and k > 2 and out.verdict is Verdict.NOT_SYNCHRONIZING
                and sink_states(A) is None):
            return _two_sinks(k)
        outcomes.append(PairOutcome((a, b), out))
        if out.verdict is Verdict.SYNCHRONIZING:
            # a synchronizing restriction synchronizes the full automaton
            return CheckReport(True, "linear", tuple(outcomes))
        if out.verdict is Verdict.NOT_SYNCHRONIZING and k == 2:
            # the restriction is the whole automaton, so the negative stands
            return CheckReport(False, "linear", tuple(outcomes))
    return CheckReport(None, "linear", tuple(outcomes))


def check_synchronizing(A, oracle_cap: int | None = None) -> CheckReport:
    """Decide synchronizability: linear phase first, quadratic oracle only
    when the linear phase is indeterminate.  The report's method says which
    side produced the answer."""
    report = linear_check(A)
    if report.synchronizing is not None:
        return report
    # with two letters pair (0, 1) is A itself, so the oracle can start from
    # the sink component that its pipeline run found
    in_q0 = report.outcomes[0].outcome.in_q0 if A.k == 2 and report.outcomes else None
    return CheckReport(synch_slow(A, cap=oracle_cap, _in_q0=in_q0), "fallback",
                       report.outcomes)
