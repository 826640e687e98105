"""End-to-end acceptance checks.

Seven criteria cover oracle agreement (exhaustive and randomized), the
published failure-rate and timing behaviour, trial-count arithmetic, and the
structural property suite.  Each test records one PASS/FAIL line; the
conftest terminal-summary hook prints them after the run.
"""
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from itertools import product

from synchk.automaton import Automaton, generate_uniform
from synchk.experiments import (
    TrialPlan,
    bench_linear,
    crossover_scan,
    estimate_fn,
    required_trials,
)
from synchk.lincheck import (
    FailReason,
    StablePairSet,
    build_cluster_structure,
    check_cluster_graph,
    check_synchronizing,
    shift_exists,
)
from synchk.pairgraph import mergeable_pairs, synch_slow

from conftest import ACCEPTANCE_LINES
from helpers import (
    brute_force_synchronizing,
    cluster_graph_reference,
    collect_stable_pairs,
    cycle_structured_function,
    validate_cluster_structure,
)


def record(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_exhaustive_oracle_equivalence():
    per_n = {}
    bad = 0
    for n in (1, 2, 3):
        per_n[n] = 0
        for flat in product(range(n), repeat=n * 2):
            A = Automaton(n, 2, flat)
            per_n[n] += 1
            truth = synch_slow(A)
            if check_synchronizing(A).synchronizing is not truth:
                bad += 1
            elif brute_force_synchronizing(A, max_len=n ** 3) is not truth:
                bad += 1
    counts = ", ".join(f"{v} at n={k}" for k, v in per_n.items())
    record(1, "exhaustive agreement with the pair-graph and brute-force"
              " oracles for every 2-letter automaton with n <= 3",
           bad == 0, f"{counts}; {bad} disagreements")


def _oracle_agreement(n, k, start, stop):
    """(runs, disagreements, false proofs) over runs start..stop-1 of one
    (n, k) cell of criterion 2."""
    disagreements = 0
    false_proofs = 0
    for i in range(start, stop):
        A = generate_uniform(n, k, (20260813, n, k, i))
        rep = check_synchronizing(A)
        truth = synch_slow(A)
        if rep.synchronizing is not truth:
            disagreements += 1
        # a positive settled by the linear phase is a proof from the guards
        # alone: no oracle confirms it
        if rep.method == "linear" and rep.synchronizing and not truth:
            false_proofs += 1
    return stop - start, disagreements, false_proofs


def test_criterion_2_randomized_oracle_equivalence():
    runs_per_cell = 10 ** 5
    chunk = runs_per_cell // 4
    tasks = [(n, k, start, start + chunk)
             for k in (5, 3, 2, 1) for n in range(10, 3, -1)
             for start in range(0, runs_per_cell, chunk)]
    # the runs are independent, so two worker processes share them; the
    # costliest cells go first to keep the workers evenly loaded
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_oracle_agreement, *zip(*tasks)))
    total, disagreements, false_proofs = (sum(col) for col in zip(*results))
    record(2, "randomized agreement with the pair-graph oracle on 10^5"
              " uniform automata per (n, k) in {4..10} x {1,2,3,5},"
              " with no false proofs from the guards alone",
           total == 28 * runs_per_cell and disagreements == 0 and false_proofs == 0,
           f"{total} runs, {disagreements} disagreements,"
           f" {false_proofs} false proofs")


def test_criterion_3_failure_rate_reproduction():
    targets = {5: 3.57, 10: 4.6, 20: 4.8, 50: 4.33, 100: 3.79}
    ok = True
    parts = []
    for n, want in targets.items():
        # the deviation-1 confidence-0.99 minimum, raised to keep
        # total_runs at 3n^2
        t = max(required_trials(n, 1.0, 0.99).t, 3 * n)
        plan = TrialPlan(n=n, epsilon=1.0, p0=0.99, t=t)
        assert plan.total_runs >= 3 * n * n
        rep = estimate_fn(n, plan, seed=424242)
        good = abs(rep.estimate - want) <= 1.5 and rep.estimate <= 6.0
        ok = ok and good
        parts.append(f"n={n}: {rep.estimate:.2f} (published {want})")
    record(3, "per-size failure counts of the linear phase within 1.5 of the"
              " published values and never above 6",
           ok, "; ".join(parts))


def test_criterion_4_linear_scaling():
    reps = 200
    rep = bench_linear([10 ** 4, 10 ** 5], [2], reps=reps, seed=11)
    small, big = rep.rows
    ratio = big.mean_seconds / small.mean_seconds
    record(4, "mean linear-phase time grows by 8x to 13x from n=10^4 to"
              " n=10^5 over 200 runs each",
           8.0 <= ratio <= 13.0,
           f"{small.mean_seconds:.6f}s -> {big.mean_seconds:.6f}s,"
           f" ratio {ratio:.2f}")


def test_criterion_5_crossover_at_fifty():
    res = crossover_scan([50], runs_per_n=10 ** 4, seed=13)
    row = res.rows[0]
    record(5, "full pipeline beats the quadratic oracle on average at n=50"
              " over 10^4 automata",
           row.mean_main < row.mean_quadratic,
           f"pipeline {row.mean_main * 1e3:.3f}ms vs"
           f" oracle {row.mean_quadratic * 1e3:.3f}ms per run")


def test_criterion_6_trial_count_arithmetic():
    plan = required_trials(10, 0.1, 0.99)
    exact = plan.t == 2650
    minimal = True
    checked = 0
    for n in (1, 3, 7, 10, 20):
        for eps in (0.05, 0.1, 0.5, 1.0, 2.0):
            for p0 in (0.5, 0.9, 0.99, 0.999):
                checked += 1
                t = required_trials(n, eps, p0).t
                bound = -(n / (2 * eps * eps)) * math.log((1 - p0) / 2)
                if not (t >= bound and t - 1 < bound):
                    minimal = False
    record(6, "required_trials(10, 0.1, 0.99) equals 2650 and is the least"
              " count satisfying the confidence bound on a 100-point grid",
           exact and minimal,
           f"t={plan.t}; minimality verified on {checked} parameter triples")


def brute_shift(I, J, d):
    residues = set(range(d))
    return any(({(z + i) % d for i in I} | set(J)) == residues for z in range(d))


def test_criterion_7_property_suite():
    failures = []

    # cluster decompositions of random functional graphs keep every invariant
    rng = random.Random(424242)
    for _ in range(300):
        n = rng.randint(1, 60)
        f = [rng.randrange(n) for _ in range(n)]
        try:
            validate_cluster_structure(
                build_cluster_structure(Automaton(n, 1, f), 0), f, n)
        except AssertionError:
            failures.append(f"cluster invariants at {tuple(f)}")
            break

    # every multiplied stable pair is mergeable in the pair graph
    exercised = 0
    for _ in range(600):
        n = rng.randint(4, 12)
        A = generate_uniform(n, 2, rng.getrandbits(48))
        zs = collect_stable_pairs(A)
        if zs is None:
            continue
        exercised += 1
        merge = mergeable_pairs(A)
        for z in zs:
            for x, y in z.pairs:
                if x == y or (min(x, y), max(x, y)) not in merge:
                    failures.append(f"stable pair ({x},{y}) at {A.delta}")
    if exercised < 100:
        failures.append(f"stable-pair sweep exercised only {exercised} automata")

    # the cluster-graph guard agrees with enumerating residue labellings, on
    # random maps and on maps whose cycle lengths share factors (drawn from
    # their own stream, so the shift sets below stay the same)
    outcomes = set()
    structured = random.Random(7)
    for i in range(800):
        src = rng if i < 400 else structured
        n = src.randint(8, 40)
        f = ([src.randrange(n) for _ in range(n)] if i < 400
             else cycle_structured_function(src, n))
        cs = build_cluster_structure(Automaton(n, 1, f), 0)
        pairs = tuple((src.randrange(n), src.randrange(n)) for _ in range(8))
        got = check_cluster_graph(cs, StablePairSet(letter=0, pairs=pairs), n)
        outcomes.add(got)
        if got != cluster_graph_reference(cs, pairs, n):
            failures.append(f"cluster graph at {tuple(f)} pairs {pairs}")
    if outcomes != {None, FailReason.NO_LARGE_CLUSTERS, FailReason.CONGRUENCES_ALL_HOLD,
                    FailReason.CLUSTER_GRAPH_DISCONNECTED}:
        failures.append(f"cluster-graph sweep reached only {outcomes}")

    # shift_exists agrees with direct enumeration: every residue set for
    # d <= 6, random residue sets for d up to 12
    for d in range(1, 7):
        for I_bits, J_bits in product(range(1 << d), repeat=2):
            I = [i for i in range(d) if I_bits >> i & 1]
            J = [j for j in range(d) if J_bits >> j & 1]
            if shift_exists(I, J, d) != brute_shift(I, J, d):
                failures.append(f"shift({I}, {J}, {d})")
    for d in range(7, 13):
        for _ in range(200):
            I = [i for i in range(d) if rng.getrandbits(1)]
            J = [j for j in range(d) if rng.getrandbits(1)]
            if shift_exists(I, J, d) != brute_shift(I, J, d):
                failures.append(f"shift({I}, {J}, {d})")

    record(7, "structural property suite: cluster invariants, stable-pair"
              " mergeability, cluster-graph guard against labelling"
              " enumeration, shift enumeration",
           not failures,
           "all properties hold" if not failures else "; ".join(failures[:3]))
