"""Statistical and timing harness.

Covers four jobs: sizing trial counts from a Hoeffding bound, estimating the
per-n failure rate of the linear phase, benchmarking the linear phase, and
locating the size where the full pipeline starts beating the quadratic oracle.
Every timing goes through ``_seconds``, the one clock loop: it runs
sequentially on a monotonic clock and leaves out two warm-up runs per
configuration unless told otherwise.  Every CSV goes through ``_csv``, the
one writer.  Randomness is reproducible because trial i of a job seeds its
own generator stream from (master seed, i).
"""
from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence

from .automaton import generate_uniform
from .lincheck import FailReason, Verdict, binary_linear_check, check_synchronizing, linear_check
from .pairgraph import synch_slow

__all__ = [
    "TrialPlan",
    "FnReport",
    "BenchRow",
    "TimingReport",
    "MainTimeEstimate",
    "CrossoverRow",
    "CrossoverResult",
    "required_trials",
    "estimate_fn",
    "bench_linear",
    "combine_main_time",
    "estimate_main_time",
    "crossover_scan",
    "fn_report_csv",
    "timing_csv",
    "crossover_csv",
]

# fixed histogram column order: the definitive negative, then the guards
REASON_COLUMNS = ("NotSynchronizing",) + tuple(r.value for r in FailReason)


def _hoeffding_bound(n: int, epsilon: float, p0: float) -> float:
    """The unrounded least t that the Hoeffding inequality allows."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not epsilon > 0:
        raise ValueError(f"need epsilon > 0, got {epsilon}")
    if not 0 < p0 < 1:
        raise ValueError(f"need 0 < p0 < 1, got {p0}")
    return -(n / (2.0 * epsilon * epsilon)) * math.log((1.0 - p0) / 2.0)


@dataclass(frozen=True)
class TrialPlan:
    """How many per-state trials t to run for n-state automata so that the
    failure-count estimate deviates by less than epsilon with confidence p0.
    Total runs are t * n."""

    n: int
    epsilon: float
    p0: float
    t: int

    def __post_init__(self):
        if self.t < _hoeffding_bound(self.n, self.epsilon, self.p0):
            raise ValueError(f"t={self.t} below the Hoeffding minimum")

    @property
    def total_runs(self) -> int:
        return self.t * self.n


def required_trials(n: int, epsilon: float, p0: float) -> TrialPlan:
    """Minimal plan satisfying the Hoeffding inequality; t-1 always violates it."""
    return TrialPlan(n, epsilon, p0, math.ceil(_hoeffding_bound(n, epsilon, p0)))


@dataclass
class FnReport:
    """Failure statistics of the linear phase on uniform two-letter automata.

    ``failures`` counts runs that did not end in a synchronization proof:
    definitive negatives plus every guard failure.  ``estimate`` is failures
    per per-state trial, i.e. failures / t.  ``by_reason`` histograms the
    failures over REASON_COLUMNS.
    """

    n: int
    total_runs: int
    failures: int
    estimate: float
    epsilon: float
    p0: float
    seed: int
    by_reason: dict


def estimate_fn(n: int, plan: TrialPlan, seed: int) -> FnReport:
    """Run the two-letter pipeline plan.total_runs times on fresh uniform
    automata; trial i draws from the stream (seed, i), so the report is
    identical for identical (n, plan, seed) no matter how trials are batched."""
    if n != plan.n:
        raise ValueError(f"plan was sized for n={plan.n}, not n={n}")
    if n < 2:
        raise ValueError("failure estimation needs n >= 2")
    counts = dict.fromkeys(REASON_COLUMNS, 0)
    failures = 0
    for i in range(plan.total_runs):
        A = generate_uniform(n, 2, (seed, i))
        out = binary_linear_check(A)
        v = out.verdict
        if v is Verdict.SYNCHRONIZING:
            continue
        failures += 1
        if v is Verdict.NOT_SYNCHRONIZING:
            counts["NotSynchronizing"] += 1
        else:
            counts[out.fail_reason.value] += 1
    return FnReport(
        n=n,
        total_runs=plan.total_runs,
        failures=failures,
        estimate=failures / plan.t,
        epsilon=plan.epsilon,
        p0=plan.p0,
        seed=seed,
        by_reason=counts,
    )


# ---------------------------------------------------------------------------
# timing


def _seconds(run, automata: Iterable, warmup: int = 2) -> float:
    """Wall time of run(A) summed over automata, leaving out the first
    warmup runs.  The clock covers the call only: an automaton drawn by a
    generator is drawn before its own clock starts."""
    perf = time.perf_counter
    total = 0.0
    for i, A in enumerate(automata):
        t0 = perf()
        run(A)
        dt = perf() - t0
        if i >= warmup:
            total += dt
    return total


@dataclass(frozen=True)
class BenchRow:
    n: int
    k: int
    reps: int
    mean_seconds: float


@dataclass(frozen=True)
class TimingReport:
    rows: tuple


def bench_linear(ns: Sequence[int], ks: Sequence[int], reps: int, seed: int = 0) -> TimingReport:
    """Mean wall time of the linear phase per (n, k) cell over reps runs,
    after 2 discarded warm-up runs.  Generation happens outside the clock."""
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    rows = []
    for n in ns:
        for k in ks:
            autos = (generate_uniform(n, k, (seed, n, k, i)) for i in range(reps + 2))
            total = _seconds(linear_check, autos)
            rows.append(BenchRow(n=n, k=k, reps=reps, mean_seconds=total / reps))
    return TimingReport(rows=tuple(rows))


@dataclass(frozen=True)
class MainTimeEstimate:
    n: int
    fn_cap: float
    t_lin: float
    t_quad: float
    estimate: float


def combine_main_time(t_lin: float, t_quad: float, n: int, fn_cap: float) -> float:
    """Mean-time estimate for the full pipeline when the linear phase fails at
    most fn_cap times per n runs: (t_lin + fn_cap * t_quad) / (n + fn_cap)."""
    return (t_lin + fn_cap * t_quad) / (n + fn_cap)


def estimate_main_time(
    n: int,
    fn_cap: float,
    seed: int = 0,
    quad_runs: int = 5,
    oracle_cap: Optional[int] = None,
) -> MainTimeEstimate:
    """Estimate the full pipeline's mean time at size n without paying for the
    oracle on every failure: total linear time over n automata, plus the mean
    oracle time weighted by the failure cap."""
    if quad_runs < 1:
        raise ValueError(f"need quad_runs >= 1, got {quad_runs}")
    lin_autos = (generate_uniform(n, 2, (seed, 0, i)) for i in range(n))
    t_lin = _seconds(linear_check, lin_autos, warmup=0)
    quad_autos = (generate_uniform(n, 2, (seed, 1, i)) for i in range(quad_runs + 2))
    t_quad = _seconds(partial(synch_slow, cap=oracle_cap), quad_autos) / quad_runs
    return MainTimeEstimate(
        n=n,
        fn_cap=fn_cap,
        t_lin=t_lin,
        t_quad=t_quad,
        estimate=combine_main_time(t_lin, t_quad, n, fn_cap),
    )


@dataclass(frozen=True)
class CrossoverRow:
    n: int
    mean_main: float
    mean_quadratic: float


@dataclass(frozen=True)
class CrossoverResult:
    """Per-n means plus the least n in range where the full pipeline's mean
    beat the oracle's (None when that never happened)."""

    rows: tuple
    n0: Optional[int]


def crossover_scan(
    n_values: Iterable[int],
    runs_per_n: int,
    seed: int = 0,
    oracle_cap: Optional[int] = None,
) -> CrossoverResult:
    """Time the full pipeline and the quadratic oracle on the same automata.

    Per n: runs_per_n + 2 automata are generated up front; both algorithms
    run over the identical sequence, each discarding its first 2 runs."""
    if runs_per_n < 1:
        raise ValueError(f"need runs_per_n >= 1, got {runs_per_n}")
    main = partial(check_synchronizing, oracle_cap=oracle_cap)
    quad = partial(synch_slow, cap=oracle_cap)
    rows = []
    n0 = None
    for n in n_values:
        autos = [generate_uniform(n, 2, (seed, n, i)) for i in range(runs_per_n + 2)]
        mean_main = _seconds(main, autos) / runs_per_n
        mean_quad = _seconds(quad, autos) / runs_per_n
        rows.append(CrossoverRow(n=n, mean_main=mean_main, mean_quadratic=mean_quad))
        if n0 is None and mean_main < mean_quad:
            n0 = n
    return CrossoverResult(rows=tuple(rows), n0=n0)


# ---------------------------------------------------------------------------
# CSV serialization (floats with 6 significant digits)


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _csv(header, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def fn_report_csv(report: FnReport) -> str:
    header = ["n", "total_runs", "failures", "estimate", "epsilon", "p0", "seed"]
    header += [f"reason:{c}" for c in REASON_COLUMNS]
    row = [report.n, report.total_runs, report.failures, _fmt(report.estimate),
           _fmt(report.epsilon), _fmt(report.p0), report.seed]
    row += [report.by_reason[c] for c in REASON_COLUMNS]
    return _csv(header, [row])


def timing_csv(report: TimingReport) -> str:
    rows = ([r.n, r.k, r.reps, _fmt(r.mean_seconds)] for r in report.rows)
    return _csv(["n", "k", "reps", "mean_seconds"], rows)


def crossover_csv(result: CrossoverResult) -> str:
    rows = ([r.n, _fmt(r.mean_main), _fmt(r.mean_quadratic)] for r in result.rows)
    return _csv(["n", "mean_main", "mean_quadratic"], rows)
