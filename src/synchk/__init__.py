"""Decide whether a deterministic finite automaton is synchronizing.

The main entry point is :func:`check_synchronizing`: a linear expected-time
structural pipeline that proves synchronizability on most random automata,
with a quadratic pair-graph oracle (:func:`synch_slow`) as the fallback and
ground truth.  :mod:`synchk.experiments` adds the statistical and timing
harness around the checker.
"""
from .automaton import Automaton, FormatError, generate_uniform, parse
from .experiments import (
    BenchRow,
    CrossoverResult,
    CrossoverRow,
    FnReport,
    MainTimeEstimate,
    TimingReport,
    TrialPlan,
    bench_linear,
    combine_main_time,
    crossover_scan,
    estimate_fn,
    estimate_main_time,
    required_trials,
)
from .lincheck import (
    CheckOutcome,
    CheckReport,
    FailReason,
    PairOutcome,
    Verdict,
    check_synchronizing,
    linear_check,
)
from .pairgraph import DEFAULT_ORACLE_CAP, OracleCapExceeded, mergeable_pairs, synch_slow

__version__ = "0.1.0"

__all__ = [
    "Automaton",
    "FormatError",
    "generate_uniform",
    "parse",
    "DEFAULT_ORACLE_CAP",
    "OracleCapExceeded",
    "mergeable_pairs",
    "synch_slow",
    "CheckOutcome",
    "CheckReport",
    "FailReason",
    "PairOutcome",
    "Verdict",
    "check_synchronizing",
    "linear_check",
    "BenchRow",
    "CrossoverResult",
    "CrossoverRow",
    "FnReport",
    "MainTimeEstimate",
    "TimingReport",
    "TrialPlan",
    "bench_linear",
    "combine_main_time",
    "crossover_scan",
    "estimate_fn",
    "estimate_main_time",
    "required_trials",
    "__version__",
]
