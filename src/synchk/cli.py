"""Command-line interface.

Subcommands: check, gen, estimate-fn, bench, crossover.  Exit codes for
check: 0 synchronizing, 1 not synchronizing, 2 usage or input error, 3
indeterminate (linear-only run that neither proved nor refuted).  The other
subcommands exit 0 on success and 2 on configuration errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .automaton import FormatError, generate_uniform, parse
from .experiments import (
    bench_linear,
    crossover_csv,
    crossover_scan,
    estimate_fn,
    fn_report_csv,
    required_trials,
    timing_csv,
    TrialPlan,
)
from .lincheck import CheckReport, Verdict, check_synchronizing, linear_check
from .pairgraph import ORACLE_BYTE_BUDGET, OracleCapExceeded, synch_slow

ENV_ORACLE_CAP = "SYNCHK_ORACLE_CAP"

CHECK_JSON_SCHEMA = {
    "type": "object",
    "required": ["n", "k", "method", "synchronizing", "elapsed_seconds", "outcomes"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "k": {"type": "integer", "minimum": 1},
        "method": {"enum": ["linear", "fallback", "quadratic"]},
        "synchronizing": {"type": ["boolean", "null"]},
        "elapsed_seconds": {"type": "number", "minimum": 0},
        "outcomes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["letters", "verdict", "fail_reason", "step"],
                "additionalProperties": False,
                "properties": {
                    "letters": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "verdict": {"enum": ["synchronizing", "not-synchronizing", "linear-fail"]},
                    "fail_reason": {"type": ["string", "null"]},
                    "step": {"type": ["string", "null"]},
                },
            },
        },
    },
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="synchk", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide whether an automaton is synchronizing")
    c.add_argument("file", nargs="?", help="automaton file (text or JSON); '-' for stdin")
    c.add_argument("--gen-n", type=int, help="generate a random automaton with this many states")
    c.add_argument("--gen-k", type=int, help="alphabet size for --gen-n")
    c.add_argument("--gen-seed", type=int, default=None, help="seed for --gen-n")
    c.add_argument("--method", choices=("auto", "linear-only", "quadratic"), default="auto")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--oracle-cap", type=int, default=None,
                   help=f"max n for the quadratic oracle (or ${ENV_ORACLE_CAP}); by "
                        f"default it refuses inputs estimated to need over "
                        f"{ORACLE_BYTE_BUDGET / 2**30:g} GiB")

    g = sub.add_parser("gen", help="generate a uniform random automaton")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("-k", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", default=None, help="output path (default stdout)")
    g.add_argument("--format", choices=("text", "json"), default="text")

    e = sub.add_parser("estimate-fn", help="estimate the linear phase's failure rate")
    e.add_argument("-n", type=int, required=True)
    e.add_argument("--eps", type=float, default=1.0, help="Hoeffding deviation bound")
    e.add_argument("--p0", type=float, default=0.99, help="Hoeffding confidence")
    e.add_argument("--trials", type=int, default=None,
                   help="per-state trials t (default: the Hoeffding minimum)")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None)

    b = sub.add_parser("bench", help="benchmark the linear phase")
    b.add_argument("--ns", required=True, help="comma-separated state counts")
    b.add_argument("--ks", default="2", help="comma-separated alphabet sizes")
    b.add_argument("--reps", type=int, default=10)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None)

    x = sub.add_parser("crossover", help="compare full pipeline vs quadratic oracle by size")
    x.add_argument("--min", type=int, required=True)
    x.add_argument("--max", type=int, required=True)
    x.add_argument("--step", type=int, default=1)
    x.add_argument("--runs", type=int, default=100, help="timed runs per size")
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--oracle-cap", type=int, default=None)
    x.add_argument("--out", default=None)
    return p


def _resolve_cap(cli_value):
    if cli_value is not None:
        return cli_value
    env = os.environ.get(ENV_ORACLE_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_ORACLE_CAP} must be an integer, got {env!r}") from None
    return None


def _load_automaton(args):
    generated = args.gen_n is not None or args.gen_k is not None
    if args.file is not None and generated:
        raise ValueError("give either a file or --gen-n/--gen-k, not both")
    if args.file is not None:
        if args.file == "-":
            return parse(sys.stdin.read())
        with open(args.file) as fh:
            return parse(fh.read())
    if args.gen_n is None or args.gen_k is None:
        raise ValueError("need an automaton file or both --gen-n and --gen-k")
    return generate_uniform(args.gen_n, args.gen_k, args.gen_seed)


def _write_out(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _report_json(A, report: CheckReport, elapsed: float) -> str:
    outcomes = [
        {
            "letters": list(po.letters),
            "verdict": po.outcome.verdict.value,
            "fail_reason": po.outcome.fail_reason.value if po.outcome.fail_reason else None,
            "step": po.outcome.step,
        }
        for po in report.outcomes
    ]
    return json.dumps(
        {
            "n": A.n,
            "k": A.k,
            "method": report.method,
            "synchronizing": report.synchronizing,
            "elapsed_seconds": elapsed,
            "outcomes": outcomes,
        }
    )


def _cmd_check(args) -> int:
    A = _load_automaton(args)
    cap = _resolve_cap(args.oracle_cap)
    t0 = time.perf_counter()
    if args.method == "quadratic":
        report = CheckReport(synch_slow(A, cap=cap), "quadratic", ())
    elif args.method == "linear-only":
        report = linear_check(A)
    else:
        report = check_synchronizing(A, oracle_cap=cap)
    elapsed = time.perf_counter() - t0

    if args.format == "json":
        print(_report_json(A, report, elapsed))
    else:
        verdict = {True: "synchronizing", False: "not synchronizing", None: "indeterminate"}
        print(f"{verdict[report.synchronizing]} (n={A.n}, k={A.k}, "
              f"method={report.method}, {elapsed:.6g} s)")
        for po in report.outcomes:
            out = po.outcome
            if out.fail_reason is not None:
                print(f"fail: {out.fail_reason.value} (letters {po.letters}, step {out.step})")
    if report.synchronizing is None:
        return 3
    return 0 if report.synchronizing else 1


def _cmd_gen(args) -> int:
    A = generate_uniform(args.n, args.k, args.seed)
    _write_out(args.out, A.to_json() + "\n" if args.format == "json" else A.serialize())
    return 0


def _cmd_estimate_fn(args) -> int:
    minimal = required_trials(args.n, args.eps, args.p0)
    plan = minimal if args.trials is None else TrialPlan(args.n, args.eps, args.p0, args.trials)
    report = estimate_fn(args.n, plan, args.seed)
    _write_out(args.out, fn_report_csv(report))
    return 0


def _parse_int_list(text: str, what: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{what} must not be empty")
    return values


def _cmd_bench(args) -> int:
    ns = _parse_int_list(args.ns, "--ns")
    ks = _parse_int_list(args.ks, "--ks")
    report = bench_linear(ns, ks, args.reps, args.seed)
    _write_out(args.out, timing_csv(report))
    return 0


def _cmd_crossover(args) -> int:
    if args.min < 1 or args.max < args.min or args.step < 1:
        raise ValueError(f"bad range: min={args.min}, max={args.max}, step={args.step}")
    cap = _resolve_cap(args.oracle_cap)
    result = crossover_scan(range(args.min, args.max + 1, args.step), args.runs,
                            args.seed, oracle_cap=cap)
    _write_out(args.out, crossover_csv(result))
    if result.n0 is None:
        print("crossover not reached in range", file=sys.stderr)
    else:
        print(f"crossover n0 = {result.n0}", file=sys.stderr)
    return 0


_DISPATCH = {
    "check": _cmd_check,
    "gen": _cmd_gen,
    "estimate-fn": _cmd_estimate_fn,
    "bench": _cmd_bench,
    "crossover": _cmd_crossover,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (FormatError, OSError, ValueError, OracleCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
