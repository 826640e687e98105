"""Run one workload of the synchk benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload uniform-1e5 --seed 1 --seconds 24 --trace 0

Set-up, in this process: build the inputs from the seed and write the input
files.  Timed part, in a child process (``perfbench.worker``): whole rounds
of decisions for ``--seconds`` seconds.  Then, in this process again, so
that neither its time nor its memory is counted: check every verdict
independently and compute the metrics.  The last line of standard output is
the result object.  ``--trace 1`` repeats the same rounds with spans on and
reports the per-layer metrics instead of the end-to-end ones.
"""
import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import tracing, verify  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, "perfbench", "_work")
WORKER_TIMEOUT_S = 150
FAIL_REASONS = (
    "TooManyClusters", "NoUniqueTallestBranch", "TallestBranchOutsideQ0",
    "TooFewStablePairs", "NoLargeClusters", "ClusterGraphDisconnected",
    "CongruencesAllHold", "CycleMajorityFail", "TwoCycleFail",
    "CyclePairNotCovered", "ShiftExists",
)
SELF_TIMES = (
    "cli.main", "automaton.parse", "automaton.generate_uniform",
    "automaton.restrict_letters", "lincheck.analyze_scc",
    "lincheck.build_cluster_structure", "lincheck.tallest_branch_candidates",
    "lincheck.stable_seed", "lincheck.multiply_stable_pairs",
    "lincheck.check_cluster_graph", "lincheck.binary_linear_check",
    "lincheck.linear_check", "pairgraph.synch_slow",
)
# step 7 of the pipeline, reported as one figure
CYCLE_CONDITIONS = ("lincheck.check_cycle_majority", "lincheck.check_two_cycles",
                    "lincheck.cycle_closure_flags", "lincheck.check_cycle_pairs")


class RunError(Exception):
    """The run could not produce a result (no program, worker failure)."""


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, peak_rss_bytes, setup_s, tail_percentile):
    """Every input is decided once a round; its time is its fastest
    decision in the run, the one least disturbed by other load on the
    machine.  Throughput is the rate at those times: inputs per second of
    their summed fastest decisions."""
    fastest = {}
    for r in records:
        fastest[r["case"]] = min(r["t"], fastest.get(r["case"], r["t"]))
    times = list(fastest.values())
    tail = statistics.quantiles(times, n=100, method="inclusive")[tail_percentile - 1] \
        if len(times) > 1 else times[0]
    return {
        "setup_s": _metric(setup_s, "s"),
        "decide_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "decide_p99_ms": _metric(tail * 1e3, "ms"),
        "decisions_per_s": _metric(len(times) / sum(times), "1/s"),
        "peak_rss_mb": _metric(peak_rss_bytes / 1e6, "MB"),
    }


def per_layer(untraced, traced, spans):
    """Per-layer metrics of the traced pass, and the oracle calls counted."""
    layers = tracing.layer_times(spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {f"{name}.self_s": _metric(layers.get(name, zero)["self_s"], "s")
           for name in SELF_TIMES}
    out["lincheck.cycle_conditions.self_s"] = _metric(
        sum(layers.get(name, zero)["self_s"] for name in CYCLE_CONDITIONS), "s")
    out["lincheck.analyze_scc.calls"] = _metric(
        layers.get("lincheck.analyze_scc", zero)["calls"], "count")

    oracle = layers.get("pairgraph.synch_slow", zero)
    names = [str(x) for x in spans["names"]]
    nid = {name: i for i, name in enumerate(names)}
    is_oracle = spans["name"] == nid.get("pairgraph.synch_slow", -1)
    n = spans["size"][is_oracle]
    pairs = int((n * (n + 1) // 2).sum())
    parents = spans["parent"][is_oracle]
    certificate = int((spans["name"][parents[parents >= 0]]
                       == nid.get("lincheck.binary_linear_check", -1)).sum())
    out["pairgraph.synch_slow.calls"] = _metric(oracle["calls"], "count")
    out["pairgraph.pairs"] = _metric(pairs, "count")
    out["pairgraph.pairs_per_s"] = _metric(
        pairs / oracle["total_s"] if oracle["total_s"] else 0.0, "1/s")

    reports = [r["report"] for r in traced if r["report"]]
    methods = [rep["method"] for rep in reports]
    reasons = [o["fail_reason"] for rep in reports for o in rep["outcomes"]]
    out["decided.linear"] = _metric(methods.count("linear"), "count")
    out["decided.fallback"] = _metric(methods.count("fallback"), "count")
    out["decided.certificate"] = _metric(certificate, "count")
    for reason in FAIL_REASONS:
        out[f"lincheck.fail.{reason}"] = _metric(reasons.count(reason), "count")
    out["lincheck.linear_decided_ratio"] = _metric(methods.count("linear") / len(traced), "ratio")
    extra_s = sum(r["t"] for r in traced) - sum(r["t"] for r in untraced)
    out["trace.overhead_s"] = _metric(extra_s / len(traced), "s")
    out["trace.decisions"] = _metric(len(traced), "count")
    return out, oracle["calls"]


def _run_worker(plan, workdir):
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="")
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.worker", plan_path],
                              cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    with open(plan["result_path"]) as fh:
        return json.load(fh)


def _records(cases, log):
    """One dict per decision from the worker's compact log."""
    reports = {int(i): json.loads(text) for i, text in log["reports"].items()}
    digests = {int(i): d for i, d in log["digests"].items()}
    records = []
    for j, (i, t0, t, v) in enumerate(zip(log["case"], log["t0"], log["t"], log["verdict"])):
        case = cases[i]
        records.append({
            "case": case["id"], "n": case["n"], "k": case["k"], "seed": case["seed"],
            "t0": t0, "t": t, "verdict": None if v < 0 else bool(v),
            "error": log["errors"].get(str(j)), "report": reports.get(i),
            "digest": digests.get(i),
        })
    return records


def run(name, seed, seconds, trace, workload=None):
    """One run; returns the result object.  ``workload`` overrides the
    named workload's sizes (the benchmark's tests pass tiny ones)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "synchk", "__init__.py")):
        raise RunError(f"no synchk sources under {os.path.join(ROOT, 'src')}")
    workload = workload or WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cases = workload.prepare(seed, workdir)
        plan = {
            "root": ROOT, "mode": workload.mode, "seconds": seconds, "trace": bool(trace),
            "cases": [case for case, _, _ in cases.values()],
            "result_path": os.path.join(workdir, "result.json"),
            "spans_path": os.path.join(WORK, f"spans-{name}.npz"),
        }
        result = _run_worker(plan, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = _records(plan["cases"], result["log"])
    setup_s = records[0]["t0"] - _T0

    checked = verify.check_run(cases, records)
    if trace:
        traced = _records(plan["cases"], result["traced_log"])
        metrics, counted = per_layer(records, traced, tracing.load(plan["spans_path"]))
        if not verify.same_verdicts(records, traced):
            checked.wrong("traced verdicts differ from the untraced run's")
        predicted = verify.predicted_oracle_calls(traced, result["certified_max_n"])
        if predicted != counted:
            checked.wrong(f"{counted} oracle calls counted, {predicted} predicted by the reports")
    else:
        metrics = end_to_end(records, result["peak_rss_bytes"], setup_s,
                             workload.tail_percentile)
    for line in checked.messages:
        print(f"check: {line}", file=sys.stderr)
    return {"correct": checked.correct, "attempted": checked.attempted,
            "failed": checked.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
