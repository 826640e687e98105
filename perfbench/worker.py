"""The process that makes the decisions: ``python3 -m perfbench.worker PLAN``.

It imports synchk from the checkout's ``src``, runs whole rounds of the
plan's cases until the plan's seconds are used, and writes every decision's
time and verdict, plus each case's first report, to the plan's result
file.  With tracing on, it then installs the span wrappers and repeats
exactly the same rounds.  Per decision it keeps only fixed-size numbers in
typed arrays, so its peak RSS is the program's and does not grow with the
number of decisions.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import zlib
from array import array

from . import tracing

NO_VERDICT = -1


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import synchk
    from synchk import automaton, cli, lincheck  # noqa: F401

    origin = os.path.realpath(synchk.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"synchk was imported from {origin}, not from {src}")
    return cli, automaton, lincheck


class Log:
    """Decisions in order: case index, start, duration, verdict (1, 0 or
    NO_VERDICT); errors by decision index; a case's report (JSON text) and
    table digest from its first decision."""

    def __init__(self):
        self.case = array("i")
        self.t0 = array("d")
        self.t = array("d")
        self.verdict = array("b")
        self.errors = {}
        self.reports = {}
        self.digests = {}

    def add(self, i, t0, t1, verdict, error):
        if error is not None:
            self.errors[len(self.case)] = error
        self.case.append(i)
        self.t0.append(t0)
        self.t.append(t1 - t0)
        self.verdict.append(NO_VERDICT if verdict is None else int(verdict))

    def to_json(self) -> dict:
        return {"case": self.case.tolist(), "t0": self.t0.tolist(), "t": self.t.tolist(),
                "verdict": self.verdict.tolist(), "errors": self.errors,
                "reports": self.reports, "digests": self.digests}


def _report_json(rep) -> str:
    outcomes = [
        {
            "letters": list(po.letters),
            "verdict": po.outcome.verdict.value,
            "fail_reason": po.outcome.fail_reason.value if po.outcome.fail_reason else None,
            "step": po.outcome.step,
        }
        for po in rep.outcomes
    ]
    return json.dumps({"method": rep.method, "synchronizing": rep.synchronizing,
                       "outcomes": outcomes})


def cli_decider(cli):
    def decide(i, case, log):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["check", "--format", "json", case["file"]])
            error = None
        except (Exception, SystemExit) as exc:
            rc, error = None, repr(exc)
        t1 = time.perf_counter()
        verdict = {0: True, 1: False}.get(rc)
        if verdict is None and error is None:
            error = f"exit code {rc}: {err.getvalue().strip()}"
        if verdict is not None and i not in log.reports:
            log.reports[i] = out.getvalue()
        log.add(i, t0, t1, verdict, error)
    return decide


def library_decider(automaton, lincheck):
    def decide(i, case, log):
        t0 = time.perf_counter()
        try:
            A = automaton.generate_uniform(case["n"], case["k"], tuple(case["seed"]))
            rep = lincheck.check_synchronizing(A)
            error = None
        except Exception as exc:
            A, rep, error = None, None, repr(exc)
        t1 = time.perf_counter()
        verdict = None if rep is None else rep.synchronizing
        if rep is not None and verdict is None:
            error = "no verdict"
        if A is not None and i not in log.digests:
            log.digests[i] = zlib.crc32(array("q", A.delta).tobytes())
        if rep is not None and i not in log.reports:
            log.reports[i] = _report_json(rep)
        log.add(i, t0, t1, verdict, error)
    return decide


def run_rounds(cases, decide, seconds, rounds=None):
    """Whole rounds until ``seconds`` are used, or exactly ``rounds``."""
    log = Log()
    start = time.perf_counter()
    r = 0
    while rounds is None or r < rounds:
        for i, case in enumerate(cases):
            decide(i, case, log)
        r += 1
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    return log, r


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    cli, automaton, lincheck = _import_program(plan["root"])
    if plan["mode"] == "cli":
        decide = cli_decider(cli)
    else:
        decide = library_decider(automaton, lincheck)

    log, rounds = run_rounds(plan["cases"], decide, plan["seconds"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "log": log.to_json(),
        "peak_rss_bytes": peak_kib * 1024,
        "certified_max_n": getattr(lincheck, "CERTIFIED_MAX_N", 0),
    }
    if plan["trace"]:
        recorder = tracing.Recorder()
        tracing.install(recorder)
        traced, _ = run_rounds(plan["cases"], decide, plan["seconds"], rounds)
        recorder.save(plan["spans_path"])
        result["traced_log"] = traced.to_json()
    with open(plan["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
