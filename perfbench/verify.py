"""Check a run's verdicts against the independent computations in checks.py.

A decision fails when it gives no verdict (``cli.main`` returned 2 or 3, or
a call raised) or a wrong one.  A wrong verdict, or a generated automaton
that is not the one the seed describes, also makes the run incorrect.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .workloads import uniform_table

# Up to this size every verdict is recomputed on the full pair graph.
PAIR_GRAPH_MAX_N = 64
PAIR_GRAPH_BATCH = 500
# Negatives the sink count cannot confirm are recomputed up to this size.
PAIR_GRAPH_FULL_MAX_N = 2000


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    messages: list = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.messages) < 10:
            self.messages.append(message)

    def wrong(self, message: str) -> None:
        self.correct = False
        self.note(message)


def _reference(case, table, partner, claimed):
    """Whether ``claimed`` (a verdict the program gave) is confirmed."""
    kind, n = case["kind"], case["n"]
    if kind == "cover":
        return claimed is False and checks.confirms_cover(table, partner)
    if kind == "cerny":
        return claimed is True and \
            checks.image_of_runs(table, checks.cerny_reset_runs(n)).size == 1
    if claimed:
        word = checks.find_sync_word(table, seed=0)
        return word is not None and checks.confirms_sync_word(table, word)
    if checks.sink_component_count(table) >= 2:
        return True
    # a negative with one sink component is the oracle's; recompute it
    # where the pair graph fits
    return n <= PAIR_GRAPH_FULL_MAX_N and not checks.pair_graph_verdicts(table[None])[0]


def check_run(cases: dict, records: list) -> Checked:
    out = Checked(attempted=len(records))
    by_case = {}
    for rec in records:
        if rec["verdict"] is None:
            out.failed += 1
            out.note(f"{rec['case']}: {rec['error']}")
            continue
        by_case.setdefault(rec["case"], []).append(rec)

    tables = {}
    small = {}
    for cid, recs in by_case.items():
        first = recs[0]
        if cid in cases and cases[cid][1] is not None:
            case, table, partner = cases[cid]
        else:
            case = {"id": cid, "n": first["n"], "k": first["k"], "kind": "uniform"}
            table, partner = uniform_table(first["n"], first["k"], first["seed"]), None
            digest = next((r["digest"] for r in recs if r["digest"] is not None), None)
            if digest != zlib.crc32(table.reshape(-1).astype(np.int64).tobytes()):
                out.failed += len(recs)
                out.wrong(f"{cid}: generate_uniform gave another automaton than the seed's")
                continue
        tables[cid] = (case, table, partner)
        if case["kind"] == "uniform" and case["n"] <= PAIR_GRAPH_MAX_N:
            small.setdefault((case["n"], case["k"]), []).append(cid)

    expected = {}
    for ids in small.values():
        for i in range(0, len(ids), PAIR_GRAPH_BATCH):
            chunk = ids[i:i + PAIR_GRAPH_BATCH]
            flags = checks.pair_graph_verdicts(np.stack([tables[c][1] for c in chunk]))
            expected.update(zip(chunk, flags.tolist()))

    for cid, (case, table, partner) in tables.items():
        for claimed in sorted({r["verdict"] for r in by_case[cid]}):
            if cid in expected:
                ok = claimed == expected[cid]
            else:
                ok = _reference(case, table, partner, claimed)
            if not ok:
                bad = sum(1 for r in by_case[cid] if r["verdict"] == claimed)
                out.failed += bad
                out.wrong(f"{cid}: verdict {claimed} is wrong ({bad} decisions)")
    return out


def same_verdicts(untraced: list, traced: list) -> bool:
    return [(r["case"], r["verdict"]) for r in untraced] == \
        [(r["case"], r["verdict"]) for r in traced]


def predicted_oracle_calls(records: list, certified_max_n: int) -> int:
    """Oracle calls the reports imply: one per fallback, plus one per
    two-letter pipeline run at 1 < n <= certified_max_n that passed every
    guard (its positive verdict, or the negative the certificate gave)."""
    calls = 0
    for rec in records:
        rep = rec["report"]
        if rep is None:
            continue
        calls += rep["method"] == "fallback"
        if 1 < rec["n"] <= certified_max_n:
            calls += sum(1 for o in rep["outcomes"]
                         if o["verdict"] == "synchronizing" or o["step"] == "certificate")
    return calls
