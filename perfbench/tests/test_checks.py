"""The independent checks accept right answers and reject planted wrong ones."""
import zlib

import numpy as np

from perfbench import checks, verify
from perfbench.workloads import random_cover, relabelled_cerny, uniform_table


def _record(case_id, n, k, seed, verdict, digest=None):
    return {"case": case_id, "n": n, "k": k, "seed": seed, "t0": 0.0,
            "t": 1e-3, "verdict": verdict, "report": None, "error": None, "digest": digest}


def test_table_round_trip(tmp_path):
    table = uniform_table(30, 3, [1, 2])
    path = tmp_path / "a.txt"
    checks.write_table(path, table)
    assert np.array_equal(checks.read_table(path), table)


def test_pair_graph_bfs_on_known_automata():
    rotate = np.stack([(np.arange(4) + 1) % 4] * 2, axis=1)  # a permutation automaton
    flags = checks.pair_graph_verdicts(np.stack([checks.cerny_table(4), rotate]))
    assert flags.tolist() == [True, False]


def test_found_sync_word_is_confirmed():
    table = uniform_table(3000, 2, [5])
    word = checks.find_sync_word(table, seed=0)
    assert word is not None and checks.confirms_sync_word(table, word)


def test_cerny_reset_word_and_corrupted_letter():
    n = 12
    table = relabelled_cerny(n, np.random.default_rng(3))
    runs = checks.cerny_reset_runs(n)
    assert sum(c for _, c in runs) == (n - 1) ** 2
    assert checks.image_of_runs(table, runs).size == 1
    corrupted = [(0, 1)] + runs[1:]  # first letter b replaced by a
    assert checks.image_of_runs(table, corrupted).size > 1


def test_cover_confirmed_and_merged_fibre_rejected():
    table, partner = random_cover(40, np.random.default_rng(4))
    assert checks.confirms_cover(table, partner)
    merged = table.copy()
    u = 0
    merged[partner[u], 0] = merged[u, 0]  # the fibre {u, partner[u]} now merges
    assert not checks.confirms_cover(merged, partner)
    assert checks.pair_graph_verdicts(table[None])[0] == False  # noqa: E712


def test_sink_component_count():
    two_sinks = np.array([[1, 2], [1, 1], [2, 2]])
    assert checks.sink_component_count(two_sinks) == 2
    assert checks.sink_component_count(checks.cerny_table(5)) == 1


def test_flipped_verdict_is_rejected():
    seeds = [[9, 20, i] for i in range(30)]
    tables = [uniform_table(20, 2, s) for s in seeds]
    truth = checks.pair_graph_verdicts(np.stack(tables)).tolist()
    records = [
        _record(f"20:{i}", 20, 2, s, v, zlib.crc32(t.reshape(-1).astype(np.int64).tobytes()))
        for i, (s, t, v) in enumerate(zip(seeds, tables, truth))
    ]
    ok = verify.check_run({}, records)
    assert ok.correct and ok.failed == 0 and ok.attempted == 30
    records[7]["verdict"] = not records[7]["verdict"]
    bad = verify.check_run({}, records)
    assert not bad.correct and bad.failed == 1


def test_wrong_automaton_digest_is_rejected():
    table = uniform_table(20, 2, [1])
    rec = _record("20:0", 20, 2, [1], True, digest=1 + zlib.crc32(table.tobytes()))
    assert not verify.check_run({}, [rec]).correct


def test_flipped_cover_and_cerny_verdicts_are_rejected():
    rng = np.random.default_rng(6)
    cover, partner = random_cover(30, rng)
    cerny = relabelled_cerny(20, rng)
    cases = {
        "c0": ({"id": "c0", "n": 60, "k": 2, "kind": "cover"}, cover, partner),
        "c1": ({"id": "c1", "n": 20, "k": 2, "kind": "cerny"}, cerny, None),
    }
    right = [_record("c0", 60, 2, None, False), _record("c1", 20, 2, None, True)]
    assert verify.check_run(cases, right).correct
    for i in range(2):
        flipped = [dict(r) for r in right]
        flipped[i]["verdict"] = not flipped[i]["verdict"]
        out = verify.check_run(cases, flipped)
        assert not out.correct and out.failed == 1


def test_failed_decision_is_counted_but_not_wrong():
    rec = _record("20:0", 20, 2, [1], None)
    rec["error"] = "exit code 2"
    out = verify.check_run({}, [rec])
    assert out.correct and out.failed == 1


def test_predicted_oracle_calls():
    def rec(n, method, outcomes):
        r = _record("x", n, 2, None, True)
        r["report"] = {"method": method, "outcomes": [
            {"verdict": v, "step": s, "fail_reason": None} for v, s in outcomes]}
        return r

    records = [
        rec(20, "linear", [("synchronizing", None)]),          # certificate
        rec(20, "linear", [("not-synchronizing", "scc")]),     # sink test
        rec(20, "fallback", [("linear-fail", "seed-pair")]),   # fallback
        rec(20, "linear", [("not-synchronizing", "certificate")]),
        rec(50, "linear", [("synchronizing", None)]),          # above the bound
    ]
    assert verify.predicted_oracle_calls(records, 32) == 3
