"""CLI: exit codes, output formats, determinism, configuration errors."""
import csv
import gc
import io
import json
import sys
import warnings

import jsonschema
import pytest

from synchk.automaton import Automaton, generate_uniform, parse
from synchk.cli import CHECK_JSON_SCHEMA, ENV_ORACLE_CAP, main
from synchk.experiments import TrialPlan, estimate_fn, fn_report_csv


def write_automaton(tmp_path, A, name="auto.txt"):
    path = tmp_path / name
    path.write_text(A.serialize())
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    return write_automaton(tmp_path, Automaton(3, 2, [(0, 0), (1, 1), (2, 2)]),
                           "identity.txt")


@pytest.fixture
def passing_file(tmp_path):
    # generate_uniform(20, 2, 0) sails through the whole pipeline
    return write_automaton(tmp_path, generate_uniform(20, 2, 0), "passing.txt")


# ---------------------------------------------------------------------------
# check


def test_check_exit_codes(passing_file, identity_file, tmp_path, cerny4, two_shifts):
    assert main(["check", passing_file]) == 0
    assert main(["check", identity_file]) == 1
    assert main(["check", write_automaton(tmp_path, cerny4, "c.txt")]) == 0
    assert main(["check", write_automaton(tmp_path, two_shifts, "p.txt")]) == 1


def test_check_text_output(passing_file, capsys):
    assert main(["check", passing_file]) == 0
    out = capsys.readouterr().out
    assert "synchronizing" in out
    assert "method=linear" in out


def test_check_linear_only_indeterminate(tmp_path, two_shifts, capsys):
    path = write_automaton(tmp_path, two_shifts)
    assert main(["check", path, "--method", "linear-only"]) == 3
    out = capsys.readouterr().out
    assert "indeterminate" in out
    assert "fail: NoUniqueTallestBranch" in out


def test_check_method_quadratic(identity_file, capsys):
    assert main(["check", identity_file, "--method", "quadratic"]) == 1
    assert "method=quadratic" in capsys.readouterr().out


def test_check_closes_its_input_file(passing_file, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["check", passing_file]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_check_stdin(monkeypatch, capsys):
    A = Automaton(3, 1, [0, 0, 0])
    monkeypatch.setattr("sys.stdin", io.StringIO(A.serialize()))
    assert main(["check", "-"]) == 0
    assert "method=linear" in capsys.readouterr().out


def test_check_json_schema(passing_file, identity_file, tmp_path, parity4, two_shifts, capsys):
    cases = [
        (["check", passing_file, "--format", "json"], 0, "linear", True),
        (["check", identity_file, "--format", "json"], 1, "linear", False),
        (["check", write_automaton(tmp_path, parity4, "c.txt"), "--format", "json"],
         0, "fallback", True),
        (["check", write_automaton(tmp_path, two_shifts, "p.txt"),
          "--method", "linear-only", "--format", "json"], 3, "linear", None),
        (["check", identity_file, "--method", "quadratic", "--format", "json"],
         1, "quadratic", False),
    ]
    for argv, code, method, verdict in cases:
        assert main(argv) == code
        obj = json.loads(capsys.readouterr().out)
        jsonschema.validate(obj, CHECK_JSON_SCHEMA)
        assert obj["method"] == method
        assert obj["synchronizing"] is verdict


def test_check_generated_automaton(capsys):
    assert main(["check", "--gen-n", "1", "--gen-k", "2"]) == 0
    assert "synchronizing" in capsys.readouterr().out
    assert main(["check", "--gen-n", "20", "--gen-k", "2", "--gen-seed", "0"]) == 0


def test_check_usage_errors(tmp_path, passing_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not an automaton\n")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.txt")]) == 2
    assert main(["check"]) == 2  # neither file nor generation spec
    assert main(["check", passing_file, "--gen-n", "5", "--gen-k", "2"]) == 2
    assert main(["check", "--gen-n", "5"]) == 2  # missing --gen-k
    assert main(["check", "--gen-n", "0", "--gen-k", "2"]) == 2


def test_check_oracle_cap(tmp_path, parity4, monkeypatch):
    # parity4 needs the fallback oracle, so a tiny cap is a hard error
    path = write_automaton(tmp_path, parity4)
    assert main(["check", path, "--oracle-cap", "3"]) == 2
    assert main(["check", path, "--oracle-cap", "4"]) == 0
    monkeypatch.setenv(ENV_ORACLE_CAP, "3")
    assert main(["check", path]) == 2
    # an explicit flag beats the environment
    assert main(["check", path, "--oracle-cap", "100"]) == 0
    monkeypatch.setenv(ENV_ORACLE_CAP, "banana")
    assert main(["check", path]) == 2


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["gen", "-n", "5", "-k", "2", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["gen", "-n", "5", "-k", "2", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    A = parse(out1.read_text())
    assert (A.n, A.k) == (5, 2)
    assert A == generate_uniform(5, 2, 7)


def test_gen_json_stdout(capsys):
    assert main(["gen", "-n", "4", "-k", "3", "--seed", "1", "--format", "json"]) == 0
    A = parse(capsys.readouterr().out)
    assert (A.n, A.k) == (4, 3)


def test_gen_rejects_bad_sizes(capsys):
    assert main(["gen", "-n", "0", "-k", "2"]) == 2
    assert main(["gen", "-n", "2", "-k", "0"]) == 2


def test_gen_round_trip_through_check(tmp_path):
    path = tmp_path / "gen.txt"
    assert main(["gen", "-n", "20", "-k", "2", "--seed", "0", "--out", str(path)]) == 0
    assert main(["check", str(path)]) == 0


# ---------------------------------------------------------------------------
# estimate-fn / bench / crossover


def test_estimate_fn_matches_library(capsys):
    assert main(["estimate-fn", "-n", "5", "--trials", "30", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    plan = TrialPlan(5, 1.0, 0.99, 30)
    assert out == fn_report_csv(estimate_fn(5, plan, 3))


def test_estimate_fn_default_trials(capsys):
    assert main(["estimate-fn", "-n", "4", "--seed", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert int(rows[0]["total_runs"]) == 11 * 4  # Hoeffding minimum at eps=1


def test_estimate_fn_rejects_undersized_trials(capsys):
    assert main(["estimate-fn", "-n", "10", "--trials", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--ns", "5,7", "--ks", "1,2", "--reps", "1",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [(r["n"], r["k"]) for r in rows] == [
        ("5", "1"), ("5", "2"), ("7", "1"), ("7", "2")]


def test_bench_rejects_bad_lists(capsys):
    assert main(["bench", "--ns", "5,x"]) == 2
    assert main(["bench", "--ns", ""]) == 2
    assert main(["bench", "--ns", "5", "--reps", "0"]) == 2


def test_crossover_output(tmp_path, capsys):
    out = tmp_path / "cross.csv"
    assert main(["crossover", "--min", "4", "--max", "6", "--step", "2",
                 "--runs", "2", "--seed", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["n"] for r in rows] == ["4", "6"]
    err = capsys.readouterr().err
    assert "crossover" in err


def test_crossover_rejects_bad_range(capsys):
    assert main(["crossover", "--min", "5", "--max", "4"]) == 2
    assert main(["crossover", "--min", "0", "--max", "4"]) == 2
    assert main(["crossover", "--min", "4", "--max", "6", "--step", "0"]) == 2


def test_trace_targets_resolve():
    # the benchmark's tracer looks its targets up in sys.modules and skips
    # any it cannot find, which would read as zero time in that layer; every
    # one must exist once the CLI is loaded
    import synchk.cli  # noqa: F401
    from perfbench.tracing import TARGETS

    for module, attr in TARGETS:
        owner = sys.modules.get(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), (module, attr)
