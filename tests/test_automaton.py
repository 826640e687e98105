"""Automaton construction, accessors, I/O round trips, random generation."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from synchk import automaton, pairgraph
from synchk.automaton import Automaton, FormatError, generate_uniform, parse


def test_flat_and_nested_tables_agree():
    a = Automaton(3, 2, [1, 2, 0, 0, 2, 1])
    b = Automaton(3, 2, [(1, 2), (0, 0), (2, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.delta == (1, 2, 0, 0, 2, 1)


def test_construction_validation():
    with pytest.raises(ValueError):
        Automaton(0, 2, [])
    with pytest.raises(ValueError):
        Automaton(2, 0, [])
    with pytest.raises(ValueError):
        Automaton(2, 2, [0, 1, 0])  # short flat table
    with pytest.raises(ValueError):
        Automaton(2, 2, [(0, 1)])  # missing row
    with pytest.raises(ValueError):
        Automaton(2, 2, [(0, 1, 0), (1, 1)])  # row width
    with pytest.raises(ValueError):
        Automaton(2, 2, [0, 1, 2, 0])  # target out of range
    with pytest.raises(ValueError):
        Automaton(2, 2, [0, 1, -1, 0])


def test_immutability():
    A = Automaton(2, 1, [1, 0])
    with pytest.raises(AttributeError):
        A.n = 3
    with pytest.raises(AttributeError):
        del A.delta


def test_accessors():
    A = Automaton(3, 2, [(1, 2), (0, 0), (2, 1)])
    assert A.target(0, 1) == 2
    assert A.column(0) == [1, 0, 2]
    assert A.column(1) == [2, 0, 1]
    assert A.apply_word(0, []) == 0
    assert A.apply_word(0, [0, 1, 0]) == 1  # 0 -a-> 1 -b-> 0 -a-> 1
    for bad in (lambda: A.target(3, 0), lambda: A.target(0, 2),
                lambda: A.column(5),
                lambda: A.apply_word(7, [0]), lambda: A.apply_word(0, [9])):
        with pytest.raises(ValueError):
            bad()


def test_restrict_letters():
    A = Automaton(3, 3, [(1, 2, 0), (0, 0, 1), (2, 1, 2)])
    B = A.restrict_letters(2, 0)
    assert B.k == 2
    assert B.column(0) == A.column(2)
    assert B.column(1) == A.column(0)
    with pytest.raises(ValueError):
        A.restrict_letters(1, 1)
    with pytest.raises(ValueError):
        A.restrict_letters(0, 3)


def test_text_round_trip():
    A = Automaton(3, 2, [(1, 2), (0, 0), (2, 1)])
    text = A.serialize()
    assert text.splitlines()[0] == "3 2"
    assert parse(text) == A


def test_json_round_trip():
    A = Automaton(4, 3, [(1, 2, 0), (0, 3, 1), (2, 1, 2), (3, 3, 0)])
    out = json.loads(A.to_json())
    assert out == {"n": 4, "k": 3, "delta": [[1, 2, 0], [0, 3, 1], [2, 1, 2], [3, 3, 0]]}
    assert parse(A.to_json()) == A


def test_parse_comments_and_blanks():
    text = "# header comment\n2 2\n\n1 0  # row for state 0\n0 1\n"
    assert parse(text) == Automaton(2, 2, [(1, 0), (0, 1)])


def test_parse_sniffs_json_after_whitespace():
    assert parse('  {"n": 1, "k": 1, "delta": [[0]]}') == Automaton(1, 1, [0])


@pytest.mark.parametrize("text", [
    "",
    "  \n# only comments\n",
    "2\n0 0\n1 1\n",
    "x y\n0 0\n1 1\n",
    "0 1\n",
    "2 2\n0 0\n",            # missing a row
    "2 2\n0 0\n1 1\n0 0\n",  # extra row
    "2 2\n0 0 0\n1 1\n",     # wide row
    "2 2\n0 z\n1 1\n",
    "2 2\n0 2\n1 1\n",       # target out of range
    '{"n": 2, "k": 1}',
    '{"n": 2, "k": 1, "delta": [[0], [1]], "extra": 0}',
    '{"n": "2", "k": 1, "delta": [[0], [1]]}',
    '{"n": 2, "k": 1, "delta": [0, 1]}',
    '{"n": 2, "k": 1, "delta": [[0], [2]]}',
    "{not json",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse(text)


def test_json_booleans_are_not_numbers():
    # bool is an int subclass in Python, but JSON true and false are no
    # states and no sizes
    with pytest.raises(FormatError, match="transition target True"):
        parse('{"n": 2, "k": 1, "delta": [[true], [0]]}')
    with pytest.raises(FormatError, match="n and k must be integers"):
        parse('{"n": true, "k": true, "delta": [[false]]}')
    with pytest.raises(FormatError, match="n and k must be integers"):
        parse('{"n": 1, "k": true, "delta": [[0]]}')
    with pytest.raises(ValueError):
        Automaton(2, 1, [False, True])


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_generated_serialize_parse_identity(n, k, seed):
    A = generate_uniform(n, k, seed)
    assert parse(A.serialize()) == A
    assert parse(A.to_json()) == A


def test_generate_uniform_determinism():
    assert generate_uniform(9, 3, (5, 1)) == generate_uniform(9, 3, (5, 1))
    assert generate_uniform(9, 3, (5, 1)) != generate_uniform(9, 3, (5, 2))
    assert generate_uniform(9, 3, 7) == generate_uniform(9, 3, 7)


def test_generate_uniform_validation():
    with pytest.raises(ValueError):
        generate_uniform(0, 2)
    with pytest.raises(ValueError):
        generate_uniform(2, 0)


def test_generate_uniform_marginal_uniformity():
    # one large table: all n*k entries are i.i.d. uniform on 0..n-1
    n, k = 100, 2000
    A = generate_uniform(n, k, 12345)
    counts = [0] * n
    for v in A.delta:
        counts[v] += 1
    res = stats.chisquare(counts)
    assert res.pvalue > 1e-4, f"chi2 p={res.pvalue}"


def test_generate_uniform_stream_uniformity():
    # first transition across many independent streams of the same master seed
    n, trials = 5, 2000
    counts = [0] * n
    for i in range(trials):
        counts[generate_uniform(n, 2, (999, i)).delta[0]] += 1
    res = stats.chisquare(counts)
    assert res.pvalue > 1e-4, f"chi2 p={res.pvalue}"


def _outcome(read, text):
    """read(text), or the text of the FormatError it raises."""
    try:
        return read(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@pytest.mark.parametrize("text,fast", [
    ("3 2\n1 2\n0 0\n2 1\n", True),
    ("3 2\n1 2\n0 0\n2 1", True),              # no final newline
    ("\n3 2\n\n1 2\n  \n0 0\n2 1\n\n", True),  # blank lines
    ("3\t2\n1\t2\n0 \t 0\n\t2 1\t\n", True),   # tabs
    ("3 2\n001 2\n0 0\n2 1\n", True),          # leading zeros
    ("3 2\r\n1 2\r\n0 0\r\n2 1\r\n", False),   # CRLF line endings
    ("3 2  # header\n1 2\n0 0 # row\n2 1\n", False),
    ("3 2\n+1 2\n0 0\n2 1\n", False),
    ("3 2\n1_0 2\n0 0\n2 1\n", False),
    ("3 2\n١ 2\n0 0\n2 1\n", False),     # a non-ASCII digit one
    ("3 2\n1 2\n0 -1\n2 1\n", False),
    ("3 2\n1 2\n0 3\n2 1\n", True),            # target out of range
    ("0 2\n", True),                           # n out of range
    ("3 0\n\n\n\n", True),                     # k out of range
    ("3 2\n1 2 0\n0\n2 1\n", True),            # rows of k + 1 and k - 1
    ("3 2\n1\n0 0 1\n2 1\n", True),
    ("3 2\n1 2\n0 0\n", True),                 # a row short
    ("3 2 1\n1 2\n0 0\n2 1\n", True),          # three header entries
    ("99999999999999999999 1\n0\n", True),     # past int64
    ("3 2\n1 2\n0 0\n2 99999999999999999999\n", True),
])
def test_parse_fast_path_matches_general_parser(text, fast):
    # ``fast`` says whether the text is made only of the bytes the fast
    # path reads; whatever it cannot read, the general parser gets
    assert (text.isascii() and not text.encode().translate(None, b"0123456789 \t\n")) == fast
    got = _outcome(parse, text)
    assert got == _outcome(automaton._parse_lines, text)
    if isinstance(got, Automaton) and fast:
        assert automaton._parse_plain(text) == got


def test_parse_fast_path_fills_the_table():
    A = generate_uniform(300, 3, 8)
    B = parse(A.serialize())
    assert B.table.dtype == np.int32 and not B.table.flags.writeable
    assert B.table.tolist() == A.table.tolist()
    assert B == A and hash(B) == hash(A)


def test_table_and_delta_agree():
    # each form is built from the other on first use
    A = Automaton(3, 2, [(1, 2), (0, 0), (2, 1)])
    assert A.table.tolist() == [[1, 2], [0, 0], [2, 1]]
    with pytest.raises(ValueError):
        A.table[0, 0] = 2
    G = generate_uniform(7, 3, 4)
    assert G.delta == tuple(G.table.reshape(-1).tolist())
    for B in (A, G):
        R = B.restrict_letters(1, 0)
        assert R.table.tolist() == [list(row) for row in zip(B.column(1), B.column(0))]
        assert R.delta == tuple(x for row in zip(B.column(1), B.column(0)) for x in row)


def _assert_layout(A):
    T = A.table
    assert T.shape == (A.n, A.k) and T.dtype == np.int32
    assert T.flags.c_contiguous and not T.flags.writeable
    assert T.reshape(-1).tolist() == list(A.delta)


def test_every_table_is_c_contiguous_int32(monkeypatch):
    # one layout however the table is made, so that a row gather or a flat
    # view of it never copies the whole table first
    G = generate_uniform(300, 4, 6)
    tuple_backed = Automaton(G.n, G.k, G.delta)
    assert G._table is not None and tuple_backed._table is None
    text = G.serialize()
    assert automaton._parse_plain(text) is not None
    for A in (Automaton(3, 2, [(1, 2), (0, 0), (2, 1)]), tuple_backed, parse(text), G,
              G.restrict_letters(3, 1), tuple_backed.restrict_letters(3, 1)):
        _assert_layout(A)
    # the sub-automaton on the sink component that the oracle searches
    searched = []
    real_reach = pairgraph._reach
    monkeypatch.setattr(pairgraph, "_reach", lambda A: searched.append(A) or real_reach(A))
    pairgraph.synch_slow(G.restrict_letters(0, 2))
    (Q0,) = searched
    assert Q0.n < G.n
    _assert_layout(Q0)
