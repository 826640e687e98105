"""Core automaton type: construction, random generation, restriction, I/O.

States and letters are dense 0-based integers.  The transition table has two
forms, each built from the other on first use and then kept: a flat tuple,
so that pure-Python loops can index ``delta[q * k + a]`` and take
single-letter actions as cheap slices, and a read-only, C-contiguous (n, k)
int32 array for the NumPy code.  The array has that one layout whatever
made it, so a row gather or a flat view of it never copies the whole table
first.  Generation, the text parser's fast path and letter restriction fill
the array form only, so a large automaton that never meets a Python loop
never builds its tuple.
"""
from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Automaton", "FormatError", "generate_uniform", "parse"]


class FormatError(ValueError):
    """Malformed automaton text or JSON input."""


class Automaton:
    """A complete deterministic automaton on n states over k letters.

    ``delta[q * k + a]`` and ``table[q, a]`` are the successor of state ``q``
    under letter ``a``.  Instances are immutable; analyses build their own
    side structures instead of annotating the automaton.
    """

    __slots__ = ("n", "k", "_delta", "_table")

    def __init__(self, n: int, k: int, table: Iterable) -> None:
        if n < 1 or k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
        entries = list(table)
        if entries and isinstance(entries[0], (list, tuple)):
            if len(entries) != n:
                raise ValueError(f"expected {n} rows, got {len(entries)}")
            for q, row in enumerate(entries):
                if len(row) != k:
                    raise ValueError(f"row {q} has {len(row)} entries, expected {k}")
            flat = tuple(chain.from_iterable(entries))
        else:
            flat = tuple(entries)
            if len(flat) != n * k:
                raise ValueError(f"expected {n * k} flat entries, got {len(flat)}")
        for v in flat:
            # bool is an int subclass, but True is no state
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ValueError(f"transition target {v!r} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_delta", flat)
        object.__setattr__(self, "_table", None)

    @classmethod
    def _raw(cls, n: int, k: int, table: np.ndarray) -> "Automaton":
        # internal fast path for tables that are valid by construction; a
        # table must be an (n, k) array nobody else writes to, and is stored
        # as a C-contiguous int32 array, copied only when it is not one
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_delta", None)
        table = np.ascontiguousarray(table, dtype=np.int32)
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)
        return self

    @property
    def delta(self) -> tuple:
        """The flat transition tuple: delta[q * k + a] is q's successor under a."""
        if self._delta is None:
            object.__setattr__(self, "_delta", tuple(self._table.reshape(-1).tolist()))
        return self._delta

    @property
    def table(self) -> np.ndarray:
        """The transition table as a read-only (n, k) int32 array.

        It is always C-contiguous: row q holds q's k successors side by
        side, and ``table.reshape(-1)`` is a view equal to ``delta``.
        """
        if self._table is None:
            table = np.array(self._delta, dtype=np.int32).reshape(self.n, self.k)
            table.flags.writeable = False
            object.__setattr__(self, "_table", table)
        return self._table

    def __setattr__(self, name, value):
        raise AttributeError("Automaton is immutable")

    def __delattr__(self, name):
        raise AttributeError("Automaton is immutable")

    def __eq__(self, other):
        if not isinstance(other, Automaton):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.delta == other.delta

    def __hash__(self):
        return hash((self.n, self.k, self.delta))

    def __repr__(self):
        return f"Automaton(n={self.n}, k={self.k})"

    def target(self, q: int, a: int) -> int:
        """Successor of state q under letter a, with bounds checking."""
        if not 0 <= q < self.n:
            raise ValueError(f"state {q} out of range")
        if not 0 <= a < self.k:
            raise ValueError(f"letter {a} out of range")
        return self.delta[q * self.k + a]

    def column(self, a: int) -> list:
        """The action of letter a as a list: column(a)[q] is q's successor."""
        if not 0 <= a < self.k:
            raise ValueError(f"letter {a} out of range")
        return list(self.delta[a :: self.k])

    def apply_word(self, q: int, word: Sequence[int]) -> int:
        """State reached from q by reading the letters of word in order."""
        n, k, delta = self.n, self.k, self.delta
        if not 0 <= q < n:
            raise ValueError(f"state {q} out of range")
        for a in word:
            if not 0 <= a < k:
                raise ValueError(f"letter {a} out of range")
            q = delta[q * k + a]
        return q

    def restrict_letters(self, a: int, b: int) -> "Automaton":
        """Two-letter automaton keeping exactly the actions of letters a and b.

        Old letter a becomes letter 0 and old b becomes letter 1; the letters
        must be distinct.
        """
        k = self.k
        if not (0 <= a < k and 0 <= b < k):
            raise ValueError(f"letters ({a}, {b}) out of range")
        if a == b:
            raise ValueError("restriction letters must be distinct")
        table = self.table
        return Automaton._raw(self.n, 2, table=np.stack((table[:, a], table[:, b]), axis=1))

    def serialize(self) -> str:
        """Canonical text form: header line 'n k', then one row per state."""
        lines = [f"{self.n} {self.k}"]
        d, k = self.delta, self.k
        for q in range(self.n):
            lines.append(" ".join(map(str, d[q * k : (q + 1) * k])))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON form with keys n, k and the nested transition table delta."""
        d, k = self.delta, self.k
        rows = [list(d[q * k : (q + 1) * k]) for q in range(self.n)]
        return json.dumps({"n": self.n, "k": self.k, "delta": rows})


def parse(text: str) -> Automaton:
    """Read an automaton from its text or JSON form (sniffed by first character).

    Text form: a header line ``n k`` followed by n rows of k targets; anything
    after a '#' on a line is a comment.  Raises FormatError on malformed input.
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_plain(text) or _parse_lines(text)


def _parse_lines(text: str) -> Automaton:
    """The general text parser: line by line, with comments, and every
    malformation reported by a FormatError."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FormatError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"header must be two integers 'n k', got {lines[0]!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}") from None
    if n < 1 or k < 1:
        raise FormatError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} transition rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != k:
            raise FormatError(f"row {i}: expected {k} entries, got {len(parts)}")
        try:
            rows.append([int(tok) for tok in parts])
        except ValueError:
            raise FormatError(f"row {i}: non-integer entry in {line!r}") from None
    try:
        return Automaton(n, k, rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# bytes a plain table may hold: digits and the separators space, tab, newline
_PLAIN_TABLE_BYTES = b"0123456789 \t\n"


def _parse_plain(text: str) -> Automaton | None:
    """Fast path for a well-formed table of ASCII digits, spaces, tabs and
    newlines, in a few array passes; None for anything else, which the
    general parser then reads or rejects with its own error message.

    Every number is a digit run, so the runs starting on each line count
    its entries; lines without one are blank, as the general parser
    treats them.  A number too large for int64 reads as the int64 maximum,
    which is no valid n and no valid target, so it lands in the general
    parser too.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _PLAIN_TABLE_BYTES):
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    if len(values) < 2:
        return None
    n, k = int(values[0]), int(values[1])
    if n < 1 or k < 1 or len(values) != 2 + n * k:
        return None
    chars = np.frombuffer(raw, dtype=np.uint8)
    digit = chars >= ord("0")
    starts = np.flatnonzero(digit[1:] > digit[:-1]) + 1
    if digit[0]:
        starts = np.concatenate(([0], starts))
    # entries on each line: the digit runs before its newline, less those
    # before the previous one; a last line without a newline ends the text
    ends = np.flatnonzero(chars == ord("\n"))
    if not len(ends) or ends[-1] != len(chars) - 1:
        ends = np.append(ends, len(chars))
    per_line = np.diff(np.searchsorted(starts, ends), prepend=0)
    per_line = per_line[per_line > 0]
    if len(per_line) != n + 1 or per_line[0] != 2 or (per_line[1:] != k).any():
        return None
    targets = values[2:]
    if targets.max() >= n:
        return None
    return Automaton._raw(n, k, table=targets.reshape(n, k))


def _parse_json(text: str) -> Automaton:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"n", "k", "delta"}:
        raise FormatError("JSON object must have exactly the keys n, k, delta")
    n, k, delta = obj["n"], obj["k"], obj["delta"]
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (n, k)):
        raise FormatError("n and k must be integers")
    if not isinstance(delta, list) or not all(isinstance(r, list) for r in delta):
        raise FormatError("delta must be a list of rows")
    try:
        return Automaton(n, k, delta)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def generate_uniform(n: int, k: int, seed=None) -> Automaton:
    """Uniform random automaton: every delta(q, a) i.i.d. uniform on 0..n-1.

    The PCG64 stream is fully determined by ``seed``, which may be an int, a
    tuple of ints, or None for fresh OS entropy.  Tuples give callers cheap
    independent streams, e.g. ``(master_seed, trial_index)`` per trial.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return Automaton._raw(n, k, table=rng.integers(0, n, size=(n, k)))
