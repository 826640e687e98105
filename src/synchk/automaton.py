"""Core automaton type: construction, random generation, restriction, I/O.

States and letters are dense 0-based integers.  The transition table is kept
as one flat tuple so that hot loops can index ``delta[q * k + a]`` without
nested list lookups, and single-letter actions come out as cheap slices.
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

    ``delta[q * k + a]`` is the successor of state ``q`` under letter ``a``.
    Instances are immutable; analyses build their own side structures instead
    of annotating the automaton.
    """

    __slots__ = ("n", "k", "delta")

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
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"transition target {v!r} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "delta", flat)

    @classmethod
    def _raw(cls, n: int, k: int, flat: tuple) -> "Automaton":
        # internal fast path for tables that are valid by construction
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "delta", flat)
        return self

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
        d = self.delta
        flat = tuple(chain.from_iterable(zip(d[a::k], d[b::k])))
        return Automaton._raw(self.n, 2, flat)

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


def _parse_json(text: str) -> Automaton:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"n", "k", "delta"}:
        raise FormatError("JSON object must have exactly the keys n, k, delta")
    n, k, delta = obj["n"], obj["k"], obj["delta"]
    if not isinstance(n, int) or not isinstance(k, int):
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
    flat = tuple(rng.integers(0, n, size=n * k).tolist())
    return Automaton._raw(n, k, flat)
