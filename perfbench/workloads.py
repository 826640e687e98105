"""The four workloads: how each builds its inputs from a seed.

Inputs are made with NumPy alone, so the program under test sees only the
text files or generator seeds.  ``prepare`` returns the run's cases; every
round of a run decides all of them once, in order, and a run always ends on
a round boundary.  A case is a JSON-able dict: ``id``, ``n``, ``k``,
``kind`` (``uniform``, ``cover`` or ``cerny``) and either ``file`` (decided
through the CLI) or ``seed`` (generated and decided through the library).
"""
from __future__ import annotations

import os

import numpy as np

from .checks import cerny_table, write_table


def uniform_table(n: int, k: int, seed) -> np.ndarray:
    """The table synchk's generate_uniform(n, k, seed) is documented to give:
    every successor i.i.d. uniform from one PCG64 stream, row-major."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.integers(0, n, size=n * k).reshape(n, k)


def random_cover(base: int, rng):
    """A relabelled random 2-fold cover on 2*base states and its fibre pairing.

    State (q, i) of the cover goes, under letter a, to (B[q, a], i xor
    V[q, a]) for a uniform base automaton B and uniform bits V; a random
    permutation then hides the fibres.
    """
    b = rng.integers(0, base, size=(base, 2))
    v = rng.integers(0, 2, size=(base, 2))
    n = 2 * base
    q = np.arange(n) // 2
    i = np.arange(n) % 2
    lifted = np.stack([2 * b[q, a] + (i ^ v[q, a]) for a in range(2)], axis=1)
    perm = rng.permutation(n)
    table = np.empty_like(lifted)
    table[perm] = perm[lifted]
    partner = np.empty(n, dtype=np.int64)
    partner[perm] = perm[np.arange(n) ^ 1]
    return table, partner


def relabelled_cerny(n: int, rng) -> np.ndarray:
    perm = rng.permutation(n)
    table = np.empty((n, 2), dtype=np.int64)
    table[perm] = perm[cerny_table(n)]
    return table


class Workload:
    """``prepare(seed, workdir)`` maps each case id to ``(case, table,
    partner)``; table and partner are the checker's data for file cases and
    None for generated ones, whose tables the checker rebuilds from the seed.

    ``tail_percentile`` is the percentile reported as decide_p99_ms.  A run
    leaves ten decisions above p99 only on uniform-small; the other
    workloads make under forty decisions a run, where any percentile above
    the median is the run's slowest few decisions rather than a tail, so
    they report the median.
    """

    mode = "library"
    tail_percentile = 50

    def prepare(self, seed: int, workdir: str) -> dict:
        raise NotImplementedError


class UniformLarge(Workload):
    """Text files of uniform 2-letter automata at the paper's size."""

    mode = "cli"

    def __init__(self, n=100_000, files=4):
        self.n, self.files = n, files

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        items = [("uniform", rng.integers(0, self.n, size=(self.n, 2)), None)
                 for _ in range(self.files)]
        return _write_cases(items, workdir)


class OracleBound(Workload):
    """2-fold covers of uniform automata plus one Cerny automaton per round.
    The covers are the majority, so the median decision is a cover."""

    mode = "cli"

    def __init__(self, cover_base=500, covers=3, cerny_n=1000):
        self.cover_base, self.covers, self.cerny_n = cover_base, covers, cerny_n

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        items = [("cover",) + random_cover(self.cover_base, rng) for _ in range(self.covers)]
        items.insert(self.covers // 2, ("cerny", relabelled_cerny(self.cerny_n, rng), None))
        return _write_cases(items, workdir)


class Generated(Workload):
    """Uniform automata decided from their generator seed, ``count`` at
    each of the sizes ``ns``, interleaved."""

    def __init__(self, ns, k, count):
        self.ns, self.k, self.count = ns, k, count

    def prepare(self, seed, workdir):
        data = {}
        for i in range(self.count):
            for n in self.ns:
                case = {"id": f"{n}:{i}", "n": n, "k": self.k, "kind": "uniform",
                        "file": None, "seed": [seed, n, i]}
                data[case["id"]] = (case, None, None)
        return data


class UniformSmall(Generated):
    tail_percentile = 99


def _write_cases(items, workdir):
    data = {}
    for j, (kind, table, partner) in enumerate(items):
        path = os.path.join(workdir, f"case{j}.txt")
        write_table(path, table)
        n, k = table.shape
        case = {"id": f"case{j}", "n": n, "k": k, "kind": kind, "file": path, "seed": None}
        data[case["id"]] = (case, table, partner)
    return data


WORKLOADS = {
    "uniform-1e5": UniformLarge(),
    # four letters at five sizes, all above the oracle's default cap of
    # 20000 states: a rare linear-phase miss is refused instead of being
    # run at a memory cost of tens of GB
    "uniform-wide": Generated(ns=(30_000, 45_000, 60_000, 80_000, 100_000), k=4, count=1),
    # sizes on both sides of the n <= 32 pair-graph certificate
    "uniform-small": UniformSmall(ns=(20, 50), k=2, count=2000),
    "oracle-bound": OracleBound(),
}
