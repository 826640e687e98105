"""Spans around synchk's layer boundaries, recorded from outside the program.

``install`` replaces each traced function at every module attribute that
holds it (``synchk.cli`` imports ``parse`` by name, ``synchk.lincheck``
imports ``synch_slow``, the package re-exports both), so calls between the
program's own modules are caught without editing them.  Spans live in
typed arrays in memory and are written once, by ``save``.  ``layer_times``
turns them into self times: a span's duration minus its children's.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs; a dotted attribute is a method on a class.
# Helpers not listed here count toward the self time of their caller.
TARGETS = (
    ("synchk.cli", "main"),
    ("synchk.automaton", "parse"),
    ("synchk.automaton", "generate_uniform"),
    ("synchk.automaton", "Automaton.restrict_letters"),
    ("synchk.lincheck", "check_synchronizing"),
    ("synchk.lincheck", "linear_check"),
    ("synchk.lincheck", "binary_linear_check"),
    ("synchk.lincheck", "analyze_scc"),
    ("synchk.lincheck", "build_cluster_structure"),
    ("synchk.lincheck", "tallest_branch_candidates"),
    ("synchk.lincheck", "stable_seed"),
    ("synchk.lincheck", "multiply_stable_pairs"),
    ("synchk.lincheck", "check_cluster_graph"),
    ("synchk.lincheck", "check_cycle_majority"),
    ("synchk.lincheck", "check_two_cycles"),
    ("synchk.lincheck", "cycle_closure_flags"),
    ("synchk.lincheck", "check_cycle_pairs"),
    ("synchk.pairgraph", "synch_slow"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class Recorder:
    """Span store: name id, start and end (ns), parent span (-1 at the top)
    and the state count of an automaton first argument (-1 otherwise)."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.size = array("q")
        self._open = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends = self.name, self.start, self.end
        parents, sizes, open_ = self.parent, self.size, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1])
            sizes.append(getattr(args[0], "n", -1) if args else -1)
            ends.append(0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), size=np.asarray(self.size))


def install(recorder: Recorder) -> list:
    """Wrap every target that exists; return the span names installed."""
    installed = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "synchk" or name.startswith("synchk."))]
    for modname, attr in TARGETS:
        owner = sys.modules.get(modname)
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part, None)
        leaf = attr.rsplit(".", 1)[-1]
        orig = getattr(owner, leaf, None)
        if orig is None:
            continue
        name = span_name(modname, attr)
        traced = recorder.wrap(name, orig)
        setattr(owner, leaf, traced)
        if "." not in attr:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        installed.append(name)
    return installed


def load(path: str) -> dict:
    with np.load(path) as z:
        return {key: z[key] for key in z.files}


def layer_times(spans: dict) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    names = [str(x) for x in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    out = {}
    for nid, label in enumerate(names):
        mask = name == nid
        out[label] = {"calls": int(mask.sum()), "total_s": float(dur[mask].sum()),
                      "self_s": float(self_s[mask].sum())}
    return out
