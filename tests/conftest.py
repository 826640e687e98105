"""Shared fixtures and the acceptance-summary hook.

The acceptance tests record one PASS/FAIL line per criterion; printing them
from the terminal-summary hook keeps them visible under plain ``pytest -v``,
where passing tests swallow stdout.
"""
import pytest

from synchk.automaton import Automaton

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def cerny4():
    """4-state rotate/merge automaton: letter 0 rotates, letter 1 sends 0 to 1.

    Synchronizing, but slowly: the shortest synchronizing word has length 9.
    """
    return Automaton(4, 2, [(1, 1), (2, 1), (3, 2), (0, 3)])


@pytest.fixture
def parity4():
    """4-state synchronizing automaton the guard pipeline gives up on.

    Letter 0 swaps 0 with 1 and 2 with 3; letter 1 fixes 0, swaps 1 with 2
    and sends 3 to 2.  The shortest synchronizing word has length 5.  The
    only stable pair inside letter 1's one large cluster is (1, 3), which
    merges in one step, so it leaves that cluster's 2-cycle parity intact
    and the cluster-graph guard fails with CongruencesAllHold.
    """
    return Automaton(4, 2, [(1, 0), (0, 2), (3, 1), (2, 2)])


@pytest.fixture
def two_shifts():
    """Both letters rotate all 4 states: a permutation automaton, so no word
    ever shrinks the image set."""
    return Automaton(4, 2, [(1, 1), (2, 2), (3, 3), (0, 0)])


@pytest.fixture
def tall_branch_13():
    """13-state functional graph with a 5-cycle and a strictly tallest branch.

    Letter 0: cycle 0-1-2-3-4, trees hanging off states 1 and 2; the branch
    rooted at 10 reaches height 3, every other branch stops at 2.  Letter 1
    rotates all 13 states so the whole automaton is strongly connected.
    """
    f = [1, 2, 3, 4, 0, 1, 5, 5, 2, 0, 1, 10, 11]
    g = [(q + 1) % 13 for q in range(13)]
    return Automaton(13, 2, list(zip(f, g)))
