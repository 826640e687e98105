"""Independent verdict checks: NumPy and SciPy only, no synchk code.

Every function takes a transition table as an ``(n, k)`` integer array, so
``table[q, a]`` is the successor of state ``q`` under letter ``a``.  Each
check either confirms a verdict with a certificate that can be verified
without trusting the search that produced it (a synchronizing word, a count
of sink components, a fibre-preserving pairing) or computes the verdict
from scratch (the pair-graph BFS for small automata).
"""
from __future__ import annotations

import numpy as np

# Pair states explored by one forward pair BFS before the search gives up.
# Merging a random pair of a random automaton needs about n pairs.
PAIR_BFS_BUDGET = 20_000_000
# States left when the greedy search stops adding random letters.
PREFIX_STOP = 6


def read_table(path) -> np.ndarray:
    """Read the text form 'n k' plus n rows of k successors ('#' comments)."""
    with open(path) as fh:
        text = fh.read()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = np.array(text.split(), dtype=np.int64)
    n, k = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if n < 1 or k < 1 or body.size != n * k:
        raise ValueError(f"{path}: expected {n} rows of {k} successors")
    if body.min() < 0 or body.max() >= n:
        raise ValueError(f"{path}: successor out of range")
    return body.reshape(n, k)


def write_table(path, table: np.ndarray) -> None:
    n, k = table.shape
    rows = "\n".join(" ".join(map(str, row)) for row in table.tolist())
    with open(path, "w") as fh:
        fh.write(f"{n} {k}\n{rows}\n")


# ---------------------------------------------------------------------------
# synchronizing words


def _letter_power(table, a, count, cache):
    """The map of letter a applied count times, by repeated squaring."""
    key = (a, count)
    if key not in cache:
        result = np.arange(table.shape[0])
        base = table[:, a].copy()
        c = count
        while c:
            if c & 1:
                result = base[result]
            base = base[base]
            c >>= 1
        cache[key] = result
    return cache[key]


def image_of_runs(table: np.ndarray, runs, states=None) -> np.ndarray:
    """Distinct states reached from ``states`` (default: all) by a word.

    The word is given as runs ``(letter, count)``; long runs are applied as
    one precomputed power of the letter's map.
    """
    cur = np.arange(table.shape[0]) if states is None else np.asarray(states)
    cache = {}
    for step, (a, count) in enumerate(runs):
        if count <= 8:
            for _ in range(count):
                cur = table[cur, a]
        else:
            cur = _letter_power(table, a, count, cache)[cur]
        if step % 32 == 31:
            cur = np.unique(cur)
    return np.unique(cur)


def word_runs(word):
    """Run-length form of a word given as a sequence of letters."""
    runs = []
    for a in word:
        a = int(a)
        if runs and runs[-1][0] == a:
            runs[-1][1] += 1
        else:
            runs.append([a, 1])
    return [tuple(r) for r in runs]


def confirms_sync_word(table: np.ndarray, word) -> bool:
    """True iff the word (a letter sequence) maps every state to one state."""
    return image_of_runs(table, word_runs(word)).size == 1


def _merge_word(table, p, q, budget):
    """Shortest word merging states p and q, by forward BFS over pairs."""
    n, k = table.shape
    lo, hi = min(p, q), max(p, q)
    seen = np.array([lo * n + hi], dtype=np.int64)  # sorted
    levels = []  # per level: (parent index into the previous level, letter)
    front = np.array([lo * n + hi], dtype=np.int64)
    explored = 1
    while front.size:
        fp, fq = front // n, front % n
        nxt_codes, nxt_par, nxt_let = [], [], []
        for a in range(k):
            ip, iq = table[fp, a], table[fq, a]
            hit = np.flatnonzero(ip == iq)
            if hit.size:
                word = [a]
                idx = int(hit[0])
                for par, let in reversed(levels):
                    word.append(int(let[idx]))
                    idx = int(par[idx])
                return word[::-1]
            nxt_codes.append(np.minimum(ip, iq) * n + np.maximum(ip, iq))
            nxt_par.append(np.arange(front.size))
            nxt_let.append(np.full(front.size, a))
        codes = np.concatenate(nxt_codes)
        codes, first = np.unique(codes, return_index=True)
        fresh = ~np.isin(codes, seen, assume_unique=True)
        codes, first = codes[fresh], first[fresh]
        seen = np.union1d(seen, codes)
        explored += codes.size
        if explored > budget:
            return None
        levels.append((np.concatenate(nxt_par)[first], np.concatenate(nxt_let)[first]))
        front = codes
    return None


def find_sync_word(table: np.ndarray, seed, budget: int = PAIR_BFS_BUDGET):
    """Greedy search for a synchronizing word, or None if none was found.

    A random prefix shrinks the image of the state set while that is cheap;
    a forward pair BFS then merges the remaining states two at a time.  The
    word is not short, but checking it is exact, so the search need only be
    fast.
    """
    n, k = table.shape
    rng = np.random.default_rng(seed)
    cur = np.arange(n)
    word = []
    stall = 0
    # Random walks from m states meet after about n / C(m, 2) letters, which
    # costs less than a pair BFS (about n pairs) until m is down to a few.
    while cur.size > PREFIX_STOP and stall < n:
        letters = rng.integers(0, k, size=32)
        before = cur.size
        for a in letters.tolist():
            cur = table[cur, a]
        cur = np.unique(cur)
        word.extend(letters.tolist())
        stall = stall + 32 if cur.size == before else 0
    while cur.size > 1:
        merge = _merge_word(table, int(cur[0]), int(cur[1]), budget)
        if merge is None:
            return None
        word.extend(merge)
        cur = image_of_runs(table, word_runs(merge), cur)
    return word


# ---------------------------------------------------------------------------
# negatives


def sink_component_count(table: np.ndarray) -> int:
    """Number of strongly connected components without outgoing edges.

    Two or more prove the automaton non-synchronizing: no word maps states
    of two different sinks to one state.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n, k = table.shape
    src = np.repeat(np.arange(n), k)
    dst = table.reshape(-1)
    graph = csr_matrix((np.ones(n * k, dtype=np.int8), (src, dst)), shape=(n, n))
    _, label = connected_components(graph, directed=True, connection="strong")
    ncomp = label.max() + 1
    leaves = np.ones(ncomp, dtype=bool)
    leaves[label[src][label[src] != label[dst]]] = False
    return int(leaves.sum())


def confirms_cover(table: np.ndarray, partner: np.ndarray) -> bool:
    """True iff ``partner`` pairs the states into fibres {q, partner[q]} that
    every letter maps onto fibres.  Such an automaton is not synchronizing:
    the two states of a fibre are never merged."""
    n = table.shape[0]
    q = np.arange(n)
    if np.any(partner == q) or np.any(partner[partner] != q):
        return False
    return bool(np.all(partner[table] == table[partner]))


# ---------------------------------------------------------------------------
# small automata: the pair graph in full


def pair_graph_verdicts(tables: np.ndarray) -> np.ndarray:
    """Synchronizing flags for a batch of automata of one size, shape (B, n, k).

    Level-synchronous BFS over the pair graph: a pair is mergeable iff it is
    diagonal or some letter maps it onto a mergeable pair.  Each sweep adds
    the next BFS level; automata whose level came up empty drop out.
    """
    nb, n, k = tables.shape
    hi, lo = np.tril_indices(n)  # pair {lo, hi} with lo <= hi at hi(hi+1)/2 + lo
    verdict = np.zeros(nb, dtype=bool)
    img = np.empty((nb, k, lo.size), dtype=np.int64)
    for a in range(k):
        ta = tables[:, :, a]
        x, y = ta[:, lo], ta[:, hi]
        small, big = np.minimum(x, y), np.maximum(x, y)
        img[:, a, :] = big * (big + 1) // 2 + small
    reached = np.broadcast_to(lo == hi, (nb, lo.size)).copy()
    live = np.arange(nb)
    while live.size:
        r = reached[live]
        new = r.copy()
        for a in range(k):
            new |= np.take_along_axis(r, img[live, a, :], axis=1)
        grew = (new != r).any(axis=1)
        reached[live] = new
        live = live[grew]
    verdict[:] = reached.all(axis=1)
    return verdict


# ---------------------------------------------------------------------------
# Cerny automata


def cerny_table(n: int) -> np.ndarray:
    """C_n: letter 0 rotates q -> q+1 mod n, letter 1 sends n-1 to 0 and
    fixes every other state.  Its shortest reset word has length (n-1)^2."""
    q = np.arange(n)
    b = q.copy()
    b[n - 1] = 0
    return np.stack([(q + 1) % n, b], axis=1)


def cerny_reset_runs(n: int):
    """The reset word (b a^{n-1})^{n-2} b of C_n as runs, a = 0, b = 1."""
    return [(1, 1), (0, n - 1)] * (n - 2) + [(1, 1)]
