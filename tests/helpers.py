"""Shared test utilities: an independent brute-force congestion oracle, the
small-graph corpus used by the coupling checks, the per-round push,
push-pull and visit-exchange references (which keep ``np.unique`` and the
``indptr`` gathers), the stable-argsort stub-pairing reference, the per-vertex
choice-oracle reference and a planted generation failure."""
from __future__ import annotations

import numpy as np

import rumorwalks as rw
from rumorwalks import experiments


def brute_max_congestion(transcript, k: int) -> np.ndarray:
    """Enumerate every canonical walk of length k by depth-first search and
    return the per-(round, vertex) maximum congestion table.

    Deliberately independent of the production DP: walks are grown one step
    at a time (stay, or follow any agent leaving the current vertex) and the
    congestion is accumulated along the way.
    """
    g = transcript.graph
    best = np.full((k + 1, g.n), -1, dtype=np.int64)

    positions = transcript.positions

    def agents_at(u, t):
        return [g for g, v in enumerate(positions[t].tolist()) if v == u]

    def position_of(agent, t):
        v = int(positions[t, agent])
        if v == -1:
            raise AssertionError(f"agent {agent} missing at round {t}")
        return v

    def dfs(t, v, q):
        if q > best[t][v]:
            best[t][v] = q
        if t == k:
            return
        q_next = q + len(agents_at(v, t))
        dfs(t + 1, v, q_next)
        for agent in agents_at(v, t):
            dfs(t + 1, position_of(agent, t + 1), q_next)

    dfs(0, transcript.source, 0)
    return best


def coupling_corpus(trial: int) -> list:
    """The five-family corpus for coupling checks; the regular graph is
    resampled per trial, the rest are fixed."""
    return [
        rw.generate_complete(2),
        rw.generate_cycle(8),
        rw.generate_star(16),
        rw.generate_random_regular(64, 8, seed=rw.derive_seed(0xC0FFEE, trial)),
        rw.generate_heavy_binary_tree(15),
    ]


def small_instance_graphs():
    """Connected graphs with n <= 6 for the exhaustive DP cross-check."""
    return [
        rw.generate_complete(2),
        rw.generate_complete(3),
        rw.generate_complete(4),
        rw.generate_complete(5),
        rw.generate_complete(6),
        rw.generate_cycle(3),
        rw.generate_cycle(4),
        rw.generate_cycle(5),
        rw.generate_cycle(6),
        rw.generate_star(2),
        rw.generate_star(3),
        rw.generate_star(4),
        rw.generate_star(5),
        rw.generate_double_star(4),
        rw.generate_double_star(6),
        rw.generate_clique_path(2, 2),
        rw.generate_clique_path(2, 3),
        rw.generate_clique_path(3, 2),
        rw.generate_random_regular(6, 3, seed=11),
        rw.generate_random_regular(4, 2, seed=12),
        rw.generate_random_regular(6, 2, seed=13),
    ]


def push_per_round(graph, source: int, rng, round_cap=None):
    """Reference push: the round loop of ``run_push`` before it took rounds
    in blocks, one ``_draw_neighbors`` call per round.

    Returns ``(vertex_informed_at, rounds)``.
    """
    from rumorwalks.protocols import _draw_neighbors

    n = graph.n
    cap = rw.default_round_cap(n) if round_cap is None else int(round_cap)
    gen = rng.stream("push")
    indptr, degrees = graph.indptr, graph.degrees
    informed_at = np.full(n, -1, dtype=np.int64)
    informed_at[source] = 0
    starts, degs = indptr[[source]], degrees[[source]]
    forced = starts[:0]
    if degs[0] == 1:
        starts, degs, forced = forced, forced, graph.indices[starts]
    leafy = graph.distinct_degrees[0] == 1
    count, t = 1, 0
    while count < n and t < cap:
        t += 1
        targets = _draw_neighbors(graph, gen, starts, degs)
        if forced.size:
            targets = np.concatenate([targets, forced])
        fresh = targets[informed_at[targets] == -1]
        if fresh.size > 1:
            fresh = np.unique(fresh)
        forced = fresh[:0]
        if fresh.size:
            informed_at[fresh] = t
            count += fresh.size
            fdeg = degrees[fresh]
            if leafy:
                lone = fdeg == 1
                forced = graph.indices[indptr[fresh[lone]]]
                fresh, fdeg = fresh[~lone], fdeg[~lone]
            starts = np.concatenate([starts, indptr[fresh]])
            degs = np.concatenate([degs, fdeg])
    return informed_at, t


def push_pull_per_round(graph, source: int, rng, round_cap=None):
    """Reference push-pull: the round loop of ``run_push_pull`` with
    ``np.unique`` of each round's fresh vertices.

    Returns ``(vertex_informed_at, rounds)``.
    """
    n = graph.n
    cap = rw.default_round_cap(n) if round_cap is None else int(round_cap)
    gen = rng.stream("pushpull")
    informed_at = np.full(n, -1, dtype=np.int64)
    informed_at[source] = 0
    count, t = 1, 0
    while count < n and t < cap:
        t += 1
        targets = graph.indices[graph.indptr[:-1]
                                + gen.integers(0, graph.degrees)]
        was = informed_at >= 0
        pushed = targets[was]
        pushed = pushed[informed_at[pushed] == -1]
        pulled = np.nonzero(~was & was[targets])[0]
        fresh = np.unique(np.concatenate([pushed, pulled]))
        informed_at[fresh] = t
        count += fresh.size
    return informed_at, t


def visit_exchange_per_round(graph, source: int, count: int, rng,
                             lazy=False, round_cap=None):
    """Reference visit-exchange with stationary placement: positions by a
    ``searchsorted`` on the cumulative degrees, each step one array-bounded
    ``integers`` call from the ``indptr`` row starts, the lazy coin from
    ``random() < 0.5``, and ``np.unique`` of each round's fresh vertices.

    Returns ``(vertex_informed_at, agent_informed_at, rounds)``.
    """
    n = graph.n
    cap = rw.default_round_cap(n) if round_cap is None else int(round_cap)
    draws = rng.stream("placement").integers(0, 2 * graph.m, size=count)
    pos = np.searchsorted(graph.cumulative_degrees, draws, side="right")
    walk_gen, lazy_gen = rng.stream("walks"), rng.stream("lazy")
    v_inf = np.full(n, -1, dtype=np.int64)
    v_inf[source] = 0
    a_inf = np.full(count, -1, dtype=np.int64)
    a_inf[pos == source] = 0
    t = 0
    while (v_inf == -1).any() and t < cap:
        t += 1
        if count:
            new = graph.indices[graph.indptr[pos]
                                + walk_gen.integers(0, graph.degrees[pos])]
            if lazy:
                new = np.where(lazy_gen.random(count) < 0.5, pos, new)
            pos = new
        landed = pos[a_inf != -1]
        v_inf[np.unique(landed[v_inf[landed] == -1])] = t
        a_inf[(a_inf == -1) & (v_inf[pos] != -1)] = t
    return v_inf, a_inf, t


def _reference_known(edge_keys, keys):
    return edge_keys[np.searchsorted(edge_keys, keys)] == keys


def _reference_suitable(stubs, edge_keys, n):
    if stubs.size == 0:
        return True
    vals = np.unique(stubs)
    a, b = np.triu_indices(vals.shape[0], k=1)
    return not _reference_known(edge_keys, vals[a] * n + vals[b]).all()


def _reference_pairing_attempt(n, d, gen):
    """One stub-matching pass as ``graphs._pairing_attempt`` did it before
    the packed-key sort: a stable argsort of every round's keys, and each
    round's new edges inserted into one sorted array."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    edge_keys = np.array([n * n], dtype=np.int64)  # sentinel
    while stubs.size:
        gen.shuffle(stubs)
        a = stubs[0::2]
        b = stubs[1::2]
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        keep = np.empty(sk.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(sk[1:], sk[:-1], out=keep[1:])
        keep &= (a != b)[order]
        keep &= ~_reference_known(edge_keys, sk)
        if keep.any():
            new = sk[keep]
            edge_keys = np.insert(edge_keys, np.searchsorted(edge_keys, new),
                                  new)
            good = np.empty_like(keep)
            good[order] = keep
            stubs = np.concatenate([a[~good], b[~good]])
        elif not _reference_suitable(stubs, edge_keys, n):
            return None
    return edge_keys[:-1]


def reference_random_regular(n, d, seed, max_restarts=1000):
    """``generate_random_regular`` on the reference pairing, with
    connectivity from scipy's ``connected_components``; returns the graph,
    or None after ``max_restarts`` failed passes."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    gen = np.random.Generator(np.random.PCG64(seed))
    for _ in range(max_restarts):
        keys = _reference_pairing_attempt(n, d, gen)
        if keys is None:
            continue
        u, v = keys // n, keys % n
        order = np.lexsort((np.r_[v, u], np.r_[u, v]))
        rows, cols = np.r_[u, v][order], np.r_[v, u][order]
        indptr = np.searchsorted(rows, np.arange(n + 1))
        adj = csr_matrix((np.ones(cols.shape[0]), cols, indptr), shape=(n, n))
        if connected_components(adj, directed=False,
                                return_labels=False) == 1:
            return rw.Graph(n, indptr, cols)
    return None


def fail_generation(monkeypatch, cfg, size: int, trial: int) -> None:
    """Make the graph generation of one trial of a random-family sweep fail
    (in this process: run the sweep with ``jobs = 1``)."""
    real = experiments.build_graph
    doomed = rw.derive_seed(cfg.seed, "graph", cfg.family, size, trial)

    def failing(family, size, d_spec, seed):
        if seed == doomed:
            raise rw.GenerationFailureError("planted failure")
        return real(family, size, d_spec, seed)

    monkeypatch.setattr(experiments, "build_graph", failing)


class ReferenceOracle:
    """``ChoiceOracle`` as it was before the bulk seeding: each vertex's
    ``PCG64(derive_seed(seed, "vertex", u))`` is built on its first refill,
    and every refill of a row of degree above 1 is one ``integers`` call on
    it; a degree-1 row repeats its lone neighbor."""

    _BLOCK = 32

    def __init__(self, graph, seed: int):
        self.graph = graph
        self.seed = int(seed)
        self._rows: dict = {}                  # vertex -> list of entries
        self._requested = np.zeros(graph.n, dtype=np.int64)
        self._gens: dict = {}

    def choice(self, u: int, i: int) -> int:
        return int(self.take([u], [i])[0])

    def take(self, us, idx) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        if us.size and (us.min() < 0 or us.max() >= self.graph.n):
            raise rw.InvalidParameterError("vertex out of range")
        if (idx < 1).any():
            raise rw.InvalidParameterError("choice index is 1-based")
        if (self.graph.degrees[us] < 1).any():
            raise rw.InvalidParameterError("isolated vertex")
        out = []
        for u, i in zip(us.tolist(), idx.tolist()):
            row = self._rows.setdefault(u, [])
            if i > len(row):
                self._refill(u, row, max(i, 2 * len(row), self._BLOCK))
            out.append(row[i - 1])
        np.maximum.at(self._requested, us, idx)
        return np.array(out, dtype=np.int64)

    def _refill(self, u: int, row: list, size: int) -> None:
        nbrs = self.graph.neighbors(u)
        if nbrs.shape[0] == 1:
            row += [int(nbrs[0])] * (size - len(row))
            return
        if u not in self._gens:
            self._gens[u] = np.random.Generator(np.random.PCG64(
                rw.derive_seed(self.seed, "vertex", u)))
        row += nbrs[self._gens[u].integers(0, nbrs.shape[0],
                                           size=size - len(row))].tolist()

    def materialized_lists(self) -> dict:
        return {u: self._rows[u][:int(self._requested[u])]
                for u in np.flatnonzero(self._requested).tolist()}
