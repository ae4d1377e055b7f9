"""Shared test utilities: an independent brute-force congestion oracle, the
small-graph corpus used by the coupling checks, the per-round push
reference and a planted generation failure."""
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

    def agents_at(u, t):
        return transcript.visits[t].get(u, [])

    def position_of(agent, t):
        for v, agents in transcript.visits[t].items():
            if agent in agents:
                return v
        raise AssertionError(f"agent {agent} missing at round {t}")

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
