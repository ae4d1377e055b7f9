"""Pins the output of every protocol and of the coupled runs.

Each digest is a SHA-256 over everything a run reports: broadcast time,
rounds, both informing arrays, the meet-exchange trigger round, removal and
addition logs, recorded positions, and for coupled runs the whole JSON
transcript.  Any change to a run's random draws, its round semantics or what
it records changes a digest.  No shipped config or benchmark workload runs
t-, r- or shared walks, so these digests are their only pin.
"""
import hashlib
import math

import numpy as np
import pytest

import rumorwalks as rw
from rumorwalks import AgentConfig
from rumorwalks.rng import SimRng

CAP = 600


def _graphs():
    return [rw.generate_complete(2), rw.generate_cycle(8), rw.generate_star(16),
            rw.generate_heavy_binary_tree(15), rw.generate_double_star(8),
            rw.generate_random_regular(64, 8, seed=3)]


def _regular_graphs():
    return [rw.generate_complete(2), rw.generate_cycle(8), rw.generate_cycle(64),
            rw.generate_complete(6), rw.generate_random_regular(32, 4, seed=9)]


def _vertex_graphs():
    """K1, K2, stars, a double star, a heavy tree, a path (whose informed
    degree-1 end still has an uninformed neighbor), a cycle and random
    regular graphs: every mix of forced and drawn neighbor choices."""
    return [rw.Graph.from_edges(1, []), rw.generate_complete(2),
            rw.generate_star(16), rw.generate_star(300),
            rw.generate_double_star(16), rw.generate_heavy_binary_tree(31),
            rw.Graph.from_edges(12, [(i, i + 1) for i in range(11)]),
            rw.generate_cycle(9), rw.generate_random_regular(64, 8, seed=3),
            rw.generate_random_regular(128, 3, seed=5)]


def digest_vertex(run):
    """Runs from the center (vertex 0), the last vertex (a leaf of every
    leafy family) and one more vertex, three seeds each, with the default
    cap and with caps of 1 and 5 rounds, which most runs hit."""
    h = hashlib.sha256()
    k = 0
    for g in _vertex_graphs():
        for source in sorted({0, g.n - 1, (7 * k) % g.n}):
            for s in range(3):
                for cap in (None, 1, 5):
                    _feed_result(h, run(g, source, SimRng(7919 * k + s),
                                        round_cap=cap))
                    k += 1
    return h.hexdigest()


def _cases(graphs, counts=lambda n: (0, 1, n, 2 * n), lazies=(False, True)):
    """(graph, AgentConfig, seed, k) for every graph, agent count, laziness
    and two seeds; k counts the cases.  A count of n is placed one agent per
    vertex on its second seed."""
    k = 0
    for g in graphs:
        for count in counts(g.n):
            for lazy in lazies:
                for s in range(2):
                    placement = ("one-per-vertex" if count == g.n and s == 1
                                 else "stationary")
                    yield g, AgentConfig(count, placement, lazy), 7919 * k + s, k
                    k += 1


def _feed(h, x):
    if isinstance(x, np.ndarray):
        h.update(repr(x.shape).encode())
        h.update(x.astype("<i8").tobytes())
    else:
        h.update(repr(x).encode())


def _feed_result(h, res):
    tr = res.trace
    _feed(h, (res.broadcast_time, res.completion_kind, res.rounds, tr.rounds,
              tr.source_trigger_round, res.removal_log, res.addition_log))
    _feed(h, tr.vertex_informed_at)
    _feed(h, tr.agent_informed_at)
    for p in tr.positions or ():
        _feed(h, p)


def digest_visit():
    h = hashlib.sha256()
    for g, cfg, seed, k in _cases(_graphs()):
        _feed_result(h, rw.run_visit_exchange(
            g, k % g.n, cfg, SimRng(seed), round_cap=CAP,
            min_rounds=(0, 5, 40)[k % 3], record_positions=True))
    return h.hexdigest()


def digest_meet():
    h = hashlib.sha256()
    for g, cfg, seed, k in _cases(_graphs()):
        _feed_result(h, rw.run_meet_exchange(
            g, k % g.n, cfg, SimRng(seed), round_cap=CAP,
            record_positions=True))
    return h.hexdigest()


def digest_t_visit():
    h = hashlib.sha256()
    cases = _cases(_regular_graphs(), counts=lambda n: (0, 1, n, 2 * n, n // 8))
    for g, cfg, seed, k in cases:
        d = int(g.degrees[0])
        # the smallest legal gamma makes the cap bind whenever some
        # neighborhood holds a large share of the agents
        gamma = max(2 * math.e * cfg.count / g.n, 0.5) * (1.0, 1.5)[k % 2]
        _feed(h, d)
        _feed_result(h, rw.run_t_visit_exchange(
            g, k % g.n, cfg, gamma, SimRng(seed), round_cap=CAP,
            min_rounds=(0, 30)[k % 2]))
    return h.hexdigest()


def digest_r_visit():
    h = hashlib.sha256()
    cases = _cases(_regular_graphs(), counts=lambda n: (0, 1, n, 2 * n, n // 8))
    for g, cfg, seed, k in cases:
        floor = (None, 0.0, 1.5, 3.0)[k % 4]
        _feed_result(h, rw.run_r_visit_exchange(
            g, k % g.n, cfg, SimRng(seed), round_cap=CAP, floor=floor,
            min_rounds=(0, 30)[k % 2]))
    return h.hexdigest()


def digest_shared():
    h = hashlib.sha256()
    for g, cfg, seed, k in _cases(_graphs()):
        out = rw.run_shared_visit_meet(g, k % g.n, cfg, SimRng(seed),
                                       round_cap=CAP)
        _feed(h, out.visitx_agents_round)
        _feed_result(h, out.visitx)
        _feed_result(h, out.meetx)
    return h.hexdigest()


def digest_coupled(mode, r_floor=False):
    h = hashlib.sha256()
    graphs = _regular_graphs() if r_floor else _graphs()
    for g, cfg, seed, k in _cases(graphs, lazies=(False,)):
        if mode == "even":
            tr = rw.run_coupled_even(g, k % g.n, cfg, SimRng(seed),
                                     round_cap=CAP, min_rounds=(0, 12)[k % 2])
        else:
            tr = rw.run_coupled_odd(g, k % g.n, cfg, SimRng(seed),
                                    round_cap=CAP, min_rounds=(0, 12)[k % 2],
                                    enable_r_floor=r_floor,
                                    floor=(None, 2.0)[k % 2] if r_floor else None)
        h.update(rw.transcript_dumps(tr).encode())
    return h.hexdigest()


GOLDEN = {
    "push": (lambda: digest_vertex(rw.run_push),
        "ed8f9c4c3acfb676f298827263bbe95cdb7657905cec52e6c9fb93928e043534"),
    "push-pull": (lambda: digest_vertex(rw.run_push_pull),
        "51f2a6fb73f7ab2bdf1df272fb27f7b3adf5706803de1fe13ed1b3b0910a00e2"),
    "visit": (digest_visit,
        "c32f6b5e14ab00863ff55b3e6d385c2d4d50e4898b79588f7e7a92a029204618"),
    "meet": (digest_meet,
        "78ea071bd3888eeef11466542b96ee331a2c8bb7e91726bebbfc927f224a47cc"),
    "t-visit": (digest_t_visit,
        "b323be7062edda5bd55178514b9861ab0bcf054d0ff1e3502e0ac185a3741a0f"),
    "r-visit": (digest_r_visit,
        "51cff748c3c49167f992c5ec8c4040886cec1fa186468fb48b332d30b3c1ef4e"),
    "shared": (digest_shared,
        "d0e6e7b505f05463e231f783e9001027f9c1e56e3eda1e37a419ee9794b7cf34"),
    "coupled-even": (lambda: digest_coupled("even"),
        "d765d684f0f635aff4642b206939c638f37451b60679ec33983738b3365e93e0"),
    "coupled-odd": (lambda: digest_coupled("odd"),
        "c71e0fa611ad841058d78adc10bc726a5f3e0dabdfebd58a4d37074d5a8e7590"),
    "coupled-odd-floor": (lambda: digest_coupled("odd", r_floor=True),
        "9258beba9b4f6ea8af1120ec6534a79ba12e2f706835a6fc5db7188abb3e1ff3"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    fn, digest = GOLDEN[name]
    assert fn() == digest
