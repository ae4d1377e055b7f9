"""Round semantics of the four protocols and the two capped/replenished
variants, checked against hand traces, closed forms, and re-simulation."""
import functools
import math
import sys

import numpy as np
import pytest
from scipy import stats

import rumorwalks as rw
from rumorwalks import (AgentConfig, Graph, InvalidParameterError, graphs,
                        protocols)
from rumorwalks.protocols import default_round_cap, place_agents
from rumorwalks.rng import Draws, SimRng

from helpers import (push_per_round, push_pull_per_round,
                     visit_exchange_per_round)


def k2():
    """The complete graph on two vertices, built where a test needs it."""
    return rw.generate_complete(2)


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _star_tail(k):
    """A star with center 0 and leaves 1..k, and one more vertex hung on
    leaf k."""
    return Graph.from_edges(k + 2, [(0, i) for i in range(1, k + 1)]
                            + [(k, k + 1)])


# the bounds of the next draws read from a stream to compare where two
# runs left it, with 2**31 + 1, which rejects nearly half of the halves
NEXT_BOUNDS = [2, 3, 7, 1000, 2 ** 31 - 1, 2 ** 31 + 1, 2 ** 32 - 1,
               2 ** 32] * 8


def assert_same_place(got_rng, want_rng, label):
    """``got_rng``'s ``Draws`` reader of stream ``label`` stands where
    ``want_rng``'s numpy generator does: it has the same next draws."""
    assert got_rng.draws(label).integers(NEXT_BOUNDS).tolist() == \
        want_rng.stream(label).integers(0, NEXT_BOUNDS).tolist(), label


# placement seeds located by direct search (stationary draws are seeded,
# so these are stable): see the corresponding asserts below
SEED_ONE_AGENT_AT_0 = 1
SEED_ONE_AGENT_AT_1 = 0
SEED_TWO_AGENTS_AT_0 = 4
SEED_S4_MIXED_PHASES = 0


def test_default_round_cap():
    assert default_round_cap(2) == max(64, 64 * 2 * 1)
    assert default_round_cap(1024) == 64 * 1024 * 10


class TestAgentConfigAndPlacement:
    def test_one_per_vertex_identity(self):
        g = rw.generate_cycle(6)
        pos = place_agents(g, AgentConfig(count=6, placement="one-per-vertex"),
                           SimRng(3))
        assert np.array_equal(pos, np.arange(6))

    def test_one_per_vertex_count_mismatch(self):
        with pytest.raises(InvalidParameterError):
            place_agents(rw.generate_cycle(6),
                         AgentConfig(count=5, placement="one-per-vertex"),
                         SimRng(3))

    def test_bad_config(self):
        for count in (-1, 2 ** 63, 2 ** 70):
            with pytest.raises(InvalidParameterError):
                AgentConfig(count=count)
        with pytest.raises(InvalidParameterError):
            AgentConfig(count=3, placement="everywhere")

    def test_non_integer_count(self):
        # refused with the setting's name, not at placement by numpy
        with pytest.raises(InvalidParameterError,
                           match="^agent count must be an integer, got 2.5$"):
            AgentConfig(2.5)
        assert AgentConfig(np.int64(3)).count == 3

    def test_stationary_star_center(self):
        g = rw.generate_star(4)
        rng = SimRng(10)
        pos = place_agents(g, AgentConfig(count=100_000), rng)
        frac = np.mean(pos == 0)
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 100_000)

    def test_placement_seeds_hold(self):
        assert place_agents(k2(), AgentConfig(count=1),
                            SimRng(SEED_ONE_AGENT_AT_0))[0] == 0
        assert place_agents(k2(), AgentConfig(count=1),
                            SimRng(SEED_ONE_AGENT_AT_1))[0] == 1
        assert np.array_equal(
            place_agents(k2(), AgentConfig(count=2),
                         SimRng(SEED_TWO_AGENTS_AT_0)), [0, 0])


class TestPush:
    @pytest.mark.parametrize("seed", range(5))
    def test_k2_always_one_round(self, seed):
        res = rw.run_push(k2(), 0, SimRng(seed))
        assert res.broadcast_time == 1

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        assert rw.run_push(g, 0, SimRng(0)).broadcast_time == 0

    def test_source_informed_at_zero(self):
        res = rw.run_push(rw.generate_cycle(5), 3, SimRng(2))
        assert res.trace.vertex_informed_at[3] == 0
        assert res.broadcast_time == max(res.trace.vertex_informed_at)

    def test_star_coupon_collector_mean(self):
        # center source: one uniform leaf draw per round, so completion is
        # exactly the n-coupon collection time with mean n*H_n
        n = 256
        g = rw.generate_star(n)
        times = [rw.run_push(g, 0, SimRng(rw.derive_seed(100, i))).broadcast_time
                 for i in range(300)]
        expected = n * sum(1 / k for k in range(1, n + 1))
        assert abs(np.mean(times) / expected - 1) < 0.05

    def test_non_integer_source_and_round_cap(self):
        # refused, not truncated to vertex 1 and 2 rounds
        g = rw.generate_cycle(8)
        with pytest.raises(InvalidParameterError,
                           match="^source must be an integer, got 1.5$"):
            rw.run_push(g, 1.5, SimRng(1), round_cap=2.7)
        with pytest.raises(InvalidParameterError,
                           match="^round_cap must be an integer, got 2.7$"):
            rw.run_push(g, 1, SimRng(1), round_cap=2.7)

    def test_bool_source(self):
        # True is not vertex 1
        with pytest.raises(InvalidParameterError,
                           match="^source must be an integer, got True$"):
            rw.run_push(rw.generate_cycle(8), True, SimRng(1))

    def test_source_out_of_range(self):
        with pytest.raises(InvalidParameterError,
                           match="^source 8 out of range for n=8$"):
            rw.run_push(rw.generate_cycle(8), 8, SimRng(1))

    def test_incomplete_on_tiny_cap(self):
        res = rw.run_push(rw.generate_cycle(64), 0, SimRng(1), round_cap=3)
        assert not res.complete
        assert res.broadcast_time is None
        assert res.rounds == 3


class TestPushBlocks:
    """``run_push`` runs calm stretches in blocks of rounds from draws read
    ahead; it must give what the per-round loop gives, and leave the
    ``push`` stream where that loop leaves it."""

    CASES = [  # graphs are built in the test, so a broken one fails its case
        ("star-center", lambda: rw.generate_star(1000), 0, True),
        ("star-leaf", lambda: rw.generate_star(1000), 1000, True),
        ("star-small", lambda: rw.generate_star(5), 0, True),
        ("double-star-center", lambda: rw.generate_double_star(64), 0, True),
        ("double-star-leaf", lambda: rw.generate_double_star(64), 63, True),
        ("path-end", lambda: _path(40), 0, True),
        ("path-middle", lambda: _path(40), 20, True),
        # mixed drawing degrees: a block may run while the sampling vertices
        # share one (200 for the star's center, before its tail is reached)
        ("heavy-tree", lambda: rw.generate_heavy_binary_tree(63), 0, None),
        ("star-tail", lambda: _star_tail(200), 0, True),
        ("regular", lambda: rw.generate_random_regular(256, 8, seed=3), 0,
         None),
        ("regular-sparse", lambda: rw.generate_random_regular(64, 3, seed=4),
         5, None),
    ]

    @pytest.mark.parametrize("name,build,source,blocky", CASES,
                             ids=[c[0] for c in CASES])
    def test_matches_per_round_loop(self, monkeypatch, name, build, source,
                                    blocky):
        graph = build()
        blocks = []
        real = Draws.bounded

        def counting(reader, bound, count):  # the blocks run_push draws
            if sys._getframe(1).f_code.co_name == "run_push":
                blocks.append(count)
            return real(reader, bound, count)

        monkeypatch.setattr(Draws, "bounded", counting)
        trials = 3 if graph.n > 500 else 12
        for seed in range(trials):
            full = push_per_round(graph, source, SimRng(seed))[1]
            # caps that land inside the run, and so inside its blocks
            caps = [None, 1, 5, full // 3 + 1, full // 2 + 7, full - 1, full]
            for cap in caps:
                want_rng, got_rng = SimRng(seed), SimRng(seed)
                want, rounds = push_per_round(graph, source, want_rng, cap)
                got = rw.run_push(graph, source, got_rng, cap)
                assert got.rounds == rounds, (seed, cap)
                assert np.array_equal(got.trace.vertex_informed_at, want), \
                    (seed, cap)
                complete = bool((want >= 0).all())
                assert got.broadcast_time == (int(want.max()) if complete
                                              else None)
                assert_same_place(got_rng, want_rng, "push")
        # stars, paths and the star with a tail do run blocks; a regular
        # graph or the heavy tree adds drawing rows nearly every round, so
        # it rarely does
        if blocky is not None:
            assert bool(blocks) == blocky


class TestNeighborStreams:
    """Every neighbor draw of the walks, push and push-pull streams goes
    through the stream's ``Draws`` reader, whatever the graph's degrees,
    and no numpy generator reads those streams."""

    RUNS = {
        "push": lambda g, rng: rw.run_push(g, 0, rng),
        "push-pull": lambda g, rng: rw.run_push_pull(g, 0, rng),
        "visit-exchange":
            lambda g, rng: rw.run_visit_exchange(g, 0, AgentConfig(g.n), rng),
        "meet-exchange": lambda g, rng: rw.run_meet_exchange(
            g, 0, AgentConfig(g.n, lazy=True), rng, round_cap=200),
    }
    LABELS = {"push": "push", "push-pull": "pushpull",
              "visit-exchange": "walks", "meet-exchange": "walks"}

    def _run(self, monkeypatch, graph, protocol, check=None) -> None:
        """Run ``protocol`` on ``graph``, asserting that every
        ``_draw_neighbors`` call reads the stream's reader and that no
        numpy generator is made for it; ``check(graph, gen, starts, degs,
        got)`` sees each call."""
        label, real = self.LABELS[protocol], protocols._draw_neighbors
        rng, calls = SimRng(1), []
        stream = rng.stream

        def refuse(*labels):
            assert labels != (label,), f"a generator was made for {labels}"
            return stream(*labels)

        def recording(graph, gen, starts, degs):
            assert gen is rng.draws(label)
            got = real(graph, gen, starts, degs)
            if check is not None:
                check(graph, gen, starts, degs, got)
            calls.append(gen)
            return got

        monkeypatch.setattr(rng, "stream", refuse)
        monkeypatch.setattr(protocols, "_draw_neighbors", recording)
        self.RUNS[protocol](graph, rng)
        assert calls

    @pytest.mark.parametrize("protocol", RUNS)
    @pytest.mark.parametrize("build", [
        lambda: rw.generate_random_regular(256, 8, seed=3),
        lambda: rw.generate_star(300), lambda: rw.generate_double_star(128),
    ], ids=["regular", "star", "double-star"])
    def test_one_degree_calls_numpy(self, monkeypatch, build, protocol):
        # where the drawing rows share one degree d, each call draws what
        # numpy's scalar-bound call integers(0, d, size=k) draws on a
        # generator of the same stream (push's blocks draw between its
        # calls: TestPushBlocks checks push against numpy round by round)
        twin = SimRng(1).stream(self.LABELS[protocol])

        def check(graph, gen, starts, degs, got):
            d = int(graph.distinct_degrees[-1])
            row = np.arange(starts.shape[0]) if degs is None \
                else np.flatnonzero(degs > 1)
            want = graph.indices[starts]
            want[row] = graph.indices[starts[row] + twin.integers(
                0, d, size=row.shape[0])]
            assert np.array_equal(got, want)

        self._run(monkeypatch, build(), protocol,
                  None if protocol == "push" else check)

    @pytest.mark.parametrize("protocol", RUNS)
    @pytest.mark.parametrize("build", [
        lambda: rw.generate_heavy_binary_tree(63),
        lambda: rw.generate_siamese_trees(63),
        lambda: rw.generate_cycle_stars_cliques(4),
    ], ids=["heavy-tree", "siamese", "cycle-stars-cliques"])
    def test_mixed_degrees_use_the_reader(self, monkeypatch, build,
                                          protocol):
        self._run(monkeypatch, build(), protocol)


class TestLazyStream:
    """Only a lazy walk reads the ``lazy`` stream, and only it opens one."""

    @pytest.mark.parametrize("lazy", [False, True])
    def test_opened_by_lazy_runs_only(self, lazy):
        g, rng = rw.generate_cycle(8), SimRng(1)
        rw.run_visit_exchange(g, 0, AgentConfig(8, lazy=lazy), rng)
        assert (("lazy",) in rng._streams) == lazy

    def test_coupled_run_opens_none(self):
        rng = SimRng(1)
        rw.run_coupled_even(rw.generate_cycle(8), 0, AgentConfig(8), rng)
        assert ("lazy",) not in rng._streams


class TestDistinct:
    """``graphs._distinct`` gives what ``np.unique`` gives."""

    I64 = np.iinfo(np.int64)

    @pytest.mark.parametrize("values", [
        [], [7], [3] * 9, [I64.max, I64.min, 0, I64.max, I64.min, -1],
    ], ids=["empty", "single", "all-equal", "extremes"])
    def test_edge_cases(self, values):
        x = np.array(values, dtype=np.int64)
        got, want = graphs._distinct(x), np.unique(x)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(20))
    def test_random(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.integers(0, 1 + gen.integers(1, 2 ** 16),
                         size=gen.integers(0, 2 ** 15 + 1))
        assert np.array_equal(graphs._distinct(x), np.unique(x))


class TestRegularPlacement:
    """On a regular graph stationary placement is ``draws // d``; it must
    equal the ``searchsorted`` on the cumulative degrees."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_searchsorted(self, seed):
        g = rw.generate_random_regular(256 + seed, 6 + seed % 3 * 2, seed)
        got = rw.place_stationary(g, np.random.default_rng(seed), 5000)
        draws = np.random.default_rng(seed).integers(0, 2 * g.m, size=5000)
        want = np.searchsorted(np.cumsum(g.degrees), draws, side="right")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_builds_no_slot_table(self):
        g = rw.generate_random_regular(64, 4, seed=1)
        rw.place_stationary(g, np.random.default_rng(0), 100)
        assert g._slot_owners is None


class TestStationaryPlacement:
    """On a non-regular graph stationary placement reads the slot table,
    the vertex of each directed-edge slot; it must equal the
    ``searchsorted`` on the cumulative degrees, draw for draw."""

    FAMILIES = {
        "star": lambda: rw.generate_star(999),
        "double-star": lambda: rw.generate_double_star(1000),
        "heavy-tree": lambda: rw.generate_heavy_binary_tree(1023),
        "siamese": lambda: rw.generate_siamese_trees(1023),
        "cycle-stars-cliques": lambda: rw.generate_cycle_stars_cliques(12),
        "clique-path": lambda: rw.generate_clique_path(20, 5),
    }

    @pytest.mark.parametrize("count", [0, 1, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_searchsorted(self, family, seed, count):
        g = self.FAMILIES[family]()
        assert not g.is_regular
        got = rw.place_stationary(g, np.random.default_rng(seed), count)
        draws = np.random.default_rng(seed).integers(0, 2 * g.m, size=count)
        want = np.searchsorted(np.cumsum(g.degrees), draws, side="right")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_table_built_once_and_read_only(self):
        g = rw.generate_heavy_binary_tree(63)
        assert g._slot_owners is None  # not built with the graph
        rw.place_stationary(g, np.random.default_rng(0), 10)
        table = g._slot_owners
        assert table.shape == (2 * g.m,) and table.dtype == np.int64
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
        rw.place_stationary(g, np.random.default_rng(1), 10)
        assert g._slot_owners is table

    def test_edge_queries_cache_no_table(self):
        # edges() and has_edges() build the table for the call only; the
        # first placement caches it, and they read it from then on
        g = rw.generate_heavy_binary_tree(63)
        want = g.edges()
        assert g.has_edges(want[:, 0], want[:, 1]).all()
        assert g._slot_owners is None
        rw.place_stationary(g, np.random.default_rng(0), 10)
        table = g._slot_owners
        assert table is not None
        assert np.array_equal(g.edges(), want)
        assert g.has_edges(want[:, 1], want[:, 0]).all()
        assert g._slot_owners is table

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        got = rw.place_stationary(g, np.random.default_rng(0), 7)
        assert got.dtype == np.int64 and not got.any() and got.shape == (7,)
        assert g._slot_owners is None


class TestAgainstPerRoundReferences:
    """Push, push-pull and visit-exchange against per-round loops that keep
    ``np.unique``, the ``indptr`` gathers, the ``searchsorted`` placement
    and the ``random()`` lazy coin (``helpers``), on graphs large enough
    for rounds to inform thousands of vertices at once."""

    GRAPHS = {  # each built on first use, in a test
        "regular": lambda: rw.generate_random_regular(1024, 10, seed=5),
        "star": lambda: rw.generate_star(1999),
        "heavy-tree": lambda: rw.generate_heavy_binary_tree(1023),
        "double-star": lambda: rw.generate_double_star(2000),
    }

    @classmethod
    @functools.cache
    def graph(cls, name):
        return cls.GRAPHS[name]()

    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("seed", range(3))
    def test_push(self, name, seed):
        g = self.graph(name)
        want, rounds = push_per_round(g, 0, SimRng(seed))
        got = rw.run_push(g, 0, SimRng(seed))
        assert got.rounds == rounds
        assert np.array_equal(got.trace.vertex_informed_at, want)

    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("seed", range(3))
    def test_push_pull(self, name, seed):
        g = self.graph(name)
        want_rng, got_rng = SimRng(seed), SimRng(seed)
        want, rounds = push_pull_per_round(g, 1, want_rng)
        got = rw.run_push_pull(g, 1, got_rng)
        assert got.rounds == rounds
        assert np.array_equal(got.trace.vertex_informed_at, want)
        assert_same_place(got_rng, want_rng, "pushpull")

    @pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("seed", range(3))
    def test_visit_exchange(self, name, seed, lazy):
        g = self.graph(name)
        want_rng, got_rng = SimRng(seed), SimRng(seed)
        v_want, a_want, rounds = visit_exchange_per_round(
            g, 0, g.n, want_rng, lazy)
        got = rw.run_visit_exchange(g, 0, AgentConfig(g.n, lazy=lazy),
                                    got_rng)
        assert got.rounds == rounds
        assert np.array_equal(got.trace.vertex_informed_at, v_want)
        assert np.array_equal(got.trace.agent_informed_at, a_want)
        for label in ("placement", "lazy"):
            assert got_rng.stream(label).bit_generator.state == \
                want_rng.stream(label).bit_generator.state, label
        assert_same_place(got_rng, want_rng, "walks")

    @pytest.mark.parametrize("name", ["heavy-tree", "siamese",
                                      "cycle-stars-cliques"])
    def test_exact_loop_every_round(self, monkeypatch, name):
        # a top degree of 2**32 fails the one-pass check of every round, so
        # every round is drawn again by the exact loop, which reads its
        # halves once more (a second _ahead call) and finds no rejection
        g = {"heavy-tree": lambda: self.graph("heavy-tree"),
             "siamese": lambda: rw.generate_siamese_trees(511),
             "cycle-stars-cliques": lambda: rw.generate_cycle_stars_cliques(8),
             }[name]()
        exact, ahead = Draws.integers, Draws._ahead
        calls = {"integers": 0, "ahead": 0}

        def forced(reader, bounds, top):
            assert top == g.distinct_degrees[-1]
            calls["integers"] += 1
            return exact(reader, bounds, 2 ** 32)

        def counted(reader, need):
            calls["ahead"] += 1
            return ahead(reader, need)

        monkeypatch.setattr(Draws, "integers", forced)
        monkeypatch.setattr(Draws, "_ahead", counted)
        for seed in range(2):
            want_rng, got_rng = SimRng(seed), SimRng(seed)
            v_want, a_want, rounds = visit_exchange_per_round(
                g, 0, g.n, want_rng)
            got = rw.run_visit_exchange(g, 0, AgentConfig(g.n), got_rng)
            assert got.rounds == rounds
            assert np.array_equal(got.trace.vertex_informed_at, v_want)
            assert np.array_equal(got.trace.agent_informed_at, a_want)
            want, rounds = push_per_round(g, 0, SimRng(seed))
            got = rw.run_push(g, 0, SimRng(seed))
            assert got.rounds == rounds
            assert np.array_equal(got.trace.vertex_informed_at, want)
        assert calls["ahead"] >= 2 * calls["integers"] > 0


class TestPushPull:
    @pytest.mark.parametrize("seed", range(5))
    def test_k2(self, seed):
        assert rw.run_push_pull(k2(), 1, SimRng(seed)).broadcast_time == 1

    @pytest.mark.parametrize("source", [0, 5])
    def test_star_at_most_two(self, source):
        g = rw.generate_star(32)
        for i in range(40):
            res = rw.run_push_pull(g, source, SimRng(rw.derive_seed(101, i)))
            assert res.broadcast_time <= 2

    def test_double_star_slow(self):
        # the cross edge is found by sampling among n/2 neighbors, so the
        # expected crossing round is ~n/4 >> n/10
        n = 128
        g = rw.generate_double_star(n)
        times = [rw.run_push_pull(g, 0, SimRng(rw.derive_seed(102, i))).broadcast_time
                 for i in range(40)]
        assert np.mean(times) >= n / 10

    def test_no_within_round_chaining(self):
        # on a path a-b-c with source a, vertex c can never be informed in
        # round 1 (b is informed only during round 1)
        g = rw.generate_double_star(4)  # path 2-0-1-3
        for i in range(60):
            res = rw.run_push_pull(g, 2, SimRng(i))
            t = res.trace.vertex_informed_at
            assert t[3] > t[1] >= 1


class TestVisitExchange:
    def test_k2_agent_at_each_vertex(self):
        res = rw.run_visit_exchange(
            k2(), 0, AgentConfig(count=2, placement="one-per-vertex"), SimRng(0))
        assert res.broadcast_time == 1
        assert list(res.trace.agent_informed_at) == [0, 1]
        assert res.completion_kind == "all-vertices"

    def test_k2_single_agent_at_source(self):
        res = rw.run_visit_exchange(k2(), 0, AgentConfig(count=1),
                                    SimRng(SEED_ONE_AGENT_AT_0))
        assert res.broadcast_time == 1

    def test_k2_single_agent_opposite(self):
        # agent must first walk onto the source, then carry the rumor back
        res = rw.run_visit_exchange(k2(), 0, AgentConfig(count=1),
                                    SimRng(SEED_ONE_AGENT_AT_1))
        assert res.broadcast_time == 2
        assert res.trace.agent_informed_at[0] == 1

    def test_zero_agents_never_completes(self):
        res = rw.run_visit_exchange(rw.generate_cycle(4), 0,
                                    AgentConfig(count=0), SimRng(1),
                                    round_cap=50)
        assert not res.complete

    def test_agents_informed_by_completion(self):
        for i in range(20):
            res = rw.run_visit_exchange(rw.generate_double_star(16), 0,
                                        AgentConfig(count=16),
                                        SimRng(rw.derive_seed(103, i)))
            assert res.complete
            assert res.trace.agent_informed_at.min() >= 0
            assert res.trace.agent_informed_at.max() <= res.broadcast_time
            assert res.trace.vertex_informed_at.max() == res.broadcast_time

    def test_informing_requires_prior_round_agent(self):
        # re-simulate from positions: every newly informed vertex must host
        # an agent informed in an earlier round; every newly informed agent
        # must stand on a vertex informed no later than that round
        g = rw.generate_cycle(8)
        res = rw.run_visit_exchange(g, 0, AgentConfig(count=8), SimRng(42),
                                    record_positions=True)
        tv = res.trace.vertex_informed_at
        ta = res.trace.agent_informed_at
        pos = res.trace.positions
        for t in range(1, res.rounds + 1):
            for u in np.flatnonzero(tv == t):
                here = np.flatnonzero(pos[t] == u)
                assert any(0 <= ta[a] < t for a in here), (t, u)
        for a in range(8):
            t = ta[a]
            if t > 0:
                assert tv[pos[t][a]] <= t

    def test_min_rounds_keeps_running(self):
        res = rw.run_visit_exchange(k2(), 0,
                                    AgentConfig(count=2, placement="one-per-vertex"),
                                    SimRng(0), min_rounds=9)
        assert res.rounds >= 9
        assert res.broadcast_time == 1

    @pytest.mark.parametrize("run", [
        lambda **kw: rw.run_visit_exchange(**kw),
        lambda **kw: rw.run_t_visit_exchange(gamma=10.0, **kw),
        lambda **kw: rw.run_r_visit_exchange(**kw),
    ], ids=["visit-exchange", "t-visit-exchange", "r-visit-exchange"])
    def test_rejects_negative_min_rounds(self, run):
        args = dict(graph=rw.generate_cycle(8), source=0,
                    config=AgentConfig(count=8), rng=SimRng(1))
        with pytest.raises(InvalidParameterError,
                           match="min_rounds must be >= 0, got -4"):
            run(min_rounds=-4, **args)
        assert run(min_rounds=0, **args).rounds >= 1

    def test_stationarity_preserved_on_regular(self):
        # position of agent 0 after 3 rounds stays uniform on K_4
        g = rw.generate_complete(4)
        landing = []
        for i in range(4000):
            res = rw.run_visit_exchange(g, 0, AgentConfig(count=2),
                                        SimRng(rw.derive_seed(104, i)),
                                        min_rounds=3, record_positions=True)
            landing.append(res.trace.positions[3][0])
        counts = np.bincount(landing, minlength=4)
        assert stats.chisquare(counts).pvalue > 0.001


class TestMeetExchange:
    def test_k2_both_agents_at_source(self):
        res = rw.run_meet_exchange(k2(), 0, AgentConfig(count=2),
                                   SimRng(SEED_TWO_AGENTS_AT_0))
        assert res.broadcast_time == 0
        assert res.completion_kind == "all-agents"
        assert res.trace.source_trigger_round == 0

    def test_k2_opposite_parity_never_meets(self):
        res = rw.run_meet_exchange(
            k2(), 0, AgentConfig(count=2, placement="one-per-vertex"),
            SimRng(3), round_cap=128)
        assert not res.complete
        assert res.broadcast_time is None

    def test_k2_lazy_breaks_parity(self):
        res = rw.run_meet_exchange(
            k2(), 0, AgentConfig(count=2, placement="one-per-vertex", lazy=True),
            SimRng(3))
        assert res.complete

    def test_star_mixed_phases_stalls_without_lazy(self):
        g = rw.generate_star(4)
        res = rw.run_meet_exchange(g, 0, AgentConfig(count=5),
                                   SimRng(SEED_S4_MIXED_PHASES), round_cap=300)
        assert not res.complete

    def test_source_triggers_once(self):
        # after the trigger round, visiting the source alone informs nobody:
        # verify by re-simulating meetings from positions
        g = rw.generate_star(8)
        for i in range(25):
            res = rw.run_meet_exchange(g, 0, AgentConfig(count=9, lazy=True),
                                       SimRng(rw.derive_seed(105, i)),
                                       record_positions=True)
            assert res.complete
            trig = res.trace.source_trigger_round
            ta = res.trace.agent_informed_at
            pos = res.trace.positions
            assert trig is not None
            for a in range(9):
                t = ta[a]
                if t == trig:
                    continue  # may be source-informed (or a meeting)
                if t == 0:
                    assert pos[0][a] == 0 and trig == 0
                    continue
                met = np.flatnonzero(pos[t] == pos[t][a])
                assert any(0 <= ta[b] < t for b in met if b != a), (i, a, t)

    def test_zero_agents_trivially_done(self):
        res = rw.run_meet_exchange(rw.generate_cycle(4), 0, AgentConfig(count=0),
                                   SimRng(1))
        assert res.broadcast_time == 0

    def test_lazy_star_medians_logarithmic(self):
        g = rw.generate_star(256)
        times = [rw.run_meet_exchange(g, 0, AgentConfig(count=257, lazy=True),
                                      SimRng(rw.derive_seed(106, i))).broadcast_time
                 for i in range(60)]
        assert np.median(times) <= 20 * math.log2(257)


class TestTVisitExchange:
    def test_huge_gamma_matches_plain(self):
        g = rw.generate_random_regular(32, 4, seed=9)
        cfg = AgentConfig(count=32)
        plain = rw.run_visit_exchange(g, 0, cfg, SimRng(55))
        capped = rw.run_t_visit_exchange(g, 0, cfg, 1e6, SimRng(55))
        assert capped.removal_log == []
        assert capped.broadcast_time == plain.broadcast_time
        assert np.array_equal(capped.trace.vertex_informed_at,
                              plain.trace.vertex_informed_at)
        assert np.array_equal(capped.trace.agent_informed_at,
                              plain.trace.agent_informed_at)

    def test_single_agent_never_removed(self):
        g = rw.generate_cycle(8)
        res = rw.run_t_visit_exchange(g, 0, AgentConfig(count=1), 1.0,
                                      SimRng(SEED_ONE_AGENT_AT_0), min_rounds=40)
        assert res.removal_log == []

    def test_tight_gamma_rarely_binds(self):
        # d = log2(n) regular, |A| = n, gamma = 2e: removals are rare
        trips = 0
        for i in range(30):
            g = rw.generate_random_regular(128, 7, seed=rw.derive_seed(107, i))
            res = rw.run_t_visit_exchange(g, 0, AgentConfig(count=128),
                                          2 * math.e,
                                          SimRng(rw.derive_seed(108, i)))
            trips += bool(res.removal_log)
        assert trips <= 2

    def test_forced_removals_logged(self):
        g = rw.generate_complete(4)
        res = rw.run_t_visit_exchange(g, 0, AgentConfig(count=4),
                                      2 * math.e, SimRng(2), min_rounds=10)
        # gamma*d = 2e*3 ~ 16.3 never binds with 4 agents
        assert res.removal_log == []
        # the minimum legal gamma for 8 agents on 64 vertices caps every
        # neighborhood at gamma*d = 2e*8/64*3 ~ 1.02 agents: two agents
        # near one vertex force a removal
        g = rw.generate_random_regular(64, 3, 1)
        res = rw.run_t_visit_exchange(g, 0, AgentConfig(count=8),
                                      2 * math.e * 8 / 64, SimRng(2),
                                      min_rounds=10)
        assert res.removal_log
        for rnd, vertex, agent in res.removal_log:
            assert 0 <= vertex < 64 and 0 <= agent < 8 and rnd >= 0

    def test_requires_regular(self):
        with pytest.raises(InvalidParameterError):
            rw.run_t_visit_exchange(rw.generate_star(4), 0, AgentConfig(count=5),
                                    10.0, SimRng(1))

    def test_gamma_floor_enforced(self):
        g = rw.generate_cycle(8)
        with pytest.raises(InvalidParameterError):
            rw.run_t_visit_exchange(g, 0, AgentConfig(count=8), 1.0, SimRng(1))


class TestRVisitExchange:
    def test_zero_floor_matches_plain(self):
        g = rw.generate_random_regular(32, 4, seed=10)
        cfg = AgentConfig(count=32)
        plain = rw.run_visit_exchange(g, 0, cfg, SimRng(77))
        repl = rw.run_r_visit_exchange(g, 0, cfg, SimRng(77), floor=0.0)
        assert repl.addition_log == []
        assert repl.broadcast_time == plain.broadcast_time
        assert np.array_equal(repl.trace.vertex_informed_at,
                              plain.trace.vertex_informed_at)

    def test_complete_graph_additions_rare(self):
        g = rw.generate_complete(64)
        adds = 0
        for i in range(30):
            res = rw.run_r_visit_exchange(g, 0, AgentConfig(count=64),
                                          SimRng(rw.derive_seed(109, i)),
                                          min_rounds=64)
            adds += bool(res.addition_log)
        assert adds <= 2

    def test_forced_additions_adopt_state(self):
        # an absurd floor forces additions every odd round; added agents on
        # informed vertices must be informed, and the agent count must grow
        # by exactly the log length
        g = rw.generate_cycle(8)
        res = rw.run_r_visit_exchange(g, 0, AgentConfig(count=8), SimRng(5),
                                      floor=8.0, min_rounds=6)
        assert res.addition_log
        assert len(res.trace.agent_informed_at) == 8 + len(res.addition_log)
        tv = res.trace.vertex_informed_at
        for rnd, deficient, agent in res.addition_log:
            assert rnd % 2 == 1
            placed = int(g.neighbors(deficient)[0])  # documented placement rule
            born_informed = res.trace.agent_informed_at[agent] == rnd
            vertex_informed = 0 <= tv[placed] <= rnd
            assert born_informed == vertex_informed

    def test_requires_regular(self):
        with pytest.raises(InvalidParameterError):
            rw.run_r_visit_exchange(rw.generate_star(4), 0, AgentConfig(count=5),
                                    SimRng(1))


class TestSharedWalks:
    def test_domination_smoke(self):
        g = rw.generate_star(64)
        for i in range(20):
            out = rw.run_shared_visit_meet(g, 0, AgentConfig(count=65, lazy=True),
                                           SimRng(rw.derive_seed(110, i)))
            assert out.meetx.complete
            assert out.visitx.complete
            assert out.visitx_agents_round <= out.meetx.broadcast_time

    def test_trace_events_sorted(self):
        res = rw.run_visit_exchange(rw.generate_cycle(5), 0, AgentConfig(count=5),
                                    SimRng(6))
        events = rw.trace_events(res.trace)
        assert ("vertex", 0, 0) in events[:3]  # source event in round 0
        rounds = [e[2] for e in events]
        assert rounds == sorted(rounds)
        kinds = {e[0] for e in events}
        assert kinds == {"vertex", "agent"}
