"""Determinism, sub-stream isolation, oracle idempotence, the bulk PCG64
streams and the mixed-degree reader against numpy's own, and the
distributional checks on stationary sampling and lazy stepping."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import rumorwalks as rw
import rumorwalks.rng as rng_mod
from rumorwalks.protocols import AgentConfig, _move
from rumorwalks.rng import (ChoiceOracle, Draws, SimRng, _first_blocks,
                            _pcg64_seed, bounded_ahead, derive_seed,
                            place_stationary)

from helpers import ReferenceOracle, coupling_corpus


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "walks", 3) == derive_seed(1, "walks", 3)

    def test_labels_separate(self):
        a = derive_seed(7, "walks")
        b = derive_seed(7, "push")
        c = derive_seed(7, "walks", 0)
        assert len({a, b, c}) == 3

    def test_int_vs_string_distinct(self):
        assert derive_seed(1, "2") != derive_seed(1, 2)

    def test_range(self):
        for parts in [(0,), (2 ** 64 - 1, "x"), (-5, "neg")]:
            s = derive_seed(*parts)
            assert 0 <= s < 2 ** 64

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            derive_seed(1, True)

    @pytest.mark.parametrize("part", [2 ** 127, -2 ** 127 - 1, 2 ** 200])
    def test_rejects_oversized_int(self, part):
        with pytest.raises(rw.InvalidParameterError, match="outside"):
            derive_seed(part, "x")

    @pytest.mark.parametrize("part", [0, -1, 2 ** 64, 2 ** 127 - 1,
                                      -2 ** 127])
    def test_in_range_streams_unchanged(self, part):
        # the packing every stream has been derived with
        h = hashlib.sha256(b"i" + part.to_bytes(16, "little", signed=True)
                           + b"svertex\x00")
        assert derive_seed(part, "vertex") == \
            int.from_bytes(h.digest()[:8], "little")


class TestSimRng:
    def test_stream_cached(self):
        rng = SimRng(5)
        assert rng.stream("walks") is rng.stream("walks")

    def test_cross_instance_determinism(self):
        a = SimRng(5).stream("walks").integers(0, 100, size=8)
        b = SimRng(5).stream("walks").integers(0, 100, size=8)
        assert np.array_equal(a, b)

    def test_streams_isolated(self):
        # draining one stream must not shift another
        r1 = SimRng(9)
        r1.stream("walks").integers(0, 10, size=1000)
        got = r1.stream("push").integers(0, 100, size=8)
        fresh = SimRng(9).stream("push").integers(0, 100, size=8)
        assert np.array_equal(got, fresh)

    def test_child_seed_matches_derive(self):
        rng = SimRng(13)
        assert rng.child_seed("oracle") == derive_seed(13, "oracle")

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_seed(self, seed):
        # refused, not truncated to seed 1
        with pytest.raises(rw.InvalidParameterError,
                           match=f"^seed must be an integer, got {seed!r}$"):
            SimRng(seed)

    @pytest.mark.parametrize("seed", [2 ** 127, -2 ** 127 - 1])
    def test_oversized_seed(self, seed):
        # refused when made, not when the first stream is derived
        with pytest.raises(rw.InvalidParameterError, match="outside"):
            SimRng(seed)

    def test_numpy_integer_seed(self):
        assert SimRng(np.uint64(7)).seed == 7
        assert type(SimRng(np.int64(7)).seed) is int


class TestChoiceOracle:
    def test_idempotent(self):
        g = rw.generate_star(5)
        oracle = ChoiceOracle(g, seed=21)
        first = oracle.choice(0, 3)
        assert oracle.choice(0, 3) == first

    def test_degree_one_forced(self):
        g = rw.generate_star(5)
        oracle = ChoiceOracle(g, seed=1)
        assert all(oracle.choice(2, i) == 0 for i in range(1, 10))

    def test_membership(self):
        g = rw.generate_cycle_stars_cliques(3)
        oracle = ChoiceOracle(g, seed=3)
        for u in (0, 5, 20):
            nbrs = set(int(v) for v in g.neighbors(u))
            assert {oracle.choice(u, i) for i in range(1, 30)} <= nbrs

    def test_query_order_irrelevant(self):
        g = rw.generate_complete(6)
        a = ChoiceOracle(g, seed=8)
        b = ChoiceOracle(g, seed=8)
        fwd = [a.choice(2, i) for i in range(1, 9)]
        rev = [b.choice(2, i) for i in range(8, 0, -1)][::-1]
        assert fwd == rev

    def test_uniform_frequencies(self):
        # fresh indices on the star center: each leaf should appear ~1/4
        g = rw.generate_star(4)
        oracle = ChoiceOracle(g, seed=55)
        n_draws = 100_000
        draws = [oracle.choice(0, i) for i in range(1, n_draws + 1)]
        counts = np.bincount(draws, minlength=5)[1:]
        p = 1 / 4
        sigma = np.sqrt(n_draws * p * (1 - p))
        assert np.all(np.abs(counts - n_draws * p) < 3 * sigma)

    def test_materialized_bookkeeping(self):
        g = rw.generate_complete(3)
        oracle = ChoiceOracle(g, seed=2)
        oracle.choice(1, 4)
        assert list(oracle.materialized_lists()) == [1]
        assert len(oracle.materialized_lists()[1]) == 4


def _record_streams(monkeypatch) -> list:
    """Seeds of the streams the oracle makes from now on, in order."""
    seeds, real = [], rng_mod._stream
    monkeypatch.setattr(rng_mod, "_stream",
                        lambda seed: seeds.append(seed) or real(seed))
    return seeds


def _scalar_entries(graph, seed, u, count):
    """Reference: entries 1..count of vertex u drawn one at a time."""
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, "vertex", u)))
    nbrs = graph.neighbors(u)
    return [int(nbrs[gen.integers(0, graph.degree(u))]) for _ in range(count)]


class TestChoiceOracleContract:
    """The block-refilled table against one-at-a-time scalar draws."""

    def test_take_matches_choice(self):
        g = rw.generate_double_star(8)
        rng = np.random.Generator(np.random.PCG64(4))
        us = rng.integers(0, g.n, size=300)
        idx = rng.integers(1, 90, size=300)
        a = ChoiceOracle(g, seed=17)
        b = ChoiceOracle(g, seed=17)
        got = a.take(us, idx)
        assert got.dtype == np.int64
        assert got.tolist() == [b.choice(int(u), int(i))
                                for u, i in zip(us, idx)]

    @pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
    def test_entries_equal_scalar_draws(self, order):
        # rows cross several block boundaries (32, 64, 128, ...), in any
        # query order, and vertices are queried interleaved
        g = rw.generate_cycle_stars_cliques(3)
        seed = 29
        count = 300
        queries = [(u, i) for u in (0, 5, 20) for i in range(1, count + 1)]
        if order == "reverse":
            queries.reverse()
        elif order == "shuffled":
            perm = np.random.Generator(np.random.PCG64(1)).permutation(
                len(queries))
            queries = [queries[j] for j in perm]
        oracle = ChoiceOracle(g, seed=seed)
        got: dict = {}
        for j in range(0, len(queries), 37):
            chunk = queries[j:j + 37]
            vals = oracle.take([u for u, _ in chunk], [i for _, i in chunk])
            for (u, i), w in zip(chunk, vals.tolist()):
                got[u, i] = w
        for u in (0, 5, 20):
            assert [got[u, i] for i in range(1, count + 1)] == \
                _scalar_entries(g, seed, u, count)

    def test_degree_one_draws_nothing(self, monkeypatch):
        g = rw.generate_star(5)
        oracle = ChoiceOracle(g, seed=3)
        used, streams = oracle._used, _record_streams(monkeypatch)
        assert oracle.take([2, 3, 2], [1, 70, 200]).tolist() == [0, 0, 0]
        assert oracle._used == used  # no leaf row grew
        assert streams == []  # and no leaf stream was drawn from
        # past its first block, the center regrows from its own seed
        assert oracle.choice(0, 33) == _scalar_entries(g, 3, 0, 33)[-1]
        assert oracle._used > used
        assert streams == [derive_seed(3, "vertex", 0)]

    def test_regrowth_keeps_given_entries(self, monkeypatch):
        # a row regrows by redrawing from its seed; even when the redraw
        # disagrees with the entries given out (here: another stream), those
        # entries stay as they were and only the new ones come from it
        g = rw.generate_star(4)
        oracle = ChoiceOracle(g, seed=12)
        real = rng_mod._stream
        monkeypatch.setattr(rng_mod, "_stream", lambda seed: real(seed ^ 1))
        given = oracle.take([0] * 32, np.arange(1, 33)).tolist()
        assert given == _scalar_entries(g, 12, 0, 32)
        for need in (33, 65, 129, 300):  # regrows to 64, 128, 256 and 512
            before = oracle._used
            oracle.choice(0, need)
            assert oracle._used > before
            again = oracle.take([0] * len(given), np.arange(1, len(given) + 1))
            assert again.tolist() == given
            given = oracle.take([0] * need, np.arange(1, need + 1)).tolist()
        other = np.random.Generator(np.random.PCG64(
            derive_seed(12, "vertex", 0) ^ 1)).integers(0, 4, size=64)
        assert given[32:64] == (other[32:] + 1).tolist()
        assert oracle.materialized_lists() == {0: given}

    def test_materialized_shows_requested_prefix_only(self):
        g = rw.generate_complete(5)
        oracle = ChoiceOracle(g, seed=6)
        oracle.take([1, 1, 3], [2, 5, 1])
        # whole blocks were drawn, but only the requested prefix shows
        assert oracle.materialized_lists() == {
            1: _scalar_entries(g, 6, 1, 5), 3: _scalar_entries(g, 6, 3, 1)}
        oracle.choice(1, 3)  # a lower index does not shrink the prefix
        assert oracle.materialized_lists()[1] == _scalar_entries(g, 6, 1, 5)
        oracle.choice(1, 40)  # past the first block
        assert oracle.materialized_lists()[1] == _scalar_entries(g, 6, 1, 40)

    def test_rejections(self):
        k1 = ChoiceOracle(rw.Graph.from_edges(1, []), seed=1)
        with pytest.raises(rw.InvalidParameterError):
            k1.choice(0, 1)  # degree 0
        oracle = ChoiceOracle(rw.generate_complete(2), seed=1)
        for u, i in [(0, 0), (1, -3), (2, 1), (-1, 1)]:
            with pytest.raises(rw.InvalidParameterError):
                oracle.choice(u, i)
        with pytest.raises(rw.InvalidParameterError):
            oracle.take([0, 1], [1, 0])
        assert oracle.materialized_lists() == {}

    def test_unchecked_entries_record_like_take(self):
        # the coupled walk's pattern: a vertex listed once per departing
        # agent, each call's highest index per vertex given as high; a
        # row grows past its first block (32 entries) on the way
        g = rw.generate_heavy_binary_tree(15)
        a, b = ChoiceOracle(g, seed=5), ChoiceOracle(g, seed=5)
        for us, idx, high in [([3, 1, 3, 3, 7], [1, 1, 2, 3, 50],
                               [3, 1, 3, 3, 50]),
                              ([7, 3], [51, 4], [51, 4]),
                              ([3, 3], [5, 6], [6, 6])]:
            us, idx = np.array(us), np.array(idx)
            assert a._entries(us, idx, np.array(high)).tolist() == \
                b.take(us, idx).tolist()
            assert a.materialized_lists() == b.materialized_lists()


class TestStationarySampling:
    def test_k2_half(self):
        g = rw.generate_complete(2)
        gen = np.random.Generator(np.random.PCG64(3))
        frac = np.mean(place_stationary(g, gen, 20_000) == 0)
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 20_000)

    def test_star_center_mass(self):
        # deg(center)/2m = 4/8 on the 4-leaf star
        g = rw.generate_star(4)
        gen = np.random.Generator(np.random.PCG64(4))
        pos = place_stationary(g, gen, 100_000)
        frac = np.mean(pos == 0)
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 100_000)

    def test_regular_uniform_chisquare(self):
        g = rw.generate_random_regular(32, 4, seed=6)
        gen = np.random.Generator(np.random.PCG64(7))
        pos = place_stationary(g, gen, 100_000)
        counts = np.bincount(pos, minlength=32)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_degree_proportional(self):
        g = rw.generate_double_star(8)
        gen = np.random.Generator(np.random.PCG64(8))
        pos = place_stationary(g, gen, 200_000)
        counts = np.bincount(pos, minlength=g.n)
        expected = g.degrees / (2 * g.m) * 200_000
        sigma = np.sqrt(expected * (1 - g.degrees / (2 * g.m)))
        assert np.all(np.abs(counts - expected) < 4 * sigma)


class TestStepWalk:
    """The one walk step of every agent protocol, one step per agent."""

    def test_k2_forced(self):
        g = rw.generate_complete(2)
        gen = np.random.Generator(np.random.PCG64(1))
        pos = _move(g, np.zeros(50, dtype=np.int64), gen, False, None)
        assert (pos == 1).all()
        assert (_move(g, pos, gen, False, None) == 0).all()

    def test_lazy_stay_rate(self):
        g = rw.generate_cycle(5)
        walk_gen = np.random.Generator(np.random.PCG64(2))
        lazy_gen = np.random.Generator(np.random.PCG64(3))
        n_steps = 100_000
        dest = _move(g, np.full(n_steps, 2, dtype=np.int64), walk_gen, True,
                     lazy_gen)
        assert set(dest.tolist()) == {1, 2, 3}
        stays = int((dest == 2).sum())
        assert abs(stays / n_steps - 0.5) < 3 * np.sqrt(0.25 / n_steps)

    @pytest.mark.parametrize("seed", range(20))
    def test_lazy_coin_is_random_below_half(self, seed):
        # the coin reads the raw word's top bit: the same booleans as
        # random() < 0.5, and the generator left in the same state
        for k in (0, 1, 7, 1001, 16384):
            by_float = np.random.Generator(np.random.PCG64(seed))
            by_word = np.random.Generator(np.random.PCG64(seed))
            assert np.array_equal(
                by_float.random(k) < 0.5,
                by_word.bit_generator.random_raw(k) < 2 ** 63)
            assert by_float.bit_generator.state == by_word.bit_generator.state

    def test_c4_two_neighbors(self):
        g = rw.generate_cycle(4)
        gen = np.random.Generator(np.random.PCG64(9))
        dest = _move(g, np.zeros(40_000, dtype=np.int64), gen, False, None)
        frac1 = np.mean(dest == 1)
        assert set(dest.tolist()) == {1, 3}
        assert abs(frac1 - 0.5) < 3 * np.sqrt(0.25 / 40_000)


class TestBoundedAhead:
    """The push block reader against numpy's own bounded draws."""

    BOUNDS = [2, 3, 7, 14, 1000, 1001, 2 ** 31 - 1, 2 ** 31 + 1,
              3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32]

    @staticmethod
    def _gen(seed: int, pending: bool) -> np.random.Generator:
        gen = np.random.Generator(np.random.PCG64(seed))
        if pending:
            gen.integers(0, 5)  # one 32-bit draw: half a word left over
            assert gen.bit_generator.state["has_uint32"] == 1
        return gen

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_equals_scalar_draws(self, bound, pending):
        count = 301
        for seed in range(3):
            draws, leave = bounded_ahead(self._gen(seed, pending), bound,
                                         count)
            ref = self._gen(seed, pending)
            want = [int(ref.integers(0, bound)) for _ in range(count)]
            assert draws.dtype == np.int64
            assert draws.tolist() == want

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_leave_matches_scalar_state(self, bound, pending):
        count = 64
        for used in (0, 1, 2, 3, 17, 40, count):
            gen = self._gen(used, pending)
            _, leave = bounded_ahead(gen, bound, count)
            leave(used)
            ref = self._gen(used, pending)
            for _ in range(used):
                ref.integers(0, bound)
            assert gen.bit_generator.state == ref.bit_generator.state
            # every later reader of the stream sees the same draws
            assert gen.integers(0, 2 ** 40, size=3).tolist() == \
                ref.integers(0, 2 ** 40, size=3).tolist()
            assert gen.integers(0, 9) == ref.integers(0, 9)

    def test_leave_twice(self):
        # a block leaves the stream once; reading a second block from there
        # continues the same scalar stream
        gen, ref = self._gen(5, False), self._gen(5, False)
        got = []
        for bound, count, used in ((6, 50, 33), (6, 9, 9), (1000, 20, 1)):
            draws, leave = bounded_ahead(gen, bound, count)
            leave(used)
            got += draws[:used].tolist()
        want = [int(ref.integers(0, 6)) for _ in range(42)] + \
            [int(ref.integers(0, 1000))]
        assert got == want
        assert gen.bit_generator.state == ref.bit_generator.state


# bounds of every size, and many just above 2**31, where (2**32 - d) % d is
# nearly 2**31, so nearly half of the halves are rejected
BOUNDS = st.one_of(st.integers(2, 2 ** 10), st.integers(2, 2 ** 32),
                   st.integers(2 ** 31 - 2 ** 4, 2 ** 31 + 2 ** 12))
CALLS = st.lists(st.lists(BOUNDS, max_size=40), min_size=1, max_size=6)


def _pcg(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# bounds of every size, and many near 2**31 and 2**32, where a round's
# least low half is seldom at least its top bound
NEAR_BOUNDS = st.one_of(st.integers(2, 2 ** 32),
                        st.integers(2 ** 31 - 2 ** 4, 2 ** 31 + 2 ** 12),
                        st.integers(2 ** 32 - 2 ** 12, 2 ** 32))


class TestDraws:
    """The mixed-degree reader against numpy's ``integers(0, bounds)`` on a
    generator of the same seed, value for value over consecutive calls."""

    @given(seed=st.integers(0, 2 ** 64 - 1),
           calls=st.lists(st.tuples(
               st.lists(NEAR_BOUNDS, min_size=1, max_size=40),
               st.integers(0, 2 ** 12)), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_top_bound_matches_numpy(self, seed, calls):
        # each call's top bound is its largest bound plus some slack, at
        # most 2**32: bounds near 2**31 and 2**32 seldom pass the one-pass
        # check, and the exact loop draws them
        draws, ref = Draws(seed), _pcg(seed)
        for bounds, slack in calls:
            top = min(max(bounds) + slack, 2 ** 32)
            got = draws.integers(bounds, top)
            assert got.dtype == np.int64
            assert got.tolist() == ref.integers(0, bounds).tolist()
        assert draws.integers([3, 2 ** 31 + 1]).tolist() == \
            ref.integers(0, [3, 2 ** 31 + 1]).tolist()

    def test_one_pass_and_exact_loop(self):
        # small degrees pass the one-pass check on nearly every call, and a
        # top of 2**32 fails it on every call; both read numpy's values
        g = rw.generate_heavy_binary_tree(63)
        rows = np.random.default_rng(4).integers(0, g.n, size=(50, 300))
        for top in (int(g.distinct_degrees[-1]), 2 ** 32):
            draws, ref = Draws(9), _pcg(9)
            for r in rows:
                assert np.array_equal(draws.integers(g.degrees[r], top),
                                      ref.integers(0, g.degrees[r]))

    @given(seed=st.integers(0, 2 ** 64 - 1), calls=CALLS)
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy(self, seed, calls):
        draws, ref = Draws(seed), _pcg(seed)
        for bounds in calls:
            got = draws.integers(bounds)
            assert got.dtype == np.int64
            assert got.tolist() == ref.integers(0, bounds, size=len(bounds)
                                                ).tolist()

    def test_blocks_and_rejections(self):
        # calls far larger than the first block, and a bound that rejects
        # about half of the halves
        for seed in (0, 1):
            draws, ref = Draws(seed), _pcg(seed)
            bounds = np.random.default_rng(seed).integers(2, 600, size=5000)
            heavy = np.full(3000, 2 ** 31 + 1)
            for call in (bounds, heavy, bounds[:7]):
                assert np.array_equal(draws.integers(call),
                                      ref.integers(0, call))

    def test_nothing_drawn_leaves_state(self):
        draws, ref = Draws(3), _pcg(3)
        assert draws.integers([]).tolist() == []
        assert draws.integers([]).tolist() == []
        assert draws.integers([5, 2 ** 31 + 1]).tolist() == \
            ref.integers(0, [5, 2 ** 31 + 1]).tolist()

    @pytest.mark.parametrize("calls", [[], [[]], [[7]], [[7, 2 ** 20]],
                                       [[], [2 ** 31 + 1] * 9]])
    def test_short_calls(self, calls):
        draws, ref = Draws(8), _pcg(8)
        for bounds in calls + [[3, 2 ** 32]]:
            assert draws.integers(bounds).tolist() == \
                ref.integers(0, bounds, size=len(bounds)).tolist()

    @pytest.mark.parametrize("labels,name", [(("walks",), "'walks'"),
                                             (("walks", 3), "'walks/3'")],
                             ids=["walks", "walks/3"])
    @pytest.mark.parametrize("first,second", [("draws", "stream"),
                                              ("stream", "draws")],
                             ids=["draws-first", "stream-first"])
    def test_one_kind_per_label(self, first, second, labels, name):
        rng = SimRng(11)
        kept = getattr(rng, first)(*labels)
        assert getattr(rng, first)(*labels) is kept
        with pytest.raises(rw.InvalidParameterError, match=name):
            getattr(rng, second)(*labels)
        getattr(rng, second)("push")  # another label is free
        # a reader reads the stream its label's generator would
        got = SimRng(11).draws(*labels).integers([3, 512, 2])
        want = SimRng(11).stream(*labels).integers(0, [3, 512, 2])
        assert got.tolist() == want.tolist()


EDGE_SEEDS = [0, 1, 2, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63,
              2 ** 64 - 2, 2 ** 64 - 1]


def _seeds(count: int) -> np.ndarray:
    gen = np.random.Generator(np.random.PCG64(77))
    return np.array(EDGE_SEEDS + gen.integers(0, 2 ** 64, size=count,
                                              dtype=np.uint64).tolist(),
                    dtype=np.uint64)


class TestBulkStreams:
    """The oracle's bulk SeedSequence -> PCG64 seeding and first blocks,
    bit for bit against the installed numpy."""

    BOUNDS = [2, 3, 9, 15, 512, 1000, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1,
              3 * 2 ** 30, 2 ** 32 - 5, 2 ** 32]

    def test_seeding_equals_pcg64(self):
        seeds = _seeds(2500)
        (s_hi, s_lo), (i_hi, i_lo) = _pcg64_seed(seeds)
        for j, seed in enumerate(seeds.tolist()):
            want = np.random.PCG64(seed).state["state"]
            assert int(s_hi[j]) << 64 | int(s_lo[j]) == want["state"], seed
            assert int(i_hi[j]) << 64 | int(i_lo[j]) == want["inc"], seed

    @pytest.mark.parametrize("count", [32, 31, 7, 2, 1])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_first_block_then_regrowth(self, bound, count):
        # the bulk words hold 1 or 2 rejected halves: near 2**31 most
        # streams reject more and are drawn by numpy
        seeds = _seeds(150)
        draws = _first_blocks(seeds, np.full(seeds.shape[0], bound), count)
        for j, seed in enumerate(seeds.tolist()):
            ref = np.random.Generator(np.random.PCG64(seed))
            assert draws[j].tolist() == \
                ref.integers(0, bound, size=count).tolist(), seed
            # a regrowth redraws the longer row, which starts with the block
            longer = np.random.Generator(np.random.PCG64(seed)).integers(
                0, bound, size=count + 45)
            assert longer[:count].tolist() == draws[j].tolist(), seed
            assert longer[count:].tolist() == \
                ref.integers(0, bound, size=45).tolist(), seed

    def test_bounds_checked(self):
        for bound in (1, 2 ** 32 + 1):
            with pytest.raises(rw.InvalidParameterError):
                _first_blocks(_seeds(0), np.full(len(EDGE_SEEDS), bound), 32)

    def test_no_drawing_vertex(self, monkeypatch):
        streams = _record_streams(monkeypatch)
        oracle = ChoiceOracle(rw.generate_complete(2), seed=5)
        assert oracle.take([0, 1, 0], [1, 9, 400]).tolist() == [1, 0, 1]
        assert streams == []  # no vertex has a stream to read


class TestOracleAgainstReference:
    """The bulk-seeded oracle against the per-vertex one it replaced."""

    @pytest.mark.parametrize("trial", range(2))
    def test_shuffled_queries(self, trial):
        for i, g in enumerate(coupling_corpus(trial)):
            seed = derive_seed(31, trial, i)
            gen = np.random.Generator(np.random.PCG64(seed))
            us = gen.integers(0, g.n, size=3000)
            idx = gen.integers(1, 1 + gen.choice([40, 100, 300], size=3000))
            a, b = ChoiceOracle(g, seed), ReferenceOracle(g, seed)
            for part in np.array_split(gen.permutation(3000), 25):
                assert a.take(us[part], idx[part]).tolist() == \
                    b.take(us[part], idx[part]).tolist()
            assert a.materialized_lists() == b.materialized_lists()

    @pytest.mark.parametrize("run", [rw.run_coupled_even,
                                     rw.run_coupled_odd])
    def test_coupled_transcripts(self, monkeypatch, run):
        import rumorwalks.coupling as cp

        def runs():
            return [rw.transcript_dumps(run(g, 0, AgentConfig(g.n), SimRng(i)))
                    for i, g in enumerate(coupling_corpus(0))]

        bulk = runs()
        monkeypatch.setattr(cp, "ChoiceOracle", ReferenceOracle)
        assert runs() == bulk
