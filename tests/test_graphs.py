"""Generator post-conditions, structural invariants, edge-list I/O, the
deterministic families against their list-based references, and the memory a
build takes."""
import hashlib
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rumorwalks as rw
from rumorwalks import Graph, InvalidParameterError, LoadError
from rumorwalks import graphs
from rumorwalks.graphs import _key_dtype, _pairing_attempt, _pairing_round

import helpers
from helpers import (_reference_pairing_attempt, reference_is_bipartite,
                     reference_random_regular)


def check_invariants(g: Graph):
    """Symmetry, simplicity, connectivity, and the handshake identity."""
    assert g.n >= 1
    degs = np.zeros(g.n, dtype=int)
    seen = set()
    for u in range(g.n):
        nbrs = g.neighbors(u)
        assert list(nbrs) == sorted(set(int(v) for v in nbrs)), "sorted, no dups"
        assert u not in set(int(v) for v in nbrs), "self-loop"
        degs[u] = len(nbrs)
        for v in nbrs:
            assert u in set(int(x) for x in g.neighbors(int(v))), "symmetry"
            seen.add((min(u, int(v)), max(u, int(v))))
    assert len(seen) == g.m
    assert degs.sum() == 2 * g.m
    assert np.array_equal(degs, g.degrees)
    assert g.is_connected()


class TestStar:
    def test_basic(self):
        g = rw.generate_star(4)
        assert (g.n, g.m) == (5, 4)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))
        check_invariants(g)

    def test_single_leaf_is_k2(self):
        g = rw.generate_star(1)
        assert (g.n, g.m) == (2, 1)
        assert g == rw.generate_complete(2)

    def test_handshake_large(self):
        g = rw.generate_star(1000)
        assert int(g.degrees.sum()) == 2000

    def test_zero_leaves_rejected(self):
        with pytest.raises(InvalidParameterError):
            rw.generate_star(0)


class TestDoubleStar:
    def test_centers(self):
        g = rw.generate_double_star(8)
        assert g.m == 7
        assert g.degree(0) == 4 and g.degree(1) == 4
        assert 1 in g.neighbors(0)
        check_invariants(g)

    def test_smallest_is_path(self):
        g = rw.generate_double_star(4)
        assert sorted(g.degrees) == [1, 1, 2, 2]

    def test_tree_edge_count(self):
        assert rw.generate_double_star(2 ** 10).m == 1023

    @pytest.mark.parametrize("n", [7, 2, 0, 3])
    def test_bad_sizes(self, n):
        with pytest.raises(InvalidParameterError):
            rw.generate_double_star(n)


class TestHeavyBinaryTree:
    def test_n7(self):
        g = rw.generate_heavy_binary_tree(7)
        assert (g.n, g.m) == (7, 12)  # 6 tree edges + C(4,2) clique edges
        check_invariants(g)

    def test_n3_triangle(self):
        g = rw.generate_heavy_binary_tree(3)
        assert (g.n, g.m) == (3, 3)

    def test_edge_formula_large(self):
        n = 2 ** 10 - 1
        g = rw.generate_heavy_binary_tree(n)
        leaves = (n + 1) // 2
        assert g.m == (n - 1) + leaves * (leaves - 1) // 2

    def test_leaves_form_clique(self):
        g = rw.generate_heavy_binary_tree(15)
        first_leaf = 7
        for u in range(first_leaf, 15):
            nbrs = set(int(v) for v in g.neighbors(u))
            assert set(range(first_leaf, 15)) - {u} <= nbrs

    def test_heap_parent_edges(self):
        g = rw.generate_heavy_binary_tree(15)
        for v in range(1, 15):
            assert (v - 1) // 2 in g.neighbors(v)

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 1022])
    def test_bad_sizes(self, n):
        with pytest.raises(InvalidParameterError):
            rw.generate_heavy_binary_tree(n)


class TestSiameseTrees:
    def test_n7(self):
        g = rw.generate_siamese_trees(7)
        assert g.n == 13
        assert g.m == 24
        assert g.degree(0) == 4
        check_invariants(g)

    def test_n3(self):
        assert rw.generate_siamese_trees(3).n == 5

    def test_vertex_count_large(self):
        assert rw.generate_siamese_trees(2 ** 9 - 1).n == 1021


class TestCycleStarsCliques:
    def test_m3_counts(self):
        g = rw.generate_cycle_stars_cliques(3)
        assert g.n == 3 + 9 + 27
        assert all(g.degree(c) == 3 + 2 for c in range(3))
        check_invariants(g)

    def test_m10_leaf_degree(self):
        g = rw.generate_cycle_stars_cliques(10)
        assert g.n == 1110
        # star leaves sit right after the ring vertices
        assert all(g.degree(10 + j) == 11 for j in range(100))

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            rw.generate_cycle_stars_cliques(2)


class TestCompleteAndCycle:
    def test_k3_equals_c3(self):
        assert rw.generate_complete(3) == rw.generate_cycle(3)

    def test_kn_edges(self):
        assert rw.generate_complete(9).m == 36

    def test_cycle_degrees(self):
        g = rw.generate_cycle(11)
        assert all(int(d) == 2 for d in g.degrees)

    def test_bad_sizes(self):
        with pytest.raises(InvalidParameterError):
            rw.generate_complete(1)
        with pytest.raises(InvalidParameterError):
            rw.generate_cycle(2)


class TestCliquePath:
    def test_two_edges_is_path(self):
        g = rw.generate_clique_path(2, 2)
        assert sorted(g.degrees) == [1, 1, 2, 2]
        check_invariants(g)

    def test_path_structure(self):
        g = rw.generate_clique_path(3, 4)
        check_invariants(g)
        # bridge endpoints only: vertex 0 and vertex 11 are in end cliques
        assert g.degree(0) == 3 and g.degree(11) == 3

    @given(k=st.integers(1, 6), d=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_connectivity(self, k, d):
        g = rw.generate_clique_path(k, d)
        assert g.n == k * d
        check_invariants(g)

    def test_bad_params(self):
        with pytest.raises(InvalidParameterError):
            rw.generate_clique_path(1, 1)


class TestRandomRegular:
    def test_k4_forced(self):
        g = rw.generate_random_regular(4, 3, seed=5)
        assert g == rw.generate_complete(4)

    def test_n6_d2_is_c6(self):
        # the only connected 2-regular graph on 6 vertices is the 6-cycle
        g = rw.generate_random_regular(6, 2, seed=99)
        assert all(int(d) == 2 for d in g.degrees)
        assert g.is_connected()
        walk = [0, int(g.neighbors(0)[0])]
        while walk[-1] != 0:
            a, b = g.neighbors(walk[-1])
            walk.append(int(b) if int(a) == walk[-2] else int(a))
        assert len(walk) == 7  # closes after visiting all 6 vertices

    def test_degrees_exact_at_scale(self):
        g = rw.generate_random_regular(2 ** 12, 12, seed=1)
        assert all(int(d) == 12 for d in g.degrees)
        assert g.is_connected()

    def test_determinism(self):
        a = rw.generate_random_regular(64, 6, seed=42)
        b = rw.generate_random_regular(64, 6, seed=42)
        c = rw.generate_random_regular(64, 6, seed=43)
        assert a == b
        assert a != c

    def test_infeasible(self):
        with pytest.raises(InvalidParameterError):
            rw.generate_random_regular(5, 3, seed=1)  # odd n*d
        with pytest.raises(InvalidParameterError):
            rw.generate_random_regular(4, 4, seed=1)  # d >= n
        with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
            rw.generate_random_regular(10, 3, seed=-1)
        with pytest.raises(InvalidParameterError, match="needs n >= 2"):
            rw.generate_random_regular(1, 1, seed=0)

    def test_non_integer_degree(self):
        # refused with the setting's name, not an IndexError from the pairing
        with pytest.raises(InvalidParameterError,
                           match="^d must be an integer, got 3.5$"):
            rw.generate_random_regular(8, 3.5, 1)

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_non_integer_seed(self, seed):
        # refused, not a TypeError from the comparison or PCG64, nor seed 1
        with pytest.raises(InvalidParameterError,
                           match=f"^seed must be an integer, got {seed!r}$"):
            rw.generate_random_regular(16, 3, seed)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_invariants_random_seeds(self, seed):
        g = rw.generate_random_regular(16, 4, seed=seed)
        assert all(int(d) == 4 for d in g.degrees)
        check_invariants(g)


def regular_digest(n, d, seeds):
    """SHA-256 over the CSR arrays of generate_random_regular(n, d, s) for
    each seed s in order."""
    h = hashlib.sha256()
    for s in seeds:
        g = rw.generate_random_regular(n, d, seed=s)
        h.update(g.indptr.astype("<i8").tobytes())
        h.update(g.indices.astype("<i8").tobytes())
    return h.hexdigest()


class TestRandomRegularStream:
    """Pins the generator's output: any change to its random draws or to
    how it pairs stubs changes a digest.  The small dense pairs reach the
    feasibility test and restarts (12, 2 restarts on disconnection); the
    large ones use the d = ceil(log2 n) sweep degrees."""

    GOLDEN = [
        (6, 3, 40,
         "e7343a2164f0a8d5e6ac0ba56f5fe39ceb6e014e134cef62085add9a7eb94213"),
        (12, 2, 30,
         "8e515d2c40663056ce1201acf52501f2f9236530b5ebd343c7296a715f523681"),
        (12, 11, 20,
         "5dfad874f170b53674f4ecda911e4233bbc29d643d643bfe00dfe4f95b8a092d"),
        (14, 12, 20,
         "da367323784f5ffa13ef03063f06218c3853c444a4ab10c2c1a139307e9f7298"),
        (20, 17, 10,
         "88bd93be695478fe2d2bda3da62ceb99b749f3e4543b91f6f5179d234f4ab086"),
        (30, 29, 20,
         "e638325112674997f08a41db62348a2c7d158e318386c9084a5a00e5979c0456"),
        (64, 8, 60,
         "03ce61e69bba76ed038ed8d05dc07c5aca761c53df76ead1672331f22503097e"),
        (512, 9, 30,
         "f3f3513c7b4cf90e1e7c38aa8a6b67dc2850cac5f7e9fc59d33742f1579a27ff"),
        (1024, 10, 3,
         "bb6af32d3fc932bcfdaee32002793eb5a6a92387ac1ce84f7536bf0e7b44ca68"),
        (4096, 12, 2,
         "4edefbe343ef3a86e0b80eb5a742a6b526edbfb30ee6cedfcce4c3463a92e942"),
        (16384, 14, 2,
         "31ba6c6f405bec4d34cca52030ace21a3765621d6aa086b9dac59ad6543e38c7"),
    ]

    @pytest.mark.parametrize("n,d,seeds,digest", GOLDEN)
    def test_golden_digest(self, n, d, seeds, digest):
        assert regular_digest(n, d, range(seeds)) == digest


@st.composite
def regular_params(draw):
    n = draw(st.integers(2, 120))
    d = draw(st.integers(1, n - 1))
    if (n * d) % 2:
        d = d - 1 if d > 1 else d + 1
    return n, d


@st.composite
def dense_params(draw):
    """``regular_params``, with d within a few of n - 1 half the time."""
    n = draw(st.integers(3, 120))
    d = draw(st.one_of(st.integers(max(1, n - 6), n - 1), st.integers(1, n - 1)))
    if (n * d) % 2:
        d = d - 1 if d > 1 else d + 1
    return n, d


class TestPairingDifferential:
    """The generator against the stable-argsort pairing it replaced
    (``helpers.reference_random_regular``), pass by pass and at either
    width of its keys, and its CSR builder at either width."""

    @given(params=regular_params(), seed=st.integers(0, 2 ** 32))
    @example(params=(6, 3), seed=0)
    @example(params=(12, 11), seed=3)
    @example(params=(30, 29), seed=7)
    @example(params=(12, 2), seed=1)
    @example(params=(3, 2), seed=0)
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, params, seed):
        n, d = params
        ref = reference_random_regular(n, d, seed, max_restarts=50)
        if ref is None:
            with pytest.raises(rw.GenerationFailureError):
                rw.generate_random_regular(n, d, seed, max_restarts=50)
        else:
            g = rw.generate_random_regular(n, d, seed, max_restarts=50)
            assert np.array_equal(g.indptr, ref.indptr)
            assert np.array_equal(g.indices, ref.indices)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_at_sweep_size(self, seed):
        g = rw.generate_random_regular(2048, 11, seed)
        assert g == reference_random_regular(2048, 11, seed)

    @pytest.mark.parametrize("n,d,seed", [(1024, 10, 21), (4096, 12, 22),
                                          (16384, 14, 23)])
    def test_matches_reference_at_regular_sweep_sizes(self, n, d, seed):
        # the CSR is built from the pairing's keys by the same builder as
        # from_edges, whose search gives indptr = arange(n + 1) * d here
        g = rw.generate_random_regular(n, d, seed)
        ref = reference_random_regular(n, d, seed)
        assert g == ref
        assert g.indptr.dtype == g.indices.dtype == np.int64

    @given(params=dense_params(), seed=st.integers(0, 2 ** 32))
    @example(params=(12, 11), seed=3)
    @example(params=(100, 97), seed=1)
    @settings(max_examples=80, deadline=None)
    def test_passes_match_reference(self, params, seed):
        # pass by pass: the same edge keys, or None, and the same stream
        # position, through the dead ends and loops that dense d makes common
        n, d = params
        gen = np.random.Generator(np.random.PCG64(seed))
        ref_gen = np.random.Generator(np.random.PCG64(seed))
        for _ in range(3):
            keys = _pairing_attempt(n, d, gen)
            want = _reference_pairing_attempt(n, d, ref_gen)
            if want is None:
                assert keys is None
            else:
                assert keys.dtype == _key_dtype(n)
                assert np.array_equal(np.sort(keys), want)
            assert gen.bit_generator.state == ref_gen.bit_generator.state

    @staticmethod
    def round_matches_stable_argsort(n, size):
        """``_pairing_round`` on ``size`` pairs among the four highest
        vertices, whose keys are the largest on n, against the stable
        argsort of ``helpers._reference_pairing_attempt``: the same kept
        keys, in ``_key_dtype(n)``, and the same re-queued stubs in order,
        with no edge taken and with the two top edges taken."""
        kd = _key_dtype(n)
        gen = np.random.Generator(np.random.PCG64(size))
        s = gen.integers(n - 4, n, size=2 * size).astype(kd)
        a, b = s[0::2].astype(np.int64), s[1::2].astype(np.int64)
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        top = np.array([(n - 4) * n + n - 3, (n - 2) * n + n - 1, n * n])
        for taken in (None, lambda k: graphs._known(top.astype(kd), k)):
            keep = np.empty(sk.shape[0], dtype=bool)
            keep[0] = True
            np.not_equal(sk[1:], sk[:-1], out=keep[1:])
            keep &= (a != b)[order]
            if taken is not None:
                keep &= ~np.isin(sk, top[:-1])
            good = np.empty_like(keep)
            good[order] = keep
            new, rest = _pairing_round(s, n, taken)
            assert new.dtype == kd and rest.dtype == np.int64
            assert np.array_equal(new, sk[keep])
            assert np.array_equal(rest, np.r_[a[~good], b[~good]])

    @pytest.mark.parametrize("n,size", [(2 ** 31, 8), (2 ** 31, 1),
                                        (2 ** 30, 4), (2 ** 28, 300)])
    def test_order_past_the_packing_bound(self, n, size):
        # (n*n) << s reaches 2**63, where a packed (key, index) sort would
        # overflow int64 and the one this round replaced fell back to the
        # stable argsort; the round's one plain sort orders them all
        assert (n * n) << size.bit_length() >= 2 ** 63
        self.round_matches_stable_argsort(n, size)

    @pytest.mark.parametrize("n,size", [(2 ** 30, 3), (2 ** 20, 5),
                                        (2 ** 14, 114688)])
    def test_order_below_the_packing_bound(self, n, size):
        # the largest keys would still pack: (n*n - 1) << s | index < 2**63;
        # 2**14 keeps its keys in int32, with a long run per key
        assert (n * n) << size.bit_length() < 2 ** 63
        self.round_matches_stable_argsort(n, size)

    @pytest.mark.parametrize("n,width", [(46_340, np.int32),
                                         (46_342, np.int64)])
    def test_matches_reference_across_the_key_width_bound(self, n, width):
        # 46,340**2 < 2**31 <= 46,341**2: the last int32 n and the first
        # even one past it
        assert _key_dtype(n) is width
        assert rw.generate_random_regular(n, 3, 5) == \
            reference_random_regular(n, 3, 5)

    @given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 300))
    @settings(max_examples=60, deadline=None)
    def test_csr_of_either_key_width(self, seed, n):
        # the generator hands _of_pairs int32 halves, from_edges int64 ones
        gen = np.random.Generator(np.random.PCG64(seed))
        keys = np.unique(gen.integers(0, n * n, size=gen.integers(1, 4 * n)))
        lo, hi = np.divmod(keys, n)
        lo, hi = lo[lo < hi], hi[lo < hi]
        wide = Graph._of_pairs(n, lo, hi, None)
        narrow = Graph._of_pairs(n, lo.astype(np.int32), hi.astype(np.int32),
                                 None)
        assert narrow == wide
        assert narrow.indptr.dtype == narrow.indices.dtype == np.int64
        if lo.shape[0]:
            for halves in ((lo, hi), (lo.astype(np.int32), hi.astype(np.int32))):
                with pytest.raises(InvalidParameterError, match="duplicate"):
                    Graph._of_pairs(n, *(np.r_[h, h[:1]] for h in halves), None)


@pytest.mark.parametrize("build", [
    rw.generate_star, rw.generate_double_star, rw.generate_heavy_binary_tree,
    rw.generate_siamese_trees, rw.generate_cycle_stars_cliques,
    rw.generate_complete, rw.generate_cycle,
    lambda k: rw.generate_clique_path(k, 3),
    lambda d: rw.generate_clique_path(3, d),
    lambda n: Graph.from_edges(n, [(0, 1), (1, 2)])])
@pytest.mark.parametrize("size", [4.5, 8.0, True])
def test_sizes_must_be_integers(build, size):
    with pytest.raises(InvalidParameterError,
                       match=rf"^\w+( count)? must be an integer, got {size}$"):
        build(size)


class TestGraphType:
    def test_from_edges_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(0, 1), (1, 0)])  # duplicate
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(0, 1), (1, 2), (1, 2)])  # same orientation
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(0, 1), (-1, 2)])  # negative id
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(0, 3)])  # out of range
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(4, [(0, 1), (2, 3)])  # disconnected
        with pytest.raises(InvalidParameterError, match="edges must be pairs"):
            Graph.from_edges(3, [(0, 1, 2)])

    def test_bipartite_detection(self):
        assert rw.generate_star(5).is_bipartite()
        assert rw.generate_cycle(6).is_bipartite()
        assert not rw.generate_cycle(5).is_bipartite()
        assert not rw.generate_heavy_binary_tree(15).is_bipartite()

    def test_is_regular(self):
        assert rw.generate_cycle(7).is_regular
        assert not rw.generate_star(3).is_regular
        assert Graph.from_edges(1, []).is_regular
        assert rw.generate_star(3).distinct_degrees.tolist() == [1, 3]
        assert rw.generate_heavy_binary_tree(7).distinct_degrees.tolist() \
            == [2, 3, 4]

    def test_edges_canonical_order(self):
        g = rw.generate_double_star(6)
        e = g.edges()
        assert (e[:, 0] < e[:, 1]).all()
        keys = [tuple(row) for row in e.tolist()]
        assert keys == sorted(keys)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_from_edges_matches_adjacency_lists(self, seed):
        # reference: per-vertex sorted neighbor lists built in plain Python,
        # from edges in shuffled order and orientation
        gen = np.random.Generator(np.random.PCG64(seed))
        n = 30
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(u, v) for u in range(n) for v in range(u + 2, n)
                  if gen.random() < 0.2]
        gen.shuffle(edges)
        edges = [(v, u) if gen.random() < 0.5 else (u, v) for u, v in edges]
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        g = Graph.from_edges(n, edges)
        assert [g.neighbors(u).tolist() for u in range(n)] == \
            [sorted(x) for x in nbrs]

    @staticmethod
    def csr_graph(n, edges):
        """A Graph straight from CSR arrays, so it may be disconnected."""
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return Graph(n, np.cumsum([0] + [len(x) for x in nbrs]),
                     [v for x in map(sorted, nbrs) for v in x])

    @pytest.mark.parametrize("n,edges,connected", [
        # vertex 0 isolated: the search from 0 reaches only itself
        (4, [(1, 2), (2, 3), (1, 3)], False),
        # vertex 0 in the smaller of two components
        (6, [(0, 1), (2, 3), (3, 4), (4, 5)], False),
        # the last vertex isolated
        (5, [(0, 1), (1, 2), (2, 3)], False),
        (2, [(0, 1)], True),
        (2, [], False),
        (5, [(3, 4), (2, 3), (1, 2), (0, 1)], True),
    ])
    def test_is_connected_cases(self, n, edges, connected):
        assert self.csr_graph(n, edges).is_connected() is connected

    def test_single_edge_graph(self):
        g = Graph.from_edges(2, [(1, 0)])
        assert g.is_connected() and g.m == 1
        assert g.neighbors(0).tolist() == [1]

    @pytest.mark.parametrize("n,edges", [
        (4, [(1, 2), (2, 3)]),
        (6, [(0, 1), (2, 3), (3, 4), (4, 5)]),
        (5, [(0, 1), (1, 2), (2, 3)]),
        # two triangles: m = n, so the edge count alone cannot tell
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    ])
    def test_from_edges_rejects_disconnected(self, n, edges):
        with pytest.raises(InvalidParameterError, match="graph is not connected"):
            Graph.from_edges(n, edges)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_is_connected_matches_bfs(self, seed):
        # random simple graphs, many of them disconnected, so they are built
        # from CSR arrays directly: from_edges rejects disconnected edge sets
        gen = np.random.Generator(np.random.PCG64(seed))
        n = int(gen.integers(2, 40))
        p = gen.uniform(0.0, 0.25)
        nbrs = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if gen.random() < p:
                    nbrs[u].append(v)
                    nbrs[v].append(u)
        g = Graph(n, np.cumsum([0] + [len(x) for x in nbrs]),
                  [v for x in nbrs for v in x])
        seen, stack = {0}, [0]
        while stack:
            for v in nbrs[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert g.is_connected() == (len(seen) == n)


def _undirected(n, edges):
    """A Graph straight from CSR arrays, which may be disconnected, and its
    neighbor sets."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    g = Graph(n, np.cumsum([0] + [len(x) for x in nbrs]),
              [v for x in nbrs for v in sorted(x)])
    return g, nbrs


def _dfs_reached(nbrs, source=0):
    """The vertices a depth-first search from ``source`` reaches."""
    seen, stack = {source}, [source]
    while stack:
        for v in nbrs[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _eccentricity(nbrs, source=0):
    """Levels of a breadth-first search from ``source`` in its component."""
    level, frontier, seen = 0, {source}, {source}
    while frontier:
        frontier = {v for u in frontier for v in nbrs[u]} - seen
        seen |= frontier
        level += bool(frontier)
    return level


@st.composite
def _shaped_graphs(draw):
    """(n, edges) of one family, vertex ids shuffled: paths and cycles
    longer than the search's level budget, random 2-regular pairings (most
    are disconnected), stars, complete graphs, sparse random graphs and
    forests; optionally vertex 0 or one other vertex is cut off."""
    kind = draw(st.sampled_from(["path", "cycles", "pairing", "star",
                                 "complete", "random", "forest"]))
    n = draw(st.integers(1, 60 if kind == "complete" else 500))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    perm = list(range(n))
    rnd.shuffle(perm)
    if kind == "path":
        edges = list(zip(perm, perm[1:]))
    elif kind == "cycles":  # one cycle, or two (a disconnected 2-regular graph)
        cut = draw(st.sampled_from([n, n // 2]))
        edges = [(part[i - 1], part[i]) for part in (perm[:cut], perm[cut:])
                 if len(part) >= 3 for i in range(len(part))]
    elif kind == "pairing":
        keys = None
        if n >= 3:
            gen = np.random.Generator(np.random.PCG64(rnd.getrandbits(32)))
            keys = _pairing_attempt(n, 2, gen)
        edges = [] if keys is None else [divmod(k, n) for k in keys.tolist()]
    elif kind == "star":
        edges = [(perm[0], v) for v in perm[1:]]
    elif kind == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif kind == "random":
        edges = [tuple(rnd.sample(range(n), 2)) for _ in
                 range(rnd.randint(0, 2 * n))] if n >= 2 else []
    else:  # forest: each vertex but the first joins an earlier one, or not
        edges = [(perm[i], perm[rnd.randrange(i)]) for i in range(1, n)
                 if rnd.random() < 0.995]
    cut_off = draw(st.sampled_from([None, 0, n - 1]))
    if cut_off is not None:
        edges = [e for e in edges if cut_off not in e]
    return n, edges


class TestConnectivity:
    """``Graph.is_connected`` against a depth-first search in plain Python.

    The check has two phases: a breadth-first search of at most
    ``_SEARCH_LEVELS`` levels, then min-label hooking.  Running it with no
    levels and with no bound on levels tests each phase alone."""

    @given(shape=_shaped_graphs(),
           levels=st.sampled_from([graphs._SEARCH_LEVELS, 0, 1, 10 ** 9]))
    @settings(max_examples=300, deadline=None)
    def test_matches_dfs(self, shape, levels):
        n, edges = shape
        g, nbrs = _undirected(n, edges)
        with mock.patch.object(graphs, "_SEARCH_LEVELS", levels):
            assert g.is_connected() == (len(_dfs_reached(nbrs)) == n)

    # the search decides: top-down levels only (a star from its center),
    # bottom-up levels that join the last vertices (a cycle) or find none
    # (K20 and a triangle)
    SEARCH_CASES = [
        ("star", 51, [(0, v) for v in range(1, 51)], True),
        ("cycle", 40, [(i, (i + 1) % 40) for i in range(40)], True),
        ("k20+triangle", 23, [(u, v) for u in range(20) for v in range(u + 1, 20)]
         + [(20, 21), (21, 22), (20, 22)], False),
    ]

    @pytest.mark.parametrize("name,n,edges,connected", SEARCH_CASES,
                             ids=[c[0] for c in SEARCH_CASES])
    def test_search_phase(self, name, n, edges, connected):
        g, nbrs = _undirected(n, edges)
        assert _eccentricity(nbrs) < graphs._SEARCH_LEVELS
        assert g.is_connected() is connected

    # hooking decides: vertex 0 is further than the level budget from some
    # vertex of its component; shuffled so that labels do not follow the path
    @pytest.mark.parametrize("connected", [True, False])
    def test_hooking_phase(self, connected):
        rnd = random.Random(5)
        rest = list(range(1, 300))
        rnd.shuffle(rest)
        path = [0] + rest
        edges = list(zip(path, path[1:]))
        if not connected:
            del edges[200]  # 0's component keeps 200 levels
        g, nbrs = _undirected(300, edges)
        assert _eccentricity(nbrs) > graphs._SEARCH_LEVELS
        assert g.is_connected() is connected

    @pytest.mark.parametrize("pairing", [False, True],
                             ids=["cycle", "2-regular-pairing"])
    def test_long_cycles_are_fast(self, pairing):
        # 100,000 vertices: both take tens of ms, where a search of one
        # numpy step per level would take seconds
        n = 100_000
        g = rw.generate_cycle(n)
        if pairing:  # random 2-regular: disjoint cycles, almost surely
            keys = _pairing_attempt(n, 2, np.random.Generator(np.random.PCG64(3)))
            lo, hi = np.divmod(keys, n)
            both = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
            g = Graph(n, np.arange(n + 1) * 2, both % n)
        t0 = time.perf_counter()
        assert g.is_connected() is not pairing
        assert time.perf_counter() - t0 < 1.0


def _chain(k):
    """Edges of the path 0, 1, ..., k."""
    return [(i, i + 1) for i in range(k)]


def _ring(n):
    """Edges of the cycle 0, 1, ..., n - 1."""
    return _chain(n - 1) + [(n - 1, 0)]


class TestBipartite:
    """``Graph.is_bipartite`` (whether vertex 0's copies lie apart in the
    bipartite double cover, by the search and hooking that also decide
    ``is_connected``) against a breadth-first two-colouring in plain
    Python."""

    @given(shape=_shaped_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_bfs(self, shape):
        g, _ = _undirected(*shape)
        assert g.is_bipartite() is reference_is_bipartite(g)

    @given(shape=_shaped_graphs(),
           levels=st.sampled_from([graphs._SEARCH_LEVELS, 0, 1, 10 ** 9]))
    @settings(max_examples=300, deadline=None)
    def test_matches_bfs_at_any_level_budget(self, shape, levels):
        # each phase alone, as TestConnectivity.test_matches_dfs runs them
        g, _ = _undirected(*shape)
        with mock.patch.object(graphs, "_SEARCH_LEVELS", levels):
            assert g.is_bipartite() is reference_is_bipartite(g)

    # around and beyond the search's last level: the double cover of a
    # graph deeper than it goes on to hooking
    DEEP = graphs._SEARCH_LEVELS + 8

    @pytest.mark.parametrize("edges,bipartite", [
        (_ring(2 * DEEP + 2), True),
        (_ring(2 * DEEP + 1), False),
        (_chain(DEEP), True),
        # an odd cycle hung below a path, at every depth around the last
        # level of the search
        *[(_chain(k) + [(k - 1, k + 1), (k, k + 1)], False)
          for k in range(DEEP - 12, DEEP)],
        # an even cycle hung there
        *[(_chain(k) + [(k - 1, k + 1), (k + 1, k + 2), (k + 2, k)], True)
          for k in range(DEEP - 12, DEEP)],
    ], ids=["even-cycle", "odd-cycle", "path",
            *[f"odd-cycle-below-path({k})" for k in range(DEEP - 12, DEEP)],
            *[f"even-cycle-below-path({k})" for k in range(DEEP - 12, DEEP)]])
    def test_deeper_than_the_search(self, edges, bipartite):
        g = Graph.from_edges(1 + max(map(max, edges)), edges)
        assert g.is_bipartite() is bipartite
        assert reference_is_bipartite(g) is bipartite

    @pytest.mark.parametrize("build,bipartite", [
        (lambda: rw.generate_star(100_000), True),
        (lambda: rw.generate_cycle(100_000), True),
        (lambda: rw.generate_cycle(99_999), False),
        (lambda: rw.generate_heavy_binary_tree(1023), False),
        (lambda: rw.generate_double_star(1000), True),
    ], ids=["star", "even-cycle", "odd-cycle", "heavy-tree", "double-star"])
    def test_large_graphs_are_fast(self, build, bipartite):
        # under 45 ms each on a 2-core Xeon, the double cover's build
        # included (the cycles' covers go on to hooking; the others' end
        # within the search's levels), where a plain breadth-first search
        # took about 0.3 s on each 100,000-vertex graph
        g = build()
        t0 = time.perf_counter()
        assert g.is_bipartite() is bipartite
        assert time.perf_counter() - t0 < 0.2


class TestEdgeListIO:
    # builders, so that a broken generator fails its own case at run time
    FAMILIES = [
        ("star(leaves=6)", lambda: rw.generate_star(6)),
        ("double-star(n=8)", lambda: rw.generate_double_star(8)),
        ("heavy-tree(n=7)", lambda: rw.generate_heavy_binary_tree(7)),
        ("siamese(n=7)", lambda: rw.generate_siamese_trees(7)),
        ("cycle-stars-cliques(m=3)", lambda: rw.generate_cycle_stars_cliques(3)),
        ("clique-path(k=3,d=3)", lambda: rw.generate_clique_path(3, 3)),
        ("regular(n=12,d=3)", lambda: rw.generate_random_regular(12, 3, seed=2)),
    ]

    @pytest.mark.parametrize("tag,build", FAMILIES, ids=[t for t, _ in FAMILIES])
    def test_round_trip(self, tag, build, tmp_path):
        g = build()
        assert g.family_tag == tag
        path = tmp_path / "g.el"
        rw.save_edge_list(g, path)
        assert rw.load_edge_list(path) == g

    def test_save_is_byte_stable(self, tmp_path):
        g = rw.generate_random_regular(20, 4, seed=3)
        p1, p2 = tmp_path / "a.el", tmp_path / "b.el"
        rw.save_edge_list(g, p1)
        rw.save_edge_list(g, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        path = tmp_path / "s.el"
        rw.save_edge_list(rw.generate_star(4), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "5 4"
        assert lines[1:] == ["0 1", "0 2", "0 3", "0 4"]

    @pytest.mark.parametrize("text,fragment", [
        ("2 1\n0 0\n", "u < v"),
        ("3 2\n0 1\n0 1\n", "duplicate"),
        ("4 2\n0 1\n2 3\n", "connected"),
        ("2 2\n0 1\n", "declares 2 edges"),
        ("2 1\n1 0\n", "u < v"),
        ("x y\n0 1\n", "non-integer"),
        ("2 1\n0 one\n", ":2"),
        ("3 2\n0 1\n\n1 1\n", ":4: edges must satisfy u < v"),
        ("", "empty"),
        # refused before an array of 10**10 entries is allocated
        ("10000000000 1\n0 1\n",
         "graph is not connected: 1 edges cannot connect 10000000000 vertices"),
        ("3 1\n0 1 2\n", ":2: expected two integers"),
        ("3 1\n0\n", ":2: expected two integers (edge"),
        ("0 0\n", ":1: invalid header n=0 m=0"),
        ("3 -1\n", ":1: invalid header n=3 m=-1"),
        ("2 1\n0 2\n", ":2: endpoint out of range for n=2"),
    ])
    def test_load_errors(self, tmp_path, text, fragment):
        path = tmp_path / "bad.el"
        path.write_text(text)
        with pytest.raises(LoadError) as err:
            rw.load_edge_list(path)
        assert fragment in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            rw.load_edge_list(tmp_path / "nope.el")

    def test_writer_matches_f_strings(self, tmp_path):
        # ids of one to six digits, each power of ten among them
        g = rw.generate_cycle(100_001)
        path = tmp_path / "c.el"
        rw.save_edge_list(g, path)
        want = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges().tolist()]
        assert path.read_text().split("\n") == want + [""]

    @pytest.mark.parametrize("text", [
        "3 2\n0 1\n1 2\n",
        "\n",  # a blank header
        "3 2\n\n  0   1  \n \n001 2\n\n",  # blank lines, spaces, zeros
        "3 2\n\n\n",  # no edge lines
        "1 0\n", "1 0\n\n",
        "3 2 0\n0 1\n1 2\n",
        "3 2\n0 1 2\n1 2 0\n",  # three fields on every line
        "3 2\n0 1\n1 2\n1 2\n",  # more lines than declared
        "3 1\n0 1\n",  # fewer: not connected
        "3 2\n0 1\n0 1\n",  # duplicate
        "2 1\n0 99999999999999999999\n",  # past int64
        "3 2\n0 1\n2 1\n", "3 2\n0 1\n1 3\n", "0 1\n0 1\n",
        "3 2\r\n0 1\r\n1 2\r\n", "3 2\n+0 1\n1 0_2\n",  # the loop's own
        "3 2\n0\t1\n1 2\n", "3 2\n0 1 # c\n1 2\n",
    ])
    def test_arrays_and_line_loop_agree(self, monkeypatch, tmp_path, text):
        # the same graph or the same LoadError, whether or not the file is
        # parsed as arrays
        path = tmp_path / "g.el"
        path.write_bytes(text.encode())

        def load():
            try:
                return rw.load_edge_list(path)
            except LoadError as exc:
                return str(exc)

        got = load()
        monkeypatch.setattr(graphs, "_plain_edges", lambda text: None)
        assert got == load()

    def test_saved_files_are_parsed_as_arrays(self, tmp_path):
        g, path = rw.generate_heavy_binary_tree(255), tmp_path / "h.el"
        rw.save_edge_list(g, path)
        n, edges = graphs._plain_edges(path.read_text())
        assert n == g.n and np.array_equal(edges, g.edges())


# each family at its smallest legal size and at the sizes the sweeps use
FAMILY_CASES = [
    ("star", (1,)), ("star", (256,)), ("star", (1000,)), ("star", (8192,)),
    ("double_star", (4,)), ("double_star", (6,)), ("double_star", (512,)),
    ("heavy_binary_tree", (3,)), ("heavy_binary_tree", (15,)),
    ("heavy_binary_tree", (1023,)),
    ("siamese_trees", (3,)), ("siamese_trees", (15,)), ("siamese_trees", (511,)),
    *[("cycle_stars_cliques", (m,)) for m in range(3, 11)],
    ("clique_path", (1, 2)), ("clique_path", (2, 2)), ("clique_path", (1, 5)),
    ("clique_path", (5, 7)),
    ("complete", (2,)), ("complete", (3,)), ("complete", (64,)),
    ("cycle", (3,)), ("cycle", (4,)), ("cycle", (100,)),
]


class TestFamiliesAgainstReference:
    """Every deterministic family, built from numpy edge arrays, is the graph
    its list-based reference builds: same vertex count, CSR arrays, tag and
    edge-list bytes."""

    @pytest.mark.parametrize("family,args", FAMILY_CASES,
                             ids=[f"{f}({','.join(map(str, a))})"
                                  for f, a in FAMILY_CASES])
    def test_matches_reference(self, family, args, tmp_path):
        got = getattr(rw, "generate_" + family)(*args)
        want = getattr(helpers, "reference_" + family)(*args)
        assert (got.n, got.family_tag) == (want.n, want.family_tag)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        rw.save_edge_list(got, tmp_path / "got.el")
        rw.save_edge_list(want, tmp_path / "want.el")
        assert (tmp_path / "got.el").read_bytes() == \
            (tmp_path / "want.el").read_bytes()


def _edge_queries(n, edges, gen):
    """Pairs to ask about: every edge in both orders, every (u, u), each
    vertex against 0 and n - 1 both ways, and random pairs (mostly
    non-edges)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ids, ends = np.arange(n), np.repeat([0, n - 1], n)
    rand = gen.integers(0, n, size=(2, 4 * n + 16))
    us = [e[:, 0], e[:, 1], ids, np.tile(ids, 2), ends, rand[0]]
    vs = [e[:, 1], e[:, 0], ids, ends, np.tile(ids, 2), rand[1]]
    return np.concatenate(us), np.concatenate(vs)


def _check_has_edges(g, edges, seed=0):
    """``g.has_edges`` against membership in the set of ``edges``."""
    known = {(min(u, v), max(u, v)) for u, v in edges}
    us, vs = _edge_queries(g.n, edges, np.random.default_rng(seed))
    want = [(min(u, v), max(u, v)) in known
            for u, v in zip(us.tolist(), vs.tolist())]
    assert g.has_edges(us, vs).tolist() == want


class TestHasEdges:
    """``Graph.has_edges`` against the set of the graph's edges."""

    @pytest.mark.parametrize("family,args", FAMILY_CASES,
                             ids=[f"{f}({','.join(map(str, a))})"
                                  for f, a in FAMILY_CASES])
    def test_families(self, family, args):
        g = getattr(rw, "generate_" + family)(*args)
        _check_has_edges(g, g.edges().tolist())

    @pytest.mark.parametrize("n,d", [(4, 3), (64, 8), (512, 9)])
    def test_regular(self, n, d):
        g = rw.generate_random_regular(n, d, seed=5)
        _check_has_edges(g, g.edges().tolist())

    def test_single_vertex_and_no_queries(self):
        g = Graph.from_edges(1, [])
        assert g.has_edges(np.zeros(1, np.int64), np.zeros(1, np.int64)) \
            .tolist() == [False]
        empty = np.zeros(0, np.int64)
        assert rw.generate_cycle(5).has_edges(empty, empty).shape == (0,)

    @given(shape=_shaped_graphs(), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_shaped_graphs(self, shape, seed):
        n, edges = shape
        g, _ = _undirected(n, edges)
        _check_has_edges(g, edges, seed)


def _traced_peak(build):
    """``(build(), peak bytes that tracemalloc saw while it ran)``."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildMemory:
    """tracemalloc peaks on heavy-tree(1023), 131,838 edges. ``from_edges``
    needs one buffer of 2m keys (16 B per edge) beyond its input, and a
    family adds its (m, 2) edge array (16 B per edge); a list of per-edge
    tuples (183 B per edge) or sorting a concatenated copy of the keys
    (32 B per edge) breaks these bounds.  A random regular graph's pairing
    keys are int32 below n = 46,341: 48 B per edge, where int64 keys take
    59."""

    def test_from_edges_bytes_per_edge(self):
        edges = rw.generate_heavy_binary_tree(1023).edges()
        g, peak = _traced_peak(lambda: Graph.from_edges(1023, edges))
        assert peak <= 20 * g.m

    def test_star_bytes_per_edge(self):
        # the center's row is read as one slice of ``indices``, and a level
        # that reaches every vertex left is not listed: 43 B per edge, of
        # which the graph's own arrays are most (58 through _row_entries)
        edges = rw.generate_star(100_000).edges()
        g, peak = _traced_peak(lambda: Graph.from_edges(100_001, edges))
        assert peak <= 48 * g.m

    def test_heavy_tree_bytes_per_edge(self):
        rw.generate_heavy_binary_tree(15)  # warm up any first-call state
        g, peak = _traced_peak(lambda: rw.generate_heavy_binary_tree(1023))
        assert peak <= 64 * g.m

    def test_random_regular_bytes_per_edge(self):
        rw.generate_random_regular(64, 8, 0)  # warm up any first-call state
        g, peak = _traced_peak(lambda: rw.generate_random_regular(16384, 14, 1))
        assert peak <= 52 * g.m


class TestGenerationFailureMessage:
    """A failed generation says why its passes failed: a pairing dead end
    (the leftover stubs cannot form new edges) or a disconnected graph."""

    def test_dense_graph_dead_ends(self):
        with pytest.raises(rw.GenerationFailureError,
                           match="after 5 restarts: 5 pairing dead ends, "
                                 "0 disconnected graphs"):
            rw.generate_random_regular(100, 97, 1, max_restarts=5)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_counts_match_reference(self, seed):
        # (12, 2) passes often end in a union of cycles; count both kinds
        # of failure with the reference pairing, which draws the same stream
        gen = np.random.Generator(np.random.PCG64(seed))
        dead = sum(_reference_pairing_attempt(12, 2, gen) is None
                   for _ in range(3))
        assert reference_random_regular(12, 2, seed, max_restarts=3) is None
        with pytest.raises(rw.GenerationFailureError,
                           match=f"{dead} pairing dead ends, "
                                 f"{3 - dead} disconnected graphs"):
            rw.generate_random_regular(12, 2, seed, max_restarts=3)
