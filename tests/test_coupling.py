"""Coupled runs, counter recursion, chain-walk congestion, the DP oracle,
and transcript serialization/verification: range checks on load, a fuzz of
the JSON boundary, and golden verify reports."""
import copy
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumorwalks as rw
from rumorwalks import AgentConfig, InvalidParameterError, TranscriptCorruptError
from rumorwalks.coupling import TRANSCRIPT_FORMAT
from rumorwalks.rng import SimRng

from helpers import brute_max_congestion, coupling_corpus, small_instance_graphs

K2 = rw.generate_complete(2)
OPV2 = AgentConfig(count=2, placement="one-per-vertex")


def k2_transcript(min_rounds=0):
    return rw.run_coupled_even(K2, 0, OPV2, SimRng(11), min_rounds=min_rounds)


class TestEvenCouplingK2:
    """Hand trace: agent 0 sits on the source, so its first departure fixes
    both the walk step and the source's first sample to the other vertex."""

    def test_informing_times(self):
        tr = k2_transcript()
        assert list(tr.t_visit) == [0, 1]
        assert list(tr.tau_push) == [0, 1]
        assert tr.complete

    def test_counter_value(self):
        tr = k2_transcript()
        ok, violation = rw.verify_tau_leq_c(tr)
        assert ok and violation is None
        assert tr.c_table[1][1] == 1  # min over S = {source}, C_s(1) = 1

    def test_source_counter_row(self):
        tr = k2_transcript()
        assert tr.c_table[0][0] == 0
        # before a vertex is informed its counter is pinned at zero
        assert tr.c_table[0][1] == 0

    def test_first_sample_shared(self):
        tr = k2_transcript()
        assert tr.choices[0][0] == 1
        assert tr.walk_consumed[0] >= 1

    def test_growth_matches_visits(self):
        tr = k2_transcript(min_rounds=5)
        for u in range(2):
            tu = tr.t_visit[u]
            for t in range(tu + 1, tr.visitx_rounds + 1):
                z = np.count_nonzero(tr.positions[t - 1] == u)
                expected = tr.c_table[t - 1][u] + z
                assert tr.c_table[t][u] == expected

    def test_counter_monotone(self):
        tr = k2_transcript(min_rounds=7)
        for u in range(2):
            col = tr.c_table[tr.t_visit[u]:, u]
            assert np.all(np.diff(col) >= 0)


class TestEvenCouplingFamilies:
    @pytest.mark.parametrize("make,source", [
        (lambda: rw.generate_star(8), 0),
        (lambda: rw.generate_star(8), 3),
        (lambda: rw.generate_cycle(7), 2),
        (lambda: rw.generate_double_star(10), 0),
        (lambda: rw.generate_heavy_binary_tree(15), 14),
        (lambda: rw.generate_random_regular(24, 4, seed=3), 0),
    ])
    def test_bound_and_checks_hold(self, make, source):
        g = make()
        for i in range(5):
            tr = rw.run_coupled_even(g, source, AgentConfig(count=g.n),
                                     SimRng(rw.derive_seed(200, g.family_tag,
                                                           source, i)))
            assert tr.complete
            ok, violation = rw.verify_tau_leq_c(tr)
            assert ok, violation
            report = rw.verify_transcript(tr)
            assert report.ok, report.checks

    def test_star_consumption_order(self):
        # with the lone informed agent starting on the center, push and the
        # agent consume the same choices in the same order
        g = rw.generate_star(6)
        tr = rw.run_coupled_even(g, 0, AgentConfig(count=1),
                                 SimRng(1))  # seed 1 places the agent at 0
        assert tr.positions[0, 0] == 0, "premise: agent starts on the source"
        report = rw.verify_transcript(tr)
        assert report.ok
        assert report.checks["oracle-consistency"]

    def test_zero_agents(self):
        tr = rw.run_coupled_even(K2, 0, AgentConfig(count=0), SimRng(4),
                                 round_cap=40)
        assert not tr.visitx_complete
        assert tr.push_complete
        assert tr.tau_push[1] >= 1

    def test_rejects_lazy(self):
        with pytest.raises(InvalidParameterError):
            rw.run_coupled_even(K2, 0, AgentConfig(count=2, lazy=True), SimRng(0))


class TestChainWalks:
    def test_source_at_zero(self):
        tr = k2_transcript()
        walk = rw.reconstruct_min_chain_walk(tr, 0, 0)
        assert walk.vertices == [0]
        assert walk.congestion == 0

    def test_k2_one_hop(self):
        tr = k2_transcript()
        walk = rw.reconstruct_min_chain_walk(tr, 1, 1)
        assert walk.vertices == [0, 1]
        assert walk.congestion == 1 == tr.c_table[1][1]

    def test_equality_everywhere_random_regular(self):
        g = rw.generate_random_regular(48, 4, seed=21)
        tr = rw.run_coupled_even(g, 0, AgentConfig(count=48), SimRng(22))
        assert tr.complete
        for u in range(g.n):
            for t in range(tr.t_visit[u], tr.visitx_rounds + 1):
                walk = rw.reconstruct_min_chain_walk(tr, u, t)
                assert walk.congestion == tr.c_table[t][u]
                assert len(walk.vertices) == t + 1
                assert walk.vertices[0] == tr.source
                assert walk.vertices[-1] == u


class TestCongestionDP:
    def test_round_zero(self):
        tr = k2_transcript()
        dp = rw.max_congestion_dp(tr, 0)
        assert dp[0][tr.source] == 0
        assert dp[0][1] == -1

    def test_single_agent_bounded(self):
        g = rw.generate_cycle(6)
        tr = rw.run_coupled_even(g, 0, AgentConfig(count=1),
                                 SimRng(1), min_rounds=5, round_cap=4000)
        dp = rw.max_congestion_dp(tr, 5)
        assert dp.max() <= 5

    def test_matches_bruteforce(self):
        checked = 0
        for i, g in enumerate(small_instance_graphs()):
            tr = rw.run_coupled_even(g, 0, AgentConfig(count=1 + i % 3),
                                     SimRng(rw.derive_seed(201, i)),
                                     min_rounds=5, round_cap=6000)
            for k in (0, 2, 5):
                assert np.array_equal(rw.max_congestion_dp(tr, k),
                                      brute_max_congestion(tr, k))
                checked += 1
        assert checked >= 60

    def test_chain_congestion_below_dp_max(self):
        g = rw.generate_star(6)
        tr = rw.run_coupled_even(g, 0, AgentConfig(count=7), SimRng(9))
        assert tr.complete
        for u in range(g.n):
            t = int(tr.t_visit[u])
            dp = rw.max_congestion_dp(tr, t)
            assert tr.c_table[t][u] <= dp[t][u]


class TestOddCoupling:
    def test_k2_even_visit_consumes(self):
        tr = rw.run_coupled_odd(K2, 0, OPV2, SimRng(31), min_rounds=4)
        # agent 0 is on the source at round 0 (even), so its round-1 step
        # consumed w_s(1), which is forced to the other vertex
        assert tr.choices[0][0] == 1
        assert tr.walk_consumed.get(0, 0) >= 1
        assert rw.verify_transcript(tr).ok

    def test_families_verify(self):
        for i, g in enumerate([rw.generate_cycle(6), rw.generate_star(5),
                               rw.generate_random_regular(16, 4, seed=5)]):
            tr = rw.run_coupled_odd(g, 0, AgentConfig(count=g.n),
                                    SimRng(rw.derive_seed(202, i)))
            assert tr.complete
            assert rw.verify_transcript(tr).ok

    def test_r_floor_mode(self):
        g = rw.generate_cycle(6)
        tr = rw.run_coupled_odd(g, 0, AgentConfig(count=6), SimRng(3),
                                min_rounds=6, enable_r_floor=True)
        assert tr.floor == 6 * 2 / (2 * 6)
        assert rw.verify_transcript(tr).ok

    def test_added_agents_absent_before_arrival(self):
        tr = rw.run_coupled_odd(rw.generate_cycle(8), 0, AgentConfig(3),
                                SimRng(0), min_rounds=6, enable_r_floor=True)
        assert tr.additions
        assert tr.positions.shape == (tr.visitx_rounds + 1,
                                      3 + len(tr.additions))
        for r, _u, g in tr.additions:
            assert (tr.positions[:r, g] == -1).all()
            assert (tr.positions[r:, g] >= 0).all()

    def test_r_floor_requires_regular(self):
        with pytest.raises(InvalidParameterError):
            rw.run_coupled_odd(rw.generate_star(4), 0, AgentConfig(count=5),
                               SimRng(1), enable_r_floor=True)

    def test_tail_ratio_bounded(self):
        # visit-exchange informing times stay within a small multiple of
        # tau + log2(n) on regular graphs
        ratios = []
        for i in range(5):
            g = rw.generate_random_regular(256, 8, seed=rw.derive_seed(203, i))
            tr = rw.run_coupled_odd(g, 0, AgentConfig(count=256),
                                    SimRng(rw.derive_seed(204, i)))
            assert tr.complete
            lg = math.log2(256)
            ratios.extend(tr.t_visit[u] / (tr.tau_push[u] + lg)
                          for u in range(1, g.n))
        assert float(np.quantile(ratios, 0.99)) <= 4.0


def _planted_violation(tr):
    bad = copy.deepcopy(tr)
    u = int(np.argmax(bad.t_visit))
    bound = bad.c_table[bad.t_visit[u]][u]
    bad.tau_push[u] = bound + 1
    return bad, u


class TestVerification:
    def test_negative_control_tau(self):
        tr = rw.run_coupled_even(rw.generate_cycle(6), 0, AgentConfig(count=6),
                                 SimRng(41))
        assert tr.complete
        bad, u = _planted_violation(tr)
        ok, violation = rw.verify_tau_leq_c(bad)
        assert not ok
        assert violation[0] == u

    def test_corrupt_c_table_detected(self):
        tr = rw.run_coupled_even(rw.generate_star(5), 0, AgentConfig(count=6),
                                 SimRng(42))
        bad = copy.deepcopy(tr)
        bad.c_table[-1][1] += 3
        report = rw.verify_transcript(bad)
        assert not report.ok
        assert not report.checks["c-table"]

    def test_corrupt_choices_detected(self):
        tr = rw.run_coupled_even(rw.generate_cycle(5), 0, AgentConfig(count=5),
                                 SimRng(43))
        bad = copy.deepcopy(tr)
        u = next(iter(bad.choices))
        nbrs = [v for v in (0, 1, 2, 3, 4) if v != bad.choices[u][0]
                and v in [int(x) for x in bad.graph.neighbors(u)]]
        bad.choices[u][0] = nbrs[0]
        report = rw.verify_transcript(bad)
        assert not report.ok

    def test_corrupt_visits_detected(self):
        tr = rw.run_coupled_even(rw.generate_cycle(5), 0, AgentConfig(count=5),
                                 SimRng(44))
        bad = copy.deepcopy(tr)
        bad.positions[1, 0] = -1  # agent 0 goes missing at round 1
        report = rw.verify_transcript(bad)
        assert not report.ok
        assert not report.checks["conservation"]

    def test_incomplete_report(self):
        tr = rw.run_coupled_even(rw.generate_cycle(12), 0, AgentConfig(count=1),
                                 SimRng(2), round_cap=3)
        report = rw.verify_transcript(tr)
        assert report.incomplete


class TestTranscriptJson:
    def test_round_trip_verifies(self):
        g = rw.generate_random_regular(16, 4, seed=7)
        tr = rw.run_coupled_even(g, 0, AgentConfig(count=16), SimRng(51))
        blob = rw.transcript_dumps(tr)
        tr2 = rw.transcript_from_json(json.loads(blob))
        assert tr2.graph == tr.graph
        assert np.array_equal(tr2.t_visit, tr.t_visit)
        assert np.array_equal(tr2.tau_push, tr.tau_push)
        assert np.array_equal(tr2.c_table, tr.c_table)
        assert rw.verify_transcript(tr2).ok
        # serialization is stable
        assert rw.transcript_dumps(tr2) == blob

    def test_format_tag_checked(self):
        tr = k2_transcript()
        obj = rw.transcript_to_json(tr)
        assert obj["format"] == TRANSCRIPT_FORMAT
        obj["format"] = "something-else"
        with pytest.raises(TranscriptCorruptError):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("mode", ["bogus", "Even", None, 0])
    def test_mode_checked(self, mode):
        # the mode picks the checks verification runs, so an unknown one
        # cannot load
        obj = rw.transcript_to_json(k2_transcript())
        obj["mode"] = mode
        with pytest.raises(TranscriptCorruptError, match="coupling mode"):
            rw.transcript_from_json(obj)

    def test_planted_violation_survives_round_trip(self):
        tr = rw.run_coupled_even(rw.generate_cycle(6), 0, AgentConfig(count=6),
                                 SimRng(45))
        bad, u = _planted_violation(tr)
        obj = json.loads(rw.transcript_dumps(bad))
        back = rw.transcript_from_json(obj)
        ok, violation = rw.verify_tau_leq_c(back)
        assert not ok and violation[0] == u


def _regular64_json():
    g = rw.generate_random_regular(64, 4, seed=7)
    tr = rw.run_coupled_even(g, 0, AgentConfig(count=64), SimRng(52))
    assert tr.complete and rw.verify_transcript(tr).ok
    return json.loads(rw.transcript_dumps(tr))


def _first_nonempty_s_set(obj):
    return next(vs for _u, vs in obj["s_sets"] if vs)


# each edit puts one id, round or length out of range in a valid transcript
OUT_OF_RANGE = {
    "visited vertex n": lambda o: o["visits"][1][0].__setitem__(0, 64),
    "visited vertex -1": lambda o: o["visits"][1][0].__setitem__(0, -1),
    "agent id -1": lambda o: o["visits"][2][0][1].__setitem__(0, -1),
    "source 999": lambda o: o.__setitem__("source", 999),
    "source -1": lambda o: o.__setitem__("source", -1),
    "t 10**6": lambda o: o["visitx"]["t"].__setitem__(3, 10 ** 6),
    "t -2": lambda o: o["visitx"]["t"].__setitem__(3, -2),
    "t rounds+1": lambda o: o["visitx"]["t"].__setitem__(
        3, o["visitx"]["rounds"] + 1),
    "t too short": lambda o: o["visitx"]["t"].pop(),
    "tau too long": lambda o: o["push"]["tau"].append(1),
    "agent_informed_at too short": lambda o: o["visitx"][
        "agent_informed_at"].pop(),
    "s-set member 999": lambda o: _first_nonempty_s_set(o).__setitem__(0, 999),
    "s-set vertex 64": lambda o: o["s_sets"][3].__setitem__(0, 64),
    "visits too short": lambda o: o["visits"].pop(),
    "huge walk rounds": lambda o: o["visitx"].__setitem__("rounds", 10 ** 18),
    "huge agent count": lambda o: o.__setitem__("agent_count", 10 ** 18),
    "huge n": lambda o: o["graph"].__setitem__("n", 10 ** 12),
    "huge c-table cell": lambda o: o["c_table"][1].__setitem__(0, 2 ** 70),
    "short addition": lambda o: o.__setitem__("additions", [[1, 2]]),
}


class TestTranscriptRanges:
    """Out-of-range ids and rounds are load errors, never tracebacks."""

    @pytest.mark.parametrize("edit", sorted(OUT_OF_RANGE))
    def test_rejected_on_load(self, edit):
        obj = _regular64_json()
        OUT_OF_RANGE[edit](obj)
        with pytest.raises(TranscriptCorruptError):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("value", [-1, 64, 999, 2 ** 70])
    def test_out_of_range_choice_is_a_replay_violation(self, value):
        obj = _regular64_json()
        u, ws = obj["choices"][0]
        ws[0] = value
        report = rw.verify_transcript(rw.transcript_from_json(obj))
        assert not report.checks["push-replay"]
        assert f"push-replay: recorded choice {value} is not a neighbor " \
               f"of {u}" in report.violations

    def test_not_an_object(self):
        with pytest.raises(TranscriptCorruptError):
            rw.transcript_from_json([1, 2, 3])

    @pytest.mark.parametrize("value", [64, 2 ** 70])
    def test_agent_id_bounded_by_population(self, value):
        obj = _regular64_json()
        obj["visits"][2][0][1][0] = value
        with pytest.raises(TranscriptCorruptError,
                           match=rf"^agent id {value} is not \[0, 64\)$"):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("edit,message", [
        (lambda a: a[1].__setitem__(2, a[0][2]), "added agent id 3 is repeated"),
        (lambda a: a[0].__setitem__(2, 2), r"added agent id 2 is not \[3, 7\)"),
        (lambda a: a[0].__setitem__(2, 7), r"added agent id 7 is not \[3, 7\)"),
        (lambda a: a[0].__setitem__(0, 7), r"addition round 7 is not \[0, 7\)"),
        (lambda a: a[0].__setitem__(0, -1), r"addition round -1 is not \[0, 7\)"),
        (lambda a: a[0].__setitem__(1, 8), r"addition vertex 8 is not \[0, 8\)"),
    ])
    def test_additions_rejected_on_load(self, edit, message):
        obj = _floor_json()
        edit(obj["additions"])
        with pytest.raises(TranscriptCorruptError, match=f"^{message}$"):
            rw.transcript_from_json(obj)


def _floor_json():
    """An odd-coupling transcript of six rounds on the 8-cycle whose
    occupancy floor adds agents 3, 4 (round 1) and 5, 6 (round 3)."""
    tr = rw.run_coupled_odd(rw.generate_cycle(8), 0, AgentConfig(3),
                            SimRng(0), min_rounds=6, enable_r_floor=True)
    assert [(r, g) for r, _u, g in tr.additions] == [(1, 3), (1, 4), (3, 5),
                                                     (3, 6)]
    assert tr.visitx_rounds == 6 and rw.verify_transcript(tr).ok
    return json.loads(rw.transcript_dumps(tr))


def _entry(obj, r, size=1):
    """The first visits entry of round r with at least ``size`` agents."""
    return next(e for e in obj["visits"][r] if len(e[1]) >= size)


def _list_twice_in_list(obj, r):
    agents = _entry(obj, r)[1]
    agents.insert(0, agents[0])


def _list_twice_elsewhere(obj, r):
    first, second = obj["visits"][r][:2]
    second[1] = sorted(second[1] + first[1][:1])


def _drop(obj, r):
    _entry(obj, r)[1].pop()


def _split_vertex(obj, r):
    # [u, [a, b, ...]] becomes [u, [a]], [u, [b, ...]]: the later list wins
    entry = _entry(obj, r, 2)
    i = obj["visits"][r].index(entry)
    obj["visits"][r][i:i + 1] = [[entry[0], entry[1][:1]],
                                 [entry[0], entry[1][1:]]]


NOT_A_PARTITION = {"agent twice in one list": _list_twice_in_list,
                   "agent at two vertices": _list_twice_elsewhere,
                   "agent missing": _drop,
                   "vertex listed twice": _split_vertex}


class TestConservation:
    """A round that does not partition the agents still loads, and the
    conservation check names the first such round."""

    @staticmethod
    def flagged(obj) -> str:
        report = rw.verify_transcript(rw.transcript_from_json(obj))
        assert not report.checks["conservation"]
        return report.violations[0]

    @pytest.mark.parametrize("fault", sorted(NOT_A_PARTITION))
    def test_flags_round(self, fault):
        obj = _regular64_json()
        r = next(r for r in range(1, len(obj["visits"]))
                 if any(len(e[1]) >= 2 for e in obj["visits"][r]))
        NOT_A_PARTITION[fault](obj, r)
        assert self.flagged(obj) == \
            f"conservation: round {r} does not partition the agent population"

    @pytest.mark.parametrize("early,late", [("agent twice in one list",
                                             "agent missing"),
                                            ("agent missing",
                                             "agent twice in one list")])
    def test_first_round_of_either_kind(self, early, late):
        obj = _regular64_json()
        NOT_A_PARTITION[late](obj, 4)
        NOT_A_PARTITION[early](obj, 2)
        assert self.flagged(obj).startswith("conservation: round 2 ")

    def test_added_agent_before_arrival(self):
        obj = _floor_json()
        obj["visits"][2].append([7, [5]])  # agent 5 arrives at round 3
        obj["visits"][2].sort()
        assert self.flagged(obj) == \
            "conservation: round 2 does not partition the agent population"


class TestJsonRoundTrip:
    """Loading and writing back a transcript gives the same JSON object."""

    @pytest.mark.parametrize("trial", range(2))
    def test_round_trip_over_corpus(self, trial):
        added = 0
        for i, g in enumerate(coupling_corpus(trial)):
            seed = rw.derive_seed(205, trial, i)
            runs = [rw.run_coupled_even(g, 0, AgentConfig(g.n), SimRng(seed)),
                    rw.run_coupled_odd(g, 0, AgentConfig(g.n), SimRng(seed))]
            if g.is_regular:
                runs.append(rw.run_coupled_odd(
                    g, 0, AgentConfig(max(1, g.n // 2)), SimRng(seed),
                    min_rounds=6, enable_r_floor=True))
            for tr in runs:
                obj = json.loads(rw.transcript_dumps(tr))
                assert rw.transcript_to_json(rw.transcript_from_json(obj)) \
                    == obj
                added += len(obj["additions"])
        assert added > 0


def _corpus_json(trial: int):
    """Even, odd and (on the regular graph) odd-with-floor transcripts of
    the coupling corpus, as JSON objects."""
    for i, g in enumerate(coupling_corpus(trial)):
        seed = rw.derive_seed(205, trial, i)
        yield json.loads(rw.transcript_dumps(rw.run_coupled_odd(
            g, 0, AgentConfig(g.n), SimRng(seed))))
        if g.is_regular:
            yield json.loads(rw.transcript_dumps(rw.run_coupled_odd(
                g, 0, AgentConfig(1), SimRng(seed), min_rounds=6,
                enable_r_floor=True)))


class TestLoaderBound:
    """The loader refuses a position matrix out of proportion to the agent
    ids its JSON lists, before allocating it; written transcripts load."""

    def test_sparse_matrix_refused_unallocated(self):
        obj = _regular64_json()
        obj["visitx"]["rounds"] = 2999
        obj["visits"] = [[] for _ in range(3000)]
        obj["agent_count"] = 3000
        obj["visitx"]["agent_informed_at"] = [-1] * 3000
        text = json.dumps(obj)
        assert len(text) < 40_000  # the matrix would take 69 MiB
        tracemalloc.start()
        try:
            with pytest.raises(TranscriptCorruptError,
                               match="^0 listed agent ids cannot fill 3000 "
                                     "rounds of 3000 agents$"):
                rw.transcript_from_json(json.loads(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_missing_agent_loads(self):
        obj = _regular64_json()
        _drop(obj, 3)
        assert TestConservation.flagged(obj) == \
            "conservation: round 3 does not partition the agent population"

    def test_written_transcripts_well_inside(self):
        # a floor run starting from one agent adds most of its population
        added = 0
        for obj in _corpus_json(0):
            population = obj["agent_count"] + len(obj["additions"])
            listed = sum(len(e[1]) for r in obj["visits"] for e in r)
            cells = len(obj["visits"]) * population
            assert cells <= 2 * (listed + len(obj["visits"]))
            rw.transcript_from_json(obj)
            added += len(obj["additions"])
        assert added > 0


# -- fuzzing the untrusted-input boundary ------------------------------------

def _fuzz_bases():
    runs = [rw.run_coupled_even(rw.generate_cycle(8), 0, AgentConfig(8),
                                SimRng(3)),
            rw.run_coupled_odd(rw.generate_star(5), 0, AgentConfig(6),
                               SimRng(4)),
            rw.run_coupled_odd(rw.generate_cycle(6), 0, AgentConfig(6),
                               SimRng(3), min_rounds=6, enable_r_floor=True),
            rw.run_coupled_even(rw.generate_cycle(12), 0, AgentConfig(1),
                                SimRng(2), round_cap=3)]
    return [rw.transcript_dumps(tr) for tr in runs]


FUZZ_BASES = _fuzz_bases()

FUZZ_VALUES = st.one_of(
    st.integers(-3, 70),
    st.sampled_from([10 ** 6, 2 ** 31, 2 ** 63 - 1, 2 ** 63, 2 ** 70,
                     -2 ** 63 - 1, -10 ** 30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3), st.none(), st.booleans(),
    st.lists(st.integers(-2, 66), max_size=3),
    st.lists(st.lists(st.integers(-2, 66), max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2))


@st.composite
def _mutated_transcript(draw):
    """A transcript's JSON with one field replaced, removed or resized."""
    obj = json.loads(draw(st.sampled_from(FUZZ_BASES)))
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node:
        if parent is not None and draw(st.booleans()):
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = parent[key]
    action = draw(st.sampled_from(["replace", "remove", "grow"]))
    if action == "remove":
        parent.pop(key)
    elif action == "grow" and isinstance(parent, list):
        parent.insert(key, draw(FUZZ_VALUES))
    else:
        parent[key] = draw(FUZZ_VALUES)
    return obj


class TestFuzzTranscripts:
    @given(obj=_mutated_transcript())
    @settings(max_examples=400, deadline=None)
    def test_report_or_corrupt_error(self, obj):
        try:
            tr = rw.transcript_from_json(obj)
        except TranscriptCorruptError:
            return
        try:
            report = rw.verify_transcript(tr)
        except TranscriptCorruptError:
            return
        assert isinstance(report, rw.VerifyReport)
        assert report.ok == (not report.violations)


# -- golden verify reports -----------------------------------------------------

def _golden_bases():
    """Even, odd and odd+floor transcripts, complete and not."""
    even = [(rw.generate_complete(2), 0, 2), (rw.generate_cycle(8), 3, 8),
            (rw.generate_star(16), 0, 17), (rw.generate_star(16), 9, 17),
            (rw.generate_heavy_binary_tree(15), 14, 15),
            (rw.generate_double_star(8), 0, 8),
            (rw.generate_random_regular(32, 4, seed=9), 5, 32)]
    for k, (g, source, count) in enumerate(even):
        for s in range(2):
            yield rw.run_coupled_even(g, source, AgentConfig(count),
                                      SimRng(6007 * k + s))
    for k, g in enumerate([rw.generate_cycle(8), rw.generate_star(6),
                           rw.generate_random_regular(16, 4, seed=5)]):
        for s in range(2):
            yield rw.run_coupled_odd(g, 0, AgentConfig(g.n),
                                     SimRng(7001 * k + s))
    for k, g in enumerate([rw.generate_cycle(6),
                           rw.generate_random_regular(16, 4, seed=5)]):
        yield rw.run_coupled_odd(g, 0, AgentConfig(g.n // 2), SimRng(31 + k),
                                 min_rounds=6, enable_r_floor=True)
    yield rw.run_coupled_even(rw.generate_cycle(12), 0, AgentConfig(1),
                              SimRng(2), round_cap=3)


def _golden_mutations(obj):
    """(label, mutated copy) pairs: one fault each, all in range."""
    n, T = obj["graph"]["n"], obj["visitx"]["rounds"]
    src, t = obj["source"], obj["visitx"]["t"]
    late = max(range(n), key=lambda u: (t[u], u))
    mid = next((u for u in range(n) if u != src and 0 < t[u] < T), None)
    busiest = max(range(len(obj["choices"])),
                  key=lambda j: len(obj["choices"][j][1]))

    def edit(label, fn, drop_tables=False):
        o = copy.deepcopy(obj)
        if drop_tables:
            o.pop("s_sets", None)
            o.pop("c_table", None)
        fn(o)
        return label, o

    def swap(o):
        ws = o["choices"][busiest][1]
        ws[0], ws[-1] = ws[-1], ws[0]

    def set_choice(value):
        def fn(o):
            o["choices"][busiest][1][len(o["choices"][busiest][1]) // 2] = value
        return fn

    def drop_agent(o):
        r = 1 + (T - 1) // 2
        next(ags for _u, ags in o["visits"][r] if ags).pop()

    def move_agent(o):
        r = 1 + (T - 1) // 2
        entry = next(e for e in o["visits"][r] if e[1])
        g = entry[1].pop()
        other = next((e for e in o["visits"][r] if e is not entry), None)
        if other is None:
            o["visits"][r].append([(entry[0] + 1) % n, [g]])
            o["visits"][r].sort()
        else:
            other[1].append(g)
            other[1].sort()

    def plant_tau(o):
        o["push"]["tau"][late] = o["c_table"][t[late]][late] + 1

    def source_at(value, other=None):
        def fn(o):
            o["visitx"]["t"][src] = value
            if other is not None:
                o["visitx"]["t"][other] = 0
        return fn

    out = [edit("clean", lambda o: None),
           edit("swapped choice", swap),
           edit("non-neighbor choice", set_choice(src if n > 2 else 0)),
           edit("choice -1", set_choice(-1)),
           edit("choice n", set_choice(n)),
           edit("truncated choices", lambda o: o["choices"][busiest][1].__delitem__(
               slice(len(o["choices"][busiest][1]) // 2, None))),
           edit("dropped agent", drop_agent),
           edit("moved agent", move_agent),
           edit("moved agent, no tables", move_agent, True)]
    if "c_table" in obj:
        out += [edit("shifted C cell", lambda o: o["c_table"][T].__setitem__(
                    late, o["c_table"][T][late] + 1)),
                edit("tau > C", plant_tau)]
    if mid is not None:
        out += [edit("bumped t", lambda o: o["visitx"]["t"].__setitem__(
                    mid, t[mid] + 1)),
                edit("bumped t, no tables", lambda o: o["visitx"]["t"].__setitem__(
                    mid, t[mid] + 1), True),
                edit("t = 0, no tables", lambda o: o["visitx"]["t"].__setitem__(
                    mid, 0), True)]
    nbr = min(v for a, b in obj["graph"]["edges"] for u, v in ((a, b), (b, a))
              if u == src)
    out += [edit("source t = -1, neighbor t = 0", source_at(-1, nbr), True),
            edit("source t = -1", source_at(-1), True)]
    return out


def _report_digest():
    h = hashlib.sha256()
    cases = 0
    for tr in _golden_bases():
        obj = json.loads(rw.transcript_dumps(tr))
        for label, mutated in _golden_mutations(obj):
            rep = rw.verify_transcript(rw.transcript_from_json(mutated))
            h.update(repr((label, rep.ok, rep.incomplete,
                           list(rep.checks.items()),
                           rep.violations)).encode())
            cases += 1
    return h.hexdigest(), cases


class TestGoldenVerifyReports:
    """Every check of the verifier, pinned by the reports it gives on
    mutated transcripts: the first failing (u, t) of the chain-walk check,
    the order of push-replay's two messages, and which checks run."""

    def test_reports_match_recorded_digest(self):
        digest, cases = _report_digest()
        assert cases == GOLDEN_VERIFY_CASES
        assert digest == GOLDEN_VERIFY_DIGEST


# recorded from the scalar verifier that preceded the one-pass chain check
GOLDEN_VERIFY_CASES = 357
GOLDEN_VERIFY_DIGEST = \
    "3e0645384c967617090995747a45c6221feec6dcda75d8e969dccd287773d03f"
