"""Coupled runs, counter recursion, chain-walk congestion, the DP oracle,
and transcript serialization/verification: range checks on load, a fuzz of
the JSON boundary, and golden verify reports."""
import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rumorwalks as rw
from rumorwalks import AgentConfig, InvalidParameterError, TranscriptCorruptError
from rumorwalks.coupling import TRANSCRIPT_FORMAT
from rumorwalks.rng import SimRng

from helpers import (brute_max_congestion, coupling_corpus,
                     reference_c_counters, reference_min_chains,
                     reference_replenish, small_instance_graphs, visit_lists)
from rumorwalks import coupling, protocols


def k2():
    """The complete graph on two vertices, built where a test needs it."""
    return rw.generate_complete(2)


OPV2 = AgentConfig(count=2, placement="one-per-vertex")


def k2_transcript(min_rounds=0):
    return rw.run_coupled_even(k2(), 0, OPV2, SimRng(11), min_rounds=min_rounds)


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
        tr = rw.run_coupled_even(k2(), 0, AgentConfig(count=0), SimRng(4),
                                 round_cap=40)
        assert not tr.visitx_complete
        assert tr.push_complete
        assert tr.tau_push[1] >= 1

    def test_rejects_lazy(self):
        with pytest.raises(InvalidParameterError):
            rw.run_coupled_even(k2(), 0, AgentConfig(count=2, lazy=True),
                                SimRng(0))


class TestRunSettings:
    """``run_coupled`` checks its mode before any other setting, and every
    coupled runner refuses a negative ``min_rounds``."""

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParameterError,
                           match="unknown coupling mode 'banana'"):
            rw.run_coupled(rw.generate_cycle(8), 0, AgentConfig(8), SimRng(1),
                           None, 0, "banana", False, None)

    def test_mode_is_checked_first(self):
        # lazy walks, a bad source, a bad round cap, a negative min_rounds
        # and the occupancy floor outside odd mode are all refused after it
        with pytest.raises(InvalidParameterError,
                           match="unknown coupling mode 'EVEN'"):
            rw.run_coupled(rw.generate_cycle(8), 99,
                           AgentConfig(8, lazy=True), SimRng(1), 0, -1,
                           "EVEN", True, None)

    @pytest.mark.parametrize("mode", ["even", "odd"])
    def test_rejects_negative_min_rounds(self, mode):
        g = rw.generate_cycle(8)
        wrapper = {"even": rw.run_coupled_even, "odd": rw.run_coupled_odd}
        for run in (lambda: rw.run_coupled(g, 0, AgentConfig(8), SimRng(1),
                                           None, -4, mode, False, None),
                    lambda: wrapper[mode](g, 0, AgentConfig(8), SimRng(1),
                                          min_rounds=-4)):
            with pytest.raises(InvalidParameterError,
                               match="min_rounds must be >= 0, got -4"):
                run()
        assert rw.run_coupled(g, 0, AgentConfig(8), SimRng(1), None, 0, mode,
                              False, None).min_rounds == 0

    def test_rejects_non_integer_min_rounds(self):
        # refused before a transcript with "min_rounds":2.5 is written, which
        # transcript_from_json would refuse
        with pytest.raises(InvalidParameterError,
                           match="^min_rounds must be an integer, got 2.5$"):
            rw.run_coupled_even(rw.generate_cycle(8), 0, AgentConfig(8),
                                SimRng(1), min_rounds=2.5)

    @pytest.mark.parametrize("count,min_rounds", [(np.int64(8), 0),
                                                  (8, np.int64(3))])
    def test_numpy_integer_settings_write_plain_ints(self, count, min_rounds):
        # the run keeps the checked Python ints, so the writer takes them
        def dumps(count, min_rounds):
            return rw.transcript_dumps(rw.run_coupled_even(
                rw.generate_cycle(8), 0, AgentConfig(count), SimRng(1),
                min_rounds=min_rounds))
        assert dumps(count, min_rounds) == dumps(int(count), int(min_rounds))


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

    def test_stored_s_set_cycle_is_corrupt(self):
        # vertices 0 and 1 name each other as informing neighbor, both at
        # round 1: the walk back from 0 must stop with a fault, not loop
        # 0 -> 1 -> 0 ... while its chain grows without bound
        obj = json.loads(rw.transcript_dumps(rw.run_coupled_even(
            k2(), 0, AgentConfig(4), SimRng(0), min_rounds=3)))
        obj["visitx"]["t"] = [1, 1]
        obj["s_sets"] = [[0, [1]], [1, [0]]]
        tr = rw.transcript_from_json(obj)

        def hang(_signum, _frame):
            raise AssertionError("chain walk did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(TranscriptCorruptError, match="S-set member 1 "
                               "of vertex 0 is informed at round 1"):
                rw.reconstruct_min_chain_walk(tr, 0, 1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


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
        tr = rw.run_coupled_odd(k2(), 0, OPV2, SimRng(31), min_rounds=4)
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

    def test_added_agent_after_all_informed(self):
        # visit-exchange skips its agent pass once every agent is informed;
        # an agent the floor adds on an uninformed vertex must turn it back
        # on.  verify re-simulates with absent agents masked by ``alive``,
        # so it never skips: it checks the skipping run independently
        tr = rw.run_coupled_odd(rw.generate_cycle(8), 0, AgentConfig(1),
                                SimRng(0), enable_r_floor=True)
        r, _u, g = tr.additions[0]
        assert g == 1 and 0 <= tr.agent_informed_at[0] <= r
        assert tr.agent_informed_at[g] > r  # added uninformed
        assert tr.complete
        assert rw.verify_transcript(tr).ok

    def test_floor_level_needs_r_floor(self):
        # only the occupancy floor reads a floor level, so without it the
        # level is refused rather than dropped
        with pytest.raises(InvalidParameterError, match="needs the occupancy"):
            rw.run_coupled_odd(rw.generate_cycle(6), 0, AgentConfig(count=6),
                               SimRng(3), floor=2.0)

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

    def test_recheck_violation_texts(self):
        # each stored table against its recomputation, in its own words
        tr = rw.run_coupled_even(rw.generate_star(5), 0, AgentConfig(count=6),
                                 SimRng(42))
        bad = copy.deepcopy(tr)
        bad.c_table[-1][1] += 3
        assert rw.verify_transcript(bad).violations == [
            "c-table: stored C-table differs from recomputation"]
        bad = copy.deepcopy(tr)
        u = next(u for u, vs in bad.s_sets.items() if vs)
        bad.s_sets[u] = bad.s_sets[u] + [u]
        assert ("s-sets: stored S-sets differ from recomputation"
                in rw.verify_transcript(bad).violations)

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
    "agent count 2**63": lambda o: o.__setitem__("agent_count", 2 ** 63),
    "walk rounds 2**63": lambda o: o["visitx"].__setitem__("rounds", 2 ** 63),
    "huge n": lambda o: o["graph"].__setitem__("n", 10 ** 12),
    "huge c-table cell": lambda o: o["c_table"][1].__setitem__(0, 2 ** 70),
    "short addition": lambda o: o.__setitem__("additions", [[1, 2]]),
}


def _set(path, value):
    """An edit that sets ``obj[path[0]]...[path[-1]]`` to ``value``, or to
    ``value(old)`` when it is callable."""
    def edit(obj):
        *outer, last = path
        for key in outer:
            obj = obj[key]
        obj[last] = value(obj[last]) if callable(value) else value
    return edit


# each edit puts a value of the wrong JSON type in an integer field (a bool
# is not an integer) or a complete flag of a valid transcript
WRONG_TYPE = {
    "choice: '1'": _set(("choices", 0, 1, 0), "1"),
    "choice: 1.7": _set(("choices", 0, 1, 0), 1.7),
    "choice: true": _set(("choices", 0, 1, 0), True),
    "choice vertex: 0.0": _set(("choices", 0, 0), 0.0),
    "walk_consumed count: '3'": _set(("walk_consumed", 0, 1), "3"),
    "walk_consumed vertex: '0'": _set(("walk_consumed", 0, 0), "0"),
    "S-set member: '6'": _set(("s_sets", 1, 1, 0), "6"),
    "S-set vertex: 1.0": _set(("s_sets", 1, 0), 1.0),
    "source: '0'": _set(("source",), "0"),
    "agent_count: 64.0": _set(("agent_count",), float),
    "visitx.rounds: 14.5": _set(("visitx", "rounds"), lambda r: r + 0.5),
    "c_table cell: x + 0.5": _set(("c_table", 1, 0), lambda x: x + 0.5),
    "edge endpoint: float": _set(("graph", "edges", 0, 1), float),
    "graph.n: 64.0": _set(("graph", "n"), float),
    "seed: '52'": _set(("seed",), "52"),
    "round_cap: true": _set(("round_cap",), True),
    "min_rounds: 0.0": _set(("min_rounds",), 0.0),
    "push.rounds: '13'": _set(("push", "rounds"), "13"),
    "visitx.t: true": _set(("visitx", "t", 3), True),
    "push.tau: 3.0": _set(("push", "tau", 3), 3.0),
    "visitx.agent_informed_at: '1'": _set(
        ("visitx", "agent_informed_at", 1), "1"),
    "visited vertex: float": _set(("visits", 1, 0, 0), float),
    "agent id: true": _set(("visits", 2, 0, 1, 0), True),
    "visitx.complete: 1": _set(("visitx", "complete"), 1),
    "push.complete: 'true'": _set(("push", "complete"), "true"),
}


class TestTranscriptRanges:
    """Out-of-range ids and rounds are load errors, never tracebacks."""

    @pytest.mark.parametrize("edit", sorted(WRONG_TYPE))
    def test_wrong_json_type_rejected_on_load(self, edit):
        obj = _regular64_json()
        WRONG_TYPE[edit](obj)
        field = edit.split(":")[0]
        kind = "boolean" if field.endswith("complete") else "integer"
        with pytest.raises(TranscriptCorruptError,
                           match=f"^{field} must be a JSON {kind}, got "):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_addition_not_an_int(self, at):
        obj = _floor_json()
        obj["additions"][1][at] = float(obj["additions"][1][at])
        with pytest.raises(TranscriptCorruptError,
                           match=r"^addition must be a JSON integer, got "):
            rw.transcript_from_json(obj)

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

    @pytest.mark.parametrize("value", [64, 2 ** 70, -2 ** 70])
    def test_agent_id_bounded_by_population(self, value):
        obj = _regular64_json()
        obj["visits"][2][0][1][0] = value
        with pytest.raises(TranscriptCorruptError,
                           match=rf"^agent id {value} is not \[0, 64\)$"):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("value", [64, -1, 2 ** 63, 2 ** 70, -2 ** 70])
    def test_visited_vertex_bounded_by_n(self, value):
        # the ids are range-checked on their int64 array; one beyond int64
        # is named like any other
        obj = _regular64_json()
        obj["visits"][1][0][0] = value
        obj["visits"][2][0][1][0] = -1  # only the vertex is named
        with pytest.raises(TranscriptCorruptError,
                           match=rf"^visited vertex {value} is not \[0, 64\)$"):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("what", ["visited vertex", "agent id"])
    def test_first_out_of_range_in_list_order_is_named(self, what):
        # 70 comes first in list order; -1 is the least value, 99 the most
        obj = _regular64_json()
        for k, value in ((1, 70), (2, -1), (3, 99)):
            entry = obj["visits"][k][0]
            if what == "visited vertex":
                entry[0] = value
            else:
                entry[1][0] = value
        with pytest.raises(TranscriptCorruptError,
                           match=rf"^{what} 70 is not \[0, 64\)$"):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("value", ["3", -0.5, None, [3]])
    def test_agent_id_not_an_int(self, value):
        # a list that is not all ints is checked one id at a time, so a
        # string is not read as its digits
        obj = _regular64_json()
        obj["visits"][2][0][1][0] = value
        with pytest.raises(TranscriptCorruptError):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("edit,message", [
        (lambda a: a[1].__setitem__(2, a[0][2]), "added agent id 3 is repeated"),
        # the first id, in list order, that is listed more than once
        (lambda a: [e.__setitem__(2, g) for e, g in zip(a, [5, 6, 6, 5])],
         "added agent id 5 is repeated"),
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

    def test_many_additions_checked_in_linear_time(self):
        # 50,000 distinct ids pass the repeat check and fail on the length
        # of agent_informed_at; counting each id in the whole list took
        # tens of seconds
        obj = _floor_json()
        obj["additions"] = [[0, 0, 3 + i] for i in range(50_000)]
        t0 = time.perf_counter()
        with pytest.raises(TranscriptCorruptError,
                           match="^visitx.agent_informed_at has shape"):
            rw.transcript_from_json(obj)
        assert time.perf_counter() - t0 < 1.0
        obj["additions"].append([0, 0, 40_000])
        obj["additions"].append([0, 0, 7])
        with pytest.raises(TranscriptCorruptError,
                           match="^added agent id 7 is repeated$"):
            rw.transcript_from_json(obj)

    @pytest.mark.parametrize("entry", [[0, [1], 2], [0], 5, [0, 1], [0, None],
                                       [0, {"1": 2}], [0, "12"]])
    def test_malformed_visits_entry(self, entry):
        obj = _regular64_json()
        obj["visits"][2][0] = entry
        with pytest.raises(TranscriptCorruptError):
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


def _graph_of(n: int):
    """A path on n vertices: the writer reads only n and the edge list."""
    return rw.Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)])


@st.composite
def _position_matrices(draw):
    """(n, position matrix) pairs: -1 entries, empty rounds (first and last
    included), n = 1, and ids and vertices across 9/10, 99/100 and 999/1000."""
    n = draw(st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]))
    rounds = draw(st.integers(1, 5))
    population = draw(st.sampled_from([0, 1, 3, 10, 11, 101, 1001]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    shape = (rounds, population)
    # vertices near n (and so across the digit boundaries below it) as often
    # as the low ones
    pos = np.where(gen.random(shape) < 0.5, gen.integers(0, n, size=shape),
                   n - 1 - gen.integers(0, min(n, 3), size=shape))
    pos[gen.random(shape) < draw(st.sampled_from([0, 0.3, 1]))] = -1
    for r in draw(st.lists(st.integers(0, rounds - 1), max_size=2)):
        pos[r] = -1
    if draw(st.booleans()):
        pos[draw(st.sampled_from([0, -1]))] = -1
    return n, pos


def _visits_of(text: str) -> str:
    return text.split(',"visits":', 1)[1].split(',"choices":', 1)[0]


class TestVisitsWriter:
    """The visits text written from the position matrix is the JSON of the
    per-cell lists, at the same place in the document."""

    @staticmethod
    @functools.cache
    def base():
        return rw.run_coupled_even(rw.generate_cycle(8), 0, AgentConfig(8),
                                   SimRng(3))

    @given(case=_position_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_cell_lists(self, case):
        n, pos = case
        tr = dataclasses.replace(self.base(), graph=_graph_of(n), positions=pos)
        text = rw.transcript_dumps(tr)
        want = json.dumps(visit_lists(pos, n), separators=(",", ":"))
        assert _visits_of(text) == want
        assert coupling._visits_text(pos, n) == want  # at any size
        assert json.loads(text)["visits"] == visit_lists(pos, n)

    def test_no_agents(self):
        tr = rw.run_coupled_even(rw.generate_cycle(8), 0, AgentConfig(0),
                                 SimRng(1), round_cap=4)
        assert tr.positions.shape == (5, 0)
        assert _visits_of(rw.transcript_dumps(tr)) == "[[],[],[],[],[]]"

    def test_written_transcripts(self):
        for obj in _corpus_json(1):
            tr = rw.transcript_from_json(obj)
            text = rw.transcript_dumps(tr)
            assert json.loads(text) == obj
            assert _visits_of(text) == json.dumps(
                visit_lists(tr.positions, tr.graph.n), separators=(",", ":"))


class TestIntegerWriter:
    """Every table the byte writer takes equals json.dumps of its lists:
    with the size thresholds at 0 every table goes through the writer, and
    at their defaults the small ones go through json.dumps."""

    @staticmethod
    def dumps_both(monkeypatch, tr) -> tuple:
        texts = []
        for small in (0, 10 ** 9):
            monkeypatch.setattr(coupling, "_SMALL_TABLE", small)
            texts.append(rw.transcript_dumps(tr))
        return texts

    @pytest.mark.parametrize("trial", range(2))
    def test_written_transcripts(self, monkeypatch, trial):
        for obj in _corpus_json(trial):
            tr = rw.transcript_from_json(obj)
            writer, lists = self.dumps_both(monkeypatch, tr)
            assert writer == lists == json.dumps(obj, separators=(",", ":"))

    @pytest.mark.parametrize("edit", [
        "no choices", "empty last S-set", "empty first S-set", "all S-sets empty",
        "one value", "widths", "past int32"])
    def test_edge_tables(self, monkeypatch, edit):
        tr = copy.deepcopy(rw.run_coupled_even(
            rw.generate_cycle(8), 0, AgentConfig(8), SimRng(3)))
        wide = [0, 9, 10, 99, 100, 999, 1000, 10 ** 9 - 1, 10 ** 9,
                2 ** 31 - 1, 2 ** 31, 10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1]
        if edit == "no choices":
            tr.choices, tr.walk_consumed = {}, {}
        elif edit == "empty last S-set":
            tr.s_sets[7] = []
        elif edit == "empty first S-set":
            tr.s_sets = {0: [], 1: [0]}
        elif edit == "all S-sets empty":
            tr.s_sets = {u: [] for u in range(8)}
        elif edit == "one value":
            tr.choices, tr.walk_consumed = {3: [4]}, {3: 1}
            tr.s_sets, tr.c_table = {5: [6]}, np.array([[7]])
        elif edit == "past int32":  # where the writer leaves 32-bit digits
            tr.choices = {0: [2 ** 31 - 1, 7], 1: [2 ** 31, 2 ** 32 + 9]}
        else:
            tr.choices = {0: wide, 2: wide[::-1], 5: [wide[-1]]}
            tr.walk_consumed = dict(enumerate(wide))
            tr.c_table = np.array([wide, wide[::-1]], dtype=np.int64)
        writer, lists = self.dumps_both(monkeypatch, tr)
        assert writer == lists
        assert json.loads(writer)["choices"] == [
            [u, ws] for u, ws in sorted(tr.choices.items())]

    def test_empty_graph_and_walk(self, monkeypatch):
        tr = rw.run_coupled_even(rw.Graph.from_edges(1, []), 0,
                                 AgentConfig(0), SimRng(1), round_cap=2)
        writer, lists = self.dumps_both(monkeypatch, tr)
        assert writer == lists
        assert '"edges":[]' in writer and '"visits":[[]]' in writer

    @pytest.mark.parametrize("field,values", [
        ("choices", [-5, 2 ** 63, 2 ** 70, -2 ** 63 - 1]),
        ("walk_consumed", [-1, 2 ** 64]),
        ("c_table", [-3]),
    ])
    def test_loaded_values_outside_int64(self, monkeypatch, field, values):
        # the loader takes any JSON integer here (a choice out of range is
        # a replay violation, a count a consistency one); written back it
        # must be the same text
        obj = _regular64_json()
        for k, value in enumerate(values):
            if field == "choices":
                obj["choices"][k][1][-1] = value
            elif field == "walk_consumed":
                obj["walk_consumed"][k][1] = value
            else:
                obj["c_table"][-1][k] = value
        tr = rw.transcript_from_json(obj)
        for small in (0, 10 ** 9):
            monkeypatch.setattr(coupling, "_SMALL_TABLE", small)
            assert rw.transcript_to_json(tr) == obj
            assert rw.transcript_dumps(tr) == json.dumps(
                obj, separators=(",", ":"))


# keys and values across 9/10, 99/100, 999/1000 and past 2**31
_WIDE_INTS = st.one_of(
    st.sampled_from([0, 9, 10, 99, 100, 999, 1000, 2 ** 31 - 1, 2 ** 31,
                     2 ** 32 + 9, 10 ** 18, 2 ** 63 - 1]),
    st.integers(0, 1100), st.integers(0, 2 ** 63 - 1))


@st.composite
def _keyed_tables(draw):
    """Dicts of integer rows, one row or more, with empty rows first, last
    and in between (in key order)."""
    keys = sorted(draw(st.lists(_WIDE_INTS, min_size=1, max_size=12,
                                unique=True)))
    rows = [draw(st.lists(_WIDE_INTS, max_size=5)) for _ in keys]
    for at in draw(st.lists(st.sampled_from([0, -1, len(keys) // 2]),
                            max_size=3)):
        rows[at] = []
    return dict(zip(keys, rows))


def _keyed_lists(table: dict) -> list:
    return [[u, table[u]] for u in sorted(table)]


class TestKeyedWriter:
    """The keyed-table writer, taking every table (``_SMALL_TABLE`` at 0),
    writes json.dumps of the table's lists: one table for choices and
    S-sets, a list of them, some without keys, for the visits."""

    @given(table=_keyed_tables())
    @example(table={0: []})
    @example(table={7: [0]})
    @example(table={2 ** 31: []})
    @example(table={10 ** 18: [9, 10, 2 ** 63 - 1]})
    @settings(max_examples=300, deadline=None)
    def test_one_table(self, table):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coupling, "_SMALL_TABLE", 0)
            text = coupling._keyed_json(table)
        assert text == json.dumps(_keyed_lists(table), separators=(",", ":"))

    @given(tables=st.lists(st.one_of(st.just({}), _keyed_tables()),
                           max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_list_of_tables(self, tables):
        table, keys, lengths, values = [], [], [], []
        for t, rows in enumerate(tables):
            for u, row in sorted(rows.items()):
                table.append(t)
                keys.append(u)
                lengths.append(len(row))
                values += row
        text = coupling._keyed_text(
            *(np.array(a, dtype=np.int64) for a in (table, keys, lengths,
                                                     values)), len(tables))
        assert text == json.dumps([_keyed_lists(rows) for rows in tables],
                                  separators=(",", ":"))


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


# -- tables over arrays against their loop references ------------------------

def _table_runs():
    """Even and odd coupled runs over the coupling corpus and a
    regular(512, 9) graph; the odd runs on regular graphs keep the
    occupancy floor."""
    graphs = coupling_corpus(0) + [rw.generate_random_regular(512, 9, seed=1)]
    for i, g in enumerate(graphs):
        seed = rw.derive_seed(1901, i)
        yield rw.run_coupled_even(g, 0, AgentConfig(g.n), SimRng(seed))
        yield rw.run_coupled_odd(g, 0, AgentConfig(g.n), SimRng(seed),
                                 enable_r_floor=g.is_regular)


def _same_outcome(fn, ref, tr):
    """``fn(tr)`` and ``ref(tr)``, or the message each raised."""
    out = []
    for f in (fn, ref):
        try:
            out.append(f(tr))
        except TranscriptCorruptError as exc:
            out.append(str(exc))
    return out


def _chains(tr):
    pred, follow, fault = coupling._min_chains(tr)
    return pred.tolist(), follow.tolist(), fault


def _reference_chains(tr):
    pred, follow, fault = reference_min_chains(tr)
    return pred.tolist(), follow.tolist(), {
        w: f for w, f in enumerate(fault) if f is not None}


def _corrupt_s_sets(tr, kind: str, rnd):
    """A copy of ``tr`` whose stored S-set of some informed vertex holds a
    member informed in the same round (with the vertex itself and a lower
    one where there is one), a member never informed, or no member."""
    bad = copy.deepcopy(tr)
    tv = bad.t_visit
    informed = [u for u in range(tv.shape[0]) if tv[u] > 0]
    u = rnd.choice(informed)
    if kind == "same round":
        peers = [v for v in range(tv.shape[0]) if tv[v] == tv[u]]
        bad.s_sets[u] = list(bad.s_sets[u]) + peers[:3]
        low = peers[0]
        if low != u:  # the lowest peer leans on u in turn
            bad.s_sets[low] = list(bad.s_sets[low]) + [u]
    elif kind == "never informed":
        v = rnd.randrange(tv.shape[0])
        bad.t_visit = tv.copy()
        bad.t_visit[v] = -1
        bad.s_sets[u] = [v]
    else:
        bad.s_sets[u] = []
    return bad


class TestTablesAgainstLoops:
    """The C-counters, the minimizing chains and the occupancy floor, taken
    over arrays, give what their loop versions (tests/helpers.py) give."""

    def test_c_counters(self):
        for tr in _table_runs():
            if tr.visitx_complete:
                assert np.array_equal(rw.compute_c_counters(tr),
                                      reference_c_counters(tr))

    def test_min_chains(self):
        for tr in _table_runs():
            if tr.visitx_complete:
                assert _chains(tr) == _reference_chains(tr)

    @pytest.mark.parametrize("kind", ["same round", "never informed", "empty"])
    def test_corrupted_s_sets(self, kind):
        import random
        rnd = random.Random(kind)
        faults = 0
        for tr in _table_runs():
            if not tr.visitx_complete:
                continue
            for _ in range(4):
                bad = _corrupt_s_sets(tr, kind, rnd)
                got, want = _same_outcome(rw.compute_c_counters,
                                          reference_c_counters, bad)
                if isinstance(want, str):  # the chains read the clean C
                    assert got == want
                else:
                    assert np.array_equal(got, want)
                    bad.c_table = want
                got, want = _same_outcome(_chains, _reference_chains, bad)
                assert got == want
                faults += bool(want[2])
        assert faults > 0

    @pytest.mark.parametrize("lower_first", [True, False])
    def test_same_round_member_read_in_vertex_order(self, lower_first):
        # u < v, informed in the same round t: a stored S-set naming the
        # other vertex reads its counter as set when it is the lower one
        # (u, whose own members give k), and as 0 when it is the higher one
        tr = copy.deepcopy(rw.run_coupled_even(
            rw.generate_random_regular(64, 8, seed=5), 0, AgentConfig(64),
            SimRng(5)))
        tv = tr.t_visit.tolist()
        t = next(r for r in range(1, max(tv) + 1) if tv.count(r) > 1)
        u, v = [w for w in range(64) if tv[w] == t][:2]
        k = int(tr.c_table[t][u])
        assert k > 0
        if lower_first:
            tr.s_sets[v] = [u]
            want = (k, k)
        else:
            tr.s_sets[u], tr.s_sets[v] = [v], tr.s_sets[u]
            want = (0, k)
        c = rw.compute_c_counters(tr)
        assert np.array_equal(c, reference_c_counters(tr))
        assert (c[t][u], c[t][v]) == want

    def test_occupancy_floor(self, monkeypatch):
        # the floor adds a round's agents in one append; the run is the one
        # the per-agent appends give
        runs = [(g, count) for g in (rw.generate_cycle(8), rw.generate_cycle(6),
                                     rw.generate_random_regular(64, 8, seed=4),
                                     rw.generate_random_regular(512, 9, seed=1))
                for count in (1, g.n // 2, g.n)]
        added = 0
        for i, (g, count) in enumerate(runs):
            seed = rw.derive_seed(1902, i)
            got = rw.run_coupled_odd(g, 0, AgentConfig(count), SimRng(seed),
                                     min_rounds=6, enable_r_floor=True)
            walk = rw.run_r_visit_exchange(g, 0, AgentConfig(count),
                                           SimRng(seed), min_rounds=6)
            monkeypatch.setattr(coupling, "_occupancy_floor",
                                reference_replenish)
            monkeypatch.setattr(protocols, "_occupancy_floor",
                                reference_replenish)
            want = rw.run_coupled_odd(g, 0, AgentConfig(count), SimRng(seed),
                                      min_rounds=6, enable_r_floor=True)
            ref_walk = rw.run_r_visit_exchange(g, 0, AgentConfig(count),
                                               SimRng(seed), min_rounds=6)
            monkeypatch.undo()
            assert rw.transcript_dumps(got) == rw.transcript_dumps(want)
            assert (walk.rounds, walk.addition_log) == \
                (ref_walk.rounds, ref_walk.addition_log)
            for name in ("vertex_informed_at", "agent_informed_at"):
                assert np.array_equal(getattr(walk.trace, name),
                                      getattr(ref_walk.trace, name))
            added += len(got.additions)
        assert added > 0


class TestRecordedRounds:
    """A transcript's round counts must be the ones its run stops at: push
    at the round its replay completes (the round cap when it does not), the
    walk at min(round_cap, max(min_rounds, last informing round)) when
    complete and at the round cap when not."""

    # (edit, check, message); the message names P and W, the recorded
    # push and walk rounds before the edit, and C, the round cap
    CASES = {
        "push+1": (_set(("push", "rounds"), lambda r: r + 1), "push-replay",
                   "push replay ran {P} rounds, {P1} recorded, round cap {C}"),
        "push-1": (_set(("push", "rounds"), lambda r: r - 1), "push-replay",
                   "push replay disagrees with recorded tau"),
        # the replay stops at the cap, so push does not complete
        "cap below push": (_set(("round_cap",), 11), "push-replay",
                           "push replay disagrees with recorded tau"),
        "min_rounds": (_set(("min_rounds",), 40), "informing",
                       "complete walk recorded {W} rounds, expected 40 from "
                       "round cap {C}, min_rounds 40 and last informing "
                       "round {W}"),
        "incomplete": (_set(("visitx", "complete"), False), "informing",
                       "incomplete walk recorded {W} rounds, round cap {C}"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_corrupted_counts_flagged(self, case):
        edit, check, message = self.CASES[case]
        obj = json.loads(rw.transcript_dumps(rw.run_coupled_even(
            rw.generate_random_regular(64, 8, seed=5), 0, AgentConfig(64),
            SimRng(3))))
        P, W, C = obj["push"]["rounds"], obj["visitx"]["rounds"], \
            obj["round_cap"]
        assert 11 < P and W == max(obj["visitx"]["t"]) < 40
        edit(obj)
        report = rw.verify_transcript(rw.transcript_from_json(obj))
        assert f"{check}: " + message.format(P=P, P1=P + 1, W=W, C=C) \
            in report.violations

    def test_incomplete_push_below_cap(self):
        tr = rw.run_coupled_even(rw.generate_cycle(12), 0, AgentConfig(1),
                                 SimRng(2), round_cap=3)
        assert not tr.push_complete and tr.push_rounds == 3
        obj = json.loads(rw.transcript_dumps(tr))
        obj["round_cap"] = 5  # both stopped 2 rounds short of it
        report = rw.verify_transcript(rw.transcript_from_json(obj))
        assert report.violations == [
            "informing: incomplete walk recorded 3 rounds, round cap 5",
            "push-replay: push replay ran 3 rounds, 3 recorded, round cap 5"]

    def test_written_transcripts_verify(self):
        for tr in itertools.chain(_golden_bases(), _table_runs()):
            report = rw.verify_transcript(rw.transcript_from_json(
                json.loads(rw.transcript_dumps(tr))))
            assert report.ok and report.incomplete == (not tr.complete)


# -- fuzzing the untrusted-input boundary ------------------------------------

@functools.cache
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
    obj = json.loads(draw(st.sampled_from(_fuzz_bases())))
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
