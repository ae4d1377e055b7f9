"""Config round-tripping, trial aggregation, CSV stability, ratios, fits,
and the parallel path."""
import concurrent.futures
import hashlib
import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import rumorwalks as rw
from rumorwalks import experiments
from rumorwalks import ConfigError, ExperimentConfig, FitError
from rumorwalks.experiments import CSV_HEADER, GROWTH_MODELS, build_graph

from helpers import fail_generation

SHIPPED = sorted((Path(__file__).resolve().parent.parent
                  / "experiments").glob("*.cfg"))


def small_config(**overrides):
    base = dict(family="star", protocols=("push",), sweep=(16,), trials=5,
                seed=77)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    GOOD = """\
# acceptance sweep
family = star
protocols = visit-exchange, meet-exchange
sweep = 256, 512
trials = 10
seed = 42
lazy = true
source = center
"""

    def test_parse_good(self):
        cfg = rw.parse_config(self.GOOD)
        assert cfg.family == "star"
        assert cfg.protocols == ("visit-exchange", "meet-exchange")
        assert cfg.sweep == (256, 512)
        assert cfg.lazy is True
        assert cfg.source == "center"
        assert cfg.alpha == 1.0

    def test_round_trip(self):
        for cfg in [
            small_config(),
            small_config(family="regular", d="log2ceil", sweep=(64, 128),
                         protocols=("push", "visit-exchange")),
            small_config(protocols=("t-visit-exchange", "r-visit-exchange"),
                         alpha=0.5, agents=7, lazy=True, source="leaf",
                         gamma=2 * math.e, floor=1.25, round_cap=999,
                         jobs=3, bootstrap=50),
            *(rw.parse_config_file(path) for path in SHIPPED),
        ]:
            assert rw.parse_config(rw.format_config(cfg)) == cfg
        assert len(SHIPPED) == 15

    def test_format_every_field(self):
        # every key, in ExperimentConfig's field order, one per line
        cfg = small_config(family="regular",
                           protocols=("push", "t-visit-exchange",
                                      "r-visit-exchange"),
                           sweep=(64, 128), alpha=0.5, agents=7,
                           placement="one-per-vertex", lazy=True,
                           source="leaf", d="log2ceil", gamma=2 * math.e,
                           floor=1.25, round_cap=999, jobs=3, bootstrap=50)
        assert rw.format_config(cfg) == (
            "family = regular\n"
            "protocols = push, t-visit-exchange, r-visit-exchange\n"
            "sweep = 64, 128\n"
            "trials = 5\n"
            "seed = 77\n"
            "alpha = 0.5\n"
            "agents = 7\n"
            "placement = one-per-vertex\n"
            "lazy = true\n"
            "source = leaf\n"
            "d = log2ceil\n"
            "gamma = 5.43656365691809\n"
            "floor = 1.25\n"
            "round_cap = 999\n"
            "jobs = 3\n"
            "bootstrap = 50\n")
        assert rw.parse_config(rw.format_config(cfg)) == cfg

    def test_format_defaults(self):
        # optional keys left at None are not written, nor are the defaults
        # of settings no protocol reads; the rest always are
        assert rw.format_config(small_config(protocols=("visit-exchange",))) \
            == ("family = star\nprotocols = visit-exchange\nsweep = 16\n"
                "trials = 5\nseed = 77\nalpha = 1.0\nplacement = stationary\n"
                "lazy = false\nsource = 0\njobs = 1\nbootstrap = 1000\n")
        assert rw.format_config(small_config()) == (
            "family = star\nprotocols = push\nsweep = 16\ntrials = 5\n"
            "seed = 77\nsource = 0\njobs = 1\nbootstrap = 1000\n")

    def test_settings_no_protocol_reads_are_refused(self):
        text = ("family = cycle\nprotocols = push\nsweep = 8\ntrials = 2\n"
                "seed = 1\nfloor = 3\ngamma = 9\nlazy = true\nalpha = 4\n")
        with pytest.raises(ConfigError) as err:
            rw.parse_config(text)
        assert str(err.value) == ("no protocol of push reads floor (line 6), "
                                  "gamma (line 7), lazy (line 8), "
                                  "alpha (line 9)")
        # set to its default, a setting is still set
        with pytest.raises(ConfigError, match=r"reads alpha \(line 6\)$"):
            rw.parse_config(text.split("floor")[0] + "alpha = 1.0\n")
        # one reader among the protocols is enough
        cfg = rw.parse_config(text.replace("push", "push, r-visit-exchange")
                              .replace("gamma = 9\n", ""))
        assert (cfg.floor, cfg.lazy, cfg.alpha) == (3.0, True, 4.0)
        with pytest.raises(ConfigError, match=r"reads gamma \(line 6\)$"):
            rw.parse_config(text.replace("push", "visit-exchange")
                            .replace("floor = 3\n", ""))

    @pytest.mark.parametrize("line,fragment", [
        ("familly = star", "line 1: unknown key"),
        ("family star", "line 1: expected"),
        ("family = star\nfamily = cycle", "line 2: duplicate"),
        ("family =", "line 1: empty value"),
        ("family = star\nprotocols = push\nsweep = 4\nseed = 1\n"
         "trials = soon", "line 5: bad value for 'trials'"),
    ])
    def test_line_numbered_errors(self, line, fragment):
        with pytest.raises(ConfigError) as err:
            rw.parse_config(line)
        assert fragment in str(err.value)

    def test_missing_required(self):
        with pytest.raises(ConfigError) as err:
            rw.parse_config("family = star\n")
        assert "protocols" in str(err.value)

    def test_semantic_errors(self):
        with pytest.raises(ConfigError):
            rw.parse_config(self.GOOD.replace("star", "pentagram"))
        with pytest.raises(ConfigError):
            small_config(sweep=())
        with pytest.raises(ConfigError):
            small_config(trials=0)
        with pytest.raises(ConfigError):
            small_config(protocols=("t-visit-exchange",))  # gamma missing
        with pytest.raises(ConfigError):
            small_config(family="regular")  # d missing

    # the CLI tests cover d = foo, round_cap = -5 and bootstrap = 0
    @pytest.mark.parametrize("key,value,fragment", [
        ("d", "0", "d must be"),
        ("d", "2.5", "d must be"),
        ("round_cap", "0", "round_cap must be >= 1"),
    ])
    def test_bad_values_rejected(self, key, value, fragment):
        text = ("family = regular\nprotocols = push\nsweep = 16\n"
                "trials = 2\nseed = 1\n")
        if key != "d":
            text += "d = 3\n"
        with pytest.raises(ConfigError) as err:
            rw.parse_config(text + f"{key} = {value}\n")
        assert fragment in str(err.value)

    @pytest.mark.parametrize("key,value,fragment", [
        ("d", "foo", "d must be"),
        ("trials", "0", "trials must be >= 1"),
        ("round_cap", "-5", "round_cap must be >= 1"),
        ("bootstrap", "0", "bootstrap must be >= 1"),
        ("jobs", "0", "jobs must be >= 1"),
        ("alpha", "-1", "alpha must be >= 0"),
        ("alpha", "nan", "alpha must be finite"),
        ("alpha", "inf", "alpha must be finite"),
        ("gamma", "nan", "gamma must be finite"),
        ("gamma", "-inf", "gamma must be finite"),
        ("floor", "nan", "floor must be finite"),
        ("floor", "inf", "floor must be finite"),
        ("protocols", ",", "at least one protocol is required"),
        ("protocols", "gossip", "unknown protocol 'gossip'"),
        ("sweep", "0", "sweep sizes must be positive"),
        ("source", "middle", "source must be an id or one of"),
    ])
    def test_value_errors_name_their_line(self, key, value, fragment):
        lines = ["# sweep", "family = regular", "protocols = push",
                 "sweep = 16", "trials = 2", "seed = 1", "d = 3"]
        lines = [ln for ln in lines if not ln.startswith(f"{key} =")]
        lines.insert(2, f"{key} = {value}")
        with pytest.raises(ConfigError) as err:
            rw.parse_config("\n".join(lines) + "\n")
        assert f"line 3: {fragment}" in str(err.value)

    def test_lazy_not_a_bool(self):
        with pytest.raises(ConfigError, match="^line 6: bad value for 'lazy'"
                           ": expected true/false, got 'maybe'$"):
            rw.parse_config("family = star\nprotocols = visit-exchange\n"
                            "sweep = 8\ntrials = 2\nseed = 1\nlazy = maybe\n")

    def test_fault_without_a_line(self):
        # a fault of no one key carries no line number
        with pytest.raises(ConfigError,
                           match="^t-visit-exchange requires gamma$") as err:
            rw.parse_config("family = star\nprotocols = t-visit-exchange\n"
                            "sweep = 8\ntrials = 2\nseed = 1\n")
        assert err.value.key is None

    @pytest.mark.parametrize("key,value,message", [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("trials", True, "trials must be an integer, got True"),
        ("jobs", 1.5, "jobs must be an integer, got 1.5"),
        ("round_cap", 9.0, "round_cap must be an integer, got 9.0"),
        ("bootstrap", "50", "bootstrap must be an integer, got '50'"),
        ("agents", 2.5, "agents must be an integer, got 2.5"),
        ("sweep", (16, 2.5), "sweep size must be an integer, got 2.5"),
        ("sweep", (True,), "sweep size must be an integer, got True"),
        ("lazy", "no", "lazy must be a bool, got 'no'"),
        ("lazy", 1, "lazy must be a bool, got 1"),
        ("alpha", "x", "alpha must be a real number, got 'x'"),
        ("alpha", True, "alpha must be a real number, got True"),
        ("gamma", "2", "gamma must be a real number, got '2'"),
        ("floor", None, None),  # an optional key may stay unset
        ("floor", [1.0], "floor must be a real number, got [1.0]"),
    ])
    def test_library_values_of_the_wrong_type(self, key, value, message):
        # the config parser reads the right types; a library caller's value
        # of the wrong one is refused with its key, not run or left to numpy
        if message is None:
            assert getattr(small_config(**{key: value}), key) == value
            return
        with pytest.raises(ConfigError) as err:
            small_config(**{key: value})
        assert (str(err.value), err.value.key) == (message, key)

    def test_library_numpy_values(self):
        cfg = small_config(seed=np.int64(7), trials=np.int32(2),
                           alpha=np.float32(0.5), sweep=(np.int64(8),))
        assert cfg.trials == 2 and cfg.sweep == (8,)
        with pytest.raises(ConfigError, match="^lazy must be a bool"):
            small_config(lazy=np.True_)

    def test_parse_config_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(self.GOOD)
        assert rw.parse_config_file(p).family == "star"
        with pytest.raises(ConfigError):
            rw.parse_config_file(tmp_path / "missing.cfg")


class TestBuildGraph:
    def test_families_dispatch(self):
        assert build_graph("star", 8, None, 0).n == 9
        assert build_graph("cycle-stars-cliques", 4, None, 0).n == 84
        assert build_graph("complete", 5, None, 0).m == 10

    # each family's size and own generator, at degree 3 and seed 1
    GENERATORS = {
        "star": (8, rw.generate_star),
        "double-star": (8, rw.generate_double_star),
        "heavy-tree": (7, rw.generate_heavy_binary_tree),
        "siamese": (7, rw.generate_siamese_trees),
        "cycle-stars-cliques": (3, rw.generate_cycle_stars_cliques),
        "regular": (16, lambda size: rw.generate_random_regular(size, 3, 1)),
        "clique-path": (3, lambda size: rw.generate_clique_path(size, 3)),
        "complete": (5, rw.generate_complete),
        "cycle": (6, rw.generate_cycle),
    }

    @pytest.mark.parametrize("family", experiments.FAMILIES)
    def test_each_family_is_its_generator(self, family):
        assert sorted(self.GENERATORS) == sorted(experiments.FAMILIES)
        size, generate = self.GENERATORS[family]
        got, want = build_graph(family, size, "3", 1), generate(size)
        assert got == want
        assert got.family_tag == want.family_tag

    def test_unknown_family(self):
        with pytest.raises(rw.InvalidParameterError,
                           match="^unknown family 'x'$"):
            build_graph("x", 8, "3", 1)

    def test_regular_through_module_global(self, monkeypatch):
        # a wrapper bound over experiments.generate_random_regular (as a
        # tracer binds one) sees every regular graph build_graph makes
        calls = []
        real = experiments.generate_random_regular

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiments, "generate_random_regular", counting)
        build_graph("regular", 16, "4", 2)
        assert calls == [(16, 4, 2)]

    def test_regular_d_rules(self):
        g = build_graph("regular", 64, "log2ceil", seed=5)
        assert all(int(d) == 6 for d in g.degrees)
        g = build_graph("regular", 16, "4", seed=5)
        assert all(int(d) == 4 for d in g.degrees)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf,
                                       1e308])
    def test_agent_config_rejects_non_finite(self, alpha):
        with pytest.raises(rw.InvalidParameterError, match="alpha"):
            rw.agent_config(rw.generate_cycle(8), alpha)
        assert rw.agent_config(rw.generate_cycle(8), alpha, agents=3).count == 3

    @pytest.mark.parametrize("name,settings,unread", [
        ("push", {"floor": 3.0}, "floor"),
        ("push-pull", {"alpha": 1.0, "lazy": False}, "alpha, lazy"),
        ("visit-exchange", {"gamma": 2.0}, "gamma"),
        ("t-visit-exchange", {"gamma": 2.0, "floor": 1.0}, "floor"),
    ])
    def test_run_protocol_refuses_unread_settings(self, name, settings,
                                                  unread):
        with pytest.raises(rw.InvalidParameterError,
                           match=f"^{name} does not read {unread}$"):
            rw.run_protocol(name, rw.generate_cycle(8), 0, rw.SimRng(1),
                            **settings)

    def test_run_protocol_defaults(self):
        # settings left None take the defaults of agent_config
        g = rw.generate_cycle(8)
        got = rw.run_protocol("visit-exchange", g, 0, rw.SimRng(4))
        want = rw.run_visit_exchange(g, 0, rw.agent_config(g), rw.SimRng(4))
        assert (got.broadcast_time, got.rounds) == \
            (want.broadcast_time, want.rounds)

    def test_run_protocol_refuses_non_integer_agents(self):
        with pytest.raises(rw.InvalidParameterError,
                           match="^agent count must be an integer, got 2.5$"):
            rw.run_protocol("visit-exchange", rw.generate_cycle(8), 0,
                            rw.SimRng(1), agents=2.5)

    def test_run_protocol_refuses_non_bool_lazy(self):
        with pytest.raises(rw.InvalidParameterError,
                           match="^lazy must be a bool, got 'no'$"):
            rw.run_protocol("visit-exchange", rw.generate_cycle(9), 0,
                            rw.SimRng(1), lazy="no")

    def test_run_protocol_unknown(self):
        with pytest.raises(rw.InvalidParameterError,
                           match="^unknown protocol 'nope'$"):
            rw.run_protocol("nope", rw.generate_cycle(8), 0, rw.SimRng(1))

    def test_resolve_source(self):
        g = rw.generate_star(5)
        gen = np.random.Generator(np.random.PCG64(1))
        assert rw.resolve_source("center", g, gen) == 0
        assert rw.resolve_source("leaf", g, gen) == 5
        assert 0 <= rw.resolve_source("uniform", g, gen) < 6
        assert rw.resolve_source("3", g, gen) == 3
        with pytest.raises(rw.InvalidParameterError):
            rw.resolve_source("9", g, gen)

    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(3.0), True,
                                       False, np.True_, "1.5"])
    def test_sources_and_degrees_are_never_truncated(self, value):
        # a library caller's float or bool is refused, not read as int()
        g = rw.generate_star(5)
        with pytest.raises(rw.InvalidParameterError, match="^source must"):
            rw.resolve_source(value, g, None)
        with pytest.raises(rw.InvalidParameterError, match="^d must"):
            experiments._resolve_d(value, 64)
        with pytest.raises(ConfigError, match="^source must") as err:
            small_config(source=value)
        assert err.value.key == "source"
        with pytest.raises(ConfigError, match="^d must") as err:
            small_config(family="regular", d=value)
        assert err.value.key == "d"

    def test_integer_sources_and_degrees(self):
        g = rw.generate_star(5)
        for value in (3, np.int64(3), "3"):
            assert rw.resolve_source(value, g, None) == 3
            assert experiments._resolve_d(value, 64) == 3
            assert small_config(family="regular", d=value, source=value
                                ).source == value


class TestRunTrials:
    def test_single_trial_stats_collapse(self):
        res = rw.run_trials(small_config(trials=1))
        row = res.rows[0]
        assert row.trials == 1 and row.incomplete == 0
        only = row.values[0]
        assert row.mean == row.median == row.min == row.max == only

    def test_deterministic(self):
        cfg = small_config(trials=8, sweep=(16, 32),
                           protocols=("push", "push-pull"))
        assert rw.run_trials(cfg).rows == rw.run_trials(cfg).rows

    def test_row_n_is_vertex_count(self):
        res = rw.run_trials(small_config(sweep=(32,)))
        assert res.rows[0].n == 33  # 32 leaves + center

    def test_incomplete_counted(self):
        # non-lazy meet-exchange on a star locks into walk parity
        cfg = small_config(protocols=("meet-exchange",), trials=4,
                           sweep=(4,), round_cap=80, seed=0)
        res = rw.run_trials(cfg)
        row = res.rows[0]
        assert row.incomplete >= 1
        assert len(row.values) == row.trials - row.incomplete

    def test_push_pull_star_cap_two(self):
        res = rw.run_trials(small_config(protocols=("push-pull",), trials=100,
                                         sweep=(1000,)))
        assert res.rows[0].max <= 2

    def test_jobs_parity(self):
        cfg = small_config(family="regular", d="3", sweep=(16, 32), trials=6,
                           protocols=("push", "visit-exchange",
                                      "meet-exchange"), lazy=True)
        seq = rw.run_trials(cfg)
        par = rw.run_trials(replace(cfg, jobs=2))
        assert [r.values for r in seq.rows] == [r.values for r in par.rows]
        assert rw.result_to_csv(seq) == rw.result_to_csv(par)

    @pytest.mark.parametrize("family,sweep", [
        ("star", (16, 32)), ("heavy-tree", (15, 31)), ("double-star", (8, 16)),
    ])
    def test_jobs_parity_fixed_families(self, family, sweep):
        cfg = small_config(family=family, sweep=sweep, trials=4, lazy=True,
                           protocols=("push", "push-pull", "visit-exchange",
                                      "meet-exchange"))
        assert rw.result_to_csv(rw.run_trials(cfg)) == \
            rw.result_to_csv(rw.run_trials(replace(cfg, jobs=2)))

    @pytest.mark.parametrize("jobs,cpus,workers", [
        (2, 2, 2), (8, 2, 2), (8, 64, 6), (3, None, None), (1, 64, None)])
    def test_pool_size(self, monkeypatch, jobs, cpus, workers):
        # the pool has no more workers than tasks (6 here) or CPUs, and a
        # sweep left with one worker runs in this process
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        cfg = small_config(sweep=(8, 16), trials=3, jobs=jobs)
        csv = rw.result_to_csv(rw.run_trials(cfg))
        assert sizes == ([] if workers is None else [workers])
        assert csv == rw.result_to_csv(rw.run_trials(replace(cfg, jobs=1)))

    @pytest.mark.parametrize("sizes,trials,workers", [
        (1, 1, 2), (3, 30, 2), (6, 40, 2), (2, 7, 3), (1, 1000, 8)])
    def test_chunk_plan(self, sizes, trials, workers):
        chunks = experiments._chunk_plan(sizes, trials, workers)
        # every trial once, each chunk in sweep order
        assert sorted(p for c in chunks for p in c) == \
            list(range(sizes * trials))
        assert all(c == sorted(c) for c in chunks)
        # guided self-scheduling: chunk sizes never grow, and end at 1
        lengths = [len(c) for c in chunks]
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[0] == max(1, sizes * trials // (2 * workers))
        assert lengths[-min(len(lengths), 2 * workers - 1):] == \
            [1] * min(len(lengths), 2 * workers - 1)
        # dealt round-robin: a chunk of at least `sizes` trials holds them all
        for c in chunks:
            held = {p // trials for p in c}
            assert len(held) == min(len(c), sizes)

    def test_jobs_parity_dealt_sweep(self):
        cfg = small_config(sweep=(8, 16, 32, 64), trials=30, lazy=True,
                           protocols=("push", "meet-exchange"))
        assert rw.result_to_csv(rw.run_trials(replace(cfg, jobs=2))) == \
            rw.result_to_csv(rw.run_trials(cfg))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failing_trial_in_sweep_order_raises(self, monkeypatch,
                                                       jobs):
        # trial 0 of size 32 runs in the first chunk, trial 29 of size 8 in
        # one of the last, and trial 29 of size 8 comes first in sweep order
        cfg = small_config(sweep=(8, 16, 32), trials=30, jobs=jobs)
        doomed = {rw.derive_seed(cfg.seed, "run", "star", size, "push",
                                 trial): (size, trial)
                  for size, trial in [(32, 0), (16, 12), (8, 29)]}
        real = experiments.run_protocol

        def failing(name, graph, source, rng, **settings):
            if rng.seed in doomed:
                raise rw.InvalidParameterError(
                    "planted failure at size {} trial {}".format(
                        *doomed[rng.seed]))
            return real(name, graph, source, rng, **settings)

        # patched before the pool forks, so the workers see it too
        monkeypatch.setattr(experiments, "run_protocol", failing)
        with pytest.raises(rw.InvalidParameterError,
                           match="^planted failure at size 8 trial 29$"):
            rw.run_trials(cfg)

    def test_fixed_graph_built_once_per_size(self, monkeypatch):
        calls = []
        real = experiments.build_graph

        def counting(family, size, d_spec, seed):
            calls.append((family, size))
            return real(family, size, d_spec, seed)

        monkeypatch.setattr(experiments, "build_graph", counting)
        cfg = small_config(sweep=(8, 16, 32), trials=4,
                           protocols=("push", "visit-exchange"))
        rw.run_trials(cfg)
        assert calls == [("star", 8), ("star", 16), ("star", 32)]
        # the graphs are not kept once the sweep is over
        rw.run_trials(cfg)
        assert len(calls) == 6

    def test_random_graph_built_once_per_trial(self, monkeypatch):
        calls = []
        real = experiments.generate_random_regular

        def counting(n, d, seed):
            calls.append((n, d, seed))
            return real(n, d, seed)

        monkeypatch.setattr(experiments, "generate_random_regular", counting)
        cfg = small_config(family="regular", d="log2ceil", sweep=(16, 32),
                           trials=3, protocols=("push", "visit-exchange"))
        res = rw.run_trials(cfg)
        assert len(calls) == len(cfg.sweep) * cfg.trials
        assert len(set(calls)) == len(calls)
        assert all(r.incomplete == 0 and len(r.values) == 3 for r in res.rows)


class TestOutcomes:
    """A round-cap hit and a failed generation are counted apart;
    ``incomplete`` (the CSV column) stays their sum."""

    def test_capped(self):
        res = rw.run_trials(small_config(trials=4, round_cap=1))
        row = res.rows[0]
        assert (row.capped, row.gen_failed, row.incomplete) == (4, 0, 4)
        assert row.values == ()
        assert rw.result_to_csv(res).splitlines()[1].split(",")[6] == "4"

    def test_generation_failed(self, monkeypatch):
        cfg = small_config(family="regular", d="3", trials=4,
                           protocols=("push", "visit-exchange"))
        fail_generation(monkeypatch, cfg, 16, 2)
        res = rw.run_trials(cfg)
        for row in res.rows:
            assert (row.capped, row.gen_failed, row.incomplete) == (0, 1, 1)
            assert len(row.values) == 3

    def test_both(self, monkeypatch):
        cfg = small_config(family="regular", d="3", trials=4, round_cap=1)
        fail_generation(monkeypatch, cfg, 16, 0)
        res = rw.run_trials(cfg)
        row = res.rows[0]
        assert (row.capped, row.gen_failed, row.incomplete) == (3, 1, 4)
        assert rw.result_to_csv(res).splitlines()[1].split(",")[6] == "4"

    def test_every_generation_failed(self, monkeypatch):
        cfg = small_config(family="regular", d="3", trials=3)
        for trial in range(3):
            fail_generation(monkeypatch, cfg, 16, trial)
        with pytest.raises(rw.GenerationFailureError,
                           match="all 3 generations failed for regular size 16"):
            rw.run_trials(cfg)


class TestCsv:
    def test_header_and_shape(self):
        res = rw.run_trials(small_config())
        text = rw.result_to_csv(res)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("family,n,protocol,alpha,lazy,trials,incomplete,"
                            "mean,median,q05,q95,min,max,seed")
        assert len(lines) == 1 + len(res.rows)
        first = lines[1].split(",")
        assert first[0] == "star" and first[2] == "push"
        assert first[-1] == "77"

    def test_byte_identical(self):
        cfg = small_config(trials=12, sweep=(8, 16))
        assert rw.result_to_csv(rw.run_trials(cfg)) == \
            rw.result_to_csv(rw.run_trials(cfg))

    def test_empty_stats_render_blank(self):
        # K_2 with an agent pinned on each vertex never meets without lazy
        cfg = small_config(family="complete", protocols=("meet-exchange",),
                           trials=2, sweep=(2,), round_cap=64, seed=0,
                           placement="one-per-vertex")
        text = rw.result_to_csv(rw.run_trials(cfg))
        row = text.splitlines()[1].split(",")
        assert row[6] == "2"  # incomplete
        assert row[7] == "" and row[8] == ""


class TestSweepRatio:
    def test_identity_protocol(self):
        cfg = small_config(protocols=("push",), sweep=(16, 32), trials=10)
        pts = rw.sweep_ratio(rw.run_trials(cfg), "push", "push")
        for p in pts:
            assert p.ratio == 1.0
            assert (p.ci_low, p.ci_high) == (1.0, 1.0)

    def test_double_star_separation_grows(self):
        cfg = ExperimentConfig(family="double-star", sweep=(64, 256),
                               protocols=("push-pull", "visit-exchange"),
                               trials=60, seed=13)
        pts = rw.sweep_ratio(cfg, "push-pull", "visit-exchange")
        assert pts[1].ratio >= 2 * pts[0].ratio
        for p in pts:
            assert p.ci_low <= p.ratio <= p.ci_high

    def test_no_completed_trials(self):
        # a round cap of 1 completes no push or push-pull run on cycle(64)
        res = rw.run_trials(small_config(family="cycle", sweep=(64,),
                                         protocols=("push", "push-pull"),
                                         trials=2, round_cap=1))
        with pytest.raises(rw.InvalidParameterError, match="^no completed "
                           "trials to compare at size 64$"):
            rw.sweep_ratio(res, "push", "push-pull")

    def test_ci_reproducible(self):
        cfg = small_config(protocols=("push", "push-pull"), trials=15)
        res = rw.run_trials(cfg)
        a = rw.sweep_ratio(res, "push", "push-pull")
        b = rw.sweep_ratio(res, "push", "push-pull")
        assert a == b


class TestBootstrap:
    """The vectorised bootstrap against the loop it replaced."""

    @staticmethod
    def loop(gen, values, resamples):
        out = np.empty(resamples)
        k = values.shape[0]
        for i in range(resamples):
            out[i] = np.median(values[gen.integers(0, k, size=k)])
        return out

    @pytest.mark.parametrize("k,resamples", [
        (1, 10), (2, 100), (5, 100), (32, 1000), (1500, 1000), (3000, 701),
    ])
    def test_equals_loop(self, k, resamples):
        values = np.random.default_rng(k).integers(1, 100, k).astype(float)
        gens = [np.random.Generator(np.random.PCG64(k)) for _ in range(2)]
        for _ in range(2):  # two calls in a row on one generator
            got = experiments._bootstrap(gens[0], values, resamples)
            want = self.loop(gens[1], values, resamples)
            assert got.tobytes() == want.tobytes()

    def test_golden_ratio_points(self):
        # SHA-256 of sweep_ratio points for k = 1 .. 100 completed trials,
        # recorded from the per-resample loop
        h = hashlib.sha256()
        for k in (1, 2, 5, 31, 32, 100):
            cfg = ExperimentConfig(family="star",
                                   protocols=("push", "push-pull"),
                                   sweep=(8, 16), trials=k, seed=1000 + k)
            res = rw.run_trials(cfg)
            for resamples in (None, 37):
                for a, b in (("push", "push-pull"), ("push-pull", "push")):
                    for p in rw.sweep_ratio(res, a, b, resamples):
                        h.update(repr(astuple(p)).encode())
        assert h.hexdigest() == ("e1ff7933d91222b775c04fc0473e7c42"
                                 "d5cfe80a2e1ab18f9bc98eb69b185360")


class TestFitGrowth:
    def test_too_few_points(self):
        res = rw.run_trials(small_config(family="cycle", sweep=(8, 16),
                                         trials=2))
        with pytest.raises(FitError, match="^protocol 'push' has 2 usable "
                           "sweep points; need at least 3$"):
            rw.fit_growth(res, "push")

    def test_synthetic_log(self):
        pts = [(n, 3.5 * math.log2(n)) for n in (64, 128, 256, 512, 1024)]
        fit = rw.fit_growth_points(pts)
        assert fit.best_model == "log n"
        assert fit.fits["log n"].rss < 1e-18
        assert abs(fit.fits["log n"].slope - 3.5) < 1e-9
        assert fit.fits["log n"].r2 > 0.999999

    def test_synthetic_two_thirds(self):
        pts = [(n, 2.0 + 0.9 * n ** (2 / 3)) for n in (84, 258, 584, 1110)]
        fit = rw.fit_growth_points(pts)
        assert fit.best_model == "n^(2/3)"

    def test_model_subset(self):
        pts = [(n, n) for n in (4, 8, 16)]
        fit = rw.fit_growth_points(pts, models={"n": GROWTH_MODELS["n"]})
        assert fit.best_model == "n"

    def test_errors(self):
        with pytest.raises(FitError):
            rw.fit_growth_points([(4, 1.0), (8, 2.0)])
        with pytest.raises(FitError):
            rw.fit_growth_points([(4, 3.0), (8, 3.0), (16, 3.0)])
        with pytest.raises(FitError):
            rw.fit_growth_points([(4, 1.0), (4, 2.0), (4, 3.0)])

    def test_fit_from_result(self):
        cfg = small_config(protocols=("visit-exchange",), trials=20,
                           sweep=(64, 128, 256, 512))
        fit = rw.fit_growth(rw.run_trials(cfg), "visit-exchange")
        assert set(fit.fits) == set(GROWTH_MODELS)
        assert len(fit.points) == 4


class TestComparisons:
    def test_empirical_min(self):
        cfg = small_config(family="complete", sweep=(2,),
                           protocols=("visit-exchange",), trials=10)
        mins = rw.empirical_min(rw.run_trials(cfg))
        assert mins[(2, "visit-exchange")] >= 1

    def test_shared_walk_domination_rows(self):
        cfg = ExperimentConfig(family="star", sweep=(64,), trials=20, seed=6,
                               protocols=("visit-exchange",), lazy=True)
        rows = rw.shared_walk_domination(cfg)
        assert rows[0].completed == 20
        assert rows[0].holds == 20
        assert rows[0].violations == ()

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(family="star", sweep=(16, 32), trials=6, seed=3,
                         protocols=("visit-exchange",), lazy=True),
        ExperimentConfig(family="regular", d="3", sweep=(16, 32), trials=6,
                         seed=3, protocols=("visit-exchange",), lazy=True,
                         round_cap=20),  # some trials hit the cap
    ], ids=["star", "regular"])
    def test_shared_walk_domination_jobs_invariant(self, cfg):
        one = rw.shared_walk_domination(cfg)
        assert [r.size for r in one] == [16, 32]
        assert one == rw.shared_walk_domination(replace(cfg, jobs=2))

    def test_shared_walk_domination_skips_failed_generation(self,
                                                             monkeypatch):
        cfg = ExperimentConfig(family="regular", d="3", sweep=(16,), trials=5,
                               seed=8, protocols=("visit-exchange",),
                               lazy=True)
        fail_generation(monkeypatch, cfg, 16, 2)
        row = rw.shared_walk_domination(cfg)[0]
        assert (row.n, row.trials, row.completed, row.holds) == (16, 5, 4, 4)
