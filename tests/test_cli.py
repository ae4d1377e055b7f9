"""End-to-end CLI behavior: JSON on stdout, exit-code taxonomy, and the
couple/verify loop."""
import json

import pytest

import rumorwalks as rw
from rumorwalks import AgentConfig, SimRng
from rumorwalks.cli import main
from rumorwalks.experiments import PROTOCOLS

from helpers import fail_generation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


class TestGenerate:
    def test_star(self, tmp_path, capsys):
        out = tmp_path / "s4.el"
        code, payload, _ = run_cli(capsys, "generate", "--family", "star",
                                   "--size", "4", "--out", str(out))
        assert code == 0
        assert payload["n"] == 5 and payload["m"] == 4
        assert out.read_text().splitlines()[0] == "5 4"

    def test_odd_double_star_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--family", "double-star",
                               "--size", "7", "--out", str(tmp_path / "x.el"))
        assert code == 1
        assert "even" in err

    def test_regular_k4(self, tmp_path, capsys):
        out = tmp_path / "k4.el"
        code, payload, _ = run_cli(capsys, "generate", "--family", "regular",
                                   "--size", "4", "--d", "3", "--seed", "3",
                                   "--out", str(out))
        assert code == 0
        assert out.read_text() == "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--family", "star",
                             "--size", "4", "--frobnicate")
        assert code == 1


class TestRun:
    def test_push_k2(self, capsys):
        code, payload, _ = run_cli(capsys, "run", "--family", "complete",
                                   "--size", "2", "--protocol", "push",
                                   "--source", "0", "--seed", "7")
        assert code == 0
        assert payload["broadcast_time"] == 1
        assert payload["complete"] is True
        assert payload["seed"] == 7

    def test_repeatable(self, capsys):
        argv = ["run", "--family", "cycle", "--size", "12", "--protocol",
                "visit-exchange", "--seed", "99"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_meet_exchange_bipartite_warns(self, capsys, caplog):
        code, payload, _ = run_cli(
            capsys, "run", "--family", "star", "--size", "4", "--protocol",
            "meet-exchange", "--seed", "0", "--round-cap", "300")
        assert any("lazy" in rec.message for rec in caplog.records)
        # seed 0 mixes walk phases, so the run cannot complete
        assert code == 2
        assert payload["complete"] is False
        assert payload["broadcast_time"] is None

    def test_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "events.csv"
        code, _, _ = run_cli(capsys, "run", "--family", "cycle", "--size", "6",
                             "--protocol", "push", "--seed", "3",
                             "--trace-out", str(trace))
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "kind,id,round"
        assert "vertex,0,0" in lines[1:]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_each_protocol_matches_library(self, capsys, protocol):
        # a regular graph, since t- and r-visit-exchange need one
        g = rw.generate_random_regular(16, 4, seed=5)
        cfg = AgentConfig(count=12, lazy=True)
        direct = {
            "push": lambda rng: rw.run_push(g, 3, rng),
            "push-pull": lambda rng: rw.run_push_pull(g, 3, rng),
            "visit-exchange": lambda rng: rw.run_visit_exchange(g, 3, cfg, rng),
            "meet-exchange": lambda rng: rw.run_meet_exchange(g, 3, cfg, rng),
            "t-visit-exchange":
                lambda rng: rw.run_t_visit_exchange(g, 3, cfg, 4.5, rng),
            "r-visit-exchange":
                lambda rng: rw.run_r_visit_exchange(g, 3, cfg, rng, floor=2.5),
        }
        res = direct[protocol](SimRng(5))
        code, payload, _ = run_cli(
            capsys, "run", "--family", "regular", "--size", "16", "--d", "4",
            "--protocol", protocol, "--seed", "5", "--source", "3",
            "--alpha", "0.75", "--lazy", "--gamma", "4.5", "--floor", "2.5")
        assert code == (0 if res.complete else 2)
        assert (payload["broadcast_time"], payload["rounds"]) == \
            (res.broadcast_time, res.rounds)
        assert payload["removals"] == len(res.removal_log)
        assert payload["additions"] == len(res.addition_log)

    def test_t_visit_without_gamma_exit_one(self, capsys):
        code, payload, err = run_cli(capsys, "run", "--family", "cycle",
                                     "--size", "8", "--protocol",
                                     "t-visit-exchange", "--seed", "1")
        assert code == 1 and payload is None
        assert "gamma" in err

    @pytest.mark.parametrize("argv,what", [
        (("visit-exchange", "--alpha", "nan"), "alpha * n must be finite"),
        (("visit-exchange", "--alpha", "inf"), "alpha * n must be finite"),
        (("visit-exchange", "--alpha", "1e308"), "alpha * n must be finite"),
        (("t-visit-exchange", "--gamma", "nan"), "gamma must be finite"),
        (("t-visit-exchange", "--gamma", "inf"), "gamma must be finite"),
        (("r-visit-exchange", "--floor", "nan"), "floor must be finite"),
        (("r-visit-exchange", "--floor", "inf"), "floor must be finite"),
    ])
    def test_non_finite_exit_one(self, capsys, argv, what):
        code, payload, err = run_cli(capsys, "run", "--family", "cycle",
                                     "--size", "8", "--seed", "1",
                                     "--protocol", *argv)
        assert code == 1 and payload is None
        assert len(err.strip().splitlines()) == 1
        assert what in err

    def test_graph_file_input(self, tmp_path, capsys):
        el = tmp_path / "g.el"
        rw.save_edge_list(rw.generate_cycle(5), el)
        code, payload, _ = run_cli(capsys, "run", "--graph", str(el),
                                   "--protocol", "push", "--seed", "4")
        assert code == 0 and payload["n"] == 5

    def test_bad_degree_exit_one(self, capsys):
        code, payload, err = run_cli(capsys, "run", "--family", "regular",
                                     "--size", "16", "--d", "foo",
                                     "--protocol", "push", "--seed", "1")
        assert code == 1 and payload is None
        assert "d must be" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_bad_round_cap_exit_one(self, capsys, cap):
        code, payload, err = run_cli(capsys, "run", "--family", "star",
                                     "--size", "10", "--protocol", "push",
                                     "--seed", "1", "--round-cap", cap)
        assert code == 1 and payload is None
        assert f"round_cap must be >= 1, got {cap}" in err
        assert "Traceback" not in err

    def test_missing_graph_args(self, capsys):
        code, _, err = run_cli(capsys, "run", "--protocol", "push",
                               "--seed", "1")
        assert code == 1
        assert "--graph" in err or "--family" in err

    def test_seed_drawn_when_omitted(self, capsys, caplog):
        code, payload, _ = run_cli(capsys, "run", "--family", "complete",
                                   "--size", "2", "--protocol", "push")
        assert code == 0
        assert any("seed not given" in rec.message for rec in caplog.records)
        assert isinstance(payload["seed"], int)


class TestSweep:
    CFG = """\
family = star
protocols = push-pull
sweep = 32
trials = 20
seed = 11
"""

    def test_writes_csv_and_summary(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        csv_path = tmp_path / "out.csv"
        code, payload, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                                   "--csv", str(csv_path))
        assert code == 0
        text = csv_path.read_text()
        assert text.startswith("family,n,protocol,")
        assert payload["rows"][0]["protocol"] == "push-pull"

    def test_rerun_identical(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--csv", str(a)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--csv", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        csv_path = tmp_path / "c.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--csv", str(csv_path), "--seed", "123")
        assert code == 0
        assert csv_path.read_text().splitlines()[1].endswith(",123")

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("family = star\nbogus = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("extra,fragment", [
        ("d = foo\n", "d must be"),
        ("round_cap = -5\n", "round_cap must be >= 1"),
        ("bootstrap = 0\n", "bootstrap must be >= 1"),
        ("alpha = nan\n", "line 6: alpha must be finite"),
        ("alpha = inf\n", "line 6: alpha must be finite"),
    ])
    def test_bad_value_exit_one(self, tmp_path, capsys, extra, fragment):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG + extra)
        code, payload, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1 and payload is None
        assert fragment in err

    @pytest.mark.parametrize("protocol", ["push", "visit-exchange"])
    def test_bad_placement_names_line(self, tmp_path, capsys, protocol):
        # placement is checked with the config, whether or not a protocol
        # of the sweep places agents
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"family = star\nprotocols = {protocol}\nsweep = 16\n"
                       f"trials = 2\nseed = 5\nplacement = weird\n")
        code, payload, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1 and payload is None
        assert err.strip().splitlines() == [
            "ERROR line 6: placement must be one of "
            "('stationary', 'one-per-vertex'), got 'weird'"]

    def test_bad_jobs_env_exit_one(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        monkeypatch.setenv("RUMORWALKS_JOBS", "abc")
        code, payload, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1 and payload is None
        assert "RUMORWALKS_JOBS" in err


class TestSweepOutcomes:
    def test_capped_and_gen_failed_in_summary(self, tmp_path, capsys,
                                              monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("family = regular\nd = 3\nprotocols = push\n"
                       "sweep = 16\ntrials = 4\nseed = 5\nround_cap = 1\n")
        fail_generation(monkeypatch, rw.parse_config_file(cfg), 16, 1)
        csv_path = tmp_path / "out.csv"
        code, payload, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                                   "--csv", str(csv_path))
        assert code == 0
        row = payload["rows"][0]
        assert (row["capped"], row["gen_failed"], row["incomplete"]) == \
            (3, 1, 4)
        assert csv_path.read_text().splitlines()[1].split(",")[6] == "4"


class TestCoupleVerify:
    def couple(self, tmp_path, capsys, *extra):
        out = tmp_path / "tr.json"
        argv = ["couple", "--family", "cycle", "--size", "8", "--seed", "21",
                "--out", str(out), *extra]
        code = main(argv)
        capsys.readouterr()
        return code, out

    def test_couple_then_verify(self, tmp_path, capsys):
        code, out = self.couple(tmp_path, capsys)
        assert code == 0
        vcode, payload, _ = run_cli(capsys, "verify", "--transcript", str(out))
        assert vcode == 0
        assert payload["ok"] is True
        assert payload["checks"]["counter-bound"] is True

    def test_verify_corrupted_exits_three(self, tmp_path, capsys):
        _, out = self.couple(tmp_path, capsys)
        obj = json.loads(out.read_text())
        obj["push"]["tau"][3] += 50
        out.write_text(json.dumps(obj))
        code, payload, _ = run_cli(capsys, "verify", "--transcript", str(out))
        assert code == 3
        assert payload["ok"] is False
        # each violation is reported as one message naming its check
        assert payload["violations"]
        for v in payload["violations"]:
            assert isinstance(v, str)
            assert v.split(":", 1)[0] in payload["checks"]

    @pytest.mark.parametrize("edit", ["visited vertex 64", "visited vertex -1",
                                      "s-set member 999", "source 999",
                                      "t 10**6"])
    def test_verify_out_of_range_exits_three(self, tmp_path, capsys, edit):
        out = tmp_path / "r64.json"
        code = main(["couple", "--family", "regular", "--size", "64",
                     "--d", "4", "--seed", "8", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        obj = json.loads(out.read_text())
        if edit.startswith("visited vertex"):
            obj["visits"][1][0][0] = int(edit.split()[-1])
        elif edit == "s-set member 999":
            next(vs for _u, vs in obj["s_sets"] if vs)[0] = 999
        elif edit == "source 999":
            obj["source"] = 999
        else:
            obj["visitx"]["t"][3] = 10 ** 6
        out.write_text(json.dumps(obj))
        code, payload, err = run_cli(capsys, "verify", "--transcript", str(out))
        assert code == 3 and payload is None
        assert "transcript corrupt" in err

    def test_verify_unknown_mode_exits_three(self, tmp_path, capsys):
        _, out = self.couple(tmp_path, capsys)
        obj = json.loads(out.read_text())
        obj["mode"] = "bogus"
        out.write_text(json.dumps(obj))
        code, payload, err = run_cli(capsys, "verify", "--transcript", str(out))
        assert code == 3 and payload is None
        assert "unknown coupling mode 'bogus'" in err

    def test_verify_unparseable_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{nope")
        code, _, _ = run_cli(capsys, "verify", "--transcript", str(bad))
        assert code == 3

    def test_verify_missing_file_exits_one(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "verify", "--transcript",
                             str(tmp_path / "absent.json"))
        assert code == 1

    def test_odd_mode(self, tmp_path, capsys):
        out = tmp_path / "odd.json"
        code, payload, _ = run_cli(capsys, "couple", "--family", "complete",
                                   "--size", "2", "--mode", "odd", "--seed",
                                   "5", "--placement", "one-per-vertex",
                                   "--out", str(out))
        assert code == 0
        vcode, vpayload, _ = run_cli(capsys, "verify", "--transcript", str(out))
        assert vcode == 0 and vpayload["ok"]

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_bad_round_cap_exit_one(self, tmp_path, capsys, cap):
        out = tmp_path / "tr.json"
        code, payload, err = run_cli(capsys, "couple", "--family", "cycle",
                                     "--size", "8", "--seed", "21",
                                     "--round-cap", cap, "--out", str(out))
        assert code == 1 and payload is None
        assert f"round_cap must be >= 1, got {cap}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_incomplete_couple_exits_two(self, tmp_path, capsys):
        out = tmp_path / "none.json"
        code = main(["couple", "--family", "cycle", "--size", "8",
                     "--agents", "0", "--seed", "1", "--round-cap", "32",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 2


BIG_SEED = str(2 ** 127)  # the smallest int seed derived streams cannot pack


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "star", "--size", "4", "--out", "{missing}/g.el"),
    ("couple", "--family", "cycle", "--size", "8", "--seed", "21",
     "--out", "{missing}/t.json"),
    ("run", "--family", "cycle", "--size", "8", "--protocol", "push",
     "--seed", "1", "--trace-out", "{missing}/trace.csv"),
    ("sweep", "--config", "{tmp}/exp.cfg", "--csv", "{missing}/out.csv"),
])
def test_unwritable_output_exits_one(tmp_path, capsys, argv):
    (tmp_path / "exp.cfg").write_text(TestSweep.CFG)
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "absent") for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    assert "No such file or directory" in err.strip().splitlines()[-1]


class TestSeedRange:
    """A seed outside [-2**127, 2**127) is a usage error naming its flag or
    config line, never a traceback; the edges of the range still run."""

    @pytest.mark.parametrize("argv", [
        ["run", "--family", "star", "--size", "10", "--protocol", "push"],
        ["couple", "--family", "star", "--size", "10", "--out", "unused.json"],
        ["sweep", "--config", "unused.cfg"],
        ["generate", "--family", "star", "--size", "10", "--out", "unused.el"],
    ], ids=["run", "couple", "sweep", "generate"])
    def test_flag_out_of_range(self, capsys, argv):
        code, payload, err = run_cli(capsys, *argv, "--seed", BIG_SEED)
        assert code == 1 and payload is None
        assert f"argument --seed: seed {BIG_SEED} is outside" in err

    def test_config_line_out_of_range(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TestSweep.CFG.replace("seed = 11", f"seed = {BIG_SEED}"))
        code, payload, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1 and payload is None
        assert f"line 5: seed {BIG_SEED} is outside" in err

    @pytest.mark.parametrize("seed", [str(2 ** 127 - 1), str(-2 ** 127)])
    def test_range_edges_run(self, capsys, seed):
        code, payload, _ = run_cli(capsys, "run", "--family", "star", "--size",
                                   "10", "--protocol", "push", "--seed", seed)
        assert code == 0 and payload["seed"] == int(seed)

    @pytest.mark.parametrize("argv", [
        ["run", "--protocol", "push"],
        ["couple", "--out", "unused.json"],
        ["generate", "--out", "unused.el"],
    ], ids=["run", "couple", "generate"])
    def test_negative_seed_regular(self, capsys, argv):
        # a regular graph is seeded by the seed itself, which must be >= 0
        code, payload, err = run_cli(capsys, *argv, "--family", "regular",
                                     "--size", "10", "--d", "3", "--seed",
                                     "-1")
        assert code == 1 and payload is None
        assert err == "ERROR seed must be >= 0, got -1\n"

    def test_not_an_int(self, capsys):
        code, _, err = run_cli(capsys, "run", "--family", "star", "--size",
                               "10", "--protocol", "push", "--seed", "abc")
        assert code == 1
        assert "argument --seed: invalid int value: 'abc'" in err
