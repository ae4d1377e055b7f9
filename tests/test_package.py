"""The package's exports agree with its modules' own, and it runs on its
declared dependencies alone."""
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rumorwalks as rw

ROOT = Path(__file__).resolve().parents[1]


MODULES = ("errors", "graphs", "rng", "protocols", "coupling", "experiments")

# the package's exports before it re-exported its modules' lists; none may go
EARLIER_EXPORTS = (
    "__version__", "RumorWalksError", "InvalidParameterError",
    "GenerationFailureError", "LoadError", "ConfigError", "FitError",
    "TranscriptCorruptError", "Graph", "generate_star", "generate_double_star",
    "generate_heavy_binary_tree", "generate_siamese_trees",
    "generate_cycle_stars_cliques", "generate_complete", "generate_cycle",
    "generate_clique_path", "generate_random_regular", "save_edge_list",
    "load_edge_list", "derive_seed", "SimRng", "ChoiceOracle",
    "place_stationary", "AgentConfig", "ProtocolTrace", "BroadcastResult",
    "SharedWalkResult", "default_round_cap", "place_agents", "run_push",
    "run_push_pull", "run_visit_exchange", "run_meet_exchange",
    "run_t_visit_exchange", "run_r_visit_exchange", "run_shared_visit_meet",
    "trace_events", "CouplingTranscript", "CanonicalWalk", "VerifyReport",
    "run_coupled_even", "run_coupled_odd", "compute_s_sets",
    "compute_c_counters", "verify_tau_leq_c", "reconstruct_min_chain_walk",
    "max_congestion_dp", "transcript_to_json", "transcript_from_json",
    "transcript_dumps", "verify_transcript", "ExperimentConfig", "TrialRow",
    "ExperimentResult", "RatioPoint", "DominationRow", "GrowthFit", "ModelFit",
    "build_graph", "resolve_source", "agent_config", "run_protocol",
    "run_trials", "result_to_csv", "sweep_ratio", "fit_growth",
    "fit_growth_points", "empirical_min", "shared_walk_domination",
    "parse_config", "parse_config_file", "format_config",
)


def test_exports_are_their_modules_exports():
    names = ["__version__"]
    for module in (importlib.import_module(f"rumorwalks.{m}") for m in MODULES):
        for name in module.__all__:
            assert getattr(rw, name) is getattr(module, name), (name, module)
        names += module.__all__
    assert len(set(rw.__all__)) == len(rw.__all__)
    assert sorted(rw.__all__) == sorted(names)
    assert len(EARLIER_EXPORTS) == 73
    assert set(EARLIER_EXPORTS) <= set(rw.__all__)


def test_runtime_dependency_is_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in
               project["optional-dependencies"]["test"])


def _env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


NO_SCIPY = textwrap.dedent("""
    import sys
    from pathlib import Path
    sys.modules["scipy"] = None  # any import of scipy now fails
    from rumorwalks.cli import main
    from rumorwalks.experiments import FAMILIES, build_graph

    sizes = {"star": 8, "double-star": 8, "heavy-tree": 7, "siamese": 7,
             "cycle-stars-cliques": 3, "regular": 16, "clique-path": 3,
             "complete": 5, "cycle": 6}
    assert sorted(sizes) == sorted(FAMILIES)
    for family, size in sizes.items():
        assert build_graph(family, size, "3", 1).is_connected()
    Path("c.cfg").write_text("family = cycle\\nprotocols = push\\n"
                             "sweep = 8\\ntrials = 2\\nseed = 1\\n")
    for argv in (["run", "--family", "regular", "--size", "32", "--d", "4",
                  "--protocol", "visit-exchange", "--seed", "1"],
                 ["sweep", "--config", "c.cfg", "--jobs", "2"],
                 ["couple", "--family", "cycle", "--size", "8", "--seed", "2",
                  "--out", "t.json"],
                 ["verify", "--transcript", "t.json"]):
        assert main(argv) == 0, argv
    assert not [m for m in sys.modules if m.startswith("scipy.")]
""")


def test_runs_without_scipy(tmp_path):
    # a fresh interpreter, so that no test's import of scipy is inherited
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rumorwalks; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


# what a run loads and never reads: numpy.ma (plain np.unique imports it
# lazily) and multiprocessing (a sweep's process pool)
UNREAD = ("numpy.ma", "multiprocessing")

COUPLED = textwrap.dedent("""
    import json, sys
    import rumorwalks as rw
    from rumorwalks import coupling as cp

    g = rw.generate_random_regular(64, 8, 1)
    tr = cp.run_coupled_even(g, 0, rw.AgentConfig(64), rw.SimRng(3))
    loaded = cp.transcript_from_json(json.loads(cp.transcript_dumps(tr)))
    assert cp.verify_transcript(loaded).ok
    print(sorted(m for m in {unread!r} if m in sys.modules))
""")

TRIALS = textwrap.dedent("""
    import sys
    from pathlib import Path
    from rumorwalks import experiments as ex

    for path in sorted(Path({cfgs!r}).glob("*.cfg")):
        cfg = ex.parse_config_file(path)
        ex._run_trial(cfg, min(cfg.sweep), 0, cfg.protocols)
    print(sorted(m for m in {unread!r} if m in sys.modules))
""")


@pytest.mark.parametrize("script", [
    COUPLED.format(unread=UNREAD),
    TRIALS.format(unread=UNREAD, cfgs=str(ROOT / "experiments"))],
    ids=["coupled", "trials"])
def test_runs_load_nothing_unread(script):
    # a fresh interpreter, so that no other test's imports are inherited
    proc = subprocess.run([sys.executable, "-c", script], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
