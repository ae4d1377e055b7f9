"""The benchmark's three workloads: their inputs, one timed pass each, the
output checks, and the wrapping points of the traced run.

Every call into the library goes through a module or class attribute looked
up at call time (``ex.run_trials``, ``cp.verify_transcript``), so the traced
run can rebind those names from outside.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import statistics
from pathlib import Path
from time import perf_counter

import rumorwalks.coupling as cp
import rumorwalks.experiments as ex
import rumorwalks.graphs as gr
import rumorwalks.protocols as pr
from rumorwalks.errors import RumorWalksError
from rumorwalks.graphs import Graph
from rumorwalks.protocols import AgentConfig
from rumorwalks.rng import ChoiceOracle, SimRng, derive_seed
from tracing import PARENT

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "experiments"

# The seed every shipped config carries; workload seed s uses BASE_SEED + s,
# so seed 0 reproduces the shipped streams.
BASE_SEED = 20260825

SWEEP_PROTOCOLS = ("push", "push-pull", "visit-exchange", "meet-exchange")


@dataclasses.dataclass
class Sweep:
    """One shipped config with its trial count and, optionally, the protocol
    pair whose median ratio is bootstrapped."""
    cfg_file: str
    trials: int
    overrides: dict = dataclasses.field(default_factory=dict)
    ratio: tuple | None = None


# Trial counts are sized so that the work's spread across seeds stays below
# the host's noise once calibrated; one pass takes 6 to 20 s on a 2-core Xeon.
SWEEPS = {
    "regular-sweep": [
        Sweep("regular_push_visitx.cfg", trials=32,
              overrides={"sweep": (1024, 4096, 16384)},
              ratio=("push", "visit-exchange")),
    ],
    "fixed-graph-sweep": [
        Sweep("star_push.cfg", trials=24),
        Sweep("heavy_tree.cfg", trials=20),
        Sweep("double_star.cfg", trials=40),
        Sweep("star_meetx_sweep.cfg", trials=40),
    ],
}

SWEEP_JOBS = 2        # the pool size of every sweep config
SMOKE_TRIALS = 2      # per cell, for --smoke
COUPLE_INDICES = 45   # 7 coupled runs per index: 315 ops per pass
COUPLE_SMOKE_INDICES = 2


@dataclasses.dataclass
class PassResult:
    wall: float      # excludes the time spent calibrating
    op_ms: list      # latency of each op that did not raise
    attempted: int
    failed: int
    digest: str
    problems: list   # output checks that failed: the run is not correct
    failures: list   # one message per failed op
    counts: dict


def _no_span(_name):
    return contextlib.nullcontext()


# -- inputs ---------------------------------------------------------------------

def setup(workload: str, seed: int, smoke: bool):
    """Build a workload's inputs from its seed."""
    master = BASE_SEED + seed
    if workload in SWEEPS:
        out = []
        for sw in SWEEPS[workload]:
            cfg = ex.parse_config_file(EXPERIMENTS / sw.cfg_file)
            cfg = dataclasses.replace(
                cfg, trials=SMOKE_TRIALS if smoke else sw.trials,
                jobs=SWEEP_JOBS, seed=cfg.seed - BASE_SEED + master,
                **sw.overrides)
            out.append((sw.cfg_file, cfg, sw.ratio))
        return out
    if workload == "couple-verify":
        ops = []
        for i in range(COUPLE_SMOKE_INDICES if smoke else COUPLE_INDICES):
            # the five-family corpus of the coupling acceptance check, with
            # its regular graph resampled per index
            corpus = [
                gr.generate_complete(2),
                gr.generate_cycle(8),
                gr.generate_star(16),
                gr.generate_random_regular(
                    64, 8, derive_seed(master, "couple-verify", "r64", i)),
                gr.generate_heavy_binary_tree(15),
            ]
            big = gr.generate_random_regular(
                512, 9, derive_seed(master, "couple-verify", "r512", i))
            runs = [(g, "even") for g in corpus] + [(big, "even"), (big, "odd")]
            for gi, (g, mode) in enumerate(runs):
                ops.append((f"{i}:{gi}", g, mode,
                            derive_seed(master, "couple-verify", "run", i, gi)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- one pass -------------------------------------------------------------------

def run_pass(workload: str, inputs, jobs: int | None = None,
             tracer=None, calib=None) -> PassResult:
    """Run every op of the workload once; ``jobs`` overrides the configs'.
    With a :class:`calibrate.Calibration`, the reference loop is sampled
    between ops and after the last."""
    if workload in SWEEPS:
        return _sweep_pass(inputs, jobs, tracer, calib)
    return _couple_pass(inputs, tracer, calib)


def _sweep_pass(inputs, jobs, tracer, calib) -> PassResult:
    span = tracer.span if tracer else _no_span
    digest = hashlib.sha256()
    op_ms, problems, failures = [], [], []
    attempted = failed = 0
    t_pass = perf_counter()
    for label, cfg, ratio in inputs:
        if calib:
            calib.between_ops()
        if jobs is not None:
            cfg = dataclasses.replace(cfg, jobs=jobs)
        cells = len(cfg.sweep) * len(cfg.protocols)
        trials = cells * cfg.trials
        attempted += trials
        if tracer:
            tracer.op = label
        t0 = perf_counter()
        try:
            with span("op"):
                res = ex.run_trials(cfg)
                points = ex.sweep_ratio(res, *ratio) if ratio else []
                csv = ex.result_to_csv(res)
        except RumorWalksError as exc:
            # every generation for one size failed: the whole config is lost
            failed += trials
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        # pool workers hide single trials: each trial of the config counts
        # as one op taking the config's wall time per trial
        op_ms += [(perf_counter() - t0) * 1e3 / trials] * trials
        failed += sum(r.incomplete for r in res.rows)
        failures += [f"{label}: n={r.n} {r.protocol}: {r.incomplete} incomplete"
                     for r in res.rows if r.incomplete]
        if len(res.rows) != cells or any(
                len(r.values) + r.incomplete != cfg.trials for r in res.rows):
            problems.append(f"{label}: rows do not account for every trial")
        digest.update(csv.encode())
        for p in points:
            digest.update(repr(dataclasses.astuple(p)).encode())
    return _finish(t_pass, calib, op_ms, attempted, failed,
                   digest.hexdigest(), problems, failures, {})


def _finish(t_pass, calib, *fields) -> PassResult:
    if calib:
        calib.sample()
    spent = calib.spent if calib else 0.0
    return PassResult(perf_counter() - t_pass - spent, *fields)


def _couple_pass(ops, tracer, calib) -> PassResult:
    span = tracer.span if tracer else _no_span
    digest = hashlib.sha256()
    op_ms, failures = [], []
    failed = entries = nbytes = 0
    t_pass = perf_counter()
    for op_id, g, mode, seed in ops:
        if calib:
            calib.between_ops()
        if tracer:
            tracer.op = op_id
        t0 = perf_counter()
        try:
            # the path of `rumorwalks couple` followed by `rumorwalks verify`
            with span("op"):
                acfg = AgentConfig(count=g.n)
                if mode == "even":
                    tr = cp.run_coupled_even(g, 0, acfg, SimRng(seed))
                else:
                    tr = cp.run_coupled_odd(g, 0, acfg, SimRng(seed),
                                            enable_r_floor=True)
                text = cp.transcript_dumps(tr)
                with span("coupling.transcript_load"):
                    loaded = cp.transcript_from_json(json.loads(text))
                report = cp.verify_transcript(loaded)
        except RumorWalksError as exc:
            failed += 1
            failures.append(f"op {op_id}: {type(exc).__name__}: {exc}")
            continue
        op_ms.append((perf_counter() - t0) * 1e3)
        # an even-mode transcript must reach the chain-walk check
        if not (tr.complete and report.ok
                and (mode == "odd" or report.checks.get("chain-walks"))):
            failed += 1
            failures.append(f"op {op_id}: complete={tr.complete} "
                            f"violations={report.violations[:3]}")
        entries += sum(len(ws) for ws in tr.choices.values())
        nbytes += len(text)
        digest.update(text.encode())
    return _finish(t_pass, calib, op_ms, len(ops), failed,
                   digest.hexdigest(), [], failures,
                   {"rng.oracle_entries": entries,
                    "coupling.transcript_bytes": nbytes})


# -- traced run -----------------------------------------------------------------

def install(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    counts = tracer.counts

    def rounds(protocol):
        def note(_args, result):
            counts[f"protocols.{protocol}.rounds"] += result.rounds
        return note

    tracer.wrap(ex, "generate_random_regular", "graphs.generate_regular",
                note=lambda args, _r: tracer.distinct["graphs"].add(args[:3]))
    tracer.wrap(Graph, "from_edges", "graphs.from_edges")
    tracer.wrap(pr, "place_stationary", "rng.place_stationary")
    tracer.wrap(ChoiceOracle, "choice", "rng.oracle_choice", leaf=True)
    for p in SWEEP_PROTOCOLS:
        tracer.wrap(ex, "run_" + p.replace("-", "_"), f"protocols.{p}",
                    note=rounds(p))
    for fn in ("run_trials", "sweep_ratio", "result_to_csv"):
        tracer.wrap(ex, fn, f"experiments.{fn}")
    tracer.wrap(cp, "run_coupled_even", "coupling.run_coupled")
    tracer.wrap(cp, "run_coupled_odd", "coupling.run_coupled")
    tracer.wrap(cp, "verify_transcript", "coupling.verify_transcript")
    tracer.wrap(cp, "reconstruct_min_chain_walk", "coupling.chain_walks",
                leaf=True)
    tracer.wrap(cp, "compute_s_sets", "coupling.s_sets")
    tracer.wrap(cp, "compute_c_counters", "coupling.c_counters")
    tracer.wrap(cp, "transcript_dumps", "coupling.transcript_dumps")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def pct(values, q: int) -> float:
    """q-th percentile (q in 1..99), 0 when there is nothing to rank."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "graphs.generate_regular.calls": "count",
    "graphs.generate_regular.s": "s",
    "graphs.generate_regular.ms_p50": "ms",
    "graphs.generate_regular.ms_p90": "ms",
    "graphs.builds_per_graph": "ratio",
    "graphs.from_edges.calls": "count",
    "graphs.from_edges.s": "s",
    "graphs.from_edges_per_graph": "ratio",
    "rng.place_stationary.calls": "count",
    "rng.place_stationary.s": "s",
    "rng.oracle_choice.calls": "count",
    "rng.oracle_choice.s": "s",
    "rng.oracle_entries": "count",
    **{f"protocols.{p}.{k}": u for p in SWEEP_PROTOCOLS
       for k, u in (("calls", "count"), ("s", "s"), ("rounds", "count"),
                    ("us_per_round", "us/round"))},
    "experiments.run_trials.s": "s",
    "experiments.self_s": "s",
    "experiments.sweep_ratio.s": "s",
    "experiments.result_to_csv.s": "s",
    "experiments.jobs_speedup": "ratio",
    "coupling.run_coupled.calls": "count",
    "coupling.run_coupled.s": "s",
    "coupling.verify_transcript.s": "s",
    "coupling.chain_walks.calls": "count",
    "coupling.chain_walks.s": "s",
    "coupling.s_sets.s": "s",
    "coupling.c_counters.s": "s",
    "coupling.transcript_dumps.s": "s",
    "coupling.transcript_load.s": "s",
    "coupling.transcript_bytes": "B",
    "trace.busy_s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(tracer, traced: PassResult, jobs1_wall: float,
                  normal_wall: float) -> dict:
    """Per-layer metrics of one traced pass; inclusive span time is ``.s``."""
    rows = tracer.by_name()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def row(name):
        return rows.get(name, empty)

    gen = row("graphs.generate_regular")
    gen_idx = {i for i, rec in enumerate(tracer.spans)
               if rec[0] == "graphs.generate_regular"}
    fe_in_gen = sum(1 for rec in tracer.spans
                    if rec[0] == "graphs.from_edges" and rec[PARENT] in gen_idx)
    v = {
        "graphs.generate_regular.calls": gen["calls"],
        "graphs.generate_regular.s": gen["total_s"],
        "graphs.generate_regular.ms_p50": pct(gen["durations"], 50) * 1e3,
        "graphs.generate_regular.ms_p90": pct(gen["durations"], 90) * 1e3,
        "graphs.builds_per_graph": _ratio(gen["calls"],
                                          len(tracer.distinct["graphs"])),
        "graphs.from_edges.calls": row("graphs.from_edges")["calls"],
        "graphs.from_edges.s": row("graphs.from_edges")["total_s"],
        "graphs.from_edges_per_graph": _ratio(fe_in_gen, gen["calls"]),
        "rng.place_stationary.calls": row("rng.place_stationary")["calls"],
        "rng.place_stationary.s": row("rng.place_stationary")["total_s"],
        "rng.oracle_choice.calls": row("rng.oracle_choice")["calls"],
        "rng.oracle_choice.s": row("rng.oracle_choice")["total_s"],
        "rng.oracle_entries": traced.counts.get("rng.oracle_entries", 0),
    }
    for p in SWEEP_PROTOCOLS:
        r = row(f"protocols.{p}")
        n_rounds = tracer.counts[f"protocols.{p}.rounds"]
        v[f"protocols.{p}.calls"] = r["calls"]
        v[f"protocols.{p}.s"] = r["total_s"]
        v[f"protocols.{p}.rounds"] = n_rounds
        v[f"protocols.{p}.us_per_round"] = _ratio(r["total_s"] * 1e6, n_rounds)
    busy = row("op")["total_s"]
    v.update({
        "experiments.run_trials.s": row("experiments.run_trials")["total_s"],
        "experiments.self_s": row("experiments.run_trials")["self_s"],
        "experiments.sweep_ratio.s": row("experiments.sweep_ratio")["total_s"],
        "experiments.result_to_csv.s":
            row("experiments.result_to_csv")["total_s"],
        "experiments.jobs_speedup": _ratio(jobs1_wall, normal_wall),
        "coupling.run_coupled.calls": row("coupling.run_coupled")["calls"],
        "coupling.run_coupled.s": row("coupling.run_coupled")["total_s"],
        "coupling.verify_transcript.s":
            row("coupling.verify_transcript")["total_s"],
        "coupling.chain_walks.calls": row("coupling.chain_walks")["calls"],
        "coupling.chain_walks.s": row("coupling.chain_walks")["total_s"],
        "coupling.s_sets.s": row("coupling.s_sets")["total_s"],
        "coupling.c_counters.s": row("coupling.c_counters")["total_s"],
        "coupling.transcript_dumps.s":
            row("coupling.transcript_dumps")["total_s"],
        "coupling.transcript_load.s":
            row("coupling.transcript_load")["total_s"],
        "coupling.transcript_bytes":
            traced.counts.get("coupling.transcript_bytes", 0),
        "trace.busy_s": busy,
        "trace.overhead_frac": _ratio(traced.wall, jobs1_wall) - 1.0,
    })
    return {name: v[name] for name in PER_LAYER}

