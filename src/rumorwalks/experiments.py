"""Experiment harness: seeded Monte-Carlo trials over graph families,
aggregation, growth-model fitting, and CSV/config round-tripping.

Every trial derives its own seed from the master seed and the trial identity
(family, size, protocol, index), so results are reproducible run-to-run and
independent of execution order or worker count.  Random graph families draw
a fresh graph per (size, trial), whose seed leaves out the protocol, so it is
built once and shared by every protocol of the trial.  Deterministic families
share one immutable graph per size, built once in each process that runs the
sweep.  With ``jobs > 1`` one process pool, no larger than the tasks or
CPUs, runs all trials of the sweep, whatever the family; shared-walk
domination runs its trials through the same loop and pool.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, FitError, GenerationFailureError, InvalidParameterError
from .graphs import (Graph, generate_clique_path, generate_complete,
                     generate_cycle, generate_cycle_stars_cliques,
                     generate_double_star, generate_heavy_binary_tree,
                     generate_random_regular, generate_siamese_trees,
                     generate_star)
from .protocols import (PLACEMENTS, AgentConfig, run_meet_exchange,
                        run_push, run_push_pull, run_r_visit_exchange,
                        run_shared_visit_meet, run_t_visit_exchange,
                        run_visit_exchange)
from .rng import SimRng, check_seed, derive_seed

__all__ = [
    "ExperimentConfig",
    "TrialRow",
    "ExperimentResult",
    "RatioPoint",
    "DominationRow",
    "GrowthFit",
    "ModelFit",
    "PROTOCOLS",
    "FAMILIES",
    "GROWTH_MODELS",
    "CSV_HEADER",
    "build_graph",
    "resolve_source",
    "agent_config",
    "run_protocol",
    "run_trials",
    "result_to_csv",
    "sweep_ratio",
    "fit_growth",
    "fit_growth_points",
    "empirical_min",
    "shared_walk_domination",
    "parse_config",
    "parse_config_file",
    "format_config",
]

PROTOCOLS = ("push", "push-pull", "visit-exchange", "meet-exchange",
             "t-visit-exchange", "r-visit-exchange")

FAMILIES = ("star", "double-star", "heavy-tree", "siamese",
            "cycle-stars-cliques", "regular", "clique-path",
            "complete", "cycle")

RANDOM_FAMILIES = ("regular",)

SOURCE_RULES = ("center", "leaf", "uniform")

CSV_HEADER = ("family,n,protocol,alpha,lazy,trials,incomplete,"
              "mean,median,q05,q95,min,max,seed")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of a sweep; see ``parse_config`` for the
    flat key=value file format."""
    family: str
    protocols: tuple
    sweep: tuple
    trials: int
    seed: int
    alpha: float = 1.0
    agents: int | None = None
    placement: str = "stationary"
    lazy: bool = False
    source: str = "0"
    d: str | None = None
    gamma: float | None = None
    floor: float | None = None
    round_cap: int | None = None
    jobs: int = 1
    bootstrap: int = 1000

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}", "family")
        if not self.protocols:
            raise ConfigError("at least one protocol is required",
                              "protocols")
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise ConfigError(f"unknown protocol {p!r}", "protocols")
        if not self.sweep:
            raise ConfigError("sweep must list at least one size", "sweep")
        if any(int(s) < 1 for s in self.sweep):
            raise ConfigError("sweep sizes must be positive", "sweep")
        try:
            check_seed(self.seed)
        except InvalidParameterError as exc:
            raise ConfigError(str(exc), "seed") from None
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}",
                              "trials")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}, "
                              f"got {self.placement!r}", "placement")
        for key in ("alpha", "gamma", "floor"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}", key)
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}", "alpha")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}", "jobs")
        if self.round_cap is not None and self.round_cap < 1:
            raise ConfigError(f"round_cap must be >= 1, got {self.round_cap}",
                              "round_cap")
        if self.bootstrap < 1:
            raise ConfigError(f"bootstrap must be >= 1, got {self.bootstrap}",
                              "bootstrap")
        if not (self.source in SOURCE_RULES or _is_int(self.source)):
            raise ConfigError(f"source must be an id or one of {SOURCE_RULES}, "
                              f"got {self.source!r}", "source")
        if "t-visit-exchange" in self.protocols and self.gamma is None:
            raise ConfigError("t-visit-exchange requires gamma")
        if self.family in ("regular", "clique-path") and self.d is None:
            raise ConfigError(f"family {self.family!r} requires d")
        if self.d is not None and not _is_degree_spec(self.d):
            raise ConfigError(f"d must be an integer >= 1 or 'log2ceil', "
                              f"got {self.d!r}", "d")


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except (TypeError, ValueError):
        return False


def _is_degree_spec(d_spec) -> bool:
    return d_spec == "log2ceil" or (_is_int(d_spec) and int(d_spec) >= 1)


def _resolve_d(d_spec: str | None, size: int) -> int:
    if not _is_degree_spec(d_spec):
        raise InvalidParameterError(
            f"d must be an integer >= 1 or 'log2ceil', got {d_spec!r}")
    if d_spec == "log2ceil":
        return max(1, math.ceil(math.log2(max(size, 2))))
    return int(d_spec)


def build_graph(family: str, size: int, d_spec: str | None, seed: int) -> Graph:
    """Instantiate one graph of the family at the given sweep size."""
    if family == "star":
        return generate_star(size)
    if family == "double-star":
        return generate_double_star(size)
    if family == "heavy-tree":
        return generate_heavy_binary_tree(size)
    if family == "siamese":
        return generate_siamese_trees(size)
    if family == "cycle-stars-cliques":
        return generate_cycle_stars_cliques(size)
    if family == "regular":
        return generate_random_regular(size, _resolve_d(d_spec, size), seed)
    if family == "clique-path":
        return generate_clique_path(size, _resolve_d(d_spec, size))
    if family == "complete":
        return generate_complete(size)
    if family == "cycle":
        return generate_cycle(size)
    raise InvalidParameterError(f"unknown family {family!r}")


def resolve_source(rule: str, graph: Graph, gen: np.random.Generator) -> int:
    """Map a source rule to a vertex: canonical center (vertex 0), the last
    vertex (always a leaf in the leafy families), uniform, or a fixed id."""
    if rule == "center":
        return 0
    if rule == "leaf":
        return graph.n - 1
    if rule == "uniform":
        return int(gen.integers(0, graph.n))
    v = int(rule)
    if not (0 <= v < graph.n):
        raise InvalidParameterError(f"source {v} out of range for n={graph.n}")
    return v


def agent_config(graph: Graph, alpha: float = 1.0, agents: int | None = None,
                 placement: str = "stationary",
                 lazy: bool = False) -> AgentConfig:
    """The walkers of one run: ``agents`` of them when given, else
    round(alpha * n)."""
    if agents is None:
        if not math.isfinite(alpha * graph.n):
            raise InvalidParameterError(
                f"alpha * n must be finite, got alpha={alpha}, n={graph.n}")
        agents = round(alpha * graph.n)
    return AgentConfig(count=agents, placement=placement, lazy=lazy)


def run_protocol(name: str, graph: Graph, source: int, rng: SimRng, *,
                 alpha: float = 1.0, agents: int | None = None,
                 placement: str = "stationary", lazy: bool = False,
                 gamma: float | None = None, floor: float | None = None,
                 round_cap: int | None = None):
    """Run the protocol called ``name`` once and return its BroadcastResult.

    The agent settings apply to the four agent protocols, ``gamma`` to
    t-visit-exchange (where it is required) and ``floor`` to
    r-visit-exchange.
    """
    if name == "push":
        return run_push(graph, source, rng, round_cap)
    if name == "push-pull":
        return run_push_pull(graph, source, rng, round_cap)
    acfg = agent_config(graph, alpha, agents, placement, lazy)
    if name == "visit-exchange":
        return run_visit_exchange(graph, source, acfg, rng, round_cap)
    if name == "meet-exchange":
        return run_meet_exchange(graph, source, acfg, rng, round_cap)
    if name == "t-visit-exchange":
        if gamma is None:
            raise InvalidParameterError("t-visit-exchange requires gamma")
        return run_t_visit_exchange(graph, source, acfg, gamma, rng, round_cap)
    if name == "r-visit-exchange":
        return run_r_visit_exchange(graph, source, acfg, rng, round_cap, floor)
    raise InvalidParameterError(f"unknown protocol {name!r}")


@lru_cache(maxsize=None)
def _fixed_graph(family: str, size: int, d_spec: str | None) -> Graph:
    """The one graph of a deterministic family at a sweep size, built once
    in each process that runs the sweep.  It depends on nothing but the
    key and is immutable, so every trial may share it; each sweep clears
    the cache when it ends, so no graph outlives its sweep."""
    return build_graph(family, size, d_spec, 0)


def _trial_graph(cfg: ExperimentConfig, size: int, trial: int) -> Graph:
    if cfg.family not in RANDOM_FAMILIES:
        return _fixed_graph(cfg.family, size, cfg.d)
    gseed = derive_seed(cfg.seed, "graph", cfg.family, size, trial)
    return build_graph(cfg.family, size, cfg.d, gseed)


def _run_trial(cfg: ExperimentConfig, size: int, trial: int, labels: tuple):
    """One trial: build the trial's graph, or take the family's shared one,
    and run each label on it from its own seed: a protocol of the config, or
    ``"shared"`` for visit- and meet-exchange over shared walks.

    Returns ``(vertex_count, outs)``, one out per label: a broadcast time,
    or for ``"shared"`` the pair (round visit-exchange informed every agent,
    meet-exchange broadcast time); None when a run did not complete.  A
    failed generation gives a None count.
    """
    try:
        graph = _trial_graph(cfg, size, trial)
    except GenerationFailureError:
        return None, [None] * len(labels)
    outs = []
    for label in labels:
        rng = SimRng(derive_seed(cfg.seed, "run", cfg.family, size, label,
                                 trial))
        source = resolve_source(cfg.source, graph, rng.stream("source"))
        if label == "shared":
            acfg = agent_config(graph, cfg.alpha, cfg.agents, cfg.placement,
                                cfg.lazy)
            out = run_shared_visit_meet(graph, source, acfg, rng,
                                        cfg.round_cap)
            done = out.meetx.complete and out.visitx_agents_round is not None
            outs.append((out.visitx_agents_round, out.meetx.broadcast_time)
                        if done else None)
        else:
            outs.append(run_protocol(
                label, graph, source, rng, alpha=cfg.alpha, agents=cfg.agents,
                placement=cfg.placement, lazy=cfg.lazy, gamma=cfg.gamma,
                floor=cfg.floor, round_cap=cfg.round_cap).broadcast_time)
    return graph.n, outs


def _sweep_outcomes(config: ExperimentConfig, labels: tuple):
    """Yield ``(size, outcomes)`` in sweep order, one ``_run_trial`` outcome
    per trial in trial order.

    Every (size, trial) pair is one task; one process pool serves every
    task of the sweep, with ``jobs`` workers but no more than there are
    tasks or CPUs, and none when that leaves one.  A random family builds
    each graph once per (size, trial); a deterministic family builds its
    one graph per size once in each process.
    """
    sizes = [size for size in config.sweep for _ in range(config.trials)]
    trials = [i for _ in config.sweep for i in range(config.trials)]
    tasks = (_run_trial, repeat(config), sizes, trials, repeat(labels))
    workers = min(config.jobs, len(sizes), os.cpu_count() or 1)
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(*tasks))
        else:
            outcomes = list(map(*tasks))
    finally:
        _fixed_graph.cache_clear()
    for k, size in enumerate(config.sweep):
        yield size, outcomes[k * config.trials:(k + 1) * config.trials]


@dataclass(frozen=True)
class TrialRow:
    """Aggregated statistics for one (size, protocol) cell.

    ``values`` keeps the per-trial broadcast times of completed trials in
    trial order so downstream bootstrap resampling can reuse them.
    Incomplete trials, ``capped`` at the round cap plus ``gen_failed``
    (graph generation failed), are counted but do not enter the moments.
    """
    family: str
    n: int
    size: int
    protocol: str
    alpha: float
    lazy: bool
    trials: int
    incomplete: int
    capped: int
    gen_failed: int
    values: tuple
    seed: int
    mean: float | None
    median: float | None
    q05: float | None
    q95: float | None
    min: float | None
    max: float | None


def _make_row(cfg: ExperimentConfig, n: int, size: int, protocol: str,
              values: list, capped: int, gen_failed: int) -> TrialRow:
    arr = np.asarray(values, dtype=np.float64)
    stats = {k: None for k in ("mean", "median", "q05", "q95", "min", "max")}
    if arr.size:
        stats = {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "q05": float(np.quantile(arr, 0.05)),
            "q95": float(np.quantile(arr, 0.95)),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }
    return TrialRow(family=cfg.family, n=n, size=size, protocol=protocol,
                    alpha=cfg.alpha, lazy=cfg.lazy, trials=cfg.trials,
                    incomplete=capped + gen_failed, capped=capped,
                    gen_failed=gen_failed, values=tuple(values),
                    seed=cfg.seed, **stats)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list

    def row(self, size: int, protocol: str) -> TrialRow:
        for r in self.rows:
            if r.size == size and r.protocol == protocol:
                return r
        raise KeyError((size, protocol))

    def rows_for(self, protocol: str) -> list:
        return [r for r in self.rows if r.protocol == protocol]


def run_trials(config: ExperimentConfig) -> ExperimentResult:
    """Run the full sweep.  Trials are seeded by identity, so the result is
    byte-identical regardless of ``jobs``."""
    rows = []
    for size, outcomes in _sweep_outcomes(config, config.protocols):
        built = [n for n, _ in outcomes if n is not None]
        failed = len(outcomes) - len(built)
        if not built:
            raise GenerationFailureError(
                f"all {config.trials} generations failed for "
                f"{config.family} size {size}")
        for j, protocol in enumerate(config.protocols):
            values = [int(times[j]) for _, times in outcomes
                      if times[j] is not None]
            rows.append(_make_row(config, built[-1], size, protocol, values,
                                  len(built) - len(values), failed))
    return ExperimentResult(config=config, rows=rows)


# -- CSV ------------------------------------------------------------------------

def _csv_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return repr(x)


def result_to_csv(result: ExperimentResult) -> str:
    """Stable text form: same config and seed always yield identical bytes."""
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(",".join([
            r.family, str(r.n), r.protocol, _csv_num(float(r.alpha)),
            "true" if r.lazy else "false", str(r.trials), str(r.incomplete),
            _csv_num(r.mean), _csv_num(r.median), _csv_num(r.q05),
            _csv_num(r.q95), _csv_num(r.min), _csv_num(r.max), str(r.seed),
        ]))
    return "\n".join(lines) + "\n"


# -- comparisons -------------------------------------------------------------------

@dataclass(frozen=True)
class RatioPoint:
    size: int
    n: int
    ratio: float
    ci_low: float
    ci_high: float


def _bootstrap(gen, values: np.ndarray, resamples: int) -> np.ndarray:
    """Medians of ``resamples`` resamples of ``values``, drawn as that many
    ``gen.integers(0, k, size=k)`` calls would draw them."""
    k = values.shape[0]
    rows = max(1, 2 ** 20 // k)  # resamples per call, bounding memory
    return np.concatenate([np.median(values[gen.integers(
        0, k, size=(min(rows, resamples - i), k))], axis=1)
        for i in range(0, resamples, rows)])


def sweep_ratio(result, protocol_a: str, protocol_b: str,
                resamples: int | None = None) -> list:
    """Per-size ratio of median broadcast times, with a bootstrap CI.

    Accepts either a finished ExperimentResult containing both protocols or
    an ExperimentConfig to run first.
    """
    if isinstance(result, ExperimentConfig):
        result = run_trials(result)
    if resamples is None:
        resamples = result.config.bootstrap
    points = []
    for size in result.config.sweep:
        ra = result.row(size, protocol_a)
        rb = result.row(size, protocol_b)
        if not ra.values or not rb.values:
            raise InvalidParameterError(
                f"no completed trials to compare at size {size}")
        va = np.asarray(ra.values, dtype=np.float64)
        vb = np.asarray(rb.values, dtype=np.float64)
        ratio = float(np.median(va) / np.median(vb))
        gen = np.random.Generator(np.random.PCG64(
            derive_seed(result.config.seed, "bootstrap-ratio", size,
                        protocol_a, protocol_b)))
        if protocol_a == protocol_b:
            # the ratio of a sample to itself is identically one
            samples = np.ones(resamples)
        else:
            samples = (_bootstrap(gen, va, resamples)
                       / _bootstrap(gen, vb, resamples))
        points.append(RatioPoint(size=size, n=ra.n, ratio=ratio,
                                 ci_low=float(np.quantile(samples, 0.025)),
                                 ci_high=float(np.quantile(samples, 0.975))))
    return points


@dataclass(frozen=True)
class DominationRow:
    size: int
    n: int
    trials: int
    completed: int
    holds: int
    violations: tuple


def shared_walk_domination(config: ExperimentConfig) -> list:
    """Per-trial check that, over shared walks, visit-exchange informs all
    agents no later than meet-exchange completes."""
    rows = []
    for size, outcomes in _sweep_outcomes(config, ("shared",)):
        built = [n for n, _ in outcomes if n is not None]
        done = [(i, *outs[0]) for i, (_, outs) in enumerate(outcomes)
                if outs[0] is not None]
        violations = tuple(v for v in done if v[1] > v[2])
        rows.append(DominationRow(
            size=size, n=built[-1] if built else 0, trials=config.trials,
            completed=len(done), holds=len(done) - len(violations),
            violations=violations))
    return rows


# -- growth-model fitting -----------------------------------------------------------

GROWTH_MODELS = {
    "log n": lambda n: np.log2(n),
    "n": lambda n: np.asarray(n, dtype=np.float64),
    "n log n": lambda n: n * np.log2(n),
    "n^(2/3)": lambda n: np.asarray(n, dtype=np.float64) ** (2.0 / 3.0),
}


@dataclass(frozen=True)
class ModelFit:
    intercept: float
    slope: float
    rss: float
    r2: float


@dataclass(frozen=True)
class GrowthFit:
    points: tuple
    fits: dict
    best_model: str


def fit_growth_points(points, models=None) -> GrowthFit:
    """Least-squares fit of y = a + b * f(n) for each candidate model.

    ``points`` is a sequence of (n, y) pairs; the best model minimizes the
    residual sum of squares.  Degenerate inputs (fewer than 3 points, or no
    variation) raise FitError.
    """
    models = dict(models or GROWTH_MODELS)
    pts = sorted((int(n), float(y)) for n, y in points)
    if len(pts) < 3:
        raise FitError(f"need at least 3 sweep points, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    if np.unique(ns).shape[0] < 3:
        raise FitError("need at least 3 distinct sizes")
    tss = float(((ys - ys.mean()) ** 2).sum())
    if tss == 0.0:
        raise FitError("degenerate sweep: constant medians")
    fits = {}
    for name, f in models.items():
        x = np.asarray(f(ns), dtype=np.float64)
        design = np.column_stack([np.ones_like(x), x])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        resid = ys - design @ coef
        rss = float((resid ** 2).sum())
        fits[name] = ModelFit(intercept=float(coef[0]), slope=float(coef[1]),
                              rss=rss, r2=1.0 - rss / tss)
    best = min(fits, key=lambda name: fits[name].rss)
    return GrowthFit(points=tuple(pts), fits=fits, best_model=best)


def fit_growth(result: ExperimentResult, protocol: str,
               models=None) -> GrowthFit:
    """Fit the per-size median broadcast times of one protocol."""
    rows = result.rows_for(protocol)
    pts = [(r.n, r.median) for r in rows if r.median is not None]
    if len(pts) < 3:
        raise FitError(f"protocol {protocol!r} has {len(pts)} usable sweep "
                       "points; need at least 3")
    return fit_growth_points(pts, models)


def empirical_min(result: ExperimentResult) -> dict:
    """Minimum completed broadcast time per (n, protocol) cell."""
    return {(r.n, r.protocol): (min(r.values) if r.values else None)
            for r in result.rows}


# -- flat config files ----------------------------------------------------------------

def _to_bool(v: str) -> bool:
    if v.lower() in ("true", "yes", "1"):
        return True
    if v.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {v!r}")


def _to_list(v: str) -> tuple:
    return tuple(part.strip() for part in v.split(",") if part.strip())


def _to_int_list(v: str) -> tuple:
    return tuple(int(part) for part in _to_list(v))


# how the value of each non-``str`` key is read; the keys, their order, which
# are required and their defaults are the fields of ExperimentConfig
_READERS = {"protocols": _to_list, "sweep": _to_int_list, "trials": int,
            "seed": int, "alpha": float, "agents": int, "lazy": _to_bool,
            "gamma": float, "floor": float, "round_cap": int, "jobs": int,
            "bootstrap": int}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` config format.

    Blank lines and ``#`` comments are ignored; keys may appear once.
    Errors carry the offending line number.
    """
    spec = {f.name: f for f in fields(ExperimentConfig)}
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in spec:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = (value, lineno)

    values = {}
    for key, field in spec.items():
        if key not in raw:
            if field.default is MISSING:
                raise ConfigError(f"missing required key {key!r}")
            continue
        value, lineno = raw[key]
        try:
            values[key] = _READERS.get(key, str)(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        if exc.key not in raw:
            raise
        raise ConfigError(f"line {raw[exc.key][1]}: {exc}", exc.key) from exc
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_file(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


def format_config(cfg: ExperimentConfig) -> str:
    """Inverse of :func:`parse_config`: parse(format(cfg)) == cfg.  Keys come
    in field order; an optional key left at None is not written."""
    lines = []
    for field in fields(cfg):
        value, reader = getattr(cfg, field.name), _READERS.get(field.name)
        if value is None and field.default is None:
            continue
        if reader is _to_bool:
            text = "true" if value else "false"
        elif reader in (_to_list, _to_int_list):
            text = ", ".join(str(v) for v in value)
        else:
            text = repr(float(value)) if isinstance(value, float) else str(value)
        lines.append(f"{field.name} = {text}")
    return "\n".join(lines) + "\n"
