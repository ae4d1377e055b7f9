"""Command-line interface.

Subcommands:
  generate   write a graph as an edge-list file
  run        one simulation of one protocol on one graph
  sweep      run a config-file experiment sweep, emit CSV
  couple     run the coupled agent/sampler simulation, emit a transcript
  verify     re-check a transcript's internal consistency

Machine output (JSON) goes to stdout; logs and the chosen seed go to stderr.
Exit codes: 0 success, 1 usage or config error, 2 run did not complete
(round cap or generation failure), 3 verification failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import secrets
import sys
from pathlib import Path

from .coupling import (run_coupled, transcript_dumps, transcript_from_json,
                       verify_transcript)
from .errors import (ConfigError, GenerationFailureError,
                     InvalidParameterError, RumorWalksError,
                     TranscriptCorruptError)
from .experiments import (FAMILIES, PROTOCOLS, agent_config, build_graph,
                          parse_config_file, resolve_source, result_to_csv,
                          run_protocol, run_trials)
from .graphs import load_edge_list, save_edge_list
from .protocols import PLACEMENTS, trace_events
from .rng import SimRng, check_seed

log = logging.getLogger("rumorwalks")


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    drawn = secrets.randbits(63)
    log.info("seed not given; using %d", drawn)
    return drawn


def _seed_arg(text: str) -> int:
    """``--seed`` of every command that takes one: an int that derived
    streams can use (argparse names the flag when this raises)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    try:
        return check_seed(seed)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _start_run(args):
    """``(seed, graph, rng, source)`` of a run or couple command."""
    seed = _resolve_seed(args.seed)
    if args.graph:
        graph = load_edge_list(args.graph)
    elif args.family is None or args.size is None:
        raise ConfigError("either --graph or both --family and --size are required")
    else:
        graph = build_graph(args.family, args.size, args.d, seed)
    rng = SimRng(seed)
    return seed, graph, rng, resolve_source(args.source, graph,
                                            rng.stream("source"))


def _add_start_args(p: argparse.ArgumentParser) -> None:
    """Flags of a run or couple: graph, source, seed, round cap, floor."""
    p.add_argument("--graph", metavar="PATH",
                   help="edge-list file to load instead of generating")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--size", type=int,
                   help="family size parameter (vertex count for most families)")
    p.add_argument("--d", default=None,
                   help="degree for regular / clique size for clique-path; "
                        "'log2ceil' scales with size")
    p.add_argument("--source", default="0",
                   help="vertex id, or center / leaf / uniform")
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.add_argument("--round-cap", type=int, default=None)
    p.add_argument("--floor", type=float, default=None,
                   help="occupancy floor of r-visit-exchange and couple "
                        "--r-floor")


def _add_agent_args(p: argparse.ArgumentParser) -> None:
    """Flags of the walkers; None when not given (see :func:`_given`)."""
    p.add_argument("--alpha", type=float, default=None,
                   help="agents per vertex")
    p.add_argument("--agents", type=int, default=None,
                   help="explicit agent count (overrides --alpha)")
    p.add_argument("--placement", choices=PLACEMENTS, default=None)


def _given(args, *keys) -> dict:
    """The flags among ``keys`` that were given, by name; the library's
    signatures supply the defaults of the rest."""
    return {key: value for key in keys
            if (value := getattr(args, key)) is not None}


def _write_trace(path: str, trace) -> None:
    lines = ["kind,id,round"]
    lines += [f"{kind},{ident},{rnd}" for kind, ident, rnd in trace_events(trace)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_generate(args) -> int:
    seed = _resolve_seed(args.seed)
    graph = build_graph(args.family, args.size, args.d, seed)
    save_edge_list(graph, args.out)
    _emit({"family": args.family, "n": graph.n, "m": graph.m,
           "regular": graph.is_regular, "bipartite": graph.is_bipartite(),
           "seed": seed, "path": str(args.out)})
    return 0


def _cmd_run(args) -> int:
    seed, graph, rng, source = _start_run(args)
    res = run_protocol(args.protocol, graph, source, rng,
                       **_given(args, "alpha", "agents", "placement", "lazy",
                                "gamma", "floor"), round_cap=args.round_cap)
    if args.protocol == "meet-exchange" and not args.lazy \
            and graph.is_bipartite():
        log.warning("meet-exchange on a bipartite graph without --lazy can "
                    "deadlock on walk parity; consider --lazy")
    if args.trace_out:
        _write_trace(args.trace_out, res.trace)
    _emit({"protocol": args.protocol, "n": graph.n, "m": graph.m,
           "source": source, "seed": seed,
           "broadcast_time": res.broadcast_time, "rounds": res.rounds,
           "complete": res.complete, "completion_kind": res.completion_kind,
           "removals": len(res.removal_log), "additions": len(res.addition_log)})
    return 0 if res.complete else 2


def _cmd_sweep(args) -> int:
    cfg = parse_config_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    jobs = args.jobs
    if jobs is None:
        env_jobs = os.environ.get("RUMORWALKS_JOBS", "0")
        try:
            jobs = int(env_jobs) or None
        except ValueError:
            raise ConfigError(f"RUMORWALKS_JOBS must be an integer, "
                              f"got {env_jobs!r}") from None
    if jobs is not None:
        cfg = dataclasses.replace(cfg, jobs=jobs)
    log.info("sweep: family=%s sizes=%s protocols=%s trials=%d seed=%d jobs=%d",
             cfg.family, list(cfg.sweep), list(cfg.protocols), cfg.trials,
             cfg.seed, cfg.jobs)
    result = run_trials(cfg)
    csv_text = result_to_csv(result)
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
        log.info("wrote %s", args.csv)
    summary = [{"n": r.n, "protocol": r.protocol, "trials": r.trials,
                "incomplete": r.incomplete, "capped": r.capped,
                "gen_failed": r.gen_failed, "mean": r.mean, "median": r.median}
               for r in result.rows]
    _emit({"family": cfg.family, "seed": cfg.seed, "rows": summary,
           "csv": args.csv})
    return 0


def _cmd_couple(args) -> int:
    seed, graph, rng, source = _start_run(args)
    acfg = agent_config(graph, **_given(args, "alpha", "agents",
                                        "placement"))
    tr = run_coupled(graph, source, acfg, rng, args.round_cap,
                     args.min_rounds, args.mode, args.r_floor, args.floor)
    Path(args.out).write_text(transcript_dumps(tr), encoding="utf-8")
    log.info("wrote %s", args.out)
    _emit({"mode": args.mode, "n": graph.n, "source": source, "seed": seed,
           "agents": acfg.count, "visitx_rounds": tr.visitx_rounds,
           "visitx_complete": tr.visitx_complete,
           "push_rounds": tr.push_rounds, "push_complete": tr.push_complete,
           "additions": len(tr.additions), "path": str(args.out)})
    return 0 if tr.complete else 2


def _cmd_verify(args) -> int:
    try:
        obj = json.loads(Path(args.transcript).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise TranscriptCorruptError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TranscriptCorruptError(f"not valid JSON: {exc}") from exc
    tr = transcript_from_json(obj)
    report = verify_transcript(tr)
    _emit({"ok": report.ok, "incomplete": report.incomplete,
           "checks": report.checks,
           "violations": report.violations[:20]})
    if report.ok:
        return 0
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorwalks",
        description="Round-synchronous rumor spreading: sampling protocols, "
                    "random-walk agents, and coupled simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph to an edge-list file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--d", default=None)
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one protocol once")
    _add_start_args(p)
    _add_agent_args(p)
    p.add_argument("--lazy", action="store_true", default=None,
                   help="walks stay put with probability 1/2 each round")
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p.add_argument("--gamma", type=float, default=None,
                   help="congestion cap multiplier for t-visit-exchange")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write informing events as CSV (kind,id,round)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a config-file sweep, emit CSV")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--csv", metavar="PATH", help="write the CSV table here")
    p.add_argument("--seed", type=_seed_arg, default=None,
                   help="override the config seed")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: config / RUMORWALKS_JOBS)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("couple", help="coupled agents + per-vertex sampler run")
    _add_start_args(p)
    p.add_argument("--mode", choices=("even", "odd"), default="even")
    _add_agent_args(p)
    p.add_argument("--min-rounds", type=int, default=0)
    p.add_argument("--r-floor", action="store_true",
                   help="odd mode: replenish thin neighborhoods after odd rounds")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="transcript JSON path")
    p.set_defaults(func=_cmd_couple)

    p = sub.add_parser("verify", help="re-check a transcript")
    p.add_argument("--transcript", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    return parser


def _setup_logging() -> None:
    # rebind to the current stderr on every invocation; leave the root
    # logger alone so host applications and test harnesses keep their hooks
    log.setLevel(logging.INFO)
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.addHandler(handler)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold that into the 0/1/2/3
        # taxonomy where 1 means usage/config error
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except GenerationFailureError as exc:
        log.error("%s", exc)
        return 2
    except TranscriptCorruptError as exc:
        log.error("transcript corrupt: %s", exc)
        return 3
    except (RumorWalksError, OSError) as exc:  # OSError: a file to read or write
        log.error("%s", exc)
        return 1
    except MemoryError as exc:  # a graph size no host can allocate
        log.error("out of memory: %s", exc)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
