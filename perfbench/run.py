"""rumorwalks benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads: regular-sweep, fixed-graph-sweep, couple-verify (see
perfbench/README.md).

``--trace 0`` repeats whole passes of the workload for about ``--seconds``
seconds and reports the end-to-end metrics, with timings at the reference
speed of calibrate.py.  ``--trace 1`` runs one pass as
configured, one untraced pass with ``jobs = 1`` and one traced pass with
``jobs = 1``, reports the per-layer metrics and writes the spans to
``perfbench/out/``.

stdout ends with two JSON lines: a summary (environment manifest, digest
status, ``ops_failed_frac``, sample counts), then the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
an output check fails, 2 when the source tree is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Calibration, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("regular-sweep", "fixed-graph-sweep",
                            "couple-verify"))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; digests are recorded for seed 0")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="two trials per cell: a quick pass for the tests")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- environment ----------------------------------------------------------------

def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def manifest(seed: int) -> dict:
    import numpy
    import scipy
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(idx / "type")
        level = _read(idx / "level")
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = \
            _read(idx / "size")
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "caches": caches, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "seed": seed}


def digest_status(key: str, seed: int, digest: str) -> tuple:
    """(ok, status) for one pass digest against the recorded one."""
    import numpy
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = recorded["digests"].get(key)
    if seed != recorded["seed"] or expected is None:
        return True, "unchecked: no digest recorded for this seed"
    if numpy.__version__ != recorded["numpy"]:
        # numpy promises Generator streams within one version only
        return True, (f"environment difference: numpy {numpy.__version__}, "
                      f"digests recorded under {recorded['numpy']}")
    if digest != expected:
        return False, f"MISMATCH: got {digest}, expected {expected}"
    return True, "match"


# -- runs -----------------------------------------------------------------------

def setup_seconds(args, calib) -> list:
    """Interpreter start to inputs ready, in fresh processes, with the
    reference loop sampled between them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        calib.sample()
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    calib.sample()
    return times


def peak_rss_mb() -> float:
    """Larger of this process's and any reaped child's peak RSS (KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def op_latencies(passes, scales) -> list:
    """Each op's latency in ms, as its median over the passes, so that one
    slow pass does not set the tail.  A sweep op is one trial of a config.
    An op that raises does so in every pass: its inputs are the same."""
    return [statistics.median(ms * k for ms, k in zip(runs, scales))
            for runs in zip(*(p.op_ms for p in passes))]


def timed_run(wl, args, inputs):
    """Whole passes for about ``--seconds``.  Every timing is reported at
    reference speed (see calibrate.py); the summary gives them as measured
    too."""
    passes, calibs = [], []
    start = perf_counter()
    while True:
        # a sweep samples between configs lasting seconds, couple-verify
        # every quarter second: sample a sweep's reference more at once
        calib = Calibration(repeats=5 if args.workload in wl.SWEEPS else 1)
        p = wl.run_pass(args.workload, inputs, calib=calib)
        passes.append(p)
        calibs.append(calib)
        # stop when another pass would take longer than the time left
        if perf_counter() - start + p.wall + calib.spent > args.seconds:
            break
    rss = peak_rss_mb()
    setup_calib = Calibration(repeats=3)
    setup = setup_seconds(args, setup_calib)
    scales = [scale(c.reference()) for c in calibs]
    ops = op_latencies(passes, scales)
    measured_ops = op_latencies(passes, [1.0] * len(passes))
    metrics = {
        "wall_s": (statistics.median(p.wall * k
                                     for p, k in zip(passes, scales)), "s"),
        "setup_s": (statistics.median(setup) * scale(setup_calib.reference()),
                    "s"),
        "peak_rss_mb": (rss, "MiB"),
        "op_p50_ms": (wl.pct(ops, 50), "ms"),
        "op_p95_ms": (wl.pct(ops, 95), "ms"),
    }
    info = {"passes": len(passes), "pass_walls_s": [p.wall for p in passes],
            "setup_samples_s": setup, "op_samples": len(ops),
            "reference_s": {"passes": [c.reference() for c in calibs],
                            "setup": setup_calib.reference()},
            "measured": {"wall_s": statistics.median(p.wall for p in passes),
                         "setup_s": statistics.median(setup),
                         "op_p50_ms": wl.pct(measured_ops, 50),
                         "op_p95_ms": wl.pct(measured_ops, 95)}}
    return passes, metrics, info


def traced_run(wl, args, inputs):
    from tracing import Tracer, write_spans
    normal = wl.run_pass(args.workload, inputs)
    if args.workload in wl.SWEEPS:  # every sweep config runs with jobs = 2
        jobs1 = wl.run_pass(args.workload, inputs, jobs=1)
        passes = [normal, jobs1]
    else:
        jobs1, passes = normal, [normal]
    with Tracer() as tracer:
        wl.install(tracer)
        traced = wl.run_pass(args.workload, inputs, jobs=1, tracer=tracer)
    passes.append(traced)
    values = wl.layer_metrics(tracer, traced, jobs1.wall, normal.wall)
    metrics = {k: (v, wl.PER_LAYER[k]) for k, v in values.items()}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / (f"{args.workload}-seed{args.seed}"
                            f"{'-smoke' if args.smoke else ''}.spans.jsonl")
    write_spans(spans_path, {"workload": args.workload, "seed": args.seed,
                             "manifest": manifest(args.seed)},
                tracer, values)
    busy = values["trace.busy_s"]
    shares = {name: row["total_s"] / busy
              for name, row in sorted(tracer.by_name().items())
              if name != "op" and busy}
    info = {"spans": str(spans_path.relative_to(ROOT)),
            "span_count": len(tracer.spans),
            "largest_span": max(shares, key=shares.get, default=""),
            "busy_share": shares,
            "pass_walls_s": {"configured": normal.wall, "jobs1": jobs1.wall,
                             "traced": traced.wall}}
    return passes, metrics, info


def main(argv=None) -> int:
    t_main = perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "rumorwalks").is_dir():
        print(f"source tree not found under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    inputs = wl.setup(args.workload, args.seed, args.smoke)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    run = traced_run if args.trace else timed_run
    passes, metrics, info = run(wl, args, inputs)

    key = args.workload + ("/smoke" if args.smoke else "")
    digest_ok, status = digest_status(key, args.seed, passes[0].digest)
    problems = [msg for p in passes for msg in p.problems]
    if len({p.digest for p in passes}) != 1:
        problems.append("passes disagree: output depends on jobs, tracing "
                        "or run order")
    if not digest_ok:
        problems.append(f"digest {status}")
    correct = not problems
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for msg in problems + sorted({m for p in passes for m in p.failures}):
        print(f"{args.workload}: {msg}", file=sys.stderr)

    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "smoke": args.smoke,
               "manifest": manifest(args.seed), "digest": passes[0].digest,
               "digest_status": status, "problems": problems,
               "ops_failed_frac": failed / attempted if attempted else 0.0,
               "run_s": perf_counter() - t_main, **info}
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
