"""Smoke tests of the benchmark itself, kept out of the tier-1 suite:

    python3 -m pytest -q perfbench/check_bench.py

Each test runs a smoke-sized pass (two trials per cell) in a subprocess.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace=0, root=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines = run(workload, trace)
    summary = json.loads(lines[-2])["summary"]
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and summary["digest_status"] == "match"
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert summary["ops_failed_frac"] == 0.0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_corrupted_digest_is_a_failure(tmp_path):
    for name in ("src", "experiments", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = tmp_path / "perfbench" / "digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    recorded["digests"]["fixed-graph-sweep/smoke"] = "0" * 64
    path.write_text(json.dumps(recorded), encoding="utf-8")
    code, lines = run("fixed-graph-sweep", root=tmp_path)
    assert code == 1
    assert not json.loads(lines[-1])["correct"]
    assert json.loads(lines[-2])["summary"]["digest_status"].startswith(
        "MISMATCH")


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run("couple-verify", root=tmp_path)
    assert code != 0 and not lines
