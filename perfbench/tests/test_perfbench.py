"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs at tiny size, traced and untraced, on two seeds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = ("sweep-dense", "breakeven-surface", "cli-session")
SEEDS = (1, 2)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke_runs():
    """(workload, seed, trace) -> (stdout, full result file)."""
    runs = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--smoke")
                assert proc.returncode == 0, proc.stderr
                tag = f"{workload}_seed{seed}_trace{trace}_smoke"
                result = json.loads((run.OUT / "results" / f"{tag}.json").read_text())
                runs[workload, seed, trace] = (proc.stdout, result)
    return runs


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_and_checks_pass(smoke_runs, workload, seed, trace):
    stdout, result = smoke_runs[workload, seed, trace]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    for name, (_key, unit) in run.NAMED[workload].items():
        assert re.search(rf"^{workload} {name} = \S+ {re.escape(unit)}$", stdout, re.M), name
    for name in ("peak_rss_mb", "failed_ratio", "setup_s"):
        assert re.search(rf"^{workload} {name} = ", stdout, re.M), name
    provenance = result["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit", "seed", "sample_counts"):
        assert key in provenance
    assert "started_at" not in json.dumps(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(smoke_runs, workload):
    for seed in SEEDS:
        untraced = smoke_runs[workload, seed, 0][1]["outputs_sha256"]
        traced = smoke_runs[workload, seed, 1][1]["outputs_sha256"]
        assert untraced == traced


def test_traced_counts_repeat(smoke_runs):
    # A second traced run of the same seed gives the same counts.
    proc = bench("--workload", "sweep-dense", "--seed", "1", "--trace", "1", "--smoke")
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    first = json.loads(smoke_runs["sweep-dense", 1, 1][0].strip().splitlines()[-1])["metrics"]
    for name in ("sweep.rows", "sweep.bytes_written", "report.bytes_written",
                 "din.premium_schedule.calls", "din.fund_visits"):
        assert again[name] == first[name]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = bench("--workload", "sweep-dense", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
