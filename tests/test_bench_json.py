"""tools/bench_json.py: records and medians gathered from perfbench result files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"


def result_file(checkout: Path, name: str, *, workload: str, seed: int, rss: float,
                smoke: bool = False, trace: int = 0, git_commit=None, best_unit_ms=None) -> None:
    """One ``perfbench/out/results`` file, with the fields the tool reads."""
    results = checkout / "perfbench" / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    result = {
        "provenance": {"smoke": smoke, "git_commit": git_commit, "source_sha256": f"src-{checkout.name}",
                       "workload": workload, "seed": seed, "trace": trace, "seconds": 30.0},
        "attempted": 10, "failed": 0,
        "end_to_end": {"setup_s": 0.1 * seed, "best_unit_ms": 2.0 * seed if best_unit_ms is None else best_unit_ms,
                       "peak_rss_mb": rss},
    }
    if trace:
        result["self_time_share"] = {"sweep.write_sweep_csv": 0.5}
    (results / f"{name}.json").write_text(json.dumps(result), encoding="utf-8")
    (results / f"{name}.stamp.json").write_text(json.dumps({"started_at": "x"}), encoding="utf-8")


def test_records_carry_the_given_commits_and_medians_skip_smoke_and_traced_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout, rss in ((parent, 40.0), (change, 39.0)):
        for seed in (1, 2, 3):
            result_file(checkout, f"sweep-dense_seed{seed}_trace0", workload="sweep-dense", seed=seed,
                        rss=rss + seed)
        result_file(checkout, "sweep-dense_seed9_trace1", workload="sweep-dense", seed=9, rss=99.0, trace=1)
        result_file(checkout, "sweep-dense_smoke", workload="sweep-dense", seed=5, rss=99.0, smoke=True)
        result_file(checkout, "cli-session_seed4_trace0", workload="cli-session", seed=4, rss=rss / 2,
                    git_commit="from-provenance")
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(TOOL), "--side", f"parent={parent}", "--side", f"change={change}",
                           "--commit", "parent=abc123", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text(encoding="utf-8"))

    runs = bench["runs"]
    assert len(runs) == 2 * 5  # the smoke run of each side is left out
    assert {r["commit"] for r in runs if r["side"] == "parent"} == {"abc123"}
    assert {r["commit"] for r in runs if r["side"] == "change"} == {None, "from-provenance"}
    assert all("self_time_share" in r for r in runs if r["trace"])

    medians = bench["median_end_to_end"]
    assert medians["sweep-dense"]["parent"] == {"best_unit_ms": 4.0, "peak_rss_mb": 42.0,
                                                "setup_s": 0.2}  # seeds 1-3; the traced run is left out
    assert medians["sweep-dense"]["change"]["peak_rss_mb"] == 41.0
    assert medians["cli-session"] == {"change": {"best_unit_ms": 8.0, "peak_rss_mb": 19.5, "setup_s": 0.4},
                                      "parent": {"best_unit_ms": 8.0, "peak_rss_mb": 20.0, "setup_s": 0.4}}
    assert bench["claim_check"]["cli-session"]["best_unit_ms"] == {  # one pair has no quartiles
        "pairs": 1, "won": 0, "median_gap": 0.0, "quartile_spread": None, "meets_rule": False}


def test_commit_for_an_unknown_side_is_refused(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--side", f"parent={tmp_path}", "--commit", "chnage=abc",
                           "--out", str(tmp_path / "BENCH.json")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--commit names no --side: chnage" in proc.stderr
    assert not (tmp_path / "BENCH.json").exists()


def claim_check(tmp_path, change_best):
    """The ``cli-session`` ``claim_check`` of ten seed-matched pairs: the parent's ``best_unit_ms`` is 11-20 ms
    over seeds 1-10 (quartiles 12.75 and 18.25 ms), the change's ``change_best(seed, parent's)``."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        for checkout, best in ((parent, 10.0 + seed), (change, change_best(seed, 10.0 + seed))):
            result_file(checkout, f"cli-session_seed{seed}_trace0", workload="cli-session", seed=seed, rss=30.0,
                        best_unit_ms=best)
    result_file(change, "cli-session_seed11_trace0", workload="cli-session", seed=11, rss=1.0,
                best_unit_ms=1.0)  # no parent run to pair with
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(TOOL), "--side", f"parent={parent}", "--side", f"change={change}",
                           "--out", str(out)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))["claim_check"]["cli-session"]


def test_a_cut_past_the_spread_in_nine_of_ten_pairs_meets_the_rule(tmp_path):
    check = claim_check(tmp_path, lambda seed, best: best + 1.0 if seed == 1 else best - 7.0)
    assert check["best_unit_ms"] == {"pairs": 10, "won": 9, "median_gap": -6.0, "quartile_spread": 5.5,
                                     "meets_rule": True}
    assert check["peak_rss_mb"] == {"pairs": 10, "won": 0, "median_gap": 0.0, "quartile_spread": 0.0,
                                    "meets_rule": False}  # ties count for neither side


@pytest.mark.parametrize("change_best, won, gap", [
    (lambda seed, best: best - 5.0, 10, -5.0),  # won every pair, by less than the spread
    (lambda seed, best: best + 1.0 if seed < 3 else best - 10.0, 8, -8.0),  # far ahead, in 8 of 10 pairs
], ids=["within-the-spread", "too-few-pairs-won"])
def test_a_cut_within_the_spread_or_in_too_few_pairs_does_not(tmp_path, change_best, won, gap):
    check = claim_check(tmp_path, change_best)
    assert check["best_unit_ms"] == {"pairs": 10, "won": won, "median_gap": gap, "quartile_spread": 5.5,
                                     "meets_rule": False}
