"""Gather perfbench result files into one BENCH_<n>.json.

Each side of a comparison (say the parent commit and the change) is a
checkout in which ``perfbench/run.py`` has been run; its result files
are ``perfbench/out/results/*.json``. For every full (non-smoke) run the
output keeps the side, commit, workload, seed, trace flag, ``attempted``,
``failed`` and ``end_to_end``, plus ``self_time_share`` for traced runs,
and, per workload and side, the median of each end-to-end metric over
the untraced runs. Nothing is measured here.

Given exactly two sides, ``claim_check`` applies the rule for claiming a
gain to each workload and each end-to-end metric of ``BENCHMARK.json``:
over at least ten seed-matched pairs of untraced runs, the second side
is better in nine tenths of them, and its median beats the first side's
by more than the first side's quartile spread.

A side's ``commit`` is the one its runs' provenance names, which is
``null`` in a checkout made by ``git archive``; ``--commit NAME=SHA``
names it instead.

Run from the repository root:

    python tools/bench_json.py --side parent=../parent --side change=. --out BENCH_19.json \
        --commit parent=$(git rev-parse HEAD~1)
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def runs(side: str, checkout: Path, commit: str | None = None) -> list[dict]:
    """One record per full run of ``perfbench/run.py`` in ``checkout``; ``commit``, when given, names its commit."""
    out = []
    for path in sorted((checkout / "perfbench" / "out" / "results").glob("*.json")):
        if path.name.endswith(".stamp.json"):
            continue
        result = json.loads(path.read_text(encoding="utf-8"))
        prov = result["provenance"]
        if prov["smoke"]:
            continue
        record = {"side": side, "commit": commit or prov["git_commit"], "source_sha256": prov["source_sha256"],
                  "workload": prov["workload"], "seed": prov["seed"], "trace": prov["trace"],
                  "seconds": prov["seconds"], "attempted": result["attempted"],
                  "failed": result["failed"], "end_to_end": result["end_to_end"]}
        if prov["trace"]:
            record["self_time_share"] = result["self_time_share"]
        out.append(record)
    return out


def medians(records: list[dict]) -> dict:
    """workload -> side -> metric -> median over the untraced runs."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for r in records:
        if not r["trace"]:
            groups.setdefault((r["workload"], r["side"]), []).append(r["end_to_end"])
    table: dict[str, dict] = {}
    for (workload, side), values in sorted(groups.items()):
        table.setdefault(workload, {})[side] = {
            metric: statistics.median(v[metric] for v in values) for metric in sorted(values[0])
            if all(isinstance(v.get(metric), (int, float)) for v in values)}
    return table


def claim_check(records: list[dict], first: str, second: str, metrics: list[dict]) -> dict:
    """workload -> metric -> whether ``second`` may claim a gain over ``first`` on it.

    Untraced runs of one workload are paired by seed. ``won`` counts the pairs where ``second`` is better by
    the metric's ``better`` (a tie counts for neither); ``median_gap`` is ``second``'s median less
    ``first``'s; ``quartile_spread`` is q3 - q1 of ``first``'s values (None below two pairs).
    ``meets_rule``: at least ten pairs, ``won >= 0.9 * pairs``, and the gap, in the better direction, exceeds
    that spread.
    """
    paired: dict[str, dict] = {}
    for r in records:
        if not r["trace"]:
            paired.setdefault(r["workload"], {}).setdefault(r["seed"], {})[r["side"]] = r["end_to_end"]
    table: dict[str, dict] = {}
    for workload, seeds in sorted(paired.items()):
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1  # sign * (b - a) < 0: b is better
            pairs = [(s[first][name], s[second][name]) for s in seeds.values() if len(s) == 2
                     and all(isinstance(s[side].get(name), (int, float)) for side in (first, second))]
            if not pairs:
                continue
            firsts = [a for a, _ in pairs]
            gap = statistics.median(b for _, b in pairs) - statistics.median(firsts)
            spread = None
            if len(pairs) > 1:
                q1, _, q3 = statistics.quantiles(firsts, n=4)
                spread = q3 - q1
            won = sum(sign * (b - a) < 0 for a, b in pairs)
            table.setdefault(workload, {})[name] = {
                "pairs": len(pairs), "won": won, "median_gap": gap, "quartile_spread": spread,
                "meets_rule": len(pairs) >= 10 and won >= 0.9 * len(pairs) and -sign * gap > spread}
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True, metavar="NAME=CHECKOUT")
    parser.add_argument("--commit", action="append", default=[], metavar="NAME=SHA",
                        help="the commit side NAME measured (default: the one its provenance names)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sides = dict(spec.partition("=")[::2] for spec in args.side)
    commits = dict(spec.partition("=")[::2] for spec in args.commit)
    if unknown := sorted(commits.keys() - sides.keys()):
        parser.error(f"--commit names no --side: {', '.join(unknown)}")
    records = []
    for side, checkout in sides.items():
        records += runs(side, Path(checkout), commits.get(side))
    bench = {"runs": records, "median_end_to_end": medians(records)}
    if len(sides) == 2:
        metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
        bench["claim_check"] = claim_check(records, *sides, metrics)
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
