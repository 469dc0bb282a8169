"""Gather perfbench result files into one BENCH_<n>.json.

Each side of a comparison (say the parent commit and the change) is a
checkout in which ``perfbench/run.py`` has been run; its result files
are ``perfbench/out/results/*.json``. For every full (non-smoke) run the
output keeps the side, commit, workload, seed, trace flag, ``attempted``,
``failed`` and ``end_to_end``, plus ``self_time_share`` for traced runs,
and, per workload and side, the median of each end-to-end metric over
the untraced runs. Nothing is measured here.

Run from the repository root:

    python tools/bench_json.py --side parent=../parent --side change=. --out BENCH_19.json
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def runs(side: str, checkout: Path) -> list[dict]:
    """One record per full run of ``perfbench/run.py`` in ``checkout``."""
    out = []
    for path in sorted((checkout / "perfbench" / "out" / "results").glob("*.json")):
        if path.name.endswith(".stamp.json"):
            continue
        result = json.loads(path.read_text(encoding="utf-8"))
        prov = result["provenance"]
        if prov["smoke"]:
            continue
        record = {"side": side, "commit": prov["git_commit"], "source_sha256": prov["source_sha256"],
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True, metavar="NAME=CHECKOUT")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    records = []
    for spec in args.side:
        side, _, checkout = spec.partition("=")
        records += runs(side, Path(checkout))
    bench = {"runs": records, "median_end_to_end": medians(records)}
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
