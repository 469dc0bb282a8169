#!/usr/bin/env python3
"""Tracing overhead: a traced run's end-to-end values minus the untraced run's.

    python3 perfbench/overhead.py --workload sweep-dense --seed 7

Reads the two result files ``run.py`` wrote for that workload and seed
under ``out/results/``; run the workload with ``--trace 0`` and
``--trace 1`` first.
"""

import argparse
import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "out" / "results"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    runs = [json.loads((RESULTS / f"{args.workload}_seed{args.seed}_trace{t}.json").read_text())
            for t in (0, 1)]
    untraced, traced = (run["end_to_end"] for run in runs)
    for name in sorted(untraced.keys() & traced.keys()):
        base, value = untraced[name], traced[name]
        share = f" ({(value - base) / base:+.1%})" if base else ""
        print(f"{args.workload} {name}: traced {value!r} - untraced {base!r} = {value - base!r}{share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
