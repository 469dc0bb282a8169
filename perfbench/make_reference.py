#!/usr/bin/env python3
"""Write the workload pools and the program's outputs for them to ``reference/``.

    PYTHONPATH=src python3 perfbench/make_reference.py

The pools (inputs) are drawn from a fixed master seed; the expected
outputs are whatever the checked-out program produces for them. The
committed files were produced by commit a45eed5, the commit that
introduced the benchmark. Rerun this only when a change is meant to
alter output bytes, and say which bytes change and why.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import workloads
from run import git_commit

MASTER_SEED = 1809

SWEEP_GRIDS = {"full": "0.53:7.50:0.005", "smoke": "0.53:7.50:0.25"}
SWEEP_VARIANTS = 12
BREAKEVEN_CASES = 2400
CLI_VARIANTS = 12
PREMIUM_BASES = ("face_annual", "principal_annual", "principal_upfront")


def sweep_dense(rng: random.Random, workdir: Path) -> dict:
    ref = {"grids": SWEEP_GRIDS, "targets": [1.10, 1.31, 1.50], "mocs": [30.0, 43.0],
           "variants": [{"synth_seed": s, "digests": {size: {} for size in SWEEP_GRIDS}}
                        for s in rng.sample(range(10000), SWEEP_VARIANTS)]}
    for size in SWEEP_GRIDS:
        wl = workloads.SweepDense(0, size, workdir, ref=ref)
        for v, variant in enumerate(ref["variants"]):
            wl.order = list(range(len(ref["variants"])))
            variant["digests"][size] = wl.run_op(v).outputs
    return ref


def breakeven_surface(rng: random.Random, workdir: Path) -> dict:
    cases = []
    for _ in range(BREAKEVEN_CASES):
        cases.append([
            rng.randrange(10000),
            rng.choices([50, 99, 990], weights=[45, 40, 15])[0],
            round(rng.uniform(1.0, 1.6), 2),
            rng.choice([2.88, 3.88, 5.60, 20.33]),
            rng.choice([30.0, 43.0]),
            rng.choice(PREMIUM_BASES),
            None, None, None,
        ])
    ref = {"bracket_pct": [0.53, 7.50], "coverage_floor_pct": 2.88,
           "case_fields": ["synth_seed", "funds", "target_mean", "coverage_pct", "moc",
                           "premium_base", "break_even_rate", "sigma_clamp_loss",
                           "breakeven_clamp_loss"],
           "cases": cases}
    wl = workloads.BreakevenSurface(0, "full", workdir, ref=ref)
    wl.order = list(range(len(cases)))
    for i, case in enumerate(cases):
        case[6:] = wl.run_op(i).outputs
    return ref


def cli_session(rng: random.Random, workdir: Path, src: Path) -> dict:
    variants = []
    for _ in range(CLI_VARIANTS):
        seed = str(rng.randrange(10000))
        target = rng.choice(["1.10", "1.20", "1.31", "1.40", "1.50"])
        libor = rng.choice(["0.53", "1.57", "2.0", "3.5", "5.0", "7.5"])
        coverage = rng.choice(["2.88", "3.88", "5.6", "20.33"])
        moc = rng.choice(["30", "43"])
        base = rng.choice(PREMIUM_BASES)
        floor = rng.choice(["2.88", "3.88"])
        terms = ["--target-mean", target, "--coverage", coverage, "--moc", moc,
                 "--premium-base", base]
        commands = [
            ["ingest", "--start", "1996", "--end", "2016"],
            ["synth", "--seed", seed, "--out", "portfolio.csv"],
            ["coverage", "--portfolio", "portfolio.csv", "--floor", floor],
            ["simulate", "--portfolio", "portfolio.csv", "--libor", libor, *terms,
             "--ledger-out", "ledger.csv"],
            ["breakeven", "--seed", seed, *terms],
            ["sweep", "--seed", seed, "--out-dir", "sweep"],
            ["calibrate", "--seed", seed, "--out", "calibration.txt"],
        ]
        files = [[], ["portfolio.csv"], [], ["ledger.csv"], [],
                 ["sweep/sweep.csv", "sweep/fig3.svg", "sweep/fig4.svg"], ["calibration.txt"]]
        variants.append({"commands": commands,
                         "expect": [{"stdout": None, "files": {f: None for f in fs}} for fs in files]})
    ref = {"variants": variants}
    wl = workloads.CliSession(0, "full", workdir, ref=ref, src=src)
    wl.order = list(range(len(variants)))
    for v, variant in enumerate(variants):
        op = wl.run_op(v)
        failed = [p for p in op.problems if "exited" in p]
        if failed:
            raise SystemExit(f"reference session failed: {failed}")
        variant["expect"] = op.outputs
    return ref


def write(name: str, doc: dict, commit: str | None) -> None:
    doc = {"produced_by_commit": commit, **doc}
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    # One pool entry per line, so a changed reference reads as a short diff.
    fields = []
    for key, value in doc.items():
        if key in ("cases", "variants"):
            body = ",\n".join("  " + json.dumps(item) for item in value)
            fields.append(f" {json.dumps(key)}: [\n{body}\n ]")
        else:
            fields.append(f" {json.dumps(key)}: {json.dumps(value)}")
    text = "{\n" + ",\n".join(fields) + "\n}"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(text)} bytes)")


def main() -> int:
    src = workloads.BENCH_DIR.parent / "src"
    sys.path.insert(0, str(src))
    commit = git_commit()
    rng = random.Random(MASTER_SEED)
    with tempfile.TemporaryDirectory(dir=workloads.BENCH_DIR) as tmp:
        tmp = Path(tmp)
        write("sweep_dense", sweep_dense(rng, tmp / "sweep"), commit)
        write("breakeven_surface", breakeven_surface(rng, tmp / "breakeven"), commit)
        write("cli_session", cli_session(rng, tmp / "cli", src), commit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
