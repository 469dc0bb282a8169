"""The benchmark's three workloads.

Each workload reads its pool of inputs and the seed commit's outputs
from ``reference/<name>.json`` (written by ``make_reference.py``); the
workload seed only picks the order in which pool entries are used.
The program receives nothing but those inputs, through its public
functions (``sweep-dense``, ``breakeven-surface``) or its CLI
(``cli-session``).

Every public venturebank function is looked up on its module at call
time (``self.sweep.run_sweep``), so a tracer installed before the
workload is built sees every call. Output checks run inside
``quiet()``, which the traced run uses to keep them out of the trace.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
LAUNCHER = BENCH_DIR / "launcher.py"
TRACE_ENV = "PERFBENCH_TRACE_OUT"

# Stdout lines that print file paths; they depend on where the run happens.
PATH_LINE_PREFIXES = ("wrote ", "file=", "ledger=")

COMMAND_TIMEOUT_S = 60


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def seeded_order(n: int, seed: int) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


@dataclasses.dataclass
class Op:
    """One closed-loop operation: its timings and the problems its check found."""

    wall_s: float                 # time the operation took, checks excluded
    units: int                    # rows, solves or commands completed
    samples_ms: list[float]       # latency samples (one sweep, one solve, each command)
    classes: list[str]            # the class of work each sample belongs to
    problems: list[str]
    outputs: object               # what the check compared: digests or solved values
    session_s: float | None = None

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.outputs, sort_keys=True).encode()).hexdigest()


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SweepDense:
    """The paper's six curves over a dense rate grid, then the CSV and both charts."""

    name = "sweep-dense"
    min_ops = 1
    max_ops = None

    def __init__(self, seed: int, size: str, workdir: Path, *, ref: dict | None = None,
                 quiet=contextlib.nullcontext, src: Path | None = None,
                 trace_dir: Path | None = None):
        self.pf = importlib.import_module("venturebank.portfolio")
        self.din = importlib.import_module("venturebank.din")
        self.be = importlib.import_module("venturebank.bank_engine")
        self.sweep = importlib.import_module("venturebank.sweep")
        self.report = importlib.import_module("venturebank.report")
        ref = ref or load_reference("sweep_dense")
        self.size = size
        self.quiet = quiet
        self.files = {name: workdir / name for name in ("sweep.csv", "fig3.svg", "fig4.svg")}
        self.workdir = workdir
        self.grid = self.sweep.parse_rate_grid(ref["grids"][size])
        self.variants = ref["variants"]
        self.order = seeded_order(len(self.variants), seed)
        self.configs = {v: self.build_configs(self.variants[v]["synth_seed"], ref)
                        for v in self.order}

    def build_configs(self, synth_seed: int, ref: dict) -> list:
        """The configs ``venturebank sweep`` builds, with its default note terms."""
        pf, din = self.pf, self.din
        compressed = pf.compress_pairs(pf.synthesize_kauffman(pf.KauffmanConstraints(), synth_seed))
        terms = din.DinTerms(
            coverage_fraction=3.88 / 100.0, coverage_floor=2.88 / 100.0,
            premium_rate=5.0 / 100.0, premium_base=din.PremiumBase.FACE_ANNUAL,
            payoff_year=5, term_years=10,
        )
        configs = []
        for target in ref["targets"]:
            shifted = dataclasses.replace(pf.shift_to_mean(compressed, target),
                                          label=f"{target:.2f}x")
            for moc in ref["mocs"]:
                configs.append(self.be.ScenarioConfig(
                    portfolio=shifted, din_terms=terms, bank_rate=0.0, moc=moc,
                    original_capital=1.0, horizon_years=10, surplus_rate=0.0,
                ))
        return configs

    def run_op(self, i: int) -> Op:
        v = self.order[i % len(self.order)]
        files = self.files
        self.workdir.mkdir(parents=True, exist_ok=True)
        kind = self.report.ReportKind
        t0 = perf_counter()
        table = self.sweep.run_sweep(self.configs[v], self.grid)
        self.sweep.write_sweep_csv(files["sweep.csv"], table)
        self.report.emit_report(table, kind.BANK_MULTIPLE, files["fig3.svg"])
        self.report.emit_report(table, kind.UNDERWRITER_RETURN, files["fig4.svg"])
        wall = perf_counter() - t0
        with self.quiet():
            expected = self.variants[v]["digests"][self.size]
            got = {name: sha256_file(path) for name, path in files.items()}
            problems = [f"variant {v}: {name} differs from the reference"
                        for name in got if got[name] != expected.get(name)]
        return Op(wall, len(table.rows), [wall * 1000.0], ["sweep"], problems, got)

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()


class BreakevenSurface:
    """Many distinct portfolios, each sized by both coverage methods and solved once."""

    name = "breakeven-surface"
    min_ops = 1000  # so the p99 has at least ten samples beyond it

    def __init__(self, seed: int, size: str, workdir: Path, *, ref: dict | None = None,
                 quiet=contextlib.nullcontext, src: Path | None = None,
                 trace_dir: Path | None = None):
        self.pf = importlib.import_module("venturebank.portfolio")
        self.din = importlib.import_module("venturebank.din")
        self.be = importlib.import_module("venturebank.bank_engine")
        md = importlib.import_module("venturebank.market_data")
        ref = ref or load_reference("breakeven_surface")
        self.quiet = quiet
        self.cases = ref["cases"]
        self.floor = ref["coverage_floor_pct"]
        self.lo = md.funds_rate(ref["bracket_pct"][0]) / 100.0
        self.hi = md.funds_rate(ref["bracket_pct"][1]) / 100.0
        self.order = seeded_order(len(self.cases), seed)
        self.max_ops = len(self.cases)  # every portfolio in a run is distinct

    def run_op(self, i: int) -> Op:
        pf, din, be = self.pf, self.din, self.be
        index = self.order[i % len(self.order)]
        synth_seed, funds, mean, coverage, moc, base, want_rate, want_sigma, want_be = self.cases[index]
        t0 = perf_counter()
        p = pf.synthesize_kauffman(pf.KauffmanConstraints(n=990 if funds == 990 else 99), synth_seed)
        if funds == 50:
            p = pf.compress_pairs(p)
        p = pf.shift_to_mean(p, mean)
        sigma = din.coverage_sigma_method(p, self.floor)
        breakeven = din.coverage_breakeven_method(p, self.floor)
        cfg = be.ScenarioConfig(
            p, din.DinTerms(coverage_fraction=coverage / 100.0, premium_base=din.PremiumBase(base)),
            self.lo, moc)
        t1 = perf_counter()
        rate = be.break_even_rate(cfg, self.lo, self.hi)
        t2 = perf_counter()
        with self.quiet():
            problems = self.check(index, cfg, rate, want_rate, sigma, want_sigma,
                                  breakeven, want_be)
        outputs = [rate, sigma.clamp_loss, breakeven.clamp_loss]
        solve_class = f"{funds}-{base}-{'none' if want_rate is None else 'rate'}"
        return Op(t2 - t0, 1, [(t2 - t1) * 1000.0], [solve_class], problems, outputs)

    def check(self, index, cfg, rate, want_rate, sigma, want_sigma, breakeven, want_be) -> list[str]:
        problems = []
        if rate != want_rate:
            problems.append(f"case {index}: break-even rate {rate!r} != {want_rate!r}")
        for got, want in ((sigma, want_sigma), (breakeven, want_be)):
            if got.clamp_loss != want or got.recommended_coverage != self.floor + want:
                problems.append(f"case {index}: {got.method.value} clamp loss "
                                f"{got.clamp_loss!r} != {want!r}")

        def margin(r: float) -> float:
            return self.be.simulate_bank(dataclasses.replace(cfg, bank_rate=r)).final_multiple - 1.0

        if rate is None:
            lo, hi = margin(self.lo), margin(self.hi)
            if lo == 0.0 or (lo > 0) != (hi > 0):
                problems.append(f"case {index}: no rate returned but the bracket crosses 1.0")
        else:
            tol = 1e-6  # break_even_rate's default tolerance
            below, above = margin(rate - tol), margin(rate + tol)
            if below != 0.0 and above != 0.0 and (below > 0) == (above > 0):
                problems.append(f"case {index}: multiple does not cross 1.0 within "
                                f"{rate!r} +/- {tol}")
        return problems

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()


def _wait_with_timeout(pid: int, timeout_s: float):
    """``os.wait4`` that kills the child after ``timeout_s``; returns (status, rusage)."""
    def kill(_signum, _frame):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _pid, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


def child_env(src: Path, trace_out: Path | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop(TRACE_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if trace_out is not None:
        env[TRACE_ENV] = str(trace_out)
    return env


class CliSession:
    """A scripted analyst session: each command a fresh venturebank process, in order."""

    name = "cli-session"
    min_ops = 1
    max_ops = None

    def __init__(self, seed: int, size: str, workdir: Path, *, ref: dict | None = None,
                 quiet=contextlib.nullcontext, src: Path | None = None,
                 trace_dir: Path | None = None):
        ref = ref or load_reference("cli_session")
        self.variants = ref["variants"]
        self.order = seeded_order(len(self.variants), seed)
        self.workdir = workdir
        self.src = src
        self.trace_dir = trace_dir
        self.peak_kb = 0
        self.trace_files: list[Path] = []

    def run_command(self, argv: list[str], cwd: Path, trace_out: Path | None):
        """Run one command; return (wall s, exit code, stdout bytes, stderr bytes)."""
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        env = child_env(self.src, trace_out)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, str(LAUNCHER), *argv],
                                    cwd=cwd, env=env, stdout=out, stderr=err)
            status, usage = _wait_with_timeout(proc.pid, COMMAND_TIMEOUT_S)
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return wall, proc.returncode, out_path.read_bytes(), err_path.read_bytes()

    def run_op(self, i: int) -> Op:
        v = self.order[i % len(self.order)]
        variant = self.variants[v]
        session = self.workdir / "session"
        shutil.rmtree(session, ignore_errors=True)
        session.mkdir(parents=True)
        samples, results = [], []
        for k, argv in enumerate(variant["commands"]):
            trace_out = None
            if self.trace_dir is not None:
                trace_out = self.trace_dir / f"op{i}-cmd{k}-{argv[0]}.json"
                self.trace_files.append(trace_out)
            wall, code, stdout, stderr = self.run_command(argv, session, trace_out)
            samples.append(wall * 1000.0)
            results.append((code, stdout, stderr))
        problems, outputs = [], []
        for argv, want, (code, stdout, stderr) in zip(variant["commands"], variant["expect"], results):
            got = {"stdout": stdout_digest(stdout),
                   "files": {name: sha256_file(session / name) if (session / name).is_file() else None
                             for name in want["files"]}}
            outputs.append(got)
            if code != 0:
                tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                problems.append(f"variant {v}: {argv[0]} exited {code}: {tail}")
            if got["stdout"] != want["stdout"]:
                problems.append(f"variant {v}: {argv[0]} stdout differs from the reference")
            problems += [f"variant {v}: {argv[0]} {name} differs from the reference"
                         for name in want["files"] if got["files"][name] != want["files"][name]]
        wall = sum(samples) / 1000.0
        classes = [argv[0] for argv in variant["commands"]]
        return Op(wall, len(samples), samples, classes, problems, outputs, session_s=wall)

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def trace_summaries(self) -> list[dict]:
        return [json.loads(path.read_text(encoding="utf-8"))["summary"]
                for path in self.trace_files if path.is_file()]


def stdout_digest(stdout: bytes) -> str:
    lines = [ln for ln in stdout.decode("utf-8").splitlines()
             if not ln.startswith(PATH_LINE_PREFIXES)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (SweepDense, BreakevenSurface, CliSession)}
