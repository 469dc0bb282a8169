"""Spans and counters around venturebank's public functions, installed from outside.

:meth:`Tracer.install` replaces every public module-level function of the
eight layer modules with a timing wrapper, and also rebinds each name
another module imported with ``from .x import f`` (for example
``bank_engine.premium_schedule`` or ``calibrate.simulate_bank``), so
calls between modules are seen too. Nothing under ``src/`` changes.

A span is ``(name index, start ns, end ns, parent span, op id)``. Spans
stay in memory and are written once, by :meth:`Tracer.dump`. A layer's
self time is its span time minus the time of the spans it directly
contains. Work the wrapper does after a span has closed (input keys,
output sizes) is charged to the enclosing span, which is part of the
tracing overhead the traced run reports.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

PACKAGE = "venturebank"
LAYERS = ("market_data", "portfolio", "din", "bank_engine", "sweep", "report", "calibrate", "cli")

# din_payout runs once per failing fund inside payout_schedule; a span per
# call would cost more than the function itself and inflate its caller.
UNWRAPPED = frozenset({"din.din_payout"})

# Functions whose body loops over every fund of the portfolio passed first.
FUND_LOOPS = frozenset({
    "din.premium_schedule", "din.payout_schedule",
    "din.coverage_sigma_method", "din.coverage_breakeven_method",
})


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _schedule_key(args, kwargs):
    return hash((args, tuple(sorted(kwargs.items()))))


def _underwriter_key(args, kwargs):
    # The gross return is per unit of insured face, so the per-fund
    # principal (which differs only by MOC) does not change it.
    kwargs = {k: v for k, v in kwargs.items() if k != "principal_per_fund"}
    return hash((args[:3], tuple(sorted(kwargs.items()))))


# Functions whose distinct inputs are counted for their useful ratio.
INPUT_KEYS = {
    "din.premium_schedule": _schedule_key,
    "din.payout_schedule": _schedule_key,
    "din.underwriter_ledger": _underwriter_key,
}


def _file_digest(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


class Tracer:
    """Process-wide span recorder for one benchmark run or one CLI child."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.stats: dict[str, list[int]] = {}          # name -> [calls, total ns, self ns]
        self.keys: dict[str, set[int]] = {name: set() for name in INPUT_KEYS}
        self.counts: Counter[str] = Counter()
        self.op = 0
        self._stack: list[tuple[int, int, list[int]]] = []  # (span, name index, [child ns])
        self._paused = 0
        self._emitted: list[tuple[str, int]] = []      # (digest, bytes) written by emit_report
        self._csv_digests: set[str] = set()            # sweep CSVs written outside emit_report
        self._hooks = {
            "bank_engine.break_even_rate": self._after_solve,
            "sweep.run_sweep": self._after_run_sweep,
            "sweep.write_sweep_csv": self._after_write_csv,
            "market_data.load_libor_csv": self._after_load_csv,
        }

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is bound."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                qual = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qual in UNWRAPPED):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(qual, obj))
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, qual: str, fn):
        index = len(self.names)
        self.names.append(qual)
        stat = self.stats[qual] = [0, 0, 0]
        keyfn = INPUT_KEYS.get(qual)
        keys = self.keys.get(qual)
        fund_loop = qual in FUND_LOOPS
        after = self._hooks.get(qual)
        emits = qual == "report.emit_report"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            before = tracer._before_emit(args, kwargs) if emits else None
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            span = len(tracer.spans)
            tracer.spans.append(None)
            children = [0]
            stack.append((span, index, children))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - children[0]
                if stack:
                    stack[-1][2][0] += took
                tracer.spans[span] = (index, start, end, parent, tracer.op)
            if keyfn is not None:
                keys.add(keyfn(args, kwargs))
            if fund_loop:
                tracer.counts["din.fund_visits"] += len(_first(args, kwargs, "p").funds)
            if after is not None:
                after(args, kwargs, result)
            if emits:
                tracer._after_emit(before)
            return result

        return wrapper

    # -- counters at layer boundaries ---------------------------------

    def _inside(self, qual: str) -> bool:
        index = self.names.index(qual)
        return any(frame[1] == index for frame in self._stack)

    def _after_solve(self, args, kwargs, result) -> None:
        if result is None:
            self.counts["bank_engine.solves_none"] += 1

    def _after_run_sweep(self, args, kwargs, result) -> None:
        self.counts["sweep.rows"] += len(result.rows)

    def _after_write_csv(self, args, kwargs, result) -> None:
        digest, size = _file_digest(Path(_first(args, kwargs, "path")))
        self.counts["sweep.bytes_written"] += size
        if not self._inside("report.emit_report"):
            self._csv_digests.add(digest)

    def _after_load_csv(self, args, kwargs, result) -> None:
        self.counts["market_data.observations"] += len(result)

    def _before_emit(self, args, kwargs) -> Path:
        # Zero the mtimes in the output directory so the files emit_report
        # writes are exactly those whose mtime is no longer zero.
        out_dir = Path(args[2] if len(args) > 2 else kwargs["out"]).parent
        if out_dir.is_dir():
            for entry in out_dir.iterdir():
                if entry.is_file():
                    os.utime(entry, ns=(0, 0))
        return out_dir

    def _after_emit(self, out_dir: Path) -> None:
        for entry in sorted(out_dir.iterdir()):
            if entry.is_file() and entry.stat().st_mtime_ns != 0:
                self._emitted.append(_file_digest(entry))

    # -- pausing, results ---------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block (output checks) are not traced."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _simulate_in_solve(self) -> int:
        """simulate_bank spans that have a break_even_rate span above them."""
        solve = self.names.index("bank_engine.break_even_rate")
        simulate = self.names.index("bank_engine.simulate_bank")
        inside: list[bool] = []
        total = 0
        for span in self.spans:
            if span is None:  # a span still open when the process stopped
                inside.append(False)
                continue
            name, _start, _end, parent, _op = span
            above = self.spans[parent] if parent >= 0 else None
            flag = above is not None and (inside[parent] or above[0] == solve)
            inside.append(flag)
            if name == simulate and flag:
                total += 1
        return total

    def summary(self) -> dict:
        """Totals that can be summed across processes."""
        report_bytes = sum(size for _d, size in self._emitted)
        duplicate = sum(size for d, size in self._emitted if d in self._csv_digests)
        counts = dict(self.counts)
        counts["bank_engine.simulate_in_solve"] = self._simulate_in_solve()
        counts["report.bytes_written"] = report_bytes
        counts["report.duplicate_bytes"] = duplicate
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "counts": counts,
            "spans": len(self.spans),
        }

    def dump(self, path: str | Path) -> None:
        """Write the summary and every span as one JSON document."""
        doc = {"summary": self.summary(), "names": self.names,
               "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "spans": self.spans}
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def merge(summaries: list[dict]) -> dict:
    """Sum per-process summaries (distinct inputs are counted per process)."""
    out = {"stats": {}, "distinct": Counter(), "counts": Counter(), "spans": 0}
    for s in summaries:
        for name, (calls, total, own) in s["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        out["distinct"].update(s["distinct"])
        out["counts"].update(s["counts"])
        out["spans"] += s["spans"]
    return out
