"""Rate-grid scenario sweeps and their CSV serialization."""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bank_engine import ScenarioConfig, multiple_curve
from .din import underwriter_returns
from .market_data import funds_rate


class SweepError(ValueError):
    """A sweep could not be run or a sweep file could not be read."""


@dataclass(frozen=True)
class SweepRow:
    portfolio_label: str
    moc: float
    bank_rate_pct: float      # funding rate in percent (grid rate plus spread)
    bank_multiple: float
    underwriter_return: float
    survived: bool

    def key(self) -> tuple[str, float, float]:
        return (self.portfolio_label, self.moc, self.bank_rate_pct)


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    provenance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        keys = [r.key() for r in self.rows]
        if sorted(keys) != keys:
            raise SweepError("rows must be sorted by (portfolio, moc, rate)")
        if len(set(keys)) != len(keys):
            raise SweepError("duplicate (portfolio, moc, rate) keys")

    def curves(self) -> dict[tuple[str, float], list[SweepRow]]:
        out: dict[tuple[str, float], list[SweepRow]] = {}
        for r in self.rows:
            out.setdefault((r.portfolio_label, r.moc), []).append(r)
        return out


def parse_rate_grid(spec: str) -> list[float]:
    """Parse ``lo:hi:step`` into an inclusive ascending grid.

    The final step is clamped to ``hi`` when the step does not divide
    the span evenly.
    """
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise SweepError(f"bad grid {spec!r}; expected lo:hi:step") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise SweepError(f"bad grid {spec!r}; lo, hi and step must be finite")
    if step <= 0 or not lo < hi:
        raise SweepError(f"bad grid {spec!r}; need lo < hi and step > 0")
    grid = []
    k = 0
    while True:
        v = round(lo + k * step, 10)
        if v >= hi - 1e-9:
            break
        grid.append(v)
        k += 1
    grid.append(hi)
    return grid


def _validate_grid(grid: Sequence[float]) -> None:
    if not grid:
        raise SweepError("rate grid is empty")
    for a, b in zip(grid, list(grid)[1:]):
        if b <= a:
            raise SweepError("rate grid must be strictly ascending")
    if grid[0] < 0 or grid[-1] > 50:
        raise SweepError("rate grid must lie within [0, 50] percent")


def run_sweep(bases: Sequence[ScenarioConfig], rate_grid_pct: Sequence[float],
              provenance: dict[str, str] | None = None) -> SweepTable:
    """One row per (config, grid rate).

    Grid rates are interbank percentages; each is converted to the bank
    funding rate (rate plus spread, as a fraction) before both the bank
    simulation and the underwriter ledger, so the two sides of every row
    see the same funding cost. Each config's whole grid is one call of
    each rate kernel.
    """
    _validate_grid(rate_grid_pct)
    rates_pct = [funds_rate(g) for g in rate_grid_pct]
    rates = np.array(rates_pct) / 100.0
    rows = []
    for cfg in bases:
        principal = cfg.moc * cfg.original_capital / len(cfg.portfolio.funds)
        try:
            multiples = multiple_curve(cfg)(rates).tolist()
            returns = underwriter_returns(cfg.portfolio, cfg.din_terms, rates, principal).tolist()
        except ValueError as exc:
            raise SweepError(
                f"scenario failed for portfolio {cfg.portfolio.label!r} moc {cfg.moc} "
                f"on grid rates {rate_grid_pct[0]}..{rate_grid_pct[-1]}: {exc}"
            ) from exc
        rows.extend(
            SweepRow(cfg.portfolio.label, cfg.moc, pct, m, u, m >= 1.0)
            for pct, m, u in zip(rates_pct, multiples, returns)
        )
    rows.sort(key=SweepRow.key)
    prov = tuple(sorted((provenance or {}).items()))
    return SweepTable(tuple(rows), prov)


def config_digest(bases: Sequence[ScenarioConfig], rate_grid_pct: Sequence[float]) -> str:
    """Short sha256 of the package version and every input the sweep's rows depend on."""
    from . import __version__

    text = __version__ + "#" + ";".join(
        f"{cfg.portfolio.label}|{cfg.portfolio.funds!r}|{cfg.moc!r}|{cfg.original_capital!r}|"
        f"{cfg.surplus_rate!r}|{cfg.din_terms}" for cfg in bases
    ) + "#" + ",".join(repr(g) for g in rate_grid_pct)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


CSV_HEADER = "portfolio,moc,bank_rate_pct,bank_multiple,underwriter_return,survived"


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted as in RFC 4180 if it holds a comma, quote or line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_sweep_csv(path: str | Path, table: SweepTable) -> None:
    """Rows only; provenance (including any timestamp) goes to the sidecar."""
    labels = {label: _csv_field(label) for label in {r.portfolio_label for r in table.rows}}
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(
            f"{labels[r.portfolio_label]},{r.moc!r},{r.bank_rate_pct!r},"
            f"{r.bank_multiple!r},{r.underwriter_return!r},{str(r.survived).lower()}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_meta(path: str | Path, table: SweepTable) -> None:
    lines = [f"{k}={v}" for k, v in table.provenance]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_sweep_csv(path: str | Path) -> SweepTable:
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            records = [(reader.line_num, fields) for fields in reader if "".join(fields).strip()]
        except csv.Error as exc:
            raise SweepError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not records or records[0][1] != CSV_HEADER.split(","):
        raise SweepError(f"{path}: not a sweep CSV")
    rows = []
    for lineno, parts in records[1:]:
        if len(parts) != 6:
            raise SweepError(f"{path}: line {lineno}: expected 6 fields")
        if parts[5] not in ("true", "false"):
            raise SweepError(f"{path}: line {lineno}: survived must be true or false, "
                             f"got {parts[5]!r}")
        try:
            rows.append(SweepRow(
                portfolio_label=parts[0],
                moc=float(parts[1]),
                bank_rate_pct=float(parts[2]),
                bank_multiple=float(parts[3]),
                underwriter_return=float(parts[4]),
                survived=parts[5] == "true",
            ))
        except ValueError as exc:
            raise SweepError(f"{path}: line {lineno}: {exc}") from exc
    return SweepTable(tuple(rows))
