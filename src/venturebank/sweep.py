"""Rate-grid scenario sweeps and their CSV serialization."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .bank_engine import ScenarioConfig, rate_curves
from .checks import finite_real, sidecar_text
from .market_data import RATE_MAX, funds_rate


#: Most points a ``lo:hi:step`` grid spec may expand to.
MAX_GRID_POINTS = 100_000


class SweepError(ValueError):
    """A sweep could not be run."""


class SweepCurve(NamedTuple):
    """One (portfolio, MOC) curve: a value per grid rate of its table."""

    label: str
    moc: float
    multiples: tuple[float, ...]   # bank equity multiple; survived is multiple >= 1.0
    returns: tuple[float, ...]     # underwriter gross return


@dataclass(frozen=True)
class SweepTable:
    """Curves sorted by (label, moc) over one shared grid of funding rates.

    ``rates_pct`` are the funding rates in percent (grid rate plus
    spread), finite and strictly ascending; row ``j`` of every curve is at
    ``rates_pct[j]``, and every multiple and return is finite.
    """

    rates_pct: tuple[float, ...]
    curves: tuple[SweepCurve, ...]

    def __post_init__(self) -> None:
        rates = self.rates_pct
        if not all(a < b for a, b in zip(rates, rates[1:])):
            raise SweepError("rates must strictly ascend")
        if not math.isfinite(sum(rates)):  # a finite sum proves every rate finite
            for j, pct in enumerate(rates):
                if not math.isfinite(pct):
                    raise SweepError(f"rate {j} is {pct!r}: rates must be finite")
        for c in self.curves:
            if not len(c.multiples) == len(c.returns) == len(rates):
                raise SweepError(f"curve {c.label!r} at moc {c.moc:g} has "
                                 f"{len(c.multiples)}/{len(c.returns)} values for {len(rates)} rates")
            for name, values in (("multiple", c.multiples), ("return", c.returns)):
                if not math.isfinite(sum(values)):  # a finite sum proves every value finite
                    for pct, v in zip(rates, values):
                        if not math.isfinite(v):
                            raise SweepError(f"curve {c.label!r} at moc {c.moc:g} has {name} {v!r} "
                                             f"at rate {pct!r}")
        for a, b in zip(self.curves, self.curves[1:]):
            if (a.label, a.moc) == (b.label, b.moc):
                raise SweepError(f"duplicate curve {a.label!r} at moc {a.moc:g}")
            if (a.label, a.moc) > (b.label, b.moc):
                raise SweepError("curves must be sorted by (label, moc)")

    @property
    def rows(self) -> list[tuple[str, float, float, float, float, bool]]:
        """One (portfolio, moc, bank_rate_pct, bank_multiple, underwriter_return,
        survived) tuple per CSV row, built on each access."""
        return [(c.label, c.moc, pct, m, u, m >= 1.0)
                for c in self.curves
                for pct, m, u in zip(self.rates_pct, c.multiples, c.returns)]


def parse_rate_grid(spec: str) -> list[float]:
    """Parse ``lo:hi:step`` into an inclusive ascending grid.

    The final step is clamped to ``hi`` when the step does not divide
    the span evenly.
    """
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = map(finite_real, ("lo", "hi", "step"), map(float, (lo_s, hi_s, step_s)))
    except ValueError as exc:
        raise SweepError(f"bad grid {spec!r}; expected lo:hi:step, each a finite number ({exc})") from exc
    if step <= 0 or not lo < hi:
        raise SweepError(f"bad grid {spec!r}; need lo < hi and step > 0")
    points = (hi - lo) / step + 1
    if points > MAX_GRID_POINTS:
        count = math.ceil(points) if math.isfinite(points) else points
        raise SweepError(f"bad grid {spec!r}; {count} points, more than {MAX_GRID_POINTS}")
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


def _funds_rates(grid: Sequence[float]) -> tuple[float, ...]:
    """Each grid rate's funding rate as a ``float``, each entry checked once, by :func:`funds_rate`."""
    if len(grid) == 0:
        raise SweepError("rate grid is empty")
    rates_pct = []
    for i, g in enumerate(grid):
        try:
            rates_pct.append(float(funds_rate(g)))
        except ValueError as exc:
            raise SweepError(f"rate grid entry {i}: {exc}") from None
    for i, (a, b) in enumerate(zip(rates_pct, rates_pct[1:])):  # two grid rates may round to one
        if b <= a:
            raise SweepError("rate grid must be strictly ascending" if grid[i + 1] <= grid[i]
                             else f"rate grid entries {i} and {i + 1} both fund at {a!r} percent")
    if grid[-1] > RATE_MAX:
        raise SweepError(f"rate grid must lie within [0, {RATE_MAX:g}] percent")
    return tuple(rates_pct)


def run_sweep(bases: Sequence[ScenarioConfig], rate_grid_pct: Sequence[float]) -> SweepTable:
    """One curve per config over the whole grid.

    Grid rates are interbank percentages; each is converted to the bank
    funding rate (rate plus spread, as a fraction) before both the bank
    simulation and the underwriter's return, so the two sides of every row
    see the same funding cost. Each config's whole grid is one call of
    :func:`rate_curves` on one list of rates, each ``pct / 100.0``.
    """
    rates_pct = _funds_rates(rate_grid_pct)
    rates = [pct / 100.0 for pct in rates_pct]
    curves = []
    for cfg in bases:
        try:
            multiples, returns = rate_curves(cfg, rates)
        except ValueError as exc:
            raise SweepError(
                f"scenario failed for portfolio {cfg.portfolio.label!r} moc {cfg.moc} "
                f"on grid rates {rate_grid_pct[0]}..{rate_grid_pct[-1]}: {exc}"
            ) from exc
        curves.append(SweepCurve(cfg.portfolio.label, cfg.moc, tuple(multiples), tuple(returns)))
    curves.sort(key=lambda c: (c.label, c.moc))
    return SweepTable(rates_pct, tuple(curves))


def config_digest(bases: Sequence[ScenarioConfig], rate_grid_pct: Sequence[float]) -> str:
    """Short sha256 of the package version and every input the rows depend on, each grid rate as a float."""
    from . import __version__

    text = __version__ + "#" + ";".join(
        f"{cfg.portfolio.label}|{cfg.portfolio.funds!r}|{cfg.moc!r}|{cfg.original_capital!r}|"
        f"{cfg.din_terms}" for cfg in bases
    ) + "#" + ",".join(repr(float(g)) for g in rate_grid_pct)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


CSV_HEADER = "portfolio,moc,bank_rate_pct,bank_multiple,underwriter_return,survived"


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted as in RFC 4180 if it holds a comma, quote or line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_sweep_csv(path: str | Path, table: SweepTable) -> None:
    """One row per (curve, rate); provenance (including any timestamp) goes to the sidecar.

    Each rate is formatted once per table and each curve's label and MOC
    once per curve.
    """
    rate_fields = [f",{pct!r}," for pct in table.rates_pct]
    lines = [CSV_HEADER]
    for c in table.curves:
        prefix = f"{_csv_field(c.label)},{c.moc!r}"
        lines += [f"{prefix}{rate}{m!r},{u!r},{'true' if m >= 1.0 else 'false'}"
                  for rate, m, u in zip(rate_fields, c.multiples, c.returns)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_meta(path: str | Path, provenance: dict[str, str]) -> None:
    """The sidecar of ``sweep.csv``: one ``key=value`` line per provenance entry, sorted by key."""
    Path(path).write_text(sidecar_text(sorted(provenance.items())), encoding="utf-8")
