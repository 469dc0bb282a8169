"""Rate-grid scenario sweeps and their CSV serialization."""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, takewhile

from .bank_engine import ScenarioConfig, rate_curves
from .checks import finite_real, sidecar_text, write_text
from .market_data import RATE_MAX, funds_rate


#: Most points a ``lo:hi:step`` grid spec may expand to.
MAX_GRID_POINTS = 100_000

#: Smallest grid step and span: points round to 10 decimals and one within 1e-9 of ``hi`` gives way to it.
GRID_RESOLUTION = 2e-9

#: Most rows (curves x grid rates) one sweep may hold. At the largest grid a ``sweep`` process peaked at
#: 118 MB with the default 6 curves (597,006 rows) and at 167 MB with 10 (995,010 rows, 2.8 s); each
#: further curve adds about 12 MB (shared 2-core VM, Python 3.11).
MAX_SWEEP_ROWS = 1_000_000


class SweepError(ValueError):
    """A sweep could not be run."""


#: One (portfolio ``label``, ``moc``) curve: a value per grid rate of its table. ``multiples`` are the bank
#: equity multiples (survived is multiple >= 1.0), ``returns`` the underwriter's gross returns.
SweepCurve = namedtuple("SweepCurve", "label moc multiples returns")


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
    the span evenly. A step or span below ``GRID_RESOLUTION`` raises.
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
        total = math.ceil(points) if math.isfinite(points) else points
        raise SweepError(f"bad grid {spec!r}; {total} points, more than {MAX_GRID_POINTS}")
    if step < GRID_RESOLUTION or hi - lo < GRID_RESOLUTION:
        raise SweepError(f"bad grid {spec!r}; step and span must be at least its resolution, {GRID_RESOLUTION:g}")
    return [*takewhile(lambda v: v < hi - 1e-9, (round(lo + k * step, 10) for k in count())), hi]


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
    :func:`rate_curves` on one ``array("d")`` of rates, each ``pct / 100.0``, read by numpy without a copy.
    A sweep of more than ``MAX_SWEEP_ROWS`` rows raises before any curve runs.
    """
    if len(bases) * len(rate_grid_pct) > MAX_SWEEP_ROWS:
        raise SweepError(f"{len(bases)} curves x {len(rate_grid_pct)} rates is more than "
                         f"MAX_SWEEP_ROWS ({MAX_SWEEP_ROWS}) rows")
    rates_pct = _funds_rates(rate_grid_pct)
    rates = array("d", [pct / 100.0 for pct in rates_pct])
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


def write_sweep_csv(path, table: SweepTable) -> None:
    """One row per (curve, rate); provenance (including any timestamp) goes to the sidecar.

    Each rate is formatted once per table and each curve's label and MOC once per curve. The file is
    written through :func:`checks.write_text` one curve's block at a time, holding one curve's rows.
    """
    rate_fields = [f",{pct!r}," for pct in table.rates_pct]

    def blocks():
        yield CSV_HEADER + "\n"
        for c in table.curves:
            prefix = f"{_csv_field(c.label)},{c.moc!r}"
            yield "".join([f"{prefix}{rate}{m!r},{u!r},{'true' if m >= 1.0 else 'false'}\n"
                           for rate, m, u in zip(rate_fields, c.multiples, c.returns)])

    write_text(path, blocks())


def write_sweep_meta(path, provenance: dict[str, str]) -> None:
    """The sidecar of ``sweep.csv``: one ``key=value`` line per provenance entry, sorted by key."""
    write_text(path, [sidecar_text(sorted(provenance.items()))])
