"""Venture-bank debt ledger over the note term under forced interbank funding.

The bank invests a leveraged multiple of its original capital across the
portfolio, funds the whole book with interbank debt for the life of the
investments, and finances premiums by borrowing. Failing funds resolve
at the payoff year (residual value plus the insurance payout retire
debt); survivors pay out at the end of the note term. The result is the
equity multiple on original capital, with break-even at 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Sequence

from .din import DinTerms, Flows, payout_schedule, premium_schedule
from .portfolio import ReturnPortfolio


#: Points of the coarse break-even scan, and the rate width (per-year
#: fraction) at which its bisection stops.
SCAN_POINTS = 21
BREAK_EVEN_TOL = 1e-6


class BreakEvenBracketError(ValueError):
    """The bracket does not isolate a single break-even crossing."""


@dataclass(frozen=True)
class ScenarioConfig:
    portfolio: ReturnPortfolio
    din_terms: DinTerms
    bank_rate: float          # per-year fraction, e.g. 0.0225
    moc: float                # leverage: investments / original capital
    original_capital: float = 1.0
    horizon_years: int | None = None  # the horizon is the note term; if given, it must equal it
    surplus_rate: float = 0.0  # only 0.0: the bank holds nothing to earn a surplus on

    def __post_init__(self) -> None:
        for name in ("bank_rate", "moc", "original_capital", "surplus_rate"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ValueError(f"{name} must be a real number, got {value!r}") from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.surplus_rate != 0.0:
            raise ValueError(f"surplus_rate must be 0.0, got {self.surplus_rate!r}")
        if self.moc <= 0:
            raise ValueError("moc must be positive")
        if self.bank_rate < 0:
            raise ValueError("bank_rate must be >= 0")
        if self.original_capital <= 0:
            raise ValueError("original_capital must be positive")
        if self.horizon_years not in (None, self.din_terms.term_years):
            raise ValueError("horizon_years must equal the note term")


def scenario_flows(cfg: ScenarioConfig) -> Flows:
    """Premium and payout schedules, exit proceeds and insured face of ``cfg``."""
    funds, terms = cfg.portfolio.funds, cfg.din_terms
    principal = cfg.moc * cfg.original_capital / len(funds)
    exits = [0.0] * (terms.term_years + 1)
    exits[terms.payoff_year] += fsum(m * principal for m in funds if m < 1.0)
    exits[terms.term_years] += fsum(m * principal for m in funds if m >= 1.0)
    return Flows(premium_schedule(cfg.portfolio, terms, principal),
                 payout_schedule(cfg.portfolio, terms, principal),
                 exits, terms.coverage_fraction * principal * len(funds))


def _debts(cfg: ScenarioConfig, flows: Flows, rate):
    """The bank's debt at the end of each year 0..horizon.

    Year 0 borrows the invested ``moc x capital`` plus any upfront
    premium. Each later year the debt compounds at ``rate``, the
    premiums due are borrowed and the payouts and exits repay it. A
    failing fund returns at most its principal, so the debt can turn
    negative before the horizon only by rounding dust; at the
    horizon a negative debt is the survivors' surplus. ``rate`` is a
    float or a numpy array of rates; both run the same operations.
    """
    debt = cfg.moc * cfg.original_capital + flows.premiums[0]
    yield debt
    for year in range(1, cfg.din_terms.term_years + 1):
        debt = debt + debt * rate + flows.premiums[year] - (flows.receipts[year] + flows.exits[year])
        yield debt


@dataclass(frozen=True)
class BankYear:
    year: int
    interest_accrued: float
    premiums_paid: float
    din_receipts: float
    exit_proceeds: float
    debt_balance_end: float
    equity_estimate: float


@dataclass(frozen=True)
class BankResult:
    final_multiple: float
    survived: bool
    ledger: tuple[BankYear, ...]


def simulate_bank(cfg: ScenarioConfig) -> BankResult:
    """Run the yearly ledger at ``cfg.bank_rate`` and report the final multiple.

    The final multiple is ``(capital - final debt) / capital``; survival
    means a multiple at or above 1.0. Each row records the year's flows,
    the debt owed at its end (0 once repaid), the interest charged on
    the debt owed at its start, and the equity, capital minus debt.
    """
    flows = scenario_flows(cfg)
    rate, capital = cfg.bank_rate, cfg.original_capital
    rows, owed = [], 0.0
    for year, debt in enumerate(_debts(cfg, flows, rate)):
        interest, owed = owed * rate, (debt if debt > 0 else 0.0)
        rows.append(BankYear(year, interest, flows.premiums[year], flows.receipts[year],
                             flows.exits[year], owed, capital - debt))
    multiple = (capital - debt) / capital
    return BankResult(final_multiple=multiple, survived=multiple >= 1.0, ledger=tuple(rows))


def _final_multiple(cfg: ScenarioConfig, flows: Flows, rate):
    """Final multiple of ``cfg`` at ``rate``, a float or a numpy array of rates."""
    *_, debt = _debts(cfg, flows, rate)
    return (cfg.original_capital - debt) / cfg.original_capital


def multiple_curve(cfg: ScenarioConfig, flows: Flows, rates: Sequence[float]) -> list[float]:
    """Final multiple of ``cfg`` at each of a sequence of bank rates.

    Runs the ledger of :func:`simulate_bank` over all the rates at once,
    so element ``i`` equals ``simulate_bank(replace(cfg,
    bank_rate=rates[i])).final_multiple`` bitwise; ``cfg.bank_rate``
    itself is not used. ``flows`` is ``scenario_flows(cfg)``.
    """
    import numpy as np

    rates = np.asarray(rates, dtype=float)
    if not np.all(rates >= 0):
        raise ValueError("bank_rate must be >= 0")
    return _final_multiple(cfg, flows, rates).tolist()


def _scan_crossings(margins: list[float]) -> list[int]:
    """Index at which each break-even crossing of a rate scan starts.

    A strict sign flip between neighbours ``i`` and ``i + 1`` is one
    crossing at ``i``; a run of exact zeros is one crossing at its first
    index. Signs are compared rather than products, because the product
    of two tiny margins can underflow to 0.
    """
    crossings = []
    for i, m in enumerate(margins):
        if m == 0.0:
            if i == 0 or margins[i - 1] != 0.0:
                crossings.append(i)
        elif i + 1 < len(margins) and margins[i + 1] != 0.0 and (m > 0) != (margins[i + 1] > 0):
            crossings.append(i)
    return crossings


def break_even_rate(cfg: ScenarioConfig, lo: float, hi: float) -> float | None:
    """Bank rate at which the final multiple crosses 1.0, or None.

    A coarse scan first checks the bracket (see :func:`_scan_crossings`):
    no crossing returns None; more than one raises
    :class:`BreakEvenBracketError`. A crossing at an exact zero returns
    that grid rate; a sign flip is bisected, relying on the final
    multiple being monotone in the rate between the two grid points.
    The flows are built once; the scan and each bisection step run the
    ledger on one float rate, bitwise as :func:`multiple_curve` would.
    """
    if not (0 <= lo < hi and math.isfinite(hi)):
        raise ValueError(f"bracket [{lo}, {hi}] must satisfy 0 <= lo < hi, both finite")
    flows = scenario_flows(cfg)

    grid = [lo + (hi - lo) * i / (SCAN_POINTS - 1) for i in range(SCAN_POINTS)]
    margins = [_final_multiple(cfg, flows, r) - 1.0 for r in grid]
    crossings = _scan_crossings(margins)
    if not crossings:
        return None
    if len(crossings) > 1:
        raise BreakEvenBracketError(
            f"final multiple crosses break-even {len(crossings)} times in [{lo}, {hi}]"
        )

    a = crossings[0]
    if margins[a] == 0.0:
        return grid[a]
    r_lo, r_hi = grid[a], grid[a + 1]
    f_lo = margins[a]
    while r_hi - r_lo > BREAK_EVEN_TOL:
        mid = (r_lo + r_hi) / 2
        f_mid = _final_multiple(cfg, flows, mid) - 1.0
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            r_lo, f_lo = mid, f_mid
        else:
            r_hi = mid
    return (r_lo + r_hi) / 2


def write_bank_csv(path, result: BankResult) -> None:
    """One row per year: interest, premiums, receipts, exits, balances."""
    from pathlib import Path

    lines = ["year,interest,premiums,din_receipts,exit_proceeds,debt,equity"]
    for row in result.ledger:
        lines.append(
            f"{row.year},{row.interest_accrued!r},{row.premiums_paid!r},"
            f"{row.din_receipts!r},{row.exit_proceeds!r},"
            f"{row.debt_balance_end!r},{row.equity_estimate!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def bank_summary(result: BankResult) -> str:
    """Key=value block for one run."""
    return (
        f"final_multiple={result.final_multiple!r}\n"
        f"survived={str(result.survived).lower()}\n"
        f"years={len(result.ledger) - 1}\n"
    )
