"""Ten-year venture-bank cash-flow ledger under forced interbank funding.

The bank invests a leveraged multiple of its original capital across the
portfolio, funds the whole book with interbank debt for the life of the
investments, and finances premiums by borrowing. Failing funds resolve
at the payoff year (residual value plus the insurance payout retire
debt); survivors pay out at the horizon. The result is the equity
multiple on original capital, with break-even at 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Callable

from .din import DinTerms, payout_schedule, premium_schedule
from .portfolio import ReturnPortfolio


class BreakEvenBracketError(ValueError):
    """The bracket does not isolate a single break-even crossing."""


@dataclass(frozen=True)
class ScenarioConfig:
    portfolio: ReturnPortfolio
    din_terms: DinTerms
    bank_rate: float          # per-year fraction, e.g. 0.0225
    moc: float                # leverage: investments / original capital
    original_capital: float = 1.0
    horizon_years: int = 10
    surplus_rate: float = 0.0  # earned on cash once debt is retired

    def __post_init__(self) -> None:
        for name in ("bank_rate", "moc", "original_capital", "surplus_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.moc <= 0:
            raise ValueError("moc must be positive")
        if self.bank_rate < 0:
            raise ValueError("bank_rate must be >= 0")
        if self.original_capital <= 0:
            raise ValueError("original_capital must be positive")
        if self.horizon_years != self.din_terms.term_years:
            raise ValueError("horizon_years must equal the note term")


@dataclass(frozen=True)
class BankYear:
    year: int
    interest_accrued: float
    surplus_interest: float
    premiums_paid: float
    din_receipts: float
    exit_proceeds: float
    debt_balance_end: float
    cash_balance_end: float
    equity_estimate: float


@dataclass(frozen=True)
class BankResult:
    final_multiple: float
    survived: bool
    ledger: tuple[BankYear, ...]


def simulate_bank(cfg: ScenarioConfig) -> BankResult:
    """Run the deterministic yearly ledger and report the final multiple.

    Year 0 invests ``moc x capital`` split equally across funds and
    borrows the same amount (plus any upfront premium). Each later year
    the debt compounds, premiums due are debt-financed net of any cash
    on hand, and resolutions pay debt down first with any excess held as
    cash earning ``surplus_rate``. Equity is original capital plus cash
    minus debt; survival means a final multiple at or above 1.0.
    """
    funds = cfg.portfolio.funds
    n = len(funds)
    invested = cfg.moc * cfg.original_capital
    principal = invested / n

    premiums = premium_schedule(cfg.portfolio, cfg.din_terms, principal)
    din_sched = payout_schedule(cfg.portfolio, cfg.din_terms, principal)
    payoff_year = cfg.din_terms.payoff_year

    debt = invested + premiums[0]
    cash = 0.0
    rows = [BankYear(
        year=0,
        interest_accrued=0.0,
        surplus_interest=0.0,
        premiums_paid=premiums[0],
        din_receipts=0.0,
        exit_proceeds=0.0,
        debt_balance_end=debt,
        cash_balance_end=cash,
        equity_estimate=cfg.original_capital + cash - debt,
    )]

    for year in range(1, cfg.horizon_years + 1):
        interest = debt * cfg.bank_rate
        debt += interest
        surplus_interest = cash * cfg.surplus_rate
        cash += surplus_interest

        due = premiums[year]
        from_cash = min(cash, due)
        cash -= from_cash
        debt += due - from_cash

        exits = 0.0
        if year == payoff_year:
            exits += fsum(m * principal for m in funds if m < 1.0)
        if year == cfg.horizon_years:
            exits += fsum(m * principal for m in funds if m >= 1.0)
        receipts = din_sched[year]

        inflow = receipts + exits
        pay_down = min(debt, inflow)
        debt -= pay_down
        cash += inflow - pay_down

        rows.append(BankYear(
            year=year,
            interest_accrued=interest,
            surplus_interest=surplus_interest,
            premiums_paid=due,
            din_receipts=receipts,
            exit_proceeds=exits,
            debt_balance_end=debt,
            cash_balance_end=cash,
            equity_estimate=cfg.original_capital + cash - debt,
        ))

    equity = cfg.original_capital + cash - debt
    multiple = equity / cfg.original_capital
    return BankResult(final_multiple=multiple, survived=multiple >= 1.0, ledger=tuple(rows))


def multiple_curve(cfg: ScenarioConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Final multiple of ``cfg`` as a function of an array of bank rates.

    The premium and payout schedules, the exit sums and the opening debt
    do not depend on the rate, so they are built once here. The returned
    kernel steps the yearly ledger of :func:`simulate_bank` over all the
    rates at once, in the same order of operations, so element ``i``
    equals ``simulate_bank(replace(cfg, bank_rate=rates[i])).final_multiple``
    bitwise; ``cfg.bank_rate`` itself is not used. Each ``min(a, b)`` is
    written ``np.where(b < a, b, a)``, which picks the operand ``min``
    picks, signed zeros included.
    """
    import numpy as np

    funds = cfg.portfolio.funds
    invested = cfg.moc * cfg.original_capital
    principal = invested / len(funds)
    premiums = premium_schedule(cfg.portfolio, cfg.din_terms, principal)
    receipts = payout_schedule(cfg.portfolio, cfg.din_terms, principal)
    horizon = cfg.horizon_years
    exits = [0.0] * (horizon + 1)
    exits[cfg.din_terms.payoff_year] += fsum(m * principal for m in funds if m < 1.0)
    exits[horizon] += fsum(m * principal for m in funds if m >= 1.0)
    inflows = [r + e for r, e in zip(receipts, exits)]
    debt0 = invested + premiums[0]
    capital, surplus_rate = cfg.original_capital, cfg.surplus_rate

    def kernel(rates: np.ndarray) -> np.ndarray:
        rates = np.asarray(rates, dtype=float)
        if not np.all(rates >= 0):
            raise ValueError("bank_rate must be >= 0")
        debt = np.full(rates.shape, debt0)
        cash = np.zeros(rates.shape)
        for year in range(1, horizon + 1):
            debt = debt + debt * rates
            cash = cash + cash * surplus_rate
            due = premiums[year]
            from_cash = np.where(due < cash, due, cash)
            cash = cash - from_cash
            debt = debt + (due - from_cash)
            inflow = inflows[year]
            pay_down = np.where(inflow < debt, inflow, debt)
            debt = debt - pay_down
            cash = cash + (inflow - pay_down)
        return (capital + cash - debt) / capital

    return kernel


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


def break_even_rate(cfg: ScenarioConfig, lo: float, hi: float, *,
                    tol: float = 1e-6, scan_points: int = 21) -> float | None:
    """Bank rate at which the final multiple crosses 1.0, or None.

    A coarse scan first checks the bracket (see :func:`_scan_crossings`):
    no crossing returns None; more than one raises
    :class:`BreakEvenBracketError`. A crossing at an exact zero returns
    that grid rate; a sign flip is bisected, relying on the final
    multiple being monotone in the rate between the two grid points.
    The scan is one call of the :func:`multiple_curve` kernel and each
    bisection step another call of the same curve.
    """
    import numpy as np

    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    multiples = multiple_curve(cfg)

    grid = [lo + (hi - lo) * i / (scan_points - 1) for i in range(scan_points)]
    margins = (multiples(np.array(grid)) - 1.0).tolist()
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
    while r_hi - r_lo > tol:
        mid = (r_lo + r_hi) / 2
        f_mid = multiples(np.array([mid]))[0] - 1.0
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
