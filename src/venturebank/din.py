"""Default-insurance contract terms, coverage sizing, and the underwriter ledger.

A note insures a fixed fraction of one investment's principal. It pays
on default (fund finishing below break-even) at the payoff year and
collects premiums until then; the underwriter finances payoff amounts
at the bank rate through the end of the term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import fsum
from pathlib import Path

import numpy as np

from .portfolio import ReturnPortfolio, portfolio_stats


class PremiumBase(str, enum.Enum):
    """What the annual premium rate applies to."""

    FACE_ANNUAL = "face_annual"            # rate x insured face, every year
    PRINCIPAL_ANNUAL = "principal_annual"  # rate x principal, every year
    PRINCIPAL_UPFRONT = "principal_upfront"  # rate x principal, once at year 0


class CoverageMethod(str, enum.Enum):
    SIGMA_CLAMP = "sigma_clamp"
    BREAKEVEN_CLAMP = "breakeven_clamp"


class UnderwriterError(ValueError):
    """The underwriter ledger is undefined for the given inputs."""


@dataclass(frozen=True)
class DinTerms:
    """Contract terms for one note.

    Fractions are per unit of principal; the premium rate is per year
    against the selected base.
    """

    coverage_fraction: float = 0.0388
    coverage_floor: float = 0.0288
    premium_rate: float = 0.05
    premium_base: PremiumBase = PremiumBase.FACE_ANNUAL
    payoff_year: int = 5
    term_years: int = 10

    def __post_init__(self) -> None:
        for name in ("coverage_fraction", "coverage_floor", "premium_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.coverage_fraction < self.coverage_floor:
            raise ValueError("coverage_fraction must be >= coverage_floor")
        if not (0 < self.payoff_year <= self.term_years):
            raise ValueError("payoff_year must satisfy 0 < payoff_year <= term_years")
        if self.premium_rate < 0:
            raise ValueError("premium_rate must be >= 0")

    def coverage_ratio(self) -> float:
        """Working coverage as a multiple of the regulatory floor."""
        if self.coverage_floor == 0:
            raise ValueError("coverage_floor is zero; ratio undefined")
        return self.coverage_fraction / self.coverage_floor


@dataclass(frozen=True)
class CoverageAssessment:
    method: CoverageMethod
    clamp_loss: float       # percentage points of portfolio lost after clamping
    recommended_coverage: float  # floor + clamp loss, percentage points

    def as_csv_row(self) -> str:
        return f"{self.method.value},{self.clamp_loss:.4f},{self.recommended_coverage:.4f}"


def _assess(p: ReturnPortfolio, floor: float, threshold: float, method: CoverageMethod) -> CoverageAssessment:
    clamped = [1.0 if m > threshold else m for m in p.funds]
    loss = max(0.0, (1.0 - fsum(clamped) / len(clamped)) * 100.0)
    return CoverageAssessment(method, loss, floor + loss)


def coverage_sigma_method(p: ReturnPortfolio, floor: float) -> CoverageAssessment:
    """Coverage sized by clamping funds more than one sigma above break-even."""
    sigma = portfolio_stats(p).stddev
    return _assess(p, floor, 1.0 + sigma, CoverageMethod.SIGMA_CLAMP)


def coverage_breakeven_method(p: ReturnPortfolio, floor: float) -> CoverageAssessment:
    """Coverage sized by clamping every fund above break-even."""
    return _assess(p, floor, 1.0, CoverageMethod.BREAKEVEN_CLAMP)


def din_payout(principal: float, multiple: float, terms: DinTerms) -> float:
    """Payout on one fund: the shortfall below break-even, capped at the face."""
    if principal <= 0:
        raise ValueError("principal must be positive")
    if multiple >= 1.0:
        return 0.0
    return min((1.0 - multiple) * principal, terms.coverage_fraction * principal)


def premium_schedule(p: ReturnPortfolio, terms: DinTerms, principal_per_fund: float) -> list[float]:
    """Premium cash per model year 0..term_years across the whole portfolio.

    Failed funds (multiple < 1) pay annual premiums only through the
    payoff year; surviving funds pay through the full term. The upfront
    base pays once at year 0 regardless of outcome.
    """
    sched = [0.0] * (terms.term_years + 1)
    for m in p.funds:
        if terms.premium_base is PremiumBase.PRINCIPAL_UPFRONT:
            sched[0] += terms.premium_rate * principal_per_fund
            continue
        if terms.premium_base is PremiumBase.FACE_ANNUAL:
            annual = terms.premium_rate * terms.coverage_fraction * principal_per_fund
        else:
            annual = terms.premium_rate * principal_per_fund
        last = terms.payoff_year if m < 1.0 else terms.term_years
        for year in range(1, last + 1):
            sched[year] += annual
    return sched


def payout_schedule(p: ReturnPortfolio, terms: DinTerms, principal_per_fund: float) -> list[float]:
    """Payout cash per model year; everything lands at the payoff year."""
    sched = [0.0] * (terms.term_years + 1)
    sched[terms.payoff_year] = fsum(
        din_payout(principal_per_fund, m, terms) for m in p.funds if m < 1.0
    )
    return sched


@dataclass(frozen=True)
class UnderwriterYear:
    year: int
    premium_income: float
    payouts: float
    carry_cost: float


@dataclass(frozen=True)
class UnderwriterResult:
    yearly: tuple[UnderwriterYear, ...]
    gross_return: float  # per unit of insured face; break-even at 0

    @property
    def total_premiums(self) -> float:
        return fsum(y.premium_income for y in self.yearly)

    @property
    def total_payouts(self) -> float:
        return fsum(y.payouts for y in self.yearly)

    @property
    def total_carry(self) -> float:
        return fsum(y.carry_cost for y in self.yearly)


def underwriter_ledger(p: ReturnPortfolio, terms: DinTerms, bank_rate: float,
                       principal_per_fund: float) -> UnderwriterResult:
    """Underwriter-side cash flows and gross return for one portfolio.

    Premiums follow :func:`premium_schedule`; payouts land at the payoff
    year and then accrue compound carry cost at ``bank_rate`` (a
    per-year fraction) through the end of the term. The gross return
    nets premiums against payouts and carry, per unit of total insured
    face.
    """
    if bank_rate < 0:
        raise ValueError("bank_rate must be >= 0")
    face_total = terms.coverage_fraction * principal_per_fund * len(p.funds)
    if face_total <= 0:
        raise UnderwriterError("total insured face is zero; gross return undefined")

    premiums = premium_schedule(p, terms, principal_per_fund)
    payouts = payout_schedule(p, terms, principal_per_fund)

    carry = [0.0] * (terms.term_years + 1)
    outstanding = payouts[terms.payoff_year]
    for year in range(terms.payoff_year + 1, terms.term_years + 1):
        carry[year] = outstanding * bank_rate
        outstanding += carry[year]

    yearly = tuple(
        UnderwriterYear(y, premiums[y], payouts[y], carry[y])
        for y in range(terms.term_years + 1)
    )
    gross = (fsum(premiums) - fsum(payouts) - fsum(carry)) / face_total
    return UnderwriterResult(yearly, gross)


def underwriter_returns(p: ReturnPortfolio, terms: DinTerms, bank_rates: np.ndarray,
                        principal_per_fund: float) -> np.ndarray:
    """Gross return of :func:`underwriter_ledger` at each of an array of bank rates.

    The schedules are built once for all the rates; the carry cost steps
    over the rate array in the order the scalar ledger uses, and each
    rate's carry is summed exactly with ``math.fsum``, so element ``i``
    equals ``underwriter_ledger(p, terms, bank_rates[i],
    principal_per_fund).gross_return`` bitwise.
    """
    rates = np.asarray(bank_rates, dtype=float)
    if not np.all(rates >= 0):
        raise ValueError("bank_rate must be >= 0")
    face_total = terms.coverage_fraction * principal_per_fund * len(p.funds)
    if face_total <= 0:
        raise UnderwriterError("total insured face is zero; gross return undefined")

    premiums = premium_schedule(p, terms, principal_per_fund)
    payouts = payout_schedule(p, terms, principal_per_fund)

    carry = np.zeros((len(rates), terms.term_years - terms.payoff_year))
    outstanding = np.full(rates.shape, payouts[terms.payoff_year])
    for col in range(carry.shape[1]):
        carry[:, col] = outstanding * rates
        outstanding = outstanding + carry[:, col]
    carry_total = np.array([fsum(row) for row in carry.tolist()])
    return (fsum(premiums) - fsum(payouts) - carry_total) / face_total


def write_underwriter_csv(path: str | Path, result: UnderwriterResult) -> None:
    """Per-year CSV plus a totals summary row."""
    lines = ["year,premium_income,payouts,carry_cost"]
    for y in result.yearly:
        lines.append(f"{y.year},{y.premium_income!r},{y.payouts!r},{y.carry_cost!r}")
    lines.append(
        f"total,{result.total_premiums!r},{result.total_payouts!r},{result.total_carry!r}"
    )
    lines.append(f"# gross_return={result.gross_return!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
