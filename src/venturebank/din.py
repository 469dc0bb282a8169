"""Default-insurance contract terms, coverage sizing, schedules and underwriter returns.

A note insures a fixed fraction of one investment's principal. It pays
on default (fund finishing below break-even) at the payoff year and
collects premiums until then; the underwriter finances payoff amounts
at the bank rate through the end of the term.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import fsum
from typing import NamedTuple, Sequence

from .portfolio import ReturnPortfolio, _clamped_mean, portfolio_stats


class PremiumBase(str, enum.Enum):
    """What the annual premium rate applies to."""

    FACE_ANNUAL = "face_annual"            # rate x insured face, every year
    PRINCIPAL_ANNUAL = "principal_annual"  # rate x principal, every year
    PRINCIPAL_UPFRONT = "principal_upfront"  # rate x principal, once at year 0


class CoverageMethod(str, enum.Enum):
    SIGMA_CLAMP = "sigma_clamp"
    BREAKEVEN_CLAMP = "breakeven_clamp"


class UnderwriterError(ValueError):
    """The underwriter's gross return is undefined for the given inputs."""


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
        for name in ("coverage_fraction", "coverage_floor", "premium_rate", "payoff_year", "term_years"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("payoff_year", "term_years"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        try:
            object.__setattr__(self, "premium_base", PremiumBase(self.premium_base))
        except ValueError:
            raise ValueError(f"premium_base must be one of {', '.join(b.value for b in PremiumBase)}, "
                             f"got {self.premium_base!r}") from None
        if self.coverage_floor < 0:
            raise ValueError(f"coverage_floor must be >= 0, got {self.coverage_floor!r}")
        if self.coverage_fraction < self.coverage_floor:
            raise ValueError(f"coverage_fraction must be >= coverage_floor, got "
                             f"{self.coverage_fraction!r} < {self.coverage_floor!r}")
        if not (0 < self.payoff_year <= self.term_years):
            raise ValueError(f"payoff_year must satisfy 0 < payoff_year <= term_years, got "
                             f"{self.payoff_year!r} and {self.term_years!r}")
        if self.premium_rate < 0:
            raise ValueError(f"premium_rate must be >= 0, got {self.premium_rate!r}")

    def coverage_ratio(self) -> float:
        """Working coverage as a multiple of the regulatory floor."""
        if self.coverage_floor == 0:
            raise ValueError("coverage_floor is zero; ratio undefined")
        return self.coverage_fraction / self.coverage_floor


class Flows(NamedTuple):
    """The rate-independent flows of one scenario, per model year 0..horizon.

    Built once per scenario by :func:`bank_engine.scenario_flows`; defined
    here so that :func:`underwriter_returns` can name it without an import
    cycle. ``start`` and ``steps`` are what the bank ledger reads.
    """

    premiums: list[float]   # bank to underwriter, borrowed
    receipts: list[float]   # underwriter to bank: payouts, all at the payoff year
    exits: list[float]      # fund exits: failures at the payoff year, survivors at the horizon
    face_total: float       # insured face of the whole portfolio
    start: float            # invested moc x capital plus the year-0 premiums
    steps: list[tuple[float, float]]  # years 1..horizon: (premiums, receipts[y] + exits[y])


@dataclass(frozen=True)
class CoverageAssessment:
    method: CoverageMethod
    clamp_loss: float       # percentage points of portfolio lost after clamping
    recommended_coverage: float  # floor + clamp loss, percentage points

    def as_csv_row(self) -> str:
        return f"{self.method.value},{self.clamp_loss:.4f},{self.recommended_coverage:.4f}"


def _assess(p: ReturnPortfolio, floor: float, threshold: float, method: CoverageMethod) -> CoverageAssessment:
    if not math.isfinite(floor):
        raise ValueError(f"floor must be finite, got {floor!r}")
    if floor < 0:
        raise ValueError(f"floor must be >= 0, got {floor!r}")
    loss = max(0.0, (1.0 - _clamped_mean(p.funds, threshold)) * 100.0)
    return CoverageAssessment(method, loss, floor + loss)


def coverage_sigma_method(p: ReturnPortfolio, floor: float) -> CoverageAssessment:
    """Coverage sized by clamping funds more than one sigma above break-even."""
    sigma = portfolio_stats(p).stddev
    return _assess(p, floor, 1.0 + sigma, CoverageMethod.SIGMA_CLAMP)


def coverage_breakeven_method(p: ReturnPortfolio, floor: float) -> CoverageAssessment:
    """Coverage sized by clamping every fund above break-even."""
    return _assess(p, floor, 1.0, CoverageMethod.BREAKEVEN_CLAMP)


def _check_principal(principal: float) -> None:
    if not (math.isfinite(principal) and principal > 0):
        raise ValueError(f"principal must be finite and positive, got {principal!r}")


def _payouts(failing: Sequence[float], principal: float, terms: DinTerms) -> list[float]:
    """Payout on each failing fund: its shortfall below break-even, capped at the face."""
    cap = terms.coverage_fraction * principal  # below, ``min(x, cap)`` bitwise without a call
    return [cap if cap < x else x for x in [(1.0 - m) * principal for m in failing]]


def din_payout(principal: float, multiple: float, terms: DinTerms) -> float:
    """Payout on one fund: the shortfall below break-even, capped at the face."""
    _check_principal(principal)
    if not math.isfinite(multiple):
        raise ValueError(f"multiple must be finite, got {multiple!r}")
    if multiple >= 1.0:
        return 0.0
    return _payouts((multiple,), principal, terms)[0]


def _premium_schedule(funds: int, survivors: int, terms: DinTerms, principal: float) -> list[float]:
    """Premium cash per model year 0..term_years; ``survivors`` of the ``funds`` do not fail.

    Failed funds pay through the payoff year, survivors through the term, the upfront
    base once at year 0. Every payer adds the same amount, so one running sum from 0.0,
    read at the survivor and at the fund count, fills the schedule bitwise as a per-fund loop would.
    """
    if terms.premium_base is PremiumBase.FACE_ANNUAL:
        amount = terms.premium_rate * terms.coverage_fraction * principal
    else:
        amount = terms.premium_rate * principal
    sums = list(accumulate(repeat(amount, funds), initial=0.0))
    if terms.premium_base is PremiumBase.PRINCIPAL_UPFRONT:
        return [sums[-1]] + [0.0] * terms.term_years
    return ([0.0] + [sums[-1]] * terms.payoff_year
            + [sums[survivors]] * (terms.term_years - terms.payoff_year))


def _rate_array(rates: Sequence[float]):
    """``rates`` as a numpy float array, each checked to be >= 0."""
    import numpy as np

    rates = np.asarray(rates, dtype=float)
    ok = rates >= 0
    if not ok.all():
        raise ValueError(f"bank_rate must be >= 0, got {rates[ok.argmin()].item()!r}")
    return rates


def underwriter_returns(terms: DinTerms, flows: Flows, bank_rates: Sequence[float]) -> list[float]:
    """Underwriter gross return at each of a sequence of bank rates; break-even at 0.

    ``flows`` holds the premium and payout schedules (see
    :func:`bank_engine.scenario_flows`). Payouts land at the payoff year
    and then accrue compound carry cost at the bank rate (a per-year
    fraction) through the end of the term. The gross return nets
    premiums against payouts and carry, per unit of total insured face;
    each rate's carry is summed exactly with ``math.fsum``.
    """
    import numpy as np

    rates = _rate_array(bank_rates)
    if flows.face_total <= 0:
        raise UnderwriterError("total insured face is zero; gross return undefined")

    carry = np.zeros((len(rates), terms.term_years - terms.payoff_year))
    outstanding = np.full(rates.shape, flows.receipts[terms.payoff_year])
    for col in range(carry.shape[1]):
        carry[:, col] = outstanding * rates
        outstanding = outstanding + carry[:, col]
    net = fsum(flows.premiums) - fsum(flows.receipts)
    return [(net - fsum(row)) / flows.face_total for row in carry.tolist()]
