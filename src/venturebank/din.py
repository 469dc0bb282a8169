"""Default-insurance contract terms and coverage sizing.

A note insures a fixed fraction of one investment's principal. It pays
on default (fund finishing below break-even) at the payoff year and
collects premiums until then; the underwriter finances payoff amounts
at the bank rate through the end of the term. The premium and payout
flows these terms produce are built in :mod:`bank_engine`.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

from .checks import finite_real
from .portfolio import ReturnPortfolio, clamp_loss, portfolio_stats


#: Longest note term in years. At a zero rate nothing else ends a long term,
#: and the ledger's time and memory grow linearly with it.
MAX_TERM_YEARS = 1_000


class PremiumBase(str, enum.Enum):
    """What the annual premium rate applies to."""

    FACE_ANNUAL = "face_annual"            # rate x insured face, every year
    PRINCIPAL_ANNUAL = "principal_annual"  # rate x principal, every year
    PRINCIPAL_UPFRONT = "principal_upfront"  # rate x principal, once at year 0


class CoverageMethod(str, enum.Enum):
    SIGMA_CLAMP = "sigma_clamp"
    BREAKEVEN_CLAMP = "breakeven_clamp"


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
            finite_real(name, getattr(self, name), integer=name in ("payoff_year", "term_years"))
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
        if self.term_years > MAX_TERM_YEARS:
            raise ValueError(f"term_years must be <= {MAX_TERM_YEARS}, got {self.term_years!r}")
        if self.premium_rate < 0:
            raise ValueError(f"premium_rate must be >= 0, got {self.premium_rate!r}")


#: ``clamp_loss``: percentage points of portfolio lost after clamping; ``recommended_coverage``: floor plus it.
CoverageAssessment = namedtuple("CoverageAssessment", "method clamp_loss recommended_coverage")


def _assess(p: ReturnPortfolio, floor: float, threshold: float, method: CoverageMethod) -> CoverageAssessment:
    if finite_real("floor", floor) < 0:
        raise ValueError(f"floor must be >= 0, got {floor!r}")
    loss = max(0.0, clamp_loss(p, threshold))
    return CoverageAssessment(method, loss, floor + loss)


def coverage_sigma_method(p: ReturnPortfolio, floor: float) -> CoverageAssessment:
    """Coverage sized by clamping funds more than one sigma above break-even."""
    sigma = portfolio_stats(p).stddev
    return _assess(p, floor, 1.0 + sigma, CoverageMethod.SIGMA_CLAMP)


def coverage_breakeven_method(p: ReturnPortfolio, floor: float) -> CoverageAssessment:
    """Coverage sized by clamping every fund above break-even."""
    return _assess(p, floor, 1.0, CoverageMethod.BREAKEVEN_CLAMP)
