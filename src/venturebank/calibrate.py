"""Search the undocumented model conventions against published anchors.

Two conventions are not pinned down by the source material: what the 5%
premium rate applies to, and whether the quoted 2% anchor rate is the
interbank rate (bank pays 2.25%) or the bank rate itself. This module
scores every combination against three anchors - the ten-year multiple
at 30X and 43X leverage with 5.6% coverage, and the multiple gained by
dropping coverage to 3.88% - and records the winner as the documented
default for reproduction runs.
"""

from __future__ import annotations

from collections import namedtuple

from .bank_engine import ScenarioConfig, simulate_bank
from .checks import write_text
from .din import DinTerms, PremiumBase
from .market_data import funds_rate
from .portfolio import ReturnPortfolio

ANCHOR_RATE_PCT = 2.0          # quoted funds-rate anchor, percent
TARGET_M30 = 1.50              # multiple at 30X leverage, 5.6% coverage
TARGET_M43 = 2.15              # multiple at 43X leverage, 5.6% coverage
UPLIFT_BAND = (0.2, 0.8)       # expected gain at 30X from coverage 5.6% -> 3.88%
WORKING_COVERAGE = 0.056
REDUCED_COVERAGE = DinTerms().coverage_fraction

# The anchor as a per-year bank-rate fraction, by rate reading in search order.
# libor: anchor + spread; bank: anchor as-is.
ANCHOR_BANK_RATES = {"libor": funds_rate(ANCHOR_RATE_PCT) / 100.0, "bank": ANCHOR_RATE_PCT / 100.0}


class CalibrationCase(namedtuple("CalibrationCase", "premium_base rate_reading m30 m43 uplift score")):
    """One mode (a premium base and a rate reading): its multiples at 30X and 43X (``m30``, ``m43``), the gain
    at 30X from the coverage cut (``uplift``), and its ``score`` (lower is better)."""

    __slots__ = ()

    @property
    def mode(self) -> str:
        return f"{self.premium_base.value}+{self.rate_reading}"


class CalibrationReport(namedtuple("CalibrationReport", "cases")):
    """``cases``: every :class:`CalibrationCase`, best score first."""

    __slots__ = ()

    @property
    def selected(self) -> CalibrationCase:
        return self.cases[0]


def run_calibration(portfolio: ReturnPortfolio) -> CalibrationReport:
    """Score each (premium base, rate reading) pair on the anchor portfolio.

    ``portfolio`` should be the compressed reference portfolio shifted
    to the 1.31 mean. Lower score is better: the sum of the two anchor
    residuals and the distance of the coverage uplift from its band.
    Each (premium base, rate reading, coverage, leverage) case is one
    :func:`simulate_bank` run.
    """
    def multiple(base: PremiumBase, rate: float, coverage: float, moc: float) -> float:
        terms = DinTerms(coverage_fraction=coverage, premium_base=base)
        return simulate_bank(ScenarioConfig(portfolio, terms, rate, moc)).final_multiple

    cases = []
    for base in PremiumBase:
        for reading, rate in ANCHOR_BANK_RATES.items():
            m30 = multiple(base, rate, WORKING_COVERAGE, 30)
            m43 = multiple(base, rate, WORKING_COVERAGE, 43)
            uplift = multiple(base, rate, REDUCED_COVERAGE, 30) - m30
            score = (abs(m30 - TARGET_M30) + abs(m43 - TARGET_M43)
                     + max(UPLIFT_BAND[0] - uplift, uplift - UPLIFT_BAND[1], 0.0))
            cases.append(CalibrationCase(base, reading, m30, m43, uplift, score))
    return CalibrationReport(tuple(sorted(cases, key=lambda c: c.score)))


def case_text(case: CalibrationCase) -> str:
    """``case``'s ``m30=... m43=... uplift=... score=...``, as ``calibration.txt`` and ``calibrate`` print it."""
    return f"m30={case.m30:.4f} m43={case.m43:.4f} uplift={case.uplift:+.4f} score={case.score:.4f}"


def write_calibration_report(path, report: CalibrationReport) -> None:
    """Write ``report`` to ``path``: the anchors, one ``mode=`` line per case, best first, and the selected mode."""
    write_text(path, [
        "# premium-base x rate-reading calibration\n",
        f"# anchors: m30={TARGET_M30} m43={TARGET_M43} "
        f"uplift_band=[{UPLIFT_BAND[0]}, {UPLIFT_BAND[1]}] "
        f"at {ANCHOR_RATE_PCT}% funds rate, "
        f"coverage {WORKING_COVERAGE:.3%} vs {REDUCED_COVERAGE:.2%}\n",
        *(f"mode={c.mode} {case_text(c)}\n" for c in report.cases),
        f"selected={report.selected.mode}\n",
    ])
