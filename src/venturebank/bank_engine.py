"""A scenario's flows, the venture-bank debt ledger and the underwriter's return.

The bank invests a leveraged multiple of its original capital across the
portfolio, funds the whole book with interbank debt for the life of the
investments, and finances premiums by borrowing. Failing funds resolve
at the payoff year (residual value plus the insurance payout retire
debt); survivors pay out at the end of the note term. The result is the
equity multiple on original capital, with break-even at 1.0. The
underwriter collects the premiums, pays the payouts and finances them at
the bank rate through the end of the term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import fsum
from typing import NamedTuple, Sequence

from .checks import finite_real
from .din import DinTerms, PremiumBase
from .portfolio import ReturnPortfolio


#: Points of the coarse break-even scan, and the rate width (per-year
#: fraction) at which its bisection stops.
SCAN_POINTS = 21
BREAK_EVEN_TOL = 1e-6


class BreakEvenBracketError(ValueError):
    """The bracket does not isolate a single break-even crossing."""


class UnderwriterError(ValueError):
    """The underwriter's gross return is undefined for the given inputs."""


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
            finite_real(name, getattr(self, name))
        if self.surplus_rate != 0.0:
            raise ValueError(f"surplus_rate must be 0.0, got {self.surplus_rate!r}")
        if self.moc <= 0:
            raise ValueError(f"moc must be positive, got {self.moc!r}")
        if self.bank_rate < 0:
            raise ValueError(f"bank_rate must be >= 0, got {self.bank_rate!r}")
        if self.original_capital <= 0:
            raise ValueError(f"original_capital must be positive, got {self.original_capital!r}")
        if self.horizon_years not in (None, self.din_terms.term_years):
            raise ValueError(f"horizon_years must equal the note term, got {self.horizon_years!r}")


class Flows(NamedTuple):
    """The rate-independent flows of one scenario, per model year 0..horizon.

    Built once per scenario by :func:`scenario_flows`. ``start`` and
    ``steps`` are what the bank ledger reads.
    """

    premiums: list[float]   # bank to underwriter, borrowed
    receipts: list[float]   # underwriter to bank: payouts, all at the payoff year
    exits: list[float]      # fund exits: failures at the payoff year, survivors at the horizon
    face_total: float       # insured face of the whole portfolio
    start: float            # invested moc x capital plus the year-0 premiums
    steps: list[tuple[float, float]]  # years 1..horizon: (premiums, receipts[y] + exits[y])


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


def scenario_flows(cfg: ScenarioConfig) -> Flows:
    """Premiums, payouts, exits, insured face and ledger steps of ``cfg``, from one split of its funds."""
    funds, terms = cfg.portfolio.funds, cfg.din_terms
    invested = cfg.moc * cfg.original_capital
    principal = invested / len(funds)
    failing, survivors = [], []
    for m in funds:
        (failing if m < 1.0 else survivors).append(m)
    premiums = _premium_schedule(len(funds), len(survivors), terms, principal)
    receipts = [0.0] * (terms.term_years + 1)
    if failing and not (math.isfinite(principal) and principal > 0):  # only when a payout is due
        raise ValueError(f"principal must be finite and positive, got {principal!r}")
    cap = terms.coverage_fraction * principal  # payout: shortfall capped at the face, ``min`` without a call
    receipts[terms.payoff_year] = fsum([cap if cap < x else x for x in [(1.0 - m) * principal for m in failing]])
    exits = [0.0] * (terms.term_years + 1)
    exits[terms.payoff_year] += fsum([m * principal for m in failing])
    exits[terms.term_years] += fsum([m * principal for m in survivors])
    steps = [(p, r + e) for p, r, e in zip(premiums, receipts, exits)][1:]
    return Flows(premiums, receipts, exits, terms.coverage_fraction * principal * len(funds),
                 invested + premiums[0], steps)


def _debts(flows: Flows, rate) -> list:
    """The bank's debt at the end of each year 0..horizon.

    Year 0 borrows ``flows.start`` (the invested ``moc x capital`` plus any upfront
    premium); each of ``flows.steps`` then compounds the debt at ``rate``, borrows the
    year's premiums and repays its payouts and exits. A failing fund returns at most its
    principal, so the debt turns negative before the horizon only by rounding dust; at
    the horizon a negative debt is the survivors' surplus. ``rate`` is a float or a
    numpy array of rates; both run the same operations.
    """
    debt = flows.start
    debts = [debt]
    for premium, repayment in flows.steps:
        debt = debt + debt * rate + premium - repayment
        debts.append(debt)
    return debts


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
    for year, debt in enumerate(_debts(flows, rate)):
        interest, owed = owed * rate, (debt if debt > 0 else 0.0)
        rows.append(BankYear(year, interest, flows.premiums[year], flows.receipts[year],
                             flows.exits[year], owed, capital - debt))
    multiple = (capital - debt) / capital
    if not math.isfinite(multiple):
        raise _overflow(cfg)
    return BankResult(final_multiple=multiple, survived=multiple >= 1.0, ledger=tuple(rows))


def _overflow(cfg: ScenarioConfig) -> ValueError:
    return ValueError(f"final multiple not finite at moc {cfg.moc!r} and capital {cfg.original_capital!r}")


def _final_multiple(cfg: ScenarioConfig, flows: Flows, rate):
    """Final multiple of ``cfg`` at ``rate``, a float or a numpy array of rates."""
    debt = _debts(flows, rate)[-1]
    return (cfg.original_capital - debt) / cfg.original_capital


def _rate_array(rates: Sequence[float]):
    """``rates`` as a numpy float array, each checked to be finite and >= 0; the first bad one is named."""
    import numpy as np

    rates = np.asarray(rates, dtype=float)
    ok = (rates >= 0) & (rates < math.inf)
    if not ok.all():
        bad = finite_real("bank_rate", rates[ok.argmin()].item())
        raise ValueError(f"bank_rate must be >= 0, got {bad!r}")
    return rates


def multiple_curve(cfg: ScenarioConfig, flows: Flows, rates: Sequence[float]) -> list[float]:
    """Final multiple of ``cfg`` at each of a sequence of bank rates.

    Runs the ledger of :func:`simulate_bank` over all the rates at once,
    so element ``i`` equals ``simulate_bank(replace(cfg,
    bank_rate=rates[i])).final_multiple`` bitwise; ``cfg.bank_rate``
    itself is not used. ``flows`` is ``scenario_flows(cfg)``.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        multiples = _final_multiple(cfg, flows, _rate_array(rates))
    if not np.isfinite(multiples).all():
        raise _overflow(cfg)
    return multiples.tolist()


def _two_sum(a, b):
    """``(a + b, e)`` with ``a + b + e`` exactly the sum of ``a`` and ``b`` (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _row_sums(matrix):
    """``math.fsum`` of each row of the 2-D array ``matrix`` (all values >= 0), bitwise, as a numpy array.

    A TwoSum cascade over the columns (Ogita, Rump & Oishi, "Accurate sum and dot product",
    2005) gives each row's rounded sum ``s`` and the total ``t`` of its rounding errors; a
    second TwoSum adds ``t`` up and keeps ``slack``, the sum of its own errors' sizes. Where
    ``slack`` is 0, ``t`` is exact and ``s + t`` is the exact row sum rounded once, as
    ``fsum`` rounds it, half-ulp ties included. Elsewhere the exact sum is within ``slack``
    of ``s + t``, so the rounding can differ only within ``2 * slack`` of a half-ulp tie, or
    at a power of two, where the ulp changes; ``fsum`` sums those rows.
    """
    import numpy as np

    s, t, slack = np.zeros(len(matrix)), np.zeros(len(matrix)), np.zeros(len(matrix))
    for column in matrix.T:
        s, e = _two_sum(s, column)
        t, f = _two_sum(t, e)
        slack = slack + abs(f)
    sums, d = _two_sum(s, t)  # the exact s + t is sums + d
    doubtful = (slack > 0) & ((np.spacing(sums) / 2 - abs(d) < 2 * slack) | (np.frexp(sums)[0] == 0.5))
    for i in np.flatnonzero(doubtful).tolist():
        sums[i] = fsum(matrix[i].tolist())
    return sums


def underwriter_returns(terms: DinTerms, flows: Flows, bank_rates: Sequence[float]) -> list[float]:
    """Underwriter gross return at each of a sequence of bank rates; break-even at 0.

    ``flows`` holds the premium and payout schedules (see
    :func:`scenario_flows`). Payouts land at the payoff year and then
    accrue compound carry cost at the bank rate (a per-year fraction)
    through the end of the term. The gross return nets premiums against
    payouts and carry, per unit of total insured face. Each rate's carry
    is summed exactly by :func:`_row_sums`, all rates in one numpy pass,
    bitwise as ``math.fsum`` sums it. A return that is not finite raises
    :class:`UnderwriterError` naming the first such rate.
    """
    import numpy as np

    rates = _rate_array(bank_rates)
    if flows.face_total <= 0:
        raise UnderwriterError("total insured face is zero; gross return undefined")

    carry = np.zeros((len(rates), terms.term_years - terms.payoff_year), order="F")
    outstanding = np.full(rates.shape, flows.receipts[terms.payoff_year])
    net = fsum(flows.premiums) - fsum(flows.receipts)
    with np.errstate(over="ignore", invalid="ignore"):  # a return that is not finite is reported below
        for col in range(carry.shape[1]):
            carry[:, col] = outstanding * rates
            outstanding = outstanding + carry[:, col]
        returns = (net - _row_sums(carry)) / flows.face_total
    finite = np.isfinite(returns)
    if not finite.all():
        raise UnderwriterError(f"gross return not finite at bank rate {rates[finite.argmin()].item()!r}")
    return returns.tolist()


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
    if not 0 <= finite_real("lo", lo) < finite_real("hi", hi):
        raise ValueError(f"bracket [{lo}, {hi}] must satisfy 0 <= lo < hi")
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
