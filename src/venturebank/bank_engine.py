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
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import fsum
from operator import mul, sub

from .checks import checked_fsum, finite_real, write_text
from .din import DinTerms, PremiumBase
from .portfolio import ReturnPortfolio


#: Points of the coarse break-even scan, and the rate width (per-year
#: fraction) at which its bisection stops. It stops sooner at two adjacent
#: floats, which lie more than that width apart above 2**33.
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


#: The rate-independent flows of one scenario, per model year 0..horizon, built once per scenario by
#: :func:`scenario_flows`: ``premiums`` (bank to underwriter, borrowed), ``receipts`` (underwriter to bank:
#: payouts, all at the payoff year), ``exits`` (fund exits: failures at the payoff year, survivors at the
#: horizon) and ``face_total`` (insured face of the whole portfolio). The bank ledger reads ``start`` (invested
#: moc x capital plus the year-0 premiums) and ``steps`` (years 1..horizon: (premiums, receipts[y] + exits[y])).
Flows = namedtuple("Flows", "premiums receipts exits face_total start steps")


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
    """Premiums, payouts, exits, insured face and ledger steps of ``cfg``, from one sorted split of its funds."""
    funds, terms = cfg.portfolio.funds, cfg.din_terms
    invested = cfg.moc * cfg.original_capital
    principal = invested / len(funds)
    ordered = sorted(funds)  # every sum below is an exact fsum, so the order changes no bit
    k = bisect_left(ordered, 1.0)  # the failing funds, below 1.0, are ordered[:k]
    failing, survivors = ordered[:k], ordered[k:]
    premiums = _premium_schedule(len(funds), len(funds) - k, terms, principal)
    receipts = [0.0] * (terms.term_years + 1)
    if k and not (math.isfinite(principal) and principal > 0):  # only when a payout is due
        raise ValueError(f"principal must be finite and positive, got {principal!r}")
    cap = terms.coverage_fraction * principal  # a payout is the shortfall (1.0 - m) * principal, capped here
    # The shortfall falls as m rises, so the j failing funds paid the cap come first.
    j = bisect_left(failing, -cap, key=lambda m: -((1.0 - m) * principal))
    receipts[terms.payoff_year] = checked_fsum(
        "DIN payouts", chain(repeat(cap, j), map(mul, map(sub, repeat(1.0), failing[j:]), repeat(principal))))
    exits = [0.0] * (terms.term_years + 1)
    exits[terms.payoff_year] += checked_fsum("fund proceeds", map(mul, failing, repeat(principal)))
    exits[terms.term_years] += checked_fsum("fund proceeds", map(mul, survivors, repeat(principal)))
    steps = [(p, r + e) for p, r, e in zip(premiums, receipts, exits)][1:]
    return Flows(premiums, receipts, exits, terms.coverage_fraction * principal * len(funds),
                 invested + premiums[0], steps)


def _roll(debt, steps, rate):
    """The bank's debt after ``steps`` from ``debt``: the one ledger kernel, on a float or a numpy array ``rate``.

    Each step compounds the debt at ``rate``, borrows the year's premiums and repays its payouts and
    exits. A failing fund returns at most its principal, so the debt turns negative before the horizon
    only by rounding dust; at the horizon a negative debt is the survivors' surplus.
    """
    for premium, repayment in steps:
        debt = debt + debt * rate + premium - repayment
    return debt


#: One ledger row of :func:`simulate_bank` (see there), and the run: its multiple, survival and rows.
BankYear = namedtuple("BankYear", "year interest_accrued premiums_paid din_receipts exit_proceeds "
                                  "debt_balance_end equity_estimate")
BankResult = namedtuple("BankResult", "final_multiple survived ledger")


def simulate_bank(cfg: ScenarioConfig) -> BankResult:
    """Run the yearly ledger at ``cfg.bank_rate`` and report the final multiple.

    The final multiple is ``(capital - final debt) / capital``; survival
    means a multiple at or above 1.0. Each row records the year's flows,
    the debt owed at its end (0 once repaid), the interest charged on
    the debt owed at its start, and the equity, capital minus debt.
    """
    flows = scenario_flows(cfg)
    rate, capital = cfg.bank_rate, cfg.original_capital
    debts = accumulate(flows.steps, lambda debt, step: _roll(debt, (step,), rate), initial=flows.start)
    rows, owed = [], 0.0
    for year, debt in enumerate(debts):
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
    debt = _roll(flows.start, flows.steps, rate)
    return (cfg.original_capital - debt) / cfg.original_capital


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


def rate_curves(cfg: ScenarioConfig, rates: Sequence[float]) -> tuple[list[float], list[float]]:
    """Final multiple and underwriter gross return of ``cfg`` at each of a sequence of bank rates.

    Each rate must be finite and >= 0 (the first bad one is named);
    ``cfg.bank_rate`` is not used. The flows are built once and both
    sides run on one numpy array of rates. Multiple ``i`` equals
    ``simulate_bank(replace(cfg, bank_rate=rates[i])).final_multiple``
    bitwise. The underwriter's payouts land at the payoff year and accrue
    compound carry at the bank rate through the end of the term; the gross
    return nets premiums against payouts and carry per unit of insured
    face, break-even at 0, each rate's carry summed by :func:`_row_sums`,
    bitwise as ``math.fsum`` would. A multiple that is not finite raises
    ``ValueError``; then a zero insured face, or a return that is not
    finite (the first such rate named), raises :class:`UnderwriterError`.
    """
    import numpy as np

    rates = np.asarray(rates, dtype=float)
    ok = (rates >= 0) & (rates < math.inf)
    if not ok.all():
        bad = finite_real("bank_rate", rates[ok.argmin()].item())
        raise ValueError(f"bank_rate must be >= 0, got {bad!r}")
    flows, terms = scenario_flows(cfg), cfg.din_terms
    with np.errstate(over="ignore", invalid="ignore"):  # a value that is not finite is reported below
        multiples = _final_multiple(cfg, flows, rates)
        if not np.isfinite(multiples).all():
            raise _overflow(cfg)
        if flows.face_total <= 0:
            raise UnderwriterError("total insured face is zero; gross return undefined")
        carry = np.zeros((len(rates), terms.term_years - terms.payoff_year), order="F")
        outstanding = np.full(rates.shape, flows.receipts[terms.payoff_year])
        for col in range(carry.shape[1]):
            carry[:, col] = outstanding * rates
            outstanding = outstanding + carry[:, col]
        premiums = checked_fsum("premiums", flows.premiums)  # reached past the float range only with no rates
        returns = (premiums - fsum(flows.receipts) - _row_sums(carry)) / flows.face_total
    finite = np.isfinite(returns)
    if not finite.all():
        raise UnderwriterError(f"gross return not finite at bank rate {rates[finite.argmin()].item()!r}")
    return multiples.tolist(), returns.tolist()


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
    ledger on one float rate, bitwise as :func:`rate_curves` would.
    A margin that is nan there (``inf - inf`` in the ledger) raises ``ValueError``.
    """
    if not 0 <= finite_real("lo", lo) < finite_real("hi", hi):
        raise ValueError(f"bracket [{lo}, {hi}] must satisfy 0 <= lo < hi")
    flows = scenario_flows(cfg)

    def margin(rate: float) -> float:
        m = _final_multiple(cfg, flows, rate) - 1.0
        if math.isnan(m):  # inf - inf in the ledger; an infinite margin keeps its sign
            raise _overflow(cfg)
        return m

    grid = [lo + (hi - lo) * i / (SCAN_POINTS - 1) for i in range(SCAN_POINTS)]
    margins = [margin(r) for r in grid]
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
        if mid in (r_lo, r_hi):  # no float lies between the ends
            break
        f_mid = margin(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            r_lo, f_lo = mid, f_mid
        else:
            r_hi = mid
    return (r_lo + r_hi) / 2


def write_bank_csv(path, result: BankResult) -> None:
    """One row per year: interest, premiums, receipts, exits, balances."""
    write_text(path, ["year,interest,premiums,din_receipts,exit_proceeds,debt,equity\n", *(
        f"{r.year},{r.interest_accrued!r},{r.premiums_paid!r},{r.din_receipts!r},{r.exit_proceeds!r},"
        f"{r.debt_balance_end!r},{r.equity_estimate!r}\n" for r in result.ledger)])
