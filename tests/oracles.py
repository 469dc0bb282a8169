"""Bitwise reference schedules and ledgers for the shipping kernels.

``premium_schedule``, ``payout_schedule`` and ``exit_schedule`` are the
earlier per-fund loops, each its own pass over the funds: every fund
adds its premium to each of its premium years, every failing fund's
payout is checked and computed on its own, and the exits are split at
1.0 again; ``scenario_flows`` gathers the three.
``simulate_bank`` is the earlier bank ledger with a cash account beside
the debt: resolutions pay the debt down first, any excess is held as
cash earning ``surplus_rate``, and premiums are paid from cash before
more is borrowed. ``underwriter_ledger`` is the per-year underwriter
ledger at one bank rate, and ``underwriter_returns`` the earlier rate
kernel, which sums each rate's carry with its own ``math.fsum``.
``din_payout`` is the earlier scalar payout on one fund. Tests compare
``bank_engine.simulate_bank``, ``bank_engine.multiple_curve`` and
``bank_engine.underwriter_returns`` with them by ``repr``, and ``bank_engine.scenario_flows`` with the loops
and the payout here. ``chart_svg`` is the earlier chart writer, which
computes and formats each polyline point on its own; tests compare
``report.emit_report``'s bytes with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import fsum

from venturebank.bank_engine import Flows, ScenarioConfig, UnderwriterError
from venturebank.din import DinTerms, PremiumBase
from venturebank.portfolio import ReturnPortfolio
from venturebank.report import (
    _CHARTS,
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PALETTE,
    WIDTH,
    ReportKind,
    _escape,
    _series_for,
    _ticks,
)
from venturebank.sweep import SweepTable


def din_payout(principal: float, multiple: float, terms: DinTerms) -> float:
    """Payout on one fund: the shortfall below break-even, capped at the face."""
    if not (math.isfinite(principal) and principal > 0):
        raise ValueError(f"principal must be finite and positive, got {principal!r}")
    if not math.isfinite(multiple):
        raise ValueError(f"multiple must be finite, got {multiple!r}")
    if multiple >= 1.0:
        return 0.0
    return min((1.0 - multiple) * principal, terms.coverage_fraction * principal)


def premium_schedule(p: ReturnPortfolio, terms: DinTerms, principal_per_fund: float) -> list[float]:
    """Premium cash per model year 0..term_years, one fund at a time."""
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
    """Payout cash per model year, one failing fund at a time."""
    sched = [0.0] * (terms.term_years + 1)
    sched[terms.payoff_year] = fsum(
        din_payout(principal_per_fund, m, terms) for m in p.funds if m < 1.0
    )
    return sched


def exit_schedule(p: ReturnPortfolio, terms: DinTerms, principal_per_fund: float) -> list[float]:
    """Exit proceeds per model year: failing funds at the payoff year, survivors at the horizon."""
    sched = [0.0] * (terms.term_years + 1)
    sched[terms.payoff_year] += fsum(m * principal_per_fund for m in p.funds if m < 1.0)
    sched[terms.term_years] += fsum(m * principal_per_fund for m in p.funds if m >= 1.0)
    return sched


def scenario_flows(cfg: ScenarioConfig) -> tuple[list[float], list[float], list[float], float]:
    """Premiums, payouts, exits and insured face of ``cfg``, each from its own pass over the funds."""
    p, terms = cfg.portfolio, cfg.din_terms
    principal = cfg.moc * cfg.original_capital / len(p.funds)
    return (premium_schedule(p, terms, principal), payout_schedule(p, terms, principal),
            exit_schedule(p, terms, principal), terms.coverage_fraction * principal * len(p.funds))


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

    for year in range(1, cfg.din_terms.term_years + 1):
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
        if year == cfg.din_terms.term_years:
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


def underwriter_returns(terms: DinTerms, flows: Flows, bank_rates: list[float]) -> list[float]:
    """Underwriter gross return at each of ``bank_rates`` (each finite and >= 0), one ``fsum`` per rate."""
    import numpy as np

    rates = np.asarray(bank_rates, dtype=float)
    carry = np.zeros((len(rates), terms.term_years - terms.payoff_year))
    outstanding = np.full(rates.shape, flows.receipts[terms.payoff_year])
    for col in range(carry.shape[1]):
        carry[:, col] = outstanding * rates
        outstanding = outstanding + carry[:, col]
    net = fsum(flows.premiums) - fsum(flows.receipts)
    return [(net - fsum(row)) / flows.face_total for row in carry.tolist()]


def chart_svg(table: SweepTable, kind: ReportKind) -> str:
    """The SVG ``emit_report(table, kind, ...)`` writes, one point at a time."""
    title, y_label, ref_y, ref_label = _CHARTS[kind]
    x_label = "bank funding rate (%)"
    xs, series = table.rates_pct, _series_for(table, kind)
    x_lo, x_hi = xs[0], xs[-1]
    y_lo = min(chain(*series.values(), (ref_y,)))
    y_hi = max(chain(*series.values(), (ref_y,)))
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo or 1.0) * plot_w

    y_span = y_hi - y_lo or 1.0

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / y_span * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="24" font-size="17" font-weight="bold">{_escape(title)}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>',
    ]

    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" x2="{x:.1f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 20}" '
                     f'text-anchor="middle">{t:.2f}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" '
                     f'y2="{y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L - 9}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{t:.2f}</text>')

    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle">{_escape(x_label)}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{_escape(y_label)}</text>')

    ry = py(ref_y)
    parts.append(f'<line class="refline" x1="{MARGIN_L}" y1="{ry:.1f}" '
                 f'x2="{MARGIN_L + plot_w}" y2="{ry:.1f}" stroke="#333" '
                 f'stroke-dasharray="7 5" stroke-width="1.5"/>')
    parts.append(f'<text x="{MARGIN_L + plot_w - 4}" y="{ry - 6:.1f}" '
                 f'text-anchor="end" fill="#333">{_escape(ref_label)}</text>')

    legend_y = MARGIN_T + 10
    for i, (name, ys) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{MARGIN_T + (y_hi - y) / y_span * plot_h:.2f}"
                          for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{coords}"/>')
        lx = MARGIN_L + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 28}" y="{legend_y + 4}">{_escape(name)}</text>')
        legend_y += 20

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
