"""Coverage sizing, payouts, and the underwriter's gross return."""

import math
import random
import re

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venturebank.bank_engine import ScenarioConfig, UnderwriterError, rate_curves, scenario_flows
from venturebank.din import (
    MAX_TERM_YEARS,
    CoverageMethod,
    DinTerms,
    PremiumBase,
    coverage_breakeven_method,
    coverage_sigma_method,
)
from venturebank.portfolio import ReturnPortfolio


def flows_of(p: ReturnPortfolio, terms: DinTerms, principal_per_fund: float):
    """``scenario_flows`` of a book of about ``principal_per_fund`` a fund."""
    return scenario_flows(ScenarioConfig(p, terms, 0.0, moc=principal_per_fund * len(p.funds)))


def payout(principal: float, multiple: float, terms: DinTerms) -> float:
    """The payout on one fund of ``principal``: the receipts of a one-fund book at the payoff year."""
    cfg = ScenarioConfig(ReturnPortfolio((multiple,)), terms, 0.0, moc=principal)
    return scenario_flows(cfg).receipts[terms.payoff_year]


def gross_return(p: ReturnPortfolio, terms: DinTerms, bank_rate: float,
                 principal_per_fund: float) -> float:
    """``rate_curves``' gross return at one rate, for a book of ``principal_per_fund`` a fund."""
    cfg = ScenarioConfig(p, terms, bank_rate, moc=principal_per_fund * len(p.funds))
    return rate_curves(cfg, [bank_rate])[1][0]


class TestTerms:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DinTerms(coverage_fraction=0.01, coverage_floor=0.02)
        with pytest.raises(ValueError):
            DinTerms(payoff_year=0)
        with pytest.raises(ValueError):
            DinTerms(payoff_year=11, term_years=10)
        with pytest.raises(ValueError):
            DinTerms(premium_rate=-0.01)

    @pytest.mark.parametrize("kwargs, message", [
        ({"coverage_fraction": 0.01, "coverage_floor": 0.02},
         "coverage_fraction must be >= coverage_floor, got 0.01 < 0.02"),
        ({"payoff_year": 0}, "payoff_year must satisfy 0 < payoff_year <= term_years, got 0 and 10"),
        ({"payoff_year": 11}, "payoff_year must satisfy 0 < payoff_year <= term_years, got 11 and 10"),
        ({"premium_rate": -0.01}, "premium_rate must be >= 0, got -0.01"),
        ({"term_years": 1001}, "term_years must be <= 1000, got 1001"),
    ])
    def test_out_of_domain_value_is_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DinTerms(**kwargs)

    def test_term_up_to_the_cap_is_accepted(self):
        assert DinTerms(term_years=MAX_TERM_YEARS).term_years == MAX_TERM_YEARS == 1000

    @pytest.mark.parametrize("field", ["coverage_fraction", "coverage_floor", "premium_rate",
                                       "payoff_year", "term_years"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DinTerms(**{field: value})

    @pytest.mark.parametrize("field, value", [("payoff_year", 2.5), ("payoff_year", 5.0),
                                              ("term_years", 10.0)])
    def test_non_integer_years_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            DinTerms(**{field: value})

    @pytest.mark.parametrize("field", ["coverage_fraction", "coverage_floor", "premium_rate",
                                       "payoff_year", "term_years"])
    def test_non_numbers_rejected_naming_the_field(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a real number, got '10'"):
            DinTerms(**{field: "10"})

    def test_negative_coverage_floor_rejected(self):
        with pytest.raises(ValueError, match="coverage_floor must be >= 0, got -0.1"):
            DinTerms(coverage_fraction=-0.05, coverage_floor=-0.1)

    @pytest.mark.parametrize("base", list(PremiumBase))
    def test_premium_base_given_as_its_value_is_priced_as_the_member(self, base):
        terms = DinTerms(premium_base=base.value, payoff_year=1, term_years=2)
        assert terms.premium_base is base
        p = ReturnPortfolio((0.5, 2.0))
        assert flows_of(p, terms, 1.0) == flows_of(
            p, DinTerms(premium_base=base, payoff_year=1, term_years=2), 1.0)

    @pytest.mark.parametrize("value", ["bogus", "FACE_ANNUAL", None, 1])
    def test_unknown_premium_base_rejected(self, value):
        with pytest.raises(ValueError, match=f"premium_base must be one of face_annual, "
                                             f"principal_annual, principal_upfront, got {value!r}"):
            DinTerms(premium_base=value)


class TestCoverageMethods:
    def test_hand_computed_three_fund_case(self):
        # sigma = 1.4659, threshold 2.4659: only 3.6 clamps; mean drops to 0.7.
        p = ReturnPortfolio((0.2, 0.9, 3.6))
        sg = coverage_sigma_method(p, 2.88)
        be = coverage_breakeven_method(p, 2.88)
        for got in (sg, be):
            assert got.clamp_loss == pytest.approx(30.0, abs=1e-9)
            assert got.recommended_coverage == pytest.approx(32.88, abs=1e-9)
        assert sg.method is CoverageMethod.SIGMA_CLAMP
        assert be.method is CoverageMethod.BREAKEVEN_CLAMP

    def test_no_losses_recommends_the_floor(self):
        p = ReturnPortfolio((1.0, 1.0, 1.0))
        assert coverage_sigma_method(p, 2.88).recommended_coverage == 2.88
        assert coverage_breakeven_method(p, 2.88).recommended_coverage == 2.88

    def test_reference_portfolio_recommendations(self, kauffman99):
        sg = coverage_sigma_method(kauffman99, 2.88)
        be = coverage_breakeven_method(kauffman99, 2.88)
        assert sg.clamp_loss == pytest.approx(2.72, abs=0.05)
        assert sg.recommended_coverage == pytest.approx(5.60, abs=0.05)
        assert be.clamp_loss == pytest.approx(17.45, abs=0.05)
        assert be.recommended_coverage == pytest.approx(20.33, abs=0.05)

    @given(funds=st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=30),
           floor=st.floats(0, 10))
    @settings(max_examples=60)
    def test_breakeven_method_is_the_conservative_one(self, funds, floor):
        p = ReturnPortfolio(tuple(funds))
        assert (coverage_breakeven_method(p, floor).recommended_coverage
                >= coverage_sigma_method(p, floor).recommended_coverage - 1e-12)
        assert coverage_sigma_method(p, floor).recommended_coverage >= floor - 1e-12

    @pytest.mark.parametrize("method", [coverage_sigma_method, coverage_breakeven_method])
    @pytest.mark.parametrize("floor", [float("nan"), float("inf")])
    def test_non_finite_floor_rejected(self, method, floor):
        with pytest.raises(ValueError, match="floor must be finite"):
            method(ReturnPortfolio((0.5, 2.0)), floor)

    @pytest.mark.parametrize("method", [coverage_sigma_method, coverage_breakeven_method])
    def test_negative_floor_rejected(self, method):
        with pytest.raises(ValueError, match=r"^floor must be >= 0, got -5\.0$"):
            method(ReturnPortfolio((0.5, 2.0)), -5.0)
        assert method(ReturnPortfolio((0.5, 2.0)), 0.0).recommended_coverage >= 0.0


class TestPayout:
    terms = DinTerms()

    def test_no_default_no_payout(self):
        assert payout(100.0, 1.2, self.terms) == 0.0

    def test_deep_loss_capped_at_face(self):
        assert payout(100.0, 0.5, self.terms) == pytest.approx(3.88, abs=1e-12)

    def test_shallow_loss_pays_the_shortfall(self):
        assert payout(100.0, 0.99, self.terms) == pytest.approx(1.00, abs=1e-9)

    def test_requires_positive_principal(self):
        with pytest.raises(ValueError, match="moc must be positive, got 0.0"):
            payout(0.0, 0.5, self.terms)

    @pytest.mark.parametrize("principal", [float("nan"), float("inf")])
    def test_non_finite_principal_rejected(self, principal):
        with pytest.raises(ValueError, match="moc must be finite"):
            payout(principal, 0.5, self.terms)

    def test_nan_multiple_rejected(self):
        with pytest.raises(ValueError, match=r"^fund 0: multiple must be finite, got nan$"):
            payout(100.0, float("nan"), self.terms)

    @given(multiple=st.floats(0, 3, allow_nan=False),
           principal=st.floats(1, 1000, allow_nan=False))
    @settings(max_examples=100)
    def test_bounded_by_face(self, multiple, principal):
        pay = payout(principal, multiple, self.terms)
        assert 0.0 <= pay <= self.terms.coverage_fraction * principal + 1e-12

    @given(principal=st.floats(1, 1000, allow_nan=False),
           a=st.floats(0, 3, allow_nan=False), b=st.floats(0, 3, allow_nan=False))
    @settings(max_examples=100)
    def test_non_increasing_in_multiple(self, principal, a, b):
        lo, hi = min(a, b), max(a, b)
        assert payout(principal, lo, self.terms) >= payout(principal, hi, self.terms) - 1e-12


class TestSchedules:
    def test_failed_funds_stop_premiums_at_payoff_year(self):
        p = ReturnPortfolio((0.5, 1.5))
        terms = DinTerms()
        sched = flows_of(p, terms, 100.0).premiums
        annual = terms.premium_rate * terms.coverage_fraction * 100.0
        assert sched[0] == 0.0
        assert sched[1] == pytest.approx(2 * annual)
        assert sched[5] == pytest.approx(2 * annual)
        assert sched[6] == pytest.approx(annual)
        assert sched[10] == pytest.approx(annual)

    def test_upfront_base_pays_once(self):
        p = ReturnPortfolio((0.5, 1.5))
        terms = DinTerms(premium_base=PremiumBase.PRINCIPAL_UPFRONT)
        sched = flows_of(p, terms, 100.0).premiums
        assert sched[0] == pytest.approx(2 * 0.05 * 100.0)
        assert all(v == 0.0 for v in sched[1:])

    def test_payouts_land_at_payoff_year(self):
        p = ReturnPortfolio((0.5, 1.5))
        sched = flows_of(p, DinTerms(), 100.0).receipts
        assert sched[5] == pytest.approx(3.88)
        assert sum(sched) == sched[5]


@st.composite
def schedule_cases(draw):
    """A scenario on a portfolio of 1-1,000 funds (mixed, all failing,
    none failing, with funds at exactly 1.0), terms of every premium
    base with a note of 1-15 years, and a leverage. Amounts include 0,
    -0.0 and the tiny products of a per-fund principal below 1e-300."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 1000)))
    kind = draw(st.sampled_from(["mixed", "all failing", "none failing"]))
    if kind == "mixed":
        funds = [rng.choice([0.0, 1.0, rng.uniform(0.0, 4.0)]) for _ in range(n)]
    elif kind == "all failing":
        funds = [rng.random() for _ in range(n)]
    else:
        funds = [rng.choice([1.0, rng.uniform(1.0, 4.0)]) for _ in range(n)]
    term = draw(st.integers(1, 15))
    coverage = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.0)))
    terms = DinTerms(
        coverage_fraction=coverage,
        coverage_floor=min(coverage, draw(st.sampled_from([0.0, -0.0, 0.0288]))),
        premium_rate=draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 0.08))),
        premium_base=draw(st.sampled_from(list(PremiumBase))),
        payoff_year=draw(st.integers(1, term)),
        term_years=term,
    )
    moc = draw(st.one_of(st.sampled_from([1e-300, 1.0, 100.0]), st.floats(1e-3, 1e3)))
    return ScenarioConfig(ReturnPortfolio(tuple(funds)), terms, 0.0, moc)


def _outcome(build, cfg, *parts):
    """``repr`` of the named parts of ``build(cfg)``, or the message of its ``ValueError``."""
    try:
        flows = build(cfg)
    except ValueError as exc:
        return str(exc)
    return [repr(flows[FLOW_PARTS.index(part)]) for part in parts]


FLOW_PARTS = ("premiums", "receipts", "exits", "face_total")


class TestSchedulesMatchThePerFundLoops:
    """The premiums, payouts, exits and insured face that ``scenario_flows``
    builds from one split of the funds equal the per-fund loops of
    ``oracles`` by ``repr``."""

    @settings(max_examples=300, deadline=None)
    @given(cfg=schedule_cases())
    def test_premium_schedule(self, cfg):
        assert _outcome(scenario_flows, cfg, "premiums") == _outcome(oracles.scenario_flows, cfg, "premiums")

    @settings(max_examples=300, deadline=None)
    @given(cfg=schedule_cases())
    def test_payout_schedule(self, cfg):
        assert _outcome(scenario_flows, cfg, "receipts") == _outcome(oracles.scenario_flows, cfg, "receipts")

    @settings(max_examples=300, deadline=None)
    @given(cfg=schedule_cases())
    def test_exits_and_insured_face(self, cfg):
        parts = ("exits", "face_total")
        assert _outcome(scenario_flows, cfg, *parts) == _outcome(oracles.scenario_flows, cfg, *parts)

    @settings(max_examples=100, deadline=None)
    @given(cfg=schedule_cases(), book=st.sampled_from([(5e-324, 1.0, "0.0"), (1e308, 10.0, "inf")]))
    def test_bad_principal_raises_only_when_a_fund_fails(self, cfg, book):
        # Two or more funds, so 5e-324 / n underflows to 0.0; 1e308 x 10 overflows to inf.
        moc, capital, shown = book
        funds = cfg.portfolio.funds + (2.0,)
        cfg = ScenarioConfig(ReturnPortfolio(funds), cfg.din_terms, 0.0, moc, capital)
        got = _outcome(scenario_flows, cfg, *FLOW_PARTS)
        assert got == _outcome(oracles.scenario_flows, cfg, *FLOW_PARTS)
        if any(m < 1.0 for m in funds):
            assert got == f"principal must be finite and positive, got {shown}"
        else:
            assert isinstance(got, list)

    def test_din_payout_matches_the_oracle(self):
        rng = random.Random(7)
        for _ in range(2000):
            terms = DinTerms(coverage_fraction=rng.choice([-0.0, 0.0, rng.random()]),
                             coverage_floor=-0.0)
            principal = rng.choice([5e-324, 1e-300, rng.uniform(1e-3, 1e3)])  # 5e-324: payouts tie at ±0.0
            m = rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)])
            # One fund's receipts are an fsum of its payout, which turns a -0.0 payout into 0.0.
            want = math.fsum([oracles.din_payout(principal, m, terms)])
            assert repr(payout(principal, m, terms)) == repr(want)


class TestUnderwriterLedger:
    def test_all_survivors_is_ten_years_of_premium(self):
        p = ReturnPortfolio((1.2, 1.5, 2.0))
        assert gross_return(p, DinTerms(), 0.07, 100.0) == 0.50

    def test_total_loss_single_fund_at_zero_rate(self):
        result = gross_return(ReturnPortfolio((0.0,)), DinTerms(), 0.0, 100.0)
        assert result == pytest.approx(-0.75, abs=1e-9)

    def test_carry_compounds_from_payoff_to_term(self):
        # The per-year carry is only in the oracle, which the kernel matches bitwise.
        terms = DinTerms()
        result = oracles.underwriter_ledger(ReturnPortfolio((0.0,)), terms, 0.10, 100.0)
        face = terms.coverage_fraction * 100.0
        expected_carry = face * (1.10 ** 5 - 1)
        assert result.total_carry == pytest.approx(expected_carry, rel=1e-12)
        assert result.yearly[6].carry_cost == pytest.approx(face * 0.10, rel=1e-12)

    def test_gross_return_non_increasing_in_rate(self, anchor131):
        terms = DinTerms()
        returns = [
            gross_return(anchor131, terms, r / 100.0, 1.0)
            for r in (0.0, 1.0, 2.0, 4.0, 7.75)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(returns, returns[1:]))

    def test_reference_portfolio_profitable_across_historic_range(self, kauffman99):
        worst = min(
            gross_return(kauffman99, DinTerms(), (g + 0.25) / 100.0, 1.0)
            for g in [0.53 + 0.25 * k for k in range(28)] + [7.50]
        )
        assert worst > 0.0

    def test_zero_face_rejected(self):
        terms = DinTerms(coverage_fraction=0.0, coverage_floor=0.0)
        with pytest.raises(UnderwriterError):
            gross_return(ReturnPortfolio((1.0,)), terms, 0.02, 100.0)
