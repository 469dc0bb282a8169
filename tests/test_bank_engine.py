"""Bank-side ledger simulation and break-even solving."""

import dataclasses
import math
import random
import re

import numpy as np
import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from venturebank import bank_engine
from venturebank.bank_engine import (
    BreakEvenBracketError,
    ScenarioConfig,
    UnderwriterError,
    _scan_crossings,
    bank_summary,
    break_even_rate,
    multiple_curve,
    scenario_flows,
    simulate_bank,
    underwriter_returns,
    write_bank_csv,
)
from venturebank.din import DinTerms, PremiumBase
from venturebank.market_data import funds_rate
from venturebank.portfolio import (
    KauffmanConstraints,
    ReturnPortfolio,
    compress_pairs,
    shift_to_mean,
    synthesize_kauffman,
)
from venturebank.sweep import parse_rate_grid, run_sweep


def _random_scenario(rng: random.Random) -> ScenarioConfig:
    n = rng.randint(1, 12)
    funds = tuple(round(rng.uniform(0.0, 4.0), 3) for _ in range(n))
    term = rng.randint(1, 15)
    terms = DinTerms(
        coverage_fraction=round(rng.uniform(0.03, 0.20), 4),
        coverage_floor=0.0288,
        premium_rate=round(rng.uniform(0.0, 0.08), 4),
        premium_base=rng.choice(list(PremiumBase)),
        payoff_year=rng.randint(1, term),
        term_years=term,
    )
    return ScenarioConfig(
        portfolio=ReturnPortfolio(funds, f"rand-{n}"),
        din_terms=terms,
        bank_rate=round(rng.uniform(0.0, 0.08), 4),
        moc=rng.choice([5.0, 30.0, 43.0]),
        original_capital=rng.choice([1.0, 2.5]),
    )


@st.composite
def note_timing(draw) -> dict[str, int]:
    """A note term of 1-15 years and a payoff year within it."""
    term = draw(st.integers(1, 15))
    return {"payoff_year": draw(st.integers(1, term)), "term_years": term}


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """Random portfolios and terms, including funds at exactly 1.0, every
    premium base, every note term from 1 to 15 years, payoff at the end
    of the term and coverage up to 100%."""
    fund = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 4.0))
    funds = tuple(draw(st.lists(fund, min_size=1, max_size=12)))
    floor = draw(st.floats(0.0, 0.05))
    terms = DinTerms(
        coverage_fraction=floor + draw(st.one_of(st.floats(0.0, 0.15), st.floats(0.0, 1.0 - floor))),
        coverage_floor=floor,
        premium_rate=draw(st.floats(0.0, 0.08)),
        premium_base=draw(st.sampled_from(list(PremiumBase))),
        **draw(note_timing()),
    )
    return ScenarioConfig(
        portfolio=ReturnPortfolio(funds),
        din_terms=terms,
        bank_rate=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
        moc=draw(st.sampled_from([0.5, 5.0, 30.0, 43.0])),
        original_capital=draw(st.sampled_from([1.0, 2.5])),
    )


@st.composite
def dust_scenarios(draw) -> ScenarioConfig:
    """The dust class: every fund fails, each payout covers the whole
    shortfall, no premium is charged and the rate is 0. Exits plus
    payouts then equal the debt in exact arithmetic, so rounding can
    leave a little cash (a negative debt) before the horizon."""
    coverage = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    fund = st.one_of(st.just(1.0 - coverage), st.floats(1.0 - coverage, 1.0, exclude_max=True))
    terms = DinTerms(
        coverage_fraction=coverage,
        coverage_floor=0.0,
        premium_rate=0.0,
        premium_base=draw(st.sampled_from(list(PremiumBase))),
        **draw(note_timing()),
    )
    return ScenarioConfig(
        portfolio=ReturnPortfolio(tuple(draw(st.lists(fund, min_size=1, max_size=12)))),
        din_terms=terms,
        bank_rate=0.0,
        moc=draw(st.sampled_from([0.5, 5.0, 30.0, 43.0])),
        original_capital=draw(st.sampled_from([1.0, 2.5])),
    )


def in_dust_class(cfg: ScenarioConfig) -> bool:
    """Whether ``cfg`` is in the dust class, up to rounding: a bank or
    premium rate up to 1e-12 counts as 0, and a shortfall up to 1e-12
    above the coverage as covered (each gap is far wider than the
    rounding of the sums)."""
    terms = cfg.din_terms
    return (terms.premium_rate <= 1e-12 and cfg.bank_rate <= 1e-12
            and all(m < 1.0 and 1.0 - m <= terms.coverage_fraction + 1e-12
                    for m in cfg.portfolio.funds))


# Found by search: the cash ledger ends year 5 with 3.6e-15 of cash.
DUST_EXAMPLE = ScenarioConfig(
    ReturnPortfolio((0.95, 0.78)),
    DinTerms(coverage_fraction=0.4, coverage_floor=0.0, premium_rate=0.0), 0.0, 30.0)

ANY_SCENARIO = st.one_of(scenarios(), dust_scenarios())

RATE_ARRAYS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.6)), min_size=1, max_size=8)


BANK_ROW_FIELDS = ("year", "interest_accrued", "premiums_paid", "din_receipts",
                   "exit_proceeds", "debt_balance_end", "equity_estimate")


class TestRateKernels:
    """The debt-only ledger agrees bitwise with the cash-account oracles."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=ANY_SCENARIO, rates=RATE_ARRAYS)
    @example(cfg=DUST_EXAMPLE, rates=[0.0, 0.02])
    def test_bank_kernel_matches_simulate_bank(self, cfg, rates):
        got = multiple_curve(cfg, scenario_flows(cfg), rates)
        want = [oracles.simulate_bank(dataclasses.replace(cfg, bank_rate=r)).final_multiple
                for r in rates]
        assert list(map(repr, got)) == list(map(repr, want))

    @settings(max_examples=150, deadline=None)
    @given(cfg=scenarios())
    @example(cfg=DUST_EXAMPLE)
    def test_float_path_matches_the_array_kernel(self, cfg):
        # break_even_rate runs the ledger on one float rate at a time.
        flows = scenario_flows(cfg)
        got = bank_engine._final_multiple(cfg, flows, cfg.bank_rate)
        assert repr(got) == repr(multiple_curve(cfg, flows, [cfg.bank_rate])[0])

    @settings(max_examples=150, deadline=None)
    @given(cfg=ANY_SCENARIO, rates=RATE_ARRAYS)
    def test_underwriter_kernel_matches_underwriter_ledger(self, cfg, rates):
        assume(scenario_flows(cfg).face_total > 0)  # zero face: no gross return
        principal = cfg.moc * cfg.original_capital / len(cfg.portfolio.funds)
        got = underwriter_returns(cfg.din_terms, scenario_flows(cfg), rates)
        want = [oracles.underwriter_ledger(cfg.portfolio, cfg.din_terms, r, principal).gross_return
                for r in rates]
        assert list(map(repr, got)) == list(map(repr, want))

    @settings(max_examples=60, deadline=None)
    @given(cfg=ANY_SCENARIO,
           grid=st.lists(st.integers(0, 5000), min_size=1, max_size=6, unique=True)
           .map(lambda bp: [b / 100 for b in sorted(bp)]))
    def test_sweep_curves_match_both_oracles(self, cfg, grid):
        assume(scenario_flows(cfg).face_total > 0)
        (curve,) = run_sweep([cfg], grid).curves
        principal = cfg.moc * cfg.original_capital / len(cfg.portfolio.funds)
        rates = [funds_rate(g) / 100.0 for g in grid]
        want_m = [oracles.simulate_bank(dataclasses.replace(cfg, bank_rate=r)).final_multiple
                  for r in rates]
        want_u = [oracles.underwriter_ledger(cfg.portfolio, cfg.din_terms, r, principal).gross_return
                  for r in rates]
        assert list(map(repr, curve.multiples)) == list(map(repr, want_m))
        assert list(map(repr, curve.returns)) == list(map(repr, want_u))

    @settings(max_examples=200, deadline=None)
    @given(cfg=ANY_SCENARIO)
    @example(cfg=DUST_EXAMPLE)
    def test_simulate_rows_and_csv_match_the_oracle(self, cfg, tmp_path_factory):
        got, want = simulate_bank(cfg), oracles.simulate_bank(cfg)
        assert repr(got.final_multiple) == repr(want.final_multiple)
        assert got.survived == want.survived
        assert ([[repr(getattr(row, f)) for f in BANK_ROW_FIELDS] for row in got.ledger]
                == [[repr(getattr(row, f)) for f in BANK_ROW_FIELDS] for row in want.ledger])
        out = tmp_path_factory.mktemp("ledger")
        write_bank_csv(out / "got.csv", got)
        write_bank_csv(out / "want.csv", want)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(cfg=ANY_SCENARIO)
    @example(cfg=DUST_EXAMPLE)
    def test_oracle_holds_no_cash_before_the_horizon_outside_the_dust_class(self, cfg):
        cash = [row.cash_balance_end for row in oracles.simulate_bank(cfg).ledger[:-1]]
        if in_dust_class(cfg):
            assert all(c <= 1e-12 * cfg.moc * cfg.original_capital for c in cash)
        else:
            assert all(c == 0.0 for c in cash)

    def test_dust_example_leaves_cash_in_the_oracle(self):
        # Keeps the example above meaningful: the cash ledger really holds dust.
        assert any(row.cash_balance_end > 0 for row in oracles.simulate_bank(DUST_EXAMPLE).ledger[:-1])

    def test_negative_or_nan_rate_rejected(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.02, 30)
        for bad, rule in ((-0.01, ">= 0"), (math.nan, "finite"), (math.inf, "finite")):
            first_bad = f"^bank_rate must be {rule}, got {bad!r}$"
            with pytest.raises(ValueError, match=first_bad):
                multiple_curve(cfg, scenario_flows(cfg), [0.02, bad, -5.0])
            with pytest.raises(ValueError, match=first_bad):
                underwriter_returns(DinTerms(), scenario_flows(cfg), [bad, -5.0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_rate_is_named_without_a_warning(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.02, 30)
        with pytest.raises(UnderwriterError, match=r"^gross return not finite at bank rate 1e\+200$"):
            underwriter_returns(DinTerms(), scenario_flows(cfg), [0.02, 1e200, 1e300])
        with pytest.raises(ValueError, match="^final multiple not finite at moc 30 and capital 1.0$"):
            multiple_curve(cfg, scenario_flows(cfg), [0.02, 1e200])

    def test_dense_sweep_returns_match_the_oracle(self, compressed50):
        configs = [ScenarioConfig(dataclasses.replace(shift_to_mean(compressed50, t), label=f"{t:.2f}x"),
                                  DinTerms(), 0.0, moc)
                   for t in (1.10, 1.31, 1.50) for moc in (30, 43)]
        table = run_sweep(configs, parse_rate_grid("0.53:7.50:0.005"))
        rates = [pct / 100.0 for pct in table.rates_pct]
        assert len(rates) == 1395
        for cfg, curve in zip(configs, table.curves):
            want = oracles.underwriter_returns(cfg.din_terms, scenario_flows(cfg), rates)
            assert list(map(repr, curve.returns)) == list(map(repr, want))


def kernel_row(payout: float, rate: float, columns: int) -> list[float]:
    """One rate's carry, as ``underwriter_returns`` compounds it."""
    row, outstanding = [], payout
    for _ in range(columns):
        row.append(outstanding * rate)
        outstanding += row[-1]
    return row


#: Row entries: zeros, subnormals, exponents across +-1000, integers at 2**52 and 2**53 with
#: the 0.5, 1.0 and 1.5 that put a sum on a half-ulp tie, tails that the error total drops,
#: and powers of two.
ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.0**-1022, allow_subnormal=True),
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1000, 1000)),
    st.integers(2**52 - 4, 2**52 + 4).map(float),
    st.integers(2**53 - 8, 2**53 + 8).map(float),
    st.sampled_from([0.5, 1.0, 1.5, 2.0**-60, 3 * 2.0**-70]),
    st.builds(math.ldexp, st.just(1.0), st.integers(-80, 80)),
)


@st.composite
def carry_matrices(draw) -> list[list[float]]:
    columns = draw(st.integers(0, 9))
    rows = st.one_of(st.lists(ENTRIES, min_size=columns, max_size=columns),
                     st.builds(kernel_row, st.floats(0.0, 1e3), st.floats(0.0, 0.6), st.just(columns)))
    return draw(st.lists(rows, min_size=1, max_size=6))


class TestRowSums:
    """``_row_sums`` is ``math.fsum`` of each row, bitwise."""

    @settings(max_examples=400, deadline=None)
    @given(rows=carry_matrices())
    # Half-ulp ties that the error total's dropped tail breaks, at 2**53 and 2**52.
    @example(rows=[[2.0**53 + 4, 1.0, 2.0**-60]])
    @example(rows=[[2.0**52 + 1, 0.5, 2.0**-80], [2.0**53 - 3, 1.5, 3 * 2.0**-70]])
    @example(rows=[[2.0**53 + 4, 1.0], [2.0**52 + 2, 0.5]])  # exact ties, rounded to even
    @example(rows=[[0.75, 0.25, 0.0], [2.0**53 - 1, 0.25, 0.25 - 2.0**-55]])  # sums at a power of two
    @example(rows=[[5e-324, 5e-324, 2.0**-1030], [1.0, 5e-324, 0.0]])  # subnormals
    @example(rows=[[0.0] * 9])  # zeros
    @example(rows=[[]])  # no carry years
    @example(rows=[[2.0**1000, 2.0**-1000, 1.0, 2.0**-1074]])  # exponent spread
    @example(rows=[kernel_row(0.26, 0.0225, 5), kernel_row(3.1, 0.6, 5)])  # compounding carry
    def test_matches_fsum(self, rows):
        got = bank_engine._row_sums(np.array(rows, dtype=float).reshape(len(rows), len(rows[0])))
        assert list(map(repr, got.tolist())) == [repr(math.fsum(row)) for row in rows]


class TestOracles:
    def test_single_winner_zero_rate(self):
        # By hand: 0.5 gain less ten 5% premiums on a 3.88% face,
        # levered 30x: 1 + 30 * (0.5 - 0.0194) = 15.418.
        cfg = ScenarioConfig(ReturnPortfolio((1.5,)), DinTerms(), bank_rate=0.0, moc=30)
        result = simulate_bank(cfg)
        assert result.final_multiple == pytest.approx(15.418, abs=1e-9)
        assert result.survived

    def test_everything_nets_to_break_even(self):
        terms = DinTerms(coverage_fraction=0.0288, premium_rate=0.0)
        cfg = ScenarioConfig(ReturnPortfolio((1.0, 1.0, 1.0)), terms, 0.0, 30)
        result = simulate_bank(cfg)
        assert result.final_multiple == 1.0
        assert result.survived

    def test_survival_flag_tracks_break_even(self, anchor131, calibrated_terms):
        low = simulate_bank(ScenarioConfig(anchor131, calibrated_terms, 0.001, 30))
        high = simulate_bank(ScenarioConfig(anchor131, calibrated_terms, 0.075, 30))
        assert low.survived and low.final_multiple >= 1.0
        assert not high.survived and high.final_multiple < 1.0


class TestConfigValidation:
    def test_bad_values_rejected(self, anchor131):
        with pytest.raises(ValueError):
            ScenarioConfig(anchor131, DinTerms(), bank_rate=-0.01, moc=30)
        with pytest.raises(ValueError):
            ScenarioConfig(anchor131, DinTerms(), bank_rate=0.02, moc=0)
        with pytest.raises(ValueError):
            ScenarioConfig(anchor131, DinTerms(), 0.02, 30, horizon_years=7)

    @pytest.mark.parametrize("kwargs, message", [
        ({"moc": 0.0}, "moc must be positive, got 0.0"),
        ({"moc": -30}, "moc must be positive, got -30"),
        ({"bank_rate": -0.01}, "bank_rate must be >= 0, got -0.01"),
        ({"original_capital": 0.0}, "original_capital must be positive, got 0.0"),
        ({"horizon_years": 7}, "horizon_years must equal the note term, got 7"),
    ])
    def test_out_of_domain_value_is_named(self, anchor131, kwargs, message):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.02, 30)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(cfg, **kwargs)

    def test_any_note_term_is_the_horizon(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(payoff_year=3, term_years=7), 0.02, 30)
        assert len(simulate_bank(cfg).ledger) == 8
        assert simulate_bank(dataclasses.replace(cfg, horizon_years=7)) == simulate_bank(cfg)

    @pytest.mark.parametrize("term, horizon", [(10, 7), (7, 10)])
    def test_horizon_other_than_the_note_term_rejected(self, anchor131, term, horizon):
        with pytest.raises(ValueError, match="horizon_years must equal the note term"):
            ScenarioConfig(anchor131, DinTerms(term_years=term), 0.02, 30, horizon_years=horizon)

    @pytest.mark.parametrize("field", ["bank_rate", "moc", "original_capital", "surplus_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, anchor131, field, value):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.02, 30)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(cfg, **{field: value})

    @pytest.mark.parametrize("field", ["bank_rate", "moc", "original_capital", "surplus_rate"])
    def test_non_number_values_name_the_field(self, anchor131, field):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.02, 30)
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got '0.02'$"):
            dataclasses.replace(cfg, **{field: "0.02"})

    @pytest.mark.parametrize("value", [0.01, -0.01, 1.0])
    def test_surplus_rate_only_zero(self, anchor131, value):
        assert ScenarioConfig(anchor131, DinTerms(), 0.02, 30, surplus_rate=0.0).surplus_rate == 0.0
        with pytest.raises(ValueError, match="surplus_rate must be 0.0"):
            ScenarioConfig(anchor131, DinTerms(), 0.02, 30, surplus_rate=value)


class TestLedgerShape:
    def test_year_rows_and_balances(self, anchor131, calibrated_terms):
        result = simulate_bank(ScenarioConfig(anchor131, calibrated_terms, 0.0225, 30))
        assert len(result.ledger) == 11
        assert [r.year for r in result.ledger] == list(range(11))
        assert all(r.debt_balance_end >= 0 for r in result.ledger)
        assert all(r.equity_estimate == 1.0 - r.debt_balance_end for r in result.ledger[:-1])

    def test_csv_and_summary(self, tmp_path, anchor131, calibrated_terms):
        result = simulate_bank(ScenarioConfig(anchor131, calibrated_terms, 0.0225, 30))
        out = tmp_path / "bank.csv"
        write_bank_csv(out, result)
        lines = out.read_text().splitlines()
        assert lines[0] == "year,interest,premiums,din_receipts,exit_proceeds,debt,equity"
        assert len(lines) == 12
        assert "final_multiple=" in bank_summary(result)


class TestConservation:
    def test_equity_change_equals_flows(self):
        rng = random.Random(91)
        for _ in range(8):
            cfg = _random_scenario(rng)
            result = simulate_bank(cfg)
            for prev, cur in zip(result.ledger, result.ledger[1:]):
                flow = (-cur.interest_accrued - cur.premiums_paid
                        + cur.din_receipts + cur.exit_proceeds)
                assert cur.equity_estimate - prev.equity_estimate == pytest.approx(flow, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(cfg=scenarios())
    def test_final_equity_is_capital_plus_every_flow(self, cfg):
        ledger = simulate_bank(cfg).ledger
        flows = [cfg.original_capital, -cfg.moc * cfg.original_capital]
        for row in ledger:
            flows += [-row.premiums_paid, -row.interest_accrued,
                      row.exit_proceeds, row.din_receipts]
        tolerance = 1e-12 * math.fsum(map(abs, flows))
        assert abs(ledger[-1].equity_estimate - math.fsum(flows)) <= tolerance


class TestScalingProperties:
    def test_leverage_affinity(self):
        rng = random.Random(17)
        for _ in range(20):
            cfg = _random_scenario(rng)
            m30 = simulate_bank(dataclasses.replace(cfg, moc=30.0)).final_multiple
            m43 = simulate_bank(dataclasses.replace(cfg, moc=43.0)).final_multiple
            assert (m43 - 1) / 43 == pytest.approx((m30 - 1) / 30, abs=1e-9)

    def test_capital_scaling(self, anchor131, calibrated_terms):
        base = simulate_bank(ScenarioConfig(anchor131, calibrated_terms, 0.0225, 30,
                                            original_capital=1.0))
        scaled = simulate_bank(ScenarioConfig(anchor131, calibrated_terms, 0.0225, 30,
                                              original_capital=3.0))
        assert scaled.final_multiple == pytest.approx(base.final_multiple, abs=1e-9)
        for a, b in zip(base.ledger, scaled.ledger):
            assert b.debt_balance_end == pytest.approx(3 * a.debt_balance_end, rel=1e-12, abs=1e-9)
            assert b.premiums_paid == pytest.approx(3 * a.premiums_paid, rel=1e-12, abs=1e-9)


class TestMonotonicity:
    def test_non_increasing_in_rate(self, anchor131, calibrated_terms):
        rates = [0.0, 0.005, 0.0225, 0.04, 0.075]
        multiples = [
            simulate_bank(ScenarioConfig(anchor131, calibrated_terms, r, 30)).final_multiple
            for r in rates
        ]
        assert all(b <= a + 1e-12 for a, b in zip(multiples, multiples[1:]))

    def test_non_increasing_in_premium_rate(self, anchor131):
        multiples = []
        for pr in (0.0, 0.02, 0.05, 0.08):
            terms = DinTerms(coverage_fraction=0.056, premium_rate=pr)
            multiples.append(
                simulate_bank(ScenarioConfig(anchor131, terms, 0.02, 30)).final_multiple
            )
        assert all(b <= a + 1e-12 for a, b in zip(multiples, multiples[1:]))

    def test_non_decreasing_in_target_mean(self, compressed50, calibrated_terms):
        from venturebank.portfolio import shift_to_mean

        for rate in (0.005, 0.0225, 0.05):
            multiples = [
                simulate_bank(ScenarioConfig(shift_to_mean(compressed50, t),
                                             calibrated_terms, rate, 30)).final_multiple
                for t in (1.10, 1.31, 1.50)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(multiples, multiples[1:]))


class TestMirror:
    def test_bank_and_underwriter_streams_match_entry_for_entry(self):
        rng = random.Random(2024)
        for _ in range(10):
            cfg = _random_scenario(rng)
            bank = simulate_bank(cfg)
            under = scenario_flows(cfg)  # what underwriter_returns consumes
            for brow, premium, payout in zip(bank.ledger, under.premiums, under.receipts):
                assert brow.premiums_paid == premium
                assert brow.din_receipts == payout


class TestBreakEven:
    def test_reference_portfolio_brackets(self, anchor131, portfolio150, calibrated_terms):
        cfg = ScenarioConfig(anchor131, calibrated_terms, 0.02, 30)
        rate = break_even_rate(cfg, 0.005, 0.075)
        assert rate is not None and 0.015 <= rate <= 0.030

        cfg = ScenarioConfig(portfolio150, calibrated_terms, 0.02, 30)
        rate = break_even_rate(cfg, 0.005, 0.075)
        assert rate is not None and 0.025 <= rate <= 0.040

    def test_independent_of_leverage(self, anchor131, calibrated_terms):
        r30 = break_even_rate(ScenarioConfig(anchor131, calibrated_terms, 0.02, 30), 0.005, 0.075)
        r43 = break_even_rate(ScenarioConfig(anchor131, calibrated_terms, 0.02, 43), 0.005, 0.075)
        assert r30 == pytest.approx(r43, abs=5e-6)

    def test_no_crossing_returns_none(self):
        cfg = ScenarioConfig(ReturnPortfolio((1.0,) * 10), DinTerms(), 0.02, 30)
        assert break_even_rate(cfg, 0.005, 0.075) is None

    def test_bad_bracket_rejected(self, anchor131, calibrated_terms):
        cfg = ScenarioConfig(anchor131, calibrated_terms, 0.02, 30)
        for lo, hi in [(0.05, 0.01), (-0.01, 0.05)]:
            with pytest.raises(ValueError, match=re.escape(f"bracket [{lo}, {hi}] must satisfy 0 <= lo < hi")):
                break_even_rate(cfg, lo, hi)
        for lo, hi, message in [(0.01, math.inf, "hi must be finite, got inf"),
                                (math.nan, 0.05, "lo must be finite, got nan")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                break_even_rate(cfg, lo, hi)

    def test_solution_is_a_root(self, anchor131, calibrated_terms):
        # Tolerance is on the rate (1e-6); the multiple moves ~4e2 per
        # unit of rate at 30x leverage, so allow that much slack here.
        cfg = ScenarioConfig(anchor131, calibrated_terms, 0.02, 30)
        rate = break_even_rate(cfg, 0.005, 0.075)
        multiple = simulate_bank(dataclasses.replace(cfg, bank_rate=rate)).final_multiple
        assert multiple == pytest.approx(1.0, abs=1e-3)
        assert simulate_bank(dataclasses.replace(cfg, bank_rate=rate - 2e-6)).final_multiple >= multiple
        assert simulate_bank(dataclasses.replace(cfg, bank_rate=rate + 2e-6)).final_multiple <= multiple


# One solve of each class of synthesized portfolio (funds x premium base x
# rate or None): synthesis seed, funds, target mean, coverage %, MOC, base,
# the break-even rate over the interbank range 0.53-7.50% plus spread, and
# the final multiple at the bracket's low end.
PINNED_SOLVES = [
    (4259, 50, 1.23, 3.88, 30.0, "face_annual", 0.02112782775878906, 5.391930833943498),
    (687, 50, 1.02, 2.88, 30.0, "face_annual", None, 0.10089686169281009),
    (1667, 50, 1.51, 3.88, 30.0, "principal_annual", 0.007802977905273439, 1.0010720105128286),
    (4065, 50, 1.49, 3.88, 30.0, "principal_annual", None, 0.3938188224578312),
    (8867, 50, 1.36, 20.33, 30.0, "principal_upfront", 0.032624243774414065, 9.671193021491298),
    (6823, 50, 1.03, 2.88, 43.0, "principal_upfront", None, -1.894451359656955),
    (7890, 99, 1.06, 3.88, 30.0, "face_annual", 0.008306669311523436, 1.1318797511946102),
    (515, 99, 1.03, 5.6, 43.0, "face_annual", None, 0.3014818565592918),
    (1306, 99, 1.48, 20.33, 30.0, "principal_annual", 0.008527034301757812, 1.262191528982953),
    (3065, 99, 1.31, 3.88, 43.0, "principal_annual", None, -7.941517137501606),
    (8024, 99, 1.3, 20.33, 43.0, "principal_upfront", 0.027209561157226565, 10.634518086434937),
    (2986, 99, 1.09, 3.88, 43.0, "principal_upfront", None, 0.46175748086149326),
    (1109, 990, 1.21, 5.6, 30.0, "face_annual", 0.01879570251464844, 4.633896631350826),
    (4629, 990, 1.11, 20.33, 43.0, "face_annual", None, 0.9140883889795504),
    (3054, 990, 1.55, 3.88, 30.0, "principal_annual", 0.01047203186035156, 1.9846086591056746),
    (9842, 990, 1.49, 3.88, 43.0, "principal_annual", None, -0.19505233672975208),
    (6835, 990, 1.34, 3.88, 30.0, "principal_upfront", 0.026514432983398444, 7.574545566028242),
    (8093, 990, 1.01, 3.88, 30.0, "principal_upfront", None, -0.9313455640741246),
]


@pytest.mark.parametrize("seed, funds, mean, coverage, moc, base, want, multiple_at_lo", PINNED_SOLVES,
                         ids=[f"{c[1]}-{c[5]}-{'none' if c[6] is None else 'rate'}" for c in PINNED_SOLVES])
def test_break_even_rate_is_pinned(seed, funds, mean, coverage, moc, base, want, multiple_at_lo):
    """Bit drift in the flows or the ledger moves the multiple, and a wrong turn of the solver the rate."""
    p = synthesize_kauffman(KauffmanConstraints(n=990 if funds == 990 else 99), seed)
    p = shift_to_mean(compress_pairs(p) if funds == 50 else p, mean)
    lo, hi = funds_rate(0.53) / 100.0, funds_rate(7.50) / 100.0
    cfg = ScenarioConfig(p, DinTerms(coverage_fraction=coverage / 100.0, premium_base=base), lo, moc)
    assert repr(simulate_bank(cfg).final_multiple) == repr(multiple_at_lo)
    assert repr(break_even_rate(cfg, lo, hi)) == repr(want)


class TestScanCrossings:
    @pytest.mark.parametrize("margins, expected", [
        ([0.3, 0.1, -0.1, -0.4], [1]),        # one strict flip: its left index
        ([-0.1, 0.2, -0.3], [0, 1]),          # down-up-down: two crossings
        ([0.2, 0.0, 0.0, -0.2], [1]),         # a zero run is one crossing at its start
        ([0.0, -0.1], [0]),                   # a zero at the left end
        ([0.1, 0.0, 0.1], [1]),               # touching zero counts
        ([1e-200, -1e-200], [0]),             # product would underflow to 0
        ([0.5, 0.4, 0.1], []),
    ])
    def test_patterns(self, margins, expected):
        assert _scan_crossings(margins) == expected


@pytest.fixture
def scripted_margin(monkeypatch):
    """Make the solver see ``margin(rate)`` in place of the ledger."""
    def install(margin):
        monkeypatch.setattr(bank_engine, "_final_multiple", lambda cfg, flows, rate: 1.0 + margin(rate))
    return install


LO, HI = 0.005, 0.075
SCAN_GRID = [LO + (HI - LO) * i / 20 for i in range(21)]


class TestBreakEvenScan:
    CFG = ScenarioConfig(ReturnPortfolio((1.0,)), DinTerms(), 0.02, 30)

    def test_two_crossings_raise(self, scripted_margin):
        scripted_margin(lambda r: (r - 0.02) * (r - 0.05))
        with pytest.raises(BreakEvenBracketError, match="2 times"):
            break_even_rate(self.CFG, LO, HI)

    def test_zero_run_returns_its_first_grid_rate(self, scripted_margin):
        a, b = SCAN_GRID[5], SCAN_GRID[6]
        scripted_margin(lambda r: 1.0 if r < a else 0.0 if r <= b else -1.0)
        assert break_even_rate(self.CFG, LO, HI) == a

    def test_zero_at_bracket_low_end(self, scripted_margin):
        scripted_margin(lambda r: 0.0 if r == LO else -1.0)
        assert break_even_rate(self.CFG, LO, HI) == LO

    def test_all_positive_is_none(self, scripted_margin):
        scripted_margin(lambda r: 0.5)
        assert break_even_rate(self.CFG, LO, HI) is None
