"""Portfolio synthesis, compression, and mean shifting."""

import math
import os
import re
from fractions import Fraction
from math import fsum
from pathlib import Path

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from venturebank.din import coverage_breakeven_method, coverage_sigma_method
from venturebank.portfolio import (
    MAX_FUNDS,
    SEARCH_BUDGET,
    CalibrationError,
    InfeasibleShiftError,
    KauffmanConstraints,
    ReturnPortfolio,
    clamp_loss,
    compress_pairs,
    load_portfolio,
    portfolio_stats,
    save_portfolio,
    shift_to_mean,
    synthesize_kauffman,
)

DEFAULT = KauffmanConstraints()

funds_lists = st.lists(st.floats(0, 20, allow_nan=False), min_size=1, max_size=40)


class TestStats:
    def test_constant(self):
        stats = portfolio_stats(ReturnPortfolio((1.0, 1.0, 1.0)))
        assert stats.mean == 1.0
        assert stats.stddev == 0.0

    def test_population_divisor(self):
        # By hand: mean 11/6, population variance 14/9.
        stats = portfolio_stats(ReturnPortfolio((0.5, 1.5, 3.5)))
        assert stats.mean == pytest.approx(1.8333, abs=1e-4)
        assert stats.stddev == pytest.approx(1.2472, abs=1e-4)
        assert stats.stddev == pytest.approx(math.sqrt(14 / 9), rel=1e-12)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            ReturnPortfolio(())
        with pytest.raises(ValueError):
            ReturnPortfolio((1.0, -0.1))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=repr(bad)):
                ReturnPortfolio((1.0, bad))

    @pytest.mark.parametrize("funds, message", [
        ((1e308, 1e308), "fund multiples sum past the float range"),
        ((1e200, 0.0), "squared deviations of the fund multiples sum past the float range"),
    ])
    def test_sum_past_the_float_range_is_named(self, funds, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            portfolio_stats(ReturnPortfolio(funds))

    @pytest.mark.parametrize("bad", ["1.0", None, (1.0,)])
    def test_non_number_fund_names_its_index(self, bad):
        with pytest.raises(ValueError, match=f"^fund 1: multiple must be a real number, got {re.escape(repr(bad))}$"):
            ReturnPortfolio((1.0, bad))


class TestSynthesis:
    @pytest.mark.parametrize("seed, problem", [
        ("7", "a real number, got '7'"), (1.5, "an integer, got 1.5"), (-1, ">= 0, got -1"),
    ])
    def test_bad_seed_is_named(self, seed, problem):
        with pytest.raises(ValueError, match=f"^seed must be {re.escape(problem)}$"):
            synthesize_kauffman(KauffmanConstraints(stddev=0.0), seed)

    def test_headline_stats(self, kauffman99):
        stats = portfolio_stats(kauffman99)
        assert len(kauffman99) == 99
        assert stats.mean == pytest.approx(1.31, abs=0.005)
        assert stats.stddev == pytest.approx(1.116, abs=0.005)

    def test_clamped_means_match_published_losses(self, kauffman99):
        n = len(kauffman99)
        be_mean = fsum(min(m, 1.0) for m in kauffman99.funds) / n
        assert be_mean == pytest.approx(1 - 17.45 / 100, abs=5e-4)
        sigma = portfolio_stats(kauffman99).stddev
        sg_mean = fsum(1.0 if m > 1 + sigma else m for m in kauffman99.funds) / n
        assert sg_mean == pytest.approx(1 - 2.72 / 100, abs=5e-4)

    def test_deterministic_per_seed(self):
        a = synthesize_kauffman(DEFAULT, 42)
        b = synthesize_kauffman(DEFAULT, 42)
        c = synthesize_kauffman(DEFAULT, 7)
        assert a.funds == b.funds
        assert a.funds != c.funds

    def test_degenerate_constants(self):
        p = synthesize_kauffman(KauffmanConstraints(5, 1.0, 0.0, 0.0, 0.0), seed=1)
        assert p.funds == (1.0,) * 5

    def test_equal_clamp_losses_leave_the_moderate_band_at_break_even(self):
        """With no moderate excess the moderate band needs no draws: its funds are exactly 1.0.
        The portfolio's sha256 is pinned in ``test_draws.test_synthesized_portfolios_are_pinned``."""
        p = synthesize_kauffman(KauffmanConstraints(sigma_clamp_loss=17.45, breakeven_clamp_loss=17.45), 42)
        assert (len(p), p.funds.count(1.0)) == (99, 54)
        assert coverage_sigma_method(p, 0.0).clamp_loss == coverage_breakeven_method(p, 0.0).clamp_loss == 17.45

    @pytest.mark.parametrize("constraints", [
        KauffmanConstraints(sigma_clamp_loss=0.0, breakeven_clamp_loss=0.0),  # no losers: an empty band is skipped
        KauffmanConstraints(sigma_clamp_loss=17.45),  # no moderate excess: a band at break-even, undrawn
    ], ids=["no-losers", "no-moderate-excess"])
    def test_a_band_with_nothing_to_draw_still_meets_every_target(self, constraints):
        """Within ``_verify_synthesis``'s tolerances, and the same funds on a second run."""
        p = synthesize_kauffman(constraints, 42)
        stats = portfolio_stats(p)
        assert len(p) == 99
        assert stats.mean == pytest.approx(1.31, abs=5e-4) and stats.stddev == pytest.approx(1.116, abs=5e-4)
        assert clamp_loss(p, 1.0) == pytest.approx(constraints.breakeven_clamp_loss, abs=5e-3)
        assert clamp_loss(p, 1.0 + stats.stddev) == pytest.approx(constraints.sigma_clamp_loss, abs=5e-3)
        assert synthesize_kauffman(constraints, 42).funds == p.funds

    def test_all_multiples_nonnegative_and_sorted(self, kauffman99):
        assert all(m >= 0 for m in kauffman99.funds)
        assert list(kauffman99.funds) == sorted(kauffman99.funds, reverse=True)

    def test_infeasible_constraints_raise_with_residuals(self):
        # Mean below the sigma-clamped mean implies negative winner mass.
        bad = KauffmanConstraints(n=99, mean=0.5, stddev=1.1,
                                  sigma_clamp_loss=2.72, breakeven_clamp_loss=17.45)
        with pytest.raises(CalibrationError) as err:
            synthesize_kauffman(bad, 1)
        assert err.value.residuals

    def test_invalid_constraints_rejected(self):
        with pytest.raises(ValueError):
            KauffmanConstraints(n=2)
        with pytest.raises(ValueError):
            KauffmanConstraints(sigma_clamp_loss=5.0, breakeven_clamp_loss=1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 2}, "need at least 3 funds, got n=2"),
        ({"stddev": -0.5}, "stddev must be >= 0, got -0.5"),
        ({"sigma_clamp_loss": 5.0, "breakeven_clamp_loss": 1.0},
         "clamp losses must satisfy 0 <= sigma <= breakeven <= 100, got sigma_clamp_loss=5.0, "
         "breakeven_clamp_loss=1.0"),
        ({"sigma_clamp_loss": -1.0}, "clamp losses must satisfy 0 <= sigma <= breakeven <= 100, "
                                     "got sigma_clamp_loss=-1.0, breakeven_clamp_loss=17.45"),
        ({"breakeven_clamp_loss": 100.5}, "clamp losses must satisfy 0 <= sigma <= breakeven <= 100, "
                                          "got sigma_clamp_loss=2.72, breakeven_clamp_loss=100.5"),
    ])
    def test_out_of_domain_value_is_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KauffmanConstraints(**kwargs)

    @pytest.mark.parametrize("field", ["n", "mean", "stddev", "sigma_clamp_loss",
                                       "breakeven_clamp_loss"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            KauffmanConstraints(**{field: value})

    @pytest.mark.parametrize("field", ["n", "mean", "stddev", "sigma_clamp_loss",
                                       "breakeven_clamp_loss"])
    def test_non_numbers_rejected_naming_the_field(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a real number, got '99'"):
            KauffmanConstraints(**{field: "99"})

    @pytest.mark.parametrize("value", [99.0, 50.5])
    def test_non_integer_fund_count_rejected(self, value):
        with pytest.raises(ValueError, match=f"n must be an integer, got {value!r}"):
            KauffmanConstraints(n=value)

    def test_mean_whose_square_overflows_is_named(self):
        with pytest.raises(ValueError, match=r"^mean too large for 99 funds: synthesis would pass the float "
                                             r"range, got 1e\+308$"):
            KauffmanConstraints(mean=1e308)

    def test_stddev_whose_square_overflows_is_named(self):
        with pytest.raises(ValueError, match=r"^stddev too large for 99 funds: synthesis would pass the float "
                                             r"range, got 1e\+200$"):
            KauffmanConstraints(stddev=1e200)

    def test_clamp_loss_whose_total_overflows_is_named(self):
        """A loss past 100% would clamp funds below 0; at 1e308 the losers' deficit overflowed in synthesis."""
        for n in (99, 200):
            with pytest.raises(ValueError, match=r"^clamp losses must satisfy 0 <= sigma <= breakeven <= 100, "
                                                 r"got sigma_clamp_loss=2\.72, breakeven_clamp_loss=1e\+308$"):
                KauffmanConstraints(n=n, breakeven_clamp_loss=1e308)
        assert KauffmanConstraints(sigma_clamp_loss=100, breakeven_clamp_loss=100).breakeven_clamp_loss == 100

    def test_mean_beyond_every_band_fails_without_searching_past_n(self):
        # Large winners need about 1e101 funds; only counts up to n are tried.
        with pytest.raises(CalibrationError, match="no feasible band construction for n=99"):
            synthesize_kauffman(KauffmanConstraints(mean=1e100), 42)

    def test_fund_count_past_the_cap_is_named(self):
        with pytest.raises(ValueError, match=f"^need at most {MAX_FUNDS} funds, got n={MAX_FUNDS + 1}$"):
            KauffmanConstraints(n=MAX_FUNDS + 1)

    def test_the_search_budget_admits_the_largest_portfolio(self):
        assert len(synthesize_kauffman(KauffmanConstraints(n=MAX_FUNDS), 1)) == MAX_FUNDS

    @pytest.mark.parametrize("n", [300, 600, MAX_FUNDS])
    def test_infeasible_search_ends_at_its_budget(self, time_budget, n):
        """A spread no band split can hold: every split is tried until the budget is spent, not n^2.7 work."""
        with time_budget(5), pytest.raises(CalibrationError) as err:
            synthesize_kauffman(KauffmanConstraints(n=n, stddev=3), 1)
        assert str(err.value) == (f"no feasible band construction for n={n} within the search budget of "
                                  f"{SEARCH_BUDGET} band splits and drawn funds")


class TestCompress:
    def test_even_count_exact(self):
        out = compress_pairs(ReturnPortfolio((4.0, 2.0, 2.0, 0.0)))
        assert out.funds == (3.0, 1.0)

    def test_odd_leftover_kept(self):
        out = compress_pairs(ReturnPortfolio((5.0, 3.0, 1.0)))
        assert out.funds == (4.0, 1.0)

    def test_single_fund_rejected(self):
        with pytest.raises(ValueError):
            compress_pairs(ReturnPortfolio((1.0,)))

    def test_on_synthesized_portfolio(self, kauffman99, compressed50):
        assert len(compressed50) == 50
        before = portfolio_stats(kauffman99)
        after = portfolio_stats(compressed50)
        assert abs(after.mean - before.mean) <= 0.01
        assert after.stddev / before.stddev >= 0.90

    @given(funds=st.lists(st.floats(0, 20, allow_nan=False), min_size=2, max_size=40))
    @settings(max_examples=80)
    def test_sum_preserved_for_even_counts(self, funds):
        if len(funds) % 2:
            funds = funds[:-1]
        p = ReturnPortfolio(tuple(funds))
        out = compress_pairs(p)
        assert fsum(out.funds) == pytest.approx(fsum(p.funds) / 2, rel=1e-12, abs=1e-12)
        assert len(out) == len(p) // 2


class TestShift:
    def test_identity(self, compressed50):
        mean = portfolio_stats(compressed50).mean
        out = shift_to_mean(compressed50, mean)
        assert out.funds == compressed50.funds

    def test_constant_case(self):
        out = shift_to_mean(ReturnPortfolio((1.31,) * 4), 1.50)
        assert out.funds == pytest.approx((1.50,) * 4, abs=1e-12)

    @pytest.mark.parametrize("target", [1.10, 1.50])
    def test_spread_preserved_on_reference_portfolio(self, compressed50, target):
        out = shift_to_mean(compressed50, target)
        assert portfolio_stats(out).mean == pytest.approx(target, abs=1e-9)
        assert portfolio_stats(out).stddev == pytest.approx(
            portfolio_stats(compressed50).stddev, rel=0.02
        )

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            shift_to_mean(ReturnPortfolio((1.0,)), -0.5)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match="target mean must be finite"):
            shift_to_mean(ReturnPortfolio((1.0, 2.0), "x"), target)

    def test_target_whose_sum_overflows_is_named(self, compressed50):
        with pytest.raises(ValueError, match="^shifted fund multiples sum past the float range$"):
            shift_to_mean(compressed50, 1e308)
        with pytest.raises(ValueError, match="^fund multiples sum past the float range$"):
            shift_to_mean(ReturnPortfolio((1e308, 1e308)), 1.0)

    def test_flooring_redistributes(self):
        # Shift of -0.95 floors two funds; the 1.8 of clipped mass comes
        # out of the only positive fund: 2.9 - 0.95 - 1.8 = 0.15.
        out = shift_to_mean(ReturnPortfolio((0.0, 0.1, 2.9)), 0.05)
        assert out.funds == pytest.approx((0.0, 0.0, 0.15), abs=1e-12)
        assert portfolio_stats(out).mean == pytest.approx(0.05, abs=1e-12)

    def test_a_portfolio_twelve_orders_wide_reaches_its_mean(self):
        """The floor is found first and the one survivor shifted once, from its own value: no intermediate
        near 6.7e11, whose last bit is worth about 1.2e-4, stands between the funds and the mean."""
        assert shift_to_mean(ReturnPortfolio((1e12, 0.5, 0.5)), 1.0).funds == (3.0, 0.0, 0.0)

    def test_a_cubic_portfolio_keeps_one_survivor(self):
        """Funds 1, 8, ..., 1e9 to mean 1.0: only the largest stays above zero, and it carries the whole sum."""
        out = shift_to_mean(ReturnPortfolio(tuple(float((i + 1) ** 3) for i in range(1000))), 1.0)
        assert out.funds == (0.0,) * 999 + (1000.0,)

    def test_a_miss_with_every_fund_floored_names_rounding(self):
        """``1e12 + (3e-05 - 1e12)`` rounds to 0.0, so even the largest fund floors, though [3e-05, 0.0, 0.0]
        has the mean: the one message names the magnitude that rounding works at."""
        with pytest.raises(InfeasibleShiftError, match=r"^could not reach mean 1e-05: at multiples as large as "
                                                       r"1e\+12, rounding leaves it no closer than 0\.0$"):
            shift_to_mean(ReturnPortfolio((1e12, 0.5, 0.5)), 1e-5)

    @pytest.mark.parametrize("funds", [(1e308, 0.0), (1.7e308, 0.0)])
    def test_a_shift_past_the_float_range_names_it_not_rounding(self, funds):
        """No fund floors, so the answer is the uniform shift, and its largest fund is past the float range."""
        with pytest.raises(ValueError, match=r"^could not reach mean 1\.7e\+308: shifted fund multiples past "
                                             r"the float range$") as caught:
            shift_to_mean(ReturnPortfolio(funds), 1.7e308)
        assert not isinstance(caught.value, InfeasibleShiftError)

    @given(funds=funds_lists, target=st.floats(0, 25, allow_nan=False))
    @settings(max_examples=200)
    def test_matches_the_exact_water_fill(self, funds, target):
        """Each fund within 1e-12 of the largest fund's scale of the exact shift; a fund is floored exactly
        when the exact one is, but for a fund whose exact value lies within that bound of zero."""
        out = shift_to_mean(ReturnPortfolio(tuple(funds)), target).funds
        bound = 1e-12 * max(1.0, max(funds))
        for got, want in zip(out, oracles.shift_to_mean(funds, target), strict=True):
            assert abs(Fraction(got) - want) <= bound
            assert got > 0 or want <= bound

    @given(funds=funds_lists, target=st.floats(0, 25, allow_nan=False))
    @settings(max_examples=200)
    def test_without_a_floor_every_fund_moves_by_the_one_shift(self, funds, target):
        shift = target - fsum(funds) / len(funds)
        assume(min(funds) + shift >= 0)
        out = shift_to_mean(ReturnPortfolio(tuple(funds)), target).funds
        assert list(map(float.hex, out)) == [(m + shift).hex() for m in funds]

    @given(funds=funds_lists, target=st.floats(0, 5, allow_nan=False))
    @settings(max_examples=120)
    def test_mean_lands_on_target(self, funds, target):
        out = shift_to_mean(ReturnPortfolio(tuple(funds)), target)
        assert portfolio_stats(out).mean == pytest.approx(target, abs=1e-9)
        assert all(m >= 0 for m in out.funds)

    @given(funds=funds_lists, delta=st.floats(0, 5, allow_nan=False))
    @settings(max_examples=80)
    def test_upward_shift_preserves_spread(self, funds, delta):
        p = ReturnPortfolio(tuple(funds))
        before = portfolio_stats(p)
        out = shift_to_mean(p, before.mean + delta)
        assert portfolio_stats(out).stddev == pytest.approx(before.stddev, abs=1e-12)


class TestClampOrdering:
    @given(funds=funds_lists)
    @settings(max_examples=80)
    def test_clamping_more_never_raises_the_mean(self, funds):
        p = ReturnPortfolio(tuple(funds))
        stats = portfolio_stats(p)
        n = len(funds)
        be = fsum(min(m, 1.0) for m in p.funds) / n
        sg = fsum(1.0 if m > 1 + stats.stddev else m for m in p.funds) / n
        assert be <= sg + 1e-12
        assert sg <= stats.mean + 1e-12

    def test_clamped_total_past_the_float_range_is_named(self):
        with pytest.raises(ValueError, match="^clamped fund multiples sum past the float range$"):
            clamp_loss(ReturnPortfolio((1e308, 1e308, 5e-324)), 1.8e308)


class TestSerialization:
    def test_round_trip(self, tmp_path, compressed50):
        path = tmp_path / "p.csv"
        save_portfolio(path, compressed50, metadata={"seed": 42})
        back = load_portfolio(path)
        assert back.funds == compressed50.funds
        assert back.label == "p"
        assert (tmp_path / "p.csv.meta").exists()

    @pytest.mark.parametrize("name, label", [("p.csv", "p"), ("dir/p.csv", "p"), ("./p.csv", "p"), ("p", "p"),
                                             ("a.", "a."), ("a.b.", "a.b."), (".p", ".p"), ("p.tar.csv", "p.tar")])
    def test_label_is_the_file_stem_as_pathlib_cuts_it(self, tmp_path, monkeypatch, name, label):
        """``simulate`` prints the label as ``portfolio=``; a dot that starts or ends the name stays in it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        Path(name).write_text("multiple\n1.5\n", encoding="utf-8")
        assert load_portfolio(name).label == load_portfolio(Path(name)).label == label

    @pytest.mark.parametrize("name", ["out.csv", "out", "a."])
    def test_sidecar_is_the_file_name_plus_meta(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        save_portfolio(name, ReturnPortfolio((1.5,), "x"), metadata={"seed": 7})
        assert sorted(os.listdir()) == sorted([name, f"{name}.meta"])
        assert Path(f"{name}.meta").read_bytes() == b"label=x\nseed=7\n"

    def test_meta_is_label_first_then_in_order(self, tmp_path):
        save_portfolio(tmp_path / "p.csv", ReturnPortfolio((2.0, 0.5), "x y"), metadata={"seed": 7, "n": 2})
        assert (tmp_path / "p.csv.meta").read_bytes() == b"label=x y\nseed=7\nn=2\n"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="multiple"):
            load_portfolio(path)

    @pytest.mark.parametrize("row, problem", [
        ("abc", "non-numeric multiple 'abc'"),
        ("nan", "fund 1: multiple must be finite, got nan"),
        ("inf", "fund 1: multiple must be finite, got inf"),
        ("-0.5", "fund 1: multiple must be >= 0, got -0.5"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, problem):
        path = tmp_path / "bad.csv"
        path.write_text(f"multiple\n1.0\n\n{row}\n2.0\n", encoding="utf-8")  # blank line 3 counts
        with pytest.raises(ValueError) as err:
            load_portfolio(path)
        assert str(err.value) == f"{path}: line 4: {problem}"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\nmultiple\n\n1.5\n0.5\n\n", encoding="utf-8")
        assert load_portfolio(path).funds == (1.5, 0.5)
