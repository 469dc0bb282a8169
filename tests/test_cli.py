"""Command-line behaviour: determinism, outputs, exit codes."""

import argparse
import ast
import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import venturebank
from venturebank import calibrate, cli
from venturebank.bank_engine import ScenarioConfig, simulate_bank, write_bank_csv
from venturebank.cli import build_parser, run_cli
from venturebank.din import DinTerms, PremiumBase
from venturebank.market_data import funds_rate
from venturebank.portfolio import KauffmanConstraints, shift_to_mean, synthesize_kauffman


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_same_seed_byte_identical(self, in_tmp, capsys):
        assert run(capsys, "synth", "--seed", "42", "--out", "a.csv")[0] == 0
        assert run(capsys, "synth", "--seed", "42", "--out", "b.csv")[0] == 0
        assert (in_tmp / "a.csv").read_bytes() == (in_tmp / "b.csv").read_bytes()
        assert (in_tmp / "a.csv.meta").read_bytes() == (in_tmp / "b.csv.meta").read_bytes()

    def test_different_seed_differs(self, in_tmp, capsys):
        run(capsys, "synth", "--seed", "42", "--out", "a.csv")
        run(capsys, "synth", "--seed", "43", "--out", "c.csv")
        assert (in_tmp / "a.csv").read_bytes() != (in_tmp / "c.csv").read_bytes()

    def test_meta_records_seed_and_residuals(self, in_tmp, capsys):
        run(capsys, "synth", "--seed", "42", "--out", "a.csv")
        meta = (in_tmp / "a.csv.meta").read_text()
        assert "seed=42" in meta
        assert "residual_stddev=" in meta

    def test_label_with_a_line_break_forges_no_sidecar_key(self, in_tmp, capsys):
        """``label=a`` then ``b=c`` would read as two keys: the label is refused before either file is written."""
        assert run(capsys, "synth", "--label", "a\nb=c", "--out", "l.csv") == (
            1, "", "error: sidecar key 'label' must hold no '=' or line break, its value no line break: "
                   "'a\\nb=c'\n")
        assert not any(in_tmp.iterdir())

    def test_infeasible_synthesis_ends_naming_the_search_budget(self, in_tmp, capsys, time_budget):
        with time_budget(5):
            code, out, err = run(capsys, "synth", "--n", "300", "--stddev", "3")
        assert (code, out) == (1, "")
        assert err == ("error: no feasible band construction for n=300 within the search budget of "
                       "250000 band splits and drawn funds\n")


class TestCoverage:
    def test_prints_both_methods(self, in_tmp, capsys):
        run(capsys, "synth", "--seed", "42", "--out", "k.csv")
        code, out, _ = run(capsys, "coverage", "--portfolio", "k.csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,clamp_loss_pct,recommended_pct"
        sigma = next(ln for ln in lines if ln.startswith("sigma_clamp"))
        breakeven = next(ln for ln in lines if ln.startswith("breakeven_clamp"))
        assert float(sigma.split(",")[2]) == pytest.approx(5.60, abs=0.05)
        assert float(breakeven.split(",")[2]) == pytest.approx(20.33, abs=0.05)

    def test_header_only_portfolio_is_named(self, in_tmp, capsys):
        (in_tmp / "hdr.csv").write_text("multiple\n", encoding="utf-8")
        assert run(capsys, "coverage", "--portfolio", "hdr.csv") == (
            1, "", "error: hdr.csv: portfolio must contain at least one fund\n")


class TestIngest:
    def test_bundled_snapshot_stats(self, capsys):
        code, out, _ = run(capsys, "ingest", "--start", "1986", "--end", "2016")
        assert code == 0
        values = dict(ln.split("=", 1) for ln in out.splitlines())
        assert float(values["median"]) == pytest.approx(4.26, abs=0.05)
        assert float(values["mean"]) == pytest.approx(4.58, abs=0.05)

    @pytest.mark.parametrize("flag, text", [("--start", "19960"), ("--end", "2016-02-30"),
                                            ("--start", "0000")])
    def test_bad_date_names_the_flag(self, capsys, flag, text):
        code, out, err = run(capsys, "ingest", flag, text)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: expected YYYY-MM-DD or YYYY, got {text!r}" in err

    def test_empty_window_names_the_bound_and_the_series_span(self, capsys):
        code, out, err = run(capsys, "ingest", "--end", "1980")
        assert code == 1
        assert out == ""
        assert err == "error: no observations through 1980-12-31; the series spans 1986-01-02 to 2016-12-30\n"

    @pytest.mark.parametrize("body", [b"", b"\xef\xbb\xbf"])
    def test_empty_file_is_named(self, in_tmp, capsys, body):
        """A file holding only a byte-order mark is as empty as one holding nothing."""
        (in_tmp / "empty.csv").write_bytes(body)
        assert run(capsys, "ingest", "--csv", "empty.csv") == (1, "", "error: empty.csv: empty file\n")

    def test_extra_field_names_its_line(self, in_tmp, capsys):
        (in_tmp / "three.csv").write_text("DATE,USD12MD156N\n2010-01-04,2.0\n2010-01-05,2.1,9\n", encoding="utf-8")
        assert run(capsys, "ingest", "--csv", "three.csv") == (
            1, "", "error: three.csv: line 3: expected 2 fields, got 3\n")

    def test_missing_file_is_a_one_line_diagnostic(self, capsys):
        code, _out, err = run(capsys, "ingest", "--csv", "nope.csv")
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestSimulateAndBreakeven:
    def test_simulate_writes_ledger(self, in_tmp, capsys):
        code, out, _ = run(
            capsys, "simulate", "--target-mean", "1.31", "--libor", "2.0",
            "--coverage", "5.6", "--premium-base", "principal_upfront",
            "--ledger-out", "ledger.csv",
        )
        assert code == 0
        assert "final_multiple=" in out
        assert (in_tmp / "ledger.csv").read_text().startswith("year,interest,premiums")

    def test_breakeven_prints_rate(self, capsys):
        code, out, _ = run(
            capsys, "breakeven", "--target-mean", "1.31", "--coverage", "5.6",
            "--premium-base", "principal_upfront", "--lo", "0.5", "--hi", "7.5",
        )
        assert code == 0
        rate = float(out.strip().split("=")[1])
        assert 1.5 <= rate <= 3.0

    @pytest.mark.parametrize("hi", ["1e308", "1e23"])
    def test_breakeven_past_adjacent_floats_ends(self, in_tmp, capsys, time_budget, hi):
        """The crossing lies at 1e22 percent, where adjacent rates lie farther apart than the bisection's width."""
        (in_tmp / "far.csv").write_text("multiple\n1e200\n", encoding="utf-8")
        with time_budget(20):
            result = run(capsys, "breakeven", "--portfolio", "far.csv", "--hi", hi)
        assert result == (0, "breakeven_bank_rate_pct=10000000000000000000000.0000\n", "")

    def test_breakeven_none(self, in_tmp, capsys):
        (in_tmp / "flat.csv").write_text("multiple\n" + "1.0\n" * 10, encoding="utf-8")
        code, out, _ = run(capsys, "breakeven", "--portfolio", "flat.csv")
        assert code == 0
        assert out.strip() == "breakeven_bank_rate_pct=none"

    @pytest.mark.parametrize("bracket, shown", [(["--lo", "-1"], "--lo -1 --hi 7.5"),
                                                (["--lo", "5", "--hi", "2"], "--lo 5 --hi 2"),
                                                (["--lo", "2", "--hi", "2"], "--lo 2 --hi 2")])
    def test_bad_bracket_is_a_usage_error_in_percent(self, capsys, bracket, shown):
        code, out, err = run(capsys, "breakeven", *bracket)
        assert code == 2
        assert out == ""
        assert "--lo/--hi must satisfy 0 <= --lo < --hi" in err and f"got {shown} (percent)" in err

    def test_bad_bracket_from_a_config_file(self, in_tmp, capsys):
        (in_tmp / "c.cfg").write_text("lo=5\nhi=2\n", encoding="utf-8")
        code, out, err = run(capsys, "--config", "c.cfg", "breakeven")
        assert code == 2
        assert out == ""
        assert "got --lo 5 --hi 2 (percent)" in err

    def test_negative_coverage_floor_rejected(self, in_tmp, capsys):
        code, out, err = run(capsys, "simulate", "--coverage", "5", "--coverage-floor", "-10")
        assert code == 2
        assert out == ""
        assert "argument --coverage-floor: must be >= 0, got '-10'" in err
        assert not (in_tmp / "bank_ledger.csv").exists()

    def test_negative_coverage_sizing_floor_rejected(self, in_tmp, capsys):
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        code, out, err = run(capsys, "coverage", "--portfolio", "p.csv", "--floor", "-5")
        assert code == 2
        assert out == ""
        assert "argument --floor: must be >= 0, got '-5'" in err

    def test_non_finite_fund_rejected(self, in_tmp, capsys):
        (in_tmp / "inf.csv").write_text("multiple\n1.0\ninf\n", encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--portfolio", "inf.csv")
        assert code == 1
        assert out == ""
        assert "inf.csv" in err and "inf" in err.replace("inf.csv", "")

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--n", "2"], "need at least 3 funds, got n=2"),
        (["synth", "--breakeven-loss", "1.7e308"], "clamp losses must satisfy 0 <= sigma <= breakeven <= 100, "
                                                    "got sigma_clamp_loss=2.72, breakeven_clamp_loss=1.7e+308"),
        (["simulate", "--term-years", "1001"], "term_years must be <= 1000, got 1001"),
        (["synth", "--n", "10001"], "need at most 10000 funds, got n=10001"),
    ])
    def test_out_of_domain_value_is_named(self, in_tmp, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["synth", "--mean", "1e308"],
                     "mean too large for 99 funds: synthesis would pass the float range, got 1e+308",
                     id="synth-mean"),
        pytest.param(["synth", "--stddev", "1e200"],
                     "stddev too large for 99 funds: synthesis would pass the float range, got 1e+200",
                     id="synth-stddev"),
        pytest.param(["simulate", "--moc", "1.7e308"], "fund proceeds sum past the float range",
                     id="simulate-moc"),
        pytest.param(["breakeven", "--moc", "1.7e308"], "fund proceeds sum past the float range",
                     id="breakeven-moc"),
        pytest.param(["simulate", "--target-mean", "1e308"], "shifted fund multiples sum past the float range",
                     id="simulate-target-mean"),
    ])
    def test_value_past_the_float_range_is_named(self, in_tmp, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize("command", ["synth", "simulate", "breakeven", "sweep", "calibrate"])
    @pytest.mark.parametrize("text", ["-1", "1.5"])
    def test_seed_out_of_domain_is_a_usage_error(self, in_tmp, capsys, command, text):
        code, out, err = run(capsys, command, "--seed", text)
        assert code == 2
        assert out == ""
        assert f"argument --seed: must be an integer >= 0, got {text!r}" in err
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--premium-rate", "-1"], "argument --premium-rate: must be >= 0, got '-1'"),
        (["simulate", "--bank-rate", "-1"], "argument --bank-rate: must be >= 0, got '-1'"),
        (["sweep", "--coverage", "-0.5"], "argument --coverage: must be >= 0, got '-0.5'"),
        (["simulate", "--coverage", "1", "--coverage-floor", "2"],
         "--coverage must be >= --coverage-floor, got --coverage 1 --coverage-floor 2 (percent)"),
        (["simulate", "--libor", "-1"], "argument --libor: must be >= 0, got '-1'"),
    ])
    def test_percent_flag_out_of_domain_is_a_usage_error(self, in_tmp, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--moc", "0"], "argument --moc: must be > 0, got '0'"),
        (["simulate", "--capital", "-1"], "argument --capital: must be > 0, got '-1'"),
        (["sweep", "--mocs", "30,0"], "argument --mocs: must be > 0, got '0'"),
    ])
    def test_leverage_or_capital_out_of_domain_is_a_usage_error(self, in_tmp, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--target-mean", "-1"], "argument --target-mean: must be >= 0, got '-1'"),
        (["breakeven", "--target-mean", "-0.5"], "argument --target-mean: must be >= 0, got '-0.5'"),
        (["sweep", "--targets", "1.31,-1"], "argument --targets: must be >= 0, got '-1'"),
        (["sweep", "--mocs", ","], "argument --mocs: expected at least one value, got ','"),
        (["sweep", "--targets", ""], "argument --targets: expected at least one value, got ''"),
    ])
    def test_target_mean_or_empty_list_is_a_usage_error(self, in_tmp, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert not any(in_tmp.iterdir())

    def test_coverage_below_floor_from_a_config_file(self, in_tmp, capsys):
        (in_tmp / "c.cfg").write_text("coverage=1\ncoverage_floor=2\n", encoding="utf-8")
        code, out, err = run(capsys, "--config", "c.cfg", "simulate")
        assert code == 2
        assert out == ""
        assert "got --coverage 1 --coverage-floor 2 (percent)" in err
        assert not (in_tmp / "bank_ledger.csv").exists()

    @pytest.mark.parametrize("argv", [["breakeven"], ["simulate", "--libor", "1"], ["simulate", "--libor", "7"]])
    def test_ledger_that_is_not_a_number_is_an_error(self, in_tmp, capsys, argv):
        (in_tmp / "p.csv").write_text("multiple\n1e300\n0.5\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--portfolio", "p.csv", "--moc", "1.7e308")
        assert code == 1
        assert out == ""
        assert "final multiple not finite at moc 1.7e+308 and capital 1.0" in err
        assert sorted(p.name for p in in_tmp.iterdir()) == ["p.csv"]

    @pytest.mark.parametrize("argv, name", [
        pytest.param(["synth", "--n"], "n", id="synth-n"),
        pytest.param(["simulate", "--term-years"], "term_years", id="simulate-term-years"),
        pytest.param(["simulate", "--payoff-year"], "payoff_year", id="simulate-payoff-year"),
        *(pytest.param([command, "--seed"], "seed", id=f"{command}-seed")
          for command in ("synth", "breakeven", "sweep", "calibrate")),
    ])
    def test_integer_past_the_float_range_is_named(self, in_tmp, capsys, argv, name):
        code, out, err = run(capsys, *argv, "1" + "0" * 400)
        assert (code, out, err) == (1, "", f"error: {name} must be finite, got a number past the float range\n")
        assert not any(in_tmp.iterdir())

    def test_uncompressed_synthesis_goes_through_a_portfolio_file(self, in_tmp, capsys):
        """``synth --out kauffman-99.csv`` then ``--portfolio kauffman-99.csv`` runs the uncompressed synthesis."""
        assert run(capsys, "synth", "--seed", "7", "--out", "kauffman-99.csv")[0] == 0
        code, out, _ = run(capsys, "simulate", "--portfolio", "kauffman-99.csv", "--target-mean", "1.31",
                           "--moc", "43", "--premium-base", "principal_annual", "--ledger-out", "ledger.csv")
        assert code == 0
        assert out.startswith("portfolio=kauffman-99-m1.31\nfunds=99\n")
        terms = DinTerms(3.88 / 100.0, 2.88 / 100.0, 5.0 / 100.0, "principal_annual")
        portfolio = shift_to_mean(synthesize_kauffman(KauffmanConstraints(), 7), 1.31)
        cfg = ScenarioConfig(portfolio, terms, funds_rate(1.57) / 100.0, 43.0)
        write_bank_csv(in_tmp / "want.csv", simulate_bank(cfg))
        assert (in_tmp / "ledger.csv").read_bytes() == (in_tmp / "want.csv").read_bytes()

    def test_a_portfolio_twelve_orders_wide_reaches_its_mean(self, in_tmp, capsys):
        """[3.0, 0.0, 0.0] has mean 1; the shift once stopped near 0.99996 and exited 1."""
        (in_tmp / "p.csv").write_text("multiple\n1e12\n0.5\n0.5\n")
        code, out, err = run(capsys, "simulate", "--portfolio", "p.csv", "--target-mean", "1")
        assert (code, err) == (0, "")
        assert out.startswith("portfolio=p-m1\nfunds=3\n")

    def test_infinite_margins_still_bracket_a_break_even(self, capsys):
        code, out, _ = run(capsys, "breakeven", "--moc", "1e308")
        assert code == 0
        assert out == "breakeven_bank_rate_pct=2.7233\n"

    def test_margins_all_infinite_find_no_break_even(self, in_tmp, capsys):
        """Every margin is ``+inf``, so no rate breaks even; ``simulate`` names the same overflow."""
        (in_tmp / "p.csv").write_text("multiple\n1e308\n1e308\n0.5\n", encoding="utf-8")
        assert run(capsys, "breakeven", "--portfolio", "p.csv") == (0, "breakeven_bank_rate_pct=none\n", "")
        assert run(capsys, "simulate", "--portfolio", "p.csv") == (
            1, "", "error: final multiple not finite at moc 30.0 and capital 1.0\n")
        assert [p.name for p in in_tmp.iterdir()] == ["p.csv"]

    def test_overflowing_ledger_writes_nothing(self, in_tmp, capsys):
        code, out, err = run(capsys, "simulate", "--moc", "1e308", "--libor", "7.5")
        assert code == 1
        assert out == ""
        assert "final multiple not finite at moc 1e+308 and capital 1.0" in err
        assert not any(in_tmp.iterdir())


class TestNonFiniteFlags:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--bank-rate", "nan"],
        ["simulate", "--moc", "inf"],
        ["breakeven", "--hi", "inf"],
        ["synth", "--mean", "nan"],
        ["sweep", "--mocs", "30,nan"],
        ["sweep", "--targets", "inf"],
    ])
    def test_rejected_naming_the_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert argv[1] in err and "finite" in err

    def test_non_finite_grid_rejected(self, capsys):
        code, _out, err = run(capsys, "sweep", "--grid", "0.53:inf:0.25")
        assert code == 1
        assert "finite" in err


class TestSweep:
    def test_writes_all_artifacts(self, in_tmp, capsys):
        code, _out, _ = run(capsys, "sweep", "--out-dir", "out")
        assert code == 0
        for name in ("sweep.csv", "sweep.meta", "fig3.svg", "fig4.svg"):
            assert (in_tmp / "out" / name).exists(), name
        for name in ("fig3.csv", "fig4.csv"):
            assert not (in_tmp / "out" / name).exists(), name
        csv = (in_tmp / "out" / "sweep.csv").read_text().splitlines()
        assert len(csv) == 1 + 6 * 29

    def test_csv_deterministic_across_runs(self, in_tmp, capsys):
        run(capsys, "sweep", "--out-dir", "one")
        run(capsys, "sweep", "--out-dir", "two")
        assert (in_tmp / "one" / "sweep.csv").read_bytes() == (in_tmp / "two" / "sweep.csv").read_bytes()
        assert (in_tmp / "one" / "fig3.svg").read_bytes() == (in_tmp / "two" / "fig3.svg").read_bytes()

    def test_default_outputs_match_golden_digests(self, in_tmp, capsys):
        assert run(capsys, "sweep", "--out-dir", "out")[0] == 0
        golden = {
            "sweep.csv": "2f6514d2d2b45e3397006411488147c22b60fb4427f77cee02003506634df534",
            "fig3.svg": "d996a643b85fe8ef5b6b8d5ecbb8fe2e09f486f18732c21568c7c298ae0b3703",
            "fig4.svg": "6910f6481a545c791f33a6dcf39076b24627523578fbef4d866b9a8879e42dd8",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((in_tmp / "out" / name).read_bytes()).hexdigest() == digest, name

    def test_default_meta_digest_is_pinned(self, in_tmp, capsys):
        assert run(capsys, "sweep", "--out-dir", "out")[0] == 0
        meta = (in_tmp / "out" / "sweep.meta").read_text().splitlines()
        assert [ln for ln in meta if not ln.startswith("generated_at=")] == [
            "config_digest=663fe464ad4d9fb6", "seed=42"]

    def test_timestamp_lives_only_in_meta(self, in_tmp, capsys):
        run(capsys, "sweep", "--out-dir", "out")
        assert "generated_at=" in (in_tmp / "out" / "sweep.meta").read_text()
        assert "generated_at" not in (in_tmp / "out" / "sweep.csv").read_text()

    def test_overflowing_sweep_writes_nothing(self, in_tmp, capsys):
        code, out, err = run(capsys, "sweep", "--mocs", "1e308", "--out-dir", "out")
        assert code == 1
        assert out == ""
        assert "scenario failed for portfolio '1.10x' moc 1e+308" in err
        assert "final multiple not finite at moc 1e+308 and capital 1.0" in err
        assert not (in_tmp / "out").exists()

    def test_sweep_past_the_row_cap_fails_at_once(self, in_tmp, capsys, time_budget):
        """3 targets x 4 MOCs at the largest grid are 12 x 99,501 rows: refused before any curve runs."""
        with time_budget(5):
            code, out, err = run(capsys, "sweep", "--grid", "0:49.75:0.0005", "--mocs", "1,2,3,4", "--out-dir", "out")
        assert (code, out) == (1, "")
        assert err == "error: 12 curves x 99501 rates is more than MAX_SWEEP_ROWS (1000000) rows\n"
        assert not (in_tmp / "out").exists()

    @pytest.mark.parametrize("argv", [["--targets", "1.101,1.104"], ["--mocs", "30,30"]])
    def test_duplicate_curve_names_label_and_moc(self, in_tmp, capsys, argv):
        code, _, err = run(capsys, "sweep", "--out-dir", "out", *argv)
        assert code == 1
        assert "duplicate curve '1.10x' at moc 30" in err
        assert not (in_tmp / "out" / "sweep.csv").exists()


def flags_of(command: str) -> list[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"]


# One value other than the default for every flag of simulate, breakeven and sweep.
NON_DEFAULT = {
    "--portfolio": "../p.csv", "--seed": "7", "--target-mean": "1.5",
    "--moc": "43", "--libor": "3", "--bank-rate": "4", "--capital": "2", "--ledger-out": "other.csv",
    "--coverage": "5.6", "--coverage-floor": "2", "--premium-rate": "4",
    "--premium-base": "principal_upfront", "--payoff-year": "4", "--term-years": "9",
    "--lo": "3", "--hi": "2", "--grid": "1:3:0.5", "--mocs": "30", "--targets": "1.31",
    "--out-dir": "out",
}
FLOOR = "a bound, read only by the --coverage >= --coverage-floor check"
# (command, flag, context, why the flag may leave every output as it is when run with context)
UNREAD = [
    ("simulate", "--coverage-floor", (), FLOOR),
    ("breakeven", "--coverage-floor", (), FLOOR),
    ("sweep", "--coverage-floor", (), FLOOR),
    ("breakeven", "--moc", (), "the rate does not move with MOC; perfbench's reference commands pass it"),
]
READ = [(command, flag) for command in ("simulate", "breakeven", "sweep") for flag in flags_of(command)
        if (command, flag, ()) not in {u[:3] for u in UNREAD}]


class TestEveryFlagIsRead:
    """Every flag of simulate, breakeven and sweep changes stdout or a written file."""

    @staticmethod
    def outputs(capsys, monkeypatch, where, argv):
        """stdout and every file written by one run in the empty directory ``where``.

        ``sweep.meta`` is left out: it records every flag's value, read or not.
        """
        where.mkdir()
        monkeypatch.chdir(where)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        return out, {f.relative_to(where): f.read_bytes() for f in sorted(where.rglob("*"))
                     if f.is_file() and f.name != "sweep.meta"}

    def with_and_without(self, in_tmp, capsys, monkeypatch, command, flag, context=()):
        assert run(capsys, "synth", "--seed", "7", "--out", "p.csv")[0] == 0
        given = [flag, NON_DEFAULT[flag]]
        return (self.outputs(capsys, monkeypatch, in_tmp / "with", [command, *context, *given]),
                self.outputs(capsys, monkeypatch, in_tmp / "without", [command, *context]))

    @pytest.mark.parametrize("command, flag", READ)
    def test_flag_changes_an_output(self, in_tmp, capsys, monkeypatch, command, flag):
        given, default = self.with_and_without(in_tmp, capsys, monkeypatch, command, flag)
        assert given != default

    @pytest.mark.parametrize("command, flag, context, reason", UNREAD,
                             ids=[f"{u[0]}{' '.join(('', *u[2]))} {u[1]}" for u in UNREAD])
    def test_allowlisted_flag_changes_nothing(self, in_tmp, capsys, monkeypatch,
                                              command, flag, context, reason):
        given, default = self.with_and_without(in_tmp, capsys, monkeypatch, command, flag, context)
        assert given == default, reason

    @pytest.mark.parametrize("command", ["simulate", "breakeven"])
    @pytest.mark.parametrize("flag", ["--seed"])
    def test_synthesis_flag_with_portfolio_is_a_usage_error(self, in_tmp, capsys, command, flag):
        """Only synthesis reads --seed, and --portfolio skips synthesis."""
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        code, out, err = run(capsys, command, "--portfolio", "p.csv", flag, NON_DEFAULT[flag])
        assert (code, out) == (2, "")
        assert f"--portfolio and {flag} cannot be combined" in err

    @pytest.mark.parametrize("command", ["simulate", "breakeven"])
    @pytest.mark.parametrize("line", ["seed=42"])
    def test_synthesis_key_with_portfolio_names_file_line_and_key(self, in_tmp, capsys, command, line):
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        (in_tmp / "c.cfg").write_text(f"moc=43\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "--config", "c.cfg", command, "--portfolio", "p.csv")
        assert (code, out) == (2, "")
        key = line.split("=")[0]
        assert f"c.cfg: line 2: key {key!r} cannot be combined with --portfolio" in err
        assert run(capsys, "--config", "c.cfg", command)[0] == 0  # synthesis reads the key

    @pytest.mark.parametrize("flag", ["--libor", "--bank-rate"])
    def test_rate_flags_are_not_breakeven_flags(self, capsys, flag):
        code, out, err = run(capsys, "breakeven", flag, "3")
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag} 3" in err

    def test_libor_config_key_still_moves_the_simulate_ledger(self, in_tmp, capsys):
        (in_tmp / "c.cfg").write_text("libor=3\n", encoding="utf-8")
        assert run(capsys, "simulate", "--ledger-out", "default.csv")[0] == 0
        assert run(capsys, "--config", "c.cfg", "simulate", "--ledger-out", "file.csv")[0] == 0
        assert run(capsys, "simulate", "--libor", "3", "--ledger-out", "flag.csv")[0] == 0
        assert (in_tmp / "file.csv").read_bytes() == (in_tmp / "flag.csv").read_bytes()
        assert (in_tmp / "file.csv").read_bytes() != (in_tmp / "default.csv").read_bytes()


class TestDefaults:
    """The records own the paper's defaults: the flags read them from ``DinTerms()`` and ``KauffmanConstraints()``."""

    @pytest.mark.parametrize("command", ["simulate", "breakeven", "sweep"])
    def test_terms_flags_default_to_the_record(self, command):
        assert cli._terms_from(build_parser().parse_args([command])) == DinTerms()

    def test_synth_flags_default_to_the_record(self):
        args = build_parser().parse_args(["synth"])
        assert KauffmanConstraints(n=args.n, mean=args.mean, stddev=args.stddev, sigma_clamp_loss=args.sigma_loss,
                                   breakeven_clamp_loss=args.breakeven_loss) == KauffmanConstraints()

    def test_coverage_floor_and_calibration_cut_come_from_the_record(self):
        assert build_parser().parse_args(["coverage", "--portfolio", "p.csv"]).floor / 100 == DinTerms().coverage_floor
        assert calibrate.REDUCED_COVERAGE == DinTerms().coverage_fraction

    def test_no_default_is_restated(self):
        """No number or string in ``cli.py`` or ``calibrate.py`` is a record default, as a fraction or a percent."""
        terms, targets = DinTerms(), KauffmanConstraints()
        percents = (terms.coverage_fraction, terms.coverage_floor, terms.premium_rate)
        defaults = {*percents, *(f * 100 for f in percents), terms.premium_base.value, terms.payoff_year,
                    terms.term_years, targets.n, targets.mean, targets.stddev, targets.sigma_clamp_loss,
                    targets.breakeven_clamp_loss}
        for module in (cli, calibrate):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            restated = [f"{node.lineno}: {node.value!r}" for node in ast.walk(tree) if isinstance(node, ast.Constant)
                        and type(node.value) in (int, float, str) and node.value in defaults]
            assert not restated, module.__name__


class TestStartup:
    # Modules only sweep, calibrate or the numpy kernels need.
    HEAVY = ("numpy", "venturebank.sweep", "venturebank.report", "venturebank.calibrate",
             "statistics", "hashlib")

    def test_ingest_and_coverage_never_import_numpy(self, in_tmp, capsys):
        """The four light commands load neither numpy nor any module of ``HEAVY``."""
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        script = (
            "import sys\n"
            f"heavy = {self.HEAVY!r}\n"
            "def check(step):\n"
            "    loaded = [m for m in heavy if m in sys.modules]\n"
            "    assert not loaded, (step, loaded)\n"
            "from venturebank.cli import run_cli\n"
            "check('import')\n"
            "assert run_cli(['ingest']) == 0\n"
            "check('ingest')\n"
            "assert run_cli(['coverage', '--portfolio', 'p.csv']) == 0\n"
            "check('coverage')\n"
            "assert run_cli(['simulate', '--portfolio', 'p.csv']) == 0\n"
            "check('simulate --portfolio')\n"
            "assert run_cli(['breakeven', '--portfolio', 'p.csv']) == 0\n"
            "check('breakeven --portfolio')\n"
        )
        src = str(Path(venturebank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], cwd=in_tmp, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_light_commands_never_import_bank_engine(self, in_tmp):
        """``ingest``, ``synth`` and ``coverage`` run no bank ledger, so none of them loads ``bank_engine``."""
        script = (
            "import sys\n"
            "def check(step):\n"
            "    assert 'venturebank.bank_engine' not in sys.modules, step\n"
            "from venturebank.cli import run_cli\n"
            "check('import')\n"
            "assert run_cli(['ingest']) == 0\n"
            "check('ingest')\n"
            "assert run_cli(['synth', '--out', 'p.csv']) == 0\n"
            "check('synth')\n"
            "assert run_cli(['coverage', '--portfolio', 'p.csv']) == 0\n"
            "check('coverage')\n"
        )
        src = str(Path(venturebank.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], cwd=in_tmp,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    # Modules that finding the bundled rate file needs none of (``importlib.resources`` pulls in the
    # other three). ``shutil`` is not here: argparse's help formatter imports it.
    FILE_FINDING = ("importlib.resources", "tempfile", "random", "zipfile")

    def test_clean_interpreter_loads_no_resource_machinery(self, in_tmp):
        """Under ``python -S`` no ``.pth`` hook preloads a module, so the package's own stdlib closure shows:
        neither the import nor ``ingest`` of the bundled rate file loads any module of ``FILE_FINDING``."""
        script = (
            "import sys\n"
            f"unused = {self.FILE_FINDING!r}\n"
            "def check(step):\n"
            "    loaded = [m for m in unused if m in sys.modules]\n"
            "    assert not loaded, (step, loaded)\n"
            "from venturebank.cli import run_cli\n"
            "check('import')\n"
            "assert run_cli(['ingest']) == 0\n"
            "check('ingest')\n"
        )
        src = str(Path(venturebank.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-S", "-c", script], cwd=in_tmp,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"file={Path(src, 'venturebank', 'data', 'libor_usd12m.csv')}\n")

    # Modules the package used to load only for itself: ``typing`` for its records, ``pathlib`` (with
    # ``urllib.parse`` and ``ipaddress``) for its files.
    OWN_ONLY = ("typing", "pathlib", "urllib.parse", "ipaddress")

    def test_clean_interpreter_loads_no_typing_or_pathlib(self, in_tmp):
        """Under ``python -S`` neither the import nor a light command loads a module of ``OWN_ONLY``.
        ``ingest`` prints the rate file as ``pathlib`` spells it, so it loads only ``pathlib``."""
        (in_tmp / "r.csv").write_text("DATE,RATE\n2020-01-02,1.5\n", encoding="utf-8")
        script = (
            "import sys\n"
            "def check(step, unused):\n"
            "    loaded = [m for m in unused if m in sys.modules]\n"
            "    assert not loaded, (step, loaded)\n"
            "from venturebank.cli import run_cli\n"
            f"check('import', {self.OWN_ONLY!r})\n"
            "for argv in (['synth', '--out', 'p.csv'], ['coverage', '--portfolio', 'p.csv'],\n"
            "             ['simulate', '--portfolio', 'p.csv'], ['breakeven'], ['calibrate']):\n"
            "    assert run_cli(argv) == 0, argv\n"
            f"    check(argv[0], {self.OWN_ONLY!r})\n"
            "assert run_cli(['ingest', '--csv', 'r.csv']) == 0\n"
            "check('ingest --csv', ('typing',))\n"
        )
        src = str(Path(venturebank.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-S", "-c", script], cwd=in_tmp,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_only_sweep_loads_numpy(self, in_tmp):
        """Synthesis is numpy-free: ``synth``, ``calibrate`` and synthesized runs leave numpy unloaded."""
        script = (
            "import sys\n"
            "from venturebank.cli import run_cli\n"
            "for argv in (['synth'], ['breakeven'], ['calibrate'], ['simulate']):\n"
            "    assert run_cli(argv) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
            "assert run_cli(['sweep', '--grid', '1:2:0.5']) == 0\n"
            "assert 'numpy' in sys.modules, 'sweep'\n"
        )
        src = str(Path(venturebank.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], cwd=in_tmp,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_report_loads_numpy_only_when_it_draws(self, in_tmp):
        """Importing ``report``, or refusing an empty table, loads no numpy and writes no file."""
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from venturebank.report import ReportKind, emit_report\n"
            "from venturebank.sweep import SweepTable\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "try:\n"
            "    emit_report(SweepTable((), ()), ReportKind.BANK_MULTIPLE, 'out/fig3.svg')\n"
            "except ValueError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('empty table drawn')\n"
            "assert not Path('out').exists(), 'file created'\n"
            "assert 'numpy' not in sys.modules, 'empty table'\n"
        )
        src = str(Path(venturebank.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], cwd=in_tmp,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestCalibrate:
    def test_report_lists_every_mode(self, in_tmp, capsys):
        code, out, _ = run(capsys, "calibrate", "--out", "calibration.txt")
        assert code == 0
        text = (in_tmp / "calibration.txt").read_text()
        assert text.count("mode=") == 6
        assert "selected=" in text
        assert "selected=" in out
        best = next(line for line in text.splitlines() if line.startswith("mode="))
        assert f"selected={best.split()[0].removeprefix('mode=')}" in text.splitlines()


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, in_tmp, capsys):
        (in_tmp / "run.cfg").write_text("seed=7\nout=fromfile.csv\n", encoding="utf-8")
        code, _, _ = run(capsys, "--config", "run.cfg", "synth")
        assert code == 0
        assert (in_tmp / "fromfile.csv").exists()

        code, _, _ = run(capsys, "--config", "run.cfg", "synth", "--out", "flagwins.csv")
        assert code == 0
        assert (in_tmp / "flagwins.csv").exists()

    def test_line_without_equals_is_a_usage_error(self, in_tmp, capsys):
        (in_tmp / "bad.cfg").write_text("moc 30\n", encoding="utf-8")
        assert run(capsys, "--config", "bad.cfg", "simulate") == (
            2, "", "error: bad.cfg: line 1: expected key=value\n")
        assert not (in_tmp / "bank_ledger.csv").exists()

    def test_unknown_key_rejected(self, in_tmp, capsys):
        (in_tmp / "bad.cfg").write_text("bogus=1\n", encoding="utf-8")
        code, _, err = run(capsys, "--config", "bad.cfg", "synth")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("line, command, reason", [
        ("premium_base=weekly", "simulate",
         "invalid choice: 'weekly' (choose from 'face_annual', 'principal_annual', 'principal_upfront')"),
        ("n=abc", "synth", "invalid int value: 'abc'"),
    ])
    def test_reason_is_worded_the_same_on_every_python(self, in_tmp, capsys, line, command, reason):
        """The reasons argparse words for a choice and an ``int`` flag, worded by the reader itself:
        argparse's own wording of a choice dropped the quotes in a 3.13 patch release."""
        (in_tmp / "c.cfg").write_text(f"{line}\n", encoding="utf-8")
        key, _, text = line.partition("=")
        assert run(capsys, "--config", "c.cfg", command) == (
            2, "", f"error: c.cfg: line 1: bad value {text!r} for key {key!r}: {reason}\n")

    def test_every_flag_is_a_key_whose_actions_read_alike(self):
        """Each subcommand flag is recorded under its key, and the reader types a value by the key's
        first action, so all of a key's actions share one ``type`` and one ``choices``."""
        parser = build_parser()
        flags = next(a for a in parser._actions if a.dest == "config").flags
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        recorded = sorted((key, id(a)) for key, actions in flags.items() for a in actions)
        assert recorded == sorted((flag[2:].replace("-", "_"), id(a)) for p in sub.choices.values()
                                  for a in p._actions for flag in a.option_strings if a.dest != "help")
        for key, actions in flags.items():
            assert len({(a.type, None if a.choices is None else tuple(a.choices)) for a in actions}) == 1, key

    def test_surplus_rate_key_is_gone(self, in_tmp, capsys):
        (in_tmp / "c.cfg").write_text("moc=43\nsurplus_rate=1\n", encoding="utf-8")
        code, _, err = run(capsys, "--config", "c.cfg", "simulate")
        assert code == 2
        assert "c.cfg" in err and "line 2" in err and "'surplus_rate'" in err

    @pytest.mark.parametrize("config_args", [
        ["--config", "c.cfg"], ["--config=c.cfg"], ["--conf", "c.cfg"],
    ])
    def test_every_spelling_of_the_flag_takes_effect(self, in_tmp, capsys, config_args):
        (in_tmp / "c.cfg").write_text("moc=43\n", encoding="utf-8")
        code, out, _ = run(capsys, *config_args, "simulate")
        assert code == 0
        assert "moc=43\n" in out

    def test_capital_key_scales_the_simulate_ledger_only(self, in_tmp, capsys):
        (in_tmp / "c.cfg").write_text("capital=2\n", encoding="utf-8")
        assert run(capsys, "simulate", "--ledger-out", "one.csv")[0] == 0
        assert run(capsys, "--config", "c.cfg", "simulate", "--ledger-out", "two.csv")[0] == 0
        assert run(capsys, "simulate", "--capital", "2", "--ledger-out", "flag.csv")[0] == 0
        assert (in_tmp / "two.csv").read_bytes() == (in_tmp / "flag.csv").read_bytes()
        assert (in_tmp / "two.csv").read_bytes() != (in_tmp / "one.csv").read_bytes()
        _, plain, _ = run(capsys, "breakeven")
        code, configured, _ = run(capsys, "--config", "c.cfg", "breakeven")
        assert code == 0
        assert configured == plain

    @pytest.mark.parametrize("command", ["simulate", "breakeven"])
    def test_no_compress_key_is_gone(self, in_tmp, capsys, command):
        (in_tmp / "c.cfg").write_text("moc=43\nno_compress=true\n", encoding="utf-8")
        code, out, err = run(capsys, "--config", "c.cfg", command)
        assert (code, out) == (2, "")
        assert err == "error: c.cfg: line 2: unknown key 'no_compress'\n"
        assert not (in_tmp / "bank_ledger.csv").exists()

    @pytest.mark.parametrize("line, flag, shown", [("bank_rate=3", ["--libor", "2"], "2.2500"),
                                                   ("libor=3", ["--bank-rate", "2"], "2.0000")])
    def test_either_rate_flag_beats_either_rate_key(self, in_tmp, capsys, line, flag, shown):
        """``--libor`` and ``--bank-rate`` write one funding rate, so an explicit flag wins over both keys."""
        (in_tmp / "c.cfg").write_text(f"{line}\n", encoding="utf-8")
        code, out, _ = run(capsys, "--config", "c.cfg", "simulate", *flag)
        assert code == 0
        assert f"bank_rate_pct={shown}\n" in out

    @pytest.mark.parametrize("lines, shown", [("libor=3\nbank_rate=1\n", "1.0000"),
                                              ("bank_rate=1\nlibor=3\n", "3.2500")])
    def test_later_rate_key_wins(self, in_tmp, capsys, lines, shown):
        (in_tmp / "c.cfg").write_text(lines, encoding="utf-8")
        code, out, _ = run(capsys, "--config", "c.cfg", "simulate")
        assert code == 0
        assert f"bank_rate_pct={shown}\n" in out

    def test_key_stands_in_for_a_required_flag(self, in_tmp, capsys):
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        (in_tmp / "c.cfg").write_text("portfolio=p.csv\n", encoding="utf-8")
        code, out, err = run(capsys, "--config", "c.cfg", "coverage")
        assert (code, err) == (0, "")
        assert out == run(capsys, "coverage", "--portfolio", "p.csv")[1]

    def test_one_parse_per_command(self, in_tmp, capsys, monkeypatch):
        """The file is read inside the one ``parse_args`` call, so flags are never parsed twice."""
        calls = []
        parse_args = argparse.ArgumentParser.parse_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
        (in_tmp / "c.cfg").write_text("moc=43\n", encoding="utf-8")
        assert run(capsys, "--config", "c.cfg", "simulate")[0] == 0
        assert calls == ["venturebank"]

    def test_seed_key_is_named_even_with_the_seed_flag(self, in_tmp, capsys):
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        (in_tmp / "c.cfg").write_text("seed=7\n", encoding="utf-8")
        code, out, err = run(capsys, "--config", "c.cfg", "simulate", "--portfolio", "p.csv", "--seed", "7")
        assert (code, out) == (2, "")
        assert err == ("error: c.cfg: line 1: key 'seed' cannot be combined with --portfolio: "
                       "only synthesis reads it\n")

    def test_second_file_adds_to_the_first(self, in_tmp, capsys):
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        (in_tmp / "a.cfg").write_text("seed=7\nmoc=43\n", encoding="utf-8")
        (in_tmp / "b.cfg").write_text("moc=30\n", encoding="utf-8")
        code, out, _ = run(capsys, "--config", "a.cfg", "--config", "b.cfg", "simulate")
        assert code == 0
        assert "moc=30\n" in out
        code, out, err = run(capsys, "--config", "a.cfg", "--config", "b.cfg", "simulate", "--portfolio", "p.csv")
        assert (code, out) == (2, "")
        assert err.startswith("error: a.cfg: line 1: key 'seed' cannot be combined with --portfolio")

    def test_missing_file_is_named_before_the_subcommand_is_asked_for(self, in_tmp, capsys):
        code, out, err = run(capsys, "--config", "missing.cfg")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "'missing.cfg'" in err

    @pytest.mark.parametrize("line", ["moc=lots", "no_compress=maybe", "premium_base=weekly",
                                      "moc=inf", "bank_rate=nan", "mocs=30,nan",
                                      "start=19960", "end=2016-02-30", "premium_rate=-1",
                                      "libor=-1", "target_mean=-1", "targets=1.1,-1", "floor=-1", "mocs=,",
                                      "seed=-1"])
    def test_bad_value_names_file_line_and_key(self, in_tmp, capsys, line):
        (in_tmp / "c.cfg").write_text("# comment\nseed=7\n" + line + "\n", encoding="utf-8")
        code, _, err = run(capsys, "--config", "c.cfg", "simulate")
        assert code == 2
        key = line.split("=")[0]
        assert "c.cfg" in err and "line 3" in err and repr(key) in err
        # The reason the flag itself would give, or the allowed values of a choice flag.
        reasons = {"seed=-1": ["must be an integer >= 0, got '-1'"],
                   "moc=lots": ["expected a finite number, got 'lots'"],
                   "premium_base=weekly": [b.value for b in PremiumBase]}
        for reason in reasons.get(line, []):
            assert f"for key {key!r}: " in err and reason in err


class TestExitCodes:
    def test_a_missing_file_is_named_as_typed(self, capsys):
        """The package opens a file by the name it was given, so the OS error spells it so; ``ingest``
        prints and reads its ``--csv`` as ``pathlib`` spells it."""
        assert run(capsys, "coverage", "--portfolio", "./none.csv") == (
            1, "", "error: [Errno 2] No such file or directory: './none.csv'\n")
        assert run(capsys, "ingest", "--csv", "./none.csv") == (1, "", "error: no such file: none.csv\n")

    @pytest.mark.parametrize("spec", ["1:1.000000001:0.0000000001", "0:0.0000000005:0.0000000001",
                                      "0:0.0000001:0.00000000001"])
    def test_a_grid_finer_than_its_resolution_exits_1(self, in_tmp, capsys, spec):
        """Once one rate for eleven, only ``hi``, and ``rate grid must be strictly ascending``."""
        assert run(capsys, "sweep", "--grid", spec, "--out-dir", "out") == (
            1, "", f"error: bad grid '{spec}'; step and span must be at least its resolution, 2e-09\n")
        assert not any(in_tmp.iterdir())

    def test_targets_that_share_a_label_are_named(self, in_tmp, capsys):
        assert run(capsys, "sweep", "--targets", "1.3,1.101,1.104", "--out-dir", "out") == (
            1, "", "error: duplicate curve '1.10x' at moc 30: from --targets 1.101 and 1.104\n")
        assert not any(in_tmp.iterdir())

    def test_repeated_mocs_are_named(self, in_tmp, capsys):
        assert run(capsys, "sweep", "--mocs", "43,30,43", "--out-dir", "out") == (
            1, "", "error: duplicate curve '1.10x' at moc 43: from --mocs 43.0 and 43.0\n")
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--out"], "--out"), (["calibrate", "--out"], "--out"), (["sweep", "--out-dir"], "--out-dir"),
    ], ids=["synth", "calibrate", "sweep"])
    def test_a_path_with_a_line_break_writes_nothing(self, in_tmp, capsys, argv, flag):
        """The path is printed on a ``wrote`` line, where its line break would forge a ``selected=`` line."""
        path = "p.csv\nselected=face_annual+bank"
        assert run(capsys, *argv, path) == (1, "", f"error: {flag} must hold no line break, got {path!r}\n")
        assert not any(in_tmp.iterdir())

    def test_a_portfolio_stem_with_a_line_break_forges_no_key(self, in_tmp, capsys):
        """The stem is the ``portfolio=`` value; checked before the ledger is written."""
        (in_tmp / "x\nfinal_multiple=99.csv").write_text("multiple\n0.5\n1.5\n", encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--portfolio", "x\nfinal_multiple=99.csv")
        assert (code, out) == (1, "")
        assert err.startswith("error: sidecar key 'portfolio' must hold no '=' or line break")
        assert not (in_tmp / "bank_ledger.csv").exists()

    def test_a_ledger_path_with_a_line_break_writes_no_ledger(self, in_tmp, capsys):
        code, out, err = run(capsys, "simulate", "--ledger-out", "l.csv\nfinal_multiple=99")
        assert (code, out) == (1, "")
        assert err.startswith("error: sidecar key 'ledger' must hold no '=' or line break")
        assert not any(in_tmp.iterdir())

    def test_a_rate_file_path_with_a_line_break_forges_no_key(self, in_tmp, capsys):
        (in_tmp / "r.csv\ncount=0").write_text("DATE,RATE\n2010-01-04,2.0\n", encoding="utf-8")
        code, out, err = run(capsys, "ingest", "--csv", "r.csv\ncount=0")
        assert (code, out) == (1, "")
        assert err.startswith("error: sidecar key 'file' must hold no '=' or line break")

    @pytest.mark.parametrize("command", ["simulate", "breakeven", "sweep"])
    def test_surplus_rate_flag_is_gone(self, capsys, command):
        code, _, err = run(capsys, command, "--surplus-rate", "1")
        assert code == 2
        assert "--surplus-rate" in err

    @pytest.mark.parametrize("command", ["simulate", "breakeven"])
    def test_no_compress_flag_is_gone(self, in_tmp, capsys, command):
        """The uncompressed synthesis is ``synth --out kauffman-99.csv``, then ``--portfolio kauffman-99.csv``."""
        code, out, err = run(capsys, command, "--no-compress")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --no-compress" in err
        assert not any(in_tmp.iterdir())

    def test_no_flag_is_a_switch(self):
        """Every flag but --help takes a value: a config file reads each key through its flag's ``type``,
        which would take ``false`` for a switch as a true string."""
        parser = build_parser()
        parsers = [parser, *next(a for a in parser._actions
                                 if isinstance(a, argparse._SubParsersAction)).choices.values()]
        switches = [(p.prog, a.option_strings[0]) for p in parsers for a in p._actions
                    if a.option_strings and a.nargs == 0 and a.dest != "help"]
        assert not switches

    def test_flags_share_a_dest_only_when_exclusive(self):
        """Two flags of one subcommand write one value only from one mutually exclusive group,
        so argv can never give both and a config file's later line decides."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for p in sub.choices.values():
            by_dest: dict[str, set] = {}
            for a in p._actions:
                if a.option_strings:
                    by_dest.setdefault(a.dest, set()).add(a)
            for dest, actions in by_dest.items():
                assert len(actions) == 1 or any(actions <= set(g._group_actions)
                                                for g in p._mutually_exclusive_groups), (p.prog, dest)

    @pytest.mark.parametrize("command", ["breakeven", "sweep"])
    def test_capital_flag_only_on_simulate(self, capsys, command):
        code, _, err = run(capsys, command, "--capital", "2")
        assert code == 2
        assert "--capital" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] != 0

    def test_unknown_flag(self, capsys):
        assert run(capsys, "synth", "--bogus")[0] != 0

    def test_no_args_shows_usage(self, capsys):
        assert run(capsys)[0] != 0

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_pipe_is_not_a_failure(self, in_tmp, unbuffered):
        """``venturebank ingest | head -1``: the reader closed the pipe, so status 0 and no diagnostic.

        The read end closes before the child starts, so its first write to stdout (in ``run_cli``
        when unbuffered, at the final flush otherwise) always meets a closed pipe.
        """
        src = str(Path(venturebank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-c", "from venturebank.cli import main; main()", "ingest"],
                                  cwd=in_tmp, env=env, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("name, text, line, argv, status", [
        ("c.cfg", b"moc=43\n\xe9\n", 2, ["--config", "c.cfg", "simulate"], 2),
        ("p.csv", b"multiple\r\n1.0\r\n\xe9\r\n", 3, ["coverage", "--portfolio", "p.csv"], 1),
        ("r.csv", b"DATE,RATE\n2010-01-04,2.0\n\n2010-01-05,\xe9\n", 4, ["ingest", "--csv", "r.csv"], 1),
        ("b.cfg", b"\xef\xbb\xbfmoc=43\n\xe9\n", 2, ["--config", "b.cfg", "simulate"], 2),
    ], ids=["config", "portfolio", "rates", "config-with-byte-order-mark"])
    def test_file_that_is_not_utf8_is_named(self, in_tmp, capsys, name, text, line, argv, status):
        """The file and the line of the first byte that does not decode; blank lines and CRLF counted."""
        (in_tmp / name).write_bytes(text)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (status, "")
        assert err == f"error: {name}: line {line}: byte 0xe9 is not UTF-8\n"

    @pytest.mark.parametrize("name, text, argv", [
        ("c.cfg", "moc=43\n", ["--config", "c.cfg", "simulate"]),
        ("p.csv", "multiple\n0.5\n1.5\n2.0\n", ["coverage", "--portfolio", "p.csv"]),
        ("r.csv", "DATE,RATE\n2010-01-04,2.0\n2010-01-05,2.5\n", ["ingest", "--csv", "r.csv"]),
    ], ids=["config", "portfolio", "rates"])
    def test_byte_order_mark_is_read_as_if_absent(self, in_tmp, capsys, name, text, argv):
        """Every reader reads a file that starts with a UTF-8 byte-order mark as the same file without it."""
        (in_tmp / name).write_text(text, encoding="utf-8")
        want = run(capsys, *argv)
        (in_tmp / name).write_text(text, encoding="utf-8-sig")
        assert run(capsys, *argv) == want
        assert want[0] == 0


BIG_INT = "1" + "0" * 400  # an integer past the float range
EXTREMES = st.sampled_from(["1e308", "-1e308", "1.7e308", "5e-324", "-5e-324", "-0.0", "0", "1", "43"])
PORTFOLIOS = {"p.csv": "multiple\n0.5\n1.5\n2.0\n", "huge.csv": "multiple\n1e308\n1e308\n0.5\n",
              "tiny.csv": "multiple\n5e-324\n0\n5e-324\n", "nan.csv": "multiple\n1.0\nnan\n",
              "far.csv": "multiple\n1e200\n"}  # far.csv breaks even at a bank rate of 1e22 percent
RATES = {"r.csv": "DATE,USD12MD156N\n2010-01-04,2.0\n2010-01-05,.\n2010-01-06,50\n"}
YEARS = st.integers(-1, 300).map(str) | st.sampled_from([BIG_INT, "-0.0"])
DATES = st.sampled_from(["1986", "2010-01-05", "0001", "9999-12-31", "0"])
# Flag text by flag; every other flag draws from EXTREMES. Sizes stay small: --n, grids and years
# are drawn from values that allocate at most a few thousand floats, or that are rejected.
VALUES = {
    "--portfolio": st.sampled_from([*PORTFOLIOS, "missing.csv"]),
    "--csv": st.sampled_from([*RATES, "p.csv", "missing.csv"]),
    "--start": DATES, "--end": DATES,
    "--seed": st.sampled_from(["0", "7", str(2**64), BIG_INT, "-1"]),
    "--n": st.sampled_from(["2", "3", "7", "300", BIG_INT]),
    "--payoff-year": YEARS, "--term-years": YEARS,
    "--premium-base": st.sampled_from([b.value for b in PremiumBase]),
    "--grid": st.sampled_from(["1:2:0.5", "0.53:7.50:0.25", "0:1e308:1e307", "5e-324:1e-323:5e-324",
                               "1:2:5e-324", "2:1:1"]),
    "--mocs": st.lists(EXTREMES, min_size=1, max_size=2).map(",".join),
    "--targets": st.lists(EXTREMES, min_size=1, max_size=2).map(",".join),
    "--label": st.sampled_from(["a,b", "x"]),
    "--out": st.sampled_from(["o.csv", "sub/o.csv"]),
    "--ledger-out": st.sampled_from(["o.csv", "sub/o.csv"]),
    "--out-dir": st.sampled_from(["out", "."]),
}
COMMANDS = ("ingest", "synth", "coverage", "simulate", "breakeven", "sweep", "calibrate")
# A path or stray argument holding one or two of the characters ``str.splitlines`` breaks on.
BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
BROKEN = st.tuples(st.sampled_from(["", "bad", "x.csv"]), st.text(st.sampled_from(BREAKS), min_size=1, max_size=2),
                   st.sampled_from(["", "error: forged", "x.csv"])).map("".join)
NAME = object()  # where the drawn text goes in a ``BROKEN_RUNS`` argv
# Each argv with the file, if any, written under the drawn name: each failure quotes the name its own way.
BROKEN_RUNS = [
    (["coverage", "--portfolio", NAME], "multiple\n1.0\nabc\n"),  # load_portfolio: the path unquoted
    (["coverage", "--portfolio", NAME], None),  # the OS error: the path's repr
    (["simulate", "--portfolio", NAME], b"multiple\n\xe9\n"),  # read_lines: the path unquoted
    (["ingest", "--csv", NAME], "DATE,RATE\n2010-01-04,x\n"),  # load_libor_csv: the path unquoted
    (["--config", NAME, "synth"], "seed=x\n"),  # _Config: the path unquoted, status 2
    (["synth", NAME], None),  # argparse's unrecognized arguments: raw argv
    ([NAME], None),  # argparse's invalid choice: its repr
    (["simulate", "--premium-base", NAME], None),
    (["synth", "--out", NAME], None),
]


def assert_exits_cleanly(argv: list[str], config: list[str], time_budget) -> None:
    """Run ``argv`` beside the guard's files, with the key lines ``config`` in ``c.cfg``.

    It exits within 20 s with status 0, 1 or 2 and never a traceback. A nonzero status
    writes one ``error:`` line, status 2 writes no file, and status 0 prints no ``nan`` or ``inf``.
    """
    if config:
        argv = ["--config", "c.cfg", *argv]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in {**PORTFOLIOS, **RATES, "c.cfg": "".join(config)}.items():
            Path(name).write_text(text, encoding="utf-8")
        before = sorted(Path(".").rglob("*"))
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err, time_budget(20):
            code = run_cli(argv)
        written = sorted(Path(".").rglob("*")) != before
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code:
        assert len(lines := error_lines(err)) == 1 and "error:" in lines[0], (argv, err)
    if code == 2:
        assert not written, argv
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), (argv, out)


def error_lines(err: str) -> list[str]:
    """The lines of ``err`` outside argparse's usage block (its ``usage:`` line and indented continuations)."""
    return [line for line in err.splitlines() if not line.startswith(("usage: ", " "))]


class TestNoTraceback:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_every_exit_is_a_status_and_one_error_line(self, time_budget, data):
        """Any flags and config keys, at finite extremes, exit cleanly (see ``assert_exits_cleanly``)."""
        command = data.draw(st.sampled_from(COMMANDS), label="command")
        flags = flags_of(command)
        argv = [command]
        for flag in data.draw(st.lists(st.sampled_from(flags), max_size=4, unique=True), label="flags"):
            argv += [flag, data.draw(VALUES.get(flag, EXTREMES), label=flag)]
        keys = data.draw(st.lists(st.sampled_from(flags), max_size=2, unique=True), label="keys")
        config = [f"{key[2:]}={data.draw(VALUES.get(key, EXTREMES), label=key)}\n" for key in keys]
        assert_exits_cleanly(argv, config, time_budget)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_a_line_break_in_a_path_or_argument_writes_one_error_line(self, in_tmp, capsys, data):
        """Whichever writer quotes the drawn text, its breaks are escaped: one error line per failure."""
        template, content = data.draw(st.sampled_from(BROKEN_RUNS), label="run")
        name = data.draw(BROKEN, label="name")
        if content is not None:
            (in_tmp / name).write_bytes(content if isinstance(content, bytes) else content.encode())
        code, out, err = run(capsys, *(name if part is NAME else part for part in template))
        if content is not None:
            (in_tmp / name).unlink()
        assert (code, out) in ((1, ""), (2, "")), (template, name, err)
        lines = error_lines(err)
        assert len(lines) == 1 and re.match(r"(venturebank( \w+)?: )?error: ", lines[0]), (template, name, err)

    @pytest.mark.parametrize("argv, text, status, want", [
        (["coverage", "--portfolio", "bad\nerror: forged.csv"], "multiple\n1.0\nabc\n", 1,
         "error: \"bad\\nerror: forged.csv: line 3: non-numeric multiple 'abc'\"\n"),
        (["coverage", "--portfolio", "bad\\nx.csv"], "multiple\n1.0\nabc\n", 1,
         "error: bad\\nx.csv: line 3: non-numeric multiple 'abc'\n"),
        (["--config", "c\u2028error: x.cfg", "synth"], "seed=x\n", 2,
         "error: \"c\\u2028error: x.cfg: line 1: bad value 'x' for key 'seed': must be an integer >= 0, got 'x'\"\n"),
        (["synth", "x\nerror: forged"], None, 2, "venturebank: error: 'unrecognized arguments: x\\nerror: forged'\n"),
    ], ids=["reader", "typed-backslash", "config", "argparse"])
    def test_a_line_break_is_written_escaped(self, in_tmp, capsys, argv, text, status, want):
        """The file ``text``, if any, is written under the argument that holds the line break or backslash.
        Only a message that holds a line break is written as its repr, so a typed ``\\n`` prints apart."""
        if text:
            (in_tmp / next(a for a in argv if set(a) & set(BREAKS + "\\"))).write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (status, "")
        assert error_lines(err) == [want.rstrip("\n")] and err.endswith(want)
        message = want.rstrip("\n").partition("error: ")[2]
        if message.startswith(("'", '"')):  # it reads back as the two-line message
            assert len(ast.literal_eval(message).splitlines()) == 2

    @pytest.mark.parametrize("argv", [["breakeven", "--portfolio", "far.csv", "--hi", "1e308"],
                                      ["sweep", "--grid", "0:49.75:0.0005", "--mocs", "1,2,3,4,5,6,7,8,9,10"]])
    def test_case_the_draws_reach_only_by_chance(self, time_budget, argv):
        assert_exits_cleanly(argv, [], time_budget)
