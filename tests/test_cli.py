"""Command-line behaviour: determinism, outputs, exit codes."""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import venturebank
from venturebank.cli import build_parser, run_cli
from venturebank.din import PremiumBase


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
    ])
    def test_out_of_domain_value_is_named(self, in_tmp, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
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


# One value other than the default for every flag of simulate, breakeven and sweep; None for a switch.
NON_DEFAULT = {
    "--portfolio": "../p.csv", "--seed": "7", "--target-mean": "1.5", "--no-compress": None,
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
        value = NON_DEFAULT[flag]
        given = [flag] if value is None else [flag, value]
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
    @pytest.mark.parametrize("flag", ["--seed", "--no-compress"])
    def test_synthesis_flag_with_portfolio_is_a_usage_error(self, in_tmp, capsys, command, flag):
        """Only synthesis reads --seed and --no-compress, and --portfolio skips synthesis."""
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        given = [flag] if NON_DEFAULT[flag] is None else [flag, NON_DEFAULT[flag]]
        code, out, err = run(capsys, command, "--portfolio", "p.csv", *given)
        assert (code, out) == (2, "")
        assert f"--portfolio and {flag} cannot be combined" in err

    @pytest.mark.parametrize("command", ["simulate", "breakeven"])
    @pytest.mark.parametrize("line", ["seed=42", "no_compress=false"])
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

    def test_unknown_key_rejected(self, in_tmp, capsys):
        (in_tmp / "bad.cfg").write_text("bogus=1\n", encoding="utf-8")
        code, _, err = run(capsys, "--config", "bad.cfg", "synth")
        assert code == 2
        assert "bogus" in err

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

    def test_store_true_flag_from_file(self, in_tmp, capsys):
        (in_tmp / "c.cfg").write_text("no_compress=true\n", encoding="utf-8")
        _, compressed, _ = run(capsys, "simulate")
        _, uncompressed, _ = run(capsys, "--config", "c.cfg", "simulate")
        assert "funds=99\n" not in compressed
        assert "funds=99\n" in uncompressed

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
    @pytest.mark.parametrize("command", ["simulate", "breakeven", "sweep"])
    def test_surplus_rate_flag_is_gone(self, capsys, command):
        code, _, err = run(capsys, command, "--surplus-rate", "1")
        assert code == 2
        assert "--surplus-rate" in err

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
