"""Command-line behaviour: determinism, outputs, exit codes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import venturebank
from venturebank.cli import run_cli


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

    def test_non_finite_fund_rejected(self, in_tmp, capsys):
        (in_tmp / "inf.csv").write_text("multiple\n1.0\ninf\n", encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--portfolio", "inf.csv")
        assert code == 1
        assert out == ""
        assert "inf.csv" in err and "inf" in err.replace("inf.csv", "")


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

    def test_timestamp_lives_only_in_meta(self, in_tmp, capsys):
        run(capsys, "sweep", "--out-dir", "out")
        assert "generated_at=" in (in_tmp / "out" / "sweep.meta").read_text()
        assert "generated_at" not in (in_tmp / "out" / "sweep.csv").read_text()

    @pytest.mark.parametrize("argv", [["--targets", "1.101,1.104"], ["--mocs", "30,30"]])
    def test_duplicate_curve_names_label_and_moc(self, in_tmp, capsys, argv):
        code, _, err = run(capsys, "sweep", "--out-dir", "out", *argv)
        assert code == 1
        assert "duplicate curve '1.10x' at moc 30" in err
        assert not (in_tmp / "out" / "sweep.csv").exists()


class TestStartup:
    def test_ingest_and_coverage_never_import_numpy(self, in_tmp, capsys):
        assert run(capsys, "synth", "--out", "p.csv")[0] == 0
        script = (
            "import sys\n"
            "from venturebank.cli import run_cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "assert run_cli(['ingest']) == 0\n"
            "assert 'numpy' not in sys.modules, 'ingest'\n"
            "assert run_cli(['coverage', '--portfolio', 'p.csv']) == 0\n"
            "assert 'numpy' not in sys.modules, 'coverage'\n"
        )
        src = str(Path(venturebank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], cwd=in_tmp, env=env,
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

    @pytest.mark.parametrize("config_args", [
        ["--config", "c.cfg"], ["--config=c.cfg"], ["--conf", "c.cfg"],
    ])
    def test_every_spelling_of_the_flag_takes_effect(self, in_tmp, capsys, config_args):
        (in_tmp / "c.cfg").write_text("moc=43\n", encoding="utf-8")
        code, out, _ = run(capsys, *config_args, "simulate")
        assert code == 0
        assert "moc=43\n" in out

    def test_store_true_flag_from_file(self, in_tmp, capsys):
        (in_tmp / "c.cfg").write_text("no_compress=true\n", encoding="utf-8")
        _, compressed, _ = run(capsys, "simulate")
        _, uncompressed, _ = run(capsys, "--config", "c.cfg", "simulate")
        assert "funds=99\n" not in compressed
        assert "funds=99\n" in uncompressed

    @pytest.mark.parametrize("line", ["moc=lots", "no_compress=maybe", "premium_base=weekly",
                                      "moc=inf", "bank_rate=nan", "mocs=30,nan"])
    def test_bad_value_names_file_line_and_key(self, in_tmp, capsys, line):
        (in_tmp / "c.cfg").write_text("# comment\nseed=7\n" + line + "\n", encoding="utf-8")
        code, _, err = run(capsys, "--config", "c.cfg", "simulate")
        assert code == 2
        key = line.split("=")[0]
        assert "c.cfg" in err and "line 3" in err and repr(key) in err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] != 0

    def test_unknown_flag(self, capsys):
        assert run(capsys, "synth", "--bogus")[0] != 0

    def test_no_args_shows_usage(self, capsys):
        assert run(capsys)[0] != 0
