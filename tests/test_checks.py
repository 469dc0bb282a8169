"""The finite-real rule, and every library boundary that applies it once per value."""

import datetime as dt
import math
import os
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from venturebank import market_data, portfolio, sweep
from venturebank.bank_engine import ScenarioConfig, break_even_rate, simulate_bank, write_bank_csv
from venturebank.calibrate import run_calibration, write_calibration_report
from venturebank.checks import finite_real, read_lines, write_text
from venturebank.din import DinTerms, coverage_sigma_method
from venturebank.market_data import LiborSeries, funds_rate, load_libor_csv
from venturebank.portfolio import (
    KauffmanConstraints,
    ReturnPortfolio,
    load_portfolio,
    save_portfolio,
    shift_to_mean,
    synthesize_kauffman,
)
from venturebank.report import ReportKind, emit_report
from venturebank.sweep import SweepError, run_sweep, write_sweep_csv, write_sweep_meta

PORTFOLIO = ReturnPortfolio((0.5, 1.5, 2.0), "p")
CONFIG = ScenarioConfig(PORTFOLIO, DinTerms(), 0.02, 30)


class TestFiniteReal:
    @pytest.mark.parametrize("value", [0.0, -2.5, 3, True, Fraction(1, 3), np.float64(1.5), np.int64(2)])
    def test_a_finite_real_is_returned_as_given(self, value):
        assert finite_real("x", value) is value

    @pytest.mark.parametrize("value", ["1", Decimal("1"), None, 1j, (1.0,)])
    def test_a_non_real_is_named(self, value):
        with pytest.raises(ValueError, match=f"^x must be a real number, got {re.escape(repr(value))}$"):
            finite_real("x", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_a_non_finite_real_is_named(self, value):
        with pytest.raises(ValueError, match=f"^x must be finite, got {re.escape(repr(value))}$"):
            finite_real("x", value)

    @pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)])
    @pytest.mark.parametrize("integer", [False, True])
    def test_a_number_past_the_float_range_is_named(self, value, integer):
        """``math.isfinite`` cannot convert it, so it is not finite: a named ``ValueError``, not ``OverflowError``."""
        with pytest.raises(ValueError, match="^n must be finite, got a number past the float range$"):
            finite_real("n", value, integer=integer)

    @pytest.mark.parametrize("value", [2.0, 2.5, Fraction(4, 2), np.float64(3.0)])
    def test_integer_wants_an_integral_type(self, value):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(value))}$"):
            finite_real("n", value, integer=True)

    @pytest.mark.parametrize("value", [5, True, np.int64(7)])
    def test_integer_accepts_integral_types(self, value):
        assert finite_real("n", value, integer=True) is value


# Each library boundary: how it is called with one bad value, and the field its error names.
BOUNDARIES = {
    "ReturnPortfolio fund": (lambda v: ReturnPortfolio((1.0, v)), "fund 1: multiple"),
    "KauffmanConstraints": (lambda v: KauffmanConstraints(mean=v), "mean"),
    "DinTerms": (lambda v: DinTerms(premium_rate=v), "premium_rate"),
    "ScenarioConfig": (lambda v: ScenarioConfig(PORTFOLIO, DinTerms(), 0.02, v), "moc"),
    "LiborSeries rate": (lambda v: LiborSeries((dt.date(2010, 1, 4), dt.date(2010, 1, 5)), (1.0, v)),
                         "2010-01-05: rate"),
    "shift_to_mean target": (lambda v: shift_to_mean(PORTFOLIO, v), "target mean"),
    "coverage floor": (lambda v: coverage_sigma_method(PORTFOLIO, v), "floor"),
    "funds_rate": (funds_rate, "interbank rate"),
    "break_even_rate lo": (lambda v: break_even_rate(CONFIG, v, 0.075), "lo"),
    "break_even_rate hi": (lambda v: break_even_rate(CONFIG, 0.005, v), "hi"),
    "run_sweep grid": (lambda v: run_sweep([CONFIG], [1.0, v, 2.0]), "rate grid entry 1: interbank rate"),
    "synthesize_kauffman seed": (lambda v: synthesize_kauffman(KauffmanConstraints(), v), "seed"),
}


@pytest.mark.parametrize("value, problem", [
    ("1", "a real number"), (Decimal("1"), "a real number"), (math.nan, "finite"), (math.inf, "finite"),
], ids=["str", "Decimal", "nan", "inf"])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_boundary_rejects_a_bad_number_naming_the_field(boundary, value, problem):
    call, field = BOUNDARIES[boundary]
    error = SweepError if boundary == "run_sweep grid" else ValueError
    with pytest.raises(error, match=f"^{re.escape(f'{field} must be {problem}, got {value!r}')}$"):
        call(value)


def test_each_grid_rate_row_and_fund_is_checked_once(monkeypatch, tmp_path):
    calls = []

    def counted(name, value, **kwargs):
        calls.append(name)
        return finite_real(name, value, **kwargs)

    for module in (sweep, market_data, portfolio):
        monkeypatch.setattr(module, "finite_real", counted)
    grid = [0.5 + 0.25 * k for k in range(29)]
    run_sweep([CONFIG], grid)
    assert len(calls) == len(grid)

    calls.clear()
    (tmp_path / "p.csv").write_text("multiple\n" + "\n".join(map(repr, PORTFOLIO.funds)) + "\n", encoding="utf-8")
    load_portfolio(tmp_path / "p.csv")
    assert len(calls) == len(PORTFOLIO)

    calls.clear()
    (tmp_path / "r.csv").write_text("DATE,X\n2010-01-04,1.0\n2010-01-05,.\n2010-01-06,1.5\n", encoding="utf-8")
    load_libor_csv(tmp_path / "r.csv")
    assert len(calls) == 2


@pytest.mark.parametrize("data, line", [
    (b"\xef\xbb\xbf\xe9\n", 1),
    (b"\xef\xbb\xbfa\r\n\xe9\n", 2),
    (b"a\n\xef\xbb\xbf\n\xe9", 3),
], ids=["after-the-mark", "line-after-the-mark", "mark-inside"])
def test_read_lines_counts_lines_from_the_first_byte_after_a_byte_order_mark(tmp_path, data, line):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        read_lines(path)
    assert str(err.value) == f"{path}: line {line}: byte 0xe9 is not UTF-8"


def test_read_lines_drops_only_a_leading_byte_order_mark(tmp_path):
    (tmp_path / "f.txt").write_bytes(b"\xef\xbb\xbfa\r\n\xef\xbb\xbfb\n")
    assert read_lines(tmp_path / "f.txt") == ["a", "\ufeffb"]


def test_write_text_writes_utf8_as_path_write_text_does(tmp_path):
    parts = ["a\n", "\u00e9\r\n", "b"]
    write_text(tmp_path / "got.txt", iter(parts))
    (tmp_path / "want.txt").write_text("".join(parts), encoding="utf-8")
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


# Every writer of the package, by the file it writes.
WRITERS = {
    "ledger.csv": lambda path: write_bank_csv(path, simulate_bank(CONFIG)),
    "calibration.txt": lambda path: write_calibration_report(path, run_calibration(PORTFOLIO)),
    "portfolio.csv": lambda path: save_portfolio(path, PORTFOLIO, metadata={"seed": 7}),
    "sweep.csv": lambda path: write_sweep_csv(path, run_sweep([CONFIG], [1.0, 2.0])),
    "sweep.meta": lambda path: write_sweep_meta(path, {"seed": "7"}),
    "fig3.svg": lambda path: emit_report(run_sweep([CONFIG], [1.0, 2.0]), ReportKind.BANK_MULTIPLE, path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_every_writer_writes_the_same_bytes_given_a_str_or_a_path(tmp_path, name):
    (tmp_path / "str").mkdir()
    (tmp_path / "path").mkdir()
    WRITERS[name](str(tmp_path / "str" / name))
    WRITERS[name](tmp_path / "path" / name)
    written = sorted(os.listdir(tmp_path / "str"))
    assert name in written and written == sorted(os.listdir(tmp_path / "path"))
    for file in written:
        assert (tmp_path / "str" / file).read_bytes() == (tmp_path / "path" / file).read_bytes(), file
