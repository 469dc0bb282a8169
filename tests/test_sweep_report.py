"""Rate-grid sweeps, CSV round-trips, and SVG report emission."""

import dataclasses
import xml.etree.ElementTree as ET

import pytest

from venturebank.bank_engine import ScenarioConfig
from venturebank.din import DinTerms
from venturebank.portfolio import ReturnPortfolio, shift_to_mean
from venturebank.report import ReportKind, emit_report
from venturebank.sweep import (
    SweepError,
    SweepRow,
    SweepTable,
    config_digest,
    parse_rate_grid,
    read_sweep_csv,
    run_sweep,
    write_sweep_csv,
)


@pytest.fixture(scope="module")
def six_curve_table(compressed50):
    configs = []
    for target in (1.10, 1.31, 1.50):
        shifted = dataclasses.replace(shift_to_mean(compressed50, target), label=f"{target:.2f}x")
        for moc in (30.0, 43.0):
            configs.append(ScenarioConfig(shifted, DinTerms(), 0.0, moc))
    return run_sweep(configs, parse_rate_grid("0.53:7.50:0.25"))


class TestRateGrid:
    def test_default_grid_shape(self):
        grid = parse_rate_grid("0.53:7.50:0.25")
        assert len(grid) == 29
        assert grid[0] == 0.53
        assert grid[-1] == 7.50
        assert grid[1] == pytest.approx(0.78)

    def test_exact_step_endpoint_not_duplicated(self):
        assert parse_rate_grid("1.0:2.0:0.5") == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("bad", ["1:2", "2.0:1.0:0.5", "1.0:2.0:0", "a:b:c",
                                     "0.5:inf:0.25", "0.5:7.5:nan", "0.5:7.5:inf"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(SweepError):
            parse_rate_grid(bad)


class TestRunSweep:
    def test_singleton(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.0, 30)
        table = run_sweep([cfg], [1.82])
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.bank_rate_pct == pytest.approx(2.07)
        assert row.survived == (row.bank_multiple >= 1.0)

    def test_six_curves_full_grid(self, six_curve_table):
        assert len(six_curve_table.rows) == 6 * 29
        assert len(six_curve_table.curves()) == 6

    def test_rows_sorted_and_unique(self, six_curve_table):
        keys = [r.key() for r in six_curve_table.rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_survived_flag_consistent(self, six_curve_table):
        for row in six_curve_table.rows:
            assert row.survived == (row.bank_multiple >= 1.0)

    def test_bank_multiple_non_increasing_along_grid(self, six_curve_table):
        for rows in six_curve_table.curves().values():
            multiples = [r.bank_multiple for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(multiples, multiples[1:]))

    def test_underwriter_return_non_increasing_along_grid(self, six_curve_table):
        for rows in six_curve_table.curves().values():
            returns = [r.underwriter_return for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(returns, returns[1:]))

    def test_empty_grid_rejected(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.0, 30)
        with pytest.raises(SweepError):
            run_sweep([cfg], [])

    def test_digest_covers_fund_values_under_one_label(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.0, 30)
        bumped = dataclasses.replace(
            cfg, portfolio=ReturnPortfolio(anchor131.funds[:-1] + (anchor131.funds[-1] + 1e-9,),
                                           anchor131.label))
        assert config_digest([cfg], [1.82]) != config_digest([bumped], [1.82])

    def test_failing_scenario_names_the_culprit(self):
        bad_terms = DinTerms(coverage_fraction=0.0, coverage_floor=0.0)
        cfg = ScenarioConfig(ReturnPortfolio((1.2,), "badcase"), bad_terms, 0.0, 30)
        with pytest.raises(SweepError, match="badcase.*1.82"):
            run_sweep([cfg], [1.82])


class TestSweepCsv:
    def test_round_trip_is_value_identical(self, tmp_path, six_curve_table):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, six_curve_table)
        back = read_sweep_csv(path)
        assert back.rows == six_curve_table.rows

    @pytest.mark.parametrize("label", ["a,b", 'say "hi"', "two\nlines"])
    def test_label_with_comma_or_quote_round_trips(self, tmp_path, label):
        table = SweepTable((SweepRow(label, 30.0, 2.0, 1.5, 0.1, True),
                            SweepRow(label, 30.0, 2.25, 0.9, -0.1, False)))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, table)
        assert read_sweep_csv(path).rows == table.rows

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(SweepError):
            read_sweep_csv(path)

    def test_survived_must_be_true_or_false(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("portfolio,moc,bank_rate_pct,bank_multiple,underwriter_return,survived\n"
                        "p,30.0,2.0,1.5,0.1,true\np,30.0,2.25,1.4,0.1,yes\n", encoding="utf-8")
        with pytest.raises(SweepError, match="line 3"):
            read_sweep_csv(path)

    def test_unsorted_rows_rejected(self):
        row = SweepRow("p", 30.0, 2.0, 1.5, 0.1, True)
        row2 = SweepRow("p", 30.0, 1.0, 1.6, 0.1, True)
        with pytest.raises(SweepError):
            SweepTable((row, row2))


class TestReports:
    def test_bank_chart_has_six_curves_and_a_reference_line(self, tmp_path, six_curve_table):
        out = emit_report(six_curve_table, ReportKind.BANK_MULTIPLE, tmp_path / "fig3.svg")
        svg = out.read_text()
        assert svg.count("<polyline") == 6
        assert svg.count('class="refline"') == 1
        assert "break-even = 1.0" in svg
        assert not (tmp_path / "fig3.csv").exists()

    def test_underwriter_chart_reference_at_zero(self, tmp_path, six_curve_table):
        out = emit_report(six_curve_table, ReportKind.UNDERWRITER_RETURN, tmp_path / "fig4.svg")
        svg = out.read_text()
        assert "break-even = 0" in svg
        assert svg.count('class="refline"') == 1

    def test_labels_are_xml_escaped(self, tmp_path):
        cfg = ScenarioConfig(ReturnPortfolio((0.5, 2.0), "a<b&c"), DinTerms(), 0.0, 30)
        table = run_sweep([cfg], [1.0, 2.0])
        for kind in ReportKind:
            out = emit_report(table, kind, tmp_path / f"{kind.value}.svg")
            texts = [t.text for t in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
            assert any("a<b&c" in t for t in texts)

    def test_empty_table_creates_no_file(self, tmp_path):
        empty = SweepTable(())
        target = tmp_path / "out.svg"
        with pytest.raises(ValueError):
            emit_report(empty, ReportKind.BANK_MULTIPLE, target)
        assert not target.exists()
