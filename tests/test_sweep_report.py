"""Rate-grid sweeps, CSV round-trips, and SVG report emission."""

import csv
import dataclasses
import math
import re
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from venturebank import sweep
from venturebank.bank_engine import ScenarioConfig
from venturebank.din import DinTerms
from venturebank.market_data import funds_rate
from venturebank.portfolio import ReturnPortfolio, shift_to_mean
from venturebank.report import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    WIDTH,
    ReportKind,
    emit_report,
)
from venturebank.sweep import (
    CSV_HEADER,
    SweepCurve,
    SweepError,
    SweepTable,
    config_digest,
    parse_rate_grid,
    run_sweep,
    write_sweep_csv,
    write_sweep_meta,
)


# With rates spanning [0, 22] and values [0, 20] (padded to [-1, 21]),
# these put a pixel on an odd multiple of 1/8, a tie of "%.2f": one
# rounding more or less in px or py there flips a printed digit.
PLOT_W, PLOT_H = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B
X_TIES = [k / 8 / PLOT_W * 22.0 for k in range(1, 8 * PLOT_W, 2)]
Y_TIES = [y for k in range(1, 8 * PLOT_H, 2) if 0.0 < (y := 21.0 - k / 8 / PLOT_H * 22.0) < 20.0]


@pytest.fixture(scope="module")
def six_configs(compressed50):
    configs = []
    for target in (1.10, 1.31, 1.50):
        shifted = dataclasses.replace(shift_to_mean(compressed50, target), label=f"{target:.2f}x")
        for moc in (30.0, 43.0):
            configs.append(ScenarioConfig(shifted, DinTerms(), 0.0, moc))
    return configs


@pytest.fixture(scope="module")
def six_curve_table(six_configs):
    return run_sweep(six_configs, parse_rate_grid("0.53:7.50:0.25"))


@pytest.fixture(scope="module")
def dense_table(six_configs):
    """The six paper curves over the benchmark's dense grid: 1,395 rates, 8,370 rows."""
    return run_sweep(six_configs, parse_rate_grid("0.53:7.50:0.005"))


def reference_csv(table: SweepTable) -> str:
    """Row-at-a-time CSV formatting, kept as the oracle of the column writer."""
    def field(text):
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text

    lines = [CSV_HEADER]
    for c in table.curves:
        for pct, m, u in zip(table.rates_pct, c.multiples, c.returns):
            lines.append(f"{field(c.label)},{c.moc!r},{pct!r},{m!r},{u!r},{str(m >= 1.0).lower()}")
    return "\n".join(lines) + "\n"


def read_rows(path) -> list[tuple]:
    """sweep.csv parsed back into ``SweepTable.rows`` tuples."""
    with open(path, encoding="utf-8", newline="") as f:
        records = list(csv.reader(f))
    assert records[0] == CSV_HEADER.split(",")
    return [(label, float(moc), float(pct), float(m), float(u), {"true": True, "false": False}[s])
            for label, moc, pct, m, u, s in records[1:]]


def one_curve(label="p", moc=30.0, rates=(2.0, 2.25), multiples=(1.5, 0.9), returns=(0.1, -0.1)):
    return SweepTable(tuple(rates), (SweepCurve(label, moc, tuple(multiples), tuple(returns)),))


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

    def test_oversized_grid_rejected(self):
        with pytest.raises(SweepError, match="'0:50:0.0004'; 125001 points, more than 100000"):
            parse_rate_grid("0:50:0.0004")

    def test_grid_at_the_size_limit_is_built(self):
        assert len(parse_rate_grid("0:99999:1")) == 100_000

    @pytest.mark.parametrize("spec", ["1:1.000000001:0.0000000001", "0:0.0000000005:0.0000000001",
                                      "0:0.0000001:0.00000000001", "0:0.0000001:0.0000000019", "0:0.0000000019:1"])
    def test_a_grid_finer_than_its_resolution_is_rejected(self, spec):
        """These specs once gave one rate for eleven, kept only ``hi``, or repeated a rounded point."""
        with pytest.raises(SweepError, match=rf"^bad grid '{re.escape(spec)}'; step and span must be at least "
                                             r"its resolution, 2e-09$"):
            parse_rate_grid(spec)

    @pytest.mark.parametrize("spec, grid", [("0:0.000000002:0.000000002", [0.0, 2e-09]),
                                            ("0:0.000000004:0.000000002", [0.0, 2e-09, 4e-09]),
                                            ("1:1.000000003:1", [1.0, 1.000000003])])
    def test_a_grid_at_its_resolution_keeps_every_point(self, spec, grid):
        assert parse_rate_grid(spec) == grid


class TestRunSweep:
    def test_singleton(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.0, 30)
        table = run_sweep([cfg], [1.82])
        assert len(table.rows) == 1
        _label, _moc, rate_pct, multiple, _ret, survived = table.rows[0]
        assert rate_pct == pytest.approx(2.07)
        assert survived == (multiple >= 1.0)

    def test_six_curves_full_grid(self, six_curve_table):
        assert len(six_curve_table.rows) == 6 * 29
        assert len(six_curve_table.curves) == 6

    def test_rows_sorted_and_unique(self, six_curve_table):
        keys = [r[:3] for r in six_curve_table.rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_survived_flag_consistent(self, six_curve_table):
        for _label, _moc, _pct, multiple, _ret, survived in six_curve_table.rows:
            assert survived == (multiple >= 1.0)

    def test_bank_multiple_non_increasing_along_grid(self, six_curve_table):
        for c in six_curve_table.curves:
            multiples = c.multiples
            assert all(b <= a + 1e-12 for a, b in zip(multiples, multiples[1:]))

    def test_underwriter_return_non_increasing_along_grid(self, six_curve_table):
        for c in six_curve_table.curves:
            returns = c.returns
            assert all(b <= a + 1e-12 for a, b in zip(returns, returns[1:]))

    def test_empty_grid_rejected(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.0, 30)
        with pytest.raises(SweepError):
            run_sweep([cfg], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rate_names_grid_and_index(self, anchor131, bad):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.0, 30)
        with pytest.raises(SweepError, match=r"^rate grid entry 1: interbank rate must be finite"):
            run_sweep([cfg], [1.0, bad, 2.0])

    @pytest.mark.parametrize("grid, message", [
        ([1.0, 1.0, 2.0], "^rate grid must be strictly ascending$"),
        ([1.0, 2.0, 1.5], "^rate grid must be strictly ascending$"),
        ([1.0, 50.5], r"^rate grid must lie within \[0, 50\] percent$"),
        ([-0.5, 1.0], "^rate grid entry 0: interbank rate must be >= 0, got -0.5$"),
        (np.array([]), "^rate grid is empty$"),
    ], ids=["duplicate", "descending", "above-50", "negative", "empty-ndarray"])
    def test_bad_grid_rejected(self, anchor131, grid, message):
        with pytest.raises(SweepError, match=message):
            run_sweep([ScenarioConfig(anchor131, DinTerms(), 0.0, 30)], grid)

    @pytest.mark.parametrize("grid", [[0.0, 1e-17], np.array([0.0, 1e-17, 1.0])], ids=["list", "ndarray"])
    def test_grid_rates_with_one_funding_rate_fail_before_any_kernel(self, anchor131, monkeypatch, grid):
        monkeypatch.setattr(sweep, "rate_curves", lambda cfg, rates: pytest.fail("a kernel ran"))
        with pytest.raises(SweepError, match=r"^rate grid entries 0 and 1 both fund at 0\.25 percent$"):
            run_sweep([ScenarioConfig(anchor131, DinTerms(), 0.0, 30)], grid)

    @pytest.mark.parametrize("grid", [(1.0, 2.0), range(1, 3), np.array([1.0, 2.0])],
                             ids=["tuple", "range", "ndarray"])
    def test_any_sequence_grid_writes_the_list_grid_bytes(self, anchor131, tmp_path, grid):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.0, 30)
        write_sweep_csv(tmp_path / "want.csv", run_sweep([cfg], [1.0, 2.0]))
        write_sweep_csv(tmp_path / "got.csv", run_sweep([cfg], grid))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_row_cap_is_checked_before_the_grid_and_any_kernel(self, anchor131, monkeypatch):
        """One row past ``MAX_SWEEP_ROWS`` fails naming the cap before the grid's own checks; at the cap,
        the grid's check (here of its repeated rate) decides."""
        monkeypatch.setattr(sweep, "rate_curves", lambda cfg, rates: pytest.fail("a kernel ran"))
        configs = [ScenarioConfig(anchor131, DinTerms(), 0.0, 30)] * 10
        with pytest.raises(SweepError, match=r"^10 curves x 100001 rates is more than MAX_SWEEP_ROWS \(1000000\) "):
            run_sweep(configs, [1.0] * 100_001)
        with pytest.raises(SweepError, match="^rate grid must be strictly ascending$"):
            run_sweep(configs, [1.0] * 100_000)

    def test_row_cap_admits_the_default_curves_at_the_largest_grid(self):
        assert 6 * len(parse_rate_grid("0:49.75:0.0005")) == 597_006 <= sweep.MAX_SWEEP_ROWS

    def test_digest_covers_fund_values_under_one_label(self, anchor131):
        cfg = ScenarioConfig(anchor131, DinTerms(), 0.0, 30)
        bumped = dataclasses.replace(
            cfg, portfolio=ReturnPortfolio(anchor131.funds[:-1] + (anchor131.funds[-1] + 1e-9,),
                                           anchor131.label))
        assert config_digest([cfg], [1.82]) != config_digest([bumped], [1.82])

    def test_digest_is_one_per_grid_whatever_its_sequence_type(self):
        cfg = ScenarioConfig(ReturnPortfolio((1.0, 2.0), "a"), DinTerms(), 0.0, 30)
        grids = ([1.0, 2.0], range(1, 3), np.array([1.0, 2.0]))
        assert len({config_digest([cfg], g) for g in grids}) == 1

    def test_failing_scenario_names_the_culprit(self):
        bad_terms = DinTerms(coverage_fraction=0.0, coverage_floor=0.0)
        cfg = ScenarioConfig(ReturnPortfolio((1.2,), "badcase"), bad_terms, 0.0, 30)
        with pytest.raises(SweepError, match="badcase.*1.82"):
            run_sweep([cfg], [1.82])


class TestSweepCsv:
    def test_meta_writes_one_line_per_key_sorted(self, tmp_path):
        write_sweep_meta(tmp_path / "sweep.meta", {"seed": "7", "config_digest": "x", "generated_at": "t"})
        assert (tmp_path / "sweep.meta").read_bytes() == b"config_digest=x\ngenerated_at=t\nseed=7\n"

    @pytest.mark.parametrize("provenance, message", [
        ({"seed": "7", "generated_at": "t\rseed=8"}, "sidecar key 'generated_at' must hold no '=' or line break, "
                                                   "its value no line break: 't\\rseed=8'"),
        ({"a=b": "1"}, "sidecar key 'a=b' must hold no '=' or line break, its value no line break: '1'"),
    ])
    def test_meta_refuses_a_line_that_reads_as_another_key(self, tmp_path, provenance, message):
        with pytest.raises(ValueError) as err:
            write_sweep_meta(tmp_path / "sweep.meta", provenance)
        assert str(err.value) == message
        assert not (tmp_path / "sweep.meta").exists()

    def test_round_trip_is_value_identical(self, tmp_path, six_curve_table):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, six_curve_table)
        assert read_rows(path) == six_curve_table.rows

    @pytest.mark.parametrize("label", ["a,b", 'say "hi"', "two\nlines"])
    def test_label_with_comma_or_quote_round_trips(self, tmp_path, label):
        table = one_curve(label)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, table)
        assert read_rows(path) == table.rows

    def test_ragged_curve_rejected(self):
        with pytest.raises(SweepError, match="'p' at moc 30 has 1/2 values for 2 rates"):
            one_curve(multiples=(1.5,))

    def test_survived_must_be_true_or_false(self, tmp_path):
        below = math.nextafter(1.0, 0.0)
        table = one_curve(rates=(1.0, 2.0, 3.0), multiples=(1.0, below, 0.0),
                          returns=(0.0, 0.0, 0.0))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, table)
        survived = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        assert survived == ["true", "false", "false"]

    @pytest.mark.parametrize("column", ["multiples", "returns"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_curve_moc_and_rate(self, column, bad):
        values = {"multiples": (1.5, 0.9, 0.8), "returns": (0.1, -0.1, -0.2), column: (1.0, bad, 0.0)}
        name = column[:-1]
        with pytest.raises(SweepError, match=rf"^curve 'p' at moc 30 has {name} {bad!r} at rate 2\.25$"):
            one_curve(rates=(2.0, 2.25, 2.5), **values)

    @pytest.mark.parametrize("rates, index, bad", [
        ((1.0, math.inf), 1, math.inf), ((-math.inf, 1.0), 0, -math.inf), ((math.nan,), 0, math.nan),
    ])
    def test_non_finite_rate_is_named(self, rates, index, bad):
        with pytest.raises(SweepError, match=rf"^rate {index} is {bad!r}: rates must be finite$"):
            one_curve(rates=rates, multiples=(1.0,) * len(rates), returns=(0.0,) * len(rates))

    def test_finite_values_whose_sum_overflows_are_kept(self, tmp_path):
        table = one_curve(multiples=(1.7e308, 1.7e308), returns=(-1.7e308, -1.7e308))
        write_sweep_csv(tmp_path / "sweep.csv", table)
        assert read_rows(tmp_path / "sweep.csv") == table.rows

    def test_unsorted_rows_rejected(self):
        with pytest.raises(SweepError, match="strictly ascend"):
            one_curve(rates=(2.0, 1.0))
        with pytest.raises(SweepError, match="strictly ascend"):
            one_curve(rates=(2.0, 2.0))
        with pytest.raises(SweepError, match="strictly ascend"):
            one_curve(rates=(1.0, math.nan, 2.0), multiples=(1.0,) * 3, returns=(0.0,) * 3)
        b, a = (SweepCurve(label, 30.0, (1.0,), (0.0,)) for label in ("b", "a"))
        with pytest.raises(SweepError, match="sorted"):
            SweepTable((2.0,), (b, a))

    def test_duplicate_curve_named(self):
        curve = SweepCurve("1.10x", 30.0, (1.0,), (0.0,))
        with pytest.raises(SweepError, match="duplicate curve '1.10x' at moc 30$"):
            SweepTable((2.0,), (curve, curve))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_column_writer_matches_row_oracle(self, data):
        lo = data.draw(st.floats(0.0, 10.0))
        hi = data.draw(st.floats(lo + 0.01, 20.0))
        step = data.draw(st.floats(0.001, 5.0))
        grid = parse_rate_grid(f"{lo}:{hi}:{step}")
        assume(len(grid) <= 200)
        rates = tuple(funds_rate(g) for g in grid)
        assume(all(a < b for a, b in zip(rates, rates[1:])))
        labels = st.text(st.sampled_from('ab1.x ,"\n\r'), min_size=1, max_size=6)
        mocs = st.one_of(st.sampled_from([30.0, 43.0]), st.floats(0.5, 100.0))
        values = st.one_of(st.just(1.0), st.floats(allow_nan=False, allow_infinity=False, width=64))
        keys = data.draw(st.sets(st.tuples(labels, mocs), min_size=1, max_size=4))
        curves = tuple(
            SweepCurve(label, moc, *(tuple(data.draw(st.lists(values, min_size=len(rates),
                                                               max_size=len(rates))))
                                     for _ in range(2)))
            for label, moc in sorted(keys)
        )
        table = SweepTable(rates, curves)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep.csv"
            write_sweep_csv(path, table)
            assert path.read_bytes() == reference_csv(table).encode("utf-8")

    @pytest.mark.parametrize("case", ["dense", "label with comma, quote and line break", "header only",
                                      "longer file at the target"])
    def test_streamed_file_matches_the_one_string_writer(self, tmp_path, dense_table, case):
        table = {"dense": dense_table, "label with comma, quote and line break": one_curve(label='a,"b"\r\nc'),
                 "header only": SweepTable((2.0, 2.25), ()), "longer file at the target": one_curve()}[case]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        got.write_text("x" * 10_000 + "\n", encoding="utf-8")  # the stream must truncate it
        write_sweep_csv(got, table)
        oracles.write_sweep_csv(want, table)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=10, deadline=None)
    @given(order=st.permutations(range(6)))
    def test_config_order_does_not_change_outputs(self, six_configs, order):
        grid = parse_rate_grid("0.53:7.50:0.25")
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for configs in (six_configs, [six_configs[i] for i in order]):
                table = run_sweep(configs, grid)
                write_sweep_csv(Path(tmp) / "sweep.csv", table)
                emit_report(table, ReportKind.BANK_MULTIPLE, Path(tmp) / "fig3.svg")
                emit_report(table, ReportKind.UNDERWRITER_RETURN, Path(tmp) / "fig4.svg")
                outputs.append([(Path(tmp) / name).read_bytes()
                                for name in ("sweep.csv", "fig3.svg", "fig4.svg")])
        assert outputs[0] == outputs[1]


class TestReports:
    def test_bank_chart_has_six_curves_and_a_reference_line(self, tmp_path, six_curve_table):
        emit_report(six_curve_table, ReportKind.BANK_MULTIPLE, tmp_path / "fig3.svg")
        svg = (tmp_path / "fig3.svg").read_text()
        assert svg.count("<polyline") == 6
        assert svg.count('class="refline"') == 1
        assert "break-even = 1.0" in svg
        assert not (tmp_path / "fig3.csv").exists()

    def test_writes_the_file_it_is_given_and_nothing_else(self, tmp_path, six_curve_table):
        """As every other writer, it returns None and makes no directory: a missing one is an OS error."""
        assert emit_report(six_curve_table, ReportKind.BANK_MULTIPLE, tmp_path / "fig3.svg") is None
        with pytest.raises(FileNotFoundError):
            emit_report(six_curve_table, ReportKind.BANK_MULTIPLE, tmp_path / "new" / "fig3.svg")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig3.svg"]

    def test_underwriter_chart_reference_at_zero(self, tmp_path, six_curve_table):
        emit_report(six_curve_table, ReportKind.UNDERWRITER_RETURN, tmp_path / "fig4.svg")
        svg = (tmp_path / "fig4.svg").read_text()
        assert "break-even = 0" in svg
        assert svg.count('class="refline"') == 1

    def test_labels_are_xml_escaped(self, tmp_path):
        cfg = ScenarioConfig(ReturnPortfolio((0.5, 2.0), "a<b&c"), DinTerms(), 0.0, 30)
        table = run_sweep([cfg], [1.0, 2.0])
        for kind in ReportKind:
            emit_report(table, kind, out := tmp_path / f"{kind.value}.svg")
            texts = [t.text for t in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
            assert any("a<b&c" in t for t in texts)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_chart_bytes_match_per_point_oracle(self, data):
        """Both charts match the per-point writer byte for byte, with no numpy warning; where an
        axis span overflows, which the per-point writer draws as nan pixels, no file is written."""
        ties = data.draw(st.booleans())
        if ties:
            rates = sorted({0.0, 22.0, *data.draw(st.lists(st.sampled_from(X_TIES), max_size=28))})
            values = st.sampled_from(Y_TIES)
        else:
            extreme = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300])
            finite = st.floats(allow_nan=False, allow_infinity=False)
            values = st.one_of(extreme, st.floats(-10.0, 10.0), finite)
            rates = sorted(data.draw(st.lists(values, min_size=1, max_size=30, unique=True)))
        labels = st.text(st.sampled_from('ab1 <&>"'), min_size=1, max_size=5)
        keys = data.draw(st.sets(st.tuples(labels, st.sampled_from([30.0, 43.0])),
                                 min_size=1, max_size=4))

        def column():
            if ties:
                return (0.0, *data.draw(st.lists(values, min_size=len(rates) - 2,
                                                 max_size=len(rates) - 2)), 20.0)
            if data.draw(st.booleans()):  # a flat series
                return (data.draw(values),) * len(rates)
            return tuple(data.draw(st.lists(values, min_size=len(rates), max_size=len(rates))))

        table = SweepTable(tuple(rates), tuple(SweepCurve(label, moc, column(), column())
                                               for label, moc in sorted(keys)))
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ReportKind:
                want, out = oracles.chart_svg(table, kind), Path(tmp) / f"{kind.value}.svg"
                if "nan" in want:  # no label or fixed text holds "nan"
                    with pytest.raises(ValueError, match="^cannot chart the [xy] axis: .* overflow its span$"):
                        emit_report(table, kind, out)
                    assert not out.exists()
                else:
                    emit_report(table, kind, out)
                    assert out.read_bytes() == want.encode("utf-8")

    def test_reference_line_outside_every_series_matches_per_point_oracle(self, tmp_path):
        """Every multiple above 1.0 and every return below 0: the reference line sets one end of the y axis."""
        table = SweepTable((2.0, 2.25, 2.5), (SweepCurve("a", 30.0, (1.5, 1.25, 1.1), (-0.1, -0.2, -0.3)),
                                              SweepCurve("b", 43.0, (2.0, 1.7, 1.01), (-0.05, -0.15, -0.4))))
        for kind, outside in ((ReportKind.BANK_MULTIPLE, max), (ReportKind.UNDERWRITER_RETURN, min)):
            emit_report(table, kind, out := tmp_path / f"{kind.value}.svg")
            svg = out.read_bytes()
            assert svg == oracles.chart_svg(table, kind).encode("utf-8")
            ref = float(re.search(rb'class="refline" x1="\d+" y1="([\d.]+)"', svg).group(1))
            pixels = [float(y) for y in re.findall(rb',([\d.]+)', b" ".join(re.findall(rb'points="([^"]*)"', svg)))]
            assert outside(pixels + [ref]) == ref and ref not in pixels

    @pytest.mark.parametrize("rates, multiples, axis", [
        ((2.0, 2.25), (1e308, -1e308), "y axis: values from -1e+308 to 1e+308"),
        ((2.0, 2.25), (0.0, 1.7e308), "y axis: values from 0.0 to 1.7e+308"),  # only the padding overflows
        ((-1e308, 1e308), (1.5, 0.9), "x axis: values from -1e+308 to 1e+308"),
    ])
    def test_overflowing_span_names_the_axis_and_creates_nothing(self, tmp_path, rates, multiples, axis):
        table = one_curve(rates=rates, multiples=multiples)
        target = tmp_path / "charts" / "fig3.svg"
        with pytest.raises(ValueError, match=re.escape(f"cannot chart the {axis} overflow its span")):
            emit_report(table, ReportKind.BANK_MULTIPLE, target)
        assert not target.parent.exists()

    def test_empty_table_creates_no_file(self, tmp_path):
        empty = SweepTable((), ())
        target = tmp_path / "out.svg"
        with pytest.raises(ValueError):
            emit_report(empty, ReportKind.BANK_MULTIPLE, target)
        assert not target.exists()
