"""Rate CSV ingestion and window statistics."""

import datetime as dt
import importlib.util
import math
import statistics
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venturebank.market_data import (
    EmptyWindowError,
    LiborLoadError,
    LiborSeries,
    default_snapshot_path,
    funds_rate,
    load_libor_csv,
    window_stats,
)
from venturebank.market_data import _median


def write_csv(tmp_path, body, name="rates.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestLoad:
    def test_missing_marker_rows_are_skipped(self, tmp_path):
        path = write_csv(tmp_path, "DATE,USD12MD156N\n2001-01-01,4.5\n2001-01-02,4.6\n2001-01-03,.\n")
        series = load_libor_csv(path)
        assert len(series) == 2
        assert (series.dates[0], series.rates[0]) == (dt.date(2001, 1, 1), 4.5)

    def test_malformed_date_names_line(self, tmp_path):
        path = write_csv(tmp_path, "DATE,X\n2016-01-04,1.0\n2016-13-45,1.0\n")
        with pytest.raises(LiborLoadError, match="line 3"):
            load_libor_csv(path)

    def test_non_numeric_value_is_an_error_not_a_skip(self, tmp_path):
        path = write_csv(tmp_path, "DATE,X\n2016-01-04,n/a\n")
        with pytest.raises(LiborLoadError, match="line 2"):
            load_libor_csv(path)

    def test_all_rows_missing_is_empty_series_error(self, tmp_path):
        path = write_csv(tmp_path, "DATE,X\n2016-01-04,.\n2016-01-05,.\n")
        with pytest.raises(LiborLoadError, match="no usable rows"):
            load_libor_csv(path)

    def test_out_of_order_dates_rejected(self, tmp_path):
        path = write_csv(tmp_path, "DATE,X\n2016-01-05,1.0\n2016-01-04,1.1\n")
        with pytest.raises(LiborLoadError, match="line 3"):
            load_libor_csv(path)

    @pytest.mark.parametrize("row, problem", [
        ("2016-01-05,nan", "2016-01-05: rate must be finite, got nan"),
        ("2016-01-05,inf", "2016-01-05: rate must be finite, got inf"),
        ("2016-01-05,-1", "rate -1.0 on 2016-01-05 outside [0.0, 50.0]"),
        ("2016-01-05,55", "rate 55.0 on 2016-01-05 outside [0.0, 50.0]"),
        ("2016-01-04,1.2", "dates must be strictly increasing; 2016-01-04 follows 2016-01-04"),
    ], ids=["nan", "inf", "negative", "above-50", "repeated-date"])
    def test_bad_observation_names_its_line(self, tmp_path, row, problem):
        path = write_csv(tmp_path, f"DATE,X\n2016-01-04,1.0\n\n2016-01-04,.\n{row}\n2016-01-06,1.1\n")
        with pytest.raises(LiborLoadError) as err:
            load_libor_csv(path)
        assert str(err.value) == f"{path}: line 5: {problem}"  # blank line 3 and missing-value line 4 count

    def test_header_required(self, tmp_path):
        path = write_csv(tmp_path, "2016-01-04,1.0\n")
        with pytest.raises(LiborLoadError, match="line 1"):
            load_libor_csv(path)

    def test_rate_out_of_range_rejected(self, tmp_path):
        path = write_csv(tmp_path, "DATE,X\n2016-01-04,55.0\n")
        with pytest.raises(LiborLoadError, match="line 2"):
            load_libor_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LiborLoadError, match="no such file"):
            load_libor_csv(tmp_path / "absent.csv")

    def test_file_that_is_not_utf8_raises_load_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"DATE,X\n2016-01-04,1.0\n2016-01-05,\xe9\n")
        with pytest.raises(LiborLoadError) as err:
            load_libor_csv(path)
        assert str(err.value) == f"{path}: line 3: byte 0xe9 is not UTF-8"


class TestWindowStats:
    def test_constant_series(self, tmp_path):
        body = "DATE,X\n" + "\n".join(f"2010-01-{d:02d},2.00" for d in range(1, 11)) + "\n"
        series = load_libor_csv(write_csv(tmp_path, body))
        stats = window_stats(series, dt.date(2010, 1, 1), dt.date(2010, 1, 10))
        assert stats.median == 2.0
        assert stats.mean == 2.0
        assert stats.count == 10

    def test_empty_window_error_is_distinct_from_load_errors(self, tmp_path):
        series = load_libor_csv(write_csv(tmp_path, "DATE,X\n2010-06-01,2.0\n"))
        with pytest.raises(EmptyWindowError):
            window_stats(series, dt.date(2011, 1, 1), dt.date(2011, 12, 31))
        assert not issubclass(EmptyWindowError, LiborLoadError)

    @pytest.mark.parametrize("start, end, bounds", [
        (dt.date(2011, 1, 1), dt.date(2011, 12, 31), "from 2011-01-01 through 2011-12-31"),
        (dt.date(2011, 1, 1), None, "from 2011-01-01"),
        (None, dt.date(2009, 12, 31), "through 2009-12-31"),
    ])
    def test_empty_window_names_bounds_and_span(self, tmp_path, start, end, bounds):
        series = load_libor_csv(write_csv(tmp_path, "DATE,X\n2010-06-01,2.0\n2010-06-02,2.5\n"))
        with pytest.raises(EmptyWindowError,
                           match=f"^no observations {bounds}; the series spans 2010-06-01 to 2010-06-02$"):
            window_stats(series, start, end)

    def test_inverted_window_rejected(self, tmp_path):
        series = load_libor_csv(write_csv(tmp_path, "DATE,X\n2010-06-01,2.0\n"))
        with pytest.raises(ValueError, match="after end"):
            window_stats(series, dt.date(2012, 1, 1), dt.date(2011, 1, 1))

    @pytest.mark.parametrize("rates", [
        (2.5,), (0.1, 0.2), (0.3, 0.1, 0.2), (5.37, 1.0, 0.1, 0.2), (0.1, 0.7, 0.1, 0.7),
    ])
    def test_median_matches_statistics(self, rates):
        assert repr(_median(rates)) == repr(statistics.median(rates))

    @given(st.lists(st.floats(0, 50), min_size=1, max_size=41))
    @settings(max_examples=200)
    def test_median_matches_statistics_on_odd_and_even_windows(self, rates):
        assert repr(_median(tuple(rates))) == repr(statistics.median(rates))

    def test_count_ignores_missing_rows(self, tmp_path):
        body = "DATE,X\n2010-01-04,1.0\n2010-01-05,.\n2010-01-06,2.0\n2010-01-07,.\n"
        series = load_libor_csv(write_csv(tmp_path, body))
        assert window_stats(series).count == 2


class TestBundledSnapshot:
    WINDOWS = [
        (1986, 2016, 4.26, 4.58),
        (1996, 2016, 2.44, 3.10),
        (2006, 2016, 1.06, 1.94),
    ]

    @pytest.mark.parametrize("start,end,median,mean", WINDOWS)
    def test_window_pairs(self, snapshot, start, end, median, mean):
        stats = window_stats(snapshot, dt.date(start, 1, 1), dt.date(end, 12, 31))
        assert stats.median == pytest.approx(median, abs=0.05)
        assert stats.mean == pytest.approx(mean, abs=0.05)

    def test_extremes_of_recent_twenty_years(self, snapshot):
        rates = snapshot.rates_in_window(dt.date(1996, 1, 1), dt.date(2016, 12, 31))
        assert max(rates) == 7.50
        assert min(rates) == 0.53

    def test_snapshot_contains_missing_markers(self):
        text = default_snapshot_path().read_text(encoding="utf-8")
        assert ",.\n" in text

    def test_snapshot_sits_beside_the_module(self):
        """The file ``importlib.resources`` finds in the package, found without importing it."""
        from importlib import resources

        assert default_snapshot_path() == Path(str(resources.files("venturebank") / "data" / "libor_usd12m.csv"))
        assert default_snapshot_path().is_file()

    def test_data_dir_env_is_ignored(self, tmp_path, monkeypatch):
        """The bundled snapshot is the one default; ``ingest --csv`` reads any other rate file."""
        bundled = default_snapshot_path()
        (tmp_path / "libor_usd12m.csv").write_text("DATE,USD12MD156N\n2010-01-04,2.0\n", encoding="utf-8")
        monkeypatch.setenv("VENTUREBANK_DATA_DIR", str(tmp_path))
        assert default_snapshot_path() == bundled != tmp_path / "libor_usd12m.csv"
        assert len(load_libor_csv(default_snapshot_path())) > 1


class TestSeries:
    DAYS = (dt.date(2010, 1, 4), dt.date(2010, 1, 5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one observation"):
            LiborSeries((), ())

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="2 dates but 1 rates"):
            LiborSeries(self.DAYS, (1.0,))

    def test_dates_must_increase(self):
        with pytest.raises(ValueError, match="2010-01-04 follows 2010-01-05"):
            LiborSeries(self.DAYS[::-1], (1.0, 2.0))

    @pytest.mark.parametrize("bad", [-0.1, 50.5, float("nan")])
    def test_rate_outside_range_names_its_date(self, bad):
        message = "^2010-01-05: rate must be finite, got nan$" if math.isnan(bad) else "on 2010-01-05 outside"
        with pytest.raises(ValueError, match=message):
            LiborSeries(self.DAYS, (1.0, bad))


class TestFundsRate:
    @pytest.mark.parametrize("libor,expected", [(4.26, 4.51), (1.57, 1.82), (0.0, 0.25)])
    def test_quoted_conversions(self, libor, expected):
        assert funds_rate(libor) == pytest.approx(expected, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            funds_rate(-0.1)

    @given(base=st.floats(0, 45), delta=st.floats(0, 4))
    def test_affine(self, base, delta):
        assert funds_rate(base + delta) - funds_rate(base) == pytest.approx(delta, abs=1e-9)


@st.composite
def rate_series(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    start = draw(st.dates(dt.date(1990, 1, 1), dt.date(2015, 1, 1)))
    steps = draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    rates = draw(st.lists(st.floats(0, 50, allow_nan=False), min_size=n, max_size=n))
    dates = [start]
    for s in steps:
        dates.append(dates[-1] + dt.timedelta(days=s))
    return LiborSeries(tuple(dates), tuple(rates))


class TestSeriesProperties:
    @given(series=rate_series())
    @settings(max_examples=60)
    def test_whole_series_equals_open_bounds(self, series):
        assert window_stats(series) == window_stats(series, series.start, series.end)

    @given(series=rate_series(),
           bounds=st.tuples(st.none() | st.dates(dt.date(1989, 12, 1), dt.date(2015, 8, 1)),
                            st.none() | st.dates(dt.date(1989, 12, 1), dt.date(2015, 8, 1))))
    @settings(max_examples=100)
    def test_window_selects_the_rates_dated_inside_it(self, series, bounds):
        start, end = bounds
        assert series.rates_in_window(start, end) == tuple(
            r for d, r in zip(series.dates, series.rates)
            if (start is None or d >= start) and (end is None or d <= end))

    @given(series=rate_series())
    @settings(max_examples=60)
    def test_median_and_mean_bounded_by_extremes(self, series):
        stats = window_stats(series)
        rates = series.rates
        assert min(rates) <= stats.median <= max(rates)
        assert min(rates) - 1e-12 <= stats.mean <= max(rates) + 1e-12


def test_the_bundled_rate_file_is_what_its_tool_builds(tmp_path):
    """``tools/build_libor_snapshot.py`` rebuilds the bundled file byte for byte (the tool needs numpy)."""
    pytest.importorskip("numpy")
    spec = importlib.util.spec_from_file_location(
        "build_libor_snapshot", Path(__file__).resolve().parents[1] / "tools" / "build_libor_snapshot.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.write_csv(*tool.build(), tmp_path / "rates.csv")
    assert (tmp_path / "rates.csv").read_bytes() == default_snapshot_path().read_bytes()
