"""The library twin of the CLI guard: exported constructors and calls at finite extremes.

Every call either returns or raises a ``ValueError`` whose text names the field,
argument or quantity at fault, within a time budget; never another exception.
"""

import dataclasses
import inspect
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from venturebank.bank_engine import (
    ScenarioConfig,
    break_even_rate,
    rate_curves,
    simulate_bank,
    write_bank_csv,
)
from venturebank.din import DinTerms, PremiumBase, coverage_breakeven_method, coverage_sigma_method
from venturebank.portfolio import (
    KauffmanConstraints,
    ReturnPortfolio,
    compress_pairs,
    save_portfolio,
    shift_to_mean,
    synthesize_kauffman,
)
from venturebank.report import ReportKind, emit_report
from venturebank.sweep import SweepCurve, SweepError, SweepTable, run_sweep, write_sweep_csv

EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, 43.0, -1.0, 1e308, -1e308, 1.7e308])
REALS = EXTREMES | st.floats(-4.0, 4.0)
FUNDS = st.lists(st.sampled_from([0.0, 5e-324, 0.5, 1.0, 2.0, 1e200, 1e308, 1.7e308]) | st.floats(0.0, 4.0)
                 | EXTREMES, max_size=6)
YEARS = st.integers(-1, 25)

# What an error may name: a field of the records, an argument of the call, or a quantity
# the package computes from them.
FIELDS = {f.name for record in (ReturnPortfolio, KauffmanConstraints, DinTerms, ScenarioConfig, SweepTable)
          for f in dataclasses.fields(record)} | set(SweepCurve._fields)
QUANTITIES = {"fund", "multiple", "multiples", "clamp losses", "clamp-loss targets", "principal", "premiums",
              "payouts", "proceeds", "face", "gross return", "rate", "rates", "target mean", "axis"}


def attempt(call, *args):
    """``call(*args)``, or None where it raised a ``ValueError`` naming a field, argument or quantity."""
    try:
        return call(*args)
    except ValueError as exc:
        message = str(exc)
        assert message and "\n" not in message, (call.__name__, args, message)
        names = FIELDS | QUANTITIES | set(inspect.signature(call).parameters)
        assert any(re.search(rf"\b{re.escape(name)}\b", message) for name in names), (call.__name__, message)
        return None


def maybe(draw, strategy, default):
    """``default``, or a value drawn from ``strategy``."""
    return draw(st.one_of(st.just(default), strategy))


class TestEveryCallNamesItsFault:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_every_failure_is_a_named_value_error(self, time_budget, data):
        draw = data.draw
        with time_budget(20), tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            constraints = attempt(KauffmanConstraints, draw(st.integers(-1, 12)), *(
                maybe(draw, REALS, default) for default in (1.31, 1.116, 2.72, 17.45)))
            if constraints is not None:
                attempt(synthesize_kauffman, constraints, draw(st.sampled_from([0, 7, -1])))
            p = attempt(ReturnPortfolio, tuple(draw(FUNDS, label="funds")), "p")
            if p is not None:
                attempt(shift_to_mean, p, draw(REALS))
                attempt(compress_pairs, p)
                attempt(coverage_sigma_method, p, draw(REALS))
                attempt(coverage_breakeven_method, p, draw(REALS))
                attempt(save_portfolio, out / "p.csv", p)
            terms = attempt(DinTerms, maybe(draw, REALS, 0.0388), maybe(draw, REALS, 0.0288),
                            maybe(draw, REALS, 0.05), draw(st.sampled_from(list(PremiumBase))),
                            maybe(draw, YEARS, 5), maybe(draw, YEARS, 10))
            if p is None or terms is None:
                return
            cfg = attempt(ScenarioConfig, p, terms, maybe(draw, REALS, 0.02), maybe(draw, REALS, 30.0),
                          maybe(draw, REALS, 1.0))
            if cfg is None:
                return
            result = attempt(simulate_bank, cfg)
            if result is not None:
                attempt(write_bank_csv, out / "ledger.csv", result)
            attempt(break_even_rate, cfg, draw(REALS), draw(REALS))
            attempt(rate_curves, cfg, draw(st.lists(REALS, max_size=4)))
            table = attempt(run_sweep, [cfg], draw(st.lists(REALS, min_size=1, max_size=3)))
            if table is not None:
                attempt(write_sweep_csv, out / "sweep.csv", table)
                attempt(emit_report, table, draw(st.sampled_from(list(ReportKind))), out / "chart.svg")
            rates = tuple(draw(st.lists(REALS, max_size=3)))
            values = st.lists(REALS, min_size=len(rates), max_size=len(rates)).map(tuple)
            drawn = attempt(SweepTable, rates, (SweepCurve("p", draw(REALS), draw(values), draw(values)),))
            if drawn is not None:
                attempt(write_sweep_csv, out / "drawn.csv", drawn)
                attempt(emit_report, drawn, draw(st.sampled_from(list(ReportKind))), out / "chart.svg")


def test_a_sweep_past_the_row_cap_fails_at_once(time_budget):
    """30 curves of the largest grid's 99,501 rates would take about 9 s and 400 MB; the cap refuses them first."""
    cfg = ScenarioConfig(ReturnPortfolio((0.5, 2.0), "p"), DinTerms(), 0.02, 30.0)
    grid = [k * 0.0005 for k in range(99_501)]
    with time_budget(5):
        assert attempt(run_sweep, [cfg] * 30, grid) is None
        with pytest.raises(SweepError, match=r"^30 curves x 99501 rates is more than MAX_SWEEP_ROWS \(1000000\) rows$"):
            run_sweep([cfg] * 30, grid)
