"""Acceptance gate: every shipping criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion.
"""

import dataclasses
import random
import time

from venturebank.bank_engine import ScenarioConfig, break_even_rate, simulate_bank
from venturebank.calibrate import anchor_bank_rate, run_calibration, write_calibration_report
from venturebank.cli import run_cli
from venturebank.din import (
    DinTerms,
    PremiumBase,
    coverage_breakeven_method,
    coverage_sigma_method,
    underwriter_ledger,
)
from venturebank.market_data import load_libor_csv, default_snapshot_path, window_stats, year_window
from venturebank.portfolio import (
    KauffmanConstraints,
    ReturnPortfolio,
    compress_pairs,
    portfolio_stats,
    shift_to_mean,
    synthesize_kauffman,
)
from venturebank.sweep import parse_rate_grid, run_sweep

SEED = 42


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def test_criterion_01_rate_window_statistics():
    started = time.perf_counter()
    series = load_libor_csv(default_snapshot_path())
    pairs = {
        (1986, 2016): (4.26, 4.58),
        (1996, 2016): (2.44, 3.10),
        (2006, 2016): (1.06, 1.94),
    }
    results = {}
    ok = True
    for (a, b), (med_t, mean_t) in pairs.items():
        stats = window_stats(series, *year_window(a, b))
        results[(a, b)] = (stats.median, stats.mean)
        ok &= abs(stats.median - med_t) <= 0.05 and abs(stats.mean - mean_t) <= 0.05
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    detail = ", ".join(
        f"{a}-{b}: med {m:.3f} mean {mn:.3f}" for (a, b), (m, mn) in results.items()
    ) + f"; {elapsed:.3f}s"
    _criterion(1, "rate window statistics", ok, detail)


def test_criterion_02_portfolio_synthesis():
    p = synthesize_kauffman(KauffmanConstraints(), SEED)
    again = synthesize_kauffman(KauffmanConstraints(), SEED)
    stats = portfolio_stats(p)
    sigma = coverage_sigma_method(p, 2.88)
    breakeven = coverage_breakeven_method(p, 2.88)
    ok = (
        len(p) == 99
        and abs(stats.mean - 1.31) <= 0.005
        and abs(stats.stddev - 1.116) <= 0.005
        and abs(sigma.clamp_loss - 2.72) <= 0.05
        and abs(breakeven.clamp_loss - 17.45) <= 0.05
        and abs(sigma.recommended_coverage - 5.60) <= 0.05
        and abs(breakeven.recommended_coverage - 20.33) <= 0.05
        and p.funds == again.funds
    )
    detail = (
        f"mean {stats.mean:.4f}, stddev {stats.stddev:.4f}, "
        f"losses {sigma.clamp_loss:.3f}/{breakeven.clamp_loss:.3f}, "
        f"recs {sigma.recommended_coverage:.3f}/{breakeven.recommended_coverage:.3f}, "
        f"deterministic {p.funds == again.funds}"
    )
    _criterion(2, "portfolio synthesis", ok, detail)


def test_criterion_03_coverage_ratio():
    ratio = DinTerms().coverage_ratio()
    _criterion(3, "terms coverage ratio", abs(ratio - 1.347) <= 0.001, f"ratio {ratio:.4f}")


def test_criterion_04_hand_ledger_oracles():
    bank = simulate_bank(ScenarioConfig(ReturnPortfolio((1.5,)), DinTerms(), 0.0, 30))
    uw_loss = underwriter_ledger(ReturnPortfolio((0.0,)), DinTerms(), 0.0, 100.0)
    uw_win = underwriter_ledger(ReturnPortfolio((1.2, 1.5, 2.0)), DinTerms(), 0.07, 100.0)
    ok = (
        abs(bank.final_multiple - 15.418) <= 1e-9
        and abs(uw_loss.gross_return - (-0.75)) <= 1e-9
        and uw_win.gross_return == 0.50
    )
    detail = (
        f"bank {bank.final_multiple:.12f}, underwriter {uw_loss.gross_return:.12f}, "
        f"all-survivor {uw_win.gross_return}"
    )
    _criterion(4, "hand-ledger oracles", ok, detail)


def _random_scenario(rng: random.Random) -> ScenarioConfig:
    funds = tuple(round(rng.uniform(0.0, 4.0), 3) for _ in range(rng.randint(1, 12)))
    terms = DinTerms(
        coverage_fraction=round(rng.uniform(0.03, 0.20), 4),
        premium_rate=round(rng.uniform(0.0, 0.08), 4),
        premium_base=rng.choice(list(PremiumBase)),
        payoff_year=rng.randint(1, 10),
    )
    return ScenarioConfig(
        portfolio=ReturnPortfolio(funds, "rand"),
        din_terms=terms,
        bank_rate=round(rng.uniform(0.0, 0.08), 4),
        moc=30.0,
        original_capital=rng.choice([1.0, 2.5]),
        surplus_rate=rng.choice([0.0, 0.01]),
    )


def test_criterion_05_leverage_affinity():
    rng = random.Random(555)
    worst = 0.0
    for _ in range(20):
        cfg = _random_scenario(rng)
        m30 = simulate_bank(dataclasses.replace(cfg, moc=30.0)).final_multiple
        m43 = simulate_bank(dataclasses.replace(cfg, moc=43.0)).final_multiple
        worst = max(worst, abs((m43 - 1) / 43 - (m30 - 1) / 30))
    _criterion(5, "leverage affinity", worst <= 1e-9, f"max deviation {worst:.2e}")


def _default_six_curve_table():
    compressed = compress_pairs(synthesize_kauffman(KauffmanConstraints(), SEED))
    configs = []
    for target in (1.10, 1.31, 1.50):
        shifted = dataclasses.replace(shift_to_mean(compressed, target), label=f"{target:.2f}x")
        for moc in (30.0, 43.0):
            configs.append(ScenarioConfig(shifted, DinTerms(), 0.0, moc))
    return run_sweep(configs, parse_rate_grid("0.53:7.50:0.25"))


def test_criterion_06_monotonicity_suite():
    table = _default_six_curve_table()
    violations = 0
    for curve in table.curves:
        bank, underwriter = curve.multiples, curve.returns
        violations += sum(1 for a, b in zip(bank, bank[1:]) if b > a + 1e-12)
        violations += sum(1 for a, b in zip(underwriter, underwriter[1:]) if b > a + 1e-12)
    _criterion(6, "rate monotonicity", violations == 0,
               f"{violations} violations over {len(table.curves)} curves x 29 rates")


def _calibrated_terms(selected, coverage: float) -> DinTerms:
    return DinTerms(coverage_fraction=coverage, premium_base=selected.premium_base)


def test_criterion_07_break_even_brackets():
    compressed = compress_pairs(synthesize_kauffman(KauffmanConstraints(), SEED))
    selected = run_calibration(shift_to_mean(compressed, 1.31)).selected
    terms = _calibrated_terms(selected, 0.0388)
    be131 = break_even_rate(
        ScenarioConfig(shift_to_mean(compressed, 1.31), terms, 0.02, 30), 0.005, 0.075)
    be150 = break_even_rate(
        ScenarioConfig(shift_to_mean(compressed, 1.50), terms, 0.02, 30), 0.005, 0.075)
    ok = (
        be131 is not None and 0.015 <= be131 <= 0.030
        and be150 is not None and 0.025 <= be150 <= 0.040
    )
    detail = (f"mode {selected.mode}: 1.31x -> {be131 * 100:.3f}% (need [1.5, 3.0]), "
              f"1.50x -> {be150 * 100:.3f}% (need [2.5, 4.0])")
    _criterion(7, "break-even brackets", ok, detail)


def test_criterion_08_calibration_anchors(tmp_path):
    compressed = compress_pairs(synthesize_kauffman(KauffmanConstraints(), SEED))
    report = run_calibration(shift_to_mean(compressed, 1.31))
    write_calibration_report(tmp_path / "calibration.txt", report)
    text = (tmp_path / "calibration.txt").read_text()
    best = report.selected
    recorded = text.count("mode=") == 6 and "selected=" in text
    anchors_ok = abs(best.m30 - 1.50) <= 0.5 and abs(best.m43 - 2.15) <= 0.5
    uplift_ok = 0.2 <= best.uplift <= 0.8
    detail = (f"mode {best.mode}: m30 {best.m30:.4f} (target 1.50+-0.5), "
              f"m43 {best.m43:.4f} (target 2.15+-0.5), "
              f"uplift {best.uplift:+.4f} (need [0.2, 0.8]), "
              f"all modes recorded {recorded}")
    _criterion(8, "calibration anchors", recorded and anchors_ok and uplift_ok, detail)


def test_criterion_09_zero_sum_mirror():
    rng = random.Random(909)
    mismatches = 0
    for _ in range(10):
        cfg = _random_scenario(rng)
        principal = cfg.moc * cfg.original_capital / len(cfg.portfolio.funds)
        bank = simulate_bank(cfg)
        under = underwriter_ledger(cfg.portfolio, cfg.din_terms, cfg.bank_rate, principal)
        for brow, urow in zip(bank.ledger, under.yearly):
            if brow.premiums_paid != urow.premium_income or brow.din_receipts != urow.payouts:
                mismatches += 1
    _criterion(9, "zero-sum mirror", mismatches == 0,
               f"{mismatches} mismatched entries over 10 scenarios")


def test_criterion_10_end_to_end_determinism(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    assert run_cli(["sweep", "--seed", str(SEED), "--out-dir", str(one)]) == 0
    assert run_cli(["sweep", "--seed", str(SEED), "--out-dir", str(two)]) == 0
    identical = (one / "sweep.csv").read_bytes() == (two / "sweep.csv").read_bytes()

    started = time.perf_counter()
    table = _default_six_curve_table()
    elapsed = time.perf_counter() - started
    ok = identical and len(table.rows) == 6 * 29 and elapsed < 5.0
    _criterion(10, "end-to-end determinism", ok,
               f"byte-identical {identical}, {len(table.rows)} rows in {elapsed:.2f}s")


def test_calibrated_reading_matches_anchor_rate():
    # The winning rate reading must be usable to reproduce the anchors.
    compressed = compress_pairs(synthesize_kauffman(KauffmanConstraints(), SEED))
    selected = run_calibration(shift_to_mean(compressed, 1.31)).selected
    rate = anchor_bank_rate(selected.rate_reading)
    m30 = simulate_bank(ScenarioConfig(
        shift_to_mean(compressed, 1.31), _calibrated_terms(selected, 0.056), rate, 30,
    )).final_multiple
    assert m30 == selected.m30
