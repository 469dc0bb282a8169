"""Deterministic venture-bank / default-insurance scenario simulator."""

from .bank_engine import (
    BankResult,
    BankYear,
    BreakEvenBracketError,
    ScenarioConfig,
    break_even_rate,
    simulate_bank,
)
from .calibrate import CalibrationReport, run_calibration
from .din import (
    CoverageAssessment,
    CoverageMethod,
    DinTerms,
    PremiumBase,
    UnderwriterResult,
    coverage_breakeven_method,
    coverage_sigma_method,
    din_payout,
    underwriter_ledger,
)
from .market_data import (
    EmptyWindowError,
    LiborLoadError,
    LiborSeries,
    RateObservation,
    WindowStats,
    funds_rate,
    load_bundled_series,
    load_libor_csv,
    window_stats,
)
from .portfolio import (
    CalibrationError,
    KauffmanConstraints,
    PortfolioStats,
    ReturnPortfolio,
    compress_pairs,
    portfolio_stats,
    shift_to_mean,
    synthesize_kauffman,
)
from .report import ReportKind, emit_report
from .sweep import SweepCurve, SweepTable, parse_rate_grid, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BankResult",
    "BankYear",
    "BreakEvenBracketError",
    "CalibrationError",
    "CalibrationReport",
    "CoverageAssessment",
    "CoverageMethod",
    "DinTerms",
    "EmptyWindowError",
    "KauffmanConstraints",
    "LiborLoadError",
    "LiborSeries",
    "PortfolioStats",
    "PremiumBase",
    "RateObservation",
    "ReportKind",
    "ReturnPortfolio",
    "ScenarioConfig",
    "SweepCurve",
    "SweepTable",
    "UnderwriterResult",
    "WindowStats",
    "break_even_rate",
    "compress_pairs",
    "coverage_breakeven_method",
    "coverage_sigma_method",
    "din_payout",
    "emit_report",
    "funds_rate",
    "load_bundled_series",
    "load_libor_csv",
    "parse_rate_grid",
    "portfolio_stats",
    "run_calibration",
    "run_sweep",
    "shift_to_mean",
    "simulate_bank",
    "synthesize_kauffman",
    "underwriter_ledger",
    "window_stats",
]
