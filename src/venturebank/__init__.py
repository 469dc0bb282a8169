"""Deterministic venture-bank / default-insurance scenario simulator."""

from importlib import import_module

__version__ = "0.1.0"

# Public names by the module that defines them; each module is imported
# on first access to one of its names, so ``import venturebank`` is cheap.
_EXPORTS = {
    "bank_engine": ("BankResult", "BankYear", "BreakEvenBracketError", "ScenarioConfig",
                    "break_even_rate", "simulate_bank"),
    "calibrate": ("CalibrationReport", "run_calibration"),
    "din": ("CoverageAssessment", "CoverageMethod", "DinTerms", "PremiumBase",
            "coverage_breakeven_method", "coverage_sigma_method"),
    "market_data": ("EmptyWindowError", "LiborLoadError", "LiborSeries", "WindowStats",
                    "funds_rate", "load_libor_csv", "window_stats"),
    "portfolio": ("CalibrationError", "KauffmanConstraints", "PortfolioStats", "ReturnPortfolio",
                  "compress_pairs", "portfolio_stats", "shift_to_mean", "synthesize_kauffman"),
    "report": ("ReportKind", "emit_report"),
    "sweep": ("SweepCurve", "SweepTable", "parse_rate_grid", "run_sweep"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
