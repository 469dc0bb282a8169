"""Command-line front end.

Subcommands: ingest, synth, coverage, simulate, breakeven, sweep,
calibrate. Flags can be preloaded from a flat key=value config file via
--config; explicit flags win over file values. All rates and coverage
levels on the command line are percentages; conversion to fractions
happens at the engine boundary.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import sys
from pathlib import Path

from .bank_engine import (
    ScenarioConfig,
    bank_summary,
    break_even_rate,
    simulate_bank,
    write_bank_csv,
)
from .checks import finite_real
from .din import (
    DinTerms,
    PremiumBase,
    coverage_breakeven_method,
    coverage_sigma_method,
)
from .market_data import default_snapshot_path, funds_rate, load_libor_csv, window_stats
from .portfolio import (
    KauffmanConstraints,
    compress_pairs,
    load_portfolio,
    portfolio_stats,
    save_portfolio,
    shift_to_mean,
    synthesize_kauffman,
)

DEFAULT_SEED = 42
DEFAULT_LIBOR_PCT = 1.57  # latest rate in the bundled window

_FLAG_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        return finite_real("value", float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _non_negative(text: str) -> float:
    """argparse type of a rate or coverage flag: a finite number, not below 0."""
    if (value := _finite(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type of a leverage or capital flag: a finite number above 0."""
    if (value := _finite(text)) <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of every ``--seed``: an integer, not below 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _list_of(kind):
    """argparse type of a non-empty comma-separated list, each entry typed by ``kind``."""
    def parse(text: str) -> list:
        if not (values := [kind(t) for t in text.split(",") if t]):
            raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
        return values
    return parse


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, text: str) -> object:
    """``text`` read as argparse reads the flag; ``ArgumentError`` carries argparse's reason."""
    if action.nargs == 0:  # store_true
        if text.lower() not in _FLAG_WORDS:
            raise argparse.ArgumentError(action, f"expected one of {', '.join(_FLAG_WORDS)}")
        return _FLAG_WORDS[text.lower()]
    value = parser._get_value(action, text)
    parser._check_value(action, value)
    return value


def _apply_config(parser: argparse.ArgumentParser, path: str) -> dict[str, str]:
    """Preload subcommand flag defaults from a flat key=value file; return where each key was set.

    Keys are the subcommands' long flag names; each value is typed by the
    ``type`` and ``choices`` of the argparse action with that ``dest``.
    """
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices.values()
    actions = {a.dest: a for sp in subparsers for a in sp._actions
               if a.option_strings and a.dest != "help"}
    values: dict[str, object] = {}
    lines: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, _, text = line.partition("=")
        key, text = key.strip().replace("-", "_"), text.strip()
        if key not in actions:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key], lines[key] = _config_value(parser, actions[key], text), f"{path}: line {lineno}"
        except argparse.ArgumentError as exc:
            raise ValueError(f"{path}: line {lineno}: bad value {text!r} for key {key!r}: "
                             f"{exc.message}") from None
    for sp in subparsers:
        known = {a.dest for a in sp._actions}
        sp.set_defaults(**{k: v for k, v in values.items() if k in known})
    return lines


def _parse_date(text: str, end_of_year: bool) -> dt.date:
    """argparse type of ``--start`` and ``--end``: a date, or a year meaning its first or last day."""
    try:
        if len(text) == 4 and text.isdigit():
            return dt.date(int(text), 12, 31) if end_of_year else dt.date(int(text), 1, 1)
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected YYYY-MM-DD or YYYY, got {text!r}") from None


def _add_terms_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coverage", type=_non_negative, default=3.88,
                   help="insured percent of each investment (default 3.88)")
    p.add_argument("--coverage-floor", type=_non_negative, default=2.88,
                   help="regulatory coverage floor, percent (default 2.88)")
    p.add_argument("--premium-rate", type=_non_negative, default=5.0,
                   help="annual premium, percent of the premium base (default 5)")
    p.add_argument("--premium-base", choices=[b.value for b in PremiumBase],
                   default=PremiumBase.FACE_ANNUAL.value)
    p.add_argument("--payoff-year", type=int, default=5)
    p.add_argument("--term-years", type=int, default=10)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--portfolio", help="portfolio CSV; omitted = built-in synthesis pipeline")
    p.add_argument("--seed", type=_seed, default=None)  # None when not typed: DEFAULT_SEED
    p.add_argument("--target-mean", type=_non_negative, default=None,
                   help="shift the portfolio to this mean before simulating")
    p.add_argument("--no-compress", action="store_true", default=None,
                   help="skip pair compression in the synthesis pipeline")
    p.add_argument("--moc", type=_positive, default=30.0, help="leverage multiple (default 30)")
    _add_terms_flags(p)


def _terms_from(args: argparse.Namespace) -> DinTerms:
    return DinTerms(
        coverage_fraction=args.coverage / 100.0,
        coverage_floor=args.coverage_floor / 100.0,
        premium_rate=args.premium_rate / 100.0,
        premium_base=args.premium_base,
        payoff_year=args.payoff_year,
        term_years=args.term_years,
    )


def _reference_portfolio(seed: int, compress: bool = True):
    """The synthesized reference portfolio, pair-compressed unless ``compress`` is false."""
    p = synthesize_kauffman(KauffmanConstraints(), seed)
    return compress_pairs(p) if compress else p


def _portfolio_from(args: argparse.Namespace):
    if args.portfolio:
        p = load_portfolio(args.portfolio)
    else:
        p = _reference_portfolio(DEFAULT_SEED if args.seed is None else args.seed, not args.no_compress)
    if args.target_mean is not None:
        p = shift_to_mean(p, args.target_mean)
    return p


def _scenario_from(args: argparse.Namespace, bank_rate: float, capital: float) -> ScenarioConfig:
    return ScenarioConfig(portfolio=_portfolio_from(args), din_terms=_terms_from(args),
                          bank_rate=bank_rate, moc=args.moc, original_capital=capital)


def _cmd_ingest(args: argparse.Namespace) -> int:
    path = Path(args.csv) if args.csv else default_snapshot_path()
    series = load_libor_csv(path)
    start, end = args.start, args.end
    stats = window_stats(series, start, end)
    rates = series.rates_in_window(start, end)
    print(f"file={path}")
    print(f"observations={len(series)}")
    print(f"window_start={start or series.start}")
    print(f"window_end={end or series.end}")
    print(f"count={stats.count}")
    print(f"median={stats.median:.4f}")
    print(f"mean={stats.mean:.4f}")
    print(f"min={min(rates):.4f}")
    print(f"max={max(rates):.4f}")
    print(f"funds_rate_at_median={funds_rate(stats.median):.4f}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    constraints = KauffmanConstraints(
        n=args.n, mean=args.mean, stddev=args.stddev,
        sigma_clamp_loss=args.sigma_loss, breakeven_clamp_loss=args.breakeven_loss,
    )
    p = synthesize_kauffman(constraints, args.seed, label=args.label)
    stats = portfolio_stats(p)
    sigma = coverage_sigma_method(p, 0.0).clamp_loss
    breakeven = coverage_breakeven_method(p, 0.0).clamp_loss
    save_portfolio(args.out, p, metadata={
        "seed": args.seed,
        "n": len(p),
        "target_mean": constraints.mean,
        "target_stddev": constraints.stddev,
        "realized_mean": repr(stats.mean),
        "realized_stddev": repr(stats.stddev),
        "residual_mean": repr(stats.mean - constraints.mean),
        "residual_stddev": repr(stats.stddev - constraints.stddev),
        "residual_sigma_clamp_loss": repr(sigma - constraints.sigma_clamp_loss),
        "residual_breakeven_clamp_loss": repr(breakeven - constraints.breakeven_clamp_loss),
    })
    print(f"wrote {args.out} ({len(p)} funds, mean {stats.mean:.4f}, stddev {stats.stddev:.4f})")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    p = load_portfolio(args.portfolio)
    rows = [method(p, args.floor).as_csv_row() for method in (coverage_sigma_method, coverage_breakeven_method)]
    print("method,clamp_loss_pct,recommended_pct", *rows, sep="\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    rate_pct = args.bank_rate if args.bank_rate is not None else funds_rate(args.libor)
    cfg = _scenario_from(args, rate_pct / 100.0, args.capital)
    result = simulate_bank(cfg)
    write_bank_csv(args.ledger_out, result)
    print(f"portfolio={cfg.portfolio.label}")
    print(f"funds={len(cfg.portfolio)}")
    print(f"moc={cfg.moc:g}")
    print(f"bank_rate_pct={cfg.bank_rate * 100:.4f}")
    print(bank_summary(result), end="")
    print(f"ledger={args.ledger_out}")
    return 0


def _cmd_breakeven(args: argparse.Namespace) -> int:
    cfg = _scenario_from(args, 0.0, 1.0)  # the solver picks the rate; capital moves it only by rounding
    rate = break_even_rate(cfg, args.lo / 100.0, args.hi / 100.0)
    if rate is None:
        print("breakeven_bank_rate_pct=none")
    else:
        print(f"breakeven_bank_rate_pct={rate * 100:.4f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .report import ReportKind, emit_report
    from .sweep import config_digest, parse_rate_grid, run_sweep, write_sweep_csv, write_sweep_meta

    grid = parse_rate_grid(args.grid)
    compressed = _reference_portfolio(args.seed)
    terms = _terms_from(args)
    configs = []
    for target in args.targets:
        shifted = shift_to_mean(compressed, target)
        shifted = dataclasses.replace(shifted, label=f"{target:.2f}x")
        for moc in args.mocs:
            configs.append(ScenarioConfig(portfolio=shifted, din_terms=terms, bank_rate=0.0, moc=moc))

    table = run_sweep(configs, grid)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out_dir / "sweep.csv", table)
    write_sweep_meta(out_dir / "sweep.meta", {
        "config_digest": config_digest(configs, grid),
        "seed": str(args.seed),
        "generated_at": dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds"),
    })
    emit_report(table, ReportKind.BANK_MULTIPLE, out_dir / "fig3.svg")
    emit_report(table, ReportKind.UNDERWRITER_RETURN, out_dir / "fig4.svg")
    for name in ("sweep.csv", "sweep.meta", "fig3.svg", "fig4.svg"):
        print(f"wrote {out_dir / name}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibrate import run_calibration, write_calibration_report

    anchor = shift_to_mean(_reference_portfolio(args.seed), 1.31)
    report = run_calibration(anchor)
    write_calibration_report(args.out, report)
    best = report.selected
    print(f"selected={best.mode}")
    print(f"m30={best.m30:.4f} m43={best.m43:.4f} uplift={best.uplift:+.4f} score={best.score:.4f}")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="venturebank",
        description="Deterministic venture-bank / default-insurance scenario simulator.",
    )
    parser.add_argument("--config", help="flat key=value file preloading flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a rate CSV and print window statistics")
    p.add_argument("--csv", help="rate CSV path (default: bundled snapshot)")
    p.add_argument("--start", type=lambda text: _parse_date(text, end_of_year=False),
                   help="window start, YYYY-MM-DD or YYYY")
    p.add_argument("--end", type=lambda text: _parse_date(text, end_of_year=True),
                   help="window end, YYYY-MM-DD or YYYY")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("synth", help="synthesize the reference portfolio")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--n", type=int, default=99)
    p.add_argument("--mean", type=_finite, default=1.31)
    p.add_argument("--stddev", type=_finite, default=1.116)
    p.add_argument("--sigma-loss", type=_finite, default=2.72)
    p.add_argument("--breakeven-loss", type=_finite, default=17.45)
    p.add_argument("--label", default=None)
    p.add_argument("--out", default="portfolio.csv")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("coverage", help="coverage sizing by both clamp methods")
    p.add_argument("--portfolio", required=True)
    p.add_argument("--floor", type=_non_negative, default=2.88, help="coverage floor, percent")
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("simulate", help="run one bank scenario and write its ledger")
    _add_scenario_flags(p)
    rate = p.add_mutually_exclusive_group()
    rate.add_argument("--libor", type=_non_negative, default=DEFAULT_LIBOR_PCT,
                      help=f"interbank rate percent; bank pays +0.25 (default {DEFAULT_LIBOR_PCT})")
    rate.add_argument("--bank-rate", type=_non_negative, default=None,
                      help="bank funding rate percent, bypassing the spread")
    p.add_argument("--capital", type=_positive, default=1.0, help="original capital (default 1)")
    p.add_argument("--ledger-out", default="bank_ledger.csv")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("breakeven", help="solve the break-even bank rate")
    _add_scenario_flags(p)
    p.add_argument("--lo", type=_finite, default=0.5, help="bracket low, percent (default 0.5)")
    p.add_argument("--hi", type=_finite, default=7.5, help="bracket high, percent (default 7.5)")
    p.set_defaults(handler=_cmd_breakeven)

    p = sub.add_parser("sweep", help="rate-grid sweep with CSV and SVG reports")
    p.add_argument("--grid", default="0.53:7.50:0.25", help="lo:hi:step in percent")
    p.add_argument("--mocs", type=_list_of(_positive), default="30,43")
    p.add_argument("--targets", type=_list_of(_non_negative), default="1.10,1.31,1.50")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out-dir", default=".")
    _add_terms_flags(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("calibrate", help="score premium-base/rate-reading modes against anchors")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", default="calibration.txt")
    p.set_defaults(handler=_cmd_calibrate)
    return parser


def run_cli(argv: list[str]) -> int:
    """Parse and dispatch; exit status 0 on success, nonzero with a diagnostic."""
    parser = build_parser()
    try:
        args = flags = parser.parse_args(argv)
        keys = _apply_config(parser, args.config) if args.config else {}
        if keys:  # file values become subcommand defaults, so explicit flags still win
            args = parser.parse_args(argv)
        if args.command in ("simulate", "breakeven") and args.portfolio:  # only synthesis reads these
            for key, flag in (("seed", "--seed"), ("no_compress", "--no-compress")):
                if getattr(flags, key) is not None:
                    raise ValueError(f"--portfolio and {flag} cannot be combined: only synthesis reads {flag}")
                if key in keys:
                    raise ValueError(f"{keys[key]}: key {key!r} cannot be combined with --portfolio: "
                                     f"only synthesis reads it")
        if args.command == "breakeven" and not 0 <= args.lo < args.hi:  # flags or config file
            raise ValueError(f"--lo/--hi must satisfy 0 <= --lo < --hi, "
                             f"got --lo {args.lo:g} --hi {args.hi:g} (percent)")
        if "coverage" in args and args.coverage < args.coverage_floor:
            raise ValueError(f"--coverage must be >= --coverage-floor, got --coverage {args.coverage:g} "
                             f"--coverage-floor {args.coverage_floor:g} (percent)")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
