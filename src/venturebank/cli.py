"""Command-line front end.

Subcommands: ingest, synth, coverage, simulate, breakeven, sweep,
calibrate. One parse resolves every value: the keys of a key=value file
given by --config before the subcommand (long flag names) become flag
defaults, so explicit flags win and a later line wins for the same value
(--libor and --bank-rate set one funding rate). Rates and coverage levels
are percentages, converted to fractions at the engine boundary.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys

from .checks import finite_real, read_lines, sidecar_text
from .din import (
    DinTerms,
    PremiumBase,
    coverage_breakeven_method,
    coverage_sigma_method,
)
from .market_data import default_snapshot_path, funds_rate, load_libor_csv, window_stats
from .portfolio import (
    KauffmanConstraints,
    ReturnPortfolio,
    compress_pairs,
    load_portfolio,
    portfolio_stats,
    save_portfolio,
    shift_to_mean,
    synthesize_kauffman,
)

DEFAULT_SEED = 42
DEFAULT_LIBOR_PCT = 1.57  # simulate's default; not a rate of the bundled file, which ends 2016-12-30 at 1.60947
DEFAULT_TERMS, DEFAULT_TARGETS = DinTerms(), KauffmanConstraints()  # the note's and the reference portfolio's defaults


def _one_line(message: str) -> str:  # its repr if it holds a line break, so it reads back exactly
    return repr(message) if len(f"{message}.".splitlines()) > 1 else message


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


def _flag_value(action: argparse.Action, text: str):
    """``text`` read as argparse reads ``action``'s flag: by its ``type``, then its ``choices``."""
    try:
        value = action.type(text) if action.type else text
    except ValueError:  # only ``int`` raises one; the package's types raise their reason as ArgumentTypeError
        raise argparse.ArgumentTypeError(f"invalid {action.type.__name__} value: {text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise argparse.ArgumentTypeError(f"invalid choice: {value!r} "
                                         f"(choose from {', '.join(map(repr, action.choices))})")
    return value


class _Config(argparse.Action):
    """``--config FILE``: flat key=value lines that become subcommand flag defaults as the file is read.

    Keys are the subcommands' long flag names; ``flags``, filled by :func:`build_parser`, lists each key's
    action in every subcommand that has it. Each value is read as argparse reads the flag, and a later
    line for the same value wins. A flag the file gives is no longer required.
    ``args.config`` maps each key to the ``file: line N`` that set it.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        lines = dict(getattr(namespace, self.dest))  # a second --config adds to the first
        for lineno, raw in enumerate(read_lines(path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, _, text = line.partition("=")
            key, text = key.strip().replace("-", "_"), text.strip()
            if not (actions := self.flags.get(key)):
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            try:
                value = _flag_value(actions[0], text)  # a key's actions share one type and one choices
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{path}: line {lineno}: bad value {text!r} for key {key!r}: {exc}") from None
            for a in (a for recorded in self.flags.values() for a in recorded if a.dest == actions[0].dest):
                a.default, a.required = value, False
            lines[key] = f"{path}: line {lineno}"
        setattr(namespace, self.dest, lines)


def _parse_date(text: str, end_of_year: bool) -> dt.date:
    """argparse type of ``--start`` and ``--end``: a date, or a year meaning its first or last day."""
    try:
        if len(text) == 4 and text.isdigit():
            return dt.date(int(text), 12, 31) if end_of_year else dt.date(int(text), 1, 1)
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected YYYY-MM-DD or YYYY, got {text!r}") from None


def _add_terms_flags(add, p: argparse.ArgumentParser) -> None:
    add(p, "--coverage", type=_non_negative, default=DEFAULT_TERMS.coverage_fraction * 100,
        help="insured percent of each investment (default %(default)g)")
    add(p, "--coverage-floor", type=_non_negative, default=DEFAULT_TERMS.coverage_floor * 100,
        help="regulatory coverage floor, percent (default %(default)g)")
    add(p, "--premium-rate", type=_non_negative, default=DEFAULT_TERMS.premium_rate * 100,
        help="annual premium, percent of the premium base (default %(default)g)")
    add(p, "--premium-base", choices=[b.value for b in PremiumBase], default=DEFAULT_TERMS.premium_base.value)
    add(p, "--payoff-year", type=int, default=DEFAULT_TERMS.payoff_year)
    add(p, "--term-years", type=int, default=DEFAULT_TERMS.term_years)


def _add_scenario_flags(add, p: argparse.ArgumentParser) -> None:
    add(p, "--portfolio", help="portfolio CSV; omitted = built-in synthesis pipeline")
    add(p, "--seed", type=_seed, default=None)  # None when not typed: DEFAULT_SEED
    add(p, "--target-mean", type=_non_negative, default=None, help="shift the portfolio to this mean before simulating")
    add(p, "--moc", type=_positive, default=30.0, help="leverage multiple (default 30)")
    _add_terms_flags(add, p)


def _terms_from(args: argparse.Namespace) -> DinTerms:
    return DinTerms(
        coverage_fraction=args.coverage / 100.0,
        coverage_floor=args.coverage_floor / 100.0,
        premium_rate=args.premium_rate / 100.0,
        premium_base=args.premium_base,
        payoff_year=args.payoff_year,
        term_years=args.term_years,
    )


def _reference_portfolio(seed: int):
    """The synthesized reference portfolio, pair-compressed."""
    return compress_pairs(synthesize_kauffman(DEFAULT_TARGETS, seed))


def _portfolio_from(args: argparse.Namespace):
    if args.portfolio:
        p = load_portfolio(args.portfolio)
    else:
        p = _reference_portfolio(DEFAULT_SEED if args.seed is None else args.seed)
    if args.target_mean is not None:
        p = shift_to_mean(p, args.target_mean)
    return p


def _scenario_from(args: argparse.Namespace, bank_rate: float, capital: float):
    from .bank_engine import ScenarioConfig

    return ScenarioConfig(portfolio=_portfolio_from(args), din_terms=_terms_from(args),
                          bank_rate=bank_rate, moc=args.moc, original_capital=capital)


def _cmd_ingest(args: argparse.Namespace) -> str:
    from pathlib import Path  # prints the file as ``Path`` spells it

    path = Path(args.csv) if args.csv else default_snapshot_path()
    series = load_libor_csv(path)
    start, end = args.start, args.end
    stats = window_stats(series, start, end)
    rates = series.rates_in_window(start, end)
    return sidecar_text([
        ("file", path), ("observations", len(series)),
        ("window_start", start or series.start), ("window_end", end or series.end),
        ("count", stats.count), ("median", f"{stats.median:.4f}"), ("mean", f"{stats.mean:.4f}"),
        ("min", f"{min(rates):.4f}"), ("max", f"{max(rates):.4f}"),
        ("funds_rate_at_median", f"{funds_rate(stats.median):.4f}"),
    ])


def _cmd_synth(args: argparse.Namespace) -> str:
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
    return f"wrote {args.out} ({len(p)} funds, mean {stats.mean:.4f}, stddev {stats.stddev:.4f})\n"


def _cmd_coverage(args: argparse.Namespace) -> str:
    p = load_portfolio(args.portfolio)
    return "method,clamp_loss_pct,recommended_pct\n" + "".join(
        f"{a.method.value},{a.clamp_loss:.4f},{a.recommended_coverage:.4f}\n"
        for a in (coverage_sigma_method(p, args.floor), coverage_breakeven_method(p, args.floor)))


def _cmd_simulate(args: argparse.Namespace) -> str:
    from .bank_engine import simulate_bank, write_bank_csv

    cfg = _scenario_from(args, args.bank_rate / 100.0, args.capital)
    result = simulate_bank(cfg)
    text = sidecar_text([  # checked before the ledger is written, so a line break writes nothing
        ("portfolio", cfg.portfolio.label), ("funds", len(cfg.portfolio)), ("moc", f"{cfg.moc:g}"),
        ("bank_rate_pct", f"{cfg.bank_rate * 100:.4f}"), ("final_multiple", repr(result.final_multiple)),
        ("survived", str(result.survived).lower()), ("years", len(result.ledger) - 1),
        ("ledger", args.ledger_out),
    ])
    write_bank_csv(args.ledger_out, result)
    return text


def _cmd_breakeven(args: argparse.Namespace) -> str:
    from .bank_engine import break_even_rate

    cfg = _scenario_from(args, 0.0, 1.0)  # the solver picks the rate; capital moves it only by rounding
    rate = break_even_rate(cfg, args.lo / 100.0, args.hi / 100.0)
    return sidecar_text([("breakeven_bank_rate_pct", "none" if rate is None else f"{rate * 100:.4f}")])


def _cmd_sweep(args: argparse.Namespace) -> str:
    from pathlib import Path  # ``Path(".") / "sweep.csv"`` prints as ``sweep.csv``

    from .bank_engine import ScenarioConfig
    from .report import ReportKind, emit_report
    from .sweep import config_digest, parse_rate_grid, run_sweep, write_sweep_csv, write_sweep_meta

    grid = parse_rate_grid(args.grid)
    compressed = _reference_portfolio(args.seed)
    terms = _terms_from(args)
    configs, made = [], {}  # each curve's (label, moc): the indexes of the target and the moc that made it
    for ti, target in enumerate(args.targets):
        shifted = ReturnPortfolio(shift_to_mean(compressed, target).funds, f"{target:.2f}x")
        for mi, moc in enumerate(args.mocs):
            tj, mj = made.setdefault((shifted.label, moc), (ti, mi))
            if (tj, mj) != (ti, mi):
                flag, a, b = ("--mocs", args.mocs[mj], moc) if tj == ti else ("--targets", args.targets[tj], target)
                raise ValueError(f"duplicate curve {shifted.label!r} at moc {moc:g}: from {flag} {a!r} and {b!r}")
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
    return "".join(f"wrote {out_dir / name}\n" for name in ("sweep.csv", "sweep.meta", "fig3.svg", "fig4.svg"))


def _cmd_calibrate(args: argparse.Namespace) -> str:
    from .calibrate import case_text, run_calibration, write_calibration_report

    anchor = shift_to_mean(_reference_portfolio(args.seed), DEFAULT_TARGETS.mean)
    report = run_calibration(anchor)
    write_calibration_report(args.out, report)
    best = report.selected
    return (sidecar_text([("selected", best.mode)])
            + f"{case_text(best)}\n"
            + f"wrote {args.out}\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse echoes raw argv; a line break in it would start a second error line
        super().error(_one_line(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="venturebank",
                     description="Deterministic venture-bank / default-insurance scenario simulator.")
    config = parser.add_argument("--config", action=_Config, default={},
                                 help="flat key=value file preloading flag defaults")
    config.flags = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, *names, **kwargs) -> None:  # group.add_argument, keeping the action under each config key
        action = group.add_argument(*names, **kwargs)
        for name in names:
            config.flags.setdefault(name[2:].replace("-", "_"), []).append(action)

    p = sub.add_parser("ingest", help="load a rate CSV and print window statistics")
    add(p, "--csv", help="rate CSV path (default: bundled snapshot)")
    add(p, "--start", type=lambda text: _parse_date(text, end_of_year=False), help="window start, YYYY-MM-DD or YYYY")
    add(p, "--end", type=lambda text: _parse_date(text, end_of_year=True), help="window end, YYYY-MM-DD or YYYY")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("synth", help="synthesize the reference portfolio")
    add(p, "--seed", type=_seed, default=DEFAULT_SEED)
    add(p, "--n", type=int, default=DEFAULT_TARGETS.n)
    add(p, "--mean", type=_finite, default=DEFAULT_TARGETS.mean)
    add(p, "--stddev", type=_finite, default=DEFAULT_TARGETS.stddev)
    add(p, "--sigma-loss", type=_finite, default=DEFAULT_TARGETS.sigma_clamp_loss)
    add(p, "--breakeven-loss", type=_finite, default=DEFAULT_TARGETS.breakeven_clamp_loss)
    add(p, "--label", default=None)
    add(p, "--out", default="portfolio.csv")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("coverage", help="coverage sizing by both clamp methods")
    add(p, "--portfolio", required=True)
    add(p, "--floor", type=_non_negative, default=DEFAULT_TERMS.coverage_floor * 100, help="coverage floor, percent")
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("simulate", help="run one bank scenario and write its ledger")
    _add_scenario_flags(add, p)
    rate = p.add_mutually_exclusive_group()
    add(rate, "--libor", dest="bank_rate", type=lambda t: funds_rate(_non_negative(t)),
        default=funds_rate(DEFAULT_LIBOR_PCT), metavar="LIBOR",
        help=f"interbank rate percent; bank pays +0.25 (default {DEFAULT_LIBOR_PCT})")
    add(rate, "--bank-rate", type=_non_negative, help="bank funding rate percent, bypassing the spread")
    add(p, "--capital", type=_positive, default=1.0, help="original capital (default 1)")
    add(p, "--ledger-out", default="bank_ledger.csv")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("breakeven", help="solve the break-even bank rate")
    _add_scenario_flags(add, p)
    add(p, "--lo", type=_finite, default=0.5, help="bracket low, percent (default 0.5)")
    add(p, "--hi", type=_finite, default=7.5, help="bracket high, percent (default 7.5)")
    p.set_defaults(handler=_cmd_breakeven)

    p = sub.add_parser("sweep", help="rate-grid sweep with CSV and SVG reports")
    add(p, "--grid", default="0.53:7.50:0.25", help="lo:hi:step in percent")
    add(p, "--mocs", type=_list_of(_positive), default="30,43")
    add(p, "--targets", type=_list_of(_non_negative), default="1.10,1.31,1.50")
    add(p, "--seed", type=_seed, default=DEFAULT_SEED)
    add(p, "--out-dir", default=".")
    _add_terms_flags(add, p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("calibrate", help="score premium-base/rate-reading modes against anchors")
    add(p, "--seed", type=_seed, default=DEFAULT_SEED)
    add(p, "--out", default="calibration.txt")
    p.set_defaults(handler=_cmd_calibrate)
    return parser


def run_cli(argv: list[str]) -> int:
    """Parse, dispatch and write the handler's returned text; exit 0 on success, 2 for bad input, 1 on failure."""
    status = 2
    try:
        args = build_parser().parse_args(argv)  # --config, given first, sets the subcommand's defaults
        if args.command in ("simulate", "breakeven") and args.portfolio and args.seed is not None:
            if "seed" in args.config:  # only synthesis reads --seed
                raise ValueError(f"{args.config['seed']}: key 'seed' cannot be combined with --portfolio: "
                                 f"only synthesis reads it")
            raise ValueError("--portfolio and --seed cannot be combined: only synthesis reads --seed")
        if args.command == "breakeven" and not 0 <= args.lo < args.hi:  # flags or config file
            raise ValueError(f"--lo/--hi must satisfy 0 <= --lo < --hi, "
                             f"got --lo {args.lo:g} --hi {args.hi:g} (percent)")
        if "coverage" in args and args.coverage < args.coverage_floor:
            raise ValueError(f"--coverage must be >= --coverage-floor, got --coverage {args.coverage:g} "
                             f"--coverage-floor {args.coverage_floor:g} (percent)")
        status = 1
        for flag, path in (("--out", getattr(args, "out", "")), ("--out-dir", getattr(args, "out_dir", ""))):
            if len(f"{path}.".splitlines()) > 1:  # printed on a ``wrote`` line, a line break would forge a line
                raise ValueError(f"{flag} must hold no line break, got {path!r}")
        sys.stdout.write(args.handler(args))
        return 0
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except BrokenPipeError:
        raise  # the reader closed stdout: see main
    except (OSError, ValueError) as exc:
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)  # a path may hold a line break
        return status


def main() -> None:
    try:
        status = run_cli(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:  # the reader took what it wanted, as `venturebank ingest | head -1` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit stays silent
        status = 0
    sys.exit(status)


if __name__ == "__main__":
    main()
