"""Per-fund return portfolios: synthesis, pair compression, mean shifting.

A portfolio is a vector of ten-year total conventional return multiples
(1.0 = break-even). The published per-fund data behind the 99-fund
reference set is not available, so :func:`synthesize_kauffman` builds a
portfolio that reproduces its published aggregate statistics exactly:
mean, population standard deviation, and the two clamp losses used for
coverage sizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from pathlib import Path
from typing import NamedTuple

from .checks import ElementError, checked_fsum, finite_real, read_lines, sidecar_text


#: Bounds of a synthesized fund multiple.
MIN_MULTIPLE = 0.32
MAX_MULTIPLE = 12.0

#: Most funds a synthesized portfolio may have (``KauffmanConstraints.n``); its work and memory are O(n).
MAX_FUNDS = 10_000

#: Work the band search of :func:`synthesize_kauffman` may spend before it gives up: one unit per
#: band split it visits and one per fund it draws. A feasible synthesis visits a few splits and
#: draws n funds once: at most 1,055 units (990 funds) in the tests, the README and the benchmark
#: pools, and 10,649 at ``MAX_FUNDS``. Infeasible constraints spend all of it in about 0.6 s (shared 2-core VM).
SEARCH_BUDGET = 250_000


class CalibrationError(ValueError):
    """Synthesis could not meet its constraints; carries the residuals."""

    def __init__(self, message: str, residuals: dict[str, float] | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class InfeasibleShiftError(ValueError):
    """A mean shift could not be satisfied with non-negative multiples."""


@dataclass(frozen=True)
class ReturnPortfolio:
    """Non-empty ordered fund multiples, each finite and >= 0; a bad one raises ``checks.ElementError``."""

    funds: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.funds:
            raise ValueError("portfolio must contain at least one fund")
        for i, m in enumerate(self.funds):
            try:
                if finite_real("multiple", m) < 0:
                    raise ValueError(f"multiple must be >= 0, got {m!r}")
            except ValueError as exc:
                raise ElementError(i, f"fund {i}: {exc}") from None

    def __len__(self) -> int:
        return len(self.funds)


class PortfolioStats(NamedTuple):
    mean: float
    stddev: float


@dataclass(frozen=True)
class KauffmanConstraints:
    """Published aggregate targets for the 99-fund reference portfolio.

    Clamp losses are portfolio-level percentage losses after resetting
    winners to break-even: ``sigma_clamp_loss`` clamps only funds more
    than one standard deviation above break-even, ``breakeven_clamp_loss``
    clamps every fund above break-even.
    """

    n: int = 99
    mean: float = 1.31
    stddev: float = 1.116
    sigma_clamp_loss: float = 2.72
    breakeven_clamp_loss: float = 17.45

    def __post_init__(self) -> None:
        for name in ("n", "mean", "stddev", "sigma_clamp_loss", "breakeven_clamp_loss"):
            finite_real(name, getattr(self, name), integer=name == "n")
        if self.n < 3:
            raise ValueError(f"need at least 3 funds, got n={self.n!r}")
        if self.n > MAX_FUNDS:
            raise ValueError(f"need at most {MAX_FUNDS} funds, got n={self.n!r}")
        if self.stddev < 0:
            raise ValueError(f"stddev must be >= 0, got {self.stddev!r}")
        if not (0 <= self.sigma_clamp_loss <= self.breakeven_clamp_loss <= 100):  # clamped funds stay >= 0
            raise ValueError("clamp losses must satisfy 0 <= sigma <= breakeven <= 100, got "
                             f"sigma_clamp_loss={self.sigma_clamp_loss!r}, "
                             f"breakeven_clamp_loss={self.breakeven_clamp_loss!r}")
        # Synthesis sums the squares of n funds; that total must stay a float.
        if not math.isfinite(self.n * (self.stddev * self.stddev + self.mean * self.mean)):
            big = "mean" if abs(self.mean) > self.stddev else "stddev"
            raise ValueError(f"{big} too large for {self.n} funds: synthesis would pass the float range, "
                             f"got {getattr(self, big)!r}")


def portfolio_stats(p: ReturnPortfolio) -> PortfolioStats:
    """Arithmetic mean and population (n-divisor) standard deviation."""
    n = len(p.funds)
    mean = checked_fsum("fund multiples", p.funds) / n
    var = checked_fsum("squared deviations of the fund multiples", ((m - mean) ** 2 for m in p.funds)) / n
    return PortfolioStats(mean=mean, stddev=math.sqrt(var))


def clamp_loss(p: ReturnPortfolio, threshold: float) -> float:
    """Percentage points of mean lost by resetting every fund above ``threshold`` to 1.0."""
    kept = checked_fsum("clamped fund multiples", (1.0 if m > threshold else m for m in p.funds))
    return (1.0 - kept / len(p.funds)) * 100.0


def _spread_capacity(d: list[float], mean: float, lo: float, hi: float) -> float:
    """Spread capacity of a band with deviation shape ``d``.

    Capacity is in sum-of-squares units: the largest extra variance the
    band can absorb while every value stays inside [lo, hi].
    """
    lo_ex, hi_ex = min(d), max(d)
    s_max = math.inf
    if lo_ex < 0:
        s_max = min(s_max, (mean - lo) / -lo_ex)
    if hi_ex > 0:
        s_max = min(s_max, (hi - mean) / hi_ex)
    return max(0.0, s_max) ** 2 if math.isfinite(s_max) else 0.0


def synthesize_kauffman(constraints: KauffmanConstraints, seed: int, *,
                        label: str | None = None) -> ReturnPortfolio:
    """Construct a portfolio meeting the aggregate constraints exactly.

    Construction is deterministic per seed. Funds fall into three
    bands: losers below break-even, moderate winners at or below one
    standard deviation above break-even, and large winners beyond it.
    Band totals follow directly from the two clamp-loss targets; band
    counts are searched (fewest losers first, every fund within
    [``MIN_MULTIPLE``, ``MAX_MULTIPLE``]), and within-band spread is
    then sized to land the standard deviation.

    Raises :class:`CalibrationError` with the residuals when no feasible
    construction is found within ``SEARCH_BUDGET``, and ``ValueError``
    unless ``seed`` is an integer >= 0.
    """
    if finite_real("seed", seed, integer=True) < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    from .draws import Pcg64, centered_unit

    c = constraints
    n = c.n
    total = n * c.mean
    sum_be = n * (1.0 - c.breakeven_clamp_loss / 100.0)
    sum_sigma = n * (1.0 - c.sigma_clamp_loss / 100.0)

    deficit = n - sum_be            # total shortfall below 1.0 across losers
    excess_mid = sum_sigma - sum_be  # total excess over 1.0 across moderate winners
    excess_high = total - sum_sigma  # total excess over 1.0 across large winners

    residuals = {
        "loser_deficit": deficit,
        "moderate_excess": excess_mid,
        "large_excess": excess_high,
    }
    if deficit < -1e-9 or excess_mid < -1e-9 or excess_high < -1e-9:
        raise CalibrationError(
            "clamp-loss targets imply a negative mass for one of the bands", residuals
        )
    deficit, excess_mid, excess_high = (max(0.0, v) for v in (deficit, excess_mid, excess_high))

    name = label if label is not None else f"kauffman-{n}"
    ss_target = n * (c.stddev ** 2 + c.mean ** 2)
    threshold = 1.0 + c.stddev
    gap = 0.02  # keep-out zone around break-even and the sigma threshold

    if c.stddev == 0 or (deficit == 0 and excess_mid == 0 and excess_high == 0 and c.stddev < 1e-12):
        funds = (float(c.mean),) * n
        out = ReturnPortfolio(funds, name)
        _verify_synthesis(out, c, residuals)
        return out

    n_l_min = 0 if deficit == 0 else max(1, math.ceil(deficit / (1.0 - MIN_MULTIPLE)))
    n_h_min = 0 if excess_high == 0 else max(1, math.ceil(excess_high / (MAX_MULTIPLE - 1.0 - gap)))
    n_h_cap = 0 if excess_high == 0 else math.floor(excess_high / (c.stddev + gap))

    splits = ((n_l, n_h) for n_l in range(n_l_min, n - 1)
              for n_h in range(n_h_min, min(max(n_h_min, n_h_cap), n - n_l) + 1))  # no n_m < 0
    best_residual, spent = math.inf, 0
    for n_l, n_h in splits:
        spent += 1
        if spent > SEARCH_BUDGET:
            break
        n_m = n - n_l - n_h
        mean_l = 1.0 - deficit / n_l if n_l else 0.0
        mean_h = 1.0 + excess_high / n_h if n_h else 0.0
        mean_m = 1.0 + excess_mid / n_m if n_m else 0.0
        if excess_mid > 0 and not (1.0 + gap / 2 <= mean_m <= threshold - gap):  # n_m 0: mean_m 0.0, outside
            continue
        if n_h and not (threshold + gap <= mean_h <= MAX_MULTIPLE - gap):
            continue

        base_ss = n_l * mean_l ** 2 + n_m * mean_m ** 2 + n_h * mean_h ** 2
        delta = ss_target - base_ss
        if delta < -1e-9:
            best_residual = min(best_residual, -delta)
            continue
        delta = max(0.0, delta)

        rng = Pcg64((seed, n_l, n_h))
        parts: list[tuple[float, list[float], float]] = []
        cap_total = 0.0
        for k, mean_b, lo, hi in (
            (n_l, mean_l, MIN_MULTIPLE, 1.0 - gap),
            (n_m, mean_m, 1.0 + gap / 2 if excess_mid > 0 else 1.0, threshold - gap),
            (n_h, mean_h, threshold + gap, MAX_MULTIPLE),
        ):
            if k == 0:
                continue
            if mean_b == 1.0 and excess_mid == 0 and lo == 1.0:
                parts.append((mean_b, [0.0] * k, 0.0))
                continue
            d = centered_unit(rng, k)
            spent += k
            cap = _spread_capacity(d, mean_b, lo, hi)
            parts.append((mean_b, d, cap))
            cap_total += cap
        if cap_total + 1e-12 < delta:
            best_residual = min(best_residual, delta - cap_total)
            continue

        values: list[float] = []
        for mean_b, d, cap in parts:
            take = delta * (cap / cap_total) if cap_total > 0 else 0.0
            s = math.sqrt(take)
            values.extend(mean_b + s * x for x in d)
        values.sort(reverse=True)
        out = ReturnPortfolio(tuple(values), name)
        _verify_synthesis(out, c, residuals)
        return out

    residuals["unmet_spread_or_base"] = best_residual
    raise CalibrationError(f"no feasible band construction for n={n} within the search budget of "
                           f"{SEARCH_BUDGET} band splits and drawn funds", residuals)


def _verify_synthesis(p: ReturnPortfolio, c: KauffmanConstraints, residuals: dict[str, float]) -> None:
    stats = portfolio_stats(p)
    be_loss = clamp_loss(p, 1.0)
    sg_loss = clamp_loss(p, 1.0 + stats.stddev)
    checks = {
        "mean": (stats.mean, c.mean, 5e-4),
        "stddev": (stats.stddev, c.stddev, 5e-4),
        "breakeven_clamp_loss": (be_loss, c.breakeven_clamp_loss, 5e-3),
        "sigma_clamp_loss": (sg_loss, c.sigma_clamp_loss, 5e-3),
    }
    bad = {k: got - want for k, (got, want, tol) in checks.items() if abs(got - want) > tol}
    if bad:
        raise CalibrationError(f"synthesis residuals out of tolerance: {bad}", {**residuals, **bad})


def compress_pairs(p: ReturnPortfolio) -> ReturnPortfolio:
    """Halve the portfolio by averaging adjacent pairs of the sorted funds.

    Funds are sorted descending and disjoint adjacent pairs are averaged;
    with an odd count the final (smallest) fund carries over unchanged.
    The mean is preserved exactly for even counts.
    """
    if len(p.funds) < 2:
        raise ValueError("need at least 2 funds to compress")
    ordered = sorted(p.funds, reverse=True)
    out = [(ordered[i] + ordered[i + 1]) / 2.0 for i in range(0, len(ordered) - 1, 2)]
    if len(ordered) % 2:
        out.append(ordered[-1])
    return ReturnPortfolio(tuple(out), f"{p.label}-c{len(out)}" if p.label else f"c{len(out)}")


def shift_to_mean(p: ReturnPortfolio, target: float) -> ReturnPortfolio:
    """Shift every fund by a constant so the mean lands on ``target``.

    Funds driven below zero are floored at zero and the clipped deficit
    is taken back uniformly from the funds still above zero, repeating
    until the mean is within 1e-9 of the target. With no flooring the
    spread is untouched.
    """
    if finite_real("target mean", target) < 0:
        raise ValueError(f"target mean must be >= 0, got {target!r}")
    n = len(p.funds)
    shift = target - checked_fsum("fund multiples", p.funds) / n
    vals = [m + shift for m in p.funds]
    for _ in range(n + 2):
        clipped = -fsum(v for v in vals if v < 0)
        vals = [max(0.0, v) for v in vals]
        if clipped <= 0.0:
            break
        positive = [i for i, v in enumerate(vals) if v > 0]
        if not positive:
            break
        cut = clipped / len(positive)
        for i in positive:
            vals[i] -= cut
    mean = checked_fsum("shifted fund multiples", vals) / n
    if abs(mean - target) > 1e-9:
        raise InfeasibleShiftError(
            f"could not reach mean {target} with non-negative multiples (got {mean})"
        )
    # Scrub float dust left by the redistribution loop.
    vals = [0.0 if -1e-15 < v < 1e-15 else v for v in vals]
    suffix = f"m{target:g}"
    return ReturnPortfolio(tuple(vals), f"{p.label}-{suffix}" if p.label else suffix)


def save_portfolio(path: str | Path, p: ReturnPortfolio, metadata: dict[str, object] | None = None) -> None:
    """Write the one-column CSV; metadata goes to a key=value sidecar, ``label`` first, checked before any write."""
    path = Path(path)
    meta = None if metadata is None else sidecar_text([("label", p.label), *metadata.items()])
    lines = ["multiple"] + [repr(m) for m in p.funds]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if meta is not None:
        path.with_suffix(path.suffix + ".meta").write_text(meta, encoding="utf-8")


def load_portfolio(path: str | Path) -> ReturnPortfolio:
    """Read a one-column ``multiple`` CSV written by :func:`save_portfolio`, labelled by its stem.

    Blank lines are skipped; a bad row raises ``ValueError`` naming its line.
    """
    path = Path(path)
    lines = read_lines(path)
    rows = [(lineno, ln.strip()) for lineno, ln in enumerate(lines, start=1) if ln.strip()]
    if not rows or rows[0][1] != "multiple":
        raise ValueError(f"{path}: expected a one-column CSV with header 'multiple'")
    funds = []
    for lineno, text in rows[1:]:
        try:
            funds.append(float(text))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric multiple {text!r}") from None
    try:
        return ReturnPortfolio(tuple(funds), path.stem)
    except ElementError as exc:
        raise ValueError(f"{path}: line {rows[exc.index + 1][0]}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
