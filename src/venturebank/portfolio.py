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


class CalibrationError(ValueError):
    """Synthesis could not meet its constraints; carries the residuals."""

    def __init__(self, message: str, residuals: dict[str, float] | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class InfeasibleShiftError(ValueError):
    """A mean shift could not be satisfied with non-negative multiples."""


@dataclass(frozen=True)
class ReturnPortfolio:
    """Non-empty ordered collection of fund return multiples."""

    funds: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.funds:
            raise ValueError("portfolio must contain at least one fund")
        for m in self.funds:
            if not math.isfinite(m) or m < 0:
                raise ValueError(f"fund multiple must be finite and >= 0, got {m!r}")

    def __len__(self) -> int:
        return len(self.funds)


@dataclass(frozen=True)
class PortfolioStats:
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
        if self.n < 3:
            raise ValueError("need at least 3 funds")
        if self.stddev < 0:
            raise ValueError("stddev must be >= 0")
        if not (0 <= self.sigma_clamp_loss <= self.breakeven_clamp_loss):
            raise ValueError("clamp losses must satisfy 0 <= sigma <= breakeven")


def portfolio_stats(p: ReturnPortfolio) -> PortfolioStats:
    """Arithmetic mean and population (n-divisor) standard deviation."""
    n = len(p.funds)
    mean = fsum(p.funds) / n
    var = fsum((m - mean) ** 2 for m in p.funds) / n
    return PortfolioStats(mean=mean, stddev=math.sqrt(var))


def _clamped_mean(funds: tuple[float, ...], threshold: float) -> float:
    """Mean after resetting every fund above the threshold to 1.0."""
    return fsum(1.0 if m > threshold else m for m in funds) / len(funds)


def _centered_unit(rng: np.random.Generator, k: int) -> np.ndarray:
    """k deviations with zero sum and unit sum of squares."""
    import numpy as np

    if k < 2:
        return np.zeros(k)
    d = rng.uniform(-1.0, 1.0, k)
    d -= d.mean()
    norm = math.sqrt(float(np.dot(d, d)))
    if norm < 1e-12:
        d = np.linspace(-1.0, 1.0, k)
        d -= d.mean()
        norm = math.sqrt(float(np.dot(d, d)))
    return d / norm


def _bucket_values(rng: np.random.Generator, k: int, mean: float,
                   lo: float, hi: float) -> tuple[np.ndarray, float]:
    """Deviation shape for a band plus its spread capacity.

    Capacity is in sum-of-squares units: the largest extra variance the
    band can absorb while every value stays inside [lo, hi].
    """
    d = _centered_unit(rng, k)
    lo_ex = float(d.min())
    hi_ex = float(d.max())
    s_max = math.inf
    if lo_ex < 0:
        s_max = min(s_max, (mean - lo) / -lo_ex)
    if hi_ex > 0:
        s_max = min(s_max, (hi - mean) / hi_ex)
    if not math.isfinite(s_max):
        s_max = 0.0
    return d, max(0.0, s_max) ** 2


def synthesize_kauffman(constraints: KauffmanConstraints, seed: int, *,
                        min_multiple: float = 0.32, max_multiple: float = 12.0,
                        label: str | None = None) -> ReturnPortfolio:
    """Construct a portfolio meeting the aggregate constraints exactly.

    Construction is deterministic per seed. Funds fall into three
    bands: losers below break-even, moderate winners at or below one
    standard deviation above break-even, and large winners beyond it.
    Band totals follow directly from the two clamp-loss targets; band
    counts are searched (fewest losers first, no fund below
    ``min_multiple``), and within-band spread is then sized to land the
    standard deviation.

    Raises :class:`CalibrationError` with the residuals when no feasible
    construction exists.
    """
    import numpy as np

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

    n_l_min = 0 if deficit == 0 else max(1, math.ceil(deficit / (1.0 - min_multiple)))
    n_h_min = 0 if excess_high == 0 else max(1, math.ceil(excess_high / (max_multiple - 1.0 - gap)))
    n_h_cap = 0 if excess_high == 0 else math.floor(excess_high / (c.stddev + gap))

    best_residual = math.inf
    for n_l in range(n_l_min, n - 1):
        for n_h in range(n_h_min, max(n_h_min, n_h_cap) + 1):
            n_m = n - n_l - n_h
            if n_m < (1 if excess_mid > 0 else 0):
                continue
            mean_l = 1.0 - deficit / n_l if n_l else 0.0
            mean_h = 1.0 + excess_high / n_h if n_h else 0.0
            mean_m = 1.0 + excess_mid / n_m if n_m else 0.0
            if n_l and mean_l < min_multiple - 1e-12:
                continue
            if n_m and excess_mid > 0 and not (1.0 + gap / 2 <= mean_m <= threshold - gap):
                continue
            if n_h and not (threshold + gap <= mean_h <= max_multiple - gap):
                continue

            base_ss = n_l * mean_l ** 2 + n_m * mean_m ** 2 + n_h * mean_h ** 2
            delta = ss_target - base_ss
            if delta < -1e-9:
                best_residual = min(best_residual, -delta)
                continue
            delta = max(0.0, delta)

            rng = np.random.default_rng([seed, n_l, n_h])
            parts: list[tuple[int, float, np.ndarray, float]] = []
            cap_total = 0.0
            for k, mean_b, lo, hi in (
                (n_l, mean_l, min_multiple, 1.0 - gap),
                (n_m, mean_m, 1.0 + gap / 2 if excess_mid > 0 else 1.0, threshold - gap),
                (n_h, mean_h, threshold + gap, max_multiple),
            ):
                if k == 0:
                    parts.append((k, mean_b, np.zeros(0), 0.0))
                    continue
                if k and mean_b == 1.0 and excess_mid == 0 and lo == 1.0:
                    parts.append((k, mean_b, np.zeros(k), 0.0))
                    continue
                d, cap = _bucket_values(rng, k, mean_b, lo, hi)
                parts.append((k, mean_b, d, cap))
                cap_total += cap
            if cap_total + 1e-12 < delta:
                best_residual = min(best_residual, delta - cap_total)
                continue

            values: list[float] = []
            for k, mean_b, d, cap in parts:
                if k == 0:
                    continue
                take = delta * (cap / cap_total) if cap_total > 0 else 0.0
                s = math.sqrt(take)
                values.extend(float(mean_b + s * x) for x in (d if len(d) else np.zeros(k)))
            values.sort(reverse=True)
            out = ReturnPortfolio(tuple(values), name)
            _verify_synthesis(out, c, residuals)
            return out

    residuals["unmet_spread_or_base"] = best_residual
    raise CalibrationError(
        f"no feasible band construction for n={n} within the search budget", residuals
    )


def _verify_synthesis(p: ReturnPortfolio, c: KauffmanConstraints, residuals: dict[str, float]) -> None:
    stats = portfolio_stats(p)
    be_loss = (1.0 - _clamped_mean(p.funds, 1.0)) * 100.0
    sg_loss = (1.0 - _clamped_mean(p.funds, 1.0 + stats.stddev)) * 100.0
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
    if target < 0:
        raise ValueError(f"target mean must be >= 0, got {target!r}")
    n = len(p.funds)
    shift = target - fsum(p.funds) / n
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
    mean = fsum(vals) / n
    if abs(mean - target) > 1e-9:
        raise InfeasibleShiftError(
            f"could not reach mean {target} with non-negative multiples (got {mean})"
        )
    # Scrub float dust left by the redistribution loop.
    vals = [0.0 if -1e-15 < v < 1e-15 else v for v in vals]
    suffix = f"m{target:g}"
    return ReturnPortfolio(tuple(vals), f"{p.label}-{suffix}" if p.label else suffix)


def save_portfolio(path: str | Path, p: ReturnPortfolio, metadata: dict[str, object] | None = None) -> None:
    """Write the one-column CSV; metadata goes to a key=value sidecar."""
    path = Path(path)
    lines = ["multiple"] + [repr(m) for m in p.funds]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if metadata is not None:
        meta_lines = [f"label={p.label}"] + [f"{k}={v}" for k, v in metadata.items()]
        path.with_suffix(path.suffix + ".meta").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")


def load_portfolio(path: str | Path, label: str | None = None) -> ReturnPortfolio:
    """Read a one-column ``multiple`` CSV written by :func:`save_portfolio`."""
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines or lines[0] != "multiple":
        raise ValueError(f"{path}: expected a one-column CSV with header 'multiple'")
    try:
        funds = tuple(float(ln) for ln in lines[1:])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric multiple: {exc}") from exc
    try:
        return ReturnPortfolio(funds, label if label is not None else path.stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
