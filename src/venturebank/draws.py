"""The seeded draws of portfolio synthesis, in the standard library.

:func:`centered_unit` gives, bit for bit, what synthesis computed with
numpy 2.4: the draws of ``np.random.default_rng(entropy).uniform(-1, 1, k)``,
centred by the array's ``mean()`` and divided by the square root of
``np.dot(d, d)`` as OpenBLAS 0.3.31's SkylakeX ``ddot`` kernel sums it.
Every sum keeps that order, so synthesized portfolios keep their bytes,
and they no longer depend on which BLAS kernel a host dispatches.
"""

from __future__ import annotations

import math

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(entropy: tuple[int, ...]) -> list[int]:
    """numpy's ``SeedSequence(entropy).generate_state(4, uint64)``.

    Each integer goes in as its uint32 words, low word first (0 as one
    word); they are hashed into a pool of four words, which is hashed out
    to eight words, read in pairs as little-endian uint64s.
    """
    words = []
    for v in entropy:
        v = int(v)
        words.append(v & _M32)
        while v >> 32:
            v >>= 32
            words.append(v & _M32)
    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out, mult = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """numpy's ``Generator(PCG64(SeedSequence(entropy)))``, for :meth:`uniform` draws only.

    ``entropy`` is a sequence of integers >= 0, as ``np.random.default_rng`` takes it.
    """

    def __init__(self, entropy: tuple[int, ...]):
        s0, s1, s2, s3 = _seed_state(entropy)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def uniform(self, k: int) -> list[float]:
        """The next ``k`` values of numpy's ``uniform(-1.0, 1.0, k)``: each step then XSL-RR output."""
        state, inc, out = self._state, self._inc, []
        for _ in range(k):
            state = (state * _PCG_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            u = (x >> rot | x << (64 - rot)) & _M64
            out.append(-1.0 + 2.0 * ((u >> 11) * 2.0 ** -53))
        self._state = state
        return out


def _pairwise_sum(a: list[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` of ``a[lo:lo + n]``: 8 accumulators up to 128 values, halves above."""
    if n < 8:
        res = -0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        r = a[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += a[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


def mean(a: list[float]) -> float:
    """numpy's ``mean`` of a non-empty float64 array: its pairwise sum added to 0.0, over the count."""
    return (0.0 + _pairwise_sum(a, 0, len(a))) / len(a)


def _fma_square(x: float, z: float) -> float:
    """``x * x + z`` rounded once, as a fused multiply-add: exact integers, one correctly rounded division."""
    (xn, xd), (zn, zd) = x.as_integer_ratio(), z.as_integer_ratio()
    xd *= xd
    return (xn * xn * zd + zn * xd) / (xd * zd)


def sum_of_squares(a: list[float]) -> float:
    """``np.dot(a, a)`` as OpenBLAS 0.3.31's SkylakeX ``ddot`` sums it.

    Blocks of 32 go into four 8-lane FMA accumulators, each then folded to
    4 lanes; blocks of 16 go into four 4-lane accumulators. Each lane adds
    its four accumulators in turn, the lanes combine as
    ``(l0 + l2) + (l1 + l3)``, and the last ``n % 16`` values are fused in one by one.
    """
    n = len(a)
    n16, n32 = n & -16, n & -32
    dot = 0.0
    if n16:
        wide = [0.0] * 32
        for i in range(0, n32, 32):
            for j in range(32):
                wide[j] = _fma_square(a[i + j], wide[j])
        acc = [wide[j] + wide[j + 4] for b in range(0, 32, 8) for j in range(b, b + 4)]
        for i in range(n32, n16, 16):
            for j in range(16):
                acc[j] = _fma_square(a[i + j], acc[j])
        l0, l1, l2, l3 = (((acc[j] + acc[j + 4]) + acc[j + 8]) + acc[j + 12] for j in range(4))
        dot = (l0 + l2) + (l1 + l3)
    for i in range(n16, n):
        dot = _fma_square(a[i], dot)
    return dot


def linspace(k: int) -> list[float]:
    """numpy's ``linspace(-1.0, 1.0, k)`` for k >= 2: ``i * step - 1.0``, the last value exactly 1.0."""
    step = 2.0 / (k - 1)
    return [i * step + -1.0 for i in range(k - 1)] + [1.0]


def _centered(d: list[float]) -> tuple[list[float], float]:
    m = mean(d)
    d = [x - m for x in d]
    return d, math.sqrt(sum_of_squares(d))


def centered_unit(rng: Pcg64, k: int) -> list[float]:
    """k deviations with zero sum and unit sum of squares, drawn from ``rng``.

    Draws that are all but equal (norm below 1e-12) give way to evenly spaced values.
    """
    if k < 2:
        return [0.0] * k
    d, norm = _centered(rng.uniform(k))
    if norm < 1e-12:
        d, norm = _centered(linspace(k))
    return [x / norm for x in d]
