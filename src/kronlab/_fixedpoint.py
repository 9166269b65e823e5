"""Exact fixed-point arithmetic and the vectorized residual kernel.

A real number is stored as ``round(value * 2**bits)``, a plain Python int,
so multiplying by an integer q and reducing mod 1 are exact operations on
integers. The hot loops (window scans over millions of q) cannot afford
per-element bigint work, so they run on the top 128 bits of the stored
value: four uint64 limb multiplications per coordinate, carried mod 2**128
in numpy. Within a chunk the index offsets stay below 2**20, every partial
product fits a uint64 with room to spare, and the result is exact, which
is what makes chunked scans independent of the chunk size.

Truncating a step to 128 bits costs less than 2**-128 per unit of q, and
each chunk's anchor is built as truncated step times start, so the error
grows like start * 2**-128. Near the top of the budget the precision
guard admits (|q| up to 2**(bits-32), 2**160 at the default 192 bits)
that is not below the 2**-32 the reported residuals are trusted to, and
scans there can disagree with exact arithmetic; see ROADMAP item 2.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

KERNEL_BITS = 128
_MOD = 1 << KERNEL_BITS
_M32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# small enough that a chunk's uint64 temporaries stay in cache: on a 2-core
# x86 VM, 2**19 scanned 2-3x fewer q/s than 2**15
CHUNK = 1 << 15

_GRID = 1 << 53
_GRID_F = float(_GRID)


def to_scaled(value, bits: int) -> int:
    """Nearest multiple of 2**-bits, as the integer round(value * 2**bits).

    Accepts anything Fraction accepts (float, int, Fraction, decimal text).
    Exact: Fraction.__round__ is round-half-even on exact rationals.
    """
    return round(Fraction(value) * (1 << bits))


def round_shift(v: int, s: int) -> int:
    """round(v / 2**s) with ties to even, for nonnegative v."""
    if s <= 0:
        return v << -s
    q, r = v >> s, v & ((1 << s) - 1)
    half = 1 << (s - 1)
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def frac_to_unit_float(v: int, bits: int) -> float:
    """Map a scaled fraction v (0 <= v < 2**bits) onto the 2**-53 grid in [0, 1).

    Rounding onto a fixed grid rather than to nearest float keeps the
    result sign-symmetric: v and 2**bits - v land on k/2**53 and
    (2**53 - k)/2**53, both exactly representable.
    """
    k = round_shift(v, bits - 53) & (_GRID - 1)
    return k / _GRID_F


def eps_to_u64(eps: float) -> int:
    """Threshold eps as a count of 2**-64 units (nearest)."""
    u = round(Fraction(eps) * (1 << 64))
    return min(max(u, 0), (1 << 64) - 1)


def step128(scaled: int, bits: int) -> int:
    """Top 128 bits of a scaled value, as a step per unit q (mod 2**128)."""
    if bits <= KERNEL_BITS:
        return (scaled << (KERNEL_BITS - bits)) % _MOD
    return (scaled >> (bits - KERNEL_BITS)) % _MOD


def offset128(value) -> int:
    """A target coordinate as a 128-bit fixed-point offset."""
    return to_scaled(value, KERNEL_BITS) % _MOD


def _limbs(v: int) -> tuple[np.uint64, np.uint64, np.uint64, np.uint64]:
    return (
        np.uint64(v & 0xFFFFFFFF),
        np.uint64((v >> 32) & 0xFFFFFFFF),
        np.uint64((v >> 64) & 0xFFFFFFFF),
        np.uint64((v >> 96) & 0xFFFFFFFF),
    )


def dot_hi64(steps: list[int], digits: list[np.ndarray]) -> np.ndarray:
    """Top 64 bits of sum(t * x) mod 2**128 over steps t and uint64 digit arrays x.

    Limb k sums one 32-bit limb of each step times its digits, plus the
    carry out of limb k - 1; by induction that stays below
    n * max(x) * 2**32, so every sum is exact while n * max(x) < 2**32.
    """
    limbs = [_limbs(t) for t in steps]
    acc = np.zeros_like(digits[0])
    words = []
    for k in range(4):
        acc = acc >> _SHIFT32
        for limb, x in zip(limbs, digits):
            acc += x * limb[k]
        words.append(acc & _M32)
    return words[2] | (words[3] << _SHIFT32)


def hi64_to_unit_floats(hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """frac_to_unit_float for 128-bit fractions given by their top 64 bits.

    hi is floor(V / 2**64) of V in units of 2**-128; bit 10 of hi is the
    rounding bit of the 2**-53 grid. Returns the grid floats, rounded half
    up, and the positions where bits 0..10 of hi are 0x3FF or 0x400: there
    V lies within 2**64 of a rounding tie, so dropped low bits (an
    underestimate of V) or the tie-to-even rule can change the result, and
    the caller must redo those exactly.
    """
    k = ((hi >> np.uint64(11)) + ((hi >> np.uint64(10)) & np.uint64(1))) & np.uint64(_GRID - 1)
    low = hi & np.uint64(0x7FF)
    return k.astype(np.float64) / _GRID_F, np.flatnonzero((low == 0x3FF) | (low == 0x400))


class ResidualKernel:
    """Vectorized sup-norm torus residuals of q*omega - theta.

    steps and offsets are 128-bit fixed-point integers, one per coordinate.
    residuals() returns uint64 distances in units of 2**-64: the true
    kernel distance is dist/2**64 up to the 128-bit truncation above.
    """

    def __init__(self, steps: list[int], offsets: list[int] | None = None):
        if not steps:
            raise ValueError("kernel needs at least one coordinate")
        self.steps = [int(s) % _MOD for s in steps]
        if offsets is None:
            offsets = [0] * len(steps)
        if len(offsets) != len(steps):
            raise ValueError("steps/offsets length mismatch")
        self.offsets = [int(t) % _MOD for t in offsets]

    def _coord_dists(self, step: int, anchor: int, idx: np.ndarray) -> np.ndarray:
        # 32-bit limb school multiplication, carried mod 2**128; only the
        # top 64 bits survive into the distance. idx < 2**30 keeps every
        # partial sum below 2**63.
        v0, v1, v2, v3 = _limbs(step)
        a0, a1, a2, a3 = _limbs(anchor)
        s = idx * v0 + a0
        c = s >> _SHIFT32
        s = idx * v1 + a1 + c
        c = s >> _SHIFT32
        s = idx * v2 + a2 + c
        c = s >> _SHIFT32
        hi = s & _M32
        s = idx * v3 + a3 + c
        hi |= (s & _M32) << _SHIFT32
        return np.minimum(hi, np.uint64(0) - hi)

    def residuals(self, start: int, n: int) -> np.ndarray:
        """uint64 residual array for q = start, start+1, ..., start+n-1."""
        if n <= 0:
            return np.zeros(0, dtype=np.uint64)
        if n >= (1 << 30):
            raise ValueError("single residual block limited to 2**30 entries; use chunks()")
        idx = np.arange(n, dtype=np.uint64)
        out = None
        for step, off in zip(self.steps, self.offsets):
            anchor = (step * start - off) % _MOD
            d = self._coord_dists(step, anchor, idx)
            out = d if out is None else np.maximum(out, d, out=out)
        return out

    def chunks(self, lo: int, hi: int):
        """Yield (start, residual_array) covering q in [lo, hi] inclusive."""
        q = lo
        while q <= hi:
            n = min(CHUNK, hi - q + 1)
            yield q, self.residuals(q, n)
            q += n

    def residuals_at(self, qs: np.ndarray) -> np.ndarray:
        """Residuals for an arbitrary array of nonnegative multipliers.

        The limb products need qs < 2**30 to stay inside uint64; larger
        multipliers should go through residuals()/chunks with a start
        offset instead.
        """
        qs = np.asarray(qs)
        if qs.size == 0:
            return np.zeros(0, dtype=np.uint64)
        if qs.min() < 0 or qs.max() >= (1 << 30):
            raise ValueError("residuals_at needs multipliers in [0, 2**30)")
        idx = qs.astype(np.uint64)
        out = None
        for step, off in zip(self.steps, self.offsets):
            anchor = (-off) % _MOD
            d = self._coord_dists(step, anchor, idx)
            out = d if out is None else np.maximum(out, d, out=out)
        return out


def _hits(kernel: ResidualKernel, lo: int, hi: int, eps_u64: int):
    """Yield (start, offsets) for each chunk holding a q with residual <= eps.

    Offsets stay relative to the start, so first_solution can return a
    Python int for starts past the int64 range.
    """
    thr = np.uint64(eps_u64)
    for start, res in kernel.chunks(lo, hi):
        pos = np.nonzero(res <= thr)[0]
        if len(pos):
            yield start, pos


def solutions_in(kernel: ResidualKernel, lo: int, hi: int, eps_u64: int) -> np.ndarray:
    """All q in [lo, hi] with residual <= eps, ascending int64 array."""
    found = [pos.astype(np.int64) + start
             for start, pos in _hits(kernel, lo, hi, eps_u64)]
    if not found:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(found)


def first_solution(kernel: ResidualKernel, lo: int, hi: int, eps_u64: int) -> int | None:
    for start, pos in _hits(kernel, lo, hi, eps_u64):
        return start + int(pos[0])
    return None


def record_lows(kernel: ResidualKernel, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict record lows of the residual over [lo, hi].

    Returns (q values, uint64 dists); the first point is always a record.
    The last record at or below c is the earliest minimiser on [lo, c].

    Each chunk evaluates coordinate 0 on every q but the other coordinates
    only on the survivors, the q whose coordinate-0 distance is below the
    running best at the chunk's start. Any other q has a residual at least
    that best, so it can neither set a record nor lower the running
    minimum, and the records are those of the full residual.
    """
    qs, ds = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.uint64)]
    best = np.uint64(0xFFFFFFFFFFFFFFFF)
    (step0, off0), *rest = zip(kernel.steps, kernel.offsets)
    idx = np.arange(CHUNK, dtype=np.uint64)
    start = lo
    while start <= hi:
        n = min(CHUNK, hi - start + 1)
        d0 = kernel._coord_dists(step0, (step0 * start - off0) % _MOD, idx[:n])
        pos = np.flatnonzero(d0 < best)
        res = d0[pos]
        survivors = pos.view(np.uint64)  # nonnegative, so the same values
        for step, off in rest:
            np.maximum(res, kernel._coord_dists(step, (step * start - off) % _MOD, survivors), out=res)
        # run[i] is the lowest residual before survivor i, best included
        run = np.minimum.accumulate(np.concatenate(([best], res)))
        mask = res < run[:-1]
        qs.append(pos[mask] + start)
        ds.append(res[mask])
        best = run[-1]
        start += n
    return np.concatenate(qs), np.concatenate(ds)
