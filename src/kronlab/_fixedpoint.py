"""Exact fixed-point arithmetic and the vectorized residual kernel.

A real number is stored as ``round(value * 2**bits)``, a plain Python int,
so multiplying by an integer q and reducing mod 1 are exact operations on
integers. The hot loops (window scans over millions of q) cannot afford
per-element bigint work, so they run on 128-bit fixed point: every numpy
128-bit product goes through the one carry chain, dot_hi64.

The kernel alone decides which 128 bits it sees. Each chunk's anchor is
the top 128 bits of the exact ``(scaled*start - offset) mod 2**bits``; the
step truncated to 128 bits is used only for the in-chunk offsets, which
stay below 2**30. Anchor and steps together drop less than 2**30 units of
2**-128, and keeping the top 64 of the 128 bits less than one unit of
2**-64, so at every start the precision budget admits, a reported
distance is within _SLACK units of 2**-64 of the exact one.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import ValidationError

KERNEL_BITS = 128
_MOD = 1 << KERNEL_BITS
_SHIFT32 = np.uint64(32)
# small enough that a chunk's uint64 temporaries stay in cache: on a 2-core
# x86 VM, 2**19 scanned 2-3x fewer q/s than 2**15
CHUNK = 1 << 15

_GRID = 1 << 53
_GRID_F = float(_GRID)


def exact(value) -> Fraction:
    """A real from outside (float, int, Fraction, decimal text) as a Fraction;
    NaN, infinities and what is not a number are refused with ValidationError."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{value!r} is not a finite real number: {exc}") from None


def to_scaled(value, bits: int) -> int:
    """Nearest multiple of 2**-bits, as the integer round(value * 2**bits).

    Accepts what exact() accepts; a finite value converts exactly, since
    Fraction.__round__ is round-half-even on exact rationals.
    """
    return round(exact(value) * (1 << bits))


def round_shift(v: int, s: int) -> int:
    """round(v / 2**s) with ties to even, for nonnegative v."""
    if s <= 0:
        return v << -s
    if s > v.bit_length():  # v < 2**(s-1): below one half, without building 2**s
        return 0
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
    """Top 128 bits of a scaled value mod 1, in units of 2**-128."""
    if bits <= KERNEL_BITS:
        return (scaled << (KERNEL_BITS - bits)) % _MOD
    return (scaled >> (bits - KERNEL_BITS)) % _MOD


def _anchor_limbs(anchors: list[int]) -> np.ndarray:
    """Many anchors in [0, 2**128) as dot_hi64 takes them: a (3, len) uint64
    array of the limbs v0, v1 and V of each, named as in dot_hi64."""
    words = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in anchors), "<u8")
    low, high = words[0::2].astype(np.uint64), words[1::2].astype(np.uint64)
    return np.stack((low & np.uint64(0xFFFFFFFF), low >> _SHIFT32, high))


def _limbs(v: int) -> list[np.uint64]:
    return [np.uint64(v & 0xFFFFFFFF), np.uint64((v >> 32) & 0xFFFFFFFF), np.uint64(v >> 64)]


def dot_hi64(anchor, steps: list[int], digits: list[np.ndarray]) -> np.ndarray:
    """Top 64 bits of (anchor + sum(t * x)) mod 2**128, elementwise.

    anchor and the steps t lie in [0, 2**128); the digits x are uint64 arrays,
    one per step. anchor is one int, or many anchors given by their limbs,
    _anchor_limbs(ints), sliced so that each limb broadcasts against the
    digits: a (3, G, 1) slice gives one anchor per row of a (G, n) result,
    a (3, n) slice one per element of n digits.
    Classical multiprecision multiplication (Knuth, TAOCP
    Vol. 2, 4.3.1, Algorithm M) in one uint64 accumulator, on the limbs
    v = v0 + v1 * 2**32 + V * 2**64 of the anchor a and of each t: limb 0
    sums a0 + sum(t0 * x), limb 1 adds a1 + sum(t1 * x) to its carry out,
    and as the low 64 bits reach the top 64 only through limb 1's carry out,
    that carry plus A + sum(T * x), wrapped mod 2**64, is the answer.
    Exact while S < 2**32, S the largest per-element sum(x), for one anchor
    or many alike: a carry in of
    at most S gives a limb sum of at most (2**32 - 1) * (S + 1) + S =
    (S + 1) * 2**32 - 1 < 2**64, whose carry out is at most S again; the
    carry into limb 0 is 0.
    """
    a = anchor if isinstance(anchor, np.ndarray) else _limbs(anchor)
    limbs = [_limbs(t) for t in steps]
    # prod first: freed below acc on return, it is reused, not trimmed off
    # the heap top and faulted in again next call (scan-ladder ops took 1.7x
    # the page faults the other way round, on a 2-core x86 VM)
    prod = np.empty_like(digits[0])
    # adding limb 0 widens acc to the anchors' broadcast shape
    acc = np.add(a[0], np.multiply(digits[0], limbs[0][0], out=prod))
    for k in range(3):
        if k:
            acc >>= _SHIFT32
            acc += a[k]
        for j, (x, t) in enumerate(zip(digits, limbs)):
            if k or j:
                acc += np.multiply(x, t[k], out=prod)
    return acc


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


_SLACK = 2  # bound on a reported distance's error, units of 2**-64


def _spans(lo: int, hi: int):
    """Yield (start, n) for each CHUNK-sized piece of [lo, hi]; the first is longest."""
    for start in range(lo, hi + 1, CHUNK):
        yield start, min(CHUNK, hi - start + 1)


def _coord_dists(step: int, anchor, idx: np.ndarray) -> np.ndarray:
    """Torus distances of one coordinate, in units of 2**-64, as dot_hi64
    gives them; anchor is one int or many, as dot_hi64 takes it."""
    hi = dot_hi64(anchor, [step], [idx])
    return np.minimum(hi, np.uint64(0) - hi, out=hi)


class ResidualKernel:
    """Vectorized sup-norm torus residuals of q*omega - theta.

    scaled and offsets are the stored integers of omega and theta, one per
    coordinate, in units of 2**-bits; at the default bits = 128 they are
    128-bit fixed-point values. residuals() returns uint64 distances in
    units of 2**-64, each within _SLACK units of the exact distance of
    those integers; _exact() gives the exact residual.
    """

    def __init__(self, scaled: list[int], offsets: list[int] | None = None,
                 bits: int = KERNEL_BITS):
        offsets = [0] * len(scaled) if offsets is None else offsets
        if not scaled or len(offsets) != len(scaled):
            raise ValueError("kernel needs at least one coordinate and one offset each")
        self.bits = bits
        self.unit = 1 << bits
        self.scaled = [int(s) % self.unit for s in scaled]
        self.offsets = [int(t) % self.unit for t in offsets]
        self.steps = [step128(s, bits) for s in self.scaled]

    def _anchors(self, start: int, offsets: list[int]) -> list[int]:
        """Top 128 bits of (scaled*start - offset) mod 2**bits, per
        coordinate: the anchors of a chunk at start."""
        return [step128(s * start - t, self.bits) for s, t in zip(self.scaled, offsets)]

    def _exact(self, q: int) -> int:
        """The exact residual of q, in units of 2**-bits."""
        vs = [(s * q - t) % self.unit for s, t in zip(self.scaled, self.offsets)]
        return max(min(v, self.unit - v) for v in vs)

    def _max_dists(self, start: int, idx: np.ndarray) -> np.ndarray:
        out = None
        for step, anchor in zip(self.steps, self._anchors(start, self.offsets)):
            d = _coord_dists(step, anchor, idx)
            out = d if out is None else np.maximum(out, d, out=out)
        return out

    def residuals(self, start: int, n: int) -> np.ndarray:
        """uint64 residual array for q = start, start+1, ..., start+n-1."""
        if n >= (1 << 30):
            raise ValueError("single residual block limited to 2**30 entries; split by _spans()")
        return self._max_dists(start, np.arange(n, dtype=np.uint64))

    def residuals_at(self, qs) -> np.ndarray:
        """uint64 residuals for an array of multipliers in [0, 2**30)."""
        qs = np.asarray(qs)
        if qs.size and (qs.min() < 0 or qs.max() >= (1 << 30)):
            raise ValueError("residuals_at needs multipliers in [0, 2**30)")
        return self._max_dists(0, qs.astype(np.uint64))


def _hits(kernel: ResidualKernel, lo: int, hi: int, eps_u64: int):
    """Yield (start, offsets) for each chunk holding a q with residual <= eps."""
    thr = np.uint64(eps_u64)
    for start, n in _spans(lo, hi):
        # res lives until the next is made: freeing each at once took 3.2x the page faults
        res = kernel.residuals(start, n)
        pos = np.nonzero(res <= thr)[0]
        if len(pos):
            yield start, pos


def solutions_in(kernel: ResidualKernel, lo: int, hi: int, eps_u64: int) -> np.ndarray:
    """All q in [lo, hi] with residual <= eps, ascending: int64 when the
    window fits in int64, else Python ints in an object array."""
    dtype = np.int64 if -(1 << 63) <= lo and hi < (1 << 63) else object
    found = [pos.astype(dtype) + start for start, pos in _hits(kernel, lo, hi, eps_u64)]
    return np.concatenate([np.zeros(0, dtype), *found])


def first_solution(kernel: ResidualKernel, lo: int, hi: int, eps_u64: int) -> int | None:
    return next((start + int(pos[0]) for start, pos in _hits(kernel, lo, hi, eps_u64)), None)


def lockstep_solutions(kernel: ResidualKernel, tagged_offsets, lo: int, hi: int, eps_u64: int):
    """Yield (tag, q) for each (tag, offsets) pair, in the pairs' order, and
    each q in [lo, hi] with residual <= eps, ascending: the q that
    solutions_in(ResidualKernel(kernel.scaled, offsets, kernel.bits), lo,
    hi, eps_u64) returns, for every pair at once.

    The pairs are read lazily, G = max(1, CHUNK // (hi - lo + 1)) at a
    time, so memory is bounded by one block: G pairs, and at most CHUNK
    distances at once. When G > 1 the window is a single span. At each span
    start the block takes one anchor per pair and coordinate, the kernel's
    own, from the offsets as given: step128 gives the same anchor for t and
    t + k*2**bits, because for bits <= 128 the left shift turns k*2**bits
    into k*2**128, and for bits > 128 the floor shift subtracts exactly
    k*2**128. Coordinate 0 runs on the whole (G, n) block, and each further
    coordinate only on the (pair, q) still within eps. A q passes every
    coordinate exactly when its maximum passes, so the same uint64
    distances accept the same q as the kernel's residuals.
    """
    steps = kernel.steps
    thr = np.uint64(eps_u64)
    pairs = iter(tagged_offsets)
    group = max(1, CHUNK // (hi - lo + 1))
    while block := list(itertools.islice(pairs, group)):
        for start, n in _spans(lo, hi):
            anchors = _anchor_limbs([a for _, offs in block for a in kernel._anchors(start, offs)])
            anchors = anchors.reshape(3, len(block), len(steps))
            d = _coord_dists(steps[0], anchors[:, :, 0, None], np.arange(n, dtype=np.uint64))
            # flat indices ascend in (pair, q) order; 2-D nonzero took 4x as long
            rows, pos = np.divmod(np.flatnonzero(d <= thr), n)
            for c in range(1, len(steps)):
                d = _coord_dists(steps[c], anchors[:, rows, c], pos.view(np.uint64))
                keep = np.flatnonzero(d <= thr)
                rows, pos = rows[keep], pos[keep]
            for i, x in zip(rows.tolist(), pos.tolist()):
                yield block[i][0], start + x


def record_lows(kernel: ResidualKernel, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict record lows of the exact residual over [lo, hi].

    Returns (q values, uint64 dists); the first point is always a record.
    The last record at or below c is the earliest minimiser on [lo, c].

    A q can set a record only if its distances, coordinate 0 included,
    are below every earlier residual plus 2 * _SLACK. Each chunk evaluates
    coordinate 0 on every q, the other coordinates only on the q that pass
    that test against the chunk's start, and decides the q that pass it
    against the running lowest on their exact residuals. Nothing beats an
    exact zero, so the scan stops there.
    """
    qs, ds = [], []
    # no distance exceeds 1/2, so adding the margin never wraps
    best = np.uint64(1 << 63)
    best_exact = kernel.unit
    step0, *rest = kernel.steps
    idx = np.arange(min(CHUNK, hi - lo + 1), dtype=np.uint64)  # the first span is longest
    for start, n in _spans(lo, hi):
        anchor0, *anchors = kernel._anchors(start, kernel.offsets)
        d0 = _coord_dists(step0, anchor0, idx[:n])
        pos = np.flatnonzero(d0 < best + 2 * _SLACK)
        res = d0[pos]
        survivors = pos.view(np.uint64)  # nonnegative, so the same values
        for step, anchor in zip(rest, anchors):
            np.maximum(res, _coord_dists(step, anchor, survivors), out=res)
        # run[i] is the lowest residual before survivor i, best included
        run = np.minimum.accumulate(np.concatenate(([best], res)))
        for i in np.flatnonzero(res < run[:-1] + 2 * _SLACK).tolist():
            q = start + int(pos[i])
            exact = kernel._exact(q)
            if exact < best_exact:
                best_exact = exact
                qs.append(q)
                ds.append(int(res[i]))
        best = run[-1]
        if not best_exact:
            break
    return np.array(qs, dtype=np.int64), np.array(ds, dtype=np.uint64)
