"""Dimension estimation: box counts, log-log slopes, and bound formulas.

The empirical side is deliberately plain. A box count answers "how many
dyadic grid cells does the sample touch" per scale; a fit answers "what
power law explains those counts", with extremal two-point slopes kept
alongside the least-squares value so the caller sees how far the curve
is from an actual power law. The theoretical side evaluates the closed
bound formulas the empirical slopes are compared against.

Finite samples flatten every count curve eventually: once N approaches
the number of distinct sample points (or the finest grid's capacity)
the remaining scales measure the sample, not the set. Those scales are
excluded from fits, never from the reported curve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundUndefinedError, InsufficientDataError, ValidationError

SATURATION = 0.98
# finest box-count scale is 2**-MAX_SCALE_BITS; box_count's key cells stay below 2**64
MAX_SCALE_BITS = 63
_ALL64 = (1 << 64) - 1


@dataclass(frozen=True)
class BoxCountCurve:
    """Occupied dyadic cell counts of one point sample, coarse to fine."""

    scales: tuple[float, ...]
    counts: tuple[int, ...]
    points_used: int
    ambient_dim: int


@dataclass(frozen=True)
class DimensionEstimate:
    """A fitted log-log slope with its spread and the data that made it.

    slope is the least-squares value; slope_lower/slope_upper are the
    extremal slopes between consecutive sample pairs, bracketing how
    non-power-law the data is. samples holds the (scale, value) pairs
    fitted, excluded the pairs dropped as saturated.
    """

    slope: float
    slope_lower: float
    slope_upper: float
    fit_residual: float
    samples: tuple[tuple[float, float], ...]
    excluded: tuple[tuple[float, float], ...] = ()


def _check_dyadic(scale: float) -> int:
    """The level j of a scale within 1e-12 of 2**-j in log2."""
    # numpy's complex would pass the range test and lose its imaginary part in
    # log2; Python's complex, text and None fail it with TypeError (see box_count)
    if np.iscomplexobj(scale):
        raise ValidationError(f"scale {scale!r} is not a real number")
    # the range test comes first: log2 refuses 0 and negatives, and NaN fails it
    if not (0 < scale <= 0.5 and abs((j := -math.log2(scale)) - round(j)) <= 1e-12):
        raise ValidationError(f"scale {scale} is not a dyadic fraction <= 1/2")
    if j > MAX_SCALE_BITS:
        raise ValidationError(f"scale {scale} is finer than 2**-{MAX_SCALE_BITS}")
    return round(j)


def _sorted_rows(words: np.ndarray) -> np.ndarray:
    """Rows of a uint64 (N, W) array in lexicographic order, column 0 first."""
    if words.shape[1] == 1:
        return np.sort(words, axis=0)
    return words[np.lexsort(words.T[::-1])]


def _prefix_changes(flips: np.ndarray, nbits: int) -> int:
    """Adjacent sorted keys that differ within their top nbits bits.

    flips is the XOR of neighbouring rows of big-endian multi-word keys.
    """
    full, rest = divmod(nbits, 64)
    mask = np.zeros(flips.shape[1], dtype=np.uint64)
    mask[:full] = _ALL64
    if rest:
        mask[full] = (_ALL64 << (64 - rest)) & _ALL64
    return int(np.count_nonzero((flips & mask).any(axis=1)))


def _morton_words(cells: np.ndarray, levels: int) -> np.ndarray:
    """Interleave the low `levels` bits of each row's cells, high bits first.

    Key bit b (from the top) is bit levels - 1 - b // d of axis b % d, so
    the top d*j bits of a key name the row's cell at scale 2**-j. The
    d*levels-bit key is stored big-endian in ceil(d*levels/64) uint64
    words, zero-padded at the bottom: key bit b is bit 63 - b % 64 of
    word b // 64. An axis's bits in one word are one field of its cell,
    levels lo..hi, spread to stride d by binary magic numbers (Anderson,
    "Bit Twiddling Hacks"): each step splits blocks of 2k field bits in
    halves, moves the upper halves up by k*(d - 1) and masks off the
    lower halves' copies, so field bit i ends at bit i*d.
    """
    n, d = cells.shape
    words = np.zeros((n, -(-d * levels // 64)), dtype=np.uint64)
    for w in range(words.shape[1]):
        for a in range(d):
            # level l of axis a is key bit l*d + a, in word w when in [64w, 64w + 64)
            lo, hi = max(0, -((a - 64 * w) // d)), min(levels - 1, (64 * w + 63 - a) // d)
            if lo > hi:
                continue
            field = (cells[:, a] << np.uint64(64 - levels + lo)) >> np.uint64(63 - hi + lo)
            k = 1 << (hi - lo).bit_length() if d > 1 else 1
            while k > 1:
                k >>= 1
                field |= field << np.uint64(k * (d - 1))
                field &= np.uint64(sum(1 << (i // k * k * d + i % k) for i in range(hi - lo + 1)))
            words[:, w] |= field << np.uint64(63 - (hi * d + a - 64 * w))
    return words


def box_count(points, scales) -> BoxCountCurve:
    """Count occupied grid cells of side eps for each dyadic eps.

    points is an (N, d) array-like, or 1-D for d = 1; any other shape,
    ragged rows included, is refused. A scale within 1e-12 of 2**-j in
    log2 is reported as exactly 2**-j, coarsest first.

    Cells wrap nothing explicitly: coordinates must live in [0, 1) and
    the dyadic grid tiles the torus exactly, so cell index floor(x / eps)
    is both the Euclidean and the torus assignment.

    One key and one sort serve every scale and points_used (Liebovitch &
    Toth 1989). Each point's cell at 2**-top, top = max(J, 64 // d) for
    the finest requested level J, is bit-interleaved into a Morton key
    (Morton 1966); its top d*j bits name the cell at 2**-j, and sorted
    keys stay sorted under truncation, so each count is 1 plus the number
    of prefix changes between neighbours. x * 2**top is exact and its
    floor below 2**top <= 2**64, so the cast to uint64 is exact, and -0.0
    and 0.0 both give cell 0: equal points have equal keys, and N distinct
    keys mean N distinct points. Otherwise the keys are freed and the
    points counted exactly, by a sort of their float bit patterns. The key
    keeps at least 64 // d bits per axis; for d > 64 that is none, top = J,
    and the exact count decides.
    """
    # ragged rows, and entries that are not numbers, fail the conversion; text
    # would convert and complex lose its imaginary part, so both are refused first
    try:
        arr = np.asarray(points)
        if arr.dtype.kind not in "biufO" or (arr.dtype.kind == "O" and any(
                isinstance(x, (str, bytes, complex)) for x in arr.flat)):
            raise TypeError(f"entries of {arr.dtype} are not real numbers")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"points are not an (N, d) array of numbers: {exc}") from None
    if arr.ndim not in (1, 2):
        raise ValidationError(f"points must be 1-D or 2-D, got {arr.ndim}-D")
    arr = arr[:, None] if arr.ndim == 1 else arr
    if arr.size == 0:
        raise ValidationError("empty point set")
    if not ((arr >= 0.0) & (arr < 1.0)).all():
        raise ValidationError("box_count needs coordinates in [0, 1)")
    try:
        levels = sorted({_check_dyadic(e) for e in scales})
    except TypeError as exc:
        raise ValidationError(f"scales are not real numbers: {exc}") from None
    if not levels:
        raise ValidationError("no scales given")
    n, d = arr.shape
    top = max(levels[-1], 64 // d)
    # the cells are freed once the words are built, the words once sorted
    keys = _sorted_rows(_morton_words(np.floor(arr * float(1 << top)).astype(np.uint64), top))
    flips = keys[1:] ^ keys[:-1]
    counts = [1 + _prefix_changes(flips, d * j) for j in levels]
    if not flips.any(axis=1).all():
        del keys, flips
        # + 0.0 maps -0.0 onto 0.0, which compares equal to it but has
        # another bit pattern
        patterns = _sorted_rows((arr + 0.0).view(np.uint64))
        n = 1 + _prefix_changes(patterns[1:] ^ patterns[:-1], 64 * d)
    return BoxCountCurve(
        scales=tuple(2.0 ** -j for j in levels),
        counts=tuple(counts),
        points_used=n,
        ambient_dim=d,
    )


def _loglog_fit(pairs, excluded=()) -> DimensionEstimate:
    x = np.log([1.0 / e for e, _ in pairs])
    y = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    twopoint = (y[1:] - y[:-1]) / (x[1:] - x[:-1])
    return DimensionEstimate(
        slope=float(slope),
        slope_lower=float(twopoint.min()),
        slope_upper=float(twopoint.max()),
        fit_residual=residual,
        samples=tuple((float(e), float(v)) for e, v in pairs),
        excluded=tuple((float(e), float(v)) for e, v in excluded),
    )


def box_dimension_fit(curve: BoxCountCurve) -> DimensionEstimate:
    """Fit log N against log(1/eps), dropping saturated scales.

    A scale is saturated when its count reaches 98% of the distinct
    sample points, or 98% of the finest grid's cell budget; both mean
    the count has stopped tracking the underlying set.
    """
    if len(curve.scales) < 4:
        raise InsufficientDataError(
            f"need at least 4 scales, got {len(curve.scales)}"
        )
    finest_cells = (1.0 / min(curve.scales)) ** curve.ambient_dim
    kept, dropped = [], []
    for eps, n in zip(curve.scales, curve.counts):
        saturated = (
            n >= SATURATION * curve.points_used
            or n >= SATURATION * finest_cells
        )
        (dropped if saturated else kept).append((eps, n))
    if len(kept) < 2:
        raise InsufficientDataError(
            f"{len(kept)} unsaturated scales of {len(curve.scales)}; the "
            f"sample is too small for these scales"
        )
    return _loglog_fit(kept, dropped)


def _ladder_pairs(ladder) -> list[tuple[float, float]]:
    pairs = []
    for row in ladder:
        if hasattr(row, "epsilon"):
            eps, l_hat, truncated = row.epsilon, row.l_hat, row.truncated
        elif len(row) == 3:
            eps, l_hat, truncated = row
        else:
            eps, l_hat = row
            truncated = False
        if truncated:
            raise ValidationError(
                f"truncated row at epsilon={eps}: filter unclean rows "
                f"before fitting, they bias the slope low"
            )
        if not (0 < eps < math.inf and 0 < l_hat < math.inf):
            raise ValidationError(f"need a finite positive epsilon and length, got "
                                  f"l_hat={l_hat} at epsilon={eps}")
        pairs.append((float(eps), float(l_hat)))
    return pairs


def diophantine_dimension_fit(ladder) -> DimensionEstimate:
    """Fit log l_hat against log(1/eps) over a clean ladder.

    Accepts LadderRow objects or bare (eps, l_hat) / (eps, l_hat,
    truncated) tuples; any truncated row is a hard error.
    """
    pairs = _ladder_pairs(ladder)
    if len(pairs) < 4:
        raise InsufficientDataError(f"need at least 4 clean rows, got {len(pairs)}")
    eps = [e for e, _ in pairs]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilon values must be strictly decreasing")
    return _loglog_fit(pairs)


@dataclass(frozen=True)
class BoundBracket:
    """The closed-form dimension bracket for given (m, n, nu, d)."""

    lower: float
    upper: float
    inputs: tuple[float, ...]


def lower_bound(n: int, d: float) -> float:
    """The bracket's lower end, (d - n) / n; it holds for every nu."""
    return (d - n) / n


def theoretical_bounds(m: int, n: int, nu: float, d: float) -> BoundBracket:
    """Evaluate the bracket lower=lower_bound(n, d), upper=(1+nu)m/(1-nu(m-1)).

    The upper formula exists only under nu*(m-1) < 1; outside that the
    request is refused rather than returning a negative or infinite
    bound.
    """
    if m < 1 or n < 1:
        raise ValidationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if not 0 <= nu < math.inf:
        raise ValidationError(f"order nu must be finite and nonnegative, got {nu}")
    if not 0 <= d <= m + n:
        raise ValidationError(f"ambient dimension d={d} outside [0, {m + n}]")
    hypothesis = nu * (m - 1)
    if hypothesis >= 1:
        raise BoundUndefinedError(
            f"upper bound undefined: needs nu*(m-1) < 1, got {hypothesis}"
        )
    upper = (1.0 + nu) * m / (1.0 - hypothesis)
    return BoundBracket(lower=lower_bound(n, d), upper=upper, inputs=(m, n, nu, d))


def check_alpha(alpha: float) -> None:
    """Refuse a Holder exponent outside (0, 1], NaN included."""
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")


def holder_bound(di_base: float, alpha: float) -> float:
    """Dimension ceiling after composing with an alpha-Holder map."""
    check_alpha(alpha)
    if not 0 <= di_base < math.inf:
        raise ValidationError(f"base dimension must be finite and nonnegative, got {di_base}")
    return di_base / alpha
