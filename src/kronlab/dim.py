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
# finest box-count scale is 2**-MAX_SCALE_BITS: cell indices stay below 2**63
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
    word b // 64. Each cell bit is shifted straight into its place.
    """
    n, d = cells.shape
    words = np.zeros((n, -(-d * levels // 64)), dtype=np.uint64)
    for b in range(d * levels):
        src, dst = levels - 1 - b // d, 63 - b % 64
        bit = cells[:, b % d] & np.uint64(1 << src)
        words[:, b // 64] |= (bit << np.uint64(dst - src) if dst >= src
                              else bit >> np.uint64(src - dst))
    return words


def _distinct_rows(arr: np.ndarray) -> int:
    """The number of distinct rows of an (N, d) float array in [0, 1).

    Each row gets one uint64 key: its cells floor(x * 2**b) at
    b = floor(64 / d) bits per axis, concatenated with column 0 on top.
    The key is a function of the row, and exactly so: x * 2**b is exact,
    since scaling by a power of two is, and its floor is below
    2**b <= 2**64, so the cast to uint64 is exact too; -0.0 and 0.0,
    equal as points, both give cell 0. So equal rows have equal keys, and
    if no two sorted keys are equal the N rows are distinct. Otherwise
    the keys are freed and the rows counted exactly, by a sort of their
    float bit patterns. For d > 64, b = 0 and every key is 0, so that
    exact count always runs.
    """
    n, d = arr.shape
    b = 64 // d
    scale = float(1 << b)
    # the cast truncates, which is the floor on [0, 1); starting from
    # column 0 never shifts a nonzero key by 64 when d = 1
    keys = (arr[:, 0] * scale).astype(np.uint64)
    for k in range(1, d):
        keys <<= np.uint64(b)
        keys |= (arr[:, k] * scale).astype(np.uint64)
    keys.sort()
    if not (keys[1:] == keys[:-1]).any():
        return n
    del keys
    # + 0.0 maps -0.0 onto 0.0, which compares equal to it but has
    # another bit pattern
    patterns = _sorted_rows((arr + 0.0).view(np.uint64))
    return 1 + _prefix_changes(patterns[1:] ^ patterns[:-1], 64 * d)


def box_count(points, scales) -> BoxCountCurve:
    """Count occupied grid cells of side eps for each dyadic eps.

    points is an (N, d) array-like, or 1-D for d = 1; any other shape,
    ragged rows included, is refused. A scale within 1e-12 of 2**-j in
    log2 is reported as exactly 2**-j, coarsest first.

    Cells wrap nothing explicitly: coordinates must live in [0, 1) and
    the dyadic grid tiles the torus exactly, so cell index floor(x / eps)
    is both the Euclidean and the torus assignment.

    One sort serves every scale (Liebovitch & Toth 1989): each point's
    finest cell is bit-interleaved into a Morton key (Morton 1966) by
    shifts, the cell at a coarser scale 2**-j is the key's top d*j bits,
    and sorted keys stay sorted under truncation, so each count is 1
    plus the number of prefix changes between neighbours. points_used is
    the exact number of distinct points (_distinct_rows).
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
    levels = sorted({_check_dyadic(e) for e in scales})
    if not levels:
        raise ValidationError("no scales given")
    d = arr.shape[1]
    # x * 2**J is exact and below 2**J <= 2**63, so the cast is exact
    cells = np.floor(arr * float(1 << levels[-1])).astype(np.uint64)
    keys = _sorted_rows(_morton_words(cells, levels[-1]))
    flips = keys[1:] ^ keys[:-1]
    counts = [1 + _prefix_changes(flips, d * j) for j in levels]
    return BoxCountCurve(
        scales=tuple(2.0 ** -j for j in levels),
        counts=tuple(counts),
        points_used=_distinct_rows(arr),
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


def holder_bound(di_base: float, alpha: float) -> float:
    """Dimension ceiling after composing with an alpha-Holder map."""
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 <= di_base < math.inf:
        raise ValidationError(f"base dimension must be finite and nonnegative, got {di_base}")
    return di_base / alpha
