"""Solvers and scanners for torus approximation systems.

The scalar problem asks which integers q put q*omega within eps of a
target point, coordinatewise on the torus. This module enumerates those
solutions over windows (gap_scan), measures the largest hole between
them (inclusion_length_ladder), builds near-solutions additively from a
denominator ladder (greedy_almost_period), and generalizes the scan to
integer vectors against an m x n frequency matrix, including the
augmented form whose first block pins real solutions to integers.

Everything reduces residual evaluation to the fixed-point kernel, so a
scan's answer depends only on the stored frequency integers, never on
accumulated float error.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _fixedpoint as fx
from .approx import ConvergentSequence, _kernel_for
from .errors import BudgetExceededError, ValidationError, WindowTooNarrowError
from .torus import (
    DEFAULT_BITS,
    FrequencyTuple,
    PrecisionReal,
    TorusPoint,
    _check_window,
    frac_mult,
    frac_to_unit_float,
    precision_budget,
    torus_norm,
)


def _check_epsilon(epsilon: float):
    if not (0.0 < epsilon <= 0.5):
        raise ValidationError(f"epsilon={epsilon} outside (0, 1/2]; at 1/2 every integer "
                              f"already solves, beyond it nothing is asked")


@dataclass(frozen=True)
class KroneckerInstance:
    """One system |freq * q - target| <= epsilon, coordinatewise mod 1."""

    frequency: FrequencyTuple
    target: TorusPoint
    epsilon: float

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if len(self.target) != len(self.frequency):
            raise ValidationError(
                f"target dimension {len(self.target)} != frequency "
                f"dimension {len(self.frequency)}"
            )

    @classmethod
    def homogeneous(cls, freq: FrequencyTuple, epsilon: float) -> "KroneckerInstance":
        return cls(freq, TorusPoint([0.0] * len(freq)), epsilon)


def solve_in_interval(inst: KroneckerInstance, a: int, b: int) -> int | None:
    """Smallest integer q in [a, b] solving the instance, or None."""
    a, b = int(a), int(b)
    _check_window(inst.frequency.q_max, a, b)
    kernel = _kernel_for(inst.frequency, inst.target)
    return fx.first_solution(kernel, a, b, fx.eps_to_u64(inst.epsilon))


@dataclass(frozen=True)
class GapScan:
    """Complete solution set of an instance over one window.

    l_hat is the largest gap between consecutive solutions, the window
    estimate of the inclusion length. truncated warns that an edge gap
    (before the first or after the last solution) exceeds l_hat, so a
    larger hole may lie just outside the window.
    """

    instance: KroneckerInstance
    window: tuple[int, int]
    solutions: np.ndarray
    gaps: np.ndarray
    l_hat: int
    truncated: bool


def gap_scan(inst: KroneckerInstance, a: int, b: int) -> GapScan:
    a, b = int(a), int(b)
    _check_window(inst.frequency.q_max, a, b)
    kernel = _kernel_for(inst.frequency, inst.target)
    sols = fx.solutions_in(kernel, a, b, fx.eps_to_u64(inst.epsilon))
    if len(sols) < 2:
        raise WindowTooNarrowError(
            f"window [{a}, {b}] holds {len(sols)} solution(s) at "
            f"epsilon={inst.epsilon}; widen the window to measure a gap",
            found=len(sols),
        )
    gaps = np.diff(sols)
    l_hat = int(gaps.max())
    truncated = (int(sols[0]) - a) > l_hat or (b - int(sols[-1])) > l_hat
    return GapScan(
        instance=inst,
        window=(a, b),
        solutions=sols,
        gaps=gaps,
        l_hat=l_hat,
        truncated=truncated,
    )


@dataclass(frozen=True)
class WindowPolicy:
    """How inclusion_length_ladder sizes and grows its scan windows.

    The seed covers the expected gap scale eps^-m with a 50x margin and
    is at least 1, so doubling can grow it; doubling continues until the
    scan is untruncated or the budget is reached.
    """

    seed_min: int = 10_000
    seed_factor: float = 50.0
    budget: int = 100_000_000

    def __post_init__(self):
        if not 0 <= self.seed_factor < math.inf:
            raise ValidationError(
                f"seed_factor must be finite and nonnegative, got {self.seed_factor}")

    def seed(self, epsilon: float, m: int) -> int:
        try:
            return max(1, self.seed_min, math.ceil(self.seed_factor * (1.0 / epsilon) ** m))
        except OverflowError:  # a seed past every budget, which the ladder cuts to its budget
            return max(self.seed_min, self.budget)


@dataclass(frozen=True)
class LadderRow:
    epsilon: float
    l_hat: int
    window: tuple[int, int]
    truncated: bool
    scan: GapScan | None


def inclusion_length_ladder(freq: FrequencyTuple, target: TorusPoint,
                            epsilons, policy: WindowPolicy | None = None) -> list[LadderRow]:
    """Measure l_hat at each epsilon, growing windows until clean.

    Rows are emitted for every epsilon, in order. A row whose window hit
    the budget while still truncated keeps its flag set (and l_hat = 0 if
    not even two solutions were found); nothing is dropped silently.
    """
    if policy is None:
        policy = WindowPolicy()
    # every instance is built, so every epsilon checked, before any scan
    instances = [KroneckerInstance(freq, target, float(e)) for e in epsilons]
    if not instances:
        raise ValidationError("empty epsilon ladder")
    if any(b.epsilon >= a.epsilon for a, b in zip(instances, instances[1:])):
        raise ValidationError("epsilon ladder must be strictly decreasing")

    m = len(freq)
    budget = min(policy.budget, freq.q_max)
    rows = []
    for inst in instances:
        hi = min(policy.seed(inst.epsilon, m), budget)
        scan = None
        while True:
            try:
                scan = gap_scan(inst, 0, hi)
            except WindowTooNarrowError:
                scan = None
            if scan is not None and not scan.truncated:
                break
            if hi >= budget:
                break
            hi = min(2 * hi, budget)
        if scan is None:
            rows.append(LadderRow(inst.epsilon, 0, (0, hi), True, None))
        else:
            rows.append(LadderRow(inst.epsilon, scan.l_hat, scan.window, scan.truncated, scan))
    return rows


def max_pair_residual(scan: GapScan) -> float:
    """Worst homogeneous residual over differences of scan solutions.

    Any two solutions are each within eps of the target, so their
    difference is a 2*eps almost period; this computes the observed
    maximum for checking that bound.

    In coordinate j the difference of solutions a and b sits at x_b - x_a,
    where x = q*omega_j - theta_j is a solution's exact signed displacement
    in [-1/2, 1/2). With the displacements sorted, the partner of x_i
    farthest from the lattice is the last x_k within 1/2 above it or the
    first one beyond, so one two-pointer pass per coordinate finds the
    worst pair distance d*. It is the residual of the worst difference w:
    each coordinate distance of w is a pair distance, so at most d*, and
    grid rounding is monotone and sign-symmetric. w itself may exceed
    q_max, so d* is rounded directly.
    """
    freq = scan.instance.frequency
    sols = scan.solutions.tolist()
    unit = 1 << freq.bits
    half = unit >> 1
    worst_d = 0
    for c, theta in zip(freq.components, scan.instance.target):
        t = fx.to_scaled(theta, freq.bits)
        # solutions sharing a displacement are interchangeable here
        xs = sorted({(c.scaled * q - t + half) % unit - half for q in sols})
        last = len(xs) - 1
        k = 0
        for i, xi in enumerate(xs):
            if k < i:
                k = i
            while k < last and xs[k + 1] - xi <= half:
                k += 1
            if xs[k] - xi > worst_d:
                worst_d = xs[k] - xi
            if k < last and unit - (xs[k + 1] - xi) > worst_d:
                worst_d = unit - (xs[k + 1] - xi)
    return frac_to_unit_float(worst_d, freq.bits)


@dataclass(frozen=True)
class AlmostPeriod:
    """Greedy integer near-hit of a real target, built from ladder levels.

    coefficients[i] is the multiplicity of denominator q_{k0+i} in |tau|;
    the expansion satisfies sum(p * q) = |tau| exactly and |tau - target|
    < q_{k0}. Negative targets mirror the positive construction.
    """

    tau: int
    coefficients: tuple[int, ...]
    k0: int
    top_level: int
    target: float
    residual: float


def _check_k0(seq: ConvergentSequence, k0: int) -> None:
    if not 1 <= k0 <= len(seq):
        raise ValidationError(f"k0={k0} out of range 1..{len(seq)}")


def greedy_almost_period(seq: ConvergentSequence, target, k0: int) -> AlmostPeriod:
    _check_k0(seq, k0)
    dens = seq.denominators
    goal = target if isinstance(target, (int, float)) else Fraction(target)
    sign = -1 if goal < 0 else 1
    # the denominators are integers, so floor((|goal| - n) / q) and every
    # comparison with a denominator hold on the floor; below q_{k0}, tau = 0
    rest = mag = math.floor(abs(goal))
    top = max(k0 - 1, bisect.bisect_right(dens, mag))
    reversed_coeffs = []
    for k in range(top, k0 - 1, -1):
        p, rest = divmod(rest, dens[k - 1])
        reversed_coeffs.append(p)
    tau = sign * (mag - rest)
    return AlmostPeriod(
        tau=tau,
        coefficients=tuple(reversed(reversed_coeffs)),
        k0=k0,
        top_level=top,
        target=float(target),
        residual=torus_norm(frac_mult(seq.frequency, tau)),
    )


@dataclass(frozen=True)
class QualityEntry:
    target: float
    tau: int
    residual: float
    reeval_residual: float


@dataclass(frozen=True)
class QualityRecord:
    """Residual quality of greedy periods at one base level k0.

    c2_hat scales the worst residual by q_{k0}^eta / k0, the shape of
    the theoretical ceiling, so sequences and levels can be compared.
    Each residual is re-derived through an independent float path
    (summing the per-level torus points with their multiplicities);
    max_reeval_gap records the worst disagreement.
    """

    k0: int
    nu: float
    eta: float
    entries: tuple[QualityEntry, ...]
    max_residual: float
    c2_hat: float
    max_reeval_gap: float
    consistent: bool


def almost_period_quality(seq: ConvergentSequence, k0: int, sample_targets,
                          nu: float = 0.0) -> QualityRecord:
    _check_k0(seq, k0)
    sample_targets = list(sample_targets)
    if not sample_targets:
        raise ValidationError("no sample targets; the quality record needs at least one")
    if not math.isfinite(nu):
        raise ValidationError(f"nu must be a finite number, got {nu}")
    m = len(seq.frequency)
    eta = (1.0 - nu * (m - 1)) / m
    if eta <= 0:
        raise ValidationError(
            f"nu={nu} gives a nonpositive exponent eta at m={m}; the "
            f"quality scale needs nu*(m-1) < 1"
        )
    level_points = {
        k: frac_mult(seq.frequency, seq.denominators[k - 1])
        for k in range(k0, len(seq.denominators) + 1)
    }
    entries = []
    worst_gap = 0.0
    for target in sample_targets:
        ap = greedy_almost_period(seq, target, k0)
        coords = []
        for j in range(m):
            acc = math.fsum(
                p * level_points[k0 + i][j] for i, p in enumerate(ap.coefficients)
            )
            coords.append(acc % 1.0)
        reeval = torus_norm(coords)
        entries.append(QualityEntry(
            target=float(target), tau=ap.tau,
            residual=ap.residual, reeval_residual=reeval,
        ))
        worst_gap = max(worst_gap, abs(ap.residual - reeval))
    max_residual = max(e.residual for e in entries)
    q_floor = seq.denominators[k0 - 1]
    c2_hat = max_residual * q_floor ** eta / k0
    return QualityRecord(
        k0=k0,
        nu=nu,
        eta=eta,
        entries=tuple(entries),
        max_residual=max_residual,
        c2_hat=c2_hat,
        max_reeval_gap=worst_gap,
        consistent=worst_gap <= 2.0 ** -32,
    )


class FrequencyMatrix:
    """m x n matrix of frozen reals mapping integer vectors to the torus.

    Rows share one precision budget exactly like a FrequencyTuple; q_max
    bounds each coordinate of the integer vectors the matrix may be
    applied to.
    """

    def __init__(self, rows, q_max: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValidationError("matrix needs at least one row and one column")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValidationError("ragged matrix rows")
        self.rows = rows
        self.m = len(rows)
        self.n = n
        self.bits, self.q_max = precision_budget([c for r in rows for c in r], q_max)

    @classmethod
    def parse(cls, text: str, bits: int = DEFAULT_BITS,
              q_max: int | None = None) -> "FrequencyMatrix":
        """Rows separated by ';', entries by ',': e.g. "1,0;0,sqrt(2)"."""
        rows = [
            [PrecisionReal.parse(entry.strip(), bits) for entry in row.split(",")]
            for row in text.split(";")
        ]
        return cls(rows, q_max=q_max)

    def descriptors(self) -> str:
        return ";".join(",".join(c.descriptor for c in row) for row in self.rows)

    def apply(self, vector) -> TorusPoint:
        """Exact image of an integer vector on the torus."""
        vector = [int(v) for v in vector]
        if len(vector) != self.n:
            raise ValidationError(f"vector length {len(vector)} != n={self.n}")
        _check_window(self.q_max, min(vector), max(vector), "vector coordinate range")
        unit = 1 << self.bits
        coords = []
        for row in self.rows:
            v = sum(c.scaled * q for c, q in zip(row, vector)) % unit
            coords.append(frac_to_unit_float(v, self.bits))
        return TorusPoint(coords)

    def __repr__(self) -> str:
        return f"FrequencyMatrix({self.descriptors()!r}, bits={self.bits})"


@dataclass(frozen=True)
class ExtendedSystem:
    """The augmented matrix with an identity block stacked on top.

    Real vectors t solving the augmented system must have every |t_i|
    within eps of an integer (the identity rows say so), which is what
    ties the continuous problem back to the integer one.
    """

    a_hat: FrequencyMatrix
    theta_hat: TorusPoint


def build_extended(matrix: FrequencyMatrix, target: TorusPoint) -> ExtendedSystem:
    if len(target) != matrix.m:
        raise ValidationError(
            f"target dimension {len(target)} != matrix rows {matrix.m}"
        )
    bits = matrix.bits
    one = PrecisionReal.from_value(1, bits, descriptor="1")
    zero = PrecisionReal.from_value(0, bits, descriptor="0")
    identity = [
        tuple(one if i == j else zero for i in range(matrix.n))
        for j in range(matrix.n)
    ]
    a_hat = FrequencyMatrix(identity + list(matrix.rows), q_max=matrix.q_max)
    theta_hat = TorusPoint((0.0,) * matrix.n + tuple(target))
    return ExtendedSystem(a_hat=a_hat, theta_hat=theta_hat)


def matrix_solution_scan(matrix: FrequencyMatrix, target: TorusPoint, epsilon: float,
                         box, budget: int = 10_000_000) -> list[tuple[int, ...]]:
    """All integer vectors q in the box with |matrix*q - target| <= epsilon.

    The box is one (lo, hi) pair per column. Output is sorted
    lexicographically. Work scales with the box volume. Each prefix (the
    coordinates on all axes but the last) folds into the rows' targets,
    and fx.lockstep_solutions scans the last axis for blocks of about
    CHUNK // width prefixes at once: row 0 on the whole block, each further
    row only on the vectors that passed the rows before it. Prefixes are
    read lazily, so memory is bounded by one block, not by the box.
    """
    _check_epsilon(epsilon)
    if len(target) != matrix.m:
        raise ValidationError(f"target dimension {len(target)} != m={matrix.m}")
    box = [(int(lo), int(hi)) for lo, hi in box]
    if len(box) != matrix.n:
        raise ValidationError(f"box has {len(box)} axes for n={matrix.n} columns")
    volume = 1
    for lo, hi in box:
        _check_window(matrix.q_max, lo, hi, "box axis")
        volume *= hi - lo + 1
    if volume > budget:
        raise BudgetExceededError(
            f"box volume {volume} exceeds the scan budget {budget}"
        )

    last_lo, last_hi = box[-1]
    last = [row[-1].scaled for row in matrix.rows]
    theta = [fx.to_scaled(x, matrix.bits) for x in target]
    eps_u64 = fx.eps_to_u64(epsilon)

    def folded(prefix):
        # the prefix columns fold exactly into each row's target
        return prefix, [t - sum(c.scaled * p for c, p in zip(row, prefix))
                        for row, t in zip(matrix.rows, theta)]

    prefixes = itertools.product(*(range(lo, hi + 1) for lo, hi in box[:-1]))
    hits = fx.lockstep_solutions(last, map(folded, prefixes), last_lo, last_hi, eps_u64,
                                 matrix.bits)
    return [prefix + (q,) for prefix, q in hits]


GOLDEN_CONJUGATE_STEP = 0.6180339887498949
# the largest orbit sample; a sample peaks near 70 bytes a point, so 10**7
# points stay under 1 GB
MAX_ORBIT_COUNT = 10_000_000


def orbit_sample(matrix: FrequencyMatrix, lattice: str, count: int,
                 step: float | None = None) -> np.ndarray:
    """Deterministic sample of the matrix image on the torus.

    lattice="integer" walks integer vectors row-major over the smallest
    cube [0, side)^n holding `count` points. lattice="real" walks the
    same index cube scaled by `step`; the default step is the golden
    conjugate, whose multiples equidistribute instead of collapsing onto
    a finite set the way a rational spacing would.

    Returns a C-contiguous (count, m) float64 array; row i is the image
    of the i-th index vector. Each coordinate is the exact scaled dot
    product mod 1, rounded half to even onto the 2**-53 grid in [0, 1).
    The cube is computed in numpy from the entries' top 128 bits;
    coordinates near a rounding tie are redone with Python integers.
    A count above MAX_ORBIT_COUNT is refused before anything is allocated.
    """
    if lattice not in ("integer", "real"):
        raise ValidationError(f"lattice must be 'integer' or 'real', got {lattice!r}")
    if step is not None and not math.isfinite(step):
        raise ValidationError(f"step {step} is not a finite number")
    count = int(count)
    if count < 1:
        raise ValidationError(f"count must be positive, got {count}")
    n = matrix.n
    side = max(1, round(count ** (1.0 / n)))
    while side ** n < count:
        side += 1
    while side > 1 and (side - 1) ** n >= count:
        side -= 1
    if lattice == "integer":
        _check_window(matrix.q_max, 0, side - 1, "sample cube side")
        bits = matrix.bits
        scaled_rows = [[c.scaled for c in row] for row in matrix.rows]
    else:
        # entry * step is exact as a product of two scaled integers, at 2 * bits
        bits = 2 * matrix.bits
        st = fx.to_scaled(GOLDEN_CONJUGATE_STEP if step is None else step, matrix.bits)
        scaled_rows = [[c.scaled * st for c in row] for row in matrix.rows]
    if n * side >= 1 << 32:
        # the limb sums of fx.dot_hi64 are exact only below this
        raise ValidationError(f"count {count} needs n * side < 2**32 (n={n}, side={side})")
    if count > MAX_ORBIT_COUNT:
        raise ValidationError(f"count {count} exceeds the sample cap {MAX_ORBIT_COUNT}")
    # digits of index = 0, 1, ... in base side, first coordinate most
    # significant: the row-major walk of the cube [0, side)**n
    index = np.arange(count, dtype=np.uint64)
    digits = []
    for _ in range(n):
        digits.append(index % np.uint64(side))
        index //= np.uint64(side)
    digits.reverse()
    unit = 1 << bits
    coords = np.empty((count, matrix.m))
    for j, row in enumerate(scaled_rows):
        # the 128-bit steps truncate toward -inf, so the dot product
        # underestimates the exact value by less than sum(x) < 2**32 units
        # of 2**-128, far inside the window hi64_to_unit_floats flags
        hi = fx.dot_hi64(0, [fx.step128(s, bits) for s in row], digits)
        coords[:, j], unsure = fx.hi64_to_unit_floats(hi)
        for i in unsure.tolist():
            vec = [int(x[i]) for x in digits]
            coords[i, j] = frac_to_unit_float(sum(s * v for s, v in zip(row, vec)) % unit, bits)
    return coords
