"""Best single-multiplier approximations and geometric denominator ladders.

Three layers. dirichlet_search answers one window question: which q up to
a bound makes q*omega closest to the lattice. convergent_sequence asks it
at geometrically growing windows beta^k and packages the answers with the
certificates that make them usable downstream (growth bounds, tail sums).
estimate_diophantine_order goes the other way and fits how fast the best
residual can shrink at all, which is the obstruction every other bound in
the package is measured against.

For one frequency the record lows of q -> |q*omega| are exactly the
distinct continued-fraction denominators (Khinchin, Continued Fractions,
Thms 16-17), so every window is answered from the expansion without a
scan; several frequencies take a chunked exact scan through the
fixed-point kernel.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _fixedpoint as fx
from .errors import InsufficientDataError, KronlabError, RationalFrequencyError, ValidationError
from .torus import FrequencyTuple, PrecisionReal, _check_window, frac_mult, torus_norm


def _kernel_for(freq: FrequencyTuple, target=None) -> fx.ResidualKernel:
    offsets = None if target is None else [fx.to_scaled(x, freq.bits) for x in target]
    return fx.ResidualKernel([c.scaled for c in freq.components], offsets, freq.bits)


def dirichlet_search(freq: FrequencyTuple, Q) -> int:
    """The q in 1..floor(Q) minimizing torus_norm(frac_mult(freq, q)).

    Ties break toward the smallest q. The winner always satisfies the
    pigeonhole guarantee residual < (1/Q)^(1/m) when some coordinate is
    irrational, since it beats the witness that guarantee promises. One
    frequency is answered by its largest convergent denominator <= Q.
    """
    n = math.floor(Fraction(Q))
    _check_window(freq.q_max, 1, n, "search window")
    return _record_lows(freq, n)[-1]


def _record_lows(freq: FrequencyTuple, n: int) -> list[int]:
    """The q in 1..n whose residual is below that of every smaller q.

    For one frequency these are the distinct convergent denominators up to
    n (a_1 = 1 repeats q = 1); an expansion that stops inside the window, at
    a rational or the precision floor, ends the list. Several frequencies
    are scanned through the kernel.
    """
    if len(freq) > 1:
        return fx.record_lows(_kernel_for(freq), 1, n)[0].tolist()
    dens = (q for _, _, q in _expansion(freq[0]))
    return list(dict.fromkeys(itertools.takewhile(lambda q: q <= n, dens)))


def _expansion(omega: PrecisionReal):
    """Yield (a, p, q): each partial quotient of the stored value with its convergent.

    Stops after yielding the first convergent that matches the stored
    value to within 2**-(bits-8); for a rational descriptor that is the
    exact fraction, for an irrational one it marks the precision floor.
    """
    num, den = omega.scaled, 1 << omega.bits
    scale, unit = num, den
    p2, p1 = 0, 1
    q2, q1 = 1, 0
    while den > 0:
        a = num // den
        num, den = den, num - a * den
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        yield a, p1, q1
        if abs(scale * q1 - p1 * unit) < q1 * 256:
            return


def _nonzero_residuals(freq: FrequencyTuple, qs) -> list[float]:
    """The residual of each q (evaluated once per distinct q, which ladders
    repeat) on the 2**-53 grid; one that rounds to 0 there means the stored
    value is rational at this precision, and is refused."""
    by_q = {q: torus_norm(frac_mult(freq, q)) for q in set(qs)}
    residuals = [by_q[q] for q in qs]
    if 0.0 in residuals:
        raise RationalFrequencyError(
            f"residual vanished at q={qs[residuals.index(0.0)]}; the frequency is "
            f"rational (or indistinguishable from one at this precision)")
    return residuals


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents of a single stored real."""

    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    rational: bool

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.convergents)


def continued_fraction(omega: PrecisionReal, terms: int) -> ContinuedFraction:
    """First `terms`+1 partial quotients a_0..a_terms with their convergents.

    The recursion runs on the stored integer pair, so quotients are exact
    for the stored value. It stops early, with the rational flag set, as
    soon as a convergent matches the stored value to within 2**-(bits-8):
    for a rational input that is its lowest-terms form; for an irrational
    input it means the requested depth exceeds what `bits` can support.
    """
    if terms < 1:
        raise ValidationError(f"need at least one term, got {terms}")
    expansion = _expansion(omega)
    steps = list(itertools.islice(expansion, terms + 1))
    # the expansion ends only after a convergent matching the stored value
    rational = next(expansion, None) is None
    quotients = [a for a, _, _ in steps]
    convergents = [(p, q) for _, p, q in steps]
    if rational and len(quotients) >= 2 and quotients[-1] == 1:
        # the stored dyadic sits on the low side of the recognized
        # rational, splitting its last quotient as a-1, 1; merge back to
        # the canonical form (a final quotient of 1 is never canonical)
        quotients[-2] += 1
        del quotients[-1]
        del convergents[-2]
    return ContinuedFraction(tuple(quotients), tuple(convergents), rational)


@dataclass(frozen=True)
class ConvergentSequence:
    """Non-decreasing denominators q_1..q_K built at windows beta^k.

    partial_quotient_bounds[k] = floor(q_{k+2}/q_{k+1}) caps the greedy
    coefficients downstream; c_hat = beta^(1/m) certifies residuals[k] <=
    residual_bounds[k] = c_hat * (1/q_{k+2})^(1/m), checked at build time.
    """

    frequency: FrequencyTuple
    beta: float
    denominators: tuple[int, ...]
    residuals: tuple[float, ...]
    partial_quotient_bounds: tuple[int, ...]
    c_hat: float
    residual_bounds: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.denominators)

    def __post_init__(self):
        dens = self.denominators
        if any(b > a for a, b in zip(dens[1:], dens)):
            raise KronlabError("denominators must be non-decreasing")


def _power_floors(beta):
    """Yield floor(beta**k) for k = 1, 2, ..., exactly, in bounded precision.

    With beta = n/d, integers lo <= x_k = beta**k * 2**128 <= hi, both x_0 at
    k = 0, carry over as lo*n//d <= x_k*n/d = x_{k+1} <= ceil(hi*n/d). floor
    is monotone, so lo >> 128 <= floor(beta**k) <= hi >> 128, and if the two
    agree that is the answer. If not, the bracket restarts from the exact
    lo = floor(x_k) = (n**k << 128) // d**k, hi = lo + 1, and lo >> 128 =
    floor(x_k / 2**128). A step turns a width w into at most w*beta + 2, so
    j levels after a restart it is below beta**j * (1 + 2/(beta - 1)), and
    restarts stay rare while that is far below 2**128.
    """
    n, d = Fraction(beta).as_integer_ratio()
    lo = hi = 1 << 128
    for k in itertools.count(1):
        lo, hi = lo * n // d, -(-hi * n // d)
        if lo >> 128 != hi >> 128:
            lo = (n ** k << 128) // d ** k
            hi = lo + 1
        yield lo >> 128


def convergent_sequence(freq: FrequencyTuple, beta, K: int) -> ConvergentSequence:
    if not 1 < beta < math.inf:
        raise ValidationError(f"beta must be finite and exceed 1, got {beta}")
    if K < 1:
        raise ValidationError(f"need K >= 1 levels, got {K}")
    m = len(freq)
    checkpoints = []
    # grown level by level, so a window past the budget is refused at its level
    for k, c in zip(range(1, K + 1), _power_floors(beta)):
        checkpoints.append(c)
        _check_window(freq.q_max, 1, c, f"beta^{k} window")

    # the earliest argmin on [1, c] is the last record low at or below c
    qs = _record_lows(freq, checkpoints[-1])
    dens = [qs[bisect.bisect_right(qs, c) - 1] for c in checkpoints]
    residuals = _nonzero_residuals(freq, dens)

    c_hat = float(beta) ** (1.0 / m)
    residual_bounds = tuple(c_hat * (1.0 / q) ** (1.0 / m) for q in dens[1:])
    for k, (r, bound) in enumerate(zip(residuals, residual_bounds)):
        if r > bound:
            raise KronlabError(f"residual certificate failed at level {k + 1}: {r} > {bound}")

    bounds = tuple(dens[k + 1] // dens[k] for k in range(len(dens) - 1))
    return ConvergentSequence(
        frequency=freq,
        beta=float(beta),
        denominators=tuple(dens),
        residuals=tuple(residuals),
        partial_quotient_bounds=bounds,
        c_hat=c_hat,
        residual_bounds=residual_bounds,
    )


@dataclass(frozen=True)
class SequenceDiagnostics:
    """Growth and tail certificates of a denominator ladder."""

    nu: float
    eta: float
    growth_exponent: float
    growth_max_ratio: float
    tail_constant: float
    amplitude: float
    gamma_low: float
    gamma_high: float


def verify_sequence_properties(seq: ConvergentSequence, nu: float = 0.0,
                               eta: float = 1.0) -> SequenceDiagnostics:
    """Quantify how the ladder grows and how fast its tail sums decay.

    Reports the least-squares exponent e of q_{k+1} against q_k^e with
    the worst pointwise ratio q_{k+1}/q_k^(1+nu); the tail constant
    max_N (sum_{k>=N} q_k^-eta) q_N^eta / N; and a geometric sandwich
    A*gamma_low^k <= q_k <= A*gamma_high^k around the fitted growth rate.
    """
    dens = seq.denominators
    if len(dens) < 3:
        raise ValidationError("diagnostics need at least 3 levels")
    if dens[0] == dens[-2]:
        raise InsufficientDataError(f"levels 1..{len(dens) - 1} share the denominator "
                                    f"{dens[0]}; the growth fit needs two distinct ones")
    logs = np.log(np.asarray(dens, dtype=float))

    e, _ = np.polyfit(logs[:-1], logs[1:], 1)
    max_ratio = max(
        dens[k + 1] / dens[k] ** (1.0 + nu) for k in range(len(dens) - 1)
    )

    powers = [q ** -eta for q in map(float, dens)]
    tails = np.cumsum(powers[::-1])[::-1]
    tail_constant = max(
        tails[i] * float(dens[i]) ** eta / (i + 1) for i in range(len(dens))
    )

    ks = np.arange(1, len(dens) + 1, dtype=float)
    slope, intercept = np.polyfit(ks, logs, 1)
    amplitude = math.exp(intercept)
    per_level = [(dens[i] / amplitude) ** (1.0 / (i + 1)) for i in range(len(dens))]
    return SequenceDiagnostics(
        nu=nu,
        eta=eta,
        growth_exponent=float(e),
        growth_max_ratio=float(max_ratio),
        tail_constant=float(tail_constant),
        amplitude=amplitude,
        gamma_low=min(per_level),
        gamma_high=max(per_level),
    )


@dataclass(frozen=True)
class DiophantineOrderFit:
    """Fitted lower-envelope law residual >= c_d_hat * q^(-(1+nu_hat)/m)."""

    nu_hat: float
    c_d_hat: float
    support: tuple[tuple[int, float], ...]


def estimate_diophantine_order(freq: FrequencyTuple, q_max: int) -> DiophantineOrderFit:
    """Fit the approximation order from the record lows of q -> |freq*q|.

    Takes the strict record-low residuals up to q_max, from the continued
    fraction for one frequency and from a scan of every q otherwise, and
    fits their log-log slope as -(1+nu_hat)/m; nu_hat is clamped at zero
    since negative orders are impossible. c_d_hat is chosen so the fitted
    law is an actual lower bound on the whole envelope, hence on every q
    up to q_max.
    """
    q_max = int(q_max)
    _check_window(freq.q_max, 1, q_max, "scan window")
    m = len(freq)
    qs = _record_lows(freq, q_max)
    support = list(zip(qs, _nonzero_residuals(freq, qs)))
    if len(support) < 3:
        raise InsufficientDataError(
            f"only {len(support)} envelope points up to q_max={q_max}; "
            f"cannot fit an order"
        )
    lq = np.log([q for q, _ in support])
    lr = np.log([r for _, r in support])
    slope, _ = np.polyfit(lq, lr, 1)
    nu_hat = max(0.0, float(-slope) * m - 1.0)
    exponent = (1.0 + nu_hat) / m
    c_d_hat = min(r * q ** exponent for q, r in support)
    return DiophantineOrderFit(
        nu_hat=nu_hat,
        c_d_hat=float(c_d_hat),
        support=tuple(support),
    )
