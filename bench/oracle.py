"""Exact referee for kronlab's answers, on the stored scaled integers.

Every check here recomputes a residual from `PrecisionReal.scaled` with
Python integers only; nothing goes through the fixed-point kernel, so a
defect in the kernel cannot hide itself. A torus coordinate x is reduced
as min(v, U - v) with v = (scaled * q - theta) mod U and U = 2**bits.

A q whose exact residual lies within 2**-32 of eps passes either way:
2**-32 is the precision the README promises for reported residuals.
"""
from __future__ import annotations

from fractions import Fraction

TRUST = Fraction(1, 1 << 32)
GRID = Fraction(1, 1 << 53)


def _scaled_target(target, unit: int) -> list[int]:
    out = []
    for x in target:
        v = Fraction(x) * unit
        if v.denominator != 1:
            raise ValueError(f"target coordinate {x!r} is not a multiple of 2**-bits")
        out.append(int(v))
    return out


class Exact:
    """Exact sup-norm residuals of A*q - theta for an m x n integer matrix A.

    rows[j][i] is the scaled integer of entry (j, i); a frequency tuple is
    the n = 1 case with one row per coordinate.
    """

    def __init__(self, rows, bits: int, target=None):
        self.unit = 1 << bits
        self.rows = [[int(s) % self.unit for s in row] for row in rows]
        self.offsets = ([0] * len(self.rows) if target is None
                        else _scaled_target(target, self.unit))

    @classmethod
    def of_tuple(cls, freq, target=None) -> "Exact":
        return cls([[c.scaled] for c in freq.components], freq.bits, target)

    @classmethod
    def of_matrix(cls, matrix, target=None) -> "Exact":
        return cls([[c.scaled for c in row] for row in matrix.rows], matrix.bits, target)

    def dist(self, q: int) -> int:
        """Residual of a scalar q, as a numerator over 2**bits."""
        unit = self.unit
        worst = 0
        for (s,), t in zip(self.rows, self.offsets):
            v = (s * q - t) % unit
            d = v if v <= unit - v else unit - v
            if d > worst:
                worst = d
        return worst

    def dist_vec(self, vec) -> int:
        unit = self.unit
        worst = 0
        for row, t in zip(self.rows, self.offsets):
            v = (sum(s * q for s, q in zip(row, vec)) - t) % unit
            d = v if v <= unit - v else unit - v
            if d > worst:
                worst = d
        return worst

    def residual(self, q: int) -> Fraction:
        return Fraction(self.dist(q), self.unit)

    def band(self, eps) -> tuple[int, int]:
        """Numerators below which a q must solve, above which it must not."""
        e = Fraction(eps)
        lo = (e - TRUST) * self.unit
        hi = (e + TRUST) * self.unit
        return int(lo), -int(-hi // 1)


def check_solutions(ex: Exact, eps: float, sols, lo: int, hi: int, rng,
                    samples: int = 32) -> list[str]:
    """Every reported q in [lo, hi] solves; a seeded sample of the rest does not."""
    must, never = ex.band(eps)
    problems = [f"reported q={q} has residual {float(ex.residual(q))} > eps={eps}"
                for q in sols if ex.dist(q) > never]
    reported = set(sols)
    for _ in range(samples):
        q = rng.randint(lo, hi)
        if q not in reported and ex.dist(q) < must:
            problems.append(f"missed q={q} with residual {float(ex.residual(q))} < eps={eps}")
    return problems


def first_solution(ex: Exact, eps: float, lo: int, hi: int) -> int | None:
    """Smallest q in [lo, hi] whose exact residual is below eps - 2**-32."""
    must, _ = ex.band(eps)
    unit = ex.unit
    state = [((s * lo - t) % unit, s) for (s,), t in zip(ex.rows, ex.offsets)]
    q = lo
    while q <= hi:
        worst = 0
        for j, (v, s) in enumerate(state):
            d = v if v <= unit - v else unit - v
            if d > worst:
                worst = d
            v += s
            state[j] = (v - unit if v >= unit else v, s)
        if worst <= must:
            return q
        q += 1
    return None


def same_residual(reported: float, exact: Fraction) -> bool:
    """A reported float residual is the exact one rounded onto the 2**-53 grid."""
    return abs(Fraction(reported) - exact) <= GRID
