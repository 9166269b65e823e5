"""Torus points, high-precision frequencies, and the sup metric.

Every frequency is pinned to a fixed-point integer, ``round(value * 2**bits)``
with bits = 192 by default, created once from a descriptor string and never
re-derived from floats. Multiplying by q and dropping the integer part are
then exact, and the error budget reduces to a single rounding at the end:
results come back as floats on the 2**-53 grid, so distances computed from
them are reproducible across platforms and symmetric under q -> -q.

The precision budget is explicit. A tuple built with bits of precision only
answers questions about multipliers up to 2**(bits - 32); beyond that the
initial rounding of the frequency could move a residual by more than 2**-32
and the answer would be noise. Asking for more raises instead of guessing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from ._fixedpoint import frac_to_unit_float, to_scaled
from .errors import DescriptorError, PrecisionBudgetError, ValidationError

DEFAULT_BITS = 192

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)

_CONSTANTS = {
    "pi": lambda: mpmath.pi,
    "e": lambda: mpmath.e,
    "golden": lambda: mpmath.phi,
    "phi": lambda: mpmath.phi,
}

_FUNCTIONS = {
    "sqrt": mpmath.sqrt,
    "cbrt": mpmath.cbrt,
    "log": mpmath.log,
    "exp": mpmath.exp,
    "zeta": mpmath.zeta,
}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise DescriptorError(f"cannot read descriptor at: {tail!r}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    return tokens


class _Parser:
    """Recursive descent over +, -, *, /, unary minus, calls, parens."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise DescriptorError(f"expected {op!r}, found {val!r}")

    def parse(self):
        v = self.expr()
        if self.i != len(self.tokens):
            raise DescriptorError(f"trailing input: {self.tokens[self.i][1]!r}")
        return v

    def expr(self):
        v = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    def term(self):
        v = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                if val == "/":
                    if rhs == 0:
                        raise DescriptorError("division by zero in descriptor")
                    v = v / rhs
                else:
                    v = v * rhs
            else:
                return v

    def unary(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        if kind == "op" and val == "+":
            self.take()
            return self.unary()
        return self.atom()

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return mpmath.mpf(val)
        if kind == "name":
            nk, nv = self.peek()
            if nk == "op" and nv == "(":
                fn = _FUNCTIONS.get(val)
                if fn is None:
                    raise DescriptorError(f"unknown function {val!r}")
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return fn(arg)
            ctor = _CONSTANTS.get(val)
            if ctor is None:
                raise DescriptorError(f"unknown name {val!r}")
            return +ctor()
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        raise DescriptorError(f"unexpected token {val!r}" if val else "empty descriptor")


def _mpf_to_fraction(x) -> Fraction:
    if not mpmath.isfinite(x):
        raise DescriptorError("descriptor does not evaluate to a finite real")
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    # the gmpy2 backend hands back mpz mantissas; keep everything Python int
    man, exp = int(man), int(exp)
    f = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -f if sign else f


def evaluate_descriptor(text: str, bits: int) -> Fraction:
    """Evaluate a descriptor to an exact Fraction, carrying 64 guard bits."""
    if not text or not text.strip():
        raise DescriptorError("empty descriptor")
    with mpmath.workprec(bits + 64):
        try:
            value = _Parser(text).parse()
        except DescriptorError:
            raise
        except (mpmath.libmp.NoConvergence, ValueError, TypeError, ZeroDivisionError) as e:
            raise DescriptorError(f"descriptor failed to evaluate: {e}") from e
        return _mpf_to_fraction(value)


@dataclass(frozen=True)
class PrecisionReal:
    """A real number frozen at a fixed binary precision.

    scaled is round(value * 2**bits); descriptor records where the value
    came from so outputs can be replayed without shipping the integer.
    """

    descriptor: str
    bits: int
    scaled: int

    @classmethod
    def parse(cls, descriptor: str, bits: int = DEFAULT_BITS) -> "PrecisionReal":
        if bits < 64:
            raise PrecisionBudgetError(f"bits={bits} is below the 64-bit floor")
        exact = evaluate_descriptor(descriptor, bits)
        return cls(descriptor=descriptor, bits=bits, scaled=round(exact * (1 << bits)))

    @classmethod
    def from_value(cls, value, bits: int = DEFAULT_BITS, descriptor: str | None = None) -> "PrecisionReal":
        """Freeze a float/Fraction/int directly, bypassing the grammar."""
        if bits < 64:
            raise PrecisionBudgetError(f"bits={bits} is below the 64-bit floor")
        scaled = to_scaled(value, bits)
        if descriptor is None:
            descriptor = repr(float(value)) if not isinstance(value, int) else repr(value)
        return cls(descriptor=descriptor, bits=bits, scaled=scaled)

    @property
    def value(self) -> float:
        return self.scaled / (1 << self.bits)

    @property
    def frac_scaled(self) -> int:
        """Fractional part as a scaled integer in [0, 2**bits)."""
        return self.scaled % (1 << self.bits)

    def as_fraction(self) -> Fraction:
        return Fraction(self.scaled, 1 << self.bits)

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"PrecisionReal({self.descriptor!r}, bits={self.bits})"


class FrequencyTuple:
    """An m-tuple of frozen frequencies sharing one precision budget.

    q_max is the largest multiplier this tuple may be asked about. The
    invariant log2(q_max) + 32 <= bits keeps reported residuals good to
    2**-32 even after the frequency's own rounding error is amplified
    by q.
    """

    def __init__(self, components: tuple[PrecisionReal, ...] | list[PrecisionReal],
                 q_max: int | None = None):
        components = tuple(components)
        if not components:
            raise ValidationError("frequency tuple needs at least one component")
        bits = components[0].bits
        if any(c.bits != bits for c in components):
            raise ValidationError("all components must share the same precision")
        if q_max is None:
            q_max = 1 << (bits - 32)
        if q_max < 1:
            raise ValidationError(f"q_max must be positive, got {q_max}")
        if q_max > (1 << (bits - 32)):
            raise PrecisionBudgetError(
                f"q_max={q_max} needs more than bits={bits} of precision; "
                f"refuse to report residuals below the noise floor"
            )
        self.components = components
        self.bits = bits
        self.q_max = q_max

    @classmethod
    def parse(cls, descriptors, bits: int = DEFAULT_BITS, q_max: int | None = None) -> "FrequencyTuple":
        if isinstance(descriptors, str):
            descriptors = [descriptors]
        comps = tuple(PrecisionReal.parse(d, bits) for d in descriptors)
        return cls(comps, q_max=q_max)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> PrecisionReal:
        return self.components[i]

    @property
    def descriptors(self) -> tuple[str, ...]:
        return tuple(c.descriptor for c in self.components)

    def values(self) -> tuple[float, ...]:
        return tuple(c.value for c in self.components)

    def __repr__(self) -> str:
        inner = ", ".join(self.descriptors)
        return f"FrequencyTuple([{inner}], bits={self.bits}, q_max={self.q_max})"


class TorusPoint(tuple):
    """A point of the m-torus: coordinates are floats on the 2**-53 grid in [0, 1)."""

    __slots__ = ()

    def __new__(cls, coords):
        coords = tuple(float(c) for c in coords)
        for c in coords:
            if not (0.0 <= c < 1.0):
                raise ValidationError(f"torus coordinate {c} outside [0, 1)")
        return super().__new__(cls, coords)

    @classmethod
    def from_values(cls, values) -> "TorusPoint":
        """Wrap arbitrary reals, reducing mod 1 onto the grid."""
        out = []
        for v in values:
            f = Fraction(v) % 1
            out.append(frac_to_unit_float(round(f * (1 << 64)) % (1 << 64), 64))
        return cls(out)


def torus_norm(point) -> float:
    """Sup-metric distance of a point to the lattice: max_j min(x_j, 1 - x_j).

    On a point from frac_mult this is the exact residual rounded half to
    even onto the 2**-53 grid, so it can sit up to 2**-54 below the true
    value; as an epsilon that must admit its own q, pass r + 2**-53.
    """
    best = 0.0
    for x in point:
        d = x if x <= 0.5 else 1.0 - x
        if d > best:
            best = d
    return best


def torus_dist(p, q) -> float:
    """Sup-metric distance between two torus points."""
    if len(p) != len(q):
        raise ValidationError("dimension mismatch")
    best = 0.0
    for x, y in zip(p, q):
        d = abs(x - y)
        if d > 0.5:
            d = 1.0 - d
        if d > best:
            best = d
    return best


def frac_mult(freq, q: int) -> TorusPoint:
    """Fractional parts of q * omega as a torus point, exactly.

    Accepts a FrequencyTuple or a single PrecisionReal. The multiplier
    must respect the tuple's q_max budget, in either sign.
    """
    if isinstance(freq, PrecisionReal):
        comps: tuple[PrecisionReal, ...] = (freq,)
        q_max = 1 << (freq.bits - 32)
    else:
        comps = freq.components
        q_max = freq.q_max
    q = int(q)
    if abs(q) > q_max:
        raise PrecisionBudgetError(f"|q|={abs(q)} exceeds the precision budget q_max={q_max}")
    coords = []
    for c in comps:
        v = (c.scaled * q) % (1 << c.bits)
        coords.append(frac_to_unit_float(v, c.bits))
    return TorusPoint(coords)
