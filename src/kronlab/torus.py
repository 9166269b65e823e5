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

import ast
import operator
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from ._fixedpoint import frac_to_unit_float, round_shift, to_scaled
from .errors import DescriptorError, PrecisionBudgetError, ValidationError

DEFAULT_BITS = 192

# once its whitespace is collapsed to single spaces, a descriptor holds only
# these characters: no ',', '#', quotes or non-ASCII digits
_ALLOWED = re.compile(r"[A-Za-z0-9_ .+\-*/()]*")
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
# every value met while evaluating has mpmath.mag at most _MAX_MAG, so it is
# at most 2**32 and, at bits + 64 of working precision, rounds 32 bits below
# the stored unit 2**-bits
_MAX_MAG = 32

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

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _evaluate(node, text: str):
    """The value of one node of a parsed descriptor; any node outside the
    grammar, a complex value or a magnitude above 2**32 is refused."""
    src = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _evaluate(node.operand, text)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return +_CONSTANTS[node.id]()
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        value = _BINOPS[type(node.op)](_evaluate(node.left, text), _evaluate(node.right, text))
    elif isinstance(node, ast.Constant) and _NUMBER.fullmatch(src):
        value = mpmath.mpf(src)
    # the name must be followed by its '(': the tree drops the parentheses of "(sqrt)(2)"
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords
          and text.startswith(("(", " ("), node.func.end_col_offset)):
        value = _FUNCTIONS[node.func.id](_evaluate(node.args[0], text))
        if not isinstance(value, mpmath.mpf):
            raise DescriptorError(f"{src!r} is not real")
    else:
        raise DescriptorError(f"not in the descriptor grammar: {src!r}")
    if not mpmath.mag(value) <= _MAX_MAG:  # inf and nan fail too
        raise DescriptorError(f"{src!r} is not a finite real below 2**{_MAX_MAG} in magnitude")
    return value


# the gmpy2 backend hands back mpz mantissas; both keep everything Python int
def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    f = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -f if sign else f


def _mpf_to_scaled(x, bits: int) -> int:
    """round(x * 2**bits), half to even; a tiny x never builds 2**-exp."""
    sign, man, exp, _ = x._mpf_
    v = round_shift(int(man), -int(exp) - bits)
    return -v if sign else v


def _evaluate_text(text: str, bits: int):
    """The mpf value of a descriptor, evaluated at bits + 64 of precision."""
    # any run of whitespace, newlines included, separates tokens like one space
    text = " ".join((text or "").split())
    if not text:
        raise DescriptorError("empty descriptor")
    if not _ALLOWED.fullmatch(text):
        raise DescriptorError(f"descriptor holds a character outside [A-Za-z0-9_.+-*/() ]: {text!r}")
    with mpmath.workprec(bits + 64):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "1or 2" warns, then is refused anyway
                tree = ast.parse(text, mode="eval")
            return _evaluate(tree.body, text)
        except DescriptorError:
            raise
        except (SyntaxError, RecursionError) as e:
            raise DescriptorError(f"cannot read descriptor: {getattr(e, 'msg', e)}") from e
        except ZeroDivisionError as e:
            raise DescriptorError("division by zero in descriptor") from e
        except (mpmath.libmp.NoConvergence, ValueError) as e:
            raise DescriptorError(f"descriptor failed to evaluate: {e}") from e


def evaluate_descriptor(text: str, bits: int) -> Fraction:
    """Evaluate a descriptor to an exact Fraction, carrying 64 guard bits."""
    return _mpf_to_fraction(_evaluate_text(text, bits))


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
        return cls(descriptor=descriptor, bits=bits,
                   scaled=_mpf_to_scaled(_evaluate_text(descriptor, bits), bits))

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


def precision_budget(reals, q_max: int | None) -> tuple[int, int]:
    """The (bits, q_max) budget shared by the reals of a tuple or a matrix.

    All reals carry one bits; q_max defaults to 2**(bits - 32), must be
    positive, and may not exceed that default.
    """
    bits = reals[0].bits
    if any(r.bits != bits for r in reals):
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
    return bits, q_max


def _check_window(q_max: int, lo: int, hi: int, what: str = "window"):
    """Refuse an empty window [lo, hi] with ValidationError, and one that
    reaches past q_max in either sign with PrecisionBudgetError."""
    if lo > hi:
        raise ValidationError(f"empty {what} [{lo}, {hi}]")
    if hi > q_max or -lo > q_max:
        raise PrecisionBudgetError(f"{what} [{lo}, {hi}] exceeds the precision budget q_max={q_max}")


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
        self.components = components
        self.bits, self.q_max = precision_budget(components, q_max)

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
        """Wrap arbitrary reals, rounding each half to even onto the grid, mod 1."""
        return cls(frac_to_unit_float(to_scaled(v, 53) % (1 << 53), 53) for v in values)


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
        freq = FrequencyTuple([freq])
    q = int(q)
    _check_window(freq.q_max, q, q, "multiplier")
    coords = []
    for c in freq.components:
        v = (c.scaled * q) % (1 << c.bits)
        coords.append(frac_to_unit_float(v, c.bits))
    return TorusPoint(coords)
