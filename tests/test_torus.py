"""Descriptor parsing, frozen reals, and the exact torus arithmetic."""
import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from kronlab import (
    DescriptorError,
    FrequencyTuple,
    PrecisionBudgetError,
    PrecisionReal,
    TorusPoint,
    evaluate_descriptor,
    frac_mult,
    torus_dist,
    torus_norm,
)
from kronlab.torus import _CONSTANTS, _FUNCTIONS, _mpf_to_fraction

GOLDEN_CONJ = 0.6180339887498949

# ------------------------------------------------ the former descriptor parser
# A regex tokenizer and a recursive-descent parser, evaluate_descriptor's
# former method, kept as the referee of the ast-based one.

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if not text[pos:].strip():
                break
            raise DescriptorError(f"cannot read descriptor at: {text[pos:]!r}")
        pos = m.end()
        tokens.append(next((k, m.group(k)) for k in ("num", "name", "op") if m.group(k)))
    return tokens


class _Parser:
    """Recursive descent over +, -, *, /, unary minus, calls, parens; every
    number, call and binary result it computes is kept in .values."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.values = []

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def kept(self, v):
        self.values.append(v)
        return v

    def expect_op(self, op):
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
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            v = self.kept(v + rhs if op == "+" else v - rhs)
        return v

    def term(self):
        v = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.unary()
            if op == "/" and rhs == 0:
                raise DescriptorError("division by zero in descriptor")
            v = self.kept(v / rhs if op == "/" else v * rhs)
        return v

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.atom()

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return self.kept(mpmath.mpf(val))
        if kind == "name":
            if self.peek() == ("op", "("):
                if val not in _FUNCTIONS:
                    raise DescriptorError(f"unknown function {val!r}")
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return self.kept(_FUNCTIONS[val](arg))
            if val not in _CONSTANTS:
                raise DescriptorError(f"unknown name {val!r}")
            return +_CONSTANTS[val]()
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        raise DescriptorError(f"unexpected token {val!r}" if val else "empty descriptor")


def descriptor_reference(text, bits):
    """(value, values): the former parser's mpmath value of a descriptor and
    every intermediate it computed, or DescriptorError where it refused."""
    if not text or not text.strip():
        raise DescriptorError("empty descriptor")
    with mpmath.workprec(bits + 64):
        parser = _Parser(text)
        try:
            value = parser.parse()
        except (mpmath.libmp.NoConvergence, ValueError, ZeroDivisionError) as e:
            raise DescriptorError(f"descriptor failed to evaluate: {e}") from e
        return value, parser.values


def expected_descriptor(text, bits):
    """What evaluate_descriptor must return: the former parser's Fraction, or
    None where that parser refused, where it computed a value that is complex,
    not finite, or 2**32 or more in magnitude, or where the text holds an
    integer literal with a leading zero."""
    try:
        value, values = descriptor_reference(text, bits)
    except DescriptorError:
        return None
    if any(not isinstance(v, mpmath.mpf) or not mpmath.mag(v) <= 32 for v in values + [value]):
        return None
    if any(k == "num" and re.fullmatch(r"0+[1-9]\d*", v) for k, v in _tokenize(text)):
        return None
    with mpmath.workprec(bits + 64):
        return _mpf_to_fraction(value)


def outcome(text, bits):
    try:
        return evaluate_descriptor(text, bits)
    except DescriptorError:
        return None


_BITS = st.sampled_from([64, 128, 192, 256])
_NUMBERS = ["0", "7", "42", "999", "1.", "2.5", "0.125", "3.001", "1e3", "25E-2", "7.5e+5",
            "1e-9", "999e10"]
# fragments the former tokenizer reads, and some it refuses
_FRAGMENTS = ["0", "1", "07", "2.5", "1e3", ".", "e", "pi", "golden", "sqrt", "log", "zeta",
              "x", "_", "+", "-", "*", "/", "(", ")", " ", "\n", ",", "#"]


def random_descriptor(rng, depth=4):
    """A descriptor drawn from the grammar: numbers, constants, calls, signs,
    parentheses and + - * /, with random whitespace between tokens. exp and
    zeta take only a number or a constant, so no value grows past what the
    former parser evaluates quickly."""
    atom = rng.choice(_NUMBERS + sorted(_CONSTANTS))
    roll = rng.randrange(6) if depth else 0
    if roll == 0:
        return atom
    if roll == 1:
        return f"{rng.choice(['exp', 'zeta'])}({atom})"
    inner = random_descriptor(rng, depth - 1)
    if roll == 2:
        space = rng.choice(["", " ", "\n"])
        return f"{inner}{space}{rng.choice('+-*/')}{space}{random_descriptor(rng, depth - 1)}"
    if roll == 3:
        return rng.choice("-+") + inner
    if roll == 4:
        return f"({inner})"
    return f"{rng.choice(['sqrt', 'cbrt', 'log'])}({inner})"


class TestDescriptors:
    def test_constants(self):
        assert float(evaluate_descriptor("pi", 192)) == pytest.approx(math.pi)
        assert float(evaluate_descriptor("e", 192)) == pytest.approx(math.e)
        assert float(evaluate_descriptor("golden", 192)) == pytest.approx(
            (1 + math.sqrt(5)) / 2)
        assert evaluate_descriptor("phi", 192) == evaluate_descriptor("golden", 192)

    def test_arithmetic_and_precedence(self):
        assert evaluate_descriptor("2+3*4", 64) == 14
        assert evaluate_descriptor("3/4/2", 128) == Fraction(3, 8)
        assert evaluate_descriptor("-(1+2)", 64) == -3
        assert evaluate_descriptor("2.5e-1", 64) == Fraction(1, 4)

    def test_functions(self):
        assert float(evaluate_descriptor("sqrt(2)", 192)) == pytest.approx(math.sqrt(2))
        assert float(evaluate_descriptor("cbrt(2)", 192)) == pytest.approx(2 ** (1 / 3))
        assert float(evaluate_descriptor("log(2)", 192)) == pytest.approx(math.log(2))
        assert float(evaluate_descriptor("exp(1)", 192)) == pytest.approx(math.e)
        assert float(evaluate_descriptor("zeta(3)", 192)) == pytest.approx(1.2020569031595943)

    def test_equivalent_descriptors_freeze_identically(self):
        a = PrecisionReal.parse("golden-1")
        b = PrecisionReal.parse("(sqrt(5)-1)/2")
        assert a.scaled == b.scaled

    @pytest.mark.parametrize("bad", [
        "", "   ", "bogus(2)", "unknownname", "2*", "sqrt(2", "(1+2", "1/0",
        "2 2", "sqrt 2)", "1..2",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(DescriptorError):
            evaluate_descriptor(bad, 64)

    def test_descriptor_error_is_value_error(self):
        with pytest.raises(ValueError):
            evaluate_descriptor("nope(1)", 64)


KNOWN_DESCRIPTORS = [
    "golden-1", "sqrt(2)-1", "sqrt(3)-1", "cbrt(2)-1", "cbrt(3)-1", "pi-3", "e-2",
    "log(5)-1", "zeta(3)-1", "(golden-1)/2", "zeta(3)", "(sqrt(5)-1)/2", "2.5e-1",
    "1.", "00", "07.5", "sqrt (2)", "-+-1", "65535*65535",
]


class TestDescriptorGrammar:
    """The ast-based evaluator against the former parser."""

    @settings(max_examples=300)
    @given(st.integers(0, 1 << 32), _BITS)
    def test_grammar_and_fragments_match_reference(self, seed, bits):
        rng = random.Random(seed)
        for text in (random_descriptor(rng),
                     "".join(rng.choices(_FRAGMENTS, k=rng.randrange(9)))):
            assert outcome(text, bits) == expected_descriptor(text, bits), text

    @pytest.mark.parametrize("bits", [64, 128, 192, 256])
    @pytest.mark.parametrize("text", KNOWN_DESCRIPTORS)
    def test_known_descriptors_match_reference(self, text, bits):
        assert evaluate_descriptor(text, bits) == expected_descriptor(text, bits)

    @pytest.mark.parametrize("bits", [64, 128, 192, 256])
    @pytest.mark.parametrize("text", KNOWN_DESCRIPTORS)
    def test_parse_rounds_the_exact_value_once(self, text, bits):
        exact = evaluate_descriptor(text, bits)
        assert PrecisionReal.parse(text, bits).scaled == round(exact * (1 << bits))

    @pytest.mark.parametrize("text, scaled", [("1.5/65536/65536/65536/65536", 2),
                                              ("2.5/65536/65536/65536/65536", 2),
                                              ("-1.5/65536/65536/65536/65536", -2)])
    def test_parse_rounds_ties_to_even(self, text, scaled):
        assert PrecisionReal.parse(text, 64).scaled == scaled

    def test_tiny_descriptor_parses_without_giant_integers(self):
        tracemalloc.start()
        try:
            assert PrecisionReal.parse("1e-99999999").scaled == 0
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("text", ["1\n+2", "sqrt(2)\n-1", "1\u00a0+\t2", " pi "])
    def test_any_whitespace_separates_tokens(self, text):
        assert evaluate_descriptor(text, 128) == expected_descriptor(text, 128)

    @pytest.mark.parametrize("text", [
        "07", "019", "1+07",                    # leading-zero integer literals
        "\u0663", "1+\u0663",                   # non-ASCII digits, read as 3 before
        "(" * 201 + "1" + ")" * 201,            # past Python's parser limits
        "+".join(["1"] * 5000),
    ], ids=["07", "019", "1+07", "arabic-3", "1+arabic-3", "201-parens", "5000-terms"])
    def test_refusals_new_to_the_ast_parser(self, text):
        assert descriptor_reference(text, 128)
        with pytest.raises(DescriptorError):
            evaluate_descriptor(text, 128)

    @pytest.mark.parametrize("text", [
        "sqrt(2,)", "1 #c", "(sqrt)(2)", "pi()", "1_0", "0x1", "1j", "2**3", "4//2", ".5",
        "sqrt(x=2)", "sqrt(*2)", "1 if 1 else 2", "1or 2", "-" * 5000 + "1",
    ], ids=lambda text: text if len(text) < 20 else "5000-minus-signs")
    def test_python_only_syntax_refused(self, text):
        with pytest.raises(DescriptorError):
            evaluate_descriptor(text, 128)

    @pytest.mark.parametrize("text", [
        "sqrt(-1)", "log(-1)", "cbrt(-8)",          # complex
        "exp(1e30)", "1e30+sqrt(2)", "1e999999999",  # magnitude past 2**32
        "65536*65536", "exp(33)", "1/1e-10", "exp(log(0))",
    ])
    def test_complex_and_large_values_refused(self, text):
        with pytest.raises(DescriptorError):
            evaluate_descriptor(text, 128)

    def test_large_addend_no_longer_eats_guard_bits(self):
        with pytest.raises(DescriptorError):
            FrequencyTuple.parse("1e30+sqrt(2)")


class TestPrecisionReal:
    def test_parse_value(self):
        x = PrecisionReal.parse("golden-1")
        assert x.bits == 192
        assert x.value == pytest.approx(GOLDEN_CONJ, rel=1e-15)
        assert float(x) == x.value

    def test_bits_floor(self):
        with pytest.raises(PrecisionBudgetError):
            PrecisionReal.parse("pi", 32)
        with pytest.raises(PrecisionBudgetError):
            PrecisionReal.from_value(0.5, 63)

    def test_from_value_exact_on_fractions(self):
        x = PrecisionReal.from_value(Fraction(1, 3), 192)
        assert x.as_fraction() == Fraction(round(Fraction(1, 3) * (1 << 192)), 1 << 192)

    def test_frac_scaled_wraps_negatives(self):
        x = PrecisionReal.from_value(-0.25, 64)
        assert x.frac_scaled == (3 * (1 << 64)) // 4


class TestFrequencyTuple:
    def test_parse_accepts_single_string(self):
        f = FrequencyTuple.parse("golden-1")
        assert len(f) == 1
        assert f.descriptors == ("golden-1",)

    def test_default_budget(self):
        f = FrequencyTuple.parse(["pi-3"], bits=192)
        assert f.q_max == 1 << 160

    def test_mixed_precision_rejected(self):
        a = PrecisionReal.parse("pi", 128)
        b = PrecisionReal.parse("e", 192)
        with pytest.raises(ValueError):
            FrequencyTuple([a, b])

    def test_oversized_budget_rejected(self):
        a = PrecisionReal.parse("pi", 128)
        with pytest.raises(PrecisionBudgetError):
            FrequencyTuple([a], q_max=1 << 97)

    def test_indexing(self, pair_freq):
        assert len(pair_freq) == 2
        assert pair_freq[1].descriptor == "sqrt(3)-1"
        assert [c.descriptor for c in pair_freq] == ["sqrt(2)-1", "sqrt(3)-1"]


class TestTorusPoint:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            TorusPoint([1.0])
        with pytest.raises(ValueError):
            TorusPoint([-0.1])
        assert TorusPoint([0.0, 0.5]) == (0.0, 0.5)

    def test_from_values_reduces_mod_one(self):
        assert TorusPoint.from_values([1.25, -0.25]) == (0.25, 0.75)
        assert TorusPoint.from_values([3]) == (0.0,)
        # just below the tie between 3 and 4 units of 2**-53: one rounding gives 3
        assert TorusPoint.from_values([Fraction(7, 1 << 54) - Fraction(1, 1 << 70)]) == (
            3 / 2.0 ** 53,)


class TestMetric:
    def test_norm_picks_worst_coordinate(self):
        assert torus_norm((0.3, 0.9)) == pytest.approx(0.3)
        assert torus_norm((0.0, 0.0)) == 0.0
        assert torus_norm((0.5,)) == 0.5

    def test_dist_wraps(self):
        assert torus_dist((0.9,), (0.1,)) == pytest.approx(0.2)
        assert torus_dist((0.25, 0.5), (0.25, 0.5)) == 0.0

    def test_dist_dimension_mismatch(self):
        with pytest.raises(ValueError):
            torus_dist((0.1,), (0.1, 0.2))

    grid = st.integers(min_value=0, max_value=(1 << 53) - 1)

    @given(st.tuples(grid, grid), st.tuples(grid, grid), st.tuples(grid, grid))
    def test_metric_axioms(self, ka, kb, kc):
        g = float(1 << 53)
        a = tuple(k / g for k in ka)
        b = tuple(k / g for k in kb)
        c = tuple(k / g for k in kc)
        assert torus_dist(a, b) == torus_dist(b, a)
        assert torus_dist(a, a) == 0.0
        assert 0.0 <= torus_dist(a, b) <= 0.5
        assert torus_dist(a, c) <= torus_dist(a, b) + torus_dist(b, c) + 1e-12


class TestFracMult:
    def test_known_values(self, golden_freq, sqrt2_freq):
        pt = frac_mult(golden_freq, 8)
        assert pt[0] == pytest.approx(0.9442719099991588, rel=1e-15)
        assert torus_norm(pt) == pytest.approx(0.05572809000084121, rel=1e-14)
        assert torus_norm(frac_mult(sqrt2_freq, 5)) == pytest.approx(
            0.07106781186547524, rel=1e-14)
        assert torus_norm(frac_mult(golden_freq, 29)) == pytest.approx(
            0.0770143262530494, rel=1e-14)

    def test_accepts_bare_precision_real(self):
        x = PrecisionReal.parse("golden-1")
        f = FrequencyTuple([x])
        for q in (1, 7, 5000):
            assert frac_mult(x, q) == frac_mult(f, q)

    def test_zero_multiplier(self, golden_freq):
        assert frac_mult(golden_freq, 0) == (0.0,)

    def test_budget_guard(self):
        f = FrequencyTuple.parse("pi-3", bits=64)
        assert f.q_max == 1 << 32
        frac_mult(f, f.q_max)
        with pytest.raises(PrecisionBudgetError):
            frac_mult(f, f.q_max + 1)
        with pytest.raises(PrecisionBudgetError):
            frac_mult(f, -(f.q_max + 1))

    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_exact_sign_symmetry(self, q):
        f = FrequencyTuple.parse(["golden-1", "cbrt(2)-1"])
        assert torus_norm(frac_mult(f, q)) == torus_norm(frac_mult(f, -q))

    @given(st.integers(min_value=-(1 << 30), max_value=1 << 30),
           st.integers(min_value=-(1 << 30), max_value=1 << 30))
    def test_shift_covariance(self, q1, q2):
        f = FrequencyTuple.parse("log(2)")
        d = torus_dist(frac_mult(f, q1), frac_mult(f, q2))
        n = torus_norm(frac_mult(f, q1 - q2))
        # each point was rounded onto the 2**-53 grid once
        assert abs(d - n) <= 2.0 ** -51

    @given(st.integers(min_value=-(1 << 35), max_value=1 << 35))
    def test_matches_exact_fraction_arithmetic(self, q):
        x = PrecisionReal.parse("sqrt(2)-1", 128)
        f = FrequencyTuple([x])
        want = Fraction(x.scaled * q, 1 << 128) % 1
        got = frac_mult(f, q)[0]
        assert abs(got - want) <= Fraction(1, 1 << 53)
