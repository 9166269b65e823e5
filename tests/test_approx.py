"""Window argmins, continued fractions, and denominator ladders."""
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kronlab
from kronlab import (
    FrequencyTuple,
    InsufficientDataError,
    PrecisionBudgetError,
    PrecisionReal,
    RationalFrequencyError,
    ValidationError,
    continued_fraction,
    convergent_sequence,
    dirichlet_search,
    estimate_diophantine_order,
    frac_mult,
    torus_norm,
    verify_sequence_properties,
)
from kronlab.approx import _kernel_for, _power_floors, _record_lows
from kronlab import _fixedpoint as fx

M32 = np.uint64(0xFFFFFFFF)
SHIFT32 = np.uint64(32)


def exact_record_lows(omega: PrecisionReal, n: int, block: int = 1 << 18) -> list[int]:
    """Strict record lows of |q * stored value| over q in 1..n, exactly.

    q * scaled mod 2**bits is formed in 32-bit limbs, which gives the top
    64 bits of every exact distance. A record's top bits are at most those
    of every earlier q; Python ints settle the few q that pass.
    """
    bits = omega.bits
    assert bits % 32 == 0 and n < 1 << 30
    unit = 1 << bits
    s = omega.scaled % unit
    limbs = [np.uint64((s >> (32 * k)) & 0xFFFFFFFF) for k in range(bits // 32)]
    best_key = np.uint64(1 << 63)
    candidates = []
    for lo in range(1, n + 1, block):
        q = np.arange(lo, min(lo + block, n + 1), dtype=np.uint64)
        carry = np.zeros_like(q)
        low_nonzero = np.zeros(len(q), dtype=bool)
        words = []
        for limb in limbs:
            acc = q * limb + carry
            words.append(acc & M32)
            carry = acc >> SHIFT32
        for w in words[:-2]:
            low_nonzero |= w != 0
        top = (words[-1] << SHIFT32) | words[-2]
        # past one half the distance is unit - v, whose top bits are
        # 2**64 - top, less one more when v has nonzero bits below them
        key = np.where(top >> np.uint64(63) == 1,
                       np.uint64(0) - top - low_nonzero.astype(np.uint64), top)
        prior = np.minimum.accumulate(np.concatenate(([best_key], key[:-1])))
        candidates += (np.flatnonzero(key <= prior) + lo).tolist()
        best_key = min(best_key, key.min())
    records, best = [], unit
    for c in candidates:
        v = c * s % unit
        d = min(v, unit - v)
        if d < best:
            records.append(c)
            best = d
    return records


# a_1 = 1 (golden-1), a large quotient (pi-3), a value above 1, and
# rationals whose ties sit below the kernel's 2**-64 resolution
ONE_FREQUENCY_CASES = ["golden-1", "sqrt(2)-1", "pi-3", "e-2", "sqrt(2)",
                       "2/3", "1/1000", "355/113", "0.375"]


class TestDirichletSearch:
    def test_known_argmins(self, golden_freq, sqrt2_freq):
        assert dirichlet_search(golden_freq, 10) == 8
        assert dirichlet_search(sqrt2_freq, 6) == 5
        assert dirichlet_search(golden_freq, 1.5) == 1

    def test_window_validation(self, golden_freq):
        with pytest.raises(ValueError):
            dirichlet_search(golden_freq, 0.5)
        small = FrequencyTuple.parse("golden-1", bits=64)
        with pytest.raises(PrecisionBudgetError):
            dirichlet_search(small, small.q_max + 1)

    @pytest.mark.parametrize("n", [10 ** 6 + 1, 1 << 22])
    def test_cf_path_agrees_with_scan(self, golden_freq, sqrt2_freq, n):
        # one frequency is answered from its continued fraction; compare
        # against the last record low of a kernel scan over the same window
        for freq in (golden_freq, sqrt2_freq):
            fast = dirichlet_search(freq, n)
            qs, _ = fx.record_lows(_kernel_for(freq), 1, n)
            assert fast == int(qs[-1])

    @pytest.mark.parametrize("desc", ONE_FREQUENCY_CASES)
    def test_exact_oracle_matches_plain_loop(self, desc):
        # blocks of 97 put block borders inside the runs of ties
        omega = PrecisionReal.parse(desc)
        unit = 1 << omega.bits
        want, best = [], unit
        for q in range(1, 3001):
            v = q * omega.scaled % unit
            if min(v, unit - v) < best:
                want.append(q)
                best = min(v, unit - v)
        assert exact_record_lows(omega, 3000, block=97) == want

    @pytest.mark.parametrize("desc", ONE_FREQUENCY_CASES)
    def test_one_frequency_records_are_exact(self, desc):
        freq = FrequencyTuple.parse(desc)
        want = exact_record_lows(freq[0], 1 << 22)
        assert _record_lows(freq, 1 << 22) == want
        for n in (1, 2, 7, 1000, 10 ** 6 + 1, 1 << 22):
            assert dirichlet_search(freq, n) == [q for q in want if q <= n][-1]

    def test_pigeonhole_guarantee_small(self, pair_freq):
        for k in range(1, 13):
            Q = 2 ** k
            q = dirichlet_search(pair_freq, Q)
            assert 1 <= q <= Q
            assert torus_norm(frac_mult(pair_freq, q)) < Q ** -0.5


class TestContinuedFraction:
    def test_golden_quotients_all_one(self):
        cf = continued_fraction(PrecisionReal.parse("golden-1"), 6)
        assert cf.quotients[0] == 0
        assert all(a == 1 for a in cf.quotients[1:])
        assert cf.denominators == (1, 1, 2, 3, 5, 8, 13)
        assert not cf.rational

    def test_sqrt2(self):
        cf = continued_fraction(PrecisionReal.parse("sqrt(2)"), 4)
        assert cf.quotients == (1, 2, 2, 2, 2)
        assert cf.denominators == (1, 2, 5, 12, 29)

    def test_rational_terminates_with_flag(self):
        cf = continued_fraction(PrecisionReal.parse("3/7"), 8)
        assert cf.rational
        assert cf.quotients == (0, 2, 3)
        assert cf.convergents[-1] == (3, 7)

    def test_terms_validation(self):
        with pytest.raises(ValueError):
            continued_fraction(PrecisionReal.parse("pi"), 0)

    @given(st.integers(min_value=1, max_value=(1 << 64) - 1))
    @settings(max_examples=60)
    def test_determinant_identity(self, num):
        # p_k q_{k-1} - p_{k-1} q_k alternates +1, -1 from k=1 on; the
        # canonical merge on a flagged rational can flip the last sign
        x = PrecisionReal.from_value(Fraction(num, 1 << 64), 64)
        cf = continued_fraction(x, 12)
        cs = cf.convergents
        for i in range(1, len(cs)):
            det = cs[i][0] * cs[i - 1][1] - cs[i - 1][0] * cs[i][1]
            assert abs(det) == 1
            if not (cf.rational and i == len(cs) - 1):
                assert det == (1 if i % 2 == 1 else -1)

    @given(st.integers(min_value=3, max_value=(1 << 64) - 3))
    @settings(max_examples=60)
    def test_convergent_errors_decrease(self, num):
        x = PrecisionReal.from_value(Fraction(num, 1 << 64), 64)
        value = x.as_fraction()
        cf = continued_fraction(x, 10)
        errs = [abs(value * q - p) for p, q in cf.convergents]
        assert all(b < a for a, b in zip(errs, errs[1:]) if a != 0)


class TestConvergentSequence:
    def test_golden_denominators(self, golden_freq, golden_seq12):
        assert convergent_sequence(golden_freq, 2.0, 5).denominators == (2, 3, 8, 13, 21)
        assert golden_seq12.denominators == (
            2, 3, 8, 13, 21, 55, 89, 233, 377, 987, 1597, 2584)

    def test_golden_long_run(self, golden_freq):
        seq = convergent_sequence(golden_freq, 2.0, 20)
        assert seq.denominators[-1] == 832040
        assert seq.partial_quotient_bounds == (
            1, 2, 1, 1, 2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1)

    def test_residuals_recompute(self, golden_seq12):
        for q, r in zip(golden_seq12.denominators, golden_seq12.residuals):
            assert r == torus_norm(frac_mult(golden_seq12.frequency, q))

    def test_residual_certificate(self, golden_seq12):
        m = len(golden_seq12.frequency)
        dens = golden_seq12.denominators
        for k in range(len(dens) - 1):
            bound = golden_seq12.c_hat * (1.0 / dens[k + 1]) ** (1.0 / m)
            assert golden_seq12.residuals[k] <= bound

    def test_residual_bounds_carried(self, pair_freq, golden_seq12):
        for seq in (golden_seq12, convergent_sequence(pair_freq, 4.0, 8)):
            m, dens = len(seq.frequency), seq.denominators
            assert seq.residual_bounds == tuple(
                seq.c_hat * (1.0 / q) ** (1.0 / m) for q in dens[1:])

    def test_two_dimensional_invariants(self, pair_freq):
        seq = convergent_sequence(pair_freq, 4.0, 8)
        assert seq.c_hat == pytest.approx(2.0)
        dens = seq.denominators
        assert all(a <= b for a, b in zip(dens, dens[1:]))
        for k in range(len(dens) - 1):
            assert seq.residuals[k] <= seq.c_hat * (1.0 / dens[k + 1]) ** 0.5

    @pytest.mark.parametrize("beta, K", [(2.0, 20), (1.3, 40)])
    def test_denominators_are_window_argmins(self, pair_freq, beta, K):
        # each q_k is the earliest minimiser over the whole window [1, beta^k];
        # at beta = 1.3 the windows repeat (1, 1, 2, 2, 3, ...)
        seq = convergent_sequence(pair_freq, beta, K)
        kernel = _kernel_for(pair_freq)
        for k, q in enumerate(seq.denominators, start=1):
            c = math.floor(Fraction(beta) ** k)
            assert q == 1 + int(np.argmin(kernel.residuals(1, c)))

    def test_parameter_validation(self, golden_freq):
        with pytest.raises(ValueError):
            convergent_sequence(golden_freq, 1.0, 5)
        with pytest.raises(ValueError):
            convergent_sequence(golden_freq, 2.0, 0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta_rejected(self, golden_freq, beta):
        with pytest.raises(ValidationError):
            convergent_sequence(golden_freq, beta, 5)

    def test_rational_frequency_rejected(self):
        f = FrequencyTuple.parse("1/3")
        with pytest.raises(RationalFrequencyError):
            convergent_sequence(f, 2.0, 6)

    def test_budget_guard(self):
        f = FrequencyTuple.parse("golden-1", bits=64)
        with pytest.raises(PrecisionBudgetError):
            convergent_sequence(f, 2.0, 40)

    def test_over_budget_ladder_refused_at_its_first_level_past_q_max(self, golden_freq):
        with pytest.raises(PrecisionBudgetError, match=r"^beta\^274 window") as info:
            convergent_sequence(golden_freq, 1.5, 3000)
        assert len(str(info.value)) < 200
        start = time.perf_counter()
        with pytest.raises(PrecisionBudgetError, match=r"^beta\^161 window"):
            convergent_sequence(golden_freq, 2.0, 10 ** 5)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("beta, K", [
        (1.0001, 2000), (1.5, 2000), (2.0, 300), (1.618033988749895, 1000),
        (Fraction(7, 3), 800), (Fraction(10 ** 20 + 1, 10 ** 20), 1000),
        # beta**2 lies 2**-199 below 2, inside the bracket: the exact fallback
        (Fraction(math.isqrt(2 << 400), 1 << 200), 40),
    ])
    def test_power_floors_equal_exact_powers(self, beta, K):
        b = power = Fraction(beta)
        want = []
        for _ in range(K):
            want.append(math.floor(power))
            power *= b
        assert list(itertools.islice(_power_floors(beta), K)) == want

    def test_long_ladder_near_one_is_fast(self, golden_freq):
        start = time.perf_counter()
        seq = convergent_sequence(golden_freq, 1.0001, 100_000)
        assert time.perf_counter() - start < 1.0
        assert seq.denominators[-1] == 17711

    def test_cf_fast_path_matches_scan_construction(self, golden_freq):
        # windows past 10**6 extend the ladder; the small-K prefix must be
        # unchanged
        big = convergent_sequence(golden_freq, 2.0, 21)
        small = convergent_sequence(golden_freq, 2.0, 12)
        assert big.denominators[:12] == small.denominators


class TestSequenceDiagnostics:
    @pytest.mark.parametrize("beta, k", [(1.2, 4), (1.1, 3)])
    def test_one_denominator_below_the_top_level_cannot_be_fitted(self, golden_freq, beta, k):
        seq = convergent_sequence(golden_freq, beta, k)
        assert len(set(seq.denominators[:-1])) == 1
        with pytest.raises(InsufficientDataError):
            verify_sequence_properties(seq)

    def test_golden_growth(self, golden_seq12):
        diag = verify_sequence_properties(golden_seq12)
        assert diag.growth_exponent == pytest.approx(1.0028, abs=0.02)
        assert diag.growth_max_ratio >= 1.0
        assert diag.tail_constant > 0
        assert diag.gamma_low <= diag.gamma_high

    def test_geometric_sandwich(self, golden_seq12):
        diag = verify_sequence_properties(golden_seq12)
        A = diag.amplitude
        slack = 1e-9
        for k, q in enumerate(golden_seq12.denominators, start=1):
            assert A * diag.gamma_low ** k <= q * (1 + slack)
            assert q <= A * diag.gamma_high ** k * (1 + slack)

    def test_needs_three_levels(self, golden_freq):
        seq = convergent_sequence(golden_freq, 2.0, 2)
        with pytest.raises(ValueError):
            verify_sequence_properties(seq)


class TestDiophantineOrder:
    def test_golden_is_badly_approximable(self, golden_freq):
        fit = estimate_diophantine_order(golden_freq, 100_000)
        assert fit.nu_hat <= 0.1
        assert fit.c_d_hat > 0
        qs = [q for q, _ in fit.support]
        assert qs == sorted(qs)

    def test_fitted_law_is_lower_bound_on_support(self, golden_freq):
        fit = estimate_diophantine_order(golden_freq, 50_000)
        exponent = (1.0 + fit.nu_hat) / 1.0
        for q, r in fit.support:
            assert r >= fit.c_d_hat * q ** -exponent * (1 - 1e-12)

    def test_rational_rejected(self):
        f = FrequencyTuple.parse("1/3")
        with pytest.raises(RationalFrequencyError):
            estimate_diophantine_order(f, 1000)

    def test_insufficient_envelope(self, golden_freq):
        with pytest.raises(InsufficientDataError):
            estimate_diophantine_order(golden_freq, 2)

    def test_bound_validation(self, golden_freq):
        with pytest.raises(ValueError):
            estimate_diophantine_order(golden_freq, 0)
        small = FrequencyTuple.parse("golden-1", bits=64)
        with pytest.raises(PrecisionBudgetError):
            estimate_diophantine_order(small, small.q_max + 1)


def exact_records(freq: FrequencyTuple, n: int) -> list[int]:
    """Record lows of the exact residual of the stored integers on [1, n]."""
    unit = 1 << freq.bits
    best, records = unit, []
    for q in range(1, n + 1):
        d = max(min(v, unit - v) for v in (c.scaled * q % unit for c in freq))
        if d < best:
            records.append(q)
            best = d
    return records


def test_dirichlet_search_decides_ties_on_the_stored_integers():
    # q = 1 and q = 999 agree to 2**-64; on the stored 192-bit integers
    # 999 is lower by 208 units of 2**-192
    freq = FrequencyTuple.parse(["1/1000", "1/500"])
    assert dirichlet_search(freq, 999) == 999
    assert _record_lows(freq, 999) == exact_records(freq, 999)


@pytest.mark.parametrize("case", range(16))
def test_record_lows_of_small_rationals_equal_exact_brute_force(case):
    rng = random.Random(f"rational-records:{case}")
    m = 2 + case % 2
    dens = [rng.randrange(2, 60) for _ in range(m)]
    freq = FrequencyTuple.parse([f"{rng.randrange(1, d)}/{d}" for d in dens])
    n = rng.randrange(500, 3000)
    assert _record_lows(freq, n) == exact_records(freq, n)
