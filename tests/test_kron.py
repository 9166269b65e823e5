"""Gap scans, inclusion ladders, greedy periods, and matrix systems."""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kronlab
from kronlab import _fixedpoint as fx
from kronlab._fixedpoint import to_scaled
from kronlab import (
    BudgetExceededError,
    GOLDEN_CONJUGATE_STEP,
    FrequencyMatrix,
    FrequencyTuple,
    KroneckerInstance,
    PrecisionBudgetError,
    PrecisionReal,
    TorusPoint,
    ValidationError,
    WindowPolicy,
    WindowTooNarrowError,
    almost_period_quality,
    build_extended,
    convergent_sequence,
    frac_mult,
    gap_scan,
    greedy_almost_period,
    inclusion_length_ladder,
    matrix_solution_scan,
    max_pair_residual,
    orbit_sample,
    solve_in_interval,
    torus_norm,
)

GOLDEN_EPS06_SOLUTIONS = [
    0, 8, 13, 21, 34, 42, 47, 55, 68, 76, 89, 97, 102, 110, 123, 131, 136,
    144, 152, 157, 165, 178, 186, 191, 199,
]


@pytest.fixture(scope="module")
def golden_seq25(golden_freq):
    return convergent_sequence(golden_freq, 2.0, 25)


def greedy_reference(seq, target, k0):
    """greedy_almost_period's former method, in exact rational arithmetic."""
    dens = seq.denominators
    goal = Fraction(target)
    sign = -1 if goal < 0 else 1
    mag = abs(goal)
    if mag < dens[k0 - 1]:
        return kronlab.AlmostPeriod(tau=0, coefficients=(), k0=k0, top_level=k0 - 1,
                                    target=float(target), residual=0.0)
    top = len(dens)
    while dens[top - 1] > mag:
        top -= 1
    total = 0
    reversed_coeffs = []
    for k in range(top, k0 - 1, -1):
        q = dens[k - 1]
        p = int((mag - total) // q)
        reversed_coeffs.append(p)
        total += p * q
    tau = sign * total
    return kronlab.AlmostPeriod(
        tau=tau, coefficients=tuple(reversed(reversed_coeffs)), k0=k0, top_level=top,
        target=float(target), residual=torus_norm(frac_mult(seq.frequency, tau)))


class TestInstance:
    def test_epsilon_validation(self, golden_freq):
        with pytest.raises(ValueError):
            KroneckerInstance.homogeneous(golden_freq, 0.0)
        with pytest.raises(ValueError):
            KroneckerInstance.homogeneous(golden_freq, 0.6)
        KroneckerInstance.homogeneous(golden_freq, 0.5)

    def test_dimension_mismatch(self, pair_freq):
        with pytest.raises(ValueError):
            KroneckerInstance(pair_freq, TorusPoint([0.1]), 0.1)


class TestSolveInInterval:
    def test_golden_first_hit(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.06)
        assert solve_in_interval(inst, 1, 20) == 8

    def test_none_when_absent(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.01)
        assert solve_in_interval(inst, 1, 50) is None
        assert solve_in_interval(inst, 1, 55) == 55

    def test_pair_system(self, pair_freq):
        inst = KroneckerInstance.homogeneous(pair_freq, 0.1)
        assert solve_in_interval(inst, 1, 1000) == 41

    def test_half_epsilon_accepts_everything(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.5)
        assert solve_in_interval(inst, 7, 9) == 7

    def test_empty_window(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.1)
        with pytest.raises(ValueError):
            solve_in_interval(inst, 5, 4)

    def test_reported_residual_rounding_rule(self):
        # a reported residual is the exact one rounded half to even onto
        # the 2**-53 grid, so it may sit below the true value: as an
        # epsilon it must be padded by one grid step to admit its own q
        rng = random.Random("residual-rounding")
        pool = ["sqrt(2)-1", "sqrt(3)-1", "pi-3", "e-2", "golden-1", "cbrt(2)-1"]
        for _ in range(400):
            freq = FrequencyTuple.parse(rng.sample(pool, rng.randint(1, 3)))
            q = rng.randint(1, 10 ** 6)
            r = torus_norm(frac_mult(freq, q))
            unit = 1 << freq.bits
            exact = max(min(v, unit - v) for v in (c.scaled * q % unit for c in freq))
            assert r == round(Fraction(exact, unit) * (1 << 53)) / (1 << 53)
            inst = KroneckerInstance.homogeneous(freq, min(0.5, r + 2.0 ** -53))
            assert solve_in_interval(inst, q, q) == q

    def test_respects_target(self, golden_freq):
        theta = TorusPoint([0.3])
        inst = KroneckerInstance(golden_freq, theta, 0.05)
        q = solve_in_interval(inst, 0, 10_000)
        res = kronlab.torus_dist(frac_mult(golden_freq, q), theta)
        assert res <= 0.05 + 2.0 ** -52


class TestGapScan:
    def test_golden_solution_set(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.06)
        scan = gap_scan(inst, 0, 200)
        assert scan.solutions.tolist() == GOLDEN_EPS06_SOLUTIONS
        assert scan.l_hat == 13
        assert not scan.truncated
        assert scan.gaps.tolist() == np.diff(scan.solutions).tolist()

    def test_every_solution_verifies(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.06)
        scan = gap_scan(inst, 0, 200)
        for q in scan.solutions.tolist():
            assert torus_norm(frac_mult(golden_freq, q)) <= 0.06 + 2.0 ** -52

    def test_half_epsilon_gap_one(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.5)
        assert gap_scan(inst, 0, 100).l_hat == 1

    def test_narrow_window(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.01)
        with pytest.raises(WindowTooNarrowError) as exc:
            gap_scan(inst, 0, 5)
        assert exc.value.found == 1

    def test_truncation_flag(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.06)
        scan = gap_scan(inst, 0, 30)
        assert scan.solutions.tolist() == [0, 8, 13, 21]
        assert scan.l_hat == 8
        assert scan.truncated  # the edge gap 30-21 exceeds l_hat

    def test_negative_window_symmetric(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.06)
        scan = gap_scan(inst, -200, 200)
        sols = set(scan.solutions.tolist())
        assert sols == {-q for q in sols}

    def test_budget_guard(self):
        f = FrequencyTuple.parse("golden-1", bits=64)
        inst = KroneckerInstance.homogeneous(f, 0.1)
        with pytest.raises(PrecisionBudgetError):
            gap_scan(inst, 0, f.q_max + 10)


class TestPairResidual:
    def test_two_solution_law_observed(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.06)
        scan = gap_scan(inst, 0, 200)
        worst = max_pair_residual(scan)
        assert worst <= 2 * 0.06 + 2.0 ** -31
        assert worst == pytest.approx(0.1114, abs=0.001)

    def test_single_solution_difference_set_empty(self, golden_freq):
        inst = KroneckerInstance.homogeneous(golden_freq, 0.06)
        scan = gap_scan(inst, 0, 200)
        lone = kronlab.GapScan(
            instance=scan.instance, window=(0, 0),
            solutions=np.asarray([0], dtype=np.int64),
            gaps=np.asarray([], dtype=np.int64), l_hat=0, truncated=False)
        assert max_pair_residual(lone) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("theta", [None, (0.3, 0.7, 0.15)])
    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.3, 0.45])
    def test_matches_brute_force_over_pairs(self, m, theta, eps):
        freq = FrequencyTuple.parse(["sqrt(2)-1", "sqrt(3)-1", "pi-3"][:m])
        target = TorusPoint.from_values(theta[:m] if theta else [0] * m)
        inst = KroneckerInstance(freq, target, eps)
        # about 60 solutions, so the pair loop below stays small
        scan = gap_scan(inst, -7, int(60 / (2 * eps) ** m))
        sols = scan.solutions.tolist()
        diffs = {b - a for i, a in enumerate(sols) for b in sols[i + 1:]}
        want = max(torus_norm(frac_mult(freq, q)) for q in diffs)
        assert max_pair_residual(scan) == want

    def test_worst_difference_beyond_q_max(self):
        # a full-budget scan: the worst pair's difference lies past q_max
        freq = FrequencyTuple.parse(["sqrt(2)-1"], q_max=1000)
        scan = gap_scan(KroneckerInstance(freq, TorusPoint([0.0]), 0.05), -1000, 1000)
        sols = scan.solutions.tolist()
        wide = FrequencyTuple(freq.components)
        want = max(torus_norm(frac_mult(wide, b - a)) for i, a in enumerate(sols)
                   for b in sols[i + 1:])
        assert max_pair_residual(scan) == want == 0.09999744910973762


class TestWindowPolicy:
    def test_seed_scaling(self):
        p = WindowPolicy()
        assert p.seed(0.1, 1) == 10_000
        assert p.seed(0.01, 2) == 500_000
        assert p.seed(0.5, 1) == 10_000

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_factor_rejected(self, factor):
        with pytest.raises(ValidationError):
            WindowPolicy(seed_factor=factor)

    def test_overflowing_seed_is_the_budget(self):
        assert WindowPolicy(seed_factor=1e308, budget=1000).seed(0.1, 1) == 10_000
        assert WindowPolicy(seed_min=10, budget=1000).seed(1e-200, 2) == 1000


class TestInclusionLadder:
    def test_golden_ladder_values(self, golden_freq):
        eps = [0.1, 0.05, 0.025, 0.0125, 0.00625]
        rows = inclusion_length_ladder(golden_freq, TorusPoint([0.0]), eps)
        assert [r.l_hat for r in rows] == [8, 13, 34, 55, 144]
        assert all(not r.truncated for r in rows)
        assert all(r.scan is not None for r in rows)

    def test_rows_keep_epsilon_order(self, golden_freq):
        eps = [0.2, 0.1]
        rows = inclusion_length_ladder(golden_freq, TorusPoint([0.0]), eps)
        assert [r.epsilon for r in rows] == eps

    def test_ladder_validation(self, golden_freq):
        t = TorusPoint([0.0])
        with pytest.raises(ValueError):
            inclusion_length_ladder(golden_freq, t, [])
        with pytest.raises(ValueError):
            inclusion_length_ladder(golden_freq, t, [0.6])
        with pytest.raises(ValueError):
            inclusion_length_ladder(golden_freq, t, [0.05, 0.1])

    def test_zero_seed_still_doubles(self, golden_freq):
        zero = WindowPolicy(seed_min=0, seed_factor=0.0)
        assert zero.seed(0.1, 1) == 1
        rows = inclusion_length_ladder(golden_freq, TorusPoint([0.0]), [0.1], zero)
        ones = inclusion_length_ladder(golden_freq, TorusPoint([0.0]), [0.1],
                                       WindowPolicy(seed_min=1, seed_factor=0.0))
        assert [(r.l_hat, r.window, r.truncated) for r in rows] == \
            [(r.l_hat, r.window, r.truncated) for r in ones] == [(5, (0, 8), False)]

    def test_budget_capped_row_survives(self, golden_freq):
        policy = WindowPolicy(seed_min=50, budget=50)
        rows = inclusion_length_ladder(
            golden_freq, TorusPoint([0.0]), [0.01], policy)
        assert len(rows) == 1
        assert rows[0].truncated
        assert rows[0].l_hat == 0
        assert rows[0].scan is None


class TestGreedyAlmostPeriod:
    def test_small_example(self, golden_seq25):
        ap = greedy_almost_period(golden_seq25, 30, k0=1)
        assert ap.tau == 29
        assert ap.coefficients == (0, 0, 1, 0, 1)
        assert abs(ap.tau - 30) < golden_seq25.denominators[0]

    def test_target_below_floor(self, golden_seq25):
        ap = greedy_almost_period(golden_seq25, 1, k0=3)
        assert ap.tau == 0
        assert ap.coefficients == ()
        assert ap.residual == 0.0

    def test_negative_mirrors_positive(self, golden_seq25):
        pos = greedy_almost_period(golden_seq25, 777, k0=2)
        neg = greedy_almost_period(golden_seq25, -777, k0=2)
        assert neg.tau == -pos.tau
        assert neg.coefficients == pos.coefficients

    def test_k0_validation(self, golden_seq25):
        with pytest.raises(ValueError):
            greedy_almost_period(golden_seq25, 100, k0=0)
        with pytest.raises(ValueError):
            greedy_almost_period(golden_seq25, 100, k0=26)

    @given(st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=200)
    def test_expansion_contract(self, golden_seq25, target, k0):
        seq = golden_seq25
        ap = greedy_almost_period(seq, target, k0)
        dens = seq.denominators
        # the expansion reconstructs |tau| exactly
        total = sum(p * dens[k0 - 1 + i] for i, p in enumerate(ap.coefficients))
        assert total == abs(ap.tau)
        assert abs(ap.tau - target) < dens[k0 - 1]
        # each coefficient respects the next denominator ratio
        for i, p in enumerate(ap.coefficients):
            k = k0 + i
            assert p >= 0
            if k < len(dens):
                assert p <= dens[k] // dens[k - 1]
        if ap.tau != 0:
            assert ap.residual == torus_norm(frac_mult(seq.frequency, ap.tau))


    @pytest.mark.parametrize("k0", range(1, 9))
    def test_integer_greedy_matches_rational_reference(self, golden_seq25, pair_freq, k0):
        pair_seq = convergent_sequence(pair_freq, 2.0, 18)
        rng = random.Random(f"greedy:{k0}")
        for seq in (golden_seq25, pair_seq):
            top = seq.denominators[-1]
            targets = [0, 1, -1, top, 2 * top + 3, -(10 ** 9)]
            targets += [rng.randint(-top, top) for _ in range(40)]
            targets += [rng.uniform(-top, top) for _ in range(40)]
            targets += [rng.randint(-top, top) + 0.5 for _ in range(20)]
            targets += [s * (q + d) for q in seq.denominators for s in (1, -1) for d in (-1, 0, 1)]
            targets += [f"{rng.uniform(-top, top):.4f}" for _ in range(20)]
            targets += [Fraction(rng.randint(-top * 7, top * 7), 7) for _ in range(20)]
            targets += [Fraction(q, 1) - Fraction(1, 10 ** 30) for q in seq.denominators]
            for target in targets:
                assert greedy_almost_period(seq, target, k0) == greedy_reference(seq, target, k0)
            for target in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValidationError):
                    greedy_almost_period(seq, target, k0)


class TestAlmostPeriodQuality:
    def test_golden_quality_record(self, golden_seq20):
        rec = almost_period_quality(golden_seq20, 3, [97, 500, 1000])
        assert rec.eta == 1.0
        assert rec.max_residual == pytest.approx(0.05070309126019967, rel=1e-12)
        assert rec.c2_hat == pytest.approx(0.13520824336053247, rel=1e-12)
        assert rec.consistent
        assert rec.max_reeval_gap <= 2.0 ** -32
        assert [e.tau for e in rec.entries] == [97, 500, 1000]

    def test_deeper_base_improves_residual(self, golden_seq20):
        # targets chosen off the denominator grid so the low levels matter
        targets = [100, 503, 998]
        shallow = almost_period_quality(golden_seq20, 2, targets)
        deep = almost_period_quality(golden_seq20, 5, targets)
        assert deep.max_residual < shallow.max_residual
        assert shallow.max_residual == pytest.approx(0.20208, abs=0.0005)
        assert deep.max_residual == pytest.approx(0.0174475, abs=0.0001)

    def test_eta_hypothesis_guard(self, pair_freq):
        seq = convergent_sequence(pair_freq, 4.0, 6)
        with pytest.raises(ValueError):
            almost_period_quality(seq, 1, [100], nu=1.1)

    @pytest.mark.parametrize("targets", [[], (), iter([])])
    def test_empty_targets_rejected(self, golden_seq20, targets):
        # no targets would report a worst residual of 0 and call it consistent
        with pytest.raises(ValidationError):
            almost_period_quality(golden_seq20, 3, targets)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_rejected(self, golden_seq20, nu):
        with pytest.raises(ValidationError):
            almost_period_quality(golden_seq20, 3, [97], nu=nu)

    def test_k0_guard(self, golden_seq20):
        with pytest.raises(ValueError):
            almost_period_quality(golden_seq20, 0, [100])


class TestFrequencyMatrix:
    def test_parse_shape(self):
        mat = FrequencyMatrix.parse("1,0;0,sqrt(2)")
        assert (mat.m, mat.n) == (2, 2)
        assert mat.descriptors() == "1,0;0,sqrt(2)"

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            FrequencyMatrix.parse("1,0;1")

    def test_apply_matches_frac_mult(self, golden_freq):
        mat = FrequencyMatrix.parse("golden-1")
        for q in (0, 1, 13, -55, 4181):
            assert mat.apply([q]) == frac_mult(golden_freq, q)

    def test_apply_validation(self):
        mat = FrequencyMatrix.parse("golden-1,sqrt(2)")
        with pytest.raises(ValueError):
            mat.apply([1])
        with pytest.raises(PrecisionBudgetError):
            mat.apply([1, mat.q_max + 1])

    @pytest.mark.parametrize("q_max", [0, -5])
    def test_nonpositive_budget_refused_like_a_tuple(self, q_max):
        with pytest.raises(ValidationError):
            FrequencyMatrix.parse("golden-1,sqrt(2)", q_max=q_max)
        with pytest.raises(ValidationError):
            FrequencyTuple.parse(["golden-1", "sqrt(2)"], q_max=q_max)

    def test_budget_limits_shared_with_tuples(self):
        with pytest.raises(PrecisionBudgetError):
            FrequencyMatrix.parse("golden-1", bits=128, q_max=(1 << 96) + 1)
        a = PrecisionReal.parse("pi", 128)
        b = PrecisionReal.parse("e", 192)
        with pytest.raises(ValidationError):
            FrequencyMatrix([[a, b]])


class TestMatrixScan:
    def test_single_column_matches_gap_scan(self, golden_freq):
        mat = FrequencyMatrix.parse("golden-1")
        inst = KroneckerInstance.homogeneous(golden_freq, 0.06)
        want = gap_scan(inst, 0, 200).solutions.tolist()
        got = matrix_solution_scan(mat, TorusPoint([0.0]), 0.06, [(0, 200)])
        assert [q for (q,) in got] == want

    def test_decoupled_system_is_product(self, golden_freq, sqrt2_freq):
        mat = FrequencyMatrix.parse("golden-1,0;0,sqrt(2)-1")
        eps = 0.11
        a = gap_scan(KroneckerInstance.homogeneous(golden_freq, eps), 0, 60)
        b = gap_scan(KroneckerInstance.homogeneous(sqrt2_freq, eps), 0, 60)
        want = {(x, y) for x in a.solutions.tolist() for y in b.solutions.tolist()}
        got = matrix_solution_scan(
            mat, TorusPoint([0.0, 0.0]), eps, [(0, 60), (0, 60)])
        assert set(got) == want
        assert got == sorted(got)

    def test_wide_epsilon_returns_box(self):
        mat = FrequencyMatrix.parse("pi-3")
        got = matrix_solution_scan(mat, TorusPoint([0.0]), 0.5, [(-2, 2)])
        assert got == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_volume_budget(self):
        mat = FrequencyMatrix.parse("pi-3,e-2")
        with pytest.raises(BudgetExceededError):
            matrix_solution_scan(mat, TorusPoint([0.0]), 0.1,
                                 [(0, 99), (0, 99)], budget=100)

    def test_box_validation(self):
        mat = FrequencyMatrix.parse("pi-3")
        with pytest.raises(ValueError):
            matrix_solution_scan(mat, TorusPoint([0.0]), 0.1, [(5, 4)])
        with pytest.raises(ValueError):
            matrix_solution_scan(mat, TorusPoint([0.0]), 0.1, [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            matrix_solution_scan(mat, TorusPoint([0.0, 0.0]), 0.1, [(0, 1)])


class TestExtendedSystem:
    def test_shape_and_identity_rows(self):
        mat = FrequencyMatrix.parse("golden-1,sqrt(2)-1")
        ext = build_extended(mat, TorusPoint([0.3]))
        assert (ext.a_hat.m, ext.a_hat.n) == (3, 2)
        assert ext.theta_hat == (0.0, 0.0, 0.3)
        # identity rows land exactly on the lattice for integer vectors
        pt = ext.a_hat.apply([17, -40])
        assert pt[0] == 0.0 and pt[1] == 0.0

    def test_solution_sets_agree(self, golden_freq):
        mat = FrequencyMatrix.parse("golden-1")
        theta = TorusPoint([0.3])
        ext = build_extended(mat, theta)
        direct = matrix_solution_scan(mat, theta, 0.1, [(0, 500)])
        via_ext = matrix_solution_scan(ext.a_hat, ext.theta_hat, 0.1, [(0, 500)])
        assert direct == via_ext

    def test_dimension_mismatch(self):
        mat = FrequencyMatrix.parse("golden-1")
        with pytest.raises(ValueError):
            build_extended(mat, TorusPoint([0.1, 0.2]))


def exact_orbit(mat, lattice, count, step=None):
    """orbit_sample recomputed in Fractions from the stored scaled integers:
    the row-major walk of the smallest cube [0, side)**n holding count
    points, each coordinate rounded half to even onto the 2**-53 grid."""
    side = 1
    while side ** mat.n < count:
        side += 1
    rows = [[c.as_fraction() for c in row] for row in mat.rows]
    if lattice == "real":
        scaled_step = Fraction(round(Fraction(GOLDEN_CONJUGATE_STEP if step is None else step)
                                     * (1 << mat.bits)), 1 << mat.bits)
        rows = [[e * scaled_step for e in row] for row in rows]
    points = []
    for index in range(count):
        vec = []
        for _ in range(mat.n):
            index, digit = divmod(index, side)
            vec.append(digit)
        vec.reverse()
        points.append(tuple(
            (round(sum(e * v for e, v in zip(row, vec)) % 1 * 2 ** 53) % 2 ** 53) / 2 ** 53
            for row in rows))
    return points


def orbit_rows(pts, count, m):
    """orbit_sample's result as point tuples, after checking its array layout."""
    assert isinstance(pts, np.ndarray) and pts.shape == (count, m)
    assert pts.dtype == np.float64 and pts.flags.c_contiguous
    return [tuple(r) for r in pts.tolist()]


ORBIT_MATRICES = ["pi-3", "sqrt(2)-1,pi-3;e-2,-sqrt(3)",
                  "golden-1,pi-3,-cbrt(2);e-2,sqrt(3)-1,0.5"]
ORBIT_LATTICES = [("integer", None), ("real", None), ("real", 0.5), ("real", 1e-7),
                  ("real", -0.37)]


class TestOrbitSample:
    @pytest.mark.parametrize("lattice, step", ORBIT_LATTICES)
    @pytest.mark.parametrize("bits", [64, 128, 192])
    @pytest.mark.parametrize("text", ORBIT_MATRICES)
    @pytest.mark.parametrize("count", [125, 130])
    def test_matches_exact_fractions(self, text, bits, lattice, step, count):
        mat = FrequencyMatrix.parse(text, bits)
        pts = orbit_rows(orbit_sample(mat, lattice, count, step), count, mat.m)
        assert pts == exact_orbit(mat, lattice, count, step)

    @pytest.mark.parametrize("lattice, step", [("integer", None), ("real", 0.5)])
    @pytest.mark.parametrize("bits", [64, 128, 192])
    def test_rounding_ties_match_exact_fractions(self, bits, lattice, step):
        # tie: half of 2**-53 past an even multiple of it. Rows 0 and 1 hold
        # entries one unit of 2**-bits below, on and above it; their odd
        # multiples stay on ties. Row 2 sums to one unit above the tie at
        # vector (1, 1), but past 128 bits each entry carries half a unit
        # of 2**-128 that the 128-bit steps drop, so the truncated sum
        # lies just below the tie
        tie = (0x5A5A4 << (bits - 53)) + (1 << (bits - 54))
        half = 1 << max(bits - 129, 0)
        x = 0x1234 << (bits - 53)
        y = tie - 2 * half - x
        e = [PrecisionReal.from_value(Fraction(v, 1 << bits), bits, "tie")
             for v in (tie - 1, tie, tie + 1, x + half, y + half + 1)]
        mat = FrequencyMatrix([[e[0], e[1]], [e[1], e[2]], [e[3], e[4]]])
        pts = orbit_rows(orbit_sample(mat, lattice, 100, step), 100, 3)
        assert pts == exact_orbit(mat, lattice, 100, step)
        if lattice == "integer":
            # the tie itself rounds to the even neighbour, above it up
            assert pts[1][:2] == (0x5A5A4 / 2 ** 53, 0x5A5A5 / 2 ** 53)
            assert pts[11][2] == 0x5A5A5 / 2 ** 53

    def test_count_beyond_limb_bound_rejected(self):
        mat = FrequencyMatrix.parse("pi-3")
        with pytest.raises(ValueError, match="2\\*\\*32"):
            orbit_sample(mat, "real", 1 << 32)

    def test_count_beyond_sample_cap_rejected(self):
        mat = FrequencyMatrix.parse("1,0;0,sqrt(2)")
        with pytest.raises(ValidationError, match="sample cap"):
            orbit_sample(mat, "integer", 10 ** 7 + 1)

    def test_integer_lattice_rational_matrix(self):
        mat = FrequencyMatrix.parse("0.5,0;0,0.5")
        pts = orbit_sample(mat, "integer", 9)
        orbit_rows(pts, 9, 2)
        assert np.unique(pts, axis=0).tolist() == [[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]]

    def test_integer_lattice_row_major(self):
        mat = FrequencyMatrix.parse("0.25")
        pts = orbit_rows(orbit_sample(mat, "integer", 4), 4, 1)
        assert pts == [(0.0,), (0.25,), (0.5,), (0.75,)]

    def test_real_lattice_deterministic_and_distinct(self):
        mat = FrequencyMatrix.parse("1;sqrt(2)")
        a = orbit_sample(mat, "real", 64)
        b = orbit_sample(mat, "real", 64)
        assert orbit_rows(a, 64, 2) == orbit_rows(b, 64, 2)
        assert len(np.unique(a, axis=0)) == 64

    def test_count_and_lattice_validation(self):
        mat = FrequencyMatrix.parse("pi-3")
        with pytest.raises(ValueError):
            orbit_sample(mat, "integer", 0)
        with pytest.raises(ValueError):
            orbit_sample(mat, "hex", 10)


# ------------------------------------------- exact over the whole budget

TRUST = Fraction(1, 1 << 32)
DEEP_FREQS = {m: FrequencyTuple.parse(["sqrt(2)-1", "pi-3", "e-2"][:m]) for m in (1, 2, 3)}
DEEP_EPS = {1: 0.01, 2: 0.05, 3: 0.15}
DEEP_MATRIX = FrequencyMatrix.parse("sqrt(2)-1,pi-3;e-2,sqrt(3)-1")


def exact_dist(rows, offsets, bits, vec) -> int:
    """Sup-norm residual of rows * vec - offsets on the stored integers, over 2**bits."""
    unit = 1 << bits
    worst = 0
    for row, t in zip(rows, offsets):
        v = (sum(s * x for s, x in zip(row, vec)) - t) % unit
        worst = max(worst, min(v, unit - v))
    return worst


def trust_band(eps, bits) -> tuple[Fraction, Fraction]:
    """Residuals below the first must solve, above the second must not."""
    unit = 1 << bits
    return (Fraction(eps) - TRUST) * unit, (Fraction(eps) + TRUST) * unit


@st.composite
def deep_starts(draw, q_max: int, width: int) -> int:
    """A window start with log-uniform magnitude and either sign, inside the budget."""
    b = draw(st.integers(min_value=0, max_value=q_max.bit_length() - 1))
    mag = draw(st.integers(min_value=(1 << b) >> 1, max_value=1 << b))
    start = mag if draw(st.booleans()) else -mag
    return max(-q_max, min(start, q_max - width))


grid_coords = st.integers(min_value=0, max_value=(1 << 53) - 1).map(lambda k: k / (1 << 53))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=2000))
def test_scans_match_exact_residuals_across_the_budget(data, m, width):
    freq = DEEP_FREQS[m]
    lo = data.draw(deep_starts(freq.q_max, width))
    hi = lo + width
    target = TorusPoint(data.draw(st.lists(grid_coords, min_size=m, max_size=m)))
    eps = DEEP_EPS[m]
    rows = [[c.scaled] for c in freq]
    offsets = [to_scaled(x, freq.bits) for x in target]
    dists = {q: exact_dist(rows, offsets, freq.bits, [q]) for q in range(lo, hi + 1)}
    must, never = trust_band(eps, freq.bits)
    certain = [q for q, d in dists.items() if d < must]
    inst = KroneckerInstance(freq, target, eps)
    try:
        sols = gap_scan(inst, lo, hi).solutions.tolist()
    except WindowTooNarrowError as exc:
        assert len(certain) <= exc.found < 2
    else:
        assert all(dists[q] <= never for q in sols)
        assert set(certain) <= set(sols)
    first = solve_in_interval(inst, lo, hi)
    if first is None:
        assert not certain
    else:
        assert dists[first] <= never
        assert not certain or first <= certain[0]


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=1500))
def test_matrix_scan_last_axis_matches_exact_residuals(data, width):
    mat = DEEP_MATRIX
    prefix = data.draw(deep_starts(mat.q_max, 0))
    lo = data.draw(deep_starts(mat.q_max, width))
    hi = lo + width
    target = TorusPoint(data.draw(st.lists(grid_coords, min_size=2, max_size=2)))
    eps = 0.05
    rows = [[c.scaled for c in row] for row in mat.rows]
    offsets = [to_scaled(x, mat.bits) for x in target]
    must, never = trust_band(eps, mat.bits)
    hits = matrix_solution_scan(mat, target, eps, [(prefix, prefix), (lo, hi)])
    assert all(p == prefix for p, _ in hits)
    found = {q for _, q in hits}
    for q in range(lo, hi + 1):
        d = exact_dist(rows, offsets, mat.bits, [prefix, q])
        assert d <= never if q in found else d >= must


# small enough that the lockstep tests run many blocks and spans cheaply
LOCK_CHUNK = 64
# G = LOCK_CHUNK // width is 64, 12, then 1; the last three widths need
# one, one and three spans
LOCK_WIDTHS = [1, 5, LOCK_CHUNK - 1, LOCK_CHUNK, LOCK_CHUNK + 1, 2 * LOCK_CHUNK + 17]
# one column (no prefix axes), one row (no rows after row 0), two rows at
# 96 bits (step128's other branch) and three rows; the last columns differ
LOCK_MATRICES = [
    FrequencyMatrix.parse("sqrt(2)-1"),
    FrequencyMatrix.parse("sqrt(2)-1,pi-3,e-2"),
    FrequencyMatrix.parse("sqrt(2)-1,pi-3;e-2,sqrt(3)-1", bits=96),
    FrequencyMatrix.parse("sqrt(2)-1,pi-3,e-2;cbrt(2)-1,sqrt(3)-1,log(5)-1;"
                          "zeta(3)-1,cbrt(3)-1,cbrt(2)-1"),
]
# 67 and 5 * 14 prefixes: neither divides by 64 or 12, so last blocks are partial
LOCK_PREFIX_SIZES = {1: [], 2: [67], 3: [5, 14]}
LOCK_TARGET = TorusPoint([0.3, 0.7, 0.1])


def lock_box(mat, prefix_lo: int, last_lo: int, width: int) -> list[tuple[int, int]]:
    axes = [(prefix_lo + i, prefix_lo + i + size - 1)
            for i, size in enumerate(LOCK_PREFIX_SIZES[mat.n])]
    return axes + [(last_lo, last_lo + width - 1)]


def per_prefix_solutions(mat, target, eps, box):
    """One kernel and one solutions_in call per prefix, in product order."""
    last = [row[-1].scaled for row in mat.rows]
    theta = [to_scaled(x, mat.bits) for x in target]
    eps_u64 = fx.eps_to_u64(eps)
    lo, hi = box[-1]
    want = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fx, "CHUNK", LOCK_CHUNK)
        for prefix in itertools.product(*(range(a, b + 1) for a, b in box[:-1])):
            offsets = [t - sum(c.scaled * p for c, p in zip(row, prefix))
                       for row, t in zip(mat.rows, theta)]
            kernel = fx.ResidualKernel(last, offsets, mat.bits)
            want += [prefix + (q,) for q in fx.solutions_in(kernel, lo, hi, eps_u64).tolist()]
    return want


def lockstep_scan(mat, target, eps, box):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fx, "CHUNK", LOCK_CHUNK)
        got = matrix_solution_scan(mat, target, eps, box)
    assert all(type(x) is int for vec in got for x in vec)
    return got


@pytest.mark.parametrize("width", LOCK_WIDTHS)
@pytest.mark.parametrize("mat", LOCK_MATRICES, ids=lambda mat: f"m{mat.m}n{mat.n}b{mat.bits}")
def test_lockstep_scan_matches_per_prefix_kernels(mat, width):
    target = TorusPoint(LOCK_TARGET[:mat.m])
    box = lock_box(mat, -40, -width // 2 - 3, width)  # both sides of 0
    volume = math.prod(hi - lo + 1 for lo, hi in box)
    for eps, hits in ((0.5, volume), (1e-12, 0), (0.2, None)):
        got = lockstep_scan(mat, target, eps, box)
        assert got == per_prefix_solutions(mat, target, eps, box)
        assert hits is None or len(got) == hits


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from(LOCK_MATRICES), st.sampled_from(LOCK_WIDTHS),
       st.sampled_from([0.5, 0.2, 1e-12]))
def test_lockstep_scan_matches_per_prefix_kernels_deep(data, mat, width, eps):
    target = TorusPoint(LOCK_TARGET[:mat.m])
    prefix_lo = data.draw(deep_starts(mat.q_max, 14))
    box = lock_box(mat, prefix_lo, data.draw(deep_starts(mat.q_max, width)), width)
    assert lockstep_scan(mat, target, eps, box) == per_prefix_solutions(mat, target, eps, box)


@pytest.mark.parametrize("width", [5, 2 * LOCK_CHUNK + 17])
def test_lockstep_rows_after_the_first_run_on_survivors(width):
    mat = LOCK_MATRICES[-1]
    eps = 0.3
    box = lock_box(mat, -3, -20, width)
    lo, hi = box[-1]
    thr = fx.eps_to_u64(eps)
    theta = [to_scaled(x, mat.bits) for x in LOCK_TARGET]
    steps = [fx.step128(row[-1].scaled, mat.bits) for row in mat.rows]
    # reached[r]: the (prefix, q) within eps on every row before r, from
    # Python-int distances of the same anchors and steps
    reached = [0] * mat.m
    want = []
    for prefix in itertools.product(*(range(a, b + 1) for a, b in box[:-1])):
        for q in range(lo, hi + 1):
            start = lo + (q - lo) // LOCK_CHUNK * LOCK_CHUNK
            for r, (row, t, step) in enumerate(zip(mat.rows, theta, steps)):
                reached[r] += 1
                offset = t - sum(c.scaled * p for c, p in zip(row, prefix))
                anchor = fx.step128(row[-1].scaled * start - offset, mat.bits)
                top = ((anchor + step * (q - start)) % (1 << 128)) >> 64
                if min(top, (1 << 64) - top) > thr:
                    break
            else:
                want.append(prefix + (q,))
    sizes = {step: 0 for step in steps}
    row0 = []
    dot_hi64 = fx.dot_hi64

    def counting(anchor, row_steps, digits):
        out = dot_hi64(anchor, row_steps, digits)
        sizes[row_steps[0]] += out.size
        if row_steps[0] == steps[0]:
            row0.append(out.size)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fx, "dot_hi64", counting)
        assert lockstep_scan(mat, LOCK_TARGET, eps, box) == want
    assert reached[0] == math.prod(b - a + 1 for a, b in box)
    assert 0 < reached[2] < reached[1] < reached[0]
    assert [sizes[step] for step in steps] == reached
    # a block of row 0 holds at most CHUNK vectors
    assert 0 < max(row0) <= LOCK_CHUNK


@pytest.mark.parametrize("width", [5, 2 * LOCK_CHUNK + 17])
@pytest.mark.parametrize("bits", [96, 192])
def test_lockstep_takes_offsets_shifted_by_whole_turns(bits, width):
    # step128 gives t and t + k*2**bits the same anchor on both of its
    # branches, so the lockstep needs no reduced copy of the folded offsets
    mat = FrequencyMatrix.parse("sqrt(2)-1,pi-3;e-2,sqrt(3)-1", bits=bits)
    target = TorusPoint(LOCK_TARGET[:mat.m])
    box = lock_box(mat, -40, -width // 2 - 3, width)
    kernel = fx.ResidualKernel([row[-1].scaled for row in mat.rows], bits=bits)
    theta = [to_scaled(x, bits) for x in target]
    rng = random.Random(f"whole-turns:{bits}:{width}")

    def shifted(prefix):
        offsets = [t - sum(c.scaled * p for c, p in zip(row, prefix)) + (k << bits)
                   for row, t, k in zip(mat.rows, theta,
                                        [rng.choice([-1, 1]) * rng.randrange(1 << 70)
                                         for _ in mat.rows])]
        return prefix, offsets

    for eps in (0.2, 0.05):
        prefixes = itertools.product(*(range(a, b + 1) for a, b in box[:-1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fx, "CHUNK", LOCK_CHUNK)
            hits = fx.lockstep_solutions(kernel, map(shifted, prefixes), *box[-1],
                                         fx.eps_to_u64(eps))
            got = [prefix + (q,) for prefix, q in hits]
        assert got == per_prefix_solutions(mat, target, eps, box)
        assert got


def test_lockstep_keeps_distances_equal_to_eps():
    # entries of 1/2 and 1/4 put every distance at exactly 0, 1/4 or 1/2,
    # so at eps = 1/2 some vectors sit on the threshold of each row
    mat = FrequencyMatrix.parse("1/2,1/2;1/4,1/2")
    box = [(-3, 70), (-5, 6)]
    got = lockstep_scan(mat, TorusPoint([0.0, 0.0]), 0.5, box)
    assert got == list(itertools.product(range(-3, 71), range(-5, 7)))


def test_solution_dtype_follows_the_window():
    freq = DEEP_FREQS[1]
    inst = KroneckerInstance(freq, TorusPoint([0.3]), 0.01)
    inside = gap_scan(inst, (1 << 62), (1 << 62) + 3000)
    assert inside.solutions.dtype == np.int64
    for lo in ((1 << 63) - 1500, -(1 << 63) - 1500, 1 << 150):
        scan = gap_scan(inst, lo, lo + 3000)
        sols = scan.solutions.tolist()
        assert scan.solutions.dtype == object
        assert all(type(q) is int for q in sols)
        gaps = [b - a for a, b in zip(sols, sols[1:])]
        assert scan.gaps.tolist() == gaps
        assert scan.l_hat == max(gaps)
        worst = max(torus_norm(frac_mult(freq, b - a)) for a in sols for b in sols)
        assert max_pair_residual(scan) == worst


WINDOW_Q = 1024
WINDOW_FREQ = FrequencyTuple.parse(["sqrt(2)-1", "pi-3"], q_max=WINDOW_Q)
WINDOW_ROW = FrequencyMatrix.parse("sqrt(2)-1,pi-3", q_max=WINDOW_Q)
WINDOW_INST = KroneckerInstance.homogeneous(WINDOW_FREQ, 0.25)
# every entry point that refuses a window past q_max, as a call on [lo, hi];
# those whose windows start at 0 or 1 ignore lo. frac_mult is covered in
# test_torus.
GUARDED_WINDOWS = {
    "solve_in_interval": lambda lo, hi: solve_in_interval(WINDOW_INST, lo, hi),
    "gap_scan": lambda lo, hi: gap_scan(WINDOW_INST, lo, hi),
    "matrix_solution_scan": lambda lo, hi: matrix_solution_scan(
        WINDOW_ROW, TorusPoint([0.0]), 0.25, [(0, 0), (lo, hi)]),
    "FrequencyMatrix.apply": lambda lo, hi: WINDOW_ROW.apply([lo, hi]),
    "dirichlet_search": lambda lo, hi: kronlab.dirichlet_search(WINDOW_FREQ, hi),
    "estimate_diophantine_order": lambda lo, hi: kronlab.estimate_diophantine_order(
        WINDOW_FREQ, hi),
    # one level, whose window is [1, floor(beta)]
    "convergent_sequence": lambda lo, hi: convergent_sequence(WINDOW_FREQ, hi + 0.5, 1),
    # the cube [0, hi] of a one-column matrix
    "orbit_sample": lambda lo, hi: orbit_sample(
        FrequencyMatrix.parse("sqrt(2)-1", q_max=WINDOW_Q), "integer", hi + 1),
}
TWO_SIDED = {"solve_in_interval", "gap_scan", "matrix_solution_scan", "FrequencyMatrix.apply"}
# dirichlet_search and estimate_diophantine_order test their empty windows
CAN_BE_EMPTY = {"solve_in_interval", "gap_scan", "matrix_solution_scan"}


@pytest.mark.parametrize("name", sorted(GUARDED_WINDOWS))
def test_windows_at_q_max_pass_and_past_it_are_refused(name):
    call = GUARDED_WINDOWS[name]
    call(-WINDOW_Q, WINDOW_Q)
    with pytest.raises(PrecisionBudgetError, match=f"q_max={WINDOW_Q}"):
        call(-WINDOW_Q, WINDOW_Q + 1)
    if name in TWO_SIDED:
        with pytest.raises(PrecisionBudgetError):
            call(-WINDOW_Q - 1, WINDOW_Q)
    if name in CAN_BE_EMPTY:
        with pytest.raises(ValidationError):
            call(1, 0)


NON_FINITE_SEQ = convergent_sequence(WINDOW_FREQ, 2.0, 8)
# every argument that must be an integer or a finite real, as a call on it
NON_FINITE_ARGUMENTS = {
    **{f"{name} end": (lambda call: lambda x: call(0, x))(call)
       for name, call in GUARDED_WINDOWS.items()},
    **{f"{name} start": (lambda call: lambda x: call(x, 0))(GUARDED_WINDOWS[name])
       for name in TWO_SIDED},
    "frac_mult": lambda x: frac_mult(WINDOW_FREQ, x),
    "convergent_sequence levels": lambda x: convergent_sequence(WINDOW_FREQ, 2.0, x),
    "greedy_almost_period": lambda x: greedy_almost_period(NON_FINITE_SEQ, x, 1),
    "almost_period_quality": lambda x: almost_period_quality(NON_FINITE_SEQ, 1, [5.0, x]),
    "verify_sequence_properties nu": lambda x: kronlab.verify_sequence_properties(
        NON_FINITE_SEQ, nu=x),
    "verify_sequence_properties eta": lambda x: kronlab.verify_sequence_properties(
        NON_FINITE_SEQ, eta=x),
    "holder_bound": lambda x: kronlab.holder_bound(x, 1.0),
    "PrecisionReal.from_value": lambda x: PrecisionReal.from_value(x),
    "TorusPoint.from_values": lambda x: TorusPoint.from_values([0.25, x]),
    "orbit_sample step": lambda x: orbit_sample(
        FrequencyMatrix.parse("sqrt(2)-1"), "integer", 4, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_ARGUMENTS))
def test_non_finite_arguments_refused(name, value):
    with pytest.raises(ValidationError):
        NON_FINITE_ARGUMENTS[name](value)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "x"])
@pytest.mark.parametrize("name", ["greedy_almost_period", "orbit_sample step"])
def test_text_that_is_no_finite_number_refused(name, text):
    with pytest.raises(ValidationError):
        NON_FINITE_ARGUMENTS[name](text)


def test_finite_float_arguments_convert_like_int():
    assert convergent_sequence(WINDOW_FREQ, 2.0, 3.0) == convergent_sequence(WINDOW_FREQ, 2.0, 3)
    assert frac_mult(WINDOW_FREQ, 7.9) == frac_mult(WINDOW_FREQ, 7)
    scan = gap_scan(WINDOW_INST, -3.5, 40.2)
    assert scan.window == (-3, 40)
    assert scan.solutions.tolist() == gap_scan(WINDOW_INST, -3, 40).solutions.tolist()
