"""The integer kernel against a pure big-int reference implementation."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kronlab import _fixedpoint as fx

MOD = 1 << 128
U64 = 1 << 64


def ref_dist(step: int, off: int, q: int) -> int:
    r = (step * q - off) % MOD
    hi = r >> 64
    return min(hi, (U64 - hi) % U64)


def ref_residual(steps, offsets, q):
    return max(ref_dist(s, o, q) for s, o in zip(steps, offsets))


def exact_residual(steps, offsets, q):
    """The residual of the 128-bit integers themselves, in units of 2**-128."""
    return max(min(r, MOD - r) for r in ((s * q - o) % MOD for s, o in zip(steps, offsets)))


def test_to_scaled_rounds_half_even():
    from fractions import Fraction
    assert fx.to_scaled(0.5, 1) == 1
    assert fx.to_scaled(Fraction(1, 4), 1) == 0    # 0.5 -> 0
    assert fx.to_scaled(Fraction(3, 4), 1) == 2    # 1.5 -> 2
    assert fx.to_scaled(Fraction(5, 4), 1) == 2    # 2.5 -> 2


def test_round_shift_ties_to_even():
    assert fx.round_shift(3, 1) == 2    # 1.5
    assert fx.round_shift(5, 1) == 2    # 2.5
    assert fx.round_shift(7, 1) == 4    # 3.5
    assert fx.round_shift(4, 1) == 2
    assert fx.round_shift(4, 0) == 4
    assert fx.round_shift(4, -2) == 16


@given(st.integers(min_value=0, max_value=(1 << 200) - 1),
       st.integers(min_value=1, max_value=80))
def test_round_shift_matches_fraction_round(v, s):
    from fractions import Fraction
    assert fx.round_shift(v, s) == round(Fraction(v, 1 << s))


@given(st.integers(min_value=0, max_value=(1 << 192) - 1))
def test_frac_to_unit_float_stays_in_unit_interval(v):
    x = fx.frac_to_unit_float(v, 192)
    assert 0.0 <= x < 1.0
    # on the 2**-53 grid exactly
    assert x * (1 << 53) == int(x * (1 << 53))


@given(st.integers(min_value=1, max_value=(1 << 192) - 1))
def test_frac_to_unit_float_sign_symmetry(v):
    # v and its complement round to grid points that still sum to 1 (or 0)
    a = fx.frac_to_unit_float(v, 192)
    b = fx.frac_to_unit_float((1 << 192) - v, 192)
    assert a == 0.0 and b == 0.0 or a + b == 1.0


def test_eps_to_u64_boundaries():
    assert fx.eps_to_u64(0.5) == 1 << 63
    assert fx.eps_to_u64(0.0) == 0
    assert fx.eps_to_u64(-1.0) == 0
    assert fx.eps_to_u64(2.0) == (1 << 64) - 1


kernel_ints = st.integers(min_value=0, max_value=MOD - 1)


def test_dot_hi64_matches_bigint_reference():
    rng = random.Random("dot_hi64")
    top = MOD - 1  # all-ones limbs: a carry runs through every limb
    cases = [
        # the kernel's largest in-chunk offset
        (top, [top], [[(1 << 30) - 1, 1, 0]]),
        (rng.randrange(MOD), [rng.randrange(MOD)], [[(1 << 30) - 1]]),
        # per-element sums of 2**32 - 1, the most the precondition admits
        (top, [top], [[(1 << 32) - 1]]),
        (top, [top] * 3, [[(1 << 32) - 1, 0], [0, 1 << 31], [0, (1 << 31) - 1]]),
        (0, [top] * 2, [[1 << 31, (1 << 32) - 1], [(1 << 31) - 1, 0]]),
    ]
    for _ in range(20):
        m = rng.randrange(1, 4)
        cases.append((rng.choice([0, rng.randrange(MOD)]), [rng.randrange(MOD) for _ in range(m)],
                      [[rng.randrange((1 << 32) // m) for _ in range(8)] for _ in range(m)]))
    for anchor, steps, digits in cases:
        got = fx.dot_hi64(anchor, steps, [np.array(x, dtype=np.uint64) for x in digits])
        want = [((anchor + sum(t * x for t, x in zip(steps, xs))) % MOD) >> 64
                for xs in zip(*digits)]
        assert got.tolist() == want


def test_dot_hi64_many_anchors_match_one_anchor():
    rng = random.Random("dot_hi64 many anchors")
    anchors = [0, 1, (1 << 32) - 1, U64 - 1, U64, MOD - U64, MOD - 2, MOD - 1]
    anchors += [rng.randrange(MOD) for _ in range(8)]
    steps = [MOD - 1, MOD - 2, MOD - U64 + 1, 1 << 127, rng.randrange(MOD)]
    top = fx.CHUNK - 1
    digits = np.array([0, 1, 2, top - 1, top] + [rng.randrange(fx.CHUNK) for _ in range(11)],
                      dtype=np.uint64)
    limbs = fx._anchor_limbs(anchors)
    assert limbs.shape == (3, len(anchors)) and limbs.dtype == np.uint64

    def want(a, ts, xs):
        return ((a + sum(t * x for t, x in zip(ts, xs))) % MOD) >> 64

    for t in steps:
        # one anchor per row of a (G, n) block
        block = fx.dot_hi64(limbs[:, :, None], [t], [digits])
        assert block.shape == (len(anchors), len(digits))
        for a, row in zip(anchors, block.tolist()):
            assert row == fx.dot_hi64(a, [t], [digits]).tolist()
            assert row == [want(a, [t], [x]) for x in digits.tolist()]
        # one anchor per element
        got = fx.dot_hi64(limbs, [t], [digits])
        for a, x, g in zip(anchors, digits.tolist(), got.tolist()):
            assert g == fx.dot_hi64(a, [t], [np.array([x], dtype=np.uint64)])[0]
            assert g == want(a, [t], [x])
    # several steps: the per-element digit sums stay below 2**32
    two = [digits, digits[::-1].copy()]
    got = fx.dot_hi64(limbs[:, :, None], steps[:2], two)
    for a, row in zip(anchors, got.tolist()):
        assert row == fx.dot_hi64(a, steps[:2], two).tolist()
        assert row == [want(a, steps[:2], xs) for xs in zip(*(d.tolist() for d in two))]


@given(st.lists(kernel_ints, min_size=1, max_size=3),
       st.lists(kernel_ints, min_size=3, max_size=3),
       st.integers(min_value=0, max_value=1 << 40),
       st.integers(min_value=1, max_value=130))
def test_residuals_match_bigint_reference(steps, offsets, start, n):
    offsets = offsets[:len(steps)]
    kernel = fx.ResidualKernel(steps, offsets)
    res = kernel.residuals(start, n)
    assert res.dtype == np.uint64
    for i in (0, n // 2, n - 1):
        assert int(res[i]) == ref_residual(steps, offsets, start + i)


@given(st.data(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=-(1 << 160), max_value=1 << 160),
       st.integers(min_value=1, max_value=200))
def test_192_bit_distances_within_slack_of_exact(data, m, start, n):
    # anchors come from the full integers, so the bound holds at any start
    stored = st.lists(st.integers(min_value=0, max_value=(1 << 192) - 1), min_size=m, max_size=m)
    kernel = fx.ResidualKernel(data.draw(stored), data.draw(stored), 192)
    res = kernel.residuals(start, n)
    for i in (0, n // 2, n - 1):
        exact = Fraction(kernel._exact(start + i), 1 << 128)  # units of 2**-64
        assert abs(int(res[i]) - exact) < fx._SLACK


@given(st.lists(kernel_ints, min_size=1, max_size=2),
       kernel_ints,
       st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1),
                min_size=1, max_size=40))
def test_residuals_at_matches_bigint_reference(steps, offset, qs):
    offsets = [offset] * len(steps)
    kernel = fx.ResidualKernel(steps, offsets)
    res = kernel.residuals_at(np.asarray(qs, dtype=np.int64))
    for q, r in zip(qs, res.tolist()):
        assert r == ref_residual(steps, offsets, q)


def test_residuals_at_rejects_out_of_range():
    kernel = fx.ResidualKernel([12345], [0])
    with pytest.raises(ValueError):
        kernel.residuals_at(np.asarray([-1]))
    with pytest.raises(ValueError):
        kernel.residuals_at(np.asarray([1 << 30]))


@given(st.integers(min_value=1, max_value=MOD - 1),
       kernel_ints,
       st.integers(min_value=0, max_value=200),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=U64 - 1))
def test_solutions_in_equals_brute_force(step, off, lo, width, eps_u64):
    hi = lo + width
    kernel = fx.ResidualKernel([step], [off])
    got = fx.solutions_in(kernel, lo, hi, eps_u64).tolist()
    want = [q for q in range(lo, hi + 1) if ref_dist(step, off, q) <= eps_u64]
    assert got == want


@given(st.integers(min_value=1, max_value=MOD - 1),
       kernel_ints,
       st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=250),
       st.sampled_from([3, 7, fx.CHUNK]))
def test_last_record_low_is_earliest_argmin(step, off, lo, width, chunk):
    # short chunks carry the running best across chunk borders
    hi = lo + width
    kernel = fx.ResidualKernel([step], [off])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fx, "CHUNK", chunk)
        qs, ds = fx.record_lows(kernel, lo, hi)
    exact = [exact_residual([step], [off], x) for x in range(lo, hi + 1)]
    argmin = lo + exact.index(min(exact))
    assert int(qs[-1]) == argmin
    assert int(ds[-1]) == ref_dist(step, off, argmin)


@given(st.integers(min_value=1, max_value=MOD - 1),
       st.integers(min_value=2, max_value=500))
def test_record_lows_equals_brute_force(step, hi):
    kernel = fx.ResidualKernel([step], [0])
    qs, ds = fx.record_lows(kernel, 1, hi)
    assert list(zip(qs.tolist(), ds.tolist())) == ref_record_lows([step], [0], 1, hi)


def ref_record_lows(steps, offsets, lo, hi):
    """Records of the exact residual, each with its top-64-bit residual."""
    best, want = MOD, []
    for q in range(lo, hi + 1):
        d = exact_residual(steps, offsets, q)
        if d < best:
            want.append((q, ref_residual(steps, offsets, q)))
            best = d
    return want


def ref_survivors(steps, offsets, lo, hi, chunk):
    """Count the q whose coordinate-0 distance is below the best residual
    of all earlier chunks plus the kernel's error margin: the q whose other
    coordinates need evaluating."""
    best, count = U64, 0
    for start in range(lo, hi + 1, chunk):
        qs = range(start, min(start + chunk, hi + 1))
        count += sum(ref_dist(steps[0], offsets[0], q) < best + 2 * fx._SLACK for q in qs)
        best = min([best] + [ref_residual(steps, offsets, q) for q in qs])
    return count


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("chunk", [3, 7])
@pytest.mark.parametrize("case", range(6))
def test_filtered_record_lows_equal_brute_force(m, chunk, case):
    rng = random.Random(f"record-lows:{m}:{chunk}:{case}")
    # a first coordinate of a/8 turns takes eight distances, so some q tie
    # the running best on coordinate 0 alone
    first = rng.randrange(1, 8) << 125 if case % 2 else rng.randrange(1, MOD)
    steps = [first] + [rng.randrange(1, MOD) for _ in range(m - 1)]
    offsets = [rng.randrange(1, MOD) for _ in range(m)]
    lo = rng.randrange(1, 1 << 40)
    hi = lo + rng.randrange(100, 300)
    kernel = fx.ResidualKernel(steps, offsets)
    evaluated = []
    coord_dists = kernel._coord_dists

    def counting(step, anchor, idx):
        evaluated.append((step, len(idx)))
        return coord_dists(step, anchor, idx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fx, "CHUNK", chunk)
        mp.setattr(kernel, "_coord_dists", counting)
        qs, ds = fx.record_lows(kernel, lo, hi)
    assert list(zip(qs.tolist(), ds.tolist())) == ref_record_lows(steps, offsets, lo, hi)
    # the other coordinates run on the survivors of coordinate 0 only
    survivors = ref_survivors(steps, offsets, lo, hi, chunk)
    for step in steps[1:]:
        assert sum(n for s, n in evaluated if s == step) == survivors


def test_half_epsilon_threshold_accepts_every_q():
    # a step of 2**127 puts even q on the lattice and odd q exactly 1/2 away,
    # the largest distance the kernel can report
    kernel = fx.ResidualKernel([1 << 127], [0])
    assert kernel.residuals(0, 4).tolist() == [0, 1 << 63, 0, 1 << 63]
    eps_u64 = fx.eps_to_u64(0.5)
    assert eps_u64 == 1 << 63
    assert fx.solutions_in(kernel, -5, 6, eps_u64).tolist() == list(range(-5, 7))


def test_first_solution_none_when_absent():
    # a step of 2**127 alternates between distance 0 and 2**63
    kernel = fx.ResidualKernel([1 << 127], [1 << 126])
    assert fx.first_solution(kernel, 0, 50, (1 << 62) - 1) is None


def test_residual_block_size_guard():
    kernel = fx.ResidualKernel([1], [0])
    with pytest.raises(ValueError):
        kernel.residuals(0, 1 << 30)


def test_chunks_cover_range_once():
    kernel = fx.ResidualKernel([987654321987654321], [0])
    total = 0
    expect = 0
    for start, res in kernel.chunks(0, 3 * fx.CHUNK + 17):
        assert start == expect
        total += len(res)
        expect = start + len(res)
    assert total == 3 * fx.CHUNK + 18
