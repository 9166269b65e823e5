"""Box counting, slope fits, and the closed-form dimension bracket."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kronlab import (
    BoundUndefinedError,
    BoxCountCurve,
    FrequencyMatrix,
    InsufficientDataError,
    TorusPoint,
    ValidationError,
    box_count,
    box_dimension_fit,
    diophantine_dimension_fit,
    holder_bound,
    orbit_sample,
    theoretical_bounds,
)
from kronlab import dim
from kronlab.dim import _morton_words

DYADIC = [0.25, 0.125, 0.0625, 0.03125]


def box_count_reference(points, scales):
    """(counts, points_used) from one row-unique per scale, box_count's
    former method; exact for scales down to 2**-63."""
    arr = np.asarray(list(points), dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    counts = tuple(
        len(np.unique(np.floor(arr * int(round(1.0 / eps))).astype(np.int64), axis=0))
        for eps in sorted(set(scales), reverse=True)
    )
    return counts, len(np.unique(arr, axis=0))


# extra coordinates that collide: both zeros, the ends of [0, 1), and
# values one finest cell or one ulp apart
_EDGE_COORDS = [0.0, -0.0, 0.5, 2.0 ** -63, 2.0 ** -62, 1 - 2.0 ** -53, 1 - 2.0 ** -52]
_coord01 = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(_EDGE_COORDS))


@st.composite
def _box_samples(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    rows = draw(st.lists(st.tuples(*[_coord01] * d), min_size=1, max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    levels = draw(st.lists(st.integers(1, 63), min_size=1, max_size=6))
    return rows, [2.0 ** -j for j in levels]


class TestBoxCount:
    def test_equispaced_line(self):
        pts = [(k / 128,) for k in range(128)]
        curve = box_count(pts, [0.25, 0.03125, 0.0078125])
        assert curve.scales == (0.25, 0.03125, 0.0078125)
        assert curve.counts == (4, 32, 128)
        assert curve.points_used == 128
        assert curve.ambient_dim == 1

    def test_full_grid_2d(self):
        pts = [(i / 16, j / 16) for i in range(16) for j in range(16)]
        curve = box_count(pts, [0.25, 0.0625])
        assert curve.counts == (16, 256)
        assert curve.ambient_dim == 2

    def test_accepts_flat_float_list(self):
        curve = box_count([0.1, 0.2, 0.9], [0.25])
        assert curve.ambient_dim == 1
        assert curve.counts == (2,)

    def test_accepts_flat_float_array(self):
        flat = [0.1, 0.2, 0.9]
        assert box_count(np.array(flat), [0.25]) == box_count(flat, [0.25])

    def test_duplicate_points_collapse(self):
        curve = box_count([(0.1, 0.1)] * 50, [0.25, 0.125])
        assert curve.points_used == 1
        assert curve.counts == (1, 1)

    def test_scales_sorted_and_deduplicated(self):
        pts = [(k / 64,) for k in range(64)]
        curve = box_count(pts, [0.125, 0.5, 0.125, 0.25])
        assert curve.scales == (0.5, 0.25, 0.125)

    def test_near_dyadic_scales_snap_and_merge(self):
        pts = orbit_sample(FrequencyMatrix.parse("1,0;0,sqrt(2)"), "integer", 4000)
        curve = box_count(pts, [0.25, 0.25000000000000006, 0.125, 0.0625, 0.03125])
        assert curve.scales == (0.25, 0.125, 0.0625, 0.03125)
        assert box_dimension_fit(curve).slope_lower == 1.0

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            box_count([(0.1,)], [0.3])
        with pytest.raises(ValueError):
            box_count([(0.1,)], [0.75])

    @pytest.mark.parametrize("scale", [0.0, -0.25, math.nan])
    def test_nonpositive_or_nan_scale_is_validation_error(self, scale):
        with pytest.raises(ValidationError):
            box_count([(0.1,)], [scale, 0.25])

    @pytest.mark.parametrize("bad", [0.5, np.zeros((2, 2, 2)), [[[0.1]]],
                                     [[0.1, 0.2], [0.3]], [0.1, (0.2, 0.3)], [["x"]], [{}]])
    def test_malformed_point_arrays_rejected(self, bad):
        with pytest.raises(ValidationError, match="points"):
            box_count(bad, [0.25])

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            box_count([], [0.25])

    CLOSE_1D = [[0.1], [0.2], [0.7], [0.70000001]]

    def test_finest_scale_separates_close_points(self):
        curve = box_count(self.CLOSE_1D, [0.5, 2.0 ** -20, 2.0 ** -63])
        assert curve.counts == (2, 3, 4)
        assert curve.points_used == 4

    @pytest.mark.parametrize("j", [64, 70, 1074])
    def test_scales_finer_than_2_pow_63_rejected(self, j):
        with pytest.raises(ValueError, match="finer than"):
            box_count(self.CLOSE_1D, [0.25, 2.0 ** -j])

    @pytest.mark.parametrize("bad", [-0.25, 1.0, 1.5, float("nan"), float("inf")])
    def test_coordinates_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            box_count([(0.1, 0.2), (0.3, bad)], [0.25])

    def test_negative_zero_is_zero(self):
        curve = box_count([(0.0, 0.5), (-0.0, 0.5), (0.0, -0.0)], [0.5, 2.0 ** -63])
        assert curve.points_used == 2
        assert curve.counts == (2, 2)

    def test_multiword_keys_match_reference(self):
        # d * J = 189 bits: three uint64 words per key, and points one ulp
        # apart differ only in the last word
        ulp = 2.0 ** -53
        pts = [(0.5 + a * ulp, 0.75 + b * ulp, 0.875 + c * ulp)
               for a in range(3) for b in range(3) for c in range(3)]
        scales = [2.0 ** -j for j in range(1, 64)]
        curve = box_count(pts, scales)
        assert (curve.counts, curve.points_used) == box_count_reference(pts, scales)
        assert curve.counts[-1] == 27

    @given(_box_samples())
    @settings(max_examples=150)
    def test_matches_per_scale_unique_loop(self, sample):
        pts, scales = sample
        want = box_count_reference(pts, scales)
        # the rows as a list, a C-ordered array and a Fortran-ordered array
        for rows in (pts, np.asarray(pts), np.asfortranarray(pts)):
            curve = box_count(rows, scales)
            assert (curve.counts, curve.points_used) == want

    # d * levels = 1, 63, 64, 65, 66, 128, 129, 189 and 189 key bits
    @pytest.mark.parametrize("d,levels", [(1, 1), (1, 63), (2, 32), (5, 13), (2, 33),
                                          (3, 22), (4, 32), (3, 43), (3, 63)])
    def test_morton_words_match_int_interleave(self, d, levels):
        rng = np.random.default_rng(d * 100 + levels)
        cells = rng.integers(0, 1 << levels, size=(40, d), dtype=np.uint64)
        cells[0], cells[1] = 0, (1 << levels) - 1
        nwords = -(-d * levels // 64)
        want = []
        for row in cells.tolist():
            key = 0
            for b in range(d * levels):  # key bit b is level b // d of axis b % d
                key = key << 1 | (row[b % d] >> (levels - 1 - b // d)) & 1
            key <<= 64 * nwords - d * levels
            want.append([key >> 64 * (nwords - 1 - w) & (1 << 64) - 1 for w in range(nwords)])
        words = _morton_words(cells, levels)
        assert words.dtype == np.uint64
        assert words.tolist() == want

    coord = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)

    @given(st.lists(st.tuples(coord, coord), min_size=1, max_size=60))
    @settings(max_examples=80)
    def test_counts_monotone_in_scale(self, pts):
        curve = box_count(pts, DYADIC)
        assert all(a <= b for a, b in zip(curve.counts, curve.counts[1:]))
        assert all(1 <= c <= curve.points_used for c in curve.counts)

    @given(st.lists(st.tuples(coord, coord), min_size=2, max_size=40))
    @settings(max_examples=50)
    def test_permutation_invariant(self, pts):
        fwd = box_count(pts, DYADIC)
        rev = box_count(list(reversed(pts)), DYADIC)
        assert fwd.counts == rev.counts
        assert fwd.points_used == rev.points_used


WORKLOAD_SCALES = [2.0 ** -j for j in range(2, 9)]


@pytest.fixture
def sorted_rows_calls(monkeypatch):
    """The shapes of the arrays box_count sorts by row: its Morton keys,
    then the float bit patterns when the distinct count falls back."""
    calls = []
    real = dim._sorted_rows

    def counting(words):
        calls.append(words.shape)
        return real(words)

    monkeypatch.setattr(dim, "_sorted_rows", counting)
    return calls


class TestDistinctCount:
    """points_used from one uint64 key per row, refereed by a row-unique."""

    @staticmethod
    def points_used(pts, scales=DYADIC) -> int:
        curve = box_count(pts, scales)
        assert (curve.counts, curve.points_used) == box_count_reference(pts, scales)
        return curve.points_used

    def test_duplicate_rows(self, sorted_rows_calls):
        rows = np.random.default_rng(7).random((50, 2))
        assert self.points_used(np.concatenate([rows, rows[::3], rows[:5]])) == 50
        assert len(sorted_rows_calls) == 2

    def test_rows_sharing_a_key(self, sorted_rows_calls):
        # at d = 2 a key keeps 32 bits per axis; these rows differ only below
        x, y = 0.3, 0.6
        pts = [(x, y), (x + 2.0 ** -40, y), (0.1, 0.2)]
        assert self.points_used(pts, [0.5, 2.0 ** -63]) == 3
        assert len(sorted_rows_calls) == 2

    @pytest.mark.parametrize("pts,sorts", [
        ([(-0.0, 0.5), (0.0, 0.25), (0.5, -0.0)], 1),  # distinct keys
        ([(-0.0, 0.5), (0.0, 0.5), (0.5, -0.0), (0.5, 0.0)], 2),  # equal keys
    ])
    def test_negative_zero_on_both_paths(self, sorted_rows_calls, pts, sorts):
        assert self.points_used(pts) == len({(a + 0.0, b + 0.0) for a, b in pts})
        assert len(sorted_rows_calls) == sorts

    def test_one_axis_keys_use_all_64_bits(self, sorted_rows_calls):
        top = 1 - 2.0 ** -53
        assert self.points_used([top, 1 - 2.0 ** -52, 0.5, 0.0], [0.5, 2.0 ** -63]) == 4
        assert len(sorted_rows_calls) == 1
        assert self.points_used([top, 0.25, top]) == 2

    def test_more_axes_than_key_bits(self, sorted_rows_calls):
        # d = 65 leaves no key bit per axis: every key is 0, so the exact count runs
        rows = np.random.default_rng(65).random((30, 65))
        assert self.points_used(np.concatenate([rows, rows[:4]]), [0.5, 0.25]) == 30
        assert len(sorted_rows_calls) == 2

    def test_real_orbit_sample_takes_the_key_path(self, sorted_rows_calls):
        mat = FrequencyMatrix.parse("sqrt(2)-1,pi-3;e-2,cbrt(2)-1")
        pts = orbit_sample(mat, "real", 20_000)
        assert self.points_used(pts, WORKLOAD_SCALES) == 20_000
        assert sorted_rows_calls == [(20_000, 1)]  # the Morton keys only

    def test_rank_one_integer_orbit_falls_back(self, sorted_rows_calls):
        mat = FrequencyMatrix.parse("pi-3,pi-3;sqrt(2)-1,sqrt(2)-1")
        pts = orbit_sample(mat, "integer", 20_000)
        assert self.points_used(pts, WORKLOAD_SCALES) == 281
        assert sorted_rows_calls == [(20_000, 1), (20_000, 2)]


class TestBoxDimensionFit:
    @staticmethod
    def power_law_curve(exponent: float, jmax: int = 8) -> BoxCountCurve:
        scales = tuple(2.0 ** -j for j in range(1, jmax + 1))
        counts = tuple(round((1 / s) ** exponent) for s in scales)
        return BoxCountCurve(scales=scales, counts=counts,
                             points_used=10 ** 9, ambient_dim=2)

    def test_exact_power_law(self):
        est = box_dimension_fit(self.power_law_curve(2.0))
        assert est.slope == pytest.approx(2.0, abs=1e-9)
        # the finest scale fills its grid completely and is excluded
        assert (0.00390625, 65536.0) in est.excluded
        assert est.fit_residual < 1e-9

    def test_saturated_scales_dropped_against_sample_size(self):
        scales = (0.25, 0.125, 0.0625, 0.03125)
        curve = BoxCountCurve(scales=scales, counts=(4, 8, 30, 30),
                              points_used=30, ambient_dim=1)
        est = box_dimension_fit(curve)
        samples = [s for s, _ in est.samples]
        assert 0.0625 not in samples and 0.03125 not in samples

    def test_single_point_sample_unusable(self):
        curve = box_count([(0.5, 0.5)], DYADIC)
        with pytest.raises(InsufficientDataError):
            box_dimension_fit(curve)

    def test_needs_four_scales(self):
        curve = BoxCountCurve(scales=(0.5, 0.25, 0.125), counts=(2, 4, 8),
                              points_used=10 ** 6, ambient_dim=1)
        with pytest.raises(InsufficientDataError):
            box_dimension_fit(curve)

    def test_slope_bracketed_by_consecutive_slopes(self):
        est = box_dimension_fit(self.power_law_curve(1.5))
        assert est.slope_lower <= est.slope <= est.slope_upper


class TestDiophantineDimensionFit:
    def test_exact_reciprocal_law(self):
        rows = [(0.1, 10), (0.05, 20), (0.025, 40), (0.0125, 80)]
        est = diophantine_dimension_fit(rows)
        assert est.slope == pytest.approx(1.0, abs=1e-12)
        assert est.fit_residual == pytest.approx(0.0, abs=1e-12)

    def test_accepts_ladder_rows(self, golden_freq):
        from kronlab import inclusion_length_ladder
        rows = inclusion_length_ladder(
            golden_freq, TorusPoint([0.0]), [0.1, 0.05, 0.025, 0.0125])
        est = diophantine_dimension_fit(rows)
        assert est.slope == pytest.approx(1.0, abs=0.25)

    def test_truncated_row_rejected(self):
        rows = [(0.1, 10, False), (0.05, 20, True),
                (0.025, 40, False), (0.0125, 80, False)]
        with pytest.raises(ValueError):
            diophantine_dimension_fit(rows)

    def test_zero_length_rejected(self):
        rows = [(0.1, 10), (0.05, 0), (0.025, 40), (0.0125, 80)]
        with pytest.raises(ValueError):
            diophantine_dimension_fit(rows)

    @pytest.mark.parametrize("rows", [
        [(0.1, 10), (0.05, math.nan), (0.025, 40), (0.0125, 80)],
        [(0.1, 10), (0.05, math.inf), (0.025, 40), (0.0125, 80)],
        [(math.inf, 5), (0.1, 10), (0.05, 20), (0.025, 40)],
        [(0.1, 10), (math.nan, 20), (0.025, 40), (0.0125, 80)],
        [(0.1, 10), (0.05, 20), (0.025, 40), (-0.0125, 80)],
    ], ids=["nan-length", "inf-length", "inf-eps", "nan-eps", "negative-eps"])
    def test_non_finite_or_nonpositive_row_rejected(self, rows):
        # each ladder still decreases; nan <= 0 is false, so a sign check alone
        # lets nan through to the fit
        with pytest.raises(ValidationError):
            diophantine_dimension_fit(rows)

    def test_needs_four_rows(self):
        with pytest.raises(InsufficientDataError):
            diophantine_dimension_fit([(0.1, 10), (0.05, 20), (0.025, 40)])

    def test_epsilons_must_decrease(self):
        rows = [(0.1, 10), (0.1, 20), (0.05, 40), (0.025, 80)]
        with pytest.raises(ValueError):
            diophantine_dimension_fit(rows)


class TestTheoreticalBounds:
    def test_tight_bracket_family(self):
        for m in range(1, 6):
            bb = theoretical_bounds(m, 1, 0.0, m + 1)
            assert bb.lower == float(m)
            assert bb.upper == float(m)

    def test_nu_widens_upper(self):
        bb = theoretical_bounds(1, 1, 1.0, 2.0)
        assert bb.lower == 1.0
        assert bb.upper == 2.0

    def test_hypothesis_boundary_rejected(self):
        with pytest.raises(BoundUndefinedError):
            theoretical_bounds(2, 1, 1.0, 3.0)
        with pytest.raises(BoundUndefinedError):
            theoretical_bounds(3, 1, 0.6, 4.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            theoretical_bounds(0, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_bounds(1, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_bounds(1, 1, -0.5, 2.0)
        with pytest.raises(ValueError):
            theoretical_bounds(1, 1, 0.0, 2.5)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_rejected(self, nu):
        with pytest.raises(ValidationError):
            theoretical_bounds(2, 1, nu, 3.0)

    def test_lower_scales_with_ambient(self):
        assert theoretical_bounds(2, 2, 0.0, 4.0).lower == 1.0
        assert theoretical_bounds(2, 2, 0.0, 3.0).lower == 0.5


class TestHolderBound:
    def test_values(self):
        assert holder_bound(2.0, 0.5) == 4.0
        assert holder_bound(1.5, 1.0) == 1.5
        assert holder_bound(0.0, 0.3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            holder_bound(1.0, 0.0)
        with pytest.raises(ValueError):
            holder_bound(1.0, 1.5)
        with pytest.raises(ValueError):
            holder_bound(-1.0, 0.5)
