"""Vector primitives: norms, clipping, the Hadamard transform, projection."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cldp.errors import ValidationError
from cldp.linalg import (
    EXACT_TOL,
    BallSpec,
    clip,
    fwht_rows_at,
    fwht_rows_inplace,
    p_norm,
    project_l2_ball,
    row_norms,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
vectors = st.lists(finite_floats, min_size=1, max_size=32).map(np.array)
p_values = st.sampled_from([1.0, 2.0, math.inf])


class TestPNorm:
    def test_pythagorean(self):
        assert p_norm([3.0, 4.0], 2.0) == 5.0

    def test_l1(self):
        assert p_norm([1.0, -1.0], 1.0) == 2.0

    def test_linf(self):
        assert p_norm([1.0, -2.0, 0.5], math.inf) == 2.0

    def test_fractional_p(self):
        assert p_norm([1.0, 1.0], 4.0) == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            p_norm([1.0, math.nan], 2.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValidationError):
            p_norm([1.0], 0.5)

    @given(vectors)
    def test_norm_ordering(self, v):
        # l1 >= l2 >= linf for every vector
        assert p_norm(v, 1.0) >= p_norm(v, 2.0) - 1e-9
        assert p_norm(v, 2.0) >= p_norm(v, math.inf) - 1e-9


class TestClip:
    def test_scales_to_radius(self):
        np.testing.assert_allclose(clip([2.0, 0.0], 2.0, 1.0), [1.0, 0.0])

    def test_identity_inside(self):
        np.testing.assert_array_equal(clip([0.3, 0.4], 2.0, 1.0), [0.3, 0.4])

    def test_zero_unchanged(self):
        np.testing.assert_array_equal(clip([0.0, 0.0], 1.0, 5.0), [0.0, 0.0])

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValidationError):
            clip([1.0], 2.0, 0.0)

    @given(vectors, p_values, st.floats(min_value=1e-3, max_value=1e3))
    def test_result_in_ball(self, v, p, limit):
        assert p_norm(clip(v, p, limit), p) <= limit * (1.0 + 1e-12)

    @given(vectors, p_values)
    def test_inside_is_exact_identity(self, v, p):
        nrm = p_norm(v, p)
        c = nrm + 1.0
        np.testing.assert_array_equal(clip(v, p, c), v)


class TestOneFormula:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 1.5])
    def test_norms_and_clip_are_the_formula(self, p):
        # Rows on the 1 + EXACT_TOL boundary and just past it, zero and -0.0
        # rows, and one NaN row: row_norms is the plain formula over |x| bit
        # for bit, p_norm its one-row case, and clip a row matrix exactly as
        # it clips each row alone.
        def formula(block):
            absx = np.abs(block)
            return absx.max(axis=1) if math.isinf(p) else (absx**p).sum(axis=1) ** (1.0 / p)

        gen = np.random.default_rng(7)
        rows = gen.standard_normal((500, 9)) * (gen.random((500, 9)) < 0.7)
        rows[gen.random((500, 9)) < 0.1] = -0.0
        norms = formula(rows)
        rows[norms > 0] /= norms[norms > 0, None]
        rows[::2] *= 1.0 + EXACT_TOL
        rows[1::4] *= 1.0 + 2 * EXACT_TOL
        rows[3] = 0.0
        rows[5] = -0.0
        nan_row = rows[:1].copy()
        nan_row[0, 4] = math.nan

        want = formula(rows)
        assert row_norms(rows, p).view(np.int64).tolist() == want.view(np.int64).tolist()
        assert math.isnan(row_norms(nan_row, p)[0])
        for row, norm in zip(rows, want):
            assert np.float64(p_norm(row, p)).view(np.int64) == norm.view(np.int64)
        for C in (1.0, 0.5):
            clipped = clip(rows, p, C)
            one_by_one = np.array([clip(row, p, C) for row in rows])
            assert clipped.shape == rows.shape and clipped.tobytes() == one_by_one.tobytes()
            assert clipped.tobytes() == (rows / np.maximum(1.0, want / C)[:, None]).tobytes()
        for call in (lambda: p_norm(nan_row[0], p), lambda: clip(nan_row[0], p, 1.0),
                     lambda: clip(np.vstack([rows, nan_row]), p, 1.0)):
            with pytest.raises(ValidationError, match="finite"):
                call()


def fwht(x):
    """The symmetric transform (1/sqrt(d)) * H_d @ x of one vector, by the row butterfly."""
    row = np.array(x, dtype=float).reshape(1, -1)
    return fwht_rows_inplace(row)[0] / math.sqrt(row.shape[1])


class TestFwht:
    def test_dimension_one(self):
        np.testing.assert_array_equal(fwht([3.5]), [3.5])

    def test_dimension_two(self):
        a = 0.7
        np.testing.assert_allclose(
            fwht([a, 0.0]), [a / math.sqrt(2), a / math.sqrt(2)], rtol=1e-15
        )

    def test_matches_dense_matrix(self, rng):
        # H[i, j] = (-1)^{popcount(i & j)}, normalized by sqrt(d)
        d = 16
        i = np.arange(d)
        H = np.array([[(-1) ** bin(a & b).count("1") for b in i] for a in i], dtype=float)
        x = rng.standard_normal(d)
        np.testing.assert_allclose(fwht(x), H @ x / math.sqrt(d), atol=1e-12)

    @given(st.integers(min_value=0, max_value=5), st.data())
    def test_involution(self, log_d, data):
        d = 1 << log_d
        x = np.array(
            data.draw(st.lists(finite_floats, min_size=d, max_size=d)), dtype=float
        )
        back = fwht(fwht(x))
        np.testing.assert_allclose(back, x, atol=1e-12 * max(1.0, np.max(np.abs(x))))

    def test_preserves_l2_norm(self, rng):
        x = rng.standard_normal(64)
        assert np.linalg.norm(fwht(x)) == pytest.approx(
            np.linalg.norm(x), rel=1e-10
        )

    def test_l1_ball_coordinate_bound(self, rng):
        # for ||x||_1 <= a every transformed coordinate lies in [-a/sqrt(d), a/sqrt(d)]
        d, a = 32, 2.0
        for _ in range(50):
            x = rng.standard_normal(d)
            x *= a * rng.random() / np.sum(np.abs(x))
            y = fwht(x)
            assert np.max(np.abs(y)) <= a / math.sqrt(d) + 1e-12

    def test_row_butterfly_matches_single(self, rng):
        rows = rng.standard_normal((5, 8))
        batch = fwht_rows_inplace(rows.copy()) / math.sqrt(8)
        for i in range(5):
            np.testing.assert_allclose(batch[i], fwht(rows[i]), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 500])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 100, 128, 1000, 1024])
    def test_path_entries_are_the_butterfly_bits(self, d, n):
        # One path through the butterfly gives row i's entry j[i] with the same
        # additions, so the bits equal the full transform's, signed zeros and
        # entries of magnitude up to 1e300 included.
        gen = np.random.default_rng(d * 1000 + n)
        rows = gen.standard_normal((n, d)) * 10.0 ** gen.integers(-300, 300, (n, d))
        rows[::3] = np.where(gen.random((len(rows[::3]), d)) < 0.5, -0.0, 1e300)
        rows[1::5] = np.where(gen.random((len(rows[1::5]), d)) < 0.5, -1e300, -0.0)
        if n > 1:
            rows[2] = 0.0
            rows[4] = -0.0
        dp = 1 << (d - 1).bit_length()
        j = gen.integers(dp, size=n)
        padded = np.zeros((n, dp))
        padded[:, :d] = rows
        want = fwht_rows_inplace(padded)[np.arange(n), j]
        got = fwht_rows_at(rows, j)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestProjectL2Ball:
    def test_outside_lands_on_surface(self):
        np.testing.assert_allclose(
            project_l2_ball([3.0, 0.0], [0.0, 0.0], 1.0), [1.0, 0.0]
        )

    def test_inside_identity(self):
        v = np.array([0.2, -0.1])
        np.testing.assert_array_equal(project_l2_ball(v, [0.0, 0.0], 1.0), v)

    @given(vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_idempotent(self, v, radius):
        center = np.zeros(v.size)
        once = project_l2_ball(v, center, radius)
        twice = project_l2_ball(once, center, radius)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_nonzero_center(self):
        out = project_l2_ball([5.0, 4.0], [5.0, 0.0], 2.0)
        np.testing.assert_allclose(out, [5.0, 2.0])


class TestBallSpec:
    def test_membership_tolerance(self):
        ball = BallSpec(p=2.0, radius=1.0, dim=2)
        assert ball.contains([1.0, 0.0])
        assert ball.contains([1.0 + 1e-13, 0.0])
        assert not ball.contains([1.1, 0.0])

    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            BallSpec(p=0.5, radius=1.0, dim=2)
        with pytest.raises(ValidationError):
            BallSpec(p=2.0, radius=0.0, dim=2)
        with pytest.raises(ValidationError):
            BallSpec(2.0, math.inf, 3)
        with pytest.raises(ValidationError):
            BallSpec(p=2.0, radius=1.0, dim=0)
        with pytest.raises(ValidationError):
            BallSpec("2", 1.0, 3)
        with pytest.raises(ValidationError):
            BallSpec(2.0, "1", 3)
