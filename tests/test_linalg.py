"""Vector primitives: norms, clipping, the Hadamard transform, projection."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cldp.errors import DimensionError, ValidationError
from cldp.linalg import (
    BallSpec,
    clip,
    fwht_normalized,
    fwht_rows_inplace,
    p_norm,
    project_l2_ball,
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


class TestFwht:
    def test_dimension_one(self):
        np.testing.assert_array_equal(fwht_normalized([3.5]), [3.5])

    def test_dimension_two(self):
        a = 0.7
        np.testing.assert_allclose(
            fwht_normalized([a, 0.0]), [a / math.sqrt(2), a / math.sqrt(2)], rtol=1e-15
        )

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            fwht_normalized([1.0, 2.0, 3.0])

    def test_matches_dense_matrix(self, rng):
        # H[i, j] = (-1)^{popcount(i & j)}, normalized by sqrt(d)
        d = 16
        i = np.arange(d)
        H = np.array([[(-1) ** bin(a & b).count("1") for b in i] for a in i], dtype=float)
        x = rng.standard_normal(d)
        np.testing.assert_allclose(fwht_normalized(x), H @ x / math.sqrt(d), atol=1e-12)

    @given(st.integers(min_value=0, max_value=5), st.data())
    def test_involution(self, log_d, data):
        d = 1 << log_d
        x = np.array(
            data.draw(st.lists(finite_floats, min_size=d, max_size=d)), dtype=float
        )
        back = fwht_normalized(fwht_normalized(x))
        np.testing.assert_allclose(back, x, atol=1e-12 * max(1.0, np.max(np.abs(x))))

    def test_preserves_l2_norm(self, rng):
        x = rng.standard_normal(64)
        assert np.linalg.norm(fwht_normalized(x)) == pytest.approx(
            np.linalg.norm(x), rel=1e-10
        )

    def test_l1_ball_coordinate_bound(self, rng):
        # for ||x||_1 <= a every transformed coordinate lies in [-a/sqrt(d), a/sqrt(d)]
        d, a = 32, 2.0
        for _ in range(50):
            x = rng.standard_normal(d)
            x *= a * rng.random() / np.sum(np.abs(x))
            y = fwht_normalized(x)
            assert np.max(np.abs(y)) <= a / math.sqrt(d) + 1e-12

    def test_row_butterfly_matches_single(self, rng):
        rows = rng.standard_normal((5, 8))
        batch = fwht_rows_inplace(rows.copy()) / math.sqrt(8)
        for i in range(5):
            np.testing.assert_allclose(batch[i], fwht_normalized(rows[i]), atol=1e-12)


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
            BallSpec(p=2.0, radius=1.0, dim=0)
