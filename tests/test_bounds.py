"""Closed-form risk/convergence bounds and the low-communication adversary."""

import math

import numpy as np
import pytest

from cldp.bounds import (
    LOWER_BOUND_LABEL,
    RiskQuery,
    comm_adversary,
    convergence_bound,
    excess_risk_full_participation,
    excess_risk_sampled,
    g_squared,
    risk_lower,
    risk_upper,
)
from cldp.errors import ValidationError
from cldp.mechanisms import privacy_ratio

LN3 = math.log(3.0)


class TestRiskUpper:
    def test_pinned_l1_value(self):
        q = RiskQuery(p=1.0, d=4, n=100, a=1.0, epsilon0=LN3)
        assert privacy_ratio(LN3) == pytest.approx(2.0, rel=1e-15)
        assert risk_upper(q, worst_case=True) == pytest.approx(0.16, rel=1e-12)

    def test_l2_and_linf_constants(self):
        base = 1.0 * 4 / 100 * privacy_ratio(LN3) ** 2
        l2 = RiskQuery(p=2.0, d=4, n=100, a=1.0, epsilon0=LN3)
        linf = RiskQuery(p=math.inf, d=4, n=100, a=1.0, epsilon0=LN3)
        assert risk_upper(l2, worst_case=True) == pytest.approx(6.0 * base, rel=1e-12)
        assert risk_upper(l2, worst_case=False) == pytest.approx(14.0 * base, rel=1e-12)
        assert risk_upper(linf, worst_case=True) == pytest.approx(base * 4, rel=1e-12)

    def test_linf_to_l1_ratio_is_d(self):
        for d in (2, 7, 32):
            l1 = RiskQuery(p=1.0, d=d, n=50, a=0.7, epsilon0=0.9)
            linf = RiskQuery(p=math.inf, d=d, n=50, a=0.7, epsilon0=0.9)
            for flag in (True, False):
                ratio = risk_upper(linf, flag) / risk_upper(l1, flag)
                assert ratio == pytest.approx(d, rel=1e-12)

    def test_mix_reduces_to_direct_at_ends(self):
        # All weight on the l2 arm at p=2 gives back the direct p=2 bound;
        # all weight on the l1 arm at p=1 gives back the direct p=1 bound.
        direct2 = risk_upper(RiskQuery(p=2.0, d=9, n=200, a=1.5, epsilon0=1.0))
        via_mix2 = risk_upper(RiskQuery(p=2.0, d=9, n=200, a=1.5, epsilon0=1.0, mix_prob=0.0))
        assert via_mix2 == pytest.approx(direct2, rel=1e-12)
        direct1 = risk_upper(RiskQuery(p=1.0, d=9, n=200, a=1.5, epsilon0=1.0))
        via_mix1 = risk_upper(RiskQuery(p=1.0, d=9, n=200, a=1.5, epsilon0=1.0, mix_prob=1.0))
        assert via_mix1 == pytest.approx(direct1, rel=1e-12)

    def test_mix_two_arm_combination(self):
        d, n, a, eps0, pbar, p = 16, 400, 2.0, 0.8, 0.3, 4.0
        base = a * a * d / n * privacy_ratio(eps0) ** 2
        want = pbar * d ** 1.5 * base + (1 - pbar) * math.sqrt(d) * 6.0 * base
        got = risk_upper(RiskQuery(p=p, d=d, n=n, a=a, epsilon0=eps0, mix_prob=pbar))
        assert got == pytest.approx(want, rel=1e-12)

    def test_worst_case_never_exceeds_probabilistic(self):
        for p in (1.0, 2.0, math.inf):
            q = RiskQuery(p=p, d=8, n=100, a=1.0, epsilon0=0.5)
            assert risk_upper(q, True) <= risk_upper(q, False)

    def test_intermediate_p_requires_mix(self):
        with pytest.raises(ValidationError, match="mix_prob"):
            risk_upper(RiskQuery(p=3.0, d=4, n=100, a=1.0, epsilon0=1.0))
        with pytest.raises(ValidationError, match="finite"):
            risk_upper(RiskQuery(p=math.inf, d=4, n=100, a=1.0, epsilon0=1.0, mix_prob=0.5))


class TestRiskLower:
    def test_pinned_value(self):
        q = RiskQuery(p=1.0, d=4, n=100, a=1.0, epsilon0=1.0)
        assert risk_lower(q) == pytest.approx(0.04, rel=1e-12)

    def test_label(self):
        assert LOWER_BOUND_LABEL == "order-only"

    def test_clamps_at_radius_squared(self):
        q = RiskQuery(p=2.0, d=50, n=3, a=0.5, epsilon0=0.2)
        assert risk_lower(q) == pytest.approx(0.25, rel=1e-12)
        big_p = RiskQuery(p=4.0, d=16, n=2, a=1.0, epsilon0=0.1)
        assert risk_lower(big_p) == pytest.approx(16 ** 0.5, rel=1e-12)

    def test_branches_coincide_at_p_two(self):
        # The shape factor d^{1-2/p} hits 1 at p=2, so approaching from above
        # matches the p<=2 branch (at eps0 <= 1 where the eps terms agree).
        at_two = risk_lower(RiskQuery(p=2.0, d=8, n=500, a=1.0, epsilon0=0.5))
        above = risk_lower(RiskQuery(p=2.0 + 1e-9, d=8, n=500, a=1.0, epsilon0=0.5))
        assert above == pytest.approx(at_two, rel=1e-6)
        assert at_two == pytest.approx(8 / (500 * 0.25), rel=1e-12)

    def test_p_independent_below_two(self):
        lo = risk_lower(RiskQuery(p=1.0, d=8, n=500, a=1.0, epsilon0=0.5))
        hi = risk_lower(RiskQuery(p=1.7, d=8, n=500, a=1.0, epsilon0=0.5))
        assert lo == hi

    def test_epsilon_kink_above_two(self):
        # For p>2 the eps term is min{eps0, eps0^2}: quadratic below 1,
        # linear above.
        small = risk_lower(RiskQuery(p=4.0, d=4, n=10_000, a=1.0, epsilon0=0.5))
        assert small == pytest.approx(2.0 * 4 / (10_000 * 0.25), rel=1e-12)
        large = risk_lower(RiskQuery(p=4.0, d=4, n=10_000, a=1.0, epsilon0=2.0))
        assert large == pytest.approx(2.0 * 4 / (10_000 * 2.0), rel=1e-12)

    def test_upper_lower_ratio_bounded_for_small_p(self):
        # In the eps0 = O(1), non-clamped regime the achievable bound tracks
        # the lower bound up to a modest constant for p in [1, 2].
        for p in (1.0, 1.5, 2.0):
            for eps0 in (0.25, 0.5, 1.0):
                for d in (2, 8, 32):
                    n = max(10_000, int(4 * d / eps0**2))
                    mix = None if p in (1.0, 2.0) else 0.0
                    q = RiskQuery(p=p, d=d, n=n, a=1.0, epsilon0=eps0, mix_prob=mix)
                    ratio = risk_upper(q, worst_case=True) / risk_lower(q)
                    assert 1.0 <= ratio <= 30.0


class TestRiskQueryValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=0.5, d=4, n=10, a=1.0, epsilon0=1.0),
            dict(p=2.0, d=0, n=10, a=1.0, epsilon0=1.0),
            dict(p=2.0, d=4, n=0, a=1.0, epsilon0=1.0),
            dict(p=2.0, d=4, n=10, a=0.0, epsilon0=1.0),
            dict(p=2.0, d=4, n=10, a=math.inf, epsilon0=1.0),
            dict(p=1.0, d=4, n=10, a=1e200, epsilon0=1.0),
            dict(p=math.inf, d=4, n=10, a=1e155, epsilon0=1.0),
            dict(p=2.0, d=4, n=10, a=1.0, epsilon0=0.0),
            dict(p=2.0, d=4, n=10, a=1.0, epsilon0=1.0, mix_prob=1.5),
            dict(p=2.0, d=4, n=10, a=1.0, epsilon0=math.inf),
            dict(p=2.0, d=4, n=10, a=1.0, epsilon0=math.nan),
            dict(p="2", d=4, n=10, a=1.0, epsilon0=1.0),
            dict(p=2.0, d="4", n=10, a=1.0, epsilon0=1.0),
            dict(p=2.0, d=4.0, n=10, a=1.0, epsilon0=1.0),
            dict(p=2.0, d=4, n="10", a=1.0, epsilon0=1.0),
            dict(p=2.0, d=4, n=True, a=1.0, epsilon0=1.0),
            dict(p=2.0, d=4, n=10, a="1", epsilon0=1.0),
            dict(p=2.0, d=4, n=10, a=1.0, epsilon0="1"),
            dict(p=2.0, d=4, n=10, a=1.0, epsilon0=1.0, mix_prob="0.5"),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            RiskQuery(**kwargs)

    def test_overflowing_bound_raises(self):
        # The radius squares to a finite value, but the bound past it does
        # not: no call returns inf.
        q = RiskQuery(p=math.inf, d=10**10, n=1, a=1e150, epsilon0=0.1)
        for call in (lambda: risk_upper(q), lambda: risk_upper(q, False), lambda: risk_lower(q)):
            with pytest.raises(ValidationError, match="overflows"):
                call()
        assert math.isfinite(risk_lower(RiskQuery(p=1.0, d=10**10, n=1, a=1e150, epsilon0=0.1)))

    @pytest.mark.parametrize("eps0", [1e-160, 1e-200, 5e-324])
    def test_tiny_epsilon0(self, eps0):
        # ratio ~ 2/eps0 is finite but its square overflows: the achievable
        # bounds and G^2 refuse with ValidationError, while the lower bound,
        # whose eps0^2 may underflow to 0, reads its cap a^2 * 1.
        for p in (1.0, 2.0, math.inf, 4.0):
            mix = 0.5 if p == 4.0 else None
            q = RiskQuery(p=p, d=8, n=100, a=1.0, epsilon0=eps0, mix_prob=mix)
            for worst_case in (True, False):
                with pytest.raises(ValidationError, match="squared privacy ratio"):
                    risk_upper(q, worst_case)
            assert risk_lower(q) == (1.0 if p <= 2.0 else 8 ** (1.0 - 2.0 / p))
            with pytest.raises(ValidationError, match="squared privacy ratio"):
                g_squared(L=1.0, d=8, p=p, q=1.0, n=100, epsilon0=eps0)
        # Just above the overflow, the bounds are finite.
        q = RiskQuery(p=1.0, d=8, n=100, a=1.0, epsilon0=1e-150)
        assert math.isfinite(risk_upper(q)) and risk_lower(q) == 1.0


class TestCommAdversary:
    def test_two_dim_orthogonal_complement(self):
        # A single decoder output in the plane: the adversary is the
        # perpendicular direction, scaled to the requested radius.
        out = comm_adversary([[2.0, 0.0]], p=2.0, a=1.5)
        assert out == pytest.approx([0.0, 1.5], abs=1e-12)

    def test_orthogonal_to_every_row(self):
        gen = np.random.default_rng(7)
        rows = gen.normal(size=(5, 8))
        out = comm_adversary(rows, p=2.0, a=1.0)
        assert np.max(np.abs(rows @ out)) <= 1e-10

    def test_lp_norm_is_exact(self):
        gen = np.random.default_rng(11)
        rows = gen.normal(size=(3, 6))
        for p, a in [(1.0, 0.5), (2.0, 2.0), (4.0, 1.0), (math.inf, 3.0)]:
            out = comm_adversary(rows, p=p, a=a)
            if math.isinf(p):
                norm = np.max(np.abs(out))
            else:
                norm = np.sum(np.abs(out) ** p) ** (1 / p)
            assert norm == pytest.approx(a, rel=1e-12)

    def test_accepts_mapping(self):
        table = {"00": [1.0, 0.0, 0.0], "01": [0.0, 1.0, 0.0]}
        out = comm_adversary(table, p=2.0, a=1.0)
        assert out == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_deterministic(self):
        gen = np.random.default_rng(3)
        rows = gen.normal(size=(4, 9))
        assert np.array_equal(comm_adversary(rows, 2.0, 1.0), comm_adversary(rows, 2.0, 1.0))

    def test_averaged_estimator_cannot_see_it(self):
        # Any average of decoded outputs keeps zero component along the
        # adversary, so its squared error splits orthogonally.
        gen = np.random.default_rng(19)
        rows = gen.normal(size=(4, 8)) * 8.0
        target = comm_adversary(rows, p=2.0, a=1.0)
        weights = gen.dirichlet(np.ones(4), size=50)
        for w in weights:
            estimate = w @ rows
            err = np.sum((estimate - target) ** 2)
            split = np.sum(estimate**2) + np.sum(target**2)
            assert err == pytest.approx(split, rel=1e-9)
            assert err > np.sum(target**2)

    def test_rejects_full_rank_table(self):
        with pytest.raises(ValidationError, match="fewer"):
            comm_adversary(np.eye(4), p=2.0, a=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="finite"):
            comm_adversary([[1.0, math.nan, 0.0]], p=2.0, a=1.0)


class TestGSquared:
    def test_pinned_value(self):
        got = g_squared(L=1.0, d=4, p=2.0, q=1.0, n=100, epsilon0=LN3)
        assert got == pytest.approx(3.24, rel=1e-12)

    def test_constant_switches_with_ball(self):
        for p, c in [(1.0, 4.0), (math.inf, 4.0), (2.0, 14.0), (4.0, 14.0)]:
            got = g_squared(L=1.0, d=4, p=p, q=1.0, n=100, epsilon0=LN3)
            shape = max(4 ** (1 - 2 / p), 1.0)
            assert got == pytest.approx(shape * (1 + c * 4 / 100 * 4), rel=1e-12)

    def test_no_privacy_limit(self):
        got = g_squared(L=2.0, d=8, p=2.0, q=0.5, n=100, epsilon0=math.inf)
        assert got == pytest.approx(4.0 * (1 + 14 * 8 / 50), rel=1e-12)
        # Large finite eps0 converges to the same value from above.
        near = g_squared(L=2.0, d=8, p=2.0, q=0.5, n=100, epsilon0=50.0)
        assert near == pytest.approx(got, rel=1e-9)
        assert near >= got

    def test_monotone_in_privacy_and_data(self):
        values = [
            g_squared(L=1.0, d=8, p=2.0, q=0.1, n=1_000, epsilon0=e) for e in (0.5, 1, 2, 8)
        ]
        assert values == sorted(values, reverse=True)
        by_n = [g_squared(L=1.0, d=8, p=2.0, q=0.1, n=n, epsilon0=1.0) for n in (100, 1_000)]
        assert by_n[0] > by_n[1]
        by_q = [g_squared(L=1.0, d=8, p=2.0, q=q, n=1_000, epsilon0=1.0) for q in (0.1, 1.0)]
        assert by_q[0] > by_q[1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            g_squared(L=0.0, d=4, p=2.0, q=1.0, n=10, epsilon0=1.0)
        with pytest.raises(ValidationError):
            g_squared(L=1.0, d=4, p=2.0, q=0.0, n=10, epsilon0=1.0)
        with pytest.raises(ValidationError):
            g_squared(L=1.0, d=4, p=0.5, q=1.0, n=10, epsilon0=1.0)


class TestConvergenceBound:
    def test_formula(self):
        got = convergence_bound(L=1.0, D=2.0, d=4, p=2.0, T=100, q=1.0, n=100, epsilon0=LN3)
        big_g = math.sqrt(3.24)
        assert got == pytest.approx(2 * 2.0 * big_g * (2 + math.log(100)) / 10.0, rel=1e-12)

    def test_quadrupling_rounds_nearly_halves(self):
        kwargs = dict(L=1.0, D=1.0, d=4, p=2.0, q=1.0, n=100, epsilon0=1.0)
        ratio = convergence_bound(T=1_000, **kwargs) / convergence_bound(T=4_000, **kwargs)
        want = 2.0 * (2 + math.log(1_000)) / (2 + math.log(4_000))
        assert ratio == pytest.approx(want, rel=1e-12)
        assert 1.5 < ratio < 2.0

    def test_accepts_real_rounds(self):
        # Presets produce non-integer schedules like n/ln^2(n).
        convergence_bound(L=1.0, D=1.0, d=4, p=2.0, T=4.715, q=1.0, n=100, epsilon0=1.0)

    def test_rejects_bad_rounds_or_diameter(self):
        with pytest.raises(ValidationError):
            convergence_bound(L=1.0, D=1.0, d=4, p=2.0, T=0.5, q=1.0, n=100, epsilon0=1.0)
        with pytest.raises(ValidationError):
            convergence_bound(L=1.0, D=0.0, d=4, p=2.0, T=10, q=1.0, n=100, epsilon0=1.0)

    def test_full_participation_preset(self):
        n = 100
        want = convergence_bound(
            L=1.0, D=2.0, d=4, p=2.0, T=n / math.log(n) ** 2, q=1.0, n=n, epsilon0=1.0
        )
        got = excess_risk_full_participation(L=1.0, D=2.0, d=4, n=n, epsilon0=1.0)
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValidationError):
            excess_risk_full_participation(L=1.0, D=2.0, d=4, n=1, epsilon0=1.0)

    def test_sampled_preset(self):
        want = convergence_bound(
            L=1.0, D=2.0, d=4, p=2.0, T=1_000, q=0.1, n=100, epsilon0=1.0
        )
        got = excess_risk_sampled(L=1.0, D=2.0, d=4, n=100, q=0.1, epsilon0=1.0)
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValidationError):
            excess_risk_sampled(L=1.0, D=2.0, d=4, n=100, q=0.0, epsilon0=1.0)

    def test_more_privacy_loosens_bound(self):
        tight = excess_risk_sampled(L=1.0, D=2.0, d=4, n=100, q=0.1, epsilon0=8.0)
        loose = excess_risk_sampled(L=1.0, D=2.0, d=4, n=100, q=0.1, epsilon0=0.5)
        assert loose > tight
