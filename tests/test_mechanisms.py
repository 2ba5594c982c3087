"""Mechanism correctness: unbiasedness, privacy ratios, variance, boundedness."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cldp
from cldp import linalg
from cldp.errors import OutOfBallError, ValidationError
from cldp.linalg import EXACT_TOL, BallSpec, _largest_norm, row_norms
from cldp.mechanisms import (
    IndexSign,
    MechanismSpec,
    MixTagged,
    RawVector,
    SparseSigned,
    batch_encoder,
    decode_message,
    encode_message,
    hemisphere_radius,
    mean_estimate,
    _FAMILIES,
    _index_noise,
    _l2_noise,
    _priv_rows,
    _quan_atoms,
    _quan_cdf,
    _quan_counts,
    _L2_BLOCK,
    _l2_draw,
    _mix_block,
    _require_rows,
    _message,
    _search_counts,
    _sums,
    mean_estimate_trials,
    mechanism_family,
    message_code,
    padded_dim,
    privacy_ratio,
    r1_atom_probabilities,
    rinf_atom_probabilities,
    rp_arm_specs,
    sample_decoded,
)

LN3 = math.log(3.0)


def l1_spec(d, a=1.0, eps0=LN3):
    return MechanismSpec(ball=BallSpec(p=1.0, radius=a, dim=d), epsilon0=eps0)


def l2_spec(d, a=1.0, eps0=LN3):
    return MechanismSpec(ball=BallSpec(p=2.0, radius=a, dim=d), epsilon0=eps0)


def linf_spec(d, a=1.0, eps0=LN3):
    return MechanismSpec(ball=BallSpec(p=math.inf, radius=a, dim=d), epsilon0=eps0)


# One spec per family; l1 at d = 3 runs at the padded dimension 4.
FAMILY_SPECS = {
    "l1": l1_spec(3, a=1.3, eps0=0.7),
    "l2": l2_spec(5, a=0.8, eps0=1.1),
    "linf": linf_spec(4, a=1.5, eps0=0.6),
    "mix": MechanismSpec(BallSpec(p=3.0, radius=1.0, dim=5), epsilon0=0.9, mix_prob=0.5),
}


def random_in_ball(gen, d, p, a, scale=1.0):
    v = gen.standard_normal(d)
    if math.isinf(p):
        nrm = np.max(np.abs(v))
    else:
        nrm = np.sum(np.abs(v) ** p) ** (1.0 / p)
    return v * (a * scale * gen.random() / nrm)


def enumerated_mean(probs, decode):
    """Expectation over a closed-form atom distribution."""
    total = None
    for (j, sign), prob in probs.items():
        vec = prob * decode(IndexSign(j=j, sign=sign))
        total = vec if total is None else total + vec
    return total


def priv_draws(x, spec, gen, n):
    """n independent outputs of the sphere projection stage for one input, or
    one each for n input rows: one batched draw."""
    rows = np.broadcast_to(np.asarray(x, dtype=np.float64), (n, spec.ball.dim))
    return _priv_rows(rows, spec, _l2_noise(gen, n, spec.ball.dim)[:3])


def quan_decodes(x, radius, gen, n):
    """n independent decodes (radius*sqrt(d)/d) * sum_k sign_k e_{coord_k} of
    the sparse quantizer stage for one input: one batched draw."""
    d = len(x)
    rows = np.broadcast_to(np.asarray(x, dtype=np.float64), (n, d))
    counts = _quan_counts(rows, radius, _l2_noise(gen, n, d)[3:], np.empty((n, d), np.intp))
    return counts * (radius * math.sqrt(d) / d)


def l2_message_atoms(row, spec, noise):
    """One l2 row's message atoms, in draw order, from its slice of a batch's
    noise: the sphere projection, then the quantizer."""
    radius = hemisphere_radius(spec.ball.dim, spec.ball.radius, spec.epsilon0)
    return _quan_atoms(_priv_rows(row, spec, noise[:3]), radius, noise[3:])


def reference_decode(msg, spec):
    """Straight-line decode of one message, written from the formulas."""
    d, a, ratio = spec.ball.dim, spec.ball.radius, privacy_ratio(spec.epsilon0)
    if isinstance(msg, MixTagged):
        arm_l1, arm_l2 = rp_arm_specs(spec)
        return reference_decode(msg.inner, arm_l1 if msg.arm == "L1" else arm_l2)
    out = np.zeros(d)
    if isinstance(msg, SparseSigned):
        if not msg.is_zero:
            scale = hemisphere_radius(d, a, spec.epsilon0) * math.sqrt(d) / len(msg.pairs)
            for c, s in msg.pairs:
                out[c] += s * scale
        return out
    if spec.ball.p == 1.0:
        column = [(-1) ** bin(i & msg.j).count("1") for i in range(d)]  # Hadamard column j, cut to d
        return msg.sign * a * ratio * np.array(column, dtype=np.float64)
    out[msg.j] = msg.sign * a * d * ratio
    return out


class TestPrivacyRatio:
    def test_ln3_gives_two(self):
        assert privacy_ratio(LN3) == pytest.approx(2.0, rel=1e-15)

    def test_infinite_eps0_is_one(self):
        assert privacy_ratio(math.inf) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            privacy_ratio(0.0)

    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_decreasing_above_one(self, eps0):
        assert privacy_ratio(eps0) > 1.0
        assert privacy_ratio(eps0 + 0.1) < privacy_ratio(eps0)

    def test_one_where_exp_overflows(self):
        # e^eps0 overflows a float64 above eps0 of about 709.78; the ratio
        # there is its float64 value 1.0, which it already is at 700.
        assert math.isfinite(math.exp(700.0))
        for eps0 in (700.0, 709.8, 800.0, 1e300):
            assert privacy_ratio(eps0) == 1.0, eps0
        with pytest.raises(ValidationError):
            privacy_ratio(-math.inf)

    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    def test_encode_where_exp_overflows(self, family):
        # Every formula in e^eps0 (the ratio, the l2 same-side probability)
        # is at its float64 limit by eps0 = 700, so an encode at eps0 = 800,
        # where e^eps0 overflows, draws the same message on the same seed.
        base = FAMILY_SPECS[family]
        d, p, a = base.ball.dim, base.ball.p, base.ball.radius
        x = random_in_ball(np.random.default_rng(5), d, p, a)
        got = []
        for eps0 in (700.0, 800.0):
            spec = MechanismSpec(base.ball, eps0, base.mix_prob)
            msg = encode_message(x, spec, 11)
            atoms = getattr(msg, "inner", msg).atoms
            got.append((getattr(msg, "arm", None), atoms, decode_message(msg, spec)))
        assert got[0][:2] == got[1][:2]
        np.testing.assert_array_equal(got[0][2], got[1][2])


class TestR1:
    def test_origin_is_fair_coin(self):
        probs = r1_atom_probabilities([0.0], l1_spec(1))
        assert probs[(0, 1)] == pytest.approx(0.5, abs=1e-15)

    def test_boundary_d1_three_quarters(self):
        probs = r1_atom_probabilities([1.0], l1_spec(1))
        assert probs[(0, 1)] == pytest.approx(0.75, rel=1e-12)
        mean = enumerated_mean(probs, lambda m: decode_message(m, l1_spec(1)))
        np.testing.assert_allclose(mean, [1.0], rtol=1e-12)

    def test_d2_atom_probabilities(self):
        spec = l1_spec(2)
        probs = r1_atom_probabilities([1.0, 0.0], spec)
        assert probs[(0, 1)] == pytest.approx(3.0 / 8.0, rel=1e-12)
        assert probs[(1, 1)] == pytest.approx(3.0 / 8.0, rel=1e-12)
        assert probs[(0, -1)] == pytest.approx(1.0 / 8.0, rel=1e-12)
        assert probs[(1, -1)] == pytest.approx(1.0 / 8.0, rel=1e-12)
        mean = enumerated_mean(probs, lambda m: decode_message(m, spec))
        np.testing.assert_allclose(mean, [1.0, 0.0], atol=1e-12)

    def test_decode_d1(self):
        np.testing.assert_allclose(decode_message(IndexSign(0, 1), l1_spec(1)), [2.0], rtol=1e-12)

    def test_decode_d2_negative_column(self):
        np.testing.assert_allclose(
            decode_message(IndexSign(1, -1), l1_spec(2)), [-2.0, 2.0], rtol=1e-12
        )

    def test_decode_norm_constant(self):
        for d in (1, 2, 4, 8):
            spec = l1_spec(d, a=0.7, eps0=1.3)
            want = 0.7 * 0.7 * d * privacy_ratio(1.3) ** 2
            for j in range(d):
                for sign in (1, -1):
                    got = float(np.sum(decode_message(IndexSign(j, sign), spec) ** 2))
                    assert got == pytest.approx(want, rel=1e-12)

    def test_padded_dimension_unbiased(self, rng):
        # d=3 runs at the padded dimension 4; truncation must not bias coordinates
        spec = l1_spec(3, a=2.0, eps0=0.8)
        x = random_in_ball(rng, 3, 1.0, 2.0)
        probs = r1_atom_probabilities(x, spec)
        assert len(probs) == 2 * 4
        mean = enumerated_mean(probs, lambda m: decode_message(m, spec))
        np.testing.assert_allclose(mean, x, atol=1e-12)

    def test_probabilities_in_ldp_band(self, rng):
        spec = l1_spec(4, eps0=1.0)
        lo = 1.0 / (math.exp(1.0) + 1.0) / 4
        hi = math.exp(1.0) / (math.exp(1.0) + 1.0) / 4
        for _ in range(20):
            probs = r1_atom_probabilities(random_in_ball(rng, 4, 1.0, 1.0), spec)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
            for prob in probs.values():
                assert lo - 1e-12 <= prob <= hi + 1e-12

    def test_out_of_ball_rejected(self):
        with pytest.raises(OutOfBallError):
            encode_message([1.5], l1_spec(1), 0)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValidationError):
            decode_message(IndexSign(0, 1), l2_spec(1))
        with pytest.raises(ValidationError):
            r1_atom_probabilities([0.1], l2_spec(1))

    def test_same_seed_same_message(self):
        spec = l1_spec(4)
        x = [0.2, -0.1, 0.05, 0.3]
        assert encode_message(x, spec, 123) == encode_message(x, spec, 123)


class TestHemisphereAndPriv:
    def test_radius_d1(self):
        assert hemisphere_radius(1, 1.0, LN3) == pytest.approx(2.0, rel=1e-12)

    def test_radius_matches_gamma_formula(self):
        for d in (2, 3, 8, 64, 1000):
            want = (
                math.sqrt(math.pi)
                * math.exp(math.lgamma((d + 1) / 2) - math.lgamma(d / 2))
                * privacy_ratio(0.5)
            )
            assert hemisphere_radius(d, 1.0, 0.5) == pytest.approx(want, rel=1e-12)

    def test_radius_recurrence_from_1_to_1e16(self):
        # The Gamma ratio r(d) = Gamma((d+1)/2)/Gamma(d/2) has r(d)*r(d+1) = d/2
        # exactly, whatever formula evaluates it: on a log grid of d, and on
        # both sides of the switch to the Stirling series above d = 1024.
        grid = {round(10 ** (k / 8)) for k in range(129)} | {1023, 1024, 1025}
        scale = math.pi * privacy_ratio(0.5) ** 2
        for d in sorted(grid):
            got = hemisphere_radius(d, 1.0, 0.5) * hemisphere_radius(d + 1, 1.0, 0.5) / scale
            assert got == pytest.approx(d / 2, rel=EXACT_TOL), d

    def test_output_norm_exact(self, rng):
        spec = l2_spec(5, a=1.2, eps0=0.9)
        want = hemisphere_radius(5, 1.2, 0.9)
        xs = np.array([random_in_ball(rng, 5, 2.0, 1.2) for _ in range(20)])
        ys = priv_draws(xs, spec, rng, 20)
        np.testing.assert_allclose(np.linalg.norm(ys, axis=1), want, rtol=1e-12)

    def test_d1_boundary_distribution(self):
        # at x = (a), eps0 = ln 3: output +M with probability 3/4, M = 2a
        spec = l2_spec(1)
        gen = np.random.default_rng(7)
        draws = priv_draws([1.0], spec, gen, 20000)[:, 0]
        np.testing.assert_allclose(np.abs(draws), 2.0, rtol=1e-12)
        p_plus = np.mean(draws > 0)
        assert abs(p_plus - 0.75) < 3.0 * math.sqrt(0.75 * 0.25 / 20000)

    def test_unbiased_monte_carlo(self, rng):
        d, a, eps0 = 8, 1.0, 1.0
        spec = l2_spec(d, a, eps0)
        x = random_in_ball(rng, d, 2.0, a, scale=0.9)
        n = 200000
        big_m = hemisphere_radius(d, a, eps0)
        rows = priv_draws(x, spec, rng, n)
        err = np.linalg.norm(rows.mean(axis=0) - x)
        assert err < 5.0 * big_m / math.sqrt(n)

    def test_zero_input_symmetric(self):
        spec = l2_spec(3)
        gen = np.random.default_rng(11)
        rows = priv_draws([0.0, 0.0, 0.0], spec, gen, 50000)
        big_m = hemisphere_radius(3, 1.0, LN3)
        assert np.linalg.norm(rows.mean(axis=0)) < 5.0 * big_m / math.sqrt(50000)


class TestQuan:
    def test_d1_half_radius(self):
        gen = np.random.default_rng(3)
        vals = quan_decodes([0.5], 1.0, gen, 20000)[:, 0]
        assert set(np.unique(vals)) == {-1.0, 1.0}
        p_plus = np.mean(vals > 0)
        assert abs(p_plus - 0.75) < 3.0 * math.sqrt(0.75 * 0.25 / 20000)
        assert abs(vals.mean() - 0.5) < 0.02

    def test_d1_boundary_deterministic(self):
        gen = np.random.default_rng(4)
        np.testing.assert_allclose(quan_decodes([1.0], 1.0, gen, 100), 1.0, rtol=1e-12)

    def test_zero_input_reserved_message(self):
        # The encoder never sends the reserved zero message, but wire frames
        # carry it: it has no atoms and decodes to 0 alone and in a batch.
        spec = l2_spec(2)
        msg = SparseSigned(pairs=((0, 1),) * 2, is_zero=True)
        assert msg.atoms == ()
        np.testing.assert_array_equal(decode_message(msg, spec), [0.0, 0.0])
        other = encode_message([0.3, -0.4], spec, 0)
        np.testing.assert_array_equal(mean_estimate([msg, other], spec), decode_message(other, spec) / 2)

    def test_unbiased_monte_carlo(self, rng):
        d, radius = 4, 2.0
        x = random_in_ball(rng, d, 2.0, radius, scale=0.8)
        n = 200000
        rows = quan_decodes(x, radius, rng, n)
        err = np.linalg.norm(rows.mean(axis=0) - x)
        assert err < 5.0 * radius * math.sqrt(2.0 / n)

    def test_out_of_radius_rejected(self):
        with pytest.raises(OutOfBallError):
            encode_message([2.0], l2_spec(1), 0)

    def test_draws_match_generator_choice(self):
        # the batched inverse CDF picks what Generator.choice(d, p=w) picks,
        # zero-weight coordinates included
        for seed in range(300):
            gen = np.random.default_rng(seed)
            d = int(gen.integers(1, 40))
            x = gen.standard_normal(d) * (gen.random(d) < 0.7)
            if not x.any():
                continue
            x *= 0.9 / np.linalg.norm(x)
            gen, ref = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
            l1 = np.abs(x).sum()
            xt = x / l1 if ref.random() < 0.5 + l1 / (2.0 * math.sqrt(d)) else -x / l1
            w = np.abs(xt) / np.abs(xt).sum()
            want = tuple((int(c), 1 if xt[c] > 0 else -1) for c in ref.choice(d, size=d, p=w))
            atoms = _quan_atoms(x[None], 1.0, (gen.random(1), gen.random((1, d))))[0]
            assert _message("l2", tuple(atoms.tolist())).pairs == want

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 20, 64, 100, 129])
    def test_search_is_searchsorted_per_row(self, d, n):
        # Sorted rows ending at exactly 1.0, with runs of equal entries, and
        # queries in [0, 1) set to entries, to the values just below them and
        # to 0; the merged counts are the bincount of searchsorted's indices.
        gen = np.random.default_rng(d * 1000 + n)
        w = gen.random((n, d)) * (gen.random((n, d)) < 0.6)
        w[:, -1] += 0.5
        w[0, : d // 2] = 0.0
        cdf = np.cumsum(w, axis=1)
        cdf /= cdf[:, -1:]
        entries = np.take_along_axis(cdf, gen.integers(0, d, (n, d)), axis=1)
        u = np.where(gen.random((n, d)) < 0.5, entries, gen.random((n, d)))
        u[u >= 1.0] = 0.0
        below = gen.random((n, d)) < 0.2
        u[below] = np.nextafter(u[below], -1.0).clip(0.0)
        u[:, 0] = 0.0
        want = [np.searchsorted(cdf[i], u[i], side="right") for i in range(n)]
        counts = [np.bincount(k, minlength=d) for k in want]
        np.testing.assert_array_equal(_search_counts(cdf, u, np.empty((n, d), np.intp)), counts)

    @pytest.mark.parametrize("d", [1, 2, 3, 20, 128, 1000])
    def test_batch_counts_are_the_atoms_counts(self, d):
        # A batch draws net signed counts, a message its atoms; they must
        # agree row for row, each row's message drawn from its own slice of
        # the batch's noise. Rows with zero and -0.0 coordinates (tied cdf
        # entries), uniforms set to cdf entries and to 0, and draws that
        # cross the block boundaries of _l2_draw where that is cheap (d >= 20).
        def signed_counts(draw_atoms, rows, noise):
            out = []
            for i in range(len(rows)):
                atoms = draw_atoms(rows[i:i + 1], [part[i:i + 1] for part in noise])[0]
                out.append(np.bincount(atoms >> 1, weights=2 * (atoms & 1) - 1, minlength=d))
            return np.array(out)

        gen = np.random.default_rng(d)
        n = 40
        x = gen.standard_normal((n, d)) * (gen.random((n, d)) < 0.6)
        x[gen.random((n, d)) < 0.2] = -0.0
        x[:, 0] = np.where(gen.random(n) < 0.5, 1.0, -1.0)
        x /= np.linalg.norm(x, axis=1)[:, None]
        u_flip = gen.random(n)
        cdf = _quan_cdf(x, 1.0, u_flip)[1]
        entries = np.take_along_axis(cdf, gen.integers(0, d, (n, d)), axis=1)
        u = np.where(gen.random((n, d)) < 0.5, entries, gen.random((n, d)))
        u[u >= 1.0] = 0.0
        u[:, -1] = 0.0
        counts = _quan_counts(x, 1.0, (u_flip, u), np.empty((n, d), np.intp))
        want = signed_counts(lambda row, part: _quan_atoms(row, 1.0, part), x, (u_flip, u))
        np.testing.assert_array_equal(counts, want)

        spec = l2_spec(d, eps0=0.8)
        n_rows = min(2 * _L2_BLOCK // d + 5, 3000)
        rows = np.array([random_in_ball(gen, d, 2.0, 1.0) for _ in range(n_rows)])
        rows[gen.random(rows.shape) < 0.3] = 0.0
        rows[0] = -0.0
        noise = _l2_noise(gen, len(rows), d)
        want = signed_counts(lambda row, part: l2_message_atoms(row, spec, part), rows, noise)
        np.testing.assert_array_equal(_l2_draw(rows, spec, noise), want)

    @pytest.mark.parametrize("d", [1, 2, 3, 20, 128, 1000])
    def test_mix_batches_decode_their_messages(self, d):
        # sample_decoded's rows and batch_encoder's mean, the mix's l2 arm
        # drawn as counts, equal the decodes of the messages that the same
        # noise makes, each row's message drawn from its own slice of the
        # noise (an l2 message as ``l2_message_atoms`` lists it), and each
        # l2 message decoded from its atoms.
        spec = MechanismSpec(BallSpec(1.5, 1.0, d), 0.8, mix_prob=0.5)
        arm_l1, arm_l2 = rp_arm_specs(spec)
        gen = np.random.default_rng(d)
        x = random_in_ball(gen, d, 1.5, 1.0)
        x[gen.random(d) < 0.3] = -0.0
        rows = np.array([random_in_ball(gen, d, 1.5, 1.0) for _ in range(60)])
        rows[gen.random(rows.shape) < 0.3] = 0.0

        def messages(rows, noise):
            arm, msgs = noise[0], []
            for r, a in enumerate(arm.tolist()):
                i = int(np.count_nonzero(arm[:r] == a))
                if a:
                    one = [part[i:i + 1] for part in noise[1:3]]
                    key, atoms = "L1", _FAMILIES["l1"].draw(rows[r:r + 1], arm_l1, one)
                else:
                    one = [part[i:i + 1] for part in noise[3:]]
                    key, atoms = "L2", l2_message_atoms(rows[r:r + 1], arm_l2, one)
                msgs.append(_message(key, tuple(atoms[0].tolist())))
            return msgs

        n = 50
        repeated = np.broadcast_to(x, (n, d))
        msgs = messages(repeated, _mix_block(spec)(np.random.default_rng(3), n))
        assert {m.arm for m in msgs} == {"L1", "L2"}
        want = np.array([decode_message(m, spec) for m in msgs])
        np.testing.assert_array_equal(sample_decoded(x, spec, 3, n), want)

        half = len(rows) // 2
        blocks = [_mix_block(spec)(np.random.default_rng(s), half) for s in (4, 5)]
        msgs = messages(rows, tuple(map(np.concatenate, zip(*blocks))))
        got, l1_arm = batch_encoder(rows, spec)([4, 5])
        np.testing.assert_array_equal(got, mean_estimate(msgs, spec))
        assert l1_arm == sum(m.arm == "L1" for m in msgs)


class TestR2:
    def test_d1_zero_symmetric(self):
        spec = l2_spec(1)
        gen = np.random.default_rng(5)
        vals = sample_decoded([0.0], spec, gen, 20000)[:, 0]
        assert abs(vals.mean()) < 5.0 * 2.0 / math.sqrt(20000)

    def test_d1_boundary_two_point(self):
        # the sphere stage gives +-2a with P(+) = 3/4; the quantizer passes the
        # sign through unchanged
        spec = l2_spec(1)
        gen = np.random.default_rng(6)
        vals = sample_decoded([1.0], spec, gen, 20000)[:, 0]
        np.testing.assert_allclose(np.abs(vals), 2.0, rtol=1e-12)
        assert abs(np.mean(vals > 0) - 0.75) < 3.0 * math.sqrt(0.75 * 0.25 / 20000)
        assert abs(vals.mean() - 1.0) < 0.05

    def test_unbiased_and_variance_bound(self, rng):
        d, a, eps0 = 4, 1.0, LN3
        spec = l2_spec(d, a, eps0)
        x = random_in_ball(rng, d, 2.0, a, scale=0.9)
        rows = sample_decoded(x, spec, rng, 200000)
        err = np.linalg.norm(rows.mean(axis=0) - x)
        bound = 6.0 * a * a * d * privacy_ratio(eps0) ** 2
        assert err < 5.0 * math.sqrt(bound / 200000)
        second_moment = float(np.mean(np.sum((rows - x) ** 2, axis=1)))
        assert second_moment <= bound * 1.02

    def test_message_shape(self, rng):
        spec = l2_spec(5)
        msg = encode_message(random_in_ball(rng, 5, 2.0, 1.0), spec, rng)
        assert isinstance(msg, SparseSigned)
        assert len(msg.pairs) == 5

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            decode_message(SparseSigned(pairs=((0, 1),)), l2_spec(3))


class TestRinf:
    def test_d2_atom_probabilities(self):
        spec = linf_spec(2)
        probs = rinf_atom_probabilities([1.0, -1.0], spec)
        assert probs[(0, 1)] == pytest.approx(3.0 / 8.0, rel=1e-12)
        assert probs[(1, 1)] == pytest.approx(1.0 / 8.0, rel=1e-12)
        mean = enumerated_mean(probs, lambda m: decode_message(m, spec))
        np.testing.assert_allclose(mean, [1.0, -1.0], rtol=1e-12)

    def test_origin_fair(self):
        probs = rinf_atom_probabilities([0.0], linf_spec(1))
        assert probs[(0, 1)] == pytest.approx(probs[(0, -1)], abs=1e-15)

    def test_decode_norm(self):
        for d in (1, 3, 8):
            spec = linf_spec(d, a=0.5, eps0=0.7)
            want = 0.5 * d * privacy_ratio(0.7)
            for j in range(d):
                got = np.linalg.norm(decode_message(IndexSign(j, -1), spec))
                assert got == pytest.approx(want, rel=1e-12)

    def test_enumerated_unbiased_random(self, rng):
        for d in (1, 2, 5, 16):
            spec = linf_spec(d, a=1.5, eps0=0.3)
            x = random_in_ball(rng, d, math.inf, 1.5)
            probs = rinf_atom_probabilities(x, spec)
            mean = enumerated_mean(probs, lambda m: decode_message(m, spec))
            np.testing.assert_allclose(mean, x, atol=1e-10)

    def test_out_of_ball_rejected(self):
        with pytest.raises(OutOfBallError):
            encode_message([1.5, 0.0], linf_spec(2), 0)


class TestMix:
    def test_arm_radii(self):
        spec = MechanismSpec(BallSpec(p=4.0, radius=2.0, dim=16), epsilon0=1.0, mix_prob=0.3)
        arm1, arm2 = rp_arm_specs(spec)
        assert arm1.ball.radius == pytest.approx(2.0 * 16 ** 0.75, rel=1e-12)
        assert arm2.ball.radius == pytest.approx(2.0 * 16 ** 0.25, rel=1e-12)

    def test_arm_specs_built_once_per_spec(self):
        # Every mix encode and decode reads the arms; an equal spec reuses them.
        spec = MechanismSpec(BallSpec(p=4.0, radius=2.0, dim=16), epsilon0=1.0, mix_prob=0.3)
        assert rp_arm_specs(spec) is rp_arm_specs(spec)
        again = MechanismSpec(BallSpec(p=4.0, radius=2.0, dim=16), epsilon0=1.0, mix_prob=0.3)
        assert rp_arm_specs(again) is rp_arm_specs(spec)

    def test_pbar_one_is_l1_arm_at_base_radius(self, rng):
        spec = MechanismSpec(BallSpec(p=1.0, radius=1.0, dim=4), epsilon0=1.0, mix_prob=1.0)
        arm1, _ = rp_arm_specs(spec)
        assert arm1.ball.radius == pytest.approx(1.0, rel=1e-15)
        for _ in range(20):
            msg = encode_message(random_in_ball(rng, 4, 1.0, 1.0), spec, rng)
            assert msg.arm == "L1"
            np.testing.assert_array_equal(decode_message(msg, spec), decode_message(msg.inner, arm1))

    def test_pbar_zero_is_l2_arm_at_base_radius(self, rng):
        spec = MechanismSpec(BallSpec(p=2.0, radius=1.0, dim=4), epsilon0=1.0, mix_prob=0.0)
        _, arm2 = rp_arm_specs(spec)
        assert arm2.ball.radius == pytest.approx(1.0, rel=1e-15)
        for _ in range(20):
            msg = encode_message(random_in_ball(rng, 4, 2.0, 1.0), spec, rng)
            assert msg.arm == "L2"

    def test_unbiased_monte_carlo(self, rng):
        spec = MechanismSpec(BallSpec(p=3.0, radius=1.0, dim=5), epsilon0=1.0, mix_prob=0.4)
        x = random_in_ball(rng, 5, 3.0, 1.0, scale=0.9)
        rows = sample_decoded(x, spec, rng, 200000)
        arm1, arm2 = rp_arm_specs(spec)
        worst = max(
            arm1.ball.radius * math.sqrt(5) * privacy_ratio(1.0),
            hemisphere_radius(5, arm2.ball.radius, 1.0) * math.sqrt(5),
        )
        err = np.linalg.norm(rows.mean(axis=0) - x)
        assert err < 5.0 * worst / math.sqrt(200000)

    def test_variance_bound_p4(self, rng):
        # l2 arm at inflated radius: second moment <= 6 a^2 max{d^{2-2/p}, d} ratio^2
        d, a, eps0 = 16, 1.0, 1.0
        spec = MechanismSpec(BallSpec(p=4.0, radius=a, dim=d), epsilon0=eps0, mix_prob=0.0)
        x = random_in_ball(rng, d, 4.0, a, scale=0.9)
        rows = sample_decoded(x, spec, rng, 300000)
        second = float(np.mean(np.sum((rows - x) ** 2, axis=1)))
        bound = 6.0 * a * a * max(d ** (2.0 - 0.5), float(d)) * privacy_ratio(eps0) ** 2
        assert second <= bound * 1.02

    def test_requires_finite_p(self):
        with pytest.raises(ValidationError):
            MechanismSpec(BallSpec(p=math.inf, radius=1.0, dim=2), epsilon0=1.0, mix_prob=0.5)

    def test_family_dispatch(self):
        spec = MechanismSpec(BallSpec(p=1.5, radius=1.0, dim=2), epsilon0=1.0, mix_prob=0.5)
        assert mechanism_family(spec) == "mix"
        with pytest.raises(ValidationError):
            mechanism_family(MechanismSpec(BallSpec(p=1.5, radius=1.0, dim=2), epsilon0=1.0))


class TestDecodeEnvelopes:
    """Worst-case decode norms per family, plus the coarse common envelope."""

    def test_l1_family(self):
        spec = l1_spec(8, a=1.0, eps0=1.0)
        want = math.sqrt(8) * privacy_ratio(1.0)
        for j in range(8):
            assert np.linalg.norm(decode_message(IndexSign(j, 1), spec)) == pytest.approx(want)

    def test_all_families_within_coarse_envelope(self, rng):
        d, a, eps0 = 6, 1.0, 0.8
        coarse = 2.0 * a * d * privacy_ratio(eps0)
        specs = [
            l1_spec(d, a, eps0),
            l2_spec(d, a, eps0),
            linf_spec(d, a, eps0),
            MechanismSpec(BallSpec(p=3.0, radius=a, dim=d), epsilon0=eps0, mix_prob=0.5),
        ]
        for spec in specs:
            x = random_in_ball(rng, d, spec.ball.p, a, scale=0.9)
            for _ in range(50):
                msg = encode_message(x, spec, rng)
                assert np.linalg.norm(decode_message(msg, spec)) <= coarse


class TestMeanEstimate:
    def test_single_message_is_decode(self, rng):
        spec = l1_spec(4)
        x = random_in_ball(rng, 4, 1.0, 1.0)
        msg = encode_message(x, spec, rng)
        np.testing.assert_array_equal(mean_estimate([msg], spec), decode_message(msg, spec))

    def test_zero_dataset_concentrates(self):
        spec = l1_spec(4)
        gen = np.random.default_rng(9)
        msgs = [encode_message(np.zeros(4), spec, gen) for _ in range(4000)]
        est = mean_estimate(msgs, spec)
        scale = math.sqrt(4) * privacy_ratio(LN3)
        assert np.linalg.norm(est) < 5.0 * scale / math.sqrt(4000)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_estimate([], l1_spec(2))

    @pytest.mark.parametrize("family", ["l1", "l2", "linf", "mix"])
    def test_counts_decoder_matches_reference(self, family, rng):
        spec = FAMILY_SPECS[family]
        d = spec.ball.dim
        msgs = [
            encode_message(random_in_ball(rng, d, spec.ball.p, spec.ball.radius), spec, rng)
            for _ in range(60)
        ]
        zero = SparseSigned(pairs=((0, 1),) * d, is_zero=True)
        if family == "l2":
            msgs.append(zero)
        if family == "mix":
            msgs.append(MixTagged("L2", zero))
            assert {m.arm for m in msgs} == {"L1", "L2"}
        want = sum(reference_decode(m, spec) for m in msgs) / len(msgs)
        np.testing.assert_allclose(mean_estimate(msgs, spec), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", ["l1", "l2", "linf", "mix"])
    def test_batch_encoder_streams_are_single_encodes(self, family, rng):
        # One row per stream draws exactly what encode_message draws on that
        # stream, and the one counts decode equals the decode of those messages.
        # The streams may come as any iterable, here a generator.
        spec = FAMILY_SPECS[family]
        d = spec.ball.dim
        rows = np.array([random_in_ball(rng, d, spec.ball.p, spec.ball.radius) for _ in range(12)])
        mean, l1_arm = batch_encoder(rows, spec)(np.random.default_rng(i) for i in range(12))
        msgs = [encode_message(row, spec, np.random.default_rng(i)) for i, row in enumerate(rows)]
        np.testing.assert_array_equal(mean, mean_estimate(msgs, spec))
        assert l1_arm == sum(getattr(m, "arm", None) == "L1" for m in msgs)
        if family == "mix":
            assert 0 < l1_arm < 12

    def test_raw_vector_roundtrip(self):
        spec = l1_spec(3)
        v = RawVector(values=(0.1, 0.2, 0.3))
        np.testing.assert_array_equal(decode_message(v, spec), [0.1, 0.2, 0.3])
        with pytest.raises(ValidationError):
            decode_message(RawVector(values=(0.1,)), spec)


class TestAtomsAndDrawOrder:
    """The atom format and the documented draw order, each in one place."""

    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    def test_noise_is_the_documented_draw_sequence(self, family):
        spec = FAMILY_SPECS[family]
        d, n = spec.ball.dim, 9
        gen, ref = np.random.default_rng(3), np.random.default_rng(3)
        got = _FAMILIES[family].noise(gen, n, spec)

        def index(k, dim):  # indices, then sign uniforms
            return [ref.integers(dim, size=k), ref.random(k)]

        def l2(k):  # _priv_rows: direction, side, Gaussian; _quan_atoms: sign flip, coordinates
            return [ref.random(k), ref.random(k), ref.standard_normal((k, d)),
                    ref.random(k), ref.random((k, d))]

        if family == "mix":
            arm = ref.random(n) < spec.mix_prob
            assert 0 < arm.sum() < n
            want = [arm] + index(int(arm.sum()), padded_dim(d)) + l2(n - int(arm.sum()))
        else:
            want = l2(n) if family == "l2" else index(n, message_code(family, d)[1])
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert gen.random() == ref.random()  # nothing else was drawn

    @pytest.mark.parametrize("d", [1, 20, 128])
    @pytest.mark.parametrize("n", [0, 1, 3, 300])
    def test_l2_noise_three_draws_are_the_five_sized_calls(self, n, d):
        # _l2_noise draws its five components in three calls; they must read
        # the bits of the five sized calls, with their shapes and dtypes, and
        # leave the stream at the same place.
        gen, ref = np.random.default_rng(n * 1000 + d), np.random.default_rng(n * 1000 + d)
        got = _l2_noise(gen, n, d)
        want = (ref.random(n), ref.random(n), ref.standard_normal((n, d)),
                ref.random(n), ref.random((n, d)))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 2, 3, 1024, 2**20])
    def test_one_row_index_noise_is_the_sized_draw(self, dim):
        # One row draws its index and uniform as scalars; they must read the
        # bits the sized calls read and leave the stream at the same place.
        # Their dtypes are pinned where they become arrays (next test).
        for seed in range(1000):
            gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            j, u = _index_noise(gen, 1, dim)
            want_j, want_u = ref.integers(dim, size=1), ref.random(1)
            assert np.ndim(j) == 0 and np.ndim(u) == 0
            np.testing.assert_array_equal(j, want_j)
            np.testing.assert_array_equal(u, want_u)
            assert gen.random() == ref.random(), seed

    @pytest.mark.parametrize("family, size", [("l1", 1), ("linf", 1), ("mix", 1), ("mix", 2)])
    def test_one_row_blocks_gather_to_the_sized_draws(self, family, size, monkeypatch):
        # The batch encoder gathers k streams' one-row index draws into one
        # index and one uniform array, which must equal the concatenated
        # integers(dim, size=1) and random(1) draws, dtype included. A mix
        # stream whose block has exactly one l1-arm row (at s = 1 and s = 2)
        # gathers its own scalars into arrays before the concatenation.
        spec, fam, k = FAMILY_SPECS[family], _FAMILIES[family], 40
        d, seen = spec.ball.dim, []

        def draw(rows, spec, noise):
            seen.append(noise)
            return fam.draw(rows, spec, noise)

        monkeypatch.setitem(_FAMILIES, family, fam._replace(draw=draw))
        batch_encoder(np.zeros((k * size, d)), spec)(np.random.default_rng([7, i]) for i in range(k))
        dim = message_code("L1" if family == "mix" else family, d)[1]
        want_j, want_u, n_l1 = [], [], []
        for i in range(k):
            ref = np.random.default_rng([7, i])
            n = size
            if family == "mix":
                n = int(np.count_nonzero(ref.random(size) < spec.mix_prob))
                n_l1.append(n)
            want_j.append(ref.integers(dim, size=n))
            want_u.append(ref.random(n))
        want_j, want_u = np.concatenate(want_j), np.concatenate(want_u)
        j, u = seen[0][1:3] if family == "mix" else seen[0]
        assert j.dtype == want_j.dtype and u.dtype == want_u.dtype
        np.testing.assert_array_equal(j, want_j)
        np.testing.assert_array_equal(u, want_u)
        if family == "mix":
            assert 1 in n_l1 and 0 in n_l1

    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    @pytest.mark.parametrize("d", [1, 3, 1000, 1024])
    def test_one_message_is_the_batch_draw(self, family, d):
        # encode_message draws one row in Python scalars. Each row's message
        # must be what the array draw makes of the same noise: every row's
        # noise drawn from its own stream and concatenated, as batch_encoder
        # does, then one draw over all rows. Zero, boundary (a signed basis
        # vector and a dense row at the radius) and random rows; l1 pads
        # d = 3 and 1000 and not 1 and 1024. At eps0 = 4 the plus-probabilities
        # spread over [0.02, 0.98], so a wrong entry flips signs.
        base = FAMILY_SPECS[family]
        spec = MechanismSpec(BallSpec(base.ball.p, base.ball.radius, d), 4.0, base.mix_prob)
        p, a, fam = spec.ball.p, spec.ball.radius, _FAMILIES[family]
        gen = np.random.default_rng(d)
        e, g = np.zeros(d), gen.standard_normal(d)
        e[d // 2] = a
        rows = [np.zeros(d), e, -e, g * (a / np.linalg.norm(g, ord=p))]
        rows += [random_in_ball(gen, d, p, a) for _ in range(16)]
        streams = [np.random.default_rng([d, i]) for i in range(len(rows))]
        msgs = [encode_message(x, spec, stream) for x, stream in zip(rows, streams)]
        refs = [np.random.default_rng([d, i]) for i in range(len(rows))]
        noise = tuple(map(np.concatenate, zip(*(fam.noise(ref, 1, spec) for ref in refs))))
        draws = fam.draw(np.array(rows), spec, noise)
        assert [s.random() for s in streams] == [r.random() for r in refs]  # same bits read
        want = _sums(family, draws, spec, per_row=True)
        np.testing.assert_array_equal(np.array([decode_message(m, spec) for m in msgs]), want)
        if family == "mix":
            assert [m.arm == "L1" for m in msgs] == draws[0].tolist()
            assert 0 < np.count_nonzero(draws[0]) < len(rows)
            assert [m.inner.atoms for m in msgs if m.arm == "L1"] == list(map(tuple, draws[1].tolist()))
        elif family != "l2":
            assert [m.atoms for m in msgs] == list(map(tuple, draws.tolist()))

    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    def test_encode_message_rejects_malformed_rows(self, family):
        # The one-message path keeps the input check of every entry point:
        # NaN and infinite rows, 2-D and wrong-length input, out-of-ball rows.
        spec = FAMILY_SPECS[family]
        d, a = spec.ball.dim, spec.ball.radius
        inf_row = np.zeros(d)
        inf_row[1] = -np.inf
        for bad in (np.full(d, np.nan), inf_row, np.zeros((1, d)), np.zeros((2, d)), np.zeros(d + 1)):
            with pytest.raises(ValidationError):
                encode_message(bad, spec, 0)
        with pytest.raises(OutOfBallError):
            encode_message(np.full(d, 2.0 * a), spec, 0)

    def test_messages_round_trip_through_their_atoms(self):
        msgs = {
            "l1": IndexSign(j=3, sign=-1),
            "linf": IndexSign(j=0, sign=1),
            "l2": SparseSigned(pairs=((2, 1), (0, -1), (2, 1))),
            "L1": MixTagged("L1", IndexSign(j=1, sign=1)),
            "L2": MixTagged("L2", SparseSigned(pairs=((1, -1), (4, 1)))),
        }
        for key, msg in msgs.items():
            atoms = getattr(msg, "inner", msg).atoms
            assert _message(key, atoms) == msg
        assert msgs["l1"].atoms == (6,) and msgs["l2"].atoms == (5, 0, 5)
        assert SparseSigned(pairs=((0, 1),) * 3, is_zero=True).atoms == ()
        assert message_code("l1", 5) == (IndexSign, 8, 1)
        assert message_code("L2", 5) == (SparseSigned, 5, 5)
        with pytest.raises(ValidationError):
            message_code("mix", 5)

    def test_messages_from_atoms_set_every_field(self):
        # Messages built from atoms skip the constructor, so each must carry
        # exactly the fields, compared or not, that the constructor sets.
        for key, msg in (
            ("l1", IndexSign(j=3, sign=-1)),
            ("linf", IndexSign(j=0, sign=1)),
            ("l2", SparseSigned(pairs=((2, 1), (0, -1), (2, 1)))),
        ):
            assert vars(_message(key, msg.atoms)) == vars(msg)
        built = _message("L2", (3, 8))
        assert vars(built.inner) == vars(SparseSigned(pairs=((1, 1), (4, -1))))

    def test_index_family_atoms_are_frozen(self):
        # The l1, linf and mix messages of 200 seeded encodes per dimension,
        # hashed. The digest comes from draws that rotate whole rows and read
        # full plus matrices, so it pins the one-entry draws to the same atoms.
        digest = hashlib.sha256()
        for d in (1, 3, 64, 1000):
            gen = np.random.default_rng(d)
            for p, mix_prob in ((1.0, None), (math.inf, None), (1.5, 0.5)):
                spec = MechanismSpec(BallSpec(p, 1.0, d), 0.8, mix_prob=mix_prob)
                for seed in range(200):
                    x = random_in_ball(gen, d, p, 1.0)
                    digest.update(repr(encode_message(x, spec, seed)).encode())
        assert digest.hexdigest() == "0356961371eee8ddd80c9e4a08091317d5540ab6e4cbb9f5e033e2251b788e52"

    def test_index_family_repeated_draws_are_frozen(self):
        # The l1 and linf outputs of the entry points that draw rows
        # repeatedly (sample_decoded, mean_estimate_trials with three trials)
        # and once (one trial), hashed; d = 3 and 1000 pad the l1 rotation.
        digest = hashlib.sha256()
        for d in (1, 3, 64, 1000):
            gen = np.random.default_rng(d)
            for p in (1.0, math.inf):
                spec = MechanismSpec(BallSpec(p, 1.0, d), 0.8)
                rows = np.array([random_in_ball(gen, d, p, 1.0) for _ in range(30)])
                outs = (
                    sample_decoded(rows[0], spec, 21, 40),
                    mean_estimate_trials(rows, spec, 22, 3),
                    mean_estimate_trials(rows, spec, 23, 1),
                )
                for out in outs:
                    digest.update(np.ascontiguousarray(out).tobytes())
        assert digest.hexdigest() == "466144d477c943215309525d184facd328eb5ac136021659deb9ef999be5f48f"

    def test_l2_atoms_are_frozen(self):
        # The l2 and mix outputs of every entry point that draws a batch, and
        # the quantizer's atoms on rows with zero and -0.0 coordinates (tied
        # cdf entries), hashed. The digest comes from the complex-keyed search.
        digest = hashlib.sha256()
        for d in (1, 2, 3, 20, 128, 1000):
            for n in (1, 2, 20, 1000):
                gen = np.random.default_rng([d, n])
                for p, mix_prob in ((2.0, None), (1.5, 0.5)):
                    spec = MechanismSpec(BallSpec(p, 1.0, d), 0.8, mix_prob=mix_prob)
                    rows = np.array([random_in_ball(gen, d, p, 1.0) for _ in range(n)])
                    rows[gen.random((n, d)) < 0.3] = 0.0
                    rows[gen.random((n, d)) < 0.2] = -0.0
                    rows[0] = -0.0
                    streams = [11, 12] if n % 2 == 0 else [11]
                    outs = (
                        batch_encoder(rows, spec)(streams)[0],
                        mean_estimate_trials(rows, spec, 13, 1),
                        mean_estimate_trials(rows, spec, 14, 3),
                        sample_decoded(rows[-1], spec, 15, n),
                    )
                    for out in outs:
                        digest.update(np.ascontiguousarray(out).tobytes())
                    digest.update(repr(encode_message(rows[-1], spec, 16)).encode())
                x = gen.standard_normal((n, d)) * (gen.random((n, d)) < 0.6)
                x[gen.random((n, d)) < 0.2] = -0.0
                x[:, 0] = np.where(gen.random(n) < 0.5, 1.0, -1.0)
                x /= np.linalg.norm(x, axis=1)[:, None]
                u_flip, u = gen.random(n), gen.random((n, d))
                for i in range(n):  # the rows' atoms in order hash as the (n, d) array's
                    atoms = _quan_atoms(x[i:i + 1], 1.0, (u_flip[i:i + 1], u[i:i + 1]))
                    digest.update(atoms.astype(np.int64).tobytes())
        assert digest.hexdigest() == "ef95474b99ef1f9b948ad29eb198435d08df540152eaa998ad19287d1b266444"


class TestVectorizedSamplers:
    def test_sample_decoded_unbiased_all_families(self, rng):
        d, a = 4, 1.0
        specs = [
            l1_spec(d, a, 1.0),
            l2_spec(d, a, 1.0),
            linf_spec(d, a, 1.0),
            MechanismSpec(BallSpec(p=3.0, radius=a, dim=d), epsilon0=1.0, mix_prob=0.5),
        ]
        for spec in specs:
            x = random_in_ball(rng, d, spec.ball.p, a, scale=0.8)
            rows = sample_decoded(x, spec, rng, 100000)
            envelope = 2.0 * a * d * privacy_ratio(1.0)
            err = np.linalg.norm(rows.mean(axis=0) - x)
            assert err < 5.0 * envelope / math.sqrt(100000), mechanism_family(spec)

    def test_trials_match_direct_estimates(self, rng):
        # the batched trial path must agree in distribution with per-message encodes
        spec = l1_spec(3, a=1.0, eps0=1.0)
        data = np.array([random_in_ball(rng, 3, 1.0, 1.0) for _ in range(20)])
        trials = mean_estimate_trials(data, spec, rng, 400)
        assert trials.shape == (400, 3)
        direct = np.array(
            [
                mean_estimate([encode_message(row, spec, rng) for row in data], spec)
                for _ in range(400)
            ]
        )
        mse_fast = np.mean(np.sum((trials - data.mean(axis=0)) ** 2, axis=1))
        mse_slow = np.mean(np.sum((direct - data.mean(axis=0)) ** 2, axis=1))
        assert mse_fast == pytest.approx(mse_slow, rel=0.25)

    @pytest.mark.parametrize("p, mix_prob", [(1.0, None), (1.5, 0.5)], ids=["l1", "mix"])
    @pytest.mark.parametrize("d", [3, 64])
    def test_single_and_repeated_trials_draw_the_same_bits(self, p, mix_prob, d):
        # Three trials on one stream draw the same bits as three one-trial
        # calls on it, in turn. At eps0 = 4 the plus-probabilities spread over
        # [0.02, 0.98], so a wrong entry flips signs.
        spec = MechanismSpec(BallSpec(p, 1.0, d), 4.0, mix_prob=mix_prob)
        gen = np.random.default_rng(d)
        data = np.array([random_in_ball(gen, d, p, 1.0) for _ in range(1000)])
        repeated = mean_estimate_trials(data, spec, 11, 3)
        stream = np.random.default_rng(11)
        once = [mean_estimate_trials(data, spec, stream, 1)[0] for _ in range(3)]
        np.testing.assert_array_equal(np.vstack(once).view(np.int64), repeated.view(np.int64))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_trials_reject_out_of_ball_and_non_finite_rows(self, p):
        spec = MechanismSpec(BallSpec(p=p, radius=1.0, dim=3), epsilon0=1.0)
        with pytest.raises(OutOfBallError):
            mean_estimate_trials(np.full((4, 3), 5.0), spec, 0, 2)
        for value in (np.nan, -np.inf):
            bad = np.zeros((4, 3))
            bad[2, 1] = value
            with pytest.raises(ValidationError, match="finite"):
                mean_estimate_trials(bad, spec, 0, 2)
        with pytest.raises(ValidationError, match="finite"):
            mean_estimate_trials(np.full((4, 3), np.inf), spec, 0, 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: encode_message(["a", "b", "c"], spec, 0),
            lambda spec: sample_decoded(np.zeros(3), spec, 0, 2.5),
            lambda spec: sample_decoded(np.zeros(3), spec, 0, "3"),
            lambda spec: mean_estimate_trials(np.zeros((4, 3)), spec, 0, 2.5),
            lambda spec: MechanismSpec(spec.ball, epsilon0="1"),
            lambda spec: MechanismSpec(spec.ball, epsilon0=1.0, mix_prob="0.5"),
            lambda spec: mean_estimate(5, spec),
            lambda spec: batch_encoder(np.zeros((4, 3)), spec)(5),
            lambda spec: batch_encoder(np.zeros((4, 3)), spec)(None),
            lambda spec: batch_encoder(np.zeros((4, 3)), spec)(iter([])),
            lambda spec: batch_encoder(np.zeros((4, 3)), spec)(iter([1, 2, 3])),
        ],
        ids=["string_rows", "float_samples", "string_samples", "float_trials",
             "string_epsilon0", "string_mix_prob", "int_messages", "int_streams",
             "none_streams", "empty_stream_iterator", "uneven_stream_iterator"],
    )
    def test_entry_points_reject_malformed_arguments(self, call):
        with pytest.raises(ValidationError):
            call(MechanismSpec(BallSpec(p=2.0, radius=1.0, dim=3), epsilon0=1.0))

    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    @pytest.mark.parametrize(
        "call",
        [
            lambda x, spec, rng: encode_message(x, spec, rng),
            lambda x, spec, rng: sample_decoded(x, spec, rng, 3),
            lambda x, spec, rng: mean_estimate_trials(np.array([x, x]), spec, rng, 2),
            lambda x, spec, rng: batch_encoder(np.array([x, x]), spec)([0, rng]),
        ],
        ids=["encode_message", "sample_decoded", "mean_estimate_trials", "batch_encoder"],
    )
    def test_entry_points_reject_malformed_rng(self, call, family):
        spec = FAMILY_SPECS[family]
        x = np.zeros(spec.ball.dim)
        call(x, spec, None)
        for rng in ("abc", 1.5, -1):
            with pytest.raises(ValidationError):
                call(x, spec, rng)

    def test_l2_trial_memory_linear_in_n_d(self):
        n, d = 4000, 128
        gen = np.random.default_rng(5)
        data = gen.standard_normal((n, d))
        data *= 0.9 / np.linalg.norm(data, axis=1)[:, None]
        spec = l2_spec(d, eps0=1.0)
        tracemalloc.start()
        try:
            mean_estimate_trials(data, spec, gen, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n * d * 8

    def test_sample_decoded_working_memory_bounded(self):
        # Beyond its (n, d) result, sample_decoded needs the same memory for
        # 2**17 and for 2**18 rows.
        d = 8
        spec = l2_spec(d, eps0=1.0)
        x = np.full(d, 0.9 / math.sqrt(d))
        extra = []
        for n in (1 << 17, 1 << 18):
            tracemalloc.start()
            try:
                out = sample_decoded(x, spec, 0, n)
                extra.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[1] <= 1.25 * extra[0]


class TestSpecValidation:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 1.5])
    def test_largest_norm_is_the_formula(self, p):
        # Rows scaled onto the 1 + EXACT_TOL boundary and just past it, zero and
        # -0.0 rows: equal bit for bit to the plain formula over |x|.
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
        for block in (rows, rows[::2], rows[3:4], rows[5:6], rows[:1], rows[1:2]):
            want = np.float64(formula(block).max())
            got = np.float64(_largest_norm(block, p))
            assert got.view(np.int64) == want.view(np.int64)
            ball = BallSpec(p, 1.0, 9)
            if want <= 1.0 + EXACT_TOL:
                assert _require_rows(block, ball, 2) is not None
            else:
                with pytest.raises(OutOfBallError, match=f"norm {want:.6g} exceeds"):
                    _require_rows(block, ball, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_l2_stage_radius_has_a_finite_square(self):
        # The l2 stage squares norms up to its radius times 1 + EXACT_TOL:
        # past about 1.34e154 that square overflows, so the spec is refused,
        # for the l2 family and for the mix's l2 arm at a*max(d^(1/2-1/p), 1).
        # Just below the cap an l2 point encodes; the index families never
        # square a norm and are unaffected.
        refused = [
            (BallSpec(2.0, 1e200, 2), None),
            (BallSpec(2.0, 1.35e154, 2), None),
            (BallSpec(1.5, 1e200, 4), 0.5),
            (BallSpec(4.0, 1e154, 1000), 0.5),  # l2 arm radius 1e154 * 1000**0.25
        ]
        for ball, mix_prob in refused:
            with pytest.raises(ValidationError, match="square overflows"):
                MechanismSpec(ball, 1.0, mix_prob=mix_prob)
        spec = l2_spec(2, a=1.3e154)
        msg = encode_message(np.array([0.6, 0.8]) * 1.3e154, spec, 0)
        assert np.isfinite(decode_message(msg, spec)).all()
        for spec in (l1_spec(2, a=1e200), linf_spec(2, a=1e200)):
            msg = encode_message([3e199, 4e199], spec, 0)
            assert np.isfinite(decode_message(msg, spec)).all()
            assert np.isfinite(mean_estimate_trials(np.array([[3e199, 4e199]]), spec, 0, 2)).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            encode_message([0.1, 0.2], l1_spec(3), 0)

    def test_padded_dim(self):
        assert [padded_dim(d) for d in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]

    def test_epsilon0_must_be_finite(self):
        with pytest.raises(ValidationError):
            MechanismSpec(BallSpec(p=1.0, radius=1.0, dim=2), epsilon0=math.inf)


class TestTwoThreads:
    """Large passes split their row blocks over the caller and one worker
    thread (``linalg.row_blocks``); the draws and errors are the inline ones."""

    # (spec, rows below every split threshold, rows above the threshold):
    # the input check and the l1 path split past 2**17 entries, an l2 draw
    # past one block of 2**15.
    CASES = {
        "l1": (l1_spec(128, eps0=0.8), 1000, 2500),
        "linf": (linf_spec(128, eps0=0.8), 1000, 2500),
        "l2": (l2_spec(64, eps0=0.8), 500, 2500),
        "mix": (MechanismSpec(BallSpec(1.5, 1.0, 64), 0.8, mix_prob=0.5), 500, 5000),
    }

    @staticmethod
    def dataset(spec, n):
        gen = np.random.default_rng(n)
        rows = gen.standard_normal((n, spec.ball.dim))
        return rows * (gen.random(n) / row_norms(rows, spec.ball.p))[:, None]

    @staticmethod
    def outputs(X, spec):
        mean, l1_arm = batch_encoder(X, spec)([np.random.default_rng(s) for s in range(5)])
        return (mean.tobytes(), l1_arm, mean_estimate_trials(X, spec, 7, 2).tobytes(),
                sample_decoded(X[0], spec, 9, len(X)).tobytes())

    @pytest.mark.parametrize("family", CASES)
    def test_outputs_are_the_inline_ones(self, monkeypatch, family):
        spec, small, large = self.CASES[family]
        splits = []

        def spare():
            pool = spare_thread()
            splits.append(pool is not None)
            return pool

        spare_thread = linalg._spare_thread
        monkeypatch.setattr(linalg, "_spare_thread", spare)
        for n in (small, large):
            X = self.dataset(spec, n)
            splits.clear()
            threaded = self.outputs(X, spec)
            assert any(splits) == (n == large and len(os.sched_getaffinity(0)) > 1)
            with monkeypatch.context() as inline:
                inline.setattr(linalg, "_THREADS", 1)
                assert self.outputs(X, spec) == threaded

    @pytest.mark.parametrize("family", CASES)
    def test_errors_in_the_workers_half_are_the_inline_ones(self, monkeypatch, family):
        spec, _, large = self.CASES[family]
        for bad in (math.nan, math.inf, 2.0):
            X = self.dataset(spec, large)
            if bad == 2.0:  # out of the ball: norm 2
                X[-1] *= 2.0 / row_norms(X[-1:], spec.ball.p)[0]
            else:
                X[-1, 3] = bad
            errors = []
            for threads in (2, 1):
                monkeypatch.setattr(linalg, "_THREADS", threads)
                for call in (lambda: batch_encoder(X, spec),
                             lambda: mean_estimate_trials(X, spec, 0, 1)):
                    with pytest.raises((ValidationError, OutOfBallError)) as err:
                        call()
                    errors.append((type(err.value), str(err.value)))
            assert len(set(errors)) == 1
            assert (errors[0][0] is OutOfBallError) == (bad == 2.0)

    def test_small_passes_start_no_thread_and_a_forked_child_starts_its_own(self):
        # In a fresh interpreter: one-row messages and (1000, 32) rounds import
        # no executor and start no thread; a large pass starts one; a child
        # forked after that finishes a large pass on its own worker (the
        # parent's executor has no thread there). SIGALRM ends a child that hangs.
        script = textwrap.dedent("""
            import math, os, signal, sys, threading
            import numpy as np
            from cldp import BallSpec, MechanismSpec
            from cldp.mechanisms import batch_encoder, encode_message, mean_estimate_trials

            before = threading.active_count()
            for p in (1.0, 2.0, math.inf):
                encode_message(np.full(32, 0.01), MechanismSpec(BallSpec(p, 1.0, 32), 1.0), 0)
            for p in (1.0, 2.0, math.inf):
                spec = MechanismSpec(BallSpec(p, 1.0, 32), 0.4)
                batch_encoder(np.full((1000, 32), 0.01), spec)([np.random.default_rng(0)])
            assert threading.active_count() == before, "a small pass started a thread"
            assert "concurrent.futures" not in sys.modules

            X = np.full((4000, 128), 0.001)
            want = mean_estimate_trials(X, MechanismSpec(BallSpec(1.0, 1.0, 128), 0.4), 3, 1)
            two = len(os.sched_getaffinity(0)) > 1
            assert threading.active_count() == before + two
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                got = mean_estimate_trials(X, MechanismSpec(BallSpec(1.0, 1.0, 128), 0.4), 3, 1)
                os._exit(0 if got.tobytes() == want.tobytes() else 3)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            assert status == 0, f"the forked child exited with {status}"
            print("ok")
        """)
        src = os.path.dirname(os.path.dirname(cldp.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr
