"""Privacy accountant: pinned values, oracle agreement, and monotonicity.

Every closed-form stage is compared against the straight-line reference
implementation in ``oracle_accountant.py``, which shares no code with the
package. Pinned constants were evaluated independently before freezing.
"""

import ast
import itertools
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cldp
from cldp import accountant
from cldp.accountant import (
    DEFAULT_VARIANT,
    VARIANTS,
    ClonesShuffling,
    ExplicitShuffling,
    PrivacyBudget,
    SamplingParams,
    amplify_by_shuffling,
    amplify_by_subsampling,
    budget_and_schedule,
    calibrate_epsilon0,
    end_to_end,
    get_variant,
    max_feasible_epsilon0,
    strong_composition,
)
from cldp.errors import (
    AmplificationWarning,
    InfeasibleError,
    PreconditionError,
    ValidationError,
)

from oracle_accountant import (
    oracle_end_to_end,
    oracle_shuffle,
    oracle_strong_composition,
    oracle_subsample,
)

EXPLICIT = ExplicitShuffling()
CLONES = ClonesShuffling()
DEPLOY = SamplingParams(m=5_000, k=1_000, r=4, s=1)  # the train_deploy benchmark's sampling


def assert_matches_oracle(budget, want, rel):
    """Each stage's (epsilon, delta), in chain order, and the central pair
    against ``oracle_end_to_end``'s stage pairs, whose last is the central one."""
    got = [(stage.epsilon, stage.delta) for stage in budget.stages]
    assert len(got) == len(want)
    for pair, oracle_pair in zip([*got, (budget.epsilon, budget.delta)], [*want, want[-1]]):
        assert pair == pytest.approx(oracle_pair, rel=rel)


class TestSamplingParams:
    def test_rates(self):
        params = SamplingParams(m=100, k=20, r=10, s=2)
        assert params.q1 == pytest.approx(0.2, rel=1e-15)
        assert params.q2 == pytest.approx(0.2, rel=1e-15)
        assert params.q == pytest.approx(0.04, rel=1e-15)
        assert params.n == 1000
        assert params.batch == 40

    def test_full_participation(self):
        params = SamplingParams(m=5, k=5, r=1, s=1)
        assert params.q == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=10, k=0, r=5, s=1),
            dict(m=10, k=11, r=5, s=1),
            dict(m=10, k=5, r=5, s=0),
            dict(m=10, k=5, r=5, s=6),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValidationError):
            SamplingParams(**kwargs)

    def test_fields_are_plain_ints(self):
        params = SamplingParams(m=np.int64(50), k=np.int32(10), r=4, s=1)
        assert (params.m, params.k) == (50, 10)
        assert type(params.m) is int and type(params.k) is int


# Each call hands one entry point one malformed argument: a string, None, a
# bool or a non-integral count. Each must raise ValidationError, not a
# TypeError and not a silent reading (T=True ran as T = 1).
MALFORMED = {
    "params_m_str": lambda: SamplingParams(m="5", k=1, r=1, s=1),
    "params_m_none": lambda: SamplingParams(m=None, k=1, r=1, s=1),
    "params_m_fractional": lambda: SamplingParams(m=5.5, k=1, r=1, s=1),
    "params_m_integral_float": lambda: SamplingParams(m=5.0, k=1, r=1, s=1),
    "params_m_bool": lambda: SamplingParams(m=True, k=1, r=1, s=1),
    "params_s_bool": lambda: SamplingParams(m=5, k=1, r=1, s=True),
    "shuffle_eps0_str": lambda: amplify_by_shuffling("0.3", 1e-6, 2_000, EXPLICIT),
    "shuffle_eps0_bool": lambda: amplify_by_shuffling(True, 1e-6, 2_000, CLONES),
    "shuffle_m_eff_str": lambda: amplify_by_shuffling(0.3, 1e-6, "2000", EXPLICIT),
    "shuffle_m_eff_fractional": lambda: amplify_by_shuffling(0.3, 1e-6, 2_000.5, EXPLICIT),
    "shuffle_delta_str": lambda: amplify_by_shuffling(0.3, "1e-6", 2_000, EXPLICIT),
    "subsample_eps_str": lambda: amplify_by_subsampling("0.3", 1e-6, 0.5),
    "subsample_q_none": lambda: amplify_by_subsampling(0.3, 1e-6, None),
    "compose_eps_bar_str": lambda: strong_composition("0.1", 1e-9, 10, 1e-7),
    "compose_T_bool": lambda: strong_composition(0.1, 1e-9, True, 1e-7),
    "compose_delta_prime_none": lambda: strong_composition(0.1, 1e-9, 10, None),
    "e2e_eps0_str": lambda: end_to_end("0.3", 1e-6, 10, DEPLOY),
    "e2e_delta_str": lambda: end_to_end(0.3, "1e-6", 10, DEPLOY),
    "e2e_T_bool": lambda: end_to_end(0.3, 1e-6, True, DEPLOY),
    "e2e_T_str": lambda: end_to_end(0.3, 1e-6, "10", DEPLOY),
    "e2e_params_tuple": lambda: end_to_end(0.3, 1e-6, 10, (5_000, 1_000, 4, 1)),
    "max_feasible_T_bool": lambda: max_feasible_epsilon0(1e-6, True, DEPLOY, CLONES),
    "max_feasible_delta_none": lambda: max_feasible_epsilon0(None, 10, DEPLOY, CLONES),
    "calibrate_target_str": lambda: calibrate_epsilon0("1", 1e-6, 10, DEPLOY),
    "calibrate_target_bool": lambda: calibrate_epsilon0(True, 1e-6, 10, DEPLOY),
}


@pytest.mark.parametrize("call", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


class TestSubsampling:
    def test_identity_at_q_one(self):
        eps, delta = amplify_by_subsampling(0.7, 1e-6, 1.0)
        assert eps == pytest.approx(0.7, rel=1e-15)
        assert delta == pytest.approx(1e-6, rel=1e-15)

    def test_pinned_half_rate(self):
        eps, delta = amplify_by_subsampling(math.log(2.0), 1e-6, 0.5)
        assert eps == pytest.approx(math.log(1.5), rel=1e-14)
        assert eps == pytest.approx(0.405465, abs=1e-6)
        assert delta == pytest.approx(5e-7, rel=1e-15)

    def test_first_order_small_eps(self):
        # eps' -> q*eps as eps -> 0.
        for q in (0.01, 0.3, 0.9):
            eps, _ = amplify_by_subsampling(1e-6, 1e-9, q)
            assert eps == pytest.approx(q * 1e-6, rel=1e-5)

    def test_matches_oracle(self):
        for eps in (0.0, 0.05, 0.5, 2.0, 5.0):
            for q in (0.001, 0.25, 1.0):
                got = amplify_by_subsampling(eps, 1e-7, q)
                want = oracle_subsample(eps, 1e-7, q)
                assert got[0] == pytest.approx(want[0], rel=1e-14, abs=1e-300)
                assert got[1] == pytest.approx(want[1], rel=1e-14)

    def test_eps_whose_exponential_overflows(self):
        # e^eps overflows float64 above ln(float max), about 709.78; the rate
        # then enters through eps + ln(q + (1 - q) e^-eps).
        assert amplify_by_subsampling(1000.0, 0.0, 0.5) == (1000.0 + math.log(0.5), 0.0)
        assert amplify_by_subsampling(1e308, 0.0, 1e-300) == (1e308, 0.0)
        assert amplify_by_subsampling(math.inf, 1e-6, 0.5) == (math.inf, 5e-7)
        # Both forms meet at the switch, ln(float max).
        top = math.log(sys.float_info.max)
        below = amplify_by_subsampling(top, 0.0, 0.25)[0]
        above = amplify_by_subsampling(math.nextafter(top, math.inf), 0.0, 0.25)[0]
        assert below == pytest.approx(top + math.log(0.25), rel=1e-15)
        assert above == pytest.approx(below, rel=1e-15)

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_rejects_bad_rate(self, q):
        with pytest.raises(ValidationError):
            amplify_by_subsampling(0.5, 1e-6, q)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValidationError):
            amplify_by_subsampling(-0.1, 1e-6, 0.5)

    @given(
        eps=st.floats(min_value=0.0, max_value=8.0),
        q=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_never_hurts_and_monotone(self, eps, q):
        amplified, _ = amplify_by_subsampling(eps, 1e-6, q)
        assert amplified <= eps + 1e-15
        # Monotone in q: a larger sampling rate amplifies less.
        weaker, _ = amplify_by_subsampling(eps, 1e-6, min(1.0, q * 1.5))
        assert amplified <= weaker + 1e-15


class TestShuffling:
    def test_pinned_explicit_value(self):
        got = amplify_by_shuffling(0.4, 1e-6, 10_000, EXPLICIT)
        assert got == pytest.approx(0.178413, abs=1e-6)
        assert got == pytest.approx(12.0 * 0.4 * math.sqrt(math.log(1e6) / 1e4), rel=1e-14)

    def test_quadrupling_batch_halves(self):
        base = amplify_by_shuffling(0.3, 1e-6, 2_000, EXPLICIT)
        quad = amplify_by_shuffling(0.3, 1e-6, 8_000, EXPLICIT)
        assert quad == pytest.approx(base / 2.0, rel=1e-14)

    def test_explicit_preconditions(self):
        with pytest.raises(PreconditionError, match="1/2"):
            amplify_by_shuffling(0.6, 1e-6, 10_000, EXPLICIT)
        with pytest.raises(PreconditionError, match="1/100"):
            amplify_by_shuffling(0.3, 0.05, 10_000, EXPLICIT)
        with pytest.raises(PreconditionError, match="1000"):
            amplify_by_shuffling(0.3, 1e-6, 999, EXPLICIT)

    def test_clones_formula(self):
        # Theorem 3.1 of arXiv:2012.12803, written out at eps0 = 0.8.
        e = math.exp(0.8)
        spread = 8.0 * math.sqrt(e * math.log(4e6) / 1e4) + 8.0 * e / 1e4
        want = math.log(1.0 + (e - 1.0) / (e + 1.0) * spread)
        got = amplify_by_shuffling(0.8, 1e-6, 10_000, CLONES)
        assert got == pytest.approx(want, rel=1e-14)
        assert got < 0.8  # it amplifies where the explicit bound refuses

    def test_clones_precondition(self):
        # Cap is ln(m_eff/(16*ln(2/delta))), taken with equality.
        cap = math.log(10_000 / (16.0 * math.log(2e6)))
        amplify_by_shuffling(cap, 1e-6, 10_000, CLONES)
        with pytest.raises(PreconditionError, match="clones"):
            amplify_by_shuffling(cap * 1.001, 1e-6, 10_000, CLONES)
        # A batch of at most 16*ln(2/delta) = 232.1 messages leaves no eps0.
        with pytest.raises(PreconditionError, match="16"):
            amplify_by_shuffling(1e-3, 1e-6, 232, CLONES)
        amplify_by_shuffling(1e-3, 1e-6, 233, CLONES)

    def test_matches_oracle_both_variants(self):
        for eps0 in (0.05, 0.2, 0.45):
            for m_eff in (1_000, 40_000):
                got = amplify_by_shuffling(eps0, 1e-8, m_eff, EXPLICIT)
                want = oracle_shuffle(eps0, 1e-8, m_eff, "explicit")
                assert got == pytest.approx(want, rel=1e-14)
        # The clones cap at delta = 1e-8 is 1.18 at m_eff = 1000 and 5.09 at 50 000.
        for eps0, m_eff in [(0.05, 1_000), (1.0, 1_000), (0.45, 50_000), (2.5, 50_000)]:
            got = amplify_by_shuffling(eps0, 1e-8, m_eff, CLONES)
            want = oracle_shuffle(eps0, 1e-8, m_eff, "clones")
            assert got == pytest.approx(want, rel=1e-13)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            amplify_by_shuffling(0.0, 1e-6, 10_000, EXPLICIT)
        with pytest.raises(ValidationError):
            amplify_by_shuffling(0.3, 0.0, 10_000, EXPLICIT)
        with pytest.raises(ValidationError):
            amplify_by_shuffling(0.3, 1e-6, 0, EXPLICIT)
        # An unknown variant is rejected by the bound and by its eps0 cap alike.
        for variant in ("bogus", None):
            with pytest.raises(ValidationError, match="unknown shuffling variant"):
                amplify_by_shuffling(0.3, 1e-6, 10_000, variant)
            with pytest.raises(ValidationError, match="unknown shuffling variant"):
                max_feasible_epsilon0(1e-6, 10, SamplingParams(m=5000, k=2500, r=1, s=1), variant)

    @pytest.mark.parametrize(
        "variant", [EXPLICIT, CLONES], ids=["explicit", "clones"]
    )
    def test_both_readers_of_a_range_agree(self, variant):
        # amplify_by_shuffling and max_feasible_epsilon0 read one range: at
        # the end-to-end split delta/(2qT) and the batch k*s, the bound takes
        # eps0 just below the cap and refuses it just above, and where the
        # cap is infeasible the bound takes no eps0 at all. Some infeasible
        # cells have a valid split but too small a batch (for the clones
        # bound, k*s <= 16*ln(2/delta_tilde)).
        feasible = infeasible = small_batch = 0
        grid = itertools.product((1e-9, 1e-6, 1e-2, 0.3), (1, 10, 1000), (200, 5000, 200_000),
                                 (0.01, 0.25, 1.0), (1, 2))
        for delta, T, m, k_frac, s in grid:
            params = SamplingParams(m=m, k=max(1, int(m * k_frac)), r=4, s=s)
            delta_tilde = delta / (2.0 * params.q * T)

            def bound(eps0):
                return amplify_by_shuffling(eps0, delta_tilde, params.batch, variant)

            try:
                cap = max_feasible_epsilon0(delta, T, params, variant)
            except InfeasibleError as err:
                infeasible += 1
                small_batch += delta_tilde < 0.01 and "batch" in str(err)
                for eps0 in (1e-6, 0.1, 0.49, 1.0, 5.0):
                    with pytest.raises((PreconditionError, ValidationError)):
                        bound(eps0)
                continue
            feasible += 1
            bound(cap * (1.0 - 1e-9))
            with pytest.raises(PreconditionError):
                bound(cap * (1.0 + 1e-9))
        assert feasible > 0 and infeasible > 0 and small_batch > 0


class TestSamplingStage:
    """The sampling stage of ``end_to_end``: the budget's third stage, (eps_bar, delta_bar)."""

    def test_pinned_sampling_value(self):
        # ln(1 + 0.01*(e^{0.2}-1)) with eps_tilde forced to 0.2 via subsampling.
        eps_bar, _ = amplify_by_subsampling(0.2, 1e-8, 0.01)
        assert eps_bar == pytest.approx(0.0022116, abs=1e-7)

    def test_single_sample_route_composes_stages(self):
        params = SamplingParams(m=10_000, k=2_000, r=50, s=1)
        _, shuffled, sampled, _ = end_to_end(0.3, 1e-6, 10, params, EXPLICIT).stages
        eps_tilde = amplify_by_shuffling(0.3, shuffled.delta, params.batch, EXPLICIT)
        assert shuffled.epsilon == eps_tilde
        want = oracle_subsample(eps_tilde, shuffled.delta, params.q)
        assert sampled.epsilon == pytest.approx(want[0], rel=1e-14)
        assert sampled.delta == pytest.approx(want[1], rel=1e-14)
        assert sampled.inputs == (("q", params.q),) and sampled.note is None

    def test_full_participation_passthrough(self):
        params = SamplingParams(m=2_000, k=2_000, r=1, s=1)
        _, shuffled, sampled, _ = end_to_end(0.3, 1e-6, 5, params, EXPLICIT).stages
        eps_tilde = amplify_by_shuffling(0.3, shuffled.delta, 2_000, EXPLICIT)
        assert sampled.epsilon == pytest.approx(eps_tilde, rel=1e-15)
        assert sampled.delta == pytest.approx(shuffled.delta, rel=1e-15)

    def test_multi_sample_branch_uses_q2_and_warns(self):
        params = SamplingParams(m=1_000, k=500, r=200, s=2)
        assert params.q2 == pytest.approx(0.01)
        assert params.q == pytest.approx(0.005)
        with pytest.warns(AmplificationWarning):
            budget = end_to_end(0.3, 1e-6, 10, params, EXPLICIT)
        _, shuffled, sampled, _ = budget.stages
        delta_tilde = shuffled.delta
        eps_tilde = amplify_by_shuffling(0.3, delta_tilde, params.batch, EXPLICIT)
        assert sampled.epsilon == pytest.approx(
            math.log1p(params.q2 * math.expm1(eps_tilde)), rel=1e-14
        )
        # delta_bar still scales with the full q.
        assert sampled.delta == pytest.approx(params.q * delta_tilde, rel=1e-15)
        assert sampled.inputs == (("q", params.q), ("q2", params.q2))
        assert "client sampling does not amplify" in sampled.note
        # Strictly worse than the (unproven) q-branch would have been.
        hypothetical = math.log1p(params.q * math.expm1(eps_tilde))
        assert sampled.epsilon > hypothetical

    def test_multi_sample_all_clients_no_warning(self):
        params = SamplingParams(m=500, k=500, r=100, s=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AmplificationWarning)
            budget = end_to_end(0.3, 1e-6, 10, params, EXPLICIT)
        _, shuffled, sampled, _ = budget.stages
        eps_tilde = amplify_by_shuffling(0.3, shuffled.delta, params.batch, EXPLICIT)
        assert sampled.epsilon == pytest.approx(
            math.log1p(params.q2 * math.expm1(eps_tilde)), rel=1e-14
        )


class TestStrongComposition:
    def test_zero_eps_bar(self):
        eps, delta = strong_composition(0.0, 1e-8, 1, 1e-6)
        assert eps == 0.0
        assert delta == pytest.approx(1e-8 + 1e-6, rel=1e-15)

    def test_pinned_value(self):
        eps, _ = strong_composition(0.01, 0.0, 10_000, 1e-6)
        assert eps == pytest.approx(6.26155, abs=5e-5)
        want = math.sqrt(2e4 * math.log(1e6)) * 0.01 + 1e4 * 0.01 * math.expm1(0.01)
        assert eps == pytest.approx(want, rel=1e-14)

    def test_eps_bar_whose_exponential_overflows(self):
        # T eps_bar (e^eps_bar - 1) has no finite float64 value there.
        assert strong_composition(1000.0, 0.0, 10, 1e-6) == (math.inf, 1e-6)
        assert strong_composition(math.inf, 1e-9, 2, 1e-6) == (math.inf, 2e-9 + 1e-6)
        # Just below the switch the formula itself already reads inf.
        top = math.log(sys.float_info.max)
        assert strong_composition(top, 0.0, 1, 1e-6)[0] == math.inf

    def test_single_round_form(self):
        eps, delta = strong_composition(0.2, 1e-8, 1, 1e-6)
        want = math.sqrt(2.0 * math.log(1e6)) * 0.2 + 0.2 * math.expm1(0.2)
        assert eps == pytest.approx(want, rel=1e-14)
        assert delta == pytest.approx(1e-8 + 1e-6, rel=1e-15)

    def test_matches_oracle(self):
        for eps_bar in (1e-5, 0.01, 0.3):
            for T in (1, 10, 10_000):
                got = strong_composition(eps_bar, 1e-9, T, 1e-7)
                want = oracle_strong_composition(eps_bar, 1e-9, T, 1e-7)
                assert got[0] == pytest.approx(want[0], rel=1e-14)
                assert got[1] == pytest.approx(want[1], rel=1e-14)

    def test_monotone_in_each_argument(self):
        base = strong_composition(0.01, 1e-9, 100, 1e-7)
        more_rounds = strong_composition(0.01, 1e-9, 200, 1e-7)
        more_eps = strong_composition(0.02, 1e-9, 100, 1e-7)
        more_delta = strong_composition(0.01, 2e-9, 100, 1e-7)
        assert more_rounds[0] >= base[0]
        assert more_eps[0] >= base[0]
        assert more_delta[0] >= base[0]
        assert more_rounds[1] >= base[1]
        assert more_delta[1] >= base[1]

    @pytest.mark.parametrize("T", [0, -3, 1.5])
    def test_rejects_bad_rounds(self, T):
        with pytest.raises(ValidationError):
            strong_composition(0.01, 1e-9, T, 1e-7)

    def test_rejects_bad_deltas(self):
        with pytest.raises(ValidationError):
            strong_composition(0.01, 1.0, 10, 1e-7)
        with pytest.raises(ValidationError):
            strong_composition(0.01, 1e-9, 10, 0.0)
        with pytest.raises(ValidationError):
            strong_composition(-0.01, 1e-9, 10, 1e-7)


class TestEndToEnd:
    def test_delta_reconstructs_exactly(self):
        for params, T in [
            (SamplingParams(m=5_000, k=2_500, r=1, s=1), 10),
            (SamplingParams(m=1_000, k=1_000, r=20, s=2), 50),
            (SamplingParams(m=10_000, k=1_000, r=10, s=1), 1),
        ]:
            budget = end_to_end(0.2, 1e-6, T, params, EXPLICIT)
            assert budget.delta == pytest.approx(1e-6, rel=1e-15)

    def test_matches_oracle_explicit(self):
        cases = [
            (0.1, 1e-6, 1, 2_000, 2_000, 1, 1),
            (0.3, 1e-5, 20, 10_000, 2_000, 10, 1),
            (0.45, 1e-7, 100, 50_000, 5_000, 100, 1),
        ]
        for eps0, delta, T, m, k, r, s in cases:
            budget = end_to_end(eps0, delta, T, SamplingParams(m=m, k=k, r=r, s=s), EXPLICIT)
            want = oracle_end_to_end(eps0, delta, T, m, k, r, s, "explicit")
            assert_matches_oracle(budget, want, 1e-13)

    def test_matches_oracle_multi_sample_branch(self):
        params = SamplingParams(m=1_000, k=500, r=100, s=4)
        with pytest.warns(AmplificationWarning):
            budget = end_to_end(0.2, 1e-6, 10, params, EXPLICIT)
        want = oracle_end_to_end(0.2, 1e-6, 10, 1_000, 500, 100, 4, "explicit")
        assert_matches_oracle(budget, want, 1e-13)

    def test_matches_oracle_clones(self):
        for eps0, (m, k, r, s) in [
            (1.5, (100_000, 20_000, 5, 1)),
            (0.8, (1_000, 500, 100, 4)),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AmplificationWarning)
                budget = end_to_end(eps0, 1e-6, 30, SamplingParams(m=m, k=k, r=r, s=s), CLONES)
            want = oracle_end_to_end(eps0, 1e-6, 30, m, k, r, s, "clones")
            assert_matches_oracle(budget, want, 1e-13)

    def test_single_round_full_participation_reduction(self):
        # q=1, T=1: eps_bar is exactly eps_tilde at delta_tilde = delta/2 and
        # the final eps is the single-round composition of that value.
        params = SamplingParams(m=2_000, k=2_000, r=1, s=1)
        delta = 1e-6
        budget = end_to_end(0.3, delta, 1, params, EXPLICIT)
        _, shuffled, sampled, _ = budget.stages
        eps_tilde = amplify_by_shuffling(0.3, delta / 2.0, 2_000, EXPLICIT)
        assert shuffled.delta == pytest.approx(delta / 2.0, rel=1e-15)
        assert sampled.epsilon == pytest.approx(eps_tilde, rel=1e-15)
        want = math.sqrt(2.0 * math.log(2.0 / delta)) * eps_tilde + eps_tilde * math.expm1(
            eps_tilde
        )
        assert budget.epsilon == pytest.approx(want, rel=1e-14)

    def test_doubling_rounds_scales_by_sqrt2(self):
        # At tiny eps_bar the sqrt(T) term dominates composition.
        params = SamplingParams(m=1_000_000, k=1_000_000, r=1, s=1)
        one = end_to_end(0.001, 1e-6, 100, params, EXPLICIT)
        two = end_to_end(0.001, 1e-6, 200, params, EXPLICIT)
        assert two.epsilon / one.epsilon == pytest.approx(math.sqrt(2.0), rel=0.02)

    def test_stage_monotonicity_in_eps0(self):
        params = SamplingParams(m=10_000, k=2_000, r=10, s=1)
        budgets = [
            end_to_end(eps0, 1e-6, 25, params, EXPLICIT)
            for eps0 in (0.05, 0.1, 0.2, 0.4, 0.45)
        ]
        for lo, hi in zip(budgets, budgets[1:]):
            for lo_stage, hi_stage in zip(lo.stages, hi.stages):
                assert hi_stage.epsilon >= lo_stage.epsilon
            assert hi.epsilon >= lo.epsilon

    def test_subsampling_never_hurts(self):
        params = SamplingParams(m=10_000, k=2_000, r=10, s=1)
        _, shuffled, sampled, _ = end_to_end(0.3, 1e-6, 25, params, EXPLICIT).stages
        assert sampled.epsilon <= shuffled.epsilon
        full = SamplingParams(m=2_000, k=2_000, r=1, s=1)
        _, shuffled, sampled, _ = end_to_end(0.3, 1e-6, 25, full, EXPLICIT).stages
        assert sampled.epsilon == pytest.approx(shuffled.epsilon, rel=1e-15)

    def test_provenance_names_each_stage(self):
        params = SamplingParams(m=5_000, k=2_500, r=1, s=1)
        budget = end_to_end(0.3, 1e-6, 10, params, EXPLICIT)
        text = "\n".join(budget.provenance)
        assert len(budget.provenance) == len(budget.stages) == 4
        assert [stage.rule for stage in budget.stages] == [
            "local randomizer", EXPLICIT.name, "sampling amplification", "strong composition"
        ]
        for line, stage in zip(budget.provenance, budget.stages):
            assert line.startswith(stage.rule)
            assert f"epsilon = {stage.epsilon:.12g}, delta = {stage.delta:.12g}" in line
            assert all(f"{name} = {value:.12g}" in line for name, value in stage.inputs)
        assert budget.stages[0].epsilon == budget.epsilon0 == 0.3
        assert budget.stages[-1].epsilon == budget.epsilon and budget.stages[-1].delta == 1e-6
        assert "k*s = 2500" in text and "T = 10" in text
        assert budget.guarantee and budget.notes == ()

    def test_rejects_invalid_delta_split(self):
        # delta/(2qT) >= 1 cannot be a delta: a failed precondition.
        params = SamplingParams(m=1_000, k=1, r=1_000, s=1)
        with pytest.raises(PreconditionError, match="delta"):
            end_to_end(0.3, 0.5, 1, params, EXPLICIT)
        # Counts that every range admits, but whose q = (k/m)(s/r) underflows to 0.0.
        for params in (SamplingParams(m=10**200, k=1, r=10**200, s=1),
                       SamplingParams(m=10**400, k=1, r=1, s=1)):
            with pytest.raises(PreconditionError, match="got inf"):
                end_to_end(0.1, 1e-6, 10, params)

    def test_propagates_precondition_errors(self):
        params = SamplingParams(m=1_000, k=100, r=1, s=1)  # batch 100 < 1000
        with pytest.raises(PreconditionError):
            end_to_end(0.3, 1e-6, 10, params, EXPLICIT)

    @given(
        eps0=st.floats(min_value=0.01, max_value=0.49),
        delta_exp=st.integers(min_value=-9, max_value=-4),
        T=st.integers(min_value=1, max_value=500),
        k=st.integers(min_value=1_000, max_value=5_000),
    )
    def test_oracle_agreement_property(self, eps0, delta_exp, T, k):
        m = 10_000
        delta = 10.0**delta_exp
        budget = end_to_end(eps0, delta, T, SamplingParams(m=m, k=k, r=1, s=1), EXPLICIT)
        want = oracle_end_to_end(eps0, delta, T, m, k, 1, 1, "explicit")
        assert_matches_oracle(budget, want, 1e-12)


class TestCalibration:
    PARAMS = SamplingParams(m=5_000, k=2_500, r=1, s=1)

    def test_roundtrip(self):
        target = end_to_end(0.3, 1e-6, 10, self.PARAMS, EXPLICIT).epsilon
        got = calibrate_epsilon0(target, 1e-6, 10, self.PARAMS, EXPLICIT)
        assert got == pytest.approx(0.3, rel=1e-6)
        achieved = end_to_end(got, 1e-6, 10, self.PARAMS, EXPLICIT).epsilon
        assert achieved <= target
        above = end_to_end(got * (1.0 + 1e-6), 1e-6, 10, self.PARAMS, EXPLICIT).epsilon
        assert above > target

    def test_monotone_in_target(self):
        lo = calibrate_epsilon0(0.5, 1e-6, 10, self.PARAMS, EXPLICIT)
        hi = calibrate_epsilon0(1.5, 1e-6, 10, self.PARAMS, EXPLICIT)
        assert hi > lo

    def test_target_below_minimum_infeasible(self):
        with pytest.raises(InfeasibleError, match="below the minimum"):
            calibrate_epsilon0(1e-12, 1e-6, 10, self.PARAMS, EXPLICIT)

    def test_target_above_range_infeasible(self):
        # The explicit variant caps eps0 at 1/2; huge targets are unreachable.
        with pytest.raises(InfeasibleError, match="not reached"):
            calibrate_epsilon0(1e9, 1e-6, 10, self.PARAMS, EXPLICIT)

    def test_small_batch_infeasible(self):
        params = SamplingParams(m=1_000, k=100, r=1, s=1)
        with pytest.raises(InfeasibleError, match="1000"):
            calibrate_epsilon0(1.0, 1e-6, 10, params, EXPLICIT)

    def test_clones_cap(self):
        cap = max_feasible_epsilon0(1e-6, 10, self.PARAMS, CLONES)
        delta_tilde = 1e-6 / (2.0 * self.PARAMS.q * 10)
        want = math.log(self.PARAMS.batch / (16.0 * math.log(2.0 / delta_tilde)))
        assert cap == pytest.approx(want, rel=1e-14)

    def test_clones_roundtrip_above_one_half(self):
        # A target of 3.0 buys an eps0 the explicit bound refuses.
        got = calibrate_epsilon0(3.0, 1e-6, 10, self.PARAMS, CLONES)
        assert 0.5 < got < 1.0
        assert end_to_end(got, 1e-6, 10, self.PARAMS, CLONES).epsilon <= 3.0
        above = end_to_end(got * (1.0 + 1e-6), 1e-6, 10, self.PARAMS, CLONES).epsilon
        assert above > 3.0

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValidationError):
            calibrate_epsilon0(0.0, 1e-6, 10, self.PARAMS, EXPLICIT)


class TestDeployScale:
    """train_deploy's accounting (m=5000, k=1000, r=4, s=1, delta=1e-6) under
    both bounds, against figures computed from each bound's formula."""

    @pytest.mark.parametrize(
        "T, figures",
        [(1, (0.5150318463, 0.0331296910, 0.1795780606)),
         (100, (0.6093938987, 0.0411091332, 2.3869732070))],
        ids=["T1", "T100"],
    )
    def test_explicit_bound_at_eps0_0_4(self, T, figures):
        # The default bound: eps_tilde, eps_bar and eps read from the stages,
        # each pinned to its 10th decimal place.
        budget = end_to_end(0.4, 1e-6, T, DEPLOY, EXPLICIT)
        _, shuffled, sampled, composed = budget.stages
        got = (shuffled.epsilon, sampled.epsilon, composed.epsilon)
        assert got == pytest.approx(figures, abs=5e-11)
        want = oracle_end_to_end(0.4, 1e-6, T, 5_000, 1_000, 4, 1, "explicit")
        assert_matches_oracle(budget, want, 1e-12)

    def test_single_round_at_eps0_one(self):
        budget = end_to_end(1.0, 1e-6, 1, DEPLOY, CLONES)
        assert budget.stages[1].epsilon == pytest.approx(0.5319874414, rel=1e-9)
        assert budget.epsilon == pytest.approx(0.1871262708, rel=1e-9)
        with pytest.raises(PreconditionError, match="1/2"):
            end_to_end(1.0, 1e-6, 1, DEPLOY, EXPLICIT)

    def test_max_feasible_epsilon0(self):
        assert max_feasible_epsilon0(1e-6, 1, DEPLOY, CLONES) == pytest.approx(
            1.6332329710, rel=1e-9
        )

    def test_hundred_rounds(self):
        budget = end_to_end(0.4, 1e-6, 100, DEPLOY, CLONES)
        assert budget.epsilon == pytest.approx(0.7056386962, rel=1e-9)
        # The explicit bound reports a looser budget at the same eps0.
        assert end_to_end(0.4, 1e-6, 100, DEPLOY, EXPLICIT).epsilon > budget.epsilon

    @pytest.mark.parametrize("eps0", [0.5, 0.9, 1.3])
    def test_eps0_above_one_half_is_finite_and_oracle_checked(self, eps0):
        budget = end_to_end(eps0, 1e-6, 100, DEPLOY, CLONES)
        want = oracle_end_to_end(eps0, 1e-6, 100, 5_000, 1_000, 4, 1, "clones")
        assert math.isfinite(budget.epsilon)
        assert_matches_oracle(budget, want, 1e-12)


class TestRegistry:
    def test_names_and_default(self):
        assert VARIANTS == {"explicit": EXPLICIT, "clones": CLONES}
        assert DEFAULT_VARIANT == "explicit"
        assert get_variant("clones") is VARIANTS["clones"]
        for name in ("magic", None, ["explicit"]):
            with pytest.raises(ValidationError, match="unknown shuffling variant") as info:
                get_variant(name)
            assert "registered: clones, explicit" in str(info.value)

    def test_defaults_read_the_registry(self):
        budget = end_to_end(0.3, 1e-6, 10, DEPLOY)
        assert budget == end_to_end(0.3, 1e-6, 10, DEPLOY, VARIANTS[DEFAULT_VARIANT])
        assert cldp.TrainConfig(
            DEPLOY, 1, 0.3, 1e-6, cldp.BallSpec(1.0, 1.0, 2), 2.0
        ).variant == VARIANTS[DEFAULT_VARIANT]

    def test_a_registered_bound_runs_the_chain(self, halving):
        # Registered, a bound is a variant everywhere: no other list names it.
        params = SamplingParams(m=2000, k=2000, r=1, s=1)
        shuffled = end_to_end(0.3, 1e-6, 1, params, halving).stages[1]
        assert shuffled.rule == halving.name and shuffled.epsilon == 0.15
        assert max_feasible_epsilon0(1e-6, 1, params, halving) == 1.0
        with pytest.raises(ValidationError, match="unknown shuffling variant"):
            end_to_end(0.3, 1e-6, 1, params, object())


class TestBudgetAndSchedule:
    def test_each_round_is_the_run_ending_there(self):
        budget, schedule = budget_and_schedule(0.3, 1e-6, 5, DEPLOY, CLONES)
        assert budget == end_to_end(0.3, 1e-6, 5, DEPLOY, CLONES)
        assert schedule == [end_to_end(0.3, 1e-6, t, DEPLOY, CLONES).epsilon for t in range(1, 6)]

    def test_failed_rounds_are_named_in_spans(self):
        # delta/(2qt) < 1/100 first holds at t = 3 here (q = 0.05, delta = 3e-3).
        params = SamplingParams(m=1000, k=1000, r=20, s=1)
        budget, schedule = budget_and_schedule(0.3, 3e-3, 4, params, EXPLICIT)
        assert [math.isnan(e) for e in schedule] == [True, True, False, False]
        assert budget.provenance[:4] == end_to_end(0.3, 3e-3, 4, params).provenance
        assert budget.provenance[4].startswith("epsilon_so_far is NaN for rounds 1-2: ")
        assert budget.notes == budget.provenance[4:]
        assert accountant._spans([1, 2, 3, 5, 7, 8]) == "1-3, 5, 7-8"

    def test_warns_once_at_the_caller(self):
        # s > 1 with k < m: one warning per budget, however many rounds the
        # schedule evaluates, attributed to the caller as end_to_end's is.
        params = SamplingParams(m=2000, k=1000, r=4, s=2)
        for call in (budget_and_schedule, end_to_end):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call(0.3, 1e-6, 3, params, EXPLICIT)
            assert [w.category for w in caught] == [AmplificationWarning], call
            assert caught[0].filename == __file__

    def test_a_run_without_guarantee(self):
        budget = PrivacyBudget.without_guarantee(0.5, 7, "why not")
        assert not budget.guarantee and budget.T == 7 and budget.epsilon0 == 0.5
        assert budget.provenance == ("why not", "no central (epsilon, delta) guarantee is claimed")
        assert budget.notes == budget.provenance and budget.stages == ()
        assert math.isnan(budget.epsilon) and math.isnan(budget.delta)


SRC = Path(cldp.__file__).resolve().parent


def _names(tree) -> set[str]:
    """Every identifier, attribute, imported name and keyword a module spells."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
    return found


def test_the_bounds_are_listed_once():
    # The bound classes and their names appear in the accountant, and in the
    # package's export list, nowhere else in src/.
    bound = {"ExplicitShuffling", "ClonesShuffling"}
    assert bound <= set(dir(cldp))
    spelled = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path == SRC / "__init__.py":  # the export list
            tree.body = [
                node for node in tree.body
                if not (isinstance(node, ast.ImportFrom) and node.module == "accountant")
            ]
        strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        hits = (strings & {"explicit", "clones"}) | (_names(tree) & bound)
        if hits:
            spelled[path.relative_to(SRC).as_posix()] = sorted(hits)
    assert spelled == {
        "accountant.py": ["ClonesShuffling", "ExplicitShuffling", "clones", "explicit"]
    }


def test_the_accountant_is_a_leaf():
    # accountant imports nothing from the package but errors, and training
    # leaves the budget to it: no end_to_end, no AccountingError, no field
    # that only a PrivacyBudget has.
    tree = ast.parse((SRC / "accountant.py").read_text())
    package = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("cldp"))
    ]
    assert package == ["errors"]
    assert not any(
        alias.name.startswith("cldp")
        for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    )
    own = {f.name for f in fields(PrivacyBudget)} - {f.name for f in fields(cldp.TrainConfig)}
    training = _names(ast.parse((SRC / "fedsim" / "training.py").read_text()))
    assert training & ({"end_to_end", "AccountingError"} | own) == set()
