"""Federated training loop: sampling, tasks, rounds, aggregation, dataset IO."""

import dataclasses
import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cldp.wire as wire
from cldp.accountant import SamplingParams, end_to_end
from cldp.bounds import g_squared
from cldp.errors import AmplificationWarning, ClippingWarning, PreconditionError, ValidationError
from cldp.fedsim import (
    Population,
    TrainConfig,
    get_task,
    load_dataset,
    sample_clients,
    sample_data,
    save_dataset_binary,
    save_dataset_csv,
    synthetic_logistic_data,
    train,
)
from cldp.fedsim import data as fdata
from cldp.fedsim import training
from cldp.fedsim.data import _require_population
from cldp.fedsim.tasks import TASKS
from cldp.fedsim.training import CLIENT_SALT, _client_streams, _word_streams
from cldp.linalg import BallSpec
from cldp.mechanisms import (
    IndexSign,
    MechanismSpec,
    MixTagged,
    RawVector,
    SparseSigned,
    batch_encoder,
    mean_estimate,
)
from cldp.streams import _HashedSeed, _seed_states, _seed_words

L2_BALL = BallSpec(p=2.0, radius=1.0, dim=2)


def small_config(**overrides):
    defaults = dict(
        params=SamplingParams(m=6, k=3, r=4, s=2),
        T=4,
        epsilon0=1.5,
        delta=1e-5,
        ball=L2_BALL,
        diameter=2.0,
        task="logistic",
        seed=7,
        account=False,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


# (p, mix_prob, eps0) per case, and the traces the stream layout fixes for
# them: client ids and exact bits per round, and the post-step loss, which
# also reads the step size's G^2 (for the mix, ``g_squared``'s two-arm rule).
STREAM_CASES = {
    "l1": (1.0, None, 1.5),
    "l2": (2.0, None, 1.5),
    "linf": (math.inf, None, 1.5),
    "mix": (3.0, 0.5, 1.5),
    "raw": (2.0, None, math.inf),
}
_IDS = [(2, 3, 5), (0, 1, 2), (2, 3, 4), (0, 2, 4)]
GOLDEN_TRACES = {
    "l1": (
        _IDS,
        [9, 9, 9, 9],
        [0.7162120893865129, 0.7404883810439236, 0.7582062053289881, 0.7657761822706816],
    ),
    "l2": (
        _IDS,
        [18, 18, 18, 18],
        [0.6896724357767692, 0.719099929389888, 0.6707375345227852, 0.7021780534609663],
    ),
    "linf": (
        _IDS,
        [9, 9, 9, 9],
        [0.6987563024746836, 0.7022033786232201, 0.704039306894542, 0.6664432775686449],
    ),
    "mix": (
        _IDS,
        [15, 9, 12, 18],
        [0.6910689121963193, 0.7518572415067787, 0.7762306829945386, 0.7463479828155203],
    ),
    "raw": (
        _IDS,
        [576, 576, 576, 576],
        [0.6820841563236378, 0.6800304260075669, 0.6838654001415078, 0.6860021255814995],
    ),
}


class TestSampling:
    def test_full_participation_is_everyone(self):
        out = sample_clients(5, 5, np.random.default_rng(0))
        assert np.array_equal(out, np.arange(5))

    def test_sorted_distinct_subset(self):
        gen = np.random.default_rng(1)
        for _ in range(200):
            out = sample_clients(10, 4, gen)
            assert len(out) == 4
            assert len(set(out.tolist())) == 4
            assert np.array_equal(out, np.sort(out))
            assert out.min() >= 0 and out.max() < 10

    def test_inclusion_frequency_uniform(self):
        gen = np.random.default_rng(2)
        m, k, trials = 10, 3, 4000
        counts = np.zeros(m)
        for _ in range(trials):
            counts[sample_clients(m, k, gen)] += 1
        freq = counts / trials
        sigma = math.sqrt(0.3 * 0.7 / trials)
        assert np.all(np.abs(freq - k / m) <= 4 * sigma)

    def test_data_sampling_same_contract(self):
        gen = np.random.default_rng(3)
        out = sample_data(7, 7, gen)
        assert np.array_equal(out, np.arange(7))
        with pytest.raises(ValidationError):
            sample_data(3, 4, gen)
        with pytest.raises(ValidationError):
            sample_clients(3, 0, gen)

    @pytest.mark.parametrize("r", [1, 2, 3, 1000])
    def test_one_point_draws_what_choice_draws(self, r):
        # One point is integers(r), not choice: both must read the same bits,
        # and leave the stream at the same place for the mechanism noise.
        for seed in range(3000):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(sample_data(r, 1, a), b.choice(r, 1, replace=False)), seed
            assert a.random() == b.random(), seed

    def test_word_built_streams_equal_tuple_seeds(self):
        # A round's streams come from a matrix of seed words; each must be the
        # generator SeedSequence((seed, CLIENT_SALT, client, t)) builds, also
        # for seeds of several words, seed and client 0, and large rounds.
        m = 5000
        chosen = np.array([0, 1, m - 1])
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5):
            head = _seed_words(seed) + [CLIENT_SALT]
            for t in (1, 2**16, 2**32 + 3):
                for ci, gen in zip(chosen, _client_streams(head, chosen, t)):
                    ref = np.random.default_rng(
                        np.random.SeedSequence((seed, CLIENT_SALT, int(ci), t))
                    )
                    assert gen.bit_generator.state == ref.bit_generator.state, (seed, ci, t)
                    assert np.array_equal(gen.random(4), ref.random(4)), (seed, ci, t)

    @pytest.mark.parametrize("length", range(1, 10))
    def test_seed_hash_equals_numpy_seed_sequence(self, length):
        # The vectorised hash against numpy's own SeedSequence, on random word
        # rows and an all-zero one; rows over 4 words run the pool's extra
        # mixing loop.
        words = np.random.default_rng(length).integers(0, 2**32, (40, length), dtype=np.uint32)
        words[0] = 0
        states = _seed_states(words)
        assert states.shape == (40, 4) and states.dtype == np.uint64
        for row, state, gen in zip(words, states, _word_streams(words)):
            ref = np.random.SeedSequence(row)
            assert np.array_equal(state, ref.generate_state(4, np.uint64)), row
            ref_gen = np.random.default_rng(ref)
            assert gen.bit_generator.state == ref_gen.bit_generator.state, row
            assert np.array_equal(gen.random(4), ref_gen.random(4)), row
            assert gen.integers(1000) == ref_gen.integers(1000), row

    @pytest.mark.parametrize(
        "request_", [(4, np.uint32), (8, np.uint64), (2, np.uint64), (4, np.float64)]
    )
    def test_hashed_seed_serves_only_pcg64s_request(self, request_):
        # A numpy whose PCG64 asks for any other state must fail, not seed
        # the streams from something else.
        seed = _HashedSeed(np.zeros(4, dtype=np.uint64))
        assert seed.generate_state(4, np.uint64) is seed._state
        with pytest.raises(ValidationError, match="generate_state"):
            seed.generate_state(*request_)

    def test_round_streams_share_no_state(self):
        # Drawing from one stream leaves every other stream of its round where
        # it was, though all come from one state matrix.
        streams = _client_streams(_seed_words(3) + [CLIENT_SALT], np.arange(4), 5)
        before = [gen.bit_generator.state for gen in streams]
        streams[1].random(100)
        streams[2].integers(7, size=9)
        after = [gen.bit_generator.state for gen in streams]
        assert after[0] == before[0] and after[3] == before[3]
        assert after[1] != before[1] and after[2] != before[2]


class TestTasks:
    def test_registry(self):
        assert set(TASKS) == {"logistic", "linear_abs", "zero"}
        for task in TASKS.values():
            assert task.lipschitz == 1.0
        with pytest.raises(ValidationError, match="logistic"):
            get_task("nope")

    def test_logistic_at_origin(self):
        task = get_task("logistic")
        x = np.array([0.6, -0.8])
        for y in (-1.0, 1.0):
            loss = task.batch_loss(np.zeros(2), x[None], np.array([y]))
            (grad,) = task.point_grads(np.zeros(2), x[None], np.array([y]))
            assert loss == pytest.approx(math.log(2.0), rel=1e-12)
            assert grad == pytest.approx(-(y / 2.0) * x, rel=1e-12)

    def test_logistic_gradient_matches_finite_differences(self):
        task = get_task("logistic")
        gen = np.random.default_rng(4)
        for _ in range(20):
            theta = gen.normal(size=3)
            X = gen.normal(size=(1, 3))
            Y = gen.choice([-1.0, 1.0], size=1)
            (grad,) = task.point_grads(theta, X, Y)
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                up = task.batch_loss(theta + e, X, Y)
                down = task.batch_loss(theta - e, X, Y)
                numeric = (up - down) / (2 * h)
                assert grad[j] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_logistic_gradient_norm_bounded_by_feature_norm(self):
        task = get_task("logistic")
        gen = np.random.default_rng(5)
        for _ in range(100):
            theta = gen.normal(size=4) * 3
            x = gen.normal(size=4)
            x /= np.linalg.norm(x)
            (grad,) = task.point_grads(theta, x[None], gen.choice([-1.0, 1.0], size=1))
            assert np.linalg.norm(grad) <= 1.0 + 1e-12

    def test_logistic_batch_is_pointwise_mean(self):
        task = get_task("logistic")
        gen = np.random.default_rng(6)
        X = gen.normal(size=(9, 3))
        Y = gen.choice([-1.0, 1.0], size=9)
        theta = gen.normal(size=3)
        # one point at a time: loss ln(1 + e^z), gradient -y sigma(z) x, z = -y theta.x
        z = [-y * float(x @ theta) for x, y in zip(X, Y)]
        losses = [math.log1p(math.exp(v)) for v in z]
        grads = [(-y / (1.0 + math.exp(-v))) * x for x, y, v in zip(X, Y, z)]
        assert task.batch_loss(theta, X, Y) == pytest.approx(np.mean(losses), rel=1e-12)
        np.testing.assert_allclose(task.point_grads(theta, X, Y), grads, rtol=1e-12)

    def test_logistic_is_stable_at_extreme_margins(self):
        task = get_task("logistic")
        theta = np.array([800.0, 0.0])
        X = np.array([[1.0, 0.0]])
        assert task.batch_loss(theta, X, np.array([1.0])) == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(task.point_grads(theta, X, np.array([1.0]))))
        assert task.batch_loss(theta, X, np.array([-1.0])) == pytest.approx(800.0, rel=1e-12)
        assert task.point_grads(theta, X, np.array([-1.0]))[0] == pytest.approx(X[0], rel=1e-12)

    def test_linear_abs(self):
        task = get_task("linear_abs")
        theta = np.array([1.0, 2.0])
        X = np.array([[0.5, 0.25], [1.0, 0.0]])
        Y = np.array([3.0, 0.0])  # residuals -2 and +1
        assert task.point_grads(theta, X, Y) == pytest.approx(np.array([-X[0], X[1]]), rel=1e-12)
        assert task.batch_loss(theta, X[:1], Y[:1]) == pytest.approx(2.0, rel=1e-12)
        assert task.batch_loss(theta, X, Y) == pytest.approx((2.0 + 1.0) / 2, rel=1e-12)

    def test_zero_task(self):
        task = get_task("zero")
        X = np.ones((4, 3))
        assert task.batch_loss(np.ones(3), X, np.ones(4)) == 0.0
        assert np.array_equal(task.point_grads(np.ones(3), X, np.ones(4)), np.zeros((4, 3)))


def origin_cases():
    """(X, Y) pairs of finite data: random populations, all-negative rows
    (each product x_j * 0 is -0), one point, magnitudes near 1e+-300, labels
    of 0, -0 and outside {-1, +1}; labels of both signs make the logistic
    argument -y x.0 both +0 and -0."""
    gen = np.random.default_rng(27)
    cases = []
    for n, d in ((1, 1), (1, 5), (3, 2), (20, 4), (1000, 32), (20_000, 3)):
        X = gen.normal(size=(n, d))
        cases.append((X, gen.choice([-1.0, 1.0], size=n)))
        cases.append((-np.abs(X), gen.choice([-1.0, 1.0], size=n)))
        cases.append((X, gen.normal(scale=3.0, size=n)))
        cases.append((X * 1e300, gen.choice([-1.0, 1.0], size=n) * 1e300))
        cases.append((-np.abs(X) * 1e-300, gen.normal(size=n) * 1e-300))
        cases.append((X, np.zeros(n)))
        cases.append((-np.abs(X), -np.zeros(n)))
        cases.append((X, gen.choice([0.0, -0.0, 2.5, -7.0, 1e300, -1e-300], size=n)))
    cases.append((np.full((4, 2), -1e308), np.full(4, 1e308)))
    cases.append((np.array([[0.0, -0.0]]), np.array([-0.0])))
    return cases


class TestOriginLoss:
    @pytest.mark.parametrize("name", sorted(TASKS))
    def test_origin_loss_is_batch_loss_at_the_origin(self, name):
        task = TASKS[name]
        for X, Y in origin_cases():
            pop = Population(X, Y, np.arange(X.shape[0]))
            for features, labels in ((X, Y), (pop.features, pop.labels)):
                with np.errstate(over="ignore"):  # the 1e308 case's mean is inf on both paths
                    got = task.origin_loss(labels)
                    want = task.batch_loss(np.zeros(features.shape[1]), features, labels)
                assert type(got) is type(want)
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.filterwarnings("ignore::cldp.errors.ClippingWarning")
    def test_a_run_evaluates_the_full_dataset_loss_once_per_round(self, monkeypatch):
        points = []
        for name, task in list(TASKS.items()):
            def counted(theta, X, Y, batch_loss=task.batch_loss):
                points.append(X.shape[0])
                return batch_loss(theta, X, Y)

            monkeypatch.setitem(TASKS, name, dataclasses.replace(task, batch_loss=counted))
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=1)
        for name in TASKS:
            for T in (1, 4):
                points.clear()
                train(small_config(task=name, T=T), clients)
                assert points == [6 * 4] * T

    @pytest.mark.filterwarnings("ignore::cldp.errors.ClippingWarning")
    @pytest.mark.parametrize("name", sorted(TASKS))
    @pytest.mark.parametrize("epsilon0", [1.5, math.inf])
    def test_traces_are_those_of_the_loss_at_the_origin(self, monkeypatch, name, epsilon0):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=3)
        cfg = small_config(task=name, epsilon0=epsilon0)
        result = train(cfg, clients)
        task = TASKS[name]
        at_origin = dataclasses.replace(
            task, origin_loss=lambda Y: task.batch_loss(np.zeros(2), clients.features, Y)
        )
        monkeypatch.setitem(TASKS, name, at_origin)
        again = train(cfg, clients)
        assert repr(result.traces) == repr(again.traces)
        assert result.theta.tobytes() == again.theta.tobytes()


def one_round(cfg, clients):
    """Run a T=1 config; return its result and the round's step size."""
    result = train(cfg, clients)
    p = cfg.params
    big_g = math.sqrt(g_squared(1.0, cfg.ball.dim, cfg.ball.p, p.q, p.n, cfg.epsilon0))
    return result, cfg.diameter / big_g


# The same cases at s = 2 messages per client.
GOLDEN_TRACES_S2 = {
    "l1": (
        [(2, 3, 5), (1, 3, 4), (0, 1, 4), (0, 2, 3)],
        [18, 18, 18, 18],
        [0.6796199751548118, 0.6631509936524745, 0.6744673671844433, 0.6989178656535585],
    ),
    "l2": (
        [(2, 3, 5), (1, 3, 4), (0, 1, 4), (0, 2, 3)],
        [36, 36, 36, 36],
        [0.7333089623468658, 0.7237321395038211, 0.7049064746598672, 0.709627231123063],
    ),
    "linf": (
        [(2, 3, 5), (1, 3, 4), (0, 1, 4), (0, 2, 3)],
        [15, 15, 15, 15],
        [0.6663674813700304, 0.6832943037759825, 0.6635748380109331, 0.6692171464150037],
    ),
    "mix": (
        [(2, 3, 5), (1, 3, 4), (0, 1, 4), (0, 2, 3)],
        [30, 24, 27, 21],
        [0.8138896455607277, 0.8113456961617214, 0.7946979370502348, 0.7941804160536559],
    ),
    "raw": (
        [(2, 3, 5), (1, 3, 4), (0, 1, 4), (0, 2, 3)],
        [1152, 1152, 1152, 1152],
        [0.6837423299981128, 0.6759516337085056, 0.6740959070928213, 0.6718426625223525],
    ),
}


def clip_point(n=1, m=1):
    """m clients, each holding n copies of the point x=[3, 0], label 1: under
    linear_abs at theta=0 its gradient -x has l2 norm 3, so the unit clip
    shrinks it."""
    return Population(np.tile([[3.0, 0.0]], (m * n, 1)), np.ones(m * n), np.arange(m))


class TestLocalRound:
    """A sampled client's part of a round, checked through train."""

    def test_message_count_and_type(self):
        # r = s = 3 distinct points: the step averages exactly the 3 raw
        # messages, and the round pays for 3 of them.
        X = np.array([[0.6, 0.0], [0.0, -0.8], [0.3, 0.4]])
        client = Population(X, np.array([1.0, -1.0, 1.0]), [0])
        params = SamplingParams(m=1, k=1, r=3, s=3)
        cfg = small_config(params=params, T=1, epsilon0=math.inf)
        result, eta = one_round(cfg, client)
        grads = get_task("logistic").point_grads(np.zeros(2), X, client.labels)
        assert result.theta == pytest.approx(-eta * grads.mean(axis=0), rel=1e-12)
        assert result.traces[0].exact_bits == 3 * 64 * 2
        for ball, mix_prob in ((L2_BALL, None), (BallSpec(3.0, 1.0, 2), 0.5)):
            cfg = small_config(params=params, T=1, ball=ball, mix_prob=mix_prob)
            bits = train(cfg, client).traces[0].exact_bits
            spec = cfg.mechanism_spec()
            if mix_prob is None:
                assert bits == wire.client_round_bits_exact(spec, 3)
            else:
                arm_bits = [wire.message_payload_bits(m, spec) for m in (
                    MixTagged("L1", IndexSign(j=0, sign=1)),
                    MixTagged("L2", SparseSigned(pairs=((0, 1), (1, -1)))),
                )]
                assert bits in {i * arm_bits[0] + (3 - i) * arm_bits[1] for i in range(4)}

    @pytest.mark.filterwarnings("ignore::cldp.errors.ClippingWarning")  # clips on purpose
    def test_baseline_sends_exact_clipped_gradient(self):
        cfg = small_config(
            params=SamplingParams(m=1, k=1, r=1, s=1),
            T=1,
            epsilon0=math.inf,
            task="linear_abs",
        )
        result, eta = one_round(cfg, clip_point())
        # Raw gradient -x has l2 norm 3, clipped onto the unit ball.
        assert result.traces[0].grad_norm == pytest.approx(1.0, rel=1e-12)
        assert result.theta == pytest.approx([eta, 0.0], rel=1e-12)

    @pytest.mark.filterwarnings("ignore::cldp.errors.ClippingWarning")  # clips on purpose
    def test_private_messages_decode_to_clipped_gradient_on_average(self):
        # One round over n identical points: the mean of n clip-then-encode
        # messages is unbiased for the clipped gradient [-1, 0].
        n = 10_000
        cfg = small_config(
            params=SamplingParams(m=1, k=1, r=n, s=n),
            T=1,
            epsilon0=6.0,
            task="linear_abs",
            seed=1234,
        )
        result = train(cfg, clip_point(n))
        # theta = Pi(-eta g) points along -g, whether or not it was projected
        g = -result.theta / np.linalg.norm(result.theta) * result.traces[0].grad_norm
        assert g == pytest.approx([-1.0, 0.0], abs=0.12)


class TestShuffleAndAggregate:
    """The server's aggregate: batch_encoder's decode in a round,
    mean_estimate on messages, neither of which depends on the order."""

    def test_aggregate_counts_messages(self):
        spec = MechanismSpec(ball=BallSpec(p=1.0, radius=1.0, dim=2), epsilon0=1.0)
        encode = batch_encoder(np.zeros((3, 2)), spec)
        encode([0, 1, 2])
        with pytest.raises(ValidationError, match="equal blocks"):
            encode([0, 1])
        with pytest.raises(ValidationError, match="equal blocks"):
            encode([])

    def test_aggregate_order_invariant(self):
        spec = MechanismSpec(ball=BallSpec(p=1.0, radius=1.0, dim=4), epsilon0=1.0)
        gen = np.random.default_rng(2)
        msgs = [IndexSign(j=int(gen.integers(4)), sign=int(gen.choice([-1, 1]))) for _ in range(40)]
        forward = mean_estimate(msgs, spec)
        backward = mean_estimate(msgs[::-1], spec)
        assert forward == pytest.approx(backward, rel=1e-12)
        # the decoder sums signed counts, so the order cannot change a bit
        np.testing.assert_array_equal(forward, backward)

    def test_baseline_aggregate_averages_raw(self):
        spec = MechanismSpec(ball=L2_BALL, epsilon0=1.0)
        msgs = [RawVector(values=(1.0, 2.0)), RawVector(values=(3.0, 6.0))]
        assert mean_estimate(msgs, spec) == pytest.approx([2.0, 4.0], rel=1e-15)
        with pytest.raises(ValidationError):
            mean_estimate([], spec)


class TestTrain:
    def test_deterministic_given_seed(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=1)
        a = train(small_config(), clients)
        b = train(small_config(), clients)
        assert np.array_equal(a.theta, b.theta)
        assert a.traces == b.traces
        c = train(small_config(seed=8), clients)
        assert not np.array_equal(a.theta, c.theta)

    def test_baseline_zero_task_never_moves(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=1)
        cfg = small_config(task="zero", epsilon0=math.inf)
        result = train(cfg, clients)
        assert np.array_equal(result.theta, np.zeros(2))
        for trace in result.traces:
            assert trace.loss_before == 0.0
            assert trace.loss_after == 0.0
            assert trace.grad_norm == 0.0
            assert math.isinf(trace.epsilon_so_far)
        assert not result.budget.guarantee
        assert math.isnan(result.budget.epsilon)

    def test_baseline_single_client_update_is_exact(self):
        x = np.array([[0.6, 0.8]])
        client = Population(x, np.array([1.0]), [0])
        cfg = small_config(
            params=SamplingParams(m=1, k=1, r=1, s=1),
            T=1,
            epsilon0=math.inf,
        )
        result = train(cfg, client)
        grad = -0.5 * x[0]  # logistic gradient at theta = 0
        big_g = math.sqrt(1.0 + 14.0 * 2.0)  # G^2 with ratio = 1, q*n = 1
        eta = cfg.diameter / big_g
        assert result.theta == pytest.approx(-eta * grad, rel=1e-12)
        trace = result.traces[0]
        assert trace.grad_norm == pytest.approx(0.5, rel=1e-12)
        assert trace.exact_bits == 64 * 2
        assert trace.loss_before == pytest.approx(math.log(2.0), rel=1e-12)
        task = get_task("logistic")
        assert trace.loss_after == pytest.approx(
            task.batch_loss(result.theta, x, np.array([1.0])), rel=1e-12
        )

    def test_iterate_stays_in_constraint_ball(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=2)
        cfg = small_config(T=12, diameter=0.05)
        result = train(cfg, clients)
        assert np.linalg.norm(result.theta) <= 0.025 + 1e-12

    def test_bit_accounting_matches_wire(self):
        ball = BallSpec(p=1.0, radius=1.0, dim=2)
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=3)
        cfg = small_config(ball=ball, params=SamplingParams(m=6, k=3, r=4, s=1))
        spec = cfg.mechanism_spec()
        result = train(cfg, clients)
        per_client = wire.client_round_bits_exact(spec, 1)
        for trace in result.traces:
            assert trace.exact_bits == 3 * per_client

    def test_multi_sample_l2_bits_are_deterministic(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=4)
        cfg = small_config()  # s=2, l2 ball
        spec = cfg.mechanism_spec()
        result = train(cfg, clients)
        per_client = wire.client_round_bits_exact(spec, 2)
        for trace in result.traces:
            assert trace.exact_bits == 3 * per_client

    def test_clipping_warns(self):
        clients = clip_point(4, m=6)
        cfg = small_config(task="linear_abs")
        with pytest.warns(ClippingWarning):
            train(cfg, clients)

    def test_clipped_counts_per_round(self):
        # every gradient of the x=[3, 0] data is clipped: k*s = 6 per round
        clients = clip_point(4, m=6)
        with pytest.warns(ClippingWarning, match="100.0%"):
            result = train(small_config(task="linear_abs"), clients)
        assert [tr.clipped for tr in result.traces] == [6, 6, 6, 6]

    def test_no_clipping_warning_for_lipschitz_task(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClippingWarning)
            result = train(small_config(), clients)
        assert all(tr.clipped == 0 for tr in result.traces)

    @pytest.mark.filterwarnings("ignore::cldp.errors.ClippingWarning")  # radius 1 clips some
    def test_stream_layout_is_frozen(self):
        # Traces recorded when the per-(seed, client, round) streams were laid
        # out, at s = 1 and s = 2 messages per client. A change to the stream
        # layout or to a family's draw order re-rolls every run, including the
        # frozen seeds of the convergence criterion, and fails here first.
        clients, _ = synthetic_logistic_data(m=6, r=4, d=3, seed=12)
        for s, golden in ((1, GOLDEN_TRACES), (2, GOLDEN_TRACES_S2)):
            for name, (p, mix_prob, eps0) in STREAM_CASES.items():
                cfg = small_config(
                    params=SamplingParams(m=6, k=3, r=4, s=s),
                    ball=BallSpec(p=p, radius=1.0, dim=3),
                    mix_prob=mix_prob,
                    epsilon0=eps0,
                )
                ids, bits, losses = golden[name]
                traces = train(cfg, clients).traces
                assert [tr.client_ids for tr in traces] == ids, (s, name)
                assert [tr.exact_bits for tr in traces] == bits, (s, name)
                losses_after = [tr.loss_after for tr in traces]
                assert losses_after == pytest.approx(losses, rel=1e-12), (s, name)

    @pytest.mark.filterwarnings("ignore::cldp.errors.ClippingWarning")
    @pytest.mark.parametrize(
        "p, d, m, k, T",
        [
            (1.0, 32, 40, 8, 3),
            (1.0, 20, 40, 8, 3),
            (math.inf, 20, 40, 8, 3),
            (1.0, 32, 1000, 1000, 1),
        ],
        ids=["l1-d32", "l1-d20", "linf-d20", "l1-k1000"],
    )
    def test_lanes_run_what_generators_run(self, p, d, m, k, T, monkeypatch):
        # An index family at s = 1 draws its round on PCG64Lanes; forcing a
        # generator per stream instead must give the same run byte for byte:
        # traces, iterate and budget. The baseline draws its points on lanes too.
        clients, _ = synthetic_logistic_data(m=m, r=5, d=d, seed=d)
        for eps0 in (1.0, math.inf):
            cfg = small_config(
                params=SamplingParams(m=m, k=k, r=5, s=1),
                T=T,
                epsilon0=eps0,
                ball=BallSpec(p=p, radius=0.05, dim=d),
                seed=3,
            )
            assert training._on_lanes(cfg.mechanism_spec(), 1)
            lanes = train(cfg, clients)
            with monkeypatch.context() as patch:
                patch.setattr(training, "_on_lanes", lambda spec, s: False)
                gens = train(cfg, clients)
            assert repr(lanes.traces) == repr(gens.traces), eps0
            assert lanes.theta.tobytes() == gens.theta.tobytes(), eps0
            assert repr(lanes.budget) == repr(gens.budget), eps0
            assert 0 < sum(tr.clipped for tr in lanes.traces)

    def test_lanes_only_for_one_index_row_per_stream(self):
        # l2 and the mix draw normals, and s > 1 draws with choice: those
        # rounds keep a generator per stream.
        for p, mix_prob in ((1.0, None), (math.inf, None), (2.0, None), (3.0, 0.5)):
            spec = MechanismSpec(BallSpec(p, 1.0, 4), 1.0, mix_prob)
            index = mix_prob is None and p != 2.0
            assert training._on_lanes(spec, 1) == index
            assert not training._on_lanes(spec, 2)
        assert training._on_lanes(None, 1) and not training._on_lanes(None, 3)

    def test_accounted_run_reports_monotone_epsilon(self):
        clients, _ = synthetic_logistic_data(m=1000, r=1, d=2, seed=6)
        cfg = small_config(
            params=SamplingParams(m=1000, k=1000, r=1, s=1),
            T=2,
            epsilon0=0.3,
            account=True,
        )
        result = train(cfg, clients)
        assert result.budget.guarantee
        assert result.budget.delta == pytest.approx(1e-5, rel=1e-15)
        eps = [trace.epsilon_so_far for trace in result.traces]
        assert eps[0] < eps[1]
        assert eps[1] == pytest.approx(result.budget.epsilon, rel=1e-15)

    def test_accounted_run_marks_infeasible_early_rounds(self):
        # delta/(2qt) must stay below 1/100: at q=0.05, delta=1e-3 the first
        # round misses the cutoff but later rounds satisfy it.
        clients, _ = synthetic_logistic_data(m=1000, r=20, d=2, seed=7)
        cfg = small_config(
            params=SamplingParams(m=1000, k=1000, r=20, s=1),
            T=2,
            epsilon0=0.3,
            delta=1e-3,
            account=True,
        )
        result = train(cfg, clients)
        assert math.isnan(result.traces[0].epsilon_so_far)
        assert result.traces[1].epsilon_so_far == pytest.approx(result.budget.epsilon)

    def test_nan_rounds_are_explained_in_the_budget(self):
        # The configuration above: round 1 is NaN, and the run's provenance
        # says so after end_to_end's four lines.
        clients, _ = synthetic_logistic_data(m=1000, r=20, d=2, seed=7)
        params = SamplingParams(m=1000, k=1000, r=20, s=1)
        cfg = small_config(params=params, T=2, epsilon0=0.3, delta=1e-3, account=True)
        result = train(cfg, clients)
        *stages, reason = result.budget.provenance
        assert tuple(stages) == end_to_end(0.3, 1e-3, 2, params, cfg.variant).provenance
        with pytest.raises(PreconditionError) as failure:
            end_to_end(0.3, 1e-3, 1, params, cfg.variant)
        assert reason.startswith("epsilon_so_far is NaN for rounds 1: ")
        assert str(failure.value) in reason

    def test_unamplified_client_sampling_warns_once(self):
        # s = 2 with k < m: the run's budget and its schedule's two earlier
        # rounds all use q2, and the run says so once.
        clients, _ = synthetic_logistic_data(m=2000, r=4, d=2, seed=7)
        params = SamplingParams(m=2000, k=1000, r=4, s=2)
        cfg = small_config(params=params, T=3, epsilon0=0.3, delta=1e-6, account=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train(cfg, clients)
        assert [w.category for w in caught].count(AmplificationWarning) == 1

    def test_accounted_run_fails_fast_when_infeasible(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=8)
        cfg = small_config(account=True, params=SamplingParams(m=6, k=3, r=4, s=1))
        with pytest.raises(PreconditionError):
            train(cfg, clients)  # batch of 3 << 1000, explicit bound invalid

    def test_unaccounted_run_has_nan_epsilon(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=9)
        result = train(small_config(), clients)
        assert not result.budget.guarantee
        assert all(math.isnan(t.epsilon_so_far) for t in result.traces)

    def test_messages_carry_no_client_identity(self):
        # Swapping two clients' rows together with their streams leaves the
        # decoded mean bit for bit unchanged: the server learns the multiset.
        gen = np.random.default_rng(3)
        rows = gen.uniform(-0.4, 0.4, size=(6, 3))
        swapped = np.concatenate([rows[2:4], rows[:2], rows[4:]])
        specs = (
            MechanismSpec(BallSpec(1.0, 1.5, 3), epsilon0=1.0),
            MechanismSpec(BallSpec(2.0, 1.0, 3), epsilon0=1.0),
            MechanismSpec(BallSpec(math.inf, 1.0, 3), epsilon0=1.0),
            MechanismSpec(BallSpec(3.0, 1.0, 3), epsilon0=1.0, mix_prob=0.5),
        )
        for spec in specs:
            a = batch_encoder(rows, spec)([np.random.default_rng(i) for i in (0, 1, 2)])
            b = batch_encoder(swapped, spec)([np.random.default_rng(i) for i in (1, 0, 2)])
            np.testing.assert_array_equal(a[0], b[0])
            assert a[1] == b[1]


class TestTrainConfigValidation:
    def test_rejects_bad_fields(self):
        good = dict(
            params=SamplingParams(m=6, k=3, r=4, s=2),
            T=4,
            epsilon0=1.5,
            delta=1e-5,
            ball=L2_BALL,
            diameter=2.0,
        )
        for bad in (
            dict(seed=-1),
            dict(seed="x"),
            dict(seed=1.5),
            dict(seed=True),
            dict(T=0),
            dict(epsilon0=0.0),
            dict(delta=1.0),
            dict(diameter=0.0),
            dict(task="nope"),
        ):
            with pytest.raises(ValidationError):
                TrainConfig(**{**good, **bad})

    def test_intermediate_p_needs_mix_prob(self):
        ball = BallSpec(p=4.0, radius=1.0, dim=2)
        with pytest.raises(ValidationError):
            small_config(ball=ball)
        small_config(ball=ball, mix_prob=0.5)  # resolves fine
        small_config(ball=ball, epsilon0=math.inf)  # baseline ignores family

    def test_baseline_runs_alike_with_a_valid_mix_prob(self):
        # The baseline builds no spec, so it checks mix_prob itself; a valid one
        # sends nothing and leaves the run bit for bit as it was.
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=8)
        ball = BallSpec(p=4.0, radius=1.0, dim=2)
        plain = train(small_config(ball=ball, epsilon0=math.inf), clients)
        mixed = train(small_config(ball=ball, epsilon0=math.inf, mix_prob=0.5), clients)
        assert mixed.traces == plain.traces
        assert mixed.theta.tobytes() == plain.theta.tobytes()


@st.composite
def dataset_bytes(draw):
    """Arbitrary bytes, CSV-like text, or a binary header with its body."""
    kind = draw(st.sampled_from(["bytes", "csv", "binary"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "csv":
        cell = st.text(alphabet="01-.e5xn,\r\n\"\x00\xe9", max_size=6)
        rows = draw(st.lists(st.lists(cell, min_size=1, max_size=4), max_size=4))
        header = draw(st.sampled_from(["client_id,x0,label", "client_id,x0,x1,label", "id,label"]))
        text = header + "\n" + "\n".join(",".join(row) for row in rows)
        return text.encode(draw(st.sampled_from(["utf-8", "latin-1"])))
    m, r, d = (draw(st.integers(0, 3)) for _ in range(3))
    size = m * r * (d + 1) * 8 + draw(st.sampled_from([0, 0, -8, 3]))
    body = draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))
    return b"CLDPDS01" + struct.pack(">III", m, r, d) + body


class TestDatasetIO:
    def test_synthetic_shapes_and_determinism(self):
        clients, theta_star = synthetic_logistic_data(m=3, r=5, d=4, seed=42)
        assert len(clients) == 3
        assert all(c.r == 5 and c.d == 4 for c in clients)
        assert np.linalg.norm(theta_star) == pytest.approx(1.5, rel=1e-12)
        again, theta_again = synthetic_logistic_data(m=3, r=5, d=4, seed=42)
        assert np.array_equal(theta_star, theta_again)
        assert all(
            np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
            for a, b in zip(clients, again)
        )
        X, Y = clients.features, clients.labels
        assert X.shape == (15, 4)
        assert set(np.unique(Y)) <= {-1.0, 1.0}
        assert np.linalg.norm(X, axis=1) == pytest.approx(np.ones(15), rel=1e-12)

    def test_binary_roundtrip_exact(self, tmp_path):
        clients, _ = synthetic_logistic_data(m=3, r=2, d=2, seed=0)
        path = tmp_path / "data.bin"
        save_dataset_binary(path, clients)
        loaded = load_dataset(path)
        assert len(loaded) == 3
        for a, b in zip(clients, loaded):
            assert np.array_equal(a.client_ids, b.client_ids)
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADATA" + b"\x00" * 24)
        with pytest.raises(ValidationError, match="unexpected CSV header"):
            load_dataset(path)  # no magic: read as the CSV alternative

    def test_binary_rejects_truncation(self, tmp_path):
        clients, _ = synthetic_logistic_data(m=2, r=2, d=2, seed=0)
        path = tmp_path / "data.bin"
        save_dataset_binary(path, clients)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="bytes"):
            load_dataset(path)

    def test_csv_roundtrip_exact(self, tmp_path):
        clients, _ = synthetic_logistic_data(m=2, r=3, d=2, seed=1)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, clients)
        header = path.read_text().splitlines()[0]
        assert header == "client_id,x0,x1,label"
        loaded = load_dataset(path)
        for a, b in zip(clients, loaded):
            assert np.array_equal(a.features, b.features)  # repr() roundtrips floats
            assert np.array_equal(a.labels, b.labels)

    def test_csv_rejects_unequal_clients(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "client_id,x0,label\n0,1.0,1.0\n0,2.0,-1.0\n1,3.0,1.0\n"
        )
        with pytest.raises(ValidationError, match="unequal"):
            load_dataset(path)

    def test_csv_rejects_interleaved_clients(self, tmp_path):
        # A client's rows are contiguous: rows 0, 1, 0, 1 are not regrouped
        # into the features [1, 3, 2, 4].
        path = tmp_path / "interleaved.csv"
        path.write_text("client_id,x0,label\n0,1.0,1.0\n1,2.0,1.0\n0,3.0,1.0\n1,4.0,1.0\n")
        with pytest.raises(ValidationError, match="rows of client 0 are not contiguous"):
            load_dataset(path)

    def test_load_dataset_reads_once_and_picks_the_format(self, tmp_path, monkeypatch):
        clients, _ = synthetic_logistic_data(m=2, r=3, d=2, seed=1)
        reads, read_bytes = [], fdata._read_bytes
        monkeypatch.setattr(fdata, "_read_bytes", lambda p: reads.append(p) or read_bytes(p))
        for name, save in (("data.bin", save_dataset_binary), ("data.csv", save_dataset_csv)):
            save(tmp_path / name, clients)
            assert load_dataset(tmp_path / name) == clients
        assert reads == [tmp_path / "data.bin", tmp_path / "data.csv"]

    @pytest.mark.parametrize(
        "body",
        ["a,1.0,1.0\n", "1.5,1.0,1.0\n", "0,x,1.0\n", "0,1.0,\n", "0,1.0,nan\n"],
    )
    def test_csv_rejects_non_numeric_fields(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("client_id,x0,label\n" + body)
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_unreadable_files_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_dataset(tmp_path / "missing")
        with pytest.raises(ValidationError, match="cannot read"):
            load_dataset(tmp_path)  # a directory
        path = tmp_path / "latin1.csv"
        path.write_bytes("client_id,x\xe9,label\n0,1.0,1.0\n".encode("latin-1"))
        with pytest.raises(ValidationError, match="utf-8"):
            load_dataset(path)

    @given(blob=dataset_bytes())
    def test_loader_fuzz(self, blob):
        # any bytes load as datasets or raise ValidationError, never another error
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data")
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                clients = load_dataset(path)
            except ValidationError:
                return
            assert isinstance(clients, Population) and len(clients) >= 1

    def test_validate_clients(self):
        # The one data check: a Population, of the expected (m, r, d).
        clients, _ = synthetic_logistic_data(m=3, r=2, d=2, seed=2)
        assert _require_population(clients, (3, 2, 2)) is clients
        for shape in ((4, 2, 2), (3, 5, 2), (3, 2, 7)):
            m, r, d = shape
            wrong = rf"expected {m} clients of \({r}, {d}\) data, got 3 of \(2, 2\)"
            with pytest.raises(ValidationError, match=wrong):
                _require_population(clients, shape)
        with pytest.raises(ValidationError, match="must be a Population"):
            _require_population(list(clients), (3, 2, 2))

    def test_client_dataset_is_immutable(self):
        clients, _ = synthetic_logistic_data(m=1, r=2, d=2, seed=3)
        with pytest.raises(ValueError):
            clients[0].features[0, 0] = 99.0

    def test_client_dataset_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Population(np.zeros((2, 2)), np.zeros(3), [0])


class TestPopulation:
    """One stacked matrix of all clients' points: checked once, read in place."""

    def test_traces_name_the_id_array(self):
        # Client ids need not be positions: a trace reads them from the ids.
        pop, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=1)
        relabeled = Population(pop.features, pop.labels, 10 * pop.client_ids + 7)
        traces = train(small_config(), relabeled).traces
        positional = train(small_config(), pop).traces
        for tr, pos in zip(traces, positional):
            assert tr.client_ids == tuple(10 * i + 7 for i in pos.client_ids)

    def test_clients_are_read_only_views(self):
        pop, _ = synthetic_logistic_data(m=4, r=3, d=2, seed=1)
        assert (len(pop), pop.r, pop.d, pop.features.shape) == (4, 3, 2, (12, 2))
        for arr in (pop.features, pop.labels, pop.client_ids):
            assert not arr.flags.writeable and arr.flags.c_contiguous
        for i, client in enumerate(pop):
            # A client is a one-client Population over its rows, not a copy.
            assert isinstance(client, Population) and len(client) == 1
            assert client.client_ids.tolist() == [i] and (client.r, client.d) == (3, 2)
            for name in ("features", "labels", "client_ids"):
                arr = getattr(client, name)
                assert np.shares_memory(arr, getattr(pop, name))
                assert not arr.flags.writeable and arr.flags.c_contiguous
            np.testing.assert_array_equal(client.features, pop.features[3 * i : 3 * i + 3])
            np.testing.assert_array_equal(client.labels, pop.labels[3 * i : 3 * i + 3])
            with pytest.raises(ValueError):
                client.features[0, 0] = 99.0
        assert [c.client_ids[0] for c in pop[1:3]] == [1, 2] and pop[-1].client_ids[0] == 3
        with pytest.raises(IndexError):
            pop[4]
        # The benchmark rebuilds the matrix from the clients; it must be the same.
        np.testing.assert_array_equal(np.concatenate([c.features for c in pop]), pop.features)
        np.testing.assert_array_equal(np.concatenate([c.labels for c in pop]), pop.labels)

    def test_clients_compare_by_value(self):
        # Equal arrays make equal populations, so a client is found in its
        # population: the comparisons never ask an array for one truth value.
        pop, _ = synthetic_logistic_data(m=4, r=3, d=2, seed=1)
        assert pop[1] == pop[1] and pop[0] != pop[1]
        assert pop[1] in pop and pop.index(pop[2]) == 2 and pop.count(pop[3]) == 1
        again, _ = synthetic_logistic_data(m=4, r=3, d=2, seed=1)
        assert again == pop and again[1:] == pop[1:]
        assert pop != synthetic_logistic_data(m=4, r=3, d=2, seed=2)[0]
        assert pop[0] != pop.features[:3] and pop != 0
        moved = Population(pop.features, pop.labels, pop.client_ids + 1)
        assert moved != pop and moved[0] != pop[0]

    def test_constructor_checks_the_arrays(self):
        feats = np.zeros((6, 2))
        feats[4, 1] = np.nan
        with pytest.raises(ValidationError, match="client 2: non-finite data"):
            Population(feats, np.ones(6), np.arange(3))
        for bad in (
            (np.zeros((5, 2)), np.ones(5), np.arange(3)),  # 5 points for 3 clients
            (np.zeros((2, 2)), np.ones(2), np.arange(3)),  # fewer points than clients
            (np.zeros((6, 2)), np.ones(5), np.arange(3)),
            (np.zeros(6), np.ones(6), np.arange(3)),
            (np.zeros((6, 2)), np.ones(6), np.array([0.0, 1.0, 2.0])),
            (np.zeros((6, 2)), np.ones(6), np.arange(0)),
            (np.zeros((6, 2)), np.ones(6), [2**70, 0, 1]),
            (np.zeros((6, 2)), np.ones(6), [[0], [1, 2]]),  # ragged ids
            ("x", np.ones(6), np.arange(3)),
        ):
            with pytest.raises(ValidationError):
                Population(*bad)

    def test_binary_loader_names_a_non_finite_client(self, tmp_path):
        pop, _ = synthetic_logistic_data(m=3, r=2, d=2, seed=0)
        path = tmp_path / "data.bin"
        save_dataset_binary(path, pop)
        blob = bytearray(path.read_bytes())
        record = 8 + 12 + 2 * 3 * 8  # magic, header, client 0's two records of 3 values
        blob[record : record + 8] = struct.pack(">d", math.inf)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="client 1: non-finite data"):
            load_dataset(path)
