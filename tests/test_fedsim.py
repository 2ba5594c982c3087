"""Federated training loop: sampling, tasks, rounds, aggregation, dataset IO."""

import math

import numpy as np
import pytest

import cldp.wire as wire
from cldp.accountant import SamplingParams
from cldp.errors import ClippingWarning, PreconditionError, ValidationError
from cldp.fedsim import (
    ClientDataset,
    TRACE_COLUMNS,
    TrainConfig,
    aggregate,
    get_task,
    load_dataset_binary,
    load_dataset_csv,
    local_round,
    sample_clients,
    sample_data,
    save_dataset_binary,
    save_dataset_csv,
    shuffle,
    stack_points,
    synthetic_logistic_data,
    train,
    validate_clients,
    write_trace_csv,
)
from cldp.fedsim.tasks import TASKS
from cldp.linalg import BallSpec
from cldp.mechanisms import IndexSign, MechanismSpec, RawVector, decode_message

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
            loss, grad = task.point_loss_grad(np.zeros(2), x, y)
            assert loss == pytest.approx(math.log(2.0), rel=1e-12)
            assert grad == pytest.approx(-(y / 2.0) * x, rel=1e-12)

    def test_logistic_gradient_matches_finite_differences(self):
        task = get_task("logistic")
        gen = np.random.default_rng(4)
        for _ in range(20):
            theta = gen.normal(size=3)
            x = gen.normal(size=3)
            y = float(gen.choice([-1.0, 1.0]))
            _, grad = task.point_loss_grad(theta, x, y)
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                up, _ = task.point_loss_grad(theta + e, x, y)
                down, _ = task.point_loss_grad(theta - e, x, y)
                numeric = (up - down) / (2 * h)
                assert grad[j] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_logistic_gradient_norm_bounded_by_feature_norm(self):
        task = get_task("logistic")
        gen = np.random.default_rng(5)
        for _ in range(100):
            theta = gen.normal(size=4) * 3
            x = gen.normal(size=4)
            x /= np.linalg.norm(x)
            _, grad = task.point_loss_grad(theta, x, float(gen.choice([-1.0, 1.0])))
            assert np.linalg.norm(grad) <= 1.0 + 1e-12

    def test_logistic_batch_is_pointwise_mean(self):
        task = get_task("logistic")
        gen = np.random.default_rng(6)
        X = gen.normal(size=(9, 3))
        Y = gen.choice([-1.0, 1.0], size=9)
        theta = gen.normal(size=3)
        losses, grads = zip(
            *(task.point_loss_grad(theta, x, float(y)) for x, y in zip(X, Y))
        )
        assert task.batch_loss(theta, X, Y) == pytest.approx(np.mean(losses), rel=1e-12)
        assert task.batch_grad(theta, X, Y) == pytest.approx(
            np.mean(grads, axis=0), rel=1e-12
        )

    def test_logistic_is_stable_at_extreme_margins(self):
        task = get_task("logistic")
        x = np.array([1.0, 0.0])
        loss, grad = task.point_loss_grad(np.array([800.0, 0.0]), x, 1.0)
        assert loss == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(grad))
        loss, grad = task.point_loss_grad(np.array([800.0, 0.0]), x, -1.0)
        assert loss == pytest.approx(800.0, rel=1e-12)
        assert grad == pytest.approx(x, rel=1e-12)

    def test_linear_abs(self):
        task = get_task("linear_abs")
        theta = np.array([1.0, 2.0])
        x = np.array([0.5, 0.25])
        loss, grad = task.point_loss_grad(theta, x, 3.0)  # residual -2
        assert loss == pytest.approx(2.0, rel=1e-12)
        assert grad == pytest.approx(-x, rel=1e-12)
        X = np.array([[0.5, 0.25], [1.0, 0.0]])
        Y = np.array([3.0, 0.0])
        assert task.batch_loss(theta, X, Y) == pytest.approx((2.0 + 1.0) / 2, rel=1e-12)

    def test_zero_task(self):
        task = get_task("zero")
        loss, grad = task.point_loss_grad(np.ones(3), np.ones(3), 1.0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(3))


class TestLocalRound:
    def test_message_count_and_type(self):
        clients, _ = synthetic_logistic_data(m=1, r=5, d=2, seed=0)
        cfg = small_config(params=SamplingParams(m=1, k=1, r=5, s=3))
        msgs = local_round(clients[0], np.zeros(2), cfg, np.random.default_rng(0))
        assert len(msgs) == 3

    def test_baseline_sends_exact_clipped_gradient(self):
        x = np.array([[3.0, 0.0]])
        client = ClientDataset(client_id=0, features=x, labels=np.array([1.0]))
        cfg = small_config(
            params=SamplingParams(m=1, k=1, r=1, s=1),
            epsilon0=math.inf,
            task="linear_abs",
        )
        msgs = local_round(client, np.zeros(2), cfg, np.random.default_rng(0))
        assert len(msgs) == 1
        assert isinstance(msgs[0], RawVector)
        # Raw gradient -x has l2 norm 3, clipped onto the unit ball.
        assert np.asarray(msgs[0].values) == pytest.approx([-1.0, 0.0], rel=1e-12)

    def test_private_messages_decode_to_clipped_gradient_on_average(self):
        x = np.array([[3.0, 0.0]])
        client = ClientDataset(client_id=0, features=x, labels=np.array([1.0]))
        cfg = small_config(
            params=SamplingParams(m=1, k=1, r=1, s=1),
            epsilon0=6.0,
            task="linear_abs",
        )
        spec = cfg.mechanism_spec()
        gen = np.random.default_rng(1234)
        total = np.zeros(2)
        n = 10_000
        for _ in range(n):
            (msg,) = local_round(client, np.zeros(2), cfg, gen)
            total += decode_message(msg, spec)
        assert total / n == pytest.approx([-1.0, 0.0], abs=0.12)


class TestShuffleAndAggregate:
    def test_multiset_preserved(self):
        msgs = [IndexSign(j=j, sign=1) for j in range(5)]
        out = shuffle(msgs, np.random.default_rng(0))
        assert sorted(m.j for m in out) == list(range(5))

    def test_permutations_uniform(self):
        msgs = [IndexSign(j=j, sign=1) for j in range(3)]
        gen = np.random.default_rng(1)
        counts: dict[tuple, int] = {}
        trials = 6000
        for _ in range(trials):
            order = tuple(m.j for m in shuffle(msgs, gen))
            counts[order] = counts.get(order, 0) + 1
        assert len(counts) == 6
        sigma = math.sqrt((1 / 6) * (5 / 6) / trials)
        for count in counts.values():
            assert abs(count / trials - 1 / 6) <= 4 * sigma

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            shuffle([], np.random.default_rng(0))

    def test_aggregate_counts_messages(self):
        spec = MechanismSpec(ball=BallSpec(p=1.0, radius=1.0, dim=2), epsilon0=1.0)
        msgs = [IndexSign(j=0, sign=1), IndexSign(j=1, sign=-1)]
        aggregate(msgs, spec, expected_count=2)
        with pytest.raises(ValidationError, match="expected 3"):
            aggregate(msgs, spec, expected_count=3)

    def test_aggregate_order_invariant(self):
        spec = MechanismSpec(ball=BallSpec(p=1.0, radius=1.0, dim=4), epsilon0=1.0)
        gen = np.random.default_rng(2)
        msgs = [IndexSign(j=int(gen.integers(4)), sign=int(gen.choice([-1, 1]))) for _ in range(40)]
        forward = aggregate(msgs, spec)
        backward = aggregate(msgs[::-1], spec)
        assert forward == pytest.approx(backward, rel=1e-12)
        # the decoder sums signed counts, so the order cannot change a bit
        np.testing.assert_array_equal(forward, backward)

    def test_baseline_aggregate_averages_raw(self):
        msgs = [RawVector(values=(1.0, 2.0)), RawVector(values=(3.0, 6.0))]
        assert aggregate(msgs, None) == pytest.approx([2.0, 4.0], rel=1e-15)
        with pytest.raises(ValidationError):
            aggregate([IndexSign(j=0, sign=1)], None)
        with pytest.raises(ValidationError):
            aggregate([], None)


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
        client = ClientDataset(client_id=0, features=x, labels=np.array([1.0]))
        cfg = small_config(
            params=SamplingParams(m=1, k=1, r=1, s=1),
            T=1,
            epsilon0=math.inf,
        )
        result = train(cfg, [client])
        grad = -0.5 * x[0]  # logistic gradient at theta = 0
        big_g = math.sqrt(1.0 + 14.0 * 2.0)  # G^2 with ratio = 1, q*n = 1
        eta = cfg.diameter / big_g
        assert result.theta == pytest.approx(-eta * grad, rel=1e-12)
        trace = result.traces[0]
        assert trace.grad_norm == pytest.approx(0.5, rel=1e-12)
        assert trace.exact_bits == 64 * 2
        assert trace.expected_bits == pytest.approx(64 * 2, rel=1e-15)
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
            assert trace.expected_bits == pytest.approx(3 * per_client, rel=1e-15)
        # Cross-check against the per-client expectation over a whole round:
        # m clients each pay (k/m)*b on average, so the round total is k*b.
        rate = wire.expected_bits_per_client(cfg.params, b=per_client, T=1)
        assert rate.exact * 6 == pytest.approx(result.traces[0].expected_bits, rel=1e-15)

    def test_multi_sample_l2_bits_are_deterministic(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=4)
        cfg = small_config()  # s=2, l2 ball
        spec = cfg.mechanism_spec()
        result = train(cfg, clients)
        per_client = wire.client_round_bits_exact(spec, 2)
        for trace in result.traces:
            assert trace.exact_bits == 3 * per_client

    def test_clipping_warns(self):
        feats = np.tile(np.array([[3.0, 0.0]]), (4, 1))
        clients = [
            ClientDataset(client_id=i, features=feats, labels=np.ones(4)) for i in range(6)
        ]
        cfg = small_config(task="linear_abs")
        with pytest.warns(ClippingWarning):
            train(cfg, clients)

    def test_no_clipping_warning_for_lipschitz_task(self):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=5)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", ClippingWarning)
            train(small_config(), clients)

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
        clients, _ = synthetic_logistic_data(m=1, r=5, d=2, seed=10)
        cfg = small_config(params=SamplingParams(m=1, k=1, r=5, s=2))
        msgs = local_round(clients[0], np.zeros(2), cfg, np.random.default_rng(0))
        for msg in msgs:
            assert not hasattr(msg, "client_id")

    def test_trace_csv(self, tmp_path):
        clients, _ = synthetic_logistic_data(m=6, r=4, d=2, seed=11)
        result = train(small_config(T=3), clients)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.traces)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == list(TRACE_COLUMNS)
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert len(first[1].split(";")) == 3  # k sampled clients
        assert float(first[3]) == pytest.approx(result.traces[0].loss_after)


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
            dict(T=0),
            dict(epsilon0=0.0),
            dict(delta=1.0),
            dict(diameter=0.0),
            dict(task="nope"),
            dict(clip_warn_frac=2.0),
        ):
            with pytest.raises(ValidationError):
                TrainConfig(**{**good, **bad})

    def test_intermediate_p_needs_mix_prob(self):
        ball = BallSpec(p=4.0, radius=1.0, dim=2)
        with pytest.raises(ValidationError):
            small_config(ball=ball)
        small_config(ball=ball, mix_prob=0.5)  # resolves fine
        small_config(ball=ball, epsilon0=math.inf)  # baseline ignores family


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
        X, Y = stack_points(clients)
        assert X.shape == (15, 4)
        assert set(np.unique(Y)) <= {-1.0, 1.0}
        assert np.linalg.norm(X, axis=1) == pytest.approx(np.ones(15), rel=1e-12)

    def test_binary_roundtrip_exact(self, tmp_path):
        clients, _ = synthetic_logistic_data(m=3, r=2, d=2, seed=0)
        path = tmp_path / "data.bin"
        save_dataset_binary(path, clients)
        loaded = load_dataset_binary(path)
        assert len(loaded) == 3
        for a, b in zip(clients, loaded):
            assert a.client_id == b.client_id
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADATA" + b"\x00" * 24)
        with pytest.raises(ValidationError, match="magic"):
            load_dataset_binary(path)

    def test_binary_rejects_truncation(self, tmp_path):
        clients, _ = synthetic_logistic_data(m=2, r=2, d=2, seed=0)
        path = tmp_path / "data.bin"
        save_dataset_binary(path, clients)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="bytes"):
            load_dataset_binary(path)

    def test_csv_roundtrip_exact(self, tmp_path):
        clients, _ = synthetic_logistic_data(m=2, r=3, d=2, seed=1)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, clients)
        header = path.read_text().splitlines()[0]
        assert header == "client_id,x0,x1,label"
        loaded = load_dataset_csv(path)
        for a, b in zip(clients, loaded):
            assert np.array_equal(a.features, b.features)  # repr() roundtrips floats
            assert np.array_equal(a.labels, b.labels)

    def test_csv_rejects_unequal_clients(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "client_id,x0,label\n0,1.0,1.0\n0,2.0,-1.0\n1,3.0,1.0\n"
        )
        with pytest.raises(ValidationError, match="unequal"):
            load_dataset_csv(path)

    def test_validate_clients(self):
        clients, _ = synthetic_logistic_data(m=3, r=2, d=2, seed=2)
        validate_clients(clients, 3, 2, 2)
        with pytest.raises(ValidationError):
            validate_clients(clients, 4, 2, 2)
        with pytest.raises(ValidationError):
            validate_clients(clients, 3, 5, 2)
        with pytest.raises(ValidationError):
            validate_clients(clients, 3, 2, 7)

    def test_client_dataset_is_immutable(self):
        clients, _ = synthetic_logistic_data(m=1, r=2, d=2, seed=3)
        with pytest.raises(ValueError):
            clients[0].features[0, 0] = 99.0

    def test_client_dataset_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ClientDataset(client_id=0, features=np.zeros((2, 2)), labels=np.zeros(3))
