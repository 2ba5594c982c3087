"""Acceptance gate: eleven numbered end-to-end criteria, one line each.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible under
``pytest -v -s``) and enforces its stated tolerance; criteria with a runtime
budget assert it. Stochastic criteria run on frozen seeds whose margins were
verified against the sampling noise, so reruns are deterministic.
"""

import contextlib
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from cldp import cli, wire
from cldp import mechanisms as mech
from cldp.accountant import (
    ClonesShuffling,
    ExplicitShuffling,
    SamplingParams,
    amplify_by_subsampling,
    end_to_end,
    strong_composition,
)
from cldp.bounds import comm_adversary
from cldp.errors import AmplificationWarning
from cldp.fedsim import TrainConfig, synthetic_logistic_data, train
from cldp.fedsim.training import sample_clients
from cldp.linalg import BallSpec, project_l2_ball
from oracle_accountant import oracle_end_to_end, oracle_subsample

SEED = 20260813


@contextlib.contextmanager
def criterion(num, label, budget_s=None):
    """Time a criterion body and print exactly one PASS/FAIL line for it."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:2d}: FAIL  {label}")
        raise
    dt = time.perf_counter() - t0
    print(f"\ncriterion {num:2d}: PASS  {label} [{dt:.2f}s]")
    if budget_s is not None:
        assert dt < budget_s, f"criterion {num} took {dt:.1f}s, budget {budget_s:g}s"


def sample_in_ball(rng, p, d, a):
    """A random point strictly inside the radius-``a`` l_p ball."""
    scale = a * rng.uniform(0.05, 0.999)
    if p == 1.0:
        x = rng.dirichlet(np.ones(d)) * rng.choice([-1.0, 1.0], size=d)
        return scale * x
    if math.isinf(p):
        return rng.uniform(-scale, scale, size=d)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x, ord=p)
    return scale * x


def _atom_probabilities(ball_p):
    if ball_p == 1.0:
        return mech.r1_atom_probabilities
    return mech.rinf_atom_probabilities


# ---------------------------------------------------------------------------
# 1. Exact unbiasedness of the enumerable mechanisms
# ---------------------------------------------------------------------------


def test_criterion_01_exact_unbiasedness():
    with criterion(1, "enumerated R1/Rinf expectation equals the input to 1e-10", 5.0):
        rng = np.random.default_rng(SEED + 1)
        eps_cycle = (0.5, 1.0, math.log(3.0), 3.0)
        for d in (1, 2, 4, 8, 16):
            for ball_p in (1.0, math.inf):
                probs_fn = _atom_probabilities(ball_p)
                for i in range(50):
                    a = float(rng.uniform(0.5, 2.0))
                    spec = mech.MechanismSpec(
                        BallSpec(p=ball_p, radius=a, dim=d),
                        epsilon0=eps_cycle[i % len(eps_cycle)],
                    )
                    x = sample_in_ball(rng, ball_p, d, a)
                    probs = probs_fn(x, spec)
                    assert math.isclose(sum(probs.values()), 1.0, rel_tol=1e-12)
                    mean = np.zeros(d)
                    for (j, sign), pr in probs.items():
                        mean += pr * mech.decode_message(mech.IndexSign(j, sign), spec)
                    assert np.max(np.abs(mean - x)) < 1e-10


# ---------------------------------------------------------------------------
# 2. Exact local privacy ratio
# ---------------------------------------------------------------------------


def test_criterion_02_ldp_ratio():
    with criterion(2, "every atom probability ratio is at most e^eps0*(1+1e-9)", 5.0):
        rng = np.random.default_rng(SEED + 2)
        for ball_p in (1.0, math.inf):
            probs_fn = _atom_probabilities(ball_p)
            for eps0 in (0.1, 1.0, math.log(3.0), 5.0):
                bound = math.exp(eps0) * (1.0 + 1e-9)
                for _ in range(100):
                    d = int(rng.integers(1, 17))
                    a = float(rng.uniform(0.5, 2.0))
                    spec = mech.MechanismSpec(
                        BallSpec(p=ball_p, radius=a, dim=d), epsilon0=eps0
                    )
                    pa = probs_fn(sample_in_ball(rng, ball_p, d, a), spec)
                    pb = probs_fn(sample_in_ball(rng, ball_p, d, a), spec)
                    assert pa.keys() == pb.keys()
                    for key, pr in pa.items():
                        assert pr <= bound * pb[key]


# ---------------------------------------------------------------------------
# 3. Second-moment ceilings
# ---------------------------------------------------------------------------


def test_criterion_03_second_moments():
    with criterion(
        3, "exact a^2*d*ratio^2 / a^2*d^2*ratio^2 moments; R2 MC under 6a^2d*ratio^2", 60.0
    ):
        rng = np.random.default_rng(SEED + 3)
        for d, a, eps0 in ((2, 1.0, 1.0), (3, 1.3, math.log(3.0)), (8, 1.0, 2.0), (16, 0.7, 1.0)):
            rho2 = mech.privacy_ratio(eps0) ** 2
            spec1 = mech.MechanismSpec(BallSpec(p=1.0, radius=a, dim=d), epsilon0=eps0)
            x1 = sample_in_ball(rng, 1.0, d, a)
            m2 = sum(
                pr * float(np.sum(mech.decode_message(mech.IndexSign(j, sign), spec1) ** 2))
                for (j, sign), pr in mech.r1_atom_probabilities(x1, spec1).items()
            )
            assert math.isclose(m2, a * a * d * rho2, rel_tol=1e-12)

            specinf = mech.MechanismSpec(
                BallSpec(p=math.inf, radius=a, dim=d), epsilon0=eps0
            )
            xinf = sample_in_ball(rng, math.inf, d, a)
            m2 = sum(
                pr * float(np.sum(mech.decode_message(mech.IndexSign(j, sign), specinf) ** 2))
                for (j, sign), pr in mech.rinf_atom_probabilities(xinf, specinf).items()
            )
            assert math.isclose(m2, a * a * d * d * rho2, rel_tol=1e-12)

        for d, a, eps0 in ((8, 1.0, 1.0), (4, 1.3, 2.0)):
            spec2 = mech.MechanismSpec(BallSpec(p=2.0, radius=a, dim=d), epsilon0=eps0)
            x = rng.standard_normal(d)
            x *= 0.9 * a / np.linalg.norm(x)
            decoded = mech.sample_decoded(x, spec2, rng, 1_000_000)
            m2 = float(np.mean(np.sum(decoded**2, axis=1)))
            assert m2 <= 6.0 * a * a * d * mech.privacy_ratio(eps0) ** 2 * 1.02


# ---------------------------------------------------------------------------
# 4. Mean-estimation risk against the closed-form ceiling
# ---------------------------------------------------------------------------


def _vertex_dataset(rng, n, d, a):
    """n points on the hardest l1-sphere corners: random signed basis vectors."""
    X = np.zeros((n, d))
    X[np.arange(n), rng.integers(0, d, n)] = a * rng.choice([-1.0, 1.0], size=n)
    return X


def _pooled_mse(rng, spec, n, datasets, trials):
    per_dataset = []
    for _ in range(datasets):
        X = _vertex_dataset(rng, n, spec.ball.dim, spec.ball.radius)
        estimates = mech.mean_estimate_trials(X, spec, rng, trials)
        per_dataset.append(
            float(np.mean(np.sum((estimates - X.mean(axis=0)) ** 2, axis=1)))
        )
    return np.asarray(per_dataset)


def test_criterion_04_mean_estimation_risk():
    with criterion(4, "worst-case-style MSE under a^2*d*ratio^2/n; halves when n doubles", 120.0):
        d, a, eps0, trials, n_datasets = 32, 1.0, 1.0, 200, 20
        n = 1000
        spec = mech.MechanismSpec(BallSpec(p=1.0, radius=a, dim=d), epsilon0=eps0)
        bound = a * a * d * mech.privacy_ratio(eps0) ** 2 / n

        per_dataset = _pooled_mse(np.random.default_rng(43), spec, n, n_datasets, trials)
        assert per_dataset.mean() <= bound
        # each hard dataset individually stays within Monte-Carlo slack of it
        assert per_dataset.max() <= 1.05 * bound

        doubled = _pooled_mse(np.random.default_rng(1043), spec, 2 * n, n_datasets, trials)
        halving = per_dataset.mean() / doubled.mean()
        assert 1.6 <= halving <= 2.4


# ---------------------------------------------------------------------------
# 5. Accountant agrees with the straight-line oracle; identities; monotonicity
# ---------------------------------------------------------------------------


def _random_explicit_setup(rng, s=1):
    k = int(rng.integers(1000, 4001))
    m = int(rng.integers(k, 3 * k + 1))
    r = int(rng.integers(1, 31))
    T = int(rng.integers(1, 301))
    delta = 10.0 ** float(rng.uniform(-9.0, -4.0))
    eps0 = float(rng.uniform(0.02, 0.45))
    return eps0, delta, T, SamplingParams(m=m, k=k, r=r, s=s)


def test_criterion_05_accountant_oracle():
    label = "accountant == oracle at 1e-12, stage by stage; exact identities; monotone stages"
    with criterion(5, label):
        rng = np.random.default_rng(SEED + 5)

        above_half = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmplificationWarning)
            for i in range(200):
                s = int(rng.integers(1, 4))
                k = int(rng.integers(1000, 5001))
                m = int(rng.integers(k, 4 * k + 1))
                r = int(rng.integers(max(2, s), 51))
                T = int(rng.integers(1, 501))
                delta = 10.0 ** float(rng.uniform(-9.0, -3.0))
                if i % 2 == 0:
                    eps0 = float(rng.uniform(0.02, 0.49))
                    variant, vname = ExplicitShuffling(), "explicit"
                else:
                    # The second draw stretches eps0 to [0.025, 0.9), past the
                    # explicit bound's 1/2; the oracle asserts the clones cap.
                    eps0 = float(rng.uniform(0.05, 0.45)) * float(rng.uniform(0.5, 2.0))
                    variant, vname = ClonesShuffling(), "clones"
                    above_half += eps0 > 0.5
                params = SamplingParams(m=m, k=k, r=r, s=s)
                budget = end_to_end(eps0, delta, T, params, variant)
                oracle_stages = oracle_end_to_end(eps0, delta, T, m, k, r, s, vname)
                assert len(budget.stages) == len(oracle_stages)
                for stage, (oracle_eps, oracle_delta) in zip(budget.stages, oracle_stages):
                    assert math.isclose(stage.epsilon, oracle_eps, rel_tol=1e-12)
                    assert math.isclose(stage.delta, oracle_delta, rel_tol=1e-12)
                last = budget.stages[-1]
                assert (budget.epsilon, budget.delta) == (last.epsilon, last.delta)
                assert budget.delta == delta
        assert above_half > 0

        # exact identities at q=1 and T=1
        for _ in range(50):
            eps0, delta, T, params = _random_explicit_setup(rng)
            params = SamplingParams(m=params.m, k=params.m, r=1, s=1)  # q = 1
            _, shuffled, sampled, _ = end_to_end(eps0, delta, T, params).stages
            assert sampled.epsilon == shuffled.epsilon
            assert sampled.delta == shuffled.delta

            one = end_to_end(eps0, delta, 1, params)
            eb = one.stages[2].epsilon
            expected = math.sqrt(2.0 * 1 * math.log(1.0 / (delta / 2.0))) * eb
            expected += 1 * eb * math.expm1(eb)
            assert one.epsilon == expected
            assert one.stages[1].delta == delta / (2.0 * 1.0 * 1)

        # monotonicity suite: 5 properties x 200 random orderings
        for _ in range(200):
            # (i) every budget stage is nondecreasing in eps0
            eps_a, eps_b = sorted(rng.uniform(0.02, 0.45, size=2))
            _, delta, T, params = _random_explicit_setup(rng)
            lo = end_to_end(float(eps_a), delta, T, params)
            hi = end_to_end(float(eps_b), delta, T, params)
            for lo_stage, hi_stage in zip(lo.stages, hi.stages):
                assert lo_stage.epsilon <= hi_stage.epsilon
            assert lo.epsilon <= hi.epsilon

            # (ii) subsampling never hurts, strictly helps away from q=1
            eps = float(rng.uniform(0.01, 3.0))
            dlt = 10.0 ** float(rng.uniform(-9.0, -4.0))
            q = float(rng.uniform(0.01, 1.0))
            amp_eps, amp_delta = amplify_by_subsampling(eps, dlt, q)
            assert amp_eps <= eps
            assert amp_delta == q * dlt
            if q <= 0.9:
                assert amp_eps < eps

            # (iii) composed epsilon/delta nondecreasing in T
            eb = float(rng.uniform(1e-4, 0.5))
            db = 10.0 ** float(rng.uniform(-12.0, -6.0))
            dp = 10.0 ** float(rng.uniform(-8.0, -4.0))
            t1, t2 = sorted(int(v) for v in rng.integers(1, 2000, size=2))
            e1, d1 = strong_composition(eb, db, t1, dp)
            e2, d2 = strong_composition(eb, db, t2, dp)
            assert e1 <= e2 and d1 <= d2

            # (iv) composed epsilon nondecreasing in the per-round epsilon
            ea, ebb = sorted(rng.uniform(1e-4, 0.5, size=2))
            T3 = int(rng.integers(1, 500))
            assert (
                strong_composition(float(ea), db, T3, dp)[0]
                <= strong_composition(float(ebb), db, T3, dp)[0]
            )

            # (v) the requested delta is reconstructed exactly
            eps0, delta, T, params = _random_explicit_setup(rng)
            budget = end_to_end(eps0, delta, T, params)
            assert budget.delta == delta
            _, shuffled, sampled, _ = budget.stages
            assert sampled.delta == params.q * shuffled.delta


# ---------------------------------------------------------------------------
# 6. Pooled-shot branch uses the per-round rate q2 and warns
# ---------------------------------------------------------------------------


def test_criterion_06_pooled_shot_branch():
    with criterion(6, "s>1, k<m amplifies with q2 (strictly above the q branch) and warns"):
        params = SamplingParams(m=1500, k=1000, r=10, s=2)
        eps0, delta, T = 0.3, 1e-6, 5
        with pytest.warns(AmplificationWarning):
            budget = end_to_end(eps0, delta, T, params)

        _, shuffled, sampled, _ = budget.stages
        q2_eps, _ = oracle_subsample(shuffled.epsilon, shuffled.delta, params.q2)
        q_eps, _ = oracle_subsample(shuffled.epsilon, shuffled.delta, params.q)
        assert math.isclose(sampled.epsilon, q2_eps, rel_tol=1e-12)
        assert sampled.epsilon > q_eps
        assert sampled.delta == params.q * shuffled.delta
        assert "q2" in "\n".join(budget.provenance)


# ---------------------------------------------------------------------------
# 7. Wire codes roundtrip exhaustively and stay inside the envelope
# ---------------------------------------------------------------------------


def test_criterion_07_wire_roundtrips():
    with criterion(7, "multiset (s<=5, B<=16) codes and index-sign (d<=64) frames roundtrip"):
        for s in range(1, 6):
            for alphabet in range(1, 17):
                envelope = s * (math.log2(math.e) + math.log2((s + alphabet - 1) / s))
                nbits = wire.multiset_bits(s, alphabet)
                assert nbits <= envelope + 1.0
                seen = set()
                for atoms in itertools.combinations_with_replacement(range(alphabet), s):
                    code = wire.histogram_pack(atoms, alphabet)
                    assert wire.histogram_unpack(code) == atoms
                    assert code.bit_length == nbits
                    seen.add(code.rank)
                assert seen == set(range(math.comb(s + alphabet - 1, s)))

        for d in range(1, 65):
            for ball_p in (math.inf, 1.0):
                spec = mech.MechanismSpec(BallSpec(p=ball_p, radius=1.0, dim=d), epsilon0=1.0)
                dp = mech.padded_dim(d) if ball_p == 1.0 else d
                nbits = math.ceil(math.log2(dp)) + 1
                for j in range(dp):
                    for sign in (1, -1):
                        msg = mech.IndexSign(j, sign)
                        frame = wire.frame_message(msg, spec)
                        assert wire.message_payload_bits(msg, spec) == nbits
                        assert wire.unframe_message(frame, spec) == (msg, len(frame))


# ---------------------------------------------------------------------------
# 8. Low-bit decoder tables cannot beat the risk floor on the hard input
# ---------------------------------------------------------------------------


def test_criterion_08_communication_adversary():
    with criterion(8, "averaged estimates on the null-space input exceed a^2*max{1,d^(1-2/p)}", 10.0):
        d, n_rows, a, n_clients = 8, 4, 1.0, 4000
        # Entries are drawn at the magnitude an unbiased low-bit decoder needs
        # on a radius-a ball (its outputs scale like a*d), so the tables are
        # representative rather than vanishingly small.
        gen = np.random.default_rng(8)
        for _ in range(20):
            table = gen.normal(scale=a * d, size=(n_rows, d))
            picks = gen.integers(0, n_rows, n_clients)
            averaged = table[picks].mean(axis=0)
            for p in (1.0, 2.0, 4.0, math.inf):
                hard_input = comm_adversary(table, p, a)
                # the averaged estimate lives in the row space; the hard input
                # is orthogonal to every row, so the error splits exactly
                assert abs(float(averaged @ hard_input)) <= 1e-8
                err = float(np.sum((averaged - hard_input) ** 2))
                floor = a * a * max(1.0, d ** (1.0 - 2.0 / p))
                assert err > floor


# ---------------------------------------------------------------------------
# 9. Private federated training converges and degrades gracefully in eps0
# ---------------------------------------------------------------------------

C9_DIM, C9_M, C9_R, C9_K, C9_T = 20, 100, 10, 20, 2000
C9_DIAMETER = 2.0
C9_CLIP = 0.25
C9_SEEDS = (203, 204, 206, 207, 209)
C9_WINDOW = 200
C9_TREND_SLACK = 1e-4


def _best_reachable_loss(data):
    """Projected full-batch gradient descent on the pooled dataset."""
    X = np.concatenate([c.features for c in data])
    y = np.concatenate([c.labels for c in data])
    theta = np.zeros(C9_DIM)
    best = math.inf
    for t in range(1, 4001):
        margins = y * (X @ theta)
        best = min(best, float(np.mean(np.logaddexp(0.0, -margins))))
        sigma = np.exp(-np.logaddexp(0.0, margins))
        grad = -(sigma * y) @ X / len(y)
        theta = project_l2_ball(
            theta - (C9_DIAMETER / math.sqrt(t)) * grad,
            np.zeros(C9_DIM),
            C9_DIAMETER / 2,
        )
    return best


def _run_arm(eps0):
    """Per-seed loss curves for one privacy level; clipping warnings are the
    point of a tight clip radius, not a failure, so they are silenced here."""
    curves = []
    params = SamplingParams(m=C9_M, k=C9_K, r=C9_R, s=1)
    for seed in C9_SEEDS:
        data, _ = synthetic_logistic_data(C9_M, C9_R, C9_DIM, seed=seed)
        cfg = TrainConfig(
            params=params,
            T=C9_T,
            epsilon0=eps0,
            delta=1e-5,
            ball=BallSpec(p=2.0, radius=C9_CLIP, dim=C9_DIM),
            diameter=C9_DIAMETER,
            task="logistic",
            seed=seed,
            account=False,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train(cfg, data)
        curves.append(np.array([tr.loss_after for tr in result.traces]))
    return np.vstack(curves)


def test_criterion_09_training_convergence():
    with criterion(9, "loss descends; eps0=8 within 2x of non-private; monotone in eps0", 600.0):
        best = np.array(
            [
                _best_reachable_loss(synthetic_logistic_data(C9_M, C9_R, C9_DIM, seed=seed)[0])
                for seed in C9_SEEDS
            ]
        )

        excess = {}  # eps0 -> per-seed mean excess over the final window
        for eps0 in (1.0, 2.0, 4.0, 8.0, math.inf):
            curves = _run_arm(eps0)
            # (a) the running-average loss, smoothed over a 100-round window,
            # descends and never climbs back; checked per seed, for the
            # moderate-to-high privacy budgets where descent beats noise
            if eps0 >= 2.0:
                for row in curves:
                    running = np.cumsum(row) / np.arange(1, C9_T + 1)
                    smoothed = np.convolve(running, np.ones(100) / 100, mode="valid")
                    assert smoothed[0] - smoothed[-1] > 0
                    assert np.max(np.diff(smoothed)) <= C9_TREND_SLACK
            excess[eps0] = curves[:, -C9_WINDOW:].mean(axis=1) - best

        med = {e: float(np.median(v)) for e, v in excess.items()}
        # (b) the eps0=8 arm lands within 2x of the raw-gradient baseline
        assert med[8.0] <= 2.0 * med[math.inf]
        # (c) accuracy degrades as the local budget tightens
        assert med[2.0] <= med[1.0]
        assert med[4.0] <= med[2.0]
        assert med[8.0] <= med[4.0]


# ---------------------------------------------------------------------------
# 10. Communication accounting matches what the wire actually charges
# ---------------------------------------------------------------------------


def test_criterion_10_communication_accounting():
    with criterion(10, "per-client bits match the accounting at 3-sigma; b exact for R1/Rinf"):
        rounds, m, k = 10_000, 50, 10
        q1 = k / m
        rng = np.random.default_rng(SEED + 10)
        cases = (
            (mech.MechanismSpec(BallSpec(p=math.inf, radius=1.0, dim=16), 1.0), 1),
            (mech.MechanismSpec(BallSpec(p=1.0, radius=1.0, dim=8), 1.0), 1),
            (mech.MechanismSpec(BallSpec(p=math.inf, radius=1.0, dim=8), 1.0), 3),
        )
        for spec, s in cases:
            per_participation = wire.client_round_bits_exact(spec, s)
            alphabet = 2 * mech.padded_dim(spec.ball.dim)
            envelope = s * (math.log2(math.e) + math.log2((s + alphabet - 1) / s))
            assert per_participation <= envelope + 1.0

            sampled = sum(
                bool((sample_clients(m, k, rng) == 0).any()) for _ in range(rounds)
            )
            measured = sampled * per_participation / rounds
            sigma = math.sqrt(q1 * (1.0 - q1) / rounds)
            assert abs(measured - q1 * per_participation) <= 3.0 * sigma * per_participation
            assert measured <= q1 * (envelope + 1.0) + 3.0 * sigma * per_participation

        for d in (2, 4, 8, 16, 32):
            b = math.ceil(math.log2(d)) + 1
            assert wire.multiset_bits(1, 2 * d) == b
            for ball_p in (1.0, math.inf):
                spec = mech.MechanismSpec(BallSpec(p=ball_p, radius=1.0, dim=d), 1.0)
                assert wire.client_round_bits_exact(spec, 1) == b
                msg = mech.encode_message(
                    sample_in_ball(rng, ball_p, d, 1.0), spec, rng
                )
                assert wire.message_payload_bits(msg, spec) == b


# ---------------------------------------------------------------------------
# 11. CLI runs are byte-identical under identical config and seed
# ---------------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "every CLI artifact reproduces byte-for-byte"):
        runs = (
            ["mean-est", "--p", "1", "2", "--d", "8", "--n", "200", "--eps0", "1.0",
             "--trials", "50", "--seed", "3"],
            ["accountant", "--eps0", "0.25", "--delta", "1e-6", "--T", "10",
             "--m", "2000", "--k", "2000", "--r", "1", "--s", "1"],
            ["bounds", "--p", "1", "2", "--d", "16", "32", "--n", "1000",
             "--eps0", "0.5", "--q", "0.1"],
            ["train", "--m", "6", "--k", "3", "--r", "4", "--s", "1", "--T", "3",
             "--eps0", "1.0", "--delta", "1e-5", "--p", "2", "--clip", "1",
             "--d", "2", "--diameter", "2", "--account", "false", "--seed", "5"],
        )
        for args in runs:
            snapshots = []
            for tag in ("first", "second"):
                out_dir = tmp_path / args[0] / tag
                out_dir.mkdir(parents=True)
                exit_code = cli.main(args + ["--out", str(out_dir / "result")])
                assert exit_code == 0
                files = sorted(out_dir.iterdir())
                assert files, f"{args[0]} wrote no artifacts"
                snapshots.append(
                    {f.name: f.read_bytes() for f in files}
                )
            assert snapshots[0] == snapshots[1]
