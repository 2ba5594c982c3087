"""The four benchmark workloads: inputs, one timed step, and output checks.

Every workload is a closed loop: one caller runs steps back to back. Inputs
are drawn from the workload seed at set-up; the program receives only those
inputs, through its public functions, looked up on the module at call time so
the traced run can wrap them.

A workload exposes
  ``step(i)``   the timed call into the program, returning its outputs;
  ``check(i, out)``  untimed output checks, returning a list of problems;
  ``finish()``  run-level checks over all steps, returning (problems, notes);
and the counters ``msgs``, ``payload_bits`` and ``frame_bytes`` that the
end-to-end metrics are computed from.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import cldp
from cldp import bounds, fedsim, mechanisms, wire
from cldp.linalg import BallSpec

from tracer import spec_family

# A training step is re-run with the same seed, untimed, every this many
# steps, and its trace compared with the timed one.
DETERMINISM_EVERY = 16
# The run-average squared error of a mean_est cell may exceed the worst-case
# ceiling by at most this many standard errors of that average. l1 and linf
# sit at MSE/ceiling of about 0.94-1.006, so a bare ceiling check would fail
# about half the time.
MSE_ALLOWANCE_Z = 4.0
# Step index of the untimed warm-up step; timed steps count up from 0.
WARMUP_STEP = 1 << 31


def _seed_int(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def in_ball(gen: np.random.Generator, n: int, d: int, p: float, a: float) -> np.ndarray:
    """n points inside the lp ball of radius a: random directions, radii a*U^(1/d)."""
    g = gen.standard_normal((n, d))
    norms = np.linalg.norm(g, ord=p, axis=1)
    radii = a * gen.random(n) ** (1.0 / d)
    return g * (radii / norms)[:, None]


def _frame_bytes(spec, x, gen) -> int:
    """On-wire bytes of one framed message of this spec (header included)."""
    return len(wire.frame_message(mechanisms.encode_message(x, spec, gen), spec))


class Workload:
    name = ""
    tail_pct = 90  # step_ms_tail is this percentile of the step times
    rounds_per_step = 1  # step times are reported per round
    # Step times are scaled by reference work of the workload's own kind
    # (parts in run.REF_PARTS), because the host's slow phases do not slow
    # every kind of work alike.
    ref_parts: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.msgs = 0
        self.payload_bits = 0
        self.frame_bytes = 0

    def finish(self) -> tuple[list[str], dict]:
        return [], {}


class _Train(Workload):
    """One ``fedsim.train`` call of a few rounds per step, on a fresh seed."""

    ref_parts = ("objects", "small_numpy")  # object-heavy Python

    def __init__(self, seed: int, m, k, r, s, d, p, eps0, account, rounds) -> None:
        super().__init__()
        self.seed = seed
        self.rounds_per_step = rounds
        self.data, _ = fedsim.synthetic_logistic_data(m, r, d, _seed_int(seed, 0xDA7A))
        self.cfg = fedsim.TrainConfig(
            params=cldp.SamplingParams(m=m, k=k, r=r, s=s),
            T=rounds,
            epsilon0=eps0,
            delta=1e-6,
            ball=BallSpec(p=p, radius=1.0, dim=d),
            diameter=2.0,
            task="logistic",
            account=account,
            variant=cldp.ExplicitShuffling(),
        )
        self.X = np.concatenate([c.features for c in self.data])
        self.Y = np.concatenate([c.labels for c in self.data])
        spec = self.cfg.mechanism_spec()
        self.bits_per_msg = _payload_bits_formula(spec)
        self.frame_bytes_per_msg = _frame_bytes(spec, np.zeros(d), np.random.default_rng(seed))
        # Upper end of the loss over the iterate ball (||x|| <= 1, ||theta|| <= D/2).
        self.loss_max = math.log1p(math.exp(self.cfg.diameter / 2.0))
        self.grad0 = _logistic_grad(np.zeros(d), self.X, self.Y)
        self.descent = []  # <theta_T, grad L(0)> per step: negative means descent

    def _cfg(self, i: int):
        return dataclasses.replace(self.cfg, seed=_seed_int(self.seed, 0x57E9, i))

    def step(self, i: int):
        return fedsim.train(self._cfg(i), self.data)

    def check(self, i: int, res) -> list[str]:
        problems = []
        p = self.cfg.params
        losses = [v for tr in res.traces for v in (tr.loss_before, tr.loss_after)]
        if len(res.traces) != self.cfg.T:
            problems.append(f"{len(res.traces)} traces for T={self.cfg.T}")
        if not all(math.isfinite(v) and 0.0 <= v <= self.loss_max for v in losses):
            problems.append("a loss is not finite or leaves the range the projection allows")
        want = p.k * self.bits_per_msg
        if any(tr.exact_bits != want for tr in res.traces):
            problems.append(f"exact_bits {[tr.exact_bits for tr in res.traces]} != {want}")
        if self.cfg.account and not (res.budget.guarantee and math.isfinite(res.budget.epsilon)):
            problems.append("the accounted run issued no finite guarantee")
        if i % DETERMINISM_EVERY == 0:
            again = fedsim.train(self._cfg(i), self.data)
            if repr(again.traces) != repr(res.traces) or not np.array_equal(again.theta, res.theta):
                problems.append("a repeated step with the same seed gave a different trace")
        self.descent.append(float(res.theta @ self.grad0))
        self.msgs += len(res.traces) * p.k * p.s
        self.payload_bits += sum(tr.exact_bits for tr in res.traces)
        self.frame_bytes += len(res.traces) * p.k * p.s * self.frame_bytes_per_msg
        return problems

    def finish(self):
        # The per-step loss mostly rises over a few noisy rounds from theta=0,
        # so descent is reported as a diagnostic: the t-statistic of the step
        # iterates' projection on the initial gradient (negative = descent).
        v = np.asarray(self.descent)
        t = float(v.mean() / (v.std(ddof=1) / math.sqrt(v.size))) if v.size > 2 else math.nan
        return [], {"descent_t": t}


def _logistic_grad(theta, X, Y):
    coeff = -Y / (1.0 + np.exp(Y * (X @ theta)))
    return coeff @ X / X.shape[0]


def _payload_bits_formula(spec) -> int:
    """Payload bits of one message by the wire accounting rules: a packed
    multiset of d signed samples for l2, one index-sign atom otherwise. The
    training workloads send one message per client (s = 1), so this is also
    the per-client cost."""
    d = spec.ball.dim
    family = spec_family(spec)
    if family == "l2":
        return (math.comb(3 * d - 1, d) - 1).bit_length()
    dim = 1 << (d - 1).bit_length() if family == "l1" else d
    return (dim - 1).bit_length() + 1


class TrainSmall(_Train):
    name = "train_small"
    tail_pct = 90

    def __init__(self, seed: int) -> None:
        super().__init__(seed, m=100, k=20, r=10, s=1, d=20, p=2.0, eps0=4.0,
                         account=False, rounds=10)


class TrainDeploy(_Train):
    name = "train_deploy"
    tail_pct = 80

    def __init__(self, seed: int) -> None:
        super().__init__(seed, m=5000, k=1000, r=4, s=1, d=32, p=1.0, eps0=0.4,
                         account=True, rounds=1)


class MeanEst(Workload):
    """One ``mean_estimate_trials`` trial of every cell per step, plus its bounds."""

    name = "mean_est"
    tail_pct = 80
    ref_parts = ("arrays", "memory")
    # (p, d, n). l2 at d=128 is sized so its (n, d, d) inverse-CDF tensor sets
    # the peak RSS; l1 and linf run at large n, where they stay cheap.
    CELLS = ((2.0, 32, 1000), (2.0, 128, 2000), (1.0, 128, 10_000), (math.inf, 128, 20_000))
    EPS0 = 1.0
    A = 1.0

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self.cells = []
        for c, (p, d, n) in enumerate(self.CELLS):
            gen = np.random.default_rng([seed, 0x3E57, c])
            X = in_ball(gen, n, d, p, self.A)
            spec = cldp.MechanismSpec(ball=BallSpec(p=p, radius=self.A, dim=d), epsilon0=self.EPS0)
            query = cldp.RiskQuery(p=p, d=d, n=n, a=self.A, epsilon0=self.EPS0)
            msg = mechanisms.encode_message(X[0], spec, gen)
            self.cells.append({
                "spec": spec, "X": X, "mean": X.mean(axis=0), "query": query, "n": n,
                "bits": wire.message_payload_bits(msg, spec),
                "frame": len(wire.frame_message(msg, spec)),
                "sq_err": [],
            })

    def step(self, i: int):
        gen = np.random.default_rng([self.seed, 0x57E9, i])
        out = []
        for cell in self.cells:
            est = mechanisms.mean_estimate_trials(cell["X"], cell["spec"], gen, 1)
            ceiling = bounds.risk_upper(cell["query"], worst_case=True)
            bounds.risk_lower(cell["query"])
            out.append((est, ceiling))
        return out

    def check(self, i: int, out) -> list[str]:
        problems = []
        for cell, (est, ceiling) in zip(self.cells, out):
            if est.shape != (1, cell["X"].shape[1]) or not np.all(np.isfinite(est)):
                problems.append(f"non-finite or misshapen estimate for {cell['spec'].ball}")
                continue
            cell["sq_err"].append(float(np.sum((est[0] - cell["mean"]) ** 2)))
            cell["ceiling"] = ceiling
            self.msgs += cell["n"]
            self.payload_bits += cell["n"] * cell["bits"]
            self.frame_bytes += cell["n"] * cell["frame"]
        return problems

    def finish(self):
        problems, notes = [], {}
        for cell in self.cells:
            err = np.asarray(cell["sq_err"])
            if err.size < 2:
                continue
            mse, se = float(err.mean()), float(err.std(ddof=1) / math.sqrt(err.size))
            b = cell["spec"].ball
            label = f"p={b.p:g},d={b.dim},n={cell['n']}"
            notes[f"mse_over_ceiling[{label}]"] = mse / cell["ceiling"]
            if mse > cell["ceiling"] + MSE_ALLOWANCE_Z * se:
                problems.append(
                    f"{label}: run MSE {mse:.6g} exceeds ceiling {cell['ceiling']:.6g} "
                    f"+ {MSE_ALLOWANCE_Z:g} standard errors ({se:.3g})"
                )
        return problems, notes


class WireRound(Workload):
    """One deployment transport round per step: encode, frame, split, unframe, aggregate."""

    name = "wire_round"
    tail_pct = 60
    ref_parts = ("integers", "arrays")  # big-integer unranking, then decoding
    # (p, d, clients, mix_prob)
    GROUPS = (
        (2.0, 128, 8, None),
        (2.0, 64, 32, None),
        (1.0, 1000, 1000, None),
        (math.inf, 1000, 1000, None),
        (1.5, 64, 32, 0.5),
    )
    EPS0 = 1.0

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self.groups = []
        for g, (p, d, n, mix) in enumerate(self.GROUPS):
            gen = np.random.default_rng([seed, 0x3E57, g])
            spec = cldp.MechanismSpec(
                ball=BallSpec(p=p, radius=1.0, dim=d), epsilon0=self.EPS0, mix_prob=mix
            )
            self.groups.append((spec, in_ball(gen, n, d, p, 1.0)))

    def step(self, i: int):
        gen = np.random.default_rng([self.seed, 0x57E9, i])
        # Clients: encode and frame; the frames travel as one byte stream.
        sent, frames = [], []
        for spec, X in self.groups:
            msgs = [mechanisms.encode_message(x, spec, gen) for x in X]
            sent.append(msgs)
            frames.extend(wire.frame_message(m, spec) for m in msgs)
        stream = b"".join(frames)
        # Server: split the stream frame by frame, unframe, aggregate per group.
        offset, cuts, estimates = 0, [], []
        for spec, X in self.groups:
            received = []
            for _ in range(len(X)):
                length = wire.frame_length(stream, offset)
                msg, used = wire.unframe_message(stream, spec, offset)
                cuts.append((offset, length, used))
                received.append(msg)
                offset += used
            estimates.append(mechanisms.mean_estimate(received, spec))
        return sent, frames, stream, cuts, estimates

    def check(self, i: int, out) -> list[str]:
        sent, frames, stream, cuts, estimates = out
        problems = []
        if len(cuts) != len(frames) or sum(used for _, _, used in cuts) != len(stream):
            problems.append("the stream did not split into the frames sent")
        elif any(
            length != used or stream[off : off + used] != frame
            for (off, length, used), frame in zip(cuts, frames)
        ):
            problems.append("a split frame differs from the frame sent")
        for (spec, _), msgs, est in zip(self.groups, sent, estimates):
            if not np.array_equal(est, mechanisms.mean_estimate(msgs, spec)):
                problems.append(f"unframed aggregate differs for {spec.ball}")
            self.payload_bits += sum(wire.message_payload_bits(m, spec) for m in msgs)
        self.msgs += len(frames)
        self.frame_bytes += len(stream)
        return problems


WORKLOADS = {w.name: w for w in (TrainSmall, TrainDeploy, MeanEst, WireRound)}
