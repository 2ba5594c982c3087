"""Private federated SGD: sample, privatize locally, shuffle, aggregate, step.

Each round t (1-based):

1. the server samples k of m clients without replacement;
2. every sampled client samples s of its r points, computes per-point
   gradients at the current iterate, clips them to the configured lp ball of
   radius C, and encodes each with the configured local mechanism;
3. the anonymized messages pass through a shuffler (uniform permutation);
4. the server averages the decoded messages into g_t and takes a projected
   step theta <- Pi(theta - eta_t g_t) with eta_t = D/(G sqrt(t)), where G is
   the configured second-moment bound and Pi projects onto the l2 ball of
   diameter D centered at the origin.

Randomness is split into independent streams: a server stream drives client
sampling and the shuffler; each (client, round) pair gets its own stream for
data sampling and mechanism noise, derived from (seed, client, round). Client
work within a round is therefore order-independent and could run in parallel;
the run is bit-reproducible either way.

epsilon0 = inf is the non-private baseline: clipped gradients are sent
uncompressed and in the clear, and the reported budget carries no guarantee.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..accountant import (
    ExplicitShuffling,
    PrivacyBudget,
    SamplingParams,
    ShufflingVariant,
    end_to_end,
)
from ..bounds import g_squared
from ..errors import AccountingError, ClippingWarning, ValidationError
from ..linalg import BallSpec, clip, p_norm, project_l2_ball
from ..mechanisms import (
    MechanismSpec,
    RawVector,
    encode_message,
    mean_estimate,
    mechanism_family,
    padded_dim,
)
from .. import wire
from .data import ClientDataset, stack_points, validate_clients
from .tasks import Task, get_task

CLIENT_SALT = 0x434C4E54  # per-(client, round) streams
SERVER_SALT = 0x53525652  # client sampling and the shuffler


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on; hashable and fully explicit.

    ``ball`` is the gradient ball: its exponent picks the mechanism family
    and its radius is the clip norm C. ``diameter`` is the diameter D of the
    l2 constraint ball (centered at the origin) the iterate is projected to.
    ``epsilon0 = math.inf`` runs the non-private uncompressed baseline.
    ``account = False`` skips the central (epsilon, delta) computation for
    regimes outside the accountant's validity; the budget then carries no
    guarantee.
    """

    params: SamplingParams
    T: int
    epsilon0: float
    delta: float
    ball: BallSpec
    diameter: float
    task: str = "logistic"
    mix_prob: float | None = None
    seed: int = 0
    account: bool = True
    variant: ShufflingVariant = field(default_factory=ExplicitShuffling)
    clip_warn_frac: float = 0.01

    def __post_init__(self) -> None:
        if not isinstance(self.T, int) or self.T < 1:
            raise ValidationError(f"T must be a positive integer, got {self.T!r}")
        if not self.epsilon0 > 0.0:
            raise ValidationError(f"epsilon0 must be positive (inf allowed), got {self.epsilon0!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not self.diameter > 0.0:
            raise ValidationError(f"diameter must be positive, got {self.diameter!r}")
        if not 0.0 <= self.clip_warn_frac <= 1.0:
            raise ValidationError(f"clip_warn_frac must lie in [0, 1], got {self.clip_warn_frac!r}")
        get_task(self.task)
        if math.isfinite(self.epsilon0):
            mechanism_family(self.mechanism_spec())  # fail before any work

    def mechanism_spec(self) -> MechanismSpec | None:
        """The local mechanism, or None in baseline (epsilon0 = inf) mode."""
        if math.isinf(self.epsilon0):
            return None
        return MechanismSpec(ball=self.ball, epsilon0=self.epsilon0, mix_prob=self.mix_prob)


@dataclass(frozen=True)
class RoundTrace:
    """What one round did: who was sampled, what it cost, what it achieved.

    ``loss_before``/``loss_after`` are full-dataset mean losses at the round's
    entry and exit iterates; ``exact_bits`` is the wire-accounted total over
    all sampled clients this round, ``expected_bits`` its a-priori mean over
    the sampling randomness; ``epsilon_so_far`` is the central epsilon of a
    run ending at this round (NaN when not accounted).
    """

    t: int
    client_ids: tuple[int, ...]
    exact_bits: int
    expected_bits: float
    loss_before: float
    loss_after: float
    grad_norm: float
    epsilon_so_far: float


@dataclass(frozen=True)
class TrainResult:
    theta: np.ndarray
    budget: PrivacyBudget
    traces: tuple[RoundTrace, ...]


def sample_clients(m: int, k: int, rng) -> np.ndarray:
    """k distinct client indices, uniform over all k-subsets of range(m)."""
    if not 1 <= k <= m:
        raise ValidationError(f"need 1 <= k <= m, got k={k}, m={m}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return np.sort(gen.choice(m, size=k, replace=False))


def sample_data(r: int, s: int, rng) -> np.ndarray:
    """s distinct point indices, uniform over all s-subsets of range(r)."""
    if not 1 <= s <= r:
        raise ValidationError(f"need 1 <= s <= r, got s={s}, r={r}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return np.sort(gen.choice(r, size=s, replace=False))


def _client_messages(
    client: ClientDataset, theta: np.ndarray, cfg: TrainConfig, task: Task, gen
) -> tuple[list, int]:
    """One client's round: sample s points, clip gradients, encode. Returns
    (messages, how many gradients the clip actually shrank)."""
    spec = cfg.mechanism_spec()
    ball = cfg.ball
    idx = sample_data(client.r, cfg.params.s, gen)
    messages: list = []
    n_clipped = 0
    for i in idx:
        _, grad = task.point_loss_grad(theta, client.features[i], float(client.labels[i]))
        if not np.all(np.isfinite(grad)):
            raise ValidationError(f"task {cfg.task!r} produced a non-finite gradient")
        if p_norm(grad, ball.p) > ball.radius:
            n_clipped += 1
        clipped = clip(grad, ball.p, ball.radius)
        if spec is None:
            messages.append(RawVector(values=tuple(float(v) for v in clipped)))
        else:
            messages.append(encode_message(clipped, spec, gen))
    return messages, n_clipped


def local_round(client: ClientDataset, theta: np.ndarray, cfg: TrainConfig, rng) -> list:
    """The messages one sampled client contributes in one round (s of them)."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    messages, _ = _client_messages(client, theta, cfg, get_task(cfg.task), gen)
    return messages


def shuffle(messages: list, rng) -> list:
    """Uniformly random permutation of the batch; the multiset is unchanged."""
    if not messages:
        raise ValidationError("cannot shuffle an empty batch")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return [messages[i] for i in gen.permutation(len(messages))]


def aggregate(messages, spec: MechanismSpec | None, expected_count: int | None = None):
    """Mean of the decoded batch; order-invariant by construction."""
    msgs = list(messages)
    if expected_count is not None and len(msgs) != expected_count:
        raise ValidationError(f"expected {expected_count} messages, got {len(msgs)}")
    if spec is not None:
        return mean_estimate(msgs, spec)
    if not msgs:
        raise ValidationError("mean estimation needs at least one message")
    rows = []
    for msg in msgs:
        if not isinstance(msg, RawVector):
            raise ValidationError("baseline aggregation expects raw vectors only")
        rows.append(np.asarray(msg.values, dtype=np.float64))
    return np.mean(rows, axis=0)


def _expected_bits_per_round(cfg: TrainConfig) -> float:
    """A-priori mean of the round's total payload bits across all m clients."""
    p = cfg.params
    spec = cfg.mechanism_spec()
    if spec is None:
        return p.k * 64.0 * cfg.ball.dim * p.s
    if spec.mix_prob is not None:
        d = cfg.ball.dim
        per_message = spec.mix_prob * wire.index_sign_bits(padded_dim(d)) + (
            1.0 - spec.mix_prob
        ) * wire.multiset_bits(d, 2 * d)
        return p.k * p.s * per_message
    return float(p.k * wire.client_round_bits_exact(spec, p.s))


def _client_bits(messages: list, spec: MechanismSpec | None, d: int) -> int:
    if spec is None:
        return 64 * d * len(messages)
    return wire.client_payload_bits(messages, spec)


def _no_guarantee_budget(cfg: TrainConfig, reason: str) -> PrivacyBudget:
    nan = math.nan
    return PrivacyBudget(
        epsilon0=cfg.epsilon0,
        epsilon_tilde=nan,
        delta_tilde=nan,
        epsilon_bar=nan,
        delta_bar=nan,
        epsilon=nan,
        delta=nan,
        T=cfg.T,
        provenance=(reason, "no central (epsilon, delta) guarantee is claimed"),
        guarantee=False,
    )


def _budget_and_schedule(cfg: TrainConfig) -> tuple[PrivacyBudget, list[float]]:
    """Final budget plus epsilon-so-far after each round (NaN where undefined)."""
    if math.isinf(cfg.epsilon0):
        budget = _no_guarantee_budget(cfg, "epsilon0 = inf: raw gradients, nothing to account")
        return budget, [math.inf] * cfg.T
    if not cfg.account:
        budget = _no_guarantee_budget(cfg, "accounting disabled by configuration")
        return budget, [math.nan] * cfg.T
    budget = end_to_end(cfg.epsilon0, cfg.delta, cfg.T, cfg.params, cfg.variant)
    schedule = []
    for t in range(1, cfg.T + 1):
        if t == cfg.T:
            schedule.append(budget.epsilon)
            continue
        try:
            schedule.append(end_to_end(cfg.epsilon0, cfg.delta, t, cfg.params, cfg.variant).epsilon)
        except (ValidationError, AccountingError):
            schedule.append(math.nan)
    return budget, schedule


def train(cfg: TrainConfig, data: list[ClientDataset]) -> TrainResult:
    """Run the full loop; deterministic given cfg.seed. See the module docstring."""
    p = cfg.params
    d = cfg.ball.dim
    validate_clients(data, p.m, p.r, d)
    task = get_task(cfg.task)

    budget, eps_schedule = _budget_and_schedule(cfg)
    spec = cfg.mechanism_spec()
    big_g = math.sqrt(g_squared(task.lipschitz, d, cfg.ball.p, p.q, p.n, cfg.epsilon0))
    radius = cfg.diameter / 2.0
    expected_bits = _expected_bits_per_round(cfg)

    X_all, Y_all = stack_points(data)
    server = np.random.default_rng(np.random.SeedSequence((cfg.seed, SERVER_SALT)))

    theta = np.zeros(d)
    loss_now = task.batch_loss(theta, X_all, Y_all)
    traces: list[RoundTrace] = []
    clipped_total = 0

    for t in range(1, cfg.T + 1):
        chosen = sample_clients(p.m, p.k, server)
        messages: list = []
        exact_bits = 0
        for ci in chosen:
            cgen = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, CLIENT_SALT, int(ci), t))
            )
            msgs, n_clipped = _client_messages(data[ci], theta, cfg, task, cgen)
            clipped_total += n_clipped
            exact_bits += _client_bits(msgs, spec, d)
            messages.extend(msgs)
        messages = shuffle(messages, server)
        g_bar = aggregate(messages, spec, expected_count=p.k * p.s)

        eta = cfg.diameter / (big_g * math.sqrt(t))
        theta = project_l2_ball(theta - eta * g_bar, np.zeros(d), radius)
        loss_after = task.batch_loss(theta, X_all, Y_all)
        traces.append(
            RoundTrace(
                t=t,
                client_ids=tuple(int(data[ci].client_id) for ci in chosen),
                exact_bits=exact_bits,
                expected_bits=expected_bits,
                loss_before=loss_now,
                loss_after=loss_after,
                grad_norm=float(np.linalg.norm(g_bar)),
                epsilon_so_far=eps_schedule[t - 1],
            )
        )
        loss_now = loss_after

    frac = clipped_total / (cfg.T * p.k * p.s)
    if frac > cfg.clip_warn_frac:
        warnings.warn(
            f"clipping shrank {frac:.1%} of gradients (> {cfg.clip_warn_frac:.1%}); "
            "the mini-batch gradient may be biased",
            ClippingWarning,
            stacklevel=2,
        )
    return TrainResult(theta=theta, budget=budget, traces=tuple(traces))


TRACE_COLUMNS = ("t", "clients", "exact_bits", "loss", "grad_norm", "epsilon_so_far")


def write_trace_csv(path, traces, comments=()) -> None:
    """One row per round; ``clients`` is ;-joined ids, ``loss`` the post-step loss.

    Each line of ``comments`` is written first, as a ``# `` line.
    """
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for tr in traces:
            writer.writerow(
                [
                    tr.t,
                    ";".join(str(c) for c in tr.client_ids),
                    tr.exact_bits,
                    repr(float(tr.loss_after)),
                    repr(float(tr.grad_norm)),
                    repr(float(tr.epsilon_so_far)),
                ]
            )
