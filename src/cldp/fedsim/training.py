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

``train`` reads its data as one ``data.Population``, whose (m, r, d) it
checks on entry, in O(1). Nothing is copied: a round gathers its k*s points
from the population's (m*r, d) matrix, each round's exit loss reads that
matrix in place, and a trace reads its client ids from the population's id
array. A call evaluates the full-dataset loss T times, once per round exit:
round 1's entry loss, at theta = 0, is the task's ``origin_loss`` of the
labels, which equals ``batch_loss`` there bit for bit (see ``tasks``), and
each later round enters with the previous round's exit loss.

A round runs on arrays: one ``point_grads`` call for all k*s points, one
clip (``linalg._clip_rows``, whose row norms also give the round's clipped
count), and one ``mechanisms.batch_encoder`` call, which makes one draw
over the k*s rows (each drawn once, so an l1 row computes only the rotated
coordinate its draw reads) and one signed-count decode.
The decode reads only the multiset the shuffler leaves, so the permutation is
drawn but not applied to coded messages. The bits follow from how many
messages of each code the round sent.

Randomness is split into independent streams: a server stream drives client
sampling and the shuffler; each (client, round) pair gets its own stream for
data sampling and mechanism noise, seeded with
``SeedSequence((seed, CLIENT_SALT, client, t))``. The run is bit-reproducible.
The layout is kept on purpose: another layout with the same law (say, one
stream per round) re-rolls every run, including the frozen runs of the
convergence criterion. Each round builds its k seeds as one uint32 matrix
of the words numpy derives from those tuples, and hashes them in one
vectorised pass (``streams._seed_states``), equal to the tuple-built seeds. A
client's stream draws its s points, then the noise of its s rows in the
mechanism's documented order, so for s = 1 a message draws exactly what a
single encode draws. One point is the scalar ``integers(r)``, which reads
the bits of ``choice(r, 1, replace=False)``, and one index-family row the
scalars ``integers(dim)`` then ``random()``.

At s = 1 those scalar calls are all that an l1, linf or baseline round
draws, so it runs its k streams as the lanes of one ``streams.PCG64Lanes``,
whose ``integers(bound)`` and ``random()`` return per lane, bit for bit, the
value that lane's generator returns. A round then draws its points in one
``integers(r)`` call and its noise in one ``integers(dim)`` and one
``random()``. The other rounds build a real ``Generator`` per stream from
the same seed states, since l2 and the mix draw normals from numpy's
ziggurat and s > 1 draws its points with ``choice``; the round gathers their draws into one array per component
(``_draw_points`` holds the one-point rule, which ``sample_data`` shares).
``mechanisms._on_lanes`` picks the path once per run, from the spec and s.
The tests check the lanes against numpy's generators, and whole runs on the
two paths against each other, byte for byte.

epsilon0 = inf is the non-private baseline: clipped gradients are sent
uncompressed and in the clear, and the reported budget carries no guarantee.
The accountant builds the budget and each round's ``epsilon_so_far``; ``train``
only picks the case: the baseline, accounting disabled, or accounted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..accountant import (
    DEFAULT_VARIANT,
    VARIANTS,
    PrivacyBudget,
    SamplingParams,
    ShufflingVariant,
    _validate_variant,
    budget_and_schedule,
)
from ..bounds import g_squared
from ..errors import ClippingWarning, ValidationError, require_int, require_real
from ..linalg import BallSpec, _clip_rows, project_l2_ball
from ..mechanisms import (
    MechanismSpec,
    _on_lanes,
    _require_mix_prob,
    _require_rng,
    batch_encoder,
    mechanism_family,
)
from ..streams import PCG64Lanes, _HashedSeed, _seed_states, _seed_words
from .. import wire
from .data import Population, _require_population
from .tasks import get_task

CLIENT_SALT = 0x434C4E54  # per-(client, round) streams
SERVER_SALT = 0x53525652  # client sampling and the shuffler
CLIP_WARN_FRAC = 0.01  # a run that clips more of its gradients warns (ClippingWarning)


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
    variant: ShufflingVariant = VARIANTS[DEFAULT_VARIANT]

    def __post_init__(self) -> None:
        for name, kind in (("params", SamplingParams), ("ball", BallSpec), ("account", bool)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r:.200}")
        _validate_variant(self.variant)
        for name, interval in (("seed", "[0, inf)"), ("T", "[1, inf)")):
            object.__setattr__(self, name, require_int(getattr(self, name), name, interval))
        require_real(self.epsilon0, "epsilon0", "(0, inf]")  # inf: the baseline
        require_real(self.delta, "delta", "(0, 1)")
        require_real(self.diameter, "diameter", "(0, inf)")
        get_task(self.task)
        _require_mix_prob(self.mix_prob)  # the baseline (epsilon0 = inf) builds no spec
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
    entry and exit iterates: round 1 enters at theta = 0, whose loss the
    task's ``origin_loss`` gives exactly from the labels, and a later round
    enters with the previous round's ``loss_after``. ``exact_bits`` is the
    wire-accounted total over all sampled clients this round;
    ``epsilon_so_far`` is the central epsilon of a run ending at this round
    (NaN when not accounted, or when that run fails a precondition, which the
    budget's provenance names); ``clipped`` counts the round's gradients that
    the clip shrank.
    """

    t: int
    client_ids: tuple[int, ...]
    exact_bits: int
    loss_before: float
    loss_after: float
    grad_norm: float
    epsilon_so_far: float
    clipped: int


@dataclass(frozen=True)
class TrainResult:
    theta: np.ndarray
    budget: PrivacyBudget
    traces: tuple[RoundTrace, ...]


def sample_clients(m: int, k: int, rng) -> np.ndarray:
    """k distinct client indices, uniform over all k-subsets of range(m)."""
    if not 1 <= require_int(k, "k") <= require_int(m, "m"):
        raise ValidationError(f"need 1 <= k <= m, got k={k}, m={m}")
    return np.sort(_require_rng(rng).choice(m, size=k, replace=False))


def sample_data(r: int, s: int, rng) -> np.ndarray:
    """s distinct point indices, uniform over all s-subsets of range(r)."""
    if not 1 <= require_int(s, "s") <= require_int(r, "r"):
        raise ValidationError(f"need 1 <= s <= r, got s={s}, r={r}")
    return np.atleast_1d(_draw_points(r, s, _require_rng(rng)))


def _draw_points(r: int, s: int, gen: np.random.Generator):
    """``sample_data``'s draw, 1 <= s <= r. One point is the scalar
    ``integers(r)``, which draws what ``choice(r, 1, replace=False)`` draws
    (see the module docstring) at a fifth of the cost."""
    if s == 1:
        return gen.integers(r)
    return np.sort(gen.choice(r, size=s, replace=False))


def _client_streams(head: list[int], chosen: np.ndarray, t: int, lanes: bool = False):
    """Round t's client streams, one per entry of ``chosen``, each the
    generator ``SeedSequence((seed, CLIENT_SALT, client, t))`` seeds, as
    ``_word_streams`` builds them. ``head`` is the words of seed and salt. A
    client index is one word: it is below m, and a run holds all m client
    datasets, so m is far below 2**32."""
    tail = _seed_words(t)
    words = np.empty((len(chosen), len(head) + 1 + len(tail)), dtype=np.uint32)
    words[:, : len(head)] = head
    words[:, len(head)] = chosen
    words[:, len(head) + 1 :] = tail
    return _word_streams(words, lanes)


def _word_streams(words: np.ndarray, lanes: bool = False):
    """``default_rng(SeedSequence(row))`` for every row of a (k, L) uint32
    matrix, from one hash pass: a list of generators, or with ``lanes`` one
    ``PCG64Lanes`` that draws what they draw."""
    states = _seed_states(words)
    if lanes:
        return PCG64Lanes(states)
    return [np.random.Generator(np.random.PCG64(_HashedSeed(row))) for row in states]


def _budget_and_schedule(cfg: TrainConfig) -> tuple[PrivacyBudget, list[float]]:
    """The run's budget and its epsilon_so_far per round: accounted, or no guarantee."""
    if math.isinf(cfg.epsilon0):
        reason = "epsilon0 = inf: raw gradients, nothing to account"
        return PrivacyBudget.without_guarantee(cfg.epsilon0, cfg.T, reason), [math.inf] * cfg.T
    if not cfg.account:
        reason = "accounting disabled by configuration"
        return PrivacyBudget.without_guarantee(cfg.epsilon0, cfg.T, reason), [math.nan] * cfg.T
    return budget_and_schedule(cfg.epsilon0, cfg.delta, cfg.T, cfg.params, cfg.variant)


def train(cfg: TrainConfig, data: Population) -> TrainResult:
    """Run the full loop; deterministic given cfg.seed. See the module docstring."""
    p = cfg.params
    d = cfg.ball.dim
    pop = _require_population(data, (p.m, p.r, d))
    X_all, Y_all = pop.features, pop.labels
    task = get_task(cfg.task)

    budget, eps_schedule = _budget_and_schedule(cfg)
    spec = cfg.mechanism_spec()
    big_g = math.sqrt(g_squared(task.lipschitz, d, cfg.ball.p, p.q, p.n, cfg.epsilon0))
    radius = cfg.diameter / 2.0

    server = np.random.default_rng(np.random.SeedSequence((cfg.seed, SERVER_SALT)))
    head = _seed_words(cfg.seed) + [CLIENT_SALT]
    lanes = _on_lanes(spec, p.s)

    theta = np.zeros(d)
    loss_now = task.origin_loss(Y_all)  # batch_loss at theta = 0, exactly
    traces: list[RoundTrace] = []

    for t in range(1, cfg.T + 1):
        chosen = sample_clients(p.m, p.k, server)
        streams = _client_streams(head, chosen, t, lanes)
        if lanes:
            draws = streams.integers(p.r)
        else:
            draws = np.array([_draw_points(p.r, p.s, gen) for gen in streams])  # (k,) or (k, s)
        points = np.repeat(chosen * p.r, p.s) + draws.ravel()
        grads = task.point_grads(theta, X_all[points], Y_all[points])
        if not np.isfinite(grads).all():
            raise ValidationError(f"task {cfg.task!r} produced a non-finite gradient")
        rows, norms = _clip_rows(grads, cfg.ball.p, cfg.ball.radius)

        # The shuffler. The counts decode reads only the multiset, so coded
        # messages need no order; the draw keeps the server stream.
        order = server.permutation(p.k * p.s)
        if spec is None:
            g_bar, l1_arm = rows[order].mean(axis=0), 0
        else:
            g_bar, l1_arm = batch_encoder(rows, spec)(streams)

        eta = cfg.diameter / (big_g * math.sqrt(t))
        theta = project_l2_ball(theta - eta * g_bar, np.zeros(d), radius)
        loss_after = task.batch_loss(theta, X_all, Y_all)
        traces.append(
            RoundTrace(
                t=t,
                client_ids=tuple(pop.client_ids[chosen].tolist()),
                exact_bits=wire.round_payload_bits(spec, p, d, l1_arm),
                loss_before=loss_now,
                loss_after=loss_after,
                grad_norm=float(np.linalg.norm(g_bar)),
                epsilon_so_far=eps_schedule[t - 1],
                clipped=int(np.count_nonzero(norms > cfg.ball.radius)),
            )
        )
        loss_now = loss_after

    frac = sum(tr.clipped for tr in traces) / (cfg.T * p.k * p.s)
    if frac > CLIP_WARN_FRAC:
        warnings.warn(
            f"clipping shrank {frac:.1%} of gradients (> {CLIP_WARN_FRAC:.1%}); "
            "the mini-batch gradient may be biased",
            ClippingWarning,
            stacklevel=2,
        )
    return TrainResult(theta=theta, budget=budget, traces=tuple(traces))

