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

A round runs on arrays: one ``point_grads`` call for all k*s points, one
clip pass, and one ``mechanisms.batch_encoder`` call, which makes one draw
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
whose rows hold the words numpy derives from those tuples (each int as its
little-endian 32-bit words, 0 as one word); the seed is split once per run.
The round's k seed states come from one vectorised pass of SeedSequence's
hash over that matrix, so a stream costs only its generator, and equals the
tuple-built one; the tests check the hash against numpy's ``SeedSequence``
bit for bit. A client's stream draws its s points, then the noise of its s
rows in the mechanism's documented order, so for s = 1 a message draws
exactly what a single encode draws. One point and one index-family row use
scalar draws (``integers(r)`` for ``choice(r, 1, replace=False)``;
``integers(dim)`` and ``random()`` for the size-1 calls): they read the
same bits at a fraction of the cost. The round gathers the k streams'
scalars into one array per component, its points here (``_draw_points``
holds the one-point rule, which ``sample_data`` shares) and an index
family's indices and uniforms in ``mechanisms.batch_encoder``. The word
rows and the scalar draws were checked against the old forms on numpy
2.4.6, and tests pin both.

epsilon0 = inf is the non-private baseline: clipped gradients are sent
uncompressed and in the clear, and the reported budget carries no guarantee.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ..accountant import (
    ExplicitShuffling,
    PrivacyBudget,
    SamplingParams,
    ShufflingVariant,
    end_to_end,
)
from ..bounds import g_squared
from ..errors import AccountingError, ClippingWarning, ValidationError
from ..linalg import BallSpec, project_l2_ball
from ..mechanisms import MechanismSpec, batch_encoder, mechanism_family
from .. import wire
from .data import ClientDataset, stack_points, validate_clients
from .tasks import get_task

CLIENT_SALT = 0x434C4E54  # per-(client, round) streams
SERVER_SALT = 0x53525652  # client sampling and the shuffler
CLIP_WARN_FRAC = 0.01  # a run that clips more of its gradients warns (ClippingWarning)
_WORD = 0xFFFFFFFF

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_U32, _U64 = np.uint32, np.dtype(np.uint64)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_XSHIFT = _U32(16)
_POOL_SIZE = 4


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

    def __post_init__(self) -> None:
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not isinstance(self.T, int) or self.T < 1:
            raise ValidationError(f"T must be a positive integer, got {self.T!r}")
        if not self.epsilon0 > 0.0:
            raise ValidationError(f"epsilon0 must be positive (inf allowed), got {self.epsilon0!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not self.diameter > 0.0:
            raise ValidationError(f"diameter must be positive, got {self.diameter!r}")
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
    run ending at this round (NaN when not accounted, or when that run fails a
    precondition, which the budget's provenance names); ``clipped`` counts the
    round's gradients that the clip shrank.
    """

    t: int
    client_ids: tuple[int, ...]
    exact_bits: int
    expected_bits: float
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
    if not 1 <= k <= m:
        raise ValidationError(f"need 1 <= k <= m, got k={k}, m={m}")
    return np.sort(np.random.default_rng(rng).choice(m, size=k, replace=False))


def sample_data(r: int, s: int, rng) -> np.ndarray:
    """s distinct point indices, uniform over all s-subsets of range(r)."""
    if not 1 <= s <= r:
        raise ValidationError(f"need 1 <= s <= r, got s={s}, r={r}")
    return np.atleast_1d(_draw_points(r, s, np.random.default_rng(rng)))


def _draw_points(r: int, s: int, gen: np.random.Generator):
    """``sample_data``'s draw, 1 <= s <= r. One point is the scalar
    ``integers(r)``, which draws what ``choice(r, 1, replace=False)`` draws
    (see the module docstring) at a fifth of the cost."""
    if s == 1:
        return gen.integers(r)
    return np.sort(gen.choice(r, size=s, replace=False))


def _seed_words(n: int) -> list[int]:
    """The 32-bit words numpy's SeedSequence makes of a nonnegative int:
    little-endian, and 0 is one word."""
    words = [n & _WORD]
    while n > _WORD:
        n >>= 32
        words.append(n & _WORD)
    return words


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) constants of successive calls to SeedSequence's
    hashmix: the running constant is xored in, then multiplied by ``mult``
    and the value by the product. They depend only on the call index."""
    const = init
    while True:
        nxt = const * mult & _WORD
        yield _U32(const), _U32(nxt)
        const = nxt


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a
    (k, L) uint32 matrix, as one (k, 4) uint64 array.

    numpy's pool hash (``mix_entropy``, then ``generate_state``) run column
    by column over all rows at once; numpy keeps it stable under its RNG
    compatibility policy (NEP 19), and the tests check it against
    ``SeedSequence``. Every operand is uint32, so numpy 1.x value-based
    casting and numpy 2's NEP 50 wrap alike.
    """
    consts = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(value):
        xor, mul = next(consts)
        value = (value ^ xor) * mul
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> _XSHIFT)

    k, n = words.shape
    cols = np.ascontiguousarray(words.T)
    zero = np.zeros(k, dtype=np.uint32)
    pool = [hashmix(cols[i] if i < n else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(cols[src]))
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _HashedSeed(ISeedSequence):
    """A seed whose state is already hashed: PCG64 asks it for
    ``generate_state(4, np.uint64)``, and any other request fails rather
    than seed a generator differently."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != _U64:
            raise ValidationError(
                "a pre-hashed seed holds generate_state(4, uint64) only, "
                f"got ({n_words!r}, {dtype!r})"
            )
        return self._state


def _client_streams(head: list[int], chosen: np.ndarray, t: int) -> list[np.random.Generator]:
    """Round t's client streams, one per entry of ``chosen``, each the
    generator ``SeedSequence((seed, CLIENT_SALT, client, t))`` seeds.
    ``head`` is the words of seed and salt. A client index is one word: it
    is below m, and a run holds all m client datasets, so m is far below
    2**32."""
    tail = _seed_words(t)
    words = np.empty((len(chosen), len(head) + 1 + len(tail)), dtype=np.uint32)
    words[:, : len(head)] = head
    words[:, len(head)] = chosen
    words[:, len(head) + 1 :] = tail
    return _word_streams(words)


def _word_streams(words: np.ndarray) -> list[np.random.Generator]:
    """``default_rng(SeedSequence(row))`` for every row of a (k, L) uint32
    matrix, from one hash pass."""
    return [np.random.Generator(np.random.PCG64(_HashedSeed(row))) for row in _seed_states(words)]


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
    """Final budget (plus a line naming any NaN rounds) and epsilon-so-far per round."""
    if math.isinf(cfg.epsilon0):
        budget = _no_guarantee_budget(cfg, "epsilon0 = inf: raw gradients, nothing to account")
        return budget, [math.inf] * cfg.T
    if not cfg.account:
        budget = _no_guarantee_budget(cfg, "accounting disabled by configuration")
        return budget, [math.nan] * cfg.T
    budget = end_to_end(cfg.epsilon0, cfg.delta, cfg.T, cfg.params, cfg.variant)
    schedule, failed = [], []
    for t in range(1, cfg.T):
        try:
            schedule.append(end_to_end(cfg.epsilon0, cfg.delta, t, cfg.params, cfg.variant).epsilon)
        except (ValidationError, AccountingError) as exc:
            schedule.append(math.nan)
            failed.append((t, exc))
    schedule.append(budget.epsilon)
    if failed:
        reason = (
            f"epsilon_so_far is NaN for rounds {_spans([t for t, _ in failed])}: "
            f"a run ending there fails a precondition ({failed[0][1]})"
        )
        budget = dataclasses.replace(budget, provenance=budget.provenance + (reason,))
    return budget, schedule


def _spans(rounds: list[int]) -> str:
    """Increasing round numbers as runs of consecutive ones: '1-3, 7'."""
    starts = [t for i, t in enumerate(rounds) if i == 0 or rounds[i - 1] != t - 1]
    ends = [t for i, t in enumerate(rounds) if i == len(rounds) - 1 or rounds[i + 1] != t + 1]
    return ", ".join(f"{a}-{b}" if a < b else str(a) for a, b in zip(starts, ends))


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
    expected_bits = wire.expected_round_bits(spec, p, d)

    X_all, Y_all = stack_points(data)
    server = np.random.default_rng(np.random.SeedSequence((cfg.seed, SERVER_SALT)))
    head = _seed_words(cfg.seed) + [CLIENT_SALT]

    theta = np.zeros(d)
    loss_now = task.batch_loss(theta, X_all, Y_all)
    traces: list[RoundTrace] = []

    for t in range(1, cfg.T + 1):
        chosen = sample_clients(p.m, p.k, server)
        streams = _client_streams(head, chosen, t)
        draws = np.array([_draw_points(p.r, p.s, gen) for gen in streams])  # (k,) or (k, s)
        points = np.repeat(chosen * p.r, p.s) + draws.ravel()
        grads = task.point_grads(theta, X_all[points], Y_all[points])
        if not np.isfinite(grads).all():
            raise ValidationError(f"task {cfg.task!r} produced a non-finite gradient")
        norms = np.linalg.norm(grads, ord=cfg.ball.p, axis=1)
        rows = grads / np.maximum(1.0, norms / cfg.ball.radius)[:, None]  # linalg.clip's formula

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
                client_ids=tuple([int(data[ci].client_id) for ci in chosen.tolist()]),
                exact_bits=wire.round_payload_bits(spec, p, d, l1_arm),
                expected_bits=expected_bits,
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

