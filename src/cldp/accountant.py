"""Privacy accounting for shuffled, subsampled, composed local randomizers.

The pipeline turns a per-message local parameter eps0 into a central (eps,
delta) guarantee in three stages, each a closed-form amplification or
composition statement (all logs natural):

1. shuffling the per-round batch of k*s messages:
       eps_tilde = amplify_by_shuffling(eps0, delta_tilde, k*s, variant)
2. sampling: each data point participates in a round with probability
   q = (k/m)*(s/r). For s=1 the full q amplifies; for s>1 only the
   within-client rate q2 = s/r does (client sampling buys nothing there),
   and a warning is emitted:
       eps_bar = amplify_by_subsampling(eps_tilde, delta_tilde, q or q2),
       delta_bar = q*delta_tilde
3. strong composition over T rounds:
       eps = sqrt(2*T*ln(1/delta'))*eps_bar + T*eps_bar*(e^{eps_bar}-1)
       delta = T*delta_bar + delta'

``end_to_end`` fixes the delta split delta_tilde = delta/(2qT), delta' =
delta/2, so the output delta reconstructs the target exactly, and records a
human-readable provenance line per stage. ``calibrate_epsilon0`` inverts the
map by bisection.

The shuffling bounds have stated constants and act on a batch of n = k*s
messages at delta_tilde: ``ExplicitShuffling`` ("explicit", the default) and
``ClonesShuffling`` ("clones", Theorem 3.1 of Feldman, McMillan and Talwar,
"Hiding among the clones", arXiv:2012.12803). Each is one class holding its
formula (``epsilon_tilde``) and its eps0 range (``eps0_range``), which
``amplify_by_shuffling`` reads to raise PreconditionError and
``max_feasible_epsilon0`` to raise InfeasibleError.
``VARIANTS`` registers them by ``--variant`` name, with ``DEFAULT_VARIANT``
the default: a new bound is one class and one entry. Malformed arguments (a
string, a bool, a float count, a count float() cannot hold) raise
ValidationError. A delta split delta/(2qT) outside (0, 1) fails a
precondition, so raises PreconditionError (InfeasibleError from
``max_feasible_epsilon0``). Every budget a run reports is built here, by
``budget_and_schedule`` or ``PrivacyBudget.without_guarantee``; this module
imports nothing from the package but ``errors``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Union

from .errors import (
    _LN_FLOAT_MAX,
    FLOAT_COUNT,
    AccountingError,
    AmplificationWarning,
    InfeasibleError,
    PreconditionError,
    ValidationError,
    require_int,
    require_real,
)


@dataclass(frozen=True)
class SamplingParams:
    """Two-level sampling: k of m clients per round, s of r points per client."""

    m: int
    k: int
    r: int
    s: int

    def __post_init__(self) -> None:
        for name in ("m", "k", "r", "s"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if not 1 <= self.k <= self.m:
            raise ValidationError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        if not 1 <= self.s <= self.r:
            raise ValidationError(f"need 1 <= s <= r, got s={self.s}, r={self.r}")

    @property
    def q1(self) -> float:
        return self.k / self.m

    @property
    def q2(self) -> float:
        return self.s / self.r

    @property
    def q(self) -> float:
        """Probability a given data point participates in a given round."""
        return self.q1 * self.q2

    @property
    def n(self) -> int:
        """Total data points m*r."""
        return self.m * self.r

    @property
    def batch(self) -> int:
        """Messages entering the shuffler each round: k*s."""
        return self.k * self.s


class Eps0Range(NamedTuple):
    """The eps0 a shuffling bound takes at a given delta and batch: below
    ``cap``, or up to it when ``closed``; ``condition`` is the inequality."""

    cap: float
    closed: bool
    condition: str


@dataclass(frozen=True)
class ExplicitShuffling:
    """eps_tilde = 12*eps0*sqrt(ln(1/delta)/m_eff).

    Valid for eps0 < 1/2, delta in (0, 1/100), m_eff >= 1000. Explicit
    constants make this the default for reported guarantees.
    """

    @property
    def name(self) -> str:
        return "shuffling, explicit constants"

    def eps0_range(self, delta: float, m_eff: int) -> Eps0Range:
        """PreconditionError when delta or the batch leaves no eps0."""
        if not delta < 0.01:
            raise PreconditionError(
                f"explicit shuffling bound requires delta < 1/100; got delta = {delta:.6g}"
            )
        if not m_eff >= 1000:
            raise PreconditionError(
                f"explicit shuffling bound requires a batch of >= 1000 messages; got {m_eff}"
            )
        return Eps0Range(0.5, False, "explicit shuffling bound requires epsilon0 < 1/2")

    def epsilon_tilde(self, eps0: float, delta: float, m_eff: int) -> float:
        return 12.0 * eps0 * math.sqrt(math.log(1.0 / delta) / m_eff)


@dataclass(frozen=True)
class ClonesShuffling:
    """eps_tilde = ln(1 + (e^eps0 - 1)/(e^eps0 + 1)*(8*sqrt(e^eps0*ln(4/delta)/m_eff)
    + 8*e^eps0/m_eff)).

    Theorem 3.1 of Feldman, McMillan and Talwar, "Hiding among the clones"
    (arXiv:2012.12803), valid for eps0 <= ln(m_eff/(16*ln(2/delta))). Its
    constants are stated, so its outputs are guarantees.
    """

    @property
    def name(self) -> str:
        return "shuffling, clones bound (Feldman-McMillan-Talwar Thm 3.1)"

    def eps0_range(self, delta: float, m_eff: int) -> Eps0Range:
        """PreconditionError when the batch leaves no eps0: m_eff <= 16*ln(2/delta)."""
        floor = 16.0 * math.log(2.0 / delta)
        cap = math.log(m_eff / floor)
        if not cap > 0.0:
            raise PreconditionError(
                "clones shuffling bound requires a batch m_eff > 16*ln(2/delta) = "
                f"{floor:.6g}; got {m_eff}"
            )
        rule = "epsilon0 <= ln(m_eff/(16*ln(2/delta)))"
        return Eps0Range(cap, True, f"clones shuffling bound requires {rule} = {cap:.6g}")

    def epsilon_tilde(self, eps0: float, delta: float, m_eff: int) -> float:
        e0 = math.exp(eps0)
        spread = 8.0 * math.sqrt(e0 * math.log(4.0 / delta) / m_eff) + 8.0 * e0 / m_eff
        return math.log1p(math.expm1(eps0) / (e0 + 1.0) * spread)


# The shuffling bounds, by the name ``--variant`` takes; the one list of them.
VARIANTS = {"explicit": ExplicitShuffling(), "clones": ClonesShuffling()}
DEFAULT_VARIANT = "explicit"

ShufflingVariant = Union[tuple(type(bound) for bound in VARIANTS.values())]


def get_variant(name: str) -> ShufflingVariant:
    """Look up a shuffling bound by name; the error lists what is registered."""
    if isinstance(name, str) and name in VARIANTS:
        return VARIANTS[name]
    registered = ", ".join(sorted(VARIANTS))
    raise ValidationError(f"unknown shuffling variant {name!r:.200}; registered: {registered}")


def _validate_variant(variant) -> None:
    if not isinstance(variant, tuple(type(bound) for bound in VARIANTS.values())):
        raise ValidationError(f"unknown shuffling variant {variant!r:.200}")


@dataclass(frozen=True)
class PrivacyBudget:
    """Every stage of the chain from local eps0 to central (eps, delta).

    ``provenance`` holds one line per stage naming the rule that produced it.
    ``guarantee`` is False when the central pair was not evaluated (baseline
    or accounting-disabled runs); eps/delta are NaN in that case.
    """

    epsilon0: float
    epsilon_tilde: float
    delta_tilde: float
    epsilon_bar: float
    delta_bar: float
    epsilon: float
    delta: float
    T: int
    provenance: tuple[str, ...]
    guarantee: bool = True

    @classmethod
    def without_guarantee(cls, epsilon0: float, T: int, reason: str) -> PrivacyBudget:
        """The budget of a run that claims no central pair, with the reason why."""
        provenance = (reason, "no central (epsilon, delta) guarantee is claimed")
        return cls(epsilon0, *[math.nan] * 6, T, provenance, guarantee=False)


def _delta_split(delta: float, T: int, params: SamplingParams) -> tuple[int, float]:
    """(T, delta_tilde = delta/(2qT)) once delta, T and params are checked;
    PreconditionError when delta_tilde is not a delta."""
    require_real(delta, "delta", "(0, 1)")
    T = require_int(T, "T", FLOAT_COUNT)
    if not isinstance(params, SamplingParams):
        raise ValidationError(f"params must be SamplingParams, got {params!r}")
    delta_tilde = delta / (2.0 * params.q * T)
    if not 0.0 < delta_tilde < 1.0:
        raise PreconditionError(
            f"the delta split needs 0 < delta/(2qT) < 1, got {delta_tilde:.6g}; "
            "increase T or the sampling rate"
        )
    return T, delta_tilde


def amplify_by_subsampling(eps: float, delta: float, q: float) -> tuple[float, float]:
    """(ln(1 + q*(e^eps - 1)), q*delta); the identity at q=1.

    Above ``_LN_FLOAT_MAX``, where e^eps overflows, the same value is
    eps + ln(q + (1 - q) e^-eps).
    """
    require_real(eps, "eps", "[0, inf]")
    require_real(delta, "delta", "[0, 1)")
    require_real(q, "sampling rate q", "(0, 1]")
    if q == 1.0:
        return eps, delta  # exact identity, not log1p(expm1(eps))
    if eps > _LN_FLOAT_MAX:
        return eps + math.log(q + (1.0 - q) * math.exp(-eps)), q * delta
    return math.log1p(q * math.expm1(eps)), q * delta


def amplify_by_shuffling(
    eps0: float, delta: float, m_eff: int, variant: ShufflingVariant
) -> float:
    """Post-shuffle eps_tilde for a batch of m_eff messages, at the given delta.

    Raises a precondition error naming the failing inequality when the chosen
    bound does not apply.
    """
    _validate_variant(variant)
    require_real(eps0, "epsilon0", "(0, inf]")
    require_real(delta, "delta", "(0, 1)")
    m_eff = require_int(m_eff, "shuffler batch size", FLOAT_COUNT)
    valid = variant.eps0_range(delta, m_eff)
    if not (eps0 <= valid.cap if valid.closed else eps0 < valid.cap):
        raise PreconditionError(f"{valid.condition}; got epsilon0 = {eps0:.6g}")
    return variant.epsilon_tilde(eps0, delta, m_eff)


def _sampling_stage(eps_tilde: float, delta_tilde: float, params: SamplingParams):
    """(eps_bar, delta_bar, the amplifying rate as text) of one round's sampling.

    For s=1 the full participation rate q amplifies; for s>1 only q2 = s/r,
    because a client's s messages are not independent across the
    client-sampling randomness. delta_bar = q*delta_tilde in both branches.

    delta_bar keeps q when s>1, by a mixture over whether the client of the
    substituted point x is sampled (probability q1 = k/m). Unsampled, the
    round's output law R does not depend on x. Sampled, x joins the client's
    s-of-r draw without replacement, so that branch's laws P1, Q1 on the two
    datasets have P1(S) <= e^eps_bar*Q1(S) + q2*delta_tilde (Balle, Barthe and
    Gaboardi, arXiv:1807.01647, substitution relation). Hence
    P(S) <= q1*(e^eps_bar*Q1(S) + q2*delta_tilde) + (1-q1)*R(S)
    <= e^eps_bar*Q(S) + q*delta_tilde. The mixture gives eps no q1 factor:
    its two branches differ by the client's whole contribution, not by x.
    """
    if params.s == 1:
        rate, note = params.q, f"q = {params.q:.6g}"
    else:
        if params.k < params.m:
            warnings.warn(
                "client sampling gives no per-round privacy amplification when s > 1; "
                f"using the data-sampling rate q2 = {params.q2:.6g} instead of q = {params.q:.6g}",
                AmplificationWarning,
                stacklevel=3,
            )
        rate, note = params.q2, f"q2 = {params.q2:.6g} (s > 1: client sampling does not amplify)"
    eps_bar, _ = amplify_by_subsampling(eps_tilde, delta_tilde, rate)
    return eps_bar, params.q * delta_tilde, note


def strong_composition(
    eps_bar: float, delta_bar: float, T: int, delta_prime: float
) -> tuple[float, float]:
    """T-fold strong composition: the exact stated pair, no asymptotics.

    Above ``_LN_FLOAT_MAX``, where e^eps_bar overflows, eps is inf, the
    float64 value of a bound that large.
    """
    require_real(eps_bar, "eps_bar", "[0, inf]")
    require_real(delta_bar, "delta_bar", "[0, 1)")
    T = require_int(T, "T", FLOAT_COUNT)
    require_real(delta_prime, "delta'", "(0, 1)")
    if eps_bar > _LN_FLOAT_MAX:
        return math.inf, T * delta_bar + delta_prime
    eps = math.sqrt(2.0 * T * math.log(1.0 / delta_prime)) * eps_bar
    eps += T * eps_bar * math.expm1(eps_bar)
    return eps, T * delta_bar + delta_prime


def end_to_end(
    eps0: float,
    delta: float,
    T: int,
    params: SamplingParams,
    variant: ShufflingVariant = VARIANTS[DEFAULT_VARIANT],
) -> PrivacyBudget:
    """Full chain with the delta split delta_tilde = delta/(2qT), delta' = delta/2.

    The output delta reconstructs the target exactly:
    T*(q*delta_tilde) + delta/2 = delta/2 + delta/2.
    """
    T, delta_tilde = _delta_split(delta, T, params)
    eps_tilde = amplify_by_shuffling(eps0, delta_tilde, params.batch, variant)
    eps_bar, delta_bar, amp_note = _sampling_stage(eps_tilde, delta_tilde, params)
    delta_prime = delta / 2.0
    eps, delta_out = strong_composition(eps_bar, delta_bar, T, delta_prime)
    # T*(q*(delta/(2qT))) + delta/2 telescopes back to delta; re-deriving it
    # through the stages and comparing guards the split, then the requested
    # target is reported so the reconstruction is exact rather than 1 ulp off.
    if not math.isclose(delta_out, delta, rel_tol=1e-9):
        raise AccountingError(
            f"delta split failed to reconstruct the target: {delta_out!r} != {delta!r}"
        )
    delta_out = delta
    provenance = (
        f"local randomizer: epsilon0 = {eps0:.12g}",
        f"{variant.name} over the per-round batch of k*s = {params.batch} messages "
        f"at delta_tilde = delta/(2qT) = {delta_tilde:.12g}: epsilon_tilde = {eps_tilde:.12g}",
        f"sampling amplification with {amp_note}: epsilon_bar = {eps_bar:.12g}, "
        f"delta_bar = q*delta_tilde = {delta_bar:.12g}",
        f"strong composition over T = {T} rounds at delta' = delta/2 = {delta_prime:.12g}: "
        f"epsilon = {eps:.12g}, delta = {delta_out:.12g}",
    )
    return PrivacyBudget(
        epsilon0=eps0,
        epsilon_tilde=eps_tilde,
        delta_tilde=delta_tilde,
        epsilon_bar=eps_bar,
        delta_bar=delta_bar,
        epsilon=eps,
        delta=delta_out,
        T=T,
        provenance=provenance,
    )


def budget_and_schedule(
    eps0: float, delta: float, T: int, params: SamplingParams, variant: ShufflingVariant
) -> tuple[PrivacyBudget, list[float]]:
    """A T-round run's budget, and per round t the epsilon of a run ending there:
    NaN where that run fails a precondition, which a provenance line names."""
    budget = end_to_end(eps0, delta, T, params, variant)
    schedule, failed = [], []
    for t in range(1, budget.T):
        try:
            schedule.append(end_to_end(eps0, delta, t, params, variant).epsilon)
        except (ValidationError, AccountingError) as exc:
            schedule.append(math.nan)
            failed.append((t, exc))
    schedule.append(budget.epsilon)
    if failed:
        reason = (
            f"epsilon_so_far is NaN for rounds {_spans([t for t, _ in failed])}: "
            f"a run ending there fails a precondition ({failed[0][1]})"
        )
        budget = replace(budget, provenance=budget.provenance + (reason,))
    return budget, schedule


def _spans(rounds: list[int]) -> str:
    """Increasing round numbers as runs of consecutive ones: '1-3, 7'."""
    starts = [t for i, t in enumerate(rounds) if i == 0 or rounds[i - 1] != t - 1]
    ends = [t for i, t in enumerate(rounds) if i == len(rounds) - 1 or rounds[i + 1] != t + 1]
    return ", ".join(f"{a}-{b}" if a < b else str(a) for a, b in zip(starts, ends))


def max_feasible_epsilon0(
    delta: float, T: int, params: SamplingParams, variant: ShufflingVariant
) -> float:
    """Supremum of the eps0 range on which the variant's bound applies."""
    _validate_variant(variant)
    try:
        _, delta_tilde = _delta_split(delta, T, params)
        return variant.eps0_range(delta_tilde, params.batch).cap
    except PreconditionError as err:
        raise InfeasibleError(f"at a batch of k*s = {params.batch}: {err}") from None


def calibrate_epsilon0(
    eps_target: float,
    delta: float,
    T: int,
    params: SamplingParams,
    variant: ShufflingVariant = VARIANTS[DEFAULT_VARIANT],
) -> float:
    """Largest eps0 whose end-to-end eps stays at or below the target.

    Bisection on the monotone map eps0 -> end_to_end(...).epsilon, run to a
    relative bracket width of 1e-9; the returned eps0 satisfies
    end_to_end(eps0) <= eps_target < end_to_end(eps0*(1+1e-6)). Raises the
    infeasible error when the target lies outside the achievable range of the
    variant (below the minimum, or above the value at the variant's eps0 cap).
    """
    require_real(eps_target, "target epsilon", "(0, inf]")
    cap = max_feasible_epsilon0(delta, T, params, variant)
    hi = cap * (1.0 - 1e-12)
    lo = min(1e-8, hi / 2.0)

    def central_eps(e0: float) -> float:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmplificationWarning)
            return end_to_end(e0, delta, T, params, variant).epsilon

    f_lo, f_hi = central_eps(lo), central_eps(hi)
    if f_lo > eps_target:
        raise InfeasibleError(
            f"target epsilon {eps_target:.6g} is below the minimum achievable "
            f"{f_lo:.6g} (at epsilon0 = {lo:.3g})"
        )
    if f_hi <= eps_target:
        raise InfeasibleError(
            f"target epsilon {eps_target:.6g} is not reached within the variant's "
            f"valid range: epsilon0 <= {cap:.6g} yields at most epsilon = {f_hi:.6g}"
        )
    for _ in range(200):
        if hi - lo <= lo * 1e-9:
            break
        mid = 0.5 * (lo + hi)
        if central_eps(mid) <= eps_target:
            lo = mid
        else:
            hi = mid
    return lo
