"""Closed-form risk and convergence bounds for private mean estimation.

Everything here is an exact formula evaluation, no sampling:

* ``risk_upper`` — achievable mean-squared-error bounds for the packaged
  mechanisms, in worst-case or probabilistic (with-high-probability) form.
* ``risk_lower`` — minimax lower bounds. These are order-optimal rates with
  the unknown absolute constant set to 1; they are labeled ``order-only``
  and are meant for sanity plots, never as guarantees.
* ``comm_adversary`` — for any decoder with fewer than d possible outputs,
  an input direction the linear-average estimator cannot see at all.
* ``g_squared`` / ``convergence_bound`` — the gradient second-moment
  constant used for SGD step sizes and the resulting convergence bound
  2·D·G·(2 + ln T)/√T.

Notation: ratio means (e^{eps0}+1)/(e^{eps0}-1), the variance inflation of
an eps0-locally-private bit; it tends to 1 as eps0 grows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .mechanisms import privacy_ratio

LOWER_BOUND_LABEL = "order-only"

# Constants carried by the achievable bounds: (worst-case, probabilistic)
# multipliers on the base rate a^2 d/n * ratio^2 for the l1- and l2-ball
# mechanisms, and on a^2 d^2/n * ratio^2 for the linf-ball mechanism.
_UPPER_CONSTANTS = {
    1.0: (1.0, 4.0),
    2.0: (6.0, 14.0),
    math.inf: (1.0, 4.0),
}


@dataclass(frozen=True)
class RiskQuery:
    """Arguments of a minimax-risk evaluation.

    p — ball exponent in [1, inf]; d — dimension; n — number of clients
    (both integers); a — ball radius with a finite square in float64;
    epsilon0 — finite local privacy parameter; mix_prob — the l1-arm
    probability, required only for p outside {1, 2, inf}.
    """

    p: float
    d: int
    n: int
    a: float
    epsilon0: float
    mix_prob: float | None = None

    def __post_init__(self) -> None:
        def real(v) -> bool:
            return isinstance(v, numbers.Real)

        def count(v) -> bool:
            return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1

        if not (real(self.p) and self.p >= 1.0):
            raise ValidationError(f"p must be a real in [1, inf], got {self.p!r}")
        if not (count(self.d) and count(self.n)):
            raise ValidationError(f"need integers d >= 1 and n >= 1, got d={self.d!r}, n={self.n!r}")
        if not (real(self.a) and 0.0 < self.a < math.inf):
            raise ValidationError(f"radius must be positive and finite, got {self.a!r}")
        if not math.isfinite(self.a * self.a):
            raise ValidationError(
                f"radius {self.a:.6g} is too large: its square overflows float64, "
                "and the risks are in squared units"
            )
        # eps0 = inf is the uncompressed baseline, whose risk these bounds do not give.
        if not (real(self.epsilon0) and 0.0 < self.epsilon0 < math.inf):
            raise ValidationError(f"epsilon0 must be positive and finite, got {self.epsilon0!r}")
        if self.mix_prob is not None and not (real(self.mix_prob) and 0.0 <= self.mix_prob <= 1.0):
            raise ValidationError(f"mix_prob must be in [0, 1], got {self.mix_prob!r}")


def risk_upper(q: RiskQuery, worst_case: bool = True) -> float:
    """Achievable mean-squared-error bound for the matching mechanism.

    For p in {1, 2, inf} (with no mix_prob) this is the direct bound:
    c1*a^2 d/n*ratio^2, c2*a^2 d/n*ratio^2, or c_inf*a^2 d^2/n*ratio^2 with
    (c1, c2, c_inf) = (1, 6, 1) worst-case and (4, 14, 4) probabilistic.
    When mix_prob is given (mandatory for other finite p), the bound is the
    two-arm combination pbar*d^{2-2/p}*r1 + (1-pbar)*max{d^{1-2/p},1}*r2,
    where r1 and r2 are the direct p=1 and p=2 bounds at the same radius.
    ValidationError if the bound overflows float64.
    """
    base = q.a * q.a * q.d / q.n * _ratio_squared(q.epsilon0)
    idx = 0 if worst_case else 1
    if q.mix_prob is not None:
        if math.isinf(q.p):
            raise ValidationError("the two-arm bound needs finite p")
        pbar = q.mix_prob
        r1 = _UPPER_CONSTANTS[1.0][idx] * base
        r2 = _UPPER_CONSTANTS[2.0][idx] * base
        risk = pbar * q.d ** (2.0 - 2.0 / q.p) * r1 + (1.0 - pbar) * max(
            q.d ** (1.0 - 2.0 / q.p), 1.0
        ) * r2
    elif q.p == 1.0 or q.p == 2.0:
        risk = _UPPER_CONSTANTS[q.p][idx] * base
    elif math.isinf(q.p):
        risk = _UPPER_CONSTANTS[math.inf][idx] * base * q.d
    else:
        raise ValidationError(
            f"p={q.p} has no direct bound; supply mix_prob for the two-arm mechanism"
        )
    return _finite_risk(risk, q)


def risk_lower(q: RiskQuery) -> float:
    """Minimax lower bound on the mean-squared error (order-only, constant 1).

    For p <= 2: a^2 * min{1, d/(n*eps0^2)}. For p > 2:
    a^2 * d^{1-2/p} * min{1, d/(n*min{eps0, eps0^2})}. The hidden absolute
    constant is unknown; treat the value as a rate, not a guarantee.
    ValidationError if the bound overflows float64.
    """
    eps_term = q.epsilon0**2 if q.p <= 2.0 else min(q.epsilon0, q.epsilon0**2)
    shape = 1.0 if q.p <= 2.0 else q.d ** (1.0 - 2.0 / q.p)
    denom = q.n * eps_term  # 0 when a tiny eps0, squared, underflows: then the cap 1
    return _finite_risk(q.a * q.a * shape * (min(1.0, q.d / denom) if denom else 1.0), q)


def _finite_risk(risk: float, q: RiskQuery) -> float:
    if not math.isfinite(risk):
        raise ValidationError(f"the risk bound overflows float64 for {q}")
    return risk


def _ratio_squared(eps0: float) -> float:
    """ratio^2; ValidationError when it overflows float64 (eps0 below about 1.5e-154)."""
    ratio = privacy_ratio(eps0)
    if not math.isfinite(ratio * ratio):
        raise ValidationError(
            f"epsilon0 = {eps0!r} is too small: the squared privacy ratio overflows float64"
        )
    return ratio ** 2


def comm_adversary(decoder_table, p: float, a: float) -> np.ndarray:
    """An input no low-communication linear-average estimator can recover.

    decoder_table maps each possible message to its decoded vector (a mapping,
    or an array whose rows are the decoded outputs). When the number of
    outputs is below the dimension d, those outputs span a proper subspace;
    this returns a vector orthogonal to all of them, normalized to lp norm a.
    An estimator that averages decoded outputs has zero component along this
    direction, so its squared error on n copies of it exceeds
    a^2 * max{1, d^{1-2/p}} regardless of n.
    """
    if hasattr(decoder_table, "values") and callable(decoder_table.values):
        rows = list(decoder_table.values())
    else:
        rows = list(decoder_table)
    matrix = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if matrix.ndim != 2:
        raise ValidationError("decoder table must be a collection of equal-length vectors")
    n_outputs, d = matrix.shape
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("decoder table contains non-finite entries")
    if n_outputs >= d:
        raise ValidationError(
            f"need fewer decoder outputs than dimensions, got {n_outputs} >= {d}"
        )
    if not a > 0.0 or not p >= 1.0:
        raise ValidationError(f"need a > 0 and p >= 1, got a={a!r}, p={p!r}")
    # Rightmost singular vectors span the null space; with n_outputs < d the
    # rank is below d, so the last one is orthogonal to every decoder row.
    _, singular, vt = np.linalg.svd(matrix)
    direction = vt[-1]
    scale = max(float(singular[0]), 1.0)
    residual = float(np.max(np.abs(matrix @ direction)))
    assert residual <= 1e-10 * scale, "decoder matrix unexpectedly has full row rank"
    first = np.flatnonzero(np.abs(direction) > 1e-12)[0]
    if direction[first] < 0.0:
        direction = -direction
    if math.isinf(p):
        norm = float(np.max(np.abs(direction)))
    else:
        norm = float(np.sum(np.abs(direction) ** p) ** (1.0 / p))
    return a / norm * direction


def g_squared(L: float, d: int, p: float, q: float, n: int, epsilon0: float) -> float:
    """Second-moment constant G^2 = L^2 max{d^{1-2/p},1} (1 + (c d/(q n)) ratio^2).

    c = 4 when the gradient ball is l1 or linf (p in {1, inf}), 14 otherwise.
    epsilon0 = inf means no privacy noise (ratio = 1).
    """
    if not L > 0.0 or not 0.0 < q <= 1.0 or d < 1 or n < 1:
        raise ValidationError(
            f"need L > 0, q in (0, 1], d >= 1, n >= 1, got L={L!r}, q={q!r}, d={d}, n={n}"
        )
    if not p >= 1.0:
        raise ValidationError(f"p must be in [1, inf], got {p!r}")
    if not epsilon0 > 0.0:
        raise ValidationError(f"epsilon0 must be positive, got {epsilon0!r}")
    c = 4.0 if (p == 1.0 or math.isinf(p)) else 14.0
    shape = max(d ** (1.0 - 2.0 / p), 1.0)
    return L * L * shape * (1.0 + c * d / (q * n) * _ratio_squared(epsilon0))


def convergence_bound(
    L: float, D: float, d: int, p: float, T: float, q: float, n: int, epsilon0: float
) -> float:
    """Optimality gap after T rounds of step size D/(G sqrt(t)): 2DG(2+ln T)/sqrt(T)."""
    if not D > 0.0:
        raise ValidationError(f"diameter must be positive, got {D!r}")
    if not T >= 1.0:
        raise ValidationError(f"T must be >= 1, got {T!r}")
    big_g = math.sqrt(g_squared(L, d, p, q, n, epsilon0))
    return 2.0 * D * big_g * (2.0 + math.log(T)) / math.sqrt(T)


def excess_risk_full_participation(
    L: float, D: float, d: int, n: int, epsilon0: float
) -> float:
    """Convergence bound preset: every client in every round, T = n/ln^2(n), p = 2."""
    if n < 2:
        raise ValidationError(f"need n >= 2 for the n/ln^2(n) schedule, got {n}")
    T = max(n / math.log(n) ** 2, 1.0)
    return convergence_bound(L, D, d, 2.0, T, 1.0, n, epsilon0)


def excess_risk_sampled(
    L: float, D: float, d: int, n: int, q: float, epsilon0: float
) -> float:
    """Convergence bound preset: sampling rate q per round, T = n/q rounds, p = 2."""
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"q must be in (0, 1], got {q!r}")
    T = max(n / q, 1.0)
    return convergence_bound(L, D, d, 2.0, T, q, n, epsilon0)
