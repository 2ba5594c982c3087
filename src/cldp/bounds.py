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
from dataclasses import dataclass

import numpy as np

from .errors import FLOAT_COUNT, ValidationError, require_int, require_real
from .linalg import p_norm
from .mechanisms import _require_mix_prob, privacy_ratio

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
        require_real(self.p, "p", "[1, inf]")
        require_int(self.d, "d", FLOAT_COUNT)
        require_int(self.n, "n", FLOAT_COUNT)
        require_real(self.a, "radius", "(0, inf)")
        if not math.isfinite(self.a * self.a):
            raise ValidationError(
                f"radius {self.a:.6g} is too large: its square overflows float64, "
                "and the risks are in squared units"
            )
        # eps0 = inf is the uncompressed baseline, whose risk these bounds do not give.
        require_real(self.epsilon0, "epsilon0", "(0, inf)")
        _require_mix_prob(self.mix_prob)


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
        decoder_table = decoder_table.values()
    try:
        matrix = np.atleast_2d(np.asarray(list(decoder_table), dtype=np.float64))
    except (TypeError, ValueError):
        matrix = None
    if matrix is None or matrix.ndim != 2:
        raise ValidationError("decoder table must be a collection of equal-length vectors")
    n_outputs, d = matrix.shape
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("decoder table contains non-finite entries")
    if n_outputs >= d:
        raise ValidationError(
            f"need fewer decoder outputs than dimensions, got {n_outputs} >= {d}"
        )
    require_real(a, "a", "(0, inf)")
    require_real(p, "p", "[1, inf]")
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
    return a / p_norm(direction, p) * direction


def g_squared(L: float, d: int, p: float, q: float, n: int, epsilon0: float) -> float:
    """Second-moment constant G^2 = L^2 max{d^{1-2/p},1} (1 + (c d/(q n)) ratio^2).

    c is ``risk_upper``'s probabilistic constant: 4 for p in {1, inf}, else l2's 14.
    epsilon0 = inf means no privacy noise (ratio = 1).
    """
    require_real(L, "L", "(0, inf]")
    require_real(q, "q", "(0, 1]")
    require_int(d, "d", FLOAT_COUNT)
    require_int(n, "n", FLOAT_COUNT)
    require_real(p, "p", "[1, inf]")
    require_real(epsilon0, "epsilon0", "(0, inf]")
    c = _UPPER_CONSTANTS.get(p, _UPPER_CONSTANTS[2.0])[1]
    shape = max(d ** (1.0 - 2.0 / p), 1.0)
    return L * L * shape * (1.0 + c * d / (q * n) * _ratio_squared(epsilon0))


def convergence_bound(
    L: float, D: float, d: int, p: float, T: float, q: float, n: int, epsilon0: float
) -> float:
    """Optimality gap after T rounds of step size D/(G sqrt(t)): 2DG(2+ln T)/sqrt(T)."""
    require_real(D, "diameter", "(0, inf]")
    require_real(T, "T", FLOAT_COUNT)
    big_g = math.sqrt(g_squared(L, d, p, q, n, epsilon0))
    return 2.0 * D * big_g * (2.0 + math.log(T)) / math.sqrt(T)

