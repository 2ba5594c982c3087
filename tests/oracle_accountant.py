"""Straight-line reference formulas for the privacy accountant.

These were written directly from the composition / amplification lemmas before
the package accountant existed, using only the ``math`` module, and are kept
free of any package imports on purpose: the test suite compares the package
accountant against this file as two independent routes to the same numbers.
The clones branch of ``oracle_shuffle`` was added later, the same way: from
the statement of the theorem it cites, not from the package.

Pipeline being modeled (all logs natural):

    local eps0
      --shuffling over a batch of m_eff messages-->   eps_tilde  (at delta_tilde)
      --sampling a q-fraction of the data-------->    eps_bar    (delta_bar = q*delta_tilde)
      --strong composition over T rounds--------->    (eps, delta)

with the end-to-end delta split  delta_tilde = delta/(2qT),  delta' = delta/2.
"""

import math


def oracle_subsample(eps: float, delta: float, q: float) -> tuple[float, float]:
    """Privacy amplification by subsampling a q-fraction: (eps', delta')."""
    return math.log1p(q * math.expm1(eps)), q * delta


def oracle_shuffle(eps0: float, delta: float, m_eff: int, variant: str = "explicit") -> float:
    """Privacy amplification by shuffling m_eff messages.

    variant="explicit":  12*eps0*sqrt(ln(1/delta)/m_eff)
                         valid for eps0 < 1/2, delta < 1/100, m_eff >= 1000.
    variant="clones":    Feldman, McMillan and Talwar, "Hiding among the
                         clones" (arXiv:2012.12803), Theorem 3.1: for
                         eps0 <= ln(n/(16*ln(2/delta))), the shuffled output
                         of n eps0-DP randomizers is (eps, delta)-DP with
                         eps <= ln(1 + (e^eps0 - 1)/(e^eps0 + 1)
                                   * (8*sqrt(e^eps0*ln(4/delta))/sqrt(n)
                                      + 8*e^eps0/n)).
    """
    if variant == "explicit":
        assert eps0 < 0.5 and 0.0 < delta < 0.01 and m_eff >= 1000
        return 12.0 * eps0 * math.sqrt(math.log(1.0 / delta) / m_eff)
    assert variant == "clones"
    n = m_eff
    assert 0.0 < eps0 <= math.log(n / (16.0 * math.log(2.0 / delta)))
    e = math.exp(eps0)
    inner = 8.0 * math.sqrt(e * math.log(4.0 / delta)) / math.sqrt(n) + 8.0 * e / n
    return math.log(1.0 + (e - 1.0) / (e + 1.0) * inner)


def oracle_strong_composition(
    eps_bar: float, delta_bar: float, big_t: int, delta_prime: float
) -> tuple[float, float]:
    """T-fold strong composition of an (eps_bar, delta_bar)-DP mechanism."""
    eps = math.sqrt(2.0 * big_t * math.log(1.0 / delta_prime)) * eps_bar
    eps += big_t * eps_bar * math.expm1(eps_bar)
    return eps, big_t * delta_bar + delta_prime


def oracle_end_to_end(
    eps0: float,
    delta: float,
    big_t: int,
    m: int,
    k: int,
    r: int,
    s: int,
    variant: str = "explicit",
) -> tuple[float, float]:
    """Full chain: local eps0 to central (eps, delta) after T rounds.

    For s=1 the per-round sampling amplification uses the full sampling rate
    q = (k/m)*(s/r); for s>1 only the within-client rate q2 = s/r amplifies
    (client sampling buys nothing in that regime), while delta_bar still
    scales with q.

    The s>1 delta_bar follows from a mixture over the sampling of the
    substituted point x's client (probability q1 = k/m). Unsampled, the round
    does not depend on x. Sampled, x is drawn among s of r points without
    replacement, which makes the round (eps_bar, q2*delta_tilde)-DP with
    respect to x (Balle, Barthe and Gaboardi, arXiv:1807.01647, the
    substitution relation). Mixing, P(S) <= q1*(e^eps_bar*Q1(S) +
    q2*delta_tilde) + (1-q1)*R(S) <= e^eps_bar*Q(S) + q1*q2*delta_tilde, so
    delta_bar = q*delta_tilde. The mixture gives eps no q1 factor, since its
    two branches differ by the client's whole contribution.
    """
    q1, q2 = k / m, s / r
    q = q1 * q2
    delta_tilde = delta / (2.0 * q * big_t)
    eps_tilde = oracle_shuffle(eps0, delta_tilde, k * s, variant)
    amp = q if s == 1 else q2
    eps_bar = math.log1p(amp * math.expm1(eps_tilde))
    delta_bar = q * delta_tilde
    return oracle_strong_composition(eps_bar, delta_bar, big_t, delta / 2.0)
