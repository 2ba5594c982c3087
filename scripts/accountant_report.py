"""Print end-to-end privacy budgets across a small (eps0, T) grid.

For each cell the four provenance lines show how the local guarantee turns
into the central one (shuffle, sample, compose), under the default shuffling
bound. The calibration table then gives, per registered shuffling bound and
T, the largest eps0 the bound takes and the largest eps0 whose end-to-end
epsilon stays under the target.

    python3 scripts/accountant_report.py --m 10000 --k 1000 --target-eps 2.0
"""

import argparse

from cldp.accountant import (
    DEFAULT_VARIANT,
    VARIANTS,
    SamplingParams,
    calibrate_epsilon0,
    end_to_end,
    max_feasible_epsilon0,
)
from cldp.errors import InfeasibleError


def run(m: int, k: int, r: int, delta: float, target_eps: float) -> None:
    params = SamplingParams(m=m, k=k, r=r, s=1)
    variant = VARIANTS[DEFAULT_VARIANT]
    print(f"m={m} k={k} r={r} delta={delta:g} ({variant.name})\n")
    for eps0 in (0.1, 0.2, 0.4):
        for T in (10, 100, 1000):
            budget = end_to_end(eps0, delta, T, params, variant)
            print(f"eps0={eps0:<4g} T={T:<5d} -> epsilon={budget.epsilon:.4g}")
        print()
    for bound in VARIANTS.values():
        print(f"{bound.name}:")
        for T in (10, 100, 1000):
            try:
                cap = max_feasible_epsilon0(delta, T, params, bound)
                eps0_star = calibrate_epsilon0(target_eps, delta, T, params, bound)
            except InfeasibleError as exc:
                print(f"  T={T:<5d}: {exc}")
            else:
                print(
                    f"  T={T:<5d}: eps0 <= {cap:.6g} is in range; largest eps0 with "
                    f"epsilon <= {target_eps:g} is {eps0_star:.6g}"
                )
    budget = end_to_end(0.2, delta, 100, params, variant)
    print("\nprovenance at eps0=0.2, T=100:")
    for line in budget.provenance:
        print(f"  {line}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=10_000)
    parser.add_argument("--k", type=int, default=1_000)
    parser.add_argument("--r", type=int, default=1)
    parser.add_argument("--delta", type=float, default=1e-6)
    parser.add_argument("--target-eps", type=float, default=2.0)
    ns = parser.parse_args()
    run(ns.m, ns.k, ns.r, ns.delta, ns.target_eps)
