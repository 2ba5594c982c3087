"""Run a fixed list of CLI commands into one directory and print each artifact's sha256.

The list covers every artifact kind the CLI writes: accounted and
unaccounted training (l1, l2, no privacy, the mix at s = 1 and s = 2, and
linf at s = 1 with k in the hundreds), mean-est sweeps
(l1, l2 and linf; the mix at dimensions that are not powers of two), a
bounds table, and accountant budgets with and without calibration, under
both stated shuffling bounds: the explicit one (eps0 < 1/2) and the clones
one of Feldman, McMillan and Talwar (eps0 <= ln(n/(16*ln(2/delta))) for a
batch of n = k*s messages; eps0 = 1.5 lies inside it at k = 2500).
Runs are deterministic, so two checkouts give the same lines exactly when
their artifacts are byte-identical:

    PYTHONPATH=src python3 scripts/parity.py --out results/parity > a.txt
    (in the other checkout, the same command into b.txt)
    diff a.txt b.txt
"""

import argparse
import contextlib
import hashlib
import pathlib
import sys
import warnings

from cldp.cli import main as cldp_main

# (artifact stem, arguments); the stem becomes --out inside the directory.
COMMANDS = (
    ("train_l1_accounted",
     "train --p 1 --d 8 --m 2000 --k 1000 --r 4 --eps0 0.4 --T 3"),
    ("train_l2", "train --account false"),
    ("train_eps0_inf", "train --eps0 inf"),
    ("train_mix_s2", "train --p 1.5 --mix-prob 0.4 --s 2 --account false"),
    ("train_linf_s1",
     "train --p inf --d 8 --m 2000 --k 1000 --r 4 --T 20 --account false"),
    ("train_mix_s1",
     "train --p 1.5 --mix-prob 0.4 --m 1000 --k 200 --T 20 --account false"),
    ("mean_est.csv",
     "mean-est --p 1 2 inf --d 4 16 --n 50 --eps0 0.5 2 --trials 20 --seed 3"),
    ("mean_est_mix.csv",
     "mean-est --p 1.5 3 --mix-prob 0.5 --d 5 12 --n 40 --eps0 1 --trials 7 --seed 2"),
    ("bounds.csv", "bounds --p 1 2 inf --d 8 32 --n 100 1000 --eps0 0.5 1"),
    ("accountant.json", "accountant --eps0 0.3 --T 10 --m 5000 --k 2500"),
    ("accountant_calibrated.json",
     "accountant --eps0 0.3 --T 10 --m 5000 --k 2500 --calibrate 1.0"),
    ("accountant_clones.json",
     "accountant --eps0 1.5 --variant clones --T 10 --m 5000 --k 2500"),
    ("accountant_clones_calibrated.json",
     "accountant --eps0 1.5 --variant clones --T 10 --m 5000 --k 2500 --calibrate 3.0"),
)


def run(out: str) -> int:
    """Run every command into directory out, then print '<sha256>  <file>' per artifact."""
    root = pathlib.Path(out)
    root.mkdir(parents=True, exist_ok=True)
    for stem, args in COMMANDS:
        # The commands' own reports go to stderr; stdout is the hash list alone.
        with warnings.catch_warnings(), contextlib.redirect_stdout(sys.stderr):
            warnings.simplefilter("ignore")
            code = cldp_main(args.split() + ["--out", str(root / stem)])
        if code != 0:
            return code
    for path in sorted(root.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory for the artifacts")
    ns = parser.parse_args()
    raise SystemExit(run(ns.out))
