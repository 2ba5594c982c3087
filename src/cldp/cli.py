"""Command-line front end: benchmarks, accountant queries, bound tables, training.

Subcommands
-----------
mean-est    sweep (p, d, n, epsilon0) grids; per cell, draw a random in-ball
            dataset, run repeated private mean estimation, and write the
            empirical MSE next to the matching upper and lower bounds.
accountant  print the full privacy-budget provenance chain for one
            configuration (optionally calibrating epsilon0 to a target
            central epsilon); optionally write it as JSON.
bounds      tabulate risk_upper / risk_lower / G^2 / convergence bound over
            a parameter grid.
train       run the federated simulator; writes <out>.csv (per-round trace)
            and <out>.json (final model + budget).
selftest    quick internal consistency checks; exit 0 only if all pass.

Configuration is a JSON file (--config) of key/value pairs using the same
names as the long flags; explicit flags override file values. Unknown keys
in the file are rejected, listing the offenders. Numeric values accept the
string "inf" where a sentinel infinity makes sense (epsilon0, p).

Every emitted file starts with the SHA-256 hash of the effective
configuration, so outputs are traceable to inputs; runs are deterministic
given (config, seed), byte for byte. CSV floats are written with repr, which
round-trips exactly.

Exit codes: 0 success; 2 invalid configuration or arguments (an --out that
cannot be opened for writing included); 3 accountant infeasibility
(preconditions unmet or target unreachable). The environment
variable CLDP_OUT_DIR sets the directory used when --out is not given.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import accountant as acct
from . import bounds as bnd
from . import mechanisms as mech
from . import wire
from .errors import AccountingError, ValidationError
from .fedsim import data as fdata
from .fedsim import training as ftrain
from .linalg import BallSpec, p_norm

ENV_OUT_DIR = "CLDP_OUT_DIR"
_SWEEP_SALT = 0x53574550  # per-grid-cell RNG streams


# ---------------------------------------------------------------------------
# Typed configuration handling
# ---------------------------------------------------------------------------


def _float(v) -> float:
    if isinstance(v, bool):
        raise ValidationError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ValidationError(f"expected a number, got {v!r}") from None


def _int(v) -> int:
    f = _float(v)
    if not f.is_integer():
        raise ValidationError(f"expected an integer, got {v!r}")
    return int(f)


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, str) and v.lower() in ("true", "false"):
        return v.lower() == "true"
    raise ValidationError(f"expected true/false, got {v!r}")


def _str(v) -> str:
    if not isinstance(v, str):
        raise ValidationError(f"expected a string, got {v!r}")
    return v


def _float_list(v) -> list[float]:
    items = v if isinstance(v, (list, tuple)) else [v]
    out = [_float(x) for x in items]
    if not out:
        raise ValidationError("expected a nonempty list of numbers")
    return out


def _int_list(v) -> list[int]:
    items = v if isinstance(v, (list, tuple)) else [v]
    out = [_int(x) for x in items]
    if not out:
        raise ValidationError("expected a nonempty list of integers")
    return out


def _optional(converter):
    return lambda v: None if v is None else converter(v)


# Per-subcommand schema: key -> (converter, default). Flags mirror these keys.
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "mean-est": {
        "p": (_float_list, [2.0]),
        "d": (_int_list, [8]),
        "n": (_int_list, [100]),
        "eps0": (_float_list, [1.0]),
        "a": (_float, 1.0),
        "trials": (_int, 200),
        "mix_prob": (_optional(_float), None),
        "seed": (_int, 0),
        "out": (_optional(_str), None),
    },
    "accountant": {
        "eps0": (_float, 0.2),
        "delta": (_float, 1e-6),
        "T": (_int, 100),
        "m": (_int, 10000),
        "k": (_int, 1000),
        "r": (_int, 1),
        "s": (_int, 1),
        "variant": (_str, "explicit"),
        "c": (_float, 1.0),
        "calibrate": (_optional(_float), None),
        "seed": (_int, 0),
        "out": (_optional(_str), None),
    },
    "bounds": {
        "p": (_float_list, [2.0]),
        "d": (_int_list, [8]),
        "n": (_int_list, [100]),
        "eps0": (_float_list, [1.0]),
        "a": (_float, 1.0),
        "L": (_float, 1.0),
        "D": (_float, 2.0),
        "T": (_int, 1000),
        "q": (_float, 1.0),
        "mix_prob": (_optional(_float), None),
        "seed": (_int, 0),
        "out": (_optional(_str), None),
    },
    "train": {
        "m": (_int, 100),
        "k": (_int, 20),
        "r": (_int, 10),
        "s": (_int, 1),
        "T": (_int, 200),
        "eps0": (_float, 4.0),
        "delta": (_float, 1e-5),
        "p": (_float, 2.0),
        "clip": (_float, 1.0),
        "d": (_int, 20),
        "diameter": (_float, 2.0),
        "task": (_str, "logistic"),
        "mix_prob": (_optional(_float), None),
        "account": (_bool, True),
        "variant": (_str, "explicit"),
        "c": (_float, 1.0),
        "data": (_optional(_str), None),
        "theta_norm": (_float, 1.5),
        "seed": (_int, 0),
        "out": (_optional(_str), None),
    },
    "selftest": {
        "seed": (_int, 0),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: subcommand, typed parameters, output path, seed."""

    subcommand: str
    params: dict

    @property
    def seed(self) -> int:
        return self.params.get("seed", 0)

    @property
    def out(self):
        return self.params.get("out")

    def sha256(self) -> str:
        # The output path does not affect the computation, so two runs of the
        # same experiment hash identically wherever they are written.
        hashed = {k: v for k, v in self.params.items() if k != "out"}
        canon = json.dumps(
            {"subcommand": self.subcommand, "params": hashed},
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(canon.encode()).hexdigest()


def _merge_config(subcommand: str, flag_values: dict, config_path) -> ExperimentConfig:
    schema = _SCHEMAS[subcommand]
    file_values = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = sorted(set(file_values) - set(schema))
        if unknown:
            raise ValidationError(
                f"unknown config keys for {subcommand}: {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(schema))}"
            )
    params = {}
    for key, (converter, default) in schema.items():
        if flag_values.get(key) is not None:
            params[key] = converter(flag_values[key])
        elif key in file_values:
            params[key] = converter(file_values[key])
        else:
            params[key] = default
    return ExperimentConfig(subcommand=subcommand, params=params)


def _resolve_out(cfg: ExperimentConfig, default_name: str) -> str:
    if cfg.out is not None:
        return cfg.out
    return os.path.join(os.environ.get(ENV_OUT_DIR, "."), default_name)


def _open_csv(path: str, cfg: ExperimentConfig, units: str, header: list[str]):
    fh = fdata.open_output(path)
    fh.write(f"# config_sha256={cfg.sha256()}\n")
    fh.write(f"# units: {units}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    return fh, writer


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _random_in_ball(gen: np.random.Generator, n: int, d: int, p: float, a: float) -> np.ndarray:
    """n random points inside the lp ball: random directions, radii a*U^(1/d)."""
    g = gen.standard_normal((n, d))
    norms = np.array([p_norm(row, p) for row in g])
    radii = a * gen.random(n) ** (1.0 / d)
    return g * (radii / norms)[:, None]


def _run_mean_est(cfg: ExperimentConfig) -> int:
    prm = cfg.params
    out = _resolve_out(cfg, "mean_est.csv")
    grid = list(
        itertools.product(
            sorted(prm["p"]), sorted(prm["d"]), sorted(prm["n"]), sorted(prm["eps0"])
        )
    )
    fh, writer = _open_csv(
        out,
        cfg,
        "p,d,n,epsilon0 dimensionless; a input units; mse and bounds in squared input units",
        [
            "p", "d", "n", "epsilon0", "a", "trials",
            "empirical_mse", "risk_upper_worst", "risk_upper_prob", "risk_lower_order_only",
        ],
    )
    with fh:
        for idx, (p, d, n, eps0) in enumerate(grid):
            gen = np.random.default_rng(np.random.SeedSequence((cfg.seed, _SWEEP_SALT, idx)))
            ball = BallSpec(p=p, radius=prm["a"], dim=d)
            spec = mech.MechanismSpec(ball=ball, epsilon0=eps0, mix_prob=prm["mix_prob"])
            dataset = _random_in_ball(gen, n, d, p, prm["a"])
            estimates = mech.mean_estimate_trials(dataset, spec, gen, prm["trials"])
            mse = float(np.mean(np.sum((estimates - dataset.mean(axis=0)) ** 2, axis=1)))
            query = bnd.RiskQuery(
                p=p, d=d, n=n, a=prm["a"], epsilon0=eps0, mix_prob=prm["mix_prob"]
            )
            writer.writerow(
                [
                    _fmt(p), d, n, _fmt(eps0), _fmt(prm["a"]), prm["trials"],
                    _fmt(mse),
                    _fmt(bnd.risk_upper(query, worst_case=True)),
                    _fmt(bnd.risk_upper(query, worst_case=False)),
                    _fmt(bnd.risk_lower(query)),
                ]
            )
    print(f"wrote {out} ({len(grid)} grid cells)")
    return 0


def _variant_from(prm: dict):
    name = prm["variant"]
    if name == "explicit":
        return acct.ExplicitShuffling()
    if name == "asymptotic":
        return acct.AsymptoticShuffling(c=prm["c"])
    raise ValidationError(f"variant must be 'explicit' or 'asymptotic', got {name!r}")


def _budget_json(budget: acct.PrivacyBudget) -> dict:
    return {
        "epsilon0": budget.epsilon0,
        "epsilon_tilde": budget.epsilon_tilde,
        "delta_tilde": budget.delta_tilde,
        "epsilon_bar": budget.epsilon_bar,
        "delta_bar": budget.delta_bar,
        "epsilon": budget.epsilon,
        "delta": budget.delta,
        "T": budget.T,
        "guarantee": budget.guarantee,
        "provenance": list(budget.provenance),
    }


def _run_accountant(cfg: ExperimentConfig) -> int:
    prm = cfg.params
    params = acct.SamplingParams(m=prm["m"], k=prm["k"], r=prm["r"], s=prm["s"])
    variant = _variant_from(prm)
    lines = []
    result: dict = {"config_sha256": cfg.sha256()}
    if prm["calibrate"] is not None:
        eps0 = acct.calibrate_epsilon0(prm["calibrate"], prm["delta"], prm["T"], params, variant)
        lines.append(f"calibrated epsilon0 = {eps0!r} for target epsilon {prm['calibrate']!r}")
        result["calibrated_epsilon0"] = eps0
    else:
        eps0 = prm["eps0"]
    budget = acct.end_to_end(eps0, prm["delta"], prm["T"], params, variant)
    lines.extend(budget.provenance)
    lines.append(f"epsilon = {budget.epsilon!r}, delta = {budget.delta!r}")
    result["budget"] = _budget_json(budget)
    print("\n".join(lines))
    if cfg.out is not None:
        with fdata.open_output(cfg.out) as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {cfg.out}")
    return 0


def _run_bounds(cfg: ExperimentConfig) -> int:
    prm = cfg.params
    out = _resolve_out(cfg, "bounds.csv")
    grid = list(
        itertools.product(
            sorted(prm["p"]), sorted(prm["d"]), sorted(prm["n"]), sorted(prm["eps0"])
        )
    )
    fh, writer = _open_csv(
        out,
        cfg,
        "risks in squared input units; g_squared in squared gradient units; "
        "convergence_bound in loss units",
        [
            "p", "d", "n", "epsilon0", "a",
            "risk_upper_worst", "risk_upper_prob", "risk_lower_order_only",
            "g_squared", "convergence_bound",
        ],
    )
    with fh:
        for p, d, n, eps0 in grid:
            query = bnd.RiskQuery(
                p=p, d=d, n=n, a=prm["a"], epsilon0=eps0, mix_prob=prm["mix_prob"]
            )
            writer.writerow(
                [
                    _fmt(p), d, n, _fmt(eps0), _fmt(prm["a"]),
                    _fmt(bnd.risk_upper(query, worst_case=True)),
                    _fmt(bnd.risk_upper(query, worst_case=False)),
                    _fmt(bnd.risk_lower(query)),
                    _fmt(bnd.g_squared(prm["L"], d, p, prm["q"], n, eps0)),
                    _fmt(
                        bnd.convergence_bound(
                            prm["L"], prm["D"], d, p, prm["T"], prm["q"], n, eps0
                        )
                    ),
                ]
            )
    print(f"wrote {out} ({len(grid)} grid cells)")
    return 0


def _load_clients(path: str) -> list[fdata.ClientDataset]:
    try:
        with open(path, "rb") as fh:
            magic = fh.read(8)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read dataset ({exc.strerror or exc})") from exc
    if magic == b"CLDPDS01":
        return fdata.load_dataset_binary(path)
    return fdata.load_dataset_csv(path)


def _run_train(cfg: ExperimentConfig) -> int:
    prm = cfg.params
    base = _resolve_out(cfg, "train")
    params = acct.SamplingParams(m=prm["m"], k=prm["k"], r=prm["r"], s=prm["s"])
    train_cfg = ftrain.TrainConfig(
        params=params,
        T=prm["T"],
        epsilon0=prm["eps0"],
        delta=prm["delta"],
        ball=BallSpec(p=prm["p"], radius=prm["clip"], dim=prm["d"]),
        diameter=prm["diameter"],
        task=prm["task"],
        mix_prob=prm["mix_prob"],
        seed=prm["seed"],
        account=prm["account"],
        variant=_variant_from(prm),
    )
    if prm["data"] is not None:
        clients = _load_clients(prm["data"])
    else:
        clients, _ = fdata.synthetic_logistic_data(
            prm["m"], prm["r"], prm["d"], prm["seed"], theta_norm=prm["theta_norm"]
        )
    result = ftrain.train(train_cfg, clients)

    trace_path = base + ".csv"
    ftrain.write_trace_csv(
        trace_path,
        result.traces,
        comments=(
            f"config_sha256={cfg.sha256()}",
            "units: t rounds; clients ;-joined ids; exact_bits payload bits; loss mean loss "
            "(post-step); grad_norm l2; epsilon_so_far central epsilon",
        ),
    )
    model_path = base + ".json"
    payload = {
        "config_sha256": cfg.sha256(),
        "theta": [float(v) for v in result.theta],
        "final_loss": result.traces[-1].loss_after,
        "budget": _budget_json(result.budget),
    }
    with fdata.open_output(model_path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {trace_path} and {model_path}")
    return 0


def _run_selftest(cfg: ExperimentConfig) -> int:
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    gen = np.random.default_rng(cfg.seed)

    ball = BallSpec(p=1.0, radius=1.0, dim=4)
    spec = mech.MechanismSpec(ball=ball, epsilon0=1.0)
    x = np.array([0.3, -0.2, 0.1, 0.05])
    mean = np.zeros(4)
    for (j, sign), prob in mech.r1_atom_probabilities(x, spec).items():
        mean += prob * mech.r1_decode(mech.IndexSign(j=j, sign=sign), spec)
    check("l1 mechanism enumerated expectation equals input", bool(np.max(np.abs(mean - x)) < 1e-10))

    spec_inf = mech.MechanismSpec(ball=BallSpec(p=math.inf, radius=1.0, dim=4), epsilon0=1.0)
    xi = np.array([0.5, -0.9, 0.0, 0.7])
    mean = np.zeros(4)
    for (j, sign), prob in mech.rinf_atom_probabilities(xi, spec_inf).items():
        mean += prob * mech.rinf_decode(mech.IndexSign(j=j, sign=sign), spec_inf)
    check("linf mechanism enumerated expectation equals input", bool(np.max(np.abs(mean - xi)) < 1e-10))

    params = acct.SamplingParams(m=5000, k=2500, r=1, s=1)
    budget = acct.end_to_end(0.3, 1e-6, 10, params, acct.ExplicitShuffling())
    ok = math.isfinite(budget.epsilon) and budget.epsilon > 0 and budget.delta == 1e-6
    check("accountant end-to-end chain evaluates and reconstructs delta", ok)

    atoms_ok = True
    for s_count, big_b in ((3, 6), (2, 3)):
        for combo in itertools.combinations_with_replacement(range(big_b), s_count):
            code = wire.histogram_pack(combo, big_b)
            if wire.histogram_unpack(code) != tuple(sorted(combo)):
                atoms_ok = False
    check("multiset pack/unpack roundtrip is exact", atoms_ok)

    q = bnd.RiskQuery(p=1.0, d=4, n=100, a=1.0, epsilon0=math.log(3.0))
    ok = abs(bnd.risk_upper(q, worst_case=True) - 0.16) < 1e-12
    q2 = bnd.RiskQuery(p=1.0, d=4, n=100, a=1.0, epsilon0=1.0)
    ok = ok and abs(bnd.risk_lower(q2) - 0.04) < 1e-12
    ok = ok and abs(bnd.g_squared(1.0, 4, 2.0, 1.0, 100, math.log(3.0)) - 3.24) < 1e-12
    check("bound formulas reproduce pinned values", ok)

    clients, _ = fdata.synthetic_logistic_data(4, 3, 2, seed=cfg.seed)
    tc = ftrain.TrainConfig(
        params=acct.SamplingParams(m=4, k=2, r=3, s=1),
        T=3,
        epsilon0=1.0,
        delta=1e-5,
        ball=BallSpec(p=2.0, radius=1.0, dim=2),
        diameter=2.0,
        seed=cfg.seed,
        account=False,
    )
    r1 = ftrain.train(tc, clients)
    r2 = ftrain.train(tc, clients)
    same = np.array_equal(r1.theta, r2.theta) and r1.traces == r2.traces
    check("training is bit-reproducible for a fixed seed", bool(same))

    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


_RUNNERS = {
    "mean-est": _run_mean_est,
    "accountant": _run_accountant,
    "bounds": _run_bounds,
    "train": _run_train,
    "selftest": _run_selftest,
}


def run(config: ExperimentConfig) -> int:
    """Execute a resolved configuration; exceptions map to exit codes in main()."""
    return _RUNNERS[config.subcommand](config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cldp",
        description="Communication-limited locally private estimation toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    list_keys = {"p", "d", "n", "eps0"}
    for name, schema in _SCHEMAS.items():
        sp = sub.add_parser(name, help=f"{name} (keys: {', '.join(sorted(schema))})")
        sp.add_argument("--config", help="JSON file of key/value parameters (flags win)")
        for key in schema:
            flag = f"--{key.replace('_', '-')}"
            if name in ("mean-est", "bounds") and key in list_keys:
                sp.add_argument(flag, dest=key, nargs="+", default=None, metavar="V")
            else:
                sp.add_argument(flag, dest=key, default=None, metavar="V")
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(ns).items() if k not in ("subcommand", "config")}
    try:
        config = _merge_config(ns.subcommand, flag_values, getattr(ns, "config", None))
        return run(config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccountingError as exc:
        print(f"accounting error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
