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

Configuration is a JSON file (--config) of key/value pairs using the same
names as the long flags; explicit flags override file values. Unknown keys
in the file are rejected, listing the offenders. Numeric values accept the
string "inf" where a sentinel infinity makes sense (epsilon0, p).

Every emitted file carries the SHA-256 hash of the effective configuration,
so outputs are traceable to inputs. A CSV starts with a
``# config_sha256=...`` line and a ``# units: ...`` line, then its header; a
JSON file holds the hash as its ``config_sha256`` key, written with the other
keys in sorted order (so after ``budget``). Runs are deterministic given
(config, seed), byte for byte. CSV floats are written with repr, which
round-trips exactly. This module is the only one that writes these files:
``_open_csv`` starts every CSV and ``_write_json`` writes every JSON, each
through ``fedsim.data.open_output``: under a temporary name beside it,
renamed into place when its run succeeds, so a run that fails (exit 2 or 3)
leaves no partial artifact. The --out directory must be writable; a symlink
is written through, and a path that is not a regular file (/dev/stdout) is
written in place.

Exit codes: 0 success; 2 invalid configuration or arguments (an --out that
cannot be opened for writing included); 3 accountant infeasibility
(preconditions unmet or target unreachable). The environment
variable CLDP_OUT_DIR sets the directory used when --out is not given.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import accountant as acct
from . import bounds as bnd
from . import mechanisms as mech
from .errors import AccountingError, ValidationError
from .fedsim import data as fdata
from .fedsim import training as ftrain
from .linalg import BallSpec, row_norms

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
    # Integers and integer strings parse exactly: a float would round them
    # above 2**53. Other numbers must be integral.
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
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


def _list_of(converter, what: str):
    def convert(v) -> list:
        out = [converter(x) for x in (v if isinstance(v, (list, tuple)) else [v])]
        if not out:
            raise ValidationError(f"expected a nonempty list of {what}")
        return out
    return convert


_float_list, _int_list = _list_of(_float, "numbers"), _list_of(_int, "integers")


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
        "variant": (_str, acct.DEFAULT_VARIANT),
        "calibrate": (_optional(_float), None),
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
        "variant": (_str, acct.DEFAULT_VARIANT),
        "data": (_optional(_str), None),
        "theta_norm": (_float, 1.5),
        "seed": (_int, 0),
        "out": (_optional(_str), None),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: subcommand, typed parameters, output path."""

    subcommand: str
    params: dict

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


@contextlib.contextmanager
def _open_csv(path: str, cfg: ExperimentConfig, units: str, header):
    """A csv writer for path's artifact, after the hash, units and header lines."""
    with fdata.open_output(path) as fh:
        fh.write(f"# config_sha256={cfg.sha256()}\n")
        fh.write(f"# units: {units}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        yield writer


def _write_json(path: str, cfg: ExperimentConfig, payload: dict) -> None:
    with fdata.open_output(path) as fh:
        json.dump({**payload, "config_sha256": cfg.sha256()}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _grid(prm: dict) -> list[tuple]:
    """The (p, d, n, eps0) cells of a sweep, each axis sorted."""
    return list(itertools.product(*(sorted(prm[key]) for key in ("p", "d", "n", "eps0"))))


TRACE_COLUMNS = ("t", "clients", "exact_bits", "loss", "grad_norm", "epsilon_so_far")


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _random_in_ball(gen: np.random.Generator, n: int, d: int, p: float, a: float) -> np.ndarray:
    """n random points inside the lp ball: random directions, radii a*U^(1/d)."""
    g = gen.standard_normal((n, d))
    radii = a * gen.random(n) ** (1.0 / d)
    return g * (radii / row_norms(g, p))[:, None]


def _run_mean_est(cfg: ExperimentConfig) -> int:
    prm = cfg.params
    out = _resolve_out(cfg, "mean_est.csv")
    grid = _grid(prm)
    with _open_csv(
        out,
        cfg,
        "p,d,n,epsilon0 dimensionless; a input units; mse and bounds in squared input units",
        [
            "p", "d", "n", "epsilon0", "a", "trials",
            "empirical_mse", "risk_upper_worst", "risk_upper_prob", "risk_lower_order_only",
        ],
    ) as writer:
        for idx, (p, d, n, eps0) in enumerate(grid):
            gen = np.random.default_rng(np.random.SeedSequence((prm["seed"], _SWEEP_SALT, idx)))
            ball = BallSpec(p=p, radius=prm["a"], dim=d)
            spec = mech.MechanismSpec(ball=ball, epsilon0=eps0, mix_prob=prm["mix_prob"])
            # Before any draw: a radius or epsilon0 whose bounds overflow fails here.
            query = bnd.RiskQuery(
                p=p, d=d, n=n, a=prm["a"], epsilon0=eps0, mix_prob=prm["mix_prob"]
            )
            risks = [
                _fmt(bnd.risk_upper(query, worst_case=True)),
                _fmt(bnd.risk_upper(query, worst_case=False)),
                _fmt(bnd.risk_lower(query)),
            ]
            dataset = _random_in_ball(gen, n, d, p, prm["a"])
            estimates = mech.mean_estimate_trials(dataset, spec, gen, prm["trials"])
            mse = float(np.mean(np.sum((estimates - dataset.mean(axis=0)) ** 2, axis=1)))
            writer.writerow(
                [_fmt(p), d, n, _fmt(eps0), _fmt(prm["a"]), prm["trials"], _fmt(mse), *risks]
            )
    print(f"wrote {out} ({len(grid)} grid cells)")
    return 0


def _run_accountant(cfg: ExperimentConfig) -> int:
    prm = cfg.params
    params = acct.SamplingParams(m=prm["m"], k=prm["k"], r=prm["r"], s=prm["s"])
    variant = acct.get_variant(prm["variant"])
    lines = []
    result = {}
    if prm["calibrate"] is not None:
        eps0 = acct.calibrate_epsilon0(prm["calibrate"], prm["delta"], prm["T"], params, variant)
        lines.append(f"calibrated epsilon0 = {eps0!r} for target epsilon {prm['calibrate']!r}")
        result["calibrated_epsilon0"] = eps0
    else:
        eps0 = prm["eps0"]
    budget = acct.end_to_end(eps0, prm["delta"], prm["T"], params, variant)
    lines.extend(budget.provenance)
    lines.append(f"epsilon = {budget.epsilon!r}, delta = {budget.delta!r}")
    result["budget"] = asdict(budget)
    print("\n".join(lines))
    if cfg.out is not None:
        _write_json(cfg.out, cfg, result)
        print(f"wrote {cfg.out}")
    return 0


def _run_bounds(cfg: ExperimentConfig) -> int:
    prm = cfg.params
    out = _resolve_out(cfg, "bounds.csv")
    grid = _grid(prm)
    with _open_csv(
        out,
        cfg,
        "risks in squared input units; g_squared in squared gradient units; "
        "convergence_bound in loss units",
        [
            "p", "d", "n", "epsilon0", "a",
            "risk_upper_worst", "risk_upper_prob", "risk_lower_order_only",
            "g_squared", "convergence_bound",
        ],
    ) as writer:
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
        variant=acct.get_variant(prm["variant"]),
    )
    if prm["data"] is not None:
        clients = fdata.load_dataset(prm["data"])
    else:
        clients, _ = fdata.synthetic_logistic_data(
            prm["m"], prm["r"], prm["d"], prm["seed"], theta_norm=prm["theta_norm"]
        )
    result = ftrain.train(train_cfg, clients)

    trace_path = base + ".csv"
    with _open_csv(
        trace_path,
        cfg,
        "t rounds; clients ;-joined ids; exact_bits payload bits; loss mean loss "
        "(post-step); grad_norm l2; epsilon_so_far central epsilon",
        TRACE_COLUMNS,
    ) as writer:
        for tr in result.traces:
            writer.writerow(
                [
                    tr.t, ";".join(map(str, tr.client_ids)), tr.exact_bits,
                    _fmt(tr.loss_after), _fmt(tr.grad_norm), _fmt(tr.epsilon_so_far),
                ]
            )
    model_path = base + ".json"
    payload = {
        "theta": [float(v) for v in result.theta],
        "final_loss": result.traces[-1].loss_after,
        "budget": asdict(result.budget),
    }
    _write_json(model_path, cfg, payload)
    print(f"wrote {trace_path} and {model_path}")
    return 0


_RUNNERS = {
    "mean-est": _run_mean_est,
    "accountant": _run_accountant,
    "bounds": _run_bounds,
    "train": _run_train,
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
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        sp = sub.add_parser(
            name, help=f"{name} (keys: {', '.join(sorted(schema))})", allow_abbrev=False
        )
        sp.add_argument("--config", help="JSON file of key/value parameters (flags win)")
        for key, (converter, _) in schema.items():
            nargs = "+" if converter in (_float_list, _int_list) else None
            sp.add_argument(
                f"--{key.replace('_', '-')}", dest=key, nargs=nargs, default=None, metavar="V"
            )
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
