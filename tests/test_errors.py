"""The package's one number rule: reals and integers are checked by ``errors``.

A real is a ``numbers.Real`` that is not a bool; an integer is a
``numbers.Integral`` that is not a bool (an integral float such as 5.0 is
refused). Every case below hands one public entry point one malformed scalar
or object field, and each must raise ValidationError: not a TypeError,
AttributeError or plain ValueError, and not a silent reading of the value.
"""

import ast
import math
import os
from pathlib import Path

import numpy as np
import pytest

import cldp
from cldp import bounds, fedsim, linalg, mechanisms, wire
from cldp.accountant import SamplingParams, strong_composition
from cldp.errors import ValidationError, require_int, require_real
from cldp.linalg import BallSpec

SRC = Path(cldp.__file__).resolve().parent
BALL = BallSpec(p=2.0, radius=1.0, dim=4)
SPEC = mechanisms.MechanismSpec(ball=BALL, epsilon0=1.0)
ROWS = np.zeros((2, 4))


def train_config(**override):
    kwargs = dict(
        params=SamplingParams(m=4, k=2, r=3, s=1), T=2, epsilon0=1.0, delta=1e-6,
        ball=BALL, diameter=2.0,
    )
    return fedsim.TrainConfig(**{**kwargs, **override})


def g_squared(**override):
    return bounds.g_squared(**{**dict(L=1.0, d=4, p=2.0, q=1.0, n=10, epsilon0=1.0), **override})


def convergence_bound(**override):
    kwargs = dict(L=1.0, D=2.0, d=4, p=2.0, T=10, q=1.0, n=10, epsilon0=1.0)
    return bounds.convergence_bound(**{**kwargs, **override})


def risk_query(**override):
    return bounds.RiskQuery(**{**dict(p=2.0, d=4, n=10, a=1.0, epsilon0=1.0), **override})


MALFORMED = {
    # Arguments whose wrong type used to leak TypeError, AttributeError or ValueError.
    "train_epsilon0_str": lambda: train_config(epsilon0="1"),
    "train_delta_str": lambda: train_config(delta="1e-6"),
    "train_diameter_str": lambda: train_config(diameter="2"),
    "train_ball_str": lambda: train_config(ball="x"),
    "spec_ball_str": lambda: mechanisms.MechanismSpec(ball="x", epsilon0=1.0),
    "g_squared_L_str": lambda: g_squared(L="1"),
    "convergence_bound_D_str": lambda: convergence_bound(D="2"),
    "hemisphere_radius_d_str": lambda: mechanisms.hemisphere_radius("4", 1.0, 1.0),
    "hemisphere_radius_a_str": lambda: mechanisms.hemisphere_radius(4, "1", 1.0),
    "privacy_ratio_str": lambda: mechanisms.privacy_ratio("1"),
    "padded_dim_fractional": lambda: mechanisms.padded_dim(2.5),
    "multiset_bits_fractional": lambda: wire.multiset_bits(2.5, 8),
    "multiset_bits_str": lambda: wire.multiset_bits(2, "8"),
    "comm_adversary_a_str": lambda: bounds.comm_adversary([[1.0, 0.0]], 2.0, "1"),
    "p_norm_p_str": lambda: linalg.p_norm([1.0, 2.0], "2"),
    "clip_p_str": lambda: linalg.clip([1.0, 2.0], "2", 1.0),
    "clip_C_str": lambda: linalg.clip([1.0, 2.0], 2.0, "1"),
    "project_radius_str": lambda: linalg.project_l2_ball([1.0], [0.0], "1"),
    "synthetic_m_str": lambda: fedsim.synthetic_logistic_data("2", 2, 2, 0),
    "sample_clients_m_str": lambda: fedsim.training.sample_clients("5", 2, 0),
    "sample_data_r_str": lambda: fedsim.training.sample_data("5", 2, 0),
    "client_features_str": lambda: fedsim.ClientDataset(0, "x", [1.0]),
    # Values that used to be read silently as something else.
    "ball_p_bool": lambda: BallSpec(p=True, radius=1.0, dim=4),
    "ball_radius_bool": lambda: BallSpec(p=2.0, radius=True, dim=4),
    "ball_dim_bool": lambda: BallSpec(p=2.0, radius=1.0, dim=True),
    "spec_epsilon0_bool": lambda: mechanisms.MechanismSpec(ball=BALL, epsilon0=True),
    "risk_p_bool": lambda: risk_query(p=True),
    "risk_a_bool": lambda: risk_query(a=True),
    "risk_epsilon0_bool": lambda: risk_query(epsilon0=True),
    "trials_bool": lambda: mechanisms.mean_estimate_trials(ROWS, SPEC, 0, True),
    "n_samples_bool": lambda: mechanisms.sample_decoded(ROWS[0], SPEC, 0, True),
    "synthetic_seed_bool": lambda: fedsim.synthetic_logistic_data(2, 2, 2, True),
    "g_squared_d_fractional": lambda: g_squared(d=2.5),
    "g_squared_n_fractional": lambda: g_squared(n=2.5),
    "convergence_bound_d_fractional": lambda: convergence_bound(d=2.5),
    "convergence_bound_n_fractional": lambda: convergence_bound(n=2.5),
    "histogram_rank_fractional": lambda: wire.HistogramCode(rank=2.5, s=2, B=8),
    "client_id_str": lambda: fedsim.ClientDataset("x", [[1.0]], [1.0]),
    "compose_T_integral_float": lambda: strong_composition(0.01, 1e-9, 100.0, 1e-7),
    # TrainConfig's object fields.
    "train_T_bool": lambda: train_config(T=True),
    "train_account_str": lambda: train_config(account="no"),
    "train_params_tuple": lambda: train_config(params=(4, 2, 3, 1)),
    "train_variant_str": lambda: train_config(variant="explicit"),
    # The baseline (epsilon0 = inf) builds no MechanismSpec to check mix_prob.
    "train_baseline_mix_prob_str": lambda: train_config(epsilon0=math.inf, mix_prob="x"),
    "train_baseline_mix_prob_above_one": lambda: train_config(epsilon0=math.inf, mix_prob=1.5),
    # Bools on the message paths.
    "index_sign_bool_index": lambda: mechanisms.IndexSign(j=True, sign=1),
    "histogram_pack_bool_atoms": lambda: wire.histogram_pack([True, False], 4),
    "histogram_pack_bool_atom_iterator": lambda: wire.histogram_pack(iter([3, True]), 4),
    "encode_rng_bool": lambda: mechanisms.encode_message(ROWS[0], SPEC, True),
    # Data that is not a sequence of ClientDatasets, of the config's m = 4 clients.
    "train_data_none": lambda: fedsim.train(train_config(account=False), None),
    "train_data_int": lambda: fedsim.train(train_config(account=False), 5),
    "train_data_ints": lambda: fedsim.train(train_config(account=False), [1, 2, 3, 4]),
    "train_data_array_tuple": lambda: fedsim.train(
        train_config(account=False), tuple(np.zeros((3, 4)) for _ in range(4))
    ),
    "train_data_str": lambda: fedsim.train(train_config(account=False), "abcd"),
    "train_data_dict": lambda: fedsim.train(train_config(account=False), dict.fromkeys(range(4))),
    "save_binary_ints": lambda: fedsim.save_dataset_binary(os.devnull, [1, 2]),
    "save_csv_ints": lambda: fedsim.save_dataset_csv(os.devnull, [1, 2]),
    "save_binary_int": lambda: fedsim.save_dataset_binary(os.devnull, 7),
    "save_csv_int": lambda: fedsim.save_dataset_csv(os.devnull, 7),
}


@pytest.mark.parametrize("call", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("value", [1.5, 2, np.float64(1.5), np.int32(2), np.float32(1.5), math.inf])
def test_reals_pass_unchanged(value):
    assert require_real(value, "x") is value


@pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2), 2**70])
def test_integers_pass_as_ints(value):
    got = require_int(value, "x")
    assert got == value and type(got) is int


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, 1 + 0j])
def test_non_reals_are_refused_by_name(value):
    with pytest.raises(ValidationError, match="^radius must be a real number"):
        require_real(value, "radius")


@pytest.mark.parametrize("value", [False, 5.0, np.float64(5.0), "5", None])
def test_non_integers_are_refused_by_name(value):
    with pytest.raises(ValidationError, match="^count must be an integer"):
        require_int(value, "count")


def test_only_errors_imports_numbers():
    # The number rule lives in one module; another importing ``numbers``
    # would be the start of a second copy.
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "numbers" in names:
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == ["errors.py"]


def _is_lp_root(node) -> bool:
    """(... x ** p ...) ** (1 / p): the 1/p-th root of a sum of p-th powers."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    root = node.right
    if not (isinstance(root, ast.BinOp) and isinstance(root.op, ast.Div)):
        return False
    p = ast.dump(root.right)
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) and ast.dump(n.right) == p
        for n in ast.walk(node.left)
    )


def test_only_linalg_defines_an_lp_norm():
    # The lp norm lives in one module: elsewhere no call passes ``ord=`` to a
    # ``norm`` and no expression takes the 1/p-th root of p-th powers. linalg
    # itself must match, or the rule would find nothing anywhere.
    definers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            passes_ord = (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "norm"
                and any(k.arg == "ord" for k in node.keywords)
            )
            if passes_ord or _is_lp_root(node):
                definers.add(path.relative_to(SRC).as_posix())
    assert definers == {"linalg.py"}
