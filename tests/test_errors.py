"""The package's one number rule, types and ranges, is checked by ``errors``.

A real is a ``numbers.Real`` that is not a bool; an integer is a
``numbers.Integral`` that is not a bool (an integral float such as 5.0 is
refused); a range is an interval written as text, such as "(0, 1]". Every
case below hands one public entry point one malformed scalar, array or object
field, and each must raise ValidationError: not a TypeError, AttributeError
or plain ValueError, and not a silent reading of the value.
"""

import ast
import dataclasses
import math
import os
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cldp
from cldp import bounds, fedsim, linalg, mechanisms, wire
from cldp.accountant import (
    ClonesShuffling,
    ExplicitShuffling,
    SamplingParams,
    amplify_by_shuffling,
    calibrate_epsilon0,
    end_to_end,
    max_feasible_epsilon0,
    strong_composition,
)
from cldp.errors import ValidationError, require_int, require_real
from cldp.fedsim.tasks import TASKS
from cldp.linalg import BallSpec

SRC = Path(cldp.__file__).resolve().parent
BALL = BallSpec(p=2.0, radius=1.0, dim=4)
SPEC = mechanisms.MechanismSpec(ball=BALL, epsilon0=1.0)
L1_SPEC = mechanisms.MechanismSpec(ball=BallSpec(p=1.0, radius=1.0, dim=4), epsilon0=1.0)
MIX_SPEC = mechanisms.MechanismSpec(
    ball=BallSpec(p=1.5, radius=1.0, dim=4), epsilon0=1.0, mix_prob=0.5
)
PARAMS = SamplingParams(m=4, k=2, r=3, s=1)
POP = fedsim.Population(np.zeros((4, 2)), np.ones(4), np.arange(2))
ROWS = np.zeros((2, 4))
MSG = mechanisms.encode_message(ROWS[0], SPEC, 0)
FRAME = wire.frame_message(MSG, SPEC)


def train_config(**override):
    kwargs = dict(
        params=PARAMS, T=2, epsilon0=1.0, delta=1e-6,
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


def train_on_non_finite_gradients():
    """A run of train_config() whose task's gradients are NaN."""
    nan_grads = lambda theta, X, Y: np.full(X.shape, math.nan)  # noqa: E731
    pop, _ = fedsim.synthetic_logistic_data(PARAMS.m, PARAMS.r, BALL.dim, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(TASKS, "zero", dataclasses.replace(TASKS["zero"], point_grads=nan_grads))
        fedsim.train(train_config(task="zero", account=False), pop)


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
    "client_features_str": lambda: fedsim.Population("x", [1.0], [0]),
    "p_norm_vector_str": lambda: linalg.p_norm("ab", 2.0),
    "p_norm_vector_ragged": lambda: linalg.p_norm([[1.0], [1.0, 2.0]], 2.0),
    "clip_vector_str": lambda: linalg.clip("ab", 2.0, 1.0),
    "ball_contains_str": lambda: BallSpec(2.0, 1.0, 2).contains("ab"),
    "project_theta_ragged": lambda: linalg.project_l2_ball([[1.0], [1.0, 2.0]], [0.0], 1.0),
    "histogram_pack_B_str": lambda: wire.histogram_pack([1], "8"),
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
    "client_id_str": lambda: fedsim.Population([[1.0]], [1.0], ["x"]),
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
    "histogram_pack_B_bool": lambda: wire.histogram_pack([1], True),
    "encode_rng_bool": lambda: mechanisms.encode_message(ROWS[0], SPEC, True),
    # Data that is not a Population, of the config's m = 4 clients.
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
    # A spec that is not a MechanismSpec, at every entry point that takes one.
    "encode_spec_none": lambda: mechanisms.encode_message(ROWS[0], None, 0),
    "decode_spec_none": lambda: mechanisms.decode_message(MSG, None),
    "decode_raw_spec_none": lambda: mechanisms.decode_message(
        mechanisms.RawVector(values=(0.0,) * 4), None
    ),
    "mean_estimate_spec_none": lambda: mechanisms.mean_estimate([MSG], None),
    "sample_decoded_spec_none": lambda: mechanisms.sample_decoded(ROWS[0], None, 0, 1),
    "batch_encoder_spec_none": lambda: mechanisms.batch_encoder(ROWS, None),
    "trials_spec_none": lambda: mechanisms.mean_estimate_trials(ROWS, None, 0, 1),
    "r1_probabilities_spec_none": lambda: mechanisms.r1_atom_probabilities(ROWS[0], None),
    "frame_spec_none": lambda: wire.frame_message(MSG, None),
    "unframe_spec_none": lambda: wire.unframe_message(FRAME, None),
    "payload_bits_spec_none": lambda: wire.message_payload_bits(MSG, None),
    "round_bits_spec_str": lambda: wire.round_payload_bits("l2", PARAMS, 4),
    # Seeds of the samplers, checked as every other seed is.
    "sample_clients_seed_str": lambda: fedsim.sample_clients(10, 3, "abc"),
    "sample_clients_seed_fractional": lambda: fedsim.sample_clients(10, 3, 1.5),
    "sample_clients_seed_negative": lambda: fedsim.sample_clients(10, 3, -1),
    "sample_clients_seed_bool": lambda: fedsim.sample_clients(10, 3, True),
    "sample_data_seed_str": lambda: fedsim.sample_data(10, 3, "abc"),
    "sample_data_seed_fractional": lambda: fedsim.sample_data(10, 3, 1.5),
    "sample_data_seed_negative": lambda: fedsim.sample_data(10, 3, -1),
    "sample_data_seed_bool": lambda: fedsim.sample_data(10, 3, True),
    # Frames, offsets and codes.
    "frame_length_offset_str": lambda: wire.frame_length(FRAME, "0"),
    "frame_length_offset_fractional": lambda: wire.frame_length(FRAME, 0.5),
    "frame_length_offset_bool": lambda: wire.frame_length(FRAME, True),
    "unframe_offset_bool": lambda: wire.unframe_message(b"\x00" + FRAME, SPEC, True),
    "unframe_str": lambda: wire.unframe_message("abc", SPEC),
    "histogram_unpack_tuple": lambda: wire.histogram_unpack((1, 2, 3)),
    "comm_adversary_ragged": lambda: bounds.comm_adversary([[1.0, 0.0], [1.0]], 2.0, 1.0),
    "comm_adversary_str": lambda: bounds.comm_adversary("ab", 2.0, 1.0),
    # Ranges that let a non-finite or negative value through to a NaN, or to
    # a failure after work had started.
    "train_diameter_inf": lambda: train_config(diameter=math.inf),
    "synthetic_theta_norm_inf": lambda: fedsim.synthetic_logistic_data(2, 2, 2, 0, math.inf),
    "hemisphere_radius_negative": lambda: mechanisms.hemisphere_radius(4, -1.0, 1.0),
    "hemisphere_radius_nan": lambda: mechanisms.hemisphere_radius(4, math.nan, 1.0),
    "comm_adversary_a_inf": lambda: bounds.comm_adversary([[1.0, 0.0]], 2.0, math.inf),
    "convergence_bound_T_inf": lambda: convergence_bound(T=math.inf),
    # Integers that pass "[1, inf)" but that float() refuses with OverflowError.
    "risk_upper_d_huge": lambda: bounds.risk_upper(risk_query(d=10**400, n=1)),
    "risk_lower_d_huge": lambda: bounds.risk_lower(risk_query(p=4.0, d=10**400, n=1)),
    "risk_upper_n_huge": lambda: bounds.risk_upper(risk_query(n=10**400)),
    "hemisphere_radius_d_huge": lambda: mechanisms.hemisphere_radius(10**400, 1.0, 1.0),
    "g_squared_d_huge": lambda: bounds.g_squared(1.0, 10**400, 4.0, 1.0, 10, 1.0),
    "g_squared_n_huge": lambda: g_squared(n=10**400),
    "convergence_bound_T_huge": lambda: convergence_bound(T=10**400),
    "compose_T_huge": lambda: strong_composition(0.1, 0.0, 10**400, 1e-6),
    "shuffle_explicit_batch_huge": lambda: amplify_by_shuffling(
        0.1, 1e-6, 10**400, ExplicitShuffling()
    ),
    "shuffle_clones_batch_huge": lambda: amplify_by_shuffling(
        0.1, 1e-6, 10**400, ClonesShuffling()
    ),
    "end_to_end_T_huge": lambda: end_to_end(0.1, 1e-6, 10**400, PARAMS),
    "max_feasible_T_huge": lambda: max_feasible_epsilon0(1e-6, 10**400, PARAMS, ClonesShuffling()),
    "calibrate_T_huge": lambda: calibrate_epsilon0(1.0, 1e-6, 10**400, PARAMS),
    "end_to_end_batch_huge": lambda: end_to_end(
        0.1, 1e-6, 10, SamplingParams(m=10**400, k=10**399, r=1, s=1)
    ),
    # Reals past float64's range, which float() refuses with OverflowError.
    "spec_radius_huge": lambda: mechanisms.MechanismSpec(BallSpec(2.0, 10**400, 3), 1.0),
    "end_to_end_epsilon0_huge": lambda: end_to_end(
        10**400, 1e-6, 10, SamplingParams(m=5000, k=1000, r=1, s=1)
    ),
    "risk_a_huge": lambda: bounds.RiskQuery(2.0, 8, 10, 10**400, 1.0),
    "g_squared_L_huge": lambda: bounds.g_squared(10**400, 8, 2.0, 0.5, 10, 1.0),
    "p_norm_entry_huge": lambda: linalg.p_norm([10**400, 0], 2.0),
    "encode_entry_huge": lambda: mechanisms.encode_message([10**400, 0, 0, 0], SPEC, 0),
    # Non-finite raw values, which mean_estimate would average into NaN.
    "raw_value_nan": lambda: mechanisms.RawVector((math.nan,) * 4),
    "raw_value_inf": lambda: mechanisms.RawVector((0.0, -math.inf)),
    "unframe_raw_nan": lambda: wire.unframe_message(
        struct.pack(">BH4d", wire.TAG_RAW, 4 * wire.RAW_VALUE_BITS, math.nan, 0.0, 0.0, 0.0), SPEC
    ),
    # Complex arrays, whose imaginary part a float cast would drop.
    "encode_complex": lambda: mechanisms.encode_message(np.array([5j, 0, 0, 0]), L1_SPEC, 0),
    "trials_complex": lambda: mechanisms.mean_estimate_trials(ROWS + 3j, SPEC, 0, 1),
    "clip_complex": lambda: linalg.clip(np.array([3 + 4j, 0]), 2.0, 1.0),
    "client_features_complex": lambda: fedsim.Population(np.zeros((1, 2)) + 1j, [1.0], [0]),
    # Objects that leaked TypeError or AttributeError, or were read as something else.
    "train_task_list": lambda: train_config(task=["x"]),
    "save_binary_path_none": lambda: fedsim.save_dataset_binary(None, POP),
    "save_csv_path_none": lambda: fedsim.save_dataset_csv(None, POP),
    "load_path_none": lambda: fedsim.load_dataset(None),
    "round_bits_params_none": lambda: wire.round_payload_bits(SPEC, None, 4),
    "round_bits_d_str": lambda: wire.round_payload_bits(None, PARAMS, "4"),
    "round_bits_l1_arm_str": lambda: wire.round_payload_bits(MIX_SPEC, PARAMS, 4, l1_arm="x"),
    "round_bits_l1_arm_negative": lambda: wire.round_payload_bits(MIX_SPEC, PARAMS, 4, l1_arm=-3),
    "round_bits_l1_arm_above_ks": lambda: wire.round_payload_bits(MIX_SPEC, PARAMS, 4, l1_arm=3),
    # Checks that no other case reached.
    "mix_message_arm_l3": lambda: mechanisms.MixTagged("L3", mechanisms.IndexSign(0, 1)),
    "rp_arm_specs_of_l2_spec": lambda: mechanisms.rp_arm_specs(SPEC),
    "p_norm_matrix": lambda: linalg.p_norm(np.zeros((2, 2)), 2.0),
    "project_center_of_another_dim": lambda: linalg.project_l2_ball([1.0, 0.0], [0.0], 1.0),
    "ball_contains_another_dim": lambda: BallSpec(2.0, 1.0, 3).contains([0.1, 0.1]),
    "train_non_finite_gradients": train_on_non_finite_gradients,
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


@pytest.mark.parametrize(
    "value", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative_int", "fraction"]
)
def test_reals_past_float64_are_refused_by_name(value):
    # float() refuses them with OverflowError; an interval would let them
    # pass, since an int compares exactly with inf.
    with pytest.raises(ValidationError, match="^radius must be a real number that float64 holds"):
        require_real(value, "radius", "(-inf, inf)")
    assert require_real(10**308, "radius") == 10**308


@pytest.mark.parametrize("value", [False, 5.0, np.float64(5.0), "5", None])
def test_non_integers_are_refused_by_name(value):
    with pytest.raises(ValidationError, match="^count must be an integer"):
        require_int(value, "count")


INSIDE = [
    ("(0, 1)", 0.5), ("[0, 1)", 0.0), ("(0, 1]", 1.0), ("[0, 1]", 1), ("[0, 1]", np.float32(0.0)),
    ("(0, inf]", math.inf), ("[1, inf]", 1.0), ("(0, inf)", 1e308), ("[-1, 1]", -1.0),
    ("[-inf, 0)", -math.inf), ("(-inf, inf)", -1e308),
]
OUTSIDE = [
    ("(0, 1)", 0.0), ("(0, 1)", 1.0), ("[0, 1)", 1.0), ("(0, 1]", 0.0), ("[0, 1]", -1e-300),
    ("(0, inf)", math.inf), ("[1, inf)", math.inf), ("(0, inf]", -math.inf), ("(0, inf]", 0),
    ("(-inf, inf)", math.inf), ("(-inf, inf)", -math.inf), ("[1, 2]", np.float64(2.5)),
]


@pytest.mark.parametrize("interval, value", INSIDE, ids=[f"{i}{v}" for i, v in INSIDE])
def test_reals_inside_the_interval_pass_unchanged(interval, value):
    assert require_real(value, "x", interval) is value


@pytest.mark.parametrize("interval, value", OUTSIDE, ids=[f"{i}{v}" for i, v in OUTSIDE])
def test_reals_outside_the_interval_are_refused(interval, value):
    with pytest.raises(ValidationError, match="^x must be in "):
        require_real(value, "x", interval)


@pytest.mark.parametrize("interval", ["(0, 1)", "[0, 1]", "(0, inf]", "[-inf, inf]"])
@pytest.mark.parametrize("nan", [math.nan, np.float64("nan"), np.float32("nan")])
def test_nan_lies_in_no_interval(interval, nan):
    with pytest.raises(ValidationError, match="^x must be in "):
        require_real(nan, "x", interval)


def test_integer_ranges():
    assert require_int(np.int64(1), "n", "[1, inf)") == 1
    assert type(require_int(np.uint8(3), "n", "[1, 3]")) is int
    assert require_int(2**70, "n", "[0, inf)") == 2**70
    with pytest.raises(ValidationError, match=r"^n must be in \[1, inf\), got 0$"):
        require_int(np.int64(0), "n", "[1, inf)")
    with pytest.raises(ValidationError, match=r"^n must be in \[1, 4294967296\], got 4294967297$"):
        require_int(2**32 + 1, "n", "[1, 4294967296]")


def test_range_message_names_the_argument_the_interval_and_the_value():
    with pytest.raises(ValidationError) as info:
        require_real(2.0, "sampling rate q", "(0, 1]")
    assert str(info.value) == "sampling rate q must be in (0, 1], got 2.0"


def test_the_type_is_checked_before_the_range():
    with pytest.raises(ValidationError, match="^q must be a real number"):
        require_real("2", "q", "(0, 1]")
    with pytest.raises(ValidationError, match="^n must be an integer"):
        require_int(0.0, "n", "[1, inf)")


def test_a_malformed_interval_is_a_programming_error():
    with pytest.raises(ValueError, match="not an interval") as info:
        require_real(1.0, "x", "0 < x < 1")
    assert not isinstance(info.value, ValidationError)


def _is_constant(node) -> bool:
    """A number literal, math.inf, or arithmetic on them (such as 1 << 32)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float))
    if isinstance(node, ast.UnaryOp):
        return _is_constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant(node.left) and _is_constant(node.right)
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "math.inf"


def _is_number_check(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
        "require_real", "require_int"
    )


def _constant_range_checks(tree) -> list[int]:
    """Lines of each ``if`` that raises ValidationError on a comparison of a
    number check's result, called there or bound to a name earlier in the
    function, with constants only: a range the interval argument should state."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        checked = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and _is_number_check(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            raises = isinstance(node, ast.If) and any(
                isinstance(r, ast.Raise) and "ValidationError" in ast.unparse(r.exc or r)
                for stmt in node.body
                for r in ast.walk(stmt)
            )
            if not raises:
                continue
            for cmp in ast.walk(node.test):
                if not isinstance(cmp, ast.Compare):
                    continue
                operands = [cmp.left, *cmp.comparators]
                subjects = [
                    o for o in operands
                    if _is_number_check(o) or (isinstance(o, ast.Name) and o.id in checked)
                ]
                if len(subjects) == 1 and all(o in subjects or _is_constant(o) for o in operands):
                    found.append(node.lineno)
    return sorted(set(found))


def test_no_range_is_written_by_hand():
    # A fixed range goes in the interval argument of require_real or
    # require_int; only a bound that depends on another argument (1 <= k <= m)
    # is compared by hand.
    hand_written = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "errors.py":
            continue
        lines = _constant_range_checks(ast.parse(path.read_text()))
        if lines:
            hand_written[path.relative_to(SRC).as_posix()] = lines
    assert hand_written == {}


def test_the_range_guard_sees_both_forms():
    # The guard must find a hand-written range both as a direct comparison
    # and through a name, and leave a bound on another argument alone.
    source = (
        "def f(x, n, k):\n"
        "    if not require_real(x, 'x') > 0.0:\n"
        "        raise ValidationError('x')\n"
        "    n = require_int(n, 'n')\n"
        "    if n < 1 << 32:\n"
        "        raise ValidationError('n')\n"
        "    if not 1 <= require_int(k, 'k') <= n:\n"
        "        raise ValidationError('k')\n"
    )
    assert _constant_range_checks(ast.parse(source)) == [2, 5]


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
