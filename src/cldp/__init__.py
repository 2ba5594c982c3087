"""Communication-limited locally private estimation toolkit.

Building blocks for distributed estimation under a joint privacy and
communication budget:

* :mod:`cldp.linalg` — ball geometry, clipping, projections, and a fast
  Walsh–Hadamard transform.
* :mod:`cldp.mechanisms` — locally private, few-bit encoders/decoders for
  vectors in l1/l2/linf balls (and an lp mix), all exactly unbiased.
* :mod:`cldp.accountant` — the shuffled-model privacy chain: amplification
  by shuffling and subsampling, strong composition, end-to-end budgets, and
  epsilon0 calibration.
* :mod:`cldp.wire` — bit-exact message serialization and communication
  accounting (one multiset atom code, framing).
* :mod:`cldp.bounds` — closed-form achievable risks, order-only minimax
  lower bounds, the low-communication adversary, and SGD constants.
* :mod:`cldp.fedsim` — a deterministic federated SGD simulator over convex
  tasks using all of the above.
* :mod:`cldp.cli` — the ``cldp`` command-line front end.
"""

from .accountant import (
    ClonesShuffling,
    ExplicitShuffling,
    PrivacyBudget,
    SamplingParams,
    amplify_by_shuffling,
    amplify_by_subsampling,
    calibrate_epsilon0,
    end_to_end,
    max_feasible_epsilon0,
    strong_composition,
)
from .bounds import (
    RiskQuery,
    comm_adversary,
    convergence_bound,
    g_squared,
    risk_lower,
    risk_upper,
)
from .errors import (
    AccountingError,
    AmplificationWarning,
    ClippingWarning,
    InfeasibleError,
    OutOfBallError,
    PreconditionError,
    ValidationError,
)
from .linalg import BallSpec, clip, p_norm, project_l2_ball
from .mechanisms import (
    IndexSign,
    MechanismSpec,
    MixTagged,
    RawVector,
    SparseSigned,
    decode_message,
    encode_message,
    mean_estimate,
    mean_estimate_trials,
    mechanism_family,
    privacy_ratio,
    sample_decoded,
)
from .wire import (
    HistogramCode,
    frame_message,
    histogram_pack,
    histogram_unpack,
    message_payload_bits,
    multiset_bits,
    unframe_message,
)
from .fedsim import (
    Population,
    RoundTrace,
    TrainConfig,
    TrainResult,
    synthetic_logistic_data,
    train,
)

__version__ = "0.1.0"
