"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: validation problems (malformed inputs,
out-of-ball vectors, unknown config keys) exit with 2, accounting problems
(violated amplification preconditions, unreachable calibration targets) exit
with 3.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition (shape, range, finiteness)."""


class OutOfBallError(ValidationError):
    """Mechanism input lies outside the ball the mechanism assumes."""


class AccountingError(RuntimeError):
    """Base class for privacy-accounting failures."""


class PreconditionError(AccountingError):
    """An amplification lemma's precondition fails; message names the inequality."""


class InfeasibleError(AccountingError):
    """A calibration target is unreachable within the variant's valid range."""


class AmplificationWarning(UserWarning):
    """Per-round privacy uses the weaker data-sampling-only amplification."""


class ClippingWarning(UserWarning):
    """Gradient clipping is active on a non-negligible fraction of samples."""
