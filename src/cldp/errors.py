"""Exception and warning types shared across the package, and its two number checks.

The CLI maps these onto exit codes: validation problems (malformed inputs,
out-of-ball vectors, unknown config keys) exit with 2, accounting problems
(violated amplification preconditions, unreachable calibration targets) exit
with 3.

Every public entry point checks its scalars by one rule: ``require_real``
takes a ``numbers.Real`` and ``require_int`` a ``numbers.Integral`` (Python
and numpy numbers alike; an integral float such as 5.0 is not an integer),
and neither takes a bool. Each raises ValidationError naming the argument;
range tests stay with the caller. A float or an int passes a fast type test
before the ABC is asked, so the checks cost little on per-message paths.
"""

import numbers


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


def require_real(value, name: str):
    """value itself when it is a real number (a bool is not), else ValidationError."""
    if isinstance(value, float) or type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r:.200}")
    return value


def require_int(value, name: str) -> int:
    """value as an int when it is an integer (a bool is not), else ValidationError."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r:.200}")
    return int(value)
