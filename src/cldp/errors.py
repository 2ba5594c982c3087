"""Exception and warning types shared across the package, and its one number rule.

The CLI maps these onto exit codes: validation problems (malformed inputs,
out-of-ball vectors, unknown config keys) exit with 2, accounting problems
(violated amplification preconditions, unreachable calibration targets) exit
with 3.

One number rule, types and ranges. ``require_real`` takes a ``numbers.Real``
and ``require_int`` a ``numbers.Integral`` (numpy numbers too; 5.0 is not an
integer), neither a bool; an optional interval such as ``"(0, 1]"`` or
``"[1, inf)"`` states the admissible range, inf only at a closed end and NaN
nowhere. Each raises ValidationError naming the argument; only bounds tying
two arguments (1 <= k <= m) stay with the caller. Interval texts are parsed
once, and floats and ints skip the ABC test, so checks on per-message paths
cost little.
"""

import math
import numbers
import re
import sys


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


# The counts that convert to a float: an integer a float formula reads (a
# dimension, a batch size) takes this range, since "[1, inf)" admits ints
# such as 10**400 that float() refuses with OverflowError.
FLOAT_COUNT = f"[1, {sys.float_info.max!r}]"

# The largest x whose e^x is a finite float64 (about 709.78): math.exp overflows above it.
_LN_FLOAT_MAX = math.log(sys.float_info.max)

# interval text -> (low, high, the ends it admits), filled on first use.
_INTERVALS: dict = {}
_INTERVAL_TEXT = re.compile(r"([\[(])([^,]+), ([^,]+)([\])])")


def _interval(text: str) -> tuple:
    match = _INTERVAL_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"not an interval: {text!r}")
    opening, low, high, closing = match.groups()
    low, high = float(low), float(high)
    ends = tuple(end for end, closed in ((low, opening == "["), (high, closing == "]")) if closed)
    _INTERVALS[text] = (low, high, ends)
    return low, high, ends


def require_real(value, name: str, interval: str | None = None):
    """value itself when it is a real number (a bool is not) in interval, else ValidationError."""
    if not (isinstance(value, float) or type(value) is int):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number, got {value!r:.200}")
    if interval is not None:
        low, high, ends = _INTERVALS.get(interval) or _interval(interval)
        if not (low < value < high or value in ends):
            raise ValidationError(f"{name} must be in {interval}, got {value!r}")
    return value


def require_int(value, name: str, interval: str | None = None) -> int:
    """value as an int when it is an integer (a bool is not) in interval, else ValidationError."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r:.200}")
        value = int(value)
    if interval is not None:
        low, high, ends = _INTERVALS.get(interval) or _interval(interval)
        if not (low < value < high or value in ends):
            raise ValidationError(f"{name} must be in {interval}, got {value!r}")
    return value
