"""Dense vector primitives shared by every module.

The lp ball for p in [1, inf]: ``row_norms`` is the one lp-norm formula, read
by ``p_norm`` (one vector), ``_largest_norm`` (the mechanisms' input check)
and ``clip`` (a vector or each row of a matrix; ``_clip_rows``, which it
wraps, also returns the norms); ``_in_ball`` is the one membership test.
Also the fast Walsh-Hadamard transform (the unnormalized in-place row
butterfly, and one entry per row by one path through that
butterfly), and Euclidean-ball projection. The butterfly computes H_d @ x
for each row x, with

    H_d[i, j] = (-1)^popcount(i & j),      d a power of two,

so H_d @ H_d = d * I; callers divide by sqrt(d) for the symmetric transform,
which is an involution and an isometry of the l2 norm.
All arithmetic is float64; EXACT_TOL, the relative tolerance of closed-form
identities throughout the package, lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_int, require_real

# Closed-form identities (enumerated expectations, norm formulas) must hold to
# this relative tolerance.
EXACT_TOL = 1e-12


def as_vector(x) -> np.ndarray:
    """Validate and convert to a finite float64 1-D array of length >= 1."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValidationError(f"expected a 1-D vector of length >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector entries must be finite (no NaN/Inf)")
    return v


def _require_p(p, name: str = "p"):
    """p itself when it is a real in [1, inf], else ValidationError."""
    if not require_real(p, name) >= 1.0:
        raise ValidationError(f"{name} must lie in [1, inf], got {p!r}")
    return p


def row_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """The lp norm of each row of a float64 matrix, p checked: (sum_j |x_ij|**p)
    ** (1/p), max_j |x_ij| at p = inf, NaN for a row with a NaN. At p = 2 it
    squares x itself, as x*x is |x|**2 bit for bit."""
    if p == 1.0:
        return np.abs(rows).sum(axis=1)
    if p == 2.0:
        return (rows * rows).sum(axis=1) ** 0.5
    if math.isinf(p):
        return np.abs(rows).max(axis=1)
    return (np.abs(rows) ** p).sum(axis=1) ** (1.0 / p)


def _largest_norm(rows: np.ndarray, p: float) -> float:
    """The largest ``row_norms``, bit for bit. At p = inf it is max(max x, -min x),
    each extreme read at its argmax or argmin (the first NaN if there is one):
    no abs copy, and less than a max or min reduction costs at any size."""
    if math.isinf(p):  # NaN if an entry is; abs: +0.0 for zeros
        return abs(max(rows.item(rows.argmax()), -rows.item(rows.argmin())))
    norms = row_norms(rows, p)
    return norms.item(norms.argmax())


def _in_ball(norm: float, radius: float, tol: float = EXACT_TOL) -> bool:
    """The one membership test, norm <= radius * (1 + tol); a NaN norm fails it."""
    return norm <= radius * (1.0 + tol)


def p_norm(x, p: float) -> float:
    """The lp norm of one vector for p in [1, inf]; p=inf returns max_j |x_j|."""
    return row_norms(as_vector(x)[None], _require_p(p)).item()


@dataclass(frozen=True)
class BallSpec:
    """An lp ball: exponent p in [1, inf], finite radius a > 0, ambient dimension d."""

    p: float
    radius: float
    dim: int

    def __post_init__(self) -> None:
        _require_p(self.p, "ball exponent")
        if not 0.0 < require_real(self.radius, "ball radius") < math.inf:
            raise ValidationError(f"ball radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "dim", require_int(self.dim, "ball dimension"))
        if self.dim < 1:
            raise ValidationError(f"ball dimension must be a positive integer, got {self.dim!r}")

    def contains(self, x, tol: float = EXACT_TOL) -> bool:
        return _in_ball(p_norm(x, self.p), self.radius, tol)


def clip(g, p: float, C: float) -> np.ndarray:
    """Rescale g, one vector or each row of a row matrix, so its lp norm is at
    most C: g / max{1, ||g||_p / C}. Inside-ball rows (the zero row too) keep their values."""
    v = np.asarray(g, dtype=np.float64)
    rows = as_vector(v.ravel()).reshape(v.shape) if v.ndim == 2 else as_vector(v)[None]
    if not require_real(C, "clip radius") > 0.0:
        raise ValidationError(f"clip radius must be positive, got {C!r}")
    return _clip_rows(rows, _require_p(p), C)[0].reshape(v.shape)


def _clip_rows(rows: np.ndarray, p: float, C: float) -> tuple[np.ndarray, np.ndarray]:
    """``clip`` of a finite float64 row matrix, p and C checked, and the
    ``row_norms`` it scaled by, for a caller that also counts the shrunk rows."""
    norms = row_norms(rows, p)
    return rows / np.maximum(1.0, norms / C)[:, None], norms


def fwht_rows_inplace(mat: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard butterfly along the last axis."""
    rows, d = mat.shape
    h = 1
    while h < d:
        w = mat.reshape(rows, d // (2 * h), 2, h)
        top = w[:, :, 0, :] + w[:, :, 1, :]
        bot = w[:, :, 0, :] - w[:, :, 1, :]
        w[:, :, 0, :] = top
        w[:, :, 1, :] = bot
        h *= 2
    return mat


def fwht_rows_at(mat: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Entry j[i] of row i's unnormalized Walsh-Hadamard transform, each row
    zero-padded to the next power of two: O(d) per row, not O(d log d).

    Level by level it keeps only the half of the butterfly that output j[i]
    reads, with the butterfly's own additions (a + b where bit `level` of j[i]
    is 0, a + (-b) = a - b where it is 1), so every entry equals
    ``fwht_rows_inplace`` bit for bit. One row's bit is a scalar, so each of
    its levels is the one subtraction or addition.
    """
    rows, d = mat.shape
    levels = (d - 1).bit_length()
    if d < 1 << levels:
        padded = np.zeros((rows, 1 << levels))
        padded[:, :d] = mat
        mat = padded
    if rows == 1:
        v, k = mat[0], int(j[0])
        for level in range(levels):
            v = v[0::2] - v[1::2] if (k >> level) & 1 else v[0::2] + v[1::2]
        return v
    signs = 1.0 - 2.0 * ((j[:, None] >> np.arange(levels)) & 1)
    for level in range(levels):
        half = mat[:, 1::2] * signs[:, level, None]
        half += mat[:, 0::2]
        mat = half
    return mat[:, 0]


def project_l2_ball(theta, center, radius: float) -> np.ndarray:
    """Euclidean projection onto {v : ||v - center||_2 <= radius}; idempotent."""
    v = as_vector(theta)
    c = as_vector(center)
    if v.size != c.size:
        raise ValidationError("point and center must share a dimension")
    if not require_real(radius, "projection radius") > 0.0:
        raise ValidationError(f"projection radius must be positive, got {radius!r}")
    diff = v - c
    nrm = float(np.linalg.norm(diff))
    if nrm <= radius:
        return v.copy()
    return c + diff * (radius / nrm)
