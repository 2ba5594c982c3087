"""Dense vector primitives shared by every module.

p-norms over the extended range p in [1, inf], gradient clipping, the fast
Walsh-Hadamard transform (the unnormalized in-place row butterfly, and one
entry per row by one path through that butterfly), and Euclidean-ball
projection. The butterfly computes H_d @ x for each row x, with

    H_d[i, j] = (-1)^popcount(i & j),      d a power of two,

so H_d @ H_d = d * I; callers divide by sqrt(d) for the symmetric transform,
which is an involution and an isometry of the l2 norm.
All arithmetic is float64; EXACT_TOL, the relative tolerance of closed-form
identities throughout the package, lives here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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


def p_norm(x, p: float) -> float:
    """The lp norm for p in [1, inf]; p=inf returns max_j |x_j|."""
    v = as_vector(x)
    if not p >= 1.0:
        raise ValidationError(f"p must lie in [1, inf], got {p!r}")
    if math.isinf(p):
        return float(np.max(np.abs(v)))
    if p == 1.0:
        return float(np.sum(np.abs(v)))
    if p == 2.0:
        return float(np.linalg.norm(v))
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class BallSpec:
    """An lp ball: exponent p in [1, inf], finite radius a > 0, ambient dimension d."""

    p: float
    radius: float
    dim: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, numbers.Real) and self.p >= 1.0):
            raise ValidationError(f"ball exponent must lie in [1, inf], got {self.p!r}")
        if not (isinstance(self.radius, numbers.Real) and 0.0 < self.radius < math.inf):
            raise ValidationError(f"ball radius must be positive and finite, got {self.radius!r}")
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise ValidationError(f"ball dimension must be a positive integer, got {self.dim!r}")

    def contains(self, x, tol: float = EXACT_TOL) -> bool:
        return p_norm(x, self.p) <= self.radius * (1.0 + tol)


def clip(g, p: float, C: float) -> np.ndarray:
    """Rescale g so its lp norm is at most C: g / max{1, ||g||_p / C}.

    Inside-ball inputs (including the zero vector) are returned unchanged.
    """
    v = as_vector(g)
    if not C > 0.0:
        raise ValidationError(f"clip radius must be positive, got {C!r}")
    return v / max(1.0, p_norm(v, p) / C)


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
    if not radius > 0.0:
        raise ValidationError(f"projection radius must be positive, got {radius!r}")
    diff = v - c
    nrm = float(np.linalg.norm(diff))
    if nrm <= radius:
        return v.copy()
    return c + diff * (radius / nrm)
