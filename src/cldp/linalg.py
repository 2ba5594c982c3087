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

``row_blocks`` runs a per-row pass over consecutive row blocks. The input
check (``_largest_norm``) and ``fwht_rows_at`` use it past ``BLOCK_ENTRIES``
= 2**17 entries, in blocks of about that many, and ``mechanisms``' l2 draw
past one of its blocks. From two blocks on, one worker thread, started by
the first such pass, runs the second half of the blocks while the caller
runs the first, when the process's CPU affinity holds two CPUs. The output
is the inline loop's bit for bit: blocks are disjoint, each row sees the
same operations in the same order, and the largest norm is the largest of
the blocks' largest, NaN winning. Smaller passes run inline.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError, require_int, require_real

# Closed-form identities (enumerated expectations, norm formulas) must hold to
# this relative tolerance.
EXACT_TOL = 1e-12

# A per-row pass over more entries than this reads its matrix in row blocks of
# about this many (1 MB of float64), so each block's temporaries stay in a
# core's cache.
BLOCK_ENTRIES = 1 << 17
# The threads a pass of two blocks or more runs on: the caller's and one
# worker's, never more than the process's CPU affinity holds.
_THREADS = 2
_worker = None  # the worker's executor, started by the first pass it serves
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """In a forked child: the parent's worker thread does not exist there, and
    an executor inherited across fork would never run the work it is given, so
    the child starts its own at its first split pass."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_worker)


def _spare_thread():
    """The worker's executor, started on first use; None when the process
    may run on one CPU only (or ``_THREADS`` is 1), so the caller runs alone.
    Where the OS has no affinity call (macOS), every CPU counts."""
    global _worker
    affinity = getattr(os, "sched_getaffinity", None)
    if min(_THREADS, len(affinity(0)) if affinity else os.cpu_count() or 1) < 2:
        return None
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cldp-rows")
        return _worker


def row_blocks(fn: Callable[[slice], object], n: int, step: int) -> list:
    """``[fn(block) for block in blocks]`` over the consecutive row blocks
    ``slice(lo, lo + step)`` of n rows, in order.

    With two blocks or more, and two CPUs in the process's affinity, one
    worker thread runs the second half of the blocks while the caller runs
    the first; numpy's array loops release the interpreter lock, so the
    halves overlap. fn must read and write its own block's rows alone, and
    then the results are the inline loop's, bit for bit. The worker runs in
    the caller's ``contextvars`` context, where numpy 2 keeps its
    ``errstate``, and an error in either half is raised here once both
    halves have stopped.
    """
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
    pool = _spare_thread() if len(blocks) > 1 else None
    if pool is None:
        return [fn(block) for block in blocks]
    half = (len(blocks) + 1) // 2
    tail = pool.submit(contextvars.copy_context().run, lambda: [fn(b) for b in blocks[half:]])
    try:
        head = [fn(block) for block in blocks[:half]]
    except BaseException:
        tail.exception()  # waits: the worker's blocks stop before the error leaves
        raise
    return head + tail.result()


_FLOAT64 = np.dtype(np.float64)


def _as_floats(x) -> np.ndarray:
    """x as a float64 array; what numpy cannot convert (a string, ragged
    rows, an int past float64's range) and complex numbers, whose imaginary
    part a cast would drop, raise ValidationError."""
    try:
        v = np.asarray(x)
        if v.dtype is _FLOAT64:  # the common case, no cast
            return v
        if v.dtype.kind != "c":
            return v.astype(np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"expected real numbers, got {x!r:.200}")


def as_vector(x) -> np.ndarray:
    """Validate and convert to a finite float64 1-D array of length >= 1."""
    v = _as_floats(x)
    if v.ndim != 1 or v.size < 1:
        raise ValidationError(f"expected a 1-D vector of length >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector entries must be finite (no NaN/Inf)")
    return v


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
    """The largest ``row_norms``, bit for bit; NaN if any row's is. At p = inf
    it is max(max x, -min x), each extreme read at its argmax or argmin (the
    first NaN if there is one): no abs copy, and less than a max or min
    reduction costs at any size. A matrix of more than ``BLOCK_ENTRIES``
    entries is read in ``row_blocks`` of about that many, and the largest of
    their largest norms, the first NaN if one is, is the same float."""
    if rows.size > BLOCK_ENTRIES and len(rows) > 1:
        step = max(1, BLOCK_ENTRIES // rows.shape[1])
        peaks = np.array(row_blocks(lambda block: _largest_norm(rows[block], p), len(rows), step))
        return peaks.item(peaks.argmax())
    if math.isinf(p):  # NaN if an entry is; abs: +0.0 for zeros
        return abs(max(rows.item(rows.argmax()), -rows.item(rows.argmin())))
    norms = row_norms(rows, p)
    return norms.item(norms.argmax())


def _in_ball(norm: float, radius: float) -> bool:
    """The one membership test, norm <= radius * (1 + EXACT_TOL); a NaN norm fails it."""
    return norm <= radius * (1.0 + EXACT_TOL)


def p_norm(x, p: float) -> float:
    """The lp norm of one vector for p in [1, inf]; p=inf returns max_j |x_j|."""
    return row_norms(as_vector(x)[None], require_real(p, "p", "[1, inf]")).item()


@dataclass(frozen=True)
class BallSpec:
    """An lp ball: exponent p in [1, inf], finite radius a > 0, ambient dimension d."""

    p: float
    radius: float
    dim: int

    def __post_init__(self) -> None:
        require_real(self.p, "ball exponent", "[1, inf]")
        require_real(self.radius, "ball radius", "(0, inf)")
        object.__setattr__(self, "dim", require_int(self.dim, "ball dimension", "[1, inf)"))

    def contains(self, x) -> bool:
        """Whether x, a vector of dimension ``dim``, lies in the ball."""
        v = as_vector(x)
        if v.size != self.dim:
            raise ValidationError(f"expected a vector of dimension {self.dim}, got {v.size}")
        return _in_ball(p_norm(v, self.p), self.radius)


def clip(g, p: float, C: float) -> np.ndarray:
    """Rescale g, one vector or each row of a row matrix, so its lp norm is at
    most C: g / max{1, ||g||_p / C}. Inside-ball rows (the zero row too) keep their values."""
    v = _as_floats(g)
    rows = as_vector(v.ravel()).reshape(v.shape) if v.ndim == 2 else as_vector(v)[None]
    require_real(C, "clip radius", "(0, inf]")
    return _clip_rows(rows, require_real(p, "p", "[1, inf]"), C)[0].reshape(v.shape)


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
    if rows > 1 and rows << levels > BLOCK_ENTRIES:  # each row's path is its own
        step = max(1, BLOCK_ENTRIES >> levels)
        return np.concatenate(row_blocks(lambda b: fwht_rows_at(mat[b], j[b]), rows, step))
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
    require_real(radius, "projection radius", "(0, inf]")
    diff = v - c
    nrm = float(np.linalg.norm(diff))
    if nrm <= radius:
        return v.copy()
    return c + diff * (radius / nrm)
