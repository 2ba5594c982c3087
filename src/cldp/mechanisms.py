"""Finite-alphabet locally private quantizers and the averaging decoder.

Four mechanism families, each unbiased for its input and eps0-LDP on its ball:

* l1 family (Hadamard): rotate x by the normalized Hadamard matrix, transmit a
  single (coordinate, sign) atom. Decode norm is a*sqrt(d)*ratio exactly.
* l2 family (sphere + sparse quantizer): project x onto a sphere of radius M
  by the hemisphere construction (``priv``), then quantize the sphere point to
  d i.i.d. signed coordinate samples (``quan``).
* linf family: transmit one (coordinate, sign) atom of x directly; decode is a
  scaled basis vector of norm a*d*ratio.
* lp mix: with probability mix_prob run the l1 mechanism on an inflated l1
  ball, otherwise the l2 mechanism on an inflated l2 ball; the message records
  which arm ran.

Throughout, ``ratio`` is (e^{eps0}+1)/(e^{eps0}-1) and ``kappa`` its inverse;
flip probabilities of the form 1/2 + (scaled coordinate)*kappa/2 give exactly
an e^{eps0} likelihood ratio between any two in-ball inputs.

Each family has one encoder and one decoder, both on arrays. The encoder takes
an (n, d) row matrix and one generator and returns one message per row as a
struct of arrays: ``(j, sign)`` for l1 and linf; ``(coords, signs, zero)`` for
l2, with (n, d) coordinates and signs and a per-row flag for the reserved zero
message; ``(arm, atoms, sparse)`` for the mix, where ``arm`` marks the rows
that ran the l1 arm and the two sub-batches hold each arm's messages in row
order. A batch draws from the generator in this order: for l1 and linf, n
indices, then n sign uniforms; for l2, n direction uniforms, n side uniforms,
an (n, d) Gaussian, n sign-flip uniforms and an (n, d) uniform matrix for the
coordinates; for the mix, n arm uniforms, the l1 sub-batch, the l2 sub-batch.
With n = 1 this is the draw sequence of a single encode.

The decoder sums a batch from signed counts: ``bincount`` and one unnormalized
fast Walsh-Hadamard transform for l1, ``bincount`` for linf and l2. The
shuffler leaves the server only the multiset of messages, and the counts
depend on nothing else, so the sum is exact and independent of message order;
counting per row instead of per batch gives the individual decodes.

The per-message functions (``r1_encode``, ``priv``, ``quan``,
``encode_message``, ``r1_decode``, ``decode_message``, ...) and the batch ones
(``mean_estimate``, ``sample_decoded``, ``mean_estimate_trials``) are views of
these two, and every input passes the one check in ``_require_rows``. The
message dataclasses exist only at this boundary and on the wire. Every encoder
takes an explicit seedable random stream (anything accepted by
``numpy.random.default_rng``); identical streams reproduce identical messages.
The ``*_atom_probabilities`` helpers give the closed-form output distributions
of the two index families from the plus-probability function the encoder
samples, so tests can check unbiasedness, variance, and the LDP ratio without
sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import OutOfBallError, ValidationError
from .linalg import BallSpec, EXACT_TOL, fwht_rows_inplace

# ---------------------------------------------------------------------------
# Messages and specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexSign:
    """A single (coordinate index, sign) atom; the alphabet has 2d elements."""

    j: int
    sign: int

    def __post_init__(self) -> None:
        if not (isinstance(self.j, (int, np.integer)) and self.j >= 0):
            raise ValidationError(f"atom index must be a nonnegative integer, got {self.j!r}")
        if self.sign not in (-1, 1):
            raise ValidationError(f"atom sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class SparseSigned:
    """d signed coordinate samples (repeats allowed).

    ``is_zero`` marks the reserved message emitted when the quantizer input is
    the zero vector; it decodes to the zero vector.
    """

    pairs: tuple[tuple[int, int], ...]
    is_zero: bool = False

    def __post_init__(self) -> None:
        if len(self.pairs) < 1:
            raise ValidationError("sparse message needs at least one (coordinate, sign) pair")
        for c, s in self.pairs:
            if not (isinstance(c, (int, np.integer)) and c >= 0):
                raise ValidationError(f"coordinate must be a nonnegative integer, got {c!r}")
            if s not in (-1, 1):
                raise ValidationError(f"sign must be +1 or -1, got {s!r}")


@dataclass(frozen=True)
class MixTagged:
    """An arm tag ('L1' or 'L2') plus the inner message that arm produced."""

    arm: str
    inner: Union[IndexSign, SparseSigned]

    def __post_init__(self) -> None:
        if self.arm not in ("L1", "L2"):
            raise ValidationError(f"mix arm must be 'L1' or 'L2', got {self.arm!r}")
        if self.arm == "L1" and not isinstance(self.inner, IndexSign):
            raise ValidationError("L1 arm must carry an index-sign message")
        if self.arm == "L2" and not isinstance(self.inner, SparseSigned):
            raise ValidationError("L2 arm must carry a sparse signed message")


@dataclass(frozen=True)
class RawVector:
    """Uncompressed, unprivatized float64 payload (baseline mode only)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValidationError("raw message must carry at least one value")


MechanismMessage = Union[IndexSign, SparseSigned, MixTagged, RawVector]


@dataclass(frozen=True)
class MechanismSpec:
    """Ball geometry, local privacy parameter, and (for the mix) arm probability.

    mix_prob is the probability of the l1 arm and must be set if and only if
    the lp-mix family is intended (finite p, typically outside {1, 2}).
    """

    ball: BallSpec
    epsilon0: float
    mix_prob: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon0) and self.epsilon0 > 0.0):
            raise ValidationError(f"epsilon0 must be a finite positive real, got {self.epsilon0!r}")
        if self.mix_prob is not None:
            if not 0.0 <= self.mix_prob <= 1.0:
                raise ValidationError(f"mix probability must lie in [0,1], got {self.mix_prob!r}")
            if math.isinf(self.ball.p):
                raise ValidationError("the mix family is defined for finite p only")


def mechanism_family(spec: MechanismSpec) -> str:
    """Which encoder a spec addresses: 'mix', 'l1', 'l2', or 'linf'."""
    if spec.mix_prob is not None:
        return "mix"
    if spec.ball.p == 1.0:
        return "l1"
    if spec.ball.p == 2.0:
        return "l2"
    if math.isinf(spec.ball.p):
        return "linf"
    raise ValidationError(
        f"p={spec.ball.p} has no direct mechanism; set mix_prob to use the lp mix"
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def privacy_ratio(eps0: float) -> float:
    """(e^{eps0}+1)/(e^{eps0}-1); tends to 1 as eps0 -> inf (no-privacy limit)."""
    if math.isinf(eps0):
        return 1.0
    if not eps0 > 0.0:
        raise ValidationError(f"epsilon0 must be positive, got {eps0!r}")
    return (math.exp(eps0) + 1.0) / math.expm1(eps0)


def _kappa(eps0: float) -> float:
    return 1.0 / privacy_ratio(eps0)


def padded_dim(d: int) -> int:
    """Smallest power of two >= d (the Hadamard working dimension)."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    return 1 << (d - 1).bit_length()


def hadamard_column(n: int, j: int) -> np.ndarray:
    """Column j of the (unnormalized) n x n Hadamard matrix, n a power of two."""
    if n & (n - 1) or n < 1:
        raise ValidationError(f"Hadamard size must be a power of two, got {n}")
    if not 0 <= j < n:
        raise ValidationError(f"column index {j} out of range for size {n}")
    basis = np.zeros((1, n))
    basis[0, j] = 1.0
    return fwht_rows_inplace(basis)[0]


def _require_rows(x, ball: BallSpec, ndim: int) -> np.ndarray:
    """The input check of every entry point, returning an (n, d) float matrix.

    x must be one vector (ndim=1) or a row matrix (ndim=2) with ball.dim
    columns, finite, and with every row inside the ball.
    """
    rows = np.asarray(x, dtype=np.float64)
    if rows.ndim != ndim or rows.size < 1:
        kind = "a 1-D vector" if ndim == 1 else "a 2-D (rows x dim) array"
        raise ValidationError(f"expected {kind} with at least one entry, got shape {rows.shape}")
    rows = rows.reshape(-1, rows.shape[-1])
    if rows.shape[1] != ball.dim:
        raise ValidationError(
            f"input dimension {rows.shape[1]} does not match ball dimension {ball.dim}"
        )
    absx = np.abs(rows)
    norms = absx.max(axis=1) if math.isinf(ball.p) else (absx**ball.p).sum(axis=1) ** (1.0 / ball.p)
    nrm = float(norms.max())
    if not nrm <= ball.radius * (1.0 + EXACT_TOL):  # NaN fails too
        if not np.isfinite(rows).all():
            raise ValidationError("input entries must be finite (no NaN/Inf)")
        raise OutOfBallError(
            f"input l{ball.p:g} norm {nrm:.6g} exceeds ball radius "
            f"{ball.radius:.6g}; clip before encoding"
        )
    return rows


def _check_family(spec: MechanismSpec, p_required: float, name: str) -> None:
    if spec.ball.p != p_required:
        raise ValidationError(f"{name} requires a ball with p={p_required:g}, got p={spec.ball.p:g}")


# ---------------------------------------------------------------------------
# Index families (l1, linf): one (index, sign) atom per row
# ---------------------------------------------------------------------------


def _r1_plus(rows: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Pr[sign=+1 | index=j] for every row and every j < padded dimension."""
    n, d = rows.shape
    dp = padded_dim(d)
    y = np.zeros((n, dp))
    y[:, :d] = rows
    y = fwht_rows_inplace(y) / math.sqrt(dp)
    # Each rotated coordinate satisfies |sqrt(dp)*y_j| <= a, so the flip
    # probabilities stay inside [ (1-kappa)/2, (1+kappa)/2 ].
    return 0.5 + (math.sqrt(dp) / (2.0 * spec.ball.radius)) * _kappa(spec.epsilon0) * y


def _rinf_plus(rows: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Pr[sign=+1 | index=j] for every row and every coordinate j."""
    return 0.5 + rows * (_kappa(spec.epsilon0) / (2.0 * spec.ball.radius))


def _draw_atoms(plus: np.ndarray, gen: np.random.Generator):
    """One atom per row of plus-probabilities: n indices, then n sign uniforms."""
    n, dim = plus.shape
    j = gen.integers(dim, size=n)
    sign = np.where(gen.random(n) < plus[np.arange(n), j], 1, -1)
    return j, sign


def _atom_counts(atoms, groups: np.ndarray, n_groups: int, dim: int) -> np.ndarray:
    """Net signed count of every index within each group: (n_groups, dim)."""
    j, sign = atoms
    net = np.bincount(groups * dim + j, weights=sign, minlength=n_groups * dim)
    return net.reshape(n_groups, dim)


def _r1_sums(atoms, spec: MechanismSpec, groups, n_groups: int) -> np.ndarray:
    """Per group, the sum of sign * a * ratio * (Hadamard column j)[:d]."""
    d = spec.ball.dim
    net = fwht_rows_inplace(_atom_counts(atoms, groups, n_groups, padded_dim(d)))
    return (spec.ball.radius * privacy_ratio(spec.epsilon0)) * net[:, :d]


def _rinf_sums(atoms, spec: MechanismSpec, groups, n_groups: int) -> np.ndarray:
    """Per group, the sum of sign * a * d * ratio * e_j."""
    d = spec.ball.dim
    scale = spec.ball.radius * d * privacy_ratio(spec.epsilon0)
    return scale * _atom_counts(atoms, groups, n_groups, d)


def _atoms_of(msgs, dim: int):
    """The (j, sign) arrays of index-sign messages with indices below dim."""
    for msg in msgs:
        if msg.j >= dim:
            raise ValidationError(f"index {msg.j} out of range for dimension {dim}")
    return (
        np.array([msg.j for msg in msgs], dtype=np.intp),
        np.array([msg.sign for msg in msgs], dtype=np.intp),
    )


def _index_sign(atoms) -> IndexSign:
    j, sign = atoms
    return IndexSign(j=int(j[0]), sign=int(sign[0]))


def _atom_probabilities(plus: np.ndarray) -> dict[tuple[int, int], float]:
    dim = plus.size
    probs: dict[tuple[int, int], float] = {}
    for j in range(dim):
        probs[(j, 1)] = plus[j] / dim
        probs[(j, -1)] = (1.0 - plus[j]) / dim
    return probs


def r1_encode(x, spec: MechanismSpec, rng) -> IndexSign:
    """Encode an l1-ball vector as one signed Hadamard coordinate."""
    _check_family(spec, 1.0, "the l1 mechanism")
    return _encode_one("l1", x, spec, rng)


def r1_decode(msg: IndexSign, spec: MechanismSpec) -> np.ndarray:
    """sign * a * ratio * (Hadamard column j), truncated to the original d."""
    _check_family(spec, 1.0, "the l1 mechanism")
    return _decoded_sum("l1", [msg], spec)


def r1_atom_probabilities(x, spec: MechanismSpec) -> dict[tuple[int, int], float]:
    """Closed-form output distribution over all 2*dp atoms (j, sign)."""
    _check_family(spec, 1.0, "the l1 mechanism")
    return _atom_probabilities(_r1_plus(_require_rows(x, spec.ball, 1), spec)[0])


def rinf_encode(x, spec: MechanismSpec, rng) -> IndexSign:
    """Encode an linf-ball vector as one signed coordinate sample."""
    _check_family(spec, math.inf, "the linf mechanism")
    return _encode_one("linf", x, spec, rng)


def rinf_decode(msg: IndexSign, spec: MechanismSpec) -> np.ndarray:
    """sign * a * d * ratio * e_j (norm a*d*ratio for every message)."""
    _check_family(spec, math.inf, "the linf mechanism")
    return _decoded_sum("linf", [msg], spec)


def rinf_atom_probabilities(x, spec: MechanismSpec) -> dict[tuple[int, int], float]:
    """Closed-form output distribution over all 2d atoms (j, sign)."""
    _check_family(spec, math.inf, "the linf mechanism")
    return _atom_probabilities(_rinf_plus(_require_rows(x, spec.ball, 1), spec)[0])


# ---------------------------------------------------------------------------
# l2 family (hemisphere sphere projection + sparse signed quantizer)
# ---------------------------------------------------------------------------


def hemisphere_radius(d: int, a: float, eps0: float) -> float:
    """Sphere radius M = a * sqrt(pi) * Gamma((d+1)/2)/Gamma(d/2) * ratio.

    This is the unique radius for which the hemisphere construction below is
    unbiased: a uniform point y on the half-sphere {||y||=M, y.u > 0} has
    E[y] = M * (Gamma(d/2) / (sqrt(pi)*Gamma((d+1)/2))) * u, and the direction
    flip contributes the remaining kappa / ratio factor. The Gamma ratio is
    evaluated through log-gamma differences so large d cannot overflow.
    """
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    gr = math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))
    return a * math.sqrt(math.pi) * gr * privacy_ratio(eps0)


def _priv_rows(rows: np.ndarray, spec: MechanismSpec, gen: np.random.Generator) -> np.ndarray:
    """One point on the sphere of radius M per row (see ``priv``)."""
    n, d = rows.shape
    a = spec.ball.radius
    nrm = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    flip = np.where(gen.random(n) < 0.5 + nrm / (2.0 * a), 1.0, -1.0)
    same_side = gen.random(n) < math.exp(spec.epsilon0) / (math.exp(spec.epsilon0) + 1.0)
    y = gen.standard_normal((n, d))
    # The side of y around the kept direction flip*x. A zero row takes flip*e1
    # instead, a fair +-flip of a fixed axis: the two hemispheres then mix to
    # the uniform sphere, whose mean is 0 = x.
    side = np.where(nrm > 0.0, np.einsum("ij,ij->i", y, rows), y[:, 0]) * flip > 0.0
    radius = hemisphere_radius(d, a, spec.epsilon0)
    radius = np.where(side == same_side, radius, -radius)
    y *= (radius / np.sqrt(np.einsum("ij,ij->i", y, y)))[:, None]
    return y


def _searchsorted_rows(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf[i], u[i], side='right') for every row i, in one call.

    Every entry is keyed by the complex number (row + 1j*value). NumPy orders
    complex numbers by real part, then imaginary part, so the keys of all rows
    form one sorted array, and within a row the comparisons are exactly those
    of the values: an offset added to the values themselves would round them.
    """
    n, d = cdf.shape
    row = np.arange(n)[:, None]
    keys, queries = 1j * cdf, 1j * u
    keys += row
    queries += row
    found = np.searchsorted(keys.ravel(), queries.ravel(), side="right").reshape(u.shape)
    found -= row * d
    return found


def _quan_rows(rows: np.ndarray, radius: float, gen: np.random.Generator):
    """d signed coordinate samples per nonzero row of l2 norm <= radius (see ``quan``)."""
    n, d = rows.shape
    l1 = np.abs(rows).sum(axis=1)
    flip = np.where(gen.random(n) < 0.5 + l1 / (2.0 * radius * math.sqrt(d)), 1.0, -1.0)
    xt = rows / (l1 * flip)[:, None]
    # Inverse-CDF sampling exactly as Generator.choice(d, p=w) does it:
    # normalize w, then divide its cumulative sum by the last entry.
    cdf = np.abs(xt)
    cdf /= cdf.sum(axis=1)[:, None]
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    coords = _searchsorted_rows(cdf, gen.random((n, d)))
    signs = np.where(xt[np.arange(n)[:, None], coords] > 0.0, 1, -1)
    return coords, signs, np.zeros(n, dtype=bool)


def _draw_l2(rows: np.ndarray, spec: MechanismSpec, gen: np.random.Generator):
    radius = hemisphere_radius(spec.ball.dim, spec.ball.radius, spec.epsilon0)
    return _quan_rows(_priv_rows(rows, spec, gen), radius, gen)


def _sparse_sums(sparse, radius: float, d: int, groups, n_groups: int) -> np.ndarray:
    """Per group, the sum of (radius*sqrt(d)/m) * sum_k sign_k e_{coord_k} over
    the nonzero messages of m samples each; zero messages add nothing."""
    coords, signs, zero = sparse
    weights = np.where(zero[:, None], 0, signs).ravel()
    net = np.bincount((groups[:, None] * d + coords).ravel(), weights=weights, minlength=n_groups * d)
    return net.reshape(n_groups, d) * (radius * math.sqrt(d) / coords.shape[1])


def _r2_sums(sparse, spec: MechanismSpec, groups, n_groups: int) -> np.ndarray:
    d = spec.ball.dim
    radius = hemisphere_radius(d, spec.ball.radius, spec.epsilon0)
    return _sparse_sums(sparse, radius, d, groups, n_groups)


def _sparse_of(msgs, d: int, samples: int):
    """The (coords, signs, zero) arrays of sparse messages of `samples` pairs
    (zero messages may have any length) with coordinates below d."""
    pairs = []
    for msg in msgs:
        if msg.is_zero:
            pairs.append(((0, 1),) * samples)
            continue
        if len(msg.pairs) != samples:
            raise ValidationError(f"expected {samples} coordinate samples, got {len(msg.pairs)}")
        top = max(c for c, _ in msg.pairs)
        if top >= d:
            raise ValidationError(f"coordinate {top} out of range for dimension {d}")
        pairs.append(msg.pairs)
    arr = np.array(pairs, dtype=np.intp).reshape(len(pairs), samples, 2)
    return arr[:, :, 0], arr[:, :, 1], np.array([msg.is_zero for msg in msgs], dtype=bool)


def _sparse_signed(sparse) -> SparseSigned:
    coords, signs, _ = sparse
    return SparseSigned(pairs=tuple(zip(coords[0].tolist(), signs[0].tolist())))


def priv(x, spec: MechanismSpec, rng) -> np.ndarray:
    """Unbiased projection of an l2-ball vector onto the sphere of radius M.

    The direction is resampled to +-x/||x|| with probabilities
    1/2 +- ||x||/(2a); with probability e^{eps0}/(e^{eps0}+1) the output is
    uniform on the hemisphere around the kept direction, otherwise on the
    complementary one. Output norm is exactly M.
    """
    _check_family(spec, 2.0, "the l2 mechanism")
    return _priv_rows(_require_rows(x, spec.ball, 1), spec, np.random.default_rng(rng))[0]


def quan(x, radius: float, rng) -> SparseSigned:
    """Quantize a vector of l2 norm <= radius to d i.i.d. signed coordinates.

    The vector is flipped to +-x/||x||_1 with probabilities
    1/2 +- ||x||_1/(2*radius*sqrt(d)) (which sum to one and make the decoded
    message unbiased for x), then d coordinates are drawn i.i.d. from the
    distribution |x_tilde| and transmitted with the matching signs. A zero
    input yields the reserved zero message and draws nothing.
    """
    rows = _require_rows(x, BallSpec(2.0, radius, int(np.size(x))), 1)
    if not rows.any():
        return SparseSigned(pairs=((0, 1),) * rows.shape[1], is_zero=True)
    return _sparse_signed(_quan_rows(rows, radius, np.random.default_rng(rng)))


def quan_decode(msg: SparseSigned, radius: float, d: int) -> np.ndarray:
    """(radius*sqrt(d)/m) * sum_j sign_j e_{coord_j} for m pairs; zero message -> 0."""
    sparse = _sparse_of([msg], d, len(msg.pairs))
    return _sparse_sums(sparse, radius, d, np.zeros(1, dtype=np.intp), 1)[0]


def r2_encode(x, spec: MechanismSpec, rng) -> SparseSigned:
    """Sphere projection followed by the sparse quantizer at radius M."""
    _check_family(spec, 2.0, "the l2 mechanism")
    return _encode_one("l2", x, spec, rng)


def r2_decode(msg: SparseSigned, spec: MechanismSpec) -> np.ndarray:
    _check_family(spec, 2.0, "the l2 mechanism")
    return _decoded_sum("l2", [msg], spec)


# ---------------------------------------------------------------------------
# lp mix family
# ---------------------------------------------------------------------------


def rp_arm_specs(spec: MechanismSpec) -> tuple[MechanismSpec, MechanismSpec]:
    """The two arm specs: l1 at radius a*d^{1-1/p}, l2 at a*max{d^{1/2-1/p}, 1}.

    Norm inequalities guarantee every lp-ball input lies in both arm balls.
    """
    if spec.mix_prob is None:
        raise ValidationError("the lp mix requires mix_prob")
    p, a, d = spec.ball.p, spec.ball.radius, spec.ball.dim
    if math.isinf(p):
        raise ValidationError("the lp mix is defined for finite p only")
    l1_radius = a * d ** (1.0 - 1.0 / p)
    l2_radius = a * max(d ** (0.5 - 1.0 / p), 1.0)
    return (
        MechanismSpec(BallSpec(1.0, l1_radius, d), spec.epsilon0),
        MechanismSpec(BallSpec(2.0, l2_radius, d), spec.epsilon0),
    )


def _draw_mix(rows: np.ndarray, spec: MechanismSpec, gen: np.random.Generator):
    arm_l1, arm_l2 = rp_arm_specs(spec)
    arm = gen.random(len(rows)) < spec.mix_prob
    return arm, _draw_atoms(_r1_plus(rows[arm], arm_l1), gen), _draw_l2(rows[~arm], arm_l2, gen)


def _mix_sums(batch, spec: MechanismSpec, groups, n_groups: int) -> np.ndarray:
    arm, atoms, sparse = batch
    arm_l1, arm_l2 = rp_arm_specs(spec)
    l1_sums = _r1_sums(atoms, arm_l1, groups[arm], n_groups)
    return l1_sums + _r2_sums(sparse, arm_l2, groups[~arm], n_groups)


def _mix_of(msgs, spec: MechanismSpec):
    d = spec.ball.dim
    return (
        np.array([msg.arm == "L1" for msg in msgs], dtype=bool),
        _atoms_of([msg.inner for msg in msgs if msg.arm == "L1"], padded_dim(d)),
        _sparse_of([msg.inner for msg in msgs if msg.arm == "L2"], d, d),
    )


def _mix_tagged(batch) -> MixTagged:
    arm, atoms, sparse = batch
    if arm[0]:
        return MixTagged("L1", _index_sign(atoms))
    return MixTagged("L2", _sparse_signed(sparse))


def rp_encode(x, spec: MechanismSpec, rng) -> MixTagged:
    """Run the l1 arm with probability mix_prob, otherwise the l2 arm."""
    return _encode_one("mix", x, spec, rng)


def rp_decode(msg: MixTagged, spec: MechanismSpec) -> np.ndarray:
    return _decoded_sum("mix", [msg], spec)


# ---------------------------------------------------------------------------
# The family table, and the entry points that are views of it
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    kind: type  # the message dataclass
    # (rows, spec) -> draw(gen) -> batch of one message per row; row-only work
    # such as the Hadamard rotation is done once, before any draw
    sampler: Callable
    sums: Callable  # (batch, spec, groups, n_groups) -> (n_groups, d) decoded sums
    gather: Callable  # (messages, spec) -> batch, checked as the decoder needs
    wrap: Callable  # batch of one row -> its message


_FAMILIES = {
    "l1": _Family(
        IndexSign,
        lambda rows, spec: partial(_draw_atoms, _r1_plus(rows, spec)),
        _r1_sums,
        lambda msgs, spec: _atoms_of(msgs, padded_dim(spec.ball.dim)),
        _index_sign,
    ),
    "linf": _Family(
        IndexSign,
        lambda rows, spec: partial(_draw_atoms, _rinf_plus(rows, spec)),
        _rinf_sums,
        lambda msgs, spec: _atoms_of(msgs, spec.ball.dim),
        _index_sign,
    ),
    "l2": _Family(
        SparseSigned,
        lambda rows, spec: partial(_draw_l2, rows, spec),
        _r2_sums,
        lambda msgs, spec: _sparse_of(msgs, spec.ball.dim, spec.ball.dim),
        _sparse_signed,
    ),
    "mix": _Family(
        MixTagged, lambda rows, spec: partial(_draw_mix, rows, spec), _mix_sums, _mix_of, _mix_tagged
    ),
}


def _encode_one(family: str, x, spec: MechanismSpec, rng) -> MechanismMessage:
    fam = _FAMILIES[family]
    return fam.wrap(fam.sampler(_require_rows(x, spec.ball, 1), spec)(np.random.default_rng(rng)))


def _decoded_sum(family: str, msgs: list, spec: MechanismSpec) -> np.ndarray:
    fam = _FAMILIES[family]
    for msg in msgs:
        if not isinstance(msg, fam.kind):
            raise ValidationError(f"the {family} decoder got {type(msg).__name__}")
    return fam.sums(fam.gather(msgs, spec), spec, np.zeros(len(msgs), dtype=np.intp), 1)[0]


def encode_message(x, spec: MechanismSpec, rng) -> MechanismMessage:
    """Encode with the family the spec addresses (see mechanism_family)."""
    return _encode_one(mechanism_family(spec), x, spec, rng)


def decode_message(msg: MechanismMessage, spec: MechanismSpec) -> np.ndarray:
    """Decode any message under the spec that produced it."""
    if isinstance(msg, RawVector):
        v = np.asarray(msg.values, dtype=np.float64)
        if v.size != spec.ball.dim:
            raise ValidationError(
                f"raw message carries {v.size} values for dimension {spec.ball.dim}"
            )
        return v
    return _decoded_sum(mechanism_family(spec), [msg], spec)


def mean_estimate(messages, spec: MechanismSpec) -> np.ndarray:
    """(1/n) * sum of decoded messages — the server-side mean estimator.

    Coded messages are summed from signed counts, so the estimate depends on
    their multiset alone, bit for bit, and not on their order.
    """
    msgs = list(messages)
    if not msgs:
        raise ValidationError("mean estimation needs at least one message")
    raw = [decode_message(msg, spec) for msg in msgs if isinstance(msg, RawVector)]
    coded = [msg for msg in msgs if not isinstance(msg, RawVector)]
    total = np.sum(raw, axis=0)
    if coded:
        total = total + _decoded_sum(mechanism_family(spec), coded, spec)
    return total / len(msgs)


# Rows that sample_decoded encodes at a time: the encoders' working arrays are
# several times the size of their batch, so the batch is bounded.
_SAMPLE_BATCH = 1 << 16


def sample_decoded(x, spec: MechanismSpec, rng, n_samples: int) -> np.ndarray:
    """n_samples independent decoded messages for one input, as rows.

    The rows are drawn in consecutive batches of at most 2**16, so the working
    memory beyond the (n_samples, d) result is bounded.
    """
    v = _require_rows(x, spec.ball, 1)
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    fam, gen = _FAMILIES[mechanism_family(spec)], np.random.default_rng(rng)
    out = np.empty((n_samples, v.shape[1]))
    for lo in range(0, n_samples, _SAMPLE_BATCH):
        m = min(_SAMPLE_BATCH, n_samples - lo)
        draw = fam.sampler(np.broadcast_to(v, (m, v.shape[1])), spec)
        out[lo:lo + m] = fam.sums(draw(gen), spec, np.arange(m), m)
    return out


def mean_estimate_trials(dataset, spec: MechanismSpec, rng, trials: int) -> np.ndarray:
    """Repeated mean estimation over a fixed dataset, one estimate per row.

    Each trial encodes every dataset row once and averages the decodes; the
    rows pass the same ball check as a single encode.
    """
    rows = _require_rows(dataset, spec.ball, 2)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    fam = _FAMILIES[mechanism_family(spec)]
    draw, gen = fam.sampler(rows, spec), np.random.default_rng(rng)
    groups = np.zeros(len(rows), dtype=np.intp)
    return np.vstack([fam.sums(draw(gen), spec, groups, 1) for _ in range(trials)]) / len(rows)
