"""Finite-alphabet locally private quantizers and the averaging decoder.

Four mechanism families, each unbiased for its input and eps0-LDP on its ball:

* l1 family (Hadamard): rotate x by the normalized Hadamard matrix, transmit a
  single (coordinate, sign) atom. Decode norm is a*sqrt(d)*ratio exactly.
* l2 family (sphere + sparse quantizer): project x onto a sphere of radius M
  by the hemisphere construction (``_priv_rows``), then quantize the sphere
  point to d i.i.d. signed coordinate samples, drawn by inverse CDF. The
  decode reads only their net signed count per coordinate, so a batch counts
  rather than lists them (``_quan_counts``): it draws its rows in blocks of
  about 2**15 entries and merges each row's cdf and uniforms in one sort
  (``_search_counts``), exactly ``searchsorted``'s counts. A message keeps
  its atoms in draw order (``_quan_atoms``, one ``searchsorted``).
* linf family: transmit one (coordinate, sign) atom of x directly; decode is a
  scaled basis vector of norm a*d*ratio.
* lp mix: with probability mix_prob run the l1 mechanism on an inflated l1
  ball, otherwise the l2 mechanism on an inflated l2 ball; the message records
  which arm ran.

Throughout, ``ratio`` is (e^{eps0}+1)/(e^{eps0}-1) and ``kappa`` its inverse;
flip probabilities of the form 1/2 + (scaled coordinate)*kappa/2 give exactly
an e^{eps0} likelihood ratio between any two in-ball inputs.

A message is a multiset of atoms (``_atom``: 2*coordinate + [sign > 0]): one
over the padded dimension (l1) or d (linf), d over d (l2). Messages expose
their ``atoms``; ``message_code`` gives each family's and mix arm's message
type and atom shape, and ``_message`` builds a message back from atoms that
a draw or a frame's unpack made, keeping them rather than converting its
pairs back to atoms. ``wire`` codes messages through these alone.

Each family is one record in ``_FAMILIES``: its message code; ``noise``,
what one stream draws for n rows, which fixes the draw order
(``_index_noise``, ``_l2_noise``, ``_mix_noise``); a pure ``draw`` from rows
and noise to what the decode reads ((n, 1) atoms for l1 and linf, (n, d) net
signed counts for l2, (arm mask, l1 atoms, l2 counts) for the mix); and a
``scale`` from net signed counts to decoded sums. An index draw computes
only the one plus-probability each row reads: l1 walks one path of the
Hadamard butterfly (``linalg.fwht_rows_at``, O(d) per row and bit-identical
to the O(d log d) rotation), linf reads the coordinate. One row
(``encode_message``, and the mix's l1 arm of one message) is drawn in Python
scalars: its index and uniform, its one plus-probability and its atom, with
the same floating-point operations in the same order as an array of rows; an
arm of the mix that no row ran draws nothing. With ``atoms=True`` a draw
gives one message's atoms in draw order instead. Every family decodes from
net signed counts (``_net_counts`` makes them from atoms, an l2
batch draws them): the shuffler leaves only the
multiset of messages and the counts depend on nothing else, so the decoded
sum is exact and order-free; counting per row gives individual decodes. The
reserved l2 zero message has no atoms and decodes to 0; the encoder never
sends it, but wire frames carry it.

``batch_encoder`` draws each stream's noise for its block of rows, then makes
one ``draw`` and one decode over all rows. The other entry points,
``encode_message``, ``decode_message``, ``mean_estimate``, ``sample_decoded``
and ``mean_estimate_trials``, are its one-stream case; every input passes the
one check in ``_require_rows`` and every seed the one in ``_require_rng``,
and identical seedable streams reproduce identical messages. The
``*_atom_probabilities`` helpers give the closed-form output distributions
of the index families, so tests check unbiasedness, variance and the LDP
ratio through ``decode_message`` without sampling.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import OutOfBallError, ValidationError
from .linalg import BallSpec, EXACT_TOL, fwht_rows_at, fwht_rows_inplace

# ---------------------------------------------------------------------------
# Messages and specs
# ---------------------------------------------------------------------------


def _atom(coord, positive):
    """The atom format, on integers or arrays: coordinate c with sign + is 2*c + 1, with - 2*c."""
    return 2 * coord + positive


def _coord_sign(atoms):
    """Inverse of ``_atom``: (coordinate, sign +-1)."""
    return atoms >> 1, 2 * (atoms & 1) - 1


def _pair_atoms(pairs) -> tuple[int, ...]:
    """The atoms 2*c + [s > 0] of (coordinate, sign) pairs, each c a nonnegative
    integer and each s +1 or -1, in one pass: the constructors' check."""
    try:
        items = pairs if isinstance(pairs, tuple) else tuple(pairs)
        atoms = tuple([operator.index(2 * c + (s == 1)) for c, s in items if s == 1 or s == -1])
    except (TypeError, ValueError, OverflowError):
        atoms, items = (), None
    if not atoms or len(atoms) != len(items) or min(atoms) < 0:
        raise ValidationError(f"expected (nonnegative integer, +-1) pairs, got {pairs!r:.200}")
    return atoms


@dataclass(frozen=True)
class IndexSign:
    """A single (coordinate index, sign) atom; the alphabet has 2d elements."""

    j: int
    sign: int
    atoms: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _pair_atoms(((self.j, self.sign),)))

    @classmethod
    def _of_atoms(cls, atoms: tuple[int, ...]) -> IndexSign:
        """The message of one checked atom, every field set here: the
        constructor's check would only convert its pair back to the atom."""
        msg, a = object.__new__(cls), atoms[0]
        object.__setattr__(msg, "j", a >> 1)
        object.__setattr__(msg, "sign", 2 * (a & 1) - 1)
        object.__setattr__(msg, "atoms", atoms)
        return msg


@dataclass(frozen=True)
class SparseSigned:
    """d signed coordinate samples (repeats allowed).

    ``is_zero`` marks the reserved zero message; it has no atoms and decodes
    to the zero vector.
    """

    pairs: tuple[tuple[int, int], ...]
    is_zero: bool = False
    atoms: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms = _pair_atoms(self.pairs)
        object.__setattr__(self, "atoms", () if self.is_zero else atoms)

    @classmethod
    def _of_atoms(cls, atoms: tuple[int, ...]) -> SparseSigned:
        """The message of checked atoms, every field set here: the
        constructor's check would only convert its pairs back to the atoms."""
        msg = object.__new__(cls)
        object.__setattr__(msg, "pairs", tuple([(a >> 1, 2 * (a & 1) - 1) for a in atoms]))
        object.__setattr__(msg, "is_zero", False)
        object.__setattr__(msg, "atoms", atoms)
        return msg


@dataclass(frozen=True)
class MixTagged:
    """An arm tag ('L1' or 'L2') plus the inner message that arm produced."""

    arm: str
    inner: Union[IndexSign, SparseSigned]

    def __post_init__(self) -> None:
        if self.arm not in ("L1", "L2") or not isinstance(self.inner, message_code(self.arm, 1)[0]):
            raise ValidationError(
                f"a mix message is an 'L1' index-sign or an 'L2' sparse message, got {self!r:.200}"
            )


@dataclass(frozen=True)
class RawVector:
    """Uncompressed, unprivatized float64 payload (baseline mode only)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, (tuple, list)) or len(self.values) < 1:
            raise ValidationError(f"raw message must carry a tuple of values, got {self.values!r:.200}")
        if not all(isinstance(v, numbers.Real) for v in self.values):
            raise ValidationError("raw message values must be real numbers")


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
        eps0 = self.epsilon0
        if not (isinstance(eps0, numbers.Real) and math.isfinite(eps0) and eps0 > 0.0):
            raise ValidationError(f"epsilon0 must be a finite positive real, got {eps0!r}")
        if self.mix_prob is not None:
            if not (isinstance(self.mix_prob, numbers.Real) and 0.0 <= self.mix_prob <= 1.0):
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


def _require_rows(x, ball: BallSpec, ndim: int) -> np.ndarray:
    """The input check of every entry point, returning an (n, d) float matrix.

    x must be one vector (ndim=1) or a row matrix (ndim=2) with ball.dim
    columns, finite, and with every row inside the ball.
    """
    try:
        rows = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"expected real numbers, got {x!r:.200}") from None
    if rows.ndim != ndim or rows.size < 1:
        kind = "a 1-D vector" if ndim == 1 else "a 2-D (rows x dim) array"
        raise ValidationError(f"expected {kind} with at least one entry, got shape {rows.shape}")
    rows = rows.reshape(-1, rows.shape[-1])
    if rows.shape[1] != ball.dim:
        raise ValidationError(
            f"input dimension {rows.shape[1]} does not match ball dimension {ball.dim}"
        )
    nrm = _largest_norm(rows, ball.p)
    if not nrm <= ball.radius * (1.0 + EXACT_TOL):  # NaN fails too
        if not np.isfinite(rows).all():
            raise ValidationError("input entries must be finite (no NaN/Inf)")
        raise OutOfBallError(
            f"input l{ball.p:g} norm {nrm:.6g} exceeds ball radius "
            f"{ball.radius:.6g}; clip before encoding"
        )
    return rows


def _largest_norm(rows: np.ndarray, p: float) -> float:
    """max_i (sum_j |x_ij|**p) ** (1/p) over the rows (max_ij |x_ij| at p = inf),
    bit for bit, NaN if an entry is. At p = 1, 2 and inf it makes fewer passes:
    x*x is |x|**2, and max |x| is max(max x, -min x), so no abs copy is made."""
    if math.isinf(p):
        return abs(float(np.maximum(rows.max(), -rows.min())))  # abs: +0.0 for zeros
    if p == 1.0:
        return float(np.abs(rows).sum(axis=1).max())
    if p == 2.0:
        return float(((rows * rows).sum(axis=1) ** 0.5).max())
    return float(((np.abs(rows) ** p).sum(axis=1) ** (1.0 / p)).max())


def _require_count(value, name: str) -> int:
    """A positive integer count, such as a number of samples or trials."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def _require_rng(rng) -> np.random.Generator:
    """``np.random.default_rng(rng)``: rng is None, a nonnegative integer seed,
    a SeedSequence, a BitGenerator or a Generator."""
    try:
        return np.random.default_rng(rng)
    except (TypeError, ValueError):
        raise ValidationError(f"expected None, a seed or a generator, got {rng!r:.200}") from None


def _check_family(spec: MechanismSpec, p_required: float, name: str) -> None:
    if spec.ball.p != p_required:
        raise ValidationError(f"{name} requires a ball with p={p_required:g}, got p={spec.ball.p:g}")


# ---------------------------------------------------------------------------
# Index families (l1, linf): one (index, sign) atom per row
# ---------------------------------------------------------------------------


def _r1_plus(rows: np.ndarray, spec: MechanismSpec, j=None):
    """Pr[sign=+1 | index] of each row: at index j[i] of row i only (one
    butterfly path, bit-identical to the rotation's entry), which is what a
    draw reads; for an int j, the one row's entry as a Python float. With
    j=None, at every index below the padded dimension (one rotation), which
    the ``r1_atom_probabilities`` reference oracle reads."""
    n, d = rows.shape
    dp = padded_dim(d)
    if j is None:
        y = np.zeros((n, dp))
        y[:, :d] = rows
        fwht_rows_inplace(y)
    elif isinstance(j, int):
        y = float(fwht_rows_at(rows, (j,))[0])
    else:
        y = fwht_rows_at(rows, j)
    y = y / math.sqrt(dp)
    # Each rotated coordinate satisfies |sqrt(dp)*y_j| <= a, so the flip
    # probabilities stay inside [ (1-kappa)/2, (1+kappa)/2 ].
    return 0.5 + (math.sqrt(dp) / (2.0 * spec.ball.radius)) * _kappa(spec.epsilon0) * y


def _rinf_plus(rows: np.ndarray, spec: MechanismSpec, j=None):
    """Pr[sign=+1 | index] of each row: at coordinate j[i] of row i only, which
    is what a draw reads; for an int j, the one row's as a Python float. With
    j=None, at every coordinate, which ``rinf_atom_probabilities`` reads."""
    if j is None:
        x = rows
    elif isinstance(j, int):
        x = float(rows[0, j])
    else:
        x = rows[np.arange(len(j)), j]
    return 0.5 + x * (_kappa(spec.epsilon0) / (2.0 * spec.ball.radius))


def _index_noise(gen: np.random.Generator, n: int, dim: int):
    """What n index-family rows draw: n indices below dim, then n sign uniforms.

    One row draws them as scalars, ``integers(dim)`` then ``random()``: they
    read the same bits as the sized calls (checked on numpy 2.4.6, and pinned
    by the tests) at under half the cost, which a stream per client pays.
    """
    if n == 1:
        return np.array([gen.integers(dim)]), np.array([gen.random()])
    return gen.integers(dim, size=n), gen.random(n)


def _index_draw(plus: Callable, rows, spec: MechanismSpec, noise) -> np.ndarray:
    """One atom for each row: the drawn index j, + if its uniform is below the
    row's plus-probability at j, which ``plus`` computes for that one entry.
    One row is drawn in Python scalars, with the same floating-point
    operations in the same order."""
    j, u = noise
    if len(j) == 1:
        k = int(j[0])
        return np.array([[_atom(k, float(u[0]) < plus(rows, spec, k))]])
    return _atom(j, u < plus(rows, spec, j))[:, None]


def _r1_scale(net: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Per group, the sum of sign * a * ratio * (Hadamard column j)[:d]."""
    net = fwht_rows_inplace(net)
    return (spec.ball.radius * privacy_ratio(spec.epsilon0)) * net[:, : spec.ball.dim]


def _rinf_scale(net: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Per group, the sum of sign * a * d * ratio * e_j."""
    return (spec.ball.radius * spec.ball.dim * privacy_ratio(spec.epsilon0)) * net


def _atom_probabilities(plus: np.ndarray) -> dict[tuple[int, int], float]:
    dim = plus.size
    return {(j, sign): (plus[j] if sign > 0 else 1.0 - plus[j]) / dim
            for j in range(dim) for sign in (1, -1)}


def r1_atom_probabilities(x, spec: MechanismSpec) -> dict[tuple[int, int], float]:
    """Closed-form output distribution over all 2*dp atoms (j, sign)."""
    _check_family(spec, 1.0, "the l1 mechanism")
    return _atom_probabilities(_r1_plus(_require_rows(x, spec.ball, 1), spec)[0])


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


def _l2_noise(gen: np.random.Generator, n: int, d: int):
    """What n l2 rows draw. For ``_priv_rows``: n direction uniforms, n side
    uniforms, an (n, d) Gaussian; then for ``_quan_atoms``: n sign-flip
    uniforms, an (n, d) uniform matrix for the coordinates."""
    return (gen.random(n), gen.random(n), gen.standard_normal((n, d)),
            gen.random(n), gen.random((n, d)))


def _priv_rows(rows: np.ndarray, spec: MechanismSpec, noise) -> np.ndarray:
    """Unbiased projection of each l2-ball row onto the sphere of radius M.

    The direction is resampled to +-x/||x|| with probabilities
    1/2 +- ||x||/(2a); with probability e^{eps0}/(e^{eps0}+1) the output is
    uniform on the hemisphere around the kept direction, otherwise on the
    complementary one. Output norm is exactly M.
    """
    u_dir, u_side, y = noise
    a = spec.ball.radius
    nrm = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    flip = np.where(u_dir < 0.5 + nrm / (2.0 * a), 1.0, -1.0)
    same_side = u_side < math.exp(spec.epsilon0) / (math.exp(spec.epsilon0) + 1.0)
    # The side of y around the kept direction flip*x. A zero row takes flip*e1
    # instead, a fair +-flip of a fixed axis: the two hemispheres then mix to
    # the uniform sphere, whose mean is 0 = x.
    side = np.where(nrm > 0.0, np.einsum("ij,ij->i", y, rows), y[:, 0]) * flip > 0.0
    radius = hemisphere_radius(rows.shape[1], a, spec.epsilon0)
    radius = np.where(side == same_side, radius, -radius)
    return y * (radius / np.sqrt(np.einsum("ij,ij->i", y, y)))[:, None]


def _search_counts(cdf: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes to ``out``, a C-contiguous (n, d) intp array, and returns the
    counts of the queries u[i] that searchsorted(cdf[i], ., side='right')
    sends to each entry, for (n, d) rows cdf[i] sorted and ending above every
    query (1.0 against uniforms below 1).

    One sort merges each row's cdf and queries. Both are nonnegative floats,
    whose bit patterns order as the values do; each pattern, shifted left by
    one, is tagged 0 for a cdf entry and 1 for a query, so an entry sorts
    before a query equal to it, as side='right' counts it. Entry c then sits
    at position c plus the queries below it, and its count is the gap to
    entry c - 1 less one; the last entry of each row sorts last, so one flat
    difference gives every row's counts.
    """
    n, d = cdf.shape
    keys = np.empty((n, 2 * d), dtype=np.int64)
    np.left_shift(cdf.view(np.int64), 1, out=keys[:, :d])
    np.left_shift(u.view(np.int64), 1, out=keys[:, d:])
    keys[:, d:] |= 1
    keys.sort(axis=1)
    keys &= 1
    pos = np.flatnonzero(np.logical_not(keys))
    flat = out.reshape(-1)  # a view, as out is C-contiguous
    np.subtract(pos[1:], pos[:-1], out=flat[1:])
    flat[0] = pos[0] + 1
    flat -= 1
    return out


def _quan_cdf(rows: np.ndarray, radius: float, u_flip: np.ndarray):
    """The sign flip of each row (+-1.0) and the cdf of its coordinates, |x~|.

    Each row is flipped to x~ = +-x/||x||_1 with probabilities
    1/2 +- ||x||_1/(2*radius*sqrt(d)), which sum to one and make the decoded
    message unbiased for x. The cdf is built exactly as Generator.choice(d,
    p=w) builds it: normalize w, then divide its cumulative sum by the last
    entry.
    """
    cdf = np.abs(rows)
    l1 = cdf.sum(axis=1)
    flip = np.where(u_flip < 0.5 + l1 / (2.0 * radius * math.sqrt(rows.shape[1])), 1.0, -1.0)
    cdf /= l1[:, None]  # |x~|, bit for bit: |x / (+-l1)| = |x| / l1
    cdf /= cdf.sum(axis=1)[:, None]
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    return flip, cdf


def _quan_atoms(rows: np.ndarray, radius: float, noise) -> np.ndarray:
    """The (1, d) atoms of d i.i.d. signed coordinate samples of one nonzero
    row of l2 norm <= radius, in draw order: d coordinates drawn i.i.d. from
    |x~| (see ``_quan_cdf``) by one ``searchsorted``, with x~'s signs."""
    u_flip, u = noise
    flip, cdf = _quan_cdf(rows, radius, u_flip)
    coords = np.searchsorted(cdf[0], u[0], side="right")
    return _atom(coords, rows[0, coords] * flip[0] > 0.0)[None]


def _quan_counts(rows: np.ndarray, radius: float, noise, out: np.ndarray) -> np.ndarray:
    """Writes to ``out`` (as ``_search_counts``) and returns the net signed
    counts of ``_quan_atoms``' atoms, per row and coordinate."""
    u_flip, u = noise
    flip, cdf = _quan_cdf(rows, radius, u_flip)
    out = _search_counts(cdf, u, out)
    # Negate where x~ is negative, as c ^ m - m with m = -1 there and 0
    # elsewhere: the sign bit, shifted down. A zero coordinate is never drawn.
    m = (rows * flip[:, None]).view(np.int64) >> 63
    out ^= m
    out -= m
    return out


# Entries an l2 batch draw quantizes at a time, about 2**15: a block's working
# arrays then stay in a core's cache.
_L2_BLOCK = 1 << 15


def _l2_draw(rows: np.ndarray, spec: MechanismSpec, noise, atoms: bool = False) -> np.ndarray:
    """The (n, d) net signed counts of the rows' messages, drawn in blocks of
    rows; with atoms=True (one row) its message's atoms in draw order instead."""
    radius = hemisphere_radius(spec.ball.dim, spec.ball.radius, spec.epsilon0)
    if atoms:
        return _quan_atoms(_priv_rows(rows, spec, noise[:3]), radius, noise[3:])
    n, d = rows.shape
    counts = np.empty((n, d), dtype=np.intp)
    step = max(1, _L2_BLOCK // d)
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        part = [a[block] for a in noise]
        _quan_counts(_priv_rows(rows[block], spec, part[:3]), radius, part[3:], counts[block])
    return counts


def _r2_scale(net: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Per group, (M*sqrt(d)/d) * sum_k sign_k e_{coord_k} over its messages' d samples."""
    d = spec.ball.dim
    return net * (hemisphere_radius(d, spec.ball.radius, spec.epsilon0) * math.sqrt(d) / d)


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


def _mix_noise(gen: np.random.Generator, n: int, spec: MechanismSpec):
    """n arm uniforms (as the l1-arm mask), the l1 arm's noise, then the l2 arm's."""
    arm = gen.random(n) < spec.mix_prob
    n_l1, d = int(np.count_nonzero(arm)), spec.ball.dim
    return (arm, *_index_noise(gen, n_l1, padded_dim(d)), *_l2_noise(gen, n - n_l1, d))


def _mix_draw(rows: np.ndarray, spec: MechanismSpec, noise, atoms: bool = False):
    """Each arm draws its rows; an arm that no row ran, such as one of a
    single row's, draws nothing."""
    (arm_l1, arm_l2), arm = rp_arm_specs(spec), noise[0]
    l1_rows, l2_rows = rows[arm], rows[~arm]
    l1_atoms, l2_draws = np.empty((0, 1), np.int64), np.empty((0, rows.shape[1]), np.int64)
    if len(l1_rows):
        l1_atoms = _index_draw(_r1_plus, l1_rows, arm_l1, noise[1:3])
    if len(l2_rows):
        l2_draws = _l2_draw(l2_rows, arm_l2, noise[3:], atoms)
    return arm, l1_atoms, l2_draws


# ---------------------------------------------------------------------------
# The family table, and the entry points that are views of it
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    kind: type  # the message type
    shape: Callable | None  # d -> (atom dimension, atoms per message); the mix uses its arms'
    noise: Callable  # (gen, n, spec) -> what one stream draws for n rows, in order
    draw: Callable  # (rows, spec, noise, atoms=False) -> what the decode reads
    # (an index draw is its atoms either way)
    scale: Callable | None  # (net signed counts, spec) -> decoded sums; the mix uses its arms'


_FAMILIES = {
    "l1": _Family(
        IndexSign, lambda d: (padded_dim(d), 1),
        lambda gen, n, spec: _index_noise(gen, n, padded_dim(spec.ball.dim)),
        lambda *args, atoms=False: _index_draw(_r1_plus, *args), _r1_scale,
    ),
    "linf": _Family(
        IndexSign, lambda d: (d, 1),
        lambda gen, n, spec: _index_noise(gen, n, spec.ball.dim),
        lambda *args, atoms=False: _index_draw(_rinf_plus, *args), _rinf_scale,
    ),
    "l2": _Family(
        SparseSigned, lambda d: (d, d),
        lambda gen, n, spec: _l2_noise(gen, n, spec.ball.dim), _l2_draw, _r2_scale,
    ),
    "mix": _Family(MixTagged, None, _mix_noise, _mix_draw, None),
}
_ARMS = {"L1": "l1", "L2": "l2"}  # the family each mix arm runs


@functools.lru_cache(maxsize=1024)
def message_code(key: str, d: int) -> tuple[type, int, int]:
    """(message type, atom dimension, atoms per message) of a family or a mix
    arm ('L1', 'L2') at input dimension d; its atoms lie below 2 * atom dimension."""
    fam = _FAMILIES.get(_ARMS.get(key, key))
    if fam is None or fam.shape is None:
        raise ValidationError(f"no message code {key!r}; expected l1, linf, l2, L1 or L2")
    return (fam.kind, *fam.shape(d))


def _message(key: str, atoms: tuple[int, ...]) -> MechanismMessage:
    """The message of a family or mix arm with these atoms, nonnegative ints
    that a draw or a frame's unpack made; it keeps the atoms."""
    inner = message_code(key, 1)[0]._of_atoms(atoms)
    return MixTagged(key, inner) if key in _ARMS else inner


def message_atoms(msg: MechanismMessage, spec: MechanismSpec, family: str | None = None):
    """(code key: the family, by default the spec's, or under the mix the arm; atoms)
    of a coded message. Raises ValidationError if msg is not of the family or its atoms do not fit."""
    family = family or mechanism_family(spec)
    key, inner = (msg.arm, msg.inner) if isinstance(msg, MixTagged) else (family, msg)
    kind, dim, count = message_code(key, spec.ball.dim)
    if (family == "mix") != isinstance(msg, MixTagged) or not isinstance(inner, kind):
        raise ValidationError(f"{type(msg).__name__} is not a message of the {family} family")
    atoms = inner.atoms
    if atoms and (len(atoms) != count or max(atoms) >= 2 * dim):
        raise ValidationError(f"expected {count} atoms below {2 * dim}, got {atoms!r:.200}")
    return key, atoms


def _net_counts(atoms: np.ndarray, dim: int, per_row: bool = False) -> np.ndarray:
    """The counts decoder: the net signed count of every coordinate over the
    (n, c) atoms of n messages, (1, dim), or of each message, (n, dim)."""
    coords, signs = _coord_sign(atoms)
    n = len(atoms) if per_row else 1
    if per_row:
        coords = coords + np.arange(0, n * dim, dim)[:, None]
    return np.bincount(coords.ravel(), weights=signs.ravel(), minlength=n * dim).reshape(n, dim)


def _sums(family: str, draws, spec: MechanismSpec, per_row: bool = False) -> np.ndarray:
    """The decoded messages of a draw, summed, (1, d), or one per row, (n, d).
    An index draw is atoms and decodes through ``_net_counts``; an l2 draw is
    already net signed counts."""
    if family == "mix":
        arm, l1_atoms, l2_counts = draws
        arm_l1, arm_l2 = rp_arm_specs(spec)
        l1_sums = _sums("l1", l1_atoms, arm_l1, per_row)
        l2_sums = _sums("l2", l2_counts, arm_l2, per_row)
        if not per_row:
            return l1_sums + l2_sums
        out = np.empty((len(arm), spec.ball.dim))
        out[arm], out[~arm] = l1_sums, l2_sums
        return out
    fam = _FAMILIES[family]
    if family == "l2":
        net = draws if per_row else draws.sum(axis=0, keepdims=True)
    else:
        net = _net_counts(draws, fam.shape(spec.ball.dim)[0], per_row)
    return fam.scale(net, spec)


def _decoded_sum(family: str, msgs: list, spec: MechanismSpec) -> np.ndarray:
    """The sum of decoded coded messages, from their atoms by one counts decode;
    the l2 messages' atoms become one row of net counts, by one bincount."""
    coded = [message_atoms(msg, spec, family) for msg in msgs]

    def batch(key):
        rows = [atoms for k, atoms in coded if k == key and atoms]
        _, dim, count = message_code(key, spec.ball.dim)
        atoms = np.array(rows, dtype=np.intp).reshape(len(rows), count)
        return _net_counts(atoms, dim) if _ARMS.get(key, key) == "l2" else atoms

    if family != "mix":
        return _sums(family, batch(family), spec)[0]
    return _sums(family, (None, batch("L1"), batch("L2")), spec)[0]


def encode_message(x, spec: MechanismSpec, rng) -> MechanismMessage:
    """Encode with the family the spec addresses (see mechanism_family)."""
    family = key = mechanism_family(spec)
    fam = _FAMILIES[family]
    rows, gen = _require_rows(x, spec.ball, 1), _require_rng(rng)
    atoms = fam.draw(rows, spec, fam.noise(gen, 1, spec), atoms=True)
    if family == "mix":  # the one row ran one arm
        arm, l1_atoms, l2_atoms = atoms
        key, atoms = ("L1", l1_atoms) if arm[0] else ("L2", l2_atoms)
    return _message(key, tuple(atoms[0].tolist()))


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
    try:
        msgs = list(messages)
    except TypeError:
        raise ValidationError(f"expected an iterable of messages, got {messages!r:.200}") from None
    if not msgs:
        raise ValidationError("mean estimation needs at least one message")
    raw = [decode_message(msg, spec) for msg in msgs if isinstance(msg, RawVector)]
    coded = [msg for msg in msgs if not isinstance(msg, RawVector)]
    total = np.sum(raw, axis=0)
    if coded:
        total = total + _decoded_sum(mechanism_family(spec), coded, spec)
    return total / len(msgs)


# Rows that sample_decoded encodes at a time: a batch's noise, atoms and
# counts are a few times its size (an l2 draw's own working arrays are per
# block of ``_L2_BLOCK`` entries), so the batch is bounded.
_SAMPLE_BATCH = 1 << 16


def sample_decoded(x, spec: MechanismSpec, rng, n_samples: int) -> np.ndarray:
    """n_samples independent decoded messages for one input, as rows.

    The rows are drawn in consecutive batches of at most 2**16, so the working
    memory beyond the (n_samples, d) result is bounded.
    """
    v = _require_rows(x, spec.ball, 1)
    n_samples = _require_count(n_samples, "n_samples")
    family = mechanism_family(spec)
    fam, gen = _FAMILIES[family], _require_rng(rng)
    out = np.empty((n_samples, v.shape[1]))
    for lo in range(0, n_samples, _SAMPLE_BATCH):
        m = min(_SAMPLE_BATCH, n_samples - lo)
        draws = fam.draw(np.broadcast_to(v, (m, v.shape[1])), spec, fam.noise(gen, m, spec))
        out[lo:lo + m] = _sums(family, draws, spec, per_row=True)
    return out


def batch_encoder(x, spec: MechanismSpec) -> Callable:
    """The spec's encoder on a row matrix, decoded from signed counts.

    The rows pass the one input check, here. ``encode(streams)`` takes an
    iterable of streams, draws the noise of len(streams) equal consecutive
    blocks of rows, block i from streams[i], then makes one draw and one
    decode over all rows; it returns the mean of the decoded messages and how
    many ran the mix's l1 arm (0 for the other families). Each draw computes
    only the entries it reads: for l1 one butterfly path per row, O(d) rather
    than the O(d log d) rotation.
    """
    rows = _require_rows(x, spec.ball, 2)
    family = mechanism_family(spec)
    fam, n = _FAMILIES[family], len(rows)

    def encode(streams) -> tuple[np.ndarray, int]:
        try:
            streams = list(streams)
        except TypeError:
            raise ValidationError(f"expected an iterable of streams, got {streams!r:.200}") from None
        if not streams or n % len(streams):
            raise ValidationError(f"cannot split {n} rows into {len(streams)} equal blocks")
        size = n // len(streams)
        blocks = [fam.noise(_require_rng(rng), size, spec) for rng in streams]
        noise = blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))
        draws = fam.draw(rows, spec, noise)
        l1_arm = int(np.count_nonzero(draws[0])) if family == "mix" else 0
        return _sums(family, draws, spec)[0] / n, l1_arm

    return encode


def mean_estimate_trials(dataset, spec: MechanismSpec, rng, trials: int) -> np.ndarray:
    """Repeated mean estimation over a fixed dataset, one estimate per row.

    Each trial encodes every dataset row once, on one stream, and averages the
    decodes: the one-stream case of ``batch_encoder``.
    """
    encode = batch_encoder(dataset, spec)
    trials, gen = _require_count(trials, "trials"), _require_rng(rng)
    return np.vstack([encode([gen])[0] for _ in range(trials)])
