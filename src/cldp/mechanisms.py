"""Finite-alphabet locally private quantizers and the averaging decoder.

Four mechanism families, each unbiased for its input and eps0-LDP on its ball:

* l1 family (Hadamard): rotate x by the normalized Hadamard matrix, transmit a
  single (coordinate, sign) atom. Decode norm is a*sqrt(d)*ratio exactly.
* l2 family (sphere + sparse quantizer): project x onto a sphere of radius M
  by the hemisphere construction (``_priv_rows``), then quantize the sphere
  point to d i.i.d. signed coordinate samples, drawn by inverse CDF. The
  decode reads only their net signed count per coordinate, so a batch counts
  rather than lists them (``_quan_counts``): it draws its rows in blocks of
  about 2**15 entries (``linalg.row_blocks``, which splits a draw of two
  blocks or more over the caller and one worker thread) and merges each
  row's cdf and uniforms in one sort (``_search_counts``), exactly
  ``searchsorted``'s counts. A message keeps its atoms in draw order
  (``_quan_atoms``, one ``searchsorted``).
* linf family: transmit one (coordinate, sign) atom of x directly; decode is a
  scaled basis vector of norm a*d*ratio.
* lp mix: with probability mix_prob run the l1 mechanism on an inflated l1
  ball, otherwise the l2 mechanism on an inflated l2 ball; the message records
  which arm ran.

The l2 stage (the l2 family, or the mix's l2 arm) squares norms up to its
radius in float64, so ``MechanismSpec`` caps that radius at about 1.34e154,
where its square overflows.

Throughout, ``ratio`` is (e^{eps0}+1)/(e^{eps0}-1) and ``kappa`` its inverse;
flip probabilities of the form 1/2 + (scaled coordinate)*kappa/2 give exactly
an e^{eps0} likelihood ratio between any two in-ball inputs.

A message is a multiset of atoms (``_atom``: 2*coordinate + [sign > 0]): one
over the padded dimension (l1) or d (linf), d over d (l2). Messages expose
their ``atoms``; ``message_code`` gives each family's and mix arm's message
type and atom shape, and ``_message`` builds a message back from atoms that
a draw or a frame's unpack made, keeping them rather than converting its
pairs back to atoms. ``wire`` codes messages through these alone.

Each family is one record in ``_FAMILIES``: its message code; ``block``,
which binds a spec's dimensions once and returns what one stream draws for
n rows, fixing the draw order (``_index_noise``, ``_l2_noise``,
``_mix_block``), and ``noise``, that block as arrays; ``lanes``, whether
one row's block is what ``streams.PCG64Lanes`` draws (``_on_lanes``); a
pure ``draw`` from rows and noise to what the decode
reads ((n, 1) atoms for l1 and linf, (n, d) net signed counts for l2, (arm
mask, l1 atoms, l2 counts) for the mix); ``one``, one message's atoms drawn
from a stream; and a ``scale`` from net signed counts to decoded sums. An
index draw computes only the one plus-probability each row reads: l1 walks
one path of the Hadamard butterfly (``linalg.fwht_rows_at``, O(d) per row
and bit-identical to the O(d log d) rotation), linf reads the coordinate.
``one`` (``encode_message``) reads the same bits as ``noise`` for one row.
One index row's block is two Python scalars, ``integers(dim)`` then
``random()`` (on lanes, one array of each). ``_gather`` makes one array
per component of the blocks of one or many streams: one ``np.array`` over
their scalars, or one concatenation of their arrays, so a batch of one-row
streams builds no one-element arrays. A mix block gathers its own l1-arm
noise into arrays.
An index row's ``one`` takes its block from ``_index_noise`` too, and
makes the same floating-point operations in the same order as ``draw``,
with its index, uniform, plus-probability and atom as Python scalars. An
l2 row's ``one`` runs the batch stages themselves on one row: its ``_l2_noise``,
``_priv_rows``, then ``_quan_atoms`` over the row's ``_quan_cdf``, so each
l2 formula is written once. A mix message draws its arm uniform, then runs
its arm's ``one``. Every family decodes from net signed counts
(``_net_counts`` makes them from atoms, an l2 batch draws them): the shuffler
leaves only the multiset of messages and the counts depend on nothing else,
so the decoded sum is exact and order-free; counting per row gives
individual decodes. A batch of messages looks up its code once and checks
all their atoms at once. The reserved l2 zero message has no atoms and
decodes to 0; the encoder never sends it, but wire frames carry it.

``batch_encoder`` draws each stream's ``block`` for its rows, gathers the
blocks, then makes one ``draw`` and one decode over all rows; an index
family's rows may instead draw one block on lanes, one row per lane. The
other entry points, ``mean_estimate``, ``sample_decoded`` and
``mean_estimate_trials``, are its one-stream case, and ``encode_message``
its one-row case, drawn by ``one``. ``mean_estimate`` is the one decoder of
received messages: ``decode_message`` is its case of one message, and a raw
message (``RawVector``) decodes there to its values. Every input
passes the one check in ``_require_rows``, whose largest norm and in-ball
test are ``linalg``'s (past 2**17 entries the norm, like the l1 butterfly
path, is read in row blocks split over two threads, bit for bit the inline
result; see ``linalg``), every spec the one in ``mechanism_family``, which
each entry point calls first, and every seed the one in ``_require_rng`` (a
bool is no seed); identical
seedable streams reproduce identical messages. The ``*_atom_probabilities``
helpers give the closed-form output distributions of the index families, so
tests check unbiasedness, variance and the LDP ratio through
``decode_message`` without sampling.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import _LN_FLOAT_MAX
from .errors import FLOAT_COUNT, OutOfBallError, ValidationError, require_int, require_real
from .linalg import (
    BallSpec,
    EXACT_TOL,
    _as_floats,
    _in_ball,
    _largest_norm,
    fwht_rows_at,
    fwht_rows_inplace,
    row_blocks,
)
from .streams import PCG64Lanes

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
    integer and each s +1 or -1 (a bool is neither), in one pass: the constructors' check."""
    try:
        items = pairs if isinstance(pairs, tuple) else tuple(pairs)
        atoms = tuple([operator.index(2 * c + (s == 1)) for c, s in items
                       if (s == 1 or s == -1) and bool not in (type(c), type(s))])
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
    """Uncompressed, unprivatized float64 payload (baseline mode only): finite values."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, (tuple, list)) or len(self.values) < 1:
            raise ValidationError(f"raw message must carry a tuple of values, got {self.values!r:.200}")
        for v in self.values:
            require_real(v, "a raw message value", "(-inf, inf)")


MechanismMessage = Union[IndexSign, SparseSigned, MixTagged, RawVector]


@dataclass(frozen=True)
class MechanismSpec:
    """Ball geometry, local privacy parameter, and (for the mix) arm probability.

    mix_prob is the probability of the l1 arm and must be set if and only if
    the lp-mix family is intended (finite p, typically outside {1, 2}).

    The l2 stage (the l2 family, or the mix's l2 arm at radius
    a*max{d^{1/2-1/p}, 1}) squares norms up to its radius in float64, in the
    input check and the sphere projection, so that radius, with the input
    check's tolerance, must have a finite square: about 1.34e154 at most.
    """

    ball: BallSpec
    epsilon0: float
    mix_prob: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.ball, BallSpec):
            raise ValidationError(f"ball must be a BallSpec, got {self.ball!r:.200}")
        require_real(self.epsilon0, "epsilon0", "(0, inf)")
        _require_mix_prob(self.mix_prob)
        if self.mix_prob is not None:
            if math.isinf(self.ball.p):
                raise ValidationError("the mix family is defined for finite p only")
            rp_arm_specs(self)  # the l2 arm's spec checks its radius
        elif self.ball.p == 2.0:
            top = self.ball.radius * (1.0 + EXACT_TOL)
            if not math.isfinite(top * top):
                raise ValidationError(
                    f"l2 radius {self.ball.radius:.6g} is too large: its square overflows "
                    "float64 (the l2 stage's radius is capped at about 1.34e154)"
                )


def _require_mix_prob(mix_prob) -> None:
    if mix_prob is not None:
        require_real(mix_prob, "mix probability", "[0, 1]")


def mechanism_family(spec: MechanismSpec) -> str:
    """Which encoder a spec addresses: 'mix', 'l1', 'l2', or 'linf'. The one
    spec check: every entry point that takes a spec calls it first."""
    if not isinstance(spec, MechanismSpec):
        raise ValidationError(f"expected a MechanismSpec, got {spec!r:.200}")
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
    """(e^{eps0}+1)/(e^{eps0}-1); tends to 1 as eps0 -> inf (no-privacy limit).

    Above ``_LN_FLOAT_MAX`` the formula runs at that eps0, giving 1.0, the
    ratio's float64 value from eps0 of about 37 on.
    """
    eps0 = min(require_real(eps0, "epsilon0", "(0, inf]"), _LN_FLOAT_MAX)
    return (math.exp(eps0) + 1.0) / math.expm1(eps0)


def _kappa(eps0: float) -> float:
    return 1.0 / privacy_ratio(eps0)


def padded_dim(d: int) -> int:
    """Smallest power of two >= d (the Hadamard working dimension)."""
    return 1 << (require_int(d, "dimension", "[1, inf)") - 1).bit_length()


def _require_rows(x, ball: BallSpec, ndim: int) -> np.ndarray:
    """The input check of every entry point, returning an (n, d) float matrix.

    x must be one vector (ndim=1) or a row matrix (ndim=2) with ball.dim
    columns, finite, and with every row inside the ball.
    """
    rows = _as_floats(x)
    if rows.ndim != ndim or rows.size < 1:
        kind = "a 1-D vector" if ndim == 1 else "a 2-D (rows x dim) array"
        raise ValidationError(f"expected {kind} with at least one entry, got shape {rows.shape}")
    rows = rows[None] if ndim == 1 else rows
    if rows.shape[1] != ball.dim:
        raise ValidationError(
            f"input dimension {rows.shape[1]} does not match ball dimension {ball.dim}"
        )
    nrm = _largest_norm(rows, ball.p)
    if not _in_ball(nrm, ball.radius):  # NaN fails too
        if not np.isfinite(rows).all():
            raise ValidationError("input entries must be finite (no NaN/Inf)")
        raise OutOfBallError(
            f"input l{ball.p:g} norm {nrm:.6g} exceeds ball radius "
            f"{ball.radius:.6g}; clip before encoding"
        )
    return rows


def _require_rng(rng) -> np.random.Generator:
    """``np.random.default_rng(rng)``: rng is None, a nonnegative integer seed,
    a SeedSequence, a BitGenerator or a Generator; a bool is no seed."""
    try:
        if not isinstance(rng, bool):
            return np.random.default_rng(rng)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"expected None, a seed or a generator, got {rng!r:.200}")


def _check_family(spec: MechanismSpec, family: str) -> None:
    got = mechanism_family(spec)
    if got != family:
        raise ValidationError(f"the {family} mechanism needs a spec of its family, not {got}")


# ---------------------------------------------------------------------------
# Index families (l1, linf): one (index, sign) atom per row
# ---------------------------------------------------------------------------


def _r1_plus(y, spec: MechanismSpec):
    """Pr[sign=+1 | index j] from y, entry j of a row's unnormalized Hadamard
    transform: a Python float for one entry, or an array of entries."""
    dp = padded_dim(spec.ball.dim)
    y = y / math.sqrt(dp)
    # Each rotated coordinate satisfies |sqrt(dp)*y_j| <= a, so the flip
    # probabilities stay inside [ (1-kappa)/2, (1+kappa)/2 ].
    return 0.5 + (math.sqrt(dp) / (2.0 * spec.ball.radius)) * _kappa(spec.epsilon0) * y


def _rinf_plus(x, spec: MechanismSpec):
    """Pr[sign=+1 | coordinate j] from x, a row's coordinate j: a Python float
    for one coordinate, or an array of them."""
    return 0.5 + x * (_kappa(spec.epsilon0) / (2.0 * spec.ball.radius))


def _index_noise(gen, n: int, dim: int):
    """What n index-family rows draw: n indices below dim, then n sign uniforms.

    One row draws them as the scalars ``integers(dim)`` then ``random()``:
    they read the same bits as the sized calls (checked on numpy 2.4.6, and
    pinned by the tests) at under half the cost, which a stream per client
    pays. A draw reads arrays, which ``_gather`` makes of a generator's
    scalars; on ``streams.PCG64Lanes`` the same two calls already return
    one index and one uniform per lane, so a round of one-row streams draws
    its noise in two calls.
    """
    if n == 1:
        return gen.integers(dim), gen.random()
    return gen.integers(dim, size=n), gen.random(n)


def _gather(blocks: list) -> tuple:
    """One array per noise component from the noise of consecutive blocks of
    rows: the blocks' scalars (one index row each) by one ``np.array``, their
    arrays by one ``np.concatenate``; a single block of arrays is itself."""
    if np.ndim(blocks[0][0]) == 0:
        return tuple(map(np.array, zip(*blocks)))
    return blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))


def _r1_draw(rows: np.ndarray, spec: MechanismSpec, noise) -> np.ndarray:
    """The rows' (n, 1) l1 atoms: the drawn index j, + if its uniform is below
    the row's plus-probability at j, whose Hadamard entry alone is computed
    (one butterfly path, bit-identical to the rotation's entry)."""
    j, u = noise
    return _atom(j, u < _r1_plus(fwht_rows_at(rows, j), spec))[:, None]


def _rinf_draw(rows: np.ndarray, spec: MechanismSpec, noise) -> np.ndarray:
    """The rows' (n, 1) linf atoms, each row read at its drawn coordinate only."""
    j, u = noise
    return _atom(j, u < _rinf_plus(rows[np.arange(len(rows)), j], spec))[:, None]


def _r1_one(rows: np.ndarray, spec: MechanismSpec, gen: np.random.Generator) -> tuple[int]:
    """One row's l1 atom from its ``_index_noise``, drawn as ``_r1_draw`` draws
    it, in Python scalars: the same floating-point operations in the same order."""
    j, u = _index_noise(gen, 1, padded_dim(spec.ball.dim))
    return (_atom(int(j), u < _r1_plus(fwht_rows_at(rows, (j,)).item(0), spec)),)


def _rinf_one(rows: np.ndarray, spec: MechanismSpec, gen: np.random.Generator) -> tuple[int]:
    """One row's linf atom from its ``_index_noise``, drawn as ``_rinf_draw``
    draws it, in Python scalars."""
    j, u = _index_noise(gen, 1, spec.ball.dim)
    return (_atom(int(j), u < _rinf_plus(rows.item(j), spec)),)


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
    _check_family(spec, "l1")
    rows = _require_rows(x, spec.ball, 1)
    y = np.zeros((1, padded_dim(spec.ball.dim)))  # every entry: one rotation
    y[:, : spec.ball.dim] = rows
    return _atom_probabilities(_r1_plus(fwht_rows_inplace(y)[0], spec))


def rinf_atom_probabilities(x, spec: MechanismSpec) -> dict[tuple[int, int], float]:
    """Closed-form output distribution over all 2d atoms (j, sign)."""
    _check_family(spec, "linf")
    return _atom_probabilities(_rinf_plus(_require_rows(x, spec.ball, 1)[0], spec))


# ---------------------------------------------------------------------------
# l2 family (hemisphere sphere projection + sparse signed quantizer)
# ---------------------------------------------------------------------------


def hemisphere_radius(d: int, a: float, eps0: float) -> float:
    """Sphere radius M = a * sqrt(pi) * Gamma((d+1)/2)/Gamma(d/2) * ratio.

    This is the unique radius for which the hemisphere construction below is
    unbiased: a uniform point y on the half-sphere {||y||=M, y.u > 0} has
    E[y] = M * (Gamma(d/2) / (sqrt(pi)*Gamma((d+1)/2))) * u, and the direction
    flip contributes the remaining kappa / ratio factor. Up to d = 1024 the
    Gamma ratio is the exp of a log-gamma difference (relative error < 1e-12),
    whose two large terms cancel more digits as d grows; above, it is the
    Stirling series ln Gamma(x + 1/2) - ln Gamma(x) = ln(x)/2 - 1/(8x)
    + 1/(192x^3) - 1/(640x^5) at x = d/2 (relative error < 1e-15).
    """
    d = require_int(d, "dimension", FLOAT_COUNT)
    require_real(a, "radius", "(0, inf)")
    if d <= 1024:
        gr = math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))
    else:
        x = d / 2.0
        gr = math.sqrt(x) * math.exp(-1.0 / (8.0 * x) + 1.0 / (192.0 * x**3) - 1.0 / (640.0 * x**5))
    return a * math.sqrt(math.pi) * gr * privacy_ratio(eps0)


def _l2_noise(gen: np.random.Generator, n: int, d: int):
    """What n l2 rows draw. For ``_priv_rows``: n direction uniforms, n side
    uniforms, an (n, d) Gaussian; then for ``_quan_atoms``: n sign-flip
    uniforms, an (n, d) uniform matrix for the coordinates.

    Three draws, ``random(2n)``, ``standard_normal((n, d))`` and
    ``random(n + n*d)``, whose views are the five components: a sized
    ``random`` fills its values one at a time, so two consecutive calls read
    the bits one call of their total size reads.
    """
    sides = gen.random(2 * n)
    y = gen.standard_normal((n, d))
    coords = gen.random(n + n * d)
    return sides[:n], sides[n:], y, coords[:n], coords[n:].reshape(n, d)


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
    e = math.exp(min(spec.epsilon0, _LN_FLOAT_MAX))  # e/(e+1) is 1.0 from eps0 of about 37 on
    same_side = u_side < e / (e + 1.0)
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
    the row's ``_quan_cdf`` by one ``searchsorted``, with x~'s signs."""
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


def _l2_one(rows: np.ndarray, spec: MechanismSpec, gen: np.random.Generator) -> tuple[int, ...]:
    """One row's l2 atoms in draw order: its ``_l2_noise``, then ``_priv_rows``
    and ``_quan_atoms``, the stages ``_l2_draw`` runs."""
    noise = _l2_noise(gen, 1, spec.ball.dim)
    radius = hemisphere_radius(spec.ball.dim, spec.ball.radius, spec.epsilon0)
    return tuple(_quan_atoms(_priv_rows(rows, spec, noise[:3]), radius, noise[3:])[0].tolist())


def _l2_draw(rows: np.ndarray, spec: MechanismSpec, noise) -> np.ndarray:
    """The (n, d) net signed counts of the rows' messages, drawn in
    ``row_blocks`` of about ``_L2_BLOCK`` entries, each from its own rows'
    noise into its own rows' counts."""
    radius = hemisphere_radius(spec.ball.dim, spec.ball.radius, spec.epsilon0)
    n, d = rows.shape
    counts = np.empty((n, d), dtype=np.intp)

    def draw(block: slice) -> None:
        part = [a[block] for a in noise]
        _quan_counts(_priv_rows(rows[block], spec, part[:3]), radius, part[3:], counts[block])

    row_blocks(draw, n, max(1, _L2_BLOCK // d))
    return counts


def _r2_scale(net: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Per group, (M*sqrt(d)/d) * sum_k sign_k e_{coord_k} over its messages' d samples."""
    d = spec.ball.dim
    return net * (hemisphere_radius(d, spec.ball.radius, spec.epsilon0) * math.sqrt(d) / d)


# ---------------------------------------------------------------------------
# lp mix family
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def rp_arm_specs(spec: MechanismSpec) -> tuple[MechanismSpec, MechanismSpec]:
    """A spec's two arm specs, built once: l1 at radius a*d^{1-1/p}, l2 at a*max{d^{1/2-1/p}, 1}.

    Norm inequalities guarantee every lp-ball input lies in both arm balls.
    """
    if mechanism_family(spec) != "mix":
        raise ValidationError("the lp mix requires mix_prob")
    p, a, d = spec.ball.p, spec.ball.radius, spec.ball.dim
    l1_radius = a * d ** (1.0 - 1.0 / p)
    l2_radius = a * max(d ** (0.5 - 1.0 / p), 1.0)
    return (
        MechanismSpec(BallSpec(1.0, l1_radius, d), spec.epsilon0),
        MechanismSpec(BallSpec(2.0, l2_radius, d), spec.epsilon0),
    )


def _mix_block(spec: MechanismSpec) -> Callable:
    """The mix's ``block``: n arm uniforms (as the l1-arm mask), the l1 arm's
    noise, then the l2 arm's."""
    prob, d = spec.mix_prob, spec.ball.dim
    index = padded_dim(d)

    def block(gen: np.random.Generator, n: int):
        arm = gen.random(n) < prob
        n_l1 = int(np.count_nonzero(arm))
        l1 = _gather([_index_noise(gen, n_l1, index)])
        return (arm, *l1, *_l2_noise(gen, n - n_l1, d))

    return block


def _mix_draw(rows: np.ndarray, spec: MechanismSpec, noise):
    """Each arm draws its rows: (arm mask, l1 atoms, l2 net signed counts)."""
    (arm_l1, arm_l2), arm = rp_arm_specs(spec), noise[0]
    return arm, _r1_draw(rows[arm], arm_l1, noise[1:3]), _l2_draw(rows[~arm], arm_l2, noise[3:])


# ---------------------------------------------------------------------------
# The family table, and the entry points that are views of it
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    kind: type  # the message type
    shape: Callable | None  # d -> (atom dimension, atoms per message); the mix uses its arms'
    block: Callable  # spec -> (gen, n) -> what one stream draws for n rows, in order;
    # one index row as scalars
    lanes: bool  # one row's block is scalar integers() then random(), which PCG64Lanes draws
    draw: Callable  # (rows, spec, noise) -> what the decode reads
    one: Callable | None  # (row, spec, gen) -> one message's atoms, as noise then draw
    # would make them; the mix runs its arm's
    scale: Callable | None  # (net signed counts, spec) -> decoded sums; the mix uses its arms'

    def noise(self, gen: np.random.Generator, n: int, spec: MechanismSpec) -> tuple:
        """One stream's ``block`` for n rows as the arrays ``draw`` reads."""
        return _gather([self.block(spec)(gen, n)])


_FAMILIES = {
    "l1": _Family(
        IndexSign, lambda d: (padded_dim(d), 1),
        lambda spec: functools.partial(_index_noise, dim=padded_dim(spec.ball.dim)), True,
        _r1_draw, _r1_one, _r1_scale,
    ),
    "linf": _Family(
        IndexSign, lambda d: (d, 1),
        lambda spec: functools.partial(_index_noise, dim=spec.ball.dim), True,
        _rinf_draw, _rinf_one, _rinf_scale,
    ),
    "l2": _Family(
        SparseSigned, lambda d: (d, d),
        lambda spec: functools.partial(_l2_noise, d=spec.ball.dim), False,
        _l2_draw, _l2_one, _r2_scale,
    ),
    "mix": _Family(MixTagged, None, _mix_block, False, _mix_draw, None, None),
}
_ARMS = {"L1": "l1", "L2": "l2"}  # the family each mix arm runs


def _on_lanes(spec: MechanismSpec | None, s: int) -> bool:
    """Whether a round whose streams draw s rows each runs on one
    ``PCG64Lanes`` rather than a generator per stream: one row per stream
    (its point is then one ``integers(r)``), and no mechanism (the baseline)
    or a family whose one-row block the lanes draw. l2 and mix blocks draw
    normals from numpy's ziggurat and s > 1 draws with ``choice``, which
    lanes do not."""
    return s == 1 and (spec is None or _FAMILIES[mechanism_family(spec)].lanes)


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


def _check_kind(msgs: list, kind: type, family: str) -> None:
    """Raises ValidationError naming the first message that is not a ``kind``."""
    for msg in msgs:
        if not isinstance(msg, kind):
            raise ValidationError(f"{type(msg).__name__} is not a message of the {family} family")


def _code_draw(key: str, msgs: list, d: int) -> np.ndarray:
    """What ``_sums`` reads for messages of one code, whose type and atom shape
    are looked up once: their (n, atoms per message) atoms, or for l2 their
    one row of net counts, by one bincount. The l2 zero message adds nothing."""
    kind, dim, count = message_code(key, d)
    _check_kind(msgs, kind, key)
    rows = [msg.atoms for msg in msgs if msg.atoms]
    try:
        atoms = np.array(rows, dtype=np.intp).reshape(len(rows), count)
        fits = not rows or atoms.max() < 2 * dim  # atoms are nonnegative by construction
    except (ValueError, OverflowError):
        fits = False
    if not fits:
        bad = next(a for a in rows if len(a) != count or max(a) >= 2 * dim)
        raise ValidationError(f"expected {count} atoms below {2 * dim}, got {bad!r:.200}")
    return _net_counts(atoms, dim) if kind is SparseSigned else atoms


def _decoded_sum(family: str, msgs: list, spec: MechanismSpec) -> np.ndarray:
    """The sum of decoded coded messages, by one counts decode per code: the
    family's, or each mix arm's."""
    d = spec.ball.dim
    if family != "mix":
        return _sums(family, _code_draw(family, msgs, d), spec)[0]
    _check_kind(msgs, MixTagged, family)
    arms = {"L1": [], "L2": []}
    for msg in msgs:
        arms[msg.arm].append(msg.inner)
    draws = (None, _code_draw("L1", arms["L1"], d), _code_draw("L2", arms["L2"], d))
    return _sums(family, draws, spec)[0]


def encode_message(x, spec: MechanismSpec, rng) -> MechanismMessage:
    """Encode with the family the spec addresses (see mechanism_family)."""
    key = mechanism_family(spec)
    rows, gen = _require_rows(x, spec.ball, 1), _require_rng(rng)
    if key == "mix":  # the arm's uniform, as ``_mix_block`` draws it, then the arm's draw
        arm_l1, arm_l2 = rp_arm_specs(spec)
        key, spec = ("L1", arm_l1) if gen.random() < spec.mix_prob else ("L2", arm_l2)
    return _message(key, _FAMILIES[_ARMS.get(key, key)].one(rows, spec, gen))


def decode_message(msg: MechanismMessage, spec: MechanismSpec) -> np.ndarray:
    """Decode any message under the spec that produced it: the mean estimate
    of that one message."""
    return mean_estimate([msg], spec)


def mean_estimate(messages, spec: MechanismSpec) -> np.ndarray:
    """(1/n) * sum of decoded messages — the server-side mean estimator.

    Coded messages are summed from signed counts, so the estimate depends on
    their multiset alone, bit for bit, and not on their order. A raw message
    decodes to its values, which must number d.
    """
    family = mechanism_family(spec)
    try:
        msgs = list(messages)
    except TypeError:
        raise ValidationError(f"expected an iterable of messages, got {messages!r:.200}") from None
    if not msgs:
        raise ValidationError("mean estimation needs at least one message")
    raw = [msg.values for msg in msgs if isinstance(msg, RawVector)]
    coded = [msg for msg in msgs if not isinstance(msg, RawVector)]
    bad = [len(values) for values in raw if len(values) != spec.ball.dim]
    if bad:
        raise ValidationError(f"raw message carries {bad[0]} values for dimension {spec.ball.dim}")
    total = np.sum(np.array(raw, dtype=np.float64), axis=0)
    if coded:
        total = total + _decoded_sum(family, coded, spec)
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
    family = mechanism_family(spec)
    v = _require_rows(x, spec.ball, 1)
    n_samples = require_int(n_samples, "n_samples", "[1, inf)")
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
    many ran the mix's l1 arm (0 for the other families). For an index
    family, ``streams`` may also be one ``PCG64Lanes`` with a lane per row,
    which draws what a generator per row would. Each draw computes only the
    entries it reads: for l1 one butterfly path per row, O(d) rather than the
    O(d log d) rotation.
    """
    family = mechanism_family(spec)
    rows = _require_rows(x, spec.ball, 2)
    fam, n = _FAMILIES[family], len(rows)
    block = fam.block(spec)

    def encode(streams) -> tuple[np.ndarray, int]:
        if isinstance(streams, PCG64Lanes):
            if not fam.lanes or len(streams) != n:
                raise ValidationError(f"{len(streams)} lanes cannot draw {n} {family} rows")
            noise = block(streams, 1)
        else:
            try:
                streams = list(streams)
            except TypeError:
                raise ValidationError(
                    f"expected an iterable of streams, got {streams!r:.200}"
                ) from None
            if not streams or n % len(streams):
                raise ValidationError(f"cannot split {n} rows into {len(streams)} equal blocks")
            size = n // len(streams)
            noise = _gather([block(_require_rng(rng), size) for rng in streams])
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
    require_int(trials, "trials", "[1, inf)")
    gen = _require_rng(rng)
    return np.vstack([encode([gen])[0] for _ in range(trials)])
