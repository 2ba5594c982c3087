"""Finite-alphabet locally private quantizers and the averaging decoder.

Four mechanism families, each unbiased for its input and eps0-LDP on its ball:

* l1 family (Hadamard): rotate x by the normalized Hadamard matrix, transmit a
  single (coordinate, sign) atom. Decode norm is a*sqrt(d)*ratio exactly.
* l2 family (sphere + sparse quantizer): project x onto a sphere of radius M
  by the hemisphere construction (``_priv_rows``), then quantize the sphere
  point to d i.i.d. signed coordinate samples (``_quan_atoms``).
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
type and atom shape; ``message_from_atoms`` builds a message back. ``wire``
codes messages through these alone.

Each family is one record in ``_FAMILIES``: its message code; ``table``, the
work that repeated draws of the same rows share (the l1 rotation, for l1 and
the mix's l1 arm); ``noise``, what one stream draws for n rows, which fixes
the draw order (``_index_noise``, ``_l2_noise``, ``_mix_noise``); a pure
``draw`` from rows, their table if made, and noise to atoms ((n, 1) for l1
and linf, (n, d) for l2, (arm mask, l1 atoms, l2 atoms) for the mix); and a
``scale`` from net signed counts to decoded sums. An index draw reads one
plus-probability per row. Rows drawn once compute only that entry: l1 walks
one path of the Hadamard butterfly (``linalg.fwht_rows_at``, O(d) per row
and bit-identical to the O(d log d) rotation), linf reads the coordinate.
Rows drawn repeatedly (``sample_decoded``'s one row; ``mean_estimate_trials``
with more than one trial) make the table once and read it. One counts
decoder, ``_net_counts``, serves every family: the shuffler leaves only the
multiset of messages and the counts depend on nothing else, so the decoded
sum is exact and order-free; counting per row gives individual decodes. The
reserved l2 zero message has no atoms and decodes to 0; the encoder never
sends it, but wire frames carry it.

``batch_encoder`` draws each stream's noise for its block of rows, then makes
one ``draw`` and one decode over all rows. The other entry points,
``encode_message``, ``decode_message``, ``mean_estimate``, ``sample_decoded``
and ``mean_estimate_trials``, are its one-stream case; every input passes the
one check in ``_require_rows`` and every seed the one in ``_require_rng``,
and identical seedable streams reproduce identical messages. ``r1_decode``
and ``rinf_decode`` decode one index-family message, and the
``*_atom_probabilities`` helpers give the closed-form output
distributions of the index families, so tests check unbiasedness, variance
and the LDP ratio without sampling.
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
    integer and each s +1 or -1: the one check on a message's atoms."""
    try:
        items = pairs if isinstance(pairs, tuple) else tuple(pairs)
        atoms = tuple([operator.index(_atom(c, s == 1)) for c, s in items if s == 1 or s == -1])
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


def _r1_plus(rows: np.ndarray, spec: MechanismSpec, j=None) -> np.ndarray:
    """Pr[sign=+1 | index] of each row: at every index below the padded
    dimension (one rotation), or at index j[i] of row i only (one butterfly
    path, bit-identical to the rotation's entry)."""
    n, d = rows.shape
    dp = padded_dim(d)
    if j is None:
        y = np.zeros((n, dp))
        y[:, :d] = rows
        fwht_rows_inplace(y)
    else:
        y = fwht_rows_at(rows, j)
    y = y / math.sqrt(dp)
    # Each rotated coordinate satisfies |sqrt(dp)*y_j| <= a, so the flip
    # probabilities stay inside [ (1-kappa)/2, (1+kappa)/2 ].
    return 0.5 + (math.sqrt(dp) / (2.0 * spec.ball.radius)) * _kappa(spec.epsilon0) * y


def _rinf_plus(rows: np.ndarray, spec: MechanismSpec, j=None) -> np.ndarray:
    """Pr[sign=+1 | index] of each row: at every coordinate, or at coordinate j[i] of row i only."""
    x = rows if j is None else rows[np.arange(len(j)), j]
    return 0.5 + x * (_kappa(spec.epsilon0) / (2.0 * spec.ball.radius))


def _index_noise(gen: np.random.Generator, n: int, dim: int):
    """What n index-family rows draw: n indices below dim, then n sign uniforms."""
    return gen.integers(dim, size=n), gen.random(n)


def _index_draw(plus: Callable, rows, table, spec: MechanismSpec, noise, which=None) -> np.ndarray:
    """One atom for each row (of rows[which], if given): the drawn index j, + if
    its uniform is below the row's plus-probability at j. That is read from
    ``table``, every plus-probability of the rows, where they are drawn
    repeatedly; else ``plus`` computes it for the one entry."""
    j, u = noise
    if table is None:
        p = plus(rows if which is None else rows[which], spec, j)
    else:
        p = table[np.arange(len(j)) if which is None else which, j]
    return _atom(j, u < p)[:, None]


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


def r1_decode(msg: IndexSign, spec: MechanismSpec) -> np.ndarray:
    """sign * a * ratio * (Hadamard column j), truncated to the original d."""
    _check_family(spec, 1.0, "the l1 mechanism")
    return _decoded_sum("l1", [msg], spec)


def r1_atom_probabilities(x, spec: MechanismSpec) -> dict[tuple[int, int], float]:
    """Closed-form output distribution over all 2*dp atoms (j, sign)."""
    _check_family(spec, 1.0, "the l1 mechanism")
    return _atom_probabilities(_r1_plus(_require_rows(x, spec.ball, 1), spec)[0])


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


def _quan_atoms(rows: np.ndarray, radius: float, noise) -> np.ndarray:
    """The atoms of d i.i.d. signed coordinate samples per nonzero row of l2 norm <= radius.

    Each row is flipped to +-x/||x||_1 with probabilities
    1/2 +- ||x||_1/(2*radius*sqrt(d)) (which sum to one and make the decoded
    message unbiased for x), then d coordinates are drawn i.i.d. from the
    distribution |x_tilde| and transmitted with the matching signs.
    """
    u_flip, u = noise
    n, d = rows.shape
    l1 = np.abs(rows).sum(axis=1)
    flip = np.where(u_flip < 0.5 + l1 / (2.0 * radius * math.sqrt(d)), 1.0, -1.0)
    xt = rows / (l1 * flip)[:, None]
    # Inverse-CDF sampling exactly as Generator.choice(d, p=w) does it:
    # normalize w, then divide its cumulative sum by the last entry.
    cdf = np.abs(xt)
    cdf /= cdf.sum(axis=1)[:, None]
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    coords = _searchsorted_rows(cdf, u)
    return _atom(coords, xt[np.arange(n)[:, None], coords] > 0.0)


def _l2_draw(rows: np.ndarray, spec: MechanismSpec, noise) -> np.ndarray:
    radius = hemisphere_radius(spec.ball.dim, spec.ball.radius, spec.epsilon0)
    return _quan_atoms(_priv_rows(rows, spec, noise[:3]), radius, noise[3:])


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


def _mix_draw(rows: np.ndarray, table, spec: MechanismSpec, noise):
    (arm_l1, arm_l2), arm = rp_arm_specs(spec), noise[0]
    l1_atoms = _index_draw(_r1_plus, rows, table, arm_l1, noise[1:3], np.flatnonzero(arm))
    return arm, l1_atoms, _l2_draw(rows[~arm], arm_l2, noise[3:])


# ---------------------------------------------------------------------------
# The family table, and the entry points that are views of it
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    kind: type  # the message type
    shape: Callable | None  # d -> (atom dimension, atoms per message); the mix uses its arms'
    table: Callable | None  # (rows, spec) -> what repeated draws of the rows share (l1 rotation)
    noise: Callable  # (gen, n, spec) -> what one stream draws for n rows, in order
    draw: Callable  # (rows, table or None, spec, noise) -> the atoms of every row
    scale: Callable | None  # (net signed counts, spec) -> decoded sums; the mix uses its arms'


_FAMILIES = {
    "l1": _Family(
        IndexSign, lambda d: (padded_dim(d), 1), _r1_plus,
        lambda gen, n, spec: _index_noise(gen, n, padded_dim(spec.ball.dim)),
        functools.partial(_index_draw, _r1_plus), _r1_scale,
    ),
    "linf": _Family(
        IndexSign, lambda d: (d, 1), None,
        lambda gen, n, spec: _index_noise(gen, n, spec.ball.dim),
        functools.partial(_index_draw, _rinf_plus), _rinf_scale,
    ),
    "l2": _Family(
        SparseSigned, lambda d: (d, d), None,
        lambda gen, n, spec: _l2_noise(gen, n, spec.ball.dim),
        lambda rows, table, spec, noise: _l2_draw(rows, spec, noise), _r2_scale,
    ),
    "mix": _Family(
        MixTagged, None, lambda rows, spec: _r1_plus(rows, rp_arm_specs(spec)[0]),
        _mix_noise, _mix_draw, None,
    ),
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


def message_from_atoms(key: str, atoms) -> MechanismMessage:
    """The message of a family or mix arm whose atoms these are (see ``message_code``)."""
    kind = message_code(key, 1)[0]
    try:
        pairs = tuple([_coord_sign(a) for a in atoms])
    except TypeError:
        raise ValidationError(f"atoms must be integers, got {atoms!r:.200}") from None
    if kind is IndexSign and len(pairs) != 1:
        raise ValidationError(f"an index-sign message has one atom, got {len(pairs)}")
    inner = IndexSign(*pairs[0]) if kind is IndexSign else SparseSigned(pairs=pairs)
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


def _net_counts(atoms: np.ndarray, groups: np.ndarray, n_groups: int, dim: int) -> np.ndarray:
    """The counts decoder: the net signed count of every coordinate within each
    group, (n_groups, dim), from (n, c) atoms of n messages and their groups."""
    coords, signs = _coord_sign(atoms)
    keys = (groups[:, None] * dim + coords).ravel()
    net = np.bincount(keys, weights=signs.ravel(), minlength=n_groups * dim)
    return net.reshape(n_groups, dim)


def _sums(family: str, atoms, spec: MechanismSpec, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Per group, the sum of the decoded messages of a batch of atoms."""
    if family == "mix":
        arm, l1_atoms, l2_atoms = atoms
        arm_l1, arm_l2 = rp_arm_specs(spec)
        l1_sums = _sums("l1", l1_atoms, arm_l1, groups[arm], n_groups)
        return l1_sums + _sums("l2", l2_atoms, arm_l2, groups[~arm], n_groups)
    fam = _FAMILIES[family]
    return fam.scale(_net_counts(atoms, groups, n_groups, fam.shape(spec.ball.dim)[0]), spec)


def _decoded_sum(family: str, msgs: list, spec: MechanismSpec) -> np.ndarray:
    """The sum of decoded coded messages, from their atoms by one counts decode."""
    coded = [message_atoms(msg, spec, family) for msg in msgs]

    def batch(key):
        rows = [atoms for k, atoms in coded if k == key and atoms]
        return np.array(rows, dtype=np.intp).reshape(len(rows), message_code(key, spec.ball.dim)[2])

    if family != "mix":
        atoms = batch(family)
        return _sums(family, atoms, spec, np.zeros(len(atoms), dtype=np.intp), 1)[0]
    l1_atoms, l2_atoms = batch("L1"), batch("L2")
    arm = np.arange(len(l1_atoms) + len(l2_atoms)) < len(l1_atoms)
    return _sums(family, (arm, l1_atoms, l2_atoms), spec, np.zeros(len(arm), dtype=np.intp), 1)[0]


def encode_message(x, spec: MechanismSpec, rng) -> MechanismMessage:
    """Encode with the family the spec addresses (see mechanism_family)."""
    family = key = mechanism_family(spec)
    fam = _FAMILIES[family]
    rows, gen = _require_rows(x, spec.ball, 1), _require_rng(rng)
    atoms = fam.draw(rows, None, spec, fam.noise(gen, 1, spec))
    if family == "mix":  # the one row ran one arm
        arm, l1_atoms, l2_atoms = atoms
        key, atoms = ("L1", l1_atoms) if arm[0] else ("L2", l2_atoms)
    return message_from_atoms(key, atoms[0].tolist())


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


# Rows that sample_decoded encodes at a time: the encoders' working arrays are
# several times the size of their batch, so the batch is bounded.
_SAMPLE_BATCH = 1 << 16


def sample_decoded(x, spec: MechanismSpec, rng, n_samples: int) -> np.ndarray:
    """n_samples independent decoded messages for one input, as rows.

    The one input row is drawn repeatedly, so its table (the l1 rotation) is
    made once and every draw reads it. The rows are drawn in consecutive
    batches of at most 2**16, so the working memory beyond the (n_samples, d)
    result is bounded.
    """
    v = _require_rows(x, spec.ball, 1)
    n_samples = _require_count(n_samples, "n_samples")
    family = mechanism_family(spec)
    fam, gen = _FAMILIES[family], _require_rng(rng)
    table = fam.table(v, spec) if fam.table else None
    out = np.empty((n_samples, v.shape[1]))
    for lo in range(0, n_samples, _SAMPLE_BATCH):
        m = min(_SAMPLE_BATCH, n_samples - lo)
        rows = np.broadcast_to(v, (m, v.shape[1]))
        tab = None if table is None else np.broadcast_to(table, (m, table.shape[1]))
        atoms = fam.draw(rows, tab, spec, fam.noise(gen, m, spec))
        out[lo:lo + m] = _sums(family, atoms, spec, np.arange(m), m)
    return out


def _block_encoder(rows: np.ndarray, spec: MechanismSpec, repeated: bool) -> Callable:
    """``batch_encoder``'s encode on checked rows. If the caller will draw the
    rows repeatedly, their table (the l1 rotation) is made once, here."""
    family = mechanism_family(spec)
    fam, n = _FAMILIES[family], len(rows)
    table = fam.table(rows, spec) if repeated and fam.table else None

    def encode(streams) -> tuple[np.ndarray, int]:
        if not streams or n % len(streams):
            raise ValidationError(f"cannot split {n} rows into {len(streams)} equal blocks")
        size = n // len(streams)
        blocks = [fam.noise(_require_rng(rng), size, spec) for rng in streams]
        noise = blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))
        atoms = fam.draw(rows, table, spec, noise)
        l1_arm = int(np.count_nonzero(atoms[0])) if family == "mix" else 0
        return _sums(family, atoms, spec, np.zeros(n, dtype=np.intp), 1)[0] / n, l1_arm

    return encode


def batch_encoder(x, spec: MechanismSpec) -> Callable:
    """The spec's encoder on a row matrix, decoded from signed counts.

    The rows pass the one input check, here. ``encode(streams)`` draws the
    noise of len(streams) equal consecutive blocks of rows, block i from
    streams[i], then makes one draw and one decode over all rows; it returns
    the mean of the decoded messages and how many ran the mix's l1 arm (0 for
    the other families). Each draw computes only the entries it reads: for
    l1 one butterfly path per row, O(d) rather than the O(d log d) rotation.
    """
    return _block_encoder(_require_rows(x, spec.ball, 2), spec, repeated=False)


def mean_estimate_trials(dataset, spec: MechanismSpec, rng, trials: int) -> np.ndarray:
    """Repeated mean estimation over a fixed dataset, one estimate per row.

    Each trial encodes every dataset row once, on one stream, and averages the
    decodes: the one-stream case of ``batch_encoder``. With more than one
    trial every row is drawn repeatedly, so the l1 rotation is made once.
    """
    rows = _require_rows(dataset, spec.ball, 2)
    trials = _require_count(trials, "trials")
    encode, gen = _block_encoder(rows, spec, repeated=trials > 1), _require_rng(rng)
    return np.vstack([encode([gen])[0] for _ in range(trials)])
