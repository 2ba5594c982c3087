"""Bit-exact serialization of mechanism messages and communication accounting.

One atom code. A coded message is a bag of signed coordinates (c, sign),
each the atom 2*c + [sign > 0] over the alphabet 2*dim. Its payload is the
rank of the atom multiset among all C(s+B-1, s) multisets of s atoms over
B = 2*dim, colexicographic via the combinatorial number system, and costs
multiset_bits(s, B) = ceil(log2 C(s+B-1, s)) bits. The order of atoms carries
no information once messages pass through a shuffler, so none is paid for; the
cost stays within one bit of the Stirling envelope s*(log2 e + log2((s+B-1)/s)).
An index-sign message is the one-atom case: its rank is the index big-endian
in ceil(log2 d) bits followed by the sign bit (1 meaning +). histogram_pack
and histogram_unpack both walk the binomial from one term to the next, one
multiply and divide a step, and a one-atom code is its atom, which frames
write and read directly.

Atoms come from ``cldp.mechanisms``: messages expose their ``atoms``,
``message_atoms`` checks them against the spec's family, ``message_code``
gives each family's and mix arm's message type and atom shape, and
``_message`` builds an unframed message from the atoms its unpack made, which
are nonnegative integers by construction. The one table here, ``_CODES``,
holds frame tags; multiset_bits is the only cost rule. A client's several
index-sign messages (l1, linf) pack into one multiset; every other message
costs its own payload. The l2 zero message has no atoms and costs
nothing; a raw float64 vector (the uncompressed baseline) costs 64 bits per
value.

On the wire each message is [1 byte: tag][2 bytes: payload bit length,
big-endian][payload, big-endian, zero-padded to a byte boundary]. Payloads are
Python integers. Bit accounting counts payload bits only; the 3-byte header is
transport overhead the cost model does not charge. The 16-bit length field
caps raw frames at d <= 1023 (64*1024 bits do not fit) and l2 and mix-l2
frames at d <= 23 791 (multiset_bits(23 792, 47 584) = 65 536); frame_message
checks the cost against the cap before ranking any atom. unframe_message
accepts only canonical frames of the spec's family (and raw frames under any
spec that addresses a family), so every accepted frame re-frames to the same
bytes. Every spec passes ``mechanisms.mechanism_family``'s check first.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass

from .accountant import SamplingParams
from .errors import ValidationError, require_int
from . import mechanisms as mech

# Frame tags (one byte each).
TAG_ZERO = 0x00          # reserved zero message (empty payload)
TAG_L1_ATOM = 0x01       # index-sign atom, l1 family (index over the padded dim)
TAG_L2_SPARSE = 0x02     # d signed coordinate samples, multiset-packed
TAG_LINF_ATOM = 0x03     # index-sign atom, linf family
TAG_MIX_L1 = 0x04        # mix message, l1 arm payload
TAG_MIX_L2 = 0x05        # mix message, l2 arm payload
TAG_RAW = 0x06           # uncompressed float64 vector (baseline mode)

RAW_VALUE_BITS = 64
MAX_PAYLOAD_BITS = 0xFFFF  # the 16-bit frame length field

# Family or mix arm -> frame tag; the message code itself is mechanisms'.
_CODES = {"l1": TAG_L1_ATOM, "linf": TAG_LINF_ATOM, "l2": TAG_L2_SPARSE,
          "L1": TAG_MIX_L1, "L2": TAG_MIX_L2}
_TAG_CODES = {tag: key for key, tag in _CODES.items()}


def multiset_bits(s: int, B: int) -> int:
    """Exact payload bits for a packed multiset of s atoms over alphabet B."""
    s, B = require_int(s, "s", "[1, inf)"), require_int(B, "B", "[1, inf)")
    return (math.comb(s + B - 1, s) - 1).bit_length()


@dataclass(frozen=True)
class HistogramCode:
    """A multiset of s atoms over [0, B), as its rank among all such multisets."""

    rank: int
    s: int
    B: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", require_int(self.rank, "rank"))
        for name in ("s", "B"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, "[1, inf)"))
        if not 0 <= self.rank < math.comb(self.s + self.B - 1, self.s):
            raise ValidationError(
                f"rank {self.rank} out of range for {self.s} atoms over alphabet {self.B}"
            )

    @property
    def bit_length(self) -> int:
        """ceil(log2 C(s+B-1, s)) — exact big-integer arithmetic, no floats."""
        return multiset_bits(self.s, self.B)


# The longest gap between atoms that _rank walks, one multiply and
# divide a step; a longer gap takes one math.comb.
_WALK = 16


def histogram_pack(atoms, B: int) -> HistogramCode:
    """Rank the multiset of atoms (order discarded) over the alphabet [0, B):
    check B and the atoms, sort them and rank them with ``_rank``."""
    B = require_int(B, "B", "[1, inf)")
    try:
        atoms = tuple(atoms)  # read twice below; a tuple, as a message's atoms are, is not copied
        ordered = sorted(map(operator.index, atoms))
    except TypeError:
        ordered = None
    if ordered is None or bool in set(map(type, atoms)):  # one pass over the types
        raise ValidationError(f"atoms must be integers (a bool is not), got {atoms!r:.200}")
    if not ordered:
        raise ValidationError("cannot pack an empty multiset")
    if not 0 <= ordered[0] <= ordered[-1] < B:
        raise ValidationError(f"atoms {ordered[0]}..{ordered[-1]} out of alphabet [0, {B})")
    return HistogramCode(rank=_rank(ordered), s=len(ordered), B=B)


def _rank(ordered: list[int]) -> int:
    """The rank of a nondecreasing list of checked atoms, histogram_pack's
    walk; ``frame_message`` calls it on atoms ``message_atoms`` has checked.

    Shifting the i-th smallest a_i by i makes the sequence strictly
    increasing, and the combinatorial number system ranks strictly
    increasing sequences by the sum of C(a_i + i, i + 1). The sum walks the
    binomial, as unpack does, with c = C(a_i + i, i) >= 1: the term is
    c*a_i/(i+1), the next level starts at C(a_i + i + 1, i + 1), which is the
    term plus c, and C(b, i) steps to C(b + 1, i) = C(b, i)*(b+1)/(b+1-i) up
    to the next atom, or is taken from math.comb over a longer gap. A
    one-atom code ranks in constant time: its rank is the atom.
    """
    rank, c, prev = 0, 1, ordered[0]  # c = C(prev + i, i)
    for i, a in enumerate(ordered):
        if a != prev:
            if a - prev > _WALK:
                c = math.comb(a + i, i)
            else:
                for b in range(prev + i + 1, a + i + 1):
                    c = c * b // (b - i)
            prev = a
        term = c * a // (i + 1)
        rank += term
        c += term
    return rank


def histogram_unpack(code: HistogramCode) -> tuple[int, ...]:
    """The sorted multiset a HistogramCode ranks; inverse of histogram_pack.

    The shifted atoms b_s > ... > b_1 are peeled off from the top: b_i is the
    largest b below b_{i+1} with C(b, i) <= the remaining rank. b only walks
    down, and the binomial follows it exactly, one multiply and divide a step:
    C(b-1, i) = C(b, i)*(b-i)/b within a level, C(b-1, i-1) = C(b, i)*i/b to
    the next. The last level needs no walk: C(b, 1) = b, so b_1 is the rank
    that remains, and a one-atom code unpacks in constant time.
    """
    if not isinstance(code, HistogramCode):
        raise ValidationError(f"expected a HistogramCode, got {code!r:.200}")
    rank = code.rank
    out = []
    b = code.B + code.s - 2  # the largest shifted atom there can be
    c = math.comb(b, code.s)
    for i in range(code.s, 1, -1):
        while c > rank:
            c = c * (b - i) // b
            b -= 1
        rank -= c
        out.append(b - (i - 1))
        c = c * i // b  # b >= i - 1 >= 1, since C(i - 1, i) = 0 <= rank
        b -= 1
    if rank > b:
        raise ValidationError(f"corrupt multiset rank in {code!r}")
    out.append(rank)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Codes and costs of messages
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _code_bits(key: str, d: int, n: int = 1) -> int:
    """Bits of n messages of one code from one client: index-sign messages
    pack into one multiset of n atoms, sparse ones cost one multiset each."""
    kind, dim, atoms = mech.message_code(key, d)
    if kind is mech.IndexSign:
        return multiset_bits(n, 2 * dim)
    return n * multiset_bits(atoms, 2 * dim)


@functools.lru_cache(maxsize=1024)
def _frame_code(key: str, d: int) -> tuple[int, int, int]:
    """(atom alphabet 2 * atom dimension, atoms per message, payload bits) of
    one message of a family or mix arm at dimension d: what a frame reads of
    its code, in one lookup."""
    _, dim, count = mech.message_code(key, d)
    return 2 * dim, count, _code_bits(key, d)


def _priced(msg: mech.MechanismMessage, spec: mech.MechanismSpec):
    """(code key, atoms, payload bits) of msg under spec; the key is None for a raw vector."""
    family = mech.mechanism_family(spec)
    if isinstance(msg, mech.RawVector):
        return None, (), RAW_VALUE_BITS * spec.ball.dim
    key, atoms = mech.message_atoms(msg, spec, family)
    if atoms:
        return key, atoms, _frame_code(key, spec.ball.dim)[2]
    if key != "l2":
        raise ValidationError("only the l2 family emits the zero message")
    return key, atoms, 0


# ---------------------------------------------------------------------------
# Per-message framing
# ---------------------------------------------------------------------------


def message_payload_bits(msg: mech.MechanismMessage, spec: mech.MechanismSpec) -> int:
    """Exact payload bits the frame for this message will carry."""
    return _priced(msg, spec)[2]


def frame_message(msg: mech.MechanismMessage, spec: mech.MechanismSpec) -> bytes:
    """[tag][bit length, 2 bytes BE][payload, zero-padded to bytes]."""
    key, atoms, nbits = _priced(msg, spec)
    d = spec.ball.dim
    if key is None and len(msg.values) != d:
        raise ValidationError("raw message dimension mismatch")
    if nbits > MAX_PAYLOAD_BITS:
        raise ValidationError(f"payload of {nbits} bits exceeds the 16-bit frame length field")
    if key is None:
        return struct.pack(f">BH{d}d", TAG_RAW, nbits, *msg.values)
    if nbits == 0:
        return struct.pack(">BH", TAG_ZERO, 0)
    if len(atoms) == 1:  # a one-atom code's rank is its atom, which message_atoms has checked
        rank = atoms[0]
    else:  # ranked unchecked: histogram_pack would repeat message_atoms' checks
        rank = _rank(sorted(atoms))
    payload = (rank << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")
    return struct.pack(">BH", _CODES[key], nbits) + payload


def _header(data: bytes, offset: int) -> tuple[int, int]:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValidationError(f"frames must be bytes, got {data!r:.200}")
    if not 0 <= require_int(offset, "offset") <= len(data) - 3:
        raise ValidationError(f"no 3-byte frame header at offset {offset} of {len(data)} bytes")
    return struct.unpack_from(">BH", data, offset)


def frame_length(data: bytes, offset: int = 0) -> int:
    """Total byte length of the frame starting at offset."""
    return 3 + (_header(data, offset)[1] + 7) // 8


def unframe_message(data: bytes, spec: mech.MechanismSpec, offset: int = 0):
    """Decode one frame; returns (message, bytes consumed).

    Only canonical frames are accepted: a raw frame, or a tag of the spec's
    family with the family's bit length, zero padding and an in-range rank.
    """
    family = mech.mechanism_family(spec)
    tag, nbits = _header(data, offset)
    size = (nbits + 7) // 8
    body = data[offset + 3 : offset + 3 + size]
    if len(body) < size:
        raise ValidationError("truncated frame payload")
    d = spec.ball.dim
    if tag == TAG_RAW:
        if nbits != RAW_VALUE_BITS * d:
            raise ValidationError("raw frame has the wrong payload size")
        return mech.RawVector(values=struct.unpack(f">{d}d", body)), 3 + size
    key = "l2" if tag == TAG_ZERO else _TAG_CODES.get(tag)
    if key not in (("L1", "L2") if family == "mix" else (family,)):
        raise ValidationError(f"frame tag 0x{tag:02x} is not of the {family} family")
    if tag == TAG_ZERO:
        if nbits:
            raise ValidationError("the zero message carries no payload")
        return mech.SparseSigned(pairs=((0, 1),) * d, is_zero=True), 3
    B, count, bits = _frame_code(key, d)
    if nbits != bits:
        raise ValidationError(f"expected {bits} payload bits, got {nbits}")
    payload, pad = int.from_bytes(body, "big"), -nbits % 8
    if payload & ((1 << pad) - 1):
        raise ValidationError("nonzero padding bits in frame payload")
    rank = payload >> pad
    if count == 1 and rank < B:
        atoms = (rank,)
    else:
        atoms = histogram_unpack(HistogramCode(rank=rank, s=count, B=B))
    return mech._message(key, atoms), 3 + size  # the unpack made them nonnegative ints


# ---------------------------------------------------------------------------
# Per-client, per-round accounting
# ---------------------------------------------------------------------------


def client_round_bits_exact(spec: mech.MechanismSpec, s: int) -> int:
    """Deterministic per-selected-client cost of s messages, by family."""
    family = mech.mechanism_family(spec)
    if family == "mix":
        raise ValidationError("the mix family has no deterministic per-round cost")
    return _code_bits(family, spec.ball.dim, s)


def round_payload_bits(spec: mech.MechanismSpec | None, params, d: int, l1_arm: int = 0) -> int:
    """Exact payload bits of one round: k clients, s messages each, of which
    ``l1_arm`` ran the mix's l1 arm; ``spec`` None prices raw vectors."""
    if not isinstance(params, SamplingParams):
        raise ValidationError(f"params must be SamplingParams, got {params!r:.200}")
    d, n = require_int(d, "d", "[1, inf)"), params.k * params.s
    if not 0 <= require_int(l1_arm, "l1_arm") <= n:
        raise ValidationError(f"need 0 <= l1_arm <= k*s = {n}, got l1_arm={l1_arm}")
    if spec is None:
        return n * RAW_VALUE_BITS * d
    if mech.mechanism_family(spec) != "mix":
        return params.k * client_round_bits_exact(spec, params.s)
    dim = spec.ball.dim
    return l1_arm * _code_bits("L1", dim) + (n - l1_arm) * _code_bits("L2", dim)

