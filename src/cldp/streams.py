"""numpy's stream seeding and its PCG64 generator, run over many streams at once.

``_seed_states`` is numpy's ``SeedSequence`` pool hash over a matrix of seed
words (``_seed_words`` of each int of a seed tuple), one row per stream: it
holds the pools of all streams as one (4, k) matrix, and runs each group of
hash calls that read the same pool row or seed word as one array call, so a
round's k seeds cost a few dozen numpy calls whatever k is.
``_HashedSeed`` hands one row's state to a real ``PCG64``. ``PCG64Lanes``
runs the streams of a (k, 4) state matrix as k uint64 lanes: numpy's PCG64
seeding, its 128-bit LCG step and its XSL-RR output, in 32-bit limbs where a
product needs its high half. Its ``integers(bound)`` and ``random()`` return
one value per lane, each the value that lane's ``Generator`` returns for the
same scalar call, bit for bit: the bounded draw is numpy's Lemire method on
32-bit outputs, each lane buffering the unused high half of a 64-bit output
as numpy's PCG64 does, and ``random()`` is (next 64-bit output >> 11) *
2**-53. numpy keeps all of these stable under its RNG compatibility policy
(NEP 19), and the tests check them against numpy. Every integer operand is
a uint32 or uint64 array or scalar (or a bool carry), so numpy 1.x
value-based casting and numpy 2's NEP 50 wrap alike, and no scalar
operation warns of a wrap.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError, require_int

_WORD = 0xFFFFFFFF

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_U32, _U64 = np.uint32, np.dtype(np.uint64)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_XSHIFT = _U32(16)
_POOL_SIZE = 4

# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h), as uint64
# halves, and the low half's 32-bit limbs for the high half of a product.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO0, _MULT_LO1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_1, _11, _32, _58, _63, _64 = (np.uint64(n) for n in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_WORD)
_TWO_M53 = 1.0 / 9007199254740992.0  # 2**-53, as numpy's random() scales


def _seed_words(n: int) -> list[int]:
    """The 32-bit words numpy's SeedSequence makes of a nonnegative int:
    little-endian, and 0 is one word."""
    words = [n & _WORD]
    while n > _WORD:
        n >>= 32
        words.append(n & _WORD)
    return words


def _hash_column(init: int, mult: int, calls: int) -> np.ndarray:
    """The running constants of SeedSequence's first ``calls`` hashmix calls,
    as a (calls + 1, 1) uint32 column: call i xors in entry i, then multiplies
    by entry i + 1 (the constant times ``mult``). They depend only on the
    call index."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _WORD)
    return np.array(consts, dtype=np.uint32)[:, None]


# mix_entropy's calls: the first four hash the pool's four words; each source
# row's three (calls 4-15) mix it into the other rows; the first extra word's
# four (calls 16-19) mix it into every row, and each later word's constants
# are the previous word's times _MULT_A**4. generate_state's eight calls read
# pool rows 0, 1, 2, 3, 0, 1, 2, 3.
_MIX_CONSTS = _hash_column(_INIT_A, _MULT_A, 20)
_SPREAD = [(np.arange(_POOL_SIZE) != src, _MIX_CONSTS[3 * src + 4 : 3 * src + 8])
           for src in range(_POOL_SIZE)]  # (the other rows, their calls' constants)
_EXTRA_STEP = _U32(_MULT_A**4 & _WORD)
_OUT_CONSTS = _hash_column(_INIT_B, _MULT_B, 8)
_OUT_ROWS = np.arange(8) % _POOL_SIZE


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of a (calls + 1, 1) column of
    running constants (``_hash_column``), broadcast against ``value``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> _XSHIFT)


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a
    (k, L) uint32 matrix, as one C-contiguous (k, 4) uint64 array.

    numpy's pool hash (``mix_entropy``, then ``generate_state``) over a (4, k)
    pool, one pool word per row and one stream per column. The calls that
    read the same pool row, or the same entropy word, run as one call over a
    column of their constants: the four first hashmixes; a source row's
    three hashmixes, and its three mixes into the other rows, which never
    write the source; an extra word's four; the eight outputs. The tests
    check it against ``SeedSequence``.
    """
    k, n = words.shape
    pool = np.zeros((_POOL_SIZE, k), dtype=np.uint32)
    pool[: min(n, _POOL_SIZE)] = words[:, :_POOL_SIZE].T
    pool = _hashmix(pool, _MIX_CONSTS[:5])
    for src, (others, consts) in enumerate(_SPREAD):
        pool[others] = _mix(pool[others], _hashmix(pool[src], consts))
    consts = _MIX_CONSTS[16:]
    for word in words.T[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, consts))
        consts = consts * _EXTRA_STEP
    state = _hashmix(pool[_OUT_ROWS], _OUT_CONSTS)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _HashedSeed(ISeedSequence):
    """A seed whose state is already hashed: PCG64 asks it for
    ``generate_state(4, np.uint64)``, and any other request fails rather
    than seed a generator differently."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != _U64:
            raise ValidationError(
                "a pre-hashed seed holds generate_state(4, uint64) only, "
                f"got ({n_words!r}, {dtype!r})"
            )
        return self._state


class PCG64Lanes:
    """k PCG64 streams, one per row of a (k, 4) uint64 state matrix, drawn as
    lanes: each call draws once from every lane, as that lane's
    ``Generator(PCG64(_HashedSeed(row)))`` would (see the module docstring).

    A bound above 2**32 is refused: numpy draws it from 64-bit outputs by
    another method, and a run would reach it only by holding more than 2**32
    points or coordinates per row.
    """

    def __init__(self, states: np.ndarray):
        # pcg64_set_seed: a row is (seed high, seed low, increment high,
        # increment low); the stream increment is 2 * increment + 1. The state
        # starts at 0, steps, takes the seed added, and steps again.
        self._inc_hi = (states[:, 2] << _1) | (states[:, 3] >> _63)
        self._inc_lo = (states[:, 3] << _1) | _1
        self._lo = self._inc_lo + states[:, 1]
        self._hi = self._inc_hi + states[:, 0] + (self._lo < self._inc_lo)
        self._step()
        self._buf = np.zeros(len(states), dtype=np.uint64)  # each lane's buffered high half
        self._held = np.zeros(len(states), dtype=bool)  # whether the lane holds one

    def __len__(self) -> int:
        return len(self._buf)

    def _step(self, lanes=None) -> None:
        """state <- state * multiplier + increment mod 2**128, on every lane
        or on the lanes of a mask."""
        lo, hi = self._lo, self._hi
        lo0, lo1 = lo & _LOW32, lo >> _32
        # The high half of lo * _MULT_LO, from its four 32-bit limb products.
        low, cross0, cross1 = lo0 * _MULT_LO0, lo0 * _MULT_LO1, lo1 * _MULT_LO0
        mid = (low >> _32) + (cross0 & _LOW32) + (cross1 & _LOW32)
        carry = lo1 * _MULT_LO1 + (cross0 >> _32) + (cross1 >> _32) + (mid >> _32)
        new_lo = lo * _MULT_LO + self._inc_lo
        new_hi = carry + lo * _MULT_HI + hi * _MULT_LO + self._inc_hi + (new_lo < self._inc_lo)
        if lanes is None:
            self._lo, self._hi = new_lo, new_hi
        else:
            np.copyto(lo, new_lo, where=lanes)
            np.copyto(hi, new_hi, where=lanes)

    def _next64(self, lanes=None) -> np.ndarray:
        """Each lane's next 64-bit output, XSL-RR of its stepped state; with a
        mask, only its lanes step, and only their entries are outputs."""
        self._step(lanes)
        x, rot = self._hi ^ self._lo, self._hi >> _58
        return (x >> rot) | (x << ((_64 - rot) & _63))

    def _next32(self, lanes=None) -> np.ndarray:
        """Each lane's next 32-bit output, on every lane or on the lanes of a
        mask: its buffered high half if it holds one, else the low half of a
        new 64-bit output, whose high half it buffers."""
        fresh = ~self._held if lanes is None else lanes & ~self._held
        out = self._buf
        if fresh.all():
            raw = self._next64()
            out, self._buf = raw & _LOW32, raw >> _32
        elif fresh.any():
            raw = self._next64(fresh)
            out = np.where(fresh, raw & _LOW32, self._buf)
            self._buf = np.where(fresh, raw >> _32, self._buf)
        self._held = ~self._held if lanes is None else self._held ^ lanes
        return out

    def integers(self, bound) -> np.ndarray:
        """Each lane's ``integers(bound)``, as int64, for 1 <= bound <= 2**32.

        Lemire's method on 32-bit outputs, as numpy's
        ``buffered_bounded_lemire_uint32``: x * bound >> 32, redrawn on the
        lanes whose low 32 bits fall below 2**32 mod bound. Bound 1 reads no
        bits, and bound 2**32 (never redrawn) returns x itself, as numpy does.
        """
        bound = require_int(bound, "bound", "[1, 4294967296]")  # [1, 2**32]
        if bound == 1:
            return np.zeros(len(self), dtype=np.int64)
        excl, threshold = np.uint64(bound), np.uint64((1 << 32) % bound)
        m = self._next32() * excl
        redraw = (m & _LOW32) < threshold
        while redraw.any():
            m = np.where(redraw, self._next32(redraw) * excl, m)
            redraw &= (m & _LOW32) < threshold
        return (m >> _32).astype(np.int64)

    def random(self) -> np.ndarray:
        """Each lane's ``random()``: its next 64-bit output's top 53 bits * 2**-53."""
        return (self._next64() >> _11) * _TWO_M53
