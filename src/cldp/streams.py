"""numpy's stream seeding and its PCG64 generator, run over many streams at once.

``_seed_states`` is numpy's ``SeedSequence`` pool hash over a matrix of seed
words (``_seed_words`` of each int of a seed tuple), one row per stream, and
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


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) constants of successive calls to SeedSequence's
    hashmix: the running constant is xored in, then multiplied by ``mult``
    and the value by the product. They depend only on the call index."""
    const = init
    while True:
        nxt = const * mult & _WORD
        yield _U32(const), _U32(nxt)
        const = nxt


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a
    (k, L) uint32 matrix, as one (k, 4) uint64 array.

    numpy's pool hash (``mix_entropy``, then ``generate_state``) run column
    by column over all rows at once; the tests check it against
    ``SeedSequence``.
    """
    consts = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(value):
        xor, mul = next(consts)
        value = (value ^ xor) * mul
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> _XSHIFT)

    k, n = words.shape
    cols = np.ascontiguousarray(words.T)
    zero = np.zeros(k, dtype=np.uint32)
    pool = [hashmix(cols[i] if i < n else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(cols[src]))
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


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
        bound = require_int(bound, "bound")
        if not 1 <= bound <= 1 << 32:
            raise ValidationError(f"lanes draw bounds in [1, 2**32], got {bound!r}")
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
