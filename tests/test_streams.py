"""PCG64 lanes against numpy's own generators, draw for draw.

Every test here turns warnings into errors: a uint64 operation that numpy
would warn about (a scalar wrap, or a Python int promoted to float64 on
numpy 1.x) must not happen on the lanes' paths.
"""

import numpy as np
import pytest

from cldp.errors import ValidationError
from cldp.fedsim.training import CLIENT_SALT, _client_streams
from cldp.linalg import BallSpec
from cldp.mechanisms import MechanismSpec, batch_encoder
from cldp.streams import PCG64Lanes, _HashedSeed, _seed_states, _seed_words

pytestmark = pytest.mark.filterwarnings("error")

LOW32 = 0xFFFFFFFF
BOUNDS = (1, 2, 4, 20, 32, 1000)
# Lemire redraws when the low word of x * bound falls below 2**32 mod bound:
# about half the draws at 2**31 + 1, a quarter at 3 * 2**30.
REJECTING = (2**31 + 1, 3 * 2**30)


def random_states(k: int, seed: int) -> np.ndarray:
    states = np.random.default_rng(seed).integers(0, 2**64, (k, 4), dtype=np.uint64)
    states[0] = 0  # the all-zero and all-ones states
    states[1] = np.iinfo(np.uint64).max
    return states


def generators(states: np.ndarray) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(_HashedSeed(row))) for row in states]


def assert_draws(lanes: PCG64Lanes, gens: list, calls) -> None:
    """Each call, ("integers", bound) or ("random",), returns per lane what
    the lane's generator returns, dtype included; then both read the same
    next 64 bits."""
    for name, *args in calls:
        got = getattr(lanes, name)(*args)
        want = np.array([getattr(gen, name)(*args) for gen in gens])
        assert got.shape == (len(gens),) and got.dtype == want.dtype, (name, args)
        np.testing.assert_array_equal(got, want, err_msg=f"{name}{tuple(args)}")
    np.testing.assert_array_equal(lanes.random(), [gen.random() for gen in gens])


def first_word_rejected(states: np.ndarray, bound: int) -> int:
    """How many lanes' first 32-bit output Lemire rejects at this bound, read
    from numpy's own raw outputs."""
    threshold = (1 << 32) % bound
    raw = [int(gen.bit_generator.random_raw()) for gen in generators(states)]
    return sum(((x & LOW32) * bound) & LOW32 < threshold for x in raw)


class TestLanesEqualGenerators:
    @pytest.mark.parametrize("bound", BOUNDS + REJECTING + (2**32 - 1, 2**32))
    def test_each_bound_on_random_states(self, bound):
        states = random_states(2000, bound % 997)
        assert_draws(PCG64Lanes(states), generators(states), [("integers", bound)] * 3)

    @pytest.mark.parametrize(
        "calls",
        [
            [("integers", 4), ("integers", 32), ("random",)],
            [("integers", 20), ("random",), ("integers", 1000)],
            [("random",), ("integers", 2), ("random",), ("random",), ("integers", 20)],
        ],
        ids=["int-int-random", "int-random-int", "random-first"],
    )
    def test_call_orders(self, calls):
        # The first integers leaves each lane's high half buffered; random()
        # draws 64 fresh bits and leaves that half in place for the next
        # integers, as numpy's PCG64 does.
        states = random_states(2000, len(calls))
        assert_draws(PCG64Lanes(states), generators(states), calls)

    @pytest.mark.parametrize("bound", REJECTING)
    def test_rejected_lanes_are_redrawn_alone(self, bound):
        # Some lanes reject their first word (checked from numpy's raw
        # outputs), so the lanes then hold different buffers and states:
        # later calls of every kind must still match lane by lane.
        states = random_states(2000, bound % 991)
        assert first_word_rejected(states, bound) > 100
        calls = [("integers", bound), ("integers", 20), ("random",), ("integers", bound),
                 ("integers", bound), ("random",), ("integers", 1000)]
        assert_draws(PCG64Lanes(states), generators(states), calls)

    def test_bound_one_draws_nothing(self):
        # integers(1) reads no bits: neither a buffered half nor the state moves.
        states = random_states(50, 1)
        lanes, gens = PCG64Lanes(states), generators(states)
        calls = [("integers", 1), ("integers", 32), ("integers", 1), ("integers", 4)]
        assert_draws(lanes, gens, calls)
        fresh = PCG64Lanes(states)
        np.testing.assert_array_equal(fresh.integers(1), np.zeros(50, dtype=np.int64))
        np.testing.assert_array_equal(fresh.random(), PCG64Lanes(states).random())

    @pytest.mark.parametrize("bound", (1, 4, 20) + REJECTING)
    def test_one_lane(self, bound):
        for seed in range(20):
            states = np.random.default_rng(seed).integers(0, 2**64, (1, 4), dtype=np.uint64)
            calls = [("integers", bound), ("random",), ("integers", bound), ("integers", 32)]
            assert_draws(PCG64Lanes(states), generators(states), calls)

    def test_tuple_seeded_streams(self):
        # Lanes built from the hashed (seed, CLIENT_SALT, client, t) words equal
        # the generators numpy seeds from the tuple itself, for the edge seeds,
        # clients and rounds of the word-built streams' test.
        chosen = np.array([0, 1, 4999])
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5):
            head = _seed_words(seed) + [CLIENT_SALT]
            for t in (1, 2**16, 2**32 + 3):
                lanes = _client_streams(head, chosen, t, lanes=True)
                seeds = [np.random.SeedSequence((seed, CLIENT_SALT, int(c), t)) for c in chosen]
                gens = [np.random.default_rng(s) for s in seeds]
                assert_draws(lanes, gens, [("integers", 4), ("integers", 32), ("random",)])

    def test_hashed_word_rows(self):
        # Random word rows of every length the pool hash branches on.
        for length in range(1, 7):
            words = np.random.default_rng(length).integers(0, 2**32, (400, length), dtype=np.uint32)
            gens = [np.random.default_rng(np.random.SeedSequence(row)) for row in words]
            calls = [("integers", 20), ("random",), ("integers", 1000)]
            assert_draws(PCG64Lanes(_seed_states(words)), gens, calls)

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_batch_encoder_on_lanes(self, p):
        # One lane per row draws the round an index family draws from a
        # generator per row.
        states = random_states(300, 7)
        rows = np.random.default_rng(8).uniform(-0.04, 0.04, (300, 20))
        encode = batch_encoder(rows, MechanismSpec(BallSpec(p, 1.0, 20), 1.0))
        got, want = encode(PCG64Lanes(states)), encode(generators(states))
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1] == 0


class TestLanesRefuse:
    @pytest.mark.parametrize("bound", [0, -3, 2**32 + 1, 2**64])
    def test_bounds_outside_one_to_two_to_the_32(self, bound):
        # numpy draws a bound above 2**32 from 64-bit outputs by another
        # method; the lanes refuse it, and every bound from 1 to 2**32 is
        # covered above.
        with pytest.raises(ValidationError, match="bound"):
            PCG64Lanes(random_states(3, 0)).integers(bound)

    @pytest.mark.parametrize("bound", [True, 2.5, "4", None])
    def test_non_integer_bounds(self, bound):
        with pytest.raises(ValidationError, match="bound"):
            PCG64Lanes(random_states(3, 0)).integers(bound)

    def test_batch_encoder_takes_lanes_for_index_rows_only(self):
        # l2 and mix rows draw normals, which lanes do not; and a lane draws
        # exactly one row.
        states = random_states(6, 0)
        for p, mix_prob in ((2.0, None), (3.0, 0.5)):
            spec = MechanismSpec(BallSpec(p, 1.0, 4), 1.0, mix_prob)
            encode = batch_encoder(np.zeros((6, 4)), spec)
            with pytest.raises(ValidationError, match="lanes"):
                encode(PCG64Lanes(states))
        encode = batch_encoder(np.zeros((12, 4)), MechanismSpec(BallSpec(1.0, 1.0, 4), 1.0))
        with pytest.raises(ValidationError, match="lanes"):
            encode(PCG64Lanes(states))
