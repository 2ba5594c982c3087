"""Wire format: atom codes, multiset ranking, framing, and bit accounting."""

import hashlib
import itertools
import math
import random
import struct
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cldp.mechanisms as mech
import cldp.wire as wire
from cldp.accountant import SamplingParams
from cldp.errors import ValidationError
from cldp.linalg import BallSpec

LN3 = math.log(3.0)


def l1_spec(d, a=1.0, eps0=LN3):
    return mech.MechanismSpec(ball=BallSpec(p=1.0, radius=a, dim=d), epsilon0=eps0)


def l2_spec(d, a=1.0, eps0=LN3):
    return mech.MechanismSpec(ball=BallSpec(p=2.0, radius=a, dim=d), epsilon0=eps0)


def linf_spec(d, a=1.0, eps0=LN3):
    return mech.MechanismSpec(ball=BallSpec(p=math.inf, radius=a, dim=d), epsilon0=eps0)


def mix_spec(d, p=4.0, a=1.0, eps0=LN3, mix_prob=0.5):
    return mech.MechanismSpec(
        ball=BallSpec(p=p, radius=a, dim=d), epsilon0=eps0, mix_prob=mix_prob
    )


class TestIndexSignCode:
    """The one-atom code: index big-endian in ceil(log2 d) bits, then the sign bit (1 means +)."""

    @pytest.mark.parametrize("d,bits", [(1, 1), (2, 2), (3, 3), (4, 3), (8, 4), (64, 7)])
    def test_bit_cost(self, d, bits):
        assert wire.multiset_bits(1, 2 * d) == bits

    def test_pinned_examples(self):
        assert wire.frame_message(mech.IndexSign(j=5, sign=1), linf_spec(8)) == bytes.fromhex(
            "030004b0"
        )
        assert wire.frame_message(mech.IndexSign(j=0, sign=-1), linf_spec(1)) == bytes.fromhex(
            "03000100"
        )
        assert wire.unframe_message(bytes.fromhex("030004b0"), linf_spec(8)) == (
            mech.IndexSign(j=5, sign=1), 4
        )
        assert wire.unframe_message(bytes.fromhex("03000100"), linf_spec(1)) == (
            mech.IndexSign(j=0, sign=-1), 4
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 64])
    def test_roundtrip_exhaustive(self, d):
        spec, seen = linf_spec(d), set()
        for j in range(d):
            for sign in (-1, 1):
                msg = mech.IndexSign(j=j, sign=sign)
                frame = wire.frame_message(msg, spec)
                assert wire.message_payload_bits(msg, spec) == wire.multiset_bits(1, 2 * d)
                assert wire.unframe_message(frame, spec) == (msg, len(frame))
                seen.add(frame)
        assert len(seen) == 2 * d  # injective

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValidationError):
            wire.frame_message(mech.IndexSign(j=8, sign=1), linf_spec(8))

    def test_cost_is_the_one_atom_multiset(self):
        for d in range(1, 5001):
            nbits = wire.message_payload_bits(mech.IndexSign(j=d - 1, sign=1), linf_spec(d))
            assert nbits == wire.multiset_bits(1, 2 * d) == math.ceil(math.log2(d)) + 1

    def test_rejects_malformed_bits(self):
        with pytest.raises(ValidationError):  # 2 payload bits, not 4
            wire.unframe_message(bytes([wire.TAG_LINF_ATOM, 0, 2, 0x80]), linf_spec(8))
        with pytest.raises(ValidationError):  # index 5 outside [0, 5)
            wire.unframe_message(bytes([wire.TAG_LINF_ATOM, 0, 4, 0xA0]), linf_spec(5))


class TestMultisetCode:
    def test_pinned_small_case(self):
        # s=2 atoms over B=3: C(4,2) = 6 multisets, needing 3 bits.
        assert math.comb(2 + 3 - 1, 2) == 6
        assert wire.multiset_bits(2, 3) == 3

    def test_single_atom_costs_log_alphabet(self):
        for B in (2, 3, 8, 16, 100):
            assert wire.multiset_bits(1, B) == math.ceil(math.log2(B))

    def test_bijection_exhaustive_small(self):
        for s, B in [(2, 3), (3, 4), (1, 6), (4, 2)]:
            total = math.comb(s + B - 1, s)
            ranks = {}
            for combo in itertools.combinations_with_replacement(range(B), s):
                code = wire.histogram_pack(combo, B)
                assert code.s == s and code.B == B
                assert 0 <= code.rank < total
                assert wire.histogram_unpack(code) == tuple(sorted(combo))
                ranks[code.rank] = combo
            assert len(ranks) == total  # every rank hit exactly once

    def test_order_invariance(self):
        a = wire.histogram_pack((4, 1, 1, 9), 12)
        b = wire.histogram_pack((1, 9, 4, 1), 12)
        assert a == b

    def test_unpack_large_alphabet(self):
        for atoms, B in [((0,), 4096), ((4095,), 4096), ((1, 1, 700, 4095), 4096)]:
            assert wire.histogram_unpack(wire.histogram_pack(atoms, B)) == atoms

    def test_unpack_many_atoms(self):
        gen = random.Random(11)
        for s, B in [(512, 1024), (300, 2), (40, 1)]:
            atoms = tuple(sorted(gen.randrange(B) for _ in range(s)))
            assert wire.histogram_unpack(wire.histogram_pack(atoms, B)) == atoms

    def test_envelope_plus_one_budget(self):
        # The Stirling envelope s*(log2 e + log2((s+B-1)/s)) of the module docstring.
        for s in range(1, 6):
            for B in range(2, 17):
                envelope = s * (math.log2(math.e) + math.log2((s + B - 1) / s))
                assert wire.multiset_bits(s, B) <= envelope + 1.0

    def test_rejects_bad_atoms(self):
        with pytest.raises(ValidationError):
            wire.histogram_pack((0, 3), 3)  # atom == B
        with pytest.raises(ValidationError):
            wire.histogram_pack((-1, 0), 3)
        with pytest.raises(ValidationError):
            wire.histogram_pack((), 3)

    @pytest.mark.parametrize("B", [True, "8", 2.0, 0])
    def test_rejects_bad_alphabet_before_the_atoms(self, B):
        # B is checked as B, not read in the atoms' range check.
        with pytest.raises(ValidationError, match="B must be"):
            wire.histogram_pack([1], B)

    def test_rejects_invalid_rank(self):
        total = math.comb(2 + 3 - 1, 2)
        with pytest.raises(ValidationError):
            wire.histogram_unpack(wire.HistogramCode(rank=total, s=2, B=3))

    @given(
        s=st.integers(min_value=1, max_value=6),
        B=st.integers(min_value=2, max_value=20),
        data=st.data(),
    )
    def test_roundtrip_property(self, s, B, data):
        atoms = data.draw(st.lists(st.integers(0, B - 1), min_size=s, max_size=s))
        code = wire.histogram_pack(atoms, B)
        assert wire.histogram_unpack(code) == tuple(sorted(atoms))
        assert code.bit_length == wire.multiset_bits(s, B)

    @pytest.mark.parametrize("s, B", [(1, 2000), (128, 256), (1000, 2000)])
    def test_rank_is_the_sum_of_binomials(self, s, B):
        # The definition, computed here: the i-th smallest atom a_i adds C(a_i + i, i + 1).
        gen = random.Random(s * B)
        drawn = [gen.randrange(B) for _ in range(s)]
        cases = [drawn, [gen.randrange(B)] * s, [0] * s, [B - 1] * s,
                 [0] + drawn[1:], drawn[:-1] + [B - 1]]
        for atoms in cases:
            want = sum(math.comb(a + i, i + 1) for i, a in enumerate(sorted(atoms)))
            code = wire.histogram_pack(atoms, B)
            assert (code.rank, code.s, code.B) == (want, s, B)
            assert wire.histogram_unpack(code) == tuple(sorted(atoms))


class TestFraming:
    def test_l1_atom_roundtrip(self):
        spec = l1_spec(d=3)  # pads to 4, so 2*4-atom alphabet, 3 payload bits
        msg = mech.IndexSign(j=2, sign=-1)
        frame = wire.frame_message(msg, spec)
        assert frame[0] == wire.TAG_L1_ATOM
        nbits = struct.unpack(">H", frame[1:3])[0]
        assert nbits == wire.message_payload_bits(msg, spec) == wire.multiset_bits(1, 8)
        decoded, consumed = wire.unframe_message(frame, spec)
        assert decoded == msg
        assert consumed == len(frame) == wire.frame_length(frame)

    def test_linf_atom_roundtrip(self):
        spec = linf_spec(d=6)
        msg = mech.IndexSign(j=5, sign=1)
        frame = wire.frame_message(msg, spec)
        assert frame[0] == wire.TAG_LINF_ATOM
        assert wire.message_payload_bits(msg, spec) == wire.multiset_bits(1, 12)
        decoded, consumed = wire.unframe_message(frame, spec)
        assert decoded == msg
        assert consumed == len(frame)

    def test_sparse_roundtrip(self):
        spec = l2_spec(d=4)
        msg = mech.SparseSigned(pairs=((0, 1), (2, -1), (2, 1), (3, -1)))
        frame = wire.frame_message(msg, spec)
        assert frame[0] == wire.TAG_L2_SPARSE
        assert wire.message_payload_bits(msg, spec) == wire.multiset_bits(4, 8)
        decoded, consumed = wire.unframe_message(frame, spec)
        # Pair order is not preserved, the multiset is.
        assert sorted(decoded.pairs) == sorted(msg.pairs)
        assert consumed == len(frame)

    def test_zero_message_is_free(self):
        spec = l2_spec(d=4)
        msg = mech.SparseSigned(pairs=((0, 1),) * 4, is_zero=True)
        assert wire.message_payload_bits(msg, spec) == 0
        frame = wire.frame_message(msg, spec)
        assert frame == bytes([wire.TAG_ZERO, 0, 0])
        decoded, consumed = wire.unframe_message(frame, spec)
        assert decoded.is_zero
        assert consumed == 3

    def test_mix_arm_roundtrips(self):
        spec = mix_spec(d=4)
        l1_msg = mech.MixTagged(arm="L1", inner=mech.IndexSign(j=1, sign=1))
        l2_msg = mech.MixTagged(
            arm="L2", inner=mech.SparseSigned(pairs=((0, -1), (1, 1), (3, 1), (3, -1)))
        )
        f1 = wire.frame_message(l1_msg, spec)
        f2 = wire.frame_message(l2_msg, spec)
        assert f1[0] == wire.TAG_MIX_L1
        assert f2[0] == wire.TAG_MIX_L2
        d1, _ = wire.unframe_message(f1, spec)
        d2, _ = wire.unframe_message(f2, spec)
        assert d1 == l1_msg
        assert d2.arm == "L2"
        assert sorted(d2.inner.pairs) == sorted(l2_msg.inner.pairs)

    def test_raw_roundtrip(self):
        spec = l2_spec(d=3)
        msg = mech.RawVector(values=(0.5, -1.25, 3.0))
        frame = wire.frame_message(msg, spec)
        assert frame[0] == wire.TAG_RAW
        assert wire.message_payload_bits(msg, spec) == 64 * 3
        assert frame[3:] == struct.pack(">3d", 0.5, -1.25, 3.0)
        decoded, consumed = wire.unframe_message(frame, spec)
        assert decoded == msg
        assert consumed == len(frame) == 3 + 24

    def test_stream_of_frames(self):
        spec = l1_spec(d=4)
        msgs = [mech.IndexSign(j=j, sign=s) for j in range(4) for s in (-1, 1)]
        blob = b"".join(wire.frame_message(m, spec) for m in msgs)
        offset, out = 0, []
        while offset < len(blob):
            msg, consumed = wire.unframe_message(blob, spec, offset)
            out.append(msg)
            offset += consumed
        assert out == msgs

    def test_truncated_and_unknown_frames_rejected(self):
        spec = l1_spec(d=4)
        frame = wire.frame_message(mech.IndexSign(j=0, sign=1), spec)
        with pytest.raises(ValidationError):
            wire.unframe_message(frame[:2], spec)
        with pytest.raises(ValidationError):
            wire.unframe_message(bytes([0x7F, 0, 0]), spec)
        with pytest.raises(ValidationError):
            wire.frame_message(mech.RawVector(values=(1.0,)), spec)  # wrong length


class TestClientBits:
    def test_single_message_costs_itself(self):
        # A one-message round costs exactly the payload of that message.
        spec = linf_spec(d=8)
        msg = mech.IndexSign(j=3, sign=1)
        assert wire.message_payload_bits(msg, spec) == wire.multiset_bits(1, 16)
        assert wire.client_round_bits_exact(spec, s=1) == wire.message_payload_bits(msg, spec)

    def test_atom_batch_packs_as_multiset(self):
        # s index-sign atoms share one multiset over the 2d-atom alphabet,
        # which is never more expensive than s separate atoms.
        spec = linf_spec(d=8)
        got = wire.client_round_bits_exact(spec, s=3)
        assert got == wire.multiset_bits(3, 16)
        assert got <= 3 * wire.message_payload_bits(mech.IndexSign(j=3, sign=1), spec)

    def test_l1_batch_uses_padded_alphabet(self):
        spec = l1_spec(d=3)  # padded dim 4 -> alphabet 8
        assert wire.message_payload_bits(mech.IndexSign(j=2, sign=1), spec) == wire.multiset_bits(1, 8)
        assert wire.client_round_bits_exact(spec, s=2) == wire.multiset_bits(2, 8)

    def test_mixed_batch_sums(self):
        # An l2 message is d atoms over 2d, and the zero message costs nothing.
        spec = l2_spec(d=4)
        msgs = [
            mech.SparseSigned(pairs=((0, 1), (1, 1), (2, 1), (3, 1))),
            mech.SparseSigned(pairs=((0, 1),) * 4, is_zero=True),
        ]
        costs = [wire.message_payload_bits(msg, spec) for msg in msgs]
        assert costs == [wire.multiset_bits(4, 8), 0]

    def test_round_bits_exact_by_family(self):
        assert wire.client_round_bits_exact(l1_spec(d=3), s=1) == wire.multiset_bits(1, 8)
        assert wire.client_round_bits_exact(l1_spec(d=3), s=2) == wire.multiset_bits(2, 8)
        assert wire.client_round_bits_exact(linf_spec(d=8), s=1) == wire.multiset_bits(1, 16)
        assert wire.client_round_bits_exact(linf_spec(d=8), s=3) == wire.multiset_bits(3, 16)
        assert wire.client_round_bits_exact(l2_spec(d=4), s=2) == 2 * wire.multiset_bits(4, 8)
        # One coordinate sample per message at d = 1 is still a sparse
        # message: it costs its own payload and does not pack with the others.
        assert wire.client_round_bits_exact(l2_spec(d=1), s=3) == 3 * wire.multiset_bits(1, 2)

    def test_round_bits_exact_rejects_mix(self):
        with pytest.raises(ValidationError):
            wire.client_round_bits_exact(mix_spec(d=4), s=1)

    def test_round_payload_bits(self):
        params = SamplingParams(m=50, k=10, r=10, s=2)
        assert wire.round_payload_bits(None, params, 5) == 10 * 2 * 64 * 5
        assert wire.round_payload_bits(l1_spec(d=3), params, 3) == 10 * wire.multiset_bits(2, 8)
        assert wire.round_payload_bits(l2_spec(d=4), params, 4) == 20 * wire.multiset_bits(4, 8)
        # a mix round prices each message by its arm: 7 of the 20 ran the l1 arm
        got = wire.round_payload_bits(mix_spec(d=4), params, 4, l1_arm=7)
        assert got == 7 * wire.multiset_bits(1, 8) + 13 * wire.multiset_bits(4, 8)


def _l1_frame(j=2, sign=1):
    return wire.frame_message(mech.IndexSign(j=j, sign=sign), l1_spec(d=3))


MALFORMED = {
    "frame_length_negative_offset": lambda: wire.frame_length(b"xx" + _l1_frame(), -3),
    "frame_length_offset_minus_two": lambda: wire.frame_length(_l1_frame(), -2),
    "unframe_offset_minus_two": lambda: wire.unframe_message(_l1_frame(), l1_spec(d=3), -2),
    "l1_tag_under_l2_spec": lambda: wire.unframe_message(_l1_frame(), l2_spec(d=3)),
    "l2_tag_under_mix_spec": lambda: wire.unframe_message(
        wire.frame_message(mech.SparseSigned(pairs=((0, 1), (1, -1))), l2_spec(d=2)),
        mix_spec(d=2),
    ),
    "zero_tag_under_linf_spec": lambda: wire.unframe_message(bytes([0, 0, 0]), linf_spec(d=2)),
    "sparse_framed_under_l1_spec": lambda: wire.frame_message(
        mech.SparseSigned(pairs=((0, 1), (1, -1), (2, 1))), l1_spec(d=3)
    ),
    "index_signs_priced_under_l2_spec": lambda: wire.message_payload_bits(
        mech.IndexSign(j=0, sign=1), l2_spec(d=4)
    ),
    "zero_frame_with_payload": lambda: wire.unframe_message(
        bytes([0, 0, 16, 0xAB, 0xCD]), l2_spec(d=4)
    ),
    "nonzero_padding_bits": lambda: wire.unframe_message(
        _l1_frame()[:3] + bytes([_l1_frame()[3] | 0x01]), l1_spec(d=3)
    ),
    "one_atom_rank_beyond_alphabet": lambda: wire.unframe_message(
        bytes([wire.TAG_LINF_ATOM, 0, 4, 0xA0]), linf_spec(d=5)  # rank 10 of 10 atoms
    ),
    "raw_value_not_a_number": lambda: wire.frame_message(
        mech.RawVector(values=("a",)), l2_spec(d=1)
    ),
    "mix_l2_zero_message_framed": lambda: wire.frame_message(
        mech.MixTagged("L2", mech.SparseSigned(pairs=((0, 1),) * 2, is_zero=True)), mix_spec(d=2)
    ),
    "raw_frame_of_one_value_at_d2": lambda: wire.unframe_message(
        struct.pack(">BHd", wire.TAG_RAW, 64, 1.0), l2_spec(d=2)
    ),
}


# Public constructors and codes given fields of the wrong shape or type.
MALFORMED_FIELDS = {
    "sparse_pair_of_one": lambda: mech.SparseSigned(pairs=((0, 1), (1,))),
    "sparse_pairs_not_a_sequence": lambda: mech.SparseSigned(pairs=5),
    "raw_values_not_a_sequence": lambda: mech.RawVector(values=5),
    "histogram_rank_not_an_integer": lambda: wire.HistogramCode(rank="a", s=1, B=2),
    "pack_string_atom": lambda: wire.histogram_pack(["a"], 4),
    "pack_none_atom": lambda: wire.histogram_pack([None], 4),
    "index_sign_negative_index": lambda: mech.IndexSign(j=-1, sign=1),
    "index_sign_fractional_index": lambda: mech.IndexSign(j=1.5, sign=1),
    "index_sign_string_index": lambda: mech.IndexSign(j="a", sign=1),
    "index_sign_zero_sign": lambda: mech.IndexSign(j=3, sign=0),
    "index_sign_sign_two": lambda: mech.IndexSign(j=3, sign=2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_malformed_fields_raise_validation_error(case):
    with pytest.raises(ValidationError):
        MALFORMED_FIELDS[case]()


def test_index_sign_accepts_integral_fields():
    # A numpy integer index and a float sign equal to +-1 are accepted, keep
    # their values as given, and code as IndexSign(3, 1) does.
    spec = linf_spec(d=5)
    want = wire.frame_message(mech.IndexSign(j=3, sign=1), spec)
    for msg in (mech.IndexSign(np.int64(3), 1), mech.IndexSign(3, 1.0)):
        assert msg.atoms == (7,) and msg == mech.IndexSign(3, 1)
        assert wire.frame_message(msg, spec) == want
    assert type(mech.IndexSign(np.int64(3), 1).j) is np.int64
    assert type(mech.IndexSign(3, 1.0).sign) is float


class TestMalformedFrames:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected(self, case):
        with pytest.raises(ValidationError):
            MALFORMED[case]()

    def test_offset_at_end_wrong_length_and_foreign_message_rejected(self):
        with pytest.raises(ValidationError):
            wire.unframe_message(_l1_frame(), l1_spec(d=3), 4)
        with pytest.raises(ValidationError):
            wire.unframe_message(bytes([1, 0, 5, 0]), l1_spec(d=3))
        with pytest.raises(ValidationError):
            wire.frame_message(mech.IndexSign(j=0, sign=1), mix_spec(d=4))

    @pytest.mark.parametrize(
        "spec", [l1_spec(d=3), l2_spec(d=3), linf_spec(d=3), mix_spec(d=3)], ids=str
    )
    def test_raw_frames_legal_under_every_spec(self, spec):
        msg = mech.RawVector(values=(0.5, -1.0, 2.0))
        frame = wire.frame_message(msg, spec)
        assert wire.unframe_message(frame, spec) == (msg, len(frame))
        assert wire.frame_length(frame) == len(frame)


# Each fuzzed spec with the (tag, payload bits) headers of its own frames.
FUZZ_CASES = [
    (l1_spec(d=3), [(1, 3), (6, 192)]),
    (l2_spec(d=4), [(0, 0), (2, 9), (6, 256)]),
    (linf_spec(d=5), [(3, 4), (6, 320)]),
    (mix_spec(d=4, p=3.0), [(4, 3), (5, 9), (6, 256)]),
    (l2_spec(d=1), [(0, 0), (2, 1), (6, 64)]),
    (l1_spec(d=1000), [(1, 11), (6, 64000)]),
    (linf_spec(d=1000), [(3, 11), (6, 64000)]),
    (l2_spec(d=64), [(0, 0), (2, wire.multiset_bits(64, 128)), (6, 4096)]),
]


@st.composite
def fuzz_frames(draw):
    """(spec, bytes, offset): a header, half the time one of the spec's own,
    then either arbitrary bytes or a zero-padded integer of the declared length."""
    spec, headers = draw(st.sampled_from(FUZZ_CASES))
    prefix = draw(st.binary(max_size=3))
    tag, nbits = draw(
        st.one_of(
            st.sampled_from(headers), st.tuples(st.integers(0, 255), st.integers(0, 0xFFFF))
        )
    )
    if draw(st.booleans()):
        value = draw(st.integers(0, (1 << min(nbits, 64)) - 1))
        payload = (value << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")
    else:
        payload = draw(st.binary(max_size=48))
    suffix = draw(st.binary(max_size=2))
    offset = draw(st.one_of(st.just(len(prefix)), st.integers(-6, 8)))
    return spec, prefix + struct.pack(">BH", tag, nbits) + payload + suffix, offset


@given(fuzz_frames())
def test_unframe_fuzz(case):
    spec, data, offset = case
    try:
        msg, consumed = wire.unframe_message(data, spec, offset)
    except ValidationError:
        return
    assert wire.frame_length(data, offset) == consumed
    assert wire.frame_message(msg, spec) == data[offset : offset + consumed]


class TestLengthCap:
    def test_raw_frames_up_to_d_1023(self):
        spec = l2_spec(d=1023)
        frame = wire.frame_message(mech.RawVector(values=(1.0,) * 1023), spec)
        assert struct.unpack(">H", frame[1:3])[0] == 64 * 1023
        with pytest.raises(ValidationError):
            wire.frame_message(mech.RawVector(values=(1.0,) * 1024), l2_spec(d=1024))

    def test_l2_cost_fits_at_d_23791(self):
        msg = mech.SparseSigned(pairs=((0, 1),) * 23791)
        assert wire.message_payload_bits(msg, l2_spec(d=23791)) <= 0xFFFF

    def test_l2_over_cap_rejected_before_packing(self):
        d = 23792
        msg = mech.SparseSigned(pairs=tuple((c, 1) for c in range(d)))
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            wire.frame_message(msg, l2_spec(d=d))
        assert time.perf_counter() - start < 1.0


# wire_round's five spec shapes, (p, d, clients, mix_prob), at reduced client counts.
PIN_GROUPS = (
    (2.0, 128, 2, None),
    (2.0, 64, 4, None),
    (1.0, 1000, 40, None),
    (math.inf, 1000, 40, None),
    (1.5, 64, 8, 0.5),
)


def test_round_frames_are_frozen():
    # The encode -> frame byte stream of a fixed-seed round, then a zero and a
    # raw frame, hashed; every frame unframes and re-frames to its own bytes.
    gen = np.random.default_rng(5)
    digest, arms = hashlib.sha256(), set()
    pairs = []
    for p, d, n, mix_prob in PIN_GROUPS:
        spec = mech.MechanismSpec(BallSpec(p, 1.0, d), epsilon0=1.0, mix_prob=mix_prob)
        g = gen.standard_normal((n, d))
        rows = g * (gen.random(n) / np.linalg.norm(g, ord=p, axis=1))[:, None]
        for x in rows:
            msg = mech.encode_message(x, spec, gen)
            arms.add(getattr(msg, "arm", None))
            pairs.append((msg, spec))
    pairs.append((mech.SparseSigned(pairs=((0, 1),) * 64, is_zero=True), l2_spec(d=64)))
    pairs.append((mech.RawVector(values=(0.5, -1.25, 3.0)), l1_spec(d=3)))
    for msg, spec in pairs:
        frame = wire.frame_message(msg, spec)
        digest.update(frame)
        again, used = wire.unframe_message(frame, spec)
        assert used == len(frame) and wire.frame_message(again, spec) == frame
    assert arms == {None, "L1", "L2"}
    assert digest.hexdigest() == "ffb5ed0f159430bff7374dfd130b2f28eebd2384942d962edbbeb7a3e83ea63c"


def test_round_decodes_are_frozen():
    # The same fixed-seed round as above, decoded after unframing: each
    # group's mean_estimate, then every message's decode_message, hashed as
    # float64 bytes.
    gen = np.random.default_rng(5)
    digest = hashlib.sha256()
    for p, d, n, mix_prob in PIN_GROUPS:
        spec = mech.MechanismSpec(BallSpec(p, 1.0, d), epsilon0=1.0, mix_prob=mix_prob)
        g = gen.standard_normal((n, d))
        rows = g * (gen.random(n) / np.linalg.norm(g, ord=p, axis=1))[:, None]
        frames = [wire.frame_message(mech.encode_message(x, spec, gen), spec) for x in rows]
        received = [wire.unframe_message(frame, spec)[0] for frame in frames]
        digest.update(mech.mean_estimate(received, spec).astype("<f8").tobytes())
        for msg in received:
            digest.update(mech.decode_message(msg, spec).astype("<f8").tobytes())
    assert digest.hexdigest() == "64e3dce9f02fb93b5a69356aa7d036272fda6df0548397ba88a3b6b4c26b58d0"
