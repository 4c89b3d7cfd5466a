import hashlib
import hmac
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_bits import pack_bits, unpack_bits
from spdmark.keyspace import (
    BaseSecret,
    FrameMessage,
    KeyConfig,
    MessageSequence,
    SelectionMask,
    WatermarkKey,
    bits_to_hex,
    derive_frame_messages,
    derive_schedules,
    extraction_document,
    hex_to_bits,
    key_document,
    key_to_mask,
    mask_to_key,
    parse_extraction_document,
    parse_key_document,
    parse_schedule_document,
    random_key,
    schedule_document,
)


def hmac_sha256_reference(key: bytes, message: bytes) -> bytes:
    # Independent ipad/opad construction, used to cross-check derive_schedules.
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key.ljust(block, b"\x00")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + message).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).digest()


def test_hmac_reference_matches_published_vectors():
    # RFC 4231 test cases 1 and 2.
    assert hmac_sha256_reference(b"\x0b" * 20, b"Hi There").hex() == (
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    )
    assert hmac_sha256_reference(
        b"Jefe", b"what do ya want for nothing?"
    ).hex() == (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    )


class TestKeyConfig:
    def test_paper_scale_layout(self):
        cfg = KeyConfig(14, 4)
        assert cfg.message_bits == 28
        assert cfg.bits_per_layer == 2
        assert KeyConfig(7, 8).message_bits == 21

    def test_rejects_non_power_of_two_bases(self):
        for bases in (3, 1, 0, -4):
            with pytest.raises(ValueError, match="power of two"):
                KeyConfig(4, bases)


class TestKeyToMask:
    def test_worked_example(self):
        cfg = KeyConfig(2, 4)
        mask = key_to_mask(WatermarkKey((1, 0, 0, 1)), cfg)
        # Chunk "10" -> 2 -> third column, chunk "01" -> 1 -> second column.
        assert mask.mask.tolist() == [[0, 0, 1, 0], [0, 1, 0, 0]]

    def test_all_zero_key_selects_first_basis(self):
        cfg = KeyConfig(14, 4)
        mask = key_to_mask(WatermarkKey((0,) * 28), cfg)
        assert mask.mask.argmax(axis=1).tolist() == [0] * 14

    def test_rows_are_one_hot(self):
        cfg = KeyConfig(14, 4)
        for seed in range(50):
            mask = key_to_mask(random_key(cfg, seed), cfg)
            assert (mask.mask.sum(axis=1) == 1).all()

    def test_length_mismatch_rejected(self):
        cfg = KeyConfig(14, 4)
        with pytest.raises(ValueError):
            key_to_mask(WatermarkKey((0, 1)), cfg)


class TestWatermarkKey:
    @pytest.mark.parametrize("bits", [(0.7, 1), (1, "1")])
    def test_rejects_what_is_not_a_bit_before_converting(self, bits):
        """int() would truncate 0.7 to 0 and read "1" as 1."""
        with pytest.raises(ValueError, match="0/1"):
            WatermarkKey(bits)

    def test_bits_equal_to_0_or_1_read_as_ints(self):
        key = WatermarkKey((1.0, True, np.uint8(0), 0))
        assert key.bits == (1, 1, 0, 0)
        assert all(type(bit) is int for bit in key.bits)


class TestMaskToKey:
    def test_first_basis_everywhere_is_zero_key(self):
        cfg = KeyConfig(3, 8)
        mask = np.zeros((3, 8), dtype=np.uint8)
        mask[:, 0] = 1
        assert mask_to_key(SelectionMask(mask), cfg).bits == (0,) * 9

    def test_round_trip_random_keys(self):
        cfg = KeyConfig(14, 4)
        for seed in range(2000):
            key = random_key(cfg, seed)
            assert mask_to_key(key_to_mask(key, cfg), cfg) == key

    def test_invalid_row_rejected(self):
        with pytest.raises(ValueError):
            SelectionMask(np.array([[0, 0, 0, 0], [1, 0, 0, 0]]))
        with pytest.raises(ValueError):
            SelectionMask(np.array([[1, 1, 0, 0], [1, 0, 0, 0]]))

    @given(st.integers(1, 6), st.sampled_from([2, 4, 8]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, num_layers, bases, data):
        cfg = KeyConfig(num_layers, bases)
        bits = data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=cfg.message_bits,
                max_size=cfg.message_bits,
            )
        )
        key = WatermarkKey(tuple(bits))
        assert mask_to_key(key_to_mask(key, cfg), cfg) == key


class TestPacking:
    def test_pack_is_msb_first_with_zero_padding(self):
        # 28 bits fill 3.5 bytes; the final nibble must be zero.
        bits = (1,) * 28
        assert bits_to_hex(bits) == "fffffff0"
        np.testing.assert_array_equal(hex_to_bits("fffffff0", 28), bits)

    def test_single_bit(self):
        assert bits_to_hex((1,)) == "80"
        assert bits_to_hex((0, 0, 0, 0, 0, 0, 0, 1)) == "01"

    def test_hex_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            bits = rng.integers(0, 2, 28).astype(np.uint8)
            np.testing.assert_array_equal(hex_to_bits(bits_to_hex(bits), 28), bits)

    def test_unpack_rejects_short_input(self):
        with pytest.raises(ValueError):
            hex_to_bits("00", 9)

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pure_python_oracle(self, num_bits, data):
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=num_bits, max_size=num_bits)
        )
        text = bits_to_hex(bits)
        assert text == pack_bits(bits).hex()
        assert tuple(hex_to_bits(text, num_bits).tolist()) == tuple(bits)
        size = (num_bits + 7) // 8
        raw = data.draw(st.binary(min_size=size, max_size=size))
        padding = unpack_bits(raw, 8 * len(raw))[num_bits:]
        if any(padding):
            with pytest.raises(ValueError, match="padding"):
                hex_to_bits(raw.hex(), num_bits)
        else:
            assert tuple(hex_to_bits(raw.hex(), num_bits).tolist()) == unpack_bits(
                raw, num_bits
            )

    @pytest.mark.parametrize(
        "text, num_bits",
        [("9f", 4), ("01", 7), ("fff0", 8), ("ff", 9), ("", 1), ("f", 4), ("zz", 8)],
    )
    def test_rejects_wrong_length_padding_and_non_hex(self, text, num_bits):
        with pytest.raises(ValueError):
            hex_to_bits(text, num_bits)


class TestFrameMessages:
    cfg = KeyConfig(14, 4)
    secret = BaseSecret(b"0123456789abcdef")

    def test_matches_independent_hmac_reference(self):
        key = random_key(self.cfg, 11)
        schedule = derive_frame_messages(self.secret, key, 5)
        for msg in schedule:
            payload = (
                pack_bits(key.bits)
                + b"\x7c"
                + msg.frame_index.to_bytes(8, "big")
            )
            digest = hmac_sha256_reference(self.secret.key_bytes, payload)
            assert tuple(msg.bits.tolist()) == unpack_bits(digest, 28)

    def test_deterministic(self):
        key = random_key(self.cfg, 3)
        a = derive_frame_messages(self.secret, key, 10)
        b = derive_frame_messages(self.secret, key, 10)
        assert a == b

    def test_adjacent_frames_differ(self):
        key = random_key(self.cfg, 4)
        first, second = derive_frame_messages(self.secret, key, 2)
        assert not np.array_equal(first.bits, second.bits)

    def test_message_length_is_key_length(self):
        key = random_key(self.cfg, 9)
        for msg in derive_frame_messages(self.secret, key, 7):
            assert len(msg.bits) == 28

    def test_prefix_property(self):
        key = random_key(self.cfg, 21)
        short = derive_frame_messages(self.secret, key, 10)
        long = derive_frame_messages(self.secret, key, 17)
        np.testing.assert_array_equal(np.asarray(long)[:10], np.asarray(short))

    def test_frames_are_one_indexed(self):
        key = random_key(self.cfg, 2)
        schedule = derive_frame_messages(self.secret, key, 3)
        assert [m.frame_index for m in schedule] == [1, 2, 3]

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            derive_frame_messages(self.secret, random_key(self.cfg, 0), 0)

    def test_schedule_distinctness(self):
        # Collision probability per frame pair is 2^-28; a single observed
        # collision across 1000 schedules is flagged, not failed.
        collisions = 0
        for seed in range(1000):
            secret = BaseSecret(hashlib.sha256(b"secret%d" % seed).digest())
            key = random_key(self.cfg, 10_000 + seed)
            schedule = derive_frame_messages(secret, key, 25)
            seen = np.unique(np.asarray(schedule), axis=0)
            collisions += 25 - len(seen)
        if collisions == 1:
            warnings.warn("one frame-message collision observed (prob ~1e-3)")
        else:
            assert collisions == 0


class TestSchedules:
    secret = BaseSecret(b"0123456789abcdef")

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        num_keys=st.integers(1, 50),
        num_frames=st.integers(1, 40),
        width=st.integers(1, 256),
        secret=st.binary(min_size=16, max_size=80),
    )
    def test_equals_per_key_derivation_and_hmac_reference(
        self, data, num_keys, num_frames, width, secret
    ):
        size = (width + 7) // 8
        keys = [
            WatermarkKey(unpack_bits(raw, width))
            for raw in data.draw(
                st.lists(st.binary(min_size=size, max_size=size),
                         min_size=num_keys, max_size=num_keys)
            )
        ]
        secret = BaseSecret(secret)
        stacked = derive_schedules(secret, keys, num_frames)
        assert isinstance(stacked, MessageSequence)
        assert stacked.messages.shape == (num_keys * num_frames, width)
        assert stacked.messages.dtype == np.uint8
        assert stacked.messages.flags.c_contiguous
        assert not stacked.messages.flags.writeable
        runs = stacked.messages.reshape(num_keys, num_frames, width)
        for key, rows in zip(keys, runs):
            one = derive_frame_messages(secret, key, num_frames)
            assert rows.tobytes() == one.messages.tobytes()
            for t, row in enumerate(rows, 1):
                payload = pack_bits(key.bits) + b"\x7c" + t.to_bytes(8, "big")
                digest = hmac_sha256_reference(secret.key_bytes, payload)
                assert tuple(row.tolist()) == unpack_bits(digest, width)

    @pytest.mark.parametrize("length", [16, 63, 64, 65, 200])
    def test_secret_lengths_around_one_block(self, length):
        # A secret of one SHA-256 block (64 bytes) is padded; a longer one
        # is hashed first.  Each schedule equals both the reference and the
        # standard library's HMAC.
        secret = BaseSecret(bytes((7 * i + length) % 256 for i in range(length)))
        keys = [WatermarkKey(unpack_bits(bytes([k, 255 - k, 3 * k % 256]), 20)) for k in range(3)]
        runs = derive_schedules(secret, keys, 9).messages.reshape(3, 9, 20)
        for key, rows in zip(keys, runs):
            for t, row in enumerate(rows, 1):
                payload = pack_bits(key.bits) + b"\x7c" + t.to_bytes(8, "big")
                digest = hmac_sha256_reference(secret.key_bytes, payload)
                assert digest == hmac.digest(secret.key_bytes, payload, "sha256")
                assert tuple(row.tolist()) == unpack_bits(digest, 20)

    def test_rejects_no_keys_mixed_widths_and_no_frames(self):
        with pytest.raises(ValueError):
            derive_schedules(self.secret, [], 3)
        with pytest.raises(ValueError):
            derive_schedules(self.secret, [WatermarkKey((1, 0)), WatermarkKey((1,))], 3)
        with pytest.raises(ValueError):
            derive_schedules(self.secret, [WatermarkKey((1, 0))], 0)
        with pytest.raises(ValueError):
            derive_schedules(self.secret, [WatermarkKey((1,) * 257)], 1)

class TestMessageSequence:
    def test_holds_a_read_only_copy(self):
        source = np.array([[1, 0, 1], [0, 0, 1]])
        seq = MessageSequence(source)
        source[0, 0] = 0
        assert seq.messages.dtype == np.uint8
        assert seq.messages.flags.c_contiguous
        assert seq.messages[0, 0] == 1
        with pytest.raises(ValueError):
            seq.messages[0, 0] = 0
        assert np.asarray(seq) is seq.messages
        assert len(seq) == 2
        assert seq.message_bits == 3

    def test_iterates_one_based_frame_messages(self):
        seq = MessageSequence([[1, 0], [0, 1], [1, 1]])
        frames = list(seq)
        assert [frame.frame_index for frame in frames] == [1, 2, 3]
        assert all(isinstance(frame, FrameMessage) for frame in frames)
        np.testing.assert_array_equal(frames[1].bits, [0, 1])
        with pytest.raises(ValueError):
            frames[1].bits[0] = 1

    def test_value_equality_and_no_hash(self):
        a = MessageSequence([[1, 0], [0, 1]])
        assert a == MessageSequence(np.array([[True, False], [False, True]]))
        assert a != MessageSequence([[1, 0], [1, 1]])
        assert a != MessageSequence([[1, 0]])
        assert a != [[1, 0], [0, 1]]
        with pytest.raises(TypeError):
            hash(a)

    @pytest.mark.parametrize(
        "messages",
        [[], [[]], [1, 0], [[[1]]], [[1, 2]], [[1, -1]], [[0.5, 1]], [[1, 0], [1]],
         [["1", "0"]], [[None, 1]]],
    )
    def test_rejects_what_is_not_a_bit_matrix(self, messages):
        with pytest.raises(ValueError):
            MessageSequence(messages)


class TestSecret:
    def test_short_secret_rejected(self):
        with pytest.raises(ValueError):
            BaseSecret(b"too-short")

    def test_sixteen_bytes_accepted(self):
        BaseSecret(b"x" * 16)


class TestScheduleDocument:
    def test_round_trip(self):
        cfg = KeyConfig(14, 4)
        secret = BaseSecret(b"fedcba9876543210")
        key = random_key(cfg, 6)
        frames = derive_frame_messages(secret, key, 25)
        doc = schedule_document(cfg, key, frames)
        cfg2, key2, frames2 = parse_schedule_document(doc)
        assert cfg2 == cfg
        assert key2 == key
        assert frames2 == frames

    def test_document_shape(self):
        cfg = KeyConfig(2, 4)
        key = WatermarkKey((1, 0, 0, 1))
        frames = MessageSequence([[1, 0, 0, 1]])
        doc = schedule_document(cfg, key, frames)
        assert doc["config"] == {"L": 2, "P": 4, "M": 4}
        assert doc["key_hex"] == "90"
        assert doc["frames"][0] == {"t": 1, "bits_hex": "90"}

    def test_extraction_round_trip(self):
        seq = MessageSequence(np.random.default_rng(1).integers(0, 2, (6, 11)))
        doc = extraction_document(seq)
        assert doc["message_bits"] == 11
        assert [entry["t"] for entry in doc["frames"]] == list(range(1, 7))
        assert parse_extraction_document(doc) == seq
        doc["frames"].reverse()
        assert parse_extraction_document(doc) == seq

    @pytest.mark.parametrize(
        "frames",
        [
            [{"t": 1, "bits_hex": "90"}, {"t": 1, "bits_hex": "90"}],
            [{"t": 1, "bits_hex": "90"}, {"t": 3, "bits_hex": "90"}],
            [{"t": 2, "bits_hex": "90"}],
            [{"t": 0, "bits_hex": "90"}],
            [{"t": 1, "bits_hex": "9000"}],
            [{"t": 1, "bits_hex": "9f"}],
            [{"t": 1, "bits_hex": ""}],
            [{"t": 1, "bits_hex": 144}],
            [{"t": [1], "bits_hex": "90"}],
            [{"t": 1}],
            [],
            {"t": 1, "bits_hex": "90"},
        ],
    )
    def test_frames_must_be_exactly_one_to_t(self, frames):
        cfg = KeyConfig(2, 4)
        doc = schedule_document(
            cfg, WatermarkKey((1, 0, 0, 1)), MessageSequence([[1, 0, 0, 1]])
        )
        with pytest.raises(ValueError):
            parse_schedule_document({**doc, "frames": frames})
        with pytest.raises(ValueError):
            parse_extraction_document({"message_bits": 4, "frames": frames})

    def test_width_other_than_the_layout_rejected(self):
        # A key document comes from outside: its M must equal L * log2(P).
        doc = key_document(KeyConfig(14, 4), WatermarkKey((0, 1) * 14))
        doc["config"]["M"] = 27
        with pytest.raises(ValueError, match=r"L \* log2\(P\) = 28, got 27"):
            parse_key_document(doc)

    def test_missing_keys_are_value_errors(self):
        cfg = KeyConfig(2, 4)
        doc = schedule_document(
            cfg, WatermarkKey((1, 0, 0, 1)), MessageSequence([[1, 0, 0, 1]])
        )
        with pytest.raises(ValueError, match="missing key 'config'"):
            parse_key_document({})
        with pytest.raises(ValueError, match="missing key 'key_hex'"):
            parse_key_document({"config": doc["config"]})
        with pytest.raises(ValueError, match="missing key 'frames'"):
            parse_schedule_document({k: v for k, v in doc.items() if k != "frames"})
        with pytest.raises(ValueError, match="missing key 'message_bits'"):
            parse_extraction_document({"frames": doc["frames"]})
