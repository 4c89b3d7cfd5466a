import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmark.keyspace import (
    BaseSecret,
    FrameMessage,
    KeyConfig,
    SelectionMask,
    WatermarkKey,
    bits_to_hex,
    derive_frame_messages,
    hex_to_bits,
    key_to_mask,
    mask_to_key,
    pack_bits,
    parse_schedule_document,
    random_key,
    schedule_document,
    unpack_bits,
)


def hmac_sha256_reference(key: bytes, message: bytes) -> bytes:
    # Independent ipad/opad construction, used to cross-check the hmac module.
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
        cfg = KeyConfig.from_layout(14, 4)
        assert cfg.message_bits == 28
        assert cfg.bits_per_layer == 2

    def test_rejects_inconsistent_message_bits(self):
        with pytest.raises(ValueError):
            KeyConfig(num_layers=14, bases_per_layer=4, message_bits=27)

    def test_rejects_non_power_of_two_bases(self):
        with pytest.raises(ValueError):
            KeyConfig.from_layout(4, 3)
        with pytest.raises(ValueError):
            KeyConfig.from_layout(4, 1)


class TestKeyToMask:
    def test_worked_example(self):
        cfg = KeyConfig.from_layout(2, 4)
        mask = key_to_mask(WatermarkKey((1, 0, 0, 1)), cfg)
        # Chunk "10" -> 2 -> third column, chunk "01" -> 1 -> second column.
        assert mask.mask.tolist() == [[0, 0, 1, 0], [0, 1, 0, 0]]

    def test_all_zero_key_selects_first_basis(self):
        cfg = KeyConfig.from_layout(14, 4)
        mask = key_to_mask(WatermarkKey((0,) * 28), cfg)
        assert mask.mask.argmax(axis=1).tolist() == [0] * 14

    def test_rows_are_one_hot(self):
        cfg = KeyConfig.from_layout(14, 4)
        for seed in range(50):
            mask = key_to_mask(random_key(cfg, seed), cfg)
            assert (mask.mask.sum(axis=1) == 1).all()

    def test_length_mismatch_rejected(self):
        cfg = KeyConfig.from_layout(14, 4)
        with pytest.raises(ValueError):
            key_to_mask(WatermarkKey((0, 1)), cfg)


class TestMaskToKey:
    def test_first_basis_everywhere_is_zero_key(self):
        cfg = KeyConfig.from_layout(3, 8)
        mask = np.zeros((3, 8), dtype=np.uint8)
        mask[:, 0] = 1
        assert mask_to_key(SelectionMask(mask), cfg).bits == (0,) * 9

    def test_round_trip_random_keys(self):
        cfg = KeyConfig.from_layout(14, 4)
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
        cfg = KeyConfig.from_layout(num_layers, bases)
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
        packed = pack_bits(bits)
        assert packed == b"\xff\xff\xff\xf0"
        assert unpack_bits(packed, 28) == bits

    def test_single_bit(self):
        assert pack_bits((1,)) == b"\x80"
        assert pack_bits((0, 0, 0, 0, 0, 0, 0, 1)) == b"\x01"

    def test_hex_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            bits = tuple(int(b) for b in rng.integers(0, 2, 28))
            assert hex_to_bits(bits_to_hex(bits), 28) == bits

    def test_unpack_rejects_short_input(self):
        with pytest.raises(ValueError):
            unpack_bits(b"\x00", 9)


class TestFrameMessages:
    cfg = KeyConfig.from_layout(14, 4)
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
            assert msg.bits == unpack_bits(digest, 28)

    def test_deterministic(self):
        key = random_key(self.cfg, 3)
        a = derive_frame_messages(self.secret, key, 10)
        b = derive_frame_messages(self.secret, key, 10)
        assert a == b

    def test_adjacent_frames_differ(self):
        key = random_key(self.cfg, 4)
        schedule = derive_frame_messages(self.secret, key, 2)
        assert schedule[0].bits != schedule[1].bits

    def test_message_length_is_key_length(self):
        key = random_key(self.cfg, 9)
        for msg in derive_frame_messages(self.secret, key, 7):
            assert len(msg.bits) == 28

    def test_prefix_property(self):
        key = random_key(self.cfg, 21)
        short = derive_frame_messages(self.secret, key, 10)
        long = derive_frame_messages(self.secret, key, 17)
        assert long[:10] == short

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
            seen = {msg.bits for msg in schedule}
            collisions += 25 - len(seen)
        if collisions == 1:
            warnings.warn("one frame-message collision observed (prob ~1e-3)")
        else:
            assert collisions == 0


class TestSecret:
    def test_short_secret_rejected(self):
        with pytest.raises(ValueError):
            BaseSecret(b"too-short")

    def test_sixteen_bytes_accepted(self):
        BaseSecret(b"x" * 16)


class TestScheduleDocument:
    def test_round_trip(self):
        cfg = KeyConfig.from_layout(14, 4)
        secret = BaseSecret(b"fedcba9876543210")
        key = random_key(cfg, 6)
        frames = derive_frame_messages(secret, key, 25)
        doc = schedule_document(cfg, key, frames)
        cfg2, key2, frames2 = parse_schedule_document(doc)
        assert cfg2 == cfg
        assert key2 == key
        assert frames2 == frames

    def test_document_shape(self):
        cfg = KeyConfig.from_layout(2, 4)
        key = WatermarkKey((1, 0, 0, 1))
        frames = [FrameMessage(1, (1, 0, 0, 1))]
        doc = schedule_document(cfg, key, frames)
        assert doc["config"] == {"L": 2, "P": 4, "M": 4}
        assert doc["key_hex"] == "90"
        assert doc["frames"][0] == {"t": 1, "bits_hex": "90"}
