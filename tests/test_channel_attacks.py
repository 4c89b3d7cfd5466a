import dataclasses
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_attacks
from spdmark.channel_attacks import (
    MAX_FRAMES,
    ChannelSpec,
    TamperRecord,
    apply_attack,
    attack_drop,
    attack_insert,
    attack_pixel_noise,
    attack_rescale,
    attack_swap_adjacent,
    attack_swap_random,
    attack_trim,
    channel_extract,
    floor_count,
    rounded_count,
)
from spdmark.keyspace import (
    BaseSecret,
    KeyConfig,
    MessageSequence,
    derive_frame_messages,
    random_key,
)

CFG = KeyConfig(14, 4)
SECRET = BaseSecret(b"attack-test-secret-0")


# The message of a record whose lengths break the frame bound.
OUT_OF_BOUND = re.escape(f"[1, {MAX_FRAMES}]")


def make_sequence(num_frames: int, seed: int = 0) -> MessageSequence:
    key = random_key(CFG, seed)
    schedule = derive_frame_messages(SECRET, key, num_frames)
    return channel_extract(schedule, ChannelSpec())


# A record with a trim, drops, inserts and a reordering.
RECORD = TamperRecord(8, 7, {2: 3, 3: 1, 5: 2, 6: 5, 7: 7}, trim_head=1)


def no_op_record(seq: MessageSequence) -> TamperRecord:
    return apply_attack(seq, {"attack": "none"})[1]


def make_video(num_frames: int) -> np.ndarray:
    # Pixel (0, 0, 0) encodes the original frame index so structural edits
    # can be traced through an attack.
    video = np.full((num_frames, 3, 2, 2), 0.5)
    video[:, 0, 0, 0] = np.arange(1, num_frames + 1) / 1000.0
    return video


def encoded_index(frame: np.ndarray) -> int:
    return round(frame[0, 0, 0] * 1000.0)


class TestCounts:
    def test_rounding_uses_exact_decimal_value(self):
        # 25 * 0.3 is 7.4999... in binary floats but exactly 7.5 in decimal,
        # and half-to-even sends it to 8.
        assert rounded_count(25, 0.3) == 8
        assert rounded_count(25, 0.5) == 12
        assert rounded_count(10, 0.15) == 2
        assert rounded_count(10, 0.25) == 2
        assert rounded_count(25, 0.2) == 5

    def test_floor_uses_exact_decimal_value(self):
        assert floor_count(10, 0.7) == 7
        assert floor_count(8, 0.3) == 2
        assert floor_count(25, 0.2) == 5

    @pytest.mark.parametrize("count", [rounded_count, floor_count])
    @pytest.mark.parametrize("fraction", ["0.3", True, None])
    def test_fraction_must_be_a_number(self, count, fraction):
        # The type rule the attacks apply to their fractions: "0.3" would
        # otherwise read as the decimal 0.3 and True as 1.
        with pytest.raises(TypeError):
            count(25, fraction)

    def test_number_fractions_read_as_before(self):
        assert floor_count(25, 0.3) == 7
        assert rounded_count(25, 1) == floor_count(25, 1) == 25
        assert rounded_count(25, np.float64(0.3)) == 8


class TestChannelExtract:
    def test_ideal_is_exact_copy(self):
        key = random_key(CFG, 1)
        schedule = derive_frame_messages(SECRET, key, 10)
        extracted = channel_extract(schedule, ChannelSpec())
        np.testing.assert_array_equal(extracted.messages, schedule.messages)

    def test_zero_flip_probability_equals_ideal(self):
        key = random_key(CFG, 2)
        schedule = derive_frame_messages(SECRET, key, 10)
        ideal = channel_extract(schedule, ChannelSpec())
        flipped = channel_extract(schedule, ChannelSpec(0.0, seed=3))
        assert ideal == flipped

    def test_bitflip_deterministic_under_seed(self):
        key = random_key(CFG, 3)
        schedule = derive_frame_messages(SECRET, key, 20)
        a = channel_extract(schedule, ChannelSpec(0.1, seed=5))
        b = channel_extract(schedule, ChannelSpec(0.1, seed=5))
        c = channel_extract(schedule, ChannelSpec(0.1, seed=6))
        assert a == b
        assert a != c

    def test_half_flip_matched_bits_follow_binomial_ks(self):
        # 1e5 frames at q = 0.5; matched-bit counts must follow
        # Binomial(28, 1/2) by a Kolmogorov-Smirnov test at the 1% level
        # (conservative for discrete distributions).
        num = 100_000
        key = random_key(CFG, 4)
        expected = derive_frame_messages(SECRET, key, 1).messages[0]
        schedule = MessageSequence(np.tile(expected, (num, 1)))
        extracted = channel_extract(schedule, ChannelSpec(0.5, seed=11))
        got = extracted.messages
        matched = (got == expected).sum(axis=1)
        counts = np.bincount(matched, minlength=29)
        empirical_cdf = np.cumsum(counts) / num
        exact_cdf = np.cumsum(
            [math.comb(28, j) for j in range(29)]
        ) / float(2**28)
        distance = np.abs(empirical_cdf - exact_cdf).max()
        assert distance <= 1.628 / math.sqrt(num)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(1.5)
        with pytest.raises(ValueError):
            ChannelSpec(-0.1)


class TestDrop:
    def test_counting_near_half(self):
        seq = make_sequence(25)
        attacked, record = attack_drop(seq, 0.5, seed=1)
        assert len(record.dropped) == 12
        assert len(attacked) == 13
        assert record.output_length == 13

    def test_zero_fraction_is_identity(self):
        seq = make_sequence(10)
        attacked, record = attack_drop(seq, 0.0, seed=1)
        assert attacked == seq
        assert record == no_op_record(seq)

    def test_dropped_count_matches_rule(self):
        for t, fraction in [(25, 0.5), (20, 0.3), (7, 0.4), (13, 0.9)]:
            seq = make_sequence(t)
            _, record = attack_drop(seq, fraction, seed=2)
            assert len(record.dropped) == rounded_count(t, fraction)

    def test_survivor_order_preserved(self):
        seq = make_sequence(25)
        attacked, record = attack_drop(seq, 0.5, seed=3)
        survivors = [i for i in range(1, 26) if i not in record.dropped]
        np.testing.assert_array_equal(
            attacked.messages, seq.messages[np.array(survivors) - 1]
        )
        assert record.permutation == {
            orig: pos + 1 for pos, orig in enumerate(survivors)
        }

    def test_dropping_everything_rejected(self):
        seq = make_sequence(2)
        with pytest.raises(ValueError):
            attack_drop(seq, 0.9, seed=1)


class TestSwapRandom:
    def test_single_frame_is_identity(self):
        seq = make_sequence(1)
        attacked, record = attack_swap_random(seq, seed=4)
        assert attacked == seq
        assert record == no_op_record(seq)

    def test_inverse_permutation_restores_order(self):
        seq = make_sequence(12)
        attacked, record = attack_swap_random(seq, seed=5)
        restored = np.empty_like(seq.messages)
        for orig, pos in record.permutation.items():
            restored[orig - 1] = attacked.messages[pos - 1]
        np.testing.assert_array_equal(restored, seq.messages)

    def test_permutations_are_uniform(self):
        # 1e4 trials at T=5: each of the 120 permutations within 4 sigma of
        # its multinomial expectation.
        trials = 10_000
        seen = Counter()
        seq = make_sequence(5)
        for seed in range(trials):
            _, record = attack_swap_random(seq, seed=seed)
            seen[tuple(record.permutation[i] for i in range(1, 6))] += 1
        assert len(seen) == 120
        expected = trials / 120
        sigma = math.sqrt(trials * (1 / 120) * (119 / 120))
        for count in seen.values():
            assert abs(count - expected) <= 4 * sigma


class TestSwapAdjacent:
    def test_zero_fraction_is_identity(self):
        seq = make_sequence(9)
        attacked, record = attack_swap_adjacent(seq, 0.0, seed=1)
        assert attacked == seq
        assert record == no_op_record(seq)

    def test_pair_count_rule(self):
        seq = make_sequence(16)
        _, record = attack_swap_adjacent(seq, 0.3, seed=2)
        moved = {k for k, v in record.permutation.items() if k != v}
        assert len(moved) == 2 * floor_count(8, 0.3)

    def test_each_swap_is_one_descent(self):
        seq = make_sequence(16)
        _, record = attack_swap_adjacent(seq, 0.5, seed=3)
        order = [None] * 16
        for orig, pos in record.permutation.items():
            order[pos - 1] = orig
        descents = sum(1 for a, b in zip(order, order[1:]) if a > b)
        assert descents == floor_count(8, 0.5)

    def test_swapped_pairs_are_disjoint_partition_pairs(self):
        seq = make_sequence(20)
        _, record = attack_swap_adjacent(seq, 1.0, seed=4)
        for i in range(1, 21, 2):
            assert record.permutation[i] == i + 1
            assert record.permutation[i + 1] == i


class TestInsert:
    def test_zero_fraction_is_identity(self):
        seq = make_sequence(10)
        attacked, record = attack_insert(seq, 0.0, "duplicate", seed=1)
        assert attacked == seq
        assert record == no_op_record(seq)

    def test_output_length_rule(self):
        for t, fraction in [(25, 0.2), (10, 0.25), (8, 0.5)]:
            seq = make_sequence(t)
            attacked, record = attack_insert(seq, fraction, "noise", seed=2)
            assert len(attacked) == t + rounded_count(t, fraction)
            assert len(record.inserted) == rounded_count(t, fraction)

    def test_duplicate_mode_copies_existing_frames(self):
        seq = make_sequence(10)
        attacked, record = attack_insert(seq, 0.5, "duplicate", seed=3)
        for pos in record.inserted:
            assert (seq.messages == attacked.messages[pos - 1]).all(axis=1).any()

    def test_surviving_frames_keep_order(self):
        seq = make_sequence(10)
        attacked, record = attack_insert(seq, 0.3, "noise", seed=4)
        kept = [record.permutation[i] - 1 for i in range(1, 11)]
        np.testing.assert_array_equal(attacked.messages[kept], seq.messages)
        assert sorted(record.permutation.values()) == [
            p for p in range(1, len(attacked) + 1) if p not in record.inserted
        ]

    def test_noise_messages_are_unbiased(self):
        # Inserted random messages should agree with any fixed message on
        # about half the bits.
        seq = make_sequence(4)
        reference = seq.messages[0]
        matches = []
        for seed in range(500):
            attacked, record = attack_insert(seq, 1.0, "noise", seed=seed)
            for pos in record.inserted:
                inserted = attacked.messages[pos - 1]
                matches.append((inserted == reference).sum())
        mean = np.mean(matches)
        sigma = math.sqrt(28 * 0.25 / len(matches))
        assert abs(mean - 14.0) <= 4 * sigma

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            attack_insert(make_sequence(5), 0.2, "mirror", seed=1)

    def test_frame_bound_checked_before_the_draw(self, monkeypatch):
        """The bound holds before any row is drawn or copied, so the cost of
        a rejected fraction does not grow with it."""
        def no_draw(seed):
            raise AssertionError("drew before checking the frame bound")

        seq = make_sequence(25)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=OUT_OF_BOUND):
            attack_insert(seq, 200.0, "duplicate", seed=1)


class TestTrim:
    def test_survivors_for_quarter_length_video(self):
        seq = make_sequence(25)
        attacked, record = attack_trim(seq, 0.2, 0.2)
        assert record.trim_head == 5
        assert record.trim_tail == 5
        assert len(attacked) == 15
        np.testing.assert_array_equal(attacked.messages, seq.messages[5:20])
        assert record.permutation == {orig: orig - 5 for orig in range(6, 21)}

    def test_zero_trim_is_identity(self):
        seq = make_sequence(10)
        attacked, record = attack_trim(seq, 0.0, 0.0)
        assert attacked == seq
        assert record == no_op_record(seq)

    def test_removed_indices_cover_both_ends(self):
        seq = make_sequence(25)
        _, record = attack_trim(seq, 0.2, 0.2)
        assert record.removed_indices == frozenset(range(1, 6)) | frozenset(
            range(21, 26)
        )

    def test_trimming_everything_rejected(self):
        seq = make_sequence(4)
        with pytest.raises(ValueError):
            attack_trim(seq, 0.5, 0.5)


class TestRecordReconciliation:
    @given(
        st.integers(2, 30),
        st.sampled_from(["drop", "swap_random", "swap_adjacent", "insert", "trim"]),
        st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_attack_reconciles(self, num_frames, attack, seed):
        seq = make_sequence(num_frames, seed=seed % 7)
        if attack == "drop":
            attacked, record = attack_drop(seq, 0.4, seed=seed)
        elif attack == "swap_random":
            attacked, record = attack_swap_random(seq, seed=seed)
        elif attack == "swap_adjacent":
            attacked, record = attack_swap_adjacent(seq, 0.5, seed=seed)
        elif attack == "insert":
            attacked, record = attack_insert(seq, 0.3, "noise", seed=seed)
        else:
            attacked, record = attack_trim(seq, 0.25, 0.25)
        # TamperRecord validates its own arithmetic on construction; check
        # the attacked object against the record's mapping as well.
        assert record.source_length == num_frames
        assert record.output_length == len(attacked)
        for orig, pos in record.permutation.items():
            np.testing.assert_array_equal(
                attacked.messages[pos - 1], seq.messages[orig - 1]
            )

    def test_record_document_round_trip(self):
        seq = make_sequence(20)
        _, record = attack_insert(seq, 0.3, "duplicate", seed=9)
        assert TamperRecord.from_doc(record.to_doc()) == record

    def test_record_document_missing_key_rejected(self):
        with pytest.raises(ValueError, match="'source_length'"):
            TamperRecord.from_doc({})
        doc = apply_attack(make_sequence(4), {"attack": "none"})[1].to_doc()
        del doc["permutation"]
        with pytest.raises(ValueError, match="'permutation'"):
            TamperRecord.from_doc(doc)

    def test_inconsistent_record_rejected(self):
        # Two originals on one position, a position past or before the
        # output, an original past the source, and a trimmed original.
        for permutation, trim_head in [({1: 1, 2: 1}, 0), ({1: 6}, 0), ({1: 0}, 0),
                                       ({6: 1}, 0), ({1: 1}, 1)]:
            with pytest.raises(ValueError, match="one-to-one"):
                TamperRecord(5, 5, permutation, trim_head)

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.dictionaries(st.integers(-1, 9), st.integers(-1, 9), max_size=8),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    @settings(max_examples=500, deadline=None)
    def test_validation_matches_set_based_rules(self, t, t_r, permutation, head, tail):
        # The record's rule, stated with explicit index sets: the
        # permutation maps untrimmed originals one-to-one into [1, T_r].
        targets = list(permutation.values())
        valid = (
            head + tail < t
            and set(permutation) <= set(range(head + 1, t - tail + 1))
            and set(targets) <= set(range(1, t_r + 1))
            and len(set(targets)) == len(targets)
        )
        if valid:
            record = TamperRecord(t, t_r, permutation, head, tail)
            assert record.dropped == set(range(head + 1, t - tail + 1)) - set(permutation)
            assert record.inserted == set(range(1, t_r + 1)) - set(targets)
            assert record.removed_indices == set(range(1, t + 1)) - set(permutation)
        else:
            with pytest.raises(ValueError):
                TamperRecord(t, t_r, permutation, head, tail)

    @given(st.data(), st.integers(1, 12), st.integers(1, 12), st.integers(0, 5),
           st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_every_record_reads_back_as_written(self, data, t, t_r, head, tail):
        assume(head + tail < t)
        untrimmed = range(head + 1, t - tail + 1)
        kept = data.draw(st.lists(st.sampled_from(untrimmed), unique=True,
                                  max_size=min(len(untrimmed), t_r)))
        slots = data.draw(st.permutations(range(1, t_r + 1)))
        record = TamperRecord(t, t_r, dict(zip(kept, slots)), head, tail)
        doc = json.loads(json.dumps(record.to_doc()))
        assert TamperRecord.from_doc(doc) == record

    def test_record_holds_the_map_and_derives_the_sets(self):
        assert [f.name for f in dataclasses.fields(TamperRecord)] == [
            "source_length", "output_length", "permutation", "trim_head", "trim_tail"
        ]
        assert RECORD.dropped == {4, 8}
        assert RECORD.inserted == {4, 6}
        assert RECORD.removed_indices == {1, 4, 8}

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["dropped"].append(doc["dropped"][0]),
        lambda doc: doc["inserted"].append(doc["inserted"][0]),
        lambda doc: doc["permutation"].reverse(),
        lambda doc: doc["dropped"].pop(),
        lambda doc: doc["dropped"].append(doc["permutation"][0][0]),
        lambda doc: doc.update(extra=None),
        lambda doc: doc.update(trim_tail=0.0),
        lambda doc: doc.pop("inserted"),
    ], ids=["duplicate-drop", "duplicate-insert", "reordered-permutation",
            "missing-drop", "surplus-drop", "extra-key", "float-trim", "no-inserts"])
    def test_record_read_back_only_as_written(self, edit):
        doc = json.loads(json.dumps(RECORD.to_doc()))
        assert TamperRecord.from_doc(doc) == RECORD
        edit(doc)
        with pytest.raises(ValueError):
            TamperRecord.from_doc(doc)

    def test_huge_lengths_checked_without_enumerating_them(self):
        huge = 10**18
        doc = apply_attack(make_sequence(3), {"attack": "none"})[1].to_doc()
        with pytest.raises(ValueError, match=OUT_OF_BOUND):
            TamperRecord.from_doc({**doc, "source_length": huge})
        with pytest.raises(ValueError, match=OUT_OF_BOUND):
            TamperRecord.from_doc({**doc, "output_length": huge, "inserted": [huge]})
        with pytest.raises(ValueError, match="not the document its own fields write"):
            TamperRecord.from_doc({**doc, "source_length": MAX_FRAMES})
        last = MAX_FRAMES
        record = TamperRecord.from_doc(
            {**doc, "source_length": last, "trim_head": last - 3,
             "permutation": [[last - 2, 1], [last - 1, 2], [last, 3]]}
        )
        assert record.output_length == 3

    def test_attacks_share_the_frame_bound(self):
        bits = np.zeros((MAX_FRAMES + 1, 4), dtype=np.uint8)
        _, record = apply_attack(MessageSequence(bits[:-1]), {"attack": "none"})
        assert record.source_length == MAX_FRAMES
        with pytest.raises(ValueError, match=OUT_OF_BOUND):
            apply_attack(MessageSequence(bits), {"attack": "none"})
        with pytest.raises(ValueError, match=OUT_OF_BOUND):
            attack_insert(MessageSequence(bits[:-1]), 0.5, "noise", seed=1)


class TestVideoMessageCommutation:
    @pytest.mark.parametrize(
        "spec",
        [
            {"attack": "drop", "fraction": 0.5, "seed": 7},
            {"attack": "swap_random", "seed": 7},
            {"attack": "swap_adjacent", "pair_fraction": 0.3, "seed": 7},
            {"attack": "insert", "fraction": 0.2, "mode": "duplicate", "seed": 7},
            {"attack": "trim", "head_fraction": 0.2, "tail_fraction": 0.2},
        ],
    )
    def test_structural_edit_commutes_with_ideal_extraction(self, spec):
        seq = make_sequence(25)
        video = make_video(25)
        attacked_seq, record_seq = apply_attack(seq, spec)
        attacked_video, record_video = apply_attack(video, spec)
        assert record_seq == record_video
        for position, frame in enumerate(attacked_video, start=1):
            original = encoded_index(frame)
            np.testing.assert_array_equal(
                attacked_seq.messages[position - 1], seq.messages[original - 1]
            )

    def test_video_frames_reindexed_sequentially(self):
        # Row p - 1 of the attacked video is output frame p.
        video = make_video(10)
        attacked, record = attack_swap_random(video, seed=1)
        assert attacked.shape == video.shape
        assert not attacked.flags.writeable
        positions = {encoded_index(frame): p for p, frame in enumerate(attacked, 1)}
        assert positions == record.permutation


class TestPixelNoise:
    def test_zero_sigma_is_identity(self):
        video = make_video(3)
        attacked = attack_pixel_noise(video, 0.0, seed=1)
        np.testing.assert_array_equal(attacked, video)

    def test_default_sigma(self):
        from spdmark.channel_attacks import DEFAULT_NOISE_SIGMA

        assert DEFAULT_NOISE_SIGMA == 0.05

    def test_empirical_noise_std(self):
        # Mid-gray frames stay far from the clamp, so the sample standard
        # deviation of the perturbation estimates sigma.
        frames = np.full((4, 3, 16, 16), 0.5)
        attacked = attack_pixel_noise(frames, 0.05, seed=2)
        deltas = (attacked - frames).ravel()
        n = deltas.size
        assert abs(deltas.std() - 0.05) <= 3 * 0.05 / math.sqrt(2 * n)
        assert abs(deltas.std() - 0.05) <= 3 / math.sqrt(n)

    def test_output_stays_clamped(self):
        attacked = attack_pixel_noise(np.ones((1, 3, 4, 4)), 0.5, seed=3)
        assert attacked.max() <= 1.0
        assert attacked.min() >= 0.0

    def test_deterministic_under_seed(self):
        video = make_video(2)
        a = attack_pixel_noise(video, 0.05, seed=4)
        b = attack_pixel_noise(video, 0.05, seed=4)
        np.testing.assert_array_equal(a, b)


class TestRescale:
    def test_identity_factor(self):
        video = make_video(2)
        attacked = attack_rescale(video, 1.0)
        np.testing.assert_allclose(attacked, video, atol=1e-6)

    def test_constant_frames_preserved(self):
        attacked = attack_rescale(np.full((1, 3, 8, 8), 0.37), 0.5)
        np.testing.assert_allclose(attacked, 0.37, atol=1e-6)

    def test_shape_contract(self):
        frames = np.random.default_rng(0).random((1, 3, 8, 8))
        attacked = attack_rescale(frames, 0.5)
        assert attacked.shape == (1, 3, 8, 8)

    def test_half_factor_loses_detail(self):
        rng = np.random.default_rng(1)
        frames = rng.random((1, 3, 8, 8))
        attacked = attack_rescale(frames, 0.5)
        assert not np.allclose(attacked, frames, atol=1e-3)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            attack_rescale(make_video(1), 0.0)
        with pytest.raises(ValueError):
            attack_rescale(make_video(1), 1.5)


class TestPhotometricOracle:
    """The photometric attacks on arrays against the frame-by-frame loops in
    tests/reference_attacks.py: equal bytes."""

    @given(
        num_frames=st.integers(1, 12),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        sigma=st.sampled_from([0.0, 0.01, 0.05, 0.5]),
        factor=st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_frame_by_frame_loops(
        self, num_frames, height, width, sigma, factor, seed
    ):
        video = np.random.default_rng(seed).random((num_frames, 3, height, width))
        noisy = attack_pixel_noise(video, sigma, seed)
        want = reference_attacks.attack_pixel_noise(list(video), sigma, seed)
        assert noisy.tobytes() == np.stack(want).tobytes()
        rescaled = attack_rescale(video, factor)
        want = reference_attacks.attack_rescale(list(video), factor)
        assert rescaled.tobytes() == np.stack(want).tobytes()


fractions = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.95, 1.0, 1.5])


@st.composite
def structural_attacks(draw):
    """(name, arguments after the target) for one of the five structural
    attacks, fractions and seed drawn; some arguments are out of range."""
    seed = draw(st.integers(0, 2**32 - 1))
    name = draw(st.sampled_from(
        ["drop", "swap_random", "swap_adjacent", "insert", "trim"]
    ))
    if name == "drop":
        return name, (draw(fractions), seed)
    if name == "swap_random":
        return name, (seed,)
    if name == "swap_adjacent":
        return name, (draw(fractions), seed)
    if name == "insert":
        return name, (draw(fractions), draw(st.sampled_from(["duplicate", "noise"])), seed)
    return name, (draw(fractions), draw(fractions))


class TestStructuralOracle:
    """The source-map attacks against the structural attacks as they were
    written before, in tests/reference_attacks.py: equal row bytes and
    equal tamper records, or a ValueError from both."""

    @given(
        num_frames=st.integers(1, 40),
        video=st.booleans(),
        attack=structural_attacks(),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, num_frames, video, attack, data_seed):
        rng = np.random.default_rng(data_seed)
        if video:
            target = rng.random((num_frames, 3, 2, 3))
        else:
            target = MessageSequence(rng.integers(0, 2, (num_frames, 12)))
        name, args = attack
        ours = globals()[f"attack_{name}"]
        theirs = getattr(reference_attacks, f"attack_{name}")
        try:
            want, want_record = theirs(target, *args)
        except ValueError:
            with pytest.raises(ValueError):
                ours(target, *args)
            return
        got, record = ours(target, *args)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(got).shape == np.asarray(want).shape
        assert record == want_record


class TestMessageOutputs:
    """Attacked and extracted messages are wrapped without a second check,
    so each must already be what MessageSequence would have built."""

    @staticmethod
    def assert_checked(result):
        bits = result.messages
        assert type(result) is MessageSequence
        assert bits.dtype == np.uint8
        assert bits.flags.c_contiguous
        assert not bits.flags.writeable
        checked = MessageSequence(np.asarray(result))
        assert result == checked
        assert bits.shape == checked.messages.shape
        assert bits.tobytes() == checked.messages.tobytes()

    @given(
        num_frames=st.integers(1, 40),
        attack=structural_attacks(),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_structural_attacks(self, num_frames, attack, data_seed):
        rng = np.random.default_rng(data_seed)
        target = MessageSequence(rng.integers(0, 2, (num_frames, 12)))
        name, args = attack
        try:
            attacked, _ = globals()[f"attack_{name}"](target, *args)
        except ValueError:
            return
        self.assert_checked(attacked)
        self.assert_checked(apply_attack(target, {"attack": "none"})[0])

    @given(
        num_frames=st.integers(1, 40),
        flip=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_channel(self, num_frames, flip, seed):
        source = MessageSequence(
            np.random.default_rng(seed).integers(0, 2, (num_frames, 12))
        )
        self.assert_checked(channel_extract(source, ChannelSpec(flip, seed)))


NON_VIDEOS = [
    pytest.param(np.full((2, 3, 2, 2), np.nan), id="nan"),
    pytest.param(np.full((2, 3, 2, 2), np.inf), id="inf"),
    pytest.param(np.zeros((3, 2, 2)), id="3-d"),
    pytest.param(np.zeros((2, 4, 2, 2)), id="4-channels"),
    pytest.param(np.zeros((0, 3, 2, 2)), id="no-frames"),
    pytest.param(np.zeros((2, 3, 0, 2)), id="no-rows"),
]


class TestVideoInputs:
    @pytest.mark.parametrize("video", NON_VIDEOS)
    @pytest.mark.parametrize(
        "spec",
        [
            {"attack": "none"},
            {"attack": "drop", "fraction": 0.5},
            {"attack": "swap_random"},
            {"attack": "swap_adjacent"},
            {"attack": "insert", "fraction": 0.5, "mode": "noise"},
            {"attack": "trim", "head_fraction": 0.0, "tail_fraction": 0.0},
            {"attack": "pixel_noise", "sigma": 0.0},
            {"attack": "pixel_noise"},
            {"attack": "rescale", "factor": 0.5},
        ],
    )
    def test_attacks_reject_non_videos(self, video, spec):
        with pytest.raises(ValueError):
            apply_attack(video, spec)

    def test_attacked_video_is_a_read_only_array(self):
        video = make_video(4)
        for spec in ({"attack": "insert", "fraction": 0.5, "mode": "noise"},
                     {"attack": "pixel_noise"}, {"attack": "rescale", "factor": 0.5}):
            attacked, _ = apply_attack(video, spec)
            assert attacked.dtype == np.float64
            assert attacked.flags.c_contiguous
            assert not attacked.flags.writeable


class TestApplyAttack:
    def test_none_returns_identity_record(self):
        seq = make_sequence(6)
        attacked, record = apply_attack(seq, {"attack": "none"})
        assert attacked == seq
        assert record == TamperRecord(6, 6, permutation={t: t for t in range(1, 7)})

    def test_photometric_attacks_have_no_record(self):
        video = make_video(3)
        attacked, record = apply_attack(
            video, {"attack": "pixel_noise", "sigma": 0.05, "seed": 1}
        )
        assert record is None
        assert len(attacked) == 3

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError):
            apply_attack(make_sequence(3), {"attack": "melt"})

    @pytest.mark.parametrize("spec", [
        {"attack": "drop", "fraction": 0.5},
        {"attack": "insert", "fraction": 0.5, "mode": "noise"},
        {"attack": "pixel_noise"},
    ])
    def test_seed_is_the_fallback_of_attacks_that_draw(self, spec):
        video = make_video(10)
        seeded = apply_attack(video, {**spec, "seed": 7})
        for got in (apply_attack(video, spec, 7), apply_attack(video, {**spec, "seed": 7}, 8)):
            assert np.array_equal(got[0], seeded[0]) and got[1] == seeded[1]
        assert not np.array_equal(apply_attack(video, spec, 8)[0], seeded[0])

    @pytest.mark.parametrize("spec", [
        {"attack": "none"},
        {"attack": "trim", "head_fraction": 0.2, "tail_fraction": 0.1},
        {"attack": "rescale", "factor": 0.5},
    ])
    def test_attacks_that_draw_nothing_take_no_seed(self, spec):
        video = make_video(10)
        attacked = apply_attack(video, spec, 7)[0]
        assert np.array_equal(attacked, apply_attack(video, spec, 8)[0])
        with pytest.raises(ValueError, match=re.escape("unexpected attack parameters ['seed']")):
            apply_attack(video, {**spec, "seed": 3})

    def test_unexpected_parameter_rejected(self):
        with pytest.raises(ValueError):
            apply_attack(
                make_sequence(3), {"attack": "drop", "fraction": 0.5, "fracton": 1}
            )


@pytest.mark.parametrize("attack, args", [
    (attack_drop, ("0.5", 3)),
    (attack_drop, (float("nan"),)),
    (attack_trim, ("0.2", "0.1")),
    (attack_trim, (0.2, True)),
    (attack_swap_adjacent, ("0.3",)),
    (attack_insert, ("0.5",)),
    (attack_pixel_noise, ("0.05",)),
    (attack_rescale, ("0.5",)),
])
def test_attack_arguments_follow_the_type_rule(attack, args):
    """Fractions, sigma and factor are read as floats by the one type rule:
    a string, a bool or a non-finite number is not converted."""
    with pytest.raises(TypeError, match="not a valid float"):
        attack(make_video(10), *args)
