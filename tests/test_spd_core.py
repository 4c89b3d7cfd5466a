import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_generate import (
    compose_displacement,
    displaced_layer_forward,
    generate_video as reference_generate,
)

from spdmark.channel_attacks import apply_attack
from spdmark.keyspace import (
    BaseSecret,
    KeyConfig,
    MessageSequence,
    derive_frame_messages,
    key_to_mask,
    random_key,
)
from spdmark.spd_core import (
    DEFAULT_LAYER_DIM,
    DEFAULT_RANK,
    BasisShift,
    ToyDecoder,
    _matmul,
    generate_frames,
    generate_video,
    init_dictionary,
    init_toy_decoder,
    random_condition,
    read_video,
    record_products,
    write_video,
)

CFG = KeyConfig.from_layout(4, 4)
SECRET = BaseSecret(b"spd-core-test-secret")


def small_setup(seed=0, alpha=1.0, layer_dim=16, rank=8):
    dictionary = init_dictionary(
        CFG, layer_dim=layer_dim, rank=rank, alpha=alpha, init_seed=seed
    )
    decoder = init_toy_decoder(
        layer_dim=layer_dim, height=4, width=4, num_layers=CFG.num_layers, seed=seed
    )
    return decoder, dictionary


def dense_shift(shift) -> np.ndarray:
    # Oracle only: materializes the product the library itself must never form.
    return shift.factor_a @ shift.factor_b


class TestBasisShift:
    def test_rank_exceeding_dim_rejected(self):
        with pytest.raises(ValueError):
            BasisShift(np.zeros((4, 5)), np.zeros((5, 4)))

    def test_mismatched_factors_rejected(self):
        with pytest.raises(ValueError):
            BasisShift(np.zeros((4, 2)), np.zeros((3, 4)))

    def test_numerical_rank_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d, r = 16, 5
            shift = BasisShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
            singular = np.linalg.svd(dense_shift(shift), compute_uv=False)
            assert (singular > 1e-8 * singular[0]).sum() <= r

    def test_factors_are_read_only(self):
        shift = BasisShift(np.zeros((4, 2)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            shift.factor_a[0, 0] = 1.0


class TestComposeDisplacement:
    def test_zero_mask_gives_zero_displacement(self):
        _, dictionary = small_setup()
        shifts = compose_displacement(dictionary, np.zeros((4, 4), dtype=int))
        for layer_shift in shifts:
            assert layer_shift.factor_a.shape == (16, 0)
            assert dense_shift(layer_shift).shape == (16, 16)
            assert np.all(dense_shift(layer_shift) == 0.0)

    def test_one_hot_equals_selected_basis(self):
        _, dictionary = small_setup()
        key = random_key(CFG, 3)
        mask = key_to_mask(key, CFG)
        shifts = compose_displacement(dictionary, mask)
        for layer, column in enumerate(mask.mask.argmax(axis=1)):
            expected = dictionary.shifts[layer][column]
            assert np.array_equal(shifts[layer].factor_a, expected.factor_a)
            assert np.array_equal(shifts[layer].factor_b, expected.factor_b)

    def test_two_hot_matches_dense_sum_oracle(self):
        _, dictionary = small_setup()
        mask = np.zeros((4, 4), dtype=int)
        mask[:, 1] = 1
        mask[:, 3] = 1
        shifts = compose_displacement(dictionary, mask)
        for layer in range(4):
            oracle = dense_shift(dictionary.shifts[layer][1]) + dense_shift(
                dictionary.shifts[layer][3]
            )
            np.testing.assert_allclose(dense_shift(shifts[layer]), oracle, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        _, dictionary = small_setup()
        with pytest.raises(ValueError):
            compose_displacement(dictionary, np.zeros((3, 4), dtype=int))
        with pytest.raises(ValueError):
            compose_displacement(dictionary, np.full((4, 4), 2))


class TestDisplacedLayerForward:
    def test_factored_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        d, r = 64, 32
        for _ in range(100):
            weight = rng.normal(size=(d, d))
            offset = rng.normal(size=d)
            shift = BasisShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
            h = rng.normal(size=d)
            got = displaced_layer_forward(weight, offset, shift, 1.0, h)
            want = weight @ h + offset + dense_shift(shift) @ h
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_alpha_zero_is_plain_layer(self):
        rng = np.random.default_rng(2)
        d, r = 8, 3
        weight = rng.normal(size=(d, d))
        offset = rng.normal(size=d)
        shift = BasisShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
        h = rng.normal(size=d)
        np.testing.assert_array_equal(
            displaced_layer_forward(weight, offset, shift, 0.0, h), weight @ h + offset
        )

    def test_zero_factor_shift_is_plain_layer(self):
        rng = np.random.default_rng(3)
        d = 8
        weight = rng.normal(size=(d, d))
        offset = rng.normal(size=d)
        shift = BasisShift(np.zeros((d, 4)), rng.normal(size=(4, d)))
        h = rng.normal(size=d)
        np.testing.assert_array_equal(
            displaced_layer_forward(weight, offset, shift, 1.0, h), weight @ h + offset
        )

    def test_displacement_path_is_linear(self):
        rng = np.random.default_rng(4)
        d, r = 12, 4
        weight = rng.normal(size=(d, d))
        offset = rng.normal(size=d)
        shift = BasisShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
        h = rng.normal(size=d)

        def delta(x):
            return displaced_layer_forward(
                weight, offset, shift, 1.0, x
            ) - displaced_layer_forward(weight, offset, shift, 0.0, x)

        np.testing.assert_allclose(delta(2.5 * h), 2.5 * delta(h), rtol=1e-12)

    def test_non_finite_input_rejected(self):
        shift = BasisShift(np.zeros((4, 2)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            displaced_layer_forward(
                np.eye(4), np.zeros(4), shift, 1.0, np.array([1.0, np.nan, 0.0, 0.0])
            )

    def test_never_multiplies_two_matrices(self):
        rng = np.random.default_rng(5)
        d, r = 64, 32
        weight = rng.normal(size=(d, d))
        offset = rng.normal(size=d)
        shift = BasisShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
        with record_products() as products:
            displaced_layer_forward(weight, offset, shift, 1.0, rng.normal(size=d))
        assert len(products) == 3
        for _, rhs_shape in products:
            assert len(rhs_shape) == 1


class TestGenerateVideo:
    def test_deterministic(self):
        decoder, dictionary = small_setup()
        key = random_key(CFG, 1)
        schedule = derive_frame_messages(SECRET, key, 4)
        condition = random_condition(16, 9)
        a = generate_video(decoder, dictionary, schedule, 5, condition)
        b = generate_video(decoder, dictionary, schedule, 5, condition)
        np.testing.assert_array_equal(a, b)

    def test_watermark_changes_at_least_one_pixel(self):
        for trial in range(100):
            decoder, dictionary = small_setup(seed=trial)
            plain = init_dictionary(
                CFG, layer_dim=16, rank=8, alpha=0.0, init_seed=trial
            )
            key = random_key(CFG, trial)
            schedule = derive_frame_messages(SECRET, key, 1)
            condition = random_condition(16, trial + 1000)
            marked = generate_video(decoder, dictionary, schedule, trial, condition)
            clean = generate_video(decoder, plain, schedule, trial, condition)
            assert np.any(marked[0] != clean[0])

    def test_frames_are_independent(self):
        decoder, dictionary = small_setup()
        key_a = random_key(CFG, 10)
        key_b = random_key(CFG, 20)
        sched_a = derive_frame_messages(SECRET, key_a, 5)
        sched_b = derive_frame_messages(SECRET, key_b, 5)
        # Splice frame 3 of schedule b into schedule a.
        mixed = np.array(sched_a)
        mixed[2] = sched_b.messages[2]
        mixed = MessageSequence(mixed)
        condition = random_condition(16, 0)
        base = generate_video(decoder, dictionary, sched_a, 1, condition)
        spliced = generate_video(decoder, dictionary, mixed, 1, condition)
        changed = [
            t for t in range(5) if not np.array_equal(base[t], spliced[t])
        ]
        assert changed == [2]

    def test_decoder_parameters_untouched_across_keys(self):
        decoder, dictionary = small_setup()
        weights_before = decoder.weights.copy()
        condition = random_condition(16, 2)
        outputs = {}
        for seed in (1, 2):
            key = random_key(CFG, seed)
            schedule = derive_frame_messages(SECRET, key, 2)
            outputs[seed] = generate_video(decoder, dictionary, schedule, 3, condition)
        np.testing.assert_array_equal(decoder.weights, weights_before)
        # Re-running the first key after the second gives the same output.
        key = random_key(CFG, 1)
        schedule = derive_frame_messages(SECRET, key, 2)
        again = generate_video(decoder, dictionary, schedule, 3, condition)
        np.testing.assert_array_equal(again, outputs[1])

    def test_pixels_clamped_to_unit_interval(self):
        decoder, dictionary = small_setup(seed=6)
        key = random_key(CFG, 6)
        schedule = derive_frame_messages(SECRET, key, 3)
        video = generate_video(decoder, dictionary, schedule, 6, random_condition(16, 6))
        assert video.min() >= 0.0
        assert video.max() <= 1.0

    def test_no_product_materialization_end_to_end(self):
        decoder, dictionary = small_setup()
        key = random_key(CFG, 4)
        schedule = derive_frame_messages(SECRET, key, 2)
        with record_products() as products:
            generate_video(decoder, dictionary, schedule, 0, random_condition(16, 1))
        assert products
        for _, rhs_shape in products:
            assert len(rhs_shape) == 1

    def test_video_is_one_read_only_array(self):
        decoder, dictionary = small_setup()
        schedule = derive_frame_messages(SECRET, random_key(CFG, 5), 3)
        video = generate_video(decoder, dictionary, schedule, 0, random_condition(16, 1))
        buffer = io.BytesIO()
        write_video(buffer, video)
        buffer.seek(0)
        for array in (video, read_video(buffer)):
            assert array.shape == (3, 3, 4, 4)
            assert array.dtype == np.float64
            assert array.flags.c_contiguous
            assert not array.flags.writeable

    def test_caller_cannot_change_a_video(self):
        source = np.full((2, 3, 2, 2), 0.5)
        view = source[:]
        view.setflags(write=False)
        attacked, _ = apply_attack(view, {"attack": "none"})
        source[...] = 0.25
        assert (attacked == 0.5).all()

    def test_empty_schedule_rejected(self):
        decoder, dictionary = small_setup()
        with pytest.raises(ValueError):
            generate_video(decoder, dictionary, [], 0, random_condition(16, 0))

    def test_dimension_mismatch_rejected(self):
        decoder, _ = small_setup()
        other = init_dictionary(CFG, layer_dim=32, rank=8)
        key = random_key(CFG, 0)
        schedule = derive_frame_messages(SECRET, key, 1)
        with pytest.raises(ValueError):
            generate_video(decoder, other, schedule, 0, random_condition(32, 0))


class TestBatchedGeneration:
    """The batched generator against the frame-by-frame oracle in
    tests/reference_generate.py: equal bytes, whatever the batch."""

    @given(
        num_layers=st.integers(1, 4),
        bases=st.sampled_from([2, 4, 8]),
        layer_dim=st.integers(1, 12),
        rank_share=st.floats(0.0, 1.0),
        alpha=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        num_frames=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_frame_by_frame_oracle(
        self, num_layers, bases, layer_dim, rank_share, alpha, num_frames, seed
    ):
        cfg = KeyConfig.from_layout(num_layers, bases)
        rank = round(rank_share * layer_dim)
        dictionary = init_dictionary(
            cfg, layer_dim=layer_dim, rank=rank, alpha=alpha, init_seed=seed
        )
        decoder = init_toy_decoder(
            layer_dim=layer_dim, height=2, width=3, num_layers=num_layers, seed=seed
        )
        schedule = derive_frame_messages(SECRET, random_key(cfg, seed), num_frames)
        condition = random_condition(layer_dim, seed + 1)
        got = generate_video(decoder, dictionary, schedule, seed, condition)
        want = reference_generate(decoder, dictionary, schedule, seed, condition)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_batch_equals_per_video_and_single_frame_calls(self):
        decoder, dictionary = small_setup()
        condition = random_condition(16, 4)
        schedules = [
            derive_frame_messages(SECRET, random_key(CFG, 30 + v), 7) for v in range(5)
        ]
        seeds = [100 + v for v in range(5)]
        batch = generate_frames(
            decoder, dictionary, np.concatenate(schedules),
            [(seed, t) for seed in seeds for t in range(1, 8)], condition,
        )
        assert batch.shape == (35, 3, 4, 4)
        rows = iter(batch)
        for schedule, seed in zip(schedules, seeds):
            video = generate_video(decoder, dictionary, schedule, seed, condition)
            for message, frame in zip(schedule, video):
                single = generate_frames(
                    decoder, dictionary, message.bits[None],
                    [(seed, message.frame_index)], condition,
                )
                assert next(rows).tobytes() == frame.tobytes()
                assert single[0].tobytes() == frame.tobytes()

    @pytest.mark.parametrize("alpha, per_frame", [(1.0, 43), (0.0, 15)])
    def test_products_per_frame_at_default_size(self, alpha, per_frame):
        cfg = KeyConfig.from_layout(14, 4)
        dictionary = init_dictionary(cfg, alpha=alpha)
        decoder = init_toy_decoder()
        schedule = derive_frame_messages(SECRET, random_key(cfg, 2), 9)
        with record_products() as products:
            generate_video(decoder, dictionary, schedule, 0, random_condition(64, 0))
        assert len(products) == per_frame * 9
        assert all(len(rhs) == 1 and len(lhs) == 2 for lhs, rhs in products)

    def test_stacked_product_logged_once_per_vector(self):
        a = np.ones((4, 3))
        with record_products() as products:
            _matmul(a, np.ones((5, 3, 1)))
            _matmul(a, np.ones((2, 2, 3, 1)))
            _matmul(a, np.ones(3))
            _matmul(a, np.ones((3, 2)))
        assert products == (
            [((4, 3), (3,))] * 9 + [((4, 3), (3,)), ((4, 3), (3, 2))]
        )

    def test_mismatched_inputs_rejected(self):
        decoder, dictionary = small_setup()
        schedule = derive_frame_messages(SECRET, random_key(CFG, 1), 3)
        condition = random_condition(16, 1)
        with pytest.raises(ValueError, match="latent seed"):
            generate_frames(decoder, dictionary, schedule, [(0, 1), (0, 2)], condition)
        short = schedule.messages[:1, :-1]
        with pytest.raises(ValueError, match="bits"):
            generate_frames(decoder, dictionary, short, [(0, 1)], condition)
        with pytest.raises(ValueError, match="0 or 1"):
            generate_frames(
                decoder, dictionary, 2 * schedule.messages[:1], [(0, 1)], condition
            )

    def test_nan_condition_rejected(self):
        decoder, dictionary = small_setup()
        schedule = derive_frame_messages(SECRET, random_key(CFG, 1), 3)
        condition = random_condition(16, 1)
        condition[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            generate_video(decoder, dictionary, schedule, 0, condition)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("num_layers", [2, 4])
    def test_overflowing_hidden_state_rejected(self, num_layers):
        cfg = KeyConfig.from_layout(num_layers, 4)
        dictionary = init_dictionary(cfg, layer_dim=16, rank=8)
        decoder = init_toy_decoder(layer_dim=16, height=4, width=4, num_layers=num_layers)
        # Orthogonal weights times 1e200 reach inf at the second layer.
        loud = dataclasses.replace(decoder, weights=decoder.weights * 1e200)
        schedule = derive_frame_messages(SECRET, random_key(cfg, 1), 3)
        with pytest.raises(ValueError, match="finite"):
            generate_video(loud, dictionary, schedule, 0, random_condition(16, 1))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_raster_is_not_clipped_to_a_pixel(self):
        layers, dim = 2, 4
        decoder = ToyDecoder(
            weights=np.zeros((layers, dim, dim)),
            offsets=np.ones((layers, dim)),
            projection=np.full((3 * 2 * 2, dim), 1e308),
            projection_offset=np.zeros(3 * 2 * 2),
            frame_shape=(3, 2, 2),
            seed=0,
        )
        cfg = KeyConfig.from_layout(layers, 2)
        dictionary = init_dictionary(cfg, layer_dim=dim, rank=2, alpha=0.0)
        schedule = derive_frame_messages(SECRET, random_key(cfg, 0), 1)
        with pytest.raises(ValueError, match="finite"):
            generate_video(decoder, dictionary, schedule, 0, np.zeros(dim))


class TestInitDictionary:
    def test_default_rank_and_dim(self):
        assert DEFAULT_LAYER_DIM == 64
        assert DEFAULT_RANK == 32

    def test_seeded_determinism(self):
        a = init_dictionary(CFG, layer_dim=16, rank=8, init_seed=42)
        b = init_dictionary(CFG, layer_dim=16, rank=8, init_seed=42)
        for row_a, row_b in zip(a.shifts, b.shifts):
            for shift_a, shift_b in zip(row_a, row_b):
                np.testing.assert_array_equal(shift_a.factor_a, shift_b.factor_a)
                np.testing.assert_array_equal(shift_a.factor_b, shift_b.factor_b)

    def test_zero_scale_matches_undisplaced_output(self):
        decoder, _ = small_setup()
        zero = init_dictionary(CFG, layer_dim=16, rank=8, init_scale=0.0, init_seed=1)
        plain = init_dictionary(CFG, layer_dim=16, rank=8, alpha=0.0, init_seed=1)
        key = random_key(CFG, 8)
        schedule = derive_frame_messages(SECRET, key, 3)
        condition = random_condition(16, 8)
        np.testing.assert_array_equal(
            generate_video(decoder, zero, schedule, 2, condition),
            generate_video(decoder, plain, schedule, 2, condition),
        )

    def test_rank_above_dim_rejected(self):
        with pytest.raises(ValueError):
            init_dictionary(CFG, layer_dim=8, rank=9)


class TestInitToyDecoder:
    def test_layer_weights_are_orthogonal(self):
        decoder = init_toy_decoder(layer_dim=16, height=4, width=4, num_layers=3, seed=1)
        for layer in range(3):
            weight = decoder.weights[layer]
            np.testing.assert_allclose(weight.T @ weight, np.eye(16), atol=1e-10)

    def test_seeded_determinism(self):
        a = init_toy_decoder(layer_dim=16, height=4, width=4, num_layers=3, seed=9)
        b = init_toy_decoder(layer_dim=16, height=4, width=4, num_layers=3, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.projection, b.projection)


class TestVideoFile:
    def test_round_trip(self):
        decoder, dictionary = small_setup()
        key = random_key(CFG, 13)
        schedule = derive_frame_messages(SECRET, key, 4)
        video = generate_video(decoder, dictionary, schedule, 1, random_condition(16, 3))
        buffer = io.BytesIO()
        write_video(buffer, video)
        buffer.seek(0)
        loaded = read_video(buffer)
        assert len(loaded) == 4
        np.testing.assert_allclose(loaded, video.astype(np.float32), rtol=0, atol=0)

    def test_header_layout(self):
        frame = np.zeros((3, 2, 5))
        buffer = io.BytesIO()
        write_video(buffer, frame[None])
        raw = buffer.getvalue()
        assert raw[:4] == b"SPDF"
        assert raw[4] == 1
        assert raw[5:21] == (
            (1).to_bytes(4, "big")
            + (2).to_bytes(4, "big")
            + (5).to_bytes(4, "big")
            + (3).to_bytes(4, "big")
        )
        assert len(raw) == 21 + 4 * 3 * 2 * 5

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, value, tmp_path):
        raw = io.BytesIO()
        write_video(raw, np.full((2, 3, 2, 2), 0.5))
        data = raw.getvalue()[:-4] + np.array([value], dtype="<f4").tobytes()
        with pytest.raises(ValueError, match="finite"):
            read_video(io.BytesIO(data))
        path = tmp_path / "video.spdf"
        path.write_bytes(data)
        with open(path, "rb") as stream, pytest.raises(ValueError, match="finite"):
            read_video(stream)

    @pytest.mark.parametrize(
        "video",
        [
            np.full((2, 3, 2, 2), np.nan),
            np.full((2, 3, 2, 2), -np.inf),
            np.zeros((3, 2, 2)),
            np.zeros((2, 1, 2, 2)),
            np.zeros((0, 3, 2, 2)),
            np.zeros((2, 3, 2, 0)),
        ],
    )
    def test_write_rejects_non_videos(self, video):
        buffer = io.BytesIO()
        with pytest.raises(ValueError):
            write_video(buffer, video)
        assert buffer.getvalue() == b""

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_video(io.BytesIO(b"JUNK" + b"\x00" * 40))

    def test_truncated_payload_rejected(self):
        frame = np.zeros((3, 2, 2))
        buffer = io.BytesIO()
        write_video(buffer, frame[None])
        raw = buffer.getvalue()[:-5]
        with pytest.raises(ValueError):
            read_video(io.BytesIO(raw))

    @pytest.mark.parametrize("tail", [b"\0", b"\0" * 4, b"SPDF"])
    def test_trailing_data_rejected(self, tail, tmp_path):
        raw = io.BytesIO()
        write_video(raw, np.full((1, 3, 2, 2), 0.5))
        with pytest.raises(ValueError, match="trailing data"):
            read_video(io.BytesIO(raw.getvalue() + tail))
        path = tmp_path / "video.spdf"
        path.write_bytes(raw.getvalue() + tail)
        with open(path, "rb") as stream, pytest.raises(ValueError, match="trailing data"):
            read_video(stream)

    @pytest.mark.parametrize(
        "dims",
        [
            (0, 2, 2, 3),
            (1, 0, 2, 3),
            (2**32 - 1, 2**32 - 1, 2**32 - 1, 3),
            (2**32 - 1, 8, 8, 3),
        ],
    )
    def test_malformed_header_rejected(self, dims, tmp_path):
        raw = b"SPDF\x01" + b"".join(d.to_bytes(4, "big") for d in dims) + b"\x00" * 48
        with pytest.raises(ValueError):
            read_video(io.BytesIO(raw))
        path = tmp_path / "bad.spdf"
        path.write_bytes(raw)
        with open(path, "rb") as stream, pytest.raises(ValueError):
            read_video(stream)
