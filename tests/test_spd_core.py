import dataclasses
import hashlib
import io
import math
import platform
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_model
from fresh_process import run_script
from reference_generate import (
    LayerShift,
    compose_displacement,
    displaced_layer_forward,
    generate_video as reference_generate,
    round_to_grid as reference_round,
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
import spdmark.spd_core
from spdmark.cli import RunConfig, build_corpus, toy_components
from spdmark.spd_core import (
    DEFAULT_LAYER_DIM,
    DEFAULT_RANK,
    MAX_SHIFT_TERMS,
    BasisDictionary,
    ToyDecoder,
    _forward,
    _matmul,
    _round_to_grid,
    generate_frames,
    generate_video,
    init_dictionary,
    init_toy_decoder,
    random_condition,
    read_video,
    record_products,
    write_video,
)

CFG = KeyConfig(4, 4)
SECRET = BaseSecret(b"spd-core-test-secret")


def small_setup(seed=0, layer_dim=16, rank=8):
    dictionary = init_dictionary(CFG, layer_dim=layer_dim, rank=rank, init_seed=seed)
    decoder = init_toy_decoder(
        layer_dim=layer_dim, height=4, width=4, num_layers=CFG.num_layers, seed=seed
    )
    return decoder, dictionary


def dense_shift(shift) -> np.ndarray:
    # Oracle only: materializes the product the library itself must never form.
    return shift.factor_a @ shift.factor_b


def stacked(factor_a, factor_b) -> BasisDictionary:
    return BasisDictionary(factor_a, factor_b)


class TestBasisDictionary:
    def test_rank_exceeding_dim_rejected(self):
        with pytest.raises(ValueError, match="rank must not exceed"):
            stacked(np.zeros((1, 2, 4, 5)), np.zeros((1, 2, 5, 4)))

    def test_mismatched_factors_rejected(self):
        for shape in [(1, 2, 3, 4), (1, 2, 2, 5), (1, 3, 2, 4), (2, 2, 2, 4), (2, 2, 4)]:
            with pytest.raises(ValueError, match="do not pair up"):
                stacked(np.zeros((1, 2, 4, 2)), np.zeros(shape))

    def test_stacks_must_be_4d_and_non_empty(self):
        for shape in [(2, 4, 2), (2, 1, 2, 4, 2), (0, 2, 4, 2), (1, 0, 4, 2), (1, 2, 0, 0)]:
            with pytest.raises(ValueError, match="L x P x d x r"):
                stacked(np.zeros(shape), np.zeros(shape[:-2] + shape[:-3:-1]))

    def test_layout_is_read_from_the_shapes(self):
        dictionary = stacked(np.zeros((3, 2, 5, 4)), np.zeros((3, 2, 4, 5)))
        assert (dictionary.num_layers, dictionary.bases_per_layer) == (3, 2)
        assert (dictionary.layer_dim, dictionary.rank) == (5, 4)
        assert dictionary.key_config() == KeyConfig(3, 2)

    def test_rank_zero_accepted(self):
        dictionary = stacked(np.zeros((2, 4, 3, 0)), np.zeros((2, 4, 0, 3)))
        assert dictionary.rank == 0 and dictionary.layer_dim == 3
        factor_a, factor_b = dictionary._factor_images
        assert factor_a.shape == (2, 4, 3, 0) and factor_b.shape == (2, 4, 0, 3)

    def test_numerical_rank_bounded(self):
        rng = np.random.default_rng(7)
        d, r = 16, 5
        dictionary = stacked(rng.normal(size=(4, 5, d, r)), rng.normal(size=(4, 5, r, d)))
        for layer, basis in np.ndindex(4, 5):
            dense = dictionary.factor_a[layer, basis] @ dictionary.factor_b[layer, basis]
            singular = np.linalg.svd(dense, compute_uv=False)
            assert (singular > 1e-8 * singular[0]).sum() <= r

    def test_factors_are_read_only(self):
        dictionary = stacked(np.zeros((1, 2, 4, 2)), np.zeros((1, 2, 2, 4)))
        for factor in (dictionary.factor_a, dictionary.factor_b):
            assert factor.dtype == np.float64
            with pytest.raises(ValueError):
                factor[0, 0, 0, 0] = 1.0

    def test_caller_arrays_do_not_reach_the_dictionary(self):
        rng = np.random.default_rng(8)
        factor_a, factor_b = rng.normal(size=(2, 2, 6, 3)), rng.normal(size=(2, 2, 3, 6))
        dictionary = stacked(factor_a, factor_b)
        before = [array.tobytes() for array in (
            dictionary.factor_a, dictionary.factor_b, *dictionary._factor_images
        )]
        factor_a[...] = 0.0
        factor_b[...] = np.nan
        assert before == [array.tobytes() for array in (
            dictionary.factor_a, dictionary.factor_b, *dictionary._factor_images
        )]


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
            assert np.array_equal(shifts[layer].factor_a, dictionary.factor_a[layer, column])
            assert np.array_equal(shifts[layer].factor_b, dictionary.factor_b[layer, column])

    def test_two_hot_matches_dense_sum_oracle(self):
        _, dictionary = small_setup()
        mask = np.zeros((4, 4), dtype=int)
        mask[:, 1] = 1
        mask[:, 3] = 1
        shifts = compose_displacement(dictionary, mask)
        for layer in range(4):
            oracle = sum(
                dictionary.factor_a[layer, p] @ dictionary.factor_b[layer, p] for p in (1, 3)
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
            shift = LayerShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
            h = rng.normal(size=d)
            got = displaced_layer_forward(weight, offset, shift, 1.0, h)
            want = weight @ h + offset + dense_shift(shift) @ h
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_alpha_zero_is_plain_layer(self):
        rng = np.random.default_rng(2)
        d, r = 8, 3
        weight = rng.normal(size=(d, d))
        offset = rng.normal(size=d)
        shift = LayerShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
        h = rng.normal(size=d)
        np.testing.assert_array_equal(
            displaced_layer_forward(weight, offset, shift, 0.0, h), weight @ h + offset
        )

    def test_zero_factor_shift_is_plain_layer(self):
        rng = np.random.default_rng(3)
        d = 8
        weight = rng.normal(size=(d, d))
        offset = rng.normal(size=d)
        shift = LayerShift(np.zeros((d, 4)), rng.normal(size=(4, d)))
        h = rng.normal(size=d)
        np.testing.assert_array_equal(
            displaced_layer_forward(weight, offset, shift, 1.0, h), weight @ h + offset
        )

    def test_displacement_path_is_linear(self):
        rng = np.random.default_rng(4)
        d, r = 12, 4
        weight = rng.normal(size=(d, d))
        offset = rng.normal(size=d)
        shift = LayerShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
        h = rng.normal(size=d)

        def delta(x):
            return displaced_layer_forward(
                weight, offset, shift, 1.0, x
            ) - displaced_layer_forward(weight, offset, shift, 0.0, x)

        np.testing.assert_allclose(delta(2.5 * h), 2.5 * delta(h), rtol=1e-12)

    def test_non_finite_input_rejected(self):
        shift = LayerShift(np.zeros((4, 2)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            displaced_layer_forward(
                np.eye(4), np.zeros(4), shift, 1.0, np.array([1.0, np.nan, 0.0, 0.0])
            )

    def test_never_multiplies_two_matrices(self):
        rng = np.random.default_rng(5)
        d, r = 64, 32
        weight = rng.normal(size=(d, d))
        offset = rng.normal(size=d)
        shift = LayerShift(rng.normal(size=(d, r)), rng.normal(size=(r, d)))
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
            key = random_key(CFG, trial)
            schedule = derive_frame_messages(SECRET, key, 1)
            condition = random_condition(16, trial + 1000)
            marked = generate_video(decoder, dictionary, schedule, trial, condition)
            clean = generate_video(decoder, dictionary, schedule, trial, condition, alpha=0.0)
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
        cfg = KeyConfig(num_layers, bases)
        rank = round(rank_share * layer_dim)
        dictionary = init_dictionary(cfg, layer_dim=layer_dim, rank=rank, init_seed=seed)
        decoder = init_toy_decoder(
            layer_dim=layer_dim, height=2, width=3, num_layers=num_layers, seed=seed
        )
        schedule = derive_frame_messages(SECRET, random_key(cfg, seed), num_frames)
        condition = random_condition(layer_dim, seed + 1)
        got = generate_video(decoder, dictionary, schedule, seed, condition, alpha=alpha)
        want = reference_generate(decoder, dictionary, schedule, seed, condition, alpha=alpha)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_video_is_the_raster_forward_wrote(self, monkeypatch):
        # The pixels _forward projects are read-only and owned by it, so
        # the video is made of them without a copy.
        rasters = []

        def recorded(*args):
            rasters.append(_forward(*args))
            return rasters[-1]

        monkeypatch.setattr(spdmark.spd_core, "_forward", recorded)
        decoder, dictionary = small_setup()
        schedule = derive_frame_messages(SECRET, random_key(CFG, 5), 6)
        video = generate_video(decoder, dictionary, schedule, 7, random_condition(16, 2))
        (raster,) = rasters
        assert not raster.flags.writeable and raster.base is None
        assert np.shares_memory(video, raster)
        assert not video.flags.writeable
        assert video.tobytes() == raster.tobytes()

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

    @pytest.mark.parametrize("alpha, per_frame", [(1.0, 43), (0.0, 15), ((1.0, 0.0), 43 + 15)])
    def test_products_per_frame_at_default_size(self, alpha, per_frame):
        cfg = KeyConfig(14, 4)
        dictionary = init_dictionary(cfg)
        decoder = init_toy_decoder()
        schedule = derive_frame_messages(SECRET, random_key(cfg, 2), 9)
        with record_products() as products:
            generate_video(decoder, dictionary, schedule, 0, random_condition(64, 0), alpha=alpha)
        assert len(products) == per_frame * 9
        assert all(len(rhs) == 1 and len(lhs) == 2 for lhs, rhs in products)

    def test_stacked_product_logged_once_per_vector(self):
        a = np.ones((4, 3))
        with record_products() as products:
            _matmul(a, np.ones((5, 3)))
            _matmul(a, np.ones((2, 2, 3)))
            _matmul(a, np.ones(3))
        assert products == [((4, 3), (3,))] * 10

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
        cfg = KeyConfig(num_layers, 4)
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
        )
        cfg = KeyConfig(layers, 2)
        dictionary = init_dictionary(cfg, layer_dim=dim, rank=2)
        schedule = derive_frame_messages(SECRET, random_key(cfg, 0), 1)
        with pytest.raises(ValueError, match="finite"):
            generate_video(decoder, dictionary, schedule, 0, np.zeros(dim), alpha=0.0)



def generation_outcome(alpha, *args):
    """generate_video(*args, alpha=alpha), or the ValueError it raised."""
    try:
        return generate_video(*args, alpha=alpha)
    except ValueError as exc:
        return exc


class TestStrengthStacks:
    """generate_video broadcasts over alpha: a 1-D sequence of k strengths
    gives the (k, T, 3, H, W) stack of the videos separate calls give, from
    one draw of the latents and one forward pass."""

    STACKS = [(1.0, 0.0), (0.7, 0.0), (0.0, 2.3), (1.0, 0.7, 2.3, -1.5),
              (-1.5, 0.0, 0.7, 0.0), (2.3,), (0.0,)]

    @pytest.mark.parametrize("alphas", STACKS, ids=str)
    @pytest.mark.parametrize("rank, num_frames", [(8, 6), (0, 6), (8, 1)],
                             ids=["rank-8", "rank-0", "one-frame"])
    def test_stack_equals_separate_calls_and_the_oracle(self, alphas, rank, num_frames):
        decoder, dictionary = small_setup(seed=rank + num_frames, rank=rank)
        schedule = derive_frame_messages(SECRET, random_key(CFG, 4), num_frames)
        args = (decoder, dictionary, schedule, 9, random_condition(16, 3))
        stack = generate_video(*args, alpha=alphas)
        assert stack.shape == (len(alphas), num_frames, 3, 4, 4)
        assert not stack.flags.writeable
        for video, alpha in zip(stack, alphas):
            assert video.tobytes() == generate_video(*args, alpha=alpha).tobytes()
            assert video.tobytes() == reference_generate(*args, alpha=alpha).tobytes()

    def test_clean_rows_are_checked_against_the_decoder_ranges_only(self):
        # Layer 1's shifts are so faint that their products are exact only
        # on states of exponent 11 or more, which a strength of 2**40 gives
        # and a strength of 2**-40 does not; an undisplaced state is
        # checked against the decoder's ranges alone, and passes.
        cfg = KeyConfig(2, 2)
        base = init_dictionary(cfg, layer_dim=4, rank=2, init_seed=1)
        scale = np.array([1.0, 2.0**-520])[:, None, None, None]
        dictionary = stacked(base.factor_a * scale, base.factor_b * scale)
        assert dictionary._state_ranges[1, 0] == 11
        decoder = init_toy_decoder(layer_dim=4, height=1, width=1, num_layers=2, seed=1)
        schedule = derive_frame_messages(SECRET, random_key(cfg, 3), 5)
        args = (decoder, dictionary, schedule, 7, random_condition(4, 2))
        with pytest.raises(ValueError, match="exact and finite"):
            generate_video(*args, alpha=2.0**-40)
        stack = generate_video(*args, alpha=(2.0**40, 0.0))
        for video, alpha in zip(stack, (2.0**40, 0.0)):
            assert video.tobytes() == generate_video(*args, alpha=alpha).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("alphas", STACKS + [(2.0**-40, 0.0), (0.0, 2.0**-40, 1.0)],
                             ids=str)
    def test_stack_raises_exactly_when_a_separate_call_would(self, alphas):
        decoder, dictionary = small_setup()
        # Faint shifts take no states of the sizes this decoder makes, and
        # a loud decoder overflows with or without them.
        faint = init_dictionary(CFG, layer_dim=16, rank=8, init_scale=1e-200)
        loud = dataclasses.replace(decoder, weights=decoder.weights * 1e200)
        schedule = derive_frame_messages(SECRET, random_key(CFG, 6), 4)
        condition = random_condition(16, 5)
        for model in ((decoder, dictionary), (decoder, faint), (loud, dictionary)):
            args = (*model, schedule, 3, condition)
            separate = [generation_outcome(alpha, *args) for alpha in alphas]
            stack = generation_outcome(alphas, *args)
            if any(isinstance(video, ValueError) for video in separate):
                assert isinstance(stack, ValueError), (model, alphas)
            else:
                assert stack.tobytes() == np.stack(separate).tobytes()

    @pytest.mark.parametrize("alphas, message", [
        ((), "non-empty 1-D"),
        ([[1.0, 0.0]], "non-empty 1-D"),
        (("1", "0"), "non-empty 1-D"),
        ((1.0, np.nan), "alpha must be finite"),
        ((np.inf, 0.0), "alpha must be finite"),
    ])
    def test_bad_stacks_rejected(self, alphas, message):
        decoder, dictionary = small_setup()
        schedule = derive_frame_messages(SECRET, random_key(CFG, 1), 2)
        with pytest.raises(ValueError, match=message):
            generate_video(decoder, dictionary, schedule, 0, random_condition(16, 1),
                           alpha=alphas)

def fraction_round(row, bits):
    """Oracle: `row` rounded, ties to even, to multiples of 2**(e - bits),
    with e the exponent of its largest magnitude (2**(e-1) <= peak < 2**e),
    in exact rationals."""
    peak = max((abs(Fraction(x)) for x in row), default=Fraction(0))
    exponent = 0
    if peak:
        exponent = math.floor(math.log2(peak)) + 1
        while Fraction(2) ** (exponent - 1) > peak:
            exponent -= 1
        while Fraction(2) ** exponent <= peak:
            exponent += 1
    grid = Fraction(2) ** (exponent - bits)
    return [float(round(Fraction(x) / grid) * grid) for x in row], exponent


class TestExactProducts:
    """Generation reads parameters and hidden states rounded to a grid below
    the exponent of their largest entry, which makes every product exact, so
    a frame's bytes depend on nothing else in its batch and on no BLAS
    kernel or thread count."""

    ROWS = [
        # Ties at 2**-15 under a peak of 1 (grid 2**-14) go to even.
        [1.0, 2.0**-15, 3 * 2.0**-15, 5 * 2.0**-15, -(2.0**-15), -3 * 2.0**-15],
        [-0.75, 0.1, -0.3, 1e-9, -1e-9, 0.0],
        [0.0, 0.0, 0.0, -0.0],
        [1e308, -1e308, 3.0, 1.5e307],
        [-(2.0**-500), 2.0**-520, 3.0 * 2.0**-516],
    ]

    @pytest.mark.parametrize("bits", [13, 15])
    @pytest.mark.parametrize("helper", ["spd_core", "reference"])
    def test_rounding_matches_fraction_oracle(self, bits, helper):
        rng = np.random.default_rng(bits)
        rows = self.ROWS + [
            list(rng.normal(size=7) * 10.0 ** rng.integers(-30, 30)) for _ in range(200)
        ]
        for row in rows:
            want, exponent = fraction_round(row, bits)
            values = np.array(row)
            if helper == "spd_core":
                got, got_exponent = _round_to_grid(values[None], bits, 1, "row")
                assert got_exponent.ravel().tolist() == [exponent]
                got = got[0]
            else:
                got = reference_round(values, bits)
            assert np.isfinite(got).all()
            # Exact equality; a zero may keep the sign of the value it rounds.
            assert got.tolist() == want, row

    def test_rounding_rows_and_matrices_apart(self):
        values = np.array([[1.0, 2.0**-15], [2.0**-40, 3.0 * 2.0**-56]])
        rows, exponents = _round_to_grid(values, 15, 1, "rows")
        assert exponents.ravel().tolist() == [1, -39]
        assert rows.tolist() == [[1.0, 0.0], [2.0**-40, 4.0 * 2.0**-56]]
        whole, exponent = _round_to_grid(values, 15, None, "matrix")
        assert exponent.item() == 1
        assert whole.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rounding_rejects_non_finite_rows(self, bad):
        values = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError, match="must be finite"):
            _round_to_grid(values, 15, 1, "hidden state")

    def test_empty_rank_zero_factors(self):
        images, exponent = _round_to_grid(np.zeros((2, 4, 0)), 13, (-2, -1), "factors")
        assert images.shape == (2, 4, 0)
        assert exponent.ravel().tolist() == [0, 0]
        factor_a, factor_b = init_dictionary(CFG, layer_dim=4, rank=0)._factor_images
        assert factor_a.shape == (4, 4, 4, 0) and factor_b.shape == (4, 4, 0, 4)

    def test_frames_far_apart_in_scale_share_a_batch(self):
        # With a per-batch exponent the small frames would round to zero.
        decoder, dictionary = small_setup(seed=3)
        decoder = dataclasses.replace(decoder, offsets=np.zeros_like(decoder.offsets))
        rng = np.random.default_rng(3)
        latents = rng.normal(size=(8, 16)) * np.array([1.0, 1e-8] * 4)[:, None]
        indices = rng.integers(0, 4, (8, 4))
        batch = _forward(decoder, dictionary, indices, latents.copy(), 1.0)
        for i in range(8):
            single = _forward(
                decoder, dictionary, indices[i:i + 1], latents[i:i + 1].copy(), 1.0
            )
            assert single.tobytes() == batch[i].tobytes()
        # The small frames' pixels still carry their states.
        assert (batch[1::2] != 0.5).any()

    def test_shift_budget(self):
        assert MAX_SHIFT_TERMS == 4096
        init_dictionary(CFG, layer_dim=64, rank=64)
        with pytest.raises(ValueError, match="layer_dim \\* rank"):
            init_dictionary(CFG, layer_dim=128, rank=33)
        with pytest.raises(ValueError, match="layer_dim \\* rank"):
            stacked(np.zeros((1, 2, 65, 64)), np.zeros((1, 2, 64, 65)))

    def test_grids_below_the_normal_range_rejected(self):
        decoder, dictionary = small_setup()
        with pytest.raises(ValueError, match="too small"):
            dataclasses.replace(decoder, weights=decoder.weights * 1e-305)
        indices = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="too small"):
            _forward(decoder, dictionary, indices, np.full((2, 16), 1e-310), 1.0)
        # A state the rounding takes, whose products' terms would underflow.
        faint = init_dictionary(CFG, layer_dim=16, rank=8, init_scale=1e-200)
        with pytest.raises(ValueError, match="exact and finite"):
            _forward(decoder, faint, indices, np.full((2, 16), 1e-290), 1.0)

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86-64 kernels",
    )
    def test_corpus_does_not_depend_on_blas_kernel_or_threads(self):
        script = (
            "import hashlib; "
            "from spdmark.cli import RunConfig, build_corpus, toy_components; "
            "cfg = RunConfig(); "
            "videos = build_corpus(cfg, 'train', cfg.train_videos, "
            "cfg.train_frames, *toy_components(cfg)).videos; "
            "print(hashlib.sha256(videos.tobytes()).hexdigest())"
        )
        digests = [
            run_script(script, env={**kernel, "OPENBLAS_NUM_THREADS": threads})
            for kernel in ({}, {"OPENBLAS_CORETYPE": "Haswell"},
                           {"OPENBLAS_CORETYPE": "Prescott"})
            for threads in ("1", "2")
        ]
        cfg = RunConfig()
        videos = build_corpus(
            cfg, "train", cfg.train_videos, cfg.train_frames, *toy_components(cfg)
        ).videos
        here = hashlib.sha256(videos.tobytes()).hexdigest()
        assert digests == [here + "\n"] * 6


class TestInitDictionary:
    def test_default_rank_and_dim(self):
        assert DEFAULT_LAYER_DIM == 64
        assert DEFAULT_RANK == 32

    def test_seeded_determinism(self):
        a = init_dictionary(CFG, layer_dim=16, rank=8, init_seed=42)
        b = init_dictionary(CFG, layer_dim=16, rank=8, init_seed=42)
        np.testing.assert_array_equal(a.factor_a, b.factor_a)
        np.testing.assert_array_equal(a.factor_b, b.factor_b)

    def test_stacks_follow_the_documented_draw_order(self):
        # One generator, layer by layer, basis by basis, A and then B.
        dictionary = init_dictionary(CFG, layer_dim=6, rank=3, init_scale=0.4, init_seed=11)
        rng = np.random.default_rng(11)
        std = 0.4 / math.sqrt(6)
        assert dictionary.factor_a.shape == (4, 4, 6, 3)
        assert dictionary.factor_b.shape == (4, 4, 3, 6)
        for layer, basis in np.ndindex(4, 4):
            factor_a = rng.normal(0.0, std, (6, 3))
            factor_b = rng.normal(0.0, std, (3, 6))
            assert dictionary.factor_a[layer, basis].tobytes() == factor_a.tobytes()
            assert dictionary.factor_b[layer, basis].tobytes() == factor_b.tobytes()

    def test_zero_scale_matches_undisplaced_output(self):
        decoder, _ = small_setup()
        zero = init_dictionary(CFG, layer_dim=16, rank=8, init_scale=0.0, init_seed=1)
        plain = init_dictionary(CFG, layer_dim=16, rank=8, init_seed=1)
        key = random_key(CFG, 8)
        schedule = derive_frame_messages(SECRET, key, 3)
        condition = random_condition(16, 8)
        np.testing.assert_array_equal(
            generate_video(decoder, zero, schedule, 2, condition),
            generate_video(decoder, plain, schedule, 2, condition, alpha=0.0),
        )

    def test_rank_above_dim_rejected(self):
        with pytest.raises(ValueError):
            init_dictionary(CFG, layer_dim=8, rank=9)


class TestAlpha:
    def test_alpha_zero_generates_the_unmarked_video(self):
        dictionary, decoder, condition = toy_components(RunConfig(seed=3))
        schedule = derive_frame_messages(SECRET, random_key(dictionary.key_config(), 6), 5)
        video = generate_video(decoder, dictionary, schedule, 4, condition, alpha=0.0)
        want = reference_generate(decoder, dictionary, schedule, 4, condition, alpha=0.0)
        assert video.tobytes() == want.tobytes()
        marked = generate_video(decoder, dictionary, schedule, 4, condition)
        assert video.tobytes() != marked.tobytes()

    @pytest.mark.parametrize("init_scale,alpha", [(0.6, 4.0), (0.15, 0.25)])
    def test_init_scale_restates_alpha(self, init_scale, alpha):
        """A shift is alpha * A (B h) with A and B drawn at std
        init_scale / sqrt(d), so init_scale c * 0.3 is alpha c**2 at 0.3;
        for a power-of-two c the grid rounding commutes with it and the
        bytes are equal.  The run config therefore sets alpha alone."""
        base, decoder, condition = toy_components(RunConfig())
        scaled = init_dictionary(base.key_config(), init_scale=init_scale)
        schedule = derive_frame_messages(SECRET, random_key(base.key_config(), 1), 25)
        video = generate_video(decoder, scaled, schedule, 2, condition)
        want = generate_video(decoder, base, schedule, 2, condition, alpha=alpha)
        assert video.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        decoder, dictionary = small_setup()
        schedule = derive_frame_messages(SECRET, random_key(CFG, 1), 2)
        with pytest.raises(ValueError, match="alpha must be finite"):
            generate_video(decoder, dictionary, schedule, 0, random_condition(16, 1),
                           alpha=alpha)


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

    @pytest.mark.parametrize("num_layers, layer_dim", [(14, 64), (3, 5), (1, 2)])
    def test_stacked_draw_matches_the_per_layer_loop(self, num_layers, layer_dim):
        """One (L, d, d) draw and one stacked QR give the weights, and leave
        the stream where, the per-layer draws and QRs leave it."""
        for seed in range(5):
            decoder = init_toy_decoder(layer_dim, 2, 3, num_layers, seed)
            expected = reference_model.toy_decoder_draws(layer_dim, 2, 3, num_layers, seed)
            actual = (decoder.weights, decoder.offsets, decoder.projection)
            assert [a.tobytes() for a in actual] == [e.tobytes() for e in expected]


def scaled(rng, shape, exponents) -> np.ndarray:
    """Uniform entries in (-1, 1), each trailing matrix scaled by 2**k for
    the matching k of `exponents`."""
    return np.ldexp(rng.uniform(-1.0, 1.0, shape), np.asarray(exponents)[..., None, None])


def outcome(build):
    """What `build()` returns, or the message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


# Per-matrix scale exponents: ordinary ones, and ones near both ends of the
# range a parameter can be rounded in (a grid 2**(e - 13) must be normal,
# and every entry finite).
SCALES = [-1009, -1000, -3, 0, 2, 1000, 1023]


class TestStackedModel:
    """The dictionary's two image stacks and both models' range tables
    against the per-layer construction of tests/reference_model.py."""

    @pytest.mark.parametrize("shape", [(1, 2, 2, 1), (3, 4, 5, 0), (1, 2, 6, 3),
                                       (2, 4, 16, 8), (14, 4, 64, 32)])
    @pytest.mark.parametrize("scales", [[0], SCALES, [-1010, 0]], ids=["unit", "ends", "tiny"])
    def test_dictionary_matches_per_layer_construction(self, shape, scales):
        num_layers, bases, d, r = shape
        for seed in range(3):
            rng = np.random.default_rng(seed)
            factor_a = scaled(rng, shape, rng.choice(scales, shape[:2]))
            factor_b = scaled(rng, (num_layers, bases, r, d), rng.choice(scales, shape[:2]))

            def stacks():
                dictionary = stacked(factor_a, factor_b)
                images = [image.tobytes() for image in dictionary._factor_images]
                return images, dictionary._state_ranges.tolist()

            def layers():
                images, ranges = reference_model.dictionary_layers(factor_a, factor_b)
                return ([np.stack([pair[i] for pair in images]).tobytes() for i in (0, 1)],
                        [list(pair) for pair in ranges])

            assert outcome(stacks) == outcome(layers)

    @pytest.mark.parametrize("num_layers, d", [(1, 2), (3, 5), (14, 64)])
    @pytest.mark.parametrize("scales", [[0], SCALES, [-1010, 0]], ids=["unit", "ends", "tiny"])
    def test_decoder_matches_per_layer_construction(self, num_layers, d, scales):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            weights = scaled(rng, (num_layers, d, d), rng.choice(scales, num_layers))
            projection = scaled(rng, (12, d), rng.choice(scales))

            def stacks():
                decoder = ToyDecoder(weights, np.zeros((num_layers, d)), projection,
                                     np.zeros(12), (3, 2, 2))
                return (decoder._weight_images.tobytes(), decoder._projection_image.tobytes(),
                        decoder._state_ranges.tolist())

            def layers():
                images, projection_image, ranges = reference_model.decoder_layers(
                    weights, projection)
                return (np.stack(images).tobytes(), projection_image.tobytes(),
                        [list(pair) for pair in ranges])

            assert outcome(stacks) == outcome(layers)

    def test_tables_are_read_only_ints(self):
        decoder, dictionary = small_setup()
        for table, rows in ((decoder._state_ranges, 5), (dictionary._state_ranges, 4)):
            assert table.shape == (rows, 2) and table.dtype.kind == "i"
            with pytest.raises(ValueError):
                table[0, 0] = 0


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
        assert loaded.dtype == np.float64
        assert loaded.shape == video.shape == (4, 3, 4, 4)
        assert not loaded.flags.writeable
        assert loaded.tobytes() == video.tobytes()

    def test_header_layout(self):
        frame = np.arange(30, dtype=np.float64).reshape(3, 2, 5) / 7
        buffer = io.BytesIO()
        write_video(buffer, frame[None])
        raw = buffer.getvalue()
        assert raw[:4] == b"SPDF"
        assert raw[4] == 2
        assert raw[5:21] == (
            (1).to_bytes(4, "big")
            + (2).to_bytes(4, "big")
            + (5).to_bytes(4, "big")
            + (3).to_bytes(4, "big")
        )
        assert len(raw) == 21 + 8 * 3 * 2 * 5
        assert raw[21:] == frame.astype("<f8").tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, value, tmp_path):
        raw = io.BytesIO()
        write_video(raw, np.full((2, 3, 2, 2), 0.5))
        data = raw.getvalue()[:-8] + np.array([value], dtype="<f8").tobytes()
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

    @pytest.mark.parametrize("version", [0, 1, 3, 255])
    def test_other_versions_rejected(self, version):
        # The version-1 layout, float32 pixels, under each version byte but 2.
        raw = io.BytesIO()
        write_video(raw, np.full((1, 3, 2, 2), 0.5))
        header = raw.getvalue()[:21]
        data = header[:4] + bytes([version]) + header[5:] + np.full(12, 0.5, "<f4").tobytes()
        with pytest.raises(ValueError, match=f"version {version}$"):
            read_video(io.BytesIO(data))

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
        raw = b"SPDF\x02" + b"".join(d.to_bytes(4, "big") for d in dims) + b"\x00" * 48
        with pytest.raises(ValueError):
            read_video(io.BytesIO(raw))
        path = tmp_path / "bad.spdf"
        path.write_bytes(raw)
        with open(path, "rb") as stream, pytest.raises(ValueError):
            read_video(stream)
