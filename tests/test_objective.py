"""Loss, gradient, and extractor tests.

Oracles: a high-precision evaluation of the textbook cross-entropy form
(mpmath, 60 digits) for the numerically stable BCE; central finite
differences for every analytic gradient, sampled away from the absolute
value's kink; a hand-rolled conjugate-gradient solver for the ridge normal
equations; the earlier scipy Cholesky solve of the same equations
(tests/reference_fit.py); and direct double-loop evaluations of the loss
reductions.
"""

import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fit
from spdmark.cli import RunConfig, build_corpus, toy_components
from spdmark.keyspace import (
    BaseSecret,
    KeyConfig,
    MessageSequence,
    derive_frame_messages,
    random_key,
)
from spdmark.objective import (
    DEFAULT_RIDGE_LAMBDA,
    LUMA_WEIGHTS,
    Corpus,
    LinearExtractor,
    LossWeights,
    bce_logits,
    bit_accuracy,
    fit_extractor,
    imperceptibility_loss,
    loss_gradients,
    loss_report,
    luminance,
    mean_squared_error,
    read_extractor,
    recovery_loss,
    write_extractor,
)
from spdmark.spd_core import (
    generate_video,
    init_dictionary,
    init_toy_decoder,
    random_condition,
)

SECRET = BaseSecret(b"objective-module-test-secret")


def bce_reference(logit: float, bit: int) -> float:
    """Textbook -[b log(sigma) + (1-b) log(1-sigma)] at 60 digits."""
    with mpmath.workdps(60):
        sigma = 1 / (1 + mpmath.e ** (-mpmath.mpf(logit)))
        loss = -(bit * mpmath.log(sigma) + (1 - bit) * mpmath.log(1 - sigma))
        return float(loss)


def random_video(rng, frames=3, side=4):
    return rng.normal(0.5, 0.2, (frames, 3, side, side))


class TestBceLogits:
    def test_zero_logits_give_log_two(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            target = rng.integers(0, 2, 12)
            assert bce_logits(np.zeros(12), target) == pytest.approx(
                math.log(2), abs=1e-15
            )

    def test_saturated_correct_prediction(self):
        assert bce_logits(np.full(28, 20.0), np.ones(28)) < 1e-8
        assert bce_logits(np.full(28, -20.0), np.zeros(28)) < 1e-8

    def test_unit_logit_matches_closed_form(self):
        expected = bce_reference(1.0, 1)
        assert expected == pytest.approx(math.log1p(math.exp(-1.0)), rel=1e-15)
        assert bce_logits(np.array([1.0]), np.array([1.0])) == pytest.approx(
            expected, rel=1e-14
        )

    def test_matches_high_precision_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            logit = float(rng.uniform(-30, 30))
            bit = int(rng.integers(0, 2))
            stable = bce_logits(np.array([logit]), np.array([float(bit)]))
            exact = bce_reference(logit, bit)
            assert stable == pytest.approx(exact, rel=1e-12, abs=1e-15)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=16),
        st.lists(st.floats(-50, 50), min_size=1, max_size=16),
        st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_convex_in_logits(self, first, second, bit_seed):
        size = min(len(first), len(second))
        s1 = np.array(first[:size])
        s2 = np.array(second[:size])
        bits = np.array([(bit_seed >> i) & 1 for i in range(size)], dtype=float)
        mid = bce_logits((s1 + s2) / 2, bits)
        ends = (bce_logits(s1, bits) + bce_logits(s2, bits)) / 2
        assert mid <= ends + 1e-12

    def test_accepts_logit_vector_and_frame_message(self):
        cfg = KeyConfig(2, 4)
        (message,) = derive_frame_messages(SECRET, random_key(cfg, 0), 1)
        loss = bce_logits(np.zeros(cfg.message_bits), message.bits)
        assert loss == pytest.approx(math.log(2))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bce_logits(np.array([np.inf]), np.array([1.0]))
        with pytest.raises(ValueError):
            bce_logits(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(ValueError):
            bce_logits(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            bce_logits(np.zeros(2), np.array([0.0, 0.5]))


class TestRecoveryLoss:
    def test_zero_extractor_gives_log_two(self):
        extractor = LinearExtractor(np.zeros((6, 48)), np.zeros(6))
        video = np.random.default_rng(2).uniform(0, 1, (4, 3, 4, 4))
        schedule = MessageSequence(
            [np.random.default_rng(t).integers(0, 2, 6) for t in range(4)]
        )
        assert recovery_loss(video, extractor, schedule) == pytest.approx(math.log(2))

    def test_saturated_extractor_drives_loss_to_zero(self):
        bits = np.array([1, 0, 1, 1, 0, 0], dtype=float)
        extractor = LinearExtractor(np.zeros((6, 48)), 40.0 * (2 * bits - 1))
        video = np.zeros((3, 3, 4, 4))
        assert recovery_loss(video, extractor, MessageSequence([bits] * 3)) < 1e-8

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            extractor = LinearExtractor(rng.normal(0, 1, (5, 48)), rng.normal(0, 1, 5))
            video = rng.uniform(0, 1, (2, 3, 4, 4))
            schedule = MessageSequence([rng.integers(0, 2, 5) for _ in range(2)])
            assert recovery_loss(video, extractor, schedule) >= 0.0

    def test_length_mismatch_rejected(self):
        extractor = LinearExtractor(np.zeros((6, 48)), np.zeros(6))
        video = np.zeros((3, 3, 4, 4))
        with pytest.raises(ValueError):
            recovery_loss(video, extractor, MessageSequence(np.zeros((2, 6))))


class TestLuminance:
    def test_white_frame_is_unit(self):
        assert sum(LUMA_WEIGHTS) == pytest.approx(1.0, abs=1e-15)
        y = luminance(np.ones((3, 4, 4)))
        np.testing.assert_allclose(y, 1.0, atol=1e-12)

    def test_black_frame_is_zero(self):
        assert luminance(np.zeros((3, 4, 4))).max() == 0.0

    def test_pure_green_uses_green_coefficient(self):
        frame = np.zeros((3, 2, 2))
        frame[1] = 1.0
        np.testing.assert_array_equal(luminance(frame), np.full((2, 2), 0.587))

    def test_accepts_a_row_of_a_read_only_video(self):
        video = np.ones((2, 3, 2, 2))
        video.setflags(write=False)
        np.testing.assert_allclose(luminance(video[1]), 1.0, atol=1e-12)

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            luminance(np.zeros((4, 2, 2)))


class TestImperceptibility:
    def test_identical_videos_score_zero(self):
        video = random_video(np.random.default_rng(4))
        assert imperceptibility_loss(video, video.copy()) == 0.0

    def test_static_offset_hits_only_perceptual_term(self):
        video = random_video(np.random.default_rng(5))
        offset = 0.25
        shifted = video + offset
        weights = LossWeights(lambda_ps=3.0, lambda_tc=7.0)
        loss = imperceptibility_loss(video, shifted, weights)
        assert loss == pytest.approx(weights.lambda_ps * offset**2, rel=1e-12)

    def test_single_flicker_raises_temporal_term(self):
        video = random_video(np.random.default_rng(6), frames=4)
        flickered = video.copy()
        flickered[2] += 0.1
        only_tc = imperceptibility_loss(
            video, flickered, LossWeights(0.0, 1.0)
        )
        assert only_tc > 0.0
        # The flicker perturbs exactly the two differences touching frame 2.
        assert only_tc == pytest.approx(2 * 0.1 / 3, rel=1e-10)

    def test_matches_direct_double_loop(self):
        rng = np.random.default_rng(7)
        clean = random_video(rng, frames=5)
        marked = random_video(rng, frames=5)
        weights = LossWeights(0.7, 1.3)

        ps_terms = []
        for t in range(5):
            ps_terms.append(np.mean((clean[t] - marked[t]) ** 2))
        tc_terms = []
        for t in range(4):
            dy_clean = luminance(clean[t + 1]) - luminance(clean[t])
            dy_marked = luminance(marked[t + 1]) - luminance(marked[t])
            tc_terms.append(np.mean(np.abs(dy_clean - dy_marked)))
        expected = weights.lambda_ps * np.mean(ps_terms) + weights.lambda_tc * np.mean(
            tc_terms
        )
        assert imperceptibility_loss(clean, marked, weights) == pytest.approx(
            expected, rel=1e-12
        )

    def test_default_distance_is_symmetric(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4, 4))
        b = rng.normal(size=(3, 4, 4))
        assert mean_squared_error(a, b) == mean_squared_error(b, a)

    def test_temporal_term_ignores_shared_static_raster(self):
        rng = np.random.default_rng(9)
        clean = random_video(rng, frames=4)
        marked = random_video(rng, frames=4)
        raster = rng.normal(0, 0.5, (3, 4, 4))
        weights = LossWeights(0.0, 1.0)
        base = imperceptibility_loss(clean, marked, weights)
        shifted = imperceptibility_loss(clean + raster, marked + raster, weights)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_shape_and_length_validation(self):
        video = random_video(np.random.default_rng(11))
        with pytest.raises(ValueError):
            imperceptibility_loss(video, video[:, :, :2, :])
        with pytest.raises(ValueError):
            imperceptibility_loss(video[:1], video[:1])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_ps=-0.1)


def make_instance(seed, frames=3, side=4, bits=6):
    """Random gradient-check instance kept away from the |.| kink."""
    rng = np.random.default_rng(seed)
    while True:
        clean = random_video(rng, frames, side)
        marked = random_video(rng, frames, side)
        gap = np.diff(luminance_video(clean), axis=0) - np.diff(
            luminance_video(marked), axis=0
        )
        if np.abs(gap).min() > 1e-3:
            break
    features = 3 * side * side
    extractor = LinearExtractor(
        rng.normal(0, 0.2, (bits, features)), rng.normal(0, 0.2, bits)
    )
    schedule = MessageSequence([rng.integers(0, 2, bits) for _ in range(frames)])
    weights = LossWeights(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
    return clean, marked, extractor, schedule, weights


def luminance_video(video):
    return np.stack([luminance(frame) for frame in video])


def total_loss(clean, marked, extractor, schedule, weights):
    return imperceptibility_loss(clean, marked, weights) + recovery_loss(
        marked, extractor, schedule
    )


class TestLossGradients:
    def test_zero_at_joint_minimum(self):
        video = random_video(np.random.default_rng(12))
        extractor = LinearExtractor(np.zeros((6, 48)), np.zeros(6))
        schedule = MessageSequence(np.zeros((3, 6)))
        grads = loss_gradients(video, video.copy(), extractor, schedule)
        assert np.abs(grads["ps"]).max() == 0.0
        assert np.abs(grads["tc"]).max() == 0.0
        assert np.abs(grads["rec"]).max() == 0.0
        assert np.abs(grads["total"]).max() == 0.0

    def test_finite_differences_over_many_instances(self):
        step = 1e-4
        worst = 0.0
        for seed in range(50):
            clean, marked, extractor, schedule, weights = make_instance(seed)
            grads = loss_gradients(clean, marked, extractor, schedule, weights)
            flat_grad = grads["total"].ravel()
            probe = np.random.default_rng(1000 + seed)
            for position in probe.choice(marked.size, size=12, replace=False):
                bumped = marked.copy().ravel()
                bumped[position] += step
                plus = total_loss(
                    clean, bumped.reshape(marked.shape), extractor, schedule, weights
                )
                bumped[position] -= 2 * step
                minus = total_loss(
                    clean, bumped.reshape(marked.shape), extractor, schedule, weights
                )
                numeric = (plus - minus) / (2 * step)
                rel = abs(numeric - flat_grad[position]) / max(
                    1.0, abs(flat_grad[position])
                )
                worst = max(worst, rel)
        assert worst <= 1e-5

    def test_temporal_gradient_linear_in_weight(self):
        clean, marked, extractor, schedule, _ = make_instance(99)
        one = loss_gradients(clean, marked, extractor, schedule, LossWeights(1.0, 1.0))
        two = loss_gradients(clean, marked, extractor, schedule, LossWeights(1.0, 2.0))
        np.testing.assert_array_equal(two["tc"], 2.0 * one["tc"])
        np.testing.assert_array_equal(two["ps"], one["ps"])

    def test_recovery_gradient_matches_manual_loop(self):
        clean, marked, extractor, schedule, weights = make_instance(7)
        grads = loss_gradients(clean, marked, extractor, schedule, weights)
        frames, bits = len(schedule), extractor.message_bits
        for t in range(frames):
            logits = extractor.logits(marked[t])
            sigma = 1 / (1 + np.exp(-logits))
            expected = extractor.weight.T @ (sigma - schedule.messages[t]) / (bits * frames)
            np.testing.assert_allclose(
                grads["rec"][t].ravel(), expected, rtol=1e-12, atol=1e-15
            )

    def test_recovery_gradient_at_extreme_logits_matches_expit(self):
        # scipy's logistic is the oracle; the recovery gradient computes its
        # own and must neither overflow nor lose relative accuracy where
        # 1 / (1 + e^-s) is as small as e^-700.
        from scipy.special import expit

        clean, marked, _, schedule, weights = make_instance(5)
        weight = np.random.default_rng(5).normal(0, 0.01, (6, 48))
        frames, bits = len(schedule), 6
        cases = (
            ([800, -800, 700, -700, 30, -30], schedule),
            # Every residual is the logistic itself, about e^-700.
            ([-700] * 6, MessageSequence(np.zeros((frames, bits)))),
        )
        for bias, messages in cases:
            extractor = LinearExtractor(weight, np.array(bias, dtype=np.float64))
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                rec = loss_gradients(clean, marked, extractor, messages, weights)["rec"]
            assert np.isfinite(rec).all()
            for t in range(frames):
                residual = expit(extractor.logits(marked[t])) - messages.messages[t]
                expected = weight.T @ residual / (bits * frames)
                assert np.abs(expected).max() > 0.0
                np.testing.assert_allclose(rec[t].ravel(), expected, rtol=1e-12, atol=0)

    def test_components_sum_to_total(self):
        clean, marked, extractor, schedule, weights = make_instance(21)
        grads = loss_gradients(clean, marked, extractor, schedule, weights)
        np.testing.assert_array_equal(
            grads["total"], grads["ps"] + grads["tc"] + grads["rec"]
        )

    def test_validation_errors(self):
        clean, marked, extractor, schedule, weights = make_instance(33)
        with pytest.raises(ValueError):
            loss_gradients(clean[:2], marked, extractor, schedule, weights)
        with pytest.raises(ValueError):
            loss_gradients(
                clean, marked, extractor, MessageSequence(schedule.messages[:-1]), weights
            )
        short = LinearExtractor(np.zeros((3, 48)), np.zeros(3))
        with pytest.raises(ValueError):
            loss_gradients(clean, marked, short, schedule, weights)


def conjugate_gradient(matrix, rhs, iterations=5000, tol=1e-13):
    x = np.zeros_like(rhs)
    residual = rhs - matrix @ x
    direction = residual.copy()
    rs = residual @ residual
    for _ in range(iterations):
        if math.sqrt(rs) < tol:
            break
        step = matrix @ direction
        alpha = rs / (direction @ step)
        x += alpha * direction
        residual -= alpha * step
        rs_next = residual @ residual
        direction = residual + (rs_next / rs) * direction
        rs = rs_next
    return x


class TestFitExtractor:
    def test_identity_recoverable_design(self):
        rng = np.random.default_rng(13)
        bits = 8
        schedule = MessageSequence(rng.integers(0, 2, (20, bits)))
        videos = np.zeros((2, 10, 3, 4, 4))
        frames = videos.reshape(20, -1)
        frames[:, :bits] = 2.0 * schedule.messages - 1
        corpus = Corpus(videos, schedule)
        extractor = fit_extractor(corpus, ridge_lambda=1e-9)
        assert bit_accuracy(extractor, corpus) == 1.0

    def test_huge_ridge_collapses_to_chance(self):
        rng = np.random.default_rng(14)
        videos = rng.uniform(0, 1, (10, 40, 3, 4, 4))
        schedule = MessageSequence([rng.integers(0, 2, 8) for _ in range(400)])
        corpus = Corpus(videos, schedule)
        extractor = fit_extractor(corpus, ridge_lambda=1e9)
        assert np.abs(extractor.weight).max() < 1e-5
        accuracy = bit_accuracy(extractor, corpus)
        assert 0.4 <= accuracy <= 0.62

    def test_matches_conjugate_gradient_solver(self):
        rng = np.random.default_rng(15)
        video = rng.normal(0.5, 0.3, (40, 3, 2, 2))
        schedule = MessageSequence([rng.integers(0, 2, 5) for _ in range(40)])
        ridge = 0.5
        extractor = fit_extractor(Corpus(video[None], schedule), ridge_lambda=ridge)

        features = 12
        design = np.hstack(
            [video.reshape(40, features), np.ones((40, 1))]
        )
        gram = design.T @ design
        gram[np.arange(features), np.arange(features)] += ridge
        targets = 2.0 * schedule.messages - 1
        for bit in range(5):
            solution = conjugate_gradient(gram, design.T @ targets[:, bit])
            np.testing.assert_allclose(
                extractor.weight[bit], solution[:features], atol=1e-6
            )
            assert extractor.bias[bit] == pytest.approx(solution[features], abs=1e-6)

    def test_zero_ridge_is_the_minimum_norm_fit(self):
        # The default training corpus has rank 66 of its 193 design columns
        # (Gram condition number about 6e18), so at lambda = 0 only an
        # SVD-based solve is meaningful: the fit must be the minimum-norm
        # least-squares solution that the pseudo-inverse gives.
        cfg = RunConfig()
        corpus = build_corpus(
            cfg, "train", cfg.train_videos, cfg.train_frames, *toy_components(cfg)
        )
        videos, schedule = corpus.videos, corpus.schedule
        extractor = fit_extractor(corpus, ridge_lambda=0.0)
        design = np.hstack([videos.reshape(len(schedule), -1), np.ones((len(schedule), 1))])
        want = np.linalg.pinv(design) @ (2.0 * schedule.messages - 1)
        # Entries reach about 19; the two solves agree to about 2e-12.
        np.testing.assert_allclose(extractor.weight, want[:-1].T, rtol=0, atol=1e-6)
        np.testing.assert_allclose(extractor.bias, want[-1], rtol=0, atol=1e-6)
        assert extractor.ridge_lambda == 0.0
        assert bit_accuracy(extractor, corpus) >= 0.99

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        videos = rng.uniform(0, 1, (3, 6, 3, 4, 4))
        schedule = MessageSequence(rng.integers(0, 2, (18, 6)))
        first = fit_extractor(Corpus(videos, schedule))
        second = fit_extractor(Corpus(videos, schedule))
        np.testing.assert_array_equal(first.weight, second.weight)
        np.testing.assert_array_equal(first.bias, second.bias)

    def test_degenerate_inputs_rejected(self):
        schedule = MessageSequence(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            Corpus(np.zeros((0, 2, 3, 4, 4)), schedule)
        video = np.zeros((2, 3, 4, 4))
        with pytest.raises(ValueError, match="stack"):
            Corpus(video, schedule)
        with pytest.raises(ValueError):
            fit_extractor(Corpus(video[None], schedule), ridge_lambda=-1.0)

    @pytest.mark.parametrize(
        "schedule, message",
        [
            pytest.param([[0, 1, 1, 0]] * 6, "MessageSequence", id="list-of-rows"),
            pytest.param(np.zeros((6, 4), dtype=np.uint8), "MessageSequence", id="array"),
            pytest.param(MessageSequence(np.zeros((5, 4))), "5 messages for 6 frames",
                         id="too-few-rows"),
            pytest.param(MessageSequence(np.zeros((12, 4))), "12 messages for 6 frames",
                         id="too-many-rows"),
        ],
    )
    def test_schedule_must_be_one_message_sequence_row_per_frame(self, schedule, message):
        rng = np.random.default_rng(20)
        videos = rng.uniform(0, 1, (2, 3, 3, 2, 2))
        extractor = LinearExtractor(np.zeros((4, 12)), np.zeros(4))
        clean, marked = videos.reshape(6, 3, 2, 2), rng.uniform(0, 1, (6, 3, 2, 2))
        with pytest.raises(ValueError, match=message):
            Corpus(videos, schedule)
        with pytest.raises(ValueError, match=message):
            recovery_loss(marked, extractor, schedule)
        with pytest.raises(ValueError, match=message):
            loss_report(clean, marked, extractor, schedule)
        with pytest.raises(ValueError, match=message):
            loss_gradients(clean, marked, extractor, schedule)

    def test_message_width_must_match_the_extractor(self):
        videos = np.zeros((1, 3, 3, 2, 2))
        schedule = MessageSequence(np.zeros((3, 5)))
        extractor = LinearExtractor(np.zeros((4, 12)), np.zeros(4))
        with pytest.raises(ValueError, match="extractor bit count"):
            bit_accuracy(extractor, Corpus(videos, schedule))

    def test_tie_at_zero_decodes_to_zero(self):
        extractor = LinearExtractor(np.zeros((4, 12)), np.zeros(4))
        np.testing.assert_array_equal(extractor.decode(np.ones((3, 2, 2))), [0, 0, 0, 0])


def extractor_bytes(extractor: LinearExtractor) -> bytes:
    return extractor.weight.tobytes() + extractor.bias.tobytes()


class TestCorpus:
    """A Corpus checks its stack and schedule once, and keeps the ridge
    normal equations, computed on its first fit, for every later fit."""

    @staticmethod
    def small_corpus(seed=21) -> Corpus:
        rng = np.random.default_rng(seed)
        return Corpus(
            rng.uniform(0, 1, (3, 6, 3, 4, 4)), MessageSequence(rng.integers(0, 2, (18, 6)))
        )

    def test_iterates_over_its_read_only_videos(self):
        corpus = self.small_corpus()
        assert len(corpus) == 3
        assert [video.shape for video in corpus] == [(6, 3, 4, 4)] * 3
        assert sum(len(video) for video in corpus) == len(corpus.schedule)
        assert corpus.frames.shape == (18, 3, 4, 4)
        for array in (corpus.videos, corpus.frames, corpus.schedule.messages):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    def test_normal_equations_are_computed_once_and_read_only(self, monkeypatch):
        designs = []
        design = Corpus._design
        monkeypatch.setattr(
            Corpus, "_design", lambda corpus: designs.append(corpus) or design(corpus)
        )
        corpus = self.small_corpus()
        assert designs == []
        for ridge in (1e-3, 0.01, 1e-3):
            fit_extractor(corpus, ridge_lambda=ridge)
        assert designs == [corpus]
        gram, rhs = corpus.normal_equations
        assert corpus.normal_equations[0] is gram and corpus.normal_equations[1] is rhs
        features = len(gram) - 1
        with pytest.raises(ValueError):
            gram[np.arange(features), np.arange(features)] += 1e-3
        with pytest.raises(ValueError):
            rhs += 1.0
        # The fits left the unpenalized equations as they were computed.
        want_gram, want_rhs = reference_fit.normal_equations(
            corpus.videos, corpus.schedule, ridge_lambda=0.0
        )
        assert gram.tobytes() == want_gram.tobytes()
        assert rhs.tobytes() == want_rhs.tobytes()

    def test_fits_on_one_corpus_equal_fits_on_fresh_corpora(self):
        cfg = RunConfig()
        shared = build_corpus(
            cfg, "train", cfg.train_videos, cfg.train_frames, *toy_components(cfg)
        )
        for ridge in (1e-3, 0.01, 1e-3, 0.0):
            fitted = fit_extractor(shared, ridge_lambda=ridge)
            fresh = fit_extractor(Corpus(shared.videos, shared.schedule), ridge_lambda=ridge)
            assert extractor_bytes(fitted) == extractor_bytes(fresh), ridge
            if ridge == 0.0:
                continue
            # As TestFitAgainstScipySolve: both solve the normal equations.
            oracle = reference_fit.fit_extractor(
                shared.videos, shared.schedule, ridge_lambda=ridge
            )
            gram, rhs = reference_fit.normal_equations(
                shared.videos, shared.schedule, ridge_lambda=ridge
            )
            for extractor in (fitted, oracle):
                residual = gram @ reference_fit.solution(extractor) - rhs
                assert np.linalg.norm(residual) / np.linalg.norm(rhs) < 1e-10
            want = reference_fit.solution(oracle)
            got = reference_fit.solution(fitted)
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def header(extractor: LinearExtractor) -> bytes:
    stream = io.BytesIO()
    write_extractor(stream, extractor)
    return stream.getvalue().split(b"\n", 1)[0]


class TestKeptFit:
    """A Corpus keeps the extractor of its last fit, which a repeated fit at
    the same ridge_lambda returns without solving again."""

    def test_repeated_fits_return_the_kept_extractor(self):
        corpus = TestCorpus.small_corpus()
        previous = (None, None)
        for ridge in (1e-3, 1e-3, 0.01, 1e-3, 0.01, 0.01, 0.0, 0.0):
            fitted = fit_extractor(corpus, ridge_lambda=ridge)
            fresh = fit_extractor(TestCorpus.small_corpus(), ridge_lambda=ridge)
            assert extractor_bytes(fitted) == extractor_bytes(fresh), ridge
            assert header(fitted) == header(fresh)
            assert (fitted is previous[1]) == (ridge == previous[0])
            previous = (ridge, fitted)

    def test_a_repeated_fit_solves_nothing(self, monkeypatch):
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda *args: solves.append(1) or solve(*args)
        )
        corpus = TestCorpus.small_corpus()
        for ridge in (1e-3, 1e-3, 1e-3):
            fit_extractor(corpus, ridge_lambda=ridge)
        assert len(solves) == 1
        fit_extractor(corpus, ridge_lambda=0.01)
        fit_extractor(corpus, ridge_lambda=1e-3)
        assert len(solves) == 3

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0), (0, 0.0), (1.0, 1)])
    def test_equal_lambdas_that_write_other_headers_are_fitted_apart(self, first, second):
        corpus = TestCorpus.small_corpus()
        kept = fit_extractor(corpus, ridge_lambda=first)
        fitted = fit_extractor(corpus, ridge_lambda=second)
        assert fitted is not kept
        assert header(fitted) != header(kept)
        assert header(fitted) == header(fit_extractor(TestCorpus.small_corpus(), second))


class TestVideoDecode:
    """LinearExtractor.decode takes a frame or a whole video; a video's rows
    are its frames' decodes."""

    @pytest.mark.parametrize("frames, side, bits", [(1, 1, 1), (7, 2, 5), (25, 8, 28)])
    def test_video_decode_equals_the_frame_decodes(self, frames, side, bits):
        rng = np.random.default_rng(100 * frames + bits)
        video = rng.uniform(0, 1, (frames, 3, side, side))
        weight = rng.normal(0, 1, (bits, 3 * side * side))
        # A zero row ties every logit at 0, which decodes to 0.
        weight[0] = 0.0
        extractor = LinearExtractor(weight, np.r_[0.0, rng.normal(0, 1, bits - 1)])
        decoded = extractor.decode(video)
        want = np.array([extractor.decode(frame) for frame in video])
        assert decoded.dtype == np.uint8 and want.shape == (frames, bits)
        assert decoded.tobytes() == want.tobytes()
        assert (decoded[:, 0] == 0).all()
        assert extractor.decode(video[0]).shape == (bits,)

    def test_video_of_another_frame_size_rejected(self):
        extractor = LinearExtractor(np.zeros((2, 12)), np.zeros(2))
        with pytest.raises(ValueError, match="frame has 48 pixels"):
            extractor.decode(np.ones((2, 3, 4, 4)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_accuracy_equals_the_frame_loop(self, seed):
        rng = np.random.default_rng(seed)
        corpus = Corpus(rng.uniform(0, 1, (3, 5, 3, 2, 2)),
                        MessageSequence(rng.integers(0, 2, (15, 6))))
        extractor = LinearExtractor(rng.normal(0, 1, (6, 12)), rng.normal(0, 1, 6))
        correct = 0
        for frame, row in zip(corpus.frames, corpus.schedule.messages):
            correct += int((extractor.decode(frame) == row).sum())
        assert bit_accuracy(extractor, corpus) == correct / corpus.schedule.messages.size

class TestLossesOnWholeVideos:
    """recovery_loss and the perceptual term run on whole videos; each must
    equal, bit for bit, the frame-by-frame loop over bce_logits and
    mean_squared_error."""

    @pytest.mark.parametrize(
        "frames, side, bits",
        [(2, 1, 1), (2, 2, 3), (7, 5, 9), (25, 8, 28), (3, 16, 130)],
    )
    def test_equal_to_the_frame_loop(self, frames, side, bits):
        rng = np.random.default_rng(1000 * frames + 10 * side + bits)
        clean = rng.uniform(0, 1, (frames, 3, side, side))
        marked = clean + rng.normal(0, 0.05, clean.shape)
        extractor = LinearExtractor(
            rng.normal(0, 2, (bits, 3 * side * side)), rng.normal(0, 1, bits)
        )
        schedule = MessageSequence(rng.integers(0, 2, (frames, bits)))
        rec = 0.0
        for frame, row in zip(marked, schedule.messages):
            rec += bce_logits(extractor.logits(frame), row)
        rec /= frames
        ps = float(np.mean([mean_squared_error(c, m) for c, m in zip(clean, marked)]))
        assert recovery_loss(marked, extractor, schedule).hex() == rec.hex()
        report = loss_report(clean, marked, extractor, schedule)
        assert (report["rec"].hex(), report["ps"].hex()) == (rec.hex(), ps.hex())

    def test_rejects_logits_that_overflow(self):
        extractor = LinearExtractor(np.full((2, 12), 1e308), np.zeros(2))
        schedule = MessageSequence(np.zeros((2, 2)))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="logits must be finite"):
            recovery_loss(np.ones((2, 3, 2, 2)), extractor, schedule)

    def test_rejects_a_frame_of_another_size(self):
        extractor = LinearExtractor(np.zeros((2, 12)), np.zeros(2))
        with pytest.raises(ValueError, match="frame has 48 pixels"):
            recovery_loss(np.ones((2, 3, 4, 4)), extractor, MessageSequence(np.zeros((2, 2))))


class TestSerialization:
    def test_round_trip_preserves_behavior(self):
        rng = np.random.default_rng(17)
        extractor = LinearExtractor(
            rng.normal(0, 1, (6, 48)), rng.normal(0, 1, 6), ridge_lambda=0.25
        )
        buffer = io.BytesIO()
        write_extractor(buffer, extractor)
        buffer.seek(0)
        loaded = read_extractor(buffer)
        assert loaded.message_bits == 6
        assert loaded.num_features == 48
        assert loaded.ridge_lambda == 0.25
        np.testing.assert_allclose(loaded.weight, extractor.weight, atol=1e-6)
        np.testing.assert_allclose(loaded.bias, extractor.bias, atol=1e-6)

    def test_round_trip_is_bitwise_exact(self):
        rng = np.random.default_rng(23)
        # fit_extractor passes its weight as a transposed view; the extractor
        # holds a C-contiguous copy, so its products and the blob agree.
        extractor = LinearExtractor(
            rng.normal(0, 1, (48, 6)).T / 3, rng.normal(0, 1, 6) / 7, ridge_lambda=1e-3
        )
        assert extractor.weight.flags.c_contiguous
        buffer = io.BytesIO()
        write_extractor(buffer, extractor)
        raw = buffer.getvalue()
        header, payload = raw.split(b"\n", 1)
        assert json.loads(header)["version"] == 2
        weight_blob = extractor.weight.astype("<f8").tobytes()
        assert payload == weight_blob + extractor.bias.astype("<f8").tobytes()
        loaded = read_extractor(io.BytesIO(raw))
        assert loaded.weight.tobytes() == extractor.weight.tobytes()
        assert loaded.bias.tobytes() == extractor.bias.tobytes()
        assert loaded.ridge_lambda == extractor.ridge_lambda

    @pytest.mark.parametrize(
        "version, message",
        [
            (None, "missing key 'version'"),
            (1, "version 1$"),
            (3, "version 3$"),
            ("2", "version '2'$"),
            (2.0, "version 2.0$"),
            (True, "version True$"),
        ],
    )
    def test_other_versions_rejected(self, version, message):
        buffer = io.BytesIO()
        write_extractor(buffer, LinearExtractor(np.ones((2, 3)), np.zeros(2)))
        header, payload = buffer.getvalue().split(b"\n", 1)
        doc = json.loads(header)
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        raw = json.dumps(doc).encode() + b"\n" + payload
        with pytest.raises(ValueError, match=message):
            read_extractor(io.BytesIO(raw))

    def test_truncated_stream_rejected(self):
        extractor = LinearExtractor(np.zeros((2, 12)), np.zeros(2))
        buffer = io.BytesIO()
        write_extractor(buffer, extractor)
        payload = buffer.getvalue()
        with pytest.raises(ValueError):
            read_extractor(io.BytesIO(payload[:-4]))
        with pytest.raises(ValueError):
            read_extractor(io.BytesIO(payload.split(b"\n")[0]))

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"message_bits": 99999, "features": 99999999}, "truncated extractor payload"),
            ({"message_bits": -1, "features": 12}, "must be positive"),
            ({"message_bits": 2, "features": 0}, "must be positive"),
            ({"message_bits": 2}, "missing key 'features'"),
            ({"message_bits": [2], "features": 12}, "malformed"),
        ],
    )
    def test_malformed_header_rejected(self, header, message, tmp_path):
        raw = (
            json.dumps({"version": 2, "ridge_lambda": 0.001, **header}).encode()
            + b"\n" + b"\0" * 64
        )
        with pytest.raises(ValueError, match=message):
            read_extractor(io.BytesIO(raw))
        path = tmp_path / "extractor.bin"
        path.write_bytes(raw)
        with open(path, "rb") as stream, pytest.raises(ValueError, match=message):
            read_extractor(stream)

    @pytest.mark.parametrize("tail", [b"\0", b"\0" * 4, b"\n"])
    def test_trailing_data_rejected(self, tail, tmp_path):
        raw = io.BytesIO()
        write_extractor(raw, LinearExtractor(np.ones((2, 12)), np.zeros(2)))
        with pytest.raises(ValueError, match="trailing data"):
            read_extractor(io.BytesIO(raw.getvalue() + tail))
        path = tmp_path / "extractor.bin"
        path.write_bytes(raw.getvalue() + tail)
        with open(path, "rb") as stream, pytest.raises(ValueError, match="trailing data"):
            read_extractor(stream)

    def test_deeply_nested_header_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            read_extractor(io.BytesIO(b"[" * 4000 + b"\n"))

    def test_unterminated_long_header_rejected(self, tmp_path):
        path = tmp_path / "extractor.bin"
        path.write_bytes(b"{" + b" " * 100_000)
        with open(path, "rb") as stream, pytest.raises(ValueError, match="header exceeds"):
            read_extractor(stream)


class TestLossReport:
    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(lambda v: np.where(v > 0.5, np.nan, v), id="nan"),
            pytest.param(lambda v: np.where(v > 0.5, -np.inf, v), id="inf"),
            pytest.param(lambda v: v[:, :2], id="2-channels"),
            pytest.param(lambda v: v[0], id="3-d"),
        ],
    )
    def test_rejects_non_videos(self, bad):
        clean, marked, extractor, schedule, weights = make_instance(19)
        for args in ((bad(clean), marked), (clean, bad(marked))):
            with pytest.raises(ValueError):
                loss_report(*args, extractor, schedule, weights)
            with pytest.raises(ValueError):
                loss_gradients(*args, extractor, schedule, weights)
        with pytest.raises(ValueError):
            recovery_loss(bad(marked), extractor, schedule)

    def test_report_keys_and_total(self):
        clean, marked, extractor, schedule, weights = make_instance(18)
        report = loss_report(clean, marked, extractor, schedule, weights)
        assert set(report) == {"ps", "tc", "rec", "total"}
        assert report["total"] == pytest.approx(
            report["ps"] + report["tc"] + report["rec"], rel=1e-14
        )
        assert report["ps"] + report["tc"] == pytest.approx(
            imperceptibility_loss(clean, marked, weights), rel=1e-12
        )
        assert report["rec"] == pytest.approx(
            recovery_loss(marked, extractor, schedule), rel=1e-12
        )


class TestLearnability:
    """Reduced-size end-to-end checks of the extractor on generated videos.

    The corpus shares one condition vector across videos.  The displacement
    a given mask adds to the hidden state is linear in that state, so its
    pixel signature points along a fixed direction only when the condition
    is fixed; fresh per-video conditions randomize the direction's sign and
    no single linear map can decode across videos.
    """

    def _corpus(self, dictionary, decoder, condition_for, count, frames, offset):
        """The (count, frames, 3, H, W) video stack and its schedule."""
        cfg = dictionary.key_config()
        videos, schedules = [], []
        for index in range(count):
            key = random_key(cfg, offset + index)
            schedule = derive_frame_messages(SECRET, key, frames)
            generated = generate_video(
                decoder,
                dictionary,
                schedule,
                latent_seed=offset + index,
                condition=condition_for(offset + index),
            )
            videos.append(generated)
            schedules.append(schedule)
        return Corpus(np.stack(videos), MessageSequence(np.concatenate(schedules)))

    def test_holdout_accuracy_shared_condition_corpus(self):
        cfg = KeyConfig(14, 4)
        dictionary = init_dictionary(cfg, init_seed=101)
        decoder = init_toy_decoder(seed=202)
        shared = random_condition(64, 7)
        train = self._corpus(dictionary, decoder, lambda _: shared, 40, 6, 0)
        held = self._corpus(dictionary, decoder, lambda _: shared, 16, 6, 10_000)
        extractor = fit_extractor(train)
        assert bit_accuracy(extractor, train) >= 0.98
        assert bit_accuracy(extractor, held) >= 0.9

    def test_fresh_conditions_defeat_a_single_linear_map(self):
        cfg = KeyConfig(14, 4)
        dictionary = init_dictionary(cfg, init_seed=101)
        decoder = init_toy_decoder(seed=202)
        fresh = lambda seed: random_condition(64, seed)
        train = self._corpus(dictionary, decoder, fresh, 40, 6, 0)
        held = self._corpus(dictionary, decoder, fresh, 16, 6, 10_000)
        extractor = fit_extractor(train)
        assert bit_accuracy(extractor, held) <= 0.65


class TestFitAgainstScipySolve:
    """The numpy solve against the earlier scipy Cholesky solve, on the
    default model's toy corpus under three conditions: their last bits
    differ (the Gram matrix's condition number is about 3e9), but both
    solve the normal equations and decode the holdout corpus alike."""

    @pytest.mark.parametrize("condition_seed", [1, 3, 5])
    def test_default_toy_corpus(self, condition_seed):
        cfg = RunConfig(condition_seed=condition_seed)
        components = toy_components(cfg)
        train = build_corpus(cfg, "train", cfg.train_videos, cfg.train_frames, *components)
        held = build_corpus(cfg, "holdout", cfg.holdout_videos, cfg.train_frames, *components)
        fitted = fit_extractor(train, ridge_lambda=cfg.ridge_lambda)
        oracle = reference_fit.fit_extractor(
            train.videos, train.schedule, ridge_lambda=cfg.ridge_lambda
        )
        gram, rhs = reference_fit.normal_equations(
            train.videos, train.schedule, ridge_lambda=cfg.ridge_lambda
        )
        for extractor in (fitted, oracle):
            residual = gram @ reference_fit.solution(extractor) - rhs
            assert np.linalg.norm(residual) / np.linalg.norm(rhs) < 1e-10
        want = reference_fit.solution(oracle)
        got = reference_fit.solution(fitted)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        assert bit_accuracy(fitted, held) == bit_accuracy(oracle, held)
