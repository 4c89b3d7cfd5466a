"""Release checklist.

One test per acceptance criterion, in order.  Each prints a single
``criterion N: PASS|FAIL`` line with its wall time so a full run reads as a
checklist; stated runtime budgets fail the criterion when exceeded.  Expected
values are recomputed here from independent oracles (big-integer tails,
exhaustive assignment search, central differences, dense matrix products)
rather than imported from the modules under test.
"""

import contextlib
import dataclasses
import itertools
import math
import time
from fractions import Fraction
from hashlib import sha256

import numpy as np

from reference_generate import PARAM_BITS, STATE_BITS, round_to_grid
from reference_latent import latent
from spdmark.channel_attacks import ChannelSpec, channel_extract
from spdmark.cli import RunConfig, build_corpus, forensics_table, toy_components
from spdmark.keyspace import (
    BaseSecret,
    KeyConfig,
    MessageSequence,
    WatermarkKey,
    derive_frame_messages,
    key_to_mask,
    mask_to_key,
    random_key,
)
from spdmark.objective import (
    LinearExtractor,
    LossWeights,
    bit_accuracy,
    fit_extractor,
    imperceptibility_loss,
    loss_gradients,
    luminance,
    recovery_loss,
)
from spdmark.spd_core import (
    BasisDictionary,
    ToyDecoder,
    generate_frames,
    record_products,
)
from spdmark.verifier import (
    SimilarityMatrix,
    binomial_tail,
    frame_threshold,
    hungarian_match,
    null_calibration,
    verify,
    video_threshold,
)


@contextlib.contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number}: FAIL ({elapsed:.2f}s) {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(
            f"criterion {number}: FAIL ({elapsed:.2f}s) {description} "
            f"[budget {budget_seconds:.0f}s exceeded]",
            flush=True,
        )
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    print(f"criterion {number}: PASS ({elapsed:.2f}s) {description}", flush=True)


def exact_tail(n, k):
    """Upper binomial tail P[X >= k], X ~ Binomial(n, 1/2), in exact rationals."""
    return Fraction(sum(math.comb(n, j) for j in range(k, n + 1)), 2**n)


def test_criterion_1_thresholds_exact():
    with criterion(1, "binomial thresholds match big-integer tails", 1.0):
        tau_f, p_f = frame_threshold(28, 1e-3)
        assert tau_f == 23
        assert abs(p_f - float(exact_tail(28, 23))) <= 1e-12 * p_f
        assert Fraction(122438, 2**28) == exact_tail(28, 23)
        assert frame_threshold(28, 0.5)[0] == 15
        assert video_threshold(25, p_f, 1e-6) == 3
        for n in range(0, 65):
            for k in range(0, n + 2):
                oracle = exact_tail(n, k)
                value = binomial_tail(n, k)
                if oracle == 0:
                    assert value == 0.0
                else:
                    assert abs(value - float(oracle)) <= 1e-12 * float(oracle)


def exhaustive_best(counts):
    """Best assignment total by brute force over all row/column matchings."""
    rows, cols = counts.shape
    size = min(rows, cols)
    col_perms = np.array(
        list(itertools.permutations(range(cols), size)), dtype=int
    ).reshape(-1, size)
    best = -1
    for row_subset in itertools.combinations(range(rows), size):
        rows_idx = np.array(row_subset, dtype=int)
        totals = counts[rows_idx[None, :], col_perms].sum(axis=1)
        best = max(best, int(totals.max()))
    return best


def test_criterion_2_matching_optimal():
    with criterion(2, "assignment search exact on 1000 random matrices", 10.0):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            counts = rng.integers(0, 29, size=shape)
            assignment = hungarian_match(SimilarityMatrix(counts, 28))
            assert assignment.total_matched == exhaustive_best(counts)
            taken_rows = [pi for pi, _ in assignment.pairs]
            taken_cols = [rho for _, rho in assignment.pairs]
            assert len(set(taken_rows)) == len(taken_rows)
            assert len(set(taken_cols)) == len(taken_cols)
            assert len(assignment.pairs) == min(shape)


def test_criterion_3_key_mask_round_trip():
    with criterion(3, "10000 key/mask round trips, zero failures"):
        cfg = KeyConfig.from_layout(14, 4)
        rng = np.random.default_rng(3)
        failures = 0
        for _ in range(10_000):
            bits = tuple(int(b) for b in rng.integers(0, 2, cfg.message_bits))
            key = WatermarkKey(bits)
            mask = key_to_mask(key, cfg)
            if mask.mask.shape != (14, 4) or not (mask.mask.sum(axis=1) == 1).all():
                failures += 1
            elif mask_to_key(mask, cfg) != key:
                failures += 1
        assert failures == 0


def test_criterion_4_ideal_channel_verifies():
    with criterion(4, "100 ideal-channel runs verify with perfect recovery"):
        cfg = KeyConfig.from_layout(14, 4)
        for seed in range(100):
            secret = BaseSecret(sha256(b"acceptance-ideal-%d" % seed).digest())
            key = random_key(cfg, seed)
            schedule = derive_frame_messages(secret, key, 25)
            extracted = channel_extract(schedule, ChannelSpec(0.0, seed))
            verdict = verify(schedule, extracted, gamma_f=1e-3, gamma_v=1e-6)
            assert verdict.valid
            assert verdict.bit_acc == 1.0
            assert verdict.order_acc == 1.0
            assert verdict.thresholds.tau_f == 23


def test_criterion_5_forensics_localize_attacks():
    # Seed, trial count, and bounds were fixed before the first full run of
    # this table; the bounds sit one flip-noise standard error under the
    # analytic expectations for q = 0.02, so a red row here means a real
    # regression, not noise.
    with criterion(5, "temporal attacks localized under 2% bit noise", 120.0):
        noisy = RunConfig(
            seed=7,
            trials=200,
            num_frames=25,
            flip_probability=0.02,
            attacks=(
                {"attack": "drop", "fraction": 0.5},
                {"attack": "insert", "fraction": 0.2, "mode": "noise"},
                {"attack": "swap_random"},
                {"attack": "swap_adjacent", "pair_fraction": 0.3},
            ),
        )
        rows = {row["attack"]: row for row in forensics_table(noisy)}
        assert rows["drop"]["f1_drop"] >= 0.98
        assert rows["insert"]["f1_insert"] >= 0.98
        for name in ("swap_random", "swap_adjacent"):
            assert rows[name]["valid_rate"] == 1.0
            assert rows[name]["bit_acc"] >= 0.98
            assert rows[name]["order_acc"] < 1.0
        ideal = RunConfig(
            seed=7,
            trials=200,
            num_frames=25,
            flip_probability=0.0,
            attacks=(
                {"attack": "swap_random"},
                {"attack": "swap_adjacent", "pair_fraction": 0.3},
            ),
        )
        for row in forensics_table(ideal):
            assert row["perm_recovered_rate"] == 1.0
            assert row["bit_acc"] == 1.0


def test_criterion_6_null_calibration():
    with criterion(6, "false-positive control on unwatermarked inputs"):
        report = null_calibration(
            message_bits=28,
            num_frames=25,
            gamma_f=1e-3,
            gamma_v=1e-6,
            trials=10_000,
            seed=2026,
        )
        assert report["tau_f"] == 23
        assert report["tau_v"] == 3
        # Identity alignment is the H0 the thresholds are calibrated for:
        # the frame-pass rate must sit within 3 sigma of p_f and whole-video
        # false accepts must stay at the 1e-4 scale or below.
        assert abs(report["identity_pass_z"]) <= 3.0
        assert report["identity_valid_count"] <= 1
        # Best-case alignment inflates the frame-pass rate, so the verifier
        # must never be read as a bound on matched tails; report the measured
        # inflation alongside the checklist line.
        assert report["matched_pass_rate"] >= report["p_f"]
        print(
            "  matched-alignment frame pass rate "
            f"{report['matched_pass_rate']:.4e} "
            f"({report['matched_pass_inflation']:.1f}x p_f), "
            f"matched video accepts {report['matched_valid_count']}/10000",
            flush=True,
        )


def gradient_instance(seed, frames=3, side=4, bits=6):
    """Random instance resampled until no temporal-difference term sits on
    the |.| kink, so central differences are trustworthy."""
    rng = np.random.default_rng(seed)
    while True:
        clean = rng.normal(0.5, 0.2, (frames, 3, side, side))
        marked = rng.normal(0.5, 0.2, (frames, 3, side, side))
        gap = np.diff(
            np.stack([luminance(f) for f in clean]), axis=0
        ) - np.diff(np.stack([luminance(f) for f in marked]), axis=0)
        if np.abs(gap).min() > 1e-3:
            break
    extractor = LinearExtractor(
        rng.normal(0, 0.2, (bits, 3 * side * side)), rng.normal(0, 0.2, bits)
    )
    schedule = MessageSequence([rng.integers(0, 2, bits) for _ in range(frames)])
    weights = LossWeights(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
    return clean, marked, extractor, schedule, weights


def objective_value(clean, marked, extractor, schedule, weights):
    return imperceptibility_loss(clean, marked, weights) + recovery_loss(
        marked, extractor, schedule
    )


def test_criterion_7_gradients_match_finite_differences():
    with criterion(7, "analytic gradients vs central differences, 50 instances"):
        step = 1e-4
        worst = 0.0
        for seed in range(50):
            clean, marked, extractor, schedule, weights = gradient_instance(
                700 + seed
            )
            flat = loss_gradients(clean, marked, extractor, schedule, weights)[
                "total"
            ].ravel()
            probe = np.random.default_rng(7000 + seed)
            for position in probe.choice(marked.size, size=12, replace=False):
                bumped = marked.copy().ravel()
                bumped[position] += step
                plus = objective_value(
                    clean, bumped.reshape(marked.shape), extractor, schedule, weights
                )
                bumped[position] -= 2 * step
                minus = objective_value(
                    clean, bumped.reshape(marked.shape), extractor, schedule, weights
                )
                numeric = (plus - minus) / (2 * step)
                rel = abs(numeric - flat[position]) / max(1.0, abs(flat[position]))
                worst = max(worst, rel)
        assert worst <= 1e-5


def test_criterion_8_extractor_learns_watermark():
    with criterion(8, "ridge extractor recovers bits from pixels", 60.0):
        cfg = RunConfig()
        dictionary, decoder, condition = toy_components(cfg)
        train = build_corpus(
            cfg, "train", cfg.train_videos, cfg.train_frames, dictionary, decoder,
            condition,
        )
        held = build_corpus(
            cfg, "holdout", cfg.holdout_videos, cfg.train_frames, dictionary,
            decoder, condition,
        )
        extractor = fit_extractor(*train, ridge_lambda=cfg.ridge_lambda)
        marked_acc = bit_accuracy(extractor, *held)
        assert marked_acc >= 0.95
        # Same pipeline with displacement disabled: nothing to learn, so the
        # fit must collapse to chance.  This separates signal from leakage.
        plain = dataclasses.replace(cfg, alpha=0.0)
        train0 = build_corpus(
            plain, "train", cfg.train_videos, cfg.train_frames, dictionary, decoder,
            condition,
        )
        held0 = build_corpus(
            plain, "holdout", cfg.holdout_videos, cfg.train_frames, dictionary,
            decoder, condition,
        )
        control_acc = bit_accuracy(
            fit_extractor(*train0, ridge_lambda=cfg.ridge_lambda), *held0
        )
        assert control_acc <= 0.55
        print(
            f"  holdout bit accuracy {marked_acc:.4f} marked, "
            f"{control_acc:.4f} without displacement",
            flush=True,
        )


def dense_frames(decoder, factors, alpha, indices, latents):
    """Oracle: per frame and layer h <- (W_l + alpha * A_p B_p) h + c_l, with
    the dense A_p B_p formed here, then the projection and the clip.  As in
    generation, W_l, A_p, B_p and the projection are read rounded to
    PARAM_BITS bits below the exponent of their largest entry, and h to
    STATE_BITS bits below the exponent of its own, wherever a product reads
    it."""
    weights = [round_to_grid(weight, PARAM_BITS) for weight in decoder.weights]
    factors = [
        [tuple(round_to_grid(f, PARAM_BITS) for f in pair) for pair in row]
        for row in factors
    ]
    projection = round_to_grid(decoder.projection, PARAM_BITS)
    frames = []
    for row, h in zip(indices, latents):
        for layer, basis in enumerate(row):
            factor_a, factor_b = factors[layer][basis]
            dense = weights[layer] + alpha * (factor_a @ factor_b)
            h = dense @ round_to_grid(h, STATE_BITS) + decoder.offsets[layer]
        raster = projection @ round_to_grid(h, STATE_BITS) + decoder.projection_offset
        frames.append(np.clip(raster, 0.0, 1.0).reshape(decoder.frame_shape))
    return np.array(frames)


def test_criterion_9_displacement_stays_factored():
    with criterion(9, "factored displacement matches dense, never forms A@B"):
        rng = np.random.default_rng(9)
        for trial in range(200):
            num_layers = int(rng.integers(1, 15))
            bases = int(rng.choice([2, 4, 8]))
            d = int(rng.integers(2, 65))
            r = int(rng.integers(1, d + 1))
            height, width = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            num_frames = int(rng.integers(1, 9))
            alpha = float(rng.uniform(0.1, 2.0))
            latent_scale = float(rng.uniform(0.01, 1.0))
            cfg = KeyConfig.from_layout(num_layers, bases)
            std = 1.0 / math.sqrt(d)
            decoder = ToyDecoder(
                weights=rng.normal(0.0, std, (num_layers, d, d)),
                offsets=rng.normal(0.0, 0.1, (num_layers, d)),
                projection=rng.normal(0.0, 0.1 * std, (3 * height * width, d)),
                projection_offset=rng.normal(0.5, 0.1, 3 * height * width),
                frame_shape=(3, height, width),
            )
            factors = [
                [
                    (rng.normal(0.0, std, (d, r)), rng.normal(0.0, std, (r, d)))
                    for _ in range(bases)
                ]
                for _ in range(num_layers)
            ]
            dictionary = BasisDictionary(
                factor_a=[[a for a, _ in row] for row in factors],
                factor_b=[[b for _, b in row] for row in factors],
            )
            messages = rng.integers(0, 2, (num_frames, cfg.message_bits))
            frame_seeds = [
                (int(rng.integers(0, 2**32)), int(t))
                for t in rng.integers(1, 100, num_frames)
            ]
            condition = rng.normal(size=d)
            with record_products() as log:
                got = generate_frames(
                    decoder, dictionary, messages, frame_seeds, condition, latent_scale,
                    alpha,
                )
            # Layer ell reads its chunk of the message MSB first.
            step = cfg.bits_per_layer
            indices = [
                [
                    int("".join(str(b) for b in row[ell * step:(ell + 1) * step]), 2)
                    for ell in range(num_layers)
                ]
                for row in messages
            ]
            latents = [
                np.array(latent(seed, t, d, latent_scale)) + condition
                for seed, t in frame_seeds
            ]
            dense = dense_frames(decoder, factors, alpha, indices, latents)
            scale = np.linalg.norm(dense)
            assert np.linalg.norm(got - dense) <= 1e-10 * max(scale, 1.0)
            # Structural check on the same call: one W, one B and one A
            # product per layer and one projection per frame, each with a
            # vector right-hand side, and never a (d, r) @ (r, d) product.
            assert len(log) == num_frames * (3 * num_layers + 1)
            assert all(len(rhs) == 1 for _, rhs in log)
            assert ((d, r), (r, d)) not in log
