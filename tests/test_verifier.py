import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import spdmark.verifier
from reference_match import hungarian_match as reference_match
from spdmark.channel_attacks import (
    ChannelSpec,
    attack_drop,
    attack_insert,
    attack_swap_random,
    attack_trim,
    channel_extract,
)
from spdmark.keyspace import BaseSecret, KeyConfig, derive_frame_messages, random_key
from spdmark.verifier import (
    Assignment,
    SimilarityMatrix,
    binomial_tail,
    diagnose_tampering,
    frame_threshold,
    hungarian_match,
    null_calibration,
    order_accuracy,
    similarity_matrix,
    verify,
    video_threshold,
    wilson_interval,
)

CFG = KeyConfig.from_layout(14, 4)
SECRET = BaseSecret(b"verifier-test-secret")


def make_schedule(num_frames: int, seed: int = 0):
    return derive_frame_messages(SECRET, random_key(CFG, seed), num_frames)


def ideal(schedule):
    return channel_extract(schedule, ChannelSpec("ideal"))


def exact_tail(n: int, k: int) -> Fraction:
    return Fraction(sum(math.comb(n, j) for j in range(k, n + 1)), 2**n)


def exact_tail_p(n: int, k: int, p: Fraction) -> Fraction:
    return sum(
        Fraction(math.comb(n, j)) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1)
    )


class TestBinomialTail:
    def test_boundary_values(self):
        assert binomial_tail(28, 0) == 1.0
        assert binomial_tail(28, 29) == 0.0
        assert binomial_tail(2, 2) == 0.25

    def test_worked_tail_at_threshold(self):
        assert math.isclose(
            binomial_tail(28, 23), 122438 / 2**28, rel_tol=1e-12
        )

    def test_matches_big_integer_oracle_up_to_64(self):
        for n in range(1, 65):
            for k in range(n + 2):
                want = float(exact_tail(n, k))
                got = binomial_tail(n, k)
                if want == 0.0:
                    assert got == 0.0
                else:
                    assert abs(got - want) <= 1e-12 * want

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            binomial_tail(10, -1)
        with pytest.raises(ValueError):
            binomial_tail(10, 12)


class TestFrameThreshold:
    def test_default_design_point(self):
        tau, p_f = frame_threshold(28, 1e-3)
        assert tau == 23
        assert math.isclose(p_f, float(exact_tail(28, 23)), rel_tol=1e-12)
        # Minimality: one step down exceeds the target.
        assert float(exact_tail(28, 22)) > 1e-3 >= float(exact_tail(28, 23))

    def test_median_target(self):
        assert frame_threshold(28, 0.5)[0] == 15

    def test_trivial_target(self):
        assert frame_threshold(28, 1.0)[0] == 0

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            frame_threshold(28, 0.0)
        with pytest.raises(ValueError):
            frame_threshold(28, -0.5)

    @given(st.integers(1, 64), st.floats(1e-9, 1.0, exclude_min=False))
    @settings(max_examples=200, deadline=None)
    def test_minimality_property(self, n, gamma):
        tau, p_f = frame_threshold(n, gamma)
        assert binomial_tail(n, tau) <= gamma
        assert p_f == binomial_tail(n, tau)
        if tau >= 1:
            assert binomial_tail(n, tau - 1) > gamma

    def test_monotone_in_gamma(self):
        taus = [frame_threshold(28, g)[0] for g in (1e-6, 1e-4, 1e-3, 0.1, 0.5, 1.0)]
        assert taus == sorted(taus, reverse=True)


class TestVideoThreshold:
    def test_design_point(self):
        p_f = 122438 / 2**28
        assert video_threshold(25, p_f, 1e-6) == 3
        # Oracle: Pr(>=2) still exceeds the target, Pr(>=3) does not.
        p = Fraction(122438, 2**28)
        assert exact_tail_p(25, 2, p) > Fraction(1, 10**6) >= exact_tail_p(25, 3, p)

    def test_degenerate_pass_probability(self):
        assert video_threshold(25, 0.0, 1e-6) == 1

    def test_trivial_target(self):
        assert video_threshold(25, 0.5, 1.0) == 0

    def test_general_probability_matches_fraction_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, n + 2))
            p = Fraction(int(rng.integers(0, 65)), 64)
            want = float(exact_tail_p(n, k, p))
            from spdmark.verifier import _binomial_tail

            got = _binomial_tail(n, k, float(p))
            if want == 0.0:
                assert got <= 1e-300
            else:
                assert abs(got - want) <= 1e-11 * want


class TestSimilarityMatrix:
    def test_identical_messages_score_one(self):
        schedule = make_schedule(5)
        sim = similarity_matrix(schedule, ideal(schedule))
        assert np.allclose(np.diag(sim.values), 1.0)

    def test_single_mismatch_arithmetic(self):
        from spdmark.keyspace import FrameMessage
        from spdmark.channel_attacks import ExtractedSequence

        expected = [FrameMessage(1, (1, 0, 1, 0))]
        extracted = ExtractedSequence(((1, 0, 0, 0),))
        sim = similarity_matrix(expected, extracted)
        assert sim.values[0, 0] == 0.75

    def test_complement_scores_zero(self):
        from spdmark.keyspace import FrameMessage
        from spdmark.channel_attacks import ExtractedSequence

        expected = [FrameMessage(1, (1, 0, 1, 0))]
        extracted = ExtractedSequence(((0, 1, 0, 1),))
        sim = similarity_matrix(expected, extracted)
        assert sim.values[0, 0] == 0.0

    def test_length_mismatch_rejected(self):
        from spdmark.keyspace import FrameMessage
        from spdmark.channel_attacks import ExtractedSequence

        with pytest.raises(ValueError):
            similarity_matrix(
                [FrameMessage(1, (1, 0))], ExtractedSequence(((1, 0, 1),))
            )


def brute_force_value(counts: np.ndarray) -> int:
    rows, cols = counts.shape
    size = min(rows, cols)
    best = -1
    for row_subset in itertools.combinations(range(rows), size):
        for col_perm in itertools.permutations(range(cols), size):
            total = sum(counts[r, c] for r, c in zip(row_subset, col_perm))
            best = max(best, total)
    return best


def lexicographic_oracle(counts: np.ndarray):
    rows, cols = counts.shape
    size = min(rows, cols)
    best_total = -1
    best_pairs = None
    for row_subset in itertools.combinations(range(rows), size):
        for col_perm in itertools.permutations(range(cols), size):
            total = sum(counts[r, c] for r, c in zip(row_subset, col_perm))
            pairs = tuple((r + 1, c + 1) for r, c in zip(row_subset, col_perm))
            if total > best_total or (total == best_total and pairs < best_pairs):
                best_total = total
                best_pairs = pairs
    return best_total, best_pairs


@st.composite
def count_matrices(draw):
    # Shapes 1..9 x 1..9; alphabet size 1 gives all-equal matrices, and the
    # offset places the alphabet anywhere inside [0, 28].
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    alphabet = draw(st.sampled_from([1, 2, 3, 29]))
    offset = draw(st.integers(0, 29 - alphabet))
    values = st.integers(offset, offset + alphabet - 1)
    return draw(arrays(np.int64, (rows, cols), elements=values))


class TestHungarianMatch:
    def test_two_by_two_example(self):
        sim = SimilarityMatrix(np.array([[9, 1], [2, 8]]), 10)
        assignment = hungarian_match(sim)
        assert assignment.pairs == ((1, 1), (2, 2))
        assert assignment.total_matched == 17
        assert math.isclose(assignment.total_similarity, 1.7)

    def test_identity_matrix_gives_identity_assignment(self):
        counts = np.full((6, 6), 3)
        np.fill_diagonal(counts, 10)
        assignment = hungarian_match(SimilarityMatrix(counts, 10))
        assert assignment.pairs == tuple((i, i) for i in range(1, 7))

    def test_constant_matrix_tie_break(self):
        for shape in [(4, 4), (3, 5), (5, 3)]:
            counts = np.full(shape, 7)
            assignment = hungarian_match(SimilarityMatrix(counts, 10))
            size = min(shape)
            assert assignment.pairs == tuple((i, i) for i in range(1, size + 1))
            assert assignment.total_matched == 7 * size

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            counts = rng.integers(0, 29, (rows, cols))
            assignment = hungarian_match(SimilarityMatrix(counts, 28))
            assert assignment.total_matched == brute_force_value(counts)

    def test_lexicographic_tie_break_matches_enumeration(self):
        # Tiny value alphabets force heavy ties, exercising the refinement.
        rng = np.random.default_rng(10)
        for _ in range(400):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            counts = rng.integers(0, 3, (rows, cols))
            assignment = hungarian_match(SimilarityMatrix(counts, 4))
            total, pairs = lexicographic_oracle(counts)
            assert assignment.total_matched == total
            assert assignment.pairs == pairs

    @given(count_matrices())
    @example(np.arange(9).reshape(1, 9) % 3)
    @example(np.arange(9).reshape(9, 1) % 3)
    @example(np.full((9, 9), 5))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_oracle(self, counts):
        sim = SimilarityMatrix(counts, 28)
        got, want = hungarian_match(sim), reference_match(sim)
        assert got.pairs == want.pairs
        assert got.total_matched == want.total_matched

    @pytest.mark.parametrize("shape", [(25, 25), (100, 100), (200, 200), (200, 150)])
    def test_matches_reference_oracle_on_random_bits(self, shape):
        rng = np.random.default_rng(shape)
        expected = rng.integers(0, 2, (shape[0], 28))
        extracted = rng.integers(0, 2, (shape[1], 28))
        counts = 28 - (expected[:, None, :] != extracted[None, :, :]).sum(axis=2)
        sim = SimilarityMatrix(counts, 28)
        got, want = hungarian_match(sim), reference_match(sim)
        assert got.pairs == want.pairs
        assert got.total_matched == want.total_matched

    def test_long_video_reaches_the_optimum(self):
        rng = np.random.default_rng(1000)
        expected = rng.integers(0, 2, (1000, 28))
        extracted = rng.integers(0, 2, (1000, 28))
        counts = 28 - (expected[:, None, :] != extracted[None, :, :]).sum(axis=2)
        assignment = hungarian_match(SimilarityMatrix(counts, 28))
        pis = [pi for pi, _ in assignment.pairs]
        rhos = [rho for _, rho in assignment.pairs]
        assert pis == list(range(1, 1001))
        assert sorted(rhos) == list(range(1, 1001))
        rows, cols = linear_sum_assignment(counts, maximize=True)
        optimum = int(counts[rows, cols].sum())
        assert assignment.total_matched == optimum
        assert sum(int(counts[pi - 1, rho - 1]) for pi, rho in assignment.pairs) == optimum

    def test_suboptimal_solve_is_rejected(self, monkeypatch):
        counts = np.full((6, 6), 3)
        np.fill_diagonal(counts, 10)

        def reversed_assignment(weights, maximize=False):
            n = len(weights)
            return np.arange(n), np.arange(n)[::-1].copy()

        monkeypatch.setattr(spdmark.verifier, "linear_sum_assignment", reversed_assignment)
        with pytest.raises(RuntimeError, match="not optimal"):
            hungarian_match(SimilarityMatrix(counts, 10))

    def test_non_optimal_refinement_is_rejected(self, monkeypatch):
        counts = np.full((6, 6), 3)
        np.fill_diagonal(counts, 10)
        monkeypatch.setattr(
            spdmark.verifier,
            "_smallest_tight_matching",
            lambda tight, assigned, num_rows: assigned[::-1],
        )
        with pytest.raises(RuntimeError, match="lost optimality"):
            hungarian_match(SimilarityMatrix(counts, 10))

    def test_single_row_and_column(self):
        sim = SimilarityMatrix(np.array([[1, 5, 5]]), 8)
        assert hungarian_match(sim).pairs == ((1, 2),)
        sim = SimilarityMatrix(np.array([[4], [4], [2]]), 8)
        assert hungarian_match(sim).pairs == ((1, 1),)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(np.zeros((0, 3)), 8)

    def test_unsorted_assignment_rejected(self):
        with pytest.raises(ValueError):
            Assignment(pairs=((2, 1), (1, 2)), total_similarity=1.0, total_matched=8)


class TestOrderAccuracy:
    def test_identity_is_perfect(self):
        assert order_accuracy([(i, i) for i in range(1, 9)]) == 1.0

    def test_full_reversal_is_zero(self):
        assert order_accuracy([(i, 9 - i) for i in range(1, 9)]) == 0.0

    def test_one_adjacent_swap_in_sixteen(self):
        rhos = list(range(1, 17))
        rhos[4], rhos[5] = rhos[5], rhos[4]
        pairs = list(zip(range(1, 17), rhos))
        assert math.isclose(order_accuracy(pairs), 14 / 15)

    def test_degenerate_sizes(self):
        assert order_accuracy([]) == 1.0
        assert order_accuracy([(3, 7)]) == 1.0


class TestVerify:
    def test_ideal_channel_is_fully_valid(self):
        schedule = make_schedule(25)
        verdict = verify(schedule, ideal(schedule))
        assert verdict.valid
        assert len(verdict.valid_set) == 25
        assert verdict.bit_acc == 1.0
        assert verdict.order_acc == 1.0
        assert verdict.thresholds.tau_f == 23
        assert verdict.thresholds.tau_v == 3

    def test_random_messages_are_invalid(self):
        schedule = make_schedule(25)
        rng = np.random.default_rng(4)
        from spdmark.channel_attacks import ExtractedSequence

        fake = ExtractedSequence(
            tuple(tuple(int(b) for b in rng.integers(0, 2, 28)) for _ in range(25))
        )
        verdict = verify(schedule, fake)
        assert not verdict.valid

    def test_swap_keeps_bits_but_not_order(self):
        schedule = make_schedule(25)
        attacked, record = attack_swap_random(ideal(schedule), seed=3)
        verdict = verify(schedule, attacked)
        assert verdict.valid
        assert verdict.bit_acc == 1.0
        assert verdict.order_acc < 1.0
        # The alignment recovers the applied permutation exactly.
        recovered = {pi: rho for pi, rho, _ in verdict.valid_set}
        assert recovered == record.permutation

    def test_matching_is_permutation_invariant(self):
        schedule = make_schedule(12)
        baseline = verify(schedule, ideal(schedule))
        attacked, _ = attack_swap_random(ideal(schedule), seed=8)
        shuffled = verify(schedule, attacked)
        assert shuffled.valid == baseline.valid
        assert len(shuffled.valid_set) == len(baseline.valid_set)
        assert shuffled.bit_acc == baseline.bit_acc
        assert math.isclose(
            sum(m for _, _, m in shuffled.valid_set),
            sum(m for _, _, m in baseline.valid_set),
        )

    def test_verdict_document_round_trip(self):
        schedule = make_schedule(10)
        verdict = verify(schedule, ideal(schedule))
        from spdmark.verifier import Verdict

        assert Verdict.from_doc(verdict.to_doc()) == verdict

    def test_verdict_document_missing_key_rejected(self):
        from spdmark.verifier import Verdict

        with pytest.raises(ValueError, match="'frames'"):
            Verdict.from_doc({})
        doc = verify(make_schedule(4), ideal(make_schedule(4))).to_doc()
        del doc["tau_v"]
        with pytest.raises(ValueError, match="'tau_v'"):
            Verdict.from_doc(doc)

    def test_video_p_value_extremes(self):
        schedule = make_schedule(10)
        verdict = verify(schedule, ideal(schedule))
        assert verdict.video_p_value <= 1e-20


class TestDiagnoseTampering:
    def test_clean_video_has_empty_predictions(self):
        schedule = make_schedule(10)
        verdict = verify(schedule, ideal(schedule))
        from spdmark.channel_attacks import TamperRecord

        diagnosis = diagnose_tampering(verdict, 10, 10, TamperRecord.identity(10))
        assert diagnosis.predicted_dropped == ()
        assert diagnosis.predicted_inserted == ()
        assert diagnosis.predicted_inversions == ()
        assert diagnosis.scores == {
            "drop": {"precision": 1.0, "recall": 1.0, "f1": 1.0},
            "insert": {"precision": 1.0, "recall": 1.0, "f1": 1.0},
        }

    def test_drop_localized_exactly_under_ideal_channel(self):
        schedule = make_schedule(25)
        attacked, record = attack_drop(ideal(schedule), 0.5, seed=6)
        verdict = verify(schedule, attacked)
        diagnosis = diagnose_tampering(verdict, 25, record.output_length, record)
        assert set(diagnosis.predicted_dropped) == set(record.dropped)
        assert diagnosis.scores["drop"] == {
            "precision": 1.0,
            "recall": 1.0,
            "f1": 1.0,
        }

    def test_insert_localized_exactly_under_ideal_channel(self):
        schedule = make_schedule(25)
        attacked, record = attack_insert(ideal(schedule), 0.2, "noise", seed=6)
        verdict = verify(schedule, attacked)
        diagnosis = diagnose_tampering(verdict, 25, record.output_length, record)
        assert set(diagnosis.predicted_inserted) == set(record.inserted)
        assert diagnosis.scores["insert"]["f1"] == 1.0

    def test_trim_scored_against_removed_indices(self):
        schedule = make_schedule(25)
        attacked, record = attack_trim(ideal(schedule), 0.2, 0.2)
        verdict = verify(schedule, attacked)
        diagnosis = diagnose_tampering(verdict, 25, record.output_length, record)
        assert set(diagnosis.predicted_dropped) == set(record.removed_indices)
        assert diagnosis.scores["drop"]["f1"] == 1.0

    def test_empty_set_conventions(self):
        from spdmark.verifier import _f1_scores

        assert _f1_scores(set(), set()) == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert _f1_scores({1}, set()) == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert _f1_scores(set(), {1}) == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_inversions_report_adjacent_descents(self):
        schedule = make_schedule(8)
        from spdmark.channel_attacks import attack_swap_adjacent

        attacked, record = attack_swap_adjacent(ideal(schedule), 1.0, seed=1)
        verdict = verify(schedule, attacked)
        diagnosis = diagnose_tampering(verdict, 8, 8, record)
        assert diagnosis.predicted_inversions == ((1, 2), (3, 4), (5, 6), (7, 8))

    def test_inconsistent_lengths_rejected(self):
        schedule = make_schedule(10)
        verdict = verify(schedule, ideal(schedule))
        with pytest.raises(ValueError):
            diagnose_tampering(verdict, 11, 10, None)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(23, 10_000)
        assert low < 23 / 10_000 < high

    def test_zero_successes(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert 0.0 < high < 0.05

    def test_full_successes(self):
        low, high = wilson_interval(100, 100)
        assert high == 1.0
        assert 0.95 < low < 1.0


class TestNullCalibration:
    def test_small_run_statistics(self):
        report = null_calibration(28, 25, 1e-3, 1e-6, trials=400, seed=12)
        assert report["tau_f"] == 23
        assert report["tau_v"] == 3
        # Identity alignment realizes the fair-coin null.
        assert abs(report["identity_pass_z"]) <= 5.0
        # Maximizing over assignments can only inflate the pass rate.
        assert report["matched_pass_rate"] >= report["p_f"]
        assert report["identity_valid_count"] == 0

    def test_deterministic_under_seed(self):
        a = null_calibration(28, 10, 1e-3, 1e-6, trials=50, seed=3)
        b = null_calibration(28, 10, 1e-3, 1e-6, trials=50, seed=3)
        assert a == b
