import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import spdmark.verifier
from fresh_process import run_script
from reference_match import _similarity as reference_similarity
from reference_match import hungarian_match as reference_match
from reference_match import tight_edges as reference_tight_edges
from reference_verdict import _verdict_from_matrix as reference_verdict
from spdmark.channel_attacks import (
    MAX_FRAMES,
    ChannelSpec,
    apply_attack,
    attack_drop,
    attack_insert,
    attack_swap_random,
    attack_trim,
    channel_extract,
)
from spdmark.keyspace import (
    MAX_MESSAGE_BITS,
    BaseSecret,
    KeyConfig,
    MessageSequence,
    derive_frame_messages,
    random_key,
)
from spdmark.verifier import (
    Assignment,
    SimilarityMatrix,
    Verdict,
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

CFG = KeyConfig(14, 4)
SECRET = BaseSecret(b"verifier-test-secret")


def make_schedule(num_frames: int, seed: int = 0):
    return derive_frame_messages(SECRET, random_key(CFG, seed), num_frames)


def ideal(schedule):
    return channel_extract(schedule, ChannelSpec())


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
        assert binomial_tail(28, 23) == 122438 / 2**28

    def test_matches_big_integer_oracle_up_to_64(self):
        for n in range(1, 65):
            for k in range(n + 2):
                assert binomial_tail(n, k) == float(exact_tail(n, k))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            binomial_tail(10, -1)
        with pytest.raises(ValueError):
            binomial_tail(10, 12)


class TestBinomialTailCache:
    """The memoised tails `_tails(n, p)` that every tail, threshold and
    p-value reads."""

    def test_invalid_calls_raise_every_time(self):
        # Exceptions are not cached: each repeat is checked again.
        for _ in range(3):
            with pytest.raises(ValueError):
                spdmark.verifier._binomial_tail(10, 12, 0.5)
            with pytest.raises(ValueError):
                spdmark.verifier._binomial_tail(10, 3, 1.5)
            for n, p in ((10, 1.5), (10, -0.5), (10, math.nan), (-1, 0.5)):
                with pytest.raises(ValueError):
                    spdmark.verifier._tails(n, p)

    def test_cached_values_equal_uncached_on_the_criterion_1_grid(self):
        tails = spdmark.verifier._tails
        for n in range(0, 65):
            want = tails.__wrapped__(n, 0.5)
            assert len(want) == n + 2
            assert tails(n, 0.5) == want
            assert tails(n, 0.5) == want
            for k in range(0, n + 2):
                assert binomial_tail(n, k) == want[k]

    def test_memos_stay_bounded_on_untrusted_verdicts(self):
        # A verdict document names its own lengths and gammas, and each
        # distinct (length, p_f) is one more tail table.
        memos = [f for f in vars(spdmark.verifier).values() if hasattr(f, "cache_info")]
        assert memos
        for memo in memos:
            memo.cache_clear()
        for t in range(1, 9):
            schedule = make_schedule(t)
            for k in range(1, 57):
                doc = verify(schedule, ideal(schedule), 2.0 ** (-k / 2), 3.0**-k).to_doc()
                Verdict.from_doc(doc)
        for memo in memos:
            info = memo.cache_info()
            assert info.maxsize is not None
            assert info.misses > info.maxsize >= info.currsize

    def test_verdict_document_round_trips_the_p_value(self):
        schedule = make_schedule(12)
        rows = np.array(ideal(schedule).messages)
        rows[::2] = np.random.default_rng(5).integers(0, 2, rows[::2].shape)
        doc = verify(schedule, MessageSequence(rows)).to_doc()
        assert 0.0 < doc["video_p_value"] < 1.0
        spdmark.verifier._tails.cache_clear()
        assert Verdict.from_doc(doc).video_p_value == doc["video_p_value"]
        assert Verdict.from_doc(doc).video_p_value == doc["video_p_value"]


class TestFrameThreshold:
    def test_default_design_point(self):
        tau, p_f = frame_threshold(28, 1e-3)
        assert tau == 23
        assert p_f == float(exact_tail(28, 23)) == 122438 / 2**28
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

            assert _binomial_tail(n, k, float(p)) == want

    @pytest.mark.parametrize("num_pairs", [25, 100, 200, 1000])
    def test_thresholds_and_tails_match_integer_sums_up_to_1000(self, num_pairs):
        # Each oracle tail is its own sum of math.comb terms over j >= k,
        # not the one-pass recurrence, divided once by s^T.
        _, p_f = frame_threshold(28, 1e-3)
        c, s = p_f.as_integer_ratio()
        terms = [
            math.comb(num_pairs, j) * c**j * (s - c) ** (num_pairs - j)
            for j in range(num_pairs + 1)
        ]

        def oracle(k: int) -> float:
            return sum(terms[k:]) / s**num_pairs

        for gamma_v in (1e-2, 1e-6, 1e-9):
            tau = video_threshold(num_pairs, p_f, gamma_v)
            assert 1 <= tau <= num_pairs
            assert oracle(tau) <= gamma_v < oracle(tau - 1)
            for k in {0, 1, tau - 1, tau, tau + 1, num_pairs, num_pairs + 1}:
                assert spdmark.verifier._binomial_tail(num_pairs, k, p_f) == oracle(k)


class TestSimilarityMatrix:
    def test_identical_messages_score_one(self):
        schedule = make_schedule(5)
        sim = similarity_matrix(schedule, ideal(schedule))
        assert np.allclose(np.diag(sim.matched_bits / sim.message_bits), 1.0)

    def test_single_mismatch_arithmetic(self):
        expected = MessageSequence([[1, 0, 1, 0]])
        extracted = MessageSequence([[1, 0, 0, 0]])
        sim = similarity_matrix(expected, extracted)
        assert sim.matched_bits[0, 0] / sim.message_bits == 0.75

    def test_complement_scores_zero(self):
        expected = MessageSequence([[1, 0, 1, 0]])
        extracted = MessageSequence([[0, 1, 0, 1]])
        sim = similarity_matrix(expected, extracted)
        assert sim.matched_bits[0, 0] / sim.message_bits == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix(MessageSequence([[1, 0]]), MessageSequence([[1, 0, 1]]))

    def test_widths_beyond_one_digest_rejected(self):
        # A verdict document reads back only M <= MAX_MESSAGE_BITS, so wider
        # messages fail before any verdict is written; the 16-bit alignment
        # relies on the same bound.
        rng = np.random.default_rng(300)
        widest, wide = (
            MessageSequence(rng.integers(0, 2, (6, m), dtype=np.uint8))
            for m in (MAX_MESSAGE_BITS, MAX_MESSAGE_BITS + 44)
        )
        assert Verdict.from_doc(verify(widest, widest).to_doc()).message_bits == MAX_MESSAGE_BITS
        with pytest.raises(ValueError, match="message_bits"):
            verify(wide, wide)
        with pytest.raises(ValueError, match="message_bits"):
            null_calibration(MAX_MESSAGE_BITS + 1, 10, 1e-3, 1e-6, 1, seed=0)
        with pytest.raises(ValueError, match="message_bits"):
            SimilarityMatrix(np.array([[70000, 1], [2, 70000]]), 100000)

    @pytest.mark.parametrize("count", [3.5, 27.99, -0.5, 65539, -65533, np.nan, np.inf])
    def test_fractional_or_out_of_range_counts_rejected(self, count):
        # 65539 and -65533 would wrap to 3 in 16 bits, so the range is checked
        # before the cast.
        with pytest.raises(ValueError, match="matched-bit counts"):
            SimilarityMatrix(np.array([[count, 2], [0, 27]]), 28)

    def test_counts_are_a_read_only_copy(self):
        given = np.array([[9, 1], [2, 8]], dtype=np.int64)
        sim = SimilarityMatrix(given, 10)
        given[0, 0] = 99
        assert given.flags.writeable and not sim.matched_bits.flags.writeable
        assert sim.matched_bits.tolist() == [[9, 1], [2, 8]]
        assert hungarian_match(sim).total_matched == 17

    def test_counts_are_c_ordered_int16(self):
        rng = np.random.default_rng(16)
        expected, extracted = (
            MessageSequence(rng.integers(0, 2, (t, 28), dtype=np.uint8)) for t in (7, 5)
        )
        counts = similarity_matrix(expected, extracted).matched_bits
        assert counts.dtype == np.int16 and counts.nbytes == 2 * 7 * 5
        transposed = SimilarityMatrix(counts.T.astype(np.int64), 28).matched_bits
        assert transposed.flags.c_contiguous and np.array_equal(transposed, counts.T)


class TestSimilarityOracle:
    """The +-1 product against the broadcast compare it replaced, in
    tests/reference_match.py: equal int16 counts."""

    @given(
        t=st.integers(1, 40),
        t_r=st.integers(1, 40),
        m=st.sampled_from([1, 2, 3, 28, 64, 256]),
        flip=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_broadcast_compare(self, t, t_r, m, flip, seed):
        # Extracted rows are copies of expected rows with each bit flipped
        # at rate `flip`, so counts of 0 and M occur as well as random ones.
        rng = np.random.default_rng(seed)
        expected = rng.integers(0, 2, (t, m), dtype=np.uint8)
        flips = (rng.random((t_r, m)) < flip).astype(np.uint8)
        extracted = expected[rng.integers(0, t, t_r)] ^ flips
        want = reference_similarity(expected, extracted).matched_bits
        got = similarity_matrix(
            MessageSequence(expected), MessageSequence(extracted)
        ).matched_bits
        assert got.dtype == want.dtype == np.int16
        assert np.array_equal(got, want)

    def test_null_calibration_does_not_depend_on_blas_threads(self):
        # The similarity product runs in BLAS; its counts, and so the whole
        # calibration report, must not change with the thread count or the
        # kernel that BLAS picks.
        script = (
            "import json; from spdmark.verifier import null_calibration; "
            "print(json.dumps(null_calibration(28, 100, 1e-3, 1e-6, 50, seed=1)))"
        )
        reports = [
            run_script(script, env=setting)
            for setting in (
                {"OPENBLAS_NUM_THREADS": "1"},
                {"OPENBLAS_NUM_THREADS": "2"},
                {"OPENBLAS_CORETYPE": "Prescott"},
            )
        ]
        here = json.dumps(null_calibration(28, 100, 1e-3, 1e-6, 50, seed=1))
        assert reports == [here + "\n"] * 3


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

    @pytest.mark.parametrize("message_bits", [1, 2])
    @pytest.mark.parametrize("shape", [(100, 100), (100, 60), (60, 100)])
    def test_matches_reference_oracle_on_ties_at_scale(self, shape, message_bits):
        # With one or two message bits nearly every entry ties, and the
        # rectangular shapes add dummy rows or columns to the square solve.
        for seed in range(10):
            rng = np.random.default_rng([*shape, message_bits, seed])
            expected = rng.integers(0, 2, (shape[0], message_bits), dtype=np.uint8)
            extracted = rng.integers(0, 2, (shape[1], message_bits), dtype=np.uint8)
            sim = reference_similarity(expected, extracted)
            got, want = hungarian_match(sim), reference_match(sim)
            assert got.pairs == want.pairs
            assert got.total_matched == want.total_matched

    def test_walk_searches_only_toward_free_rows(self, monkeypatch):
        # A candidate column is never one held by a fixed row, so every
        # search for a rotation starts toward a row that is still free.
        walk = spdmark.verifier._rows_reaching
        goals = []

        def checked(rows_at, assigned, free, row, goal):
            assert free >> goal & 1 and not free >> row & 1
            goals.append(goal)
            return walk(rows_at, assigned, free, row, goal)

        monkeypatch.setattr(spdmark.verifier, "_rows_reaching", checked)
        for shape in [(100, 100), (100, 60), (60, 100)]:
            rng = np.random.default_rng(shape)
            expected = rng.integers(0, 2, (shape[0], 1), dtype=np.uint8)
            extracted = rng.integers(0, 2, (shape[1], 1), dtype=np.uint8)
            sim = reference_similarity(expected, extracted)
            assert hungarian_match(sim).pairs == reference_match(sim).pairs
        assert goals

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
        # A tied row maximum, so that the input needs the solve.
        counts[0, 1] = 10

        def reversed_assignment(weights, maximize=False):
            n = len(weights)
            return np.arange(n), np.arange(n)[::-1].copy()

        monkeypatch.setattr(spdmark.verifier, "linear_sum_assignment", reversed_assignment)
        with pytest.raises(RuntimeError, match="not optimal"):
            hungarian_match(SimilarityMatrix(counts, 10))

    def test_non_optimal_refinement_is_rejected(self, monkeypatch):
        counts = np.full((6, 6), 3)
        np.fill_diagonal(counts, 10)
        counts[0, 1] = 10
        monkeypatch.setattr(
            spdmark.verifier,
            "_smallest_tight_matching",
            lambda tight, assigned, shape: assigned[::-1],
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
            Assignment(pairs=((2, 1), (1, 2)), total_matched=8)


class TestTightEdgesOracle:
    """The column-order dual pass on 16-bit weights against the row-order
    int64 potentials it replaced, in tests/reference_match.py: the same tight
    edges on optimal assignments of padded squares."""

    @staticmethod
    def check(counts):
        n = max(counts.shape)
        weights = np.zeros((n, n), dtype=np.int64)
        weights[: counts.shape[0], : counts.shape[1]] = counts
        _, assigned = linear_sum_assignment(weights, maximize=True)
        got = spdmark.verifier._tight_edges(weights.astype(np.int16), assigned)
        assert np.array_equal(got, reference_tight_edges(weights, assigned))

    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        alphabet=st.sampled_from([1, 2, 3, 29]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_row_potentials(self, shape, alphabet, data):
        self.check(data.draw(arrays(np.int64, shape, elements=st.integers(0, alphabet - 1))))

    @pytest.mark.parametrize("shape", [(100, 100), (200, 150)])
    def test_matches_row_potentials_at_scale(self, shape):
        for seed in range(3):
            rng = np.random.default_rng([*shape, seed])
            expected = rng.integers(0, 2, (shape[0], 28), dtype=np.uint8)
            extracted = rng.integers(0, 2, (shape[1], 28), dtype=np.uint8)
            self.check(reference_similarity(expected, extracted).matched_bits)


class TestAllocationPeaks:
    """At n = 1024, as tracemalloc sees numpy's buffers, the similarity
    product allocates at most 8 bytes per count at its peak, the alignment
    16 and the whole of verify 14, so verify at MAX_FRAMES stays under 300 MB."""

    @staticmethod
    def peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_similarity_and_alignment_peaks(self):
        n = 1024
        rng = np.random.default_rng(n)
        expected, extracted = (
            MessageSequence(rng.integers(0, 2, (n, 28), dtype=np.uint8)) for _ in range(2)
        )
        sim = similarity_matrix(expected, extracted)
        assert self.peak_bytes(lambda: similarity_matrix(expected, extracted)) <= 8 * n * n
        assert self.peak_bytes(lambda: hungarian_match(sim)) <= 16 * n * n
        assert self.peak_bytes(lambda: verify(expected, extracted)) <= 14 * n * n


def watermark_like(rng, num_expected, num_noise, message_bits, flip_fraction):
    """Counts of expected rows against a permutation of them, each copy with
    at most `flip_fraction` of its bits flipped, mixed with `num_noise`
    random rows; also returns the extracted position of each expected row."""
    expected = rng.integers(0, 2, (num_expected, message_bits), dtype=np.uint8)
    num_extracted = num_expected + num_noise
    extracted = rng.integers(0, 2, (num_extracted, message_bits), dtype=np.uint8)
    position = rng.permutation(num_extracted)[:num_expected]
    max_flips = int(flip_fraction * message_bits)
    for row, rho in enumerate(position):
        copy = expected[row].copy()
        flips = rng.choice(message_bits, int(rng.integers(0, max_flips + 1)), replace=False)
        copy[flips] ^= 1
        extracted[rho] = copy
    return reference_similarity(expected, extracted), position


class TestNoChoiceShortcut:
    """Inputs whose every row has one maximum, in a column of its own, are
    answered without a solve; every other input is solved."""

    def test_watermark_like_inputs_need_no_solve(self, monkeypatch):
        def no_solve(weights, maximize=False):
            raise AssertionError("the input left no choice, yet it was solved")

        monkeypatch.setattr(spdmark.verifier, "linear_sum_assignment", no_solve)
        rng = np.random.default_rng(13)
        for _ in range(300):
            num_expected = int(rng.integers(1, 30))
            message_bits = int(rng.choice([28, 64]))
            flip_fraction = float(rng.uniform(0.0, 0.1))
            sim, position = watermark_like(
                rng, num_expected, int(rng.integers(0, 11)), message_bits, flip_fraction
            )
            got, want = hungarian_match(sim), reference_match(sim)
            assert got == want
            assert got.pairs == tuple(
                (pi, int(rho) + 1) for pi, rho in enumerate(position, 1)
            )

    @pytest.mark.parametrize("fault", ["tied_row", "shared_argmax"])
    def test_one_tie_or_shared_argmax_is_solved(self, monkeypatch, fault):
        calls = []

        def solve(weights, maximize=False):
            calls.append(weights.shape)
            return linear_sum_assignment(weights, maximize=maximize)

        monkeypatch.setattr(spdmark.verifier, "linear_sum_assignment", solve)
        rng = np.random.default_rng([17, len(fault)])
        for trial in range(100):
            num_expected = int(rng.integers(2, 30))
            sim, position = watermark_like(rng, num_expected, int(rng.integers(0, 11)), 28, 0.1)
            counts = sim.matched_bits.copy()
            best = counts.argmax(axis=1)
            row, other = rng.choice(num_expected, 2, replace=False)
            if fault == "tied_row":
                # A second column of the row reaches the row's maximum.
                col = int(rng.choice(np.flatnonzero(np.arange(counts.shape[1]) != best[row])))
                counts[row, col] = counts[row, best[row]]
            else:
                # Another row's maximum moves to the row's column.
                counts[other, best[row]] = counts[other, best[other]] + 1
            sim = SimilarityMatrix(np.minimum(counts, 28), 28)
            assert len(calls) == trial
            got, want = hungarian_match(sim), reference_match(sim)
            assert len(calls) == trial + 1
            assert got == want

    @pytest.mark.parametrize("shape", [(25, 12), (100, 60)])
    @pytest.mark.parametrize("message_bits", [1, 2, 28])
    def test_padding_columns_are_never_searched(self, monkeypatch, shape, message_bits):
        # With T > T_r the square solve pads with all-zero columns; every
        # search for a rotation starts toward a row holding a real column.
        walk = spdmark.verifier._rows_reaching
        num_cols = shape[1]
        goals = []

        def checked(rows_at, assigned, free, row, goal):
            assert assigned[goal] < num_cols
            goals.append(goal)
            return walk(rows_at, assigned, free, row, goal)

        monkeypatch.setattr(spdmark.verifier, "_rows_reaching", checked)
        for seed in range(5):
            rng = np.random.default_rng([*shape, message_bits, seed])
            expected = rng.integers(0, 2, (shape[0], message_bits), dtype=np.uint8)
            extracted = rng.integers(0, 2, (shape[1], message_bits), dtype=np.uint8)
            sim = reference_similarity(expected, extracted)
            got, want = hungarian_match(sim), reference_match(sim)
            assert got == want
        assert goals


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
        fake = MessageSequence(
            np.array([rng.integers(0, 2, 28) for _ in range(25)])
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

    def test_verdict_document_carries_only_a_record_of_its_lengths(self):
        schedule = make_schedule(6)
        attacked, record = attack_drop(ideal(schedule), 0.5, seed=1)
        verdict = verify(schedule, attacked)
        doc = verdict.to_doc(record)
        assert doc["tamper"] == record.to_doc()
        assert Verdict.from_doc(doc) == verdict
        clean = verify(schedule, ideal(schedule))
        with pytest.raises(ValueError, match=re.escape("(T, T_r) = (6, 6)")):
            clean.to_doc(record)
        with pytest.raises(ValueError, match=re.escape("(T, T_r) = (6, 6)")):
            Verdict.from_doc({**clean.to_doc(), "tamper": record.to_doc()})
        with pytest.raises(ValueError, match="missing key 'source_length'"):
            Verdict.from_doc({**clean.to_doc(), "tamper": {"anything": [1, 2, 3]}})
        with pytest.raises(ValueError, match=re.escape("(T, T_r) = (6, 6)")):
            diagnose_tampering(clean, record)

    def test_lengths_beyond_the_bound_rejected_before_matching(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("similarity computed for an over-long sequence")

        monkeypatch.setattr(spdmark.verifier, "similarity_matrix", refuse)
        long = MessageSequence(np.zeros((MAX_FRAMES + 1, 28), dtype=np.uint8))
        short = make_schedule(3)
        for expected, extracted in ((long, short), (short, long)):
            with pytest.raises(ValueError, match=f"at most {MAX_FRAMES} frames"):
                verify(expected, extracted)

    @pytest.mark.parametrize("key", ["num_expected", "num_extracted"])
    def test_verdict_lengths_beyond_the_bound_rejected(self, key, monkeypatch):
        schedule = make_schedule(1)
        doc = verify(schedule, ideal(schedule)).to_doc()
        # One frame against MAX_FRAMES is still a verdict verify can write.
        at_bound = Verdict.from_doc({**doc, key: MAX_FRAMES})
        assert getattr(at_bound, key) == MAX_FRAMES

        def refuse(*args):
            raise AssertionError("verdict rebuilt for over-long lengths")

        monkeypatch.setattr(spdmark.verifier, "_verdict", refuse)
        for length in (MAX_FRAMES + 1, 10**12):
            with pytest.raises(ValueError, match=re.escape(f"[1, {MAX_FRAMES}]")):
                Verdict.from_doc({**doc, key: length})

    def test_video_p_value_extremes(self):
        schedule = make_schedule(10)
        verdict = verify(schedule, ideal(schedule))
        assert verdict.video_p_value <= 1e-20


@st.composite
def verify_inputs(draw):
    """Expected and extracted messages with T != T_r allowed: each extracted
    row is a noisy copy of a random expected row, or random bits."""
    t = draw(st.integers(1, 12))
    t_r = draw(st.integers(1, 12))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    expected = rng.integers(0, 2, (t, m))
    extracted = rng.integers(0, 2, (t_r, m))
    flip = draw(st.sampled_from([0.0, 0.02, 0.1]))
    for row in range(t_r):
        if rng.random() < 0.7:
            extracted[row] = expected[rng.integers(t)] ^ (rng.random(m) < flip)
    gamma_f = draw(st.sampled_from([1e-3, 0.05, 0.5, 1.0]))
    gamma_v = draw(st.sampled_from([1e-6, 1e-2, 0.5, 1.0]))
    return MessageSequence(expected), MessageSequence(extracted), gamma_f, gamma_v


class TestVerdictOracle:
    """Verdicts built by the one verdict routine against the old assembly in
    tests/reference_verdict.py: equal documents, and each document read
    back as the same verdict."""

    @given(verify_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, inputs):
        expected, extracted, gamma_f, gamma_v = inputs
        doc = verify(expected, extracted, gamma_f, gamma_v).to_doc()
        sim = similarity_matrix(expected, extracted)
        assert doc == reference_verdict(sim, gamma_f, gamma_v)
        assert Verdict.from_doc(doc).to_doc() == doc


class TestDiagnoseTampering:
    def test_clean_video_has_empty_predictions(self):
        schedule = make_schedule(10)
        verdict = verify(schedule, ideal(schedule))
        _, record = apply_attack(schedule, {"attack": "none"})
        diagnosis = diagnose_tampering(verdict, record)
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
        diagnosis = diagnose_tampering(verdict, record)
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
        diagnosis = diagnose_tampering(verdict, record)
        assert set(diagnosis.predicted_inserted) == set(record.inserted)
        assert diagnosis.scores["insert"]["f1"] == 1.0

    def test_trim_scored_against_removed_indices(self):
        schedule = make_schedule(25)
        attacked, record = attack_trim(ideal(schedule), 0.2, 0.2)
        verdict = verify(schedule, attacked)
        diagnosis = diagnose_tampering(verdict, record)
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
        diagnosis = diagnose_tampering(verdict, record)
        assert diagnosis.predicted_inversions == ((1, 2), (3, 4), (5, 6), (7, 8))

    def test_inconsistent_lengths_rejected(self):
        schedule = make_schedule(10)
        verdict = verify(schedule, ideal(schedule))
        _, record = apply_attack(make_schedule(11), {"attack": "none"})
        with pytest.raises(ValueError):
            diagnose_tampering(verdict, record)


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

    def test_degenerate_pass_probabilities_report_none(self):
        # gamma_f < 2^-28 leaves tau_f = 29 and p_f = 0: no pair can pass.
        # gamma_f = 1 leaves tau_f = 0 and p_f = 1: every pair passes.  The
        # z-score, and at p_f = 0 the inflation, would divide by zero.
        never = null_calibration(28, 10, 1e-9, 1e-6, trials=20, seed=3)
        assert (never["tau_f"], never["p_f"], never["tau_v"]) == (29, 0.0, 1)
        assert never["identity_pass_rate"] == never["matched_pass_rate"] == 0.0
        assert never["identity_pass_z"] is None
        assert never["matched_pass_inflation"] is None
        always = null_calibration(28, 10, 1.0, 1e-6, trials=20, seed=3)
        assert (always["tau_f"], always["p_f"]) == (0, 1.0)
        assert always["identity_pass_rate"] == always["matched_pass_rate"] == 1.0
        assert always["identity_pass_z"] is None
        assert always["matched_pass_inflation"] == 1.0
        for report in (never, always):
            json.dumps(report, allow_nan=False)

    def test_frames_beyond_the_verifier_bound_rejected(self):
        # Each trial would otherwise build a (T, T) similarity matrix.
        with pytest.raises(ValueError, match=re.escape(f"[1, {MAX_FRAMES}]")):
            null_calibration(28, MAX_FRAMES + 1, 1e-3, 1e-6, trials=1, seed=0)
