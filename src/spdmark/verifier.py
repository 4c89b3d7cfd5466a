"""Alignment, hypothesis testing, tamper localization, and extraction metrics.

Verification aligns extracted messages to the expected schedule with a
maximum-similarity rectangular assignment, keeps the pairs whose matched-bit
count passes an exact Binomial(M, 1/2) tail threshold, and declares the
watermark valid when enough pairs survive a second exact binomial test.
The surviving pair set then localizes temporal edits: missing expected
indices read as drops, unmatched extracted positions as inserts, and
adjacent descents in the extracted order as reorderings.

The thresholds hold the false-positive rates to gamma_f and gamma_v for
the identity alignment only.  Maximizing over assignments inflates the pass
rate of matched pairs, so verify misses gamma_v: at M = 28, gamma_f = 1e-3
and gamma_v = 1e-6 it accepted 1, 10 and 184 of 300 unwatermarked videos at
T = 25, 50 and 100.  null_calibration measures both alignments.
"""

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .channel_attacks import MAX_FRAMES, TamperRecord
from .keyspace import MAX_MESSAGE_BITS, MessageSequence, _canonical, _document, _typed

__all__ = [
    "SimilarityMatrix",
    "Assignment",
    "Thresholds",
    "FrameEntry",
    "Verdict",
    "TamperDiagnosis",
    "similarity_matrix",
    "hungarian_match",
    "binomial_tail",
    "frame_threshold",
    "video_threshold",
    "verify",
    "order_accuracy",
    "diagnose_tampering",
    "null_calibration",
    "wilson_interval",
]


def linear_sum_assignment(cost_matrix):
    """scipy.optimize.linear_sum_assignment, minimizing, with scipy imported
    on the first call: most processes never solve, and the import is most of
    their start-up time and memory."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost_matrix)


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Pairwise similarity between expected and extracted messages.

    Exact matched-bit counts, held as a read-only, C-contiguous int16
    (T, T_r) matrix of its own; the similarity of a pair is
    matched_bits / M, i.e. 1 - hamming/M.
    """

    matched_bits: np.ndarray
    message_bits: int

    def __post_init__(self) -> None:
        given = np.asarray(self.matched_bits)
        if given.ndim != 2 or given.size == 0:
            raise ValueError("matched_bits must be a non-empty 2-D matrix")
        if not 1 <= self.message_bits <= MAX_MESSAGE_BITS:
            raise ValueError(f"message_bits must lie in [1, {MAX_MESSAGE_BITS}]")
        # On the values as given, so that none wraps in the cast; NaN fails.
        if not (given.min() >= 0 and given.max() <= self.message_bits):
            raise ValueError("matched-bit counts must lie in [0, message_bits]")
        counts = np.array(given, dtype=np.int16, order="C")
        if not np.array_equal(counts, given):
            raise ValueError("matched-bit counts must be whole numbers")
        counts.setflags(write=False)
        object.__setattr__(self, "matched_bits", counts)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matched_bits.shape


@dataclass(frozen=True)
class Assignment:
    """One-to-one alignment of size min(T, T_r); pairs are 1-based and
    sorted by expected index."""

    pairs: tuple[tuple[int, int], ...]
    total_matched: int

    def __post_init__(self) -> None:
        pis = [p for p, _ in self.pairs]
        rhos = [r for _, r in self.pairs]
        if len(set(pis)) != len(pis) or len(set(rhos)) != len(rhos):
            raise ValueError("assignment must be one-to-one")
        if pis != sorted(pis):
            raise ValueError("pairs must be sorted by expected index")


@dataclass(frozen=True)
class Thresholds:
    tau_f: int
    p_f: float
    tau_v: int
    gamma_f: float
    gamma_v: float


class FrameEntry(NamedTuple):
    """One aligned pair: expected index pi, extracted position rho.  A named
    tuple, since a verdict builds one per pair, and a tuple builds at about
    half the cost of a frozen dataclass."""

    pi: int
    rho: int
    matched_bits: int
    valid: bool


@dataclass(frozen=True)
class Verdict:
    valid: bool
    thresholds: Thresholds
    frames: tuple[FrameEntry, ...]
    bit_acc: float
    order_acc: float
    video_p_value: float
    num_expected: int
    num_extracted: int
    message_bits: int

    @property
    def valid_set(self) -> tuple[tuple[int, int, int], ...]:
        """(pi, rho, matched_bits) of the frames that pass tau_f."""
        return tuple((f.pi, f.rho, f.matched_bits) for f in self.frames if f.valid)

    def to_doc(self, record: Optional[TamperRecord] = None) -> dict:
        """The verdict as a JSON document whose "tamper" field is `record`, the
        attack's ground truth, or null.  Raises ValueError if `record`
        describes other lengths than (T, T_r)."""
        if record is not None:
            self._check_lengths(record)
        return {
            "valid": self.valid,
            **asdict(self.thresholds),
            "num_valid": len(self.valid_set),
            "bit_acc": self.bit_acc,
            "order_acc": self.order_acc,
            "video_p_value": self.video_p_value,
            "num_expected": self.num_expected,
            "num_extracted": self.num_extracted,
            "message_bits": self.message_bits,
            "frames": [entry._asdict() for entry in self.frames],
            "tamper": None if record is None else record.to_doc(),
        }

    def _check_lengths(self, record: TamperRecord) -> None:
        if (record.source_length, record.output_length) != (self.num_expected, self.num_extracted):
            raise ValueError(f"tamper record lengths differ from (T, T_r) = "
                             f"({self.num_expected}, {self.num_extracted})")

    @classmethod
    def from_doc(cls, doc: dict) -> "Verdict":
        """The verdict `verify` wrote as `doc`.  Only the alignment, its
        counts, the lengths, the gammas and the tamper record are read; every
        other field is recomputed from them and must equal the document's."""
        with _document("verdict document"):
            pairs = tuple((_typed(f["pi"], int), _typed(f["rho"], int)) for f in doc["frames"])
            matched = tuple(_typed(f["matched_bits"], int) for f in doc["frames"])
            t, t_r, m = (
                _typed(doc[key], int) for key in ("num_expected", "num_extracted", "message_bits")
            )
            gamma_f, gamma_v = _typed(doc["gamma_f"], float), _typed(doc["gamma_v"], float)
            tamper = doc["tamper"]
        # Reject what verify cannot produce: anything but a one-to-one
        # alignment of min(T, T_r) pairs, sorted by pi as Assignment requires,
        # with counts in [0, M], and M beyond one SHA-256 digest.
        if not (1 <= t <= MAX_FRAMES and 1 <= t_r <= MAX_FRAMES):
            raise ValueError(f"verdict lengths must lie in [1, {MAX_FRAMES}], not {t} and {t_r}")
        if not 1 <= m <= MAX_MESSAGE_BITS:
            raise ValueError(f"verdict message_bits must lie in [1, {MAX_MESSAGE_BITS}]")
        if len(pairs) != min(t, t_r):
            raise ValueError(f"verdict must align min(T, T_r) = {min(t, t_r)} frames")
        Assignment(pairs, 0)
        for (pi, rho), count in zip(pairs, matched):
            if not (1 <= pi <= t and 1 <= rho <= t_r and 0 <= count <= m):
                raise ValueError(
                    f"verdict frame (pi={pi}, rho={rho}, matched_bits={count}) "
                    f"lies outside T={t}, T_r={t_r}, M={m}"
                )
        verdict = _verdict(pairs, matched, (t, t_r, m), gamma_f, gamma_v)
        recomputed = verdict.to_doc(None if tamper is None else TamperRecord.from_doc(tamper))
        missing = [key for key in recomputed if key not in doc]
        if missing:
            raise ValueError(f"verdict document is missing key {missing[0]!r}")
        if _canonical(recomputed) != _canonical(doc):
            raise ValueError("verdict document disagrees with its own alignment")
        return verdict


@dataclass(frozen=True)
class TamperDiagnosis:
    """Localized temporal edits, plus per-class scores against ground truth."""

    predicted_dropped: tuple[int, ...]
    predicted_inserted: tuple[int, ...]
    predicted_inversions: tuple[tuple[int, int], ...]
    scores: Optional[dict] = None

    def to_doc(self) -> dict:
        return {
            "predicted_dropped": list(self.predicted_dropped),
            "predicted_inserted": list(self.predicted_inserted),
            "predicted_inversions": [list(pair) for pair in self.predicted_inversions],
            "scores": self.scores,
        }


def similarity_matrix(
    expected: MessageSequence, extracted: MessageSequence
) -> SimilarityMatrix:
    """Matched-bit counts between every (expected, extracted) message pair."""
    if expected.message_bits != extracted.message_bits:
        raise ValueError("all messages must share one length")
    return _similarity(expected.messages, extracted.messages)


def _similarity(expected: np.ndarray, extracted: np.ndarray) -> SimilarityMatrix:
    # Matched-bit counts of (T, M) and (T_r, M) uint8 bit arrays, from one
    # product of their +-1 forms: each term of S_E S_X^T is +1 for a match
    # and -1 for a mismatch, so matched = (M + S_E S_X^T) / 2.  Every
    # partial sum is an integer of magnitude <= M, which SimilarityMatrix
    # bounds by 256 < 2^24, so float32 holds it exactly and the product does
    # not depend on the BLAS kernel, its thread count or summation order.
    m = expected.shape[1]
    signs = [2 * bits.astype(np.float32) - 1 for bits in (expected, extracted)]
    agreement = signs[0] @ signs[1].T
    agreement += m
    agreement /= 2
    return SimilarityMatrix(agreement, m)


def _tight_edges(weights: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    # The tight edges u_i + v_j == w[i, j] of exact dual potentials for the
    # assignment, row i holding column assigned[i] and h(j) holding column
    # j.  As v_j = w[h(j), j] - u_h(j), (i, j) is tight exactly when
    # slack[i, j] = w[h(j), j] - w[i, j] equals u_h(j) - u_i.  Bellman-Ford
    # on u_h(j) <= u_i + slack[i, j] from u = 0 has a negative cycle exactly
    # when the assignment is not a maximum, so it converges within n rounds
    # iff it is optimal; int32 holds n + 1 rounds of steps >= -w_max.
    n = len(assigned)
    holder = np.empty(n, dtype=np.intp)
    holder[assigned] = np.arange(n)
    slack = weights[holder, np.arange(n)] - weights
    u = np.zeros(n, dtype=np.int32)
    for _ in range(n + 1):
        relaxed = (u[:, None] + slack).min(axis=0)[assigned]
        if np.array_equal(relaxed, u):
            return slack == u[holder] - u[:, None]
        u = relaxed
    raise RuntimeError("assignment is not optimal: dual potentials did not converge")


def _rows_reaching(
    rows_at: list[int], assigned: list[int], free: int, row: int, goal: int
) -> dict[int, int]:
    # Reverse BFS from `row` over the free rows, along a -> b when row a is
    # tight at b's column.  Maps each row found to its next step toward
    # `row`, and stops once `goal` is found.
    successor: dict[int, int] = {}
    seen = 0
    frontier = [row]
    while frontier and goal not in successor:
        found = []
        for b in frontier:
            new = rows_at[assigned[b]] & free & ~seen
            seen |= new
            while new:
                low = new & -new
                a = low.bit_length() - 1
                successor[a] = b
                found.append(a)
                new ^= low
        frontier = found
    return successor


def _bitsets(matrix: np.ndarray) -> list[int]:
    # Row r of a boolean matrix as a Python int whose bit j is matrix[r, j].
    packed = np.packbits(matrix, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(data[start : start + width], "little")
        for start in range(0, len(data), width)
    ]


def _smallest_tight_matching(
    tight: np.ndarray, assigned: list[int], shape: tuple[int, int]
) -> list[int]:
    # Fixes the num_rows real rows in order; each takes its smallest tight
    # real column whose holder can reach it, and the matching is rotated
    # along that cycle.  Row and column sets are Python-int bitsets: bit a
    # of rows_at[j] is set when row a is tight at column j, and bit j of
    # tight_cols[a] when row a is tight at real column j.  A rotation only
    # permutes columns among the current row and the free rows, so the
    # columns of fixed rows never move again: fixed_cols holds exactly
    # them, and a column left of the current row's is held by a free row
    # exactly when it is not in fixed_cols.  The padding columns (j >=
    # num_cols, when T > T_r) are all-zero and so interchangeable: the rows
    # holding them share one potential, so the columns are tight at the
    # same rows, and moving a row from one to a smaller one never changes
    # a pair.  They are therefore never candidates.
    num_rows, num_cols = shape
    n = len(assigned)
    rows_at = _bitsets(tight.T)
    tight_cols = _bitsets(tight[:num_rows, :num_cols])
    holder = [0] * n
    for row, col in enumerate(assigned):
        holder[col] = row
    free = (1 << n) - 1
    fixed_cols = 0
    for row in range(num_rows):
        free ^= 1 << row
        # Candidate columns, read lowest bit first.
        earlier = tight_cols[row] & ((1 << assigned[row]) - 1) & ~fixed_cols
        if earlier:
            first = (earlier & -earlier).bit_length() - 1
            successor = _rows_reaching(rows_at, assigned, free, row, holder[first])
            while earlier:
                low = earlier & -earlier
                col = low.bit_length() - 1
                if holder[col] in successor:
                    cycle = [holder[col]]
                    while cycle[-1] != row:
                        cycle.append(successor[cycle[-1]])
                    cols = [assigned[k] for k in cycle]
                    for k, c in zip(cycle, cols[1:] + cols[:1]):
                        assigned[k] = c
                        holder[c] = k
                    break
                earlier ^= low
        fixed_cols |= 1 << assigned[row]
    return assigned


def hungarian_match(sim: SimilarityMatrix) -> Assignment:
    """Maximum-similarity one-to-one alignment of size min(T, T_r).

    Among all maximizing assignments the lexicographically smallest pair
    sequence is returned; a row is left unmatched only when no maximizing
    assignment that agrees with the earlier rows gives it a column.

    No solve happens when the input leaves no choice: if every row reaches
    its maximum at exactly one column and those columns are pairwise
    distinct (so T <= T_r), pairing each row with its maximum is returned
    as it is.  Every other assignment scores below the sum of the row
    maxima, so this one is the only maximizing assignment and there is no
    tie to break.

    Otherwise the counts are zero-padded to a square matrix, dummy rows or
    columns indexed after the real ones, and solved once.  Exact integer
    dual potentials for that solution make the maximizing assignments
    exactly the perfect matchings of the tight edges (u_i + v_j == w_ij).
    Rows are then fixed in expected-index order: each takes its smallest
    tight real column whose holder can pass a column back to it along an
    alternating path of unfixed rows, and the matching is rotated along
    that cycle.  Dummy columns are never searched: they are
    interchangeable, so a row left on one stays unmatched whichever it
    holds.  Raises RuntimeError if the solve was not optimal.
    """
    counts = sim.matched_bits
    num_rows, num_cols = counts.shape
    # Distinct argmax columns first: the test fails at once under H0 and
    # whenever T > T_r, before the ties are counted.
    best = counts.argmax(axis=1)
    if np.bincount(best).max() == 1:
        maxima = counts[np.arange(num_rows), best]
        if np.count_nonzero(counts == maxima[:, None]) == num_rows:
            pairs = tuple(zip(range(1, num_rows + 1), (best + 1).tolist()))
            return Assignment(pairs=pairs, total_matched=int(maxima.sum()))
    n = max(num_rows, num_cols)
    weights = np.zeros((n, n), dtype=np.int16)
    weights[:num_rows, :num_cols] = counts
    _, solved = linear_sum_assignment(np.negative(weights, dtype=np.float64))
    best = int(weights[np.arange(n), solved].sum())
    tight = _tight_edges(weights, solved)
    assigned = _smallest_tight_matching(tight, solved.tolist(), counts.shape)

    pairs = tuple(
        (row + 1, col + 1)
        for row, col in enumerate(assigned[:num_rows])
        if col < num_cols
    )
    achieved = sum(int(counts[pi - 1, rho - 1]) for pi, rho in pairs)
    if len(pairs) != min(num_rows, num_cols) or achieved != best:
        raise RuntimeError("assignment refinement lost optimality")
    return Assignment(pairs=pairs, total_matched=best)


# Verdict documents choose their own lengths and gammas, so the tail memo is
# bounded: one table is about 131 KB at n = MAX_FRAMES, so 64 hold 8.4 MB.
_TAIL_CACHE_SIZE = 64


@lru_cache(maxsize=_TAIL_CACHE_SIZE)
def _tails(n: int, p: float) -> tuple[float, ...]:
    # Pr(X >= k) for X ~ Binomial(n, p), k = 0..n+1.  A float p is c/s, s a
    # power of two, so s^n Pr(X >= k) = sum_{j >= k} C(n, j) c^j (s - c)^(n - j).
    # One pass subtracts each term from s^n, stepping terms by their exact
    # integer ratio, and int / int rounds each tail once to the nearest float.
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    c, s = p.as_integer_ratio()
    if c == s:
        return (1.0,) * (n + 1) + (0.0,)
    total = left = s**n
    term = (s - c) ** n
    tails = []
    for j in range(n + 1):
        tails.append(left / total)
        left -= term
        term = term * (n - j) * c // ((j + 1) * (s - c))
    return (*tails, 0.0)


def _binomial_tail(n: int, k: int, p: float) -> float:
    if not 0 <= k <= n + 1:
        raise ValueError("k must lie in [0, n + 1]")
    return _tails(n, p)[k]


def binomial_tail(n: int, k: int) -> float:
    """Pr(X >= k) for X ~ Binomial(n, 1/2): the exact rational
    sum_{j >= k} C(n, j) / 2^n, correctly rounded to the nearest float.
    Public API with no caller in src/, kept for acceptance criterion 1."""
    return _binomial_tail(n, k, 0.5)


def frame_threshold(message_bits: int, gamma_f: float) -> tuple[int, float]:
    """Minimal matched-bit count whose fair-coin tail is <= gamma_f, and
    that tail probability itself."""
    if not 0.0 < gamma_f <= 1.0:
        raise ValueError("gamma_f must lie in (0, 1]")
    tails = _tails(message_bits, 0.5)
    tau = next(k for k, tail in enumerate(tails) if tail <= gamma_f)
    return tau, tails[tau]


def video_threshold(num_pairs: int, p_f: float, gamma_v: float) -> int:
    """Minimal valid-pair count whose Binomial(num_pairs, p_f) tail is
    <= gamma_v."""
    if not 0.0 < gamma_v <= 1.0:
        raise ValueError("gamma_v must lie in (0, 1]")
    return next(k for k, tail in enumerate(_tails(num_pairs, p_f)) if tail <= gamma_v)


def order_accuracy(pairs: Sequence[tuple[int, int]]) -> float:
    """Fraction of adjacent extracted-position ascents, pairs sorted by
    expected index; one or zero pairs count as perfectly ordered."""
    ordered = sorted(pairs)
    if len(ordered) <= 1:
        return 1.0
    ascents = sum(
        1 for (_, a), (_, b) in zip(ordered, ordered[1:]) if a < b
    )
    return ascents / (len(ordered) - 1)


def _verdict(pairs: Sequence[tuple[int, int]], matched: Sequence[int],
             lengths: tuple[int, int, int], gamma_f: float, gamma_v: float) -> Verdict:
    # The verdict on an alignment: `matched` holds the matched-bit count of
    # each pair, `lengths` is (T, T_r, M).
    num_expected, num_extracted, message_bits = lengths
    gamma_f, gamma_v = _typed(gamma_f, float), _typed(gamma_v, float)
    tau_f, p_f = frame_threshold(message_bits, gamma_f)
    tau_v = video_threshold(len(pairs), p_f, gamma_v)
    frames = tuple(
        FrameEntry(pi, rho, count, count >= tau_f)
        for (pi, rho), count in zip(pairs, matched)
    )
    valid = [f for f in frames if f.valid]
    bit_acc = (
        sum(f.matched_bits for f in valid) / (len(valid) * message_bits) if valid else 0.0
    )
    return Verdict(
        valid=len(valid) >= tau_v,
        thresholds=Thresholds(tau_f, p_f, tau_v, gamma_f, gamma_v),
        frames=frames,
        bit_acc=bit_acc,
        order_acc=order_accuracy([(f.pi, f.rho) for f in valid]),
        video_p_value=_binomial_tail(len(pairs), len(valid), p_f),
        num_expected=num_expected,
        num_extracted=num_extracted,
        message_bits=message_bits,
    )


def verify(
    expected: MessageSequence,
    extracted: MessageSequence,
    gamma_f: float = 1e-3,
    gamma_v: float = 1e-6,
) -> Verdict:
    """Full verification: align, threshold, decide, and score.

    Bit accuracy averages matched-bit fractions over the valid set (0.0
    when the valid set is empty); order accuracy is the ascent fraction of
    the valid set sorted by expected index.  Each side holds at most
    MAX_FRAMES messages, so that every verdict written reads back.
    """
    if max(len(expected), len(extracted)) > MAX_FRAMES:
        raise ValueError(f"verify aligns at most {MAX_FRAMES} frames a side")
    sim = similarity_matrix(expected, extracted)
    pairs = hungarian_match(sim).pairs
    matched = [int(sim.matched_bits[pi - 1, rho - 1]) for pi, rho in pairs]
    return _verdict(pairs, matched, (*sim.shape, sim.message_bits), gamma_f, gamma_v)


def _f1_scores(predicted: set[int], truth: set[int]) -> dict:
    # Empty-set conventions: both empty scores 1, exactly one empty scores 0.
    if not predicted and not truth:
        precision = recall = 1.0
    elif not predicted or not truth:
        precision = recall = 0.0
    else:
        both = len(predicted & truth)
        precision = both / len(predicted)
        recall = both / len(truth)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def diagnose_tampering(
    verdict: Verdict, ground_truth: Optional[TamperRecord] = None
) -> TamperDiagnosis:
    """Localize temporal edits from the valid set.

    Expected indices missing from the valid set are predicted drops,
    extracted positions missing from it are predicted inserts, and adjacent
    descents (reported as (pi_i, pi_{i+1}) pairs) are predicted
    reorderings.  With ground truth, drop and insert predictions are scored
    as precision/recall/F1; both sets empty scores 1, exactly one empty
    scores 0.
    """
    valid = [(f.pi, f.rho) for f in verdict.frames if f.valid]
    matched_pi = {pi for pi, _ in valid}
    matched_rho = {rho for _, rho in valid}
    predicted_dropped = tuple(
        i for i in range(1, verdict.num_expected + 1) if i not in matched_pi
    )
    predicted_inserted = tuple(
        n for n in range(1, verdict.num_extracted + 1) if n not in matched_rho
    )
    ordered = sorted(valid)
    predicted_inversions = tuple(
        (a_pi, b_pi)
        for (a_pi, a_rho), (b_pi, b_rho) in zip(ordered, ordered[1:])
        if a_rho > b_rho
    )
    scores = None
    if ground_truth is not None:
        verdict._check_lengths(ground_truth)
        scores = {
            "drop": _f1_scores(set(predicted_dropped), ground_truth.removed_indices),
            "insert": _f1_scores(set(predicted_inserted), ground_truth.inserted),
        }
    return TamperDiagnosis(
        predicted_dropped=predicted_dropped,
        predicted_inserted=predicted_inserted,
        predicted_inversions=predicted_inversions,
        scores=scores,
    )


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    # The bound is exact at the degenerate counts; avoid rounding residue.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def null_calibration(
    message_bits: int,
    num_frames: int,
    gamma_f: float,
    gamma_v: float,
    trials: int,
    seed: int,
) -> dict:
    """Monte Carlo behaviour of the verifier on unwatermarked inputs.

    Each trial pairs a random expected schedule with independent random
    extracted messages (both length num_frames).  Two alignments are
    measured: the identity alignment, which realizes the fair-coin null the
    thresholds are calibrated for, and the maximum-similarity alignment the
    verifier actually uses, whose selection bias inflates the frame-pass
    rate.  Per-trial seeding makes the result independent of execution
    order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= num_frames <= MAX_FRAMES:
        raise ValueError(f"num_frames must lie in [1, {MAX_FRAMES}]")
    tau_f, p_f = frame_threshold(message_bits, gamma_f)
    tau_v = video_threshold(num_frames, p_f, gamma_v)
    identity_passes = 0
    identity_valid = 0
    matched_passes = 0
    matched_valid = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        expected = rng.integers(0, 2, (num_frames, message_bits), dtype=np.uint8)
        extracted = rng.integers(0, 2, (num_frames, message_bits), dtype=np.uint8)
        sim = _similarity(expected, extracted)
        passed = sim.matched_bits >= tau_f
        identity_q = int(passed.diagonal().sum())
        identity_passes += identity_q
        identity_valid += identity_q >= tau_v
        index = np.array(hungarian_match(sim).pairs) - 1
        matched_q = int(passed[index[:, 0], index[:, 1]].sum())
        matched_passes += matched_q
        matched_valid += matched_q >= tau_v
    pair_trials = trials * num_frames
    identity_rate = identity_passes / pair_trials
    matched_rate = matched_passes / pair_trials
    standard_error = math.sqrt(p_f * (1.0 - p_f) / pair_trials)
    # p_f is 0 when gamma_f < 2^-M and 1 at gamma_f = 1; every rate is then p_f.
    z = (identity_rate - p_f) / standard_error if standard_error else None
    return {
        "message_bits": message_bits,
        "num_frames": num_frames,
        "gamma_f": gamma_f,
        "gamma_v": gamma_v,
        "trials": trials,
        "tau_f": tau_f,
        "p_f": p_f,
        "tau_v": tau_v,
        "identity_pass_rate": identity_rate,
        "identity_pass_interval": wilson_interval(identity_passes, pair_trials),
        "identity_pass_standard_error": standard_error,
        "identity_pass_z": z,
        "identity_valid_count": identity_valid,
        "identity_valid_rate": identity_valid / trials,
        "matched_pass_rate": matched_rate,
        "matched_pass_interval": wilson_interval(matched_passes, pair_trials),
        "matched_pass_inflation": matched_rate / p_f if p_f else None,
        "matched_valid_count": matched_valid,
        "matched_valid_rate": matched_valid / trials,
        "matched_valid_interval": wilson_interval(matched_valid, trials),
    }
