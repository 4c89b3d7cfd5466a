"""Alignment, hypothesis testing, tamper localization, and extraction metrics.

Verification aligns extracted messages to the expected schedule with a
maximum-similarity rectangular assignment, keeps the pairs whose matched-bit
count passes an exact Binomial(M, 1/2) tail threshold, and declares the
watermark valid when enough pairs survive a second exact binomial test.
The surviving pair set then localizes temporal edits: missing expected
indices read as drops, unmatched extracted positions as inserts, and
adjacent descents in the extracted order as reorderings.

Two calibration caveats are deliberate and reported rather than corrected:
the frame-level null model treats aligned pairs as independent fair-coin
matches, but maximizing over assignments inflates the pass rate of matched
pairs, so the realized video-level false-positive rate can exceed the
configured target.  null_calibration measures both effects.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln, logsumexp

from .channel_attacks import TamperRecord
from .keyspace import MessageSequence

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


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Pairwise similarity between expected and extracted messages.

    Stored as exact matched-bit counts; values are matched_bits / M, i.e.
    1 - hamming/M.
    """

    matched_bits: np.ndarray
    message_bits: int

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.matched_bits, dtype=np.int64)
        if counts.ndim != 2 or counts.size == 0:
            raise ValueError("matched_bits must be a non-empty 2-D matrix")
        if self.message_bits < 1:
            raise ValueError("message_bits must be >= 1")
        if counts.min() < 0 or counts.max() > self.message_bits:
            raise ValueError("matched-bit counts must lie in [0, message_bits]")
        counts.setflags(write=False)
        object.__setattr__(self, "matched_bits", counts)

    @property
    def values(self) -> np.ndarray:
        return self.matched_bits / self.message_bits

    @property
    def shape(self) -> tuple[int, int]:
        return self.matched_bits.shape


@dataclass(frozen=True)
class Assignment:
    """One-to-one alignment of size min(T, T_r); pairs are 1-based and
    sorted by expected index."""

    pairs: tuple[tuple[int, int], ...]
    total_similarity: float
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


@dataclass(frozen=True)
class FrameEntry:
    """One aligned pair: expected index pi, extracted position rho."""

    pi: int
    rho: int
    matched_bits: int
    valid: bool


@dataclass(frozen=True)
class Verdict:
    valid: bool
    valid_set: tuple[tuple[int, int, int], ...]
    thresholds: Thresholds
    frames: tuple[FrameEntry, ...]
    bit_acc: float
    order_acc: float
    video_p_value: float
    num_expected: int
    num_extracted: int
    message_bits: int

    def to_doc(self, tamper: Optional[dict] = None) -> dict:
        return {
            "valid": self.valid,
            "tau_f": self.thresholds.tau_f,
            "p_f": self.thresholds.p_f,
            "tau_v": self.thresholds.tau_v,
            "gamma_f": self.thresholds.gamma_f,
            "gamma_v": self.thresholds.gamma_v,
            "num_valid": len(self.valid_set),
            "bit_acc": self.bit_acc,
            "order_acc": self.order_acc,
            "video_p_value": self.video_p_value,
            "num_expected": self.num_expected,
            "num_extracted": self.num_extracted,
            "message_bits": self.message_bits,
            "frames": [
                {
                    "pi": entry.pi,
                    "rho": entry.rho,
                    "matched_bits": entry.matched_bits,
                    "valid": entry.valid,
                }
                for entry in self.frames
            ],
            "tamper": tamper,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Verdict":
        try:
            frames = tuple(
                FrameEntry(
                    int(f["pi"]), int(f["rho"]), int(f["matched_bits"]), bool(f["valid"])
                )
                for f in doc["frames"]
            )
            verdict = cls(
                valid=bool(doc["valid"]),
                valid_set=tuple(
                    (f.pi, f.rho, f.matched_bits) for f in frames if f.valid
                ),
                thresholds=Thresholds(
                    tau_f=int(doc["tau_f"]),
                    p_f=float(doc["p_f"]),
                    tau_v=int(doc["tau_v"]),
                    gamma_f=float(doc["gamma_f"]),
                    gamma_v=float(doc["gamma_v"]),
                ),
                frames=frames,
                bit_acc=float(doc["bit_acc"]),
                order_acc=float(doc["order_acc"]),
                video_p_value=float(doc["video_p_value"]),
                num_expected=int(doc["num_expected"]),
                num_extracted=int(doc["num_extracted"]),
                message_bits=int(doc["message_bits"]),
            )
        except KeyError as exc:
            raise ValueError(f"verdict document is missing key {exc.args[0]!r}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed verdict document: {exc}") from None
        # Reject what verify cannot produce: anything but a one-to-one
        # alignment of min(T, T_r) pairs, sorted by pi as Assignment requires,
        # with counts in [0, M].
        t, t_r, m = verdict.num_expected, verdict.num_extracted, verdict.message_bits
        if min(t, t_r, m) < 1:
            raise ValueError("verdict lengths and message_bits must be >= 1")
        if len(frames) != min(t, t_r):
            raise ValueError(f"verdict must align min(T, T_r) = {min(t, t_r)} frames")
        Assignment(tuple((f.pi, f.rho) for f in frames), 0.0, 0)
        for f in frames:
            if not (1 <= f.pi <= t and 1 <= f.rho <= t_r and 0 <= f.matched_bits <= m):
                raise ValueError(
                    f"verdict frame (pi={f.pi}, rho={f.rho}, matched_bits="
                    f"{f.matched_bits}) lies outside T={t}, T_r={t_r}, M={m}"
                )
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
    # Matched-bit counts of (T, M) and (T_r, M) uint8 bit arrays.
    m = expected.shape[1]
    mismatches = (expected[:, None, :] != extracted[None, :, :]).sum(axis=2)
    return SimilarityMatrix(m - mismatches, m)


def _row_potentials(weights: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    # Bellman-Ford on u_k <= u_i + w[k, m(k)] - w[i, m(k)] from u = 0.  The
    # constraints have a negative cycle exactly when the assignment m is not
    # a maximum, so they converge within n rounds iff m is optimal.
    n = len(assigned)
    held = weights[:, assigned]  # held[i, k] = w[i, m(k)]
    slack = held.diagonal() - held
    u = np.zeros(n, dtype=np.int64)
    for _ in range(n + 1):
        relaxed = (u[:, None] + slack).min(axis=0)
        if np.array_equal(relaxed, u):
            return u
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


def _smallest_tight_matching(
    tight: np.ndarray, assigned: list[int], num_rows: int
) -> list[int]:
    # Fixes rows in order; each takes its smallest tight column whose holder
    # can reach it, and the matching is rotated along that cycle.  Row sets
    # are Python-int bitsets: bit a of rows_at[j] is set when row a is tight
    # at column j.
    n = len(assigned)
    packed = np.packbits(tight.T, axis=1, bitorder="little")
    rows_at = [int.from_bytes(bits.tobytes(), "little") for bits in packed]
    holder = [0] * n
    for row, col in enumerate(assigned):
        holder[col] = row
    free = (1 << n) - 1
    for row in range(num_rows):
        free ^= 1 << row
        earlier = [
            col
            for col in np.flatnonzero(tight[row, : assigned[row]]).tolist()
            if free >> holder[col] & 1
        ]
        if not earlier:
            continue
        successor = _rows_reaching(rows_at, assigned, free, row, holder[earlier[0]])
        for col in earlier:
            if holder[col] in successor:
                cycle = [holder[col]]
                while cycle[-1] != row:
                    cycle.append(successor[cycle[-1]])
                cols = [assigned[k] for k in cycle]
                for k, c in zip(cycle, cols[1:] + cols[:1]):
                    assigned[k] = c
                    holder[c] = k
                break
    return assigned


def hungarian_match(sim: SimilarityMatrix) -> Assignment:
    """Maximum-similarity one-to-one alignment of size min(T, T_r).

    Among all maximizing assignments the lexicographically smallest pair
    sequence is returned; a row is left unmatched only when no maximizing
    assignment that agrees with the earlier rows gives it a column.

    The counts are zero-padded to a square matrix, dummy rows or columns
    indexed after the real ones, and solved once.  Exact integer dual
    potentials for that solution make the maximizing assignments exactly
    the perfect matchings of the tight edges (u_i + v_j == w_ij).  Rows are
    then fixed in expected-index order: each takes its smallest tight column
    whose holder can pass a column back to it along an alternating path of
    unfixed rows, and the matching is rotated along that cycle.  Dummy
    columns sort after real ones, so a row takes one only when no real
    column remains possible.  Raises RuntimeError if the solve was not
    optimal.
    """
    counts = sim.matched_bits
    num_rows, num_cols = counts.shape
    n = max(num_rows, num_cols)
    weights = np.zeros((n, n), dtype=np.int64)
    weights[:num_rows, :num_cols] = counts
    _, solved = linear_sum_assignment(weights, maximize=True)
    held = weights[np.arange(n), solved]
    best = int(held.sum())

    u = _row_potentials(weights, solved)
    v = np.empty(n, dtype=np.int64)
    v[solved] = held - u
    tight = u[:, None] + v[None, :] == weights
    assigned = _smallest_tight_matching(tight, solved.tolist(), num_rows)

    pairs = tuple(
        (row + 1, col + 1)
        for row, col in enumerate(assigned[:num_rows])
        if col < num_cols
    )
    achieved = sum(int(counts[pi - 1, rho - 1]) for pi, rho in pairs)
    if len(pairs) != min(num_rows, num_cols) or achieved != best:
        raise RuntimeError("assignment refinement lost optimality")
    return Assignment(
        pairs=pairs,
        total_similarity=best / sim.message_bits,
        total_matched=best,
    )


def _log_tail(n: int, k: int, p: float) -> float:
    # log Pr(X >= k) for X ~ Binomial(n, p), exact summation in log space.
    j = np.arange(k, n + 1)
    log_binom = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
    return float(logsumexp(log_binom + j * math.log(p) + (n - j) * math.log1p(-p)))


def _binomial_tail(n: int, k: int, p: float) -> float:
    if not 0 <= k <= n + 1:
        raise ValueError("k must lie in [0, n + 1]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return min(1.0, math.exp(_log_tail(n, k, p)))


def binomial_tail(n: int, k: int) -> float:
    """Pr(X >= k) for X ~ Binomial(n, 1/2), exact in log space."""
    return _binomial_tail(n, k, 0.5)


@lru_cache(maxsize=None)
def frame_threshold(message_bits: int, gamma_f: float) -> tuple[int, float]:
    """Minimal matched-bit count whose fair-coin tail is <= gamma_f, and
    that tail probability itself."""
    if not 0.0 < gamma_f <= 1.0:
        raise ValueError("gamma_f must lie in (0, 1]")
    for tau in range(message_bits + 2):
        tail = binomial_tail(message_bits, tau)
        if tail <= gamma_f:
            return tau, tail
    raise AssertionError("unreachable: tail(n + 1) is 0")


@lru_cache(maxsize=None)
def video_threshold(num_pairs: int, p_f: float, gamma_v: float) -> int:
    """Minimal valid-pair count whose Binomial(num_pairs, p_f) tail is
    <= gamma_v."""
    if not 0.0 < gamma_v <= 1.0:
        raise ValueError("gamma_v must lie in (0, 1]")
    if num_pairs < 0:
        raise ValueError("num_pairs must be >= 0")
    for tau in range(num_pairs + 2):
        if _binomial_tail(num_pairs, tau, p_f) <= gamma_v:
            return tau
    raise AssertionError("unreachable: tail(n + 1) is 0")


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


def _verdict_from_matrix(
    sim: SimilarityMatrix, gamma_f: float, gamma_v: float
) -> Verdict:
    tau_f, p_f = frame_threshold(sim.message_bits, gamma_f)
    assignment = hungarian_match(sim)
    tau_v = video_threshold(len(assignment.pairs), p_f, gamma_v)
    frames = []
    valid_set = []
    for pi, rho in assignment.pairs:
        matched = int(sim.matched_bits[pi - 1, rho - 1])
        passed = matched >= tau_f
        frames.append(FrameEntry(pi, rho, matched, passed))
        if passed:
            valid_set.append((pi, rho, matched))
    num_valid = len(valid_set)
    bit_acc = (
        sum(matched for _, _, matched in valid_set) / (num_valid * sim.message_bits)
        if num_valid
        else 0.0
    )
    return Verdict(
        valid=num_valid >= tau_v,
        valid_set=tuple(valid_set),
        thresholds=Thresholds(tau_f, p_f, tau_v, gamma_f, gamma_v),
        frames=tuple(frames),
        bit_acc=bit_acc,
        order_acc=order_accuracy([(pi, rho) for pi, rho, _ in valid_set]),
        video_p_value=_binomial_tail(len(assignment.pairs), num_valid, p_f),
        num_expected=sim.shape[0],
        num_extracted=sim.shape[1],
        message_bits=sim.message_bits,
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
    the valid set sorted by expected index.
    """
    return _verdict_from_matrix(similarity_matrix(expected, extracted), gamma_f, gamma_v)


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
    verdict: Verdict,
    num_expected: int,
    num_extracted: int,
    ground_truth: Optional[TamperRecord] = None,
) -> TamperDiagnosis:
    """Localize temporal edits from the valid set.

    Expected indices missing from the valid set are predicted drops,
    extracted positions missing from it are predicted inserts, and adjacent
    descents (reported as (pi_i, pi_{i+1}) pairs) are predicted
    reorderings.  With ground truth, drop and insert predictions are scored
    as precision/recall/F1; both sets empty scores 1, exactly one empty
    scores 0.
    """
    if num_expected != verdict.num_expected or num_extracted != verdict.num_extracted:
        raise ValueError("verdict was computed for different sequence lengths")
    matched_pi = {pi for pi, _, _ in verdict.valid_set}
    matched_rho = {rho for _, rho, _ in verdict.valid_set}
    predicted_dropped = tuple(
        i for i in range(1, num_expected + 1) if i not in matched_pi
    )
    predicted_inserted = tuple(
        n for n in range(1, num_extracted + 1) if n not in matched_rho
    )
    ordered = sorted((pi, rho) for pi, rho, _ in verdict.valid_set)
    predicted_inversions = tuple(
        (a_pi, b_pi)
        for (a_pi, a_rho), (b_pi, b_rho) in zip(ordered, ordered[1:])
        if a_rho > b_rho
    )
    scores = None
    if ground_truth is not None:
        if (
            ground_truth.source_length != num_expected
            or ground_truth.output_length != num_extracted
        ):
            raise ValueError("ground truth does not match sequence lengths")
        scores = {
            "drop": _f1_scores(
                set(predicted_dropped), set(ground_truth.removed_indices)
            ),
            "insert": _f1_scores(set(predicted_inserted), set(ground_truth.inserted)),
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
        identity_counts = message_bits - (expected != extracted).sum(axis=1)
        identity_q = int((identity_counts >= tau_f).sum())
        identity_passes += identity_q
        identity_valid += identity_q >= tau_v
        verdict = _verdict_from_matrix(_similarity(expected, extracted), gamma_f, gamma_v)
        matched_passes += len(verdict.valid_set)
        matched_valid += verdict.valid
    pair_trials = trials * num_frames
    identity_rate = identity_passes / pair_trials
    matched_rate = matched_passes / pair_trials
    standard_error = math.sqrt(p_f * (1.0 - p_f) / pair_trials)
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
        "identity_pass_z": (identity_rate - p_f) / standard_error,
        "identity_valid_count": identity_valid,
        "identity_valid_rate": identity_valid / trials,
        "matched_pass_rate": matched_rate,
        "matched_pass_interval": wilson_interval(matched_passes, pair_trials),
        "matched_pass_inflation": matched_rate / p_f if p_f else float("inf"),
        "matched_valid_count": matched_valid,
        "matched_valid_rate": matched_valid / trials,
        "matched_valid_interval": wilson_interval(matched_valid, trials),
    }
