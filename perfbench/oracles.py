"""Independent oracles for the benchmark's output checks.

Binomial tails are exact rationals built from `math.comb`; matched-bit
matrices come from integer products of the bit arrays, not from the
program's comparison code; the assignment optimum is one call of
`scipy.optimize.linear_sum_assignment`.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckFailure(AssertionError):
    """An operation's output disagrees with an oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def exact_tail(n: int, k: int, p: Fraction) -> Fraction:
    """Pr(X >= k) for X ~ Binomial(n, p), as an exact rational."""
    q = 1 - p
    return sum(
        (math.comb(n, j) * p**j * q ** (n - j) for j in range(max(k, 0), n + 1)),
        Fraction(0),
    )


def exact_frame_threshold(message_bits: int, gamma_f: float) -> tuple[int, Fraction]:
    """Smallest matched-bit count whose fair-coin tail is <= gamma_f."""
    gamma = Fraction(gamma_f)
    half = Fraction(1, 2)
    for tau in range(message_bits + 2):
        tail = exact_tail(message_bits, tau, half)
        if tail <= gamma:
            return tau, tail
    raise AssertionError("unreachable: the tail above n is 0")


def exact_video_threshold(num_pairs: int, p_f: Fraction, gamma_v: float) -> int:
    """Smallest valid-pair count whose Binomial(num_pairs, p_f) tail is
    <= gamma_v."""
    gamma = Fraction(gamma_v)
    for tau in range(num_pairs + 2):
        if exact_tail(num_pairs, tau, p_f) <= gamma:
            return tau
    raise AssertionError("unreachable: the tail above n is 0")


def matched_bits(expected, extracted) -> np.ndarray:
    """Matched-bit counts between every expected and extracted message:
    agreements on ones plus agreements on zeros."""
    e = np.asarray(expected, dtype=np.int64)
    x = np.asarray(extracted, dtype=np.int64)
    return e @ x.T + (1 - e) @ (1 - x).T


def assignment_optimum(counts: np.ndarray) -> int:
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return int(counts[rows, cols].sum())


def check_assignment(counts: np.ndarray, pairs, total: int) -> None:
    """`pairs` (1-based) is a one-to-one alignment of size min(T, T_r) whose
    matched bits sum to `total`, and `total` is the optimum."""
    pairs = list(pairs)
    expect(len(pairs) == min(counts.shape), f"alignment has {len(pairs)} pairs")
    expect(len({pi for pi, _ in pairs}) == len(pairs), "expected index used twice")
    expect(len({rho for _, rho in pairs}) == len(pairs), "extracted position used twice")
    achieved = sum(int(counts[pi - 1, rho - 1]) for pi, rho in pairs)
    expect(achieved == total, f"pairs sum to {achieved}, reported {total}")
    optimum = assignment_optimum(counts)
    expect(total == optimum, f"assignment total {total} != optimum {optimum}")


class ExactThresholds:
    """Exact thresholds for one (message_bits, gamma_f, gamma_v), memoised
    per pair count so repeated checks stay cheap."""

    def __init__(self, message_bits: int, gamma_f: float, gamma_v: float):
        self.tau_f, self.p_f = exact_frame_threshold(message_bits, gamma_f)
        self.gamma_v = gamma_v
        self._tau_v: dict = {}

    def tau_v(self, num_pairs: int) -> int:
        if num_pairs not in self._tau_v:
            self._tau_v[num_pairs] = exact_video_threshold(num_pairs, self.p_f, self.gamma_v)
        return self._tau_v[num_pairs]

    def check(self, tau_f: int, p_f: float, tau_v: int, num_pairs: int) -> None:
        expect(tau_f == self.tau_f, f"tau_f {tau_f} != exact {self.tau_f}")
        expect(
            abs(Fraction(p_f) - self.p_f) <= Fraction(1, 10**12) * self.p_f,
            f"p_f {p_f!r} != exact {float(self.p_f)!r}",
        )
        exact = self.tau_v(num_pairs)
        expect(tau_v == exact, f"tau_v {tau_v} != exact {exact} at {num_pairs} pairs")
