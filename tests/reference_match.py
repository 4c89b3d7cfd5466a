"""Test-only oracles: the broadcast similarity count and the re-solving
lexicographic assignment.

`_similarity` is the original matched-bit count, one elementwise compare of
every message pair; `spdmark.verifier` computes it as one +-1 product.
`hungarian_match` is the original assignment, which finds the
lexicographically smallest maximum-similarity assignment by re-solving a
reduced assignment for every candidate column of every row.  Both are slow
but obviously correct, so the differential tests compare the implementations
in `spdmark.verifier` against them.  Nothing under `src/` imports this module.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from spdmark.verifier import Assignment, SimilarityMatrix


def _similarity(expected: np.ndarray, extracted: np.ndarray) -> SimilarityMatrix:
    """Matched-bit counts of (T, M) and (T_r, M) bit arrays."""
    m = expected.shape[1]
    mismatches = (expected[:, None, :] != extracted[None, :, :]).sum(axis=2)
    return SimilarityMatrix(m - mismatches, m)


def _assignment_value(counts: np.ndarray) -> int:
    if min(counts.shape) == 0:
        return 0
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return int(counts[rows, cols].sum())


def hungarian_match(sim: SimilarityMatrix) -> Assignment:
    """Maximum-similarity one-to-one alignment of size min(T, T_r).

    Among all maximizing assignments the lexicographically smallest pair
    sequence is returned, found by growing the pair list in expected-index
    order and committing, per row, to the smallest extracted position that
    still permits an optimal completion (checked by re-solving the reduced
    assignment on exact integer counts).
    """
    counts = sim.matched_bits
    num_rows, num_cols = counts.shape
    total_pairs = min(num_rows, num_cols)
    best = _assignment_value(counts)
    pairs: list[tuple[int, int]] = []
    cols = list(range(num_cols))
    achieved = 0
    for row in range(num_rows):
        if len(pairs) == total_pairs:
            break
        target = best - achieved
        rows_left = num_rows - row
        needed = total_pairs - len(pairs)
        rest = counts[np.ix_(range(row + 1, num_rows), cols)]
        # Upper bound for any completion that also uses this row.
        bound = _assignment_value(rest)
        chosen = None
        for position, col in enumerate(cols):
            if counts[row, col] + bound < target:
                continue
            remainder = counts[np.ix_(range(row + 1, num_rows), cols[:position] + cols[position + 1 :])]
            if counts[row, col] + _assignment_value(remainder) == target:
                chosen = (position, col)
                break
        if chosen is None:
            # Row stays unmatched; only possible when rows outnumber columns.
            if rows_left <= needed:
                raise RuntimeError("assignment refinement failed to complete")
            continue
        position, col = chosen
        pairs.append((row + 1, col + 1))
        achieved += int(counts[row, col])
        del cols[position]
    if len(pairs) != total_pairs or achieved != best:
        raise RuntimeError("assignment refinement lost optimality")
    return Assignment(pairs=tuple(pairs), total_matched=best)
