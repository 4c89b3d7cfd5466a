"""Test-only oracles: the broadcast similarity count, the re-solving
lexicographic assignment and the row-order dual potentials.

`_similarity` is the original matched-bit count, one elementwise compare of
every message pair; `spdmark.verifier` computes it as one +-1 product.
`hungarian_match` is the original assignment, which finds the
lexicographically smallest maximum-similarity assignment by re-solving a
reduced assignment for every candidate column of every row.
`tight_edges` is the original dual pass: int64 potentials u from
Bellman-Ford over the rows, v from the assigned edges, and the edges where
u_i + v_j == w[i, j]; `spdmark.verifier` runs the same pass in column order
on 16-bit weights.  All are slow but obviously correct, so the differential
tests compare the implementations in `spdmark.verifier` against them.
Nothing under `src/` imports this module.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from spdmark.verifier import Assignment, SimilarityMatrix


def _similarity(expected: np.ndarray, extracted: np.ndarray) -> SimilarityMatrix:
    """Matched-bit counts of (T, M) and (T_r, M) bit arrays."""
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


def tight_edges(weights: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """The (n, n) boolean matrix of edges tight under the row potentials of
    the optimal assignment that gives row i column assigned[i] of the
    square int64 `weights`."""
    n = len(assigned)
    held = weights[np.arange(n), assigned]
    u = _row_potentials(weights, assigned)
    v = np.empty(n, dtype=np.int64)
    v[assigned] = held - u
    return u[:, None] + v[None, :] == weights


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
