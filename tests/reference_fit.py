"""Test-only oracle: the ridge fit as it was solved in scipy.

`fit_extractor` now solves its normal equations with numpy's LAPACK.  This
is the earlier solve, a Cholesky solve in scipy's LAPACK on the same Gram
matrix, kept so that tests can compare the two fits.  Nothing under `src/`
imports this module.
"""

import numpy as np
import scipy.linalg

from spdmark.objective import DEFAULT_RIDGE_LAMBDA, LinearExtractor


def normal_equations(videos, schedule, ridge_lambda: float = DEFAULT_RIDGE_LAMBDA):
    """The Gram matrix G and right-hand side B of the ridge fit on an
    (N, T, 3, H, W) video stack and its N*T messages, with G W = B for the
    (features + 1, M) solution W whose last row is the bias."""
    bits = np.asarray(schedule, dtype=np.float64)
    frames = np.asarray(videos).reshape(len(bits), -1)
    features = frames.shape[1]
    design = np.hstack([frames, np.ones((len(frames), 1))])
    gram = design.T @ design
    gram[np.arange(features), np.arange(features)] += ridge_lambda
    return gram, design.T @ (2.0 * bits - 1.0)


def fit_extractor(
    videos, schedule, ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
) -> LinearExtractor:
    gram, rhs = normal_equations(videos, schedule, ridge_lambda)
    solution = scipy.linalg.solve(gram, rhs, assume_a="pos")
    features = gram.shape[0] - 1
    return LinearExtractor(
        weight=solution[:features].T, bias=solution[features], ridge_lambda=ridge_lambda
    )


def solution(extractor: LinearExtractor) -> np.ndarray:
    """The extractor's parameters as the (features + 1, M) solution W."""
    return np.vstack([extractor.weight.T, extractor.bias])
