"""Test-only oracle: the per-frame losses.

These are the original `objective.bce_logits` and
`objective.mean_squared_error`, which score one frame.  `recovery_loss` and
`loss_report` score whole videos, and the tests check them bit for bit
against the frame-by-frame loop over these.  Nothing under `src/` imports
this module.
"""

import numpy as np


def _message_bits(message) -> np.ndarray:
    bits = np.asarray(message, dtype=np.float64)
    if bits.ndim != 1 or not np.isin(bits, (0.0, 1.0)).all():
        raise ValueError("target must be a flat sequence of 0/1 bits")
    return bits


def bce_logits(logits: np.ndarray, target) -> float:
    """Mean binary cross entropy with logits over the bits of one frame, in
    the stable form max(s, 0) - s*b + log(1 + exp(-|s|))."""
    values = np.asarray(logits, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("logits must be a 1-D vector")
    if not np.isfinite(values).all():
        raise ValueError("logits must be finite")
    bits = _message_bits(target)
    if bits.shape != values.shape:
        raise ValueError("logit and target lengths differ")
    losses = np.maximum(values, 0.0) - values * bits + np.log1p(np.exp(-np.abs(values)))
    return float(losses.mean())


def mean_squared_error(a: np.ndarray, b: np.ndarray) -> float:
    """The perceptual-distance proxy between two frames."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("frame shapes differ")
    return float(np.mean((a - b) ** 2))
