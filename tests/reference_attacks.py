"""Test-only oracle: the photometric attacks one frame at a time.

These are the loops `attack_pixel_noise` and `attack_rescale` ran when a
video was a list of frame objects: one noise draw and one pair of bilinear
resamplings per (3, H, W) frame.  The attacks on (T, 3, H, W) arrays in
`spdmark.channel_attacks` must give the same bytes.  Nothing under `src/`
imports this module.
"""

import numpy as np

from spdmark.channel_attacks import _interp_matrix, rounded_count


def attack_pixel_noise(frames, sigma: float, seed: int) -> list:
    if sigma == 0.0:
        return list(frames)
    rng = np.random.default_rng(seed)
    return [
        np.clip(frame + rng.normal(0.0, sigma, frame.shape), 0.0, 1.0)
        for frame in frames
    ]


def attack_rescale(frames, factor: float) -> list:
    _, height, width = frames[0].shape
    mid_h = max(1, rounded_count(height, factor))
    mid_w = max(1, rounded_count(width, factor))
    down_h = _interp_matrix(height, mid_h)
    down_w = _interp_matrix(width, mid_w)
    up_h = _interp_matrix(mid_h, height)
    up_w = _interp_matrix(mid_w, width)
    out = []
    for frame in frames:
        small = np.einsum("hy,cyx,wx->chw", down_h, frame, down_w)
        restored = np.einsum("yh,chw,xw->cyx", up_h, small, up_w)
        out.append(np.clip(restored, 0.0, 1.0))
    return out
