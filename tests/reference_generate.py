"""Test-only oracle: frame-by-frame toy generation.

This is the original `generate_video`, which builds a selection mask and
composed per-layer shifts for every frame and runs that frame alone through
the displaced decoder, one matrix-vector product at a time.  The batched
generator in `spdmark.spd_core` must reproduce its output byte for byte, so
the differential tests compare the two.  Nothing under `src/` imports this
module.
"""

from typing import Sequence

import numpy as np

from spdmark.keyspace import FrameMessage, WatermarkKey, key_to_mask
from spdmark.spd_core import (
    DEFAULT_LATENT_SCALE,
    BasisDictionary,
    ToyDecoder,
    ToyFrame,
    _matmul,
    compose_displacement,
    displaced_layer_forward,
)


def _frame_latent(latent_seed: int, frame_index: int, dim: int, scale: float):
    rng = np.random.default_rng([latent_seed, frame_index])
    return rng.normal(0.0, scale, dim)


def generate_video(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    schedule: Sequence[FrameMessage],
    latent_seed: int,
    condition: np.ndarray,
    latent_scale: float = DEFAULT_LATENT_SCALE,
) -> list[ToyFrame]:
    """Run each frame's seeded latent plus the shared condition through the
    displaced decoder; frame t uses the selection mask of its own message.

    The per-frame latent depends only on (latent_seed, t), so the output is
    per-frame deterministic and frames may be produced in any order.
    """
    if not schedule:
        raise ValueError("schedule must be non-empty")
    if decoder.num_layers != dictionary.num_layers:
        raise ValueError("decoder and dictionary disagree on layer count")
    if decoder.layer_dim != dictionary.layer_dim:
        raise ValueError("decoder and dictionary disagree on layer dimension")
    condition = np.asarray(condition, dtype=np.float64)
    if condition.shape != (decoder.layer_dim,):
        raise ValueError("condition must be a layer_dim vector")
    cfg = dictionary.key_config()
    channels, height, width = decoder.frame_shape
    frames = []
    for msg in schedule:
        mask = key_to_mask(WatermarkKey(msg.bits), cfg)
        shifts = compose_displacement(dictionary, mask)
        h = (
            _frame_latent(latent_seed, msg.frame_index, decoder.layer_dim, latent_scale)
            + condition
        )
        for layer in range(decoder.num_layers):
            h = displaced_layer_forward(
                decoder.weights[layer],
                decoder.offsets[layer],
                shifts[layer],
                dictionary.alpha,
                h,
            )
        raster = _matmul(decoder.projection, h) + decoder.projection_offset
        pixels = np.clip(raster, 0.0, 1.0).reshape(channels, height, width)
        frames.append(ToyFrame(pixels, msg.frame_index))
    return frames
