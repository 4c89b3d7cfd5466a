"""Test-only oracle: frame-by-frame toy generation.

This is the original `generate_video`, which builds a selection mask and
composed per-layer shifts for every frame and runs that frame alone through
the displaced decoder, one matrix-vector product at a time.  The batched
generator in `spdmark.spd_core` must reproduce its output byte for byte, so
the differential tests compare the two.  The per-frame displacement path
(`LayerShift`, `compose_displacement`, `displaced_layer_forward`) lives here
because nothing under `src/` runs it any more.  Latents come from the
scalar oracle in tests/reference_latent.py.  Nothing under `src/` imports
this module.

Generation reads every parameter matrix and every hidden state rounded to a
grid below the exponent of its largest entry, which makes its products
exact; `round_to_grid` is this module's own version of that rounding.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from reference_latent import latent
from spdmark.keyspace import MessageSequence, SelectionMask, WatermarkKey, key_to_mask
from spdmark.spd_core import (
    DEFAULT_LATENT_SCALE,
    BasisDictionary,
    ToyDecoder,
    _matmul,
)


# Bits kept below the exponent of the largest entry: of each parameter
# matrix (a layer's weight, a shift's A or B, the projection), and of each
# frame's hidden state at the input of every layer and of the projection.
PARAM_BITS = 13
STATE_BITS = 15


def round_to_grid(values, bits: int) -> np.ndarray:
    """`values` rounded, ties to even, to multiples of 2**(e - bits), e the
    np.frexp exponent of its largest magnitude (0 for all zeros)."""
    values = np.asarray(values, dtype=np.float64)
    peak = np.abs(values).max(initial=0.0)
    exponent = np.frexp(peak)[1]
    return np.ldexp(np.rint(np.ldexp(values, bits - exponent)), exponent - bits)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LayerShift:
    """A composed per-layer shift, also factored; its inner width is the sum
    of the selected ranks and may be zero (empty selection) or exceed d."""

    factor_a: np.ndarray
    factor_b: np.ndarray

    def __post_init__(self) -> None:
        a = _frozen(self.factor_a)
        b = _frozen(self.factor_b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError("composed factors must pair up")
        if a.shape[0] != b.shape[1]:
            raise ValueError("composed shift must be square in the layer dimension")
        object.__setattr__(self, "factor_a", a)
        object.__setattr__(self, "factor_b", b)


def compose_displacement(
    dictionary: BasisDictionary, mask: "SelectionMask | np.ndarray"
) -> list[LayerShift]:
    """Combine the mask-selected basis shifts into one factored shift per layer.

    Row ell yields sum_p b[ell, p] * zeta[ell, p], kept factored by
    concatenating selected factors along the rank axis; an empty row yields
    zero-width factors (an exact zero shift).  Key-derived masks are one-hot,
    but the composition itself accepts any binary matrix, so zero- and
    multi-hot selections (the pre-key general form) also work.
    """
    matrix = mask.mask if isinstance(mask, SelectionMask) else np.asarray(mask)
    if matrix.ndim != 2 or not np.isin(matrix, (0, 1)).all():
        raise ValueError("mask must be a binary matrix")
    if matrix.shape != (dictionary.num_layers, dictionary.bases_per_layer):
        raise ValueError("mask dimensions do not match dictionary")
    d = dictionary.layer_dim
    layers = []
    for row, factor_a, factor_b in zip(matrix, dictionary.factor_a, dictionary.factor_b):
        selected = [LayerShift(factor_a[p], factor_b[p]) for p in np.flatnonzero(row)]
        if not selected:
            layers.append(LayerShift(np.zeros((d, 0)), np.zeros((0, d))))
        elif len(selected) == 1:
            layers.append(LayerShift(selected[0].factor_a, selected[0].factor_b))
        else:
            layers.append(
                LayerShift(
                    np.hstack([s.factor_a for s in selected]),
                    np.vstack([s.factor_b for s in selected]),
                )
            )
    return layers


def displaced_layer_forward(
    weight: np.ndarray,
    offset: np.ndarray,
    shift: LayerShift,
    alpha: float,
    h: np.ndarray,
) -> np.ndarray:
    """One displaced layer: (W h + c) + alpha * A (B h), factored throughout."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] != weight.shape[1]:
        raise ValueError("hidden state dimension mismatch")
    if not np.isfinite(h).all():
        raise ValueError("hidden state must be finite")
    base = _matmul(weight, h) + offset
    if alpha == 0.0 or shift.factor_a.shape[1] == 0:
        return base
    return base + alpha * _matmul(shift.factor_a, _matmul(shift.factor_b, h))


def generate_video(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    schedule: MessageSequence,
    latent_seed: int,
    condition: np.ndarray,
    latent_scale: float = DEFAULT_LATENT_SCALE,
) -> np.ndarray:
    """Run each frame's seeded latent plus the shared condition through the
    displaced decoder; frame t uses the selection mask of its own message.
    Returns the (T, 3, H, W) video.
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
    weights = [round_to_grid(weight, PARAM_BITS) for weight in decoder.weights]
    projection = round_to_grid(decoder.projection, PARAM_BITS)
    rounded = dataclasses.replace(
        dictionary,
        factor_a=[[round_to_grid(a, PARAM_BITS) for a in row] for row in dictionary.factor_a],
        factor_b=[[round_to_grid(b, PARAM_BITS) for b in row] for row in dictionary.factor_b],
    )
    frames = []
    for msg in schedule:
        mask = key_to_mask(WatermarkKey(msg.bits), cfg)
        shifts = compose_displacement(rounded, mask)
        h = (
            np.array(latent(latent_seed, msg.frame_index, decoder.layer_dim, latent_scale))
            + condition
        )
        for layer in range(decoder.num_layers):
            h = displaced_layer_forward(
                weights[layer],
                decoder.offsets[layer],
                shifts[layer],
                dictionary.alpha,
                round_to_grid(h, STATE_BITS),
            )
        raster = _matmul(projection, round_to_grid(h, STATE_BITS)) + decoder.projection_offset
        frames.append(np.clip(raster, 0.0, 1.0).reshape(decoder.frame_shape))
    return np.stack(frames)
