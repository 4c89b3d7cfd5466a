"""Test-only oracle: the model's rounded parameters and exactness ranges,
built one layer at a time.

`spdmark.spd_core` rounds each parameter stack in one call and holds the
dictionary's rounded factors as two stacks and each model's exactness
ranges as one (low, high) table, and `init_toy_decoder` draws and
orthogonalises the decoder's weights as one stack.  This module builds the
same things as the generator first did: each layer's factors rounded on
their own, each layer's range as a pair of Python ints taken over its bases,
and the decoder's weights drawn and orthogonalised in a loop.  The
differential tests in tests/test_spd_core.py require both to agree byte for
byte.  The rounding itself is the program's `_round_to_grid`, which other
tests check against an oracle of its own.  Nothing under `src/` imports
this module.
"""

import numpy as np

from spdmark.spd_core import (
    _OFFSET_SCALE,
    _PARAM_BITS,
    _PROJECTION_SCALE,
    _STATE_BITS,
    _round_to_grid,
)


def _images(stack: np.ndarray, what: str):
    """Each matrix of `stack` rounded, and those exponents as a list."""
    images, exponents = _round_to_grid(stack, _PARAM_BITS, (-2, -1), what)
    return images, exponents.ravel().tolist()


def _state_range(exponents, bits: int, terms: int) -> tuple[int, int]:
    """The state exponents at which a product is exact and finite for every
    parameter exponent sum in `exponents`."""
    return (
        bits + _STATE_BITS - 1074 - min(exponents),
        1023 - (terms - 1).bit_length() - max(exponents),
    )


def _intersect(*ranges) -> tuple[int, int]:
    lows, highs = zip(*ranges)
    return max(lows), min(highs)


def dictionary_layers(factor_a: np.ndarray, factor_b: np.ndarray):
    """Per layer of the (L, P, d, r) and (L, P, r, d) stacks, the rounded
    (P, d, r) A and (P, r, d) B factors, and the (low, high) state
    exponents at which the layer's shifts are exact."""
    d, r = factor_a.shape[2:]
    images, ranges = [], []
    for layer_a, layer_b in zip(factor_a, factor_b):
        image_a, a_exponents = _images(layer_a, "basis factors")
        image_b, b_exponents = _images(layer_b, "basis factors")
        images.append((image_a, image_b))
        ranges.append(_intersect(
            _state_range(b_exponents, _PARAM_BITS, d),
            _state_range(
                [e_a + e_b for e_a, e_b in zip(a_exponents, b_exponents)],
                2 * _PARAM_BITS, d * r,
            ),
        ))
    return images, ranges


def decoder_layers(weights: np.ndarray, projection: np.ndarray):
    """The rounded weights, each on its own, the rounded projection, and
    the (low, high) state exponents at which each layer's product, then the
    projection's, is exact."""
    images, ranges = [], []
    for matrix in [*weights, projection]:
        image, exponents = _images(matrix, "decoder parameters")
        images.append(image)
        ranges.append(_state_range(exponents, _PARAM_BITS, weights.shape[1]))
    return images[:-1], images[-1], ranges


def toy_decoder_draws(layer_dim: int, height: int, width: int, num_layers: int, seed: int):
    """The weights, offsets and projection of `init_toy_decoder`, each
    weight drawn and orthogonalised on its own."""
    rng = np.random.default_rng(seed)
    weights = np.empty((num_layers, layer_dim, layer_dim))
    for layer in range(num_layers):
        gauss = rng.normal(0.0, 1.0, (layer_dim, layer_dim))
        q, r = np.linalg.qr(gauss)
        weights[layer] = q * np.sign(np.diag(r))
    offsets = rng.normal(0.0, _OFFSET_SCALE, (num_layers, layer_dim))
    projection = rng.normal(
        0.0, _PROJECTION_SCALE / np.sqrt(layer_dim), (3 * height * width, layer_dim)
    )
    return weights, offsets, projection
