"""Basis-shift dictionary, key-conditioned displacement, and the toy generator.

A basis shift is a low-rank parameter delta stored in factored form (A, B)
with A of shape d x r and B of shape r x d.  The dictionary holds its L x P
shifts as two stacks, A as one (L, P, d, r) array and B as one (L, P, r, d)
array, as the decoder holds its L weights as one (L, d, d) array.  The
realized delta A @ B is never formed: the displaced forward pass evaluates
A @ (B @ h) as two rank-r products.  Each frame's message picks one shift
per decoder layer, which generation scales by the strength alpha it is
given, and the toy generator runs a latent through L displaced affine layers
followed by a pixel projection.  Generation broadcasts over alpha: a
sequence of strengths gives one video per strength from one draw of the
latents and one forward pass, so a watermarked video and its clean
counterpart (strength 0) are made together.

Every product on that path is exact, in the manner of integer-arithmetic
inference (Jacob et al., CVPR 2018) and of reproducible summation (Demmel
and Nguyen, IEEE TC 2015).  Generation reads each parameter matrix (a
layer's weight, a shift's A and B, the projection) rounded to 13 bits
below the exponent of its largest entry, and each frame's hidden state
rounded to 15 bits below the exponent of that frame's largest entry, at the
input of every layer and of the projection.  A product's terms are then
integer multiples of one power of two and its partial sums stay within 2**53
of them, so every sum is exact in any order.  All frames of a call run
together, one matrix-matrix product per layer and basis, and each frame's
pixels are the same bytes whatever the batch, the summation order, the BLAS
kernel or its thread count.

A video is one read-only (T, 3, H, W) float64 array of finite pixels,
checked once when it is made; row t - 1 is frame t.

Dictionary and decoder are immutable after construction (their arrays are
marked read-only), and generation is a pure function of its seeds, so
concurrent use over disjoint frames matches sequential output exactly.
"""

import contextlib
import contextvars
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .counter import LATENT_TAG, counter_array, normals, stream_words
from .keyspace import KeyConfig, MessageSequence, _basis_indices

__all__ = [
    "BasisDictionary",
    "ToyDecoder",
    "generate_frames",
    "generate_video",
    "init_dictionary",
    "init_toy_decoder",
    "random_condition",
    "record_products",
    "write_video",
    "read_video",
    "DEFAULT_LAYER_DIM",
    "DEFAULT_FRAME_SIDE",
    "DEFAULT_NUM_LAYERS",
    "DEFAULT_RANK",
    "DEFAULT_ALPHA",
    "DEFAULT_INIT_SCALE",
    "DEFAULT_LATENT_SCALE",
    "MAX_SHIFT_TERMS",
]

DEFAULT_LAYER_DIM = 64
DEFAULT_FRAME_SIDE = 8
DEFAULT_NUM_LAYERS = 14
DEFAULT_RANK = 32
DEFAULT_ALPHA = 1.0
DEFAULT_INIT_SCALE = 0.3
DEFAULT_LATENT_SCALE = 0.05

# Scales for the fixed (non-displaced) decoder parameters.
_OFFSET_SCALE = 0.05
_PROJECTION_SCALE = 0.15
_PROJECTION_OFFSET = 0.5

# Exact products.  Generation reads a parameter matrix rounded to
# _PARAM_BITS bits below the exponent e_p of its largest entry, and a
# frame's state rounded to _STATE_BITS bits below the exponent e_x of its
# largest entry (np.frexp exponents, so every |entry| <= 2**e).  A product's
# terms are then integer multiples of 2**(e_p - _PARAM_BITS + e_x -
# _STATE_BITS), each at most 2**(_PARAM_BITS + _STATE_BITS) of them, so a
# sum of d <= 2**25 terms (any d x d weight that fits in memory) is exact in
# any order.  A (B h), with B h not rounded, sums d * r terms of up to
# d * 2**(2 * _PARAM_BITS + _STATE_BITS) multiples each, which bounds d * r
# by MAX_SHIFT_TERMS.
_PARAM_BITS = 13
_STATE_BITS = 15
MAX_SHIFT_TERMS = 1 << (53 - 2 * _PARAM_BITS - _STATE_BITS)

_LATENT_BLOCK = 256

_VIDEO_MAGIC = b"SPDF"
_VIDEO_VERSION = 2
_READ_CHUNK_BYTES = 1 << 20

_product_log: contextvars.ContextVar = contextvars.ContextVar(
    "spdmark_product_log", default=None
)


@contextlib.contextmanager
def record_products() -> Iterator[list]:
    """Collect (lhs_shape, rhs_shape) for every product on the displacement
    path, so tests can assert structurally that A @ B is never materialized."""
    log: list = []
    token = _product_log.set(log)
    try:
        yield log
    finally:
        _product_log.reset(token)


def _matmul(a: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
    """a times each row of `rows`, a vector or a stack of rows (..., k), into
    `out` if given; logged when record_products is active as one
    (a.shape, (k,)) record per row.  The stack runs as one matrix-matrix
    product; the decoder's products are exact, so that gives the bytes of
    one matrix-vector product per row."""
    log = _product_log.get()
    if log is not None:
        log.extend([(a.shape, rows.shape[-1:])] * math.prod(rows.shape[:-1]))
    return np.matmul(rows, a.T, out=out)


def _round_to_grid(values: np.ndarray, bits: int, axis, what: str, out=None):
    """`values` rounded, ties to even, to multiples of 2**(e - bits), where
    e is the exponent of the largest magnitude over `axis` as np.frexp gives
    it: 2**(e - 1) <= peak < 2**e, and e = 0 for a zero peak.  Returns the
    rounded array, written to `out` if given (which must not be `values`),
    and e, with the reduced axes kept.

    Raises ValueError when a peak is not finite, which is exactly when its
    values are not, or when a grid 2**(e - bits) is not a normal float.
    """
    # Non-negative floats order as their bits do, NaN above infinity, and
    # numpy reduces int64 faster than float64.
    magnitude = np.abs(values, out=out).view(np.int64)
    peak = np.max(magnitude, axis=axis, keepdims=True, initial=0).view(np.float64)
    if not np.isfinite(peak).all():
        raise ValueError(f"{what} must be finite")
    exponent = np.frexp(peak)[1]
    if exponent.min() < bits - 1022:
        raise ValueError(f"{what} is too small to round on a normal grid")
    rounded = np.multiply(values, np.ldexp(1.0, bits - exponent), out=out)
    np.rint(rounded, out=rounded)
    rounded *= np.ldexp(1.0, exponent - bits)
    return rounded, exponent


def _images(stack: np.ndarray, what: str):
    """Each matrix of the (..., rows, cols) `stack` rounded to _PARAM_BITS
    bits below the exponent of its largest entry, read-only, and the (...)
    array of those exponents."""
    images, exponents = _round_to_grid(stack, _PARAM_BITS, (-2, -1), what)
    images.setflags(write=False)
    return images, exponents[..., 0, 0]


def _state_range(exponents: np.ndarray, bits: int, terms: int) -> np.ndarray:
    """Row by row, the (low, high) state exponents e (as _round_to_grid gives
    them) at which a product is exact and finite, for any of the parameter
    exponent sums in that row of `exponents`, parameters rounded to `bits`
    bits in all, and `terms` terms in each sum: the terms' grid 2**(p - bits
    + e - _STATE_BITS) must not underflow 2**-1074, and the bound terms *
    2**(p + e) on every partial sum must stay below 2**1024."""
    return np.stack([
        bits + _STATE_BITS - 1074 - exponents.min(axis=1),
        1023 - (terms - 1).bit_length() - exponents.max(axis=1),
    ], axis=1)


def _intersect(ranges: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Row by row, the intersection of two tables of (low, high) ranges."""
    return np.column_stack([np.maximum(ranges[:, 0], others[:, 0]),
                            np.minimum(ranges[:, 1], others[:, 1])])


def _frozen(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class BasisDictionary:
    """L x P grid of low-rank basis shifts in factored form, stacked as
    factor_a (L, P, d, r) and factor_b (L, P, r, d), so that shift p of
    layer ell is factor_a[ell, p] @ factor_b[ell, p].  The factors are
    read-only float64 copies of the arrays given."""

    factor_a: np.ndarray
    factor_b: np.ndarray
    # factor_a and factor_b rounded for exact products, and the (L, 2) table
    # of each layer's (low, high) state exponents at which its shifts are exact.
    _factor_images: tuple = field(init=False, repr=False)
    _state_ranges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = _frozen(self.factor_a)
        b = _frozen(self.factor_b)
        if a.ndim != 4 or min(a.shape[:3]) < 1:
            raise ValueError("factor_a must be an L x P x d x r stack with L, P, d >= 1")
        num_layers, bases, d, r = a.shape
        if b.shape != (num_layers, bases, r, d):
            raise ValueError(f"factor shapes {a.shape} and {b.shape} do not pair up")
        if r > d:
            raise ValueError("rank must not exceed the layer dimension")
        if d * r > MAX_SHIFT_TERMS:
            raise ValueError(
                f"layer_dim * rank must be <= {MAX_SHIFT_TERMS} for exact "
                f"displacement products, not {d * r}"
            )
        object.__setattr__(self, "factor_a", a)
        object.__setattr__(self, "factor_b", b)
        images_a, a_exponents = _images(a, "basis factors")
        images_b, b_exponents = _images(b, "basis factors")
        object.__setattr__(self, "_factor_images", (images_a, images_b))
        object.__setattr__(self, "_state_ranges", _frozen(_intersect(
            _state_range(b_exponents, _PARAM_BITS, d),
            _state_range(a_exponents + b_exponents, 2 * _PARAM_BITS, d * r),
        ), int))

    @property
    def num_layers(self) -> int:
        return self.factor_a.shape[0]

    @property
    def bases_per_layer(self) -> int:
        return self.factor_a.shape[1]

    @property
    def layer_dim(self) -> int:
        return self.factor_a.shape[2]

    @property
    def rank(self) -> int:
        return self.factor_a.shape[3]

    def key_config(self) -> KeyConfig:
        return KeyConfig(self.num_layers, self.bases_per_layer)


@dataclass(frozen=True, eq=False)
class ToyDecoder:
    """L affine layers (weight d x d, offset d) and a pixel projection."""

    weights: np.ndarray
    offsets: np.ndarray
    projection: np.ndarray
    projection_offset: np.ndarray
    frame_shape: tuple[int, int, int]
    # Each layer's weight and the projection rounded for exact products, and
    # the (L + 1, 2) table of the (low, high) state exponents at which each
    # layer's product, then the projection's, is exact.
    _weight_images: np.ndarray = field(init=False, repr=False)
    _projection_image: np.ndarray = field(init=False, repr=False)
    _state_ranges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = _frozen(self.weights)
        c = _frozen(self.offsets)
        proj = _frozen(self.projection)
        proj_off = _frozen(self.projection_offset)
        if w.ndim != 3 or w.shape[1] != w.shape[2]:
            raise ValueError("weights must be L x d x d")
        if c.shape != w.shape[:2]:
            raise ValueError("offsets must be L x d")
        channels, height, width = self.frame_shape
        if channels != 3:
            raise ValueError("frames are 3-channel")
        if proj.shape != (channels * height * width, w.shape[1]):
            raise ValueError("projection shape does not match frame shape")
        if proj_off.shape != (proj.shape[0],):
            raise ValueError("projection offset length mismatch")
        if not (np.isfinite(c).all() and np.isfinite(proj_off).all()):
            raise ValueError("decoder parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", c)
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "projection_offset", proj_off)
        weight_images, exponents = _images(w, "decoder parameters")
        projection_image, projection_exponent = _images(proj, "decoder parameters")
        object.__setattr__(self, "_weight_images", weight_images)
        object.__setattr__(self, "_projection_image", projection_image)
        object.__setattr__(self, "_state_ranges", _frozen(_state_range(
            np.append(exponents, projection_exponent)[:, None], _PARAM_BITS, w.shape[1]
        ), int))

    @property
    def num_layers(self) -> int:
        return self.weights.shape[0]

    @property
    def layer_dim(self) -> int:
        return self.weights.shape[1]


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")


def _video(pixels) -> np.ndarray:
    """`pixels` as a video: a read-only C-contiguous (T, 3, H, W) float64
    array with T, H, W >= 1 and every pixel finite.  A C-contiguous float64
    array whose memory no array can write (a video already made, or rows of
    one) is taken as it is; anything else is copied, so that the caller's
    array cannot change the video."""
    owner = pixels if getattr(pixels, "base", None) is None else pixels.base
    if not (
        isinstance(owner, np.ndarray)
        and not owner.flags.writeable
        and pixels.dtype == np.float64
        and pixels.flags.c_contiguous
    ):
        pixels = np.array(pixels, dtype=np.float64, order="C")
    if pixels.ndim != 4 or pixels.shape[1] != 3 or pixels.size == 0:
        raise ValueError("a video must be a non-empty (T, 3, H, W) array")
    _check_finite(pixels, "pixel values")
    pixels.setflags(write=False)
    return pixels


def _frame_latents(frame_seeds: Sequence[tuple[int, int]], dim: int, scale: float):
    """The (n, dim) latents of n frames: entry j of row i is scale times
    the normal of word j of the latent stream of frame_seeds[i] =
    (latent_seed, frame_index), so a frame's latent depends on its own
    seeds alone."""
    counters = counter_array(
        itertools.chain.from_iterable(frame_seeds), "latent seeds and frame indices"
    ).reshape(len(frame_seeds), 2)
    latents = np.empty((len(counters), dim))
    # The normal transform holds about ten temporaries of its input's size,
    # so a corpus is drawn in blocks of rows.
    for start in range(0, len(counters), _LATENT_BLOCK):
        block = slice(start, start + _LATENT_BLOCK)
        latents[block] = normals(stream_words(LATENT_TAG, counters[block], dim))
    latents *= scale
    return latents


def _round_states(h: np.ndarray, spans, out: np.ndarray) -> None:
    """Write the (n, d) hidden states h, rounded frame by frame, to `out`.
    `spans` lists (stop, (low, high)) in row order: the exponents of the
    rows from the previous stop up to `stop` must lie in (low, high), where
    the products that read them are exact and finite (see _state_range)."""
    exponent = _round_to_grid(h, _STATE_BITS, 1, "hidden state", out)[1]
    start = 0
    for stop, (low, high) in spans:
        rows = exponent[start:stop]
        if rows.min() < low or rows.max() > high:
            raise ValueError(
                "hidden state lies outside the range where its products are exact and finite"
            )
        start = stop


def _sorting(indices: np.ndarray, copies: int, num_bases: int):
    """The row bookkeeping of `copies` displaced copies of n frames, copy g
    in rows g*n to (g+1)*n, frame j of each selecting basis indices[j, ell]
    at layer ell.  Before each layer the rows are sorted by copy and then
    by basis, so that each copy reads one span and each of its bases one
    block of rows.

    Returns the (L + 1, copies*n) moves, row i after move ell being row
    moves[ell, i] before it, the last move restoring the copies' order,
    and each layer's list of (basis, start, stop) non-empty blocks."""
    n, num_layers = indices.shape
    keys = np.tile(indices, (copies, 1))
    keys += np.repeat(np.arange(copies) * num_bases, n)[:, None]
    order = np.argsort(keys, axis=0, kind="stable")
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(len(keys))[:, None], axis=0)
    moves = np.empty((num_layers + 1, len(keys)), dtype=np.intp)
    moves[0] = order[:, 0]
    moves[1:-1] = np.take_along_axis(position[:, :-1], order[:, 1:], axis=0).T
    moves[-1] = position[:, -1]
    width = copies * num_bases
    counts = np.bincount((keys + np.arange(num_layers) * width).ravel(),
                         minlength=num_layers * width)
    stops = np.cumsum(counts.reshape(num_layers, width), axis=1).tolist()
    blocks = [
        [(key % num_bases, start, stop)
         for key, (start, stop) in enumerate(zip([0, *row[:-1]], row)) if start < stop]
        for row in stops
    ]
    return moves, blocks


def _forward(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    indices: np.ndarray,
    latents: np.ndarray,
    alpha,
) -> np.ndarray:
    """Pixel rows (k*n, 3*H*W) for n latents at each of k strengths, in an
    array of their own: rows i*n to (i+1)*n at strength i of `alpha`, a
    scalar (k = 1) or a sequence.  Frame j at strength s is displaced at
    layer ell by s times basis indices[j, ell]; a strength of 0 takes no
    displacement.  `latents` may be used as scratch space.

    Hidden states are (k*n, d) rows, rounded frame by frame, the displaced
    rows first.  Each product runs over all rows, or over the rows of one
    strength and basis, as one matrix-matrix product.  The products are
    exact, so every row is bit-identical to the frame-by-frame forward,
    whatever the other frames in the batch.
    """
    strengths = np.atleast_1d(alpha).tolist()
    n = len(latents)
    shifted = [i for i, s in enumerate(strengths) if s != 0.0 and dictionary.rank > 0]
    plain = [i for i in range(len(strengths)) if i not in shifted]
    split, rows = len(shifted) * n, len(strengths) * n
    # Displaced rows are checked where both their products are exact, the
    # others where the decoder's are.
    decoder_ranges = decoder._state_ranges[:-1]
    parts = [(0, split, _intersect(decoder_ranges, dictionary._state_ranges).tolist()),
             (split, rows, decoder_ranges.tolist())]
    spans = [[(stop, ranges[layer]) for start, stop, ranges in parts if start < stop]
             for layer in range(decoder.num_layers)]
    # Two buffers take turns holding the rounded states and the layer output.
    h = out = latents if len(strengths) == 1 else np.tile(latents, (len(strengths), 1))
    state = np.empty_like(h)
    if split:
        moves, blocks = _sorting(indices, len(shifted), dictionary.bases_per_layer)
        moves = np.hstack([moves, np.tile(np.arange(split, rows), (len(moves), 1))])
        # The last move also puts the strengths back in the order given.
        slots = np.argsort(shifted + plain)
        moves[-1] = moves[-1][(slots[:, None] * n + np.arange(n)).ravel()]
        factor_a, factor_b = dictionary._factor_images
        low_rank = np.empty((split, dictionary.rank))
        displacement = np.empty((split, decoder.layer_dim))
        copies = [(strengths[i], copy * n, (copy + 1) * n) for copy, i in enumerate(shifted)]
    for layer in range(decoder.num_layers):
        _round_states(h, spans[layer], state)
        if split:
            # mode="clip" lets take write to `out` without a buffer.
            np.take(state, moves[layer], axis=0, out=out, mode="clip")
            state, out = out, state
        _matmul(decoder._weight_images[layer], state, out)
        out += decoder.offsets[layer]
        if split:
            for basis, start, stop in blocks[layer]:
                _matmul(factor_b[layer, basis], state[start:stop], low_rank[start:stop])
                _matmul(factor_a[layer, basis], low_rank[start:stop], displacement[start:stop])
            for strength, start, stop in copies:
                displacement[start:stop] *= strength
            out[:split] += displacement
        h = out
    _round_states(h, [(rows, decoder._state_ranges[-1])], state)
    if split:
        np.take(state, moves[-1], axis=0, out=out, mode="clip")
        state = out
    raster = np.empty((rows, len(decoder.projection_offset)))
    _matmul(decoder._projection_image, state, raster)
    raster += decoder.projection_offset
    _check_finite(raster, "pixel values")
    return np.clip(raster, 0.0, 1.0, out=raster)


def generate_frames(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    messages: "MessageSequence | np.ndarray",
    frame_seeds: Sequence[tuple[int, int]],
    condition: np.ndarray,
    latent_scale: float = DEFAULT_LATENT_SCALE,
    alpha: "float | Sequence[float]" = DEFAULT_ALPHA,
) -> np.ndarray:
    """The (n, 3, H, W) video of n frames generated in one batch from the
    (n, M) bit rows of `messages`; frame_seeds[i] is row i's (latent_seed,
    frame_index), and frame i is frame frame_index of the video with seed
    latent_seed.  Each row's bases displace the decoder's layers with
    strength `alpha`; alpha 0 gives the unwatermarked frames.

    Given a 1-D sequence of k strengths, alpha broadcasts: the result is a
    read-only (k, n, 3, H, W) stack whose video i is the one alpha[i]
    gives, from one draw of the latents and one forward pass.

    Each frame equals the one generate_video gives for it, byte for byte,
    so videos that share a condition (a training corpus), or a single frame
    at any position, can be generated alone or together.
    """
    bits = MessageSequence(messages).messages
    if len(frame_seeds) != len(bits):
        raise ValueError("need one (latent seed, frame index) per message")
    if decoder.num_layers != dictionary.num_layers:
        raise ValueError("decoder and dictionary disagree on layer count")
    if decoder.layer_dim != dictionary.layer_dim:
        raise ValueError("decoder and dictionary disagree on layer dimension")
    condition = np.asarray(condition, dtype=np.float64)
    if condition.shape != (decoder.layer_dim,):
        raise ValueError("condition must be a layer_dim vector")
    strengths = np.asarray(alpha)
    if strengths.dtype.kind not in "biuf" or strengths.ndim > 1 or strengths.size == 0:
        raise ValueError("alpha must be a strength or a non-empty 1-D sequence of strengths")
    if not np.isfinite(strengths).all():
        raise ValueError("alpha must be finite")
    indices = _basis_indices(bits, dictionary.key_config())
    latents = _frame_latents(frame_seeds, decoder.layer_dim, latent_scale)
    latents += condition
    pixels = _forward(decoder, dictionary, indices, latents, strengths)
    # Read-only rows that _forward owns become the video without a copy.
    pixels.setflags(write=False)
    video = _video(pixels.reshape(-1, *decoder.frame_shape))
    if strengths.ndim == 0:
        return video
    return video.reshape(len(strengths), len(bits), *decoder.frame_shape)


def generate_video(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    schedule: MessageSequence,
    latent_seed: int,
    condition: np.ndarray,
    latent_scale: float = DEFAULT_LATENT_SCALE,
    alpha: "float | Sequence[float]" = DEFAULT_ALPHA,
) -> np.ndarray:
    """Run each frame's seeded latent plus the shared condition through the
    decoder displaced with strength `alpha`; frame t uses the bases its own
    message selects, and alpha 0 gives the unwatermarked video.  A 1-D
    sequence of k strengths gives the read-only (k, T, 3, H, W) stack of
    the k videos, from one draw of the latents and one forward pass.

    The per-frame latent depends only on (latent_seed, t), so the output is
    per-frame deterministic and frames may be produced in any order.
    """
    return generate_frames(
        decoder, dictionary, schedule,
        [(latent_seed, t) for t in range(1, len(schedule) + 1)],
        condition, latent_scale, alpha,
    )


def init_dictionary(
    cfg: KeyConfig,
    layer_dim: int = DEFAULT_LAYER_DIM,
    rank: int = DEFAULT_RANK,
    init_seed: int = 0,
    init_scale: float = DEFAULT_INIT_SCALE,
) -> BasisDictionary:
    """Draw factors i.i.d. Gaussian(0, init_scale^2 / layer_dim) from one
    generator seeded with init_seed: layer by layer, basis by basis, A
    (d x r) and then B (r x d)."""
    rng = np.random.default_rng(init_seed)
    std = init_scale / np.sqrt(layer_dim)
    factor_a = np.empty((cfg.num_layers, cfg.bases_per_layer, layer_dim, rank))
    factor_b = np.empty((cfg.num_layers, cfg.bases_per_layer, rank, layer_dim))
    for layer, basis in np.ndindex(cfg.num_layers, cfg.bases_per_layer):
        factor_a[layer, basis] = rng.normal(0.0, std, (layer_dim, rank))
        factor_b[layer, basis] = rng.normal(0.0, std, (rank, layer_dim))
    return BasisDictionary(factor_a, factor_b)


def init_toy_decoder(
    layer_dim: int = DEFAULT_LAYER_DIM,
    height: int = DEFAULT_FRAME_SIDE,
    width: int = DEFAULT_FRAME_SIDE,
    num_layers: int = DEFAULT_NUM_LAYERS,
    seed: int = 0,
) -> ToyDecoder:
    """Build the frozen toy decoder from a seed.

    Layer weights are orthogonal (QR of a Gaussian draw, sign-corrected) so
    depth neither explodes nor collapses the hidden state.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(0.0, 1.0, (num_layers, layer_dim, layer_dim)))
    weights = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    offsets = rng.normal(0.0, _OFFSET_SCALE, (num_layers, layer_dim))
    projection = rng.normal(
        0.0, _PROJECTION_SCALE / np.sqrt(layer_dim), (3 * height * width, layer_dim)
    )
    projection_offset = np.full(3 * height * width, _PROJECTION_OFFSET)
    return ToyDecoder(
        weights=weights,
        offsets=offsets,
        projection=projection,
        projection_offset=projection_offset,
        frame_shape=(3, height, width),
    )


def random_condition(layer_dim: int, seed: int) -> np.ndarray:
    """Shared condition vector for a video, standard Gaussian under the seed."""
    return np.random.default_rng(seed).normal(0.0, 1.0, layer_dim)


def write_video(stream: BinaryIO, video) -> None:
    """Write a video in the toy format: magic "SPDF", version byte 2, then
    T, H, W, C as 4-byte big-endian unsigned, then frame-major, channel-major,
    row-major float64 little-endian pixels, which read back bit for bit."""
    video = _video(video)
    num_frames, channels, height, width = video.shape
    stream.write(_VIDEO_MAGIC)
    stream.write(struct.pack("B", _VIDEO_VERSION))
    stream.write(struct.pack(">IIII", num_frames, height, width, channels))
    stream.write(video.astype("<f8", copy=False).tobytes())


def _read_payload(stream: BinaryIO, size: int, what: str) -> bytes:
    """Read exactly `size` bytes in bounded chunks, so a header that declares
    more data than the stream holds fails without a huge allocation, and
    require the stream to end there."""
    chunks = []
    while size > 0:
        chunk = stream.read(min(size, _READ_CHUNK_BYTES))
        if not chunk:
            raise ValueError(f"truncated {what} payload")
        chunks.append(chunk)
        size -= len(chunk)
    if stream.read(1):
        raise ValueError(f"trailing data after the {what} payload")
    return b"".join(chunks)


def read_video(stream: BinaryIO) -> np.ndarray:
    header = stream.read(4 + 1 + 16)
    if len(header) != 21 or header[:4] != _VIDEO_MAGIC:
        raise ValueError("not a toy video file")
    version = header[4]
    if version != _VIDEO_VERSION:
        raise ValueError(f"unsupported video format version {version}")
    num_frames, height, width, channels = struct.unpack(">IIII", header[5:])
    if min(num_frames, height, width, channels) < 1:
        raise ValueError("video header declares an empty dimension")
    pixels = np.frombuffer(
        _read_payload(stream, 8 * num_frames * channels * height * width, "video"),
        dtype="<f8",
    )
    return _video(pixels.reshape(num_frames, channels, height, width))

