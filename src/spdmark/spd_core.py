"""Basis-shift dictionary, key-conditioned displacement, and the toy generator.

A basis shift is a low-rank parameter delta stored in factored form (A, B)
with A of shape d x r and B of shape r x d.  The dictionary holds its L x P
shifts as two stacks, A as one (L, P, d, r) array and B as one (L, P, r, d)
array, as the decoder holds its L weights as one (L, d, d) array.  The
realized delta A @ B is never formed: the displaced forward pass evaluates
A @ (B @ h) as two rank-r products.  Each frame's message picks one shift
per decoder layer, which generation scales by the strength alpha it is
given, and the toy generator runs a latent through L displaced affine layers
followed by a pixel projection.

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
        return KeyConfig.from_layout(self.num_layers, self.bases_per_layer)


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


def _round_states(h: np.ndarray, state_range: tuple[int, int], out: np.ndarray) -> None:
    """Write the (n, d) hidden states h, rounded frame by frame, to `out`,
    and require their exponents to lie in `state_range`, where the products
    that read them are exact and finite (see _state_range)."""
    exponent = _round_to_grid(h, _STATE_BITS, 1, "hidden state", out)[1]
    low, high = state_range
    if exponent.min() < low or exponent.max() > high:
        raise ValueError(
            "hidden state lies outside the range where its products are exact and finite"
        )


def _forward(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    indices: np.ndarray,
    latents: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Pixel rows (n, 3*H*W) for n latents, frame i displaced at layer ell by
    alpha times basis indices[i, ell], in an array of their own; `latents` is
    used as scratch space.

    Hidden states are (n, d) rows, rounded frame by frame.  Each product runs
    over all rows, or over the rows of one basis, as one matrix-matrix
    product.  The products are exact, so every row is bit-identical to the
    frame-by-frame forward, whatever the other frames in the batch.
    """
    displaced = alpha != 0.0 and dictionary.rank > 0
    # Two buffers take turns holding the rounded states and the layer output.
    # Before a displaced layer the states are sorted by their basis, so that
    # each basis reads one contiguous block; row j holds frame frames[j].
    frames = np.arange(len(latents))
    h = out = latents
    state = np.empty_like(latents)
    state_ranges = decoder._state_ranges[:-1]
    if displaced:
        state_ranges = _intersect(state_ranges, dictionary._state_ranges)
    for layer in range(decoder.num_layers):
        _round_states(h, state_ranges[layer], state)
        if displaced:
            column = indices[frames, layer]
            order = np.argsort(column, kind="stable")
            frames = frames[order]
            # mode="clip" lets take write to `out` without a buffer.
            np.take(state, order, axis=0, out=out, mode="clip")
            state, out = out, state
        _matmul(decoder._weight_images[layer], state, out)
        out += decoder.offsets[layer]
        if displaced:
            factor_a, factor_b = (images[layer] for images in dictionary._factor_images)
            stops = np.cumsum(np.bincount(column, minlength=len(factor_a)))
            for basis, (start, stop) in enumerate(zip([0, *stops[:-1]], stops)):
                if start < stop:
                    low_rank = _matmul(factor_b[basis], state[start:stop])
                    displacement = _matmul(factor_a[basis], low_rank)
                    displacement *= alpha
                    out[start:stop] += displacement
        h = out
    _round_states(h, decoder._state_ranges[-1], state)
    if displaced:
        out[frames] = state
        state = out
    raster = np.empty((len(state), len(decoder.projection_offset)))
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
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """The (n, 3, H, W) video of n frames generated in one batch from the
    (n, M) bit rows of `messages`; frame_seeds[i] is row i's (latent_seed,
    frame_index), and frame i is frame frame_index of the video with seed
    latent_seed.  Each row's bases displace the decoder's layers with
    strength `alpha`; alpha 0 gives the unwatermarked frames.

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
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    indices = _basis_indices(bits, dictionary.key_config())
    latents = _frame_latents(frame_seeds, decoder.layer_dim, latent_scale)
    latents += condition
    pixels = _forward(decoder, dictionary, indices, latents, alpha)
    # Read-only rows that _forward owns become the video without a copy.
    pixels.setflags(write=False)
    return _video(pixels.reshape(len(bits), *decoder.frame_shape))


def generate_video(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    schedule: MessageSequence,
    latent_seed: int,
    condition: np.ndarray,
    latent_scale: float = DEFAULT_LATENT_SCALE,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Run each frame's seeded latent plus the shared condition through the
    decoder displaced with strength `alpha`; frame t uses the bases its own
    message selects, and alpha 0 gives the unwatermarked video.

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

