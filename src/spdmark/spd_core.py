"""Basis-shift dictionary, key-conditioned displacement, and the toy generator.

A basis shift is a low-rank parameter delta stored in factored form (A, B)
with A of shape d x r and B of shape r x d.  The realized delta A @ B is
never formed: the displaced forward pass evaluates A @ (B @ h) as two
rank-r products.  Each frame's message picks one shift per decoder layer,
and the toy generator runs a latent through L displaced affine layers
followed by a pixel projection.  It runs all frames of a call together as a
stack of column vectors, which numpy multiplies with one matrix-vector
product per frame, so each frame is byte-identical to generating it alone.

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
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .counter import LATENT_TAG, counter_array, normals, stream_words
from .keyspace import KeyConfig, MessageSequence, _basis_indices

__all__ = [
    "BasisShift",
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
    "DEFAULT_BASES_PER_LAYER",
    "DEFAULT_RANK",
    "DEFAULT_ALPHA",
    "DEFAULT_INIT_SCALE",
    "DEFAULT_LATENT_SCALE",
]

DEFAULT_LAYER_DIM = 64
DEFAULT_FRAME_SIDE = 8
DEFAULT_NUM_LAYERS = 14
DEFAULT_BASES_PER_LAYER = 4
DEFAULT_RANK = 32
DEFAULT_ALPHA = 1.0
DEFAULT_INIT_SCALE = 0.3
DEFAULT_LATENT_SCALE = 0.05

# Scales for the fixed (non-displaced) decoder parameters.
_OFFSET_SCALE = 0.05
_PROJECTION_SCALE = 0.15
_PROJECTION_OFFSET = 0.5

_VIDEO_MAGIC = b"SPDF"
_VIDEO_VERSION = 1
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, logged when record_products is active.  A right-hand side
    stacked as column vectors (..., k, 1) runs as one gemv per vector, so it
    is logged as one (a.shape, (k,)) record per vector."""
    log = _product_log.get()
    if log is not None:
        if b.ndim > 1 and b.shape[-1] == 1:
            log.extend([(a.shape, b.shape[-2:-1])] * math.prod(b.shape[:-2]))
        else:
            log.append((a.shape, b.shape))
    return a @ b


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class BasisShift:
    """One low-rank shift in factored form: factor_a (d x r), factor_b (r x d)."""

    factor_a: np.ndarray
    factor_b: np.ndarray

    def __post_init__(self) -> None:
        a = _frozen(self.factor_a)
        b = _frozen(self.factor_b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("factors must be 2-D")
        d, r = a.shape
        if b.shape != (r, d):
            raise ValueError(f"factor shapes {a.shape} and {b.shape} do not pair up")
        if r > d:
            raise ValueError("rank must not exceed the layer dimension")
        object.__setattr__(self, "factor_a", a)
        object.__setattr__(self, "factor_b", b)

    @property
    def layer_dim(self) -> int:
        return self.factor_a.shape[0]

    @property
    def rank(self) -> int:
        return self.factor_a.shape[1]


@dataclass(frozen=True, eq=False)
class BasisDictionary:
    """L x P grid of basis shifts sharing (d, r), plus the global scale alpha."""

    shifts: tuple[tuple[BasisShift, ...], ...]
    layer_dim: int
    rank: int
    alpha: float
    init_seed: int
    init_scale: float

    def __post_init__(self) -> None:
        if not self.shifts or not self.shifts[0]:
            raise ValueError("dictionary must contain at least one shift")
        for row in self.shifts:
            if len(row) != len(self.shifts[0]):
                raise ValueError("dictionary grid must be rectangular")
            for shift in row:
                if shift.layer_dim != self.layer_dim or shift.rank != self.rank:
                    raise ValueError("all shifts must share (layer_dim, rank)")

    @property
    def num_layers(self) -> int:
        return len(self.shifts)

    @property
    def bases_per_layer(self) -> int:
        return len(self.shifts[0])

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
    seed: int

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
        if not (
            np.isfinite(w).all()
            and np.isfinite(c).all()
            and np.isfinite(proj).all()
            and np.isfinite(proj_off).all()
        ):
            raise ValueError("decoder parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", c)
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "projection_offset", proj_off)

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
    return normals(stream_words(LATENT_TAG, counters, dim)) * scale


def _forward(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    indices: np.ndarray,
    latents: np.ndarray,
) -> np.ndarray:
    """Pixel rows (n, 3*H*W) for n latents, frame i displaced at layer ell by
    basis indices[i, ell].

    Hidden states are an (n, d, 1) stack of column vectors, so each product
    runs as one gemv per frame and every row is bit-identical to the
    frame-by-frame forward, whatever the other frames in the batch.
    """
    h = latents[:, :, None]
    displaced = dictionary.alpha != 0.0 and dictionary.rank > 0
    for layer in range(decoder.num_layers):
        _check_finite(h, "hidden state")
        out = _matmul(decoder.weights[layer], h) + decoder.offsets[layer][:, None]
        if displaced:
            column = indices[:, layer]
            for basis in np.unique(column):
                rows = np.flatnonzero(column == basis)
                shift = dictionary.shifts[layer][basis]
                out[rows] += dictionary.alpha * _matmul(
                    shift.factor_a, _matmul(shift.factor_b, h[rows])
                )
        h = out
    _check_finite(h, "hidden state")
    raster = _matmul(decoder.projection, h)[:, :, 0] + decoder.projection_offset
    _check_finite(raster, "pixel values")
    return np.clip(raster, 0.0, 1.0)


def generate_frames(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    messages: "MessageSequence | np.ndarray",
    frame_seeds: Sequence[tuple[int, int]],
    condition: np.ndarray,
    latent_scale: float = DEFAULT_LATENT_SCALE,
) -> np.ndarray:
    """The (n, 3, H, W) video of n frames generated in one batch from the
    (n, M) bit rows of `messages`; frame_seeds[i] is row i's (latent_seed,
    frame_index), and frame i is frame frame_index of the video with seed
    latent_seed.

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
    indices = _basis_indices(bits, dictionary.key_config())
    latents = _frame_latents(frame_seeds, decoder.layer_dim, latent_scale) + condition
    pixels = _forward(decoder, dictionary, indices, latents)
    pixels.setflags(write=False)
    return _video(pixels.reshape(len(bits), *decoder.frame_shape))


def generate_video(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    schedule: MessageSequence,
    latent_seed: int,
    condition: np.ndarray,
    latent_scale: float = DEFAULT_LATENT_SCALE,
) -> np.ndarray:
    """Run each frame's seeded latent plus the shared condition through the
    displaced decoder; frame t uses the bases its own message selects.

    The per-frame latent depends only on (latent_seed, t), so the output is
    per-frame deterministic and frames may be produced in any order.
    """
    return generate_frames(
        decoder, dictionary, schedule,
        [(latent_seed, t) for t in range(1, len(schedule) + 1)],
        condition, latent_scale,
    )


def init_dictionary(
    cfg: KeyConfig,
    layer_dim: int = DEFAULT_LAYER_DIM,
    rank: int = DEFAULT_RANK,
    alpha: float = DEFAULT_ALPHA,
    init_seed: int = 0,
    init_scale: float = DEFAULT_INIT_SCALE,
) -> BasisDictionary:
    """Draw factors i.i.d. Gaussian(0, init_scale^2 / layer_dim), seeded."""
    if rank > layer_dim:
        raise ValueError("rank must not exceed layer_dim")
    rng = np.random.default_rng(init_seed)
    std = init_scale / np.sqrt(layer_dim)
    rows = []
    for _ in range(cfg.num_layers):
        row = []
        for _ in range(cfg.bases_per_layer):
            factor_a = rng.normal(0.0, std, (layer_dim, rank))
            factor_b = rng.normal(0.0, std, (rank, layer_dim))
            row.append(BasisShift(factor_a, factor_b))
        rows.append(tuple(row))
    return BasisDictionary(
        shifts=tuple(rows),
        layer_dim=layer_dim,
        rank=rank,
        alpha=alpha,
        init_seed=init_seed,
        init_scale=init_scale,
    )


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
    weights = np.empty((num_layers, layer_dim, layer_dim))
    for layer in range(num_layers):
        gauss = rng.normal(0.0, 1.0, (layer_dim, layer_dim))
        q, r = np.linalg.qr(gauss)
        weights[layer] = q * np.sign(np.diag(r))
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
        seed=seed,
    )


def random_condition(layer_dim: int, seed: int) -> np.ndarray:
    """Shared condition vector for a video, standard Gaussian under the seed."""
    return np.random.default_rng(seed).normal(0.0, 1.0, layer_dim)


def write_video(stream: BinaryIO, video) -> None:
    """Write a video in the toy format: magic "SPDF", version byte, then
    T, H, W, C as 4-byte big-endian unsigned, then frame-major, channel-major,
    row-major float32 little-endian pixels."""
    video = _video(video)
    num_frames, channels, height, width = video.shape
    stream.write(_VIDEO_MAGIC)
    stream.write(struct.pack("B", _VIDEO_VERSION))
    stream.write(struct.pack(">IIII", num_frames, height, width, channels))
    stream.write(video.astype("<f4").tobytes())


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
        _read_payload(stream, 4 * num_frames * channels * height * width, "video"),
        dtype="<f4",
    )
    return _video(pixels.reshape(num_frames, channels, height, width))

