"""Basis-shift dictionary, key-conditioned displacement, and the toy generator.

A basis shift is a low-rank parameter delta stored in factored form (A, B)
with A of shape d x r and B of shape r x d.  The realized delta A @ B is
never formed: the displaced forward pass evaluates A @ (B @ h) as two
rank-r products.  A selection mask picks one shift per decoder layer, and
the toy generator runs a latent through L displaced affine layers followed
by a pixel projection.  It runs all frames of a call together as a stack of
column vectors, which numpy multiplies with one matrix-vector product per
frame, so each frame is byte-identical to generating it alone.

Dictionary and decoder are immutable after construction (their arrays are
marked read-only), and generation is a pure function of its seeds, so
concurrent use over disjoint frames matches sequential output exactly.
"""

import contextlib
import contextvars
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .keyspace import KeyConfig, MessageSequence, SelectionMask

__all__ = [
    "BasisShift",
    "LayerShift",
    "BasisDictionary",
    "ToyDecoder",
    "ToyFrame",
    "compose_displacement",
    "displaced_layer_forward",
    "generate_frames",
    "generate_video",
    "init_dictionary",
    "init_toy_decoder",
    "random_condition",
    "record_products",
    "write_video",
    "read_video",
    "video_to_array",
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


@dataclass(frozen=True, eq=False)
class ToyFrame:
    """One generated frame: 3 x H x W pixels nominally in [0, 1], 1-based index."""

    pixels: np.ndarray
    frame_index: int

    def __post_init__(self) -> None:
        pix = _frozen(self.pixels)
        if pix.ndim != 3 or pix.shape[0] != 3:
            raise ValueError("pixels must be 3 x H x W")
        if not np.isfinite(pix).all():
            raise ValueError("pixel values must be finite")
        if self.frame_index < 1:
            raise ValueError("frame_index is 1-based and must be >= 1")
        object.__setattr__(self, "pixels", pix)


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")


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
    for row, shifts in zip(matrix, dictionary.shifts):
        selected = [shifts[p] for p in np.flatnonzero(row)]
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
    shift: "BasisShift | LayerShift",
    alpha: float,
    h: np.ndarray,
) -> np.ndarray:
    """One displaced layer: (W h + c) + alpha * A (B h), factored throughout."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] != weight.shape[1]:
        raise ValueError("hidden state dimension mismatch")
    _check_finite(h, "hidden state")
    base = _matmul(weight, h) + offset
    if alpha == 0.0 or shift.factor_a.shape[1] == 0:
        return base
    return base + alpha * _matmul(shift.factor_a, _matmul(shift.factor_b, h))


def _frame_latent(latent_seed: int, frame_index: int, dim: int, scale: float):
    rng = np.random.default_rng([latent_seed, frame_index])
    return rng.normal(0.0, scale, dim)


def _basis_indices(bits: np.ndarray, cfg: KeyConfig) -> np.ndarray:
    """The (n, L) basis index each row of (n, M) bits selects per layer:
    chunk ell of the row read MSB first, as key_to_mask reads a key."""
    if bits.shape[1] != cfg.message_bits:
        raise ValueError(
            f"messages have {bits.shape[1]} bits, config expects {cfg.message_bits}"
        )
    width = cfg.bits_per_layer
    chunks = bits.astype(np.intp).reshape(len(bits), cfg.num_layers, width)
    return (chunks << np.arange(width - 1, -1, -1)).sum(axis=2)


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
    """Pixels (n, 3, H, W) of n frames generated in one batch from the
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
    latents = np.stack([
        _frame_latent(seed, frame_index, decoder.layer_dim, latent_scale)
        for seed, frame_index in frame_seeds
    ]) + condition
    pixels = _forward(decoder, dictionary, indices, latents)
    return pixels.reshape(len(bits), *decoder.frame_shape)


def generate_video(
    decoder: ToyDecoder,
    dictionary: BasisDictionary,
    schedule: MessageSequence,
    latent_seed: int,
    condition: np.ndarray,
    latent_scale: float = DEFAULT_LATENT_SCALE,
) -> list[ToyFrame]:
    """Run each frame's seeded latent plus the shared condition through the
    displaced decoder; frame t uses the selection mask of its own message.

    The per-frame latent depends only on (latent_seed, t), so the output is
    per-frame deterministic and frames may be produced in any order.
    """
    frame_indices = range(1, len(schedule) + 1)
    pixels = generate_frames(
        decoder, dictionary, schedule, [(latent_seed, t) for t in frame_indices],
        condition, latent_scale,
    )
    return [ToyFrame(frame, t) for frame, t in zip(pixels, frame_indices)]


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


def video_to_array(frames: Sequence[ToyFrame]) -> np.ndarray:
    """Stack frames into a T x 3 x H x W array."""
    return np.stack([f.pixels for f in frames])


def write_video(stream: BinaryIO, frames: Sequence[ToyFrame]) -> None:
    """Write frames in the toy video format: magic "SPDF", version byte, then
    T, H, W, C as 4-byte big-endian unsigned, then frame-major, channel-major,
    row-major float32 little-endian pixels."""
    if not frames:
        raise ValueError("cannot write an empty video")
    channels, height, width = frames[0].pixels.shape
    stream.write(_VIDEO_MAGIC)
    stream.write(struct.pack("B", _VIDEO_VERSION))
    stream.write(struct.pack(">IIII", len(frames), height, width, channels))
    for frame in frames:
        if frame.pixels.shape != (channels, height, width):
            raise ValueError("all frames must share one shape")
        stream.write(np.ascontiguousarray(frame.pixels, dtype="<f4").tobytes())


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


def read_video(stream: BinaryIO) -> list[ToyFrame]:
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
    ).astype(np.float64)
    pixels = pixels.reshape(num_frames, channels, height, width)
    return [ToyFrame(pixels[t], t + 1) for t in range(num_frames)]

