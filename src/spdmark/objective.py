"""Training losses, their analytic pixel gradients, and a linear extractor.

The message-recovery loss is binary cross entropy with logits, averaged over
bits and frames.  The imperceptibility loss combines a perceptual-distance
proxy (mean squared pixel error) with a temporal consistency term on
luminance differences between successive frames; both reductions are means
so the weights stay scale-free across resolutions.  Schedules are
MessageSequences with one row per frame.

The extractor is a ridge-regression linear map from flattened frames to one
logit per message bit, the closed-form stand-in for a learned extractor
network.  It is fitted on a Corpus: N videos of T frames as one
(N, T, 3, H, W) video stack and one MessageSequence of N*T rows, video
after video, checked once when the Corpus is made.  Bits decode as the sign
of the logit, with ties at zero decoding to 0.  The Gram matrix is
accumulated in a single product, kept by the Corpus for every later fit,
and solved in numpy's LAPACK, so the fit is bit-for-bit deterministic on
one BLAS build at one thread count; another build or thread count may move
its last bits.

All loss evaluations are pure.  The gradient of the absolute value at zero
is taken to be 0.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import BinaryIO

import numpy as np

from .keyspace import MessageSequence, _document, _typed
from .spd_core import _frozen, _read_payload, _video

__all__ = [
    "LossWeights",
    "LinearExtractor",
    "Corpus",
    "recovery_loss",
    "luminance",
    "imperceptibility_loss",
    "loss_report",
    "loss_gradients",
    "fit_extractor",
    "bit_accuracy",
    "write_extractor",
    "read_extractor",
    "LUMA_WEIGHTS",
    "DEFAULT_RIDGE_LAMBDA",
]

# ITU-R BT.601 luma coefficients; they sum to 1 so a uniform frame keeps its level.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

DEFAULT_RIDGE_LAMBDA = 1e-3

# The extractor header is one short JSON line; anything longer is not one.
_MAX_HEADER_BYTES = 4096
_EXTRACTOR_VERSION = 2


@dataclass(frozen=True)
class LossWeights:
    """Weights for the perceptual (ps) and temporal-consistency (tc) terms."""

    lambda_ps: float = 1.0
    lambda_tc: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lambda_ps", "lambda_tc"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class LinearExtractor:
    """Linear map from flattened frame pixels to per-bit logits.

    weight is (message_bits x features) with features = 3*H*W in the frame's
    channel-major flattening order; bias is added after the product.
    """

    weight: np.ndarray
    bias: np.ndarray
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA

    def __post_init__(self) -> None:
        weight = _frozen(self.weight)
        bias = _frozen(self.bias)
        if weight.ndim != 2:
            raise ValueError("weight must be a 2-D matrix")
        if bias.ndim != 1 or bias.shape[0] != weight.shape[0]:
            raise ValueError("bias length must match the weight row count")
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise ValueError("extractor parameters must be finite")
        if not np.isfinite(self.ridge_lambda) or self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be finite and >= 0")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)

    @property
    def message_bits(self) -> int:
        return self.weight.shape[0]

    @property
    def num_features(self) -> int:
        return self.weight.shape[1]

    def logits(self, frame: np.ndarray) -> np.ndarray:
        flat = np.asarray(frame, dtype=np.float64).ravel()
        if flat.shape[0] != self.num_features:
            raise ValueError(
                f"frame has {flat.shape[0]} pixels, extractor expects {self.num_features}"
            )
        return self.weight @ flat + self.bias

    def decode(self, frames: np.ndarray) -> np.ndarray:
        """Decode bits as the sign of each logit; a tie at 0 decodes to 0.
        A frame gives its M bits; a (T, 3, H, W) video gives the (T, M)
        bits of its frames, row t bit for bit the decode of frame t."""
        if np.ndim(frames) == 4:
            logits = _video_logits(self, np.asarray(frames, dtype=np.float64))
        else:
            logits = self.logits(frames)
        return (logits > 0).astype(np.uint8)


def _frame_messages(schedule: MessageSequence, num_frames: int) -> np.ndarray:
    """The (T, M) uint8 bits of `schedule`, a MessageSequence with one row
    per frame: T == num_frames."""
    if not isinstance(schedule, MessageSequence):
        raise ValueError("schedule must be a MessageSequence")
    if len(schedule) != num_frames:
        raise ValueError(
            f"schedule has {len(schedule)} messages for {num_frames} frames"
        )
    return schedule.messages


@dataclass(frozen=True, eq=False)
class Corpus:
    """A training corpus: a read-only (N, T, 3, H, W) video stack and the
    MessageSequence of its N*T messages, video after video, both checked
    once when the Corpus is made.  Iterating yields its N videos.

    The ridge normal equations of its intercept-augmented design are
    computed on first use and kept read-only, so fits at any number of
    ridge_lambda values share one pass over the frames.  The extractor of
    its last fit is kept too, for a repeated fit at the same ridge_lambda."""

    videos: np.ndarray
    schedule: MessageSequence
    # (the ridge_lambda key of the last fit, its extractor), see fit_extractor.
    _last_fit: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self) -> None:
        stack = np.asarray(self.videos)
        if stack.ndim != 5:
            raise ValueError("videos must be an (N, T, 3, H, W) stack")
        frames = _video(stack.reshape(stack.shape[0] * stack.shape[1], *stack.shape[2:]))
        _frame_messages(self.schedule, len(frames))
        object.__setattr__(self, "videos", frames.reshape(stack.shape))

    def __len__(self) -> int:
        return self.videos.shape[0]

    def __iter__(self):
        return iter(self.videos)

    @property
    def frames(self) -> np.ndarray:
        """The N*T frames as one (N*T, 3, H, W) video."""
        return self.videos.reshape(len(self.schedule), *self.videos.shape[2:])

    def _design(self) -> tuple[np.ndarray, np.ndarray]:
        """The (N*T, 3*H*W + 1) design, flattened frames and an intercept
        column, and its (N*T, M) bipolar targets 2*bit - 1."""
        flat = self.videos.reshape(len(self.schedule), -1)
        design = np.hstack([flat, np.ones((len(flat), 1))])
        return design, 2.0 * self.schedule.messages - 1.0

    @cached_property
    def normal_equations(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only Gram matrix X'X and right-hand side X'Y of the
        unpenalized fit, for the design X and bipolar targets Y."""
        design, bipolar = self._design()
        gram = design.T @ design
        rhs = design.T @ bipolar
        gram.setflags(write=False)
        rhs.setflags(write=False)
        return gram, rhs


def _bce(logits: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Binary cross entropy of each logit s against its bit b, in the stable
    form max(s, 0) - s*b + log(1 + exp(-|s|))."""
    return np.maximum(logits, 0.0) - logits * bits + np.log1p(np.exp(-np.abs(logits)))


def _video_logits(extractor: LinearExtractor, pixels: np.ndarray) -> np.ndarray:
    """The (T, M) logits of every frame of a video, row t bit for bit
    `extractor.logits` of frame t: one stacked matrix-vector product, since
    a plain `flat @ weight.T` sums in another order."""
    flat = pixels.reshape(pixels.shape[0], -1)
    if flat.shape[1] != extractor.num_features:
        raise ValueError(
            f"frame has {flat.shape[1]} pixels, extractor expects {extractor.num_features}"
        )
    return (extractor.weight @ flat[:, :, None])[:, :, 0] + extractor.bias


def recovery_loss(video, extractor: LinearExtractor, schedule: MessageSequence) -> float:
    """Mean over frames of the per-frame BCE between extractor logits and the
    scheduled message bits."""
    pixels = _video(video)
    bits = _frame_messages(schedule, pixels.shape[0])
    logits = _video_logits(extractor, pixels)
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    if bits.shape[1] != extractor.message_bits:
        raise ValueError("logit and target lengths differ")
    # Each frame's mean BCE over its bits, the frame means summed in frame order.
    total = 0.0
    for frame_loss in _bce(logits, bits).mean(axis=1).tolist():
        total += frame_loss
    return total / pixels.shape[0]


def luminance(pixels) -> np.ndarray:
    """Per-pixel luma 0.299 R + 0.587 G + 0.114 B of a (3, H, W) frame or a
    (T, 3, H, W) video."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim not in (3, 4) or pixels.shape[-3] != 3:
        raise ValueError("pixels must be a (3, H, W) frame or a (T, 3, H, W) video")
    r, g, b = LUMA_WEIGHTS
    return r * pixels[..., 0, :, :] + g * pixels[..., 1, :, :] + b * pixels[..., 2, :, :]


def _check_pair(clean, marked) -> tuple:
    clean = _video(clean)
    marked = _video(marked)
    if clean.shape != marked.shape:
        raise ValueError("clean and marked videos must have the same shape")
    if clean.shape[0] < 2:
        raise ValueError("temporal consistency needs at least 2 frames")
    return clean, marked


def _temporal_term(clean: np.ndarray, marked: np.ndarray) -> float:
    delta_clean = np.diff(luminance(clean), axis=0)
    delta_marked = np.diff(luminance(marked), axis=0)
    # Mean per pixel, then mean over the T-1 successive differences.
    return float(np.abs(delta_clean - delta_marked).mean())


def _weighted_terms(clean, marked, weights: LossWeights) -> tuple[float, float]:
    """The weighted perceptual and temporal-consistency terms (ps, tc)."""
    clean, marked = _check_pair(clean, marked)
    # Mean per frame, then over frames: one mean over every pixel would sum
    # in another order and could move the last bits of reported losses.
    squared = (clean - marked) ** 2
    ps = float(np.mean(squared.reshape(squared.shape[0], -1).mean(axis=1)))
    return weights.lambda_ps * ps, weights.lambda_tc * _temporal_term(clean, marked)


def imperceptibility_loss(clean, marked, weights: LossWeights = LossWeights()) -> float:
    """Weighted perceptual + temporal-consistency loss between two videos.

    The temporal term compares luminance differences of successive frames, so
    it needs at least two frames; a static pixel offset leaves it at zero.
    Public API with no caller in src/, kept for acceptance criterion 7.
    """
    ps, tc = _weighted_terms(clean, marked, weights)
    return ps + tc


def loss_report(
    clean,
    marked,
    extractor: LinearExtractor,
    schedule: MessageSequence,
    weights: LossWeights = LossWeights(),
) -> dict:
    """Weighted loss terms as {ps, tc, rec, total} with total = ps + tc + rec."""
    ps, tc = _weighted_terms(clean, marked, weights)
    rec = recovery_loss(marked, extractor, schedule)
    return {"ps": ps, "tc": tc, "rec": rec, "total": ps + tc + rec}


def loss_gradients(
    clean,
    marked,
    extractor: LinearExtractor,
    schedule: MessageSequence,
    weights: LossWeights = LossWeights(),
) -> dict:
    """Analytic gradients of the loss terms w.r.t. every marked pixel.

    Returns {ps, tc, rec, total}, each shaped like the video (T, 3, H, W).
    The absolute value in the temporal term uses subgradient 0 at its kink.
    """
    clean, marked = _check_pair(clean, marked)
    num_frames = clean.shape[0]
    targets = _frame_messages(schedule, num_frames)
    pixels_per_frame = clean[0].size

    ps_grad = weights.lambda_ps * 2.0 * (marked - clean) / (num_frames * pixels_per_frame)

    # d|delta_y - delta_y~|/dy~ routes +sign into frame t and -sign into t+1,
    # then fans out over channels through the luma coefficients.
    sign = np.sign(np.diff(luminance(clean), axis=0) - np.diff(luminance(marked), axis=0))
    luma_grad = np.zeros(clean.shape[:1] + clean.shape[2:])
    luma_grad[:-1] += sign
    luma_grad[1:] -= sign
    height_width = clean.shape[2] * clean.shape[3]
    coeffs = np.asarray(LUMA_WEIGHTS).reshape(1, 3, 1, 1)
    tc_grad = (
        weights.lambda_tc / ((num_frames - 1) * height_width)
    ) * luma_grad[:, None, :, :] * coeffs

    rec_grad = np.zeros_like(marked)
    bit_count = extractor.message_bits
    if schedule.message_bits != bit_count:
        raise ValueError("message length must match the extractor bit count")
    for index, bits in enumerate(targets):
        # The logistic of the logits, without overflow at any magnitude.
        residual = np.exp(-np.logaddexp(0.0, -extractor.logits(marked[index]))) - bits
        flat = extractor.weight.T @ residual / (bit_count * num_frames)
        rec_grad[index] = flat.reshape(marked[index].shape)

    return {
        "ps": ps_grad,
        "tc": tc_grad,
        "rec": rec_grad,
        "total": ps_grad + tc_grad + rec_grad,
    }


def fit_extractor(
    corpus: Corpus, ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
) -> LinearExtractor:
    """Closed-form ridge regression of flattened frames onto bipolar targets.

    Solves (X'X + lambda*I) W = X'Y on the corpus's intercept-augmented
    design, from its kept normal equations; the intercept column is not
    penalized.  Targets are 2*bit - 1.  The corpus keeps the extractor of
    its last fit, which a fit at the same ridge_lambda returns: the same
    type, value and sign, since each writes its own extractor header.
    """
    if not np.isfinite(ridge_lambda) or ridge_lambda < 0:
        raise ValueError("ridge_lambda must be finite and >= 0")
    key = (type(ridge_lambda), ridge_lambda, math.copysign(1.0, ridge_lambda))
    last_key, last = corpus._last_fit
    if key == last_key:
        return last
    if ridge_lambda == 0.0:
        solution, *_ = np.linalg.lstsq(*corpus._design(), rcond=None)
    else:
        gram, rhs = corpus.normal_equations
        gram = gram.copy()
        weights = np.arange(len(gram) - 1)
        gram[weights, weights] += ridge_lambda
        # numpy's LAPACK, not scipy's: the Gram product ran in numpy's
        # OpenBLAS thread pool, and handing the solve to scipy's separately
        # bundled OpenBLAS made the two pools contend for the cores.
        solution = np.linalg.solve(gram, rhs)
    features = len(solution) - 1
    extractor = LinearExtractor(
        weight=solution[:features].T, bias=solution[features], ridge_lambda=ridge_lambda
    )
    object.__setattr__(corpus, "_last_fit", (key, extractor))
    return extractor


def bit_accuracy(extractor: LinearExtractor, corpus: Corpus) -> float:
    """Fraction of the corpus's scheduled bits the extractor decodes
    correctly."""
    bits = corpus.schedule.messages
    if bits.shape[1] != extractor.message_bits:
        raise ValueError("message length must match the extractor bit count")
    return int((extractor.decode(corpus.frames) == bits).sum()) / bits.size


def write_extractor(stream: BinaryIO, extractor: LinearExtractor) -> None:
    """Serialize as a JSON header line with "version": 2, then float64
    little-endian weight and bias blobs, which read back bit for bit."""
    header = {
        "version": _EXTRACTOR_VERSION,
        "message_bits": extractor.message_bits,
        "features": extractor.num_features,
        "ridge_lambda": extractor.ridge_lambda,
    }
    stream.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
    stream.write(extractor.weight.astype("<f8", copy=False).tobytes())
    stream.write(extractor.bias.astype("<f8", copy=False).tobytes())


def read_extractor(stream: BinaryIO) -> LinearExtractor:
    header_line = stream.readline(_MAX_HEADER_BYTES + 1)
    if not header_line.endswith(b"\n"):
        if len(header_line) > _MAX_HEADER_BYTES:
            raise ValueError(f"extractor header exceeds {_MAX_HEADER_BYTES} bytes")
        raise ValueError("truncated extractor header")
    with _document("extractor header"):
        header = json.loads(header_line.decode("ascii"))
        version = header["version"]
        bits = _typed(header["message_bits"], int)
        features = _typed(header["features"], int)
        ridge_lambda = _typed(header["ridge_lambda"], float)
    if type(version) is not int or version != _EXTRACTOR_VERSION:
        raise ValueError(f"unsupported extractor format version {version!r}")
    if bits < 1 or features < 1:
        raise ValueError(
            f"extractor header declares {bits} bits x {features} features; "
            "both must be positive"
        )
    payload = np.frombuffer(
        _read_payload(stream, 8 * bits * (features + 1), "extractor"), dtype="<f8"
    )
    return LinearExtractor(
        weight=payload[: bits * features].reshape(bits, features),
        bias=payload[bits * features :],
        ridge_lambda=ridge_lambda,
    )
