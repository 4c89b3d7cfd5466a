"""Training losses, their analytic pixel gradients, and a linear extractor.

The message-recovery loss is binary cross entropy with logits, averaged over
bits and frames.  The imperceptibility loss combines a perceptual-distance
proxy (mean squared pixel error by default, pluggable) with a temporal
consistency term on luminance differences between successive frames; both
reductions are means so the weights stay scale-free across resolutions.

The extractor is a ridge-regression linear map from flattened frames to one
logit per message bit, the closed-form stand-in for a learned extractor
network.  Bits decode as the sign of the logit, with ties at zero decoding
to 0.  The Gram matrix is accumulated in a single fixed-order product, so
the fit is bit-for-bit deterministic.

All loss evaluations are pure.  The gradient of the absolute value at zero
is taken to be 0.
"""

import json
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Sequence

import numpy as np
import scipy.linalg
from scipy.special import expit

from .spd_core import _read_payload, _video

__all__ = [
    "LossWeights",
    "LinearExtractor",
    "bce_logits",
    "recovery_loss",
    "luminance",
    "mean_squared_error",
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
        weight = np.asarray(self.weight, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError("weight must be a 2-D matrix")
        if bias.ndim != 1 or bias.shape[0] != weight.shape[0]:
            raise ValueError("bias length must match the weight row count")
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise ValueError("extractor parameters must be finite")
        if not np.isfinite(self.ridge_lambda) or self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be finite and >= 0")
        weight = weight.copy()
        bias = bias.copy()
        weight.setflags(write=False)
        bias.setflags(write=False)
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

    def decode(self, frame: np.ndarray) -> np.ndarray:
        """Decode bits as the sign of each logit; a tie at 0 decodes to 0."""
        return (self.logits(frame) > 0).astype(np.uint8)


def _message_bits(message) -> np.ndarray:
    bits = np.asarray(message, dtype=np.float64)
    if bits.ndim != 1 or not np.isin(bits, (0.0, 1.0)).all():
        raise ValueError("target must be a flat sequence of 0/1 bits")
    return bits


def _schedule_bits(schedule, num_frames: int) -> np.ndarray:
    """A schedule (a MessageSequence, or a sequence of 0/1 rows) as one
    (T, M) float matrix with T == num_frames."""
    bits = np.asarray(schedule, dtype=np.float64)
    if bits.ndim != 2 or not np.isin(bits, (0.0, 1.0)).all():
        raise ValueError("schedule must be a (T, M) matrix of 0/1 bits")
    if len(bits) != num_frames:
        raise ValueError("schedule length must equal the frame count")
    return bits


def bce_logits(logits: np.ndarray, target) -> float:
    """Mean binary cross entropy with logits over the bits of one frame.

    Uses the stable form max(s, 0) - s*b + log(1 + exp(-|s|)).
    """
    values = np.asarray(logits, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("logits must be a 1-D vector")
    if not np.isfinite(values).all():
        raise ValueError("logits must be finite")
    bits = _message_bits(target)
    if bits.shape != values.shape:
        raise ValueError("logit and target lengths differ")
    loss = np.maximum(values, 0.0) - values * bits + np.log1p(np.exp(-np.abs(values)))
    return float(loss.mean())


def recovery_loss(video, extractor: LinearExtractor, schedule: Sequence) -> float:
    """Mean over frames of the per-frame BCE between extractor logits and the
    scheduled message bits."""
    pixels = _video(video)
    total = 0.0
    for frame, bits in zip(pixels, _schedule_bits(schedule, pixels.shape[0])):
        total += bce_logits(extractor.logits(frame), bits)
    return total / pixels.shape[0]


def luminance(pixels) -> np.ndarray:
    """Per-pixel luma 0.299 R + 0.587 G + 0.114 B of a (3, H, W) frame or a
    (T, 3, H, W) video."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim not in (3, 4) or pixels.shape[-3] != 3:
        raise ValueError("pixels must be a (3, H, W) frame or a (T, 3, H, W) video")
    r, g, b = LUMA_WEIGHTS
    return r * pixels[..., 0, :, :] + g * pixels[..., 1, :, :] + b * pixels[..., 2, :, :]


def mean_squared_error(a: np.ndarray, b: np.ndarray) -> float:
    """Default perceptual-distance proxy between two frames."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("frame shapes differ")
    return float(np.mean((a - b) ** 2))


def _check_pair(clean, marked) -> tuple:
    clean = _video(clean)
    marked = _video(marked)
    if clean.shape != marked.shape:
        raise ValueError("clean and marked videos must have the same shape")
    return clean, marked


def _perceptual_term(clean: np.ndarray, marked: np.ndarray, distance) -> float:
    return float(np.mean([distance(c, m) for c, m in zip(clean, marked)]))


def _temporal_term(clean: np.ndarray, marked: np.ndarray) -> float:
    delta_clean = np.diff(luminance(clean), axis=0)
    delta_marked = np.diff(luminance(marked), axis=0)
    # Mean per pixel, then mean over the T-1 successive differences.
    return float(np.abs(delta_clean - delta_marked).mean())


def _weighted_terms(clean, marked, weights: LossWeights, distance) -> tuple[float, float]:
    """The weighted perceptual and temporal-consistency terms (ps, tc)."""
    clean, marked = _check_pair(clean, marked)
    if clean.shape[0] < 2:
        raise ValueError("temporal consistency needs at least 2 frames")
    ps = weights.lambda_ps * _perceptual_term(clean, marked, distance)
    tc = weights.lambda_tc * _temporal_term(clean, marked)
    return ps, tc


def imperceptibility_loss(
    clean,
    marked,
    weights: LossWeights = LossWeights(),
    distance: "Callable[[np.ndarray, np.ndarray], float] | None" = None,
) -> float:
    """Weighted perceptual + temporal-consistency loss between two videos.

    The temporal term compares luminance differences of successive frames, so
    it needs at least two frames; a static pixel offset leaves it at zero.
    """
    ps, tc = _weighted_terms(clean, marked, weights, distance or mean_squared_error)
    return ps + tc


def loss_report(
    clean,
    marked,
    extractor: LinearExtractor,
    schedule: Sequence,
    weights: LossWeights = LossWeights(),
) -> dict:
    """Weighted loss terms as {ps, tc, rec, total} with total = ps + tc + rec."""
    ps, tc = _weighted_terms(clean, marked, weights, mean_squared_error)
    rec = recovery_loss(marked, extractor, schedule)
    return {"ps": ps, "tc": tc, "rec": rec, "total": ps + tc + rec}


def loss_gradients(
    clean,
    marked,
    extractor: LinearExtractor,
    schedule: Sequence,
    weights: LossWeights = LossWeights(),
) -> dict:
    """Analytic gradients of the loss terms w.r.t. every marked pixel.

    Returns {ps, tc, rec, total}, each shaped like the video (T, 3, H, W).
    The closed forms assume the default squared-error perceptual proxy; the
    absolute value in the temporal term uses subgradient 0 at its kink.
    """
    clean, marked = _check_pair(clean, marked)
    num_frames = clean.shape[0]
    if num_frames < 2:
        raise ValueError("temporal consistency needs at least 2 frames")
    targets = _schedule_bits(schedule, num_frames)
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
    if targets.shape[1] != bit_count:
        raise ValueError("message length must match the extractor bit count")
    for index, bits in enumerate(targets):
        residual = expit(extractor.logits(marked[index])) - bits
        flat = extractor.weight.T @ residual / (bit_count * num_frames)
        rec_grad[index] = flat.reshape(marked[index].shape)

    return {
        "ps": ps_grad,
        "tc": tc_grad,
        "rec": rec_grad,
        "total": ps_grad + tc_grad + rec_grad,
    }


def fit_extractor(
    videos: Sequence,
    schedules: Sequence,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
) -> LinearExtractor:
    """Closed-form ridge regression of flattened frames onto bipolar targets.

    Solves (X'X + lambda*I) W = X'Y on an intercept-augmented design; the
    intercept column is not penalized.  Targets are 2*bit - 1.
    """
    if not np.isfinite(ridge_lambda) or ridge_lambda < 0:
        raise ValueError("ridge_lambda must be finite and >= 0")
    if len(videos) == 0:
        raise ValueError("need at least one training video")
    if len(videos) != len(schedules):
        raise ValueError("videos and schedules must pair up")

    rows = []
    targets = []
    features = None
    bit_count = None
    for video, schedule in zip(videos, schedules):
        pixels = _video(video)
        bits = _schedule_bits(schedule, pixels.shape[0])
        flat = pixels.reshape(pixels.shape[0], -1)
        if features is None:
            features, bit_count = flat.shape[1], bits.shape[1]
        elif flat.shape[1] != features or bits.shape[1] != bit_count:
            raise ValueError("inconsistent frame or message dimensions")
        rows.append(flat)
        targets.append(2.0 * bits - 1.0)
    frames = np.vstack(rows)
    if len(frames) == 0 or features == 0 or bit_count == 0:
        raise ValueError("degenerate frame or message dimensions")

    design = np.hstack([frames, np.ones((len(frames), 1))])
    bipolar = np.vstack(targets)
    if ridge_lambda == 0.0:
        solution, *_ = np.linalg.lstsq(design, bipolar, rcond=None)
    else:
        gram = design.T @ design
        gram[np.arange(features), np.arange(features)] += ridge_lambda
        solution = scipy.linalg.solve(gram, design.T @ bipolar, assume_a="pos")
    return LinearExtractor(
        weight=solution[:features].T, bias=solution[features], ridge_lambda=ridge_lambda
    )


def bit_accuracy(extractor: LinearExtractor, videos: Sequence, schedules: Sequence) -> float:
    """Fraction of scheduled bits the extractor decodes correctly."""
    if len(videos) != len(schedules):
        raise ValueError("videos and schedules must pair up")
    correct = 0
    total = 0
    for video, schedule in zip(videos, schedules):
        pixels = _video(video)
        targets = _schedule_bits(schedule, pixels.shape[0])
        if targets.shape[1] != extractor.message_bits:
            raise ValueError("message length must match the extractor bit count")
        for frame, bits in zip(pixels, targets):
            correct += int((extractor.decode(frame) == bits).sum())
            total += len(bits)
    if total == 0:
        raise ValueError("no frames to score")
    return correct / total


def write_extractor(stream: BinaryIO, extractor: LinearExtractor) -> None:
    """Serialize as a JSON header line followed by float32 little-endian
    weight and bias blobs."""
    header = {
        "message_bits": extractor.message_bits,
        "features": extractor.num_features,
        "ridge_lambda": extractor.ridge_lambda,
    }
    stream.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
    stream.write(extractor.weight.astype("<f4").tobytes())
    stream.write(extractor.bias.astype("<f4").tobytes())


def read_extractor(stream: BinaryIO) -> LinearExtractor:
    header_line = bytearray()
    while True:
        byte = stream.read(1)
        if not byte:
            raise ValueError("truncated extractor header")
        if byte == b"\n":
            break
        if len(header_line) == _MAX_HEADER_BYTES:
            raise ValueError(f"extractor header exceeds {_MAX_HEADER_BYTES} bytes")
        header_line += byte
    try:
        header = json.loads(header_line.decode("ascii"))
    except RecursionError:
        raise ValueError("extractor header is nested too deeply") from None
    try:
        bits = int(header["message_bits"])
        features = int(header["features"])
        ridge_lambda = float(header["ridge_lambda"])
    except KeyError as exc:
        raise ValueError(f"extractor header is missing key {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed extractor header: {exc}") from None
    if bits < 1 or features < 1:
        raise ValueError(
            f"extractor header declares {bits} bits x {features} features; "
            "both must be positive"
        )
    payload = np.frombuffer(
        _read_payload(stream, 4 * bits * (features + 1), "extractor"), dtype="<f4"
    )
    return LinearExtractor(
        weight=payload[: bits * features].reshape(bits, features).astype(np.float64),
        bias=payload[bits * features :].astype(np.float64),
        ridge_lambda=ridge_lambda,
    )
