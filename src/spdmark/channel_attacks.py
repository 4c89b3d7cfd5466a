"""Extraction channels and the attack suite, with ground-truth tamper records.

Attacks operate on the rows of one array: the frames of a toy video
(T, 3, H, W) or the messages of a MessageSequence (T, M), and return the
same kind.  The structural edit depends only on (length, parameters,
seed), so for the ideal channel every temporal attack commutes with
extraction.  Each temporal attack returns the attacked object plus a
TamperRecord that reconciles the original and attacked lengths exactly and
is the ground truth for forensics scoring.

Fractional frame counts are rounded from the exact decimal value of the
given fraction (round-half-to-even for drop/insert/rescale, floor for trim
and adjacent-pair counts), never from its binary-float image, so stated
counts like round(25 * 0.3) = 8 hold exactly.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .keyspace import MessageSequence
from .spd_core import _video

__all__ = [
    "TamperRecord",
    "ChannelSpec",
    "channel_extract",
    "attack_drop",
    "attack_swap_random",
    "attack_swap_adjacent",
    "attack_insert",
    "attack_trim",
    "attack_pixel_noise",
    "attack_rescale",
    "apply_attack",
    "rounded_count",
    "floor_count",
]

DEFAULT_NOISE_SIGMA = 0.05
DEFAULT_PAIR_FRACTION = 0.3

# Distribution of noise-mode inserted frames (clamped to [0, 1]).
_NOISE_FRAME_MEAN = 0.5
_NOISE_FRAME_STD = 0.25


@dataclass(frozen=True)
class TamperRecord:
    """Ground truth for one temporal attack.

    Original frame indices and output positions are 1-based.  The record
    always reconciles: output_length = source_length - dropped - trimmed
    + inserted, and the permutation maps exactly the surviving originals
    onto exactly the non-inserted output positions.
    """

    source_length: int
    output_length: int
    dropped: frozenset[int] = frozenset()
    inserted: frozenset[int] = frozenset()
    permutation: dict[int, int] = field(default_factory=dict)
    trim_head: int = 0
    trim_tail: int = 0

    def __post_init__(self) -> None:
        t, t_r = self.source_length, self.output_length
        if t < 1 or t_r < 1:
            raise ValueError("lengths must be >= 1")
        if self.trim_head < 0 or self.trim_tail < 0 or self.trim_head + self.trim_tail >= t:
            raise ValueError("trim bounds must leave at least one frame")
        # Range arithmetic, not sets of indices, so that a document claiming
        # huge lengths is rejected without building them.
        first, last = self.trim_head + 1, t - self.trim_tail
        if not all(first <= i <= last for i in self.dropped):
            raise ValueError("dropped indices must be untrimmed originals")
        if not all(1 <= p <= t_r for p in self.inserted):
            raise ValueError("inserted positions must lie in the output range")
        survivors = last - first + 1 - len(self.dropped)
        if t_r != survivors + len(self.inserted):
            raise ValueError("record does not reconcile lengths")
        if len(self.permutation) != survivors or not all(
            first <= k <= last and k not in self.dropped for k in self.permutation
        ):
            raise ValueError("permutation keys must be exactly the survivors")
        targets = set(self.permutation.values())
        if len(targets) != survivors or not all(
            1 <= p <= t_r and p not in self.inserted for p in targets
        ):
            raise ValueError("permutation values must fill the non-inserted slots")

    @classmethod
    def identity(cls, length: int) -> "TamperRecord":
        return cls(
            source_length=length,
            output_length=length,
            permutation={i: i for i in range(1, length + 1)},
        )

    @property
    def trimmed(self) -> set[int]:
        t = self.source_length
        head = set(range(1, self.trim_head + 1))
        tail = set(range(t - self.trim_tail + 1, t + 1))
        return head | tail

    @property
    def removed_indices(self) -> frozenset[int]:
        """All originals absent from the output: dropped plus trimmed."""
        return frozenset(self.dropped | self.trimmed)

    def is_identity(self) -> bool:
        return (
            not self.removed_indices
            and not self.inserted
            and all(k == v for k, v in self.permutation.items())
        )

    def to_doc(self) -> dict:
        return {
            "source_length": self.source_length,
            "output_length": self.output_length,
            "dropped": sorted(self.dropped),
            "inserted": sorted(self.inserted),
            "permutation": [[k, self.permutation[k]] for k in sorted(self.permutation)],
            "trim_head": self.trim_head,
            "trim_tail": self.trim_tail,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TamperRecord":
        try:
            return cls(
                source_length=int(doc["source_length"]),
                output_length=int(doc["output_length"]),
                dropped=frozenset(int(i) for i in doc["dropped"]),
                inserted=frozenset(int(i) for i in doc["inserted"]),
                permutation={int(k): int(v) for k, v in doc["permutation"]},
                trim_head=int(doc["trim_head"]),
                trim_tail=int(doc["trim_tail"]),
            )
        except KeyError as exc:
            raise ValueError(f"tamper record is missing key {exc.args[0]!r}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed tamper record: {exc}") from None


@dataclass(frozen=True)
class ChannelSpec:
    """Extraction channel: exact copy, or independent per-bit flips."""

    kind: str = "ideal"
    flip_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("ideal", "bitflip"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must lie in [0, 1]")


def channel_extract(messages: MessageSequence, spec: ChannelSpec) -> MessageSequence:
    """Pass messages through the channel; bitflip flips each bit i.i.d."""
    bits = messages.messages
    if spec.kind == "bitflip" and spec.flip_probability > 0.0:
        rng = np.random.default_rng(spec.seed)
        flips = rng.random(bits.shape) < spec.flip_probability
        bits = bits ^ flips
    return MessageSequence(bits)


def rounded_count(total: int, fraction) -> int:
    """total * fraction rounded half-to-even on the exact decimal value."""
    return round(Fraction(str(fraction)) * total)


def floor_count(total: int, fraction) -> int:
    return math.floor(Fraction(str(fraction)) * total)


def _rows(target) -> np.ndarray:
    """The frames of a video or the messages of a MessageSequence."""
    if isinstance(target, MessageSequence):
        return target.messages
    return _video(target)


def _rebuild(target, rows: np.ndarray):
    """Rows taken from `target`, as the same kind of object."""
    if isinstance(target, MessageSequence):
        return MessageSequence(rows)
    return _video(rows)


def _noise_row(target, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if isinstance(target, MessageSequence):
        return rng.integers(0, 2, rows.shape[1])
    return np.clip(rng.normal(_NOISE_FRAME_MEAN, _NOISE_FRAME_STD, rows.shape[1:]), 0.0, 1.0)


def attack_drop(target, fraction: float, seed: int = 0):
    """Delete round(T * fraction) uniformly chosen frames, order preserved."""
    rows = _rows(target)
    t = len(rows)
    if not 0.0 <= float(fraction) < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    count = rounded_count(t, fraction)
    if count >= t:
        raise ValueError("drop would remove every frame")
    rng = np.random.default_rng(seed)
    dropped = frozenset(int(i) + 1 for i in rng.choice(t, size=count, replace=False))
    survivors = [i for i in range(1, t + 1) if i not in dropped]
    record = TamperRecord(
        source_length=t,
        output_length=t - count,
        dropped=dropped,
        permutation={orig: pos + 1 for pos, orig in enumerate(survivors)},
    )
    return _rebuild(target, rows[np.array(survivors) - 1]), record


def attack_swap_random(target, seed: int = 0):
    """Apply a uniformly random permutation to all frames."""
    rows = _rows(target)
    t = len(rows)
    rng = np.random.default_rng(seed)
    order = rng.permutation(t)
    # Output position p holds original order[p - 1] + 1.
    record = TamperRecord(
        source_length=t,
        output_length=t,
        permutation={int(orig) + 1: pos + 1 for pos, orig in enumerate(order)},
    )
    return _rebuild(target, rows[order]), record


def attack_swap_adjacent(
    target, pair_fraction: float = DEFAULT_PAIR_FRACTION, seed: int = 0
):
    """Swap floor(pair_fraction * floor(T/2)) disjoint adjacent pairs.

    The candidate pairs partition the sequence as (1,2), (3,4), ...; the
    swapped subset is chosen uniformly without replacement.
    """
    rows = _rows(target)
    t = len(rows)
    if not 0.0 <= float(pair_fraction) <= 1.0:
        raise ValueError("pair_fraction must lie in [0, 1]")
    num_pairs = t // 2
    count = floor_count(num_pairs, pair_fraction)
    rng = np.random.default_rng(seed)
    chosen = (
        rng.choice(num_pairs, size=count, replace=False) if num_pairs else np.array([])
    )
    # Output position p holds original order[p - 1] + 1.
    order = np.arange(t)
    for pair in chosen:
        first = 2 * int(pair)
        order[[first, first + 1]] = first + 1, first
    record = TamperRecord(
        source_length=t,
        output_length=t,
        permutation={int(orig) + 1: pos + 1 for pos, orig in enumerate(order)},
    )
    return _rebuild(target, rows[order]), record


def attack_insert(target, fraction: float, mode: str = "duplicate", seed: int = 0):
    """Insert round(T * fraction) frames at uniform output positions.

    duplicate mode copies a uniformly chosen existing frame per insertion;
    noise mode synthesizes one (i.i.d. Gaussian pixels for videos, uniform
    bits for message sequences).
    """
    if mode not in ("duplicate", "noise"):
        raise ValueError(f"unknown insert mode {mode!r}")
    rows = _rows(target)
    t = len(rows)
    if float(fraction) < 0.0:
        raise ValueError("fraction must be >= 0")
    count = rounded_count(t, fraction)
    t_r = t + count
    rng = np.random.default_rng(seed)
    positions = sorted(
        int(p) + 1 for p in rng.choice(t_r, size=count, replace=False)
    )
    extra = [
        rows[int(rng.integers(0, t))] if mode == "duplicate"
        else _noise_row(target, rows, rng)
        for _ in positions
    ]
    inserted = frozenset(positions)
    survivors = [p for p in range(1, t_r + 1) if p not in inserted]
    record = TamperRecord(
        source_length=t,
        output_length=t_r,
        inserted=inserted,
        permutation={orig + 1: pos for orig, pos in enumerate(survivors)},
    )
    out = np.empty((t_r, *rows.shape[1:]), dtype=rows.dtype)
    out[np.array(survivors) - 1] = rows
    for position, row in zip(positions, extra):
        out[position - 1] = row
    return _rebuild(target, out), record


def attack_trim(target, head_fraction: float, tail_fraction: float):
    """Remove floor(T * head) leading and floor(T * tail) trailing frames."""
    rows = _rows(target)
    t = len(rows)
    if float(head_fraction) < 0.0 or float(tail_fraction) < 0.0:
        raise ValueError("trim fractions must be >= 0")
    head = floor_count(t, head_fraction)
    tail = floor_count(t, tail_fraction)
    if head + tail >= t:
        raise ValueError("trim would remove every frame")
    survivors = list(range(head + 1, t - tail + 1))
    record = TamperRecord(
        source_length=t,
        output_length=len(survivors),
        permutation={orig: pos + 1 for pos, orig in enumerate(survivors)},
        trim_head=head,
        trim_tail=tail,
    )
    return _rebuild(target, rows[head:t - tail]), record


def attack_pixel_noise(
    video, sigma: float = DEFAULT_NOISE_SIGMA, seed: int = 0
) -> np.ndarray:
    """Add seeded Gaussian pixel noise, clamped to [0, 1]."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    pixels = _video(video)
    if sigma == 0.0:
        return pixels
    rng = np.random.default_rng(seed)
    return _video(np.clip(pixels + rng.normal(0.0, sigma, pixels.shape), 0.0, 1.0))


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    # Bilinear resampling with endpoint alignment: output j samples source
    # coordinate j * (n_in - 1) / (n_out - 1), so constants are preserved
    # and n_out == n_in is the identity.
    if n_out == 1:
        centers = np.array([(n_in - 1) / 2.0])
    else:
        centers = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    low = np.floor(centers).astype(int)
    high = np.minimum(low + 1, n_in - 1)
    weight = centers - low
    matrix = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    matrix[rows, low] += 1.0 - weight
    matrix[rows, high] += weight
    return matrix


def attack_rescale(video, factor: float) -> np.ndarray:
    """Bilinear downscale by the factor and upscale back to the input shape."""
    pixels = _video(video)
    if not 0.0 < float(factor) <= 1.0:
        raise ValueError("factor must lie in (0, 1]")
    _, _, height, width = pixels.shape
    mid_h = max(1, rounded_count(height, factor))
    mid_w = max(1, rounded_count(width, factor))
    down_h = _interp_matrix(height, mid_h)
    down_w = _interp_matrix(width, mid_w)
    up_h = _interp_matrix(mid_h, height)
    up_w = _interp_matrix(mid_w, width)
    # Frame by frame: one einsum over the whole video gives the same bytes
    # on numpy 2.4, but that is unchecked at the numpy 1.24 floor.
    out = []
    for frame in pixels:
        small = np.einsum("hy,cyx,wx->chw", down_h, frame, down_w)
        restored = np.einsum("yh,chw,xw->cyx", up_h, small, up_w)
        out.append(np.clip(restored, 0.0, 1.0))
    return _video(out)


def apply_attack(target, spec: dict):
    """Dispatch an attack-spec document, e.g. {"attack": "drop",
    "fraction": 0.5, "seed": 7}.  Returns (attacked, TamperRecord or None);
    photometric attacks and "none" carry no structural record."""
    spec = dict(spec)
    name = spec.pop("attack")
    seed = int(spec.pop("seed", 0))
    if name == "none":
        rows = _rows(target)
        result = _rebuild(target, rows), TamperRecord.identity(len(rows))
    elif name == "drop":
        result = attack_drop(target, float(spec.pop("fraction")), seed)
    elif name == "swap_random":
        result = attack_swap_random(target, seed)
    elif name == "swap_adjacent":
        result = attack_swap_adjacent(
            target, float(spec.pop("pair_fraction", DEFAULT_PAIR_FRACTION)), seed
        )
    elif name == "insert":
        result = attack_insert(
            target, float(spec.pop("fraction")), str(spec.pop("mode", "duplicate")), seed
        )
    elif name == "trim":
        result = attack_trim(
            target, float(spec.pop("head_fraction")), float(spec.pop("tail_fraction"))
        )
    elif name == "pixel_noise":
        result = (
            attack_pixel_noise(
                target, float(spec.pop("sigma", DEFAULT_NOISE_SIGMA)), seed
            ),
            None,
        )
    elif name == "rescale":
        result = attack_rescale(target, float(spec.pop("factor"))), None
    else:
        raise ValueError(f"unknown attack {name!r}")
    if spec:
        raise ValueError(f"unexpected attack parameters {sorted(spec)}")
    return result
