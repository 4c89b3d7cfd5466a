"""Extraction channels and the attack suite, with ground-truth tamper records.

Attacks operate on the rows of one array: the frames of a toy video
(T, 3, H, W) or the messages of a MessageSequence (T, M), and return the
same kind.  The structural edit depends only on (length, parameters,
seed), so for the ideal channel every temporal attack commutes with
extraction.  A temporal attack only computes its source map, the original
row shown at each output position or -1 for an inserted one; one routine
turns the map into the attacked object plus a TamperRecord, which holds the
map and is the ground truth for forensics scoring.

Fractional frame counts are rounded from the exact decimal value of the
given fraction (round-half-to-even for drop/insert/rescale, floor for trim
and adjacent-pair counts), never from its binary-float image, so stated
counts like round(25 * 0.3) = 8 hold exactly.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .keyspace import MessageSequence, _canonical, _document, _typed, _unchecked_sequence
from .spd_core import _video

__all__ = [
    "MAX_FRAMES",
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
    "parse_attack_spec",
    "rounded_count",
    "floor_count",
]

# The most frames a tamper record or verdict may hold on a side.  At the bound
# a verdict reads back in a 0.37 s cold tail pass; verify on random messages
# takes 4.6 s and 271 MB (4.9 s, 255 MB at T_r = 2048; 2-core Xeon, Python 3.11).
MAX_FRAMES = 4096

DEFAULT_NOISE_SIGMA = 0.05
DEFAULT_PAIR_FRACTION = 0.3

# Distribution of noise-mode inserted frames (clamped to [0, 1]).
_NOISE_FRAME_MEAN = 0.5
_NOISE_FRAME_STD = 0.25


@dataclass(frozen=True)
class TamperRecord:
    """Ground truth for one temporal attack: which original each output
    position shows.

    Original frame indices and output positions are 1-based.  The
    permutation maps untrimmed originals one-to-one into the output
    positions; the originals it leaves out are dropped, the positions it
    does not fill are inserted.
    """

    source_length: int
    output_length: int
    permutation: dict[int, int] = field(default_factory=dict)
    trim_head: int = 0
    trim_tail: int = 0

    def __post_init__(self) -> None:
        t, t_r = self.source_length, self.output_length
        if not (1 <= t <= MAX_FRAMES and 1 <= t_r <= MAX_FRAMES):
            raise ValueError(f"lengths must lie in [1, {MAX_FRAMES}], not {t} and {t_r}")
        if self.trim_head < 0 or self.trim_tail < 0 or self.trim_head + self.trim_tail >= t:
            raise ValueError("trim bounds must leave at least one frame")
        first, last = self.trim_head + 1, t - self.trim_tail
        targets = self.permutation.values()
        if not (
            all(first <= k <= last for k in self.permutation)
            and all(1 <= p <= t_r for p in targets)
            and len(set(targets)) == len(targets)
        ):
            raise ValueError("permutation must map untrimmed originals one-to-one into [1, T_r]")

    @property
    def removed_indices(self) -> frozenset[int]:
        """All originals absent from the output: dropped plus trimmed."""
        return frozenset(range(1, self.source_length + 1)).difference(self.permutation)

    @property
    def dropped(self) -> frozenset[int]:
        """Untrimmed originals absent from the output."""
        untrimmed = range(self.trim_head + 1, self.source_length - self.trim_tail + 1)
        return frozenset(untrimmed).difference(self.permutation)

    @property
    def inserted(self) -> frozenset[int]:
        """Output positions that show no original."""
        return frozenset(range(1, self.output_length + 1)).difference(self.permutation.values())

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
        """The record whose to_doc is `doc`; any other document raises ValueError."""
        with _document("tamper record"):
            record = cls(
                source_length=_typed(doc["source_length"], int),
                output_length=_typed(doc["output_length"], int),
                permutation={_typed(k, int): _typed(v, int) for k, v in doc["permutation"]},
                trim_head=_typed(doc["trim_head"], int),
                trim_tail=_typed(doc["trim_tail"], int),
            )
            if _canonical(record.to_doc()) != _canonical(doc):
                raise ValueError("tamper record is not the document its own fields write")
        return record


@dataclass(frozen=True)
class ChannelSpec:
    """Extraction channel: independent per-bit flips with the given
    probability; at 0.0 an exact copy."""

    flip_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must lie in [0, 1]")


def channel_extract(messages: MessageSequence, spec: ChannelSpec) -> MessageSequence:
    """Pass messages through the channel, flipping each bit i.i.d."""
    bits = messages.messages
    if spec.flip_probability > 0.0:
        rng = np.random.default_rng(spec.seed)
        flips = rng.random(bits.shape) < spec.flip_probability
        bits = bits ^ flips
    return _unchecked_sequence(bits)


def rounded_count(total: int, fraction: float) -> int:
    """total * fraction rounded half-to-even on the exact decimal value."""
    return round(Fraction(str(_typed(fraction, float))) * total)


def floor_count(total: int, fraction: float) -> int:
    return math.floor(Fraction(str(_typed(fraction, float))) * total)


def _rows(target) -> np.ndarray:
    """The frames of a video or the messages of a MessageSequence."""
    if isinstance(target, MessageSequence):
        return target.messages
    return _video(target)


def _rebuild(target, rows: np.ndarray):
    """Rows taken from `target`, as the same kind of object.  Message rows
    are a fresh uint8 copy of checked rows or 0/1 noise rows."""
    if isinstance(target, MessageSequence):
        return _unchecked_sequence(rows)
    return _video(rows)


def _noise_row(target, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if isinstance(target, MessageSequence):
        return rng.integers(0, 2, rows.shape[1])
    return np.clip(rng.normal(_NOISE_FRAME_MEAN, _NOISE_FRAME_STD, rows.shape[1:]), 0.0, 1.0)


def _structural(target, rows: np.ndarray, sources: list, extra: list = (),
                trim_head: int = 0, trim_tail: int = 0):
    """The attacked object and its TamperRecord from a source map: output
    position p shows original sources[p] (both 0-based), or, where
    sources[p] is -1, the next of the `extra` rows."""
    t = len(rows)
    index = np.array(sources)
    out = rows[index]
    if extra:
        out[index < 0] = extra
    permutation = {s + 1: p for p, s in enumerate(sources, 1) if s >= 0}
    record = TamperRecord(t, len(sources), permutation, trim_head, trim_tail)
    return _rebuild(target, out), record


def _attack_none(target):
    rows = _rows(target)
    return _structural(target, rows, list(range(len(rows))))


def attack_drop(target, fraction: float, seed: int = 0):
    """Delete round(T * fraction) uniformly chosen frames, order preserved."""
    rows = _rows(target)
    t = len(rows)
    fraction = _typed(fraction, float)
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    count = rounded_count(t, fraction)
    if count >= t:
        raise ValueError("drop would remove every frame")
    rng = np.random.default_rng(seed)
    dropped = set(rng.choice(t, size=count, replace=False).tolist())
    return _structural(target, rows, [i for i in range(t) if i not in dropped])


def attack_swap_random(target, seed: int = 0):
    """Apply a uniformly random permutation to all frames."""
    rows = _rows(target)
    rng = np.random.default_rng(seed)
    return _structural(target, rows, rng.permutation(len(rows)).tolist())


def attack_swap_adjacent(
    target, pair_fraction: float = DEFAULT_PAIR_FRACTION, seed: int = 0
):
    """Swap floor(pair_fraction * floor(T/2)) disjoint adjacent pairs.

    The candidate pairs partition the sequence as (1,2), (3,4), ...; the
    swapped subset is chosen uniformly without replacement.
    """
    rows = _rows(target)
    t = len(rows)
    pair_fraction = _typed(pair_fraction, float)
    if not 0.0 <= pair_fraction <= 1.0:
        raise ValueError("pair_fraction must lie in [0, 1]")
    num_pairs = t // 2
    count = floor_count(num_pairs, pair_fraction)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(num_pairs, size=count, replace=False).tolist() if num_pairs else []
    sources = list(range(t))
    for pair in chosen:
        sources[2 * pair], sources[2 * pair + 1] = 2 * pair + 1, 2 * pair
    return _structural(target, rows, sources)


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
    fraction = _typed(fraction, float)
    if fraction < 0.0:
        raise ValueError("fraction must be >= 0")
    count = rounded_count(t, fraction)
    if t + count > MAX_FRAMES:
        raise ValueError(f"insert would make {t + count} frames, outside [1, {MAX_FRAMES}]")
    rng = np.random.default_rng(seed)
    inserted = set(rng.choice(t + count, size=count, replace=False).tolist())
    # One row per inserted position, drawn in position order.
    extra = [
        rows[int(rng.integers(0, t))] if mode == "duplicate"
        else _noise_row(target, rows, rng)
        for _ in range(count)
    ]
    originals = iter(range(t))
    sources = [-1 if p in inserted else next(originals) for p in range(t + count)]
    return _structural(target, rows, sources, extra)


def attack_trim(target, head_fraction: float, tail_fraction: float):
    """Remove floor(T * head) leading and floor(T * tail) trailing frames."""
    rows = _rows(target)
    t = len(rows)
    head_fraction, tail_fraction = _typed(head_fraction, float), _typed(tail_fraction, float)
    if head_fraction < 0.0 or tail_fraction < 0.0:
        raise ValueError("trim fractions must be >= 0")
    head = floor_count(t, head_fraction)
    tail = floor_count(t, tail_fraction)
    if head + tail >= t:
        raise ValueError("trim would remove every frame")
    return _structural(target, rows, list(range(head, t - tail)), (), head, tail)


def attack_pixel_noise(
    video, sigma: float = DEFAULT_NOISE_SIGMA, seed: int = 0
) -> np.ndarray:
    """Add seeded Gaussian pixel noise, clamped to [0, 1]."""
    sigma = _typed(sigma, float)
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
    factor = _typed(factor, float)
    if not 0.0 < factor <= 1.0:
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


# Every attack an attack-spec document can name: the attack, whether it draws
# (and so takes a "seed"), whether it is structural (edits the frame sequence
# and returns a TamperRecord) rather than photometric (edits pixels), and its
# other parameters in call order as (name, type) or (name, type, default).
_ATTACKS = {
    "none": (_attack_none, False, True, ()),
    "drop": (attack_drop, True, True, (("fraction", float),)),
    "swap_random": (attack_swap_random, True, True, ()),
    "swap_adjacent": (
        attack_swap_adjacent, True, True,
        (("pair_fraction", float, DEFAULT_PAIR_FRACTION),),
    ),
    "insert": (
        attack_insert, True, True, (("fraction", float), ("mode", str, "duplicate"))
    ),
    "trim": (
        attack_trim, False, True, (("head_fraction", float), ("tail_fraction", float))
    ),
    "pixel_noise": (
        attack_pixel_noise, True, False, (("sigma", float, DEFAULT_NOISE_SIGMA),)
    ),
    "rescale": (attack_rescale, False, False, (("factor", float),)),
}


def parse_attack_spec(spec, structural: bool = False, seed: int = 0) -> tuple:
    """The attack an attack-spec document names, its arguments after the
    target (the spec's "seed", else `seed`, last if the attack draws), and
    the spec with its values typed (a float parameter given as 1 reads 1.0).
    Raises ValueError on an unknown attack, on a photometric one where
    `structural` asks for a structural one, and on a missing, unexpected or
    mistyped parameter; the attack checks the values."""
    if not isinstance(spec, dict) or "attack" not in spec:
        raise ValueError('an attack spec must be an object with an "attack" name')
    params = dict(spec)
    name = params.pop("attack")
    if not isinstance(name, str) or name not in _ATTACKS:
        raise ValueError(f"unknown attack {name!r}")
    attack, seeded, is_structural, parameters = _ATTACKS[name]
    if structural and not is_structural:
        raise ValueError(
            f"attack {name!r} is photometric and leaves no tamper record; "
            "only structural attacks can be scored"
        )
    if seeded:
        parameters = (*parameters, ("seed", int, seed))
    typed, args = dict(spec), []
    try:
        for key, kind, *default in parameters:
            args.append(_typed(params.pop(key, *default), kind))
            if key in spec:
                typed[key] = args[-1]
        if seeded and args[-1] < 0:
            raise ValueError(f"must be >= 0, not {args[-1]}")
    except KeyError as exc:
        raise ValueError(f"attack {name!r} needs {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"attack {name!r} has a malformed parameter {key!r}: {exc}") from None
    if params:
        raise ValueError(f"unexpected attack parameters {sorted(params)}")
    return attack, args, typed


def apply_attack(target, spec: dict, seed: int = 0):
    """Dispatch an attack-spec document, e.g. {"attack": "drop",
    "fraction": 0.5, "seed": 7}; an attack that draws and whose spec names
    no seed draws from `seed`.  Returns (attacked, TamperRecord or None);
    photometric attacks carry no structural record."""
    attack, args, _ = parse_attack_spec(spec, seed=seed)
    attacked = attack(target, *args)
    # Structural attacks return (attacked, record), photometric ones a video.
    return attacked if isinstance(attacked, tuple) else (attacked, None)
