"""Test-only oracles: the attacks as they were written before.

The photometric attacks one frame at a time: the loops `attack_pixel_noise`
and `attack_rescale` ran when a video was a list of frame objects, one noise
draw and one pair of bilinear resamplings per (3, H, W) frame.

The five structural attacks as they were before each became a source map:
every one builds its own survivor list, permutation, drop and insert sets
and TamperRecord, and the record must derive the same drop and insert sets.

The attacks in `spdmark.channel_attacks` must give the same bytes and
records.  Nothing under `src/` imports this module.
"""

import numpy as np

from spdmark.channel_attacks import (
    DEFAULT_PAIR_FRACTION,
    TamperRecord,
    _interp_matrix,
    _noise_row,
    _rebuild,
    _rows,
    floor_count,
    rounded_count,
)


def _record(dropped=frozenset(), inserted=frozenset(), **fields) -> TamperRecord:
    """The TamperRecord of `fields`, which must derive exactly the drop and
    insert sets the attack computed."""
    record = TamperRecord(**fields)
    assert (record.dropped, record.inserted) == (dropped, inserted)
    return record


def attack_pixel_noise(frames, sigma: float, seed: int) -> list:
    if sigma == 0.0:
        return list(frames)
    rng = np.random.default_rng(seed)
    return [
        np.clip(frame + rng.normal(0.0, sigma, frame.shape), 0.0, 1.0)
        for frame in frames
    ]


def attack_rescale(frames, factor: float) -> list:
    _, height, width = frames[0].shape
    mid_h = max(1, rounded_count(height, factor))
    mid_w = max(1, rounded_count(width, factor))
    down_h = _interp_matrix(height, mid_h)
    down_w = _interp_matrix(width, mid_w)
    up_h = _interp_matrix(mid_h, height)
    up_w = _interp_matrix(mid_w, width)
    out = []
    for frame in frames:
        small = np.einsum("hy,cyx,wx->chw", down_h, frame, down_w)
        restored = np.einsum("yh,chw,xw->cyx", up_h, small, up_w)
        out.append(np.clip(restored, 0.0, 1.0))
    return out


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
    record = _record(
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
    record = _record(
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
    record = _record(
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
    record = _record(
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
    record = _record(
        source_length=t,
        output_length=len(survivors),
        permutation={orig: pos + 1 for pos, orig in enumerate(survivors)},
        trim_head=head,
        trim_tail=tail,
    )
    return _rebuild(target, rows[head:t - tail]), record
