"""Test-only oracle: the counter-based draws one value at a time.

This restates `spdmark.counter` and its two callers on Python ints, masked
to 64 bits, and Python floats: the SplitMix64 stream hash, the uniform
u = (k + 1/2) * 2**-53 on a word's top 53 bits, Wichura's AS241 normal
quantile with its logarithm as frexp plus an atanh series, the latent
rows of `spdmark.spd_core` and the key bits of `spdmark.keyspace`.  Every
float operation is correctly rounded and runs in the order the vector path
uses, so the two must agree bit for bit.  Only the AS241 coefficient tables
are shared with the program; their accuracy is tested against mpmath.
Nothing under `src/` imports this module.
"""

import math

from spdmark.counter import (
    _ATANH_SERIES,
    _CENTRAL_DEN,
    _CENTRAL_NUM,
    _FAR_DEN,
    _FAR_NUM,
    _NEAR_DEN,
    _NEAR_NUM,
)

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
LATENT_TAG = int.from_bytes(b"spd-lat\0", "big")
KEY_TAG = int.from_bytes(b"spd-key\0", "big")


def step(z: int) -> int:
    """One SplitMix64 output: the finaliser of z + gamma."""
    z = (z + GAMMA) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def word(tag: int, counters: tuple, j: int) -> int:
    """Word j of the stream named by `tag` and `counters`."""
    state = tag
    for counter in counters:
        state = step(state ^ counter)
    return step(state ^ j)


def uniform_parts(w: int) -> tuple:
    """(q, r) for u = (k + 1/2) * 2**-53 on the top 53 bits k of w:
    q = u - 1/2 and r = min(u, 1 - u), both exact."""
    k = w >> 11
    upper = k >= 1 << 52
    m = (1 << 53) - 1 - k if upper else k
    r = (float(m) + 0.5) * 2.0 ** -53
    q = (0.5 - r) * (1.0 if upper else -1.0)
    return q, r


def horner(x: float, coefficients: tuple) -> float:
    out = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        out = out * x + c
    return out


def log(x: float) -> float:
    f, e = math.frexp(x)
    if f < 0.7071067811865476:
        f *= 2.0
        e -= 1
    z = (f - 1.0) / (f + 1.0)
    return e * 0.6931471805599453 + 2.0 * z * horner(z * z, _ATANH_SERIES)


def normal(w: int) -> float:
    """AS241 (PPND16) at the uniform of word w."""
    q, r = uniform_parts(w)
    if abs(q) <= 0.425:
        rc = 0.180625 - q * q
        return q * horner(rc, _CENTRAL_NUM) / horner(rc, _CENTRAL_DEN)
    s = math.sqrt(-log(r))
    if s <= 5.0:
        t = s - 1.6
        value = horner(t, _NEAR_NUM) / horner(t, _NEAR_DEN)
    else:
        t = s - 5.0
        value = horner(t, _FAR_NUM) / horner(t, _FAR_DEN)
    return value * (1.0 if q > 0 else -1.0)


def latent(latent_seed: int, frame_index: int, dim: int, scale: float) -> list:
    """The latent of frame frame_index of the video with seed latent_seed."""
    return [
        normal(word(LATENT_TAG, (latent_seed, frame_index), j)) * scale
        for j in range(dim)
    ]


def key_bits(seed: int, num_bits: int) -> tuple:
    """The bits of the key random_key draws for the seed."""
    return tuple(word(KEY_TAG, (seed,), j) >> 63 for j in range(num_bits))
