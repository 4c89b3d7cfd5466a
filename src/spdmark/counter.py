"""Counter-based random draws: every word a pure function of its counters.

A stream is named by a 64-bit domain tag and a row of 64-bit counters (a
seed, a frame index, ...).  Its state is the SplitMix64 step chained over
the tag and the counters, and word j of the stream is one more step on
state xor j, so any set of words is one array expression and no draw
depends on which others are made with it (the counter-based design of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
Each purpose draws under its own tag, defined here together so that no
two purposes share one.

A word w maps to the uniform u = (k + 1/2) * 2**-53 on its top 53 bits
k, and u to a standard normal by Wichura's AS241 (PPND16), whose logarithm
is written here as frexp plus an atanh series.  Every float operation is
+, -, *, /, sqrt or the exact frexp, each correctly rounded under IEEE 754,
so the normals carry the same bits on every machine; numpy's own log, sin
and cos may not.  tests/reference_latent.py restates all of it on Python
ints and floats, in the same operation order.
"""

from typing import Iterable

import numpy as np

__all__ = ["KEY_TAG", "LATENT_TAG", "counter_array", "stream_words", "normals"]

# Domain tags: the bits of watermark keys and the latents of frames.
KEY_TAG = int.from_bytes(b"spd-key\0", "big")
LATENT_TAG = int.from_bytes(b"spd-lat\0", "big")

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)

# u = (k + 1/2) * 2**-53 for the top 53 bits k of a word.  Its top bit
# says which half u lies in and the other 52 bits m give the distance to
# the nearer end, r = min(u, 1 - u) = (m' + 1/2) * 2**-53, with m' = m in
# the lower half and its 52-bit complement in the upper one.  r and
# q = u - 1/2 = +-(1/2 - r) are then exact, and u itself is never rounded.
_LOW52 = np.uint64((1 << 52) - 1)
_HALF_ULP = 2.0 ** -53

# AS241 (PPND16): central region |q| <= 0.425, then tails in
# s = sqrt(-log r) with a break at s = 5.  Coefficients lowest order first.
_SPLIT_Q = 0.425
_CONST_CENTRAL = 0.180625
_SPLIT_S = 5.0
_CENTRAL_NUM = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_CENTRAL_DEN = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_NEAR_NUM = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_NEAR_DEN = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
_FAR_NUM = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_FAR_DEN = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
)

# log x = e * ln 2 + 2 atanh(z), x = f * 2**e with f in [sqrt(1/2), sqrt(2))
# and z = (f - 1) / (f + 1), so |z| < 0.172 and the series
# atanh(z) / z = sum z**(2i) / (2i + 1) is below half an ulp after i = 10.
_SQRT_HALF = 0.7071067811865476
_LN2 = 0.6931471805599453
_ATANH_SERIES = tuple(1.0 / (2 * i + 1) for i in range(11))


def counter_array(values: Iterable[int], what: str) -> np.ndarray:
    """`values` as a 1-D uint64 array; each must be an int in [0, 2**64)."""
    values = list(values)
    if values and (min(values) < 0 or max(values) > _MASK64):
        raise ValueError(f"{what} must lie in [0, 2**64)")
    return np.array(values, dtype=np.uint64)


def _step(z: np.ndarray) -> np.ndarray:
    """One SplitMix64 step on a fresh uint64 array, in place: add the
    golden gamma, then the finaliser's two xor-shift-multiply rounds."""
    z += _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MUL1
    z ^= z >> np.uint64(27)
    z *= _MUL2
    z ^= z >> np.uint64(31)
    return z


def stream_words(tag: int, counters: np.ndarray, width: int) -> np.ndarray:
    """(n, width) uint64: row i holds words 0..width-1 of the stream named
    by `tag` and row i of the (n, k) uint64 `counters`."""
    state = np.full(len(counters), tag, dtype=np.uint64)
    for column in counters.T:
        state = _step(state ^ column)
    return _step(state[:, None] ^ np.arange(width, dtype=np.uint64))


def _horner(x: np.ndarray, coefficients: tuple) -> np.ndarray:
    """sum c_i x**i by Horner's rule, from the highest coefficient down."""
    out = x * coefficients[-1]
    out += coefficients[-2]
    for c in coefficients[-3::-1]:
        out *= x
        out += c
    return out


def _log(x: np.ndarray) -> np.ndarray:
    """Natural log of positive, non-subnormal floats from frexp and an
    atanh series."""
    f, e = np.frexp(x)
    low = f < _SQRT_HALF
    f = np.where(low, f * 2.0, f)
    e = e - low
    z = (f - 1.0) / (f + 1.0)
    return e * _LN2 + 2.0 * z * _horner(z * z, _ATANH_SERIES)


def normals(words: np.ndarray) -> np.ndarray:
    """Standard normals, one per uint64 word, by AS241 on the word's
    uniform; the result has the words' shape."""
    upper = words >> np.uint64(63)
    m = words >> np.uint64(11)
    m &= _LOW52
    m ^= upper * _LOW52
    r = m.astype(np.float64)
    r += 0.5
    r *= _HALF_ULP
    sign = upper.astype(np.float64)
    sign *= 2.0
    sign -= 1.0
    distance = 0.5 - r
    q = distance * sign
    # The central formula runs on every word (its denominator stays above
    # 0.002 for all |q| <= 1/2); the tails then overwrite their words.
    rc = q * q
    np.subtract(_CONST_CENTRAL, rc, out=rc)
    out = _horner(rc, _CENTRAL_NUM)
    out *= q
    out /= _horner(rc, _CENTRAL_DEN)

    tail = np.flatnonzero(distance > _SPLIT_Q)
    s = np.sqrt(-_log(r.take(tail)))
    near = s <= _SPLIT_S
    t = s - np.where(near, 1.6, _SPLIT_S)
    value = np.where(
        near,
        _horner(t, _NEAR_NUM) / _horner(t, _NEAR_DEN),
        _horner(t, _FAR_NUM) / _horner(t, _FAR_DEN),
    )
    np.put(out, tail, value * sign.take(tail))
    return out
