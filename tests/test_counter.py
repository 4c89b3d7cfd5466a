"""The counter-based draws against the scalar oracle in
tests/reference_latent.py (equal bytes), against mpmath (the normal
quantile's accuracy) and against N(0, 1) and fair coins (distribution)."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import reference_latent as ref
from spdmark import counter
from spdmark.keyspace import KeyConfig, WatermarkKey, random_key, random_keys
from spdmark.spd_core import (
    _frame_latents,
    generate_frames,
    init_dictionary,
    init_toy_decoder,
)

EDGE_SEEDS = (0, 1, 2**63 - 1, 2**64 - 1)
EDGE_FRAMES = (1, 2**32 + 1)
CFG = KeyConfig(14, 4)
U64 = st.integers(0, 2**64 - 1)

# Words whose uniforms cover every AS241 branch and its edges: both ends
# of (0, 1), the far tail (s > 5 below k ~ 1.25e5), the s = 5 break, the
# |q| = 0.425 break (k ~ 0.075 * 2**53) and the centre, on both sides.
_CENTRAL_EDGE = int(0.075 * 2**53)
_TAIL_KS = (0, 1, 1000, 124_000, 125_400, 126_000, 10**9,
            _CENTRAL_EDGE - 1, _CENTRAL_EDGE, _CENTRAL_EDGE + 1, 2**51, 2**52 - 1)
BRANCH_WORDS = tuple(
    (k << 11) | low
    for k in _TAIL_KS + tuple(2**53 - 1 - k for k in _TAIL_KS)
    for low in (0, 2**11 - 1)
)


def scalar_latents(frame_seeds, dim, scale) -> np.ndarray:
    return np.array([ref.latent(seed, t, dim, scale) for seed, t in frame_seeds])


class TestOracle:
    def test_step_is_published_splitmix64(self):
        # First outputs of Vigna's splitmix64.c seeded with 1234567.
        want = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                4593380528125082431, 16408922859458223821]
        states = [(1234567 + i * ref.GAMMA) & ref.MASK for i in range(5)]
        assert [ref.step(z) for z in states] == want
        assert counter._step(np.array(states, dtype=np.uint64)).tolist() == want

    @pytest.mark.parametrize("w", BRANCH_WORDS)
    def test_uniform_is_exact(self, w):
        k = w >> 11
        u = Fraction(2 * k + 1, 2**54)
        q, r = ref.uniform_parts(w)
        assert Fraction(r) == min(u, 1 - u)
        assert Fraction(q) == u - Fraction(1, 2)

    def test_normal_quantile_accuracy(self):
        mpmath.mp.dps = 50
        for w in BRANCH_WORDS:
            u = mpmath.mpf(2 * (w >> 11) + 1) / 2**54
            want = float(mpmath.sqrt(2) * mpmath.erfinv(2 * u - 1))
            assert abs(ref.normal(w) - want) <= 1e-14 * max(1.0, abs(want)), w


class TestVectorMatchesOracle:
    def test_branch_words(self):
        got = counter.normals(np.array(BRANCH_WORDS, dtype=np.uint64))
        assert got.tobytes() == np.array([ref.normal(w) for w in BRANCH_WORDS]).tobytes()

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("frame_index", EDGE_FRAMES)
    def test_edge_latents(self, seed, frame_index):
        frame_seeds = [(seed, frame_index)]
        got = _frame_latents(frame_seeds, 64, 0.05)
        assert got.tobytes() == scalar_latents(frame_seeds, 64, 0.05).tobytes()

    def test_edge_latents_in_one_batch(self):
        frame_seeds = [(seed, t) for seed in EDGE_SEEDS for t in EDGE_FRAMES]
        got = _frame_latents(frame_seeds, 64, 0.05)
        assert got.tobytes() == scalar_latents(frame_seeds, 64, 0.05).tobytes()

    @given(
        frame_seeds=st.lists(st.tuples(U64, U64), min_size=1, max_size=6),
        dim=st.integers(1, 80),
        scale=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_latent_sweep(self, frame_seeds, dim, scale):
        got = _frame_latents(frame_seeds, dim, scale)
        assert got.tobytes() == scalar_latents(frame_seeds, dim, scale).tobytes()

    @given(
        tag=U64,
        counters=st.lists(st.lists(U64, min_size=3, max_size=3), min_size=1, max_size=5),
        width=st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_stream_words_sweep(self, tag, counters, width):
        got = counter.stream_words(tag, np.array(counters, dtype=np.uint64), width)
        want = [[ref.word(tag, tuple(row), j) for j in range(width)] for row in counters]
        assert got.tolist() == want

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_keys(self, seed):
        assert random_key(CFG, seed).bits == ref.key_bits(seed, CFG.message_bits)

    @given(seeds=st.lists(U64, min_size=1, max_size=8), layers=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_key_sweep(self, seeds, layers):
        cfg = KeyConfig(layers, 2)
        keys = random_keys(cfg, seeds)
        assert [key.bits for key in keys] == [ref.key_bits(s, layers) for s in seeds]
        assert keys == [random_key(cfg, seed) for seed in seeds]

    @given(seeds=st.lists(U64, min_size=1, max_size=8), layers=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_unchecked_keys_equal_checked_ones(self, seeds, layers):
        # random_keys skips WatermarkKey's check; its keys are the checked
        # keys of the same bits, held as Python ints.
        cfg = KeyConfig(layers, 2)
        for key in random_keys(cfg, seeds):
            assert key == WatermarkKey(tuple(key.bits))
            assert isinstance(key.bits, tuple)
            assert all(type(bit) is int and bit in (0, 1) for bit in key.bits)


class TestDistribution:
    def test_latents_are_standard_normal(self):
        draws = _frame_latents([(20260101, t) for t in range(1, 1001)], 100, 1.0).ravel()
        assert draws.size == 10**5
        assert stats.kstest(draws, "norm").pvalue > 1e-3
        assert abs(draws.mean()) < 0.01
        assert abs(draws.std() - 1.0) < 0.01

    def test_key_bits_are_balanced(self):
        bits = np.array([key.bits for key in random_keys(CFG, range(4000))])
        assert bits.shape == (4000, 28)
        assert abs(bits.mean() - 0.5) < 0.01
        assert np.all(np.abs(bits.mean(axis=0) - 0.5) < 0.05)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_key_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            random_key(CFG, seed)

    @pytest.mark.parametrize("frame_seed", [(-1, 1), (2**64, 1), (0, -1), (0, 2**64)])
    def test_latent_counters_out_of_range(self, frame_seed):
        decoder = init_toy_decoder(layer_dim=8, height=2, width=2, num_layers=1)
        dictionary = init_dictionary(KeyConfig(1, 2), layer_dim=8, rank=2)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            generate_frames(decoder, dictionary, [[1]], [frame_seed], np.zeros(8))
