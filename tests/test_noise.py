from statistics import NormalDist

import numpy as np
import pytest

from multreg import (MeasureSpace, NoiseStreams, WhiteNoiseSampler,
                     ZeroDirection, concentrated_direction, sample_white,
                     spectral_cutoff, worst_case_deterministic)
from multreg.noise import DeterministicNoise, concentrated_noise
from multreg.analysis import FIRST_STREAM as STREAM_STRIDE
from multreg.gallery import compact_case

pytestmark = pytest.mark.numpy_floor


def test_same_seed_and_stream_reproduce():
    space = MeasureSpace.counting(512)
    a = sample_white(WhiteNoiseSampler(42, 3), space)
    b = sample_white(WhiteNoiseSampler(42, 3), space)
    c = sample_white(WhiteNoiseSampler(42, 4), space)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_single_node_moments():
    # pool 1e5 draws of the first node: mean within 0.02, variance within 0.03
    # row r is the first node of stream r
    draws = sample_white(WhiteNoiseSampler(7), MeasureSpace.counting(1),
                         out=np.empty((10**5, 1)))
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.03


def test_gaussian_shape_at_scale():
    # skewness and excess kurtosis of 1e6 pooled samples within +-0.05
    big = sample_white(WhiteNoiseSampler(1), MeasureSpace.counting(10**6))
    z = (big - big.mean()) / big.std()
    assert abs(np.mean(z**3)) < 0.05
    assert abs(np.mean(z**4) - 3.0) < 0.05


def test_rademacher_option():
    space = MeasureSpace.counting(4096)
    xi = sample_white(WhiteNoiseSampler(3, distribution="rademacher"), space)
    assert set(np.unique(xi)) == {-1.0, 1.0}
    assert abs(xi.var() - 1.0) < 0.05
    with pytest.raises(ValueError):
        WhiteNoiseSampler(0, distribution="cauchy")


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_block_rows_are_stream_prefixes(distribution):
    space = MeasureSpace.counting(1000)
    sampler = WhiteNoiseSampler(5, stream_id=70, distribution=distribution)
    for k in (0, 1, 333, 1000):
        block = np.full((4, k), np.nan)
        assert sample_white(sampler, space, block) is block
        for i in range(4):
            full = sample_white(sampler.with_stream(70 + i), space)
            assert np.array_equal(block[i], full[:k])


_M64 = (1 << 64) - 1
_G = 0x9E3779B97F4A7C15


def _splitmix64(x):
    """splitmix64's output from state x, in Python integers."""
    z = (x + _G) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _sfc64_oracle(seed, stream):
    """Stream ``stream`` of ``seed`` as numpy's own SFC64: the key folds the
    seed's 64-bit words, the stream's three splitmix64 outputs seed
    ``(a, b, c, 1)``, and ``random_raw(12)`` discards 12 outputs."""
    key, words = 0, seed
    while True:
        key = _splitmix64(key ^ (words & _M64))
        words >>= 64
        if not words:
            break
    x = key + 3 * stream * _G
    abc = [_splitmix64((x + i * _G) & _M64) for i in range(3)]
    bit_generator = np.random.SFC64(0)
    bit_generator.state = {"bit_generator": "SFC64",
                           "state": {"state": np.array(abc + [1], np.uint64)},
                           "has_uint32": 0, "uinteger": 0}
    bit_generator.random_raw(12)
    return bit_generator.state["state"]["state"].tolist()


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**64 - 1, 2**64 + 3,
                                  2**96 + 11])
def test_vectorised_rounds_equal_numpy_sfc64(seed):
    # seeds of one and of two 64-bit words; the streams from 2**32 - 20
    # cross 2**32, and 2**63 sets the top bit; rng() keys each stream alone
    for first in (0, STREAM_STRIDE, 2**32 - 20, 2**63):
        sampler = WhiteNoiseSampler(seed, first)
        for i, rng in enumerate(NoiseStreams(sampler, 25).generators(0, 25)):
            want = _sfc64_oracle(seed, first + i)
            assert rng.bit_generator.state["state"]["state"].tolist() == want
            assert sampler.rng(i).bit_generator.state["state"]["state"] \
                .tolist() == want


def test_first_raw_outputs_are_pinned():
    # a numpy release that changed SFC64's step would fail here rather than
    # move the streams
    for seed, stream, raw in (
            (0, 0, [0x7906304FFA5A4787, 0xFF8CB662A1D02E81,
                    0x86A5C9D7AA8923F1, 0x92CCAEBA1C8FC1A5]),
            (20261018, STREAM_STRIDE,
             [0xE0FC962E2CD18AD4, 0xCEA95DD06A2D31E1,
              0xDAD7350460B9BA40, 0x537EA04603A5A350])):
        rng = WhiteNoiseSampler(seed, stream).rng()
        assert rng.bit_generator.random_raw(4).tolist() == raw


def test_negative_or_non_integer_seed_or_stream_raises():
    space = MeasureSpace.counting(3)
    for sampler in (WhiteNoiseSampler(-1), WhiteNoiseSampler(0, -1),
                    WhiteNoiseSampler(1.5), WhiteNoiseSampler(0, 2.0)):
        with pytest.raises(ValueError):
            sample_white(sampler, space)
        with pytest.raises(ValueError):
            sample_white(sampler, space, np.empty((2, 3)))
    # the last stream is 2**64 - 1
    assert sample_white(WhiteNoiseSampler(0, 2**64 - 1), space).shape == (3,)
    with pytest.raises(ValueError):
        NoiseStreams(WhiteNoiseSampler(0, 2**64 - 1), 2)


def _largest_correlation(draws):
    """The largest |r| between two rows of ``draws``, by one matmul."""
    draws -= draws.mean(axis=1, keepdims=True)
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    r = draws @ draws.T
    np.fill_diagonal(r, 0.0)
    return float(np.max(np.abs(r)))


def test_adjacent_streams_and_seeds_are_uncorrelated():
    # under independence atanh(r) sqrt(k - 3) is about N(0, 1) for each of
    # the m (m - 1) / 2 pairs; the bound allows 1e-4 false alarms in all
    m, k = 1000, 2**12
    pairs = m * (m - 1) // 2
    z = -NormalDist().inv_cdf(1e-4 / pairs / 2)
    bound = np.tanh(z / np.sqrt(k - 3))
    space = MeasureSpace.counting(k)
    streams = sample_white(WhiteNoiseSampler(20261018, STREAM_STRIDE), space,
                           np.empty((m, k)))
    assert _largest_correlation(streams) < bound
    seeds = np.empty((m, k))
    for seed in range(m):
        sample_white(WhiteNoiseSampler(seed, STREAM_STRIDE), space,
                     seeds[seed:seed + 1])
    assert _largest_correlation(seeds) < bound


def test_block_seeder_views_share_the_seeding():
    # from base 2**32 - 30, the last views cross 2**32
    space = MeasureSpace.counting(5)
    for base in (50, 2**32 - 30):
        streams = NoiseStreams(WhiteNoiseSampler(3, base), 40)
        whole = sample_white(streams, space, np.empty((40, 5)))
        for start, count in ((0, 1), (17, 9), (25, 15)):
            part = sample_white(streams, space, np.empty((count, 5)), start)
            assert np.array_equal(part, whole[start:start + count])
    with pytest.raises(ValueError):
        sample_white(streams, space, np.empty((16, 5)), 25)


def test_worst_case_unit_vector():
    space = MeasureSpace.counting(3)
    noise = worst_case_deterministic(np.array([1.0, 0.0, 0.0]), space)
    assert np.array_equal(noise.values, [1.0, 0.0, 0.0])
    assert noise.norm == 1.0


def test_worst_case_normalization():
    space = MeasureSpace.counting(2)
    noise = worst_case_deterministic(np.array([3.0, 4.0]), space)
    assert np.allclose(noise.values, [0.6, 0.8])


def test_worst_case_zero_direction():
    with pytest.raises(ZeroDirection):
        worst_case_deterministic(np.zeros(4), MeasureSpace.counting(4))


def test_concentrated_noise_is_the_dense_noise_on_its_node():
    space = MeasureSpace.interval_graded(1.0, 40)
    for index in range(space.nodes.size):
        dense = worst_case_deterministic(concentrated_direction(space, index),
                                         space)
        noise = concentrated_noise(space, index)
        assert np.flatnonzero(dense.values).tolist() == [index]
        assert noise.values.tolist() == [dense.values[index]]
        assert noise.norm == dense.norm
        assert noise.support == slice(index, index + 1)
    assert concentrated_noise(space, -1).support == slice(39, 40)
    weights = np.array([1.0, 0.0, 2.0])
    holey = MeasureSpace("lebesgue_interval", np.arange(3.0), weights)
    with pytest.raises(ZeroDirection):
        concentrated_noise(holey, 1)
    with pytest.raises(ZeroDirection):
        concentrated_direction(holey, 1)


def test_deterministic_noise_lives_on_all_nodes_or_on_one():
    # on other supports the sliced norm may differ from the dense one in
    # the last bit, so such noise is refused
    assert DeterministicNoise(np.ones(3) / 3.0, 1 / np.sqrt(3)).support == slice(None)
    assert concentrated_noise(MeasureSpace.counting(5), 4).support == slice(4, 5)
    for support in (slice(2, 5), slice(-1, None), slice(0, 1, 2)):
        with pytest.raises(ValueError, match="all nodes or on one"):
            DeterministicNoise(np.full(3, 0.5), 0.9, support)


def test_concentrated_direction_attains_filter_sup():
    # the multiplication operator's norm is the sup of the symbol; the
    # concentrated unit direction attains it, a proportional one does not
    b, space = compact_case(1.0 / np.arange(1, 51))
    scheme = spectral_cutoff()
    alpha = 0.11
    phi_v = scheme.phi(alpha, b.values_on(space))
    sup = float(np.max(np.abs(phi_v)))

    idx = int(np.argmax(np.abs(phi_v)))
    xi = worst_case_deterministic(concentrated_direction(space, idx), space)
    assert space.norm(phi_v * xi.values) == pytest.approx(sup)

    aligned = worst_case_deterministic(phi_v.copy(), space)
    assert space.norm(phi_v * aligned.values) < sup
    # and no unit direction can beat the sup
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = worst_case_deterministic(rng.standard_normal(50), space)
        assert space.norm(phi_v * d.values) <= sup * (1 + 1e-12)
