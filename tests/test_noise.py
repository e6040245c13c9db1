import numpy as np
import pytest

from multreg import (MeasureSpace, NoiseStreams, WhiteNoiseSampler,
                     ZeroDirection, concentrated_direction, sample_white,
                     spectral_cutoff, worst_case_deterministic)
from multreg.noise import DeterministicNoise, _pcg64_states, concentrated_noise
from multreg.analysis import FIRST_STREAM as STREAM_STRIDE
from multreg.gallery import compact_case


def test_same_seed_and_stream_reproduce():
    space = MeasureSpace.counting(512)
    a = sample_white(WhiteNoiseSampler(42, 3), space)
    b = sample_white(WhiteNoiseSampler(42, 3), space)
    c = sample_white(WhiteNoiseSampler(42, 4), space)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_single_node_moments():
    # pool 1e5 draws of the first node: mean within 0.02, variance within 0.03
    # row r is the first node of stream r, default_rng([7, r]), bit for bit
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


SEEDER_SEEDS = [0, 1, 7, 20260810, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3,
                2**96 + 11]


@pytest.mark.parametrize("seed", SEEDER_SEEDS)
def test_block_seeder_equals_default_rng(seed):
    # stream s is default_rng([seed, s]); the block seeder hashes SeedSequence
    # and seeds PCG64 itself, so a numpy release that changes either must
    # fail here rather than move the streams.  Seeds of 1 to 4 words put s
    # inside and beyond SeedSequence's pool of four; base 2**32 - 20 crosses
    # into two-word stream ids, which fall back to default_rng.
    k = 6
    space = MeasureSpace.counting(k)
    for base in (0, STREAM_STRIDE * (SEEDER_SEEDS.index(seed) + 1), 2**32 - 20):
        for count in (1, 16, 4000):
            for distribution in ("gaussian", "rademacher"):
                sampler = WhiteNoiseSampler(seed, base, distribution)
                block = sample_white(NoiseStreams(sampler, count), space,
                                     np.empty((count, k)))
                # every row of the small blocks; in the large one the rows
                # around the fallback and a stride through the rest
                rows = set(range(min(count, 40))) | set(range(0, count, 97)) \
                    | set(range(max(0, count - 3), count))
                for i in sorted(rows):
                    rng = np.random.default_rng([seed, base + i])
                    want = rng.standard_normal(k) if distribution == "gaussian" \
                        else 2.0 * rng.integers(0, 2, size=k) - 1.0
                    assert np.array_equal(block[i], want), (base, count, i)


_M64 = (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state_oracle(words):
    """PCG64's seeding step in Python integers: ``(state, inc)``."""
    w0, w1, w2, w3 = words
    inc = ((((w2 << 64) | w3) << 1) | 1) & ((1 << 128) - 1)
    state = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & ((1 << 128) - 1)
    return state, inc


def test_pcg64_states_equal_the_integer_formula():
    # every 4-tuple of words with an extreme or high-bit pattern, and
    # random words; the limb arithmetic must carry exactly where the
    # 128-bit integers do
    patterns = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0xFFFFFFFF00000000,
                0x8000000080000000]
    rows = [(a, b, c, d) for a in patterns for b in patterns
            for c in patterns for d in patterns]
    rows += np.random.default_rng(3).integers(
        0, 2**64, (2000, 4), dtype=np.uint64, endpoint=False).tolist()
    got = _pcg64_states(np.array(rows, np.uint64)).tolist()
    carries = set()
    for words, (state_hi, state_lo, inc_hi, inc_lo) in zip(rows, got):
        state, inc = _pcg64_state_oracle(words)
        assert (state_hi << 64 | state_lo, inc_hi << 64 | inc_lo) == \
            (state, inc), words
        # the carries of inc + (w0:w1), of the low 64x64 product's middle
        # partial sum and of the final + inc
        s = (inc + (words[0] << 64 | words[1])) & ((1 << 128) - 1)
        s_lo, m_lo = s & _M64, _PCG_MULT & _M64
        mid = ((s_lo & 0xFFFFFFFF) * (m_lo & 0xFFFFFFFF) >> 32) \
            + ((s_lo & 0xFFFFFFFF) * (m_lo >> 32) & 0xFFFFFFFF) \
            + ((s_lo >> 32) * (m_lo & 0xFFFFFFFF) & 0xFFFFFFFF)
        product = (s * _PCG_MULT) & ((1 << 128) - 1)
        carries |= {name for name, hit in (
            ("add", (inc & _M64) + words[1] > _M64),
            ("mid", mid >> 32 > 0),
            ("final", (product & _M64) + (inc & _M64) > _M64)) if hit}
    assert carries == {"add", "mid", "final"}
    assert _pcg64_states(np.empty((0, 4), np.uint64)).shape == (0, 4)


def test_block_seeder_views_share_the_seeding():
    # from base 2**32 - 30, the last views cross 2**32 into the fallback
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
