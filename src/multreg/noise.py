"""Deterministic bounded noise and discretized white noise.

White noise assigns each node an independent centered unit-variance
sample; Gaussian marginals by default, Rademacher as an option to probe
distribution independence of second-moment results.  Samplers are value
objects: the same (seed, stream_id) always reproduces the same vector,
and parallel replications use disjoint stream ids.

Stream s of seed ``seed`` is ``np.random.default_rng([seed, s])``.  A
block of streams is seeded in one pass: numpy's SeedSequence hash (NEP 19)
vectorised over s, then PCG64's seeding step (O'Neill, HMC-CS-2014-0905)
vectorised too, in 64-bit limbs, giving the same generator states bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ZeroDirection
from .spaces import MeasureSpace

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"


@dataclass(frozen=True)
class WhiteNoiseSampler:
    seed: int
    stream_id: int = 0
    distribution: str = GAUSSIAN

    def __post_init__(self):
        if self.distribution not in (GAUSSIAN, RADEMACHER):
            raise ValueError(f"unknown distribution '{self.distribution}'")

    def with_stream(self, stream_id: int) -> "WhiteNoiseSampler":
        return replace(self, stream_id=stream_id)

    def rng(self, offset: int = 0) -> np.random.Generator:
        """Generator of stream ``stream_id + offset``.

        A fresh generator per call keeps sampling independent of call order.
        """
        return np.random.default_rng([self.seed, self.stream_id + offset])


# SeedSequence's hash (numpy/random/bit_generator.pyx): pool of four uint32
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, as high and low 64-bit limbs
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_U1, _U32, _U63 = np.uint64(1), np.uint64(32), np.uint64(63)
_LOW32 = np.uint64(_MASK32)
#: streams seeded per ``_pcg64_states`` call: its limb temporaries then
#: stay below the SeedSequence hash's own, whatever the stream count
_SEED_ROWS = 1024


def _uint32_words(n: int) -> list:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit words."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_words(seed: int, first: int, count: int) -> np.ndarray:
    """``SeedSequence([seed, s]).generate_state(4, np.uint64)`` for the
    streams s = first .. first + count - 1 (all below 2**32), as rows of a
    ``(count, 4)`` uint64 array.

    The hash constants advance independently of the data, so the scalar
    recipe runs unchanged on uint32 arrays, one entry per stream; uint32
    array arithmetic wraps like the C code.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    entropy = [np.array([w], np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(first, first + count, dtype=np.uint32))
    zero = np.zeros(1, np.uint32)
    mixer = [hashmix(entropy[i] if i < len(entropy) else zero)
             for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            mixer[i_dst] = mix(mixer[i_dst], hashmix(word))

    state = np.empty((count, 2 * _POOL_SIZE), np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = mixer[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    # the uint64 words pair the uint32 ones little-endian, on any machine
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64,
                                                              copy=False)


def _mul_64x64(a: np.ndarray, b: np.uint64) -> tuple:
    """``(hi, lo)`` limbs of the 128-bit products a * b, from four 32-bit
    partial products whose sums cannot overflow 64 bits."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (p00 & _LOW32) | (mid << _U32)
    hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return hi, lo


def _add_128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """``(hi, lo)`` limbs of a + b mod 2**128; uint64 arrays wrap."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo).astype(np.uint64), lo


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """PCG64's seeding step (``pcg64_srandom_r``) on rows of four
    SeedSequence words ``(w0, w1, w2, w3)``, as rows ``(state_hi, state_lo,
    inc_hi, inc_lo)`` of 64-bit limbs: ``inc = (w2:w3) << 1 | 1`` and
    ``state = (inc + (w0:w1)) * PCG_MULT + inc``, both mod 2**128.

    Every operand is a uint64 array or an ``np.uint64``, so numpy 1.x and
    2.x (NEP 50) compute in uint64 alike.
    """
    w0, w1, w2, w3 = words.T
    inc_hi, inc_lo = (w2 << _U1) | (w3 >> _U63), (w3 << _U1) | _U1
    s_hi, s_lo = _add_128(w0, w1, inc_hi, inc_lo)
    # mod 2**128 the product drops s_hi * MULT_HI and the high limbs of
    # the cross terms
    prod_hi, prod_lo = _mul_64x64(s_lo, _PCG_MULT_LO)
    prod_hi += s_hi * _PCG_MULT_LO + s_lo * _PCG_MULT_HI
    state_hi, state_lo = _add_128(prod_hi, prod_lo, inc_hi, inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


class NoiseStreams:
    """The generators of streams ``stream_id + i`` of ``sampler``,
    i = 0 .. count - 1.

    Row i's generator is bit-identical to ``sampler.rng(i)``.  The PCG64
    states of all rows are derived once, at construction; each row's state
    is loaded, when the row is reached, into one Generator reused by every
    row, so a NoiseStreams belongs to one thread.  Streams from 2**32 on,
    and seeds the hash does not cover, use ``default_rng`` itself.
    """

    def __init__(self, sampler: WhiteNoiseSampler, count: int):
        seed, first = sampler.seed, sampler.stream_id
        hashed = 0
        if isinstance(seed, (int, np.integer)) and seed >= 0 and first >= 0:
            hashed = max(0, min(count, 2**32 - first))
        self._states = _seed_words(int(seed), first, hashed) if hashed \
            else np.empty((0, 4), np.uint64)
        # the words become the states in place, _SEED_ROWS rows at a time
        for i in range(0, hashed, _SEED_ROWS):
            rows = self._states[i:i + _SEED_ROWS]
            rows[:] = _pcg64_states(rows)
        # any generator will do: every row loads its own state
        self._rng = np.random.default_rng(0)
        self.sampler, self.distribution, self.count = \
            sampler, sampler.distribution, count

    def generators(self, start: int, count: int):
        """The generators of rows ``start .. start + count - 1`` in turn;
        each is valid until the next one is taken."""
        stop = start + count
        rng = self._rng
        bit_generator = rng.bit_generator
        # one state mapping, refilled per row: the setter copies its values
        pcg = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
                 "uinteger": 0}
        for state_hi, state_lo, inc_hi, inc_lo in \
                self._states[start:stop].tolist():
            pcg["state"] = state_hi << 64 | state_lo
            pcg["inc"] = inc_hi << 64 | inc_lo
            bit_generator.state = state
            yield rng
        for i in range(max(start, len(self._states)), stop):
            yield self.sampler.rng(i)


def _fill(rng: np.random.Generator, distribution: str, out: np.ndarray):
    if distribution == GAUSSIAN:
        return rng.standard_normal(out=out)
    np.multiply(rng.integers(0, 2, size=out.size), 2.0, out=out)
    out -= 1.0
    return out


def sample_white(sampler: WhiteNoiseSampler | NoiseStreams,
                 space: MeasureSpace, out: np.ndarray | None = None,
                 start: int = 0) -> np.ndarray:
    """One i.i.d. unit-variance draw per node, or a block of stream prefixes.

    Without ``out`` this is the full vector of stream ``stream_id`` of a
    WhiteNoiseSampler.  With an ``(m, k)`` array ``out``, row i is filled
    with the first k values of stream ``stream_id + start + i`` and ``out``
    is returned; numpy fills a stream in sequence, so these are the first k
    entries of that stream's full vector.  The rows are rows
    ``start .. start + m - 1`` of the NoiseStreams passed as ``sampler``,
    or are seeded as one m-stream NoiseStreams (``start`` 0).
    """
    if out is None:
        return _fill(sampler.rng(), sampler.distribution,
                     np.empty(space.weights.size))
    streams = sampler if isinstance(sampler, NoiseStreams) else \
        NoiseStreams(sampler, len(out))
    if not 0 <= start <= streams.count - len(out):
        raise ValueError(f"rows {start} to {start + len(out) - 1} of "
                         f"{streams.count} streams")
    for row, rng in zip(out, streams.generators(start, len(out))):
        _fill(rng, streams.distribution, row)
    return out


@dataclass(frozen=True)
class DeterministicNoise:
    """A fixed perturbation with weighted L2 norm at most one.

    ``values`` are its values on ``support``, all nodes (the default) or
    one node ``slice(i, i + 1)``; it is zero elsewhere.  Only on these
    supports is ``MeasureSpace.norm(values, support)`` the full vector's
    norm bit for bit, which ``evaluate_deterministic`` relies on.
    """

    values: np.ndarray
    norm: float
    support: slice = field(default_factory=lambda: slice(None))

    def __post_init__(self):
        if self.norm > 1.0 + 1e-9:
            raise ValueError("deterministic noise must have norm <= 1")
        on = self.support
        one_node = (isinstance(on.start, int) and on.start >= 0
                    and on.stop == on.start + 1 and on.step in (None, 1))
        if on != slice(None) and not one_node:
            raise ValueError("deterministic noise is supported on all nodes "
                             f"or on one, not on {on}")


def _normalized(d: np.ndarray, space: MeasureSpace,
                support: slice) -> DeterministicNoise:
    nrm = space.norm(d, support)
    if nrm == 0.0:
        raise ZeroDirection("cannot normalize the zero direction")
    v = d / nrm
    return DeterministicNoise(values=v, norm=space.norm(v, support),
                              support=support)


def worst_case_deterministic(direction, space: MeasureSpace) -> DeterministicNoise:
    """Normalize a direction to weighted L2 norm exactly one."""
    return _normalized(np.asarray(direction, float), space, slice(None))


def _concentrated_value(space: MeasureSpace, index: int) -> float:
    w = space.weights[index]
    if w <= 0:
        raise ZeroDirection("node carries no quadrature weight")
    return 1.0 / np.sqrt(w)


def concentrated_direction(space: MeasureSpace, index: int) -> np.ndarray:
    """Unit-norm direction carrying all mass at one node.

    Multiplying by a node function h sends this to a vector of norm
    |h(s_index)|, so it attains the sup-norm bound of the multiplication
    operator; used as the adversarial deterministic perturbation.
    """
    d = np.zeros(space.weights.size)
    d[index] = _concentrated_value(space, index)
    return d


def concentrated_noise(space: MeasureSpace, index: int) -> DeterministicNoise:
    """``worst_case_deterministic(concentrated_direction(space, index),
    space)``, stored on its one node.

    Value and norm come from the single nonzero and equal the dense ones
    bit for bit, since adding zeros in numpy's sums is exact.
    """
    index = range(space.weights.size)[index]  # a non-negative, in-range index
    return _normalized(np.array([_concentrated_value(space, index)]), space,
                       slice(index, index + 1))
