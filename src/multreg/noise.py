"""Deterministic bounded noise and discretized white noise.

White noise assigns each node an independent centered unit-variance
sample; Gaussian marginals by default, Rademacher as an option to probe
distribution independence of second-moment results.  Samplers are value
objects: the same (seed, stream_id) always reproduces the same vector,
and parallel replications use disjoint stream ids.

Stream s of seed ``seed`` is numpy's SFC64 generator keyed by splitmix64
(Steele, Lea & Flood, OOPSLA 2014), as keyed streams are in Salmon et al.,
SC 2011.  The seed's little-endian 64-bit words fold into one key h,
``h = splitmix64(h ^ word)`` from h = 0.  Stream s sets SFC64's ``a, b,
c`` to splitmix64's three outputs from state ``h + 3 s G``, G =
0x9E3779B97F4A7C15, so no two streams of a seed share an output; its
counter starts at 1 and its first 12 outputs are discarded, as in numpy's
own SFC64 seeding.  Seed and stream are integers, 0 <= s < 2**64.
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
        """A fresh one-stream NoiseStreams' generator of stream ``stream_id
        + offset``, so that sampling does not depend on call order."""
        streams = NoiseStreams(self.with_stream(self.stream_id + offset), 1)
        return next(streams.generators(0, 1))


_M64 = (1 << 64) - 1
#: i G mod 2**64, i = 0 .. 3, as uint64 scalars, which must not overflow
_G = [np.uint64(i * 0x9E3779B97F4A7C15 & _M64) for i in range(4)]
_u64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's output from state x, elementwise on a uint64 array.

    Every operand is a uint64 array or scalar, so numpy 1.x and 2.x (NEP
    50) compute in uint64 alike, and array arithmetic wraps mod 2**64.
    """
    z = x + _G[1]
    z = (z ^ (z >> _u64(30))) * _u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _u64(27))) * _u64(0x94D049BB133111EB)
    return z ^ (z >> _u64(31))


class NoiseStreams:
    """The generators of streams ``stream_id + i`` of ``sampler``,
    i = 0 .. count - 1 (see the module docstring).

    The SFC64 states of all rows are derived once, at construction, the 12
    discarded outputs on all rows at once; each row's state is loaded, when
    the row is reached, into one Generator reused by every row, so a
    NoiseStreams belongs to one thread.
    """

    def __init__(self, sampler: WhiteNoiseSampler, count: int):
        seed, first = sampler.seed, sampler.stream_id
        if not (all(isinstance(n, (int, np.integer)) for n in (seed, first))
                and seed >= 0 and 0 <= first <= 2**64 - count):
            raise ValueError(f"seed {seed!r}, {count} streams from {first!r}: "
                             "need integers, streams below 2**64, none < 0")
        seed, first = int(seed), int(first)
        key = np.zeros(1, np.uint64)
        for i in range(max(1, -(-seed.bit_length() // 64))):
            key = _splitmix64(key ^ _u64(seed >> 64 * i & _M64))
        x = key + (_u64(first) + np.arange(count, dtype=np.uint64)) * _G[3]
        a, b, c = (_splitmix64(x + _G[i]) for i in range(3))
        for counter in range(1, 13):
            t = a + b + _u64(counter)
            a, b, c = b ^ (b >> _u64(11)), c + (c << _u64(3)), \
                ((c << _u64(24)) | (c >> _u64(40))) + t
        # the counter is the same on every row: 13 after the 12 rounds
        self._states = np.stack([a, b, c, np.full(count, 13, np.uint64)],
                                axis=1)
        # any seed will do: every row loads its own state
        self._rng = np.random.Generator(np.random.SFC64(0))
        self.distribution, self.count = sampler.distribution, count

    def generators(self, start: int, count: int):
        """The generators of rows ``start .. start + count - 1`` in turn;
        each is valid until the next one is taken."""
        rng = self._rng
        bit_generator = rng.bit_generator
        # one state mapping, refilled per row: the setter copies its values
        words = {"state": None}
        state = {"bit_generator": "SFC64", "state": words, "has_uint32": 0,
                 "uinteger": 0}
        for row in self._states[start:start + count]:
            words["state"] = row
            bit_generator.state = state
            yield rng


def _gaussian(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    return rng.standard_normal(out=out)


def _rademacher(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    np.multiply(rng.integers(0, 2, size=out.size), 2.0, out=out)
    out -= 1.0
    return out


#: ``fill(rng, out)``: fills ``out`` with draws of the distribution, in order
_FILLS = {GAUSSIAN: _gaussian, RADEMACHER: _rademacher}


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
    or are seeded as one m-stream NoiseStreams (``start`` 0).  The
    distribution's fill is picked once per call, not per row, so a Monte
    Carlo block of m replications is one call and one dispatch.
    """
    fill = _FILLS[sampler.distribution]
    if out is None:
        return fill(sampler.rng(), np.empty(space.weights.size))
    streams = sampler if isinstance(sampler, NoiseStreams) else \
        NoiseStreams(sampler, len(out))
    if not 0 <= start <= streams.count - len(out):
        raise ValueError(f"rows {start} to {start + len(out) - 1} of "
                         f"{streams.count} streams")
    for row, rng in zip(out, streams.generators(start, len(out))):
        fill(rng, row)
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
