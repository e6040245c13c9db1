"""Deterministic bounded noise and discretized white noise.

White noise assigns each node an independent centered unit-variance
sample; Gaussian marginals by default, Rademacher as an option to probe
distribution independence of second-moment results.  Samplers are value
objects: the same (seed, stream_id) always reproduces the same vector,
and parallel replications use disjoint stream ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _fill(rng: np.random.Generator, distribution: str, out: np.ndarray):
    if distribution == GAUSSIAN:
        return rng.standard_normal(out=out)
    np.multiply(rng.integers(0, 2, size=out.size), 2.0, out=out)
    out -= 1.0
    return out


def sample_white(sampler: WhiteNoiseSampler, space: MeasureSpace,
                 out: np.ndarray | None = None) -> np.ndarray:
    """One i.i.d. unit-variance draw per node, or a block of stream prefixes.

    Without ``out`` this is the full vector of stream ``stream_id``.  With
    an ``(m, k)`` array ``out``, row i is filled with the first k values of
    stream ``stream_id + i`` and ``out`` is returned; numpy fills a stream
    in sequence, so these are the first k entries of that stream's full
    vector.
    """
    if out is None:
        return _fill(sampler.rng(), sampler.distribution,
                     np.empty(space.nodes.size))
    for i, row in enumerate(out):
        _fill(sampler.rng(i), sampler.distribution, row)
    return out


@dataclass(frozen=True)
class DeterministicNoise:
    """A fixed perturbation with weighted L2 norm at most one."""

    values: np.ndarray
    norm: float

    def __post_init__(self):
        if self.norm > 1.0 + 1e-9:
            raise ValueError("deterministic noise must have norm <= 1")


def worst_case_deterministic(direction, space: MeasureSpace) -> DeterministicNoise:
    """Normalize a direction to weighted L2 norm exactly one."""
    d = np.asarray(direction, float)
    nrm = space.norm(d)
    if nrm == 0.0:
        raise ZeroDirection("cannot normalize the zero direction")
    v = d / nrm
    return DeterministicNoise(values=v, norm=space.norm(v))


def concentrated_direction(space: MeasureSpace, index: int) -> np.ndarray:
    """Unit-norm direction carrying all mass at one node.

    Multiplying by a node function h sends this to a vector of norm
    |h(s_index)|, so it attains the sup-norm bound of the multiplication
    operator; used as the adversarial deterministic perturbation.
    """
    w = space.weights[index]
    if w <= 0:
        raise ZeroDirection("node carries no quadrature weight")
    d = np.zeros(space.nodes.size)
    d[index] = 1.0 / np.sqrt(w)
    return d
