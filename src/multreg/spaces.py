"""Discretized measure spaces.

A :class:`MeasureSpace` is a quadrature view of one of four measure spaces:
a bounded Lebesgue interval, the Lebesgue half-line or full line (both
truncated at a finite radius), or the counting measure on an initial
section of the positive integers.  All downstream computations are plain
weighted sums over the nodes, so any positive quadrature rule can be
plugged in through the constructor, ``MeasureSpace(kind, nodes, weights)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEBESGUE_INTERVAL = "lebesgue_interval"
LEBESGUE_HALFLINE = "lebesgue_halfline"
LEBESGUE_LINE = "lebesgue_line"
COUNTING = "counting"

_INFINITE_KINDS = (LEBESGUE_HALFLINE, LEBESGUE_LINE, COUNTING)

DEFAULT_NODES = 2**14


@dataclass(frozen=True)
class MeasureSpace:
    """Nodes and nonnegative quadrature weights for (S, Sigma, mu).

    ``kind`` records which underlying space the grid discretizes; the
    half-line, line and counting kinds stand for infinite-measure spaces
    truncated at ``truncation_radius`` (the largest represented |s| or
    index).  A measure with a density d(mu)/d(lambda) enters through its
    weights.  The uniform constructors (``interval``, ``halfline``,
    ``line``, ``counting`` and with them ``extended``) store their one
    weight as a read-only broadcast view of stride 0, not n copies of it;
    a space built from a weights array keeps that array.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    truncation_radius: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if nodes.size == 0:
            raise ValueError("empty discretization")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if self.kind == COUNTING and not np.allclose(weights, 1.0):
            raise ValueError("counting measure requires unit weights")
        if self.kind in _INFINITE_KINDS:
            if self.truncation_radius is None or self.truncation_radius <= 0:
                raise ValueError(f"{self.kind} requires truncation_radius > 0")

    # -- basic quadrature ------------------------------------------------

    @property
    def total_measure(self) -> float:
        """Measure of the discretized (possibly truncated) region."""
        return float(np.sum(self.weights))

    @property
    def max_weight(self) -> float:
        return float(np.max(self.weights))

    @property
    def measure_is_finite(self) -> bool:
        """Whether the *underlying* space has finite total measure."""
        return self.kind == LEBESGUE_INTERVAL

    @property
    def extensible(self) -> bool:
        """Whether ``extended`` applies: a half-line or a line."""
        return self.kind in (LEBESGUE_HALFLINE, LEBESGUE_LINE)

    def norm(self, values, support: slice = slice(None)) -> float:
        """Weighted L2 norm; accepts real or complex node vectors.

        With ``support``, ``values`` are a vector's values on that slice of
        the nodes, and the vector is zero elsewhere.  On all nodes or on
        one node the norm is the full vector's bit for bit: numpy's sums
        add the zeros exactly.  Other supports may change the order of the
        pairwise sum, and with it the last bit.
        """
        v = np.asarray(values)
        w = self.weights[support]
        # on reals v * v equals np.abs(v) ** 2 bit for bit, one pass less;
        # unnamed, the square's temporary takes the product in place
        if np.issubdtype(v.dtype, np.floating):
            return float(np.sqrt(np.sum(w * (v * v))))
        return float(np.sqrt(np.sum(w * np.abs(v) ** 2)))

    def inner(self, u, v) -> float:
        return float(np.real(np.sum(self.weights * np.conj(np.asarray(u)) * np.asarray(v))))

    # -- constructors ----------------------------------------------------

    @classmethod
    def interval(cls, lo: float, hi: float, n: int = DEFAULT_NODES) -> "MeasureSpace":
        """Uniform composite-midpoint grid on [lo, hi]."""
        if hi <= lo:
            raise ValueError("need hi > lo")
        h = (hi - lo) / n
        nodes = lo + (np.arange(n) + 0.5) * h
        return cls(LEBESGUE_INTERVAL, nodes, _uniform_weights(h, n))

    @classmethod
    def interval_graded(cls, hi: float, n: int = DEFAULT_NODES,
                        s_min: float = 1e-9) -> "MeasureSpace":
        """Geometrically graded midpoint grid on (0, hi], refined toward 0.

        Cell edges are log-spaced from ``s_min`` to ``hi`` plus one initial
        cell [0, s_min]; useful when integrands peak at the origin faster
        than a uniform grid can resolve.
        """
        if not (0 < s_min < hi):
            raise ValueError("need 0 < s_min < hi")
        edges = np.concatenate(([0.0], np.geomspace(s_min, hi, n)))
        nodes = 0.5 * (edges[:-1] + edges[1:])
        weights = np.diff(edges)
        return cls(LEBESGUE_INTERVAL, nodes, weights)

    @classmethod
    def halfline(cls, radius: float, n: int = DEFAULT_NODES) -> "MeasureSpace":
        """Uniform midpoint grid on [0, radius), standing for [0, infinity)."""
        nodes, h = _midpoints(LEBESGUE_HALFLINE, radius, n, 0, n)
        return cls(LEBESGUE_HALFLINE, nodes, _uniform_weights(h, n),
                   truncation_radius=radius)

    @classmethod
    def line(cls, radius: float, n: int = DEFAULT_NODES) -> "MeasureSpace":
        """Uniform midpoint grid on (-radius, radius), standing for the line."""
        nodes, h = _midpoints(LEBESGUE_LINE, radius, n, 0, n)
        return cls(LEBESGUE_LINE, nodes, _uniform_weights(h, n),
                   truncation_radius=radius)

    @classmethod
    def counting(cls, n_max: int) -> "MeasureSpace":
        """Counting measure on {1, ..., n_max}, standing for the positive integers."""
        if n_max < 1:
            raise ValueError("n_max must be positive")
        nodes = np.arange(1, n_max + 1, dtype=float)
        return cls(COUNTING, nodes, _uniform_weights(1.0, n_max),
                   truncation_radius=float(n_max))

    def extended(self, factor: float) -> "MeasureSpace":
        """Same node density, truncation radius scaled by ``factor``.

        Used by tail diagnostics; raises unless the space is ``extensible``.
        """
        build = MeasureSpace.halfline if self.kind == LEBESGUE_HALFLINE \
            else MeasureSpace.line
        return build(*self._extension(factor))

    def extended_nodes(self, factor: float, chunk: int):
        """``extended(factor).nodes`` in consecutive pieces of at most
        ``chunk`` nodes, bit for bit, without building that grid."""
        radius, n = self._extension(factor)
        for lo in range(0, n, chunk):
            yield _midpoints(self.kind, radius, n, lo, min(lo + chunk, n))[0]

    def _extension(self, factor: float) -> tuple:
        if not self.extensible:
            raise ValueError(f"cannot extend a {self.kind} space")
        return self.truncation_radius * factor, int(round(self.nodes.size * factor))


def _uniform_weights(h: float, n: int) -> np.ndarray:
    """n equal weights h as one stored value: a read-only view of stride 0.

    numpy reads it like ``np.full(n, h)``; its sums take the same pairwise
    order and give the same bits.
    """
    return np.broadcast_to(np.float64(h), (n,))


def _midpoints(kind: str, radius: float, n: int, lo: int, hi: int) -> tuple:
    """Nodes ``lo`` to ``hi`` of the n-cell midpoint grid of a half-line or
    line, and the cell width; no array is named, so numpy reuses temporaries."""
    if kind == LEBESGUE_HALFLINE:
        h = radius / n
        return (np.arange(lo, hi) + 0.5) * h, h
    h = 2.0 * radius / n
    return -radius + (np.arange(lo, hi) + 0.5) * h, h
