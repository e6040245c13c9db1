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
_PIECE = 2**14  # most nodes in one piece of MeasureSpace._pieces


@dataclass(frozen=True, init=False)
class MeasureSpace:
    """Nodes and nonnegative quadrature weights for (S, Sigma, mu).

    ``kind`` records which underlying space the grid discretizes; the
    half-line, line and counting kinds stand for infinite-measure spaces
    truncated at ``truncation_radius`` (the largest represented |s| or
    index).  A measure with a density d(mu)/d(lambda) enters through its
    weights.  The uniform constructors (``interval``, ``halfline``,
    ``line``, ``counting`` and with them ``extended``) store their node
    formula, a node-by-node function of the index, and their one weight as
    a read-only view of stride 0; a space built from arrays keeps them.
    """

    kind: str
    weights: np.ndarray
    truncation_radius: float | None
    _nodes: object

    def __init__(self, kind: str, nodes, weights, truncation_radius=None):
        weights = np.asarray(weights, dtype=float)
        nodes = nodes if callable(nodes) else np.asarray(nodes, dtype=float)
        vars(self).update(kind=kind, weights=weights, _nodes=nodes,
                          truncation_radius=truncation_radius)
        if weights.ndim != 1 or not callable(nodes) and nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if weights.size == 0:
            raise ValueError("empty discretization")
        # each node above the one before, piece by piece: then no node is
        # NaN, -inf fails at the first, and +inf can only be a piece's last;
        # a uniform formula whose step separates its nodes needs no walk
        if not (isinstance(nodes, _Uniform) and nodes.separates(weights.size)):
            last = -np.inf
            for _, s in self._pieces():
                if not (last < s[0] and np.all(s[1:] > s[:-1]) and s[-1] < np.inf):
                    raise ValueError("nodes must be finite" if not np.isfinite(s).all()
                                     else "nodes must be strictly increasing")
                last = s[-1]
        w = weights[:1] if weights.strides == (0,) else weights  # one value
        if not (np.min(w) >= 0 and np.max(w) < np.inf):
            raise ValueError("weights must be nonnegative and finite")
        if self.kind == COUNTING and not np.allclose(w, 1.0):
            raise ValueError("counting measure requires unit weights")
        r = self.truncation_radius
        if r is not None and not np.isfinite(r):
            raise ValueError("truncation_radius must be finite")
        if self.kind in _INFINITE_KINDS and (r is None or r <= 0):
            raise ValueError(f"{self.kind} requires truncation_radius > 0")

    @property
    def nodes(self) -> np.ndarray:
        """The stored array, or the formula's values, built on each access."""
        return self._map(lambda s: s) if callable(self._nodes) else self._nodes

    def _at(self, p: slice) -> np.ndarray:
        """The nodes of the slice p: the formula's values on its indices, or
        the stored array's slice."""
        return (self._nodes(np.arange(p.start, p.stop)) if callable(self._nodes)
                else self._nodes[p])

    def _pieces(self):
        """``(slice, nodes)`` of consecutive pieces of at most ``_PIECE`` nodes."""
        n = self.weights.size
        for lo in range(0, n, _PIECE):
            p = slice(lo, min(lo + _PIECE, n))
            yield p, self._at(p)

    def _map(self, fn) -> np.ndarray:
        """``fn(nodes)`` for a node-by-node ``fn``, evaluated on the pieces
        into one array: no node array, nor a full-length temporary of fn."""
        out = np.empty(self.weights.size)
        for p, s in self._pieces():
            out[p] = fn(s)
        return out

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
        # summed leaf by leaf (``_leaves``), no temporary outgrows a leaf
        if np.issubdtype(v.dtype, np.floating):
            return float(np.sqrt(_fold([np.sum(w[p] * (v[p] * v[p]))
                                        for p in _leaves(v.size)], v.size)))
        return float(np.sqrt(_fold([np.sum(w[p] * np.abs(v[p]) ** 2)
                                    for p in _leaves(v.size)], v.size)))

    def inner(self, u, v) -> float:
        return float(np.real(np.sum(self.weights * np.conj(np.asarray(u)) * np.asarray(v))))

    # -- constructors ----------------------------------------------------

    @classmethod
    def interval(cls, lo: float, hi: float, n: int = DEFAULT_NODES) -> "MeasureSpace":
        """Uniform composite-midpoint grid on [lo, hi]."""
        if hi <= lo:
            raise ValueError("need hi > lo")
        h = (hi - lo) / n
        return cls(LEBESGUE_INTERVAL, _Uniform(lo, h), _uniform_weights(h, n))

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
        h = radius / n
        return cls(LEBESGUE_HALFLINE, _Uniform(0.0, h), _uniform_weights(h, n),
                   truncation_radius=radius)

    @classmethod
    def line(cls, radius: float, n: int = DEFAULT_NODES) -> "MeasureSpace":
        """Uniform midpoint grid on (-radius, radius), standing for the line."""
        h = 2.0 * radius / n
        return cls(LEBESGUE_LINE, _Uniform(-radius, h), _uniform_weights(h, n),
                   truncation_radius=radius)

    @classmethod
    def counting(cls, n_max: int) -> "MeasureSpace":
        """Counting measure on {1, ..., n_max}, standing for the positive integers."""
        if n_max < 1:
            raise ValueError("n_max must be positive")
        return cls(COUNTING, _Uniform(0.5, 1.0), _uniform_weights(1.0, n_max),
                   truncation_radius=float(n_max))

    def extended(self, factor: float) -> "MeasureSpace":
        """Same node density, truncation radius scaled by ``factor``: a node
        formula and one weight, no array.

        Used by tail diagnostics; raises unless the space is ``extensible``.
        """
        if not self.extensible:
            raise ValueError(f"cannot extend a {self.kind} space")
        build = self.halfline if self.kind == LEBESGUE_HALFLINE else self.line
        return build(self.truncation_radius * factor,
                     int(round(self.weights.size * factor)))


@dataclass(frozen=True)
class _Uniform:
    """The node formula of the uniform constructors: node k is
    offset + (k + 1/2) step, rounded as written (for the counting space,
    offset 1/2 and step 1 give k + 1 exactly)."""

    offset: float
    step: float

    def __call__(self, k: np.ndarray) -> np.ndarray:
        x = k + 0.5
        x *= self.step
        x += self.offset
        return x

    def separates(self, n: int) -> bool:
        """Whether the formula's n nodes are finite and strictly increasing,
        read off the two end nodes and the step.  With k + 1/2 exact
        (n < 2^52) and the step positive, the rounded nodes do not
        decrease, so all lie between the end nodes, within M = max|node|.
        Each rounding moves a node by at most eps/2 of |(k + 1/2) step| <=
        2M + step and of |node|, so consecutive nodes stay apart where the
        step exceeds 8 eps M.  A counting space, a half-line, a line or an
        interval from 0 of fewer than 2^49 nodes passes, and so do the
        ``extended`` grids of as many."""
        ends = self(np.array([0, n - 1]))
        return bool(n < 2**52 and np.isfinite(ends).all() and
                    self.step > 8 * np.finfo(float).eps * np.max(np.abs(ends)))


def _half(n: int) -> int:
    """Where numpy's pairwise sum splits a node of n > 128 values: at half,
    rounded down to a multiple of 8."""
    return n // 2 - n // 2 % 8


def _leaves(n: int, cap: int = _PIECE) -> list:
    """The slices of numpy's pairwise-sum tree over n values that hold at
    most ``cap`` values, ``cap`` >= 128, and whose parent holds more, in
    order.  ``np.sum`` of a leaf is its subtree's sum, so ``_fold`` of the
    leaves' sums is ``np.sum`` of the n values bit for bit, formed one leaf
    at a time (Higham, SIAM J. Sci. Comput. 14, 1993)."""
    if n <= cap:
        return [slice(0, n)]
    half = _half(n)
    return _leaves(half, cap) + [slice(p.start + half, p.stop + half)
                                 for p in _leaves(n - half, cap)]


def _fold(sums, n: int, cap: int = _PIECE) -> float:
    """The sum of n values from the sums of their ``_leaves(n, cap)``, added
    as numpy adds them."""
    sums = iter(sums)

    def node(m):
        return next(sums) if m <= cap else node(_half(m)) + node(m - _half(m))

    return float(node(n))


def _uniform_weights(h: float, n: int) -> np.ndarray:
    """n equal weights h as one stored value: a read-only view of stride 0.

    numpy reads it like ``np.full(n, h)``; its sums take the same pairwise
    order and give the same bits.
    """
    return np.broadcast_to(np.float64(h), (n,))
