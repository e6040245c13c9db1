"""Distribution functions and monotone rearrangements of multipliers.

The discretized multiplier is a weighted multiset of values; both
rearrangements are right-continuous step functions on the cumulative
weight axis, which applies the inf/sup definitions literally to the
discrete data (ties broken by a stable sort over node index).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (DominationNotDetected, RearrangementUndefined,
                     RequiresFiniteMeasure)
from .indexfuncs import IndexFunction, _Derived
from .multipliers import Multiplier, PiecewiseMonotone, Tabulated
from .spaces import LEBESGUE_HALFLINE, MeasureSpace

DECREASING = "decreasing"
INCREASING = "increasing"

#: relative tolerance of the rearrangement comparisons in truncated_shift_check
_SHIFT_TOL = 1e-9


@dataclass(frozen=True)
class Rearrangement:
    """Step function on [0, total): value ``values[k]`` on [knots[k], knots[k+1]).

    ``knots`` has one more entry than ``values`` and starts at 0; it is the
    running sum of the node weights in sorted order.  Queries
    beyond the domain return 0 for decreasing and the top value for
    increasing rearrangements (the literal inf/sup conventions).
    """

    values: np.ndarray
    knots: np.ndarray
    direction: str

    def __post_init__(self):
        if self.knots.size != self.values.size + 1:
            raise ValueError("knots must have len(values) + 1 entries")

    @property
    def total(self) -> float:
        return float(self.knots[-1])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("rearrangements are defined on t >= 0")
        idx = np.searchsorted(self.knots[1:], t_arr, side="right")
        fill = 0.0 if self.direction == DECREASING else float(self.values[-1])
        out = np.where(idx < self.values.size,
                       self.values[np.minimum(idx, self.values.size - 1)], fill)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def superlevel_measure(self, t):
        """Lebesgue measure of {x in [0, total): value(x) > t} (exact)."""
        t_arr = np.asarray(t, dtype=float)
        if self.direction == DECREASING:
            count = _superlevel_count(self.values, t_arr)
        else:
            count_le = np.searchsorted(self.values, t_arr, side="right")
            count = self.values.size - count_le
            # increasing case: the superlevel cells sit at the right end
            out = self.total - self.knots[self.values.size - count]
            return float(out) if np.isscalar(t) else out
        out = self.knots[count]
        return float(out) if np.isscalar(t) else out

    def cells(self):
        """Rows (t_left, t_right, value) for table dumps."""
        return zip(self.knots[:-1], self.knots[1:], self.values)


def distribution_function(b: Multiplier, space: MeasureSpace, t,
                          allow_exact: bool = True):
    """d_b(t) = mu{ b > t }.

    Uses the family's closed form when available (exact on the untruncated
    space).  Otherwise one stable descending sort per call makes each
    {b > t} a prefix of the sorted weights, summed pairwise by ``np.sum``:
    bit-equal to the masked sum over the nodes where the weights in
    {b > t} are equal.
    """
    return _distribution(b, space, t, allow_exact, lambda: _sorted_view(
        b.values_on(space), space.weights, True))


def _distribution(b: Multiplier, space: MeasureSpace, t, allow_exact: bool,
                  descending: Callable[[], tuple]):
    """``distribution_function``, where ``descending()`` gives b's node
    values sorted as ``_sorted_view`` sorts them, and the weights alike; it
    is called only where b has no closed form."""
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("distribution function requires t > 0")
    exact = [b.distribution_exact(float(ti), space) for ti in ts] if allow_exact else [None]
    if None not in exact:
        out = np.array(exact, dtype=float)
    else:
        values, widths = descending()
        counts = _superlevel_count(values, ts)
        out = np.array([float(np.sum(widths[:m])) for m in counts])
    return float(out[0]) if scalar else out


def vanishes_at_infinity(b: Multiplier, space: MeasureSpace) -> bool:
    """True iff d_b(t) is finite for every t > 0: trivially on finite-measure
    spaces, otherwise as the multiplier's tail model declares."""
    return space.measure_is_finite or bool(b.tail_vanishes)


def _superlevel_count(descending: np.ndarray, t):
    """Number of entries of the descending array that exceed t, per t."""
    return descending.size - np.searchsorted(descending[::-1], t, side="right")


def _sorted_view(values: np.ndarray, weights: np.ndarray, descending: bool):
    """Node values sorted stably (ties by node index), weights alike; equal
    weights stored as one value (stride 0) are returned as they are, and a
    copy of the values alone is sorted: ``values[order]`` bit for bit, as a
    stable sort keeps equal keys (+-0.0, NaNs) in node order."""
    if weights.strides == (0,):
        v = np.negative(values) if descending else values.copy()
        v.sort(kind="stable")
        return np.negative(v, out=v) if descending else v, weights
    order = np.argsort(-values if descending else values, kind="stable")
    return values[order], weights[order]


def _sorted_step(values: np.ndarray, weights: np.ndarray, descending: bool) -> Rearrangement:
    v, w = _sorted_view(values, weights, descending)
    knots = np.empty(w.size + 1)
    knots[0] = 0.0
    np.cumsum(w, out=knots[1:])
    return Rearrangement(v, knots, DECREASING if descending else INCREASING)


def _check_decreasing(b: Multiplier, space: MeasureSpace) -> None:
    """Raise RearrangementUndefined unless b_* exists on the space."""
    if not vanishes_at_infinity(b, space):
        raise RearrangementUndefined(
            f"{b.family}: superlevel sets of infinite measure, b_* undefined"
        )


def decreasing_rearrangement(b: Multiplier, space: MeasureSpace) -> Rearrangement:
    """b_*(t) = inf{ tau > 0 : d_b(tau) <= t } on [0, mu(S)).

    Requires b to vanish at infinity when mu(S) is infinite; computed by a
    stable descending sort of node values with cumulative weights as
    abscissae, which is equimeasurable with the discretized b by
    construction.
    """
    _check_decreasing(b, space)
    return _sorted_step(b.values_on(space), space.weights, descending=True)


def increasing_rearrangement(b: Multiplier, space: MeasureSpace) -> Rearrangement:
    """b^*(t) = sup{ tau : mu(b <= tau) <= t }; finite measure spaces only."""
    if not space.measure_is_finite:
        raise RequiresFiniteMeasure(
            "increasing rearrangement requires mu(S) < infinity"
        )
    return _sorted_step(b.values_on(space), space.weights, descending=False)


@dataclass(frozen=True)
class PiecewiseBounds:
    """Sandwich for the increasing rearrangement of a piecewise multiplier."""

    lower: IndexFunction
    upper: IndexFunction
    C: float
    m: int
    dominant_index: int
    window: float  # sandwich verified on (0, window]


def _domination_constant(pieces, k: int, taus: np.ndarray) -> float:
    inv_k = np.array([pieces[k].profile.inverse(t) for t in taus])
    worst = 1.0
    for j, piece in enumerate(pieces):
        if j == k:
            continue
        inv_j = np.array([piece.profile.inverse(t) for t in taus])
        worst = max(worst, float(np.max(inv_j / inv_k)))
    return worst


def piecewise_rearrangement_bounds(b: PiecewiseMonotone) -> PiecewiseBounds:
    """Bracket b^* between b_k and b_k(s / (C m)) near zero.

    The dominating piece k is the candidate whose inverse yields the
    smallest domination constant over a log-spaced probe window; the
    constant must be stable when the window shrinks, otherwise
    DominationNotDetected is raised.  The returned ``window`` is
    the empirically verified prefix (0, s_max].
    """
    if not isinstance(b, PiecewiseMonotone):
        raise TypeError("piecewise_rearrangement_bounds needs a piecewise_monotone multiplier")
    pieces = b.pieces
    m = len(pieces)
    tau_top = 0.5 * min(min(p.edge_value() for p in pieces),
                        b.background.essential_infimum)
    taus = np.geomspace(tau_top * 1e-6, tau_top, 64)
    taus_small = taus / 16.0

    khats = [_domination_constant(pieces, k, taus) for k in range(m)]
    k = int(np.argmin(khats))
    c_base = khats[k]
    c_small = _domination_constant(pieces, k, taus_small)
    if c_small > c_base * 1.10 + 1e-12:
        raise DominationNotDetected(
            f"piece {k}: domination constant grows from {c_base:.4g} to "
            f"{c_small:.4g} as the probe window shrinks"
        )
    C = max(1.0, c_base, c_small)

    prof_k = pieces[k].profile
    upper = prof_k
    scale = 1.0 / (C * m)
    lo, hi = prof_k.domain
    lower = _Derived(f"{prof_k.name}(s/(C*m))",
                     (lo / scale if lo > 0 else 0.0, hi / scale),
                     lambda t: np.asarray(prof_k(t * scale)),
                     lambda y: prof_k.inverse(y) / scale)

    # verify against the numeric increasing rearrangement
    space = MeasureSpace.interval(0.0, b.hi, 2**14)
    star = increasing_rearrangement(b, space)
    h = space.max_weight
    s_max = prof_k.inverse(tau_top)
    if s_max <= 8 * h:
        raise DominationNotDetected(
            "candidate sandwich window is below the grid resolution"
        )
    s_grid = np.geomspace(max(4 * h, s_max * 1e-4), s_max, 256)
    star_vals = star(s_grid)
    upper_vals = upper(np.minimum(s_grid + 2 * h, upper.domain[1]))
    low_args = np.clip(s_grid - 2 * h, 1e-300, lower.domain[1])
    lower_vals = np.where(s_grid - 2 * h > 0, lower(low_args), 0.0)
    ok = (star_vals <= upper_vals * (1 + 1e-9) + 1e-12) & \
         (star_vals >= lower_vals * (1 - 1e-9) - 1e-12)
    if not np.all(ok):
        last_bad = int(np.max(np.nonzero(~ok)[0]))
        if last_bad >= s_grid.size - 1 or s_grid[last_bad] > 0.5 * s_max:
            raise DominationNotDetected(
                "sandwich bounds fail on most of the candidate window"
            )
        s_max = float(s_grid[last_bad + 1])
    return PiecewiseBounds(lower=lower, upper=upper, C=C, m=m,
                           dominant_index=k, window=float(s_max))


def truncated_shift_check(b: Multiplier, space: MeasureSpace, M: float) -> bool:
    """Check (b_M)_* = (b~_M)_* <= b_* for the truncation at level M.

    b~_M kills b on [0, M]; b_M shifts the remainder back to the origin.
    Both rearrangements must agree on the shared domain and stay below
    the rearrangement of b itself, to the relative tolerance ``_SHIFT_TOL``.
    """
    if space.kind != LEBESGUE_HALFLINE:
        raise ValueError("truncated_shift_check is defined on half-line spaces")
    if M < 0:
        raise ValueError("M must be nonnegative")
    vals = b.values_on(space)
    vanish = vanishes_at_infinity(b, space)
    mask = (nodes := space.nodes) > M

    tilde = Tabulated(np.where(mask, vals, 0.0), tail_vanishes=vanish)
    r_tilde = decreasing_rearrangement(tilde, space)
    r_full = decreasing_rearrangement(b, space)

    if not np.any(mask):
        return True  # nothing survives the truncation
    shifted_space = MeasureSpace(
        LEBESGUE_HALFLINE, nodes[mask] - M, space.weights[mask],
        truncation_radius=max(space.truncation_radius - M, space.weights[mask][0]),
    )
    shifted = Tabulated(vals[mask], tail_vanishes=vanish)
    r_shift = decreasing_rearrangement(shifted, shifted_space)

    # probe at cell midpoints of the shifted rearrangement
    ts = 0.5 * (r_shift.knots[:-1] + r_shift.knots[1:])
    a = r_shift(ts)
    scale = 1.0 + np.abs(a)
    if np.any(np.abs(r_tilde(ts) - a) > _SHIFT_TOL * scale):
        return False
    if np.any(a > r_full(ts) * (1 + _SHIFT_TOL) + _SHIFT_TOL):
        return False
    return True
