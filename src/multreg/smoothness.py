"""Source conditions and the canonical index function built from d_b.

The canonical function is phi*(t) = 1 / mu{ b > t }, tabulated for small t
on a log grid.  It is defined only in the small-t regime controlled by the
hypotheses (infinite measure, vanishing at infinity, b bounded below near
the origin, superlevel measure comparable to |s|); evaluation outside the
table is refused rather than extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInSourceSet, PreconditionFailed, UnboundedRatio
from .indexfuncs import IndexFunction, TableIndex
from .multipliers import Multiplier
from .rearrangement import _distribution, _sorted_view, vanishes_at_infinity
from .spaces import _PIECE, MeasureSpace

#: acceptance band for two-sided "comparable" checks: ratios within [1/K, K]
_RATIO_BAND = 10.0


@dataclass(frozen=True)
class SourceCondition:
    """f = phi(b) * v with a norm bound on the source element v."""

    phi: IndexFunction
    source_element: np.ndarray
    norm_bound: float
    achieved_norm: float


def phi_star(b: Multiplier, space: MeasureSpace) -> TableIndex:
    """Tabulate t -> 1 / d_b(t) on log-spaced levels in [t_min, sup/2].

    Hypotheses checked numerically: the space is of infinite kind, b
    vanishes at infinity, b stays positive on the inner region, the
    superlevel measure mu{b > b(s)} is comparable to |s| on the outer
    region, and |s| * phi*(b(s)) stays in a two-sided band on the outer
    half of the grid.  Violations raise PreconditionFailed naming the
    failed hypothesis.
    """
    if space.measure_is_finite:
        raise PreconditionFailed("phi_star requires an infinite-measure space")
    if not vanishes_at_infinity(b, space):
        raise PreconditionFailed("phi_star requires b vanishing at infinity")

    vals = b.values_on(space)
    abs_s = space._map(np.abs)
    # the smallest |s| with b(s) <= sup/2 separates the inner and outer regions
    cut = float(np.min(abs_s, where=vals <= 0.5 * b.sup_bound, initial=np.inf))
    if cut == np.inf:
        raise PreconditionFailed(
            "multiplier never drops below half its sup on this grid; "
            "increase the truncation radius"
        )
    inner = abs_s <= cut  # cut is some node's |s|
    if np.min(vals, where=inner, initial=np.inf) <= 0:
        raise PreconditionFailed("b must be bounded below near the origin")

    # mu{b > b(s)} comparable to |s| on the outer region (one d_b call for
    # the probes and the table levels, so one sort, of the values in hand);
    # |s| falls, then rises along the increasing nodes, so the outer region
    # is the first i1 nodes (all negative) and the nodes from i2 on
    i1, i2 = int(np.argmax(inner)), abs_s.size - int(np.argmax(inner[::-1]))
    outer = i1 + abs_s.size - i2
    probe_idx = np.linspace(0, outer - 1, min(32, outer)).astype(int)
    probe_idx[probe_idx >= i1] += i2 - i1
    probe_idx = probe_idx[vals[probe_idx] > 0]
    t_min = float(np.min(vals, where=vals > 0, initial=np.inf))
    t_max = 0.5 * b.sup_bound
    ts = np.geomspace(t_min, t_max, 256) if t_min < t_max else np.empty(0)
    d = _distribution(b, space, np.concatenate((vals[probe_idx], ts)), True,
                      lambda: _sorted_view(vals, space.weights, True))
    ratios = d[:probe_idx.size] / abs_s[probe_idx]
    bad = ~((1.0 / _RATIO_BAND <= ratios) & (ratios <= _RATIO_BAND))
    if np.any(bad):
        i = int(np.argmax(bad))
        j = probe_idx[i]  # the nodes before i1 are negative
        raise PreconditionFailed(
            f"superlevel measure not comparable to |s| at s = "
            f"{-abs_s[j] if j < i1 else abs_s[j]:.4g} (ratio {ratios[i]:.4g})"
        )

    if t_min >= t_max:
        raise PreconditionFailed("no room between the smallest value and sup/2")
    d = d[probe_idx.size:]
    if np.any(d <= 0) or np.any(~np.isfinite(d)):
        raise PreconditionFailed("distribution function not positive-finite on the table")
    phi_vals = 1.0 / d
    # d_b is nonincreasing, so phi* is nondecreasing; drop flat steps to keep
    # the table strictly increasing
    keep = np.concatenate(([True], np.diff(phi_vals) > 0))
    if np.sum(keep) < 2:
        raise PreconditionFailed("distribution function is flat over the table range")
    table = TableIndex(ts[keep], phi_vals[keep], name="reciprocal_measure")

    # asymptotics: |s| * phi*(b(s)) within a constant band on the outer
    # half {|s| > max|s| / 2}, the nodes before j1 and from j2 on; a slice
    # is gathered only where some node in it lies outside the table
    near = abs_s <= 0.5 * np.max(abs_s)
    j1 = int(np.argmax(near)) if near.any() else near.size
    j2 = near.size - int(np.argmax(near[::-1]))
    usable, tops, bottoms = 0, [], []
    for half in (slice(0, j1), slice(j2, None)):
        s_h, v_h = abs_s[half], vals[half]
        inside = (v_h >= table.ts[0]) & (v_h <= table.ts[-1]) & (v_h > 0)
        if not inside.all():
            s_h, v_h = s_h[inside], v_h[inside]
        if v_h.size:
            ratios = s_h * np.asarray(table(v_h))
            usable += ratios.size
            tops.append(np.max(ratios))
            bottoms.append(np.min(ratios))
    if usable >= 2 and np.max(tops) > _RATIO_BAND * np.min(bottoms):
        raise PreconditionFailed(
            "phi*(b(s)) is not comparable to 1/|s| on the outer half"
        )
    return table


def source_function(v, b: Multiplier, space: MeasureSpace,
                    phi: IndexFunction) -> np.ndarray:
    """Build f = phi(b) * v on the nodes (phi evaluated on the support of v)."""
    return _source_on(np.asarray(v, float), b.values_on(space), phi)


def _source_on(v: np.ndarray, vals: np.ndarray, phi: IndexFunction,
               out: np.ndarray | None = None) -> np.ndarray:
    """``source_function`` on b's node values ``vals``, formed piece by
    piece into ``out`` (a new array by default): phi takes all of a piece's
    values where v has no zero there, with no gather or scatter, and the
    support's otherwise.  The same bits, as phi acts node by node.  ``out``
    may be v itself, whose zeros are then kept: +0.0 gives the bits of the
    default."""
    f = np.zeros_like(v) if out is None else out
    for lo in range(0, v.size, _PIECE):
        p = slice(lo, lo + _PIECE)
        support = v[p] != 0.0
        if support.all():
            np.multiply(phi(vals[p]), v[p], out=f[p])
        elif support.any():
            f[p][support] = np.asarray(phi(vals[p][support])) * v[p][support]
    return f


def make_source(f, b: Multiplier, space: MeasureSpace, phi: IndexFunction,
                norm_bound: float = 1.0) -> SourceCondition:
    """Solve f = phi(b) v for v and check ||v|| <= norm_bound.

    phi is evaluated only on the support of f, so multipliers whose values
    leave phi's tabulated domain are fine as long as f vanishes there.
    Raises NotInSourceSet carrying the achieved norm otherwise.
    """
    f = np.asarray(f, float)
    vals = b.values_on(space)
    v = np.zeros_like(f)
    support = f != 0.0
    if np.any(support):
        denom = np.asarray(phi(vals[support]))
        if np.any(denom <= 0):
            raise NotInSourceSet(np.inf, norm_bound)
        v[support] = f[support] / denom
    achieved = space.norm(v)
    if achieved > norm_bound * (1 + 1e-9) + 1e-12:
        raise NotInSourceSet(achieved, norm_bound)
    return SourceCondition(phi=phi, source_element=v, norm_bound=norm_bound,
                           achieved_norm=achieved)


def sobolev_norm(f, space: MeasureSpace, p: float) -> float:
    """Weighted norm with weight (1 + |s|^2)^p."""
    if p <= 0:
        raise ValueError("p must be positive")
    f = np.asarray(f, float)
    w = (1.0 + space.nodes**2) ** p
    return float(np.sqrt(np.sum(space.weights * np.abs(f) ** 2 * w)))


def sobolev_equivalence_check(b: Multiplier, space: MeasureSpace, p: float = 1.0,
                              phi: TableIndex | None = None) -> tuple[float, float]:
    """Empirical band c <= (1 + |s|^2) phi*(b(s))^2 <= C on the outer region.

    Membership in the Sobolev class of order p is equivalent to a source
    condition with respect to (a multiple of) phi*^p; the band constants,
    raised to the power p, convert between the two norms.  When the
    multiplier is evaluable the check is repeated on a space with doubled
    truncation radius and raises UnboundedRatio if the band keeps growing.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if phi is None:
        phi = phi_star(b, space)
    band = _band(b, space, phi)
    if b.evaluable and space.extensible:
        # same fixed phi on a domain twice as large: the band must stay put
        wide = space.extended(2.0)
        band_wide = _band(b, wide, phi)
        if band_wide[1] > band[1] * 1.25 + 1e-12:
            raise UnboundedRatio(
                f"sup ratio grew from {band[1]:.4g} to {band_wide[1]:.4g} "
                "under grid extension"
            )
        band = (min(band[0], band_wide[0]), max(band[1], band_wide[1]))
    return band


def _band(b, space, phi):
    vals = b.values_on(space)
    abs_s = space._map(np.abs)
    usable = (vals >= phi.ts[0]) & (vals <= phi.ts[-1]) & (vals > 0)
    if np.sum(usable) < 2:
        raise PreconditionFailed("too few nodes inside the phi* table")
    ratio = (1.0 + abs_s[usable] ** 2) * np.asarray(phi(vals[usable])) ** 2
    c, C = float(np.min(ratio)), float(np.max(ratio))
    if not (0 < c <= C < np.inf):
        raise UnboundedRatio("equivalence ratio not positive and finite")
    return c, C
