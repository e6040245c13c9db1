"""Nodewise reconstruction, error budgets, effective ill-posedness and rate studies.

The reconstruction is nodewise filtering, f_est = phi(alpha, b) * g_delta,
so everything here reduces to weighted sums over the nodes.  Divergence of
the variance functional on infinite-measure spaces is detected by nested
truncations: if doubling the truncation radius keeps adding mass in
proportion to the added measure, the integral has no finite limit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (BracketingFailed, CrossCheckFailed, Divergent,
                     DivergentProfile, FilterOverflow, PreconditionFailed)
from .indexfuncs import IndexFunction, solve_increasing
from .multipliers import Multiplier
from .noise import (GAUSSIAN, DeterministicNoise, NoiseStreams,
                    WhiteNoiseSampler, concentrated_noise, sample_white)
from .rearrangement import (_check_decreasing, _distribution, _sorted_view,
                            _superlevel_count, vanishes_at_infinity)
from .schemes import Scheme, require_certified
from .spaces import _PIECE, MeasureSpace


def reconstruct(scheme: Scheme, alpha: float, b: Multiplier,
                space: MeasureSpace, g_delta) -> np.ndarray:
    """The estimate f_est(s_i) = phi(alpha, b(s_i)) * g_delta(s_i)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    vals = b.values_on(space)
    return scheme.phi(alpha, vals) * np.asarray(g_delta)


def bias(scheme: Scheme, alpha: float, b: Multiplier, space: MeasureSpace,
         f) -> float:
    """Profile function: weighted L2 norm of residual(alpha, b) * f."""
    vals = b.values_on(space)
    return space.norm(scheme.residual(alpha, vals) * np.asarray(f))


@dataclass(frozen=True)
class VarianceValue:
    """Stabilized variance integral plus the last-truncation tail estimate."""

    value: float
    tail_estimate: float = 0.0

    def __float__(self):
        return self.value


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


def _square_sum(alpha, weights, phi_v):
    """``np.sum(weights * phi_v ** 2)``, bit for bit, formed leaf by leaf;
    ``phi_v`` is the filter's values, or a function that gives them on a
    slice of the nodes.  Raises FilterOverflow unless finite."""
    on = phi_v if callable(phi_v) else phi_v.__getitem__
    with np.errstate(divide="ignore", over="ignore"):
        out = _fold([np.sum(weights[p] * on(p) ** 2)
                     for p in _leaves(weights.size)], weights.size)
    if not np.isfinite(out):
        raise FilterOverflow(
            f"filter values overflow at alpha = {alpha:.3g}; the requested "
            "regularization regime is below double-precision resolution"
        )
    return out


#: truncation radii, relative to the space's, of the divergence check
_EXTENSIONS = (2.0, 4.0)
#: relative growth per doubling of the radius that the divergence check flags
_GROWTH_THRESHOLD = 0.01


class _Study:
    """What every delta of a study of b on a space (and a solution f) reads,
    each found once, on first use: b's values, whether the exact data
    ``vals * f`` are finite, the ``tail_sup`` and the 2R and 4R ``grids``.

    The methods are the bodies of ``variance_integral``,
    ``evaluate_deterministic`` and one delta's part of ``monte_carlo_rms``
    (``mc_weights``: ``white_check``, then ``white_weights``).  Each node
    sum is formed leaf by leaf on numpy's pairwise tree (``_leaves``), with
    the dense sum's bits and no node-length temporary.
    """

    def __init__(self, b: Multiplier, space: MeasureSpace, f=None):
        self.b, self.space = b, space
        self.f = None if f is None else np.asarray(f, float)

    @cached_property
    def vals(self) -> np.ndarray:
        return self.b.values_on(self.space)

    @cached_property
    def finite(self) -> bool:
        """Whether ``vals * f`` is finite, taken leaf by leaf.  Where the
        filter is zero, the error f - 0 * (vals f) and the bias term 1 * f
        are then f up to the sign of a zero."""
        vals, f = self.vals, self.f
        return all(np.isfinite(vals[p] * f[p]).all() for p in _leaves(vals.size))

    def _sup_beyond(self, radius: float, factors) -> float:
        """b's largest value on the nodes beyond ``radius`` of the grids at
        ``factors`` times R, taken on pieces of ``_PIECE`` nodes, no
        grid built (-inf if there is none)."""
        return float(np.max([
            np.max(self.b(s[np.abs(s) > radius]), initial=-np.inf)
            for factor in factors
            for s in self.space.extended_nodes(factor, _PIECE)]))

    @cached_property
    def tail_sup(self) -> float:
        """b's largest value on the 2R and 4R grids' nodes beyond R;
        infinite where b or the space cannot be extended."""
        if not (self.b.evaluable and self.space.extensible):
            return np.inf
        return self._sup_beyond(self.space.truncation_radius, _EXTENSIONS)

    @cached_property
    def grids(self) -> tuple:
        """``(space, b's values)`` at each of the ``_EXTENSIONS`` of R."""
        return tuple((sp, self.b.values_on(sp)) for sp in
                     map(self.space.extended, _EXTENSIONS))

    def variance(self, scheme: Scheme, alpha: float) -> VarianceValue:
        """The body of ``variance_integral``; each grid's sum evaluates the
        filter leaf by leaf."""
        b, space, vals = self.b, self.space, self.vals

        def square_sum(weights, values):
            return _square_sum(alpha, weights,
                               lambda p: scheme.phi(alpha, values[p]))

        if space.extensible and not b.evaluable:
            # fixed tables on an infinite-measure space: judge the tail analytically
            tail_probe = np.geomspace(alpha * 1e-12, alpha, 64)
            filter_floor = float(np.min(np.abs(scheme.phi(alpha, tail_probe))))
            tail_level = float(vals[-1])
            if vanishes_at_infinity(b, space):
                if filter_floor > 0:
                    raise Divergent(
                        f"filter is bounded below by {filter_floor:.3g} on (0, alpha] "
                        "while {b <= alpha} has infinite measure",
                        diagnosis={"alpha": alpha, "filter_floor": filter_floor},
                    )
            elif tail_level > 0 and abs(scheme.phi(alpha, tail_level)) > 0:
                raise Divergent(
                    f"declared non-vanishing tail at level {tail_level:.4g} where "
                    "the filter is positive",
                    diagnosis={"alpha": alpha, "tail_level": tail_level},
                )
        base = square_sum(space.weights, vals)
        if not (space.extensible and b.evaluable) or (
                scheme.truncated and alpha >= self.tail_sup):
            return VarianceValue(base)
        sums, measures = [base], [space.total_measure]
        for sp, values in self.grids:
            sums.append(square_sum(sp.weights, values))
            measures.append(sp.total_measure)
        g1, g2 = sums[1] - sums[0], sums[2] - sums[1]
        grew_twice = (sums[1] > sums[0] * (1 + _GROWTH_THRESHOLD)
                      and sums[2] > sums[1] * (1 + _GROWTH_THRESHOLD))
        if grew_twice:
            dens1 = g1 / (measures[1] - measures[0])
            dens2 = g2 / (measures[2] - measures[1])
            # a truncated filter that is 0 on the 8R grid beyond 4R
            # has stopped growing: it keeps the 4R sum
            outer = _EXTENSIONS[-1]
            if dens1 > 0 and dens2 > 0.5 * dens1 and not (
                    scheme.truncated and alpha >= self._sup_beyond(
                        outer * space.truncation_radius, (2 * outer,))):
                raise Divergent(
                    f"variance grows with the truncation radius at alpha={alpha:.4g} "
                    f"(values {sums[0]:.6g}, {sums[1]:.6g}, {sums[2]:.6g})",
                    diagnosis={"alpha": alpha, "sums": sums, "measures": measures},
                )
        return VarianceValue(sums[2], tail_estimate=abs(g2))

    def mc_weights(self, scheme: Scheme, alpha: float,
                   delta: float) -> _McWeights:
        """One delta's Monte Carlo weights, once its variance integral is
        known to converge (see ``monte_carlo_rms``)."""
        self.white_check(scheme, alpha, delta)
        return self.white_weights(scheme, alpha, delta)

    def white_check(self, scheme: Scheme, alpha: float, delta: float) -> None:
        """A white delta's divergence check, none at delta = 0: ``variance``,
        a Divergent raised as DivergentProfile.  It holds no node-length
        array beyond the study's: the base sum and its FilterOverflow test
        evaluate the filter leaf by leaf."""
        if delta > 0:
            try:
                self.variance(scheme, alpha)
            except Divergent as exc:
                raise DivergentProfile(str(exc), diagnosis=exc.diagnosis) from exc

    def white_weights(self, scheme: Scheme, alpha: float,
                      delta: float) -> _McWeights:
        """One delta's ``_McWeights``, after its ``white_check``.

        The filter is evaluated on b's values once; the weights end at k,
        its last nonzero node + 1.  The bias is summed leaf by leaf, each
        leaf's R(b) f formed in one scratch buffer, which also tells
        whether the cross vector w R(b)f phi has a nonzero entry on [0, k).
        Only then is it allocated, and formed in place; otherwise (every
        cut-off's, as the residual is 0 wherever the filter is not) it is
        an empty array.
        """
        vals, f, w, n = self.vals, self.f, self.space.weights, self.vals.size
        with np.errstate(divide="ignore", over="ignore"):
            phi_v = scheme.phi(alpha, vals)
        k = _nonzero_end(phi_v)

        def residual_f(p, out):  # R(b) f on the nodes p, into out
            scheme.residual_into(alpha, vals[p], phi_v[p], out)
            return np.multiply(out, f[p], out=out)

        x, sums, crossed = np.empty(min(n, _PIECE)), [], False
        for p in _leaves(n):
            x_p = residual_f(p, x[:p.stop - p.start])
            on = slice(p.start, max(p.start, min(p.stop, k)))  # below k
            crossed = crossed or bool(np.any(w[on] * x_p[:on.stop - on.start]
                                             * phi_v[on]))
            np.multiply(w[p], np.multiply(x_p, x_p, out=x_p), out=x_p)
            sums.append(np.sum(x_p))
        cross = np.empty(k if crossed else 0)
        if crossed:
            residual_f(slice(0, k), cross)
            np.multiply(np.multiply(w[:k], cross, out=cross), phi_v[:k], out=cross)
        return _McWeights(delta, float(np.sqrt(_fold(sums, n))),
                          (cross, w[:k] * phi_v[:k] ** 2))

    def deterministic(self, scheme: Scheme, alpha: float, delta: float,
                      noise: DeterministicNoise | None = None) -> ErrorBudget:
        """The body of ``evaluate_deterministic``; without ``noise``, the
        worst admissible one: all mass at the node where |phi| is largest.

        One pass over the leaves of numpy's pairwise tree (``_leaves``)
        evaluates the filter once on each node and forms the leaf's bias
        and error sums, each term in one leaf buffer, squared and weighted
        in place (the residual by ``Scheme.residual_into``, the exact data
        as vals * f, then filtered and subtracted from f).  With finite
        data, a truncated filter is not evaluated on a leaf where b is at
        most alpha: it is zero there.  Where the filter is zero the
        residual is exactly 1 (1 - t * 0, or the cut-off's indicator), so
        with finite data both terms are w f^2 there, formed once.  The
        error on the noise's support is patched into the leaves that hold
        it: as they are formed for a given noise; for the worst one, into
        the worst node's leaf, held until the pass ends and then summed
        again.  The folded sums are those of the dense expressions
        f - phi (vals f + delta noise) and R(b) f, bit for bit, for finite
        filter values.
        """
        finite, vals, f, space = self.finite, self.vals, self.f, self.space
        w, n = space.weights, vals.size
        skip = finite and scheme.truncated

        def patch(noise):  # the error's w x^2 on the noise's support
            on = noise.support
            phi_on = scheme.phi(alpha, vals[on])
            x = f[on] - phi_on * (vals[on] * f[on] + delta * noise.values)
            return ((*on.indices(n)[:2], w[on] * (x * x)),
                    delta * space.norm(phi_on * noise.values, on))

        def summed(p, x_p):  # np.sum of the leaf p's error, patched
            lo, hi, values = support
            a, b = max(p.start, lo), min(p.stop, hi)
            if a < b:
                x_p[a - p.start:b - p.start] = values[a - lo:b - lo]
            return np.sum(x_p)

        support, noise_term = ((0, 0, None), None) if noise is None \
            else patch(noise)
        x, held = np.empty(min(n, _PIECE)), np.empty(min(n, _PIECE))
        leaves, bias, error, tops, worst = _leaves(n), [], [], [], []
        for p in leaves:
            x_p = x[:p.stop - p.start]
            if skip and np.max(vals[p]) <= alpha:  # truncated: 0 on {b <= alpha}
                top, i = [0.0], 0
            else:
                phi_p = scheme.phi(alpha, vals[p])
                i = int(np.argmax(top := np.abs(phi_p)))  # the first largest
            tops.append(top[i])
            worst.append(p.start + i)
            if finite and top[i] == 0:
                np.multiply(w[p], np.multiply(f[p], f[p], out=x_p), out=x_p)
                bias.append(np.sum(x_p))
            else:
                scheme.residual_into(alpha, vals[p], phi_p, x_p)
                x_p *= f[p]
                np.multiply(w[p], np.multiply(x_p, x_p, out=x_p), out=x_p)
                bias.append(np.sum(x_p))
                np.multiply(vals[p], f[p], out=x_p)
                np.subtract(f[p], np.multiply(phi_p, x_p, out=x_p), out=x_p)
                np.multiply(w[p], np.multiply(x_p, x_p, out=x_p), out=x_p)
            error.append(summed(p, x_p))
            if noise is None and np.argmax(tops) == len(tops) - 1:
                x, held = held, x  # the worst node's leaf so far
        if noise is None:
            j = int(np.argmax(tops))
            support, noise_term = patch(concentrated_noise(space, worst[j]))
            error[j] = summed(leaves[j], held[:leaves[j].stop - leaves[j].start])
        return ErrorBudget(bias=float(np.sqrt(_fold(bias, n))),
                           noise_term=noise_term,
                           total=float(np.sqrt(_fold(error, n))))


def variance_integral(scheme: Scheme, alpha: float, b: Multiplier,
                      space: MeasureSpace) -> VarianceValue:
    """Integral of |phi(alpha, b)|^2 dmu, with divergence detection.

    Spaces that are not ``extensible`` (intervals and counting) give plain
    weighted sums.  On truncated half-line/line spaces the sum is
    re-evaluated at radii R, 2R and 4R; if it grows by more than
    ``_GROWTH_THRESHOLD`` twice in a row and the per-measure growth density
    does not decay, the integral is declared Divergent (carrying the three
    values as diagnosis), unless a truncated filter's alpha is at or above
    b's largest value on the 8R grid's nodes beyond 4R (found in pieces):
    the sum has stopped growing, and the 4R sum is returned.  A truncated
    filter whose alpha is at or above b's largest value on the 2R and 4R
    grids' nodes beyond R (``_Study.tail_sup``) is exactly 0 on the nodes
    those grids add, so their sums differ by rounding alone: the check is
    not run, nor are the grids built, and the base sum is returned.

    Tabulated multipliers cannot be extended, so their tail is judged
    analytically: a vanishing tail puts infinite measure below every
    positive level, which diverges unless the filter vanishes there; a
    non-vanishing tail sits at the last tabulated value, which diverges
    whenever the filter is positive at that level.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _Study(b, space).variance(scheme, alpha)


@dataclass(frozen=True)
class IllposednessProfile:
    """D(alpha) with the counting/measure upper bounds on a grid, and
    ``d_at``, which evaluates D at any alpha > 0."""

    alpha_grid: np.ndarray
    d_values: np.ndarray
    upper_bounds: np.ndarray
    d_at: Callable[[float], float]

    def __post_init__(self):
        if np.any(np.diff(self.alpha_grid) <= 0):
            raise ValueError("alpha grid must be strictly increasing")
        if np.any(np.diff(self.d_values) > 1e-12 * (1 + self.d_values[:-1])):
            raise ValueError("D(alpha) must be nonincreasing")

    @classmethod
    def from_callable(cls, fn, alpha_grid) -> "IllposednessProfile":
        """Synthetic profile from a closed-form D; used in tests and bounds."""
        alpha_grid = np.asarray(alpha_grid, float)
        d = np.array([fn(a) for a in alpha_grid])
        return cls(alpha_grid, d, np.full_like(d, np.inf), lambda a: float(fn(a)))


#: smallest multiplier value whose reciprocal square is representable
_SQUARE_FLOOR = 1.2e-154


def effective_illposedness(b: Multiplier, space: MeasureSpace,
                           alpha_grid=None) -> IllposednessProfile:
    """D(alpha) = (integral of b_*^{-2} over {b_* > alpha})^(1/2).

    On the discretized space D is a step function that jumps at the node
    values: D(alpha)^2 is the running sum of w / b^2 down the decreasing
    rearrangement, taken over the values above alpha.  The profile's
    ``d_at`` evaluates it exactly at any alpha; it is 0 from the largest
    value on.  On the grid it is cross-validated with the direct-domain sum
    of w_i / b_i^2 over {b_i > alpha}; the two agree by the
    measure-transform identity (here, exactly: the rearrangement is the
    same weighted multiset).  ``upper_bounds`` holds the simple bound
    sqrt(d_b(alpha)) / alpha.

    The default grid stays above the floor where 1/b^2 overflows double
    precision (severely smoothing multipliers underflow fast).  Where only
    the running sum overflows (many values just above that floor), it is
    taken divided by an exact 4^m and D is sqrt(sum) * 2^m.  Where D still
    overflows (explicit grids below that floor) FilterOverflow is raised
    instead of emitting infinities.
    """
    _check_decreasing(b, space)
    # the profile holds prefix through a sweep: taken before the temporaries
    # below, it leaves no hole in the heap when they are freed (the sorted
    # values it also holds are the sort's own array, not a copy)
    n = space.weights.size
    prefix = np.empty(n + 1)
    vals = b.values_on(space)
    if alpha_grid is None:
        lo = max(float(np.min(vals, where=vals > 0, initial=np.inf)), _SQUARE_FLOOR)
        hi = float(b.sup_bound) * (1 - 1e-9)
        if lo >= hi:
            raise PreconditionFailed(
                "degenerate multiplier range: no alpha grid between min b and sup b")
        alpha_grid = np.geomspace(lo, hi, 64)
    alpha_grid = np.asarray(alpha_grid, float)
    if np.any(np.diff(alpha_grid) <= 0):  # the binning below needs the order
        raise ValueError("alpha grid must be strictly increasing")

    # b_* and its cell widths, the node weights in its order (not the
    # differences of running sums, which lose small weights)
    r_vals, widths = _sorted_view(vals, space.weights, True)
    terms = prefix[1:]  # widths / b_*^2, then their running sum in place
    scale = 1.0  # D = sqrt(prefix) * scale
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # {b_* > alpha} is a prefix of the descending rearrangement
        prefix[0] = 0.0
        np.cumsum(np.divide(widths, np.square(r_vals, out=terms), out=terms),
                  out=terms)
        positive = int(_superlevel_count(r_vals, 0.0))
        if not np.isfinite(prefix[positive]):
            # only the sum overflows, and it is below 2^top: sum the terms
            # over 4^m and take D = sqrt(sum) 2^m, the same bits as the
            # plain sum's wherever that one is finite
            top = positive.bit_length() + 2 + int(np.max(
                np.frexp(widths[:positive])[1]
                - 2 * np.frexp(r_vals[:positive])[1]))
            scale = 2.0 ** min(max(-(-(top - 1023) // 2), 1), 511)
            np.cumsum(np.divide(widths / scale**2, np.square(r_vals, out=terms),
                                out=terms), out=terms)
        d_sq = prefix[_superlevel_count(r_vals, alpha_grid)]
    overflow = ~np.isfinite(d_sq)
    if np.any(overflow):
        raise FilterOverflow(
            f"1/b^2 overflows at alpha = {alpha_grid[np.argmax(overflow)]:.3g}: "
            "D(alpha) is beyond double precision there"
        )
    d_b = _distribution(b, space, alpha_grid, True, lambda: (r_vals, widths))
    # domain side, without the sort: w / b^2 binned by the number of grid
    # points below each node, then summed over the bins above each alpha;
    # piece by piece, as it is only compared to 1e-9
    binned = np.zeros(alpha_grid.size + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, n, _PIECE):
            v, w = vals[lo:lo + _PIECE], space.weights[lo:lo + _PIECE]
            binned += np.bincount(np.searchsorted(alpha_grid, v, side="left"),
                                  weights=w / scale**2 / v**2, minlength=binned.size)
        from_domain = np.cumsum(binned[::-1])[::-1][1:]
    if np.any(np.abs(d_sq - from_domain) > 1e-9 * (1.0 + from_domain)):
        raise CrossCheckFailed(
            "rearrangement- and domain-side variance integrals disagree"
        )
    return IllposednessProfile(
        alpha_grid, np.sqrt(d_sq) * scale, np.sqrt(d_b) / alpha_grid,
        lambda a: float(np.sqrt(prefix[_superlevel_count(r_vals, a)]) * scale))


def _solve_monotone(fn, target, bracket, phi, label):
    """Root of the increasing fn = target on ``bracket`` clipped to phi's
    domain.  Only a probe that decreases is an error: fn may be flat up to
    rounding, as phi - delta D is below the smallest node value, where D
    is constant."""
    lo = bracket[0]
    if phi.domain[0] > 0:
        lo = max(lo, phi.domain[0] * (1 + 1e-9))
    hi = min(bracket[1], phi.domain[1])
    vals = np.array([fn(a) for a in np.geomspace(lo, hi, 9)])
    if np.any(np.diff(vals) < 0):
        raise PreconditionFailed(f"{label} decreases on the bracket")
    if not (vals[0] <= target <= vals[-1]):
        raise BracketingFailed(
            f"{label}: target {target:.6g} outside [{vals[0]:.6g}, {vals[-1]:.6g}] "
            f"on the bracket [{lo:.3g}, {hi:.3g}]"
        )
    return solve_increasing(fn, target, lo, hi)


def choose_alpha_deterministic(phi: IndexFunction, delta: float,
                               bracket=(1e-12, 1.0)) -> float:
    """A-priori choice: the smallest alpha in the bracket (clipped to phi's
    domain) with alpha * phi(alpha) >= delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return _solve_monotone(lambda a: a * float(phi(a)), delta, bracket, phi,
                           "alpha * phi(alpha)")


def choose_alpha_white(phi: IndexFunction, profile: IllposednessProfile,
                       delta: float) -> float:
    """A-priori choice under white noise: the smallest alpha, up to the
    profile's largest, with phi(alpha) >= delta * D(alpha).

    phi - delta D is increasing with upward jumps where D steps down, so
    alpha* may be a node value.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")

    def gap(a):
        return float(phi(a)) - delta * profile.d_at(a)

    return _solve_monotone(gap, 0.0, (1e-12, float(profile.alpha_grid[-1])),
                           phi, "phi(alpha) - delta D(alpha)")


def deterministic_error_bound(c_phi: float, c_minus1: float, phi: IndexFunction,
                              delta: float, alpha: float,
                              source_scale: float = 1.0) -> float:
    """C_phi * phi(alpha) + C_-1 * delta / alpha (bias scaled for ||v|| != 1)."""
    return c_phi * source_scale * float(phi(alpha)) + c_minus1 * delta / alpha


def deterministic_bound_at_star(c_phi: float, c_minus1: float, phi: IndexFunction,
                                alpha_star: float, source_scale: float = 1.0) -> float:
    return 2.0 * max(c_phi * source_scale, c_minus1) * float(phi(alpha_star))


def white_error_bound(c_phi: float, c_0: float, phi: IndexFunction,
                      profile: IllposednessProfile, delta: float, alpha: float,
                      source_scale: float = 1.0) -> float:
    """RMS bound sqrt((C_phi phi(alpha))^2 + delta^2 (C_0+1)^2 D(alpha)^2)."""
    term_b = c_phi * source_scale * float(phi(alpha))
    term_n = delta * (c_0 + 1.0) * profile.d_at(alpha)
    return float(np.hypot(term_b, term_n))


def white_bound_at_star(c_phi: float, c_0: float, phi: IndexFunction,
                        alpha_star: float, source_scale: float = 1.0) -> float:
    return np.sqrt(2.0) * max(c_phi * source_scale, c_0 + 1.0) * float(phi(alpha_star))


@dataclass(frozen=True)
class ErrorBudget:
    bias: float
    noise_term: float  # delta * ||phi(b) xi||
    total: float


@dataclass(frozen=True)
class McResult:
    rms: float
    stderr: float
    bias: float
    noise_term: float  # mean delta^2 ||phi(b) xi||^2
    cross_term_mean: float
    cross_term_stderr: float


def _nonzero_end(x: np.ndarray) -> int:
    """One past the last nonzero entry of x; 0 if there is none."""
    if x[-1] != 0:
        return x.size
    nonzero = x[::-1] != 0
    last = int(np.argmax(nonzero))
    return x.size - last if nonzero[last] else 0


def evaluate_deterministic(scheme: Scheme, alpha: float, b: Multiplier,
                           space: MeasureSpace, f, delta: float,
                           noise: DeterministicNoise) -> ErrorBudget:
    """Error of one reconstruction from data corrupted by a fixed noise,
    evaluated leaf by leaf with the dense expressions' bits
    (``_Study.deterministic``)."""
    return _Study(b, space, f).deterministic(scheme, alpha, delta, noise)


#: values per Monte Carlo block: max(1, BLOCK // k) replications at a
#: time, k the widest filter's last nonzero node + 1
BLOCK = 8192


@dataclass(frozen=True)
class _McWeights:
    """One delta's exact bias and the weights ``(w R(b)f phi, w phi^2)`` of
    its two sums on the filter's first k nodes, k its last nonzero + 1.
    The cross vector is empty where it would be all zero; in a sweep, the
    noise vector may be a view of a later delta's (see ``_Sweep``)."""

    delta: float
    bias: float
    sum_w: tuple


def _is_prefix(v: np.ndarray, wide: np.ndarray) -> bool:
    """Whether v equals the first ``v.size`` entries of ``wide``, bit for bit."""
    return v.size <= wide.size and np.array_equal(
        wide[:v.size].view(np.int64), v.view(np.int64))


def _shared_products(vectors: list) -> list:
    """``[(wide, [(i, k_i), ...]), ...]``: each nonzero vector i of
    ``vectors`` reads the product of the first ``wide`` whose first k_i
    entries it equals bit for bit, widest first."""
    products = []
    for i in sorted(range(len(vectors)), key=lambda i: -vectors[i].size):
        v = vectors[i]
        if not v.any():
            continue
        for wide, readers in products:
            if _is_prefix(v, wide):
                readers.append((i, v.size))
                break
        else:
            products.append((v, [(i, v.size)]))
    return products


def _monte_carlo(weights: list, space: MeasureSpace,
                 sampler: WhiteNoiseSampler, n_reps: int,
                 threads: int = 1) -> list:
    """One ``McResult`` per entry of ``weights``, all from one set of
    replications: replication r draws stream ``sampler.stream_id + r`` once,
    its first k_max values, k_max the widest filter's, and each delta reads
    its own prefix of them.

    An all-zero weight vector (every cut-off's ``w R(b)f phi``, which
    ``_Study.white_weights`` passes as an empty array) sums to 0.0 in every
    replication; it is in no product, and its sum is never formed, so k_max
    is read from the noise weights.  A vector that equals the first k_d
    entries of a wider one, bit for bit, reads that one's product
    (``_shared_products``), also where it is a view of it, as in a sweep:
    each block forms it once, and the delta sums its first k_d columns.
    Every cut-off's ``w phi^2`` does, as the filter is 1/b wherever it is
    nonzero.  The row sums of that view equal those of a contiguous product.

    ``threads`` workers take contiguous ranges of the replications, none
    empty; each worker's draw and product buffers are allocated by the
    calling thread before the workers start.  Each product is formed in a
    contiguous buffer, so a replication's sums do not depend on the range
    or block that holds it, and neither do the results.
    """
    if not weights:
        return []
    if n_reps < 2:
        raise ValueError("need n_reps >= 2")
    # [j, d, r]: <w R(b)f phi, xi> (j = 0), <w phi^2, xi^2> (j = 1)
    # (np.zeros in place of the unread rows' 0.0 raised the peak RSS of a
    # 500-node, 4000-replication study by 0.3 MB)
    sums = np.empty((2, len(weights), n_reps))
    shared = [_shared_products([w.sum_w[j] for w in weights]) for j in (0, 1)]
    for j, products in enumerate(shared):
        read = {d for _, readers in products for d, _ in readers}
        for d in set(range(len(weights))) - read:
            sums[j, d] = 0.0
    k_max = max(w.sum_w[1].size for w in weights)
    rows = max(1, BLOCK // max(k_max, 1))
    workers = max(1, min(threads, n_reps))
    edges = [n_reps * i // workers for i in range(workers + 1)]
    # each worker's draws and products, allocated here: a pool thread's
    # own allocations would open a malloc arena of its own
    buffers = [(np.empty((rows, k_max)), np.empty(rows * k_max))
               for _ in range(workers)]

    def part(lo, hi, xi, scratch):
        streams = NoiseStreams(sampler.with_stream(sampler.stream_id + lo),
                               hi - lo)
        for r0 in range(lo, hi, rows):
            m = min(rows, hi - r0)
            xi_m = sample_white(streams, space, xi[:m], r0 - lo)
            for j, products in enumerate(shared):
                if j:
                    np.square(xi_m, out=xi_m)
                for wide, readers in products:
                    prod = scratch[:m * wide.size].reshape(m, wide.size)
                    np.multiply(wide, xi_m[:, :wide.size], out=prod)
                    for d, k in readers:
                        sums[j, d, r0:r0 + m] = np.sum(prod[:, :k], axis=1)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(part, edges[:-1], edges[1:], *zip(*buffers)))
    else:
        part(0, n_reps, *buffers[0])
    results = []
    for w, cross, noise in zip(weights, *sums):
        crosses, noise_sq = 2.0 * w.delta * cross, w.delta**2 * noise
        sq_errors = (w.bias ** 2 - crosses) + noise_sq
        rms = float(np.sqrt(float(np.mean(sq_errors))))
        se_mean = float(np.std(sq_errors, ddof=1) / np.sqrt(n_reps))
        results.append(McResult(
            rms=rms, stderr=se_mean / (2.0 * rms) if rms > 0 else 0.0,
            bias=w.bias, noise_term=float(np.mean(noise_sq)),
            cross_term_mean=float(np.mean(crosses)),
            cross_term_stderr=float(np.std(crosses, ddof=1) / np.sqrt(n_reps))))
    return results


def monte_carlo_rms(scheme: Scheme, alpha: float, b: Multiplier,
                    space: MeasureSpace, f, delta: float,
                    sampler: WhiteNoiseSampler, n_reps: int) -> McResult:
    """RMS error over replications with disjoint noise streams.

    The squared bias enters exactly; the variance and the cross term
    2*delta*<R(b)f, phi(b)xi> are averaged empirically.  Raises
    DivergentProfile when the variance integral of the underlying problem
    diverges (the truncated sum would otherwise silently depend on the
    truncation radius).

    Replication r uses noise stream ``sampler.stream_id + r``, but only up
    to the filter's last nonzero node k: beyond it err == R(b) f and
    phi(b) xi == 0 exactly.  All n_reps streams are seeded in one pass and
    drawn in blocks of BLOCK // k replications.  The error
    err = R(b) f - delta phi(b) xi splits its squared norm into three sums,

        |err|_w^2 = bias^2 - 2 delta <w R(b)f phi, xi> + delta^2 <w phi^2, xi^2>,

    so a replication costs two weighted row sums of its k draws, each one
    ``np.sum`` (pairwise, whatever the BLAS); each value agrees with a full
    per-replication |err|_w^2 to a few ulp of bias^2 + delta^2 |phi xi|_w^2.
    A cut-off filter's cross term is exactly zero and is not formed.  A white
    ``sweep_deltas`` runs the same kernel on all its deltas at once, where
    the cut-off noise sums of every delta read one shared product.
    """
    weights = _Study(b, space, f).mc_weights(scheme, alpha, delta)
    return _monte_carlo([weights], space, sampler, n_reps)[0]


# ---------------------------------------------------------------------------
# rate studies

@dataclass(frozen=True)
class MultiplicationProblem:
    """A concrete instance: multiplier, space, true solution."""

    b: Multiplier
    space: MeasureSpace
    f_true: np.ndarray
    name: str = ""
    source_scale: float = 1.0  # ||v|| when the source element is not normalized
    phi: IndexFunction | None = None  # index function of f_true = phi(b) v


@dataclass(frozen=True)
class RateRow:
    delta: float
    alpha_star: float
    error: float
    stderr: float
    bias: float
    variance_term: float
    bound: float
    violated: bool


@dataclass(frozen=True)
class RateStudyResult:
    rows: tuple
    fitted_slope: float | None
    theoretical_slope: float | None

    @property
    def violations(self) -> int:
        return sum(r.violated for r in self.rows)


def fit_loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log y against log x on the middle points.

    Trims a tenth of the points, rounded up, from each end (endpoint
    transients); returns None if fewer than two points remain or any value
    is nonpositive.
    """
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    n = xs.size
    k = int(np.ceil(n * 0.1))
    if n - 2 * k < 2:
        k = 0
    xs, ys = xs[k:n - k], ys[k:n - k]
    if xs.size < 2 or np.any(xs <= 0) or np.any(ys <= 0):
        return None
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    return float(slope)


DETERMINISTIC = "deterministic"
WHITE = "white"
#: replication r of a white sweep draws noise stream FIRST_STREAM + r
FIRST_STREAM = 100_000


def choose_alpha(problem: MultiplicationProblem, phi: IndexFunction,
                 delta: float, mode: str,
                 profile: IllposednessProfile | None = None) -> float:
    """A-priori alpha*: alpha phi(alpha) = delta on (1e-12, min(1, sup b)] if
    deterministic, phi(alpha) = delta D(alpha) if white (D from ``profile``)."""
    if mode == DETERMINISTIC:
        return choose_alpha_deterministic(
            phi, delta, bracket=(1e-12, min(1.0, float(problem.b.sup_bound))))
    if mode == WHITE:
        if profile is None:
            profile = effective_illposedness(problem.b, problem.space)
        return choose_alpha_white(phi, profile, delta)
    raise ValueError(f"unknown mode '{mode}'")


class _Sweep:
    """What the rows of one sweep share: in deterministic mode the
    ``_Study`` of the problem (``study``), in white mode ``white``, each
    delta's alpha* and ``McResult`` from one Monte Carlo pass.

    A white sweep runs two loops over its deltas, in order, before any
    draw.  The first chooses each delta's alpha* and runs its
    ``white_check`` (any grid build included), so a failing delta's later
    deltas get no alpha*.  Without a ``profile`` the sweep builds D(alpha)
    itself and drops it once the last alpha* is chosen, before that
    delta's check; the checks' 2R and 4R grids are dropped after the loop.
    The second forms each delta's ``white_weights``; an earlier delta's
    noise weights that equal the first entries of a later delta's, bit for
    bit (every cut-off's), become a view of the later ones.  The study,
    b's values with it, is dropped before the Monte Carlo pass, which then
    holds only what it reads.
    """

    def __init__(self, problem: MultiplicationProblem, scheme: Scheme,
                 phi: IndexFunction, deltas, mode: str, n_reps: int,
                 sampler: WhiteNoiseSampler, profile, threads: int = 1):
        study = _Study(problem.b, problem.space, problem.f_true)
        if mode != WHITE:
            self.study = study
            return
        if profile is None:
            profile = effective_illposedness(problem.b, problem.space)
        alphas = []
        for delta in deltas:
            alphas.append(choose_alpha(problem, phi, delta, WHITE, profile))
            if len(alphas) == len(deltas):
                profile = None
            study.white_check(scheme, alphas[-1], delta)
        vars(study).pop("grids", None)  # only the checks read them
        weights = []
        for alpha, delta in zip(alphas, deltas):
            new = study.white_weights(scheme, alpha, delta)
            noise = new.sum_w[1]
            weights = [replace(w, sum_w=(w.sum_w[0], noise[:w.sum_w[1].size]))
                       if _is_prefix(w.sum_w[1], noise) else w
                       for w in weights]
            weights.append(new)
        del study
        results = _monte_carlo(weights, problem.space, sampler, n_reps, threads)
        self.white = dict(zip(deltas, zip(alphas, results)))


def evaluate_delta(problem: MultiplicationProblem, scheme: Scheme,
                   phi: IndexFunction, delta: float, mode: str,
                   c_phi: float, n_reps: int = 1,
                   sampler: WhiteNoiseSampler = WhiteNoiseSampler(0),
                   profile: IllposednessProfile | None = None, *,
                   _sweep: _Sweep | None = None) -> RateRow:
    """One row of a rate study: alpha* from ``choose_alpha``, error and bound.

    Deterministic mode perturbs the data with the worst admissible noise
    (all mass at the node where the filter is largest, attaining the
    sup-norm of the filter); white mode averages ``n_reps`` Monte Carlo
    replications on the noise streams of ``sampler``.
    The bound column is the simplified at-alpha-star form of the
    a-priori error estimate.

    ``_sweep`` is the ``_Sweep`` of the ``sweep_deltas`` call that this row
    belongs to; without it the row is a one-delta sweep's.
    """
    delta = float(delta)
    if _sweep is None:
        _sweep = _Sweep(problem, scheme, phi, [delta], mode, n_reps, sampler,
                        profile)
    if mode == WHITE:
        alpha, mc = _sweep.white[delta]
        bound = white_bound_at_star(c_phi, scheme.c_0, phi, alpha,
                                    problem.source_scale)
        return RateRow(delta=delta, alpha_star=alpha, error=mc.rms,
                       stderr=mc.stderr, bias=mc.bias,
                       variance_term=mc.noise_term, bound=bound,
                       violated=bool(mc.rms > bound + 2.0 * mc.stderr))
    alpha_star = choose_alpha(problem, phi, delta, mode, profile)
    bound = deterministic_bound_at_star(c_phi, scheme.c_minus1, phi,
                                        alpha_star, problem.source_scale)
    budget = _sweep.study.deterministic(scheme, alpha_star, delta)
    return RateRow(delta=delta, alpha_star=alpha_star,
                   error=budget.total, stderr=0.0, bias=budget.bias,
                   variance_term=budget.noise_term, bound=bound,
                   violated=bool(budget.total > bound * (1 + 1e-9)))


def sweep_deltas(problem: MultiplicationProblem, scheme: Scheme,
                 phi: IndexFunction, deltas, mode: str, c_phi: float,
                 n_reps: int = 1, seed: int = 0, threads: int = 1,
                 distribution: str = GAUSSIAN) -> RateStudyResult:
    """One ``evaluate_delta`` row per delta, in order, and the fitted slopes.

    A white sweep first chooses alpha* and checks the variance integral of
    every delta in order, so a failing sweep raises its first failing
    delta's failure before any noise is drawn.  It then drops D(alpha) and
    forms every delta's weights (see ``_Sweep``).  One Monte Carlo pass then
    draws each replication once, replication r from stream
    ``FIRST_STREAM + r`` up to the widest filter's support, and every delta
    reads its own prefix of those draws (common random numbers).  Each row
    is thus the row ``evaluate_delta`` gives on ``WhiteNoiseSampler(seed,
    FIRST_STREAM, distribution)``, and the rows are positively correlated
    across deltas.  ``threads`` workers split the replications into
    contiguous ranges, which does not change the rows.  A deterministic
    sweep evaluates its deltas in turn.
    The slopes fit log(error) and log(phi(alpha*)) against log(delta) on
    the middle 80% of the points; they are None below 4 rows.

    Every row reads one ``_Sweep``, whose ``_Study`` finds each array that
    all deltas need once: b's values, and in white mode b's largest value
    beyond R, found in pieces, and the 2R and 4R grids that the divergence
    check reads, built only if a delta runs it.
    """
    deltas = [float(delta) for delta in deltas]
    sweep = _Sweep(problem, scheme, phi, deltas, mode, n_reps,
                   WhiteNoiseSampler(seed, FIRST_STREAM, distribution),
                   None, threads)
    rows = [evaluate_delta(problem, scheme, phi, delta, mode, c_phi,
                           _sweep=sweep)
            for delta in deltas]

    fitted = theoretical = None
    if len(rows) >= 4:
        fitted = fit_loglog_slope(deltas, [r.error for r in rows])
        theoretical = fit_loglog_slope(
            deltas,
            [problem.source_scale * float(phi(r.alpha_star)) for r in rows])
    return RateStudyResult(rows=tuple(rows), fitted_slope=fitted,
                           theoretical_slope=theoretical)


def rate_study(problem: MultiplicationProblem, scheme: Scheme,
               phi: IndexFunction, deltas, n_reps: int, mode: str,
               seed: int = 0) -> RateStudyResult:
    """Empirical error against delta with the matching a-priori choice.

    The scheme must pass :func:`schemes.require_certified`, as in
    ``runner.run``. Each row records the a-priori error bound at alpha*
    and a violation flag; deltas run from largest to smallest.
    """
    deltas = np.asarray(sorted(deltas, reverse=True), float)
    if deltas.size < 4:
        raise ValueError("a rate study needs at least 4 delta values")
    if np.any(deltas <= 0):
        raise ValueError("deltas must be positive")

    cert = require_certified(scheme, phi)
    return sweep_deltas(problem, scheme, phi, deltas, mode, cert.c_phi,
                        n_reps=n_reps, seed=seed)
