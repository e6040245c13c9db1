"""Nodewise reconstruction, error budgets, effective ill-posedness and rate studies.

The reconstruction is nodewise filtering, f_est = phi(alpha, b) * g_delta,
so everything here reduces to weighted sums over the nodes.  Divergence of
the variance functional on infinite-measure spaces is detected by nested
truncations: if doubling the truncation radius keeps adding mass in
proportion to the added measure, the integral has no finite limit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
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
from .spaces import _PIECE, LEBESGUE_LINE, MeasureSpace, _fold, _leaves


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
    ``vals * f`` are finite, the 2R and 4R ``extensions`` (node formulas,
    on which b is evaluated piece by piece or leaf by leaf, never as a
    whole grid) and the ``tail_sup``.

    The methods are the bodies of ``variance_integral``,
    ``evaluate_deterministic`` and one delta's part of ``monte_carlo_rms``
    (``white_check``, then ``white_weights``).  Each node sum is formed
    leaf by leaf on numpy's pairwise tree (``_leaves``), with the dense
    sum's bits and no node-length temporary.
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

    @cached_property
    def extensions(self) -> tuple:
        """The spaces at the ``_EXTENSIONS`` of R: node formulas, no array."""
        return tuple(map(self.space.extended, _EXTENSIONS))

    def _sup_beyond(self, radius: float, spaces) -> float:
        """b's largest value on ``spaces``' nodes beyond ``radius`` (or -inf),
        read only on the pieces that hold one: the nodes increase, so those
        are the pieces whose first node is below -radius or last above it."""
        def beyond(sp):
            n = sp.weights.size
            for p in (slice(lo, min(lo + _PIECE, n)) for lo in range(0, n, _PIECE)):
                if sp._at(slice(p.start, p.start + 1))[0] < -radius or \
                        sp._at(slice(p.stop - 1, p.stop))[0] > radius:
                    s = sp._at(p)
                    yield np.max(self.b(s[np.abs(s) > radius]), initial=-np.inf)

        return float(np.max([m for sp in spaces for m in beyond(sp)],
                            initial=-np.inf))

    @cached_property
    def tail_sup(self) -> float:
        """b's largest value on the 2R and 4R grids' nodes beyond R;
        infinite where b or the space cannot be extended."""
        if not (self.b.evaluable and self.space.extensible):
            return np.inf
        return self._sup_beyond(self.space.truncation_radius, self.extensions)

    def variance(self, scheme: Scheme, alpha: float) -> VarianceValue:
        """The body of ``variance_integral``; each grid's sum evaluates b
        (on the extensions) and the filter leaf by leaf."""
        b, space, vals = self.b, self.space, self.vals

        def square_sum(weights, values_at):
            return _square_sum(alpha, weights,
                               lambda p: scheme.phi(alpha, values_at(p)))

        if space.extensible and not b.evaluable:
            # fixed tables on an infinite-measure space: judge the tail analytically
            tail_probe = np.geomspace(alpha * 1e-12, alpha, 64)
            filter_floor = float(np.min(np.abs(scheme.phi(alpha, tail_probe))))
            if vanishes_at_infinity(b, space):
                if filter_floor > 0:
                    raise Divergent(
                        f"filter is bounded below by {filter_floor:.3g} on (0, alpha] "
                        "while {b <= alpha} has infinite measure",
                        diagnosis={"alpha": alpha, "filter_floor": filter_floor},
                    )
            else:  # a line has a tail at each end: the higher is judged first
                ends = vals[[0, -1]] if space.kind == LEBESGUE_LINE else vals[-1:]
                for tail_level in sorted(map(float, ends), reverse=True):
                    if tail_level > 0 and abs(scheme.phi(alpha, tail_level)) > 0:
                        raise Divergent(
                            f"declared non-vanishing tail at level {tail_level:.4g} "
                            "where the filter is positive",
                            diagnosis={"alpha": alpha, "tail_level": tail_level},
                        )
        base = square_sum(space.weights, vals.__getitem__)
        if not (space.extensible and b.evaluable) or (
                scheme.truncated and alpha >= self.tail_sup):
            return VarianceValue(base)
        sums, measures = [base], [space.total_measure]
        for sp in self.extensions:
            sums.append(square_sum(sp.weights, lambda p: b(sp._at(p))))
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
                        outer * space.truncation_radius,
                        (space.extended(2 * outer),))):
                raise Divergent(
                    f"variance grows with the truncation radius at alpha={alpha:.4g} "
                    f"(values {sums[0]:.6g}, {sums[1]:.6g}, {sums[2]:.6g})",
                    diagnosis={"alpha": alpha, "sums": sums, "measures": measures},
                )
        return VarianceValue(sums[2], tail_estimate=abs(g2))

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

    def white_weights(self, scheme: Scheme, alpha: float, d: int,
                      groups: tuple) -> float:
        """Row d's exact bias, after its ``white_check``; its weights
        ``w R(b)f phi`` and ``w phi^2`` join the products of ``groups``
        (``_share``).

        The filter is evaluated on b's values once; the weights end at k,
        its last nonzero node + 1.  The bias is summed leaf by leaf, each
        leaf's R(b) f formed in one scratch buffer, which also tells
        whether the cross vector has a nonzero entry on [0, k).  Only then
        is it allocated, and formed in place; otherwise (every cut-off's, as
        the residual is 0 wherever the filter is not) it reads no product.
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
        if crossed:
            cross = residual_f(slice(0, k), np.empty(k))
            np.multiply(np.multiply(w[:k], cross, out=cross), phi_v[:k], out=cross)
            _share(groups[0], d, cross)
        _share(groups[1], d, w[:k] * phi_v[:k] ** 2)
        return float(np.sqrt(_fold(sums, n)))

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
            phi_p = top = None  # not held while the next leaf's are formed
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
    b's largest value on the 8R grid's nodes beyond 4R: the sum has stopped
    growing, and the 4R sum is returned.  A truncated filter whose alpha is
    at or above b's largest value on the 2R and 4R grids' nodes beyond R
    (``_Study.tail_sup``) is exactly 0 on the nodes those grids add, so
    their sums differ by rounding alone: the check is not run, and the base
    sum is returned.  The larger grids are node formulas: b and the filter
    are evaluated on them piece by piece or leaf by leaf.

    Tabulated multipliers cannot be extended, so their tail is judged
    analytically: a vanishing tail puts infinite measure below every
    positive level, which diverges unless the filter vanishes there; a
    non-vanishing tail sits at the end tabulated value (on a line, at
    either end), which diverges whenever the filter is positive there.
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
#: time, k the widest filter's last nonzero node + 1.  A block has a fixed
#: cost, and its draws and product (256 KiB each) stay in a core's L2
#: cache; 2^15 is the smallest of 2^14 .. 2^16 that keeps most of the gain
#: on a 500-node, 4000-replication study
BLOCK = 2**15


def _is_prefix(v: np.ndarray, wide: np.ndarray) -> bool:
    """Whether the nonempty v equals the first ``v.size`` entries of
    ``wide``, bit for bit: the first entry alone, then leaf by leaf, so no
    temporary outgrows a leaf."""
    v, wide = v.view(np.int64), wide.view(np.int64)
    return v.size <= wide.size and v[0] == wide[0] and all(
        np.array_equal(wide[p], v[p]) for p in _leaves(v.size))


def _share(group: list, d: int, v: np.ndarray) -> None:
    """Let row d read the product of its weight vector v in ``group``, a
    list of ``(wide, readers)``, each reader a ``(row, k)`` that sums the
    product's first k columns.  v joins a product whose vector starts with
    v, bit for bit; otherwise v heads a new one and takes in the readers of
    those whose vectors are prefixes of v, whose buffers are dropped.  An
    all-zero v joins none: its sums are 0.0 in every replication."""
    if not np.count_nonzero(v):  # counted in place: np.any would buffer
        return
    for wide, readers in group:
        if _is_prefix(v, wide):
            readers.append((d, v.size))
            return
    kept, readers = [], [(d, v.size)]
    for product in group:
        if _is_prefix(product[0], v):
            readers += product[1]
        else:
            kept.append(product)
    group[:] = kept + [(v, readers)]


def _monte_carlo(rows: list, groups: tuple, space: MeasureSpace,
                 sampler: WhiteNoiseSampler, n_reps: int,
                 threads: int = 1) -> list:
    """One ``McResult`` per ``(delta, bias)`` of ``rows``, all from one set
    of replications: replication r draws stream ``sampler.stream_id + r``
    once, its first k_max values, k_max the widest product's, and each
    product reads its own prefix of them.

    ``groups`` holds the products of the rows' weights, ``w R(b)f phi``
    first and ``w phi^2`` second, as ``_share`` forms them: each block
    forms a product once, and each of its readers sums its first k
    columns, which equal that reader's own product, bit for bit; the row
    sums of that view equal those of a contiguous product.  A row in no
    product of a group (an all-zero vector: every cut-off's cross vector,
    which ``_Study.white_weights`` never forms) sums to 0.0 there in every
    replication.

    ``threads`` workers take contiguous ranges of the replications, none
    empty; each worker's draw and product buffers are allocated by the
    calling thread before the workers start.  Each product is formed in a
    contiguous buffer, so a replication's sums do not depend on the range
    or block that holds it, and neither do the results.  A block costs one
    ``sample_white`` call, and each reader's row sums go straight into
    ``sums`` (``np.add.reduce``, the call ``np.sum`` makes: the same bits,
    no temporary).
    """
    if not rows:
        return []
    if n_reps < 2:
        raise ValueError("need n_reps >= 2")
    # [j, d, r]: <w R(b)f phi, xi> (j = 0), <w phi^2, xi^2> (j = 1)
    # (np.zeros in place of the unread rows' 0.0 raised the peak RSS of a
    # 500-node, 4000-replication study by 0.3 MB)
    sums = np.empty((2, len(rows), n_reps))
    for j, products in enumerate(groups):
        read = {d for _, readers in products for d, _ in readers}
        for d in set(range(len(rows))) - read:
            sums[j, d] = 0.0
    k_max = max([w.size for products in groups for w, _ in products], default=0)
    block = max(1, BLOCK // max(k_max, 1))
    workers = max(1, min(threads, n_reps))
    edges = [n_reps * i // workers for i in range(workers + 1)]
    # each worker's draws and products, allocated here: a pool thread's
    # own allocations would open a malloc arena of its own
    buffers = [(np.empty((block, k_max)), np.empty(block * k_max))
               for _ in range(workers)]

    def part(lo, hi, xi, scratch):
        streams = NoiseStreams(sampler.with_stream(sampler.stream_id + lo),
                               hi - lo)
        for r0 in range(lo, hi, block):
            m = min(block, hi - r0)
            xi_m = sample_white(streams, space, xi[:m], r0 - lo)
            for j, products in enumerate(groups):
                if j:
                    np.square(xi_m, out=xi_m)
                for wide, readers in products:
                    prod = scratch[:m * wide.size].reshape(m, wide.size)
                    np.multiply(wide, xi_m[:, :wide.size], out=prod)
                    for d, k in readers:
                        np.add.reduce(prod[:, :k], axis=1,
                                      out=sums[j, d, r0:r0 + m])

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(part, edges[:-1], edges[1:], *zip(*buffers)))
    else:
        part(0, n_reps, *buffers[0])
    results = []
    for (delta, bias), cross, noise in zip(rows, *sums):
        crosses, noise_sq = 2.0 * delta * cross, delta**2 * noise
        sq_errors = (bias ** 2 - crosses) + noise_sq
        rms = float(np.sqrt(float(np.mean(sq_errors))))
        se_mean = float(np.std(sq_errors, ddof=1) / np.sqrt(n_reps))
        results.append(McResult(
            rms=rms, stderr=se_mean / (2.0 * rms) if rms > 0 else 0.0,
            bias=bias, noise_term=float(np.mean(noise_sq)),
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

    so a replication costs two weighted row sums of its k draws, each
    numpy's pairwise sum (whatever the BLAS); each value agrees with a full
    per-replication |err|_w^2 to a few ulp of bias^2 + delta^2 |phi xi|_w^2.
    A cut-off filter's cross term is exactly zero and is not formed.  This
    is ``white_check``, ``white_weights`` and ``_monte_carlo`` on one row;
    a white ``sweep_deltas`` runs them on all its deltas at once, where the
    cut-off noise sums of every delta read one shared product.
    """
    study, groups = _Study(b, space, f), ([], [])
    study.white_check(scheme, alpha, delta)
    rows = [(delta, study.white_weights(scheme, alpha, 0, groups))]
    return _monte_carlo(rows, groups, space, sampler, n_reps)[0]


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


def _white_sweep(problem: MultiplicationProblem, scheme: Scheme,
                 phi: IndexFunction, deltas, n_reps: int,
                 sampler: WhiteNoiseSampler, profile,
                 threads: int = 1) -> list:
    """Each delta's alpha* and ``McResult``, in order, from one Monte Carlo
    pass.

    Two loops over the deltas, in order, run before any draw.  The first
    chooses each delta's alpha* and runs its ``white_check``, so a failing
    delta's later deltas get no alpha*.  Without a ``profile`` the sweep
    builds D(alpha) itself and drops it once the last alpha* is chosen,
    before that delta's check.  The second forms each delta's
    ``white_weights``, whose vectors ``_share`` puts into the products of
    the pass: an earlier delta's noise weights that equal the first entries
    of a later delta's, bit for bit (every cut-off's), are dropped for the
    later ones.  The study, b's values with it, is dropped before the Monte
    Carlo pass, which then holds only what it reads.
    """
    study = _Study(problem.b, problem.space, problem.f_true)
    if profile is None:
        profile = effective_illposedness(problem.b, problem.space)
    alphas = []
    for delta in deltas:
        alphas.append(choose_alpha(problem, phi, delta, WHITE, profile))
        if len(alphas) == len(deltas):
            profile = None
        study.white_check(scheme, alphas[-1], delta)
    rows, groups = [], ([], [])
    for d, (alpha, delta) in enumerate(zip(alphas, deltas)):
        rows.append((delta, study.white_weights(scheme, alpha, d, groups)))
    del study
    results = _monte_carlo(rows, groups, problem.space, sampler, n_reps,
                           threads)
    return list(zip(alphas, results))


def evaluate_delta(problem: MultiplicationProblem, scheme: Scheme,
                   phi: IndexFunction, delta: float, mode: str,
                   c_phi: float, n_reps: int = 1,
                   sampler: WhiteNoiseSampler = WhiteNoiseSampler(0),
                   profile: IllposednessProfile | None = None, *,
                   _shared=None) -> RateRow:
    """One row of a rate study: alpha* from ``choose_alpha``, error and bound.

    Deterministic mode perturbs the data with the worst admissible noise
    (all mass at the node where the filter is largest, attaining the
    sup-norm of the filter); white mode averages ``n_reps`` Monte Carlo
    replications on the noise streams of ``sampler``.
    The bound column is the simplified at-alpha-star form of the
    a-priori error estimate.

    ``_shared`` is what the ``sweep_deltas`` call that this row belongs to
    found for it: in white mode its ``(alpha*, McResult)`` from
    ``_white_sweep``, in deterministic mode the ``_Study`` of the problem.
    Without it the row is a one-delta sweep's.
    """
    delta = float(delta)
    if mode == WHITE:
        alpha, mc = _shared if _shared is not None else _white_sweep(
            problem, scheme, phi, [delta], n_reps, sampler, profile)[0]
        bound = white_bound_at_star(c_phi, scheme.c_0, phi, alpha,
                                    problem.source_scale)
        return RateRow(delta=delta, alpha_star=alpha, error=mc.rms,
                       stderr=mc.stderr, bias=mc.bias,
                       variance_term=mc.noise_term, bound=bound,
                       violated=bool(mc.rms > bound + 2.0 * mc.stderr))
    alpha_star = choose_alpha(problem, phi, delta, mode, profile)
    bound = deterministic_bound_at_star(c_phi, scheme.c_minus1, phi,
                                        alpha_star, problem.source_scale)
    study = _shared if _shared is not None else _Study(
        problem.b, problem.space, problem.f_true)
    budget = study.deterministic(scheme, alpha_star, delta)
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
    forms every delta's weights (see ``_white_sweep``).  One Monte Carlo
    pass then draws each replication once, replication r from stream
    ``FIRST_STREAM + r`` up to the widest filter's support, and every delta
    reads its own prefix of those draws (common random numbers).  Each row
    is thus the row ``evaluate_delta`` gives on ``WhiteNoiseSampler(seed,
    FIRST_STREAM, distribution)``, and the rows are positively correlated
    across deltas.  ``threads`` workers split the replications into
    contiguous ranges, which does not change the rows.  A deterministic
    sweep evaluates its deltas in turn.
    The slopes fit log(error) and log(phi(alpha*)) against log(delta) on
    the middle 80% of the points; they are None below 4 rows.

    One ``_Study`` finds what all deltas need once: b's values, and in
    white mode the 2R and 4R grids' node formulas and b's largest value on
    them beyond R, found piece by piece.  A deterministic row reads it
    through ``evaluate_delta``, a white row its own ``(alpha*, McResult)``.
    """
    deltas = [float(delta) for delta in deltas]
    if mode == WHITE:
        shared = _white_sweep(problem, scheme, phi, deltas, n_reps,
                              WhiteNoiseSampler(seed, FIRST_STREAM, distribution),
                              None, threads)
    else:
        shared = [_Study(problem.b, problem.space, problem.f_true)] * len(deltas)
    rows = [evaluate_delta(problem, scheme, phi, delta, mode, c_phi,
                           _shared=row)
            for delta, row in zip(deltas, shared)]

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
