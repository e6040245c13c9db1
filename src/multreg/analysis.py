"""Nodewise reconstruction, error budgets, effective ill-posedness and rate studies.

The reconstruction is nodewise filtering, f_est = phi(alpha, b) * g_delta,
so everything here reduces to weighted sums over the nodes.  Divergence of
the variance functional on infinite-measure spaces is detected by nested
truncations: if doubling the truncation radius keeps adding mass in
proportion to the added measure, the integral has no finite limit.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (BracketingFailed, CrossCheckFailed, Divergent,
                     DivergentProfile, FilterOverflow, PreconditionFailed)
from .indexfuncs import IndexFunction, solve_increasing
from .multipliers import Multiplier
from .noise import (GAUSSIAN, DeterministicNoise, NoiseStreams,
                    WhiteNoiseSampler, concentrated_noise, sample_white)
from .rearrangement import (_superlevel_count, decreasing_rearrangement,
                            distribution_function, vanishes_at_infinity)
from .schemes import Scheme, require_certified
from .spaces import MeasureSpace


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


def _variance_sum(scheme, alpha, weights, vals):
    with np.errstate(divide="ignore", over="ignore"):
        out = float(np.sum(weights * scheme.phi(alpha, vals) ** 2))
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


def _extended_grid(b: Multiplier, space: MeasureSpace, factor: float) -> tuple:
    """``(weights, b values, total measure)`` at ``factor`` times the radius."""
    sp = space.extended(factor)
    return sp.weights, b.values_on(sp), sp.total_measure


def variance_integral(scheme: Scheme, alpha: float, b: Multiplier,
                      space: MeasureSpace, *, _extended=None) -> VarianceValue:
    """Integral of |phi(alpha, b)|^2 dmu, with divergence detection.

    Spaces that are not ``extensible`` (intervals and counting) give plain
    weighted sums.  On truncated half-line/line spaces the sum is
    re-evaluated at radii R, 2R and 4R; if it grows by more than
    ``_GROWTH_THRESHOLD`` twice in a row and the per-measure growth density
    does not decay, the integral is declared Divergent (carrying the three
    values as diagnosis).  The 2R and 4R grids are built one at a time,
    unless the caller passes them built as the private ``_extended``
    (``sweep_deltas`` builds them once for all its deltas).

    Tabulated multipliers cannot be extended, so their tail is judged
    analytically: a vanishing tail puts infinite measure below every
    positive level, which diverges unless the filter vanishes there; a
    non-vanishing tail sits at the last tabulated value, which diverges
    whenever the filter is positive at that level.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    vals = b.values_on(space)
    if not space.extensible:
        return VarianceValue(_variance_sum(scheme, alpha, space.weights, vals))

    if b.evaluable:
        grids = _extended if _extended is not None else \
            (_extended_grid(b, space, factor) for factor in _EXTENSIONS)
        sums = [_variance_sum(scheme, alpha, space.weights, vals)]
        measures = [space.total_measure]
        for weights, values, measure in grids:
            sums.append(_variance_sum(scheme, alpha, weights, values))
            measures.append(measure)
        g1, g2 = sums[1] - sums[0], sums[2] - sums[1]
        grew_twice = (sums[1] > sums[0] * (1 + _GROWTH_THRESHOLD)
                      and sums[2] > sums[1] * (1 + _GROWTH_THRESHOLD))
        if grew_twice:
            dens1 = g1 / (measures[1] - measures[0])
            dens2 = g2 / (measures[2] - measures[1])
            if dens1 > 0 and dens2 > 0.5 * dens1:
                raise Divergent(
                    f"variance grows with the truncation radius at alpha={alpha:.4g} "
                    f"(values {sums[0]:.6g}, {sums[1]:.6g}, {sums[2]:.6g})",
                    diagnosis={"alpha": alpha, "sums": sums, "measures": measures},
                )
        return VarianceValue(sums[2], tail_estimate=abs(g2))

    # fixed tables on an infinite-measure space: judge the tail analytically
    tail_probe = np.geomspace(alpha * 1e-12, alpha, 64)
    filter_floor = float(np.min(np.abs(scheme.phi(alpha, tail_probe))))
    if vanishes_at_infinity(b, space):
        if filter_floor > 0:
            raise Divergent(
                f"filter is bounded below by {filter_floor:.3g} on (0, alpha] while "
                "{b <= alpha} has infinite measure",
                diagnosis={"alpha": alpha, "filter_floor": filter_floor},
            )
        return VarianceValue(_variance_sum(scheme, alpha, space.weights, vals))
    tail_level = float(vals[-1])
    if tail_level > 0 and abs(scheme.phi(alpha, tail_level)) > 0:
        raise Divergent(
            f"declared non-vanishing tail at level {tail_level:.4g} where the "
            "filter is positive",
            diagnosis={"alpha": alpha, "tail_level": tail_level},
        )
    return VarianceValue(_variance_sum(scheme, alpha, space.weights, vals))


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
    precision (severely smoothing multipliers underflow fast).  Where the
    integral still overflows (explicit grids below that floor, or many
    values just above it) FilterOverflow is raised instead of emitting
    infinities.
    """
    # the profile holds these through a sweep: taken before the temporaries
    # below, they leave no hole in the heap when those are freed
    n = space.weights.size
    r_vals, prefix = np.empty(n), np.empty(n + 1)
    rearr = decreasing_rearrangement(b, space)  # raises if b does not vanish
    vals = b.values_on(space)
    if alpha_grid is None:
        lo = max(float(np.min(vals[vals > 0])), _SQUARE_FLOOR)
        hi = float(b.sup_bound) * (1 - 1e-9)
        if lo >= hi:
            raise PreconditionFailed(
                "degenerate multiplier range: no alpha grid between min b and sup b")
        alpha_grid = np.geomspace(lo, hi, 64)
    alpha_grid = np.asarray(alpha_grid, float)
    if np.any(np.diff(alpha_grid) <= 0):  # the binning below needs the order
        raise ValueError("alpha grid must be strictly increasing")

    widths = rearr.widths  # not np.diff(knots), which loses small weights
    r_vals[:] = rearr.values
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # {b_* > alpha} is a prefix of the descending rearrangement
        prefix[0] = 0.0
        np.cumsum(widths / r_vals ** 2, out=prefix[1:])
        d_sq = prefix[_superlevel_count(r_vals, alpha_grid)]
        # domain side, without the sort: w / b^2 binned by the number of grid
        # points below each node, then summed over the bins above each alpha
        below = np.searchsorted(alpha_grid, vals, side="left")
        binned = np.bincount(below, weights=space.weights / vals ** 2,
                             minlength=alpha_grid.size + 1)
        from_domain = np.cumsum(binned[::-1])[::-1][1:]
    overflow = ~np.isfinite(d_sq)
    if np.any(overflow):
        raise FilterOverflow(
            f"1/b^2 overflows at alpha = {alpha_grid[np.argmax(overflow)]:.3g}: "
            "D(alpha) is beyond double precision there"
        )
    if np.any(np.abs(d_sq - from_domain) > 1e-9 * (1.0 + from_domain)):
        raise CrossCheckFailed(
            "rearrangement- and domain-side variance integrals disagree"
        )
    bounds = np.sqrt(distribution_function(b, space, alpha_grid,
                                           rearrangement=rearr)) / alpha_grid
    return IllposednessProfile(
        alpha_grid, np.sqrt(d_sq), bounds,
        lambda a: float(np.sqrt(prefix[_superlevel_count(r_vals, a)])))


def _solve_monotone(fn, target, bracket, phi, label):
    """Root of the increasing fn = target on ``bracket`` clipped to phi's domain."""
    lo = bracket[0]
    if phi.domain[0] > 0:
        lo = max(lo, phi.domain[0] * (1 + 1e-9))
    hi = min(bracket[1], phi.domain[1])
    vals = np.array([fn(a) for a in np.geomspace(lo, hi, 9)])
    if np.any(np.diff(vals) <= 0):
        raise PreconditionFailed(f"{label} is not strictly increasing on the bracket")
    if not (vals[0] <= target <= vals[-1]):
        raise BracketingFailed(
            f"{label}: target {target:.6g} outside [{vals[0]:.6g}, {vals[-1]:.6g}] "
            f"on the bracket [{lo:.3g}, {hi:.3g}]"
        )
    return solve_increasing(fn, target, lo, hi)


def choose_alpha_deterministic(phi: IndexFunction, delta: float,
                               bracket=(1e-12, 1.0)) -> float:
    """A-priori choice: solve alpha * phi(alpha) = delta by bisection."""
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

    alpha = _solve_monotone(gap, 0.0, (1e-12, float(profile.alpha_grid[-1])),
                            phi, "phi(alpha) - delta D(alpha)")
    # the bisection stops within a few doubles of the smallest one
    while gap(below := float(np.nextafter(alpha, 0.0))) >= 0:
        alpha = below
    return alpha


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


@dataclass(frozen=True)
class _ExactData:
    """What every delta of a deterministic sweep reads: b's values, the
    exact data ``signal = vals * f``, and whether the signal is finite.

    Where the filter is zero, the error f - 0 * signal and the bias term
    1 * f are f up to the sign of a zero if the signal is finite there.
    """

    vals: np.ndarray
    signal: np.ndarray
    finite: bool


def _exact_data(b: Multiplier, space: MeasureSpace, f: np.ndarray) -> _ExactData:
    vals = b.values_on(space)
    signal = vals * f
    return _ExactData(vals, signal, bool(np.isfinite(signal).all()))


def _nonzero_span(x: np.ndarray) -> tuple:
    """``(lo, hi)`` with every nonzero of x in ``x[lo:hi]``; ``(x.size, 0)``
    if there is none."""
    nonzero = x != 0
    lo = int(np.argmax(nonzero))
    if not nonzero[lo]:
        return x.size, 0
    return lo, x.size - int(np.argmax(nonzero[::-1]))


def evaluate_deterministic(scheme: Scheme, alpha: float, b: Multiplier,
                           space: MeasureSpace, f, delta: float,
                           noise: DeterministicNoise, *,
                           _filtered=None) -> ErrorBudget:
    """Error of one reconstruction from data corrupted by a fixed noise.

    ``_filtered``: the caller's ``(_exact_data(b, space, f),
    scheme.phi(alpha, vals))``, so that they are not evaluated twice.

    Error and bias are evaluated only on the span of nodes that holds the
    filter's nonzeros and the noise's support.  Off the noise's support
    the noise adds +0.0, which at most flips the sign of a zero.  Where
    the filter is zero the residual is exactly 1 (1 - t * 0, or the
    cut-off and truncated forms), so with a finite signal both squared
    terms are w f^2 outside the span.  One length-n buffer holds w f^2
    off the span; each term is computed into it on the span and squared
    and weighted in place.  The buffer is then the dense w x^2 array, so
    the norms equal those of the dense expressions
    f - phi (vals f + delta noise) and R(b) f bit for bit, for finite
    filter values.
    """
    f = np.asarray(f, float)
    if _filtered is None:
        data = _exact_data(b, space, f)
        _filtered = data, scheme.phi(alpha, data.vals)
    data, phi_v = _filtered
    n, on = phi_v.size, noise.support
    first, stop, _ = on.indices(n)
    lo, hi = _nonzero_span(phi_v) if data.finite else (0, n)
    lo, hi = min(lo, first), max(hi, stop)
    span = slice(lo, hi)
    w = space.weights
    w_sq = np.empty(n)  # space.norm's w * (x * x) of the dense x
    for off in (slice(None, lo), slice(hi, None)):
        np.multiply(f[off], f[off], out=w_sq[off])
        w_sq[off] *= w[off]
    x = w_sq[span]  # each term on the span, then its w x^2

    def norm():
        np.multiply(w[span], np.multiply(x, x, out=x), out=x)
        return float(np.sqrt(np.sum(w_sq)))

    np.multiply(scheme.residual(alpha, data.vals[span]), f[span], out=x)
    bias_ = norm()
    np.subtract(f[span], np.multiply(phi_v[span], data.signal[span], out=x),
                out=x)
    x[first - lo:stop - lo] = \
        f[on] - phi_v[on] * (data.signal[on] + delta * noise.values)
    return ErrorBudget(bias=bias_,
                       noise_term=delta * space.norm(phi_v[on] * noise.values, on),
                       total=norm())


#: values per Monte Carlo block: max(1, BLOCK // S) replications at a
#: time, S the width each row is reduced over (see ``_pairwise_spine``)
BLOCK = 8192

#: numpy sums a float64 row pairwise (Higham, SIAM J. Sci. Comput. 14,
#: 1993): more than this many values split at n2 = n//2 - (n//2) % 8, fewer
#: are one leaf summed by eight accumulators
_PAIRWISE_LEAF = 128


def _pairwise_spine(n: int, k: int) -> tuple:
    """``(S, siblings)``: the deepest node ``[0, S)`` with ``S >= k`` on the
    leftmost spine of numpy's pairwise tree over n values, and the ranges
    ``(lo, hi)`` of the right siblings along the spine below the root,
    deepest first.

    The row sum ``np.sum(x)`` is then ``np.sum(x[:S])`` plus the sums of
    ``x[lo:hi]`` in that order, bit for bit: the tree adds exactly those
    values in that order, and ``np.sum``, which starts from +0.0, never
    returns -0.0.
    """
    size, siblings = n, []
    while size > _PAIRWISE_LEAF:
        half = size // 2 - (size // 2) % 8
        if half < k:
            break
        siblings.append((half, size))
        size = half
    return size, siblings[::-1]


def _row_sums(prefix: np.ndarray, tail_sums=()) -> np.ndarray:
    """``np.sum(x, axis=1)`` of rows x given as their first S values and the
    sibling sums of their common tail (see ``_pairwise_spine``).

    A zero tail needs no sibling sums: adding +0.0 changes nothing, as
    ``np.sum`` never returns -0.0.
    """
    sums = np.sum(prefix, axis=1)
    for tail in tail_sums:
        sums += tail
    return sums


def _squared_norms(weighted: np.ndarray, tail_sums=()) -> list:
    """``space.norm(x) ** 2`` per row of the weighted squares of x, given as
    for ``_row_sums``."""
    # float ** 2 (libm pow), not np.square: they differ in the last bit
    return [float(v) ** 2 for v in np.sqrt(_row_sums(weighted, tail_sums))]


def monte_carlo_rms(scheme: Scheme, alpha: float, b: Multiplier,
                    space: MeasureSpace, f, delta: float,
                    sampler: WhiteNoiseSampler, n_reps: int,
                    *, _extended=None) -> McResult:
    """RMS error over replications with disjoint noise streams.

    The squared bias enters exactly; the variance and the cross term
    2*delta*<R(b)f, phi(b)xi> are averaged empirically.  Raises
    DivergentProfile when the variance integral of the underlying problem
    diverges (the truncated sum would otherwise silently depend on the
    truncation radius); ``_extended`` hands ``variance_integral`` its
    prebuilt extended grids.

    Replication r uses noise stream ``sampler.stream_id + r``, but only up
    to the filter's last nonzero node k: beyond it err == f and
    phi(b) xi == 0 exactly.  All n_reps streams are seeded in one pass.
    Blocks of BLOCK // S replications are reduced over the first S >= k
    values only, S a node of numpy's pairwise summation tree; the rest of
    each row is the same in every replication (the tail w f^2, or zeros),
    so its subtree sums are taken once per call and added in the tree's
    order.
    Each value equals the one of a full per-replication draw bit for bit.
    """
    if n_reps < 2:
        raise ValueError("need n_reps >= 2")
    f = np.asarray(f, float)
    vals = b.values_on(space)
    if delta > 0:
        try:
            variance_integral(scheme, alpha, b, space, _extended=_extended)
        except Divergent as exc:
            raise DivergentProfile(str(exc), diagnosis=exc.diagnosis) from exc
    phi_v = scheme.phi(alpha, vals)
    res_f = scheme.residual(alpha, vals) * f
    bias_exact = space.norm(res_f)

    w = space.weights
    n = w.size
    nonzero = phi_v != 0
    k = n - int(np.argmax(nonzero[::-1])) if nonzero.any() else 0
    size, siblings = _pairwise_spine(n, k)
    signal, phi_k, f_k, w_k = vals[:k] * f[:k], phi_v[:k], f[:k], w[:k]
    w_res = w[:k] * res_f[:k]
    tail = w[k:] * f[k:] ** 2
    tail_sums = [np.sum(tail[lo - k:hi - k]) for lo, hi in siblings]
    rows = max(1, BLOCK // size)
    xi = np.empty((rows, k))  # the noise, then phi xi
    scratch = np.empty((rows, k))
    err_sq = np.empty((rows, size))
    err_sq[:, k:] = tail[:size - k]
    zero_tail = np.zeros((rows, size))  # w |phi xi|^2, then w res_f phi xi

    streams = NoiseStreams(sampler, n_reps)
    sq_errors = np.empty(n_reps)
    crosses = np.empty(n_reps)
    noise_sq = np.empty(n_reps)
    for r0 in range(0, n_reps, rows):
        m = min(rows, n_reps - r0)
        xi_m = sample_white(streams.block(r0, m), space, xi[:m])
        # w (f - phi (signal + delta xi))^2, with the operations of the
        # unbuffered expression in the same order
        tmp = np.multiply(delta, xi_m, out=scratch[:m])
        np.add(signal, tmp, out=tmp)
        np.multiply(phi_k, tmp, out=tmp)
        np.subtract(f_k, tmp, out=tmp)
        np.multiply(w_k, np.square(tmp, out=tmp), out=err_sq[:m, :k])
        sq_errors[r0:r0 + m] = _squared_norms(err_sq[:m], tail_sums)
        phi_xi = np.multiply(phi_k, xi_m, out=xi_m)
        np.multiply(w_k, np.square(phi_xi, out=tmp), out=zero_tail[:m, :k])
        noise_sq[r0:r0 + m] = [delta**2 * v for v in _squared_norms(zero_tail[:m])]
        np.multiply(w_res, phi_xi, out=zero_tail[:m, :k])
        crosses[r0:r0 + m] = 2.0 * delta * _row_sums(zero_tail[:m])

    mean_sq = float(np.mean(sq_errors))
    rms = float(np.sqrt(mean_sq))
    se_mean = float(np.std(sq_errors, ddof=1) / np.sqrt(n_reps))
    stderr = se_mean / (2.0 * rms) if rms > 0 else 0.0
    cross_mean = float(np.mean(crosses))
    cross_se = float(np.std(crosses, ddof=1) / np.sqrt(n_reps))
    return McResult(rms=rms, stderr=stderr, bias=bias_exact,
                    noise_term=float(np.mean(noise_sq)),
                    cross_term_mean=cross_mean, cross_term_stderr=cross_se)


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
STREAM_STRIDE = 100_000  # sweep_deltas' noise streams per delta


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


def evaluate_delta(problem: MultiplicationProblem, scheme: Scheme,
                   phi: IndexFunction, delta: float, mode: str,
                   c_phi: float, n_reps: int = 1,
                   sampler: WhiteNoiseSampler = WhiteNoiseSampler(0),
                   profile: IllposednessProfile | None = None, *,
                   _per_sweep=None) -> RateRow:
    """One row of a rate study: alpha* from ``choose_alpha``, error and bound.

    Deterministic mode perturbs the data with the worst admissible noise
    (all mass at the node where the filter is largest, attaining the
    sup-norm of the filter); white mode averages ``n_reps`` Monte Carlo
    replications on the noise streams of ``sampler``.
    The bound column is the simplified at-alpha-star form of the
    a-priori error estimate.

    ``_per_sweep`` holds what ``sweep_deltas`` computes once for all its
    deltas: the ``_ExactData`` in deterministic mode, the extended grids
    handed on to ``monte_carlo_rms`` in white mode.
    """
    b, space, f = problem.b, problem.space, problem.f_true
    rho = problem.source_scale
    alpha_star = choose_alpha(problem, phi, delta, mode, profile)
    if mode == DETERMINISTIC:
        data = _per_sweep if _per_sweep is not None else \
            _exact_data(b, space, np.asarray(f, float))
        phi_v = scheme.phi(alpha_star, data.vals)
        worst = concentrated_noise(space, int(np.argmax(np.abs(phi_v))))
        bound = deterministic_bound_at_star(c_phi, scheme.c_minus1,
                                            phi, alpha_star, rho)
        budget = evaluate_deterministic(scheme, alpha_star, b, space, f,
                                        delta, worst,
                                        _filtered=(data, phi_v))
        err, stderr = budget.total, 0.0
        violated = err > bound * (1 + 1e-9)
    else:
        bound = white_bound_at_star(c_phi, scheme.c_0, phi, alpha_star, rho)
        budget = monte_carlo_rms(scheme, alpha_star, b, space, f, delta,
                                 sampler, n_reps, _extended=_per_sweep)
        err, stderr = budget.rms, budget.stderr
        violated = err > bound + 2.0 * stderr
    return RateRow(delta=float(delta), alpha_star=alpha_star, error=err,
                   stderr=stderr, bias=budget.bias,
                   variance_term=budget.noise_term, bound=bound,
                   violated=bool(violated))


def _cancel_if_failed(later: list, future) -> None:
    """Done callback: a failed delta cancels the ``later`` ones not yet started,
    in the worker that ran it, before that worker takes another."""
    if not future.cancelled() and future.exception() is not None:
        for pending in later:
            pending.cancel()


def sweep_deltas(problem: MultiplicationProblem, scheme: Scheme,
                 phi: IndexFunction, deltas, mode: str, c_phi: float,
                 n_reps: int = 1, seed: int = 0, threads: int = 1,
                 distribution: str = GAUSSIAN) -> RateStudyResult:
    """One ``evaluate_delta`` row per delta, in order, and the fitted slopes.

    Delta k draws from streams ``STREAM_STRIDE * (k + 1) + r``, so ``threads``
    (workers over the deltas) does not change the rows; the rows are
    collected in delta order, so a failing sweep raises the failure of its
    first failing delta at any ``threads``.  A failing delta cancels the
    later ones that have not started.
    The slopes fit log(error) and log(phi(alpha*)) against log(delta) on
    the middle 80% of the points; they are None below 4 rows.

    Arrays every delta needs are computed once, here, and shared read-only
    by the workers until the sweep returns: in deterministic mode the
    ``_ExactData``; in white mode on a half-line or line, the 2x and 4x
    truncations that ``variance_integral`` checks for divergence.
    """
    b, space = problem.b, problem.space
    per_sweep = profile = None
    if mode == WHITE:
        profile = effective_illposedness(b, space)
        if b.evaluable and space.extensible:
            per_sweep = tuple(_extended_grid(b, space, factor)
                              for factor in _EXTENSIONS)
    elif mode == DETERMINISTIC:
        per_sweep = _exact_data(b, space, np.asarray(problem.f_true, float))

    def one(k):
        sampler = WhiteNoiseSampler(seed, STREAM_STRIDE * (k + 1), distribution)
        return evaluate_delta(problem, scheme, phi, float(deltas[k]), mode, c_phi,
                              n_reps=n_reps, sampler=sampler, profile=profile,
                              _per_sweep=per_sweep)

    if threads > 1 and len(deltas) > 1:
        from concurrent.futures import ThreadPoolExecutor

        # the first delta starts at once, as its failure decides a failing
        # sweep's report; the others go smallest first: the smallest delta's
        # alpha* is smallest and its filter support widest, so it takes longest
        order = [0] + sorted(range(1, len(deltas)), key=lambda k: deltas[k])
        with ThreadPoolExecutor(max_workers=threads) as pool:
            submitted = {k: pool.submit(one, k) for k in order}
            futures = [submitted[k] for k in range(len(deltas))]
            for k, future in enumerate(futures):
                future.add_done_callback(
                    functools.partial(_cancel_if_failed, futures[k + 1:]))
            rows = [future.result() for future in futures]
    else:
        rows = [one(k) for k in range(len(deltas))]

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
