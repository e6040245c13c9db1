import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multreg import (DETERMINISTIC, WHITE, BracketingFailed, CrossCheckFailed,
                     Divergent, DivergentProfile,
                     FilterOverflow, IllposednessProfile, MeasureSpace,
                     LogPowerIndex, MultiplicationProblem, MultRegError, PowerIndex,
                     PreconditionFailed, Scheme, TableIndex, Tabulated,
                     WhiteNoiseSampler,
                     bias, choose_alpha_deterministic, choose_alpha_white,
                     compact_case, certify_qualification,
                     concentrated_direction, concentrated_noise,
                     deterministic_bound_at_star, deterministic_error_bound,
                     effective_illposedness, evaluate_delta,
                     evaluate_deterministic, fit_loglog_slope, lavrentiev,
                     monte_carlo_rms, rate_study, reconstruct, sample_white,
                     spectral_cutoff, tikhonov_wiener, truncate,
                     variance_integral, white_bound_at_star,
                     white_error_bound, worst_case_deterministic)
from multreg import analysis
from multreg.analysis import FIRST_STREAM as STREAM_STRIDE, sweep_deltas
from multreg.gallery import (counting_problem, exp_decay_pair, plateau_pair,
                             power_decay_pair, pure_power_pair)
from multreg.indexfuncs import solve_increasing


# --- numpy's pairwise-sum tree ----------------------------------------------------

def _fold_of_leaves(x, cap):
    leaves = analysis._leaves(x.size, cap)
    assert [p.start for p in leaves[1:]] == [p.stop for p in leaves[:-1]]
    assert leaves[0].start == 0 and leaves[-1].stop == x.size
    assert all(p.stop - p.start <= cap for p in leaves)
    return analysis._fold([np.sum(x[p]) for p in leaves], x.size, cap)


@pytest.mark.numpy_floor
def test_the_fold_of_the_leaves_sums_is_numpys_sum_bit_for_bit():
    # numpy splits a node of more than 128 values at half its size rounded
    # down to a multiple of 8; contiguous vectors of one sign, of mixed
    # signs and magnitudes, and of cancelling pairs, and stride-0 uniform
    # weights, at caps down to 128
    rng = np.random.default_rng(31)
    mixed = rng.standard_normal(2**21) * 10.0 ** rng.integers(-30, 30, 2**21)
    uniform = np.broadcast_to(np.float64(0.1), (2**21,))
    small = (rng.uniform(0.0, 1.0, 3000), np.repeat(rng.uniform(-1, 1, 1500), 2)
             * np.tile([1.0, -1.0], 1500))

    def check(n, caps, vectors):
        for x in vectors:
            for cap in caps:
                assert np.float64(_fold_of_leaves(x[:n], cap)).tobytes() \
                    == np.sum(x[:n]).tobytes(), (n, cap)

    for n in range(3001):
        check(n, (128,), small)
        check(n, (128, 1000), (mixed, uniform))
    for i, n in enumerate(rng.integers(3001, 2**21, 200)):
        check(int(n), ((analysis._PIECE, 2**17 + 8)[i % 2],), (mixed, uniform))
    check(2**21, (128,), (mixed, uniform))


# --- reconstruction -------------------------------------------------------------

def test_reconstruct_cutoff_counting():
    b, space = compact_case([1.0, 0.5, 0.01])
    rec = reconstruct(spectral_cutoff(), 0.1, b, space, np.ones(3))
    assert np.array_equal(rec, [1.0, 2.0, 0.0])


def test_reconstruct_lavrentiev_flat():
    b, space = compact_case(np.ones(5))
    rec = reconstruct(lavrentiev(), 1.0, b, space, np.ones(5))
    assert np.allclose(rec, 0.5)


def test_reconstruct_converges_with_exact_data():
    prob = counting_problem(50, PowerIndex(1.0), element="inverse_sqrt")
    g = prob.b.values_on(prob.space) * prob.f_true
    errors = []
    for k in range(1, 28, 4):
        est = reconstruct(lavrentiev(), 2.0**-k, prob.b, prob.space, g)
        errors.append(prob.space.norm(prob.f_true - est))
    assert np.all(np.diff(errors) < 0)
    assert errors[-1] < 1e-6 * prob.space.norm(prob.f_true)


def test_reconstruct_rejects_nonpositive_alpha():
    b, space = compact_case([1.0, 0.5])
    with pytest.raises(ValueError):
        reconstruct(spectral_cutoff(), 0.0, b, space, np.ones(2))


# --- bias --------------------------------------------------------------------------

def test_bias_cutoff_linear_multiplier():
    b, space = pure_power_pair(1.0)
    f = np.ones(space.nodes.size)
    assert bias(spectral_cutoff(), 0.25, b, space, f) == pytest.approx(0.5, rel=1e-3)


def test_bias_cutoff_quadratic_multiplier():
    b, space = pure_power_pair(2.0)
    f = np.ones(space.nodes.size)
    for alpha in (1e-2, 1e-3):
        assert bias(spectral_cutoff(), alpha, b, space, f) == \
            pytest.approx(alpha**0.25, rel=1e-3)


def test_bias_everything_cut():
    b, space = compact_case([0.9, 0.5, 0.1])
    f = np.array([1.0, 2.0, 3.0])
    assert bias(spectral_cutoff(), 1.5, b, space, f) == \
        pytest.approx(space.norm(f))


def test_bias_bounded_by_qualification():
    # source solution: bias(alpha) <= C_phi * phi(alpha) at every alpha
    prob = counting_problem(200, PowerIndex(1.0), element="inverse_sqrt")
    for scheme in (spectral_cutoff(), lavrentiev()):
        cert = certify_qualification(scheme, PowerIndex(1.0))
        assert cert.passed
        for alpha in np.geomspace(1e-3, 0.5, 12):
            assert bias(scheme, alpha, prob.b, prob.space, prob.f_true) <= \
                cert.c_phi * alpha * (1 + 1e-9)


# --- variance ------------------------------------------------------------------------

def test_variance_cutoff_linear():
    b, space = pure_power_pair(1.0)
    v = variance_integral(spectral_cutoff(), 0.1, b, space)
    assert float(v) == pytest.approx(9.0, rel=1e-2)


def test_variance_divergent_lavrentiev_power_decay():
    b, space = power_decay_pair(1.0, 50.0, 2**12)
    with pytest.raises(Divergent) as err:
        variance_integral(lavrentiev(), 0.1, b, space)
    assert "sums" in err.value.diagnosis or err.value.diagnosis


def test_variance_truncated_lavrentiev_finite():
    b, space = power_decay_pair(1.0, 50.0, 2**14)
    v = variance_integral(truncate(lavrentiev()), 0.1, b, space)
    # analytic: 100 * int_1^10 u^2/(u+10)^2 du = 113.43
    assert float(v) == pytest.approx(113.43, rel=1e-2)


def test_truncated_filter_ending_between_2r_and_4r_converges():
    # delta = 1e-6's white alpha* with phi = PowerIndex(0.5); the filter is
    # 0 beyond s = 126.4, inside 4R = 200, so the 4R and 8R sums are equal
    b, space = power_decay_pair(0.5, 50.0, 2**11)
    scheme, alpha = truncate(spectral_cutoff()), 6.258e-05
    sums = [float(np.sum(sp.weights * scheme.phi(alpha, b.values_on(sp)) ** 2))
            for sp in (space.extended(4.0), space.extended(8.0))]
    assert sums[0] == sums[1] > 0
    variance_integral(scheme, alpha, b, space)


def test_variance_of_a_truncated_filter_zero_beyond_r_is_the_base_sum(monkeypatch):
    # at or above b's largest value beyond R the filter adds nothing on the
    # 2R and 4R grids: the check returns the base grid's sum, no grid built
    b, space = power_decay_pair(0.5, 50.0, 2**11)
    scheme = truncate(spectral_cutoff())
    tail = analysis._Study(b, space).tail_sup
    built, build = [], MeasureSpace.extended

    def counted(sp, factor):
        built.append(factor)
        return build(sp, factor)

    monkeypatch.setattr(MeasureSpace, "extended", counted)
    for alpha in (tail, 4 * tail):
        v = variance_integral(scheme, alpha, b, space)
        assert v.value == analysis._square_sum(
            alpha, space.weights, scheme.phi(alpha, b.values_on(space)))
        assert v.value > 0 and v.tail_estimate == 0.0
    assert built == []


def test_variance_divergent_plateau_all_schemes():
    b, space = plateau_pair(50.0, 2**12)
    for name in ("cutoff", "lavrentiev", "tikhonov",
                 "truncated:lavrentiev", "truncated:tikhonov"):
        from multreg import scheme_by_name
        with pytest.raises(Divergent):
            variance_integral(scheme_by_name(name), 0.1, b, space)


def test_variance_tabulated_tail_rules():
    # vanishing tabulated tail: untruncated filter is bounded below on
    # (0, alpha], so the sublevel set of infinite measure diverges
    space = MeasureSpace.halfline(20.0, 512)
    b = Tabulated(np.exp(-space.nodes), tail_vanishes=True)
    with pytest.raises(Divergent):
        variance_integral(lavrentiev(), 0.1, b, space)
    v = variance_integral(truncate(lavrentiev()), 0.1, b, space)
    assert np.isfinite(float(v))
    # declared non-vanishing tail at a positive level
    b2 = Tabulated(np.clip(np.exp(-space.nodes), 0.4, None), tail_vanishes=False)
    with pytest.raises(Divergent):
        variance_integral(spectral_cutoff(), 0.1, b2, space)


def test_variance_filter_overflow_is_a_multreg_error():
    # Lavrentiev's 1/(alpha + t) squared leaves double range at t ~ 1e-200
    b, space = compact_case([1.0, 1e-200])
    with pytest.raises(FilterOverflow) as err:
        variance_integral(lavrentiev(), 1e-200, b, space)
    assert isinstance(err.value, MultRegError)
    assert "below double-precision resolution" in str(err.value)
    assert np.isfinite(float(variance_integral(lavrentiev(), 1e-100, b, space)))


def test_variance_filter_overflow_on_an_extended_grid():
    # b = e^-s is >= 1e-100 on [0, 230) but reaches 1e-200 at 2x the radius
    # and underflows at 4x, where Lavrentiev's filter squared overflows
    b, space = exp_decay_pair(radius=230.0, n=2**10)
    assert np.isfinite(analysis._square_sum(
        1e-200, space.weights, lavrentiev().phi(1e-200, b.values_on(space))))
    with pytest.raises(FilterOverflow):
        variance_integral(lavrentiev(), 1e-200, b, space)
    with pytest.raises(FilterOverflow):  # a white study's full check
        analysis._Study(b, space, b.values_on(space)).mc_weights(
            lavrentiev(), 1e-200, 1e-3)


# --- effective ill-posedness -----------------------------------------------------------

def test_illposedness_counting_exact():
    b, space = compact_case(1.0 / np.arange(1, 201))
    prof = effective_illposedness(b, space, alpha_grid=[0.34])
    # the inner sum 1/1 + 1/(1/2)^2 = 5 is exact in floating point
    assert prof.d_values[0] == math.sqrt(5.0)
    assert prof.upper_bounds[0] == pytest.approx(math.sqrt(2.0) / 0.34)


def test_illposedness_exponential_formula():
    b, space = exp_decay_pair(8.0, 2**19)
    for alpha in (0.5, 0.1, 0.01):
        prof = effective_illposedness(b, space, alpha_grid=[alpha])
        exact = math.sqrt((alpha**-2 - 1.0) / 2.0)
        assert prof.d_values[0] == pytest.approx(exact, rel=1e-4)


def test_illposedness_above_sup_is_zero():
    b, space = compact_case(1.0 / np.arange(1, 51))
    prof = effective_illposedness(b, space, alpha_grid=[1.5])
    assert prof.d_values[0] == 0.0


def test_illposedness_lemma_bound_on_grid():
    for b, space in (compact_case(1.0 / np.arange(1, 301)),
                     exp_decay_pair(15.0, 2**14)):
        prof = effective_illposedness(b, space)
        assert np.all(prof.d_values <= prof.upper_bounds * (1 + 1e-9))


def test_truncated_filter_variance_bound():
    # sum w |phi(alpha, b)|^2 <= C^2/alpha^2 * d_b(alpha) for truncated schemes
    b, space = exp_decay_pair(15.0, 2**14)
    vals = b.values_on(space)
    for scheme in (spectral_cutoff(), truncate(lavrentiev())):
        for alpha in (0.3, 0.05, 0.01):
            lhs = float(np.sum(space.weights * scheme.phi(alpha, vals) ** 2))
            from multreg import distribution_function
            rhs = scheme.c_minus1**2 / alpha**2 * \
                distribution_function(b, space, alpha, allow_exact=False)
            assert lhs <= rhs * (1 + 1e-9)


def test_illposedness_underflowed_multiplier():
    # e^(-n^2) underflows to 0 beyond n = 27; the default grid must stay in
    # the representable range instead of emitting infs, explicit grids below
    # it must raise
    from multreg import FinalValueProblem, fvp_multiplier
    b, space = fvp_multiplier(FinalValueProblem("bounded_domain", n_max=64))
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = effective_illposedness(b, space)
    assert np.all(np.isfinite(prof.d_values))
    with pytest.raises(FilterOverflow):
        effective_illposedness(b, space, alpha_grid=[1e-200])
    # one node leaves no default grid between min b and sup b
    with pytest.raises(PreconditionFailed):
        effective_illposedness(*compact_case([1.0]))


#: each 1/b^2 is finite, but the last three sum past the largest double
OVERFLOW_TABLE = [1.0, 0.5, 0.25, 1.25e-154, 1.24e-154, 1.23e-154, 1.22e-154]


def test_illposedness_where_only_the_running_sum_overflows():
    b, space = compact_case(OVERFLOW_TABLE)
    prof = effective_illposedness(b, space)
    assert np.all(np.isfinite(prof.d_values))
    vals = np.array(OVERFLOW_TABLE)
    with np.errstate(over="ignore"):
        unscaled = np.sqrt(np.cumsum(1.0 / vals ** 2))
    # where the unscaled running sum is finite, D keeps its bits
    for alpha, d in zip([0.6, 0.3, 0.1, 1.245e-154, 1.235e-154], unscaled):
        assert prof.d_at(alpha) == d
    assert not np.isfinite(unscaled[5])
    # D itself, about 1.4e154 at the smallest value, is finite
    scaled = math.fsum((1.0 / (8.0 * v)) ** 2 for v in OVERFLOW_TABLE[:-1])
    assert prof.d_at(1.22e-154) == pytest.approx(8.0 * math.sqrt(scaled),
                                                  rel=1e-15)
    assert prof.d_values[0] == prof.d_at(prof.alpha_grid[0])


def test_illposedness_matches_per_alpha_sums():
    # reference: one masked domain sum and one distribution_function call per
    # alpha; the profile sums in another order, so D^2 may differ by n*eps
    b, space = power_decay_pair(0.5, 50.0, 2**12)
    prof = effective_illposedness(b, space)
    vals, w = b.values_on(space), space.weights
    from multreg import distribution_function
    for alpha, d, bound in zip(prof.alpha_grid, prof.d_values,
                               prof.upper_bounds):
        ref = float(np.sum(w[vals > alpha] / vals[vals > alpha] ** 2))
        assert d**2 == pytest.approx(ref, rel=vals.size * np.finfo(float).eps)
        assert bound == np.sqrt(distribution_function(b, space, alpha)) / alpha
    with pytest.raises(ValueError):
        effective_illposedness(b, space, alpha_grid=[0.5, 0.1])


def test_illposedness_cross_check_flags_a_wrong_rearrangement(monkeypatch):
    # the domain side, binned piece by piece on a grid of several pieces,
    # agrees with the sorted side, and flags a b_* that is not b's
    b, space = power_decay_pair(0.5, 50.0, 2**16 + 5)
    effective_illposedness(b, space)
    sort = analysis._sorted_view
    monkeypatch.setattr(analysis, "_sorted_view", lambda values, weights, descending: (
        sort(values, weights, descending)[0] * 1.001, weights))
    with pytest.raises(CrossCheckFailed):
        effective_illposedness(b, space)


def test_illposedness_on_a_graded_grid():
    # graded weights span many decades: cell widths taken back out of the
    # running sum of the weights lose the small ones
    b, space = pure_power_pair(1.5, 4096, graded=True)
    prof = effective_illposedness(b, space)
    vals, w = b.values_on(space), space.weights
    for alpha, d in zip(prof.alpha_grid, prof.d_values):
        ref = float(np.sum(w[vals > alpha] / vals[vals > alpha] ** 2))
        assert d**2 == pytest.approx(ref, rel=1e-12)


def test_illposedness_interpolation():
    prof = IllposednessProfile.from_callable(lambda a: 1.0 / a,
                                             np.geomspace(1e-4, 0.5, 40))
    for a in (2e-4, 0.01, 0.3):
        assert prof.d_at(a) == pytest.approx(1.0 / a, rel=1e-2)
    # off-grid extrapolation keeps the edge slope
    assert prof.d_at(1e-5) == pytest.approx(1e5, rel=0.05)


def _sum_above(b, space, alpha):
    """The sum of w / b^2 over {b > alpha}, added in order of decreasing b."""
    vals, w = b.values_on(space), space.weights
    order = np.argsort(-vals, kind="stable")
    terms = (w[order] / vals[order] ** 2)[vals[order] > alpha]
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


STEP_CASES = [compact_case(1.0 / np.arange(1, 301)),
              power_decay_pair(0.5, 50.0, 2**12),
              pure_power_pair(1.5, 4096, graded=True)]


@pytest.mark.parametrize("case", range(len(STEP_CASES)),
                         ids=["counting", "halfline", "graded"])
def test_illposedness_is_the_exact_step_function(case):
    b, space = STEP_CASES[case]
    prof = effective_illposedness(b, space)
    vals, w = b.values_on(space), space.weights
    levels = np.unique(vals)
    mid = levels[levels.size // 2]
    top = levels[-1]
    for a in (levels[0] / 2, levels[0], 0.5 * (levels[0] + levels[1]), mid,
              np.nextafter(mid, 0), np.sqrt(levels[-2] * top), top, 2 * top):
        d = prof.d_at(a)
        assert d == math.sqrt(_sum_above(b, space, a))
        ref = np.sum(w[vals > a] / vals[vals > a] ** 2)
        assert d**2 == pytest.approx(ref, rel=vals.size * np.finfo(float).eps)
    # 0 from the largest node value on, the full sum below the smallest
    assert prof.d_at(top) == 0.0 and prof.d_at(2 * top) == 0.0
    assert prof.d_at(levels[0] / 2) > prof.d_at(levels[0])
    # the grid holds the same numbers
    assert [prof.d_at(a) for a in prof.alpha_grid] == list(prof.d_values)


# --- a-priori parameter choices ----------------------------------------------------------

@pytest.mark.parametrize("lo, hi", [(0.0, np.finfo(float).max), (1e-300, 1e300),
                                    (1e-12, 1.0)])
@pytest.mark.numpy_floor
def test_solve_increasing_returns_the_exact_smallest_root(lo, hi):
    roots = [c for c in np.geomspace(1e-300, 1e300, 61) if lo < c <= hi]
    roots += [np.nextafter(lo, np.inf), hi]
    roots += [np.nextafter(2.0**k, np.inf) for k in (-997, -40, -1, 0, 1, 52, 1000)
              if lo < 2.0**k < hi]
    for c in roots:
        calls = []

        def step(x):
            calls.append(x)
            return float(x >= c)

        assert solve_increasing(step, 0.5, lo, hi) == c
        assert len(calls) <= 63


SOLVER_PHIS = {"t^0.5": PowerIndex(0.5), "t": PowerIndex(1.0),
               "t^1.5": PowerIndex(1.5), "t^2": PowerIndex(2.0),
               "log_power": LogPowerIndex(1.0, 1.0)}


@pytest.mark.parametrize("name", SOLVER_PHIS)
@pytest.mark.numpy_floor
def test_choose_alpha_deterministic_and_inverse_are_the_smallest_root(name):
    # the smallest double meeting the rule, so the bracket does not matter
    phi = SOLVER_PHIS[name]
    for delta in np.geomspace(1e-9, 0.3, 40):
        astar = choose_alpha_deterministic(phi, delta)
        below = np.nextafter(astar, 0)
        assert astar * phi(astar) >= delta > below * phi(below)
        assert choose_alpha_deterministic(phi, delta, (1e-10, 0.9)) == astar
        if name == "log_power":
            t = phi.inverse(delta)
            assert phi(t) >= delta > phi(np.nextafter(t, 0))


def test_choose_alpha_deterministic_powers():
    assert choose_alpha_deterministic(PowerIndex(1.0), 1e-4) == \
        pytest.approx(1e-2, rel=1e-9)
    assert choose_alpha_deterministic(PowerIndex(2.0), 8e-3) == \
        pytest.approx(0.2, rel=1e-9)
    assert choose_alpha_deterministic(PowerIndex(0.5), 1e-3) == \
        pytest.approx(1e-3 ** (1 / 1.5), rel=1e-12)


def test_choose_alpha_deterministic_custom_table():
    ts = np.geomspace(1e-10, 1.0, 400)
    phi = TableIndex(ts, np.sqrt(ts))
    assert choose_alpha_deterministic(phi, 1e-3) == pytest.approx(1e-2, rel=1e-3)


def test_choose_alpha_deterministic_bracketing():
    with pytest.raises(BracketingFailed):
        choose_alpha_deterministic(PowerIndex(1.0), 10.0, bracket=(1e-6, 0.1))


def test_choose_alpha_white_synthetic():
    prof = IllposednessProfile.from_callable(lambda a: 1.0 / a,
                                             np.geomspace(1e-8, 1.0, 200))
    for delta in (1e-4, 1e-6):
        assert choose_alpha_white(PowerIndex(1.0), prof, delta) == \
            pytest.approx(math.sqrt(delta), rel=1e-3)


def test_choose_alpha_white_counting():
    b, space = compact_case(1.0 / np.arange(1, 501))
    prof = effective_illposedness(b, space)
    astar = choose_alpha_white(PowerIndex(1.0), prof, 1e-5)
    closed_form = (1e-5 / math.sqrt(3.0)) ** 0.4
    assert astar == pytest.approx(closed_form, rel=0.05)
    assert astar == pytest.approx(0.0080, abs=5e-4)


@pytest.mark.parametrize("case", range(len(STEP_CASES)),
                         ids=["counting", "halfline", "graded"])
def test_choose_alpha_white_is_the_smallest_root(case):
    b, space = STEP_CASES[case]
    prof = effective_illposedness(b, space)
    phi = PowerIndex(1.0)
    for delta in (1e-2, 1e-3, 1e-4, 1e-5):
        astar = choose_alpha_white(phi, prof, delta)
        assert phi(astar) >= delta * prof.d_at(astar)
        below = np.nextafter(astar, 0)
        assert phi(below) < delta * prof.d_at(below)


def test_white_study_alpha_star_on_a_node():
    # configs/white_counting.yaml: b_j = 1/j on 500 nodes and phi(t) = t.
    # Just below 1/8, D^2 = 1 + 2^2 + ... + 8^2 = 204 and phi / D < 1e-2;
    # at 1/8 node 8 leaves {b > alpha}, D^2 = 140 and phi / D > 1e-2
    prob = counting_problem(500, PowerIndex(1.0))
    res = sweep_deltas(prob, truncate(spectral_cutoff()), PowerIndex(1.0),
                       [1e-2, 1e-3], WHITE, 1.0, n_reps=2)
    assert [r.alpha_star for r in res.rows] == [1 / 8, 1 / 20]


def test_choose_alpha_white_guards():
    prof = IllposednessProfile.from_callable(lambda a: 1.0 / a,
                                             np.geomspace(1e-3, 0.5, 50))
    with pytest.raises(BracketingFailed):
        choose_alpha_white(PowerIndex(1.0), prof, 10.0)


@pytest.mark.numpy_floor
def test_choose_alpha_white_where_d_is_flat_below_the_smallest_node():
    # D = 1 on [1e-9, 1) and 1e9 below, so phi - delta D ties by rounding
    # on the probes below 1e-9; the smallest root is delta itself
    prof = effective_illposedness(*compact_case([1.0, 1e-9]))
    for delta in (0.1, 1e-3):
        assert choose_alpha_white(PowerIndex(1.0), prof, delta) == delta


# --- error bounds ----------------------------------------------------------------------

def test_deterministic_bound_values():
    phi = PowerIndex(1.0)
    assert deterministic_error_bound(1.0, 1.0, phi, 1e-4, 1e-2) == \
        pytest.approx(0.02)
    assert deterministic_error_bound(1.0, 1.0, phi, 0.0, 0.3) == \
        pytest.approx(0.3)
    astar = choose_alpha_deterministic(phi, 1e-4)
    at_star = deterministic_error_bound(1.0, 1.0, phi, 1e-4, astar)
    assert at_star == pytest.approx(
        deterministic_bound_at_star(1.0, 1.0, phi, astar))
    # moving away from alpha* strictly enlarges the bound
    assert deterministic_error_bound(1.0, 1.0, phi, 1e-4, 2 * astar) > at_star
    assert deterministic_error_bound(1.0, 1.0, phi, 1e-4, astar / 2) > at_star


def test_white_bound_values():
    phi = PowerIndex(1.0)
    prof = IllposednessProfile.from_callable(lambda a: 1.0 / a,
                                             np.geomspace(1e-6, 1.0, 100))
    val = white_error_bound(1.0, 1.0, phi, prof, 1e-4, 1e-2)
    assert val == pytest.approx(math.sqrt(5e-4), rel=1e-3)
    assert white_error_bound(1.0, 1.0, phi, prof, 0.0, 0.3) == pytest.approx(0.3)
    astar = choose_alpha_white(phi, prof, 1e-4)
    tight = white_error_bound(1.0, 1.0, phi, prof, 1e-4, astar)
    loose = white_bound_at_star(1.0, 1.0, phi, astar)
    assert tight <= loose * (1 + 1e-6)
    assert loose == pytest.approx(math.sqrt(2.0) * 2.0 * astar, rel=1e-3)


# --- Monte Carlo -------------------------------------------------------------------------

def test_monte_carlo_noise_free():
    prob = counting_problem(100, PowerIndex(1.0))
    mc = monte_carlo_rms(spectral_cutoff(), 0.05, prob.b, prob.space,
                         prob.f_true, 0.0, WhiteNoiseSampler(3), 4)
    assert mc.rms == bias(spectral_cutoff(), 0.05, prob.b, prob.space,
                          prob.f_true)
    assert mc.stderr == 0.0 and mc.cross_term_mean == 0.0


def test_monte_carlo_unnormalized_source_bound():
    # f_j = b_j means the source element is all-ones with norm sqrt(200);
    # the a-priori error bound must be scaled by that norm
    n = 200
    b, space = compact_case(1.0 / np.arange(1, n + 1))
    f = b.values_on(space).copy()
    rho = math.sqrt(n)
    delta = 1e-3
    prof = effective_illposedness(b, space)
    astar = choose_alpha_white(PowerIndex(1.0), prof, delta)
    mc = monte_carlo_rms(spectral_cutoff(), astar, b, space, f, delta,
                         WhiteNoiseSampler(11), 200)
    scaled_bound = white_bound_at_star(1.0, 1.0, PowerIndex(1.0), astar,
                                       source_scale=rho)
    assert mc.rms <= scaled_bound + 2 * mc.stderr
    # while the unscaled bound is genuinely violated for this f
    assert mc.rms > white_bound_at_star(1.0, 1.0, PowerIndex(1.0), astar)


def test_monte_carlo_cross_term_centered():
    prob = counting_problem(200, PowerIndex(1.0))
    delta = 1e-3
    prof = effective_illposedness(prob.b, prob.space)
    astar = choose_alpha_white(PowerIndex(1.0), prof, delta)
    # lavrentiev couples bias and noise supports, so the cross term is a
    # genuine random variable; it must average to ~0
    mc = monte_carlo_rms(lavrentiev(), astar, prob.b, prob.space, prob.f_true,
                         delta, WhiteNoiseSampler(17), 300)
    assert abs(mc.cross_term_mean) <= 3 * mc.cross_term_stderr
    assert mc.cross_term_stderr > 0


@pytest.mark.numpy_floor
def test_monte_carlo_budget_identity():
    # mean squared error = bias^2 + mean noise term - mean cross term,
    # an exact per-replication identity up to roundoff
    prob = counting_problem(150, PowerIndex(1.0))
    mc = monte_carlo_rms(lavrentiev(), 0.02, prob.b, prob.space, prob.f_true,
                         1e-3, WhiteNoiseSampler(31), 50)
    lhs = mc.rms**2
    rhs = mc.bias**2 + mc.noise_term - mc.cross_term_mean
    assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("scheme", [spectral_cutoff(), truncate(spectral_cutoff())],
                         ids=["cutoff", "truncated_cutoff"])
@pytest.mark.numpy_floor
def test_monte_carlo_cutoff_cross_term_is_zero(scheme):
    # a cut-off's residual is exactly 0 where its filter is not, so every
    # replication's cross term is; the support is not a prefix of the nodes
    b, space, f = _shuffled_table(300)
    mc = monte_carlo_rms(scheme, 0.02, b, space, f, 1e-2, WhiteNoiseSampler(13), 40)
    assert mc.cross_term_mean == 0.0 and mc.cross_term_stderr == 0.0
    assert mc.noise_term > 0


def test_monte_carlo_propagates_divergence():
    b, space = power_decay_pair(1.0, 30.0, 2**10)
    f = np.zeros(space.nodes.size)
    with pytest.raises(DivergentProfile):
        monte_carlo_rms(lavrentiev(), 0.1, b, space, f, 1e-2,
                        WhiteNoiseSampler(0), 4)


def test_monte_carlo_needs_replications():
    prob = counting_problem(10, PowerIndex(1.0))
    with pytest.raises(ValueError):
        monte_carlo_rms(spectral_cutoff(), 0.1, prob.b, prob.space,
                        prob.f_true, 1e-2, WhiteNoiseSampler(0), 1)


def test_monte_carlo_reproducible():
    prob = counting_problem(50, PowerIndex(1.0))
    a = monte_carlo_rms(spectral_cutoff(), 0.1, prob.b, prob.space,
                        prob.f_true, 1e-2, WhiteNoiseSampler(5), 20)
    b = monte_carlo_rms(spectral_cutoff(), 0.1, prob.b, prob.space,
                        prob.f_true, 1e-2, WhiteNoiseSampler(5), 20)
    assert a.rms == b.rms and a.cross_term_mean == b.cross_term_mean


def _reference_monte_carlo(scheme, alpha, b, space, f, delta, sampler, n_reps):
    """The per-replication loop over full-length draws, as an exact oracle."""
    f = np.asarray(f, float)
    vals = b.values_on(space)
    phi_v = scheme.phi(alpha, vals)
    res_f = scheme.residual(alpha, vals) * f
    sq_errors = np.empty(n_reps)
    crosses = np.empty(n_reps)
    noise_sq = np.empty(n_reps)
    for r in range(n_reps):
        xi = sample_white(sampler.with_stream(sampler.stream_id + r), space)
        g_delta = vals * f + delta * xi
        err = f - phi_v * g_delta
        sq_errors[r] = space.norm(err) ** 2
        crosses[r] = 2.0 * delta * space.inner(res_f, phi_v * xi)
        noise_sq[r] = delta**2 * space.norm(phi_v * xi) ** 2
    rms = float(np.sqrt(float(np.mean(sq_errors))))
    se_mean = float(np.std(sq_errors, ddof=1) / np.sqrt(n_reps))
    return {"rms": rms, "stderr": se_mean / (2.0 * rms) if rms > 0 else 0.0,
            "noise_term": float(np.mean(noise_sq)), "bias": space.norm(res_f),
            "cross_term_mean": float(np.mean(crosses)),
            "cross_term_stderr": float(np.std(crosses, ddof=1) / np.sqrt(n_reps))}


def _shuffled_table(n):
    # a non-monotone table: the cut-off's support is not a prefix of the nodes
    vals = np.random.default_rng(4).permutation(1.0 / np.arange(1, n + 1))
    b, space = compact_case(vals)
    return b, space, np.random.default_rng(5).standard_normal(n)


def _counting(n):
    prob = counting_problem(n, PowerIndex(1.0))
    return prob.b, prob.space, prob.f_true


def _halfline(n):
    b, space = power_decay_pair(0.5, 50.0, n)
    return b, space, b.values_on(space) ** 0.5


def _counting_support(n, k, n_reps=3):
    # b_j = 1/j is decreasing, so the cut-off's support is exactly [0, k)
    alpha = 2.0 if k == 0 else 0.5 / k + (0.5 / (k + 1) if k < n else 0.0)
    return (lambda: _counting(n), spectral_cutoff(), alpha, 1e-2, n_reps,
            "gaussian")


#: n > BLOCK: k at, one below and one above every node of the leftmost
#: spine of numpy's pairwise summation tree over n values, and k = 0
SPINE_N = 9192
SPINE_K = [0, 63, 64, 65, 135, 136, 137, 279, 280, 281, 567, 568, 569, 1143,
           1144, 1145, 2295, 2296, 2297, 4591, 4592, 4593, 9191, 9192]
#: k around BLOCK / 2 and BLOCK, where the replications per block,
#: max(1, BLOCK // k), step from 2 to 1: n_reps, an odd number, leaves a
#: partial last block where a block holds two
BLOCK_EDGE_K = {4095: 5, 4096: 5, 4097: 3, 8192: 3, 8193: 3}


MC_CASES = {
    # name: (problem, scheme, alpha, delta, n_reps, distribution); a block
    # holds BLOCK // k replications, k the filter's last nonzero node + 1
    "truncated_cutoff_prefix": (lambda: _counting(500), truncate(spectral_cutoff()),
                                0.01, 1e-3, 37, "gaussian"),
    "non_prefix_support": (lambda: _shuffled_table(300), spectral_cutoff(),
                           0.02, 1e-2, 21, "gaussian"),
    "lavrentiev_full_support": (lambda: _counting(200), lavrentiev(),
                                0.02, 1e-3, 19, "gaussian"),
    "delta_zero": (lambda: _counting(100), spectral_cutoff(), 0.05, 0.0, 9,
                   "gaussian"),
    "empty_support": (lambda: _counting(64), spectral_cutoff(), 2.0, 1e-2, 5,
                      "gaussian"),
    "truncated_lavrentiev_prefix": (lambda: _counting(500),
                                    truncate(lavrentiev()), 0.01, 1e-3, 37,
                                    "gaussian"),
    "rademacher": (lambda: _counting(500), truncate(lavrentiev()),
                   0.01, 1e-3, 37, "rademacher"),
    "n_above_block": (lambda: _halfline(analysis.BLOCK + 1000),
                      truncate(spectral_cutoff()), 0.1, 1e-2, 3, "gaussian"),
    "n_below_leaf": _counting_support(100, 37),
    **{f"spine_k{k}": _counting_support(SPINE_N, k) for k in SPINE_K},
    **{f"block_edge_k{k}": _counting_support(SPINE_N, k, n_reps)
       for k, n_reps in BLOCK_EDGE_K.items()},
    # k of 500 nodes, each over more than one block and ending in a partial one
    **{f"partial_block_k{k}": _counting_support(500, k, n_reps)
       for k, n_reps in ((119, 70), (121, 70), (247, 35), (249, 37))},
}


@pytest.mark.parametrize("case", sorted(MC_CASES))
@pytest.mark.numpy_floor
def test_monte_carlo_matches_per_replication_reference(case):
    make, scheme, alpha, delta, n_reps, distribution = MC_CASES[case]
    b, space, f = make()
    sampler = WhiteNoiseSampler(9, stream_id=300, distribution=distribution)
    mc = monte_carlo_rms(scheme, alpha, b, space, f, delta, sampler, n_reps)
    ref = _reference_monte_carlo(scheme, alpha, b, space, f, delta, sampler,
                                 n_reps)
    # each replication's three sums equal its |err|^2 only up to roundoff
    assert mc.bias == ref["bias"]
    for name in ("rms", "noise_term", "stderr", "cross_term_stderr"):
        assert abs(getattr(mc, name) - ref[name]) <= 1e-12 * abs(ref[name]), name
    # centred on 0: relative to its own spread
    assert abs(mc.cross_term_mean - ref["cross_term_mean"]) <= \
        1e-12 * ref["cross_term_stderr"] * math.sqrt(n_reps)
    # each case has the shape of filter support it is named for
    support = np.flatnonzero(scheme.phi(alpha, b.values_on(space)))
    k, n = (support[-1] + 1 if support.size else 0), space.nodes.size
    assert {"non_prefix_support": 0 < support.size < k,
            "lavrentiev_full_support": k == n,
            "empty_support": k == 0,
            "n_above_block": n > analysis.BLOCK and 0 < k < n,
            "truncated_cutoff_prefix": support.size == k < n,
            "truncated_lavrentiev_prefix": support.size == k < n,
            "n_below_leaf": support.size == k < n <= 128,
            }.get(case, True)
    if case.startswith("spine_k"):
        assert support.size == k == int(case[len("spine_k"):])
        assert n == SPINE_N
    if case.startswith("block_edge_k"):
        assert support.size == k == int(case[len("block_edge_k"):])
        rows = max(1, analysis.BLOCK // k)
        assert n == SPINE_N and n_reps > rows and (rows == 1 or n_reps % rows)
    if case.startswith("partial_block_k"):
        rows = analysis.BLOCK // k
        assert support.size == k == int(case[len("partial_block_k"):])
        assert n_reps > rows and n_reps % rows != 0


def test_deterministic_triangle_inequality():
    # total error never exceeds bias + delta * sup|phi(b)| for unit noise
    from multreg import evaluate_deterministic, worst_case_deterministic
    prob = counting_problem(150, PowerIndex(1.0))
    vals = prob.b.values_on(prob.space)
    rng = np.random.default_rng(21)
    for scheme in (spectral_cutoff(), lavrentiev()):
        for alpha in (0.2, 0.05):
            phi_v = scheme.phi(alpha, vals)
            for _ in range(5):
                noise = worst_case_deterministic(
                    rng.standard_normal(vals.size), prob.space)
                budget = evaluate_deterministic(scheme, alpha, prob.b,
                                                prob.space, prob.f_true,
                                                1e-2, noise)
                cap = budget.bias + 1e-2 * float(np.max(np.abs(phi_v)))
                assert budget.total <= cap * (1 + 1e-12)
                assert budget.total <= budget.bias + budget.noise_term \
                    + 1e-12  # triangle with the attained noise term


def test_exact_error_decomposition_nodewise():
    prob = counting_problem(300, PowerIndex(1.0))
    vals = prob.b.values_on(prob.space)
    xi = sample_white(WhiteNoiseSampler(9), prob.space)
    delta = 1e-3
    for scheme in (spectral_cutoff(), lavrentiev(), tikhonov_wiener()):
        alpha = 0.03
        g = vals * prob.f_true + delta * xi
        est = reconstruct(scheme, alpha, prob.b, prob.space, g)
        lhs = prob.f_true - est
        rhs = scheme.residual(alpha, vals) * prob.f_true \
            - delta * scheme.phi(alpha, vals) * xi
        scale = np.maximum(np.abs(rhs), 1e-30)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


# --- rate studies -------------------------------------------------------------------------

def _white_sweep_problems():
    # a half-line and a line problem, both with finite variance integrals
    from multreg import FinalValueProblem, fvp_multiplier
    for b, space in (power_decay_pair(0.5, 50.0, 2**11),
                     fvp_multiplier(FinalValueProblem("whole_space", n_grid=2**11))):
        yield MultiplicationProblem(b, space, b.values_on(space) ** 0.5)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_shares_extended_grids_with_identical_rows(threads, monkeypatch):
    # the 2R and 4R grids are built at most once per sweep: never when every
    # alpha* is at or above the tail sup, once when some are below it (on
    # the half-line, those of the last two deltas of the second sweep)
    scheme, phi = truncate(spectral_cutoff()), PowerIndex(0.5)
    runs_check = set()
    for problem, deltas in itertools.product(
            _white_sweep_problems(),
            ([1e-2, 1e-3, 1e-4], [1e-2, 1e-3, 2e-6, 1.5e-6])):
        profile = effective_illposedness(problem.b, problem.space)
        each = [evaluate_delta(problem, scheme, phi, delta, WHITE, 1.0, n_reps=8,
                               sampler=WhiteNoiseSampler(3, STREAM_STRIDE),
                               profile=profile)
                for delta in deltas]
        built, build = [], MeasureSpace.extended

        def counted(space, factor):
            built.append(factor)
            return build(space, factor)

        monkeypatch.setattr(MeasureSpace, "extended", counted)
        study = sweep_deltas(problem, scheme, phi, deltas, WHITE, 1.0, n_reps=8,
                             seed=3, threads=threads)
        monkeypatch.undo()
        assert list(study.rows) == each
        tail = analysis._Study(problem.b, problem.space).tail_sup
        runs = any(row.alpha_star < tail for row in study.rows)
        assert built == (list(analysis._EXTENSIONS) if runs else [])
        runs_check.add(runs)
    assert runs_check == {False, True}


def _shared_stream_problems():
    # a counting problem and a half-line one; their cut-offs at the four
    # deltas are supported on four different prefixes of the nodes
    yield counting_problem(500, PowerIndex(1.0))
    b, space = power_decay_pair(0.5, 50.0, 2**11)
    yield MultiplicationProblem(b, space, b.values_on(space) ** 0.5)


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
@pytest.mark.parametrize("n_reps", [2, 7, 8])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.numpy_floor
def test_white_sweep_rows_equal_single_delta_rows_on_shared_streams(
        threads, n_reps, distribution, monkeypatch):
    # each row is the one-delta row on the sweep's streams, ==, whatever the
    # split of the replications over the workers; no worker gets none.  The
    # filter's residual is nonzero on its support, so even Rademacher rows
    # (xi^2 = 1) depend on the draws through the cross term
    scheme, phi, deltas = truncate(lavrentiev()), PowerIndex(0.5), \
        [1e-2, 1e-3, 1e-4, 1e-5]
    ranges, streams = [], analysis.NoiseStreams

    def counted(sampler, count):
        ranges.append(count)
        return streams(sampler, count)

    for problem in _shared_stream_problems():
        profile = effective_illposedness(problem.b, problem.space)
        sampler = WhiteNoiseSampler(11, STREAM_STRIDE, distribution)
        each = [evaluate_delta(problem, scheme, phi, delta, WHITE, 1.0,
                               n_reps=n_reps, sampler=sampler, profile=profile)
                for delta in deltas]
        ranges.clear()
        monkeypatch.setattr(analysis, "NoiseStreams", counted)
        study = sweep_deltas(problem, scheme, phi, deltas, WHITE, 1.0,
                             n_reps=n_reps, seed=11, threads=threads,
                             distribution=distribution)
        monkeypatch.undo()
        assert list(study.rows) == each
        assert len(ranges) == min(threads, n_reps) and min(ranges) > 0
        assert sum(ranges) == n_reps
        vals = problem.b.values_on(problem.space)
        widths = {np.flatnonzero(scheme.phi(row.alpha_star, vals))[-1]
                  for row in study.rows}
        assert len(widths) == len(deltas)


@pytest.mark.parametrize("threads", [1, 2])
def test_white_sweep_without_deltas_has_no_rows(threads):
    # the config allows one replication when there is no delta
    problem = counting_problem(50, PowerIndex(1.0))
    study = sweep_deltas(problem, spectral_cutoff(), PowerIndex(1.0), [], WHITE,
                         1.0, n_reps=1, threads=threads)
    assert study.rows == () and study.fitted_slope is None


def test_sweep_keeps_the_divergence_diagnosis():
    b, space = power_decay_pair(1.0, 30.0, 2**10)
    problem = MultiplicationProblem(b, space, b.values_on(space) ** 0.5)
    args = (problem, lavrentiev(), PowerIndex(0.5))
    with pytest.raises(DivergentProfile) as direct:
        evaluate_delta(*args, 1e-3, WHITE, 1.0, n_reps=4,
                       sampler=WhiteNoiseSampler(0, STREAM_STRIDE))
    with pytest.raises(DivergentProfile) as swept:
        sweep_deltas(*args, [1e-3], WHITE, 1.0, n_reps=4)
    assert str(swept.value) == str(direct.value)
    assert swept.value.diagnosis == direct.value.diagnosis
    assert len(swept.value.diagnosis["sums"]) == 3


def _extension(b, space, f=None):
    """A sweep's ``_Study``, and the largest b value beyond R on its 2R and
    4R grids."""
    extension = analysis._Study(b, space, f)
    return extension, extension.tail_sup


def _full_check(b, space, f):
    """A ``_Study`` that never skips: ``mc_weights`` runs the full check."""
    extension = analysis._Study(b, space, f)
    extension.tail_sup = np.inf
    return extension


@pytest.mark.parametrize("n", [2**17, 2**17 + 6])
@pytest.mark.numpy_floor
def test_chunked_tail_sup_equals_the_grids_maximum_beyond_r(n):
    # pieces of at most _PIECE nodes, the last one short at 2^17 + 6
    # nodes; at 2^17, and only there, a piece edge of each grid falls at R.
    # The pieces are the grid's nodes bit for bit, and the tail sup is the
    # built grids' largest b value beyond R, ==
    from multreg import FinalValueProblem, fvp_multiplier
    chunk = analysis._PIECE
    for b, space in (power_decay_pair(0.5, 50.0, n),
                     fvp_multiplier(FinalValueProblem("whole_space", n_grid=n)),
                     plateau_pair(50.0, n)):
        tail = analysis._Study(b, space)
        radius, sups = space.truncation_radius, []
        for factor, (sp, values) in zip(analysis._EXTENSIONS, tail.grids):
            pieces = list(space.extended_nodes(factor, chunk))
            assert [p.size for p in pieces[:-1]] == [chunk] * (len(pieces) - 1)
            assert 0 < pieces[-1].size <= chunk
            nodes = np.concatenate(pieces)
            assert np.array_equal(nodes.view(np.int64), sp.nodes.view(np.int64))
            beyond = np.abs(nodes) > radius
            edges = np.arange(chunk, nodes.size, chunk)
            assert np.any(beyond[edges] != beyond[edges - 1]) == (n % chunk == 0)
            sups.append(np.max(values[beyond]))
        assert tail.tail_sup == max(sups)


@pytest.mark.numpy_floor
def test_white_sweep_skips_the_divergence_sums_where_the_tail_is_zero(monkeypatch):
    # truncated cut-off on a power-decay half-line: the alpha* of the first
    # four deltas lie above every b value beyond R, the fifth's below them
    b, space = power_decay_pair(0.5, 50.0, 2**11)
    problem = MultiplicationProblem(b, space, b.values_on(space) ** 0.5)
    scheme, phi = truncate(spectral_cutoff()), PowerIndex(0.5)
    n = space.nodes.size
    extension, tail = _extension(b, space)
    assert tail == extension.grids[0][1][n]  # b decreases: the first node past R
    profile = effective_illposedness(b, space)
    summed, square_sum = [], analysis._square_sum

    def counted(alpha, weights, phi_v):
        summed.append((alpha, weights.size))
        return square_sum(alpha, weights, phi_v)

    for deltas, n_below in (([1e-2, 1e-3, 1e-4, 1e-5], 0),
                            ([1e-2, 1e-3, 1e-4, 1e-5, 2e-6], 1)):
        each = [evaluate_delta(problem, scheme, phi, delta, WHITE, 1.0, n_reps=6,
                               sampler=WhiteNoiseSampler(3, STREAM_STRIDE),
                               profile=profile)
                for delta in deltas]
        summed.clear()
        monkeypatch.setattr(analysis, "_square_sum", counted)
        study = sweep_deltas(problem, scheme, phi, deltas, WHITE, 1.0, n_reps=6,
                             seed=3)
        monkeypatch.undo()
        assert list(study.rows) == each
        below = [row.alpha_star for row in study.rows if row.alpha_star < tail]
        assert len(below) == n_below
        # only a delta below the tail runs the divergence check, on R, 2R
        # and 4R; the others keep the base grid's overflow check alone
        assert summed == [(row.alpha_star, size) for row in study.rows
                          for size in ((n, 2 * n, 4 * n)
                                       if row.alpha_star < tail else (n,))]


def _zero_tail_problems():
    # a convergent half-line and line, and the plateau line (b = 1 beyond
    # s = 1), whose every alpha below 1 diverges
    from multreg import FinalValueProblem, fvp_multiplier
    for b, space in (power_decay_pair(0.5, 50.0, 2**11),
                     fvp_multiplier(FinalValueProblem("whole_space", n_grid=2**11)),
                     plateau_pair(50.0, 2**10)):
        yield b, space, np.sqrt(b.values_on(space))


def _outcome(scheme, alpha, study):
    try:
        w = study.mc_weights(scheme, alpha, 1e-3)
    except DivergentProfile as exc:
        return str(exc), repr(exc.diagnosis)
    return w.bias, *(v.tolist() for v in w.sum_w)


@pytest.mark.parametrize("scheme", [spectral_cutoff(), truncate(lavrentiev()),
                                    truncate(tikhonov_wiener()), lavrentiev()],
                         ids=lambda s: s.name)
@pytest.mark.numpy_floor
def test_zero_tail_skip_agrees_with_the_full_divergence_check(scheme, monkeypatch):
    # with the sweep's ``_Study`` each alpha gives the weights, or the
    # DivergentProfile message and diagnosis, of the full 2R/4R check
    # (a ``_Study`` that never skips); at or above the tail a truncated
    # scheme skips it and sums the base grid alone
    summed, square_sum = [], analysis._square_sum

    def counted(alpha, weights, phi_v):
        summed.append(weights.size)
        return square_sum(alpha, weights, phi_v)

    kinds = set()
    for b, space, f in _zero_tail_problems():
        extension, tail = _extension(b, space, f)
        for alpha in (tail / 64, tail / 4, tail, 4 * tail, 1e-3, 0.05):
            full = _outcome(scheme, alpha, _full_check(b, space, f))
            summed.clear()
            monkeypatch.setattr(analysis, "_square_sum", counted)
            assert _outcome(scheme, alpha, extension) == full
            monkeypatch.undo()
            skipped = scheme.truncated and alpha >= tail
            assert summed == [space.nodes.size] + ([] if skipped else [
                sp.weights.size for sp, _ in extension.grids])
            kinds.add((skipped, isinstance(full[0], str)))
    # (skipped, diverged): Lavrentiev's tail never vanishes
    assert kinds == ({(True, False), (False, False), (False, True)}
                     if scheme.truncated else {(False, True)})


def test_white_delta_evaluates_its_filter_once_per_step_on_the_base_grid(
        monkeypatch):
    # the first four deltas skip the divergence check, the fifth runs it on
    # 2R and 4R: each evaluates its filter once on the base grid (one leaf
    # at 2^11 nodes) for its check, and once for its weights
    b, space = power_decay_pair(0.5, 50.0, 2**11)
    problem = MultiplicationProblem(b, space, b.values_on(space) ** 0.5)
    n, sizes, phi = space.nodes.size, [], Scheme.phi

    def counted(scheme, alpha, t):
        sizes.append(np.size(t))
        return phi(scheme, alpha, t)

    deltas = [1e-2, 1e-3, 1e-4, 1e-5, 2e-6]
    monkeypatch.setattr(Scheme, "phi", counted)
    sweep_deltas(problem, truncate(spectral_cutoff()), PowerIndex(0.5), deltas,
                 WHITE, 1.0, n_reps=2)
    assert sorted(sizes) == [n] * 2 * len(deltas) + [2 * n, 4 * n]


@pytest.mark.parametrize("name", ["plateau_truncated_cutoff",
                                  "plateau_truncated_lavrentiev",
                                  "halfline_lavrentiev"])
def test_divergent_white_sweep_fails_before_any_draw_as_the_full_check(
        name, monkeypatch):
    # the first delta's DivergentProfile, as the full check gives it at
    # that alpha*, and no draw; the plateau has no D(alpha), so its alpha*
    # come from a stand-in profile
    if name.startswith("plateau"):
        b, space = plateau_pair(50.0, 2**10)
        profile = IllposednessProfile.from_callable(
            lambda a: 1.0 / a, np.geomspace(1e-6, 1.0, 64))
    else:
        b, space = power_decay_pair(1.0, 30.0, 2**10)
        profile = effective_illposedness(b, space)
    scheme = {"plateau_truncated_cutoff": truncate(spectral_cutoff()),
              "plateau_truncated_lavrentiev": truncate(lavrentiev()),
              "halfline_lavrentiev": lavrentiev()}[name]
    problem = MultiplicationProblem(b, space, np.sqrt(b.values_on(space)))
    phi, deltas = PowerIndex(0.5), [1e-2, 1e-3, 1e-4]
    draws, sample = [], analysis.sample_white
    monkeypatch.setattr(analysis, "sample_white",
                        lambda *args, **kwargs: draws.append(args) or
                        sample(*args, **kwargs))
    _, tail = _extension(b, space)
    with pytest.raises(DivergentProfile) as swept:
        analysis._Sweep(problem, scheme, phi, deltas, WHITE, 4,
                        WhiteNoiseSampler(0, STREAM_STRIDE), profile)
    alpha = analysis.choose_alpha(problem, phi, deltas[0], WHITE, profile)
    assert not (scheme.truncated and alpha >= tail)
    with pytest.raises(DivergentProfile) as full:
        _full_check(b, space, problem.f_true).mc_weights(scheme, alpha,
                                                         deltas[0])
    assert str(swept.value) == str(full.value)
    assert swept.value.diagnosis == full.value.diagnosis
    assert draws == []


def _weights(delta, cross, noise):
    # the smallest bias that makes these the weights of some estimator, by
    # Cauchy-Schwarz: bias^2 - 2 delta <cross, xi> + delta^2 <noise, xi^2>
    # is then a squared error, >= 0, for every xi
    bias = float(np.sqrt(np.sum(cross ** 2 / noise)))
    return analysis._McWeights(delta, bias, (cross, noise))


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.numpy_floor
def test_monte_carlo_shares_products_between_prefix_equal_weights(threads):
    # the 120-node vectors are prefixes of the 300-node ones; the 200-node
    # noise weights differ from that prefix in their last entry alone
    rng = np.random.default_rng(8)
    cross, noise = rng.standard_normal(300), rng.uniform(0.5, 2.0, 300)
    off = noise[:200].copy()
    off[-1] *= 2.0
    weights = [_weights(1e-2, cross, noise),
               _weights(1e-3, cross[:120].copy(), noise[:120].copy()),
               _weights(1e-4, cross[:200].copy(), off)]
    products = [[[d for d, _ in readers] for _, readers in
                 analysis._shared_products([w.sum_w[j] for w in weights])]
                for j in (0, 1)]
    assert products == [[[0, 2, 1]], [[0, 1], [2]]]
    space = MeasureSpace.counting(300)
    sampler = WhiteNoiseSampler(5, stream_id=700)
    each = [analysis._monte_carlo([w], space, sampler, 7)[0] for w in weights]
    assert analysis._monte_carlo(weights, space, sampler, 7, threads) == each


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.numpy_floor
def test_monte_carlo_on_mixed_cutoff_and_lavrentiev_weights(threads, distribution):
    # each result equals its one-delta call, ==, at 500 nodes and above
    # BLOCK nodes, where a block holds one replication
    for n in (500, analysis.BLOCK + 1000):
        b, space, f = _counting(n)
        study = analysis._Study(b, space, f)
        weights = [study.mc_weights(scheme, alpha, delta)
                   for scheme, alpha, delta in (
                       (spectral_cutoff(), 0.01, 1e-3),
                       (lavrentiev(), 0.01, 1e-3),
                       (truncate(spectral_cutoff()), 0.003, 1e-4),
                       (truncate(lavrentiev()), 0.005, 1e-3),
                       (spectral_cutoff(), 0.05, 0.0),
                       (spectral_cutoff(), 2.0, 1e-2),
                       (truncate(spectral_cutoff()), 0.02, 1e-2),
                       (spectral_cutoff(), 1e-4, 1e-5))]
        # the cut-offs' noise weights share one product; 5 is above sup b,
        # all zero; Lavrentiev's two, at different alphas, share nothing
        readers = [sorted(d for d, _ in group) for _, group in
                   analysis._shared_products([w.sum_w[1] for w in weights])]
        assert sorted(readers) == [[0, 2, 4, 6, 7], [1], [3]]
        assert [d for _, group in analysis._shared_products(
            [w.sum_w[0] for w in weights]) for d, _ in group] == [1, 3]
        sampler = WhiteNoiseSampler(9, stream_id=300, distribution=distribution)
        each = [analysis._monte_carlo([w], space, sampler, 5)[0] for w in weights]
        assert analysis._monte_carlo(weights, space, sampler, 5, threads) == each


def _deterministic_problems():
    # counting, uniform and graded interval, half-line and frequency spaces;
    # the filter's support is a prefix, all nodes, or a band in the middle.
    # Counting spaces smaller than one 128-value leaf of numpy's pairwise
    # sum and larger than 2^17 nodes, at a size that is no power of two
    from multreg import DeconvolutionProblem
    for n_max in (5, 300, 2**17 + 3):
        yield counting_problem(n_max, PowerIndex(1.0))
    deconvolution = DeconvolutionProblem("exponential", 40.0, 2**10)
    for b, space in (pure_power_pair(1.5, 2**10),
                     pure_power_pair(1.5, 2**10, graded=True),
                     power_decay_pair(1.0, 30.0, 2**10),
                     (deconvolution.multiplier, deconvolution.freq_space)):
        yield MultiplicationProblem(b, space, b.values_on(space) ** 0.5)


def _dense_budget(scheme, alpha, b, space, f, delta, noise):
    vals = b.values_on(space)
    phi_v = scheme.phi(alpha, vals)
    return (space.norm(scheme.residual(alpha, vals) * f),
            delta * space.norm(phi_v * noise.values),
            space.norm(f - phi_v * (vals * f + delta * noise.values)))


@pytest.mark.parametrize("scheme", [spectral_cutoff(), lavrentiev(),
                                    tikhonov_wiener(), truncate(lavrentiev())],
                         ids=lambda s: s.name)
@pytest.mark.numpy_floor
def test_deterministic_rows_equal_the_dense_reference(scheme):
    # the one-node worst-case noise and the error evaluated in pieces of
    # the nodes give the rows of the dense expressions, with no tolerance
    phi = PowerIndex(0.5)
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    for problem in _deterministic_problems():
        b, space, f = problem.b, problem.space, problem.f_true
        swept = sweep_deltas(problem, scheme, phi, deltas, DETERMINISTIC, 1.0)
        for delta, row in zip(deltas, swept.rows):
            alpha = analysis.choose_alpha(problem, phi, delta, DETERMINISTIC)
            phi_v = scheme.phi(alpha, b.values_on(space))
            dense = worst_case_deterministic(concentrated_direction(
                space, int(np.argmax(np.abs(phi_v)))), space)
            reference = _dense_budget(scheme, alpha, b, space, f, delta, dense)
            budget = evaluate_deterministic(scheme, alpha, b, space, f,
                                            delta, dense)
            assert (budget.bias, budget.noise_term, budget.total) == reference
            assert row == evaluate_delta(problem, scheme, phi, delta,
                                         DETERMINISTIC, 1.0)
            assert (row.alpha_star, row.bias, row.variance_term, row.error) \
                == (alpha, *reference)
        # the noise at the first and the last node; above sup b the cut-off
        # is zero on every piece, and only the noise's node is patched
        for alpha in (swept.rows[-1].alpha_star, 2.0 * float(b.sup_bound)):
            for node in (0, space.nodes.size - 1):
                dense = worst_case_deterministic(
                    concentrated_direction(space, node), space)
                budget = evaluate_deterministic(scheme, alpha, b, space, f, 1e-3,
                                                concentrated_noise(space, node))
                assert (budget.bias, budget.noise_term, budget.total) == \
                    _dense_budget(scheme, alpha, b, space, f, 1e-3, dense)


@pytest.mark.parametrize("scheme", [spectral_cutoff(), truncate(lavrentiev())],
                         ids=lambda s: s.name)
@pytest.mark.numpy_floor
def test_truncated_filter_is_not_evaluated_where_b_is_at_most_alpha(
        scheme, monkeypatch):
    # b_j = 1/j on 2^17 + 3 nodes: the filter is zero on every piece past
    # the one where b falls to alpha, and above sup b on all of them; only
    # the worst node's one value may then lie at or below alpha
    problem = counting_problem(2**17 + 3, PowerIndex(1.0))
    study = analysis._Study(problem.b, problem.space, problem.f_true)
    calls, phi = [], Scheme.phi

    def counted(scheme_, alpha, t):
        calls.append((alpha, np.size(t), np.max(t)))
        return phi(scheme_, alpha, t)

    monkeypatch.setattr(Scheme, "phi", counted)
    for alpha in (1e-2, 1e-5, 2.0):
        study.deterministic(scheme, alpha, 1e-3)
    assert calls and all(top > alpha for alpha, size, top in calls if size > 1)
    assert [size for alpha, size, _ in calls if alpha == 1e-5 and size > 1] \
        == [analysis._PIECE] * 7  # leaves 0 to 6, once each


def test_monte_carlo_weights_end_at_the_filters_last_nonzero_node():
    # b_j = 1/j: the cut-off is nonzero on j <= 3 at alpha = 0.3, on every
    # node at alpha = 1e-3, and on none at alpha = 2
    problem = counting_problem(50, PowerIndex(1.0))
    study = analysis._Study(problem.b, problem.space, problem.f_true)
    for alpha, k in ((0.3, 3), (1e-3, 50), (2.0, 0)):
        assert study.mc_weights(spectral_cutoff(), alpha, 1e-3).sum_w[1].size == k


@pytest.mark.numpy_floor
def test_a_hand_built_truncated_scheme_sweeps_like_truncated_lavrentiev():
    # the flag, not the builder, truncates: the zero-tail and zero-piece
    # shortcuts that read it then hold for a filter written without a mask
    b, space = power_decay_pair(0.5, 50.0, 2**15)
    problem = MultiplicationProblem(b, space, b.values_on(space) ** 0.5)
    fake = Scheme("fake", 1.0, 1.0, True, lambda a, t: 1 / (t + a))
    for mode, n_reps in ((WHITE, 20), (DETERMINISTIC, 1)):
        rows = [sweep_deltas(problem, scheme, PowerIndex(0.5), [1e-2, 1e-3], mode,
                             1.0, n_reps=n_reps, seed=3).rows
                for scheme in (fake, truncate(lavrentiev()))]
        assert rows[0] == rows[1]


def test_deterministic_error_with_a_non_finite_signal():
    # f - 0 * inf is nan, not f: the dense expressions' values stand, also
    # at alpha = 2, where the cut-off is zero on the whole piece
    b, space = compact_case([1.0, 0.5, 0.25, 0.125])
    dense = worst_case_deterministic(concentrated_direction(space, 0), space)
    for last, alpha in itertools.product((np.inf, np.nan), (0.3, 2.0)):
        f = np.array([1.0, 0.5, 0.25, last])
        with np.errstate(invalid="ignore"):
            budget = evaluate_deterministic(spectral_cutoff(), alpha, b, space,
                                            f, 1e-2, concentrated_noise(space, 0))
            reference = _dense_budget(spectral_cutoff(), alpha, b, space, f,
                                      1e-2, dense)
        assert repr((budget.bias, budget.noise_term, budget.total)) == \
            repr(reference)


def test_deterministic_sweep_evaluates_b_once(monkeypatch):
    # b's values on the base grid are evaluated by the sweep's study alone,
    # whatever the number of deltas, and in white mode also by the profile
    problem = counting_problem(200, PowerIndex(1.0))
    calls = []
    values_on = type(problem.b).values_on

    def counted(self, space):
        calls.append(space)
        return values_on(self, space)

    monkeypatch.setattr(type(problem.b), "values_on", counted)
    for mode, n_deltas in ((DETERMINISTIC, 9), (WHITE, 1), (WHITE, 4),
                           (WHITE, 9)):
        calls.clear()
        study = sweep_deltas(problem, lavrentiev(), PowerIndex(1.0),
                             np.geomspace(1e-2, 1e-4, n_deltas), mode, 1.0,
                             n_reps=4)
        assert len(study.rows) == n_deltas
        assert calls == [problem.space] * (2 if mode == WHITE else 1), \
            (mode, n_deltas, len(calls))


@pytest.mark.parametrize("mode", [DETERMINISTIC, WHITE])
def test_sweep_calls_evaluate_delta_once_per_row(mode, monkeypatch):
    # each row is one call of the module's evaluate_delta, as a tracer that
    # rebinds it sees them
    problem = counting_problem(200, PowerIndex(1.0))
    deltas, calls, evaluate = np.geomspace(1e-2, 1e-4, 5), [], \
        analysis.evaluate_delta

    def counted(*args, **kwargs):
        calls.append(args[3])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(analysis, "evaluate_delta", counted)
    study = sweep_deltas(problem, lavrentiev(), PowerIndex(1.0), deltas, mode,
                         1.0, n_reps=4)
    assert calls == [row.delta for row in study.rows] == list(deltas)


def test_failing_threaded_sweep_cancels_the_later_deltas(monkeypatch):
    # every delta of this half-line study diverges; the first one's failure
    # is the study's, raised before the later deltas and before any draw
    b, space = power_decay_pair(1.0, 30.0, 2**10)
    problem = MultiplicationProblem(b, space, b.values_on(space) ** 0.5)
    args = (problem, lavrentiev(), PowerIndex(0.5))
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    calls, draws = [], []
    choose, sample = analysis.choose_alpha, analysis.sample_white

    def counted(problem, phi, delta, *rest, **kwargs):
        calls.append(delta)
        return choose(problem, phi, delta, *rest, **kwargs)

    def drawn(*args, **kwargs):
        draws.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(analysis, "choose_alpha", counted)
    monkeypatch.setattr(analysis, "sample_white", drawn)
    messages = []
    for threads in (1, 2):
        calls.clear()
        with pytest.raises(DivergentProfile) as failure:
            sweep_deltas(*args, deltas, WHITE, 1.0, n_reps=4, threads=threads)
        messages.append(str(failure.value))
        assert calls == deltas[:1]
    assert messages[0] == messages[1]
    assert draws == []


def test_fit_loglog_slope():
    x = np.geomspace(1e-6, 1e-2, 9)
    assert fit_loglog_slope(x, 3.0 * x**0.5) == pytest.approx(0.5, rel=1e-9)
    assert fit_loglog_slope([1.0], [1.0]) is None


def test_rate_study_guards():
    prob = counting_problem(50, PowerIndex(1.0))
    with pytest.raises(ValueError):
        rate_study(prob, spectral_cutoff(), PowerIndex(1.0), [1e-3], 1,
                   mode="deterministic")
    with pytest.raises(ValueError):
        rate_study(prob, spectral_cutoff(), PowerIndex(1.0),
                   [1e-2, 1e-3, 1e-4, 1e-5], 1, mode="banana")


def test_rate_study_deterministic_small():
    prob = counting_problem(200, PowerIndex(1.0), element="inverse_sqrt")
    deltas = np.geomspace(1e-2, 1e-5, 7)
    res = rate_study(prob, spectral_cutoff(), PowerIndex(1.0), deltas,
                     n_reps=1, mode="deterministic", seed=1)
    assert res.violations == 0
    assert 0.4 < res.fitted_slope < 0.6
    assert res.theoretical_slope == pytest.approx(0.5, abs=0.01)


def test_rate_study_rejects_unqualified_scheme():
    prob = counting_problem(50, PowerIndex(1.5))
    from multreg import PreconditionFailed
    with pytest.raises(PreconditionFailed):
        rate_study(prob, lavrentiev(), PowerIndex(1.5),
                   [1e-2, 1e-3, 1e-4, 1e-5], 1, mode="deterministic")


def test_import_loads_no_scipy():
    code = ("import sys, multreg; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_check_scheme_loads_neither_thread_pool_nor_random():
    # a CLI call pays for concurrent.futures only at threads > 1, and for
    # numpy.random only when it draws white noise
    root = Path(__file__).resolve().parents[1]
    config = root / "configs" / "white_counting.yaml"
    code = ("import contextlib, io, sys, multreg.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = multreg.cli.main(['check-scheme', '--config', {str(config)!r}])\n"
            "print(code, sorted(m for m in ('concurrent.futures', 'numpy.random')"
            " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "[]"]
