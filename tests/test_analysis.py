import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from multreg import (DETERMINISTIC, WHITE, BracketingFailed, Divergent, DivergentProfile,
                     FilterOverflow, IllposednessProfile, MeasureSpace,
                     MultiplicationProblem, MultRegError, PowerIndex,
                     PreconditionFailed, TableIndex, Tabulated,
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
from multreg.analysis import STREAM_STRIDE, sweep_deltas
from multreg.gallery import (counting_problem, exp_decay_pair, plateau_pair,
                             power_decay_pair, pure_power_pair)


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
    assert np.isfinite(analysis._variance_sum(lavrentiev(), 1e-200, space.weights,
                                              b.values_on(space)))
    grids = tuple(analysis._extended_grid(b, space, factor)
                  for factor in analysis._EXTENSIONS)
    for extended in (None, grids):
        with pytest.raises(FilterOverflow):
            variance_integral(lavrentiev(), 1e-200, b, space, _extended=extended)


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


def test_monte_carlo_budget_identity():
    # mean squared error = bias^2 + mean noise term - mean cross term,
    # an exact per-replication identity up to roundoff
    prob = counting_problem(150, PowerIndex(1.0))
    mc = monte_carlo_rms(lavrentiev(), 0.02, prob.b, prob.space, prob.f_true,
                         1e-3, WhiteNoiseSampler(31), 50)
    lhs = mc.rms**2
    rhs = mc.bias**2 + mc.noise_term - mc.cross_term_mean
    assert lhs == pytest.approx(rhs, rel=1e-10)


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


def _spine_sizes(n):
    return [n] + [size for size, _ in analysis._pairwise_spine(n, 0)[1][::-1]]


#: n > BLOCK: k at, one below and one above every node of the pairwise
#: tree's leftmost spine (see analysis._pairwise_spine), and k = 0
SPINE_N = analysis.BLOCK + 1000
SPINE_K = sorted({k for size in _spine_sizes(SPINE_N)
                  for k in (size - 1, size, size + 1) if k <= SPINE_N} | {0})


MC_CASES = {
    # name: (problem, scheme, alpha, delta, n_reps, distribution); a block
    # holds BLOCK // S replications, S the spine node a row is reduced over:
    # at 500 nodes 68, 33 or 16 for S = 120, 248 or 500
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
    # k just below and above the spine nodes 120 and 248 of 500 nodes, each
    # over more than one block and ending in a partial one
    **{f"partial_block_k{k}": _counting_support(500, k, n_reps)
       for k, n_reps in ((119, 70), (121, 35), (247, 35), (249, 37))},
}


@pytest.mark.parametrize("case", sorted(MC_CASES))
def test_monte_carlo_matches_per_replication_reference(case):
    make, scheme, alpha, delta, n_reps, distribution = MC_CASES[case]
    b, space, f = make()
    sampler = WhiteNoiseSampler(9, stream_id=300, distribution=distribution)
    mc = monte_carlo_rms(scheme, alpha, b, space, f, delta, sampler, n_reps)
    ref = _reference_monte_carlo(scheme, alpha, b, space, f, delta, sampler,
                                 n_reps)
    got = {"rms": mc.rms, "stderr": mc.stderr,
           "noise_term": mc.noise_term, "bias": mc.bias,
           "cross_term_mean": mc.cross_term_mean,
           "cross_term_stderr": mc.cross_term_stderr}
    assert got == ref
    # each case has the shape of filter support it is named for
    support = np.flatnonzero(scheme.phi(alpha, b.values_on(space)))
    k, n = (support[-1] + 1 if support.size else 0), space.nodes.size
    assert {"non_prefix_support": 0 < support.size < k,
            "lavrentiev_full_support": k == n,
            "empty_support": k == 0,
            "n_above_block": n > analysis.BLOCK and 0 < k < n,
            "truncated_cutoff_prefix": support.size == k < n,
            "truncated_lavrentiev_prefix": support.size == k < n,
            "n_below_leaf": support.size == k < n <= analysis._PAIRWISE_LEAF,
            }.get(case, True)
    if case.startswith("spine_k"):
        assert support.size == k == int(case[len("spine_k"):])
        assert n == SPINE_N
    if case.startswith("partial_block_k"):
        rows = analysis.BLOCK // analysis._pairwise_spine(n, k)[0]
        assert support.size == k == int(case[len("partial_block_k"):])
        assert n_reps > rows and n_reps % rows != 0


def test_spine_sums_match_full_row_sums():
    # rows: a varying prefix of k values and a tail shared by every row,
    # constant or zero; the zero tails include rows of -0.0 only
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, [300, 20000, 2**17 + 4][trial % 3]))
        k = int(rng.integers(0, n + 1))
        if trial % 4 == 3:  # at or next to a spine node
            k = int(np.clip(rng.choice(_spine_sizes(n)) + rng.integers(-1, 2), 0, n))
        size, siblings = analysis._pairwise_spine(n, k)
        # the deepest spine node holding the first k values
        half = size // 2 - (size // 2) % 8
        assert k <= size <= n and (size <= analysis._PAIRWISE_LEAF or half < k)
        x = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-8, 8, (3, n))
        tail = x[0, k:].copy()
        if trial % 2:
            x[:, k:] = tail
            tail_sums = [np.sum(tail[lo - k:hi - k]) for lo, hi in siblings]
        else:
            x[:, k:] = 0.0
            x[1, :k] = -0.0
            tail_sums = []
        full = np.sum(x, axis=1)
        got = analysis._row_sums(np.ascontiguousarray(x[:, :size]), tail_sums)
        assert got.tolist() == full.tolist()
        assert np.signbit(got).tolist() == np.signbit(full).tolist()


def test_block_rows_finish_like_space_norm():
    # space.norm(x) ** 2 squares a Python float (libm pow), which differs
    # from np.square in the last bit on about 1 value in 1000
    space = MeasureSpace.counting(7)
    x = np.random.default_rng(8).standard_normal((20000, 7))
    got = analysis._squared_norms(space.weights * np.abs(x) ** 2)
    assert got == [space.norm(row) ** 2 for row in x]


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
    scheme, phi, deltas = truncate(spectral_cutoff()), PowerIndex(0.5), [1e-2, 1e-3, 1e-4]
    for problem in _white_sweep_problems():
        profile = effective_illposedness(problem.b, problem.space)
        each = [evaluate_delta(problem, scheme, phi, delta, WHITE, 1.0, n_reps=8,
                               sampler=WhiteNoiseSampler(3, STREAM_STRIDE * (k + 1)),
                               profile=profile)
                for k, delta in enumerate(deltas)]
        built, build = [], analysis._extended_grid

        def counted(b, space, factor):
            built.append(factor)
            return build(b, space, factor)

        monkeypatch.setattr(analysis, "_extended_grid", counted)
        study = sweep_deltas(problem, scheme, phi, deltas, WHITE, 1.0, n_reps=8,
                             seed=3, threads=threads)
        monkeypatch.undo()
        assert list(study.rows) == each
        assert built == list(analysis._EXTENSIONS)  # once per sweep


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
def test_deterministic_rows_equal_the_dense_reference(scheme):
    # the one-node worst-case noise and the error evaluated on the filter's
    # span give the rows of the dense expressions, with no tolerance
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
        # is zero everywhere, and the span holds the noise's node alone
        for alpha in (swept.rows[-1].alpha_star, 2.0 * float(b.sup_bound)):
            for node in (0, space.nodes.size - 1):
                dense = worst_case_deterministic(
                    concentrated_direction(space, node), space)
                budget = evaluate_deterministic(scheme, alpha, b, space, f, 1e-3,
                                                concentrated_noise(space, node))
                assert (budget.bias, budget.noise_term, budget.total) == \
                    _dense_budget(scheme, alpha, b, space, f, 1e-3, dense)


def test_deterministic_error_with_a_non_finite_signal():
    # f - 0 * inf is nan, not f: the dense expressions' values stand
    b, space = compact_case([1.0, 0.5, 0.25, 0.125])
    dense = worst_case_deterministic(concentrated_direction(space, 0), space)
    for last in (np.inf, np.nan):
        f = np.array([1.0, 0.5, 0.25, last])
        with np.errstate(invalid="ignore"):
            budget = evaluate_deterministic(spectral_cutoff(), 0.3, b, space,
                                            f, 1e-2, concentrated_noise(space, 0))
            reference = _dense_budget(spectral_cutoff(), 0.3, b, space, f,
                                      1e-2, dense)
        assert repr((budget.bias, budget.noise_term, budget.total)) == \
            repr(reference)


def test_deterministic_sweep_evaluates_b_once(monkeypatch):
    problem = counting_problem(200, PowerIndex(1.0))
    calls = []
    values_on = type(problem.b).values_on

    def counted(self, space):
        calls.append(space)
        return values_on(self, space)

    monkeypatch.setattr(type(problem.b), "values_on", counted)
    study = sweep_deltas(problem, lavrentiev(), PowerIndex(1.0),
                         np.geomspace(1e-2, 1e-4, 9), DETERMINISTIC, 1.0)
    assert len(study.rows) == 9
    assert calls == [problem.space]


def test_failing_threaded_sweep_cancels_the_later_deltas(monkeypatch):
    # every delta of this half-line study diverges; the first one's failure
    # is the study's, and the deltas not yet started are not evaluated
    b, space = power_decay_pair(1.0, 30.0, 2**10)
    problem = MultiplicationProblem(b, space, b.values_on(space) ** 0.5)
    args = (problem, lavrentiev(), PowerIndex(0.5))
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    calls, evaluate = [], analysis.evaluate_delta

    def counted(problem, scheme, phi, delta, *rest, **kwargs):
        calls.append(delta)
        if delta != deltas[0]:
            time.sleep(0.05)  # the others are slower, as small deltas are
        return evaluate(problem, scheme, phi, delta, *rest, **kwargs)

    monkeypatch.setattr(analysis, "evaluate_delta", counted)
    messages = []
    for threads in (1, 2):
        calls.clear()
        with pytest.raises(DivergentProfile) as failure:
            sweep_deltas(*args, deltas, WHITE, 1.0, n_reps=4, threads=threads)
        messages.append(str(failure.value))
        assert deltas[0] in calls and len(calls) < len(deltas)
    assert messages[0] == messages[1]


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
