"""Acceptance gate: one test per numbered criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 10 is split: the exact-recovery/finiteness
part passes; the super-polynomial growth clause is implemented faithfully
and marked xfail because the claimed growth does not exist for heat-flow
multipliers (D(alpha) tracks 1/alpha up to logarithmic factors, so
log D / log(1/alpha) tends to 1; see the simple bound
D <= sqrt(d_b(alpha))/alpha with d_b(alpha) = sqrt(log(1/alpha)) there).
"""

import math
import time

import numpy as np
import pytest

from multreg import (Divergent, MeasureSpace, PowerIndex, PurePower,
                     WhiteNoiseSampler,
                     certify_axioms, certify_qualification,
                     choose_alpha_white, compact_case,
                     decreasing_rearrangement, effective_illposedness,
                     monte_carlo_rms, parse_config, piecewise_rearrangement_bounds,
                     rate_study, reconstruct, run, scheme_by_name,
                     spectral_cutoff, lavrentiev, truncate, variance_integral,
                     FinalValueProblem, fvp_multiplier)
from multreg.analysis import bias as bias_of
from multreg.gallery import counting_problem, exp_decay_pair, plateau_pair, \
    power_decay_pair

from support import brute_force_increasing, random_mixed_multipliers, \
    random_piecewise

DELTAS_9 = tuple(np.geomspace(1e-2, 1e-6, 9))


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_equimeasurability():
    t0 = time.monotonic()
    worst = 0.0
    for b, space in random_mixed_multipliers(20, 2**14, seed=101):
        r = decreasing_rearrangement(b, space)
        vals = b.values_on(space)
        tol = 2.0 * space.max_weight
        sup = float(np.max(vals))
        for t in np.geomspace(sup * 1e-4, sup * 0.999, 64):
            gap = abs(r.superlevel_measure(t) -
                      float(np.sum(space.weights[vals > t])))
            worst = max(worst, gap / tol)
            assert gap <= tol
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0,
           f"20 multipliers, worst gap {worst:.3g} of tolerance, {elapsed:.2f}s")


def test_criterion_2_rearrangement_sandwich():
    t0 = time.monotonic()
    rng = np.random.default_rng(2025)
    violations = 0
    for _ in range(10):
        b = random_piecewise(rng)
        bounds = piecewise_rearrangement_bounds(b)
        # the dominating piece is the one with the flattest zero
        nus = [p.profile.nu for p in b.pieces]
        assert bounds.dominant_index == int(np.argmax(nus))
        oracle = brute_force_increasing(b, 1.0, n_samples=10**5)
        s = np.geomspace(max(bounds.window * 1e-2, 5e-4), bounds.window, 64)
        star = oracle(s)
        shift = 4.0 / 10**5 + 2.0 / 2**14
        hi_dom = bounds.upper.domain[1]
        upper = np.asarray(bounds.upper(np.minimum(s + shift, hi_dom)))
        violations += int(np.sum(star > upper * (1 + 1e-9) + 1e-12))
        ok = s - shift > 0
        lower = np.asarray(bounds.lower((s - shift)[ok]))
        violations += int(np.sum(star[ok] < lower * (1 - 1e-9) - 1e-12))
    elapsed = time.monotonic() - t0
    report(2, violations == 0 and elapsed < 10.0,
           f"10 multipliers, {violations} bracket violations, {elapsed:.2f}s")


def test_criterion_3_scheme_certification():
    t0 = time.monotonic()
    names = ("cutoff", "lavrentiev", "tikhonov", "truncated:cutoff",
             "truncated:lavrentiev", "truncated:tikhonov")
    ok = all(certify_axioms(scheme_by_name(n)) for n in names)

    lav = lavrentiev()
    for nu in (0.5, 1.0):
        ok &= certify_qualification(lav, PowerIndex(nu)).passed
    ok &= not certify_qualification(lav, PowerIndex(1.5)).passed

    cut = spectral_cutoff()
    for nu in (0.5, 1.0, 2.0, 4.0):
        ok &= certify_qualification(cut, PowerIndex(nu)).passed

    for base_name in ("cutoff", "lavrentiev"):
        base = scheme_by_name(base_name)
        parent = certify_qualification(base, PowerIndex(1.0))
        trunc = certify_qualification(truncate(base), PowerIndex(1.0),
                                      parent_certificate=parent)
        ok &= trunc.passed
        ok &= trunc.c_phi <= max(parent.c_phi, base.c_0) * (1 + 1e-9)

    elapsed = time.monotonic() - t0
    report(3, ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_4_bias_rates():
    alphas = np.geomspace(1e-6, 1e-2, 13)
    results = []
    for kappa in (1.0, 2.0):
        space = MeasureSpace.interval_graded(1.0, 2**14, s_min=1e-9)
        b = PurePower(kappa)
        f = np.ones(space.nodes.size)
        for scheme in (spectral_cutoff(), lavrentiev()):
            biases = np.array([bias_of(scheme, a, b, space, f) for a in alphas])
            slope = float(np.polyfit(np.log(alphas), np.log(biases), 1)[0])
            results.append((scheme.name, kappa, slope))
            assert abs(slope - 1.0 / (2 * kappa)) <= 0.03, \
                (scheme.name, kappa, slope)
        # cutoff is exact: bias = alpha^(1/(2 kappa)) to quadrature tolerance
        if kappa == 1.0:
            cut_bias = np.array([bias_of(spectral_cutoff(), a, b, space, f)
                                 for a in alphas])
            assert np.max(np.abs(cut_bias - np.sqrt(alphas)) / np.sqrt(alphas)) \
                < 5e-3
    detail = ", ".join(f"{n}/k={k:g}: {s:.3f}" for n, k, s in results)
    report(4, True, detail)


def test_criterion_5_illposedness_correctness():
    # counting: exact value and the simple bound at every grid point
    b, space = compact_case(1.0 / np.arange(1, 201))
    prof = effective_illposedness(b, space, alpha_grid=[0.34])
    ok = prof.d_values[0] == math.sqrt(5.0)
    full = effective_illposedness(b, space)
    ok &= bool(np.all(full.d_values <= full.upper_bounds * (1 + 1e-9)))

    # exponential multiplier: closed form within 1e-4 relative
    be, se = exp_decay_pair(8.0, 2**19)
    rels = []
    for alpha in (0.5, 0.1, 0.01):
        p = effective_illposedness(be, se, alpha_grid=[alpha])
        exact = math.sqrt((alpha**-2 - 1.0) / 2.0)
        rels.append(abs(p.d_values[0] - exact) / exact)
    ok &= max(rels) <= 1e-4
    fe = effective_illposedness(be, se)
    ok &= bool(np.all(fe.d_values <= fe.upper_bounds * (1 + 1e-9)))

    # measure-transform identity: rearrangement side equals domain side
    for mult, sp in ((b, space), (be, se)):
        vals = mult.values_on(sp)
        r = decreasing_rearrangement(mult, sp)
        widths = np.diff(r.knots)
        for alpha in (0.5, 0.1, 0.05):
            lhs = float(np.sum(widths[r.values > alpha] /
                               r.values[r.values > alpha] ** 2))
            rhs = float(np.sum(sp.weights[vals > alpha] /
                               vals[vals > alpha] ** 2))
            ok &= abs(lhs - rhs) <= 1e-9 * (1 + rhs)
    report(5, ok, f"exp rel errs {['%.2e' % r for r in rels]}")


def test_criterion_6_deterministic_rate_study():
    t0 = time.monotonic()
    prob = counting_problem(500, PowerIndex(1.0), element="inverse_sqrt")
    res = rate_study(prob, spectral_cutoff(), PowerIndex(1.0), DELTAS_9,
                     n_reps=1, mode="deterministic", seed=606)
    elapsed = time.monotonic() - t0
    ok = res.violations == 0 and abs(res.fitted_slope - 0.5) <= 0.05 \
        and elapsed < 30.0
    report(6, ok, f"slope {res.fitted_slope:.4f}, "
                  f"{res.violations} violations, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def white_study():
    prob = counting_problem(500, PowerIndex(1.0), element="inverse_sqrt")
    t0 = time.monotonic()
    res = rate_study(prob, truncate(spectral_cutoff()), PowerIndex(1.0),
                     DELTAS_9, n_reps=200, mode="white", seed=707)
    return prob, res, time.monotonic() - t0


def test_criterion_7_white_rate_study(white_study):
    _, res, elapsed = white_study
    ok = res.violations == 0 and abs(res.fitted_slope - 0.40) <= 0.05 \
        and elapsed < 120.0
    report(7, ok, f"slope {res.fitted_slope:.4f}, "
                  f"{res.violations} violations, {elapsed:.2f}s")


def test_criterion_8_divergence_detection():
    miss = 0
    bp, sp = plateau_pair(50.0, 2**13)
    for name in ("cutoff", "lavrentiev", "tikhonov", "truncated:cutoff",
                 "truncated:lavrentiev", "truncated:tikhonov"):
        for alpha in (0.5, 0.1, 0.01):
            try:
                variance_integral(scheme_by_name(name), alpha, bp, sp)
                miss += 1
            except Divergent:
                pass
    bd, sd = power_decay_pair(1.0, 50.0, 2**14)
    try:
        variance_integral(lavrentiev(), 0.1, bd, sd)
        miss += 1
    except Divergent:
        pass
    try:
        val = float(variance_integral(truncate(lavrentiev()), 0.1, bd, sd))
        finite_ok = np.isfinite(val)
    except Divergent:
        finite_ok = False
    report(8, miss == 0 and finite_ok,
           f"{miss} misclassifications, truncated value finite={finite_ok}")


def test_criterion_9_cross_term(white_study):
    prob, res, _ = white_study
    delta = 1e-4
    profile = effective_illposedness(prob.b, prob.space)
    astar = choose_alpha_white(PowerIndex(1.0), profile, delta)
    mc = monte_carlo_rms(truncate(spectral_cutoff()), astar, prob.b,
                         prob.space, prob.f_true, delta,
                         WhiteNoiseSampler(909), 200)
    ok = abs(mc.cross_term_mean) <= 3.0 * mc.cross_term_stderr + 1e-15
    report(9, ok, f"mean {mc.cross_term_mean:.3e} vs 3se "
                  f"{3 * mc.cross_term_stderr:.3e}")


def test_criterion_10_fvp_recovery_and_finiteness():
    b, space = fvp_multiplier(FinalValueProblem("bounded_domain", n_max=64,
                                                c=1.0, tau=1.0))
    vals = b.values_on(space)
    f0 = np.zeros(64)
    f0[:5] = [1.0, -0.5, 0.25, 0.125, 0.0625]
    g = vals * f0  # noise-free data
    errors = [float(np.max(np.abs(
        reconstruct(spectral_cutoff(), float(np.exp(-k)), b, space, g)
        - f0))) for k in (5, 15, 30)]
    ok = errors[-1] <= 1e-8 and errors[0] >= errors[-1]

    grid = np.geomspace(np.exp(-300.0), 0.3, 48)
    prof = effective_illposedness(b, space, alpha_grid=grid)
    ok &= bool(np.all(np.isfinite(prof.d_values)))
    report("10 (recovery, finite D)", ok,
           f"recovery errors {['%.1e' % e for e in errors]}, "
           f"max D {prof.d_values.max():.3e}")


@pytest.mark.xfail(
    strict=True,
    reason="D(alpha) for heat-flow multipliers grows like 1/alpha up to "
           "logarithmic corrections (D <= sqrt(d_b(alpha))/alpha with "
           "d_b(alpha) ~ sqrt(log(1/alpha))), so log D/log(1/alpha) tends "
           "to 1 and no super-polynomial growth exists to detect")
def test_criterion_10_fvp_superpolynomial_ratio():
    b, space = fvp_multiplier(FinalValueProblem("bounded_domain", n_max=64,
                                                c=1.0, tau=1.0))
    grid = np.geomspace(np.exp(-300.0), 0.3, 48)
    prof = effective_illposedness(b, space, alpha_grid=grid)
    # ratio test on the grid: log D / log(1/alpha) must grow without bound
    # along alpha -> 0 for super-polynomial growth
    ratios = np.log(prof.d_values[:-1]) / np.log(1.0 / prof.alpha_grid[:-1])
    decreasing_alpha = ratios[::-1]
    grows_unbounded = bool(np.all(np.diff(decreasing_alpha) > -1e-12)
                           and decreasing_alpha[-1] > 2.0 * decreasing_alpha[0]
                           and decreasing_alpha[-1] > 3.0)
    print(f"criterion 10 (super-polynomial D): "
          f"{'PASS' if grows_unbounded else 'FAIL (expected: ratio -> 1)'}  "
          f"ratio range [{ratios.min():.3f}, {ratios.max():.3f}]")
    assert grows_unbounded


def _white_study_config(out_dir):
    return parse_config({
        "problem": {"kind": "counting", "n_max": 500,
                    "element": "inverse_sqrt"},
        "scheme": "truncated:cutoff",
        "index_function": {"family": "power", "nu": 1.0},
        "noise": {"mode": "white", "deltas": list(DELTAS_9),
                  "replications": 200},
        "seed": 707,
        "output": {"directory": str(out_dir), "format": "csv"},
    }, digest="criterion-11")


def test_criterion_11_reproducibility(tmp_path):
    r1 = run(_white_study_config(tmp_path / "a"), out_dir=tmp_path / "a")
    r2 = run(_white_study_config(tmp_path / "b"), out_dir=tmp_path / "b")
    csv_a = (tmp_path / "a" / "rows.csv").read_bytes()
    csv_b = (tmp_path / "b" / "rows.csv").read_bytes()
    ok = csv_a == csv_b and r1.exit_code == 0 and r2.exit_code == 0
    report(11, ok, f"{len(csv_a)} bytes, byte-identical={csv_a == csv_b}")
