import numpy as np
import pytest

from multreg import (CallableMultiplier, DominationNotDetected, MeasureSpace,
                     PowerDecay, PowerIndex, RearrangementUndefined, TableIndex,
                     PurePower, RequiresFiniteMeasure, Tabulated, compact_case,
                     decreasing_rearrangement, distribution_function,
                     effective_illposedness, increasing_rearrangement,
                     phi_star, piecewise_rearrangement_bounds,
                     truncated_shift_check, vanishes_at_infinity)
from multreg.gallery import exp_decay_pair, plateau_pair, power_decay_pair
from multreg.multipliers import (BackgroundPart, GaussianFrequency,
                                 MonotonePiece, PiecewiseMonotone)
from multreg.rearrangement import _sorted_view

from support import brute_force_increasing, random_mixed_multipliers, random_piecewise


# --- distribution function -------------------------------------------------

def test_distribution_power_decay_closed_form():
    b, space = power_decay_pair(1.0)
    assert distribution_function(b, space, 0.5) == 1.0


def test_distribution_at_sup_is_zero():
    b, space = power_decay_pair(1.3)
    assert distribution_function(b, space, b.sup_bound) == 0.0
    bg = GaussianFrequency(1.0, 1.0)
    sg = MeasureSpace.line(8.0, 2**12)
    assert distribution_function(bg, sg, 1.0) == 0.0


def test_distribution_tabulated_exponential():
    space = MeasureSpace.interval(0.0, 10.0, 2**14)
    b = Tabulated(np.exp(-space.nodes))
    t = np.exp(-2.0)
    # analytic d_b(t) = ln(1/t) = 2; brute-force weight oracle agrees
    d = distribution_function(b, space, t)
    oracle = float(np.sum(space.weights[np.exp(-space.nodes) > t]))
    assert d == oracle
    assert abs(d - 2.0) <= 2 * space.max_weight


def _masked_levels(vals, n_levels=400):
    """Levels at node values, between neighbouring values, at and above
    sup b and below min b, thinned to about ``n_levels``."""
    v = np.unique(vals[vals > 0])
    mids = 0.5 * (v[:-1] + v[1:])
    step = max(1, v.size // (n_levels // 2))
    return np.concatenate((v[::step], mids[::step],
                           [v[-1], 2.0 * v[-1], 0.5 * v[0]]))


def test_distribution_function_matches_masked_sums():
    from multreg import DeconvolutionProblem
    rng = np.random.default_rng(17)
    deconv = DeconvolutionProblem("exponential", 40.0, 2**12)
    ties = MeasureSpace.counting(500)
    uneven = MeasureSpace("lebesgue_interval", np.arange(1.0, 1025.0),
                          rng.uniform(0.1, 2.0, 1024))
    interval = MeasureSpace.interval(0.0, 2.0, 2048)
    wave = Tabulated(0.2 + np.abs(np.sin(3.0 * interval.nodes)))
    cases = [  # (b, space, tolerance relative to the masked sum)
        (Tabulated(np.round(10.0 / ties.nodes, 2)), ties, 0.0),
        (CallableMultiplier(lambda s: np.exp(-s), sup_bound=1.0),
         MeasureSpace.halfline(30.0, 2**12), 0.0),
        (wave, interval, 0.0),
        (deconv.multiplier, deconv.freq_space, 0.0),  # b(-s) = b(s): ties
        (PurePower(1.5), MeasureSpace.interval_graded(1.0, 2**12), 1e-12),
        (Tabulated(np.round(rng.uniform(0.0, 1.0, 1024), 2)), uneven, 1e-12),
    ]
    for b, space, tol in cases:
        vals, w = b.values_on(space), space.weights
        ts = _masked_levels(vals)
        masked = np.array([np.sum(w[vals > t]) for t in ts])
        d = distribution_function(b, space, ts, allow_exact=False)
        if tol == 0.0:
            assert np.array_equal(d, masked)
        else:
            assert np.all(np.abs(d - masked) <= tol * masked)


def test_distribution_rejects_nonpositive_t():
    b, space = power_decay_pair(1.0)
    with pytest.raises(ValueError):
        distribution_function(b, space, 0.0)


# --- vanishing at infinity ---------------------------------------------------

def test_vanishes_at_infinity_families():
    bg = GaussianFrequency(1.0, 1.0)
    assert vanishes_at_infinity(bg, MeasureSpace.line(8.0, 256))
    bp, sp = plateau_pair(20.0, 256)
    assert not vanishes_at_infinity(bp, sp)
    # on the counting measure the plateau b(n) = 1 does not vanish either
    assert not vanishes_at_infinity(bp, MeasureSpace.counting(8))
    bd, sd = power_decay_pair(0.7)
    assert vanishes_at_infinity(bd, sd)
    # trivially true on finite-measure spaces
    assert vanishes_at_infinity(Tabulated(np.ones(8)),
                                MeasureSpace.interval(0, 1, 8))


# --- decreasing rearrangement ------------------------------------------------

def test_decreasing_exponential_is_fixed_point():
    b, space = exp_decay_pair(30.0, 2**14)
    r = decreasing_rearrangement(b, space)
    ts = np.linspace(0.05, 5.0, 40)
    assert np.max(np.abs(r(ts) - np.exp(-ts))) < 2 * space.max_weight


def test_decreasing_counting_already_sorted():
    b, space = compact_case(1.0 / np.arange(1, 51))
    r = decreasing_rearrangement(b, space)
    assert np.array_equal(r.values, 1.0 / np.arange(1, 51))
    # step function: value 1/(k+1) on [k, k+1)
    assert r(0.5) == 1.0 and r(1.5) == 0.5 and r(49.5) == 1.0 / 50


def test_decreasing_abs_sine_matches_brute_force():
    space = MeasureSpace.interval(0.0, 2 * np.pi, 2**14)
    b = Tabulated(np.abs(np.sin(space.nodes)))
    r = decreasing_rearrangement(b, space)
    n_oracle = 10**5
    h = 2 * np.pi / n_oracle
    samples = np.sort(np.abs(np.sin((np.arange(n_oracle) + 0.5) * h)))[::-1]
    ts = np.linspace(0.0, 2 * np.pi * 0.999, 500)
    oracle = samples[np.minimum((ts / h).astype(int), n_oracle - 1)]
    assert np.max(np.abs(r(ts) - oracle)) <= 2 * space.max_weight


def test_decreasing_requires_vanishing():
    b, space = plateau_pair(20.0, 512)
    with pytest.raises(RearrangementUndefined):
        decreasing_rearrangement(b, space)


@pytest.mark.numpy_floor
def test_uniform_weight_sort_equals_the_argsort_path_bit_for_bit():
    # equal weights stored as one value: the values alone are sorted, on a
    # copy, and give the stable argsort's result bit for bit, ties, +-0.0
    # and NaNs of either sign included, in both directions
    rng = np.random.default_rng(27)
    nan = np.float64(np.nan)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, np.inf, -np.inf, nan, -nan])
    for values in (rng.choice(pool, 4096), np.concatenate((pool, rng.random(999))),
                   rng.choice(pool, 4096) * rng.random(4096)):
        values.flags.writeable = False  # as a table's stored array
        kept = values.copy()
        uniform = np.broadcast_to(np.float64(0.5), values.shape)
        for descending in (True, False):
            order = np.argsort(-values if descending else values, kind="stable")
            sorted_values, weights = _sorted_view(values, uniform, descending)
            assert np.array_equal(sorted_values.view(np.int64),
                                  values[order].view(np.int64))
            assert weights is uniform
        assert np.array_equal(values.view(np.int64), kept.view(np.int64))


def test_calculus_leaves_a_tables_values_as_they_are():
    # unsorted, tied values on uniform and array grids: each rearrangement,
    # D(alpha) and phi* call reads the table and leaves it in node order
    n = 2**12
    for space in (MeasureSpace.halfline(50.0, n), MeasureSpace.interval(0.0, 1.0, n),
                  MeasureSpace("lebesgue_halfline", np.arange(1, n + 1) * 0.01,
                               np.full(n, 0.01), truncation_radius=n * 0.01)):
        paired = np.round(PowerDecay(1.0).values_on(space), 4)
        b = Tabulated(paired.reshape(-1, 2)[:, ::-1].ravel())
        kept = b.values.copy()
        distribution_function(b, space, [0.1, 0.5])
        decreasing_rearrangement(b, space)
        effective_illposedness(b, space)
        if space.measure_is_finite:
            increasing_rearrangement(b, space)
        else:
            phi_star(b, space)
        assert np.array_equal(b.values, kept)


def test_rearrangement_outputs_are_monotone():
    for b, space in random_mixed_multipliers(6, 2**10, seed=3):
        r = decreasing_rearrangement(b, space)
        assert np.all(np.diff(r.values) <= 0)
        if space.measure_is_finite:
            ri = increasing_rearrangement(b, space)
            assert np.all(np.diff(ri.values) >= 0)


def test_equimeasurability_on_mixed_families():
    for b, space in random_mixed_multipliers(6, 2**12, seed=11):
        r = decreasing_rearrangement(b, space)
        vals = b.values_on(space)
        sup = float(np.max(vals))
        for t in np.geomspace(sup * 1e-4, sup * 0.999, 16):
            lam_side = r.superlevel_measure(t)
            mu_side = float(np.sum(space.weights[vals > t]))
            assert abs(lam_side - mu_side) <= 2 * space.max_weight


def test_order_preservation():
    rng = np.random.default_rng(5)
    space = MeasureSpace.interval(0.0, 1.0, 2**10)
    lo = rng.uniform(0.1, 1.0, space.nodes.size)
    hi = lo + rng.uniform(0.0, 0.5, space.nodes.size)
    r_lo = decreasing_rearrangement(Tabulated(lo), space)
    r_hi = decreasing_rearrangement(Tabulated(hi), space)
    ts = np.linspace(0, 0.999, 200)
    assert np.all(r_lo(ts) <= r_hi(ts) + 1e-15)


def test_density_bound_transfer():
    # mu with density rho in [c, C]: b*_mu(c t) <= b*_lambda(t) <= b*_mu(C t)
    n = 2**12
    base = MeasureSpace.interval(0.0, 1.0, n)
    rho = 1.25 + 0.5 * np.sin(3.0 * base.nodes)
    c, C = float(np.min(rho)), float(np.max(rho))
    mu_space = MeasureSpace("lebesgue_interval", base.nodes,
                            base.weights * rho)
    vals = np.abs(np.sin(7.0 * base.nodes)) + 0.05
    star_mu = increasing_rearrangement(Tabulated(vals), mu_space)
    star_lam = increasing_rearrangement(Tabulated(vals), base)
    ts = np.linspace(1e-3, 0.999, 300)
    assert np.all(star_mu(c * ts) <= star_lam(ts) + 1e-12)
    assert np.all(star_lam(ts) <= star_mu(C * ts) + 1e-12)


# --- increasing rearrangement ------------------------------------------------

def test_increasing_identity():
    space = MeasureSpace.interval(0.0, 1.0, 2**14)
    r = increasing_rearrangement(Tabulated(space.nodes.copy()), space)
    ts = np.linspace(0.01, 0.99, 25)
    assert np.max(np.abs(r(ts) - ts)) <= 2 * space.max_weight


def test_increasing_vee_shape():
    space = MeasureSpace.interval(0.0, 1.0, 2**14)
    r = increasing_rearrangement(Tabulated(np.abs(space.nodes - 0.5)), space)
    ts = np.linspace(0.01, 0.99, 25)
    assert np.max(np.abs(r(ts) - ts / 2)) <= 2 * space.max_weight


def test_increasing_reflection():
    space = MeasureSpace.interval(0.0, 1.0, 2**14)
    r = increasing_rearrangement(Tabulated(1.0 - space.nodes), space)
    ts = np.linspace(0.01, 0.99, 25)
    assert np.max(np.abs(r(ts) - ts)) <= 2 * space.max_weight


def test_increasing_requires_finite_measure():
    b, space = power_decay_pair(1.0, 20.0, 512)
    with pytest.raises(RequiresFiniteMeasure):
        increasing_rearrangement(b, space)
    bc, sc = compact_case(1.0 / np.arange(1, 20))
    with pytest.raises(RequiresFiniteMeasure):
        increasing_rearrangement(bc, sc)


# --- piecewise-monotone sandwich ---------------------------------------------

def test_piecewise_single_piece_identity():
    piece = MonotonePiece(0.3, "increasing_right", PowerIndex(1.0), 0.2)
    b = PiecewiseMonotone((piece,), BackgroundPart(0.8), hi=1.0)
    bounds = piecewise_rearrangement_bounds(b)
    assert bounds.C == 1.0 and bounds.m == 1
    s = np.linspace(0.001, bounds.window, 20)
    assert np.allclose(bounds.upper(s), s)
    assert np.allclose(bounds.lower(s), s)


def test_piecewise_linear_and_quadratic():
    p1 = MonotonePiece(0.2, "increasing_right", PowerIndex(1.0), 0.1)
    p2 = MonotonePiece(0.6, "increasing_right", PowerIndex(2.0), 0.1)
    b = PiecewiseMonotone((p1, p2), BackgroundPart(0.7), hi=1.0)
    bounds = piecewise_rearrangement_bounds(b)
    assert bounds.dominant_index == 1  # sqrt(tau) dominates tau
    oracle = brute_force_increasing(b, 1.0)
    s = np.geomspace(2e-3, bounds.window, 64)
    star = oracle(s)
    shift = 4.0 / 10**5
    assert np.all(star <= bounds.upper(np.minimum(s + shift, 0.1)) + 1e-12)
    ok = s - shift > 0
    assert np.all(star[ok] >= bounds.lower((s - shift)[ok]) - 1e-12)


def test_piecewise_two_equal_pieces():
    p1 = MonotonePiece(0.2, "increasing_right", PowerIndex(1.0), 0.1)
    p2 = MonotonePiece(0.6, "increasing_left", PowerIndex(1.0), 0.1)
    b = PiecewiseMonotone((p1, p2), BackgroundPart(0.7), hi=1.0)
    bounds = piecewise_rearrangement_bounds(b)
    assert bounds.C == pytest.approx(1.0)
    assert bounds.m == 2
    space = MeasureSpace.interval(0.0, 1.0, 2**14)
    star = increasing_rearrangement(b, space)
    s = np.linspace(5e-3, bounds.window, 30)
    # summed inverses are 2*tau, so b*(t) = t/2 = lower bound exactly
    assert np.max(np.abs(star(s) - s / 2)) <= 4 * space.max_weight


def test_piecewise_randomized_sandwich():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        b = random_piecewise(rng)
        bounds = piecewise_rearrangement_bounds(b)
        oracle = brute_force_increasing(b, 1.0)
        s = np.geomspace(max(bounds.window * 1e-2, 5e-4), bounds.window, 48)
        star = oracle(s)
        shift = 4.0 / 10**5 + 2.0 / 2**14
        assert np.all(star <= np.asarray(bounds.upper(np.minimum(s + shift, bounds.upper.domain[1]))) * (1 + 1e-9) + 1e-12)
        ok = s - shift > 0
        low = np.asarray(bounds.lower((s - shift)[ok]))
        assert np.all(star[ok] >= low * (1 - 1e-9) - 1e-12)


def test_piecewise_unstable_domination_detected():
    # the second piece is s^2 on the probe window, flatter than s, and
    # s^(1/6) below it: as the window shrinks it stops dominating
    tau0 = 0.5 * 0.01 * 1e-6  # the window starts at 1e-6 x half the edge 0.1^2
    s0 = np.sqrt(tau0)
    steep = TableIndex([1e-30, s0, 0.1],
                       [tau0 * (1e-30 / s0) ** (1 / 6), tau0, 0.01])
    p1 = MonotonePiece(0.2, "increasing_right", PowerIndex(1.0), 0.1)
    p2 = MonotonePiece(0.6, "increasing_right", steep, 0.1)
    b = PiecewiseMonotone((p1, p2), BackgroundPart(0.7), hi=1.0)
    with pytest.raises(DominationNotDetected, match="grows"):
        piecewise_rearrangement_bounds(b)


# --- truncation and shift ------------------------------------------------------

def test_truncated_shift_exponential():
    b, space = exp_decay_pair(30.0, 2**14)
    assert truncated_shift_check(b, space, 1.0)
    # analytic: (b_M)_*(t) = e^-1 * e^-t
    mask = space.nodes > 1.0
    shifted_space = MeasureSpace("lebesgue_halfline", space.nodes[mask] - 1.0,
                                 space.weights[mask], truncation_radius=29.0)
    r = decreasing_rearrangement(Tabulated(np.exp(-space.nodes[mask])),
                                 shifted_space)
    ts = np.linspace(0.1, 3.0, 15)
    assert np.max(np.abs(r(ts) - np.exp(-1.0) * np.exp(-ts))) < 3 * space.max_weight


def test_truncated_shift_m_zero_is_identity():
    b, space = exp_decay_pair(20.0, 2**12)
    assert truncated_shift_check(b, space, 0.0)


def test_truncated_shift_rational_decay():
    space = MeasureSpace.halfline(30.0, 2**14)
    b = CallableMultiplier(lambda s: 1.0 / (1.0 + s), sup_bound=1.0)
    assert truncated_shift_check(b, space, 3.0)
