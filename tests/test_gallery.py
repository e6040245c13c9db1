import numpy as np
import pytest

from multreg import (DegenerateFilter, EigenvaluesNotDivergent,
                     FinalValueProblem, MeasureSpace, compact_case,
                     effective_illposedness, fvp_multiplier,
                     lavrentiev, lavrentiev_deconvolve, n_alpha,
                     periodic_convolve, reconstruct, spectral_cutoff,
                     tikhonov_wiener, to_frequency, from_frequency,
                     wiener_weight)
from multreg.gallery import DeconvolutionProblem


@pytest.fixture(scope="module")
def exp_problem():
    return DeconvolutionProblem("exponential", half_width=40.0, n=4096)


@pytest.fixture(scope="module")
def gauss_problem():
    return DeconvolutionProblem("gaussian", half_width=40.0, n=4096, sigma=1.0)


# --- transforms ---------------------------------------------------------------

def test_transform_of_zero(exp_problem):
    u = to_frequency(exp_problem, np.zeros(exp_problem.n))
    assert np.all(u == 0)


def test_parseval(exp_problem):
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.standard_normal(exp_problem.n)
        ny = exp_problem.signal_space.norm(y)
        nu = exp_problem.freq_space.norm(to_frequency(exp_problem, y))
        assert abs(ny - nu) <= 1e-10 * ny


def test_round_trip(exp_problem):
    rng = np.random.default_rng(2)
    y = rng.standard_normal(exp_problem.n)
    back = from_frequency(exp_problem, to_frequency(exp_problem, y))
    assert np.max(np.abs(back - y)) < 1e-12


def _full_fft_transforms(p):
    # the complex-FFT forms of to_frequency and periodic_convolve, with the
    # half-period shift as the phase (-1)^k
    dt = 2.0 * p.half_width / p.n
    phase = np.where(np.fft.fftfreq(p.n, d=1.0 / p.n).astype(int) % 2, -1.0, 1.0)
    r_off = p.kernel_values(np.fft.fftfreq(p.n, d=1.0 / p.n) * dt)
    return (lambda y: np.fft.fftshift(np.fft.fft(y) * phase * dt / np.sqrt(2 * np.pi)),
            lambda x: dt * np.real(np.fft.ifft(np.fft.fft(r_off) * np.fft.fft(x))))


@pytest.mark.parametrize("n", [4, 6, 10, 4096])
def test_real_transforms_match_the_complex_fft(n):
    # real-input FFTs sum in another order: agreement to a few ulps of the
    # largest value, and the round trip holds
    p = DeconvolutionProblem("gaussian", half_width=5.0, n=n)
    to_freq, convolve = _full_fft_transforms(p)
    y = np.random.default_rng(n).standard_normal(n)
    for got, want in ((to_frequency(p, y), to_freq(y)),
                      (periodic_convolve(p, y), convolve(y))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(from_frequency(p, to_frequency(p, y)) - y)) < 1e-12


def test_transforms_refuse_complex_signals(exp_problem):
    y = np.zeros(exp_problem.n, complex)
    for transform in (to_frequency, periodic_convolve):
        with pytest.raises(ValueError, match="real signal"):
            transform(exp_problem, y)
    with pytest.raises(ValueError, match="real signal"):
        lavrentiev_deconvolve(exp_problem, y, 1e-3)


def test_kernel_symmetry(exp_problem, gauss_problem):
    for p in (exp_problem, gauss_problem):
        u = np.linspace(0.0, 10.0, 100)
        assert np.array_equal(p.kernel_values(u), p.kernel_values(-u))
        assert np.all(p.multiplier(p.freq_space.nodes) >= 0)


def test_kernel_transform_is_real(exp_problem, gauss_problem):
    # the transform of a symmetric kernel is real up to roundoff
    for p in (exp_problem, gauss_problem):
        u = to_frequency(p, p.kernel_values(p.signal_space.nodes))
        assert np.max(np.abs(u.imag)) < 1e-10 * np.max(np.abs(u.real))


def test_convolution_theorem_band_limited(gauss_problem):
    p = gauss_problem
    t = p.signal_space.nodes
    x = np.exp(-(t**2) / 8.0) * np.cos(2.0 * t)
    lhs = to_frequency(p, periodic_convolve(p, x))
    rhs = p.multiplier(p.freq_space.nodes) * to_frequency(p, x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_periodic_convolve_matches_direct_sum():
    p = DeconvolutionProblem("gaussian", half_width=20.0, n=256)
    t = p.signal_space.nodes
    x = np.exp(-(t**2) / 4.0)
    dt = 2 * p.half_width / p.n
    direct = np.empty(p.n)
    for j in range(p.n):
        d = (t[j] - t + p.half_width) % (2 * p.half_width) - p.half_width
        direct[j] = dt * np.sum(p.kernel_values(d) * x)
    assert np.max(np.abs(periodic_convolve(p, x) - direct)) < 1e-12


# --- Wiener filter ------------------------------------------------------------

def test_wiener_weight_values():
    assert wiener_weight(1.0, 1.0, 1.0) == 0.5
    assert wiener_weight(0.25, 1.0, 0.0) == pytest.approx(4.0)  # pure inversion
    with pytest.raises(DegenerateFilter):
        wiener_weight(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        wiener_weight(1.0, 0.0, 1.0)


def test_wiener_equals_tikhonov_with_matched_alpha():
    s_f, delta = 2.5, 0.3
    scheme = tikhonov_wiener()
    alpha = delta**2 / s_f
    for b_val in (1.0, 0.5, 0.01):
        assert wiener_weight(b_val, s_f, delta) == \
            pytest.approx(scheme.phi(alpha, b_val), rel=1e-12)


# --- deconvolution pipeline ------------------------------------------------------

def test_deconvolve_exact_data_limit(exp_problem):
    p = exp_problem
    t = p.signal_space.nodes
    x = np.exp(-(t**2) / 8.0)
    g = p.multiplier(p.freq_space.nodes) * to_frequency(p, x)
    y = from_frequency(p, g)  # the blurred signal r * x
    err_big = p.signal_space.norm(lavrentiev_deconvolve(p, y, 1e-3) - x)
    err_small = p.signal_space.norm(lavrentiev_deconvolve(p, y, 1e-7) - x)
    assert err_small < err_big
    assert err_small < 1e-5


def test_deconvolve_filter_norm_bound(exp_problem):
    p = exp_problem
    rng = np.random.default_rng(3)
    y = rng.standard_normal(p.n)
    alpha = float(p.multiplier.sup_bound)
    est = lavrentiev_deconvolve(p, y, alpha)
    assert p.signal_space.norm(est) <= p.signal_space.norm(y) / alpha * (1 + 1e-9)


def test_deconvolve_equals_generic_pipeline(exp_problem):
    # bit-for-bit: the gallery routine is the estimator composed with the
    # transforms, with no problem-specific math
    p = exp_problem
    rng = np.random.default_rng(4)
    y = rng.standard_normal(p.n)
    alpha = 3e-3
    via_gallery = lavrentiev_deconvolve(p, y, alpha)
    g = to_frequency(p, y)
    rec = reconstruct(lavrentiev(), alpha, p.multiplier, p.freq_space, g)
    via_generic = from_frequency(p, rec)
    assert np.array_equal(via_gallery, via_generic)


# --- final value problems ----------------------------------------------------------

def test_fvp_whole_space_values():
    b, space = fvp_multiplier(FinalValueProblem("whole_space", c=1.0, tau=1.0))
    assert b(0.0) == 1.0
    assert b(1.0) == pytest.approx(np.exp(-1.0))
    assert space.kind == "lebesgue_line"


def test_fvp_bounded_values_and_exponent_switch():
    b, space = fvp_multiplier(FinalValueProblem("bounded_domain", n_max=8))
    vals = b.values_on(space)
    assert vals[0] == pytest.approx(np.exp(-1.0))
    assert vals[2] == pytest.approx(np.exp(-9.0))
    b1, _ = fvp_multiplier(FinalValueProblem("bounded_domain", n_max=8,
                                             exponent_power=1))
    assert b1.values_on(space)[2] == pytest.approx(np.exp(-3.0))


def test_fvp_rejects_bounded_eigenvalues():
    with pytest.raises(EigenvaluesNotDivergent):
        fvp_multiplier(FinalValueProblem("bounded_domain", n_max=4,
                                         eigenvalues=(1.0, 1.0, 1.0, 1.0)))
    with pytest.raises(EigenvaluesNotDivergent):
        fvp_multiplier(FinalValueProblem("bounded_domain", n_max=4,
                                         eigenvalues=(2.0, 1.5, 1.0, 0.5)))


def test_fvp_coefficient_map_is_isometric():
    # synthesize functions from coefficients with an orthonormal sine basis
    # and check the norms match (quadrature-level Parseval)
    n_modes, n_grid = 16, 4096
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(n_modes) / np.arange(1, n_modes + 1) ** 2
    x = MeasureSpace.interval(0.0, np.pi, n_grid)
    basis = np.sqrt(2.0 / np.pi) * np.sin(np.outer(np.arange(1, n_modes + 1),
                                                   x.nodes))
    func = coeffs @ basis
    l2_coeff = float(np.sqrt(np.sum(coeffs**2)))
    l2_func = x.norm(func)
    assert l2_func == pytest.approx(l2_coeff, rel=1e-6)


def test_compact_case_and_n_alpha():
    b, space = compact_case(1.0 / np.arange(1, 201))
    assert space.kind == "counting"
    alpha = 0.34
    N = n_alpha(b, space, alpha)
    vals = b.values_on(space)
    assert N == 2
    assert vals[N - 1] >= alpha > vals[N]
    assert n_alpha(b, space, 2.0) == 0


def test_fvp_recovery_and_profile():
    b, space = fvp_multiplier(FinalValueProblem("bounded_domain", n_max=64))
    vals = b.values_on(space)
    f0 = np.zeros(64)
    f0[:5] = [1.0, -0.5, 0.25, 0.1, 0.05]
    g = vals * f0
    rec = reconstruct(spectral_cutoff(), float(np.exp(-30.0)), b, space, g)
    assert np.max(np.abs(rec - f0)) < 1e-10
    prof = effective_illposedness(b, space,
                                  alpha_grid=np.geomspace(np.exp(-300), 0.3, 32))
    assert np.all(np.isfinite(prof.d_values))
    assert np.all(prof.d_values <= prof.upper_bounds * (1 + 1e-9))
