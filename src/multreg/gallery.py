"""Concrete multiplication problems: deconvolution, backward heat, l2 case.

Deconvolution on the line is modelled on a periodic grid surrogate: a
uniform grid on [-L, L) with the unitary discrete Fourier transform, whose
frequency nodes pi*k/L make the kernel transform evaluable in closed form.
The backward-heat (final value) problems only ever use the frequency or
eigenvalue multiplier; no PDE is time-stepped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import MultiplicationProblem
from .indexfuncs import IndexFunction
from .multipliers import (CallableMultiplier, ExponentialSequence,
                          GaussianFrequency, Multiplier,
                          PlateauCounterexample, PowerDecay, PurePower,
                          Tabulated)
from .schemes import lavrentiev
from .smoothness import source_function
from .spaces import MeasureSpace, _uniform_weights

_SQRT2PI = np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# deconvolution

# kernel name -> (kernel r(u, sigma), its symbol at frequency s)
_KERNELS = {
    "exponential": (lambda u, sig: 0.5 * np.exp(-np.abs(u)),
                    lambda s, sig: 1.0 / (1.0 + s**2)),
    "gaussian": (lambda u, sig: np.exp(-u**2 / (2 * sig**2)) / (sig * _SQRT2PI),
                 lambda s, sig: np.exp(-sig**2 * s**2 / 2.0)),
}


@dataclass(frozen=True)
class DeconvolutionProblem:
    """Kernel, periodic grid and derived frequency multiplier.

    ``kernel`` is "exponential" (r(u) = exp(-|u|)/2, symbol 1/(1+s^2)) or
    "gaussian" (unit-mass Gaussian of width ``sigma``, symbol
    exp(-sigma^2 s^2 / 2)).
    """

    kernel: str
    half_width: float
    n: int
    sigma: float = 1.0
    signal_space: MeasureSpace = field(init=False)
    freq_space: MeasureSpace = field(init=False)
    multiplier: Multiplier = field(init=False)

    def __post_init__(self):
        if self.n % 2 or self.n < 4:
            raise ValueError("need an even grid size >= 4")
        L, n = self.half_width, self.n
        dt = 2.0 * L / n
        sig_space = MeasureSpace("lebesgue_line", lambda k: -L + dt * k,
                                 _uniform_weights(dt, n), truncation_radius=L)
        # fftshift(2 pi fftfreq(n, dt)): frequencies k = -n/2 .. n/2 - 1
        freq_space = MeasureSpace(
            "lebesgue_line", lambda k: _frequencies(n, dt, k - n // 2),
            _uniform_weights(np.pi / L, n),
            truncation_radius=float(-_frequencies(n, dt, -(n // 2))))
        if not isinstance(self.kernel, str) or self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel '{self.kernel}'")
        sig, symbol = self.sigma, _KERNELS[self.kernel][1]
        # both symbols are positive and peak at s = 0, a node of the grid
        mult = CallableMultiplier(lambda s: symbol(s, sig),
                                  sup_bound=float(symbol(0.0, sig)),
                                  tail_vanishes=True)
        object.__setattr__(self, "signal_space", sig_space)
        object.__setattr__(self, "freq_space", freq_space)
        object.__setattr__(self, "multiplier", mult)

    def kernel_values(self, u):
        return _KERNELS[self.kernel][0](np.asarray(u, float), self.sigma)


def _frequencies(n: int, dt: float, k):
    """Frequencies k of the n-point grid, bit for bit 2 pi fftfreq(n, dt)."""
    return 2.0 * np.pi * (k * (1.0 / (n * dt)))


def _real_signal(y) -> np.ndarray:
    y = np.asarray(y)
    if np.iscomplexobj(y):
        raise ValueError("expected a real signal, got complex values")
    return y


def to_frequency(problem: DeconvolutionProblem, y) -> np.ndarray:
    """Unitary transform of a real signal to the frequency grid (sorted
    ascending).

    Exact Parseval identity: the weighted norms of y and of the output
    coincide up to rounding.
    """
    n = problem.n
    dt = 2.0 * problem.half_width / n
    # t_j = -L + j*dt and s_k = pi*k/L, so sum_j y_j exp(-i s_k t_j) =
    # (-1)^k FFT[y]_k: (-1)^k is the shift of y by half a period
    half = np.fft.rfft(np.roll(_real_signal(y), n // 2)) * dt / _SQRT2PI
    spec = np.empty(n, complex)
    spec[0] = half[-1]  # s = -pi n / (2L), the Nyquist term
    # y is real: the negative frequencies mirror the positive ones
    np.conjugate(half[-2:0:-1], out=spec[1:n // 2])
    spec[n // 2:] = half[:-1]
    return spec


def from_frequency(problem: DeconvolutionProblem, u) -> np.ndarray:
    """Inverse of :func:`to_frequency`, returning a real signal.

    The signal is the inverse transform of u's Hermitian part, by
    ``np.fft.irfft`` of its n/2 + 1 nonnegative frequencies.  The rest of
    u, its anti-Hermitian part A, must be negligible: the full inverse
    transform y of u may have no imaginary part above 1e-8 max |y| (real
    data stays real through real filters), or ValueError is raised.  As
    |Im y| <= sum |A_k| / n and, by Parseval, max |y| >= ||u||_2 / n, u
    passes at once when sum |A_k| <= 1e-8 ||u||_2; only otherwise is y
    formed to decide.
    """
    n = problem.n
    dt = 2.0 * problem.half_width / n
    u = np.asarray(u)
    if u.shape != (n,):
        raise ValueError(f"expected {n} frequency values, got shape {u.shape}")
    # frequency k = 0 .. n/2 of the FFT order is u[n/2 + k] (k = n/2 is the
    # Nyquist term u[0]), and -k is u[n/2 - k]
    half = np.concatenate((u[n // 2:], u[:1]), dtype=np.result_type(u, 1.0))
    flipped = u[n // 2::-1]  # frequency -k at index k
    # half - mirror = 2A on bins 0 .. n/2, mirror = conj(flipped), and each
    # other bin's |A_k| is its mirror's among them: the sum of
    # |half - mirror| bounds sum |A_k|; 2A is formed in the mirror's array
    anti = np.conjugate(flipped, dtype=half.dtype)
    np.subtract(half, anti, out=anti)
    if not np.sum(np.abs(anti)) <= 1e-8 * np.linalg.norm(u):
        y = np.fft.ifft(np.fft.ifftshift(u) * _SQRT2PI / dt)
        if np.max(np.abs(y.imag)) > 1e-8 * (np.max(np.abs(y)) + 1e-300):
            raise ValueError("inverse transform produced a non-real signal")
    del anti
    half += np.conjugate(flipped, dtype=half.dtype)
    half *= 0.5 * _SQRT2PI / dt
    # (-1)^k undoes the half-period shift of to_frequency
    half[1::2] *= -1.0
    return np.fft.irfft(half, n)


def periodic_convolve(problem: DeconvolutionProblem, x) -> np.ndarray:
    """Grid convolution (r * x) of a real signal with the kernel wrapped
    periodically."""
    dt = 2.0 * problem.half_width / problem.n
    offsets = np.fft.fftfreq(problem.n, d=1.0 / problem.n) * dt
    r_off = problem.kernel_values(offsets)
    return dt * np.fft.irfft(np.fft.rfft(r_off) * np.fft.rfft(_real_signal(x)),
                             problem.n)


def lavrentiev_deconvolve(problem: DeconvolutionProblem, y_delta,
                          alpha: float) -> np.ndarray:
    """Filter 1/(alpha + b) in frequency space, then transform back.

    This is exactly the generic estimator applied to the derived
    multiplier, composed with the transforms, ``from_frequency(problem,
    phi * to_frequency(problem, y_delta))`` bit for bit, on the half
    spectrum: the symbols are even, so phi * g_delta is Hermitian.
    """
    n = problem.n
    dt = 2.0 * problem.half_width / n
    half = np.fft.rfft(np.roll(_real_signal(y_delta), n // 2)) * dt / _SQRT2PI
    half *= lavrentiev().phi(alpha, problem.multiplier(
        _frequencies(n, dt, np.arange(n // 2 + 1))))
    half *= _SQRT2PI / dt  # from_frequency's 0.5 sqrt(2 pi) / dt, on 2 * half
    half[1::2] *= -1.0  # undoes the half-period shift
    return np.fft.irfft(half, n)


# ---------------------------------------------------------------------------
# final value problems

@dataclass(frozen=True)
class FinalValueProblem:
    """Descriptor for the backward-heat instances.

    ``whole_space`` lives on a symmetric frequency grid with multiplier
    exp(-c^2 tau |s|^2); ``bounded_domain`` lives on the counting measure
    with multiplier exp(-c^2 lambda_n^p tau) (p = 2 as displayed in the
    source problem, p = 1 for the standard semigroup convention).
    """

    variant: str
    c: float = 1.0
    tau: float = 1.0
    radius: float = 8.0
    n_grid: int = 2**12
    n_max: int = 64
    eigenvalues: tuple | None = None
    exponent_power: int = 2

    def __post_init__(self):
        if self.variant not in ("whole_space", "bounded_domain"):
            raise ValueError(f"unknown variant '{self.variant}'")


def fvp_multiplier(fvp: FinalValueProblem) -> tuple[Multiplier, MeasureSpace]:
    """Build the multiplier and matching space for a final value problem."""
    if fvp.variant == "whole_space":
        space = MeasureSpace.line(fvp.radius, fvp.n_grid)
        return GaussianFrequency(fvp.c, fvp.tau), space
    lam = fvp.eigenvalues
    if lam is None:
        lam = tuple(float(k) for k in range(1, fvp.n_max + 1))
    # every eigenvalue is checked, then the table keeps the first n_max
    table = ExponentialSequence(fvp.c, fvp.tau, lam,
                                exponent_power=fvp.exponent_power)
    space = MeasureSpace.counting(fvp.n_max)
    if table.values.size < fvp.n_max:
        raise ValueError("not enough eigenvalues for this space")
    return replace(table, values=table.values[:fvp.n_max]), space


def compact_case(b_values=None, n_max: int | None = None,
                 ) -> tuple[Multiplier, MeasureSpace]:
    """Counting-measure instance from positive eigenvalues of A, all of
    ``b_values`` or 1/j for j = 1 .. n_max."""
    if (b_values is None) == (n_max is None):
        raise ValueError("give either b_values or n_max")
    vals = 1.0 / np.arange(1, n_max + 1, dtype=float) if b_values is None \
        else np.asarray(b_values, float)
    if np.any(vals <= 0):
        raise ValueError("eigenvalues must be positive")
    space = MeasureSpace.counting(vals.size)
    return Tabulated(vals, tail_vanishes=True), space


# ---------------------------------------------------------------------------
# ready-made problems for the experiment runner

def _indices(n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=float)


# source element name -> (v_1, ..., v_n) as a function of n
_SOURCE_ELEMENTS = {
    "constant": np.ones,  # no index array to discard
    "inverse": lambda n: 1.0 / _indices(n),
    "inverse_sqrt": lambda n: 1.0 / np.sqrt(_indices(n)),
    "unit_first": lambda n: (_indices(n) == 1.0).astype(float),
}


def source_element_vector(name: str, n: int) -> np.ndarray:
    if not isinstance(name, str) or name not in _SOURCE_ELEMENTS:
        raise ValueError(f"unknown source element '{name}' "
                         f"(choose from {tuple(_SOURCE_ELEMENTS)})")
    return _SOURCE_ELEMENTS[name](n)


def counting_problem(n_max: int, phi: IndexFunction,
                     element: str = "inverse_sqrt") -> MultiplicationProblem:
    """l2 problem with b_j = 1/j and f = phi(b) v.

    The source element v is normalized to unit weighted norm, so the
    solution sits exactly on the boundary of the source set.
    """
    b, space = compact_case(None, n_max)
    v = source_element_vector(element, n_max)
    v = v / space.norm(v)
    f = source_function(v, b, space, phi)
    # ||v|| is 1 only up to rounding (at n_max = 2, 3, 5, ...), so the
    # bounds take the computed norm
    return MultiplicationProblem(b=b, space=space, f_true=f,
                                 name=f"counting[{element}]",
                                 source_scale=float(space.norm(v)), phi=phi)


def power_decay_pair(kappa: float, radius: float = 50.0,
                     n: int = 2**14) -> tuple[Multiplier, MeasureSpace]:
    return PowerDecay(kappa), MeasureSpace.halfline(radius, n)


def pure_power_pair(kappa: float, n: int = 2**14,
                    graded: bool = False) -> tuple[Multiplier, MeasureSpace]:
    space = MeasureSpace.interval_graded(1.0, n) if graded \
        else MeasureSpace.interval(0.0, 1.0, n)
    return PurePower(kappa), space


def plateau_pair(radius: float = 50.0, n: int = 2**14) -> tuple[Multiplier, MeasureSpace]:
    return PlateauCounterexample(), MeasureSpace.line(radius, n)


def exp_decay_pair(radius: float = 30.0, n: int = 2**14) -> tuple[Multiplier, MeasureSpace]:
    """b(s) = exp(-s) on the half-line, with its exact distribution function."""
    mult = CallableMultiplier(
        lambda s: np.exp(-s), sup_bound=1.0, tail_vanishes=True,
        exact_distribution=lambda t, space: np.log(1.0 / t) if t < 1.0 else 0.0)
    return mult, MeasureSpace.halfline(radius, n)
