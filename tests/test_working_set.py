"""Working-set guards: how many node-length float arrays an operation
holds at its peak beyond those it returns, traced by tracemalloc (numpy
reports its array buffers to it)."""

import tracemalloc

import numpy as np
# numpy imports numpy.random on first use: a white sweep that did would
# count the module as held, and its own peak as that much lower
import numpy.random  # noqa: F401
import pytest

from multreg import (DETERMINISTIC, WHITE, CallableMultiplier,
                     DeconvolutionProblem, ExponentialSequence, MeasureSpace,
                     PowerDecay, PowerIndex, PurePower, Tabulated,
                     WhiteNoiseSampler, build_problem, concentrated_noise,
                     counting_problem, decreasing_rearrangement,
                     distribution_function, effective_illposedness,
                     increasing_rearrangement, lavrentiev, lavrentiev_deconvolve,
                     parse_config, phi_star, sample_white, spectral_cutoff,
                     truncate)
from multreg import analysis
from multreg.analysis import sweep_deltas
from multreg.noise import concentrated_direction
from multreg.spaces import _PIECE

N = 2**18
#: one piece of the nodes (see ``MeasureSpace._pieces``), in arrays of N doubles
PIECE = _PIECE / N
#: Python objects made along the way, in arrays of N doubles (26 kB)
SLACK = 0.0125


def _transient_arrays(call) -> float:
    """Peak traced memory of ``call()`` above what its result still holds,
    in arrays of N doubles."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return (peak - held) / (8 * N)


def _held_and_peak(call) -> tuple:
    """Traced memory that ``call()``'s result holds, and the call's peak,
    in arrays of N doubles."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held / (8 * N), peak / (8 * N)


@pytest.fixture(scope="module")
def pure_power():
    return parse_config({
        "problem": {"kind": "pure_power", "kappa": 1.5}, "scheme": "lavrentiev",
        "index_function": {"family": "power", "nu": 0.5},
        "noise": {"mode": "deterministic", "deltas": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]},
        "discretization": {"n_nodes": N}})


#: the deltas of a white sweep, 1e-2 down to 1e-6 in half decades
DELTAS = list(np.logspace(-2, -6, 9))


@pytest.fixture(scope="module")
def power_decay():
    config = parse_config({
        "problem": {"kind": "power_decay", "kappa": 0.5},
        "scheme": "truncated:cutoff",
        "index_function": {"family": "power", "nu": 1.0},
        "noise": {"mode": "white", "deltas": DELTAS, "replications": 4},
        "discretization": {"n_nodes": N, "truncation_radius": 50.0}})
    return build_problem(config)


def _white_sweep(problem, scheme, deltas):
    return lambda: sweep_deltas(problem, scheme, problem.phi, deltas, WHITE,
                                1.0, n_reps=4, seed=3)


def test_effective_illposedness_working_set():
    # b's values: the sorted copy is b_* and the running sum is formed in
    # the profile's own array, both returned; then four pieces of the
    # domain side's cross-check
    b, space = PowerDecay(0.5), MeasureSpace.halfline(50.0, N)
    assert _transient_arrays(lambda: effective_illposedness(b, space)) \
        <= 1 + 4 * PIECE + SLACK


def test_deterministic_sweep_working_set(pure_power):
    # b's values, and pieces: the two leaf buffers, and while a leaf's
    # filter and its temporary are formed, the last leaf's filter and its
    # magnitude
    problem = build_problem(pure_power)
    assert _transient_arrays(lambda: sweep_deltas(
        problem, lavrentiev(), problem.phi, pure_power.deltas, DETERMINISTIC,
        1.0)) <= 1 + 6 * PIECE + SLACK


def test_white_sweep_working_sets(power_decay):
    # b's values and D(alpha)'s two arrays while the alpha* are chosen and
    # checked, leaf by leaf; then, D(alpha) dropped, each delta's filter and
    # its weights beside the earlier deltas' weights.  A cut-off's noise
    # weights are one buffer, prefixes of the widest, and it keeps no cross
    # vector; a truncated Lavrentiev sweep keeps both vectors of every
    # delta on its support, which is every node of the counting problem
    # (measured: 3.24, 6.14 and 12.00 arrays)
    counting = counting_problem(N, PowerIndex(1.0))
    for problem, scheme, deltas, bound in (
            (power_decay, truncate(spectral_cutoff()), DELTAS, 3.25),
            (power_decay, truncate(lavrentiev()), DELTAS, 6.25),
            (counting, lavrentiev(), DELTAS[::2], 12.0)):
        assert _transient_arrays(_white_sweep(problem, scheme, deltas)) \
            <= bound + SLACK


def test_white_sweep_drops_the_divergence_grids_before_its_weights(
        power_decay, monkeypatch):
    # the last delta's alpha* is below b's largest value beyond R: its check
    # builds the 2R and 4R grids, 6 arrays beside b's values, which no
    # weights step reads (measured: 7.25 arrays)
    built, extended = [], MeasureSpace.extended
    monkeypatch.setattr(MeasureSpace, "extended", lambda space, factor:
                        built.append(factor) or extended(space, factor))
    assert _transient_arrays(lambda: sweep_deltas(
        power_decay, truncate(spectral_cutoff()), PowerIndex(0.5),
        [1e-2, 1e-3, 1e-4, 1e-5, 2e-6], WHITE, 1.0, n_reps=4, seed=3)) \
        <= 7.25 + SLACK
    assert built == [2.0, 4.0]


def test_cutoff_sweep_keeps_one_noise_buffer_and_no_cross_vector(
        power_decay, monkeypatch):
    held, monte_carlo = [], analysis._monte_carlo
    monkeypatch.setattr(analysis, "_monte_carlo", lambda weights, *args:
                        held.extend(weights) or monte_carlo(weights, *args))
    _white_sweep(power_decay, truncate(spectral_cutoff()), DELTAS)()
    noise = [w.sum_w[1] for w in held]
    widest = max(noise, key=np.size)
    assert [w.sum_w[0].size for w in held] == [0] * len(DELTAS)
    assert all(v is widest or v.base is widest for v in noise)
    assert widest.size > noise[0].size > 0


def test_phi_star_working_set():
    # b's values, |s|, the inner-region mask (1/8) and the sorted copy of
    # the values; the outer half is read from slices of the nodes, not
    # gathered
    problem = DeconvolutionProblem("exponential", 40.0, N)
    assert _transient_arrays(lambda: phi_star(problem.multiplier,
                                              problem.freq_space)) \
        <= 3 + 1 / 8 + SLACK


def test_build_problem_working_set(pure_power):
    # a uniform grid stores no weights array: b's values and the square
    # in the source element's norm beside the solution, returned, formed
    # piece by piece in the element's buffer
    assert _transient_arrays(lambda: build_problem(pure_power)) <= 2 + SLACK


def test_distribution_function_working_set():
    # b has no closed form: its values and their sorted copy
    b = CallableMultiplier(lambda s: 1.0 / (1.0 + s * s), sup_bound=1.0)
    space = MeasureSpace.halfline(50.0, N)
    assert _transient_arrays(lambda: distribution_function(
        b, space, np.geomspace(1e-6, 1.0, 64))) <= 2 + SLACK


def test_rearrangements_working_set():
    # b's values; the sorted copy and the knots are returned
    for rearrange, b, space in (
            (decreasing_rearrangement, PowerDecay(0.5), MeasureSpace.halfline(50.0, N)),
            (increasing_rearrangement, PurePower(1.5), MeasureSpace.interval(0.0, 1.0, N))):
        assert _transient_arrays(lambda: rearrange(b, space)) <= 1 + SLACK


def test_uniform_grids_hold_no_node_array():
    # a uniform space stores its node formula and one weight; a
    # deconvolution problem's two grids and multiplier hold no array either
    for build in (lambda: MeasureSpace.interval(0.0, 1.0, N),
                  lambda: MeasureSpace.halfline(50.0, N),
                  lambda: MeasureSpace.line(8.0, N),
                  lambda: MeasureSpace.counting(N),
                  lambda: MeasureSpace.halfline(50.0, N).extended(4.0)):
        assert _held_and_peak(build)[0] <= SLACK
    assert _held_and_peak(lambda: DeconvolutionProblem("exponential", 40.0, N))[0] \
        <= SLACK


def test_lavrentiev_deconvolve_working_set():
    # the shifted signal and the half spectrum (n/2 + 1 complex values, one
    # array) with phi on it, and the signal returned; the first call leaves
    # numpy's FFT plans cached
    problem = DeconvolutionProblem("exponential", 40.0, N)
    y = np.cos(problem.signal_space.nodes)
    lavrentiev_deconvolve(problem, y, 1e-3)
    held, peak = _held_and_peak(lambda: lavrentiev_deconvolve(problem, y, 1e-3))
    assert held <= 1 + SLACK and peak <= 3.5 + SLACK


def test_uniform_grid_studies_and_size_checks_form_no_node_array(monkeypatch):
    # on uniform grids, building a problem (a deconvolution problem's with
    # phi*), deterministic and white sweeps (with the divergence check's 2R
    # and 4R grids) and the size checks of the noise and the multipliers
    # never form the node array
    formed = []
    nodes = MeasureSpace.nodes

    def counted(space):
        formed.append(space.kind)
        return nodes.fget(space)

    monkeypatch.setattr(MeasureSpace, "nodes", property(counted))
    power = {"family": "power", "nu": 0.5}
    for problem, index in (({"kind": "pure_power", "kappa": 0.5}, power),
                           ({"kind": "power_decay", "kappa": 0.5}, power),
                           ({"kind": "deconvolution", "kernel": "exponential",
                             "half_width": 40.0}, {"family": "reciprocal_measure"})):
        config = parse_config({
            "problem": problem, "scheme": "lavrentiev", "index_function": index,
            "discretization": {"n_nodes": 2**12}})
        problem = build_problem(config)
        for mode, scheme in ((DETERMINISTIC, lavrentiev()),
                             (WHITE, truncate(lavrentiev()))):
            sweep_deltas(problem, scheme, problem.phi, [1e-2, 1e-4], mode, 1.0,
                         n_reps=2, seed=1)
    space = MeasureSpace.counting(N)
    sample_white(WhiteNoiseSampler(0), space)
    concentrated_noise(space, -1)
    concentrated_direction(space, 3)
    Tabulated(np.ones(N)).values_on(space)
    with pytest.raises(ValueError, match="not enough eigenvalues"):
        ExponentialSequence(1.0, 1.0, (1.0, 2.0)).values_on(space)
    assert formed == []
