import numpy as np
import pytest

from multreg import (DETERMINISTIC, WHITE, DeconvolutionProblem,
                     EigenvaluesNotDivergent, ExponentialSequence,
                     GaussianFrequency, MeasureSpace, MultiplicationProblem,
                     MultRegError, PowerDecay, PowerIndex,
                     PurePower, Tabulated, distribution_function,
                     effective_illposedness, lavrentiev, truncate)
from multreg.analysis import sweep_deltas


def test_interval_weights_sum_to_length():
    space = MeasureSpace.interval(0.0, 2.5, 1000)
    assert space.total_measure == pytest.approx(2.5)
    assert np.all(np.diff(space.nodes) > 0)


def test_graded_interval_covers_and_refines():
    space = MeasureSpace.interval_graded(1.0, 4096, s_min=1e-9)
    assert space.total_measure == pytest.approx(1.0)
    assert space.nodes[0] < 1e-9
    assert space.weights[0] < space.weights[-1]


def test_counting_space_unit_weights():
    space = MeasureSpace.counting(10)
    assert np.all(space.weights == 1.0)
    with pytest.raises(ValueError):
        MeasureSpace("counting", np.arange(1.0, 4.0), np.full(3, 2.0),
                     truncation_radius=3.0)


def test_space_rejects_bad_nodes():
    with pytest.raises(ValueError):
        MeasureSpace("lebesgue_interval", np.array([0.1, 0.1]), np.ones(2))
    with pytest.raises(ValueError):
        MeasureSpace("lebesgue_interval", np.array([0.1, 0.2]),
                     np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        MeasureSpace.halfline(0.0, 16)


def test_weighted_norm_and_inner():
    space = MeasureSpace("lebesgue_interval", [0.0, 1.0],
                         [0.25, 0.25])
    assert space.norm([2.0, 0.0]) == 1.0
    assert space.inner([1.0, 1.0], [1.0, -1.0]) == 0.0


def test_norm_of_real_vectors_keeps_its_bytes():
    # real vectors square as v * v; the bytes of np.abs(v) ** 2 are kept
    tiny = np.nextafter(0.0, 1.0)
    v = np.array([-3.5, 0.0, -0.0, tiny, -tiny, 2.2e-308, -1e-160, 1e150,
                  -7.25, 1.0 / 3.0])
    weights = np.linspace(0.5, 2.0, v.size)
    space = MeasureSpace("lebesgue_interval", np.arange(v.size) / v.size,
                         weights)
    rng = np.random.default_rng(4)
    for x in (v, -v, np.clip(v, -1e15, 1e15).astype(np.float32),
              rng.standard_normal(v.size) * v):
        assert space.norm(x) == float(np.sqrt(np.sum(weights * np.abs(x) ** 2)))
    z = v + 1j * v[::-1]
    assert space.norm(z) == float(np.sqrt(np.sum(weights * np.abs(z) ** 2)))


def test_extended_keeps_density():
    space = MeasureSpace.halfline(10.0, 1000)
    wide = space.extended(2.0)
    assert wide.truncation_radius == 20.0
    assert wide.max_weight == pytest.approx(space.max_weight)
    with pytest.raises(ValueError):
        MeasureSpace.counting(5).extended(2.0)


def test_exponential_sequence_guards():
    with pytest.raises(EigenvaluesNotDivergent):
        ExponentialSequence(1.0, 1.0, (3.0, 2.0, 1.0))
    b = ExponentialSequence(1.0, 1.0, tuple(range(1, 9)))
    space = MeasureSpace.counting(8)
    assert b.values_on(space)[0] == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        b.values_on(MeasureSpace.counting(9))


def _uniform_spaces(n):
    """(space, multiplier on it) from every uniform constructor; the
    deconvolution grid needs an even node count."""
    half, line = MeasureSpace.halfline(50.0, n), MeasureSpace.line(8.0, n)
    deconv = DeconvolutionProblem("exponential", 40.0, n + n % 2)
    return [(MeasureSpace.interval(0.0, 1.0, n), PurePower(1.5)),
            (half, PowerDecay(0.5)),
            (line, GaussianFrequency()),
            (MeasureSpace.counting(n), Tabulated(1.0 / np.arange(1.0, n + 1))),
            (half.extended(2.0), PowerDecay(0.5)),
            (line.extended(2.0), GaussianFrequency()),
            (deconv.signal_space, deconv.multiplier),
            (deconv.freq_space, deconv.multiplier)]


def _study_rows(b, space):
    """One deterministic and one white row of a study of f = b^(1/2), or
    the white row's failure and its diagnosis."""
    problem = MultiplicationProblem(b, space, b.values_on(space) ** 0.5)
    rows = sweep_deltas(problem, lavrentiev(), PowerIndex(0.5), [1e-3],
                        DETERMINISTIC, 1.0).rows
    try:
        return rows + sweep_deltas(problem, truncate(lavrentiev()), PowerIndex(1.0),
                                   [1e-3], WHITE, 1.0, n_reps=2, seed=3).rows
    except MultRegError as exc:
        return rows + (repr(exc), getattr(exc, "diagnosis", None))


@pytest.mark.parametrize("n", [10, 8193, 2**17 + 3])
def test_uniform_weights_are_one_read_only_value_read_as_dense(n):
    # each uniform space stores its weight once, with stride 0, and refuses
    # writes; every quadrature, rearrangement and study reads it exactly as
    # the same space with dense np.full weights, ==
    for space, b in _uniform_spaces(n):
        w = space.weights
        assert w.strides == (0,) and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0
        dense = MeasureSpace(space.kind, space.nodes, np.full(w.size, w[0]),
                             truncation_radius=space.truncation_radius)
        u, v = np.cos(space.nodes), b.values_on(space)
        levels = np.geomspace(1e-6, 0.9, 17) * b.sup_bound
        results = []
        for sp in (space, dense):
            profile = effective_illposedness(b, sp)
            alphas = np.geomspace(profile.alpha_grid[0] / 2, b.sup_bound, 9)
            results.append((
                sp.norm(u), sp.norm(v[1:2], slice(1, 2)), sp.total_measure,
                sp.inner(u, v),
                distribution_function(b, sp, levels, allow_exact=False).tolist(),
                profile.d_values.tolist(), profile.upper_bounds.tolist(),
                [profile.d_at(a) for a in alphas], _study_rows(b, sp)))
        assert results[0] == results[1]
