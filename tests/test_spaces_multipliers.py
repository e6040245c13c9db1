import numpy as np
import pytest

from multreg import (DETERMINISTIC, WHITE, DeconvolutionProblem,
                     EigenvaluesNotDivergent, ExponentialSequence,
                     FinalValueProblem, GaussianFrequency, MeasureSpace,
                     MultiplicationProblem, MultRegError, PowerDecay,
                     PowerIndex, PurePower, Tabulated, compact_case,
                     distribution_function, effective_illposedness,
                     from_frequency, fvp_multiplier, lavrentiev,
                     lavrentiev_deconvolve, to_frequency, truncate)
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


@pytest.mark.numpy_floor
def test_norm_of_vectors_longer_than_a_leaf_keeps_its_bytes():
    # summed leaf by leaf on numpy's pairwise tree, the dense sum's bits;
    # 17 leaves, whose sums added in order differ in the last bit for most
    # such vectors
    n = 2**18 + 1001
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-3, 4, (3, n))
    for space in (MeasureSpace.halfline(7.0, n),
                  MeasureSpace("lebesgue_interval", np.arange(n) / n,
                               rng.uniform(0.5, 2.0, n))):
        w = space.weights
        for v in (*x, x[0] + 1j * x[1]):
            assert space.norm(v) == float(np.sqrt(np.sum(w * np.abs(v) ** 2)))


def test_extended_keeps_density():
    space = MeasureSpace.halfline(10.0, 1000)
    wide = space.extended(2.0)
    assert wide.truncation_radius == 20.0
    assert wide.max_weight == pytest.approx(space.max_weight)
    with pytest.raises(ValueError):
        MeasureSpace.counting(5).extended(2.0)


def test_extended_nodes_are_the_formula_on_any_slice():
    # the nodes of any slice of an extension, in pieces of 1, 7 or 2^14
    # nodes, are its nodes bit for bit, on uniform and array spaces; an
    # extension that cannot be built is refused by the constructor's checks
    array_space = MeasureSpace("lebesgue_halfline", [0.5, 2.0, 3.0], np.ones(3),
                               truncation_radius=3.5)
    for space in (MeasureSpace.halfline(50.0, 1000), MeasureSpace.line(8.0, 1001),
                  array_space):
        for factor in (2.0, 2.5, 4.0, 8.0):
            wide = space.extended(factor)
            nodes = wide.nodes
            assert nodes.size == round(space.weights.size * factor)
            for chunk in (1, 7, 2**14):
                pieces = [wide._at(slice(lo, min(lo + chunk, nodes.size)))
                          for lo in range(0, nodes.size, chunk)]
                assert np.array_equal(np.concatenate(pieces).view(np.int64),
                                      nodes.view(np.int64))
    # (numpy's own refusals, of a negative or NaN size, are matched by type)
    for space, factor, error, message in (
            (MeasureSpace.counting(5), 2.0, ValueError,
             "cannot extend a counting space"),
            (MeasureSpace.interval(0.0, 1.0, 8), 2.0, ValueError,
             "cannot extend a lebesgue_interval space"),
            (MeasureSpace.halfline(1e308, 4), 2.0, ValueError,
             "nodes must be finite"),
            (MeasureSpace.line(5e307, 4), 2.0, ValueError, "nodes must be finite"),
            (MeasureSpace.line(1.0, 4), 2.0**55, ValueError,  # nodes round equal
             "nodes must be strictly increasing"),
            (MeasureSpace.halfline(1.0, 4), 0.0, ZeroDivisionError, None),
            (MeasureSpace.halfline(1.0, 4), -1.0, ValueError, None),
            (array_space, np.nan, ValueError, None)):
        with pytest.raises(error, match=message):
            space.extended(factor)


def test_a_uniform_grid_is_checked_by_its_ends_and_step(monkeypatch):
    # a uniform formula whose step exceeds 8 eps max|node| skips the node
    # walk, and its nodes are then strictly increasing and finite; one
    # whose nodes collapse onto one double is walked and refused
    walked = []
    pieces = MeasureSpace._pieces
    monkeypatch.setattr(MeasureSpace, "_pieces",
                        lambda self: walked.append(self.kind) or pieces(self))
    eps = np.finfo(float).eps
    spaces = [MeasureSpace.halfline(50.0, 1000), MeasureSpace.line(8.0, 1001),
              MeasureSpace.counting(777), MeasureSpace.interval(-3.0, 2.0, 999),
              MeasureSpace.halfline(50.0, 1000).extended(8.0),
              # steps just above the bound, far from 0
              MeasureSpace.interval(1e6, 1e6 + 1000 * 8.01 * eps * 1e6, 1000),
              MeasureSpace.interval(-2.0**40, -2.0**40 + 64 * 9 * eps * 2.0**40, 64)]
    assert walked == []
    for space in spaces:
        nodes = space.nodes
        assert np.isfinite(nodes).all() and np.all(nodes[1:] > nodes[:-1])
    for space, message in ((lambda: MeasureSpace.interval(1e16, 1e16 + 4, 1000),
                            "nodes must be strictly increasing"),
                           (lambda: MeasureSpace.halfline(1e308, 4).extended(2.0),
                            "nodes must be finite")):
        walked.clear()
        with pytest.raises(ValueError, match=message):
            space()
        assert walked != []


def test_tabulated_keeps_a_read_only_copy():
    # a table neither follows later writes to the caller's array nor lets
    # its own be written through values_on
    arr = np.array([0.5, 1.0, 0.25])
    b = Tabulated(arr)
    arr[1] = 9.0
    assert b.values.tolist() == [0.5, 1.0, 0.25] and b.sup_bound == 1.0
    table = b.values_on(MeasureSpace.interval(0.0, 1.0, 3))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 2.0


def test_tables_refuse_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            Tabulated([1.0, bad])
        with pytest.raises(ValueError):
            compact_case([1.0, bad])


def test_exponential_sequence_guards():
    with pytest.raises(EigenvaluesNotDivergent):
        ExponentialSequence(1.0, 1.0, (3.0, 2.0, 1.0))
    b = ExponentialSequence(1.0, 1.0, tuple(range(1, 9)))
    space = MeasureSpace.counting(8)
    assert b.values_on(space)[0] == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        b.values_on(MeasureSpace.counting(9))


def test_exponential_sequence_is_the_table_of_its_formula():
    lam = np.array([0.5, 1.0, 1.0, 2.5, 3.0, 7.25])
    for p in (1, 2):
        for c, tau in ((1.0, 1.0), (0.7, 0.3)):
            b = ExponentialSequence(c, tau, tuple(lam), exponent_power=p)
            assert isinstance(b, Tabulated)
            assert b.values.tobytes() == \
                np.exp(-(c**2) * lam ** p * tau).tobytes()
            assert b.sup_bound == b.values[0]
    for c, tau in ((0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="c and tau must be positive"):
            ExponentialSequence(c, tau, (1.0, 2.0))
    for bounded in ((2.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(EigenvaluesNotDivergent):
            ExponentialSequence(1.0, 1.0, bounded)


def test_exponential_sequence_names_what_a_short_table_lacks():
    for short in ((), (2.0,)):
        with pytest.raises(EigenvaluesNotDivergent, match="at least two"):
            ExponentialSequence(1.0, 1.0, short)


def test_an_eigenvalue_table_refuses_a_space_that_is_not_counting():
    b = ExponentialSequence(1.0, 1.0, (1.0, 2.0))
    assert b.values_on(MeasureSpace.counting(2)).tobytes() == b.values.tobytes()
    for space in (MeasureSpace.interval(0.0, 1.0, 2),
                  MeasureSpace.halfline(1.0, 2), MeasureSpace.line(1.0, 2)):
        with pytest.raises(ValueError, match="lives on a counting space"):
            b.values_on(space)
    fvp, space = fvp_multiplier(FinalValueProblem("bounded_domain", n_max=2))
    with pytest.raises(ValueError, match="lives on a counting space"):
        fvp.values_on(MeasureSpace.interval(0.0, 1.0, 2))
    # a table built without a kind, as a config builds it, takes any space
    plain = Tabulated(b.values)
    assert plain.space_kind is None
    assert plain.values_on(MeasureSpace.interval(0.0, 1.0, 2)) is plain.values


def test_fvp_multiplier_checks_every_eigenvalue_and_keeps_n_max():
    # the growth comes after the first n_max eigenvalues: still accepted
    lam = (1.0, 1.0, 1.0, 1.0, 2.0)
    b, space = fvp_multiplier(FinalValueProblem("bounded_domain", n_max=4,
                                                eigenvalues=lam))
    assert space.weights.size == 4
    assert b.values.tobytes() == \
        ExponentialSequence(1.0, 1.0, lam).values[:4].tobytes()
    with pytest.raises(EigenvaluesNotDivergent):
        fvp_multiplier(FinalValueProblem("bounded_domain", n_max=4,
                                         eigenvalues=lam[:4]))
    with pytest.raises(ValueError, match="not enough eigenvalues"):
        fvp_multiplier(FinalValueProblem("bounded_domain", n_max=6,
                                         eigenvalues=lam))


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
@pytest.mark.numpy_floor
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


def _bits(x):
    return np.asarray(x, float).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 2**17 + 3])
@pytest.mark.numpy_floor
def test_uniform_nodes_are_the_array_expressions_bit_for_bit(n):
    # a uniform space stores a node formula; its nodes, its pieces and b's
    # values on them are the closed-form arrays, and b of those, bit for bit
    k = np.arange(n)
    cases = [(MeasureSpace.interval(0.25, 3.75, n), PurePower(1.5),
              0.25 + (k + 0.5) * (3.5 / n)),
             (MeasureSpace.halfline(50.0, n), PowerDecay(0.5), (k + 0.5) * (50.0 / n)),
             (MeasureSpace.line(8.0, n), GaussianFrequency(), -8.0 + (k + 0.5) * (16.0 / n)),
             (MeasureSpace.counting(n), PowerDecay(2.0), np.arange(1, n + 1, dtype=float))]
    for factor in (2.0, 4.0):
        m = np.arange(int(round(n * factor)))
        cases += [(MeasureSpace.halfline(50.0, n).extended(factor), PowerDecay(0.5),
                   (m + 0.5) * (50.0 * factor / m.size)),
                  (MeasureSpace.line(8.0, n).extended(factor), GaussianFrequency(),
                   -8.0 * factor + (m + 0.5) * (2.0 * (8.0 * factor) / m.size))]
    for space, b, nodes in cases:
        assert np.array_equal(_bits(space.nodes), _bits(nodes))
        assert np.array_equal(_bits(b.values_on(space)), _bits(b(nodes)))
    deconv = DeconvolutionProblem("gaussian", 40.0, max(4, n + n % 2), sigma=0.7)
    m, dt = deconv.n, 80.0 / deconv.n
    freq = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(m, d=dt))
    assert np.array_equal(_bits(deconv.signal_space.nodes), _bits(-40.0 + dt * np.arange(m)))
    assert np.array_equal(_bits(deconv.freq_space.nodes), _bits(freq))
    assert deconv.freq_space.truncation_radius == -freq[0]
    vals = deconv.multiplier.values_on(deconv.freq_space)
    assert np.array_equal(_bits(vals), _bits(np.exp(-0.7**2 * freq**2 / 2.0)))
    assert deconv.multiplier.sup_bound == np.max(vals)


@pytest.mark.parametrize("n", [4, 6, 1002, 2**17 + 2])
@pytest.mark.numpy_floor
def test_lavrentiev_deconvolve_is_the_full_spectrum_composition(n):
    # filtering the half spectrum equals the estimator on all n frequencies
    # composed with the transforms, ==
    for kernel in ("exponential", "gaussian"):
        problem = DeconvolutionProblem(kernel, 40.0, n)
        y = np.random.default_rng(n).standard_normal(n)
        for alpha in (1e-3, 0.5):
            phi = lavrentiev().phi(alpha, problem.multiplier.values_on(problem.freq_space))
            full = from_frequency(problem, phi * to_frequency(problem, y))
            assert np.array_equal(lavrentiev_deconvolve(problem, y, alpha), full)


def test_degenerate_and_non_finite_spaces_are_rejected():
    # nodes equal after rounding, as np.diff finds them
    for call in (lambda: MeasureSpace.halfline(0.0, 8),
                 lambda: MeasureSpace.interval(1e16, 1e16 + 4, 1000),
                 lambda: MeasureSpace.halfline(-1.0, 8)):
        with pytest.raises(ValueError, match="strictly increasing"):
            call()
    nan, inf = np.nan, np.inf
    for call in (lambda: MeasureSpace("lebesgue_interval", [0.1, nan, 0.3], np.ones(3)),
                 lambda: MeasureSpace("lebesgue_interval", [-inf, 0.3], np.ones(2)),
                 lambda: MeasureSpace("lebesgue_interval", [0.1, inf], np.ones(2)),
                 lambda: MeasureSpace.halfline(nan, 8),
                 lambda: MeasureSpace.halfline(inf, 8),
                 lambda: MeasureSpace.interval(0.0, inf, 8),
                 lambda: DeconvolutionProblem("exponential", nan, 8)):
        with pytest.raises(ValueError, match="nodes must be finite"):
            call()
    for weights in ([1.0, nan], [inf, 1.0]):
        with pytest.raises(ValueError, match="weights must be nonnegative and finite"):
            MeasureSpace("lebesgue_interval", [0.1, 0.2], weights)
    for radius in (nan, inf):
        with pytest.raises(ValueError, match="truncation_radius must be finite"):
            MeasureSpace("lebesgue_halfline", [0.1, 0.2], [1.0, 1.0],
                         truncation_radius=radius)
    # the uniform constructors fail as before on sizes they cannot build
    with pytest.raises(ZeroDivisionError):
        MeasureSpace.interval(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        MeasureSpace.halfline(1.0, -3)
