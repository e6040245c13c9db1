import itertools
import warnings

import numpy as np
import pytest

from multreg import (CallableMultiplier, GaussianFrequency, MeasureSpace,
                     NotInSourceSet, PowerIndex, PreconditionFailed,
                     Tabulated, compact_case, distribution_function,
                     make_source, phi_star, sobolev_equivalence_check,
                     sobolev_norm, source_function)
from multreg.gallery import power_decay_pair
from multreg.indexfuncs import (LogPowerIndex, TableIndex,
                                index_function_from_spec,
                                validate_index_function)


# --- index functions ----------------------------------------------------------

def test_power_index_basics():
    phi = PowerIndex(2.0)
    assert phi(0.5) == 0.25
    assert phi.inverse(0.25) == pytest.approx(0.5)
    validate_index_function(phi)


def test_log_power_at_subnormal_t_warns_nothing():
    # 1 / 5e-324 overflows to inf; log(inf) ** -beta is 0, as is the limit
    phi = LogPowerIndex(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi(5e-324) == 0.0
        assert phi(np.array([5e-324, 1e-3])).tolist() == [0.0, phi(1e-3)]


def test_log_power_at_subnormal_t_is_its_limit():
    steep = LogPowerIndex(3.0, -2.0)
    # increasing needs nu log(1/t_max) > -beta, so t_max < exp(-200) at nu 0.01
    shallow = LogPowerIndex(0.01, -2.0, t_max=1e-90)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert steep(5e-324) == 0.0  # not 0 * inf
        value = shallow(5e-324)
        assert np.isfinite(value) and value > 0
        for phi in (steep, shallow, LogPowerIndex(1.0, 0.5)):
            t = np.geomspace(np.finfo(float).tiny, phi.t_max, 257)
            assert np.all(phi(t) == t ** phi.nu * (-np.log(t)) ** (-phi.beta))


def test_log_power_index_monotone():
    phi = LogPowerIndex(1.0, 0.5)
    validate_index_function(phi)
    with pytest.raises(ValueError):
        phi(0.9)  # outside declared domain


def test_table_index_interpolation_and_domain():
    ts = np.geomspace(1e-6, 0.5, 50)
    phi = TableIndex(ts, np.sqrt(ts))
    mid = np.geomspace(2e-6, 0.4, 20)
    assert np.max(np.abs(phi(mid) - np.sqrt(mid)) / np.sqrt(mid)) < 1e-3
    with pytest.raises(ValueError):
        phi(0.9)  # refuses extrapolation
    assert phi.inverse(np.sqrt(1e-4)) == pytest.approx(1e-4, rel=1e-6)


def test_index_function_power_composition():
    phi = PowerIndex(1.0).power(2.0)
    assert phi(0.3) == pytest.approx(0.09)
    validate_index_function(phi)


def _numpy_checked_call(phi, t):
    """A scalar call as it was before the scalar path: numpy's domain
    checks on the 0-d array, then ``_eval`` on it."""
    arr = np.asarray(t, dtype=float)
    lo, hi = phi.domain
    if np.any(arr <= lo) or np.any(arr > hi * (1 + 1e-12)):
        raise ValueError(
            f"{phi.name}: argument outside domain ({lo:.3g}, {hi:.3g}]")
    return float(phi._eval(arr))


SCALAR_CASES = {
    "power_1": PowerIndex(1.0), "power_0.5": PowerIndex(0.5),
    "power_1.37": PowerIndex(1.37), "log_power": LogPowerIndex(1.0, 1.0),
    "power_of_power": PowerIndex(1.37).power(0.7),
    "table": TableIndex(np.geomspace(1e-6, 0.5, 50),
                        np.geomspace(1e-6, 0.5, 50) ** 0.5),
}


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
@pytest.mark.numpy_floor
def test_scalar_call_equals_the_array_path(name):
    # 20,000 points across the domain and its ends: a float, an int, a 0-d
    # array and a numpy scalar give the 0-d array evaluation, ==, and the
    # same refusals and NaN
    phi = SCALAR_CASES[name]
    lo, hi = phi.domain
    top = min(hi, 1.0)
    rng = np.random.default_rng(2)
    t = np.exp(rng.uniform(np.log(max(lo, 1e-12)), np.log(top), 20_000))
    t = np.concatenate((t[t > lo], [top, top * (1 + 1e-12)]))
    values = [phi(x) for x in t.tolist()]
    assert all(type(v) is float for v in values)
    assert values == [_numpy_checked_call(phi, x) for x in t]
    if isinstance(phi, (PowerIndex, LogPowerIndex)):  # scalar and array loops agree
        assert values == phi(t).tolist()
    for x in (t[7], np.float64(t[7]), np.asarray(t[7])):
        assert phi(x) == values[7]
    if top == 1.0:
        assert phi(1) == _numpy_checked_call(phi, 1.0)
    assert np.isnan(phi(float("nan"))) and np.isnan(_numpy_checked_call(phi, np.nan))
    outside = [lo, -1.0, -np.inf] + ([hi * (1 + 2e-12), np.inf] if hi < np.inf else [])
    for x in outside:
        with pytest.raises(ValueError) as scalar:
            phi(x)
        with pytest.raises(ValueError) as reference:
            _numpy_checked_call(phi, x)
        assert str(scalar.value) == str(reference.value)


def test_index_function_from_spec():
    assert index_function_from_spec({"family": "power", "nu": 2})(0.5) == 0.25
    with pytest.raises(ValueError):
        index_function_from_spec({"family": "nope"})
    # families that are not names, and phi* = 1/d_b, which needs a multiplier
    for family in (["power"], "reciprocal_measure"):
        with pytest.raises(ValueError, match="cannot build"):
            index_function_from_spec({"family": family})


def test_validate_needs_room_to_probe():
    ts = np.geomspace(1e-9, 0.5, 30)
    validate_index_function(TableIndex(ts, ts**1.5))  # wide table: fine
    with pytest.raises(PreconditionFailed):
        # spans less than a decade: cannot probe the limit at 0+
        validate_index_function(TableIndex([0.1, 0.2, 0.4], [1.0, 2.0, 4.0]))
    with pytest.raises(ValueError):
        TableIndex([0.1, 0.2], [2.0, 1.0])  # not increasing


def test_a_table_accepts_its_subnormal_first_knot():
    # ts[0] * (1 - 1e-12) rounds back to ts[0] there: the domain's lower
    # edge must still lie below it
    table = TableIndex([1e-323, 1e-3], [1e-3, 1.0])
    assert table.domain[0] < 1e-323
    assert table(1e-323) == pytest.approx(1e-3, rel=1e-12)
    assert table(np.array([1e-323, 1e-3])) == pytest.approx([1e-3, 1.0], rel=1e-12)
    normal = TableIndex([1e-6, 1e-3], [1e-3, 1.0])
    assert normal.domain[0] == 1e-6 * (1 - 1e-12)


# --- phi* ----------------------------------------------------------------------

def test_phi_star_power_decay_closed_form():
    b, space = power_decay_pair(1.0, 50.0, 2**14)
    phs = phi_star(b, space)
    assert phs(0.5) == pytest.approx(1.0)
    ts = np.geomspace(phs.ts[0], 0.45, 20)
    expected = ts / (1.0 - ts)  # reciprocal of ((1-t)/t)^kappa, kappa = 1
    assert np.max(np.abs(phs(ts) - expected) / expected) < 1e-3


def test_phi_star_power_decay_asymptotics():
    # phi*(t) comparable to t^kappa on the small-t side of the table
    kappa = 2.0
    b, space = power_decay_pair(kappa, 2000.0, 2**15)
    phs = phi_star(b, space)
    ts = np.geomspace(phs.ts[0] * 1.01, min(0.4, phs.ts[-1] * 0.9), 10)
    ratio = np.asarray(phs(ts)) / ts**kappa
    assert np.max(ratio) / np.min(ratio) < 3.0


def test_phi_star_gaussian_frequency():
    b = GaussianFrequency(1.0, 1.0)
    space = MeasureSpace.line(8.0, 2**14)
    phs = phi_star(b, space)
    ts = np.geomspace(phs.ts[0] * 1.01, 0.4, 15)
    exact = 1.0 / (2.0 * np.sqrt(np.log(1.0 / ts)))
    # numeric distribution-function oracle
    oracle = 1.0 / np.array([distribution_function(b, space, float(t),
                                                   allow_exact=False)
                             for t in ts])
    assert np.max(np.abs(phs(ts) - exact) / exact) < 5e-3
    assert np.max(np.abs(phs(ts) - oracle) / oracle) < 5e-3


def test_phi_star_rejects_finite_measure():
    space = MeasureSpace.interval(0.0, 1.0, 256)
    with pytest.raises(PreconditionFailed):
        phi_star(Tabulated(space.nodes.copy()), space)


def test_phi_star_rejects_plateau_superlevel_growth():
    # a long interior plateau makes mu{b > b(s)} stall while |s| grows,
    # breaking the two-sided comparison
    def b_fn(s):
        return 1.0 / (1.0 + np.minimum(s, 10.0) + np.maximum(s - 1000.0, 0.0))

    space = MeasureSpace.halfline(4000.0, 2**14)
    b = CallableMultiplier(b_fn, sup_bound=1.0)
    with pytest.raises(PreconditionFailed):
        phi_star(b, space)


def test_phi_star_rejects_a_bump_on_either_end_of_the_outer_half():
    # a narrow bump between the superlevel probes, at one end of the outer
    # half {|s| > max|s| / 2}: mu{b > b(s)} is small there, so |s| phi*(b(s))
    # leaves the band; b = 0 beyond |s| = 49 puts nodes of that end outside
    # the table
    for space, centres in ((MeasureSpace.halfline(50.0, 2**12), (40.0,)),
                           (MeasureSpace.line(50.0, 2**12), (40.0, -40.0))):
        for centre, edge in itertools.product(centres, (np.inf, 49.0)):
            def b_fn(s, height, centre=centre, edge=edge):
                return ((np.abs(s) < edge) / (1.0 + np.abs(s))
                        + height * (np.abs(s - centre) < 0.05))

            phi_star(CallableMultiplier(lambda s: b_fn(s, 0.0), sup_bound=1.0),
                     space)
            with pytest.raises(PreconditionFailed, match="on the outer half"):
                phi_star(CallableMultiplier(lambda s: b_fn(s, 0.4), sup_bound=1.4),
                         space)


def _plateau_case():
    def b_fn(s):
        return 1.0 / (1.0 + np.minimum(s, 10.0) + np.maximum(s - 1000.0, 0.0))

    return (CallableMultiplier(b_fn, sup_bound=1.0),
            MeasureSpace.halfline(4000.0, 2**14))


def test_phi_star_probe_failure_names_the_first_failing_probe():
    # reference: one masked sum per probe, in probe order
    b, space = _plateau_case()
    vals, abs_s = b.values_on(space), np.abs(space.nodes)
    cut = np.min(abs_s[vals <= 0.5 * b.sup_bound])
    probes = np.nonzero(abs_s > cut)[0]
    probes = probes[np.linspace(0, probes.size - 1, 32).astype(int)]
    failures = []
    for i in probes:
        ratio = np.sum(space.weights[vals > vals[i]]) / abs_s[i]
        if not 0.1 <= ratio <= 10.0:
            failures.append(f"superlevel measure not comparable to |s| at "
                            f"s = {space.nodes[i]:.4g} (ratio {ratio:.4g})")
    assert len(failures) > 1
    with pytest.raises(PreconditionFailed) as exc:
        phi_star(b, space)
    assert str(exc.value) == failures[0]


def test_phi_star_sorts_once(monkeypatch):
    # one sort of the node values for all probes and table levels, not one
    # pass over the nodes per probe
    evaluations, sorts = [], []

    def power(s):
        evaluations.append(np.size(s))
        return 1.0 / (1.0 + s)

    b = CallableMultiplier(power, sup_bound=1.0)
    space = MeasureSpace.halfline(50.0, 2**12)
    argsort = np.argsort

    def counting_argsort(a, *args, **kwargs):
        sorts.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    phi_star(b, space)
    assert sorts.count(space.nodes.size) <= 2
    assert evaluations.count(space.nodes.size) <= 4


# --- source conditions -----------------------------------------------------------

def test_make_source_phi_of_b_on_unit_mass_space():
    space = MeasureSpace.interval(0.0, 1.0, 512)
    b = Tabulated(space.nodes.copy())
    phi = PowerIndex(1.0)
    f = source_function(np.ones(512), b, space, phi)
    sc = make_source(f, b, space, phi)
    assert sc.achieved_norm == pytest.approx(1.0)  # mu(S) = 1 here
    assert np.allclose(sc.source_element, 1.0)


def test_make_source_zero_function():
    b, space = power_decay_pair(1.0, 10.0, 256)
    sc = make_source(np.zeros(256), b, space, PowerIndex(1.0))
    assert sc.achieved_norm == 0.0


def test_make_source_not_in_source_set():
    b, space = compact_case(1.0 / np.arange(1, 201))
    f = 1.0 / np.arange(1, 201) ** 2
    with pytest.raises(NotInSourceSet) as err:
        make_source(f, b, space, PowerIndex(1.0))
    oracle = float(np.sqrt(np.sum(1.0 / np.arange(1, 201) ** 2)))
    assert err.value.achieved_norm == pytest.approx(oracle)
    assert err.value.achieved_norm == pytest.approx(1.2806, abs=1e-3)


def test_make_source_scaled_bound():
    b, space = compact_case(1.0 / np.arange(1, 201))
    f = 1.0 / np.arange(1, 201) ** 2
    sc = make_source(f, b, space, PowerIndex(1.0), norm_bound=1.3)
    assert sc.norm_bound == 1.3 and sc.achieved_norm < 1.3


# --- Sobolev equivalence -----------------------------------------------------------

def test_sobolev_band_power_decay():
    b, space = power_decay_pair(1.0, 50.0, 2**14)
    c, C = sobolev_equivalence_check(b, space, p=1.0)
    # outer region starts where b <= 1/2, i.e. s >= 1: band [~1, (1+M^2)/M^2 = 2]
    assert 0.9 < c < 1.1
    assert C == pytest.approx(2.0, rel=0.05)


def test_sobolev_band_gaussian():
    b = GaussianFrequency(1.0, 1.0)
    space = MeasureSpace.line(8.0, 2**14)
    c, C = sobolev_equivalence_check(b, space, p=1.0)
    assert 0 < c <= C < np.inf
    # numeric oracle over the outer nodes
    phs = phi_star(b, space)
    vals = b.values_on(space)
    usable = (vals >= phs.ts[0]) & (vals <= phs.ts[-1])
    ratio = (1 + space.nodes[usable] ** 2) * np.asarray(phs(vals[usable])) ** 2
    assert c <= ratio.min() * (1 + 1e-9) and C >= ratio.max() * (1 - 1e-9)


def test_sobolev_unbounded_ratio_for_wrong_index_function():
    # against phi(t) ~ sqrt(t) the ratio (1+s^2) phi(b)^2 grows like |s|
    # for b = 1/(1+s), so extending the domain keeps inflating the sup
    from multreg import UnboundedRatio
    b, space = power_decay_pair(1.0, 50.0, 2**12)
    ts = np.geomspace(1e-4, 0.5, 60)
    wrong_phi = TableIndex(ts, np.sqrt(ts))
    with pytest.raises(UnboundedRatio):
        sobolev_equivalence_check(b, space, p=1.0, phi=wrong_phi)


def test_sobolev_rejects_finite_space():
    space = MeasureSpace.interval(0.0, 1.0, 128)
    with pytest.raises(PreconditionFailed):
        sobolev_equivalence_check(Tabulated(np.full(128, 0.7)), space, p=1.0)


def test_sobolev_equivalence_two_way():
    b, space = power_decay_pair(1.0, 50.0, 2**14)
    p = 1.0
    phs = phi_star(b, space)
    phi_p = phs.power(p)
    c, C = sobolev_equivalence_check(b, space, p=p, phi=phs)
    s = space.nodes
    vals = b.values_on(space)
    outer = (vals >= phs.ts[0]) & (vals <= phs.ts[-1])

    # direction 1: finite Sobolev norm => source condition with scaled bound
    f = np.where(outer, 1.0 / (1.0 + s**2), 0.0)
    norm_p = sobolev_norm(f, space, p)
    sc = make_source(f, b, space, phi_p,
                     norm_bound=norm_p * (1.0 / c) ** (p / 2) * (1 + 1e-6))
    assert sc.achieved_norm <= norm_p * (1.0 / c) ** (p / 2) * (1 + 1e-6)

    # direction 2: source condition => finite Sobolev norm with C^(p/2)
    v = np.where(outer, 1.0, 0.0)
    v /= space.norm(v)
    f2 = source_function(v, b, space, phi_p)
    assert sobolev_norm(f2, space, p) <= C ** (p / 2) * (1 + 1e-9)


def test_sobolev_band_on_an_interval():
    # an interval cannot be extended, so its band is the one on its own grid
    from multreg import PurePower
    space = MeasureSpace.interval(0.0, 1.0, 256)
    ts = np.geomspace(1e-4, 1.0, 50)
    b = PurePower(1.0)
    vals = b.values_on(space)
    ratio = (1.0 + space.nodes ** 2) * np.asarray(TableIndex(ts, ts)(vals)) ** 2
    assert sobolev_equivalence_check(b, space, p=1.0, phi=TableIndex(ts, ts)) == \
        (ratio.min(), ratio.max())
