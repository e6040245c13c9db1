from dataclasses import replace

import numpy as np
import pytest

from multreg import (AxiomViolation, PowerIndex, Scheme, certify_axioms,
                     certify_qualification, lavrentiev, scheme_by_name,
                     spectral_cutoff, tikhonov_wiener, truncate)
from multreg.schemes import certify

PROBE_T = np.geomspace(1e-8, 1.0, 200)
PROBE_ALPHA = (1e-6, 1e-3, 0.1, 0.9)


def test_cutoff_values():
    s = spectral_cutoff()
    assert s.phi(0.1, 0.5) == 2.0
    assert s.phi(0.1, 0.05) == 0.0
    assert s.residual(0.1, 0.05) == 1.0
    assert s.residual(0.1, 0.5) == 0.0
    assert (s.c_minus1, s.c_0, s.truncated) == (1.0, 1.0, True)


def test_lavrentiev_values():
    s = lavrentiev()
    assert s.phi(0.1, 0.1) == pytest.approx(5.0)
    assert s.residual(0.3, 0.0) == 1.0
    assert not s.truncated


def test_tikhonov_values():
    s = tikhonov_wiener()
    assert s.phi(1.0, 1.0) == 0.5
    assert s.residual(0.7, 0.0) == 1.0
    # Wiener weight with S_f = 1, delta = 1, b = 1 is 1/2 = phi(alpha=1, t=1)
    assert s.phi(1.0, 1.0) == pytest.approx(0.5)


def test_truncate_values_and_idempotence():
    tl = truncate(lavrentiev())
    assert tl.phi(0.1, 0.05) == 0.0
    assert tl.phi(0.1, 0.2) == pytest.approx(1.0 / 0.3)
    assert tl.residual(0.1, 0.05) == 1.0
    tc = truncate(spectral_cutoff())
    cut = spectral_cutoff()
    for a in PROBE_ALPHA:
        assert np.array_equal(tc.phi(a, PROBE_T), cut.phi(a, PROBE_T))
        assert np.array_equal(truncate(tl).phi(a, PROBE_T), tl.phi(a, PROBE_T))
    assert truncate(tl).name == tl.name == "truncated:lavrentiev"


def test_scheme_by_name():
    assert scheme_by_name("cutoff").name == "cutoff"
    assert scheme_by_name("truncated:tikhonov").truncated
    with pytest.raises(ValueError):
        scheme_by_name("landweber")


def test_residual_filter_identity():
    # residual + t*phi = 1; bitwise for the rational families, roundoff for
    # the indicator-based ones
    for s in (lavrentiev(), tikhonov_wiener()):
        for a in PROBE_ALPHA:
            assert np.all(s.residual(a, PROBE_T) + PROBE_T * s.phi(a, PROBE_T) == 1.0)
    for s in (spectral_cutoff(), truncate(lavrentiev()), truncate(tikhonov_wiener())):
        for a in PROBE_ALPHA:
            gap = np.abs(s.residual(a, PROBE_T) + PROBE_T * s.phi(a, PROBE_T) - 1.0)
            assert np.max(gap) <= 5e-16


def test_residual_into_a_buffer_equals_the_residual():
    # from the filter values in hand, into the caller's buffer, bit for bit
    for name in ("cutoff", "lavrentiev", "tikhonov", "truncated:lavrentiev",
                 "truncated:tikhonov"):
        s = scheme_by_name(name)
        for a in PROBE_ALPHA:
            out = np.full(PROBE_T.size, np.nan)
            assert s.residual_into(a, PROBE_T, s.phi(a, PROBE_T), out) is out
            assert np.array_equal(out.view(np.int64),
                                  s.residual(a, PROBE_T).view(np.int64))


def test_general_filter_bound():
    # phi(alpha, t) <= (C0 + 1)/t for t > 0
    for s in (spectral_cutoff(), lavrentiev(), tikhonov_wiener(),
              truncate(lavrentiev())):
        for a in PROBE_ALPHA:
            assert np.all(s.phi(a, PROBE_T) <= (s.c_0 + 1.0) / PROBE_T + 1e-12)


def test_axioms_pass_for_builtins():
    for name in ("cutoff", "lavrentiev", "tikhonov", "truncated:cutoff",
                 "truncated:lavrentiev", "truncated:tikhonov"):
        assert certify_axioms(scheme_by_name(name)), name


def test_axioms_fail_for_fake_scheme():
    fake = Scheme("fake", c_minus1=1.0, c_0=2.0, truncated=False,
                  _filter=lambda a, t: np.full_like(t, 1.0 / a))
    assert not certify_axioms(fake)
    with pytest.raises(AxiomViolation) as err:
        certify_axioms(fake, raise_on_failure=True)
    assert err.value.item == "I"


def test_cutoff_has_arbitrary_qualification():
    cut = spectral_cutoff()
    for nu in (0.5, 1.0, 2.0, 4.0, 7.0):
        cert = certify_qualification(cut, PowerIndex(nu))
        assert cert.passed
        assert cert.c_phi == pytest.approx(1.0, rel=1e-9)


def test_lavrentiev_qualification_up_to_linear():
    lav = lavrentiev()
    c_half = certify_qualification(lav, PowerIndex(0.5))
    assert c_half.passed and c_half.c_phi <= 1.0 + 1e-9
    c_one = certify_qualification(lav, PowerIndex(1.0))
    assert c_one.passed and c_one.c_phi <= 1.0 + 1e-9
    c_bad = certify_qualification(lav, PowerIndex(1.5))
    assert not c_bad.passed


def test_truncated_qualification_constant():
    lav = lavrentiev()
    parent = certify_qualification(lav, PowerIndex(1.0))
    cert = certify_qualification(truncate(lav), PowerIndex(1.0),
                                 parent_certificate=parent)
    assert cert.passed
    assert cert.c_phi <= max(parent.c_phi, lav.c_0) * (1 + 1e-9)


def test_qualification_string_rendering():
    cert = certify_qualification(spectral_cutoff(), PowerIndex(1.0))
    assert "passed" in str(cert)


def test_qualification_grids_are_fixed():
    cert = certify_qualification(spectral_cutoff(), PowerIndex(1.0))
    assert np.array_equal(cert.t_grid, np.logspace(-8, 0, 512))
    assert np.array_equal(cert.alpha_grid, np.logspace(-6, 0, 49))


def _scalar_axiom_one(scheme, t_grid):
    """Axiom (I) as a loop of scalar residual probes, t by t: the first
    failure as ``(item, alpha, t)``, or None."""
    alphas = 0.5 ** np.arange(31)
    for t in t_grid:
        r = np.abs([scheme.residual(a, t) for a in alphas])
        if np.any(np.diff(r) > 1e-9):
            return "I", alphas[int(np.argmax(np.diff(r) > 1e-9)) + 1], t
        if r[-1] > 1e-3:
            return "I", alphas[-1], t
    return None


# (I) fails at a late t: the approach to 1 rises again for some alpha,
# or it is monotone but too slow to reach the 1e-3 limit at alpha = 2^-30
AXIOM_ONE_FAILURES = {
    "not_monotone": Scheme(
        "wobbly", 1.0, 1.0, False,
        lambda a, t: (1.0 - np.where((t > 0.3) & (a < 1e-3),
                                     0.5 * np.sin(1.0 / a) ** 2, 0.0)) / t),
    "misses_limit": Scheme(
        "slow", 1.0, 1.0, False,
        lambda a, t: 1.0 / (t + np.where(t > 0.3, a ** 0.25, a))),
}


@pytest.mark.parametrize("case", sorted(AXIOM_ONE_FAILURES))
def test_axiom_one_reports_the_scalar_loops_failure(case, monkeypatch):
    scheme = AXIOM_ONE_FAILURES[case]
    t_grid = np.logspace(-3, 0, 25)
    item, alpha, t = _scalar_axiom_one(scheme, t_grid)
    assert t > t_grid[0]
    probes = []
    residual = Scheme.residual

    def counted(self, a, t):
        probes.append(np.ndim(t))
        return residual(self, a, t)

    monkeypatch.setattr(Scheme, "residual", counted)
    with pytest.raises(AxiomViolation) as err:
        certify_axioms(scheme, raise_on_failure=True)
    monkeypatch.undo()
    assert (err.value.item, err.value.alpha, err.value.t) == (item, alpha, t)
    assert probes == [1] * 31  # one array probe per alpha of the limit
    detail = {"not_monotone": "approach not monotone",
              "misses_limit": "|residual|"}[case]
    assert detail in str(err.value)
    assert not certify_axioms(scheme)


def _scalar_cphi(scheme, phi, alphas, ts):
    # the estimate with phi evaluated on each alpha's grid, t = alpha appended
    lo, hi = phi.domain
    ts = ts[(ts > lo) & (ts <= hi)]
    best = 0.0
    for alpha in alphas:
        grid = np.append(ts, alpha) if lo < alpha <= hi else ts
        num = float(np.max(np.abs(scheme.residual(alpha, grid)) * phi(grid)))
        best = max(best, num / phi(alpha))
    return best


@pytest.mark.parametrize("name", ["cutoff", "lavrentiev", "tikhonov",
                                  "truncated:lavrentiev"])
def test_qualification_estimate_equals_the_per_alpha_grids(name):
    from multreg.schemes import _cphi_estimate
    scheme = scheme_by_name(name)
    alphas, ts = np.logspace(-6, 0, 49), np.logspace(-8, 0, 512)
    for phi in (PowerIndex(0.5), PowerIndex(1.0), PowerIndex(1.5)):
        assert _cphi_estimate(scheme, phi, alphas, ts) == \
            _scalar_cphi(scheme, phi, alphas, ts)


EDGE_ALPHAS = (1e-300, 1e-8, 1e-3, 0.5, 2.0)


def _edge_grid(a):
    # t = 0, the smallest subnormal, a subnormal, inf, alpha and its two
    # neighbours, then 3000 values from 1e-320 to 1e300
    return np.concatenate([[0.0, 5e-324, 1e-310, np.inf, a, np.nextafter(a, 0),
                            np.nextafter(a, np.inf)],
                           np.geomspace(1e-320, 1e300, 2000), np.linspace(0, 3, 1000)])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _same_bits(scheme, reference, a, t):
    """phi and residual of ``scheme`` at (a, t) have the reference's bits,
    as an array call and as scalar calls; ``reference(fn, a, t)``."""
    for fn in ("phi", "residual"):
        assert np.array_equal(_bits(getattr(scheme, fn)(a, t)), _bits(reference(fn, a, t)))
        for x in t[::41]:
            assert _bits(getattr(scheme, fn)(a, float(x))) == \
                _bits(reference(fn, a, np.array([x])))[0]


@pytest.mark.numpy_floor
@pytest.mark.parametrize("parent", [lavrentiev(), tikhonov_wiener()], ids=lambda s: s.name)
def test_truncation_equals_the_reference_composition_bit_for_bit(parent):
    below = {"phi": 0.0, "residual": 1.0}

    def composed(fn, a, t):
        return np.where(t > a, getattr(parent, fn)(a, t), below[fn])

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a in EDGE_ALPHAS:
            _same_bits(truncate(parent), composed, a, _edge_grid(a))
        # at t = NaN the filter is 0 and the residual 1 - NaN * 0 is NaN
        assert truncate(parent).phi(0.1, np.nan) == 0.0
        assert np.isnan(truncate(parent).residual(0.1, np.nan))


@pytest.mark.numpy_floor
def test_truncated_cutoff_is_the_cutoff_bit_for_bit():
    cut = spectral_cutoff()
    for a in EDGE_ALPHAS:
        t = np.append(_edge_grid(a), np.nan)
        _same_bits(truncate(cut), lambda fn, a, t: getattr(cut, fn)(a, t), a, t)
    assert truncate(cut).name == "truncated:cutoff"


def test_the_truncated_flag_truncates_a_hand_built_filter():
    fake = Scheme("fake", 1.0, 1.0, True, lambda a, t: 1 / (t + a))
    for a in EDGE_ALPHAS:
        t = _edge_grid(a)
        below = ~(t > a)
        with np.errstate(invalid="ignore"):  # 1 - inf * 0 at t = inf
            assert np.all(fake.phi(a, t)[below] == 0.0)
            assert np.all(fake.residual(a, t)[below] == 1.0)
        assert fake.phi(a, a) == 0.0 and fake.residual(a, a) == 1.0


def test_truncate_drops_the_simplified_residual_of_an_untruncated_scheme():
    lav = Scheme("lav", 1.0, 1.0, False, lambda a, t: 1 / (t + a),
                 _residual=lambda a, t: a / (t + a))
    for a in PROBE_ALPHA:
        below = PROBE_T <= a
        residual = truncate(lav).residual(a, PROBE_T)
        assert np.all(residual[below] == 1.0)
        # above alpha: 1 - t * phi, not the dropped simplified form
        assert np.array_equal(residual[~below],
                              lavrentiev().residual(a, PROBE_T)[~below])


def test_certify_derives_a_truncated_familys_parent_from_the_scheme():
    # a hand-built family truncates and certifies as the built-in it copies
    fake = truncate(Scheme("fake", 1.0, 1.0, False, lambda a, t: 1 / (t + a)))
    for nu in (0.5, 1.0):
        axioms, cert = certify(fake, PowerIndex(nu))
        reference = certify(truncate(lavrentiev()), PowerIndex(nu))[1]
        assert axioms and cert.passed == reference.passed
        assert cert.c_phi == reference.c_phi


def test_a_hand_built_truncated_lavrentiev_is_checked_against_its_own_parent():
    # 1/(t + 3 alpha): its parent's C_phi at nu = 1 is 3, the built-in
    # Lavrentiev's 1, and the truncated family's C_phi is 3 as well
    slow = Scheme("truncated:lavrentiev", 1.0, 1.0, True,
                  lambda a, t: 1 / (t + 3 * a))
    parent = certify_qualification(replace(slow, truncated=False), PowerIndex(1.0))
    axioms, cert = certify(slow, PowerIndex(1.0))
    assert axioms and cert.passed
    assert cert.c_phi == pytest.approx(3.0, rel=1e-6)
    assert cert.c_phi <= parent.c_phi * (1 + 1e-9)
    assert certify_qualification(lavrentiev(), PowerIndex(1.0)).c_phi \
        == pytest.approx(1.0, rel=1e-6)


def _certified_index_functions():
    from multreg import LogPowerIndex, TableIndex
    from multreg.gallery import DeconvolutionProblem
    from multreg.smoothness import phi_star
    dec = DeconvolutionProblem("exponential", 40.0, 2**10)
    return {**{f"power{nu}": PowerIndex(nu) for nu in (0.5, 1.0, 1.5, 2.5)},
            "log_power": LogPowerIndex(1.0, 1.0),
            "table": TableIndex([1e-3, 1.0], [1e-3, 1.0]),
            "phi_star": phi_star(dec.multiplier, dec.freq_space)}


def test_certify_runs_a_parent_grid_only_where_it_decides(monkeypatch):
    # certify equals the eager reference, which certifies every truncated
    # family's parent first; a parent's grid runs only for a family that
    # passed its own with C_phi above C_0, and no grid runs for the
    # cut-off families, whose C_phi is 1 in closed form
    from multreg import schemes
    eager, calls = schemes.certify_qualification, []

    def counted(scheme, phi, parent_certificate=None):
        calls.append(scheme.name)
        return eager(scheme, phi, parent_certificate)

    monkeypatch.setattr(schemes, "certify_qualification", counted)
    runs = {}
    for name in ("cutoff", "lavrentiev", "tikhonov", "truncated:cutoff",
                 "truncated:lavrentiev", "truncated:tikhonov"):
        scheme = scheme_by_name(name)
        for label, phi in _certified_index_functions().items():
            parent = eager(replace(scheme, truncated=False), phi) \
                if name.startswith("truncated:") else None
            reference = eager(scheme, phi, parent_certificate=parent)
            calls.clear()
            axioms, cert = certify(scheme, phi)
            runs[name, label] = len(calls)
            assert axioms == certify_axioms(scheme)
            assert (cert.scheme_name, cert.phi, cert.passed) == \
                (reference.scheme_name, reference.phi, reference.passed)
            assert cert.c_phi.hex() == reference.c_phi.hex()
            assert np.array_equal(cert.alpha_grid, reference.alpha_grid)
            assert np.array_equal(cert.t_grid, reference.t_grid)
    assert runs["truncated:tikhonov", "table"] == 2
    assert runs["truncated:cutoff", "power1.0"] == 0
    assert runs["truncated:lavrentiev", "power0.5"] == 1
    assert all(n == (name != "cutoff") for (name, _), n in runs.items()
               if not name.startswith("truncated:"))


def test_the_cutoff_closed_form_is_the_grid_certificate(monkeypatch):
    # C_phi = 1 for every increasing phi: certify gives the certificate the
    # grid gives (with the parent's, for the truncated family), on the
    # grids it carries, and runs no grid; the grid stays the reference
    from multreg import LogPowerIndex, TableIndex
    from multreg import schemes
    phis = {**_certified_index_functions(),
            **{f"power{nu}": PowerIndex(nu) for nu in (0.05, 0.3, 3.0, 10.0, 40.0)},
            **{f"log_power{nu},{beta}": LogPowerIndex(nu, beta)
               for nu in (0.2, 2.0) for beta in (-0.1, 0.5, 3.0)}}
    grid = schemes.certify_qualification
    for scheme in (spectral_cutoff(), truncate(spectral_cutoff())):
        for label, phi in phis.items():
            parent = grid(replace(scheme, truncated=False), phi) \
                if scheme.name.startswith("truncated:") else None
            reference = grid(scheme, phi, parent_certificate=parent)
            monkeypatch.setattr(schemes, "certify_qualification", None)
            cert = certify(scheme, phi)[1]
            monkeypatch.undo()
            assert (cert.scheme_name, cert.phi) == (scheme.name, phi)
            assert (cert.c_phi.hex(), cert.passed) == \
                (reference.c_phi.hex(), reference.passed) == ((1.0).hex(), True), label
            assert np.array_equal(cert.alpha_grid, reference.alpha_grid)
            assert np.array_equal(cert.t_grid, reference.t_grid)
    # a phi whose domain lies below the alpha grid is still refused
    from multreg import PreconditionFailed
    low = TableIndex([1e-9, 1e-7], [1e-9, 1e-7])
    for scheme in (spectral_cutoff(), truncate(spectral_cutoff())):
        with pytest.raises(PreconditionFailed, match="no admissible alpha probes"):
            certify(scheme, low)
    # the closed form is the built scheme's, not its name's, and truncate
    # keeps it only with the simplified residual it rests on
    assert truncate(truncate(spectral_cutoff()))._c_phi == 1.0
    assert truncate(lavrentiev())._c_phi is None
    assert Scheme("cutoff", 1.0, 1.0, True, spectral_cutoff()._filter)._c_phi is None
