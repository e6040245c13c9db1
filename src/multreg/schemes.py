"""Regularization families Phi_alpha with residuals and certification.

A scheme is a family of filter functions approximating 1/t.  The three
built-ins are spectral cut-off, Lavrentiev and the Tikhonov/Wiener form
t/(alpha + t^2); ``truncate`` kills any filter on {t <= alpha}, which is
what white-noise variance bounds on infinite-measure spaces require.

Certification is a sound-but-incomplete grid test: the axioms are checked
on finite probe grids, and qualification constants must stay stable when
the grids are refined and extended, since the underlying suprema run over
all t >= 0 and all alpha > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import AxiomViolation, PreconditionFailed
from .indexfuncs import IndexFunction

_LIMIT_EXPONENT = 30      # axiom (I) is probed along alpha = 2^-n, n <= 30
_LIMIT_TOL = 1e-3


@dataclass(frozen=True)
class Scheme:
    """Filter family phi(alpha, t) with stored constants.

    ``c_minus1`` bounds |phi| <= c_minus1 / alpha, ``c_0`` bounds the
    residual.  ``phi`` evaluates ``_filter`` (a new array) on all t and, if
    ``truncated``, zeroes it wherever not t > alpha: the one truncation
    rule.  ``_residual`` optionally holds the simplified form of 1 - t*phi
    (the cut-off indicator, say), which avoids amplifying the roundoff of
    t*(1/t) in qualification suprema; it must agree with the truncation.
    """

    name: str
    c_minus1: float
    c_0: float
    truncated: bool
    _filter: Callable[[float, np.ndarray], np.ndarray] = field(repr=False)
    _residual: Callable[[float, np.ndarray], np.ndarray] | None = \
        field(default=None, repr=False)

    def phi(self, alpha: float, t):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = self._filter(alpha, t_arr)
        if self.truncated:  # zero wherever not t > alpha, NaN t included
            np.copyto(out, 0.0, where=~(t_arr > alpha))
        return float(out[0]) if np.ndim(t) == 0 else out

    def residual(self, alpha: float, t):
        """R_alpha(t) = 1 - t * phi(alpha, t)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if self._residual is not None:
            out = self._residual(alpha, t_arr)
        else:
            phi_t = self.phi(alpha, t_arr)
            out = self.residual_into(alpha, t_arr, phi_t, out=phi_t)
        return float(out[0]) if np.ndim(t) == 0 else out

    def residual_into(self, alpha: float, t: np.ndarray, phi_t: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
        """``residual(alpha, t)`` written into ``out``, bit for bit, given the
        filter values ``phi_t = phi(alpha, t)``: a scheme without a
        simplified residual forms 1 - t * phi_t in ``out``, which may be
        ``phi_t`` itself, allocating nothing."""
        if self._residual is not None:
            out[...] = self._residual(alpha, t)
        else:
            np.subtract(1.0, np.multiply(t, phi_t, out=out), out=out)
        return out


def spectral_cutoff() -> Scheme:
    def f(alpha, t):
        return np.divide(1.0, t, out=np.zeros_like(t), where=t > alpha)

    def r(alpha, t):
        # 1 - t*(1/t) simplified exactly: the indicator of {t <= alpha}
        return np.where(t > alpha, 0.0, 1.0)

    return Scheme("cutoff", c_minus1=1.0, c_0=1.0, truncated=True,
                  _filter=f, _residual=r)


def lavrentiev() -> Scheme:
    def f(alpha, t):
        return 1.0 / (t + alpha)

    return Scheme("lavrentiev", c_minus1=1.0, c_0=1.0, truncated=False, _filter=f)


def tikhonov_wiener() -> Scheme:
    """phi(alpha, t) = t / (alpha + t^2), the Wiener-filter form for real b.

    The stored c_minus1 = 1 is valid for alpha <= 4 (t/(alpha+t^2) <= 1/alpha
    there); the sharp sup 1/(2 sqrt(alpha)) is not of the C/alpha form.
    """

    def f(alpha, t):
        return t / (alpha + t * t)

    return Scheme("tikhonov", c_minus1=1.0, c_0=1.0, truncated=False, _filter=f)


def truncate(scheme: Scheme) -> Scheme:
    """Modified family chi_(alpha,inf)(t) * phi(alpha, t); same constants.

    The flag does the truncation (``Scheme.phi``); a simplified residual is
    kept only if the scheme is truncated already, so truncating a truncated
    family changes its name alone.
    """
    name = scheme.name if scheme.name.startswith("truncated:") \
        else f"truncated:{scheme.name}"
    return replace(scheme, name=name, truncated=True,
                   _residual=scheme._residual if scheme.truncated else None)


_BUILTINS = {
    "cutoff": spectral_cutoff,
    "lavrentiev": lavrentiev,
    "tikhonov": tikhonov_wiener,
}


def scheme_by_name(name: str) -> Scheme:
    """Resolve "cutoff" | "lavrentiev" | "tikhonov" | "truncated:<name>"."""
    if name.startswith("truncated:"):
        return truncate(scheme_by_name(name[len("truncated:"):]))
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown scheme '{name}'") from None


def certify_axioms(scheme: Scheme, raise_on_failure: bool = False) -> bool:
    """Grid check of the three defining properties.

    (I)  t * phi(alpha, t) -> 1 along alpha = 2^-n, monotonically, reaching
         |residual| <= 1e-3 at n = 30;
    (II) |phi(alpha, t)| <= c_minus1 / alpha on the grid;
    (III)|residual(alpha, t)| <= c_0 on the grid.

    The grids are fixed: 25 log-spaced alphas in [1e-8, 1] and 25
    log-spaced t in [1e-3, 1].  Each alpha probes the whole t grid in one
    array call.  (I) is checked t by t, monotonicity before the limit, so
    an ``AxiomViolation`` names the first failing t, and at it the first
    alpha where the residual rises.
    """
    alpha_grid = np.logspace(-8, 0, 25)
    # the limit check at alpha = 2^-30 with tolerance 1e-3 needs t not too
    # small: slower families (Lavrentiev, Tikhonov) honestly fail below ~1e-3
    t_grid = np.logspace(-3, 0, 25)

    def fail(item, alpha, t, detail=""):
        if raise_on_failure:
            raise AxiomViolation(item, float(alpha), float(t), detail)
        return False

    alphas_limit = 0.5 ** np.arange(_LIMIT_EXPONENT + 1)
    # r[i, j] = |R(alphas_limit[i], t_grid[j])|, one array probe per alpha
    r = np.abs([scheme.residual(a, t_grid) for a in alphas_limit])
    rises = np.diff(r, axis=0) > 1e-9
    # the first failing t; at each t, the monotone check before the limit
    failing = np.flatnonzero(rises.any(axis=0) | (r[-1] > _LIMIT_TOL))
    if failing.size:
        j = failing[0]
        if rises[:, j].any():
            return fail("I", alphas_limit[int(np.argmax(rises[:, j])) + 1],
                        t_grid[j], "approach not monotone")
        return fail("I", alphas_limit[-1], t_grid[j],
                    f"|residual| = {r[-1, j]:.3g} > {_LIMIT_TOL}")

    for alpha in alpha_grid:
        phi_vals = np.abs(scheme.phi(alpha, t_grid))
        if np.any(phi_vals > scheme.c_minus1 / alpha * (1 + 1e-12)):
            t_bad = t_grid[int(np.argmax(phi_vals))]
            return fail("II", alpha, t_bad)
        res_vals = np.abs(scheme.residual(alpha, t_grid))
        if np.any(res_vals > scheme.c_0 * (1 + 1e-12)):
            t_bad = t_grid[int(np.argmax(res_vals))]
            return fail("III", alpha, t_bad)
    return True


@dataclass(frozen=True)
class QualificationCertificate:
    scheme_name: str
    phi: IndexFunction
    c_phi: float
    alpha_grid: np.ndarray
    t_grid: np.ndarray
    passed: bool

    def __str__(self):
        status = "passed" if self.passed else "FAILED"
        return (f"qualification({self.phi.name}) for {self.scheme_name}: "
                f"{status}, C_phi = {self.c_phi:.6g}")


def _cphi_estimate(scheme, phi, alphas, ts) -> float:
    """max over alpha of max_t |R_alpha(t)| phi(t) / phi(alpha), t in ``ts``
    and, inside phi's domain, t = alpha; phi is evaluated on ``ts`` once."""
    lo, hi = phi.domain
    ts = ts[(ts > lo) & (ts <= hi)]
    phi_ts = phi(ts)
    best = 0.0
    for alpha in alphas:
        phi_alpha = phi(alpha)
        # the supremum is often attained at t = alpha
        at_alpha = abs(scheme.residual(alpha, alpha)) * phi_alpha \
            if lo < alpha <= hi else -np.inf
        num = float(np.max(np.abs(scheme.residual(alpha, ts)) * phi_ts,
                           initial=at_alpha))
        best = max(best, num / phi_alpha)
    return best


def certify_qualification(scheme: Scheme, phi: IndexFunction,
                          parent_certificate: "QualificationCertificate | None" = None,
                          ) -> QualificationCertificate:
    """Estimate C_phi = sup_alpha sup_t |R_alpha(t)| phi(t) / phi(alpha).

    The estimate is taken on fixed log-spaced grids, then recomputed on a
    refined grid (doubled density, alpha extended a decade down, t a decade
    up); the certificate passes iff the two estimates agree within a fixed
    stability factor.
    Schemes whose true supremum diverges (e.g. Lavrentiev with
    phi(t) = t^1.5) blow up under this extension and fail.

    For a truncated scheme, pass the parent's certificate to additionally
    assert C_phi <= max(parent C_phi, C_0).
    """
    alpha_grid = np.logspace(-6, 0, 49)
    t_grid = np.logspace(-8, 0, 512)

    # clamp the alpha range into phi's validity window
    lo, hi = phi.domain
    alpha_grid = alpha_grid[(alpha_grid > lo) & (alpha_grid <= hi)]
    if alpha_grid.size == 0:
        raise PreconditionFailed(
            f"{phi.name}: no admissible alpha probes inside phi's domain")

    base = _cphi_estimate(scheme, phi, alpha_grid, t_grid)
    alpha_fine = np.geomspace(alpha_grid[0] / 10.0, alpha_grid[-1],
                              2 * alpha_grid.size)
    alpha_fine = alpha_fine[(alpha_fine > lo) & (alpha_fine <= hi)]
    t_fine = np.geomspace(t_grid[0], min(t_grid[-1] * 10.0, 1e12),
                          2 * t_grid.size)
    refined = _cphi_estimate(scheme, phi, alpha_fine, t_fine)

    passed = bool(np.isfinite(base) and np.isfinite(refined) and base > 0
                  and refined <= 1.1 * base + 1e-12)
    c_phi = max(base, refined)
    if passed and parent_certificate is not None:
        limit = max(parent_certificate.c_phi, scheme.c_0)
        passed = c_phi <= limit * (1 + 1e-9)
    return QualificationCertificate(scheme.name, phi, c_phi,
                                    alpha_grid, t_grid, passed)


def certify(scheme: Scheme, phi: IndexFunction) -> tuple[bool, QualificationCertificate]:
    """(axioms passed, qualification certificate) on the default grids; a
    family that ``truncate`` made must also keep C_phi <= max(parent C_phi,
    C_0), its parent being the same ``Scheme`` untruncated."""
    base = scheme.name.removeprefix("truncated:")
    parent = certify_qualification(
        replace(scheme, name=base, truncated=False), phi) \
        if base != scheme.name else None
    return (certify_axioms(scheme),
            certify_qualification(scheme, phi, parent_certificate=parent))


def require_certified(scheme: Scheme, phi: IndexFunction) -> QualificationCertificate:
    """The certificate of :func:`certify`; raises PreconditionFailed when the
    scheme fails the axioms or qualification for ``phi``."""
    axioms_ok, cert = certify(scheme, phi)
    if not (axioms_ok and cert.passed):
        failed = "the axioms" if not axioms_ok else \
            f"qualification {phi.name} (estimate {cert.c_phi:.4g})"
        raise PreconditionFailed(f"scheme {scheme.name} failed {failed}")
    return cert
