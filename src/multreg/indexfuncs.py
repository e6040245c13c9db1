"""Index functions: strictly increasing, continuous, vanishing at 0+.

These carry both smoothness (source conditions) and qualification.  All
evaluators are vectorized over numpy arrays.  A function may declare a
finite validity ``domain``; evaluation outside it raises, solvers clamp
their brackets to it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionFailed


def solve_increasing(fn, target: float, lo: float, hi: float) -> float:
    """The smallest double x in (lo, hi] with fn(x) >= target, for increasing
    fn; needs 0 <= lo < hi and fn(hi) >= target.

    Non-negative doubles are ordered like their int64 bit patterns (IEEE 754
    totalOrder): bisecting the patterns until they are adjacent finds that x
    exactly, whatever the bracket, in at most 63 calls of fn.
    """
    lo_bits, hi_bits = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if fn(struct.unpack("<d", struct.pack("<q", mid))[0]) < target:
            lo_bits = mid
        else:
            hi_bits = mid
    return struct.unpack("<d", struct.pack("<q", hi_bits))[0]


class IndexFunction:
    """Base class; subclasses implement ``_eval`` on valid positive input."""

    name = "index"
    #: closed or half-open validity interval (lo, hi]; np.inf allowed.
    domain: tuple[float, float] = (0.0, np.inf)

    def __call__(self, t):
        # a scalar is checked with Python comparisons, which cost a tenth
        # of numpy's on a 0-d array, and still evaluated as a 0-d array:
        # numpy's scalar power differs from its array loop in the last bit
        arr = np.asarray(t, dtype=float)
        lo, hi = self.domain
        if arr.ndim == 0:
            x = float(arr)
            outside = x <= lo or x > hi * (1 + 1e-12)
        else:
            outside = np.any(arr <= lo) or np.any(arr > hi * (1 + 1e-12))
        if outside:
            raise ValueError(
                f"{self.name}: argument outside domain ({lo:.3g}, {hi:.3g}]"
            )
        out = self._eval(arr)
        return float(out) if arr.ndim == 0 else out

    def _eval(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        """The smallest double t in the finite bracket with phi(t) >= y."""
        lo, hi = self._finite_bracket()
        flo, fhi = self(lo), self(hi)
        if not (flo <= y <= fhi):
            raise ValueError(f"{self.name}: value {y:.6g} outside range "
                             f"[{flo:.6g}, {fhi:.6g}]")
        return solve_increasing(self, y, lo, hi)

    def _finite_bracket(self) -> tuple[float, float]:
        lo, hi = self.domain
        return max(lo, 1e-300) * (1 + 1e-15) if lo > 0 else 1e-300, min(hi, 1e12)

    def power(self, p: float) -> "IndexFunction":
        """phi**p, again an index function for p > 0."""
        if p <= 0:
            raise ValueError("p must be positive")
        return _Derived(f"{self.name}^{p:g}", self.domain,
                        lambda t: np.asarray(self(t)) ** p,
                        lambda y: self.inverse(float(y) ** (1.0 / p)))


@dataclass(frozen=True)
class PowerIndex(IndexFunction):
    """phi(t) = t**nu."""

    nu: float
    name = "power"

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")

    def _eval(self, t):
        return t ** self.nu

    def inverse(self, y):
        return float(y) ** (1.0 / self.nu)


@dataclass(frozen=True)
class LogPowerIndex(IndexFunction):
    """phi(t) = t**nu * log(1/t)**(-beta) on (0, t_max), t_max < 1."""

    nu: float
    beta: float
    t_max: float = 0.5
    name = "log_power"

    def __post_init__(self):
        if self.nu <= 0 or not (0 < self.t_max < 1):
            raise ValueError("need nu > 0 and 0 < t_max < 1")
        # strict monotonicity requires nu*log(1/t) + beta > 0 on the domain
        if self.nu * np.log(1.0 / self.t_max) + self.beta <= 0:
            raise ValueError("not increasing on the requested domain")
        object.__setattr__(self, "domain", (0.0, self.t_max))

    def _eval(self, t):
        # -log(t): 1/t overflows at subnormal t; np.power: a scalar's ** differs
        return np.power(-np.log(t), -self.beta) * np.power(t, self.nu)


class TableIndex(IndexFunction):
    """Monotone table with log-linear interpolation between knots.

    Values strictly increase with the abscissae; evaluation outside the
    tabulated range is refused (``domain`` is the table's span).
    """

    def __init__(self, ts, values, name: str = "custom"):
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.size < 2 or values.shape != ts.shape:
            raise ValueError("need matching 1-d tables with >= 2 entries")
        if np.any(ts <= 0) or np.any(values <= 0):
            raise ValueError("table must be positive for log interpolation")
        if np.any(np.diff(ts) <= 0) or np.any(np.diff(values) <= 0):
            raise ValueError("table must be strictly increasing")
        self._log_t = np.log(ts)
        self._log_v = np.log(values)
        self.ts = ts
        self.values = values
        self.name = name
        lo = min(ts[0] * (1 - 1e-12), np.nextafter(ts[0], 0))  # also below a subnormal
        self.domain = (float(lo), float(ts[-1]))

    def _eval(self, t):
        return np.exp(np.interp(np.log(t), self._log_t, self._log_v))

    def inverse(self, y):
        if not (self.values[0] <= y <= self.values[-1]):
            raise ValueError(f"{self.name}: value outside tabulated range")
        return float(np.exp(np.interp(np.log(y), self._log_v, self._log_t)))


class _Derived(IndexFunction):
    """An index function given by its evaluator ``fn`` and ``inverse``,
    derived from another one: ``IndexFunction.power``, and the lower
    sandwich bound b_k(s / (C m)) of ``piecewise_rearrangement_bounds``."""

    def __init__(self, name: str, domain: tuple, fn, inverse):
        self.name, self.domain = name, domain
        self._eval, self.inverse = fn, inverse


def validate_index_function(phi: IndexFunction) -> None:
    """Check strict increase and phi(t) -> 0 on probe points 10**(-k).

    Probes are clipped to the declared domain; raises PreconditionFailed
    on violation.
    """
    lo, hi = phi.domain
    top = min(hi, 1.0)
    probes = np.array([top * 10.0 ** (-k) for k in range(12)])
    probes = probes[probes > lo]
    if probes.size < 3:
        raise PreconditionFailed(f"{phi.name}: domain too small to probe")
    vals = np.asarray(phi(probes))
    if np.any(vals <= 0) or np.any(np.diff(vals) >= 0):
        # probes descend, so values must strictly descend as well
        raise PreconditionFailed(f"{phi.name}: not strictly increasing on probes")
    if not vals[-1] < vals[0] * 1e-3:
        raise PreconditionFailed(f"{phi.name}: does not appear to vanish at 0+")


#: index function family -> (its config keys besides ``family``,
#: builder(spec)); ``reciprocal_measure``, phi* = 1/d_b, has no builder
#: here: ``smoothness.phi_star`` builds it from the multiplier
INDEX_FAMILIES = {
    "power": (("nu",), lambda spec: PowerIndex(float(spec.get("nu", 1.0)))),
    "log_power": (("nu", "beta", "t_max"), lambda spec: LogPowerIndex(
        float(spec["nu"]), float(spec["beta"]), float(spec.get("t_max", 0.5)))),
    "table": (("ts", "values"), lambda spec: TableIndex(spec["ts"],
                                                        spec["values"])),
    "reciprocal_measure": ((), None),
}


def index_function_from_spec(spec: dict) -> IndexFunction:
    """Build an index function from a config mapping (``INDEX_FAMILIES``)."""
    family = spec.get("family", "power")
    if not isinstance(family, str) or \
            INDEX_FAMILIES.get(family, ((), None))[1] is None:
        raise ValueError(f"cannot build index function family {family!r} "
                         "from a spec")
    return INDEX_FAMILIES[family][1](spec)
