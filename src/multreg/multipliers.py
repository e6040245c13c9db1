"""Multiplier functions b with 0 < b <= sup_bound almost everywhere.

The calculus uses four facts about b: its values on the nodes, its sup,
an optional closed-form distribution function d_b(t), and the tail model
``tail_vanishes`` (every superlevel set {b > t}, t > 0, has finite
measure).  Closed-form families are ``CallableMultiplier`` constructors;
``Tabulated`` lives on fixed nodes and is not ``evaluable`` off them, and
``ExponentialSequence`` builds the eigenvalue multiplier of the bounded
final value problem as such a table.  Zeros are only allowed where a
family explicitly declares them (the plateau counterexample on s < 0,
piecewise-monotone multipliers at their declared zero locations).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EigenvaluesNotDivergent
from .indexfuncs import IndexFunction
from .spaces import COUNTING, LEBESGUE_HALFLINE, LEBESGUE_LINE, MeasureSpace

INCREASING_RIGHT = "increasing_right"
INCREASING_LEFT = "increasing_left"


class Multiplier:
    """Base class. Subclasses set ``family`` and ``sup_bound``.

    ``evaluable``: b can be evaluated off any fixed grid.
    ``tail_vanishes``: b vanishes at infinity (the tail model).
    """

    family = "abstract"
    sup_bound: float
    evaluable = True
    tail_vanishes = True

    def values_on(self, space: MeasureSpace) -> np.ndarray:
        return space._map(self)

    def __call__(self, s):  # pragma: no cover - abstract
        raise NotImplementedError(f"{self.family} is not pointwise evaluable")

    def distribution_exact(self, t: float, space: MeasureSpace) -> float | None:
        """Exact d_b(t) for the untruncated space, or None."""
        return None


@dataclass(frozen=True)
class CallableMultiplier(Multiplier):
    """Closed-form multiplier given by an arbitrary evaluator.

    The optional ``exact_distribution(t, space)`` hook supplies d_b(t) in
    closed form, or None where it has none.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    tail_vanishes: bool = True
    exact_distribution: Callable[[float, MeasureSpace], float | None] | None = None
    family: str = "callable"

    def __call__(self, s):
        return np.asarray(self.fn(np.asarray(s, float)), float)

    def distribution_exact(self, t, space):
        if self.exact_distribution is None:
            return None
        d = self.exact_distribution(t, space)
        return None if d is None else float(d)


def PowerDecay(kappa: float) -> CallableMultiplier:
    """b(s) = 1 / (1 + s**(1/kappa)) on the half-line."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return CallableMultiplier(
        lambda s: 1.0 / (1.0 + s ** (1.0 / kappa)), sup_bound=1.0,
        exact_distribution=lambda t, space:
            0.0 if t >= 1.0 else ((1.0 - t) / t) ** kappa,
        family="power_decay")


def PurePower(kappa: float) -> CallableMultiplier:
    """b(s) = s**kappa on the unit interval [0, 1]."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return CallableMultiplier(
        lambda s: s ** kappa, sup_bound=1.0,
        exact_distribution=lambda t, space:
            0.0 if t >= 1.0 else 1.0 - t ** (1.0 / kappa),
        family="pure_power")


def GaussianFrequency(c: float = 1.0, tau: float = 1.0) -> CallableMultiplier:
    """b(s) = exp(-c^2 * tau * s^2) in one dimension; the frequency symbol
    of heat flow."""
    if c <= 0 or tau <= 0:
        raise ValueError("c and tau must be positive")

    def d_b(t, space):
        if t >= 1.0:
            return 0.0
        radius = np.sqrt(np.log(1.0 / t)) / (c * np.sqrt(tau))
        if space.kind == LEBESGUE_LINE:
            return 2.0 * radius
        if space.kind == LEBESGUE_HALFLINE:
            return radius
        return None

    return CallableMultiplier(lambda s: np.exp(-(c**2) * tau * s ** 2),
                              sup_bound=1.0, exact_distribution=d_b,
                              family="gaussian_frequency")


def PlateauCounterexample() -> CallableMultiplier:
    """b = 0 on s<0, b = s on [0,1], b = 1 beyond; not vanishing at infinity.

    d_b(t) is infinite below 1: the plateau {b = 1} has infinite measure.
    """
    return CallableMultiplier(
        lambda s: np.clip(s, 0.0, 1.0), sup_bound=1.0, tail_vanishes=False,
        exact_distribution=lambda t, space: 0.0 if t >= 1.0 else np.inf,
        family="plateau_counterexample")


@dataclass(frozen=True)
class MonotonePiece:
    """One local zero of a piecewise-monotone multiplier.

    ``profile`` is a strictly increasing index function on (0, radius]
    with profile(0+) = 0; ``orientation`` says on which side of the zero
    the profile is traversed.
    """

    zero_location: float
    orientation: str
    profile: IndexFunction
    radius: float

    def __post_init__(self):
        if self.orientation not in (INCREASING_RIGHT, INCREASING_LEFT):
            raise ValueError("orientation must be increasing_right or increasing_left")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def window(self) -> tuple[float, float]:
        if self.orientation == INCREASING_RIGHT:
            return (self.zero_location, self.zero_location + self.radius)
        return (self.zero_location - self.radius, self.zero_location)

    def local_coordinate(self, s: np.ndarray) -> np.ndarray:
        if self.orientation == INCREASING_RIGHT:
            return s - self.zero_location
        return self.zero_location - s

    def edge_value(self) -> float:
        return float(self.profile(self.radius))


@dataclass(frozen=True)
class BackgroundPart:
    """The part of b bounded away from zero, active outside all piece
    windows: the constant ``essential_infimum``."""

    essential_infimum: float

    def __post_init__(self):
        if self.essential_infimum <= 0:
            raise ValueError("essential infimum must be positive")

    def __call__(self, s):
        return np.full_like(np.asarray(s, float), self.essential_infimum)


@dataclass(frozen=True)
class PiecewiseMonotone(Multiplier):
    """Finitely many zeros with declared monotone profiles, on [0, hi].

    Inside a piece window the piece profile is used; elsewhere the
    background.  Windows must be pairwise disjoint and zero locations
    distinct.
    """

    pieces: tuple
    background: BackgroundPart
    hi: float = 1.0
    family = "piecewise_monotone"

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        zeros = [p.zero_location for p in pieces]
        if len(set(zeros)) != len(zeros):
            raise ValueError("zero locations must be distinct")
        windows = sorted(p.window for p in pieces)
        for (a0, b0), (a1, b1) in zip(windows, windows[1:]):
            if a1 < b0:
                raise ValueError("piece windows must be disjoint")
        object.__setattr__(self, "pieces", pieces)
        edge = max(p.edge_value() for p in pieces)
        object.__setattr__(self, "sup_bound",
                           max(edge, float(self.background.essential_infimum)))

    def __call__(self, s):
        s = np.asarray(s, float)
        out = self.background(s)
        for piece in self.pieces:
            lo, hi = piece.window
            mask = (s >= lo) & (s <= hi)
            if np.any(mask):
                u = piece.local_coordinate(s[mask])
                vals = np.zeros(u.shape)
                pos = u > 0
                vals[pos] = piece.profile(u[pos])
                out[mask] = vals
        return out


def read_table(path) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, values) from two-column text with '#' comments; a single
    row reads as a table of one row; a table without rows, with ragged
    rows or a non-numeric or non-finite cell is an error naming the file."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "no data"
        try:
            data = np.loadtxt(path, comments="#", ndmin=2)
        except ValueError:  # ragged rows or a non-numeric cell
            data = np.empty((0, 0))
    if data.shape[0] == 0 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected rows of two columns: node value")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: every cell must be a finite number")
    return data[:, 0], data[:, 1]


@dataclass(frozen=True)
class Tabulated(Multiplier):
    """Values aligned with a fixed space's nodes; ``sup_bound`` is their
    largest.  The table is a read-only copy of the values given, and
    ``values_on`` returns it.

    ``tail_vanishes`` declares the tail model when the space is infinite:
    True means superlevel sets have finite measure beyond the truncation.
    ``space_kind``, if given, is the kind of space the table was built
    for, and ``values_on`` refuses a space of any other kind.
    """

    values: np.ndarray
    tail_vanishes: bool = True
    space_kind: str | None = None
    family = "tabulated"
    evaluable = False

    def __post_init__(self):
        vals = np.array(self.values, float)  # a copy, read-only from here
        vals.flags.writeable = False
        if not np.isfinite(vals).all() or np.any(vals < 0):
            raise ValueError("multiplier values must be nonnegative and finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sup_bound", float(np.max(vals)))

    def values_on(self, space):
        if self.space_kind not in (None, space.kind):
            raise ValueError(f"this table lives on a {self.space_kind} space")
        if self.values.shape != space.weights.shape:
            raise ValueError("tabulated values not aligned with this space")
        return self.values


def ExponentialSequence(c: float, tau: float, eigenvalues,
                        exponent_power: int = 2) -> Tabulated:
    """b(n) = exp(-c^2 * lambda_n**p * tau), n = 1, 2, ..., as a table on
    the counting measure, one value per eigenvalue.

    ``exponent_power`` p defaults to 2 (eigenvalues enter squared); p = 1
    gives the standard semigroup variant.  The eigenvalues must be
    nondecreasing and grow across the section.
    """
    lam = np.asarray(eigenvalues, float)
    if c <= 0 or tau <= 0:
        raise ValueError("c and tau must be positive")
    if lam.size < 2 or np.any(np.diff(lam) < 0):
        raise EigenvaluesNotDivergent("eigenvalues must be nondecreasing")
    if lam[-1] <= lam[0]:
        raise EigenvaluesNotDivergent(
            "eigenvalue sequence looks bounded (no growth across the section)"
        )
    return Tabulated(np.exp(-(c**2) * lam ** exponent_power * tau),
                     space_kind=COUNTING)
