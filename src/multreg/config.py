"""Experiment configuration: a single YAML file with nested sections.

Every physical parameter carries an explicit key (no positional fields),
so configurations diff cleanly and hash reproducibly.  Parsing errors are
reported with the YAML position where available; validation errors name
the offending section and field.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .analysis import MultiplicationProblem
from .errors import ConfigError
from .gallery import (DeconvolutionProblem, FinalValueProblem, compact_case,
                      exp_decay_pair, fvp_multiplier, plateau_pair,
                      power_decay_pair, pure_power_pair, source_element_vector)
from .indexfuncs import (INDEX_FAMILIES, IndexFunction,
                         index_function_from_spec)
from .multipliers import Tabulated, read_table
from .noise import GAUSSIAN, RADEMACHER
from .schemes import scheme_by_name
from .smoothness import _source_on, phi_star
from .spaces import MeasureSpace

_SPACE_KINDS = {"interval": "lebesgue_interval", "halfline": "lebesgue_halfline",
                "line": "lebesgue_line", "counting": "counting"}
MODES = ("deterministic", "white")
_TOP_LEVEL = ("problem", "scheme", "index_function", "noise", "discretization",
              "output", "alpha", "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the config file's digest."""

    problem: dict
    scheme: str
    index_function: dict
    mode: str
    deltas: tuple
    replications: int
    seed: int
    n_nodes: int
    truncation_radius: float | None
    graded: bool
    alpha: float | None
    out_dir: str
    out_format: str
    digest: str
    noise_distribution: str = GAUSSIAN


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return section[key]


def _section(section, known, where: str) -> dict:
    """``section``, which must be a mapping with no keys outside ``known``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = sorted(str(key) for key in section if key not in known)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)} "
                          f"(choose from {', '.join(known)})")
    return section


def _as_number(value, kind, name: str, finite: bool = True):
    """``value`` as ``kind``; no bool, fractional int or (if ``finite``) inf or NaN."""
    try:
        if isinstance(value, bool) or kind is int and isinstance(value, float) \
                and not value.is_integer():
            raise ValueError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected {kind.__name__}, "
                          f"got {value!r}") from None
    if finite and kind is float and not np.isfinite(number):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return number


def _number(section: dict, key: str, default, kind, where: str = "",
            minimum=None):
    """``section[key]`` (``default`` when absent) as ``kind`` (see
    ``_as_number``), at least ``minimum`` when given; None stays None."""
    value = section.get(key, default)
    if value is None:
        return None
    number = _as_number(value, kind, f"{where}{key}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{where}{key}: must be >= {minimum}")
    return number


def _numbers(values, name: str, finite: bool = True) -> list:
    """``values``, a list, as floats, each entry checked by ``_as_number``."""
    if not isinstance(values, list):
        raise ConfigError(f"{name}: expected a list of numbers")
    return [_as_number(v, float, name, finite) for v in values]


def _flag(section: dict, key: str, default: bool, where: str) -> bool:
    """``section[key]`` (``default`` when absent); only a YAML boolean."""
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}{key}: expected true or false, got {value!r}")
    return value


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate the YAML file at ``path``; ``seed``, when given,
    replaces the file's seed before validation."""
    path = Path(path)
    try:
        text = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{loc}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of sections")
    digest = hashlib.sha256(text).hexdigest()
    if seed is not None:
        raw = {**raw, "seed": seed}
    return parse_config(raw, digest=digest)


def parse_config(raw: dict, digest: str = "") -> ExperimentConfig:
    _section(raw, _TOP_LEVEL, "top level")
    problem = raw.get("problem")
    if not isinstance(problem, dict):
        raise ConfigError("problem: section missing or not a mapping")
    kind = _require(problem, "kind", "problem")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind: unknown kind '{kind}' "
                          f"(choose from {', '.join(PROBLEM_KINDS)})")
    _section(problem, _SHARED_KEYS + _BUILDERS[kind][0], "problem")

    scheme = raw.get("scheme", "cutoff")
    if not isinstance(scheme, str):
        raise ConfigError("scheme: expected a name string")
    try:
        scheme_by_name(scheme)
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from None

    index_function = raw.get("index_function", {"family": "power", "nu": 1.0})
    if not isinstance(index_function, dict):
        raise ConfigError("index_function: expected a mapping")
    family = index_function.get("family", "power")
    if not isinstance(family, str) or family not in INDEX_FAMILIES:
        raise ConfigError(f"index_function.family: unknown family {family!r} "
                          f"(choose from {', '.join(INDEX_FAMILIES)})")
    _section(index_function, ("family",) + INDEX_FAMILIES[family][0],
             "index_function")
    for key in ("nu", "beta", "t_max"):
        _number(index_function, key, None, float, "index_function.")
    for key in ("ts", "values"):
        if key in index_function:
            _numbers(index_function[key], f"index_function.{key}")

    noise = _section(raw.get("noise", {}),
                     ("mode", "deltas", "replications", "distribution"), "noise")
    mode = noise.get("mode", "deterministic")
    if mode not in MODES:
        raise ConfigError(f"noise.mode: unknown mode '{mode}'")
    deltas = tuple(_numbers(noise.get("deltas", []), "noise.deltas", False))
    if not all(0 < d < np.inf for d in deltas):
        raise ConfigError("noise.deltas: noise levels must be positive and finite")
    replications = _number(noise, "replications", 1, int, "noise.", minimum=1)
    if mode == "white" and deltas and replications < 2:
        raise ConfigError("noise.replications: white-noise studies need >= 2")
    distribution = noise.get("distribution", GAUSSIAN)
    if distribution not in (GAUSSIAN, RADEMACHER):
        raise ConfigError(f"noise.distribution: unknown distribution "
                          f"'{distribution}' (choose from {GAUSSIAN}, {RADEMACHER})")

    disc = _section(raw.get("discretization", {}),
                    ("n_nodes", "truncation_radius", "graded"), "discretization")
    n_nodes = _number(disc, "n_nodes", 2**14, int, "discretization.", minimum=2)
    radius = _number(disc, "truncation_radius", None, float, "discretization.")
    graded = _flag(disc, "graded", False, "discretization.")

    out = _section(raw.get("output", {}), ("directory", "format"), "output")
    out_format = out.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format: must be 'csv' or 'json'")
    out_dir = out.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output.directory: expected a path string")

    alpha = _number(raw, "alpha", None, float)
    if alpha is not None and not 0 < alpha < np.inf:
        raise ConfigError("alpha: must be positive")
    seed = _number(raw, "seed", 0, int, minimum=0)

    return ExperimentConfig(
        problem=dict(problem), scheme=scheme, index_function=dict(index_function),
        mode=mode, deltas=deltas, replications=replications,
        seed=seed, n_nodes=n_nodes,
        truncation_radius=radius, graded=graded, alpha=alpha,
        out_dir=out_dir, out_format=out_format,
        digest=digest, noise_distribution=distribution)


def _index_function(spec: dict, b, space: MeasureSpace) -> IndexFunction:
    """phi of f = phi(b) v: phi* = 1/d_b for reciprocal_measure, else the family."""
    try:
        if spec.get("family") == "reciprocal_measure":
            return phi_star(b, space)
        return index_function_from_spec(spec)
    except Exception as exc:
        raise ConfigError(f"index_function: {exc}") from exc


def _deconvolution(p: dict, config: ExperimentConfig):
    prob = DeconvolutionProblem(
        kernel=p.get("kernel", "exponential"),
        half_width=_number(p, "half_width", 40.0, float, "problem."),
        n=config.n_nodes, sigma=_number(p, "sigma", 1.0, float, "problem."))
    return prob.multiplier, prob.freq_space


def _counting(p: dict):
    """The 1/j sequence on n_max nodes, or one node per ``b_values`` entry."""
    if p.get("b_values") is None:
        return compact_case(n_max=_number(p, "n_max", 500, int, "problem."))
    b_values = _numbers(p["b_values"], "problem.b_values")
    if "n_max" in p:
        raise ConfigError("problem.b_values: sets the node count itself; "
                          "remove problem.n_max")
    return compact_case(b_values)


# keys every problem kind accepts: the kind and the true solution
_SHARED_KEYS = ("kind", "element", "solution_file", "solution_values")

# problem kind -> (its own keys, builder(problem section, config) ->
# (multiplier, space))
_BUILDERS = {
    "counting": (("b_values", "n_max"), lambda p, c: _counting(p)),
    "power_decay": (("kappa",), lambda p, c: power_decay_pair(
        _number(p, "kappa", 1.0, float, "problem."), c.truncation_radius or 50.0,
        c.n_nodes)),
    "pure_power": (("kappa",), lambda p, c: pure_power_pair(
        _number(p, "kappa", 1.0, float, "problem."), c.n_nodes, graded=c.graded)),
    "plateau": ((), lambda p, c: plateau_pair(c.truncation_radius or 50.0,
                                              c.n_nodes)),
    "exp_decay": ((), lambda p, c: exp_decay_pair(c.truncation_radius or 30.0,
                                                  c.n_nodes)),
    "fvp_whole_space": (("c", "tau"), lambda p, c: fvp_multiplier(
        FinalValueProblem("whole_space", c=_number(p, "c", 1.0, float, "problem."),
                          tau=_number(p, "tau", 1.0, float, "problem."),
                          radius=c.truncation_radius or 8.0, n_grid=c.n_nodes))),
    "fvp_bounded": (("c", "tau", "n_max", "eigenvalues", "exponent_power"),
                    lambda p, c: fvp_multiplier(FinalValueProblem(
        "bounded_domain", c=_number(p, "c", 1.0, float, "problem."),
        tau=_number(p, "tau", 1.0, float, "problem."),
        n_max=_number(p, "n_max", 64, int, "problem."),
        eigenvalues=tuple(_numbers(p["eigenvalues"], "problem.eigenvalues"))
        if p.get("eigenvalues") else None,
        exponent_power=_number(p, "exponent_power", 2, int, "problem.")))),
    "deconvolution": (("kernel", "half_width", "sigma"), _deconvolution),
    "tabulated": (("file", "space", "tail_vanishes"),
                  lambda p, c: _tabulated_from_file(p)),
}
PROBLEM_KINDS = tuple(_BUILDERS)


def build_problem(config: ExperimentConfig) -> MultiplicationProblem:
    """Instantiate the multiplier, space, index function and true solution."""
    p = config.problem
    kind = p["kind"]
    try:
        b, space = _BUILDERS[kind][1](p, config)
        phi = _index_function(config.index_function, b, space)
        f, scale = _solution_on(b, space, p, phi)
        return MultiplicationProblem(b=b, space=space, f_true=f, name=kind,
                                     source_scale=scale, phi=phi)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"problem.{kind}: {exc}") from exc


def _tabulated_from_file(p: dict):
    """Multiplier and space from two-column text (node, value; '#' comments).

    Lebesgue kinds get cell weights from the midpoints between consecutive
    nodes (end cells extended by half a gap); counting requires nodes
    1..n with unit weights.
    """
    nodes, values = read_table(_require(p, "file", "problem.tabulated"))
    kind_word = p.get("space", "halfline")
    if kind_word not in _SPACE_KINDS:
        raise ConfigError(f"problem.tabulated: unknown space '{kind_word}'")
    kind = _SPACE_KINDS[kind_word]
    if kind == "counting":
        if not np.array_equal(nodes, np.arange(1.0, nodes.size + 1)):
            raise ConfigError("problem.tabulated: counting nodes must be 1..n")
        space = MeasureSpace.counting(nodes.size)
    elif nodes.size < 2:
        raise ConfigError("problem.tabulated: a Lebesgue space needs two nodes")
    else:
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        first = nodes[0] - (mids[0] - nodes[0])
        last = nodes[-1] + (nodes[-1] - mids[-1])
        edges = np.concatenate(([first], mids, [last]))
        radius = float(max(abs(first), abs(last))) if kind != "lebesgue_interval" \
            else None
        space = MeasureSpace(kind, nodes, np.diff(edges), truncation_radius=radius)
    b = Tabulated(values,
                  tail_vanishes=_flag(p, "tail_vanishes", True, "problem."))
    return b, space


def _solution_on(b, space: MeasureSpace, p: dict,
                 phi: IndexFunction) -> tuple[np.ndarray, float]:
    """True solution and its source-element norm.

    The solution comes from a two-column file, explicit values, or a
    source condition f = phi(b) v with a named element (normalized, then
    clipped to phi's validity window); file- and value-based solutions
    report source scale 1.
    """
    if "solution_file" in p:
        f = read_table(p["solution_file"])[1]
        if f.shape != space.weights.shape:
            raise ConfigError("solution_file not aligned with the discretization")
        return f, 1.0
    if "solution_values" in p:
        f = np.array(_numbers(p["solution_values"], "problem.solution_values"))
        if f.shape != space.weights.shape:
            raise ConfigError("solution_values not aligned with the space")
        return f, 1.0
    default_element = "inverse_sqrt" if space.kind == "counting" else "constant"
    v = source_element_vector(p.get("element", default_element), space.weights.size)
    v /= space.norm(v)
    vals = b.values_on(space)
    lo, hi = phi.domain
    v[~((vals > lo) & (vals <= hi))] = 0.0
    scale = float(space.norm(v))  # before f, so that its square is not live
    return _source_on(v, vals, phi), scale
