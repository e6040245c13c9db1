"""Experiment configuration: a single YAML file with nested sections.

Every physical parameter carries an explicit key (no positional fields),
so configurations diff cleanly and hash reproducibly.  Each section
declares its fields in one table, ``key -> (default, kind[, minimum])``,
and ``parse_config`` reads every field through it (``_read``); the
problem builders take the values it read.  Each problem kind declares
its own fields and the ``discretization`` fields it reads.  Parsing
errors are reported with the YAML position where available; validation
errors name the offending section and field.
"""

from __future__ import annotations

import functools
import hashlib
import numbers
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .analysis import MultiplicationProblem
from .errors import ConfigError
from .gallery import (_KERNELS, _SOURCE_ELEMENTS, DeconvolutionProblem,
                      FinalValueProblem, compact_case, exp_decay_pair,
                      fvp_multiplier, plateau_pair, power_decay_pair,
                      pure_power_pair, source_element_vector)
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

# section -> its fields, key -> (default, kind[, minimum]) (see ``_read``)
_TOP_LEVEL = {"problem": (..., dict), "scheme": ("cutoff", str),
              "index_function": ({}, dict), "noise": ({}, dict),
              "discretization": ({}, dict), "output": ({}, dict),
              "alpha": (None, float), "seed": (0, int, 0)}
_NOISE = {"mode": ("deterministic", MODES), "deltas": ([], tuple),
          "replications": (1, int, 1),
          "distribution": (GAUSSIAN, (GAUSSIAN, RADEMACHER))}
_OUTPUT = {"directory": ("out", str), "format": ("csv", ("csv", "json"))}
_FAMILY = ("power", tuple(INDEX_FAMILIES))


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
    discretization: dict
    alpha: float | None
    out_dir: str
    out_format: str
    digest: str
    noise_distribution: str = GAUSSIAN


def _as_number(value, kind, name: str, finite: bool = True):
    """``value`` as ``kind``; no bool, string, fractional int or (if
    ``finite``) inf or NaN."""
    try:
        if not isinstance(value, numbers.Real) or isinstance(value, bool) or \
                kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected {kind.__name__}, "
                          f"got {value!r}") from None
    if finite and kind is float and not np.isfinite(number):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return number


_WORDS = {bool: "true or false", str: "a string", dict: "a mapping"}


def _read(section: dict, key: str, field: tuple, where: str):
    """``section[key]`` as its table entry ``field``, ``(default, kind[,
    minimum])``, declares it; a refusal starts with the path ``where.key``.

    An absent key takes the default; ``...`` marks a required key.  null
    reads as None where the default is None, and the kind refuses it
    anywhere else.  Kinds: ``int`` and ``float`` (``_as_number``; at least
    ``minimum``), ``bool`` (a YAML boolean), ``str``, ``dict`` (a mapping),
    ``list`` (of finite floats, at least ``minimum`` of them), ``tuple``
    (a list of floats as a tuple; the caller checks inf and NaN) or a
    tuple of the names to choose from.
    """
    default, kind, *minimum = field
    name = f"{where}.{key}" if where else key
    value = section.get(key, default)
    if value is ...:
        raise ConfigError(f"{name}: missing required field")
    if value is None and default is None:
        return None
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{name}: unknown {key} {value!r} "
                              f"(choose from {', '.join(kind)})")
    elif kind in _WORDS:
        if not isinstance(value, kind):
            raise ConfigError(f"{name}: expected {_WORDS[kind]}, got {value!r}")
    elif kind in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{name}: expected a list of numbers")
        value = kind(_as_number(v, float, name, kind is list) for v in value)
        if minimum and len(value) < minimum[0]:
            raise ConfigError(f"{name}: expected at least {minimum[0]} "
                              f"number{'s' * (minimum[0] > 1)}")
    else:
        value = _as_number(value, kind, name)
        if minimum and value < minimum[0]:
            raise ConfigError(f"{name}: must be >= {minimum[0]}")
    return value


def _fields(section, table: dict, where: str) -> dict:
    """Every field of ``table`` read from ``section`` by ``_read``, in table
    order; ``section`` must be a mapping with no keys outside ``table``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where or 'top level'}: expected a mapping")
    unknown = sorted(str(key) for key in section if key not in table)
    if unknown:
        choices = f"choose from {', '.join(table)}" if table else "none is read"
        raise ConfigError(f"{where or 'top level'}: unknown key(s) "
                          f"{', '.join(unknown)} ({choices})")
    return {key: _read(section, key, field, where) for key, field in table.items()}


#: libyaml's safe loader where PyYAML was built with it: the same
#: documents as ``yaml.SafeLoader``, parsed in C
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@functools.cache
def _exponent_floats(loader):
    """``loader`` that also reads YAML 1.2's exponent floats, which YAML
    1.1 reads as strings (``1e-3``, ``1.0e5``), as floats; a subclass, so
    ``loader``'s own resolvers stay as they are."""
    subclass = type(loader.__name__, (loader,), {})
    subclass.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return subclass


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate the YAML file at ``path``; ``seed``, when given,
    replaces the file's seed before validation.

    The file is parsed by libyaml (``yaml.CSafeLoader``) where PyYAML has
    it, by ``yaml.SafeLoader`` otherwise, and an unquoted exponent number
    is a float either way; the digest is the SHA-256 of the file's
    bytes."""
    path = Path(path)
    try:
        text = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_exponent_floats(_LOADER))
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
    """The config mapping ``raw`` with every field read through its table.

    The first fault found is reported, in this order: the top-level keys
    and fields (``_TOP_LEVEL``), alpha's sign, the problem (its kind, its
    keys, its fields, the keys that exclude each other), the scheme name,
    the index function (its family, keys and fields), noise, the
    discretization (the keys and fields the problem kind reads, the
    radius's sign), output.  Within a section unknown keys come before
    the fields, which are read in table order.
    """
    top = _fields(raw, _TOP_LEVEL, "")
    if top["alpha"] is not None and top["alpha"] <= 0:
        raise ConfigError("alpha: must be positive")
    kind = _read(top["problem"], "kind", _SHARED["kind"], "problem")
    problem = _fields(top["problem"], {**_SHARED, **_BUILDERS[kind][0]}, "problem")
    for group in _EXCLUSIVE:
        given = [key for key in group if top["problem"].get(key) is not None]
        if len(given) > 1:
            raise ConfigError(f"problem.{given[0]}: cannot be combined with "
                              f"problem.{given[1]}")
    try:
        scheme_by_name(top["scheme"])
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from None
    family = _read(top["index_function"], "family", _FAMILY, "index_function")
    index_function = _fields(top["index_function"],
                             {"family": _FAMILY, **INDEX_FAMILIES[family][0]},
                             "index_function")
    noise = _fields(top["noise"], _NOISE, "noise")
    if not all(0 < d < np.inf for d in noise["deltas"]):
        raise ConfigError("noise.deltas: noise levels must be positive and finite")
    if noise["mode"] == "white" and noise["deltas"] and noise["replications"] < 2:
        raise ConfigError("noise.replications: white-noise studies need >= 2")
    disc = _fields(top["discretization"], _BUILDERS[kind][1], "discretization")
    if disc.get("truncation_radius", 1.0) <= 0:
        raise ConfigError("discretization.truncation_radius: must be positive")
    out = _fields(top["output"], _OUTPUT, "output")
    return ExperimentConfig(
        problem=problem, scheme=top["scheme"], index_function=index_function,
        mode=noise["mode"], deltas=noise["deltas"],
        replications=noise["replications"], seed=top["seed"],
        discretization=disc, alpha=top["alpha"], out_dir=out["directory"],
        out_format=out["format"], digest=digest,
        noise_distribution=noise["distribution"])


def _index_function(spec: dict, b, space: MeasureSpace) -> IndexFunction:
    """phi of f = phi(b) v: phi* = 1/d_b for reciprocal_measure, else the family."""
    try:
        if spec["family"] == "reciprocal_measure":
            return phi_star(b, space)
        return index_function_from_spec(spec)
    except Exception as exc:
        raise ConfigError(f"index_function: {exc}") from exc


def _deconvolution(p: dict, d: dict):
    prob = DeconvolutionProblem(kernel=p["kernel"], half_width=p["half_width"],
                                n=d["n_nodes"], sigma=p["sigma"])
    return prob.multiplier, prob.freq_space


_NODES = {"n_nodes": (2**14, int, 2)}


def _grid(radius: float) -> dict:
    """A truncated grid's discretization fields: nodes and radius."""
    return {**_NODES, "truncation_radius": (radius, float)}


# problem kind -> (its own fields, the discretization fields it reads,
# builder(problem fields read, discretization fields read) -> (multiplier,
# space))
_BUILDERS = {
    # the 1/j sequence on n_max nodes, or one node per b_values entry
    "counting": ({"b_values": (None, list, 1), "n_max": (500, int)}, {},
                 lambda p, d: compact_case(
        p["b_values"], p["n_max"] if p["b_values"] is None else None)),
    "power_decay": ({"kappa": (1.0, float)}, _grid(50.0),
                    lambda p, d: power_decay_pair(
        p["kappa"], d["truncation_radius"], d["n_nodes"])),
    "pure_power": ({"kappa": (1.0, float)}, {**_NODES, "graded": (False, bool)},
                   lambda p, d: pure_power_pair(p["kappa"], d["n_nodes"],
                                                graded=d["graded"])),
    "plateau": ({}, _grid(50.0), lambda p, d: plateau_pair(
        d["truncation_radius"], d["n_nodes"])),
    "exp_decay": ({}, _grid(30.0), lambda p, d: exp_decay_pair(
        d["truncation_radius"], d["n_nodes"])),
    "fvp_whole_space": ({"c": (1.0, float), "tau": (1.0, float)}, _grid(8.0),
                        lambda p, d: fvp_multiplier(FinalValueProblem(
        "whole_space", c=p["c"], tau=p["tau"],
        radius=d["truncation_radius"], n_grid=d["n_nodes"]))),
    "fvp_bounded": ({"c": (1.0, float), "tau": (1.0, float), "n_max": (64, int),
                     "eigenvalues": (None, list, 2), "exponent_power": (2, int)},
                    {}, lambda p, d: fvp_multiplier(FinalValueProblem(
        "bounded_domain", c=p["c"], tau=p["tau"], n_max=p["n_max"],
        eigenvalues=p["eigenvalues"] and tuple(p["eigenvalues"]),
        exponent_power=p["exponent_power"]))),
    "deconvolution": ({"kernel": ("exponential", tuple(_KERNELS)),
                       "half_width": (40.0, float), "sigma": (1.0, float)},
                      _NODES, _deconvolution),
    "tabulated": ({"file": (..., str), "space": ("halfline", tuple(_SPACE_KINDS)),
                   "tail_vanishes": (True, bool)},
                  {}, lambda p, d: _tabulated_from_file(p)),
}
PROBLEM_KINDS = tuple(_BUILDERS)
# fields every problem kind reads: the kind and the true solution
_SHARED = {"kind": (..., PROBLEM_KINDS),
           "element": (None, tuple(_SOURCE_ELEMENTS)),
           "solution_file": (None, str), "solution_values": (None, list)}
# problem keys of which a config gives at most one (null is not given):
# b_values sets the node count itself, the true solution has one source
_EXCLUSIVE = (("b_values", "n_max"),
              ("solution_file", "solution_values", "element"))


def build_problem(config: ExperimentConfig) -> MultiplicationProblem:
    """Instantiate the multiplier, space, index function and true solution."""
    p = config.problem
    kind = p["kind"]
    try:
        b, space = _BUILDERS[kind][2](p, config.discretization)
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
    nodes, values = read_table(p["file"])
    kind = _SPACE_KINDS[p["space"]]
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
    return Tabulated(values, tail_vanishes=p["tail_vanishes"]), space


def _solution_on(b, space: MeasureSpace, p: dict,
                 phi: IndexFunction) -> tuple[np.ndarray, float]:
    """True solution and its source-element norm.

    The solution comes from a two-column file, explicit values, or a
    source condition f = phi(b) v with a named element (normalized, then
    clipped to phi's validity window); file- and value-based solutions
    report source scale 1.
    """
    for key in ("solution_file", "solution_values"):  # at most one is given
        if p[key] is not None:
            f = read_table(p[key])[1] if key == "solution_file" else np.array(p[key])
            if f.shape != space.weights.shape:
                raise ConfigError(f"problem.{key}: not aligned with the space")
            return f, 1.0
    default_element = "inverse_sqrt" if space.kind == "counting" else "constant"
    v = source_element_vector(p["element"] or default_element, space.weights.size)
    v /= space.norm(v)
    vals = b.values_on(space)
    lo, hi = phi.domain
    v[~((vals > lo) & (vals <= hi))] = 0.0
    scale = float(space.norm(v))  # before f, so that its square is not live
    return _source_on(v, vals, phi, out=v), scale  # v's zeros are +0.0
