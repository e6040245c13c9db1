"""Command line front end.

Subcommands wrap the library one-to-one: ``run``/``rates`` execute the
config's full pipeline, ``rearrange`` dumps distribution and
rearrangement tables, ``dalpha`` the effective ill-posedness profile with
its simple upper bound, ``check-scheme`` certifies axioms and
qualification, ``reconstruct`` writes one reconstruction as two-column
text.  Each subcommand accepts only the options it reads; argparse
refuses any other with exit code 2.

Exit codes: 0 success, 2 config error, 3 invariant/bound violation,
4 divergent problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import runner
from .analysis import choose_alpha, effective_illposedness, reconstruct
from .config import build_problem, load_config
from .errors import (ConfigError, Divergent, MultRegError,
                     RearrangementUndefined, RequiresFiniteMeasure)
from .noise import WhiteNoiseSampler, sample_white
from .rearrangement import (decreasing_rearrangement, distribution_function,
                            increasing_rearrangement)
from .runner import (EXIT_CONFIG, EXIT_DIVERGENT, EXIT_OK, EXIT_VIOLATION,
                     write_table)
from .schemes import certify, scheme_by_name


def cmd_run(config, args) -> int:
    report = runner.run(config, out_dir=args.out, threads=args.threads,
                        out_format=args.format)
    if report.failure:
        print(f"failure ({report.status}): {report.failure}")
    else:
        slope = "n/a" if report.fitted_slope is None else f"{report.fitted_slope:.4f}"
        print(f"{report.mode} study with {report.scheme}: "
              f"{len(report.rows)} deltas, violations={report.violations}, "
              f"fitted slope={slope}")
    return report.exit_code


def cmd_rearrange(config, args) -> int:
    problem = build_problem(config)
    b, space = problem.b, problem.space
    out, fmt = Path(args.out or config.out_dir), args.format or config.out_format
    sup = float(b.sup_bound)
    ts = np.geomspace(sup * 1e-6, sup, 64)
    write_table(out / f"distribution.{fmt}", ("t", "d_b"),
                zip(ts, distribution_function(b, space, ts)))
    dec = decreasing_rearrangement(b, space)
    write_table(out / f"decreasing_rearrangement.{fmt}",
                ("t_left", "t_right", "value"), dec.cells())
    try:
        inc = increasing_rearrangement(b, space)
        write_table(out / f"increasing_rearrangement.{fmt}",
                    ("t_left", "t_right", "value"), inc.cells())
    except RequiresFiniteMeasure:
        print("increasing rearrangement skipped (infinite measure)")
    print(f"rearrangement tables written to {out}")
    return EXIT_OK


def cmd_dalpha(config, args) -> int:
    problem = build_problem(config)
    profile = effective_illposedness(problem.b, problem.space)
    out = Path(args.out or config.out_dir)
    rows = list(zip(profile.alpha_grid, profile.d_values, profile.upper_bounds))
    write_table(out / f"dalpha.{args.format or config.out_format}",
                ("alpha", "D", "upper_bound"), rows)
    print(f"D(alpha) profile ({len(rows)} points) written to {out}")
    return EXIT_OK


def cmd_check_scheme(config, args) -> int:
    phi = build_problem(config).phi
    scheme = scheme_by_name(config.scheme)
    ok, cert = certify(scheme, phi)
    print(f"axioms({scheme.name}): {'PASS' if ok else 'FAILED'}")
    status = "PASS" if cert.passed else "FAILED"
    print(f"qualification({phi.name}): {status} (C_phi estimate {cert.c_phi:.6g})")
    return EXIT_OK if (ok and cert.passed) else EXIT_VIOLATION


def cmd_reconstruct(config, args) -> int:
    problem = build_problem(config)
    b, space, f = problem.b, problem.space, problem.f_true
    scheme = scheme_by_name(config.scheme)
    delta = config.deltas[0] if config.deltas else 0.0
    if config.alpha is not None:
        alpha = config.alpha
    elif not config.deltas:
        raise ConfigError("reconstruct: set 'alpha' or give a noise level in "
                          "noise.deltas to choose it from")
    else:
        alpha = choose_alpha(problem, problem.phi, delta, config.mode)
    vals = b.values_on(space)
    g = vals * f
    out, nodes = Path(args.out or config.out_dir), space.nodes
    if delta > 0:
        xi = sample_white(WhiteNoiseSampler(
            config.seed, distribution=config.noise_distribution), space)
        g = g + delta * xi
        write_table(out / "noise.txt", ("node", "xi"), zip(nodes, xi))
    estimate = reconstruct(scheme, alpha, b, space, g)
    write_table(out / "reconstruction.txt", ("node", "estimate"),
                zip(nodes, np.real(estimate)))
    err = space.norm(f - estimate)
    print(f"alpha={alpha:.6g} delta={delta:.6g} error={err:.6g} -> {out}")
    return EXIT_OK


# option -> its argparse settings
_OPTIONS = {
    "--out": {"default": None, "help": "output directory"},
    "--seed": {"type": int, "default": None, "help": "override the config seed"},
    "--threads": {"type": int, "default": 1,
                  "help": "parallel workers over Monte Carlo replications"},
    "--format": {"choices": ("csv", "json"), "default": None,
                 "help": "output table format"},
}
_STUDY = ("--out", "--seed", "--threads", "--format")

# subcommand -> (handler, help text, the options it reads besides --config)
_COMMANDS = {
    "run": (cmd_run, "execute the configured experiment pipeline", _STUDY),
    "rates": (cmd_run, "alias of run: full rate study", _STUDY),
    "rearrange": (cmd_rearrange,
                  "dump distribution function and rearrangement tables",
                  ("--out", "--format")),
    "dalpha": (cmd_dalpha, "dump the effective ill-posedness profile D(alpha)",
               ("--out", "--format")),
    "check-scheme": (cmd_check_scheme, "certify scheme axioms and qualification",
                     ()),
    "reconstruct": (cmd_reconstruct,
                    "write a single reconstruction as two-column text",
                    ("--out", "--seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multreg",
        description="Spectral regularization experiments for multiplication "
                    "operator equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML config")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=vars(args).get("seed"))
        return _COMMANDS[args.command][0](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (Divergent, RearrangementUndefined) as exc:
        print(f"divergent problem: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except MultRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
