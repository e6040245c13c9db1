"""Batch pipeline: build problem, certify, sweep deltas, emit tables.

All emitted files are byte-deterministic for a fixed config and seed:
floats are written with 17 significant digits and '.' decimal separator,
rows in delta order, JSON with sorted keys, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import sweep_deltas
from .config import ExperimentConfig, build_problem
from .errors import Divergent, MultRegError, RearrangementUndefined
from .schemes import require_certified, scheme_by_name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_DIVERGENT = 4

CSV_COLUMNS = ("delta", "alpha_star", "empirical_error", "stderr", "bias",
               "variance_term", "bound", "violated")


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _row_values(rows):
    return [(r.delta, r.alpha_star, r.error, r.stderr, r.bias,
             r.variance_term, r.bound, int(r.violated)) for r in rows]


@dataclass(frozen=True)
class ExperimentReport:
    """Per-delta rows plus fitted rates and provenance."""

    mode: str
    scheme: str
    config_digest: str
    seed: int
    rows: tuple = ()
    fitted_slope: float | None = None
    theoretical_slope: float | None = None
    c_phi: float | None = None
    violations: int = 0
    status: str = "ok"          # ok | violation | divergent
    failure: str | None = None
    exit_code: int = EXIT_OK

    def to_dict(self) -> dict:
        """Every field but the exit code, with the rows keyed by column."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "exit_code"}
        out["rows"] = [dict(zip(CSV_COLUMNS, row)) for row in _row_values(self.rows)]
        return out


def _to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=float) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # a new file, not a truncated one: ext4 forces a truncated file's data
    # to disk when it is closed, which made reruns into one directory slow
    try:
        path.unlink(missing_ok=True)
    except PermissionError:  # the directory is read-only: rewrite in place
        pass
    path.write_text(text, encoding="ascii", newline="\n")


def write_table(path, header, rows) -> None:
    """Write ``rows`` under ``header``: a list of records keyed by ``header``
    to a ``.json`` path, otherwise CSV with every value through ``fmt``."""
    path = Path(path)
    if path.suffix == ".json":
        text = _to_json([dict(zip(header, row)) for row in rows])
    else:
        lines = [",".join(header)]
        lines += [",".join(fmt(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(path, text)


def write_report(report: ExperimentReport, out_dir, out_format: str = "csv") -> None:
    out_dir = Path(out_dir)
    write_table(out_dir / f"rows.{out_format}", CSV_COLUMNS,
                _row_values(report.rows))
    _write(out_dir / "report.json", _to_json(report.to_dict()))


def failure_kind(exc: MultRegError) -> tuple[int, str, str]:
    """(exit code, status in report.json, prefix on the CLI's stderr) of a
    failure: 4 where the problem diverges or b's rearrangement is
    undefined, 3 for any other."""
    if isinstance(exc, (Divergent, RearrangementUndefined)):
        return EXIT_DIVERGENT, "divergent", "divergent problem"
    return EXIT_VIOLATION, "violation", "error"


def run(config: ExperimentConfig, out_dir=None, threads: int = 1,
        out_format: str | None = None) -> ExperimentReport:
    """Execute the full pipeline and write rows + report.

    Divergent problems and undefined rearrangements surface as a
    structured failure report with exit code 4, certification failures
    and bound violations as exit code 3; they do not raise.
    """
    problem = build_problem(config)
    scheme = scheme_by_name(config.scheme)

    def finish(**outcome):
        report = ExperimentReport(mode=config.mode, scheme=scheme.name,
                                  config_digest=config.digest, seed=config.seed,
                                  **outcome)
        write_report(report, out_dir or config.out_dir,
                     out_format or config.out_format)
        return report

    try:
        cert = require_certified(scheme, problem.phi)
        study = sweep_deltas(problem, scheme, problem.phi,
                             sorted(config.deltas, reverse=True), config.mode,
                             cert.c_phi, n_reps=config.replications,
                             seed=config.seed, threads=threads,
                             distribution=config.noise_distribution)
    except MultRegError as exc:
        code, status, _ = failure_kind(exc)
        return finish(status=status, failure=str(exc), exit_code=code)

    violations = study.violations
    return finish(rows=study.rows, fitted_slope=study.fitted_slope,
                  theoretical_slope=study.theoretical_slope, c_phi=cert.c_phi,
                  violations=violations,
                  status="violation" if violations else "ok",
                  exit_code=EXIT_VIOLATION if violations else EXIT_OK)
