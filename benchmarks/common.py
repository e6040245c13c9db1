"""Operation accounting and the shipped-CLI workload.

A pass is a closed loop: one operation at a time (one CLI call, one
study, one calculus call), except the 2-worker pool of a ``threads=2``
study.  Every operation goes through ``Ledger.op``; it fails on an
exception, an unexpected exit code or a failed output check.  Output
checks tolerate deliberate changes of output bytes: digests are recorded
for information and only compared between passes of one run, which must
write the same bytes.

This module imports neither numpy nor multreg: the CLI workload runs in a
process that stays small, because a child started with fork carries the
parent's resident size into its own peak.
"""

from __future__ import annotations

import hashlib
import math
import re
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import specs

# cli gate on the noise-free backward-heat reconstruction
RECONSTRUCT_TOL = 1e-12
CLI_TIMEOUT_S = 120


class PassAborted(Exception):
    """An operation raised; the rest of the pass depends on its result."""


class Ledger:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._problems = None

    @contextmanager
    def op(self, name):
        self.attempted += 1
        self._problems = []
        try:
            yield
        except Exception as exc:
            self._problems.append(f"{type(exc).__name__}: {exc}")
            raise PassAborted(name) from exc
        finally:
            if self._problems:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{name}: {'; '.join(self._problems)}")
            self._problems = None

    def check(self, ok, what):
        if not ok:
            self._problems.append(what)


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Holds the inputs of a run; ``run_pass`` performs one pass."""

    def __init__(self, work: Path, seed: int, smoke: bool, paths: dict):
        self.work, self.seed, self.smoke = work, seed, smoke
        self.paths = paths
        self.digests = {}
        self.info = {}  # checked statistics, recorded for information

    def same_bytes(self, ledger, name, path):
        """Record the digest; every pass of a run must write the same bytes."""
        value = digest(path)
        first = self.digests.setdefault(name, value)
        ledger.check(value == first, f"{name} differs from the first pass")

    def metrics(self, passes) -> dict:
        """Workload-specific end-to-end metrics from the untraced passes."""
        return {}

    def peak_rss_kb(self) -> int:
        """Peak RSS of the process that runs the program's calls."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# shipped CLI calls, each in a fresh interpreter

_ERROR = re.compile(r"error=(\S+)")
_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$")
_IMPORT_METRICS = {"multreg": "import.multreg_s",
                   "scipy.optimize": "import.scipy_optimize_s"}


def import_times(stderr: str) -> dict:
    """Cumulative import seconds of multreg and of the scipy.optimize it
    pulls in, from the output of ``python -X importtime``."""
    out = dict.fromkeys(_IMPORT_METRICS.values(), 0.0)
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2).strip() in _IMPORT_METRICS:
            out[_IMPORT_METRICS[m.group(2).strip()]] = int(m.group(1)) / 1e6
    return out


class CliShipped(Workload):
    def __init__(self, *args, child=None, tracer=None):
        super().__init__(*args)
        self.child = child
        self.tracer = tracer

    def _argv(self, name):
        command, _ = specs.SHIPPED[name]
        return [command, "--config", str(self.paths[name]), "--seed",
                str(self.seed), "--out", str(self.work / name)]

    def run_pass(self, ledger, timings, traced):
        for name in specs.SHIPPED:
            argv = self._argv(name)
            spans = self.work / f"{name}.spans.json"
            if traced:
                cmd = [sys.executable, "-X", "importtime", str(self.child),
                       "cli", "--spans", str(spans), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "multreg.cli", *argv]
            with ledger.op(f"cli_{name}"):
                start = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
                timings[name] = time.perf_counter() - start
                ledger.check(proc.returncode == 0,
                             f"exit {proc.returncode}: {proc.stderr[-300:]}")
                self._check_outputs(ledger, name, proc.stdout)
                if traced:
                    self.tracer.merge(spans, import_times(proc.stderr))

    def _check_outputs(self, ledger, name, stdout):
        out = self.work / name
        files = ("reconstruction.txt",) if name == "backward_heat" \
            else ("rows.csv", "report.json")
        for fname in files:
            exists = (out / fname).is_file()
            ledger.check(exists, f"{fname} missing")
            if exists:
                self.same_bytes(ledger, f"{name}/{fname}", out / fname)
        if name == "backward_heat":
            m = _ERROR.search(stdout)
            err = float(m.group(1)) if m else math.inf
            ledger.check(err <= RECONSTRUCT_TOL, f"reconstruct error {err:.3g}")

    def metrics(self, passes):
        return {f"cli_{name}_s": median(p["timings"][name] for p in passes)
                for name in specs.SHIPPED}

    def peak_rss_kb(self):
        # the CLI children run the program; this process only waits
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
