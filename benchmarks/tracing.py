"""Spans around the calls into multreg's modules, for the traced run.

``instrumented`` replaces every binding of the functions in ``TRACED``
inside the loaded ``multreg`` modules with a wrapper that records a span
``<module>.<function>`` (start, end, parent span, run id) and, for some
functions, counts computed from the call's arrays.  The pipeline itself
is unchanged: the traced pass calls the same code as the untraced one and
must write the same rows.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import specs

# span name -> (defining module, function)
TRACED = {
    "config.load_config": ("multreg.config", "load_config"),
    "config.build_problem": ("multreg.config", "build_problem"),
    "smoothness.phi_star": ("multreg.smoothness", "phi_star"),
    "schemes.certify_axioms": ("multreg.schemes", "certify_axioms"),
    "schemes.certify_qualification": ("multreg.schemes", "certify_qualification"),
    "rearrangement.distribution_function": ("multreg.rearrangement",
                                            "distribution_function"),
    "rearrangement.decreasing_rearrangement": ("multreg.rearrangement",
                                               "decreasing_rearrangement"),
    "rearrangement.increasing_rearrangement": ("multreg.rearrangement",
                                               "increasing_rearrangement"),
    "rearrangement.piecewise_bounds": ("multreg.rearrangement",
                                       "piecewise_rearrangement_bounds"),
    "analysis.effective_illposedness": ("multreg.analysis", "effective_illposedness"),
    "analysis.choose_alpha": ("multreg.analysis", "choose_alpha_white"),
    "analysis.choose_alpha_deterministic": ("multreg.analysis",
                                            "choose_alpha_deterministic"),
    "analysis.variance_integral": ("multreg.analysis", "variance_integral"),
    "analysis.monte_carlo_rms": ("multreg.analysis", "monte_carlo_rms"),
    "analysis.evaluate_delta": ("multreg.analysis", "evaluate_delta"),
    "analysis.evaluate_deterministic": ("multreg.analysis", "evaluate_deterministic"),
    "noise.sample_white": ("multreg.noise", "sample_white"),
    "gallery.periodic_convolve": ("multreg.gallery", "periodic_convolve"),
    "gallery.to_frequency": ("multreg.gallery", "to_frequency"),
    "gallery.from_frequency": ("multreg.gallery", "from_frequency"),
    "gallery.lavrentiev_deconvolve": ("multreg.gallery", "lavrentiev_deconvolve"),
    "runner.write_report": ("multreg.runner", "write_report"),
    "runner.run": ("multreg.runner", "run"),
}

# both a-priori choices are one layer
_SPAN_ALIASES = {"analysis.choose_alpha_deterministic": "analysis.choose_alpha"}


# A span is a tuple (plain tuples of numbers and strings escape the cyclic
# garbage collector, which matters at one span per replication).
FIELDS = ("id", "name", "start", "end", "parent", "run", "thread", "threads")
ID, NAME, START, END, PARENT, RUN, THREAD, THREADS = range(len(FIELDS))


class Tracer:
    """In-memory spans and counts of one process; thread-safe."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run_counts = {}
        self.run_id = None
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def open(self):
        """Start a span: (id, parent) with the thread's innermost span as parent."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        return span_id, parent

    def close(self, span_id, parent, name, start, threads=None):
        self._local.stack.pop()
        self.spans.append((span_id, name, start, time.perf_counter(), parent,
                           self.run_id, threading.get_ident(), threads))

    @contextmanager
    def span(self, name):
        span_id, parent = self.open()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.close(span_id, parent, name, start)

    @contextmanager
    def run(self, run_id):
        """All spans and counts inside belong to ``run_id``, under one root span."""
        self.run_id = run_id
        self.counts = defaultdict(float)
        with self.span("pass") as root:
            self.root = root
            try:
                yield
            finally:
                self.root = None
                self.run_counts[run_id] = dict(self.counts)

    def dump(self, path):
        Path(path).write_text(json.dumps(
            {"fields": FIELDS, "spans": self.spans, "counts": self.counts}))

    def merge(self, path, extra_counts):
        """Adopt the spans and counts another process dumped, into this run."""
        data = json.loads(Path(path).read_text())
        ids = {span[ID]: next(self._ids) for span in data["spans"]}
        for span in data["spans"]:
            self.spans.append((ids[span[ID]], span[NAME], span[START], span[END],
                               ids.get(span[PARENT], self.root), self.run_id,
                               span[THREAD], span[THREADS]))
        for key, value in {**data["counts"], **extra_counts}.items():
            self.add(key, value)


def _qualification_probes(cert) -> int:
    """(alpha, t) evaluations of certify_qualification, from its grids."""
    lo, hi = cert.phi.domain

    def count(alphas, ts):
        n_t = int(np.sum((ts > lo) & (ts <= hi)))
        return int(np.sum(n_t + ((alphas > lo) & (alphas <= hi))))

    alphas, ts = cert.alpha_grid, cert.t_grid
    fine = np.geomspace(alphas[0] / 10.0, alphas[-1], 2 * alphas.size)
    fine = fine[(fine > lo) & (fine <= hi)]
    t_fine = np.geomspace(ts[0], min(ts[-1] * 10.0, 1e12), 2 * ts.size)
    return count(alphas, ts) + count(fine, t_fine)


# Counters take the tracer, a callable returning the call's arguments by
# name (binding costs more than the span on the per-replication path) and
# the result.

def _count_draws(tracer, arguments, result):
    tracer.add("draws", result.size)


def _count_probes(tracer, arguments, result):
    tracer.add("qualification_probes", _qualification_probes(result))


def _count_support(tracer, arguments, result):
    """Node draws of a Monte Carlo call, and those where the filter is nonzero."""
    args = arguments()
    scheme, alpha, b, space = (args[k] for k in ("scheme", "alpha", "b", "space"))
    phi_v = scheme.phi(alpha, b.values_on(space))
    tracer.add("support_draws", np.count_nonzero(phi_v) * args["n_reps"])
    tracer.add("mc_draws", phi_v.size * args["n_reps"])


def _count_bytes(tracer, arguments, result):
    args = arguments()
    rows = "rows.csv" if args["out_format"] == "csv" else "rows.json"
    tracer.add("bytes_written", sum(
        os.path.getsize(os.path.join(args["out_dir"], name))
        for name in (rows, "report.json")))


_COUNTERS = {
    "noise.sample_white": _count_draws,
    "schemes.certify_qualification": _count_probes,
    "analysis.monte_carlo_rms": _count_support,
    "runner.write_report": _count_bytes,
}


def _wrap(tracer, name, fn):
    counter = _COUNTERS.get(name)
    signature = inspect.signature(fn)
    span_name = _SPAN_ALIASES.get(name, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        def arguments():
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        threads = arguments()["threads"] if name == "runner.run" else None
        span_id, parent = tracer.open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span_id, parent, span_name, start, threads)
        if counter is not None:
            counter(tracer, arguments, result)
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Route every call of a ``TRACED`` function through a span wrapper."""
    originals = {}
    for name, (module, attr) in TRACED.items():
        fn = getattr(importlib.import_module(module), attr)
        originals[id(fn)] = _wrap(tracer, name, fn)
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "multreg" and not mod_name.startswith("multreg."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def _t2_efficiency(spans):
    """Busy time of the deltas at threads=1 over 2 x their wall at threads=2."""
    def deltas_within(run):
        return [s for s in spans if s[NAME] == "analysis.evaluate_delta"
                and run[START] <= s[START] <= run[END]]

    runs = {s[THREADS]: s for s in spans if s[NAME] == "runner.run"}
    if 1 not in runs or 2 not in runs:
        return 0.0
    busy = sum(s[END] - s[START] for s in deltas_within(runs[1]))
    par = deltas_within(runs[2])
    wall = max(s[END] for s in par) - min(s[START] for s in par)
    return busy / (2.0 * wall)


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass (see specs.LAYER_METRICS)."""
    busy, calls = defaultdict(float), Counter()
    for span in spans:
        busy[span[NAME]] += span[END] - span[START]
        calls[span[NAME]] += 1
    out = {name: busy[name[:-2]] for name in specs.LAYER_METRICS
           if name.endswith("_s")}
    draws = counts.get("mc_draws", 0.0)
    out.update({
        "import.multreg_s": counts.get("import.multreg_s", 0.0),
        "import.scipy_optimize_s": counts.get("import.scipy_optimize_s", 0.0),
        "schemes.qualification_probes": counts.get("qualification_probes", 0.0),
        "smoothness.phi_star_calls": calls["smoothness.phi_star"],
        "noise.draws": counts.get("draws", 0.0),
        "analysis.mc_reduction_s": (busy["analysis.monte_carlo_rms"]
                                    - busy["noise.sample_white"]),
        "analysis.filter_support_frac": (counts.get("support_draws", 0.0) / draws
                                         if draws else 0.0),
        "runner.t2_efficiency": _t2_efficiency(spans),
        "runner.bytes_written": counts.get("bytes_written", 0.0),
    })
    return out
