"""White-noise and calculus workloads, with the checks on their outputs.

Library calls go through module attributes (``mr.run``, not a name bound
at import), so the traced pass reaches the span wrappers.
"""

from __future__ import annotations

import time
from dataclasses import astuple
from statistics import NormalDist, median

import numpy as np

import multreg as mr

import specs
from common import Workload

# white-noise gates
SLOPE_TOL = 0.05
FALSE_ALARM_PER_RUN = 1e-4
# calculus gates
REL_TOL = 1e-10


# ---------------------------------------------------------------------------
# white-noise studies

def oracle_z_scores(report, problem, scheme):
    """z = (rms^2 - oracle) / (2 rms stderr) for each row.

    oracle = bias^2 + delta^2 * sum(w phi^2) is the exact expected squared
    error of the estimator, since the noise is centred with unit variance.
    """
    vals = problem.b.values_on(problem.space)
    weights = problem.space.weights
    out = []
    for row in report.rows:
        phi_v = scheme.phi(row.alpha_star, vals)
        bias = problem.space.norm(scheme.residual(row.alpha_star, vals)
                                  * problem.f_true)
        oracle = bias**2 + row.delta**2 * float(np.sum(weights * phi_v**2))
        out.append((row.error**2 - oracle) / (2.0 * row.error * row.stderr))
    return out


def check_white_report(ledger, report, problem, scheme) -> dict:
    """Gate a white-noise report; return the checked statistics."""
    ledger.check(report.status == "ok" and report.exit_code == 0,
                 f"status {report.status}: {report.failure}")
    ledger.check(report.violations == 0, f"{report.violations} violations")
    gap = np.inf
    if report.fitted_slope is not None and report.theoretical_slope is not None:
        gap = abs(report.fitted_slope - report.theoretical_slope)
    ledger.check(gap <= SLOPE_TOL, f"slope gap {gap:.4g} > {SLOPE_TOL}")
    # two-sided, Bonferroni over the rows of the run's one seed
    z_max = NormalDist().inv_cdf(1.0 - FALSE_ALARM_PER_RUN / (2 * len(report.rows)))
    worst = max((abs(z) for z in oracle_z_scores(report, problem, scheme)),
                default=np.inf)
    ledger.check(worst <= z_max, f"oracle |z| = {worst:.3g} > {z_max:.3g}")
    return {"slope_gap": gap, "max_abs_z": worst, "z_limit": z_max}


class WhiteStudy(Workload):
    """``runner.run`` on one generated white-noise config, per thread count."""

    def __init__(self, *args, threads=(1,)):
        super().__init__(*args)
        (self.name, self.path), = self.paths.items()
        config = mr.load_config(self.path)
        self.problem = mr.build_problem(config)
        self.scheme = mr.scheme_by_name(config.scheme)
        self.node_reps = (self.problem.space.nodes.size * config.replications
                          * len(config.deltas))
        self.threads = threads

    def run_pass(self, ledger, timings, traced):
        with ledger.op("load_config"):
            config = mr.load_config(self.path)
        rows = {}
        for threads in self.threads:
            out = self.work / f"{self.name}_t{threads}"
            with ledger.op(f"study_t{threads}"):
                start = time.perf_counter()
                report = mr.run(config, out_dir=out, threads=threads)
                timings[f"study_t{threads}"] = time.perf_counter() - start
                self.info[f"t{threads}"] = check_white_report(
                    ledger, report, self.problem, self.scheme)
                rows[threads] = [astuple(r) for r in report.rows]
                ledger.check(rows[threads] == rows[self.threads[0]],
                             "rows depend on the thread count")
                for name in ("rows.csv", "report.json"):
                    self.same_bytes(ledger, f"t{threads}/{name}", out / name)

    def metrics(self, passes):
        out = {}
        for threads, key in ((1, "node_reps_per_s"), (2, "node_reps_per_s_t2")):
            if threads in self.threads:
                wall = median(p["timings"][f"study_t{threads}"] for p in passes)
                out[key] = self.node_reps / wall
        return out


# ---------------------------------------------------------------------------
# calculus: rearrangements, smoothness, gallery, deterministic analysis

def two_piece_multiplier():
    """Zeros of order 1 and 2; the flatter (order-2) piece dominates."""
    pieces = (mr.MonotonePiece(0.3, "increasing_right", mr.PowerIndex(1.0), 0.08),
              mr.MonotonePiece(0.7, "increasing_left", mr.PowerIndex(2.0), 0.08))
    return mr.PiecewiseMonotone(pieces, mr.BackgroundPart(0.8), hi=1.0)


def seeded_signal(t, rng):
    """A few Gaussian bumps with seeded centres, widths and heights."""
    x = np.zeros_like(t)
    for _ in range(4):
        centre, width = rng.uniform(-10.0, 10.0), rng.uniform(0.5, 3.0)
        x += rng.uniform(0.5, 2.0) * np.exp(-0.5 * ((t - centre) / width) ** 2)
    return x


def check_profile(ledger, profile):
    ok = np.all(profile.d_values <= profile.upper_bounds * (1 + 1e-12))
    ledger.check(bool(ok), "D(alpha) exceeds sqrt(d_b(alpha)) / alpha")


def check_total(ledger, rearrangement, space):
    """knots[-1] (a cumulative sum) equals sum(weights) up to summation error."""
    total = space.total_measure
    tol = space.nodes.size * np.finfo(float).eps * total
    ledger.check(abs(rearrangement.knots[-1] - total) <= tol,
                 f"knots[-1] = {float(rearrangement.knots[-1])!r} != {total!r}")


def relative_gap(a, b, space):
    return space.norm(np.asarray(a) - np.asarray(b)) / space.norm(b)


class Calculus(Workload):
    LAVRENTIEV_ALPHA = 1e-3
    NOISE = 1e-6  # per node; amplified at most 1/alpha-fold by the filter

    def __init__(self, *args):
        super().__init__(*args)
        n = specs.SIZES[self.smoke]["calculus_nodes"]
        self.deconvolution_args = {"kernel": "exponential", "half_width": 40.0,
                                   "n": n}
        rng = np.random.default_rng(self.seed)
        grid = mr.DeconvolutionProblem(**self.deconvolution_args).signal_space
        self.signal = seeded_signal(grid.nodes, rng)
        self.noise = rng.standard_normal(n)
        self.piecewise = two_piece_multiplier()

    def _study(self, ledger, config, name):
        out = self.work / name
        with ledger.op(f"study_{name}"):
            report = mr.run(config, out_dir=out)
            ledger.check(report.status == "ok" and report.violations == 0,
                         f"{name}: status {report.status}: {report.failure}")
            self.same_bytes(ledger, f"{name}/rows.csv", out / "rows.csv")
            self.same_bytes(ledger, f"{name}/report.json", out / "report.json")

    def run_pass(self, ledger, timings, traced):
        with ledger.op("load_config"):
            conf_a = mr.load_config(self.paths["deconvolution"])
            conf_b = mr.load_config(self.paths["pure_power"])
        # (a) exponential-kernel deconvolution, no closed-form d_b
        with ledger.op("build_problem"):
            problem = mr.build_problem(conf_a)
        b, space = problem.b, problem.space
        with ledger.op("distribution_function"):
            levels = np.geomspace(b.sup_bound * 1e-6, b.sup_bound, 64)
            d = mr.distribution_function(b, space, levels)
            ledger.check(bool(np.all(np.diff(d) <= 0) and d[0] <= space.total_measure),
                         "d_b not nonincreasing within the total measure")
        with ledger.op("decreasing_rearrangement"):
            check_total(ledger, mr.decreasing_rearrangement(b, space), space)
        with ledger.op("effective_illposedness"):
            check_profile(ledger, mr.effective_illposedness(b, space))
        with ledger.op("phi_star"):
            phi = mr.phi_star(b, space)
        scheme = mr.scheme_by_name(conf_a.scheme)
        with ledger.op("certify_axioms"):
            ledger.check(mr.certify_axioms(scheme), "axioms failed")
        with ledger.op("certify_qualification"):
            ledger.check(mr.certify_qualification(scheme, phi).passed,
                         "qualification failed")
        self._study(ledger, conf_a, "deconvolution")
        deconv = mr.DeconvolutionProblem(**self.deconvolution_args)
        with ledger.op("periodic_convolve"):
            y = mr.periodic_convolve(deconv, self.signal)
            ledger.check(bool(np.all(np.isfinite(y))), "convolution not finite")
        with ledger.op("to_frequency"):
            spectrum = mr.to_frequency(deconv, y)
            parseval = abs(deconv.freq_space.norm(spectrum)
                           / deconv.signal_space.norm(y) - 1.0)
            ledger.check(parseval <= REL_TOL, f"Parseval off by {parseval:.3g}")
        with ledger.op("from_frequency"):
            back = mr.from_frequency(deconv, spectrum)
            gap = relative_gap(back, y, deconv.signal_space)
            ledger.check(gap <= REL_TOL, f"round trip off by {gap:.3g}")
        with ledger.op("lavrentiev_deconvolve"):
            y_delta = y + self.NOISE * self.noise
            x_rec = mr.lavrentiev_deconvolve(deconv, y_delta, self.LAVRENTIEV_ALPHA)
            gap = relative_gap(x_rec, self.signal, deconv.signal_space)
            blurred = relative_gap(y_delta, self.signal, deconv.signal_space)
            ledger.check(gap < blurred, f"deconvolution error {gap:.3g} not "
                         f"below the blurred data's {blurred:.3g}")
        # (b) pure power on [0, 1]
        with ledger.op("build_problem"):
            problem = mr.build_problem(conf_b)
        b, space = problem.b, problem.space
        with ledger.op("increasing_rearrangement"):
            check_total(ledger, mr.increasing_rearrangement(b, space), space)
        with ledger.op("effective_illposedness"):
            check_profile(ledger, mr.effective_illposedness(b, space))
        self._study(ledger, conf_b, "pure_power")
        # (c) sandwich bounds of a fixed two-piece multiplier
        with ledger.op("piecewise_bounds"):
            bounds = mr.piecewise_rearrangement_bounds(self.piecewise)
            ledger.check(bounds.dominant_index == 1 and bounds.window > 0,
                         f"dominant piece {bounds.dominant_index}, "
                         f"window {bounds.window:.3g}")


def build(name, work, seed, smoke, paths):
    args = (work, seed, smoke, paths)
    if name == "white_large":
        return WhiteStudy(*args, threads=(1, 2))
    if name == "white_small":
        return WhiteStudy(*args)
    if name == "calculus":
        return Calculus(*args)
    raise ValueError(f"unknown workload '{name}'")
