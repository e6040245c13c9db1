"""Workload definitions: generated configs, sizes and metric tables.

This module imports only the standard library and PyYAML, so the light
parent process (``run.py``) can write the configs without paying for the
numpy/scipy import that the measured child processes pay.
"""

from __future__ import annotations

from pathlib import Path

# Half-decade steps from 1e-2 to 1e-6, written as in configs/white_counting.yaml.
DELTAS = [1.0e-2, 3.1623e-3, 1.0e-3, 3.1623e-4, 1.0e-4,
          3.1623e-5, 1.0e-5, 3.1623e-6, 1.0e-6]

# Replication r of delta k draws from stream 100_000 * (k + 1) + r, so
# streams of different deltas stay disjoint only below this count.
STREAM_STRIDE = 100_000

SHIPPED = {
    "white_counting": ("run", "configs/white_counting.yaml"),
    "det_counting": ("run", "configs/deterministic_counting.yaml"),
    "backward_heat": ("reconstruct", "configs/backward_heat.yaml"),
}

WORKLOADS = ("cli_shipped", "white_large", "white_small", "calculus")

# Sizes of the measured workloads and of the smoke mode that the
# benchmark's own tests run (same code paths, tiny arrays).
SIZES = {
    False: {"large_nodes": 2**17, "large_reps": 200,
            "small_nodes": 500, "small_reps": 4000,
            "calculus_nodes": 2**20},
    True: {"large_nodes": 2**12, "large_reps": 40,
           "small_nodes": 500, "small_reps": 60,
           "calculus_nodes": 2**12},
}

# setup_s is the median over this many fresh interpreters.
SETUP_PROBES = {False: 3, True: 1}

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Metrics a user sees on some workloads only.  They are printed with the
# end-to-end table and sent with the per-layer metrics (0 where the
# workload does not define them).
WORKLOAD_METRICS = {
    "node_reps_per_s": ("1/s", "higher"),
    "node_reps_per_s_t2": ("1/s", "higher"),
    "cli_white_counting_s": ("s", "lower"),
    "cli_det_counting_s": ("s", "lower"),
    "cli_backward_heat_s": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
}

# Per-layer metrics of the traced run.  A ``_s`` metric is the busy time
# per pass inside spans of that name, summed over threads; counts are
# computed from array sizes.
LAYER_METRICS = {
    "import.multreg_s": ("s", "lower"),
    "import.scipy_optimize_s": ("s", "lower"),
    "config.load_config_s": ("s", "lower"),
    "config.build_problem_s": ("s", "lower"),
    "schemes.certify_axioms_s": ("s", "lower"),
    "schemes.certify_qualification_s": ("s", "lower"),
    "schemes.qualification_probes": ("count", "lower"),
    "rearrangement.distribution_function_s": ("s", "lower"),
    "rearrangement.decreasing_rearrangement_s": ("s", "lower"),
    "rearrangement.increasing_rearrangement_s": ("s", "lower"),
    "rearrangement.piecewise_bounds_s": ("s", "lower"),
    "smoothness.phi_star_s": ("s", "lower"),
    "smoothness.phi_star_calls": ("count", "lower"),
    "analysis.effective_illposedness_s": ("s", "lower"),
    "analysis.choose_alpha_s": ("s", "lower"),
    "analysis.variance_integral_s": ("s", "lower"),
    "noise.sample_white_s": ("s", "lower"),
    "noise.draws": ("count", "lower"),
    "analysis.monte_carlo_rms_s": ("s", "lower"),
    "analysis.mc_reduction_s": ("s", "lower"),
    "analysis.filter_support_frac": ("ratio", "higher"),
    "analysis.evaluate_delta_s": ("s", "lower"),
    "runner.t2_efficiency": ("ratio", "higher"),
    "analysis.evaluate_deterministic_s": ("s", "lower"),
    "gallery.periodic_convolve_s": ("s", "lower"),
    "gallery.to_frequency_s": ("s", "lower"),
    "gallery.from_frequency_s": ("s", "lower"),
    "gallery.lavrentiev_deconvolve_s": ("s", "lower"),
    "runner.write_report_s": ("s", "lower"),
    "runner.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _white(problem: dict, disc: dict, reps: int, seed: int) -> dict:
    if reps >= STREAM_STRIDE:
        raise ValueError(f"{reps} replications would overlap noise streams")
    return {"problem": problem, "scheme": "truncated:cutoff",
            "index_function": {"family": "power", "nu": 1.0},
            "noise": {"mode": "white", "deltas": DELTAS,
                      "replications": reps},
            "discretization": disc, "seed": seed}


def _deterministic(problem: dict, scheme: str, index_function: dict,
                   n_nodes: int, seed: int) -> dict:
    return {"problem": problem, "scheme": scheme,
            "index_function": index_function,
            "noise": {"mode": "deterministic", "deltas": DELTAS},
            "discretization": {"n_nodes": n_nodes}, "seed": seed}


def generated_configs(workload: str, seed: int, smoke: bool) -> dict:
    """Config dicts the workload's program calls read, by name.

    Outputs go to directories the benchmark passes explicitly, so the
    config text, and with it the report digest, does not depend on where
    the checkout lives.
    """
    size = SIZES[smoke]
    if workload == "white_large":
        return {"white_large": _white(
            {"kind": "power_decay", "kappa": 0.5},
            {"n_nodes": size["large_nodes"], "truncation_radius": 50.0},
            size["large_reps"], seed)}
    if workload == "white_small":
        return {"white_small": _white(
            {"kind": "counting", "n_max": size["small_nodes"],
             "element": "inverse_sqrt"},
            {}, size["small_reps"], seed)}
    if workload == "calculus":
        n = size["calculus_nodes"]
        return {
            "deconvolution": _deterministic(
                {"kind": "deconvolution", "kernel": "exponential",
                 "half_width": 40.0},
                "truncated:lavrentiev", {"family": "reciprocal_measure"},
                n, seed),
            "pure_power": _deterministic(
                {"kind": "pure_power", "kappa": 1.5}, "lavrentiev",
                {"family": "power", "nu": 0.5}, n, seed),
        }
    if workload == "cli_shipped":
        return {}
    raise ValueError(f"unknown workload '{workload}'")


def config_paths(workload: str, root: Path, work: Path) -> dict:
    """Config files the workload reads, by name.

    The cli_shipped workload reads the shipped configs of the checkout,
    the others the files ``write_configs`` generates into ``work``.
    """
    if workload == "cli_shipped":
        return {name: root / rel for name, (_, rel) in SHIPPED.items()}
    return {name: work / f"{name}.yaml"
            for name in generated_configs(workload, 0, True)}


def write_configs(workload: str, seed: int, smoke: bool, work: Path) -> None:
    # imported here so that a set-up probe importing this module before
    # its clock starts does not pre-load a module that multreg imports
    import yaml

    work.mkdir(parents=True, exist_ok=True)
    for name, cfg in generated_configs(workload, seed, smoke).items():
        (work / f"{name}.yaml").write_text(yaml.safe_dump(cfg, sort_keys=True),
                                           encoding="ascii")
