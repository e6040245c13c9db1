"""Benchmark of multreg: four workloads, their outputs checked.

    python3 benchmarks/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src``;
nothing needs installing.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` measures the per-layer metrics from
passes with spans around the calls into each module (see tracing.py).
A table of the metrics goes to standard output, followed by one JSON
line; the full record, with the machine it ran on, goes to
``benchmarks/out/``.  ``--smoke`` runs the same code at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from statistics import median

import specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# every run ends within this many seconds, or fails
DEADLINE_S = 175.0


class BenchError(Exception):
    """The benchmark could not measure (not a failed output check)."""


def _child(args: list, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def machine() -> dict:
    """nproc, CPU model and caches, interpreter and library versions."""
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}
    for package in ("numpy", "scipy", "PyYAML"):
        try:
            info[package] = version(package)
        except PackageNotFoundError:
            info[package] = None
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True,
                               timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    info["note"] = (
        "The largest arrays hold 2^20 float64 values (8 MiB), far below 4x "
        "the last-level cache, so no figure here is a memory-bandwidth "
        "measurement. Counts are computed from array sizes.")
    return info


def run_workload(name: str, args, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"work-{name}-{args.seed}-{os.getpid()}"
    common = ["--workload", name, "--work", str(work)] + (
        ["--smoke"] if args.smoke else [])
    try:
        specs.write_configs(name, args.seed, args.smoke, work)
        setup = [] if args.trace else [
            _child(["setup", *common], env, deadline)["setup_s"]
            for _ in range(specs.SETUP_PROBES[args.smoke])]
        res = _child(["work", *common, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, deadline)
        trace_file = None
        if args.trace:
            trace_file = OUT / f"trace-{name}-seed{args.seed}.json"
            shutil.move(work / "spans.json", trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {**specs.END_TO_END, **specs.LAYER_METRICS, **specs.WORKLOAD_METRICS}
    extra = {**res["workload_metrics"],
             "failed_frac": res["failed"] / res["attempted"]}
    if args.trace:
        sent = shown = {**res["layer"], **dict.fromkeys(specs.WORKLOAD_METRICS, 0.0),
                        **extra}
        title = f"{name}: per-layer metrics (median over traced passes)"
    else:
        sent = {"setup_s": median(setup), "run_s": res["run_s"],
                "peak_rss_mb": res["peak_rss_mb"]}
        # the rest is shown here and sent with --trace 1
        shown = {**sent, **extra}
        title = (f"{name}: end-to-end metrics ({len(res['pass_walls'])} passes, "
                 f"{len(setup)} set-ups)")
    lines = [title]
    for key, value in shown.items():
        unit, better = units[key]
        lines.append(f"  {key:42s} {value:14.6g} {unit:6s} ({better} is better)")
    lines.append(f"  operations: {res['attempted']} attempted, {res['failed']} failed")
    lines += [f"  FAILED {f}" for f in res["failures"]]
    print("\n".join(lines), flush=True)

    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": machine(),
              "metrics": {k: {"value": v, "unit": units[k][0], "better": units[k][1]}
                          for k, v in shown.items()},
              "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"], "setup_samples": setup,
              "pass_walls": res["pass_walls"],
              "traced_pass_walls": res.get("traced_pass_walls"),
              "trace_file": str(trace_file) if trace_file else None,
              "digests_for_information": res["digests"],
              "checks_for_information": res["checks"]}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k][0]}
                        for k, v in sent.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*specs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multreg" / "__init__.py").is_file():
        print(f"error: no multreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    names = specs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args, env) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line, = results.values()
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{k}": v for name, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
