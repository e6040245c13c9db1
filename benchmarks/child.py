"""Processes that ``run.py`` starts; each prints one JSON line.

    child.py setup --workload W --work DIR [--smoke]
        In this fresh interpreter: import multreg, parse the workload's
        configs and build their problems; print the elapsed seconds.
    child.py work --workload W --seed N --seconds S --trace T --work DIR [--smoke]
        Repeat passes of the workload until S seconds have passed.  With
        T = 1, passes alternate untraced and traced (spans installed).
    python -X importtime child.py cli --spans FILE -- <multreg arguments>
        One CLI call with spans installed; dumps them to FILE and exits
        with the CLI's exit code.

Everything beyond the standard library is imported inside functions, so
the set-up probe's clock covers multreg's whole import.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median

import specs

ROOT = Path(__file__).resolve().parent.parent
# A run makes at least two passes: the untraced median then rests on two
# or more, and a traced run has a traced pass and an untraced one.
MIN_PASSES = 2


def setup(args) -> dict:
    start = time.perf_counter()
    import multreg.config as config

    for path in specs.config_paths(args.workload, ROOT, args.work).values():
        config.build_problem(config.load_config(path))
    return {"setup_s": time.perf_counter() - start}


def _one_pass(workload, ledger, tracer, index):
    from common import PassAborted

    traced = tracer is not None and index % 2 == 1
    run_id = f"pass{index}"
    timings = {}
    complete = True
    start = time.perf_counter()
    try:
        if traced:
            from tracing import instrumented

            with tracer.run(run_id), instrumented(tracer):
                workload.run_pass(ledger, timings, traced)
        else:
            workload.run_pass(ledger, timings, traced)
    except PassAborted:
        complete = False
    return {"run": run_id, "traced": traced, "wall": time.perf_counter() - start,
            "timings": timings, "complete": complete}


def _workload(args, tracer):
    from common import CliShipped

    paths = specs.config_paths(args.workload, ROOT, args.work)
    if args.workload == "cli_shipped":
        # keeps this process small (no multreg import), see common.py
        return CliShipped(args.work, args.seed, args.smoke, paths,
                          child=Path(__file__).resolve(), tracer=tracer)
    import workloads

    return workloads.build(args.workload, args.work, args.seed, args.smoke, paths)


def work(args) -> dict:
    from common import Ledger

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    workload = _workload(args, tracer)
    ledger = Ledger()
    passes = []
    start = time.perf_counter()
    # a traced run ends on a traced pass, so each traced pass has an
    # untraced one to compare with
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < args.seconds
           or (args.trace and len(passes) % 2)):
        passes.append(_one_pass(workload, ledger, tracer, len(passes)))

    untraced = [p for p in passes if not p["traced"]]
    complete = [p for p in untraced if p["complete"]]
    result = {
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures,
        "pass_walls": [p["wall"] for p in untraced],
        "run_s": median(p["wall"] for p in untraced),
        "workload_metrics": workload.metrics(complete) if complete else {},
        "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
        "digests": workload.digests,
        "checks": workload.info,
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracing.layer_metrics(
            [s for s in tracer.spans if s[tracing.RUN] == p["run"]],
            tracer.run_counts[p["run"]]) for p in traced]
        layer = {key: median(m[key] for m in per_pass) for key in per_pass[0]}
        layer["trace.overhead_s"] = (median(p["wall"] for p in traced)
                                     - result["run_s"])
        result["layer"] = layer
        result["traced_pass_walls"] = [p["wall"] for p in traced]
        tracer.dump(args.work / "spans.json")
    return result


def cli(args) -> int:
    import multreg.cli  # first, so -X importtime charges numpy to multreg

    import tracing

    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer), tracer.span("cli.main"):
        code = multreg.cli.main(argv)
    tracer.dump(args.spans)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "work"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True, choices=specs.WORKLOADS)
        p.add_argument("--work", type=Path, required=True)
        p.add_argument("--smoke", action="store_true")
        if mode == "work":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("cli")
    p.add_argument("--spans", type=Path, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        return cli(args)
    result = setup(args) if args.mode == "setup" else work(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
