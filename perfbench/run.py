#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gate_wafer --seed 1 --seconds 20
    python3 perfbench/run.py --workload dse_search --seed 1 --trace 1

``--trace 0`` (the default) times the workload with tracing off and
prints its end-to-end metrics; ``--trace 1`` runs half the time
untraced and half traced and prints the per-layer metrics.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the full record (``perfbench-record: {...}``):
every metric the workload defines under its own name, the output
checks, the simulated-output digest and the provenance.  The exit code
is 0 when every output check passes, 1 when one fails and 2 when the
program cannot be run at all.  See ``METRICS.md`` for each metric.
"""

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload name -> (module, class).
WORKLOADS = {
    "gate_wafer": ("gate_wafer", "GateWafer"),
    "dse_search": ("dse_search", "DseSearch"),
    "service_mix": ("service_mix", "ServiceMix"),
}

#: Counters reported for the first traced repetition alone, so that
#: they repeat exactly for a seed however many repetitions fit.
FIRST_REPETITION_COUNTERS = ("gate_settle_passes_total",
                             "gate_evaluations_total")

#: Units of the end-to-end metrics every workload reports; each
#: workload's ``HEADLINE`` names which of its own metrics fills the
#: last three.
HEADLINE_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "second_path_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Everything the program persists stays inside the checkout.
    os.environ["REPRO_STATE_DIR"] = str(work / "state")
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    try:
        module_name, class_name = WORKLOADS[args.workload]
        module = importlib.import_module(module_name)
        workload = getattr(module, class_name)(args.seed, str(work))
        if args.setup_probe:
            return setup_probe(workload)
        return measure(args, module, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def setup_probe(workload):
    from harness import SETUP_DONE

    try:
        workload.setup()
        print(SETUP_DONE, flush=True)
    finally:
        workload.close()
    return 0


def measure(args, module, workload):
    from harness import (
        RssSampler,
        digest,
        median,
        probe_setup,
        provenance,
    )

    setup_times = probe_setup(HERE / "run.py", args.workload, args.seed,
                              dict(os.environ))
    try:
        with RssSampler() as rss:
            if args.trace:
                per_layer = traced(args, workload)
            else:
                workload.setup()
                workload.run(args.seconds)
            problems = workload.checks()
    finally:
        workload.close()

    attempted = max(1, workload.attempted)
    named = {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss.peak_mb, "MB"),
        "failed_ratio": (workload.failed / attempted, "fraction"),
    }
    if not args.trace:
        named.update(workload.end_to_end())
    doc = workload.digest_doc()
    record = {
        "workload": args.workload,
        "why": module.WHY,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(ROOT, args.seed),
        "setup_probes_s": setup_times,
        "digest": digest(doc) if doc is not None else None,
        "checks_failed": problems,
        "errors": workload.errors[:10],
        "metrics": _render(named),
    }
    if args.trace:
        headline = per_layer
    else:
        sources = dict(module.HEADLINE, setup_s="setup_s",
                       peak_rss_mb="peak_rss_mb")
        headline = {slot: (named[sources[slot]][0], unit)
                    for slot, unit in HEADLINE_UNITS.items()}
    record["headline"] = _render(headline)
    for name, (value, unit) in sorted({**named, **headline}.items()):
        print(f"{name:<36} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("perfbench-record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": _render(headline),
    }, sort_keys=True))
    return 0 if not problems else 1


def _render(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _counters(obs):
    return {
        name: sum(entry["value"] for entry in series["values"])
        for name, series in obs.registry().snapshot().items()
        if series["kind"] == "counter"
    }


def traced(args, workload):
    """Set-up and the second half of the run under tracing; the first
    half untraced, for ``trace.overhead_ratio``."""
    from repro import obs

    from layers import LayerTracer, layer_metrics

    tracer = LayerTracer()
    tracer.install()
    obs.reset()
    obs.configure(trace=True, metrics=True)
    workload.setup()
    setup_records = obs.drain_spans()
    obs.reset()
    tracer.uninstall()

    half = args.seconds / 2.0
    units_off, wall_off = workload.run(half)
    first_request = len(getattr(workload, "requests", ()))

    tracer.install()
    obs.configure(trace=True, metrics=True)
    lo = time.time()
    # The first repetition alone, for counts that repeat exactly.
    units_on, wall_on = workload.run(0)
    first = _counters(obs)
    more_units, more_wall = workload.run(half - wall_on)
    units_on, wall_on = units_on + more_units, wall_on + more_wall
    hi = time.time()
    records = obs.drain_spans()
    counters = _counters(obs)
    obs.reset()
    tracer.uninstall()

    counters.update(workload.counters())
    for name in FIRST_REPETITION_COUNTERS:
        counters[name] = first.get(name, 0)
    metrics = layer_metrics(
        records, setup_records, counters, workload.workers,
        tracer.first_gatesim_s, (lo, hi),
    )
    if hasattr(workload, "layer_overrides"):
        metrics.update(workload.layer_overrides(first_request))
    metrics["trace.overhead_ratio"] = (
        (wall_on / max(1, units_on)) / (wall_off / max(1, units_off)),
        "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
