#!/usr/bin/env python3
"""Socket Store benchmark.

    python3 perfbench/run.py --workload {spike-stream,instance-churn,persisted-store,all}
                             --seed N --seconds S --trace {0,1}

Runs one workload (or all three) against the program in this checkout's
`src/`, checks its outputs, and prints every metric by name with its unit
and sample count. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json. With
--trace 1 the run measures half its time untraced and half traced, and
reports the per-layer metrics; the spans go to
.perfbench_out/spans-<workload>-seed<N>.jsonl and the run record to
.perfbench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys

from checkout import OUT_DIR, git_commit, use_checkout_source

# `workloads` and `tracing` import the program, so they are imported only
# after use_checkout_source() has put this checkout's src/ on the path.

# Measured end-to-end metrics in the order of BENCHMARK.json, with units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s",
              "op_ms": "ms", "bypass_ms": "ms"}
# Set-up is repeated at least this often in a gated run; setup_s is the median.
MIN_SETUPS = 5
# reported once for --workload all: summed set-up, overall error rate,
# process peak RSS; the per-run figures every workload has are left out
COMBINED = ("setup_s", "error_rate", "peak_rss_mb", "setup_s_at_ref", "yardstick_slice_ms")
STATE_GAUGES = ("agents.live", "netsim.rules", "netsim.reservations",
                "store.log_entries", "store.file_bytes")
GAUGE_UNITS = {"store.log_entries": "count", "store.file_bytes": "bytes"}


def run_pass(workload, seconds: float, min_setups: int, tracer=None):
    """Rounds of set-up, measure and finish until at least `seconds` of
    measuring and `min_setups` set-ups are done, with the yardstick running
    throughout. Returns the samples and the set-up times."""
    from workloads import Samples

    samples = Samples()
    clock = samples.yardstick.clock
    if tracer:
        tracer.clock = clock
    setups: list[float] = []
    measured = 0.0
    with samples.yardstick.running():
        while len(setups) < min_setups or measured < seconds:
            start = clock()
            state = workload.setup()
            setups.append(clock() - start)
            try:
                if measured < seconds:
                    start = clock()
                    with tracer.installed() if tracer else contextlib.nullcontext():
                        workload.measure(state, samples)
                    measured += clock() - start
                    samples.rounds += 1
            finally:
                workload.finish(state, samples)
                del state
                gc.collect()
    return samples, setups


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, samples, setups):
    """The workload's own metrics, plus the benchmark's end-to-end metrics
    mapped onto them."""
    from workloads import Metric

    setup_s = statistics.median(setups)
    named = {
        "setup_s": Metric(setup_s, "s", len(setups)),
        "setup_s_at_ref": Metric(setup_s * samples.yardstick.scale(), "s", len(setups)),
        "error_rate": Metric(samples.failed / samples.attempted, "failed/attempted",
                             samples.attempted),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
    }
    named.update(workload.metrics(samples))
    named["yardstick_slice_ms"] = Metric(
        samples.yardstick.mean_s() * 1e3, "ms", len(samples.yardstick.slices))
    gated = {"setup_s": named["setup_s_at_ref"], "peak_rss_mb": named["peak_rss_mb"]}
    gated.update({slot: named[source]._replace(unit=END_TO_END[slot])
                  for slot, source in workload.GATED.items()})
    return named, gated


def per_layer(workload, tracer, samples, untraced_gated, traced_gated):
    from workloads import CheckFailed

    layers = tracer.layer_metrics(samples.rounds)
    missing = [name for name in workload.TRACED if layers[f"{name}.calls"][0] == 0]
    if missing:
        raise CheckFailed(f"{workload.name}: no calls seen by {', '.join(missing)}")
    for gauge in STATE_GAUGES:
        layers[gauge] = (samples.gauges.get(gauge, 0.0), GAUGE_UNITS.get(gauge, "count/conn"))
    base = untraced_gated["throughput_per_s"].value
    layers["trace.throughput_overhead_pct"] = (
        100.0 * (base - traced_gated["throughput_per_s"].value) / base, "%")
    return layers


def run_record(args, workload_names) -> dict:
    return {
        "workloads": workload_names,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def print_metrics(title: str, metrics) -> None:
    print(f"# {title}")
    for name, m in metrics.items():
        print(f"{name:<40} {m.value:>14.6g} {m.unit:<16} n={m.samples}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_checkout_source()
    import workloads
    from tracing import Tracer

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")

    OUT_DIR.mkdir(exist_ok=True)
    record = run_record(args, names)
    print("# run " + json.dumps(record, sort_keys=True))
    attempted = failed = 0
    setup_total = 0.0
    reported: dict = {}
    correct = True
    for name in names:
        workload = workloads.WORKLOADS[name](args.seed)
        try:
            if args.trace:
                untraced, setups = run_pass(workload, args.seconds / 2, 1)
                tracer = Tracer()
                traced, traced_setups = run_pass(workload, args.seconds / 2, 1, tracer)
                named, gated = end_to_end(workload, untraced, setups)
                traced_named, traced_gated = end_to_end(workload, traced, traced_setups)
                layers = per_layer(workload, tracer, traced, gated, traced_gated)
                tracer.write(OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl")
                print_metrics(f"{name}: untraced", named)
                print_metrics(f"{name}: traced", traced_named)
                print(f"# {name}: tracing overhead (traced - untraced)")
                for slot, m in gated.items():
                    print(f"{slot:<40} {traced_gated[slot].value - m.value:>+14.6g} {m.unit}")
                print(f"# {name}: per layer, traced pass ({len(tracer.spans)} spans)")
                for metric, (value, unit) in layers.items():
                    print(f"{metric:<48} {value:>14.6g} {unit}")
                prefix = f"{name}:" if len(names) > 1 else ""
                reported.update((prefix + k, v) for k, v in layers.items())
                record.setdefault("traced", {})[name] = {
                    "end_to_end": {k: m._asdict() for k, m in traced_named.items()},
                    "per_layer": layers,
                }
                samples = [untraced, traced]
            else:
                run, setups = run_pass(workload, args.seconds, MIN_SETUPS)
                named, gated = end_to_end(workload, run, setups)
                print_metrics(name, named)
                if len(names) > 1:
                    # the metrics every workload has are combined after the loop
                    setup_total += named["setup_s"].value
                    gated = {k: m for k, m in named.items() if k not in COMBINED}
                reported.update((k, (m.value, m.unit)) for k, m in gated.items())
                samples = [run]
        except workloads.CheckFailed as exc:
            print(f"error: {name}: output check failed: {exc}", file=sys.stderr)
            return 1
        record.setdefault("results", {})[name] = {
            k: m._asdict() for k, m in named.items()}
        for s in samples:
            attempted += s.attempted
            failed += s.failed
        correct = correct and failed == 0

    if len(names) > 1 and not args.trace:
        reported["setup_s"] = (setup_total, "s")
        reported["error_rate"] = (failed / attempted, "failed/attempted")
        reported["peak_rss_mb"] = (peak_rss_mb(), "MB")
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
