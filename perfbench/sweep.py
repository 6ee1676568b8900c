#!/usr/bin/env python3
"""Report-only scaling sweep; not part of the gated runs and has no gate.

    python3 perfbench/sweep.py --seed N

Reruns each workload at three or more sizes along its size axis and prints
the cost per item at each size: packets per experiment run (spike-stream),
live instances (instance-churn) and action-log length (persisted-store). A
step whose per-item cost grows more than 2x per 10x of size, that is with
a log-log slope above log10(2), is flagged SUPERLINEAR. The table also goes
to .perfbench_out/sweep-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from checkout import OUT_DIR, use_checkout_source

PACKETS = (100, 1_000, 10_000)
LIVE = (10, 100, 300, 600)
LOG_LENGTHS = (250, 1_000, 2_500)
SWEEP_CYCLES = 30
SWEEP_WRITES = 50
# more than 2x per-item cost per 10x of size
SLOPE_LIMIT = math.log10(2)


def spike_points(seed: int):
    from socketstore import experiment
    from socketstore.fixtures import FLASH_DELIVERY_ID
    from socketstore.store import BASELINE_MODULE_ID
    from workloads import SpikeStream

    workload = SpikeStream(seed)
    for label, module in (("stream", FLASH_DELIVERY_ID), ("baseline", BASELINE_MODULE_ID)):
        for packets in PACKETS:
            config = workload.config(module, packets)
            times = []
            for _ in range(3 if packets < PACKETS[-1] else 1):
                start = time.perf_counter()
                report = experiment.run_experiment(config)
                times.append(time.perf_counter() - start)
            workload.check_report(module, report)
            cost = statistics.median(times) / packets * 1e6
            yield f"spike-stream {label} us/packet", packets, cost


def churn_points(seed: int):
    from workloads import InstanceChurn, Samples

    for live in LIVE:
        workload = InstanceChurn(seed, live=live, cycles=SWEEP_CYCLES)
        samples = Samples()
        state = workload.setup()
        try:
            workload.measure(state, samples)
        finally:
            workload.finish(state, samples)
        for key in ("connect", "close"):
            cost = statistics.median(samples.times_ms[key])
            yield f"instance-churn {key} ms", live, cost


def store_points(seed: int):
    from workloads import PersistedStore, Samples

    for length in LOG_LENGTHS:
        workload = PersistedStore(seed, writes=SWEEP_WRITES, prefill=length)
        samples = Samples()
        state = workload.setup()
        try:
            workload.measure(state, samples)
        finally:
            workload.finish(state, samples)
        for key in ("rpc_write", "rpc_read", "cli_read", "cli_write"):
            cost = statistics.median(samples.times_ms[key])
            yield f"persisted-store {key} ms", length, cost


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    use_checkout_source()

    series: dict[str, list[tuple[int, float]]] = {}
    for points in (spike_points, churn_points, store_points):
        for name, size, cost in points(args.seed):
            series.setdefault(name, []).append((size, cost))
    report = {}
    flagged = 0
    for name, points in series.items():
        print(f"# {name}")
        rows = []
        previous = None
        for size, cost in points:
            slope = None
            if previous is not None:
                slope = math.log(cost / previous[1]) / math.log(size / previous[0])
            flag = slope is not None and slope > SLOPE_LIMIT
            flagged += flag
            rows.append({"size": size, "cost": cost, "slope": slope, "superlinear": flag})
            print(f"{size:>8} {cost:>12.4f}"
                  + ("" if slope is None else f"  slope {slope:+.2f}")
                  + ("  SUPERLINEAR" if flag else ""))
            previous = (size, cost)
        report[name] = rows
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"sweep-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "slope_limit": SLOPE_LIMIT, "series": report}, fh, indent=2)
        fh.write("\n")
    print(f"# {flagged} superlinear steps (report only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
