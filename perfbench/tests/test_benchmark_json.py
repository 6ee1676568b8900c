"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json

import run
import tracing
import workloads
from checkout import ROOT


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in load()["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_match():
    spec = {m["name"]: m["unit"] for m in load()["end_to_end"]}
    assert spec == run.END_TO_END
    for workload in workloads.WORKLOADS.values():
        assert {"setup_s", "peak_rss_mb", *workload.GATED} == set(spec)


def test_per_layer_match():
    names = [m["name"] for m in load()["per_layer"]]
    expected = [f"{n}.{kind}" for n in tracing.NAMES for kind in ("calls", "self_s")]
    expected += ["dsa.dedup.useful_ratio", "netsim.copies_delivered_ratio",
                 "wire.transport_overhead_us", *run.STATE_GAUGES,
                 "trace.throughput_overhead_pct"]
    assert names == expected
