"""Experiment runner: drives the flash-delivery module (or the single-path
baseline) over the evaluation topology with a latency spike on one link,
and writes the per-packet CSV plus a recomputable summary.

The CSV is the artifact of record; the optional plot is generated from it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass
from typing import NamedTuple

from .dsa import ConnectOptions, DsaClient
from .fixtures import (
    FLASH_DELIVERY_ID,
    LATENCY_SPIKE,
    LATENCY_SPIKE_SCENARIO as SCENARIO,
    flash_delivery_manifest,
    load_topology,
)
from .kmflash import DeliveryStats, delivery_stats, earliest_latencies, paced, run_single_path
from .netsim import MAX_MS, DeliveryRecord, LatencyInjection, Simulator
from .records import from_doc
from .store import BASELINE_MODULE_ID, CostReport, SocketStore
from .wire import LocalTransport, StoreProtocol


class ExperimentError(ValueError):
    pass


InjectionConfig = LatencyInjection  # the name older callers import


@dataclass
class ExperimentConfig:
    """Defaults reproduce the shipped evaluation, `fixtures.LATENCY_SPIKE_SCENARIO`,
    which runs between the topology's first two hosts."""

    topology_path: str | None = None
    module: str = FLASH_DELIVERY_ID  # or "baseline"
    packet_count: int = SCENARIO.packet_count
    gap_ms: float = SCENARIO.gap_ms
    deadline_ms: float = SCENARIO.deadline_ms
    injection: LatencyInjection = LATENCY_SPIKE
    k: int = SCENARIO.inputs["K"]
    rate_mbps: float = SCENARIO.inputs["rate"]
    payload_size: int = SCENARIO.size_bytes
    output_dir: str = "out"
    seed: int = 0
    app_id: str = "experiment-app"
    data_path: str | None = None  # reuse a persisted store instead of bootstrapping
    purchase: bool = True  # False exercises the DSA fallback path

    def validate(self) -> None:
        if self.packet_count < 1:
            raise ExperimentError("packet count must be >= 1")
        if self.deadline_ms <= 0:
            raise ExperimentError("deadline must be positive")
        if self.gap_ms < 0:
            raise ExperimentError("gap must be >= 0")
        if self.k < 1:
            raise ExperimentError("K must be >= 1")
        if not self.rate_mbps > 0:
            raise ExperimentError("rate must be a positive number")
        if self.payload_size < 0:
            raise ExperimentError("payload size must be >= 0")
        for name, ms in (("gap_ms", self.gap_ms), ("deadline_ms", self.deadline_ms),
                         *((f"injection.{k}", v) for k, v in vars(self.injection).items()
                           if k != "link")):
            if abs(ms) > MAX_MS:
                raise ExperimentError(
                    f"config.{name} must be between -{MAX_MS:.3g} and {MAX_MS:.3g}")


def config_from_file(path: str | None, **overrides) -> ExperimentConfig:
    """The config file at `path`, if any, with `overrides` set over its fields."""
    doc = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if isinstance(doc, dict):
        doc.update(overrides)
        if isinstance(doc.get("injection"), dict):  # the spike fills the fields it omits
            doc["injection"] = {**vars(LATENCY_SPIKE), **doc["injection"]}
    return from_doc(ExperimentConfig, doc, "config", ExperimentError)


class PacketRow(NamedTuple):
    seq: int
    sent_at_ms: float
    latency_path0_ms: float | None
    latency_path1_ms: float | None
    earliest_ms: float | None
    violated: int


CSV_COLUMNS = list(PacketRow._fields)


@dataclass
class ExperimentReport:
    mode: str  # "module", "fallback" or "baseline"
    rows: list[PacketRow]
    stats: DeliveryStats
    cost: CostReport | None
    failure_reason: str | None = None

    def summary_doc(self) -> dict:
        doc = {"mode": self.mode, **vars(self.stats)}
        if self.failure_reason:
            doc["failure_reason"] = self.failure_reason
        if self.cost is not None:
            doc["cost"] = self.cost.doc()
        return doc


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    topology = load_topology(config.topology_path)
    hosts = topology.hosts()[:2]
    if len(hosts) < 2:
        raise ExperimentError(f"the experiment needs two hosts, the topology has {len(hosts)}")
    sim = Simulator(topology)
    sim.inject_latency(config.injection)
    if config.module != BASELINE_MODULE_ID:
        return _run_module(sim, config, random.Random(config.seed), *hosts)
    per_seq = run_single_path(sim, config.packet_count, config.gap_ms, config.payload_size,
                              config.deadline_ms)
    if per_seq is None:
        raise ExperimentError("no route between {} and {} in this topology".format(*hosts))
    return _report("baseline", per_seq, config, cost=None)


def _run_module(sim: Simulator, config: ExperimentConfig, rng: random.Random,
                src: str, dst: str) -> ExperimentReport:
    store = _store_for(sim, config, rng)
    protocol = StoreProtocol(store)
    DsaClient(dst, sim, LocalTransport(protocol), app_id=config.app_id).bind("Device_B")
    if config.purchase:
        token = store.purchase(config.app_id, config.module).token
    else:
        token = "unpurchased"
    dsa = DsaClient(src, sim, LocalTransport(protocol), app_id=config.app_id)
    conn = dsa.connect(
        "Device_B",
        config.module,
        token,
        ConnectOptions(k=config.k, rate_mbps=config.rate_mbps,
                       max_latency_ms=config.deadline_ms),
        fallback_address=dst,
    )
    payload = b"x" * config.payload_size
    per_seq = paced(sim, config.packet_count, config.gap_ms,
                    lambda seq: conn.send(payload, size_bytes=config.payload_size))
    conn.close()
    cost = store.cost(conn.instance_id) if conn.mode == "module" else None
    return _report(conn.mode, per_seq, config, cost, conn.failure_reason)


def _store_for(sim: Simulator, config: ExperimentConfig,
               rng: random.Random) -> SocketStore:
    def token_factory() -> str:
        return f"tok-{rng.getrandbits(64):016x}"

    if config.data_path:
        store = SocketStore(data_path=config.data_path, token_factory=token_factory)
        store.attach_network(sim)
        return store
    # self-contained bootstrap: publish the flash-delivery fixture
    store = SocketStore(sim=sim, token_factory=token_factory)
    manifest = flash_delivery_manifest(store.library)
    store.register_specialist(manifest.author)
    store.submit_module(manifest)
    store.start_review(manifest.module_id, "experiment-review-board")
    store.review_decision(manifest.module_id, "accept", "experiment-review-board")
    return store


def _report(mode: str, per_seq: list[list[DeliveryRecord]], config: ExperimentConfig,
            cost: CostReport | None, failure_reason: str | None = None) -> ExperimentReport:
    """One CSV row per seq from the records of that seq's copies (a send gives
    at least one, copy i on path index i), and the stats over each seq's
    earliest latency."""
    earliest = earliest_latencies(per_seq)
    deadline_ms = config.deadline_ms
    rows = [PacketRow(seq, records[0].packet.sent_at_ms, records[0].latency_ms,
                      records[1].latency_ms if len(records) > 1 else None, first,
                      0 if first is not None and first <= deadline_ms else 1)
            for seq, (records, first) in enumerate(zip(per_seq, earliest))]
    return ExperimentReport(mode, rows, delivery_stats(earliest, deadline_ms), cost,
                            failure_reason)


def render_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # None -> "", a float -> its repr
    writer.writerow(CSV_COLUMNS)
    writer.writerows(report.rows)
    return buf.getvalue()


def stats_from_csv(text: str, deadline_ms: float) -> DeliveryStats:
    """Recompute the summary from the CSV rows; must reproduce the report's
    stats exactly."""
    return delivery_stats([float(row["earliest_ms"]) if row["earliest_ms"] else None
                           for row in csv.DictReader(io.StringIO(text))], deadline_ms)


def write_report(report: ExperimentReport, output_dir: str,
                 prefix: str = "experiment") -> dict[str, str]:
    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, f"{prefix}-packets.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(report))
    summary_path = os.path.join(output_dir, f"{prefix}-summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(report.summary_doc(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "summary": summary_path}


def write_plot(csv_path: str, plot_path: str, deadline_ms: float) -> None:
    """Latency-versus-send-time plot from the CSV of record; needs
    matplotlib, which is an optional extra."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise ExperimentError(
            "plot output needs matplotlib (install the 'plot' extra)"
        )
    sent, per_path = [], {}
    with open(csv_path, "r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            t = float(row["sent_at_ms"])
            sent.append(t)
            for col in ("latency_path0_ms", "latency_path1_ms"):
                if row[col]:
                    per_path.setdefault(col, []).append((t, float(row[col])))
    fig, ax = plt.subplots(figsize=(8, 4))
    for col, points in sorted(per_path.items()):
        xs, ys = zip(*points)
        ax.plot(xs, ys, marker=".", linestyle="-", label=col.replace("_ms", ""))
    ax.axhline(deadline_ms, linestyle="--", color="red", label="deadline")
    ax.set_xlabel("send time (ms)")
    ax.set_ylabel("latency (ms)")
    ax.legend()
    fig.tight_layout()
    fig.savefig(plot_path)
    plt.close(fig)
