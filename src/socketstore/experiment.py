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
from dataclasses import dataclass, field

from .dsa import ConnectOptions, DsaClient
from .fixtures import (
    EVALUATION_TOPOLOGY,
    FLASH_DELIVERY_ID,
    flash_delivery_manifest,
)
from .kmflash import DeliveryStats, collect_stats, default_shortest_path, paced, send_copies
from .netsim import (
    DeliveryRecord,
    FlowId,
    LatencyInjection,
    Simulator,
    build_topology,
    load_topology_file,
)
from .store import BASELINE_MODULE_ID, CostReport, SocketStore
from .wire import LocalTransport, StoreProtocol

CSV_COLUMNS = ["seq", "sent_at_ms", "latency_path0_ms", "latency_path1_ms",
               "earliest_ms", "violated"]


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class InjectionConfig:
    link: str = "R4-B"
    extra_ms: float = 10.0
    start_ms: float = 40.0
    end_ms: float = 60.0


@dataclass
class ExperimentConfig:
    """Defaults reproduce the shipped evaluation: 100 packets at 1 ms gap
    against a 5 ms deadline, +10 ms injected on R4-B over [40, 60) ms,
    K=2 mirrors at 10 Mbps."""

    topology_path: str | None = None
    module: str = FLASH_DELIVERY_ID  # or "baseline"
    packet_count: int = 100
    gap_ms: float = 1.0
    deadline_ms: float = 5.0
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    k: int = 2
    rate_mbps: float = 10.0
    payload_size: int = 512
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


def config_from_file(path: str, **overrides) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ExperimentError(f"unknown config fields: {sorted(unknown)}")
    if "injection" in doc:
        doc["injection"] = InjectionConfig(**doc["injection"])
    doc.update(overrides)
    return ExperimentConfig(**doc)


@dataclass(frozen=True, slots=True)
class PacketRow:
    seq: int
    sent_at_ms: float
    latency_path0_ms: float | None
    latency_path1_ms: float | None
    earliest_ms: float | None
    violated: int


@dataclass
class ExperimentReport:
    mode: str  # "module", "fallback" or "baseline"
    rows: list[PacketRow]
    stats: DeliveryStats
    cost: CostReport | None
    failure_reason: str | None = None

    def summary_doc(self) -> dict:
        doc = {
            "mode": self.mode,
            "sent": self.stats.sent,
            "delivered_unique": self.stats.delivered_unique,
            "losses": self.stats.losses,
            "deadline_violations": self.stats.deadline_violations,
            "in_deadline_ratio": self.stats.in_deadline_ratio,
        }
        if self.failure_reason:
            doc["failure_reason"] = self.failure_reason
        if self.cost is not None:
            doc["cost"] = {
                "raw_total": self.cost.raw_total,
                "weighted_total": self.cost.weighted_total,
                "rows": self.cost.rows_doc(),
            }
        return doc


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    rng = random.Random(config.seed)
    if config.topology_path:
        topology = load_topology_file(config.topology_path)
    else:
        topology = build_topology(EVALUATION_TOPOLOGY)
    sim = Simulator(topology)
    inj = config.injection
    sim.inject_latency(
        LatencyInjection(inj.link, inj.extra_ms, inj.start_ms, inj.end_ms)
    )

    if config.module == BASELINE_MODULE_ID:
        return _run_baseline(sim, config)
    return _run_module(sim, config, rng)


def _run_baseline(sim: Simulator, config: ExperimentConfig) -> ExperimentReport:
    flow = FlowId("A", "B", "baseline")
    path = default_shortest_path(sim.topology_snapshot(), "A", "B")
    if path is None:
        raise ExperimentError("no route between A and B in this topology")
    sim.deploy_path(flow, path)
    per_seq = paced(sim, config.packet_count, config.gap_ms, lambda seq: send_copies(
        sim, flow, 1, seq, config.payload_size, config.deadline_ms))
    return _report("baseline", per_seq, config, cost=None)


def _run_module(sim: Simulator, config: ExperimentConfig,
                rng: random.Random) -> ExperimentReport:
    store = _store_for(sim, config, rng)
    protocol = StoreProtocol(store)
    dsa_b = DsaClient("B", sim, LocalTransport(protocol), app_id=config.app_id)
    dsa_b.bind("Device_B")
    if config.purchase:
        token = store.purchase(config.app_id, config.module).token
    else:
        token = "unpurchased"
    dsa_a = DsaClient("A", sim, LocalTransport(protocol), app_id=config.app_id)
    conn = dsa_a.connect(
        "Device_B",
        config.module,
        token,
        ConnectOptions(k=config.k, rate_mbps=config.rate_mbps,
                       max_latency_ms=config.deadline_ms),
        fallback_address="B",
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
    """One CSV row per seq from the records of that seq's copies, and the
    stats over every copy."""
    rows = []
    for seq, records in enumerate(per_seq):
        latency = {rec.packet.path_index: rec.latency_ms for rec in records}
        earliest = min((rec.latency_ms for rec in records if rec.delivered), default=None)
        violated = 0 if (earliest is not None and earliest <= config.deadline_ms) else 1
        rows.append(PacketRow(seq, records[0].packet.sent_at_ms, latency.get(0),
                              latency.get(1), earliest, violated))
    stats = collect_stats((rec for records in per_seq for rec in records), config.deadline_ms)
    return ExperimentReport(mode, rows, stats, cost, failure_reason)


def render_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow(
            [
                row.seq,
                _cell(row.sent_at_ms),
                _cell(row.latency_path0_ms),
                _cell(row.latency_path1_ms),
                _cell(row.earliest_ms),
                row.violated,
            ]
        )
    return buf.getvalue()


def _cell(value) -> str:
    return "" if value is None else str(value)


def stats_from_csv(text: str, deadline_ms: float) -> DeliveryStats:
    """Recompute the summary from the CSV rows; must reproduce the report's
    stats exactly."""
    reader = csv.DictReader(io.StringIO(text))
    sent = delivered = in_deadline = 0
    for row in reader:
        sent += 1
        if row["earliest_ms"]:
            delivered += 1
            if float(row["earliest_ms"]) <= deadline_ms:
                in_deadline += 1
    return DeliveryStats(
        sent=sent,
        delivered_unique=delivered,
        deadline_violations=delivered - in_deadline,
        losses=sent - delivered,
        in_deadline_ratio=(in_deadline / sent) if sent else 1.0,
    )


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
