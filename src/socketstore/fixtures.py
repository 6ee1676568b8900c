"""Canonical fixtures: the two-host five-switch evaluation topology, the
latency-spike scenario on it, and the flash-delivery store module.

The evaluation topology admits exactly two link-disjoint host-to-host
paths; all links run at 100 Mbps with 0.5 ms latency, and each host has two
network cards (one per disjoint approach).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .agents import AgentTypeLibrary, builtin_library
from .kmflash import register_km_type
from .moduledef import (
    MetricDef,
    MetricDirection,
    ModuleManifest,
    manifest_to_json,
    parse_nsd,
)
from .netsim import LatencyInjection, Topology, build_topology, load_topology_file

EVALUATION_TOPOLOGY: dict = {
    "nodes": [
        {"id": "A", "kind": "host", "nic_count": 2},
        {"id": "B", "kind": "host", "nic_count": 2},
        {"id": "R1", "kind": "switch"},
        {"id": "R2", "kind": "switch"},
        {"id": "R3", "kind": "switch"},
        {"id": "R4", "kind": "switch"},
        {"id": "R5", "kind": "switch"},
    ],
    "links": [
        {"endpoints": ["A", "R1"], "capacity_mbps": 100, "latency_ms": 0.5},
        {"endpoints": ["A", "R2"], "capacity_mbps": 100, "latency_ms": 0.5},
        {"endpoints": ["R1", "R3"], "capacity_mbps": 100, "latency_ms": 0.5},
        {"endpoints": ["R2", "R3"], "capacity_mbps": 100, "latency_ms": 0.5},
        {"endpoints": ["R3", "R4"], "capacity_mbps": 100, "latency_ms": 0.5},
        {"endpoints": ["R3", "R5"], "capacity_mbps": 100, "latency_ms": 0.5},
        {"endpoints": ["R4", "B"], "capacity_mbps": 100, "latency_ms": 0.5},
        {"endpoints": ["R5", "B"], "capacity_mbps": 100, "latency_ms": 0.5},
    ],
}


@dataclass(frozen=True)
class TestbedScenario:
    """A registered testbed setup: topology, traffic shape and injections."""

    name: str
    topology_doc: dict
    packet_count: int
    gap_ms: float
    deadline_ms: float
    injections: tuple[LatencyInjection, ...]
    inputs: dict  # NSD input bindings, e.g. endpoints, K, rate, max_latency
    size_bytes: int


LATENCY_SPIKE = LatencyInjection("R4-B", 10.0, 40.0, 60.0)

# the shipped evaluation: the store's testbed ranks modules on it, the experiment reproduces it
LATENCY_SPIKE_SCENARIO = TestbedScenario(
    name="latency-spike",
    topology_doc=EVALUATION_TOPOLOGY,
    packet_count=100,
    gap_ms=1.0,
    deadline_ms=5.0,
    injections=(LATENCY_SPIKE,),
    inputs={
        "endpointA": {"address": "A", "port": 5000, "nic": 0},
        "endpointB": {"address": "B", "port": 5000, "nic": 0},
        "K": 2,
        "rate": 10.0,
        "max_latency": 5.0,
    },
    size_bytes=512,
)

FLASH_DELIVERY_NSD = """\
<nsd>
  <input name="endpointA" type="endpoint" />
  <input name="endpointB" type="endpoint" />
  <input name="K" type="int" />
  <input name="rate" type="mbps" />
  <input name="max_latency" type="ms" />
  <agent id="km" type="KMirror">
    <param name="endpointA" value="$endpointA" />
    <param name="endpointB" value="$endpointB" />
    <param name="K" value="$K" />
    <param name="rate" value="$rate" />
    <param name="max_latency" value="$max_latency" />
  </agent>
</nsd>
"""

IN_DEADLINE_RATIO = MetricDef(
    metric_id="in_deadline_ratio",
    name="In-deadline delivery ratio",
    unit="ratio",
    direction=MetricDirection.HIGHER_BETTER,
)

MEAN_LATENCY_MS = MetricDef(
    metric_id="mean_latency_ms",
    name="Mean delivery latency",
    unit="ms",
    direction=MetricDirection.LOWER_BETTER,
)

LOSS_RATIO = MetricDef(
    metric_id="loss_ratio",
    name="Packet loss ratio",
    unit="ratio",
    direction=MetricDirection.LOWER_BETTER,
)

BUILTIN_METRICS = (IN_DEADLINE_RATIO, MEAN_LATENCY_MS, LOSS_RATIO)

FLASH_DELIVERY_ID = "flash-delivery"
FLASH_DELIVERY_AUTHOR = "pathworks-labs"


def default_library() -> AgentTypeLibrary:
    lib = builtin_library()
    register_km_type(lib)
    return lib


def evaluation_topology() -> Topology:
    return build_topology(EVALUATION_TOPOLOGY)


def load_topology(path: str | None) -> Topology:
    """The topology in the file at `path`, or else the evaluation topology."""
    return load_topology_file(path) if path else evaluation_topology()


def flash_delivery_manifest(library: AgentTypeLibrary | None = None) -> ModuleManifest:
    lib = library or default_library()
    return ModuleManifest(
        module_id=FLASH_DELIVERY_ID,
        name="flash-delivery",
        version=1,
        author=FLASH_DELIVERY_AUTHOR,
        metric_ids=("in_deadline_ratio",),
        nsd=parse_nsd(FLASH_DELIVERY_NSD, lib),
        dsa_ref="standard-dsa/km-mirror",
        price=5.0,
        description=(
            "Critical data delivery with a hard per-packet deadline: packets are "
            "replicated over K link-disjoint paths with near-identical latency, "
            "no ACKs and no retransmissions; the receiver discards duplicates."
        ),
    )


def write_fixture_tree(root: str) -> list[str]:
    """Materialize the shipped fixture documents under `root`; returns the
    written paths."""
    documents = {
        os.path.join(root, "evaluation_topology.json"):
            json.dumps(EVALUATION_TOPOLOGY, indent=2) + "\n",
        os.path.join(root, "flash_delivery", "nsd.xml"): FLASH_DELIVERY_NSD,
        os.path.join(root, "flash_delivery", "manifest.json"):
            manifest_to_json(flash_delivery_manifest()),
    }
    os.makedirs(os.path.join(root, "flash_delivery"), exist_ok=True)
    for path, text in documents.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return list(documents)
