"""K-paths mirroring: constrained K link-disjoint path allocation, mirrored
transmission with a hard per-packet deadline, and the KMirror adapter agent
behind the flash-delivery module.

Allocation runs K rounds of successive shortest paths with edge reversal
(negative-arc Bellman-Ford on the residual graph). Unlike naive iterative
edge removal this cannot produce false negatives on trap topologies, and
the resulting K-set has minimum total latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .agents import Agent, AgentKind, AgentTypeDef, AgentTypeLibrary, AgentSpec, ParamSpec
from .netsim import (
    DeliveryRecord,
    FlowId,
    NetsimError,
    NodeKind,
    Packet,
    Simulator,
    TopologyView,
)

DEFAULT_SPREAD_MS = 1.0


class KMError(Exception):
    pass


@dataclass(frozen=True)
class PathSet:
    paths: tuple[tuple[str, ...], ...]
    latencies_ms: tuple[float, ...]

    @property
    def spread_ms(self) -> float:
        return max(self.latencies_ms) - min(self.latencies_ms)

    @property
    def k(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class AllocationFailure:
    reason: str
    max_feasible_k: int


def allocate_disjoint_paths(
    view: TopologyView,
    src: str,
    dst: str,
    k: int,
    rate_mbps: float,
    max_latency_ms: float,
    spread_ms: float = DEFAULT_SPREAD_MS,
) -> PathSet | AllocationFailure:
    """Find K pairwise link-disjoint src->dst paths minimizing total latency,
    over links whose residual capacity covers the requested rate.

    Links are physical and bidirectional: disjointness counts a link as one
    resource regardless of traversal direction. Returns an AllocationFailure
    carrying the largest feasible K when fewer than K disjoint paths exist,
    or when the minimum-total-latency K-set violates the per-path latency
    bound or the pairwise spread tolerance.
    """
    node_ids = view.node_ids()
    if src not in node_ids or dst not in node_ids:
        raise KMError(f"src or dst not in topology: {src!r}, {dst!r}")
    if src == dst:
        raise KMError("src and dst must differ")
    if k < 1:
        raise KMError("k must be >= 1")

    links = {
        lk.id: lk
        for lk in sorted(_routable_links(view, src, dst), key=lambda l: l.id)
        if lk.residual_mbps + 1e-12 >= rate_mbps
    }
    used: dict[str, tuple[str, str]] = {}  # link id -> direction of flow (u, v)

    found = 0
    while found < k:
        path_arcs = _shortest_residual_path(node_ids, links, used, src, dst)
        if path_arcs is None:
            return AllocationFailure(f"only {found} disjoint paths", found)
        for u, v, lid in path_arcs:
            if used.get(lid) == (v, u):
                del used[lid]  # opposite traversal cancels the earlier one
            else:
                used[lid] = (u, v)
        found += 1

    paths = _decompose(used, links, src, dst, k)
    latencies = tuple(sum(links[lid].latency_ms for lid in p) for p in paths)
    pathset = PathSet(paths=paths, latencies_ms=latencies)
    worst = max(latencies)
    if worst > max_latency_ms + 1e-12:
        return AllocationFailure(
            f"path latency {worst} ms exceeds max latency {max_latency_ms} ms", k
        )
    if pathset.spread_ms > spread_ms + 1e-12:
        return AllocationFailure(
            f"latency spread {pathset.spread_ms} ms exceeds tolerance {spread_ms} ms", k
        )
    return pathset


def _routable_links(view: TopologyView, src: str, dst: str) -> list:
    """Links a src->dst path may use: hosts never forward, so a link that
    touches a host other than src or dst is left out."""
    relays = {n.id for n in view.nodes if n.kind is NodeKind.SWITCH} | {src, dst}
    return [lk for lk in view.links if relays.issuperset(lk.endpoints)]


def _shortest_residual_path(node_ids, links, used, src, dst):
    """Bellman-Ford over the residual arcs: unused links are traversable in
    both directions at +latency, links used by earlier rounds only against
    their flow direction at -latency."""
    arcs: list[tuple[str, str, float, str]] = []
    for lid, lk in links.items():
        a, b = lk.endpoints
        if lid in used:
            u, v = used[lid]
            arcs.append((v, u, -lk.latency_ms, lid))
        else:
            arcs.append((a, b, lk.latency_ms, lid))
            arcs.append((b, a, lk.latency_ms, lid))
    arcs.sort(key=lambda arc: (arc[0], arc[3], arc[1]))

    dist: dict[str, float] = {src: 0.0}
    pred: dict[str, tuple[str, str]] = {}
    for _ in range(max(len(node_ids) - 1, 1)):
        changed = False
        for u, v, w, lid in arcs:
            du = dist.get(u)
            if du is None:
                continue
            cand = du + w
            if cand < dist.get(v, float("inf")) - 1e-15:
                dist[v] = cand
                pred[v] = (u, lid)
                changed = True
        if not changed:
            break
    if dst not in dist:
        return None
    path: list[tuple[str, str, str]] = []
    cursor = dst
    hops = 0
    while cursor != src:
        u, lid = pred[cursor]
        path.append((u, cursor, lid))
        cursor = u
        hops += 1
        if hops > len(node_ids):
            raise KMError("predecessor cycle during path reconstruction")
    path.reverse()
    return path


def _decompose(used, links, src, dst, k):
    out: dict[str, list[tuple[str, str]]] = {}
    for lid, (u, v) in sorted(used.items()):
        out.setdefault(u, []).append((lid, v))
    paths = []
    for _ in range(k):
        cursor = src
        walk: list[str] = []
        nodes = [src]
        while cursor != dst:
            lid, nxt = out[cursor].pop(0)
            walk.append(lid)
            nodes.append(nxt)
            cursor = nxt
        # strip zero-cost loops so the deployed path never revisits a switch
        seen: dict[str, int] = {}
        i = 0
        while i < len(nodes):
            node = nodes[i]
            if node in seen:
                j = seen[node]
                del nodes[j + 1 : i + 1]
                walk[j:i] = []
                seen = {n: idx for idx, n in enumerate(nodes[: j + 1])}
                i = j + 1
                continue
            seen[node] = i
            i += 1
        paths.append(tuple(walk))
    return tuple(paths)


def default_shortest_path(view: TopologyView, src: str, dst: str) -> list[str] | None:
    """Minimum-latency path with ties broken by the lexicographically
    smallest node sequence; the deterministic baseline route."""
    import heapq

    adj: dict[str, list] = {n.id: [] for n in view.nodes}
    for lk in _routable_links(view, src, dst):
        a, b = lk.endpoints
        adj[a].append((lk.latency_ms, b, lk.id))
        adj[b].append((lk.latency_ms, a, lk.id))
    heap: list[tuple[float, tuple[str, ...], tuple[str, ...]]] = [(0.0, (src,), ())]
    done: set[str] = set()
    while heap:
        dist, nodes, linkids = heapq.heappop(heap)
        node = nodes[-1]
        if node == dst:
            return list(linkids)
        if node in done:
            continue
        done.add(node)
        for w, nxt, lid in sorted(adj[node], key=lambda t: (t[0], t[1])):
            if nxt not in done:
                heapq.heappush(heap, (dist + w, nodes + (nxt,), linkids + (lid,)))
    return None


# -- deployment and mirrored transmission ------------------------------------


@dataclass
class MirrorHandles:
    flow: FlowId
    pathset: PathSet
    reservation_handles: list[tuple[str, int]]
    open: bool = True

    @property
    def k(self) -> int:
        return self.pathset.k


def deploy_mirror_paths(
    sim: Simulator,
    flow: FlowId,
    pathset: PathSet,
    rate_mbps: float,
) -> MirrorHandles | AllocationFailure:
    """Deploy one rule set per mirror path (distinct path_index) and reserve
    the transfer rate on every link for cost accounting.

    A deployment conflict undoes what was deployed and is surfaced as an
    AllocationFailure. The flow is the caller's own, so retracting an index
    that was never deployed touches no other deployment.
    """
    if not pathset.paths:
        raise KMError("empty path set")
    handles = MirrorHandles(flow=flow, pathset=pathset, reservation_handles=[])
    try:
        for index, path in enumerate(pathset.paths):
            sim.deploy_path(flow, list(path), path_index=index)
            for lid in path:
                handles.reservation_handles.append(sim.reserve_capacity(lid, rate_mbps))
    except NetsimError as exc:
        retract_mirror_paths(sim, handles)
        return AllocationFailure(f"deployment conflict: {exc}", pathset.k)
    return handles


def retract_mirror_paths(sim: Simulator, handles: MirrorHandles) -> None:
    if not handles.open:
        return
    for index in range(handles.k):
        sim.retract_path(handles.flow, index)
    for h in handles.reservation_handles:
        sim.release_capacity(h)
    handles.open = False


def mirror_send(
    sim: Simulator,
    handles: MirrorHandles,
    seq: int,
    size_bytes: int,
    deadline_ms: float,
) -> list[DeliveryRecord]:
    """Send exactly one copy per live path, all with the same seq. There are
    no ACKs and no retransmissions: one traversal attempt per copy."""
    if not handles.open:
        raise KMError("handles closed")
    return send_copies(sim, handles.flow, handles.k, seq, size_bytes, deadline_ms)


def send_copies(sim: Simulator, flow: FlowId, copies: int, seq: int,
                size_bytes: int, deadline_ms: float) -> list[DeliveryRecord]:
    """Send one packet now on each path index 0..copies-1, all with `seq`."""
    return [
        sim.send_packet(Packet(flow, seq, size_bytes, sim.now_ms, deadline_ms, index))
        for index in range(copies)
    ]


def paced(sim: Simulator, count: int, gap_ms: float, send: Callable[[int], list]) -> list[list]:
    """The traffic loop: run `send(seq)` at simulated time `seq * gap_ms` for
    each seq in range(count); returns each call's result, indexed by seq."""
    out = []
    for seq in range(count):
        sim.run_until(seq * gap_ms)
        out.append(send(seq))
    return out


# -- delivery statistics --------------------------------------------------------


@dataclass(frozen=True)
class DeliveryStats:
    sent: int
    delivered_unique: int
    deadline_violations: int
    losses: int
    in_deadline_ratio: float


def earliest_latency(records: Iterable[DeliveryRecord]) -> dict[int, float | None]:
    """Each seq's earliest arrival latency over all its copies; None when no
    copy of that seq was delivered."""
    earliest: dict[int, float | None] = {}
    for rec in records:
        seq = rec.packet.seq
        best = earliest.get(seq)
        if rec.delivered and (best is None or rec.latency_ms < best):
            earliest[seq] = rec.latency_ms
        elif seq not in earliest:
            earliest[seq] = None
    return earliest


def collect_stats(records: Iterable[DeliveryRecord], deadline_ms: float) -> DeliveryStats:
    """Per-seq statistics over all mirror copies. A seq counts as in-deadline
    iff its earliest arrival latency is within the deadline; zero sends is
    vacuous success (ratio 1.0) so an idle module never ranks as failing."""
    latencies = list(earliest_latency(records).values())
    sent = len(latencies)
    delivered = sum(1 for lat in latencies if lat is not None)
    in_deadline = sum(1 for lat in latencies if lat is not None and lat <= deadline_ms)
    return DeliveryStats(
        sent=sent,
        delivered_unique=delivered,
        deadline_violations=delivered - in_deadline,
        losses=sent - delivered,
        in_deadline_ratio=(in_deadline / sent) if sent else 1.0,
    )


# -- the KMirror adapter agent -----------------------------------------------


KM_TYPE_NAME = "KMirror"


def _address_of(endpoint_value) -> str:
    if isinstance(endpoint_value, str):
        return endpoint_value
    if isinstance(endpoint_value, dict):
        return str(endpoint_value["address"])
    if isinstance(endpoint_value, (list, tuple)) and endpoint_value:
        return _address_of(endpoint_value[0])
    raise KMError(f"cannot extract an address from endpoint value {endpoint_value!r}")


class KMAgent(Agent):
    """Adapter agent: allocates K mirror paths between two endpoints, deploys
    them, reserves capacity, and composes the resource agents it relies on.
    It never binds simulator resources directly."""

    def __init__(self, agent_id, spec, typedef):
        super().__init__(agent_id, spec, typedef)
        self.handles: MirrorHandles | None = None
        self.ledger = None

    def setup(self, runtime, env_id: str, flow_tag: str, ledger=None) -> dict:
        """Allocate and deploy; raises KMAllocationError on failure. Returns
        the allocation summary relayed to the device side."""
        params = self.spec.params
        src = _address_of(params["endpointA"])
        dst = _address_of(params["endpointB"])
        k = int(params["K"])
        rate = float(params["rate"])
        max_latency = float(params["max_latency"])
        sim = runtime.sim

        result = allocate_disjoint_paths(sim.topology_snapshot(), src, dst, k, rate, max_latency)
        if isinstance(result, AllocationFailure):
            raise KMAllocationError(result)
        flow = FlowId(src, dst, tag=flow_tag)
        deployed = deploy_mirror_paths(sim, flow, result, rate)
        if isinstance(deployed, AllocationFailure):
            raise KMAllocationError(deployed)
        self.handles = deployed
        self.ledger = ledger
        if ledger is not None:
            # expenditure is the end-to-end reserved rate per mirror path
            for index, path in enumerate(deployed.pathset.paths):
                ledger.open("link_capacity", f"path-{index}:{'+'.join(path)}",
                            rate, sim.now_ms)
        self._spawn_composed(runtime, env_id, deployed.pathset)
        return {
            "k": deployed.k,
            "paths": [list(p) for p in deployed.pathset.paths],
            "latencies_ms": list(deployed.pathset.latencies_ms),
            "flow": [flow.src, flow.dst, flow.tag],
        }

    def _spawn_composed(self, runtime, env_id, pathset) -> None:
        """Spawn a LinkAgent per link and a SwitchAgent per switch on the
        paths. Each id enters `composed` as it is spawned, so a failure
        partway leaves the ones already spawned there for rollback."""
        link_ids: list[str] = []
        switch_ids: list[str] = []
        for path in pathset.paths:
            cursor = self.handles.flow.src
            for lid in path:
                if lid not in link_ids:
                    link_ids.append(lid)
                cursor = runtime.sim.link(lid).other_end(cursor)
                if cursor != self.handles.flow.dst and cursor not in switch_ids:
                    switch_ids.append(cursor)
        specs = [AgentSpec("LinkAgent", {"link": lid}) for lid in link_ids]
        specs += [AgentSpec("SwitchAgent", {"switch": sw}) for sw in switch_ids]
        for spec in specs:
            self.composed += (runtime.spawn_agent(env_id, spec),)

    def release(self, runtime) -> None:
        """Retract paths, release reservations and stop cost accrual. The
        composed agents are destroyed by the instance manager, which owns
        teardown ordering."""
        if self.handles is not None:
            retract_mirror_paths(runtime.sim, self.handles)
            if self.ledger is not None:
                self.ledger.close_all(runtime.sim.now_ms)

    def handle_message(self, runtime, message):
        super().handle_message(runtime, message)
        if message.payload.get("kind") == "describe" and self.handles is not None:
            runtime.reply(self, message, {
                "kind": "km_description",
                "k": self.handles.k,
                "paths": [list(p) for p in self.handles.pathset.paths],
            })


class KMAllocationError(KMError):
    def __init__(self, failure: AllocationFailure):
        super().__init__(f"allocation failed: {failure.reason}")
        self.failure = failure


KM_AGENT_TYPE = AgentTypeDef(
    type_name=KM_TYPE_NAME,
    kind=AgentKind.ADAPTER,
    params=(
        ParamSpec("endpointA", "endpoint"),
        ParamSpec("endpointB", "endpoint"),
        ParamSpec("K", "int"),
        ParamSpec("rate", "mbps"),
        ParamSpec("max_latency", "ms"),
    ),
    message_kinds=("describe",),
    doc="Mirrors one connection over K link-disjoint paths with near-identical latency.",
    factory=KMAgent,
)


def register_km_type(library: AgentTypeLibrary) -> None:
    library.register(KM_AGENT_TYPE)
