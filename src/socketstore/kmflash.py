"""K-paths mirroring: constrained K link-disjoint path allocation, mirrored
transmission with a hard per-packet deadline, and the KMirror adapter agent
behind the flash-delivery module.

Allocation runs K rounds of successive shortest paths with edge reversal
(negative-arc Bellman-Ford on the residual graph). Unlike naive iterative
edge removal this cannot produce false negatives on trap topologies, and
the resulting K-set has minimum total latency. Bellman-Ford rescans only
the sources whose distance changed since their last scan (exact: the arcs
it skips could not fire), over arc lists built once per call in link-id
order. `allocate_on` memoizes the search per simulator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable
from weakref import WeakKeyDictionary

from .agents import Agent, AgentKind, AgentTypeDef, AgentTypeLibrary, AgentSpec, ParamSpec
from .netsim import (
    DeliveryRecord,
    FlowId,
    NetsimError,
    NodeKind,
    Packet,
    Simulator,
    TopologyView,
    ms_to_ns,
    new_tuple,
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
    arcs: dict[str, list[tuple[str, float, str]]] = {n: [] for n in sorted(node_ids)}
    for lid, lk in links.items():
        a, b = lk.endpoints
        arcs[a].append((b, lk.latency_ms, lid))
        arcs[b].append((a, lk.latency_ms, lid))

    for found in range(k):
        path_arcs = _shortest_residual_path(arcs, used, src, dst)
        if path_arcs is None:
            return AllocationFailure(f"only {found} disjoint paths", found)
        for u, v, lid in path_arcs:
            if used.get(lid) == (v, u):
                del used[lid]  # opposite traversal cancels the earlier one
            else:
                used[lid] = (u, v)

    paths = _decompose(used, src, dst, k)
    latencies = tuple(sum(links[lid].latency_ms for lid in p) for p in paths)
    return _within_bounds(PathSet(paths, latencies), max_latency_ms, spread_ms)


def _within_bounds(pathset: PathSet, max_latency_ms: float,
                   spread_ms: float) -> PathSet | AllocationFailure:
    worst = max(pathset.latencies_ms)
    if not worst <= max_latency_ms + 1e-12:
        return AllocationFailure(
            f"path latency {worst} ms exceeds max latency {max_latency_ms} ms", pathset.k
        )
    if not pathset.spread_ms <= spread_ms + 1e-12:
        return AllocationFailure(
            f"latency spread {pathset.spread_ms} ms exceeds tolerance {spread_ms} ms", pathset.k
        )
    return pathset


# simulator -> [{link id: latency} of the links whose residual covers the rate, {(src, dst, k):
# PathSet, (src, dst, None): "only n disjoint paths"}, that rate, `sim.changes` at that call]
_ALLOCATIONS: WeakKeyDictionary = WeakKeyDictionary()


def allocate_on(sim: Simulator, src: str, dst: str, k: int, rate_mbps: float,
                max_latency_ms: float, spread_ms: float = DEFAULT_SPREAD_MS
                ) -> PathSet | AllocationFailure:
    """`allocate_disjoint_paths` on a snapshot of `sim`, memoized per simulator
    until the links whose residual covers the rate, or their latencies, change
    (all the search reads: node kinds and link ends are fixed). One loop rechecks
    that map: every link on a first call or a new rate, else the links changed
    since the last call; results go only when it differs, and only a miss snapshots.
    A pair keeps a PathSet per k up to its disjoint-path count n and one failure
    for every k above n; the latency and spread bounds are checked on every call."""
    memo = _ALLOCATIONS.setdefault(sim, [{}, {}, None, 0])
    eligible, now = memo[0], sim.now_ms
    recheck = (sim.links_changed_since(memo[3]) if memo[2] == rate_mbps
               else dict.fromkeys([*eligible, *sim.topology.links], True))
    for lid, injected in recheck.items():
        lk, old = sim.topology.links.get(lid), eligible.pop(lid, None)
        if lk is not None and lk.capacity_mbps - sim.link_load_mbps(lid) + 1e-12 >= rate_mbps:
            # without injections a link keeps its base delay
            eligible[lid] = sim.link_delay_ms(lid, now) if injected or old is None else old
        if eligible.get(lid) != old:
            memo[1].clear()
    memo[2:] = rate_mbps, sim.changes
    found = memo[1].get((src, dst, None))
    if found is None or k <= found.max_feasible_k:
        found = memo[1].get((src, dst, k))
    if found is None:
        found = allocate_disjoint_paths(sim.topology_snapshot(), src, dst, k, rate_mbps,
                                        math.inf, math.inf)
        memo[1][src, dst, k if isinstance(found, PathSet) else None] = found
    if isinstance(found, AllocationFailure):
        return found
    return _within_bounds(found, max_latency_ms, spread_ms)


def _routable_links(view: TopologyView, src: str, dst: str) -> list:
    """Links a src->dst path may use: hosts never forward, so a link that
    touches a host other than src or dst is left out."""
    relays = {n.id for n in view.nodes if n.kind is NodeKind.SWITCH} | {src, dst}
    return [lk for lk in view.links if relays.issuperset(lk.endpoints)]


def _shortest_residual_path(arcs, used, src, dst):
    """Bellman-Ford over the residual arcs. `arcs` holds each node's arcs in
    link-id order with every link unused, traversable both ways at +latency;
    a link used by earlier rounds is traversable only against its flow
    direction at -latency, so only the nodes it touches get a patched list,
    in the same order. A pass skips a source whose dist is unchanged since
    its last scan: its candidates are the same and the dists they face can
    only have fallen, so none fires."""
    out = dict(arcs)
    for n in {n for flow in used.values() for n in flow}:
        out[n] = [(v, -w, lid) if used.get(lid) == (v, n) else (v, w, lid)
                  for v, w, lid in arcs[n] if used.get(lid) != (n, v)]

    dist = dict.fromkeys(out, float("inf"))
    dist[src] = 0.0
    pred: dict[str, tuple[str, str]] = {}
    dirty = {src}
    for _ in range(max(len(out) - 1, 1)):
        if not dirty:
            break
        for u, u_arcs in out.items():
            if u in dirty:
                dirty.discard(u)
                du = dist[u]
                for v, w, lid in u_arcs:
                    cand = du + w
                    if cand < dist[v] - 1e-15:
                        dist[v] = cand
                        pred[v] = (u, lid)
                        dirty.add(v)
    if dst not in pred:
        return None
    path: list[tuple[str, str, str]] = []
    cursor = dst
    while cursor != src:
        u, lid = pred[cursor]
        path.append((u, cursor, lid))
        cursor = u
        if len(path) > len(out):
            raise KMError("predecessor cycle during path reconstruction")
    path.reverse()
    return path


def _decompose(used, src, dst, k):
    """The K src->dst paths of the flow `used` (link id -> direction): each walk
    leaves a node by its lowest-id unwalked link and, on coming back to a node
    it holds, cuts the zero-cost loop since then, so no path revisits a switch."""
    out: dict[str, list[tuple[str, str]]] = {}
    for lid, (u, v) in sorted(used.items()):
        out.setdefault(u, []).append((lid, v))
    paths = []
    for _ in range(k):
        cursor, walk = src, {src: None}  # each node walked -> the link into it, in walk order
        while cursor != dst:
            lid, cursor = out[cursor].pop(0)
            if cursor in walk:
                while next(reversed(walk)) != cursor:
                    walk.popitem()
            else:
                walk[cursor] = lid
        paths.append(tuple(walk.values())[1:])
    return tuple(paths)


def default_shortest_path(view: TopologyView, src: str, dst: str) -> list[str] | None:
    """Minimum-latency path with ties broken by the lexicographically
    smallest node sequence; the deterministic baseline route. Latencies add
    up in whole nanoseconds, so equal sums tie exactly."""
    adj: dict[str, list] = {n.id: [] for n in view.nodes}
    for lk in _routable_links(view, src, dst):
        a, b = lk.endpoints
        adj[a].append((ms_to_ns(lk.latency_ms), b, lk.id))
        adj[b].append((ms_to_ns(lk.latency_ms), a, lk.id))
    heap: list[tuple[int, tuple[str, ...], tuple[str, ...]]] = [(0, (src,), ())]
    done: set[str] = set()
    while heap:
        dist, nodes, linkids = heapq.heappop(heap)
        node = nodes[-1]
        if node == dst:
            return list(linkids)
        if node in done:
            continue
        done.add(node)
        for w, nxt, lid in adj[node]:
            if nxt not in done:
                heapq.heappush(heap, (dist + w, nodes + (nxt,), linkids + (lid,)))
    return None


def deploy_default_route(sim: Simulator, flow: FlowId) -> bool:
    """Deploy `flow` as path 0 over the default route between its ends;
    False, deploying nothing, when either end is unknown or unreachable."""
    if flow.src not in sim.topology.nodes or flow.dst not in sim.topology.nodes:
        return False
    path = default_shortest_path(sim.topology_snapshot(), flow.src, flow.dst)
    if path:
        sim.deploy_path(flow, path)
    return bool(path)


# -- deployment and mirrored transmission ------------------------------------


@dataclass
class MirrorHandles:
    flow: FlowId
    pathset: PathSet
    reservation_handles: list[tuple[str, int]]
    switches: list[str] = field(default_factory=list)  # hop switches, path by path
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
            handles.switches += [r.switch for r in sim.deploy_path(flow, path, index)]
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
    no ACKs and no retransmissions: one traversal attempt per copy, copy i
    on path index i."""
    if not handles.open:
        raise KMError("handles closed")
    return send_copies(sim, handles.flow, handles.k, seq, size_bytes, deadline_ms)


def send_copies(sim: Simulator, flow: FlowId, copies: int, seq: int,
                size_bytes: int, deadline_ms: float) -> list[DeliveryRecord]:
    """Send one packet now on each path index 0..copies-1, all with `seq`;
    copy i is sent on path index i."""
    now, send = sim.now_ms, sim.send_packet
    return [send(new_tuple(Packet, (flow, seq, size_bytes, now, deadline_ms, index)))
            for index in range(copies)]


def paced(sim: Simulator, count: int, gap_ms: float, send: Callable[[int], list]) -> list[list]:
    """The traffic loop: run `send(seq)` at simulated time `seq * gap_ms` for
    each seq in range(count); returns each call's result, indexed by seq."""
    out = []
    for seq in range(count):
        sim.run_until(seq * gap_ms)
        out.append(send(seq))
    return out


def run_single_path(sim: Simulator, count: int, gap_ms: float, size_bytes: int,
                    deadline_ms: float) -> list[list[DeliveryRecord]] | None:
    """The single-path baseline: deploy flow "baseline" over the default route
    between the topology's first two hosts, then pace one copy per seq; each
    seq's records, or None when there is no route (or no second host)."""
    hosts = sim.topology.hosts()[:2]
    if len(hosts) < 2 or not deploy_default_route(sim, flow := FlowId(*hosts, "baseline")):
        return None
    return paced(sim, count, gap_ms,
                 lambda seq: send_copies(sim, flow, 1, seq, size_bytes, deadline_ms))


# -- delivery statistics --------------------------------------------------------


@dataclass(frozen=True)
class DeliveryStats:
    sent: int
    delivered_unique: int
    deadline_violations: int
    losses: int
    in_deadline_ratio: float


def earliest_latencies(per_seq: Iterable[list[DeliveryRecord]]) -> list[float | None]:
    """Each seq's earliest delivered latency (None: lost), for each seq that sent a copy."""
    out = []
    for records in per_seq:
        if records:
            first = None
            for rec in records:
                if rec.delivered and (first is None or rec.latency_ms < first):
                    first = rec.latency_ms
            out.append(first)
    return out


def delivery_stats(latencies: Iterable[float | None], deadline_ms: float) -> DeliveryStats:
    """Statistics over each seq's earliest latency (None: lost). A seq counts
    as in-deadline iff that latency is within the deadline; zero sends is
    vacuous success (ratio 1.0) so an idle module never ranks as failing."""
    latencies = list(latencies)
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
    if isinstance(endpoint_value, dict) and "address" in endpoint_value:
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

        result = allocate_on(sim, src, dst, k, rate, max_latency)
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
        self._spawn_composed(runtime, env_id)
        return {
            "k": deployed.k,
            "paths": [list(p) for p in deployed.pathset.paths],
            "latencies_ms": list(deployed.pathset.latencies_ms),
            "flow": [flow.src, flow.dst, flow.tag],
        }

    def _spawn_composed(self, runtime, env_id) -> None:
        """Acquire the environment's LinkAgent per link, then SwitchAgent per
        hop switch, of the deployed paths in path order. The ids acquired
        enter `composed` even when an acquire fails partway, so a failure
        leaves exactly the ones to release on rollback."""
        paths = self.handles.pathset.paths
        specs = [AgentSpec("LinkAgent", {"link": lid})
                 for lid in dict.fromkeys(lid for path in paths for lid in path)]
        specs += [AgentSpec("SwitchAgent", {"switch": sw})
                  for sw in dict.fromkeys(self.handles.switches)]
        acquired = []
        try:
            for spec in specs:
                acquired.append(runtime.acquire_agent(env_id, spec))
        finally:
            self.composed = tuple(acquired)

    def release(self, runtime) -> None:
        """Retract paths, release reservations and stop cost accrual. The
        composed agents are released by the instance manager, which owns
        teardown ordering."""
        if self.handles is not None:
            retract_mirror_paths(runtime.sim, self.handles)
            if self.ledger is not None:
                self.ledger.close_all(runtime.sim.now_ms)


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
    factory=KMAgent,
)


def register_km_type(library: AgentTypeLibrary) -> None:
    library.register(KM_AGENT_TYPE)
