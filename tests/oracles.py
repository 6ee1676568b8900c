"""Independent oracles used by the test suite.

Everything here is deliberately brute force and shares no code with the
implementation under test: latency recomputation from first principles,
exhaustive simple-path enumeration for disjoint-set feasibility, a plain
BFS max-flow for the unit-capacity bound, a duplicate filter that
rebuilds its seen-set on every new highest seq, per-seq delivery
statistics that group every copy by seq before reducing, the experiment
report's rows and stats in two passes over every seq's records, simulator
route, reservation and injection tables that filter every entry on read,
a residual Bellman-Ford that relaxes every arc on every pass, and a flow
decomposition that cuts a walk's loops only after the whole walk.
"""

from __future__ import annotations

import random
from collections import deque

from socketstore.kmflash import DeliveryStats, KMError
from socketstore.netsim import (
    CapacityError,
    DeliveryRecord,
    FlowRule,
    Hop,
    LatencyInjection,
    LinkView,
    NetsimError,
    Node,
    NodeKind,
    Packet,
    RoutingError,
    Topology,
    TopologyError,
    TopologyView,
)


def recompute_latency_ms(
    record: DeliveryRecord,
    topology: Topology,
    injections: list[LatencyInjection],
) -> float:
    """Re-derive a delivered packet's latency from static link attributes and
    the injection windows, using only the per-hop entry times.

    Times follow the published integer-nanosecond base, so every duration is
    quantized to whole nanoseconds exactly as documented.
    """

    def ns(ms: float) -> int:
        return round(ms * 1_000_000)

    total = 0
    for hop in record.hops:
        link = topology.links[hop.link]
        delay = ns(link.base_latency_ms)
        enter = ns(hop.enter_ms)
        for inj in injections:
            if inj.link == hop.link and ns(inj.start_ms) <= enter < ns(inj.end_ms):
                delay += ns(inj.extra_ms)
        total += delay
    return total / 1_000_000


def _adjacency(view: TopologyView) -> dict[str, list[LinkView]]:
    adj: dict[str, list[LinkView]] = {n.id: [] for n in view.nodes}
    for lk in view.links:
        a, b = lk.endpoints
        adj[a].append(lk)
        adj[b].append(lk)
    return adj


def _hosts(view: TopologyView) -> set[str]:
    return {n.id for n in view.nodes if n.kind is NodeKind.HOST}


def enumerate_simple_paths(
    view: TopologyView, src: str, dst: str, min_residual: float = 0.0
) -> list[tuple[tuple[str, ...], float]]:
    """All simple paths src->dst as (link-id tuple, total latency), using only
    links whose residual capacity is >= min_residual. Hosts never forward:
    no path passes through a host other than src and dst."""
    adj = _adjacency(view)
    hosts = _hosts(view)
    paths: list[tuple[tuple[str, ...], float]] = []

    def walk(node, seen_nodes, links_so_far, latency):
        if node == dst:
            paths.append((tuple(links_so_far), latency))
            return
        for lk in adj[node]:
            if lk.residual_mbps < min_residual:
                continue
            nxt = lk.endpoints[1] if lk.endpoints[0] == node else lk.endpoints[0]
            if nxt in seen_nodes or (nxt in hosts and nxt != dst):
                continue
            links_so_far.append(lk.id)
            walk(nxt, seen_nodes | {nxt}, links_so_far, latency + lk.latency_ms)
            links_so_far.pop()

    walk(src, {src}, [], 0.0)
    return paths


def brute_force_disjoint(
    view: TopologyView,
    src: str,
    dst: str,
    k: int,
    rate_mbps: float = 0.0,
    max_latency_ms: float = float("inf"),
    spread_ms: float = float("inf"),
):
    """Search every K-subset of simple paths for pairwise link-disjoint sets.

    Returns (disjoint_feasible, best_constrained_total) where
    disjoint_feasible ignores latency/spread constraints and
    best_constrained_total is the minimum total latency over sets meeting
    every constraint (None when no such set exists).
    """
    paths = enumerate_simple_paths(view, src, dst, min_residual=rate_mbps)
    paths.sort(key=lambda p: (p[1], p[0]))

    def find_any(start, chosen, used_links) -> bool:
        if chosen == k:
            return True
        for i in range(start, len(paths)):
            links, _ = paths[i]
            if used_links.isdisjoint(links):
                if find_any(i + 1, chosen + 1, used_links | set(links)):
                    return True
        return False

    feasible = find_any(0, 0, frozenset())

    best: list[float | None] = [None]

    def search_best(start, chosen, used_links, total):
        if len(chosen) == k:
            lats = [paths[i][1] for i in chosen]
            if all(l <= max_latency_ms + 1e-12 for l in lats) and (
                max(lats) - min(lats) <= spread_ms + 1e-12
            ):
                if best[0] is None or total < best[0]:
                    best[0] = total
            return
        for i in range(start, len(paths)):
            links, lat = paths[i]
            if best[0] is not None and total + lat >= best[0]:
                # paths are latency-sorted: every deeper completion from here
                # costs at least `total + lat`, so the incumbent stands
                break
            if used_links.isdisjoint(links):
                search_best(i + 1, chosen + [i], used_links | set(links), total + lat)

    if feasible:
        search_best(0, [], frozenset(), 0.0)
    return feasible, best[0]


def max_flow_unit(view: TopologyView, src: str, dst: str, min_residual: float = 0.0) -> int:
    """Unit-capacity max flow over the undirected graph (BFS augmentation).

    Each physical link carries at most one unit regardless of direction,
    modeled by the standard opposite-arc construction. Links touching a host
    other than src and dst carry nothing, since hosts never forward.
    """
    blocked = _hosts(view) - {src, dst}
    arcs: dict[str, list[int]] = {n.id: [] for n in view.nodes}
    cap: list[int] = []
    to: list[str] = []
    rev: list[int] = []

    def add_edge(u, v):
        arcs[u].append(len(cap))
        cap.append(1)
        to.append(v)
        rev.append(len(cap))
        arcs[v].append(len(cap))
        cap.append(1)
        to.append(u)
        rev.append(len(cap) - 2)

    for lk in view.links:
        if lk.residual_mbps < min_residual or blocked.intersection(lk.endpoints):
            continue
        add_edge(*lk.endpoints)

    flow = 0
    while True:
        parent: dict[str, tuple[str, int]] = {}
        q = deque([src])
        while q and dst not in parent:
            u = q.popleft()
            for ei in arcs[u]:
                v = to[ei]
                if cap[ei] > 0 and v not in parent and v != src:
                    parent[v] = (u, ei)
                    q.append(v)
        if dst not in parent:
            return flow
        v = dst
        while v != src:
            u, ei = parent[v]
            cap[ei] -= 1
            cap[rev[ei]] += 1
            v = u
        flow += 1


def random_connected_view(rng: random.Random, max_nodes: int = 8,
                          tenths: tuple[int, int] = (1, 50)) -> TopologyView:
    """Random connected graph of switches as a TopologyView, with latencies
    of a whole number of tenths of a millisecond drawn from the range
    `tenths`, so sums stay exactly comparable."""
    n = rng.randint(2, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    nodes = tuple(Node(i, NodeKind.SWITCH) for i in ids)
    edges: set[tuple[str, str]] = set()
    order = ids[:]
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.sample(ids, 2)
        edges.add((min(a, b), max(a, b)))
    links = tuple(
        LinkView(
            id=f"{a}-{b}",
            endpoints=(a, b),
            capacity_mbps=100.0,
            latency_ms=rng.randint(*tenths) / 10.0,
            load_mbps=0.0,
        )
        for a, b in sorted(edges)
    )
    return TopologyView(nodes=nodes, links=links, taken_at_ms=0.0)


def reference_shortest_residual_path(node_ids, links, used, src, dst):
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


def reference_decompose(used, src, dst, k):
    """The K src->dst paths of the flow `used` (link id -> (u, v)): each walk
    takes the lowest-id unwalked link out of its node until it reaches dst,
    and only then, while a node appears twice, cuts the walk between the
    earliest repeat and that node's first visit."""
    left = sorted(used.items())
    paths = []
    for _ in range(k):
        nodes, links = [src], []
        while nodes[-1] != dst:
            i = next(i for i, (_, (u, _)) in enumerate(left) if u == nodes[-1])
            lid, (_, v) = left.pop(i)
            nodes.append(v)
            links.append(lid)
        while len(set(nodes)) < len(nodes):
            i = next(i for i, n in enumerate(nodes) if n in nodes[:i])
            j = nodes.index(nodes[i])
            del nodes[j + 1 : i + 1]
            del links[j:i]
        paths.append(tuple(links))
    return tuple(paths)


class ReferenceDedupReceiver:
    """Sliding-window duplicate filter that keeps exactly the seqs inside
    the window: the seen-set is rebuilt whenever the highest seq moves, so
    every offer costs O(window). Pending payloads are kept in full and
    filtered to the window when drained."""

    def __init__(self, window: int):
        self.window = window
        self._seen: set[int] = set()
        self._max_seq = -1
        self._pending: list[tuple[float, int, object]] = []

    def offer(self, seq: int, arrive_ms: float, payload) -> bool:
        if seq <= self._max_seq - self.window:
            return False
        if seq in self._seen:
            return False
        self._seen.add(seq)
        if seq > self._max_seq:
            self._max_seq = seq
            floor = self._max_seq - self.window
            self._seen = {s for s in self._seen if s > floor}
        self._pending.append((arrive_ms, seq, payload))
        return True

    def drain(self) -> list[tuple[int, object]]:
        floor = self._max_seq - self.window
        self._pending.sort(key=lambda t: (t[0], t[1]))
        out = [(seq, payload) for _, seq, payload in self._pending if seq > floor]
        self._pending = []
        return out


def reference_collect_stats(records, deadline_ms: float) -> DeliveryStats:
    """Group the copies by seq, then judge each seq by its earliest
    delivered copy; no sends at all is a ratio of 1.0."""
    by_seq: dict[int, list[DeliveryRecord]] = {}
    for rec in records:
        by_seq.setdefault(rec.packet.seq, []).append(rec)
    sent = len(by_seq)
    delivered = 0
    in_deadline = 0
    for recs in by_seq.values():
        latencies = [r.latency_ms for r in recs if r.delivered]
        if not latencies:
            continue
        delivered += 1
        if min(latencies) <= deadline_ms:
            in_deadline += 1
    return DeliveryStats(
        sent=sent,
        delivered_unique=delivered,
        deadline_violations=delivered - in_deadline,
        losses=sent - delivered,
        in_deadline_ratio=(in_deadline / sent) if sent else 1.0,
    )


def reference_report(per_seq: list[list[DeliveryRecord]], deadline_ms: float):
    """The experiment report's rows, as plain tuples in CSV column order, and its
    stats, by the two passes the report once made over the records of every
    seq (each sent at least one copy): each seq's earliest delivered latency
    first, then one row per seq from its copies 0 and 1 and that latency."""
    earliest = []
    for records in per_seq:
        if records:
            first = None
            for rec in records:
                if rec.delivered and (first is None or rec.latency_ms < first):
                    first = rec.latency_ms
            earliest.append(first)
    rows = [(seq, records[0].packet.sent_at_ms, records[0].latency_ms,
             records[1].latency_ms if len(records) > 1 else None, first,
             0 if first is not None and first <= deadline_ms else 1)
            for seq, (records, first) in enumerate(zip(per_seq, earliest))]
    return rows, reference_collect_stats([rec for records in per_seq for rec in records],
                                         deadline_ms)


class ReferenceSimulator:
    """Route, reservation and injection bookkeeping over one topology, kept
    in flat tables that are filtered on every read: switch rules keyed by
    (switch, flow, path_index), the source's egress link in a second table
    keyed by (flow, path_index), reservations keyed by an integer handle and
    one list of every latency injection. Its clock only moves on
    `run_until`, and it keeps no delivery records; `send_packet` returns the same
    records as the simulator and keeps the per-hop trace it built in
    `last_hops`, and `topology_snapshot` views every link afresh."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.now_ns = 0
        self._rules: dict[tuple, FlowRule] = {}
        self._host_egress: dict[tuple, str] = {}
        self._injections: list[LatencyInjection] = []
        self._reservations: dict[int, tuple[str, float]] = {}
        self._reservation_seq = 0

    def _link(self, link_id):
        if link_id not in self.topology.links:
            raise TopologyError(f"unknown link {link_id!r}")
        return self.topology.links[link_id]

    def _node(self, node_id):
        if node_id not in self.topology.nodes:
            raise TopologyError(f"unknown node {node_id!r}")
        return self.topology.nodes[node_id]

    @staticmethod
    def _other_end(link, node):
        a, b = link.endpoints
        if node not in (a, b):
            raise RoutingError(f"node {node!r} is not an endpoint of link {link.id!r}")
        return b if node == a else a

    def remove_link(self, link_id):
        self._link(link_id)
        del self.topology.links[link_id]
        self._rules = {k: r for k, r in self._rules.items() if r.out_link != link_id}
        self._host_egress = {k: lk for k, lk in self._host_egress.items() if lk != link_id}
        self._injections = [i for i in self._injections if i.link != link_id]
        self._reservations = {
            h: (lk, mbps) for h, (lk, mbps) in self._reservations.items() if lk != link_id
        }

    def deploy_path(self, flow, path, path_index=0):
        if not path:
            raise RoutingError("empty path")
        links = [self._link(lid) for lid in path]
        cursor = flow.src
        self._node(cursor)
        nodes_on_path = [cursor]
        for lk in links:
            if cursor not in lk.endpoints:
                raise RoutingError(f"non-contiguous path: link {lk.id!r} does not touch {cursor!r}")
            cursor = self._other_end(lk, cursor)
            nodes_on_path.append(cursor)
        if cursor != flow.dst:
            raise RoutingError(f"path ends at {cursor!r}, not flow destination {flow.dst!r}")
        for hop_node in nodes_on_path[1:-1]:
            if self._node(hop_node).kind is not NodeKind.SWITCH:
                raise RoutingError(f"path traverses host {hop_node!r}")
        if len(set(nodes_on_path)) != len(nodes_on_path):
            raise RoutingError("path revisits a node")
        rules = [
            FlowRule(hop_node, flow, path_index, links[i].id)
            for i, hop_node in enumerate(nodes_on_path[1:-1], start=1)
        ]
        self.retract_path(flow, path_index)
        for rule in rules:
            self._rules[(rule.switch, flow, path_index)] = rule
        self._host_egress[(flow, path_index)] = links[0].id
        return rules

    def retract_path(self, flow, path_index=0):
        keys = [k for k in self._rules if k[1] == flow and k[2] == path_index]
        for k in keys:
            del self._rules[k]
        self._host_egress.pop((flow, path_index), None)
        return len(keys)

    def all_rules(self):
        return list(self._rules.values())

    def inject_latency(self, inj):
        self._link(inj.link)
        if inj.extra_ms <= 0:
            raise NetsimError("non-positive injection")
        if inj.start_ms >= inj.end_ms:
            raise NetsimError("inverted window")
        self._injections.append(inj)

    def _extra_latency_ns(self, link_id, at_ns):
        return sum(
            _ns(inj.extra_ms) for inj in self._injections
            if inj.link == link_id and _ns(inj.start_ms) <= at_ns < _ns(inj.end_ms)
        )

    def reserve_capacity(self, link_id, mbps):
        link = self._link(link_id)
        if mbps <= 0:
            raise CapacityError("reservation must be positive")
        if self.link_load_mbps(link_id) + mbps > link.capacity_mbps + 1e-12:
            raise CapacityError(f"capacity exceeded on link {link_id!r}")
        self._reservation_seq += 1
        self._reservations[self._reservation_seq] = (link_id, mbps)
        return self._reservation_seq

    def release_capacity(self, handle):
        self._reservations.pop(handle, None)

    def link_load_mbps(self, link_id):
        return sum(mbps for lk, mbps in self._reservations.values() if lk == link_id)

    def run_until(self, until_ms):
        self.now_ns = max(self.now_ns, _ns(until_ms))

    def topology_snapshot(self) -> TopologyView:
        return TopologyView(
            nodes=tuple(self.topology.nodes.values()),
            links=tuple(
                LinkView(lk.id, lk.endpoints, lk.capacity_mbps,
                         (_ns(lk.base_latency_ms) + self._extra_latency_ns(lk.id, self.now_ns))
                         / 1_000_000,
                         self.link_load_mbps(lk.id))
                for lk in self.topology.links.values()
            ),
            taken_at_ms=self.now_ns / 1_000_000,
        )

    def send_packet(self, packet: Packet) -> DeliveryRecord:
        flow = packet.flow
        self._node(flow.src)
        t_ns = _ns(packet.sent_at_ms)
        cursor = flow.src
        hops: list[Hop] = []
        delays: list[int] = []
        if flow.dst not in self.topology.nodes:
            return self._record(packet, False, None, None, False, hops, delays,
                                drop_reason="unroutable destination")
        while cursor != flow.dst:
            if cursor == flow.src:
                out = self._host_egress.get((flow, packet.path_index))
            else:
                rule = self._rules.get((cursor, flow, packet.path_index))
                out = rule.out_link if rule else None
            if out is None:
                return self._record(packet, False, None, None, False, hops, delays,
                                    drop_reason=f"no rule at {cursor}")
            if len(hops) >= len(self.topology.links) + 1:
                return self._record(packet, False, None, None, False, hops, delays,
                                    drop_reason="routing loop")
            link = self._link(out)
            delay_ns = _ns(link.base_latency_ms) + self._extra_latency_ns(out, t_ns)
            hops.append(Hop(out, t_ns / 1_000_000, delay_ns / 1_000_000))
            delays.append(delay_ns)
            t_ns += delay_ns
            cursor = self._other_end(link, cursor)
        latency_ns = t_ns - _ns(packet.sent_at_ms)
        return self._record(packet, True, t_ns / 1_000_000, latency_ns / 1_000_000,
                            latency_ns > _ns(packet.deadline_ms), hops, delays)

    def _record(self, packet, delivered, arrive_at_ms, latency_ms, violated, hops, delays,
                drop_reason=None):
        self.last_hops = tuple(hops)
        return DeliveryRecord(packet, delivered, arrive_at_ms, latency_ms, violated,
                              tuple(hop.link for hop in hops), tuple(delays), drop_reason)


def _ns(ms: float) -> int:
    return round(ms * 1_000_000)
