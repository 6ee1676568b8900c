"""Discrete-event simulation of a small SDN: topology, per-flow path rules,
capacity reservations, latency injection and packet delivery.

Time is kept as integer nanoseconds internally and reported as float
milliseconds, so event ordering never suffers float drift.
"""

from __future__ import annotations

import heapq
import json
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Sequence

from .records import from_doc

NS_PER_MS = 1_000_000
MAX_MS = sys.float_info.max / NS_PER_MS  # the largest time that ms_to_ns converts


def ms_to_ns(ms: float) -> int:
    return round(ms * NS_PER_MS)


def ns_to_ms(ns: int) -> float:
    return ns / NS_PER_MS


# `new_tuple(Cls, values)`: the named tuple `Cls` of all its field values in order,
# without the argument parsing of `Cls.__new__`; per-packet records use it.
new_tuple = tuple.__new__


class NetsimError(Exception):
    """Base error for topology and simulator misuse."""


class TopologyError(NetsimError):
    pass


class RoutingError(NetsimError):
    pass


class CapacityError(NetsimError):
    pass


class NodeKind(str, Enum):
    HOST = "host"
    SWITCH = "switch"


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    nic_count: int | None = None  # hosts only


@dataclass(frozen=True)
class Link:
    """Bidirectional physical link with symmetric static attributes."""

    id: str
    endpoints: tuple[str, str]
    capacity_mbps: float
    base_latency_ms: float


class FlowId(NamedTuple):
    src: str
    dst: str
    tag: str = ""


class FlowRule(NamedTuple):
    switch: str
    flow: FlowId
    path_index: int
    out_link: str


@dataclass(frozen=True)
class LatencyInjection:
    """Adds `extra_ms` to a link's delay for traversals inside [start, end)."""

    link: str
    extra_ms: float
    start_ms: float
    end_ms: float


class Packet(NamedTuple):
    flow: FlowId
    seq: int
    size_bytes: int
    sent_at_ms: float
    deadline_ms: float
    path_index: int = 0


@dataclass(frozen=True, slots=True)
class Hop:
    link: str
    enter_ms: float
    delay_ms: float


class DeliveryRecord(NamedTuple):
    packet: Packet
    delivered: bool
    arrive_at_ms: float | None
    latency_ms: float | None
    violated_deadline: bool
    hop_links: tuple[str, ...]  # the links walked, in order; shared between records
    hop_delays_ns: tuple[int, ...]  # each walked link's delay, injections included
    drop_reason: str | None = None

    @property
    def hops(self) -> tuple[Hop, ...]:
        """Per-hop trace: each hop enters at the send time plus the delays before it."""
        enter_ns = accumulate(self.hop_delays_ns, initial=ms_to_ns(self.packet.sent_at_ms))
        return tuple(Hop(link, ns_to_ms(t_ns), ns_to_ms(delay_ns))
                     for link, t_ns, delay_ns in zip(self.hop_links, enter_ns, self.hop_delays_ns))


@dataclass(frozen=True)
class LinkView:
    """Immutable per-link snapshot entry; `latency_ms` includes any injection
    active at snapshot time."""

    id: str
    endpoints: tuple[str, str]
    capacity_mbps: float
    latency_ms: float
    load_mbps: float

    @property
    def residual_mbps(self) -> float:
        return self.capacity_mbps - self.load_mbps


@dataclass(frozen=True)
class TopologyView:
    nodes: tuple[Node, ...]
    links: tuple[LinkView, ...]
    taken_at_ms: float

    def node_ids(self) -> set[str]:
        return {n.id for n in self.nodes}


class Topology:
    """Validated static graph of hosts, switches and links."""

    def __init__(self, nodes: Iterable[Node], links: Iterable[Link]):
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise TopologyError(f"duplicate id {node.id!r}")
            if node.kind is NodeKind.HOST:
                if node.nic_count is None or node.nic_count < 1:
                    raise TopologyError(f"host {node.id!r} needs nic_count >= 1")
            elif node.nic_count is not None:
                raise TopologyError(f"switch {node.id!r} must not carry nic_count")
            self.nodes[node.id] = node
        if not self.nodes:
            raise TopologyError("empty topology")
        for link in links:
            if link.id in self.links or link.id in self.nodes:
                raise TopologyError(f"duplicate id {link.id!r}")
            a, b = link.endpoints
            if a == b:
                raise TopologyError(f"link {link.id!r} endpoints must be distinct")
            for end in (a, b):
                if end not in self.nodes:
                    raise TopologyError(f"unknown endpoint {end!r}")
            if link.capacity_mbps <= 0:
                raise TopologyError(f"non-positive capacity on link {link.id!r}")
            if link.base_latency_ms < 0:
                raise TopologyError(f"negative latency on link {link.id!r}")
            self.links[link.id] = link

    def hosts(self) -> list[str]:
        """The host ids in document order; a run sends from the first to the second."""
        return [node.id for node in self.nodes.values() if node.kind is NodeKind.HOST]


@dataclass(frozen=True)
class _TopologyDoc:  # its entries are read one by one, each named "node" or "link"
    nodes: tuple[dict, ...] = ()
    links: tuple[dict, ...] = ()


@dataclass(frozen=True)
class _LinkEntry:  # a Link holds its two numbers as floats, whatever the document has
    endpoints: tuple[str, str]
    capacity_mbps: float
    latency_ms: float


def build_topology(spec: dict) -> Topology:
    """Build a topology from the documented description document.

    The document has two entry lists: ``nodes`` (fields: id, kind and, for
    hosts, nic_count) and ``links`` (fields: endpoints, capacity_mbps,
    latency_ms). Mistyped and unknown fields are rejected. Link ids are
    derived from the endpoint pair, e.g. ``{"endpoints": ["R4", "B"]}``
    becomes link ``R4-B``.
    """
    doc = from_doc(_TopologyDoc, spec, "topology", TopologyError)
    nodes = [from_doc(Node, entry, "node", TopologyError) for entry in doc.nodes]
    links = [from_doc(_LinkEntry, entry, "link", TopologyError) for entry in doc.links]
    return Topology(nodes, [Link("-".join(link.endpoints), link.endpoints,
                                 float(link.capacity_mbps), float(link.latency_ms))
                            for link in links])


def load_topology_file(path: str) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return build_topology(json.load(fh))


class Simulator:
    """Single-timeline simulator over one topology.

    All state changes run through the serialized event loop or through
    direct calls made between events; the simulator is not thread-safe and
    does not need to be.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._now_ns = 0
        self._events: list[tuple[int, int, Callable[[], None]]] = []
        self._event_seq = 0
        # (flow, path_index) -> the _walk (nodes, path, _route form) of its deployed
        # path; path[0] is the source's egress and path[i] the rule of switch nodes[i]
        self._routes: dict[tuple[FlowId, int], tuple] = {}
        # (src, dst, path_index) -> the _walk of the path last checked for it
        self._walks: dict[tuple[str, str, int], tuple] = {}
        # link -> its hop (base_ns, injections), shared by every compiled route on
        # the link until its next injection or removal
        self._link_hops: dict[str, tuple[int, Sequence[tuple[int, int, int]]]] = {}
        # link -> [(start_ns, end_ns, extra_ns)] of its latency injections
        self._injections: dict[str, list[tuple[int, int, int]]] = {}
        # link -> {seq: mbps}; a reservation handle is (link, seq)
        self._reservations: dict[str, dict[int, float]] = {}
        self._reservation_seq = 0
        # link -> its LinkView while it has no injection and no reservation change
        self._views: dict[str, LinkView] = {}
        # link -> number of its last load, injection or removal change, oldest first
        self._changed: dict[str, int] = {}
        self.changes = 0  # a change's number is this count just after it

    # -- clock and events ------------------------------------------------

    @property
    def now_ms(self) -> float:
        return self._now_ns / NS_PER_MS  # ns_to_ms, inlined as on the send path

    def schedule_in(self, delta_ms: float, action: Callable[[], None]) -> None:
        at_ns = max(ms_to_ns(self.now_ms + delta_ms), self._now_ns)
        heapq.heappush(self._events, (at_ns, self._event_seq, action))
        self._event_seq += 1

    def run_until(self, until_ms: float) -> None:
        """Process events with fire time <= until_ms, then advance the clock."""
        until_ns = round(until_ms * NS_PER_MS)  # ms_to_ns, inlined as on the send path
        while self._events and self._events[0][0] <= until_ns:
            fire_ns, _, action = heapq.heappop(self._events)
            self._now_ns = max(self._now_ns, fire_ns)
            action()
        self._now_ns = max(self._now_ns, until_ns)

    def paced(self, count: int, gap_ms: float, send: Callable[[int], object]) -> list:
        """The traffic loop: run `send(seq)` at simulated time `seq * gap_ms` for
        each seq in range(count); returns each call's result, indexed by seq.
        Before each send, events due by its time fire through `run_until`; with
        none due the clock steps to that time itself, by `run_until`'s arithmetic."""
        out, events = [], self._events
        for seq in range(count):
            at_ns = round(seq * gap_ms * NS_PER_MS)
            if events and events[0][0] <= at_ns:
                self.run_until(seq * gap_ms)
            elif at_ns > self._now_ns:
                self._now_ns = at_ns
            out.append(send(seq))
        return out

    # -- topology access -------------------------------------------------

    def link(self, link_id: str) -> Link:
        try:
            return self.topology.links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id!r}")

    def node(self, node_id: str) -> Node:
        try:
            return self.topology.nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}")

    def remove_link(self, link_id: str) -> None:
        """Tear a link out of the topology, dropping rules and state on it."""
        self.link(link_id)
        del self.topology.links[link_id]
        self._link_hops.pop(link_id, None)
        self._link_changed(link_id)
        for per_link in (self._injections, self._reservations):
            per_link.pop(link_id, None)
        self._recompile()

    # -- flow rules -------------------------------------------------------

    def deploy_path(self, flow: FlowId, path: Sequence[str], path_index: int = 0) -> list[FlowRule]:
        """Install one rule per switch along `path`, replacing any rules
        previously deployed for the same (flow, path_index)."""
        walk_key, path = (flow.src, flow.dst, path_index), tuple(path)
        walk = self._walks.get(walk_key)
        if walk is None or walk[1] != path:
            walk = self._walks[walk_key] = self._walk(flow, path)
        self._routes[(flow, path_index)] = walk  # atomic replacement of the old deployment
        return [FlowRule(node, flow, path_index, out) for node, out in zip(walk[0][1:], path[1:])]

    def _walk(self, flow: FlowId, path: tuple[str, ...]) -> tuple:
        """Check `path` for `flow`: its nodes in order, the path and its _route form."""
        if not path:
            raise RoutingError("empty path")
        topo_links, topo_nodes = self.topology.links, self.topology.nodes
        try:
            links = [topo_links[lid] for lid in path]
        except KeyError as missing:
            raise TopologyError(f"unknown link {missing.args[0]!r}") from None
        cursor = flow.src
        self.node(cursor)
        nodes_on_path = [cursor]
        for lk in links:
            a, b = lk.endpoints
            if cursor != a and cursor != b:
                raise RoutingError(f"non-contiguous path: link {lk.id!r} does not touch {cursor!r}")
            cursor = b if cursor == a else a
            nodes_on_path.append(cursor)
        if cursor != flow.dst:
            raise RoutingError(f"path ends at {cursor!r}, not flow destination {flow.dst!r}")
        for hop_node in nodes_on_path[1:-1]:
            if topo_nodes[hop_node].kind is not NodeKind.SWITCH:
                raise RoutingError(f"path traverses host {hop_node!r}")
        if len(set(nodes_on_path)) != len(nodes_on_path):
            raise RoutingError("path revisits a node")
        return tuple(nodes_on_path), path, self._route(path, None)

    def retract_path(self, flow: FlowId, path_index: int = 0) -> int:
        """Remove the deployment of (flow, path_index); returns its switch rule count,
        less the rules on links removed since the deploy."""
        path = self._routes.pop((flow, path_index), ((), ()))[1]
        return len(self.topology.links.keys() & path[1:])  # a path repeats no link

    def all_rules(self) -> list[FlowRule]:
        """Every switch rule on a link still in the topology, in no particular order."""
        topo_links = self.topology.links
        return [FlowRule(node, flow, index, out)
                for (flow, index), (nodes, path, _) in self._routes.items()
                for node, out in zip(nodes[1:], path[1:]) if out in topo_links]

    def _recompile(self) -> None:
        """Rebuild every deployed route's _route form from its path, after an injection
        or a link removal; a route over a removed link stops at the node before it,
        which has no rule left. Every kept walk is dropped."""
        topo_links = self.topology.links
        for key, (nodes, path, _) in self._routes.items():
            cut = next((i for i, out in enumerate(path) if out not in topo_links), len(path))
            self._routes[key] = (nodes, path, self._route(
                path[:cut], f"no rule at {nodes[cut]}" if cut < len(path) else None))
        self._walks.clear()

    # -- latency injection -------------------------------------------------

    def inject_latency(self, inj: LatencyInjection) -> None:
        self.link(inj.link)
        if inj.extra_ms <= 0:
            raise NetsimError("non-positive injection")
        if inj.start_ms >= inj.end_ms:
            raise NetsimError("inverted window")
        self._link_changed(inj.link)
        self._link_hops.pop(inj.link, None)  # its hop holds the injection list, or none
        self._injections.setdefault(inj.link, []).append(
            (ms_to_ns(inj.start_ms), ms_to_ns(inj.end_ms), ms_to_ns(inj.extra_ms)))
        self._recompile()  # a compiled route holds its injection windows

    def link_delay_ms(self, link_id: str, at_ms: float) -> float:
        """Delay the link contributes to a packet entering it at `at_ms`."""
        delay_ns, at_ns = ms_to_ns(self.link(link_id).base_latency_ms), ms_to_ns(at_ms)
        for start, end, extra in self._injections.get(link_id, ()):
            delay_ns += extra if start <= at_ns < end else 0
        return ns_to_ms(delay_ns)

    # -- capacity reservations ---------------------------------------------

    def reserve_capacity(self, link_id: str, mbps: float) -> tuple[str, int]:
        link = self.link(link_id)
        if mbps <= 0:
            raise CapacityError("reservation must be positive")
        if self.link_load_mbps(link_id) + mbps > link.capacity_mbps + 1e-12:
            raise CapacityError(f"capacity exceeded on link {link_id!r}")
        self._reservation_seq += 1
        self._link_changed(link_id)
        self._reservations.setdefault(link_id, {})[self._reservation_seq] = mbps
        return (link_id, self._reservation_seq)

    def release_capacity(self, handle: tuple[str, int]) -> None:
        link_id, seq = handle
        if self._reservations.get(link_id, {}).pop(seq, None) is not None:
            self._link_changed(link_id)

    def link_load_mbps(self, link_id: str) -> float:
        return sum(self._reservations.get(link_id, {}).values())

    # -- packet delivery -----------------------------------------------------

    def _undeployed(self, flow: FlowId) -> tuple:
        """The _route form of a key with nothing deployed, which is never kept."""
        self.node(flow.src)
        if flow.dst not in self.topology.nodes:
            return self._route((), "unroutable destination")
        return self._route((), None if flow.src == flow.dst else f"no rule at {flow.src}")

    def _route(self, path: tuple[str, ...], drop_reason: str | None) -> tuple:
        """A compiled route: the links it forwards on; each as a hop (base delay,
        that link's injections); why a packet on it is dropped (None if it
        arrives); the base delays and their sum; and each send-time window
        [start - offset, end - offset) in which a hop's injection could apply,
        offset being the base delays before that hop. A send outside every
        window meets no injection, so its delays are the base ones."""
        link_hops, topo_links = self._link_hops, self.topology.links
        hops = tuple(link_hops.get(lid) or link_hops.setdefault(
            lid, (ms_to_ns(topo_links[lid].base_latency_ms), self._injections.get(lid, ())))
            for lid in path)
        base = tuple([delay_ns for delay_ns, _ in hops])
        windows = tuple((start - offset, end - offset)
                        for offset, (_, injections) in zip(accumulate(base, initial=0), hops)
                        for start, end, _ in injections) if self._injections else ()
        return path, hops, drop_reason, base, sum(base), windows

    def send_packet(self, packet: Packet) -> DeliveryRecord:
        """Send the packet along its deployed path, sampling each link's delay at the
        traversal instant. No retransmission ever happens; packets to a node outside
        the topology, or that hit a switch without a matching rule, are dropped. An
        unknown source raises."""
        route = self._routes.get((packet.flow, packet.path_index))
        links, hops, drop_reason, delays, latency_ns, windows = (
            route[2] if route else self._undeployed(packet.flow))
        # ms_to_ns and ns_to_ms inlined: the same arithmetic without a call per send
        sent_ns = round(packet.sent_at_ms * NS_PER_MS)
        for lo, hi in windows:
            if lo <= sent_ns < hi:  # an injection may apply on the way
                delays = _walk_delays(hops, sent_ns)
                latency_ns = sum(delays)
                break
        if drop_reason is not None:
            return new_tuple(DeliveryRecord, (packet, False, None, None, False, links, delays,
                                              drop_reason))
        return new_tuple(DeliveryRecord, (
            packet, True, (sent_ns + latency_ns) / NS_PER_MS, latency_ns / NS_PER_MS,
            latency_ns > round(packet.deadline_ms * NS_PER_MS), links, delays, None))

    def _link_changed(self, link_id: str) -> None:
        self._views.pop(link_id, None)
        self.changes += 1
        self._changed.pop(link_id, None)
        self._changed[link_id] = self.changes

    def links_changed_since(self, change: int) -> dict[str, bool]:
        """Links changed after change number `change` (removed ones too) and links
        with an injection, whose delay moves with the clock; True for the latter."""
        out = dict.fromkeys(self._injections, True)
        for link_id, at in reversed(self._changed.items()):
            if at <= change:
                break
            out.setdefault(link_id, False)
        return out

    def topology_snapshot(self) -> TopologyView:
        """Consistent immutable snapshot at the current simulated instant; the
        view of a link without injections is reused until its load changes. It
        costs a view per link: `links_changed_since` names the few to recheck."""
        now = self.now_ms
        return TopologyView(
            nodes=tuple(self.topology.nodes.values()),
            links=tuple(self._views.get(lid) or self._view(lk, now)
                        for lid, lk in self.topology.links.items()),
            taken_at_ms=now,
        )

    def _view(self, lk: Link, now: float) -> LinkView:
        view = LinkView(lk.id, lk.endpoints, lk.capacity_mbps,
                        self.link_delay_ms(lk.id, now), self.link_load_mbps(lk.id))
        if lk.id not in self._injections:
            self._views[lk.id] = view
        return view


def _walk_delays(hops: tuple, t_ns: int) -> tuple[int, ...]:
    """Each hop's delay for a packet entering the first hop at `t_ns`, adding the
    injections active at each hop's entry time."""
    delays = []
    for delay_ns, injections in hops:
        for start, end, extra in injections:
            if start <= t_ns < end:
                delay_ns += extra
        delays.append(delay_ns)
        t_ns += delay_ns
    return tuple(delays)
