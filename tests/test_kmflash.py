import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore import kmflash
from socketstore.fixtures import evaluation_topology
from socketstore.kmflash import (
    AllocationFailure,
    KMError,
    PathSet,
    allocate_disjoint_paths,
    allocate_on,
    default_shortest_path,
    delivery_stats,
    deploy_mirror_paths,
    earliest_latency,
    mirror_send,
    retract_mirror_paths,
    send_copies,
)
from socketstore.netsim import (
    DeliveryRecord,
    FlowId,
    LatencyInjection,
    LinkView,
    Node,
    NodeKind,
    Packet,
    Simulator,
    TopologyView,
    build_topology,
)

from .conftest import DEFAULT_PATH, SECOND_PATH
from .oracles import (
    brute_force_disjoint,
    max_flow_unit,
    random_connected_view,
    reference_collect_stats,
    reference_decompose,
    reference_shortest_residual_path,
)

FLOW = FlowId("A", "B", "mirror")


def view_of(sim: Simulator) -> TopologyView:
    return sim.topology_snapshot()


def mkview(nodes, edges) -> TopologyView:
    """edges: (a, b, latency_ms[, capacity])"""
    links = []
    for e in edges:
        a, b, lat = e[0], e[1], e[2]
        cap = e[3] if len(e) > 3 else 100.0
        links.append(LinkView(f"{a}-{b}", (a, b), cap, lat, 0.0))
    return TopologyView(
        nodes=tuple(Node(n, NodeKind.SWITCH) for n in nodes),
        links=tuple(links),
        taken_at_ms=0.0,
    )


class TestAllocate:
    def test_evaluation_topology_k2(self, sim):
        result = allocate_disjoint_paths(view_of(sim), "A", "B", 2, 10.0, 5.0, 1.0)
        assert not isinstance(result, AllocationFailure)
        assert set(result.paths) == {tuple(DEFAULT_PATH), tuple(SECOND_PATH)}
        assert result.latencies_ms == (2.0, 2.0)
        assert result.spread_ms == 0.0

    def test_k1_single_link(self):
        view = mkview(["A", "B"], [("A", "B", 0.5)])
        result = allocate_disjoint_paths(view, "A", "B", 1, 10.0, 5.0)
        assert result.paths == (("A-B",),)

    def test_k3_fails_with_max_feasible_2(self, sim):
        result = allocate_disjoint_paths(view_of(sim), "A", "B", 3, 10.0, 5.0)
        assert isinstance(result, AllocationFailure)
        assert result.max_feasible_k == 2
        assert "only 2 disjoint paths" in result.reason

    def test_trap_topology_needs_edge_reversal(self):
        # the min-latency path consumes links that a greedy remove-and-rerun
        # approach would need for the second path
        view = mkview(
            ["s", "a", "b", "t"],
            [("s", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0),
             ("s", "b", 10.0), ("a", "t", 10.0)],
        )
        result = allocate_disjoint_paths(view, "s", "t", 2, 1.0, 100.0, 100.0)
        assert not isinstance(result, AllocationFailure)
        assert sorted(result.latencies_ms) == [11.0, 11.0]
        used = [lid for p in result.paths for lid in p]
        assert len(used) == len(set(used))

    def test_latency_constraint_violation_reported(self, sim):
        result = allocate_disjoint_paths(view_of(sim), "A", "B", 2, 10.0, 1.5, 1.0)
        assert isinstance(result, AllocationFailure)
        assert "exceeds max latency" in result.reason
        assert result.max_feasible_k == 2

    def test_spread_constraint_violation_reported(self):
        view = mkview(
            ["A", "M", "B"],
            [("A", "B", 0.5), ("A", "M", 2.0), ("M", "B", 2.0)],
        )
        result = allocate_disjoint_paths(view, "A", "B", 2, 1.0, 100.0, 1.0)
        assert isinstance(result, AllocationFailure)
        assert "spread" in result.reason

    @pytest.mark.parametrize("max_latency, spread", [(float("nan"), 1.0), (5.0, float("nan"))])
    def test_nan_bound_admits_no_path(self, sim, max_latency, spread):
        result = allocate_disjoint_paths(view_of(sim), "A", "B", 2, 10.0, max_latency, spread)
        assert isinstance(result, AllocationFailure)

    def test_capacity_filter_excludes_thin_links(self):
        view = mkview(
            ["A", "M", "B"],
            [("A", "B", 0.5, 5.0), ("A", "M", 2.0), ("M", "B", 2.0)],
        )
        # direct link cannot carry 10 Mbps, so only the detour qualifies
        result = allocate_disjoint_paths(view, "A", "B", 1, 10.0, 100.0)
        assert result.paths == (("A-M", "M-B"),)

    def test_unknown_endpoint_raises(self, sim):
        with pytest.raises(KMError, match="not in topology"):
            allocate_disjoint_paths(view_of(sim), "A", "Z", 1, 10.0, 5.0)

    def test_same_endpoints_raise(self, sim):
        with pytest.raises(KMError, match="must differ"):
            allocate_disjoint_paths(view_of(sim), "A", "A", 1, 10.0, 5.0)


def _tie_topology(with_detour: bool = True) -> dict:
    """A two-NIC host H ties with the switch detour S1-R3-S2 (0.2 ms each)."""
    nodes = [{"id": h, "kind": "host", "nic_count": n} for h, n in
             (("A", 1), ("B", 1), ("H", 2))]
    nodes += [{"id": s, "kind": "switch"} for s in ("R3", "S1", "S2")]
    pairs = [("A", "S1"), ("S1", "H"), ("H", "S2"), ("S2", "B")]
    if with_detour:
        pairs += [("S1", "R3"), ("R3", "S2")]
    return {"nodes": nodes, "links": [
        {"endpoints": list(p), "capacity_mbps": 100.0, "latency_ms": 0.1}
        for p in pairs
    ]}


class TestHostTransit:
    """Hosts never forward, so neither route may pass through a third host,
    even when it ties with a switch-only detour."""

    def test_tie_with_a_host_routes_over_switches(self):
        sim = Simulator(build_topology(_tie_topology()))
        view = sim.topology_snapshot()
        allocated = allocate_disjoint_paths(view, "A", "B", 1, 10.0, 5.0)
        assert not isinstance(allocated, AllocationFailure)
        default = default_shortest_path(view, "A", "B")
        for index, path in enumerate([list(allocated.paths[0]), default]):
            assert path == ["A-S1", "S1-R3", "R3-S2", "S2-B"]
            sim.deploy_path(FlowId("A", "B", "tie"), path, path_index=index)

    def test_route_only_through_a_host_is_no_route(self):
        view = Simulator(build_topology(_tie_topology(with_detour=False))).topology_snapshot()
        got = allocate_disjoint_paths(view, "A", "B", 1, 10.0, 5.0)
        assert isinstance(got, AllocationFailure)
        assert got.max_feasible_k == 0
        assert default_shortest_path(view, "A", "B") is None


def assert_simple_path(view, src, dst, path):
    """`path` is a chain of links from src to dst that visits no node twice."""
    ends = {lk.id: lk.endpoints for lk in view.links}
    nodes = [src]
    for lid in path:
        a, b = ends[lid]
        assert nodes[-1] in (a, b), (path, lid)
        nodes.append(b if nodes[-1] == a else a)
    assert nodes[-1] == dst and len(set(nodes)) == len(nodes), (path, nodes)


class TestOracleEquivalence:
    def test_random_graphs_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            view = random_connected_view(rng)
            ids = sorted(view.node_ids())
            src, dst = ids[0], ids[-1]
            if src == dst:
                continue
            for k in (1, 2, 3):
                got = allocate_disjoint_paths(view, src, dst, k, 1.0, float("inf"),
                                              float("inf"))
                feasible, best = brute_force_disjoint(view, src, dst, k, 1.0)
                if isinstance(got, AllocationFailure):
                    assert not feasible, (view, k)
                    assert got.max_feasible_k == max_flow_unit(view, src, dst, 1.0)
                else:
                    assert feasible
                    used = [lid for p in got.paths for lid in p]
                    assert len(used) == len(set(used)), "paths share a link"
                    assert sum(got.latencies_ms) == pytest.approx(best, abs=1e-9)

    def test_random_graphs_with_hosts_match_brute_force(self):
        rng = random.Random(11)
        for _ in range(60):
            view = random_connected_view(rng)
            ids = sorted(view.node_ids())
            src, dst = ids[0], ids[-1]
            if src == dst:
                continue
            kinds = {i: rng.choice([NodeKind.HOST, NodeKind.SWITCH]) for i in ids}
            view = TopologyView(
                nodes=tuple(Node(i, kinds[i], 1 if kinds[i] is NodeKind.HOST else None)
                            for i in ids),
                links=view.links,
                taken_at_ms=0.0,
            )
            for k in (1, 2):
                got = allocate_disjoint_paths(view, src, dst, k, 1.0, float("inf"),
                                              float("inf"))
                feasible, best = brute_force_disjoint(view, src, dst, k, 1.0)
                if isinstance(got, AllocationFailure):
                    assert not feasible, (view, k)
                    assert got.max_feasible_k == max_flow_unit(view, src, dst, 1.0)
                else:
                    assert feasible
                    assert sum(got.latencies_ms) == pytest.approx(best, abs=1e-9)
                    for path in got.paths:
                        ends = {e for lid in path for e in lid.split("-")}
                        assert all(kinds[n] is NodeKind.SWITCH for n in ends - {src, dst})

    def test_random_graphs_with_zero_latency_links_match_brute_force(self, monkeypatch):
        """Many K-sets tie on a core of 0 ms links, so a minimum-latency flow
        often circles the core at no cost and the decomposition cuts that loop
        out of a walk: every path is a simple src->dst chain, no two share a
        link, and the total is the brute-force optimum."""
        decompose, cut = kmflash._decompose, []

        def counted(used, src, dst, k):
            paths = decompose(used, src, dst, k)
            cut.append(len(used) > sum(map(len, paths)))
            return paths

        monkeypatch.setattr(kmflash, "_decompose", counted)
        rng = random.Random(13)
        for _ in range(300):
            view = _zero_core_view(rng)
            for k in (1, 2, 3, 4):
                got = allocate_against_reference(view, "A", "B", k)
                feasible, best = brute_force_disjoint(view, "A", "B", k, 1.0)
                if isinstance(got, AllocationFailure):
                    assert not feasible, (view, k)
                    assert got.max_feasible_k == max_flow_unit(view, "A", "B", 1.0)
                    continue
                assert feasible
                assert sum(got.latencies_ms) == pytest.approx(best, abs=1e-9)
                used = [lid for p in got.paths for lid in p]
                assert len(used) == len(set(used)), "paths share a link"
                for path in got.paths:
                    assert_simple_path(view, "A", "B", path)
        assert sum(cut) > 20


def _zero_core_view(rng):
    """Four-NIC hosts A and B, each wired at 0 to 0.9 ms to every switch of a
    random connected core of 0 ms links."""
    core = random_connected_view(rng, max_nodes=6, tenths=(0, 0))
    access = tuple(LinkView(f"{h}-{n.id}", (h, n.id), 100.0, rng.randint(0, 9) / 10.0, 0.0)
                   for h in "AB" for n in core.nodes)
    hosts = (Node("A", NodeKind.HOST, 4), Node("B", NodeKind.HOST, 4))
    return dataclasses.replace(core, nodes=core.nodes + hosts, links=core.links + access)


def allocate_against_reference(view, src, dst, k, rate=1.0, max_latency=float("inf"),
                               spread=float("inf")):
    """Allocate with the shipped Bellman-Ford, then again with the reference
    that relaxes every arc on every pass over the residual graph built from
    the view's links and the rounds' used links; each search and the result
    must be identical. Returns the shipped result."""
    got = allocate_disjoint_paths(view, src, dst, k, rate, max_latency, spread)
    shipped, calls = kmflash._shortest_residual_path, []
    # the links a src->dst allocation may use, in id order: both ends relay
    # (a switch, src or dst) and the residual capacity covers the rate
    relays = {n.id for n in view.nodes if n.kind is NodeKind.SWITCH} | {src, dst}
    links = {lk.id: lk for lk in sorted(view.links, key=lambda lk: lk.id)
             if relays.issuperset(lk.endpoints) and lk.residual_mbps + 1e-12 >= rate}

    def reference(arcs, used, src, dst):
        want = reference_shortest_residual_path(view.node_ids(), links, used, src, dst)
        assert shipped(arcs, used, src, dst) == want
        calls.append(want)
        return want

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmflash, "_shortest_residual_path", reference)
        assert allocate_disjoint_paths(view, src, dst, k, rate, max_latency, spread) == got
    assert calls
    return got


def _hosts_view(rng, view):
    """`view` with about a third of its nodes made two-NIC hosts, and about a
    third of its links doubled by a parallel link of the same latency."""
    nodes = tuple(Node(n.id, NodeKind.HOST, 2) if rng.random() < 0.3 else n for n in view.nodes)
    twins = tuple(dataclasses.replace(lk, id="{1}-{0}".format(*lk.endpoints))
                  for lk in view.links if rng.random() < 0.3)
    return dataclasses.replace(view, nodes=nodes, links=view.links + twins)


def _churn_grid(rng, access_ms, capacity_mbps, side=8, hosts=16):
    """The instance-churn topology: a side x side switch grid of 0.1 ms links
    and two-NIC hosts spread evenly around its border, each wired to two
    neighbouring border switches, moved on by a step picked by `rng`."""
    nodes = [{"id": f"S{r}-{c}", "kind": "switch"} for r in range(side) for c in range(side)]
    pairs = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                pairs.append((f"S{r}-{c}", f"S{r}-{c + 1}", 0.1))
            if r + 1 < side:
                pairs.append((f"S{r}-{c}", f"S{r + 1}-{c}", 0.1))
    last = side - 1
    border = ([(0, c) for c in range(side)] + [(r, last) for r in range(1, side)]
              + [(last, c) for c in range(last - 1, -1, -1)]
              + [(r, 0) for r in range(last - 1, 0, -1)])
    for h in range(hosts):
        host = f"H{h:02d}"
        nodes.append({"id": host, "kind": "host", "nic_count": 2})
        i = (h * len(border) // hosts + rng.randrange(2)) % len(border)
        for r, c in (border[i], border[(i + 1) % len(border)]):
            pairs.append((host, f"S{r}-{c}", access_ms))
    return build_topology({"nodes": nodes, "links": [
        {"endpoints": [a, b], "capacity_mbps": capacity_mbps, "latency_ms": lat}
        for a, b, lat in pairs]})


class TestReferenceAllocator:
    """The shipped allocator returns exactly what the pass-based Bellman-Ford
    it replaced returns: same paths, same latencies, same failures."""

    def test_random_views_k1_to_k4(self):
        rng = random.Random(23)
        for _ in range(150):
            view = random_connected_view(rng, max_nodes=10)
            src, dst = rng.sample(sorted(view.node_ids()), 2)
            for k in (1, 2, 3, 4):
                allocate_against_reference(view, src, dst, k)

    def test_two_nic_hosts_parallel_links_and_tenth_ms_ties(self):
        rng = random.Random(29)
        for _ in range(150):
            view = _hosts_view(rng, random_connected_view(rng, max_nodes=10))
            src, dst = rng.sample(sorted(view.node_ids()), 2)
            for k in (1, 2, 3):
                allocate_against_reference(view, src, dst, k, max_latency=3.0, spread=0.5)
        tie = Simulator(build_topology(_tie_topology())).topology_snapshot()
        for k in (1, 2, 3):
            allocate_against_reference(tie, "A", "B", k)

    def test_loaded_view_where_the_capacity_filter_drops_links(self):
        rng = random.Random(31)
        dropped = 0
        for _ in range(150):
            view = random_connected_view(rng, max_nodes=10)
            links = tuple(dataclasses.replace(lk, load_mbps=rng.choice([0.0, 0.0, 50.0, 95.0]))
                          for lk in view.links)
            view = dataclasses.replace(view, links=links)
            dropped += sum(lk.residual_mbps < 10.0 for lk in links)
            src, dst = rng.sample(sorted(view.node_ids()), 2)
            for k in (1, 2, 3):
                allocate_against_reference(view, src, dst, k, rate=10.0)
        assert dropped > 100

    @pytest.mark.parametrize("access_ms, capacity_mbps", [(0.5, 100_000.0), (0.1, 100_000.0),
                                                          (0.5, 100.0)])
    def test_churn_grid(self, access_ms, capacity_mbps):
        """Connects and closes on the 8x8 grid, each allocation made from a
        fresh snapshot of the loaded simulator."""
        rng = random.Random(f"grid/{access_ms}/{capacity_mbps}")
        sim = Simulator(_churn_grid(rng, access_ms, capacity_mbps))
        hosts = sorted(n.id for n in sim.topology.nodes.values() if n.kind is NodeKind.HOST)
        live, failures = [], 0
        for step in range(80):
            if live and rng.random() < 0.3:
                retract_mirror_paths(sim, live.pop(rng.randrange(len(live))))
                continue
            src, dst = rng.sample(hosts, 2)
            got = allocate_against_reference(sim.topology_snapshot(), src, dst,
                                             rng.choice([1, 2, 2, 3]), 10.0, 5.0)
            if isinstance(got, AllocationFailure):
                failures += 1
                continue
            handles = deploy_mirror_paths(sim, FlowId(src, dst, f"c{step}"), got, 10.0)
            assert not isinstance(handles, AllocationFailure)
            live.append(handles)
        assert len(live) > 10
        if capacity_mbps == 100.0:
            assert failures > 0

    def test_second_round_cancels_a_link_the_first_used(self):
        """Round 1 takes s-a-b-t (3 ms). Round 2's cheapest residual path
        s-b-a-t cancels a-b at -1 ms (19 ms) and beats the untouched s-c-t
        (20 ms), leaving s-a-t and s-b-t (22 ms in all, not 23)."""
        view = mkview(
            ["s", "a", "b", "c", "t"],
            [("s", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("s", "b", 10.0),
             ("a", "t", 10.0), ("s", "c", 10.0), ("c", "t", 10.0)],
        )
        got = allocate_against_reference(view, "s", "t", 2)
        assert sorted(got.paths) == [("s-a", "a-t"), ("s-b", "b-t")]
        assert got.latencies_ms == (11.0, 11.0)


class TestDecompose:
    def test_random_flows_with_loops_match_the_reference(self):
        """Flows made of K random src->dst walks over fresh links of random
        ids, so nodes repeat within and across walks and a walk may cut
        several loops, some through nodes an earlier cut removed."""
        rng = random.Random(17)
        for _ in range(500):
            nodes = [f"n{i}" for i in range(rng.randint(3, 7))]
            src, dst = rng.sample(nodes, 2)
            k, used = rng.randint(1, 3), {}
            for _ in range(k):
                hops = [src]
                for _ in range(rng.randint(0, 10)):
                    hops.append(rng.choice([n for n in nodes if n not in (dst, hops[-1])]))
                for u, v in zip(hops, hops[1:] + [dst]):
                    used[f"{rng.randrange(1000):03d}-{len(used)}"] = (u, v)
            assert kmflash._decompose(used, src, dst, k) == reference_decompose(used, src, dst, k)


def _zero_latency_cycle() -> dict:
    """Hosts A and B (three NICs each) over switches s0, s2, s3 and s4. A K=3
    min-latency flow from A to B also circles s3 -> s0 -> s2 -> s3 over three
    0 ms links, so the walk A-s4-s3 that takes s3's first outgoing link in
    link-id order, s0-s3, comes back to s3 before it leaves for B."""
    edges = [("s4", "A", 1.0), ("s2", "B", 0.0), ("s0", "s3", 0.0), ("s2", "s0", 0.0),
             ("s3", "B", 1.0), ("s2", "s3", 0.0), ("B", "s0", 1.0), ("s3", "s4", 0.0),
             ("s2", "A", 1.0), ("s0", "A", 0.0)]
    return {"nodes": [{"id": h, "kind": "host", "nic_count": 3} for h in "AB"]
            + [{"id": s, "kind": "switch"} for s in ("s0", "s2", "s3", "s4")],
            "links": [{"endpoints": [a, b], "capacity_mbps": 100.0, "latency_ms": ms}
                      for a, b, ms in edges]}


class TestZeroLatencyCycle:
    def test_a_zero_latency_loop_is_cut_from_the_path(self):
        sim = Simulator(build_topology(_zero_latency_cycle()))
        got = allocate_disjoint_paths(sim.topology_snapshot(), "A", "B", 3, 10.0, 5.0)
        assert got == PathSet((("s0-A", "B-s0"), ("s2-A", "s2-B"), ("s4-A", "s3-s4", "s3-B")),
                              (1.0, 1.0, 2.0))
        handles = deploy_mirror_paths(sim, FLOW, got, 10.0)
        assert [rec.hop_links for rec in mirror_send(sim, handles, 0, 512, 5.0)] == list(got.paths)


def _grid3():
    """A 3x3 switch grid of 0.1 ms, 20 Mbps links, so most pairs tie between
    paths and two 10 Mbps reservations fill a link."""
    nodes = [{"id": f"S{r}{c}", "kind": "switch"} for r in range(3) for c in range(3)]
    pairs = [(f"S{r}{c}", f"S{r}{c + 1}") for r in range(3) for c in range(2)]
    pairs += [(f"S{r}{c}", f"S{r + 1}{c}") for r in range(2) for c in range(3)]
    return build_topology({"nodes": nodes, "links": [
        {"endpoints": list(p), "capacity_mbps": 20.0, "latency_ms": 0.1}
        for p in pairs]})


@pytest.fixture
def searches(monkeypatch):
    """Counts the searches `allocate_on` runs: its misses."""
    calls = []

    def counted(*args):
        calls.append(args)
        return allocate_disjoint_paths(*args)

    monkeypatch.setattr(kmflash, "allocate_disjoint_paths", counted)
    return calls


def allocate_fresh_and_memoized(sim, src, dst, k, rate=10.0, max_latency=5.0,
                                spread=kmflash.DEFAULT_SPREAD_MS):
    """`allocate_on`'s result, required to equal a fresh allocation on a
    snapshot of the same simulator."""
    got = allocate_on(sim, src, dst, k, rate, max_latency, spread)
    fresh = allocate_disjoint_paths(sim.topology_snapshot(), src, dst, k, rate,
                                    max_latency, spread)
    assert got == fresh
    return got


class TestAllocationMemo:
    """`allocate_on` re-runs the search only when the links whose residual
    covers the rate, or their latencies, changed since the last call."""

    def test_repeated_connect_reuses_the_search(self, sim, searches):
        first = allocate_fresh_and_memoized(sim, "A", "B", 2)
        assert allocate_fresh_and_memoized(sim, "A", "B", 2) == first
        assert allocate_fresh_and_memoized(sim, "B", "A", 2) != first
        assert len(searches) == 2

    def test_residual_falling_below_the_rate_resolves(self, searches):
        """The 100 Mbps churn grid: ten 10 Mbps connects between one pair
        fill its paths' links, so the eleventh must route elsewhere."""
        sim = Simulator(_churn_grid(random.Random("memo"), 0.5, 100.0))
        seen = []
        for step in range(12):
            got = allocate_fresh_and_memoized(sim, "H00", "H08", 1)
            assert not isinstance(got, AllocationFailure)
            deploy_mirror_paths(sim, FlowId("H00", "H08", f"c{step}"), got, 10.0)
            seen.append(got.paths)
        assert seen[10] != seen[9] == seen[0]
        assert len(searches) == 2  # the first call, then when the links filled

    def test_residual_rising_back_to_the_rate_resolves(self, searches):
        """The reverse: once the ten connects that filled the first paths'
        links close, the next call searches again and routes on them."""
        sim = Simulator(_churn_grid(random.Random("memo"), 0.5, 100.0))
        live, seen = [], []
        for step in range(11):
            got = allocate_fresh_and_memoized(sim, "H00", "H08", 1)
            live.append(deploy_mirror_paths(sim, FlowId("H00", "H08", f"c{step}"), got, 10.0))
            seen.append(got.paths)
        for handles in live[:10]:
            retract_mirror_paths(sim, handles)
        assert len(searches) == 2
        assert allocate_fresh_and_memoized(sim, "H00", "H08", 1).paths == seen[0] != seen[10]
        assert len(searches) == 3

    def test_a_change_of_rate_rechecks_every_link(self, searches):
        """On the 20 Mbps 3x3 grid a 10 Mbps connection leaves its links short
        of 15 Mbps, which a 15 Mbps call must see though no link changed since
        the last call; a rate that leaves the same links usable keeps the
        results."""
        sim = Simulator(_grid3())
        first = allocate_fresh_and_memoized(sim, "S00", "S22", 1)
        deploy_mirror_paths(sim, FlowId("S00", "S22", "c0"), first, 10.0)
        assert allocate_fresh_and_memoized(sim, "S00", "S22", 1) == first
        assert allocate_fresh_and_memoized(sim, "S00", "S22", 1, 15.0).paths != first.paths
        assert allocate_fresh_and_memoized(sim, "S00", "S22", 1, 10.0) == first
        assert allocate_fresh_and_memoized(sim, "S00", "S22", 1, 5.0) == first
        assert len(searches) == 3

    def test_a_hit_takes_no_snapshot(self, monkeypatch, searches):
        """Connect/close cycles among four hosts on the 100 Mbps churn grid
        with at most four 10 Mbps connections live, so no link falls short of
        the rate: after the first round a call neither snapshots nor searches."""
        sim = Simulator(_churn_grid(random.Random("memo"), 0.5, 100.0))
        take, snapshots = Simulator.topology_snapshot, []
        monkeypatch.setattr(Simulator, "topology_snapshot",
                            lambda self: snapshots.append(self) or take(self))
        pairs = [("H00", "H08"), ("H04", "H12"), ("H08", "H00"), ("H12", "H04")]
        live, counts = [], []
        for cycle in range(3):
            for src, dst in pairs:
                got = allocate_on(sim, src, dst, 2, 10.0, 5.0)
                assert got == allocate_disjoint_paths(take(sim), src, dst, 2, 10.0, 5.0)
                live.append(deploy_mirror_paths(sim, FlowId(src, dst, f"c{cycle}"), got, 10.0))
                if len(live) > 3:
                    retract_mirror_paths(sim, live.pop(0))
            counts.append((len(snapshots), len(searches)))
        assert counts == [(4, 4)] * 3

    def test_a_stale_release_changes_nothing(self, sim, searches):
        """Releasing a released or unknown handle records no change: the memo
        still hits and no per-link state is added."""
        first = allocate_fresh_and_memoized(sim, "A", "B", 2)
        handles = deploy_mirror_paths(sim, FLOW, first, 10.0)
        retract_mirror_paths(sim, handles)
        assert allocate_fresh_and_memoized(sim, "A", "B", 2) == first
        changes, changed = sim.changes, sim.links_changed_since(0)
        for handle in handles.reservation_handles + [("A-R1", 10**6), ("no-such-link", 1)]:
            sim.release_capacity(handle)
        assert (sim.changes, sim.links_changed_since(0)) == (changes, changed)
        assert allocate_fresh_and_memoized(sim, "A", "B", 2) == first
        assert len(searches) == 1

    def test_injection_window_opening_and_closing_resolves(self, sim, searches):
        before = allocate_fresh_and_memoized(sim, "A", "B", 1)
        sim.inject_latency(LatencyInjection(before.paths[0][-1], 10.0, 5.0, 10.0))
        assert allocate_fresh_and_memoized(sim, "A", "B", 1) == before
        sim.run_until(5.0)
        inside = allocate_fresh_and_memoized(sim, "A", "B", 1)
        assert inside.paths != before.paths
        sim.run_until(10.0)
        assert allocate_fresh_and_memoized(sim, "A", "B", 1) == before
        assert len(searches) == 3

    def test_remove_link_resolves(self, sim, searches):
        assert allocate_fresh_and_memoized(sim, "A", "B", 2).k == 2
        sim.remove_link("R3-R5")
        got = allocate_fresh_and_memoized(sim, "A", "B", 2)
        assert isinstance(got, AllocationFailure) and got.max_feasible_k == 1
        assert len(searches) == 2

    def test_a_link_removed_before_a_new_rate_leaves_the_map(self, sim, searches):
        """The 5 Mbps call covers every link the 10 Mbps one did, so the map
        differs only by the removed link, which a recheck of the links still
        in the topology would keep."""
        assert allocate_fresh_and_memoized(sim, "A", "B", 2).k == 2
        sim.remove_link("R3-R5")
        got = allocate_fresh_and_memoized(sim, "A", "B", 2, rate=5.0)
        assert isinstance(got, AllocationFailure) and got.max_feasible_k == 1
        assert len(searches) == 2

    def test_bounds_are_checked_on_every_call(self, sim, searches):
        assert allocate_fresh_and_memoized(sim, "A", "B", 2).k == 2
        tight = allocate_fresh_and_memoized(sim, "A", "B", 2, max_latency=1.5)
        assert "exceeds max latency" in tight.reason
        assert isinstance(allocate_fresh_and_memoized(sim, "A", "B", 2, spread=math.nan),
                          AllocationFailure)
        with pytest.raises(KMError, match="k must be >= 1"):
            allocate_on(sim, "A", "B", 0, 10.0, 5.0)
        with pytest.raises(KMError, match="not in topology"):
            allocate_on(sim, "A", "Z", 1, 10.0, 5.0)
        assert len(searches) == 1 + 2  # the two that raised
        assert set(kmflash._ALLOCATIONS[sim][1]) == {("A", "B", 2)}

    def test_memo_is_per_simulator(self, searches):
        for _ in range(2):
            allocate_fresh_and_memoized(Simulator(evaluation_topology()), "A", "B", 2)
        assert len(searches) == 2

    def test_distinct_requests_leave_the_memo_bounded_by_the_topology(self):
        """1,000 connects with distinct K, rate and max latency between four
        two-NIC hosts: a pair keeps at most one entry per K up to its two
        disjoint paths, and one failure for every K above."""
        rng = random.Random(41)
        sim = Simulator(_churn_grid(rng, 0.5, 100_000.0))
        hosts = ["H00", "H04", "H08", "H12"]
        for i, k in enumerate(rng.sample(range(1, 1001), 1000)):
            src, dst = rng.sample(hosts, 2)
            got = allocate_on(sim, src, dst, k, 1.0 + i / 1000, 5.0 + i / 100, 10.0 + i)
            assert isinstance(got, PathSet) if k <= 2 else got.reason == "only 2 disjoint paths"
        memo = kmflash._ALLOCATIONS[sim][1]
        pairs = {(src, dst) for src, dst, _ in memo}
        assert len(pairs) == 12
        assert len(memo) <= len(pairs) * (2 + 1)

    CONNECT = st.tuples(st.just("connect"), st.sampled_from(["S00", "S02", "S22"]),
                        st.sampled_from(["S00", "S02", "S22"]), st.integers(1, 3),
                        st.sampled_from([10.0, 15.0]), st.sampled_from([0.5, 5.0]),
                        st.sampled_from([0.0, 0.2, math.inf]))
    # repeat every earlier connect without deploying, at both rates in a drawn order
    REPEAT = st.tuples(st.just("repeat"), st.permutations([10.0, 15.0]))
    # a connect, every earlier connect repeated at its rate, its close and the
    # same repeats again: results computed while its links were loaded are read
    # back after their release, at the rate of the last call
    REREAD = CONNECT.map(lambda step: ("reread around a close", *step[1:]))

    @settings(max_examples=400, deadline=None)
    @given(steps=st.lists(st.one_of(
        CONNECT, CONNECT,
        st.tuples(st.just("close"), st.integers(0, 30)),
        st.tuples(st.just("inject"), st.sampled_from(sorted(_grid3().links)),
                  st.sampled_from([0.1, 1.0]), st.integers(0, 1), st.integers(1, 3)),
        st.tuples(st.just("advance"), st.integers(1, 3)),
        st.tuples(st.just("remove"), st.sampled_from(sorted(_grid3().links))),
        st.tuples(st.just("release again"), st.integers(0, 30)),
        REPEAT, REPEAT, REREAD,
    ), min_size=5, max_size=30))
    def test_property_matches_a_fresh_allocation(self, steps):
        """Random connects at 10 or 15 Mbps, repeats of the earlier connects
        that read their memoized results back, connects closed between two
        such repeats at their rate, closes, repeated releases of a closed
        connection's reservations, latency injections, link removals and
        clock moves on a 3x3 grid of 20 Mbps links, where a 10 Mbps
        reservation leaves a link short of 15 and two fill it: at every step
        the memoized allocation equals a fresh one."""
        sim = Simulator(_grid3())
        live, closed, connects = [], [], []
        for step, (op, *args) in enumerate(steps):
            if op in ("connect", "reread around a close"):
                src, dst, k, rate, max_latency, spread = args
                if src == dst:
                    continue
                connects.append(args)
                got = allocate_fresh_and_memoized(sim, src, dst, k, rate, max_latency, spread)
                if isinstance(got, AllocationFailure):
                    continue
                live.append(deploy_mirror_paths(sim, FlowId(src, dst, f"c{step}"), got, rate))
                if op == "reread around a close":
                    reread = [(src, dst, k, rate, max_latency, spread)
                              for src, dst, k, _, max_latency, spread in connects]
                    for call in reread:
                        allocate_fresh_and_memoized(sim, *call)
                    closed.append(live.pop())
                    retract_mirror_paths(sim, closed[-1])
                    for call in reread:
                        allocate_fresh_and_memoized(sim, *call)
            elif op == "repeat":
                for rate in args[0]:
                    for src, dst, k, _, max_latency, spread in connects:
                        allocate_fresh_and_memoized(sim, src, dst, k, rate, max_latency, spread)
            elif op == "close" and live:
                closed.append(live.pop(args[0] % len(live)))
                retract_mirror_paths(sim, closed[-1])
            elif op == "release again" and closed:
                for handle in closed[args[0] % len(closed)].reservation_handles:
                    sim.release_capacity(handle)
            elif op == "remove" and args[0] in sim.topology.links:
                sim.remove_link(args[0])
            elif op == "inject" and args[0] in sim.topology.links:
                link, extra, start, length = args
                sim.inject_latency(LatencyInjection(link, extra, sim.now_ms + start,
                                                    sim.now_ms + start + length))
            elif op == "advance":
                sim.run_until(sim.now_ms + args[0])


class TestAddressOf:
    def test_every_endpoint_form(self):
        assert kmflash._address_of("A") == "A"
        assert kmflash._address_of({"address": "A", "port": 5000, "nic": 0}) == "A"
        assert kmflash._address_of([{"address": "B"}, {"address": "C"}]) == "B"
        with pytest.raises(KMError, match="cannot extract an address"):
            kmflash._address_of([])


class TestDefaultPath:
    def test_lexicographic_tie_break(self, sim):
        assert default_shortest_path(view_of(sim), "A", "B") == DEFAULT_PATH

    def test_tie_break_on_equal_sums_of_unequal_floats(self):
        """0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ as floats but are both
        0.6 ms, so the lexicographically smaller S-a-b-D wins."""
        view = mkview(["S", "a", "b", "c", "e", "D"],
                      [("S", "a", 0.1), ("a", "b", 0.2), ("b", "D", 0.3),
                       ("S", "c", 0.3), ("c", "e", 0.2), ("e", "D", 0.1)])
        assert default_shortest_path(view, "S", "D") == ["S-a", "a-b", "b-D"]

    def test_unreachable_returns_none(self):
        view = mkview(["A", "B", "C"], [("A", "B", 1.0)])
        assert default_shortest_path(view, "A", "C") is None


class TestDeploy:
    def test_deploy_k2_installs_six_rules(self, sim):
        pathset = allocate_disjoint_paths(view_of(sim), "A", "B", 2, 10.0, 5.0)
        handles = deploy_mirror_paths(sim, FLOW, pathset, 10.0)
        assert len(sim.all_rules()) == 6
        assert sim.link_load_mbps("A-R1") == 10.0
        retract_mirror_paths(sim, handles)
        assert sim.all_rules() == []
        assert sim.link_load_mbps("A-R1") == 0.0

    def test_stale_pathset_rolls_back(self, sim):
        # path 1 crosses R3-R5: path 0 is deployed and reserved before it fails
        pathset = allocate_disjoint_paths(view_of(sim), "A", "B", 2, 10.0, 5.0)
        sim.remove_link("R3-R5")
        result = deploy_mirror_paths(sim, FLOW, pathset, 10.0)
        assert isinstance(result, AllocationFailure)
        assert result.reason.startswith("deployment conflict: ")
        assert result.max_feasible_k == 2
        assert sim.all_rules() == []
        assert all(sim.link_load_mbps(lid) == 0.0 for lid in sim.topology.links)

    def test_deploy_empty_pathset_rejected(self, sim):
        with pytest.raises(KMError, match="empty path set"):
            deploy_mirror_paths(sim, FLOW, PathSet((), ()), 10.0)


def deployed_handles(sim, k=2, rate=10.0):
    pathset = allocate_disjoint_paths(view_of(sim), "A", "B", k, rate, 5.0)
    assert not isinstance(pathset, AllocationFailure)
    return deploy_mirror_paths(sim, FLOW, pathset, rate)


class TestMirrorSend:
    def test_one_copy_per_path(self, sim):
        handles = deployed_handles(sim)
        records = mirror_send(sim, handles, 0, 512, 5.0)
        assert len(records) == 2
        assert {r.packet.path_index for r in records} == {0, 1}

    def test_copy_i_goes_on_path_index_i(self, sim):
        """The experiment's CSV reads copy i of a seq as path index i."""
        handles = deployed_handles(sim)
        for records in (mirror_send(sim, handles, 0, 512, 5.0),
                        send_copies(sim, FLOW, 3, 1, 512, 5.0)):
            assert [rec.packet.path_index for rec in records] == list(range(len(records)))

    def test_closed_handles_send_nothing_and_retract_once(self, sim, monkeypatch):
        """Retracting closes the handles: a send on them raises before any
        copy leaves, and a second retract changes nothing."""
        handles = deployed_handles(sim)
        retract_mirror_paths(sim, handles)
        state = (sim.changes, sim.links_changed_since(0), set(sim.all_rules()))
        sends = []
        monkeypatch.setattr(sim, "send_packet", sends.append)
        with pytest.raises(KMError, match="handles closed"):
            mirror_send(sim, handles, 0, 512, 5.0)
        assert sends == []
        retract_mirror_paths(sim, handles)
        assert not handles.open
        assert (sim.changes, sim.links_changed_since(0), set(sim.all_rules())) == state

    def test_injection_hits_one_copy_only(self, sim):
        handles = deployed_handles(sim)
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 0.0, 100.0))
        records = mirror_send(sim, handles, 0, 512, 5.0)
        latencies = sorted(r.latency_ms for r in records)
        assert latencies == [pytest.approx(2.0), pytest.approx(12.0)]

    def test_hundred_sends_two_hundred_records(self, sim):
        handles = deployed_handles(sim)
        records = []
        for seq in range(100):
            sim.run_until(seq * 1.0)
            records.extend(mirror_send(sim, handles, seq, 512, 5.0))
        assert len(records) == 200


def per_seq_stats(per_seq, deadline_ms: float):
    """The stats over each seq that sent a copy, as the testbed counts them."""
    return delivery_stats([earliest_latency(records) for records in per_seq if records],
                          deadline_ms)


class TestCollectStats:
    """Statistics over each seq's earliest latency, from per-seq record lists."""

    def run_scenario(self, sim, mirrored: bool):
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        per_seq = []
        if mirrored:
            handles = deployed_handles(sim)
            for seq in range(100):
                sim.run_until(seq * 1.0)
                per_seq.append(mirror_send(sim, handles, seq, 512, 5.0))
        else:
            flow = FlowId("A", "B", "baseline")
            path = default_shortest_path(view_of(sim), "A", "B")
            sim.deploy_path(flow, path)
            for seq in range(100):
                sim.run_until(seq * 1.0)
                per_seq.append([sim.send_packet(Packet(flow, seq, 512, sim.now_ms, 5.0))])
        return per_seq_stats(per_seq, 5.0)

    def test_mirrored_run_fully_in_deadline(self, sim):
        stats = self.run_scenario(sim, mirrored=True)
        assert stats.in_deadline_ratio == 1.0
        assert stats.losses == 0
        assert stats.deadline_violations == 0
        assert stats.sent == 100

    def test_baseline_run_violates_during_window(self, sim):
        stats = self.run_scenario(sim, mirrored=False)
        assert stats.in_deadline_ratio < 1.0
        assert stats.deadline_violations == 20
        assert stats.losses == 0

    def test_zero_sends_vacuous_success(self):
        for per_seq in ([], [[], []]):  # no seq, or seqs that sent no copy
            stats = per_seq_stats(per_seq, 5.0)
            assert stats.in_deadline_ratio == 1.0
            assert stats.sent == 0

    @settings(max_examples=200, deadline=None)
    @given(
        copies=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),  # seq, repeated across copies
                st.integers(min_value=0, max_value=2),   # path index
                # latency in tenths of a ms; None is a lost copy
                st.none() | st.integers(min_value=0, max_value=100),
            ),
            max_size=60,
        ),
        deadline=st.integers(min_value=1, max_value=100),
    )
    def test_property_matches_reference(self, copies, deadline):
        """Lost copies, a seq's copies in any order and no sends at all give
        the same statistics as judging each seq by its earliest delivered copy."""
        records, per_seq = [], {}
        for seq, index, tenths in copies:
            latency = None if tenths is None else tenths / 10  # sent at 0: arrival = latency
            records.append(DeliveryRecord(Packet(FLOW, seq, 512, 0.0, 5.0, index),
                                          latency is not None, latency, latency, False, (), ()))
            per_seq.setdefault(seq, []).append(records[-1])
        assert per_seq_stats(per_seq.values(), deadline / 10) == reference_collect_stats(
            records, deadline / 10)

    def test_module_beats_baseline(self, sim):
        mirrored = self.run_scenario(sim, mirrored=True)
        baseline = self.run_scenario(Simulator(evaluation_topology()), mirrored=False)
        assert mirrored.in_deadline_ratio > baseline.in_deadline_ratio
