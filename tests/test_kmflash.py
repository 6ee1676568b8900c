import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.fixtures import evaluation_topology
from socketstore.kmflash import (
    AllocationFailure,
    KMError,
    allocate_disjoint_paths,
    collect_stats,
    default_shortest_path,
    deploy_mirror_paths,
    mirror_send,
    retract_mirror_paths,
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


class TestDefaultPath:
    def test_lexicographic_tie_break(self, sim):
        assert default_shortest_path(view_of(sim), "A", "B") == DEFAULT_PATH

    def test_unreachable_returns_none(self):
        view = mkview(["A", "B", "C"], [("A", "B", 1.0)])
        assert default_shortest_path(view, "A", "C") is None


class TestDeploy:
    def test_deploy_k2_installs_six_rules(self, sim):
        pathset = allocate_disjoint_paths(view_of(sim), "A", "B", 2, 10.0, 5.0)
        handles = deploy_mirror_paths(sim, FLOW, pathset, 10.0)
        assert len(sim.all_rules()) == 6
        assert sim.link_stats("A-R1").load_mbps == 10.0
        retract_mirror_paths(sim, handles)
        assert sim.all_rules() == []
        assert sim.link_stats("A-R1").load_mbps == 0.0

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
        from socketstore.kmflash import PathSet

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


class TestCollectStats:
    def run_scenario(self, sim, mirrored: bool):
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        records = []
        if mirrored:
            handles = deployed_handles(sim)
            for seq in range(100):
                sim.run_until(seq * 1.0)
                records.extend(mirror_send(sim, handles, seq, 512, 5.0))
        else:
            flow = FlowId("A", "B", "baseline")
            path = default_shortest_path(view_of(sim), "A", "B")
            sim.deploy_path(flow, path)
            for seq in range(100):
                sim.run_until(seq * 1.0)
                records.append(
                    sim.send_packet(Packet(flow, seq, 512, sim.now_ms, 5.0))
                )
        return collect_stats(records, 5.0)

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
        stats = collect_stats([], 5.0)
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
        """Lost copies, repeated seqs, copies in any order and no sends at
        all give the same statistics as grouping every copy by seq first."""
        records = []
        for seq, index, tenths in copies:
            latency = None if tenths is None else tenths / 10  # sent at 0: arrival = latency
            records.append(DeliveryRecord(Packet(FLOW, seq, 512, 0.0, 5.0, index),
                                          latency is not None, latency, latency, False, ()))
        assert collect_stats(records, deadline / 10) == reference_collect_stats(
            records, deadline / 10)

    def test_module_beats_baseline(self, sim):
        mirrored = self.run_scenario(sim, mirrored=True)
        baseline = self.run_scenario(Simulator(evaluation_topology()), mirrored=False)
        assert mirrored.in_deadline_ratio > baseline.in_deadline_ratio
