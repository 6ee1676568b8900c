import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.fixtures import evaluation_topology
from socketstore.kmflash import AllocationFailure, allocate_on, deploy_mirror_paths, retract_mirror_paths
from socketstore.netsim import (
    CapacityError,
    FlowId,
    FlowRule,
    LatencyInjection,
    NS_PER_MS,
    NetsimError,
    NodeKind,
    Packet,
    RoutingError,
    Simulator,
    TopologyError,
    build_topology,
    ms_to_ns,
)

from .conftest import DEFAULT_PATH, SECOND_PATH
from .oracles import ReferenceSimulator, recompute_latency_ms
from .test_kmflash import _churn_grid

FLOW = FlowId("A", "B", "f")


def packet(seq=0, sent_at=0.0, deadline=5.0, path_index=0, flow=FLOW):
    return Packet(flow, seq, 512, sent_at, deadline, path_index)


@pytest.mark.parametrize("record, field", [
    (FLOW, "tag"),
    (packet(), "seq"),
    (FlowRule("R1", FLOW, 0, "R1-R3"), "out_link"),
    (Simulator(evaluation_topology()).send_packet(packet()), "delivered"),
], ids=["FlowId", "Packet", "FlowRule", "DeliveryRecord"])
def test_records_are_immutable_tuples(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == tuple(getattr(record, name) for name in type(record)._fields)
    assert hash(record) == hash(tuple(record))


def two_hosts(endpoint_pairs, latency_ms=0.5):
    """A document of hosts A and B with one 10 Mbps link per endpoint pair."""
    return {"nodes": [{"id": h, "kind": "host", "nic_count": 1} for h in "AB"],
            "links": [{"endpoints": pair, "capacity_mbps": 10, "latency_ms": latency_ms}
                      for pair in endpoint_pairs]}


class TestBuildTopology:
    def test_evaluation_topology_counts(self):
        topo = evaluation_topology()
        assert len(topo.nodes) == 7
        assert len(topo.links) == 8

    def test_empty_node_list_rejected(self):
        with pytest.raises(TopologyError, match="empty topology"):
            build_topology({"nodes": [], "links": []})

    def test_unknown_endpoint_rejected(self):
        spec = {
            "nodes": [{"id": "A", "kind": "host", "nic_count": 1}],
            "links": [{"endpoints": ["A", "R9"], "capacity_mbps": 100, "latency_ms": 0.5}],
        }
        with pytest.raises(TopologyError, match="unknown endpoint"):
            build_topology(spec)

    def test_duplicate_id_rejected(self):
        spec = {
            "nodes": [
                {"id": "A", "kind": "host", "nic_count": 1},
                {"id": "A", "kind": "switch"},
            ],
            "links": [],
        }
        with pytest.raises(TopologyError, match="duplicate id"):
            build_topology(spec)

    def test_non_positive_capacity_rejected(self):
        spec = {
            "nodes": [
                {"id": "A", "kind": "host", "nic_count": 1},
                {"id": "B", "kind": "host", "nic_count": 1},
            ],
            "links": [{"endpoints": ["A", "B"], "capacity_mbps": 0, "latency_ms": 0.5}],
        }
        with pytest.raises(TopologyError, match="non-positive capacity"):
            build_topology(spec)

    def test_unknown_fields_rejected(self):
        spec = {
            "nodes": [{"id": "A", "kind": "host", "nic_count": 1, "color": "red"}],
            "links": [],
        }
        with pytest.raises(TopologyError, match="unknown node fields"):
            build_topology(spec)

    @pytest.mark.parametrize("spec, violation", [
        ([], "topology must be an object"),
        ({"nodes": 5, "links": []}, "topology.nodes must be a list"),
        ({"nodes": [{"id": "A", "kind": "host", "nic_count": "x"}]},
         "node.nic_count must be an int or null"),
        ({"nodes": [{"id": 1, "kind": "switch"}]}, "node.id must be a string"),
        ({"nodes": [{"kind": "switch"}]}, "node missing fields ['id']"),
        ({"nodes": [{"id": "A", "kind": "hub"}]}, "node.kind must be one of 'host', 'switch'"),
        ({"links": [{"endpoints": ["A"], "capacity_mbps": 1, "latency_ms": 1}]},
         "link.endpoints must be a list of 2 items"),
        ({"links": [{"endpoints": ["A", "B"], "capacity_mbps": "1", "latency_ms": 1}]},
         "link.capacity_mbps must be a finite number"),
        ({"links": [{"endpoints": ["A", "B"], "capacity_mbps": 1, "latency_ms": 10**400}]},
         "link.latency_ms must be a finite number"),
        ({"nodes": [{"id": "S", "kind": "switch", "nic_count": 1}]},
         "switch 'S' must not carry nic_count"),
        (two_hosts([["A", "B"], ["A", "B"]]), "duplicate id 'A-B'"),
        (two_hosts([["A", "A"]]), "link 'A-A' endpoints must be distinct"),
        (two_hosts([["A", "B"]], latency_ms=-0.5), "negative latency on link 'A-B'"),
    ], ids=["not-an-object", "nodes", "nic-count", "id", "no-id", "kind", "endpoints", "capacity",
            "latency-beyond-float", "switch-nic-count", "duplicate-link", "equal-endpoints",
            "negative-latency"])
    def test_malformed_document_is_a_topology_error(self, spec, violation):
        with pytest.raises(TopologyError) as raised:
            build_topology(spec)
        assert str(raised.value) == violation

    def test_host_needs_nic_count(self):
        with pytest.raises(TopologyError, match="nic_count"):
            build_topology({"nodes": [{"id": "A", "kind": "host"}], "links": []})


class TestDeployRetract:
    def test_deploy_installs_one_rule_per_switch(self, sim):
        rules = sim.deploy_path(FLOW, DEFAULT_PATH)
        assert len(rules) == 3
        assert [r.switch for r in rules] == ["R1", "R3", "R4"]

    def test_non_contiguous_path_rejected(self, sim):
        with pytest.raises(RoutingError, match="non-contiguous"):
            sim.deploy_path(FLOW, ["A-R1", "R3-R4", "R4-B"])

    def test_empty_path_rejected(self, sim):
        with pytest.raises(RoutingError, match="empty path"):
            sim.deploy_path(FLOW, [])
        assert sim.all_rules() == []

    def test_other_end_of_a_link_not_touching_the_node(self, sim):
        assert sim.link("A-R1").other_end("R1") == "A"
        with pytest.raises(RoutingError, match="node 'B' is not an endpoint of link 'A-R1'"):
            sim.link("A-R1").other_end("B")

    def test_path_must_end_at_flow_destination(self, sim):
        with pytest.raises(RoutingError, match="not flow destination"):
            sim.deploy_path(FLOW, ["A-R1", "R1-R3"])

    def test_redeploy_replaces_old_rules(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        sim.deploy_path(FLOW, ["A-R2", "R2-R3", "R3-R5", "R5-B"])
        switches = {r.switch for r in sim.all_rules()}
        assert switches == {"R2", "R3", "R5"}
        assert len(sim.all_rules()) == 3

    def test_retract_counts_rules(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        assert sim.retract_path(FLOW, 0) == 3
        assert sim.retract_path(FLOW, 0) == 0

    def test_retract_on_fresh_sim(self, sim):
        assert sim.retract_path(FLOW, 0) == 0

    def test_node_revisiting_path_rejected_and_old_deployment_kept(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        before = sim.all_rules()
        with pytest.raises(RoutingError, match="revisits a node"):
            sim.deploy_path(FLOW, ["A-R1", "R1-R3", "R1-R3", "R1-R3", "R3-R4", "R4-B"])
        assert sim.all_rules() == before
        rec = sim.send_packet(packet())
        assert rec.delivered
        assert [h.link for h in rec.hops] == DEFAULT_PATH


class TestInjection:
    def test_delay_inside_window(self, sim):
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        assert sim.link_delay_ms("R4-B", 50.0) == pytest.approx(10.5, abs=1e-12)

    def test_window_is_half_open(self, sim):
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        assert sim.link_delay_ms("R4-B", 60.0) == pytest.approx(0.5, abs=1e-12)
        assert sim.link_delay_ms("R4-B", 40.0) == pytest.approx(10.5, abs=1e-12)

    def test_zero_extra_rejected(self, sim):
        with pytest.raises(NetsimError, match="non-positive injection"):
            sim.inject_latency(LatencyInjection("R4-B", 0.0, 40.0, 60.0))

    def test_inverted_window_rejected(self, sim):
        with pytest.raises(NetsimError, match="inverted window"):
            sim.inject_latency(LatencyInjection("R4-B", 1.0, 60.0, 40.0))

    def test_unknown_link_rejected(self, sim):
        with pytest.raises(TopologyError, match="unknown link"):
            sim.inject_latency(LatencyInjection("R9-B", 1.0, 0.0, 1.0))


class TestSendPacket:
    def test_clean_path_latency(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        rec = sim.send_packet(packet())
        assert rec.delivered
        assert rec.latency_ms == pytest.approx(2.0, abs=1e-12)
        assert not rec.violated_deadline

    def test_injected_last_link(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 0.0, 100.0))
        rec = sim.send_packet(packet())
        assert rec.latency_ms == pytest.approx(12.0, abs=1e-12)
        assert rec.violated_deadline

    def test_no_rules_drops(self, sim):
        rec = sim.send_packet(packet())
        assert not rec.delivered
        assert rec.drop_reason == "no rule at A"
        assert rec.arrive_at_ms is None

    def test_unknown_destination_drops_as_unroutable(self, sim):
        """The simulator records a send to a node outside the topology as a
        drop, walking no link; an unknown source is still an error."""
        sim.deploy_path(FLOW, DEFAULT_PATH)
        rec = sim.send_packet(packet(flow=FlowId("A", "Z", "lost"), path_index=1))
        assert (rec.delivered, rec.drop_reason, rec.arrive_at_ms, rec.latency_ms, rec.hops) == (
            False, "unroutable destination", None, None, ())
        assert rec.packet.path_index == 1 and not rec.violated_deadline
        with pytest.raises(TopologyError, match="unknown node 'Z'"):
            sim.send_packet(packet(flow=FlowId("Z", "B")))

    def test_partial_rules_drop_at_switch(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        # tearing out R3's out link drops its rule: the packet strands at R3
        sim.remove_link("R3-R4")
        rec = sim.send_packet(packet())
        assert not rec.delivered
        assert rec.drop_reason == "no rule at R3"
        assert len(rec.hops) == 2

    def test_no_retransmission_hop_count_equals_path_length(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        rec = sim.send_packet(packet())
        assert len(rec.hops) == len(DEFAULT_PATH)

    def test_latency_additivity_recomputed(self, sim):
        inj = LatencyInjection("R3-R4", 3.25, 1.0, 2.0)
        sim.deploy_path(FLOW, DEFAULT_PATH)
        sim.inject_latency(inj)
        for sent_at in (0.0, 0.25, 0.5, 1.0):
            rec = sim.send_packet(packet(sent_at=sent_at))
            assert rec.latency_ms == pytest.approx(
                recompute_latency_ms(rec, sim.topology, [inj]), abs=1e-9
            )

    def test_determinism(self):
        def run():
            s = Simulator(evaluation_topology())
            s.deploy_path(FLOW, DEFAULT_PATH)
            s.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
            recs = []
            for i in range(100):
                s.run_until(i * 1.0)
                recs.append(s.send_packet(packet(seq=i, sent_at=s.now_ms)))
            return recs

        assert run() == run()

    def test_injection_locality(self, sim):
        """A flow not crossing the injected link is unaffected by it."""
        other = ["A-R2", "R2-R3", "R3-R5", "R5-B"]
        flow2 = FlowId("A", "B", "g")
        sim.deploy_path(flow2, other)
        base = sim.send_packet(packet(flow=flow2))
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 0.0, 1000.0))
        raised = sim.send_packet(packet(seq=1, flow=flow2))
        assert base.latency_ms == raised.latency_ms


class TestRouteChangesAfterSend:
    """Each table change made after a first send shows in the next send."""

    def test_redeploy_to_another_path(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        assert [h.link for h in sim.send_packet(packet()).hops] == DEFAULT_PATH
        sim.deploy_path(FLOW, SECOND_PATH)
        rec = sim.send_packet(packet(seq=1))
        assert rec.delivered
        assert [h.link for h in rec.hops] == SECOND_PATH

    def test_retract(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        assert sim.send_packet(packet()).delivered
        sim.retract_path(FLOW)
        rec = sim.send_packet(packet(seq=1))
        assert (rec.delivered, rec.drop_reason, rec.hops) == (False, "no rule at A", ())

    def test_remove_link(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        assert sim.send_packet(packet()).delivered
        sim.remove_link("R3-R4")
        rec = sim.send_packet(packet(seq=1))
        assert rec.drop_reason == "no rule at R3"
        assert [h.link for h in rec.hops] == ["A-R1", "R1-R3"]

    def test_injection_on_a_link_that_had_none(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        base = sim.send_packet(packet()).latency_ms
        sim.inject_latency(LatencyInjection("R3-R4", 7.0, 0.0, 100.0))
        assert sim.send_packet(packet(seq=1)).latency_ms == pytest.approx(base + 7.0)

    def test_injection_on_a_link_that_had_one(self, sim):
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 500.0, 600.0))  # not active at 0
        sim.deploy_path(FLOW, DEFAULT_PATH)
        base = sim.send_packet(packet()).latency_ms
        sim.inject_latency(LatencyInjection("R4-B", 7.0, 0.0, 100.0))
        assert sim.send_packet(packet(seq=1)).latency_ms == pytest.approx(base + 7.0)

    def test_remove_link_and_redeploy_samples_only_the_new_route(self, sim):
        for index in (0, 1):
            sim.deploy_path(FLOW, DEFAULT_PATH, index)
            sim.send_packet(packet(path_index=index))  # compiles both routes
        sim.remove_link("R3-R4")
        sim.deploy_path(FLOW, SECOND_PATH, 0)
        moved, cut = (sim.send_packet(packet(seq=1, path_index=i)) for i in (0, 1))
        assert moved.delivered and moved.hop_links == tuple(SECOND_PATH)
        assert cut.drop_reason == "no rule at R3" and cut.hop_links == ("A-R1", "R1-R3")

    def test_compiled_routes_only_for_deployed_keys(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH, 0)
        sim.deploy_path(FLOW, SECOND_PATH, 1)
        for seq in range(2):
            for index in range(4):  # 2 and 3 are never deployed
                sim.send_packet(packet(seq=seq, path_index=index))
            sim.retract_path(FLOW, 1)
        assert set(sim._compiled) <= set(sim._routes)


class TestWalkReuse:
    """A deploy checks its path once per (src, dst, path index) and reuses that
    walk until an injection or a link removal."""

    @pytest.mark.parametrize("bad, error", [
        (["A-R1", "A-R2"], "path traverses host 'A'"),
        (["R1-R3", "A-R2"], "non-contiguous path: link 'A-R2' does not touch 'R3'"),
    ], ids=["host-transit", "non-contiguous"])
    def test_another_path_of_the_same_length_is_checked_again(self, sim, bad, error):
        flow = FlowId("R1", "R2")
        sim.deploy_path(flow, ["R1-R3", "R2-R3"])
        with pytest.raises(RoutingError, match=error):
            sim.deploy_path(FlowId("R1", "R2", "other"), bad)
        assert sim.all_rules() == [FlowRule("R3", flow, 0, "R2-R3")]

    def test_an_injection_delays_a_later_deploy_over_the_kept_walk(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        base = sim.send_packet(packet()).latency_ms
        sim.inject_latency(LatencyInjection("R3-R4", 7.0, 0.0, 100.0))
        later = FlowId("A", "B", "later")
        sim.deploy_path(later, DEFAULT_PATH)
        assert sim.send_packet(packet(flow=later)).latency_ms == pytest.approx(base + 7.0)

    def test_a_redeploy_over_a_removed_link_raises(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        sim.remove_link("R3-R4")
        with pytest.raises(TopologyError, match="unknown link 'R3-R4'"):
            sim.deploy_path(FlowId("A", "B", "later"), DEFAULT_PATH)

    def test_walks_over_a_link_share_its_hop_until_an_injection_or_removal(self, sim):
        def hops(flow):
            return sim._compiled[(flow, 0)][1]

        other = FlowId("R1", "B")
        sim.deploy_path(FLOW, DEFAULT_PATH)
        sim.deploy_path(other, DEFAULT_PATH[1:])
        assert all(a is b for a, b in zip(hops(FLOW)[1:], hops(other)))
        sim.inject_latency(LatencyInjection("R4-B", 1.0, 0.0, 1.0))
        sim.deploy_path(other, DEFAULT_PATH[1:])
        assert hops(other)[-1][1] == [(0, NS_PER_MS, NS_PER_MS)]
        sim.remove_link("R4-B")
        assert "R4-B" not in sim._link_hops

    def test_churn_keeps_one_walk_per_pair_and_index(self):
        """2,000 K=2 connect/close cycles on the 100 Mbps churn grid, up to 20
        live, so loaded links move some pairs onto other paths: every deploy
        forwards on the paths just allocated, and the kept walks never
        outnumber the pairs connected times K."""
        rng = random.Random("walks")
        sim = Simulator(_churn_grid(rng, 0.5, 100.0))
        hosts = sorted(n.id for n in sim.topology.nodes.values() if n.kind is NodeKind.HOST)
        live, paths = [], {}
        for cycle in range(2000):
            src, dst = rng.sample(hosts, 2)
            got = allocate_on(sim, src, dst, 2, 10.0, 5.0)
            if not isinstance(got, AllocationFailure):
                flow = FlowId(src, dst, f"c{cycle}")
                live.append(deploy_mirror_paths(sim, flow, got, 10.0))
                paths.setdefault((src, dst), set()).add(got.paths)
                for index, path in enumerate(got.paths):
                    sent = sim.send_packet(packet(flow=flow, path_index=index))
                    assert sent.delivered and sent.hop_links == path
            if len(live) > 20:
                retract_mirror_paths(sim, live.pop(rng.randrange(len(live))))
            assert len(sim._walks) <= 2 * len(paths)
        assert sum(len(sets) > 1 for sets in paths.values()) > 10


class TestBaseDelays:
    """A send outside every injection window of its route, each window shifted
    back by the base delays before its hop, takes the route's base delays
    as they are; any other send walks the hops."""

    INJECTIONS = [
        LatencyInjection("R1-R3", 2.0, 5.0, 9.0),
        LatencyInjection("R1-R3", 1.5, 7.0, 12.0),  # overlaps the window above
        LatencyInjection("R3-R4", 3.0, -4.0, 2.0),  # starts before 0
        LatencyInjection("R4-B", 0.5, 3.0, 6.0),  # two back-to-back windows on one link
        LatencyInjection("R4-B", 0.25, 6.0, 8.0),
    ]

    def test_sends_on_every_window_edge_match_the_reference(self, sim):
        ref = ReferenceSimulator(evaluation_topology())
        for target in (sim, ref):
            target.deploy_path(FLOW, DEFAULT_PATH)
            for inj in self.INJECTIONS:  # after the deploy, which compiled the route
                target.inject_latency(inj)
        offsets = dict(zip(DEFAULT_PATH, accumulate(
            (ms_to_ns(sim.link(lid).base_latency_ms) for lid in DEFAULT_PATH), initial=0)))
        windows = [(ms_to_ns(inj.start_ms) - offsets[inj.link],
                    ms_to_ns(inj.end_ms) - offsets[inj.link]) for inj in self.INJECTIONS]
        base = sim.send_packet(packet(sent_at=1000.0)).hop_delays_ns
        for lo, hi in windows:
            for sent_ns in (lo - 1, lo, hi - 1, hi):
                pkt = packet(sent_at=sent_ns / NS_PER_MS)
                assert ms_to_ns(pkt.sent_at_ms) == sent_ns
                record = sim.send_packet(pkt)
                assert record == ref.send_packet(pkt)
                assert record.hops == ref.last_hops
                if not any(w_lo <= sent_ns < w_hi for w_lo, w_hi in windows):
                    assert record.hop_delays_ns is base  # shared, not walked again
        assert sim.send_packet(packet(sent_at=windows[0][0] / NS_PER_MS)).hop_delays_ns != base


class TestLinkStatsAndSnapshot:
    def test_latency_now_during_window(self, sim):
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        sim.run_until(50.0)
        assert sim.link_delay_ms("R4-B", sim.now_ms) == pytest.approx(10.5)

    def test_latency_now_before_window(self, sim):
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        assert sim.link_delay_ms("R4-B", sim.now_ms) == pytest.approx(0.5)
        assert sim.link("R4-B").capacity_mbps == 100.0

    def test_idle_link_load_zero(self, sim):
        assert sim.link_load_mbps("R4-B") == 0.0

    def test_snapshot_counts(self, sim):
        view = sim.topology_snapshot()
        assert len(view.nodes) == 7
        assert len(view.links) == 8

    def test_snapshot_reflects_injection(self, sim):
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        sim.run_until(45.0)
        view = sim.topology_snapshot()
        by_id = {lk.id: lk for lk in view.links}
        assert by_id["R4-B"].latency_ms == pytest.approx(10.5)
        assert by_id["R3-R4"].latency_ms == pytest.approx(0.5)

    def test_snapshot_through_an_injection_window(self, sim):
        """A snapshot inside the window shows the extra latency and one after
        it the base latency; the other links keep their cached views."""
        before = {lk.id: lk for lk in sim.topology_snapshot().links}
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        sim.run_until(45.0)
        inside = {lk.id: lk for lk in sim.topology_snapshot().links}
        sim.run_until(60.0)
        after = {lk.id: lk for lk in sim.topology_snapshot().links}
        assert inside["R4-B"].latency_ms == 10.5
        assert after["R4-B"].latency_ms == 0.5 == before["R4-B"].latency_ms
        for link in before.keys() - {"R4-B"}:
            assert before[link] is inside[link] is after[link]

    def test_single_node_topology_snapshot(self):
        s = Simulator(build_topology({"nodes": [{"id": "A", "kind": "host", "nic_count": 1}]}))
        view = s.topology_snapshot()
        assert len(view.nodes) == 1
        assert view.links == ()

    def test_snapshot_mutation_does_not_leak(self, sim):
        view = sim.topology_snapshot()
        assert view.links[0].capacity_mbps == 100.0
        # frozen dataclasses: snapshot entries cannot be written at all
        with pytest.raises(Exception):
            view.links[0].capacity_mbps = 1.0
        assert sim.link("A-R1").capacity_mbps == 100.0


class TestReservations:
    def test_reserve_and_release(self, sim):
        h = sim.reserve_capacity("A-R1", 40.0)
        assert sim.link_load_mbps("A-R1") == 40.0
        sim.release_capacity(h)
        assert sim.link_load_mbps("A-R1") == 0.0

    def test_over_reservation_rejected(self, sim):
        sim.reserve_capacity("A-R1", 80.0)
        with pytest.raises(CapacityError, match="capacity exceeded"):
            sim.reserve_capacity("A-R1", 30.0)

    @pytest.mark.parametrize("mbps", [0.0, -5.0])
    def test_non_positive_reservation_rejected(self, sim, mbps):
        with pytest.raises(CapacityError, match="reservation must be positive"):
            sim.reserve_capacity("A-R1", mbps)
        assert sim.link_load_mbps("A-R1") == 0.0 and sim.changes == 0

    def test_load_never_exceeds_capacity(self, sim):
        sim.reserve_capacity("A-R1", 100.0)
        assert sim.link_load_mbps("A-R1") <= sim.link("A-R1").capacity_mbps


class TestRuleUniqueness:
    def test_one_rule_per_switch_flow_path_index(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH)
        sim.deploy_path(FLOW, ["A-R1", "R1-R3", "R3-R5", "R5-B"])  # R1 and R3 again
        keys = [(r.switch, r.flow, r.path_index) for r in sim.all_rules()]
        assert len(keys) == len(set(keys))

    def test_mirror_paths_share_switch_without_clobbering(self, sim):
        sim.deploy_path(FLOW, DEFAULT_PATH, path_index=0)
        sim.deploy_path(FLOW, ["A-R2", "R2-R3", "R3-R5", "R5-B"], path_index=1)
        r3_rules = [r for r in sim.all_rules() if r.switch == "R3"]
        assert len(r3_rules) == 2
        rec0 = sim.send_packet(packet(path_index=0))
        rec1 = sim.send_packet(packet(path_index=1))
        assert rec0.delivered and rec1.delivered
        assert {h.link for h in rec0.hops}.isdisjoint({h.link for h in rec1.hops})

    def test_flow_from_a_switch_has_no_rule_at_its_source(self, sim):
        """A flow may start at a switch; its first hop is the egress that
        deploy_path sets, not a switch rule."""
        flow = FlowId("R3", "B")
        sim.deploy_path(flow, ["R3-R4", "R4-B"])
        assert sim.all_rules() == [FlowRule("R4", flow, 0, "R4-B")]
        assert [h.link for h in sim.send_packet(packet(flow=flow)).hops] == ["R3-R4", "R4-B"]


@settings(max_examples=30)
@given(
    extra=st.floats(min_value=0.1, max_value=50.0),
    start=st.floats(min_value=0.0, max_value=80.0),
    width=st.floats(min_value=0.1, max_value=40.0),
    sent=st.floats(min_value=0.0, max_value=120.0),
)
def test_property_latency_matches_recomputation(extra, start, width, sent):
    sim = Simulator(evaluation_topology())
    sim.deploy_path(FLOW, DEFAULT_PATH)
    inj = LatencyInjection("R3-R4", extra, start, start + width)
    sim.inject_latency(inj)
    rec = sim.send_packet(packet(sent_at=sent))
    assert rec.delivered
    assert rec.latency_ms == pytest.approx(
        recompute_latency_ms(rec, sim.topology, [inj]), abs=1e-9
    )


# flows from both hosts and from a switch, on up to three path indexes
TABLE_FLOWS = (FLOW, FlowId("B", "A", "f"), FlowId("A", "B", "g"), FlowId("R3", "A"))
TABLE_LINKS = tuple(sorted(evaluation_topology().links))
_flow = st.integers(0, len(TABLE_FLOWS) - 1)
_index = st.integers(0, 2)
_link = st.sampled_from(TABLE_LINKS)
_ms = st.sampled_from([0.0, 9.5, 10.0, 20.0, 32.25, 45.0])
_deploy = st.tuples(st.just("deploy"), _flow, _index, st.lists(st.integers(0, 7), min_size=1, max_size=6))
# several reservations on one link, in amounts whose float sum depends on order
_reserve = st.tuples(st.just("reserve"), _link,
                     st.lists(st.sampled_from([0.1, 0.2, 0.7, 10.0, 33.3]), min_size=1, max_size=4))
_send = st.tuples(st.just("send"), _ms)
# deploys, reservations and sends are drawn more often than the rest
TABLE_OPS = st.one_of(
    _deploy, _deploy, _deploy, _reserve, _reserve, _send, _send,
    st.tuples(st.just("run_until"), _ms),
    st.tuples(st.just("deploy_links"), _flow, _index, st.lists(_link, min_size=1, max_size=4)),
    st.tuples(st.just("retract"), _flow, _index),
    st.tuples(st.just("release"), st.integers(0, 40)),
    st.tuples(st.just("inject"), _link, st.sampled_from([0.25, 3.0, 10.0]), _ms,
              st.sampled_from([0.5, 10.0, 30.0])),
    st.tuples(st.just("remove"), _link),
)


def _walk(topology, flow, choices):
    """Link ids of a walk of up to 12 links from the flow source that stops
    on reaching the destination. Step i takes choice i modulo the choices:
    it picks the next link by index among the links the walk did not just
    arrive on, and choice 7 goes back over that link."""
    cursor, path, nodes = flow.src, [], [flow.src]
    for step in range(12):
        choice = choices[step % len(choices)]
        incident = sorted(lk.id for lk in topology.links.values() if cursor in lk.endpoints)
        onward = [lk for lk in incident if not path or lk != path[-1]]
        if not onward or (choice == 7 and path):
            onward = path[-1:]
        if not onward:
            break
        link = topology.links[onward[choice % len(onward)]]
        path.append(link.id)
        cursor = link.other_end(cursor)
        nodes.append(cursor)
        if cursor == flow.dst:
            break
    return path, len(set(nodes)) != len(nodes)


def _outcome(call):
    try:
        return ("ok", call())
    except NetsimError as exc:
        return (type(exc), None)


def _assert_same_sends(sim, ref, sent_at):
    """One packet on every (flow, path index) gets the same record from both."""
    for flow in TABLE_FLOWS:
        for index in range(3):
            pkt = packet(sent_at=sent_at, flow=flow, path_index=index)
            sim_record = sim.send_packet(pkt)
            assert sim_record == ref.send_packet(pkt)
            assert sim_record.hops == ref.last_hops


def _rule_key(rule):
    return (rule.switch, rule.flow.src, rule.flow.dst, rule.flow.tag, rule.path_index, rule.out_link)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(TABLE_OPS, min_size=4, max_size=40))
def test_property_tables_match_flat_reference(ops):
    """Routes, reservations and injections kept per key answer every query
    exactly as flat tables filtered on read do, and the snapshot with its
    cached link views equals one that views every link afresh."""
    sim = Simulator(evaluation_topology())
    ref = ReferenceSimulator(evaluation_topology())
    for target in (sim, ref):  # start from a deployed mirror pair
        target.deploy_path(FLOW, DEFAULT_PATH, 0)
        target.deploy_path(FLOW, SECOND_PATH, 1)
    handles = []  # (simulator handle, reference handle) of each reservation
    for op in ops:
        kind = op[0]
        if kind in ("deploy", "deploy_links"):
            flow, index = TABLE_FLOWS[op[1]], op[2]
            path, revisits = _walk(sim.topology, flow, op[3]) if kind == "deploy" else (op[3], False)
            if revisits:
                with pytest.raises(RoutingError):
                    sim.deploy_path(flow, path, index)
                continue
            assert _outcome(lambda: sim.deploy_path(flow, path, index)) == _outcome(
                lambda: ref.deploy_path(flow, path, index))
        elif kind == "retract":
            flow, index = TABLE_FLOWS[op[1]], op[2]
            assert sim.retract_path(flow, index) == ref.retract_path(flow, index)
        elif kind == "reserve":
            for mbps in op[2]:
                got = _outcome(lambda: sim.reserve_capacity(op[1], mbps))
                want = _outcome(lambda: ref.reserve_capacity(op[1], mbps))
                assert got[0] == want[0]
                if got[0] == "ok":
                    handles.append((got[1], want[1]))
        elif kind == "release":
            if handles:
                got, want = handles[op[1] % len(handles)]
                sim.release_capacity(got)
                ref.release_capacity(want)
        elif kind == "inject":
            inj = LatencyInjection(op[1], op[2], op[3], op[3] + op[4])
            assert _outcome(lambda: sim.inject_latency(inj)) == _outcome(lambda: ref.inject_latency(inj))
        elif kind == "remove":
            assert _outcome(lambda: sim.remove_link(op[1])) == _outcome(lambda: ref.remove_link(op[1]))
        elif kind == "run_until":
            sim.run_until(op[1])
            ref.run_until(op[1])
        else:
            _assert_same_sends(sim, ref, op[1])
        assert sorted(sim.all_rules(), key=_rule_key) == sorted(ref.all_rules(), key=_rule_key)
        for link in TABLE_LINKS:
            assert sim.link_load_mbps(link) == ref.link_load_mbps(link)
        assert sim.topology_snapshot() == ref.topology_snapshot()
    for sent_at in (0.0, 17.5, 45.0):
        _assert_same_sends(sim, ref, sent_at)
