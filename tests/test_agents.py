import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.agents import (
    AgentKind,
    AgentRuntime,
    AgentSpec,
    BindingError,
    LifecycleState,
    MessageRejected,
    SchemaViolation,
    UnknownTypeError,
)
from socketstore.fixtures import default_library, evaluation_topology
from socketstore.netsim import FlowId, FlowRule, LatencyInjection, Simulator

from .conftest import DEFAULT_PATH

FLOW = FlowId("A", "B", "f")


@pytest.fixture
def runtime(sim, library):
    rt = AgentRuntime(sim, library)
    rt.create_environment("testbed", "sdn-testbed")
    return rt


def spawn_link(rt, link="R4-B", env="testbed"):
    return rt.spawn_agent(env, AgentSpec("LinkAgent", {"link": link}))


class TestSpawn:
    def test_spawn_link_agent_binds(self, runtime):
        aid = spawn_link(runtime)
        agent = runtime.agent(aid)
        assert agent.state is LifecycleState.RUNNING
        assert agent.bound_resources == ("R4-B",)

    def test_unknown_type(self, runtime):
        with pytest.raises(UnknownTypeError, match="unknown type"):
            runtime.spawn_agent("testbed", AgentSpec("NoSuchAgent", {}))

    def test_switch_agent_on_host_rejected(self, runtime):
        with pytest.raises(BindingError, match="resource binding failure"):
            runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "A"}))

    def test_unknown_link_rejected(self, runtime):
        with pytest.raises(BindingError, match="resource binding failure"):
            spawn_link(runtime, link="R9-B")

    def test_schema_violation_unknown_param(self, runtime):
        with pytest.raises(SchemaViolation):
            runtime.spawn_agent("testbed", AgentSpec("LinkAgent", {"lonk": "R4-B"}))

    def test_schema_violation_missing_param(self, runtime):
        with pytest.raises(SchemaViolation):
            runtime.spawn_agent("testbed", AgentSpec("LinkAgent", {}))


class TestDestroy:
    def test_destroy_removes_from_registry(self, runtime):
        aid = spawn_link(runtime)
        runtime.destroy_agent(aid)
        assert all(v.agent_id != aid for v in runtime.central_view("testbed"))

    def test_destroy_twice_is_noop(self, runtime):
        aid = spawn_link(runtime)
        runtime.destroy_agent(aid)
        assert runtime.destroy_agent(aid) == 0

    def test_rebind_after_destroy(self, runtime):
        aid = spawn_link(runtime)
        runtime.destroy_agent(aid)
        aid2 = spawn_link(runtime)
        assert runtime.agent(aid2).bound_resources == ("R4-B",)


class TestMessaging:
    def test_per_pair_fifo(self, runtime):
        a = spawn_link(runtime, "A-R1")
        b = spawn_link(runtime, "A-R2")
        runtime.send_message(a, b, {"kind": "read", "n": 1})
        runtime.send_message(a, b, {"kind": "read", "n": 2})
        got = [m.payload["n"] for m in runtime.agent(b).inbox]
        assert got == [1, 2]

    def test_message_to_destroyed_rejected(self, runtime):
        a = spawn_link(runtime, "A-R1")
        b = spawn_link(runtime, "A-R2")
        runtime.destroy_agent(b)
        with pytest.raises(MessageRejected):
            runtime.send_message(a, b, {"kind": "read"})

    def test_unknown_payload_kind_rejected(self, runtime):
        a = spawn_link(runtime, "A-R1")
        with pytest.raises(MessageRejected, match="does not accept"):
            runtime.send_message("store", a, {"kind": "explode"})

    @settings(max_examples=20, deadline=None)
    @given(plan=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=60))
    def test_property_per_pair_order_preserved(self, plan):
        sim = Simulator(evaluation_topology())
        rt = AgentRuntime(sim, default_library())
        rt.create_environment("e", "x")
        links = ["A-R1", "A-R2", "R1-R3", "R2-R3", "R3-R4"]
        ids = [rt.spawn_agent("e", AgentSpec("LinkAgent", {"link": l})) for l in links]
        sent: dict[tuple[str, str], list[int]] = {}
        for n, (i, j) in enumerate(plan):
            frm, to = ids[i], ids[j]
            rt.send_message(frm, to, {"kind": "read", "n": n})
            sent.setdefault((frm, to), []).append(n)
        # exactly-once: every sent message delivered exactly once
        delivered_ns = [m.payload["n"] for agent in rt.agents.values()
                        for m in agent.inbox if "n" in m.payload]
        assert sorted(delivered_ns) == list(range(len(plan)))
        for (frm, to), ns in sent.items():
            got = [
                m.payload["n"]
                for m in rt.agents[to].inbox
                if m.from_ == frm and "n" in m.payload
            ]
            assert got == ns


class TestCentralView:
    def test_cardinality(self, runtime):
        spawn_link(runtime, "A-R1")
        spawn_link(runtime, "A-R2")
        runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R3"}))
        assert len(runtime.central_view("testbed")) == 3

    def test_fresh_environment_empty(self, runtime):
        runtime.create_environment("empty", "nothing")
        assert runtime.central_view("empty") == []

    def test_unknown_environment(self, runtime):
        with pytest.raises(Exception, match="unknown environment"):
            runtime.central_view("nope")

    def test_registry_accuracy_spawns_minus_destroys(self, runtime):
        ids = [spawn_link(runtime, l) for l in ("A-R1", "A-R2", "R1-R3")]
        runtime.destroy_agent(ids[1])
        assert len(runtime.central_view("testbed")) == 2

    def test_adapter_purity_no_direct_resources(self, runtime):
        for view in runtime.central_view("testbed"):
            if view.kind is AgentKind.ADAPTER:
                assert view.bound_resources == ()


class TestSwitchAgent:
    def test_read_rules_reflects_deploy(self, runtime, sim):
        aid = runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R3"}))
        sim.deploy_path(FLOW, DEFAULT_PATH)
        rules = runtime.agent(aid).read_rules(runtime)
        assert len(rules) == 1
        assert rules[0].out_link == "R3-R4"

    def test_fresh_switch_empty(self, runtime):
        aid = runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R3"}))
        assert runtime.agent(aid).read_rules(runtime) == []

    def test_write_rule_non_incident_rejected(self, runtime):
        aid = runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R3"}))
        with pytest.raises(Exception, match="not incident"):
            runtime.agent(aid).write_rule(runtime, FlowRule("R3", FLOW, 0, "R4-B"))

    def test_write_rule_replaces(self, runtime, sim):
        aid = runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R3"}))
        agent = runtime.agent(aid)
        agent.write_rule(runtime, FlowRule("R3", FLOW, 0, "R3-R4"))
        agent.write_rule(runtime, FlowRule("R3", FLOW, 0, "R3-R5"))
        rules = agent.read_rules(runtime)
        assert len(rules) == 1
        assert rules[0].out_link == "R3-R5"


class TestLinkAgent:
    def test_read_matches_link_stats(self, runtime, sim):
        aid = spawn_link(runtime)
        sim.inject_latency(LatencyInjection("R4-B", 10.0, 40.0, 60.0))
        sim.run_until(50.0)
        stats = runtime.agent(aid).read(runtime)
        assert stats == sim.link_stats("R4-B")
        assert stats.latency_now_ms == pytest.approx(10.5)

    def test_capacity_static(self, runtime):
        aid = spawn_link(runtime)
        assert runtime.agent(aid).read(runtime).capacity_mbps == 100.0

    def test_no_write_operation_exists(self, runtime):
        aid = spawn_link(runtime)
        agent = runtime.agent(aid)
        assert not hasattr(agent, "write")
        assert not hasattr(agent, "write_rule")

    def test_read_via_message(self, runtime):
        aid = spawn_link(runtime)
        runtime.send_message("store", aid, {"kind": "read"})
        reply = runtime.store_inbox[-1]
        assert reply.payload["kind"] == "link_stats"
        assert reply.payload["capacity_mbps"] == 100.0


class TestMove:
    def test_move_preserves_id(self, runtime):
        aid = spawn_link(runtime)
        runtime.create_environment("other", "second concern")
        runtime.move_agent(aid, "other")
        assert any(v.agent_id == aid for v in runtime.central_view("other"))
        assert all(v.agent_id != aid for v in runtime.central_view("testbed"))
