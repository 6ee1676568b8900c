import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.agents import (
    STORE_ADDRESS,
    Agent,
    AgentKind,
    AgentRuntime,
    AgentSpec,
    AgentError,
    AgentTypeDef,
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


class RecordingAgent(Agent):
    """Test-only agent: keeps every message it is handed and acknowledges
    each note to its sender, so delivery order is observable without any
    production state."""

    def __init__(self, *args):
        super().__init__(*args)
        self.received = []

    def handle_message(self, runtime, message):
        self.received.append(message)
        if message.payload["kind"] == "note":
            runtime.reply(self, message, {"kind": "ack", "n": message.payload["n"]})


RECORDING_TYPE = AgentTypeDef("Recording", AgentKind.ADAPTER, (), ("note",),
                              factory=RecordingAgent)


class CourierAgent(Agent):
    """Test-only agent: on a note, queues a note to each agent in `to`, then
    destroys the agent `destroy` while those notes are still queued."""

    def handle_message(self, runtime, message):
        if message.payload["kind"] != "note":
            return
        for to in message.payload["to"]:
            runtime.send_message(self.agent_id, to, {"kind": "note", "n": message.payload["n"]})
        self.queue_before = runtime._queue
        self.dropped = runtime.destroy_agent(message.payload["destroy"])


COURIER_TYPE = AgentTypeDef("Courier", AgentKind.ADAPTER, (), ("note",), factory=CourierAgent)


def recording_runtime(count, action_log=None):
    library = default_library()
    library.register(RECORDING_TYPE)
    library.register(COURIER_TYPE)
    rt = AgentRuntime(Simulator(evaluation_topology()), library, action_log)
    rt.create_environment("e", "x")
    return rt, [rt.spawn_agent("e", AgentSpec("Recording")) for _ in range(count)]


def received(rt, to, kind, from_=None):
    return [m.payload["n"] for m in rt.agents[to].received
            if m.payload["kind"] == kind and from_ in (None, m.from_)]


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

    def test_switch_agent_on_unknown_node_rejected(self, runtime):
        with pytest.raises(BindingError, match="resource binding failure: unknown node 'R9'"):
            runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R9"}))

    def test_type_registered_twice_rejected(self, library):
        library.register(RECORDING_TYPE)
        with pytest.raises(AgentError, match="type 'Recording' already registered"):
            library.register(RECORDING_TYPE)

    def test_environment_created_twice_rejected(self, runtime):
        with pytest.raises(AgentError, match="environment 'testbed' exists"):
            runtime.create_environment("testbed", "second concern")

    def test_unknown_agent_id_rejected(self, runtime):
        with pytest.raises(AgentError, match="unknown agent 'no-such-agent'"):
            runtime.agent("no-such-agent")

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

    def test_destroy_drops_the_messages_queued_for_it(self):
        log = []
        rt, (b, c) = recording_runtime(2, lambda *entry, **detail: log.append((*entry, detail)))
        courier = rt.spawn_agent("e", AgentSpec("Courier"))
        rt.send_message(STORE_ADDRESS, courier, {"kind": "note", "n": 7, "to": [b, c, b],
                                                 "destroy": b})
        assert rt.agents[courier].dropped == 2
        drops = [entry for entry in log if entry[1] == "drop_message"]
        assert drops == [(b, "drop_message", "ok", {"from_": courier, "kind": "note"})] * 2
        assert log.index(drops[0]) < log.index((b, "destroy", "ok", {"type_name": "Recording"}))
        assert received(rt, c, "note") == [7]

    def test_destroy_with_nothing_queued_for_it_keeps_the_queue(self):
        log = []
        rt, (b, c) = recording_runtime(2, lambda *entry, **detail: log.append((*entry, detail)))
        courier = rt.spawn_agent("e", AgentSpec("Courier"))
        rt.send_message(STORE_ADDRESS, courier, {"kind": "note", "n": 7, "to": [c],
                                                 "destroy": b})
        agent = rt.agents[courier]
        assert agent.dropped == 0
        assert rt._queue is agent.queue_before
        assert all(entry[1] != "drop_message" for entry in log)
        assert received(rt, c, "note") == [7]
        assert b not in rt.agents

    def test_rebind_after_destroy(self, runtime):
        aid = spawn_link(runtime)
        runtime.destroy_agent(aid)
        aid2 = spawn_link(runtime)
        assert runtime.agent(aid2).bound_resources == ("R4-B",)


class TestMessaging:
    def test_per_pair_fifo(self):
        rt, (a, b) = recording_runtime(2)
        rt.send_message(a, b, {"kind": "note", "n": 1})
        rt.send_message(a, b, {"kind": "note", "n": 2})
        assert received(rt, b, "note") == [1, 2]
        assert received(rt, a, "ack") == [1, 2]

    def test_send_returns_only_what_reaches_the_store(self):
        rt, (a, b) = recording_runtime(2)
        assert rt.send_message(a, b, {"kind": "note", "n": 1}) == []
        (ack,) = rt.send_message(STORE_ADDRESS, b, {"kind": "note", "n": 2})
        assert (ack.from_, ack.to, ack.payload) == (b, STORE_ADDRESS, {"kind": "ack", "n": 2})

    def test_message_to_destroyed_rejected(self, runtime):
        a = spawn_link(runtime, "A-R1")
        b = spawn_link(runtime, "A-R2")
        runtime.destroy_agent(b)
        with pytest.raises(MessageRejected):
            runtime.send_message(a, b, {"kind": "read"})

    def test_reply_to_a_sender_that_is_no_agent_is_dropped_and_logged(self):
        """A note from an address that is neither the store nor an agent is
        delivered, and the ack the recipient sends back is dropped."""
        log = []
        rt, (b,) = recording_runtime(1, lambda *entry, **detail: log.append((*entry, detail)))
        assert rt.send_message("device-1", b, {"kind": "note", "n": 3}) == []
        assert received(rt, b, "note", "device-1") == [3]
        assert log[-1] == ("device-1", "drop_message", "ok", {"from_": b, "kind": "ack"})

    def test_unknown_payload_kind_rejected(self, runtime):
        a = spawn_link(runtime, "A-R1")
        with pytest.raises(MessageRejected, match="does not accept"):
            runtime.send_message("store", a, {"kind": "explode"})

    @settings(max_examples=20, deadline=None)
    @given(plan=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=60))
    def test_property_per_pair_order_preserved(self, plan):
        """Senders 0-4 are agents and sender 5 is the store; every note is
        delivered exactly once and in order per pair, and so is its ack."""
        rt, ids = recording_runtime(5)
        senders = ids + [STORE_ADDRESS]
        sent: dict[tuple[str, str], list[int]] = {}
        acks_to_store = []
        for n, (i, j) in enumerate(plan):
            frm, to = senders[i], ids[j]
            replies = rt.send_message(frm, to, {"kind": "note", "n": n})
            acks_to_store += [m.payload["n"] for m in replies]
            sent.setdefault((frm, to), []).append(n)
        notes = [n for to in ids for n in received(rt, to, "note")]
        acks = [n for to in ids for n in received(rt, to, "ack")] + acks_to_store
        assert sorted(notes) == sorted(acks) == list(range(len(plan)))
        for (frm, to), ns in sent.items():
            assert received(rt, to, "note", frm) == ns
            if frm == STORE_ADDRESS:
                assert [n for n in acks_to_store if n in ns] == ns
            else:
                assert received(rt, frm, "ack", to) == ns


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

    def test_write_rule_for_another_switch_rejected(self, runtime, sim):
        aid = runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R3"}))
        with pytest.raises(AgentError, match="rule targets 'R4', agent manages 'R3'"):
            runtime.agent(aid).write_rule(runtime, FlowRule("R4", FLOW, 0, "R4-B"))
        assert sim.rules_at("R4") == []

    def test_write_rule_non_incident_rejected(self, runtime):
        aid = runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R3"}))
        with pytest.raises(Exception, match="not incident"):
            runtime.agent(aid).write_rule(runtime, FlowRule("R3", FLOW, 0, "R4-B"))

    def test_read_rules_via_message(self, runtime, sim):
        aid = runtime.spawn_agent("testbed", AgentSpec("SwitchAgent", {"switch": "R3"}))
        sim.deploy_path(FLOW, DEFAULT_PATH)
        (reply,) = runtime.send_message("store", aid, {"kind": "read_rules"})
        assert reply.from_ == aid
        assert reply.payload == {"kind": "rules", "switch": "R3", "rules": [
            {"flow": ["A", "B", "f"], "path_index": 0, "out_link": "R3-R4"}]}

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
        (reply,) = runtime.send_message("store", aid, {"kind": "read"})
        assert reply.payload["kind"] == "link_stats"
        assert reply.payload["capacity_mbps"] == 100.0


class TestMove:
    def test_move_preserves_id(self, runtime):
        aid = spawn_link(runtime)
        runtime.create_environment("other", "second concern")
        runtime.move_agent(aid, "other")
        assert any(v.agent_id == aid for v in runtime.central_view("other"))
        assert all(v.agent_id != aid for v in runtime.central_view("testbed"))


class TestSharedAgents:
    """Resource agents acquired in one environment are shared per type and
    resource, and live until their last holder releases them."""

    def test_one_agent_per_environment_type_and_resource(self, runtime):
        a_r1 = AgentSpec("LinkAgent", {"link": "A-R1"})
        aid = runtime.acquire_agent("testbed", a_r1)
        assert runtime.acquire_agent("testbed", AgentSpec("LinkAgent", {"link": "A-R1"})) == aid
        assert runtime.acquire_agent("testbed", AgentSpec("LinkAgent", {"link": "A-R2"})) != aid
        runtime.create_environment("other", "second concern")
        assert runtime.acquire_agent("other", a_r1) != aid
        assert runtime.spawn_agent("testbed", a_r1) != aid  # a plain spawn never shares
        assert len(runtime.agents) == 4

    def test_last_release_destroys_once(self):
        log = []
        rt = AgentRuntime(Simulator(evaluation_topology()), default_library(),
                          lambda *entry, **detail: log.append(entry))
        rt.create_environment("e", "x")
        spec = AgentSpec("SwitchAgent", {"switch": "R3"})
        aid = rt.acquire_agent("e", spec)
        assert rt.acquire_agent("e", spec) == aid
        rt.release_agent(aid)
        assert aid in rt.agents
        rt.release_agent(aid)
        assert rt.agents == {}
        assert log == [(aid, "spawn", "ok"), (aid, "destroy", "ok")]
        assert rt.acquire_agent("e", spec) != aid

    def test_release_of_an_agent_never_acquired_destroys_it(self, runtime):
        aid = spawn_link(runtime)
        runtime.release_agent(aid)
        assert runtime.agents == {}

    @pytest.mark.parametrize("out_of_band", ["destroy", "move"])
    def test_agent_destroyed_or_moved_out_of_band_is_not_handed_out_again(
            self, runtime, out_of_band):
        spec = AgentSpec("LinkAgent", {"link": "A-R1"})
        aid = runtime.acquire_agent("testbed", spec)
        if out_of_band == "destroy":
            runtime.destroy_agent(aid)
        else:
            runtime.create_environment("other", "second concern")
            runtime.move_agent(aid, "other")
        fresh = runtime.acquire_agent("testbed", spec)
        assert fresh != aid
        runtime.release_agent(aid)  # its one holder lets go of the old agent
        assert set(runtime.agents) == {fresh}
        assert runtime.acquire_agent("testbed", spec) == fresh
