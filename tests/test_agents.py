import pytest

from socketstore.agents import (
    AgentKind,
    AgentRuntime,
    AgentSpec,
    AgentError,
    AgentTypeDef,
    BindingError,
    SchemaViolation,
    UnknownTypeError,
)
from socketstore.fixtures import default_library, evaluation_topology
from socketstore.netsim import Simulator


PLAIN_TYPE = AgentTypeDef("Plain", AgentKind.ADAPTER, ())


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
        assert runtime.agent(aid).bound_resources == ("R4-B",)

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
        library.register(PLAIN_TYPE)
        with pytest.raises(AgentError, match="type 'Plain' already registered"):
            library.register(PLAIN_TYPE)

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

    def test_destroy_twice_is_noop(self):
        log = []
        rt = AgentRuntime(Simulator(evaluation_topology()), default_library(),
                          lambda *entry, **detail: log.append(entry))
        rt.create_environment("e", "x")
        aid = spawn_link(rt, env="e")
        rt.destroy_agent(aid)
        rt.destroy_agent(aid)
        assert log == [(aid, "spawn", "ok"), (aid, "destroy", "ok")]

    def test_rebind_after_destroy(self, runtime):
        aid = spawn_link(runtime)
        runtime.destroy_agent(aid)
        aid2 = spawn_link(runtime)
        assert runtime.agent(aid2).bound_resources == ("R4-B",)


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


class TestLinkAgent:
    def test_no_write_operation_exists(self, runtime):
        aid = spawn_link(runtime)
        agent = runtime.agent(aid)
        assert not hasattr(agent, "write")
        assert not hasattr(agent, "write_rule")


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

    def test_agent_destroyed_out_of_band_is_not_handed_out_again(self, runtime):
        spec = AgentSpec("LinkAgent", {"link": "A-R1"})
        aid = runtime.acquire_agent("testbed", spec)
        runtime.destroy_agent(aid)
        fresh = runtime.acquire_agent("testbed", spec)
        assert fresh != aid
        runtime.release_agent(aid)  # its one holder lets go of the old agent
        assert set(runtime.agents) == {fresh}
        assert runtime.acquire_agent("testbed", spec) == fresh
