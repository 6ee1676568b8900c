"""Multi-agent runtime: environments as concern contexts, the agent type
library and the agent lifecycle, with agents shared per environment and
resource through reference-counted acquire and release.

Resource agents bind directly to simulator resources (a switch, a link);
adapter agents compose other agents and hold no direct resource bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from . import netsim
from .netsim import NodeKind, Simulator


class AgentError(Exception):
    pass


class UnknownTypeError(AgentError):
    pass


class SchemaViolation(AgentError):
    pass


class BindingError(AgentError):
    pass


class AgentKind(str, Enum):
    RESOURCE = "resource"
    ADAPTER = "adapter"


@dataclass(frozen=True)
class ParamSpec:
    name: str
    semantic_type: str


@dataclass(frozen=True)
class AgentTypeDef:
    type_name: str
    kind: AgentKind
    params: tuple[ParamSpec, ...]
    factory: Callable[..., "Agent"] | None = None


class AgentTypeLibrary:
    """The only source of instantiable agent types."""

    def __init__(self) -> None:
        self._types: dict[str, AgentTypeDef] = {}

    def register(self, typedef: AgentTypeDef) -> None:
        if typedef.type_name in self._types:
            raise AgentError(f"type {typedef.type_name!r} already registered")
        self._types[typedef.type_name] = typedef

    def has(self, type_name: str) -> bool:
        return type_name in self._types

    def get(self, type_name: str) -> AgentTypeDef:
        try:
            return self._types[type_name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {type_name!r}")


@dataclass(frozen=True)
class AgentSpec:
    type_name: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class Environment:
    id: str
    concern: str
    agent_ids: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class AgentView:
    agent_id: str
    kind: AgentKind
    type_name: str
    bound_resources: tuple[str, ...]
    composed: tuple[str, ...]


class Agent:
    """Base agent. Subclasses bind resources in `bind` and let them go in
    `release`."""

    def __init__(self, agent_id: str, spec: AgentSpec, typedef: AgentTypeDef):
        self.agent_id = agent_id
        self.spec = spec
        self.typedef = typedef
        self.env_id: str | None = None
        self.bound_resources: tuple[str, ...] = ()
        self.composed: tuple[str, ...] = ()

    def bind(self, runtime: "AgentRuntime") -> None:
        pass

    def release(self, runtime: "AgentRuntime") -> None:
        pass


class SwitchAgent(Agent):
    """Resource agent bound to one switch, which `bind` checks exists."""

    def bind(self, runtime: "AgentRuntime") -> None:
        switch = self.spec.params["switch"]
        try:
            node = runtime.sim.node(switch)
        except netsim.TopologyError as exc:
            raise BindingError(f"resource binding failure: {exc}")
        if node.kind is not NodeKind.SWITCH:
            raise BindingError(f"resource binding failure: {switch!r} is not a switch")
        self.bound_resources = (switch,)


class LinkAgent(Agent):
    """Resource agent bound to one link, which `bind` checks exists. There
    is deliberately no write operation."""

    def bind(self, runtime: "AgentRuntime") -> None:
        link = self.spec.params["link"]
        try:
            runtime.sim.link(link)
        except netsim.TopologyError as exc:
            raise BindingError(f"resource binding failure: {exc}")
        self.bound_resources = (link,)


SWITCH_AGENT_TYPE = AgentTypeDef(
    type_name="SwitchAgent",
    kind=AgentKind.RESOURCE,
    params=(ParamSpec("switch", "switch_id"),),
    factory=SwitchAgent,
)

LINK_AGENT_TYPE = AgentTypeDef(
    type_name="LinkAgent",
    kind=AgentKind.RESOURCE,
    params=(ParamSpec("link", "link_id"),),
    factory=LinkAgent,
)


def builtin_library() -> AgentTypeLibrary:
    lib = AgentTypeLibrary()
    lib.register(SWITCH_AGENT_TYPE)
    lib.register(LINK_AGENT_TYPE)
    return lib


class AgentRuntime:
    """Owns the environments and live agents for one simulator."""

    def __init__(
        self,
        sim: Simulator,
        library: AgentTypeLibrary,
        action_log: Callable[..., None] | None = None,
    ):
        self.sim = sim
        self.library = library
        self.environments: dict[str, Environment] = {}
        self.agents: dict[str, Agent] = {}
        self._agent_seq = 0
        self._shared: dict[tuple, str] = {}  # (env, type, params) -> agent id
        self._holds: dict[str, int] = {}  # acquired agent id -> holders left
        self._action_log = action_log

    def log(self, actor: str, action: str, outcome: str, **detail) -> None:
        if self._action_log is not None:
            self._action_log(actor, action, outcome, **detail)

    # -- environments ------------------------------------------------------

    def create_environment(self, env_id: str, concern: str) -> Environment:
        if env_id in self.environments:
            raise AgentError(f"environment {env_id!r} exists")
        env = Environment(env_id, concern)
        self.environments[env_id] = env
        return env

    def environment(self, env_id: str) -> Environment:
        try:
            return self.environments[env_id]
        except KeyError:
            raise AgentError(f"unknown environment {env_id!r}")

    # -- lifecycle -----------------------------------------------------------

    def spawn_agent(self, env_id: str, spec: AgentSpec) -> str:
        env = self.environment(env_id)
        typedef = self.library.get(spec.type_name)
        self._validate_params(typedef, spec.params)
        self._agent_seq += 1
        agent_id = f"agent-{self._agent_seq:04d}"
        factory = typedef.factory or Agent
        agent = factory(agent_id, spec, typedef)
        agent.env_id = env_id
        agent.bind(self)  # raises BindingError on resource failure
        self.agents[agent_id] = agent
        env.agent_ids.add(agent_id)
        self.log(agent_id, "spawn", "ok", type_name=spec.type_name, env=env_id)
        return agent_id

    def acquire_agent(self, env_id: str, spec: AgentSpec) -> str:
        """The live agent this environment shares for `spec`'s type and
        resource, spawned on first use; each acquire is matched by one
        `release_agent`. An agent destroyed out of band is never handed out
        again."""
        key = (env_id, spec.type_name, frozenset(spec.params.items()))
        agent_id = self._shared.get(key)
        if agent_id not in self.agents:
            agent_id = self._shared[key] = self.spawn_agent(env_id, spec)
        self._holds[agent_id] = self._holds.get(agent_id, 0) + 1
        return agent_id

    def release_agent(self, agent_id: str) -> None:
        """Drop one hold on the agent and destroy it with the last; an agent
        that was never acquired has one holder."""
        holds = self._holds.pop(agent_id, 1) - 1
        if holds:
            self._holds[agent_id] = holds
        else:
            self.destroy_agent(agent_id)

    def _validate_params(self, typedef: AgentTypeDef, params: dict) -> None:
        known = {p.name for p in typedef.params}
        unknown = set(params) - known
        if unknown:
            raise SchemaViolation(
                f"unknown params for {typedef.type_name}: {sorted(unknown)}"
            )
        for p in typedef.params:
            if p.name not in params:
                raise SchemaViolation(f"missing param {p.name!r} for {typedef.type_name}")
            value = params[p.name]
            if p.semantic_type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise SchemaViolation(f"param {p.name!r} must be an integer")
            if p.semantic_type in ("mbps", "ms") and not isinstance(value, (int, float)):
                raise SchemaViolation(f"param {p.name!r} must be a number")

    def agent(self, agent_id: str) -> Agent:
        try:
            return self.agents[agent_id]
        except KeyError:
            raise AgentError(f"unknown agent {agent_id!r}")

    def destroy_agent(self, agent_id: str) -> None:
        """Remove the agent; destroying an already-gone agent is a no-op."""
        agent = self.agents.get(agent_id)
        if agent is None:
            return
        agent.release(self)
        if agent.env_id and agent.env_id in self.environments:
            self.environments[agent.env_id].agent_ids.discard(agent_id)
        del self.agents[agent_id]
        self.log(agent_id, "destroy", "ok", type_name=agent.spec.type_name)

    # -- central view ------------------------------------------------------------

    def central_view(self, env_id: str) -> list[AgentView]:
        env = self.environment(env_id)
        views = []
        for agent_id in sorted(env.agent_ids):
            agent = self.agents[agent_id]
            views.append(
                AgentView(
                    agent_id=agent_id,
                    kind=agent.typedef.kind,
                    type_name=agent.typedef.type_name,
                    bound_resources=agent.bound_resources,
                    composed=agent.composed,
                )
            )
        return views
