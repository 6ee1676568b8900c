"""Multi-agent runtime: environments as concern contexts, the agent type
library, agent lifecycle, and an in-process message bus with per-pair FIFO
and exactly-once delivery.

Resource agents bind directly to simulator resources (a switch routing
table, a link monitor); adapter agents compose other agents and hold no
direct resource bindings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from . import netsim
from .netsim import FlowRule, NodeKind, Simulator


class AgentError(Exception):
    pass


class UnknownTypeError(AgentError):
    pass


class SchemaViolation(AgentError):
    pass


class BindingError(AgentError):
    pass


class MessageRejected(AgentError):
    pass


class AgentKind(str, Enum):
    RESOURCE = "resource"
    ADAPTER = "adapter"


class LifecycleState(str, Enum):
    CREATED = "created"
    RUNNING = "running"
    DESTROYED = "destroyed"


@dataclass(frozen=True)
class ParamSpec:
    name: str
    semantic_type: str


@dataclass(frozen=True)
class AgentTypeDef:
    type_name: str
    kind: AgentKind
    params: tuple[ParamSpec, ...]
    message_kinds: tuple[str, ...]
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
class Message:
    from_: str
    to: str
    payload: dict


@dataclass(frozen=True)
class AgentView:
    agent_id: str
    kind: AgentKind
    type_name: str
    bound_resources: tuple[str, ...]
    composed: tuple[str, ...]


class Agent:
    """Base agent. Subclasses bind resources in `bind` and react to
    messages in `handle_message`."""

    def __init__(self, agent_id: str, spec: AgentSpec, typedef: AgentTypeDef):
        self.agent_id = agent_id
        self.spec = spec
        self.typedef = typedef
        self.state = LifecycleState.CREATED
        self.env_id: str | None = None
        self.bound_resources: tuple[str, ...] = ()
        self.composed: tuple[str, ...] = ()

    def bind(self, runtime: "AgentRuntime") -> None:
        pass

    def release(self, runtime: "AgentRuntime") -> None:
        pass

    def handle_message(self, runtime: "AgentRuntime", message: Message) -> None:
        pass


class SwitchAgent(Agent):
    """Resource agent over one switch: inspectable and editable routing
    table, nothing else."""

    def bind(self, runtime: "AgentRuntime") -> None:
        switch = self.spec.params["switch"]
        try:
            node = runtime.sim.node(switch)
        except netsim.TopologyError as exc:
            raise BindingError(f"resource binding failure: {exc}")
        if node.kind is not NodeKind.SWITCH:
            raise BindingError(f"resource binding failure: {switch!r} is not a switch")
        self.switch = switch
        self.bound_resources = (switch,)

    def read_rules(self, runtime: "AgentRuntime") -> list[FlowRule]:
        return runtime.sim.rules_at(self.switch)

    def write_rule(self, runtime: "AgentRuntime", rule: FlowRule) -> None:
        if rule.switch != self.switch:
            raise AgentError(f"rule targets {rule.switch!r}, agent manages {self.switch!r}")
        runtime.sim.install_rule(rule)

    def handle_message(self, runtime, message):
        if message.payload.get("kind") == "read_rules":
            rules = [
                {"flow": [r.flow.src, r.flow.dst, r.flow.tag],
                 "path_index": r.path_index, "out_link": r.out_link}
                for r in self.read_rules(runtime)
            ]
            runtime.reply(self, message, {"kind": "rules", "switch": self.switch, "rules": rules})


class LinkAgent(Agent):
    """Resource agent over one link: read-only static and monitored
    attributes. There is deliberately no write operation."""

    def bind(self, runtime: "AgentRuntime") -> None:
        link = self.spec.params["link"]
        try:
            runtime.sim.link(link)
        except netsim.TopologyError as exc:
            raise BindingError(f"resource binding failure: {exc}")
        self.link = link
        self.bound_resources = (link,)

    def read(self, runtime: "AgentRuntime") -> netsim.LinkStats:
        return runtime.sim.link_stats(self.link)

    def handle_message(self, runtime, message):
        if message.payload.get("kind") == "read":
            stats = self.read(runtime)
            runtime.reply(self, message, {"kind": "link_stats", **vars(stats),
                                          "endpoints": list(stats.endpoints)})


SWITCH_AGENT_TYPE = AgentTypeDef(
    type_name="SwitchAgent",
    kind=AgentKind.RESOURCE,
    params=(ParamSpec("switch", "switch_id"),),
    message_kinds=("read_rules",),
    factory=SwitchAgent,
)

LINK_AGENT_TYPE = AgentTypeDef(
    type_name="LinkAgent",
    kind=AgentKind.RESOURCE,
    params=(ParamSpec("link", "link_id"),),
    message_kinds=("read",),
    factory=LinkAgent,
)


def builtin_library() -> AgentTypeLibrary:
    lib = AgentTypeLibrary()
    lib.register(SWITCH_AGENT_TYPE)
    lib.register(LINK_AGENT_TYPE)
    return lib


STORE_ADDRESS = "store"


class AgentRuntime:
    """Owns environments, live agents and the message bus for one simulator.

    Observable behavior equals a serialized per-agent execution: the bus is
    a single FIFO drained between sends, which implies per-(from, to) FIFO
    and exactly-once delivery.
    """

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
        self._queue: deque[Message] = deque()
        self._draining = False
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
        agent.state = LifecycleState.RUNNING
        self.agents[agent_id] = agent
        env.agent_ids.add(agent_id)
        self.log(agent_id, "spawn", "ok", type_name=spec.type_name, env=env_id)
        return agent_id

    def acquire_agent(self, env_id: str, spec: AgentSpec) -> str:
        """The live agent this environment shares for `spec`'s type and
        resource, spawned on first use; each acquire is matched by one
        `release_agent`. An agent destroyed or moved out of band is never
        handed out again."""
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

    def destroy_agent(self, agent_id: str) -> int:
        """Remove the agent; pending messages to it are dropped with a logged
        notice. Returns the number of dropped messages; destroying an
        already-gone agent is a no-op returning 0."""
        agent = self.agents.get(agent_id)
        if agent is None:
            return 0
        dropped = [m for m in self._queue if m.to == agent_id]
        if dropped:
            self._queue = deque(m for m in self._queue if m.to != agent_id)
        for msg in dropped:
            self.log(agent_id, "drop_message", "ok", from_=msg.from_, kind=msg.payload.get("kind"))
        agent.release(self)
        agent.state = LifecycleState.DESTROYED
        if agent.env_id and agent.env_id in self.environments:
            self.environments[agent.env_id].agent_ids.discard(agent_id)
        del self.agents[agent_id]
        self.log(agent_id, "destroy", "ok", type_name=agent.spec.type_name)
        return len(dropped)

    def move_agent(self, agent_id: str, new_env_id: str) -> None:
        """Atomic re-registration into another environment, preserving id."""
        agent = self.agent(agent_id)
        new_env = self.environment(new_env_id)
        old_env = self.environment(agent.env_id)
        self._shared = {key: aid for key, aid in self._shared.items() if aid != agent_id}
        old_env.agent_ids.discard(agent_id)
        new_env.agent_ids.add(agent_id)
        agent.env_id = new_env_id
        self.log(agent_id, "move", "ok", env=new_env_id)

    # -- messaging ------------------------------------------------------------

    def send_message(self, from_: str, to: str, payload: dict) -> list[Message]:
        """Deliver a message and every message it sets off; returns those
        addressed to the store, in delivery order. Raises MessageRejected
        when the destination is unknown/destroyed or the payload kind is
        outside the destination type's declared message schema."""
        if to != STORE_ADDRESS:
            agent = self.agents.get(to)
            if agent is None or agent.state is not LifecycleState.RUNNING:
                raise MessageRejected(f"destination {to!r} is not a running agent")
            kind = payload.get("kind")
            if kind not in agent.typedef.message_kinds:
                raise MessageRejected(
                    f"{agent.typedef.type_name} does not accept payload kind {kind!r}"
                )
        self._queue.append(Message(from_, to, payload))
        return self._drain()

    def reply(self, agent: Agent, original: Message, payload: dict) -> None:
        """Reply path agents use from `handle_message`; the reply is
        delivered by the drain in progress. Replies skip the schema check
        (they are responses, not directives)."""
        self._queue.append(Message(agent.agent_id, original.from_, payload))

    def _drain(self) -> list[Message]:
        if self._draining:
            return []  # the outer drain delivers it
        self._draining = True
        to_store = []
        try:
            while self._queue:
                msg = self._queue.popleft()
                if msg.to == STORE_ADDRESS:
                    to_store.append(msg)
                    continue
                agent = self.agents.get(msg.to)
                if agent is None or agent.state is not LifecycleState.RUNNING:
                    self.log(msg.to, "drop_message", "ok", from_=msg.from_,
                             kind=msg.payload.get("kind"))
                    continue
                agent.handle_message(self, msg)
        finally:
            self._draining = False
        return to_store

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
