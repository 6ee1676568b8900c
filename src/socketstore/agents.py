"""Multi-agent runtime: environments as concern contexts, the agent type
library, agent lifecycle, and an in-process message bus with per-pair FIFO
and exactly-once delivery.

Resource agents bind directly to simulator resources (a switch routing
table, a link monitor); adapter agents compose other agents and hold no
direct resource bindings.
"""

from __future__ import annotations

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
    required: bool = True


@dataclass(frozen=True)
class AgentTypeDef:
    type_name: str
    kind: AgentKind
    params: tuple[ParamSpec, ...]
    message_kinds: tuple[str, ...]
    doc: str = ""
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
    ts_ms: float


@dataclass(frozen=True)
class AgentView:
    agent_id: str
    kind: AgentKind
    type_name: str
    state: LifecycleState
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
        self.inbox: list[Message] = []

    def bind(self, runtime: "AgentRuntime") -> None:
        pass

    def release(self, runtime: "AgentRuntime") -> None:
        pass

    def handle_message(self, runtime: "AgentRuntime", message: Message) -> None:
        self.inbox.append(message)


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
        super().handle_message(runtime, message)
        kind = message.payload.get("kind")
        if kind == "read_rules":
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
        super().handle_message(runtime, message)
        if message.payload.get("kind") == "read":
            stats = self.read(runtime)
            runtime.reply(self, message, {
                "kind": "link_stats",
                "link": stats.link,
                "endpoints": list(stats.endpoints),
                "capacity_mbps": stats.capacity_mbps,
                "latency_now_ms": stats.latency_now_ms,
                "rate_mbps": stats.rate_mbps,
                "load_mbps": stats.load_mbps,
            })


SWITCH_AGENT_TYPE = AgentTypeDef(
    type_name="SwitchAgent",
    kind=AgentKind.RESOURCE,
    params=(ParamSpec("switch", "switch_id"),),
    message_kinds=("read_rules",),
    doc="Routing-table view and editor for one switch.",
    factory=SwitchAgent,
)

LINK_AGENT_TYPE = AgentTypeDef(
    type_name="LinkAgent",
    kind=AgentKind.RESOURCE,
    params=(ParamSpec("link", "link_id"),),
    message_kinds=("read",),
    doc="Read-only static and monitored attributes of one link.",
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
        self._queue: list[Message] = []
        self._draining = False
        self.store_inbox: list[Message] = []
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

    def _validate_params(self, typedef: AgentTypeDef, params: dict) -> None:
        known = {p.name for p in typedef.params}
        unknown = set(params) - known
        if unknown:
            raise SchemaViolation(
                f"unknown params for {typedef.type_name}: {sorted(unknown)}"
            )
        for p in typedef.params:
            if p.required and p.name not in params:
                raise SchemaViolation(f"missing param {p.name!r} for {typedef.type_name}")
            if p.name in params:
                value = params[p.name]
                if p.semantic_type == "int" and not isinstance(value, int):
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
        self._queue = [m for m in self._queue if m.to != agent_id]
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
        old_env.agent_ids.discard(agent_id)
        new_env.agent_ids.add(agent_id)
        agent.env_id = new_env_id
        self.log(agent_id, "move", "ok", env=new_env_id)

    # -- messaging ------------------------------------------------------------

    def send_message(self, from_: str, to: str, payload: dict) -> None:
        """Enqueue a message; raises MessageRejected when the destination is
        unknown/destroyed or the payload kind is outside the destination
        type's declared message schema."""
        if to != STORE_ADDRESS:
            agent = self.agents.get(to)
            if agent is None or agent.state is not LifecycleState.RUNNING:
                raise MessageRejected(f"destination {to!r} is not a running agent")
            kind = payload.get("kind")
            if kind not in agent.typedef.message_kinds:
                raise MessageRejected(
                    f"{agent.typedef.type_name} does not accept payload kind {kind!r}"
                )
        self._queue.append(Message(from_, to, payload, self.sim.now_ms))
        self._drain()

    def reply(self, agent: Agent, original: Message, payload: dict) -> None:
        """Reply path used by agents; replies to the store land in
        store_inbox, replies to agents skip the schema check (they are
        responses, not directives)."""
        msg = Message(agent.agent_id, original.from_, payload, self.sim.now_ms)
        self._queue.append(msg)
        self._drain()

    def _drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._queue:
                msg = self._queue.pop(0)
                if msg.to == STORE_ADDRESS:
                    self.store_inbox.append(msg)
                    continue
                agent = self.agents.get(msg.to)
                if agent is None or agent.state is not LifecycleState.RUNNING:
                    self.log(msg.to, "drop_message", "ok", from_=msg.from_,
                             kind=msg.payload.get("kind"))
                    continue
                agent.handle_message(self, msg)
        finally:
            self._draining = False

    # -- central view ------------------------------------------------------------

    def central_view(self, env_id: str) -> list[AgentView]:
        env = self.environment(env_id)
        views = []
        for agent_id in sorted(env.agent_ids):
            agent = self.agents.get(agent_id)
            if agent is None or agent.state is not LifecycleState.RUNNING:
                continue
            views.append(
                AgentView(
                    agent_id=agent_id,
                    kind=agent.typedef.kind,
                    type_name=agent.typedef.type_name,
                    state=agent.state,
                    bound_resources=agent.bound_resources,
                    composed=agent.composed,
                )
            )
        return views
