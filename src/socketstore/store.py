"""The Store service: agent type library, module repository with lifecycle,
access control, NSD execution (agent instance management), testbed
evaluation, search and ranking, cost accounting, and the append-only action
log.

All repository, license and log mutations run through a single writer (this
object); reads may happen at any point between mutations.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import secrets
import weakref
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .agents import Agent, AgentError, AgentKind, AgentRuntime, AgentSpec, AgentTypeLibrary
from .fixtures import BUILTIN_METRICS, LATENCY_SPIKE_SCENARIO, TestbedScenario, default_library
from .kmflash import (
    KMAgent,
    KMError,
    delivery_stats,
    earliest_latency,
    mirror_send,
    run_single_path,
)
from .moduledef import (
    IllegalTransition,
    MetricDef,
    MetricDirection,
    ModuleManifest,
    ModuleState,
    check_transition,
    execution_order,
    manifest_from_doc,
    manifest_to_doc,
    validate_manifest,
)
from .netsim import Simulator, build_topology
from .records import from_doc

BASELINE_MODULE_ID = "baseline"
PRODUCTION_ENV = "production"


class StoreError(Exception):
    pass


class AuthorizationDenied(StoreError):
    pass


class InstantiationError(StoreError):
    def __init__(self, reason: str, max_feasible_k: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.max_feasible_k = max_feasible_k


# -- cost accounting -----------------------------------------------------------

# default rate card: reserved link bandwidth and installed switch rules
RATE_CARD = {
    "link_capacity": 0.001,  # per Mbps-second reserved
    "switch_rule": 0.0001,  # per rule-second installed
}

USAGE_UNITS = {
    "link_capacity": "Mbps-s",
    "switch_rule": "rule-s",
}


@dataclass
class UsageEntry:
    kind: str
    resource_id: str
    rate_per_s: float  # Mbps for link capacity, rule count for switch rules
    opened_at_ms: float
    closed_at_ms: float | None = None

    def quantity(self, now_ms: float) -> float:
        end = self.closed_at_ms if self.closed_at_ms is not None else now_ms
        return self.rate_per_s * max(end - self.opened_at_ms, 0.0) / 1000.0


class UsageLedger:
    """Provider-side usage registrations for one module instance."""

    def __init__(self) -> None:
        self.entries: list[UsageEntry] = []

    def open(self, kind: str, resource_id: str, rate_per_s: float, at_ms: float) -> UsageEntry:
        if kind not in RATE_CARD:
            raise StoreError(f"unknown resource kind {kind!r}")
        entry = UsageEntry(kind, resource_id, rate_per_s, at_ms)
        self.entries.append(entry)
        return entry

    def close_all(self, at_ms: float) -> None:
        for entry in self.entries:
            if entry.closed_at_ms is None:
                entry.closed_at_ms = at_ms


@dataclass(frozen=True)
class CostRow:
    resource_id: str
    kind: str
    quantity: float
    unit: str
    unit_price: float

    @property
    def subtotal(self) -> float:
        return self.quantity * self.unit_price


@dataclass(frozen=True)
class CostReport:
    instance_id: str
    rows: tuple[CostRow, ...]
    raw_total: float

    @property
    def weighted_total(self) -> float:
        """No weighting is applied: always equal to raw_total."""
        return self.raw_total

    def doc(self) -> dict:
        return {"raw_total": self.raw_total, "weighted_total": self.weighted_total,
                "rows": [{**vars(row), "subtotal": row.subtotal} for row in self.rows]}


# -- records ------------------------------------------------------------------


@dataclass(frozen=True)
class License:
    app_id: str
    module_id: str
    issued_at_ms: float
    token: str


@dataclass(frozen=True)
class MetricSample:
    module_id: str
    metric_id: str
    value: float | None
    ts_ms: float
    source: str  # "testbed" or "production"


@dataclass(frozen=True)
class ActionLogEntry:
    ts_ms: float
    actor: str
    action: str
    outcome: str
    detail: dict


@dataclass
class ModuleInstance:
    instance_id: str
    module_id: str
    agent_ids: tuple[str, ...]
    ledger: UsageLedger
    allocation: dict
    torn_down_at_ms: float | None = None


@dataclass(frozen=True)
class SearchResult:
    module_id: str
    name: str
    version: int
    price: float
    metric_id: str
    aggregate: float | None


def _mean(values: list[float]) -> float:
    """The mean of a non-empty list, computed as `statistics.fmean` does."""
    return math.fsum(values) / len(values)


# metric collectors the testbeds know how to measure, from each seq's earliest latency and the stats
METRIC_COLLECTORS = {
    "in_deadline_ratio": lambda latencies, stats: stats.in_deadline_ratio,
    "loss_ratio": lambda latencies, stats: (stats.losses / stats.sent) if stats.sent else 0.0,
    "mean_latency_ms": lambda latencies, stats: _mean(
        [lat for lat in latencies if lat is not None]) if stats.delivered_unique else None,
}


class SocketStore:
    """One store deployment. Attach a simulator to enable instantiation;
    repository, licensing, search and logging work without one."""

    def __init__(
        self,
        sim: Simulator | None = None,
        library: AgentTypeLibrary | None = None,
        data_path: str | None = None,
        token_factory: Callable[[], str] | None = None,
    ):
        self.library = library or default_library()
        self.data_path = data_path
        self._token_factory = token_factory or (lambda: secrets.token_hex(16))
        self._fh = None  # the store file, kept open for appends between writes (see _persist)
        self._load()
        self.sim: Simulator | None = None
        self.runtime: AgentRuntime | None = None
        if sim is not None:
            self.attach_network(sim)
        self.instances: dict[str, ModuleInstance] = {}
        self.aliases: dict[str, dict] = {}
        self.testbeds: dict[str, TestbedScenario] = {}
        self.register_testbed(LATENCY_SPIKE_SCENARIO)
        self._instance_seq = 0

    # -- time and logging ------------------------------------------------------

    def now_ms(self) -> float:
        if self.sim is not None:
            return self._sim_base_ms + self.sim.now_ms
        return self._logical_ms

    def _tick(self) -> float:
        # without a simulator the log still needs non-decreasing timestamps
        if self.sim is None:
            self._logical_ms += 1.0
        return self.now_ms()

    def log_action(self, actor: str, action: str, outcome: str, changed=False, **detail) -> None:
        self._runtime_log(actor, action, outcome, **detail)
        self._persist(changed)

    def read_log(
        self,
        actor: str | None = None,
        action: str | None = None,
        since_ms: float | None = None,
        until_ms: float | None = None,
    ) -> list[ActionLogEntry]:
        return [
            e for e in self.log
            if actor in (None, e.actor) and action in (None, e.action)
            and not (since_ms is not None and e.ts_ms < since_ms)
            and not (until_ms is not None and e.ts_ms > until_ms)
        ]

    def _runtime_log(self, actor, action, outcome, **detail):
        self.log.append(ActionLogEntry(self._tick(), actor, action, outcome, detail))

    # -- network attachment -------------------------------------------------------

    def attach_network(self, sim: Simulator) -> None:
        # the simulator's clock runs on from the latest entry (0.0 in a fresh store)
        self._sim_base_ms = self.now_ms()
        self.sim = sim
        self.runtime = AgentRuntime(sim, self.library, action_log=self._runtime_log)
        self.runtime.create_environment(PRODUCTION_ENV, "production network")

    # -- registries ---------------------------------------------------------------

    def register_specialist(self, specialist_id: str) -> None:
        if not specialist_id:
            raise StoreError("empty specialist id")
        self.specialists.add(specialist_id)
        self.log_action(specialist_id, "register_specialist", "ok", changed=True)

    def register_testbed(self, scenario: TestbedScenario) -> None:
        self.testbeds[scenario.name] = scenario

    # -- module lifecycle -----------------------------------------------------------

    def module(self, module_id: str) -> ModuleManifest:
        try:
            return self.modules[module_id]
        except KeyError:
            raise StoreError(f"unknown module {module_id!r}")

    def submit_module(self, manifest: ModuleManifest) -> str:
        violations = validate_manifest(manifest, self.metrics, self.library)
        if violations:
            self.log_action(manifest.author, "submit_module", "error",
                            module_id=manifest.module_id, violations=violations)
            raise StoreError("; ".join(violations))
        if manifest.author not in self.specialists:
            raise StoreError(
                f"anonymous author: {manifest.author!r} is not a registered Specialist"
            )
        if manifest.module_id in self.modules:
            raise StoreError(f"duplicate module {manifest.module_id!r}")
        for other in self.modules.values():
            if other.name == manifest.name and other.version == manifest.version:
                raise StoreError(
                    f"duplicate version: {manifest.name} v{manifest.version} already submitted"
                )
        self.modules[manifest.module_id] = manifest.with_state(ModuleState.SUBMITTED)
        self.log_action(manifest.author, "submit_module", "ok", changed=True,
                        module_id=manifest.module_id)
        return manifest.module_id

    def _transition(self, module_id: str, new_state: ModuleState) -> ModuleState:
        manifest = self.module(module_id)
        check_transition(manifest.state, new_state)
        self.modules[module_id] = manifest.with_state(new_state)
        return new_state

    def start_review(self, module_id: str, reviewer: str) -> ModuleState:
        manifest = self.module(module_id)
        if reviewer == manifest.author:
            raise StoreError("self-review")
        state = self._transition(module_id, ModuleState.IN_REVIEW)
        self.log_action(reviewer, "start_review", "ok", changed=True, module_id=module_id)
        return state

    def review_decision(self, module_id: str, decision: str, reviewer: str) -> ModuleState:
        manifest = self.module(module_id)
        if decision not in ("accept", "revise"):
            raise StoreError(f"unknown decision {decision!r}")
        if reviewer == manifest.author:
            raise StoreError("self-review")
        target = ModuleState.PUBLISHED if decision == "accept" else ModuleState.REVISION_REQUESTED
        state = self._transition(module_id, target)
        self.log_action(reviewer, "review_decision", "ok", changed=True,
                        module_id=module_id, decision=decision, new_state=state.value)
        return state

    def resubmit_revision(self, module_id: str, revised: ModuleManifest) -> ModuleState:
        current = self.module(module_id)
        if current.state is not ModuleState.REVISION_REQUESTED:
            raise IllegalTransition(
                f"illegal transition {current.state.value} -> in_review"
            )
        if revised.version != current.version + 1:
            raise StoreError(
                f"revision must increment version to {current.version + 1}"
            )
        if revised.module_id != module_id or revised.author != current.author:
            raise StoreError("revision must keep module_id and author")
        violations = validate_manifest(revised, self.metrics, self.library)
        if violations:
            raise StoreError("; ".join(violations))
        self.modules[module_id] = revised.with_state(ModuleState.IN_REVIEW)
        self.log_action(current.author, "resubmit_revision", "ok", changed=True,
                        module_id=module_id, version=revised.version)
        return ModuleState.IN_REVIEW

    def retire_module(self, module_id: str) -> ModuleState:
        state = self._transition(module_id, ModuleState.RETIRED)
        self.log_action("store", "retire_module", "ok", changed=True, module_id=module_id)
        return state

    # -- search and ranking ------------------------------------------------------------

    def metric_aggregate(self, module_id: str, metric_id: str, window: int = 10) -> float | None:
        """Arithmetic mean of the most recent testbed samples (default window
        of 10); None when no measured sample exists."""
        values = [
            s.value
            for s in self.samples
            if s.module_id == module_id and s.metric_id == metric_id
            and s.source == "testbed" and s.value is not None
        ]
        if not values:
            return None
        return _mean(values[-window:])

    def search_modules(self, query: str = "") -> list[SearchResult]:
        needle = query.lower()
        results = []
        for m in self.modules.values():
            if m.state is not ModuleState.PUBLISHED:
                continue
            if needle and needle not in (m.name + " " + m.description).lower():
                continue
            metric_id = m.metric_ids[0]
            aggregate = self.metric_aggregate(m.module_id, metric_id)
            results.append(SearchResult(m.module_id, m.name, m.version, m.price,
                                        metric_id, aggregate))

        def key(r: SearchResult):
            if r.aggregate is None:
                return (1, 0.0, r.name)
            metric = self.metrics.get(r.metric_id)
            oriented = r.aggregate
            if metric is not None and metric.direction is MetricDirection.LOWER_BETTER:
                oriented = -oriented
            return (0, -oriented, r.name)

        return sorted(results, key=key)

    # -- licensing and access control ------------------------------------------------------

    def purchase(self, app_id: str, module_id: str) -> License:
        manifest = self.module(module_id)
        if manifest.state is not ModuleState.PUBLISHED:
            self.log_action(app_id, "purchase", "error", module_id=module_id,
                            reason="not published")
            raise StoreError(f"not published: {module_id!r} is {manifest.state.value}")
        existing = self.licenses.get((app_id, module_id))
        if existing is not None and existing.token not in self._revoked_tokens:
            return existing
        token = self._token_factory()
        while token in self._tokens or token in self._revoked_tokens:
            token = self._token_factory()
        license = License(app_id, module_id, self.now_ms(), token)
        self._add_license(license)
        self.log_action(app_id, "purchase", "ok", changed=True, module_id=module_id)
        return license

    def _add_license(self, license: License) -> None:
        self.licenses[(license.app_id, license.module_id)] = license
        self._tokens[license.token] = license

    def revoke_license(self, app_id: str, module_id: str) -> None:
        license = self.licenses.pop((app_id, module_id), None)
        if license is None:
            raise StoreError("no such license")
        self._tokens.pop(license.token, None)
        self._revoked_tokens.add(license.token)
        self.log_action(app_id, "revoke_license", "ok", changed=True, module_id=module_id)

    def authorize(self, token: str, module_id: str) -> bool:
        """Allow iff an unrevoked license binds this token to this module.
        Every decision is action-logged."""
        license = self._tokens.get(token)
        allow = (
            license is not None
            and token not in self._revoked_tokens
            and license.module_id == module_id
        )
        self.log_action(
            license.app_id if license else "unknown",
            "authorize",
            "allow" if allow else "deny",
            token_sha256=hashlib.sha256(token.encode("utf-8", "surrogatepass")).hexdigest()[:16],
            module_id=module_id,
        )
        return allow

    # -- alias registry (device connectivity) ------------------------------------------

    def bind_alias(self, alias: str, connectivity: list[dict], owner: str) -> None:
        if not alias:
            raise StoreError("empty alias")
        existing = self.aliases.get(alias)
        if not connectivity:
            if existing is not None and existing["owner"] == owner:
                del self.aliases[alias]
                self.log_action(owner, "unbind_alias", "ok", alias=alias)
            return
        if existing is not None and existing["owner"] != owner:
            self.log_action(owner, "bind_alias", "error", alias=alias, reason="alias conflict")
            raise StoreError(f"alias conflict: {alias!r} is bound by another live device")
        self.aliases[alias] = {"owner": owner, "connectivity": connectivity}
        self.log_action(owner, "bind_alias", "ok", alias=alias,
                        endpoints=len(connectivity))

    def resolve_alias(self, alias: str) -> list[dict] | None:
        entry = self.aliases.get(alias)
        return entry["connectivity"] if entry else None

    # -- NSD execution ------------------------------------------------------------------

    def instantiate(self, token: str, module_id: str, inputs: dict) -> ModuleInstance:
        """Authorize, then execute the module's NSD in the production
        environment. Partial spawns are rolled back on failure."""
        if self.runtime is None:
            raise StoreError("no network attached")
        if not self.authorize(token, module_id):
            raise AuthorizationDenied("authorization denied")
        manifest = self.module(module_id)
        self._instance_seq += 1
        instance_id = f"inst-{self._instance_seq:04d}"
        ledger = UsageLedger()
        try:
            agent_ids, allocation = self._execute_nsd(
                manifest, inputs, self.runtime, PRODUCTION_ENV, ledger, instance_id
            )
        except (StoreError, KMError, AgentError, OverflowError) as exc:
            failure_k = getattr(getattr(exc, "failure", None), "max_feasible_k", None)
            self.log_action("store", "instantiate", "error",
                            module_id=module_id, reason=str(exc))
            raise InstantiationError(str(exc), failure_k) from exc
        instance = ModuleInstance(
            instance_id=instance_id,
            module_id=module_id,
            agent_ids=agent_ids,
            ledger=ledger,
            allocation=allocation,
        )
        self.instances[instance_id] = instance
        self.log_action("store", "instantiate", "ok",
                        module_id=module_id, instance_id=instance_id)
        return instance

    def _execute_nsd(self, manifest, inputs, runtime, env_id, ledger, flow_tag):
        nsd = manifest.nsd
        missing = [i.name for i in nsd.inputs if i.name not in inputs]
        if missing:
            raise StoreError(f"missing input {missing[0]!r}")
        spawned: list[Agent] = []
        allocation: dict = {}
        try:
            for directive in execution_order(nsd):
                params = {
                    name: _resolve_param(value, inputs)
                    for name, value in directive.params
                }
                agent = runtime.agent(
                    runtime.spawn_agent(env_id, AgentSpec(directive.type_name, params))
                )
                spawned.append(agent)
                if isinstance(agent, KMAgent):
                    allocation = agent.setup(runtime, env_id, flow_tag, ledger)
        except Exception:
            _destroy_agents(runtime, _with_composed(spawned))
            raise
        return _with_composed(spawned), allocation

    def teardown_instance(self, instance_id: str) -> None:
        """Destroy the instance's agents, adapters strictly before the
        resource agents they compose; idempotent."""
        instance = self.instances.get(instance_id)
        if instance is None:
            raise StoreError(f"unknown instance {instance_id!r}")
        if instance.torn_down_at_ms is not None:
            return
        if self.runtime is not None:
            _destroy_agents(self.runtime, instance.agent_ids)
        instance.ledger.close_all(self.sim.now_ms)  # the ledger runs on simulator time
        instance.torn_down_at_ms = self.now_ms()
        self.log_action("store", "teardown", "ok", instance_id=instance_id)

    # -- cost ---------------------------------------------------------------------------

    def cost(self, instance_id: str) -> CostReport:
        instance = self.instances.get(instance_id)
        if instance is None:
            raise StoreError(f"unknown instance {instance_id!r}")
        now = self.sim.now_ms
        rows = tuple(
            CostRow(
                resource_id=e.resource_id,
                kind=e.kind,
                quantity=e.quantity(now),
                unit=USAGE_UNITS[e.kind],
                unit_price=RATE_CARD[e.kind],
            )
            for e in instance.ledger.entries
        )
        return CostReport(instance_id, rows, sum(r.subtotal for r in rows))

    # -- testbed evaluation -------------------------------------------------------------

    def run_testbed_evaluation(self, module_id: str, scenario_name: str) -> list[MetricSample]:
        scenario = self.testbeds.get(scenario_name)
        if scenario is None:
            raise StoreError(f"unknown testbed scenario {scenario_name!r}")
        if module_id == BASELINE_MODULE_ID:
            metric_ids: tuple[str, ...] = ("in_deadline_ratio",)
            manifest = None
        else:
            manifest = self.module(module_id)
            if manifest.state not in (ModuleState.IN_REVIEW, ModuleState.PUBLISHED):
                raise StoreError(
                    f"module must be in review or published, is {manifest.state.value}"
                )
            metric_ids = manifest.metric_ids

        sim = Simulator(build_topology(scenario.topology_doc))
        for inj in scenario.injections:
            sim.inject_latency(inj)
        latencies: list[float | None] | None = []  # each seq's earliest (None: lost)
        failure: str | None = None
        if manifest is None:
            latencies = run_single_path(sim, scenario.packet_count, scenario.gap_ms,
                                        scenario.size_bytes, scenario.deadline_ms,
                                        lambda seq, records: earliest_latency(records))
            if latencies is None:
                failure = f"no route between {' and '.join(sim.topology.hosts()[:2])}"
        else:
            runtime = AgentRuntime(sim, self.library, action_log=self._runtime_log)
            env = f"testbed-{scenario.name}"
            runtime.create_environment(env, f"testbed {scenario.name}")
            try:
                agent_ids, _ = self._execute_nsd(
                    manifest, scenario.inputs, runtime, env, UsageLedger(), "testbed"
                )
            except (StoreError, KMError, AgentError) as exc:
                failure = str(exc)
            else:
                kms = [a for a in map(runtime.agent, agent_ids) if isinstance(a, KMAgent)]
                if kms:  # with no KMirror agent no seq sends a copy
                    size, deadline_ms = scenario.size_bytes, scenario.deadline_ms
                    latencies = sim.paced(scenario.packet_count, scenario.gap_ms, lambda seq: (
                        earliest_latency([rec for km in kms for rec in mirror_send(
                            sim, km.handles, seq, size, deadline_ms)])))
                _destroy_agents(runtime, agent_ids)
        stats = delivery_stats(latencies or (), scenario.deadline_ms)
        samples = []
        ts = self.now_ms()
        for metric_id in metric_ids:
            collector = METRIC_COLLECTORS.get(metric_id)
            if failure is not None or collector is None:
                value = None
            else:
                value = collector(latencies, stats)
            samples.append(MetricSample(module_id, metric_id, value, ts, "testbed"))
        self.samples.extend(samples)
        self.log_action("store", "testbed_evaluation", "ok" if failure is None else "error",
                        changed=True, module_id=module_id, scenario=scenario_name,
                        **({"reason": failure} if failure else {}))
        return samples

    # -- persistence -------------------------------------------------------------------

    def _snapshot(self) -> str:
        # each record is its dataclass's fields; a str enum dumps as its value
        return _encode({
            "specialists": sorted(self.specialists),
            "metrics": [vars(m) for m in self.metrics.values()],
            "modules": [manifest_to_doc(m) for m in self.modules.values()],
            "licenses": [vars(l) for l in self.licenses.values()],
            "revoked_tokens": sorted(self._revoked_tokens),
            "samples": [vars(s) for s in self.samples],
        })

    def _persist(self, changed: bool = False) -> None:
        """Bring the file at `data_path` up to date: the snapshot line, then one line per log
        entry. A write appends, through a handle kept open while the file stays at the path,
        unless the snapshot `changed` (only store methods change it and say so) or the file was
        replaced or shrank; then it renames a whole `<file>.tmp` over it."""
        if not self.data_path:
            return
        path, ino, size, logged, first_line = self._file  # as this store last read or wrote it
        st = None  # the file as it is now, if at the path this store last read or wrote
        with contextlib.suppress(FileNotFoundError):
            st = os.stat(path) if path == self.data_path else None
        append = (not changed and st is not None and st.st_ino == ino and st.st_size >= size
                  and (first_line is None or self._snapshot().encode() == first_line))
        tmp_path = f"{self.data_path}.tmp"  # renamed over the data file once complete
        try:
            if append:
                text = "".join(_encode(vars(e)) + "\n" for e in self.log[logged:])
                if self._fh is None:  # the first append since the file was read or rewritten
                    self._fh = open(path, "ab", buffering=0)
                    self._fh_closer = weakref.finalize(self, self._fh.close)
                    ino = os.fstat(self._fh.fileno()).st_ino  # appends go on while at the path
                if st.st_size > size:  # a torn last line: cut back to the complete ones
                    self._fh.truncate(size)
                data = memoryview(text.encode())
                while data:  # a raw write may take only part of the bytes
                    data = data[self._fh.write(data):]
            else:
                self._close_file()
                text = self._snapshot() + "\n" + "".join(_encode(vars(e)) + "\n" for e in self.log)
                os.makedirs(os.path.dirname(self.data_path) or ".", exist_ok=True)
                with open(tmp_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                    ino = os.fstat(fh.fileno()).st_ino
                os.replace(tmp_path, self.data_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.truncate(path, size) if append else os.remove(tmp_path)
            self._load()  # memory goes back to what the file holds
            raise
        self._file = (self.data_path, ino, (size if append else 0) + len(text), len(self.log),
                      None)

    def _close_file(self) -> None:
        """Close the handle appends go through, if open; the next append opens the file anew."""
        if self._fh is not None:
            self._fh_closer()  # closes it now, and not again when the store is collected
            self._fh = None

    def _load(self) -> None:
        """Set every persisted field from `data_path`, or to an empty store's
        when there is no file. State that is not persisted (agents, rules,
        instances, aliases) is left as it is."""
        self._close_file()
        state, data, size, ino = _StoreFile(), b"", 0, None
        if self.data_path and os.path.exists(self.data_path):
            with open(self.data_path, "rb") as fh:
                data, ino = fh.read(), os.fstat(fh.fileno()).st_ino
            size = data.rfind(b"\n") + 1  # a last line without its "\n" is torn: dropped
            try:  # one document: a file of the old format, or a snapshot alone
                doc = json.loads(data)
            except json.JSONDecodeError as exc:
                if exc.msg != "Extra data" or not size:
                    raise
                try:  # one array of the lines
                    doc, *log = json.loads(b"[" + data[:size - 1].replace(b"\n", b",") + b"]")
                except json.JSONDecodeError:  # each line alone, to name the first at fault
                    for n, line in enumerate(data[:size - 1].split(b"\n"), 1):
                        try:
                            json.loads(line.decode("utf-8", "surrogatepass"))  # as the joined text
                        except json.JSONDecodeError as exc:
                            raise StoreError(f"store line {n}: {exc.msg}") from None
                doc = {**doc, "log": log} if isinstance(doc, dict) else doc
            state = from_doc(_StoreFile, doc, "store", StoreError)
        self.specialists: set[str] = set(state.specialists)
        self.metrics: dict[str, MetricDef] = {
            m.metric_id: m for m in (*BUILTIN_METRICS, *state.metrics)}
        self.modules: dict[str, ModuleManifest] = {}
        for i, doc in enumerate(state.modules):  # each checked as a submission is
            manifest = manifest_from_doc(doc, self.library, f"store.modules[{i}]", StoreError)
            if violations := validate_manifest(manifest, self.metrics, self.library):
                raise StoreError(f"store.modules[{i}]: " + "; ".join(violations))
            self.modules[manifest.module_id] = manifest
        self.licenses: dict[tuple[str, str], License] = {}
        self._tokens: dict[str, License] = {}
        for license in state.licenses:
            self._add_license(license)
        self._revoked_tokens = set(state.revoked_tokens)
        self.samples = state.samples
        self.log = state.log
        # the clock resumes from the latest entry, so a write that only logs appends
        self._logical_ms = float(max((e.ts_ms for e in self.log), default=0.0))
        # as read; the first write rewrites it unless line 1 is this store's snapshot
        self._file = (self.data_path, ino, size, len(self.log), data[:max(data.find(b"\n"), 0)])


@dataclass(frozen=True)
class _StoreFile:
    """A store file as one document, its entry lines as `log`; the defaults
    are an empty store's."""

    specialists: tuple[str, ...] = ()
    metrics: tuple[MetricDef, ...] = ()
    modules: tuple[dict, ...] = ()  # manifests, read by manifest_from_doc
    licenses: tuple[License, ...] = ()
    revoked_tokens: tuple[str, ...] = ()
    samples: list[MetricSample] = field(default_factory=list)  # lists: the store appends
    log: list[ActionLogEntry] = field(default_factory=list)
    logical_ms: float | None = None  # the clock, in older files; ignored: the log sets it


# a store file line: compact, keys sorted, ASCII only (its length in bytes)
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _resolve_param(value: str, inputs: Mapping):
    """A `$name` value is input `name`, which validate_nsd checked is declared."""
    if isinstance(value, str) and value.startswith("$"):
        return inputs[value[1:]]
    return value


def _with_composed(agents: list[Agent]) -> tuple[str, ...]:
    """Agent ids in spawn order, each agent followed by those it composed."""
    return tuple(aid for a in agents for aid in (a.agent_id, *a.composed))


def _destroy_agents(runtime: AgentRuntime, ids) -> None:
    """Release `ids`, adapters strictly before the resource agents they
    compose: an agent goes with its last holder, so a shared resource agent
    outlives this call while another instance holds it; ids that are no
    longer live are skipped."""
    live = [runtime.agents[aid] for aid in ids if aid in runtime.agents]
    for agent in sorted(live, key=lambda a: a.typedef.kind is not AgentKind.ADAPTER):
        runtime.release_agent(agent.agent_id)
