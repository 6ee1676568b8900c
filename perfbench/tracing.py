"""Span tracing around the public entry points of each `socketstore` layer.

The wrappers live here, in the benchmark, not in the program. Each one is
installed where its callers look the name up: on the class for methods, and
on every `socketstore` module that holds the function for module-level
functions (`store.py` imports `manifest_from_doc` by name, for example).

A span holds a name, start, end, parent span and request id. Spans stay in
memory until the run ends. Each thread keeps its own span stack, so spans
on the store's server thread nest correctly. A server-side span whose
thread has no open span is parented to the client's in-flight TCP request,
which is exact for a closed loop with one client.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time

# (metric name, module, attribute path) for every wrapped entry point
TARGETS = (
    ("netsim.Simulator.send_packet", "netsim", "Simulator.send_packet"),
    ("netsim.Simulator.topology_snapshot", "netsim", "Simulator.topology_snapshot"),
    ("netsim.Simulator.deploy_path", "netsim", "Simulator.deploy_path"),
    ("netsim.Simulator.retract_path", "netsim", "Simulator.retract_path"),
    ("netsim.Simulator.reserve_capacity", "netsim", "Simulator.reserve_capacity"),
    ("dsa.DedupReceiver.offer", "dsa", "DedupReceiver.offer"),
    ("dsa.Connection.send", "dsa", "Connection.send"),
    ("dsa.Connection.close", "dsa", "Connection.close"),
    ("dsa.DsaClient.connect", "dsa", "DsaClient.connect"),
    ("kmflash.allocate_disjoint_paths", "kmflash", "allocate_disjoint_paths"),
    ("kmflash.deploy_mirror_paths", "kmflash", "deploy_mirror_paths"),
    ("agents.AgentRuntime.spawn_agent", "agents", "AgentRuntime.spawn_agent"),
    ("agents.AgentRuntime.destroy_agent", "agents", "AgentRuntime.destroy_agent"),
    ("store.SocketStore.instantiate", "store", "SocketStore.instantiate"),
    ("store.SocketStore.teardown_instance", "store", "SocketStore.teardown_instance"),
    ("store.SocketStore.log_action", "store", "SocketStore.log_action"),
    ("store.SocketStore.load", "store", "SocketStore._load"),
    ("moduledef.manifest_from_doc", "moduledef", "manifest_from_doc"),
    ("wire.StoreProtocol.handle", "wire", "StoreProtocol.handle"),
    ("wire.TCPTransport.request", "wire", "TCPTransport.request"),
    ("experiment.run_experiment", "experiment", "run_experiment"),
    ("experiment.render_csv", "experiment", "render_csv"),
    ("cli.main", "cli", "main"),
)
NAMES = tuple(name for name, _, _ in TARGETS)

# a span's outcome, kept for the useful-work ratios
_OUTCOME = {
    "dsa.DedupReceiver.offer": bool,
    "netsim.Simulator.send_packet": lambda record: record.delivered,
}
_CLIENT_REQUEST = "wire.TCPTransport.request"
_SERVER_HANDLE = "wire.StoreProtocol.handle"

# index of each field in a span tuple
ID, PARENT, RID, NAME, START, END, THREAD, OUTCOME = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._in_flight: tuple[int, int] | None = None  # client request (span, rid)
        self.clock = time.perf_counter

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        outcome = _OUTCOME.get(name)
        is_client_request = name == _CLIENT_REQUEST
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, rid = stack[-1]
            elif tracer._in_flight is not None:
                parent, rid = tracer._in_flight
            else:
                parent, rid = None, next(tracer._rids)
            span = next(tracer._ids)
            stack.append((span, rid))
            if is_client_request:
                tracer._in_flight = (span, rid)
            result = None
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                if is_client_request:
                    tracer._in_flight = None
                tracer.spans.append((
                    span, parent, rid, name, start, end, threading.get_ident(),
                    outcome(result) if outcome and result is not None else None,
                ))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patches = []
        for name, module_name, path in TARGETS:
            module = importlib.import_module(f"socketstore.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                patches.append((owner, attr, owner.__dict__[attr], name))
                continue
            original = getattr(module, path)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.startswith("socketstore") and getattr(loaded, path, None) is original:
                    patches.append((loaded, path, original, name))
        try:
            for owner, attr, original, name in patches:
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it that child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                children.setdefault(s[PARENT], []).append((s[START], s[END]))
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s[START]
            for start, end in sorted(children.get(s[ID], ())):
                start, end = max(start, cursor), min(end, s[END])
                if end > start:
                    covered += end - start
                    cursor = end
            out[s[ID]] = (s[END] - s[START]) - covered
        return out

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Calls and self-time per target, each per measured round of fixed
        work so that they compare across versions, plus the ratios measured
        at the same boundaries."""
        self_time = self.self_times()
        calls = dict.fromkeys(NAMES, 0)
        busy = dict.fromkeys(NAMES, 0.0)
        outcomes: dict[str, list[int]] = {name: [0, 0] for name in _OUTCOME}
        for s in self.spans:
            calls[s[NAME]] += 1
            busy[s[NAME]] += self_time[s[ID]]
            if s[OUTCOME] is not None:
                outcomes[s[NAME]][0] += bool(s[OUTCOME])
                outcomes[s[NAME]][1] += 1
        metrics: dict[str, tuple[float, str]] = {}
        for name in NAMES:
            metrics[f"{name}.calls"] = (calls[name] / rounds, "count")
            metrics[f"{name}.self_s"] = (busy[name] / rounds, "s")

        def ratio(name):
            useful, total = outcomes[name]
            return useful / total if total else 0.0

        metrics["dsa.dedup.useful_ratio"] = (ratio("dsa.DedupReceiver.offer"), "ratio")
        metrics["netsim.copies_delivered_ratio"] = (
            ratio("netsim.Simulator.send_packet"), "ratio")
        metrics["wire.transport_overhead_us"] = (self.transport_overhead_us(), "us")
        return metrics

    def transport_overhead_us(self) -> float:
        """Median over TCP requests of client request time minus the server's
        handle time for that request; 0 when no TCP request was made."""
        handle = {s[PARENT]: s[END] - s[START] for s in self.spans
                  if s[NAME] == _SERVER_HANDLE and s[PARENT] is not None}
        gaps = [(s[END] - s[START] - handle[s[ID]]) * 1e6 for s in self.spans
                if s[NAME] == _CLIENT_REQUEST and s[ID] in handle]
        return statistics.median(gaps) if gaps else 0.0

    def write(self, path) -> None:
        """One JSON object per span, in the order spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "rid": s[RID], "name": s[NAME],
                    "start": s[START], "end": s[END], "thread": s[THREAD],
                }) + "\n")
