"""Device-Side Agent: the client library an application embeds.

The whole developer surface is bind, connect, send, recv, close plus the
failure callback registration. connect never raises for store or network
trouble: with on_failure="fallback" it always returns a usable plain
single-path connection within the handshake timeout, and with
on_failure="negotiate" it relays the failure to the registered callback and
opens nothing. The DSA is control-plane only; payload bytes never transit
the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .kmflash import deploy_default_route, send_copies
from .netsim import FlowId, NodeKind, Simulator
from .wire import TransportError, TransportTimeout, reply_violation

REFRESH_INTERVAL_MS = 1000.0
HANDSHAKE_TIMEOUT_MS = 200.0
DEDUP_WINDOW = 1 << 16


class DsaError(Exception):
    """Programmer error (bad options, use after close); never raised for
    store or network failures."""


@dataclass(frozen=True)
class Endpoint:
    address: str
    port: int
    nic: int

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise DsaError(f"port {self.port} out of range")


@dataclass(frozen=True)
class ConnectOptions:
    k: int = 2
    rate_mbps: float = 10.0
    max_latency_ms: float = 5.0
    on_failure: str = "fallback"  # or "negotiate"

    def __post_init__(self):
        if self.k < 1:
            raise DsaError("K must be >= 1")
        if not self.rate_mbps > 0:
            raise DsaError("rate must be positive")
        if not self.max_latency_ms > 0:
            raise DsaError("max_latency must be positive")
        if self.on_failure not in ("fallback", "negotiate"):
            raise DsaError(f"unknown on_failure mode {self.on_failure!r}")


@dataclass(frozen=True)
class FailureEvent:
    reason: str
    max_feasible_k: int | None = None


class DedupReceiver:
    """Sliding-window duplicate filter: each seq is deliverable at most once;
    duplicates, packets older than the window and undrained payloads whose seq
    fell out of it are discarded. What lies below the window is pruned once the
    seen-set outgrows twice the window: offer is amortized O(1), memory O(window)."""

    def __init__(self, window: int = DEDUP_WINDOW):
        self.window = window
        self._seen: set[int] = set()
        self._max_seq = -1
        self._pending: list[tuple[float, int, object]] = []

    def offer(self, seq: int, arrive_ms: float, payload) -> bool:
        if seq <= self._max_seq - self.window:
            return False  # too late, beyond the window
        if seq in self._seen:
            return False
        self._seen.add(seq)
        if seq > self._max_seq:
            self._max_seq = seq
        if len(self._seen) > 2 * self.window:
            floor = self._max_seq - self.window
            self._seen = {s for s in self._seen if s > floor}
            self._pending = [p for p in self._pending if p[1] > floor]
        self._pending.append((arrive_ms, seq, payload))
        return True

    def drain(self) -> list[tuple[int, object]]:
        floor = self._max_seq - self.window
        self._pending.sort(key=lambda t: (t[0], t[1]))
        out = [(seq, payload) for _, seq, payload in self._pending if seq > floor]
        self._pending = []
        return out


class Connection:
    """Either a module connection mirroring over K deployed paths or a plain
    fallback socket over the default route."""

    def __init__(self, client: "DsaClient", mode: str, flow: FlowId, paths: int,
                 deadline_ms: float, instance_id: str | None = None,
                 failure_reason: str | None = None):
        self.client = client
        self.mode = mode
        self.flow = flow
        self.paths = paths
        self.deadline_ms = deadline_ms
        self.instance_id = instance_id
        self.failure_reason = failure_reason
        self.closed = False
        self._seq = 0
        self._rx = DedupReceiver()

    def send(self, payload, size_bytes: int | None = None) -> list:
        """One copy per path (module mode) or a single copy (fallback).
        Returns the per-copy delivery records; the receiver side is fed
        through the duplicate filter once, at the seq's earliest delivered
        arrival (not at all when every copy is lost)."""
        if self.closed:
            raise DsaError("connection closed")
        if size_bytes is None:
            size_bytes = _payload_size(payload)
        seq = self._seq
        self._seq += 1
        records = send_copies(self.client.sim, self.flow, self.paths, seq, size_bytes,
                              self.deadline_ms)
        first = None
        for rec in records:
            if rec.delivered and (first is None or rec.arrive_at_ms < first):
                first = rec.arrive_at_ms
        if first is not None:
            self._rx.offer(seq, first, payload)
        return records

    def recv(self) -> list[tuple[int, object]]:
        """Deduplicated payloads in order of each seq's earliest delivered
        arrival (ties by seq), each seq exactly once; a payload whose seq fell
        out of the window before this call is gone."""
        if self.closed:
            raise DsaError("connection closed")
        return self._rx.drain()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.mode == "module" and self.instance_id is not None:
            try:
                self.client.transport.request(
                    {"kind": "TEARDOWN", "instance_id": self.instance_id}
                )
            except TransportError:
                pass  # store failures never break the device side
        if self.mode == "fallback":
            self.client.sim.retract_path(self.flow, 0)


def _payload_size(payload) -> int:
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    return 512


class BoundHandle:
    """Keeps an alias registration fresh until closed."""

    def __init__(self, client: "DsaClient", alias: str):
        self.client = client
        self.alias = alias
        self.open = True
        self.registered = False

    def refresh(self) -> None:
        if not self.open:
            return
        try:
            reply = self.client._bind_request(self.alias)
        except TransportError:
            reply = None
        if reply is not None and reply.get("kind") == "BIND_FAIL":
            # conflict: stop refreshing, surface on next explicit bind
            self.open = False
            raise DsaError(reply.get("reason", "alias conflict"))
        self.registered = reply is not None and reply.get("kind") == "BIND_OK"
        self.client.sim.schedule_in(REFRESH_INTERVAL_MS, self._tick)

    def _tick(self) -> None:
        if not self.open:
            return
        try:
            self.refresh()
        except DsaError:
            pass

    def close(self) -> None:
        if not self.open:
            return
        self.open = False
        try:
            self.client.transport.request(
                {"kind": "BIND", "alias": self.alias, "connectivity": []}
            )
        except TransportError:
            pass


class DsaClient:
    """One device's store agent. Control-plane traffic goes through
    `transport`; data-plane packets go straight onto the device's network."""

    def __init__(
        self,
        device: str,
        sim: Simulator,
        transport,
        app_id: str | None = None,
        base_port: int = 5000,
    ):
        node = sim.node(device)
        if node.kind is not NodeKind.HOST:
            raise DsaError(f"{device!r} is not a host")
        self.device = device
        self.sim = sim
        self.transport = transport
        self.app_id = app_id or f"app-{device}"
        self.base_port = base_port
        self._nic_count = node.nic_count or 1
        self._failure_callback: Callable[[FailureEvent], None] | None = None
        self._fallback_seq = 0
        self._said_hello = False

    # -- API surface: bind / connect / send / recv / close / on_failure ---

    def on_failure(self, callback: Callable[[FailureEvent], None]) -> None:
        self._failure_callback = callback

    def endpoints(self) -> list[Endpoint]:
        return [
            Endpoint(self.device, self.base_port + nic, nic)
            for nic in range(self._nic_count)
        ]

    def bind(self, alias: str) -> BoundHandle:
        """Register this device's connectivity under `alias` and keep it
        refreshed every refresh interval until the handle is closed. If the
        store is unreachable the registration is queued and retried."""
        if not alias:
            raise DsaError("empty alias")
        handle = BoundHandle(self, alias)
        # refresh() itself schedules the next tick; an alias conflict is a
        # real programmer-facing error, an unreachable store is not
        handle.refresh()
        return handle

    def _bind_request(self, alias: str) -> dict:
        self._hello()
        return self.transport.request(
            {
                "kind": "BIND",
                "alias": alias,
                "connectivity": [vars(e) for e in self.endpoints()],
            }
        )

    def _hello(self) -> None:
        if not self._said_hello:
            reply = self.transport.request({"kind": "HELLO", "app_id": self.app_id})
            if reply.get("kind") == "HELLO_OK":
                self._said_hello = True

    def connect(
        self,
        alias: str,
        module_id: str,
        token: str,
        opts: ConnectOptions | None = None,
        fallback_address: str | None = None,
    ) -> Connection | None:
        """Authorize, resolve and instantiate; on any unrecoverable failure
        either fall back to a plain socket (never raising, never hanging past
        the handshake timeout) or relay the failure to the application
        callback, per opts.on_failure."""
        opts = opts or ConnectOptions()
        deadline_ms = self.sim.now_ms + HANDSHAKE_TIMEOUT_MS
        resolved: list[dict] | None = None

        def fail(reason: str, max_k: int | None = None) -> Connection | None:
            if opts.on_failure == "negotiate":
                if self._failure_callback is not None:
                    self._failure_callback(FailureEvent(reason, max_k))
                return None
            return self._fallback_connection(alias, resolved, fallback_address,
                                             opts, reason)

        reply = self._step({"kind": "HELLO", "app_id": self.app_id}, deadline_ms)
        if isinstance(reply, str):
            return fail(reply)
        self._said_hello = True

        reply = self._step(
            {"kind": "AUTH", "token": token, "module_id": module_id}, deadline_ms
        )
        if isinstance(reply, str):
            return fail(reply)
        if reply.get("kind") != "AUTH_OK":
            # still try to learn the peer's address so the fallback socket
            # can reach it, exactly as a plain connection would
            resolved = self._best_effort_resolve(alias, deadline_ms)
            return fail("authorization denied")

        reply = self._step({"kind": "RESOLVE", "alias": alias}, deadline_ms)
        if isinstance(reply, str):
            return fail(reply)
        if reply.get("kind") != "RESOLVE_OK":
            return fail("alias resolution failed")
        resolved = reply["connectivity"]

        inputs = {
            "endpointA": [vars(e) for e in self.endpoints()],
            "endpointB": resolved,
            "K": opts.k,
            "rate": opts.rate_mbps,
            "max_latency": opts.max_latency_ms,
        }
        reply = self._step(
            {"kind": "INSTANTIATE", "module_id": module_id, "inputs": inputs},
            deadline_ms,
        )
        if isinstance(reply, str):
            return fail(reply)
        if reply.get("kind") != "INSTANTIATE_OK":
            return fail(
                reply.get("reason", "instantiation failed"),
                reply.get("max_feasible_k"),
            )
        allocation = reply["allocation"]
        flow = FlowId(*allocation["flow"])
        return Connection(
            self,
            mode="module",
            flow=flow,
            paths=allocation["k"],
            deadline_ms=opts.max_latency_ms,
            instance_id=reply["instance_id"],
        )

    def _step(self, message: dict, deadline_ms: float):
        """One handshake request under the timeout budget; returns the reply
        dict or a failure-reason string (a malformed success reply gives one)."""
        if self.sim.now_ms >= deadline_ms:
            return "store unreachable (timeout)"
        try:
            reply = self.transport.request(message)
        except TransportTimeout as exc:
            # a timed-out request consumes the rest of the budget
            self.sim.run_until(deadline_ms)
            return f"store unreachable: {exc}"
        except TransportError as exc:
            return f"store unreachable: {exc}"
        if reply.get("kind") == "PROTOCOL_ERROR":
            reason = reply.get("reason")
        elif (reason := reply_violation(message, reply)) is None:
            return reply
        return f"protocol error: {reason}"

    def _best_effort_resolve(self, alias, deadline_ms):
        reply = self._step({"kind": "RESOLVE", "alias": alias}, deadline_ms)
        if isinstance(reply, dict) and reply.get("kind") == "RESOLVE_OK":
            return reply["connectivity"]
        return None

    def _fallback_connection(self, alias, resolved, fallback_address, opts,
                             reason: str) -> Connection:
        """A regular single-path socket over the default route; always
        returned, even when the peer address could not be learned (sends then
        record drops rather than raising)."""
        if resolved:
            dst = str(resolved[0]["address"])
        elif fallback_address is not None:
            dst = fallback_address
        else:
            dst = alias  # a node id, or unresolvable: packets then drop as unroutable
        self._fallback_seq += 1
        flow = FlowId(self.device, dst, f"fallback-{self.device}-{self._fallback_seq}")
        deploy_default_route(self.sim, flow)
        return Connection(self, mode="fallback", flow=flow, paths=1,
                          deadline_ms=opts.max_latency_ms, failure_reason=reason)
