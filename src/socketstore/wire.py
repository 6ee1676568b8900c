"""Device-to-store wire protocol: newline-delimited JSON messages over a
reliable stream.

Request kinds and their replies:

    HELLO{app_id}                 -> HELLO_OK{app_id}
    AUTH{token, module_id}        -> AUTH_OK{module_id} | AUTH_DENY{reason}
    BIND{alias, connectivity}     -> BIND_OK{alias} | BIND_FAIL{reason}
    RESOLVE{alias}                -> RESOLVE_OK{connectivity} | RESOLVE_FAIL{reason}
    INSTANTIATE{module_id, inputs}-> INSTANTIATE_OK{instance_id, allocation}
                                     | INSTANTIATE_FAIL{reason[, max_feasible_k]}
    COST{instance_id}             -> COST_REPORT{...} | COST_FAIL{reason}
    TEARDOWN{instance_id}         -> TEARDOWN_OK{instance_id} | TEARDOWN_FAIL{reason}

Unknown kinds and malformed messages are answered with
PROTOCOL_ERROR{reason}. Binding with an empty connectivity list releases the
alias. Control-plane only: no payload-bearing message kind exists.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from dataclasses import dataclass, field

from .store import (
    AuthorizationDenied,
    InstantiationError,
    SocketStore,
    StoreError,
)


class TransportError(Exception):
    """The stream to the store failed (refused, cut, reset)."""


class TransportTimeout(TransportError):
    """No reply arrived in time."""


@dataclass
class Session:
    app_id: str | None = None
    authorized: dict[str, str] = field(default_factory=dict)  # module_id -> token
    bound_aliases: dict[str, str] = field(default_factory=dict)  # alias -> owner


def encode(message: dict) -> str:
    return json.dumps(message, sort_keys=True) + "\n"


def decode(line: str) -> dict:
    message = json.loads(line)
    if not isinstance(message, dict) or "kind" not in message:
        raise ValueError("message must be an object with a 'kind' field")
    return message


class StoreProtocol:
    """Maps wire messages onto store operations. All handling is serialized
    so concurrent client sessions observe one total order of mutations."""

    def __init__(self, store: SocketStore):
        self.store = store
        self._lock = threading.Lock()

    def new_session(self) -> Session:
        return Session()

    def handle_line(self, session: Session, line: str) -> dict:
        try:
            message = decode(line)
        except ValueError as exc:
            return {"kind": "PROTOCOL_ERROR", "reason": f"malformed message: {exc}"}
        return self.handle(session, message)

    def handle(self, session: Session, message: dict) -> dict:
        kind = message.get("kind")
        handler = getattr(self, f"_on_{str(kind).lower()}", None)
        if handler is None:
            return {"kind": "PROTOCOL_ERROR", "reason": f"unknown message kind {kind!r}"}
        with self._lock:
            try:
                return handler(session, message)
            except KeyError as exc:
                return {
                    "kind": "PROTOCOL_ERROR",
                    "reason": f"{kind} missing field {exc.args[0]!r}",
                }

    # -- handlers ---------------------------------------------------------

    def _on_hello(self, session, message):
        session.app_id = str(message["app_id"])
        return {"kind": "HELLO_OK", "app_id": session.app_id}

    def _on_auth(self, session, message):
        token = str(message["token"])
        module_id = str(message["module_id"])
        if self.store.authorize(token, module_id):
            session.authorized[module_id] = token
            return {"kind": "AUTH_OK", "module_id": module_id}
        return {"kind": "AUTH_DENY", "reason": "no license binds this token to the module"}

    def _on_bind(self, session, message):
        alias = str(message["alias"])
        connectivity = message["connectivity"]
        if not (isinstance(connectivity, list)
                and all(isinstance(entry, dict) for entry in connectivity)):
            return {"kind": "PROTOCOL_ERROR",
                    "reason": "connectivity must be a list of objects"}
        if connectivity:
            owner = f"{session.app_id or 'anonymous'}@{connectivity[0]['address']}"
            session.bound_aliases[alias] = owner
        else:
            owner = session.bound_aliases.get(alias, "")
            if not owner:
                return {"kind": "BIND_OK", "alias": alias}
        try:
            self.store.bind_alias(alias, connectivity, owner)
        except StoreError as exc:
            return {"kind": "BIND_FAIL", "reason": str(exc)}
        return {"kind": "BIND_OK", "alias": alias}

    def _on_resolve(self, session, message):
        alias = str(message["alias"])
        connectivity = self.store.resolve_alias(alias)
        if connectivity is None:
            return {"kind": "RESOLVE_FAIL", "reason": f"unknown alias {alias!r}"}
        return {"kind": "RESOLVE_OK", "connectivity": connectivity}

    def _on_instantiate(self, session, message):
        module_id = str(message["module_id"])
        inputs = message["inputs"]
        if not isinstance(inputs, dict):
            return {"kind": "PROTOCOL_ERROR", "reason": "inputs must be an object"}
        token = session.authorized.get(module_id)
        if token is None:
            return {
                "kind": "INSTANTIATE_FAIL",
                "reason": "not authorized in this session",
            }
        try:
            instance = self.store.instantiate(token, module_id, inputs)
        except AuthorizationDenied:
            return {"kind": "INSTANTIATE_FAIL", "reason": "authorization denied"}
        except InstantiationError as exc:
            reply = {"kind": "INSTANTIATE_FAIL", "reason": exc.reason}
            if exc.max_feasible_k is not None:
                reply["max_feasible_k"] = exc.max_feasible_k
            return reply
        except StoreError as exc:
            return {"kind": "INSTANTIATE_FAIL", "reason": str(exc)}
        return {
            "kind": "INSTANTIATE_OK",
            "instance_id": instance.instance_id,
            "allocation": instance.allocation,
        }

    def _on_cost(self, session, message):
        instance_id = str(message["instance_id"])
        try:
            report = self.store.cost(instance_id)
        except StoreError as exc:
            return {"kind": "COST_FAIL", "reason": str(exc)}
        return {
            "kind": "COST_REPORT",
            "instance_id": report.instance_id,
            "rows": report.rows_doc(),
            "raw_total": report.raw_total,
            "weighted_total": report.weighted_total,
        }

    def _on_teardown(self, session, message):
        instance_id = str(message["instance_id"])
        try:
            self.store.teardown_instance(instance_id)
        except StoreError as exc:
            return {"kind": "TEARDOWN_FAIL", "reason": str(exc)}
        return {"kind": "TEARDOWN_OK", "instance_id": instance_id}


# -- transports -------------------------------------------------------------


class LocalTransport:
    """In-process request/reply against a store protocol; one session per
    transport, mirroring one stream connection."""

    def __init__(self, protocol: StoreProtocol):
        self.protocol = protocol
        self.session = protocol.new_session()
        self.sent: list[dict] = []

    def request(self, message: dict) -> dict:
        self.sent.append(message)
        # round-trip through the line encoding to keep both sides honest
        return self.protocol.handle_line(self.session, encode(message))

    def close(self) -> None:
        pass


class FaultyTransport:
    """Wraps a transport and injects one fault class; used to drive the
    fallback-totality contract."""

    def __init__(self, inner, fault: str = "down", cut_after: int = 0):
        if fault not in ("down", "timeout", "cut_after", "none"):
            raise ValueError(f"unknown fault {fault!r}")
        self.inner = inner
        self.fault = fault
        self.cut_after = cut_after
        self._count = 0

    def request(self, message: dict) -> dict:
        if self.fault == "down":
            raise TransportError("store unreachable")
        if self.fault == "timeout":
            raise TransportTimeout("no reply from store")
        if self.fault == "cut_after":
            self._count += 1
            if self._count > self.cut_after:
                raise TransportError("connection cut")
        return self.inner.request(message)

    def close(self) -> None:
        self.inner.close()


class _StoreRequestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        session = self.server.protocol.new_session()
        for raw in self.rfile:
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                reply = {"kind": "PROTOCOL_ERROR", "reason": f"malformed message: {exc}"}
            else:
                if not line:
                    continue
                reply = self.server.protocol.handle_line(session, line)
            self.wfile.write(encode(reply).encode("utf-8"))
            self.wfile.flush()


class StoreServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store: SocketStore, host: str = "127.0.0.1", port: int = 0):
        self.protocol = StoreProtocol(store)
        super().__init__((host, port), _StoreRequestHandler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]


class TCPTransport:
    """Stream client for a served store."""

    def __init__(self, host: str, port: int, timeout_s: float = 2.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._file = None

    def _ensure(self):
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
            except OSError as exc:
                raise TransportError(f"store unreachable: {exc}")
            self._file = self._sock.makefile("rb")

    def request(self, message: dict) -> dict:
        self._ensure()
        try:
            self._sock.sendall(encode(message).encode("utf-8"))
            line = self._file.readline()
        except socket.timeout as exc:
            raise TransportTimeout(str(exc))
        except OSError as exc:
            raise TransportError(str(exc))
        if not line:
            raise TransportError("connection closed by store")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._file = None
