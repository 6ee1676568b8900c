"""Device-to-store wire protocol: newline-delimited JSON messages over a
reliable stream.

Request kinds (their fields are in SCHEMA) and their replies:

    HELLO        -> HELLO_OK{app_id}
    AUTH         -> AUTH_OK{module_id} | AUTH_DENY{reason}
    BIND         -> BIND_OK{alias} | BIND_FAIL{reason}
    RESOLVE      -> RESOLVE_OK{connectivity} | RESOLVE_FAIL{reason}
    INSTANTIATE  -> INSTANTIATE_OK{instance_id, allocation}
                    | INSTANTIATE_FAIL{reason[, max_feasible_k]}
    COST         -> COST_REPORT{...} | COST_FAIL{reason}
    TEARDOWN     -> TEARDOWN_OK{instance_id} | TEARDOWN_FAIL{reason}

Each request is checked against its SCHEMA row before dispatch: unknown kinds,
missing or mistyped fields and malformed lines (non-finite numbers included)
are answered with PROTOCOL_ERROR{reason}; so is a served line longer than
MAX_LINE_BYTES, which also closes its connection. The DSA checks the success
replies it reads against REPLIES the same way. An empty connectivity list
releases a bound alias. Control-plane only: no payload-bearing kind exists.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field

from .records import LEAVES
from .store import InstantiationError, SocketStore, StoreError

MAX_LINE_BYTES = 1 << 20  # newline included; far above any DSA request

# The JSON types of message fields, each named as a PROTOCOL_ERROR names it.
# A check sees the value and, for a reply, the request it answers.
(STRING, _is_string), (OBJECT, _is_object) = LEAVES[str], LEAVES[dict]
ENDPOINTS = "a list of objects with a string 'address'"
ALLOCATION = "an object with a 'flow' of three strings and an int 'k' from 1 to the K requested"
_IS = {
    STRING: lambda value, request: _is_string(value),
    OBJECT: lambda value, request: _is_object(value),
    ENDPOINTS: lambda value, request: isinstance(value, list) and all(
        _is_object(e) and _is_string(e.get("address")) for e in value),
    ALLOCATION: lambda value, request: isinstance(value, dict)
    and type(k := value.get("k")) is int and 1 <= k <= request["inputs"]["K"]
    and isinstance(flow := value.get("flow"), list) and list(map(type, flow)) == [str] * 3,
}
# The fields of each request kind and their types; no other code states them.
SCHEMA: dict[str, dict[str, str]] = {
    "HELLO": {"app_id": STRING},
    "AUTH": {"token": STRING, "module_id": STRING},
    "BIND": {"alias": STRING, "connectivity": ENDPOINTS},
    "RESOLVE": {"alias": STRING},
    "INSTANTIATE": {"module_id": STRING, "inputs": OBJECT},
    "COST": {"instance_id": STRING},
    "TEARDOWN": {"instance_id": STRING},
}
# The fields the DSA reads from a success reply, for each kind it reads from.
REPLIES: dict[str, dict[str, str]] = {
    "RESOLVE_OK": {"connectivity": ENDPOINTS},
    "INSTANTIATE_OK": {"instance_id": STRING, "allocation": ALLOCATION},
}


class TransportError(Exception):
    """The stream to the store failed (refused, cut, reset)."""


class TransportTimeout(TransportError):
    """No reply arrived in time."""


@dataclass
class Session:
    app_id: str | None = None
    authorized: dict[str, str] = field(default_factory=dict)  # module_id -> token
    bound_aliases: dict[str, str] = field(default_factory=dict)  # alias -> owner


# built once: json.dumps with sort_keys builds a new encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True)


def encode(message: dict) -> str:
    return _ENCODER.encode(message) + "\n"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


# built once: json.loads with parse_float builds a new decoder on every call
_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def _violation(message, rows=SCHEMA, request=None) -> str | None:
    """Why `message` does not match its row of `rows`, or None if it does."""
    if not isinstance(message, dict):
        return "message must be an object"
    kind = message.get("kind")
    if not isinstance(kind, str) or kind not in rows:
        return f"unknown message kind {kind!r}"
    for name, json_type in rows[kind].items():
        if name not in message:
            return f"{kind} missing field {name!r}"
        if not _IS[json_type](message[name], request):
            return f"{name} must be {json_type}"
    return None


def reply_violation(request: dict, reply: dict) -> str | None:
    """Why `reply`, if it is the success reply to `request`, breaks its REPLIES row."""
    if reply.get("kind") != f"{request['kind']}_OK" or reply["kind"] not in REPLIES:
        return None
    return _violation(reply, REPLIES, request)


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
            message = _DECODER.decode(line)
        except (ValueError, RecursionError) as exc:  # nesting too deep to decode
            return {"kind": "PROTOCOL_ERROR", "reason": f"malformed message: {exc}"}
        return self.handle(session, message)

    def handle(self, session: Session, message: dict) -> dict:
        reason = _violation(message)
        if reason is not None:
            return {"kind": "PROTOCOL_ERROR", "reason": reason}
        row = SCHEMA[message["kind"]]
        handler = getattr(self, f"_on_{message['kind'].lower()}")
        with self._lock:
            return handler(session, **{name: message[name] for name in row})

    # -- handlers ---------------------------------------------------------

    def _on_hello(self, session, app_id):
        session.app_id = app_id
        return {"kind": "HELLO_OK", "app_id": app_id}

    def _on_auth(self, session, token, module_id):
        if self.store.authorize(token, module_id):
            session.authorized[module_id] = token
            return {"kind": "AUTH_OK", "module_id": module_id}
        return {"kind": "AUTH_DENY", "reason": "no license binds this token to the module"}

    def _on_bind(self, session, alias, connectivity):
        if connectivity:
            owner = f"{session.app_id or 'anonymous'}@{connectivity[0]['address']}"
        else:
            owner = session.bound_aliases.pop(alias, "")
        try:
            self.store.bind_alias(alias, connectivity, owner)
        except StoreError as exc:
            return {"kind": "BIND_FAIL", "reason": str(exc)}
        if connectivity:
            session.bound_aliases[alias] = owner
        return {"kind": "BIND_OK", "alias": alias}

    def _on_resolve(self, session, alias):
        connectivity = self.store.resolve_alias(alias)
        if connectivity is None:
            return {"kind": "RESOLVE_FAIL", "reason": f"unknown alias {alias!r}"}
        return {"kind": "RESOLVE_OK", "connectivity": connectivity}

    def _on_instantiate(self, session, module_id, inputs):
        token = session.authorized.get(module_id)
        if token is None:
            return {
                "kind": "INSTANTIATE_FAIL",
                "reason": "not authorized in this session",
            }
        try:
            instance = self.store.instantiate(token, module_id, inputs)
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

    def _on_cost(self, session, instance_id):
        try:
            report = self.store.cost(instance_id)
        except StoreError as exc:
            return {"kind": "COST_FAIL", "reason": str(exc)}
        return {"kind": "COST_REPORT", "instance_id": report.instance_id, **report.doc()}

    def _on_teardown(self, session, instance_id):
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

    def request(self, message: dict) -> dict:
        # round-trip through the line encoding to keep both sides honest
        return self.protocol.handle_line(self.session, encode(message))

    def close(self) -> None:
        pass


class _StoreRequestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        session = self.server.protocol.new_session()
        while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
            if len(raw) > MAX_LINE_BYTES:
                # the rest of the line cannot be told from the next request
                reply = {"kind": "PROTOCOL_ERROR", "reason": "line too long"}
                self.wfile.write(encode(reply).encode("utf-8"))
                return
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

    def _ensure(self):
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
            except OSError as exc:
                raise TransportError(f"store unreachable: {exc}")

    def request(self, message: dict) -> dict:
        """Send one request and read its reply line within `timeout_s` of wall
        time, at most MAX_LINE_BYTES of it; any failure closes the socket."""
        self._ensure()
        deadline, line = time.monotonic() + self.timeout_s, bytearray()
        try:
            self._sock.settimeout(self.timeout_s)
            self._sock.sendall(encode(message).encode("utf-8"))
            while not line.endswith(b"\n"):
                if len(line) >= MAX_LINE_BYTES:
                    raise ValueError(f"reply longer than {MAX_LINE_BYTES} bytes")
                if (remaining := deadline - time.monotonic()) <= 0:
                    raise TimeoutError(f"no full reply within {self.timeout_s} s")
                self._sock.settimeout(remaining)
                if not (chunk := self._sock.recv(min(1 << 16, MAX_LINE_BYTES - len(line)))):
                    raise ConnectionError("connection closed by store")
                line += chunk
            if not isinstance(reply := json.loads(line.decode("utf-8")), dict):
                raise ValueError(f"reply is not a JSON object: {bytes(line[:80])!r}")
            return reply
        except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 is a ValueError
            self.close()  # a partly read reply cannot be told from the next one
            raise (TransportTimeout if isinstance(exc, TimeoutError) else TransportError)(str(exc))

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
