import contextlib
import hashlib
import json
import socket
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.dsa import DsaClient
from socketstore.fixtures import evaluation_topology, flash_delivery_manifest
from socketstore.netsim import Simulator
from socketstore.store import SocketStore
from socketstore.wire import (
    SCHEMA,
    LocalTransport,
    StoreProtocol,
    StoreServer,
    TCPTransport,
    TransportError,
    TransportTimeout,
    encode,
)

AUTHOR = "pathworks-labs"
KM_INPUTS = {
    "endpointA": {"address": "A", "port": 5000, "nic": 0},
    "endpointB": {"address": "B", "port": 5000, "nic": 0},
    "K": 2,
    "rate": 10.0,
    "max_latency": 5.0,
}


def published_store(network=True, **kwargs):
    s = SocketStore(sim=Simulator(evaluation_topology()) if network else None, **kwargs)
    s.register_specialist(AUTHOR)
    mid = s.submit_module(flash_delivery_manifest(s.library))
    s.start_review(mid, "review-board")
    s.review_decision(mid, "accept", "review-board")
    return s


@pytest.fixture
def store():
    return published_store()


@pytest.fixture
def protocol(store):
    return StoreProtocol(store)


@pytest.fixture
def transport(protocol):
    return LocalTransport(protocol)


def auth_ok(store, transport, app="demo"):
    token = store.purchase(app, "flash-delivery").token
    transport.request({"kind": "HELLO", "app_id": app})
    reply = transport.request({"kind": "AUTH", "token": token, "module_id": "flash-delivery"})
    assert reply["kind"] == "AUTH_OK"
    return token


class TestHandshake:
    def test_hello(self, transport):
        assert transport.request({"kind": "HELLO", "app_id": "demo"}) == {
            "kind": "HELLO_OK",
            "app_id": "demo",
        }

    def test_unknown_kind(self, transport):
        reply = transport.request({"kind": "EXFILTRATE"})
        assert reply["kind"] == "PROTOCOL_ERROR"
        assert "unknown message kind" in reply["reason"]

    def test_malformed_line(self, protocol):
        session = protocol.new_session()
        for line in ("{not json", "[" * 100_000):
            reply = protocol.handle_line(session, line)
            assert reply["kind"] == "PROTOCOL_ERROR"
            assert reply["reason"].startswith("malformed message: ")

    @pytest.mark.parametrize("line, reason", [
        ('{"kind": "hello", "app_id": "x"}', "unknown message kind 'hello'"),
        ('{"kind": ["HELLO"], "app_id": "x"}', "unknown message kind ['HELLO']"),
        ('{"kind": "HELLO", "app_id": 5}', "app_id must be a string"),
        ('{"kind": "RESOLVE", "alias": null}', "alias must be a string"),
        ('["HELLO"]', "message must be an object"),
    ])
    def test_kinds_and_field_types_are_strict(self, protocol, line, reason):
        reply = protocol.handle_line(protocol.new_session(), line)
        assert reply == {"kind": "PROTOCOL_ERROR", "reason": reason}

    def test_missing_field(self, transport):
        reply = transport.request({"kind": "AUTH", "token": "x"})
        assert reply["kind"] == "PROTOCOL_ERROR"
        assert "missing field" in reply["reason"]


class TestAuth:
    def test_valid_token(self, store, transport):
        auth_ok(store, transport)

    def test_invalid_token_denied(self, transport):
        transport.request({"kind": "HELLO", "app_id": "demo"})
        reply = transport.request(
            {"kind": "AUTH", "token": "garbage", "module_id": "flash-delivery"}
        )
        assert reply["kind"] == "AUTH_DENY"
        assert reply["reason"]


class TestBindResolve:
    CONNECTIVITY = [
        {"address": "B", "port": 5000, "nic": 0},
        {"address": "B", "port": 5001, "nic": 1},
    ]

    def test_bind_then_resolve(self, transport):
        transport.request({"kind": "HELLO", "app_id": "demo"})
        reply = transport.request(
            {"kind": "BIND", "alias": "Device_B", "connectivity": self.CONNECTIVITY}
        )
        assert reply["kind"] == "BIND_OK"
        resolved = transport.request({"kind": "RESOLVE", "alias": "Device_B"})
        assert resolved["kind"] == "RESOLVE_OK"
        assert resolved["connectivity"] == self.CONNECTIVITY

    def test_resolve_unknown_alias(self, transport):
        reply = transport.request({"kind": "RESOLVE", "alias": "ghost"})
        assert reply["kind"] == "RESOLVE_FAIL"

    def test_alias_conflict_between_devices(self, protocol):
        t1, t2 = LocalTransport(protocol), LocalTransport(protocol)
        t1.request({"kind": "HELLO", "app_id": "demo"})
        t2.request({"kind": "HELLO", "app_id": "demo"})
        assert t1.request(
            {"kind": "BIND", "alias": "shared", "connectivity": self.CONNECTIVITY}
        )["kind"] == "BIND_OK"
        other = [{"address": "A", "port": 5000, "nic": 0}]
        reply = t2.request({"kind": "BIND", "alias": "shared", "connectivity": other})
        assert reply["kind"] == "BIND_FAIL"
        assert "alias conflict" in reply["reason"]

    def test_failed_bind_leaves_nothing_to_release(self, protocol):
        owner, rival = LocalTransport(protocol), LocalTransport(protocol)
        bind = {"kind": "BIND", "alias": "shared", "connectivity": self.CONNECTIVITY}
        assert owner.request(bind)["kind"] == "BIND_OK"
        rival.request({"kind": "HELLO", "app_id": "rival"})
        assert rival.request(bind)["kind"] == "BIND_FAIL"
        assert rival.session.bound_aliases == {}
        assert rival.request(dict(bind, connectivity=[]))["kind"] == "BIND_OK"
        assert protocol.store.resolve_alias("shared") == self.CONNECTIVITY

    @pytest.mark.parametrize("bad", ["abc", [1, 2], ["B"], {"address": "B"}, [{}],
                                     [{"address": 5}]])
    def test_connectivity_must_be_a_list_of_objects(self, transport, bad):
        reply = transport.request({"kind": "BIND", "alias": "x", "connectivity": bad})
        assert reply["kind"] == "PROTOCOL_ERROR"

    def test_release_with_empty_connectivity(self, transport):
        transport.request({"kind": "HELLO", "app_id": "demo"})
        transport.request(
            {"kind": "BIND", "alias": "Device_B", "connectivity": self.CONNECTIVITY}
        )
        assert transport.request(
            {"kind": "BIND", "alias": "Device_B", "connectivity": []}
        )["kind"] == "BIND_OK"
        assert transport.request({"kind": "RESOLVE", "alias": "Device_B"})["kind"] == "RESOLVE_FAIL"

    def test_rebind_same_device_refreshes(self, transport):
        transport.request({"kind": "HELLO", "app_id": "demo"})
        transport.request(
            {"kind": "BIND", "alias": "Device_B", "connectivity": self.CONNECTIVITY}
        )
        fresh = [{"address": "B", "port": 9000, "nic": 0}]
        assert transport.request(
            {"kind": "BIND", "alias": "Device_B", "connectivity": fresh}
        )["kind"] == "BIND_OK"
        resolved = transport.request({"kind": "RESOLVE", "alias": "Device_B"})
        assert resolved["connectivity"] == fresh


class TestInstantiateOverWire:
    def test_requires_session_auth(self, transport):
        reply = transport.request(
            {"kind": "INSTANTIATE", "module_id": "flash-delivery", "inputs": KM_INPUTS}
        )
        assert reply["kind"] == "INSTANTIATE_FAIL"
        assert "not authorized" in reply["reason"]

    def test_success_carries_allocation(self, store, transport):
        auth_ok(store, transport)
        reply = transport.request(
            {"kind": "INSTANTIATE", "module_id": "flash-delivery", "inputs": KM_INPUTS}
        )
        assert reply["kind"] == "INSTANTIATE_OK"
        assert reply["allocation"]["k"] == 2
        assert len(reply["allocation"]["paths"]) == 2

    def test_store_without_network_answers_instantiate_fail(self):
        store = published_store(network=False)
        transport = LocalTransport(StoreProtocol(store))
        auth_ok(store, transport)
        reply = transport.request(
            {"kind": "INSTANTIATE", "module_id": "flash-delivery", "inputs": KM_INPUTS}
        )
        assert reply == {"kind": "INSTANTIATE_FAIL", "reason": "no network attached"}
        assert store.instances == {}

    def test_allocation_failure_reported(self, store, transport):
        auth_ok(store, transport)
        reply = transport.request(
            {
                "kind": "INSTANTIATE",
                "module_id": "flash-delivery",
                "inputs": dict(KM_INPUTS, K=3),
            }
        )
        assert reply["kind"] == "INSTANTIATE_FAIL"
        assert "only 2 disjoint paths" in reply["reason"]
        assert reply["max_feasible_k"] == 2

    @pytest.mark.parametrize("inputs, reason", [
        (dict(KM_INPUTS, K=0), "k must be >= 1"),
        (dict(KM_INPUTS, endpointB=KM_INPUTS["endpointA"]), "must differ"),
        (dict(KM_INPUTS, endpointB={"address": "Z9", "port": 5000, "nic": 0}),
         "not in topology"),
        (dict(KM_INPUTS, rate=10**400), "too large"),
        (dict(KM_INPUTS, max_latency=-10**400), "too large"),
        (dict(KM_INPUTS, K=True), "must be an integer"),
    ])
    def test_allocator_rejection_reported(self, store, transport, inputs, reason):
        auth_ok(store, transport)
        agents_before = set(store.runtime.agents)
        reply = transport.request(
            {"kind": "INSTANTIATE", "module_id": "flash-delivery", "inputs": inputs}
        )
        assert reply["kind"] == "INSTANTIATE_FAIL"
        assert reason in reply["reason"]
        assert set(store.runtime.agents) == agents_before

    @pytest.mark.parametrize("endpoint", [{}, [{}]])
    def test_addressless_endpoint_fails_and_is_rolled_back(self, store, transport, endpoint):
        auth_ok(store, transport)
        before = network_state(store)
        reply = transport.request({"kind": "INSTANTIATE", "module_id": "flash-delivery",
                                   "inputs": dict(KM_INPUTS, endpointA=endpoint)})
        assert reply["kind"] == "INSTANTIATE_FAIL"
        assert "cannot extract an address" in reply["reason"]
        assert (store.log[-1].action, store.log[-1].outcome) == ("instantiate", "error")
        assert network_state(store) == before

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_is_a_protocol_error(self, store, transport, literal):
        auth_ok(store, transport)
        message = {"kind": "INSTANTIATE", "module_id": "flash-delivery",
                   "inputs": dict(KM_INPUTS, max_latency="LITERAL")}
        line = encode(message).replace('"LITERAL"', literal)
        reply = transport.protocol.handle_line(transport.session, line)
        assert reply == {"kind": "PROTOCOL_ERROR",
                         "reason": f"malformed message: non-finite number {literal}"}
        assert store.runtime.agents == {}

    @pytest.mark.parametrize("inputs", [5, None, True, [], "K"])
    def test_inputs_must_be_an_object(self, store, transport, inputs):
        auth_ok(store, transport)
        reply = transport.request(
            {"kind": "INSTANTIATE", "module_id": "flash-delivery", "inputs": inputs}
        )
        assert reply == {"kind": "PROTOCOL_ERROR", "reason": "inputs must be an object"}
        assert store.runtime.agents == {}

    def test_cost_and_teardown(self, store, transport):
        auth_ok(store, transport)
        inst = transport.request(
            {"kind": "INSTANTIATE", "module_id": "flash-delivery", "inputs": KM_INPUTS}
        )
        iid = inst["instance_id"]
        report = transport.request({"kind": "COST", "instance_id": iid})
        assert report["kind"] == "COST_REPORT"
        assert report["raw_total"] == 0.0
        assert transport.request({"kind": "TEARDOWN", "instance_id": iid})["kind"] == "TEARDOWN_OK"
        assert transport.request({"kind": "TEARDOWN", "instance_id": "ghost"})["kind"] == "TEARDOWN_FAIL"

    def test_cost_unknown_instance(self, transport):
        reply = transport.request({"kind": "COST", "instance_id": "ghost"})
        assert reply["kind"] == "COST_FAIL"


class TestControlPlaneOnly:
    def test_no_payload_bearing_kind_exists(self):
        """The protocol vocabulary has no way to carry application payload."""
        for kind, row in SCHEMA.items():
            assert not {"payload", "data"} & set(row), kind


@pytest.fixture
def server(store):
    server = StoreServer(store, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.shutdown()
    server.server_close()


@contextlib.contextmanager
def fake_store(answer):
    """A localhost listener standing in for a store: `answer(conn)` runs once
    for every request line a client sends; yields the (host, port) to dial."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn, conn.makefile("rb") as requests:
                try:
                    while requests.readline():
                        answer(conn)
                except OSError:  # the client hung up mid-answer
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        stop.set()
        thread.join(timeout=10.0)
        listener.close()
        assert not thread.is_alive()


class TestTCPHostileStore:
    """`TCPTransport.request` against a peer that does not speak the protocol."""

    @pytest.mark.parametrize("reply", [b"not json\n", b"5\n", b"[]\n", b"\xff\xfe\n"])
    def test_connect_falls_back_on_a_reply_that_is_no_json_object(self, reply):
        with fake_store(lambda conn: conn.sendall(reply)) as address:
            transport = TCPTransport(*address)
            client = DsaClient("A", Simulator(evaluation_topology()), transport, app_id="demo")
            conn = client.connect("Device_B", "flash-delivery", "tok", fallback_address="B")
            transport.close()
        assert conn.mode == "fallback"
        assert conn.failure_reason.startswith("store unreachable")

    def test_endless_line_is_cut_at_the_line_limit(self):
        chunk = b"x" * (1 << 16)  # allocated before tracing: only the client is measured

        def flood(conn):
            for _ in range(512):  # 32 MiB, no newline
                conn.sendall(chunk)

        with fake_store(flood) as address:
            client = TCPTransport(*address)
            tracemalloc.start()
            try:
                with pytest.raises(TransportError, match="longer than"):
                    client.request({"kind": "HELLO", "app_id": "x"})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert client._sock is None  # the rest of the flood is never read
        assert peak < 4 * 1024 * 1024

    def test_store_closing_mid_reply_is_a_transport_error(self):
        def cut(conn):
            conn.sendall(b'{"kind": "HELLO_')
            conn.shutdown(socket.SHUT_WR)

        with fake_store(cut) as address:
            client = TCPTransport(*address)
            with pytest.raises(TransportError, match="connection closed by store") as raised:
                client.request({"kind": "HELLO", "app_id": "x"})
            assert not isinstance(raised.value, TransportTimeout)
            assert client._sock is None

    def test_trickled_reply_is_bounded_by_one_deadline(self):
        def trickle(conn):
            for byte in encode({"kind": "HELLO_OK", "app_id": "x"}).encode("utf-8"):
                conn.sendall(bytes([byte]))
                time.sleep(0.1)

        with fake_store(trickle) as address:
            client = TCPTransport(*address, timeout_s=0.5)
            start = time.monotonic()
            with pytest.raises(TransportTimeout):
                client.request({"kind": "HELLO", "app_id": "x"})
            elapsed = time.monotonic() - start
            assert client._sock is None
        assert elapsed < 1.0


class TestTCP:
    def test_round_trip_over_sockets(self, server):
        client = TCPTransport(*server.address)
        assert client.request({"kind": "HELLO", "app_id": "tcp-app"})["kind"] == "HELLO_OK"
        reply = client.request({"kind": "RESOLVE", "alias": "nope"})
        assert reply["kind"] == "RESOLVE_FAIL"
        client.close()

    def test_non_utf8_line_answered_and_session_kept(self, server):
        with socket.create_connection(server.address, timeout=2.0) as sock:
            replies = sock.makefile("rb")
            sock.sendall(b"\xff\xfe{}\n")
            assert json.loads(replies.readline())["kind"] == "PROTOCOL_ERROR"
            sock.sendall(encode({"kind": "HELLO", "app_id": "x"}).encode("utf-8"))
            assert json.loads(replies.readline())["kind"] == "HELLO_OK"

    def test_blank_lines_skipped_and_next_request_answered(self, server):
        with socket.create_connection(server.address, timeout=2.0) as sock:
            replies = sock.makefile("rb")
            sock.sendall(b"\n \t\r\n" + encode({"kind": "HELLO", "app_id": "x"}).encode("utf-8"))
            assert json.loads(replies.readline()) == {"kind": "HELLO_OK", "app_id": "x"}

    @staticmethod
    def bad_inputs_answered_and_session_kept(store, server, bad_inputs):
        client = TCPTransport(*server.address)
        token = store.purchase("tcp-app", "flash-delivery").token
        auth = {"kind": "AUTH", "token": token, "module_id": "flash-delivery"}
        assert client.request(auth)["kind"] == "AUTH_OK"
        bad = {"kind": "INSTANTIATE", "module_id": "flash-delivery", "inputs": bad_inputs}
        assert client.request(bad)["kind"] == "PROTOCOL_ERROR"
        assert client.request(dict(bad, inputs=KM_INPUTS))["kind"] == "INSTANTIATE_OK"
        client.close()

    def test_non_object_inputs_answered_and_session_kept(self, store, server):
        self.bad_inputs_answered_and_session_kept(store, server, None)

    def test_non_finite_number_answered_and_session_kept(self, store, server):
        nan = dict(KM_INPUTS, max_latency=float("nan"))
        self.bad_inputs_answered_and_session_kept(store, server, nan)

    def test_unreachable_raises_transport_error(self):
        client = TCPTransport("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(TransportError):
            client.request({"kind": "HELLO", "app_id": "x"})

    def test_encode_is_single_line(self):
        line = encode({"kind": "HELLO", "app_id": "x"})
        assert line.endswith("\n")
        assert "\n" not in line[:-1]


MISSING = object()
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
ENDPOINT = st.sampled_from(["A", "B"]).map(lambda a: {"address": a, "port": 5000, "nic": 0})
INSTANCE = st.sampled_from(["inst-0001", "inst-0002", "inst-0003", "ghost"])


def fields(**valid):
    """An object whose every field is drawn valid, as arbitrary JSON or missing."""
    return st.fixed_dictionaries(
        {name: st.one_of(value, JSON, st.just(MISSING)) for name, value in valid.items()}
    ).map(lambda doc: {k: v for k, v in doc.items() if v is not MISSING})


# One valid-value strategy per request field name in SCHEMA.
VALID = {
    "app_id": st.just("prop-app"),
    "token": st.sampled_from(["prop-token", "forged"]),
    "module_id": st.just("flash-delivery"),
    "alias": st.sampled_from(["peer", "self", "nope", ""]),
    "connectivity": st.lists(ENDPOINT, max_size=2),
    "inputs": fields(endpointA=ENDPOINT, endpointB=ENDPOINT, K=st.integers(1, 3),
                     rate=st.sampled_from([10.0, 60.0]), max_latency=st.sampled_from([1.0, 5.0])),
    "instance_id": INSTANCE,
}
MESSAGES = {kind: fields(**{name: VALID.get(name, st.nothing()) for name in row})
            for kind, row in SCHEMA.items()}
MESSAGES["SHUTDOWN"] = fields(instance_id=INSTANCE)  # a kind the protocol does not know


def test_every_schema_field_is_fuzzed():
    assert {name for row in SCHEMA.values() for name in row} <= set(VALID)


MESSAGE = st.sampled_from(sorted(MESSAGES)).flatmap(
    lambda kind: MESSAGES[kind].map(lambda doc: dict(doc, kind=kind))
)


def network_state(store):
    sim = store.sim
    return (dict(store.runtime.agents), sorted(map(repr, sim.all_rules())),
            [sim.link_load_mbps(lid) for lid in sim.topology.links])


@settings(max_examples=300, deadline=None)
@given(messages=st.lists(MESSAGE, max_size=12))
def test_property_every_reply_has_a_kind_and_failures_change_nothing(messages):
    store = published_store(token_factory=lambda: "prop-token")
    transport = LocalTransport(StoreProtocol(store))
    auth_ok(store, transport)
    for message in messages:
        before = network_state(store)
        reply = transport.request(message)
        assert isinstance(reply, dict) and isinstance(reply.get("kind"), str)
        if reply["kind"] not in ("INSTANTIATE_OK", "TEARDOWN_OK"):
            assert network_state(store) == before, (message, reply)


def test_cost_teardown_transcript_pinned():
    """The reply bytes of one seeded session, COST before and after time
    advances, TEARDOWN and COST on an unknown id; pinned across versions."""
    store = published_store(token_factory=lambda: "tok-transcript")
    protocol = StoreProtocol(store)
    session = protocol.new_session()
    token = store.purchase("demo", "flash-delivery").token
    lines = []

    def say(message):
        lines.append(encode(message))
        lines.append(encode(protocol.handle_line(session, encode(message))))
        return json.loads(lines[-1])

    say({"kind": "HELLO", "app_id": "demo"})
    say({"kind": "AUTH", "token": token, "module_id": "flash-delivery"})
    iid = say({"kind": "INSTANTIATE", "module_id": "flash-delivery",
               "inputs": KM_INPUTS})["instance_id"]
    say({"kind": "COST", "instance_id": iid})
    store.sim.run_until(store.sim.now_ms + 1234.5)
    say({"kind": "COST", "instance_id": iid})
    say({"kind": "TEARDOWN", "instance_id": iid})
    store.sim.run_until(store.sim.now_ms + 500.0)
    say({"kind": "COST", "instance_id": iid})
    say({"kind": "COST", "instance_id": "inst-9999"})
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "a513ea6db4d90d01b90eef1054ba2cf18f1b743cbb3dc542b82cc8e4d7781d82")
