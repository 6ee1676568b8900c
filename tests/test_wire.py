import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.fixtures import evaluation_topology, flash_delivery_manifest
from socketstore.netsim import Simulator
from socketstore.store import SocketStore
from socketstore.wire import (
    LocalTransport,
    StoreProtocol,
    StoreServer,
    TCPTransport,
    TransportError,
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


def published_store(**kwargs):
    s = SocketStore(sim=Simulator(evaluation_topology()), **kwargs)
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
        reply = protocol.handle_line(session, "{not json")
        assert reply["kind"] == "PROTOCOL_ERROR"

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

    @pytest.mark.parametrize("bad", ["abc", [1, 2], ["B"], {"address": "B"}])
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
    def test_no_payload_bearing_kind_exists(self, store, transport):
        """The protocol vocabulary has no way to carry application payload."""
        auth_ok(store, transport)
        for msg in transport.sent:
            assert "payload" not in msg
            assert "data" not in msg


class TestTCP:
    def test_round_trip_over_sockets(self, store):
        server = StoreServer(store, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.address
            client = TCPTransport(host, port)
            assert client.request({"kind": "HELLO", "app_id": "tcp-app"})["kind"] == "HELLO_OK"
            reply = client.request({"kind": "RESOLVE", "alias": "nope"})
            assert reply["kind"] == "RESOLVE_FAIL"
            client.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_non_utf8_line_answered_and_session_kept(self, store):
        server = StoreServer(store, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.address, timeout=2.0) as sock:
                replies = sock.makefile("rb")
                sock.sendall(b"\xff\xfe{}\n")
                assert json.loads(replies.readline())["kind"] == "PROTOCOL_ERROR"
                sock.sendall(encode({"kind": "HELLO", "app_id": "x"}).encode("utf-8"))
                assert json.loads(replies.readline())["kind"] == "HELLO_OK"
        finally:
            server.shutdown()
            server.server_close()

    def test_non_object_inputs_answered_and_session_kept(self, store):
        server = StoreServer(store, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = TCPTransport(*server.address)
            token = store.purchase("tcp-app", "flash-delivery").token
            auth = {"kind": "AUTH", "token": token, "module_id": "flash-delivery"}
            assert client.request(auth)["kind"] == "AUTH_OK"
            bad = {"kind": "INSTANTIATE", "module_id": "flash-delivery", "inputs": None}
            assert client.request(bad)["kind"] == "PROTOCOL_ERROR"
            good = dict(bad, inputs=KM_INPUTS)
            assert client.request(good)["kind"] == "INSTANTIATE_OK"
            client.close()
        finally:
            server.shutdown()
            server.server_close()

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
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
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


MESSAGES = {
    "HELLO": fields(app_id=st.just("prop-app")),
    "AUTH": fields(token=st.sampled_from(["prop-token", "forged"]),
                   module_id=st.just("flash-delivery")),
    "BIND": fields(alias=st.sampled_from(["peer", "self"]),
                   connectivity=st.lists(ENDPOINT, max_size=2)),
    "RESOLVE": fields(alias=st.sampled_from(["peer", "nope"])),
    "INSTANTIATE": fields(
        module_id=st.just("flash-delivery"),
        inputs=fields(endpointA=ENDPOINT, endpointB=ENDPOINT, K=st.integers(1, 3),
                      rate=st.sampled_from([10.0, 60.0]), max_latency=st.sampled_from([1.0, 5.0])),
    ),
    "COST": fields(instance_id=INSTANCE),
    "TEARDOWN": fields(instance_id=INSTANCE),
    "SHUTDOWN": fields(instance_id=INSTANCE),
}
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
