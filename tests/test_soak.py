"""Long-run bounds: state that grows with every packet, agent message or
wire request must stay flat once its window is full. Each soak measures
its own process with tracemalloc: the memory still held after the second
half of the run, less that held after the first half."""

import gc
import json
import socket
import threading
import tracemalloc

import pytest

from socketstore.agents import AgentRuntime, AgentSpec
from socketstore.dsa import DedupReceiver, DsaClient
from socketstore.fixtures import default_library, evaluation_topology, flash_delivery_manifest
from socketstore.netsim import Simulator
from socketstore.store import SocketStore
from socketstore.wire import MAX_LINE_BYTES, LocalTransport, StoreProtocol, StoreServer, encode

FLAT_BYTES = 64 * 1024


def retained_growth(step, count: int) -> int:
    """Bytes still allocated after 2 x `count` calls of `step` beyond those
    still allocated after the first `count`."""
    tracemalloc.start()
    try:
        for _ in range(count):
            step()
        gc.collect()
        half = tracemalloc.get_traced_memory()[0]
        for _ in range(count):
            step()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - half
    finally:
        tracemalloc.stop()


def published_store(sim=None) -> SocketStore:
    store = SocketStore(sim=sim)
    store.register_specialist("pathworks-labs")
    mid = store.submit_module(flash_delivery_manifest(store.library))
    store.start_review(mid, "review-board")
    store.review_decision(mid, "accept", "review-board")
    return store


def test_sends_without_recv_hold_one_window():
    sim = Simulator(evaluation_topology())
    store = published_store(sim)
    protocol = StoreProtocol(store)
    DsaClient("B", sim, LocalTransport(protocol), app_id="demo").bind("Device_B")
    dsa_a = DsaClient("A", sim, LocalTransport(protocol), app_id="demo")
    token = store.purchase("demo", "flash-delivery").token
    conn = dsa_a.connect("Device_B", "flash-delivery", token)
    assert conn.mode == "module" and conn.paths == 2
    conn._rx = DedupReceiver(window=256)
    sent = 0

    def paced_send():
        nonlocal sent
        sim.run_until(sent * 1.0)
        conn.send(f"payload-{sent}", size_bytes=512)
        sent += 1

    assert retained_growth(paced_send, 3000) < FLAT_BYTES
    # what is still pending is the last window's worth, in seq order
    assert [seq for seq, _ in conn.recv()] == list(range(sent - 256, sent))


def test_store_bound_agent_reads_retain_nothing():
    runtime = AgentRuntime(Simulator(evaluation_topology()), default_library())
    runtime.create_environment("testbed", "sdn-testbed")
    link_agent = runtime.spawn_agent("testbed", AgentSpec("LinkAgent", {"link": "R4-B"}))

    replies = None

    def read():
        nonlocal replies
        replies = runtime.send_message("store", link_agent, {"kind": "read"})

    assert retained_growth(read, 5000) < FLAT_BYTES
    assert [m.payload["kind"] for m in replies] == ["link_stats"]


def test_bind_release_cycles_leave_no_session_state():
    store = published_store()
    transport = LocalTransport(StoreProtocol(store))
    endpoint = [{"address": "B", "port": 5000, "nic": 0}]
    for n in range(10_000):
        alias = f"device-{n}"
        bind = transport.request({"kind": "BIND", "alias": alias, "connectivity": endpoint})
        release = transport.request({"kind": "BIND", "alias": alias, "connectivity": []})
        assert bind["kind"] == release["kind"] == "BIND_OK"
    assert store.aliases == {}
    assert transport.session.bound_aliases == {}


@pytest.fixture
def server():
    server = StoreServer(published_store(), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def exchange(server, lines: bytes) -> list[dict]:
    """Send raw request lines on a fresh connection, then end the sending
    side; every reply up to EOF."""
    with socket.create_connection(server.address, timeout=2.0) as sock:
        replies = sock.makefile("rb")
        sock.sendall(lines)
        sock.shutdown(socket.SHUT_WR)
        return [json.loads(reply) for reply in replies]


def test_over_long_line_answered_then_connection_closed(server):
    hello = encode({"kind": "HELLO", "app_id": ""}).encode("utf-8")
    pad = MAX_LINE_BYTES - len(hello)
    longest = hello.replace(b'""', b'"' + b"x" * pad + b'"')
    assert len(longest) == MAX_LINE_BYTES
    assert exchange(server, longest + hello) == [
        {"kind": "HELLO_OK", "app_id": "x" * pad}, {"kind": "HELLO_OK", "app_id": ""}]
    # one byte more: answered, then the rest of the stream is not read
    over = longest.replace(b"x", b"xx", 1)
    assert exchange(server, over + hello) == [
        {"kind": "PROTOCOL_ERROR", "reason": "line too long"}]
    assert exchange(server, hello) == [{"kind": "HELLO_OK", "app_id": ""}]
