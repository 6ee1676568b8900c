import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.dsa import BoundHandle, ConnectOptions, DedupReceiver, DsaClient, DsaError
from socketstore.fixtures import evaluation_topology, flash_delivery_manifest
from socketstore.netsim import LatencyInjection, Simulator, build_topology
from socketstore.store import SocketStore
from socketstore.wire import LocalTransport, StoreProtocol

from .faults import FaultyTransport
from .oracles import ReferenceDedupReceiver

AUTHOR = "pathworks-labs"
MODULE = "flash-delivery"


def make_world(topology=None):
    """One shared network carrying both the store and the two devices."""
    sim = Simulator(topology or evaluation_topology())
    store = SocketStore(sim=sim)
    store.register_specialist(AUTHOR)
    mid = store.submit_module(flash_delivery_manifest(store.library))
    store.start_review(mid, "review-board")
    store.review_decision(mid, "accept", "review-board")
    protocol = StoreProtocol(store)
    return sim, store, protocol


def client_pair(sim, protocol):
    dsa_b = DsaClient("B", sim, LocalTransport(protocol), app_id="demo")
    dsa_a = DsaClient("A", sim, LocalTransport(protocol), app_id="demo")
    return dsa_a, dsa_b


def purchased(store, app="demo"):
    return store.purchase(app, MODULE).token


def module_connection(topology=None, k=2):
    """A K-mirror connection from A to B, made at simulated time 0."""
    sim, store, protocol = make_world(topology)
    dsa_a, dsa_b = client_pair(sim, protocol)
    dsa_b.bind("Device_B")
    conn = dsa_a.connect("Device_B", MODULE, purchased(store), ConnectOptions(k=k))
    assert conn.mode == "module" and conn.paths == k
    return sim, store, conn


def parallel_paths(k):
    """A and B joined by k two-link paths A-Si-B of 1 ms each."""
    nodes = [{"id": host, "kind": "host", "nic_count": k} for host in "AB"]
    nodes += [{"id": f"S{i}", "kind": "switch"} for i in range(k)]
    link = {"capacity_mbps": 100, "latency_ms": 0.5}
    links = [{"endpoints": [end, f"S{i}"], **link} for i in range(k) for end in "AB"]
    return build_topology({"nodes": nodes, "links": links})


def test_a_client_on_a_switch_is_refused():
    sim, _, protocol = make_world()
    with pytest.raises(DsaError, match="^'R1' is not a host$"):
        DsaClient("R1", sim, LocalTransport(protocol))


class TestBind:
    def test_bind_publishes_two_endpoints(self):
        sim, store, protocol = make_world()
        _, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        resolved = store.resolve_alias("Device_B")
        assert len(resolved) == 2
        assert {e["nic"] for e in resolved} == {0, 1}
        assert all(e["address"] == "B" for e in resolved)

    def test_empty_alias_rejected(self):
        sim, store, protocol = make_world()
        _, dsa_b = client_pair(sim, protocol)
        with pytest.raises(DsaError, match="empty alias"):
            dsa_b.bind("")

    def test_rebind_same_device_idempotent(self):
        sim, store, protocol = make_world()
        _, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        dsa_b.bind("Device_B")
        assert len(store.resolve_alias("Device_B")) == 2

    def test_alias_conflict_between_devices(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        with pytest.raises(DsaError, match="alias conflict"):
            dsa_a.bind("Device_B")

    def test_periodic_refresh_after_store_outage(self):
        sim, store, protocol = make_world()
        real = LocalTransport(protocol)
        flaky = FaultyTransport(real, fault="down")
        dsa_b = DsaClient("B", sim, flaky, app_id="demo")
        handle = dsa_b.bind("Device_B")
        assert not handle.registered
        assert store.resolve_alias("Device_B") is None
        flaky.fault = "none"  # store comes back; next refresh succeeds
        sim.run_until(sim.now_ms + 1000.0)
        assert handle.registered
        assert store.resolve_alias("Device_B") is not None

    def test_close_releases_alias(self):
        sim, store, protocol = make_world()
        _, dsa_b = client_pair(sim, protocol)
        handle = dsa_b.bind("Device_B")
        handle.close()
        assert store.resolve_alias("Device_B") is None

    def test_resolution_freshness_after_rebind(self):
        sim, store, protocol = make_world()
        _, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        first = store.resolve_alias("Device_B")
        rebound = DsaClient("B", sim, LocalTransport(protocol), app_id="demo",
                            base_port=9000)
        rebound.bind("Device_B")
        fresh = store.resolve_alias("Device_B")
        assert fresh != first
        assert all(e["port"] >= 9000 for e in fresh)


class TestConnect:
    def test_module_mode_k2(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        conn = dsa_a.connect("Device_B", MODULE, purchased(store))
        assert conn.mode == "module"
        assert conn.paths == 2
        assert conn.instance_id in store.instances

    def test_k3_falls_back_with_allocation_reason(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        conn = dsa_a.connect("Device_B", MODULE, purchased(store), ConnectOptions(k=3))
        assert conn.mode == "fallback"
        assert conn.paths == 1
        assert conn.failure_reason == "allocation failed: only 2 disjoint paths"

    def test_bad_token_falls_back_as_denied(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        conn = dsa_a.connect("Device_B", MODULE, "not-a-token")
        assert conn.mode == "fallback"
        assert conn.failure_reason == "authorization denied"
        # the fallback still reaches the peer like a plain socket would
        recs = conn.send(b"x")
        assert len(recs) == 1 and recs[0].delivered

    def test_peer_outside_topology_falls_back_and_leaves_nothing(self):
        """An alias bound to an address the network does not know makes the
        allocator reject the request inside the store; connect still returns
        a fallback connection and the store rolls everything back."""
        sim, store, protocol = make_world()
        dsa_a, _ = client_pair(sim, protocol)
        reply = LocalTransport(protocol).request({
            "kind": "BIND", "alias": "Device_Z",
            "connectivity": [{"address": "Z9", "port": 5000, "nic": 0}],
        })
        assert reply["kind"] == "BIND_OK"
        agents_before = set(store.runtime.agents)
        conn = dsa_a.connect("Device_Z", MODULE, purchased(store))
        assert conn.mode == "fallback"
        assert "not in topology" in conn.failure_reason
        assert set(store.runtime.agents) == agents_before
        assert sim.all_rules() == []
        assert all(sim.link_load_mbps(link) == 0.0 for link in sim.topology.links)
        assert not conn.send(b"x")[0].delivered

    def test_invalid_options_raise(self):
        with pytest.raises(DsaError):
            ConnectOptions(k=0)
        with pytest.raises(DsaError):
            ConnectOptions(rate_mbps=0)
        with pytest.raises(DsaError):
            ConnectOptions(rate_mbps=float("nan"))
        with pytest.raises(DsaError):
            ConnectOptions(max_latency_ms=float("nan"))
        with pytest.raises(DsaError):
            ConnectOptions(on_failure="explode")

    def test_negotiate_mode_invokes_callback_and_opens_nothing(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        events = []
        dsa_a.on_failure(events.append)
        conn = dsa_a.connect(
            "Device_B", MODULE, purchased(store),
            ConnectOptions(k=3, on_failure="negotiate"),
        )
        assert conn is None
        assert len(events) == 1
        assert events[0].max_feasible_k == 2
        assert "only 2 disjoint paths" in events[0].reason


class CannedTransport:
    """A store that answers each request kind with one fixed reply."""

    def __init__(self, replies: dict):
        self.replies = {"HELLO": {"kind": "HELLO_OK", "app_id": "demo"}, **replies}

    def request(self, message: dict) -> dict:
        return self.replies[message["kind"]]


AUTH_OK = {"kind": "AUTH_OK", "module_id": MODULE}
RESOLVE_OK = {"kind": "RESOLVE_OK", "connectivity": [{"address": "B", "port": 5000, "nic": 0}]}
BAD_ALLOCATION = ("protocol error: allocation must be an object with a 'flow' of three "
                  "strings and an int 'k' from 1 to the K requested")
# a success reply with a missing or mistyped field, and the failure it is
MALFORMED_SUCCESS = {
    "resolve_ok_without_connectivity": (
        {"AUTH": AUTH_OK, "RESOLVE": {"kind": "RESOLVE_OK"}},
        "protocol error: RESOLVE_OK missing field 'connectivity'"),
    "connectivity_not_endpoints_after_deny": (
        {"AUTH": {"kind": "AUTH_DENY", "reason": "no license"},
         "RESOLVE": {"kind": "RESOLVE_OK", "connectivity": "zz"}},
        "authorization denied"),
    "instantiate_ok_without_allocation": (
        {"AUTH": AUTH_OK, "RESOLVE": RESOLVE_OK,
         "INSTANTIATE": {"kind": "INSTANTIATE_OK", "instance_id": "inst-0001"}},
        "protocol error: INSTANTIATE_OK missing field 'allocation'"),
    "allocation_flow_not_three_strings": (
        {"AUTH": AUTH_OK, "RESOLVE": RESOLVE_OK,
         "INSTANTIATE": {"kind": "INSTANTIATE_OK", "instance_id": "inst-0001",
                         "allocation": {"flow": 3, "k": 2}}},
        BAD_ALLOCATION),
    "allocation_k_above_k_requested": (
        {"AUTH": AUTH_OK, "RESOLVE": RESOLVE_OK,
         "INSTANTIATE": {"kind": "INSTANTIATE_OK", "instance_id": "inst-0001",
                         "allocation": {"flow": ["A", "B", "inst-0001"], "k": 3}}},
        BAD_ALLOCATION),
}


@pytest.mark.parametrize("on_failure", ["fallback", "negotiate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SUCCESS))
def test_malformed_success_reply_is_store_trouble(case, on_failure):
    """connect never raises on a success reply it cannot use: it falls back
    or relays the failure like any other store trouble."""
    replies, reason = MALFORMED_SUCCESS[case]
    sim = Simulator(evaluation_topology())
    dsa_a = DsaClient("A", sim, CannedTransport(replies), app_id="demo")
    events = []
    dsa_a.on_failure(events.append)
    conn = dsa_a.connect("Device_B", MODULE, "tok", ConnectOptions(on_failure=on_failure),
                         fallback_address="B")
    if on_failure == "negotiate":
        assert conn is None
        assert [e.reason for e in events] == [reason]
    else:
        assert (conn.mode, conn.failure_reason) == ("fallback", reason)
        assert conn.send(b"x")[0].delivered


class TestSendRecv:
    def test_one_send_two_records_one_delivery(self):
        _, _, conn = module_connection()
        records = conn.send(b"hello")
        assert len(records) == 2
        assert conn.recv() == [(0, b"hello")]
        assert conn.recv() == []

    def test_fallback_sends_single_copy(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        conn = dsa_a.connect("Device_B", MODULE, "junk")
        records = conn.send(b"payload")
        assert len(records) == 1
        assert conn.recv() == [(0, b"payload")]

    def test_blackholed_path_still_delivers_everything(self):
        sim, _, conn = module_connection()
        sim.retract_path(conn.flow, 0)  # kill the first mirror copy's route
        for i in range(100):
            sim.run_until(i * 1.0)
            conn.send(f"pkt-{i}")
        got = conn.recv()
        assert [seq for seq, _ in got] == list(range(100))

    def test_send_after_close_raises(self):
        _, _, conn = module_connection()
        conn.close()
        with pytest.raises(DsaError, match="connection closed"):
            conn.send(b"late")

    def test_recv_after_close_raises(self):
        _, _, conn = module_connection()
        conn.close()
        with pytest.raises(DsaError, match="connection closed"):
            conn.recv()

    def test_a_payload_neither_bytes_nor_str_counts_512_bytes(self):
        _, _, conn = module_connection()
        payload = {"reading": 7}
        assert [rec.packet.size_bytes for rec in conn.send(payload)] == [512, 512]
        assert conn.recv() == [(0, payload)]


class TestRecvOrder:
    def test_a_seq_is_ordered_by_its_earliest_copy(self):
        """Path 0's R1-R3 holds seq 0's first copy 10 ms, so seq 0 arrives at
        2.0 ms by path 1, before seq 1 (sent at 1 ms, 3.0 ms on both paths)."""
        sim, store, conn = module_connection()
        assert "R1-R3" in store.instances[conn.instance_id].allocation["paths"][0]
        sim.inject_latency(LatencyInjection("R1-R3", 10.0, 0.0, 1.0))
        first = conn.send(b"s0")
        sim.run_until(1.0)
        second = conn.send(b"s1")
        assert [rec.arrive_at_ms for rec in first + second] == [12.0, 2.0, 3.0, 3.0]
        assert [s for s, _ in conn.recv()] == [0, 1]

    @settings(max_examples=30, deadline=None)
    @given(k=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_property_recv_orders_by_earliest_delivered_arrival(self, k, seed):
        """Copies lost to retracted paths and held by short injections on the
        mirror links: recv returns the seqs with a delivered copy, sorted by
        (earliest arrival among their records, seq)."""
        sim, store, conn = module_connection(parallel_paths(k), k)
        paths = store.instances[conn.instance_id].allocation["paths"]
        links = sorted({lid for path in paths for lid in path})
        rng = random.Random(seed)
        for _ in range(rng.randint(1, 12)):
            start = rng.uniform(0.0, 300.0)
            sim.inject_latency(LatencyInjection(rng.choice(links), rng.uniform(0.1, 8.0),
                                                start, start + rng.uniform(0.1, 5.0)))

        def send(seq):
            lost = [i for i in range(k) if rng.random() < 0.3]
            for i in lost:
                sim.retract_path(conn.flow, i)
            records = conn.send(seq)
            for i in lost:
                sim.deploy_path(conn.flow, paths[i], path_index=i)
            return records

        first = {}
        for seq, records in enumerate(sim.paced(300, 1.0, send)):
            for rec in records:
                if rec.delivered:
                    first[seq] = min(first.get(seq, rec.arrive_at_ms), rec.arrive_at_ms)
        assert conn.recv() == [(seq, seq) for seq in sorted(first, key=lambda s: (first[s], s))]


class TestWorkCounts:
    """Work counted through recorders patched onto the class, not timed."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_mirrored_seq_takes_k_sends_and_one_offer(self, monkeypatch, k):
        sim, _, conn = module_connection(parallel_paths(k), k)
        send_packet, offer, sends, offers = Simulator.send_packet, DedupReceiver.offer, [], []
        monkeypatch.setattr(Simulator, "send_packet",
                            lambda self, packet: sends.append(packet) or send_packet(self, packet))
        monkeypatch.setattr(DedupReceiver, "offer",
                            lambda self, *args: offers.append(args) or offer(self, *args))
        per_seq = []
        for seq in range(50):
            sim.run_until(seq * 1.0)
            per_seq.append(conn.send(b"x"))
        assert all(rec.delivered for records in per_seq for rec in records)
        assert len(sends) == k * 50
        assert offers == [(seq, min(rec.arrive_at_ms for rec in records), b"x")
                          for seq, records in enumerate(per_seq)]

    def test_a_pending_refresh_fires_as_in_a_run_until_loop(self, monkeypatch):
        """A bound alias refreshes every second: the paced loop fires each
        refresh at the simulated time, and between the same sends, as a loop
        that calls `run_until` before every send."""
        log, refresh = [], BoundHandle.refresh
        monkeypatch.setattr(BoundHandle, "refresh", lambda self: log.append(
            ("refresh", self.client.sim.now_ms)) or refresh(self))

        def run(loop):
            log.clear()
            sim, _, protocol = make_world()
            client_pair(sim, protocol)[1].bind("Device_B")
            loop(sim, 3000, 0.7, lambda seq: log.append(("send", seq, sim.now_ms)))
            return list(log)

        def run_until_loop(sim, count, gap_ms, send):
            for seq in range(count):
                sim.run_until(seq * gap_ms)
                send(seq)

        paced = run(lambda sim, *args: sim.paced(*args))
        assert paced == run(run_until_loop)
        assert [entry for entry in paced if entry[0] == "refresh"] == [
            ("refresh", 0.0), ("refresh", 1000.0), ("refresh", 2000.0)]


class TestClose:
    def test_close_tears_down_and_freezes_cost(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        conn = dsa_a.connect("Device_B", MODULE, purchased(store))
        iid = conn.instance_id
        sim.run_until(2000.0)
        conn.close()
        frozen = store.cost(iid).raw_total
        assert frozen > 0
        sim.run_until(10_000.0)
        assert store.cost(iid).raw_total == frozen
        assert store.instances[iid].torn_down_at_ms is not None

    def test_double_close_noop(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        conn = dsa_a.connect("Device_B", MODULE, purchased(store))
        conn.close()
        conn.close()

    def test_close_survives_a_store_that_cannot_take_the_teardown(self):
        _, store, conn = module_connection()
        conn.client.transport = FaultyTransport(conn.client.transport, "down")
        conn.close()
        assert conn.closed
        assert store.instances[conn.instance_id].torn_down_at_ms is None

    def test_close_fallback_no_store_interaction(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        conn = dsa_a.connect("Device_B", MODULE, "junk")
        requests = []
        inner = dsa_a.transport.request
        dsa_a.transport.request = lambda message: requests.append(message) or inner(message)
        conn.close()
        assert requests == []


FAULTS = ["down", "timeout", "cut_after_1", "cut_after_2", "deny", "instantiate_fail"]


def run_fault(fault: str):
    sim, store, protocol = make_world()
    dsa_b = DsaClient("B", sim, LocalTransport(protocol), app_id="demo")
    dsa_b.bind("Device_B")
    token = purchased(store)
    opts = ConnectOptions()
    if fault == "deny":
        token = "junk-token"
        transport = LocalTransport(protocol)
    elif fault == "instantiate_fail":
        opts = ConnectOptions(k=3)
        transport = LocalTransport(protocol)
    elif fault.startswith("cut_after_"):
        transport = FaultyTransport(
            LocalTransport(protocol), "cut_after", cut_after=int(fault[-1])
        )
    else:
        transport = FaultyTransport(LocalTransport(protocol), fault)
    dsa_a = DsaClient("A", sim, transport, app_id="demo")
    start = sim.now_ms
    conn = dsa_a.connect("Device_B", MODULE, token, opts, fallback_address="B")
    elapsed = sim.now_ms - start
    return store, conn, elapsed


class TestFallbackTotality:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_always_falls_back_within_timeout(self, fault):
        store, conn, elapsed = run_fault(fault)
        assert conn is not None
        assert conn.mode == "fallback"
        assert conn.failure_reason
        assert elapsed <= 200.0
        records = conn.send(b"probe")
        assert len(records) == 1
        assert records[0].delivered

    def test_deny_is_logged_when_store_reachable(self):
        store, conn, _ = run_fault("deny")
        denies = [e for e in store.log if e.action == "authorize" and e.outcome == "deny"]
        assert denies

    def test_instantiate_failure_logged_when_store_reachable(self):
        store, conn, _ = run_fault("instantiate_fail")
        errors = [e for e in store.log if e.action == "instantiate" and e.outcome == "error"]
        assert errors


class TestDedupReceiver:
    def test_duplicate_rejected(self):
        rx = DedupReceiver()
        assert rx.offer(0, 1.0, "a")
        assert not rx.offer(0, 2.0, "a")
        assert rx.drain() == [(0, "a")]

    def test_late_beyond_window_rejected(self):
        rx = DedupReceiver(window=16)
        assert rx.offer(100, 1.0, "new")
        assert not rx.offer(84, 2.0, "too-old")
        assert rx.offer(85, 2.0, "just-inside")

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([2, 3]),
        data=st.data(),
    )
    def test_property_exactly_once_per_surviving_seq(self, k, data):
        n = 200
        rx = DedupReceiver()
        expected = []
        for seq in range(n):
            # each copy independently survives or is lost; at least one
            # survivor is forced for seqs the oracle expects delivered
            mask = data.draw(
                st.lists(st.booleans(), min_size=k, max_size=k), label=f"mask{seq}"
            )
            if any(mask):
                expected.append(seq)
            for copy, survived in enumerate(mask):
                if survived:
                    rx.offer(seq, seq * 1.0 + copy * 0.1, f"p{seq}")
        got = [seq for seq, _ in rx.drain()]
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        window=st.integers(min_value=1, max_value=64),
        stream=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),  # seq
                st.integers(min_value=0, max_value=50),   # arrival, tenths of ms
                st.booleans(),                           # drain after this offer
            ),
            max_size=300,
        ),
    )
    def test_property_matches_reference_filter(self, window, stream):
        """Arbitrary seq/arrival streams (duplicates, reordering, seqs older
        than the window) get the same verdicts and drains as a filter that
        keeps exactly the in-window seqs."""
        rx, ref = DedupReceiver(window=window), ReferenceDedupReceiver(window)
        for seq, arrive, drain in stream:
            assert rx.offer(seq, arrive / 10, seq) == ref.offer(seq, arrive / 10, seq)
            if drain:
                assert rx.drain() == ref.drain()
        assert rx.drain() == ref.drain()

    def test_memory_bounded_by_window(self):
        rx = DedupReceiver(window=16)
        for seq in range(100_000):
            assert rx.offer(seq, float(seq), None)
            if seq % 1000 == 0:
                rx.drain()
            assert len(rx._seen) <= 2 * 16 + 1
        assert not rx.offer(99_983, 0.0, None)  # at the floor: too old
        assert not rx.offer(99_990, 0.0, None)  # inside the window: duplicate
        assert rx.offer(100_001, 0.0, None)
