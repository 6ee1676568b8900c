import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.dsa import ConnectOptions, DedupReceiver, DsaClient, DsaError
from socketstore.fixtures import evaluation_topology, flash_delivery_manifest
from socketstore.netsim import Simulator
from socketstore.store import SocketStore
from socketstore.wire import LocalTransport, StoreProtocol

from .faults import FaultyTransport
from .oracles import ReferenceDedupReceiver

AUTHOR = "pathworks-labs"
MODULE = "flash-delivery"


def make_world():
    """One shared network carrying both the store and the two devices."""
    sim = Simulator(evaluation_topology())
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
    def make_module_conn(self):
        sim, store, protocol = make_world()
        dsa_a, dsa_b = client_pair(sim, protocol)
        dsa_b.bind("Device_B")
        conn = dsa_a.connect("Device_B", MODULE, purchased(store))
        assert conn.mode == "module"
        return sim, store, conn

    def test_one_send_two_records_one_delivery(self):
        _, _, conn = self.make_module_conn()
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
        sim, _, conn = self.make_module_conn()
        sim.retract_path(conn.flow, 0)  # kill the first mirror copy's route
        for i in range(100):
            sim.run_until(i * 1.0)
            conn.send(f"pkt-{i}")
        got = conn.recv()
        assert [seq for seq, _ in got] == list(range(100))

    def test_send_after_close_raises(self):
        _, _, conn = self.make_module_conn()
        conn.close()
        with pytest.raises(DsaError, match="connection closed"):
            conn.send(b"late")


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
