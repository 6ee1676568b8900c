"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them live).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.dsa import ConnectOptions, DsaClient
from socketstore.experiment import ExperimentConfig, render_csv, run_experiment
from socketstore.fixtures import (
    FLASH_DELIVERY_NSD,
    evaluation_topology,
    flash_delivery_manifest,
)
from socketstore.kmflash import (
    AllocationFailure,
    allocate_disjoint_paths,
    default_shortest_path,
    deploy_mirror_paths,
    mirror_send,
)
from socketstore.moduledef import (
    ModuleState,
    NSDError,
    can_transition,
    parse_nsd,
    serialize_nsd,
)
from socketstore.netsim import (
    FlowId,
    LatencyInjection,
    Packet,
    Simulator,
    build_topology,
)
from socketstore.store import (
    AuthorizationDenied,
    InstantiationError,
    SocketStore,
    StoreError,
)
from socketstore.wire import LocalTransport, StoreProtocol

from .faults import FaultyTransport
from .oracles import brute_force_disjoint, max_flow_unit, random_connected_view, recompute_latency_ms
from .test_moduledef import random_valid_nsd

KM_INPUTS = {
    "endpointA": {"address": "A", "port": 5000, "nic": 0},
    "endpointB": {"address": "B", "port": 5000, "nic": 0},
    "K": 2,
    "rate": 10.0,
    "max_latency": 5.0,
}


def _announce(number: int, description: str):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE {number:02d}] FAIL  {description}")
                raise
            print(f"\n[ACCEPTANCE {number:02d}] PASS  {description}")
            return result

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


def _published_world(topology=None):
    sim = Simulator(topology or evaluation_topology())
    store = SocketStore(sim=sim)
    manifest = flash_delivery_manifest(store.library)
    store.register_specialist(manifest.author)
    store.submit_module(manifest)
    store.start_review(manifest.module_id, "review-board")
    store.review_decision(manifest.module_id, "accept", "review-board")
    return sim, store


@_announce(1, "latency-spike reproduction: module flawless, baseline fails exactly the window")
def test_criterion_1_scenario_reproduction():
    started = time.monotonic()
    module = run_experiment(ExperimentConfig(module="flash-delivery"))
    baseline = run_experiment(ExperimentConfig(module="baseline"))
    elapsed = time.monotonic() - started

    assert module.mode == "module"
    assert module.stats.sent == 100
    assert module.stats.losses == 0
    assert module.stats.deadline_violations == 0

    assert baseline.stats.sent == 100
    # packets whose R4-B traversal falls inside [40, 60): 20 at a 1 ms gap
    assert abs(baseline.stats.deadline_violations - 20) <= 1
    assert elapsed < 5.0, f"wall clock {elapsed:.2f}s >= 5s"


@_announce(2, "path latency equals per-link delay sum at traversal time (<= 1e-9 ms)")
def test_criterion_2_latency_arithmetic():
    inj = LatencyInjection("R4-B", 10.0, 40.0, 60.0)

    # baseline single path
    sim = Simulator(evaluation_topology())
    sim.inject_latency(inj)
    flow = FlowId("A", "B", "baseline")
    sim.deploy_path(flow, default_shortest_path(sim.topology_snapshot(), "A", "B"))
    baseline_records = []
    for seq in range(100):
        sim.run_until(seq * 1.0)
        baseline_records.append(sim.send_packet(Packet(flow, seq, 512, sim.now_ms, 5.0)))

    # mirrored module paths
    sim2 = Simulator(evaluation_topology())
    sim2.inject_latency(inj)
    pathset = allocate_disjoint_paths(sim2.topology_snapshot(), "A", "B", 2, 10.0, 5.0)
    handles = deploy_mirror_paths(sim2, FlowId("A", "B", "m"), pathset, 10.0)
    module_records = []
    for seq in range(100):
        sim2.run_until(seq * 1.0)
        module_records.extend(mirror_send(sim2, handles, seq, 512, 5.0))

    for sim_used, records in ((sim, baseline_records), (sim2, module_records)):
        for rec in records:
            assert rec.delivered
            expected = recompute_latency_ms(rec, sim_used.topology, [inj])
            assert abs(rec.latency_ms - expected) <= 1e-9
            crossed_injected = any(
                h.link == "R4-B" and 40.0 <= h.enter_ms < 60.0 for h in rec.hops
            )
            assert abs(rec.latency_ms - (12.0 if crossed_injected else 2.0)) <= 1e-9


@_announce(3, "allocator matches brute force and max-flow on 220 random graphs (< 30 s)")
def test_criterion_3_disjoint_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20260808)
    graphs = 0
    while graphs < 220:
        view = random_connected_view(rng, max_nodes=8)
        ids = sorted(view.node_ids())
        src, dst = ids[0], ids[-1]
        graphs += 1
        maxflow = max_flow_unit(view, src, dst, 1.0)
        for k in (1, 2, 3):
            got = allocate_disjoint_paths(view, src, dst, k, 1.0,
                                          float("inf"), float("inf"))
            feasible, best = brute_force_disjoint(view, src, dst, k, 1.0)
            if isinstance(got, AllocationFailure):
                assert not feasible, f"false negative on k={k}"
                assert got.max_feasible_k == maxflow
            else:
                assert feasible, f"false positive on k={k}"
                used = [lid for p in got.paths for lid in p]
                assert len(used) == len(set(used))
                assert abs(sum(got.latencies_ms) - best) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"wall clock {elapsed:.2f}s >= 30s"


def _k_parallel_topology(k: int) -> dict:
    nodes = [{"id": "A", "kind": "host", "nic_count": k},
             {"id": "B", "kind": "host", "nic_count": k}]
    links = []
    for i in range(1, k + 1):
        nodes.append({"id": f"S{i}", "kind": "switch"})
        links.append({"endpoints": ["A", f"S{i}"], "capacity_mbps": 100, "latency_ms": 0.5})
        links.append({"endpoints": [f"S{i}", "B"], "capacity_mbps": 100, "latency_ms": 0.5})
    return {"nodes": nodes, "links": links}


@settings(max_examples=10, deadline=None)
@given(k=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def _dedup_property(k, seed):
    sim, store = _published_world(build_topology(_k_parallel_topology(k)))
    protocol = StoreProtocol(store)
    DsaClient("B", sim, LocalTransport(protocol), app_id="demo").bind("Device_B")
    token = store.purchase("demo", "flash-delivery").token
    dsa_a = DsaClient("A", sim, LocalTransport(protocol), app_id="demo")
    conn = dsa_a.connect("Device_B", "flash-delivery", token, ConnectOptions(k=k))
    assert conn.mode == "module"
    paths = store.instances[conn.instance_id].allocation["paths"]

    rng = random.Random(seed)
    expect_delivered = []
    for seq in range(1000):
        lost = {i for i in range(k) if rng.random() < 0.4}
        if len(lost) < k:
            expect_delivered.append(seq)
        for i in lost:
            sim.retract_path(conn.flow, i)
        conn.send(f"p{seq}")
        for i in lost:
            sim.deploy_path(conn.flow, paths[i], path_index=i)
    got = [seq for seq, _ in conn.recv()]
    assert got == expect_delivered  # each surviving seq exactly once
    assert conn.recv() == []  # and never twice


@_announce(4, "recv dedup: exactly once per surviving seq, never for fully lost seqs")
def test_criterion_4_dedup_exactness():
    _dedup_property()


FAULT_CLASSES = ["store_down", "timeout", "deny", "instantiate_failure",
                 "handshake_cut"]


def _run_fault_class(fault: str, cut_after: int = 1):
    sim, store = _published_world()
    protocol = StoreProtocol(store)
    DsaClient("B", sim, LocalTransport(protocol), app_id="demo").bind("Device_B")
    token = store.purchase("demo", "flash-delivery").token
    opts = ConnectOptions()
    transport = LocalTransport(protocol)
    if fault == "store_down":
        transport = FaultyTransport(transport, "down")
    elif fault == "timeout":
        transport = FaultyTransport(transport, "timeout")
    elif fault == "handshake_cut":
        transport = FaultyTransport(transport, "cut_after", cut_after=cut_after)
    elif fault == "deny":
        token = "bogus-token"
    elif fault == "instantiate_failure":
        opts = ConnectOptions(k=3)
    dsa_a = DsaClient("A", sim, transport, app_id="demo")
    start = sim.now_ms
    conn = dsa_a.connect("Device_B", "flash-delivery", token, opts,
                         fallback_address="B")
    return store, conn, sim.now_ms - start


@settings(max_examples=25, deadline=None)
@given(fault=st.sampled_from(FAULT_CLASSES), cut_after=st.integers(1, 3))
def _fallback_property(fault, cut_after):
    store, conn, elapsed = _run_fault_class(fault, cut_after)
    assert conn is not None, "connect returned nothing in fallback mode"
    assert conn.mode == "fallback"
    assert conn.failure_reason
    assert conn.paths == 1
    assert elapsed <= 200.0
    records = conn.send(b"probe")
    assert len(records) == 1 and records[0].delivered
    if fault == "deny":
        assert any(
            e.action == "authorize" and e.outcome == "deny" for e in store.log
        )
    if fault == "instantiate_failure":
        assert any(
            e.action == "instantiate" and e.outcome == "error" for e in store.log
        )


@_announce(5, "fallback totality across store_down/timeout/deny/"
              "instantiate_failure/handshake_cut within 200 ms")
def test_criterion_5_fallback_totality():
    _fallback_property()


@_announce(6, "lifecycle: exactly the 5 legal transitions pass; self-review rejected")
def test_criterion_6_lifecycle_soundness():
    legal = {
        ("submitted", "in_review"),
        ("in_review", "revision_requested"),
        ("in_review", "published"),
        ("revision_requested", "in_review"),
        ("published", "retired"),
    }
    observed = {
        (a.value, b.value)
        for a in ModuleState
        for b in ModuleState
        if can_transition(a, b)
    }
    assert observed == legal

    store = SocketStore()
    manifest = flash_delivery_manifest(store.library)
    store.register_specialist(manifest.author)
    mid = store.submit_module(manifest)
    store.start_review(mid, "review-board")
    with pytest.raises(StoreError, match="self-review"):
        store.review_decision(mid, "accept", manifest.author)


@_announce(7, "access soundness: no instantiate success without a prior allow")
def test_criterion_7_access_soundness():
    rng = random.Random(424242)
    for _ in range(25):
        sim, store = _published_world()
        tokens = ["bogus-a", "bogus-b"]
        for _ in range(rng.randint(4, 12)):
            op = rng.choice(["purchase", "authorize", "instantiate", "teardown"])
            if op == "purchase":
                tokens.append(
                    store.purchase(f"app-{rng.randint(0, 2)}", "flash-delivery").token
                )
            elif op == "authorize":
                store.authorize(rng.choice(tokens), "flash-delivery")
            elif op == "teardown":
                for iid in list(store.instances):
                    store.teardown_instance(iid)
            else:
                token = rng.choice(tokens)
                before = len(store.log)
                try:
                    store.instantiate(token, "flash-delivery", KM_INPUTS)
                except (AuthorizationDenied, InstantiationError):
                    continue
                # success: a logged allow for this (token, module) precedes it
                allows = [
                    i for i, e in enumerate(store.log)
                    if e.action == "authorize" and e.outcome == "allow"
                    and e.detail.get("token_sha256")
                    == hashlib.sha256(token.encode()).hexdigest()[:16]
                    and e.detail.get("module_id") == "flash-delivery"
                ]
                success = [
                    i for i, e in enumerate(store.log[before:], start=before)
                    if e.action == "instantiate" and e.outcome == "ok"
                ]
                assert allows and success and min(allows) < max(success)


@_announce(8, "cost: 0 at start, non-decreasing, equals 2*rate*s*0.001 (+-1e-9)")
def test_criterion_8_cost_model():
    sim, store = _published_world()
    token = store.purchase("demo", "flash-delivery").token
    instance = store.instantiate(token, "flash-delivery", KM_INPUTS)
    assert store.cost(instance.instance_id).raw_total == 0.0
    polls = []
    for t in (500.0, 2_000.0, 10_000.0):
        sim.run_until(t)
        polls.append(store.cost(instance.instance_id).raw_total)
    assert polls == sorted(polls)
    report = store.cost(instance.instance_id)
    expected = 2 * 10.0 * 10.0 * 0.001  # K * rate * seconds * unit price
    assert abs(report.raw_total - expected) <= 1e-9
    assert abs(report.weighted_total - report.raw_total) <= 1e-12


@_announce(9, "NSD parse/serialize identity; unknown types and cycles always rejected")
def test_criterion_9_nsd_round_trip():
    store = SocketStore()
    library = store.library
    fixture = parse_nsd(FLASH_DELIVERY_NSD, library)
    assert parse_nsd(serialize_nsd(fixture), library) == fixture

    rng = random.Random(11)
    for _ in range(100):
        nsd = random_valid_nsd(rng)
        assert parse_nsd(serialize_nsd(nsd), library) == nsd

    from socketstore.moduledef import NSD, Directive

    for _ in range(25):
        nsd = random_valid_nsd(rng)
        bad = NSD(nsd.inputs,
                  nsd.directives + (Directive("zz", "NotInTheLibrary"),),
                  nsd.wires)
        with pytest.raises(NSDError, match="unknown agent type"):
            parse_nsd(serialize_nsd(bad), library)

    checked_cycles = 0
    while checked_cycles < 25:
        nsd = random_valid_nsd(rng)
        if len(nsd.directives) < 2:
            continue
        checked_cycles += 1
        a = nsd.directives[0].directive_id
        b = nsd.directives[-1].directive_id
        cyclic = NSD(nsd.inputs, nsd.directives, nsd.wires + ((a, b), (b, a)))
        with pytest.raises(NSDError, match="wiring cycle"):
            parse_nsd(serialize_nsd(cyclic), library)


@_announce(10, "seeded experiments produce byte-identical CSV")
def test_criterion_10_determinism():
    for module in ("flash-delivery", "baseline"):
        for seed in (0, 7):
            first = render_csv(run_experiment(ExperimentConfig(module=module, seed=seed)))
            second = render_csv(run_experiment(ExperimentConfig(module=module, seed=seed)))
            assert first.encode("utf-8") == second.encode("utf-8")
