import dataclasses
import gc
import hashlib
import itertools
import json
import os
import random
import statistics
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.agents import (
    LINK_AGENT_TYPE,
    SWITCH_AGENT_TYPE,
    AgentKind,
    AgentTypeLibrary,
    BindingError,
    LinkAgent,
)
from socketstore.dsa import ConnectOptions, DsaClient
from socketstore.fixtures import evaluation_topology, flash_delivery_manifest
from socketstore.kmflash import register_km_type
from socketstore.moduledef import (
    IllegalTransition,
    MetricDef,
    MetricDirection,
    ModuleState,
    NSDError,
    manifest_to_doc,
    parse_nsd,
)
from socketstore import store as store_module
from socketstore.cli import main as cli_main
from socketstore.netsim import Simulator, build_topology
from socketstore.store import (
    RATE_CARD,
    AuthorizationDenied,
    InstantiationError,
    SocketStore,
    StoreError,
    UsageLedger,
)
from socketstore.wire import LocalTransport, StoreProtocol

from .test_wire import JSON

AUTHOR = "pathworks-labs"
REVIEWER = "review-board"
APP = "demo-app"
KM_INPUTS = {
    "endpointA": {"address": "A", "port": 5000, "nic": 0},
    "endpointB": {"address": "B", "port": 5000, "nic": 0},
    "K": 2,
    "rate": 10.0,
    "max_latency": 5.0,
}


def fresh_store(with_sim=True, **kwargs) -> SocketStore:
    sim = Simulator(evaluation_topology()) if with_sim else None
    store = SocketStore(sim=sim, **kwargs)
    store.register_specialist(AUTHOR)
    return store


def publish_flash(store: SocketStore) -> str:
    mid = store.submit_module(flash_delivery_manifest(store.library))
    store.start_review(mid, REVIEWER)
    store.review_decision(mid, "accept", REVIEWER)
    return mid


def variant(store: SocketStore, module_id: str, **changes):
    """A copy of the flash-delivery manifest under another id and name."""
    return dataclasses.replace(flash_delivery_manifest(store.library),
                               module_id=module_id, name=module_id, **changes)


def publish_variant(store: SocketStore, module_id: str, **changes) -> str:
    """Publish a copy of flash-delivery under another id and name."""
    store.submit_module(variant(store, module_id, **changes))
    store.start_review(module_id, REVIEWER)
    store.review_decision(module_id, "accept", REVIEWER)
    return module_id


def purchased_token(store: SocketStore, app=APP) -> str:
    mid = publish_flash(store)
    return store.purchase(app, mid).token


def fault_store_writes(monkeypatch, write):
    """Make every file the store module opens for writing or appending pass
    each `write(text)` to `write(fh, text)`, `fh` being the real file; files
    opened for reading are left alone."""
    real_open = open

    class FaultyFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            return write(self.fh, text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    def faulty_open(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        return FaultyFile(fh) if "w" in mode or "a" in mode else fh

    monkeypatch.setattr(store_module, "open", faulty_open, raising=False)


def disk_full(fh, text):
    raise OSError("disk full")


def appends_opened(monkeypatch) -> list:
    """Make the store module's `open` record the path of each file it opens for appending."""
    opened = []

    def recording_open(path, mode="r", **kwargs):
        if "a" in mode:
            opened.append(path)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(store_module, "open", recording_open, raising=False)
    return opened


def reference_bytes(store: SocketStore) -> bytes:
    """The store file as a rewrite of the whole in-memory state writes it:
    the snapshot line, every persisted field but the log, then one line per
    log entry, each a compact `json.dumps` with sorted keys."""
    snapshot = {
        "specialists": sorted(store.specialists),
        "metrics": [vars(m) for m in store.metrics.values()],
        "modules": [manifest_to_doc(m) for m in store.modules.values()],
        "licenses": [vars(l) for l in store.licenses.values()],
        "revoked_tokens": sorted(store._revoked_tokens),
        "samples": [vars(s) for s in store.samples],
    }
    return "".join(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                   for doc in (snapshot, *map(vars, store.log))).encode("utf-8")


def file_state(path) -> dict:
    """The store file as one document: the snapshot line's fields, and the
    entry lines as its "log"."""
    snapshot, *log = map(json.loads, Path(path).read_text().splitlines())
    return {**snapshot, "log": log}


# `st.text` draws no surrogates; `log_action`'s own parameter names cannot be detail keys
LONE_SURROGATES = st.text(st.characters(categories=["Cs"]), min_size=1, max_size=3)
DETAIL = st.dictionaries(
    (st.text(max_size=6) | LONE_SURROGATES).filter(
        lambda key: key not in {"self", "actor", "action", "outcome", "changed"}),
    JSON | LONE_SURROGATES, max_size=3)


class TestSubmit:
    def test_valid_manifest_submitted(self):
        store = fresh_store(with_sim=False)
        mid = store.submit_module(flash_delivery_manifest(store.library))
        assert store.module(mid).state is ModuleState.SUBMITTED

    def test_unregistered_author_rejected(self):
        store = SocketStore()
        with pytest.raises(StoreError, match="anonymous author"):
            store.submit_module(flash_delivery_manifest(store.library))

    def test_invalid_manifest_rejected(self):
        store = fresh_store(with_sim=False)
        bad = dataclasses.replace(
            flash_delivery_manifest(store.library), metric_ids=()
        )
        with pytest.raises(StoreError, match="must declare a metric"):
            store.submit_module(bad)

    def test_a_param_naming_no_declared_input_is_rejected(self):
        """Such a module could never instantiate: each run would miss the input."""
        store = fresh_store(with_sim=False)
        nsd = flash_delivery_manifest(store.library).nsd
        km = nsd.directives[0]
        params = tuple((name, "$k2" if value == "$K" else value) for name, value in km.params)
        bad = variant(store, "undeclared", nsd=dataclasses.replace(
            nsd, directives=(dataclasses.replace(km, params=params),)))
        with pytest.raises(StoreError, match="nsd: param 'K' of 'km' names undeclared input 'k2'"):
            store.submit_module(bad)
        assert "undeclared" not in store.modules

    def test_duplicate_version_rejected(self):
        store = fresh_store(with_sim=False)
        store.submit_module(flash_delivery_manifest(store.library))
        again = dataclasses.replace(
            flash_delivery_manifest(store.library), module_id="flash-delivery-2"
        )
        with pytest.raises(StoreError, match="duplicate version"):
            store.submit_module(again)


class TestReview:
    def test_accept_publishes(self):
        store = fresh_store(with_sim=False)
        mid = store.submit_module(flash_delivery_manifest(store.library))
        store.start_review(mid, REVIEWER)
        assert store.review_decision(mid, "accept", REVIEWER) is ModuleState.PUBLISHED

    def test_accept_without_review_is_illegal(self):
        store = fresh_store(with_sim=False)
        mid = store.submit_module(flash_delivery_manifest(store.library))
        with pytest.raises(IllegalTransition, match="illegal transition"):
            store.review_decision(mid, "accept", REVIEWER)

    def test_self_review_rejected(self):
        store = fresh_store(with_sim=False)
        mid = store.submit_module(flash_delivery_manifest(store.library))
        store.start_review(mid, REVIEWER)
        with pytest.raises(StoreError, match="self-review"):
            store.review_decision(mid, "accept", AUTHOR)

    def test_revise_then_resubmit_increments_version(self):
        store = fresh_store(with_sim=False)
        mid = store.submit_module(flash_delivery_manifest(store.library))
        store.start_review(mid, REVIEWER)
        store.review_decision(mid, "revise", REVIEWER)
        revised = dataclasses.replace(flash_delivery_manifest(store.library), version=2)
        assert store.resubmit_revision(mid, revised) is ModuleState.IN_REVIEW
        assert store.module(mid).version == 2

    def test_resubmit_without_version_bump_rejected(self):
        store = fresh_store(with_sim=False)
        mid = store.submit_module(flash_delivery_manifest(store.library))
        store.start_review(mid, REVIEWER)
        store.review_decision(mid, "revise", REVIEWER)
        with pytest.raises(StoreError, match="increment version"):
            store.resubmit_revision(mid, flash_delivery_manifest(store.library))

    def test_lifecycle_soundness_only_reachable_states(self):
        store = fresh_store(with_sim=False)
        mid = publish_flash(store)
        store.retire_module(mid)
        assert store.module(mid).state is ModuleState.RETIRED
        with pytest.raises(IllegalTransition):
            store.start_review(mid, REVIEWER)

    @pytest.mark.parametrize("call, error, message", [
        (lambda store, mid: UsageLedger().open("bogus", "r1", 1.0, 0.0),
         StoreError, "unknown resource kind 'bogus'"),
        (lambda store, mid: store.register_specialist(""), StoreError, "empty specialist id"),
        (lambda store, mid: store.submit_module(variant(store, mid)),
         StoreError, "duplicate module 'flash-delivery'"),
        (lambda store, mid: store.start_review(mid, AUTHOR), StoreError, "self-review"),
        (lambda store, mid: store.review_decision(mid, "maybe", REVIEWER),
         StoreError, "unknown decision 'maybe'"),
        (lambda store, mid: store.resubmit_revision("other", variant(store, "other", version=2)),
         IllegalTransition, "illegal transition submitted -> in_review"),
        (lambda store, mid: store.resubmit_revision(mid, variant(store, "other", version=2)),
         StoreError, "revision must keep module_id and author"),
        (lambda store, mid: store.resubmit_revision(mid, dataclasses.replace(
            flash_delivery_manifest(store.library), version=2, author="someone-else")),
         StoreError, "revision must keep module_id and author"),
        (lambda store, mid: store.resubmit_revision(mid, dataclasses.replace(
            flash_delivery_manifest(store.library), version=2, metric_ids=())),
         StoreError, "module must declare a metric"),
        (lambda store, mid: store.revoke_license(APP, mid), StoreError, "no such license"),
    ], ids=["unknown-resource-kind", "empty-specialist-id", "duplicate-module",
            "self-review-at-start", "unknown-decision", "resubmit-not-requested",
            "revision-changes-module-id", "revision-changes-author", "revision-violations",
            "revoke-missing-license"])
    def test_refused_call_changes_nothing(self, call, error, message):
        """Each refusal of the lifecycle raises its own message and leaves the persisted
        state as it was, beside a module whose review asked for a revision and one only
        submitted."""
        store = fresh_store(with_sim=False)
        mid = store.submit_module(flash_delivery_manifest(store.library))
        store.start_review(mid, REVIEWER)
        store.review_decision(mid, "revise", REVIEWER)
        store.submit_module(variant(store, "other"))
        before = reference_bytes(store)
        with pytest.raises(error) as raised:
            call(store, mid)
        assert str(raised.value) == message
        assert reference_bytes(store) == before


class TestSearch:
    def test_empty_repository(self):
        assert SocketStore().search_modules("anything") == []

    def test_only_published_returned(self):
        store = fresh_store(with_sim=False)
        store.submit_module(flash_delivery_manifest(store.library))
        assert store.search_modules("") == []

    def test_substring_case_insensitive(self):
        store = fresh_store(with_sim=False)
        publish_flash(store)
        assert [r.module_id for r in store.search_modules("FLASH")] == ["flash-delivery"]
        assert store.search_modules("no-such-module") == []

    def test_ranking_by_aggregate(self):
        store = fresh_store(with_sim=True)
        publish_flash(store)
        second = dataclasses.replace(
            flash_delivery_manifest(store.library),
            module_id="slower-delivery",
            name="slower-delivery",
        )
        store.submit_module(second)
        store.start_review("slower-delivery", REVIEWER)
        store.review_decision("slower-delivery", "accept", REVIEWER)
        from socketstore.store import MetricSample

        store.samples.append(MetricSample("flash-delivery", "in_deadline_ratio", 1.0, 0.0, "testbed"))
        store.samples.append(MetricSample("slower-delivery", "in_deadline_ratio", 0.8, 0.0, "testbed"))
        results = store.search_modules("delivery")
        assert [r.module_id for r in results] == ["flash-delivery", "slower-delivery"]
        assert results[0].aggregate == 1.0

    def test_ranking_lower_better_metric(self):
        # names sort the other way, and so would a higher-better ranking
        store = fresh_store(with_sim=False)
        for mid, latency in (("lagging-delivery", 12.0), ("quick-delivery", 2.0)):
            publish_variant(store, mid, metric_ids=("mean_latency_ms",))
            store.samples.append(
                store_module.MetricSample(mid, "mean_latency_ms", latency, 0.0, "testbed"))
        results = store.search_modules("delivery")
        assert [(r.module_id, r.aggregate) for r in results] == [
            ("quick-delivery", 2.0), ("lagging-delivery", 12.0)]

    def test_ranking_deterministic(self):
        store = fresh_store(with_sim=False)
        publish_flash(store)
        assert store.search_modules("flash") == store.search_modules("flash")

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=25),
           window=st.integers(1, 30))
    def test_aggregate_is_the_fmean_of_the_window(self, values, window):
        store = fresh_store(with_sim=False)
        store.samples.extend(store_module.MetricSample("m", "x", value, float(ts), "testbed")
                             for ts, value in enumerate(values))
        assert store.metric_aggregate("m", "x", window) == statistics.fmean(values[-window:])


class TestPurchaseAuthorize:
    def test_purchase_returns_token(self):
        store = fresh_store()
        token = purchased_token(store)
        assert token

    def test_purchase_idempotent(self):
        store = fresh_store()
        mid = publish_flash(store)
        first = store.purchase(APP, mid)
        second = store.purchase(APP, mid)
        assert first == second

    def test_a_repeated_token_is_drawn_again(self):
        tokens = iter(["tok-1", "tok-1", "tok-2"])
        store = fresh_store(token_factory=lambda: next(tokens))
        mid = publish_flash(store)
        assert [store.purchase(app, mid).token for app in ("app-1", "app-2")] == ["tok-1", "tok-2"]

    def test_purchase_unpublished_rejected(self):
        store = fresh_store()
        mid = store.submit_module(flash_delivery_manifest(store.library))
        with pytest.raises(StoreError, match="not published"):
            store.purchase(APP, mid)

    def test_authorize_valid_token(self):
        store = fresh_store()
        token = purchased_token(store)
        assert store.authorize(token, "flash-delivery") is True

    def test_authorize_random_token_denied(self):
        store = fresh_store()
        publish_flash(store)
        assert store.authorize("not-a-token", "flash-delivery") is False

    def test_token_bound_to_module(self):
        store = fresh_store()
        token = purchased_token(store)
        other = dataclasses.replace(
            flash_delivery_manifest(store.library),
            module_id="other", name="other", version=1,
        )
        store.submit_module(other)
        store.start_review("other", REVIEWER)
        store.review_decision("other", "accept", REVIEWER)
        assert store.authorize(token, "other") is False

    def test_revoked_token_denied_and_not_reused(self):
        store = fresh_store()
        token = purchased_token(store)
        store.revoke_license(APP, "flash-delivery")
        assert store.authorize(token, "flash-delivery") is False
        replacement = store.purchase(APP, "flash-delivery")
        assert replacement.token != token

    def test_deny_is_logged(self):
        store = fresh_store()
        publish_flash(store)
        store.authorize("bogus-token", "flash-delivery")
        denies = [
            e for e in store.read_log(action="authorize")
            if e.outcome == "deny"
            and e.detail.get("token_sha256") == hashlib.sha256(b"bogus-token").hexdigest()[:16]
        ]
        assert len(denies) == 1


class TestInstantiate:
    def test_flash_delivery_instantiates(self):
        store = fresh_store()
        token = purchased_token(store)
        instance = store.instantiate(token, "flash-delivery", KM_INPUTS)
        assert instance.allocation["k"] == 2
        # 1 KM adapter + 8 links + 5 switches composed
        view = store.runtime.central_view("production")
        adapters = [v for v in view if v.type_name == "KMirror"]
        assert len(adapters) == 1
        assert len(adapters[0].composed) == 13

    def test_missing_input_rejected(self):
        store = fresh_store()
        token = purchased_token(store)
        inputs = {k: v for k, v in KM_INPUTS.items() if k != "K"}
        with pytest.raises(InstantiationError, match="missing input 'K'"):
            store.instantiate(token, "flash-delivery", inputs)

    def test_unauthorized_instantiate_denied(self):
        store = fresh_store()
        publish_flash(store)
        with pytest.raises(AuthorizationDenied):
            store.instantiate("junk", "flash-delivery", KM_INPUTS)

    def test_k3_allocation_failure_relayed(self):
        store = fresh_store()
        token = purchased_token(store)
        inputs = dict(KM_INPUTS, K=3)
        with pytest.raises(InstantiationError, match="only 2 disjoint paths") as err:
            store.instantiate(token, "flash-delivery", inputs)
        assert err.value.max_feasible_k == 2

    def test_nan_max_latency_rejected(self):
        store = fresh_store()
        token = purchased_token(store)
        with pytest.raises(InstantiationError, match="exceeds max latency nan"):
            store.instantiate(token, "flash-delivery", dict(KM_INPUTS, max_latency=float("nan")))
        assert store.runtime.agents == {}

    def test_rollback_leaves_no_agents(self):
        store = fresh_store()
        token = purchased_token(store)
        with pytest.raises(InstantiationError):
            store.instantiate(token, "flash-delivery", dict(KM_INPUTS, K=3))
        assert store.runtime.central_view("production") == []

    def test_rollback_when_a_composed_agent_fails_to_spawn(self):
        spawns = itertools.count(1)

        def flaky_link_agent(agent_id, spec, typedef):
            if next(spawns) == 3:
                raise BindingError("resource binding failure: third link")
            return LinkAgent(agent_id, spec, typedef)

        library = AgentTypeLibrary()
        library.register(SWITCH_AGENT_TYPE)
        library.register(dataclasses.replace(LINK_AGENT_TYPE, factory=flaky_link_agent))
        register_km_type(library)
        store = fresh_store(library=library)
        token = purchased_token(store)
        with pytest.raises(InstantiationError, match="third link"):
            store.instantiate(token, "flash-delivery", KM_INPUTS)
        sim = store.sim
        assert store.runtime.agents == {}
        assert sim.all_rules() == []
        assert all(sim.link_load_mbps(lid) == 0 for lid in sim.topology.links)
        destroys = [e.detail["type_name"] for e in store.log if e.action == "destroy"]
        assert destroys == ["KMirror", "LinkAgent", "LinkAgent"]

    def test_destroying_adapter_leaves_composed_agents_alive(self):
        # composition is non-owning: the instance manager owns teardown
        store = fresh_store()
        token = purchased_token(store)
        instance = store.instantiate(token, "flash-delivery", KM_INPUTS)
        adapter_id = instance.agent_ids[0]
        composed = store.runtime.agent(adapter_id).composed
        store.runtime.destroy_agent(adapter_id)
        alive = {v.agent_id for v in store.runtime.central_view("production")}
        assert set(composed) <= alive

    def test_teardown_order_adapters_first(self):
        store = fresh_store()
        token = purchased_token(store)
        instance = store.instantiate(token, "flash-delivery", KM_INPUTS)
        store.teardown_instance(instance.instance_id)
        destroys = [e for e in store.log if e.action == "destroy"]
        km_index = next(
            i for i, e in enumerate(destroys) if e.detail.get("type_name") == "KMirror"
        )
        assert km_index == 0
        assert store.runtime.central_view("production") == []

    def test_access_soundness_allow_precedes_instantiate(self):
        store = fresh_store()
        token = purchased_token(store)
        store.instantiate(token, "flash-delivery", KM_INPUTS)
        allow_i = next(
            i for i, e in enumerate(store.log)
            if e.action == "authorize" and e.outcome == "allow"
            and e.detail.get("token_sha256") == hashlib.sha256(token.encode()).hexdigest()[:16]
        )
        inst_i = next(
            i for i, e in enumerate(store.log)
            if e.action == "instantiate" and e.outcome == "ok"
        )
        assert allow_i < inst_i

    def test_access_soundness_random_interleavings(self):
        rng = random.Random(99)
        for trial in range(15):
            store = fresh_store()
            mid = publish_flash(store)
            tokens = ["bogus-1", "bogus-2"]
            for _ in range(rng.randint(3, 10)):
                op = rng.choice(["purchase", "authorize", "instantiate"])
                token = rng.choice(tokens)
                if op == "purchase":
                    tokens.append(store.purchase(f"app-{rng.randint(0, 2)}", mid).token)
                elif op == "authorize":
                    store.authorize(token, mid)
                else:
                    try:
                        store.instantiate(token, mid, KM_INPUTS)
                    except (AuthorizationDenied, InstantiationError):
                        pass
            # every successful instantiate has a prior allow for its token
            digests = {hashlib.sha256(t.encode()).hexdigest()[:16]: t for t in tokens}
            allows_seen: set[str] = set()
            for e in store.log:
                if e.action == "authorize" and e.outcome == "allow":
                    allows_seen.add(digests[e.detail["token_sha256"]])
                if e.action == "instantiate" and e.outcome == "ok":
                    assert allows_seen, "instantiate succeeded with no prior allow"


class TestSharedResourceAgents:
    """Instances whose paths overlap share one resource agent per link and
    switch; each goes with the last instance that holds it."""

    def test_overlapping_instances_hold_the_same_agents(self):
        store = fresh_store()
        token = purchased_token(store)
        first, second = (store.instantiate(token, "flash-delivery", KM_INPUTS) for _ in "12")
        composed = [store.runtime.agent(i.agent_ids[0]).composed for i in (first, second)]
        assert composed[0] == composed[1]
        assert len(set(composed[0])) == 13
        assert len(store.runtime.agents) == 2 + 13

    def test_last_close_destroys_each_shared_agent_once(self):
        store = fresh_store()
        token = purchased_token(store)
        first, second = (store.instantiate(token, "flash-delivery", KM_INPUTS) for _ in "12")
        shared = store.runtime.agent(first.agent_ids[0]).composed
        store.teardown_instance(first.instance_id)
        assert set(store.runtime.agents) == {second.agent_ids[0], *shared}
        mark = len(store.log)
        store.teardown_instance(second.instance_id)
        assert store.runtime.agents == {}
        destroyed = [e.actor for e in store.log[mark:] if e.action == "destroy"]
        assert destroyed == [second.agent_ids[0], *shared]
        destroys = Counter(e.actor for e in store.log if e.action == "destroy")
        assert all(destroys[aid] == 1 for aid in shared)

    def test_rollback_releases_only_what_the_instance_acquired(self):
        fail_on = set()

        def flaky_link_agent(agent_id, spec, typedef):
            if spec.params["link"] in fail_on:
                raise BindingError(f"resource binding failure: {spec.params['link']}")
            return LinkAgent(agent_id, spec, typedef)

        library = AgentTypeLibrary()
        library.register(SWITCH_AGENT_TYPE)
        library.register(dataclasses.replace(LINK_AGENT_TYPE, factory=flaky_link_agent))
        register_km_type(library)
        store = fresh_store(library=library)
        token = purchased_token(store)
        # K=1 takes the first of the two paths that K=2 takes, in spawn order
        first = store.instantiate(token, "flash-delivery", dict(KM_INPUTS, K=1))
        before = set(store.runtime.agents)
        fail_on.add("R5-B")  # the last link of the second path
        mark = len(store.log)
        with pytest.raises(InstantiationError, match="R5-B"):
            store.instantiate(token, "flash-delivery", KM_INPUTS)
        assert set(store.runtime.agents) == before
        destroys = [e for e in store.log[mark:] if e.action == "destroy"]
        assert [e.detail["type_name"] for e in destroys] == ["KMirror"] + ["LinkAgent"] * 3
        assert not {e.actor for e in destroys} & before
        store.teardown_instance(first.instance_id)
        assert store.runtime.agents == {}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(1, 3),
                              st.integers(1, 2)), max_size=24))
    def test_random_connects_and_closes_share_every_resource_agent(self, steps):
        sim = Simulator(small_grid())
        store = SocketStore(sim=sim)
        store.register_specialist(AUTHOR)
        mid = publish_flash(store)
        protocol = StoreProtocol(store)
        hosts = ["H0", "H1", "H2", "H3"]
        clients = {h: DsaClient(h, sim, LocalTransport(protocol), app_id=f"app-{h}")
                   for h in hosts}
        tokens = {}
        for host, client in clients.items():
            client.bind(f"dev-{host}")
            tokens[host] = store.purchase(client.app_id, mid).token
        live = []
        for connect, a, b, k in steps:
            if connect:
                src, dst = hosts[a], hosts[(a + b) % 4]
                live.append(clients[src].connect(f"dev-{dst}", mid, tokens[src],
                                                 ConnectOptions(k=k, rate_mbps=10.0)))
            elif live:
                live.pop(a % len(live)).close()
            agents = store.runtime.agents.values()
            resources = Counter((agent.env_id, agent.spec.type_name, agent.bound_resources)
                                for agent in agents if agent.typedef.kind is AgentKind.RESOURCE)
            assert all(count == 1 for count in resources.values())
            composed = {aid for agent in agents for aid in agent.composed}
            assert all(agent.agent_id in composed for agent in agents
                       if agent.typedef.kind is AgentKind.RESOURCE)
        for conn in live:
            conn.close()
        assert store.runtime.agents == {}


def small_grid():
    """A 3x3 grid of 0.1 ms switch links at 30 Mbps, so three 10 Mbps
    connections fill a link, and a two-NIC host on each side, wired with
    0.5 ms links to two neighbouring border switches."""
    nodes = [{"id": f"S{r}{c}", "kind": "switch"} for r in range(3) for c in range(3)]
    links = [(f"S{r}{c}", f"S{r}{c + 1}", 0.1) for r in range(3) for c in range(2)]
    links += [(f"S{r}{c}", f"S{r + 1}{c}", 0.1) for r in range(2) for c in range(3)]
    sides = (("S00", "S01"), ("S02", "S12"), ("S22", "S21"), ("S20", "S10"))
    for h, ends in enumerate(sides):
        nodes.append({"id": f"H{h}", "kind": "host", "nic_count": 2})
        links += [(f"H{h}", switch, 0.5) for switch in ends]
    return build_topology({"nodes": nodes, "links": [
        {"endpoints": [a, b], "capacity_mbps": 30, "latency_ms": lat} for a, b, lat in links]})


class TestCost:
    def test_zero_usage_at_instantiation(self):
        store = fresh_store()
        token = purchased_token(store)
        instance = store.instantiate(token, "flash-delivery", KM_INPUTS)
        assert store.cost(instance.instance_id).raw_total == 0.0

    def test_closed_form_two_paths(self):
        store = fresh_store()
        token = purchased_token(store)
        instance = store.instantiate(token, "flash-delivery", KM_INPUTS)
        store.sim.run_until(store.sim.now_ms + 10_000.0)  # 10 seconds
        report = store.cost(instance.instance_id)
        assert report.raw_total == pytest.approx(2 * 10.0 * 10.0 * 0.001, abs=1e-9)
        assert report.weighted_total == pytest.approx(report.raw_total, abs=1e-12)

    def test_monotone_accrual(self):
        store = fresh_store()
        token = purchased_token(store)
        instance = store.instantiate(token, "flash-delivery", KM_INPUTS)
        seen = []
        for t in (1000.0, 2000.0, 5000.0):
            store.sim.run_until(t)
            seen.append(store.cost(instance.instance_id).raw_total)
        assert seen == sorted(seen)

    def test_frozen_after_teardown(self):
        store = fresh_store()
        token = purchased_token(store)
        instance = store.instantiate(token, "flash-delivery", KM_INPUTS)
        store.sim.run_until(10_000.0)
        store.teardown_instance(instance.instance_id)
        frozen = store.cost(instance.instance_id).raw_total
        store.sim.run_until(20_000.0)
        assert store.cost(instance.instance_id).raw_total == frozen

    def test_switch_rule_pricing_supported(self):
        store = fresh_store()
        ledger = UsageLedger()
        ledger.open("switch_rule", "R3", 6.0, 0.0)  # six installed rules
        ledger.close_all(10_000.0)
        row = ledger.entries[0]
        assert row.quantity(10_000.0) == pytest.approx(60.0)
        assert RATE_CARD["switch_rule"] * row.quantity(10_000.0) == pytest.approx(0.006)


class TestTestbedEvaluation:
    def test_flash_delivery_full_marks(self):
        store = fresh_store()
        mid = publish_flash(store)
        samples = store.run_testbed_evaluation(mid, "latency-spike")
        assert len(samples) == 1
        assert samples[0].metric_id == "in_deadline_ratio"
        assert samples[0].value == 1.0
        assert samples[0].source == "testbed"

    def test_baseline_below_one(self):
        store = fresh_store()
        samples = store.run_testbed_evaluation("baseline", "latency-spike")
        assert samples[0].value == pytest.approx(0.8)
        assert samples[0].value < 1.0

    def test_failed_binding_records_absent_value(self):
        store = fresh_store()
        mid = publish_flash(store)
        scenario = store.testbeds["latency-spike"]
        broken = dataclasses.replace(
            scenario, name="broken", inputs=dict(scenario.inputs, K=3)
        )
        store.register_testbed(broken)
        samples = store.run_testbed_evaluation(mid, "broken")
        assert samples[0].value is None

    def test_baseline_without_route_records_absent_value(self):
        store = fresh_store()
        register_cut_scenario(store)
        samples = store.run_testbed_evaluation("baseline", "cut")
        assert [s.value for s in samples] == [None]
        entry = store.log[-1]
        assert (entry.action, entry.outcome, entry.detail["reason"]) == (
            "testbed_evaluation", "error", "no route between A and B")

    @pytest.mark.parametrize("name, values", [("latency-spike", [0.8]), ("cut", [None])])
    def test_baseline_runs_between_the_topology_hosts(self, name, values):
        """The baseline sends between its topology's first two hosts, as
        `run_experiment` does, so a scenario without NSD inputs measures it
        too; the values are those measured between the inputs' endpoints."""
        store = fresh_store()
        register_cut_scenario(store)
        scenario = store.testbeds[name]
        store.register_testbed(dataclasses.replace(scenario, name="no-inputs", inputs={}))
        for scenario_name in (name, "no-inputs"):
            samples = store.run_testbed_evaluation("baseline", scenario_name)
            assert [s.value for s in samples] == values

    def test_all_declared_metrics_collected(self):
        store = fresh_store()
        manifest = dataclasses.replace(
            flash_delivery_manifest(store.library),
            metric_ids=("in_deadline_ratio", "loss_ratio", "mean_latency_ms"),
        )
        mid = store.submit_module(manifest)
        store.start_review(mid, REVIEWER)
        samples = store.run_testbed_evaluation(mid, "latency-spike")
        assert {s.metric_id: s.value for s in samples} == {
            "in_deadline_ratio": 1.0, "loss_ratio": 0.0, "mean_latency_ms": 2.0,
        }

    def test_module_without_a_kmirror_agent_sends_nothing(self):
        """An NSD with no KMirror agent sends no copy: the stats of zero sends,
        which count as full marks, no loss and no mean latency."""
        store = fresh_store()
        nsd = parse_nsd('<nsd><agent id="l" type="LinkAgent">'
                        '<param name="link" value="R4-B" /></agent></nsd>', store.library)
        mid = store.submit_module(variant(
            store, "link-only", nsd=nsd,
            metric_ids=("in_deadline_ratio", "loss_ratio", "mean_latency_ms")))
        store.start_review(mid, REVIEWER)
        samples = store.run_testbed_evaluation(mid, "latency-spike")
        assert {s.metric_id: s.value for s in samples} == {
            "in_deadline_ratio": 1.0, "loss_ratio": 0.0, "mean_latency_ms": None,
        }

    def test_unreviewed_module_rejected(self):
        store = fresh_store()
        mid = store.submit_module(flash_delivery_manifest(store.library))
        with pytest.raises(StoreError, match="in review or published"):
            store.run_testbed_evaluation(mid, "latency-spike")

    def test_unknown_scenario_rejected(self):
        store = fresh_store()
        mid = publish_flash(store)
        with pytest.raises(StoreError, match="unknown testbed scenario"):
            store.run_testbed_evaluation(mid, "nope")


def register_cut_scenario(store: SocketStore) -> None:
    """Register "cut": the latency-spike scenario with only links A-R1 and R4-B left."""
    scenario = store.testbeds["latency-spike"]
    topology = dict(scenario.topology_doc, links=[
        link for link in scenario.topology_doc["links"]
        if link["endpoints"] in (["A", "R1"], ["R4", "B"])
    ])
    store.register_testbed(dataclasses.replace(scenario, name="cut", topology_doc=topology))


class TestActionLog:
    def test_append_only_monotone_ts(self):
        store = fresh_store()
        publish_flash(store)
        ts = [e.ts_ms for e in store.log]
        assert ts == sorted(ts)

    def test_empty_filter_returns_full_log(self):
        store = fresh_store()
        publish_flash(store)
        assert store.read_log() == store.log

    def test_filter_by_actor(self):
        store = fresh_store()
        publish_flash(store)
        for e in store.read_log(actor=REVIEWER):
            assert e.actor == REVIEWER


def register_short_scenario(store: SocketStore) -> None:
    """Register "short": the latency-spike scenario with 5 packets."""
    store.register_testbed(dataclasses.replace(
        store.testbeds["latency-spike"], name="short", packet_count=5))


def drawn(pick: int, candidates: list):
    """The candidate `pick` selects, or None when there is none."""
    return candidates[pick % len(candidates)] if candidates else None


def modules_in(store: SocketStore, *states: ModuleState) -> list[str]:
    return [m.module_id for m in store.modules.values() if m.state in states]


def submit_drawn(store, pick):
    if (module_id := f"module-{pick}") not in store.modules:
        store.submit_module(variant(store, module_id))


def transition_drawn(store, pick):
    """Move a drawn module one lifecycle step: review, accept or revise, or retire."""
    module_id = drawn(pick, modules_in(store, ModuleState.SUBMITTED, ModuleState.IN_REVIEW,
                                       ModuleState.PUBLISHED))
    state = module_id and store.module(module_id).state
    if state is ModuleState.SUBMITTED:
        store.start_review(module_id, REVIEWER)
    elif state is ModuleState.IN_REVIEW:
        store.review_decision(module_id, ("accept", "revise")[pick % 2], REVIEWER)
    elif state is ModuleState.PUBLISHED:
        store.retire_module(module_id)


def resubmit_drawn(store, pick):
    if module_id := drawn(pick, modules_in(store, ModuleState.REVISION_REQUESTED)):
        current = store.module(module_id)
        store.resubmit_revision(module_id, dataclasses.replace(current,
                                                               version=current.version + 1))


def purchase_drawn(store, pick):
    if module_id := drawn(pick, modules_in(store, ModuleState.PUBLISHED)):
        store.purchase((APP, "second-app")[pick % 2], module_id)


def revoke_drawn(store, pick):
    if key := drawn(pick, list(store.licenses)):
        store.revoke_license(*key)


def evaluate_drawn(store, pick):
    if module_id := drawn(pick, modules_in(store, ModuleState.IN_REVIEW, ModuleState.PUBLISHED)):
        store.run_testbed_evaluation(module_id, "short")


def authorize_drawn(store, pick):
    token = drawn(pick, [l.token for l in store.licenses.values()]) or "bogus-token"
    store.authorize(token, drawn(pick, list(store.modules)) or "flash-delivery")


def runtime_then_log(store, pick):
    store._runtime_log("agent-1", "probe", "ok", n=pick)
    store.log_action("prop", "probe", "ok")


# the seven writes that change a snapshot field, and writes that only log
SNAPSHOT_WRITES = {
    "register_specialist": lambda store, pick: store.register_specialist(f"author-{pick % 2}"),
    "submit_module": submit_drawn,
    "transition": transition_drawn,
    "resubmit_revision": resubmit_drawn,
    "purchase": purchase_drawn,
    "revoke_license": revoke_drawn,
    "run_testbed_evaluation": evaluate_drawn,
}
LOG_ONLY_WRITES = {
    "authorize": authorize_drawn,
    "bind_alias": lambda store, pick: store.bind_alias(
        f"device-{pick % 2}", [KM_INPUTS["endpointA"]], "device-owner"),
    "runtime_then_log": runtime_then_log,
}


class TestPersistence:
    def test_state_survives_reload(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = fresh_store(with_sim=False, data_path=path)
        mid = publish_flash(store)
        store.purchase(APP, mid)
        reloaded = SocketStore(data_path=path)
        assert reloaded.module(mid).state is ModuleState.PUBLISHED
        assert (APP, mid) in reloaded.licenses
        assert reloaded.specialists == store.specialists
        assert len(reloaded.log) == len(store.log)

    def test_testbed_samples_survive_reload(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = fresh_store(with_sim=False, data_path=path)
        publish_flash(store)
        publish_variant(store, "backup-delivery")
        scenario = store.testbeds["latency-spike"]
        store.register_testbed(dataclasses.replace(
            scenario, name="one-path", inputs=dict(scenario.inputs, K=1)))
        store.run_testbed_evaluation("flash-delivery", "latency-spike")
        store.run_testbed_evaluation("backup-delivery", "one-path")
        ranked = store.search_modules("delivery")
        assert [(r.module_id, r.aggregate) for r in ranked] == [
            ("flash-delivery", 1.0), ("backup-delivery", pytest.approx(0.8))]
        reloaded = SocketStore(data_path=path)
        assert reloaded.samples == store.samples
        for mid in ("flash-delivery", "backup-delivery"):
            assert (reloaded.metric_aggregate(mid, "in_deadline_ratio")
                    == store.metric_aggregate(mid, "in_deadline_ratio"))
        assert reloaded.search_modules("delivery") == ranked

    def test_reloaded_license_still_authorizes(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = fresh_store(with_sim=False, data_path=path)
        mid = publish_flash(store)
        token = store.purchase(APP, mid).token
        reloaded = SocketStore(data_path=path)
        assert reloaded.authorize(token, mid) is True

    def test_action_log_never_holds_the_raw_token(self, tmp_path):
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        token = purchased_token(store)
        store.instantiate(token, "flash-delivery", KM_INPUTS)
        store.authorize("bogus-token", "flash-delivery")
        authorize = store.read_log(action="authorize")
        assert [e.detail["token_sha256"] for e in authorize] == [
            hashlib.sha256(token.encode()).hexdigest()[:16],
            hashlib.sha256(b"bogus-token").hexdigest()[:16],
        ]
        logged = json.dumps(file_state(path)["log"])
        assert token not in logged and "bogus-token" not in logged

    def test_token_that_is_not_utf8_encodable_is_denied_and_logged(self, tmp_path):
        """A JSON string may carry a lone surrogate; authorize digests its
        code points instead of raising."""
        path = str(tmp_path / "store.json")
        store = fresh_store(with_sim=False, data_path=path)
        assert store.authorize("\udc80", "flash-delivery") is False
        digest = hashlib.sha256("\udc80".encode("utf-8", "surrogatepass")).hexdigest()[:16]
        assert store.log[-1].detail == {"token_sha256": digest, "module_id": "flash-delivery"}
        assert SocketStore(data_path=path).log[-1].detail == store.log[-1].detail

    def test_store_file_with_raw_token_entries_loads_unchanged(self, tmp_path):
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path))
        token = purchased_token(store)
        store.authorize(token, "flash-delivery")
        state = file_state(path)  # written back in the old format, one compact document
        entry = state["log"][-1]
        entry["detail"] = {"module_id": "flash-delivery", "token": token}
        path.write_text(json.dumps(state))
        reloaded = SocketStore(data_path=str(path))
        assert reloaded.log[-1].detail == {"module_id": "flash-delivery", "token": token}
        assert len(reloaded.log) == len(store.log)
        assert reloaded.authorize(token, "flash-delivery") is True

    def test_crash_while_writing_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path))
        mid = publish_flash(store)
        before = path.read_bytes()
        logged = len(store.log)

        torn = []

        def torn_write(fh, text):
            fh.write(text[:100])
            fh.flush()
            torn.append(os.path.getsize(fh.name))
            raise OSError("disk gone mid-write")

        fault_store_writes(monkeypatch, torn_write)
        with pytest.raises(OSError, match="mid-write"):
            store.purchase(APP, mid)
        monkeypatch.undo()
        assert torn == [100]  # a partial temp file reached the disk
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]
        assert len(SocketStore(data_path=str(path)).log) == logged

    def test_failed_write_restores_memory_from_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path),
                            token_factory=lambda: "lost-token")
        mid = publish_flash(store)
        logged = len(store.log)
        fault_store_writes(monkeypatch, disk_full)
        with pytest.raises(OSError, match="disk full"):
            store.purchase(APP, mid)
        monkeypatch.undo()
        assert store.licenses == {} and len(store.log) == logged
        assert store.authorize("lost-token", mid) is False
        assert file_state(path)["licenses"] == []

    def test_failed_first_write_leaves_an_empty_store(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = SocketStore(data_path=str(path))
        fault_store_writes(monkeypatch, disk_full)
        with pytest.raises(OSError, match="disk full"):
            store.register_specialist(AUTHOR)
        assert store.specialists == set() and store.log == []
        assert not path.exists()

    @settings(max_examples=100, deadline=None)
    @given(writes=st.lists(st.lists(DETAIL, min_size=1, max_size=3), min_size=1, max_size=6),
           with_sim=st.booleans())
    def test_property_file_is_the_snapshot_and_one_line_per_entry(self, writes, with_sim):
        """Runs of log entries whose details are arbitrary JSON (unicode, lone
        surrogates, floats, nesting), each run persisted by its last entry, as
        agent runtime entries are by the next store action: after every
        write the file is the snapshot line and one line per entry, and a
        store that reloads it holds the same JSON values (JSON reads an
        escaped surrogate pair back as one character). With a simulator or
        without one, each write appends: the file's previous bytes stay its
        prefix."""
        def values(data):  # each line's JSON value, as canonical text
            return [json.dumps(json.loads(line), sort_keys=True) for line in data.splitlines()]

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.json"
            store = fresh_store(with_sim=with_sim, data_path=str(path))
            publish_flash(store)
            for *unwritten, detail in writes:
                before = path.read_bytes()
                for runtime_detail in unwritten:
                    store._runtime_log("agent-1", "probe", "ok", **runtime_detail)
                store.log_action("prop", "probe", "ok", **detail)
                assert path.read_bytes().startswith(before)
                assert path.read_bytes() == reference_bytes(store)
                reloaded = SocketStore(data_path=str(path))
                assert values(reference_bytes(reloaded)) == values(path.read_bytes())

    def test_good_write_after_a_failed_one_writes_the_whole_state(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path))
        mid = publish_flash(store)
        fault_store_writes(monkeypatch, disk_full)
        with pytest.raises(OSError, match="disk full"):
            store.purchase(APP, mid)
        monkeypatch.undo()
        store.purchase("second-app", mid)
        assert path.read_bytes() == reference_bytes(store)

    def test_reopened_store_writes_the_whole_state(self, tmp_path):
        """The reopened store's first write holds the whole log."""
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path))
        mid = publish_flash(store)
        for _ in range(64):
            store.authorize("bogus-token", mid)
        reopened = SocketStore(data_path=str(path))
        reopened.authorize("bogus-token", mid)
        assert len(reopened.log) == 64 + 5
        assert path.read_bytes() == reference_bytes(reopened)

    def test_write_swaps_in_a_complete_file(self, tmp_path):
        """A write that changes the snapshot renames a new complete file over
        the old one and leaves no temp file; a reader that opened the file
        before the write still reads the previous complete file."""
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path))
        mid = publish_flash(store)
        before = path.read_bytes()
        with open(path, "rb") as reader:
            store.purchase("second-app", mid)
            assert reader.read() == before
        assert path.read_bytes() == reference_bytes(store)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]

    def test_clock_never_runs_behind_the_log(self, tmp_path):
        """A store reopened without a simulator resumes its clock from the
        latest entry, even when a simulator logged past one tick per entry."""
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        mid = publish_flash(store)
        store.sim.run_until(len(store.log) + 100.0)
        store.authorize("bogus-token", mid)
        last = store.log[-1].ts_ms
        assert last > len(store.log)
        reopened = SocketStore(data_path=str(path))
        reopened.authorize("bogus-token", mid)
        new = reopened.log[-1]
        assert all(new.ts_ms > e.ts_ms for e in reopened.log[:-1])
        assert reopened.read_log(since_ms=last)[-1] == new

    def test_simulator_on_a_reopened_store_runs_on_from_the_log(self, tmp_path):
        """A simulator attached to a store read from its file stamps entries from
        the latest one on, while usage cost stays in simulator time."""
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        token = purchased_token(store)
        store.sim.run_until(500.0)
        store.authorize("bogus-token", "flash-delivery")
        reopened = SocketStore(sim=Simulator(evaluation_topology()), data_path=str(path))
        instance = reopened.instantiate(token, "flash-delivery", KM_INPUTS)
        reopened.sim.run_until(10_000.0)
        cost = reopened.cost(instance.instance_id).raw_total  # live: priced up to now
        assert cost == pytest.approx(2 * 10.0 * 10.0 * 0.001, abs=1e-9)
        reopened.teardown_instance(instance.instance_id)
        assert reopened.cost(instance.instance_id).raw_total == cost
        times = [e.ts_ms for e in reopened.log]
        assert times == sorted(times) and times[-1] == 500.0 + 10_000.0

    def test_file_with_a_stored_clock_loads_and_its_first_write_drops_it(self, tmp_path):
        """A file whose snapshot line holds `logical_ms`, the clock the store
        once kept there, loads with the clock at its latest entry whatever
        that value; its first write rewrites it without the field."""
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path))
        mid = publish_flash(store)
        snapshot, *log = path.read_text().splitlines()
        for stored in (2.0, 1000.0):
            path.write_text("\n".join([json.dumps({**json.loads(snapshot), "logical_ms": stored},
                                                  sort_keys=True, separators=(",", ":")),
                                       *log]) + "\n")
            old = SocketStore(data_path=str(path))
            assert old.now_ms() == max(e.ts_ms for e in old.log) == 4.0
            old.authorize("bogus-token", mid)  # a log-only write: the old line forces the rewrite
            assert old.log[-1].ts_ms == 5.0
            assert path.read_bytes() == reference_bytes(old)
            assert "logical_ms" not in file_state(path)

    def test_seeded_workflow_store_file_pinned(self, tmp_path):
        """Pins the store file bytes of the seeded walk and the reloaded
        action log across versions."""
        path = seeded_workflow_store_file(tmp_path)
        log = [vars(e) for e in SocketStore(data_path=str(path)).log]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5c623aa90cd8e21bb9d580f32bdda5e5ea5e9dddb0a9f7099927fc191580a17f")
        assert hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest() == (
            "f65ae8d0ca8900722c87a071527a0164bedc7f62d396e9ca08119d985ddd9671")

    def test_reloaded_store_file_persists_the_same_bytes(self, tmp_path):
        """A loaded record keeps each value as the file has it: the seeded
        walk's file, and the same file with an int `issued_at_ms`, are written
        back byte for byte, the int still an int."""
        path = seeded_workflow_store_file(tmp_path)
        snapshot, *log = map(json.loads, path.read_text().splitlines())
        snapshot["licenses"][0]["issued_at_ms"] = 12
        with_int = "".join(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                           for doc in (snapshot, *log)).encode()
        copy = tmp_path / "copy.json"
        for expected in (path.read_bytes(), with_int):
            path.write_bytes(expected)
            store = SocketStore(data_path=str(path))
            store.data_path = str(copy)  # a file it did not read: the write rewrites it whole
            store._persist()
            assert copy.read_bytes() == expected
        assert [type(l.issued_at_ms) for l in store.licenses.values()] == [int]

    @pytest.mark.parametrize("runtime_entries", [0, 2], ids=["one-line", "three-lines"])
    def test_process_crash_at_any_byte_of_an_append(self, tmp_path, runtime_entries):
        """A process killed partway through an append leaves some prefix of
        its bytes. At every length from the old file to the new one, a
        reloaded store holds the state before the write plus a prefix of its
        entries: for a one-line append, the state before or after it."""
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        token = purchased_token(store)
        before = path.read_bytes()
        for n in range(runtime_entries):
            store._runtime_log("agent-1", "probe", "ok", n=n)
        store.authorize(token, "flash-delivery")
        after = path.read_bytes()
        new_lines = after[len(before):].splitlines(keepends=True)
        assert after.startswith(before) and len(new_lines) == runtime_entries + 1
        states = {before + b"".join(new_lines[:i]) for i in range(len(new_lines) + 1)}
        copy = tmp_path / "copy.json"
        for size in range(len(before), len(after) + 1):
            copy.write_bytes(after[:size])
            assert reference_bytes(SocketStore(data_path=str(copy))) in states, size

    def test_append_that_fails_mid_line_leaves_the_file_and_reloads_memory(
            self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        token = purchased_token(store)
        before, logged = path.read_bytes(), len(store.log)
        appended = []

        def half_line(fh, text):
            fh.write(text[:len(text) // 2])
            fh.flush()
            appended.append(os.path.getsize(fh.name) - len(before))
            raise OSError("disk gone mid-line")

        fault_store_writes(monkeypatch, half_line)
        with pytest.raises(OSError, match="mid-line"):
            store.authorize(token, "flash-delivery")
        monkeypatch.undo()
        assert appended and appended[0] > 0  # half a line reached the store file itself
        assert path.read_bytes() == before
        assert len(store.log) == logged and reference_bytes(store) == before
        store.authorize(token, "flash-delivery")
        assert path.read_bytes() == reference_bytes(store)

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from([*SNAPSHOT_WRITES, *LOG_ONLY_WRITES, "reopen"]),
                                    st.integers(0, 5)), min_size=1, max_size=30),
           with_sim=st.booleans())
    def test_property_every_write_leaves_the_file_of_the_state(self, steps, with_sim):
        """Drawn runs of the seven kinds of write that change the snapshot, log-only
        writes and reopens, from a store where each kind has a target: after every step
        the file is the snapshot line and one line per entry of the store's state, and a
        store that reloads it writes the same bytes. A snapshot change whose write
        appended would leave a stale line 1."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.json"
            store = fresh_store(with_sim=with_sim, data_path=str(path))
            register_short_scenario(store)
            purchased_token(store)
            store.submit_module(variant(store, "jitter-delivery"))
            store.start_review("jitter-delivery", REVIEWER)
            store.review_decision("jitter-delivery", "revise", REVIEWER)
            store.submit_module(variant(store, "spare-delivery"))
            for name, pick in steps:
                if name == "reopen":
                    sim = Simulator(evaluation_topology()) if with_sim else None
                    store = SocketStore(sim=sim, data_path=str(path))
                    register_short_scenario(store)
                else:
                    {**SNAPSHOT_WRITES, **LOG_ONLY_WRITES}[name](store, pick)
                assert path.read_bytes() == reference_bytes(store), name
                assert reference_bytes(SocketStore(data_path=str(path))) == path.read_bytes()

    def test_log_only_write_encodes_no_snapshot(self, tmp_path, monkeypatch):
        """A store that wrote the file appends an authorize without encoding a manifest; a
        reopened store encodes the snapshot once, on its first write, to compare it with
        line 1, and appends too. A CLI `search` encodes nothing."""
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        token = purchased_token(store)
        encoded = []
        real = store_module.manifest_to_doc
        monkeypatch.setattr(store_module, "manifest_to_doc",
                            lambda manifest: encoded.append(manifest) or real(manifest))
        inode = path.stat().st_ino
        store.authorize(token, "flash-delivery")
        assert encoded == [] and path.stat().st_ino == inode
        reopened = SocketStore(sim=Simulator(evaluation_topology()), data_path=str(path))
        assert cli_main(["--data", str(path), "search"]) == 0
        assert encoded == []
        reopened.authorize(token, "flash-delivery")
        assert len(encoded) == len(reopened.modules) == 1  # the line-1 compare
        reopened.authorize(token, "flash-delivery")
        assert len(encoded) == 1 and path.stat().st_ino == inode
        assert path.read_bytes() == reference_bytes(reopened)

    def test_write_after_another_store_rewrote_the_file_rewrites_it(self, tmp_path):
        """A second store on the same file rewrites it with a longer line 1; the first
        store's next write must not append to it as if it were the file it wrote, which
        would cut that line short. The second store's purchase is overwritten, not merged:
        a file has one writer at a time."""
        path = tmp_path / "store.json"
        first = fresh_store(with_sim=False, data_path=str(path))
        mid = publish_flash(first)
        first.authorize("bogus-token", mid)
        SocketStore(data_path=str(path)).purchase(APP, mid)
        first.authorize("bogus-token", mid)
        assert path.read_bytes() == reference_bytes(first)
        assert reference_bytes(SocketStore(data_path=str(path))) == path.read_bytes()

    def test_log_only_writes_between_rewrites_open_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path))
        mid = publish_flash(store)
        opened = appends_opened(monkeypatch)
        for _ in range(5):
            store.authorize("bogus-token", mid)
        store.purchase(APP, mid)  # a rewrite: the next append opens the new file
        for _ in range(3):
            store.authorize("bogus-token", mid)
        assert opened == [str(path)] * 2
        assert path.read_bytes() == reference_bytes(store)

    def test_kept_handle_never_writes_to_a_replaced_file(self, tmp_path):
        """Once another store has renamed a new file over the path, the first store's next
        writes land in that file, and the one its kept handle was open on gets no byte."""
        path = tmp_path / "store.json"
        first = fresh_store(with_sim=False, data_path=str(path))
        mid = publish_flash(first)
        first.authorize("bogus-token", mid)  # an append: the handle stays open on this file
        with open(path, "rb") as replaced:
            SocketStore(data_path=str(path)).purchase(APP, mid)
            size = os.fstat(replaced.fileno()).st_size
            for _ in range(2):
                first.authorize("bogus-token", mid)
            assert os.fstat(replaced.fileno()).st_size == size
            assert os.fstat(replaced.fileno()).st_nlink == 0  # unlinked by the rename
        assert path.read_bytes() == reference_bytes(first)
        assert SocketStore(data_path=str(path)).log[-1].action == "authorize"

    def test_append_takes_every_byte_through_short_writes(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        token = purchased_token(store)
        taken = []

        def seven_bytes(fh, data):
            taken.append(fh.write(data[:7]))
            return taken[-1]

        fault_store_writes(monkeypatch, seven_bytes)
        store._runtime_log("agent-1", "probe", "ok", n=1)
        store.authorize(token, "flash-delivery")
        assert len(taken) > 2 and set(taken) <= set(range(1, 8))
        assert path.read_bytes() == reference_bytes(store)

    def test_append_after_a_failed_one_opens_the_file_anew(self, tmp_path, monkeypatch):
        """The handle that one append went through fails halfway through the next line; the
        append after that opens the file again, and none goes through the failed handle."""
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        token = purchased_token(store)
        writes = []

        def second_write_fails_mid_line(fh, data):
            writes.append(len(data))
            if len(writes) != 2:
                return fh.write(data)
            fh.write(data[:len(data) // 2])
            raise OSError("disk gone mid-line")

        fault_store_writes(monkeypatch, second_write_fails_mid_line)
        store.authorize(token, "flash-delivery")
        before = path.read_bytes()
        with pytest.raises(OSError, match="mid-line"):
            store.authorize(token, "flash-delivery")
        assert path.read_bytes() == before
        monkeypatch.undo()
        opened = appends_opened(monkeypatch)
        store.authorize(token, "flash-delivery")
        assert opened == [str(path)] and len(writes) == 2
        assert path.read_bytes() == reference_bytes(store)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_collected_stores_leave_no_descriptor_open(self, tmp_path):
        """Stores that each appended once hold one descriptor each; once they are collected,
        none is left open and no file was closed by its own collection."""
        seed = tmp_path / "seed.json"
        fresh_store(with_sim=False, data_path=str(seed))
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        stores = []
        for i in range(300):
            path = tmp_path / f"store-{i}.json"
            path.write_bytes(seed.read_bytes())
            stores.append(SocketStore(data_path=str(path)))
            stores[-1].authorize("bogus-token", "flash-delivery")
        assert len(os.listdir("/proc/self/fd")) >= before + 300
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del stores
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_torn_tail_is_dropped_and_cut_back_before_the_next_append(self, tmp_path):
        path = tmp_path / "store.json"
        store = fresh_store(data_path=str(path))
        token = purchased_token(store)
        complete = path.read_bytes()
        path.write_bytes(complete + b'{"action":"authorize","actor":"demo-')
        inode = path.stat().st_ino
        reopened = SocketStore(sim=Simulator(evaluation_topology()), data_path=str(path))
        assert reference_bytes(reopened) == complete
        reopened.authorize(token, "flash-delivery")
        assert path.stat().st_ino == inode  # appended, not rewritten
        assert path.read_bytes() == reference_bytes(reopened)
        assert reference_bytes(SocketStore(data_path=str(path))) == path.read_bytes()

    @pytest.mark.parametrize("indent", [2, None], ids=["indented", "compact"])
    def test_old_format_file_loads_and_its_first_write_rewrites_it(self, tmp_path, indent):
        """A store file of one JSON document, the format before the snapshot
        line and entry lines, loads as it did; the first write replaces it
        with the new format."""
        path = seeded_workflow_store_file(tmp_path)
        expected, state = path.read_bytes(), file_state(path)
        path.write_text(json.dumps(state, indent=indent, sort_keys=True))
        old = SocketStore(sim=Simulator(evaluation_topology()), data_path=str(path))
        assert reference_bytes(old) == expected
        old.authorize("bogus-token", "flash-delivery")
        assert path.read_bytes() == reference_bytes(old)
        assert file_state(path)["log"][:-1] == state["log"]

    @pytest.mark.parametrize("doc, violation", [
        ({"log": 5}, "store.log must be a list"),
        ([], "store must be an object"),
        ({"revoked_tokens": 7}, "store.revoked_tokens must be a list"),
        ({"modules": [5]}, "store.modules[0] must be an object"),
        ({"licenses": [{"app_id": "a", "module_id": "m", "issued_at_ms": 1.0, "token": "t",
                        "expires": 0}]}, "unknown store.licenses[0] fields: ['expires']"),
        ({"specialists": "abc"}, "store.specialists must be a list"),
        ({"logical_ms": "x"}, "store.logical_ms must be a finite number or null"),
        ({"log": [{"ts_ms": 1.0, "actor": "a", "action": "b", "outcome": "ok"}]},
         "store.log[0] missing fields ['detail']"),
        ({"metrics": [{"metric_id": "m", "name": "n", "unit": "u", "direction": "up"}]},
         "store.metrics[0].direction must be one of 'higher_better', 'lower_better'"),
        ({"samples": [{"module_id": "m", "metric_id": "x", "value": None, "ts_ms": 0.0,
                       "source": 1}]}, "store.samples[0].source must be a string"),
        ({"modules": [{**manifest_to_doc(flash_delivery_manifest()), "metric_ids": []}]},
         "store.modules[0]: module must declare a metric"),
        ({"logical_ms": 10**400}, "store.logical_ms must be a finite number or null"),
        ({"modules": [{**manifest_to_doc(flash_delivery_manifest()), "price": "x"}]},
         "store.modules[0].price must be a finite number"),
    ], ids=["log", "not-an-object", "revoked-tokens", "module", "license-key", "specialists",
            "logical-ms", "log-entry", "metric-direction", "sample-source", "module-no-metric",
            "logical-ms-beyond-float", "module-price"])
    def test_malformed_store_file_is_a_store_error(self, tmp_path, doc, violation):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreError) as raised:
            SocketStore(data_path=str(path))
        assert str(raised.value) == violation

    def test_a_store_file_that_is_not_json_raises_its_decode_error(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text('{"specialists": [\n')
        with pytest.raises(json.JSONDecodeError, match="line 2 column 1"):
            SocketStore(data_path=str(path))

    def test_a_stored_param_naming_no_declared_input_is_refused(self, tmp_path):
        doc = manifest_to_doc(flash_delivery_manifest())
        path = tmp_path / "store.json"
        path.write_text(json.dumps({"modules": [
            {**doc, "nsd": doc["nsd"].replace('"$K"', '"$k2"')}]}))
        with pytest.raises(NSDError, match="names undeclared input 'k2'"):
            SocketStore(data_path=str(path))


def seeded_workflow_store_file(tmp_path) -> Path:
    """One seeded walk through every persisted record kind: registration,
    review, testbed runs of two modules and the baseline, a custom metric, a
    purchase, a denied authorize, a DSA connect/send/close, a K=3 fallback, a
    revoke and a license that outlives it. Returns the store file."""
    path = tmp_path / "store.json"
    rng = random.Random(7)
    store = fresh_store(data_path=str(path),
                        token_factory=lambda: f"tok-{rng.getrandbits(64):016x}")
    store.metrics["jitter_ms"] = MetricDef("jitter_ms", "Delivery jitter", "ms",
                                           MetricDirection.LOWER_BETTER)
    mid = publish_flash(store)
    publish_variant(store, "jitter-delivery",
                    metric_ids=("mean_latency_ms", "jitter_ms", "loss_ratio"))
    for module_id in (mid, "jitter-delivery", "baseline"):
        store.run_testbed_evaluation(module_id, "latency-spike")
    token = store.purchase(APP, mid).token
    store.authorize("bogus-token", mid)
    protocol = StoreProtocol(store)
    dsa_b = DsaClient("B", store.sim, LocalTransport(protocol), app_id=APP)
    dsa_b.bind("Device_B")
    dsa_a = DsaClient("A", store.sim, LocalTransport(protocol), app_id=APP)
    conn = dsa_a.connect("Device_B", mid, token)
    assert conn.mode == "module"
    for _ in range(3):
        conn.send(b"payload")
        store.sim.run_until(store.sim.now_ms + 1.0)
    conn.close()
    fallback = dsa_a.connect("Device_B", mid, token, ConnectOptions(k=3))
    assert fallback.mode == "fallback"
    fallback.close()
    store.revoke_license(APP, mid)
    store.purchase("second-app", "jitter-delivery")
    return path
