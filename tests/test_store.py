import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from socketstore.agents import (
    LINK_AGENT_TYPE,
    SWITCH_AGENT_TYPE,
    AgentTypeLibrary,
    BindingError,
    LinkAgent,
)
from socketstore.fixtures import evaluation_topology, flash_delivery_manifest
from socketstore.kmflash import register_km_type
from socketstore.moduledef import IllegalTransition, ModuleState
from socketstore import store as store_module
from socketstore.netsim import Simulator
from socketstore.store import (
    RATE_CARD,
    AuthorizationDenied,
    InstantiationError,
    SocketStore,
    StoreError,
    UsageLedger,
)

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


def purchased_token(store: SocketStore, app=APP) -> str:
    mid = publish_flash(store)
    return store.purchase(app, mid).token


def failing_dump(obj, fh, **kwargs):
    raise OSError("disk full")


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

    def test_ranking_deterministic(self):
        store = fresh_store(with_sim=False)
        publish_flash(store)
        assert store.search_modules("flash") == store.search_modules("flash")


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
        assert len(instance.adapter_ids) == 1
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
        adapter_id = instance.adapter_ids[0]
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
        scenario = store.testbeds["latency-spike"]
        topology = dict(scenario.topology_doc, links=[
            link for link in scenario.topology_doc["links"]
            if link["endpoints"] in (["A", "R1"], ["R4", "B"])
        ])
        store.register_testbed(
            dataclasses.replace(scenario, name="cut", topology_doc=topology)
        )
        samples = store.run_testbed_evaluation("baseline", "cut")
        assert [s.value for s in samples] == [None]
        entry = store.log[-1]
        assert (entry.action, entry.outcome, entry.detail["reason"]) == (
            "testbed_evaluation", "error", "no route between A and B")

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
        logged = json.dumps(json.loads(path.read_text())["log"])
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
        state = json.loads(path.read_text())
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

        def torn_dump(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:100])
            raise OSError("disk gone mid-write")

        monkeypatch.setattr(store_module.json, "dump", torn_dump)
        with pytest.raises(OSError, match="mid-write"):
            store.purchase(APP, mid)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]
        assert len(SocketStore(data_path=str(path)).log) == logged

    def test_failed_write_restores_memory_from_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = fresh_store(with_sim=False, data_path=str(path),
                            token_factory=lambda: "lost-token")
        mid = publish_flash(store)
        logged = len(store.log)
        monkeypatch.setattr(store_module.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            store.purchase(APP, mid)
        monkeypatch.undo()
        assert store.licenses == {} and len(store.log) == logged
        assert store.authorize("lost-token", mid) is False
        assert json.loads(path.read_text())["licenses"] == []

    def test_failed_first_write_leaves_an_empty_store(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = SocketStore(data_path=str(path))
        monkeypatch.setattr(store_module.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            store.register_specialist(AUTHOR)
        assert store.specialists == set() and store.log == []
        assert not path.exists()
