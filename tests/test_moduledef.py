import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.fixtures import (
    BUILTIN_METRICS,
    FLASH_DELIVERY_NSD,
    flash_delivery_manifest,
)
from socketstore.moduledef import (
    NSD,
    Directive,
    FormalInput,
    IllegalTransition,
    ManifestError,
    MetricDef,
    MetricDirection,
    ModuleState,
    NSDError,
    can_transition,
    check_transition,
    manifest_from_doc,
    manifest_to_json,
    parse_nsd,
    serialize_nsd,
    validate_manifest,
)

METRICS = {m.metric_id: m for m in BUILTIN_METRICS}


class TestParseNSD:
    def test_flash_delivery_fixture(self, library):
        nsd = parse_nsd(FLASH_DELIVERY_NSD, library)
        assert len(nsd.directives) == 1
        assert len(nsd.inputs) == 5
        assert nsd.directives[0].type_name == "KMirror"
        assert [i.name for i in nsd.inputs] == ["endpointA", "endpointB", "K", "rate", "max_latency"]

    def test_unknown_agent_type_rejected(self, library):
        doc = '<nsd><agent id="x" type="CustomExfilAgent" /></nsd>'
        with pytest.raises(NSDError, match="unknown agent type"):
            parse_nsd(doc, library)

    def test_duplicate_directive_id_rejected(self, library):
        doc = (
            '<nsd><agent id="x" type="LinkAgent" />'
            '<agent id="x" type="LinkAgent" /></nsd>'
        )
        with pytest.raises(NSDError, match="duplicate directive_id"):
            parse_nsd(doc, library)

    def test_malformed_document(self, library):
        with pytest.raises(NSDError, match="malformed document"):
            parse_nsd("<nsd><agent", library)

    def test_wiring_cycle_rejected(self, library):
        doc = (
            '<nsd><agent id="a" type="LinkAgent" /><agent id="b" type="LinkAgent" />'
            '<wire from="a" to="b" /><wire from="b" to="a" /></nsd>'
        )
        with pytest.raises(NSDError, match="wiring cycle"):
            parse_nsd(doc, library)

    def test_dangling_wire_rejected(self, library):
        doc = '<nsd><agent id="a" type="LinkAgent" /><wire from="a" to="ghost" /></nsd>'
        with pytest.raises(NSDError, match="unknown directive"):
            parse_nsd(doc, library)

    def test_unknown_element_rejected(self, library):
        with pytest.raises(NSDError, match="unexpected element"):
            parse_nsd("<nsd><thing /></nsd>", library)

    @pytest.mark.parametrize("doc, message", [
        ('<nsd><input name="K" /></nsd>', r"<input> missing attributes \['type'\]"),
        ('<nsd><agent id="a" type="LinkAgent" colour="red" /></nsd>',
         r"<agent> has unknown attributes \['colour'\]"),
        ('<nsd><agent id="a" type="LinkAgent"><param name="link" /></agent></nsd>',
         r"<param> missing attributes \['value'\]"),
        ('<nsd><wire from="a" /></nsd>', r"<wire> missing attributes \['to'\]"),
        ('<nsd><input name="K" type="int"><param name="x" value="1" /></input></nsd>',
         "<input> must be empty"),
        ("<module />", "root element must be <nsd>, got <module>"),
        ('<nsd version="2" />', r"unexpected attributes on <nsd>: \['version'\]"),
        ('<nsd><agent id="a" type="LinkAgent"><wire from="a" to="a" /></agent></nsd>',
         "unexpected element <wire> in <agent>"),
        ('<nsd><input name="K" type="int" /><input name="K" type="ms" /></nsd>',
         "duplicate input 'K'"),
    ], ids=["input-missing", "agent-unknown", "param-missing", "wire-missing",
            "input-with-child", "root", "root-attribute", "agent-child", "duplicate-input"])
    def test_element_attributes_and_children_checked(self, library, doc, message):
        with pytest.raises(NSDError, match=message):
            parse_nsd(doc, library)

    def test_param_naming_an_undeclared_input_rejected(self, library):
        """Every instantiate would fail with a missing input, so the NSD is invalid."""
        doc = FLASH_DELIVERY_NSD.replace('value="$K"', 'value="$k2"')
        with pytest.raises(NSDError, match="^param 'K' of 'km' names undeclared input 'k2'$"):
            parse_nsd(doc, library)


class TestSerializeNSD:
    def test_round_trip_fixture(self, library):
        nsd = parse_nsd(FLASH_DELIVERY_NSD, library)
        assert parse_nsd(serialize_nsd(nsd), library) == nsd

    def test_empty_nsd_round_trips(self, library):
        empty = NSD()
        assert parse_nsd(serialize_nsd(empty), library) == empty

    def test_round_trip_preserves_directive_order(self, library):
        nsd = NSD(
            directives=(
                Directive("b", "LinkAgent", (("link", "R4-B"),)),
                Directive("a", "SwitchAgent", (("switch", "R3"),)),
            ),
            wires=(("b", "a"),),
        )
        back = parse_nsd(serialize_nsd(nsd), library)
        assert [d.directive_id for d in back.directives] == ["b", "a"]
        assert back == nsd


def random_valid_nsd(rng: random.Random) -> NSD:
    type_names = ["LinkAgent", "SwitchAgent", "KMirror"]
    n_inputs = rng.randint(0, 4)
    inputs = tuple(
        FormalInput(f"in{i}", rng.choice(["int", "ms", "mbps", "endpoint"]))
        for i in range(n_inputs)
    )
    n_dirs = rng.randint(0, 5)
    directives = tuple(
        Directive(
            f"d{i}",
            rng.choice(type_names),
            tuple((f"p{j}", f"v{rng.randint(0, 9)}") for j in range(rng.randint(0, 3))),
        )
        for i in range(n_dirs)
    )
    wires = []
    # forward-only wiring keeps the graph acyclic by construction
    for i in range(n_dirs):
        for j in range(i + 1, n_dirs):
            if rng.random() < 0.3:
                wires.append((f"d{i}", f"d{j}"))
    return NSD(inputs, directives, tuple(wires))


class TestRandomRoundTrip:
    def test_hundred_random_nsds(self, library):
        rng = random.Random(20260808)
        for _ in range(100):
            nsd = random_valid_nsd(rng)
            assert parse_nsd(serialize_nsd(nsd), library) == nsd


class TestValidateManifest:
    def test_metric_unit_must_be_non_empty(self):
        with pytest.raises(ManifestError, match="metric unit must be non-empty"):
            MetricDef("m", "a metric", "", MetricDirection.LOWER_BETTER)

    def test_flash_delivery_ok(self, library):
        manifest = flash_delivery_manifest(library)
        assert validate_manifest(manifest, METRICS, library) == []

    def test_empty_metrics_violation(self, library):
        manifest = dataclasses.replace(flash_delivery_manifest(library), metric_ids=())
        violations = validate_manifest(manifest, METRICS, library)
        assert "module must declare a metric" in violations

    @pytest.mark.parametrize("change, violation", [
        ({"module_id": ""}, "empty module_id"),
        ({"name": ""}, "empty name"),
        ({"version": 0}, "version must be a positive integer"),
        ({"author": ""}, "anonymous author"),
    ], ids=["module-id", "name", "version", "author"])
    def test_identity_field_violation(self, library, change, violation):
        manifest = dataclasses.replace(flash_delivery_manifest(library), **change)
        assert validate_manifest(manifest, METRICS, library) == [violation]

    def test_negative_price_violation(self, library):
        manifest = dataclasses.replace(flash_delivery_manifest(library), price=-1.0)
        assert "negative price" in validate_manifest(manifest, METRICS, library)

    def test_dangling_metric_violation(self, library):
        manifest = dataclasses.replace(
            flash_delivery_manifest(library), metric_ids=("no_such_metric",)
        )
        violations = validate_manifest(manifest, METRICS, library)
        assert any("unknown metric" in v for v in violations)

    @pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_violation(self, library, price):
        manifest = dataclasses.replace(flash_delivery_manifest(library), price=price)
        assert "non-finite price" in validate_manifest(manifest, METRICS, library)

    def test_manifest_json_round_trip(self, library):
        manifest = flash_delivery_manifest(library)
        back = manifest_from_doc(json.loads(manifest_to_json(manifest)), library)
        assert back == manifest


LEGAL = {
    (ModuleState.SUBMITTED, ModuleState.IN_REVIEW),
    (ModuleState.IN_REVIEW, ModuleState.REVISION_REQUESTED),
    (ModuleState.IN_REVIEW, ModuleState.PUBLISHED),
    (ModuleState.REVISION_REQUESTED, ModuleState.IN_REVIEW),
    (ModuleState.PUBLISHED, ModuleState.RETIRED),
}


class TestStateMachine:
    @pytest.mark.parametrize("current", list(ModuleState))
    @pytest.mark.parametrize("new", list(ModuleState))
    def test_exhaustive_transition_matrix(self, current, new):
        if (current, new) in LEGAL:
            check_transition(current, new)
        else:
            assert not can_transition(current, new)
            with pytest.raises(IllegalTransition):
                check_transition(current, new)

    def test_exactly_five_legal(self):
        legal = [
            (a, b) for a in ModuleState for b in ModuleState if can_transition(a, b)
        ]
        assert len(legal) == 5


@settings(max_examples=50)
@given(st.data())
def test_property_serialize_parse_identity(data, ):
    from socketstore.fixtures import default_library

    library = default_library()
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    nsd = random_valid_nsd(rng)
    assert parse_nsd(serialize_nsd(nsd), library) == nsd


class TestManifestFromDoc:
    @pytest.mark.parametrize("change, violation", [
        ({"price": "nan"}, "manifest.price must be a finite number"),
        ({"price": math.nan}, "manifest.price must be a finite number"),
        ({"name": ["x"]}, "manifest.name must be a string"),
        ({"version": True}, "manifest.version must be an int"),
        ({"metric_ids": "abc"}, "manifest.metric_ids must be a list"),
        ({"state": "draft"}, "manifest.state must be one of 'submitted', 'in_review', "
                             "'revision_requested', 'published', 'retired'"),
        ({"nsd": 5}, "manifest.nsd must be a string"),
        ({"dsa_ref": None}, "manifest.dsa_ref must be a string"),
        ({"price": 10**400}, "manifest.price must be a finite number"),
    ], ids=["price-text", "price-nan", "name", "version", "metric-ids", "state", "nsd", "dsa-ref",
            "price-beyond-float"])
    def test_mistyped_field_is_a_manifest_error(self, library, change, violation):
        doc = {**json.loads(manifest_to_json(flash_delivery_manifest(library))), **change}
        with pytest.raises(ManifestError) as raised:
            manifest_from_doc(doc, library)
        assert str(raised.value) == violation

    def test_missing_and_unknown_fields_are_named(self, library):
        doc = json.loads(manifest_to_json(flash_delivery_manifest(library)))
        with pytest.raises(ManifestError, match=r"manifest missing fields \['price'\]"):
            manifest_from_doc({k: v for k, v in doc.items() if k != "price"}, library)
        with pytest.raises(ManifestError, match=r"unknown manifest fields: \['color'\]"):
            manifest_from_doc({**doc, "color": "red"}, library)

    def test_int_price_and_omitted_defaults_are_kept(self, library):
        doc = json.loads(manifest_to_json(flash_delivery_manifest(library)))
        del doc["state"], doc["description"]
        manifest = manifest_from_doc({**doc, "price": 5}, library)
        assert (manifest.price, type(manifest.price)) == (5, int)
        assert (manifest.state, manifest.description) == (ModuleState.SUBMITTED, "")
