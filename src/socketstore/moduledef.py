"""Store module model: manifest, the Network-Side Directives (NSD) XML
document, metric definitions and the module lifecycle state machine.

Everything here is pure data plus parsing; operations are side-effect-free.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

from .agents import AgentTypeLibrary
from .records import from_doc


class NSDError(ValueError):
    pass


class ManifestError(ValueError):
    pass


class IllegalTransition(ValueError):
    pass


class MetricDirection(str, Enum):
    HIGHER_BETTER = "higher_better"
    LOWER_BETTER = "lower_better"


@dataclass(frozen=True)
class MetricDef:
    metric_id: str
    name: str
    unit: str
    direction: MetricDirection

    def __post_init__(self):
        if not self.unit:
            raise ManifestError("metric unit must be non-empty")


class ModuleState(str, Enum):
    SUBMITTED = "submitted"
    IN_REVIEW = "in_review"
    REVISION_REQUESTED = "revision_requested"
    PUBLISHED = "published"
    RETIRED = "retired"


LEGAL_TRANSITIONS: frozenset[tuple[ModuleState, ModuleState]] = frozenset(
    {
        (ModuleState.SUBMITTED, ModuleState.IN_REVIEW),
        (ModuleState.IN_REVIEW, ModuleState.REVISION_REQUESTED),
        (ModuleState.IN_REVIEW, ModuleState.PUBLISHED),
        (ModuleState.REVISION_REQUESTED, ModuleState.IN_REVIEW),
        (ModuleState.PUBLISHED, ModuleState.RETIRED),
    }
)


def can_transition(current: ModuleState, new: ModuleState) -> bool:
    return (current, new) in LEGAL_TRANSITIONS


def check_transition(current: ModuleState, new: ModuleState) -> None:
    if not can_transition(current, new):
        raise IllegalTransition(f"illegal transition {current.value} -> {new.value}")


# -- NSD -------------------------------------------------------------------


@dataclass(frozen=True)
class FormalInput:
    name: str
    semantic_type: str


@dataclass(frozen=True)
class Directive:
    directive_id: str
    type_name: str
    params: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class NSD:
    inputs: tuple[FormalInput, ...] = ()
    directives: tuple[Directive, ...] = ()
    wires: tuple[tuple[str, str], ...] = ()


def validate_nsd(nsd: NSD, library: AgentTypeLibrary) -> list[str]:
    """Structural validation; returns the full violation list instead of
    stopping at the first problem."""
    violations: list[str] = []
    seen_inputs: set[str] = set()
    for inp in nsd.inputs:
        if inp.name in seen_inputs:
            violations.append(f"duplicate input {inp.name!r}")
        seen_inputs.add(inp.name)
    ids: set[str] = set()
    for d in nsd.directives:
        if d.directive_id in ids:
            violations.append(f"duplicate directive_id {d.directive_id!r}")
        ids.add(d.directive_id)
        if not library.has(d.type_name):
            violations.append(f"unknown agent type {d.type_name!r}")
        for name, value in d.params:
            if isinstance(value, str) and value.startswith("$") and value[1:] not in seen_inputs:
                violations.append(f"param {name!r} of {d.directive_id!r} names "
                                  f"undeclared input {value[1:]!r}")
    for frm, to in nsd.wires:
        for ref in (frm, to):
            if ref not in ids:
                violations.append(f"wire references unknown directive {ref!r}")
    if len(execution_order(nsd)) < len(ids):
        violations.append("wiring cycle")
    return violations


def execution_order(nsd: NSD) -> list[Directive]:
    """Directives in wiring order by Kahn's algorithm, ties broken by the
    smallest directive id; wires naming an unknown directive are ignored.
    Directives on or behind a wiring cycle are left out, so a cyclic NSD
    yields fewer directives than it declares."""
    directives = {d.directive_id: d for d in nsd.directives}
    indegree = dict.fromkeys(directives, 0)
    out: dict[str, list[str]] = {did: [] for did in directives}
    for frm, to in nsd.wires:
        if frm in directives and to in directives:
            out[frm].append(to)
            indegree[to] += 1
    ready = sorted(did for did, deg in indegree.items() if deg == 0)
    order = []
    while ready:
        did = heapq.heappop(ready)
        order.append(directives[did])
        for nxt in out[did]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order


def parse_nsd(document: str, library: AgentTypeLibrary) -> NSD:
    """Parse and validate an NSD document against the agent type library.

    Raises NSDError on malformed XML, unknown agent types (only library
    types may be instantiated), duplicate directive ids, dangling wire
    references and wiring cycles.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise NSDError(f"malformed document: {exc}")
    if root.tag != "nsd":
        raise NSDError(f"malformed document: root element must be <nsd>, got <{root.tag}>")
    if root.attrib:
        raise NSDError(f"unexpected attributes on <nsd>: {sorted(root.attrib)}")
    inputs: list[FormalInput] = []
    directives: list[Directive] = []
    wires: list[tuple[str, str]] = []
    for child in root:
        if child.tag == "input":
            _require_attrs(child, {"name", "type"})
            inputs.append(FormalInput(child.attrib["name"], child.attrib["type"]))
            _require_no_children(child)
        elif child.tag == "agent":
            _require_attrs(child, {"id", "type"})
            params: list[tuple[str, str]] = []
            for sub in child:
                if sub.tag != "param":
                    raise NSDError(f"unexpected element <{sub.tag}> in <agent>")
                _require_attrs(sub, {"name", "value"})
                params.append((sub.attrib["name"], sub.attrib["value"]))
            directives.append(
                Directive(child.attrib["id"], child.attrib["type"], tuple(params))
            )
        elif child.tag == "wire":
            _require_attrs(child, {"from", "to"})
            wires.append((child.attrib["from"], child.attrib["to"]))
        else:
            raise NSDError(f"unexpected element <{child.tag}> in <nsd>")
    nsd = NSD(tuple(inputs), tuple(directives), tuple(wires))
    violations = validate_nsd(nsd, library)
    if violations:
        raise NSDError("; ".join(violations))
    return nsd


def _require_attrs(elem: ET.Element, names: set[str]) -> None:
    missing = names - set(elem.attrib)
    if missing:
        raise NSDError(f"<{elem.tag}> missing attributes {sorted(missing)}")
    unknown = set(elem.attrib) - names
    if unknown:
        raise NSDError(f"<{elem.tag}> has unknown attributes {sorted(unknown)}")


def _require_no_children(elem: ET.Element) -> None:
    if len(elem):
        raise NSDError(f"<{elem.tag}> must be empty")


@functools.lru_cache(maxsize=64)  # an NSD is frozen; each store write dumps its modules
def serialize_nsd(nsd: NSD) -> str:
    """Inverse of parse_nsd: parse(serialize(n)) is structurally equal to n."""
    root = ET.Element("nsd")
    for inp in nsd.inputs:
        e = ET.SubElement(root, "input")
        e.set("name", inp.name)
        e.set("type", inp.semantic_type)
    for d in nsd.directives:
        e = ET.SubElement(root, "agent")
        e.set("id", d.directive_id)
        e.set("type", d.type_name)
        for name, value in d.params:
            p = ET.SubElement(e, "param")
            p.set("name", name)
            p.set("value", value)
    for frm, to in nsd.wires:
        e = ET.SubElement(root, "wire")
        e.set("from", frm)
        e.set("to", to)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


# -- manifest -----------------------------------------------------------------


@dataclass(frozen=True)
class ModuleManifest:
    module_id: str
    name: str
    version: int
    author: str
    metric_ids: tuple[str, ...]
    nsd: NSD
    dsa_ref: str
    price: float
    state: ModuleState = ModuleState.SUBMITTED
    description: str = ""

    def with_state(self, state: ModuleState) -> "ModuleManifest":
        return replace(self, state=state)


def validate_manifest(
    manifest: ModuleManifest,
    metrics: Mapping[str, MetricDef],
    library: AgentTypeLibrary,
) -> list[str]:
    """Returns every violation; an empty list means the manifest is ok."""
    violations: list[str] = []
    if not manifest.module_id:
        violations.append("empty module_id")
    if not manifest.name:
        violations.append("empty name")
    if manifest.version < 1:
        violations.append("version must be a positive integer")
    if not manifest.author:
        violations.append("anonymous author")
    if not manifest.metric_ids:
        violations.append("module must declare a metric")
    for mid in manifest.metric_ids:
        if mid not in metrics:
            violations.append(f"unknown metric {mid!r}")
    if not math.isfinite(manifest.price):
        violations.append("non-finite price")
    elif manifest.price < 0:
        violations.append("negative price")
    violations.extend(f"nsd: {v}" for v in validate_nsd(manifest.nsd, library))
    return violations


def manifest_to_doc(manifest: ModuleManifest) -> dict:
    """The manifest's fields, with the NSD as its document's text; the
    metric ids dump as a list and the state as its value."""
    return {**vars(manifest), "nsd": serialize_nsd(manifest.nsd)}


def manifest_from_doc(doc: dict, library: AgentTypeLibrary, name: str = "manifest",
                      error: type[Exception] = ManifestError) -> ModuleManifest:
    return from_doc(ModuleManifest, doc, name, error,
                    nsd=lambda text: parse_nsd(text, library))


def manifest_to_json(manifest: ModuleManifest) -> str:
    return json.dumps(manifest_to_doc(manifest), indent=2, sort_keys=True) + "\n"
