"""Span bookkeeping of the traced run."""

import threading

from socketstore import kmflash, moduledef, store

import tracing
from tracing import NAME, PARENT, RID, Tracer


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        (1, None, 1, "a", 0.0, 10.0, 0, None),
        (2, 1, 1, "b", 1.0, 4.0, 0, None),
        (3, 1, 1, "b", 3.0, 6.0, 1, None),  # overlaps its sibling
        (4, 2, 1, "c", 2.0, 3.0, 0, None),
    ]
    assert tracer.self_times() == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_wrappers_nest_per_thread_and_are_removed():
    tracer = Tracer()
    original = kmflash.allocate_disjoint_paths
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: None)
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    outer()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[NAME], []).append(span)
    for inner_span, outer_span in zip(by_name["inner"], by_name["outer"]):
        assert inner_span[PARENT] == outer_span[0]
        assert inner_span[RID] == outer_span[RID]
    assert by_name["outer"][0][RID] != by_name["outer"][1][RID]
    original_doc = moduledef.manifest_from_doc
    with tracer.installed():
        assert kmflash.allocate_disjoint_paths.__wrapped__ is original
        # a name imported elsewhere is patched where that module looks it up
        assert store.manifest_from_doc.__wrapped__ is original_doc
        assert moduledef.manifest_from_doc.__wrapped__ is original_doc
    assert kmflash.allocate_disjoint_paths is original
    assert store.manifest_from_doc is original_doc


def test_every_target_resolves():
    tracer = Tracer()
    with tracer.installed():
        pass
    assert len(set(tracing.NAMES)) == len(tracing.TARGETS)
