"""Typed records from the JSON files the store reads: experiment configs,
store files, module manifests and topologies, each built from a dataclass's
fields and resolved annotations. Values are kept as the document has them
(an int in a float field stays an int), so a record read from a file is
written back with the same bytes."""

from __future__ import annotations

import functools
import itertools
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum

# How a violation names each JSON leaf type, and its test; the wire schema
# checks its string and object fields with these too. No number is a bool, and
# a finite one is within the float range (no NaN, infinity or larger int).
# `str.__instancecheck__(value)` is `isinstance(value, str)`, without a
# Python-level call for each field of each record.
LEAVES = {
    str: ("a string", str.__instancecheck__),
    dict: ("an object", dict.__instancecheck__),
    bool: ("true or false", lambda value: type(value) is bool),
    int: ("an int", lambda value: type(value) is int),
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
}


class _Mismatch(Exception):
    """A violation's text, with "{}" for the place of the value: `path`
    holds the keys and indices that lead to it, innermost first."""

    def __init__(self, text: str, *path):
        super().__init__(text)
        self.path = list(path)


def from_doc(cls, doc, name: str, error: type[Exception], **parsers):
    """The dataclass `cls` built from the JSON value `doc`, or raises `error`
    with the first violation, placed from `name`. A field with a default may
    be missing; a key that names no field is a violation. `parsers` maps a
    field whose document form is text to the function that parses it."""
    plan, required = _plan(cls)
    plan = {**plan, **{key: (*LEAVES[str], parse) for key, parse in parsers.items()}}
    try:
        return _build(cls, plan, required, doc)
    except _Mismatch as m:
        place = name + "".join(f"[{key}]" if type(key) is int else f".{key}"
                               for key in reversed(m.path))
        raise error(m.args[0].replace("{}", place, 1)) from None


def _build(cls, plan: dict, required: frozenset, doc):
    if not isinstance(doc, dict):
        raise _Mismatch("{} must be an object")
    values = {}
    for key, value in doc.items():
        if (spec := plan.get(key)) is None:
            raise _Mismatch(f"unknown {{}} fields: {sorted(doc.keys() - plan.keys())}")
        what, test, build = spec
        if not test(value):
            raise _Mismatch("{} must be " + what, key)
        values[key] = value if build is None else _built(key, build, value)
    if len(values) < len(plan) and (missing := required - values.keys()):
        raise _Mismatch(f"{{}} missing fields {sorted(missing)}")
    return cls(**values)


def _built(key, build, value):
    try:
        return build(value)
    except _Mismatch as m:
        m.path.append(key)
        raise


@functools.cache
def _plan(cls) -> tuple[dict, frozenset]:
    """Each field's spec, and the names of the fields without a default."""
    hints = typing.get_type_hints(cls)
    return ({f.name: _spec(hints[f.name]) for f in fields(cls)},
            frozenset(f.name for f in fields(cls)
                      if f.default is MISSING and f.default_factory is MISSING))


@functools.cache
def _spec(tp) -> tuple:
    """How a JSON value becomes the annotation `tp`: the name a violation
    gives it, the test the value must pass, and the function that builds it
    (None keeps the value). `tp` is a LEAVES type, `X | None`, `list[X]`,
    `tuple[X, ...]` or `tuple[X, Y]` (each from a list), a dataclass or a
    str enum."""
    args, origin = typing.get_args(tp), typing.get_origin(tp)
    if tp in LEAVES:
        return (*LEAVES[tp], None)
    if isinstance(tp, types.UnionType):  # X | None
        what, test, build = _spec(next(arg for arg in args if arg is not type(None)))
        return (f"{what} or null", lambda value: value is None or test(value),
                build and (lambda value: None if value is None else build(value)))
    if origin in (list, tuple):
        if fixed := origin is tuple and args[-1] is not Ellipsis:  # one item per argument
            specs, what = [_spec(arg) for arg in args], f"a list of {len(args)} items"
        else:
            specs, what = itertools.repeat(_spec(args[0])), "a list"

        def items(value):
            built = []
            for i, ((what, test, build), item) in enumerate(zip(specs, value)):
                if not test(item):
                    raise _Mismatch("{} must be " + what, i)
                built.append(item if build is None else _built(i, build, item))
            return built if origin is list else tuple(built)
        return (what, lambda value: isinstance(value, (list, tuple))
                and (not fixed or len(value) == len(args)), items)
    if is_dataclass(tp):
        return (*LEAVES[dict], functools.partial(_build, tp, *_plan(tp)))
    if issubclass(tp, Enum):  # a member, from its value
        values = [member.value for member in tp]
        return ("one of " + ", ".join(map(repr, values)),
                lambda value: isinstance(value, str) and value in values, tp)
    raise TypeError(f"no JSON form for the annotation {tp!r}")
