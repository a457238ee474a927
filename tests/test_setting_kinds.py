"""Every setting's type, generated from the settings dataclasses' fields: a
value of the wrong kind is rejected in a file with the parser's
`<section>.<field>: expected …` and in code with `must be …`, the field
named either way."""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

import pytest

from gridloc.channel import ChannelParams
from gridloc.geometry import _KINDS, GeometryError, GridSpec, Point
from gridloc.sim import (EstimatorSettings, LatticeSweep, ProtocolSettings,
                         Scenario, ScenarioError, scenario_from_dict)

# Each settings dataclass by the section a file names it with; the
# trajectory section is a lattice sweep's.
SECTIONS = {"": Scenario, "grid": GridSpec, "channel": ChannelParams,
            "estimator": EstimatorSettings, "protocol": ProtocolSettings,
            "trajectory": LatticeSweep}

FILE_RULE = {bool: "expected true or false", int: "expected an integer",
             float: "expected a number", Point: "expected [x, y]",
             tuple: "expected [id, id]"}
CODE_RULE = {bool: "must be true or false", int: "must be an integer",
             float: "must be a number", Point: "must be an (x, y) pair of numbers",
             tuple: "must be a pair of integer ids"}

# Wrongly typed values of each kind. A file's lists are read as tuples, so
# a list is a wrong value only in code.
WRONG = {
    bool: ["yes", 1, 0.0],
    int: [True, 2.0, "2", None],
    float: [True, "2.0", None, (1.0,)],
    Point: ["0,0", (0.0, True), (0.0, "1"), (0.0,), (0.0, 1.0, 2.0), 3.0],
    tuple: ["0,1", (0, 1.0), (True, 1), (0,), 0],
}
LISTS = {Point: [[0.0, 1.0]], tuple: [[0, 1]]}


def cases(in_file: bool) -> list:
    out = []
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            if is_dataclass(f.default):
                continue
            kind = type(f.default)
            values = WRONG.get(kind, []) + ([] if in_file else LISTS.get(kind, []))
            path = f"{section}.{f.name}" if section else f.name
            out += [pytest.param(section, f.name, kind, value, id=f"{path}={value!r}")
                    for value in values]
    return out


def document(section: str, name: str, value: object) -> dict:
    # Through JSON, as a file is read: tuples become lists.
    value = json.loads(json.dumps(value))
    doc = {"trajectory": {"kind": "static", "point": [2.0, 2.0]}}
    if section == "":
        doc[name] = value
    elif section == "trajectory":
        doc["trajectory"] = {"kind": "lattice_sweep", name: value}
    else:
        doc[section] = {name: value}
    return doc


@pytest.mark.parametrize("section,name,kind,value", cases(in_file=True))
def test_a_file_rejects_a_wrongly_typed_value(section, name, kind, value):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(document(section, name, value))
    path = f"{section}.{name}" if section else name
    assert (info.value.path, str(info.value)) == (path, f"{path}: {FILE_RULE[kind]}")


@pytest.mark.parametrize("section,name,kind,value", cases(in_file=False))
def test_code_rejects_a_wrongly_typed_value(section, name, kind, value):
    cls = SECTIONS[section]
    rule = CODE_RULE[kind]
    if cls is GridSpec:
        with pytest.raises(GeometryError) as info:
            GridSpec(**{name: value})
        assert (info.value.field, str(info.value)) == (name, f"{name} {rule}")
        return
    if cls is ChannelParams:
        with pytest.raises(ValueError) as info:
            ChannelParams(**{name: value})
        assert str(info.value) == f"{name} {rule}"
        return
    with pytest.raises(ScenarioError) as info:
        if cls is Scenario:
            Scenario(**{name: value})
        else:
            Scenario(**{section: cls(**{name: value})})
    path = f"{section}.{name}" if section else name
    assert (info.value.path, str(info.value)) == (path, f"{path}: {rule}")


@pytest.mark.parametrize("section", list(SECTIONS))
def test_every_setting_has_a_kind(section):
    """A new setting whose default is of no kind, a str say, needs its own
    row in geometry._KINDS and in WRONG; the parser and the constructors
    would otherwise fail on it with a KeyError."""
    for f in fields(SECTIONS[section]):
        if not is_dataclass(f.default):
            kind = type(f.default)
            assert kind in _KINDS and kind in WRONG, f"{section}.{f.name}: {kind.__name__}"
