"""Every setting's type, generated from the settings dataclasses' fields: a
value of the wrong kind is rejected with its kind's one rule, as
`<section>.<field>: <rule>` in a file and as `<field>: <rule>` by the
section built alone in code."""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass

import pytest

from gridloc.geometry import _KINDS, Point, ScenarioError
from gridloc.sim import LatticeSweep, Scenario, scenario_from_dict

# Each settings dataclass by the section a file names it with: the sections
# are Scenario's fields whose default is a dataclass, and the trajectory
# section is a lattice sweep's, the one trajectory with settings keys.
SECTIONS = {"": Scenario, **{f.name: type(f.default) for f in fields(Scenario)
                             if is_dataclass(f.default)}, "trajectory": LatticeSweep}

RULE = {bool: "must be true or false", int: "must be an integer",
        float: "must be a finite number", Point: "must be an (x, y) pair of finite numbers",
        tuple: "must be a pair of integer ids"}

# A JSON integer too large for a float.
HUGE = 10**400

# Wrongly typed values of each kind. A file's lists are read as tuples, so
# a list is a wrong value only in code.
WRONG = {
    bool: ["yes", 1, 0.0],
    int: [True, 2.0, "2", None],
    float: [True, "2.0", None, (1.0,), math.nan, math.inf, -math.inf, HUGE],
    Point: ["0,0", (0.0, True), (0.0, "1"), (0.0,), (0.0, 1.0, 2.0), 3.0,
            (HUGE, 0), (0.0, math.nan)],
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
            out += [pytest.param(section, f.name, kind, value,
                                 id=f"{path}={value!r}".replace(repr(HUGE), "10**400"))
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
    assert (info.value.path, str(info.value)) == (path, f"{path}: {RULE[kind]}")


@pytest.mark.parametrize("section,name,kind,value", cases(in_file=False))
def test_code_rejects_a_wrongly_typed_value(section, name, kind, value):
    with pytest.raises(ScenarioError) as info:
        SECTIONS[section](**{name: value})
    assert (info.value.path, str(info.value)) == (name, f"{name}: {RULE[kind]}")


@pytest.mark.parametrize("section", list(SECTIONS))
def test_every_setting_has_a_kind(section):
    """A new setting whose default is of no kind, a str say, needs its own
    row in geometry._KINDS and in WRONG; the parser and the constructors
    would otherwise fail on it with a KeyError."""
    for f in fields(SECTIONS[section]):
        if not is_dataclass(f.default):
            kind = type(f.default)
            assert kind in _KINDS and kind in WRONG, f"{section}.{f.name}: {kind.__name__}"


# A value that breaks each range rule of a section, by the section and field
# it names.
RANGE = [
    ("", "rounds", 0, "must be >= 1"),
    ("", "rounds", 10**6 + 1, "must be at most 1000000"),
    ("", "seed", -1, "must be >= 0"),
    ("grid", "spacing_m", 0.0, "must be positive"),
    ("grid", "spacing_m", 2e-6, "must be more than 2 * COORD_TOL, 2e-06 m"),
    ("grid", "cols", 1, "lattice needs at least 2 columns and 2 rows"),
    ("grid", "rows", 0, "lattice needs at least 2 columns and 2 rows"),
    ("channel", "a_dbm", -200.5, "must be in [-200, 100]"),
    ("channel", "a_dbm", 1e308, "must be in [-200, 100]"),
    ("channel", "n_exp", 0.0, "must be positive"),
    ("channel", "n_exp", 10.5, "must be at most 10"),
    ("channel", "sigma_dbm", -1.0, "must be >= 0"),
    ("channel", "sigma_dbm", 30.5, "must be at most 30"),
    ("channel", "reception_radius_m", 0.0, "must be positive"),
    ("channel", "reception_radius_m", math.nextafter(1e150, math.inf), "must be at most 1e+150"),
    ("channel", "reception_radius_m", 1e308, "must be at most 1e+150"),
    ("estimator", "n_initial", 0.0, "must be positive"),
    ("estimator", "near_beacon_tau", 1.0, "must be in (0, 1)"),
    ("estimator", "n_min", 7.0, "need 0 < n_min <= n_max"),
    ("protocol", "accum_count", 0, "must be >= 1"),
    ("protocol", "accum_count", 1001, "must be at most 1000"),
    ("protocol", "ack_timeout_ms", 0.0, "must be positive"),
    ("protocol", "response_window_ms", -1.0, "must be positive"),
    ("protocol", "inter_test_gap_ms", -1.0, "must be >= 0"),
    ("protocol", "round_interval_ms", 0.0, "must be positive"),
    ("protocol", "round_interval_ms", 200.0, "must be at least one round, 210 ms"),
    ("trajectory", "nx", 0, "must be >= 1"),
    ("trajectory", "ny", 0, "must be >= 1"),
]


def range_cases() -> list:
    return [pytest.param(*case, id=f"{case[0]}.{case[1]}={case[2]!r}".lstrip("."))
            for case in RANGE]


@pytest.mark.parametrize("section,name,value,rule", range_cases())
def test_a_file_names_the_key_a_range_rule_rejects(section, name, value, rule):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(document(section, name, value))
    path = f"{section}.{name}" if section else name
    assert (info.value.path, str(info.value)) == (path, f"{path}: {rule}")


@pytest.mark.parametrize("section,name,value,rule", range_cases())
def test_code_names_the_field_a_range_rule_rejects(section, name, value, rule):
    with pytest.raises(ScenarioError) as info:
        SECTIONS[section](**{name: value})
    assert (info.value.path, str(info.value)) == (name, f"{name}: {rule}")
