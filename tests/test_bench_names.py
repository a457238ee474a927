"""The benchmark's per-layer metrics read the span aggregates of gridloc's
public functions by name, and its workloads call some of them as
gridloc.<module>.<name>. A refactor that renames, privatizes or removes
one of those functions makes the benchmark fail with a KeyError or an
AttributeError; these checks catch that without running the benchmark."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"
WORKLOADS_PY = RUN_PY.with_name("workloads.py")
AGGREGATES = {"calls", "self_s", "total_s"}


def _string(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def traced_names() -> set[str]:
    """Every "module.function" that bench/run.py reads from calls, self_s
    or total_s: subscripts by a string, and the strings a comprehension
    over a tuple feeds to such a subscript."""
    names = set()
    for node in ast.walk(ast.parse(RUN_PY.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in AGGREGATES):
            key = _string(node.slice)
            if key is not None:
                names.add(key)
        elif isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Tuple):
            names.update(s for s in map(_string, node.iter.elts) if s is not None)
    return names


def attribute_names() -> set[str]:
    """Every "module.name" that bench/run.py or bench/workloads.py reads as
    gridloc.<module>.<name>, in its code or in a string of code it hands
    to a child process."""
    names = set()
    for path in (RUN_PY, WORKLOADS_PY):
        trees = [ast.parse(path.read_text(encoding="utf-8"))]
        for node in ast.walk(trees[0]):
            text = _string(node)
            if text is not None and "gridloc." in text:
                try:
                    trees.append(ast.parse(text))
                except SyntaxError:
                    pass  # prose, not code
        for tree in trees:
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Attribute)
                        and isinstance(node.value.value, ast.Name)
                        and node.value.value.id == "gridloc"):
                    names.add(f"{node.value.attr}.{node.attr}")
    return names


def assert_public_functions(names: set[str]) -> None:
    for name in sorted(names):
        module_name, _, func_name = name.partition(".")
        module = importlib.import_module(f"gridloc.{module_name}")
        fn = getattr(module, func_name, None)
        assert inspect.isfunction(fn) and not func_name.startswith("_"), name
        assert fn.__module__ == module.__name__, name


def test_bench_lookups_are_public_functions():
    names = traced_names()
    assert {"sim.run_baseline", "channel.sample_rss",
            "harness.error_surface"} <= names
    assert_public_functions(names)


def test_bench_attribute_reads_are_public_functions():
    names = attribute_names()
    assert {"sim.load_scenario", "sim.scenario_from_dict",
            "sim.run_scenario"} <= names
    assert_public_functions(names)
