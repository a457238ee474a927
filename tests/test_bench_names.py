"""The benchmark's per-layer metrics read the span aggregates of gridloc's
public functions by name. A refactor that renames, privatizes or removes
one of those functions makes the traced benchmark fail with a KeyError;
this check catches that without running the benchmark."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"
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


def test_bench_lookups_are_public_functions():
    names = traced_names()
    assert {"sim.run_baseline", "channel.sample_rss",
            "harness.error_surface"} <= names
    for name in sorted(names):
        module_name, _, func_name = name.partition(".")
        module = importlib.import_module(f"gridloc.{module_name}")
        fn = getattr(module, func_name, None)
        assert inspect.isfunction(fn) and not func_name.startswith("_"), name
        assert fn.__module__ == module.__name__, name
