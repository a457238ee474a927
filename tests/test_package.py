"""The package's public names."""

import ast
from collections import defaultdict
from pathlib import Path

import gridloc
from test_bench_names import attribute_names, traced_names

SRC = Path(gridloc.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def test_every_export_resolves():
    assert [name for name in gridloc.__all__ if not hasattr(gridloc, name)] == []
    assert len(set(gridloc.__all__)) == len(gridloc.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gridloc import *", namespace)
    assert set(gridloc.__all__) <= namespace.keys()


def _public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each public function or class at module level, and
    (Class.method, node) of each public method of a public class."""
    out = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{node.name}.{item.name}", item) for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def _acceptance_imports() -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gridloc")
            for alias in node.names}


def _modules() -> dict[str, ast.Module]:
    """The parsed modules of src/gridloc, by name, but for __init__."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _references(trees, names: bool = True) -> defaultdict:
    """Each name read in the modules, as an attribute or, with names, as a
    bare name -> the ids of the nodes that read it."""
    references = defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and names:
                references[node.id].add(id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                references[node.attr].add(id(node))
    return references


def test_every_public_definition_has_a_reader():
    """A public function, class or method of a module is referenced in
    src/gridloc outside its own definition (not counting __init__), read
    by the benchmark, or imported by the acceptance checks. A method is
    referenced only as an attribute: a local variable of its name is not
    a read of it."""
    trees = _modules()
    references, attributes = _references(trees), _references(trees, names=False)
    benchmark_reads = traced_names() | attribute_names()
    accepted = _acceptance_imports()
    unread = []
    for module, tree in trees.items():
        for name, definition in _public_definitions(tree):
            owner, _, attr = name.rpartition(".")
            reads = (attributes if owner else references)[attr]
            outside = reads - set(map(id, ast.walk(definition)))
            if not (outside or f"{module}.{name}" in benchmark_reads or name in accepted):
                unread.append(f"{module}.{name}")
    assert unread == []


def test_every_private_definition_has_a_reader():
    """A private function or class at module level is referenced in
    src/gridloc outside its own definition (not counting __init__), so a
    helper that only tests call leaves src/ with its last caller there."""
    trees = _modules()
    references = _references(trees)
    unread = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_")
              and not references[node.name] - set(map(id, ast.walk(node)))]
    assert unread == []


def test_every_import_is_read():
    """Each name a module of src/gridloc imports, but for __init__ and from
    __future__, is read in that module."""
    unread = []
    for module, tree in _modules().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                unread += [f"{module}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.partition(".")[0]) not in read]
    assert unread == []
