"""Which lines of src/gridloc does no benchmark workload reach?

Run from the root of this checkout:

    python3 tools/workload_lines.py [--seed 42]

It imports gridloc from src/ and runs, at the benchmark's FULL sizes and
the given seed, every operation of the three simulation workloads
(sweep_vs_baseline, wide_lattice and traced_simulate, each a
`gridloc.cli.main` call writing into a temporary directory), then the
localize_replay recording and one replay pass over the recorded calls.
The import is traced too, so a module's definitions count as reached.
Tracing is stdlib sys.settrace, limited to frames of src/gridloc.

It prints, per module, the executable lines that none of those runs
reached, as line ranges, each with the function it is in. A line is
executable when a statement starts there and the compiled module has code
on it. bench/workloads.py is imported read-only, with no bytecode written;
nothing is written under bench/.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import sys
import tempfile
from itertools import groupby
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridloc"


def load_workloads():
    """bench/workloads.py as a module, without adding bench/ to sys.path."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def executable_lines(path: Path) -> dict[int, str]:
    """Each line of the module at path where a statement starts and the
    compiled code has an instruction -> the name of the innermost function
    or class around it, or "<module>"."""
    source = path.read_text(encoding="utf-8")
    coded, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    owner: dict[int, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child.lineno in coded:
                owner.setdefault(child.lineno, name)
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.ClassDef)) else name)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return owner


def traced_run(seed: int) -> set[tuple[str, int]]:
    """(file, line) of every line of src/gridloc that the workloads run."""
    prefix, reached = str(PACKAGE) + "/", set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    wl = load_workloads()
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(start)
    try:
        import gridloc
        import gridloc.cli
        if Path(gridloc.__file__).resolve().parent != PACKAGE.resolve():
            raise SystemExit(f"error: imported gridloc from {gridloc.__file__}")
        with tempfile.TemporaryDirectory() as tmp:
            for name, build in wl.SIM_WORKLOADS.items():
                work = Path(tmp) / name
                work.mkdir()
                for op in build(work, seed, wl.FULL):
                    result, _ = wl.run_op(gridloc.cli, op)
                    if result.problems:
                        raise SystemExit(f"error: {name}: {'; '.join(result.problems)}")
        calls = wl.record_replay(gridloc, seed, wl.FULL)
        localize = gridloc.estimator.localize
        if any(localize(c.reports, c.state, c.config) != c.result for c in calls):
            raise SystemExit("error: a replayed estimate differs from the recorded one")
    finally:
        sys.settrace(None)
    return reached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    reached = traced_run(args.seed)
    for path in sorted(PACKAGE.glob("*.py")):
        owner = executable_lines(path)
        lines = sorted(owner)
        missed = [k for k, n in enumerate(lines) if (str(path), n) not in reached]
        print(f"{path.name}: {len(missed)} of {len(lines)} executable lines not reached")
        # Missed lines with no reached executable line between them, in one
        # function, print as one range.
        runs = groupby(enumerate(missed), key=lambda p: (p[1] - p[0], owner[lines[p[1]]]))
        for (_, name), group in runs:
            first, *rest = [lines[k] for _, k in group]
            print(f"  {first}{f'-{rest[-1]}' if rest else ''} ({name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
