"""Function reach census: which functions under ``src/repro`` a run calls.

``python -m repro.analysis reach run HITS MODULE [ARGS...]`` runs
``python -m MODULE ARGS...`` (or the script MODULE, if it ends in
``.py``) with a call hook on every thread and adds the functions it
entered to the JSON file HITS; runs add up.  ``reach report HITS``
prints every function defined under ``repro`` that no run called.

The hook is a global ``sys.settrace`` function that returns ``None``: it
sees each call and traces no lines.  A run that resets the trace
function hides the calls after it (pytest-benchmark, unless given
``--benchmark-disable``); subprocesses and a run that re-executes itself
(``python -m bench`` unless ``PYTHONHASHSEED=0``) record nothing.
docs/reach.md has the run set and a verdict per function.
"""

from __future__ import annotations

import ast
import json
import runpy
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1]


def defined_functions() -> dict[str, str]:
    """``"path:first line" -> qualified name`` of every ``def`` under the
    package; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found: dict[str, str] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[f"{path}:{first}"] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                name = child.name if isinstance(child, ast.ClassDef) else None
                visit(child, path, f"{prefix}{name}." if name else prefix)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE.parent).as_posix()
        visit(ast.parse(file.read_text()), path, "")
    return found


def run(hits_file: str, argv: list[str]) -> int:
    codes: set = set()

    def hook(frame, event, arg):
        codes.add(frame.f_code)

    # Unload the engine that ``python -m repro.analysis`` imported, so
    # the run imports it again under the hook and import-time calls count.
    for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[name]
    threading.settrace(hook)
    sys.settrace(hook)
    sys.argv = argv
    try:
        if argv[0].endswith(".py"):
            runpy.run_path(argv[0], run_name="__main__")
        else:
            runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
        status = 0
    except SystemExit as exit_:
        status = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    hits = Path(hits_file)
    seen = set(json.loads(hits.read_text())) if hits.exists() else set()
    for code in codes:
        file = Path(code.co_filename).resolve()
        if file.is_relative_to(PACKAGE):
            seen.add(f"{file.relative_to(PACKAGE.parent).as_posix()}:{code.co_firstlineno}")
    hits.write_text(json.dumps(sorted(seen), indent=0) + "\n")
    return status


def report(hits_file: str) -> int:
    seen = set(json.loads(Path(hits_file).read_text()))
    functions = defined_functions()
    unreached = [f"{at} {name}" for at, name in functions.items() if at not in seen]
    print(*unreached, f"{len(unreached)} of {len(functions)} functions unreached", sep="\n")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "run":
        return run(argv[1], argv[2:])
    if len(argv) == 2 and argv[0] == "report":
        return report(argv[1])
    print("usage: python -m repro.analysis reach {run HITS MODULE [ARGS...] | report HITS}")
    return 2
