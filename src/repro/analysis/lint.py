"""Repo-specific AST lint: the latch/WAL protocol rules as code.

Every rule has a stable id and can be suppressed per line with a
reason::

    latch.acquire("X")  # noqa: RPR001 -- held across calls, released by smo_end

A suppression *without* a reason is itself reported (RPR000): the
acceptance bar is "no unexplained suppressions".

Rules
-----

- **RPR001** — every ``Latch.acquire`` / ``buffer.fix`` (and
  ``fix_new`` / ``latch_page``) must be paired with a ``release`` /
  ``unfix`` / ``unlatch_page`` reachable on *all* paths: the acquire
  must sit in (or be lexically followed in its block by) a
  ``try/finally`` whose ``finally`` releases, or inside a ``with``
  context expression.  Ownership transfers (a helper that returns
  holding) are exactly what the reasoned suppressions document.
- **RPR002** — no blocking call inside a statically-latched region (the
  body of a ``try`` whose ``finally`` releases a latch): log forces,
  page flushes, socket sends/receives, ``time.sleep``, thread joins,
  and condition waits without a timeout.  Latches are held for
  instructions, not I/O (§2.1).
- **RPR003** — a page record is logged only through
  ``log_page_change``, which links it to the page's PageLSN, stamps
  the page and marks it dirty — the page-state-comparison invariant
  redo depends on (§1.2) and the per-page log chain restart walks.  A
  ``log_for`` call on a record built by ``update_record`` /
  ``clr_record`` is flagged, and so is a function that mutates page
  payload and logs through ``log_for`` without calling the helper.
- **RPR004** — lock-manager ``request`` calls must use the
  :mod:`repro.locks.modes` constants, never string literals (latches
  use strings by design; locks never do).
- **RPR005** — no bare or broad ``except`` that swallows (does not
  re-raise): a handler wide enough to catch ``LatchError`` or
  ``CommitNotDurableError`` must either re-raise or carry a reasoned
  suppression.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

RULES = {
    "RPR000": "noqa suppression without a reason string",
    "RPR001": "acquire/fix without release/unfix on all paths",
    "RPR002": "blocking call inside a latched region",
    "RPR003": "page record logged without log_page_change",
    "RPR004": "lock request with a string-literal mode/duration",
    "RPR005": "bare/broad except swallowing latch or durability errors",
}

ACQUIRE_METHODS = {"acquire", "fix", "fix_new", "latch_page"}
RELEASE_METHODS = {"release", "unfix", "unlatch_page"}
LATCH_RELEASE_METHODS = {"release", "unlatch_page"}
#: Calls that synchronously block (or do I/O) — forbidden under a latch.
BLOCKING_METHODS = {
    "force",
    "force_for_commit",
    "wait_for_flush",
    "flush_page",
    "flush_all",
    "sleep",
    "join",
    "recv",
    "send",
    "sendall",
    "accept",
    "connect",
}
#: Page-payload mutators (heap and index pages).
MUTATOR_METHODS = {
    "append_record",
    "place_record",
    "set_ghost",
    "remove_record",
    "free_slot",
    "reformat",
    "insert_key",
    "remove_key",
    "insert_split_entry",
    "remove_child",
    "load_payload",
    "replace_entries",
    "truncate",
}
#: The one call that logs a page record (``Database.log_page_change``).
PAGE_LOG_HELPER = "log_page_change"
#: The constructors of page records.
PAGE_RECORD_FACTORIES = {"update_record", "clr_record"}
BROAD_EXCEPTIONS = {"Exception", "BaseException"}
GUARDED_EXCEPTIONS = {"LatchError", "CommitNotDurableError"}

_NOQA_RE = re.compile(
    r"#\s*noqa:\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
    r"(?P<rest>[^\n]*)"
)


@dataclass(frozen=True)
class LintViolation:
    """One finding: ``path:line: rule message``."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class _Suppression:
    codes: set[str]
    has_reason: bool
    used: bool = False


def _parse_suppressions(source: str) -> dict[int, _Suppression]:
    """Per physical line: the RPR codes suppressed there (codes of
    other linters, e.g. ruff's BLE001, ride along and are ignored)."""
    out: dict[int, _Suppression] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = {c.strip() for c in match.group("codes").split(",")}
        rpr = {c for c in codes if c.startswith("RPR")}
        if not rpr:
            continue
        rest = match.group("rest").strip()
        has_reason = bool(re.match(r"^-{1,2}\s*\S", rest))
        out[lineno] = _Suppression(codes=rpr, has_reason=has_reason)
    return out


def _is_page_record(node: ast.expr | None) -> bool:
    """Whether ``node`` calls a page record constructor."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in PAGE_RECORD_FACTORIES
    )


class _FileLinter:
    """Lints one parsed module."""

    def __init__(self, path: str, tree: ast.Module, source: str) -> None:
        self.path = path
        self.tree = tree
        self.suppressions = _parse_suppressions(source)
        self.violations: list[LintViolation] = []
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node

    # -- helpers -----------------------------------------------------------

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        suppression = self.suppressions.get(line)
        if suppression is not None and rule in suppression.codes:
            suppression.used = True
            return
        self.violations.append(LintViolation(rule, self.path, line, message))

    def _statement_of(self, node: ast.AST) -> ast.stmt:
        """The innermost statement containing ``node``."""
        current = node
        while not isinstance(current, ast.stmt):
            current = self.parents[current]
        return current

    def _block_of(self, stmt: ast.stmt) -> list[ast.stmt] | None:
        """The statement list that directly contains ``stmt``."""
        parent = self.parents.get(stmt)
        if parent is None:
            return None
        for name in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(parent, name, None)
            if isinstance(block, list) and stmt in block:
                return block
        # Statements inside an ExceptHandler live in its body.
        if isinstance(parent, ast.ExceptHandler) and stmt in parent.body:
            return parent.body
        return None

    @staticmethod
    def _contains_release(nodes: Iterable[ast.stmt], names: set[str]) -> bool:
        for stmt in nodes:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in names
                ):
                    return True
        return False

    # -- RPR001 ------------------------------------------------------------

    def check_acquire_pairing(self) -> None:
        for node in ast.walk(self.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ACQUIRE_METHODS
            ):
                continue
            if self._acquire_is_paired(node):
                continue
            self.report(
                "RPR001",
                node,
                f"{node.func.attr}() has no release/unfix on all paths "
                "(use try/finally or a context manager)",
            )

    def _acquire_is_paired(self, call: ast.Call) -> bool:
        # Inside a `with` item's context expression: the manager pairs.
        node: ast.AST = call
        while node in self.parents:
            parent = self.parents[node]
            if isinstance(parent, (ast.With, ast.AsyncWith)) and any(
                item is node
                or item.context_expr is node
                or node in ast.walk(item.context_expr)
                for item in parent.items
            ):
                return True
            if isinstance(parent, ast.stmt):
                break
            node = parent
        stmt = self._statement_of(call)
        # Walk outward: satisfied by an enclosing try whose finally
        # releases, or by a later sibling try-with-release in any
        # enclosing block (the `acquire(); try: ... finally: release()`
        # idiom, including acquire inside a retry loop).
        current: ast.AST = stmt
        while True:
            parent = self.parents.get(current)
            if parent is None or isinstance(
                parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
            ):
                block = getattr(parent, "body", None)
                if block is not None and self._later_try_releases(
                    current, block
                ):
                    return True
                return False
            if (
                isinstance(parent, ast.Try)
                and current in parent.body
                and self._contains_release(parent.finalbody, RELEASE_METHODS)
            ):
                return True
            if isinstance(current, ast.stmt):
                block = self._block_of(current)
                if block is not None and self._later_try_releases(
                    current, block
                ):
                    return True
            current = parent

    def _later_try_releases(
        self, stmt: ast.AST, block: list[ast.stmt]
    ) -> bool:
        if stmt not in block:
            return False
        index = block.index(stmt)  # type: ignore[arg-type]
        for later in block[index + 1 :]:
            if isinstance(later, ast.Try) and self._contains_release(
                later.finalbody, RELEASE_METHODS
            ):
                return True
        return False

    # -- RPR002 ------------------------------------------------------------

    def check_blocking_under_latch(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Try):
                continue
            if not self._contains_release(
                node.finalbody, LATCH_RELEASE_METHODS
            ):
                continue
            for call in self._calls_in(node.body):
                blocking = self._blocking_reason(call)
                if blocking:
                    self.report(
                        "RPR002",
                        call,
                        f"{blocking} inside a latched region "
                        "(latches are held for instructions, not I/O)",
                    )

    @staticmethod
    def _calls_in(stmts: list[ast.stmt]) -> Iterable[ast.Call]:
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    break
                if isinstance(node, ast.Call):
                    yield node

    @staticmethod
    def _blocking_reason(call: ast.Call) -> str | None:
        if not isinstance(call.func, ast.Attribute):
            return None
        attr = call.func.attr
        if attr in BLOCKING_METHODS:
            return f"blocking call {attr}()"
        if attr in ("wait", "wait_for"):
            has_timeout = any(k.arg == "timeout" for k in call.keywords)
            limit = 1 if attr == "wait" else 2
            if len(call.args) >= limit:
                has_timeout = True
            if not has_timeout:
                return f"untimed {attr}()"
        return None

    # -- RPR003 ------------------------------------------------------------

    def check_page_logging(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == PAGE_LOG_HELPER:
                continue
            page_records: set[str] = set()
            log_for_calls: list[ast.Call] = []
            mutates: str | None = None
            helper = False
            for child in ast.walk(node):
                if isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Attribute
                ):
                    attr = child.func.attr
                    if attr == "log_for":
                        log_for_calls.append(child)
                    elif attr == PAGE_LOG_HELPER:
                        helper = True
                    elif attr in MUTATOR_METHODS:
                        mutates = mutates or f"{attr}()"
                elif isinstance(child, ast.Assign):
                    if _is_page_record(child.value):
                        page_records.update(
                            t.id for t in child.targets if isinstance(t, ast.Name)
                        )
                    for target in child.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Attribute)
                            and target.value.attr == "slots"
                        ):
                            mutates = mutates or "slots[...] assignment"
            for call in log_for_calls:
                record = call.args[1] if len(call.args) > 1 else None
                if _is_page_record(record) or getattr(record, "id", 0) in page_records:
                    self.report(
                        "RPR003",
                        call,
                        f"{node.name}() logs a page record through log_for(); "
                        f"use {PAGE_LOG_HELPER}()",
                    )
            if log_for_calls and mutates and not helper:
                self.report(
                    "RPR003",
                    node,
                    f"{node.name}() logs and mutates pages ({mutates}) "
                    f"without {PAGE_LOG_HELPER}()",
                )

    # -- RPR004 ------------------------------------------------------------

    def check_lock_mode_constants(self) -> None:
        for node in ast.walk(self.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "request"
            ):
                continue
            receiver = node.func.value
            is_lock_manager = (
                isinstance(receiver, ast.Attribute) and receiver.attr == "locks"
            ) or (isinstance(receiver, ast.Name) and receiver.id == "locks")
            if not is_lock_manager:
                continue
            literal_args = [
                arg
                for arg in list(node.args[2:])
                + [k.value for k in node.keywords if k.arg in ("mode", "duration")]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ]
            for arg in literal_args:
                self.report(
                    "RPR004",
                    arg,
                    f"lock request with string literal {arg.value!r} "
                    "(use locks.modes constants)",
                )

    # -- RPR005 ------------------------------------------------------------

    def check_broad_except(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._broad_label(node.type)
            if label is None:
                continue
            if any(
                isinstance(sub, ast.Raise)
                for stmt in node.body
                for sub in ast.walk(stmt)
            ):
                continue
            self.report(
                "RPR005",
                node,
                f"{label} swallows LatchError/CommitNotDurableError "
                "(re-raise, narrow the type, or document why)",
            )

    @staticmethod
    def _broad_label(type_node: ast.expr | None) -> str | None:
        def name_of(node: ast.expr) -> str | None:
            if isinstance(node, ast.Name):
                return node.id
            if isinstance(node, ast.Attribute):
                return node.attr
            return None

        if type_node is None:
            return "bare except"
        names = []
        if isinstance(type_node, ast.Tuple):
            names = [name_of(e) for e in type_node.elts]
        else:
            names = [name_of(type_node)]
        for name in names:
            if name in BROAD_EXCEPTIONS:
                return f"except {name}"
            if name in GUARDED_EXCEPTIONS:
                return f"except {name}"
        return None

    # -- driver ------------------------------------------------------------

    def run(self) -> list[LintViolation]:
        self.check_acquire_pairing()
        self.check_blocking_under_latch()
        self.check_page_logging()
        self.check_lock_mode_constants()
        self.check_broad_except()
        for line, suppression in self.suppressions.items():
            if suppression.used and not suppression.has_reason:
                self.violations.append(
                    LintViolation(
                        "RPR000",
                        self.path,
                        line,
                        "suppression without a reason "
                        "(write `# noqa: RPR00x -- why`)",
                    )
                )
        self.violations.sort(key=lambda v: (v.path, v.line, v.rule))
        return self.violations


@dataclass
class LintReport:
    """All findings over a set of paths."""

    violations: list[LintViolation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = [v.format() for v in self.violations]
        lines.append(
            f"{len(self.violations)} finding(s) in "
            f"{self.files_checked} file(s)"
        )
        return "\n".join(lines)


def _python_files(paths: Iterable[str | Path]) -> list[Path]:
    out: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    return out


def run_lint(paths: Iterable[str | Path]) -> LintReport:
    """Lint every ``.py`` file under ``paths``; returns the report."""
    report = LintReport()
    for path in _python_files(paths):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            report.violations.append(
                LintViolation(
                    "RPR000", str(path), exc.lineno or 0, f"syntax error: {exc.msg}"
                )
            )
            continue
        report.files_checked += 1
        report.violations.extend(_FileLinter(str(path), tree, source).run())
    return report


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python -m repro.analysis lint <paths...>")
        return 2
    report = run_lint(argv)
    print(report.format())
    return 0 if report.ok else 1
