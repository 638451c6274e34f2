"""Runtime latch-order cycle detector (lockdep for §4's protocol).

The paper's btree does *no* latch deadlock detection: freedom is
guaranteed by the callers' ordering discipline (parent→child,
leaf→next-leaf, release-low-before-latch-high during SMO propagation,
and the tree latch above all pages).  This module turns every test run
into a proof of that discipline.

An opt-in :class:`LatchOrderMonitor` is installed with
:func:`repro.storage.latch.set_latch_monitor`.  Each unconditional,
non-re-entrant acquisition made while this thread already holds other
latches adds ``held → acquired`` edges to a shared graph.
Conditional and instant acquisitions, and re-entrant grants, are
recorded too — but as *non-blocking* edges, because a request that
cannot wait (or that is granted against the thread's own hold) can
never participate in a deadlock.  A cycle over the **blocking** edges
is exactly a latch ordering that could deadlock under the right
interleaving, even if this particular run got lucky.

The torture harness enables assertion mode, calling
:meth:`LatchOrderMonitor.assert_acyclic` after every round.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class LatchEdge:
    """One observed ordering: ``src`` was held while ``dst`` was requested."""

    src: object
    dst: object
    blocking: bool
    kind: str  # "wait" | "conditional" | "instant" | "reentrant"


class LatchOrderViolation(AssertionError):
    """A cycle over blocking edges: a potential latch deadlock."""

    def __init__(self, cycle: list[object], edges: list[LatchEdge]) -> None:
        self.cycle = cycle
        self.edges = edges
        pretty = " -> ".join(repr(n) for n in cycle)
        detail = "; ".join(
            f"{e.src!r}->{e.dst!r}[{e.kind}]" for e in edges
        )
        super().__init__(
            f"latch-order cycle (potential deadlock): {pretty} "
            f"(edges: {detail})"
        )


@dataclass
class _ThreadHolds:
    """Per-thread multiset of held latch names (order of first acquisition).

    ``owner`` is the live :class:`threading.Thread` object, not just its
    ident: a thread that dies while holding latches (legal across a
    simulated crash — its unwind path cannot release against a replaced
    latch table) leaves its holds behind, and CPython reuses the ident.
    Attributing those stale holds to the reusing thread would fabricate
    ordering edges, so the monitor discards a held-set whose owner is
    not the current thread object."""

    owner: object = None
    counts: dict[object, int] = field(default_factory=dict)
    order: list[object] = field(default_factory=list)

    def note_acquire(self, name: object) -> bool:
        """Record a grant; True if this is a fresh (0→1) hold."""
        n = self.counts.get(name, 0)
        self.counts[name] = n + 1
        if n == 0:
            self.order.append(name)
            return True
        return False

    def note_release(self, name: object) -> None:
        n = self.counts.get(name, 0)
        if n <= 1:
            self.counts.pop(name, None)
            if name in self.order:
                self.order.remove(name)
        else:
            self.counts[name] = n - 1


class LatchOrderMonitor:
    """Records the acquired-while-held graph across all threads.

    Thread-safe; one instance is meant to observe one
    :class:`~repro.db.Database` lifetime — crash/restart included,
    since orderings must hold across incarnations too.  Do *not* merge
    graphs across databases: page-id latch names are only unique
    within one database, so cross-database edges fabricate orderings
    (and potentially false cycles) between unrelated latches.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._holds: dict[int, _ThreadHolds] = {}
        # (src, dst) -> merged edge info; blocking wins over non-blocking.
        self._edges: dict[tuple[object, object], LatchEdge] = {}
        self.acquisitions = 0

    # -- hook interface (called by repro.storage.latch) ---------------------

    def note_acquire(
        self,
        name: object,
        mode: str,
        *,
        conditional: bool,
        reentrant: bool,
        instant: bool,
    ) -> None:
        """Called after a grant, while the caller owns the latch."""
        tid = threading.get_ident()
        me = threading.current_thread()
        with self._mutex:
            self.acquisitions += 1
            holds = self._holds.get(tid)
            if holds is None or holds.owner is not me:
                # Fresh thread, or the ident was reused after a thread
                # died holding latches: start a clean held-set (a dead
                # thread's holds cannot participate in a deadlock).
                holds = _ThreadHolds(owner=me)
                self._holds[tid] = holds
            held_before = [n for n in holds.order if n != name]
            fresh = holds.note_acquire(name)
            if reentrant or not fresh:
                kind = "reentrant"
            elif instant:
                kind = "instant"
            elif conditional:
                kind = "conditional"
            else:
                kind = "wait"
            blocking = kind == "wait"
            for held in held_before:
                key = (held, name)
                prior = self._edges.get(key)
                if prior is None or (blocking and not prior.blocking):
                    self._edges[key] = LatchEdge(held, name, blocking, kind)

    def note_release(self, name: object) -> None:
        tid = threading.get_ident()
        me = threading.current_thread()
        with self._mutex:
            holds = self._holds.get(tid)
            if holds is not None and holds.owner is me:
                holds.note_release(name)

    def reset_all_held(self) -> None:
        """Forget *every* thread's held-set, keeping the edges.

        Called at crash/restart boundaries: releases for latches held
        at the instant of a simulated crash never arrive (the table is
        replaced wholesale), and stale holds would fabricate ordering
        edges — potentially false cycles — out of unrelated post-crash
        work."""
        with self._mutex:
            self._holds.clear()

    # -- analysis -----------------------------------------------------------

    def edges(self, blocking_only: bool = False) -> list[LatchEdge]:
        with self._mutex:
            out = list(self._edges.values())
        if blocking_only:
            out = [e for e in out if e.blocking]
        return out

    def find_cycle(self) -> list[object] | None:
        """A cycle over blocking edges, or None.  Iterative DFS with
        colouring; returns the node sequence closing the loop."""
        adj: dict[object, list[object]] = {}
        for edge in self.edges(blocking_only=True):
            adj.setdefault(edge.src, []).append(edge.dst)
        WHITE, GREY, BLACK = 0, 1, 2
        colour: dict[object, int] = {}
        for root in list(adj):
            if colour.get(root, WHITE) != WHITE:
                continue
            stack: list[tuple[object, int]] = [(root, 0)]
            path: list[object] = []
            colour[root] = GREY
            path.append(root)
            while stack:
                node, i = stack[-1]
                succs = adj.get(node, [])
                if i < len(succs):
                    stack[-1] = (node, i + 1)
                    nxt = succs[i]
                    state = colour.get(nxt, WHITE)
                    if state == GREY:
                        start = path.index(nxt)
                        return path[start:] + [nxt]
                    if state == WHITE:
                        colour[nxt] = GREY
                        path.append(nxt)
                        stack.append((nxt, 0))
                else:
                    colour[node] = BLACK
                    stack.pop()
                    path.pop()
        return None

    def assert_acyclic(self) -> None:
        """Raise :class:`LatchOrderViolation` if a blocking cycle exists."""
        cycle = self.find_cycle()
        if cycle is not None:
            involved = set(cycle)
            edges = [
                e
                for e in self.edges(blocking_only=True)
                if e.src in involved and e.dst in involved
            ]
            raise LatchOrderViolation(cycle, edges)

    # -- reporting ----------------------------------------------------------

    def to_dict(self) -> dict:
        cycle = self.find_cycle()
        return {
            "acquisitions": self.acquisitions,
            "edges": [
                {
                    "src": repr(e.src),
                    "dst": repr(e.dst),
                    "blocking": e.blocking,
                    "kind": e.kind,
                }
                for e in sorted(
                    self._edges.values(), key=lambda e: (repr(e.src), repr(e.dst))
                )
            ],
            "cycle": [repr(n) for n in cycle] if cycle else None,
        }

    def dump_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
