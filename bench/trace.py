"""Span tracing installed from the benchmark's side only.

``Tracer.install()`` rebinds the public entry points of each engine
layer (``TARGETS``) with a wrapper that records a span: name, layer,
start, end, the span that caused it, and the id of the benchmark
operation it belongs to.  Spans live on a per-thread stack, so a
span's *self time* is its duration minus the part its child spans
cover; per-function sums are aggregated online and full span trees are
kept only while a sampled operation is in flight.  ``uninstall()``
restores every attribute, so the untraced run executes no benchmark
frame inside the engine.  In-program spans are a later change
(ROADMAP item 5).

The cost of the wrappers themselves lands in the *parent's* self time
(the child's clock starts after the wrapper is entered), so layers
that make many cheap wrapped calls look busier than they are;
``trace.overhead_ratio`` says by how much the whole run was slowed.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
from array import array
from dataclasses import astuple, dataclass
from time import perf_counter_ns
from typing import Callable, Iterable

LAYERS = (
    "client",
    "codec",
    "server",
    "txn",
    "locks",
    "latch",
    "buffer",
    "disk",
    "btree",
    "data",
    "wal",
    "recovery",
)
#: Layer of the benchmark's own per-operation root spans: their self
#: time is what no engine layer accounts for (``trace.unattributed_share``).
BENCH = "bench"

#: (layer, module, owning class or None, attributes).  Layer names are
#: the engine's module names.
TARGETS = (
    ("wal", "repro.wal.log", "LogManager", ("append", "force", "force_for_commit")),
    ("locks", "repro.locks.manager", "LockManager", ("request", "release", "release_all")),
    ("latch", "repro.storage.latch", "Latch", ("acquire", "release")),
    ("buffer", "repro.storage.buffer", "BufferPool", ("fix", "fix_new", "unfix", "flush_page")),
    ("disk", "repro.storage.disk", "DiskManager", ("read", "write")),
    ("btree", "repro.btree.tree", "BTree", ("traverse",)),
    ("btree", "repro.btree.fetch", None, ("index_fetch", "index_fetch_next")),
    ("btree", "repro.btree.insert", None, ("index_insert",)),
    ("btree", "repro.btree.delete", None, ("index_delete",)),
    ("data", "repro.data.table", "Table", ("insert", "delete", "fetch_by_key", "scan")),
    ("data", "repro.data.heap", "HeapFile", ("insert", "delete", "fetch")),
    (
        "txn",
        "repro.txn.manager",
        "TransactionManager",
        ("begin", "commit", "commit_deferred", "finish_deferred", "rollback"),
    ),
    ("codec", "repro.codec.values", None, ("encode_value", "decode_value")),
    ("codec", "repro.codec.frames", None, ("encode_frame", "try_parse_frame")),
    ("server", "repro.server.server", "DatabaseServer", ("submit", "submit_batch")),
    ("server", "repro.server.session", "Session", ("execute", "execute_batch")),
    ("client", "repro.server.client", "DatabaseClient", ("request",)),
    ("client", "repro.server.client", "Pipeline", ("flush",)),
    ("recovery", "repro.recovery.analysis", None, ("run_analysis",)),
    ("recovery", "repro.recovery.media", None, ("run_scrub",)),
    ("recovery", "repro.recovery.redo", None, ("run_redo",)),
    ("recovery", "repro.recovery.undo", None, ("run_undo",)),
    ("recovery", "repro.recovery.checkpoint", None, ("take_checkpoint",)),
    ("recovery", "repro.recovery.instant", None, ("run_instant_restart",)),
)

#: Functions whose every duration is kept, for percentiles.
KEEP_DURATIONS = ("LockManager.request", "Latch.acquire")

#: Most spans kept for the sampled trees (a bound on memory, not a rate).
MAX_SAMPLED_SPANS = 200_000


@dataclass(frozen=True)
class Totals:
    """Sums for one wrapped function over every thread."""

    calls: int = 0
    total_ns: int = 0
    """Inclusive time (children counted)."""
    self_ns: int = 0
    root_ns: int = 0
    """Inclusive time of the calls that had no parent span."""
    payload_bytes: int = 0

    def __add__(self, other: "Totals") -> "Totals":
        return Totals(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def __sub__(self, other: "Totals") -> "Totals":
        return Totals(*(a - b for a, b in zip(astuple(self), astuple(other))))


class _ThreadState:
    """One thread's span stack and sums (indexed by function number)."""

    def __init__(self, name: str, width: int, keep: Iterable[int]) -> None:
        self.name = name
        #: Open spans, innermost last: [child_ns, start_ns, span id].
        self.stack: list[list[int]] = []
        self.calls = [0] * width
        self.total = [0] * width
        self.self_ns = [0] * width
        self.root = [0] * width
        self.payload = [0] * width
        self.durations: list[array | None] = [None] * width
        for index in keep:
            self.durations[index] = array("q")
        #: Closed spans of sampled operations:
        #: (span id, parent id, function, start_ns, end_ns, op id).
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.next_span_id = 1
        self.op = 0
        self.incr_calls = 0


def span_self_times(spans: Iterable[tuple[int, int, int, int]]) -> dict[int, int]:
    """Self time of each span of a finished trace.

    ``spans`` holds (span id, parent id or 0, start, end); a span's self
    time is its duration minus the durations of its direct children.
    This is the offline statement of what the wrappers compute online,
    kept separate so the arithmetic can be tested on a hand-built trace.
    """
    spans = list(spans)
    out = {sid: end - start for sid, _, start, end in spans}
    for sid, parent, start, end in spans:
        if parent in out:
            out[parent] -= end - start
    return out


class Tracer:
    """Installs, aggregates and removes the span wrappers."""

    def __init__(self, sample_every: int = 0) -> None:
        self.sample_every = sample_every
        #: > 0 while a sampled operation is in flight on any thread, so
        #: server-side threads record the spans it causes too.
        self.sampling = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._names: list[str] = []
        self._layers: list[str] = []
        self._index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._op_ids = itertools.count(1)

    # -- registry ----------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        if name in self._index:
            return self._index[name]
        if self._states:
            raise RuntimeError("register every span name before the first span")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._layers.append(layer)
        return self._index[name]

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            keep = [self._index[n] for n in KEEP_DURATIONS if n in self._index]
            state = _ThreadState(
                threading.current_thread().name, len(self._names), keep
            )
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, state: _ThreadState) -> list[int]:
        frame = [0, 0, 0]
        if self.sampling:
            frame[2] = state.next_span_id
            state.next_span_id += 1
        state.stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _exit(
        self, state: _ThreadState, frame: list[int], index: int, calls: int = 1
    ) -> None:
        end = perf_counter_ns()
        stack = state.stack
        stack.pop()
        duration = end - frame[1]
        state.calls[index] += calls
        state.total[index] += duration
        state.self_ns[index] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        else:
            state.root[index] += duration
        kept = state.durations[index]
        if kept is not None:
            kept.append(duration)
        if frame[2] and len(state.spans) < MAX_SAMPLED_SPANS:
            parent = stack[-1][2] if stack else 0
            state.spans.append((frame[2], parent, index, frame[1], end, state.op))

    def _wrap(
        self,
        fn: Callable,
        index: int,
        pick: Callable[[tuple], int] | None = None,
        meter: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """``pick`` chooses the function number from the arguments
        (buffer fix: hit or miss); ``meter`` reads a byte count off the
        arguments and result (codec)."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, index)
        get_state, enter, exit_ = self._state, self._enter, self._exit

        def wrapper(*args, **kwargs):
            state = get_state()
            which = index if pick is None else pick(args)
            frame = enter(state)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(state, frame, which)
            if meter is not None:
                state.payload[which] += meter(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn: Callable, index: int) -> Callable:
        """A generator does its work while it is iterated, in the
        caller's frame: span each resumption, count the call once."""
        get_state, enter, exit_ = self._state, self._enter, self._exit

        def drive(inner):
            try:
                while True:
                    state = get_state()
                    frame = enter(state)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        exit_(state, frame, index, calls=0)
                    yield item
            finally:
                inner.close()

        def wrapper(*args, **kwargs):
            get_state().calls[index] += 1
            return drive(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Rebind every target.  Module-level functions are also rebound
        in each loaded ``repro`` module that did ``from x import f``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(m) for _, m, _, _ in TARGETS}
        importlib.import_module("repro.db")
        for layer, modname, owner, attrs in TARGETS:
            module = modules[modname]
            for attr in attrs:
                name = f"{owner}.{attr}" if owner else attr
                if name == "BufferPool.fix":
                    self._install_fix(module.BufferPool, layer)
                    continue
                index = self._register(name, layer)
                meter = _METERS.get(name)
                if owner:
                    cls = getattr(module, owner)
                    self._patch(cls, attr, self._wrap(cls.__dict__[attr], index, meter=meter))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, index, meter=meter)
                for mod in list(sys.modules.values()):
                    if (
                        getattr(mod, "__name__", "").split(".")[0] == "repro"
                        and mod.__dict__.get(attr) is original
                    ):
                        self._patch(mod, attr, wrapper)
        self._install_incr_counter()

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _install_fix(self, cls: type, layer: str) -> None:
        """``BufferPool.fix`` is classified hit or miss by ``is_cached``
        *before* the call, and summed under two names."""
        hit_index = self._register("BufferPool.fix[hit]", layer)
        miss_index = self._register("BufferPool.fix[miss]", layer)

        def pick(args: tuple) -> int:
            pool, page_id = args[0], args[1]
            return hit_index if pool.is_cached(page_id) else miss_index

        self._patch(cls, "fix", self._wrap(cls.__dict__["fix"], hit_index, pick=pick))

    def _install_incr_counter(self) -> None:
        """``StatsRegistry.incr`` is counted, not timed: a span around a
        call this short would dwarf it."""
        from repro.common.stats import StatsRegistry

        original = StatsRegistry.__dict__["incr"]
        get_state = self._state

        def incr(self, name, amount=1):
            get_state().incr_calls += 1
            return original(self, name, amount)

        incr.__wrapped__ = original
        self._patch(StatsRegistry, "incr", incr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the benchmark's own root spans -----------------------------------

    def root(self, kind: str, fn: Callable) -> Callable:
        """Wrap one of the workload's operation callables in a root span
        that opens a new operation id (and, every ``sample_every``-th
        time, a sampling window)."""
        index = self._register(f"op.{kind}", BENCH)
        get_state, enter, exit_ = self._state, self._enter, self._exit
        every = self.sample_every

        def wrapper(*args, **kwargs):
            # The workload reads its own clock just outside this call:
            # open the span first and close it last, so that the two
            # clocks differ by as little as the wrapper allows.
            start = perf_counter_ns()
            state = get_state()
            state.op = op = next(self._op_ids)
            sampled = bool(every) and op % every == 0
            if sampled:
                with self._lock:
                    self.sampling += 1
            frame = enter(state)
            frame[1] = start
            try:
                return fn(*args, **kwargs)
            finally:
                if sampled:
                    with self._lock:
                        self.sampling -= 1
                exit_(state, frame, index)
                state.op = 0

        return wrapper

    # -- reading the sums --------------------------------------------------

    def totals(self) -> dict[str, Totals]:
        with self._lock:
            states = list(self._states)
        out = {}
        for index, name in enumerate(self._names):
            out[name] = Totals(
                sum(s.calls[index] for s in states),
                sum(s.total[index] for s in states),
                sum(s.self_ns[index] for s in states),
                sum(s.root[index] for s in states),
                sum(s.payload[index] for s in states),
            )
        return out

    def layer_of(self, name: str) -> str:
        return self._layers[self._index[name]]

    def durations(self, name: str) -> array:
        """Every kept duration of one ``KEEP_DURATIONS`` function, in ns."""
        index = self._index[name]
        merged = array("q")
        with self._lock:
            states = list(self._states)
        for state in states:
            kept = state.durations[index]
            if kept is not None:
                merged.extend(kept)
        return merged

    def incr_calls(self) -> int:
        """``StatsRegistry.incr`` calls seen so far, over every thread."""
        with self._lock:
            return sum(state.incr_calls for state in self._states)

    def write_samples(self, path: str) -> int:
        """Write the sampled span trees, one JSON object per span."""
        with self._lock:
            states = list(self._states)
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for state in states:
                for sid, parent, index, start, end, op in state.spans:
                    json.dump(
                        {
                            "thread": state.name,
                            "span": sid,
                            "parent": parent,
                            "name": self._names[index],
                            "layer": self._layers[index],
                            "start_ns": start,
                            "end_ns": end,
                            "op": op,
                        },
                        out,
                    )
                    out.write("\n")
                    written += 1
        return written


def _encoded_bytes(args: tuple, result: object) -> int:
    return len(result)  # encode_value(value) -> bytes


def _decoded_bytes(args: tuple, result: object) -> int:
    offset = args[1] if len(args) > 1 else 0
    return result[1] - offset  # decode_value(raw, offset) -> (value, next offset)


_METERS = {"encode_value": _encoded_bytes, "decode_value": _decoded_bytes}
