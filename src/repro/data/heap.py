"""Heap files: the data pages that records live in.

The index stores (key value, RID) pairs; the records themselves live
here, "stored elsewhere in data pages (i.e., outside of the index
tree)" (§1.1).  Data-only locking (§2.1) makes the record lock taken
here *the* lock protecting the corresponding index keys.

Deletes are **ghosting** deletes: the record is marked invisible but
its slot and bytes stay put.  This guarantees that the undo of a
delete is always page-oriented (unghost in place) and that slots are
never reused while a delete is uncommitted — the heap-side analogue of
the care ARIES/IM takes with index-space reuse (Figure 11).

Each slot also carries ``[xmin, xmax]`` version stamps — the inserting
and deleting transaction ids — maintained by the same logged insert
and delete operations, so REDO replay reconstructs them for free and
UNDO reverts them (unghost clears xmax, slot removal erases xmin).
Snapshot readers (:mod:`repro.mvcc`) resolve visibility against the
stamps with latches only; the ghost slot *is* the old version.  Ghosts
are reclaimed only by the MVCC garbage collector's redo-only ``purge``
records, once no snapshot can need them.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.common.errors import KeyNotFoundError, PageOverflowError, StorageError
from repro.common.rid import RID
from repro.locks.modes import (
    LockDuration,
    LockMode,
    data_page_lock_name,
    record_lock_name,
)
from repro.storage.page import PAGE_OVERHEAD, Page
from repro.wal.records import RM_HEAP, LogRecord, clr_record, update_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.txn.transaction import Transaction

#: Per-slot capacity accounting.  It bounds the image's per-slot bytes
#: (``_SLOT_HEADER`` for an occupied slot, one flag byte for an empty
#: one) with room to spare, and is the figure every placement decision
#: — and so every RID — depends on.
_SLOT_OVERHEAD = 34

#: Body header: table_id, number of slots.
_HEAP_HEADER = struct.Struct(">II")
#: An occupied slot: flag, xmin, xmax, data length; the data follows.
_SLOT_HEADER = struct.Struct(">BQQI")
_PACK_SLOT = _SLOT_HEADER.pack
_UNPACK_SLOT = _SLOT_HEADER.unpack_from
#: Slot flags; an empty slot is the flag byte alone.
_EMPTY, _VISIBLE, _GHOST = 0, 1, 2


class HeapPage(Page):
    """Slotted data page.

    Slots hold ``(bytes, visible, xmin, xmax)`` or None.  ``xmin`` is
    the inserter's transaction id, ``xmax`` the deleter's (0 = none;
    bootstrap data is stamped ``[0, 0]``).  ``slots`` is
    read-only outside this class: every slot mutation goes through a
    method, which keeps the page's used size current."""

    KIND_CODE = 1

    def __init__(self, page_id: int, table_id: int) -> None:
        super().__init__(page_id)
        self.table_id = table_id
        self.slots: list[tuple[bytes, bool, int, int] | None] = []
        self._used = PAGE_OVERHEAD

    # -- serialization ------------------------------------------------------

    def pack_body(self) -> bytes:
        parts = [_HEAP_HEADER.pack(self.table_id, len(self.slots))]
        append = parts.append
        for slot in self.slots:
            if slot is None:
                append(b"\x00")
            else:
                data, visible, xmin, xmax = slot
                append(_PACK_SLOT(_VISIBLE if visible else _GHOST, xmin, xmax, len(data)))
                append(data)
        return b"".join(parts)

    @classmethod
    def unpack_body(cls, page_id: int, raw: bytes, offset: int) -> "HeapPage":
        table_id, n_slots = _HEAP_HEADER.unpack_from(raw, offset)
        offset += _HEAP_HEADER.size
        page = cls(page_id, table_id)
        slots = page.slots
        used = PAGE_OVERHEAD + n_slots * _SLOT_OVERHEAD
        for _ in range(n_slots):
            flag = raw[offset]
            if flag == _EMPTY:
                slots.append(None)
                offset += 1
                continue
            if flag > _GHOST:
                raise ValueError(f"slot flag {flag}")
            _, xmin, xmax, length = _UNPACK_SLOT(raw, offset)
            offset += _SLOT_HEADER.size
            end = offset + length
            slots.append((raw[offset:end], flag == _VISIBLE, xmin, xmax))
            used += length
            offset = end
        if offset != len(raw):
            raise ValueError(f"body ends at byte {offset} of a {len(raw)}-byte image")
        page._used = used
        return page

    def used_size(self) -> int:
        return self._used

    # -- record operations -----------------------------------------------------

    def has_room_for(self, data: bytes, page_size: int) -> bool:
        return self.used_size() + _SLOT_OVERHEAD + len(data) <= page_size

    def append_record(self, data: bytes, xmin: int = 0) -> int:
        self.slots.append((data, True, xmin, 0))
        self._used += _SLOT_OVERHEAD + len(data)
        return len(self.slots) - 1

    def reformat(self, table_id: int) -> None:
        """Empty the page for ``table_id`` (redo of a format record)."""
        self.table_id = table_id
        self.slots = []
        self._used = PAGE_OVERHEAD

    def _grow_to(self, slot: int) -> None:
        missing = slot + 1 - len(self.slots)
        if missing > 0:
            self.slots.extend([None] * missing)
            self._used += missing * _SLOT_OVERHEAD

    def place_record(
        self,
        slot: int,
        data: bytes,
        visible: bool = True,
        xmin: int | None = None,
        xmax: int | None = None,
    ) -> None:
        """Install a record at an exact slot (redo path).  Stamps left
        as None keep the slot's current value (0 if the slot was
        empty)."""
        self._grow_to(slot)
        current = self.slots[slot]
        if current is None:
            current = (b"", False, 0, 0)
        if xmin is None:
            xmin = current[2]
        if xmax is None:
            xmax = current[3]
        self.slots[slot] = (data, visible, xmin, xmax)
        self._used += len(data) - len(current[0])

    def record(self, slot: int) -> bytes:
        entry = self._entry(slot)
        if not entry[1]:
            raise KeyNotFoundError(f"record at slot {slot} is deleted")
        return entry[0]

    def set_ghost(self, slot: int, ghost: bool, xmax: int | None = None) -> bytes:
        """Ghost (stamping the deleter into xmax) or unghost (clearing
        xmax — the delete was undone)."""
        entry = self._entry(slot)
        data, _, xmin, old_xmax = entry
        if ghost:
            new_xmax = old_xmax if xmax is None else xmax
        else:
            new_xmax = 0
        self.slots[slot] = (data, not ghost, xmin, new_xmax)
        return data

    def remove_record(self, slot: int) -> bytes:
        entry = self._entry(slot)
        self.slots[slot] = None
        self._used -= len(entry[0])
        return entry[0]

    def free_slot(self, slot: int) -> None:
        """Empty ``slot`` whether or not it holds a record (redo of a
        remove or purge, which must be idempotent)."""
        self._grow_to(slot)
        entry = self.slots[slot]
        if entry is not None:
            self.slots[slot] = None
            self._used -= len(entry[0])

    def is_visible(self, slot: int) -> bool:
        entry = self.slots[slot] if slot < len(self.slots) else None
        return entry is not None and entry[1]

    def version(self, slot: int) -> tuple[bytes, bool, int, int] | None:
        """The slot's full entry — data, visibility, stamps — or None.
        Snapshot readers judge visibility from the stamps; ghosts are
        returned (they are old versions), missing/purged slots are not."""
        return self.slots[slot] if 0 <= slot < len(self.slots) else None

    def _entry(self, slot: int) -> tuple[bytes, bool, int, int]:
        if slot >= len(self.slots) or self.slots[slot] is None:
            raise KeyNotFoundError(f"no record at slot {slot} of page {self.page_id}")
        return self.slots[slot]  # type: ignore[return-value]

    def visible_rids(self) -> list[RID]:
        return [
            RID(self.page_id, slot)
            for slot, entry in enumerate(self.slots)
            if entry is not None and entry[1]
        ]


class HeapFile:
    """One table's collection of data pages."""

    def __init__(self, ctx: "Database", table_id: int) -> None:
        self._ctx = ctx
        self.table_id = table_id
        self.page_ids: list[int] = []
        #: Page id → free bytes, as last measured.  The insert scan
        #: skips a page whose entry is too small without fixing it, so
        #: every change that frees space on a page must update its entry
        #: (:meth:`note_room`); a page without an entry is fixed and
        #: measured.  Written under the page's X latch, except a first
        #: measurement, which never overwrites a latched writer's entry.
        self._room: dict[int, int] = {}

    def adopt_pages(self, page_ids: list[int]) -> None:
        """Replace the page list after a restart and forget every
        free-space entry: recovery rebuilt the pages behind them."""
        self.page_ids = page_ids
        self._room = {}

    def note_room(self, page: "HeapPage") -> None:
        """Record ``page``'s free bytes after a change (X latch held)."""
        self._room[page.page_id] = self._ctx.config.page_size - page.used_size()

    # -- locking helper -----------------------------------------------------------

    def lock_name_for(self, rid: RID) -> tuple:
        """The data-only lock name for a record, honouring the table's
        locking granularity (§2.1: record locks, or the data page id
        which is part of the record id for page granularity)."""
        if self._ctx.config.lock_granularity == "page":
            return data_page_lock_name(self.table_id, rid.page_id)
        return record_lock_name(self.table_id, rid)

    def _lock(self, txn: "Transaction", rid: RID, mode: LockMode) -> None:
        if txn.in_rollback:
            return
        self._ctx.locks.request(
            txn.txn_id, self.lock_name_for(rid), mode, LockDuration.COMMIT
        )

    # -- operations -------------------------------------------------------------------

    def insert(self, txn: "Transaction", data: bytes) -> RID:
        """Insert a record; X commit lock on its RID; log and apply."""
        while True:
            page = self._find_page_with_room(txn, data)
            latch = self._ctx.latches.page_latch(page.page_id)
            latch.acquire("X")
            if page.has_room_for(data, self._ctx.config.page_size):
                break
            # Another thread consumed the space between fix and latch.
            latch.release()
            self._ctx.buffer.unfix(page.page_id)
        try:
            slot = page.append_record(data, xmin=txn.txn_id)
            self.note_room(page)
            rid = RID(page.page_id, slot)
            self._lock(txn, rid, LockMode.X)
            record = update_record(
                txn.txn_id,
                RM_HEAP,
                "insert",
                page.page_id,
                {"rid": rid, "data": data},
            )
            lsn = self._ctx.txns.log_for(txn, record)
            page.page_lsn = lsn
            self._ctx.buffer.mark_dirty(page.page_id, lsn)
        finally:
            latch.release()
            self._ctx.buffer.unfix(page.page_id)
        self._ctx.stats.incr("heap.inserts")
        return rid

    def delete(self, txn: "Transaction", rid: RID) -> bytes:
        """Ghost a record; X commit lock on its RID; log and apply."""
        self._lock(txn, rid, LockMode.X)
        page = self._fix_heap_page(rid.page_id)
        latch = self._ctx.latches.page_latch(page.page_id)
        latch.acquire("X")
        try:
            data = page.set_ghost(rid.slot, ghost=True, xmax=txn.txn_id)
            record = update_record(
                txn.txn_id,
                RM_HEAP,
                "delete",
                page.page_id,
                {"rid": rid, "data": data},
            )
            lsn = self._ctx.txns.log_for(txn, record)
            page.page_lsn = lsn
            self._ctx.buffer.mark_dirty(page.page_id, lsn)
        finally:
            latch.release()
            self._ctx.buffer.unfix(page.page_id)
        self._ctx.stats.incr("heap.deletes")
        return data

    def fetch(self, txn: "Transaction", rid: RID, lock: bool = True) -> bytes:
        """Read a record.

        With data-only locking the index manager has already S-locked
        the record on our behalf, so index-driven fetches pass
        ``lock=False`` (§2.1: "the record manager does not have to lock
        the corresponding record during the subsequent retrieval").
        """
        if lock:
            self._lock(txn, rid, LockMode.S)
        page = self._fix_heap_page(rid.page_id)
        latch = self._ctx.latches.page_latch(page.page_id)
        latch.acquire("S")
        try:
            return page.record(rid.slot)
        finally:
            latch.release()
            self._ctx.buffer.unfix(page.page_id)

    def version(self, rid: RID) -> tuple[bytes, bool, int, int] | None:
        """Latch-only read of a slot's data and ``[xmin, xmax]`` stamps
        (the snapshot read path: **no locks**).  Returns None for a
        missing or purged slot."""
        try:
            page = self._fix_heap_page(rid.page_id)
        except StorageError:
            return None
        latch = self._ctx.latches.page_latch(rid.page_id)
        latch.acquire("S")
        try:
            return page.version(rid.slot)
        finally:
            latch.release()
            self._ctx.buffer.unfix(rid.page_id)

    def scan_rids(self) -> list[RID]:
        """All visible RIDs (no locking; used by utilities and tests)."""
        out: list[RID] = []
        for page_id in list(self.page_ids):
            page = self._fix_heap_page(page_id)
            try:
                out.extend(page.visible_rids())
            finally:
                self._ctx.buffer.unfix(page_id)
        return out

    # -- page management ---------------------------------------------------------------

    def _fix_heap_page(self, page_id: int) -> HeapPage:
        page = self._ctx.buffer.fix(page_id)  # noqa: RPR001 - ownership transfer: caller unfixes
        if not isinstance(page, HeapPage):
            self._ctx.buffer.unfix(page_id)
            raise StorageError(f"page {page_id} is not a heap page")
        return page

    def _find_page_with_room(self, txn: "Transaction", data: bytes) -> HeapPage:
        """Return a *fixed* page with room for ``data`` (newest first)."""
        page_size = self._ctx.config.page_size
        need = len(data) + _SLOT_OVERHEAD
        if need + PAGE_OVERHEAD > page_size:
            raise PageOverflowError(f"record of {len(data)} bytes exceeds page size")
        room = self._room
        for page_id in reversed(self.page_ids):
            free = room.get(page_id)
            if free is not None and free < need:
                continue
            page = self._fix_heap_page(page_id)
            free = page_size - page.used_size()
            room.setdefault(page_id, free)
            if free >= need:
                return page
            self._ctx.buffer.unfix(page_id)
        return self._format_new_page(txn)

    def _format_new_page(self, txn: "Transaction") -> HeapPage:
        page_id = self._ctx.disk.allocate_page_id()
        page = HeapPage(page_id, self.table_id)
        self._ctx.buffer.fix_new(page)  # noqa: RPR001 - ownership transfer: caller unfixes
        record = update_record(
            txn.txn_id,
            RM_HEAP,
            "format",
            page_id,
            {"table_id": self.table_id},
            undoable=False,
        )
        lsn = self._ctx.txns.log_for(txn, record)
        page.page_lsn = lsn
        self._ctx.buffer.mark_dirty(page_id, lsn)
        self.page_ids.append(page_id)
        self._ctx.stats.incr("heap.pages_formatted")
        return page


class HeapResourceManager:
    """Redo/undo handlers for heap log records."""

    def apply_redo(self, ctx: "Database", page: HeapPage, record: LogRecord) -> None:
        if record.op == "format":
            ctx.disk.ensure_allocator_above(record.page_id)
            page.reformat(record.payload["table_id"])
            return
        rid: RID = record.payload["rid"]
        if record.op == "insert":
            page.place_record(
                rid.slot,
                record.payload["data"],
                visible=True,
                xmin=record.txn_id,
                xmax=0,
            )
        elif record.op == "unghost_c":
            # Undo of a delete: the deleter's stamp comes off (xmin is
            # preserved — the original inserter's commit still governs).
            page.place_record(
                rid.slot, record.payload["data"], visible=True, xmax=0
            )
        elif record.op == "delete":
            page.place_record(
                rid.slot,
                record.payload["data"],
                visible=False,
                xmax=record.txn_id,
            )
            # Replayed deletes (restart redo, standby replay, PITR)
            # register the dead keys, same as the forward path.
            ctx.mvcc_note_dead_raw(
                page.table_id, rid, record.payload["data"], record.txn_id
            )
        elif record.op in ("remove_c", "purge"):
            page.free_slot(rid.slot)
            if record.op == "purge":
                ctx.mvcc_forget_raw(page.table_id, rid, record.payload["data"])
        else:
            raise StorageError(f"unknown heap op {record.op!r}")

    def make_shell(self, record: LogRecord) -> HeapPage:
        return HeapPage(record.page_id, record.payload.get("table_id", 0))

    def undo(self, ctx: "Database", txn: "Transaction", record: LogRecord) -> None:
        rid: RID = record.payload["rid"]
        page = ctx.buffer.fix(record.page_id)
        latch = ctx.latches.page_latch(record.page_id)
        latch.acquire("X")
        try:
            assert isinstance(page, HeapPage)
            if record.op == "insert":
                page.remove_record(rid.slot)
                table = ctx._table_by_id(page.table_id)
                if table is not None:
                    table.heap.note_room(page)
                clr = clr_record(
                    txn.txn_id,
                    RM_HEAP,
                    "remove_c",
                    record.page_id,
                    {"rid": rid, "data": record.payload["data"]},
                    undo_next_lsn=record.prev_lsn,
                )
            elif record.op == "delete":
                page.set_ghost(rid.slot, ghost=False)
                clr = clr_record(
                    txn.txn_id,
                    RM_HEAP,
                    "unghost_c",
                    record.page_id,
                    {"rid": rid, "data": record.payload["data"]},
                    undo_next_lsn=record.prev_lsn,
                )
            else:
                raise StorageError(f"heap op {record.op!r} is not undoable")
            lsn = ctx.txns.log_for(txn, clr)
            page.page_lsn = lsn
            ctx.buffer.mark_dirty(record.page_id, lsn)
        finally:
            latch.release()
            ctx.buffer.unfix(record.page_id)
