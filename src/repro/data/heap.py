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
from functools import lru_cache
from itertools import accumulate
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
    from repro.incarnation import Incarnation
    from repro.txn.transaction import Transaction

#: Per-slot capacity accounting.  It bounds the image's per-slot bytes
#: (``_SLOT_ENTRY`` directory bytes plus the row) with room to spare,
#: and is the figure every placement decision — and so every RID —
#: depends on.
_SLOT_OVERHEAD = 34

#: Body header: table_id, number of slots.
_HEAP_HEADER = struct.Struct(">II")
#: Slot flags; an empty slot has flag 0 and zero stamps and length.
_EMPTY, _VISIBLE, _GHOST = 0, 1, 2
#: Bytes of one slot's directory entry: flag, xmin, xmax, length.
_SLOT_ENTRY = 1 + 8 + 8 + 4

#: One slot's entry: (data, visible, xmin, xmax), or None if empty.
SlotEntry = tuple[bytes, bool, int, int]
#: An empty slot as ``pack_body`` writes it, and each entry's flag by
#: its ``visible`` field (None for the empty stand-in).
_EMPTY_SLOT = (b"", None, 0, 0)
_FLAG_OF = {True: _VISIBLE, False: _GHOST, None: _EMPTY}.__getitem__

#: The slots of a decoded page, still in its image: the image bytes, the
#: directory's fields (``n`` flags, xmins, xmaxes and lengths) and the
#: ``n + 1`` row offsets.
_HeapImage = tuple[bytes, tuple[int, ...], list[int]]


@lru_cache(maxsize=1024)
def _slot_directory(n: int) -> struct.Struct:
    """The slot directory for ``n`` slots, at the tail of the image:
    every flag, then every xmin, every xmax and every row length.  The
    rows precede it, concatenated in slot order."""
    return struct.Struct(f">{n}B{n}Q{n}Q{n}I")


class HeapPage(Page):
    """Slotted data page.

    Slots hold ``(bytes, visible, xmin, xmax)`` or None.  ``xmin`` is
    the inserter's transaction id, ``xmax`` the deleter's (0 = none;
    bootstrap data is stamped ``[0, 0]``).  ``slots`` is
    read-only outside this class: every slot mutation goes through a
    method, which keeps the page's used size current.

    A page read from disk is image-backed: :meth:`version` and the
    readers built on it read one slot from the image's directory, and
    the slot list is built the first time something needs it (``slots``
    or any mutation), under the page latch."""

    KIND_CODE = 1

    def __init__(self, page_id: int, table_id: int) -> None:
        super().__init__(page_id)
        self.table_id = table_id
        #: None while the slots are served from ``_image``.
        self._slots: list[SlotEntry | None] | None = []
        self._image: _HeapImage | None = None
        self._used = PAGE_OVERHEAD

    # -- serialization ------------------------------------------------------

    def pack_body(self) -> bytes:
        image = self._image
        if image is not None:
            # The slots are unchanged since decode: copy their bytes.
            raw, _, bounds = image
            return _HEAP_HEADER.pack(self.table_id, len(bounds) - 1) + raw[bounds[0] :]
        slots = self._slots
        n = len(slots)
        header = _HEAP_HEADER.pack(self.table_id, n)
        if not n:
            return header
        if None in slots:
            slots = [_EMPTY_SLOT if slot is None else slot for slot in slots]
        rows, visible, xmins, xmaxes = zip(*slots)
        directory = _slot_directory(n).pack(
            *map(_FLAG_OF, visible), *xmins, *xmaxes, *map(len, rows)
        )
        return b"".join((header, *rows, directory))

    @classmethod
    def unpack_body(cls, page_id: int, raw: bytes, offset: int) -> "HeapPage":
        table_id, n_slots = _HEAP_HEADER.unpack_from(raw, offset)
        offset += _HEAP_HEADER.size
        page = cls(page_id, table_id)
        if not n_slots:
            if offset != len(raw):
                raise ValueError(f"empty page has {len(raw) - offset} body bytes")
            return page
        directory_at = len(raw) - n_slots * _SLOT_ENTRY
        if directory_at < offset:
            raise ValueError(f"{n_slots} slots overrun the image")
        # Decode on demand: keep the image and its directory; slots are
        # read from them until something needs the list.
        fields = _slot_directory(n_slots).unpack_from(raw, directory_at)
        flags = fields[:n_slots]
        if max(flags) > _GHOST:
            raise ValueError(f"slot flag {max(flags)}")
        bounds = list(accumulate(fields[3 * n_slots :], initial=offset))
        if bounds[-1] != directory_at:
            raise ValueError(
                f"rows end at byte {bounds[-1]}, the directory starts at {directory_at}"
            )
        if _EMPTY in flags:
            for slot, flag in enumerate(flags):
                if flag == _EMPTY and any(fields[slot + n_slots :: n_slots]):
                    raise ValueError(f"empty slot {slot} has stamps or a length")
        page._slots = None
        page._image = (raw, fields, bounds)
        page._used = PAGE_OVERHEAD + n_slots * _SLOT_OVERHEAD + directory_at - offset
        return page

    def used_size(self) -> int:
        return self._used

    # -- the slot list ------------------------------------------------------

    @property
    def slots(self) -> list[SlotEntry | None]:
        """The slots as a list, built from the image on first use.  Hold
        the page latch (S or X); mutate it only under X, through the
        methods below."""
        slots = self._slots
        if slots is None:
            slots = self._materialize()
        return slots

    def _materialize(self) -> list[SlotEntry | None]:
        """Build the slot list from the image: publish the list, then
        drop the image (a reader that saw the image keeps its copy)."""
        image = self._image
        if image is None:  # another S holder built it meanwhile
            return self._slots
        raw, fields, bounds = image
        n = len(bounds) - 1
        rows = map(raw.__getitem__, map(slice, bounds, bounds[1:]))
        slots = self._slots = [
            (row, flag == _VISIBLE, xmin, xmax) if flag else None
            for row, flag, xmin, xmax in zip(
                rows, fields[:n], fields[n : 2 * n], fields[2 * n : 3 * n]
            )
        ]
        self._image = None
        return slots

    def slot_count(self) -> int:
        image = self._image
        if image is None:
            return len(self._slots)
        return len(image[2]) - 1

    def version(self, slot: int) -> SlotEntry | None:
        """The slot's full entry — data, visibility, stamps — or None.
        Snapshot readers judge visibility from the stamps; ghosts are
        returned (they are old versions), missing/purged slots are not.
        The one bounds check every slot reader shares."""
        image = self._image
        if image is None:
            slots = self._slots
            return slots[slot] if 0 <= slot < len(slots) else None
        raw, fields, bounds = image
        n = len(bounds) - 1
        if not 0 <= slot < n:
            return None
        flag = fields[slot]
        if flag == _EMPTY:
            return None
        row = raw[bounds[slot] : bounds[slot + 1]]
        return row, flag == _VISIBLE, fields[n + slot], fields[2 * n + slot]

    def _entry(self, slot: int) -> SlotEntry:
        entry = self.version(slot)
        if entry is None:
            raise KeyNotFoundError(f"no record at slot {slot} of page {self.page_id}")
        return entry

    # -- record operations -----------------------------------------------------

    def has_room_for(self, data: bytes, page_size: int) -> bool:
        return self.used_size() + _SLOT_OVERHEAD + len(data) <= page_size

    def append_record(self, data: bytes, xmin: int = 0) -> int:
        slots = self._slots
        if slots is None:
            slots = self._materialize()
        slots.append((data, True, xmin, 0))
        self._used += _SLOT_OVERHEAD + len(data)
        return len(slots) - 1

    def reformat(self, table_id: int) -> None:
        """Empty the page for ``table_id`` (redo of a format record)."""
        self.table_id = table_id
        self._slots = []
        self._image = None
        self._used = PAGE_OVERHEAD

    def _grow_to(self, slot: int) -> list[SlotEntry | None]:
        slots = self.slots
        missing = slot + 1 - len(slots)
        if missing > 0:
            slots.extend([None] * missing)
            self._used += missing * _SLOT_OVERHEAD
        return slots

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
        slots = self._grow_to(slot)
        current = slots[slot]
        if current is None:
            current = (b"", False, 0, 0)
        if xmin is None:
            xmin = current[2]
        if xmax is None:
            xmax = current[3]
        slots[slot] = (data, visible, xmin, xmax)
        self._used += len(data) - len(current[0])

    def record(self, slot: int) -> bytes:
        entry = self.version(slot)
        if entry is None:
            raise KeyNotFoundError(f"no record at slot {slot} of page {self.page_id}")
        if not entry[1]:
            raise KeyNotFoundError(f"record at slot {slot} is deleted")
        return entry[0]

    def set_ghost(self, slot: int, ghost: bool, xmax: int | None = None) -> bytes:
        """Ghost (stamping the deleter into xmax) or unghost (clearing
        xmax — the delete was undone)."""
        data, _, xmin, old_xmax = self._entry(slot)
        if ghost:
            new_xmax = old_xmax if xmax is None else xmax
        else:
            new_xmax = 0
        self.slots[slot] = (data, not ghost, xmin, new_xmax)
        return data

    def remove_record(self, slot: int) -> bytes:
        data = self._entry(slot)[0]
        self.slots[slot] = None
        self._used -= len(data)
        return data

    def free_slot(self, slot: int) -> None:
        """Empty ``slot`` whether or not it holds a record (redo of a
        remove or purge, which must be idempotent)."""
        slots = self._grow_to(slot)
        entry = slots[slot]
        if entry is not None:
            slots[slot] = None
            self._used -= len(entry[0])

    def is_visible(self, slot: int) -> bool:
        entry = self.version(slot)
        return entry is not None and entry[1]

    def visible_rids(self) -> list[RID]:
        return [
            RID(self.page_id, slot)
            for slot in range(self.slot_count())
            if self.is_visible(slot)
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
        txn.incarnation.locks.request(
            txn.txn_id, self.lock_name_for(rid), mode, LockDuration.COMMIT
        )

    # -- operations -------------------------------------------------------------------

    def insert(self, txn: "Transaction", data: bytes) -> RID:
        """Insert a record; X commit lock on its RID; log and apply."""
        ctx = txn.incarnation
        while True:
            page = self._find_page_with_room(txn, data)
            latch = ctx.latches.page_latch(page.page_id)
            latch.acquire("X")
            if page.has_room_for(data, ctx.config.page_size):
                break
            # Another thread consumed the space between fix and latch.
            latch.release()
            ctx.buffer.unfix(page.page_id)
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
            ctx.log_page_change(txn, page, record)
        finally:
            latch.release()
            ctx.buffer.unfix(page.page_id)
        ctx.stats.incr("heap.inserts")
        return rid

    def delete(self, txn: "Transaction", rid: RID) -> bytes:
        """Ghost a record; X commit lock on its RID; log and apply."""
        ctx = txn.incarnation
        self._lock(txn, rid, LockMode.X)
        page = self._fix_heap_page(rid.page_id, ctx)
        latch = ctx.latches.page_latch(page.page_id)
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
            ctx.log_page_change(txn, page, record)
        finally:
            latch.release()
            ctx.buffer.unfix(page.page_id)
        ctx.stats.incr("heap.deletes")
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
        ctx = txn.incarnation
        page_id = rid.page_id
        page = self._fix_heap_page(page_id, ctx)
        latch = ctx.latches.page_latch(page_id)
        latch.acquire("S")
        try:
            return page.record(rid.slot)
        finally:
            latch.release()
            ctx.buffer.unfix(page_id)

    def version(
        self, rid: RID, ctx: "Incarnation"
    ) -> tuple[bytes, bool, int, int] | None:
        """Latch-only read of a slot's data and ``[xmin, xmax]`` stamps
        (the snapshot read path: **no locks**).  Returns None for a
        missing or purged slot."""
        try:
            page = self._fix_heap_page(rid.page_id, ctx)
        except StorageError:
            return None
        latch = ctx.latches.page_latch(rid.page_id)
        latch.acquire("S")
        try:
            return page.version(rid.slot)
        finally:
            latch.release()
            ctx.buffer.unfix(rid.page_id)

    def ghosts(self, ctx: "Incarnation") -> list[tuple[RID, SlotEntry]]:
        """Every ghost slot (a deleted version) with its entry, read
        latch-free through ``ctx``; an unreadable page is skipped."""
        out: list[tuple[RID, SlotEntry]] = []
        for page_id in list(self.page_ids):
            try:
                page = self._fix_heap_page(page_id, ctx)
            except Exception:  # noqa: BLE001,RPR005 - unreadable page (mid-recovery): skipped
                continue
            try:
                versions = map(page.version, range(page.slot_count()))
                out.extend(
                    (RID(page_id, slot), entry)
                    for slot, entry in enumerate(versions)
                    if entry is not None and not entry[1]
                )
            finally:
                ctx.buffer.unfix(page_id)
        return out

    def scan_rids(self) -> list[RID]:
        """All visible RIDs (no locking; used by utilities and tests)."""
        ctx = self._ctx.incarnation
        out: list[RID] = []
        for page_id in list(self.page_ids):
            page = self._fix_heap_page(page_id, ctx)
            try:
                out.extend(page.visible_rids())
            finally:
                ctx.buffer.unfix(page_id)
        return out

    # -- page management ---------------------------------------------------------------

    def _fix_heap_page(self, page_id: int, ctx: "Incarnation") -> HeapPage:
        page = ctx.buffer.fix(page_id)  # noqa: RPR001 - ownership transfer: caller unfixes
        if not isinstance(page, HeapPage):
            ctx.buffer.unfix(page_id)
            raise StorageError(f"page {page_id} is not a heap page")
        return page

    def _find_page_with_room(self, txn: "Transaction", data: bytes) -> HeapPage:
        """Return a *fixed* page with room for ``data`` (newest first)."""
        ctx = txn.incarnation
        page_size = ctx.config.page_size
        need = len(data) + _SLOT_OVERHEAD
        if need + PAGE_OVERHEAD > page_size:
            raise PageOverflowError(f"record of {len(data)} bytes exceeds page size")
        room = self._room
        for page_id in reversed(self.page_ids):
            free = room.get(page_id)
            if free is not None and free < need:
                continue
            page = self._fix_heap_page(page_id, ctx)
            free = page_size - page.used_size()
            room.setdefault(page_id, free)
            if free >= need:
                return page
            ctx.buffer.unfix(page_id)
        return self._format_new_page(txn)

    def _format_new_page(self, txn: "Transaction") -> HeapPage:
        ctx = txn.incarnation
        page_id = ctx.disk.allocate_page_id()
        page = HeapPage(page_id, self.table_id)
        ctx.buffer.fix_new(page)  # noqa: RPR001 - ownership transfer: caller unfixes
        record = update_record(
            txn.txn_id,
            RM_HEAP,
            "format",
            page_id,
            {"table_id": self.table_id},
            undoable=False,
        )
        ctx.log_page_change(txn, page, record)
        self.page_ids.append(page_id)
        ctx.stats.incr("heap.pages_formatted")
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
        incarnation = txn.incarnation
        page = incarnation.buffer.fix(record.page_id)
        latch = incarnation.latches.page_latch(record.page_id)
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
            incarnation.log_page_change(txn, page, clr)
        finally:
            latch.release()
            incarnation.buffer.unfix(record.page_id)
