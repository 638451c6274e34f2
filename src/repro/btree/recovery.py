"""B+-tree redo and undo handlers (§3).

**Redo is always page-oriented**: each record names its page and the
change is reapplied there, never by traversing the tree.

**Undo is page-oriented whenever possible.**  A key insert/delete is
undone on its original page unless one of the paper's four reasons
forces a *logical* undo (a fresh traversal from the root):

1. not enough free space to undo a key delete (a split would be
   needed — the space was consumed meanwhile, Figure 11's subject);
2. the key definitely no longer belongs on the page (key gone after an
   intervening split for insert-undo; page no longer this index's leaf
   for delete-undo);
3. it is ambiguous whether the key belongs: the key to put back is not
   *bound* (no lower and higher key both present) on the page;
4. the undo would empty the page, requiring a page-delete SMO.

Logical undos call the ordinary action routines with ``clr_for`` set:
the compensating key change is logged as a CLR on whatever page it
actually lands on, while any SMO it triggers is logged with regular
undo-redo records — §3's exception to CLR-only undo logging, needed so
a crash mid-undo-SMO can itself be cleaned up.

SMO records (``page_format``, ``leaf_shrink``, ``chain_*``,
``set_page``) are only ever undone when their nested top action never
completed; those undos are strictly page-oriented state restorations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import PageNotFoundError, RecoveryError
from repro.common.rid import IndexKey
from repro.btree.node import IndexPage
from repro.btree.smo import freed_payload
from repro.storage.page import Page
from repro.wal.records import LogRecord, clr_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.tree import BTree
    from repro.db import Database
    from repro.txn.transaction import Transaction


class BTreeResourceManager:
    """Redo/undo dispatch for ``rm == "btree"`` log records."""

    # -- redo ---------------------------------------------------------------

    def apply_redo(self, ctx: "Database", page: Page, record: LogRecord) -> None:
        """Reapply ``record``'s change to the already-fixed ``page``
        (the driver has verified page_lsn < record.lsn)."""
        op = record.op
        if not isinstance(page, IndexPage):
            raise RecoveryError(
                f"redo of {op!r} targets non-index page {record.page_id}"
            )
        payload = record.payload
        if op == "page_format":
            ctx.disk.ensure_allocator_above(record.page_id)
            page.load_payload(payload["page"])
        elif op in ("insert_key", "insert_key_c"):
            page.insert_key(payload["key"])
        elif op in ("delete_key", "delete_key_c"):
            key: IndexKey = payload["key"]
            # Register the dead key *before* removal so no replay
            # prefix has it absent from both the tree and the side
            # store (the heap delete's redo lands later in the log).
            ctx.mvcc_note_dead_key(
                payload["index_id"], key.value, key.rid, record.txn_id
            )
            page.remove_key(key)
            if payload.get("set_delete_bit"):
                page.delete_bit = True
        elif op == "leaf_shrink":
            for key in payload["moved"]:
                page.remove_key(key)
            page.next_leaf = payload["new_next"]
            page.sm_bit = True
        elif op == "chain_prev":
            page.prev_leaf = payload["after"]
        elif op == "chain_next":
            page.next_leaf = payload["after"]
        elif op == "set_page":
            page.load_payload(payload["after"])
        elif op == "set_page_c":
            page.load_payload(payload["state"])
        else:
            raise RecoveryError(f"unknown btree op {op!r}")

    def make_shell(self, record: LogRecord) -> IndexPage:
        return IndexPage(record.page_id, 0, 0)

    # -- undo ----------------------------------------------------------------

    def undo(self, ctx: "Database", txn: "Transaction", record: LogRecord) -> None:
        op = record.op
        if op == "insert_key":
            self._undo_insert_key(ctx, txn, record)
        elif op == "delete_key":
            self._undo_delete_key(ctx, txn, record)
        elif op in ("page_format", "leaf_shrink", "chain_prev", "chain_next", "set_page"):
            self._undo_smo_record(ctx, txn, record)
        else:
            raise RecoveryError(f"btree op {op!r} is not undoable")

    # .. key operations ..........................................................

    def _undo_insert_key(
        self, ctx: "Database", txn: "Transaction", record: LogRecord
    ) -> None:
        """Undo a key insert: remove the key, page-oriented if it is
        still on its original page and removal will not empty it."""
        tree = ctx.index_by_id(record.payload["index_id"])
        key: IndexKey = record.payload["key"]
        page = self._try_fix_leaf(ctx, tree, record.page_id)
        if page is not None:
            ctx.latches.latch_page(page.page_id, "X")
            page_oriented = False
            try:
                _, present = page.find_key(key)
                if present and (
                    page.key_count() >= 2 or page.page_id == tree.root_page_id
                ):
                    clr = clr_record(
                        txn.txn_id,
                        "btree",
                        "delete_key_c",
                        page.page_id,
                        {"index_id": tree.index_id, "key": key, "set_delete_bit": False},
                        undo_next_lsn=record.prev_lsn,
                    )
                    ctx.log_page_change(
                        txn, page, clr, lambda: page.remove_key(key)
                    )
                    page_oriented = True
            finally:
                ctx.latches.unlatch_page(page.page_id)
                ctx.buffer.unfix(page.page_id)
            if page_oriented:
                ctx.stats.incr("btree.undo.page_oriented")
                return
        # Reasons 2 (key moved by a split) or 4 (page would empty,
        # needing a page-delete SMO): undo logically.
        ctx.stats.incr("btree.undo.logical")
        from repro.btree.delete import index_delete

        index_delete(tree, txn, key, clr_for=record)

    def _undo_delete_key(
        self, ctx: "Database", txn: "Transaction", record: LogRecord
    ) -> None:
        """Undo a key delete: put the key back, page-oriented only if
        the page is still this index's leaf, the key is *bound* there,
        and there is room (reasons 1–3 otherwise)."""
        tree = ctx.index_by_id(record.payload["index_id"])
        key: IndexKey = record.payload["key"]
        page = self._try_fix_leaf(ctx, tree, record.page_id)
        if page is not None:
            ctx.latches.latch_page(page.page_id, "X")
            page_oriented = False
            try:
                applicable = page.bounds_key(key) and page.has_room_for_key(
                    key, ctx.config.page_size
                )
                if applicable:
                    clr = clr_record(
                        txn.txn_id,
                        "btree",
                        "insert_key_c",
                        page.page_id,
                        {"index_id": tree.index_id, "key": key},
                        undo_next_lsn=record.prev_lsn,
                    )
                    ctx.log_page_change(
                        txn, page, clr, lambda: page.insert_key(key)
                    )
                    page_oriented = True
            finally:
                ctx.latches.unlatch_page(page.page_id)
                ctx.buffer.unfix(page.page_id)
            if page_oriented:
                ctx.stats.incr("btree.undo.page_oriented")
                return
        ctx.stats.incr("btree.undo.logical")
        from repro.btree.insert import index_insert

        index_insert(tree, txn, key, clr_for=record)

    def _try_fix_leaf(
        self, ctx: "Database", tree: "BTree", page_id: int
    ) -> IndexPage | None:
        """Fix the original page if it still exists and is still a leaf
        of this index; None forces the logical path."""
        try:
            page = ctx.buffer.fix(page_id)  # noqa: RPR001 - ownership transfer: caller unfixes
        except PageNotFoundError:
            return None
        if (
            isinstance(page, IndexPage)
            and page.index_id == tree.index_id
            and page.is_leaf
        ):
            return page
        ctx.buffer.unfix(page_id)
        return None

    # .. SMO records (incomplete-SMO rollback only) ..................................

    def _undo_smo_record(
        self, ctx: "Database", txn: "Transaction", record: LogRecord
    ) -> None:
        """Restore the pre-record state of one page and log it as a CLR
        carrying the full restored state (redo-only)."""
        page = self._fix_or_shell(ctx, record.page_id)
        ctx.latches.latch_page(record.page_id, "X")
        try:
            payload = record.payload
            op = record.op
            if op == "page_format":
                page.load_payload(freed_payload(record.page_id))
            elif op == "leaf_shrink":
                for key in payload["moved"]:
                    page.insert_key(key)
                page.next_leaf = payload["old_next"]
                page.sm_bit = payload["sm_bit_before"]
            elif op == "chain_prev":
                page.prev_leaf = payload["before"]
            elif op == "chain_next":
                page.next_leaf = payload["before"]
            elif op == "set_page":
                page.load_payload(payload["before"])
            clr = clr_record(
                txn.txn_id,
                "btree",
                "set_page_c",
                record.page_id,
                {"state": page.to_payload()},
                undo_next_lsn=record.prev_lsn,
            )
            ctx.log_page_change(txn, page, clr)
            ctx.stats.incr("btree.undo.smo_records")
        finally:
            ctx.latches.unlatch_page(record.page_id)
            ctx.buffer.unfix(record.page_id)

    def _fix_or_shell(self, ctx: "Database", page_id: int) -> IndexPage:
        """Fix the page, materializing an empty shell if it was never
        flushed (its creating record was lost with the crash, but a
        later flushed record may still name it)."""
        try:
            page = ctx.buffer.fix(page_id)  # noqa: RPR001 - ownership transfer: caller unfixes
        except PageNotFoundError:
            shell = IndexPage(page_id, 0, 0)
            ctx.buffer.fix_new(shell)  # noqa: RPR001 - ownership transfer: caller unfixes
            return shell
        if not isinstance(page, IndexPage):
            ctx.buffer.unfix(page_id)
            raise RecoveryError(f"SMO undo targets non-index page {page_id}")
        return page
