"""Page replay: repeating history one page at a time (§1.2).

:func:`replay_page` reapplies one page's redoable records (updates
*and* CLRs, losers included) under the ARIES page-LSN test,
page-oriented: the tree is never traversed (§3, "Logging").  It fixes
the page once for the whole chain.  It is the only page-replay loop:
restart, torn-page rebuild and media recovery run it over a chain, and
the hot standby runs it record by record through :func:`apply_record`.
:func:`run_redo` is restart's redo: it recovers the dirty pages of a
:class:`~repro.recovery.instant.RecoveryGovernor`, each along its own
log chain (each link the PageLSN the page had when the record was
logged), so it makes no pass over the redo span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import CorruptPageError, PageNotFoundError
from repro.wal.records import NULL_LSN, LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.recovery.instant import RecoveryGovernor


@dataclass
class RedoResult:
    records_examined: int = 0
    records_redone: int = 0
    pages_touched: int = 0


def apply_record(
    ctx: "Database", record: LogRecord, rec_lsn: int | None = None
) -> bool:
    """Apply one redoable record to its page: :func:`replay_page` of
    one record.  Returns whether the page actually changed."""
    return replay_page(ctx, (record,), rec_lsn=rec_lsn) == 1


def replay_page(
    ctx: "Database", records: Sequence[LogRecord], rec_lsn: int | None = None
) -> int:
    """Bring one page forward by applying ``records`` — its own
    redoable records, oldest first — page-oriented, under one fix.

    The page is fixed once: a missing page is materialised as a shell
    from the first record, a damaged one is rebuilt from its history.
    Each record is reapplied iff the page predates it (the ARIES
    page-LSN test).  Then, if anything changed, the page is made dirty
    once: at ``rec_lsn``, the dirty-page-table recLSN restart knows, or
    else at the first applied record's LSN (first-dirtier wins).
    Returns the number of records applied.
    """
    if not records:
        return 0
    first = records[0]
    page_id = first.page_id
    buffer = ctx.buffer
    rm_for = ctx.rm_registry.get
    try:
        page = buffer.fix(page_id)
    except PageNotFoundError:
        page = buffer.fix_new(rm_for(first.rm).make_shell(first))
    except CorruptPageError:
        # A torn/damaged page is treated like a missing one: rebuild it
        # from its full log history.  Only the standby's replay gets
        # here: restart CRC-checks (and if need be rebuilds) each page
        # before it replays the page's chain, and media recovery
        # installs a fresh base first.
        from repro.recovery.media import rebuild_page_from_log

        rebuild_page_from_log(ctx, page_id)
        page = buffer.fix(page_id)
    applied = 0
    first_applied = NULL_LSN
    try:
        page_lsn = page.page_lsn
        for record in records:
            lsn = record.lsn
            if page_lsn < lsn:
                rm_for(record.rm).apply_redo(ctx, page, record)
                page.page_lsn = page_lsn = lsn
                if not applied:
                    first_applied = lsn
                applied += 1
    finally:
        if applied:
            if rec_lsn is not None:
                buffer.set_rec_lsn(page_id, rec_lsn)
            else:
                buffer.mark_dirty(page_id, first_applied)
            ctx.stats.incr("recovery.records_redone", applied)
        buffer.unfix(page_id)
    return applied


def run_redo(governor: "RecoveryGovernor") -> RedoResult:
    """Restart redo: recover every page of the governor's pending
    (dirty-page-table) set on the calling thread.  Returns the
    governor's ``RedoResult``, which on-demand and background recovery
    of the same restart also fill."""
    governor.recover_backlog(redo=True)
    return governor.redo
