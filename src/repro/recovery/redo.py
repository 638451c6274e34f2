"""Page replay: repeating history one page at a time (§1.2).

:func:`apply_record` reapplies one redoable record (an update *or* a
CLR, losers included) to the page it names, under the ARIES page-LSN
test, page-oriented: the tree is never traversed (§3, "Logging").
:func:`replay_page` runs it over one page's records onto whatever base
the caller installed — the only page-replay loop, used by restart,
torn-page rebuild and media recovery; the hot standby applies
:func:`apply_record` record by record.  :func:`run_redo` is restart's
redo: it recovers the dirty pages of a
:class:`~repro.recovery.instant.RecoveryGovernor`, each along its own
log chain (each link the PageLSN the page had when the record was
logged), so it makes no pass over the redo span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.common.errors import CorruptPageError, PageNotFoundError
from repro.wal.records import LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.recovery.instant import RecoveryGovernor


@dataclass
class RedoResult:
    records_examined: int = 0
    records_redone: int = 0
    pages_touched: int = 0


def apply_record(
    ctx: "Database", record, rec_lsn: int | None = None
) -> bool:
    """Apply one redoable record to its page, page-oriented.

    Fix the page (materialising a shell if it is missing, rebuilding
    it from history if it is damaged), run the ARIES page-LSN test,
    and reapply iff the page predates the record.  ``rec_lsn`` is the
    dirty-page-table recLSN to pin (restart knows it); without one the
    page is marked dirty at the record's own LSN (first-dirtier wins).
    Returns whether the page actually changed.
    """
    page_id = record.page_id
    rm = ctx.rm_registry.get(record.rm)
    try:
        page = ctx.buffer.fix(page_id)
    except PageNotFoundError:
        page = ctx.buffer.fix_new(rm.make_shell(record))
    except CorruptPageError:
        # A torn/damaged page is treated like a missing one: rebuild it
        # from its full log history.  Only the standby's replay gets
        # here: restart CRC-checks (and if need be rebuilds) each page
        # before it replays the page's chain, and media recovery
        # installs a fresh base first.
        from repro.recovery.media import rebuild_page_from_log

        rebuild_page_from_log(ctx, page_id)
        page = ctx.buffer.fix(page_id)
    try:
        if page.page_lsn < record.lsn:
            rm.apply_redo(ctx, page, record)
            page.page_lsn = record.lsn
            if rec_lsn is not None:
                ctx.buffer.set_rec_lsn(page_id, rec_lsn)
            else:
                ctx.buffer.mark_dirty(page_id, record.lsn)
            ctx.stats.incr("recovery.records_redone")
            return True
        return False
    finally:
        ctx.buffer.unfix(page_id)


def replay_page(
    ctx: "Database", records: Iterable[LogRecord], rec_lsn: int | None = None
) -> int:
    """Bring one page forward by applying ``records`` — its own
    redoable records, oldest first — to whatever base the caller
    installed.  Returns the number of records applied."""
    applied = 0
    for record in records:
        if apply_record(ctx, record, rec_lsn=rec_lsn):
            applied += 1
    return applied


def run_redo(governor: "RecoveryGovernor") -> RedoResult:
    """Restart redo: recover every page of the governor's pending
    (dirty-page-table) set on the calling thread.  Returns the
    governor's ``RedoResult``, which on-demand and background recovery
    of the same restart also fill."""
    governor.recover_backlog(redo=True)
    return governor.redo
