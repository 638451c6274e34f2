"""Page-oriented media recovery (§5).

ARIES/IM indexes support the same media recovery as data: take a fuzzy
image copy (no quiescing — pages are dumped as they sit on disk, and
the dump remembers the LSN horizon from which changes might be
missing), and when a page later turns out damaged, reload it from the
dump and roll it forward by applying that page's log records in one
pass.  No tree traversal, no other pages touched.

A torn page with no dump is rebuilt the same way from an empty base
and the page's whole history (:func:`rebuild_page_from_log`).  Both go
through :func:`~repro.recovery.redo.replay_page`, the loop restart
uses, which leaves the PageLSN at the page's newest record: the chain
link its next record carries.  :func:`run_scrub` is restart's
integrity check of the on-disk pages that redo does not visit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import RecoveryError
from repro.recovery.redo import replay_page
from repro.wal.records import NULL_LSN, LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.recovery.instant import RecoveryGovernor


@dataclass
class ImageCopy:
    """A fuzzy dump: page images plus the redo horizon.

    ``end_lsn`` records the log end at dump time — a point-in-time
    restore cannot target an LSN before it (the fuzzy images may
    already contain effects up to there).
    """

    pages: dict[int, bytes] = field(default_factory=dict)
    start_lsn: int = NULL_LSN
    end_lsn: int = NULL_LSN


def take_image_copy(ctx: "Database") -> ImageCopy:
    """Dump every on-disk page, fuzzily.

    The horizon is the smaller of the current dirty-page recLSNs and
    the current end of log: changes at or after it may be missing from
    the dumped images and must be replayed at restore time.
    """
    dirty = ctx.buffer.dirty_page_table()
    horizon = min(dirty.values()) if dirty else ctx.log.end_lsn
    copy = ImageCopy(
        pages=ctx.disk.image_copy(),
        start_lsn=horizon,
        end_lsn=ctx.log.end_lsn,
    )
    ctx.stats.incr("recovery.image_copies")
    return copy


def recover_page(ctx: "Database", page_id: int, dump: ImageCopy) -> int:
    """Restore one damaged page from ``dump`` and roll it forward.

    Returns the number of log records applied.  One pass of the log
    (§1's media-recovery measure), filtered to this page.  The page is
    written back once it is current: replay dirtied it at a recLSN as
    old as the dump horizon, which would hold back ``trim_log``.
    """
    raw = dump.pages.get(page_id)
    ctx.buffer.discard(page_id)
    if raw is not None:
        ctx.disk.restore_page(page_id, raw)
    else:
        # Created after the dump: rebuild from its creation record.
        ctx.disk.deallocate(page_id)
    records = page_records(ctx, page_id, dump.start_lsn)
    if raw is None and not records:
        raise RecoveryError(
            f"page {page_id} is in neither the image copy nor the log"
        )
    applied = replay_page(ctx, records)
    ctx.buffer.flush_page(page_id)
    ctx.stats.incr("recovery.media_recoveries")
    ctx.stats.incr("recovery.media_records_applied", applied)
    return applied


# -- self-healing without a dump ---------------------------------------------


def rebuild_page_from_log(ctx: "Database", page_id: int) -> int:
    """Rebuild a damaged page purely from the log (no image copy).

    A page whose on-disk image failed its integrity check (torn write,
    media damage) is treated like a page that never reached disk: its
    image is discarded and its entire history — page-format record
    onward — is replayed in one page-filtered pass over the full record
    history (archived WAL segments, when an archive is attached, then
    the live log).  Requires that history back to the page's birth
    still exists; otherwise only dump-based :func:`recover_page` can
    help and a :class:`RecoveryError` is raised.

    Returns the number of log records applied.  The rebuilt page is
    written back at once, as :func:`recover_page` writes back a
    recovered one: until then the disk holds no image of the page, and
    replay dirtied it at a recLSN as old as its format record, which
    would hold back ``trim_log``.
    """
    ctx.buffer.discard(page_id)
    ctx.disk.deallocate(page_id)
    records = page_records(ctx, page_id, 1)
    if not records:
        raise RecoveryError(
            f"page {page_id} is damaged and its history is not in the log "
            "(trimmed?); media recovery from an image copy is required"
        )
    applied = replay_page(ctx, records)
    ctx.buffer.flush_page(page_id)
    ctx.stats.incr("recovery.pages_rebuilt_from_log")
    ctx.stats.incr("recovery.media_records_applied", applied)
    return applied


def page_records(ctx: "Database", page_id: int, from_lsn: int) -> list[LogRecord]:
    """The page's redoable records from ``from_lsn`` on, oldest first,
    from one pass over the full record history."""
    return [
        record
        for record in ctx.history_records(from_lsn)
        if record.is_redoable and record.page_id == page_id
    ]


@dataclass
class ScrubResult:
    """What the restart scrub found and repaired: on-disk pages whose
    integrity was checked, and the torn ones rebuilt from the log."""

    pages_checked: int = 0
    pages_rebuilt: int = 0
    records_applied: int = 0


def run_scrub(governor: "RecoveryGovernor") -> ScrubResult:
    """Restart scrub: integrity-check every on-disk page the governor
    has not verified yet, on the calling thread, and rebuild the torn
    ones from the log.  A torn write can land on a page that redo never
    visits (flushed clean before the checkpoint, so absent from the
    reconstructed dirty page table), so waiting for a fix to trip over
    the damage is not enough.  Returns the governor's ``ScrubResult``,
    which also counts the pages checked on their first fix and the
    dirty pages checked before their replay."""
    governor.recover_backlog(redo=False)
    return governor.scrub
