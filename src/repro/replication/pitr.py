"""Point-in-time restore: image copy + archived WAL + redo to a target.

The §5 media-recovery argument generalised: given a fuzzy image copy
and the *complete* record history (archived segments for the truncated
prefix, the live log for the rest), the database state as of any LSN
``T`` can be rebuilt — load the history clipped at ``T``, repeat it
(redo), then undo the transactions that were still in flight at ``T``.
The clipped stream plus the ordinary restart procedure *are* that
procedure, run inside a brand-new :class:`Database` instance; nothing
recovery-specific had to be reimplemented.

The one genuine restriction: ``T`` must be at or after the image
copy's ``end_lsn`` — the fuzzy images may already contain effects up
to there, and effects cannot be subtracted by redo.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.common.config import DatabaseConfig
from repro.common.errors import CorruptLogError, RecoveryError
from repro.db import Database
from repro.recovery.media import ImageCopy
from repro.replication.catalog import catalog_snapshot, install_catalog
from repro.wal.records import LogRecord

if TYPE_CHECKING:  # pragma: no cover
    pass


def assemble_history(source: Database, upto_lsn: int | None = None) -> bytes:
    """The contiguous raw stream from LSN 1: archived prefix (if the
    log was ever truncated) joined with the live log.  Raises if a
    truncation happened without an attached archive — that history is
    gone."""
    truncation = source.log.truncation_point
    parts: list[bytes] = []
    if truncation > 1:
        archive = source.archive
        if archive is None or archive.base_lsn != 1:
            raise RecoveryError(
                "log was truncated without a complete archive; "
                "point-in-time restore is impossible"
            )
        if (archive.end_lsn or 0) < truncation:
            raise RecoveryError(
                f"archive ends at {archive.end_lsn} but the live log "
                f"starts at {truncation}: history gap"
            )
        parts.append(archive.raw_slice(1, truncation))
    parts.append(source.log.raw_slice(truncation, upto_lsn))
    return b"".join(parts)


def clip_at_lsn(stream: bytes, base_lsn: int, target_lsn: int) -> bytes:
    """Longest prefix of ``stream`` holding only whole frames of
    records with ``lsn <= target_lsn``."""
    offset = 0
    while offset < len(stream):
        if base_lsn + offset > target_lsn:
            break
        try:
            _, offset = LogRecord.from_bytes(stream, offset)
        except CorruptLogError:
            break  # torn tail: the usable history ends here
    return stream[:offset]


def restore_to_lsn(
    source: Database,
    copy: ImageCopy,
    target_lsn: int,
    config: DatabaseConfig | None = None,
    catalog: dict | None = None,
) -> Database:
    """Build a brand-new database holding the state as of ``target_lsn``.

    ``source`` supplies the history (live log + attached archive), the
    catalog (unless ``catalog`` — a ``catalog_snapshot`` dict recorded
    earlier — is given), and the default configuration.  ``copy`` is a
    fuzzy :func:`~repro.recovery.media.take_image_copy` dump taken at
    or before the target.  The restored instance is fully recovered
    (redo to target, losers undone) and open for read-write use.
    """
    if target_lsn < copy.end_lsn:
        raise RecoveryError(
            f"target LSN {target_lsn} predates the image copy "
            f"(end_lsn {copy.end_lsn}); effects cannot be subtracted"
        )
    stream = assemble_history(source)
    clipped = clip_at_lsn(stream, 1, target_lsn)
    if not clipped:
        raise RecoveryError("no usable history up to the target LSN")

    restored = Database(
        config
        or replace(source.config, group_commit=False, checkpoint_interval_records=0)
    )
    restored.log.load_stream(1, clipped)
    install_catalog(restored, catalog or catalog_snapshot(source))
    max_page_id = 0
    for page_id, raw in copy.pages.items():
        restored.disk.restore_page(page_id, raw)
        max_page_id = max(max_page_id, page_id)
    restored.disk.ensure_allocator_above(max_page_id)
    # No master record: analysis scans from LSN 1 — correct (and the
    # point: the restore must not trust any checkpoint newer than the
    # target).  restart() = repair tail, analysis (a transaction whose
    # COMMIT is in the clipped stream is a winner; one without is
    # undone), undo the in-flight, then redo every dirty page along its
    # chain, scrub the rest, checkpoint.
    restored.restart()
    restored.stats.incr("recovery.pitr_restores")
    source.stats.incr("recovery.pitr_restores")
    return restored
