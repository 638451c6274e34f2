"""Log-shipping replication: WAL archive, primary-side shipper, hot
standby with continuous redo, failover promotion, and point-in-time
restore.

ARIES/IM's §5 argument — one WAL stream suffices to reconstruct index
*and* data state, page-orientedly — makes the log a complete
replication transport.  This package ships that stream:

- :class:`WalArchive` keeps a durable, segmented copy of every byte
  :meth:`LogManager.truncate_prefix` would otherwise discard, so the
  full record history survives log reclamation (point-in-time recovery
  and page rebuilds depend on it).
- :class:`ReplicationManager` is the primary side: it serves snapshot
  and poll requests (never past ``flushed_lsn``), tracks subscriber
  acks, and optionally gates commit acknowledgement on standby
  durability (synchronous replication).
- :class:`Standby` seeds itself from a fuzzy image copy, replays
  shipped records continuously (reusing the restart redo primitive),
  serves read-only fetches at its replay horizon, and can be promoted
  to a read-write primary via full ARIES restart recovery.
- :func:`restore_to_lsn` rebuilds a database as of an arbitrary target
  LSN from an image copy plus the archived + live log.
"""

from repro.replication.archive import WalArchive
from repro.replication.catalog import catalog_snapshot
from repro.replication.pitr import restore_to_lsn
from repro.replication.standby import Standby

__all__ = [
    "WalArchive",
    "Standby",
    "catalog_snapshot",
    "restore_to_lsn",
]
