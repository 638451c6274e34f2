"""Multiversion snapshot reads: a lock-free read path.

ARIES/IM's headline efficiency metric is the *number of locks
acquired* (§6); this subsystem drives that number to zero for
read-only transactions.  Heap slots carry ``[xmin, xmax]`` version
stamps maintained by the ordinary insert/delete logging (so REDO
replay reconstructs them for free), a :class:`SnapshotManager` issues
snapshot timestamps from commit LSNs, and a snapshot transaction reads
through the index with latches only — no record locks, no next-key
locks.  Writers keep the unmodified ARIES/IM protocol.
"""
