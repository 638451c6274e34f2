"""The ARIES/IM B+-tree index manager (the paper's core contribution)."""

from repro.btree.delete import index_delete
from repro.btree.fetch import Cursor, FetchResult, index_fetch, index_fetch_next
from repro.btree.insert import index_insert
from repro.btree.node import IndexPage
from repro.btree.protocol import (
    PROTOCOLS,
    DataOnlyLocking,
    IndexSpecificLocking,
    KeyValueLocking,
    LockingProtocol,
    LockSpec,
    SystemRStyleLocking,
    make_protocol,
)
from repro.btree.recovery import BTreeResourceManager
from repro.btree.tree import BTree

__all__ = [
    "PROTOCOLS",
    "BTree",
    "BTreeResourceManager",
    "Cursor",
    "DataOnlyLocking",
    "FetchResult",
    "IndexPage",
    "IndexSpecificLocking",
    "KeyValueLocking",
    "LockSpec",
    "LockingProtocol",
    "SystemRStyleLocking",
    "index_delete",
    "index_fetch",
    "index_fetch_next",
    "index_insert",
    "make_protocol",
]
