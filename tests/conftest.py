"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import pytest

from repro.common.config import DatabaseConfig
from repro.db import Database


def build_db(**overrides) -> Database:
    """Fresh database; config overrides applied on top of defaults
    tuned for fast tests (small pool, short timeouts)."""
    base = dict(
        buffer_pool_pages=128,
        lock_timeout_seconds=8.0,
        latch_timeout_seconds=8.0,
    )
    base.update(overrides)
    return Database(DatabaseConfig(**base))


@pytest.fixture
def db() -> Database:
    return build_db()


@pytest.fixture
def table_db() -> Database:
    """Database with table ``t`` and unique index ``by_id`` on ``id``."""
    database = build_db()
    database.create_table("t")
    database.create_index("t", "by_id", column="id", unique=True)
    return database


def populate(database: Database, keys, value: str = "v") -> dict:
    """Insert one committed row per key; returns key → RID."""
    txn = database.begin()
    rids = {}
    for key in keys:
        rids[key] = database.insert(txn, "t", {"id": key, "val": value})
    database.commit(txn)
    return rids


@pytest.fixture
def populated_db() -> Database:
    """200 committed even keys 0..398 in table ``t``/index ``by_id``."""
    database = build_db()
    database.create_table("t")
    database.create_index("t", "by_id", column="id", unique=True)
    populate(database, range(0, 400, 2))
    return database


class SpyCondition(threading.Condition):
    """A condition variable that says when a thread parks on it and
    counts notifies.  Tests install it over a latch's or the lock
    manager's own mutex to rendezvous with a waiter without sleeping:
    ``parked`` is set while the waiter still holds that mutex, so
    whoever sees it and then takes the mutex finds the waiter queued."""

    def __init__(self, lock) -> None:
        super().__init__(lock)
        self.parked = threading.Event()
        self.notifies = 0

    def wait(self, timeout=None):
        self.parked.set()
        return super().wait(timeout)

    def notify_all(self) -> None:
        self.notifies += 1
        super().notify_all()


def spy_on_latch(latch) -> SpyCondition:
    """Install a :class:`SpyCondition` over a latch's own mutex: its
    ``parked`` is set while a waiter is queued on the latch."""
    latch._cond = spy = SpyCondition(latch._lock)  # noqa: SLF001 - test instruments the wait path
    return spy


def lock_wait_queued(database: Database) -> threading.Event:
    """An event set when a lock request of ``database`` parks to wait.

    Installs a :class:`SpyCondition` over the lock manager's mutex: the
    event is set while the waiter is queued and still holds that mutex,
    so a test that sees it and then does anything that takes the mutex
    (a commit, a rollback) finds the waiter already queued."""
    locks = database.locks
    locks._cond = spy = SpyCondition(locks._mutex)  # noqa: SLF001 - test instruments the wait path
    return spy.parked
