"""Offline WAL verifier: clean logs pass, seeded violations fail, and
the dump-file round trip preserves the verdict."""

from __future__ import annotations

import struct

import pytest

from repro.analysis.walcheck import (
    MAGIC,
    WalCheckError,
    check_file,
    check_log,
    check_records,
    read_log_file,
    write_log_file,
)
from repro.analysis.walcheck import main as walcheck_main
from repro.codec.values import encode_value, frame_record
from repro.wal.records import NULL_LSN, LogRecord, RecordKind

from tests.conftest import build_db, populate


def upd(lsn, txn_id, prev_lsn, page_id=None, prev_page_lsn=NULL_LSN, **kw):
    return LogRecord(
        kind=RecordKind.UPDATE,
        txn_id=txn_id,
        prev_lsn=prev_lsn,
        page_id=page_id,
        prev_page_lsn=prev_page_lsn,
        lsn=lsn,
        **kw,
    )


def rec(kind, lsn, txn_id, prev_lsn, **kw):
    return LogRecord(kind=kind, txn_id=txn_id, prev_lsn=prev_lsn, lsn=lsn, **kw)


def findings(records, first_lsn=1):
    return [f.message for f in check_records(records, first_lsn).findings]


# -- live logs ---------------------------------------------------------------


def test_live_log_passes_through_workload_and_restart():
    db = build_db(checkpoint_interval_records=40)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    populate(db, range(40))
    txn = db.begin()
    for key in range(0, 40, 3):
        db.delete_by_key(txn, "t", "by_id", key)
    db.rollback(txn)
    report = check_log(db.log)
    assert report.ok, report.format()
    db.crash()
    db.restart()
    report = check_log(db.log)
    assert report.ok, report.format()
    assert report.records_checked > 40
    assert report.transactions_seen >= 2
    db.close()


# -- seeded violations -------------------------------------------------------


def test_broken_prev_lsn_chain_is_reported():
    msgs = findings(
        [
            upd(10, 1, NULL_LSN, page_id=7),
            upd(20, 1, 5, page_id=7, prev_page_lsn=10),
        ]
    )
    assert any("breaks the chain" in m for m in msgs)


def test_broken_prev_page_lsn_chain_is_reported():
    stale = findings(
        [
            upd(10, 1, NULL_LSN, page_id=7),
            upd(20, 1, 10, page_id=7, prev_page_lsn=10),
            upd(30, 1, 20, page_id=7, prev_page_lsn=10),  # skips lsn 20
        ]
    )
    assert any("prev_page_lsn 10 is stale" in m for m in stale)
    dangling = findings(
        [
            upd(10, 1, NULL_LSN, page_id=7),
            upd(20, 1, 10, page_id=7, prev_page_lsn=4),  # in range, unseen
        ]
    )
    assert any("names no record" in m for m in dangling)


def test_null_page_link_mid_chain_is_reported():
    """A page's chain starts only at its format record: a NULL link on a
    later record (the shape a restart that forgot the page's history
    would leave) is a broken chain."""
    msgs = findings(
        [
            upd(10, 1, NULL_LSN, page_id=7, op="format", undoable=False),
            upd(20, 1, 10, page_id=7, prev_page_lsn=10, op="insert"),
            rec(RecordKind.COMMIT, 30, 1, 20),
            upd(50, 2, NULL_LSN, page_id=7, op="insert"),  # should link to 20
            upd(60, 2, 50, page_id=7, prev_page_lsn=50, op="delete"),
        ]
    )
    assert msgs == [
        "page 7 insert record breaks the chain with a NULL prev_page_lsn (latest is 20)"
    ]


def test_null_page_link_at_a_format_is_accepted():
    msgs = findings(
        [
            upd(10, 1, NULL_LSN, page_id=7, op="page_format"),
            upd(20, 1, 10, page_id=8, op="format", undoable=False),
            upd(30, 1, 20, page_id=7, prev_page_lsn=10, op="set_page"),
        ]
    )
    assert msgs == []


def test_pre_truncation_references_are_accepted():
    msgs = findings(
        [
            upd(100, 1, 60, page_id=7, prev_page_lsn=80),
            rec(RecordKind.COMMIT, 120, 1, 100),
        ],
        first_lsn=90,
    )
    assert msgs == []


def test_duplicate_end_is_reported():
    msgs = findings(
        [
            rec(RecordKind.ROLLBACK, 10, 1, NULL_LSN, undoable=False),
            rec(RecordKind.END, 20, 1, 10, undoable=False),
            rec(RecordKind.END, 30, 1, 20, undoable=False),
        ]
    )
    assert any("record after END" in m for m in msgs)


def test_update_after_commit_is_reported():
    msgs = findings(
        [
            upd(10, 1, NULL_LSN, page_id=3),
            rec(RecordKind.COMMIT, 20, 1, 10),
            upd(30, 1, 20, page_id=3, prev_page_lsn=10),
        ]
    )
    assert any("after COMMIT" in m for m in msgs)


def test_clr_undo_next_must_go_backward():
    msgs = findings(
        [
            upd(10, 1, NULL_LSN, page_id=3),
            rec(
                RecordKind.CLR,
                20,
                1,
                10,
                page_id=3,
                prev_page_lsn=10,
                undo_next_lsn=25,
                undoable=False,
            ),
        ]
    )
    assert any("does not go backward" in m for m in msgs)


def test_undoable_purge_is_reported():
    msgs = findings([upd(10, 5, NULL_LSN, page_id=3, op="purge", undoable=True)])
    assert any("purge record marked undoable" in m for m in msgs)


def test_lsn_monotonicity_is_reported():
    msgs = findings(
        [
            rec(RecordKind.COMMIT, 20, 1, NULL_LSN),
            rec(RecordKind.COMMIT, 20, 2, NULL_LSN),
        ]
    )
    assert any("LSN not increasing" in m for m in msgs)


# -- dump files and the CLI --------------------------------------------------


def test_dump_roundtrip_and_cli(tmp_path, capsys):
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    populate(db, range(25))
    path = tmp_path / "wal.dump"
    written = write_log_file(db.log, path)
    assert written > len(MAGIC) + 8
    first_lsn, records = read_log_file(path)
    assert first_lsn == db.log.truncation_point
    live = list(db.log.records(first_lsn))
    assert [r.lsn for r in records] == [r.lsn for r in live]
    assert check_file(path).ok
    assert walcheck_main([str(path)]) == 0
    assert "walcheck: OK" in capsys.readouterr().out
    db.close()


def test_cli_fails_on_a_broken_chain(tmp_path, capsys):
    first = upd(0, 1, NULL_LSN, page_id=3)
    second = upd(0, 1, 999_999, page_id=3)  # prev_lsn names nothing real
    stream = first.to_bytes() + second.to_bytes()
    path = tmp_path / "bad.dump"
    path.write_bytes(MAGIC + struct.pack("<Q", 1) + stream)
    assert walcheck_main([str(path)]) == 1
    assert "breaks the chain" in capsys.readouterr().out


def test_old_dump_version_is_refused(tmp_path, capsys):
    stream = upd(0, 1, NULL_LSN, page_id=3).to_bytes()
    path = tmp_path / "v1.dump"
    path.write_bytes(b"RPRWAL1\x00" + struct.pack("<Q", 1) + stream)
    with pytest.raises(WalCheckError, match="re-dump"):
        read_log_file(path)
    assert walcheck_main([str(path)]) == 2
    assert "RPRWAL1" in capsys.readouterr().out


def test_bare_tagged_dict_stream_is_refused(tmp_path):
    body = encode_value({"kind": "commit", "txn_id": 1, "payload": {}})
    path = tmp_path / "v1.stream"
    path.write_bytes(frame_record(body))
    with pytest.raises(WalCheckError, match="version 3 record format"):
        read_log_file(path)


def test_bare_v3_stream_is_read(tmp_path):
    stream = upd(1, 1, NULL_LSN, page_id=3).to_bytes()
    path = tmp_path / "v3.stream"
    path.write_bytes(stream)
    first_lsn, records = read_log_file(path)
    assert first_lsn == 1
    assert [(r.lsn, r.page_id) for r in records] == [(1, 3)]
