"""The load generator's command line and its Zipfian key skew."""

from __future__ import annotations

import json
import random

from repro.harness.loadgen import ZipfianGenerator, main
from repro.server import DatabaseServer, ServerConfig
from tests.conftest import build_db


def test_zipfian_ranks_favour_the_low_ranks():
    zipf = ZipfianGenerator(1000, 0.99, random.Random(1))
    ranks = [zipf.next_rank() for _ in range(5000)]
    assert all(0 <= rank < 1000 for rank in ranks)
    # Uniform keys would give rank 0 about 5 of 5000 draws.
    assert ranks.count(0) > 250
    assert sum(rank < 10 for rank in ranks) > len(ranks) / 4


def test_cli_drives_a_tcp_server(capsys):
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=True)
    try:
        host, port = server.address
        argv = ["--host", host, "--port", str(port), "--workers", "1"]
        assert main(argv + ["--requests", "60", "--skew", "0.99"]) == 0
    finally:
        server.shutdown()
        db.close()
    report = json.loads(capsys.readouterr().out)
    assert report["requests"] == 60
    assert report["errors"] == {}
    assert sum(report["op_counts"].values()) == 60
