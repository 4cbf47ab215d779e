"""Every read sees the live contents of the database.

A read that follows a write — auto-committed, committed in a transaction,
rolled back, or a TRUNCATE — returns what a fresh database that ran the
same writes returns, through every access path (sequential scan,
primary-key lookup, hash and ordered secondary indexes, a grouped
aggregate), with the result cache on and off.  The reads run once before
the write too, so the plan cache, the result cache and the column store
are all warm when the write lands and must each notice it.

Writes change ``table.rows`` in place and never replace it: the column
store's mutation counter alone decides whether its snapshot is current.
"""

import pytest

from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.result_cache import DEFAULT_RESULT_CACHE_LIMIT

# One read per access path; ``w`` has no index, so its predicate scans.
READS = {
    "seq": "SELECT id, v FROM t WHERE w > 2 ORDER BY id",
    "pk": "SELECT v, w FROM t WHERE id = 5",
    "hash": "SELECT id FROM t WHERE grp = 1 ORDER BY id",
    "ordered": "SELECT id FROM t WHERE v BETWEEN 40 AND 60 ORDER BY v, id",
    "aggregate": ("SELECT grp, COUNT(*), SUM(v) FROM t "
                  "GROUP BY grp ORDER BY grp"),
}

# Each write reaches every read above: grp 1 and v 40..60 hold ids 4..6.
WRITES = {
    "insert": ["INSERT INTO t (id, grp, v, w) VALUES (100, 1, 45, 9)"],
    "update": ["UPDATE t SET v = v + 1, w = 0 WHERE grp = 2",
               "UPDATE t SET v = 55, w = 7 WHERE id = 5"],
    "delete": ["DELETE FROM t WHERE id = 5",
               "DELETE FROM t WHERE grp = 1 AND id > 6"],
    "commit": ["BEGIN",
               "UPDATE t SET v = 999, w = 1 WHERE id = 5",
               "INSERT INTO t (id, grp, v, w) VALUES (101, 1, 50, 4)",
               "DELETE FROM t WHERE id = 4",
               "COMMIT"],
    "rollback": ["BEGIN",
                 "UPDATE t SET v = 999, w = 1 WHERE id = 5",
                 "INSERT INTO t (id, grp, v, w) VALUES (101, 1, 50, 4)",
                 "DELETE FROM t WHERE id = 4",
                 "ROLLBACK"],
    "truncate": ["TRUNCATE TABLE t",
                 "INSERT INTO t (id, grp, v, w) VALUES (5, 1, 50, 3)"],
}


def _db(writes=(), result_cache_size=DEFAULT_RESULT_CACHE_LIMIT):
    db = Database(result_cache_size=result_cache_size)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT, w INT)")
    db.execute("CREATE INDEX idx_grp ON t (grp)")
    db.execute("CREATE INDEX idx_v ON t (v) USING ORDERED")
    for i in range(10):
        db.execute("INSERT INTO t (id, grp, v, w) VALUES (?, ?, ?, ?)",
                   (i, i % 3, i * 10, i % 5))
    for sql in writes:
        db.execute(sql)
    return db


def _read_all(db):
    return {name: db.execute(sql).rows for name, sql in READS.items()}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_read_after_a_write_matches_a_fresh_database(write, cache_size):
    db = _db(result_cache_size=cache_size)
    before = _read_all(db)
    assert _read_all(db) == before  # warm: the repeats hit any cache
    for sql in WRITES[write]:
        db.execute(sql)
    expected = _read_all(_db(WRITES[write]))
    assert _read_all(db) == expected
    if write == "rollback":
        assert expected == before
    else:
        assert expected != before


def test_no_write_replaces_table_rows():
    for write in WRITES.values():
        db = _db()
        table = db.tables["t"]
        rows = table.rows
        for sql in write:
            db.execute(sql)
            assert table.rows is rows, sql
            assert table.column_store().length == len(rows), sql


def test_own_writes_are_visible_inside_a_transaction(cache_size):
    db = _db(result_cache_size=cache_size)
    before = _read_all(db)
    pending = WRITES["commit"][1:-1]
    db.execute("BEGIN")
    for sql in pending:
        db.execute(sql)
    assert _read_all(db) == _read_all(_db(pending))
    db.execute("ROLLBACK")
    assert _read_all(db) == before


def test_a_batch_shared_scan_sees_the_rows_committed_before_it():
    db = Database()
    # No secondary indexes: predicates on a / b plan as sequential scans,
    # which makes the two statements shareable.
    db.execute("CREATE TABLE s (id INT PRIMARY KEY, a INT, b INT)")
    for i in range(8):
        db.execute("INSERT INTO s (id, a, b) VALUES (?, ?, ?)",
                   (i, i % 2, i))
    driver = BatchDriver(DatabaseServer(db, CostModel()), SimClock())
    batch = [("SELECT id FROM s WHERE a = 0 ORDER BY id", ()),
             ("SELECT id FROM s WHERE b > 2 ORDER BY id", ())]
    driver.execute_batch(batch, batch_optimize=True)  # warms the cache
    db.execute("INSERT INTO s (id, a, b) VALUES (200, 0, 3)")
    results = driver.execute_batch(batch, batch_optimize=True)
    assert [r.rows for r in results] == [
        [(0,), (2,), (4,), (6,), (200,)],
        [(3,), (4,), (5,), (6,), (7,), (200,)]]
    assert driver.stats.shared_scan_groups == 2
