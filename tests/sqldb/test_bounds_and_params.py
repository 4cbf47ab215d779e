"""LIMIT / OFFSET values and ORDER BY positions are validated in one place
each, and a statement's parameters are bound once, where they enter
``sqldb`` (the query store refuses a non-sequence at registration) — a
malformed value is the same ``SqlError`` at every public entry."""

import pytest

from repro.core import query_store
from repro.core.query_store import QueryStore
from repro.net import CostModel, DatabaseServer
from repro.net.clock import SimClock
from repro.net.driver import BatchDriver, Driver
from repro.sqldb import Database, database
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.executor import as_params
from repro.sqldb.parser import parse
from repro.sqldb.plan import batch


def _database(rows=5):
    """Five rows (or ``rows``); the ordered index makes ``ORDER BY v LIMIT
    n`` take the ``limit_hint`` cutoff."""
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
    db.execute("CREATE INDEX idx_t_v ON t (v) USING ORDERED")
    for i in range(rows):
        db.execute("INSERT INTO t (id, v, s) VALUES (?, ?, ?)",
                   (i, 10 - i, f"s{i}"))
    return db


@pytest.mark.parametrize("sql, params, message", [
    pytest.param("SELECT id FROM t ORDER BY id LIMIT ?", ("x",),
                 "LIMIT must be a non-negative integer, got 'x'",
                 id="limit-text"),
    pytest.param("SELECT id FROM t ORDER BY id LIMIT ?", (None,),
                 "LIMIT must be a non-negative integer, got None",
                 id="limit-null"),
    pytest.param("SELECT id FROM t ORDER BY id LIMIT ?", (1.5,),
                 "LIMIT must be a non-negative integer, got 1.5",
                 id="limit-float"),
    pytest.param("SELECT id FROM t ORDER BY id LIMIT ?", (True,),
                 "LIMIT must be a non-negative integer, got True",
                 id="limit-bool"),
    pytest.param("SELECT id FROM t ORDER BY id LIMIT -1", (),
                 "LIMIT must be a non-negative integer, got -1",
                 id="limit-negative"),
    pytest.param("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET ?", (-1,),
                 "OFFSET must be a non-negative integer, got -1",
                 id="offset-negative"),
    pytest.param("SELECT id FROM t ORDER BY v LIMIT ?", ("x",),
                 "LIMIT must be a non-negative integer, got 'x'",
                 id="limit-hint-cutoff-text"),
    pytest.param("SELECT id FROM t ORDER BY id LIMIT ?", (),
                 "missing parameter #1 (got 0 parameters)",
                 id="limit-missing-parameter"),
    pytest.param("SELECT id, v, s FROM t ORDER BY 7", (),
                 "ORDER BY position 7 is not in the select list",
                 id="order-position-far"),
    pytest.param("SELECT id, v, s FROM t ORDER BY 4", (),
                 "ORDER BY position 4 is not in the select list",
                 id="order-position-one-past"),
    pytest.param("SELECT id, v, s FROM t ORDER BY 0", (),
                 "ORDER BY position 0 is not in the select list",
                 id="order-position-zero"),
    pytest.param("SELECT * FROM t ORDER BY 4", (),
                 "ORDER BY position 4 is not in the select list",
                 id="order-position-star"),
])
def test_malformed_bounds_raise_sql_error_everywhere(sql, params, message):
    """Never a bare Python exception, never a silently wrong row set
    (``LIMIT -1`` used to drop the last row, ``ORDER BY 0`` to sort by the
    last column)."""
    with pytest.raises(SqlError) as err:
        _database().execute(sql, params)
    assert type(err.value) is SqlError and str(err.value) == message


def test_valid_bounds_slice_as_before():
    db = _database()
    for sql, params, ids in [
            ("SELECT id FROM t ORDER BY id LIMIT 0", (), []),
            ("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 1", (), [1, 2]),
            ("SELECT id FROM t ORDER BY id LIMIT ? OFFSET ?", (2, 3),
             [3, 4]),
            ("SELECT id FROM t ORDER BY id LIMIT 9 OFFSET 4", (), [4]),
            ("SELECT id FROM t ORDER BY v LIMIT ? OFFSET ?", (2, 1),
             [3, 2]),
            ("SELECT id, v FROM t ORDER BY 2 DESC LIMIT 2", (), [0, 1])]:
        rows = db.execute(sql, params).rows
        assert [row[0] for row in rows] == ids, (db, sql)


_MISSING = (SqlError, "missing parameter #1 (got 0 parameters)")


@pytest.mark.parametrize("sql, over_rows, over_none", [
    pytest.param("SELECT id FROM t WHERE s > ?", _MISSING, [],
                 id="scan-kernel"),
    pytest.param("SELECT id FROM t WHERE id + 0 > ?", _MISSING, [],
                 id="scan-lane"),
    pytest.param("SELECT id FROM t WHERE s BETWEEN 's1' AND ?", _MISSING,
                 [], id="scan-between"),
    pytest.param("SELECT id FROM t WHERE v + 0 > 99 AND s = ?", [], [],
                 id="scan-operand-no-row-reaches"),
    pytest.param("SELECT id FROM t WHERE v + 0 > 99 AND s BETWEEN ? AND ?",
                 [], [], id="scan-bound-no-row-reaches"),
    pytest.param("SELECT id FROM t WHERE v + 0 > 99 AND id + ?", [], [],
                 id="scan-lane-no-row-reaches"),
    pytest.param("SELECT id FROM t WHERE id = ?", _MISSING, [],
                 id="index-probe"),
    pytest.param("SELECT id FROM t WHERE v > ? ORDER BY v", _MISSING,
                 _MISSING, id="ordered-walk"),
    pytest.param("SELECT id FROM t ORDER BY id LIMIT ?", _MISSING, _MISSING,
                 id="limit"),
    pytest.param("SELECT id FROM t ORDER BY v LIMIT 1 OFFSET ?", _MISSING,
                 _MISSING, id="offset-cutoff"),
    pytest.param("SELECT SUM(v + ?) FROM t", _MISSING, [(None,)],
                 id="aggregate-argument"),
    pytest.param("SELECT s, SUM(v + ?) FROM t GROUP BY s", _MISSING, [],
                 id="grouped-aggregate-argument"),
    pytest.param("SELECT COUNT(*) + ? FROM t", _MISSING, _MISSING,
                 id="aggregate-item"),
    pytest.param("SELECT id FROM t WHERE s = 3",
                 (SqlTypeError, "cannot compare 's0' with 3"), [],
                 id="incomparable-constant"),
    pytest.param("SELECT id FROM t WHERE 3 = s",
                 (SqlTypeError, "cannot compare 3 with 's0'"), [],
                 id="incomparable-constant-left"),
    pytest.param("SELECT id FROM t WHERE s BETWEEN 1 AND 3",
                 (SqlTypeError, "cannot compare 's0' with 1"), [],
                 id="incomparable-bound"),
])
def test_a_plan_built_operand_raises_where_the_interpreter_does(
        sql, over_rows, over_none):
    """A literal or parameter is resolved by a closure built with the
    plan, and only where a row reaches it: over five rows and over none,
    each statement raises the interpreter's error — type and message —
    or returns the rows it returned when every execution resolved its
    operands through ``evaluate``.  An empty table raises nothing but
    where the operand is read before any row (a LIMIT, an ordered walk's
    bound, an item of the one group), and so does a conjunct no row
    reaches past the one before it."""
    for db, expected in ((_database(), over_rows),
                         (_database(rows=0), over_none)):
        if type(expected) is list:
            assert db.execute(sql, ()).rows == expected
            continue
        with pytest.raises(SqlError) as err:
            db.execute(sql, ())
        assert (type(err.value), str(err.value)) == expected


@pytest.mark.parametrize("params", [
    pytest.param(None, id="none"), pytest.param(5, id="scalar"),
    pytest.param("5", id="text"), pytest.param(b"5", id="bytes"),
    pytest.param({"a": 1}, id="mapping"), pytest.param({1}, id="set"),
    pytest.param(iter((1,)), id="iterator"),
])
def test_params_that_are_no_sequence_raise_sql_error_everywhere(params):
    """``None`` and a scalar used to leak ``TypeError`` from ``tuple()``;
    ``"5"`` bound ``('5',)`` and ``{"a": 1}`` bound ``('a',)`` silently.
    Each public entry that takes parameters refuses them the same way."""
    db = _database()
    model, clock = CostModel(), SimClock()
    server = DatabaseServer(db, model)
    driver = Driver(server, clock, model)
    batch_driver = BatchDriver(server, clock, model)
    for sql in ("SELECT v FROM t WHERE id = ?",
                "UPDATE t SET v = 0 WHERE id = ?"):
        entries = [
            lambda: db.execute(sql, params),
            lambda: db.execute_parsed(parse(sql), params),
            lambda: db.query(sql, params),
            lambda: server.execute_one(sql, params),
            lambda: server.execute_batch([(sql, params)]),
            lambda: server.execute_batch([(sql, params)], True),
            lambda: driver.execute(sql, params),
            lambda: batch_driver.execute_batch([(sql, params)]),
            lambda: QueryStore(batch_driver).register_query(sql, params),
        ]
        if sql.startswith("SELECT") and params is not None:
            # explain(params=None) is EXPLAIN without parameters.
            entries.append(lambda: db.explain(sql, params))
        for entry in entries:
            with pytest.raises(SqlError) as err:
                entry()
            assert type(err.value) is SqlError and \
                "must be a tuple or a list" in str(err.value)
    assert db.execute("SELECT v FROM t WHERE id = 1").rows == [(9,)]


def test_a_tuple_passes_untouched_and_a_list_is_copied():
    params = (1,)
    assert as_params(params) is params
    listed = [1]
    assert as_params(listed) == (1,) and listed == [1]
    db = _database()
    assert db.execute("SELECT v FROM t WHERE id = ?", [1]).rows == [(9,)]
    assert db.execute("UPDATE t SET v = ? WHERE id = ?",
                      [7, 1]).rowcount == 1
    assert db.execute("SELECT v FROM t WHERE id = ?", (1,)).rows == [(7,)]
    cached = Database()
    cached.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    cached.execute("SELECT id FROM t WHERE id = ?", [1])
    assert cached.execute("SELECT id FROM t WHERE id = ?", (1,)).from_cache
    assert "status='hit'" in cached.explain(
        "SELECT id FROM t WHERE id = ?", params=[1])


@pytest.mark.parametrize("shared_scans", [False, True],
                         ids=["direct", "batch-plan"])
def test_a_registered_statement_binds_its_parameters_once(monkeypatch,
                                                          shared_scans):
    """Through the query store, the driver and either server path, each
    statement's parameters pass ``as_params`` once: the store keys a tuple
    as it comes, the engine binds it.  (The store bound it as well, and
    the shared-scan path bound a write a second time.)"""
    bound = []

    def counting(params):
        bound.append(params)
        return as_params(params)

    model = CostModel()
    store = QueryStore(BatchDriver(DatabaseServer(_database(), model),
                                   SimClock(), model),
                       shared_scans=shared_scans)
    for module in (database, batch, query_store):
        monkeypatch.setattr(module, "as_params", counting)
    reads = [store.register_query("SELECT v FROM t WHERE id = ?", (i,))
             for i in range(3)]
    write = store.register_query("UPDATE t SET v = ? WHERE id = ?", (7, 0))
    assert write.result.rowcount == 1
    assert [store.get_result_set(r).rows for r in reads] == [
        [(10,)], [(9,)], [(8,)]]
    assert bound == [(0,), (1,), (2,), (7, 0)]
