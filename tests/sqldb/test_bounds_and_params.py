"""LIMIT / OFFSET values and ORDER BY positions are validated in one place
each, and a statement's parameters are normalised once, in
``execute_parsed`` — the same error, or the same rows, on both engines."""

import pytest

from repro.net import CostModel, DatabaseServer
from repro.sqldb import Database
from repro.sqldb.errors import SqlError
from repro.sqldb.executor import as_params


def _engines():
    """The same five rows behind each engine; the ordered index makes
    ``ORDER BY v LIMIT n`` take the ``limit_hint`` cutoff."""
    dbs = [Database(engine=engine, result_cache_size=0)
           for engine in Database.ENGINES]
    for db in dbs:
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
        db.execute("CREATE INDEX idx_t_v ON t (v) USING ORDERED")
        for i in range(5):
            db.execute("INSERT INTO t (id, v, s) VALUES (?, ?, ?)",
                       (i, 10 - i, f"s{i}"))
    return dbs


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
    last column) — and the same error on both engines."""
    for db in _engines():
        with pytest.raises(SqlError) as err:
            db.execute(sql, params)
        assert type(err.value) is SqlError and str(err.value) == message, db


def test_valid_bounds_slice_as_before():
    for db in _engines():
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


@pytest.mark.parametrize("params", [
    pytest.param(None, id="none"), pytest.param(5, id="scalar"),
    pytest.param("5", id="text"), pytest.param(b"5", id="bytes"),
    pytest.param({"a": 1}, id="mapping"), pytest.param({1}, id="set"),
    pytest.param(iter((1,)), id="iterator"),
])
def test_params_that_are_no_sequence_raise_sql_error_everywhere(params):
    """``None`` and a scalar used to leak ``TypeError`` from ``tuple()``;
    ``"5"`` bound ``('5',)`` and ``{"a": 1}`` bound ``('a',)`` silently."""
    engines = _engines()
    for db in engines:
        for sql in ("SELECT v FROM t WHERE id = ?",
                    "UPDATE t SET v = 0 WHERE id = ?"):
            with pytest.raises(SqlError) as err:
                db.execute(sql, params)
            assert type(err.value) is SqlError, db
            assert "must be a tuple or a list" in str(err.value)
        assert db.execute("SELECT v FROM t WHERE id = 1").rows == [(9,)]
    server = DatabaseServer(engines[0], CostModel())
    for batch_optimize in (False, True):
        with pytest.raises(SqlError):
            server.execute_batch([("SELECT v FROM t WHERE id = ?", params)],
                                 batch_optimize=batch_optimize)


def test_a_tuple_passes_untouched_and_a_list_is_copied():
    params = (1,)
    assert as_params(params) is params
    listed = [1]
    assert as_params(listed) == (1,) and listed == [1]
    for db in _engines():
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
