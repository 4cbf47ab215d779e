"""Unit tests for the sharding subsystem: routing classification, write
fan-out, insert splitting, the scatter merge, and the facade's cost
surface (``shard_phases``)."""

import pytest

from repro.net import CostModel, DatabaseServer
from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.executor import as_params
from repro.sqldb.parser import parse
from repro.sqldb.shard import (COORD_STATION, KIND_BROADCAST_READ,
                               KIND_GATHER, KIND_SCATTER, KIND_SINGLE,
                               PartitionSpec, Router, ShardTopology,
                               ShardedDatabase)

TOPO = ShardTopology(4, {"t": PartitionSpec("grp"),
                         "child": PartitionSpec("grp"),
                         "other": PartitionSpec("grp", "range", (1, 2, 3))})


def _catalog():
    db = Database()
    for table in ("t", "child", "other", "lk"):
        db.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY, grp INT)")
    return db


CATALOG = _catalog()


def decide(sql, params=()):
    return Router(TOPO, CATALOG).decide(parse(sql), params)


# ---------------------------------------------------------------------------
# Routing classification
# ---------------------------------------------------------------------------

def test_partition_key_equality_is_single_shard():
    d = decide("SELECT id FROM t WHERE grp = ?", (6,))
    assert d.kind == KIND_SINGLE
    assert list(d.shards) == [6 % 4]


def test_in_list_spanning_one_shard_is_single():
    d = decide("SELECT id FROM t WHERE grp IN (1, 5)")  # both hash to 1
    assert d.kind == KIND_SINGLE
    assert list(d.shards) == [1]


def test_in_list_spanning_two_shards_scatters_to_subset():
    d = decide("SELECT id FROM t WHERE grp IN (1, 2)")
    assert d.kind == KIND_SCATTER
    assert sorted(d.shards) == [1, 2]


def test_unrestricted_read_scatters_everywhere():
    d = decide("SELECT id FROM t ORDER BY id")
    assert d.kind == KIND_SCATTER
    assert list(d.shards) == [0, 1, 2, 3]


def test_aggregate_without_key_gathers():
    d = decide("SELECT COUNT(*) FROM t")
    assert d.kind == KIND_GATHER


def test_aggregate_with_key_stays_single_shard():
    d = decide("SELECT COUNT(*) FROM t WHERE grp = 2")
    assert d.kind == KIND_SINGLE
    assert list(d.shards) == [2]


def test_broadcast_table_read_pins_to_one_shard():
    d = decide("SELECT id FROM lk WHERE id = 3")
    assert d.kind == KIND_BROADCAST_READ
    assert len(list(d.shards)) == 1


def test_broadcast_pin_varies_with_params_but_is_deterministic():
    router = Router(TOPO, CATALOG)
    stmt = parse("SELECT id FROM lk WHERE id = ?")
    pins = {router.broadcast_read_shard(stmt, (k,)) for k in range(32)}
    assert len(pins) > 1  # spreads across the fleet
    assert (router.broadcast_read_shard(stmt, (3,))
            == router.broadcast_read_shard(stmt, (3,)))


def test_a_nan_key_scatters():
    """NaN equals every number to one node: no placement holds its rows."""
    d = decide("SELECT id FROM t WHERE grp = ?", (float("nan"),))
    assert d.kind == KIND_SCATTER
    assert list(d.shards) == [0, 1, 2, 3]


def test_contradictory_keys_route_to_one_empty_shard():
    d = decide("SELECT id FROM t WHERE grp = 1 AND grp = 2")
    assert d.kind == KIND_SINGLE
    assert "empty shard set" in d.detail


def test_non_co_partitioned_join_gathers():
    # t is hash-partitioned, other is range-partitioned: an INNER join on
    # the partition columns cannot be served shard-locally.
    d = decide("SELECT t.id FROM t JOIN other o ON t.grp = o.grp")
    assert d.kind == KIND_GATHER


def test_co_partitioned_join_scatters():
    d = decide("SELECT t.id FROM t JOIN child c ON t.grp = c.grp")
    assert d.kind == KIND_SCATTER


def test_left_join_of_two_partitioned_tables_gathers():
    d = decide("SELECT t.id FROM t LEFT JOIN child c ON t.grp = c.grp")
    assert d.kind == KIND_GATHER


def test_computed_limit_gathers():
    d = decide("SELECT id FROM t ORDER BY id LIMIT 1 + 2")
    assert d.kind == KIND_GATHER


# ---------------------------------------------------------------------------
# The facade: writes, phases, errors
# ---------------------------------------------------------------------------

def make_db(**kwargs):
    db = ShardedDatabase(ShardTopology(4, {"t": PartitionSpec("grp")}),
                         **kwargs)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INT, val INT)")
    db.execute("CREATE TABLE lk (id INTEGER PRIMARY KEY, label TEXT)")
    return db


def test_multi_row_insert_splits_by_partition_key():
    db = make_db()
    db.execute("INSERT INTO t (id, grp, val) VALUES "
               "(1, 0, 10), (2, 1, 20), (3, 4, 30)")
    assert db.primary(0).query("SELECT id FROM t") == [{"id": 1},
                                                       {"id": 3}]
    assert db.primary(1).query("SELECT id FROM t") == [{"id": 2}]
    assert db.table_size("t") == 3


def test_an_insert_without_a_column_list_routes_by_the_key_ordinal():
    """VALUES in schema order carry the partition key at its ordinal (the
    statement has no column list to look it up in)."""
    db = make_db()
    db.execute("INSERT INTO t VALUES (1, 0, 10), (2, 1, 20), (3, 4, 30)")
    assert db.primary(0).query("SELECT id FROM t") == [{"id": 1},
                                                       {"id": 3}]
    assert db.primary(1).query("SELECT id FROM t") == [{"id": 2}]
    assert db.execute("SELECT val FROM t WHERE grp = ?", (4,)).rows == [
        (30,)]
    with pytest.raises(SqlError, match="3 columns but 1 values"):
        db.execute("INSERT INTO t VALUES (9)")


@pytest.mark.parametrize("key, selected", [
    (float("nan"), [(1,), (2,), (3,)]), (2.0, [(3,)]),
    ("1", SqlTypeError), (True, SqlTypeError)])
@pytest.mark.parametrize("sql", [
    "SELECT id FROM t WHERE grp = ? ORDER BY id",
    "SELECT id FROM t WHERE grp IN (?, 4) ORDER BY id",
    "UPDATE t SET val = val + 1 WHERE grp = ?",
    "DELETE FROM t WHERE grp = ? AND val < 0",
])
def test_a_key_no_placement_answers_goes_to_every_shard(key, selected, sql):
    """One node compares the key with every row: NaN equals every number,
    ``2.0`` the ``2`` placed as an int, text and TRUE raise wherever a row
    is.  Routed by its own placement (shard 1, 0, 3, 3 here, where only
    shards 0 and 2 hold rows), the key found none of that."""
    outcomes = []
    for db in (Database(), make_db()):
        if isinstance(db, Database):
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INT, "
                       "val INT)")
        db.execute("INSERT INTO t (id, grp, val) VALUES (1, 0, 1), "
                   "(2, 4, 2), (3, 2, 3)")
        try:
            result = db.execute(sql, (key,))
        except SqlError as error:
            outcomes.append(type(error))
        else:
            outcomes.append(result.rows if sql.startswith("SELECT")
                            else result.rowcount)
    assert outcomes[0] == outcomes[1]
    if "grp = ? ORDER BY" in sql:
        assert outcomes[0] == selected


@pytest.mark.parametrize("spec", [PartitionSpec("grp"),
                                  PartitionSpec("grp", "range", (1, 2, 3))],
                         ids=["hash", "range"])
@pytest.mark.parametrize("key", [1.0, 2.0, 3.0, 4.0, 5.0])
def test_an_integral_float_key_is_placed_as_the_int_it_is_stored_as(
        spec, key):
    """An INTEGER column stores ``2.0`` as ``2``, so the row must sit on
    ``2``'s shard: every later statement keyed on ``2`` is routed there
    (hashing the text ``"2.0"`` put it on shard 0), and an UPDATE writing
    ``2.0`` over ``2`` moves nothing."""
    db = ShardedDatabase(ShardTopology(4, {"t": spec}))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INTEGER, v INT)")
    db.execute("INSERT INTO t (id, grp, v) VALUES (?, ?, ?)", (1, key, 5))
    stored = (int(key),)
    assert db.execute("SELECT id, grp FROM t WHERE grp = ?",
                      stored).rows == [(1, int(key))]
    assert db.execute("UPDATE t SET v = v + 1 WHERE grp = ?",
                      stored).rowcount == 1
    assert db.execute("SELECT v FROM t WHERE id = 1").rows == [(6,)]
    # Rewriting the key to the same stored value moves no row.
    assert db.execute("UPDATE t SET grp = ? WHERE grp = ?",
                      (key, *stored)).rowcount == 1
    assert db.execute("DELETE FROM t WHERE grp = ?", stored).rowcount == 1
    assert db.table_size("t") == 0


def test_partition_key_update_moving_shards_is_rejected():
    db = make_db()
    db.execute("INSERT INTO t (id, grp, val) VALUES (1, 0, 10)")
    with pytest.raises(SqlError):
        db.execute("UPDATE t SET grp = 1 WHERE id = 1")
    # Same-shard rewrites of the key are fine (0 and 4 both hash to 0)
    # when the WHERE pins the statement to that one shard.
    db.execute("UPDATE t SET grp = 4 WHERE grp = 0")
    assert db.execute("SELECT grp FROM t WHERE grp = 4").rows == [(4,)]


def test_single_shard_read_has_one_phase_one_station():
    db = make_db()
    db.execute("INSERT INTO t (id, grp, val) VALUES (1, 2, 10)")
    result = db.execute("SELECT id FROM t WHERE grp = 2")
    assert result.shard_phases == (((2, result.rows_touched, False),),)


def test_scatter_read_has_one_phase_with_every_target():
    db = make_db()
    for i in range(8):
        db.execute("INSERT INTO t (id, grp, val) VALUES (?, ?, 0)",
                   (i, i % 4))
    result = db.execute("SELECT id FROM t ORDER BY id")
    (phase,) = result.shard_phases
    assert sorted(station for station, _r, _c in phase) == [0, 1, 2, 3]
    assert sum(rows for _s, rows, _c in phase) == result.rows_touched


def test_gather_read_charges_sync_then_coordinator():
    db = make_db()
    for i in range(8):
        db.execute("INSERT INTO t (id, grp, val) VALUES (?, ?, 1)",
                   (i, i % 4))
    result = db.execute("SELECT SUM(val) FROM t")
    assert result.rows == [(8,)]
    sync_phase, coord_phase = result.shard_phases
    assert sorted(s for s, _r, _c in sync_phase) == [0, 1, 2, 3]
    assert [s for s, _r, _c in coord_phase] == [COORD_STATION]


def test_gather_reuses_coordinator_copy_until_a_write():
    db = make_db()
    db.execute("INSERT INTO t (id, grp, val) VALUES (1, 2, 10)")
    first = db.execute("SELECT SUM(val) FROM t")
    assert len(first.shard_phases) == 2  # sync + coordinator
    second = db.execute("SELECT COUNT(*) FROM t")
    assert len(second.shard_phases) == 1  # warm coordinator copy
    db.execute("INSERT INTO t (id, grp, val) VALUES (2, 3, 5)")
    third = db.execute("SELECT SUM(val) FROM t")
    assert len(third.shard_phases) == 2  # resynced
    assert third.rows == [(15,)]


def test_rollback_discards_all_shards():
    db = make_db()
    db.execute("BEGIN")
    db.execute("INSERT INTO t (id, grp, val) VALUES (1, 0, 1)")
    db.execute("INSERT INTO t (id, grp, val) VALUES (2, 1, 2)")
    db.execute("ROLLBACK")
    assert db.table_size("t") == 0


def test_facade_opts_out_of_batch_planning():
    assert ShardedDatabase.supports_batch_plan is False


def test_result_cache_toggle_fans_out():
    db = make_db()
    db.result_cache.enabled = False
    assert all(not backend.result_cache.enabled
               for backend in db.all_databases())
    db.result_cache.enabled = True
    # The coordinator runs cacheless by construction (size 0); every
    # primary and replica re-enables.
    assert all(backend.result_cache.enabled
               for backend in db.all_databases()
               if backend.result_cache.limit > 0)


def test_engine_setter_fans_out():
    db = make_db()
    assert db.engine == Database.ENGINES[0]
    db.engine = "row"
    assert db.engine == db.engine_stats()["engine"] == "row"
    assert all(backend.engine == "row" for backend in db.all_databases())
    # An unknown engine is rejected before any backend changes.
    with pytest.raises(ValueError):
        db.engine = "batch"
    assert all(backend.engine == "row" for backend in db.all_databases())


def test_explain_analyze_is_rejected():
    db = make_db()
    with pytest.raises(SqlError):
        db.explain("SELECT id FROM t", analyze=True)


# ---------------------------------------------------------------------------
# LIMIT / OFFSET / ORDER BY position validation: one resolver, every backend
# ---------------------------------------------------------------------------

def _bound_backends():
    """The same five rows behind each engine and a 2-shard topology; the
    ordered index makes ``ORDER BY v LIMIT n`` take the ``limit_hint``
    cutoff on the single nodes."""
    dbs = [Database(engine=engine, result_cache_size=0)
           for engine in Database.ENGINES]
    dbs.append(ShardedDatabase(ShardTopology(2, {"t": PartitionSpec("id")})))
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
    last column) — and the same error on every backend."""
    for db in _bound_backends():
        with pytest.raises(SqlError) as err:
            db.execute(sql, params)
        assert type(err.value) is SqlError and str(err.value) == message, db


def test_valid_bounds_slice_as_before():
    for db in _bound_backends():
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


# ---------------------------------------------------------------------------
# Parameter shapes: normalised once, in execute_parsed, on every backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [
    pytest.param(None, id="none"), pytest.param(5, id="scalar"),
    pytest.param("5", id="text"), pytest.param(b"5", id="bytes"),
    pytest.param({"a": 1}, id="mapping"), pytest.param({1}, id="set"),
    pytest.param(iter((1,)), id="iterator"),
])
def test_params_that_are_no_sequence_raise_sql_error_everywhere(params):
    """``None`` and a scalar used to leak ``TypeError`` from ``tuple()``;
    ``"5"`` bound ``('5',)`` and ``{"a": 1}`` bound ``('a',)`` silently."""
    backends = _bound_backends()
    for db in backends:
        for sql in ("SELECT v FROM t WHERE id = ?",
                    "UPDATE t SET v = 0 WHERE id = ?"):
            with pytest.raises(SqlError) as err:
                db.execute(sql, params)
            assert type(err.value) is SqlError, db
            assert "must be a tuple or a list" in str(err.value)
        assert db.execute("SELECT v FROM t WHERE id = 1").rows == [(9,)]
    server = DatabaseServer(backends[0], CostModel())
    for batch_optimize in (False, True):
        with pytest.raises(SqlError):
            server.execute_batch([("SELECT v FROM t WHERE id = ?", params)],
                                 batch_optimize=batch_optimize)


def test_a_tuple_passes_untouched_and_a_list_is_copied():
    params = (1,)
    assert as_params(params) is params
    listed = [1]
    assert as_params(listed) == (1,) and listed == [1]
    for db in _bound_backends():
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
