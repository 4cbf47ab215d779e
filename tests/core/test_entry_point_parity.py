"""Entry-point parity: a statement's outcome does not depend on the way in.

The same list of SELECTs runs five ways — ``Database.execute``,
``Driver.execute``, a one-statement ``BatchDriver`` batch, the Sloth query
store with each statement registered and fetched alone, and the store with
the whole list registered as one batch — each on a fresh database, with
the cross-request result cache on and off.  Every way must give what
``Database.execute`` gives with the cache off: the same rows, value *and*
type, or the same error type.  The one documented difference is the store
batch, which fails as one: when any statement of it fails, every id of it
raises the first failure.

Parameters are drawn so that equal values of different types meet — ``1``,
``1.0`` and ``True`` hash alike in Python but bind differently — and
include non-sequences, which every entry refuses with ``SqlError`` (the
store at registration, where the original program executes).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.query_store import QueryStore
from repro.core.runtime import SlothRuntime
from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver, Driver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlTypeError

BY_ID = "SELECT id FROM t WHERE id = ?"
ECHO = "SELECT ? AS v FROM t WHERE id = 1"
STATEMENTS = (BY_ID, ECHO, "SELECT id FROM t WHERE f = ?",
              "SELECT id FROM t WHERE b = ?", "SELECT id FROM t WHERE s = ?")

scalars = st.one_of(st.integers(-1, 3), st.sampled_from([0.0, 1.0, 2.5]),
                    st.floats(-3, 3, allow_nan=False), st.booleans(),
                    st.sampled_from(["a", "1", ""]), st.none())
params = st.one_of(
    st.tuples(scalars), st.lists(scalars, max_size=2),
    # Not a sequence of parameters: refused everywhere.
    st.none(), st.integers(0, 3), st.sampled_from(["1", "ab"]),
    st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=2),
    st.sets(st.integers(0, 3), max_size=2))
programs = st.lists(st.tuples(st.sampled_from(STATEMENTS), params),
                    min_size=1, max_size=6)


def _database(cache):
    db = Database(result_cache_size=4096 if cache else 0)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, f FLOAT, "
               "b BOOLEAN, s TEXT)")
    db.execute("INSERT INTO t (id, f, b, s) VALUES (1, 1.0, TRUE, 'a'), "
               "(2, 2.5, FALSE, '1'), (3, NULL, NULL, NULL)")
    return db


def _server(cache):
    return DatabaseServer(_database(cache), CostModel())


def _typed(rows):
    """Rows with every value's type beside it: ``(1,)`` is not ``(1.0,)``."""
    return [tuple((type(value), value) for value in row) for row in rows]


def _outcome(run):
    try:
        return "rows", _typed(run().rows)
    except SqlError as error:
        return "error", type(error)


def _each(program, run):
    return [_outcome(lambda: run(sql, p)) for sql, p in program]


def _database_execute(program, cache):
    db = _database(cache)
    return _each(program, db.execute)


def _driver_execute(program, cache):
    return _each(program, Driver(_server(cache), SimClock()).execute)


def _batch_of_one(program, cache):
    driver = BatchDriver(_server(cache), SimClock())
    return _each(program, lambda sql, p: driver.execute_batch([(sql, p)])[0])


def _store(cache):
    return QueryStore(BatchDriver(_server(cache), SimClock()))


def _store_alone(program, cache):
    store = _store(cache)
    return _each(program, lambda sql, p: store.get_result_set(
        store.register_query(sql, p)))


def _store_batch(program, cache):
    """Register the whole list, then fetch every id: a registration error
    is that statement's outcome, the rest share one batch."""
    store = _store(cache)
    registered = []
    for sql, p in program:
        try:
            registered.append(store.register_query(sql, p))
        except SqlError as error:
            registered.append(("error", type(error)))
    return [entry if isinstance(entry, tuple)
            else _outcome(lambda: store.get_result_set(entry))
            for entry in registered]


WAYS = (_database_execute, _driver_execute, _batch_of_one, _store_alone)


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off",
                                                      "cache-on"])
@given(program=programs)
@settings(max_examples=120, deadline=None)
@example(program=[(BY_ID, (1,)), (BY_ID, (True,))])
@example(program=[(ECHO, (1,)), (ECHO, (1.0,)), (ECHO, (True,))])
@example(program=[(BY_ID, "1"), (BY_ID, None), (BY_ID, 1), (BY_ID, {1: 2}),
                  (BY_ID, {1})])
def test_every_way_in_gives_the_reference_outcome(cache, program):
    reference = _database_execute(program, cache=False)
    for way in WAYS:
        assert way(program, cache) == reference, way.__name__
    # One batch fails as one: the first failure of what was registered.
    expected = list(reference)
    registered = [outcome for (sql, p), outcome in zip(program, reference)
                  if isinstance(p, (tuple, list))]
    failures = [outcome for outcome in registered if outcome[0] == "error"]
    if failures:
        expected = [outcome if not isinstance(p, (tuple, list))
                    else failures[0]
                    for (sql, p), outcome in zip(program, reference)]
    assert _store_batch(program, cache) == expected


# -- the two bugs the property found, pinned ------------------------------


@pytest.mark.parametrize("bad", ["1", None, 1, {1: 2}, {1}],
                         ids=["str", "None", "int", "dict", "set"])
def test_the_store_refuses_non_sequence_params_at_registration(bad):
    server = _server(cache=True)
    clock = SimClock()
    runtime = SlothRuntime(BatchDriver(server, clock), clock, CostModel())
    with pytest.raises(SqlError, match="must be a tuple or a list"):
        runtime.query(BY_ID, bad)
    with pytest.raises(SqlError, match="must be a tuple or a list"):
        runtime.execute_write("UPDATE t SET s = 'x' WHERE id = ?", bad)
    assert clock.now == 0.0  # refused before anything shipped
    assert runtime.query_store.pending_count == 0


def test_equal_params_of_different_types_do_not_share_a_cached_result():
    db = _database(cache=True)
    assert db.execute(BY_ID, (1,)).rows == [(1,)]
    with pytest.raises(SqlTypeError):  # what a cold cache raises
        db.execute(BY_ID, (True,))
    assert db.execute(BY_ID, (1.0,)).rows == [(1,)]
    assert _typed(db.execute(ECHO, (1,)).rows) == [((int, 1),)]
    assert _typed(db.execute(ECHO, (1.0,)).rows) == [((float, 1.0),)]
    assert _typed(db.execute(ECHO, (True,)).rows) == [((bool, True),)]
    assert db.result_cache.hits == 0


def test_equal_params_of_different_types_are_three_queries_in_a_batch():
    store = _store(cache=False)
    ids = [store.register_query(ECHO, p) for p in [(1,), (True,), (1.0,),
                                                   [1]]]
    assert len(set(ids[:3])) == 3 and ids[3] is ids[0]
    assert store.stats.dedup_hits == 1
    assert [_typed(store.get_result_set(i).rows) for i in ids[:3]] == [
        [((int, 1),)], [((bool, True),)], [((float, 1.0),)]]
