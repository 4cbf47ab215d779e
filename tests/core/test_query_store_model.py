"""The query store against the paper's §3.3, written down as a dict.

:class:`DictStore` is the model: a pending batch and a map from query id to
result set that never forgets — no slots on ids, no lifetime question.  A
Hypothesis sequence of fresh / twin reads, reads the engine refuses (an
unknown column, an unhashable parameter), writes, fetches (of any id ever
minted, of a hand-built one, of another store's), ``flush`` and ``drain``
runs through both, each on its own database and clock, across auto-flush
thresholds and sync / async dispatch.  After every step the two must have
served the same rows, raised the same error for the same ids, and agree on
round trips, batches, dedup hits, queries issued and the virtual clock.

A batch is one round trip and fails as one: in the model, a failed batch's
ids map to its exception, and every fetch of one raises it again.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_store import (DEFAULT_PIPELINE_DEPTH, QueryId,
                                    QueryStore)
from repro.core.runtime import SlothRuntime
from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver, Driver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlTypeError

READ = "SELECT v FROM t WHERE id = ?"
WRITE = "UPDATE t SET v = v + 1 WHERE id = 0"
BAD_READ = "SELECT nope FROM t"  # parses; the engine refuses it


def _batch_driver():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(4):
        db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i * 10))
    cost_model = CostModel()
    return BatchDriver(DatabaseServer(db, cost_model), SimClock(), cost_model)


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


class DictStore:
    """§3.3: the current batch, and every result ever issued by id."""

    def __init__(self, driver, threshold, async_dispatch):
        self.driver = driver
        self.threshold = threshold
        self.async_dispatch = async_dispatch
        self.batch = []  # (id, sql, params); an id is (this store, n)
        self.results = {}  # id -> result set, or its batch's exception
        self.completions = {}  # id -> in-flight batch, until first fetched
        self.in_flight = []
        self.minted = self.batches = self.dedup_hits = self.issued = 0

    def register(self, sql, params=()):
        read = sql != WRITE
        # A statement that cannot be a dict key has no twin.
        if read and _hashable(params):
            for query_id, pending_sql, pending_params in self.batch:
                if (pending_sql, pending_params) == (sql, params):
                    self.dedup_hits += 1
                    return query_id
        self.minted += 1
        query_id = (self, self.minted)
        self.batch.append((query_id, sql, params))
        if not read or len(self.batch) == self.threshold:
            self.issue(background=self.async_dispatch and read)
        return query_id

    def issue(self, background):
        batch, self.batch = self.batch, []
        if not batch:
            return
        statements = [(sql, params) for _, sql, params in batch]
        try:
            if background:
                while len(self.in_flight) >= DEFAULT_PIPELINE_DEPTH:
                    self.land(self.in_flight[0])
                completion, results = self.driver.execute_batch_async(
                    statements)
                self.in_flight.append(completion)
                self.completions.update((query_id, completion)
                                        for query_id, _, _ in batch)
            else:
                self.drain()  # the [Write query] barrier; a no-op when sync
                results = self.driver.execute_batch(statements)
        except SqlError as error:
            # Fails as one: not a batch flushed, not a query issued.
            self.results.update((query_id, error) for query_id, _, _ in batch)
            raise
        self.results.update(
            (query_id, result) for (query_id, _, _), result
            in zip(batch, results))
        self.batches += 1
        self.issued += len(batch)

    def land(self, completion):
        self.driver.wait(completion)
        if completion in self.in_flight:
            self.in_flight.remove(completion)

    def drain(self):
        while self.in_flight:
            self.land(self.in_flight[0])

    def get(self, query_id):
        if query_id[0] is not self:
            raise KeyError(query_id)
        if query_id not in self.results:
            self.issue(background=self.async_dispatch)
        result = self.results[query_id]
        if isinstance(result, SqlError):
            raise result
        if query_id in self.completions:
            self.land(self.completions.pop(query_id))
        return result


_OPS = st.lists(st.one_of(
    st.tuples(st.just("read"), st.integers(0, 3)),  # small domain: twins
    st.tuples(st.just("bad_read")),
    st.tuples(st.just("unhashable_read"), st.integers(0, 1)),
    st.tuples(st.just("write")),
    st.tuples(st.just("get"), st.integers(0, 200)),
    st.tuples(st.just("get_hand_built")),
    st.tuples(st.just("get_foreign")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("drain")),
), max_size=60)

_STATEMENTS = {
    "read": lambda op: (READ, (op[1],)),
    "bad_read": lambda op: (BAD_READ, ()),
    "unhashable_read": lambda op: (READ, ([op[1]],)),
    "write": lambda op: (WRITE, ()),
}


def _attempt(call, *args):
    """``(value, None)``, or ``(None, what was raised)``: a KeyError by its
    type (the two sides word it differently), an engine error by type and
    message."""
    try:
        return call(*args), None
    except KeyError:
        return None, KeyError
    except SqlError as error:
        return None, (type(error), str(error))


@given(ops=_OPS, threshold=st.sampled_from([None, 1, 3]),
       async_dispatch=st.booleans())
@settings(max_examples=150, deadline=None)
def test_store_matches_the_dict_model(ops, threshold, async_dispatch):
    store = QueryStore(_batch_driver(), auto_flush_threshold=threshold,
                       async_dispatch=async_dispatch)
    model = DictStore(_batch_driver(), threshold, async_dispatch)
    other_store = QueryStore(store.driver)
    other_model = DictStore(model.driver, None, False)
    # Every id ever handed out stays held here, so all of them must stay
    # servable — with rows or with their batch's error — however much
    # traffic follows.  (A registration whose own flush raised hands out
    # no id; its number is spent on both sides.)
    minted, model_minted = [], []
    for step, op in enumerate(ops):
        kind = op[0]
        seen = expected = (None, None)
        if kind in _STATEMENTS:
            sql, params = _STATEMENTS[kind](op)
            seen = _attempt(store.register_query, sql, params)
            expected = _attempt(model.register, sql, params)
            if seen[1] is None and expected[1] is None:
                minted.append(seen[0])
                model_minted.append(expected[0])
            seen, expected = (None, seen[1]), (None, expected[1])
        elif kind == "get" and minted:
            at = op[1] % len(minted)
            seen = _attempt(store.get_result_set, minted[at])
            expected = _attempt(model.get, model_minted[at])
            assert seen[1] is not KeyError, (step, op)
        elif kind == "get_hand_built":
            # Unknown to the store: the pending batch is flushed on its
            # behalf (and may fail), then it is a KeyError.
            seen = _attempt(store.get_result_set, QueryId(store, 10 ** 6))
            expected = _attempt(model.get, (model, 10 ** 6))
            assert seen[1] is not None, (step, op)
        elif kind == "get_foreign":
            seen = _attempt(store.get_result_set, QueryId(other_store, 1))
            expected = _attempt(model.get, (other_model, 1))
            assert seen[1] is KeyError, (step, op)
        elif kind == "flush":
            seen = _attempt(store.flush)
            expected = _attempt(model.issue, async_dispatch)
        elif kind == "drain":
            store.drain()
            model.drain()
        seen_rows = None if seen[0] is None else seen[0].rows
        expected_rows = None if expected[0] is None else expected[0].rows
        assert (seen_rows, seen[1]) == (expected_rows, expected[1]), (step, op)
        assert {
            "ids": [query_id.value for query_id in minted],
            "round_trips": store.driver.stats.round_trips,
            "batches_flushed": store.stats.batches_flushed,
            "dedup_hits": store.stats.dedup_hits,
            "queries_issued": store.driver.stats.statements,
            "pending": store.pending_count,
            "in_flight": store.in_flight_count,
            "now": store.driver.clock.now,
        } == {
            "ids": [n for _, n in model_minted],
            "round_trips": model.driver.stats.round_trips,
            "batches_flushed": model.batches,
            "dedup_hits": model.dedup_hits,
            "queries_issued": model.issued,
            "pending": len(model.batch),
            "in_flight": len(model.in_flight),
            "now": model.driver.clock.now,
        }, (step, op)


@pytest.mark.parametrize("async_dispatch", [False, True],
                         ids=["sync", "async"])
def test_a_failed_batch_fails_as_one_and_stays_failed(async_dispatch):
    """Regression: the buffer was cleared before the driver raised and no
    id ever got a result, so after the first ``SqlError`` every query of
    the batch — the forcer's own included — was ``KeyError: unknown query
    id`` for ever, blaming ids the store itself had minted."""
    driver = _batch_driver()
    model = driver.cost_model
    store = QueryStore(driver, async_dispatch=async_dispatch)
    a = store.register_query(READ, (1,))
    b = store.register_query(BAD_READ)
    c = store.register_query("SELECT id FROM t")
    with pytest.raises(SqlError, match="unknown column 'nope'") as first:
        store.get_result_set(a)
    charged = driver.clock.now
    # The driver's charges before the server raised stay: the call, and —
    # when the round trip is not in the background — the network.
    assert charged == model.driver_call_app_ms + (0 if async_dispatch else (
        model.round_trip_ms + 3 * model.serialization_per_query_ms))
    for query_id in (b, c, a, b):
        with pytest.raises(SqlError) as again:
            store.get_result_set(query_id)
        assert type(again.value) is type(first.value)
        assert str(again.value) == str(first.value)
    # Nothing was re-issued, flushed or counted on their behalf.
    assert driver.clock.now == charged
    assert (driver.stats.round_trips, store.stats.batches_flushed,
            driver.stats.statements, store.pending_count,
            store.in_flight_count) == (0, 0, 0, 0, 0)
    # Later batches of the same store are unaffected.
    d = store.register_query(READ, (2,))
    again_b = store.register_query(BAD_READ)  # a new id, a new batch
    assert again_b is not b and d.value == 4
    with pytest.raises(SqlError, match="unknown column 'nope'"):
        store.get_result_set(again_b)
    e = store.register_query(READ, (2,))
    assert store.get_result_set(e).rows == [(20,)]
    assert (store.stats.batches_flushed, driver.stats.statements) == (1, 1)
    with pytest.raises(SqlError, match="unknown column 'nope'"):
        store.get_result_set(d)  # shipped beside again_b: failed with it


@pytest.mark.parametrize("async_dispatch", [False, True],
                         ids=["sync", "async"])
def test_an_unhashable_parameter_is_the_engines_to_refuse(async_dispatch):
    """Regression: ``runtime.query(sql, ([1],))`` died at *registration*
    in the dedup probe with builtin ``TypeError: unhashable type: 'list'``;
    the original application's driver reaches the engine, whose scan
    refuses the comparison (``SqlTypeError``).  Sloth must raise what the
    original does."""
    driver = _batch_driver()
    with pytest.raises(SqlTypeError) as original:
        Driver(driver.server, SimClock()).execute(READ, ([1],))
    runtime = SlothRuntime(driver, driver.clock, driver.cost_model,
                           async_dispatch=async_dispatch)
    store = runtime.query_store
    thunk = runtime.query(READ, ([1],))
    twin = runtime.query(READ, ([1],))
    # Not a dedup key: never a twin, and nothing counted as one.
    assert thunk.query_id is not twin.query_id
    assert (store.pending_count, store.stats.dedup_hits) == (2, 0)
    for lazy in (thunk, twin, thunk):
        with pytest.raises(SqlTypeError) as lazily:
            lazy.force()
        assert str(lazily.value) == str(original.value) == (
            "cannot compare 0 with [1]")
        assert not lazy.is_forced
    assert driver.stats.round_trips == 0 and store.stats.batches_flushed == 0
    # A hashable twin pair still deduplicates, and the store carries on.
    assert runtime.query(READ, (3,)).query_id is runtime.query(
        READ, (3,)).query_id
    assert runtime.query(READ, (3,)).force().rows == [(30,)]
    assert store.stats.dedup_hits == 2
