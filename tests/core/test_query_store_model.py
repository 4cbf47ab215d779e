"""The query store against the paper's §3.3, written down as a dict.

:class:`DictStore` is the model: a pending batch and a map from query id to
result set that never forgets — no slots on ids, no lifetime question.  A
Hypothesis sequence of fresh / twin reads, writes, fetches (of any id ever
minted, of a hand-built one, of another store's), ``flush`` and ``drain``
runs through both, each on its own database and clock, across auto-flush
thresholds and sync / async dispatch.  After every step the two must have
served the same rows, raised for the same ids, and agree on round trips,
batches, dedup hits, queries issued and the virtual clock.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_store import (DEFAULT_PIPELINE_DEPTH, QueryId,
                                    QueryStore)
from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.parser import is_read_statement

READ = "SELECT v FROM t WHERE id = ?"
WRITE = "UPDATE t SET v = v + 1 WHERE id = 0"


def _batch_driver():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(4):
        db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i * 10))
    cost_model = CostModel()
    return BatchDriver(DatabaseServer(db, cost_model), SimClock(), cost_model)


class DictStore:
    """§3.3: the current batch, and every result ever issued by id."""

    def __init__(self, driver, threshold, async_dispatch):
        self.driver = driver
        self.threshold = threshold
        self.async_dispatch = async_dispatch
        self.batch = []  # (id, sql, params); an id is (this store, n)
        self.results = {}
        self.completions = {}  # id -> in-flight batch, until first fetched
        self.in_flight = []
        self.minted = self.batches = self.dedup_hits = self.issued = 0

    def register(self, sql, params=()):
        read = is_read_statement(sql)
        if read:
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
        if background:
            while len(self.in_flight) >= DEFAULT_PIPELINE_DEPTH:
                self.land(self.in_flight[0])
            completion, results = self.driver.execute_batch_async(statements)
            self.in_flight.append(completion)
            self.completions.update((query_id, completion)
                                    for query_id, _, _ in batch)
        else:
            self.drain()  # the [Write query] barrier; a no-op when sync
            results = self.driver.execute_batch(statements)
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
        if query_id in self.completions:
            self.land(self.completions.pop(query_id))
        return result


_OPS = st.lists(st.one_of(
    st.tuples(st.just("read"), st.integers(0, 3)),  # small domain: twins
    st.tuples(st.just("write")),
    st.tuples(st.just("get"), st.integers(0, 200)),
    st.tuples(st.just("get_hand_built")),
    st.tuples(st.just("get_foreign")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("drain")),
), max_size=60)


def _fetch(get, query_id):
    try:
        return get(query_id).rows
    except KeyError:
        return KeyError


@given(ops=_OPS, threshold=st.sampled_from([None, 1, 3]),
       async_dispatch=st.booleans())
@settings(max_examples=150, deadline=None)
def test_store_matches_the_dict_model(ops, threshold, async_dispatch):
    store = QueryStore(_batch_driver(), auto_flush_threshold=threshold,
                       async_dispatch=async_dispatch)
    model = DictStore(_batch_driver(), threshold, async_dispatch)
    other_store = QueryStore(store.driver)
    other_model = DictStore(model.driver, None, False)
    # Every id ever minted stays held here, so all of them must stay
    # servable however much traffic follows.
    minted, model_minted = [], []
    for step, op in enumerate(ops):
        kind = op[0]
        seen = expected = None
        if kind == "read":
            minted.append(store.register_query(READ, (op[1],)))
            model_minted.append(model.register(READ, (op[1],)))
        elif kind == "write":
            minted.append(store.register_query(WRITE))
            model_minted.append(model.register(WRITE))
        elif kind == "get" and minted:
            at = op[1] % len(minted)
            seen = _fetch(store.get_result_set, minted[at])
            expected = _fetch(model.get, model_minted[at])
            assert seen is not KeyError, (step, op)
        elif kind == "get_hand_built":
            seen = _fetch(store.get_result_set, QueryId(store, 10 ** 6))
            expected = _fetch(model.get, (model, 10 ** 6))
            assert seen is KeyError, (step, op)
        elif kind == "get_foreign":
            seen = _fetch(store.get_result_set, QueryId(other_store, 1))
            expected = _fetch(model.get, (other_model, 1))
            assert seen is KeyError, (step, op)
        elif kind == "flush":
            store.flush()
            model.issue(background=async_dispatch)
        elif kind == "drain":
            store.drain()
            model.drain()
        assert seen == expected, (step, op)
        assert {
            "ids": [query_id.value for query_id in minted],
            "round_trips": store.driver.stats.round_trips,
            "batches_flushed": store.stats.batches_flushed,
            "dedup_hits": store.stats.dedup_hits,
            "queries_issued": store.stats.queries_issued,
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
