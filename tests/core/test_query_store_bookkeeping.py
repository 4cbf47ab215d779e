"""The result store's bookkeeping: what a flush evicts, and what it costs.

``QueryStore._enforce_result_limit`` runs after every flush, so it must
pick its victims without walking the store.  Three checks:

1. a differential Hypothesis sequence test against :class:`ParentStore`,
   which carries the previous algorithm verbatim (plain dicts, a full list
   copy per flush): same retained ids in the same order, same eviction
   count, same ids raising ``KeyError``, after every step;
2. a scaling guard that counts iteration steps over the two ordered maps —
   deterministic, no wall clock — and requires a flush at ``limit``
   retained results to take the same steps at ``limit=4096`` as at 64;
3. an id this store never minted raises without flushing the pending batch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_store import QueryId, QueryStore
from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver
from repro.net.server import DatabaseServer
from repro.sqldb import Database

READ = "SELECT v FROM t WHERE id = ?"
WRITE = "UPDATE t SET v = v + 1 WHERE id = 0"


def _batch_driver():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(4):
        db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i * 10))
    cost_model = CostModel()
    return BatchDriver(DatabaseServer(db, cost_model), SimClock(), cost_model)


class ParentStore(QueryStore):
    """The model: the three methods below are the previous commit's text."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._results = {}
        self._delivered = {}

    def get_result_set(self, query_id):
        result = self._results.get(query_id)
        if result is None:
            self._flush()
            result = self._results.get(query_id)
            if result is None:
                raise KeyError(f"unknown query id: {query_id!r}")
        completion = self._owner.pop(query_id, None)
        if completion is not None and not completion.waited:
            self._wait_completion(completion)
        self._delivered.pop(query_id, None)
        self._delivered[query_id] = None
        self._release_ref(query_id)
        return result

    def _evict_delivered(self):
        keep = {}
        for query_id in self._delivered:
            if self._has_refs(query_id):
                keep[query_id] = None
                continue
            self._drop(query_id)
        self._delivered = keep

    def _enforce_result_limit(self):
        limit = self.result_store_limit
        if limit is None or len(self._results) <= limit:
            return
        for query_id in list(self._delivered):
            if len(self._results) <= limit:
                return
            if self._has_refs(query_id):
                continue
            del self._delivered[query_id]
            self._drop(query_id)
        for query_id in list(self._results):
            if len(self._results) <= limit:
                return
            self._delivered.pop(query_id, None)
            self._drop(query_id)


_OPS = st.lists(st.one_of(
    st.tuples(st.just("read"), st.integers(0, 3)),  # small domain: twins
    st.tuples(st.just("write")),
    st.tuples(st.just("get"), st.integers(0, 200)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("drain")),
), max_size=60)


def _apply(store, minted, op):
    """Run one op; returns what the caller could observe of it."""
    kind = op[0]
    if kind == "read":
        minted.append(store.register_query(READ, (op[1],)))
    elif kind == "write":
        minted.append(store.register_query(WRITE))
    elif kind == "get" and minted:
        # Any id ever minted, evicted ones included.
        query_id = minted[op[1] % len(minted)]
        try:
            return store.get_result_set(query_id).rows
        except KeyError:
            return KeyError
    elif kind == "flush":
        store.flush()
    elif kind == "drain":
        store.drain()
    return None


def _bookkeeping(store):
    return {
        "retained": [q.value for q in store._results],
        "delivered": [q.value for q in store._delivered],
        "held": {q.value: count for q, count in store._refs.items()},
        "result_store_size": store.result_store_size,
        "results_evicted": store.stats.results_evicted,
        "pending": store.pending_count,
    }


@given(ops=_OPS, limit=st.sampled_from([2, 3, 8]),
       threshold=st.sampled_from([None, 1, 3]), async_dispatch=st.booleans())
@settings(max_examples=150, deadline=None)
def test_bookkeeping_matches_the_parent_algorithm(ops, limit, threshold,
                                                  async_dispatch):
    options = dict(result_store_limit=limit, auto_flush_threshold=threshold,
                   async_dispatch=async_dispatch)
    store = QueryStore(_batch_driver(), **options)
    model = ParentStore(_batch_driver(), **options)
    minted, model_minted = [], []
    for step, op in enumerate(ops):
        seen = _apply(store, minted, op)
        expected = _apply(model, model_minted, op)
        assert seen == expected, (step, op)
        assert _bookkeeping(store) == _bookkeeping(model), (step, op)


def _flush_steps_at(limit):
    """Iteration steps one over-limit flush takes over the ordered maps."""
    store = QueryStore(_batch_driver(), result_store_limit=limit)
    for _ in range(limit):  # a TPC-C client: every statement forced at once
        store.get_result_set(store.register_query(READ, (1,)))
    assert store.result_store_size == limit
    steps = []

    def counting(mapping):
        class Counting(type(mapping)):
            def __iter__(self):
                for key in super().__iter__():
                    steps.append(key)
                    yield key

        return Counting(mapping)

    store._delivered = counting(store._delivered)
    store._results = counting(store._results)
    store.get_result_set(store.register_query(READ, (1,)))
    assert store.result_store_size == limit
    assert store.stats.results_evicted == 1
    return len(steps)


def test_flush_bookkeeping_does_not_grow_with_the_store():
    assert _flush_steps_at(4096) == _flush_steps_at(64)


@pytest.mark.parametrize("mint", [
    lambda other: other.register_query(READ, (2,)),
    lambda other: QueryId(other, 1),
], ids=["another-stores-id", "hand-built-id"])
def test_foreign_id_raises_without_flushing(mint):
    driver = _batch_driver()
    store, other = QueryStore(driver), QueryStore(driver)
    store.register_query(READ, (1,))
    foreign = mint(other)
    with pytest.raises(KeyError):
        store.get_result_set(foreign)
    assert store.pending_count == 1
    assert driver.stats.round_trips == 0
