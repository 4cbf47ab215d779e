import gc
import sys
from collections.abc import Sized

import pytest

from repro.core.query_store import QueryId, QueryStore
from repro.core.thunk import QueryThunk


@pytest.fixture
def store(sim_stack):
    db, clock, server, driver, batch_driver = sim_stack
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(5):
        db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i * 10))
    return QueryStore(batch_driver), batch_driver


def test_register_does_not_execute(store):
    qs, driver = store
    qs.register_query("SELECT v FROM t WHERE id = ?", (1,))
    assert driver.stats.round_trips == 0
    assert qs.pending_count == 1


def test_get_result_flushes_whole_batch(store):
    qs, driver = store
    id1 = qs.register_query("SELECT v FROM t WHERE id = ?", (1,))
    id2 = qs.register_query("SELECT v FROM t WHERE id = ?", (2,))
    result = qs.get_result_set(id1)
    assert result.scalar() == 10
    assert driver.stats.round_trips == 1
    # Second result is already cached: no extra round trip.
    assert qs.get_result_set(id2).scalar() == 20
    assert driver.stats.round_trips == 1


def test_duplicate_pending_query_dedups(store):
    qs, _ = store
    id1 = qs.register_query("SELECT v FROM t WHERE id = ?", (3,))
    id2 = qs.register_query("SELECT v FROM t WHERE id = ?", (3,))
    assert id1 == id2
    assert qs.stats.dedup_hits == 1
    assert qs.pending_count == 1


def test_different_params_are_not_duplicates(store):
    qs, _ = store
    id1 = qs.register_query("SELECT v FROM t WHERE id = ?", (3,))
    id2 = qs.register_query("SELECT v FROM t WHERE id = ?", (4,))
    assert id1 != id2


def test_write_flushes_immediately_preserving_order(store):
    qs, driver = store
    read_id = qs.register_query("SELECT v FROM t WHERE id = ?", (1,))
    qs.register_query("UPDATE t SET v = 999 WHERE id = 1")
    # One batch carried the read and the write together.
    assert driver.stats.round_trips == 1
    assert driver.stats.largest_batch == 2
    # The read observed the pre-write value.
    assert qs.get_result_set(read_id).scalar() == 10


def test_unknown_id_raises(store):
    qs, _ = store
    with pytest.raises(KeyError):
        qs.get_result_set(QueryId(qs, 999_999))


class TestQueryIdScoping:
    """Ids are per-store: no mutable class-level counter leaking across
    stores or benchmark runs."""

    def test_counters_are_independent_across_stores(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        a = QueryStore(batch_driver)
        b = QueryStore(batch_driver)
        id_a = a.register_query("SELECT v FROM t WHERE id = 1")
        id_b = b.register_query("SELECT v FROM t WHERE id = 1")
        assert id_a.value == 1
        assert id_b.value == 1

    def test_same_value_different_store_not_equal(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        a = QueryStore(batch_driver)
        b = QueryStore(batch_driver)
        id_a = a.register_query("SELECT v FROM t WHERE id = 1")
        id_b = b.register_query("SELECT v FROM t WHERE id = 1")
        assert id_a != id_b
        assert hash(id_a) != hash(id_b)

    def test_equal_ids_hash_equal(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        qs = QueryStore(batch_driver)
        qid = qs.register_query("SELECT v FROM t WHERE id = 1")
        twin = qs.register_query("SELECT v FROM t WHERE id = 1")
        assert qid == twin and hash(qid) == hash(twin)


def test_flush_noop_when_empty(store):
    qs, driver = store
    qs.flush()
    assert driver.stats.round_trips == 0


def test_batch_size_tracking(store):
    qs, _ = store
    ids = [qs.register_query("SELECT v FROM t WHERE id = ?", (i,))
           for i in range(4)]
    qs.get_result_set(ids[0])
    assert qs.stats.largest_batch == 4
    assert qs.stats.batches_flushed == 1
    assert qs.stats.queries_issued == 4


def _retained(store):
    """Every sized attribute of the store, by name, that is not empty."""
    return {name: value for name, value in vars(store).items()
            if isinstance(value, Sized) and len(value)}


class TestResultStoreBounded:
    """Issued results must not accumulate in the store (the old leak): it
    retains none.  A result sits on the id that names it, so it lives as
    long as something holds the id — and a held id is always servable."""

    READ = "SELECT v FROM t WHERE id = ?"

    def _seeded_store(self, sim_stack, **kwargs):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(20):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        return QueryStore(batch_driver, **kwargs)

    def test_undelivered_results_survive_the_boundary(self, sim_stack):
        qs = self._seeded_store(sim_stack)
        fetched = qs.register_query(self.READ, (1,))
        kept = qs.register_query(self.READ, (2,))
        qs.get_result_set(fetched)
        qs.flush()
        # The never-delivered result is still servable after the boundary.
        assert qs.get_result_set(kept).scalar() == 2

    def test_dedup_shared_id_survives_boundary_until_both_fetch(
            self, sim_stack):
        qs = self._seeded_store(sim_stack)
        first = qs.register_query(self.READ, (7,))
        twin = qs.register_query(self.READ, (7,))
        assert first == twin
        qs.get_result_set(first)
        qs.flush()  # a mid-request flush (e.g. branch-deferral off)
        assert qs.get_result_set(twin).scalar() == 7
        qs.flush()
        assert _retained(qs) == {}

    def test_over_fetch_does_not_strand_results(self, sim_stack):
        # Fetching an id more often than it was registered leaves nothing
        # behind in the store.
        qs = self._seeded_store(sim_stack)
        query_id = qs.register_query(self.READ, (3,))
        for _ in range(3):
            assert qs.get_result_set(query_id).scalar() == 3
        qs.flush()
        assert _retained(qs) == {}

    @pytest.mark.parametrize("async_dispatch", [False, True],
                             ids=["sync", "async"])
    def test_held_id_is_servable_any_number_of_times(self, sim_stack,
                                                     async_dispatch):
        qs = self._seeded_store(sim_stack, async_dispatch=async_dispatch)
        first = qs.register_query(self.READ, (7,))
        twin = qs.register_query(self.READ, (7,))  # one id, two holders
        result = qs.get_result_set(first)  # before any boundary: flushes
        assert result.scalar() == 7
        round_trips = qs.driver.stats.round_trips
        for boundary in (qs.flush, qs.drain, qs.flush):
            boundary()
            for _ in range(3):
                # Twins share one result object, not equal copies.
                assert qs.get_result_set(first) is result
                assert qs.get_result_set(twin) is result
        assert qs.driver.stats.round_trips == round_trips

    def test_issued_but_unforced_id_survives_later_traffic(self, sim_stack):
        # A long-lived auto-flushing store (no request boundary) whose
        # other thunks are issued and dropped unforced: more of them than
        # any bound the store ever had.
        qs = self._seeded_store(sim_stack, auto_flush_threshold=1)
        held = qs.register_query(self.READ, (0,))
        for i in range(5000):
            qs.register_query(self.READ, (i % 20,))
        assert qs.get_result_set(held).scalar() == 0
        assert _retained(qs) == {}

    @pytest.mark.parametrize("async_dispatch", [False, True],
                             ids=["sync", "async"])
    def test_long_lived_store_retains_nothing(self, sim_stack,
                                              async_dispatch):
        # The TPC-C client's shape: one store, every statement forced at
        # once and dropped, never a flush() / drain() boundary.  With the
        # cyclic collector off, so refcounts alone must reclaim.
        qs = self._seeded_store(sim_stack, async_dispatch=async_dispatch)
        gc.disable()
        try:
            for i in range(10_000):
                query_id = qs.register_query(self.READ, (i % 20,))
                assert qs.get_result_set(query_id).scalar() == i % 20
                assert _retained(qs) == {}, i
        finally:
            gc.enable()

    def test_dropping_an_unforced_thunk_frees_its_result_at_once(
            self, sim_stack):
        qs = self._seeded_store(sim_stack, auto_flush_threshold=1)
        gc.disable()
        try:
            thunk = QueryThunk(qs, self.READ, (4,))  # issued on registration
            result = thunk.query_id.result
            assert result.scalar() == 4 and not thunk.is_forced
            holders = sys.getrefcount(result)
            del thunk  # no cycle: the id, and its hold on the result, go now
            assert sys.getrefcount(result) == holders - 1
        finally:
            gc.enable()


@pytest.mark.parametrize("mint", [
    lambda other: other.register_query("SELECT v FROM t WHERE id = ?", (2,)),
    lambda other: QueryId(other, 1),
], ids=["another-stores-id", "hand-built-id"])
def test_foreign_id_raises_without_flushing(store, mint):
    qs, driver = store
    qs.register_query("SELECT v FROM t WHERE id = ?", (1,))
    foreign = mint(QueryStore(driver))
    with pytest.raises(KeyError):
        qs.get_result_set(foreign)
    assert qs.pending_count == 1
    assert driver.stats.round_trips == 0


class TestAsyncDispatch:
    """§6.7: background flushes, residual stalls, write barriers."""

    def _stack(self, sim_stack, rows=10, **kwargs):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(rows):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i * 10))
        kwargs.setdefault("auto_flush_threshold", 2)
        kwargs.setdefault("async_dispatch", True)
        return QueryStore(batch_driver, **kwargs), batch_driver, clock

    def test_threshold_flush_ships_in_background(self, sim_stack):
        qs, driver, clock = self._stack(sim_stack)
        qs.register_query("SELECT v FROM t WHERE id = ?", (0,))
        qs.register_query("SELECT v FROM t WHERE id = ?", (1,))
        # Dispatched (a round trip is in flight) but nothing stalled: no
        # network or db time on the serial timeline yet.
        assert driver.stats.round_trips == 1
        assert qs.in_flight_count == 1
        assert clock.phase_time("network") == 0.0
        assert clock.phase_time("db") == 0.0

    def test_force_waits_only_residual(self, sim_stack):
        qs, driver, clock = self._stack(sim_stack)
        ids = [qs.register_query("SELECT v FROM t WHERE id = ?", (i,))
               for i in range(2)]
        completion = qs._in_flight[0]
        clock.charge("app", completion.in_flight_ms / 2)
        assert qs.get_result_set(ids[0]).scalar() == 0
        assert qs.in_flight_count == 0
        assert driver.stats.stall_ms == pytest.approx(
            completion.in_flight_ms / 2)
        assert driver.stats.overlap_ms == pytest.approx(
            completion.in_flight_ms / 2)
        # The second member of the batch is already there: no extra wait.
        stall_before = driver.stats.stall_ms
        assert qs.get_result_set(ids[1]).scalar() == 10
        assert driver.stats.stall_ms == stall_before

    def test_fully_overlapped_batch_stalls_nothing(self, sim_stack):
        qs, driver, clock = self._stack(sim_stack)
        ids = [qs.register_query("SELECT v FROM t WHERE id = ?", (i,))
               for i in range(2)]
        clock.charge("app", 1e6)  # plenty of concurrent app progress
        qs.get_result_set(ids[0])
        assert driver.stats.stall_ms == 0.0
        assert driver.stats.overlap_ms > 0.0
        assert clock.phase_time("network") == 0.0

    def test_pipeline_depth_bounds_in_flight(self, sim_stack):
        qs, driver, clock = self._stack(sim_stack, pipeline_depth=2)
        for i in range(8):  # 4 threshold flushes of 2
            qs.register_query("SELECT v FROM t WHERE id = ?", (i,))
        # Never more than 2 in flight: older batches were awaited to make
        # room (their stall shows up in the stats).
        assert qs.in_flight_count <= 2
        assert driver.stats.async_batches == 4
        assert driver.stats.stall_ms > 0

    def test_write_barriers_on_in_flight_batches(self, sim_stack):
        qs, driver, clock = self._stack(sim_stack)
        read_id = qs.register_query("SELECT v FROM t WHERE id = ?", (1,))
        qs.register_query("SELECT v FROM t WHERE id = ?", (2,))
        assert qs.in_flight_count == 1
        qs.register_query("UPDATE t SET v = 999 WHERE id = 1")
        # The write landed every in-flight batch before issuing, and the
        # write batch itself ran synchronously.
        assert qs.in_flight_count == 0
        # The read registered before the write observed pre-write data.
        assert qs.get_result_set(read_id).scalar() == 10

    def test_drain_lands_everything(self, sim_stack):
        qs, driver, clock = self._stack(sim_stack)
        ids = [qs.register_query("SELECT v FROM t WHERE id = ?", (i,))
               for i in range(4)]
        assert qs.in_flight_count > 0
        qs.drain()
        assert qs.in_flight_count == 0
        # Drain does not issue the pending buffer...
        qs.register_query("SELECT v FROM t WHERE id = ?", (9,))
        pending_before = qs.pending_count
        qs.drain()
        assert qs.pending_count == pending_before

    def test_async_results_identical_to_sync(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(10):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i * 10))
        db.result_cache.enabled = False

        def run(async_dispatch):
            qs = QueryStore(batch_driver, auto_flush_threshold=3,
                            async_dispatch=async_dispatch)
            ids = [qs.register_query("SELECT v FROM t WHERE id = ?", (i,))
                   for i in range(10)]
            return [tuple(qs.get_result_set(q).rows) for q in ids]

        assert run(False) == run(True)

    def test_invalid_pipeline_depth_rejected(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        with pytest.raises(ValueError):
            QueryStore(batch_driver, pipeline_depth=0)


class TestAutoFlushStrategy:
    """§6.7's alternative execution strategy: flush at a size threshold."""

    def test_flushes_when_threshold_reached(self, sim_stack):
        from repro.core.query_store import QueryStore

        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(6):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        qs = QueryStore(batch_driver, auto_flush_threshold=3)
        ids = [qs.register_query("SELECT v FROM t WHERE id = ?", (i,))
               for i in range(5)]
        # The first three shipped automatically; two still pend.
        assert batch_driver.stats.round_trips == 1
        assert qs.pending_count == 2
        # Already-flushed results are served from the cache.
        assert qs.get_result_set(ids[0]).scalar() == 0
        assert batch_driver.stats.round_trips == 1
        # Forcing a pending one flushes the remainder.
        assert qs.get_result_set(ids[4]).scalar() == 4
        assert batch_driver.stats.round_trips == 2

    def test_threshold_none_keeps_default_behaviour(self, sim_stack):
        from repro.core.query_store import QueryStore

        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        qs = QueryStore(batch_driver)
        for i in range(10):
            qs.register_query("SELECT v FROM t WHERE id = ?", (i,))
        assert batch_driver.stats.round_trips == 0
        assert qs.pending_count == 10
