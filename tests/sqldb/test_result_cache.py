"""Cross-request result cache: hits, commit-time invalidation, transactions.

Covers the whole vertical: what each write invalidates when it commits
(auto-commit, COMMIT, none on ROLLBACK), the reader index beside the LRU,
the per-database :class:`repro.sqldb.result_cache.ResultCache` (keying,
LRU bound, stats counters, ``EXPLAIN`` status line), DDL emptying the
cache, the transaction bypass (no stale hits, nothing cached from
uncommitted state), the server batch paths (cached members drop out of
shared-scan groups), hot repeated page loads through the app server in
both modes, and a seeded differential oracle interleaving writer/reader
sessions against a cache-disabled twin.
"""

import collections
import random

import pytest

from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver, Driver, DriverStats
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.executor import Executor
from repro.sqldb.plan.physical import PhysicalPlan
from repro.sqldb.result_cache import ResultCache


def check_reader_index(cache):
    """Each live entry's key is in exactly the reader sets of the tables it
    reads, and no reader set holds a dead key; returns the index's size
    (keys over all its sets)."""
    entries, readers = cache._entries, cache._readers
    for name, keys in readers.items():
        for key in keys:
            assert key in entries and name in entries[key][1], (name, key)
    for key, (_stmt, tables, *_) in entries.items():
        for name in tables:
            assert key in readers.get(name, ()), (name, key)
    return sum(map(len, readers.values()))


@pytest.fixture
def cached_db():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("CREATE TABLE u (id INT PRIMARY KEY, w INT)")
    for i in range(20):
        db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i * 2))
        db.execute("INSERT INTO u (id, w) VALUES (?, ?)", (i, i * 3))
    return db


class TestCommitInvalidation:
    T_SQL, U_SQL = "SELECT v FROM t WHERE id = ?", "SELECT w FROM u WHERE id = ?"

    def cache_both(self, db):
        db.execute(self.T_SQL, (1,))
        db.execute(self.U_SQL, (1,))
        assert len(db.result_cache) == 2

    def test_an_autocommitted_write_invalidates_its_readers(self, cached_db):
        self.cache_both(cached_db)
        cache = cached_db.result_cache
        epoch = cache.epoch
        cached_db.execute("UPDATE t SET v = 1 WHERE id = 1")
        assert cache.epoch == epoch + 1
        assert len(cache) == 1 and cache.invalidations == 1  # u's stays
        assert check_reader_index(cache) == 1

    def test_commit_invalidates_once_per_table(self, cached_db):
        self.cache_both(cached_db)
        cache = cached_db.result_cache
        epoch = cache.epoch
        cached_db.execute("BEGIN")
        cached_db.execute("UPDATE t SET v = 1 WHERE id = 1")
        cached_db.execute("UPDATE t SET v = 2 WHERE id = 2")
        cached_db.execute("DELETE FROM t WHERE id = 3")
        # Nothing is dropped until COMMIT.
        assert cache.epoch == epoch and len(cache) == 2
        cached_db.execute("COMMIT")
        assert cache.epoch == epoch + 1
        assert len(cache) == 1 and cache.invalidations == 1  # u's stays

    def test_rollback_invalidates_nothing(self, cached_db):
        self.cache_both(cached_db)
        cache = cached_db.result_cache
        epoch = cache.epoch
        cached_db.execute("BEGIN")
        cached_db.execute("UPDATE t SET v = 1 WHERE id = 1")
        cached_db.execute("INSERT INTO t (id, v) VALUES (100, 0)")
        cached_db.execute("ROLLBACK")
        assert cache.epoch == epoch
        assert len(cache) == 2 and cache.invalidations == 0
        # ...and the data really was restored.
        rows = cached_db.query("SELECT v FROM t WHERE id = 1")
        assert rows == [{"v": 2}]

    def test_empty_transaction_commit_invalidates_nothing(self, cached_db):
        self.cache_both(cached_db)
        epoch = cached_db.result_cache.epoch
        cached_db.execute("BEGIN")
        cached_db.execute("COMMIT")
        assert cached_db.result_cache.epoch == epoch
        assert len(cached_db.result_cache) == 2

    def test_a_write_that_changes_no_row_invalidates_nothing(self, cached_db):
        self.cache_both(cached_db)
        epoch = cached_db.result_cache.epoch
        cached_db.execute("UPDATE t SET v = 1 WHERE id = 999")
        cached_db.execute("DELETE FROM t WHERE v > 999")
        assert cached_db.result_cache.epoch == epoch
        assert len(cached_db.result_cache) == 2

    def test_invalidation_runs_while_the_cache_is_off(self, cached_db):
        """Switched off, the cache keeps its entries: a commit must still
        drop the stale ones, or switching it back on would serve them."""
        self.cache_both(cached_db)
        cached_db.result_cache.enabled = False
        cached_db.execute("UPDATE t SET v = 99 WHERE id = 1")
        cached_db.result_cache.enabled = True
        assert cached_db.execute(self.T_SQL, (1,)).rows == [(99,)]
        assert cached_db.execute(self.U_SQL, (1,)).from_cache


class TestReaderIndex:
    JOIN = "SELECT t.v, u.w FROM t JOIN u ON u.id = t.id WHERE t.id = ?"

    def test_a_join_entry_is_filed_under_both_tables(self, cached_db):
        cached_db.execute(self.JOIN, (3,))
        cache = cached_db.result_cache
        assert check_reader_index(cache) == 2
        cached_db.execute("UPDATE u SET w = 0 WHERE id = 3")
        assert len(cache) == 0 and check_reader_index(cache) == 0

    def test_eviction_unlinks_the_key(self, cached_db):
        cached_db.result_cache.limit = 2
        for i in range(5):
            cached_db.execute(self.JOIN, (i,))
        assert check_reader_index(cached_db.result_cache) == 4

    def test_a_long_run_of_writes_and_joins_keeps_the_index_small(self):
        """Writes to either table, joins over both, transactions that commit
        or roll back, and a cache small enough to evict: after every
        statement the index holds each live key once per table it reads
        and nothing else."""
        rng = random.Random(7)
        db = Database(result_cache_size=16)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("CREATE TABLE u (id INT PRIMARY KEY, w INT)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, i))
            db.execute("INSERT INTO u VALUES (?, ?)", (i, i))
        cache = db.result_cache
        reads = (self.JOIN, "SELECT v FROM t WHERE id = ?",
                 "SELECT w FROM u WHERE id = ?")
        writes = ("UPDATE t SET v = v + 1 WHERE id = ?",
                  "UPDATE u SET w = w + 1 WHERE id = ?")
        in_txn = False
        for _ in range(2000):
            roll = rng.random()
            if roll < 0.7:
                db.execute(rng.choice(reads), (rng.randrange(10),))
            elif roll < 0.93:
                db.execute(rng.choice(writes), (rng.randrange(10),))
            else:
                verb = rng.choice(("COMMIT", "ROLLBACK")) if in_txn \
                    else "BEGIN"
                db.execute(verb)
                in_txn = verb == "BEGIN"
            size = check_reader_index(cache)
            assert size == sum(len(entry[1])
                               for entry in cache._entries.values())
            assert len(cache) <= 16 and set(cache._readers) <= {"t", "u"}
        assert cache.invalidations and cache.hits and cache.stores > 16


class TestCacheHits:
    SQL = "SELECT v FROM t WHERE id = ?"

    def test_second_execution_hits(self, cached_db):
        first = cached_db.execute(self.SQL, (3,))
        built = cached_db.executor.plans_built
        second = cached_db.execute(self.SQL, (3,))
        assert second.rows == first.rows
        assert second.columns == first.columns
        assert second.rowcount == first.rowcount
        assert second.rows_touched == 0
        assert cached_db.executor.plans_built == built  # no plan build
        stats = cached_db.result_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_parameters_key_distinct_entries(self, cached_db):
        cached_db.execute(self.SQL, (3,))
        other = cached_db.execute(self.SQL, (4,))
        assert other.rows == [(8,)]
        assert other.rows_touched == 1  # different params: a real execution
        assert cached_db.result_cache_stats()["hits"] == 0

    def test_hit_returns_fresh_result_object(self, cached_db):
        first = cached_db.execute(self.SQL, (3,))
        first.rows.append(("tampered",))  # caller mutates its copy
        second = cached_db.execute(self.SQL, (3,))
        assert second.rows == [(6,)]

    def test_disabled_cache_never_hits(self):
        db = Database(result_cache_size=0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t (id, v) VALUES (1, 2)")
        db.execute("SELECT v FROM t WHERE id = 1")
        result = db.execute("SELECT v FROM t WHERE id = 1")
        assert result.rows_touched == 1
        stats = db.result_cache_stats()
        assert stats["hits"] == 0 and stats["size"] == 0
        assert not stats["enabled"]

    def test_lru_bound_evicts_oldest(self, cached_db):
        cached_db.result_cache.limit = 4
        for i in range(6):
            cached_db.execute(self.SQL, (i,))
        assert len(cached_db.result_cache) == 4
        # The oldest entries fell out; the newest still hit.
        assert cached_db.execute(self.SQL, (5,)).rows_touched == 0
        assert cached_db.execute(self.SQL, (0,)).rows_touched == 1

    def test_explain_reports_cache_status(self, cached_db):
        plan = cached_db.explain(self.SQL, params=(3,))
        assert "ResultCache [status='miss'" in plan
        cached_db.execute(self.SQL, (3,))
        plan = cached_db.explain(self.SQL, params=(3,))
        assert "ResultCache [status='hit'" in plan
        # The peek is side-effect free.
        assert cached_db.result_cache_stats()["hits"] == 0
        # Without params, the plan tree is unchanged from the classic form.
        assert "ResultCache" not in cached_db.explain(self.SQL)

    def test_unhashable_params_bypass(self, cached_db):
        # Defensive: an unhashable parameter value cannot key an entry.
        result = cached_db.executor.cached_select(
            cached_db,
            __import__("repro.sqldb.parser", fromlist=["parse"]).parse(
                self.SQL), ([1],))
        assert result is None


class TestInvalidation:
    def test_committed_write_invalidates_exactly_dependents(self, cached_db):
        cached_db.execute("SELECT v FROM t WHERE id = ?", (3,))
        cached_db.execute("SELECT w FROM u WHERE id = ?", (3,))
        cached_db.execute("UPDATE t SET v = 99 WHERE id = 3")
        fresh = cached_db.execute("SELECT v FROM t WHERE id = ?", (3,))
        assert fresh.rows == [(99,)]        # new data, really re-executed
        assert fresh.rows_touched == 1
        other = cached_db.execute("SELECT w FROM u WHERE id = ?", (3,))
        assert other.rows_touched == 0      # the u entry survived
        stats = cached_db.result_cache_stats()
        assert stats["invalidations"] == 1
        assert stats["hits"] == 1

    def test_join_entry_depends_on_both_tables(self, cached_db):
        sql = ("SELECT t.v, u.w FROM t JOIN u ON u.id = t.id "
               "WHERE t.id = ?")
        cached_db.execute(sql, (3,))
        assert cached_db.execute(sql, (3,)).rows_touched == 0
        cached_db.execute("UPDATE u SET w = 0 WHERE id = 3")
        refreshed = cached_db.execute(sql, (3,))
        assert refreshed.rows_touched > 0
        assert refreshed.rows == [(6, 0)]

    def test_ddl_empties_the_cache(self, cached_db):
        sql = "SELECT v FROM t WHERE v = ?"
        cached_db.execute(sql, (6,))
        cached_db.execute("SELECT w FROM u WHERE id = ?", (1,))
        cache = cached_db.result_cache
        cached_db.execute("CREATE INDEX idx_t_v ON t (v)")
        assert len(cache) == 0 and check_reader_index(cache) == 0
        # The statement misses, re-plans and re-executes (now through the
        # index), then stores.
        misses, stores = cache.misses, cache.stores
        result = cached_db.execute(sql, (6,))
        assert result.rows_touched == 1 and not result.from_cache
        assert (cache.misses, cache.stores) == (misses + 1, stores + 1)
        assert cached_db.execute(sql, (6,)).from_cache

    def test_truncate_invalidates(self, cached_db):
        sql = "SELECT COUNT(*) AS n FROM t"
        assert cached_db.execute(sql).scalar() == 20
        cached_db.execute("TRUNCATE t")
        assert cached_db.execute(sql).scalar() == 0
        assert cached_db.execute(sql).from_cache

    def test_size_shift_of_one_table_keeps_hits_over_another(
            self, cached_db):
        """A >2x shift of ``t`` comes from writes to ``t``: those retire
        the entries that read ``t`` and leave the ones over ``u`` hits."""
        over_u, over_t = "SELECT w FROM u WHERE id = ?", \
            "SELECT v FROM t WHERE id = ?"
        cached_db.execute(over_u, (3,))
        cached_db.execute(over_t, (3,))
        for i in range(20, 60):
            cached_db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        assert cached_db.catalog.shifted == {"t"}
        hit = cached_db.execute(over_u, (3,))
        assert hit.from_cache and hit.rows == [(9,)]
        again = cached_db.execute(over_t, (3,))
        assert not again.from_cache and again.rows == [(6,)]

    def test_insert_and_delete_invalidate(self, cached_db):
        sql = "SELECT COUNT(*) AS n FROM t"
        assert cached_db.execute(sql).scalar() == 20
        cached_db.execute("INSERT INTO t (id, v) VALUES (100, 1)")
        assert cached_db.execute(sql).scalar() == 21
        cached_db.execute("DELETE FROM t WHERE id = 100")
        assert cached_db.execute(sql).scalar() == 20


class TestTransactions:
    SQL = "SELECT v FROM t WHERE id = ?"

    def test_no_stale_hit_inside_transaction(self, cached_db):
        cached_db.execute(self.SQL, (1,))  # cached pre-transaction
        cached_db.execute("BEGIN")
        cached_db.execute("UPDATE t SET v = 77 WHERE id = 1")
        inside = cached_db.execute(self.SQL, (1,))
        assert inside.rows == [(77,)]  # sees its own uncommitted write
        cached_db.execute("COMMIT")
        after = cached_db.execute(self.SQL, (1,))
        assert after.rows == [(77,)]

    def test_uncommitted_rows_never_cached(self, cached_db):
        cached_db.execute("BEGIN")
        cached_db.execute("UPDATE t SET v = 77 WHERE id = 1")
        cached_db.execute(self.SQL, (1,))  # reads uncommitted state
        cached_db.execute("ROLLBACK")
        restored = cached_db.execute(self.SQL, (1,))
        assert restored.rows == [(2,)]  # not the in-flight 77

    def test_rolled_back_write_preserves_entries(self, cached_db):
        cached_db.execute(self.SQL, (1,))
        cached_db.execute("BEGIN")
        cached_db.execute("UPDATE t SET v = 77 WHERE id = 1")
        cached_db.execute("ROLLBACK")
        # The pre-transaction entry is still valid: same committed data —
        # a hit, not an invalidation.
        result = cached_db.execute(self.SQL, (1,))
        assert result.rows == [(2,)] and result.rows_touched == 0
        assert cached_db.result_cache_stats()["invalidations"] == 0

    def test_clean_tables_still_cache_during_transaction(self, cached_db):
        cached_db.execute("BEGIN")
        cached_db.execute("UPDATE t SET v = 77 WHERE id = 1")
        cached_db.execute("SELECT w FROM u WHERE id = ?", (2,))
        hit = cached_db.execute("SELECT w FROM u WHERE id = ?", (2,))
        assert hit.rows_touched == 0  # u has no pending writes
        cached_db.execute("ROLLBACK")

    def test_commit_invalidates_pre_transaction_entries(self, cached_db):
        cached_db.execute(self.SQL, (1,))
        cached_db.execute("BEGIN")
        cached_db.execute("UPDATE t SET v = 77 WHERE id = 1")
        cached_db.execute("COMMIT")
        assert cached_db.result_cache_stats()["invalidations"] == 1
        result = cached_db.execute(self.SQL, (1,))
        assert result.rows == [(77,)]
        assert result.rows_touched > 0

    def test_every_lookup_is_one_hit_or_one_miss(self, cached_db):
        """A read of a table with uncommitted writes is a miss: it is
        neither served nor stored, and the entry stays for after a
        ROLLBACK."""
        cached_db.execute(self.SQL, (1,))  # miss, stored
        cached_db.execute("BEGIN")
        cached_db.execute("UPDATE t SET v = 77 WHERE id = 1")
        assert cached_db.execute(self.SQL, (1,)).rows == [(77,)]  # bypass
        assert cached_db.execute(self.SQL, (2,)).rows == [(4,)]  # bypass
        cached_db.execute("ROLLBACK")
        assert cached_db.execute(self.SQL, (1,)).from_cache  # hit
        stats = cached_db.result_cache_stats()
        assert (stats["hits"], stats["misses"]) == (1, 3)
        assert stats["stores"] == 1 and stats["size"] == 1


class TestStoreValidateRace:
    """A commit landing between execution and store must refuse the store.

    The executor reads the cache's invalidation epoch *before* executing;
    the store compares it.  Rows computed concurrently with another
    request's commit can therefore never be cached after the commit
    (where a later lookup would wrongly serve them as current).
    """

    SQL = "SELECT v FROM t WHERE id = ?"

    def test_a_commit_during_the_run_refuses_the_store(self, cached_db,
                                                       monkeypatch):
        run = PhysicalPlan.execute

        def execute_then_commit(plan, db, *args):
            result = run(plan, db, *args)
            # Another request's commit lands while the rows are being
            # computed: after the epoch is read, before the store.
            db.execute("UPDATE t SET v = 999 WHERE id = 1")
            return result

        monkeypatch.setattr(PhysicalPlan, "execute", execute_then_commit)
        racing = cached_db.execute(self.SQL, (1,))
        monkeypatch.undo()
        assert racing.rows == [(2,)]  # the caller's rows are its own
        assert cached_db.result_cache.rejected_stores == 1
        assert cached_db.result_cache.stores == 0
        # The stale rows were not cached: the next read re-executes and
        # sees the committed value.
        after = cached_db.execute(self.SQL, (1,))
        assert after.rows == [(999,)] and after.rows_touched > 0

    def test_an_unmoved_epoch_stores_normally(self, cached_db):
        cached_db.execute(self.SQL, (3,))
        assert cached_db.result_cache.rejected_stores == 0
        hit = cached_db.execute(self.SQL, (3,))
        assert hit.rows_touched == 0

    def test_rejected_store_counter_in_stats(self, cached_db):
        assert "rejected_stores" in cached_db.result_cache_stats()


class TestOneBody:
    """A SELECT crosses the facade once: what ``Executor.select`` calls on
    each of its ways out, counted from outside.  The classes are patched
    after the database exists, as perfbench's tracer patches them — a
    method bound at construction would go uncounted."""

    SQL = "SELECT v FROM t WHERE id = ?"

    @pytest.fixture
    def calls(self, cached_db, monkeypatch):
        counts = collections.Counter()

        def count(owner, name, label):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[label] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(ResultCache, "lookup", "lookup")
        count(ResultCache, "store", "store")
        count(Executor, "plan_for", "plan")
        count(PhysicalPlan, "execute", "run")
        count(Executor, "_result_key", "key")
        count(ResultCache, "invalidate", "invalidate")
        return counts

    def test_cache_off_calls_nothing_of_the_cache(self, cached_db, calls):
        cached_db.result_cache.enabled = False
        assert cached_db.execute(self.SQL, (3,)).rows == [(6,)]
        assert calls == {"plan": 1, "run": 1}
        calls.clear()
        server = DatabaseServer(cached_db, CostModel())
        server.execute_batch([(self.SQL, (3,)), (self.SQL, (4,))],
                             batch_optimize=True)
        assert "lookup" not in calls and "store" not in calls

    def test_a_miss_probes_runs_and_stores_once(self, cached_db, calls):
        cached_db.execute(self.SQL, (3,))
        assert calls == {"key": 1, "lookup": 1, "plan": 1, "run": 1,
                         "store": 1}

    def test_a_hit_is_one_lookup_and_no_plan(self, cached_db, calls):
        cached_db.execute(self.SQL, (3,))
        calls.clear()
        assert cached_db.execute(self.SQL, (3,)).from_cache
        assert calls == {"key": 1, "lookup": 1}

    def test_the_batch_planner_adds_its_probe_ahead_only(self, cached_db,
                                                         calls):
        """Two scans sharing one: each is probed once (ahead), run and
        stored once, by the same body."""
        server = DatabaseServer(cached_db, CostModel())
        stats = DriverStats()
        statements = [("SELECT v FROM t WHERE v > ?", (10,)),
                      ("SELECT v FROM t WHERE v > ?", (20,))]
        server.execute_batch(statements, batch_optimize=True, stats=stats)
        assert stats.shared_scan_groups == 1
        assert calls == {"key": 4, "lookup": 2, "plan": 4, "run": 2,
                         "store": 2}
        calls.clear()
        server.execute_batch(statements, batch_optimize=True)  # both cached
        assert calls == {"key": 2, "lookup": 2}

    def test_a_write_invalidates_once_when_it_commits(self, cached_db, calls):
        """Auto-commit: one call per statement that changed rows, one row
        or several.  In a transaction: one call, at COMMIT; none at
        ROLLBACK.  A write never reads the cache: an UPDATE takes its row
        search's plan from the plan cache and runs no result pipeline."""
        cached_db.execute("UPDATE t SET v = 1 WHERE id = 1")
        cached_db.execute("UPDATE t SET v = 1 WHERE v > 30")
        cached_db.execute("UPDATE t SET v = 1 WHERE id = 999")
        assert calls == {"plan": 3, "invalidate": 2}
        for end, expected in (("ROLLBACK", 2), ("COMMIT", 3)):
            cached_db.execute("BEGIN")
            cached_db.execute("UPDATE t SET v = 2 WHERE id = 1")
            cached_db.execute("INSERT INTO u (id, w) VALUES (99, 0)")
            cached_db.execute(end)
            assert calls == {"plan": 4 + (end == "COMMIT"),
                             "invalidate": expected}, end


class TestServerBatchPaths:
    @pytest.fixture
    def stack(self, cached_db):
        cost_model = CostModel()
        clock = SimClock()
        server = DatabaseServer(cached_db, cost_model)
        return cached_db, server, BatchDriver(server, clock, cost_model)

    def test_repeated_batch_hits_and_gets_cheaper(self, stack):
        db, server, driver = stack
        statements = [("SELECT v FROM t WHERE v > ?", (10,)),
                      ("SELECT v FROM t WHERE v > ?", (20,)),
                      ("SELECT w FROM u WHERE w > ?", (30,))]
        cold = driver.execute_batch(statements, batch_optimize=True)
        assert driver.stats.result_cache_hits == 0
        hot = driver.execute_batch(statements, batch_optimize=True)
        assert driver.stats.result_cache_hits == 3
        for a, b in zip(cold, hot):
            assert a.rows == b.rows and a.columns == b.columns
        assert all(r.rows_touched == 0 for r in hot)

    def test_cached_members_drop_out_of_scan_groups(self, stack):
        db, server, driver = stack
        statements = [("SELECT v FROM t WHERE v > ?", (10,)),
                      ("SELECT v FROM t WHERE v > ?", (20,))]
        touched_before = db.total_rows_touched
        driver.execute_batch(statements, batch_optimize=True)
        groups_after_cold = driver.stats.shared_scan_groups
        assert groups_after_cold == 1  # the two scans shared once
        assert db.total_rows_touched == touched_before + 20
        driver.execute_batch(statements, batch_optimize=True)
        # Fully cached batch: no new group, no scan at all.
        assert driver.stats.shared_scan_groups == groups_after_cold
        assert db.total_rows_touched == touched_before + 20

    def test_write_in_batch_invalidates_following_reads(self, stack):
        db, server, driver = stack
        read = ("SELECT COUNT(*) AS n FROM t", ())
        first = driver.execute_batch(
            [read, ("INSERT INTO t (id, v) VALUES (200, 0)", ()), read],
            batch_optimize=True)
        assert first[0].scalar() == 20
        assert first[2].scalar() == 21

    def test_single_statement_path_counts_hits(self, stack):
        db, server, driver = stack
        plain = Driver(server, SimClock(), server.cost_model)
        plain.execute("SELECT v FROM t WHERE id = ?", (5,))
        plain.execute("SELECT v FROM t WHERE id = ?", (5,))
        assert plain.stats.result_cache_hits == 1


class TestHotPageLoads:
    @pytest.mark.parametrize("mode", ["original", "sloth"])
    def test_second_load_served_from_cache(self, mode):
        from repro.apps import itracker
        from repro.web.appserver import AppServer
        from repro.web.framework import Request

        db, dispatcher = itracker.build_app()
        server = AppServer(db, dispatcher, CostModel(), mode=mode)
        url = itracker.BENCHMARK_URLS[0]
        rows_before = db.total_rows_touched
        cold = server.load_page(Request(url))
        cold_rows = db.total_rows_touched - rows_before
        built = db.executor.plans_built

        rows_before = db.total_rows_touched
        hot = server.load_page(Request(url))
        hot_rows = db.total_rows_touched - rows_before
        assert hot.html == cold.html
        assert db.executor.plans_built == built  # plans_built unchanged
        assert hot.result_cache_hits > 0
        assert hot_rows == 0  # every cached statement touched nothing
        assert cold_rows > 0
        assert hot.time_ms < cold.time_ms


class TestDifferentialOracle:
    """Interleaved writer/reader sessions against a cache-disabled twin
    (the ``test_join_oracle`` methodology: same statements, two
    databases, byte-identical results everywhere)."""

    READS = (
        ("SELECT v FROM t WHERE id = ?", "pk"),
        ("SELECT id, v FROM t WHERE v > ?", "range"),
        ("SELECT COUNT(*) AS n FROM t", "none"),
        ("SELECT t.id, t.v, u.w FROM t JOIN u ON u.id = t.id "
         "WHERE t.v < ?", "range"),
        ("SELECT id FROM t ORDER BY v DESC LIMIT 3", "none"),
        ("SELECT w FROM u WHERE id = ?", "pk"),
    )
    WRITES = (
        "UPDATE t SET v = v + 1 WHERE id = ?",
        "DELETE FROM t WHERE id = ?",
        "INSERT INTO t (id, v) VALUES (?, ?)",
        "UPDATE u SET w = w - 1 WHERE id = ?",
    )

    def _build(self, result_cache_size):
        db = Database(result_cache_size=result_cache_size)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("CREATE TABLE u (id INT PRIMARY KEY, w INT)")
        db.execute("CREATE INDEX idx_t_v ON t (v) USING ORDERED")
        for i in range(30):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i % 7))
            db.execute("INSERT INTO u (id, w) VALUES (?, ?)", (i, i % 5))
        return db

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_engine_matches_uncached(self, seed):
        rng = random.Random(seed)
        cached = self._build(result_cache_size=64)
        plain = self._build(result_cache_size=0)
        next_id = 1000
        in_txn = False
        for step in range(300):
            roll = rng.random()
            if roll < 0.55:  # read (often repeated params: cache pressure)
                sql, shape = self.READS[rng.randrange(len(self.READS))]
                if shape == "pk":
                    params = (rng.randrange(35),)
                elif shape == "range":
                    params = (rng.randrange(8),)
                else:
                    params = ()
                a = cached.execute(sql, params)
                b = plain.execute(sql, params)
                assert a.columns == b.columns
                assert a.rows == b.rows, (seed, step, sql, params)
            elif roll < 0.8:  # write
                sql = self.WRITES[rng.randrange(len(self.WRITES))]
                if "INSERT" in sql:
                    params = (next_id, rng.randrange(7))
                    next_id += 1
                else:
                    params = (rng.randrange(35),)
                cached.execute(sql, params)
                plain.execute(sql, params)
            elif not in_txn:
                cached.execute("BEGIN")
                plain.execute("BEGIN")
                in_txn = True
            else:
                verb = "COMMIT" if rng.random() < 0.5 else "ROLLBACK"
                cached.execute(verb)
                plain.execute(verb)
                in_txn = False
        if in_txn:
            cached.execute("COMMIT")
            plain.execute("COMMIT")
        assert cached.snapshot_counts() == plain.snapshot_counts()
        # The run must have exercised the cache, not just bypassed it.
        stats = cached.result_cache_stats()
        assert stats["hits"] > 0 and stats["invalidations"] > 0
