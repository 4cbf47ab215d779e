"""Tests for the planner subsystem: logical plans, optimizer rules (incl.
cost-based join reordering and index nested-loop joins), physical operators,
the plan cache (DDL and per-table size-shift invalidation), and the batch
shared-scan optimizer."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import SqlError
from repro.sqldb.parser import parse
from repro.sqldb.plan import FROM_ORDER_OPTIONS
from repro.sqldb.plan.batch import execute_batch_plan


class TestOptimizerRules:
    def test_pk_predicate_selects_index_lookup(self, people_db):
        plan = people_db.explain("SELECT name FROM person WHERE id = 3")
        assert "IndexLookup" in plan
        assert "<pk>" in plan

    def test_secondary_index_selected(self, people_db):
        plan = people_db.explain("SELECT id FROM pet WHERE owner_id = 1")
        assert "idx_pet_owner" in plan

    def test_no_index_keeps_scan(self, people_db):
        plan = people_db.explain(
            "SELECT name FROM person WHERE city = 'boston'")
        assert "IndexLookup" not in plan
        assert "Scan" in plan

    def test_predicate_pushdown_below_join(self, people_db):
        plan = people_db.explain(
            "SELECT p.name FROM person p JOIN pet q ON p.id = q.owner_id "
            "WHERE p.city = 'boston' AND q.species = 'cat'")
        lines = plan.splitlines()
        join_depth = next(i for i, l in enumerate(lines) if "Join" in l)
        # One filter stays above the join (pet predicate), one is pushed
        # below it (person predicate).
        filters = [i for i, l in enumerate(lines) if "Filter" in l]
        assert any(i < join_depth for i in filters)
        assert any(i > join_depth for i in filters)

    def test_equi_join_gets_hash_strategy(self, people_db):
        plan = people_db.explain(
            "SELECT p.name FROM person p JOIN pet q ON p.id = q.owner_id")
        assert "strategy='hash'" in plan

    def test_non_equi_join_gets_nested_strategy(self, people_db):
        plan = people_db.explain(
            "SELECT p.name FROM person p JOIN pet q ON p.id > q.owner_id")
        assert "strategy='nested'" in plan


class TestPkInPointLookups:
    """``WHERE pk IN (...)`` plans as a multi-probe index lookup."""

    def test_pk_in_selects_index_lookup(self, people_db):
        plan = people_db.explain(
            "SELECT name FROM person WHERE id IN (1, 3)")
        assert "IndexLookup" in plan
        assert "<pk>" in plan

    def test_results_identical_to_scan_semantics(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE id IN (3, 1)")
        # Insertion-order emission, exactly what a scan-and-filter yields.
        assert result.rows == [("alice",), ("carol",)]
        assert result.rows_touched == 2  # two probes, not a 4-row scan

    def test_parameterized_in_list(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE id IN (?, ?)", (2, 4))
        assert result.rows == [("bob",), ("dave",)]
        assert result.rows_touched == 2

    def test_duplicates_and_nulls_in_list(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE id IN (1, 1, NULL)")
        assert result.rows == [("alice",)]  # no duplicate emission

    def test_intersecting_in_conjuncts(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE id IN (1, 2) AND id IN (2, 3)")
        assert result.rows == [("bob",)]
        assert result.rows_touched == 1

    def test_negated_in_keeps_scan(self, people_db):
        plan = people_db.explain(
            "SELECT name FROM person WHERE id NOT IN (1)")
        assert "IndexLookup" not in plan

    def test_non_pk_in_keeps_scan(self, people_db):
        plan = people_db.explain(
            "SELECT name FROM person WHERE city IN ('boston', 'sf')")
        assert "IndexLookup" not in plan

    def test_missing_key_simply_drops_out(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE id IN (3, 999)")
        assert result.rows == [("carol",)]

    def test_update_delete_use_pk_probes(self, people_db):
        deleted = people_db.execute(
            "DELETE FROM person WHERE id IN (2, 4)")
        assert deleted.rowcount == 2
        assert deleted.rows_touched == 2  # probed, not scanned
        left = people_db.execute("SELECT id FROM person")
        assert [r[0] for r in left.rows] == [1, 3]

    def test_pk_probe_keys_metadata(self, people_db):
        executor = people_db.executor
        plan = executor.plan_for(
            people_db, parse("SELECT name FROM person WHERE id IN (?, ?)"))
        assert plan.pk_probe_keys((1, 3)) == (
            "person", frozenset({1, 3}))
        eq_plan = executor.plan_for(
            people_db, parse("SELECT name FROM person WHERE id = 2"))
        assert eq_plan.pk_probe_keys(()) == (
            "person", frozenset({2}))
        scan_plan = executor.plan_for(
            people_db, parse("SELECT name FROM person WHERE city = 'sf'"))
        assert scan_plan.pk_probe_keys(()) is None

    def test_pk_in_members_are_not_grouped(self, people_db):
        batch = [("SELECT name FROM person WHERE id IN (1, 2)", ()),
                 ("SELECT name FROM person WHERE id IN (3, 4)", ())]
        outcome = execute_batch_plan(people_db, batch)
        assert outcome.groups == []  # point lookups stay on the fast path
        assert outcome.results[0].rows == [("alice",), ("bob",)]
        assert outcome.results[1].rows == [("carol",), ("dave",)]


class TestPushdownSemantics:
    """Pushdown must not change results, for inner and left joins."""

    def test_inner_join_results_unchanged(self, people_db):
        rows = people_db.query(
            "SELECT p.name, q.species FROM person p "
            "JOIN pet q ON p.id = q.owner_id "
            "WHERE p.city = 'boston' AND q.species = 'cat' ORDER BY q.id")
        assert rows == [{"name": "alice", "species": "cat"}]

    def test_left_join_base_predicate(self, people_db):
        # dave has no pets; the base predicate keeps him, the LEFT join
        # NULL-extends him.
        rows = people_db.query(
            "SELECT p.name, q.id FROM person p "
            "LEFT JOIN pet q ON p.id = q.owner_id WHERE p.city = 'sf'")
        assert rows == [{"name": "dave", "id": None}]

    def test_right_side_predicate_not_pushed_on_left_join(self, people_db):
        rows = people_db.query(
            "SELECT p.name FROM person p "
            "LEFT JOIN pet q ON p.id = q.owner_id WHERE q.id IS NULL")
        assert [r["name"] for r in rows] == ["dave"]


class TestJoinOrderingAndIndexJoins:
    """The cost-based rules added on top of the PR-1 pipeline."""

    @pytest.fixture
    def chain_db(self):
        def build(options=None):
            db = Database(optimizer_options=options)
            db.execute_script("""
            CREATE TABLE proj (id INT PRIMARY KEY, name TEXT);
            CREATE TABLE issue (id INT PRIMARY KEY, project_id INT,
                                creator_id INT, sev INT);
            CREATE TABLE usr (id INT PRIMARY KEY, login TEXT);
            CREATE INDEX idx_issue_proj ON issue (project_id)
            """)
            for i in range(5):
                db.execute("INSERT INTO proj (id, name) VALUES (?, ?)",
                           (i, f"p{i}"))
            for u in range(20):
                db.execute("INSERT INTO usr (id, login) VALUES (?, ?)",
                           (u, f"u{u}"))
            for i in range(200):
                db.execute(
                    "INSERT INTO issue (id, project_id, creator_id, sev) "
                    "VALUES (?, ?, ?, ?)", (i, i % 5, i % 20, i % 4))
            return db
        return build

    QUERY = ("SELECT u.login, i.id, p.name FROM usr u "
             "JOIN issue i ON i.creator_id = u.id "
             "JOIN proj p ON p.id = i.project_id WHERE p.id = 2")

    def test_reorder_rebases_chain_on_selective_table(self, chain_db):
        plan = chain_db().explain(self.QUERY)
        lines = plan.splitlines()
        # proj (pinned by PK) becomes the base of the chain; usr joins last.
        assert "IndexLookup [table='proj'" in plan
        assert lines.index(next(l for l in lines if "table='usr'" in l)) < \
            lines.index(next(l for l in lines if "table='issue'" in l))

    def test_reordered_results_match_from_order(self, chain_db):
        optimized = chain_db().execute(self.QUERY)
        baseline = chain_db(FROM_ORDER_OPTIONS).execute(self.QUERY)
        assert sorted(optimized.rows) == sorted(baseline.rows)
        assert optimized.rows_touched < baseline.rows_touched

    def test_left_join_is_a_reorder_barrier(self, chain_db):
        query = ("SELECT u.login FROM usr u "
                 "LEFT JOIN issue i ON i.creator_id = u.id "
                 "JOIN proj p ON p.id = i.project_id WHERE p.id < 3")
        optimized = chain_db().execute(query)
        baseline = chain_db(FROM_ORDER_OPTIONS).execute(query)
        assert sorted(optimized.rows) == sorted(baseline.rows)
        # The LEFT join pins usr as the base: the chain cannot re-base.
        plan = chain_db().explain(query)
        assert "Scan [table='usr'" in plan

    def test_index_join_touches_only_probed_rows(self, chain_db):
        db = chain_db()
        result = db.execute(
            "SELECT i.id, p.name FROM proj p "
            "JOIN issue i ON i.project_id = p.id WHERE p.id = 2")
        # 1 PK probe on proj + 40 issue rows via the project-id index.
        assert result.rows_touched == 41
        assert len(result.rows) == 40

    def test_index_join_falls_back_when_probes_exceed_scan(self):
        """Duplicate-heavy left keys: the adaptive runtime check must build
        a hash table instead of re-touching the same right rows."""
        db = Database()
        db.execute_script("""
        CREATE TABLE l (id INT PRIMARY KEY, k INT);
        CREATE TABLE r (id INT PRIMARY KEY, k INT);
        CREATE INDEX idx_r_k ON r (k)
        """)
        for i in range(50):
            db.execute("INSERT INTO l (id, k) VALUES (?, ?)", (i, i % 20))
        for i in range(20):
            db.execute("INSERT INTO r (id, k) VALUES (?, ?)", (i, i))
        # The parameterised range predicate under-estimates the left
        # stream (parameter bounds get no snapshot range statistics, only
        # the heuristic fraction), so the plan picks the index strategy;
        # at run time 50 probes of 1 row each exceed the 20-row table and
        # the operator hashes instead.
        query = ("SELECT l.id, r.id FROM l "
                 "JOIN r ON r.k = l.k WHERE l.id >= ?")
        assert "strategy='index'" in db.explain(query)
        result = db.execute(query, (0,))
        assert len(result.rows) == 50
        assert result.rows_touched == 50 + 20  # base scan + hash build

    def test_where_conjunct_follows_rebased_chain(self, people_db):
        # With the join re-based on pet, the pet-only WHERE conjunct lands
        # on the new base (below the join) and person is probed by PK.
        plan = people_db.explain(
            "SELECT p.name FROM person p JOIN pet q ON p.id = q.owner_id "
            "WHERE q.species = 'cat'")
        lines = plan.splitlines()
        filter_line = next(i for i, l in enumerate(lines)
                           if "species" in l and "Filter" in l)
        join_line = next(i for i, l in enumerate(lines) if "Join" in l)
        assert join_line < filter_line  # filter sits on the re-based scan
        assert "strategy='index', index_name='<pk>'" in plan
        rows = people_db.query(
            "SELECT p.name FROM person p JOIN pet q ON p.id = q.owner_id "
            "WHERE q.species = 'cat' ORDER BY q.id")
        assert [r["name"] for r in rows] == ["alice", "bob"]

    def test_cross_join_order_preserved_without_connection(self, people_db):
        # ON conditions referencing only one side leave no equi edge: the
        # optimizer must not invent an order that changes semantics.
        rows = people_db.query(
            "SELECT p.name, q.id FROM person p "
            "JOIN pet q ON q.species = 'cat' WHERE p.id = 1")
        assert sorted(r["id"] for r in rows) == [10, 12]


class TestNullJoinKeys:
    """SQL NULL never equals NULL: join keys that are NULL must not match
    under any join strategy (hash, index nested-loop, nested loop)."""

    @pytest.fixture
    def null_db(self):
        db = Database()
        db.execute_script("""
        CREATE TABLE a (id INT PRIMARY KEY, k INT);
        CREATE TABLE b (id INT PRIMARY KEY, k INT);
        CREATE INDEX idx_b_k ON b (k)
        """)
        for i, k in enumerate([1, 2, None, None]):
            db.execute("INSERT INTO a (id, k) VALUES (?, ?)", (i, k))
        # b is wide enough (and distinct enough in k) that probing its k
        # index per a-row prices below building a hash table over it, so
        # the default planner picks the index strategy the NULL-key tests
        # exercise; only k=1 matches a.
        for i, k in enumerate([1, None, 3, None, 5, 6, 7, 8, 9, 10]):
            db.execute("INSERT INTO b (id, k) VALUES (?, ?)", (i, k))
        return db

    def test_hash_join_null_keys_never_match(self, null_db):
        null_db.optimizer_options = FROM_ORDER_OPTIONS  # forces hash
        rows = null_db.query(
            "SELECT a.id, b.id FROM a JOIN b ON b.k = a.k")
        assert len(rows) == 1  # only k=1 pairs up

    def test_index_join_null_keys_never_match(self, null_db):
        query = ("SELECT a.id, b.id FROM a JOIN b ON b.k = a.k "
                 "WHERE a.id >= 0")
        assert "strategy='index'" in null_db.explain(query)
        rows = null_db.query(query)
        assert len(rows) == 1

    def test_nested_loop_null_keys_never_match(self, null_db):
        rows = null_db.query(
            "SELECT a.id, b.id FROM a JOIN b ON b.k = a.k AND b.k < 99 "
            "OR b.k = a.k AND b.k > 99")  # OR defeats the equi extraction
        assert len(rows) == 1

    def test_left_join_null_keys_extend_with_nulls(self, null_db):
        rows = null_db.query(
            "SELECT a.id AS aid, b.id AS bid FROM a LEFT JOIN b ON b.k = a.k")
        matched = [r for r in rows if r["bid"] is not None]
        assert len(matched) == 1
        assert len(rows) == 4  # every a row survives


class TestPlanCache:
    def test_repeated_statement_reuses_plan(self, people_db):
        stmt = parse("SELECT name FROM person WHERE id = ?")
        plan1 = people_db.executor.plan_for(people_db, stmt)
        plan2 = people_db.executor.plan_for(people_db, stmt)
        assert plan1 is plan2

    def test_ddl_invalidates_plans(self, people_db):
        stmt = parse("SELECT * FROM person WHERE age = 34")
        plan1 = people_db.executor.plan_for(people_db, stmt)
        people_db.execute("CREATE INDEX idx_person_age ON person (age)")
        plan2 = people_db.executor.plan_for(people_db, stmt)
        assert plan1 is not plan2
        # The new plan uses the new index.
        result = people_db.execute("SELECT * FROM person WHERE age = 34")
        assert result.rows_touched == 1

    def test_param_values_do_not_poison_plan(self, people_db):
        # The same prepared statement must fall back to a scan when the
        # parameter is NULL (col = NULL never matches) and use the index
        # when it is not.
        sql = "SELECT id FROM pet WHERE owner_id = ?"
        indexed = people_db.execute(sql, (1,))
        assert indexed.rows_touched == 2
        null_param = people_db.execute(sql, (None,))
        assert null_param.rows == []
        assert null_param.rows_touched == 4  # degraded to a scan

    def test_drop_index_invalidates_plans(self, people_db):
        stmt = parse("SELECT id FROM pet WHERE owner_id = 1")
        plan1 = people_db.executor.plan_for(people_db, stmt)
        people_db.execute("DROP INDEX idx_pet_owner")
        plan2 = people_db.executor.plan_for(people_db, stmt)
        assert plan1 is not plan2
        # Without the index the statement reverts to a full scan.
        result = people_db.execute("SELECT id FROM pet WHERE owner_id = 1")
        assert result.rows_touched == 4

    def test_growth_past_2x_reoptimizes(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        stmt = parse("SELECT v FROM t WHERE v = 1")
        plan1 = db.executor.plan_for(db, stmt)
        built = db.executor.plans_built
        # Growing the table >2x past the baseline marks it shifted; the
        # cached plan may no longer be reused.
        for i in range(30):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        assert db.catalog.shifted == {"t"}
        plan2 = db.executor.plan_for(db, stmt)
        assert plan1 is not plan2
        assert db.executor.plans_built == built + 1
        assert not db.catalog.shifted  # consumed by the lookup

    def test_truncate_reoptimizes(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(30):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        stmt = parse("SELECT v FROM t WHERE v = 1")
        plan1 = db.executor.plan_for(db, stmt)
        assert not db.catalog.shifted
        result = db.execute("TRUNCATE TABLE t")
        assert result.rowcount == 30
        assert db.table_size("t") == 0
        assert db.catalog.shifted == {"t"}
        assert db.executor.plan_for(db, stmt) is not plan1

    def test_stable_tables_keep_cached_plans(self, people_db):
        """No DDL, no >2x size shift: the plan must be reused, and the
        optimizer must not run again (counter stays flat)."""
        stmt = parse("SELECT name FROM person WHERE id = ?")
        plan1 = people_db.executor.plan_for(people_db, stmt)
        built = people_db.executor.plans_built
        people_db.execute("INSERT INTO person (id, name) VALUES (99, 'eve')")
        people_db.execute("DELETE FROM person WHERE id = 99")
        assert people_db.executor.plan_for(people_db, stmt) is plan1
        assert people_db.executor.plans_built == built

    def test_changing_optimizer_options_invalidates_plans(self, people_db):
        stmt = parse(
            "SELECT p.name FROM person p JOIN pet q ON p.id = q.owner_id")
        plan1 = people_db.executor.plan_for(people_db, stmt)
        people_db.optimizer_options = FROM_ORDER_OPTIONS
        plan2 = people_db.executor.plan_for(people_db, stmt)
        assert plan1 is not plan2

    def test_truncate_of_small_table_still_invalidates(self, people_db):
        # person never crossed the size-shift growth floor, but TRUNCATE
        # must invalidate its plans regardless.
        stmt = parse("SELECT name FROM person WHERE age > 0")
        plan1 = people_db.executor.plan_for(people_db, stmt)
        people_db.execute("TRUNCATE person")
        assert people_db.executor.plan_for(people_db, stmt) is not plan1

    @pytest.fixture
    def ab_db(self):
        """``a`` and ``b`` of 20 rows each, with a plan cached for every
        statement of ``AB_SQL``."""
        db = Database()
        db.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT)")
        db.execute("CREATE TABLE b (id INT PRIMARY KEY, y INT)")
        for i in range(20):
            db.execute("INSERT INTO a VALUES (?, ?)", (i, i))
            db.execute("INSERT INTO b VALUES (?, ?)", (i, i))
        for sql in self.AB_SQL.values():
            db.execute(sql)
        return db

    AB_SQL = {
        "a": "SELECT x FROM a WHERE x > 3",
        "b": "SELECT y FROM b WHERE y > 3",
        "join": "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y",
        "join_ba": "SELECT b.id FROM b JOIN a ON a.id = b.y WHERE b.id < 9",
    }

    def _plans(self, db):
        return {name: db.executor.plan_for(db, parse(sql))
                for name, sql in self.AB_SQL.items()}

    @pytest.mark.parametrize("rolled_back", [False, True])
    def test_shift_of_one_table_replans_only_its_statements(
            self, ab_db, rolled_back):
        """Growing ``a`` past 2x, kept or rolled back, rebuilds every plan
        that reads ``a`` once, joins included, and leaves the plan over
        ``b`` the same object."""
        before = self._plans(ab_db)
        built = ab_db.executor.plans_built
        if rolled_back:
            ab_db.execute("BEGIN")
        for i in range(20, 60):
            ab_db.execute("INSERT INTO a VALUES (?, ?)", (i, i))
        if rolled_back:
            ab_db.execute("ROLLBACK")
            assert ab_db.table_size("a") == 20
        assert ab_db.catalog.shifted == {"a"}
        after = self._plans(ab_db)
        assert after["b"] is before["b"]
        for name in ("a", "join", "join_ba"):
            assert after[name] is not before[name], name
        assert ab_db.executor.plans_built == built + 3
        for name, plan in self._plans(ab_db).items():
            assert plan is after[name], name
        assert ab_db.executor.plans_built == built + 3

    def test_shift_keeps_write_plans(self, ab_db):
        stmt = parse("UPDATE a SET x = ? WHERE id = ?")
        ab_db.execute_parsed(stmt, (1, 1))
        write_plan = ab_db.executor._plans[id(stmt)][2]
        for i in range(20, 60):
            ab_db.execute("INSERT INTO a VALUES (?, ?)", (i, i))
        self._plans(ab_db)  # drops the SELECT plans over ``a``
        ab_db.execute_parsed(stmt, (2, 2))
        assert ab_db.executor._plans[id(stmt)][2] is write_plan

    def test_stale_plan_reuse_impossible_after_any_invalidation(self, db):
        """Every invalidation class forces exactly one re-optimization."""
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        stmt = parse("SELECT v FROM t WHERE v = ?")
        invalidations = [
            "CREATE INDEX idx_t_v ON t (v)",
            "DROP INDEX idx_t_v",
            "CREATE TABLE other (id INT PRIMARY KEY)",
            "DROP TABLE other",
        ]
        db.executor.plan_for(db, stmt)
        for ddl in invalidations:
            before = db.executor.plans_built
            db.execute(ddl)
            db.executor.plan_for(db, stmt)
            assert db.executor.plans_built == before + 1, ddl
            db.executor.plan_for(db, stmt)
            assert db.executor.plans_built == before + 1, ddl


class TestSharedScanBatch:
    @pytest.fixture
    def batch_db(self):
        # Result cache off: these tests measure the shared-scan machinery
        # itself, and several execute the same statements independently
        # first — cached rows would short-circuit the groups under test
        # (cache-vs-group interplay is covered in test_result_cache.py).
        db = Database(result_cache_size=0)
        db.execute("CREATE TABLE item (id INT PRIMARY KEY, kind TEXT, "
                   "price INT)")
        for i in range(50):
            db.execute("INSERT INTO item (id, kind, price) VALUES (?, ?, ?)",
                       (i, "ab"[i % 2], i * 3))
        return db

    def test_shared_scan_touches_fewer_rows(self, batch_db):
        statements = [
            ("SELECT id FROM item WHERE kind = ?", ("a",)),
            ("SELECT id FROM item WHERE kind = ?", ("b",)),
            ("SELECT id, price FROM item WHERE price > ?", (60,)),
        ]
        independent = [batch_db.execute(s, p) for s, p in statements]
        independent_touched = sum(r.rows_touched for r in independent)
        plan_result = execute_batch_plan(batch_db, statements)
        shared_touched = sum(
            r.rows_touched for r in plan_result.results)
        assert independent_touched == 150  # three full scans
        assert shared_touched == 50        # one shared scan
        assert len(plan_result.groups) == 1
        assert plan_result.groups[0].rows_saved == 100

    def test_results_byte_identical_to_independent_execution(self, batch_db):
        statements = [
            ("SELECT id FROM item WHERE kind = ? ORDER BY id DESC", ("a",)),
            ("SELECT COUNT(*) AS n FROM item WHERE kind = ?", ("b",)),
            ("SELECT DISTINCT kind FROM item", ()),
            ("SELECT id, price FROM item WHERE price BETWEEN ? AND ? "
             "LIMIT 5", (30, 90)),
        ]
        independent = [batch_db.execute(s, p) for s, p in statements]
        plan_result = execute_batch_plan(batch_db, statements)
        for alone, shared in zip(independent, plan_result.results):
            assert alone.columns == shared.columns
            assert alone.rows == shared.rows
            assert alone.rowcount == shared.rowcount

    def test_indexed_lookups_are_not_grouped(self, batch_db):
        statements = [
            ("SELECT price FROM item WHERE id = ?", (1,)),
            ("SELECT price FROM item WHERE id = ?", (2,)),
        ]
        plan_result = execute_batch_plan(batch_db, statements)
        assert plan_result.groups == []
        assert [r.rows_touched for r in plan_result.results] == [1, 1]

    def test_writes_split_segments(self, batch_db):
        statements = [
            ("SELECT COUNT(*) AS n FROM item WHERE kind = 'a'", ()),
            ("INSERT INTO item (id, kind, price) VALUES (100, 'a', 1)", ()),
            ("SELECT COUNT(*) AS n FROM item WHERE kind = 'a'", ()),
        ]
        plan_result = execute_batch_plan(batch_db, statements)
        before, _, after = plan_result.results
        # The read before the write must not see the inserted row; the
        # read after must.
        assert after.scalar() == before.scalar() + 1
        assert plan_result.groups == []  # nothing shareable per segment

    def test_errors_surface_in_statement_order(self, batch_db):
        # Statement 0 fails on the catalog; the shareable scans later in
        # the batch must not run (and raise) ahead of it.
        from repro.sqldb.errors import CatalogError

        statements = [
            ("SELECT id FROM missing", ()),
            ("SELECT id FROM item WHERE kind = 'a'", ()),
            ("SELECT id FROM item WHERE kind = 'b'", ()),
        ]
        with pytest.raises(CatalogError):
            execute_batch_plan(batch_db, statements)

    def test_parse_error_after_write_leaves_write_applied(self, batch_db):
        # A later statement's parse error must not abort the batch before
        # an earlier write executes (state parity with the direct path).
        from repro.sqldb.errors import SqlParseError

        statements = [
            ("INSERT INTO item (id, kind, price) VALUES (500, 'a', 9)", ()),
            ("THIS IS NOT SQL", ()),
        ]
        with pytest.raises(SqlParseError):
            execute_batch_plan(batch_db, statements)
        assert batch_db.table_size("item") == 51

    def test_read_error_surfaces_before_later_parse_error(self, batch_db):
        # Buffered reads flush (and raise their own errors) before a later
        # statement's parse error, matching sequential execution.
        from repro.sqldb.errors import SqlError, SqlParseError

        statements = [
            ("SELECT nope FROM item", ()),
            ("THIS IS NOT SQL", ()),
        ]
        with pytest.raises(SqlError) as excinfo:
            execute_batch_plan(batch_db, statements)
        assert not isinstance(excinfo.value, SqlParseError)

    def test_mixed_tables_group_per_table(self, batch_db):
        batch_db.execute("CREATE TABLE other (id INT PRIMARY KEY, v INT)")
        for i in range(10):
            batch_db.execute("INSERT INTO other (id, v) VALUES (?, ?)",
                             (i, i))
        statements = [
            ("SELECT id FROM item WHERE kind = 'a'", ()),
            ("SELECT v FROM other WHERE v > 3", ()),
            ("SELECT id FROM item WHERE kind = 'b'", ()),
            ("SELECT v FROM other WHERE v < 3", ()),
        ]
        plan_result = execute_batch_plan(batch_db, statements)
        assert len(plan_result.groups) == 2
        tables = sorted(g.table for g in plan_result.groups)
        assert tables == ["item", "other"]


class TestSharedScanThroughStack:
    """End-to-end: query store -> batch driver -> server batch-plan path."""

    def test_query_store_shared_scans(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT)")
        for i in range(30):
            db.execute("INSERT INTO t (id, grp) VALUES (?, ?)", (i, i % 3))
        from repro.core.query_store import QueryStore

        qs = QueryStore(batch_driver, shared_scans=True)
        ids = [qs.register_query("SELECT id FROM t WHERE grp = ?", (g,))
               for g in range(3)]
        values = [
            sorted(row[0] for row in qs.get_result_set(i).rows)
            for i in ids
        ]
        assert values[0] == [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]
        assert batch_driver.stats.shared_scan_groups == 1
        assert batch_driver.stats.shared_scan_rows_saved == 60

    def test_shared_batch_cheaper_than_direct(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT)")
        for i in range(200):
            db.execute("INSERT INTO t (id, grp) VALUES (?, ?)", (i, i % 20))
        statements = [("SELECT id FROM t WHERE grp = ?", (g,))
                      for g in range(20)]
        _, direct_ms = server.execute_batch(statements)
        _, shared_ms = server.execute_batch(statements, batch_optimize=True)
        assert shared_ms < direct_ms

    def test_batch_results_identical_both_paths(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT)")
        for i in range(40):
            db.execute("INSERT INTO t (id, grp) VALUES (?, ?)", (i, i % 4))
        statements = [("SELECT id FROM t WHERE grp = ? ORDER BY id", (g,))
                      for g in range(4)]
        direct, _ = server.execute_batch(statements)
        shared, _ = server.execute_batch(statements, batch_optimize=True)
        for a, b in zip(direct, shared):
            assert a.columns == b.columns
            assert a.rows == b.rows


class TestQualifiedWhereColumns:
    """A qualified WHERE column the FROM list lacks is refused when the
    plan is built: a primary-key probe used to decide ``x.id = ?`` on
    ``t``'s key unevaluated, answering rows for some parameters."""

    @pytest.mark.parametrize("where", [
        "x.id = ?", "x.id = ? AND v > 0", "v > 0 AND x.v = ?",
        "t.nope = ?", "id IN (?, 3) AND x.id = 1"])
    @pytest.mark.parametrize("rows", [0, 3], ids=["empty", "rows"])
    def test_an_unknown_qualified_column_is_refused(self, where, rows):
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("CREATE INDEX t_v ON t (v)")
        for i in range(1, rows + 1):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, 10 * i))
        sql = f"SELECT v FROM t WHERE {where}"
        for params in ((2,), (20,), (None,)):
            with pytest.raises(SqlError, match="unknown column '(id|v|nope)' "
                                               "in table '(x|t)'"):
                db.execute(sql, params)
        with pytest.raises(SqlError, match="unknown column"):
            db.explain(sql)
