"""Ordered (range) indexes and sort-aware planning.

Covers the whole vertical: ``USING ORDERED`` grammar, the sorted-key index
structure (NULL placement, unique semantics, transactional maintenance),
the ``IndexRangeScan`` access path (bounds, equality prefix, parameter and
NULL bounds), sort elision (including the cases that must *not* elide), the
top-N limit hint, UPDATE/DELETE range candidates, and plan-cache pickup.
"""

import pytest

from repro.sqldb import Database
from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import ConstraintError, SqlParseError
from repro.sqldb.indexes import OrderedIndex
from repro.sqldb.parser import parse
from repro.sqldb.plan import FROM_ORDER_OPTIONS, OptimizerOptions


@pytest.fixture
def events_db():
    db = Database()
    db.execute("CREATE TABLE ev (id INT PRIMARY KEY, day INT, kind TEXT, "
               "val INT)")
    db.execute("CREATE INDEX idx_ev_day ON ev (day) USING ORDERED")
    db.execute("CREATE INDEX idx_ev_kind_day ON ev (kind, day) USING ORDERED")
    rows = [
        (0, 7, "a", 10), (1, 3, "b", 20), (2, None, "a", 30),
        (3, 3, "a", 40), (4, 9, None, 50), (5, 1, "b", 60),
        (6, 7, "b", 70), (7, 5, "a", 80),
    ]
    for row in rows:
        db.execute("INSERT INTO ev (id, day, kind, val) "
                   "VALUES (?, ?, ?, ?)", row)
    return db


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

class TestGrammar:
    def test_using_ordered_parses(self):
        stmt = parse("CREATE INDEX i ON t (a, b) USING ORDERED")
        assert isinstance(stmt, A.CreateIndex)
        assert stmt.method == "ordered"
        assert stmt.columns == ["a", "b"]

    def test_default_method_is_hash(self):
        assert parse("CREATE INDEX i ON t (a)").method == "hash"

    def test_unique_ordered(self):
        stmt = parse("CREATE UNIQUE INDEX i ON t (a) USING ORDERED")
        assert stmt.unique and stmt.method == "ordered"

    def test_using_requires_ordered(self):
        with pytest.raises(SqlParseError):
            parse("CREATE INDEX i ON t (a) USING btree")


# ---------------------------------------------------------------------------
# The index structure
# ---------------------------------------------------------------------------

class TestOrderedIndexStructure:
    def test_catalog_records_method(self, events_db):
        info = events_db.catalog.table("ev").indexes["idx_ev_day"]
        assert info.method == "ordered"
        index = events_db.tables_get("ev").indexes["idx_ev_day"]
        assert isinstance(index, OrderedIndex)

    def test_indexes_null_keys_unlike_hash(self, events_db):
        index = events_db.tables_get("ev").indexes["idx_ev_day"]
        assert len(index) == 8  # the NULL-day row is indexed too

    def test_full_walk_orders_nulls_first(self, events_db):
        index = events_db.tables_get("ev").indexes["idx_ev_day"]
        table = events_db.tables_get("ev")
        days = [table.rows[rid][1] for rid in index.scan()]
        assert days == [None, 1, 3, 3, 5, 7, 7, 9]

    def test_bounded_scan_excludes_nulls(self, events_db):
        index = events_db.tables_get("ev").indexes["idx_ev_day"]
        table = events_db.tables_get("ev")
        days = [table.rows[rid][1] for rid in index.scan((), None, 5)]
        assert days == [1, 3, 3, 5]

    def test_crossed_bounds_are_empty(self, events_db):
        index = events_db.tables_get("ev").indexes["idx_ev_day"]
        assert list(index.scan((), 9, 3)) == []

    def test_equality_lookup_matches_hash_semantics(self, events_db):
        index = events_db.tables_get("ev").indexes["idx_ev_day"]
        assert list(index.lookup((3,))) == [2, 4]  # row ids of day=3
        assert list(index.lookup((None,))) == []

    def test_unique_allows_multiple_nulls(self, db):
        db.execute("CREATE TABLE u (id INT PRIMARY KEY, k INT)")
        db.execute("CREATE UNIQUE INDEX uk ON u (k) USING ORDERED")
        db.execute("INSERT INTO u (id, k) VALUES (1, NULL), (2, NULL)")
        db.execute("INSERT INTO u (id, k) VALUES (3, 5)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO u (id, k) VALUES (4, 5)")

    def test_rollback_restores_ordered_index(self, events_db):
        index = events_db.tables_get("ev").indexes["idx_ev_day"]
        before = list(index.scan())
        events_db.execute("BEGIN")
        events_db.execute("DELETE FROM ev WHERE day >= 5")
        events_db.execute("INSERT INTO ev (id, day, kind, val) "
                          "VALUES (99, 2, 'z', 0)")
        events_db.execute("ROLLBACK")
        assert list(index.scan()) == before

    def test_update_moves_key(self, events_db):
        events_db.execute("UPDATE ev SET day = 100 WHERE id = 5")
        index = events_db.tables_get("ev").indexes["idx_ev_day"]
        table = events_db.tables_get("ev")
        days = [table.rows[rid][1] for rid in index.scan()]
        assert days == [None, 3, 3, 5, 7, 7, 9, 100]


class TestBucketOrderUpkeep:
    """A bucket stays an ascending list of row ids when a write puts an id
    anywhere but at its end.  Each case runs the same statements on a
    table with a hash index (``h``) and an ordered one (``o``) and on an
    unindexed twin, then holds the lookups, an ordered walk and both
    index-NL joins to the ascending row-id order the twin scans in."""

    SETUP = [
        "CREATE TABLE l (id INT PRIMARY KEY, k INT)",
        "CREATE TABLE t (id INT PRIMARY KEY, h INT, o INT)",
        "INSERT INTO l (id, k) VALUES (1, 0), (2, 1), (3, 2)",
        "INSERT INTO t (id, h, o) VALUES " + ", ".join(
            f"({i}, {i % 3}, {i % 3})" for i in range(1, 13)),
    ]
    CASES = {
        # Row 3 (key 0) joins key 2, whose bucket holds rows 5, 8 and 11.
        "older-row-into-newer-bucket": [
            "UPDATE t SET h = 2, o = 2 WHERE id = 3"],
        # Row 4 comes back behind rows 7 and 10 of key 1.
        "rollback-of-delete": [
            "BEGIN", "DELETE FROM t WHERE id = 4", "ROLLBACK"],
        # Row 5 leaves key 2 and returns twice: in the statements, then
        # in the undo of each.
        "rekey-and-back-rolled-back": [
            "BEGIN", "UPDATE t SET h = 0, o = 0 WHERE id = 5",
            "UPDATE t SET h = 2, o = 2 WHERE id = 5", "ROLLBACK"],
    }

    @pytest.fixture
    def twins(self, cache_size):
        indexed, plain = (Database(result_cache_size=cache_size)
                          for _ in range(2))
        for db in (indexed, plain):
            db.execute_script(";\n".join(self.SETUP))
        indexed.execute("CREATE INDEX t_h ON t (h)")
        indexed.execute("CREATE INDEX t_o ON t (o) USING ORDERED")
        return indexed, plain

    @pytest.mark.parametrize("case", CASES)
    def test_readers_see_ascending_row_ids(self, twins, case):
        indexed, plain = twins
        for db in twins:
            for sql in self.CASES[case]:
                db.execute(sql)
        table = indexed.tables_get("t")
        for index in table.indexes.values():
            for key in {tuple(row[i] for i in index.ordinals)
                        for row in table.rows.values()}:
                ids = list(index.lookup(key))
                assert ids == sorted(set(ids)) and ids
        for direction in ("", " DESC"):
            walk = f"SELECT id, o FROM t ORDER BY o{direction}"
            assert "sort elided" in indexed.explain(walk)
            assert indexed.execute(walk).rows == plain.execute(walk).rows
        for column in ("h", "o"):
            join = (f"SELECT l.id, t.id FROM l JOIN t ON t.{column} = l.k "
                    "WHERE l.id = ?")
            assert f"strategy='index', index_name='t_{column}'" in (
                indexed.explain(join))
            assert "strategy='hash'" in plain.explain(join)
            for left_id in (1, 2, 3):
                assert (indexed.execute(join, (left_id,)).rows
                        == plain.execute(join, (left_id,)).rows)


# ---------------------------------------------------------------------------
# Range-scan access path
# ---------------------------------------------------------------------------

class TestRangeScanPath:
    def test_between_uses_range_scan(self, events_db):
        plan = events_db.explain(
            "SELECT id FROM ev WHERE day BETWEEN 3 AND 7")
        assert "IndexRangeScan" in plan and "3 <= day <= 7" in plan
        result = events_db.execute(
            "SELECT id FROM ev WHERE day BETWEEN 3 AND 7")
        assert sorted(r[0] for r in result.rows) == [0, 1, 3, 6, 7]
        assert result.rows_touched == 5

    def test_open_range_with_params(self, events_db):
        result = events_db.execute(
            "SELECT id FROM ev WHERE day > ?", (5,))
        assert sorted(r[0] for r in result.rows) == [0, 4, 6]
        assert result.rows_touched == 3

    def test_null_param_bound_yields_empty(self, events_db):
        result = events_db.execute(
            "SELECT id FROM ev WHERE day > ?", (None,))
        assert result.rows == []
        assert result.rows_touched == 0

    def test_equality_prefix_plus_range(self, events_db):
        plan = events_db.explain(
            "SELECT id FROM ev WHERE kind = ? AND day >= ?")
        assert "idx_ev_kind_day" in plan and "eq='kind = ?'" in plan
        result = events_db.execute(
            "SELECT id FROM ev WHERE kind = ? AND day >= ?", ("a", 5))
        assert sorted(r[0] for r in result.rows) == [0, 7]
        assert result.rows_touched == 2

    def test_mixed_between_bounds_empty(self, events_db):
        result = events_db.execute(
            "SELECT id FROM ev WHERE day BETWEEN ? AND ?", (8, 2))
        assert result.rows == [] and result.rows_touched == 0

    def test_seq_scan_baseline_never_range_scans(self, events_db):
        events_db.optimizer_options = FROM_ORDER_OPTIONS
        plan = events_db.explain("SELECT id FROM ev WHERE day BETWEEN 3 AND 7")
        assert "IndexRangeScan" not in plan

    def test_equality_still_prefers_hash_lookup(self, events_db):
        events_db.execute("CREATE INDEX idx_ev_val ON ev (val)")
        plan = events_db.explain("SELECT id FROM ev WHERE val = ?")
        assert "IndexLookup" in plan and "IndexRangeScan" not in plan


# ---------------------------------------------------------------------------
# Sort elision
# ---------------------------------------------------------------------------

class TestSortElision:
    def test_order_by_indexed_column_elides_sort(self, events_db):
        plan = events_db.explain("SELECT id, day FROM ev ORDER BY day")
        assert "sort elided" in plan and "Sort" not in plan.split("elided")[1]
        result = events_db.execute("SELECT id, day FROM ev ORDER BY day")
        explicit = Database()  # same data, no ordered index
        explicit.execute(
            "CREATE TABLE ev (id INT PRIMARY KEY, day INT, kind TEXT, "
            "val INT)")
        for row in events_db.execute("SELECT * FROM ev").rows:
            explicit.execute("INSERT INTO ev (id, day, kind, val) "
                             "VALUES (?, ?, ?, ?)", row)
        reference = explicit.execute("SELECT id, day FROM ev ORDER BY day")
        # byte-identical, not just multiset-equal: ties keep row order
        assert result.rows == reference.rows

    def test_descending_walk(self, events_db):
        result = events_db.execute("SELECT day FROM ev ORDER BY day DESC")
        assert [r[0] for r in result.rows] == [9, 7, 7, 5, 3, 3, 1, None]

    def test_pinned_prefix_column_is_skippable(self, events_db):
        plan = events_db.explain(
            "SELECT id FROM ev WHERE kind = ? ORDER BY kind, day")
        assert "sort elided" in plan

    def test_mixed_directions_keep_sort(self, events_db):
        plan = events_db.explain(
            "SELECT id FROM ev ORDER BY kind, day DESC")
        assert "Sort" in plan

    def test_unindexed_order_keeps_sort(self, events_db):
        plan = events_db.explain("SELECT id FROM ev ORDER BY val")
        assert "Sort" in plan and "sort elided" not in plan

    def test_alias_shadowing_keeps_sort(self, events_db):
        # ORDER BY day binds to the *output* column named day (= val), so
        # the index order over the day column must not be trusted.
        plan = events_db.explain(
            "SELECT id, val AS day FROM ev ORDER BY day")
        assert "Sort" in plan and "sort elided" not in plan

    def test_distinct_keeps_sort(self, events_db):
        # DISTINCT dedups by first occurrence *before* the Sort would run;
        # eliding the Sort would change the final row order, so DISTINCT
        # queries must keep the explicit sort.
        events_db.execute("CREATE INDEX idx_ev_kind ON ev (kind) "
                          "USING ORDERED")
        sql = "SELECT DISTINCT kind FROM ev WHERE day >= 1 ORDER BY kind"
        assert "sort elided" not in events_db.explain(sql)
        baseline = Database()
        baseline.optimizer_options = FROM_ORDER_OPTIONS
        baseline.execute("CREATE TABLE ev (id INT PRIMARY KEY, day INT, "
                         "kind TEXT, val INT)")
        for row in events_db.execute("SELECT * FROM ev").rows:
            baseline.execute("INSERT INTO ev (id, day, kind, val) "
                             "VALUES (?, ?, ?, ?)", row)
        assert events_db.execute(sql).rows == baseline.execute(sql).rows

    def test_aggregate_order_keeps_sort(self, events_db):
        plan = events_db.explain(
            "SELECT day, COUNT(*) AS n FROM ev GROUP BY day ORDER BY day")
        assert "Sort" in plan and "sort elided" not in plan

    def test_elision_survives_join(self, events_db):
        events_db.execute("CREATE TABLE kinds (kind TEXT PRIMARY KEY, "
                          "label TEXT)")
        for kind in ("a", "b"):
            events_db.execute("INSERT INTO kinds (kind, label) "
                              "VALUES (?, ?)", (kind, kind.upper()))
        sql = ("SELECT e.id, e.day, k.label FROM ev e "
               "JOIN kinds k ON e.kind = k.kind WHERE e.day >= 3 "
               "ORDER BY e.day")
        assert "sort elided" in events_db.explain(sql)
        result = events_db.execute(sql)
        days = [r[1] for r in result.rows]
        assert days == sorted(days)

    def test_order_by_output_position_elides(self, events_db):
        plan = events_db.explain("SELECT day, id FROM ev ORDER BY 1")
        assert "sort elided" in plan

    def test_order_by_true_is_no_position(self):
        # ``ORDER BY TRUE`` sorts by a constant (rows keep scan order),
        # not by output column 1: eliding the sort through the ordered
        # index on that column returned the two smallest days instead.
        rows = {}
        for options in (None, FROM_ORDER_OPTIONS):
            db = Database(optimizer_options=options)
            db.execute("CREATE TABLE ev (id INT PRIMARY KEY, day INT)")
            db.execute("CREATE INDEX idx_ev_day ON ev (day) USING ORDERED")
            for i, day in enumerate((5, 3, 9, 1, 7)):
                db.execute("INSERT INTO ev (id, day) VALUES (?, ?)", (i, day))
            sql = "SELECT day, id FROM ev ORDER BY TRUE LIMIT 2"
            assert "sort elided" not in db.explain(sql)
            rows[options] = db.execute(sql).rows
        assert rows[None] == rows[FROM_ORDER_OPTIONS] == [(5, 0), (3, 1)]


# ---------------------------------------------------------------------------
# Top-N limit hint
# ---------------------------------------------------------------------------

class TestLimitHint:
    def test_top_n_touches_only_n_rows(self, events_db):
        result = events_db.execute(
            "SELECT id, day FROM ev ORDER BY day DESC LIMIT 2")
        assert [r[1] for r in result.rows] == [9, 7]
        assert result.rows_touched == 2

    def test_offset_included_in_cutoff(self, events_db):
        result = events_db.execute(
            "SELECT day FROM ev ORDER BY day DESC LIMIT 2 OFFSET 1")
        assert [r[0] for r in result.rows] == [7, 7]
        assert result.rows_touched == 3

    def test_limit_without_elision_unchanged(self, events_db):
        result = events_db.execute(
            "SELECT id FROM ev ORDER BY val LIMIT 2")
        assert result.rows_touched == 8  # full scan + explicit sort

    def test_distinct_disables_hint(self, events_db):
        result = events_db.execute(
            "SELECT DISTINCT day FROM ev ORDER BY day LIMIT 2")
        assert [r[0] for r in result.rows] == [None, 1]
        assert result.rows_touched == 8


# ---------------------------------------------------------------------------
# UPDATE / DELETE range candidates
# ---------------------------------------------------------------------------

class TestWriteRangeCandidates:
    def test_update_touches_only_range(self, events_db):
        result = events_db.execute(
            "UPDATE ev SET val = 0 WHERE day BETWEEN 3 AND 5")
        assert result.rowcount == 3
        assert result.rows_touched == 3

    def test_delete_touches_only_range(self, events_db):
        result = events_db.execute("DELETE FROM ev WHERE day > ?", (7,))
        assert result.rowcount == 1
        assert result.rows_touched == 1
        assert events_db.table_size("ev") == 7

    def test_residual_conjuncts_still_checked(self, events_db):
        result = events_db.execute(
            "DELETE FROM ev WHERE day >= 3 AND val > ?", (50,))
        # range candidates: the six day>=3 rows; only ids 6 and 7 pass the
        # residual val conjunct
        assert result.rowcount == 2
        assert result.rows_touched == 6


# ---------------------------------------------------------------------------
# Plan cache pickup
# ---------------------------------------------------------------------------

class TestPlanCache:
    def test_creating_ordered_index_reoptimizes(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
        for i in range(20):
            db.execute("INSERT INTO t (id, k) VALUES (?, ?)", (i, i % 5))
        stmt = parse("SELECT id FROM t WHERE k BETWEEN ? AND ?")
        before = db.executor.plan_for(db, stmt)
        db.execute("CREATE INDEX idx_k ON t (k) USING ORDERED")
        after = db.executor.plan_for(db, stmt)
        assert after is not before
        result = db.execute_parsed(stmt, (1, 2))
        assert result.rows_touched == 8  # 2 of 5 key groups

    def test_dropping_ordered_index_reoptimizes(self, events_db):
        stmt = parse("SELECT id FROM ev WHERE day > ?")
        ranged = events_db.executor.plan_for(events_db, stmt)
        events_db.execute("DROP INDEX idx_ev_day")
        replanned = events_db.executor.plan_for(events_db, stmt)
        assert replanned is not ranged
        result = events_db.execute_parsed(stmt, (5,))
        assert sorted(r[0] for r in result.rows) == [0, 4, 6]

    def test_options_object_feature_gates(self, events_db):
        events_db.optimizer_options = OptimizerOptions(ordered_access=False)
        plan = events_db.explain("SELECT id FROM ev ORDER BY day")
        assert "Sort" in plan and "sort elided" not in plan
        plan = events_db.explain("SELECT id FROM ev WHERE day > 3")
        assert "IndexRangeScan" not in plan
        events_db.execute("CREATE TABLE kinds (kind TEXT PRIMARY KEY, "
                          "label TEXT)")
        sql = ("SELECT e.id, k.label FROM ev e JOIN kinds k "
               "ON e.kind = k.kind WHERE e.id = ?")
        assert "IndexLookup" in events_db.explain(sql)
        events_db.optimizer_options = OptimizerOptions(cost_based_joins=False)
        plan = events_db.explain(sql)
        assert "IndexLookup" not in plan and "strategy='hash'" in plan
        assert "sort elided" in events_db.explain(
            "SELECT id FROM ev ORDER BY day")


# ---------------------------------------------------------------------------
# Type-mismatched bounds
# ---------------------------------------------------------------------------

class TestBoundTypeMismatch:
    def test_literal_mismatch_raises_sql_type_error(self, events_db):
        # Planning prices the bound by a constant and never compares it;
        # execution surfaces the engine's usual SqlTypeError, exactly as a
        # scan-and-filter would.
        from repro.sqldb.errors import SqlTypeError
        with pytest.raises(SqlTypeError):
            events_db.execute("SELECT id FROM ev WHERE day < 'oops'")

    def test_param_mismatch_raises_sql_type_error(self, events_db):
        from repro.sqldb.errors import SqlTypeError
        with pytest.raises(SqlTypeError):
            events_db.execute("SELECT id FROM ev WHERE day < ?", ("oops",))

    def test_mismatch_on_empty_table_is_harmless(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
        db.execute("CREATE INDEX ik ON t (k) USING ORDERED")
        assert db.execute("SELECT id FROM t WHERE k < 'oops'").rows == []


# ---------------------------------------------------------------------------
# Multiple range conjuncts per side (bound intersection)
# ---------------------------------------------------------------------------

class TestRangeBoundIntersection:
    """``x > 5 AND x > 10`` must scan the ``x > 10`` region: literal
    bounds on the same side intersect to the tightest instead of the scan
    silently keeping the first (widest superset) it saw."""

    def test_redundant_lower_bounds_tighten(self, events_db):
        loose = events_db.execute(
            "SELECT id FROM ev WHERE day > 2 AND day > 4 AND day < 8")
        tight = events_db.execute("SELECT id FROM ev WHERE day > 4 AND day < 8")
        assert sorted(loose.rows) == sorted(tight.rows)
        assert loose.rows_touched == tight.rows_touched == 3

    def test_golden_explain_shows_tightest_bounds(self, events_db):
        plan = events_db.explain(
            "SELECT id FROM ev WHERE day > 2 AND day > 4 AND day < 8")
        assert "bounds='4 < day < 8'" in plan
        plan = events_db.explain(
            "SELECT id FROM ev WHERE day BETWEEN 3 AND 9 AND day < 6")
        assert "bounds='3 <= day < 6'" in plan

    def test_between_intersects_with_open_bound(self, events_db):
        result = events_db.execute(
            "SELECT id FROM ev WHERE day BETWEEN 3 AND 9 AND day < 6")
        assert sorted(r[0] for r in result.rows) == [1, 3, 7]
        assert result.rows_touched == 3  # days 3, 3, 5 only

    def test_equal_bounds_keep_exclusive(self, events_db):
        incl = events_db.execute("SELECT id FROM ev WHERE day >= 5")
        both = events_db.execute(
            "SELECT id FROM ev WHERE day >= 5 AND day > 5")
        assert both.rows_touched < incl.rows_touched
        assert sorted(r[0] for r in both.rows) == [0, 4, 6]

    def test_crossed_literal_bounds_scan_nothing(self, events_db):
        result = events_db.execute(
            "SELECT id FROM ev WHERE day > 6 AND day < 3")
        assert result.rows == [] and result.rows_touched == 0

    def test_literal_preferred_over_parameter(self, events_db):
        plan = events_db.explain(
            "SELECT id FROM ev WHERE day > ? AND day > 5")
        assert "bounds='day > 5'" in plan
        # The parameter conjunct stays as a residual filter: a tighter
        # runtime value still applies.
        result = events_db.execute(
            "SELECT id FROM ev WHERE day > ? AND day > 5", (8,))
        assert sorted(r[0] for r in result.rows) == [4]
        assert result.rows_touched == 3  # the day > 5 region
        loose = events_db.execute(
            "SELECT id FROM ev WHERE day > ? AND day > 5", (1,))
        assert sorted(r[0] for r in loose.rows) == [0, 4, 6]

    def test_two_parameter_bounds_keep_first(self, events_db):
        result = events_db.execute(
            "SELECT id FROM ev WHERE day > ? AND day > ?", (3, 6))
        assert sorted(r[0] for r in result.rows) == [0, 4, 6]

    def test_oracle_matches_seq_scan_baseline(self, events_db):
        """Differential: every multi-bound shape returns exactly the
        FROM-order (sequential scan + filter) rows and never touches more
        rows than the single tightest bound would."""
        baseline_db = Database()
        baseline_db.execute("CREATE TABLE ev (id INT PRIMARY KEY, day INT, "
                            "kind TEXT, val INT)")
        for row in events_db.query("SELECT id, day, kind, val FROM ev"):
            baseline_db.execute(
                "INSERT INTO ev (id, day, kind, val) VALUES (?, ?, ?, ?)",
                (row["id"], row["day"], row["kind"], row["val"]))
        queries = (
            ("SELECT id FROM ev WHERE day > 2 AND day > 4", ()),
            ("SELECT id FROM ev WHERE day < 9 AND day < 6 AND day < 7", ()),
            ("SELECT id FROM ev WHERE day >= 3 AND day > 3 AND day <= 7", ()),
            ("SELECT id FROM ev WHERE day BETWEEN 1 AND 9 "
             "AND day BETWEEN 3 AND 7", ()),
            ("SELECT id FROM ev WHERE day > ? AND day > 4 AND day < ?",
             (2, 8)),
            ("SELECT id FROM ev WHERE kind = 'a' AND day > 2 AND day > 4",
             ()),
        )
        for sql, params in queries:
            optimized = events_db.execute(sql, params)
            reference = baseline_db.execute(sql, params)
            assert sorted(optimized.rows) == sorted(reference.rows), sql
            assert optimized.rows_touched <= reference.rows_touched, sql


# ---------------------------------------------------------------------------
# Suffix-column bounds under an equality prefix
# ---------------------------------------------------------------------------

class TestCompositeKeyOrderStats:
    """A bound on a suffix column under an equality prefix is priced by
    the RANGE/BETWEEN constants, whatever its operands: planning never
    compares a bound against stored keys."""

    @pytest.fixture
    def skewed_db(self):
        db = Database()
        db.execute("CREATE TABLE ev2 (id INT PRIMARY KEY, kind TEXT, "
                   "day INT)")
        db.execute("CREATE INDEX idx_kind_day ON ev2 (kind, day) "
                   "USING ORDERED")
        i = 0
        for d in range(10):       # kind 'a': days 0..9
            db.execute("INSERT INTO ev2 (id, kind, day) "
                       "VALUES (?, 'a', ?)", (i, d))
            i += 1
        for d in range(100):      # kind 'b': days 0..99
            db.execute("INSERT INTO ev2 (id, kind, day) "
                       "VALUES (?, 'b', ?)", (i, d))
            i += 1
        return db

    def test_incomparable_bound_falls_back(self, skewed_db):
        # An incomparable literal bound must not crash pricing (the real
        # type error still surfaces at execution).
        from repro.sqldb.errors import SqlTypeError
        plan = skewed_db.explain(
            "SELECT id FROM ev2 WHERE kind = 'b' AND day < 'oops'")
        assert "IndexRangeScan" in plan
        with pytest.raises(SqlTypeError):
            skewed_db.execute(
                "SELECT id FROM ev2 WHERE kind = 'b' AND day < 'oops'")

    def test_parameter_prefix_keeps_heuristics(self, skewed_db):
        # A parameter prefix is unknown at plan time: pricing must not
        # crash and must keep working (constants), since one cached plan
        # serves every parameter value.
        plan = skewed_db.explain(
            "SELECT id FROM ev2 WHERE kind = ? AND day < 5")
        assert "IndexRangeScan" in plan
