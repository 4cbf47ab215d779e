"""Chunk-boundary tests for the engine, against SQLite.

The engine exchanges ``ColumnChunk`` column arrays of up to
``CHUNK_SIZE`` rows, with selection vectors and fused predicates.  These
tests pin the edges the chunking can get wrong — empty inputs, result
sizes straddling the chunk boundary, every join operator's chunk path,
every shape the interpreter serves inside the chunk pipeline, LIMIT
cutting mid-chunk, NULL-heavy data through the compiled three-valued
logic — each answer held to SQLite's (``sqlite_reference``), and each
error to this engine's own message.  Plus the observability surface
(``engine_stats``, the explain Engine trailer, EXPLAIN ANALYZE) and the
scan's no-mutation contract.
"""

import pytest

from repro.core.query_store import QueryStore
from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.parser import parse
from repro.sqldb.plan.physical import CHUNK_SIZE, _pad

from sqlite_reference import assert_matches_sqlite, sqlite_copy


def _db(n_rows, result_cache_size=0):
    """The seeded table (result cache off unless asked for)."""
    db = Database(result_cache_size=result_cache_size)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT, "
               "p TEXT, z TEXT)")
    for i in range(n_rows):
        # v cycles through NULL every third row; s through a few labels
        # (a dictionary-encoded lane); p is unique per row (a plain TEXT
        # lane); z is never set (an all-NULL lane).
        db.execute("INSERT INTO t (id, v, s, p) VALUES (?, ?, ?, ?)",
                   (i, None if i % 3 == 0 else i % 97, f"s{i % 5}",
                    f"p{i}"))
    return db


def _outcome(db, sql, params):
    try:
        return db.execute(sql, params)
    except SqlError as exc:  # anything else is a leak and fails the test
        return exc


# ---------------------------------------------------------------------------
# Chunk boundaries
# ---------------------------------------------------------------------------


def test_empty_table():
    db = _db(0)
    lite = sqlite_copy(db)
    for sql, params, rows in (
            ("SELECT id, v FROM t", (), []),
            ("SELECT id FROM t WHERE v > ?", (5,), []),
            ("SELECT COUNT(*) FROM t", (), [(0,)]),
            ("SELECT s, COUNT(v) FROM t GROUP BY s", (), [])):
        assert assert_matches_sqlite(db, sql, params,
                                     lite=lite).rows == rows, sql


def test_empty_join_sides():
    db = _db(0)
    db.execute("CREATE TABLE u (id INT PRIMARY KEY, w INT)")
    db.execute("INSERT INTO u (id, w) VALUES (1, 10)")
    lite = sqlite_copy(db)
    assert assert_matches_sqlite(
        db, "SELECT t.id, u.w FROM t JOIN u ON t.v = u.id",
        lite=lite).rows == []
    assert assert_matches_sqlite(
        db, "SELECT u.id, t.v FROM u LEFT JOIN t ON t.v = u.id",
        lite=lite).rows == [(1, None)]


# Join shapes over ``t`` (NULL and duplicate-heavy ``v``, dictionary-
# encoded ``s``) filtered to its first ``?`` rows, so every join probes
# above a selection-vector chunk: label -> (the join the plan must run,
# as its EXPLAIN line names it; SQL).  ``u`` holds even ids only (odd keys
# stay unmatched) and two rows per ``k``; ``small`` is outgrown by the
# probe volume of a full ``t``, which trips the index join's adaptive hash
# fallback.
JOIN_SHAPES = {
    "pk-probe": ("table='u', strategy='index', index_name='<pk>'",
                 "SELECT t.id, t.s, u.w FROM t JOIN u ON t.v = u.id "
                 "WHERE t.id < ?"),
    "pk-probe-left": ("table='u', strategy='index', index_name='<pk>'",
                      "SELECT t.id, t.s, u.w FROM t LEFT JOIN u "
                      "ON t.v = u.id WHERE t.id < ?"),
    "secondary-probe": (
        "table='u', strategy='index', index_name='idx_u_k'",
        "SELECT t.id, t.s, u.id FROM t JOIN u ON t.v = u.k "
        "WHERE t.id < ?"),
    "secondary-probe-left": (
        "table='u', strategy='index', index_name='idx_u_k'",
        "SELECT t.id, t.s, u.id FROM t LEFT JOIN u "
        "ON t.v = u.k WHERE t.id < ?"),
    "hash-fallback": ("table='small', strategy='index', index_name='<pk>'",
                      "SELECT t.id, t.s, small.w FROM t LEFT JOIN small "
                      "ON t.v = small.id "
                      "WHERE t.id < ? AND t.s = 's1' AND t.v >= 0"),
    "hash": ("table='t', strategy='hash'",
             "SELECT small.id, t.s FROM small JOIN t ON small.w = t.v "
             "WHERE small.id < ?"),
    "nested-left": ("table='small', strategy='nested'",
                    "SELECT t.id, t.s, small.w FROM t LEFT JOIN small "
                    "ON small.id < t.v AND small.id > t.v - 4 "
                    "WHERE t.id < ?"),
}


# Shapes with no chunk kernel, each beside a fused leaf (``id < ?``) so the
# interpreter fallback runs inside AND/OR nodes, projections, group and sort
# keys and join conditions of an otherwise fused pipeline: label -> (SQL,
# message of the error every row raises, or None).  A shape that raises
# nothing answers SQLite's rows; a raising one raises this engine's error,
# word for word, whenever a row reaches it — and nothing when none does
# (size 0).
FALLBACK_SHAPES = {
    "col-vs-col": ("SELECT id FROM t WHERE id < ? AND v < id", None),
    "col-vs-col-or": ("SELECT id FROM t WHERE id < ? "
                      "AND (v > id OR s = 's1')", None),
    "arith-cmp": ("SELECT id FROM t WHERE id < ? AND v + 1 < id", None),
    "arith-cmp-or": ("SELECT id FROM t WHERE v + 1 < id OR id >= ?", None),
    "func-where": ("SELECT id FROM t WHERE id < ? AND LENGTH(s) = 2 "
                   "AND COALESCE(v, 7) > 5", None),
    "func-where-or": ("SELECT id FROM t WHERE id < ? "
                      "AND (UPPER(s) = 'S1' OR v > 90)", None),
    "func-select": ("SELECT id, UPPER(s), COALESCE(v, -1) FROM t "
                    "WHERE id < ?", None),
    "func-group-key": ("SELECT UPPER(s), COUNT(v) FROM t WHERE id < ? "
                       "GROUP BY UPPER(s)", None),
    "func-order-key": ("SELECT id, s FROM t WHERE id < ? "
                       "ORDER BY LENGTH(s), COALESCE(v, 0) DESC, id", None),
    "bool-select": ("SELECT id, id < 2, v IS NULL FROM t WHERE id < ?",
                    None),
    "not-number": ("SELECT id FROM t WHERE id < ? AND NOT v", None),
    "not-number-or": ("SELECT id FROM t WHERE id < ? "
                      "AND (NOT (v - 1) OR s = 's2')", None),
    "in-column-item": ("SELECT id FROM t WHERE id < ? "
                       "AND v IN (id, 5, NULL)", None),
    "like-column-pattern": ("SELECT id FROM t WHERE id < ? "
                            "AND (s LIKE s OR v = 3)", None),
    "having": ("SELECT s, COUNT(v) FROM t WHERE id < ? GROUP BY s "
               "HAVING COUNT(v) > 1 ORDER BY s", None),
    "agg-arith-grouped": ("SELECT s, COUNT(*) + 1, SUM(v) * 2 FROM t "
                          "WHERE id < ? GROUP BY s ORDER BY 1", None),
    "agg-arith": ("SELECT COUNT(*) + 1, -MAX(v) FROM t WHERE id < ?", None),
    "non-equi-on": ("SELECT t.id, tiny.w FROM t JOIN tiny "
                    "ON tiny.id < t.v AND tiny.id > t.v - 4 "
                    "WHERE t.id < ?", None),
    "or-on": ("SELECT t.id, tiny.w FROM t JOIN tiny "
              "ON tiny.id = t.v OR tiny.id = t.id WHERE t.id < ?", None),
    "or-on-left": ("SELECT t.id, tiny.w FROM t LEFT JOIN tiny "
                   "ON tiny.id = t.v OR tiny.w = t.id WHERE t.id < ?", None),
    "unknown-column": ("SELECT id FROM t WHERE id < ? AND nope > 1",
                       "unknown column 'nope' in any table"),
    "unknown-column-select": ("SELECT id, nope FROM t WHERE id < ?",
                              "unknown column 'nope' in any table"),
    "ambiguous-column": ("SELECT t.id FROM t LEFT JOIN tiny ON tiny.id < t.v "
                         "WHERE t.id < ? AND id >= 0",
                         "ambiguous column reference 'id'"),
    "text-vs-number": ("SELECT id FROM t WHERE id < ? AND 'a' < 1",
                       "cannot compare 'a' with 1"),
    "text-vs-number-column": ("SELECT id FROM t WHERE id < ? AND s < id",
                              "cannot compare 's0' with 0"),
    "negate-text": ("SELECT id, -'x' FROM t WHERE id < ?",
                    "cannot negate 'x'"),
    "negate-text-where": ("SELECT id FROM t WHERE id < ? AND -s < 1",
                          "cannot negate 's0'"),
    "missing-parameter": ("SELECT id FROM t WHERE id < ? AND v + 1 < ?",
                          "missing parameter #2 (got 1 parameters)"),
    # OR / NOT / IN / LIKE have no kernel (no workload issues them): alone
    # the whole WHERE is interpreted over full chunks, under AND the
    # interpreter sees the fused leaf's selection vector.  Each over the
    # dictionary-encoded lane ``s``, the plain TEXT lane ``p`` and the
    # all-NULL lane ``z``.
    "or-alone": ("SELECT id FROM t WHERE id < ? OR s = 'nope'", None),
    "or-lanes": ("SELECT id FROM t WHERE id < ? "
                 "AND (s = 's1' OR p = 'p7' OR z = 'x' OR v IS NULL)", None),
    "not-alone": ("SELECT id FROM t WHERE NOT (id >= ?)", None),
    "not-lanes": ("SELECT id FROM t WHERE id < ? AND NOT (s = 's1') "
                  "AND NOT (p > 'p5') AND NOT (z = 'x' AND v > 3)", None),
    "in-alone": ("SELECT id FROM t WHERE id IN (?, 1, 2, NULL)", None),
    "in-dict": ("SELECT id FROM t WHERE id < ? "
                "AND s IN ('s1', 's3', 'zzz')", None),
    "in-dict-alone": ("SELECT id, ? FROM t WHERE s IN ('s1', 's3')", None),
    "in-plain": ("SELECT id FROM t WHERE id < ? "
                 "AND p IN ('p0', 'p1023', 'p1024', 's1')", None),
    "in-all-null": ("SELECT id FROM t WHERE id < ? AND z IN ('a', 'b')",
                    None),
    "in-null-item": ("SELECT id FROM t WHERE id < ? "
                     "AND (s IN ('s1', NULL) OR v IN (NULL, 5))", None),
    "in-bool-vs-int-items": ("SELECT id FROM t WHERE id < ? "
                             "AND v IN (TRUE, 1, 's1', 2.0)", None),
    "in-missing-parameter-all-null": (
        "SELECT id FROM t WHERE id < ? AND z IN (?, 'a')", None),
    "in-missing-parameter": ("SELECT id FROM t WHERE id < ? AND p IN (?, 'a')",
                             "missing parameter #2 (got 1 parameters)"),
    "not-in-dict": ("SELECT id FROM t WHERE id < ? "
                    "AND s NOT IN ('s1', 's3')", None),
    "not-in-plain-alone": ("SELECT id, ? FROM t WHERE p NOT IN ('p0', 'p9')",
                           None),
    "not-in-null-item": ("SELECT id FROM t WHERE id < ? "
                         "AND s NOT IN ('s1', NULL)", None),
    "not-in-all-null": ("SELECT id FROM t WHERE id < ? AND z NOT IN ('a')",
                        None),
    "like-dict": ("SELECT id FROM t WHERE id < ? AND s LIKE 's_'", None),
    "like-dict-alone": ("SELECT id, ? FROM t WHERE s LIKE '%3'", None),
    "like-plain": ("SELECT id FROM t WHERE id < ? AND p LIKE 'p10%'", None),
    "like-plain-alone": ("SELECT id, ? FROM t WHERE p LIKE 'p_'", None),
    "like-all-null": ("SELECT id FROM t WHERE id < ? AND z LIKE '%'", None),
    "like-null-pattern": ("SELECT id FROM t WHERE id < ? AND s LIKE NULL",
                          None),
    "like-non-text-pattern-all-null": (
        "SELECT id FROM t WHERE id < ? AND z LIKE 5", None),
    "like-non-text-pattern": ("SELECT id FROM t WHERE id < ? AND s LIKE 5",
                              "LIKE requires text operands"),
    "like-non-text-column": ("SELECT id FROM t WHERE id < ? AND id LIKE 'x'",
                             "LIKE requires text operands"),
    "not-like-dict": ("SELECT id FROM t WHERE id < ? AND s NOT LIKE 's1'",
                      None),
    "not-like-plain": ("SELECT id FROM t WHERE id < ? "
                       "AND p NOT LIKE '%7' AND v > 5", None),
    "not-like-all-null-alone": ("SELECT id, ? FROM t WHERE z NOT LIKE 'a%'",
                                None),
    # Aggregate and vector shapes without a kernel (no workload issues
    # them): the whole projection / aggregation is interpreted over the
    # rows the fused filter kept.  Over the NULL-bearing lane ``v``, the
    # dictionary lane ``s``, the plain lane ``p`` and the all-NULL ``z``.
    "group-count-col": ("SELECT s, COUNT(v), COUNT(z), COUNT(s) FROM t "
                        "WHERE id < ? GROUP BY s", None),
    "group-count-distinct": ("SELECT s, COUNT(DISTINCT v), SUM(DISTINCT v), "
                             "COUNT(DISTINCT z) FROM t WHERE id < ? "
                             "GROUP BY s", None),
    "group-min-max": ("SELECT s, MIN(v), MAX(v), MIN(p), MAX(s), MAX(z) "
                      "FROM t WHERE id < ? GROUP BY s", None),
    "group-min-max-beside-sum": ("SELECT s, SUM(v), MIN(v), COUNT(*) FROM t "
                                 "WHERE id < ? GROUP BY s", None),
    "group-computed-key": ("SELECT v % 3, COUNT(*), SUM(v) FROM t "
                           "WHERE id < ? GROUP BY v % 3", None),
    "group-computed-key-mixed": ("SELECT s, id - id % 100, COUNT(*) FROM t "
                                 "WHERE id < ? GROUP BY s, id - id % 100",
                                 None),
    "group-concat-key": ("SELECT s || '-', COUNT(*) FROM t WHERE id < ? "
                         "GROUP BY s || '-'", None),
    "ungrouped-plain-item": ("SELECT id + 1, 7, COUNT(*) FROM t WHERE id < ?",
                             None),
    "neg-select": ("SELECT id, -v, -(v + 1), -z, -7 FROM t WHERE id < ?",
                   None),
    "neg-agg-argument": ("SELECT s, SUM(-v), SUM(-z) FROM t WHERE id < ? "
                         "GROUP BY s", None),
    "neg-dict-lane": ("SELECT id, -s FROM t WHERE id < ?",
                      "cannot negate 's0'"),
    "neg-grouped-argument": ("SELECT s, MAX(-p) FROM t WHERE id < ? "
                             "GROUP BY s", "cannot negate 'p0'"),
    "concat-select": ("SELECT id, s || p, s || z, 'x' || s FROM t "
                      "WHERE id < ?", None),
    "concat-agg-argument": ("SELECT s, MIN(s || p) FROM t WHERE id < ? "
                            "GROUP BY s", None),
    "concat-non-text": ("SELECT id, s || id FROM t WHERE id < ?",
                        "'||' requires text operands"),
    "concat-non-text-key": ("SELECT p || id, COUNT(*) FROM t WHERE id < ? "
                            "GROUP BY p || id",
                            "'||' requires text operands"),
    # Read-set shapes: the chunk operators fill only the lanes the
    # statement names (``SelectContext.read``), so a column the read set
    # missed would come back NULL.  ``id`` is filtered but rarely
    # projected; ``tiny`` / ``u`` lanes are filled by the join emit.
    "read-star": ("SELECT * FROM t WHERE id < ?", None),
    "read-alias-star": ("SELECT t.*, tiny.w FROM t LEFT JOIN tiny "
                        "ON tiny.id = t.v WHERE t.id < ?", None),
    "read-other-alias-star": ("SELECT t.p, tiny.* FROM t JOIN tiny "
                              "ON tiny.id = t.v WHERE t.id < ?", None),
    "read-nothing": ("SELECT COUNT(*) FROM t", None),
    "read-nothing-joined": ("SELECT COUNT(*) FROM t JOIN u ON u.k = t.v "
                            "WHERE t.id < ?", None),
    "read-order-unprojected": ("SELECT s FROM t WHERE id < ? "
                               "ORDER BY v DESC, p", None),
    "read-order-shadowing-alias": ("SELECT v AS id, s AS p FROM t "
                                   "WHERE id < ? ORDER BY id, p, z", None),
    "read-group-having-unprojected": (
        "SELECT COUNT(*) FROM t WHERE id < ? GROUP BY s "
        "HAVING MAX(v) > 10 ORDER BY 1", None),
    "read-group-fused-unprojected": ("SELECT SUM(v) FROM t WHERE id < ? "
                                     "GROUP BY s", None),
    "read-on-unprojected": ("SELECT t.p, u.w FROM t JOIN u ON t.v = u.id "
                            "WHERE t.id < ?", None),
    "read-on-unprojected-left": ("SELECT t.p, u.w FROM t LEFT JOIN u "
                                 "ON t.v = u.k WHERE t.id < ?", None),
    "read-on-unprojected-hash": ("SELECT small.id FROM small JOIN t "
                                 "ON small.w = t.v WHERE t.id < ?", None),
    "read-on-unprojected-nested": ("SELECT t.p FROM t LEFT JOIN tiny "
                                   "ON tiny.id < t.v AND tiny.w > 1 "
                                   "WHERE t.id < ?", None),
    "read-interpreted-items": ("SELECT UPPER(s), v IS NULL, LENGTH(p) > 2 "
                               "FROM t WHERE id < ?", None),
    "read-unknown-order-key": ("SELECT s FROM t WHERE id < ? ORDER BY nope",
                               "unknown column 'nope' in any table"),
    "read-unknown-qualified": ("SELECT t.s, tiny.nope FROM t LEFT JOIN tiny "
                               "ON tiny.id = t.v WHERE t.id < ?",
                               "unknown column 'nope' in table 'tiny'"),
    "read-ambiguous-item": ("SELECT id FROM t LEFT JOIN tiny "
                            "ON tiny.id = t.v WHERE t.id < ?",
                            "ambiguous column reference 'id'"),
    "read-ambiguous-order-key": ("SELECT t.s FROM t LEFT JOIN tiny "
                                 "ON tiny.id = t.v WHERE t.id < ? "
                                 "ORDER BY w, id",
                                 "ambiguous column reference 'id'"),
}

# The FALLBACK_SHAPES whose ORDER BY is total: compared with SQLite as
# sequences, the rest as multisets.
TOTAL_ORDER = {"func-order-key", "having", "agg-arith-grouped",
               "read-order-unprojected"}


def _seed_join_tables(db):
    db.execute("CREATE TABLE u (id INT PRIMARY KEY, k INT, w INT)")
    db.execute("CREATE INDEX idx_u_k ON u (k)")
    for i in range(0, 1600, 2):
        db.execute("INSERT INTO u (id, k, w) VALUES (?, ?, ?)",
                   (i, i // 4, i * 10))
    db.execute("CREATE TABLE small (id INT PRIMARY KEY, w INT)")
    for i in range(0, 97, 2):
        db.execute("INSERT INTO small (id, w) VALUES (?, ?)", (i, i))
    db.execute("CREATE TABLE tiny (id INT PRIMARY KEY, w INT)")
    for i in range(4):
        db.execute("INSERT INTO tiny (id, w) VALUES (?, ?)", (i * 3, i))


@pytest.mark.parametrize("size", [0, 1, CHUNK_SIZE - 1, CHUNK_SIZE,
                                  CHUNK_SIZE + 1])
def test_result_sizes_straddling_chunk_boundary(size):
    db = _db(CHUNK_SIZE + 1)
    result = assert_matches_sqlite(db, "SELECT id, v FROM t WHERE id < ?",
                                   (size,))
    assert len(result.rows) == size
    assert result.rows_touched == CHUNK_SIZE + 1
    # A multi-chunk scan really flowed through the chunked operators
    # (unless zone maps proved both chunks empty of ``id < 0``).
    assert db.executor.batches_executed > 0 or result.chunks_skipped == 2
    # The same left-side sizes through every join operator's chunk path.
    _seed_join_tables(db)
    lite = sqlite_copy(db)
    for label, (operator, sql) in JOIN_SHAPES.items():
        assert_matches_sqlite(db, sql, (size,), lite=lite)
        assert operator in db.explain(
            sql, params=(size,), analyze=True), label
    # ... and through every shape the interpreter serves inside the
    # chunk pipeline, errors included.
    for label, (sql, message) in FALLBACK_SHAPES.items():
        outcome = _outcome(db, sql, (size,))
        if message is not None and size:
            assert isinstance(outcome, SqlError), label
            assert str(outcome) == message, label
            continue
        assert not isinstance(outcome, SqlError), label
        if message is None and sql.count("?") == 1:
            # (SQLite binds every parameter before it reads a row.)
            assert_matches_sqlite(db, sql, (size,), lite=lite,
                                  total=label in TOTAL_ORDER)


def test_index_join_falls_back_to_hash_on_duplicate_heavy_keys():
    """The metadata pass sums probe volume before fetching: a handful of
    left rows probe the index, a full ``t`` would re-touch ``small``'s
    rows more often than one scan of it costs, so the join hash-builds
    instead."""
    db = _db(CHUNK_SIZE + 1)
    _seed_join_tables(db)
    lite = sqlite_copy(db)
    _, sql = JOIN_SHAPES["hash-fallback"]
    probed = assert_matches_sqlite(db, sql, (30,), lite=lite)
    assert CHUNK_SIZE + 1 < probed.rows_touched < CHUNK_SIZE + 1 + 49
    fallback = assert_matches_sqlite(db, sql, (CHUNK_SIZE + 1,), lite=lite)
    assert fallback.rows_touched == CHUNK_SIZE + 1 + 49
    assert any(w is None for *_, w in fallback.rows)  # unmatched LEFT rows


@pytest.mark.parametrize("label", ["pk-probe-left", "nested-left"])
def test_prefetched_base_rows_feed_joins(label):
    """The shared-scan hand-off (``prefetched_base_rows``) replaces the
    base scan under a join exactly as it does under a bare filter: same
    rows, and the base table's scan is not charged again."""
    _, sql = JOIN_SHAPES[label]
    db = _db(CHUNK_SIZE + 1)
    _seed_join_tables(db)
    private = db.execute(sql, (CHUNK_SIZE,))
    plan = db.executor.plan_for(db, parse(sql))
    shared_rows = [_pad(row, 0, plan.sctx.total_width)
                   for _, row in db.tables["t"].scan()]
    shared = plan.execute(db, (CHUNK_SIZE,),
                          prefetched_base_rows=shared_rows)
    assert shared.rows == private.rows
    assert shared.rows_touched == private.rows_touched - len(shared_rows)


def test_shared_scan_members_read_different_columns():
    """A ``QueryStore(shared_scans=True)`` batch scans ``t`` once and hands
    every member the same wide rows; each member transposes its own read
    set out of them, so members naming different columns must each get
    what a private execution gets."""
    statements = [
        ("SELECT id, s FROM t WHERE v > ?", (90,)),
        ("SELECT p FROM t WHERE s = ? ORDER BY v DESC, id", ("s2",)),
        ("SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s", ()),
        ("SELECT COUNT(*) FROM t", ()),
        ("SELECT * FROM t WHERE id < ?", (3,)),
        ("SELECT UPPER(s), z FROM t WHERE id < ?", (3,)),
    ]
    db = _db(CHUNK_SIZE + 5)
    cost_model, clock = CostModel(), SimClock()
    batch_driver = BatchDriver(DatabaseServer(db, cost_model), clock,
                               cost_model)
    store = QueryStore(batch_driver, shared_scans=True)
    ids = [store.register_query(sql, params) for sql, params in statements]
    shared = [store.get_result_set(query_id).rows for query_id in ids]
    assert batch_driver.stats.shared_scan_groups == 1
    assert shared == [db.execute(sql, params).rows
                      for sql, params in statements]


def test_limit_cuts_mid_chunk():
    db = _db(CHUNK_SIZE + 400)
    lite = sqlite_copy(db)
    for limit in (1, 700, CHUNK_SIZE, CHUNK_SIZE + 100):
        # This engine and SQLite both scan in primary-key order.
        result = assert_matches_sqlite(db, f"SELECT id FROM t LIMIT {limit}",
                                       total=True, lite=lite)
        assert len(result.rows) == limit
    # LIMIT above a sort returns the sorted prefix.
    result = assert_matches_sqlite(
        db, "SELECT id, v FROM t ORDER BY v DESC, id LIMIT 10", total=True,
        lite=lite)
    assert len(result.rows) == 10


def test_limit_hint_stops_early():
    """With an ordered index the sort is elided and the limit hint stops
    the walk after limit + offset rows — the one early exit in the
    engine.  Ties on ``v`` leave the ids open, so the ``v`` column is held
    to SQLite's."""
    db = _db(CHUNK_SIZE + 400)
    db.execute("CREATE INDEX idx_t_v ON t (v) USING ORDERED")
    lite = sqlite_copy(db, ["t"])
    for tail, touched in ((" LIMIT 1", 2), (" LIMIT 700", 701),
                          (f" LIMIT {CHUNK_SIZE + 100}", CHUNK_SIZE + 101),
                          (" LIMIT 50 OFFSET 25", 76)):
        sql = "SELECT id, v FROM t ORDER BY v" + tail
        assert "sort elided" in db.explain(sql)
        result = db.execute(sql)
        assert [v for _, v in result.rows] == [
            v for (v,) in lite.execute("SELECT v FROM t ORDER BY v" + tail)]
        # Early exit: far fewer rows touched than the full table.
        assert result.rows_touched <= touched
    # The page's rows re-enter the chunk pipeline through the read lanes
    # only: ``s`` is filtered and ``v`` ordered by, neither projected.
    result = db.execute("SELECT p, UPPER(p) FROM t WHERE s = ? "
                        "ORDER BY v LIMIT 7", ("s1",))
    assert len(result.rows) == 7 and all(p for p, _ in result.rows)


def test_null_heavy_columns():
    db = _db(600)
    lite = sqlite_copy(db)
    for sql, params in (
            ("SELECT id FROM t WHERE v > ?", (40,)),
            ("SELECT id FROM t WHERE v IS NULL", ()),
            ("SELECT id FROM t WHERE v IS NOT NULL AND v < ?", (30,)),
            ("SELECT id FROM t WHERE v BETWEEN ? AND ?", (10, 20)),
            ("SELECT id FROM t WHERE v IN (1, 2, NULL, 3)", ()),
            ("SELECT id FROM t WHERE NOT (v > ?)", (50,)),
            ("SELECT id FROM t WHERE v = ? OR v IS NULL", (7,)),
    ):
        assert_matches_sqlite(db, sql, params, lite=lite)
    for sql in ("SELECT id, v FROM t ORDER BY v, id",
                "SELECT s, COUNT(v), SUM(v), MIN(v), MAX(v) FROM t "
                "GROUP BY s ORDER BY s",
                "SELECT DISTINCT v FROM t ORDER BY v"):
        assert_matches_sqlite(db, sql, total=True, lite=lite)


def test_all_null_column():
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE n (id INT PRIMARY KEY, v INT)")
    for i in range(50):
        db.execute("INSERT INTO n (id, v) VALUES (?, NULL)", (i,))
    lite = sqlite_copy(db)
    assert assert_matches_sqlite(
        db, "SELECT COUNT(v), SUM(v), AVG(v) FROM n", lite=lite).rows == \
        [(0, None, None)]
    assert assert_matches_sqlite(db, "SELECT id FROM n WHERE v = v",
                                 lite=lite).rows == []


@pytest.mark.parametrize("sql", [
    "SELECT SUM(s) FROM t",
    "SELECT AVG(s) FROM t",
    "SELECT SUM(DISTINCT s) FROM t",
    "SELECT AVG(DISTINCT p) FROM t",
    "SELECT s, SUM(s) FROM t GROUP BY s",
    "SELECT v, AVG(p) FROM t GROUP BY v",
    "SELECT s, SUM(DISTINCT p) FROM t GROUP BY s",
    "SELECT s, SUM(v) + SUM(s) FROM t GROUP BY s",
    "SELECT SUM(p) FROM t WHERE id = 7",
])
def test_sum_avg_over_text_raise_sql_type_error(sql):
    """SUM/AVG over a non-numeric column is a SqlTypeError naming the
    aggregate and the value's type — never a bare Python TypeError, and
    the same text from every aggregate form (SQLite reads the text as 0:
    a dialect gap)."""
    outcome = _outcome(_db(40), sql, ())
    assert type(outcome) is SqlTypeError
    name = "AVG" if "AVG" in sql else "SUM"
    assert str(outcome) == f"{name} requires numeric values, got str"


@pytest.mark.parametrize("call, message", [
    ("UPPER(v)", "UPPER requires a text value, got int"),
    ("LOWER(id)", "LOWER requires a text value, got int"),
    ("LENGTH(v)", "LENGTH requires a text value, got int"),
    ("ABS(s)", "ABS requires a numeric value, got str"),
    ("ABS(v IS NULL)", "ABS requires a numeric value, got bool"),
])
def test_scalar_functions_over_the_wrong_type_raise_sql_type_error(
        call, message, cache_size):
    """A scalar function over a value of the wrong type is a SqlTypeError
    naming the function and the value's type — never the AttributeError /
    TypeError of the Python builtin behind it; NULL still yields NULL."""
    db = _db(6, cache_size)
    for sql in (f"SELECT {call} FROM t WHERE id = 1",
                f"SELECT id FROM t WHERE {call} = 1"):
        outcome = _outcome(db, sql, ())
        assert type(outcome) is SqlTypeError, sql
        assert str(outcome) == message, sql
    assert db.execute("SELECT UPPER(z), LOWER(z), LENGTH(z), ABS(v), "
                      "ABS(-id), LENGTH(s) FROM t WHERE id = 3").rows == \
        [(None, None, None, None, 3, 2)]


@pytest.mark.parametrize("column", ["id", "k"])  # primary key, hash index
@pytest.mark.parametrize("bad", [[1], {1}, {1: 2}],
                         ids=lambda bad: type(bad).__name__)
def test_unhashable_parameter_raises_sql_type_error_on_index_paths(
        column, bad, cache_size):
    """``col = ?`` with a list / set / dict parameter is a SqlTypeError
    whichever access path serves it — not the ``TypeError`` of the index's
    dict probe — and a failed UPDATE / DELETE leaves the table as it was.
    A key its column cannot compare disqualifies the index, so the error is
    the scan's, the same as over the unindexed column below."""
    db = Database(result_cache_size=cache_size)
    _seed_join_tables(db)
    before = db.execute("SELECT * FROM u").rows
    message = f"cannot compare 0 with {bad!r}"
    for sql in (f"SELECT id FROM u WHERE {column} = ?",
                f"SELECT w FROM u WHERE {column} = ? AND w > 0",
                f"UPDATE u SET w = 0 WHERE {column} = ?",
                f"DELETE FROM u WHERE {column} = ?"):
        outcome = _outcome(db, sql, (bad,))
        assert type(outcome) is SqlTypeError, sql
        assert str(outcome) == message, sql
    assert db.execute("SELECT * FROM u").rows == before
    # Unindexed, the comparison itself raises (unchanged).
    outcome = _outcome(db, "SELECT id FROM u WHERE w = ?", (bad,))
    assert type(outcome) is SqlTypeError
    assert str(outcome) == f"cannot compare 0 with {bad!r}"


def test_aggregates_over_text_and_empty_input_still_work():
    db = _db(40)
    lite = sqlite_copy(db)
    for sql, expected in (
            ("SELECT MIN(s), MAX(p), COUNT(s), COUNT(DISTINCT s) FROM t",
             [("s0", "p9", 40, 5)]),
            ("SELECT s, MIN(p), MAX(p) FROM t GROUP BY s ORDER BY s LIMIT 1",
             [("s0", "p0", "p5")]),
            # No value reaches the fold: nothing to reject.
            ("SELECT SUM(z), AVG(z), SUM(DISTINCT z) FROM t",
             [(None, None, None)]),
            ("SELECT SUM(s) FROM t WHERE id < 0", [(None,)]),
    ):
        assert assert_matches_sqlite(db, sql, lite=lite).rows == expected, sql


def _numbers(v):
    """Two rows holding ``v``."""
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, f REAL)")
    db.execute("INSERT INTO t (id, v, f) VALUES (1, ?, 2.0), (2, ?, 4.0)",
               (v, v))
    return db


def test_integer_division_is_exact():
    """An int divided by an int that divides it is that int, exactly: the
    quotient no longer goes through a float (``10**17 + 1`` over 1 came
    back as ``10**17``).  A remainder still gives true division (SQLite
    truncates: a dialect gap)."""
    v = 10 ** 17 + 1
    db = _numbers(v)
    for sql, params, expected in (
            ("SELECT v / ? FROM t WHERE id = 1", (1,), (v,)),
            ("SELECT v / ?, -v / ? FROM t WHERE id = 2", (-1, 1), (-v, -v)),
            ("SELECT v / 2, 7 / 2, 6 / 3, v / f FROM t WHERE id = 1", (),
             (v / 2, 3.5, 2, v / 2.0)),
    ):
        rows = db.execute(sql, params).rows
        assert rows == [expected], sql
        assert list(map(type, rows[0])) == list(map(type, expected))


@pytest.mark.parametrize("sql, params", [
    ("SELECT v / 3 FROM t", ()),
    ("SELECT v * f FROM t", ()),
    ("SELECT v + f FROM t", ()),
    ("SELECT f - v FROM t WHERE id = 2", ()),
    ("SELECT v * ? FROM t", (1.0,)),
    ("SELECT ? % v FROM t", (0.5,)),
    ("SELECT SUM(v * 1.0) FROM t", ()),
    ("SELECT AVG(v) FROM t", ()),
    ("SELECT id, AVG(v) FROM t GROUP BY id", ()),
    ("SELECT id, SUM(v) + f FROM t GROUP BY id, f", ()),
])
def test_a_result_no_float_holds_is_a_sql_type_error(sql, params):
    """``10**400`` meets a float, or an int division no float holds: a
    :class:`SqlTypeError`, never the builtin ``OverflowError`` — the same
    in every aggregate form."""
    outcome = _outcome(_numbers(10 ** 400), sql, params)
    assert (type(outcome), str(outcome)) == (
        SqlTypeError, "numeric value out of range")


def test_execute_script_keeps_semicolons_inside_string_literals():
    db = _db(3)
    results = db.execute_script(
        "INSERT INTO t (id, v, s, p) VALUES (10, 1, 'a;b', 'it''s;');\n"
        "-- a comment; with a semicolon and an apostrophe '\n"
        "SELECT s, p FROM t WHERE id = 10; ;")
    assert len(results) == 2
    assert results[1].rows == [("a;b", "it's;")]
    assert db.query("SELECT s FROM t WHERE p = 'it''s;'") == [{"s": "a;b"}]


# ---------------------------------------------------------------------------
# Zero-copy scan safety
# ---------------------------------------------------------------------------


def test_zero_copy_scan_does_not_leak_mutable_storage_rows(cache_size):
    """Results are immutable snapshots — a later UPDATE may not rewrite
    previously returned rows, whether or not the result cache kept them."""
    db = _db(100, cache_size)
    before = db.execute("SELECT id, v, s FROM t WHERE id < 10")
    snapshot = [tuple(r) for r in before.rows]
    db.execute("UPDATE t SET v = 999, s = 'mut' WHERE id < 10")
    assert [tuple(r) for r in before.rows] == snapshot
    after = db.execute("SELECT id, v, s FROM t WHERE id < 10")
    assert all(r[1] == 999 and r[2] == "mut" for r in after.rows)


def test_interleaved_writes_answer_what_sqlite_answers():
    db = _db(300)
    lite = sqlite_copy(db)
    for sql in ("UPDATE t SET v = v + 1 WHERE v > 50",
                "DELETE FROM t WHERE id % 7 = 0"):
        assert db.execute(sql).rowcount == lite.execute(sql).rowcount
    assert_matches_sqlite(db, "SELECT id, v, s FROM t WHERE v >= ?", (40,),
                          lite=lite)
    assert_matches_sqlite(db, "SELECT COUNT(*) FROM t", lite=lite)


# ---------------------------------------------------------------------------
# Observability: counters, explain surfaces
# ---------------------------------------------------------------------------


def test_one_engine_and_its_counters():
    with pytest.raises(TypeError):  # no such argument, whatever the name
        Database(engine="columnar")
    db = _db(CHUNK_SIZE + 1)
    db.execute("SELECT id FROM t WHERE v > 10")
    assert db.executor.batches_executed > 0
    assert db.engine_stats() == {
        "batches_executed": db.executor.batches_executed,
        "plans_built": db.executor.plans_built}
    # The Engine trailer comes with parameters only: the golden plain
    # EXPLAIN has none.
    sql = "SELECT id FROM t WHERE v > ?"
    assert "\nEngine [batches_executed=" in db.explain(sql, params=(1,))
    assert "Engine [" not in db.explain(sql)


def _line(out, node):
    """The EXPLAIN line of the (first) node of type ``node``."""
    return next(line for line in out.splitlines()
                if line.lstrip().startswith(node + " "))


def test_explain_analyze_shape():
    """EXPLAIN ANALYZE is the EXPLAIN tree with ``actual [...]`` on every
    line; a line with an estimate also carries its q-error.  ``v > ?``
    is priced by the 0.3 fallback (~150 of 500 rows) and keeps 289, so
    ``q = 289 / 150``."""
    db = _db(500)
    out = db.explain(
        "SELECT s, COUNT(*) FROM t WHERE v > ? GROUP BY s ORDER BY s",
        params=(10,), analyze=True)
    lines = out.splitlines()
    assert lines[0].startswith("EXPLAIN ANALYZE [rows=")
    assert "rows_touched=500" in lines[0]
    assert "total_ms=" in lines[0]
    assert [line.split(" [")[0].strip() for line in lines[1:]] == [
        "Sort", "Aggregate", "Filter", "Scan"]
    assert ("Scan [table='t', alias='t'] (~500 rows, ~500 touched) "
            "actual [rows=500, q=1.0, chunks=1, sel=100.0%, time="
            in _line(out, "Scan"))
    assert ("(~150 rows, ~500 touched) actual [rows=289, q=1.9, chunks=1, "
            "sel=57.8%, time=" in _line(out, "Filter"))
    assert "] actual [rows=5, time=" in _line(out, "Aggregate")
    # Deeper operators are indented further than their consumers.
    scan_line, filter_line = _line(out, "Scan"), _line(out, "Filter")
    assert (len(scan_line) - len(scan_line.lstrip())
            > len(filter_line) - len(filter_line.lstrip()))


def test_explain_analyze_columnar_chunks_and_density():
    """Pins the EXPLAIN ANALYZE annotation format: every chunked source
    operator reports ``chunks=``; operators that narrow selection vectors
    report ``sel=`` as live rows over chunk capacity."""
    db = _db(2 * CHUNK_SIZE)
    out = db.explain("SELECT id FROM t WHERE s = 's1'",
                     params=(), analyze=True)
    assert out.startswith("EXPLAIN ANALYZE [rows=")
    scan_line, filter_line = _line(out, "Scan"), _line(out, "Filter")
    assert (f"actual [rows={2 * CHUNK_SIZE}, q=1.0, chunks=2, sel=100.0%, "
            f"time=") in scan_line
    # s cycles through 5 labels: the filter keeps exactly 1/5 of rows.
    assert "chunks=2" in filter_line
    assert "sel=20.0%" in filter_line


def test_explain_analyze_columnar_reports_chunks_skipped():
    """Pins the ``chunks_skipped=`` annotation: a chunk-order-correlated
    range bound lets zone maps prove two of three chunks irrelevant, the
    base scan reports them, and header ``rows_touched`` still charges
    every storage row (zone maps change wall-clock only).  The scan
    produces one chunk's rows against an estimate of all three (q=3.0)."""
    db = _db(3 * CHUNK_SIZE)
    sql = "SELECT id FROM t WHERE id < ? AND v > ?"
    out = db.explain(sql, params=(CHUNK_SIZE, 0), analyze=True)
    assert f"rows_touched={3 * CHUNK_SIZE}" in out.splitlines()[0]
    assert (f"(~{3 * CHUNK_SIZE} rows, ~{3 * CHUNK_SIZE} touched) "
            f"actual [rows={CHUNK_SIZE}, q=3.0, chunks=1, chunks_skipped=2, "
            f"sel=100.0%, time=") in _line(out, "Scan")


def test_explain_analyze_is_side_effect_light():
    db = _db(50, result_cache_size=64)
    touched = db.total_rows_touched
    db.explain("SELECT id FROM t WHERE v > ?", params=(3,), analyze=True)
    assert db.total_rows_touched == touched
    # The analyze run did not populate the result cache.
    assert "status='miss'" in db.explain(
        "SELECT id FROM t WHERE v > ?", params=(3,))


def test_explain_analyze_rows_match_execution():
    db = _db(800)
    sql = "SELECT id, v FROM t WHERE v > ? ORDER BY v LIMIT 20"
    executed = db.execute(sql, (30,))
    out = db.explain(sql, params=(30,), analyze=True)
    assert f"rows={len(executed.rows)}" in out.splitlines()[0]
    assert f"rows_touched={executed.rows_touched}" in out.splitlines()[0]
