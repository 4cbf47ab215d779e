"""Unit tests for the columnar chunk layout itself.

The SQLite differentials (test_sqlite_oracle, test_join_oracle) pin the
engine's *results*; these tests pin the layout internals —
dictionary-encoding decisions, ColumnStore snapshot caching and
invalidation, selection-vector plumbing, per-chunk zone maps (their
construction, the scans that skip on them, and their invalidation
under writes and rollbacks).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import tpcc
from repro.sqldb import Database
from repro.sqldb import columnar as columnar_mod
from repro.sqldb.columnar import (ColumnChunk, DictColumn, NULL_CODE,
                                  _column_zones, _encode_dict)
from repro.sqldb.parser import parse
from repro.sqldb.plan import compile as compile_mod
from repro.sqldb.plan import physical as physical_mod
from repro.sqldb.plan.cost import column_ndv

from sqlite_reference import assert_matches_sqlite


def _db(n=100):
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, v INT)")
    for i in range(n):
        db.execute("INSERT INTO t VALUES (?, ?, ?)",
                   (i, None if i % 10 == 9 else f"label{i % 4}", i * 3))
    return db


ID, NAME, V = range(3)  # schema ordinals of ``t``, the stores' facet keys


# ---------------------------------------------------------------------------
# Dictionary encoding
# ---------------------------------------------------------------------------


def test_encode_dict_threshold():
    # 4 distinct over 100 rows: encoded.
    col, n_distinct = _encode_dict([f"x{i % 4}" for i in range(100)])
    assert isinstance(col, DictColumn)
    assert n_distinct == 4
    assert len(col.meta.values) == 4
    # All-distinct values: encoding would not pay; plain list kept.
    values = [f"x{i}" for i in range(100)]
    col, n_distinct = _encode_dict(values)
    assert col is values
    assert n_distinct == 100
    # NULLs encode as NULL_CODE and don't count as distinct.
    col, n_distinct = _encode_dict(["a", None, "a", None])
    assert isinstance(col, DictColumn)
    assert n_distinct == 1
    assert col.codes == [0, NULL_CODE, 0, NULL_CODE]
    assert col.decode() == ["a", None, "a", None]
    # All-NULL column stays a plain list (nothing to encode).
    values = [None, None, None]
    col, n_distinct = _encode_dict(values)
    assert col is values and n_distinct == 0


def test_dict_column_slice_shares_meta():
    col, _ = _encode_dict(["a", "b", "a", "b", "a", "b"])
    part = col[1:4]
    assert isinstance(part, DictColumn)
    assert part.meta is col.meta
    assert part.decode() == ["b", "a", "b"]
    assert part[0] == "b"
    assert len(part) == 3


def test_column_store_encodes_text_not_int():
    db = _db(n=100)
    store = db.tables["t"].column_store()
    id_col, name_col, v_col = map(store.lane, (ID, NAME, V))
    assert isinstance(name_col, DictColumn)
    assert not isinstance(id_col, DictColumn)
    assert not isinstance(v_col, DictColumn)
    assert store.distinct(NAME) == 4
    assert store.distinct(ID) == 100
    assert store.length == 100


# ---------------------------------------------------------------------------
# ColumnStore snapshot caching
# ---------------------------------------------------------------------------


def test_column_store_cached_until_mutation():
    db = _db()
    table = db.tables["t"]
    first = table.column_store()
    assert table.column_store() is first  # stable across reads
    db.execute("SELECT COUNT(*) FROM t WHERE name = 'label1'")
    assert table.column_store() is first  # queries don't invalidate
    db.execute("UPDATE t SET v = 0 WHERE id = 5")
    second = table.column_store()
    assert second is not first
    db.execute("DELETE FROM t WHERE id = 6")
    assert table.column_store() is not second


def _materialised(table):
    """The column names whose lane / zone map / distinct count the
    table's current store holds — read off the cache slots, so asking
    builds nothing."""
    store = table.column_store()
    names = table.schema.column_names
    return tuple({name for name, facet in zip(names, facets)
                  if facet is not None}
                 for facets in (store._lanes, store._zones, store._distinct))


def test_store_materialises_only_what_statements_read():
    db = Database(result_cache_size=0)
    tpcc.seed(db, warehouses=1)
    order_line = db.tables["order_line"]
    assert order_line.column_store().rows == [
        row for _, row in order_line.scan()]
    assert _materialised(order_line) == (set(), set(), set())
    # An unfiltered aggregate: its two lanes, nothing to zone-test.
    sql = "SELECT ol_w_id, SUM(ol_amount) FROM order_line GROUP BY ol_w_id"
    first = db.execute(sql).rows
    assert _materialised(order_line) == (
        {"ol_w_id", "ol_amount"}, set(), set())
    # A filtered scan adds its own lanes, the zones of the columns a range
    # tests and the equality facets of those ``=`` tests — the projected
    # lanes are never zone-tested.
    db.execute("SELECT ol_i_id, ol_delivery_d FROM order_line "
               "WHERE ol_quantity > ? AND ol_d_id = ?", (3, 1))
    lanes, zones, distinct = _materialised(order_line)
    assert lanes == {"ol_w_id", "ol_amount", "ol_i_id", "ol_delivery_d",
                     "ol_quantity", "ol_d_id"}
    assert zones == {"ol_quantity"}
    store = order_line.column_store()
    assert {name for name, facet in zip(order_line.schema.column_names,
                                        store._facets)
            if facet is not None} == {"ol_d_id"}
    # Planning priced ``ol_d_id = ?`` by that column's count; encoding the
    # TEXT lane ol_delivery_d counted its distinct values on the way.
    assert distinct == {"ol_d_id", "ol_delivery_d"}
    # A second execution builds nothing: same store, same facet objects.
    cached = (store._lanes, store._zones, store._facets, store._distinct)
    facets = [list(f) for f in cached]
    assert db.execute(sql).rows == first
    assert order_line.column_store() is store
    assert all(now is before for slots, was in zip(cached, facets)
               for now, before in zip(slots, was))


def test_column_ndv_counts_one_column_and_builds_no_lane():
    db = Database(result_cache_size=0)
    tpcc.seed(db, warehouses=1)
    # Unindexed: the count comes off the store, alone.
    assert column_ndv(db, "order_line", "ol_d_id") == 10
    assert _materialised(db.tables["order_line"]) == (
        set(), set(), {"ol_d_id"})
    # Primary key and single-column index: no store facet at all.
    assert column_ndv(db, "order_line", "ol_id") == 300
    assert column_ndv(db, "order_line", "ol_o_id") == 100
    assert _materialised(db.tables["order_line"]) == (
        set(), set(), {"ol_d_id"})
    # Planning a join asks for the unindexed key's count and nothing more.
    db.explain("SELECT c_last, h_amount FROM customer "
               "JOIN history ON h_c_id = c_id WHERE c_balance > 0")
    assert _materialised(db.tables["history"]) == (set(), set(), {"h_c_id"})
    assert _materialised(db.tables["customer"]) == (set(), set(), set())


def test_lane_requested_after_a_write_comes_from_a_fresh_store():
    """Laziness must not let a facet straddle a write: whatever discards
    the store discards what it had built, a lane first requested
    afterwards is built from the post-write rows, and the discarded
    store — asked only now — still answers with the contents it pinned."""
    db = _db(n=50)
    table = db.tables["t"]

    def current_v():
        return [row[V] for _, row in table.scan()]

    def write_between_requests(write):
        old = table.column_store()
        old.lane(ID)  # something cached that must not carry over
        before = current_v()
        write()
        new = table.column_store()
        assert new is not old
        assert (new._lanes, new._zones, new._distinct) == ([None] * 3,) * 3
        values = new.lane(V)
        assert values == current_v() != before
        assert new.zones(V) == [(min(values), max(values), 0, len(values))]
        assert new.distinct(V) == len(set(values))
        assert old.lane(V) == before
        return old, new

    write_between_requests(
        lambda: db.execute("INSERT INTO t VALUES (50, 'x', -5)"))
    write_between_requests(
        lambda: db.execute("UPDATE t SET v = -9 WHERE id = 7"))
    write_between_requests(lambda: db.execute("DELETE FROM t WHERE id = 8"))
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 1000 WHERE id < 10")
    mid, after = write_between_requests(lambda: db.execute("ROLLBACK"))
    assert max(mid.lane(V)) == 1000 > max(after.lane(V))


def test_column_store_invalidated_by_rollback():
    db = _db()
    table = db.tables["t"]
    db.execute("BEGIN")
    db.execute("DELETE FROM t WHERE id < 50")
    mid = table.column_store()
    assert mid.length == 50
    db.execute("ROLLBACK")
    after = table.column_store()
    assert after is not mid
    assert after.length == 100
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 100


# ---------------------------------------------------------------------------
# ColumnChunk plumbing
# ---------------------------------------------------------------------------


def test_chunk_selection_vector_round_trip():
    chunk = ColumnChunk([[1, 2, 3, 4], ["a", "b", "c", "d"]], 4, sel=[1, 3])
    assert chunk.n_live() == 2
    assert list(chunk.live_indices()) == [1, 3]
    assert chunk.to_rows() == [[2, "b"], [4, "d"]]
    assert chunk.gather(0) == [2, 4]
    full = ColumnChunk([[1, 2], ["x", "y"]], 2)
    assert full.sel is None
    assert list(full.live_indices()) == [0, 1]
    assert full.to_rows() == [[1, "x"], [2, "y"]]


def test_chunk_take_keeps_dictionaries_encoded():
    col, _ = _encode_dict(["a", "b", "a", "b"])
    chunk = ColumnChunk([[10, 20, 30, 40], col], 4)
    out = chunk.take([0, 2, 2])  # duplicates allowed (join fan-out)
    assert out.length == 3 and out.sel is None
    assert out.columns[0] == [10, 30, 30]
    taken = out.columns[1]
    assert isinstance(taken, DictColumn) and taken.meta is col.meta
    assert taken.decode() == ["a", "a", "a"]
    # skip_range lanes become all-NULL placeholders.
    skipped = chunk.take([1], skip_range=(1, 2))
    assert skipped.columns[1] is None
    assert skipped.to_rows() == [[20, None]]


def test_from_rows_transpose_shim():
    chunk = ColumnChunk.from_rows([[1, "a"], [2, "b"]], 2, (0, 1))
    assert chunk.length == 2 and chunk.sel is None
    assert chunk.columns == [[1, 2], ["a", "b"]]
    # Positions outside the read set stay the all-NULL lane.
    pruned = ColumnChunk.from_rows([[1, "a", 7], [2, "b", 8]], 3, (1,))
    assert pruned.columns == [None, ["a", "b"], None]
    assert pruned.to_rows() == [[None, "a", None], [None, "b", None]]
    empty = ColumnChunk.from_rows([], 3, (0, 2))
    assert empty.length == 0
    assert empty.columns == [[], None, []]
    assert empty.to_rows() == []


# ---------------------------------------------------------------------------
# Engine-level behaviors that hang off the layout
# ---------------------------------------------------------------------------


def test_dictionary_predicates_agree_with_sqlite():
    db = _db()
    for sql in ("SELECT id FROM t WHERE name = 'label2'",
                "SELECT id FROM t WHERE name <> 'label0'",
                "SELECT id FROM t WHERE name LIKE 'label%'",
                "SELECT id FROM t WHERE name LIKE '%2'",
                "SELECT id FROM t WHERE name IN ('label1', 'label3', 'zzz')",
                "SELECT id FROM t WHERE name IS NULL"):
        assert assert_matches_sqlite(db, sql).rows_touched == 100, sql
    assert_matches_sqlite(
        db, "SELECT name, COUNT(*) FROM t GROUP BY name ORDER BY name",
        total=True)


def test_sort_reads_the_source_only_for_source_keys(monkeypatch):
    """ORDER BY over output aliases and positions sorts the projected rows
    alone; a key over the *source* row reads its lane over the source
    chunks' kept rows only — ``LENGTH(name)``, a shape with no loop of its
    own, is evaluated once per result row and never on a row the WHERE
    dropped, and no other key calls a function.  An aggregate reads a
    plain item's lane at each group's first row, never the whole row, and
    no result operator transposes a chunk to rows."""
    db = _db(n=50)
    called, transposed = [], []
    scalar_function, to_rows = compile_mod.scalar_function, ColumnChunk.to_rows
    # Bound into each function lane when its plan is built, below.
    monkeypatch.setattr(
        compile_mod, "scalar_function",
        lambda *args: called.append(args) or scalar_function(*args))
    monkeypatch.setattr(
        ColumnChunk, "to_rows",
        lambda chunk: transposed.append(chunk) or to_rows(chunk))
    for sql, a_function_key in (
            ("SELECT id, v AS w FROM t WHERE v > 30 ORDER BY w DESC, 1",
             False),
            ("SELECT name, COUNT(*) AS n FROM t GROUP BY name "
             "ORDER BY n DESC, name", False),
            ("SELECT id FROM t WHERE v > 30 ORDER BY name DESC, v % 7, id",
             False),
            ("SELECT id FROM t WHERE v > 30 "
             "ORDER BY LENGTH(name) DESC, v % 7, id", True)):
        called.clear()
        result = assert_matches_sqlite(db, sql, total=True)
        assert len(called) == (len(result.rows) if a_function_key else 0), sql
    assert not transposed


def test_index_join_keeps_left_dictionary_lanes_encoded():
    """The native index join emits through ``take``: the probe side's
    dictionary lane fans out as codes and decodes only at projection."""
    db = _db(n=100)
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, w INT)")
    for i in range(0, 600, 6):
        db.execute("INSERT INTO r VALUES (?, ?)", (i, -i))
    sql = "SELECT t.name, r.w FROM t JOIN r ON t.v = r.id WHERE t.id < 60"
    plan = db.executor.plan_for(db, parse(sql))
    assert isinstance(plan.source, physical_mod.IndexNLJoinOp)
    run = physical_mod.PlanRun(db, ())
    (chunk,) = plan.source.iter_cchunks(run)
    assert chunk.length == 30 and chunk.sel is None
    assert isinstance(chunk.columns[1], DictColumn)
    assert chunk.columns[4] == list(range(0, -180, -6))
    assert db.execute(sql).rows == [
        (None if i % 10 == 9 else f"label{i % 4}", -3 * i)
        for i in range(0, 60, 2)]


# ---------------------------------------------------------------------------
# Zone maps
# ---------------------------------------------------------------------------


def test_zone_maps_record_chunk_min_max_and_nulls():
    db = _db(n=100)
    store = db.tables["t"].column_store()
    assert store.zones(ID) == [(0, 99, 0, 100)]
    assert store.zones(V) == [(0, 297, 0, 100)]
    (lo, hi, nulls, count), = store.zones(NAME)
    assert (lo, hi) == ("label0", "label3")
    assert nulls == 10 and count == 100


def test_zone_maps_withhold_unorderable_ranges():
    # A bool hiding among ints would make the scan's comparison raise;
    # the zone must advertise no range so pruning cannot skip the raise.
    assert _column_zones([True, 3], 2) == [(None, None, 0, 2)]
    assert _column_zones([1, "x"], 2) == [(None, None, 0, 2)]
    # All-NULL chunks carry only a trustworthy null count.
    assert _column_zones([None, None, None], 3) == [(None, None, 3, 3)]
    # Homogeneous non-numeric types still get a range.
    assert _column_zones(["b", None, "a"], 3) == [("a", "b", 1, 3)]


def test_scan_skips_chunks_outside_range():
    db = _db(n=2500)
    result = assert_matches_sqlite(db, "SELECT id, v FROM t WHERE id < ?",
                                   (1024,))
    assert result.rowcount == 1024
    # Chunks 2 and 3 (ids 1024..2499) are proven irrelevant and skipped —
    # but still charge rows_touched: zone maps change wall-clock only.
    assert result.chunks_skipped == 2
    assert result.rows_touched == 2500


def test_scan_skips_chunks_beside_interpreted_operand():
    """IN / LIKE / OR / NOT have no kernel and no zone test; as the right
    operand of a fused leaf they neither stop the leaf's zone test from
    skipping chunks nor see the skipped rows.  With that operand on the
    left nothing can be ruled out: it runs — and may
    raise — on every row."""
    db = _db(n=2500)
    for operand in ("name IN ('label1', 'label3')", "name LIKE '%2'",
                    "(v = 30 OR name IS NULL)", "NOT (v > 300)"):
        sql = f"SELECT id, name FROM t WHERE id < ? AND {operand}"
        result = assert_matches_sqlite(db, sql, (1024,))
        assert result.rows and result.chunks_skipped == 2, sql
        assert result.rows_touched == 2500, sql
        sql = f"SELECT id, name FROM t WHERE {operand} AND id < ?"
        result = assert_matches_sqlite(db, sql, (1024,))
        assert result.rows and result.chunks_skipped == 0, sql
        assert result.rows_touched == 2500, sql


def test_zone_maps_invalidated_by_interleaved_writes():
    db = _db(n=2500)
    table = db.tables["t"]
    first = table.column_store()
    assert first.zones(ID)[0][:2] == (0, 1023)
    assert len(first.zones(ID)) == 3
    # v is non-negative everywhere, so v < 0 skips all three chunks.
    assert db.execute("SELECT id FROM t WHERE v < 0").chunks_skipped == 3
    # An UPDATE moves one value below chunk 0's advertised minimum; a
    # stale zone map would keep skipping the chunk and lose the row.
    db.execute("UPDATE t SET v = -1 WHERE id = 0")
    second = table.column_store()
    assert second is not first
    assert second.zones(V)[0][0] == -1
    res = db.execute("SELECT id FROM t WHERE v < 0")
    assert res.rows == [(0,)] and res.chunks_skipped == 2


def test_zone_maps_invalidated_by_rollback():
    db = _db(n=2500)
    table = db.tables["t"]
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = -7 WHERE id = 2400")
    mid = table.column_store()
    assert mid.zones(V)[2][0] == -7
    db.execute("ROLLBACK")
    after = table.column_store()
    assert after is not mid
    assert after.zones(V)[2][0] >= 0
    # Post-rollback scans skip on the restored (non-negative) zones and
    # still agree with the logical contents.
    res = db.execute("SELECT COUNT(*) FROM t WHERE v < 0")
    assert res.scalar() == 0


def test_zone_maps_follow_a_delete_that_empties_chunks():
    db = _db(n=2500)
    table = db.tables["t"]
    baseline = table.column_store()
    assert len(baseline.zones(ID)) == 3
    db.execute("DELETE FROM t WHERE id >= 100")
    shrunk = table.column_store()
    assert shrunk is not baseline
    assert shrunk.length == 100
    assert shrunk.zones(ID) == [(0, 99, 0, 100)]
    res = db.execute("SELECT COUNT(*) FROM t WHERE id > 99")
    assert res.scalar() == 0 and res.chunks_skipped == 1


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                    min_size=0, max_size=60),
    low=st.integers(-60, 60),
    span=st.integers(0, 60),
    op=st.sampled_from(["<", "<=", ">", ">=", "=", "<>", "BETWEEN",
                        "IS NULL", "IS NOT NULL", "IN"]),
)
def test_chunk_skipping_never_changes_results(values, low, span, op):
    """Differential oracle: with tiny chunks (so zone pruning fires on
    realistic data sizes), the engine must return SQLite's rows, and
    charge every row, for every predicate shape the prune compiler
    handles — skipping may only ever change wall-clock."""
    old_chunk = columnar_mod.CHUNK_SIZE
    columnar_mod.CHUNK_SIZE = physical_mod.CHUNK_SIZE = 8
    try:
        db = Database(result_cache_size=0)
        db.execute("CREATE TABLE o (id INT PRIMARY KEY, v INT)")
        for i, v in enumerate(values):
            db.execute("INSERT INTO o VALUES (?, ?)", (i, v))
        high = low + span
        if op == "BETWEEN":
            sql = "SELECT id, v FROM o WHERE v BETWEEN ? AND ?"
            params = (low, high)
        elif op == "IS NULL":
            sql, params = "SELECT id, v FROM o WHERE v IS NULL", ()
        elif op == "IS NOT NULL":
            sql, params = "SELECT id, v FROM o WHERE v IS NOT NULL", ()
        elif op == "IN":
            sql = f"SELECT id, v FROM o WHERE v IN ({low}, {high}, NULL)"
            params = ()
        else:
            sql, params = f"SELECT id, v FROM o WHERE v {op} ?", (low,)
        result = assert_matches_sqlite(db, sql, params)
        assert result.rows_touched == len(values)
    finally:
        columnar_mod.CHUNK_SIZE = physical_mod.CHUNK_SIZE = old_chunk
