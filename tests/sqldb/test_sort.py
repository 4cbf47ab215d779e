"""ORDER BY: native sort keys and which keys a plan may sort by — plus
the row contract the result operators keep (tuples) and the re-check a
base-table access applies.

``SortOp`` sorts on :func:`~repro.sqldb.plan.physical.sort_rows`
decorations with Python's own comparison, held against a reference
comparator: a key object that orders NULL first ascending and last
descending, ties equal values, honours DESC per key and raises
``SqlTypeError`` on an incomparable pair — over ints, floats, bools,
strings and NULL, one column mixing all of them, with 1–3 keys in mixed
directions, ties, and keys over source expressions.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import Database
from repro.sqldb import ast_nodes as A
from repro.sqldb.columnar import ColumnChunk
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.expressions import arithmetic
from repro.sqldb.plan.physical import SortOp
from repro.sqldb.plan.planner import Layout

from sqlite_reference import assert_matches_sqlite


class _ReferenceKey:
    """One ORDER BY value compared the reference way."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending):
        self.value = value
        self.descending = descending

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending
        if b is None:
            return self.descending
        if a == b:
            return False
        try:
            less = a < b
        except TypeError:
            raise SqlTypeError(f"cannot order {a!r} against {b!r}") from None
        return (not less) if self.descending else less

    def __eq__(self, other):
        return self.value == other.value


def _reference_sort(rows, key_values, descending):
    """``rows`` stably sorted by ``key_values`` (one value list a row)."""
    keyed = [([_ReferenceKey(v, d) for v, d in zip(values, descending)], row)
             for values, row in zip(key_values, rows)]
    keyed.sort(key=lambda pair: pair[0])
    return [row for _, row in keyed]


def _ids(fn):
    """The row ids (last column) ``fn`` returns, in order, or
    ``SqlTypeError`` when it raises one."""
    try:
        return [row[-1] for row in fn()]
    except SqlTypeError:
        return SqlTypeError


# Output rows are (i, s, m, f, rid): ints, strings, every type mixed,
# numbers; ``rid`` tells apart rows that compare equal (``1`` and
# ``TRUE``).  Source rows add ``h``, which no output column carries.
OUT = ["i", "s", "m", "f", "rid"]
SOURCE = [*OUT, "h"]
_VALUES = {
    "i": st.integers(-2, 2),
    "s": st.sampled_from(["", "a", "b", "ab"]),
    "m": st.integers(-2, 2) | st.floats(-2, 2, allow_nan=False)
    | st.booleans() | st.sampled_from(["a", "b"]),
    "f": st.floats(-2, 2, allow_nan=False) | st.integers(-2, 2),
    "h": st.integers(-2, 2),
}
_SOURCE_ROW = st.tuples(*(st.none() | _VALUES[c] for c in "ismf"),
                        st.none() | _VALUES["h"])

# ORDER BY keys: output columns by name and by position, and expressions
# over the source row (a column no output carries, a qualified name,
# arithmetic).
_KEYS = [A.ColumnRef(None, c) for c in "ismf"] \
    + [A.Literal(n) for n in (1, 2, 3, 4)] \
    + [A.ColumnRef(None, "h"), A.ColumnRef("t", "m"), A.ColumnRef("t", "s"),
       A.BinaryOp("+", A.ColumnRef(None, "i"), A.Literal(1))]
_ORDER_BY = st.lists(
    st.builds(A.OrderItem, st.sampled_from(_KEYS), st.booleans()),
    min_size=1, max_size=3)


def _context():
    positions = {}
    for pos, name in enumerate(SOURCE):
        positions[(None, name)] = positions[("t", name)] = pos
    return Layout(positions, frozenset())


def _reference_value(expr, out, source, ctx):
    """A key's value by hand: an alias or a position reads the output
    row, a column the source row, ``i + 1`` the arithmetic rule."""
    if isinstance(expr, A.ColumnRef) and expr.table is None \
            and expr.column in OUT:
        return out[OUT.index(expr.column)]
    if isinstance(expr, A.Literal):
        return out[expr.value - 1]
    if isinstance(expr, A.BinaryOp):
        return arithmetic(expr.op, _reference_value(expr.left, out, source,
                                                    ctx), expr.right.value)
    return source[ctx.positions[(expr.table, expr.column)]]


@settings(max_examples=300, deadline=None)
@given(st.lists(_SOURCE_ROW, max_size=12), _ORDER_BY)
def test_sort_op_orders_like_the_reference_comparator(values, order_by):
    sources = [(*row[:4], rid, row[4]) for rid, row in enumerate(values)]
    outs = [source[:5] for source in sources]
    ctx = _context()
    descending = [item.descending for item in order_by]
    key_values = [[_reference_value(item.expr, out, source, ctx)
                   for item in order_by]
                  for out, source in zip(outs, sources)]

    def engine():
        chunk = ColumnChunk.from_rows(sources, len(SOURCE),
                                      range(len(SOURCE)))
        run = SimpleNamespace(out_rows=list(outs), source_chunks=[chunk],
                              params=())
        SortOp(order_by, OUT, range(len(OUT)), _context(), False,
               False).apply(run)
        return run.out_rows

    expected = _ids(lambda: _reference_sort(outs, key_values, descending))
    assert _ids(engine) == expected


def _backend(rows=((1, 50), (1, 10), (2, 5), (3, 40), (3, 1)),
             result_cache_size=0):
    """``t(id, x, y)`` holding ``rows`` as (x, y)."""
    db = Database(result_cache_size=result_cache_size)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT)")
    for i, (x, y) in enumerate(rows, start=1):
        db.execute("INSERT INTO t (id, x, y) VALUES (?, ?, ?)", (i, x, y))
    return db


def test_distinct_ordered_by_a_column_it_does_not_select_raises(cache_size):
    """DISTINCT drops rows, so an ORDER BY key over the source row no
    longer lines up with the output: ``ORDER BY y`` would give output
    ``(2,)`` the ``y`` of another row.  The plan refuses it."""
    db = _backend(result_cache_size=cache_size)
    with pytest.raises(SqlError, match="for SELECT DISTINCT, ORDER BY "
                                       "expressions must appear in the "
                                       "select list"):
        db.execute("SELECT DISTINCT x FROM t ORDER BY y")
    assert assert_matches_sqlite(
        db, "SELECT DISTINCT x FROM t ORDER BY x DESC", total=True).rows \
        == [(3,), (2,), (1,)]
    assert assert_matches_sqlite(
        db, "SELECT DISTINCT x, y FROM t ORDER BY 2", total=True).rows == \
        [(3, 1), (2, 5), (1, 10), (3, 40), (1, 50)]


@pytest.mark.parametrize("rows", [(), ((1, 50), (2, 5))],
                         ids=["empty", "rows"])
def test_aggregate_ordered_by_a_source_column_raises_whatever_the_data(
        rows, cache_size):
    db = _backend(rows, cache_size)
    with pytest.raises(SqlError, match="ORDER BY in aggregate queries must "
                                       "reference output columns"):
        db.execute("SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY y")
    assert len(db.execute("SELECT x, COUNT(*) AS n FROM t GROUP BY x "
                          "ORDER BY n DESC, 1").rows) == len(rows)


@pytest.mark.parametrize("sql", [
    "SELECT DISTINCT x FROM t ORDER BY t.x",
    "SELECT DISTINCT x AS w FROM t ORDER BY t.x DESC",
    "SELECT DISTINCT t.x, y FROM t ORDER BY t.y DESC, x",
    "SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY t.x",
    "SELECT x, SUM(y) AS total FROM t GROUP BY x ORDER BY t.x DESC",
])
def test_a_qualified_key_sorts_by_the_output_column_it_names(sql,
                                                            cache_size):
    """A qualified ORDER BY key names the column an output column passes
    through, so it sorts that output column, above a DISTINCT and above
    an aggregate too; a column no output carries is still refused there
    (the tests above)."""
    db = _backend(result_cache_size=cache_size)
    assert assert_matches_sqlite(db, sql, total=True).rows


def test_mixed_directions_and_nulls(cache_size):
    """NULL first ascending, last descending, and the minority direction
    flipped inside the majority's sort."""
    db = _backend(((1, None), (1, 3), (2, None), (2, 3), (1, 3)), cache_size)
    assert assert_matches_sqlite(
        db, "SELECT id FROM t ORDER BY x DESC, y, id DESC", total=True).rows \
        == [(3,), (4,), (1,), (5,), (2,)]
    assert assert_matches_sqlite(
        db, "SELECT id FROM t ORDER BY y DESC, x, id", total=True).rows == \
        [(2,), (5,), (4,), (1,), (3,)]


def test_engine_rows_are_tuples():
    """Every result operator hands on tuples — the projection's (plain
    columns zipped, or lanes), the aggregate fold's, DISTINCT's, LIMIT's
    and the stop-after-N cutoff's — and a result keeps the engine's list;
    a cache hit is a fresh list of the cached tuples."""
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT, s TEXT)")
    db.execute("CREATE INDEX idx_t_y ON t (y) USING ORDERED")
    for i in range(1, 9):
        db.execute("INSERT INTO t (id, x, y, s) VALUES (?, ?, ?, ?)",
                   (i, i % 3, 10 - i, f"s{i % 2}"))
    for sql in ("SELECT id, x FROM t WHERE y > ?",
                "SELECT UPPER(s), x + 1, y IS NULL FROM t WHERE y > ?",
                "SELECT x, COUNT(*), SUM(y) FROM t WHERE y > ? GROUP BY x",
                "SELECT COUNT(*), MAX(y) FROM t WHERE y > ?",
                "SELECT x, COUNT(*) FROM t WHERE y > ? GROUP BY x "
                "HAVING COUNT(*) > 1",
                "SELECT DISTINCT x FROM t WHERE y > ?",
                "SELECT id, s FROM t WHERE y > ? ORDER BY s, id LIMIT 3",
                "SELECT id, y FROM t WHERE y > ? ORDER BY y LIMIT 3"):
        result = db.execute(sql, (0,))
        assert result.rows, sql
        assert all(type(row) is tuple for row in result.rows), sql
        hit = db.execute(sql, (0,))
        assert hit.from_cache and hit.rows == result.rows, sql
        assert hit.rows is not result.rows, sql
        hit.rows.clear()
        assert db.execute(sql, (0,)).rows == result.rows, sql


def test_a_probe_key_of_the_wrong_type_is_caught_by_the_recheck(cache_size):
    """``id = ?`` bound to TRUE would find row 1 through the primary-key
    hash (``TRUE == 1``).  TRUE is no key for an INTEGER column, so no index
    serves the execution and the scan's comparison is what raises."""
    db = _backend(result_cache_size=cache_size)
    with pytest.raises(SqlTypeError, match="cannot compare 1 with True"):
        db.execute("SELECT x FROM t WHERE id = ?", (True,))
    assert db.execute("SELECT x FROM t WHERE id = ?", (1,)).rows == [(1,)]
