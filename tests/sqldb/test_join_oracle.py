"""Differential join oracle against SQLite.

Hypothesis generates 2–3 table schemas, data (with NULL join keys and NULL
range columns), hash *and* ordered secondary indexes, and join queries
(INNER/LEFT, equality and range predicates — one-sided comparisons and
BETWEEN with possibly crossed bounds — plus ORDER BY), then executes each
query three ways:

1. through the full cost-based pipeline (reordering + index nested-loop
   joins + ordered-index range scans + sort elision — the default),
2. through the pipeline pinned to FROM order with sequential scans under
   joins and no ordered access paths (``FROM_ORDER_OPTIONS`` — PR-1
   behaviour),
3. on SQLite, over a copy of the same tables (``sqlite_reference``): an
   engine that shares no code with this one, so a wrong plan shows.

The oracle asserts that both pipelines return SQLite's rows as a multiset,
that both respect the generated ORDER BY (NULLs first ascending / last
descending — the contract an elided sort must uphold), and that the
optimized execution never touches more storage rows than FROM-order
execution — the adaptivity contract of the index nested-loop join, the
safety contract of join reordering, and the superset contract of range
scans.  The generated values are integers and NULL, so no dialect gap
(ARCHITECTURE.md, "Dialect") is reached.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.errors import SqlTypeError
from repro.sqldb.plan import FROM_ORDER_OPTIONS

from sqlite_reference import assert_matches_sqlite, sqlite_copy

# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------

_VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
_TABLE_ROWS = st.lists(st.tuples(_VALUES, _VALUES), min_size=0, max_size=10)


@st.composite
def join_cases(draw):
    n_tables = draw(st.integers(min_value=2, max_value=3))
    tables = []
    for i in range(n_tables):
        rows = draw(_TABLE_ROWS)
        index_method = draw(st.sampled_from([None, "hash", "ordered"]))
        tables.append((rows, index_method))

    joins = []
    for i in range(1, n_tables):
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        j = draw(st.integers(min_value=0, max_value=i - 1))
        left_col = draw(st.sampled_from([f"a{j}", f"b{j}", f"c{j}"]))
        shape = draw(st.sampled_from(["eq", "eq+extra", "range"]))
        if shape == "eq":
            cond = f"t{i}.b{i} = t{j}.{left_col}"
        elif shape == "eq+extra":
            lit = draw(st.integers(min_value=0, max_value=4))
            extra = draw(st.sampled_from(
                [f"t{i}.c{i} = {lit}", f"t{i}.c{i} > {lit}",
                 f"t{j}.{left_col} <= {lit}"]))
            cond = f"t{i}.b{i} = t{j}.{left_col} AND {extra}"
        else:
            cond = f"t{i}.b{i} < t{j}.{left_col}"
        joins.append(f"{kind} t{i} ON {cond}")

    where_parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        t = draw(st.integers(min_value=0, max_value=n_tables - 1))
        col = draw(st.sampled_from([f"a{t}", f"b{t}", f"c{t}"]))
        shape = draw(st.sampled_from(["cmp", "cmp", "between"]))
        if shape == "between":
            # Bounds drawn independently, so low > high (an empty range)
            # and low == high both occur.
            low = draw(st.integers(min_value=0, max_value=4))
            high = draw(st.integers(min_value=0, max_value=4))
            where_parts.append(f"t{t}.{col} BETWEEN {low} AND {high}")
        else:
            lit = draw(st.integers(min_value=0, max_value=4))
            op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "<>"]))
            where_parts.append(f"t{t}.{col} {op} {lit}")

    keys = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        t = draw(st.integers(min_value=0, max_value=n_tables - 1))
        col = draw(st.sampled_from([f"a{t}", f"b{t}"]))  # in the select list
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        keys.append((t, col, direction))

    items = ", ".join(
        f"t{i}.a{i}, t{i}.b{i}" for i in range(n_tables))
    sql = f"SELECT {items} FROM t0 " + " ".join(joins)
    if where_parts:
        sql += " WHERE " + " AND ".join(where_parts)
    if keys:
        sql += " ORDER BY " + ", ".join(
            f"t{t}.{col} {direction}" for t, col, direction in keys)
    # The ORDER BY as output positions: tK.aK is at 2K, tK.bK at 2K + 1.
    order = [(2 * t + col.startswith("b"), direction == "DESC")
             for t, col, direction in keys]
    return tables, sql, order


def build_db(tables, options=None):
    db = Database(optimizer_options=options)
    for i, (rows, index_method) in enumerate(tables):
        db.execute(f"CREATE TABLE t{i} (a{i} INT PRIMARY KEY, "
                   f"b{i} INT, c{i} INT)")
        if index_method == "hash":
            db.execute(f"CREATE INDEX idx_t{i}_b ON t{i} (b{i})")
        elif index_method == "ordered":
            db.execute(f"CREATE INDEX idx_t{i}_b ON t{i} (b{i}) "
                       "USING ORDERED")
        for pk, (b, c) in enumerate(rows):
            db.execute(f"INSERT INTO t{i} (a{i}, b{i}, c{i}) "
                       "VALUES (?, ?, ?)", (pk, b, c))
    return db


def check(tables, sql, params=(), order=()):
    """Both pipelines answer ``sql`` with SQLite's rows, honour the ORDER
    BY, and the optimized one touches no more rows than FROM order."""
    optimized_db = build_db(tables)
    lite = sqlite_copy(optimized_db)
    optimized = assert_matches_sqlite(optimized_db, sql, params, order,
                                      lite=lite)
    from_order = assert_matches_sqlite(build_db(tables, FROM_ORDER_OPTIONS),
                                       sql, params, order, lite=lite)
    assert optimized.columns == from_order.columns
    assert optimized.rows_touched <= from_order.rows_touched


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


@given(join_cases())
@settings(max_examples=220, deadline=None)
def test_differential_join_oracle(case):
    """Optimized == FROM-order == SQLite as multisets, both pipelines
    honor the ORDER BY, and the optimized plan never touches more rows
    than FROM-order execution."""
    tables, sql, order = case
    check(tables, sql, order=order)


@given(join_cases(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_oracle_with_parameters(case, needle):
    """Parameterized WHERE over the generated join keeps all three
    executions in agreement (plans are cached per statement; key values
    resolve at execution time)."""
    tables, sql, order = case
    where, sep, order_by = sql.partition(" ORDER BY ")
    where += (" AND" if "WHERE" in where else " WHERE") + " t0.b0 = ?"
    check(tables, where + sep + order_by, (needle,), order)


@given(join_cases(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_oracle_with_parameterized_range(case, low, high):
    """A parameterized BETWEEN (bounds drawn independently, so crossed
    low > high ranges occur) keeps all three executions in agreement and
    the range scan inside the FROM-order rows-touched envelope."""
    tables, sql, order = case
    where, sep, order_by = sql.partition(" ORDER BY ")
    where += ((" AND" if "WHERE" in where else " WHERE")
              + " t0.b0 BETWEEN ? AND ?")
    check(tables, where + sep + order_by, (low, high), order)


@given(join_cases())
@settings(max_examples=60, deadline=None)
def test_a_text_operand_of_arithmetic_raises_where_a_row_meets_it(case):
    """A conjunct without a chunk kernel that raises for every non-NULL
    value it meets (SQLite would read ``'x'`` as 0: a dialect gap): the
    plan either reaches such a row and raises this engine's
    :class:`SqlTypeError`, or reaches none (empty tables, NULL-only
    lanes) and returns no row.  Pushdown legitimately evaluates the
    conjunct on rows a later join would have dropped, so whether a plan
    raises is the plan's own."""
    tables, sql, _ = case
    where, sep, order_by = sql.partition(" ORDER BY ")
    where += (" AND" if "WHERE" in where else " WHERE") + " t0.c0 + 'x' > 0"
    try:
        rows = build_db(tables).execute(where + sep + order_by).rows
    except SqlTypeError as exc:
        assert str(exc).startswith("arithmetic requires numbers, got ")
    else:
        assert rows == []  # a non-NULL c0 would have raised
