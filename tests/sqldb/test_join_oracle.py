"""Differential join oracle.

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
3. through a brute-force nested-loop **reference evaluator** implemented
   below, independent of the planner/optimizer/physical operators (it
   shares only the parser and the expression evaluator).

The oracle asserts byte-identical result multisets across all three, that
both pipelines' outputs respect the generated ORDER BY (NULLs first
ascending / last descending — the contract an elided sort must uphold),
and that the optimized execution never touches more storage rows than
FROM-order execution — the adaptivity contract of the index nested-loop
join, the safety contract of join reordering, and the superset contract of
range scans.

Every case additionally runs under **both physical engines** (the
production columnar engine and ``Database(engine="row")`` — the
interpreted row-at-a-time reference) and the two executions must agree
*exactly*: byte-identical rows in identical order and identical
``rows_touched``.  This is the differential contract of the production
engine — not a multiset comparison, because the engines share the plan
and so must also agree on ordering.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.expressions import RowContext, evaluate
from repro.sqldb.parser import parse
from repro.sqldb.plan import FROM_ORDER_OPTIONS

# ---------------------------------------------------------------------------
# Reference evaluator (brute force, FROM order, no optimization)
# ---------------------------------------------------------------------------


def reference_eval(tables, sql, params=()):
    """Evaluate a SELECT over ``tables`` (name -> (columns, rows)) by plain
    nested loops in FROM order; returns a list of result tuples.

    Supports the oracle's query shape: column select list, INNER/LEFT
    joins with arbitrary ON conditions, WHERE.  SQL semantics (three-valued
    logic, NULL never matching) come from ``evaluate``.
    """
    stmt = parse(sql)
    refs = [stmt.table] + [j.table for j in stmt.joins]
    positions = {}
    offsets = []
    offset = 0
    for ref in refs:
        columns, _ = tables[ref.name]
        offsets.append(offset)
        for i, col in enumerate(columns):
            positions[(ref.alias, col)] = offset + i
            positions[(None, col)] = offset + i
        offset += len(columns)
    ctx = RowContext(positions)

    def padded(ref, index):
        columns, rows = tables[ref.name]
        width = len(columns)
        for row in rows:
            values = [None] * offset
            values[offsets[index]:offsets[index] + width] = row
            yield values

    current = list(padded(refs[0], 0))
    for index, join in enumerate(stmt.joins, start=1):
        columns, rows = tables[join.table.name]
        width = len(columns)
        joined = []
        for left in current:
            matched = False
            for row in rows:
                merged = list(left)
                merged[offsets[index]:offsets[index] + width] = row
                ctx.bind(merged)
                if evaluate(join.condition, ctx, params) is True:
                    joined.append(merged)
                    matched = True
            if not matched and join.kind == "LEFT":
                joined.append(list(left))
        current = joined
    if stmt.where is not None:
        kept = []
        for values in current:
            ctx.bind(values)
            if evaluate(stmt.where, ctx, params) is True:
                kept.append(values)
        current = kept
    out = []
    for values in current:
        ctx.bind(values)
        out.append(tuple(
            evaluate(item.expr, ctx, params) for item in stmt.items))
    return out


def canon(rows):
    """Canonical multiset form: sorted by repr (total order over int/None)."""
    return sorted([tuple(row) for row in rows], key=repr)


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

    order_items = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        t = draw(st.integers(min_value=0, max_value=n_tables - 1))
        col = draw(st.sampled_from([f"a{t}", f"b{t}"]))  # in the select list
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        order_items.append((t, col, direction))

    items = ", ".join(
        f"t{i}.a{i}, t{i}.b{i}" for i in range(n_tables))
    sql = f"SELECT {items} FROM t0 " + " ".join(joins)
    if where_parts:
        sql += " WHERE " + " AND ".join(where_parts)
    if order_items:
        sql += " ORDER BY " + ", ".join(
            f"t{t}.{col} {direction}" for t, col, direction in order_items)
    return tables, sql, order_items


def build_db(tables, options=None, engine=None):
    db = Database(optimizer_options=options, engine=engine)
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


def _order_key_positions(order_items):
    """Output positions of the ORDER BY keys (the select list is
    ``t0.a0, t0.b0, t1.a1, ...`` so ``tK.aK`` sits at 2K, ``tK.bK`` at
    2K+1)."""
    positions = []
    for t, col, direction in order_items:
        positions.append((2 * t + (1 if col.startswith("b") else 0),
                          direction == "DESC"))
    return positions


def assert_ordered(rows, order_items):
    """Every adjacent pair respects the ORDER BY keys with the engine's
    NULL placement (first ascending, last descending)."""
    def rank(row):
        key = []
        for pos, descending in _order_key_positions(order_items):
            value = row[pos]
            if descending:
                key.append((value is None, -value if value is not None
                            else 0))
            else:
                key.append((value is not None, value if value is not None
                            else 0))
        return key

    ranks = [rank(row) for row in rows]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def reference_tables(tables):
    out = {}
    for i, (rows, _) in enumerate(tables):
        columns = [f"a{i}", f"b{i}", f"c{i}"]
        out[f"t{i}"] = (columns, [(pk, b, c)
                                  for pk, (b, c) in enumerate(rows)])
    return out


def assert_engines_agree(tables, sql, params=(), options=None):
    """Execute under both physical engines and require *exact*
    agreement: identical rows in identical order and identical
    ``rows_touched``.  Returns the production-engine execution so callers
    don't run it twice.  A statement that raises must raise the same
    error — type and message — under both; the agreed error is re-raised."""
    outcomes = []
    for engine in Database.ENGINES:
        try:
            outcomes.append(
                build_db(tables, options, engine).execute(sql, params))
        except SqlError as exc:
            outcomes.append(exc)
    columnar, row = outcomes
    if isinstance(columnar, SqlError) or isinstance(row, SqlError):
        assert (type(row), str(row)) == (type(columnar), str(columnar))
        raise columnar
    assert row.rows == columnar.rows
    assert row.columns == columnar.columns
    assert row.rows_touched == columnar.rows_touched
    return columnar


# The reference evaluator ignores ORDER BY (it compares multisets), so the
# ordering contract is asserted separately via assert_ordered.


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


@given(join_cases())
@settings(max_examples=220, deadline=None)
def test_differential_join_oracle(case):
    """Optimized == FROM-order == brute-force reference, both pipelines
    honor the ORDER BY, the optimized plan never touches more rows than
    FROM-order execution, and each pipeline agrees exactly with itself
    under the row engine."""
    tables, sql, order_items = case
    optimized = assert_engines_agree(tables, sql)
    from_order = assert_engines_agree(tables, sql,
                                      options=FROM_ORDER_OPTIONS)
    reference = reference_eval(reference_tables(tables), sql)

    assert canon(optimized.rows) == canon(reference)
    assert canon(from_order.rows) == canon(reference)
    assert optimized.columns == from_order.columns
    assert optimized.rows_touched <= from_order.rows_touched
    if order_items:
        assert_ordered(optimized.rows, order_items)
        assert_ordered(from_order.rows, order_items)


@given(join_cases(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_oracle_with_parameters(case, needle):
    """Parameterized WHERE over the generated join keeps all three
    executions in agreement (plans are cached per statement; key values
    resolve at execution time)."""
    tables, sql, order_items = case
    where, sep, order_by = sql.partition(" ORDER BY ")
    where += (" AND" if "WHERE" in where else " WHERE") + " t0.b0 = ?"
    sql = where + sep + order_by
    optimized = assert_engines_agree(tables, sql, (needle,))
    from_order = build_db(tables, FROM_ORDER_OPTIONS).execute(sql, (needle,))
    reference = reference_eval(reference_tables(tables), sql, (needle,))

    assert canon(optimized.rows) == canon(reference)
    assert canon(from_order.rows) == canon(reference)
    assert optimized.rows_touched <= from_order.rows_touched
    if order_items:
        assert_ordered(optimized.rows, order_items)


@given(join_cases(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_oracle_with_parameterized_range(case, low, high):
    """A parameterized BETWEEN (bounds drawn independently, so crossed
    low > high ranges occur) keeps all three executions in agreement and
    the range scan inside the FROM-order rows-touched envelope."""
    tables, sql, order_items = case
    where, sep, order_by = sql.partition(" ORDER BY ")
    where += ((" AND" if "WHERE" in where else " WHERE")
              + " t0.b0 BETWEEN ? AND ?")
    sql = where + sep + order_by
    params = (low, high)
    optimized = assert_engines_agree(tables, sql, params)
    from_order = build_db(tables, FROM_ORDER_OPTIONS).execute(sql, params)
    reference = reference_eval(reference_tables(tables), sql, params)

    assert canon(optimized.rows) == canon(reference)
    assert canon(from_order.rows) == canon(reference)
    assert optimized.rows_touched <= from_order.rows_touched
    if order_items:
        assert_ordered(optimized.rows, order_items)


@given(join_cases())
@settings(max_examples=60, deadline=None)
def test_oracle_agrees_on_errors(case):
    """A conjunct without a chunk kernel that raises for every non-NULL
    value it meets: whichever row the plan reaches first, both engines
    surface the same error there — or, when no row reaches it (empty
    tables, NULL-only lanes), the same rows.  (The reference evaluator is
    no guide to *whether* a plan raises: pushdown legitimately evaluates
    the conjunct on rows a later join would have dropped.)"""
    tables, sql, _ = case
    where, sep, order_by = sql.partition(" ORDER BY ")
    where += (" AND" if "WHERE" in where else " WHERE") + " t0.c0 + 'x' > 0"
    try:
        optimized = assert_engines_agree(tables, where + sep + order_by)
    except SqlTypeError as exc:
        assert str(exc).startswith("arithmetic requires numbers, got ")
    else:
        assert optimized.rows == []  # a non-NULL c0 would have raised
