"""Cardinality and rows-touched estimation for logical plan subtrees.

The cost model works in the same currency the physical operators charge at
execution time: **storage rows touched** (which the simulated server's
:class:`repro.net.clock.CostModel` converts to database time).  Estimates
come from three live statistics — :class:`repro.sqldb.catalog.TableStats`
row counts maintained on every INSERT/DELETE/TRUNCATE, exact per-index
distinct-key counts read from the indexes, and exact per-column distinct
counts read from the table's cached columnar snapshot
(:class:`repro.sqldb.columnar.ColumnStore`) for join fan-out and equality
selectivity on unindexed columns — and one fallback selectivity,
:data:`FALLBACK_SELECTIVITY`, for every predicate shape they do not price.
Range and BETWEEN bounds are among those shapes: every bound the apps,
reports and TPC-C issue is a parameter, unknown at plan time by design
(one cached plan serves every parameter value).  One constant is all the
workloads need: every target of ``tools/traffic.py --plans`` builds the
same plans under it as under the five per-shape constants it replaced
(``docs/cost-model.md`` has the table).

A snapshot statistic is **one column's distinct count, counted on demand
at plan time** (``table.column_store().distinct(ordinal)`` builds no lane
or zone map).  Every table mutation invalidates the snapshot, so a fresh
plan always sees current-data statistics; a *cached* plan can hold
estimates from an older one until a table it reads shifts — row-count
stats' own staleness contract.

Public API (documented formulas in ``docs/cost-model.md``):

- :func:`table_rows`, :func:`column_ndv` — base statistics;
- :func:`selectivity` — estimated fraction of rows satisfying a predicate;
- :func:`access_estimate`, :func:`range_scan_estimate` — base-table access
  paths (sequential / equality-index / ordered range);
- :func:`join_step`, :func:`probe_index_name` — one join of a chain, with
  the cost-chosen physical strategy.

Consumers:

- the optimizer's **join reordering** rule costs candidate join orders and
  keeps the cheapest (:func:`join_step` composed over a chain, with
  range-aware base estimates);
- the **ordered access** rule compares range-scan candidates against the
  current access path (:func:`range_scan_estimate`);
- the **join-strategy** rule compares an index nested-loop probe against a
  hash build for equi joins (:func:`probe_index_name`, :func:`join_step`);
- ``Database.explain`` renders the per-node ``estimate`` the strategy
  pass stores on the tree, and EXPLAIN ANALYZE sets each against the
  operator's actual rows (q-error).

Estimates are estimates: the physical operators stay adaptive (an index
nested-loop join falls back to a hash build at execution time when the
actual probe volume would exceed a full scan), so a wrong estimate can cost
planning quality but never correctness or a rows-touched regression.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.expressions import expr_columns, split_conjuncts

# The selectivity of every predicate shape no statistic prices.
FALLBACK_SELECTIVITY = 0.3


class Estimate:
    """Estimated output cardinality and cumulative rows touched."""

    __slots__ = ("rows", "cost")

    def __init__(self, rows, cost):
        self.rows = rows
        self.cost = cost

    def __repr__(self):
        return f"Estimate(rows={self.rows:.1f}, cost={self.cost:.1f})"


def table_rows(db, table_name):
    """Live row count from the catalog's table stats."""
    return db.catalog.table(table_name).stats.row_count


def column_ndv(db, table_name, column):
    """Distinct-key count for one column: the row count for the primary
    key, the bucket count of a single-column index, else that column's
    distinct count from the table's columnar snapshot (counted on first
    request — see the module docstring; amortized by the plan cache,
    planning only happens on a miss)."""
    schema = db.catalog.table(table_name)
    pk = schema.primary_key
    if pk is not None and pk.name == column:
        return max(schema.stats.row_count, 1)
    table = db.tables_get(table_name)
    for index in table.indexes.values():
        if index.info.columns == (column,):
            return max(index.distinct_keys, 1)
    return max(table.column_store().distinct(schema.ordinal_of(column)), 1)


def probe_index_name(db, table_name, ordinal):
    """The access path an index nested-loop join could probe for equality on
    column ``ordinal`` of ``table_name``: ``"<pk>"``, a single-column index
    name, or None when no index serves that column alone."""
    schema = db.catalog.table(table_name)
    column = schema.columns[ordinal].name
    pk = schema.primary_key
    if pk is not None and pk.name == column:
        return "<pk>"
    table = db.tables_get(table_name)
    for name, index in table.indexes.items():
        if index.info.columns == (column,):
            return name
    return None


def selectivity(db, table_name, expr):
    """Estimated fraction of rows satisfying ``expr``.

    Conjunctions multiply; ``column = constant`` is ``1 / NDV`` of the
    column when ``table_name`` (may be None) names a table that has it;
    every other shape is :data:`FALLBACK_SELECTIVITY`.
    """
    if isinstance(expr, A.BinaryOp):
        if expr.op == "AND":
            return (selectivity(db, table_name, expr.left)
                    * selectivity(db, table_name, expr.right))
        if expr.op == "=" and table_name is not None:
            for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
                if (isinstance(a, A.ColumnRef)
                        and isinstance(b, (A.Literal, A.Param))
                        and db.catalog.table(table_name).has_column(a.column)):
                    return 1.0 / column_ndv(db, table_name, a.column)
    return FALLBACK_SELECTIVITY


def access_estimate(db, table_name, predicate, indexed):
    """Estimate for one base-table access.

    ``predicate`` is the conjunction sitting on the access (None for a bare
    scan); ``indexed`` says whether the access path is an index lookup
    (touches only matching rows) or a sequential scan (touches everything).
    """
    rows = table_rows(db, table_name)
    out = float(rows)
    if predicate is not None:
        out *= selectivity(db, table_name, predicate)
    out = _floor(out, rows)
    return Estimate(out, out if indexed else float(rows))


def range_scan_estimate(db, table_name, candidate, predicate=None):
    """Estimate for one ordered-index range scan.

    ``candidate`` is a :class:`repro.sqldb.plan.access.RangeCandidate` (or
    the :class:`repro.sqldb.plan.logical.IndexRangeScan` node built from
    one — they share the attribute protocol).  The scan *touches* only the
    rows inside the equality prefix + range region:

        cost = rows × Π 1/NDV(prefix column) × range fraction

    where the range fraction is FALLBACK_SELECTIVITY for a bound on either
    side or both, and 1 without one.  The *output* cardinality applies the
    full predicate's selectivity (the Filter above the scan re-applies
    every conjunct), clamped to never exceed the rows touched.
    """
    rows = table_rows(db, table_name)
    touch_sel = 1.0
    for column in candidate.columns[:candidate.n_prefix]:
        touch_sel /= column_ndv(db, table_name, column)
    if candidate.low is not None or candidate.high is not None:
        touch_sel *= FALLBACK_SELECTIVITY
    touched = _floor(rows * touch_sel, rows)
    out = touched
    if predicate is not None:
        out = min(_floor(rows * selectivity(db, table_name, predicate),
                         rows), touched)
    return Estimate(out, touched)


def join_step(db, sctx, left, table_index, condition, kind,
              allow_index=True):
    """Estimate joining ``left`` (an :class:`Estimate`) against one table.

    Returns ``(estimate, strategy, equi, index_name)`` where ``strategy`` is
    the cost-chosen physical algorithm (``"hash"``, ``"index"`` or
    ``"nested"``), ``equi`` the ``(flat left position, right ordinal)`` key
    pair for hash/index strategies, and ``index_name`` the probe path for
    the index strategy.  The same arithmetic serves join reordering (costing
    candidate orders) and the join-strategy rule (annotating the final
    chain), so the two can never disagree about what a plan costs.
    """
    table_name = sctx.tables[table_index].name
    rows = table_rows(db, table_name)
    equi = find_equi_conjunct(sctx, table_index, condition)
    own_sel = 1.0
    cross_sel = 1.0
    equi_expr = equi[3] if equi is not None else None
    for conjunct in split_conjuncts(condition) if condition is not None else ():
        if conjunct is equi_expr:
            continue
        refs = conjunct_tables(sctx, conjunct)
        if refs == {table_index}:
            own_sel *= selectivity(db, table_name, conjunct)
        else:
            cross_sel *= selectivity(db, None, conjunct)

    right_eff = _floor(rows * own_sel, rows)
    if equi is not None:
        left_pos, right_ordinal, right_column, _ = equi
        ndv = column_ndv(db, table_name, right_column)
        out = left.rows * right_eff / ndv * cross_sel
        hash_cost = float(rows)
        index_name = (probe_index_name(db, table_name, right_ordinal)
                      if allow_index else None)
        probe_cost = left.rows * (rows / ndv)
        if index_name is not None and probe_cost <= hash_cost:
            strategy, added = "index", probe_cost
        else:
            strategy, added = "hash", hash_cost
            index_name = None
        # LEFT joins with extra ON conjuncts keep nested-loop semantics
        # (the whole condition decides matching before NULL-extension).
        residual = [c for c in split_conjuncts(condition)
                    if c is not equi_expr]
        if kind == "LEFT" and residual:
            strategy, added, index_name = "nested", float(rows), None
            equi = None
    else:
        strategy, added, index_name = "nested", float(rows), None
        out = left.rows * right_eff * cross_sel

    if kind == "LEFT":
        out = max(out, left.rows)
    out = _floor(out, left.rows * max(rows, 1))
    estimate = Estimate(out, left.cost + added)
    key_pair = (equi[0], equi[1]) if equi is not None else None
    return estimate, strategy, key_pair, index_name


def find_equi_conjunct(sctx, table_index, condition):
    """The first usable equi-join conjunct of ``condition`` for joining
    ``table_index``: a top-level ``a = b`` with both sides column refs, one
    resolving inside the joined table and one outside.

    Returns ``(flat left position, right ordinal, right column name, expr)``
    or None.
    """
    offset = sctx.offsets[table_index]
    width = sctx.widths[table_index]
    schema = sctx.schemas[table_index]
    for conjunct in split_conjuncts(condition) if condition is not None else ():
        if not (isinstance(conjunct, A.BinaryOp) and conjunct.op == "="):
            continue
        sides = (conjunct.left, conjunct.right)
        if not all(isinstance(s, A.ColumnRef) for s in sides):
            continue
        placements = []
        for side in sides:
            if side.table is None and side.column in sctx.context.ambiguous:
                placements = None
                break
            pos = sctx.context.positions.get((side.table, side.column))
            if pos is None:
                placements = None
                break
            placements.append(pos)
        if placements is None:
            continue
        in_right = [offset <= p < offset + width for p in placements]
        if in_right == [False, True]:
            left_pos, right_pos = placements
        elif in_right == [True, False]:
            right_pos, left_pos = placements
        else:
            continue
        ordinal = right_pos - offset
        return left_pos, ordinal, schema.columns[ordinal].name, conjunct
    return None


def conjunct_tables(sctx, conjunct):
    """The set of table indexes a conjunct references, with None entries
    for unresolvable or ambiguous references.  Shared by the cost model and
    every optimizer rule that classifies predicates by table."""
    tables = set()
    for ref in expr_columns(conjunct):
        if ref.table is None and ref.column in sctx.context.ambiguous:
            tables.add(None)
            continue
        pos = sctx.context.positions.get((ref.table, ref.column))
        tables.add(None if pos is None else table_of_position(sctx, pos))
    return tables


def table_of_position(sctx, pos):
    """The FROM-list table index owning flat row position ``pos``."""
    for i in range(len(sctx.offsets) - 1, -1, -1):
        if pos >= sctx.offsets[i]:
            return i
    return 0


def _floor(value, rows):
    """Clamp an estimate into [0, ...]; non-empty inputs yield at least one
    row so downstream ratios stay meaningful."""
    if rows <= 0:
        return 0.0
    return max(1.0, float(value))
