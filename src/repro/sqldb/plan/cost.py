"""Cardinality and rows-touched estimation for logical plan subtrees.

The cost model works in the same currency the physical operators charge at
execution time: **storage rows touched** (which the simulated server's
:class:`repro.net.clock.CostModel` converts to database time).  Estimates
come from live catalog statistics — :class:`repro.sqldb.catalog.TableStats`
row counts maintained on every INSERT/DELETE/TRUNCATE, exact per-index
distinct-key counts read from the indexes, **key-order statistics**
(the sorted key list of an ordered index, bisected for the position of
literal range bounds), and **snapshot statistics** read from the table's
cached columnar snapshot (:class:`repro.sqldb.columnar.ColumnStore`):
exact per-column distinct counts for join fan-out and equality
selectivity on unindexed columns, and whole-column min/max ranges
interpolated uniformly for literal range bounds no ordered index covers.
Standard textbook selectivity heuristics remain the last resort for
predicate shapes no statistic can resolve (notably parameter bounds,
which are unknown at plan time by design: one cached plan serves every
parameter value).

Snapshot statistics are built **at plan time** (``table.column_store()``
builds on demand) whichever engine will execute the plan — if only the
columnar engine consulted them, the two engines would pick different
join orders and ``rows_touched`` would stop being engine-invariant.  The
snapshot cache is invalidated by every table mutation, so a fresh plan
always sees current-data statistics; a *cached* plan can hold estimates
from an older snapshot until the stats epoch ticks — exactly the
staleness contract row-count stats already have.

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
- ``Database.explain`` renders the per-node ``est_rows``/``est_cost``
  annotations the strategy pass stores on the tree.

Estimates are estimates: the physical operators stay adaptive (an index
nested-loop join falls back to a hash build at execution time when the
actual probe volume would exceed a full scan), so a wrong estimate can cost
planning quality but never correctness or a rows-touched regression.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.expressions import expr_columns, split_conjuncts
from repro.sqldb.indexes import OrderedIndex
from repro.sqldb.plan.access import FLIPPED_OPS

# Fallback selectivities for predicate shapes the statistics cannot price.
EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.3
NULL_SELECTIVITY = 0.1
LIKE_SELECTIVITY = 0.25
BETWEEN_SELECTIVITY = 0.25
DEFAULT_SELECTIVITY = 0.5

# When no index reveals a column's distinct-key count, assume one key per
# this many rows (i.e. NDV = rows / 10, at least 1).
_FALLBACK_ROWS_PER_KEY = 10


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
    """Distinct-key estimate for one column.

    Exact for the primary key (== row count), for columns carrying a
    single-column hash index (the bucket count *is* the NDV), and for
    any column of a table with a valid columnar snapshot (per-column
    distinct counts are recorded at snapshot build); the density
    heuristic is the last resort.
    """
    schema = db.catalog.table(table_name)
    rows = schema.stats.row_count
    pk = schema.primary_key
    if pk is not None and pk.name == column:
        return max(rows, 1)
    table = db.tables_get(table_name)
    for index in table.indexes.values():
        if index.info.columns == (column,):
            return max(index.distinct_keys, 1)
    store = _snapshot_stats(db, table_name)
    if store is not None:
        n_distinct = store.distinct.get(column)
        if n_distinct is not None:
            return max(n_distinct, 1)
    # Density heuristic: one key per _FALLBACK_ROWS_PER_KEY rows, but never
    # fewer keys than min(rows, 10) so equality stays selective on small
    # tables instead of degenerating to "matches everything".
    return max(rows // _FALLBACK_ROWS_PER_KEY, min(rows, 10), 1)


def _snapshot_stats(db, table_name):
    """The table's columnar snapshot as a statistics source, or None.

    Builds the snapshot on demand (it is cached on the table until the
    next mutation), under **every** engine: plans must not depend on
    which engine executes them, or rows_touched would diverge across the
    columnar-vs-row differential oracles.  The build cost is amortized by
    the plan cache — planning only happens on a cache miss.
    """
    if table_name is None:
        return None
    try:
        table = db.tables_get(table_name)
        if table is None:
            return None
        return table.column_store()
    except Exception:
        return None  # stats are optional; planning must never fail here


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

    ``table_name`` (may be None) lets equality predicates consult the
    column's distinct-key count; every other shape uses the fallback
    constants.  Conjunctions multiply, disjunctions combine inclusively,
    NOT complements.
    """
    if isinstance(expr, A.BinaryOp):
        if expr.op == "AND":
            return (selectivity(db, table_name, expr.left)
                    * selectivity(db, table_name, expr.right))
        if expr.op == "OR":
            a = selectivity(db, table_name, expr.left)
            b = selectivity(db, table_name, expr.right)
            return min(1.0, a + b - a * b)
        if expr.op == "=":
            return _equality_selectivity(db, table_name, expr)
        if expr.op == "<>":
            return 1.0 - _equality_selectivity(db, table_name, expr)
        if expr.op in ("<", ">", "<=", ">="):
            return _range_op_selectivity(db, table_name, expr)
        return DEFAULT_SELECTIVITY
    if isinstance(expr, A.UnaryOp) and expr.op == "NOT":
        return 1.0 - selectivity(db, table_name, expr.operand)
    if isinstance(expr, A.IsNull):
        return 1.0 - NULL_SELECTIVITY if expr.negated else NULL_SELECTIVITY
    if isinstance(expr, A.Between):
        sel = _between_selectivity(db, table_name, expr)
        return 1.0 - sel if expr.negated else sel
    if isinstance(expr, A.Like):
        return 1.0 - LIKE_SELECTIVITY if expr.negated else LIKE_SELECTIVITY
    if isinstance(expr, A.InList):
        sel = min(1.0, EQ_SELECTIVITY * max(len(expr.items), 1))
        return 1.0 - sel if expr.negated else sel
    if isinstance(expr, A.Literal):
        if expr.value is True:
            return 1.0
        if expr.value in (False, None):
            return 0.0
        return DEFAULT_SELECTIVITY
    return DEFAULT_SELECTIVITY


def _order_stats_fraction(db, table_name, column, low, high, low_incl,
                          high_incl):
    """Range fraction from the column's key-order statistic (an ordered
    index whose sorted key list is bisected for the bound positions),
    falling back to uniform interpolation over the columnar snapshot's
    whole-column min/max; None when neither statistic covers ``column``."""
    if table_name is None:
        return None
    schema = db.catalog.table(table_name)
    if not schema.has_column(column):
        return None
    fraction = schema.stats.range_fraction(column, low, high, low_incl,
                                           high_incl)
    if fraction is not None:
        return fraction
    return _snapshot_range_fraction(db, table_name, column, low, high)


def _is_plain_number(value):
    """Numeric and not a bool (bools order against ints in Python but are
    a distinct SQL family — interpolating across them would be wrong)."""
    return (value is not None and value.__class__ is not bool
            and isinstance(value, (int, float)))


def _snapshot_range_fraction(db, table_name, column, low, high):
    """Uniform-interpolation range fraction from the snapshot's
    whole-column ``(lo, hi)`` aggregate, numeric columns and bounds only
    (bound inclusivity is below the resolution of a continuous
    approximation and is ignored).  Scaled by the non-NULL fraction —
    NULL rows satisfy no range predicate."""
    for bound in (low, high):
        if bound is not None and not _is_plain_number(bound):
            return None
    store = _snapshot_stats(db, table_name)
    if store is None or store.length == 0:
        return None
    bounds = store.ranges.get(column)
    if bounds is None:
        return None
    lo, hi = bounds
    if not (_is_plain_number(lo) and _is_plain_number(hi)):
        nulls = store.nulls.get(column)
        if nulls is not None and nulls == store.length:
            return 0.0  # all-NULL column: nothing satisfies a range
        return None
    nonnull = store.length - store.nulls.get(column, 0)
    if nonnull <= 0:
        return 0.0
    if hi <= lo:
        # Degenerate span (single distinct value): containment decides.
        inside = ((low is None or low <= lo)
                  and (high is None or high >= hi))
        fraction = 1.0 if inside else 0.0
    else:
        lo_eff = lo if low is None else max(low, lo)
        hi_eff = hi if high is None else min(high, hi)
        fraction = (0.0 if hi_eff < lo_eff
                    else (hi_eff - lo_eff) / (hi - lo))
    return fraction * (nonnull / store.length)


def _range_op_selectivity(db, table_name, expr):
    """Selectivity of ``col <op> constant``: the key-order statistic when
    the bound is a literal over an ordered-indexed column, the
    RANGE_SELECTIVITY constant otherwise (parameters are unknown at plan
    time by design — plans are cached across parameter values)."""
    for a, b, op in ((expr.left, expr.right, expr.op),
                     (expr.right, expr.left, FLIPPED_OPS[expr.op])):
        if isinstance(a, A.ColumnRef) and isinstance(b, A.Literal):
            if b.value is None:
                return 0.0  # col < NULL is UNKNOWN for every row
            if op in ("<", "<="):
                fraction = _order_stats_fraction(
                    db, table_name, a.column, None, b.value,
                    True, op == "<=")
            else:
                fraction = _order_stats_fraction(
                    db, table_name, a.column, b.value, None,
                    op == ">=", True)
            if fraction is not None:
                return fraction
            break
    return RANGE_SELECTIVITY


def _between_selectivity(db, table_name, expr):
    """Selectivity of (non-negated) BETWEEN via the key-order statistic
    when both bounds are literals, BETWEEN_SELECTIVITY otherwise."""
    if (isinstance(expr.expr, A.ColumnRef)
            and isinstance(expr.low, A.Literal)
            and isinstance(expr.high, A.Literal)):
        if expr.low.value is None or expr.high.value is None:
            return 0.0
        fraction = _order_stats_fraction(
            db, table_name, expr.expr.column, expr.low.value,
            expr.high.value, True, True)
        if fraction is not None:
            return fraction
    return BETWEEN_SELECTIVITY


def _equality_selectivity(db, table_name, expr):
    for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
        if isinstance(a, A.ColumnRef) and isinstance(b, (A.Literal, A.Param)):
            if table_name is not None:
                schema = db.catalog.table(table_name)
                if schema.has_column(a.column):
                    return 1.0 / column_ndv(db, table_name, a.column)
            return EQ_SELECTIVITY
    return EQ_SELECTIVITY


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

    where the range fraction comes from the key-order statistic for
    literal bounds and from the RANGE/BETWEEN constants for parameter
    bounds.  The *output* cardinality applies the full predicate's
    selectivity (the Filter above the scan re-applies every conjunct),
    clamped to never exceed the rows touched.
    """
    rows = table_rows(db, table_name)
    touch_sel = 1.0
    for column in candidate.columns[:candidate.n_prefix]:
        touch_sel /= column_ndv(db, table_name, column)
    if candidate.low is not None or candidate.high is not None:
        touch_sel *= _bound_fraction(db, table_name, candidate)
    touched = _floor(rows * touch_sel, rows)
    out = touched
    if predicate is not None:
        out = min(_floor(rows * selectivity(db, table_name, predicate),
                         rows), touched)
    return Estimate(out, touched)


def _bound_fraction(db, table_name, candidate):
    """Fraction of the prefix region the range bounds keep.

    Literal bounds are priced exactly off the candidate's *own* ordered
    index (it names it — no registry needed): a leading-column range
    bisects the whole sorted key list, and a suffix-column range under an
    **all-literal** equality prefix bisects within that prefix's key
    region (composite key-order statistics).  Parameter bounds or prefixes
    are unknown at plan time by design (one cached plan serves every
    parameter value) and keep the heuristic constants.
    """
    low, high = candidate.low, candidate.high
    low_lit = isinstance(low, A.Literal) or low is None
    high_lit = isinstance(high, A.Literal) or high is None
    if low_lit and high_lit and table_name is not None:
        low_value = low.value if low is not None else None
        high_value = high.value if high is not None else None
        if (low is not None and low_value is None) or (
                high is not None and high_value is None):
            return 0.0  # a NULL bound is UNKNOWN for every row
        prefix_values = _literal_prefix(candidate)
        if prefix_values is not None:
            if any(value is None for value in prefix_values):
                return 0.0  # col = NULL never matches: empty region
            index = db.tables_get(table_name).indexes.get(
                candidate.index_name)
            if isinstance(index, OrderedIndex):
                try:
                    return index.prefix_range_fraction(
                        prefix_values, low_value, high_value,
                        candidate.low_incl, candidate.high_incl)
                except TypeError:
                    pass  # incomparable bound: heuristic constants below
    if low is not None and high is not None:
        return BETWEEN_SELECTIVITY
    return RANGE_SELECTIVITY


def _literal_prefix(candidate):
    """The candidate's equality-prefix values when every prefix constant
    is a literal (None when any is a parameter — unpriceable at plan
    time).  An empty prefix yields ``()``."""
    values = []
    for expr in candidate.prefix_exprs:
        if not isinstance(expr, A.Literal):
            return None
        values.append(expr.value)
    return tuple(values)


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
    or None.  Conjuncts whose right column carries a probe-capable index are
    preferred, so multi-equality ON conditions pick the probe-friendly key.
    """
    offset = sctx.offsets[table_index]
    width = sctx.widths[table_index]
    schema = sctx.schemas[table_index]
    pk = schema.primary_key
    indexed_columns = {info.columns[0] for info in schema.indexes.values()
                       if len(info.columns) == 1}
    best = None
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
        column = schema.columns[ordinal].name
        found = (left_pos, ordinal, column, conjunct)
        if pk is not None and ordinal == pk.ordinal:
            return found  # PK probe: best possible key
        if best is None or (column in indexed_columns
                            and best[2] not in indexed_columns):
            best = found
    return best


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
