"""Translate a parsed SELECT into a canonical logical plan.

The planner resolves the FROM list against the catalog, builds the
:class:`SelectContext` (flat row layout + column-reference resolution shared
by every operator), and emits the canonical node tree.  It performs *no*
optimization — see :mod:`repro.sqldb.plan.optimizer`.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlError
from repro.sqldb.expressions import RowContext, expr_columns
from repro.sqldb.plan import logical as L

_AGGREGATE_NAMES = frozenset(["COUNT", "SUM", "AVG", "MIN", "MAX"])


class SelectContext:
    """Resolved FROM-list layout for one SELECT.

    Joined rows are flat lists; table ``i``'s columns live at positions
    ``offsets[i] .. offsets[i] + widths[i]``.  ``context`` is the
    :class:`RowContext` every expression in the statement evaluates against.

    ``read`` is the statement's **read set**: the sorted flat positions
    its select items, join conditions, WHERE, GROUP BY, HAVING and ORDER
    BY name — a superset of what any operator or kernel of the plan can
    evaluate, since the optimizer only moves those expressions around;
    the chunk operators leave every other lane all-NULL.
    ``table_reads[i]`` is table ``i``'s share of it, as schema ordinals.
    """

    def __init__(self, db, stmt):
        self.stmt = stmt
        self.tables = [stmt.table] + [j.table for j in stmt.joins]
        self.schemas = [db.catalog.table(t.name) for t in self.tables]
        self.widths = [len(s.columns) for s in self.schemas]
        self.offsets = []
        offset = 0
        for width in self.widths:
            self.offsets.append(offset)
            offset += width
        self.total_width = offset
        self.context = self._build_context()
        self.read = sorted(self.positions_of(
            [item.expr for item in stmt.items]
            + [join.condition for join in stmt.joins]
            + [stmt.where, stmt.having, *stmt.group_by]
            + [key.expr for key in stmt.order_by]))
        self.table_reads = [
            [pos - offset for pos in self.read
             if offset <= pos < offset + width]
            for offset, width in zip(self.offsets, self.widths)]

    def _build_context(self):
        positions = {}
        ambiguous = set()
        unqualified = {}
        for table_ref, schema, offset in zip(self.tables, self.schemas,
                                             self.offsets):
            for col in schema.columns:
                positions[(table_ref.alias, col.name)] = offset + col.ordinal
                if col.name in unqualified:
                    ambiguous.add(col.name)
                else:
                    unqualified[col.name] = offset + col.ordinal
        for name, pos in unqualified.items():
            if name not in ambiguous:
                positions[(None, name)] = pos
        return RowContext(positions, frozenset(ambiguous))

    def positions_of(self, exprs):
        """The flat positions ``exprs`` (None entries allowed) can read:
        every column a ``*`` / ``alias.*`` expands to and every ColumnRef
        that resolves (for the others the resolver raises, per row)."""
        positions, ambiguous = self.context.positions, self.context.ambiguous
        found = set()
        for expr in exprs:
            if isinstance(expr, A.Star):
                found.update(pos for (alias, _), pos in positions.items()
                             if expr.table in (None, alias))
            found.update(
                positions.get((ref.table, ref.column))
                for ref in expr_columns(expr)
                if ref.table is not None or ref.column not in ambiguous)
        return found - {None}


def contains_aggregate(expr):
    if isinstance(expr, A.FuncCall) and expr.name in _AGGREGATE_NAMES:
        return True
    if isinstance(expr, A.BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, A.UnaryOp):
        return contains_aggregate(expr.operand)
    return False


def order_by_position(expr, width):
    """The 0-based output column an ``ORDER BY <integer literal>`` key
    names, or None when the key is any other expression.  A position
    outside ``1..width`` raises instead of indexing the row with it
    (``ORDER BY 0`` would silently sort by the last column)."""
    if not (isinstance(expr, A.Literal) and isinstance(expr.value, int)
            and not isinstance(expr.value, bool)):
        return None
    if not 1 <= expr.value <= width:
        raise SqlError(
            f"ORDER BY position {expr.value} is not in the select list")
    return expr.value - 1


def select_has_aggregates(stmt):
    return any(
        contains_aggregate(item.expr) for item in stmt.items
    ) or (stmt.having is not None) or bool(stmt.group_by)


def build_select_plan(db, stmt):
    """Build the canonical logical plan for ``stmt``.

    Returns ``(root, select_context)``.  Raises
    :class:`repro.sqldb.errors.CatalogError` for unknown tables, exactly as
    direct execution would, and :class:`SqlError` for a qualified WHERE
    column the FROM list does not have: an index path may decide the
    conjunct that names it without evaluating it, so it is refused here,
    whatever the parameters and the data.
    """
    sctx = SelectContext(db, stmt)
    positions = sctx.context.positions
    for ref in expr_columns(stmt.where):
        if ref.table is not None and (ref.table, ref.column) not in positions:
            raise SqlError(
                f"unknown column {ref.column!r} in table {ref.table!r}")

    node = L.Scan(0, sctx.tables[0].name, sctx.tables[0].alias)
    for join_index, join in enumerate(stmt.joins, start=1):
        node = L.Join(join.kind, node, join_index, join.table.name,
                      join.condition)
    if stmt.where is not None:
        node = L.Filter(node, stmt.where)

    if select_has_aggregates(stmt):
        node = L.Aggregate(node, stmt.items, stmt.group_by, stmt.having)
    else:
        node = L.Project(node, stmt.items)

    if stmt.distinct:
        node = L.Distinct(node)
    if stmt.order_by:
        node = L.Sort(node, stmt.order_by)
    if stmt.limit is not None:
        node = L.Limit(node, stmt.limit, stmt.offset)
    return node, sctx
