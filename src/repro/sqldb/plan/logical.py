"""Logical plan nodes.

A logical plan is a tree describing *what* a SELECT computes, independent of
the algorithms used to compute it.  The planner builds the canonical tree

.. code-block:: text

    Limit(Sort(Distinct(Project|Aggregate(Filter(Join(... Scan))))))

and the optimizer rewrites it (pushing filters below joins, replacing a
``Scan`` with an ``IndexLookup`` or ``IndexRangeScan``, removing a ``Sort``
an ordered scan already satisfies, annotating ``Join`` nodes with a
physical strategy, and giving every row-source node its ``estimate``).
The optimized tree is kept on the physical plan lowered from it
(``PhysicalPlan.logical``): the lowering maps node to operator one to one,
so :func:`explain` renders the plan that executes — its estimates, and
under EXPLAIN ANALYZE each operator's measurements on the same lines.
An UPDATE or DELETE is planned as ``SELECT 1`` over its WHERE, and the
write (:class:`Update`, :class:`Delete`) takes the Project's place.
"""


class LogicalNode:
    """Base class for logical plan nodes."""

    _show = ()  # attribute names rendered by explain()

    # The optimizer's :class:`~repro.sqldb.plan.cost.Estimate` (output rows,
    # cumulative rows touched), set on row-source nodes only.
    estimate = None

    def children(self):
        return ()

    def _parts(self):
        parts = []
        for name in self._show:
            value = getattr(self, name)
            if value is not None and value != [] and value is not False:
                parts.append(f"{name}={value!r}")
        return parts

    def label(self):
        parts = self._parts()
        suffix = f" [{', '.join(parts)}]" if parts else ""
        if self.estimate is not None:
            suffix += (f" (~{round(self.estimate.rows)} rows, "
                       f"~{round(self.estimate.cost)} touched)")
        return f"{type(self).__name__}{suffix}"

    def __repr__(self):
        return self.label()


class Scan(LogicalNode):
    """Full scan of one table in the FROM list (``table_index`` into the
    select context's table order; 0 is the base table)."""

    _show = ("table", "alias")

    def __init__(self, table_index, table, alias):
        self.table_index = table_index
        self.table = table
        self.alias = alias


class IndexLookup(LogicalNode):
    """Index-accelerated access to the base table.

    ``where`` is the full predicate the lookup keys are drawn from and
    ``probe`` its :class:`~repro.sqldb.plan.access.IndexProbe` over the
    table; key values are bound to the statement parameters at execution
    time, falling back to a full scan when no index applies for the actual
    parameter values (e.g. a key bound to NULL).  ``candidates`` names the
    indexes the optimizer found structurally applicable, the paths the
    probe considers.
    """

    _show = ("table", "candidates")

    def __init__(self, table_index, table, alias, where, probe):
        self.table_index = table_index
        self.table = table
        self.alias = alias
        self.where = where
        self.probe = probe
        self.candidates = probe.candidates  # e.g. ["<pk>"] or index names


class IndexRangeScan(LogicalNode):
    """Ordered-index access to the base table, in key order.

    The scan resolves ``prefix_exprs`` (equality constants for the leading
    ``n_prefix`` index columns) and the ``low``/``high`` bounds on the next
    column against the statement parameters at execution time and walks the
    ordered index between them; rows stream out sorted by the index key,
    which is what lets the optimizer's order-propagation pass elide a
    ``Sort`` above.  ``where`` is the full predicate the bounds were drawn
    from; the ``Filter`` above re-applies what the walk did not decide
    (:func:`~repro.sqldb.plan.access.walked_conjuncts`).
    """

    _show = ("table", "index_name")

    def __init__(self, table_index, table, alias, where, candidate):
        self.table_index = table_index
        self.table = table
        self.alias = alias
        self.where = where
        self.index_name = candidate.index_name
        self.columns = candidate.columns
        self.samples = candidate.samples
        self.n_prefix = candidate.n_prefix
        self.prefix_exprs = candidate.prefix_exprs
        self.low = candidate.low
        self.low_incl = candidate.low_incl
        self.high = candidate.high
        self.high_incl = candidate.high_incl
        self.operands = candidate.operands
        self.operand_samples = candidate.operand_samples
        self.descending = False
        self.sort_elided = False
        self.order_columns = ()  # set when a Sort was elided (for explain)

    def _parts(self):
        parts = [f"table={self.table!r}", f"index={self.index_name!r}"]
        if self.n_prefix:
            eq = " AND ".join(
                f"{col} = {_render_const(expr)}"
                for col, expr in zip(self.columns, self.prefix_exprs))
            parts.append(f"eq='{eq}'")
        bounds = self._render_bounds()
        if bounds:
            parts.append(f"bounds='{bounds}'")
        if self.sort_elided:
            keys = ", ".join(self.order_columns)
            direction = "DESC" if self.descending else "ASC"
            parts.append(f"order='{keys} {direction} (sort elided)'")
        return parts

    def _render_bounds(self):
        column = (self.columns[self.n_prefix]
                  if self.n_prefix < len(self.columns) else None)
        if self.low is not None and self.high is not None:
            lo = "<=" if self.low_incl else "<"
            hi = "<=" if self.high_incl else "<"
            return (f"{_render_const(self.low)} {lo} {column} "
                    f"{hi} {_render_const(self.high)}")
        if self.low is not None:
            op = ">=" if self.low_incl else ">"
            return f"{column} {op} {_render_const(self.low)}"
        if self.high is not None:
            op = "<=" if self.high_incl else "<"
            return f"{column} {op} {_render_const(self.high)}"
        return None


def _render_const(node):
    """Compact rendering of a Literal/Param bound for explain output."""
    if hasattr(node, "value"):
        return repr(node.value)
    return "?"


class Filter(LogicalNode):
    """Keep rows for which ``predicate`` evaluates to SQL TRUE."""

    _show = ("predicate",)

    def __init__(self, child, predicate):
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)


class Join(LogicalNode):
    """Join the child row stream against one table.

    ``strategy`` is chosen by the optimizer: ``"hash"`` or ``"index"`` (with
    ``equi`` as the ``(flat left position, right ordinal)`` key pair) for
    equality ON conditions — ``"index"`` probes the right table's primary
    key or the single-column index named ``index_name`` per left row —
    ``"nested"`` otherwise.
    """

    _show = ("kind", "table", "strategy", "index_name")

    def __init__(self, kind, child, table_index, table, condition,
                 strategy=None, equi=None, index_name=None):
        self.kind = kind  # "INNER" | "LEFT"
        self.child = child
        self.table_index = table_index
        self.table = table
        self.condition = condition
        self.strategy = strategy
        self.equi = equi
        self.index_name = index_name

    def children(self):
        return (self.child,)


class Project(LogicalNode):
    """Evaluate the select list over each source row."""

    def __init__(self, child, items):
        self.child = child
        self.items = items

    def children(self):
        return (self.child,)


class Aggregate(LogicalNode):
    """Group rows and evaluate aggregate select items per group."""

    _show = ("group_by",)

    def __init__(self, child, items, group_by, having):
        self.child = child
        self.items = items
        self.group_by = group_by
        self.having = having

    def children(self):
        return (self.child,)


class Update(LogicalNode):
    """An UPDATE of ``table`` (``set``: its SET list), or a DELETE: it
    changes the rows its child, the access plan of its WHERE, keeps."""

    _show = ("table", "set")

    def __init__(self, child, table, assignments=None):
        self.child, self.table, self.set = child, table, assignments

    def children(self):
        return (self.child,)


class Delete(Update):
    _show = ("table",)


class Distinct(LogicalNode):
    """Drop duplicate output rows, keeping first occurrences."""

    def __init__(self, child):
        self.child = child

    def children(self):
        return (self.child,)


class Sort(LogicalNode):
    """ORDER BY over the projected rows."""

    _show = ("order_by",)

    def __init__(self, child, order_by):
        self.child = child
        self.order_by = order_by

    def children(self):
        return (self.child,)


class Limit(LogicalNode):
    """LIMIT/OFFSET over the projected rows."""

    def __init__(self, child, limit, offset):
        self.child = child
        self.limit = limit
        self.offset = offset

    def children(self):
        return (self.child,)


def explain(node, actuals=None):
    """Render a logical plan — a chain, every node one child at most — as
    an indented multi-line string, one line a node, top first.

    ``actuals`` (EXPLAIN ANALYZE) holds one measurement per node in the
    same order; each renders itself against the node's estimate and is
    appended to the node's line.
    """
    lines = []
    while True:
        line = "  " * len(lines) + node.label()
        if actuals is not None:
            line += " " + actuals[len(lines)].render(node.estimate)
        lines.append(line)
        children = node.children()
        if not children:
            return "\n".join(lines)
        node, = children


def transform_bottom_up(node, fn):
    """Rebuild-free bottom-up rewrite: children are transformed in place,
    then ``fn(node)`` may return a replacement for the node itself."""
    for child in node.children():
        replacement = transform_bottom_up(child, fn)
        if replacement is not child:
            node.child = replacement
    return fn(node)
