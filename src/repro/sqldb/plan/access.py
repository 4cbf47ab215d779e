"""Access-path selection: resolving a WHERE clause to index lookups.

Shared by the SELECT pipeline (``IndexLookup`` / ``IndexRangeScan``
physical operators) and by the ``UPDATE``/``DELETE`` candidate-row search
in the executor facade.

Index choice has a structural half and a runtime half.  At *plan* time the
predicate's equality and IN-list conjuncts are extracted once into a
:class:`LookupShape`; :func:`pinned_columns` and :func:`candidate_indexes`
decide from it whether the predicate (equality conjuncts over the primary
key or an index's columns) could ever use an index — if not, the optimizer
keeps a plain scan — and :func:`ordered_scan_candidates` does the analogous
analysis for ordered indexes (equality prefix + range suffix + ORDER BY
potential).  At *execution* time, :func:`resolve_index_lookup` only binds
the actual parameters to that same shape; a key that resolves to NULL or a
missing parameter drops out of the conjunct set, which can disqualify the
index and fall back to a full scan (SQL semantics: ``col = NULL`` never
matches) — which is why the final index decision cannot move to plan time.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlTypeError
from repro.sqldb.expressions import RowContext, evaluate, split_conjuncts


def _equality_shapes(where):
    """Yield ``(column name, constant node)`` for every top-level AND
    conjunct of the form ``col = literal-or-param`` (either side order).

    The single filter both plan-time candidate search and runtime key
    resolution build on, so the two can never disagree about which
    predicate shapes count as equality conjuncts.
    """
    for node in split_conjuncts(where):
        if isinstance(node, A.BinaryOp) and node.op == "=":
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if isinstance(a, A.ColumnRef) and isinstance(
                        b, (A.Literal, A.Param)):
                    yield a.column, b
                    break


class LookupShape:
    """The equality and IN-list conjuncts of one WHERE (None: no conjunct),
    extracted when the statement is planned and immutable from then on:
    ``equalities`` holds the :func:`_equality_shapes` pairs, ``in_lists``
    the :func:`_in_list_shapes` pairs.  Plan-time candidacy and every
    execution's key binding read the same two tuples."""

    __slots__ = ("equalities", "in_lists")

    def __init__(self, where):
        self.equalities = tuple(_equality_shapes(where))
        self.in_lists = tuple(_in_list_shapes(where))


def equality_conjuncts(shape, params, column=None):
    """Bind ``column -> constant`` pairs from the shape's equalities — only
    ``column``'s when it is given; of several on one column, the last
    non-NULL value wins."""
    pairs = {}
    for name, constant in shape.equalities:
        if column is not None and name != column:
            continue
        if isinstance(constant, A.Literal):
            value = constant.value
        else:
            if constant.index >= len(params):
                continue
            value = params[constant.index]
        if value is not None:
            pairs[name] = value
    return pairs


def _probe_key(column, value):
    """``value`` as an index probe key: an unhashable parameter (list, set,
    dict) raises what comparing it in a scan-and-filter raises, whichever
    index class would have leaked its ``TypeError`` for it."""
    if type(value).__hash__ is None:
        raise SqlTypeError(f"cannot compare column {column!r} with a "
                           f"{type(value).__name__} value")
    return value


def pinned_columns(shape):
    """Plan-time view of :func:`equality_conjuncts`: the set of column names
    equated to *some* literal or parameter, regardless of its eventual value.

    A superset of what :func:`equality_conjuncts` yields for any concrete
    parameters, so a negative answer here is a safe "never uses an index".
    Deliberately excludes IN-list columns: a pinned column is *single*-valued
    — the contract sort elision and prefix matching rely on — whereas an IN
    column takes several.  IN access paths go through
    :func:`_in_list_shapes` instead.
    """
    return {column for column, _ in shape.equalities}


def _in_list_shapes(where):
    """Yield ``(column name, constant item nodes)`` for every top-level AND
    conjunct of the form ``col IN (literals-and-params)`` (non-negated).

    The IN analogue of :func:`_equality_shapes`: the single shape filter
    plan-time candidacy and runtime key resolution both build on.  A list
    containing any non-constant item is not yielded — its key set cannot be
    derived from the parameters alone.
    """
    for node in split_conjuncts(where):
        if (isinstance(node, A.InList) and not node.negated
                and isinstance(node.expr, A.ColumnRef)
                and all(isinstance(item, (A.Literal, A.Param))
                        for item in node.items)):
            yield node.expr.column, tuple(node.items)


def _in_list_keys(column, shape, params):
    """The set of values IN conjuncts over ``column`` allow, or None when
    no resolvable IN conjunct constrains it.

    Several IN conjuncts on the same column intersect.  An item that is a
    parameter beyond ``params`` makes its whole conjunct unresolvable (the
    key set is unknown, unlike a missing equality conjunct which merely
    drops out).  NULL items drop individually — ``col IN (..., NULL)``
    never matches through the NULL (SQL three-valued equality).
    """
    keys = None
    for shape_column, items in shape.in_lists:
        if shape_column != column:
            continue
        if any(isinstance(item, A.Param) and item.index >= len(params)
               for item in items):
            continue
        ctx = RowContext({}).bind(())
        values = {_probe_key(column, value) for value in
                  (evaluate(item, ctx, params) for item in items)
                  if value is not None}
        keys = values if keys is None else (keys & values)
    return keys


def candidate_indexes(table, shape):
    """Plan-time candidates: names of access paths the predicate could pin.

    Returns a list like ``["<pk>", "idx_owner"]`` (empty when no index can
    ever apply, in which case the optimizer keeps a sequential scan).
    """
    pinned = pinned_columns(shape)
    names = []
    pk = table.schema.primary_key
    if pk is not None and (pk.name in pinned or any(
            column == pk.name for column, _ in shape.in_lists)):
        names.append("<pk>")
    if pinned:
        for index in table.indexes.values():
            if index.covers(pinned):
                names.append(index.info.name)
    return names


def resolve_index_lookup(table, shape, params):
    """Resolve a WHERE's shape to row ids via the PK or a secondary index.

    Returns a sorted list of row ids, or None when no index applies for
    the actual parameter values (caller falls back to a scan).  A primary
    key equality is probed before any other key is bound.
    """
    pk = table.schema.primary_key
    if pk is not None:
        key = equality_conjuncts(shape, params, pk.name).get(pk.name)
        if key is not None:
            hit = table.find_by_pk(_probe_key(pk.name, key))
            return [hit[0]] if hit else []
        keys = _in_list_keys(pk.name, shape, params)
        if keys is not None:
            # Multi-probe point lookup: one pk probe per distinct key.
            # Sorted row ids keep emission in insertion order, identical
            # to the scan-and-filter row stream.
            hits = (table.find_by_pk(key) for key in keys)
            return sorted({hit[0] for hit in hits if hit is not None})
    pairs = equality_conjuncts(shape, params)
    if not pairs:
        return None
    best = None
    for index in table.indexes.values():
        if index.covers(pairs):
            if best is None or len(index.info.columns) > len(
                    best.info.columns):
                best = index
    if best is None:
        return None
    key = [_probe_key(col, pairs[col]) for col in best.info.columns]
    return sorted(best.lookup(key))


def pk_lookup_keys(table, shape, params):
    """The primary-key values an index lookup would probe, or None when the
    primary key does not serve this predicate for these parameters.

    A frozenset: one key for an equality conjunct, the (intersected,
    NULL-free) item set for ``pk IN (...)``.  The concurrent serving layer
    uses this to merge point lookups from different requests into one
    shared multi-probe.
    """
    pk = table.schema.primary_key
    if pk is None:
        return None
    key = equality_conjuncts(shape, params, pk.name).get(pk.name)
    if key is not None:
        return frozenset((_probe_key(pk.name, key),))
    keys = _in_list_keys(pk.name, shape, params)
    return frozenset(keys) if keys is not None else None


def candidate_row_ids(table, shape, ranged, params):
    """Row ids that may satisfy a WHERE — the rows the statement touches.

    Used by UPDATE/DELETE with what their write plan resolved of the WHERE
    (its :class:`LookupShape`, its :func:`range_lookup_candidate`):
    equality index lookup when the predicate pins indexed columns,
    ordered-index range scan when it bounds an ordered index's key, full
    scan otherwise.  The executor re-checks the full WHERE per candidate
    row, so any superset is safe.
    """
    lookup = resolve_index_lookup(table, shape, params)
    if lookup is None and ranged is not None:
        lookup = range_scan_ids(table.indexes[ranged.index_name], ranged,
                                params)
    if lookup is None:
        lookup = [row_id for row_id, _ in table.scan()]
    return lookup


# ---------------------------------------------------------------------------
# Ordered (range) access paths
# ---------------------------------------------------------------------------

# Comparison operators as seen from the other side of the expression
# (``5 < col`` is ``col > 5``); shared with the cost model's range
# selectivity shapes.
FLIPPED_OPS = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _range_shapes(where):
    """Yield ``(column name, op, constant node)`` for every top-level AND
    conjunct shaped like a one-sided range over a column: ``col < C``
    (either side order, op flipped as needed) or a non-negated
    ``col BETWEEN C1 AND C2`` (yielded as its two bounds).

    The single filter both plan-time candidate search and runtime bound
    resolution build on — the range-path analogue of
    :func:`_equality_shapes`.
    """
    for node in split_conjuncts(where):
        if isinstance(node, A.BinaryOp) and node.op in FLIPPED_OPS:
            left, right = node.left, node.right
            if isinstance(left, A.ColumnRef) and isinstance(
                    right, (A.Literal, A.Param)):
                yield left.column, node.op, right
            elif isinstance(right, A.ColumnRef) and isinstance(
                    left, (A.Literal, A.Param)):
                yield right.column, FLIPPED_OPS[node.op], left
        elif isinstance(node, A.Between) and not node.negated:
            if isinstance(node.expr, A.ColumnRef):
                if isinstance(node.low, (A.Literal, A.Param)):
                    yield node.expr.column, ">=", node.low
                if isinstance(node.high, (A.Literal, A.Param)):
                    yield node.expr.column, "<=", node.high


def column_range_bounds(where):
    """Per-column range bounds from the WHERE conjuncts.

    Returns ``column -> [low node, low inclusive, high node, high
    inclusive]`` (either side may be ``None`` = unbounded).  When several
    conjuncts bound the same side, literal bounds are **intersected** — the
    tightest is kept, so ``x > 5 AND x > 10`` scans the ``x > 10`` region
    (and crossed literal bounds collapse the region to empty).  Parameter
    bounds are unknown at plan time: a literal is preferred over a
    parameter, two parameters keep the first.  Whichever bound is chosen,
    the chosen region is a superset of the rows matching the full
    conjunction, and every leftover bound remains in the predicate the
    filter above the scan re-applies — a residual filter, never dropped.
    """
    bounds = {}
    if where is None:
        return bounds
    for column, op, constant in _range_shapes(where):
        entry = bounds.setdefault(column, [None, True, None, True])
        if op in (">", ">="):
            entry[0], entry[1] = _tighter_bound(
                entry[0], entry[1], constant, op == ">=", lower=True)
        else:
            entry[2], entry[3] = _tighter_bound(
                entry[2], entry[3], constant, op == "<=", lower=False)
    return bounds


def _tighter_bound(current, current_incl, new, new_incl, lower):
    """Intersect two bounds on the same side of a column's range.

    Only literal-vs-literal comparisons can be decided at plan time;
    anything undecidable keeps the bound already chosen (safe: the region
    stays a superset and the residual filter applies the rest).  A NULL
    literal bound dominates — its conjunct is UNKNOWN for every row, so
    the matching region is empty and the scan may collapse to nothing.
    """
    if current is None:
        return new, new_incl
    current_lit = isinstance(current, A.Literal)
    new_lit = isinstance(new, A.Literal)
    if not new_lit:
        return current, current_incl  # parameter: keep what we have
    if not current_lit:
        return new, new_incl  # literal beats parameter (known at plan time)
    a, b = current.value, new.value
    if a is None:
        return current, current_incl
    if b is None:
        return new, new_incl
    try:
        if a == b:
            # Equal values: the intersection is inclusive only when both
            # bounds are (x >= 5 AND x > 5 is x > 5).
            return current, current_incl and new_incl
        tighter = (b > a) if lower else (b < a)
    except TypeError:
        return current, current_incl  # incomparable literals: keep first
    return (new, new_incl) if tighter else (current, current_incl)


class RangeCandidate:
    """One ordered index's applicability to a predicate.

    ``n_prefix`` leading index columns are pinned by equality conjuncts
    (``prefix_exprs`` holds their constant nodes); ``low``/``high`` bound
    the next index column when the predicate ranges over it.  A candidate
    with neither a prefix nor bounds is still meaningful: a full in-order
    walk can satisfy an ORDER BY.
    """

    __slots__ = ("index_name", "columns", "ordinals", "n_prefix",
                 "prefix_exprs", "low", "low_incl", "high", "high_incl")

    def __init__(self, index, n_prefix, prefix_exprs, bounds):
        self.index_name = index.info.name
        self.columns = index.info.columns
        self.ordinals = index.ordinals
        self.n_prefix = n_prefix
        self.prefix_exprs = tuple(prefix_exprs)
        if bounds is not None:
            self.low, self.low_incl, self.high, self.high_incl = bounds
        else:
            self.low = self.high = None
            self.low_incl = self.high_incl = True

    @property
    def has_bounds(self):
        return self.low is not None or self.high is not None


def ordered_scan_candidates(table, where):
    """A :class:`RangeCandidate` per ordered index of ``table``, matching
    the longest equality prefix and a range on the following column."""
    eq = {}
    if where is not None:
        for column, constant in _equality_shapes(where):
            eq.setdefault(column, constant)
    bounds = column_range_bounds(where)
    candidates = []
    for index in table.ordered_indexes():
        columns = index.info.columns
        n_prefix = 0
        while n_prefix < len(columns) and columns[n_prefix] in eq:
            n_prefix += 1
        prefix_exprs = [eq[c] for c in columns[:n_prefix]]
        rng = (bounds.get(columns[n_prefix])
               if n_prefix < len(columns) else None)
        candidates.append(RangeCandidate(index, n_prefix, prefix_exprs, rng))
    return candidates


def range_scan_ids(index, shape, params, descending=False):
    """Row ids for one resolved ordered-index scan, shared by the SELECT
    operator (``IndexRangeScanOp``) and the UPDATE/DELETE candidate search.

    ``shape`` carries the plan-time scan description (``prefix_exprs``,
    ``low``/``high`` + inclusivity, ``index_name`` — a
    :class:`RangeCandidate` or the logical ``IndexRangeScan`` node, which
    share the attribute protocol).  A prefix or bound constant that
    resolves to NULL yields no rows — the conjunct it came from is UNKNOWN
    for every row.
    """
    ctx = RowContext({}).bind(())
    prefix = tuple(evaluate(e, ctx, params) for e in shape.prefix_exprs)
    if any(v is None for v in prefix):
        return []
    low = high = None
    if shape.low is not None:
        low = evaluate(shape.low, ctx, params)
        if low is None:
            return []
    if shape.high is not None:
        high = evaluate(shape.high, ctx, params)
        if high is None:
            return []
    try:
        return list(index.scan(prefix, low, high, shape.low_incl,
                               shape.high_incl, descending))
    except TypeError:
        # Mismatched bound type (e.g. a numeric bound on a TEXT column):
        # surface the same error a scan-and-filter would.
        raise SqlTypeError(
            f"cannot compare range bound {low!r}/{high!r} against "
            f"index {shape.index_name!r}") from None


def range_lookup_candidate(table, where):
    """The ordered-index range scan an UPDATE/DELETE falls back to when no
    equality lookup serves an execution, chosen once per write plan: the
    candidate with the longest pinned prefix (bounds required — a
    bound-free walk is no cheaper than the scan it replaces), or None.
    :func:`range_scan_ids` binds it per execution.
    """
    candidates = [c for c in ordered_scan_candidates(table, where)
                  if c.has_bounds]
    return max(candidates, key=lambda c: c.n_prefix, default=None)
