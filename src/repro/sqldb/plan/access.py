"""Access-path selection: resolving a WHERE clause to index lookups.

Used by the ``IndexLookup`` / ``IndexRangeScan`` physical operators,
which find a SELECT's rows and an UPDATE or DELETE's alike.

Index choice has a structural half and a runtime half.  At *plan* time an
:class:`IndexProbe` extracts the predicate's equality and IN-list
conjuncts once and decides from them which access paths (the primary key,
indexes whose columns the equalities cover) could ever serve it — if none,
the optimizer keeps a plain scan — and :func:`ordered_scan_candidates`
does the analogous analysis for ordered indexes (equality prefix + range
suffix + ORDER BY potential).  At *execution* time,
:func:`resolve_index_lookup` only binds the actual parameters to the
probe; a key that resolves to NULL or a missing parameter drops out of
the conjunct set, which can disqualify the index and fall back to a full
scan (SQL semantics: ``col = NULL`` never matches), and a key or range
bound its column cannot compare disqualifies the index — which is why
the final index decision cannot move to plan time.  What an equality
probe or an ordered walk decided is left out of the predicate the
operator re-checks (:func:`residual_predicate`).
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlTypeError
from repro.sqldb.expressions import conjoin, split_conjuncts
from repro.sqldb.plan.compile import compile_operand
from repro.sqldb.types import STORED_SAMPLES, is_comparable


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


def pinned_columns(where):
    """The set of column names ``where`` equates to *some* literal or
    parameter, regardless of its eventual value — a superset of the
    columns :func:`equality_conjuncts` binds for any parameters, so a
    negative answer is a safe "never uses an index".  Deliberately
    excludes IN-list columns: a pinned column is *single*-valued — the
    contract sort elision and prefix matching rely on."""
    return {column for column, _ in _equality_shapes(where)}


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


class IndexProbe:
    """One WHERE's index access to one table, settled when its plan is
    built: an execution only binds parameters to it.

    ``candidates`` names the access paths the WHERE could pin, like
    ``["<pk>", "idx_owner"]`` (empty: no index can ever apply).  Per
    equality conjunct over a column of the table, ``keys`` holds
    ``(parameter index or None, literal value, a value of the column's
    stored type, the column's position in columns)``; the paths read
    their keys by those positions: ``pk_slot`` the primary key's (None
    without an equality on it; ``pk`` names it when ``<pk>`` is a
    candidate), ``indexes`` one ``(name, columns, positions)`` per
    candidate index, most columns first (ties in the table's order).
    ``in_lists`` holds the :func:`_in_list_shapes` pairs.
    """

    __slots__ = ("in_lists", "candidates", "columns", "keys", "pk",
                 "pk_slot", "indexes")

    def __init__(self, table, where):
        schema = table.schema
        self.in_lists = tuple(_in_list_shapes(where))
        slot = {}
        self.keys = []
        for column, constant in _equality_shapes(where):
            if not schema.has_column(column):
                continue
            sample = STORED_SAMPLES[schema.column(column).type_name]
            position = slot.setdefault(column, len(slot))
            if type(constant) is A.Param:
                self.keys.append((constant.index, None, sample, position))
            else:
                self.keys.append((None, constant.value, sample, position))
        self.columns = tuple(slot)
        pk = schema.primary_key
        self.pk = pk.name if pk is not None and (pk.name in slot or any(
            column == pk.name for column, _ in self.in_lists)) else None
        self.pk_slot = slot.get(self.pk)
        covering = [index.info for index in table.indexes.values()
                    if index.covers(slot)]
        self.candidates = [info.name for info in covering]
        if self.pk is not None:
            self.candidates.insert(0, "<pk>")
        self.indexes = sorted(
            ((info.name, info.columns,
              tuple(slot[column] for column in info.columns))
             for info in covering), key=lambda path: -len(path[1]))

    def paths(self):
        """``(name, keyed columns)`` of each path an equality probe can
        take."""
        if self.pk_slot is not None:
            yield "<pk>", (self.pk,)
        for name, columns, _ in self.indexes:
            yield name, columns


def _probe_key(column, value):
    """``value`` as an IN-list probe key: an unhashable parameter (list,
    set, dict) raises what comparing it in a scan-and-filter raises,
    whichever index class would have leaked its ``TypeError`` for it."""
    if type(value).__hash__ is None:
        raise SqlTypeError(f"cannot compare column {column!r} with a "
                           f"{type(value).__name__} value")
    return value


def _in_list_keys(column, probe, params):
    """The set of values IN conjuncts over ``column`` allow, or None when
    no resolvable IN conjunct constrains it.

    Several IN conjuncts on the same column intersect.  An item that is a
    parameter beyond ``params`` makes its whole conjunct unresolvable (the
    key set is unknown, unlike a missing equality conjunct which merely
    drops out).  NULL items drop individually — ``col IN (..., NULL)``
    never matches through the NULL (SQL three-valued equality).
    """
    keys = None
    for shape_column, items in probe.in_lists:
        if shape_column != column:
            continue
        if any(isinstance(item, A.Param) and item.index >= len(params)
               for item in items):
            continue
        values = {_probe_key(column, value) for value in
                  (item.value if type(item) is A.Literal
                   else params[item.index] for item in items)
                  if value is not None}
        keys = values if keys is None else (keys & values)
    return keys


def equality_conjuncts(probe, params):
    """Bind the probe's equality keys: one per ``probe.columns`` entry (of
    several conjuncts on a column the last non-NULL value wins; None where
    each is NULL or a missing parameter — the conjunct drops out), or None
    when a key is not comparable with what its column stores (``'1'`` for
    an INTEGER, ``FALSE`` for a number, a list for anything).  Such a key
    disqualifies every index for the execution, so the scan that runs
    instead answers what an unindexed table answers."""
    n = len(params)
    bound = [None] * len(probe.columns)
    for index, value, sample, column in probe.keys:
        if index is not None:
            value = params[index] if index < n else None
        if value is not None:
            if not keyable(value, sample):
                return None
            bound[column] = value
    return bound


def keyable(value, sample):
    """Whether an index over a column storing ``sample``'s type finds what
    a scan finds for the non-NULL key ``value`` (one comparable with it)."""
    return type(value) is type(sample) or is_comparable(value, sample)


def resolve_index_lookup(table, probe, params):
    """Probe ``table`` for the rows a WHERE may hold for, through the
    primary key or the longest candidate index its bound keys cover.

    Returns ``(path, ids)``: ``ids`` a fresh list of the row ids found,
    ascending (the scan's order, which an index bucket keeps), or None
    when no candidate serves these parameters and the caller scans;
    ``path`` the candidate whose equality conjuncts the probe decided —
    ``"<pk>"`` or an index name — or None (a scan, or a ``pk IN (...)``
    multi-probe, which decides nothing).  A primary-key equality is
    probed before any IN list or index.
    """
    bound = equality_conjuncts(probe, params)
    if bound is None:
        return None, None
    if probe.pk_slot is not None and bound[probe.pk_slot] is not None:
        row_id = table.row_id_of(bound[probe.pk_slot])
        return "<pk>", [] if row_id is None else [row_id]
    if probe.pk is not None:
        keys = _in_list_keys(probe.pk, probe, params)
        if keys is not None:
            # One pk probe per distinct key; row-id order is the scan's.
            return None, sorted(row_id for row_id in map(table.row_id_of, keys)
                                if row_id is not None)
    for name, _, slots in probe.indexes:
        key = [bound[slot] for slot in slots]
        if None not in key:
            return name, list(table.indexes[name].lookup(key))
    return None, None


def pk_lookup_keys(probe, params):
    """The primary-key values an index lookup would probe, or None when the
    primary key does not serve this predicate for these parameters.

    A frozenset: one key for an equality conjunct, the (intersected,
    NULL-free) item set for ``pk IN (...)``.  The concurrent serving layer
    uses this to merge point lookups from different requests into one
    shared multi-probe.
    """
    bound = equality_conjuncts(probe, params)
    if bound is None or probe.pk is None:
        return None
    if probe.pk_slot is not None and bound[probe.pk_slot] is not None:
        return frozenset((bound[probe.pk_slot],))
    keys = _in_list_keys(probe.pk, probe, params)
    return frozenset(keys) if keys is not None else None


def residual_predicate(where, decides):
    """``where`` without the top-level conjuncts ``decides`` holds for:
    what is left to check of the rows an access path or a join found
    (None when nothing is).  ``where`` stays whole when the one conjunct
    left is not TRUE / FALSE / NULL valued: an AND counts ``10`` as TRUE,
    a WHERE keeps only TRUE."""
    rest = [node for node in split_conjuncts(where) if not decides(node)]
    if len(rest) == 1 and not _truth_valued(rest[0]):
        return where
    return conjoin(rest)


def keyed_conjuncts(where, columns):
    """What an equality probe keyed on ``columns`` decided of ``where``:
    their equality conjuncts (a found row equals its comparable key) —
    none when a keyed column has two or more (the probe bound one)."""
    keyed = [column for column, _ in _equality_shapes(where)
             if column in columns]
    if len(set(keyed)) < len(keyed):
        return lambda node: False
    return lambda node: any(column in columns
                            for column, _ in _equality_shapes(node))


def _truth_valued(node):
    if type(node) is A.BinaryOp:
        return node.op in ("AND", "OR", "=", "<>", "<", ">", "<=", ">=")
    return type(node) in (A.IsNull, A.Between, A.InList, A.Like) or (
        type(node) is A.UnaryOp and node.op == "NOT")


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
    walk can satisfy an ORDER BY.  ``samples``: per index column, a value
    of its stored type.  ``operands`` resolve the prefix constants, then
    the low and the high bound, and ``operand_samples`` are the samples
    their values are checked against (:func:`range_scan_ids`).
    """

    __slots__ = ("index_name", "columns", "ordinals", "samples", "n_prefix",
                 "prefix_exprs", "low", "low_incl", "high", "high_incl",
                 "operands", "operand_samples")

    def __init__(self, index, n_prefix, prefix_exprs, bounds, samples):
        self.index_name = index.info.name
        self.columns = index.info.columns
        self.ordinals = index.ordinals
        self.samples = samples
        self.n_prefix = n_prefix
        self.prefix_exprs = tuple(prefix_exprs)
        if bounds is not None:
            self.low, self.low_incl, self.high, self.high_incl = bounds
        else:
            self.low = self.high = None
            self.low_incl = self.high_incl = True
        self.operands = tuple(
            compile_operand(A.Literal(None) if expr is None else expr)
            for expr in (*prefix_exprs, self.low, self.high))
        self.operand_samples = (*samples[:n_prefix],
                                *samples[n_prefix:n_prefix + 1] * 2)

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
        samples = tuple(STORED_SAMPLES[table.schema.column(c).type_name]
                        for c in columns)
        candidates.append(RangeCandidate(index, n_prefix, prefix_exprs, rng,
                                         samples))
    return candidates


def range_scan_ids(index, shape, params, descending=False):
    """Row ids for one resolved ordered-index scan (``IndexRangeScanOp``).

    ``shape`` carries the plan-time scan description (``operands``,
    ``operand_samples``, ``n_prefix``, ``low``/``high`` + inclusivity — a
    :class:`RangeCandidate` or the logical ``IndexRangeScan`` node, which
    share the attribute protocol).  A missing parameter raises, rows or
    no rows.  None when a value is not :func:`keyable`: the caller scans,
    as an unindexed table would.  Else a prefix or bound constant that
    resolves to NULL yields no rows — the conjunct it came from is UNKNOWN
    for every row.
    """
    values = [resolve(params) for resolve in shape.operands]
    for value, sample in zip(values, shape.operand_samples):
        if value is not None and not keyable(value, sample):
            return None
    n = shape.n_prefix
    prefix, (low, high) = values[:n], values[n:]
    if (None in prefix or (low is None) != (shape.low is None)
            or (high is None) != (shape.high is None)):
        return []
    return list(index.scan(prefix, low, high, shape.low_incl,
                           shape.high_incl, descending))


def walked_conjuncts(shape):
    """What an ordered walk (``shape`` as in :func:`range_scan_ids`) over
    keyable values decided: the equality whose constant keys each prefix
    column, each comparison or BETWEEN whose constants are all bounds."""
    prefix = dict(zip(shape.columns, shape.prefix_exprs))
    ranged = shape.columns[shape.n_prefix:shape.n_prefix + 1]
    bound = {">": shape.low, ">=": shape.low, "<": shape.high,
             "<=": shape.high}

    def decides(node):
        for column, constant in _equality_shapes(node):
            return prefix.get(column) is constant
        sides = [constant is bound[op]
                 for column, op, constant in _range_shapes(node)
                 if column in ranged]
        return len(sides) == 1 + (type(node) is A.Between) and all(sides)
    return decides

