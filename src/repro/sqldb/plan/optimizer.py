"""Rule-based, cost-aware logical optimizer.

Rule families run in order:

1. **Join reordering** — the inner-join chain is re-sequenced greedily
   (smallest estimated intermediate first) using the cost model
   (:mod:`repro.sqldb.plan.cost`) over live catalog statistics.  LEFT joins
   are barriers: tables are never reordered across an outer join, only
   within maximal runs of INNER joins (and the base table participates in
   the first run).  The greedy order is kept only when its estimated
   rows-touched beats the FROM order.  Gated by
   ``OptimizerOptions.cost_based_joins``.
2. **Predicate pushdown** — single-table conjuncts of the WHERE clause move
   to where that table enters the plan: conjuncts over the (possibly
   reordered) base table drop below the join chain, conjuncts over an
   INNER-joined table merge into that join's ON condition.  Conjuncts over
   LEFT-joined tables must stay above the chain (WHERE filters after
   NULL-extension), as must multi-table, ambiguous or aggregate conjuncts.
3. **Access-path selection** — a ``Filter(Scan)`` whose predicate pins the
   primary key or a secondary index becomes ``Filter(IndexLookup)``.  The
   rule also applies to the base access *below* joins (gated by
   ``cost_based_joins``); the final index decision still happens at
   execution time against actual parameter values.
4. **Ordered access + order propagation** — the chain's base access is
   compared against the table's ordered indexes: an equality prefix plus a
   range conjunct (``BETWEEN``/``<``/``<=``/``>``/``>=``) over an index's
   columns becomes an ``IndexRangeScan`` when its estimated rows-touched
   beats the current access, and when the scan's key order (after constant
   equality-pinned columns) covers the statement's ORDER BY — every join
   operator preserves its left input's order, so base-table order survives
   the chain — the ``Sort`` node is **elided** and the scan direction set
   from the ORDER BY.  Gated by ``OptimizerOptions.ordered_access``.
5. **Join-strategy choice** — equi joins compare an index nested-loop probe
   (per-left-row PK/secondary-index lookup) against a hash build and keep
   the cheaper estimate (the probe only under ``cost_based_joins``);
   non-equi joins fall back to a nested loop.  For
   INNER joins an ON condition with extra conjuncts is split into the equi
   key plus a residual filter above the join; LEFT joins keep their whole
   ON condition (matching decides NULL-extension, so it cannot be split)
   and use hash/index only when the ON is exactly one equality.

The pass doubles as the cost annotator: every row-source node gets the
``estimate`` that ``explain`` renders.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.expressions import conjoin, split_conjuncts
from repro.sqldb.plan import cost as C
from repro.sqldb.plan import logical as L
from repro.sqldb.plan.access import (
    IndexProbe,
    ordered_scan_candidates,
    pinned_columns,
)
from repro.sqldb.plan.planner import contains_aggregate, order_by_position


class OptimizerOptions:
    """Feature gates for the cost-based rules.

    ``cost_based_joins`` gates join reordering, index nested-loop joins and
    index access to the base table under a join; ``ordered_access`` gates
    ordered-index range scans and sort elision.  ``FROM_ORDER_OPTIONS``
    turns both off and reproduces the rule-free planner exactly: joins execute
    in FROM order, base scans under joins stay sequential, equi joins only
    ever hash — the baseline the differential join oracle and the
    rows-touched benchmarks compare against.
    """

    __slots__ = ("cost_based_joins", "ordered_access")

    def __init__(self, cost_based_joins=True, ordered_access=True):
        self.cost_based_joins = cost_based_joins
        self.ordered_access = ordered_access


DEFAULT_OPTIONS = OptimizerOptions()
FROM_ORDER_OPTIONS = OptimizerOptions(cost_based_joins=False,
                                      ordered_access=False)


def optimize(node, sctx, db, options=None):
    """Apply all rewrite rules to a canonical logical plan."""
    if options is None:
        options = db.optimizer_options or DEFAULT_OPTIONS
    if options.cost_based_joins:
        node = reorder_joins(node, sctx, db, options)
    node = push_down_predicates(node, sctx)
    node = select_access_path(node, sctx, db, options)
    if options.ordered_access:
        node = select_ordered_access(node, sctx, db)
    node = choose_join_strategies(node, sctx, db, options)
    return node


# ---------------------------------------------------------------------------
# Shared chain helpers
# ---------------------------------------------------------------------------

def _row_source_top(root):
    """The node directly above the row-source region (Project/Aggregate)."""
    node = root
    while not isinstance(node, (L.Project, L.Aggregate)):
        node = node.child
    return node


def _chain_nodes(top):
    """Decompose a row-source region into (filter, joins top-down, base)."""
    where_filter = top if isinstance(top, L.Filter) else None
    node = where_filter.child if where_filter is not None else top
    joins = []
    while isinstance(node, L.Join):
        joins.append(node)
        node = node.child
    return where_filter, joins, node


def _single_table_of(conjunct, sctx):
    """The one table index a conjunct references, ``-1`` for reference-free
    conjuncts, or None when it spans tables / is ambiguous / aggregates."""
    if contains_aggregate(conjunct):
        return None
    tables = C.conjunct_tables(sctx, conjunct)
    if not tables:
        return -1
    if None in tables or len(tables) > 1:
        return None
    return tables.pop()


# ---------------------------------------------------------------------------
# Rule 1: cost-based join reordering
# ---------------------------------------------------------------------------

def reorder_joins(node, sctx, db, options):
    """Reorder maximal INNER-join runs by the greedy smallest-intermediate
    heuristic; keep the FROM order when it is estimated no worse."""
    top = _row_source_top(node)
    where_filter, joins, base = _chain_nodes(top.child)
    if len(joins) < 1 or not isinstance(base, L.Scan):
        return node

    # Bottom-up chain entries: (table_index, kind, condition).
    entries = [(base.table_index, "BASE", None)]
    for join in reversed(joins):
        entries.append((join.table_index, join.kind, join.condition))

    where_by_table = {}
    if where_filter is not None:
        for conjunct in split_conjuncts(where_filter.predicate):
            t = _single_table_of(conjunct, sctx)
            if t is not None and t >= 0:
                where_by_table.setdefault(t, []).append(conjunct)

    new_entries = _reorder_entries(entries, sctx, db, options, where_by_table)
    if new_entries is None or [e[0] for e in new_entries] == [
            e[0] for e in entries]:
        return node

    # Rebuild the chain bottom-up in the new order.
    first = new_entries[0]
    table_ref = sctx.tables[first[0]]
    chain = L.Scan(first[0], table_ref.name, table_ref.alias)
    if first[2] is not None:
        chain = L.Filter(chain, first[2])
    for table_index, kind, condition in new_entries[1:]:
        table_ref = sctx.tables[table_index]
        chain = L.Join(kind, chain, table_index, table_ref.name,
                       condition if condition is not None else A.Literal(True))
    if where_filter is not None:
        where_filter.child = chain
    else:
        top.child = chain
    return node


def _reorder_entries(entries, sctx, db, options, where_by_table):
    """Reorder INNER runs of a bottom-up entry list; None = keep as is."""
    cond_refs = {}
    for table_index, kind, condition in entries[1:]:
        for conjunct in split_conjuncts(condition):
            refs = _condition_tables(conjunct, sctx)
            if refs is None:
                return None  # unresolvable ON reference: preserve FROM order
            cond_refs[id(conjunct)] = refs

    result = []
    available = set()
    left = C.Estimate(0.0, 0.0)
    original_cost = _order_cost(entries, sctx, db, options, where_by_table)
    i = 0
    while i < len(entries):
        kind = entries[i][1]
        if kind == "LEFT":
            # Outer joins are barriers: the entry stays in place.
            left = _entry_estimate(entries[i], left, sctx, db, options,
                                   where_by_table)
            result.append(entries[i])
            available.add(entries[i][0])
            i += 1
            continue
        run = [entries[i]]
        j = i + 1
        while j < len(entries) and entries[j][1] == "INNER":
            run.append(entries[j])
            j += 1
        if len(run) == 1:
            left = _entry_estimate(run[0], left, sctx, db, options,
                                   where_by_table)
            result.append(run[0])
        else:
            ordered, left = _greedy_run(run, available, left, sctx, db,
                                        options, where_by_table, cond_refs,
                                        first_run=(i == 0))
            if ordered is None:
                return None
            result.extend(ordered)
        available.update(e[0] for e in run)
        i = j
    if [e[0] for e in result] == [e[0] for e in entries]:
        return None
    if left.cost >= original_cost:
        return None  # the greedy order is estimated no better: keep FROM order
    return result


def _condition_tables(conjunct, sctx):
    """Tables referenced by an ON conjunct, or None if any reference is
    ambiguous/unresolvable (reordering must then preserve FROM order)."""
    tables = C.conjunct_tables(sctx, conjunct)
    return None if None in tables else tables


def _best_base_estimate(db, table_name, predicate, options):
    """The cheapest access estimate for a chain base: sequential scan,
    equality index lookup, or (when enabled) an ordered-index range scan.
    Keeps the reorder rule's arithmetic in agreement with the access-path
    rules that later pick the base's actual operator."""
    indexed = bool(predicate is not None and IndexProbe(
        db.tables_get(table_name), predicate).candidates)
    best = C.access_estimate(db, table_name, predicate, indexed)
    if options.ordered_access and predicate is not None:
        for cand in ordered_scan_candidates(db.tables_get(table_name),
                                            predicate):
            if not cand.has_bounds:
                continue
            est = C.range_scan_estimate(db, table_name, cand, predicate)
            if est.cost < best.cost:
                best = est
    return best


def _entry_estimate(entry, left, sctx, db, options, where_by_table):
    """Fold one fixed (non-reordered) chain entry into the running estimate.

    The table's single-table WHERE conjuncts are included in the estimate
    (pushdown will place them) even though this pass does not move them.
    """
    table_index, kind, condition = entry
    own = where_by_table.get(table_index, [])
    if kind == "BASE":
        table_name = sctx.tables[table_index].name
        predicate = conjoin(own + ([condition] if condition is not None
                                   else []))
        return _best_base_estimate(db, table_name, predicate, options)
    merged = condition
    if kind == "INNER" and own:
        merged = conjoin([condition] + own)
    estimate, _, _, _ = C.join_step(db, sctx, left, table_index, merged,
                                    kind)
    return estimate


def _order_cost(entries, sctx, db, options, where_by_table):
    left = C.Estimate(0.0, 0.0)
    for entry in entries:
        left = _entry_estimate(entry, left, sctx, db, options,
                               where_by_table)
    return left.cost


def _greedy_run(run, outer_available, outer_left, sctx, db, options,
                where_by_table, cond_refs, first_run):
    """Greedily order one INNER run (smallest estimated intermediate first).

    Returns ``(entries, estimate)`` where each entry's condition is the
    conjunction of ON conjuncts that become fully bound at that step, or
    ``(None, None)`` when no valid order exists (e.g. an ON condition
    references a table outside the run's reach).
    """
    tables = [e[0] for e in run]
    pool = []
    for table_index, kind, condition in run:
        if condition is not None:
            pool.extend(split_conjuncts(condition))

    best = None
    starts = tables if first_run else [None]
    for start in starts:
        attached = set()
        available = set(outer_available)

        def conjuncts_bound(extra):
            return [c for c in pool if id(c) not in attached
                    and cond_refs[id(c)] <= available | {extra}]

        result = []
        if start is not None:
            own = where_by_table.get(start, [])
            table_name = sctx.tables[start].name
            bound = conjuncts_bound(start)
            estimate_pred = conjoin(own + bound)
            left = _best_base_estimate(db, table_name, estimate_pred,
                                       options)
            attached.update(id(c) for c in bound)
            # Rebuilt base carries only the ON conjuncts bound here; the
            # table's WHERE conjuncts arrive via the pushdown rule.
            result.append((start, "BASE", conjoin(bound)))
            available.add(start)
            remaining = [t for t in tables if t != start]
        else:
            left = outer_left
            remaining = list(tables)

        while remaining:
            candidates = []
            for t in remaining:
                bound = conjuncts_bound(t)
                connected = any(t in cond_refs[id(c)] for c in bound)
                merged = conjoin(bound + where_by_table.get(t, []))
                estimate, _, _, _ = C.join_step(
                    db, sctx, left, t, merged, "INNER")
                candidates.append((not connected, estimate.rows,
                                   estimate.cost, t, bound, estimate))
            candidates.sort(key=lambda c: c[:4])
            _, _, _, t, bound, left = candidates[0]
            result.append((t, "INNER", conjoin(bound)))
            attached.update(id(c) for c in bound)
            available.add(t)
            remaining.remove(t)

        if len(attached) == len(pool):
            if best is None or left.cost < best[1].cost:
                best = (result, left)

    if best is None:
        return None, None
    return best


# ---------------------------------------------------------------------------
# Rule 2: predicate pushdown
# ---------------------------------------------------------------------------

def push_down_predicates(node, sctx):
    """Move single-table conjuncts of the WHERE filter to where their table
    enters the (possibly reordered) join chain."""
    if not sctx.stmt.joins:
        return node  # single-table: the filter already sits on the scan
    top = _row_source_top(node)
    where_filter, joins, base = _chain_nodes(top.child)
    if where_filter is None or not joins:
        return node

    if isinstance(base, L.Filter):  # reorder may have placed a base filter
        base = base.child
    base_index = base.table_index
    inner_joins = {j.table_index: j for j in joins if j.kind == "INNER"}
    pushable_base, residual = [], []
    merged_any = False
    for conjunct in split_conjuncts(where_filter.predicate):
        t = _single_table_of(conjunct, sctx)
        if t == base_index or t == -1:
            pushable_base.append(conjunct)
        elif t in inner_joins:
            join = inner_joins[t]
            join.condition = conjoin([join.condition, conjunct])
            merged_any = True
        else:
            residual.append(conjunct)

    if not pushable_base and not merged_any:
        return node
    if pushable_base:
        _push_onto_base(where_filter.child, conjoin(pushable_base))
    residual_pred = conjoin(residual)
    if residual_pred is None:
        # The WHERE filter dissolved entirely into the chain.
        top.child = where_filter.child
    else:
        where_filter.predicate = residual_pred
    return node


def _push_onto_base(node, predicate):
    """AND ``predicate`` onto the bottom Scan of a join chain (merging with
    a Filter the reorder rule may already have placed there)."""
    while isinstance(node.child, L.Join):
        node = node.child
    bottom = node.child
    if isinstance(bottom, L.Filter):
        bottom.predicate = conjoin([bottom.predicate, predicate])
    else:
        node.child = L.Filter(bottom, predicate)


# ---------------------------------------------------------------------------
# Rule 3: access-path (index) selection
# ---------------------------------------------------------------------------

def select_access_path(node, sctx, db, options):
    """Replace Filter(Scan) with Filter(IndexLookup) when the predicate
    could pin the primary key or a secondary index.

    Applies to single-table plans (as in PR 1) and — when
    ``options.cost_based_joins`` is on — to the base access below a join
    chain, where pushdown has just deposited the base table's conjuncts.
    """
    if sctx.stmt.joins:
        if not options.cost_based_joins:
            return node  # PR-1 cost parity: scans under joins stay sequential
    elif sctx.stmt.where is None:
        return node
    return L.transform_bottom_up(node, lambda n: _to_index_lookup(n, db))


def _to_index_lookup(node, db):
    if not (isinstance(node, L.Filter) and isinstance(node.child, L.Scan)):
        return node
    scan = node.child
    table = db.tables_get(scan.table)
    probe = IndexProbe(table, node.predicate)
    if not probe.candidates:
        return node
    node.child = L.IndexLookup(scan.table_index, scan.table, scan.alias,
                               node.predicate, probe)
    return node


# ---------------------------------------------------------------------------
# Rule 4: ordered access paths + order propagation (sort elision)
# ---------------------------------------------------------------------------

def select_ordered_access(root, sctx, db):
    """Consider the base table's ordered indexes for the chain's access
    path, and elide the Sort when the chosen scan already delivers the
    ORDER BY keys.

    Two wins, evaluated together because they interact: a bounded range
    scan touches only the rows inside the key region (cheaper than both a
    sequential scan and, sometimes, an equality lookup), and a scan whose
    key order covers the ORDER BY makes the explicit sort redundant — the
    row-source operators all preserve their left/child input order, so the
    base table's delivery order survives joins, filters, projection and
    DISTINCT unchanged.
    """
    top = _row_source_top(root)
    where_filter, joins, base = _chain_nodes(top.child)
    if isinstance(base, L.Filter):
        pred_holder, access = base, base.child
    elif not joins:
        pred_holder, access = where_filter, base
    else:
        pred_holder, access = None, base
    if not isinstance(access, (L.Scan, L.IndexLookup)):
        return root
    predicate = pred_holder.predicate if pred_holder is not None else None
    table = db.tables_get(access.table)
    candidates = ordered_scan_candidates(table, predicate)
    if not candidates:
        return root

    order_spec = None
    if isinstance(top, L.Project) and not sctx.stmt.distinct:
        # DISTINCT keeps *first* occurrences before the Sort would have
        # run, so eliding the Sort would change which representative rows
        # (and row order) survive dedup — keep the explicit sort.
        order_spec = _base_order_requirement(sctx, access.table_index)
    pinned_ordinals = {
        table.schema.ordinal_of(c)
        for c in pinned_columns(predicate)
        if table.schema.has_column(c)}

    current = C.access_estimate(db, access.table, predicate,
                                indexed=isinstance(access, L.IndexLookup))
    best = None
    for cand in candidates:
        est = C.range_scan_estimate(db, access.table, cand, predicate)
        satisfies = (order_spec is not None
                     and _order_satisfied(cand, pinned_ordinals,
                                          order_spec[0]))
        if cand.has_bounds:
            useful = est.cost < current.cost or (satisfies
                                                 and est.cost <= current.cost)
        else:
            useful = satisfies and est.cost <= current.cost
        if not useful:
            continue
        rank = (est.cost, not satisfies)
        if best is None or rank < best[0]:
            best = (rank, cand, est, satisfies)
    if best is None:
        return root

    _, cand, est, satisfies = best
    scan = L.IndexRangeScan(access.table_index, access.table, access.alias,
                            predicate, cand)
    if pred_holder is not None:
        pred_holder.child = scan
    elif joins:
        joins[-1].child = scan
    else:
        top.child = scan
    if satisfies:
        ordinals, descending = order_spec
        scan.descending = descending
        scan.sort_elided = True
        scan.order_columns = tuple(
            table.schema.columns[o].name for o in ordinals)
        root = _remove_sort(root)
    return root


def _base_order_requirement(sctx, base_table_index):
    """The ORDER BY as base-table column ordinals, or None when any key
    does not resolve to a plain base-table column.

    Mirrors ``SortOp``'s key resolution exactly: an unqualified name that
    matches an output column sorts by that output value (elidable only
    when the output column passes a base column through untouched), an
    integer literal sorts by output position (``order_by_position``, the
    one rule for that: a bool is no position), anything else evaluates
    against the source row.  Mixed ASC/DESC directions cannot be served by
    one index walk, so they disqualify the requirement.
    """
    stmt = sctx.stmt
    if not stmt.order_by:
        return None
    offset = sctx.offsets[base_table_index]
    width = sctx.widths[base_table_index]
    sources, names = _output_passthrough(sctx)
    alias_positions = {name: i for i, name in enumerate(names)}
    ordinals = []
    direction = None
    for item in stmt.order_by:
        expr = item.expr
        if (isinstance(expr, A.ColumnRef) and expr.table is None
                and expr.column in alias_positions):
            pos = sources[alias_positions[expr.column]]
        elif isinstance(expr, A.ColumnRef):
            if expr.table is None and expr.column in sctx.context.ambiguous:
                return None
            pos = sctx.context.positions.get((expr.table, expr.column))
        else:
            index = order_by_position(expr, len(sources))
            if index is None:
                return None
            pos = sources[index]
        if pos is None or not offset <= pos < offset + width:
            return None
        if direction is None:
            direction = item.descending
        elif item.descending != direction:
            return None
        ordinals.append(pos - offset)
    return ordinals, direction


def _output_passthrough(sctx):
    """Per output column: the flat source position it passes through
    unmodified (None for computed expressions), plus the output names."""
    # Cold path (once per plan build): the logical optimizer otherwise
    # loads without the physical layer.
    from repro.sqldb.plan.physical import (_expand_stars, _output_columns,
                                           _output_positions)

    expansions = _expand_stars(sctx.stmt, sctx.context)
    return (_output_positions(sctx.stmt, expansions, sctx.context),
            _output_columns(sctx.stmt, expansions))


def _order_satisfied(cand, pinned_ordinals, order_ordinals):
    """Whether the candidate's key order covers the ORDER BY ordinals.

    Equality-pinned columns are constant across the emitted rows, so an
    ORDER BY key over one is vacuous and skippable; the remaining keys
    must equal the index columns after the equality prefix, in order.
    """
    position = cand.n_prefix
    for ordinal in order_ordinals:
        if (position < len(cand.ordinals)
                and cand.ordinals[position] == ordinal):
            position += 1
            continue
        if ordinal in pinned_ordinals:
            continue
        return False
    return True


def _remove_sort(root):
    """Unlink the Sort node (Limit may sit above it)."""
    if isinstance(root, L.Sort):
        return root.child
    parent = root
    while not isinstance(parent.child, L.Sort):
        parent = parent.child
    parent.child = parent.child.child
    return root


# ---------------------------------------------------------------------------
# Rule 5: join-strategy choice (+ cost annotation)
# ---------------------------------------------------------------------------

def choose_join_strategies(node, sctx, db, options):
    return L.transform_bottom_up(
        node, lambda n: _annotate_node(n, sctx, db, options))


def _annotate_node(node, sctx, db, options):
    """Pick physical join strategies bottom-up, annotating every row-source
    node with its cost estimate along the way."""
    if isinstance(node, L.Scan):
        node.estimate = C.access_estimate(db, node.table, None,
                                          indexed=False)
        return node
    if isinstance(node, L.IndexLookup):
        node.estimate = C.access_estimate(db, node.table, node.where,
                                          indexed=True)
        return node
    if isinstance(node, L.IndexRangeScan):
        node.estimate = C.range_scan_estimate(db, node.table, node,
                                              node.where)
        return node
    if isinstance(node, L.Filter):
        return _annotate_filter(node, sctx, db)
    if not isinstance(node, L.Join):
        return node

    est, strategy, equi, index_name = C.join_step(
        db, sctx, node.child.estimate, node.table_index, node.condition,
        node.kind, allow_index=options.cost_based_joins)
    node.strategy = strategy
    node.equi = equi
    node.index_name = index_name
    node.estimate = est
    if strategy in ("hash", "index") and node.kind == "INNER":
        # Split a conjunctive ON into the equi key plus a residual filter
        # above the join (safe for INNER joins only).
        equi_conjunct = C.find_equi_conjunct(sctx, node.table_index,
                                             node.condition)
        residual = [c for c in split_conjuncts(node.condition)
                    if c is not equi_conjunct[3]]
        if residual:
            node.condition = equi_conjunct[3]
            wrapper = L.Filter(node, conjoin(residual))
            wrapper.estimate = est
            return wrapper
    return node


def _annotate_filter(node, sctx, db):
    child = node.child
    child_est = child.estimate
    if (isinstance(child, (L.IndexLookup, L.IndexRangeScan))
            and child.where is node.predicate):
        node.estimate = child_est  # selectivity already applied
        return node
    t = _single_table_of(node.predicate, sctx)
    table_name = sctx.tables[t].name if t is not None and t >= 0 else None
    sel = C.selectivity(db, table_name, node.predicate)
    rows = child_est.rows * sel
    if child_est.rows > 0:
        rows = max(1.0, rows)
    node.estimate = C.Estimate(rows, child_est.cost)
    return node
