"""Statement execution facade: parse → plan → optimize → execute.

SELECT statements run through the planner subsystem
(:mod:`repro.sqldb.plan`): the statement is translated to a logical plan,
rewritten by the rule-based optimizer (predicate pushdown, index selection,
join-strategy choice) and lowered to physical operators.
Optimized plans are cached per parsed statement and invalidated when DDL
changes the catalog — parameters never affect plan shape (index-key values
are bound at execution time), so one plan serves every execution of a
prepared statement.  On top of the plan cache sits the database's
cross-request **result cache** (:mod:`repro.sqldb.result_cache`): a SELECT
whose (statement, parameters) pair was executed before, against the same
catalog/stats/options and unchanged write versions of every referenced
table, returns its cached rows without building a plan or touching
storage.

INSERT / UPDATE / DELETE get a :class:`_WritePlan` in the same cache —
whatever depends only on the statement and the schema — and an execution
binds parameters to it; UPDATE/DELETE share the planner's access-path
machinery (:mod:`repro.sqldb.plan.access`) for their candidate-row search.
A write statement's rows succeed or fail together.  DDL is interpreted
directly here.

Every execution returns an :class:`ExecResult` carrying the result rows plus
``rows_touched``, the number of storage rows the statement examined; the
simulated server turns that into database time.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.catalog import IndexInfo, TableSchema, Column
from repro.sqldb.errors import SqlError
from repro.sqldb.expressions import RowContext, evaluate
from repro.sqldb.plan import plan_select
from repro.sqldb.plan.access import (LookupShape, candidate_row_ids,
                                     range_lookup_candidate)
from repro.sqldb.result import ExecResult
from repro.sqldb.storage import Table

__all__ = ["ExecResult", "Executor"]

# Cached physical plans per executor; cleared wholesale on overflow (the
# workloads' hot sets are far smaller) and invalidated by catalog changes.
_PLAN_CACHE_LIMIT = 512


class Executor:
    """Executes AST statements against a database's tables."""

    def __init__(self, database):
        self.db = database
        # id(stmt) -> (stmt, cache key, PhysicalPlan).  The strong
        # reference to ``stmt`` pins the AST so the id cannot be reused
        # while the entry lives.  The cache key combines the catalog
        # version (DDL: table/index create and drop), the catalog's stats
        # epoch (table sizes shifted >2x since the plan was optimized) and
        # the database's optimizer options, so a hit is only possible when
        # the schema, the cardinality picture and the rule set the plan was
        # optimized under all still hold.
        self._plans = {}
        self._catalog_version = 0
        self.plans_built = 0  # optimize() invocations, for staleness tests
        # Chunks that flowed between the physical operators, summed over
        # every plan execution — stays 0 under Database(engine="row"),
        # which is how tests assert which execution path ran.
        self.batches_executed = 0

    def execute(self, stmt, params=()):
        kind = type(stmt)
        if kind is A.Select:
            return self._exec_select(stmt, params)
        if kind is A.Insert or kind is A.Update or kind is A.Delete:
            return self._exec_write(stmt, params)
        if kind is A.CreateTable:
            return self._exec_create_table(stmt)
        if kind is A.CreateIndex:
            return self._exec_create_index(stmt)
        if kind is A.DropTable:
            self.db.catalog.drop_table(stmt.name)
            del self.db.tables[stmt.name]
            self._invalidate_plans()
            return ExecResult()
        if kind is A.DropIndex:
            info = self.db.catalog.drop_index(stmt.name)
            self.db.tables_get(info.table).drop_index(stmt.name)
            self._invalidate_plans()
            return ExecResult()
        if kind is A.Truncate:
            self.db.read_views.before_write(stmt.table)
            table = self.db.tables_get(stmt.table)
            removed = table.truncate(self.db.transactions.undo_log())
            # Emptying a table always invalidates the cardinality picture,
            # even for tables too small to trip the >2x epoch heuristic.
            self.db.catalog.stats_epoch.bump()
            return ExecResult(rowcount=removed, rows_touched=removed)
        if kind is A.Begin:
            self.db.transactions.begin()
            return ExecResult()
        if kind is A.Commit:
            self.db.transactions.commit()
            return ExecResult()
        if kind is A.Rollback:
            self.db.transactions.rollback()
            return ExecResult()
        raise SqlError(f"cannot execute statement {stmt!r}")

    # -- SELECT: the plan pipeline --------------------------------------------

    def _exec_select(self, stmt, params):
        cached = self.cached_select(stmt, params)
        if cached is not None:
            return cached
        return self.execute_select(stmt, params)

    def execute_select(self, stmt, params):
        """Plan, execute and cache-store one SELECT, *without* probing the
        result cache first — for callers that already probed (the batch
        shared-scan planner), so a miss is counted exactly once."""
        plan = self.plan_for(stmt)
        view = self.db.read_views.active
        if view is not None:
            stale = view.stale_tables(plan.referenced_tables, self.db)
            if stale:
                # Snapshot read: execute against the frozen state and keep
                # the rows out of the result cache (they are correct for
                # this view's versions, not the live ones).
                with self.db.read_views.reading(stale):
                    return plan.execute(self.db, params)
        # Snapshot the referenced tables' write versions *before* running:
        # if a commit lands mid-execution, the store below must be refused
        # rather than caching pre-commit rows against post-commit versions.
        expected = self.db.result_cache.version_snapshot(
            self.db, plan.referenced_tables)
        result = plan.execute(self.db, params)
        self.store_select(stmt, params, plan, result,
                          expected_versions=expected)
        return result

    # -- the cross-request result cache ---------------------------------------

    def result_key(self, stmt, params):
        """The result-cache key for one SELECT execution: the plan-cache
        key components plus the parameter tuple (parameters decide the
        rows even though they never decide the plan)."""
        return (id(stmt), tuple(params), self._catalog_version,
                self.db.catalog.stats_epoch.value,
                id(self.db.optimizer_options))

    def cached_select(self, stmt, params, peek=False):
        """Probe the database's result cache for a SELECT; None on miss.

        A hit needs no plan (``plans_built`` stays flat) and touches no
        storage rows.  Also used directly by the batch shared-scan planner
        so fully cached statements drop out of scan groups.

        View-stale statements never hit: cache entries validate against
        *live* versions, so a hit would hand a snapshot reader rows from
        the future.
        """
        view = self.db.read_views.active
        if view is not None:
            try:
                plan = self.plan_for(stmt)
            except SqlError:
                return None
            if view.stale_tables(plan.referenced_tables, self.db):
                return None
        return self.db.result_cache.lookup(
            self.result_key(stmt, params), self.db, peek=peek)

    def store_select(self, stmt, params, plan, result,
                     expected_versions=None):
        """Record a freshly executed SELECT in the result cache."""
        view = self.db.read_views.active
        if view is not None and view.stale_tables(
                plan.referenced_tables, self.db):
            return  # snapshot-relative rows must not validate as current
        self.db.result_cache.store(
            self.result_key(stmt, params), stmt, plan.referenced_tables,
            result, self.db, expected_versions=expected_versions)

    def plan_for(self, stmt):
        """The cached optimized physical plan for a SELECT statement."""
        key = (self._catalog_version, self.db.catalog.stats_epoch.value,
               self.db.optimizer_options)
        entry = self._plans.get(id(stmt))
        if entry is not None and entry[1] == key:
            return entry[2]
        self.plans_built += 1
        return self._cache_plan(stmt, key, plan_select(self.db, stmt))

    def _cache_plan(self, stmt, key, plan):
        if len(self._plans) >= _PLAN_CACHE_LIMIT:
            self._plans.clear()
        self._plans[id(stmt)] = (stmt, key, plan)
        return plan

    def _invalidate_plans(self):
        self._catalog_version += 1
        self._plans.clear()

    # -- DDL ------------------------------------------------------------------

    def _exec_create_table(self, stmt):
        columns = [
            Column(c.name, c.type_name, c.primary_key, c.not_null)
            for c in stmt.columns
        ]
        schema = TableSchema(stmt.name, columns)
        self.db.catalog.create_table(schema)
        self.db.tables[stmt.name] = Table(schema)
        self._invalidate_plans()
        return ExecResult()

    def _exec_create_index(self, stmt):
        info = IndexInfo(stmt.name, stmt.table, stmt.columns, stmt.unique,
                         method=stmt.method)
        self.db.catalog.register_index(info)
        self.db.tables[stmt.table].add_index(info)
        self._invalidate_plans()
        return ExecResult()

    # -- writes ---------------------------------------------------------------

    def _exec_write(self, stmt, params):
        """One INSERT / UPDATE / DELETE: bind its cached :class:`_WritePlan`
        to these parameters and apply it so that its rows succeed or fail
        together — a statement that raises part-way is undone to the open
        transaction's savepoint, or with the transaction of its own that an
        auto-committed statement over several rows runs in."""
        self.db.read_views.before_write(stmt.table)
        table = self.db.tables_get(stmt.table)
        entry = self._plans.get(id(stmt))
        # A write plan holds nothing of statistics or options: it is stale
        # only after DDL, which empties the cache, so it needs no key.
        plan = entry[2] if entry is not None else self._cache_plan(
            stmt, None, _WritePlan(stmt, table))
        if plan.rows is not None:
            apply, targets = _insert_rows, plan.rows
        else:
            apply, targets = _change_rows, candidate_row_ids(
                table, plan.shape, plan.ranged, params)
        transactions = self.db.transactions
        own = len(targets) > 1 and not transactions.in_transaction
        if own:
            transactions.begin()
        undo = transactions.undo_log()
        savepoint = 0 if undo is None else len(undo)
        try:
            result = apply(plan, table, targets, params, undo)
        except BaseException:
            if own:
                transactions.rollback()
            elif undo is not None:
                transactions.rollback_to(savepoint)
            raise
        if own:
            transactions.commit()
        return result


class _WritePlan:
    """What an INSERT / UPDATE / DELETE needs of its statement and schema,
    resolved once and cached beside the SELECT plans.  An execution binds
    parameters and does the per-row work: the candidate search (a NULL or
    missing key drops out, an unhashable one raises, per execution), the
    full-WHERE re-check of every candidate, assignment evaluation, undo.

    INSERT: ``rows`` holds, per value row, its ``(ordinal, expr)`` pairs
    (arity checked).  UPDATE / DELETE: ``rows`` is None; ``ctx`` resolves
    the table's columns, ``shape`` / ``ranged`` are the WHERE's
    :class:`LookupShape` and :func:`range_lookup_candidate`; UPDATE alone
    has ``(ordinal, expr)`` ``assignments`` and their ordinal set
    ``assigned``.
    """

    __slots__ = ("rows", "width", "pk", "where", "ctx", "shape", "ranged",
                 "assignments", "assigned")

    def __init__(self, stmt, table):
        schema = table.schema
        self.rows = self.assignments = None
        if type(stmt) is A.Insert:
            columns = stmt.columns or schema.column_names
            ordinals = [schema.ordinal_of(c) for c in columns]
            for value_row in stmt.rows:
                if len(value_row) != len(columns):
                    raise SqlError(
                        f"INSERT has {len(columns)} columns but "
                        f"{len(value_row)} values")
            self.rows = [list(zip(ordinals, row)) for row in stmt.rows]
            self.width = len(schema.columns)
            self.pk = schema.primary_key
            return
        self.where = stmt.where
        self.ctx = _single_table_context(schema, stmt.table)
        self.shape = LookupShape(stmt.where)
        self.ranged = range_lookup_candidate(table, stmt.where)
        if type(stmt) is A.Update:
            self.assignments = [(schema.ordinal_of(c), e)
                                for c, e in stmt.assignments]
            self.assigned = frozenset(o for o, _ in self.assignments)


def _insert_rows(plan, table, rows, params, undo):
    empty_ctx = RowContext({}).bind(())
    pk = plan.pk
    last_id = None
    for pairs in rows:
        full = [None] * plan.width
        for ordinal, expr in pairs:
            full[ordinal] = evaluate(expr, empty_ctx, params)
        table.insert_row(full, undo)
        if pk is not None and isinstance(full[pk.ordinal], int):
            last_id = full[pk.ordinal]
    return ExecResult(rowcount=len(rows), rows_touched=len(rows),
                      last_insert_id=last_id)


def _change_rows(plan, table, row_ids, params, undo):
    """UPDATE, or DELETE (no assignments), every candidate row the full
    WHERE holds for."""
    ctx, where, assignments = plan.ctx, plan.where, plan.assignments
    changed = 0
    for row_id in row_ids:
        row = table.rows.get(row_id)
        if row is None:
            continue
        ctx.bind(row)
        if where is not None and evaluate(where, ctx, params) is not True:
            continue
        if assignments is None:
            table.delete_row(row_id, undo)
        else:
            new_row = list(row)
            for ordinal, expr in assignments:
                new_row[ordinal] = evaluate(expr, ctx, params)
            table.update_row(row_id, new_row, plan.assigned, undo)
        changed += 1
    return ExecResult(rowcount=changed, rows_touched=len(row_ids))


def _single_table_context(schema, table_name):
    """A RowContext for statements over a single unaliased table."""
    positions = {}
    for col in schema.columns:
        positions[(table_name, col.name)] = col.ordinal
        positions[(None, col.name)] = col.ordinal
    return RowContext(positions)
