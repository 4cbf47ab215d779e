"""Statement execution facade: parse → plan → optimize → execute.

SELECT statements run through the planner subsystem
(:mod:`repro.sqldb.plan`): the statement is translated to a logical plan,
rewritten by the rule-based optimizer (predicate pushdown, index selection,
join-strategy choice) and lowered to physical operators.
Optimized plans are cached per parsed statement and invalidated by DDL
and by a size shift of a table they read — parameters never affect plan
shape (index-key values are bound at execution time), so one plan serves
every execution of a prepared statement.  On top of the plan cache sits
the database's cross-request **result cache**
(:mod:`repro.sqldb.result_cache`): a SELECT whose (statement, parameters)
pair was executed before, against the same catalog/options and unchanged
write versions of every referenced table, returns its cached rows without
building a plan or touching storage.

The cache protocol lives in one function.  :meth:`Executor.select` does
exactly one of two things:

* **cache off** — the cached plan runs; no key, no version walk, no call
  into the cache;
* **probe → run → store** — one key, one ``lookup`` (a hit returns here:
  no plan, no rows touched), the referenced tables' write versions taken
  before the run, the run, one ``store`` (refused if a version moved
  meanwhile, or while a referenced table has uncommitted writes).

:meth:`Executor.cached_select` is the only other entry: a probe that
executes nothing, for ``EXPLAIN`` (``peek``) and for the batch planner's
probe-ahead.

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
from repro.sqldb.plan.access import (IndexProbe, candidate_rows,
                                     range_lookup_candidate)
from repro.sqldb.result import ExecResult
from repro.sqldb.result_cache import current_versions
from repro.sqldb.storage import Table

__all__ = ["ExecResult", "Executor", "as_params", "param_types"]

# Cached physical plans per executor; cleared wholesale on overflow (the
# workloads' hot sets are far smaller) and invalidated by catalog changes.
_PLAN_CACHE_LIMIT = 512


def as_params(params):
    """A statement's parameters as the tuple the engine binds and keys on:
    a tuple as it is (the drivers and the query store send tuples), a list
    copied.  Anything else is refused — ``None`` and scalars are no
    sequence, text would bind one parameter per character, a mapping its
    keys, a set in no order."""
    if isinstance(params, tuple):
        return params
    if isinstance(params, list):
        return tuple(params)
    raise SqlError("statement parameters must be a tuple or a list, not "
                   f"{type(params).__name__}")


def param_types(params):
    """What a key made of ``params`` carries beside them, since ``1``,
    ``1.0`` and ``True`` are equal but bind differently: None when every
    value is an ``int``, a ``str`` or NULL (no two of those types hold
    equal values), else their types, interned (the first 1 024), so the
    cached keys share one tuple per signature."""
    for value in params:
        if type(value) not in _UNAMBIGUOUS:
            types = tuple(map(type, params))
            if len(_PARAM_TYPES) < 1024:
                return _PARAM_TYPES.setdefault(types, types)
            return _PARAM_TYPES.get(types, types)
    return None


_UNAMBIGUOUS = frozenset((int, str, type(None)))
_PARAM_TYPES = {}


class Executor:
    """Executes AST statements against a database's tables.  It keeps no
    reference to the database, which owns it: each entry takes it first,
    so a dropped database needs no cycle collection to be freed."""

    def __init__(self, catalog):
        # id(stmt) -> (stmt, optimizer options, plan); ``stmt`` pins the
        # AST so the id cannot be reused while the entry lives.  A SELECT
        # entry is a hit only under the options it was optimized with; DDL
        # empties the cache, and a >2x size shift of a table (the catalog's
        # ``shifted`` set) drops the entries whose plan reads it.
        self._plans = {}
        self._shifted = catalog.shifted
        self._catalog_version = 0
        self.plans_built = 0  # optimize() invocations, for staleness tests
        # Chunks that flowed between the physical operators, summed over
        # every plan execution — stays 0 under Database(engine="row"),
        # which is how tests assert which execution path ran.
        self.batches_executed = 0

    def execute(self, db, stmt, params=()):
        kind = type(stmt)
        if kind is A.Select:
            return self.select(db, stmt, params)
        if kind is A.Insert or kind is A.Update or kind is A.Delete:
            return self._exec_write(db, stmt, params)
        if kind is A.CreateTable:
            return self._exec_create_table(db, stmt)
        if kind is A.CreateIndex:
            return self._exec_create_index(db, stmt)
        if kind is A.DropTable:
            db.catalog.drop_table(stmt.name)
            del db.tables[stmt.name]
            self._invalidate_plans()
            return ExecResult()
        if kind is A.DropIndex:
            info = db.catalog.drop_index(stmt.name)
            db.tables_get(info.table).drop_index(stmt.name)
            self._invalidate_plans()
            return ExecResult()
        if kind is A.Truncate:
            table = db.tables_get(stmt.table)
            removed = table.truncate(db.transactions.undo_log())
            # Emptying a table always invalidates its cardinality picture,
            # even for tables too small to trip the >2x shift rule.
            self._shifted.add(stmt.table)
            return ExecResult(rowcount=removed, rows_touched=removed)
        if kind is A.Begin:
            db.transactions.begin()
            return ExecResult()
        if kind is A.Commit:
            db.transactions.commit()
            return ExecResult()
        if kind is A.Rollback:
            db.transactions.rollback()
            return ExecResult()
        raise SqlError(f"cannot execute statement {stmt!r}")

    # -- SELECT: the plan pipeline and the cross-request result cache ---------

    def select(self, db, stmt, params, probe=True, base_rows=None):
        """The one body a SELECT runs through (the module docstring has its
        two paths).  The batch planner, which has probed ahead, passes
        ``probe=False`` so that a miss counts once, and the rows of a scan
        group's shared scan as ``base_rows``."""
        cache = db.result_cache
        if not cache.enabled:
            return self.plan_for(db, stmt).execute(db, params, base_rows)
        key = self._result_key(db, stmt, params)
        cached = cache.lookup(key, db) if probe else None
        if cached is not None:
            return cached
        plan = self.plan_for(db, stmt)
        # Versions from *before* the run: a commit landing inside it gets
        # the store refused, not its pre-commit rows cached as current.
        expected = current_versions(db, plan.referenced_tables)
        result = plan.execute(db, params, base_rows)
        cache.store(key, stmt, plan.referenced_tables, result, db, expected)
        return result

    def cached_select(self, db, stmt, params, peek=False):
        """Probe only: the cached result of a SELECT or None.  ``peek``
        leaves the counters and the LRU order alone (EXPLAIN)."""
        return db.result_cache.lookup(
            self._result_key(db, stmt, params), db, peek=peek)

    def _result_key(self, db, stmt, params):
        """The result-cache key.  No size shift is in it: a table shifts only
        through writes, whose versions retire the entries that read it."""
        return (id(stmt), params, param_types(params), self._catalog_version,
                id(db.optimizer_options))

    def plan_for(self, db, stmt):
        """The cached optimized physical plan for a SELECT statement."""
        if self._shifted:
            self._drop_shifted()
        options = db.optimizer_options
        entry = self._plans.get(id(stmt))
        if entry is not None and entry[1] is options:
            return entry[2]
        self.plans_built += 1
        return self._cache_plan(stmt, options, plan_select(db, stmt))

    def _drop_shifted(self):
        """Drop the SELECT plans that read a shifted table (a write plan
        holds no statistics), then forget the shifts."""
        for key, (_, _, plan) in list(self._plans.items()):
            if type(plan) is not _WritePlan and \
                    not self._shifted.isdisjoint(plan.referenced_tables):
                del self._plans[key]
        self._shifted.clear()

    def _cache_plan(self, stmt, options, plan):
        if len(self._plans) >= _PLAN_CACHE_LIMIT:
            self._plans.clear()
        self._plans[id(stmt)] = (stmt, options, plan)
        return plan

    def _invalidate_plans(self):
        self._catalog_version += 1
        self._plans.clear()

    # -- DDL ------------------------------------------------------------------

    def _exec_create_table(self, db, stmt):
        columns = [
            Column(c.name, c.type_name, c.primary_key, c.not_null)
            for c in stmt.columns
        ]
        schema = TableSchema(stmt.name, columns)
        db.catalog.create_table(schema)
        db.tables[stmt.name] = Table(schema)
        self._invalidate_plans()
        return ExecResult()

    def _exec_create_index(self, db, stmt):
        info = IndexInfo(stmt.name, stmt.table, stmt.columns, stmt.unique,
                         method=stmt.method)
        db.catalog.register_index(info)
        db.tables[stmt.table].add_index(info)
        self._invalidate_plans()
        return ExecResult()

    # -- writes ---------------------------------------------------------------

    def _exec_write(self, db, stmt, params):
        """One INSERT / UPDATE / DELETE: bind its cached :class:`_WritePlan`
        to these parameters and apply it so that its rows succeed or fail
        together — a statement that raises part-way is undone to the open
        transaction's savepoint, or with the transaction of its own that an
        auto-committed statement over several rows runs in."""
        table = db.tables_get(stmt.table)
        entry = self._plans.get(id(stmt))
        # A write plan holds nothing of statistics or options: only DDL,
        # which empties the cache, makes it stale.
        plan = entry[2] if entry is not None else self._cache_plan(
            stmt, None, _WritePlan(stmt, table))
        if plan.rows is not None:
            apply, targets = _insert_rows, plan.rows
        else:
            apply, targets = _change_rows, candidate_rows(
                table, plan.probe, plan.ranged, params)
        transactions = db.transactions
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
    missing key drops out, one its column cannot compare scans, per
    execution), the
    full-WHERE re-check of every candidate, assignment binding, undo.

    INSERT: ``rows`` holds, per value row, its :class:`_Cells` (arity
    checked).  UPDATE / DELETE: ``rows`` is None; ``ctx`` resolves the
    table's columns, ``probe`` / ``ranged`` are the WHERE's
    :class:`IndexProbe` and :func:`range_lookup_candidate`; UPDATE alone
    has its SET list as ``assignments`` (:class:`_Cells`) and their
    ordinal set ``assigned``.
    """

    __slots__ = ("rows", "width", "pk", "where", "ctx", "probe", "ranged",
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
            self.rows = [_Cells(zip(ordinals, row)) for row in stmt.rows]
            self.width = len(schema.columns)
            self.pk = schema.primary_key
            return
        self.where = stmt.where
        self.ctx = _single_table_context(schema, stmt.table)
        self.probe = IndexProbe(table, stmt.where)
        self.ranged = range_lookup_candidate(table, stmt.where)
        if type(stmt) is A.Update:
            self.assignments = _Cells((schema.ordinal_of(c), e)
                                      for c, e in stmt.assignments)
            self.assigned = frozenset(o for o, _ in self.assignments.pairs)


class _Cells:
    """The ``(ordinal, expr)`` cells of an INSERT value row or a SET list:
    a ``Literal``'s value and a ``Param``'s index bind without the
    interpreter, anything else is evaluated."""

    __slots__ = ("pairs", "consts", "binds", "evaluated", "arity")

    def __init__(self, pairs):
        self.pairs = pairs = list(pairs)
        self.consts = [(o, e.value) for o, e in pairs if type(e) is A.Literal]
        self.binds = [(o, e.index) for o, e in pairs if type(e) is A.Param]
        self.evaluated = [(o, e) for o, e in pairs
                          if type(e) not in (A.Literal, A.Param)]
        self.arity = max((index + 1 for _, index in self.binds), default=0)

    def fill(self, row, ctx, params):
        """Store each cell's value in ``row``.  A direct bind cannot fail;
        with a parameter missing, every cell is evaluated in order so that
        the interpreter names the first error."""
        if len(params) < self.arity:
            for ordinal, expr in self.pairs:
                row[ordinal] = evaluate(expr, ctx, params)
            return
        for ordinal, value in self.consts:
            row[ordinal] = value
        for ordinal, index in self.binds:
            row[ordinal] = params[index]
        for ordinal, expr in self.evaluated:
            row[ordinal] = evaluate(expr, ctx, params)


# What an INSERT value is evaluated against: no row, no column.
_NO_ROW = RowContext({}).bind(())


def _insert_rows(plan, table, rows, params, undo):
    pk = plan.pk
    last_id = None
    for cells in rows:
        full = [None] * plan.width
        cells.fill(full, _NO_ROW, params)
        table.insert_row(full, undo)
        if pk is not None and isinstance(full[pk.ordinal], int):
            last_id = full[pk.ordinal]
    return ExecResult(rowcount=len(rows), rows_touched=len(rows),
                      last_insert_id=last_id)


def _change_rows(plan, table, candidates, params, undo):
    """UPDATE, or DELETE (no assignments), every candidate ``(row_id,
    row)`` the full WHERE holds for."""
    ctx, where, assignments = plan.ctx, plan.where, plan.assignments
    changed = 0
    for row_id, row in candidates:
        ctx.bind(row)
        if where is not None and evaluate(where, ctx, params) is not True:
            continue
        if assignments is None:
            table.delete_row(row_id, undo)
        else:
            new_row = list(row)
            assignments.fill(new_row, ctx, params)
            table.update_row(row_id, new_row, plan.assigned, undo)
        changed += 1
    return ExecResult(rowcount=changed, rows_touched=len(candidates))


def _single_table_context(schema, table_name):
    """A RowContext for statements over a single unaliased table."""
    positions = {}
    for col in schema.columns:
        positions[(table_name, col.name)] = col.ordinal
        positions[(None, col.name)] = col.ordinal
    return RowContext(positions)
