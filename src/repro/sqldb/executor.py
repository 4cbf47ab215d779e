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
pair was executed before, under the same options and with no write to a
referenced table committed since, returns its cached rows without
building a plan or touching storage.

The executor is the cache's only caller.  Reads go through one function,
:meth:`Executor.select`, which does exactly one of two things:

* **cache off** — the cached plan runs; no key, no call into the cache;
* **probe → run → store** — one key, one ``lookup`` (a hit returns here:
  no plan, no rows touched), the cache's invalidation epoch read before
  the run, the run, one ``store`` (refused if the epoch moved meanwhile,
  or while a referenced table has uncommitted writes).

:meth:`Executor.cached_select` is the only other read entry: a probe that
executes nothing, for ``EXPLAIN`` (``peek``) and for the batch planner's
probe-ahead.  Writes invalidate when they commit: an auto-committed
statement that changed rows, a multi-row statement's own transaction and
COMMIT each call ``invalidate`` with the tables they made durable;
ROLLBACK calls nothing.  DDL empties the result cache with the plan cache.

An INSERT gets an :class:`_InsertPlan` and an UPDATE / DELETE a
:class:`_WritePlan` in the same cache, and an execution binds parameters
to it.  An UPDATE or DELETE finds its rows through the plan of ``SELECT 1
FROM t WHERE …``, built, cached and replanned as any SELECT's: its base
access operator's candidate search and kernel pick the rows, and the
write changes exactly those.  A write statement's rows succeed or fail
together.  DDL is interpreted directly here.

Every execution returns an :class:`ExecResult` carrying the result rows plus
``rows_touched``, the number of storage rows the statement examined; the
simulated server turns that into database time.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.catalog import IndexInfo, TableSchema, Column
from repro.sqldb.errors import SqlError
from repro.sqldb.expressions import arithmetic
from repro.sqldb.plan import logical as L
from repro.sqldb.plan import plan_select
from repro.sqldb.plan.compile import compile_row
from repro.sqldb.result import ExecResult
from repro.sqldb.storage import Table

__all__ = ["ExecResult", "Executor", "HANDLERS", "as_params", "param_types"]

# Cached physical plans per executor; cleared wholesale on overflow (the
# workloads' hot sets are far smaller) and invalidated by catalog changes.
_PLAN_CACHE_LIMIT = 512


def as_params(params):
    """A statement's parameters as the tuple the engine binds and keys on:
    a tuple as it is (the drivers and the query store send tuples), a list
    copied.  Anything else is refused — ``None`` and scalars are no
    sequence, text would bind one parameter per character, a mapping its
    keys, a set in no order.  The one door a parameter comes in by, so
    SQLite's rule sits here: a NaN binds as NULL."""
    if type(params) is not tuple:
        if isinstance(params, list):
            params = tuple(params)
        elif not isinstance(params, tuple):
            raise SqlError("statement parameters must be a tuple or a list, "
                           f"not {type(params).__name__}")
    for value in params:
        if value != value:  # NaN: no other value differs from itself
            return tuple(None if v != v else v for v in params)
    return params


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
        # AST so the id cannot be reused while the entry lives.  An entry
        # is a hit only under the options it was optimized with (an
        # INSERT's, None, is read without :meth:`plan_for`); DDL
        # empties the cache, and a >2x size shift of a table (the catalog's
        # ``shifted`` set) drops the entries whose plan reads it.
        self._plans = {}
        self._shifted = catalog.shifted
        self.plans_built = 0  # optimize() invocations, for staleness tests
        # Chunks that flowed between the physical operators, summed over
        # every plan execution.
        self.batches_executed = 0

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
        # The epoch from *before* the run: a commit landing inside it gets
        # the store refused, not its pre-commit rows cached as current.
        epoch = cache.epoch
        result = plan.execute(db, params, base_rows)
        cache.store(key, stmt, plan.referenced_tables, result, db, epoch)
        return result

    def cached_select(self, db, stmt, params, peek=False):
        """Probe only: the cached result of a SELECT or None (always None
        while the cache is off).  ``peek`` leaves the counters and the LRU
        order alone (EXPLAIN)."""
        cache = db.result_cache
        if not cache.enabled:
            return None
        return cache.lookup(self._result_key(db, stmt, params), db, peek)

    def _result_key(self, db, stmt, params):
        """The result-cache key.  Neither the catalog nor a size shift is in
        it: DDL empties the cache, and a table shifts only through writes,
        whose commits drop the entries that read it."""
        return (id(stmt), params, param_types(params),
                id(db.optimizer_options))

    def plan_for(self, db, stmt):
        """The cached optimized plan of a SELECT, UPDATE or DELETE."""
        if self._shifted:
            self._drop_shifted()
        options = db.optimizer_options
        entry = self._plans.get(id(stmt))
        if entry is not None and entry[1] is options:
            return entry[2]
        self.plans_built += 1
        plan = (plan_select(db, stmt) if type(stmt) is A.Select
                else _WritePlan(db, stmt))
        return self._cache_plan(stmt, options, plan)

    def _drop_shifted(self):
        """Drop the plans that read a shifted table, forget the shifts."""
        for key, (_, _, plan) in list(self._plans.items()):
            if not self._shifted.isdisjoint(plan.referenced_tables):
                del self._plans[key]
        self._shifted.clear()

    def _cache_plan(self, stmt, options, plan):
        if len(self._plans) >= _PLAN_CACHE_LIMIT:
            self._plans.clear()
        self._plans[id(stmt)] = (stmt, options, plan)
        return plan

    def _catalog_changed(self, db):
        """DDL: every cached plan and result may be stale."""
        self._plans.clear()
        db.result_cache.clear()

    # -- DDL and transaction control ------------------------------------------

    def _exec_create_table(self, db, stmt, params):
        columns = [
            Column(c.name, c.type_name, c.primary_key, c.not_null)
            for c in stmt.columns
        ]
        schema = TableSchema(stmt.name, columns)
        db.catalog.create_table(schema)
        db.tables[stmt.name] = Table(schema)
        self._catalog_changed(db)
        return ExecResult()

    def _exec_create_index(self, db, stmt, params):
        info = IndexInfo(stmt.name, stmt.table, stmt.columns, stmt.unique,
                         method=stmt.method)
        db.catalog.register_index(info)
        db.tables[stmt.table].add_index(info)
        self._catalog_changed(db)
        return ExecResult()

    def _exec_drop_table(self, db, stmt, params):
        db.catalog.drop_table(stmt.name)
        del db.tables[stmt.name]
        self._catalog_changed(db)
        return ExecResult()

    def _exec_drop_index(self, db, stmt, params):
        info = db.catalog.drop_index(stmt.name)
        db.tables_get(info.table).drop_index(stmt.name)
        self._catalog_changed(db)
        return ExecResult()

    def _exec_truncate(self, db, stmt, params):
        table = db.tables_get(stmt.table)
        removed = table.truncate(db.transactions.undo_log())
        # Emptying a table always invalidates its cardinality picture,
        # even for tables too small to trip the >2x shift rule.
        self._shifted.add(stmt.table)
        if removed and not db.transactions.in_transaction:
            db.result_cache.invalidate((stmt.table,))
        return ExecResult(rowcount=removed, rows_touched=removed)

    def _exec_begin(self, db, stmt, params):
        db.transactions.begin()
        return ExecResult()

    def _exec_commit(self, db, stmt, params):
        _commit(db)
        return ExecResult()

    def _exec_rollback(self, db, stmt, params):
        db.transactions.rollback()
        return ExecResult()

    # -- writes ---------------------------------------------------------------

    def _exec_write(self, db, stmt, params):
        """One INSERT / UPDATE / DELETE: bind its cached plan
        (:class:`_InsertPlan`, :class:`_WritePlan`) to these parameters and
        apply it so that its rows succeed or fail together — a statement
        that raises part-way is undone to the open transaction's
        savepoint, or with the transaction of its own that an
        auto-committed statement over several rows runs in.  What an
        auto-committed statement changed is durable when it returns, so it
        invalidates its table's result-cache entries then."""
        table = db.tables_get(stmt.table)
        inserts = type(stmt) is A.Insert
        if inserts:
            entry = self._plans.get(id(stmt))
            # An INSERT plan holds nothing of statistics or options: only
            # DDL, which empties the cache, makes it stale.
            plan = entry[2] if entry is not None else self._cache_plan(
                stmt, None, _InsertPlan(stmt, table))
            targets = plan.rows
        else:
            plan = self.plan_for(db, stmt)
            source = plan.source
            keep, targets = source.search(table, params)
            touched = len(targets)
            if keep is not None and targets:
                targets = source.narrow(keep, targets, table, params)
        transactions = db.transactions
        own = len(targets) > 1 and not transactions.in_transaction
        if own:
            transactions.begin()
        undo = transactions.undo_log()
        savepoint = 0 if undo is None else len(undo)
        try:
            result = (_insert_rows(plan, table, targets, params, undo)
                      if inserts else
                      _change_rows(plan, table, targets, touched, params,
                                   undo))
        except BaseException:
            if own:
                transactions.rollback()
            elif undo is not None:
                transactions.rollback_to(savepoint)
            raise
        if own:
            _commit(db)
        elif undo is None and result.rowcount:
            db.result_cache.invalidate((stmt.table,))
        return result


# Statement type -> the Executor method that runs it, called with
# ``(executor, db, stmt, params)`` by ``Database.execute_parsed``.
HANDLERS = {
    A.Select: Executor.select,
    A.Insert: Executor._exec_write, A.Update: Executor._exec_write,
    A.Delete: Executor._exec_write,
    A.CreateTable: Executor._exec_create_table,
    A.CreateIndex: Executor._exec_create_index,
    A.DropTable: Executor._exec_drop_table,
    A.DropIndex: Executor._exec_drop_index,
    A.Truncate: Executor._exec_truncate,
    A.Begin: Executor._exec_begin, A.Commit: Executor._exec_commit,
    A.Rollback: Executor._exec_rollback,
}


def _commit(db):
    """COMMIT the open transaction and drop the result-cache entries that
    read a table it wrote."""
    committed = db.transactions.commit()
    if committed:
        db.result_cache.invalidate(committed)


class _InsertPlan:
    """An INSERT's plan: per value row its :class:`_Cells` (arity
    checked).  It reads no table."""

    __slots__ = ("rows", "width", "pk")
    referenced_tables = ()

    def __init__(self, stmt, table):
        schema = table.schema
        columns = stmt.columns or schema.column_names
        ordinals = [schema.ordinal_of(c) for c in columns]
        for value_row in stmt.rows:
            if len(value_row) != len(columns):
                raise SqlError(f"INSERT has {len(columns)} columns but "
                               f"{len(value_row)} values")
        self.rows = [_Cells(zip(ordinals, row), {}) for row in stmt.rows]
        self.width = len(schema.columns)
        self.pk = schema.primary_key


class _WritePlan:
    """An UPDATE or DELETE's plan: ``search``, the physical plan of
    ``SELECT 1 FROM t WHERE …`` over its WHERE, whose base access operator
    (``source``) finds the rows it changes.  The search's tree
    (``search.logical``, which EXPLAIN renders) has the write for its
    root.  UPDATE alone has its SET list as ``assignments``
    (:class:`_Cells`, over the search's row layout) and their ordinal set
    ``assigned``.
    """

    __slots__ = ("search", "source", "referenced_tables", "assignments",
                 "assigned")

    def __init__(self, db, stmt):
        self.search = search = plan_select(db, A.Select(
            _SEARCH_ITEMS, A.TableRef(stmt.table), where=stmt.where))
        self.source = search.source
        self.referenced_tables = search.referenced_tables
        rows = search.logical.child  # below the search's Project
        self.assignments = None
        search.logical = L.Delete(rows, stmt.table)
        if type(stmt) is A.Update:
            schema = search.sctx.schemas[0]
            self.assignments = _Cells(
                ((schema.ordinal_of(c), e) for c, e in stmt.assignments),
                search.sctx.context.positions)
            self.assigned = frozenset(o for o, _ in self.assignments.pairs)
            search.logical = L.Update(rows, stmt.table, stmt.assignments)


# The select list of a write's row search, which reads no column.
_SEARCH_ITEMS = [A.SelectItem(A.Literal(1))]


class _Cells:
    """The ``(ordinal, expr)`` cells of an INSERT value row or a SET list
    over rows laid out as ``positions`` say: a ``Literal``'s value and a
    ``Param``'s index bind as they stand, anything else is computed
    (:func:`_compute`).  ``arity`` counts every parameter bound or read by
    a computed cell; ``lanes`` holds every cell's lane
    (:func:`compile_row`)."""

    __slots__ = ("pairs", "lanes", "consts", "binds", "computed", "arity")

    def __init__(self, pairs, positions):
        self.pairs = pairs = list(pairs)
        self.lanes = lanes = [compile_row(e, positions) for _, e in pairs]
        self.consts = [(o, e.value) for o, e in pairs if type(e) is A.Literal]
        self.binds = [(o, e.index) for o, e in pairs if type(e) is A.Param]
        computed = [(o, *_compute(e, positions, lane))
                    for (o, e), lane in zip(pairs, lanes)
                    if type(e) not in (A.Literal, A.Param)]
        self.computed = [(o, compute) for o, compute, _ in computed]
        self.arity = max([index + 1 for _, index in self.binds]
                         + [arity for _, _, arity in computed], default=0)

    def fill(self, row, source, params):
        """Store each cell's value in ``row``, computed over the stored row
        ``source`` (``()`` for an INSERT).  A direct bind cannot fail; with
        a parameter missing, every cell's lane runs in order so that the
        first error is named."""
        if len(params) < self.arity:
            for (ordinal, _), lane in zip(self.pairs, self.lanes):
                row[ordinal] = lane(source, params)
            return
        for ordinal, value in self.consts:
            row[ordinal] = value
        for ordinal, index in self.binds:
            row[ordinal] = params[index]
        for ordinal, compute in self.computed:
            row[ordinal] = compute(source, params)


def _compute(expr, positions, lane):
    """``(compute(row, params), parameters it reads)``: ``column + - *
    literal-or-parameter`` leaves only the rules to :func:`arithmetic`,
    anything else is the expression's ``lane`` over the row."""
    if type(expr) is A.BinaryOp and expr.op in ("+", "-", "*") and \
            type(expr.left) is A.ColumnRef:
        op, right = expr.op, expr.right
        at = positions.get((expr.left.table, expr.left.column))
        if at is not None and type(right) is A.Literal:
            value = right.value
            return lambda row, _: arithmetic(op, row[at], value), 0
        if at is not None and type(right) is A.Param:
            index = right.index
            return (lambda row, params: arithmetic(
                op, row[at], params[index])), index + 1
    return lane, 0


def _insert_rows(plan, table, rows, params, undo):
    pk = plan.pk
    last_id = None
    for cells in rows:
        full = [None] * plan.width
        cells.fill(full, (), params)
        table.insert_row(full, undo)
        if pk is not None and isinstance(full[pk.ordinal], int):
            last_id = full[pk.ordinal]
    return ExecResult(rowcount=len(rows), rows_touched=len(rows),
                      last_insert_id=last_id)


def _change_rows(plan, table, ids, touched, params, undo):
    """UPDATE, or DELETE (no assignments), the rows ``ids`` that the row
    search kept of the ``touched`` it read (each row is changed once, so
    the rows not yet changed are the ones the search read)."""
    assignments, rows = plan.assignments, table.rows
    for row_id in ids:
        row = rows[row_id]
        if assignments is None:
            table.delete_row(row_id, undo)
        else:
            new_row = list(row)
            assignments.fill(new_row, row, params)
            table.update_row(row_id, new_row, plan.assigned, undo)
    return ExecResult(rowcount=len(ids), rows_touched=touched)
