"""Top-level database facade.

:class:`Database` owns the catalog, table storage, the transaction manager
and the executor, and exposes ``execute(sql, params)`` plus convenience
helpers.  It also keeps one cumulative counter, ``total_rows_touched``.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.catalog import Catalog
from repro.sqldb.errors import CatalogError, SqlError
from repro.sqldb.executor import HANDLERS, Executor, as_params
from repro.sqldb.lexer import split_statements
from repro.sqldb.parser import parse
from repro.sqldb.plan import explain
from repro.sqldb.result_cache import DEFAULT_RESULT_CACHE_LIMIT, ResultCache
from repro.sqldb.transactions import TransactionManager


class Database:
    """An embedded in-memory relational database.

    ``optimizer_options`` (an
    :class:`repro.sqldb.plan.optimizer.OptimizerOptions`, None for the
    defaults) gates the cost-based rules with two switches,
    ``cost_based_joins`` and ``ordered_access`` — pass
    ``FROM_ORDER_OPTIONS`` (both off) for the rule-free planner (joins in FROM
    order, sequential scans under joins, no range scan or sort elision),
    the baseline the differential join oracle measures against.

    ``result_cache_size`` bounds the cross-request result cache
    (:mod:`repro.sqldb.result_cache`); pass ``0`` to disable caching
    entirely (differential baselines, re-execution-counting tests).

    There is one execution engine: operators exchange :class:`ColumnChunk`
    column arrays with selection vectors and fused predicate/projection
    loops (see :mod:`repro.sqldb.columnar`).  ``ENGINES`` and ``engine``
    say so to callers written when a second, row-at-a-time engine could
    be chosen (``perfbench`` re-runs its checks on every entry of
    ``ENGINES``): none is offered beside it.
    """

    ENGINES = ()
    engine = "columnar"

    def __init__(self, name="main", optimizer_options=None,
                 result_cache_size=DEFAULT_RESULT_CACHE_LIMIT):
        self.name = name
        self.catalog = Catalog()
        self.tables = {}
        self.transactions = TransactionManager()
        self.optimizer_options = optimizer_options
        self.result_cache = ResultCache(result_cache_size)
        self.executor = Executor(self.catalog)
        self.total_rows_touched = 0

    def tables_get(self, name):
        table = self.tables.get(name)
        if table is None:
            raise CatalogError(f"no such table: {name!r}")
        return table

    def execute(self, sql, params=()):
        """Parse and execute one SQL statement; returns :class:`ExecResult`."""
        return self.execute_parsed(parse(sql), params)

    def execute_parsed(self, stmt, params=()):
        """Execute an already-parsed statement, with counter bookkeeping.

        ``params`` go through :func:`~repro.sqldb.executor.as_params`, the
        one door a parameter comes in by, and the statement to the
        executor's handler of its type (``executor.HANDLERS``; a SELECT's
        is ``Executor.select``).  The batch planner uses this to
        run statements it has already classified without re-parsing or
        duplicating the accounting.
        """
        try:
            handler = HANDLERS[type(stmt)]
        except KeyError:
            raise SqlError(f"cannot execute statement {stmt!r}") from None
        result = handler(self.executor, self, stmt, as_params(params))
        self.total_rows_touched += result.rows_touched
        return result

    def execute_script(self, script):
        """Execute a semicolon-separated list of statements (DDL helper)."""
        return [self.execute(piece) for piece in split_statements(script)]

    def query(self, sql, params=()):
        """Execute a SELECT and return rows as a list of dicts."""
        result = self.execute(sql, params)
        return [dict(zip(result.columns, row)) for row in result.rows]

    def explain(self, sql, params=None, analyze=False):
        """The plan a statement executes, as an indented tree — join order
        (tree nesting), join strategy (hash / index / nested) and per-node
        cost estimates included.  It is the executor's cached plan
        (``Executor.plan_for``: built and cached on a miss, exactly as an
        execution would), rendered from the optimized logical tree it was
        lowered from — never a second planning of the statement.

        With ``params`` the output gains a trailing ``ResultCache`` line
        reporting whether this exact (statement, parameters) execution
        would currently be served from the cross-request result cache,
        plus the cache's cumulative counters, and an ``Engine`` line with
        the chunks executed so far; the probe is side-effect free
        (counters and LRU order stay untouched).

        With ``analyze=True`` the plan is **executed** (with ``params`` or
        none) under an ``EXPLAIN ANALYZE`` header, and each line of the
        same tree ends in ``actual [...]``: produced rows, their q-error
        against the line's estimate, chunk counts and inclusive wall time
        — the profiling surface.  The analyze run bypasses the result
        cache and statement counters: it measures the plan, it doesn't
        count as workload.

        An UPDATE or DELETE renders the plan of its row search under an
        ``Update`` / ``Delete`` root line (no ResultCache line); EXPLAIN
        ANALYZE runs that search and changes nothing.  For INSERT and DDL,
        returns the statement repr.
        """
        stmt = parse(sql)
        select = type(stmt) is A.Select
        if not select and type(stmt) not in (A.Update, A.Delete):
            return repr(stmt)
        if params is not None:
            params = as_params(params)
        plan = self.executor.plan_for(self, stmt)
        if not select:
            plan = plan.search
        if analyze:
            _, lines = plan.execute_analyze(self, params or ())
            return "\n".join(lines)
        rendered = explain(plan.logical)
        if params is not None and select:
            status = ("hit" if self.executor.cached_select(
                self, stmt, params, peek=True) is not None else "miss")
            cache = self.result_cache
            rendered += (
                f"\nResultCache [status={status!r}, hits={cache.hits}, "
                f"misses={cache.misses}, "
                f"invalidations={cache.invalidations}]")
            rendered += (
                f"\nEngine [batches_executed="
                f"{self.executor.batches_executed}]")
        return rendered

    def result_cache_stats(self):
        """Hit/miss/invalidation/store counters for the cross-request
        result cache (plus current size)."""
        return self.result_cache.stats()

    def engine_stats(self):
        """How much work the engine has done: ``batches_executed`` counts
        every chunk that flowed between the operators, ``plans_built``
        every plan the optimizer built."""
        return {
            "batches_executed": self.executor.batches_executed,
            "plans_built": self.executor.plans_built,
        }

    def table_size(self, name):
        return len(self.tables_get(name))

    def snapshot_counts(self):
        """Row count per table — used by tests and by database-scaling
        experiments to confirm dataset sizes."""
        return {name: len(table) for name, table in sorted(
            self.tables.items())}
