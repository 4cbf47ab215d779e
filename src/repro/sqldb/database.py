"""Top-level database facade.

:class:`Database` owns the catalog, table storage, the transaction manager
and the executor, and exposes ``execute(sql, params)`` plus convenience
helpers.  It also keeps cumulative counters (statements executed, rows
touched) that the simulated server reads for its cost model.
"""

from repro.sqldb.catalog import Catalog
from repro.sqldb.errors import CatalogError
from repro.sqldb.executor import Executor, as_params
from repro.sqldb.lexer import split_statements
from repro.sqldb.parser import parse
from repro.sqldb.read_view import ReadViewManager
from repro.sqldb.result_cache import DEFAULT_RESULT_CACHE_LIMIT, ResultCache
from repro.sqldb.transactions import TransactionManager


class Database:
    """An embedded in-memory relational database.

    ``optimizer_options`` (an
    :class:`repro.sqldb.plan.optimizer.OptimizerOptions`, None for the
    defaults) gates the cost-based rules — pass
    ``FROM_ORDER_OPTIONS`` to get PR-1 behaviour (joins in FROM order,
    sequential scans under joins), the baseline the differential join
    oracle measures against.

    ``result_cache_size`` bounds the cross-request result cache
    (:mod:`repro.sqldb.result_cache`); pass ``0`` to disable caching
    entirely (differential baselines, re-execution-counting tests).

    ``engine`` selects the physical execution engine, one of
    :attr:`ENGINES`: the first entry (the default) is the production
    engine, exchanging :class:`ColumnChunk` column arrays with selection
    vectors and fused predicate/projection loops (see
    :mod:`repro.sqldb.columnar`); ``"row"`` is the interpreted
    row-at-a-time pull, kept as the reference the differential oracles
    compare against.  Results and ``rows_touched`` are identical under
    both — only real wall-clock time differs.  The attribute may be
    flipped between statements (an unknown name raises ``ValueError``);
    cached plans carry both paths.
    """

    ENGINES = ("columnar", "row")

    #: the server's shared-scan batch planner drives ``executor`` directly.
    supports_batch_plan = True

    def __init__(self, name="main", optimizer_options=None,
                 result_cache_size=DEFAULT_RESULT_CACHE_LIMIT,
                 engine=None):
        self.engine = self.ENGINES[0] if engine is None else engine
        self.name = name
        self.catalog = Catalog()
        self.tables = {}
        self.transactions = TransactionManager()
        self.optimizer_options = optimizer_options
        self.result_cache = ResultCache(result_cache_size)
        self.read_views = ReadViewManager(self)
        self.executor = Executor(self)
        self.statements_executed = 0
        self.total_rows_touched = 0

    @property
    def engine(self):
        return self._engine

    @engine.setter
    def engine(self, name):
        if name not in self.ENGINES:
            raise ValueError(
                f"unknown engine {name!r}; expected one of "
                + ", ".join(repr(e) for e in self.ENGINES))
        self._engine = name

    @property
    def planner_backend(self):
        """The database statements are planned against (itself; a sharded
        facade names one of its primaries)."""
        return self

    def tables_get(self, name):
        table = self.tables.get(name)
        if table is None:
            raise CatalogError(f"no such table: {name!r}")
        return table

    @property
    def active_read_view(self):
        """The request read view SELECTs currently execute under, or None
        (see :mod:`repro.sqldb.read_view`)."""
        return self.read_views.active

    def execute(self, sql, params=()):
        """Parse and execute one SQL statement; returns :class:`ExecResult`."""
        return self.execute_parsed(parse(sql), params)

    def execute_parsed(self, stmt, params=()):
        """Execute an already-parsed statement, with counter bookkeeping.

        The one place a statement's ``params`` are normalised
        (:func:`~repro.sqldb.executor.as_params`: a tuple passes untouched,
        a list is copied, anything else raises :class:`SqlError`).  The
        batch planner uses this to run statements it has already
        classified without re-parsing or duplicating the accounting.
        """
        result = self.executor.execute(stmt, as_params(params))
        self.record_statement(result.rows_touched)
        return result

    def record_statement(self, rows_touched):
        """The single home for per-statement counter bookkeeping.

        Also called directly by the batch planner for shared-scan group
        members, whose row charge is attributed to the group's one scan
        rather than re-counted per member.
        """
        self.statements_executed += 1
        self.total_rows_touched += rows_touched

    def execute_script(self, script):
        """Execute a semicolon-separated list of statements (DDL helper)."""
        return [self.execute(piece) for piece in split_statements(script)]

    def query(self, sql, params=()):
        """Execute a SELECT and return rows as a list of dicts."""
        result = self.execute(sql, params)
        return [dict(zip(result.columns, row)) for row in result.rows]

    def explain(self, sql, params=None, analyze=False):
        """The optimized logical plan for a SELECT, as an indented tree —
        join order (tree nesting), join strategy (hash / index / nested)
        and per-node cost estimates included.

        With ``params`` the output gains a trailing ``ResultCache`` line
        reporting whether this exact (statement, parameters) execution
        would currently be served from the cross-request result cache,
        plus the cache's cumulative counters, and an ``Engine`` line
        naming the active execution engine; the probe is side-effect free
        (counters and LRU order stay untouched).

        With ``analyze=True`` the plan is **executed** (with ``params`` or
        none) and each physical operator line is annotated with its
        produced-row count and inclusive wall time — the EXPLAIN ANALYZE
        profiling surface.  The analyze run bypasses the result cache and
        statement counters: it measures the plan, it doesn't count as
        workload.

        For non-SELECT statements, returns the statement repr.
        """
        # Cold path: EXPLAIN is a diagnostic, never on a statement's path.
        from repro.sqldb import ast_nodes as A
        from repro.sqldb.plan import build_select_plan, explain, optimize

        stmt = parse(sql)
        if not isinstance(stmt, A.Select):
            return repr(stmt)
        if params is not None:
            params = as_params(params)
        if analyze:
            plan = self.executor.plan_for(stmt)
            _, lines = plan.execute_analyze(self, params or ())
            return "\n".join(lines)
        logical, sctx = build_select_plan(self, stmt)
        rendered = explain(optimize(logical, sctx, self))
        if params is not None:
            status = ("hit" if self.executor.cached_select(
                stmt, params, peek=True) is not None else "miss")
            cache = self.result_cache
            rendered += (
                f"\nResultCache [status={status!r}, hits={cache.hits}, "
                f"misses={cache.misses}, "
                f"invalidations={cache.invalidations}]")
            rendered += (
                f"\nEngine [name={self.engine!r}, "
                f"batches_executed={self.executor.batches_executed}]")
        return rendered

    def result_cache_stats(self):
        """Hit/miss/invalidation/store counters for the cross-request
        result cache (plus current size)."""
        return self.result_cache.stats()

    def engine_stats(self):
        """Which execution engine is active and how much work it has done:
        ``batches_executed`` counts every chunk that flowed between the
        operators (0 forever under the row engine), so tests and
        benchmarks can assert which path actually ran."""
        return {
            "engine": self.engine,
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
