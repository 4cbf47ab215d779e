"""The simulated database server.

Wraps one :class:`repro.sqldb.Database` and executes statements shipped over
the simulated network.  A *batch* call executes read statements in parallel
across ``db_workers`` virtual workers (the paper extended the MySQL JDBC
driver so that "once received by the database, our extended driver executes
all read queries in parallel"); write statements serialize.

Virtual database time for a batch is therefore::

    sum(write costs) + parallel_elapsed(read costs, workers)

where ``parallel_elapsed`` assigns reads to the least-loaded worker
(longest-processing-time-first greedy makespan).

**Sharded backends.**  A :class:`repro.sqldb.shard.ShardedDatabase` result
carries ``shard_phases`` — sequential phases of ``(station, rows_touched,
from_cache)`` entries that executed in parallel on distinct backends.  A
statement's cost is then the sum over phases of the ``max()`` over each
phase's per-station costs (parallel service across machines), and batch
reads bucket **per station**: each shard contributes its own read costs to
its own ``db_workers``-wide pool, and the batch's read elapsed time is the
``max()`` across stations — N shards really do serve N× the work in one
shard's time.  Sharded batches always take the direct path (the shared-scan
batch planner needs single-node executor access;
``database.supports_batch_plan`` gates it).

With ``batch_optimize`` the batch takes the **batch-plan path**
(:mod:`repro.sqldb.plan.batch`): union-compatible SELECTs over one table
share a single scan.  A shared group is one job on one worker, charged for
one scan plus one dispatch — not N scans — so the server's total database
time drops whenever the optimizer finds sharing.
"""

from repro.sqldb.parser import is_read_statement
from repro.sqldb.plan.batch import execute_batch_plan


class StatementOutcome:
    """One statement's result plus its virtual execution cost."""

    __slots__ = ("result", "cost_ms", "sql")

    def __init__(self, sql, result, cost_ms):
        self.sql = sql
        self.result = result
        self.cost_ms = cost_ms


class DatabaseServer:
    """Executes statements/batches against the embedded database."""

    def __init__(self, database, cost_model):
        self.database = database
        self.cost_model = cost_model
        self.batches_executed = 0
        self.statements_executed = 0
        self.largest_batch = 0
        self.total_db_time_ms = 0.0
        # Batch-plan path counters (shared-scan optimizer).
        self.shared_scan_groups = 0
        self.shared_scan_rows_saved = 0
        # Cross-request result cache hits served through this server
        # (single statements and batch members alike); the cache itself
        # lives on the database and is shared by every server over it.
        self.result_cache_hits = 0

    def execute_one(self, sql, params=(), read_view=None):
        """Execute a single statement; returns a :class:`StatementOutcome`.

        With ``read_view`` the statement executes under that request's
        snapshot (see :mod:`repro.sqldb.read_view`).
        """
        hits_before = self.database.result_cache.hits
        with self.database.read_views.using(read_view):
            outcome = self._run(sql, params)
        self.result_cache_hits += (
            self.database.result_cache.hits - hits_before)
        self.statements_executed += 1
        self.batches_executed += 1
        self.largest_batch = max(self.largest_batch, 1)
        self.total_db_time_ms += outcome.cost_ms
        return outcome

    def execute_batch(self, statements, batch_optimize=False,
                      read_view=None):
        """Execute ``[(sql, params), ...]`` as one batch.

        Returns ``(outcomes, elapsed_ms)`` where ``elapsed_ms`` models
        parallel execution of reads.  With ``batch_optimize`` the batch
        runs through the shared-scan planner first.  Either path consults
        the database's cross-request result cache per statement: cached
        SELECTs cost zero rows touched and, on the batch-plan path, drop
        out of shared-scan grouping.  With ``read_view`` every statement
        in the batch executes under that request's snapshot.
        """
        hits_before = self.database.result_cache.hits
        with self.database.read_views.using(read_view):
            if batch_optimize and self.database.supports_batch_plan:
                outcomes, elapsed_ms = self._execute_batch_plan(statements)
            else:
                outcomes, elapsed_ms = self._execute_batch_direct(statements)
        self.result_cache_hits += (
            self.database.result_cache.hits - hits_before)
        self.batches_executed += 1
        self.statements_executed += len(statements)
        self.largest_batch = max(self.largest_batch, len(statements))
        self.total_db_time_ms += elapsed_ms
        return outcomes, elapsed_ms

    def result_cache_stats(self):
        """The underlying database's result-cache counters."""
        return self.database.result_cache_stats()

    # -- the two batch paths --------------------------------------------------

    def _execute_batch_direct(self, statements):
        """Every statement on its own plan (the pre-optimizer behaviour).

        Reads bucket per station: statements without ``shard_phases`` all
        land in the single default bucket (the one-node behaviour), while
        sharded statements spread their per-station entry costs across the
        stations that actually served them.  The batch's read time is the
        ``max()`` of the per-station makespans — stations are separate
        machines with ``db_workers`` workers each.
        """
        model = self.cost_model
        outcomes = []
        station_reads = {}  # station id -> [cost, ...]
        serial_ms = 0.0
        for sql, params in statements:
            outcome = self._run(sql, params)
            outcomes.append(outcome)
            if not is_read_statement(sql):
                serial_ms += outcome.cost_ms
                continue
            phases = outcome.result.shard_phases
            if phases is None:
                station_reads.setdefault(None, []).append(outcome.cost_ms)
            else:
                for phase in phases:
                    for station, rows, cached in phase:
                        station_reads.setdefault(station, []).append(
                            model.query_cost_ms(rows, from_cache=cached))
        elapsed_ms = serial_ms + max(
            (_parallel_elapsed(costs, model.db_workers)
             for costs in station_reads.values()), default=0.0)
        return outcomes, elapsed_ms

    def _execute_batch_plan(self, statements):
        """The shared-scan path: group, execute, charge groups once."""
        plan_result = execute_batch_plan(self.database, statements)
        grouped = set()
        group_costs = []
        for group in plan_result.groups:
            grouped.update(group.member_indices)
            # One job: one dispatch plus the single shared scan.
            group_costs.append(self.cost_model.query_cost_ms(group.scan_rows))
            self.shared_scan_groups += 1
            self.shared_scan_rows_saved += group.rows_saved

        outcomes = []
        read_costs = list(group_costs)
        serial_ms = 0.0
        for index, (sql, params) in enumerate(statements):
            result = plan_result.results[index]
            if index in grouped:
                # The group job already carries the cost; members ship free.
                cost = 0.0
                outcomes.append(StatementOutcome(sql, result, cost))
                continue
            cost = self.cost_model.query_cost_ms(result.rows_touched,
                                                 from_cache=result.from_cache)
            outcomes.append(StatementOutcome(sql, result, cost))
            if is_read_statement(sql):
                read_costs.append(cost)
            else:
                serial_ms += cost
        elapsed_ms = serial_ms + _parallel_elapsed(
            read_costs, self.cost_model.db_workers)
        return outcomes, elapsed_ms

    def _run(self, sql, params):
        result = self.database.execute(sql, params)
        return StatementOutcome(sql, result, self.statement_cost(result))

    def statement_cost(self, result):
        """One statement's standalone elapsed time.

        Single-node results price directly off ``rows_touched``; sharded
        results sum their sequential phases, each phase charged as the
        ``max()`` over the backends that served it in parallel.
        """
        phases = result.shard_phases
        if phases is None:
            return self.cost_model.query_cost_ms(
                result.rows_touched, from_cache=result.from_cache)
        model = self.cost_model
        return sum(
            max(model.query_cost_ms(rows, from_cache=cached)
                for _station, rows, cached in phase)
            for phase in phases if phase)


def _parallel_elapsed(costs, workers):
    """Makespan of scheduling ``costs`` on ``workers`` (LPT greedy)."""
    if not costs:
        return 0.0
    if workers <= 1:
        return sum(costs)
    loads = [0.0] * min(workers, len(costs))
    for cost in sorted(costs, reverse=True):
        lightest = min(range(len(loads)), key=loads.__getitem__)
        loads[lightest] += cost
    return max(loads)
