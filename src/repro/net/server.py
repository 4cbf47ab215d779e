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

**One body.**  ``execute_batch`` (``execute_one`` runs it over a
one-tuple): the request's read view *if it brought one*, dispatch, and
counts taken where they arise, added to the server's and the driver's
``DriverStats`` once the run returns.  What arrives is ``(sql, params)``;
a statement is parsed here once (a probe of the process-wide parse
cache), executed as an AST through ``execute_parsed``, and is a read or a
write by its type.

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

from repro.sqldb.ast_nodes import Select
from repro.sqldb.parser import is_read_statement, parse
from repro.sqldb.plan.batch import execute_batch_plan


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

    def execute_one(self, sql, params=(), read_view=None, stats=None):
        """:meth:`execute_batch` over a one-tuple; returns ``(result,
        cost_ms)``.  ``cost_ms`` is the statement's standalone cost
        (:meth:`statement_cost`): on one node its one-statement batch's
        elapsed time, bit for bit; a sharded result sums its phases.
        """
        (result,), elapsed_ms = self.execute_batch(
            ((sql, params),), False, read_view, stats)
        if result.shard_phases is None:
            return result, elapsed_ms
        cost_ms = self.statement_cost(result)
        self.total_db_time_ms += cost_ms - elapsed_ms  # the charged cost
        return result, cost_ms

    def execute_batch(self, statements, batch_optimize=False,
                      read_view=None, stats=None):
        """Execute ``[(sql, params), ...]`` as one batch.

        Returns ``(results, elapsed_ms)`` where ``elapsed_ms`` models
        parallel execution of reads.  With ``batch_optimize`` the batch
        runs through the shared-scan planner first.  Either path consults
        the database's cross-request result cache per statement: cached
        SELECTs cost zero rows touched and, on the batch-plan path, drop
        out of shared-scan grouping.  With ``read_view`` every statement
        in the batch executes under that request's snapshot.  The run's
        counts go, once it has returned, to this server's counters and to
        ``stats`` (the calling driver's ``DriverStats``).
        """
        database = self.database
        run = (self._execute_batch_plan
               if batch_optimize and database.supports_batch_plan
               else self._execute_batch_direct)
        if read_view is None:
            results, elapsed_ms, hits, groups, saved = run(statements)
        else:
            with database.read_views.using(read_view):
                results, elapsed_ms, hits, groups, saved = run(statements)
        size = len(statements)
        self.batches_executed += 1
        self.statements_executed += size
        if size > self.largest_batch:
            self.largest_batch = size
        self.total_db_time_ms += elapsed_ms
        self.result_cache_hits += hits
        self.shared_scan_groups += groups
        self.shared_scan_rows_saved += saved
        if stats is not None:
            stats.result_cache_hits += hits
            stats.shared_scan_groups += groups
            stats.shared_scan_rows_saved += saved
        return results, elapsed_ms

    # -- the two batch paths: (results, elapsed_ms, hits, groups, saved) -----

    def _execute_batch_direct(self, statements):
        """Every statement on its own plan (the pre-optimizer behaviour).

        A single-node result is priced inline (``query_cost_ms``'s
        arithmetic).  Reads bucket per station: statements without
        ``shard_phases`` are the one default station (one node: a plain
        list), while sharded statements spread their per-station entry
        costs — and cache hits — across the stations that served them.
        The batch's read time is the ``max()`` of the per-station
        makespans: stations are separate machines with ``db_workers``
        workers each.
        """
        model = self.cost_model
        hit_ms, overhead_ms, row_ms = (model.cache_hit_cost_ms,
                                       model.per_query_overhead_ms,
                                       model.per_row_ms)
        execute = self.database.execute_parsed
        results = []
        read_costs = []
        station_reads = None  # station id -> [cost, ...]
        serial_ms = 0.0
        hits = 0
        for sql, params in statements:
            stmt = parse(sql)
            result = execute(stmt, params)
            results.append(result)
            phases = result.shard_phases
            if phases is None:
                hits += result.from_cache
                cost = (hit_ms if result.from_cache
                        else overhead_ms + row_ms * result.rows_touched)
                if type(stmt) is Select:
                    read_costs.append(cost)
                else:
                    serial_ms += cost
                continue
            hits += sum(entry[2] for phase in phases for entry in phase)
            if type(stmt) is not Select:
                serial_ms += self.statement_cost(result)
                continue
            if station_reads is None:
                station_reads = {}
            for phase in phases:
                for station, rows, cached in phase:
                    station_reads.setdefault(station, []).append(
                        model.query_cost_ms(rows, from_cache=cached))
        read_ms = _parallel_elapsed(read_costs, model.db_workers)
        if station_reads:
            read_ms = max(read_ms, max(
                _parallel_elapsed(costs, model.db_workers)
                for costs in station_reads.values()))
        return results, serial_ms + read_ms, hits, 0, 0

    def _execute_batch_plan(self, statements):
        """The shared-scan path: group, execute, charge groups once."""
        plan_result = execute_batch_plan(self.database, statements)
        model = self.cost_model
        grouped = set()
        read_costs = []
        for group in plan_result.groups:
            grouped.update(group.member_indices)
            # One job: one dispatch plus the single shared scan.
            read_costs.append(model.query_cost_ms(group.scan_rows))
        serial_ms = 0.0
        hits = 0
        for index, (sql, _) in enumerate(statements):
            if index in grouped:
                continue  # the group job carries the cost; members are free
            result = plan_result.results[index]
            hits += result.from_cache
            cost = self.statement_cost(result)
            if is_read_statement(sql):
                read_costs.append(cost)
            else:
                serial_ms += cost
        return (plan_result.results,
                serial_ms + _parallel_elapsed(read_costs, model.db_workers),
                hits, len(plan_result.groups),
                sum(group.rows_saved for group in plan_result.groups))

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
    """Makespan of scheduling ``costs`` on ``workers`` (LPT greedy).

    With no more jobs than workers LPT gives every job a worker of its own
    and ``0.0 + c == c``, so the makespan *is* ``max(costs)``, bit for bit:
    the algorithm's identity, not a second algorithm.  It covers every
    batch of ``mixed_rw`` / ``pages_original`` and 768 of the 779 batches
    of a ``pages_sloth`` sweep.
    """
    if not costs:
        return 0.0
    if workers <= 1:
        return sum(costs)
    if len(costs) <= workers:
        return max(costs)
    loads = [0.0] * workers
    for cost in sorted(costs, reverse=True):
        lightest = min(range(workers), key=loads.__getitem__)
        loads[lightest] += cost
    return max(loads)
