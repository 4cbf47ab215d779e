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
one-tuple): dispatch, and counts taken where they arise, added to the
``DriverStats`` the caller hands in once the run returns.  The server keeps
no counters of its own: every batch arrives through a driver, whose stats
are the one home of the wire's counts.  What arrives is ``(sql, params)``;
a statement is parsed here once (a probe of the process-wide parse cache),
executed as an AST through ``execute_parsed``, and is a read or a write by
its type.

A statement's cost is ``CostModel.query_cost_ms(rows_touched,
from_cache=...)`` — one node, one price per statement.

With ``batch_optimize`` the batch takes the **batch-plan path**
(:mod:`repro.sqldb.plan.batch`): union-compatible SELECTs over one table
share a single scan.  A shared group is one job on one worker, charged for
one scan plus one dispatch — not N scans — so the batch's database time
drops whenever the optimizer finds sharing.
"""

from repro.sqldb.ast_nodes import Select
from repro.sqldb.parser import is_read_statement, parse
from repro.sqldb.plan.batch import execute_batch_plan


class DatabaseServer:
    """Executes statements/batches against the embedded database."""

    def __init__(self, database, cost_model):
        self.database = database
        self.cost_model = cost_model

    def execute_one(self, sql, params=(), stats=None):
        """:meth:`execute_batch` over a one-tuple; returns ``(result,
        cost_ms)``, ``cost_ms`` being the one-statement batch's elapsed
        time — the statement's standalone cost.
        """
        (result,), elapsed_ms = self.execute_batch(
            ((sql, params),), False, stats)
        return result, elapsed_ms

    def execute_batch(self, statements, batch_optimize=False, stats=None):
        """Execute ``[(sql, params), ...]`` as one batch.

        Returns ``(results, elapsed_ms)`` where ``elapsed_ms`` models
        parallel execution of reads.  With ``batch_optimize`` the batch
        runs through the shared-scan planner first.  Either path consults
        the database's cross-request result cache per statement: cached
        SELECTs cost zero rows touched and, on the batch-plan path, drop
        out of shared-scan grouping.  The run's counts go, once it has
        returned, to ``stats`` (the calling driver's ``DriverStats``); the
        server keeps none of its own.
        """
        run = (self._execute_batch_plan if batch_optimize
               else self._execute_batch_direct)
        results, elapsed_ms, hits, groups, saved = run(statements)
        if stats is not None:
            stats.result_cache_hits += hits
            stats.shared_scan_groups += groups
            stats.shared_scan_rows_saved += saved
        return results, elapsed_ms

    # -- the two batch paths: (results, elapsed_ms, hits, groups, saved) -----

    def _execute_batch_direct(self, statements):
        """Every statement on its own plan (the pre-optimizer behaviour).

        Each result is priced inline (``query_cost_ms``'s arithmetic):
        writes serialize, reads share the ``db_workers`` pool.
        """
        model = self.cost_model
        hit_ms, overhead_ms, row_ms = (model.cache_hit_cost_ms,
                                       model.per_query_overhead_ms,
                                       model.per_row_ms)
        execute = self.database.execute_parsed
        results = []
        read_costs = []
        serial_ms = 0.0
        hits = 0
        for sql, params in statements:
            stmt = parse(sql)
            result = execute(stmt, params)
            results.append(result)
            hits += result.from_cache
            cost = (hit_ms if result.from_cache
                    else overhead_ms + row_ms * result.rows_touched)
            if type(stmt) is Select:
                read_costs.append(cost)
            else:
                serial_ms += cost
        return (results,
                serial_ms + _parallel_elapsed(read_costs, model.db_workers),
                hits, 0, 0)

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
            cost = model.query_cost_ms(result.rows_touched,
                                       from_cache=result.from_cache)
            if is_read_statement(sql):
                read_costs.append(cost)
            else:
                serial_ms += cost
        return (plan_result.results,
                serial_ms + _parallel_elapsed(read_costs, model.db_workers),
                hits, len(plan_result.groups),
                sum(group.rows_saved for group in plan_result.groups))


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
