"""Concurrent multi-request serving: contention on a shared database.

Everything below the app tier in this reproduction is deterministic virtual
time, so concurrency is modelled the way a discrete-event simulator would:

1. **Trace recording.**  Each benchmark page is loaded once, for real,
   through :class:`TracingBatchDriver` — a :class:`~repro.net.driver.
   BatchDriver` that executes statements normally (results and rendered
   HTML are the genuine article) while recording the request's *shape*: app
   work between driver interactions, every batch dispatch (sync or async)
   with per-statement cost and sharing metadata, and every wait.

2. **Closed-loop replay.**  ``N`` simulated users replay the traces
   against one shared **db work queue**.  The database serves *rounds*:
   whenever it falls idle it takes every queued batch, runs their reads
   in parallel across ``db_workers`` (the same LPT-makespan model the
   synchronous server uses) and completes them all at round end.  A
   batch's database time is therefore ``queueing + service``: the delay
   until its round starts plus the round's makespan.

Each replayed request carries its own :class:`~repro.net.clock.SimClock`
anchored at admission.  Synchronous batches charge network plus the full
queueing-inclusive database time; asynchronous batches become
:meth:`~repro.net.clock.SimClock.begin_async` completions anchored at their
*dispatch* point (``start=``), so the wait charges exactly the residual the
request truly stalled — everything hidden behind its own app work counts
as overlap, everything hidden behind other requests' stalls as shadowed
time.

**Cross-request sharing.**  Batches queued into the same round may come
from different requests.  With ``share_queries=True`` the round merges
their work the way the intra-request shared-scan optimizer merges one
batch's: union-compatible sequential scans of one table collapse to a
single scan, and primary-key point lookups against one table — single
``pk = ?`` probes and ``pk IN (...)`` multi-probes alike — collapse to one
dispatch over the union of their key sets.  With ``share_queries=False``
merging still happens *within* each batch (the request's own
``batch_optimize`` behaviour) but never across requests.

Replay is timing-only: row data was produced at trace time, when each
request ran alone against the database, so the replayed workload must be
read-only (the benchmark pages are).  Write statements are still costed —
they serialize within their round — but their effects are not re-applied.
No statement executes during replay, so nothing here interleaves the
execution of different requests.
"""

import heapq

from repro.net.clock import (CostModel, PHASE_APP, PHASE_DB, PHASE_NETWORK,
                             SimClock)
from repro.net.driver import BatchDriver
from repro.net.server import _parallel_elapsed
from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlError
from repro.sqldb.parser import parse

#: Auto-flush threshold used when recording a trace with async dispatch
#: and no explicit threshold (matches the harness's async mode).
DEFAULT_FLUSH_THRESHOLD = 4


# ---------------------------------------------------------------------------
# Trace recording
# ---------------------------------------------------------------------------

class StatementTrace:
    """One statement's replay metadata.

    ``share_key`` classifies how the statement can merge with co-queued
    work: ``("scan", table)`` for an always-sequential-scan SELECT,
    ``("pk", table)`` for a primary-key point lookup (``pk_keys`` holds
    the probed key set), ``None`` for everything else.
    """

    __slots__ = ("sql", "solo_cost_ms", "is_read", "share_key", "scan_rows",
                 "pk_keys", "from_cache")

    def __init__(self, sql, solo_cost_ms, is_read, share_key=None,
                 scan_rows=0, pk_keys=None, from_cache=False):
        self.sql = sql
        self.solo_cost_ms = solo_cost_ms
        self.is_read = is_read
        self.share_key = share_key
        self.scan_rows = scan_rows
        self.pk_keys = pk_keys
        self.from_cache = from_cache


class TraceBatch:
    """One batch dispatch: ``kind`` is ``"sync"`` or ``"async"``.

    ``app_before_ms`` is the app-server CPU the request burned since the
    previous trace event (driver-call overhead included).
    """

    __slots__ = ("index", "kind", "app_before_ms", "net_ms", "statements")

    def __init__(self, index, kind, app_before_ms, net_ms, statements):
        self.index = index
        self.kind = kind
        self.app_before_ms = app_before_ms
        self.net_ms = net_ms
        self.statements = statements


class TraceWait:
    """The request blocks on a previously dispatched async batch."""

    __slots__ = ("batch_index", "app_before_ms")

    def __init__(self, batch_index, app_before_ms):
        self.batch_index = batch_index
        self.app_before_ms = app_before_ms


class PageTrace:
    """One page load's recorded shape, ready for closed-loop replay."""

    __slots__ = ("url", "events", "app_tail_ms", "html", "serial_time_ms",
                 "statements")

    def __init__(self):
        self.url = None
        self.events = []
        self.app_tail_ms = 0.0
        self.html = None
        self.serial_time_ms = 0.0
        self.statements = 0


class TracingBatchDriver(BatchDriver):
    """A batch driver that records the request's replayable shape.

    Statements execute for real (the page renders normally); the driver
    additionally appends :class:`TraceBatch`/:class:`TraceWait` events to
    ``self.trace``.  Batches run *without* the intra-request shared-scan
    optimizer so every recorded statement cost is its solo cost — replay
    re-applies sharing itself, within batches or across requests.
    """

    def __init__(self, server, clock, cost_model=None):
        super().__init__(server, clock, cost_model)
        self.trace = PageTrace()
        self._last_app_ms = clock.phase_time(PHASE_APP)
        self._completion_batches = {}

    def execute_batch(self, statements, batch_optimize=False):
        results = super().execute_batch(statements, batch_optimize=False)
        self._record_batch("sync", statements, results)
        return results

    def execute_batch_async(self, statements, batch_optimize=False):
        completion, results = super().execute_batch_async(
            statements, batch_optimize=False)
        if completion is not None:
            index = self._record_batch("async", statements, results)
            self._completion_batches[id(completion)] = index
        return completion, results

    def wait(self, completion):
        if completion is not None and not completion.waited:
            index = self._completion_batches.get(id(completion))
            if index is not None:
                app = self.clock.phase_time(PHASE_APP)
                self.trace.events.append(
                    TraceWait(index, app - self._last_app_ms))
                self._last_app_ms = app
        return super().wait(completion)

    def finish_trace(self, url, html):
        """Close the trace after the page rendered."""
        trace = self.trace
        trace.url = url
        trace.html = html
        trace.app_tail_ms = (
            self.clock.phase_time(PHASE_APP) - self._last_app_ms)
        trace.serial_time_ms = self.clock.now
        return trace

    # -- internals ----------------------------------------------------------

    def _record_batch(self, kind, statements, results):
        model = self.cost_model
        net_ms = (model.round_trip_ms
                  + model.serialization_per_query_ms * len(statements))
        metas = [self._statement_meta(sql, params, result)
                 for (sql, params), result in zip(statements, results)]
        app = self.clock.phase_time(PHASE_APP)
        index = len(self.trace.events)
        self.trace.events.append(
            TraceBatch(index, kind, app - self._last_app_ms, net_ms, metas))
        self.trace.statements += len(statements)
        self._last_app_ms = app
        return index

    def _statement_meta(self, sql, params, result):
        stmt = parse(sql)
        is_read = type(stmt) is A.Select
        solo = self.cost_model.query_cost_ms(result.rows_touched,
                                             from_cache=result.from_cache)
        share_key = None
        scan_rows = 0
        pk_keys = None
        if is_read and not result.from_cache:
            plan = self._plan_of(stmt)
            if plan is not None:
                if plan.shared_scan_table is not None:
                    share_key = ("scan", plan.shared_scan_table)
                    # Solo execution scanned the full table, so the
                    # statement's rows_touched IS the scan's size.
                    scan_rows = result.rows_touched
                else:
                    probe = plan.pk_probe_keys(params)
                    if probe is not None:
                        share_key = ("pk", probe[0])
                        pk_keys = probe[1]
        return StatementTrace(sql, solo, is_read, share_key=share_key,
                              scan_rows=scan_rows, pk_keys=pk_keys,
                              from_cache=result.from_cache)

    def _plan_of(self, stmt):
        """The plan of a SELECT, or None."""
        try:
            db = self.server.database
            return db.executor.plan_for(db, stmt)
        except SqlError:
            return None


def record_page_trace(db, dispatcher, url, cost_model=None,
                      optimizations=None, async_dispatch=True,
                      auto_flush_threshold=None, pipeline_depth=None,
                      params=None):
    """Load ``url`` once through a tracing driver; returns the PageTrace.

    The recording runs with the cross-request result cache suspended so
    every recorded statement cost is a cold solo cost (replay decides what
    merges, and with whom).
    """
    # Import cycle (web imports net); runs once per recorded page.
    from repro.web.appserver import AppServer, MODE_SLOTH
    from repro.web.framework import Request

    cost_model = cost_model or CostModel()
    if async_dispatch and auto_flush_threshold is None:
        auto_flush_threshold = DEFAULT_FLUSH_THRESHOLD
    drivers = []

    def factory(server, clock, model):
        driver = TracingBatchDriver(server, clock, model)
        drivers.append(driver)
        return driver

    app_server = AppServer(db, dispatcher, cost_model, mode=MODE_SLOTH,
                           optimizations=optimizations,
                           async_dispatch=async_dispatch,
                           auto_flush_threshold=auto_flush_threshold,
                           pipeline_depth=pipeline_depth,
                           driver_factory=factory)
    was_enabled = db.result_cache.enabled
    db.result_cache.enabled = False
    try:
        result = app_server.load_page(Request(url, params or {}))
    finally:
        db.result_cache.enabled = was_enabled
    return drivers[0].finish_trace(url, result.html)


def record_traces(db, dispatcher, urls, cost_model=None, **kwargs):
    """A PageTrace per URL (see :func:`record_page_trace`)."""
    return [record_page_trace(db, dispatcher, url, cost_model, **kwargs)
            for url in urls]


# ---------------------------------------------------------------------------
# Closed-loop replay
# ---------------------------------------------------------------------------

class PageReplayStat:
    """One replayed page load under contention."""

    __slots__ = ("user", "url", "start_ms", "response_ms", "phases",
                 "queue_ms", "stall_ms", "overlap_ms", "shadowed_ms")

    def __init__(self, user, url, start_ms, response_ms, phases, queue_ms,
                 stall_ms, overlap_ms, shadowed_ms):
        self.user = user
        self.url = url
        self.start_ms = start_ms
        self.response_ms = response_ms
        self.phases = phases
        self.queue_ms = queue_ms
        self.stall_ms = stall_ms
        self.overlap_ms = overlap_ms
        self.shadowed_ms = shadowed_ms


class ConcurrentRunResult:
    """Aggregate outcome of one closed-loop replay."""

    def __init__(self, users, share_queries, pages, makespan_ms, rounds,
                 db_busy_ms, merged_scan_groups, merged_pk_groups,
                 rows_saved, pk_probes_saved, largest_round):
        self.users = users
        self.share_queries = share_queries
        self.pages = pages
        self.makespan_ms = makespan_ms
        self.rounds = rounds
        self.db_busy_ms = db_busy_ms
        self.merged_scan_groups = merged_scan_groups
        self.merged_pk_groups = merged_pk_groups
        self.rows_saved = rows_saved
        self.pk_probes_saved = pk_probes_saved
        self.largest_round = largest_round

    @property
    def throughput_pps(self):
        """Pages per second over the whole run."""
        if self.makespan_ms <= 0:
            return 0.0
        return len(self.pages) / self.makespan_ms * 1000.0

    @property
    def mean_response_ms(self):
        if not self.pages:
            return 0.0
        return sum(p.response_ms for p in self.pages) / len(self.pages)

    @property
    def p95_response_ms(self):
        if not self.pages:
            return 0.0
        ordered = sorted(p.response_ms for p in self.pages)
        return ordered[min(len(ordered) - 1,
                           int(0.95 * (len(ordered) - 1) + 0.5))]

    @property
    def total_queue_ms(self):
        return sum(p.queue_ms for p in self.pages)

    @property
    def db_utilization(self):
        if self.makespan_ms <= 0:
            return 0.0
        return self.db_busy_ms / self.makespan_ms

    def summary(self):
        return {
            "users": self.users,
            "share_queries": self.share_queries,
            "pages": len(self.pages),
            "makespan_ms": round(self.makespan_ms, 3),
            "throughput_pps": round(self.throughput_pps, 3),
            "mean_response_ms": round(self.mean_response_ms, 3),
            "p95_response_ms": round(self.p95_response_ms, 3),
            "total_queue_ms": round(self.total_queue_ms, 3),
            "db_busy_ms": round(self.db_busy_ms, 3),
            "db_utilization": round(self.db_utilization, 4),
            "rounds": self.rounds,
            "largest_round": self.largest_round,
            "merged_scan_groups": self.merged_scan_groups,
            "merged_pk_groups": self.merged_pk_groups,
            "rows_saved": self.rows_saved,
            "pk_probes_saved": self.pk_probes_saved,
        }


class _DbJob:
    """One batch queued at the database."""

    __slots__ = ("job_id", "owner", "statements", "arrival", "completed_at",
                 "queue_ms")

    def __init__(self, job_id, owner, statements):
        self.job_id = job_id
        self.owner = owner
        self.statements = statements
        self.arrival = None
        self.completed_at = None
        self.queue_ms = 0.0


class _RequestRun:
    """One in-flight page load being replayed."""

    __slots__ = ("user", "page_no", "trace", "clock", "start", "pc",
                 "pending", "parked_on", "on_resume", "queue_ms", "stall_ms",
                 "overlap_ms", "shadowed_ms")

    def __init__(self, user, page_no, trace, start):
        self.user = user
        self.page_no = page_no
        self.trace = trace
        self.clock = SimClock()
        self.start = start
        self.pc = 0
        self.pending = {}  # batch index -> (dispatch_local, net_ms, job)
        self.parked_on = None
        self.on_resume = None
        self.queue_ms = 0.0
        self.stall_ms = 0.0
        self.overlap_ms = 0.0
        self.shadowed_ms = 0.0


# Event priorities: at one instant, round completions land first, then
# user continuations (which may enqueue new arrivals strictly later —
# network transit is never zero), then arrivals, then the deferred round
# start — so every same-instant arrival joins the round it triggered.
_PRIO_DONE = 0
_PRIO_USER = 1
_PRIO_ARRIVE = 2
_PRIO_ROUND = 3


class _ConcurrentSimulation:
    def __init__(self, traces, users, cost_model=None, share_queries=True,
                 pages_per_user=1, think_time_ms=0.0):
        if not traces:
            raise ValueError("need at least one page trace")
        if users < 1:
            raise ValueError("need at least one user")
        self.traces = list(traces)
        self.users = users
        self.cost_model = cost_model or CostModel()
        self.share_queries = share_queries
        self.pages_per_user = pages_per_user
        self.think_time_ms = think_time_ms
        self._heap = []
        self._seq = 0
        self._queue = []  # jobs waiting for the next round
        self._busy_until = 0.0
        self._round_scheduled = False
        self._next_job_id = 0
        self._pages = []
        self._makespan = 0.0
        self._rounds = 0
        self._db_busy_ms = 0.0
        self._merged_scan_groups = 0
        self._merged_pk_groups = 0
        self._rows_saved = 0
        self._pk_probes_saved = 0
        self._largest_round = 0

    def run(self):
        for user in range(self.users):
            self._push(0.0, _PRIO_USER, "page", (user, 0))
        heap = self._heap
        while heap:
            t, _prio, _seq, kind, payload = heapq.heappop(heap)
            if kind == "page":
                user, page_no = payload
                trace = self.traces[(user + page_no) % len(self.traces)]
                self._step(_RequestRun(user, page_no, trace, t), t)
            elif kind == "user":
                self._resume(payload, t)
            elif kind == "arrive":
                self._arrive(payload, t)
            elif kind == "round_start":
                self._start_round(t)
            elif kind == "round_done":
                self._finish_round(payload, t)
        return ConcurrentRunResult(
            self.users, self.share_queries, self._pages, self._makespan,
            self._rounds, self._db_busy_ms, self._merged_scan_groups,
            self._merged_pk_groups, self._rows_saved, self._pk_probes_saved,
            self._largest_round)

    # -- request state machine ----------------------------------------------

    def _resume(self, req, now):
        action = req.on_resume
        req.on_resume = None
        if action is not None:
            kind = action[0]
            if kind == "sync":
                _, job = action
                req.clock.charge(PHASE_DB, job.completed_at - job.arrival)
            else:
                _, dispatch_local, net_ms, job = action
                self._charge_wait(req, dispatch_local, net_ms, job)
        self._step(req, now)

    def _step(self, req, now):
        clock = req.clock
        events = req.trace.events
        while req.pc < len(events):
            event = events[req.pc]
            req.pc += 1
            if isinstance(event, TraceBatch):
                if event.app_before_ms > 0:
                    clock.charge(PHASE_APP, event.app_before_ms)
                job = self._new_job(req, event.statements)
                if event.kind == "sync":
                    # Blocking round trip: network now, database time
                    # (queueing + service) when the round completes.
                    clock.charge(PHASE_NETWORK, event.net_ms)
                    arrival = req.start + clock.now
                    self._push(arrival, _PRIO_ARRIVE, "arrive", job)
                    req.parked_on = job
                    req.on_resume = ("sync", job)
                    return
                dispatch_local = clock.now
                arrival = req.start + dispatch_local + event.net_ms
                self._push(arrival, _PRIO_ARRIVE, "arrive", job)
                req.pending[event.index] = (dispatch_local, event.net_ms,
                                            job)
            else:  # TraceWait
                if event.app_before_ms > 0:
                    clock.charge(PHASE_APP, event.app_before_ms)
                dispatch_local, net_ms, job = req.pending.pop(
                    event.batch_index)
                if job.completed_at is None:
                    req.parked_on = job
                    req.on_resume = ("wait", dispatch_local, net_ms, job)
                    return
                self._charge_wait(req, dispatch_local, net_ms, job)
        if req.trace.app_tail_ms > 0:
            clock.charge(PHASE_APP, req.trace.app_tail_ms)
        self._finish_page(req)

    def _charge_wait(self, req, dispatch_local, net_ms, job):
        """Charge an async batch's residual at its wait point.

        The completion is anchored at the *dispatch* point on the
        request's own timeline; its database segment is the batch's full
        queueing + service time at the shared database.  The clock splits
        the hidden prefix into overlap (behind this request's app work)
        and shadowed time (behind its other stalls) exactly.
        """
        completion = req.clock.begin_async(
            ((PHASE_NETWORK, net_ms),
             (PHASE_DB, job.completed_at - job.arrival)),
            start=dispatch_local)
        stall, overlap, shadowed = req.clock.wait(completion)
        req.stall_ms += stall
        req.overlap_ms += overlap
        req.shadowed_ms += shadowed

    def _finish_page(self, req):
        clock = req.clock
        end = req.start + clock.now
        self._makespan = max(self._makespan, end)
        self._pages.append(PageReplayStat(
            req.user, req.trace.url, req.start, clock.now,
            clock.breakdown(), req.queue_ms, req.stall_ms, req.overlap_ms,
            req.shadowed_ms))
        next_page = req.page_no + 1
        if next_page < self.pages_per_user:
            self._push(end + self.think_time_ms, _PRIO_USER, "page",
                       (req.user, next_page))

    # -- the db queue -------------------------------------------------------

    def _new_job(self, req, statements):
        job = _DbJob(self._next_job_id, req, statements)
        self._next_job_id += 1
        return job

    def _arrive(self, job, now):
        job.arrival = now
        self._queue.append(job)
        if now >= self._busy_until and not self._round_scheduled:
            self._round_scheduled = True
            self._push(now, _PRIO_ROUND, "round_start", None)

    def _start_round(self, now):
        self._round_scheduled = False
        if not self._queue or now < self._busy_until:
            return
        jobs = self._queue
        self._queue = []
        service = self._round_service(jobs)
        end = now + service
        self._busy_until = end
        self._db_busy_ms += service
        self._rounds += 1
        self._largest_round = max(self._largest_round, len(jobs))
        for job in jobs:
            job.queue_ms = now - job.arrival
        self._push(end, _PRIO_DONE, "round_done", jobs)

    def _finish_round(self, jobs, now):
        for job in jobs:
            job.completed_at = now
            req = job.owner
            req.queue_ms += job.queue_ms
            if req.parked_on is job:
                req.parked_on = None
                self._push(now, _PRIO_USER, "user", req)
        if self._queue and not self._round_scheduled:
            self._round_scheduled = True
            self._push(now, _PRIO_ROUND, "round_start", None)

    def _round_service(self, jobs):
        """Makespan of one round: merged reads parallel, writes serial.

        Sharing scope is the whole round when ``share_queries`` is on,
        one batch otherwise — so the unshared baseline keeps exactly the
        intra-request sharing the synchronous batch optimizer provides.
        """
        model = self.cost_model
        read_costs = []
        serial_ms = 0.0
        groups = {}
        for job in jobs:
            scope = None if self.share_queries else job.job_id
            for stmt in job.statements:
                if not stmt.is_read:
                    serial_ms += stmt.solo_cost_ms
                elif stmt.share_key is None or stmt.from_cache:
                    read_costs.append(stmt.solo_cost_ms)
                else:
                    key = (scope,) + stmt.share_key
                    groups.setdefault(key, []).append(stmt)
        for members in groups.values():
            kind = members[0].share_key[0]
            if kind == "scan":
                scan_rows = max(m.scan_rows for m in members)
                read_costs.append(model.query_cost_ms(scan_rows))
                if len(members) > 1:
                    self._merged_scan_groups += 1
                    self._rows_saved += scan_rows * (len(members) - 1)
            else:
                union = set()
                total_keys = 0
                for m in members:
                    union.update(m.pk_keys)
                    total_keys += len(m.pk_keys)
                read_costs.append(model.per_query_overhead_ms
                                  + model.per_row_ms * len(union))
                if len(members) > 1:
                    self._merged_pk_groups += 1
                    self._pk_probes_saved += total_keys - len(union)
        return serial_ms + _parallel_elapsed(read_costs, model.db_workers)

    # -- plumbing ------------------------------------------------------------

    def _push(self, time, prio, kind, payload):
        self._seq += 1
        heapq.heappush(self._heap, (time, prio, self._seq, kind, payload))


def simulate_concurrent(traces, users, cost_model=None, share_queries=True,
                        pages_per_user=1, think_time_ms=0.0):
    """Replay ``traces`` with ``users`` closed-loop clients; returns a
    :class:`ConcurrentRunResult`.  User ``u``'s ``p``-th page is
    ``traces[(u + p) % len(traces)]``."""
    return _ConcurrentSimulation(
        traces, users, cost_model=cost_model, share_queries=share_queries,
        pages_per_user=pages_per_user,
        think_time_ms=think_time_ms).run()
