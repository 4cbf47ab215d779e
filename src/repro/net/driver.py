"""Client-side database drivers.

:class:`Driver` models the standard JDBC behaviour: every ``execute`` call
costs one network round trip.  :class:`BatchDriver` is the Sloth extension:
``execute_batch`` ships any number of statements in a *single* round trip and
the server runs the reads in parallel.  ``execute_batch_async`` additionally
overlaps that round trip with continued app-server work (the paper's §6.7
execution strategy): it returns an in-flight completion handle, and ``wait``
charges only the residual stall.

Both drivers charge network and database time to the shared
:class:`repro.net.clock.SimClock` and count round trips / statements, which
is what the benchmark harness reads out; the server adds its cache hits
and shared scans to the :class:`DriverStats` a driver hands it, and
``wait`` adds up what the clock returns.  A driver's :class:`DriverStats`
is the one home of the wire's counts: neither the server nor the clock
keeps a second tally.
"""

from repro.net.clock import PHASE_APP, PHASE_DB, PHASE_NETWORK
from repro.net.errors import DriverError


class DriverStats:
    """Counters shared by both driver flavours.  The fields are the whole
    record: ``dict(vars(stats))`` is what a benchmark exports."""

    def __init__(self):
        self.round_trips = 0
        self.statements = 0
        self.largest_batch = 0
        self.shared_scan_groups = 0
        self.shared_scan_rows_saved = 0
        # Statements served from the database's cross-request result cache
        # through this driver (the server counts them into the stats it is
        # handed; the harness and benchmark JSON read them here).
        self.result_cache_hits = 0
        # Asynchronous dispatch (§6.7 overlap): batches shipped without
        # blocking, the residual time the app actually stalled waiting for
        # them, and the in-flight time hidden behind concurrent app work.
        self.async_batches = 0
        self.stall_ms = 0.0
        self.overlap_ms = 0.0
        # In-flight time hidden behind non-app clock advances (another
        # completion's stall, a synchronous round trip) — see
        # SimClock.wait.  stall + overlap + shadowed equals the total
        # in-flight time of the waited completions.
        self.shadowed_ms = 0.0

    def record(self, batch_size):
        self.round_trips += 1
        self.statements += batch_size
        if batch_size > self.largest_batch:
            self.largest_batch = batch_size


class Driver:
    """One statement per round trip (the original applications' driver)."""

    def __init__(self, server, clock, cost_model=None):
        self.server = server
        self.clock = clock
        self.cost_model = cost_model or server.cost_model
        self.stats = DriverStats()
        self._closed = False

    def close(self):
        self._closed = True

    def _check_open(self):
        if self._closed:
            raise DriverError("connection is closed")

    def execute(self, sql, params=()):
        """Execute one statement; returns the :class:`ExecResult`."""
        self._check_open()
        model = self.cost_model
        self.clock.charge(PHASE_APP, model.driver_call_app_ms)
        self.clock.charge(
            PHASE_NETWORK,
            model.round_trip_ms + model.serialization_per_query_ms)
        result, cost_ms = self.server.execute_one(sql, params, self.stats)
        self.clock.charge(PHASE_DB, cost_ms)
        self.stats.record(1)
        return result


class BatchDriver(Driver):
    """The Sloth batch driver — the paper's *extended* driver: the same
    connection (``execute`` included), plus many statements in one round
    trip.

    ``execute_batch(..., batch_optimize=True)`` routes the batch through
    the server's batch-plan path (shared scans across union-compatible
    SELECTs); the query store opts in per its ``shared_scans`` flag.
    """

    def execute_batch(self, statements, batch_optimize=False):
        """Execute ``[(sql, params), ...]`` in one round trip.

        Returns the list of :class:`ExecResult` in statement order.
        """
        self._check_open()
        if not statements:
            return []
        model = self.cost_model
        self.clock.charge(PHASE_APP, model.driver_call_app_ms)
        self.clock.charge(
            PHASE_NETWORK,
            model.round_trip_ms
            + model.serialization_per_query_ms * len(statements))
        results, elapsed_ms = self.server.execute_batch(
            statements, batch_optimize, self.stats)
        self.clock.charge(PHASE_DB, elapsed_ms)
        self.stats.record(len(statements))
        return results

    def execute_batch_async(self, statements, batch_optimize=False):
        """Dispatch a batch without blocking on its round trip (§6.7).

        The statements run against the database immediately — results
        materialize now and data ordering is exactly the synchronous
        path's — but their network and database time goes *in flight*:
        an :class:`repro.net.clock.AsyncCompletion` records the per-phase
        timeline and only :meth:`wait` charges the residual stall.  Only
        the driver-call CPU is charged at dispatch.

        Returns ``(completion, results)``; an empty batch returns
        ``(None, [])``.
        """
        self._check_open()
        if not statements:
            return None, []
        model = self.cost_model
        self.clock.charge(PHASE_APP, model.driver_call_app_ms)
        network_ms = (model.round_trip_ms
                      + model.serialization_per_query_ms * len(statements))
        results, elapsed_ms = self.server.execute_batch(
            statements, batch_optimize, self.stats)
        completion = self.clock.begin_async(
            ((PHASE_NETWORK, network_ms), (PHASE_DB, elapsed_ms)))
        self.stats.record(len(statements))
        self.stats.async_batches += 1
        return completion, results

    def wait(self, completion):
        """Block until an async batch lands; returns ``(stall, overlap)``.

        Charges only the residual stall (idempotent per completion); the
        clock's ``(stall, overlap, shadowed)`` goes into this driver's
        stats.
        """
        if completion is None:
            return 0.0, 0.0
        stall, overlap, shadowed = self.clock.wait(completion)
        stats = self.stats
        stats.stall_ms += stall
        stats.overlap_ms += overlap
        stats.shadowed_ms += shadowed
        return stall, overlap
