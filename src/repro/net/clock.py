"""Virtual time with per-phase accounting.

All latencies in the reproduction are charged to a :class:`SimClock` rather
than measured on the wall clock, which makes every experiment deterministic
and lets the benchmarks sweep network latency exactly like the paper's Fig. 9.

Phases mirror the paper's Fig. 8 breakdown: ``network``, ``db`` and ``app``.

Asynchronous dispatch (the paper's §6.7 execution-strategy discussion) adds
a second timeline: :meth:`SimClock.begin_async` records a batch's in-flight
work as an :class:`AsyncCompletion` without advancing the clock, subsequent
charges model the app server making progress *concurrently* with the round
trip, and :meth:`SimClock.wait` charges only the residual stall — the part
of the in-flight timeline the app's own progress did not cover.  Phase
totals therefore always sum to ``now`` (Fig-8-style breakdowns stay
meaningful); the hidden portion is not time on the clock at all, so the
clock keeps no tally of it: ``wait`` returns it, and whoever waited
(``BatchDriver.wait`` into its ``DriverStats``, the concurrent replay into
its page record) adds it up.

With several completions in flight at once (pipelined batches within one
request, or — under the concurrent workload driver — batches queued behind
other requests' work) the hidden prefix of a waited completion is not
necessarily hidden behind *app progress*: part of it may have elapsed while
the clock was stalled on a different completion, or inside a synchronous
round trip.  Counting that part as overlap would double-count the same wall
interval (once as another batch's stall, once as this batch's overlap), so
the clock records the intervals that app-phase charges actually covered and
``wait`` splits every hidden prefix into **overlap** (covered by app work)
and **shadowed** (covered by other batches' stalls or synchronous round
trips).  The ``(stall, overlap, shadowed)`` it returns always sums to the
completion's in-flight time.
"""

from array import array

PHASE_NETWORK = "network"
PHASE_DB = "db"
PHASE_APP = "app"

_PHASES = (PHASE_NETWORK, PHASE_DB, PHASE_APP)


class AsyncCompletion:
    """One dispatched batch in flight.

    ``segments`` is the ordered per-phase timeline of the in-flight work —
    typically ``((network, net_ms), (db, db_ms))`` for one batch round trip.
    The work occupies virtual time ``[start, start + total)``; the batch is
    *ready* at ``ready_at = start + total``.  Waiting charges only whatever
    suffix of that interval lies beyond the clock's current position.
    """

    __slots__ = ("start", "segments", "ready_at", "waited")

    def __init__(self, start, segments):
        segments = tuple(segments)  # materialize before validating
        total = 0.0
        for phase, dt in segments:
            if phase not in _PHASES:
                raise ValueError(f"unknown phase {phase!r}")
            if dt < 0:
                raise ValueError(f"negative in-flight segment: {dt}")
            total += dt
        self.start = start
        self.segments = segments
        self.ready_at = start + total
        self.waited = False

    @property
    def in_flight_ms(self):
        """Total virtual time this batch spends in flight."""
        return self.ready_at - self.start

    def __repr__(self):
        state = "waited" if self.waited else "in-flight"
        return (f"AsyncCompletion(start={self.start:.3f}, "
                f"ready_at={self.ready_at:.3f}, {state})")


class SimClock:
    """A virtual clock in milliseconds: ``charge`` advances one phase,
    ``round_trip`` a synchronous round trip's app, network and db legs."""

    def __init__(self):
        self._now = 0.0
        self._by_phase = {phase: 0.0 for phase in _PHASES}
        # Merged, ordered [start, end) intervals of app-phase charges, as
        # flat ``lo, hi`` doubles; adjacent charges coalesce, so it grows
        # only at app/stall alternation points; the latest one stays open
        # as [_app_lo, _app_hi) (None before the first app charge).
        self._app_intervals = array("d")
        self._app_lo = self._app_hi = None

    @property
    def now(self):
        return self._now

    def charge(self, phase, dt):
        """Advance the clock by ``dt`` ms, attributed to ``phase``."""
        if dt < 0:
            raise ValueError(f"negative time charge: {dt}")
        try:
            self._by_phase[phase] += dt
        except KeyError:
            raise ValueError(f"unknown phase {phase!r}") from None
        start = self._now
        self._now = now = start + dt
        if phase == PHASE_APP and dt > 0:
            hi = self._app_hi
            if hi != start:
                if hi is not None:
                    self._app_intervals.append(self._app_lo)
                    self._app_intervals.append(hi)
                self._app_lo = start
            self._app_hi = now

    def round_trip(self, app_ms, network_ms, db_ms):
        """One synchronous round trip: ``charge``'s additions for its app,
        network and db legs, in order; a negative leg moves nothing."""
        if network_ms < 0 or db_ms < 0:
            raise ValueError(f"negative time charge: {min(network_ms, db_ms)}")
        self.charge(PHASE_APP, app_ms)
        self._by_phase[PHASE_NETWORK] += network_ms
        self._by_phase[PHASE_DB] += db_ms
        self._now = self._now + network_ms + db_ms

    def _app_covered(self, start, end):
        """Length of ``[start, end)`` covered by app-phase charges."""
        hi = self._app_hi
        if end <= start or hi is None or hi <= start:
            return 0.0
        # Intervals are ordered; scan from the right (the open one first),
        # since waits probe recent history (bounded by the in-flight window).
        covered = max(0.0, min(hi, end) - max(self._app_lo, start))
        flat = self._app_intervals
        for at in range(len(flat) - 1, 0, -2):  # at: an interval's hi
            if flat[at] <= start:
                break
            covered += max(0.0, min(flat[at], end) - max(flat[at - 1], start))
        return covered

    def begin_async(self, segments, start=None):
        """Start an in-flight interval; charges nothing.

        The interval is anchored at ``now`` unless ``start`` names an
        earlier point on this clock's timeline (the concurrent workload
        driver resolves queueing-delayed completions after the fact, once
        the shared db work queue has scheduled them).  Returns the
        :class:`AsyncCompletion` to pass to :meth:`wait`.
        """
        if start is None:
            start = self._now
        elif start > self._now:
            raise ValueError(
                f"completion cannot start in the future: {start} > "
                f"{self._now}")
        return AsyncCompletion(start, segments)

    def wait(self, completion):
        """Block until ``completion`` is ready; returns ``(stall, overlap,
        shadowed)``.

        Only the *residual* — the part of the in-flight timeline beyond the
        clock's current position — is charged, segment by segment to each
        segment's own phase, so the per-phase breakdown reports exactly the
        network/db time the app actually stalled on.  The hidden prefix is
        split by what actually covered it on the timeline: app-phase
        charges count as overlap, anything else (another completion's
        stall, a synchronous round trip) counts as shadowed time — waiting
        completions out of dispatch order must not re-count an interval
        already charged as a different batch's stall.  Neither is charged
        or kept: they are the time that did *not* appear on the serial
        timeline.  Waiting twice is free (idempotent).
        """
        if completion.waited:
            return 0.0, 0.0, 0.0
        completion.waited = True
        entry = self._now
        cursor = completion.start
        stall = 0.0
        overlap = 0.0
        shadowed = 0.0
        for phase, dt in completion.segments:
            seg_end = cursor + dt
            residual = max(0.0, seg_end - max(entry, cursor))
            hidden = dt - residual
            if hidden > 0:
                hidden_end = min(seg_end, entry)
                behind_app = self._app_covered(cursor, hidden_end)
                overlap += behind_app
                shadowed += hidden - behind_app
            if residual > 0:
                self.charge(phase, residual)
                stall += residual
            cursor = seg_end
        return stall, overlap, shadowed

    def phase_time(self, phase):
        return self._by_phase[phase]

    def breakdown(self):
        """Dict of phase -> accumulated ms."""
        return dict(self._by_phase)

    def checkpoint(self):
        """Snapshot for measuring a window of activity."""
        return (self._now, dict(self._by_phase))

    def since(self, checkpoint):
        """(elapsed, per-phase delta) since a :meth:`checkpoint`."""
        start_now, start_phases = checkpoint
        delta = {
            phase: self._by_phase[phase] - start_phases[phase]
            for phase in _PHASES
        }
        return self._now - start_now, delta


class CostModel:
    """Constants converting work into virtual milliseconds.

    Defaults are calibrated so that the reproduction lands in the same
    regime as the paper's testbed (0.5 ms RTT in-datacenter; a 12-worker
    database server; lazy-evaluation overhead in the 5-15 % range on
    query-dense workloads).  Experiment shapes are robust to ±2× changes
    in any single constant; docs/cost-model.md has the database side
    (rows touched, which ``query_cost_ms`` turns into time).
    """

    def __init__(
        self,
        round_trip_ms=0.5,
        per_query_overhead_ms=0.12,
        per_row_ms=0.004,
        db_workers=12,
        app_op_ms=0.026,
        thunk_alloc_ms=0.045,
        force_ms=0.02,
        serialization_per_query_ms=0.01,
        driver_call_app_ms=0.1,
        cache_hit_cost_ms=0.012,
    ):
        self.round_trip_ms = round_trip_ms
        # Fixed cost of dispatching one statement inside the db server
        # (parsing, planning, buffer setup).
        self.per_query_overhead_ms = per_query_overhead_ms
        # Marginal cost per storage row touched by the executor.
        self.per_row_ms = per_row_ms
        # Parallelism available to a batch of read statements.
        self.db_workers = db_workers
        # CPU cost of one "ordinary statement" on the app server.
        self.app_op_ms = app_op_ms
        # CPU cost of allocating one thunk (lazy-evaluation overhead).
        self.thunk_alloc_ms = thunk_alloc_ms
        # CPU cost of forcing one thunk (memoized forces are free).
        self.force_ms = force_ms
        # Marshalling cost added to a round trip per statement shipped.
        self.serialization_per_query_ms = serialization_per_query_ms
        # App-server CPU burned per driver call (JDBC marshalling, socket
        # syscalls, thread wakeup).  Paid once per round trip, so batching
        # reduces app-side time as well as network time.
        self.driver_call_app_ms = driver_call_app_ms
        # Database cost of serving a statement from the cross-request
        # result cache: no parsing, no planning, no buffer setup, no rows
        # — only the cache probe and result hand-off (~10x cheaper than
        # the dispatch overhead the hit avoids).
        self.cache_hit_cost_ms = cache_hit_cost_ms

    def query_cost_ms(self, rows_touched, from_cache=False):
        """Database execution cost of one statement.

        A statement served from the cross-request result cache skipped
        parsing, planning and execution entirely, so it pays the flat
        cache-hit cost instead of the dispatch overhead.
        """
        if from_cache:
            return self.cache_hit_cost_ms
        return self.per_query_overhead_ms + self.per_row_ms * rows_touched
