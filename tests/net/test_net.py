import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.clock import AsyncCompletion, CostModel, SimClock
from repro.net.driver import BatchDriver, Driver, DriverStats
from repro.net.errors import DriverError
from repro.net.server import DatabaseServer, _parallel_elapsed
from repro.sqldb import Database
from repro.sqldb.errors import SqlError


class TestSimClock:
    def test_charges_accumulate_by_phase(self):
        clock = SimClock()
        clock.charge("network", 1.0)
        clock.charge("db", 2.0)
        clock.charge("network", 0.5)
        assert clock.now == pytest.approx(3.5)
        assert clock.phase_time("network") == pytest.approx(1.5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge("db", -1)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge("disk", 1)

    def test_checkpoint_window(self):
        clock = SimClock()
        clock.charge("app", 1.0)
        cp = clock.checkpoint()
        clock.charge("db", 2.0)
        elapsed, phases = clock.since(cp)
        assert elapsed == pytest.approx(2.0)
        assert phases["db"] == pytest.approx(2.0)
        assert phases["app"] == pytest.approx(0.0)


class TestAsyncTimeline:
    """§6.7 overlap accounting: in-flight work vs concurrent app progress."""

    def test_begin_async_charges_nothing(self):
        clock = SimClock()
        completion = clock.begin_async((("network", 2.0), ("db", 1.0)))
        assert clock.now == 0.0
        assert completion.ready_at == pytest.approx(3.0)
        assert completion.in_flight_ms == pytest.approx(3.0)

    def test_wait_with_no_progress_stalls_fully(self):
        clock = SimClock()
        completion = clock.begin_async((("network", 2.0), ("db", 1.0)))
        stall, overlap, shadowed = clock.wait(completion)
        assert stall == pytest.approx(3.0)
        assert overlap == shadowed == 0.0
        assert clock.now == pytest.approx(3.0)
        # Residual attribution lands on each segment's own phase.
        assert clock.phase_time("network") == pytest.approx(2.0)
        assert clock.phase_time("db") == pytest.approx(1.0)

    def test_partial_overlap_charges_residual_tail(self):
        clock = SimClock()
        completion = clock.begin_async((("network", 2.0), ("db", 1.0)))
        clock.charge("app", 2.5)  # app progresses into the db segment
        stall, overlap, shadowed = clock.wait(completion)
        assert stall == pytest.approx(0.5)
        assert overlap == pytest.approx(2.5)
        assert shadowed == 0.0
        # The whole network leg and half the db leg were hidden; only the
        # residual db tail shows up in the breakdown.
        assert clock.phase_time("network") == pytest.approx(0.0)
        assert clock.phase_time("db") == pytest.approx(0.5)
        assert clock.now == pytest.approx(3.0)
        # Phase totals still sum to elapsed time (Fig-8 breakdowns hold).
        assert sum(clock.breakdown().values()) == pytest.approx(clock.now)

    def test_fully_overlapped_wait_is_free(self):
        clock = SimClock()
        completion = clock.begin_async((("network", 1.0), ("db", 1.0)))
        clock.charge("app", 5.0)
        stall, overlap, shadowed = clock.wait(completion)
        assert stall == shadowed == 0.0
        assert overlap == pytest.approx(2.0)
        assert clock.now == pytest.approx(5.0)

    def test_wait_is_idempotent(self):
        clock = SimClock()
        completion = clock.begin_async((("network", 1.0),))
        clock.wait(completion)
        now = clock.now
        assert clock.wait(completion) == (0.0, 0.0, 0.0)
        assert clock.now == now

    def test_total_time_is_max_of_app_and_in_flight(self):
        clock = SimClock()
        completion = clock.begin_async((("network", 4.0), ("db", 2.0)))
        clock.charge("app", 1.5)
        clock.wait(completion)
        # max(app progress, in-flight completion), not the sum.
        assert clock.now == pytest.approx(6.0)

    def test_bad_segments_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.begin_async((("disk", 1.0),))
        with pytest.raises(ValueError):
            clock.begin_async((("db", -1.0),))

    def test_completion_constructed_directly(self):
        completion = AsyncCompletion(10.0, (("network", 1.0), ("db", 2.0)))
        assert completion.ready_at == pytest.approx(13.0)
        assert not completion.waited

    def test_begin_async_with_explicit_start(self):
        clock = SimClock()
        clock.charge("app", 2.0)
        completion = clock.begin_async((("db", 1.0),), start=0.5)
        assert completion.start == pytest.approx(0.5)
        with pytest.raises(ValueError):
            clock.begin_async((("db", 1.0),), start=clock.now + 0.1)


class TestInterleavedWaits:
    """Out-of-dispatch-order waits must not double-count hidden prefixes.

    When a newer completion is awaited before an older one, the older
    completion's in-flight window partly elapsed during the newer one's
    *stall* — wall time already charged to network/db.  That part is
    *shadowed*, not overlap; counting it as overlap would report the same
    interval twice (once as a stall, once as hidden-behind-app).  For
    every completion ``stall + overlap + shadowed == in_flight_ms``.
    """

    def test_depth2_newer_waited_first(self):
        clock = SimClock()
        c1 = clock.begin_async((("network", 1.0), ("db", 2.0)))  # [0, 3)
        clock.charge("app", 0.5)
        c2 = clock.begin_async((("network", 1.0), ("db", 2.0)))  # [0.5, 3.5)
        # Newer first: full stall, nothing hidden.
        stall2, overlap2, shadowed2 = clock.wait(c2)
        assert stall2 == pytest.approx(3.0)
        assert overlap2 == shadowed2 == 0.0
        assert clock.now == pytest.approx(3.5)
        # Older second: fully elapsed, but only the 0.5 ms of app work is
        # overlap — the other 2.5 ms passed during c2's charged stall
        # (0.5 ms of c1's network leg, all 2 ms of its db leg).
        stall1, overlap1, shadowed1 = clock.wait(c1)
        assert stall1 == pytest.approx(0.0)
        assert overlap1 == pytest.approx(0.5)
        assert shadowed1 == pytest.approx(2.5)
        assert (stall1 + overlap1 + shadowed1
                == pytest.approx(c1.in_flight_ms))
        # Phase totals still sum to elapsed time (Fig-8 breakdowns hold).
        assert sum(clock.breakdown().values()) == pytest.approx(clock.now)

    def test_depth4_reverse_order_waits(self):
        clock = SimClock()
        completions = []
        for i in range(4):
            if i:
                clock.charge("app", 0.2)  # app progress between dispatches
            completions.append(
                clock.begin_async((("network", 0.5), ("db", 1.0))))
        # Await in reverse dispatch order; track each completion's split.
        app_total = clock.phase_time("app")
        splits = []
        for completion in reversed(completions):
            splits.append((completion, *clock.wait(completion)))
        for completion, stall, overlap, shadowed in splits:
            assert (stall + overlap + shadowed
                    == pytest.approx(completion.in_flight_ms))
        # Only the newest completion stalls; every older one is fully
        # hidden, split between the app prefix and the newest's stall.
        (s4, o4, sh4), (s3, o3, sh3), (s2, o2, sh2), (s1, o1, sh1) = [
            s[1:] for s in splits]
        assert s4 == pytest.approx(1.5) and o4 == 0.0 and sh4 == 0.0
        assert s3 == 0.0 and o3 == pytest.approx(0.2)
        assert sh3 == pytest.approx(1.3)
        assert s2 == 0.0 and o2 == pytest.approx(0.4)
        assert sh2 == pytest.approx(1.1)
        assert s1 == 0.0 and o1 == pytest.approx(0.6)
        assert sh1 == pytest.approx(0.9)
        # One app interval may hide several concurrent completions, but no
        # single completion's overlap can exceed the app time charged.
        for _, _, overlap, _ in splits:
            assert overlap <= app_total + 1e-9
        assert sum(clock.breakdown().values()) == pytest.approx(clock.now)

    def test_sync_round_trip_shadows_in_flight_batch(self):
        clock = SimClock()
        completion = clock.begin_async((("network", 1.0), ("db", 1.0)))
        clock.charge("db", 2.0)  # a synchronous round trip, not app work
        stall, overlap, shadowed = clock.wait(completion)
        assert stall == pytest.approx(0.0)
        assert overlap == pytest.approx(0.0)
        assert shadowed == pytest.approx(2.0)

    def test_in_order_waits_unchanged(self):
        # The single-completion contract is untouched: an app-covered
        # hidden prefix is all overlap, no shadow.
        clock = SimClock()
        completion = clock.begin_async((("network", 2.0), ("db", 1.0)))
        clock.charge("app", 2.5)
        stall, overlap, shadowed = clock.wait(completion)
        assert stall == pytest.approx(0.5)
        assert overlap == pytest.approx(2.5)
        assert shadowed == 0.0


class _TallyClock(SimClock):
    """``SimClock.wait`` as it was while the clock kept overlap and shadowed
    time per phase: it returned ``(stall, overlap)``, and a waiter read its
    shadowed time as the difference of ``sum(shadowed_breakdown())`` across
    the wait; the reference for the triple ``wait`` returns now."""

    def __init__(self):
        super().__init__()
        self.overlap_by_phase = dict.fromkeys(("network", "db", "app"), 0.0)
        self.shadowed_by_phase = dict(self.overlap_by_phase)

    def wait(self, completion):
        if completion.waited:
            return 0.0, 0.0
        completion.waited = True
        entry = self._now
        cursor = completion.start
        stall = 0.0
        overlap = 0.0
        for phase, dt in completion.segments:
            seg_end = cursor + dt
            residual = max(0.0, seg_end - max(entry, cursor))
            hidden = dt - residual
            if hidden > 0:
                hidden_end = min(seg_end, entry)
                behind_app = self._app_covered(cursor, hidden_end)
                self.overlap_by_phase[phase] += behind_app
                self.shadowed_by_phase[phase] += hidden - behind_app
                overlap += behind_app
            if residual > 0:
                self.charge(phase, residual)
                stall += residual
            cursor = seg_end
        return stall, overlap

    def shadowed_breakdown(self):
        return dict(self.shadowed_by_phase)


class _ListClock(_TallyClock):
    """The clock with the app intervals as one list, every charge writing
    its last entry — the form ``SimClock`` had before it kept the open
    interval as two floats; with the tallying ``wait`` above, the
    reference for the property below."""

    def __init__(self):
        super().__init__()
        self.intervals = []

    def charge(self, phase, dt):
        if dt < 0:
            raise ValueError(f"negative time charge: {dt}")
        if phase not in self._by_phase:
            raise ValueError(f"unknown phase {phase!r}")
        start = self._now
        self._now += dt
        self._by_phase[phase] += dt
        if phase == "app" and dt > 0:
            intervals = self.intervals
            if intervals and intervals[-1][1] == start:
                intervals[-1] = (intervals[-1][0], self._now)
            else:
                intervals.append((start, self._now))

    def _app_covered(self, start, end):
        if end <= start:
            return 0.0
        covered = 0.0
        for lo, hi in reversed(self.intervals):
            if hi <= start:
                break
            covered += max(0.0, min(hi, end) - max(lo, start))
        return covered


durations = st.one_of(st.sampled_from([0.0, 0.045, 0.02, 0.1, 0.51]),
                      st.floats(0.0, 5.0))
clock_steps = st.lists(st.one_of(
    st.tuples(st.just("charge"), st.sampled_from(["app", "network", "db"]),
              durations),
    # A batch in flight from now, or from a past point of the timeline.
    st.tuples(st.just("begin"),
              st.lists(st.tuples(st.sampled_from(["network", "db"]),
                                 durations), min_size=1, max_size=2),
              st.one_of(st.none(), st.floats(0.0, 1.0))),
    st.tuples(st.just("wait"), st.integers(0, 7))), max_size=40)


class TestOpenAppInterval:
    @given(steps=clock_steps)
    @settings(max_examples=400, deadline=None)
    def test_stall_overlap_and_shadow_match_the_list_clock(self, steps):
        # ``==`` for everything on the timeline and for stall and overlap:
        # the same floats, added in the same order.  The shadowed time is
        # one sum where the reference's is a difference of sums, so it
        # agrees to rounding.
        clock, reference = SimClock(), _ListClock()
        pending = []
        for step in steps:
            if step[0] == "charge":
                clock.charge(step[1], step[2])
                reference.charge(step[1], step[2])
            elif step[0] == "begin":
                start = (None if step[2] is None
                         else clock.now * step[2])
                pending.append((clock.begin_async(step[1], start),
                                reference.begin_async(step[1], start)))
            elif pending:
                ours, theirs = pending[step[1] % len(pending)]
                in_flight = 0.0 if ours.waited else ours.in_flight_ms
                before = sum(reference.shadowed_breakdown().values())
                stall, overlap, shadowed = clock.wait(ours)
                assert (stall, overlap) == reference.wait(theirs)
                assert shadowed == pytest.approx(
                    sum(reference.shadowed_breakdown().values()) - before,
                    rel=0, abs=1e-9)
                assert stall + overlap + shadowed == pytest.approx(
                    in_flight, rel=0, abs=1e-9)
            assert clock.now == reference.now
            assert clock.breakdown() == reference.breakdown()
            opened = ([] if clock._app_hi is None
                      else [(clock._app_lo, clock._app_hi)])
            flat = clock._app_intervals
            assert list(zip(flat[::2], flat[1::2])) + opened == (
                reference.intervals)

    def test_an_unknown_phase_moves_nothing(self):
        clock = SimClock()
        clock.charge("app", 1.0)
        with pytest.raises(ValueError, match="unknown phase"):
            clock.charge("disk", 2.0)
        with pytest.raises(ValueError, match="negative"):
            clock.charge("disk", -2.0)  # the sign is checked first
        assert clock.now == 1.0 and clock.breakdown() == {
            "network": 0.0, "db": 0.0, "app": 1.0}


class TestCostModel:
    def test_query_cost_scales_with_rows(self):
        cm = CostModel(per_query_overhead_ms=0.1, per_row_ms=0.01)
        assert cm.query_cost_ms(0) == pytest.approx(0.1)
        assert cm.query_cost_ms(10) == pytest.approx(0.2)


class TestParallelElapsed:
    def test_empty(self):
        assert _parallel_elapsed([], 4) == 0.0

    def test_single_worker_is_serial(self):
        assert _parallel_elapsed([1, 2, 3], 1) == 6

    def test_perfect_parallelism(self):
        assert _parallel_elapsed([1.0, 1.0, 1.0], 3) == pytest.approx(1.0)

    def test_makespan_bounds(self):
        costs = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        elapsed = _parallel_elapsed(costs, 2)
        assert max(costs) <= elapsed <= sum(costs)

    @staticmethod
    def _reference_lpt(costs, workers):
        """Longest-processing-time-first, written out: every job, longest
        first, goes to the worker with the least load so far."""
        if not costs:
            return 0.0
        if workers <= 1:
            return sum(costs)
        loads = [0.0] * min(workers, len(costs))
        for cost in sorted(costs, reverse=True):
            lightest = min(range(len(loads)), key=loads.__getitem__)
            loads[lightest] += cost
        return max(loads)

    @given(costs=st.lists(st.floats(min_value=0.0, max_value=1e9,
                                    allow_nan=False), max_size=40),
           workers=st.integers(1, 16))
    @settings(max_examples=300, deadline=None)
    def test_makespan_is_the_reference_lpt_bit_for_bit(self, costs, workers):
        # ``==``, not ``approx``: every simulated figure is a sum of these.
        elapsed = _parallel_elapsed(costs, workers)
        assert elapsed == self._reference_lpt(costs, workers)
        if 0 < len(costs) <= workers:
            # A worker each: the schedule is the identity, no load is a sum.
            assert elapsed == max(costs)


class TestDrivers:
    def test_driver_one_round_trip_per_statement(self, sim_stack):
        db, clock, server, driver, _ = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        driver.execute("INSERT INTO t (id) VALUES (1)")
        driver.execute("SELECT * FROM t")
        assert driver.stats.round_trips == 2
        assert clock.phase_time("network") > 0

    def test_batch_driver_single_round_trip(self, sim_stack):
        db, clock, server, _, batch = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(6):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        results = batch.execute_batch([
            ("SELECT v FROM t WHERE id = ?", (i,)) for i in range(6)
        ])
        assert [r.scalar() for r in results] == list(range(6))
        assert batch.stats.round_trips == 1
        assert batch.stats.largest_batch == 6

    def test_batch_reads_execute_in_parallel(self, sim_stack):
        db, clock, server, driver, batch = sim_stack
        # Result cache off: this test measures the virtual workers'
        # parallel makespan against serial re-execution of the *same*
        # statements — with caching on, the re-runs would be served from
        # the cache instead of executed (covered in test_result_cache.py).
        db.result_cache.enabled = False
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(60):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        cp = clock.checkpoint()
        batch.execute_batch([("SELECT * FROM t", ())] * 6)
        _, batched_phases = clock.since(cp)
        cp = clock.checkpoint()
        for _ in range(6):
            driver.execute("SELECT * FROM t")
        _, serial_phases = clock.since(cp)
        assert batched_phases["db"] < serial_phases["db"]

    def test_writes_in_batch_serialize(self, sim_stack):
        db, clock, server, _, batch = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        outcomes = batch.execute_batch([
            ("INSERT INTO t (id) VALUES (1)", ()),
            ("INSERT INTO t (id) VALUES (2)", ()),
        ])
        assert len(outcomes) == 2
        assert db.table_size("t") == 2

    def test_closed_driver_raises(self, sim_stack):
        _, _, _, driver, batch = sim_stack
        driver.close()
        batch.close()
        with pytest.raises(DriverError):
            driver.execute("SELECT 1 FROM t")
        with pytest.raises(DriverError):
            batch.execute_batch([("SELECT 1 FROM t", ())])

    def test_empty_batch_is_free(self, sim_stack):
        _, clock, _, _, batch = sim_stack
        assert batch.execute_batch([]) == []
        assert clock.now == 0

    def test_driver_call_burns_app_cpu(self, sim_stack):
        db, clock, _, driver, _ = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        before = clock.phase_time("app")
        driver.execute("SELECT * FROM t")
        assert clock.phase_time("app") > before

    def test_each_driver_counts_its_own_trips_and_the_server_none(
            self, sim_stack):
        db, _, server, driver, batch = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        driver.execute("SELECT * FROM t")
        batch.execute_batch([("SELECT * FROM t", ())] * 3)
        trips = [(stats.round_trips, stats.statements, stats.largest_batch)
                 for stats in (driver.stats, batch.stats)]
        assert trips == [(1, 1, 1), (1, 3, 3)]
        assert set(vars(server)) == {"database", "cost_model"}

    def test_driver_stats_surface_result_cache_hits(self, sim_stack):
        db, _, _, driver, batch = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        driver.execute("SELECT * FROM t")   # miss: populates the cache
        driver.execute("SELECT * FROM t")   # hit
        assert driver.stats.result_cache_hits == 1
        batch.execute_batch([("SELECT * FROM t", ())] * 2)  # two more hits
        assert batch.stats.result_cache_hits == 2
        assert driver.stats.result_cache_hits == 1  # each its own

    def test_the_server_counts_into_the_stats_it_is_handed(self, sim_stack):
        db, _, server, _, _ = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(4):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        scans = [("SELECT id FROM t WHERE v > ?", (i,)) for i in range(3)]
        stats = DriverStats()
        # One shared scan of the 4 rows serves 3 members: 8 touches saved.
        server.execute_batch(scans, batch_optimize=True, stats=stats)
        server.execute_batch(scans, stats=stats)  # three result-cache hits
        server.execute_one(*scans[0], stats=stats)  # and one more
        assert stats.shared_scan_groups == 1
        assert stats.shared_scan_rows_saved == 8
        assert stats.result_cache_hits == 4
        counted = dict(vars(stats))
        server.execute_batch(scans)  # no stats handed in: counted nowhere
        server.execute_one(*scans[0])
        assert vars(stats) == counted

    @pytest.mark.parametrize("batch_optimize", [False, True],
                             ids=["direct", "batch-plan"])
    def test_a_batch_that_raises_counts_nowhere(self, sim_stack,
                                                batch_optimize):
        db, _, server, driver, batch = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(4):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i))
        scans = [("SELECT id FROM t WHERE v > ?", (i,)) for i in range(2)]
        batch.execute_batch(scans)  # cached: the failing batch hits them
        stats_before = (dict(vars(driver.stats)), dict(vars(batch.stats)))
        hits_before = db.result_cache.hits
        failing = scans + [("SELECT id FROM t WHERE v < ?", (i,))
                           for i in range(2)] + [("SELECT v FROM nope", ())]
        with pytest.raises(SqlError):
            batch.execute_batch(failing, batch_optimize)
        with pytest.raises(SqlError):
            driver.execute("SELECT v FROM nope")
        assert db.result_cache.hits == hits_before + 2  # they arose...
        assert (vars(driver.stats), vars(batch.stats)) == \
            stats_before  # ...uncounted


class TestAsyncBatchDriver:
    def test_async_batch_returns_results_without_blocking(self, sim_stack):
        db, clock, _, _, batch = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(4):
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i * 2))
        app_before = clock.phase_time("app")
        completion, results = batch.execute_batch_async([
            ("SELECT v FROM t WHERE id = ?", (i,)) for i in range(4)
        ])
        # Results materialized at dispatch; no network/db time charged yet,
        # only the driver-call CPU.
        assert [r.scalar() for r in results] == [0, 2, 4, 6]
        assert clock.phase_time("network") == 0.0
        assert clock.phase_time("db") == 0.0
        assert clock.phase_time("app") > app_before
        assert batch.stats.async_batches == 1
        assert batch.stats.round_trips == 1
        # Waiting charges the full residual (no app progress happened).
        stall, overlap = batch.wait(completion)
        assert stall == pytest.approx(completion.in_flight_ms)
        assert overlap == 0.0
        assert clock.phase_time("network") > 0
        assert batch.stats.stall_ms == pytest.approx(stall)

    def test_async_overlap_reduces_stall(self, sim_stack):
        db, clock, _, _, batch = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        completion, _ = batch.execute_batch_async(
            [("SELECT * FROM t", ())])
        clock.charge("app", completion.in_flight_ms / 2)
        stall, overlap = batch.wait(completion)
        assert stall == pytest.approx(completion.in_flight_ms / 2)
        assert overlap == pytest.approx(completion.in_flight_ms / 2)
        assert batch.stats.overlap_ms == pytest.approx(overlap)

    def test_empty_async_batch_is_free(self, sim_stack):
        _, clock, _, _, batch = sim_stack
        completion, results = batch.execute_batch_async([])
        assert completion is None and results == []
        assert batch.wait(completion) == (0.0, 0.0)
        assert clock.now == 0.0

    def test_async_on_closed_driver_raises(self, sim_stack):
        _, _, _, _, batch = sim_stack
        batch.close()
        with pytest.raises(DriverError):
            batch.execute_batch_async([("SELECT 1 FROM t", ())])


def test_begin_async_accepts_any_iterable():
    clock = SimClock()
    completion = clock.begin_async(
        (phase, dt) for phase, dt in [("network", 1.0), ("db", 2.0)])
    assert completion.segments == (("network", 1.0), ("db", 2.0))
    stall, _, _ = clock.wait(completion)
    assert stall == pytest.approx(3.0)


class TestOneStatementOrABatchOfOne:
    """``execute_one(sql, params)`` against ``execute_batch([(sql, params)])``
    on twin servers: one body serves both, so rows, every counter and the
    time each charges agree step by step."""

    READ = "SELECT id, val FROM t WHERE grp = ? ORDER BY id"
    LIMITED = "SELECT id FROM t ORDER BY id LIMIT 1 + 2"  # computed LIMIT

    @staticmethod
    def _server():
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INT, "
                   "val INT)")
        for i in range(12):
            db.execute("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                       (i, i % 4, i * 10))
        return DatabaseServer(db, CostModel())

    def _step(self, one, batch, stats, sql, params=()):
        result, cost_ms = one.execute_one(sql, params, stats=stats[0])
        (twin,), elapsed_ms = batch.execute_batch(
            [(sql, params)], stats=stats[1])
        assert (result.columns, result.rows, result.rowcount) == (
            twin.columns, twin.rows, twin.rowcount)
        # The stats each twin was handed got the same counts.
        assert vars(stats[0]) == vars(stats[1])
        assert stats[0].shared_scan_groups == 0
        # A statement's standalone cost is its one-statement batch's
        # elapsed time, bit for bit.
        assert cost_ms == elapsed_ms == one.cost_model.query_cost_ms(
            result.rows_touched, from_cache=result.from_cache)
        return result

    def test_rows_counters_and_charges(self):
        one, batch = self._server(), self._server()
        stats = (DriverStats(), DriverStats())
        step = functools.partial(self._step, one, batch, stats)
        assert step(self.READ, (1,)).rows == [(1, 10), (5, 50), (9, 90)]
        hit = step(self.READ, (1,))
        assert hit.from_cache and stats[0].result_cache_hits == 1
        written = step("UPDATE t SET val = val + 1 WHERE grp = ?", (1,))
        assert written.rowcount == 3
        assert step(self.READ, (1,)).rows == [(1, 11), (5, 51), (9, 91)]
        assert step(self.LIMITED).rows == [(0,), (1,), (2,)]
