"""Concurrent serving: trace recording, the shared db work queue, and
cross-request query merging.

The replay mechanics are pinned with hand-built traces (exact queueing and
overlap arithmetic on a cost model with one db worker where parallelism
would hide the effect), then the full record-and-replay pipeline runs over
real itracker pages for the dominance and determinism properties.
"""

import pytest

from repro.net.clock import CostModel
from repro.net.concurrent import (PageTrace, StatementTrace, TraceBatch,
                                  TraceWait, record_page_trace,
                                  record_traces, simulate_concurrent)


def _page(events, app_tail_ms=0.0, url="synthetic"):
    trace = PageTrace()
    trace.url = url
    trace.events = list(events)
    trace.app_tail_ms = app_tail_ms
    for event in events:
        if isinstance(event, TraceBatch):
            trace.statements += len(event.statements)
    return trace


def _read(cost, share_key=None, scan_rows=0, pk_keys=None):
    return StatementTrace("SELECT 1", cost, True, share_key=share_key,
                          scan_rows=scan_rows, pk_keys=pk_keys)


class TestReplayMechanics:
    def test_sync_batch_charges_queueing_plus_service(self):
        # Three users, one db worker: rounds serialize and later arrivals
        # queue.  Every user ships one sync batch costing 2 ms at t=0.
        model = CostModel(db_workers=1)
        trace = _page([TraceBatch(0, "sync", 0.0, 0.5, [_read(2.0)])])
        result = simulate_concurrent([trace], 3, cost_model=model)
        # All three arrive at 0.5 and execute as ONE round of 3 jobs on 1
        # worker: service 6, everyone completes at 6.5.
        assert result.rounds == 1
        assert result.largest_round == 3
        for page in result.pages:
            assert page.response_ms == pytest.approx(6.5)
            assert page.phases["network"] == pytest.approx(0.5)
            assert page.phases["db"] == pytest.approx(6.0)
            assert page.queue_ms == pytest.approx(0.0)

    def test_staggered_arrivals_pay_queueing_delay(self):
        # Second user dispatches 1 ms later (app_before) and its batch
        # arrives mid-round: it queues until the first round finishes.
        model = CostModel(db_workers=1)
        fast = _page([TraceBatch(0, "sync", 0.0, 0.5, [_read(2.0)])])
        late = _page([TraceBatch(0, "sync", 1.0, 0.5, [_read(2.0)])])
        result = simulate_concurrent([fast, late], 2, cost_model=model)
        fast_page = min(result.pages, key=lambda p: p.queue_ms)
        late_page = max(result.pages, key=lambda p: p.queue_ms)
        # fast: arrives 0.5, runs 0.5..2.5, response 2.5.
        assert fast_page.response_ms == pytest.approx(2.5)
        # late: dispatch at 1.0, arrives 1.5, waits until 2.5, runs to 4.5
        # — db phase carries queueing (1.0) + service (2.0).
        assert late_page.queue_ms == pytest.approx(1.0)
        assert late_page.response_ms == pytest.approx(4.5)
        assert late_page.phases["db"] == pytest.approx(3.0)

    def test_one_queue_serves_every_request(self):
        # Two users scanning different tables, one db worker: both
        # arrivals join one round that serves the two scans back to back
        # — one database, one queue — and the database is never busier
        # than the run is long.
        model = CostModel(db_workers=1)
        scan_cost = model.query_cost_ms(100)
        a = _page([TraceBatch(0, "sync", 0.0, 0.5,
                              [_read(scan_cost, ("scan", "a"), 100)])])
        b = _page([TraceBatch(0, "sync", 0.0, 0.5,
                              [_read(scan_cost, ("scan", "b"), 100)])])
        result = simulate_concurrent([a, b], 2, cost_model=model)
        assert result.rounds == 1
        assert result.merged_scan_groups == 0
        for page in result.pages:
            assert page.response_ms == pytest.approx(0.5 + 2 * scan_cost)
        assert result.db_utilization <= 1.0

    def test_async_wait_splits_stall_and_overlap(self):
        # Dispatch async at t=0, do 1 ms of app work, then wait.  The
        # in-flight timeline is 0.5 net + 2.0 db = 2.5; 1 ms hides behind
        # app work (overlap), 1.5 ms is a true stall.
        model = CostModel(db_workers=1)
        trace = _page([
            TraceBatch(0, "async", 0.0, 0.5, [_read(2.0)]),
            TraceWait(0, 1.0),
        ])
        result = simulate_concurrent([trace], 1, cost_model=model)
        page = result.pages[0]
        assert page.response_ms == pytest.approx(2.5)
        assert page.overlap_ms == pytest.approx(1.0)
        assert page.stall_ms == pytest.approx(1.5)
        assert page.phases["app"] == pytest.approx(1.0)

    def test_contended_async_wait_charges_shadowed_queueing(self):
        # Two users dispatch the same async batch at t=0; one db worker
        # forces a 2-round serialization... except both arrive at the same
        # instant, so they share one round of two jobs (service 4).  Each
        # request's wait then stalls on queueing-inflated db time.
        model = CostModel(db_workers=1)
        trace = _page([
            TraceBatch(0, "async", 0.0, 0.5, [_read(2.0)]),
            TraceWait(0, 1.0),
        ])
        result = simulate_concurrent([trace], 2, cost_model=model)
        for page in result.pages:
            # in-flight 0.5 + 4.0; app hid 1.0; stall = 3.5.
            assert page.response_ms == pytest.approx(4.5)
            assert page.stall_ms == pytest.approx(3.5)
            assert page.overlap_ms == pytest.approx(1.0)

    def test_phase_totals_sum_to_response(self):
        model = CostModel()
        trace = _page([
            TraceBatch(0, "async", 0.3, 0.5, [_read(1.0), _read(0.4)]),
            TraceBatch(1, "async", 0.2, 0.5, [_read(0.7)]),
            TraceWait(0, 0.1),
            TraceWait(1, 0.0),
        ], app_tail_ms=0.4)
        result = simulate_concurrent([trace], 7, cost_model=model,
                                     pages_per_user=3)
        assert len(result.pages) == 21
        for page in result.pages:
            assert sum(page.phases.values()) == pytest.approx(
                page.response_ms)

    def test_deterministic_replay(self):
        model = CostModel()
        trace = _page([
            TraceBatch(0, "async", 0.2, 0.5, [_read(1.0)]),
            TraceWait(0, 0.5),
            TraceBatch(1, "sync", 0.1, 0.5, [_read(0.3)]),
        ])
        a = simulate_concurrent([trace], 13, cost_model=model,
                                pages_per_user=2)
        b = simulate_concurrent([trace], 13, cost_model=model,
                                pages_per_user=2)
        assert a.summary() == b.summary()
        assert [p.response_ms for p in a.pages] == \
            [p.response_ms for p in b.pages]


class TestCrossRequestSharing:
    def test_co_queued_scans_merge_to_one(self):
        # Two requests' batches in one round, both sequentially scanning
        # the same 200-row table.  Shared: one scan.  Unshared: two.
        model = CostModel(db_workers=1)
        scan_cost = model.query_cost_ms(200)
        trace = _page([TraceBatch(0, "sync", 0.0, 0.5,
                                  [_read(scan_cost, ("scan", "t"), 200)])])
        shared = simulate_concurrent([trace], 2, cost_model=model)
        unshared = simulate_concurrent([trace], 2, cost_model=model,
                                       share_queries=False)
        assert shared.merged_scan_groups == 1
        assert shared.rows_saved == 200
        assert unshared.merged_scan_groups == 0
        assert shared.db_busy_ms == pytest.approx(scan_cost)
        assert unshared.db_busy_ms == pytest.approx(2 * scan_cost)

    def test_co_queued_pk_probes_merge_key_unions(self):
        # pk IN probes from two requests over one table: merged they cost
        # one dispatch over the union of the key sets.
        model = CostModel(db_workers=1)
        a = _page([TraceBatch(0, "sync", 0.0, 0.5, [_read(
            model.per_query_overhead_ms + 2 * model.per_row_ms,
            ("pk", "t"), pk_keys=frozenset({1, 2}))])])
        b = _page([TraceBatch(0, "sync", 0.0, 0.5, [_read(
            model.per_query_overhead_ms + 2 * model.per_row_ms,
            ("pk", "t"), pk_keys=frozenset({2, 3}))])])
        shared = simulate_concurrent([a, b], 2, cost_model=model)
        unshared = simulate_concurrent([a, b], 2, cost_model=model,
                                       share_queries=False)
        assert shared.merged_pk_groups == 1
        assert shared.pk_probes_saved == 1  # key 2 probed once, not twice
        expected = model.per_query_overhead_ms + 3 * model.per_row_ms
        assert shared.db_busy_ms == pytest.approx(expected)
        assert unshared.merged_pk_groups == 0
        assert unshared.db_busy_ms > shared.db_busy_ms

    def test_unshared_still_merges_within_one_batch(self):
        # The unshared baseline keeps intra-request sharing: two scans of
        # one table inside a single batch merge even with sharing off.
        model = CostModel(db_workers=1)
        scan_cost = model.query_cost_ms(100)
        trace = _page([TraceBatch(0, "sync", 0.0, 0.5, [
            _read(scan_cost, ("scan", "t"), 100),
            _read(scan_cost, ("scan", "t"), 100),
        ])])
        unshared = simulate_concurrent([trace], 1, cost_model=model,
                                       share_queries=False)
        assert unshared.merged_scan_groups == 1
        assert unshared.db_busy_ms == pytest.approx(scan_cost)


class TestRecordedWorkload:
    @pytest.fixture(scope="class")
    def traces(self):
        from repro.apps import itracker

        db, dispatcher = itracker.build_app()
        return db, dispatcher, record_traces(
            db, dispatcher, itracker.BENCHMARK_URLS[:6])

    def test_traces_record_real_pages(self, traces):
        db, dispatcher, recorded = traces
        from repro.bench.harness import MODE_ASYNC, load_page

        for trace in recorded:
            assert trace.statements > 0
            assert any(isinstance(e, TraceBatch) for e in trace.events)
            reference = load_page(db, dispatcher, trace.url, mode=MODE_ASYNC)
            assert trace.html == reference.html  # recording IS a real load

    def test_sharing_dominates_at_every_user_count(self, traces):
        _db, _dispatcher, recorded = traces
        for users in (1, 8, 64):
            shared = simulate_concurrent(recorded, users, pages_per_user=2)
            unshared = simulate_concurrent(recorded, users,
                                           pages_per_user=2,
                                           share_queries=False)
            assert shared.throughput_pps >= unshared.throughput_pps - 1e-9
            assert shared.mean_response_ms <= \
                unshared.mean_response_ms + 1e-9

    def test_contention_builds_queueing_delay(self, traces):
        _db, _dispatcher, recorded = traces
        light = simulate_concurrent(recorded, 1, share_queries=False)
        heavy = simulate_concurrent(recorded, 64, share_queries=False)
        assert heavy.total_queue_ms > light.total_queue_ms
        assert heavy.db_utilization > 0.5
        assert heavy.db_busy_ms <= heavy.makespan_ms + 1e-9

    def test_replay_is_deterministic_end_to_end(self, traces):
        db, dispatcher, recorded = traces
        again = record_traces(db, dispatcher,
                              [t.url for t in recorded])
        first = simulate_concurrent(recorded, 16, pages_per_user=2)
        second = simulate_concurrent(again, 16, pages_per_user=2)
        assert first.summary() == second.summary()

    def test_single_user_matches_serial_shape(self, traces):
        _db, _dispatcher, recorded = traces
        result = simulate_concurrent([recorded[0]], 1)
        page = result.pages[0]
        # Alone on the database the replayed response stays within a few
        # percent of the recorded serial load (intra-batch merging may
        # only make it cheaper).
        assert page.response_ms <= recorded[0].serial_time_ms * 1.05
        assert page.response_ms >= recorded[0].serial_time_ms * 0.5


class TestRecordingSeams:
    def test_record_page_trace_restores_result_cache(self):
        from repro.apps import itracker

        db, dispatcher = itracker.build_app()
        assert db.result_cache.enabled
        record_page_trace(db, dispatcher, itracker.BENCHMARK_URLS[0])
        assert db.result_cache.enabled
