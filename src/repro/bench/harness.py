"""Page-load measurement harness.

``compare_pages`` loads every benchmark URL under both modes — the paper's
§6.1 methodology: servers restarted between measurements (we build a fresh
app server per page so no cross-page cache effects), forms pre-filled with
valid ids (controllers default their parameters to valid rows).
"""

from repro.core.runtime import OptimizationFlags
from repro.net.clock import CostModel, PHASE_DB, PHASE_NETWORK, SimClock
from repro.net.driver import BatchDriver, Driver
from repro.net.server import DatabaseServer
from repro.web.appserver import AppServer, MODE_ORIGINAL, MODE_SLOTH
from repro.web.framework import Request

#: Harness-level mode: Sloth with background (asynchronous) batch dispatch
#: (§6.7).  Not used by the cold-load figure experiments — those keep the
#: paper's synchronous methodology — only by the async-overlap experiment
#: and anything that opts in explicitly.
MODE_ASYNC = "async_dispatch"

#: Auto-flush threshold the async mode uses when none is given: batches
#: ship in the background as soon as this many reads have registered.
#: (The in-flight bound defaults to the query store's own
#: ``DEFAULT_PIPELINE_DEPTH``.)
ASYNC_FLUSH_THRESHOLD = 4


class PageComparison:
    """Original-vs-Sloth measurements for one benchmark page."""

    def __init__(self, url, original, sloth):
        self.url = url
        self.original = original
        self.sloth = sloth

    @property
    def speedup(self):
        return self.original.time_ms / self.sloth.time_ms

    @property
    def round_trip_ratio(self):
        return self.original.round_trips / max(1, self.sloth.round_trips)

    @property
    def queries_ratio(self):
        return (self.original.queries_issued
                / max(1, self.sloth.queries_issued))

    def __repr__(self):
        return (f"PageComparison({self.url!r}, speedup={self.speedup:.2f}, "
                f"rt_ratio={self.round_trip_ratio:.2f})")


def load_page(db, dispatcher, url, cost_model=None, mode=MODE_SLOTH,
              optimizations=None, params=None, result_cache=False,
              auto_flush_threshold=None, pipeline_depth=None):
    """Load one page on a fresh app server; returns PageLoadResult.

    ``mode`` accepts the two app-server modes plus :data:`MODE_ASYNC`,
    which runs the Sloth mode with background batch dispatch (defaulting
    ``auto_flush_threshold`` to :data:`ASYNC_FLUSH_THRESHOLD`; an unset
    ``pipeline_depth`` falls through to the query store's own default).
    Passing an
    ``auto_flush_threshold`` with ``mode=MODE_SLOTH`` gives the matching
    *synchronous* threshold-flushing run — identical batches, blocking
    dispatch — which is the apples-to-apples baseline for the overlap
    measurements.

    By default the database's cross-request result cache is suspended for
    the load: the figure experiments measure cold page loads (the paper
    restarts servers between measurements), and several of them load the
    same URL repeatedly on one database under different flags — cached
    rows would flatten exactly the deltas they report.  The hot-page cache
    experiment (``repro.bench.experiments.hot_page_cache``) passes
    ``result_cache=True`` to measure the cache instead.
    """
    cost_model = cost_model or CostModel()
    async_dispatch = mode == MODE_ASYNC
    if async_dispatch:
        mode = MODE_SLOTH
        if auto_flush_threshold is None:
            auto_flush_threshold = ASYNC_FLUSH_THRESHOLD
    server = AppServer(db, dispatcher, cost_model, mode=mode,
                       optimizations=optimizations,
                       async_dispatch=async_dispatch,
                       auto_flush_threshold=auto_flush_threshold,
                       pipeline_depth=pipeline_depth)
    was_enabled = db.result_cache.enabled
    db.result_cache.enabled = result_cache and was_enabled
    try:
        return server.load_page(Request(url, params or {}))
    finally:
        db.result_cache.enabled = was_enabled


def compare_pages(db, dispatcher, urls, cost_model=None, optimizations=None):
    """Measure every URL under both modes; returns PageComparison list."""
    cost_model = cost_model or CostModel()
    results = []
    for url in urls:
        original = load_page(db, dispatcher, url, cost_model, MODE_ORIGINAL)
        sloth = load_page(db, dispatcher, url, cost_model, MODE_SLOTH,
                          optimizations)
        results.append(PageComparison(url, original, sloth))
    return results


def async_dispatch_record(pages, sync_ms, async_ms, sync_netdb_ms,
                          async_netdb_ms, stall_ms, overlap_ms,
                          async_batches, identical, regressions):
    """The record shape every async-dispatch measurement reports."""
    return {
        "pages": pages,
        "sync_ms": round(sync_ms, 3),
        "async_ms": round(async_ms, 3),
        "speedup": round(sync_ms / async_ms, 3),
        # Network+db the sync run charged vs the residual the async run
        # stalled for; the gap is the overlap.
        "sync_netdb_ms": round(sync_netdb_ms, 3),
        "async_netdb_ms": round(async_netdb_ms, 3),
        "stall_ms": round(stall_ms, 3),
        "overlap_ms": round(overlap_ms, 3),
        "async_batches": async_batches,
        "identical": identical,
        "regressions": regressions,
    }


def compare_async_dispatch(db, dispatcher, urls, cost_model=None,
                           auto_flush_threshold=None):
    """Sync-vs-async dispatch over ``urls``; returns one aggregate record.

    Both series flush at the same ``auto_flush_threshold`` (default
    :data:`ASYNC_FLUSH_THRESHOLD`) so they issue identical batches; only
    the dispatch discipline differs.  The record also carries the
    differential-equivalence evidence: whether every page rendered
    byte-identically and how many pages (if any) got slower under async.
    """
    cost_model = cost_model or CostModel()
    if auto_flush_threshold is None:
        auto_flush_threshold = ASYNC_FLUSH_THRESHOLD
    sync_ms = async_ms = 0.0
    sync_netdb_ms = async_netdb_ms = 0.0
    stall_ms = overlap_ms = 0.0
    async_batches = 0
    identical = True
    regressions = 0
    for url in urls:
        sync = load_page(db, dispatcher, url, cost_model, MODE_SLOTH,
                         auto_flush_threshold=auto_flush_threshold)
        asyn = load_page(db, dispatcher, url, cost_model, MODE_ASYNC,
                         auto_flush_threshold=auto_flush_threshold)
        sync_ms += sync.time_ms
        async_ms += asyn.time_ms
        sync_netdb_ms += sync.phases[PHASE_NETWORK] + sync.phases[PHASE_DB]
        async_netdb_ms += asyn.phases[PHASE_NETWORK] + asyn.phases[PHASE_DB]
        stall_ms += asyn.stall_ms
        overlap_ms += asyn.overlap_ms
        async_batches += asyn.async_batches
        identical = identical and sync.html == asyn.html
        if asyn.time_ms > sync.time_ms + 1e-9:
            regressions += 1
    return async_dispatch_record(
        len(urls), sync_ms, async_ms, sync_netdb_ms, async_netdb_ms,
        stall_ms, overlap_ms, async_batches, identical, regressions)


def measure_tpc_overhead(seed_fn, runner_factory, schedule, cost_model=None):
    """Run a TPC schedule under both modes; returns (orig_ms, sloth_ms).

    ``schedule`` is a list of (kind, index) pairs; ``runner_factory(client)``
    builds the workload runner.  Each mode gets a freshly seeded database
    (transactions mutate state).
    """
    # Cold path (once per experiment): page-load users skip the TPC stack.
    from repro.apps.tpcc.transactions import OriginalClient, SlothClient
    from repro.core.runtime import SlothRuntime
    from repro.sqldb import Database

    cost_model = cost_model or CostModel()

    def run_original():
        # Result cache off, like load_page: the overhead figures measure
        # cold execution (TPC schedules repeat identical reads, which the
        # cache would otherwise serve at the flat hit cost).
        db = Database(result_cache_size=0)
        seed_fn(db)
        clock = SimClock()
        driver = Driver(DatabaseServer(db, cost_model), clock, cost_model)
        runner = runner_factory(OriginalClient(driver, clock, cost_model))
        _run_schedule(runner, schedule)
        return clock.now

    def run_sloth():
        db = Database(result_cache_size=0)
        seed_fn(db)
        clock = SimClock()
        driver = BatchDriver(DatabaseServer(db, cost_model), clock,
                             cost_model)
        runtime = SlothRuntime(driver, clock, cost_model,
                               optimizations=OptimizationFlags.all())
        runner = runner_factory(SlothClient(runtime))
        _run_schedule(runner, schedule)
        return clock.now

    return run_original(), run_sloth()


def _run_schedule(runner, schedule):
    for kind, index in schedule:
        runner.run(kind, index)
