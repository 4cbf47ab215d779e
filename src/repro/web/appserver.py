"""The application server: request lifecycle + measurement hooks.

An :class:`AppServer` hosts one application (a dispatcher full of
controllers and templates) over one database server, in either of two modes:

- ``original`` — the unmodified application: every query is one round trip
  through :class:`repro.net.driver.Driver`; templates evaluate eagerly.
- ``sloth`` — the Sloth-compiled application: a fresh
  :class:`repro.core.runtime.SlothRuntime` per request batches queries
  through the :class:`repro.net.driver.BatchDriver`; templates defer.
  With ``async_dispatch=True`` (plus an ``auto_flush_threshold``) the
  per-request query store ships batches in the background and overlaps
  their round trips with continued lazy evaluation (§6.7); the request
  drains every in-flight batch at render end.

``load_page`` runs one full request (controller → view render → writer
flush) and returns a :class:`PageLoadResult` with the virtual-time breakdown
and the query/round-trip counters the paper's evaluation reports.
"""

from repro.core.runtime import OptimizationFlags, SlothRuntime
from repro.net.clock import PHASE_APP, SimClock
from repro.net.driver import BatchDriver, Driver
from repro.net.server import DatabaseServer
from repro.orm.session import OriginalBackend, Session, SlothBackend
from repro.web.writer import ThunkWriter

MODE_ORIGINAL = "original"
MODE_SLOTH = "sloth"


class RequestContext:
    """Everything a controller needs for one request."""

    def __init__(self, session, runtime, request, mode):
        self.session = session
        self.runtime = runtime
        self.request = request
        self.mode = mode

    @property
    def lazy_mode(self):
        return self.mode == MODE_SLOTH

    def run_ops(self, count, persistent=True):
        """Model ``count`` simple statements of controller code."""
        self.runtime.run_ops(count, persistent=persistent)

    def defer(self, fn):
        """Defer a computation under Sloth; execute it now otherwise."""
        return self.runtime.defer(fn)

    def if_branch(self, cond_fn, then_fn, else_fn=None, deferrable=True):
        """A branch in Sloth-compiled style (paper §4.2).

        With branch deferral on and a deferrable body, the *whole* branch —
        condition included — becomes one thunk: evaluating ``cond_fn`` (which
        typically forces query results) is postponed, keeping pending batches
        intact.  Otherwise the condition evaluates immediately.
        """
        if self.lazy_mode and deferrable \
                and self.runtime.opts.branch_deferral:
            return self.runtime.defer(
                lambda: then_fn() if cond_fn() else (
                    else_fn() if else_fn is not None else None))
        if cond_fn():
            return then_fn()
        return else_fn() if else_fn is not None else None

    def has_privilege(self, name):
        """Authentication/privilege check (forces nothing; request-local)."""
        user = self.request.user
        return user is not None and name in user.get("privileges", ())


class PageLoadResult:
    """Outcome of one page load."""

    def __init__(self, url, html, time_ms, phases, round_trips,
                 queries_issued, largest_batch, queries_registered,
                 shared_scan_rows_saved=0, result_cache_hits=0,
                 async_batches=0, stall_ms=0.0, overlap_ms=0.0,
                 shadowed_ms=0.0):
        self.url = url
        self.html = html
        self.time_ms = time_ms
        self.phases = phases  # {"network": ms, "db": ms, "app": ms}
        self.round_trips = round_trips
        self.queries_issued = queries_issued
        self.largest_batch = largest_batch
        self.queries_registered = queries_registered
        # Storage-row touches avoided by the batch shared-scan optimizer
        # (0 unless OptimizationFlags.shared_scans is on).
        self.shared_scan_rows_saved = shared_scan_rows_saved
        # SELECTs served from the database's cross-request result cache
        # during this load (a hot repeated page executes nothing).
        self.result_cache_hits = result_cache_hits
        # Async dispatch (§6.7): batches shipped in the background, the
        # residual network+db time the request actually stalled on, and
        # the in-flight time hidden behind concurrent app work.  The
        # phases breakdown counts only the stall, so phase totals still
        # sum to ``time_ms``.
        self.async_batches = async_batches
        self.stall_ms = stall_ms
        self.overlap_ms = overlap_ms
        # In-flight time hidden behind *non-app* clock advances — under
        # concurrent serving, mostly other requests' stalls on the shared
        # db work queue.  stall + overlap + shadowed equals the total
        # in-flight time of this request's async batches.
        self.shadowed_ms = shadowed_ms

    def __repr__(self):
        return (f"PageLoadResult({self.url!r}, {self.time_ms:.2f} ms, "
                f"{self.round_trips} round trips, "
                f"{self.queries_issued} queries)")


class AppServer:
    """Hosts an application over a database in one of the two modes."""

    def __init__(self, database, dispatcher, cost_model, mode=MODE_ORIGINAL,
                 optimizations=None, clock=None, async_dispatch=False,
                 auto_flush_threshold=None, pipeline_depth=None,
                 driver_factory=None):
        if mode not in (MODE_ORIGINAL, MODE_SLOTH):
            raise ValueError(f"unknown mode {mode!r}")
        if async_dispatch and mode != MODE_SLOTH:
            raise ValueError("async dispatch requires the sloth mode")
        self.database = database
        self.dispatcher = dispatcher
        self.cost_model = cost_model
        self.mode = mode
        self.optimizations = optimizations or OptimizationFlags.all()
        self.clock = clock or SimClock()
        self.db_server = DatabaseServer(database, cost_model)
        # §6.7 execution strategy: ship threshold flushes in the background
        # and overlap their round trips with continued lazy evaluation.
        self.async_dispatch = async_dispatch
        self.auto_flush_threshold = auto_flush_threshold
        self.pipeline_depth = pipeline_depth
        # Optional driver constructor ``(server, clock, cost_model) ->
        # driver`` replacing the mode's default Driver/BatchDriver — the
        # concurrent serving layer's tracing seam.
        self.driver_factory = driver_factory

    #: privileges granted to the synthetic logged-in user when a request
    #: carries no explicit user (benchmarks run authenticated, as in the
    #: paper's setup).
    DEFAULT_USER = {"name": "user1",
                    "privileges": ("VIEW_PATIENTS", "EDIT_ISSUES")}

    def load_page(self, request):
        """Run one request and measure it."""
        if request.user is None:
            request.user = dict(self.DEFAULT_USER)
        controller, template = self.dispatcher.route(request.url)
        checkpoint = self.clock.checkpoint()

        make_driver = self.driver_factory
        if self.mode == MODE_SLOTH:
            if make_driver is None:
                make_driver = BatchDriver
            driver = make_driver(self.db_server, self.clock, self.cost_model)
            runtime = SlothRuntime(driver, self.clock, self.cost_model,
                                   optimizations=self.optimizations,
                                   lazy_mode=True,
                                   auto_flush_threshold=(
                                       self.auto_flush_threshold),
                                   async_dispatch=self.async_dispatch,
                                   pipeline_depth=self.pipeline_depth)
            backend = SlothBackend(runtime)
        else:
            if make_driver is None:
                make_driver = Driver
            driver = make_driver(self.db_server, self.clock, self.cost_model)
            runtime = SlothRuntime(driver, self.clock, self.cost_model,
                                   lazy_mode=False)
            backend = OriginalBackend(driver)

        session = Session(backend)
        ctx = RequestContext(session, runtime, request, self.mode)

        try:
            mav = controller(ctx, request)
            writer = ThunkWriter()
            # Template thunks are entries of the extended JSP writer's
            # buffer (paper §5, writeThunk): one app op per entry (a text
            # node or an executed cell), not a per-thunk allocation.
            template.render(mav.model, writer,
                            lazy_mode=self.mode == MODE_SLOTH)
            self.clock.charge(PHASE_APP, self.cost_model.app_op_ms
                              * max(1, len(writer.buffer)))
            html = writer.flush()
            # No query-store flush: queries registered after the last force
            # are never issued, so Sloth can issue *fewer* queries than the
            # original (paper §6.1).  The render-end drain lands background
            # batches, charging residual stalls only (sync: a no-op).
            if self.mode == MODE_SLOTH:
                runtime.query_store.drain()
        finally:  # ARCHITECTURE.md, "Request lifetime"
            session.close()
            runtime.query_store.close()

        elapsed, phases = self.clock.since(checkpoint)
        if self.mode == MODE_SLOTH:
            registered = runtime.query_store.stats.queries_registered
        else:
            registered = driver.stats.statements
        return PageLoadResult(
            url=request.url,
            html=html,
            time_ms=elapsed,
            phases=phases,
            round_trips=driver.stats.round_trips,
            queries_issued=driver.stats.statements,
            largest_batch=driver.stats.largest_batch,
            queries_registered=registered,
            shared_scan_rows_saved=driver.stats.shared_scan_rows_saved,
            result_cache_hits=driver.stats.result_cache_hits,
            async_batches=driver.stats.async_batches,
            stall_ms=driver.stats.stall_ms,
            overlap_ms=driver.stats.overlap_ms,
            shadowed_ms=driver.stats.shadowed_ms,
        )
