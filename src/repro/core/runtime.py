"""The per-request Sloth runtime.

A :class:`SlothRuntime` bundles what the paper's compiled code reaches at
execution time: the query store, the batch driver, the virtual clock (for
lazy-evaluation overhead accounting), and the optimization flags of §4:

- ``selective_compilation`` (SC, §4.1) — methods that provably never touch
  persistent data are compiled *as is*: their operations cost plain app
  time instead of thunk allocations.
- ``thunk_coalescing`` (TC, §4.3) — consecutive deferrable statements share
  one thunk block instead of allocating a thunk each.
- ``branch_deferral`` (BD, §4.2) — branches/loops whose bodies have no
  externally visible effects are deferred whole instead of forcing their
  condition (which would flush pending query batches early).

The application layer (``repro.apps``) calls :meth:`run_ops`, :meth:`defer`,
:meth:`query`, :meth:`execute_write` and ``RequestContext.if_branch`` so the
flags change both the CPU charge *and* the real batching behaviour, exactly
as in the paper's Fig. 12.
"""

from repro.core.query_store import QueryStore
from repro.core.thunk import QueryThunk, Thunk, ThunkBlock
from repro.net.clock import PHASE_APP


class OptimizationFlags:
    """Which of the paper's §4 optimizations are enabled.

    ``shared_scans`` (SS) is this reproduction's batch-level extension: the
    query store asks the server to merge union-compatible SELECTs in one
    batch into a single shared scan (:mod:`repro.sqldb.plan.batch`).  It is
    *not* part of the paper's three compile-time optimizations, so
    :meth:`all` leaves it off.
    """

    __slots__ = ("selective_compilation", "thunk_coalescing",
                 "branch_deferral", "shared_scans")

    def __init__(self, selective_compilation=True, thunk_coalescing=True,
                 branch_deferral=True, shared_scans=False):
        self.selective_compilation = selective_compilation
        self.thunk_coalescing = thunk_coalescing
        self.branch_deferral = branch_deferral
        self.shared_scans = shared_scans

    @classmethod
    def none(cls):
        return cls(False, False, False)

    @classmethod
    def all(cls):
        return cls(True, True, True)

    def label(self):
        parts = []
        if self.selective_compilation:
            parts.append("SC")
        if self.thunk_coalescing:
            parts.append("TC")
        if self.branch_deferral:
            parts.append("BD")
        if self.shared_scans:
            parts.append("SS")
        return "+".join(parts) if parts else "noopt"

    def __repr__(self):
        return f"OptimizationFlags({self.label()})"


class RuntimeStats:
    """Lazy-evaluation bookkeeping for one runtime."""

    def __init__(self):
        self.thunks_allocated = 0
        self.forces = 0
        self.ops_executed = 0
        self.branches_deferred = 0
        self.branches_forced = 0


# When thunk coalescing is on, runs of deferrable statements collapse into
# thunk blocks.  The paper reports the statement-to-thunk ratio after code
# simplification is large (each Java line expands to several three-address
# operations, §4.3), so coalescing eliminates the bulk of allocations: one
# block per ~10 operations.
_COALESCE_RUN_LENGTH = 10


class SlothRuntime:
    """Execution context for one Sloth-compiled request."""

    def __init__(self, batch_driver, clock, cost_model,
                 optimizations=None, lazy_mode=True,
                 auto_flush_threshold=None, async_dispatch=False,
                 pipeline_depth=None):
        self.driver = batch_driver
        self.clock = clock
        self.cost_model = cost_model
        self.opts = optimizations or OptimizationFlags.all()
        self.lazy_mode = lazy_mode
        store_kwargs = {}
        if pipeline_depth is not None:
            store_kwargs["pipeline_depth"] = pipeline_depth
        self.query_store = QueryStore(
            batch_driver, auto_flush_threshold=auto_flush_threshold,
            shared_scans=self.opts.shared_scans,
            async_dispatch=async_dispatch, **store_kwargs)
        self.stats = RuntimeStats()

    # -- overhead accounting hooks (called by Thunk/ThunkBlock) ---------------

    def on_thunk_allocated(self):
        self.stats.thunks_allocated += 1
        self.clock.charge(PHASE_APP, self.cost_model.thunk_alloc_ms)

    def on_force(self):
        self.stats.forces += 1
        self.clock.charge(PHASE_APP, self.cost_model.force_ms)

    # -- building blocks used by Sloth-compiled application code ---------------

    def defer(self, fn):
        """Defer a single computation into a thunk."""
        if not self.lazy_mode:
            return fn()
        return Thunk(fn, runtime=self)

    def defer_block(self, fn):
        """Defer a block with named outputs (dict) into a ThunkBlock."""
        if not self.lazy_mode:
            return fn()
        return ThunkBlock(fn, runtime=self)

    def query(self, sql, params=(), deserialize=None):
        """Register a read and return its thunk (§3.3).

        In non-lazy (original application) mode the query executes
        immediately through the driver — one round trip, nothing
        registered — and the deserialized value is returned.
        """
        if not self.lazy_mode:
            result = self.driver.execute(sql, params)
            return result if deserialize is None else deserialize(result)
        return QueryThunk(self.query_store, sql, params, deserialize,
                          runtime=self)

    def execute_write(self, sql, params=()):
        """Writes are never deferred, so they have no thunk: registering
        one flushes it, and its result is on its id; in non-lazy mode, one
        round trip through the driver."""
        if not self.lazy_mode:
            return self.driver.execute(sql, params)
        return self.query_store.register_query(sql, params).result

    # -- modelled application work ---------------------------------------------

    def run_ops(self, count, persistent=True):
        """Charge CPU time for ``count`` simple operations of application
        code.

        Under lazy compilation each operation allocates a thunk (the paper's
        "substantial runtime overhead", §3.2).  SC exempts operations in
        non-persistent methods; TC coalesces runs of operations into thunk
        blocks.
        """
        self.stats.ops_executed += count
        model = self.cost_model
        if not self.lazy_mode:
            self.clock.charge(PHASE_APP, model.app_op_ms * count)
            return
        if not persistent and self.opts.selective_compilation:
            # Compiled as-is: plain execution cost.
            self.clock.charge(PHASE_APP, model.app_op_ms * count)
            return
        # Lazified straight-line code contains branch points whose
        # conditions the basic compiler forces (§3.6); each force flushes
        # whatever batch has accumulated.  Branch deferral (§4.2) is what
        # removes these barriers — without it, batching opportunities
        # collapse ("we would have lost all the benefits from round trip
        # reductions", §6.5).  A forced condition *needs* its results, so
        # under async dispatch this is a true barrier: the flushed batch
        # (and anything else in flight) must land before the ops proceed.
        if not self.opts.branch_deferral:
            self.stats.branches_forced += 1
            self.query_store.flush()
            self.query_store.drain()
        if self.opts.thunk_coalescing:
            blocks, remainder = divmod(count, _COALESCE_RUN_LENGTH)
            thunk_count = blocks + (1 if remainder else 0)
        else:
            thunk_count = count
        self.stats.thunks_allocated += thunk_count
        self.clock.charge(
            PHASE_APP,
            model.thunk_alloc_ms * thunk_count
            + model.force_ms * thunk_count
            + model.app_op_ms * count)
        self.stats.forces += thunk_count

    def finish_request(self):
        """End-of-request barrier: flush any pending batch (the page is
        about to be externalized) and land every in-flight async batch."""
        self.query_store.flush()
        self.query_store.drain()
