"""The query store (paper §3.3).

The query store is the batching mechanism at the heart of Sloth.  It keeps:

- a *buffer* of registered-but-unissued queries (the current batch), each
  with a unique :class:`QueryId`, and
- the map from issued query id to result set — kept *on the id*: a flush
  writes each result into the :class:`QueryId` that names it, so a result
  lives exactly as long as some thunk holds its id and the store retains
  nothing it has issued.

``register_query`` adds a read to the current batch (deduplicating against
queries already in the buffer: re-registering an identical pending query
returns the first id).  Registering a **write** (INSERT/UPDATE/DELETE/DDL or
a transaction statement) immediately flushes the whole batch — writes must
not linger, and pending reads must execute first to preserve program order
relative to the write (the appendix's [Write query] rule issues all unissued
reads before the update).

``get_result_set`` returns the id's result, or flushes the current batch in
a single round trip and then returns it.

With ``shared_scans`` enabled the store hands each flushed batch to the
server's batch-plan path (:mod:`repro.sqldb.plan.batch`), which merges
union-compatible SELECTs over one table into a single shared scan.

With ``async_dispatch`` enabled (the paper's §6.7 execution strategy) a
flushed all-read batch ships *in the background*: the statements execute
against the database at dispatch (so data ordering is byte-identical to the
synchronous path) but their network and database time stays in flight, and
``get_result_set`` stalls only for the residual if the owning batch has not
landed yet.  At most ``pipeline_depth`` batches are in flight; a write
barriers on every in-flight batch before issuing, preserving the [Write
query] ordering on the virtual timeline as well as in the data.

The pending batch is kept in the shape the driver receives it — a list of
``(sql, params)`` pairs (``params`` through the engine's ``as_params``),
ids beside it; a flush hands the list over as it is.  A read's dedup key
adds ``param_types(params)``, as the result cache's does: ``(1,)`` and
``(True,)`` are two queries.  A statement is classified here, once
(:func:`repro.sqldb.parser.is_read_statement`, a probe of the process-wide
parse cache); the server parses it once more, to execute it.  A batch is
one round trip and **fails as one**: when the driver raises, every id of
the batch remembers the exception and re-raises it on every fetch; nothing
is re-issued, and the failed batch is not counted as flushed.

The store counts what only it sees — registrations, dedup hits, batches
flushed — in :class:`QueryStoreStats`, which is also its runtime's stats
object.  What ships is counted once, by the driver
(:class:`repro.net.driver.DriverStats`: statements, largest batch).
"""

from repro.sqldb.executor import as_params, param_types
from repro.sqldb.parser import is_read_statement

#: Default bound on concurrently in-flight async batches.
DEFAULT_PIPELINE_DEPTH = 4


class QueryId:
    """Unique identifier for a query registered with one store, and the slot
    its result lands in.

    Ids are allocated per :class:`QueryStore` (no process-global counter to
    leak across stores or benchmark runs).  Only ``QueryStore._new_id``
    mints them, once per ``(store, value)``, so that pair being equal *is*
    being the same object: ids hash and compare by identity, and equal
    values from different stores stay distinct.

    ``result`` is None until the id's batch has been issued; ``completion``
    is the :class:`repro.net.clock.AsyncCompletion` of a batch shipped in
    the background, until the first fetch has waited on it; ``error`` is
    the exception the id's batch failed with, if it did (``result`` then
    stays None).  Deduplicated registrations hold the same id, hence the
    same result object.
    """

    __slots__ = ("store", "value", "result", "completion", "error")

    def __init__(self, store, value):
        self.store = store
        self.value = value
        self.result = self.completion = self.error = None

    def __repr__(self):
        return f"QueryId({self.value})"


class QueryStoreStats:
    """The one stats object of a Sloth request's ``core``: the store's
    counters, and the thunks its :class:`repro.core.runtime.SlothRuntime`
    allocates and forces (``runtime.stats`` is this object).

    What crosses the wire — statements, the largest batch, stalls and
    overlap of async batches — is the driver's to count
    (:class:`repro.net.driver.DriverStats`): the store only decides *what*
    ships and *when* to wait.
    """

    def __init__(self):
        self.queries_registered = 0
        self.dedup_hits = 0
        self.batches_flushed = 0
        self.thunks_allocated = 0
        self.forces = 0


class QueryStore:
    """Accumulates queries into batches issued over a batch driver.

    The store holds only what is *pending*: the unissued batch, its dedup
    keys and the async batches still in flight.  Issued state — result and
    completion — is on the :class:`QueryId`, so it is reclaimed when the
    last thunk holding the id goes, and a held id is always servable.

    ``auto_flush_threshold`` implements the execution strategy the paper
    sketches as future work (§6.7): when set, a batch is shipped as soon
    as it reaches that size instead of waiting for a force.

    ``shared_scans`` requests the server-side shared-scan optimization for
    every batch this store flushes.

    ``async_dispatch`` ships all-read batches in the background and blocks
    only when a forced result's batch is still in flight; ``pipeline_depth``
    bounds how many batches may be in flight at once (the oldest is awaited
    before a new one ships).
    """

    def __init__(self, batch_driver, auto_flush_threshold=None,
                 shared_scans=False, async_dispatch=False,
                 pipeline_depth=DEFAULT_PIPELINE_DEPTH):
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1: {pipeline_depth}")
        self.driver = batch_driver
        self.auto_flush_threshold = auto_flush_threshold
        self.shared_scans = shared_scans
        self.async_dispatch = async_dispatch
        self.pipeline_depth = pipeline_depth
        # The pending batch in the shape the driver receives it —
        # ``[(sql, params), ...]`` — with each statement's id in step.
        self._buffer = []
        self._buffer_ids = []
        self._pending_keys = {}  # a buffered read's key -> QueryId, for dedup
        self._in_flight = []  # AsyncCompletions in dispatch order
        self._next_id = 0
        self.stats = QueryStoreStats()

    # -- public API (paper §3.3) ---------------------------------------------

    def register_query(self, sql, params=()):
        """Add a query to the current batch; returns its :class:`QueryId`.

        Writes flush the batch immediately (including the write itself);
        duplicate pending reads return the already-registered id.
        Non-sequence ``params`` raise here, where the original executes.
        """
        params = as_params(params)
        statement = (sql, params)
        self.stats.queries_registered += 1
        if not is_read_statement(sql):
            query_id = self._new_id()
            self._buffer.append(statement)
            self._buffer_ids.append(query_id)
            self._flush(has_write=True)
            return query_id
        key = (sql, params, param_types(params))
        try:
            query_id = self._pending_keys.get(key)
            if query_id is not None:
                self.stats.dedup_hits += 1
                return query_id
            query_id = self._pending_keys[key] = self._new_id()
        except TypeError:
            # An unhashable parameter: not a dedup key, so never a twin.
            # The statement ships and the engine names the error.
            query_id = self._new_id()
        self._buffer.append(statement)
        self._buffer_ids.append(query_id)
        if (self.auto_flush_threshold is not None
                and len(self._buffer) >= self.auto_flush_threshold):
            self._flush()
        return query_id

    def get_result_set(self, query_id):
        """Result set for ``query_id``; flushes the current batch if it is
        not yet available, and — under async dispatch — stalls for the
        residual if the owning batch is still in flight.  An id whose
        batch failed re-raises that batch's exception, on every fetch."""
        if query_id.store is not self:
            # Never ours: no flush (a charged round trip) on its behalf.
            raise KeyError(f"query id from another store: {query_id!r}")
        result = query_id.result
        if result is None:
            if query_id.error is not None:
                raise query_id.error
            self._flush()
            result = query_id.result
            if result is None:
                raise KeyError(f"unknown query id: {query_id!r}")
        completion = query_id.completion
        if completion is not None:
            query_id.completion = None
            if not completion.waited:
                self._wait_completion(completion)
        return result

    @property
    def pending_count(self):
        """Number of queries waiting in the current batch."""
        return len(self._buffer)

    @property
    def in_flight_count(self):
        """Number of async batches dispatched but not yet awaited."""
        return len(self._in_flight)

    def flush(self):
        """Issue any pending batch (used at request boundaries)."""
        if self._buffer:
            self._flush()

    def drain(self):
        """Request-end barrier: wait every in-flight async batch.

        Charges only residual stalls (batches fully covered by app progress
        cost nothing here).  Does *not* flush the pending buffer: queries
        registered after the last force stay unissued, exactly like the
        synchronous path.
        """
        while self._in_flight:
            self._wait_completion(self._in_flight[0])

    def close(self):
        """Drop the pending batch unissued (request end, paper §6.1)."""
        self._buffer = []
        self._buffer_ids = []
        self._pending_keys = {}

    # -- internals -------------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return QueryId(self, self._next_id)

    def _flush(self, has_write=False):
        """Issue the pending batch.  A write is only ever appended by
        ``register_query``'s write branch, which flushes at once and says
        so — no statement is re-parsed to classify the batch."""
        batch, ids = self._buffer, self._buffer_ids
        self.close()
        if not batch:
            return
        try:
            if self.async_dispatch and not has_write:
                self._dispatch_async(batch, ids)
            else:
                # [Write query] barrier: every in-flight batch must land
                # before the write issues (its own batch still carries the
                # pending reads first, preserving program order).  Under
                # synchronous dispatch nothing ever is in flight.
                while self._in_flight:
                    self._wait_completion(self._in_flight[0])
                results = self.driver.execute_batch(
                    batch, batch_optimize=self.shared_scans)
                for query_id, result in zip(ids, results):
                    query_id.result = result
        except BaseException as error:
            # One round trip fails as one: every id of the batch remembers
            # why, nothing is re-issued and nothing is counted as flushed.
            for query_id in ids:
                query_id.error = error
            raise
        self.stats.batches_flushed += 1

    def _dispatch_async(self, batch, ids):
        """Ship an all-read batch in the background (bounded pipeline)."""
        while len(self._in_flight) >= self.pipeline_depth:
            self._wait_completion(self._in_flight[0])
        completion, results = self.driver.execute_batch_async(
            batch, batch_optimize=self.shared_scans)
        for query_id, result in zip(ids, results):
            query_id.result = result
            query_id.completion = completion
        self._in_flight.append(completion)

    def _wait_completion(self, completion):
        self.driver.wait(completion)
        self._in_flight.remove(completion)
