"""The query store (paper §3.3).

The query store is the batching mechanism at the heart of Sloth.  It keeps:

- a *buffer* of registered-but-unissued queries (the current batch), each
  with a unique :class:`QueryId`, and
- a *result store* mapping issued query ids to their result sets.

``register_query`` adds a read to the current batch (deduplicating against
queries already in the buffer: re-registering an identical pending query
returns the first id).  Registering a **write** (INSERT/UPDATE/DELETE/DDL or
a transaction statement) immediately flushes the whole batch — writes must
not linger, and pending reads must execute first to preserve program order
relative to the write (the appendix's [Write query] rule issues all unissued
reads before the update).

``get_result_set`` returns a cached result, or flushes the current batch in
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

Delivered results are evicted at ``flush()``/``drain()`` request boundaries
(reference-counted, so an id shared by deduplicated registrations survives
until every holder has fetched) and the result store is LRU-bounded
(``result_store_limit``) so a long-lived store does not retain every result
ever fetched.

Write-vs-read classification goes through the process-wide LRU parse cache
(:func:`repro.sqldb.parser.is_read_statement`), shared with the simulated
server: each distinct SQL string is parsed once per process no matter how
many stores, servers or benchmark runs touch it.
"""

from collections import OrderedDict
from itertools import islice

from repro.sqldb.parser import is_read_statement

#: Default bound on concurrently in-flight async batches.
DEFAULT_PIPELINE_DEPTH = 4

#: Default LRU bound on retained (issued) results; only results that have
#: already been delivered at least once are ever evicted.
DEFAULT_RESULT_STORE_LIMIT = 4096


class QueryId:
    """Unique identifier for a query registered with one store.

    Ids are allocated per :class:`QueryStore` (no process-global counter to
    leak across stores or benchmark runs).  Only ``QueryStore._new_id``
    mints them, once per ``(store, value)``, so that pair being equal *is*
    being the same object: ids hash and compare by identity, and equal
    values from different stores stay distinct.
    """

    __slots__ = ("store", "value")

    def __init__(self, store, value):
        self.store = store
        self.value = value

    def __repr__(self):
        return f"QueryId({self.value})"


class QueryStoreStats:
    """Counters the benchmarks read out of a query store."""

    def __init__(self):
        self.queries_registered = 0
        self.dedup_hits = 0
        self.batches_flushed = 0
        self.largest_batch = 0
        self.queries_issued = 0
        self.async_batches = 0
        self.stall_ms = 0.0
        self.overlap_ms = 0.0
        self.shadowed_ms = 0.0
        self.results_evicted = 0

    def snapshot(self):
        return {
            "queries_registered": self.queries_registered,
            "dedup_hits": self.dedup_hits,
            "batches_flushed": self.batches_flushed,
            "largest_batch": self.largest_batch,
            "queries_issued": self.queries_issued,
            "async_batches": self.async_batches,
            "stall_ms": self.stall_ms,
            "overlap_ms": self.overlap_ms,
            "shadowed_ms": self.shadowed_ms,
            "results_evicted": self.results_evicted,
        }


class QueryStore:
    """Accumulates queries into batches issued over a batch driver.

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
                 pipeline_depth=DEFAULT_PIPELINE_DEPTH,
                 result_store_limit=DEFAULT_RESULT_STORE_LIMIT):
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1: {pipeline_depth}")
        self.driver = batch_driver
        self.auto_flush_threshold = auto_flush_threshold
        self.shared_scans = shared_scans
        self.async_dispatch = async_dispatch
        self.pipeline_depth = pipeline_depth
        self.result_store_limit = result_store_limit
        self._buffer = []  # list of (QueryId, sql, params)
        self._buffer_has_write = False
        self._pending_keys = {}  # (sql, params) -> QueryId, for dedup
        self._results = {}  # QueryId -> ExecResult, in issue order
        self._owner = {}  # QueryId -> AsyncCompletion while batch in flight
        self._in_flight = []  # AsyncCompletions in dispatch order
        # QueryId -> None, in delivery (LRU) order.  Linked, not a plain
        # dict: the limit backstop takes the oldest entry after every flush,
        # and a dict iterator first steps over every slot deleted ahead of it.
        self._delivered = OrderedDict()
        # Outstanding fetches per id: each registration (dedup included)
        # takes a reference, each delivery releases one (clamped at zero).
        # Boundary eviction only drops ids with no outstanding reference,
        # so a dedup-shared id survives until every holder has fetched.
        self._refs = {}  # QueryId -> outstanding count
        self._next_id = 0
        self.stats = QueryStoreStats()

    # -- public API (paper §3.3) ---------------------------------------------

    def register_query(self, sql, params=()):
        """Add a query to the current batch; returns its :class:`QueryId`.

        Writes flush the batch immediately (including the write itself);
        duplicate pending reads return the already-registered id.
        """
        params = tuple(params)
        self.stats.queries_registered += 1
        if not is_read_statement(sql):
            query_id = self._new_id()
            self._take_ref(query_id)
            self._buffer.append((query_id, sql, params))
            self._buffer_has_write = True
            self._flush()
            return query_id
        key = (sql, params)
        existing = self._pending_keys.get(key)
        if existing is not None:
            self.stats.dedup_hits += 1
            self._take_ref(existing)
            return existing
        query_id = self._new_id()
        self._take_ref(query_id)
        self._buffer.append((query_id, sql, params))
        self._pending_keys[key] = query_id
        if (self.auto_flush_threshold is not None
                and len(self._buffer) >= self.auto_flush_threshold):
            self._flush()
        return query_id

    def get_result_set(self, query_id):
        """Result set for ``query_id``; flushes the current batch if it is
        not yet available, and — under async dispatch — stalls for the
        residual if the owning batch is still in flight."""
        result = self._results.get(query_id)
        if result is None:
            if query_id.store is not self:
                # Never ours: no flush (a charged round trip) on its behalf.
                raise KeyError(f"query id from another store: {query_id!r}")
            self._flush()
            result = self._results.get(query_id)
            if result is None:
                raise KeyError(f"unknown query id: {query_id!r}")
        completion = self._owner.pop(query_id, None)
        if completion is not None and not completion.waited:
            self._wait_completion(completion)
        # LRU bookkeeping: most recently delivered last; one outstanding
        # reference released.
        self._delivered[query_id] = None
        self._delivered.move_to_end(query_id)
        self._release_ref(query_id)
        return result

    @property
    def pending_count(self):
        """Number of queries waiting in the current batch."""
        return len(self._buffer)

    @property
    def in_flight_count(self):
        """Number of async batches dispatched but not yet awaited."""
        return len(self._in_flight)

    @property
    def result_store_size(self):
        """Number of issued results currently retained."""
        return len(self._results)

    def flush(self):
        """Issue any pending batch (used at request boundaries).

        Request boundaries also evict results that have already been
        delivered, so a long-lived store does not grow without bound.
        """
        if self._buffer:
            self._flush()
        self._evict_delivered()

    def drain(self):
        """Request-end barrier: wait every in-flight async batch.

        Charges only residual stalls (batches fully covered by app progress
        cost nothing here) and evicts delivered results.  Does *not* flush
        the pending buffer: queries registered after the last force stay
        unissued, exactly like the synchronous path.
        """
        while self._in_flight:
            self._wait_completion(self._in_flight[0])
        self._evict_delivered()

    # -- internals -------------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return QueryId(self, self._next_id)

    def _take_ref(self, query_id):
        self._refs[query_id] = self._refs.get(query_id, 0) + 1

    def _release_ref(self, query_id):
        """Release one hold; an over-fetch (no hold left) releases nothing."""
        count = self._refs.get(query_id, 0)
        if count > 1:
            self._refs[query_id] = count - 1
        elif count == 1:
            del self._refs[query_id]

    def _has_refs(self, query_id):
        return query_id in self._refs

    def _flush(self):
        batch = self._buffer
        # A write is only ever appended by register_query's write branch,
        # which flushes immediately — so the flag classifies the batch
        # without re-parsing its statements.
        has_write = self._buffer_has_write
        self._buffer = []
        self._buffer_has_write = False
        self._pending_keys = {}
        if not batch:
            return
        statements = [(sql, params) for _, sql, params in batch]
        if self.async_dispatch and not has_write:
            self._dispatch_async(batch, statements)
        else:
            if self.async_dispatch and has_write:
                # [Write query] barrier: every in-flight batch must land
                # before the write issues (its own batch still carries the
                # pending reads first, preserving program order).
                while self._in_flight:
                    self._wait_completion(self._in_flight[0])
            results = self.driver.execute_batch(
                statements, batch_optimize=self.shared_scans)
            for (query_id, _, _), result in zip(batch, results):
                self._results[query_id] = result
        self.stats.batches_flushed += 1
        self.stats.queries_issued += len(batch)
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        self._enforce_result_limit()

    def _dispatch_async(self, batch, statements):
        """Ship an all-read batch in the background (bounded pipeline)."""
        while len(self._in_flight) >= self.pipeline_depth:
            self._wait_completion(self._in_flight[0])
        completion, results = self.driver.execute_batch_async(
            statements, batch_optimize=self.shared_scans)
        for (query_id, _, _), result in zip(batch, results):
            self._results[query_id] = result
            self._owner[query_id] = completion
        self._in_flight.append(completion)
        self.stats.async_batches += 1

    def _wait_completion(self, completion):
        shadowed_before = self.driver.stats.shadowed_ms
        stall, overlap = self.driver.wait(completion)
        self.stats.stall_ms += stall
        self.stats.overlap_ms += overlap
        self.stats.shadowed_ms += (
            self.driver.stats.shadowed_ms - shadowed_before)
        try:
            self._in_flight.remove(completion)
        except ValueError:
            pass

    def _evict_delivered(self):
        """Drop delivered results with no outstanding fetch reference."""
        keep = OrderedDict()
        for query_id in self._delivered:
            if self._has_refs(query_id):
                keep[query_id] = None  # a dedup twin still owes a fetch
                continue
            self._drop(query_id)
        self._delivered = keep

    def _enforce_result_limit(self):
        """LRU backstop for stores that never hit a request boundary.

        A *hard* bound: delivered entries go first (oldest delivery
        first), but if the store is still over the limit — issued results
        whose thunks were never forced — the oldest issued entries go
        outright.  Re-fetching an evicted id is an error; unbounded growth
        would be worse, and the limit is far above any single request's
        working set.

        Runs after every flush, so it walks only the entries it evicts or
        skips (held ids at the old end), never the whole store.
        """
        limit = self.result_store_limit
        if limit is None or len(self._results) <= limit:
            return
        # Held ids are skipped: a dedup twin still owes a fetch.
        unheld = (query_id for query_id in self._delivered
                  if not self._has_refs(query_id))
        excess = len(self._results) - limit
        for query_id in list(islice(unheld, excess)):  # oldest delivery first
            del self._delivered[query_id]
            self._drop(query_id)
        excess = len(self._results) - limit
        for query_id in list(islice(self._results, excess)):  # oldest issued
            self._delivered.pop(query_id, None)
            self._drop(query_id)

    def _drop(self, query_id):
        if self._results.pop(query_id, None) is not None:
            self.stats.results_evicted += 1
        self._owner.pop(query_id, None)
        self._refs.pop(query_id, None)
