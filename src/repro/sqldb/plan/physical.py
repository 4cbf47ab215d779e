"""Physical operators: columnar chunks in production, rows as the oracle.

Two operator flavours mirror the two halves of a SELECT:

- **Row sources** (:class:`SeqScanOp`, :class:`IndexLookupOp`,
  :class:`IndexRangeScanOp`, :class:`FilterOp`, :class:`HashJoinOp`,
  :class:`IndexNLJoinOp`, :class:`NestedLoopJoinOp`) stream flat joined
  rows.  They charge every storage row they examine to
  ``run.rows_touched``, which the cost model converts to database time.
  A base-table access applies its own WHERE, an INNER equi-join a Filter
  over its own table; ``FilterOp`` is left above the other joins.

- **Result operators** (:class:`ProjectOp`, :class:`AggregateOp`,
  :class:`DistinctOp`, :class:`SortOp`, :class:`LimitOp`) transform the
  materialized output relation via ``apply(run)``.  Each has at most two
  forms: a chunk kernel over ``run.source_chunks`` and the interpreted
  form over ``run.source_rows``.  The interpreted form is the oracle's
  *and* the production fallback for any shape without a kernel (scalar
  functions, boolean-valued items, HAVING, aggregate arithmetic), so no
  result operator asks which engine is running — only whether chunks and
  a kernel are there.

Row sources implement exactly **two execution protocols**:

``iter_cchunks(run)``
    The production engine: operators exchange
    :class:`repro.sqldb.columnar.ColumnChunk` column arrays of up to
    :data:`CHUNK_SIZE` rows, of which only the statement's read set
    (``SelectContext.read``) is filled.  Sequential scans slice chunks off
    the table's cached ``ColumnStore``; a scan's own predicate, **compiled
    once per cached plan** (:mod:`repro.sqldb.plan.compile`), sets each
    chunk's selection vector before the chunk is yielded; equi-joins
    gather probe keys per chunk and assemble their output column-wise.

``iter_rows_interp(run)``
    The reference interpreter: a Volcano pull, one row at a time through
    :func:`repro.sqldb.expressions.evaluate`.  Selectable
    (``Database(engine="row")``) so the differential oracles can compare
    the production engine against it, and used under **every** engine for
    ``limit_hint`` stop-after-N execution, where chunked pulls would
    overshoot the cutoff and charge storage rows the interpreter never
    touches (production wraps those few rows in one chunk afterwards).

``rows_touched`` is engine-invariant by construction: rows are charged
only where storage is read, both protocols consume their sources to
exhaustion (the only early stop — ``limit_hint`` — runs the interpreter
under both), so every figure's simulated cost is identical whichever
engine produced it.

``build_physical`` lowers an optimized logical tree into a
:class:`PhysicalPlan`, one operator per logical node (but for a Filter
absorbed as above), and keeps the tree
(``PhysicalPlan.logical``); ``PhysicalPlan.execute(db, params)`` returns an
:class:`repro.sqldb.result.ExecResult` of the result operators' tuples, and
``PhysicalPlan.execute_analyze`` additionally measures every operator and
writes each measurement on its node's EXPLAIN line (EXPLAIN ANALYZE).
"""

import copy
from itertools import chain, islice
from operator import itemgetter
from time import perf_counter

from repro.sqldb import ast_nodes as A
from repro.sqldb.columnar import CHUNK_SIZE, ColumnChunk, DictColumn
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.expressions import (evaluate, first_occurrences,
                                     fold_aggregate, RowContext)
from repro.sqldb.indexes import OrderedIndex
from repro.sqldb.plan import logical as L
from repro.sqldb.plan.access import (keyed_conjuncts, pk_lookup_keys,
                                     range_scan_ids, residual_predicate,
                                     resolve_index_lookup, walked_conjuncts)
from repro.sqldb.plan.compile import (compile_aggregate_item_columnar,
                                      compile_filter,
                                      compile_grouped_item_columnar,
                                      compile_project)
from repro.sqldb.plan.cost import conjunct_tables
from repro.sqldb.plan.planner import _AGGREGATE_NAMES, order_by_position
from repro.sqldb.result import ExecResult

# CHUNK_SIZE (rows per chunk) lives in repro.sqldb.columnar, where zone
# maps are built at scan-slice granularity, and is re-exported here.
# Large enough to amortize per-chunk Python overhead, small enough that
# a chunk of joined rows stays cache-friendly.


class PlanRun:
    """Mutable state for one execution of a physical plan."""

    __slots__ = ("db", "params", "sctx", "_ctx", "rows_touched",
                 "_source_rows", "source_chunks", "out_columns", "out_rows",
                 "prefetched_base_rows", "engine", "batches",
                 "chunks_skipped")

    def __init__(self, db, params, sctx, prefetched_base_rows=None):
        self.db = db
        self.params = tuple(params)
        self.sctx = sctx
        self._ctx = None
        self.rows_touched = 0
        self._source_rows = None  # materialized rows entering projection
        self.source_chunks = None  # ColumnChunks (None under the interpreter)
        self.out_columns = None
        self.out_rows = None
        # When set, the base-table access operator yields these rows instead
        # of scanning storage (the batch shared-scan path): the scan already
        # happened once for the whole group, so no rows are charged here.
        self.prefetched_base_rows = prefetched_base_rows
        self.engine = db.engine
        self.batches = 0  # chunks that flowed between the operators
        self.chunks_skipped = 0  # chunks zone maps proved irrelevant

    @property
    def ctx(self):
        """A :class:`RowContext`, built when an interpreted form asks."""
        ctx = self._ctx
        if ctx is None:
            ctx = self._ctx = self.sctx.fresh_context()
        return ctx

    @property
    def source_rows(self):
        """The materialized source relation as wide rows.

        Outside the interpreter the source lands as ``source_chunks``;
        a result operator running its interpreted form (no chunk kernel
        for the shape, or a Sort key over a source column) transposes it
        here lazily — fully columnar pipelines never pay for the rows.
        """
        rows = self._source_rows
        if rows is None and self.source_chunks is not None:
            rows = []
            extend = rows.extend
            for chunk in self.source_chunks:
                extend(chunk.to_rows())
            self._source_rows = rows
        return rows

    def result(self):
        return ExecResult(self.out_columns, self.out_rows,
                          rowcount=len(self.out_rows),
                          rows_touched=self.rows_touched,
                          chunks_skipped=self.chunks_skipped)


# The row of a ``(row_id, row)`` pair.
_ROW = itemgetter(1)


def _pad(row, offset, total_width):
    values = [None] * total_width
    values[offset:offset + len(row)] = row
    return values


# ---------------------------------------------------------------------------
# Row sources
# ---------------------------------------------------------------------------

class _BaseTableScan:
    """Shared scaffolding for base-table access operators.

    Subclasses define ``_keep_rows(run, table)`` returning the kernel to
    run — ``keep``, the ``predicate``'s (the Filter directly above,
    whole), or ``residuals[path]``, what an index path left of it — and
    the list of storage rows to read.  Charging, padding, chunking and
    the predicate live here so both protocols stay in exact accounting
    agreement; a sequential scan owns its zone test and the shared-scan
    prefetch.

    ``read`` is the table's share of the statement's read set
    (``SelectContext.table_reads``): the chunk protocol fills those lanes
    and leaves every other the all-NULL lane.  The interpreter reads
    whole storage rows, and when the table sits at offset 0 of a layout
    exactly as wide as itself (every single-table plan) the storage row
    *is* the flat row — no ``[None] * total`` copy.  Both are safe
    because storage rows are never mutated in place (updates install
    fresh lists) and no plan operator mutates source rows: joins merge
    into copies (``list(values)``) and projections emit new tuples.
    """

    # A sequential scan slices its lanes off the table's cached
    # ColumnStore (no transpose per query) and takes the batch's shared
    # scan rows; index access paths transpose their rows per execution.
    sequential = False
    prune = None
    prune_ordinals = ()

    def __init__(self, node, sctx, predicate):
        self.table_name = node.table
        self.offset = sctx.offsets[node.table_index]
        self.read = sctx.table_reads[node.table_index]
        self.predicate = predicate
        self.keep = None
        if predicate is not None:
            context = sctx.context
            self.keep, prune = compile_filter(predicate, context.positions,
                                              context.ambiguous)
            if prune is not None and self.sequential:
                tested = sctx.positions_of([predicate])
                self.prune = prune
                self.prune_ordinals = [j for j in self.read
                                       if self.offset + j in tested]

    def iter_cchunks(self, run):
        keep, chunks = self._keep_chunks(run)
        params = run.params
        filtered = self.predicate is not None
        for chunk in chunks:
            # One chunk step per EXPLAIN line: the scan, then the Filter.
            run.batches += 1
            if keep is not None:
                sel = keep(chunk, params)
                if not sel:
                    continue
                if len(sel) < chunk.length:
                    chunk.sel = sel  # nothing else holds the chunk yet
            run.batches += filtered
            yield chunk

    def _keep_chunks(self, run):
        """``(keep, chunks)``: the kernel to run and the chunks before it,
        every row charged — one C-level transpose per chunk, of which the
        read lanes are kept, as tuples (half the cost of a comprehension
        per lane over a few rows)."""
        keep, rows = self._keep_rows(run, run.db.tables_get(self.table_name))
        run.rows_touched += len(rows)
        offset, read = self.offset, self.read
        total = run.sctx.total_width
        chunks = []
        for start in range(0, len(rows), CHUNK_SIZE):
            lanes = list(zip(*rows[start:start + CHUNK_SIZE]))
            columns = [None] * total
            for j in read:
                columns[offset + j] = lanes[j]
            chunks.append(ColumnChunk(columns, len(lanes[0])))
        return keep, chunks

    def iter_rows_interp(self, run):
        predicate = self.predicate
        ctx = run.ctx if predicate is not None else None
        params = run.params
        offset = self.offset
        total = run.sctx.total_width
        if self.sequential and run.prefetched_base_rows is not None:
            rows, charge, pad = run.prefetched_base_rows, 0, False
        else:
            table = run.db.tables_get(self.table_name)
            rows, charge = self._keep_rows(run, table)[1], 1
            pad = offset != 0 or len(table.schema.columns) != total
        for row in rows:
            run.rows_touched += charge
            if pad:
                row = _pad(row, offset, total)
            if (predicate is None
                    or evaluate(predicate, ctx.bind(row), params) is True):
                yield row


class SeqScanOp(_BaseTableScan):
    """Full scan of the base table, padded to the joined-row width.

    ``offset`` is the table's slot in the flat joined-row layout — 0 unless
    join reordering made a non-first FROM table the base of the chain.
    """

    sequential = True

    def _keep_rows(self, run, table):
        return self.keep, list(map(_ROW, table.scan()))

    def _keep_chunks(self, run):
        """The table's cached ColumnStore sliced into chunks (or the
        batch's prefetched rows), every row charged: zone maps change
        wall-clock, never the simulated cost."""
        sctx = run.sctx
        total = sctx.total_width
        if run.prefetched_base_rows is not None:
            rows = run.prefetched_base_rows
            return self.keep, [
                ColumnChunk.from_rows(rows[start:start + CHUNK_SIZE], total,
                                      sctx.read)
                for start in range(0, len(rows), CHUNK_SIZE)]
        store = run.db.tables_get(self.table_name).column_store()
        length, offset = store.length, self.offset
        zone_lists = [(offset + j, store.zones(j))
                      for j in self.prune_ordinals]
        run.rows_touched += length
        lanes = [(offset + j, store.lane(j)) for j in self.read]
        chunks = []
        for ci, start in enumerate(range(0, length, CHUNK_SIZE)):
            if zone_lists:
                zones = {pos: zl[ci] for pos, zl in zone_lists}
                try:
                    must_scan = self.prune(zones.get, run.params)
                except Exception:
                    must_scan = True  # scan and surface the error
                if not must_scan:
                    run.chunks_skipped += 1
                    continue
            stop = min(start + CHUNK_SIZE, length)
            columns = [None] * total
            for pos, values in lanes:
                columns[pos] = values[start:stop]
            chunks.append(ColumnChunk(columns, stop - start))
        return self.keep, chunks


class IndexLookupOp(_BaseTableScan):
    """Index-accelerated base-table access with runtime fallback.

    Key values come from the statement parameters, so the final index
    decision happens per execution (mirroring the legacy interpreter): when
    :func:`resolve_index_lookup` finds no usable index for the values bound
    to the plan's :class:`~repro.sqldb.plan.access.IndexProbe`, this
    operator degrades to a sequential scan and its predicate does all the
    work.  An equality probe decides the conjuncts it keyed on, so the
    chunk protocol then runs ``residuals[path]`` — the predicate without
    them (:func:`keyed_conjuncts`), compiled per candidate path when the
    plan is built — instead of ``keep``; an IN-list probe, the scan and
    the interpreter re-check the whole predicate.
    """

    def __init__(self, node, sctx, predicate):
        super().__init__(node, sctx, predicate)
        self.probe = node.probe
        self.residuals = {name: _kernel(sctx, residual_predicate(
            predicate, keyed_conjuncts(predicate, columns)))
            for name, columns in self.probe.paths()}

    def _keep_rows(self, run, table):
        path, hits = resolve_index_lookup(table, self.probe, run.params)
        if hits is None:
            return self.keep, list(map(_ROW, table.scan()))
        return self.residuals.get(path, self.keep), list(map(_ROW, hits))


class IndexRangeScanOp(_BaseTableScan):
    """Ordered-index range scan: stream the base table's rows in index key
    order, touching only the equality-prefix + range region.

    Prefix and bound constants resolve against the statement parameters at
    execution time.  A prefix or bound that resolves to NULL yields no
    rows — the conjunct it came from is UNKNOWN for every row, so the
    predicate would reject everything anyway; else the chunk protocol
    re-checks only what the walk did not decide (:func:`walked_conjuncts`).
    Unlike ``IndexLookupOp`` this operator never degrades to an
    *unordered* scan (a Sort may have been elided on the strength of its
    ordering): for a value no walk serves (NaN, incomparable) or an index
    that vanished underneath a cached plan (only possible by editing
    storage behind the catalog's back), it scans in key order — the elided
    ORDER BY's, if any — under the whole predicate.
    """

    def __init__(self, node, sctx, predicate):
        super().__init__(node, sctx, predicate)
        self.scan = node  # index, equality prefix, bounds and direction
        self.residuals = {node.index_name: _kernel(sctx, residual_predicate(
            predicate, walked_conjuncts(node)))}

    def _sorted_fallback(self, table):
        """Full scan in key order (see class docstring), sorted as the
        elided Sort sorts a scan: a NaN key lands where it would there."""
        scan = self.scan
        ordinals = [table.schema.ordinal_of(column)
                    for column in scan.order_columns] or scan.ordinals
        ids = list(table.rows)
        rows = table.rows
        return sort_rows(ids, [[rows[i][j] for i in ids] for j in ordinals],
                         [scan.descending] * len(ordinals))

    def _keep_rows(self, run, table):
        scan = self.scan
        index = table.indexes.get(scan.index_name)
        ids = (range_scan_ids(index, scan, run.params, scan.descending)
               if isinstance(index, OrderedIndex) else None)
        keep = self.residuals.get(scan.index_name, self.keep)
        if ids is None:
            keep, ids = self.keep, self._sorted_fallback(table)
        return keep, list(map(table.rows.__getitem__, ids))


class FilterOp:
    """Keep rows whose predicate evaluates to SQL TRUE (above a join).

    The chunk path narrows the selection vector with ``keep``, the
    plan-compiled fused predicate — the output chunk shares the input's
    column arrays, so no row materializes; the interpreted path re-walks
    the AST per row.
    """

    def __init__(self, child, predicate, keep):
        self.child = child
        self.predicate = predicate
        self.keep = keep

    def iter_cchunks(self, run):
        keep = self.keep
        params = run.params
        for chunk in self.child.iter_cchunks(run):
            sel = keep(chunk, params)
            if sel:
                run.batches += 1
                yield ColumnChunk(chunk.columns, chunk.length, sel)

    def iter_rows_interp(self, run):
        return _kept_rows(run, self.child.iter_rows_interp(run),
                          self.predicate)


def _kernel(sctx, predicate):
    """``predicate``'s chunk kernel over the plan's row layout, or None."""
    return None if predicate is None else compile_filter(
        predicate, sctx.context.positions, sctx.context.ambiguous)[0]


def _kept_rows(run, rows, predicate):
    """The interpreter's filter: ``rows`` whose ``predicate`` is TRUE."""
    ctx = run.ctx
    params = run.params
    for values in rows:
        if evaluate(predicate, ctx.bind(values), params) is True:
            yield values


def _build_join_buckets(run, table, right_ordinal):
    """Hash-build over ``table``, charging the full scan.  NULL keys are
    never indexed (SQL ``NULL = NULL`` is UNKNOWN), so NULL join keys can
    never match."""
    buckets = {}
    for _, row in table.scan():
        run.rows_touched += 1
        key = row[right_ordinal]
        if key is None:
            continue
        buckets.setdefault(key, []).append(row)
    return buckets


def _hash_join_rows(run, table, left_rows, op):
    """Shared hash-join loop of ``op``: build over ``table``, probe with
    ``left_rows``.  NULL keys never probe; LEFT joins emit the unmatched
    left row padded with NULLs (already present from the base padding)."""
    buckets = _build_join_buckets(run, table, op.right_ordinal)
    offset = run.sctx.offsets[op.join_index]
    width = run.sctx.widths[op.join_index]
    left_pos, kind = op.left_pos, op.kind
    for values in left_rows:
        key = values[left_pos]
        matches = buckets.get(key, ()) if key is not None else ()
        if matches:
            for row in matches:
                merged = list(values)
                merged[offset:offset + width] = row
                yield merged
        elif kind == "LEFT":
            yield list(values)


def _right_lanes(sctx, join_index, rows, columns):
    """``columns`` with the joined table's read lanes transposed from
    ``rows``, its storage rows.  Not zip(*rows): one GC-tracked iterator
    per row costs a large probe half again its time."""
    offset = sctx.offsets[join_index]
    for j in sctx.table_reads[join_index]:
        columns[offset + j] = [row[j] for row in rows]
    return columns


def _join_chunk(run, chunk, picks, right_rows, join_index):
    """The joined output chunk for one probe chunk — the emit step every
    equi-join shares: ``take`` replicates the left lanes at ``picks`` for
    the match fan-out (dictionary lanes stay encoded) and the right
    table's read lanes are transposed from ``right_rows``, the matched
    storage rows (an all-NULL row for a LEFT join's unmatched row)."""
    sctx = run.sctx
    offset = sctx.offsets[join_index]
    out = chunk.take(
        picks, skip_range=(offset, offset + sctx.widths[join_index]))
    _right_lanes(sctx, join_index, right_rows, out.columns)
    run.batches += 1
    return out


def _survivors(run, op, rows):
    """The indices of ``rows``, ``op``'s storage rows, its ``keep`` keeps."""
    sctx = run.sctx
    columns = _right_lanes(sctx, op.join_index, rows,
                           [None] * sctx.total_width)
    return op.keep(ColumnChunk(columns, len(rows)), run.params)


def _hash_join_chunks(run, table, chunks, op):
    """Columnar twin of :func:`_hash_join_rows`: the build is charged
    eagerly, even when the probe side turns out empty, exactly like the
    interpreted path."""
    buckets = _build_join_buckets(run, table, op.right_ordinal)
    kept = {}
    for chunk in chunks:
        out = _probe_chunk(run, op, chunk, chunk.gather(op.left_pos),
                           buckets, kept)
        if out is not None:
            yield out


def _probe_chunk(run, op, chunk, keys, matches, kept):
    """The joined chunk (or None) for one probe chunk whose live rows carry
    ``keys``, ``matches`` mapping a key to its storage rows — the emit step
    every equi-join shares.  ``op.keep`` decides a storage row when a probe
    first reaches its key — per chunk, over the keys reached first there —
    into ``kept``, the survivors per key: an unreached row is not tested."""
    if op.keep is not None:
        reached = [key for key in dict.fromkeys(keys) if matches.get(key)]
        fresh = [key for key in reached if key not in kept]
        rows = [row for key in fresh for row in matches[key]]
        kept.update((key, []) for key in fresh)
        for i in _survivors(run, op, rows) if rows else ():
            kept[rows[i][op.right_ordinal]].append(rows[i])
        run.batches += bool(reached)  # the Join line's chunk step
        matches = kept
    get = matches.get
    null_row = (None,) * run.sctx.widths[op.join_index]
    left = op.kind == "LEFT"
    picks = []
    right_rows = []
    for i, key in zip(chunk.live_indices(), keys):
        found = get(key)  # no key maps NULL
        if found:
            for row in found:
                picks.append(i)
                right_rows.append(row)
        elif left:
            picks.append(i)
            right_rows.append(null_row)
    if picks:
        return _join_chunk(run, chunk, picks, right_rows, op.join_index)
    return None


class HashJoinOp:
    """Equi-join: build a hash table over the right table, probe with the
    child's rows (one gathered key lane per chunk).  ``predicate`` is the
    Filter it took (:func:`_absorbed`), ``keep`` its kernel: chunks carry
    only the rows it keeps; the interpreter tests the joined rows."""

    def __init__(self, child, node, sctx, predicate=None):
        self.child = child
        self.join_index = node.table_index
        self.kind = node.kind
        self.table_name = node.table
        self.left_pos, self.right_ordinal = node.equi
        self.predicate = predicate
        self.keep = _kernel(sctx, predicate)

    def iter_rows_interp(self, run):
        rows = self._joined_rows(run)
        return rows if self.predicate is None else _kept_rows(
            run, rows, self.predicate)

    def _joined_rows(self, run):
        return _hash_join_rows(run, run.db.tables_get(self.table_name),
                               self.child.iter_rows_interp(run), self)

    def iter_cchunks(self, run):
        return _hash_join_chunks(run, run.db.tables_get(self.table_name),
                                 self.child.iter_cchunks(run), self)


class IndexNLJoinOp(HashJoinOp):
    """Index nested-loop equi-join: probe the right table's primary key or
    a single-column secondary index once per left row, touching only the
    rows each probe returns instead of building a hash table over a full
    scan.

    The operator is **adaptive**: before fetching anything it sums the
    probe result sizes from index metadata (bucket lengths — free, no row
    touches), and when the total probe volume would exceed one full scan of
    the right table (duplicate-heavy left keys re-touch the same right
    rows) it falls back to the hash build.  Index nested-loop therefore
    never touches more rows than the hash strategy it replaces, whatever
    the optimizer's estimates predicted.  A chunk's probes map its keys
    to the rows they fetched, which the hash join's emit step
    (:func:`_probe_chunk`, ``keep`` included) joins.

    Both protocols materialize the child (the metadata pass needs every
    left key before anything streams), so accounting is identical by
    design.
    """

    def __init__(self, child, node, sctx, predicate=None):
        super().__init__(child, node, sctx, predicate)
        self.index_name = node.index_name  # "<pk>" or a secondary index

    def _probe_ids(self, table, key):
        """Ascending row ids matching ``key``, via the chosen path."""
        if self.index_name == "<pk>":
            hit = table.find_by_pk(key)
            return (hit[0],) if hit is not None else ()
        # A missing index means the plan outlived a direct storage edit
        # (DDL invalidates cached plans); signal the hash fallback.
        index = table.indexes.get(self.index_name)
        if index is None:
            return None
        return index.lookup((key,))

    def _probe_all(self, table, keys):
        """Metadata pass: the ascending row ids each left key's probe
        would fetch (kept so the emit loop never probes twice), or None
        when the hash fallback must run — the index vanished, or the probes
        together would touch more rows than one full scan."""
        probes = []
        total_probe = 0
        for key in keys:
            ids = self._probe_ids(table, key) if key is not None else ()
            if ids is None:
                return None
            probes.append(ids)
            total_probe += len(ids)
            if total_probe > len(table):
                return None
        return probes

    def _joined_rows(self, run):
        table = run.db.tables_get(self.table_name)
        offset = run.sctx.offsets[self.join_index]
        width = run.sctx.widths[self.join_index]
        left_pos = self.left_pos
        kind = self.kind
        left_rows = list(self.child.iter_rows_interp(run))
        probes = self._probe_all(
            table, [values[left_pos] for values in left_rows])
        if probes is None:
            yield from _hash_join_rows(run, table, left_rows, self)
            return
        for values, ids in zip(left_rows, probes):
            matched = False
            for row in map(table.rows.__getitem__, ids):
                run.rows_touched += 1
                merged = list(values)
                merged[offset:offset + width] = row
                yield merged
                matched = True
            if not matched and kind == "LEFT":
                yield list(values)

    def iter_cchunks(self, run):
        table = run.db.tables_get(self.table_name)
        left_pos = self.left_pos
        chunks = list(self.child.iter_cchunks(run))
        keys = [chunk.gather(left_pos) for chunk in chunks]
        probes = self._probe_all(table, chain.from_iterable(keys))
        if probes is None:
            yield from _hash_join_chunks(run, table, chunks, self)
            return
        probe = iter(probes)
        rows_getitem = table.rows.__getitem__
        kept = {}
        for chunk, chunk_keys in zip(chunks, keys):
            fetched = {}
            for key, ids in zip(chunk_keys, probe):
                rows = list(map(rows_getitem, ids))
                run.rows_touched += len(rows)
                fetched[key] = rows
            out = _probe_chunk(run, self, chunk, chunk_keys, fetched, kept)
            if out is not None:
                yield out


class NestedLoopJoinOp:
    """General join with an arbitrary ON condition.

    The per-pair work is row-shaped and has no chunk kernel, so both
    protocols run the same interpreted per-row loop: the chunk path
    transposes each probe chunk to rows, joins them, and transposes back.
    """

    def __init__(self, child, join_index, kind, table_name, condition):
        self.child = child
        self.join_index = join_index
        self.kind = kind
        self.table_name = table_name
        self.condition = condition

    def _scan_right(self, run):
        """The right table's rows, charged once per execution — before
        the first left row is pulled, under either protocol."""
        right_rows = [row for _, row in
                      run.db.tables_get(self.table_name).scan()]
        run.rows_touched += len(right_rows)
        return right_rows

    def _join_rows(self, run, left_rows, right_rows):
        offset = run.sctx.offsets[self.join_index]
        width = run.sctx.widths[self.join_index]
        condition = self.condition
        keep_unmatched = self.kind == "LEFT"
        ctx = run.ctx
        params = run.params
        for values in left_rows:
            matched = False
            for row in right_rows:
                merged = list(values)
                merged[offset:offset + width] = row
                ctx.bind(merged)
                if evaluate(condition, ctx, params) is True:
                    yield merged
                    matched = True
            if not matched and keep_unmatched:
                yield list(values)

    def iter_rows_interp(self, run):
        right_rows = self._scan_right(run)
        yield from self._join_rows(run, self.child.iter_rows_interp(run),
                                   right_rows)

    def iter_cchunks(self, run):
        right_rows = self._scan_right(run)
        total = run.sctx.total_width
        for chunk in self.child.iter_cchunks(run):
            out = list(self._join_rows(run, chunk.to_rows(), right_rows))
            if out:
                run.batches += 1
                yield ColumnChunk.from_rows(out, total, run.sctx.read)


# ---------------------------------------------------------------------------
# Result operators
# ---------------------------------------------------------------------------

class ProjectOp:
    """Evaluate the select list (with ``*`` expansion) over each row.

    Star expansion and output-column names depend only on the statement and
    the FROM-list layout, both fixed for the plan's lifetime (DDL
    invalidates the plan cache), so they are computed once at build time —
    as is the select list's chunk kernel, when every item has one.
    """

    def __init__(self, items, sctx):
        self.items = items
        self.expansions = _expand_stars(sctx.stmt, sctx.context)
        self.out_columns = _output_columns(sctx.stmt, self.expansions)
        # The fused projection: per-output-column gathers / vectorized
        # expression loops, zipped into tuples.  None when an item has
        # no vector form — then every row is interpreted, under either
        # engine.
        self._columnar = compile_project(items, self.expansions,
                                         sctx.context.positions,
                                         sctx.context.ambiguous)

    def apply(self, run):
        run.out_columns = self.out_columns
        params = run.params
        if run.source_chunks is not None and self._columnar is not None:
            project = self._columnar
            out_rows = []
            extend = out_rows.extend
            for chunk in run.source_chunks:
                extend(project(chunk, params))
            run.out_rows = out_rows
            return
        ctx = run.ctx
        expansions = self.expansions
        out_rows = []
        for values in run.source_rows:
            ctx.bind(values)
            out = []
            for item, expansion in zip(self.items, expansions):
                if expansion is not None:
                    out.extend(values[pos] for pos, _ in expansion)
                else:
                    out.append(evaluate(item.expr, ctx, params))
            out_rows.append(tuple(out))
        run.out_rows = out_rows


class AggregateOp:
    """GROUP BY + aggregate select items + HAVING.

    Chunks fold straight into accumulators where every item has a
    chunk-at-a-time form and every key is a plain column.  Every other
    shape — composite items (aggregates nested in arithmetic), computed
    keys, arguments without a vector form, HAVING — is interpreted over
    the materialized source rows, under either engine.
    """

    def __init__(self, items, group_by, having, sctx):
        self.items = items
        self.group_by = group_by
        self.having = having
        if any(isinstance(item.expr, A.Star) for item in items):
            # Refused at build time, data or no data: a group has no one
            # source row for ``*`` to expand over.
            raise SqlError("'*' cannot be selected in an aggregate query")
        self.out_columns = _output_columns(sctx.stmt, [None] * len(items))
        positions = sctx.context.positions
        ambiguous = sctx.context.ambiguous
        # Chunk-at-a-time aggregate closures for the fused no-GROUP-BY
        # path (None: an item has none, so the query is interpreted).
        fns = [compile_aggregate_item_columnar(item.expr, positions,
                                               ambiguous) for item in items]
        self._citem_fns = None if None in fns else fns
        # Grouped columnar path: the items' makes, updates and finals
        # plus the flat position of each key — every key a plain column
        # (dictionary lanes group by integer code).  None means the query
        # is interpreted: a computed key, or a reference only the
        # interpreter can raise the error for.
        self._cgrouped_items = None
        self._ckey_positions = None
        if group_by:
            triples = [compile_grouped_item_columnar(
                item.expr, positions, ambiguous) for item in items]
            key_positions = [
                positions.get((e.table, e.column))
                if isinstance(e, A.ColumnRef)
                and not (e.table is None and e.column in ambiguous)
                else None for e in group_by]
            if None not in triples and None not in key_positions:
                self._cgrouped_items = tuple(zip(*triples))
                self._ckey_positions = key_positions

    def apply(self, run):
        params = run.params
        if (run.source_chunks is not None
                and not self.group_by and self.having is None
                and self._citem_fns is not None):
            # Fused path: aggregates consume chunks directly — the wide
            # rows are never built.  A single implicit group, so one
            # output row even over empty input (matching groups[()]).
            chunks = run.source_chunks
            run.out_columns = self.out_columns
            run.out_rows = [tuple(fn(chunks, params)
                                  for fn in self._citem_fns)]
            return
        if (run.source_chunks is not None
                and self.group_by and self.having is None
                and self._cgrouped_items is not None):
            # Grouped fused path: group by gathered key lanes — integer
            # dictionary codes directly for single dictionary-column
            # keys — folding each chunk into per-group accumulator
            # arrays.  No wide row is ever built.
            run.out_columns = self.out_columns
            run.out_rows = self._apply_grouped_columnar(run, params)
            return
        # Interpreted form.  Partition rows into groups by the GROUP BY
        # key, in first-encounter order (a single group covering
        # everything when there is no GROUP BY).
        ctx = run.ctx
        rows = run.source_rows
        groups = {}
        if not self.group_by:
            groups[()] = list(rows)
        else:
            for values in rows:
                ctx.bind(values)
                key = tuple(evaluate(e, ctx, params) for e in self.group_by)
                try:
                    groups.setdefault(key, []).append(values)
                except TypeError as exc:  # a list or dict parameter
                    raise SqlTypeError(
                        f"cannot compare GROUP BY values: {exc}") from None

        run.out_columns = self.out_columns
        out_rows = []
        for group_rows in groups.values():
            if self.having is not None:
                keep = _eval_aggregate_expr(self.having, group_rows, ctx,
                                            params)
                if keep is not True:
                    continue
            out_rows.append(tuple(
                _eval_aggregate_expr(item.expr, group_rows, ctx, params)
                for item in self.items))
        run.out_rows = out_rows

    def _apply_grouped_columnar(self, run, params):
        """Chunk-at-a-time grouped aggregation over columnar chunks.

        Groups live in a master dict keyed **by value** (first-encounter
        order, exactly the row engine's), with one accumulator list per
        select item, one slot per group.  Single dictionary-column keys
        take the code fast path: a per-dictionary ``code -> group``
        translation array (plus a NULL slot) resolves each row with one
        list index instead of a hash probe, decoding each distinct value
        at most once.  The translation is keyed by the dictionary *meta*
        (checked by identity) so chunks sharing a dictionary share it
        while value-keyed grouping keeps differently-encoded chunks of
        the same column correct.
        """
        makes, updates, finals = self._cgrouped_items
        key_positions = self._ckey_positions
        single = len(key_positions) == 1
        groups = {}  # key value (scalar when single) -> group index
        accs = [[] for _ in makes]
        n_groups = 0
        trans_cache = {}  # id(meta) -> (meta, code -> gidx list, [null gidx])
        for chunk in run.source_chunks:
            if chunk.n_live() == 0:
                continue
            live = chunk.live_indices()
            gidxs = []
            ga = gidxs.append
            col = chunk.columns[key_positions[0]] if single else None
            if type(col) is DictColumn:
                meta = col.meta
                cached = trans_cache.get(id(meta))
                if cached is None or cached[0] is not meta:
                    cached = (meta, [-1] * len(meta.values), [-1])
                    trans_cache[id(meta)] = cached
                _, code_map, null_slot = cached
                dict_values = meta.values
                codes = col.codes
                for i in live:
                    cd = codes[i]
                    if cd < 0:
                        g = null_slot[0]
                        if g < 0:
                            g = groups.get(None, -1)
                            if g < 0:
                                g = n_groups
                                groups[None] = g
                                n_groups += 1
                                for make, acc in zip(makes, accs):
                                    acc.append(make())
                            null_slot[0] = g
                    else:
                        g = code_map[cd]
                        if g < 0:
                            key = dict_values[cd]
                            g = groups.get(key, -1)
                            if g < 0:
                                g = n_groups
                                groups[key] = g
                                n_groups += 1
                                for make, acc in zip(makes, accs):
                                    acc.append(make())
                            code_map[cd] = g
                    ga(g)
            else:
                keys = (chunk.gather_at(key_positions[0], live) if single
                        else zip(*[chunk.gather_at(pos, live)
                                   for pos in key_positions]))
                for key in keys:
                    g = groups.get(key, -1)
                    if g < 0:
                        g = n_groups
                        groups[key] = g
                        n_groups += 1
                        for make, acc in zip(makes, accs):
                            acc.append(make())
                    ga(g)
            for update, acc in zip(updates, accs):
                update(acc, gidxs, chunk, live, params)
        return [tuple(final(acc[g])
                      for final, acc in zip(finals, accs))
                for g in range(n_groups)]


class DistinctOp:
    """Drop duplicate output rows (tuples), keeping first occurrences."""

    def apply(self, run):
        run.out_rows = first_occurrences(run.out_rows, "DISTINCT")


class SortOp:
    """ORDER BY over projected rows, sorted by :func:`sort_rows`.

    A key is an output position (alias or ``ORDER BY <n>``), fixed at
    build time, or None: an expression over the source row, which lines
    up with the output only under a plain projection — above an aggregate
    or a DISTINCT it raises at build time, data or no data."""

    def __init__(self, order_by, out_columns, aggregated, distinct):
        alias_positions = {name: i for i, name in enumerate(out_columns)}
        self.keys = []  # (output position or None, expression)
        for item in order_by:
            expr = item.expr
            if (isinstance(expr, A.ColumnRef) and expr.table is None
                    and expr.column in alias_positions):
                pos = alias_positions[expr.column]
            else:
                pos = order_by_position(expr, len(out_columns))
            if pos is None and aggregated:
                raise SqlError("ORDER BY in aggregate queries must reference "
                               "output columns")
            if pos is None and distinct:
                raise SqlError("for SELECT DISTINCT, ORDER BY expressions "
                               "must appear in the select list")
            self.keys.append((pos, expr))
        self.reads_source = any(pos is None for pos, _ in self.keys)
        self.descending = [item.descending for item in order_by]

    def apply(self, run):
        rows = run.out_rows
        if self.reads_source:
            # Row by row, keys in order: the interpreter's first error.
            ctx, params = run.ctx, run.params
            columns = list(zip(*[
                [out[pos] if pos is not None
                 else evaluate(expr, ctx.bind(source), params)
                 for pos, expr in self.keys]
                for out, source in zip(rows, run.source_rows)]))
        else:
            columns = [[row[pos] for row in rows] for pos, _ in self.keys]
        run.out_rows = sort_rows(rows, columns, self.descending)


def sort_rows(rows, columns, descending):
    """``rows`` sorted stably on ORDER BY ``columns`` (one value sequence
    per key) with these DESC flags, for :class:`SortOp` and an ordered
    scan's sorted fallback.  Natively: ``v`` becomes ``(v is not None,
    v)``, NULL first (last under ``reverse``, used when most keys are
    DESC), a key of the other direction :class:`_Flipped`; ``==`` before
    ``<`` makes equal values (``1``, ``TRUE``) tie."""
    reverse = 2 * sum(descending) > len(descending)
    decorated = []
    for values, desc in zip(columns, descending):
        keys = [(v is not None, v) for v in values]
        decorated.append(keys if desc == reverse
                         else list(map(_Flipped, keys)))
    keys = decorated[0] if len(decorated) == 1 else list(zip(*decorated))
    try:
        order = sorted(range(len(rows)), key=keys.__getitem__,
                       reverse=reverse)
    except TypeError as exc:
        raise SqlTypeError(f"cannot order ORDER BY values: {exc}") from None
    return [rows[i] for i in order]


class _Flipped:
    """A sort key of the minority direction, compared the other way."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


# LIMIT / OFFSET expressions never read a row.
_NO_ROW = RowContext({}).bind(())


def resolve_limit(limit_expr, offset_expr, params):
    """``(limit, offset)`` of a LIMIT clause — the one place its values
    are validated; :class:`LimitOp` and the ``limit_hint`` cutoff both
    slice with what this returns.  Anything
    but a non-negative integer (a string, NULL, a float, a bool, ``-1``)
    raises instead of reaching a Python slice, where it would leak a
    ``TypeError`` or count from the wrong end."""
    bounds = []
    for clause, expr in (("LIMIT", limit_expr), ("OFFSET", offset_expr)):
        value = evaluate(expr, _NO_ROW, params) if expr is not None else 0
        if (isinstance(value, bool) or not isinstance(value, int)
                or value < 0):
            raise SqlError(
                f"{clause} must be a non-negative integer, got {value!r}")
        bounds.append(value)
    return bounds


class LimitOp:
    """LIMIT/OFFSET (expressions may reference parameters)."""

    def __init__(self, limit, offset):
        self.limit = limit
        self.offset = offset

    def apply(self, run):
        limit, offset = resolve_limit(self.limit, self.offset, run.params)
        run.out_rows = run.out_rows[offset:offset + limit]


# ---------------------------------------------------------------------------
# The executable plan
# ---------------------------------------------------------------------------

class PhysicalPlan:
    """A row-source tree plus the result-operator pipeline above it.

    ``logical`` is the optimized logical chain the plan was lowered from,
    node for operator (top first: the result operators in reverse, then
    the row-source chain) — the one tree EXPLAIN renders, so what it shows
    is what runs.

    ``shared_scan_table`` is the table name when the row source is a pure
    sequential scan (no joins, no index access path) — the batch shared-scan
    optimizer's eligibility test, precomputed here so it rides the plan
    cache instead of re-walking the AST on every batch flush.
    """

    __slots__ = ("source", "result_ops", "sctx", "logical",
                 "shared_scan_table", "limit_hint", "referenced_tables")

    def __init__(self, source, result_ops, sctx, logical):
        self.source = source
        self.result_ops = result_ops
        self.sctx = sctx
        self.logical = logical
        # Every base table the plan reads (deduplicated, FROM order) — the
        # result cache snapshots these tables' write versions per entry.
        self.referenced_tables = tuple(
            dict.fromkeys(ref.name for ref in sctx.tables))
        # Set only when a Sort was elided under a LIMIT (see _limit_hint):
        # the first limit+offset source rows are the final answer, so stop
        # pulling once they have streamed out — top-N-by-key pages touch
        # ~N rows instead of the whole range.
        self.limit_hint = _limit_hint(result_ops, sctx)
        self.shared_scan_table = (
            source.table_name if isinstance(source, SeqScanOp) else None)

    def pk_probe_keys(self, params=()):
        """The primary-key values this plan probes as a pure point lookup,
        or None when the plan is not a pk point lookup for these params.

        Non-None only when the row source is an :class:`IndexLookupOp`
        whose predicate the primary key serves — a single equality or an
        IN list.  The concurrent serving layer uses the ``(table, keys)``
        pair to merge point lookups issued by different requests into one
        shared multi-probe.
        """
        op = self.source
        if not isinstance(op, IndexLookupOp):
            return None
        keys = pk_lookup_keys(op.probe, params)
        if keys is None:
            return None
        return op.table_name, keys

    def _materialize_source(self, run, source):
        """Pull ``source`` to completion under the run's engine.

        The ``limit_hint`` cutoff always streams the interpreted row-at-a-
        time path — under *every* engine — because stop-after-N is the one
        place chunked materialization would touch storage rows the
        interpreter never reads, breaking ``rows_touched``
        engine-invariance.  In production its few rows then re-enter the
        pipeline as one chunk, so result operators see chunks only.
        """
        interpreted = run.engine == "row"
        if self.limit_hint is None and not interpreted:
            # Chunks are kept columnar; result operators that can consume
            # them do so directly, and ``run.source_rows`` materializes
            # wide rows lazily for the ones that cannot.
            run.source_chunks = list(source.iter_cchunks(run))
            return
        rows = source.iter_rows_interp(run)
        if self.limit_hint is not None:
            limit, offset = resolve_limit(*self.limit_hint, run.params)
            rows = islice(rows, limit + offset)
        rows = list(rows)
        if interpreted:
            run._source_rows = rows
        else:
            run.source_chunks = [ColumnChunk.from_rows(
                rows, run.sctx.total_width, run.sctx.read)]

    def execute(self, db, params=(), prefetched_base_rows=None):
        """Run the plan; returns an :class:`ExecResult`."""
        run = PlanRun(db, params, self.sctx,
                      prefetched_base_rows=prefetched_base_rows)
        self._materialize_source(run, self.source)
        for op in self.result_ops:
            op.apply(run)
        db.executor.batches_executed += run.batches
        return run.result()

    def execute_analyze(self, db, params=()):
        """Run the plan with per-operator instrumentation.

        Returns ``(result, lines)`` where ``lines`` is the EXPLAIN
        ANALYZE report: a header, then the plan's EXPLAIN (``logical``)
        with every operator's measurements appended to its node's line —
        produced rows, their q-error against the node's estimate, chunk
        counts and inclusive wall time (an operator's time contains its
        children's, as in the classic EXPLAIN ANALYZE convention).
        Deliberately side-effect-light: no result-cache store, no
        statement counters — a profiling probe, not an execution.
        """
        run = PlanRun(db, params, self.sctx)
        ops = []
        op = self.source
        while op is not None:
            if (isinstance(op, (_BaseTableScan, HashJoinOp))
                    and op.predicate is not None):
                # Its two EXPLAIN lines: the rows read (or joined), the
                # rows kept.
                bare = copy.copy(op)
                bare.predicate = bare.keep = None
                bare.residuals = {}  # an index probe's, with the predicate
                ops.append(FilterOp(bare, op.predicate, op.keep))
                op = bare
            ops.append(op)
            op = getattr(op, "child", None)
        timed = None
        source_records = []
        for op in reversed(ops):
            record = _AnalyzeRecord()
            if timed is not None:
                op = copy.copy(op)
                op.child = timed
            timed = _TimedSource(op, record)
            source_records.append(record)
        source_records.reverse()  # top-of-chain first

        started = perf_counter()
        self._materialize_source(run, timed)
        result_records = []
        for op in self.result_ops:
            record = _AnalyzeRecord()
            t0 = perf_counter()
            op.apply(run)
            record.seconds = perf_counter() - t0
            record.rows = len(run.out_rows)
            result_records.append(record)
        total = perf_counter() - started

        if source_records and run.chunks_skipped:
            # Zone-map skips happen only in the base-table scan — the
            # deepest operator of the source chain.
            source_records[-1].skipped = run.chunks_skipped
        header = (f"EXPLAIN ANALYZE [engine={run.engine}, "
                  f"rows={len(run.out_rows)}, "
                  f"rows_touched={run.rows_touched}, "
                  f"total_ms={total * 1000:.3f}]")
        rendered = L.explain(self.logical,
                             result_records[::-1] + source_records)
        return run.result(), [header, *rendered.splitlines()]


class _AnalyzeRecord:
    """One operator's EXPLAIN ANALYZE measurements.

    ``rows`` counts produced (live) rows under every engine, and ``q`` is
    their q-error against the node's estimate, ``max(est / act, act /
    est)`` with both floored at 1.  Chunked execution additionally reports
    ``chunks`` (chunks yielded) and ``sel``, the live fraction of chunk
    capacity, so EXPLAIN ANALYZE shows how dense the surviving selection
    is after each operator.
    """

    __slots__ = ("rows", "seconds", "chunks", "capacity", "skipped")

    def __init__(self):
        self.rows = 0
        self.seconds = 0.0
        self.chunks = 0
        self.capacity = 0
        self.skipped = 0  # chunks the scan's zone maps pruned

    def add_row(self, values):
        self.rows += 1

    def add_chunk(self, chunk):
        self.rows += chunk.n_live()
        self.chunks += 1
        self.capacity += chunk.length

    def render(self, estimate):
        parts = [f"rows={self.rows}"]
        if estimate is not None:
            est, act = max(estimate.rows, 1.0), max(self.rows, 1)
            parts.append(f"q={max(est / act, act / est):.1f}")
        if self.chunks:
            parts.append(f"chunks={self.chunks}")
        if self.skipped:
            parts.append(f"chunks_skipped={self.skipped}")
        if self.capacity:
            parts.append(f"sel={100.0 * self.rows / self.capacity:.1f}%")
        parts.append(f"time={self.seconds * 1000:.3f}ms")
        return f"actual [{', '.join(parts)}]"


class _TimedSource:
    """Wraps a row source, accumulating inclusive pull time and produced
    rows into an :class:`_AnalyzeRecord` under either protocol."""

    def __init__(self, op, record):
        self.op = op
        self.record = record

    def _timed(self, gen, count):
        record = self.record
        while True:
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                record.seconds += perf_counter() - t0
                return
            record.seconds += perf_counter() - t0
            count(item)
            yield item

    def iter_cchunks(self, run):
        return self._timed(self.op.iter_cchunks(run), self.record.add_chunk)

    def iter_rows_interp(self, run):
        return self._timed(self.op.iter_rows_interp(run),
                           self.record.add_row)


def build_physical(root, sctx):
    """Lower an optimized logical tree into a :class:`PhysicalPlan`, one
    operator per node but a ``Filter`` over a base-table access or over
    an INNER equi-join that decides it (:func:`_absorbed`), which that
    operator applies."""
    node, above = root, []
    while isinstance(node, (L.Limit, L.Sort, L.Distinct)):
        above.append(node)
        node = node.child
    if isinstance(node, L.Project):
        op = ProjectOp(node.items, sctx)
    elif isinstance(node, L.Aggregate):
        op = AggregateOp(node.items, node.group_by, node.having, sctx)
    else:
        raise SqlError(f"unexpected plan node above projection: {node!r}")
    result_ops = [op]
    distinct = False
    for step in reversed(above):  # bottom-up, as the operators run
        if isinstance(step, L.Limit):
            result_ops.append(LimitOp(step.limit, step.offset))
        elif isinstance(step, L.Sort):
            result_ops.append(SortOp(step.order_by, op.out_columns,
                                     isinstance(op, AggregateOp), distinct))
        else:
            result_ops.append(DistinctOp())
            distinct = True
    source = _build_source(node.child, sctx)
    return PhysicalPlan(source, result_ops, sctx, root)


def _limit_hint(result_ops, sctx):
    """``(limit expr, offset expr)`` when the source's first limit+offset
    rows are provably the final answer: the statement has an ORDER BY whose
    Sort was elided (rows already stream in order), no DISTINCT, a plain
    projection (1:1 with source rows), and a LIMIT to stop at."""
    stmt = sctx.stmt
    if not stmt.order_by or stmt.limit is None or stmt.distinct:
        return None
    shapes = [type(op) for op in result_ops]
    if shapes != [ProjectOp, LimitOp]:
        return None  # SortOp present (not elided), DistinctOp, or Aggregate
    return stmt.limit, stmt.offset


_ACCESS_OPS = {L.Scan: SeqScanOp, L.IndexLookup: IndexLookupOp,
               L.IndexRangeScan: IndexRangeScanOp}
_EQUI_JOIN_OPS = {"hash": HashJoinOp, "index": IndexNLJoinOp}


def _absorbed(node, sctx):
    """Whether the Filter ``node`` goes into the INNER equi-join below it:
    when each conjunct reads only the joined table.  Beside one that reads
    the left side, a conjunct tested before the emit would be evaluated on
    rows the interpreter's short-circuit spares."""
    join = node.child
    return (isinstance(join, L.Join) and join.kind == "INNER"
            and join.strategy in _EQUI_JOIN_OPS
            and residual_predicate(node.predicate, lambda conjunct: (
                conjunct_tables(sctx, conjunct) <= {join.table_index}))
            is None)


def _build_source(node, sctx):
    predicate = None
    if isinstance(node, L.Filter) and (type(node.child) in _ACCESS_OPS
                                       or _absorbed(node, sctx)):
        node, predicate = node.child, node.predicate
    access = _ACCESS_OPS.get(type(node))
    if access is not None:
        return access(node, sctx, predicate)
    if isinstance(node, L.Filter):
        return FilterOp(_build_source(node.child, sctx), node.predicate,
                        _kernel(sctx, node.predicate))
    if isinstance(node, L.Join):
        child = _build_source(node.child, sctx)
        join = _EQUI_JOIN_OPS.get(node.strategy)
        if join is not None:
            return join(child, node, sctx, predicate)
        return NestedLoopJoinOp(child, node.table_index, node.kind,
                                node.table, node.condition)
    raise SqlError(f"unexpected plan node in row source: {node!r}")


# ---------------------------------------------------------------------------
# Projection helpers (shared by Project and Aggregate)
# ---------------------------------------------------------------------------

def _expand_stars(stmt, ctx):
    """For each select item, the ``[(flat position, column name), ...]`` it
    expands to for a Star, or None for ordinary expressions."""
    positions_by_alias = {}
    for (alias, column), pos in ctx.positions.items():
        if alias is None:
            continue
        positions_by_alias.setdefault(alias, []).append((pos, column))
    for alias in positions_by_alias:
        positions_by_alias[alias].sort()
    result = []
    for item in stmt.items:
        if not isinstance(item.expr, A.Star):
            result.append(None)
            continue
        star = item.expr
        if star.table is not None:
            if star.table not in positions_by_alias:
                raise SqlError(f"unknown table alias {star.table!r} in '*'")
            result.append(list(positions_by_alias[star.table]))
        else:
            expanded = []
            aliases = [stmt.table.alias] + [j.table.alias for j in stmt.joins]
            for alias in aliases:
                expanded.extend(positions_by_alias.get(alias, []))
            result.append(expanded)
    return result


def _output_columns(stmt, expansions):
    names = []
    for item, expansion in zip(stmt.items, expansions):
        if expansion is not None:
            names.extend(name for _, name in expansion)
        elif item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, A.ColumnRef):
            names.append(item.expr.column)
        elif isinstance(item.expr, A.FuncCall):
            names.append(item.expr.name.lower())
        else:
            names.append(f"col{len(names) + 1}")
    return names


def _eval_aggregate_expr(expr, group_rows, ctx, params):
    """Evaluate an expression that may contain aggregate calls over a group."""
    if isinstance(expr, A.FuncCall) and expr.name in _AGGREGATE_NAMES:
        return _eval_aggregate_call(expr, group_rows, ctx, params)
    if isinstance(expr, A.BinaryOp):
        left = _eval_aggregate_expr(expr.left, group_rows, ctx, params)
        right = _eval_aggregate_expr(expr.right, group_rows, ctx, params)
        synthetic = A.BinaryOp(expr.op, A.Literal(left), A.Literal(right))
        return evaluate(synthetic, ctx, params)
    if isinstance(expr, A.UnaryOp):
        operand = _eval_aggregate_expr(expr.operand, group_rows, ctx, params)
        return evaluate(A.UnaryOp(expr.op, A.Literal(operand)), ctx, params)
    # Plain expression: evaluate against the first row of the group
    # (valid for GROUP BY keys, which are constant within a group).
    if group_rows:
        ctx.bind(group_rows[0])
        return evaluate(expr, ctx, params)
    return None


def _eval_aggregate_call(expr, group_rows, ctx, params):
    name = expr.name
    if name == "COUNT" and expr.args and isinstance(expr.args[0], A.Star):
        return len(group_rows)
    if not expr.args:
        raise SqlError(f"{name} requires an argument")
    arg = expr.args[0]
    values = []
    for row in group_rows:
        ctx.bind(row)
        value = evaluate(arg, ctx, params)
        if value is not None:
            values.append(value)
    if expr.distinct:
        values = first_occurrences(values, name + " DISTINCT")
    return fold_aggregate(name, values)
