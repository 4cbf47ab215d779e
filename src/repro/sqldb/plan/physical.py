"""Physical operators: columnar chunks in production, rows as the oracle.

Two operator flavours mirror the two halves of a SELECT:

- **Row sources** (:class:`SeqScanOp`, :class:`IndexLookupOp`,
  :class:`IndexRangeScanOp`, :class:`FilterOp`, :class:`HashJoinOp`,
  :class:`IndexNLJoinOp`, :class:`NestedLoopJoinOp`) stream flat joined
  rows.  They charge every storage row they examine to
  ``run.rows_touched``, which the cost model converts to database time.

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
    the table's cached ``ColumnStore``; filters narrow selection vectors with
    a predicate **compiled once per cached plan**
    (:mod:`repro.sqldb.plan.compile`); equi-joins gather probe keys per
    chunk and assemble their output column-wise.

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
:class:`PhysicalPlan`; ``PhysicalPlan.execute(db, params)`` returns an
:class:`repro.sqldb.result.ExecResult`, and
``PhysicalPlan.execute_analyze`` additionally times every operator
(EXPLAIN ANALYZE).
"""

import copy
from itertools import chain, groupby, islice
from time import perf_counter

from repro.sqldb import ast_nodes as A
from repro.sqldb.columnar import CHUNK_SIZE, ColumnChunk, DictColumn
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.expressions import evaluate, fold_aggregate, RowContext
from repro.sqldb.indexes import OrderedIndex, wrap_key
from repro.sqldb.plan import logical as L
from repro.sqldb.plan.access import (pk_lookup_keys, range_scan_ids,
                                     resolve_index_lookup)
from repro.sqldb.plan.compile import (compile_aggregate_item_columnar,
                                      compile_filter,
                                      compile_grouped_item_columnar,
                                      compile_project)
from repro.sqldb.plan.planner import _AGGREGATE_NAMES
from repro.sqldb.result import ExecResult

# CHUNK_SIZE (rows per chunk) lives in repro.sqldb.columnar, where zone
# maps are built at scan-slice granularity, and is re-exported here.
# Large enough to amortize per-chunk Python overhead, small enough that
# a chunk of joined rows stays cache-friendly.


class PlanRun:
    """Mutable state for one execution of a physical plan."""

    __slots__ = ("db", "params", "sctx", "ctx", "rows_touched",
                 "_source_rows", "source_chunks", "out_columns", "out_rows",
                 "has_aggregates", "prefetched_base_rows", "engine",
                 "batches", "chunks_skipped")

    def __init__(self, db, params, sctx, prefetched_base_rows=None):
        self.db = db
        self.params = tuple(params)
        self.sctx = sctx
        self.ctx = sctx.fresh_context()
        self.rows_touched = 0
        self._source_rows = None  # materialized rows entering projection
        self.source_chunks = None  # ColumnChunks (None under the interpreter)
        self.out_columns = None
        self.out_rows = None
        self.has_aggregates = False
        # When set, the base-table access operator yields these rows instead
        # of scanning storage (the batch shared-scan path): the scan already
        # happened once for the whole group, so no rows are charged here.
        self.prefetched_base_rows = prefetched_base_rows
        self.engine = db.engine
        self.batches = 0  # chunks that flowed between the operators
        self.chunks_skipped = 0  # chunks zone maps proved irrelevant

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


def _pad(row, offset, total_width):
    values = [None] * total_width
    values[offset:offset + len(row)] = row
    return values


# ---------------------------------------------------------------------------
# Row sources
# ---------------------------------------------------------------------------

class _BaseTableScan:
    """Shared scaffolding for base-table access operators.

    Subclasses define ``_rows(run, table)`` returning the list of storage
    rows to read; charging, padding, chunking and the shared-scan prefetch
    live here so both protocols stay in exact accounting agreement.

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

    uses_prefetch = True
    # Sequential scans slice their lanes off the table's cached
    # ColumnStore (no transpose per query); index access paths produce
    # dynamic row sets, so they transpose their rows per execution.
    columnar_store_scan = False
    # Zone test of the Filter directly above and the ordinals of the
    # columns it tests (FilterOp hands both to a SeqScanOp child).
    prune = None
    prune_ordinals = ()

    def __init__(self, table_name, offset, read):
        self.table_name = table_name
        self.offset = offset
        self.read = read

    def iter_cchunks(self, run):
        total = run.sctx.total_width
        if self.uses_prefetch and run.prefetched_base_rows is not None:
            rows = run.prefetched_base_rows
            for start in range(0, len(rows), CHUNK_SIZE):
                run.batches += 1
                yield ColumnChunk.from_rows(
                    rows[start:start + CHUNK_SIZE], total, run.sctx.read)
            return
        table = run.db.tables_get(self.table_name)
        offset = self.offset
        if self.columnar_store_scan:
            store = table.column_store()
            length = store.length
            lanes = [(offset + j, store.lane(j)) for j in self.read]
            zone_lists = [(offset + j, store.zones(j))
                          for j in self.prune_ordinals]
            params = run.params
            for ci, start in enumerate(range(0, length, CHUNK_SIZE)):
                stop = min(start + CHUNK_SIZE, length)
                # Skipped chunks are charged exactly as a scan would
                # charge them: rows_touched is the storage-read cost
                # model's currency and must stay engine-invariant —
                # zone maps change wall-clock, never simulated cost.
                run.rows_touched += stop - start
                if zone_lists:
                    zones = {pos: zl[ci] for pos, zl in zone_lists}
                    try:
                        must_scan = self.prune(zones.get, params)
                    except Exception:
                        must_scan = True  # scan and surface the error
                    if not must_scan:
                        run.chunks_skipped += 1
                        continue
                run.batches += 1
                columns = [None] * total
                for pos, lane in lanes:
                    columns[pos] = lane[start:stop]
                yield ColumnChunk(columns, stop - start, None)
            return
        rows = self._rows(run, table)
        for start in range(0, len(rows), CHUNK_SIZE):
            part = rows[start:start + CHUNK_SIZE]
            run.rows_touched += len(part)
            run.batches += 1
            columns = [None] * total
            # One C-level transpose; the read lanes are kept, as tuples
            # (half the cost of a comprehension per lane over a few rows).
            lanes = list(zip(*part))
            for j in self.read:
                columns[offset + j] = lanes[j]
            yield ColumnChunk(columns, len(part), None)

    def iter_rows_interp(self, run):
        if self.uses_prefetch and run.prefetched_base_rows is not None:
            yield from run.prefetched_base_rows
            return
        table = run.db.tables_get(self.table_name)
        total = run.sctx.total_width
        offset = self.offset
        if offset == 0 and len(table.schema.columns) == total:
            for row in self._rows(run, table):
                run.rows_touched += 1
                yield row
            return
        for row in self._rows(run, table):
            run.rows_touched += 1
            yield _pad(row, offset, total)


class SeqScanOp(_BaseTableScan):
    """Full scan of the base table, padded to the joined-row width.

    ``offset`` is the table's slot in the flat joined-row layout — 0 unless
    join reordering made a non-first FROM table the base of the chain.
    """

    columnar_store_scan = True

    def _rows(self, run, table):
        return [row for _, row in table.scan()]


class IndexLookupOp(_BaseTableScan):
    """Index-accelerated base-table access with runtime fallback.

    Key values come from the statement parameters, so the final index
    decision happens per execution (mirroring the legacy interpreter): when
    :func:`resolve_index_lookup` finds no usable index for the values bound
    to the plan's :class:`~repro.sqldb.plan.access.LookupShape`, this
    operator degrades to a sequential scan and the filter above does all
    the work.
    """

    def __init__(self, table_name, shape, offset, read):
        super().__init__(table_name, offset, read)
        self.shape = shape

    def _rows(self, run, table):
        lookup = resolve_index_lookup(table, self.shape, run.params)
        if lookup is None:
            return [row for _, row in table.scan()]
        return [row for row in map(table.rows.get, lookup)
                if row is not None]


class IndexRangeScanOp(_BaseTableScan):
    """Ordered-index range scan: stream the base table's rows in index key
    order, touching only the equality-prefix + range region.

    Prefix and bound constants resolve against the statement parameters at
    execution time.  A prefix or bound that resolves to NULL yields no
    rows — the conjunct it came from is UNKNOWN for every row, so the
    Filter above would reject everything anyway.  Unlike ``IndexLookupOp``
    this operator never degrades to an *unordered* scan (a Sort may have
    been elided on the strength of its ordering): if the index vanished
    underneath a cached plan (only possible by editing storage behind the
    catalog's back), it falls back to scanning and sorting by the key
    columns, preserving the order contract.
    """

    uses_prefetch = False

    def __init__(self, node, offset, read):
        super().__init__(node.table, offset, read)
        self.index_name = node.index_name
        self.ordinals = node.ordinals
        self.n_prefix = node.n_prefix
        self.prefix_exprs = node.prefix_exprs
        self.low = node.low
        self.low_incl = node.low_incl
        self.high = node.high
        self.high_incl = node.high_incl
        self.descending = node.descending

    def _row_ids(self, table, params):
        index = table.indexes.get(self.index_name)
        if not isinstance(index, OrderedIndex):
            return self._sorted_fallback(table)
        return range_scan_ids(index, self, params, self.descending)

    def _sorted_fallback(self, table):
        """Full scan in key order (see class docstring)."""
        keyed = sorted(
            ((wrap_key(tuple(row[i] for i in self.ordinals)), row_id)
             for row_id, row in table.rows.items()))
        groups = [[row_id for _, row_id in group] for _, group in
                  groupby(keyed, key=lambda pair: pair[0])]
        if self.descending:
            groups.reverse()
        return [row_id for group in groups for row_id in group]

    def _rows(self, run, table):
        return [row for row in
                map(table.rows.get, self._row_ids(table, run.params))
                if row is not None]


class FilterOp:
    """Keep rows whose predicate evaluates to SQL TRUE.

    The chunk path narrows the selection vector with the plan-compiled
    fused predicate — the output chunk shares the input's column arrays,
    so no row materializes; the interpreted path re-walks the AST per row.
    The same compile yields the predicate's zone test: a sequential scan
    directly below consults it per chunk, so zone maps can skip chunks
    before the selection vector is ever built.
    """

    def __init__(self, child, predicate, sctx):
        self.child = child
        self.predicate = predicate
        self._columnar, prune = compile_filter(
            predicate, sctx.context.positions, sctx.context.ambiguous)
        if isinstance(child, SeqScanOp) and prune is not None:
            child.prune = prune
            tested = sctx.positions_of([predicate])
            child.prune_ordinals = [j for j in child.read
                                    if child.offset + j in tested]

    def iter_cchunks(self, run):
        predicate = self._columnar
        params = run.params
        for chunk in self.child.iter_cchunks(run):
            sel = predicate(chunk, params)
            if sel:
                run.batches += 1
                yield ColumnChunk(chunk.columns, chunk.length, sel)

    def iter_rows_interp(self, run):
        predicate = self.predicate
        ctx = run.ctx
        params = run.params
        for values in self.child.iter_rows_interp(run):
            ctx.bind(values)
            if evaluate(predicate, ctx, params) is True:
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


def _hash_join_rows(run, table, left_rows, kind, left_pos, right_ordinal,
                    offset, width):
    """Shared hash-join loop: build over ``table``, probe with
    ``left_rows``.  NULL keys never probe; LEFT joins emit the unmatched
    left row padded with NULLs (already present from the base padding)."""
    buckets = _build_join_buckets(run, table, right_ordinal)
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
    # Not zip(*right_rows): one GC-tracked iterator per row costs a large
    # probe half again its time.
    for j in sctx.table_reads[join_index]:
        out.columns[offset + j] = [row[j] for row in right_rows]
    run.batches += 1
    return out


def _hash_join_chunks(run, table, chunks, kind, left_pos, right_ordinal,
                      join_index):
    """Columnar twin of :func:`_hash_join_rows`: the build is charged
    eagerly, even when the probe side turns out empty, exactly like the
    interpreted path."""
    buckets = _build_join_buckets(run, table, right_ordinal)
    null_row = (None,) * run.sctx.widths[join_index]
    for chunk in chunks:
        picks = []
        right_rows = []
        for i, key in zip(chunk.live_indices(), chunk.gather(left_pos)):
            matches = buckets.get(key, ()) if key is not None else ()
            if matches:
                for row in matches:
                    picks.append(i)
                    right_rows.append(row)
            elif kind == "LEFT":
                picks.append(i)
                right_rows.append(null_row)
        if picks:
            yield _join_chunk(run, chunk, picks, right_rows, join_index)


class HashJoinOp:
    """Equi-join: build a hash table over the right table, probe with the
    child's rows (one gathered key lane per chunk)."""

    def __init__(self, child, join_index, kind, table_name,
                 left_pos, right_ordinal):
        self.child = child
        self.join_index = join_index
        self.kind = kind
        self.table_name = table_name
        self.left_pos = left_pos
        self.right_ordinal = right_ordinal

    def iter_rows_interp(self, run):
        right_table = run.db.tables_get(self.table_name)
        offset = run.sctx.offsets[self.join_index]
        width = run.sctx.widths[self.join_index]
        yield from _hash_join_rows(
            run, right_table, self.child.iter_rows_interp(run), self.kind,
            self.left_pos, self.right_ordinal, offset, width)

    def iter_cchunks(self, run):
        yield from _hash_join_chunks(
            run, run.db.tables_get(self.table_name),
            self.child.iter_cchunks(run), self.kind, self.left_pos,
            self.right_ordinal, self.join_index)


class IndexNLJoinOp:
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
    the optimizer's estimates predicted.

    Both protocols materialize the child (the metadata pass needs every
    left key before anything streams), so accounting is identical by
    design.
    """

    def __init__(self, child, join_index, kind, table_name,
                 left_pos, right_ordinal, index_name):
        self.child = child
        self.join_index = join_index
        self.kind = kind
        self.table_name = table_name
        self.left_pos = left_pos
        self.right_ordinal = right_ordinal
        self.index_name = index_name  # "<pk>" or a secondary index name

    def _probe_ids(self, table, key):
        """Row ids matching ``key``, via the chosen access path."""
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
        """Metadata pass: the row-id set each left key's probe would
        fetch (kept so the emit loop never probes twice), or None when
        the hash fallback must run — the index vanished, or the probes
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

    def iter_rows_interp(self, run):
        table = run.db.tables_get(self.table_name)
        offset = run.sctx.offsets[self.join_index]
        width = run.sctx.widths[self.join_index]
        left_pos = self.left_pos
        kind = self.kind
        left_rows = list(self.child.iter_rows_interp(run))
        probes = self._probe_all(
            table, [values[left_pos] for values in left_rows])
        if probes is None:
            yield from _hash_join_rows(run, table, left_rows, kind,
                                       left_pos, self.right_ordinal,
                                       offset, width)
            return
        for values, ids in zip(left_rows, probes):
            matched = False
            for row_id in sorted(ids):
                row = table.rows.get(row_id)
                if row is None:
                    continue
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
        kind = self.kind
        chunks = list(self.child.iter_cchunks(run))
        keys = [chunk.gather(left_pos) for chunk in chunks]
        probes = self._probe_all(table, chain.from_iterable(keys))
        if probes is None:
            yield from _hash_join_chunks(run, table, chunks, kind, left_pos,
                                         self.right_ordinal, self.join_index)
            return
        probe = iter(probes)
        rows_get = table.rows.get
        null_row = (None,) * run.sctx.widths[self.join_index]
        for chunk in chunks:
            picks = []
            right_rows = []
            for i, ids in zip(chunk.live_indices(), probe):
                matched = False
                for row_id in sorted(ids):
                    row = rows_get(row_id)
                    if row is not None:
                        run.rows_touched += 1
                        picks.append(i)
                        right_rows.append(row)
                        matched = True
                if not matched and kind == "LEFT":
                    picks.append(i)
                    right_rows.append(null_row)
            if picks:
                yield _join_chunk(run, chunk, picks, right_rows,
                                  self.join_index)


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
        self.out_columns = _output_columns(
            sctx.stmt, _expand_stars(sctx.stmt, sctx.context))
        positions = sctx.context.positions
        ambiguous = sctx.context.ambiguous
        # Chunk-at-a-time aggregate closures for the fused no-GROUP-BY
        # path (a None entry means the query is interpreted).
        self._citem_fns = [compile_aggregate_item_columnar(
            item.expr, positions, ambiguous) for item in items]
        # Grouped columnar path: per-item (make, update, final) triples
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
                self._cgrouped_items = triples
                self._ckey_positions = key_positions

    def apply(self, run):
        run.has_aggregates = True
        ctx = run.ctx
        params = run.params
        if (run.source_chunks is not None
                and not self.group_by and self.having is None
                and all(fn is not None for fn in self._citem_fns)):
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
        rows = run.source_rows
        groups = {}
        if not self.group_by:
            groups[()] = list(rows)
        else:
            for values in rows:
                ctx.bind(values)
                key = tuple(evaluate(e, ctx, params) for e in self.group_by)
                groups.setdefault(key, []).append(values)

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
        triples = self._cgrouped_items
        makes = [t[0] for t in triples]
        updates = [t[1] for t in triples]
        finals = [t[2] for t in triples]
        key_positions = self._ckey_positions
        single = len(key_positions) == 1
        groups = {}  # key value (scalar when single) -> group index
        accs = [[] for _ in triples]
        n_groups = 0
        trans_cache = {}  # id(meta) -> (meta, code -> gidx list, [null gidx])
        for chunk in run.source_chunks:
            n = chunk.n_live()
            if n == 0:
                continue
            live = chunk.live_indices()
            gidxs = []
            ga = gidxs.append
            if single:
                col = chunk.columns[key_positions[0]]
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
                    keys = ([None] * n if col is None
                            else [col[i] for i in live])
                    for key in keys:
                        g = groups.get(key, -1)
                        if g < 0:
                            g = n_groups
                            groups[key] = g
                            n_groups += 1
                            for make, acc in zip(makes, accs):
                                acc.append(make())
                        ga(g)
            else:
                lanes = [chunk.gather_at(pos, live)
                         for pos in key_positions]
                for key in zip(*lanes):
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
    """Drop duplicate output rows, keeping first occurrences."""

    def apply(self, run):
        seen = set()
        unique = []
        for row in run.out_rows:
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        run.out_rows = unique


class SortOp:
    """ORDER BY over projected rows.

    Keys may reference output aliases/positions or — for non-aggregate
    queries, where output rows align 1:1 with source rows — source
    columns, interpreted against the source row.  Only such a key makes
    the operator ask for ``run.source_rows``: ordering by output columns
    never transposes the source chunks.
    """

    def __init__(self, order_by):
        self.order_by = order_by

    def apply(self, run):
        out_columns = run.out_columns
        alias_positions = {name: i for i, name in enumerate(out_columns)}
        # Each key's provenance, resolved once per execution: an output
        # position, or None for an expression over the source row.
        keys = []
        for item in self.order_by:
            expr = item.expr
            if (isinstance(expr, A.ColumnRef) and expr.table is None
                    and expr.column in alias_positions):
                pos = alias_positions[expr.column]
            else:
                pos = order_by_position(expr, len(out_columns))
            keys.append((pos, expr, item.descending))
        out_rows = run.out_rows
        source_rows = None
        if out_rows and any(pos is None for pos, _, _ in keys):
            if run.has_aggregates:
                raise SqlError(
                    "ORDER BY in aggregate queries must reference "
                    "output columns")
            source_rows = run.source_rows
        ctx = run.ctx
        params = run.params
        keyed = []
        for i, out in enumerate(out_rows):
            key = []
            for pos, expr, descending in keys:
                if pos is not None:
                    value = out[pos]
                else:
                    ctx.bind(source_rows[i])
                    value = evaluate(expr, ctx, params)
                key.append(_SortKey(value, descending))
            keyed.append((key, out))
        keyed.sort(key=lambda pair: pair[0])
        run.out_rows = [out for _, out in keyed]


def order_by_position(expr, width):
    """The 0-based output column an ``ORDER BY <integer literal>`` key
    names, or None when the key is any other expression.  A position
    outside ``1..width`` raises instead of indexing the row with it
    (``ORDER BY 0`` would silently sort by the last column)."""
    if not (isinstance(expr, A.Literal) and isinstance(expr.value, int)
            and not isinstance(expr.value, bool)):
        return None
    if not 1 <= expr.value <= width:
        raise SqlError(
            f"ORDER BY position {expr.value} is not in the select list")
    return expr.value - 1


def resolve_limit(limit_expr, offset_expr, params):
    """``(limit, offset)`` of a LIMIT clause — the one place its values
    are validated; :class:`LimitOp`, the ``limit_hint`` cutoff and the
    shard coordinator's merge all slice with what this returns.  Anything
    but a non-negative integer (a string, NULL, a float, a bool, ``-1``)
    raises instead of reaching a Python slice, where it would leak a
    ``TypeError`` or count from the wrong end."""
    ctx = RowContext({}).bind(())
    bounds = []
    for clause, expr in (("LIMIT", limit_expr), ("OFFSET", offset_expr)):
        value = evaluate(expr, ctx, params) if expr is not None else 0
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


class _SortKey:
    """Comparable wrapper: NULLs sort first ascending; honors DESC."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending):
        self.value = value
        self.descending = descending

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending
        if b is None:
            return self.descending
        if a == b:
            return False
        try:
            less = a < b
        except TypeError:
            raise SqlTypeError(f"cannot order {a!r} against {b!r}") from None
        return (not less) if self.descending else less

    def __eq__(self, other):
        return self.value == other.value


# ---------------------------------------------------------------------------
# The executable plan
# ---------------------------------------------------------------------------

class PhysicalPlan:
    """A row-source tree plus the result-operator pipeline above it.

    ``shared_scan_table`` is the table name when the row source is a pure
    sequential scan (no joins, no index access path) — the batch shared-scan
    optimizer's eligibility test, precomputed here so it rides the plan
    cache instead of re-walking the AST on every batch flush.
    """

    __slots__ = ("source", "result_ops", "sctx", "shared_scan_table",
                 "limit_hint", "referenced_tables")

    def __init__(self, source, result_ops, sctx, limit_hint=None):
        self.source = source
        self.result_ops = result_ops
        self.sctx = sctx
        # Every base table the plan reads (deduplicated, FROM order) — the
        # result cache snapshots these tables' write versions per entry.
        self.referenced_tables = tuple(
            dict.fromkeys(ref.name for ref in sctx.tables))
        # Set only when a Sort was elided under a LIMIT (see
        # build_physical): the first limit+offset source rows are the
        # final answer, so stop pulling once they have streamed out —
        # top-N-by-key pages touch ~N rows instead of the whole range.
        self.limit_hint = limit_hint
        op = source
        while isinstance(op, FilterOp):
            op = op.child
        self.shared_scan_table = (
            op.table_name if isinstance(op, SeqScanOp) else None)

    def pk_probe_keys(self, db, params=()):
        """The primary-key values this plan probes as a pure point lookup,
        or None when the plan is not a pk point lookup for these params.

        Non-None only when the row source (below any filters) is an
        :class:`IndexLookupOp` whose predicate the primary key serves —
        a single equality or an IN list.  The concurrent serving layer
        uses the ``(table, keys)`` pair to merge point lookups issued by
        different requests into one shared multi-probe.
        """
        op = self.source
        while isinstance(op, FilterOp):
            op = op.child
        if not isinstance(op, IndexLookupOp):
            return None
        table = db.tables.get(op.table_name)
        if table is None:
            return None
        keys = pk_lookup_keys(table, op.shape, params)
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
        ANALYZE report: one line per operator annotated with produced-row
        count and inclusive wall time (an operator's time contains its
        children's, as in the classic EXPLAIN ANALYZE convention).
        Deliberately side-effect-light: no result-cache store, no
        statement counters — a profiling probe, not an execution.
        """
        run = PlanRun(db, params, self.sctx)
        chain = []
        op = self.source
        while op is not None:
            chain.append(op)
            op = getattr(op, "child", None)
        timed = None
        source_records = []
        for op in reversed(chain):
            record = _AnalyzeRecord(_op_label(op))
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
            record = _AnalyzeRecord(type(op).__name__.removesuffix("Op"))
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
        result = run.result()
        lines = [
            f"EXPLAIN ANALYZE [engine={run.engine}, "
            f"rows={len(run.out_rows)}, "
            f"rows_touched={run.rows_touched}, "
            f"total_ms={total * 1000:.3f}]"]
        depth = 0
        for record in reversed(result_records):
            lines.append("  " * depth + record.render())
            depth += 1
        for record in source_records:
            lines.append("  " * depth + record.render())
            depth += 1
        return result, lines


class _AnalyzeRecord:
    """One operator's EXPLAIN ANALYZE measurements.

    ``rows`` counts produced (live) rows under every engine.  Chunked
    execution additionally reports ``chunks`` (chunks yielded) and
    ``sel``, the live fraction of chunk capacity, so EXPLAIN ANALYZE
    shows how dense the surviving selection is after each operator.
    """

    __slots__ = ("label", "rows", "seconds", "chunks", "capacity",
                 "skipped")

    def __init__(self, label):
        self.label = label
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

    def render(self):
        parts = [f"rows={self.rows}"]
        if self.chunks:
            parts.append(f"chunks={self.chunks}")
        if self.skipped:
            parts.append(f"chunks_skipped={self.skipped}")
        if self.capacity:
            parts.append(f"sel={100.0 * self.rows / self.capacity:.1f}%")
        parts.append(f"time={self.seconds * 1000:.3f}ms")
        return f"{self.label} [{', '.join(parts)}]"


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


def _op_label(op):
    if isinstance(op, SeqScanOp):
        return f"SeqScan({op.table_name})"
    if isinstance(op, IndexLookupOp):
        return f"IndexLookup({op.table_name})"
    if isinstance(op, IndexRangeScanOp):
        return f"IndexRangeScan({op.table_name} via {op.index_name})"
    if isinstance(op, FilterOp):
        return "Filter"
    if isinstance(op, HashJoinOp):
        return f"HashJoin({op.table_name})"
    if isinstance(op, IndexNLJoinOp):
        return f"IndexNLJoin({op.table_name} via {op.index_name})"
    if isinstance(op, NestedLoopJoinOp):
        return f"NestedLoopJoin({op.table_name})"
    return type(op).__name__


def build_physical(node, sctx):
    """Lower an optimized logical tree into a :class:`PhysicalPlan`."""
    result_ops = []
    while True:
        if isinstance(node, L.Limit):
            result_ops.append(LimitOp(node.limit, node.offset))
            node = node.child
        elif isinstance(node, L.Sort):
            result_ops.append(SortOp(node.order_by))
            node = node.child
        elif isinstance(node, L.Distinct):
            result_ops.append(DistinctOp())
            node = node.child
        elif isinstance(node, L.Project):
            result_ops.append(ProjectOp(node.items, sctx))
            node = node.child
            break
        elif isinstance(node, L.Aggregate):
            result_ops.append(AggregateOp(node.items, node.group_by,
                                          node.having, sctx))
            node = node.child
            break
        else:
            raise SqlError(f"unexpected plan node above projection: {node!r}")
    result_ops.reverse()
    source = _build_source(node, sctx)
    return PhysicalPlan(source, result_ops, sctx,
                        limit_hint=_limit_hint(result_ops, sctx))


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


def _build_source(node, sctx):
    if isinstance(node, L.Scan):
        return SeqScanOp(node.table, sctx.offsets[node.table_index],
                         sctx.table_reads[node.table_index])
    if isinstance(node, L.IndexLookup):
        return IndexLookupOp(node.table, node.shape,
                             sctx.offsets[node.table_index],
                             sctx.table_reads[node.table_index])
    if isinstance(node, L.IndexRangeScan):
        return IndexRangeScanOp(node, sctx.offsets[node.table_index],
                                sctx.table_reads[node.table_index])
    if isinstance(node, L.Filter):
        return FilterOp(_build_source(node.child, sctx), node.predicate,
                        sctx)
    if isinstance(node, L.Join):
        child = _build_source(node.child, sctx)
        if node.strategy == "index":
            left_pos, right_ordinal = node.equi
            return IndexNLJoinOp(child, node.table_index, node.kind,
                                 node.table, left_pos, right_ordinal,
                                 node.index_name)
        if node.strategy == "hash":
            left_pos, right_ordinal = node.equi
            return HashJoinOp(child, node.table_index, node.kind,
                              node.table, left_pos, right_ordinal)
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
        values = list(dict.fromkeys(values))
    return fold_aggregate(name, values)
