"""Physical operators: columnar chunks between every operator.

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
  materialized output relation via ``apply(run)``.  Each has one body.
  ``ProjectOp``, ``AggregateOp`` and a Sort key over the source read
  ``run.source_chunks`` through lanes (:mod:`repro.sqldb.plan.compile`):
  a kernel where the shape has one, else the one interpreted lane.
  ``AggregateOp`` is one fold for every shape — keys or none, HAVING,
  DISTINCT, aggregates inside arithmetic.

Row sources speak one protocol, ``iter_cchunks(run)``: operators exchange
:class:`repro.sqldb.columnar.ColumnChunk` column arrays of up to
:data:`CHUNK_SIZE` rows (fewer under the cutoff below), of which only the
statement's read set (``SelectContext.read``) is filled.  Sequential scans slice chunks off the
table's cached ``ColumnStore``; a scan's own predicate, **compiled once
per cached plan** (:mod:`repro.sqldb.plan.compile`), sets each chunk's
selection vector before the chunk is yielded; equi-joins gather probe
keys per chunk and assemble their output column-wise.

Rows are charged to ``rows_touched`` where storage is read, as the chunk
that holds them is made.  A plan runs its source to exhaustion, but for
one early stop: under a ``limit_hint`` (a Sort elided beneath a LIMIT)
the pull ends after limit+offset rows, and no chunk reaches past the row
the cut may fall on — the ordered walk's chunk holds at most the rows
still wanted (one, below a join that may emit several rows for one), an
index join emits one joined row a chunk — so the rows past the cut are
neither read nor charged.

``build_physical`` lowers an optimized logical tree into a
:class:`PhysicalPlan`, one operator per logical node (but for a Filter
absorbed as above), and keeps the tree
(``PhysicalPlan.logical``); ``PhysicalPlan.execute(db, params)`` returns an
:class:`repro.sqldb.result.ExecResult` of the result operators' tuples, and
``PhysicalPlan.execute_analyze`` additionally measures every operator and
writes each measurement on its node's EXPLAIN line (EXPLAIN ANALYZE).
"""

import copy
from collections import Counter
from functools import partial
from itertools import chain
from operator import is_not, itemgetter
from time import perf_counter

from repro.sqldb import ast_nodes as A
from repro.sqldb.columnar import CHUNK_SIZE, ColumnChunk, DictColumn
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.expressions import (evaluate, first_occurrences,
                                     fold_aggregate, RowContext)
from repro.sqldb.plan import logical as L
from repro.sqldb.plan.access import (keyed_conjuncts, pk_lookup_keys,
                                     range_scan_ids, residual_predicate,
                                     resolve_index_lookup, walked_conjuncts)
from repro.sqldb.plan.compile import (column_position, compile_filter,
                                      compile_operand, compile_project,
                                      compile_values)
from repro.sqldb.plan.cost import conjunct_tables
from repro.sqldb.plan.planner import _AGGREGATE_NAMES, order_by_position
from repro.sqldb.result import ExecResult

# CHUNK_SIZE (rows per chunk) lives in repro.sqldb.columnar, where zone
# maps are built at scan-slice granularity, and is re-exported here.
# Large enough to amortize per-chunk Python overhead, small enough that
# a chunk of joined rows stays cache-friendly.


class PlanRun:
    """Mutable state for one execution of a physical plan: what it reads
    (the database, the parameters, a batch's shared-scan rows), what it
    counts, and what flows between its operators.  Everything else an
    operator needs is its own, fixed when the plan was built."""

    __slots__ = ("db", "params", "prefetched_base_rows", "rows_touched",
                 "batches", "chunks_skipped", "chunk_size", "source_chunks",
                 "out_rows")

    def __init__(self, db, params, prefetched_base_rows=None):
        self.db = db
        self.params = tuple(params)
        # When set, the base-table access operator yields these rows instead
        # of scanning storage (the batch shared-scan path): the scan already
        # happened once for the whole group, so no rows are charged here.
        self.prefetched_base_rows = prefetched_base_rows
        self.rows_touched = 0
        self.batches = 0  # chunks that flowed between the operators
        self.chunks_skipped = 0  # chunks zone maps proved irrelevant
        # Rows in the next chunk an index access makes; a cutoff sets it
        # to the rows still wanted before each pull.
        self.chunk_size = CHUNK_SIZE


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

    Subclasses define ``_keep_chunks(run)`` returning the kernel to run —
    ``keep``, the ``predicate``'s (the Filter directly above, whole), or
    ``residuals[path]``, what an index path left of it — and the chunks
    to run it over.  The predicate lives here; a sequential scan owns its
    zone test and the shared-scan prefetch, an index access its rows'
    chunking (:meth:`_chunks`).

    ``read`` is the table's share of the statement's read set
    (``SelectContext.table_reads``): the operator fills those lanes and
    leaves every other the all-NULL lane.  The lanes are copies, so no
    plan operator can reach a storage row to mutate it.
    """

    # A sequential scan slices its lanes off the table's cached
    # ColumnStore (no transpose per query) and takes the batch's shared
    # scan rows; index access paths transpose their rows per execution.
    sequential = False
    prune = None

    def __init__(self, node, sctx, predicate):
        self.table_name = node.table
        self.offset = sctx.offsets[node.table_index]
        self.read = sctx.table_reads[node.table_index]
        self.width = sctx.total_width
        self.predicate = predicate
        self.keep = None
        zoned = equal = ()
        if predicate is not None:
            context = sctx.context
            self.keep, prune, reads = compile_filter(
                predicate, context.positions, context.ambiguous)
            if self.sequential:
                zoned, equal = (tuple(j for j in self.read
                                      if self.offset + j in positions)
                                for positions in reads)
                self.prune = prune if zoned or equal else None
        # What the table's ColumnStore cuts this scan's chunks by.
        self.layout = (self.offset, tuple(self.read), self.width, zoned,
                       equal)
        self.all_read = sctx.read  # the prefetched rows' lanes

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

    def _chunks(self, run, rows):
        """``rows`` in chunks of ``run.chunk_size``, each charged as it is
        made — one C-level transpose per chunk, of which the read lanes
        are kept, as tuples (half the cost of a comprehension per lane
        over a few rows)."""
        offset, read, width = self.offset, self.read, self.width
        start = 0
        while start < len(rows):
            part = rows[start:start + run.chunk_size]
            start += len(part)
            run.rows_touched += len(part)
            lanes = list(zip(*part))
            columns = [None] * width
            for j in read:
                columns[offset + j] = lanes[j]
            yield ColumnChunk(columns, len(part))


class SeqScanOp(_BaseTableScan):
    """Full scan of the base table, padded to the joined-row width.

    ``offset`` is the table's slot in the flat joined-row layout — 0 unless
    join reordering made a non-first FROM table the base of the chain.
    """

    sequential = True

    def _keep_chunks(self, run):
        """The table's cached ColumnStore in its :meth:`ColumnStore.slices`
        for this scan (or the batch's prefetched rows), every row charged:
        zone maps and equality facets change wall-clock, never the
        simulated cost.  A chunk carries its slice's facets.  The slices are
        the zone maps' own, :data:`CHUNK_SIZE` rows: a cutoff never sits
        over a sequential scan (only an ordered walk elides a Sort)."""
        if run.prefetched_base_rows is not None:
            rows = run.prefetched_base_rows
            return self.keep, [
                ColumnChunk.from_rows(rows[start:start + CHUNK_SIZE],
                                      self.width, self.all_read)
                for start in range(0, len(rows), CHUNK_SIZE)]
        store = run.db.tables_get(self.table_name).column_store()
        run.rows_touched += store.length
        prune, params = self.prune, run.params
        chunks = []
        for columns, length, zone_of, facet_of in store.slices(self.layout):
            if prune is not None:
                try:
                    must_scan = prune(zone_of, facet_of, params)
                except Exception:
                    must_scan = True  # scan and surface the error
                if not must_scan:
                    run.chunks_skipped += 1
                    continue
            chunks.append(ColumnChunk(columns, length, None, facet_of))
        return self.keep, chunks


class IndexLookupOp(_BaseTableScan):
    """Index-accelerated base-table access with runtime fallback.

    Key values come from the statement parameters, so the final index
    decision happens per execution: when :func:`resolve_index_lookup`
    finds no usable index for the values bound to the plan's
    :class:`~repro.sqldb.plan.access.IndexProbe`, this
    operator degrades to a sequential scan and its predicate does all the
    work.  An equality probe decides the conjuncts it keyed on, so the
    operator then runs ``residuals[path]`` — the predicate without them
    (:func:`keyed_conjuncts`), compiled per candidate path when the plan
    is built — instead of ``keep``; an IN-list probe and the scan
    re-check the whole predicate.
    """

    def __init__(self, node, sctx, predicate):
        super().__init__(node, sctx, predicate)
        self.probe = node.probe
        self.residuals = {name: _kernel(sctx, residual_predicate(
            predicate, keyed_conjuncts(predicate, columns)))
            for name, columns in self.probe.paths()}

    def _keep_chunks(self, run):
        table = run.db.tables_get(self.table_name)
        path, hits = resolve_index_lookup(table, self.probe, run.params)
        if hits is None:
            return self.keep, self._chunks(run, list(map(_ROW, table.scan())))
        return (self.residuals.get(path, self.keep),
                self._chunks(run, list(map(_ROW, hits))))


class IndexRangeScanOp(_BaseTableScan):
    """Ordered-index range scan: stream the base table's rows in index key
    order, touching only the equality-prefix + range region.

    Prefix and bound constants resolve against the statement parameters at
    execution time.  A prefix or bound that resolves to NULL yields no
    rows — the conjunct it came from is UNKNOWN for every row, so the
    predicate would reject everything anyway; else the operator re-checks
    only what the walk did not decide (:func:`walked_conjuncts`).  A value
    its column cannot compare is walked by no index: the operator scans
    under the whole predicate, as ``IndexLookupOp`` does.  Row order cannot
    matter there, though a Sort may have been elided: that conjunct raises
    on the first row that reaches it, or the predicate keeps no row.
    """

    def __init__(self, node, sctx, predicate):
        super().__init__(node, sctx, predicate)
        self.scan = node  # index, equality prefix, bounds and direction
        self.residuals = {node.index_name: _kernel(sctx, residual_predicate(
            predicate, walked_conjuncts(node)))}

    def _keep_chunks(self, run):
        table = run.db.tables_get(self.table_name)
        scan = self.scan
        ids = range_scan_ids(table.indexes[scan.index_name], scan,
                             run.params, scan.descending)
        if ids is None:
            return self.keep, self._chunks(run, list(map(_ROW, table.scan())))
        return (self.residuals.get(scan.index_name, self.keep),
                self._chunks(run, list(map(table.rows.__getitem__, ids))))


class FilterOp:
    """Keep rows whose predicate evaluates to SQL TRUE (above a join).

    It narrows the selection vector with ``keep``, the plan-compiled
    fused predicate — the output chunk shares the input's column arrays,
    so no row materializes.
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


def _kernel(sctx, predicate):
    """``predicate``'s chunk kernel over the plan's row layout, or None."""
    return None if predicate is None else compile_filter(
        predicate, sctx.context.positions, sctx.context.ambiguous)[0]


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


def _right_lanes(sctx, join_index, rows, columns):
    """``columns`` with the joined table's read lanes transposed from
    ``rows``, its storage rows.  Not zip(*rows): one GC-tracked iterator
    per row costs a large probe half again its time."""
    offset = sctx.offsets[join_index]
    for j in sctx.table_reads[join_index]:
        columns[offset + j] = [row[j] for row in rows]
    return columns


def _join_chunk(run, op, chunk, picks, right_rows):
    """The joined output chunk for one probe chunk — the emit step every
    equi-join shares: ``take`` replicates the left lanes at ``picks`` for
    the match fan-out (dictionary lanes stay encoded) and the right
    table's read lanes are transposed from ``right_rows``, the matched
    storage rows (an all-NULL row for a LEFT join's unmatched row)."""
    sctx, join_index = op.sctx, op.join_index
    offset = sctx.offsets[join_index]
    out = chunk.take(
        picks, skip_range=(offset, offset + sctx.widths[join_index]))
    _right_lanes(sctx, join_index, right_rows, out.columns)
    run.batches += 1
    return out


def _survivors(run, op, rows):
    """The indices of ``rows``, ``op``'s storage rows, its ``keep`` keeps."""
    sctx = op.sctx
    columns = _right_lanes(sctx, op.join_index, rows,
                           [None] * sctx.total_width)
    return op.keep(ColumnChunk(columns, len(rows)), run.params)


def _hash_join_chunks(run, table, chunks, op):
    """``op``'s hash join of ``chunks`` with ``table``: the build is
    charged when the first chunk is asked for, even when the probe side
    turns out empty.  NULL keys never probe; a LEFT join emits an
    unmatched row beside an all-NULL right side."""
    buckets = _build_join_buckets(run, table, op.right_ordinal)
    if op.cutoff and any(len(rows) > 1 for rows in buckets.values()):
        chunks = _one_row_at_a_time(run, chunks)
    kept = {}
    for chunk in chunks:
        out = _probe_chunk(run, op, chunk, chunk.gather(op.left_pos),
                           buckets, kept)
        if out is not None:
            yield out


def _one_row_at_a_time(run, chunks):
    """``chunks``, a child's, each pulled with ``run.chunk_size`` 1: under
    a cutoff, an operator that may emit several rows for one of its input
    rows must not let its child read past the row the cut may fall on."""
    chunks = iter(chunks)
    while True:
        run.chunk_size = 1
        chunk = next(chunks, None)
        if chunk is None:
            return
        yield chunk


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
    null_row = (None,) * op.sctx.widths[op.join_index]
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
        return _join_chunk(run, op, chunk, picks, right_rows)
    return None


class HashJoinOp:
    """Equi-join: build a hash table over the right table, probe with the
    child's rows (one gathered key lane per chunk).  ``predicate`` is the
    Filter it took (:func:`_absorbed`), ``keep`` its kernel: chunks carry
    only the rows it keeps.  ``cutoff``: the plan stops after its first
    rows (:func:`_first_rows`), so the join must not read past them."""

    def __init__(self, child, node, sctx, predicate, cutoff):
        self.child = child
        self.sctx = sctx
        self.cutoff = cutoff
        self.join_index = node.table_index
        self.kind = node.kind
        self.table_name = node.table
        self.left_pos, self.right_ordinal = node.equi
        self.predicate = predicate
        self.keep = _kernel(sctx, predicate)

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
    (:func:`_probe_chunk`, ``keep`` included) joins.  The child is
    materialized whole (the metadata pass needs every left key before
    anything streams); under a cutoff each joined row is its own chunk and
    each fetched row is charged as its chunk is made.
    """

    def __init__(self, child, node, sctx, predicate, cutoff):
        super().__init__(child, node, sctx, predicate, cutoff)
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
            if self.cutoff:
                yield from self._row_chunks(run, chunk, probe, rows_getitem)
                continue
            fetched = {}
            for key, ids in zip(chunk_keys, probe):
                rows = list(map(rows_getitem, ids))
                run.rows_touched += len(rows)
                fetched[key] = rows
            out = _probe_chunk(run, self, chunk, chunk_keys, fetched, kept)
            if out is not None:
                yield out

    def _row_chunks(self, run, chunk, probe, rows_getitem):
        """``chunk`` joined under a cutoff: a chunk per joined row, each
        fetched row charged as its chunk is made, so a stop inside a key's
        rows leaves the rest of them uncharged."""
        null_row = (None,) * self.sctx.widths[self.join_index]
        keep = self.keep
        for i in chunk.live_indices():
            ids = next(probe)
            for row in map(rows_getitem, ids):
                run.rows_touched += 1
                if keep is None or _survivors(run, self, [row]):
                    yield _join_chunk(run, self, chunk, [i], [row])
            if not ids and self.kind == "LEFT":
                yield _join_chunk(run, self, chunk, [i], [null_row])


class NestedLoopJoinOp:
    """General join with an arbitrary ON condition.

    The per-pair work is row-shaped and has no chunk kernel: each probe
    chunk is transposed to rows, joined through the interpreted condition,
    and transposed back.
    """

    def __init__(self, child, node, sctx, cutoff):
        self.child = child
        self.sctx = sctx
        self.cutoff = cutoff
        self.join_index = node.table_index
        self.kind = node.kind
        self.table_name = node.table
        self.condition = node.condition

    def _scan_right(self, run):
        """The right table's rows, charged once per execution — before
        the first left row is pulled."""
        right_rows = [row for _, row in
                      run.db.tables_get(self.table_name).scan()]
        run.rows_touched += len(right_rows)
        return right_rows

    def _join_rows(self, run, left_rows, right_rows):
        offset = self.sctx.offsets[self.join_index]
        width = self.sctx.widths[self.join_index]
        condition = self.condition
        keep_unmatched = self.kind == "LEFT"
        ctx = RowContext(self.sctx.context.positions,
                         self.sctx.context.ambiguous)
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

    def iter_cchunks(self, run):
        right_rows = self._scan_right(run)
        total = self.sctx.total_width
        chunks = self.child.iter_cchunks(run)
        for chunk in _one_row_at_a_time(run, chunks) if self.cutoff else chunks:
            out = list(self._join_rows(run, chunk.to_rows(), right_rows))
            if out:
                run.batches += 1
                yield ColumnChunk.from_rows(out, total, self.sctx.read)


# ---------------------------------------------------------------------------
# Result operators
# ---------------------------------------------------------------------------

class ProjectOp:
    """Evaluate the select list (with ``*`` expansion) over each chunk.

    Star expansion and output-column names depend only on the statement and
    the FROM-list layout, both fixed for the plan's lifetime (DDL
    invalidates the plan cache), so they are computed once at build time —
    as is the select list's kernel (:func:`compile_project`).
    """

    def __init__(self, items, sctx):
        expansions = _expand_stars(sctx.stmt, sctx.context)
        self.out_columns = _output_columns(sctx.stmt, expansions)
        self.out_positions = _output_positions(sctx.stmt, expansions,
                                               sctx.context)
        self._project = compile_project(items, expansions,
                                        sctx.context.positions,
                                        sctx.context.ambiguous)

    def apply(self, run):
        project, params = self._project, run.params
        out_rows = []
        extend = out_rows.extend
        for chunk in run.source_chunks:
            extend(project(chunk, params))
        run.out_rows = out_rows


class AggregateOp:
    """GROUP BY + aggregate select items + HAVING: one fold, every shape.

    1. *Group.*  The key lanes map each live row to a group slot, slots in
       first-encounter order; a single dictionary-encoded key maps codes,
       decoding each distinct value once per dictionary.  A group keeps
       its first row and its row count.  With no GROUP BY there is one
       group, and it exists over no row too.
    2. *HAVING.*  HAVING's own aggregate calls fold over every group's
       rows, then HAVING is evaluated once per group.
    3. *Items.*  The items' aggregate calls fold over the rows of the
       groups HAVING kept, and only those: an argument's lane is read
       there, its non-NULL values collected per group (first occurrences
       under DISTINCT) and folded by :func:`fold_aggregate`; ``COUNT(*)``
       is the group's row count.
    4. *Output.*  An item (or HAVING) is evaluated per group by its
       finisher (:func:`_finisher`, compiled with the plan): each
       aggregate call is its folded value, any other leaf is its lane at
       the group's first row (the all-NULL row of the empty group).

    That is the interpreter's evaluation scope for an aggregate query:
    an argument is evaluated on the rows of the groups that are output, a
    plain item on one row per group.  An aggregate call is one reached
    from the item's root through operators; one anywhere else (inside a
    scalar function, say) is a leaf the interpreter refuses.
    """

    def __init__(self, items, group_by, having, sctx):
        if any(isinstance(item.expr, A.Star) for item in items):
            # Refused at build time, data or no data: a group has no one
            # source row for ``*`` to expand over.
            raise SqlError("'*' cannot be selected in an aggregate query")
        context = sctx.context
        positions, ambiguous = context.positions, context.ambiguous
        no_stars = [None] * len(items)
        self.out_columns = _output_columns(sctx.stmt, no_stars)
        self.out_positions = _output_positions(sctx.stmt, no_stars, context)
        self.keys = [compile_values(e, positions, ambiguous)
                     for e in group_by]
        # A single plain-column key groups a dictionary lane by code.
        self.code_key = (column_position(group_by[0], positions, ambiguous)
                         if len(group_by) == 1
                         and isinstance(group_by[0], A.ColumnRef) else None)
        # The empty group's first row: an all-NULL one.
        self.no_row = (ColumnChunk([None] * sctx.total_width, 1), 0)
        # Per aggregate call ``(name, distinct, lane or None)``, in the
        # order the finishers index their folded values.
        self.having_calls = []
        self.having = None if having is None else _finisher(
            having, self.having_calls, positions, ambiguous)
        self.item_calls = []
        self.finishers = [_finisher(item.expr, self.item_calls, positions,
                                    ambiguous) for item in items]

    def apply(self, run):
        params = run.params
        parts, firsts, counts = self._group(run.source_chunks, params)
        groups = None  # every group, else those HAVING kept
        if self.having is not None:
            kept = self.having(_fold(self.having_calls, parts, counts, params),
                               firsts, params)
            groups = [g for g, holds in enumerate(kept) if holds is True]
            if len(groups) < len(firsts):
                parts = _narrowed(parts, groups, len(firsts))
        folded = _fold(self.item_calls, parts, counts, params)
        if groups is not None:
            folded = [[values[g] for g in groups] for values in folded]
            firsts = [firsts[g] for g in groups]
        columns = []  # step 4: per item its value per group
        for finish in self.finishers:
            columns.append(finish(folded, firsts, params))
        run.out_rows = list(zip(*columns))

    def _group(self, chunks, params):
        """Step 1: ``(parts, firsts, counts)`` — per chunk with live rows
        ``(chunk, live, slots)``, ``slots`` each live row's group slot
        (None: every row is slot 0's, no GROUP BY) — and per slot its
        first row as ``(chunk, i)`` and its row count."""
        parts = []
        rows = 0
        for chunk in chunks:
            live = chunk.live_indices()
            if live:
                parts.append((chunk, live, None))
                rows += len(live)
        if not self.keys:
            return parts, [(parts[0][0], parts[0][1][0]) if parts
                           else self.no_row], [rows]
        slot_of = {}  # key value (a tuple for several keys) -> slot
        firsts = []
        code_slots = {}  # id(dictionary) -> slot per code, NULL's last
        grouped = []
        for chunk, live, _ in parts:
            slots = []
            append = slots.append
            col = (chunk.columns[self.code_key]
                   if self.code_key is not None else None)
            if type(col) is DictColumn:
                meta, codes = col.meta, col.codes
                code_map = code_slots.get(id(meta))
                if code_map is None:
                    code_map = code_slots[id(meta)] = [-1] * (
                        len(meta.values) + 1)
                for i in live:
                    code = codes[i]
                    g = code_map[code]  # NULL_CODE reads the last entry
                    if g < 0:
                        key = None if code < 0 else meta.values[code]
                        g = slot_of.get(key)
                        if g is None:
                            g = slot_of[key] = len(firsts)
                            firsts.append((chunk, i))
                        code_map[code] = g
                    append(g)
            else:
                lanes = [key(chunk, live, params) for key in self.keys]
                keys = lanes[0] if len(lanes) == 1 else zip(*lanes)
                try:
                    for i, key in zip(live, keys):
                        g = slot_of.get(key)
                        if g is None:
                            g = slot_of[key] = len(firsts)
                            firsts.append((chunk, i))
                        append(g)
                except TypeError as exc:  # a list or dict parameter
                    raise SqlTypeError(
                        f"cannot compare GROUP BY values: {exc}") from None
            grouped.append((chunk, live, slots))
        counts = [0] * len(firsts)
        for _, _, slots in grouped:
            for g, n in Counter(slots).items():
                counts[g] += n
        return grouped, firsts, counts


def _fold(calls, parts, counts, params):
    """Steps 2 and 3: per call, its folded value per group slot over
    the rows of ``parts``."""
    folded = []
    for name, distinct, values in calls:
        if values is None:  # COUNT(*)
            folded.append(counts)
            continue
        buckets = []
        for _ in counts:
            buckets.append([])
        appends = None
        for chunk, live, slots in parts:
            column = values(chunk, live, params)
            if slots is None:
                buckets[0] += filter(_NOT_NULL, column)
                continue
            if appends is None:
                appends = [bucket.append for bucket in buckets]
            for g, v in zip(slots, column):
                if v is not None:
                    appends[g](v)
        if distinct:
            buckets = [first_occurrences(bucket, name + " DISTINCT")
                       for bucket in buckets]
        per_group = []
        for bucket in buckets:
            per_group.append(fold_aggregate(name, bucket))
        folded.append(per_group)
    return folded


# Whether a value is not NULL, at C speed.
_NOT_NULL = partial(is_not, None)


def _finisher(expr, calls, positions, ambiguous):
    """``finish(folded, firsts, params)``: ``expr``'s value per group, the
    groups' first rows ``(chunk, i)`` in ``firsts``.  An aggregate call
    reached from ``expr`` through operators is its folded values (the
    call is appended to ``calls``, which :func:`_fold` folds into
    ``folded``); any other leaf is its lane at each first row; an
    operator evaluates both operands before it combines them.  An item
    is evaluated over every group before the next item is: where two
    items would raise on different groups, which error is raised follows
    that order."""
    if isinstance(expr, A.FuncCall) and expr.name in _AGGREGATE_NAMES:
        if not expr.args:
            message = f"{expr.name} requires an argument"

            def no_argument(folded, firsts, params):
                if firsts:
                    raise SqlError(message)
                return []

            return no_argument
        arg = expr.args[0]
        counted = expr.name == "COUNT" and isinstance(arg, A.Star)
        k = len(calls)
        calls.append((expr.name, expr.distinct, None if counted else
                      compile_values(arg, positions, ambiguous)))
        return lambda folded, firsts, params: folded[k]
    if isinstance(expr, (A.BinaryOp, A.UnaryOp)):
        binary = type(expr) is A.BinaryOp
        operands = [_finisher(operand, calls, positions, ambiguous)
                    for operand in ((expr.left, expr.right) if binary
                                    else (expr.operand,))]

        def combined(folded, firsts, params):
            columns = [finish(folded, firsts, params) for finish in operands]
            return [evaluate(A.BinaryOp(expr.op, *map(A.Literal, values))
                             if binary else
                             A.UnaryOp(expr.op, *map(A.Literal, values)),
                             _NO_ROW, params) for values in zip(*columns)]

        return combined
    lane = compile_values(expr, positions, ambiguous)
    return lambda folded, firsts, params: [
        lane(chunk, [i], params)[0] for chunk, i in firsts]


def _narrowed(parts, groups, n_groups):
    """``parts`` without the rows of the groups not in ``groups``."""
    kept = [False] * n_groups
    for g in groups:
        kept[g] = True
    narrowed = []
    for chunk, live, slots in parts:
        if slots is None:  # the one group, dropped
            continue
        pairs = [(i, g) for i, g in zip(live, slots) if kept[g]]
        if pairs:
            live, slots = map(list, zip(*pairs))
            narrowed.append((chunk, live, slots))
    return narrowed


class DistinctOp:
    """Drop duplicate output rows (tuples), keeping first occurrences."""

    def apply(self, run):
        run.out_rows = first_occurrences(run.out_rows, "DISTINCT")


class SortOp:
    """ORDER BY over projected rows, sorted by :func:`sort_rows`.

    A key is an output position, fixed at build time — an alias, ``ORDER
    BY <n>``, or a column reference (qualified or not) that an output
    column carries as it stands — or else a lane over the source chunks,
    which line up with the output rows only under a plain projection:
    above an aggregate or a DISTINCT such a key raises at build time, data
    or no data."""

    def __init__(self, order_by, out_columns, out_positions, context,
                 aggregated, distinct):
        alias_positions = {name: i for i, name in enumerate(out_columns)}
        self.keys = []  # (output position, None) or (None, source lane)
        for item in order_by:
            expr = item.expr
            if (isinstance(expr, A.ColumnRef) and expr.table is None
                    and expr.column in alias_positions):
                pos = alias_positions[expr.column]
            else:
                pos = order_by_position(expr, len(out_columns))
            if pos is None and isinstance(expr, A.ColumnRef):
                flat = column_position(expr, context.positions,
                                       context.ambiguous)
                if flat is not None and flat in out_positions:
                    pos = out_positions.index(flat)
            if pos is None and aggregated:
                raise SqlError("ORDER BY in aggregate queries must reference "
                               "output columns")
            if pos is None and distinct:
                raise SqlError("for SELECT DISTINCT, ORDER BY expressions "
                               "must appear in the select list")
            self.keys.append((pos, None if pos is not None else
                              compile_values(expr, context.positions,
                                             context.ambiguous)))
        self.descending = [item.descending for item in order_by]

    def apply(self, run):
        rows, params = run.out_rows, run.params
        columns = []
        for pos, values in self.keys:
            if values is None:
                columns.append([row[pos] for row in rows])
                continue
            column = []
            for chunk in run.source_chunks:
                column += values(chunk, chunk.live_indices(), params)
            columns.append(column)
        run.out_rows = sort_rows(rows, columns, self.descending)


def sort_rows(rows, columns, descending):
    """``rows`` sorted stably on ORDER BY ``columns`` (one value sequence
    per key) with these DESC flags, for :class:`SortOp`.  Natively: ``v``
    becomes ``(v is not None, v)``, NULL first (last under ``reverse``,
    used when most keys are DESC), a key of the other direction
    :class:`_Flipped`; ``==`` before ``<`` makes equal values (``1``,
    ``TRUE``) tie."""
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


# What an operator over values alone, or a LIMIT / OFFSET expression other
# than a literal or a parameter, is evaluated against: no row.
_NO_ROW = RowContext({}).bind(())


def limit_bound(clause, expr):
    """``value(params)`` of a LIMIT or OFFSET clause (0 when absent),
    built with the plan: a valid literal is its value, anything else goes
    through :func:`resolve_limit` when the statement runs — an invalid
    literal raises then too, never when the plan is built."""
    expr = A.Literal(0) if expr is None else expr
    if type(expr) is A.Literal and _is_bound(expr.value):
        value = expr.value
        return lambda params: value
    resolve = (compile_operand(expr) if type(expr) in (A.Literal, A.Param)
               else partial(evaluate, expr, _NO_ROW))
    return lambda params: resolve_limit(clause, resolve(params))


def resolve_limit(clause, value):
    """``value`` as a LIMIT or OFFSET bound — the one place one is
    validated; :class:`LimitOp` and the ``limit_hint`` cutoff both slice
    with what :func:`limit_bound` returns.  Anything but a non-negative
    integer (a string, NULL, a float, a bool, ``-1``) raises instead of
    reaching a Python slice, where it would leak a ``TypeError`` or count
    from the wrong end."""
    if not _is_bound(value):
        raise SqlError(
            f"{clause} must be a non-negative integer, got {value!r}")
    return value


def _is_bound(value):
    return (not isinstance(value, bool) and isinstance(value, int)
            and value >= 0)


class LimitOp:
    """LIMIT/OFFSET (expressions may reference parameters): ``limit`` and
    ``offset`` read their values (:func:`limit_bound`)."""

    def __init__(self, limit, offset):
        self.limit = limit_bound("LIMIT", limit)
        self.offset = limit_bound("OFFSET", offset)

    def apply(self, run):
        limit = self.limit(run.params)
        offset = self.offset(run.params)
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

    ``limit_hint`` is the :class:`LimitOp` whose bounds stop the pull, set
    only when a Sort was elided under a LIMIT (see :func:`_limit_hint`):
    the first limit+offset source rows are the final answer, so the plan
    stops pulling once they have streamed out — top-N-by-key pages touch
    ~N rows instead of the whole range.
    """

    __slots__ = ("source", "result_ops", "sctx", "logical", "out_columns",
                 "shared_scan_table", "limit_hint", "referenced_tables")

    def __init__(self, source, result_ops, sctx, logical, limit_hint):
        self.source = source
        self.result_ops = result_ops
        self.sctx = sctx
        self.logical = logical
        self.out_columns = result_ops[0].out_columns
        # Every base table the plan reads (deduplicated, FROM order) — the
        # result cache files each entry under these tables' names.
        self.referenced_tables = tuple(
            dict.fromkeys(ref.name for ref in sctx.tables))
        self.limit_hint = limit_hint
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

    def execute(self, db, params=(), prefetched_base_rows=None):
        """Run the plan; returns an :class:`ExecResult`.  The result
        operators read the source's chunks — all of them, or under the
        ``limit_hint`` cutoff those that hold the first limit+offset rows
        (none when that is 0) — through their lanes."""
        run = PlanRun(db, params, prefetched_base_rows)
        chunks = self.source.iter_cchunks(run)
        cut = self.limit_hint
        if cut is not None:
            chunks = _first_rows(run, chunks, cut.limit(run.params)
                                 + cut.offset(run.params))
        run.source_chunks = list(chunks)
        for op in self.result_ops:
            op.apply(run)
        db.executor.batches_executed += run.batches
        rows = run.out_rows
        return ExecResult(self.out_columns, rows, len(rows),
                          run.rows_touched, chunks_skipped=run.chunks_skipped)

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
        run = PlanRun(db, params)
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
        chunks = timed.iter_cchunks(run)
        cut = self.limit_hint
        if cut is not None:  # as ``execute`` pulls them
            chunks = _first_rows(run, chunks, cut.limit(run.params)
                                 + cut.offset(run.params))
        run.source_chunks = list(chunks)
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
        if self.limit_hint is not None:
            # A cutoff's chunks are sized by the rows still wanted: their
            # count says nothing about the chunk operators.
            for record in source_records:
                record.chunks = record.capacity = 0
        rows = run.out_rows
        header = (f"EXPLAIN ANALYZE [rows={len(rows)}, "
                  f"rows_touched={run.rows_touched}, "
                  f"total_ms={total * 1000:.3f}]")
        rendered = L.explain(self.logical,
                             result_records[::-1] + source_records)
        return (ExecResult(self.out_columns, rows, len(rows),
                           run.rows_touched,
                           chunks_skipped=run.chunks_skipped),
                [header, *rendered.splitlines()])


class _AnalyzeRecord:
    """One operator's EXPLAIN ANALYZE measurements.

    ``rows`` counts produced (live) rows, and ``q`` is their q-error
    against the node's estimate, ``max(est / act, act / est)`` with both
    floored at 1.  A row source additionally reports ``chunks`` (chunks
    yielded) and ``sel``, the live fraction of chunk capacity, so EXPLAIN
    ANALYZE shows how dense the surviving selection is after each
    operator.
    """

    __slots__ = ("rows", "seconds", "chunks", "capacity", "skipped")

    def __init__(self):
        self.rows = 0
        self.seconds = 0.0
        self.chunks = 0
        self.capacity = 0
        self.skipped = 0  # chunks the scan's zone maps pruned

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
    chunks into an :class:`_AnalyzeRecord`."""

    def __init__(self, op, record):
        self.op = op
        self.record = record

    def iter_cchunks(self, run):
        record = self.record
        chunks = self.op.iter_cchunks(run)
        while True:
            t0 = perf_counter()
            try:
                chunk = next(chunks)
            except StopIteration:
                record.seconds += perf_counter() - t0
                return
            record.seconds += perf_counter() - t0
            record.add_chunk(chunk)
            yield chunk


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
                                     op.out_positions, sctx.context,
                                     isinstance(op, AggregateOp), distinct))
        else:
            result_ops.append(DistinctOp())
            distinct = True
    limit_hint = _limit_hint(result_ops, sctx)
    source = _build_source(node.child, sctx, limit_hint is not None)
    return PhysicalPlan(source, result_ops, sctx, root, limit_hint)


def _first_rows(run, chunks, n):
    """``chunks`` until ``n`` live rows have come out (every chunk a row
    source yields holds one); not one is pulled when ``n`` is 0.  Each is
    asked for the rows still wanted: below no join that may emit several
    rows for one, no chunk then reaches past the row the cut falls on."""
    while n > 0:
        run.chunk_size = min(n, CHUNK_SIZE)
        chunk = next(chunks, None)
        if chunk is None:
            return
        yield chunk
        n -= chunk.n_live()


def _limit_hint(result_ops, sctx):
    """The :class:`LimitOp` when the source's first limit+offset
    rows are provably the final answer: the statement has an ORDER BY whose
    Sort was elided (rows already stream in order), no DISTINCT, a plain
    projection (1:1 with source rows), and a LIMIT to stop at."""
    stmt = sctx.stmt
    if not stmt.order_by or stmt.limit is None or stmt.distinct:
        return None
    shapes = [type(op) for op in result_ops]
    if shapes != [ProjectOp, LimitOp]:
        return None  # SortOp present (not elided), DistinctOp, or Aggregate
    return result_ops[1]


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


def _build_source(node, sctx, cutoff):
    """The row-source operator chain of ``node``; ``cutoff``: the plan
    stops after its first rows (a ``limit_hint``)."""
    predicate = None
    if isinstance(node, L.Filter) and (type(node.child) in _ACCESS_OPS
                                       or _absorbed(node, sctx)):
        node, predicate = node.child, node.predicate
    access = _ACCESS_OPS.get(type(node))
    if access is not None:
        return access(node, sctx, predicate)
    if isinstance(node, L.Filter):
        return FilterOp(_build_source(node.child, sctx, cutoff),
                        node.predicate, _kernel(sctx, node.predicate))
    if isinstance(node, L.Join):
        child = _build_source(node.child, sctx, cutoff)
        join = _EQUI_JOIN_OPS.get(node.strategy)
        if join is not None:
            return join(child, node, sctx, predicate, cutoff)
        return NestedLoopJoinOp(child, node, sctx, cutoff)
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


def _output_positions(stmt, expansions, context):
    """Per output column, the flat position it passes through as it
    stands — a ``*`` column or a column item — or None for any other
    expression (or a column that does not resolve)."""
    positions = []
    for item, expansion in zip(stmt.items, expansions):
        if expansion is not None:
            positions.extend(pos for pos, _ in expansion)
        elif isinstance(item.expr, A.ColumnRef):
            positions.append(column_position(
                item.expr, context.positions, context.ambiguous))
        else:
            positions.append(None)
    return positions


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
