"""Columnar chunk layout: parallel column arrays + selection vectors.

The production engine exchanges :class:`ColumnChunk` objects between
physical operators (the reference interpreter, ``engine="row"``, pulls
wide row lists instead).  A chunk holds one entry per flat joined-row
position:

- a plain Python list of values (one per chunk row),
- a :class:`DictColumn` — dictionary-encoded strings, comparing codes
  instead of characters, or
- ``None`` — an all-NULL lane: the row layouts' ``_pad`` NULLs of a table
  slot not filled yet, or a position outside ``SelectContext.read``.

``sel`` is the optional **selection vector**: ``None`` means every chunk
row is live; otherwise an ascending list of live row indices.  Filters
never copy column data — they yield the same columns with a narrowed
``sel`` — so a chunk's arrays are immutable once yielded and may be
shared by any number of downstream chunks.

:class:`ColumnStore` is the per-table cached columnar snapshot that
sequential scans slice chunks from (see ``Table.column_store``).  It is
**column-lazy**: building it pins the table's rows in scan order, and a
column's lane (dictionary-encoded when it is TEXT / DATE with a distinct
count at or below half the row count), zone map and distinct count are
each materialised the first time a statement asks for them.

A column's **zone map** is one ``(lo, hi, nulls, count)`` tuple per
:data:`CHUNK_SIZE` slice of the table.  ``lo``/``hi`` are the chunk's
non-NULL min/max — ``None`` when the slice holds no usable range (all
NULL, or mixed value types whose ordering SQL would reject), in which
case only the null count is trustworthy.  Sequential scans consult them
through the zone test compiled alongside each filter kernel
(:func:`repro.sqldb.plan.compile.compile_filter`) to skip whole chunks;
the cost model reads a column's ``distinct`` as its snapshot statistic.

Everything here is layout only — expression evaluation over these
chunks lives in :mod:`repro.sqldb.plan.compile`, the operators in
:mod:`repro.sqldb.plan.physical`.
"""

from repro.sqldb.types import DATE, TEXT, canonical_type

__all__ = ["CHUNK_SIZE", "ColumnChunk", "ColumnStore", "DictColumn",
           "DictMeta"]

# Rows per chunk (re-exported by
# ``repro.sqldb.plan.physical``).  Zone maps are built at this
# granularity so scan slices and zone entries align one-to-one.
CHUNK_SIZE = 1024

# Code used for NULL in a DictColumn's code array (real codes are >= 0).
NULL_CODE = -1

class DictMeta:
    """The shared dictionary behind one or more :class:`DictColumn`
    slices: the distinct values in first-appearance order (``values``)
    and the reverse map (``code_of``) that equality kernels and group-by
    translate through."""

    __slots__ = ("values", "code_of")

    def __init__(self, values, code_of):
        self.values = values
        self.code_of = code_of


class DictColumn:
    """A dictionary-encoded string column (or a slice of one).

    ``codes[i]`` is an index into ``meta.values``, or :data:`NULL_CODE`
    for NULL.  Slicing shares ``meta``; ``__getitem__`` with an int
    decodes, so generic per-element code can treat plain lists and
    DictColumns uniformly.
    """

    __slots__ = ("codes", "meta")

    def __init__(self, codes, meta):
        self.codes = codes
        self.meta = meta

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, item):
        if type(item) is slice:
            return DictColumn(self.codes[item], self.meta)
        code = self.codes[item]
        return None if code < 0 else self.meta.values[code]

    def decode(self):
        """The column as a plain list of values (NULLs as None)."""
        values = self.meta.values
        return [None if code < 0 else values[code] for code in self.codes]


def _encode_dict(values):
    """Dictionary-encode ``values`` when profitable.

    Returns ``(column, n_distinct)`` — the column is a
    :class:`DictColumn` when every non-NULL value is a string and the
    distinct count is at most half the row count, else the input list
    unchanged.  ``n_distinct`` counts distinct non-NULL values either
    way (the snapshot's per-column stat).
    """
    code_of = {}
    codes = []
    append = codes.append
    get = code_of.get
    for value in values:
        if value is None:
            append(NULL_CODE)
            continue
        code = get(value)
        if code is None:
            if value.__class__ is not str:
                # Mixed/non-string payload (possible only off the typed
                # storage path): keep the plain list.
                return values, len(set(v for v in values if v is not None))
            code = len(code_of)
            code_of[value] = code
        append(code)
    n_distinct = len(code_of)
    if n_distinct == 0 or n_distinct * 2 > len(values):
        return values, n_distinct
    dict_values = [None] * n_distinct
    for value, code in code_of.items():
        dict_values[code] = value
    return DictColumn(codes, DictMeta(dict_values, code_of)), n_distinct


def _column_zones(values, n):
    """Per-chunk ``(lo, hi, nulls, count)`` zone tuples for one column.

    ``lo``/``hi`` stay ``None`` when a chunk has no orderable range:
    every value NULL, or a mix of value types whose comparison SQL
    semantics would reject (e.g. a bool hiding in a numeric column) —
    zone pruning must never turn a would-be runtime type error into a
    silently skipped chunk, so such chunks advertise no range at all —
    or a NaN among them, which has no place in an order (the interpreter
    finds it equal to every number: ``f <= 0.5`` is TRUE for it).
    """
    zones = []
    for start in range(0, n, CHUNK_SIZE):
        stop = min(start + CHUNK_SIZE, n)
        nonnull = [v for v in values[start:stop] if v is not None]
        count = stop - start
        nulls = count - len(nonnull)
        lo = hi = None
        if nonnull:
            kinds = set(map(type, nonnull))
            if (kinds <= {int, float} or len(kinds) == 1) and (
                    float not in kinds or all(v == v for v in nonnull)):
                try:
                    lo = min(nonnull)
                    hi = max(nonnull)
                except TypeError:
                    lo = hi = None
        zones.append((lo, hi, nulls, count))
    return zones


class ColumnStore:
    """A cached, column-lazy snapshot of one table, in ``row_id`` scan order.

    :meth:`build` pins ``rows`` — the storage rows, in row-id order — and
    nothing else; per column (by schema ordinal) :meth:`lane`,
    :meth:`zones` and :meth:`distinct` each materialise on first request
    and are cached, so a statement pays for the columns it reads and a
    write for none.  ``mutations`` pins the table's mutation counter at
    build time: the store is valid while the counter has not moved, which
    catches every write and rollback.  A facet built late cannot observe a
    later write: storage rows are never mutated in place (an UPDATE
    installs a fresh list), so the pinned ``rows`` keep their build-time
    values and every facet of one store describes the same contents.  Any
    write discards the store — lanes, dictionaries and zone maps with it.
    """

    __slots__ = ("rows", "length", "mutations", "_schema", "_lanes",
                 "_zones", "_distinct")

    def __init__(self, rows, schema_columns, mutations):
        self.rows = rows
        self.length = len(rows)
        self.mutations = mutations
        self._schema = schema_columns
        self._lanes, self._zones, self._distinct = (
            [None] * len(schema_columns) for _ in range(3))

    @classmethod
    def build(cls, table):
        return cls(list(table.rows.values()),
                   table.schema.columns, table._mutation_count)

    def lane(self, j):
        """Column ``j`` as a plain list or :class:`DictColumn`."""
        lane = self._lanes[j]
        if lane is None:
            lane = [row[j] for row in self.rows]
            if lane and canonical_type(
                    self._schema[j].type_name) in (TEXT, DATE):
                lane, self._distinct[j] = _encode_dict(lane)
            self._lanes[j] = lane
        return lane

    def zones(self, j):
        """Column ``j``'s zone tuples, one per :data:`CHUNK_SIZE` rows."""
        zones = self._zones[j]
        if zones is None:
            values = self._lanes[j]
            if type(values) is not list:  # not built, or dictionary codes
                values = [row[j] for row in self.rows]
            zones = self._zones[j] = _column_zones(values, self.length)
        return zones

    def distinct(self, j):
        """Column ``j``'s distinct non-NULL count (no lane is built)."""
        n = self._distinct[j]
        if n is None:
            values = {row[j] for row in self.rows}
            n = self._distinct[j] = len(values) - (None in values)
        return n


class ColumnChunk:
    """One batch of rows in columnar form (see module docstring)."""

    __slots__ = ("columns", "length", "sel")

    def __init__(self, columns, length, sel=None):
        self.columns = columns
        self.length = length
        self.sel = sel

    @classmethod
    def from_rows(cls, rows, width, read):
        """Transpose the ``read`` positions of wide rows into a fully-live
        chunk, every other lane all-NULL — the shim the prefetched
        shared-scan path, the nested-loop join (row-shaped inside) and
        the ``limit_hint`` cutoff's interpreted rows go through."""
        columns = [None] * width
        for pos in read:
            columns[pos] = [row[pos] for row in rows]
        return cls(columns, len(rows), None)

    def live_indices(self):
        """The live row indices, ascending (a range when all live)."""
        sel = self.sel
        return range(self.length) if sel is None else sel

    def n_live(self):
        sel = self.sel
        return self.length if sel is None else len(sel)

    def row(self, i):
        """Row ``i`` as a flat wide list (decoding dict lanes)."""
        return [None if col is None else col[i] for col in self.columns]

    def to_rows(self):
        """Live rows as wide lists — the boundary shim back to the
        row-shaped world (result operators' fallbacks, ExecResult)."""
        sel = self.sel
        length = self.length
        lanes = []
        for col in self.columns:
            if col is None:
                lanes.append([None] * (length if sel is None
                                       else len(sel)))
                continue
            if type(col) is DictColumn:
                col = col.decode()
            if sel is not None:
                col = [col[i] for i in sel]
            lanes.append(col)
        if not lanes:
            return []
        return [list(row) for row in zip(*lanes)]

    def gather(self, pos):
        """Column ``pos`` at the live indices, decoded to plain values."""
        return self.gather_at(pos, self.live_indices())

    def gather_at(self, pos, sel):
        """Column ``pos`` at the given indices, decoded to plain values —
        read-only: a plain lane asked for every row comes back as it is."""
        col = self.columns[pos]
        if col is None:
            return [None] * len(sel)
        if type(col) is DictColumn:
            values = col.meta.values
            codes = col.codes
            return [None if codes[i] < 0 else values[codes[i]] for i in sel]
        if type(sel) is range and len(sel) == len(col):
            return col
        return [col[i] for i in sel]

    def take(self, picks, skip_range=None):
        """A new fully-live chunk holding the rows at ``picks`` (indices
        into this chunk, duplicates allowed — the hash-join fan-out).
        Dictionary lanes stay encoded.  ``skip_range=(lo, hi)`` leaves
        the lanes in ``[lo, hi)`` as all-NULL placeholders for a caller
        about to overwrite them (the join's right-side region)."""
        lo, hi = skip_range if skip_range is not None else (0, 0)
        out = []
        for pos, col in enumerate(self.columns):
            if col is None or lo <= pos < hi:
                out.append(None)
            elif type(col) is DictColumn:
                codes = col.codes
                out.append(DictColumn([codes[i] for i in picks], col.meta))
            else:
                out.append([col[i] for i in picks])
        return ColumnChunk(out, len(picks), None)
