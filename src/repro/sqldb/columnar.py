"""Columnar chunk layout: parallel column arrays + selection vectors.

The engine exchanges :class:`ColumnChunk` objects between physical
operators.  A chunk holds one entry per flat joined-row position:

- a plain Python list of values (one per chunk row),
- a :class:`DictColumn` — dictionary-encoded strings, comparing codes
  instead of characters, or
- ``None`` — an all-NULL lane: the row layouts' ``_pad`` NULLs of a table
  slot not filled yet, or a position outside ``SelectContext.read``.

``sel`` is the optional **selection vector**: ``None`` means every chunk
row is live; otherwise an ascending list of live row indices.  Filters
never copy column data — they narrow ``sel`` — so a chunk's arrays are
immutable once yielded and may be shared by any number of downstream
chunks.

A chunk is backed one of two ways.  A lane chunk holds its lanes (a
snapshot slice, a join's output).  A :class:`RowChunk` holds the storage
rows an access path cut it from and cuts a lane (:func:`cut_lane`) only
when an operator first reads it, so a chunk that only the projection
reads cuts none.  Both rest on one invariant: storage rows are never
mutated in place (an UPDATE installs a fresh list), and only the
projection reads a chunk's rows, building tuples.

:class:`ColumnStore` is the per-table cached columnar snapshot that
sequential scans slice chunks from (see ``Table.column_store``).  It is
**column-lazy**: building it pins the table's rows in scan order, and a
column's lane (dictionary-encoded when it is TEXT / DATE with a distinct
count at or below half the row count), zone map, equality facet and
distinct count are each materialised the first time a statement asks for
them.

A column's **zone map** is one ``(lo, hi, nulls, count)`` tuple per
:data:`CHUNK_SIZE` slice of the table.  ``lo``/``hi`` are the chunk's
non-NULL min/max — ``None`` when the slice holds no usable range (all
NULL, or mixed value types whose ordering SQL would reject), in which
case only the null count is trustworthy.  A column's **equality facet**
(:func:`_column_facets`) is, per slice, the rows of each value, the NULL
rows and the value classes present.  Sequential scans hand both to the
zone test compiled alongside each filter kernel
(:func:`repro.sqldb.plan.compile.compile_filter`) to skip whole chunks,
and the facets to the chunks they make, where ``col = c`` reads its rows
off them; the cost model reads a column's ``distinct`` as its snapshot
statistic.  Zone maps and facets change wall-clock time, never
``rows_touched``.

Everything here is layout only — expression evaluation over these
chunks lives in :mod:`repro.sqldb.plan.compile`, the operators in
:mod:`repro.sqldb.plan.physical`.
"""

from repro.sqldb.types import DATE, TEXT, canonical_type

__all__ = ["CHUNK_SIZE", "ColumnChunk", "ColumnStore", "DictColumn",
           "DictMeta", "RowChunk", "cut_lane", "uncut_lanes"]

# Rows per chunk (re-exported by
# ``repro.sqldb.plan.physical``).  Zone maps are built at this
# granularity so scan slices and zone entries align one-to-one.
CHUNK_SIZE = 1024

# Code used for NULL in a DictColumn's code array (real codes are >= 0).
NULL_CODE = -1

class DictMeta:
    """The shared dictionary behind one or more :class:`DictColumn`
    slices: the distinct values in first-appearance order (``values``),
    which group-by and the equality facets translate codes through."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values


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
    return DictColumn(codes, DictMeta(dict_values)), n_distinct


def _column_zones(values, n):
    """Per-chunk ``(lo, hi, nulls, count)`` zone tuples for one column.

    ``lo``/``hi`` stay ``None`` when a chunk has no orderable range:
    every value NULL, or a mix of value types whose comparison SQL
    semantics would reject (e.g. a bool hiding in a numeric column) —
    zone pruning must never turn a would-be runtime type error into a
    silently skipped chunk, so such chunks advertise no range at all.
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
            if kinds <= {int, float} or len(kinds) == 1:
                try:
                    lo = min(nonnull)
                    hi = max(nonnull)
                except TypeError:
                    lo = hi = None
        zones.append((lo, hi, nulls, count))
    return zones


# The classes a facet indexes, each hashing and comparing as SQL compares it.
_FACETED = frozenset((bool, int, float, str))


def _column_facets(pieces):
    """Per slice of one column, ``(positions, nulls, classes)``: each
    non-NULL value's ascending rows, the NULL rows and the value classes
    present — or None where a class lies outside :data:`_FACETED`.  A
    dictionary slice maps its codes, then each code's value.  ``1``,
    ``1.0`` and ``True`` share a key: only ``classes`` tells a bool from a
    number, so a reader checks it before trusting a lookup."""
    facets = []
    for piece in pieces:
        values = piece.meta.values if type(piece) is DictColumn else None
        if values is None:
            classes = set(map(type, piece)) - {type(None)}
            if not classes <= _FACETED:
                facets.append(None)
                continue
        else:
            piece, classes = piece.codes, {str}
        positions = {}
        get = positions.get
        for i, value in enumerate(piece):
            rows = get(value)
            if rows is None:
                positions[value] = [i]
            else:
                rows.append(i)
        nulls = positions.pop(None if values is None else NULL_CODE, [])
        if values is not None:
            positions = {values[code]: rows
                         for code, rows in positions.items()}
        facets.append((positions, nulls, frozenset(classes)))
    return facets


class ColumnStore:
    """A cached, column-lazy snapshot of one table, in ``row_id`` scan order.

    :meth:`build` pins ``rows`` — the storage rows, in row-id order — and
    nothing else; per column (by schema ordinal) :meth:`lane`,
    :meth:`zones`, :meth:`equality` and :meth:`distinct` each materialise
    on first request and are cached, so a statement pays for the columns
    it reads and a write for none.  ``mutations`` pins the table's
    mutation counter at build time: the store is valid while the counter
    has not moved, which catches every write and rollback.  A facet built
    late cannot observe a later write: storage rows are never mutated in
    place (an UPDATE installs a fresh list), so the pinned ``rows`` keep
    their build-time values and every facet of one store describes the
    same contents.  Any write discards the store — lanes, slices,
    dictionaries, zone maps and equality facets with it.
    """

    __slots__ = ("rows", "length", "mutations", "_schema", "_lanes",
                 "_zones", "_facets", "_distinct", "_pieces", "_slices")

    def __init__(self, rows, schema_columns, mutations):
        self.rows = rows
        self.length = len(rows)
        self.mutations = mutations
        self._schema = schema_columns
        (self._lanes, self._zones, self._facets, self._distinct,
         self._pieces) = ([None] * len(schema_columns) for _ in range(5))
        self._slices = {}  # a scan's layout -> its chunk slices

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

    def equality(self, j):
        """Column ``j``'s equality facets, one per slice."""
        facets = self._facets[j]
        if facets is None:
            facets = self._facets[j] = _column_facets(self._sliced(j))
        return facets

    def slices(self, layout):
        """The table cut into :data:`CHUNK_SIZE` slices for a scan's
        ``layout`` = ``(offset, read, width, zoned, equal)``: per slice
        ``(columns, length, zone_of, facet_of)``, ``columns`` joined-row
        wide with ordinal ``j`` of ``read`` at ``offset + j`` (every other
        lane all-NULL), ``zone_of`` / ``facet_of`` the ``get`` of the
        ``zoned`` ordinals' zones / the ``equal`` ordinals' equality facets
        by flat position.  Cut on the layout's first scan and kept with the
        store, so a scan that runs again slices nothing; a column is sliced
        once for every layout, and a slice that spans a whole lane is the
        lane.  Nothing may write to what this returns."""
        cut = self._slices.get(layout)
        if cut is None:
            offset, read, width, zoned, equal = layout
            zones = [(offset + j, self.zones(j)) for j in zoned]
            facets = [(offset + j, self.equality(j)) for j in equal]
            lanes = [(offset + j, self._sliced(j)) for j in read]
            cut = self._slices[layout] = []
            for ci, start in enumerate(range(0, self.length, CHUNK_SIZE)):
                columns = [None] * width
                for pos, pieces in lanes:
                    columns[pos] = pieces[ci]
                cut.append((columns, min(CHUNK_SIZE, self.length - start),
                            {pos: zone[ci] for pos, zone in zones}.get,
                            {pos: facet[ci] for pos, facet in facets}.get))
        return cut

    def _sliced(self, j):
        """Column ``j``'s lane cut into :data:`CHUNK_SIZE` slices.  A lane
        longer than one is kept as its slices alone (:meth:`lane` builds
        it again if asked), so the store holds each value once."""
        pieces = self._pieces[j]
        if pieces is None:
            lane = self.lane(j)
            whole = len(lane) <= CHUNK_SIZE
            pieces = self._pieces[j] = [
                lane if whole else lane[start:start + CHUNK_SIZE]
                for start in range(0, self.length, CHUNK_SIZE)]
            if not whole:
                self._lanes[j] = None
        return pieces

    def distinct(self, j):
        """Column ``j``'s distinct non-NULL count (no lane is built)."""
        n = self._distinct[j]
        if n is None:
            values = {row[j] for row in self.rows}
            n = self._distinct[j] = len(values) - (None in values)
        return n


class ColumnChunk:
    """One batch of rows in columnar form (see module docstring); ``facets``
    is its snapshot slice's ``facet_of``, None where no snapshot backs it."""

    __slots__ = ("columns", "length", "sel", "facets")

    def __init__(self, columns, length, sel=None, facets=None):
        self.columns = columns
        self.length = length
        self.sel = sel
        self.facets = facets

    @classmethod
    def from_rows(cls, rows, width, read):
        """A fully-live :class:`RowChunk` over wide rows whose ``read``
        positions are its lanes, every other lane all-NULL — how the
        prefetched shared-scan rows and the nested-loop join's pairs
        become a chunk."""
        return RowChunk(rows, 0, uncut_lanes(width, read))

    def live_indices(self):
        """The live row indices, ascending (a range when all live)."""
        sel = self.sel
        return range(self.length) if sel is None else sel

    def n_live(self):
        sel = self.sel
        return self.length if sel is None else len(sel)

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


# What an uncut lane of a :class:`RowChunk` holds until it is first read.
_UNCUT = object()


def uncut_lanes(width, positions):
    """The lanes a :class:`RowChunk` starts with: ``width`` all-NULL lanes
    but at ``positions``, each cut from the rows when first read."""
    lanes = [None] * width
    for pos in positions:
        lanes[pos] = _UNCUT
    return lanes


def cut_lane(rows, j):
    """Ordinal ``j`` of ``rows`` as a lane: the one place a chunk's storage
    rows are transposed."""
    return [row[j] for row in rows]


class RowChunk(ColumnChunk):
    """A chunk backed by the storage rows an access path cut it from.

    ``rows`` are the rows themselves, never copied: flat position ``pos``
    is ordinal ``pos - offset`` of a row.  ``columns`` is built when an
    operator first reads it, a :class:`_Lanes` whose lane ``pos`` is cut
    (:func:`cut_lane`) the first time it is read, for the positions
    ``uncut`` marks (:func:`uncut_lanes`; every other lane is all-NULL).
    So a chunk that only the projection reads cuts no lane: the projection
    maps an ``itemgetter`` over its live ``rows``."""

    __slots__ = ("rows", "offset", "uncut", "_lanes")

    def __init__(self, rows, offset, uncut):
        self.rows = rows
        self.length = len(rows)
        self.sel = None
        self.facets = None
        self.offset = offset
        self.uncut = uncut
        self._lanes = None

    @property
    def columns(self):
        lanes = self._lanes
        if lanes is None:
            lanes = self._lanes = _Lanes(self.rows, self.offset, self.uncut)
        return lanes

    def take(self, picks, skip_range=None):
        """As :meth:`ColumnChunk.take`, each lane cut from the picked rows."""
        rows, offset = self.rows, self.offset
        picked = [rows[i] for i in picks]
        lo, hi = skip_range if skip_range is not None else (0, 0)
        return ColumnChunk([
            None if lane is None or lo <= pos < hi
            else cut_lane(picked, pos - offset)
            for pos, lane in enumerate(self.uncut)], len(picks), None)


class _Lanes:
    """A :class:`RowChunk`'s ``columns``: read like a list of lanes (an
    ``int`` index, or iteration), each lane cut once, on its first read."""

    __slots__ = ("rows", "offset", "lanes")

    def __init__(self, rows, offset, uncut):
        self.rows = rows
        self.offset = offset
        self.lanes = list(uncut)

    def __getitem__(self, pos):
        lane = self.lanes[pos]  # IndexError past the end ends iteration
        if lane is _UNCUT:
            lane = self.lanes[pos] = cut_lane(self.rows, pos - self.offset)
        return lane
