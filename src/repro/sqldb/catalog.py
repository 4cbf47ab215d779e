"""Schema catalog: tables, columns, index metadata and live table stats.

Beyond pure metadata, each :class:`TableSchema` carries a :class:`TableStats`
that storage keeps up to date on every INSERT/DELETE/TRUNCATE.  The cost
model (:mod:`repro.sqldb.plan.cost`) reads row counts from it, and the
catalog-wide :class:`StatsEpoch` ticks whenever any table's size shifts by
more than 2x since its plans were last optimized — the executor folds the
epoch into its plan-cache key, so cached plans re-optimize when the
cardinalities they were costed against are no longer representative.
"""

from repro.sqldb.errors import CatalogError
from repro.sqldb.types import COERCERS, canonical_type


class StatsEpoch:
    """A counter shared by every table of one catalog; see module docstring."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1


# Tables at or below this size never tick the epoch on growth alone: their
# plans are trivially cheap either way, and the seed workloads churn many
# tiny tables during setup.
_BASELINE_FLOOR = 8


class TableStats:
    """Live statistics for one table.

    ``row_count`` mirrors the storage layer's row count; ``_baseline`` is the
    count the table had when the stats epoch last ticked for it (i.e. the
    cardinality current cached plans were optimized against).
    """

    __slots__ = ("row_count", "_baseline", "_epoch")

    def __init__(self):
        self.row_count = 0
        self._baseline = 0
        self._epoch = None

    def bind_epoch(self, epoch):
        self._epoch = epoch

    def note_mutation(self, row_count):
        """Record the table's new size; tick the epoch on a >2x shift."""
        self.row_count = row_count
        base = self._baseline
        grew = row_count > 2 * max(base, _BASELINE_FLOOR)
        shrank = base > _BASELINE_FLOOR and row_count * 2 < base
        if grew or shrank:
            self._baseline = row_count
            if self._epoch is not None:
                self._epoch.bump()


class Column:
    """A column definition in a table schema."""

    __slots__ = ("name", "type_name", "primary_key", "not_null", "ordinal",
                 "coerce")

    def __init__(self, name, type_name, primary_key=False, not_null=False,
                 ordinal=0):
        self.name = name
        self.type_name = canonical_type(type_name)
        self.coerce = COERCERS[self.type_name]
        self.primary_key = primary_key
        self.not_null = not_null or primary_key
        self.ordinal = ordinal

    def __repr__(self):
        return f"Column({self.name!r}, {self.type_name})"


class TableSchema:
    """Schema for one table: ordered columns plus index metadata."""

    def __init__(self, name, columns):
        self.name = name
        self.columns = []
        self._by_name = {}
        pk = None
        for i, col in enumerate(columns):
            if col.name in self._by_name:
                raise CatalogError(
                    f"duplicate column {col.name!r} in table {name!r}")
            col.ordinal = i
            self.columns.append(col)
            self._by_name[col.name] = col
            if col.primary_key:
                if pk is not None:
                    raise CatalogError(
                        f"multiple primary keys in table {name!r}")
                pk = col
        self.primary_key = pk
        self.indexes = {}  # index name -> IndexInfo
        self.stats = TableStats()

    @property
    def column_names(self):
        return [col.name for col in self.columns]

    def has_column(self, name):
        return name in self._by_name

    def column(self, name):
        col = self._by_name.get(name)
        if col is None:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}")
        return col

    def ordinal_of(self, name):
        return self.column(name).ordinal


class IndexInfo:
    """Metadata for a secondary index.

    ``method`` selects the structure: ``"hash"`` (equality-only buckets)
    or ``"ordered"`` (sorted keys serving range scans and ORDER BY).
    """

    __slots__ = ("name", "table", "columns", "unique", "method")

    def __init__(self, name, table, columns, unique=False, method="hash"):
        self.name = name
        self.table = table
        self.columns = tuple(columns)
        self.unique = unique
        self.method = method


class Catalog:
    """The set of tables known to one database instance."""

    def __init__(self):
        self._tables = {}
        self._index_names = {}
        self.stats_epoch = StatsEpoch()

    def create_table(self, schema):
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        schema.stats.bind_epoch(self.stats_epoch)
        self._tables[schema.name] = schema

    def drop_table(self, name):
        schema = self.table(name)
        for index_name in schema.indexes:
            self._index_names.pop(index_name, None)
        del self._tables[name]

    def table(self, name):
        schema = self._tables.get(name)
        if schema is None:
            raise CatalogError(f"no such table: {name!r}")
        return schema

    def register_index(self, info):
        if info.name in self._index_names:
            raise CatalogError(f"index {info.name!r} already exists")
        schema = self.table(info.table)
        for column in info.columns:
            schema.column(column)  # raises if missing
        schema.indexes[info.name] = info
        self._index_names[info.name] = info

    def drop_index(self, name):
        info = self._index_names.pop(name, None)
        if info is None:
            raise CatalogError(f"no such index: {name!r}")
        del self._tables[info.table].indexes[name]
        return info
