"""Row storage for one table.

Rows are lists in a dict by monotonically increasing row id, kept in row-id
order (scan order: no reader sorts).  The table maintains the primary-key
index and any secondary indexes, and exposes undo hooks for rollback.
It knows nothing of the result cache: a write inside a transaction names
its table in the undo log, and the executor invalidates what a statement
or a COMMIT made durable.
"""

from repro.sqldb.columnar import ColumnStore
from repro.sqldb.errors import ConstraintError
from repro.sqldb.indexes import HashIndex, OrderedIndex


class Table:
    """Physical storage for one table."""

    def __init__(self, schema):
        self.schema = schema
        self.rows = {}  # row_id -> list of values
        self._next_row_id = 1
        self._pk_index = {}  # pk value -> row_id
        self.indexes = {}  # index name -> HashIndex
        # Physical mutation counter: bumped on *every* row change the
        # instant it happens — including uncommitted transactional writes
        # and their rollbacks.  The columnar engine's cached snapshot keys
        # on it.
        self._mutation_count = 0
        self._column_store = None

    # -- index management ---------------------------------------------------

    def add_index(self, info):
        ordinals = [self.schema.ordinal_of(c) for c in info.columns]
        structure = OrderedIndex if info.method == "ordered" else HashIndex
        index = structure(info, ordinals)
        for row_id, row in self.rows.items():
            index.insert(row_id, row)
        self.indexes[info.name] = index
        return index

    def drop_index(self, name):
        self.indexes.pop(name, None)

    def ordered_indexes(self):
        """The table's ordered indexes (the planner's range-scan and
        sort-elision candidates), in creation order."""
        return [index for index in self.indexes.values()
                if isinstance(index, OrderedIndex)]

    # -- row operations ------------------------------------------------------

    def _check(self, row, ordinals):
        """Coerce ``row``'s values at ``ordinals`` in place to their
        columns' types (each column's resolved coercer) and enforce NOT
        NULL on them."""
        columns = self.schema.columns
        for ordinal in ordinals:
            col = columns[ordinal]
            row[ordinal] = value = col.coerce(row[ordinal])
            if value is None and col.not_null:
                raise ConstraintError(
                    f"column {col.name!r} of table {self.schema.name!r} "
                    f"is NOT NULL")

    def insert_row(self, values, undo_log=None):
        """Insert a full-width row; returns the new row id."""
        if len(values) != len(self.schema.columns):
            raise ConstraintError(
                f"table {self.schema.name!r} expects "
                f"{len(self.schema.columns)} values, got {len(values)}")
        row = list(values)
        self._check(row, range(len(row)))
        pk = self.schema.primary_key
        if pk is not None:
            key = row[pk.ordinal]
            if key in self._pk_index:
                raise ConstraintError(
                    f"duplicate primary key {key!r} in table "
                    f"{self.schema.name!r}")
        row_id = self._next_row_id
        self._next_row_id += 1
        self._mutation_count += 1
        self.rows[row_id] = row
        if pk is not None:
            self._pk_index[row[pk.ordinal]] = row_id
        try:
            for index in self.indexes.values():
                index.insert(row_id, row)
        except ConstraintError:
            # A refused write is refused everywhere: the row leaves storage
            # and every index it reached before the unique one that raised.
            self._remove_row(row_id)
            raise
        if undo_log is not None:
            undo_log.append(("insert", self, row_id))
        self.schema.stats.note_mutation(len(self.rows))
        return row_id

    def delete_row(self, row_id, undo_log=None):
        row = self._remove_row(row_id)
        if undo_log is not None:
            undo_log.append(("delete", self, row_id, row))
        self.schema.stats.note_mutation(len(self.rows))
        return row

    def _remove_row(self, row_id):
        """Unlink one row from storage and every index (no undo entry —
        shared by delete_row and the rollback path; the physical mutation
        counter always moves)."""
        self._mutation_count += 1
        row = self.rows.pop(row_id)
        pk = self.schema.primary_key
        if pk is not None:
            self._pk_index.pop(row[pk.ordinal], None)
        for index in self.indexes.values():
            index.delete(row_id, row)
        return row

    def truncate(self, undo_log=None):
        """Delete every row (TRUNCATE); returns the number removed.

        Goes through :meth:`delete_row` so secondary indexes, the PK index,
        live stats and the transaction undo log all stay consistent.
        """
        row_ids = list(self.rows)
        for row_id in row_ids:
            self.delete_row(row_id, undo_log)
        return len(row_ids)

    def update_row(self, row_id, new_row, assigned, undo_log=None):
        """Replace a row by ``new_row``, a fresh copy of it in which the
        statement assigned the ordinals in the set ``assigned``.

        Only those are coerced and NOT-NULL-checked (the others were when
        they were stored) and only the indexes covering one of them are
        maintained: an index on untouched columns holds the same entry
        before and after.
        """
        old_row = self.rows[row_id]
        self._check(new_row, assigned)
        pk = self.schema.primary_key
        rekeyed = pk is not None and new_row[pk.ordinal] != old_row[pk.ordinal]
        if rekeyed and new_row[pk.ordinal] in self._pk_index:
            raise ConstraintError(
                f"duplicate primary key {new_row[pk.ordinal]!r} in table "
                f"{self.schema.name!r}")
        indexes = [index for index in self.indexes.values()
                   if not assigned.isdisjoint(index.ordinals)]
        for index in indexes:
            index.delete(row_id, old_row)
        self._mutation_count += 1
        self.rows[row_id] = new_row
        if rekeyed:
            self._pk_index.pop(old_row[pk.ordinal], None)
            self._pk_index[new_row[pk.ordinal]] = row_id
        try:
            for index in indexes:
                index.insert(row_id, new_row)
        except ConstraintError:
            self.undo_update(row_id, old_row)  # refused: see insert_row
            raise
        if undo_log is not None:
            undo_log.append(("update", self, row_id, old_row))
        return new_row

    # -- undo hooks (used by transactions) -----------------------------------

    def undo_insert(self, row_id):
        if row_id in self.rows:
            self._remove_row(row_id)
            self.schema.stats.note_mutation(len(self.rows))

    def undo_delete(self, row_id, row):  # then restore_row_order()
        self._mutation_count += 1
        self.rows[row_id] = row
        pk = self.schema.primary_key
        if pk is not None:
            self._pk_index[row[pk.ordinal]] = row_id
        for index in self.indexes.values():
            index.insert(row_id, row)
        self.schema.stats.note_mutation(len(self.rows))

    def restore_row_order(self):  # after undo_delete: rows by row id again
        items = sorted(self.rows.items())
        self.rows.clear()
        self.rows.update(items)

    def undo_update(self, row_id, old_row):
        self._mutation_count += 1
        # Present: a later removal was logged later, so undone first.
        current = self.rows[row_id]
        self.rows[row_id] = old_row
        pk = self.schema.primary_key
        if pk is not None:
            self._pk_index.pop(current[pk.ordinal], None)
            self._pk_index[old_row[pk.ordinal]] = row_id
        for index in self.indexes.values():
            index.delete(row_id, current)
            index.insert(row_id, old_row)

    # -- lookups --------------------------------------------------------------

    def row_id_of(self, key):
        """The id of the row holding a primary-key value, or None."""
        return self._pk_index.get(key)

    def scan(self):
        """Iterate over (row_id, row) in row-id order."""
        return iter(self.rows.items())

    def column_store(self):
        """The cached columnar snapshot of the current contents, in scan
        order (see :class:`repro.sqldb.columnar.ColumnStore`).  Replaced
        lazily whenever the physical mutation counter moved.

        Replacing it costs one copy of the row list: the snapshot is
        column-lazy — a scan materialises the lanes and zone maps its
        statement reads, the planner (under any engine) one column's
        distinct count — and every write or rollback discards it all."""
        store = self._column_store
        if store is None or store.mutations != self._mutation_count:
            store = ColumnStore.build(self)
            self._column_store = store
        return store

    def __len__(self):
        return len(self.rows)
