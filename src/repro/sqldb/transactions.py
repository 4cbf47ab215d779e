"""Transaction support: an undo log with BEGIN/COMMIT/ROLLBACK.

The engine runs single-writer (the simulated server serializes writes), so
transactions only need atomicity, which the undo log provides.  When no
transaction is open, statements auto-commit: a statement writing one row
needs no undo log (storage refuses a row whole), one writing several runs as
its own transaction, so a statement that raises part-way leaves nothing.
"""

from repro.sqldb.errors import TransactionError


class UndoLog(list):
    """The undo list table mutations append to, tracking the distinct
    tables it touches as entries arrive — so the result cache's
    pending-write check is O(touched tables), not O(log entries)."""

    __slots__ = ("tables",)

    def __init__(self):
        super().__init__()
        self.tables = set()

    def append(self, entry):
        super().append(entry)
        self.tables.add(entry[1])


class TransactionManager:
    """Tracks the open-transaction state and the undo log for rollback."""

    def __init__(self):
        self._in_transaction = False
        self._undo_log = UndoLog()

    @property
    def in_transaction(self):
        return self._in_transaction

    def undo_log(self):
        """The live undo list that table mutations append to, or None when
        auto-committing (no undo needed)."""
        return self._undo_log if self._in_transaction else None

    def pending_table_names(self):
        """Names of tables with uncommitted writes in the open transaction
        (empty when auto-committing).

        The result cache bypasses statements touching these tables: their
        storage reflects in-flight work whose write versions have not been
        bumped yet, so cached rows would be stale against it — and rows
        computed from it must not be stored under pre-commit versions.
        """
        if not self._in_transaction or not self._undo_log:
            return frozenset()
        return frozenset(
            table.schema.name for table in self._undo_log.tables)

    def begin(self):
        if self._in_transaction:
            raise TransactionError("transaction already in progress")
        self._in_transaction = True
        self._undo_log = UndoLog()

    def commit(self):
        if not self._in_transaction:
            raise TransactionError("no transaction in progress")
        # The transaction's writes become durable now: bump each touched
        # table's write version exactly once, so result-cache entries that
        # depend on it stop validating.  Rollback never reaches this —
        # restored contents keep their pre-transaction versions.
        for table in self._undo_log.tables:
            table.bump_write_version()
        self._in_transaction = False
        self._undo_log = UndoLog()

    def rollback(self):
        if not self._in_transaction:
            raise TransactionError("no transaction in progress")
        self.rollback_to(0)
        self._in_transaction = False
        self._undo_log = UndoLog()

    def rollback_to(self, savepoint):
        """Undo, newest first, what the open transaction logged beyond
        ``savepoint`` (a length of its undo log): everything for ROLLBACK,
        one statement's rows when it raised part-way."""
        log = self._undo_log
        reinserted = {e[1] for e in log[savepoint:] if e[0] == "delete"}
        while len(log) > savepoint:
            entry = log.pop()
            action = entry[0]
            if action == "insert":
                _, table, row_id = entry
                table.undo_insert(row_id)
            elif action == "delete":
                _, table, row_id, row = entry
                table.undo_delete(row_id, row)
            elif action == "update":
                _, table, row_id, old_row = entry
                table.undo_update(row_id, old_row)
        for table in reinserted:
            table.restore_row_order()
