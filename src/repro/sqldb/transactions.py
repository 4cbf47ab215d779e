"""Transaction support: an undo log with BEGIN/COMMIT/ROLLBACK.

The engine runs single-writer (the simulated server serializes writes), so
transactions only need atomicity, which the undo log provides.  When no
transaction is open, statements auto-commit: a statement writing one row
needs no undo log (storage refuses a row whole), one writing several runs as
its own transaction, so a statement that raises part-way leaves nothing.
COMMIT hands back the names of the tables the transaction wrote, and the
executor drops the result-cache entries that read them; ROLLBACK restores
the committed contents and drops nothing.
"""

from repro.sqldb.errors import TransactionError


class UndoLog(list):
    """The undo list table mutations append to, tracking the names of the
    distinct tables it touches as entries arrive — the tables a COMMIT
    invalidates in the result cache, and the live set its pending check
    reads."""

    __slots__ = ("tables",)

    def __init__(self):
        super().__init__()
        self.tables = set()

    def append(self, entry):
        super().append(entry)
        self.tables.add(entry[1].schema.name)


_NO_TABLES = frozenset()


class TransactionManager:
    """Tracks the open-transaction state and the undo log for rollback.
    Only ``begin`` starts a log: COMMIT returns the ended one's tables."""

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
        """The live set of names of the tables the open transaction has
        written (empty when auto-committing).

        The result cache serves and stores no entry that reads one of them:
        storage is ahead of the committed contents the entries hold, and
        rows computed from it may roll back.
        """
        return self._undo_log.tables if self._in_transaction else _NO_TABLES

    def begin(self):
        if self._in_transaction:
            raise TransactionError("transaction already in progress")
        self._in_transaction = True
        self._undo_log = UndoLog()

    def commit(self):
        """End the open transaction; returns the names of the tables it
        wrote, whose result-cache entries the caller invalidates.
        Rollback never reaches this: the restored contents are the ones
        those entries were computed from."""
        if not self._in_transaction:
            raise TransactionError("no transaction in progress")
        log = self._undo_log
        self._in_transaction = False
        log.clear()  # its rows are durable: hold none of them
        return log.tables

    def rollback(self):
        if not self._in_transaction:
            raise TransactionError("no transaction in progress")
        self.rollback_to(0)
        self._in_transaction = False

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
