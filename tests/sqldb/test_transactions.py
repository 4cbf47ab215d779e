import pytest

from repro.sqldb import Database, transactions
from repro.sqldb.errors import TransactionError
from repro.sqldb.result_cache import ResultCache


def test_rollback_undoes_insert(people_db):
    people_db.execute("BEGIN")
    people_db.execute("INSERT INTO person (id, name) VALUES (9, 'zoe')")
    people_db.execute("ROLLBACK")
    assert people_db.table_size("person") == 4


def test_rollback_undoes_update(people_db):
    people_db.execute("BEGIN")
    people_db.execute("UPDATE person SET age = 99 WHERE id = 1")
    people_db.execute("ROLLBACK")
    assert people_db.query(
        "SELECT age FROM person WHERE id = 1")[0]["age"] == 34


def test_rollback_undoes_delete_and_restores_indexes(people_db):
    people_db.execute("BEGIN")
    people_db.execute("DELETE FROM pet WHERE owner_id = 1")
    people_db.execute("ROLLBACK")
    result = people_db.execute("SELECT * FROM pet WHERE owner_id = ?", (1,))
    assert result.rowcount == 2


def test_commit_persists(people_db):
    people_db.execute("BEGIN")
    people_db.execute("INSERT INTO person (id, name) VALUES (9, 'zoe')")
    people_db.execute("COMMIT")
    assert people_db.table_size("person") == 5


def test_rollback_multiple_operations_in_reverse(people_db):
    people_db.execute("BEGIN")
    people_db.execute("UPDATE person SET age = 1 WHERE id = 1")
    people_db.execute("UPDATE person SET age = 2 WHERE id = 1")
    people_db.execute("DELETE FROM person WHERE id = 2")
    people_db.execute("ROLLBACK")
    rows = people_db.query("SELECT age FROM person WHERE id = 1")
    assert rows[0]["age"] == 34
    assert people_db.table_size("person") == 4


def test_nested_begin_raises(people_db):
    people_db.execute("BEGIN")
    with pytest.raises(TransactionError):
        people_db.execute("BEGIN")


def test_commit_without_begin_raises(people_db):
    with pytest.raises(TransactionError):
        people_db.execute("COMMIT")


def test_rollback_without_begin_raises(people_db):
    with pytest.raises(TransactionError):
        people_db.execute("ROLLBACK")


def test_autocommit_outside_transaction(people_db):
    people_db.execute("UPDATE person SET age = 50 WHERE id = 1")
    # No transaction: change is permanent, and no undo state lingers.
    assert not people_db.transactions.in_transaction
    assert people_db.query(
        "SELECT age FROM person WHERE id = 1")[0]["age"] == 50


def test_rollback_undoes_truncate(people_db):
    people_db.execute("BEGIN")
    assert people_db.execute("TRUNCATE TABLE pet").rowcount == 4
    assert people_db.table_size("pet") == 0
    people_db.execute("ROLLBACK")
    assert people_db.table_size("pet") == 4
    # Secondary indexes are restored along with the rows.
    result = people_db.execute("SELECT id FROM pet WHERE owner_id = ?", (1,))
    assert result.rowcount == 2
    assert result.rows_touched == 2  # still index-served


@pytest.mark.parametrize("undone", [
    "DELETE FROM pet WHERE id = 11 OR id = 12",
    "TRUNCATE TABLE pet",
    "UPDATE pet SET species = 'eel' WHERE id = 12; DELETE FROM pet "
    "WHERE owner_id = 1; DELETE FROM pet WHERE id = 12",
])
def test_rolled_back_delete_keeps_storage_in_row_id_order(undone,
                                                          cache_size):
    """Rollback puts deleted rows back where they were: storage stays in
    row-id order, so scans and column lanes, which no longer sort, read
    the same rows in the same order as a twin that never deleted — and
    so do reads that ran before the transaction, cached or not."""
    rolled, twin = (Database(result_cache_size=cache_size)
                    for _ in range(2))
    for db in (rolled, twin):
        db.execute("CREATE TABLE pet (id INT PRIMARY KEY, owner_id INT, "
                   "species TEXT)")
        db.execute("CREATE INDEX idx_pet_owner ON pet (owner_id)")
        for pet in [(10, 1, "cat"), (11, 1, "dog"), (12, 2, "cat"),
                    (13, 3, "fish")]:
            db.execute("INSERT INTO pet VALUES (?, ?, ?)", pet)
        db.tables["pet"].column_store()
    reads = ("SELECT * FROM pet", "SELECT id FROM pet WHERE owner_id = 1",
             "SELECT id, species FROM pet WHERE id > 10 LIMIT 2")
    for sql in reads:
        rolled.execute(sql)
    rolled.execute("BEGIN")
    rolled.execute_script(undone)
    rolled.execute("ROLLBACK")

    table, reference = rolled.tables["pet"], twin.tables["pet"]
    assert list(table.rows) == sorted(table.rows) == list(reference.rows)
    assert list(table.scan()) == list(reference.scan())
    store, expected = table.column_store(), reference.column_store()
    assert [store.lane(j) for j in range(3)] == [
        expected.lane(j) for j in range(3)]
    for sql in reads:
        assert rolled.execute(sql).rows == twin.execute(sql).rows


@pytest.mark.parametrize("end", ["COMMIT", "ROLLBACK"])
def test_a_transaction_that_ended_leaves_nothing_pending(people_db, end):
    """Once COMMIT or ROLLBACK has run, no table is pending: the result
    cache serves and stores entries over the tables the transaction
    wrote."""
    people_db.execute("BEGIN")
    people_db.execute("UPDATE person SET age = 35 WHERE id = 1")
    people_db.execute("DELETE FROM pet WHERE owner_id = 1")
    assert people_db.transactions.pending_table_names() == {"person", "pet"}
    people_db.execute(end)
    assert not people_db.transactions.pending_table_names()
    sql = "SELECT age FROM person WHERE id = 1"
    people_db.execute(sql)
    assert people_db.execute(sql).from_cache


def test_the_set_commit_returned_outlives_the_next_transaction(people_db,
                                                               monkeypatch):
    """The tables a COMMIT hands the result cache stay what they were while
    the next transaction writes other tables."""
    handed = []
    monkeypatch.setattr(ResultCache, "invalidate",
                        lambda cache, tables: handed.append(tables))
    people_db.execute("BEGIN")
    people_db.execute("UPDATE person SET age = 35 WHERE id = 1")
    people_db.execute("COMMIT")
    people_db.execute("BEGIN")
    people_db.execute("DELETE FROM pet WHERE owner_id = 1")
    assert handed == [{"person"}]
    people_db.execute("COMMIT")
    assert handed == [{"person"}, {"pet"}]


def test_only_begin_starts_an_undo_log(people_db, monkeypatch):
    """COMMIT and ROLLBACK allocate nothing: the next BEGIN starts the one
    log its transaction appends to."""
    started = []

    class CountedUndoLog(transactions.UndoLog):
        def __init__(self):
            super().__init__()
            started.append(self)

    monkeypatch.setattr(transactions, "UndoLog", CountedUndoLog)
    for end in ("COMMIT", "ROLLBACK", "COMMIT"):
        people_db.execute("BEGIN")
        people_db.execute("UPDATE person SET age = 35 WHERE id = 1")
        people_db.execute(end)
    assert len(started) == 3
    assert people_db.transactions._undo_log is started[-1]
    assert len(started[-1]) == 0  # a committed log holds no rows
