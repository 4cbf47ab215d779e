import pytest

from repro.sqldb import Database
from repro.sqldb.errors import TransactionError


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


@pytest.mark.parametrize("engine", Database.ENGINES)
@pytest.mark.parametrize("undone", [
    "DELETE FROM pet WHERE id = 11 OR id = 12",
    "TRUNCATE TABLE pet",
    "UPDATE pet SET species = 'eel' WHERE id = 12; DELETE FROM pet "
    "WHERE owner_id = 1; DELETE FROM pet WHERE id = 12",
])
def test_rolled_back_delete_keeps_storage_in_row_id_order(engine, undone):
    """Rollback puts deleted rows back where they were: storage stays in
    row-id order, so scans and column lanes, which no longer sort, read
    the same rows in the same order as a twin that never deleted."""
    rolled, twin = (Database(engine=engine) for _ in range(2))
    for db in (rolled, twin):
        db.execute("CREATE TABLE pet (id INT PRIMARY KEY, owner_id INT, "
                   "species TEXT)")
        db.execute("CREATE INDEX idx_pet_owner ON pet (owner_id)")
        for pet in [(10, 1, "cat"), (11, 1, "dog"), (12, 2, "cat"),
                    (13, 3, "fish")]:
            db.execute("INSERT INTO pet VALUES (?, ?, ?)", pet)
        db.tables["pet"].column_store()
    rolled.execute("BEGIN")
    rolled.execute_script(undone)
    rolled.execute("ROLLBACK")

    table, reference = rolled.tables["pet"], twin.tables["pet"]
    assert list(table.rows) == sorted(table.rows) == list(reference.rows)
    assert list(table.scan()) == list(reference.scan())
    store, expected = table.column_store(), reference.column_store()
    assert [store.lane(j) for j in range(3)] == [
        expected.lane(j) for j in range(3)]
    for sql in ("SELECT * FROM pet", "SELECT id FROM pet WHERE owner_id = 1",
                "SELECT id, species FROM pet WHERE id > 10 LIMIT 2"):
        assert rolled.execute(sql).rows == twin.execute(sql).rows
