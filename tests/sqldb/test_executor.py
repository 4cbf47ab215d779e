import gc
import re
import weakref

import pytest

from repro.net import CostModel, DatabaseServer
from repro.net.driver import DriverStats
from repro.sqldb import Database
from repro.sqldb.errors import (
    CatalogError, ConstraintError, SqlError, SqlTypeError,
)


def names(rows, key="name"):
    return [r[key] for r in rows]


class TestSelect:
    def test_where_filter(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE age > 30")
        assert sorted(names(rows)) == ["alice", "carol"]

    def test_null_never_matches_comparison(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE age < 100")
        assert "dave" not in names(rows)

    def test_is_null(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person WHERE age IS NULL")
        assert names(rows) == ["dave"]

    def test_order_by_desc_with_nulls(self, people_db):
        rows = people_db.query("SELECT name, age FROM person ORDER BY age")
        assert names(rows)[0] == "dave"  # NULL sorts first ascending

    def test_limit_offset(self, people_db):
        rows = people_db.query(
            "SELECT id FROM person ORDER BY id LIMIT 2 OFFSET 1")
        assert [r["id"] for r in rows] == [2, 3]

    def test_distinct(self, people_db):
        rows = people_db.query("SELECT DISTINCT city FROM person")
        assert len(rows) == 3

    def test_in_list(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person WHERE id IN (1, 3)")
        assert sorted(names(rows)) == ["alice", "carol"]

    def test_like(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person WHERE name LIKE '%a%'")
        assert sorted(names(rows)) == ["alice", "carol", "dave"]

    def test_between(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person WHERE age BETWEEN 28 AND 34")
        assert sorted(names(rows)) == ["alice", "bob"]

    def test_expression_projection(self, people_db):
        rows = people_db.query(
            "SELECT age + 1 AS next_age FROM person WHERE id = 1")
        assert rows[0]["next_age"] == 35

    def test_scalar_functions(self, people_db):
        rows = people_db.query(
            "SELECT UPPER(name) AS u, LENGTH(city) AS l "
            "FROM person WHERE id = 2")
        assert rows[0] == {"u": "BOB", "l": 3}

    def test_params(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person WHERE city = ? AND age > ?",
            ("boston", 35))
        assert names(rows) == ["carol"]

    def test_missing_param_raises(self, people_db):
        with pytest.raises(SqlError):
            people_db.query("SELECT name FROM person WHERE id = ?")

    def test_unknown_column_raises(self, people_db):
        with pytest.raises(SqlError):
            people_db.query("SELECT nope FROM person")

    def test_unknown_table_raises(self, people_db):
        with pytest.raises(CatalogError):
            people_db.query("SELECT 1 FROM nope")


class TestJoins:
    def test_inner_join(self, people_db):
        rows = people_db.query(
            "SELECT p.name, q.species FROM person p "
            "JOIN pet q ON p.id = q.owner_id ORDER BY q.id")
        assert rows[0] == {"name": "alice", "species": "cat"}
        assert len(rows) == 4

    def test_left_join_keeps_unmatched(self, people_db):
        rows = people_db.query(
            "SELECT p.name, q.id FROM person p "
            "LEFT JOIN pet q ON p.id = q.owner_id WHERE q.id IS NULL")
        assert names(rows) == ["dave"]

    def test_join_with_filter(self, people_db):
        rows = people_db.query(
            "SELECT p.name FROM person p JOIN pet q ON p.id = q.owner_id "
            "WHERE q.species = 'cat'")
        assert sorted(names(rows)) == ["alice", "bob"]

    def test_ambiguous_column_raises(self, people_db):
        with pytest.raises(SqlError):
            people_db.query(
                "SELECT id FROM person p JOIN pet q ON p.id = q.owner_id")


class TestAggregates:
    def test_count_star(self, people_db):
        rows = people_db.query("SELECT COUNT(*) AS n FROM person")
        assert rows[0]["n"] == 4

    def test_count_ignores_nulls(self, people_db):
        rows = people_db.query("SELECT COUNT(age) AS n FROM person")
        assert rows[0]["n"] == 3

    def test_sum_avg_min_max(self, people_db):
        rows = people_db.query(
            "SELECT SUM(age) AS s, AVG(age) AS a, MIN(age) AS lo, "
            "MAX(age) AS hi FROM person")
        assert rows[0]["s"] == 103
        assert rows[0]["a"] == pytest.approx(103 / 3)
        assert (rows[0]["lo"], rows[0]["hi"]) == (28, 41)

    def test_group_by_with_having(self, people_db):
        rows = people_db.query(
            "SELECT city, COUNT(*) AS n FROM person GROUP BY city "
            "HAVING COUNT(*) > 1")
        assert rows == [{"city": "boston", "n": 2}]

    def test_count_distinct(self, people_db):
        rows = people_db.query(
            "SELECT COUNT(DISTINCT species) AS n FROM pet")
        assert rows[0]["n"] == 3

    def test_aggregate_on_empty_table(self, db):
        db.execute("CREATE TABLE e (id INT PRIMARY KEY, v INT)")
        rows = db.query("SELECT COUNT(*) AS n, SUM(v) AS s FROM e")
        assert rows[0] == {"n": 0, "s": None}


class TestWrites:
    def test_insert_and_rowcount(self, people_db):
        result = people_db.execute(
            "INSERT INTO person (id, name) VALUES (5, 'erin'), (6, 'finn')")
        assert result.rowcount == 2
        assert people_db.table_size("person") == 6

    def test_insert_duplicate_pk_raises(self, people_db):
        with pytest.raises(ConstraintError):
            people_db.execute(
                "INSERT INTO person (id, name) VALUES (1, 'dup')")

    def test_insert_null_into_not_null_raises(self, people_db):
        with pytest.raises(ConstraintError):
            people_db.execute(
                "INSERT INTO person (id, name) VALUES (9, NULL)")

    def test_insert_type_mismatch_raises(self, people_db):
        with pytest.raises(SqlTypeError):
            people_db.execute(
                "INSERT INTO person (id, name) VALUES ('x', 'bad')")

    def test_update_with_expression(self, people_db):
        result = people_db.execute(
            "UPDATE person SET age = age + 1 WHERE city = 'boston'")
        assert result.rowcount == 2
        rows = people_db.query(
            "SELECT age FROM person WHERE id = 1")
        assert rows[0]["age"] == 35

    def test_update_pk_lookup_touches_one_row(self, people_db):
        result = people_db.execute(
            "UPDATE person SET city = 'la' WHERE id = 2")
        assert result.rows_touched == 1

    def test_delete(self, people_db):
        result = people_db.execute("DELETE FROM person WHERE age IS NULL")
        assert result.rowcount == 1
        assert people_db.table_size("person") == 3

    def test_delete_all(self, people_db):
        people_db.execute("DELETE FROM pet")
        assert people_db.table_size("pet") == 0

    def test_literal_and_parameter_cells_store_as_evaluated(self, people_db):
        people_db.execute(
            "INSERT INTO person (id, name, age, city) VALUES (?, 'erin', ?, "
            "LOWER(?))", (7, 30.0, "LA"))
        people_db.execute("UPDATE person SET age = ?, city = 'sf', "
                          "name = name || ? WHERE id = ?", (True, "!", 7))
        assert people_db.query("SELECT * FROM person WHERE id = 7") == [
            {"id": 7, "name": "erin!", "age": 1, "city": "sf"}]
        stored = people_db.tables["person"].find_by_pk(7)[1]
        assert [type(value) for value in stored] == [int, str, int, str]

    @pytest.mark.parametrize("sql,params,error,message", [
        ("INSERT INTO person (id, name) VALUES (?, ?)", (7,),
         SqlError, "missing parameter #2"),
        # An earlier cell's own error comes first, as cell by cell.
        ("INSERT INTO person (id, name, age) VALUES (?, 'x' || 1, ?)", (7,),
         SqlTypeError, "'||' requires text"),
        ("UPDATE person SET city = 1 + 'x', age = ? WHERE id = 1", (),
         SqlTypeError, "arithmetic requires numbers"),
        ("UPDATE person SET city = 1 + 'x', age = ? WHERE id = 1", (5,),
         SqlTypeError, "arithmetic requires numbers"),
        ("UPDATE person SET city = ?, age = ? WHERE id = 1", ("la",),
         SqlError, "missing parameter #2"),
        ("INSERT INTO person (id, name) VALUES (?, name)", (7,),
         SqlError, "unknown column"),
    ])
    def test_a_write_binding_errs_as_cell_by_cell(self, people_db, sql,
                                                  params, error, message):
        before = people_db.query("SELECT * FROM person ORDER BY id")
        with pytest.raises(SqlError, match=re.escape(message)) as raised:
            people_db.execute(sql, params)
        assert raised.type is error
        assert people_db.query("SELECT * FROM person ORDER BY id") == before

    def test_drop_table(self, people_db):
        people_db.execute("DROP TABLE pet")
        with pytest.raises(CatalogError):
            people_db.query("SELECT * FROM pet")


class TestIndexUse:
    def test_pk_lookup_rows_touched(self, people_db):
        result = people_db.execute("SELECT * FROM person WHERE id = 3")
        assert result.rows_touched == 1

    def test_secondary_index_lookup(self, people_db):
        result = people_db.execute(
            "SELECT * FROM pet WHERE owner_id = ?", (1,))
        assert result.rowcount == 2
        assert result.rows_touched == 2  # index hit, not a scan

    def test_full_scan_touches_all(self, people_db):
        result = people_db.execute(
            "SELECT * FROM pet WHERE species = 'cat'")
        assert result.rows_touched == 4

    def test_index_updated_on_update(self, people_db):
        people_db.execute("UPDATE pet SET owner_id = 3 WHERE id = 10")
        result = people_db.execute(
            "SELECT * FROM pet WHERE owner_id = ?", (3,))
        assert result.rowcount == 2

    def test_unique_index_violation(self, db):
        db.execute("CREATE TABLE u (id INT PRIMARY KEY, code TEXT)")
        db.execute("CREATE UNIQUE INDEX uq ON u (code)")
        db.execute("INSERT INTO u (id, code) VALUES (1, 'a')")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO u (id, code) VALUES (2, 'a')")
        # The refused row is in neither the table nor its indexes.
        assert db.execute("SELECT * FROM u").rows == [(1, "a")]
        assert db.execute("SELECT id FROM u WHERE id = 2").rows == []
        assert db.execute("SELECT id FROM u WHERE code = 'a'").rows == [(1,)]
        assert len(db.tables["u"].indexes["uq"]) == 1


class TestLifetime:
    def test_dropped_database_is_freed_without_the_cycle_collector(
            self, cache_size):
        """Nothing a used database owns refers back to it, so dropping the
        last reference frees it at once: the cycle collector is off here."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            db = Database(result_cache_size=cache_size)
            db.execute_script("""
            CREATE TABLE a (id INT PRIMARY KEY, x INT);
            CREATE TABLE b (id INT PRIMARY KEY, y INT);
            CREATE INDEX b_y ON b (y) USING ORDERED
            """)
            for i in range(40):
                db.execute("INSERT INTO a VALUES (?, ?)", (i, i % 7))
                db.execute("INSERT INTO b VALUES (?, ?)", (i, i))
            join = "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y"
            db.execute(join)
            db.execute(join)  # a result-cache hit, the cache on
            db.execute("SELECT id FROM b WHERE y BETWEEN ? AND ? "
                       "ORDER BY y LIMIT 3", (4, 30))
            db.execute("BEGIN")
            db.execute("UPDATE a SET x = ? WHERE id < ?", (1, 30))
            db.execute("ROLLBACK")
            db.explain(join, (), analyze=True)
            DatabaseServer(db, CostModel()).execute_batch(
                [("SELECT x FROM a", ()), ("SELECT id FROM a WHERE x = 1",
                                           ())],
                batch_optimize=True, stats=DriverStats())
            ref = weakref.ref(db)
            del db
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
