"""This engine's SQL where it parts from SQLite's: one case a gap, each
beside SQLite's answer (ARCHITECTURE.md, "Dialect").  The SQLite
differentials keep these shapes out of what they generate."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import SqlParseError, SqlTypeError

from sqlite_reference import sqlite_copy

DB = Database()
DB.execute("CREATE TABLE t (id INT PRIMARY KEY, n INT, s TEXT)")
DB.execute("INSERT INTO t VALUES (1, 3, 'ABC')")
LITE = sqlite_copy(DB)


@pytest.mark.parametrize("sql, params, here, sqlite", [
    ("SELECT 7 / 2, 6 / 3 FROM t", (), [(3.5, 2)], [(3, 2)]),
    ("SELECT -2 % 3, 2 % -3 FROM t", (), [(1, -1)], [(-2, 2)]),
    ("SELECT id FROM t WHERE s LIKE ?", ("abc",), [], [(1,)]),
    # SQLite coerces '3' by the column's affinity.
    ("SELECT id FROM t WHERE n = ?", ("3",), SqlTypeError, [(1,)]),
    ("SELECT 1", (), SqlParseError, [(1,)]),
], ids=["true-division", "remainder-takes-the-divisors-sign",
        "like-is-case-sensitive", "text-beside-a-number", "select-needs-from"])
def test_a_dialect_gap(sql, params, here, sqlite):
    if isinstance(here, list):
        assert DB.execute(sql, params).rows == here
    else:
        with pytest.raises(here):
            DB.execute(sql, params)
    assert LITE.execute(sql, params).fetchall() == sqlite
