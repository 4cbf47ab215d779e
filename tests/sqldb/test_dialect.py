"""This engine's SQL is SQLite's but for a few gaps (ARCHITECTURE.md,
"Dialect"): each gap is one case here, beside SQLite's answer, and the
SQLite differentials keep those shapes out of what they generate.  The
shapes that used to be gaps are held to SQLite."""

import math
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlParseError, SqlTypeError

from sqlite_reference import assert_matches_sqlite, sqlite_copy

DB = Database()
DB.execute("CREATE TABLE t (id INT PRIMARY KEY, n INT, s TEXT)")
DB.execute("INSERT INTO t VALUES (1, 3, 'ABC')")
LITE = sqlite_copy(DB)


@pytest.mark.parametrize("sql, params, here, sqlite", [
    ("SELECT 7 / 2, 6 / 3 FROM t", (), [(3.5, 2)], [(3, 2)]),
    # SQLite coerces '3' by the column's affinity.
    ("SELECT id FROM t WHERE n = ?", ("3",), SqlTypeError, [(1,)]),
    ("SELECT 1", (), SqlParseError, [(1,)]),
    # A NaN computed from infinities: SQLite's is NULL.
    ("SELECT 1e999 - 1e999 IS NULL, n * 1e999 - 1e999 IS NULL FROM t", (),
     [(False, False)], [(1, 1)]),
    # SQLite reads a negative LIMIT as none, a negative OFFSET as 0.
    ("SELECT id FROM t LIMIT -1", (), SqlError, [(1,)]),
    ("SELECT id FROM t LIMIT 1 OFFSET ?", (-1,), SqlError, [(1,)]),
], ids=["true-division", "text-beside-a-number", "select-needs-from",
        "computed-nan-is-a-value", "limit-negative", "offset-negative"])
def test_a_dialect_gap(sql, params, here, sqlite):
    if isinstance(here, list):
        assert DB.execute(sql, params).rows == here
    else:
        with pytest.raises(here):
            DB.execute(sql, params)
    assert LITE.execute(sql, params).fetchall() == sqlite


@pytest.mark.parametrize("sql, params", [
    ("SELECT -2 % 3, 2 % -3, -7 % -2, n % 2, 7 % 0, 0 % n FROM t", ()),
    ("SELECT 5.5 % 2, 7 % 2.5, -7.5 % 2, 7 % -2.5, 7 % 0.5, 0.0 % n "
     "FROM t", ()),
    ("SELECT 1e300 % 7, 7 % 1e300, 1e999 % n, -1e999 % n, n % ? FROM t",
     (1e999,)),
    ("SELECT s LIKE 'abc', s LIKE 'a%', s LIKE ?, 'é' LIKE 'É', "
     "'Ä' LIKE 'ä', 'é' LIKE 'é' FROM t", ("_b_",)),
    ("SELECT id FROM t WHERE s LIKE ?", ("abc",)),
    ("SELECT 1e3, -3.6e-05, 1E+2, 1.5e2, .5e1, 1.e2, 2e-400 FROM t", ()),
    ("SELECT 1e999, -1e999, n * 1e999 FROM t", ()),
    ("SELECT ? IS NULL, ?, n + ? FROM t", (math.nan, math.nan, math.nan)),
], ids=["remainder-takes-the-dividends-sign", "remainder-of-reals",
        "remainder-of-infinities", "like-ignores-ascii-case",
        "like-filters-ignoring-ascii-case", "exponent-literals",
        "exponent-overflows-to-infinity", "a-bound-nan-is-null"])
def test_what_sqlite_answers(sql, params):
    """SQLite's values, and their types: ``5.5 % 2`` is ``1.0``."""
    rows = assert_matches_sqlite(DB, sql, params, total=True, lite=LITE).rows
    assert [tuple(int if type(v) is bool else type(v) for v in row)
            for row in rows] == [tuple(map(type, row)) for row in
                                 LITE.execute(sql, params).fetchall()]


@pytest.mark.parametrize("sql", ["SELECT 1e FROM t", "SELECT 1e+ FROM t",
                                 "SELECT 12abc FROM t"])
def test_a_letter_after_a_number_is_no_token(sql):
    with pytest.raises(SqlParseError, match="unrecognized token"):
        DB.execute(sql)
    with pytest.raises(sqlite3.OperationalError, match="unrecognized token"):
        LITE.execute(sql)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_a_float_literal_reads_back_as_written(x):
    """Any finite float, written as its ``repr`` in an INSERT, reads back
    as that float.  SQLite reads it too, to within one unit in the last
    place: its decimal reader (3.40) is not always correctly rounded —
    about one literal in 10 000, more among the subnormals."""
    db = Database()
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, f REAL)")
    db.execute(f"INSERT INTO r VALUES (1, {x!r})")
    (value,), = db.execute("SELECT f FROM r").rows
    assert value == x and type(value) is float
    (lite,), = LITE.execute(f"SELECT {x!r}").fetchall()
    assert abs(lite - x) <= math.ulp(x)
