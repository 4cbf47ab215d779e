"""The write plan's access paths and SET cells against references.

An UPDATE or DELETE finds its rows through the primary key, a hash index,
an ordered walk, a ``pk IN`` probe or a scan, and re-checks only what its
path left of the WHERE: nothing after a primary-key or index probe that
decided the whole of it.  Each statement here runs over an indexed table
and over an unindexed twin with no primary key, which scans and checks the
whole WHERE, and both must change the same rows, report the same rowcount
and raise the same error, word for word; where neither raises, SQLite must
agree too.  ``rows_touched`` pins the path the indexed
table took.  The write finds its rows through the plan of its WHERE, so it
changes exactly the rows ``SELECT id FROM t WHERE …`` returns, touching as
many, or raises that SELECT's error.

A SET cell ``column + - * literal-or-parameter`` reads the stored row
directly, any other cell its lane over that row.  Its value must be what
the same expression computes in a SELECT, stored as a bound parameter
would be, NULL included, and its errors the SELECT's — a missing
parameter among them.
"""

import math
import sqlite3

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import SqlError

from sqlite_reference import sqlite_copy

COLUMNS = "id, a, b, v, s, f"
ROWS = ((1, 1, 1, 10, "x", 0.5), (2, 1, 2, 20, "y", 1.5),
        (3, 1, 2, 30, None, None), (4, 2, 1, None, "x", 2.5),
        (5, None, 2, 50, "y", 3.5), (6, 2, None, 60, "z", None))
NAN = math.nan


def _database():
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, v INT, "
               "s TEXT, f REAL)")
    db.execute("CREATE INDEX t_ab ON t (a, b)")
    db.execute("CREATE INDEX t_v ON t (v) USING ORDERED")
    db.execute("CREATE TABLE twin (id INT, a INT, b INT, v INT, s TEXT, "
               "f REAL)")
    for table in ("t", "twin"):
        for row in ROWS:
            db.execute(f"INSERT INTO {table} VALUES (?, ?, ?, ?, ?, ?)", row)
    return db


def _contents(db, table):
    return sorted(map(tuple, db.execute(f"SELECT {COLUMNS} FROM {table}")
                      .rows), key=repr)


def _by_id(db, table):
    return {row[0]: row for row in db.execute(
        f"SELECT {COLUMNS} FROM {table}").rows}


def _selected(db, where, params):
    """``(ids, rows_touched)`` of ``SELECT id FROM t WHERE <where>``, or the
    error's type and text."""
    try:
        result = db.execute(f"SELECT id FROM t WHERE {where}", params)
    except SqlError as error:
        return type(error), str(error)
    return sorted(key for key, in result.rows), result.rows_touched


def _run(db, sql, params):
    """``(rowcount, rows_touched)`` of ``sql``, or the error's type and
    text."""
    try:
        result = db.execute(sql, params)
    except SqlError as error:
        return type(error), str(error)
    return result.rowcount, result.rows_touched


VERBS = {
    "update": "UPDATE {t} SET s = 'new', v = v + 1, f = f * 2 WHERE ",
    "delete": "DELETE FROM {t} WHERE ",
}

# (WHERE over {t}, parameters, rows the indexed table touches — its path)
CASES = {
    # the primary key: the probe decides its conjunct, the rest is checked
    "pk": ("id = ?", (2,), 1),
    "pk-missing-row": ("id = ?", (99,), 0),
    "pk-float-key": ("id = 2.0", (), 1),
    "pk-qualified": ("{t}.id = ?", (2,), 1),
    "pk-residual-holds": ("id = ? AND a = ?", (2, 1), 1),
    "pk-residual-fails": ("id = ? AND a = ?", (2, 2), 1),
    "pk-residual-null": ("id = ? AND a = ?", (2, None), 1),
    "pk-residual-raises": ("id = ? AND s > ?", (2, 5), None),
    "pk-key-repeated": ("id = ? AND id = ?", (2, 3), 1),
    "pk-key-repeated-equal": ("id = ? AND id = ?", (2, 2), 1),
    "pk-residual-not-truth-valued": ("id = ? AND 10", (2,), 1),
    "pk-unknown-qualifier": ("x.id = ?", (2,), None),
    # a hash index over (a, b)
    "hash": ("a = ? AND b = ?", (1, 2), 2),
    "hash-residual": ("a = ? AND b = ? AND v > ?", (1, 2, 25), 2),
    "hash-empty-bucket": ("b = ? AND a = ?", (9, 1), 0),
    "hash-column-repeated": ("a = ? AND b = ? AND a = ?", (1, 2, 2), 0),
    # an ordered walk over v
    "range": ("v > ? AND v < ?", (15, 55), 3),
    "range-residual": ("v BETWEEN ? AND ? AND a = ?", (10, 30, 1), 3),
    "range-null-bound": ("v > ?", (None,), 0),
    "range-nan-bound": ("v > ?", (NAN,), 0),  # a NaN binds as NULL
    # a pk IN probe, which decides nothing
    "pk-in": ("id IN (?, ?)", (1, 3), 2),
    "pk-in-residual": ("id IN (?, ?) AND a = ?", (1, 4, 1), 2),
    # the scan a key no index serves falls back to
    "scan-nan-key": ("id = ?", (NAN,), 6),
    "scan-text-key-on-integer": ("id = ?", ("1",), None),
    "scan-missing-parameter": ("id = ?", (), None),
    "scan-no-index": ("s = ?", ("x",), 6),
    "scan-partial-key": ("a = ?", (1,), 6),
}


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("case", CASES)
def test_every_path_changes_what_the_unindexed_twin_changes(verb, case):
    where, params, touched = CASES[case]
    sql = VERBS[verb] + where
    db = _database()
    lite = sqlite_copy(db, ["t"])
    selected = _selected(_database(), where.format(t="t"), params)
    before = _by_id(db, "t")
    outcome = _run(db, sql.format(t="t"), params)
    twin = _run(db, sql.format(t="twin"), params)
    assert _contents(db, "t") == _contents(db, "twin"), (sql, params)
    after = _by_id(db, "t")
    changed = sorted(key for key, row in before.items()
                     if after.get(key) != row)
    if type(outcome[0]) is int:
        assert outcome[0] == twin[0]  # the rowcount
        assert outcome[1] == touched  # the path
        assert selected == (changed, outcome[1])  # its SELECT's rows
        assert twin[1] == len(ROWS)
        cursor = lite.execute(sql.format(t="t"), params)
        assert cursor.rowcount == outcome[0]
        assert sorted(lite.execute(f"SELECT {COLUMNS} FROM t"),
                      key=repr) == _contents(db, "t")
    else:
        assert outcome == twin == selected
        assert touched is None


@pytest.mark.parametrize("verb", VERBS)
def test_an_unknown_qualifier_is_refused_over_an_empty_table(verb):
    """Refused when the plan is built, as its SELECT and SQLite refuse it:
    with no row to evaluate it on, no path answers 0 rows."""
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, v INT, "
               "s TEXT, f REAL)")
    sql = VERBS[verb].format(t="t") + "x.id = 1"
    expected = _selected(db, "x.id = 1", ())
    assert expected == (SqlError, "unknown column 'id' in table 'x'")
    assert _run(db, sql, ()) == expected
    with pytest.raises(sqlite3.OperationalError, match="no such column"):
        sqlite_copy(db, ["t"]).execute(sql)


def test_the_cases_reach_every_outcome():
    """The table above changes rows, changes none and raises, on the
    paths that decide the WHERE and on those that do not."""
    outcomes = {case: _run(_database(), VERBS["update"].format(t="t") + where,
                           params)
                for case, (where, params, _) in CASES.items()}
    assert outcomes["pk"] == outcomes["pk-residual-holds"] == (1, 1)
    assert outcomes["pk-residual-fails"] == (0, 1)
    assert outcomes["pk-key-repeated"] == (0, 1)
    assert outcomes["hash-residual"] == (1, 2)
    assert outcomes["pk-residual-raises"][0].__name__ == "SqlTypeError"
    assert outcomes["scan-missing-parameter"] == (
        SqlError, "missing parameter #1 (got 0 parameters)")


# (SET expression, the column it is stored in)
CELLS = [("v + ?", "v"), ("v - ?", "v"), ("v * ?", "v"), ("f + ?", "f"),
         ("f * ?", "f"), ("v * ?", "f"), ("{t}.v - ?", "v"),
         ("v + 1", "v"), ("v - 2", "v"), ("f * 2.5", "f"), ("v + NULL", "v"),
         ("v * 'x'", "v"), ("v + TRUE", "v")]
OPERANDS = [None, 3, -2, 2.5, 0, "x", True, 10**400]


def _cell_outcome(db, sql, params):
    outcome = _run(db, sql, params)
    return outcome, _contents(db, "t")


@pytest.mark.parametrize("row_id", [1, 4])
@pytest.mark.parametrize("operand", OPERANDS, ids=repr)
@pytest.mark.parametrize("expr, column", CELLS)
def test_a_set_cell_stores_what_a_select_computes(expr, column, operand,
                                                  row_id):
    expr = expr.format(t="t")
    params = (operand, row_id) if "?" in expr else (row_id,)
    reference = Database(result_cache_size=0)
    reference.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, "
                      "v INT, s TEXT, f REAL)")
    for row in ROWS:
        reference.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", row)
    try:
        (value,), = reference.execute(
            f"SELECT {expr} FROM t WHERE id = ?", params).rows
    except SqlError as error:
        # The SELECT refuses the expression: so does the cell, word
        # for word, and the row stays as it was.
        expected = (type(error), str(error)), _contents(reference, "t")
    else:
        expected = _cell_outcome(
            reference, f"UPDATE t SET {column} = ? WHERE id = ?",
            (value, row_id))
    assert _cell_outcome(_database(),
                         f"UPDATE t SET {column} = {expr} WHERE id = ?",
                         params) == expected


@pytest.mark.parametrize("sql, params, message", [
    ("UPDATE t SET s = ?, v = v + ? WHERE id = 1", ("z",),
     "missing parameter #2 (got 1 parameters)"),
    ("UPDATE t SET v = v + ?, s = ? WHERE id = 1", (),
     "missing parameter #1 (got 0 parameters)"),
    ("UPDATE t SET f = f * ?, v = v - ? WHERE id = 1", (2.0,),
     "missing parameter #2 (got 1 parameters)"),
])
def test_a_missing_parameter_of_a_cell_raises_in_cell_order(
        sql, params, message):
    db = _database()
    before = _contents(db, "t")
    with pytest.raises(SqlError) as raised:
        db.execute(sql, params)
    assert type(raised.value) is SqlError and str(raised.value) == message
    assert _contents(db, "t") == before
