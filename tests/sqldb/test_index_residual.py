"""An equality index probe decides the conjuncts it keyed on.

A row the primary key or a hash index finds equals its key, so the
engine re-checks only the rest of the WHERE over it (the residual).  Each
statement here runs over an indexed table and over an unindexed twin with
no primary key: both answer SQLite's rows (``sqlite_reference``), or both
raise this engine's :class:`SqlTypeError` where a parameter's type meets
a column of another (a dialect gap: SQLite compares across types).  A
residual that dropped the wrong conjunct — every equality on the key, or
the one a probe did not bind — answers differently from the twin.
"""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlTypeError

from sqlite_reference import assert_matches_sqlite, sqlite_copy

ROWS = ((1, 1, 1, "x"), (2, 1, 2, "y"), (3, 1, 2, None), (4, 2, 1, "x"),
        (5, None, 2, "y"), (6, 2, None, "z"))


def _database():
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, s TEXT)")
    db.execute("CREATE INDEX t_ab ON t (a, b)")
    db.execute("CREATE TABLE twin (id INT, a INT, b INT, s TEXT)")
    for table in ("t", "twin"):
        for row in ROWS:
            db.execute(f"INSERT INTO {table} VALUES (?, ?, ?, ?)", row)
    return db


DB = _database()
LITE = sqlite_copy(DB)


def _outcome(sql, params):
    try:
        return DB.execute(sql, params).rows
    except SqlError as error:
        return type(error)


def _agree(sql, params, path):
    """The outcome of ``sql`` (``{t}`` the table), the same on both
    tables and, when it is rows, SQLite's; the indexed table is probed
    through ``path``."""
    assert f"candidates=[{path}]" in DB.explain(sql.format(t="t"))
    outcomes = [_outcome(sql.format(t=table), params)
                for table in ("t", "twin")]
    assert outcomes[0] == outcomes[1], (sql, params, outcomes)
    if outcomes[0] is not SqlTypeError:
        assert_matches_sqlite(DB, sql.format(t="t"), params, lite=LITE)
    return outcomes[0]


@pytest.mark.parametrize("params, expected", [
    ((1, 2), []), ((2, 2), [(2, "y")]), ((1, None), []), ((None, 1), []),
])
def test_two_equalities_on_the_key_keep_both(params, expected):
    assert _agree("SELECT id, s FROM {t} WHERE id = ? AND id = ?", params,
                  "'<pk>'") == expected


@pytest.mark.parametrize("params, expected", [
    ((1, 2, 1), [(2,), (3,)]), ((1, 2, 2), []), ((1, 2, None), []),
    ((None, 2, 1), []), ((2, 1, 2), [(4,)]), ((2, 1, "2"), SqlTypeError),
])
def test_a_composite_index_with_one_column_repeated(params, expected):
    assert _agree("SELECT id FROM {t} WHERE a = ? AND b = ? AND a = ?",
                  params, "'t_ab'") == expected


@pytest.mark.parametrize("key, expected", [
    (1.0, [(1, "x")]), (2, [(2, "y")]), (1.5, []), (99, []), (None, []),
    (True, SqlTypeError), ("1", SqlTypeError), ([1], SqlTypeError),
])
def test_a_point_read_answers_what_the_scan_answers(key, expected):
    assert _agree("SELECT id, s FROM {t} WHERE id = ?", (key,),
                  "'<pk>'") == expected


@pytest.mark.parametrize("sql, params, path, expected", [
    ("SELECT id FROM {t} WHERE id = ? AND s = ?", (2, "y"), "'<pk>'",
     [(2,)]),
    ("SELECT id FROM {t} WHERE s = ? AND id = ?", ("x", 2), "'<pk>'", []),
    ("SELECT id FROM {t} WHERE id = ? AND s = ?", (3, "y"), "'<pk>'", []),
    ("SELECT id FROM {t} WHERE id = ? AND s = ?", (2, 2), "'<pk>'",
     SqlTypeError),
    ("SELECT id FROM {t} WHERE id = ? AND s = ?", (9, 2), "'<pk>'", []),
    ("SELECT id FROM {t} WHERE a = ? AND b = ? AND s IS NOT NULL",
     (1, 2), "'t_ab'", [(2,)]),
    ("SELECT id FROM {t} WHERE id = ? AND a = ? AND b = ?", (2, 1, 2),
     "'<pk>', 't_ab'", [(2,)]),
    ("SELECT id FROM {t} WHERE id = ? AND a = ? AND b = ?", (None, 1, 2),
     "'<pk>', 't_ab'", []),
    ("SELECT id FROM {t} WHERE id = ? AND a = ? AND b = ?", ("2", 1, 2),
     "'<pk>', 't_ab'", SqlTypeError),
    ("SELECT id FROM {t} WHERE id IN (?, ?) AND id = ?", (1, 2, None),
     "'<pk>'", []),
    ("SELECT id FROM {t} WHERE id IN (?, ?) AND id = ?", (1, 2, 2),
     "'<pk>'", [(2,)]),
    # A lone conjunct left over is classified as an AND operand: a
    # number counts as TRUE there, text raises.
    ("SELECT id FROM {t} WHERE id = ? AND a", (2,), "'<pk>'", [(2,)]),
    ("SELECT id FROM {t} WHERE id = ? AND s", (2,), "'<pk>'", SqlTypeError),
    ("SELECT id FROM {t} WHERE id = ? AND (a = 2 OR s = 'y')", (2,),
     "'<pk>'", [(2,)]),
])
def test_the_conjuncts_a_probe_did_not_key_on_are_checked(sql, params, path,
                                                          expected):
    assert _agree(sql, params, path) == expected


@pytest.mark.parametrize("sql, params, chunk_steps", [
    ("SELECT id FROM t WHERE id = ?", (2,), 2),
    ("SELECT id FROM t WHERE id = ?", (9,), 0),
    ("SELECT id FROM t WHERE id = ?", (None,), 1),
    ("SELECT id FROM t WHERE id = ? AND s = ?", (2, "y"), 2),
    ("SELECT id FROM t WHERE id = ? AND s = ?", (2, "x"), 1),
    ("SELECT id FROM t WHERE id = ? AND s = ?", (9, "x"), 0),
])
def test_a_point_read_counts_its_chunk_on_both_lines(sql, params,
                                                     chunk_steps):
    """A chunk counts once for the scan line and, when a row survives,
    once for the Filter line — whether or not a residual is left to run."""
    before = DB.executor.batches_executed
    DB.execute(sql, params)
    assert DB.executor.batches_executed - before == chunk_steps


def _analyze_rows(db, sql, params):
    _, *lines = db.explain(sql, params, analyze=True).splitlines()
    return [(line.split()[0], line.split("actual [rows=")[1].split(",")[0])
            for line in lines]


@pytest.mark.parametrize("params, rows", [
    ((2, "y"), ["1", "1", "1"]), ((2, "x"), ["0", "0", "1"]),
    ((9, "x"), ["0", "0", "0"]),
])
def test_explain_analyze_counts_the_rows_the_residual_keeps(params, rows):
    """The IndexLookup line counts what the probe found, the Filter line
    what the whole WHERE keeps — as before the probe decided ``id = ?``."""
    analyzed = _analyze_rows(DB, "SELECT id FROM t WHERE id = ? AND s = ?",
                             params)
    assert analyzed == list(zip(["Project", "Filter", "IndexLookup"], rows))
