"""SQLite (stdlib, shares no code with this engine) as the reference.

:func:`assert_matches_sqlite` runs one SELECT, with the same parameters,
on a :class:`Database` and on :func:`sqlite_copy` of its tables, and
compares the answers as sequences when ``total`` says the ORDER BY key is
total, else as multisets (bags) whose adjacent rows respect ``order`` —
``(output position, descending)`` pairs, NULLs first ascending and last
descending on both.  A ``bool`` compares as the ``int`` SQLite stores.
Callers keep the dialect gaps (ARCHITECTURE.md, "Dialect") out of what
they generate.
"""

import sqlite3
from collections import Counter


def sqlite_copy(db, tables=None):
    """An in-memory SQLite database holding ``db``'s tables (or those
    named), rows in scan order, columns under their declared types."""
    lite = sqlite3.connect(":memory:")
    for name in tables or sorted(db.tables):
        table = db.tables_get(name)
        columns = table.schema.columns
        lite.execute(f"CREATE TABLE {name} ("
                     + ", ".join(f"{c.name} {c.type_name}" for c in columns)
                     + ")")
        lite.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            [row for _, row in table.scan()])
    return lite


def normalized(rows):
    return [tuple(int(v) if type(v) is bool else v for v in row)
            for row in rows]


def in_order(rows, order):
    """Whether every adjacent pair of ``rows`` respects ``order``."""
    def before(a, b):
        for pos, descending in order:
            x, y = a[pos], b[pos]
            if x != y:
                if x is None or y is None:
                    return (x is None) != descending
                return (x > y) if descending else (x < y)
        return True

    return all(before(a, b) for a, b in zip(rows, rows[1:]))


def sqlite_rows(lite, sql, params=()):
    """``(column count, normalized rows)`` of ``sql`` on SQLite."""
    cursor = lite.execute(sql, params)
    return len(cursor.description), normalized(cursor.fetchall())


def assert_matches_sqlite(db, sql, params=(), order=(), total=False,
                          lite=None):
    """``db``'s answer to ``sql`` is SQLite's (see the module docstring);
    SQLite reads ``lite``, else a fresh copy of ``db``.  Returns the
    :class:`ExecResult`."""
    width, expected = sqlite_rows(lite or sqlite_copy(db), sql, params)
    result = db.execute(sql, params)
    got = normalized(result.rows)
    assert len(result.columns) == width, sql
    if total:
        assert got == expected, sql
    else:
        assert Counter(got) == Counter(expected), sql
        assert in_order(got, order), sql
    return result
