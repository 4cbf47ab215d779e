"""The engine is type-closed over its SELECT shapes: whatever the statement
and whatever the parameters, what comes back is a well-formed result or
one of the engine's own errors (:class:`SqlError` and its subclasses) —
never a builtin ``TypeError`` / ``IndexError`` / ``OverflowError`` from
inside it.

Generated SELECTs over one small table put aggregates beside ``*`` and
``t.*``, arithmetic of a column and ``?``, and DISTINCT / GROUP BY /
ORDER BY / LIMIT over columns and ``?``, under a WHERE of equalities on
the primary key and on an indexed column; the parameters are ints (one no
float can hold, one a float rounds), floats (NaN, which binds as NULL,
and ±inf among them), bools, text, NULL, a list and a dict.  Each
statement runs over an empty table and over a table with rows (several
bugs here answered differently by data: a malformed row over no rows, an
error over some).  A result row
has exactly one value per column.  An index answers what a scan does: the
same statement over a twin table with no index and no primary key gives
the same rows, or an error of the same type — and so does a range WHERE
(``<``, ``<=``, ``>``, ``>=``, BETWEEN, with and without an equality
prefix) through an ordered index, with bounds NaN, ±inf, ``2**53 + 1``,
text and TRUE among them.  Where the value domain is SQLite's too —
integers, a few finite floats, NaN bound and stored, NULL, ``%``, LIKE and
exponent literals; no ``/``, no text beside a number, no ``*`` beside an
aggregate — the answers are SQLite's, which reads the rows through its own
binding.  The pinned shapes run with the result cache on and off.
"""

import math
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import Database
from repro.sqldb.errors import ConstraintError, SqlError, SqlTypeError
from repro.sqldb.result_cache import DEFAULT_RESULT_CACHE_LIMIT

from sqlite_reference import assert_matches_sqlite

NAN = math.nan
# ``x`` is bound a NaN (row 2, and row 9 of the larger set): it stores NULL.
ROWS = ((1, 10, "a", 1.5), (2, None, "b", NAN), (3, 10, None, -2.0),
        (4, 7, "a", None))
MORE_ROWS = ROWS + tuple((i, i * 7 % 5 or None, "abc"[i % 3],
                          NAN if i == 9 else i / 4) for i in range(5, 13))

ITEMS = ("*", "t.*", "id", "v", "f", "?", "COUNT(*)", "SUM(v)", "AVG(v)",
         "MAX(f)", "COUNT(DISTINCT v)", "COUNT(DISTINCT ?)", "MIN(?)",
         "SUM(?)", "AVG(?)", "v + ?", "v * ?", "? + v", "v / ?", "v % ?")
WHERE = ("", " WHERE id = ?", " WHERE v = ?", " WHERE id = ? AND v = ?",
         " WHERE id = ? AND id = ?")
GROUP_BY = ("", " GROUP BY id", " GROUP BY f", " GROUP BY ?",
            " GROUP BY v, ?")
ORDER_BY = ("", " ORDER BY 1", " ORDER BY v", " ORDER BY f DESC",
            " ORDER BY ?", " ORDER BY 2 DESC, 1")
LIMIT = ("", " LIMIT 2", " LIMIT ?", " LIMIT ? OFFSET ?")

PARAMS = st.one_of(st.integers(-3, 3), st.sampled_from([10**400, 2**53 + 1]),
                   st.floats(), st.booleans(),
                   st.sampled_from(["a", "", "10"]), st.none(), st.just([1]),
                   st.just({"k": 1}))


def _backend(rows, result_cache_size=DEFAULT_RESULT_CACHE_LIMIT):
    db = Database(result_cache_size=result_cache_size)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, f TEXT, x REAL)")
    db.execute("CREATE INDEX t_v ON t (v)")
    db.execute("CREATE TABLE twin (id INT, v INT, f TEXT, x REAL)")
    for table in ("t", "twin"):
        for row in rows:
            db.execute(f"INSERT INTO {table} (id, v, f, x) "
                       "VALUES (?, ?, ?, ?)", row)
    return db


def _lite(rows):
    """SQLite holding ``rows`` as ``t``, bound through its own driver."""
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id INT, v INT, f TEXT, x REAL)")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    return lite


# SELECTs never write: one pair of databases serves every example.
DATABASES = {len(rows): _backend(rows) for rows in ((), ROWS, MORE_ROWS)}
LITES = {len(rows): _lite(rows) for rows in ((), ROWS, MORE_ROWS)}


@st.composite
def selects(draw):
    items = draw(st.lists(st.sampled_from(ITEMS), min_size=1, max_size=3))
    sql = ("SELECT " + ("DISTINCT " if draw(st.booleans()) else "")
           + ", ".join(items) + " FROM t" + draw(st.sampled_from(WHERE))
           + draw(st.sampled_from(GROUP_BY))
           + draw(st.sampled_from(ORDER_BY)) + draw(st.sampled_from(LIMIT)))
    params = draw(st.lists(PARAMS, min_size=sql.count("?"),
                           max_size=sql.count("?")))
    return sql, tuple(params)


def _outcome(db, sql, params):
    try:
        result = db.execute(sql, params)
    except SqlError as error:
        return type(error)
    for row in result.rows:
        assert len(row) == len(result.columns), (sql, params, result.rows)
    return None


@settings(max_examples=300, deadline=None)
@given(statement=selects())
def test_only_the_engines_own_errors_escape(statement):
    sql, params = statement
    for db in DATABASES.values():
        _outcome(db, sql, params)  # anything but SqlError fails here


def _answer(db, sql, params):
    """The rows, or the error type."""
    try:
        return db.execute(sql, params).rows
    except SqlError as error:
        return type(error)


@settings(max_examples=300, deadline=None)
@given(statement=selects())
def test_an_index_answers_what_the_unindexed_twin_answers(statement):
    sql, params = statement
    twin = sql.replace(" FROM t", " FROM twin t", 1)
    for key, db in DATABASES.items():
        assert _answer(db, sql, params) == _answer(db, twin, params), (
            key, sql, params)


SHARED_PARAMS = st.one_of(st.integers(-3, 12), st.none(),
                          st.sampled_from([0.5, -1.5, 2.0, 2**53 + 1, NAN]))
SHARED_ITEMS = ("v", "f", "x", "?", "v + ?", "v * ?", "? + v", "v - 2",
                "v % ?", "? % v", "x % 2", "-v % 3", "x * 1e1",
                "v + 2.5E-1", "f LIKE 'A'", "f LIKE '_'", "f LIKE 'B%'")
SHARED_AGGREGATES = ("COUNT(*)", "SUM(v)", "AVG(v)", "MAX(f)", "MIN(v)",
                     "MAX(v)", "COUNT(DISTINCT v)", "COUNT(f)", "MIN(?)",
                     "SUM(?)", "COUNT(*) + 1", "SUM(v) * 2", "SUM(x)",
                     "COUNT(x)", "MAX(v % 4)")
SHARED_HAVING = ("", " HAVING COUNT(*) > ?", " HAVING SUM(v) > ?")
#: What this engine refuses when the plan is built and SQLite answers: a
#: ``*`` beside an aggregate, and an ORDER BY key over the source row
#: above a DISTINCT or an aggregate (which source row's value would it
#: be?).
REFUSALS = ("'*' cannot be selected in an aggregate query",
            "for SELECT DISTINCT, ORDER BY expressions must appear in the "
            "select list",
            "ORDER BY in aggregate queries must reference output columns")


@st.composite
def shared_selects(draw):
    """``(sql, params, order, total)`` in the value domain SQLite shares.
    A plain SELECT leads with the unique ``id``, so an ORDER BY ending in
    it is total (a constant key may lead it); an aggregate one groups by
    the leading ``v`` (under a HAVING or not) or by nothing; a refused one
    (``order`` None) is compared whole, were it answered.  LIMIT follows a
    total order."""
    where = draw(st.sampled_from(WHERE + (
        " WHERE v > ?", " WHERE v BETWEEN ? AND ?", " WHERE x = ?",
        " WHERE x < ?", " WHERE f LIKE 'A%'", " WHERE v >= 7e0")))
    items = ["id"] + draw(st.lists(st.sampled_from(SHARED_ITEMS),
                                   max_size=2))
    aggregates = ", ".join(draw(st.lists(st.sampled_from(SHARED_AGGREGATES),
                                         min_size=1, max_size=3)))
    desc = draw(st.booleans())
    keys = [(0, desc)] if len(items) == 1 else [(1, desc), (0, False)]
    ordered = (draw(st.sampled_from(["", "TRUE, ", "FALSE, "]))
               + ", ".join(f"{pos + 1}{' DESC' * d}" for pos, d in keys))
    distinct = "DISTINCT " * draw(st.booleans())
    sql, by, order = draw(st.sampled_from([
        (f"SELECT {distinct}{', '.join(items)} FROM t{where}", None, ()),
        (f"SELECT {distinct}{', '.join(items)} FROM t{where}", ordered,
         keys),
        (f"SELECT {aggregates} FROM t{where}", None, ()),
        (f"SELECT v, {aggregates} FROM t{where} GROUP BY v"
         f"{draw(st.sampled_from(SHARED_HAVING))}",
         f"{draw(st.sampled_from(['1', 'v', 't.v']))}{' DESC' * desc}",
         [(0, desc)]),
        (f"SELECT {aggregates}, {draw(st.sampled_from(['*', 't.*']))} "
         f"FROM t{where}", None, None),
        ("SELECT DISTINCT v FROM t",
         draw(st.sampled_from(["f", "f DESC", "id DESC"])), None),
        ("SELECT DISTINCT v FROM t", f"t.v{' DESC' * desc}", [(0, desc)]),
        (f"SELECT v, COUNT(*) FROM t{where} GROUP BY v",
         draw(st.sampled_from(["f", "id DESC"])), None)]))
    total = order is None or bool(order)
    if by is not None:
        sql += " ORDER BY " + by + draw(st.sampled_from(
            ("", " LIMIT 2", " LIMIT 1 OFFSET 1")))
    params = draw(st.lists(SHARED_PARAMS, min_size=sql.count("?"),
                           max_size=sql.count("?")))
    return sql, tuple(params), order or (), total


@settings(max_examples=300, deadline=None)
@given(statement=shared_selects())
def test_the_shared_value_domain_answers_what_sqlite_answers(statement):
    """Rows as SQLite answers them, or one of :data:`REFUSALS` when the
    plan is built."""
    sql, params, order, total = statement
    for size, db in DATABASES.items():
        try:
            db.explain(sql)
        except SqlError as error:
            assert str(error) in REFUSALS, sql
            continue
        assert_matches_sqlite(db, sql, params, order, total=total,
                              lite=LITES[size])


# -- the two shapes the property found, pinned ------------------------------

@pytest.mark.parametrize("rows", [(), ROWS], ids=["empty", "rows"])
@pytest.mark.parametrize("sql", [
    "SELECT SUM(v), * FROM t",
    "SELECT SUM(v), t.* FROM t",
    "SELECT SUM(v), * FROM t ORDER BY f",
    "SELECT COUNT(*), * FROM t GROUP BY id",
    "SELECT *, COUNT(*) FROM t GROUP BY id",
])
def test_a_star_beside_an_aggregate_is_refused_when_planned(rows, sql,
                                                            cache_size):
    db = _backend(rows, cache_size)
    with pytest.raises(SqlError, match="'\\*' cannot be selected"):
        db.execute(sql)
    with pytest.raises(SqlError, match="'\\*' cannot be selected"):
        db.explain(sql)  # at build time: no row is read


@pytest.mark.parametrize("sql, params, clause", [
    ("SELECT DISTINCT ? FROM t", ([1],), "DISTINCT"),
    ("SELECT DISTINCT ? FROM t ORDER BY 1", ({"k": 1},), "DISTINCT"),
    ("SELECT ?, COUNT(*) FROM t GROUP BY ?", ([1], [1]), "GROUP BY"),
    ("SELECT COUNT(DISTINCT ?) FROM t", ([1],), "COUNT DISTINCT"),
    ("SELECT SUM(DISTINCT ?) FROM t GROUP BY f", ({},), "SUM DISTINCT"),
])
def test_an_unhashable_parameter_is_a_type_error_where_it_is_hashed(
        sql, params, clause, cache_size):
    with pytest.raises(SqlTypeError, match=f"cannot compare {clause} values"):
        _backend(ROWS, cache_size).execute(sql, params)
    _backend((), cache_size).execute(sql, params)  # no rows: nothing hashed


@pytest.mark.parametrize("index", [None, "", " USING ORDERED"],
                         ids=["scan", "hash", "ordered"])
@pytest.mark.parametrize("sql, params, expected", [
    ("SELECT id FROM n WHERE f = 5.0", (), [(2,)]),
    ("SELECT id FROM n WHERE f = ?", (NAN,), []),
    ("SELECT id FROM n WHERE f <= ?", (NAN,), []),
    ("SELECT id FROM n WHERE f IS NULL", (), [(1,), (4,)]),
    ("SELECT id, f FROM n WHERE f > 1 ORDER BY f DESC", (),
     [(3, 7.0), (2, 5.0)]),
    ("SELECT f FROM n WHERE id = ?", (1,), [(None,)]),
])
def test_a_nan_is_null_wherever_it_enters(index, sql, params, expected):
    """SQLite's rule: a NaN bound as a parameter, or stored in a REAL
    column (bound, or computed by the INSERT), is NULL.  Over ``(1, NaN),
    (2, 5.0), (3, 7.0)`` a scan once answered ``f = 5.0`` with ids 1 and 2
    and an index with 2, and ``f = NaN`` every row."""
    db = Database()
    db.execute("CREATE TABLE n (id INT PRIMARY KEY, f REAL)")
    if index is not None:
        db.execute(f"CREATE INDEX n_f ON n (f){index}")
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE n (id INT, f REAL)")
    for target in (db, lite):
        target.execute("INSERT INTO n VALUES (?, ?), (?, ?), (?, ?)",
                       (1, NAN, 2, 5.0, 3, 7.0))
        target.execute("INSERT INTO n VALUES (4, 1e999 - 1e999)")
    assert db.execute(sql, params).rows == expected
    assert lite.execute(sql, params).fetchall() == expected


def test_a_not_null_real_column_refuses_a_nan():
    db = Database()
    db.execute("CREATE TABLE n (id INT PRIMARY KEY, f REAL NOT NULL)")
    db.execute("INSERT INTO n VALUES (1, 2.5)")
    for sql, params in (("INSERT INTO n VALUES (2, ?)", (NAN,)),
                        ("INSERT INTO n VALUES (2, 1e999 - 1e999)", ()),
                        ("UPDATE n SET f = f * ? - f * ?",
                         (float("inf"), float("inf")))):
        with pytest.raises(ConstraintError, match="NOT NULL"):
            db.execute(sql, params)
    assert db.execute("SELECT id, f FROM n").rows == [(1, 2.5)]


def _keyed_tables():
    """Three copies of the same rows: keyed through a hash index, through
    an ordered index, and unindexed."""
    db = Database()
    for table, index in (("h", ""), ("o", " USING ORDERED"), ("u", None)):
        db.execute(f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, "
                   "grp INT, val INT)")
        if index is not None:
            db.execute(f"CREATE INDEX {table}_grp ON {table} (grp){index}")
        db.execute(f"INSERT INTO {table} (id, grp, val) VALUES (1, 0, 1), "
                   "(2, 4, 2), (3, 2, 3)")
    return db


@pytest.mark.parametrize("key, selected", [
    (NAN, []), (2.0, [(3,)]), ("1", SqlTypeError), (True, SqlTypeError)])
@pytest.mark.parametrize("sql", [
    "SELECT id FROM {t} WHERE grp = ? ORDER BY id",
    "SELECT id FROM {t} WHERE grp IN (?, 4) ORDER BY id",
    "UPDATE {t} SET val = val + 1 WHERE grp = ?",
    "DELETE FROM {t} WHERE grp = ? AND val < 0",
])
def test_a_key_of_another_type_is_compared_with_every_row(key, selected,
                                                          sql):
    """A key is compared with every row whichever path finds it: NaN
    binds as NULL and equals no row, ``2.0`` equals the ``2`` stored as an
    int, and text and TRUE raise wherever a row is — through a hash index,
    an ordered index or a scan."""
    outcomes = []
    db = _keyed_tables()
    for table in ("h", "o", "u"):
        try:
            result = db.execute(sql.format(t=table), (key,))
        except SqlError as error:
            outcomes.append(type(error))
        else:
            outcomes.append(result.rows if sql.startswith("SELECT")
                            else result.rowcount)
    assert outcomes == outcomes[:1] * len(outcomes)
    if "grp = ? ORDER BY" in sql:
        assert outcomes[0] == selected


@pytest.mark.parametrize("index", ["", " USING ORDERED"],
                         ids=["hash", "ordered"])
@pytest.mark.parametrize("key", [1.0, 2.0, 3.0, 4.0, 5.0])
def test_an_integral_float_key_is_stored_as_the_int(index, key):
    """An INTEGER column stores ``2.0`` as ``2``: the index keys the row
    by the int, so every later statement keyed on ``2`` (or on ``2.0``)
    finds it, and an UPDATE writing ``2.0`` over ``2`` leaves it there."""
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INTEGER, v INT)")
    db.execute(f"CREATE INDEX t_grp ON t (grp){index}")
    db.execute("INSERT INTO t (id, grp, v) VALUES (?, ?, ?)", (1, key, 5))
    stored = (int(key),)
    rows = db.execute("SELECT id, grp FROM t WHERE grp = ?", stored).rows
    assert rows == [(1, int(key))] and type(rows[0][1]) is int
    assert db.execute("SELECT id FROM t WHERE grp = ?", (key,)).rows == [
        (1,)]
    assert db.execute("UPDATE t SET v = v + 1 WHERE grp = ?",
                      stored).rowcount == 1
    assert db.execute("SELECT v FROM t WHERE id = 1").rows == [(6,)]
    assert db.execute("UPDATE t SET grp = ? WHERE grp = ?",
                      (key, *stored)).rowcount == 1
    assert db.execute("SELECT id FROM t WHERE grp = ?", stored).rows == [
        (1,)]
    assert db.execute("DELETE FROM t WHERE grp = ?", stored).rowcount == 1
    assert db.table_size("t") == 0


# -- range WHEREs through an ordered index ----------------------------------

# ``f`` is bound a NaN, which it stores as NULL; the second row set holds
# a number there instead.
RANGE_ROWS = ((1, 1, 10, 1.0), (2, 1, None, NAN), (3, 2, 10, 5.0),
              (4, 1, 7, 9.0), (5, None, 3, None), (6, 2, -2, -2.5))
CLEAN_ROWS = RANGE_ROWS[:1] + ((2, 1, None, 2.5),) + RANGE_ROWS[2:]
# The last three on ``v`` leave the residual an equality or a bound the
# walk did not use (the first equality keys the prefix; a literal bound
# beats a parameter).
RANGE_WHERE = (" WHERE v < ?", " WHERE v <= ?", " WHERE ? < v",
               " WHERE v >= ?", " WHERE v > ? AND v <= ?",
               " WHERE v BETWEEN ? AND ?", " WHERE a = ? AND v >= ?",
               " WHERE a = ? AND v < ?", " WHERE a = ? AND v BETWEEN ? AND ?",
               " WHERE a = ? AND v >= ? AND a = 1", " WHERE v > ? AND v >= 3",
               " WHERE v < ? AND v BETWEEN 0 AND 9", " WHERE f > ?",
               " WHERE f <= ?", " WHERE ? > f", " WHERE f BETWEEN ? AND ?",
               " WHERE f >= ? AND f < ?")
BOUNDS = st.one_of(st.integers(-3, 12), st.floats(), st.none(),
                   st.sampled_from([NAN, float("inf"), float("-inf"),
                                    2**53 + 1, 7.5, "7", "", True]))


def _range_backend(rows, result_cache_size=DEFAULT_RESULT_CACHE_LIMIT):
    db = Database(result_cache_size=result_cache_size)
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, a INT, v INT, f REAL)")
    db.execute("CREATE INDEX r_v ON r (v) USING ORDERED")
    db.execute("CREATE INDEX r_av ON r (a, v) USING ORDERED")
    db.execute("CREATE INDEX r_f ON r (f) USING ORDERED")
    db.execute("CREATE TABLE rtwin (id INT, a INT, v INT, f REAL)")
    for table in ("r", "rtwin"):
        for row in rows:
            db.execute(f"INSERT INTO {table} VALUES (?, ?, ?, ?)", row)
    return db


RANGE_DATABASES = {name: _range_backend(rows)
                   for name, rows in (("empty", ()), ("nan", RANGE_ROWS),
                                      ("clean", CLEAN_ROWS))}


@st.composite
def range_selects(draw):
    sql = ("SELECT id, v, f FROM r" + draw(st.sampled_from(RANGE_WHERE))
           + draw(st.sampled_from(("", " ORDER BY v", " ORDER BY v DESC"))))
    return sql, tuple(draw(st.lists(BOUNDS, min_size=sql.count("?"),
                                    max_size=sql.count("?"))))


def _range_answer(db, sql, params):
    answer = _answer(db, sql, params)
    if "ORDER BY" in sql or not isinstance(answer, list):
        return answer  # ties in row-id order on both tables
    return sorted(answer, key=repr)


@settings(max_examples=300, deadline=None)
@given(statement=range_selects())
def test_an_ordered_walk_answers_what_the_unindexed_twin_answers(statement):
    """A range WHERE, with and without an equality prefix, through an
    ordered index: the walk decides its bounds and re-checks the rest,
    and an incomparable bound makes it scan instead."""
    sql, params = statement
    twin = sql.replace(" FROM r", " FROM rtwin r", 1)
    for key, db in RANGE_DATABASES.items():
        if key != "empty":
            assert "IndexRangeScan" in db.explain(sql), sql
        assert _range_answer(db, sql, params) == _range_answer(
            db, twin, params), (key, sql, params)


@pytest.mark.parametrize("sql, params, expected", [
    ("SELECT id FROM {r} WHERE v <= ?", (NAN,), []),
    ("SELECT id FROM {r} WHERE v BETWEEN 5 AND ?", (NAN,), []),
    ("SELECT id FROM {r} WHERE a = ? AND v > 0 ORDER BY v", (NAN,), []),
    ("SELECT id FROM {r} WHERE v > ? AND v < 5", (2**53 + 1,), []),
    # What the walk did not key on or bound by stays to re-check.
    ("SELECT id FROM {r} WHERE a = ? AND v >= ? AND a = 2", (1, 0), []),
    ("SELECT id FROM {r} WHERE v > ? AND v >= 3", (8,), [(1,), (3,)]),
    # A bound the column cannot compare: a scan, in no order.
    ("SELECT id FROM {r} WHERE v < ? AND a = 9", ("7",), SqlTypeError),
    ("SELECT id FROM {r} WHERE a = ? AND v > 0 ORDER BY v DESC", ("1",),
     SqlTypeError),
    ("UPDATE {r} SET a = a WHERE v <= ?", (NAN,), 0),
    ("UPDATE {r} SET a = a WHERE v < ? AND a = 9", ("a",), SqlTypeError),
    # The NaN ``f`` was bound is NULL: ``r_f`` is walked, zones prune.
    ("SELECT id FROM {r} WHERE f > ?", (-3,), [(1,), (3,), (4,), (6,)]),
    ("SELECT id FROM {r} WHERE f BETWEEN ? AND 6", (2,), [(3,)]),
    ("SELECT id FROM {r} WHERE f <= ?", (0.5,), [(6,)]),
    ("SELECT id FROM {r} ORDER BY f DESC", (),
     [(4,), (3,), (1,), (6,), (2,), (5,)]),
    ("UPDATE {r} SET a = a WHERE f <= ?", (0.5,), 1),
])
def test_a_walk_is_answered_by_the_scan(sql, params, expected, cache_size):
    """A NaN bound is NULL, so ``v <= NaN`` keeps no row, and a NaN bound
    in a REAL column is a NULL key, so the index over it is walked.  A
    bound its column cannot compare is walked by no index: the SELECT
    scans under the whole WHERE — in no order, since that conjunct raises
    on the first row that reaches it or the WHERE keeps no row — and an
    UPDATE / DELETE scans.  SQLite answers the same, where it shares the
    value domain (text beside a number is a dialect gap)."""
    db = _range_backend(RANGE_ROWS, cache_size)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE r (id INT, a INT, v INT, f REAL)")
    lite.executemany("INSERT INTO r VALUES (?, ?, ?, ?)", RANGE_ROWS)
    select = sql.startswith("SELECT")
    outcomes = []
    for table in ("r", "rtwin r" if select else "rtwin"):
        statement = sql.format(r=table)
        if select:
            outcomes.append(_range_answer(db, statement, params))
            continue
        try:
            outcomes.append(db.execute(statement, params).rowcount)
        except SqlError as error:
            outcomes.append(type(error))
    assert outcomes == [expected, expected]
    if isinstance(expected, list):
        assert sorted(lite.execute(sql.format(r="r"), params).fetchall()) \
            == sorted(expected)
    elif isinstance(expected, int):
        assert lite.execute(sql.format(r="r"), params).rowcount == expected
