"""The engine is type-closed over its SELECT shapes: whatever the statement
and whatever the parameters, what comes back is a well-formed result or
one of the engine's own errors (:class:`SqlError` and its subclasses) —
never a builtin ``TypeError`` / ``IndexError`` / ``OverflowError`` from
inside it.

Generated SELECTs over one small table put aggregates beside ``*`` and
``t.*``, arithmetic of a column and ``?``, and DISTINCT / GROUP BY /
ORDER BY / LIMIT over columns and ``?``, under a WHERE of equalities on
the primary key and on an indexed column; the parameters are ints (one no
float can hold, one a float rounds), floats (NaN and ±inf among them),
bools, text, NULL, a list and a dict.  Each statement runs over an empty
table and over a table with rows (several bugs here answered differently
by data: a malformed row over no rows, an error over some).  A result row
has exactly one value per column.  An index answers what a scan does: the
same statement over a twin table with no index and no primary key gives
the same rows, or an error of the same type — and so does a range WHERE
(``<``, ``<=``, ``>``, ``>=``, BETWEEN, with and without an equality
prefix) through an ordered index, with bounds NaN, ±inf, ``2**53 + 1``,
text and TRUE among them.  Where the value domain is SQLite's too —
integers, a few finite floats, NULL; no ``/`` or ``%``, no text beside a
number, no ``*`` beside an aggregate — the answers are SQLite's.  The
pinned shapes run with the result cache on and off.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.result_cache import DEFAULT_RESULT_CACHE_LIMIT

from sqlite_reference import assert_matches_sqlite, sqlite_copy

ROWS = ((1, 10, "a"), (2, None, "b"), (3, 10, None), (4, 7, "a"))
MORE_ROWS = ROWS + tuple((i, i * 7 % 5 or None, "abc"[i % 3])
                         for i in range(5, 13))

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
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, f TEXT)")
    db.execute("CREATE INDEX t_v ON t (v)")
    db.execute("CREATE TABLE twin (id INT, v INT, f TEXT)")
    for table in ("t", "twin"):
        for row in rows:
            db.execute(f"INSERT INTO {table} (id, v, f) VALUES (?, ?, ?)",
                       row)
    return db


# SELECTs never write: one pair of databases serves every example.
DATABASES = {len(rows): _backend(rows) for rows in ((), ROWS, MORE_ROWS)}
LITES = {size: sqlite_copy(db, ["t"]) for size, db in DATABASES.items()}


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
    """The rows, NaN spelled as a string so that two NaNs compare equal,
    or the error type."""
    try:
        rows = db.execute(sql, params).rows
    except SqlError as error:
        return type(error)
    return [tuple("NaN" if value != value else value for value in row)
            for row in rows]


@settings(max_examples=300, deadline=None)
@given(statement=selects())
def test_an_index_answers_what_the_unindexed_twin_answers(statement):
    sql, params = statement
    twin = sql.replace(" FROM t", " FROM twin t", 1)
    for key, db in DATABASES.items():
        assert _answer(db, sql, params) == _answer(db, twin, params), (
            key, sql, params)


SHARED_PARAMS = st.one_of(st.integers(-3, 12), st.none(),
                          st.sampled_from([0.5, -1.5, 2.0, 2**53 + 1]))
SHARED_ITEMS = ("v", "f", "?", "v + ?", "v * ?", "? + v", "v - 2")
SHARED_AGGREGATES = ("COUNT(*)", "SUM(v)", "AVG(v)", "MAX(f)", "MIN(v)",
                     "COUNT(DISTINCT v)", "COUNT(f)", "MIN(?)", "SUM(?)")
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
    the leading ``v`` or by nothing; a refused one (``order`` None) is
    compared whole, were it answered.  LIMIT follows a total order."""
    where = draw(st.sampled_from(WHERE + (" WHERE v > ?",
                                          " WHERE v BETWEEN ? AND ?")))
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
        (f"SELECT v, {aggregates} FROM t{where} GROUP BY v",
         f"1{' DESC' * desc}", [(0, desc)]),
        (f"SELECT {aggregates}, {draw(st.sampled_from(['*', 't.*']))} "
         f"FROM t{where}", None, None),
        ("SELECT DISTINCT v FROM t",
         draw(st.sampled_from(["f", "f DESC", "id DESC"])), None),
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


@pytest.mark.parametrize("where", [" WHERE id = ?", " WHERE v = ?",
                                   " WHERE v = ? AND id = 2"])
def test_a_nan_key_is_answered_by_the_scan(where):
    """The interpreter's ``<`` / ``>`` probes find NaN equal to every
    number, which no lookup can find: a NaN key disqualifies the index
    and the scan answers (the property found the primary key returning no
    row for ``id = NaN`` where the unindexed twin returned all four)."""
    db = DATABASES[len(ROWS)]
    sql = "SELECT id FROM t" + where
    twin = sql.replace(" FROM t", " FROM twin t", 1)
    rows = db.execute(sql, (float("nan"),)).rows
    assert rows == db.execute(twin, (float("nan"),)).rows
    assert rows == {" WHERE id = ?": [(1,), (2,), (3,), (4,)],
                    " WHERE v = ?": [(1,), (3,), (4,)],
                    " WHERE v = ? AND id = 2": []}[where]


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
    (float("nan"), [(1,), (2,), (3,)]), (2.0, [(3,)]),
    ("1", SqlTypeError), (True, SqlTypeError)])
@pytest.mark.parametrize("sql", [
    "SELECT id FROM {t} WHERE grp = ? ORDER BY id",
    "SELECT id FROM {t} WHERE grp IN (?, 4) ORDER BY id",
    "UPDATE {t} SET val = val + 1 WHERE grp = ?",
    "DELETE FROM {t} WHERE grp = ? AND val < 0",
])
def test_a_key_of_another_type_is_compared_with_every_row(key, selected,
                                                          sql):
    """A key is compared with every row whichever path finds it: NaN
    equals every number, ``2.0`` the ``2`` stored as an int, and text and
    TRUE raise wherever a row is — through a hash index, an ordered index
    or a scan."""
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

NAN = float("nan")
# ``f`` stores a NaN between other keys (bisect puts it where it lands);
# the second row set holds none, so a walk over ``f`` decides its bounds.
# No statement orders by ``f``: with NaN equal to every number no order
# is total, and sorting before or after the WHERE can differ (ROADMAP).
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
    and a NaN or incomparable bound, or a NaN key, makes it scan instead."""
    sql, params = statement
    twin = sql.replace(" FROM r", " FROM rtwin r", 1)
    for key, db in RANGE_DATABASES.items():
        if key != "empty":
            assert "IndexRangeScan" in db.explain(sql), sql
        assert _range_answer(db, sql, params) == _range_answer(
            db, twin, params), (key, sql, params)


@pytest.mark.parametrize("sql, params, expected", [
    ("SELECT id FROM {r} WHERE v <= ?", (float("nan"),),
     [(1,), (3,), (4,), (5,), (6,)]),
    ("SELECT id FROM {r} WHERE v BETWEEN 5 AND ?", (float("nan"),),
     [(1,), (3,), (4,)]),
    ("SELECT id FROM {r} WHERE a = ? AND v > 0 ORDER BY v",
     (float("nan"),), [(4,), (1,), (3,)]),
    ("SELECT id FROM {r} WHERE v > ? AND v < 5", (2**53 + 1,), []),
    # What the walk did not key on or bound by stays to re-check.
    ("SELECT id FROM {r} WHERE a = ? AND v >= ? AND a = 2", (1, 0), []),
    ("SELECT id FROM {r} WHERE v > ? AND v >= 3", (8,), [(1,), (3,)]),
    ("SELECT id FROM {r} WHERE v < ? AND a = 9", ("7",), SqlTypeError),
    ("UPDATE {r} SET a = a WHERE v <= ?", (float("nan"),), 5),
    ("UPDATE {r} SET a = a WHERE v < ? AND a = 9", ("a",), SqlTypeError),
    # A NaN key in ``r_f``: no walk, a scan the zone maps do not prune.
    ("SELECT id FROM {r} WHERE f > ?", (-3,), [(1,), (3,), (4,), (6,)]),
    ("SELECT id FROM {r} WHERE f BETWEEN ? AND 6", (2,), [(2,), (3,)]),
    ("SELECT id FROM {r} WHERE f <= ?", (0.5,), [(2,), (6,)]),
    ("SELECT id FROM {r} ORDER BY f DESC", (),
     [(2,), (4,), (3,), (1,), (6,), (5,)]),
    ("UPDATE {r} SET a = a WHERE f <= ?", (0.5,), 2),
])
def test_a_walk_is_answered_by_the_scan(sql, params, expected, cache_size):
    """The walk found no row for ``v <= NaN`` (the interpreter's ``<`` /
    ``>`` probes find NaN equal to every number) and none for an
    incomparable bound beside an equality prefix no row has, where the
    scan raises: a NaN or incomparable bound disqualifies the walk, and
    the SELECT scans in key order — the elided ORDER BY's — while UPDATE /
    DELETE scan.  A stored NaN, which bisect left wherever it landed, made
    the walk answer ``f > -3`` with it once the bound went unchecked and
    miss ``5.0`` under ``f BETWEEN 2 AND 6``; a zone map whose ``min``
    skipped it pruned its chunk under ``f <= 0.5``.  An index holding a
    NaN key is not walked."""
    db = _range_backend(RANGE_ROWS, cache_size)
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
