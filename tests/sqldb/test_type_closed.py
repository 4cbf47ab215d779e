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
bools, text, NULL, a list and a dict.  Each statement runs on both engines and on two hash-partitioned
shards, over an empty table and over a table with rows (several bugs
here answered differently by data: a malformed row over no rows, an
error over some).  A result row has exactly one value per column.  On
one node an index answers what a scan does: the same statement over a
twin table with no index and no primary key gives the same rows, or an
error of the same type.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import Database
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.shard import PartitionSpec, ShardTopology, ShardedDatabase

BACKENDS = ("columnar", "row", "2 shards")
ROWS = ((1, 10, "a"), (2, None, "b"), (3, 10, None), (4, 7, "a"))

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


def _backend(name, rows):
    if name == "2 shards":
        db = ShardedDatabase(ShardTopology(2, {"t": PartitionSpec("id")}))
    else:
        db = Database(engine=name)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, f TEXT)")
    db.execute("CREATE INDEX t_v ON t (v)")
    tables = ("t",) if name == "2 shards" else ("t", "twin")
    if name != "2 shards":
        db.execute("CREATE TABLE twin (id INT, v INT, f TEXT)")
    for table in tables:
        for row in rows:
            db.execute(f"INSERT INTO {table} (id, v, f) VALUES (?, ?, ?)",
                       row)
    return db


# SELECTs never write: one set of backends serves every example.
DATABASES = {(name, len(rows)): _backend(name, rows)
             for name in BACKENDS for rows in ((), ROWS)}


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
        if key[0] != "2 shards":
            assert _answer(db, sql, params) == _answer(db, twin, params), (
                key, sql, params)


# -- the two shapes the property found, pinned ------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rows", [(), ROWS], ids=["empty", "rows"])
@pytest.mark.parametrize("sql", [
    "SELECT SUM(v), * FROM t",
    "SELECT SUM(v), t.* FROM t",
    "SELECT SUM(v), * FROM t ORDER BY f",
    "SELECT COUNT(*), * FROM t GROUP BY id",
    "SELECT *, COUNT(*) FROM t GROUP BY id",
])
def test_a_star_beside_an_aggregate_is_refused_when_planned(backend, rows,
                                                            sql):
    db = DATABASES[backend, len(rows)]
    with pytest.raises(SqlError, match="'\\*' cannot be selected"):
        db.execute(sql)
    with pytest.raises(SqlError, match="'\\*' cannot be selected"):
        db.explain(sql)  # at build time: no row is read


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sql, params, clause", [
    ("SELECT DISTINCT ? FROM t", ([1],), "DISTINCT"),
    ("SELECT DISTINCT ? FROM t ORDER BY 1", ({"k": 1},), "DISTINCT"),
    ("SELECT ?, COUNT(*) FROM t GROUP BY ?", ([1], [1]), "GROUP BY"),
    ("SELECT COUNT(DISTINCT ?) FROM t", ([1],), "COUNT DISTINCT"),
    ("SELECT SUM(DISTINCT ?) FROM t GROUP BY f", ({},), "SUM DISTINCT"),
])
def test_an_unhashable_parameter_is_a_type_error_where_it_is_hashed(
        backend, sql, params, clause):
    db = DATABASES[backend, len(ROWS)]
    with pytest.raises(SqlTypeError, match=f"cannot compare {clause} values"):
        db.execute(sql, params)
    DATABASES[backend, 0].execute(sql, params)  # no rows: nothing hashed


@pytest.mark.parametrize("where", [" WHERE id = ?", " WHERE v = ?",
                                   " WHERE v = ? AND id = 2"])
def test_a_nan_key_is_answered_by_the_scan(where):
    """The interpreter's ``<`` / ``>`` probes find NaN equal to every
    number, which no lookup can find: a NaN key disqualifies the index
    and the scan answers (the property found the primary key returning no
    row for ``id = NaN`` where the unindexed twin returned all four)."""
    db = DATABASES["columnar", len(ROWS)]
    sql = "SELECT id FROM t" + where
    twin = sql.replace(" FROM t", " FROM twin t", 1)
    rows = db.execute(sql, (float("nan"),)).rows
    assert rows == db.execute(twin, (float("nan"),)).rows
    assert rows == {" WHERE id = ?": [(1,), (2,), (3,), (4,)],
                    " WHERE v = ?": [(1,), (3,), (4,)],
                    " WHERE v = ? AND id = 2": []}[where]
