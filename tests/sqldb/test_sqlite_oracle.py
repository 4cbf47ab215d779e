"""Single-node SQL oracle against SQLite.

Hypothesis generates table data (with NULL group keys) and a query of one
shape — primary-key and group-key point lookups, IN lists, ORDER BY with
LIMIT / OFFSET, an ORDER BY that leaves ties loose, INNER / LEFT joins
against a lookup table, GROUP BY aggregates, DISTINCT and counts — and
runs it on a :class:`Database` and on an in-memory ``sqlite3`` database
seeded with the same rows.  Each shape runs under every configuration of
one node: both physical engines, no result cache, and a hash or an
ordered secondary index (so a point lookup, an IN list or an ORDER BY can
take the index instead of the scan).

The oracle asserts:

- **the rows SQLite returns**: in exact order where the ORDER BY pins a
  total order, as a multiset plus an order check otherwise (NULLs first
  ascending, last descending — SQLite's placement and the engine's);
- **a repeat answers the same**, whether it is served by the result
  cache or run again;
- the same after a random run of autocommit writes (inserts, updates of
  the value and of the group key, deletes) issued after the query has
  already run once, so a cached result or a cached plan from before the
  writes must not answer for after them.
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.sqldb import Database

#: One node's configurations: constructor options and the index, if any,
#: created beside the tables.
CONFIGS = {
    "columnar": ({"engine": "columnar"}, None),
    "row": ({"engine": "row"}, None),
    "uncached": ({"result_cache_size": 0}, None),
    "hash-grp": ({}, "CREATE INDEX t_grp ON t (grp)"),
    "ordered-val": ({}, "CREATE INDEX t_val ON t (val) USING ORDERED"),
}

# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------

_GRP = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
_VAL = st.integers(min_value=0, max_value=9)
_T_ROWS = st.lists(st.tuples(_GRP, _VAL), min_size=0, max_size=12)
_LK_ROWS = st.lists(_VAL, min_size=0, max_size=5)


@st.composite
def _point_grp(draw):
    return ("SELECT id, grp, val FROM t WHERE grp = ? ORDER BY id",
            (draw(_GRP) or 0,), [(0, False)], True)


@st.composite
def _pk(draw):
    return ("SELECT id, grp, val FROM t WHERE id = ?",
            (draw(st.integers(min_value=0, max_value=12)),), None, True)


@st.composite
def _in_list(draw):
    a = draw(st.integers(min_value=0, max_value=4))
    b = draw(st.integers(min_value=0, max_value=4))
    return (f"SELECT id, grp, val FROM t WHERE grp IN ({a}, {b}) "
            "ORDER BY id", (), [(0, False)], True)


@st.composite
def _order_limit(draw):
    col, pos = draw(st.sampled_from([("grp", 1), ("val", 2)]))
    desc = draw(st.booleans())
    direction = "DESC" if desc else "ASC"
    limit = draw(st.integers(min_value=0, max_value=8))
    offset = draw(st.integers(min_value=0, max_value=4))
    tail = f" OFFSET {offset}" if draw(st.booleans()) else ""
    # The trailing unique key makes the cut deterministic.
    return (f"SELECT id, grp, val FROM t ORDER BY {col} {direction}, id "
            f"LIMIT {limit}{tail}", (), [(pos, desc), (0, False)], True)


@st.composite
def _order_loose(draw):
    desc = draw(st.booleans())
    return ("SELECT id, val FROM t ORDER BY val "
            + ("DESC" if desc else "ASC"), (), [(1, desc)], False)


@st.composite
def _join(draw):
    kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    where = ""
    if draw(st.booleans()):
        where = f" WHERE t.val >= {draw(_VAL)}"
    return (f"SELECT t.id, t.grp, lk.label FROM t {kind} lk "
            f"ON t.grp = lk.id{where} ORDER BY t.id", (), [(0, False)], True)


@st.composite
def _lookup(draw):
    return ("SELECT id, label FROM lk WHERE id = ?",
            (draw(st.integers(min_value=0, max_value=4)),), None, True)


@st.composite
def _count_where(draw):
    return ("SELECT COUNT(*) FROM t WHERE val > ?", (draw(_VAL),), None,
            True)


#: Query shapes: each strategy draws ``(sql, params, order_positions,
#: exact)`` — ``order_positions`` is the ORDER BY contract as output
#: positions, ``exact`` means the ORDER BY pins a total order.
SHAPES = {
    "point_grp": _point_grp(),
    "pk": _pk(),
    "in_list": _in_list(),
    "order_limit": _order_limit(),
    "order_loose": _order_loose(),
    "join": _join(),
    "agg": st.just(("SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp "
                    "ORDER BY grp", (), [(0, False)], True)),
    "distinct": st.just(("SELECT DISTINCT grp FROM t ORDER BY grp", (),
                         [(0, False)], True)),
    "lookup": _lookup(),
    "count_where": _count_where(),
}

_DDL = ("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INT, val INT)",
        "CREATE TABLE lk (id INTEGER PRIMARY KEY, label INT)")


def seed(db, t_rows, lk_rows, index=None):
    """Create and fill both tables on ``db`` (a :class:`Database` or a
    ``sqlite3`` connection: both take ``execute(sql, params)``)."""
    for ddl in _DDL + ((index,) if index else ()):
        db.execute(ddl)
    for pk, (grp, val) in enumerate(t_rows):
        db.execute("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                   (pk, grp, val))
    for pk, label in enumerate(lk_rows):
        db.execute("INSERT INTO lk (id, label) VALUES (?, ?)", (pk, label))
    return db


def make_pair(config, t_rows, lk_rows):
    options, index = CONFIGS[config]
    return (seed(Database("oracle", **options), t_rows, lk_rows, index),
            seed(sqlite3.connect(":memory:"), t_rows, lk_rows))


def canon(rows):
    return sorted([tuple(row) for row in rows], key=repr)


def assert_ordered(rows, order_positions):
    """Adjacent pairs respect the ORDER BY keys with NULLs first
    ascending and last descending."""
    def rank(row):
        key = []
        for pos, descending in order_positions:
            value = row[pos]
            if descending:
                key.append((value is None,
                            -value if value is not None else 0))
            else:
                key.append((value is not None,
                            value if value is not None else 0))
        return key

    ranks = [rank(row) for row in rows]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def check(db, lite, query):
    """``db`` answers ``query`` with SQLite's rows, twice over."""
    sql, params, order_positions, exact = query
    cursor = lite.execute(sql, params)
    expected = [tuple(row) for row in cursor]
    first = db.execute(sql, params)
    assert len(first.columns) == len(cursor.description)
    if exact:
        assert first.rows == expected, sql
    else:
        assert canon(first.rows) == canon(expected), sql
        if order_positions:
            assert_ordered(first.rows, order_positions)
    assert db.execute(sql, params).rows == first.rows


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), t_rows=_T_ROWS, lk_rows=_LK_ROWS)
def test_sqlite_oracle(shape, config, data, t_rows, lk_rows):
    db, lite = make_pair(config, t_rows, lk_rows)
    check(db, lite, data.draw(SHAPES[shape]))


_WRITE_OPS = st.lists(st.tuples(
    st.sampled_from(["insert", "update", "move", "delete"]),
    _GRP, _VAL), min_size=0, max_size=6)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), t_rows=_T_ROWS, lk_rows=_LK_ROWS, ops=_WRITE_OPS)
def test_sqlite_oracle_after_writes(shape, config, data, t_rows, lk_rows,
                                   ops):
    """A query answered before a run of autocommit writes is answered
    afresh after them, and both tables still hold SQLite's rows."""
    db, lite = make_pair(config, t_rows, lk_rows)
    query = data.draw(SHAPES[shape])
    check(db, lite, query)

    next_id = 100
    for op, grp, val in ops:
        if op == "insert":
            stmt = ("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                    (next_id, grp, val))
            next_id += 1
        elif op == "update":
            stmt = ("UPDATE t SET val = ? WHERE val = ?",
                    (val, (val + 1) % 10))
        elif op == "move":
            stmt = ("UPDATE t SET grp = ? WHERE val = ?", (grp, val))
        else:
            stmt = ("DELETE FROM t WHERE val = ?", (val,))
        assert db.execute(*stmt).rowcount == lite.execute(*stmt).rowcount

    check(db, lite, query)
    for full in ("SELECT id, grp, val FROM t ORDER BY id",
                 "SELECT id, label FROM lk ORDER BY id"):
        check(db, lite, (full, (), [(0, False)], True))
