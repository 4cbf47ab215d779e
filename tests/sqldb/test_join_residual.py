"""An INNER equi-join decides the conjuncts that read only its table.

When every conjunct of the Filter directly above an INNER hash or index
join reads only the joined table, the join applies it: the chunk protocol
decides a build row once, when a probe first reaches its bucket (an index
join: a fetched row, when a probe first fetches it), and emits only the
rows it keeps.  One conjunct that reads the left side keeps the Filter
whole, and a LEFT join keeps its WHERE above it.  Each statement that
answers rows answers SQLite's (``sqlite_reference``); one that compares
the TEXT ``u.name`` with a number raises this engine's
:class:`SqlTypeError` (SQLite orders TEXT above every number: a dialect
gap) on exactly the rows a joined-row Filter would test — a build row
no probe reaches raises nothing.  The join keys hold NULLs on both sides
and duplicate build keys (``u.k``).
"""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import SqlTypeError
from repro.sqldb.parser import parse
from repro.sqldb.plan import physical

from sqlite_reference import normalized, sqlite_copy, sqlite_rows

E_ROWS = ((1, 1, 5), (2, 2, 0), (3, None, 7), (4, 1, 9), (5, 4, 3),
          (6, 9, 1))
# Only rows 4 and 5 carry a name, and no ``e.uid`` reaches them through
# ``u.k`` (row 4's key is NULL, no left row probes 3): ``u.name < 5``
# raises on them alone.
U_ROWS = ((1, 1, 1, None), (2, 1, 2, None), (3, 2, 1, None),
          (4, None, 1, "n"), (5, 3, 1, "m"), (6, 4, 2, None),
          (7, 2, None, None))


def _database():
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE e (id INT PRIMARY KEY, uid INT, x INT)")
    db.execute("CREATE TABLE u (id INT PRIMARY KEY, k INT, seg INT, "
               "name TEXT)")
    for row in E_ROWS:
        db.execute("INSERT INTO e VALUES (?, ?, ?)", row)
    for row in U_ROWS:
        db.execute("INSERT INTO u VALUES (?, ?, ?, ?)", row)
    return db


DB = _database()
LITE = sqlite_copy(DB)


def _agree(sql, params=()):
    """The rows ``sql`` answers, sorted, once they are SQLite's — or the
    type of the error this engine raises."""
    try:
        rows = sorted(normalized(DB.execute(sql, params).rows), key=repr)
    except SqlTypeError as error:
        return type(error)
    assert rows == sorted(sqlite_rows(LITE, sql, params)[1], key=repr), sql
    return rows


def _source(sql):
    """The plan's row source: the join, or the FilterOp left above it."""
    return DB.executor.plan_for(DB, parse(sql)).source


HASH = "SELECT e.id, u.id FROM e JOIN u ON e.uid = u.k"
INDEX = "SELECT e.id, u.id FROM e JOIN u ON e.uid = u.id"


@pytest.mark.parametrize("sql, params, expected", [
    # Right-only WHERE and ON conjuncts: the join decides them.
    (HASH + " WHERE u.seg = ?", (1,), [(1, 1), (2, 3), (4, 1)]),
    (HASH + " WHERE u.seg = ?", (None,), []),
    (HASH + " WHERE u.seg IS NULL", (), [(2, 7)]),
    (HASH + " AND u.seg = 2 WHERE u.id > ?", (1,), [(1, 2), (4, 2),
                                                   (5, 6)]),
    (HASH + " WHERE u.seg BETWEEN ? AND ? AND u.id <> 2", (1, 2),
     [(1, 1), (2, 3), (4, 1), (5, 6)]),
    (INDEX + " WHERE u.seg = ?", (1,), [(1, 1), (4, 1), (5, 4)]),
    (INDEX + " WHERE u.seg = ? AND u.k IS NOT NULL", (2,), [(2, 2)]),
    # A left-only conjunct goes below the join, the right-only one in.
    (HASH + " WHERE e.x > ? AND u.seg = 1", (4,), [(1, 1), (4, 1)]),
    (INDEX + " WHERE e.x < ? AND u.seg = 1", (4,), [(5, 4)]),
])
def test_the_join_decides_its_right_only_conjuncts(sql, params, expected):
    source = _source(sql)
    assert type(source) in (physical.HashJoinOp, physical.IndexNLJoinOp)
    assert source.predicate is not None
    assert _agree(sql, params) == expected


@pytest.mark.parametrize("sql, params, expected", [
    # A conjunct reading both sides, or the left side beside the right
    # one inside ON: the Filter stays whole above the join.
    (HASH + " WHERE e.x > u.seg", (), [(1, 1), (1, 2), (4, 1), (4, 2),
                                       (5, 6)]),
    (HASH + " AND e.x > 4 AND u.seg = ?", (1,), [(1, 1), (4, 1)]),
    (INDEX + " AND u.seg = ? AND e.x < u.id", (1,), [(5, 4)]),
    # A LEFT join's WHERE on its right table filters NULL-extended rows.
    ("SELECT e.id, u.id FROM e LEFT JOIN u ON e.uid = u.k "
     "WHERE u.seg IS NULL", (), [(2, 7), (3, None), (6, None)]),
    ("SELECT e.id, u.id FROM e LEFT JOIN u ON e.uid = u.k "
     "WHERE u.seg = ?", (2,), [(1, 2), (4, 2), (5, 6)]),
])
def test_a_filter_the_join_cannot_decide_stays_above_it(sql, params,
                                                        expected):
    assert type(_source(sql)) is physical.FilterOp
    assert _agree(sql, params) == expected


@pytest.mark.parametrize("sql, expected", [
    # No probe reaches the named rows: nothing raises, as a Filter over
    # the joined rows would not.
    (HASH + " WHERE u.name < 5", []),
    (HASH + " WHERE u.seg = 1 AND u.name < 5", []),
    # The left conjunct first rejects every joined row (row 4 among
    # them): the AND never evaluates the right one, so the Filter
    # stays whole.
    (INDEX + " AND e.x > 100 AND u.name < 5", []),
    # A joined row raises.
    ("SELECT e.id, u.id FROM e JOIN u ON e.uid = u.id WHERE u.name < 5",
     SqlTypeError),
    ("SELECT e.id, u.id FROM e JOIN u ON e.id = u.k WHERE u.name < 5",
     SqlTypeError),
    (HASH + " WHERE u.seg + u.name > 0", []),
    (INDEX + " WHERE u.seg + u.name > 0", SqlTypeError),
])
def test_a_conjunct_raises_only_on_the_rows_a_filter_would_test(
        sql, expected):
    assert _agree(sql) == expected


def test_the_index_joins_hash_fallback_decides_as_a_hash_join(monkeypatch):
    """When its probes would touch more rows than one scan, an index join
    builds the hash table: unreached rows still go untested."""
    monkeypatch.setattr(physical.IndexNLJoinOp, "_probe_all",
                        lambda self, table, keys: None)
    for sql, params, expected in [
            (INDEX + " WHERE u.seg = ?", (1,), [(1, 1), (4, 1), (5, 4)]),
            (INDEX + " WHERE e.id <> ? AND u.name < 5", (5,), []),
            (INDEX + " WHERE u.name < 5", (), SqlTypeError)]:
        assert type(_source(sql)) is physical.IndexNLJoinOp
        assert _agree(sql, params) == expected


@pytest.mark.parametrize("sql, params", [
    (HASH + " WHERE u.seg = ?", (1,)),
    (HASH + " WHERE u.seg = ?", (5,)),
    (INDEX + " WHERE u.seg = ?", (2,)),
    (INDEX + " WHERE u.seg = ?", (5,)),
    (HASH + " WHERE e.x > u.seg", ()),
])
def test_a_chunk_step_per_explain_line(sql, params):
    """``sqldb.chunks_executed`` counts what EXPLAIN ANALYZE shows, which
    splits the join back into its Join and Filter lines: the chunks the
    join produced before its residual, then the chunks it kept."""
    db = DB
    before = db.executor.batches_executed
    db.execute(sql, params)
    counted = db.executor.batches_executed - before
    _, *lines = db.explain(sql, params, analyze=True).splitlines()
    assert [line.split()[0] for line in lines] == [
        "Project", "Filter", "Join", "Scan"]
    chunks = [int(part.split("=")[1].rstrip(",]")) for line in lines[1:]
              for part in line.split() if part.startswith("chunks=")]
    assert counted == sum(chunks)
