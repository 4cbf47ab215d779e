"""``col = ?`` read off a snapshot's equality facet, against the loop.

A sequential scan hands each slice's equality facets to its chunks, and
an ``=`` leaf answers from them instead of running its generated loop
(``cmp_eq_*``).  Every statement here is checked three ways:

- **slice by slice against the loop**: the WHERE, compiled as a scan
  compiles it, runs over each slice of the table's live snapshot twice —
  on the chunk the scan makes (facets attached) and on the same lanes with
  no facets, where the loop is the kernel.  The selection vectors, or the
  error's type and message, must agree; and a slice the zone test skips
  must be one the loop keeps nothing of and raises nothing on;
- **the statement against the loop**: ``db.execute`` answers the rows the
  loop keeps, slice after slice, or raises the first slice's error;
- **against sqlite3** where the dialects agree: whenever the loop raises
  nothing (an incomparable constant — ``TRUE`` against INTEGER, ``3``
  against TEXT — is an error here and a value in SQLite).

Columns: INTEGER (probed with 1 and 1.0), FLOAT (probed with 1), BOOLEAN,
TEXT with a value per row (a plain lane) and TEXT with three values
(dictionary-encoded on a big table), each with NULLs.  Tables of one row
and of more than one :data:`CHUNK_SIZE` slice, whose slices draw from
different value sets, so a constant can be present in one slice and absent
inside the range of the other.  ``=`` alone, as AND's left and right
operand beside ``=``, ``>`` or ``<>``, and under ``COUNT(*)``.  The same
probes after each INSERT, UPDATE, DELETE and ROLLBACK, inside the
transaction and after it.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.columnar import CHUNK_SIZE, ColumnChunk
from repro.sqldb.errors import SqlError
from repro.sqldb.parser import parse
from repro.sqldb.plan.compile import compile_filter

from sqlite_reference import normalized, sqlite_copy

COLUMNS = ("id", "i", "f", "b", "s", "d")
POSITIONS = {key: j for j, name in enumerate(COLUMNS)
             for key in ((None, name), ("t", name))}
DDL = ("CREATE TABLE t (id INTEGER PRIMARY KEY, i INTEGER, f FLOAT, "
       "b BOOLEAN, s TEXT, d TEXT)")
BIG = CHUNK_SIZE + 5

# Stored values: 3 and 5 never occur, 1.5 neither — absent inside a range.
_I = st.one_of(st.none(), st.sampled_from([0, 1, 2, 4, 6]))
_F = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 4.0]))
_B = st.one_of(st.none(), st.booleans())
_D = st.one_of(st.none(), st.sampled_from(["x", "y", "z"]))
_VALUES = st.tuples(_I, _F, _B, _D)
_PATTERN = st.lists(_VALUES, min_size=1, max_size=5)

# Per column: present, absent inside the range, out of range, NULL, the
# other numeric class, and incomparable constants.
CONSTANTS = {
    "i": (0, 1, 1.0, 3, 5, 100, -5, None, True, "x"),
    "f": (0.0, 1, 1.0, 1.5, 2.5, 99.5, None, False, "x"),
    "b": (True, False, None, 1),
    "s": ("k0", "k1", "k3", "k1025", "k", "zz", None, 3),
    "d": ("x", "y", "z", "w", "a", None, 3),
}
PROBED = tuple(CONSTANTS)
OTHER_OPS = ("=", ">", "<>")
# Fewer for an ``=`` beside another operand: present, absent inside the
# range, NULL and incomparable; and for the operand beside it: a constant
# many rows meet, and an incomparable one.
PAIRED = {"i": (1, 3, None, True), "f": (1, 1.5, None, "x"),
          "b": (False, None, 1), "s": ("k1", "k3", None, 3),
          "d": ("x", "w", None, 3)}
BESIDE = {"i": (1, "x"), "f": (1.0, "x"), "b": (True, 1), "s": ("k1", 3),
          "d": ("x", 3)}


def _text(row_id):
    return None if row_id % 4 == 3 else f"k{row_id}"


def _row(row_id, values):
    """A full row: ``values`` are ``(i, f, b, d)``; ``s`` follows the id."""
    return (row_id,) + values[:3] + (_text(row_id),) + values[3:]


def _rows(n, first, second):
    """``n`` rows: the first slice repeats ``first``, the rest ``second``."""
    return [_row(row_id, pattern[row_id % len(pattern)])
            for row_id in range(n)
            for pattern in (first if row_id < CHUNK_SIZE else second,)]


def _database(rows):
    db = Database()
    db.execute(DDL)
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", row)
    return db


def _outcome(fn):
    try:
        return fn()
    except SqlError as error:  # anything else is a leak and fails the test
        return type(error).__name__, str(error)


def _statement(shape, col, other, op, params):
    """``(sql, params)`` of one probe shape."""
    if shape == "alone":
        return f"SELECT id FROM t WHERE {col} = ?", params[:1]
    if shape == "count":
        return f"SELECT COUNT(*) FROM t WHERE {col} = ?", params[:1]
    if shape == "left":
        return (f"SELECT id FROM t WHERE {col} = ? AND {other} {op} ?",
                params)
    return (f"SELECT id FROM t WHERE {other} {op} ? AND {col} = ?",
            params[::-1])


def _loop_answer(db, sql, params):
    """The statement's answer as the loop gives it — ids kept, slice after
    slice, or the first slice's error — having checked each slice's facet
    kernel and zone test against the loop."""
    where = parse(sql).where
    keep, prune, (zoned, equal) = compile_filter(where, POSITIONS)
    store = db.tables_get("t").column_store()
    layout = (0, tuple(range(len(COLUMNS))), len(COLUMNS),
              tuple(sorted(zoned)), tuple(sorted(equal)))
    answer = []
    for columns, length, zone_of, facet_of in store.slices(layout):
        loop = _outcome(lambda: list(keep(ColumnChunk(columns, length),
                                          params)))
        faceted = _outcome(lambda: list(keep(
            ColumnChunk(columns, length, None, facet_of), params)))
        assert faceted == loop, (sql, params)
        if prune is not None and _outcome(
                lambda: prune(zone_of, facet_of, params)) is False:
            assert loop == [], (sql, params)
        if type(answer) is list:
            answer = (loop if type(loop) is tuple
                      else answer + [columns[0][i] for i in loop])
    return answer


def _check(db, sql, params, lite):
    """One probe: the facet against the loop, slice by slice and as a
    statement, and against SQLite when the loop raises nothing."""
    want = _loop_answer(db, sql, params)
    got = _outcome(lambda: db.execute(sql, params).rows)
    if "COUNT" in sql and type(want) is list:
        want = [(len(want),)]
    elif type(want) is list:
        want = [(row_id,) for row_id in want]
    assert got == want, (sql, params)
    if type(want) is list:
        expected = normalized(lite().execute(sql, params).fetchall())
        assert Counter(normalized(got)) == Counter(expected), (sql, params)


def _probe_all(db, probes):
    copies = []

    def lite():  # one SQLite copy per state of the table, made on demand
        if not copies:
            copies.append(sqlite_copy(db))
        return copies[0]

    for probe in probes:
        _check(db, *_statement(*probe), lite)


_ANY_CONSTANT = tuple(v for col in PROBED for v in CONSTANTS[col])
_PROBE = st.sampled_from(PROBED).flatmap(lambda col: st.tuples(
    st.sampled_from(("alone", "count", "left", "right")), st.just(col),
    st.sampled_from(PROBED), st.sampled_from(OTHER_OPS),
    st.tuples(st.sampled_from(CONSTANTS[col]),
              st.sampled_from(_ANY_CONSTANT))))

_WRITE = st.one_of(
    st.tuples(st.just("insert"), _VALUES),
    st.tuples(st.just("update"), st.sampled_from(("i", "f", "b", "d")),
              _VALUES, st.integers(min_value=0, max_value=BIG)),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=BIG)))


def _apply(db, write, next_id):
    kind = write[0]
    if kind == "insert":
        db.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)",
                   _row(next_id, write[1]))
    elif kind == "update":
        _, col, values, row_id = write
        value = dict(zip(("i", "f", "b", "d"), values))[col]
        db.execute(f"UPDATE t SET {col} = ? WHERE id = ?", (value, row_id))
    else:
        db.execute("DELETE FROM t WHERE id = ?", (write[1],))


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from((1, BIG)), first=_PATTERN, second=_PATTERN,
       probes=st.lists(_PROBE, min_size=1, max_size=6),
       writes=st.lists(st.tuples(st.booleans(), _WRITE), max_size=3))
def test_an_equality_answers_what_the_loop_answers(n, first, second,
                                                   probes, writes):
    db = _database(_rows(n, first, second))
    _probe_all(db, probes)
    for step, (rolled_back, write) in enumerate(writes):
        if rolled_back:
            db.execute("BEGIN")
        _apply(db, write, BIG + 1 + step)
        _probe_all(db, probes)
        if rolled_back:
            db.execute("ROLLBACK")
            _probe_all(db, probes)


def test_every_probe_over_a_fixed_table():
    """Each shape × column × constant × other operand, over a two-slice
    table whose slices differ, before and after an UPDATE, a DELETE and a
    rolled-back INSERT: the cases the mutants of the facet need (a bool
    constant meeting ints, a NULL row under AND's right operand, a right
    operand seeing only the left's rows, a facet outliving a write) are
    all among them."""
    first = [(0, 0.0, True, "x"), (1, 1.0, None, "y"), (None, None, False,
                                                        None)]
    second = [(4, 2.5, False, "z"), (6, None, None, "x")]
    db = _database(_rows(BIG, first, second))
    probes = [(shape, col, "i", "=", (constant, 0))
              for shape in ("alone", "count")
              for col in PROBED for constant in CONSTANTS[col]]
    probes += [(shape, col, other, op, (constant, other_constant))
               for shape in ("left", "right")
               for col in PROBED for constant in PAIRED[col]
               for other in PROBED for op in ("=", ">")
               for other_constant in BESIDE[other]]
    _probe_all(db, probes)
    db.execute("UPDATE t SET i = 3, d = 'w', b = TRUE WHERE id = 1")
    db.execute("DELETE FROM t WHERE id = 4")
    db.execute("UPDATE t SET f = 1.5 WHERE id = ?", (CHUNK_SIZE + 1,))
    _probe_all(db, probes)
    db.execute("BEGIN")
    _apply(db, ("insert", (5, 99.5, True, "a")), BIG + 1)
    _probe_all(db, probes)
    db.execute("ROLLBACK")
    _probe_all(db, probes)
