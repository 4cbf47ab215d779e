"""The write oracle: INSERT / UPDATE / DELETE against a dict model.

Writes run from a cached write plan (``executor._WritePlan``: an UPDATE or
DELETE finds its rows through the plan of its WHERE, as a SELECT would)
and storage maintains only the indexes an UPDATE assigns, so there is no
interpreter left to compare them with.  This file is the comparison:
seeded sequences of writes, transactions and index DDL over one table
that has every kind of access path, checked after *every* step against a
model that re-implements the semantics row by row — contents,
``rowcount``, ``rows_touched``, error type — and against storage's own
invariants: each index answers what scan-and-filter answers, ordered keys
stay sorted and duplicate-free, a step that raised changed nothing.  The
two atomicity bugs fixed together with write plans (a refused write left
half-applied, a multi-row statement keeping the rows before the one that
raised) have their fixed cases at the bottom, beside the hand-written
``rows_touched`` table.
"""

import collections
import copy
import random

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import (ConstraintError, SqlError, SqlTypeError,
                                TransactionError)
from repro.sqldb.indexes import OrderedIndex
from repro.sqldb.parser import parse

COLUMNS = ("id", "email", "grp", "sub", "score", "n")
ID, EMAIL, GRP, SUB, SCORE, N = range(6)
SELECT_ALL = "SELECT id, email, grp, sub, score, n FROM t"
DDL = {
    "t_grp_sub": "CREATE INDEX t_grp_sub ON t (grp, sub)",
    "t_score": "CREATE INDEX t_score ON t (score) USING ORDERED",
}
MISSING = object()  # the WHERE's parameters are left out of the call


def make_db():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, email TEXT, grp INT, "
               "sub INT, score INT, n INT NOT NULL)")
    db.execute("CREATE UNIQUE INDEX t_email ON t (email)")
    for ddl in DDL.values():
        db.execute(ddl)
    return db


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

class Model:
    """Table contents by insertion order (``rid``: the model's own counter,
    ordered like storage's row ids) plus which droppable indexes exist.
    ``walks``: whether the plan of the step's statement walks ``t_score``
    — a cost-based choice the model takes from EXPLAIN, not makes."""

    def __init__(self):
        self.rows = {}
        self.next_rid = 1
        self.indexes = set(DDL)
        self.saved = None  # rows at BEGIN while a transaction is open
        self.walks = False

    def check_and_store(self, rows, rid, new):
        """What storage checks for one row, in storage's order; ``rows``
        is the statement's working copy."""
        if new[ID] is None:
            raise ConstraintError("id")
        for ordinal in (ID, GRP, SUB, SCORE, N):
            if new[ordinal] is not None and not isinstance(new[ordinal], int):
                raise SqlTypeError(COLUMNS[ordinal])
        if new[N] is None:
            raise ConstraintError("n")
        others = [row for other, row in rows.items() if other != rid]
        if any(row[ID] == new[ID] for row in others):
            raise ConstraintError("duplicate primary key")
        if new[EMAIL] is not None and any(
                row[EMAIL] == new[EMAIL] for row in others):
            raise ConstraintError("unique index")
        rows[rid] = new


Where = collections.namedtuple("Where", "kind sql params match candidates")
# match(row) -> bool, may raise; candidates(model) -> rids in the order the
# engine visits them (their count is rows_touched), may raise.


def all_rids(m):
    return sorted(m.rows)


def rids_where(m, pred):
    return [rid for rid in sorted(m.rows) if pred(m.rows[rid])]


def score_region(m, pred):
    """Rids an ordered-index range scan over ``score`` visits: NULLs never,
    the rest in (key, row id) order."""
    rids = rids_where(m, lambda r: r[SCORE] is not None and pred(r[SCORE]))
    return sorted(rids, key=lambda rid: (m.rows[rid][SCORE], rid))


def eq(value, key):
    return key is not None and value == key


def w_pk(rng):
    key = rng.choice([*range(1, 13), None, MISSING, [1]])
    if key is MISSING:
        return Where("pk-missing", "id = ?", MISSING, raises(SqlError),
                     all_rids)
    if key == [1]:  # unhashable: refused where the probe key is built
        return Where("pk-unhashable", "id = ?", (key,), None,
                     raises(SqlTypeError))
    return Where("pk" if key is not None else "pk-null", "id = ?", (key,),
                 lambda r: eq(r[ID], key),
                 all_rids if key is None else
                 lambda m: rids_where(m, lambda r: r[ID] == key))


def w_email(rng):
    key = rng.choice(["e0", "e1", "e2", "e3", "e4", None])
    return Where("unique", "email = ?", (key,), lambda r: eq(r[EMAIL], key),
                 all_rids if key is None else
                 lambda m: rids_where(m, lambda r: r[EMAIL] == key))


def w_grp_sub(rng):
    grp, sub = rng.choice([0, 1, 2, None]), rng.choice([0, 1, None])

    def candidates(m):
        if "t_grp_sub" not in m.indexes or grp is None or sub is None:
            return all_rids(m)
        return rids_where(m, lambda r: r[GRP] == grp and r[SUB] == sub)
    return Where("secondary", "grp = ? AND sub = ?", (grp, sub),
                 lambda r: eq(r[GRP], grp) and eq(r[SUB], sub), candidates)


def w_in(rng):
    if rng.random() < 0.15:  # an unresolvable list is no key set: a scan
        return Where("in-missing", "id IN (?, ?, ?)", MISSING,
                     raises(SqlError), all_rids)
    keys = tuple(rng.choice([*range(1, 13), None]) for _ in range(3))
    return Where("in", "id IN (?, ?, ?)", keys, lambda r: r[ID] in keys,
                 lambda m: rids_where(m, lambda r: r[ID] in keys))


def w_between(rng):
    low, high = rng.choice([0, 2, 4, None]), rng.choice([3, 6, 9, None])

    def inside(score):
        return low is not None and high is not None and low <= score <= high

    def candidates(m):
        if not m.walks:
            return all_rids(m)
        return score_region(m, inside)
    return Where("range", "score BETWEEN ? AND ?", (low, high),
                 lambda r: r[SCORE] is not None and inside(r[SCORE]),
                 candidates)


def w_eq_and_range(rng):
    grp, low = rng.choice([0, 1, None]), rng.choice([1, 5, None])

    def above(score):
        return low is not None and score > low

    def candidates(m):  # (grp) alone covers no index: a walk or a scan
        if not m.walks:
            return all_rids(m)
        return score_region(m, above)
    return Where("eq+range", "grp = ? AND score > ?", (grp, low),
                 lambda r: eq(r[GRP], grp) and r[SCORE] is not None
                 and above(r[SCORE]), candidates)


def w_expression(rng):
    key = rng.choice([*range(1, 13), None])
    return Where("non-sargable", "id + 0 = ?", (key,),
                 lambda r: eq(r[ID], key), all_rids)


def w_recheck_raises(rng):
    """``1 = TRUE`` only raises where the full WHERE is re-checked on a
    candidate: a primary-key miss has no candidate and succeeds."""
    key = rng.choice(range(1, 13))
    return Where("recheck", "id = ? AND 1 = TRUE", (key,),
                 raises(SqlTypeError),
                 lambda m: rids_where(m, lambda r: r[ID] == key))


def w_raises_part_way(rng):
    """Matches the rows below ``key``, then raises on the first later row
    whose email is text (``'e1' < 5``)."""
    key = rng.choice([3, 6, 9])

    def match(r):
        if r[ID] < key:
            return True
        if r[EMAIL] is None:
            return False
        raise SqlTypeError("cannot compare")
    return Where("part-way", "id < ? OR email < 5", (key,), match, all_rids)


def raises(error):
    def fn(_):
        raise error("model")
    return fn


WHERES = (w_pk, w_pk, w_email, w_grp_sub, w_grp_sub, w_in, w_in, w_between,
          w_between, w_eq_and_range, w_expression, w_recheck_raises,
          w_raises_part_way)

# SET clauses: (sql, parameter choices, row -> new values by ordinal).
SETS = (
    ("n = n + 1", [()], lambda r, p: {N: r[N] + 1}),
    ("n = ?", [(7,), (None,), ("x",)], lambda r, p: {N: p[0]}),
    ("score = ?", [(0,), (4,), (8,), (None,)], lambda r, p: {SCORE: p[0]}),
    ("score = score + 1", [()],
     lambda r, p: {SCORE: None if r[SCORE] is None else r[SCORE] + 1}),
    ("grp = ?, sub = ?", [(0, 0), (1, None), (2, 1)],
     lambda r, p: {GRP: p[0], SUB: p[1]}),
    ("email = ?", [("e0",), ("e1",), ("e5",), (None,)],
     lambda r, p: {EMAIL: p[0]}),
    ("email = ?, n = n + 1", [("e2",), ("e6",)],
     lambda r, p: {EMAIL: p[0], N: r[N] + 1}),
    ("email = ?, grp = ?, score = ?", [("e3", 1, 5), ("e8", 2, None)],
     lambda r, p: {EMAIL: p[0], GRP: p[1], SCORE: p[2]}),  # three indexes
    ("id = id + ?", [(1,), (5,), (20,)], lambda r, p: {ID: r[ID] + p[0]}),
    ("id = ?", [(2,), (30,), (None,)], lambda r, p: {ID: p[0]}),
)


def value_row(rng, m):
    bad = rng.random()
    return [rng.choice(range(1, 13)) if rng.random() < 0.8 else m.next_rid + 40,
            rng.choice(["e0", "e1", "e2", "e3", "e4", "e7", None, None]),
            rng.choice([0, 1, 2, None]), rng.choice([0, 1, None]),
            rng.choice([*range(10), None]),
            None if bad < 0.05 else "x" if bad < 0.1 else rng.choice(range(5))]


# ---------------------------------------------------------------------------
# One step: the statement, and what the model says it does
# ---------------------------------------------------------------------------

def where_params(where):
    return () if where.params is MISSING else where.params


def apply_to_matches(m, where, change):
    """The engine's UPDATE / DELETE over the model: the WHERE decided on
    every candidate, in visiting order, before any row changes (the rows
    its SELECT returns, or its error), then ``change`` applied to each
    match in a working copy that replaces the rows only if none raised."""
    candidates = where.candidates(m)
    matches = [rid for rid in candidates if where.match(m.rows[rid])]
    rows = dict(m.rows)
    for rid in matches:
        change(rows, rid)
    m.rows = rows
    return len(matches), len(candidates)


def step_insert(rng, m):
    values = [value_row(rng, m) for _ in range(rng.choice([1, 1, 2, 3]))]
    if rng.random() < 0.2:  # a column subset: the others are NULL
        sql = "INSERT INTO t (id, n) VALUES " + ", ".join(
            "(?, ?)" for _ in values)
        params = tuple(v for row in values for v in (row[ID], row[N]))
        values = [[row[ID], None, None, None, None, row[N]]
                  for row in values]
    else:
        sql = "INSERT INTO t VALUES " + ", ".join(
            "(?, ?, ?, ?, ?, ?)" for _ in values)
        params = tuple(v for row in values for v in row)

    def model():
        rows = dict(m.rows)
        for offset, row in enumerate(values):
            m.check_and_store(rows, m.next_rid + offset, list(row))
        m.rows = rows
        m.next_rid += len(values)
        return len(values), len(values)
    return f"insert-{min(len(values), 2)}", sql, params, model


def step_update(rng, m):
    where = rng.choice(WHERES)(rng)
    set_sql, choices, assign = rng.choice(SETS)
    set_params = rng.choice(choices)

    def change(rows, rid):
        new = list(rows[rid])
        for ordinal, value in assign(rows[rid], set_params).items():
            new[ordinal] = value
        m.check_and_store(rows, rid, new)
    return (f"update-{where.kind}", f"UPDATE t SET {set_sql} WHERE {where.sql}",
            set_params + where_params(where),
            lambda: apply_to_matches(m, where, change))


def step_delete(rng, m):
    where = rng.choice(WHERES)(rng)
    return (f"delete-{where.kind}", f"DELETE FROM t WHERE {where.sql}",
            where_params(where),
            lambda: apply_to_matches(m, where, lambda rows, rid: rows.pop(rid)))


def step_transaction(rng, m):
    verb = rng.choice(["BEGIN", "BEGIN", "COMMIT", "ROLLBACK"])

    def model():
        if (verb == "BEGIN") == (m.saved is not None):
            raise TransactionError("model")
        if verb == "ROLLBACK":
            m.rows = m.saved
        m.saved = dict(m.rows) if verb == "BEGIN" else None
        return 0, 0
    return verb.lower(), verb, (), model


def step_index_ddl(rng, m):
    """Drop or re-create an index between executions of the same cached
    statements: their plans must not outlive it."""
    name = rng.choice(sorted(DDL))
    sql = f"DROP INDEX {name}" if name in m.indexes else DDL[name]

    def model():
        m.indexes ^= {name}
        return 0, 0
    return "index-ddl", sql, (), model


STEPS = (step_insert, step_insert, step_insert, step_update, step_update,
         step_update, step_update, step_delete, step_delete,
         step_transaction, step_index_ddl)


# ---------------------------------------------------------------------------
# Storage invariants, independent of the model
# ---------------------------------------------------------------------------

def storage_state(db):
    table = db.tables["t"]
    return copy.deepcopy((
        table.rows, table._pk_index, db.result_cache.epoch,
        {name: (index._buckets, getattr(index, "_keys", None))
         for name, index in table.indexes.items()},
        len(db.transactions._undo_log), db.transactions.in_transaction))


def check_storage(db):
    table = db.tables["t"]
    # Storage is in row-id order (scan order): no reader sorts it.
    assert all(map(int.__lt__, table.rows, list(table.rows)[1:]))
    assert table._pk_index == {row[ID]: rid for rid, row in table.rows.items()}
    for index in table.indexes.values():
        ordered = isinstance(index, OrderedIndex)
        by_key = collections.defaultdict(list)
        for rid, row in table.rows.items():
            key = tuple(row[i] for i in index.ordinals)
            if ordered or None not in key:
                by_key[key].append(rid)
        for key, rids in by_key.items():
            assert list(index.lookup(key)) == (
                sorted(rids) if None not in key else [])
        # ...and nothing beside them: no entry of a row that left or moved.
        assert len(index) == sum(map(len, by_key.values()))
        assert index.distinct_keys == len(by_key)
        # Every bucket is strictly ascending: readers rely on row-id order
        # and a duplicate id would emit its row twice.
        assert all(bucket and all(map(int.__lt__, bucket, bucket[1:]))
                   for bucket in index._buckets.values())
        if ordered:
            assert index._keys == sorted(index._buckets)


# ---------------------------------------------------------------------------
# The sequences
# ---------------------------------------------------------------------------

def run_sequence(seed, steps=80):
    """Run one seeded sequence, checking every step; returns the
    ``(step kind, outcome)`` pairs it produced."""
    rng = random.Random(seed)
    db, m = make_db(), Model()
    statements = {}  # one statement object per SQL text, as a client holds
    outcomes = collections.Counter()
    for number in range(steps):
        kind, sql, params, model = rng.choice(STEPS)(rng, m)
        step = f"seed {seed} step {number}: {sql} {params!r}"
        stmt = statements.setdefault(sql, parse(sql))
        before = storage_state(db)
        before_model = (dict(m.rows), m.next_rid, set(m.indexes), m.saved)
        m.walks = "IndexRangeScan" in db.explain(sql)
        try:
            expected = model()
        except SqlError as error:
            m.rows, m.next_rid, m.indexes, m.saved = before_model
            expected = type(error)
        try:
            result = db.execute_parsed(stmt, params)
            got = (result.rowcount, result.rows_touched)
        except SqlError as error:
            got = type(error)
            assert storage_state(db) == before, (
                f"{step}: a refused statement changed storage")
        assert got == expected, step
        outcomes[kind, getattr(expected, "__name__", "ok")] += 1
        contents = [m.rows[rid] for rid in sorted(m.rows)]
        table = db.tables["t"]
        assert [row for _, row in sorted(table.rows.items())] == contents, step
        # Through SQL with the result cache on: nothing stale is served.
        assert db.execute(SELECT_ALL).rows == list(map(tuple, contents)), step
        assert set(table.indexes) == {"t_email"} | m.indexes, step
        check_storage(db)
    return outcomes


SEEDS = range(24)


@pytest.mark.parametrize("seed", SEEDS)
def test_write_sequences_match_the_model(seed):
    run_sequence(seed)


def test_the_sequences_reach_every_path_and_outcome():
    """The generator is not vacuous: across the seeds every access path
    located successful UPDATEs, and every way a write fails occurred."""
    outcomes = collections.Counter()
    for seed in SEEDS:
        outcomes += run_sequence(seed)
    required = {(f"{verb}-{path}", "ok") for verb in ("update", "delete")
                for path in ("pk", "pk-null", "unique", "secondary", "in",
                             "range", "eq+range", "non-sargable", "part-way")}
    required |= {
        ("insert-1", "ok"), ("insert-2", "ok"),
        ("insert-1", "ConstraintError"), ("insert-2", "ConstraintError"),
        ("insert-1", "SqlTypeError"), ("insert-2", "SqlTypeError"),
        ("update-range", "ConstraintError"),  # several rows, then a refusal
        ("update-pk-missing", "SqlError"), ("update-in-missing", "SqlError"),
        ("update-pk-unhashable", "SqlTypeError"),
        ("delete-pk-unhashable", "SqlTypeError"),
        ("update-recheck", "SqlTypeError"), ("update-recheck", "ok"),
        ("update-part-way", "SqlTypeError"),
        ("delete-part-way", "SqlTypeError"),
        ("begin", "ok"), ("commit", "ok"), ("rollback", "ok"),
        ("begin", "TransactionError"), ("index-ddl", "ok")}
    assert not required - set(outcomes)


# ---------------------------------------------------------------------------
# rows_touched of writes, by hand
# ---------------------------------------------------------------------------

FIXED_ROWS = [
    # id, email, grp, sub, score, n
    (1, "e1", 0, 0, 10, 0),
    (2, "e2", 0, 1, 20, 0),
    (3, "e3", 0, 0, 30, 0),
    (4, "e4", 0, 1, 40, 0),
    (5, "e5", 1, 0, 50, 0),
    (6, "e6", 1, 1, 60, 0),
    (7, "e7", 1, 0, None, 0),
    (8, None, 1, None, 20, 0),
]

# WHERE, parameters, rows_touched, rowcount
TOUCHED = [
    ("id = 3", (), 1, 1),                       # primary-key hit
    ("id = 99", (), 0, 0),                      # primary-key miss
    ("id = ?", (None,), 8, 0),                  # NULL key: no index, a scan
    ("email = 'e2'", (), 1, 1),                 # unique index bucket
    ("email = ?", (None,), 8, 0),
    ("grp = 0 AND sub = 0", (), 2, 2),          # two-column bucket
    ("grp = 1 AND sub = 1", (), 1, 1),
    ("grp = ? AND sub = ?", (1, None), 8, 0),   # one NULL part: a scan
    ("grp = 0", (), 8, 4),                      # half a key covers nothing
    ("id IN (1, 2, 99)", (), 2, 2),             # one probe per key that hits
    ("id IN (?, ?)", (4, None), 1, 1),
    ("score BETWEEN 20 AND 40", (), 4, 4),      # the ordered region
    ("score > 40", (), 2, 2),                   # NULL scores are outside it
    ("score BETWEEN ? AND ?", (None, 40), 0, 0),  # NULL bound: empty region
    ("grp = 1 AND score >= 20", (), 6, 3),      # region, then the re-check
    ("id + 0 = 3", (), 8, 1),                   # non-sargable
    ("n = 0", (), 8, 8),                        # unindexed
]


@pytest.mark.parametrize("verb", ["UPDATE t SET n = n + 1", "DELETE FROM t"])
@pytest.mark.parametrize("where, params, touched, rowcount", TOUCHED)
def test_rows_touched_of_writes(verb, where, params, touched, rowcount):
    db = make_db()
    for row in FIXED_ROWS:
        db.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", row)
    for _ in range(2):  # built, then from the plan cache inside a transaction
        db.execute("BEGIN")
        result = db.execute(f"{verb} WHERE {where}", params)
        assert (result.rows_touched, result.rowcount) == (touched, rowcount)
        db.execute("ROLLBACK")
        check_storage(db)
    assert db.execute(SELECT_ALL).rows == FIXED_ROWS


def test_insert_touches_one_row_per_value_row():
    db = make_db()
    result = db.execute("INSERT INTO t (id, n) VALUES (1, 0), (2, 0), (3, 0)")
    assert (result.rows_touched, result.rowcount) == (3, 3)
    assert result.last_insert_id == 3


# ---------------------------------------------------------------------------
# The two atomicity bugs, as fixed cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("using", ["", " USING ORDERED"])
def test_a_refused_write_is_refused_everywhere(using):
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, email TEXT, v INT)")
    db.execute("CREATE INDEX t_v ON t (v)")
    db.execute(f"CREATE UNIQUE INDEX t_email ON t (email){using}")
    db.execute("INSERT INTO t VALUES (1, 'a', 1), (2, 'b', 2)")
    rows = [(1, "a", 1), (2, "b", 2)]

    def unchanged():
        assert db.execute("SELECT * FROM t").rows == rows
        for email, ids in (("a", [(1,)]), ("b", [(2,)])):
            assert db.execute("SELECT id FROM t WHERE email = ?",
                              (email,)).rows == ids
        assert db.execute("SELECT id FROM t WHERE v = 3").rows == []
        assert len(db.tables["t"].indexes["t_email"]) == 2

    unchanged()  # also primes the result cache
    for sql in ("INSERT INTO t VALUES (3, 'a', 3)",
                "UPDATE t SET email = 'a', v = 3 WHERE id = 2"):
        epoch = db.result_cache.epoch
        with pytest.raises(ConstraintError, match="unique index 't_email'"):
            db.execute(sql)
        assert db.result_cache.epoch == epoch  # nothing invalidated
        unchanged()
        for end in ("ROLLBACK", "COMMIT"):
            db.execute("BEGIN")
            with pytest.raises(ConstraintError):
                db.execute(sql)
            db.execute(end)
            unchanged()


PART_WAY = [  # each writes its first row before its second raises
    ("INSERT INTO t VALUES (10, 1, NULL), (11, NULL, NULL)", ConstraintError),
    ("INSERT INTO t VALUES (10, 1, NULL), (1, 1, NULL)", ConstraintError),
    ("UPDATE t SET v = v + 1, id = 5 WHERE v > 0", ConstraintError),
    ("DELETE FROM t WHERE id < 2 OR tag < 5", SqlTypeError),
]


@pytest.mark.parametrize("sql, error", PART_WAY)
@pytest.mark.parametrize("end", [None, "COMMIT", "ROLLBACK"])
def test_a_statement_that_raises_part_way_leaves_nothing(sql, error, end):
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL, tag TEXT)")
    db.execute("CREATE INDEX t_v ON t (v)")
    db.execute("INSERT INTO t VALUES (1, 1, NULL), (2, 2, 'x'), (3, 3, 'y')")
    rows = [(1, 1, None), (2, 2, "x"), (3, 3, "y")]
    assert db.execute("SELECT * FROM t").rows == rows
    epoch = db.result_cache.epoch
    if end is not None:
        db.execute("BEGIN")
        db.execute("UPDATE t SET tag = 'z' WHERE id = 3")  # this one holds
        rows[2] = (3, 3, "z")
    with pytest.raises(error):
        db.execute(sql)
    assert db.execute("SELECT * FROM t").rows == rows
    if end is not None:
        db.execute(end)
        if end == "ROLLBACK":
            rows[2] = (3, 3, "y")
    assert not db.transactions.in_transaction
    assert db.execute("SELECT * FROM t").rows == rows
    assert db.execute("SELECT id FROM t WHERE v = 1").rows == [(1,)]
    assert db.result_cache.epoch == epoch + (end == "COMMIT")


def test_a_multi_row_autocommit_statement_commits_once():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    epoch = db.result_cache.epoch
    db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
    assert db.result_cache.epoch == epoch + 1
    db.execute("UPDATE t SET v = 0 WHERE v > 1")
    assert db.result_cache.epoch == epoch + 2
    assert not db.transactions.in_transaction
    assert not db.transactions.pending_table_names()


# ---------------------------------------------------------------------------
# Numbers a write computes or stores
# ---------------------------------------------------------------------------

def test_an_update_stores_the_exact_quotient(cache_size):
    """``v / 1`` of ``10**17 + 1`` is ``10**17 + 1``: the quotient of two
    ints that divide evenly never goes through a float (it stored
    ``10**17``)."""
    db = Database(result_cache_size=cache_size)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, f REAL)")
    db.execute("INSERT INTO t (id, v) VALUES (1, ?), (2, 7)", (10**17 + 1,))
    result = db.execute("UPDATE t SET v = v / ? WHERE id = 1", (1,))
    assert result.rowcount == 1
    db.execute("UPDATE t SET v = -v / ? WHERE id = 2", (7,))
    assert db.execute("SELECT id, v FROM t").rows == [(1, 10**17 + 1),
                                                      (2, -1)]
    with pytest.raises(SqlTypeError):  # 3.5 is no INTEGER
        db.execute("UPDATE t SET v = 7 / 2 WHERE id = 2")


@pytest.mark.parametrize("sql, params", [
    ("INSERT INTO t (id, f) VALUES (3, ?)", (10**400,)),
    ("UPDATE t SET f = v", ()),
    ("UPDATE t SET f = v WHERE id = 2", ()),
    ("UPDATE t SET f = v * 1.0", ()),
])
def test_a_value_no_real_holds_is_refused(sql, params, cache_size):
    """An int no float can hold stored into a REAL column, or a product
    that overflows, is a :class:`SqlTypeError` — never the builtin
    ``OverflowError`` — and the statement changes nothing."""
    db = Database(result_cache_size=cache_size)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, f REAL)")
    db.execute("INSERT INTO t (id, v, f) VALUES (1, 1, 0.5), (2, ?, 1.5)",
               (10**400,))
    rows = db.execute("SELECT id, v, f FROM t").rows
    with pytest.raises(SqlTypeError, match="numeric value out of range"):
        db.execute(sql, params)
    assert db.execute("SELECT id, v, f FROM t").rows == rows
    check_storage(db)
