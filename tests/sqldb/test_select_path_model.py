"""The SELECT path against a dict model: result cache × transactions.

``test_write_oracle.py`` models what a write does to a table; this file
models what happens to a *read* on its way to the plan.  Seeded sequences of
parameterised SELECTs, INSERT / UPDATE / DELETE, BEGIN / COMMIT / ROLLBACK
and ``result_cache.enabled`` flips run over two tables, and after every
step a model predicts the rows of each SELECT *and* which way it went:
served from the cache (hit), probed and executed and stored (miss),
probed as a miss and executed without a store (a referenced table has
uncommitted writes), or past the cache altogether (switched off).  A
write drops the entries that read its table when it commits — at once
under auto-commit, at COMMIT in a transaction, never at ROLLBACK — even
while the cache is off.  Checked: rows, ``from_cache``, ``rows_touched``,
the five cache counters, the live entries and the tables each is filed
under, ``plans_built``, every table's contents, and the reader index:
each live entry's key in exactly the reader sets of its tables, no dead
key in any.

Each sequence runs twice: statement by statement through
``Database.execute`` and batch by batch through
``DatabaseServer.execute_batch(..., batch_optimize=True)``, where the
shared-scan planner probes a whole run of reads before executing any.
The two must agree on rows and counters.
"""

import collections
import random

import pytest

from repro.net import CostModel, DatabaseServer
from repro.net.driver import DriverStats
from repro.sqldb import Database
from repro.sqldb.errors import TransactionError
from test_result_cache import check_reader_index

TABLES = {"t": "v", "u": "w"}  # table -> its value column
IDS = range(1, 13)  # at most 12 rows a table: no table ever shifts in size


def scan(table, pred, project):
    return lambda tables, p: [project(r) for r in tables[table].values()
                              if pred(r, p)]


# sql -> (referenced tables, parameter choices, rows(tables, params),
#         rows_touched(tables, params) or None where the model does not say)
SELECTS = {
    "SELECT v FROM t WHERE id = ?": (
        ("t",), [(i,) for i in range(1, 9)],
        scan("t", lambda r, p: r[0] == p[0], lambda r: (r[2],)),
        lambda tables, p: int(p[0] in tables["t"])),
    "SELECT id, v FROM t WHERE g = ?": (
        ("t",), [(0,), (1,), (2,)],
        scan("t", lambda r, p: r[1] == p[0], lambda r: (r[0], r[2])),
        lambda tables, p: len(tables["t"])),
    "SELECT id FROM t WHERE v > ?": (
        ("t",), [(0,), (35,)],
        scan("t", lambda r, p: r[2] > p[0], lambda r: (r[0],)),
        lambda tables, p: len(tables["t"])),
    "SELECT id, w FROM u WHERE g = ?": (
        ("u",), [(0,), (1,), (2,)],
        scan("u", lambda r, p: r[1] == p[0], lambda r: (r[0], r[2])),
        lambda tables, p: len(tables["u"])),
    "SELECT COUNT(*) AS n FROM u": (
        ("u",), [()],
        lambda tables, p: [(len(tables["u"]),)],
        lambda tables, p: len(tables["u"])),
    "SELECT t.id, u.w FROM t JOIN u ON u.id = t.id WHERE t.g = ?": (
        ("t", "u"), [(0,), (1,), (2,)],
        lambda tables, p: [(r[0], tables["u"][r[0]][2])
                           for r in tables["t"].values()
                           if r[1] == p[0] and r[0] in tables["u"]],
        None),
}


def make_db(limit):
    db = Database() if limit is None else Database(result_cache_size=limit)
    for table, column in TABLES.items():
        db.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY, g INT, "
                   f"{column} INT)")
        for i in range(1, 7):
            db.execute(f"INSERT INTO {table} VALUES (?, ?, ?)",
                       (i, i % 3, i * 10))
    return db


class Model:
    def __init__(self, db):
        self.rows = {t: {i: (i, i % 3, i * 10) for i in range(1, 7)}
                     for t in TABLES}
        self.saved = None     # rows at BEGIN while a transaction is open
        self.pending = set()  # tables the open transaction changed
        self.enabled = True
        self.limit = db.result_cache.limit
        self.cache = collections.OrderedDict()  # (sql, params) -> tables
        self.counters = dict.fromkeys(
            ("hits", "misses", "invalidations", "stores", "rejected_stores"),
            0)
        # SELECT, UPDATE and DELETE texts a plan was built for (an INSERT
        # is not planned).
        self.planned = set()
        self.outcomes = collections.Counter()

    # -- reads ----------------------------------------------------------------

    def probe(self, sql, params):
        """The cache probe ahead of execution: True on a hit."""
        tables = SELECTS[sql][0]
        if not self.enabled:
            return self.note("off")
        if (sql, params) not in self.cache:
            self.counters["misses"] += 1
            return self.note("miss")
        if self.pending.intersection(tables):
            self.counters["misses"] += 1  # neither served nor dropped
            return self.note("pending-bypass")
        self.counters["hits"] += 1
        self.cache.move_to_end((sql, params))
        self.note("hit")
        return True

    def execute_and_store(self, sql, params):
        tables = SELECTS[sql][0]
        self.planned.add(sql)
        if not self.enabled:
            return
        if self.pending.intersection(tables):
            return self.note("not-stored")
        self.cache[sql, params] = tables
        self.cache.move_to_end((sql, params))
        self.counters["stores"] += 1
        while len(self.cache) > self.limit:
            self.cache.popitem(last=False)
            self.note("evicted")

    def invalidate(self, tables):
        """A commit: drop every entry that reads one of ``tables``."""
        for key, read in list(self.cache.items()):
            if not tables.isdisjoint(read):
                del self.cache[key]
                self.counters["invalidations"] += 1
                self.note("invalidated")

    def note(self, outcome):
        self.outcomes[outcome] += 1

    # -- writes ---------------------------------------------------------------

    def write(self, table, change):
        """Apply ``change(rows) -> rows changed`` to ``table``'s rows."""
        changed = change(self.rows[table])
        if not changed:
            return
        if self.saved is None:
            self.invalidate({table})
        else:
            self.pending.add(table)

    def transaction(self, verb):
        if (verb == "BEGIN") == (self.saved is not None):
            raise TransactionError("model")
        if verb == "BEGIN":
            self.saved = {t: dict(rows) for t, rows in self.rows.items()}
            return
        if verb == "ROLLBACK":
            self.rows = self.saved
        else:
            self.invalidate(self.pending)
        self.saved, self.pending = None, set()


# ---------------------------------------------------------------------------
# Statements: (sql, params, model effect or None for a SELECT)
# ---------------------------------------------------------------------------

def a_select(rng, taken):
    """A SELECT no earlier statement of the same step issued: the query
    store never ships one statement twice in a batch."""
    while True:
        sql = rng.choice(list(SELECTS))
        params = rng.choice(SELECTS[sql][1])
        if (sql, params) not in taken:
            taken.add((sql, params))
            return sql, params, None


def a_write(rng, m):
    table = rng.choice(list(TABLES))
    column = TABLES[table]
    absent = [i for i in IDS if i not in m.rows[table]]
    kind = rng.choice(["insert", "insert", "insert-2", "update-pk",
                       "update-pk", "update-g", "delete-pk", "delete-g"])
    if kind.startswith("insert") and len(absent) < 2:
        kind = "delete-pk"
    if kind.startswith("insert"):
        new = [(i, rng.randrange(3), rng.randrange(100))
               for i in rng.sample(absent, 2 if kind == "insert-2" else 1)]
        sql = f"INSERT INTO {table} (id, g, {column}) VALUES " + ", ".join(
            "(?, ?, ?)" for _ in new)

        def change(rows):
            rows.update((row[0], row) for row in new)
            return len(new)
        return sql, tuple(value for row in new for value in row), (
            table, change)
    key = rng.randrange(3) if kind.endswith("-g") else rng.choice(IDS)
    ordinal = 1 if kind.endswith("-g") else 0
    if kind.startswith("delete"):
        sql = f"DELETE FROM {table} WHERE {('id', 'g')[ordinal]} = ?"
        params = (key,)

        def change(rows):
            gone = [i for i, row in rows.items() if row[ordinal] == key]
            for i in gone:
                del rows[i]
            return len(gone)
    else:
        value = rng.randrange(100)
        sql = (f"UPDATE {table} SET {column} = ? "
               f"WHERE {('id', 'g')[ordinal]} = ?")
        params = (value, key)

        def change(rows):
            hit = [i for i, row in rows.items() if row[ordinal] == key]
            for i in hit:
                rows[i] = rows[i][:2] + (value,)
            return len(hit)
    return sql, params, (table, change)


def a_step(rng, m):
    """One step's statements; SELECTs of one step never repeat."""
    kind = rng.choice(["reads", "reads", "reads", "reads", "write", "write",
                       "mixed"])
    taken = set()
    if kind == "write":
        return [a_write(rng, m)]
    statements = [a_select(rng, taken) for _ in range(rng.choice([1, 2, 3, 4]))]
    if kind == "mixed":
        statements.append(a_write(rng, m))
        statements += [a_select(rng, taken) for _ in range(rng.choice([1, 2]))]
    return statements


# ---------------------------------------------------------------------------
# Running a sequence
# ---------------------------------------------------------------------------

class Direct:
    """Statement by statement through ``Database.execute``."""

    segment_size = 1

    def __init__(self, db):
        self.db = db

    def run(self, statements):
        return [self.db.execute(sql, params) for sql, params in statements]


class Batched:
    """A step is one batch through the server's shared-scan path."""

    segment_size = None  # a whole run of consecutive reads probes ahead

    def __init__(self, db):
        self.db = db
        self.server = DatabaseServer(db, CostModel())
        self.stats = DriverStats()

    def run(self, statements):
        results, _ = self.server.execute_batch(
            statements, batch_optimize=True, stats=self.stats)
        return results


def model_step(m, statements, segment_size):
    """Run one step's statements over the model; returns per statement
    ``(rows, hit, rows_touched or None)`` for a SELECT and None for a
    write.  Reads probe in runs of ``segment_size`` (None: up to the next
    write) before any of the run executes, as the batch planner does."""
    expected = [None] * len(statements)
    segment = []

    def flush():
        fresh = []
        for index in segment:
            sql, params, _ = statements[index]
            _, _, rows, touched = SELECTS[sql]
            hit = m.probe(sql, params) is True
            expected[index] = (
                sorted(rows(m.rows, params)), hit,
                0 if hit else touched and touched(m.rows, params))
            if not hit:
                fresh.append(index)
        for index in fresh:
            m.execute_and_store(*statements[index][:2])
        del segment[:]

    for index, (sql, params, effect) in enumerate(statements):
        if effect is None:
            segment.append(index)
            if len(segment) == segment_size:
                flush()
        else:
            flush()
            if not sql.startswith("INSERT"):
                m.planned.add(sql)  # the row search's plan
            m.write(*effect)
    flush()
    return expected


def run_sequence(seed, mode, limit=None, steps=120):
    """Run one seeded sequence, checking every step against the model;
    returns ``(model, log)`` — ``log`` holds per step the rows each SELECT
    returned and the cache's counters afterwards."""
    rng = random.Random(seed)
    db = make_db(limit)
    path = mode(db)
    m = Model(db)
    log = []
    for number in range(steps):
        step = f"seed {seed} step {number}"
        roll = rng.random()
        # Transactions are short and a switched-off cache comes back soon,
        # so most reads run with the cache on and no write pending.
        if roll < (0.10 if m.saved is None else 0.25):
            valid = ["BEGIN"] if m.saved is None else ["COMMIT", "ROLLBACK"]
            verb = rng.choice(valid * 3 + ["BEGIN", "COMMIT", "ROLLBACK"])
            step += f": {verb}"
            try:
                m.transaction(verb)
                expected = None
            except TransactionError as error:
                expected = type(error)
            try:
                path.run([(verb, ())])
                got = None
            except TransactionError as error:
                got = type(error)
            assert got == expected, step
            m.note(verb.lower() if got is None else "refused")
        elif roll > (0.97 if m.enabled else 0.85):
            step += ": flip the cache"
            m.enabled = db.result_cache.enabled = not m.enabled
        else:
            statements = a_step(rng, m)
            step += f": {[s[:2] for s in statements]}"
            expected = model_step(m, statements, path.segment_size)
            results = path.run([s[:2] for s in statements])
            for result, want in zip(results, expected):
                if want is None:
                    continue
                rows, hit, touched = want
                assert sorted(result.rows) == rows, step
                assert result.from_cache == hit, step
                if hit:
                    assert result.rows_touched == 0, step
                elif touched is not None and path.segment_size == 1:
                    # (a shared scan charges its rows to one member)
                    assert result.rows_touched == touched, step
            log.append([r.rows for r in results])
        stats = db.result_cache_stats()
        assert {k: stats[k] for k in m.counters} == m.counters, step
        check_reader_index(db.result_cache)
        live = {(entry[0].sql, key[1]): entry[1]
                for key, entry in db.result_cache._entries.items()}
        assert live == dict(m.cache), step
        assert db.executor.plans_built == len(m.planned), step
        assert not db.catalog.shifted, step
        for table in TABLES:
            stored = sorted(map(tuple, db.tables[table].rows.values()))
            assert stored == sorted(m.rows[table].values()), step
        log.append(dict(m.counters))
    if isinstance(path, Batched):
        m.outcomes["shared-scan-groups"] = path.stats.shared_scan_groups
    return m, log


SEEDS = range(16)
MODES = [Direct, Batched]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_select_sequences_match_the_model(seed, mode):
    run_sequence(seed, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(4))
def test_a_small_cache_evicts_as_the_model_does(seed, mode):
    m, _ = run_sequence(seed, mode, limit=4)
    assert m.outcomes["evicted"]


@pytest.mark.parametrize("seed", SEEDS)
def test_the_shared_scan_path_agrees_with_the_direct_path(seed):
    """Same rows from every SELECT and the same cache counters after every
    step, whether reads probe one at a time or a batch at a time."""
    assert run_sequence(seed, Direct)[1] == run_sequence(seed, Batched)[1]


def test_the_sequences_reach_every_outcome():
    """The generator is not vacuous: every way a SELECT can go occurred,
    in both modes, and batches really shared scans."""
    for mode in MODES:
        outcomes = collections.Counter()
        for seed in SEEDS:
            outcomes += run_sequence(seed, mode)[0].outcomes
        required = {"hit", "miss", "invalidated", "off", "pending-bypass",
                    "not-stored", "begin", "commit", "rollback", "refused"}
        if mode is Batched:
            required.add("shared-scan-groups")
        assert not required - {k for k, n in outcomes.items() if n}, mode
