"""Regression: planning/optimization must never mutate a cached AST.

The process-wide parse cache (:mod:`repro.sqldb.parser`) hands the *same*
statement objects to every ``Database`` in the process — the executor's
plan cache and the cross-request result cache both pin them by identity.
If any optimizer rule wrote through to a shared AST node (say, merging a
pushed-down conjunct into ``stmt.joins[i].condition`` instead of the
logical Join's own ``condition``), one database's planning would corrupt
every other consumer of that SQL string.  These tests plan and execute
identical SQL strings on databases with *different* index sets — the
configurations that drive the rules down different paths — and assert the
AST is byte-identical (by recursive structural fingerprint) afterwards.
"""

from repro.sqldb import Database
from repro.sqldb import ast_nodes as A
from repro.sqldb.parser import parse

DDL = """
CREATE TABLE usr (id INT PRIMARY KEY, login TEXT, grp INT);
CREATE TABLE issue (id INT PRIMARY KEY, owner_id INT, sev INT, day INT)
"""

QUERIES = (
    # Pushdown + access-path selection on the base of a join chain.
    ("SELECT u.login, i.id FROM usr u JOIN issue i ON i.owner_id = u.id "
     "WHERE u.grp = ? AND i.sev = 2", (1,)),
    # Reordering (the chain may re-base), residual ON splitting.
    ("SELECT u.login FROM usr u JOIN issue i "
     "ON i.owner_id = u.id AND i.sev > 1 WHERE i.day BETWEEN 2 AND 8",
     ()),
    # Ordered access + sort elision + limit hint.
    ("SELECT id, day FROM issue WHERE day > 1 AND day > 3 AND day < 9 "
     "ORDER BY day LIMIT 4", ()),
    # LEFT join barrier + WHERE above the chain.
    ("SELECT u.login, i.id FROM usr u LEFT JOIN issue i "
     "ON i.owner_id = u.id WHERE u.grp < 2 ORDER BY u.id DESC", ()),
)


def _fingerprint(node):
    """Deep structural fingerprint of an AST node (field names + values,
    recursively), independent of object identity."""
    if isinstance(node, A.Node):
        return (type(node).__name__,) + tuple(
            (field, _fingerprint(getattr(node, field)))
            for field in node._fields)
    if isinstance(node, (list, tuple)):
        return tuple(_fingerprint(item) for item in node)
    return node


def _seeded(indexes):
    db = Database()
    db.execute_script(DDL)
    for ddl in indexes:
        db.execute(ddl)
    for i in range(12):
        db.execute("INSERT INTO usr (id, login, grp) VALUES (?, ?, ?)",
                   (i, f"u{i}", i % 3))
    for i in range(40):
        db.execute(
            "INSERT INTO issue (id, owner_id, sev, day) "
            "VALUES (?, ?, ?, ?)", (i, i % 12, i % 4, i % 10))
    return db


INDEX_SETS = (
    (),  # no secondary indexes: scans everywhere
    ("CREATE INDEX idx_issue_owner ON issue (owner_id)",
     "CREATE INDEX idx_usr_grp ON usr (grp)"),
    ("CREATE INDEX idx_issue_day ON issue (day) USING ORDERED",
     "CREATE INDEX idx_issue_sev_day ON issue (sev, day) USING ORDERED"),
)


class TestSharedAstIsolation:
    def test_planning_leaves_cached_ast_untouched(self):
        databases = [_seeded(indexes) for indexes in INDEX_SETS]
        for sql, params in QUERIES:
            stmt = parse(sql)
            before = _fingerprint(stmt)
            for db in databases:
                assert parse(sql) is stmt  # truly shared via the cache
                db.explain(sql)
                db.execute(sql, params)
                assert _fingerprint(stmt) == before, (sql, db.name)

    def test_results_unaffected_by_other_databases_planning(self):
        """Interleaved planning across index configurations: every
        database keeps producing the rows it produced in isolation."""
        databases = [_seeded(indexes) for indexes in INDEX_SETS]
        isolated = [
            [sorted(_seeded(indexes).execute(sql, params).rows)
             for sql, params in QUERIES]
            for indexes in INDEX_SETS
        ]
        for round_trip in range(2):
            for qi, (sql, params) in enumerate(QUERIES):
                for di, db in enumerate(databases):
                    got = sorted(db.execute(sql, params).rows)
                    assert got == isolated[di][qi], (sql, di, round_trip)

    def test_write_statements_share_safely(self):
        """UPDATE/DELETE go through the access-path machinery too — the
        shared AST must survive the row search on differently
        indexed databases (executed inside a rolled-back transaction so
        the data stays comparable)."""
        databases = [_seeded(indexes) for indexes in INDEX_SETS]
        for sql, params in (
                ("UPDATE issue SET sev = 0 WHERE day > 2 AND day < 7", ()),
                ("DELETE FROM issue WHERE owner_id = ? AND sev = 1", (3,)),
        ):
            stmt = parse(sql)
            before = _fingerprint(stmt)
            for db in databases:
                db.execute("BEGIN")
                db.execute(sql, params)
                db.execute("ROLLBACK")
                assert _fingerprint(stmt) == before, (sql, db.name)
