"""What the stop-after-N cutoff charges.  Under a LIMIT above an elided
Sort, ``rows_touched`` counts the rows read up to the cut: the walk's up
to the last one kept, a hash or nested-loop join's whole build, an index
join's whole left side plus its fetched rows up to the cut — inside a
key's matches too.  The figures are the ones the row-at-a-time
interpreter charged before the chunked cutoff replaced it.
"""

import pytest

from repro.sqldb import Database


# ``t`` is walked on ``k``; ``w`` (duplicate keys) and ``x`` (unique
# ``code``, no 1) are hash-joined; ``u`` has three rows for each key 0..3
# ``t.g`` probes and none for 4, and ``t.g`` is NULL on every seventh row.
DB = Database(result_cache_size=0)
DB.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT, g INT)")
DB.execute("CREATE INDEX t_k ON t (k) USING ORDERED")
for i in range(40):
    DB.execute("INSERT INTO t VALUES (?, ?, ?, ?)",
               (i, 100 - i, i % 4, None if i % 7 == 3 else i % 5))
DB.execute("CREATE TABLE w (id INT PRIMARY KEY, v INT, x INT)")
for i in range(6):
    DB.execute("INSERT INTO w VALUES (?, ?, ?)", (i, i % 3, i * 10))
DB.execute("CREATE TABLE x (id INT PRIMARY KEY, code INT, label INT)")
for i, code in enumerate((0, 2, 3, 4, 5)):
    DB.execute("INSERT INTO x VALUES (?, ?, ?)", (i, code, code * 100))
DB.execute("CREATE TABLE u (id INT PRIMARY KEY, g INT, tag INT)")
DB.execute("CREATE INDEX u_g ON u (g)")
for i in range(300):
    DB.execute("INSERT INTO u VALUES (?, ?, ?)",
               (i, i // 3 if i < 12 else 1000 + i, i % 2))

WALK = "SELECT id, v FROM t WHERE k <= ? AND v <> 1 ORDER BY k DESC"
HASH = ("SELECT t.id, w.x FROM t JOIN w ON t.v = w.v "
        "WHERE t.k <= ? AND t.v <> 1 ORDER BY t.k DESC")
X = "SELECT t.id, x.{} FROM t {} x ON {} WHERE t.k <= ? ORDER BY t.k DESC"
INDEX = ("SELECT t.id, u.id FROM t JOIN u ON t.g = u.g WHERE t.k <= ?{} "
         "ORDER BY t.k DESC")
LEFT = ("SELECT t.id, u.id FROM t LEFT JOIN u ON t.g = u.g "
        "WHERE t.k <= ? ORDER BY t.k DESC")


@pytest.mark.parametrize("sql, params, join, rows, touched", [
    # The walk with a residual: rows 10..14, of which 13 (v = 1) fails.
    (WALK + " LIMIT 4", (90,), None,
     [(10, 2), (11, 3), (12, 0), (14, 2)], 5),
    (WALK + " LIMIT 3 OFFSET 2", (90,), None,
     [(12, 0), (14, 2), (15, 3)], 6),
    (WALK + " LIMIT 0", (90,), None, [], 0),
    # Under a hash join: the build (6) and the walk's three rows; with
    # unique build keys, INNER (5 + 5) and LEFT (5 + 4).
    (HASH + " LIMIT 4", (90,), "hash",
     [(10, 20), (10, 50), (12, 0), (12, 30)], 9),
    (X.format("label", "JOIN", "t.v = x.code") + " LIMIT 4", (90,), "hash",
     [(10, 200), (11, 300), (12, 0), (14, 200)], 10),
    (X.format("label", "LEFT JOIN", "t.v = x.code") + " LIMIT 4", (90,),
     "hash", [(10, 200), (11, 300), (12, 0), (13, None)], 9),
    # Under a nested loop: its scan (5) and the walk's two rows.
    (X.format("code", "JOIN", "x.code < t.v") + " LIMIT 3", (90,),
     "nested", [(10, 0), (11, 0), (11, 2)], 7),
    # Under an index join: the whole left side (30), then row 12's key
    # is cut after two of its three matches (3 + 2).
    (INDEX.format("") + " LIMIT 5", (90,), "index",
     [(11, 3), (11, 4), (11, 5), (12, 6), (12, 7)], 35),
    # ... and with the join deciding ``u.tag = 0``: a fetched row that
    # fails it is charged all the same (3 + 3).
    (INDEX.format(" AND u.tag = 0") + " LIMIT 3", (90,), "index",
     [(11, 4), (12, 6), (12, 8)], 36),
    # A LEFT join's unmatched rows (NULL key, key 4) charge nothing.
    (LEFT + " LIMIT 8", (99,), "index",
     [(1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8), (3, None),
      (4, None)], 45),
    (LEFT + " LIMIT 9", (99,), "index",
     [(1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8), (3, None),
      (4, None), (5, 0)], 46),
])
def test_a_cutoff_charges_the_rows_it_read(sql, params, join, rows,
                                           touched):
    plan = DB.explain(sql)
    assert "sort elided" in plan and "Sort" not in plan
    if join is not None:
        assert f"strategy='{join}'" in plan
    result = DB.execute(sql, params)
    assert result.rows == rows
    assert result.rows_touched == touched
