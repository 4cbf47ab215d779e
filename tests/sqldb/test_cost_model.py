"""The cost model's selectivity and range-scan pricing, shape by shape.

``selectivity`` prices two shapes from statistics — ``AND`` multiplies,
``column = constant`` is 1/NDV of the column (its primary key, a
single-column index or the column's snapshot distinct count) — and every
other shape by the one fallback; ``range_scan_estimate`` prices a bound
on either side, or both, by that same fallback.
"""

import pytest

from repro.sqldb import Database
from repro.sqldb.parser import parse
from repro.sqldb.plan import cost as C
from repro.sqldb.plan.access import ordered_scan_candidates

FALLBACK = C.FALLBACK_SELECTIVITY
ROWS = 40


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c INT, "
               "s TEXT)")
    db.execute("CREATE INDEX idx_t_a ON t (a)")
    db.execute("CREATE INDEX idx_t_b ON t (b) USING ORDERED")
    db.execute("CREATE INDEX idx_t_c_b ON t (c, b) USING ORDERED")
    for i in range(ROWS):
        db.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                   (i, i % 4, i % 8, i % 5, f"s{i}"))
    return db


def where(predicate):
    return parse(f"SELECT id FROM t WHERE {predicate}").where


@pytest.mark.parametrize("predicate, ndv", [
    ("id = ?", ROWS),   # primary key: the row count
    ("a = 3", 4),       # single-column hash index: its distinct keys
    ("? = b", 8),       # single-column ordered index, constant on the left
    ("c = ?", 5),       # only a composite index: the snapshot's count
])
def test_equality_is_one_over_ndv(db, predicate, ndv):
    assert C.selectivity(db, "t", where(predicate)) == pytest.approx(1 / ndv)


@pytest.mark.parametrize("predicate, expected", [
    ("a = ? AND c = ?", 1 / 4 * 1 / 5),
    ("a = ? AND b > ?", 1 / 4 * FALLBACK),
    ("a = ? AND (a = 1 OR a = 2) AND s LIKE 'x%'", 1 / 4 * FALLBACK ** 2),
])
def test_and_is_the_product(db, predicate, expected):
    assert C.selectivity(db, "t", where(predicate)) == pytest.approx(expected)


@pytest.mark.parametrize("predicate", [
    "b > ?", "b <= 3", "b >= ?", "b < 3",
    "b BETWEEN ? AND ?", "b NOT BETWEEN 1 AND 2",
    "s IS NULL", "s IS NOT NULL",
    "a <> 1", "a IN (1, 2, 3)", "a NOT IN (1)",
    "a = 1 OR a = 2", "NOT a = 1", "s LIKE 'x%'",
    "TRUE", "FALSE", "NULL", "a = b", "missing = 1",
])
def test_every_other_shape_is_the_fallback(db, predicate):
    assert C.selectivity(db, "t", where(predicate)) == FALLBACK


def test_equality_without_a_table_is_the_fallback(db):
    assert C.selectivity(db, None, where("a = 1")) == FALLBACK


@pytest.mark.parametrize("predicate, index, touched", [
    ("b > ?", "idx_t_b", ROWS * FALLBACK),                 # one-sided
    ("b BETWEEN ? AND ?", "idx_t_b", ROWS * FALLBACK),     # two-sided
    ("c = ? AND b < ?", "idx_t_c_b", ROWS / 5 * FALLBACK),  # prefix + bound
    ("id = ?", "idx_t_b", ROWS),                           # a bare walk
])
def test_range_scan_estimate_prices_a_bound_by_the_fallback(
        db, predicate, index, touched):
    expr = where(predicate)
    candidate, = [c for c in ordered_scan_candidates(db.tables_get("t"), expr)
                  if c.index_name == index]
    estimate = C.range_scan_estimate(db, "t", candidate, expr)
    assert estimate.cost == pytest.approx(touched)
    emitted = max(1.0, ROWS * C.selectivity(db, "t", expr))
    assert estimate.rows == pytest.approx(min(emitted, touched))
