"""Golden EXPLAIN plans for representative itracker / OpenMRS / TPC-C
statements, writes included (an UPDATE / DELETE shows the plan of its row
search under an ``Update`` / ``Delete`` line).

These lock the optimizer's chosen join order (tree nesting), join strategy
(hash / index / nested), access path and cost annotations over the
deterministic seeded app databases, so any optimizer or cost-model change
surfaces as a readable plan diff rather than a silent perf regression.

Every golden also holds the one-tree property: EXPLAIN ANALYZE of the
statement, run with the parameters given, is the golden tree line for
line plus each operator's ``actual [...]``, and the q-error sits on
exactly the lines that carry an estimate.  With its times stripped that
ANALYZE is itself a golden (``explain_analyze_goldens.txt``): rows,
q-errors, chunks, zone-skipped chunks and selection density per line,
whichever operator computes them.

The databases are built fresh at module scope (not the shared session
fixtures) so plan estimates cannot drift with test execution order.
"""

import re
from pathlib import Path

import pytest

from repro.sqldb import Database

_ESTIMATE = re.compile(r" \(~\d+ rows, ~\d+ touched\)")
_TIMES = re.compile(r",? (total_ms|time)=[0-9.]+(ms)?")


def _analyze_goldens():
    """``{(sql, repr(params)): [header, line, ...]}`` from the data file."""
    text = (Path(__file__).parent / "explain_analyze_goldens.txt").read_text()
    blocks = [block.splitlines() for block in text.strip().split("\n\n")]
    return {(sql[len("sql: "):], params[len("params: "):]): lines
            for sql, params, *lines in blocks
            if sql.startswith("sql: ")}


_ANALYZE_GOLDENS = _analyze_goldens()


@pytest.fixture(scope="module")
def itracker_db():
    from repro.apps import itracker

    db, _ = itracker.build_app()
    return db


@pytest.fixture(scope="module")
def openmrs_db():
    from repro.apps import openmrs

    db, _ = openmrs.build_app()
    return db


@pytest.fixture(scope="module")
def tpcc_db():
    from repro.apps.tpcc import data

    db = Database("tpcc")
    data.seed(db)
    return db


def assert_plan(db, sql, expected, params=()):
    """EXPLAIN of ``sql`` is ``expected``, and EXPLAIN ANALYZE with
    ``params`` annotates the same lines: header dropped and every
    `` actual [...]`` stripped, the rest is the EXPLAIN; ``q=`` appears
    on a line exactly when it carries ``(~N rows, ~M touched)``; and the
    ANALYZE without its times is the statement's analyze golden."""
    plan = db.explain(sql)
    assert plan == expected.strip("\n")
    header, *analyzed = db.explain(sql, params, analyze=True).splitlines()
    assert [_TIMES.sub("", line) for line in [header, *analyzed]] == \
        _ANALYZE_GOLDENS[(sql, repr(tuple(params)))]
    assert header.startswith("EXPLAIN ANALYZE [")
    lines = [line.rpartition(" actual [") for line in analyzed]
    assert [tree for tree, _, _ in lines] == plan.splitlines()
    for tree, _, actual in lines:
        assert actual.startswith("rows=")
        assert ("q=" in actual) == bool(_ESTIMATE.search(tree)), tree


# ---------------------------------------------------------------------------
# itracker
# ---------------------------------------------------------------------------

def test_itracker_project_issue_listing(itracker_db):
    assert_plan(itracker_db, (
        "SELECT i.id, i.description, u.login FROM it_issue i "
        "JOIN it_user u ON i.creator_id = u.id WHERE i.project_id = ?"), """
Project
  Join [kind='INNER', table='it_user', strategy='hash'] (~50 rows, ~70 touched)
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='i', column='project_id'), right=Param(index=0))] (~50 rows, ~50 touched)
      IndexLookup [table='it_issue', candidates=['idx_it_issue_project_id']] (~50 rows, ~50 touched)
""", params=(3,))


def test_itracker_severe_issue_report_reorders_to_project(itracker_db):
    """Three-way join: the optimizer re-bases the chain on the pinned
    project (PK lookup), probes issues through the project-id index, then
    resolves creators per row through the user PK.  The severity filter's
    selectivity comes from the snapshot distinct count (a handful of
    severity levels), not the old rows//10 heuristic, so the estimate is
    ~12 surviving issues rather than ~1."""
    assert_plan(itracker_db, (
        "SELECT p.name, i.id, u.login FROM it_project p "
        "JOIN it_issue i ON i.project_id = p.id "
        "JOIN it_user u ON i.creator_id = u.id "
        "WHERE p.id = ? AND i.severity = ?"), """
Project
  Join [kind='INNER', table='it_user', strategy='index', index_name='<pk>'] (~12 rows, ~64 touched)
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='i', column='severity'), right=Param(index=1))] (~12 rows, ~51 touched)
      Join [kind='INNER', table='it_issue', strategy='index', index_name='idx_it_issue_project_id'] (~12 rows, ~51 touched)
        Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='p', column='id'), right=Param(index=0))] (~1 rows, ~1 touched)
          IndexLookup [table='it_project', candidates=['<pk>']] (~1 rows, ~1 touched)
""", params=(2, 1))


def test_itracker_user_history_audit(itracker_db):
    assert_plan(itracker_db, (
        "SELECT h.id, h.action, u.login FROM it_history h "
        "JOIN it_user u ON h.user_id = u.id WHERE h.user_id = ?"), """
Project
  Join [kind='INNER', table='it_user', strategy='hash'] (~50 rows, ~70 touched)
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='h', column='user_id'), right=Param(index=0))] (~50 rows, ~50 touched)
      IndexLookup [table='it_history', candidates=['idx_it_history_user_id']] (~50 rows, ~50 touched)
""", params=(7,))


def test_itracker_stale_project_issues_prefix_plus_range(itracker_db):
    """Equality prefix + range suffix on the two-column ordered index:
    project_id pins the prefix, the date bound walks the suffix, and the
    delivered order makes the ORDER BY sort redundant."""
    assert_plan(itracker_db, (
        "SELECT i.id, i.description FROM it_issue i "
        "WHERE i.project_id = ? AND i.last_modified < ? "
        "ORDER BY i.last_modified"), """
Project
  Filter [predicate=BinaryOp(op='AND', left=BinaryOp(op='=', left=ColumnRef(table='i', column='project_id'), right=Param(index=0)), right=BinaryOp(op='<', left=ColumnRef(table='i', column='last_modified'), right=Param(index=1)))] (~15 rows, ~15 touched)
    IndexRangeScan [table='it_issue', index='idx_it_issue_proj_modified', eq='project_id = ?', bounds='last_modified < ?', order='last_modified ASC (sort elided)'] (~15 rows, ~15 touched)
""", params=(3, "2014-03-01"))


def test_itracker_latest_issues_page_descending_top_n(itracker_db):
    """Top-N-by-date page: a literal-bounded range scan (priced, like a
    parameter bound, by FALLBACK_SELECTIVITY), walked descending so the DESC
    sort is elided; with the Sort gone and a LIMIT above, execution stops
    after the first limit+offset rows."""
    assert_plan(itracker_db, (
        "SELECT i.id, i.description, u.login FROM it_issue i "
        "JOIN it_user u ON i.creator_id = u.id "
        "WHERE i.last_modified >= '2014-07-01' "
        "ORDER BY i.last_modified DESC LIMIT 10"), """
Limit
  Project
    Join [kind='INNER', table='it_user', strategy='hash'] (~150 rows, ~170 touched)
      Filter [predicate=BinaryOp(op='>=', left=ColumnRef(table='i', column='last_modified'), right=Literal(value='2014-07-01'))] (~150 rows, ~150 touched)
        IndexRangeScan [table='it_issue', index='idx_it_issue_modified', bounds='last_modified >= '2014-07-01'', order='last_modified DESC (sort elided)'] (~150 rows, ~150 touched)
""")


def test_itracker_user_by_pk(itracker_db):
    assert_plan(itracker_db, "SELECT login FROM it_user WHERE id = ?", """
Project
  Filter [predicate=BinaryOp(op='=', left=ColumnRef(table=None, column='id'), right=Param(index=0))] (~1 rows, ~1 touched)
    IndexLookup [table='it_user', candidates=['<pk>']] (~1 rows, ~1 touched)
""", params=(3,))


def test_snapshot_ndv_picks_cheaper_join_order():
    """Snapshot distinct counts put the join base on the genuinely
    cheaper side.  ``refs.ref`` is all-distinct but carries no index; the
    snapshot knows it has 100 distinct values (~1 survivor of the
    equality filter), so the chain is based on ``refs`` with a PK probe
    into ``flags`` — 101 rows actually touched, where basing it on
    ``flags`` (the FROM order) would touch 130."""
    db = Database(result_cache_size=0)
    db.execute(
        "CREATE TABLE flags (id INT PRIMARY KEY, flag TEXT, note TEXT)")
    db.execute(
        "CREATE TABLE refs (id INT PRIMARY KEY, flag_id INT, ref TEXT)")
    db.execute("CREATE INDEX idx_refs_flag_id ON refs (flag_id)")
    for i in range(80):
        db.execute("INSERT INTO flags VALUES (?, ?, ?)",
                   (i, "hot" if i % 2 else "cold", f"n{i}"))
    for i in range(100):
        db.execute("INSERT INTO refs VALUES (?, ?, ?)",
                   (i, i % 80, f"R-{i:04d}"))
    sql = ("SELECT f.note, r.id FROM flags f "
           "JOIN refs r ON r.flag_id = f.id "
           "WHERE f.flag = 'hot' AND r.ref = 'R-0043'")
    assert_plan(db, sql, """
Project
  Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='f', column='flag'), right=Literal(value='hot'))] (~1 rows, ~101 touched)
    Join [kind='INNER', table='flags', strategy='index', index_name='<pk>'] (~1 rows, ~101 touched)
      Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='r', column='ref'), right=Literal(value='R-0043'))] (~1 rows, ~100 touched)
        Scan [table='refs', alias='r'] (~100 rows, ~100 touched)
""")
    with_stats = db.execute(sql)
    assert with_stats.rows == [("n43", 43)]
    assert with_stats.rows_touched == 101


# ---------------------------------------------------------------------------
# OpenMRS
# ---------------------------------------------------------------------------

def test_openmrs_encounter_obs_display(openmrs_db):
    assert_plan(openmrs_db, (
        "SELECT o.id, o.value_text, c.name FROM obs o "
        "JOIN concept c ON o.concept_id = c.id WHERE o.encounter_id = ?"), """
Project
  Join [kind='INNER', table='concept', strategy='index', index_name='<pk>'] (~11 rows, ~21 touched)
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='o', column='encounter_id'), right=Param(index=0))] (~11 rows, ~11 touched)
      IndexLookup [table='obs', candidates=['idx_obs_encounter_id']] (~11 rows, ~11 touched)
""", params=(3,))


def test_openmrs_encounter_concept_numeric_report(openmrs_db):
    assert_plan(openmrs_db, (
        "SELECT e.id, o.id, c.name FROM encounter e "
        "JOIN obs o ON o.encounter_id = e.id "
        "JOIN concept c ON o.concept_id = c.id "
        "WHERE e.patient_id = ? AND o.value_numeric >= ?"), """
Project
  Join [kind='INNER', table='concept', strategy='index', index_name='<pk>'] (~26 rows, ~118 touched)
    Filter [predicate=BinaryOp(op='>=', left=ColumnRef(table='o', column='value_numeric'), right=Param(index=1))] (~26 rows, ~93 touched)
      Join [kind='INNER', table='obs', strategy='index', index_name='idx_obs_encounter_id'] (~26 rows, ~93 touched)
        Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='e', column='patient_id'), right=Param(index=0))] (~8 rows, ~8 touched)
          IndexLookup [table='encounter', candidates=['idx_encounter_patient_id']] (~8 rows, ~8 touched)
""", params=(1, 50))


def test_openmrs_patient_demographics(openmrs_db):
    assert_plan(openmrs_db, (
        "SELECT pt.identifier, pe.name FROM patient pt "
        "JOIN person pe ON pt.person_id = pe.id WHERE pt.id = ?"), """
Project
  Join [kind='INNER', table='person', strategy='index', index_name='<pk>'] (~1 rows, ~2 touched)
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='pt', column='id'), right=Param(index=0))] (~1 rows, ~1 touched)
      IndexLookup [table='patient', candidates=['<pk>']] (~1 rows, ~1 touched)
""", params=(4,))


def test_openmrs_concept_class_listing_probes_fk_index(openmrs_db):
    assert_plan(openmrs_db, (
        "SELECT c.id, c.name, k.name FROM concept c "
        "JOIN concept_class k ON c.class_id = k.id WHERE k.id = ?"), """
Project
  Join [kind='INNER', table='concept', strategy='index', index_name='idx_concept_class_id'] (~15 rows, ~16 touched)
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='k', column='id'), right=Param(index=0))] (~1 rows, ~1 touched)
      IndexLookup [table='concept_class', candidates=['<pk>']] (~1 rows, ~1 touched)
""", params=(1,))


def test_openmrs_encounters_in_period_rebases_onto_range_scan(openmrs_db):
    """Range-aware join reordering: the BETWEEN over encounter_date makes
    encounter the cheapest chain base (via its ordered index), so the
    chain re-bases onto it and the ORDER BY rides the index order through
    both joins.  A bound is priced by the one fallback selectivity, 0.3 of
    the 400 encounters (~120 rows; ~100 when BETWEEN had a constant of its
    own, 0.25): the same tree either way."""
    assert_plan(openmrs_db, (
        "SELECT e.id, e.encounter_date, pe.name FROM encounter e "
        "JOIN patient pt ON e.patient_id = pt.id "
        "JOIN person pe ON pt.person_id = pe.id "
        "WHERE e.encounter_date BETWEEN ? AND ? "
        "ORDER BY e.encounter_date"), """
Project
  Join [kind='INNER', table='person', strategy='hash'] (~120 rows, ~242 touched)
    Join [kind='INNER', table='patient', strategy='hash'] (~120 rows, ~170 touched)
      Filter [predicate=Between(expr=ColumnRef(table='e', column='encounter_date'), low=Param(index=0), high=Param(index=1), negated=False)] (~120 rows, ~120 touched)
        IndexRangeScan [table='encounter', index='idx_encounter_date', bounds='? <= encounter_date <= ?', order='encounter_date ASC (sort elided)'] (~120 rows, ~120 touched)
""", params=("2013-02-01", "2013-03-31"))


# ---------------------------------------------------------------------------
# TPC-C
# ---------------------------------------------------------------------------

def test_tpcc_stock_level_range_scans_order_lines(tpcc_db):
    """The ``ol_o_id < ?`` conjunct turns the order-line access into an
    ordered-index range scan (rendered bounds included); no single-column
    index serves s_i_id, so the stock side stays a hash build and the
    stock-only WHERE conjuncts split into the residual filter above the
    equi join."""
    assert_plan(tpcc_db, (
        "SELECT COUNT(DISTINCT s_i_id) AS low_stock FROM order_line "
        "JOIN stock ON s_i_id = ol_i_id "
        "WHERE ol_d_id = ? AND ol_o_id < ? AND s_w_id = ? "
        "AND s_quantity < ?"), """
Aggregate
  Filter [predicate=BinaryOp(op='AND', left=BinaryOp(op='=', left=ColumnRef(table=None, column='s_w_id'), right=Param(index=2)), right=BinaryOp(op='<', left=ColumnRef(table=None, column='s_quantity'), right=Param(index=3)))] (~3 rows, ~580 touched)
    Join [kind='INNER', table='stock', strategy='hash'] (~3 rows, ~580 touched)
      Filter [predicate=BinaryOp(op='AND', left=BinaryOp(op='=', left=ColumnRef(table=None, column='ol_d_id'), right=Param(index=0)), right=BinaryOp(op='<', left=ColumnRef(table=None, column='ol_o_id'), right=Param(index=1)))] (~9 rows, ~180 touched)
        IndexRangeScan [table='order_line', index='idx_order_line_o', bounds='ol_o_id < ?'] (~9 rows, ~180 touched)
""", params=(1, 21, 1, 70))


def test_tpcc_orders_customer_pk_probe_elides_sort(tpcc_db):
    """ORDER BY o_id rides the ordered index on orders: the walk delivers
    o_id order, the per-row customer PK probe preserves its left input's
    order, and the Sort node disappears from the plan."""
    assert_plan(tpcc_db, (
        "SELECT o_id, c_last FROM orders "
        "JOIN customer ON c_id = o_c_id WHERE o_d_id = ? ORDER BY o_id"), """
Project
  Join [kind='INNER', table='customer', strategy='index', index_name='<pk>'] (~10 rows, ~210 touched)
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table=None, column='o_d_id'), right=Param(index=0))] (~10 rows, ~200 touched)
      IndexRangeScan [table='orders', index='idx_orders_id', order='o_id ASC (sort elided)'] (~10 rows, ~200 touched)
""", params=(1,))


def test_tpcc_customer_by_last_name(tpcc_db):
    assert_plan(tpcc_db, (
        "SELECT c_id, c_balance FROM customer "
        "WHERE c_last = ? AND c_d_id = ? ORDER BY c_id"), """
Sort [order_by=[OrderItem(expr=ColumnRef(table=None, column='c_id'), descending=False)]]
  Project
    Filter [predicate=BinaryOp(op='AND', left=BinaryOp(op='=', left=ColumnRef(table=None, column='c_last'), right=Param(index=0)), right=BinaryOp(op='=', left=ColumnRef(table=None, column='c_d_id'), right=Param(index=1)))] (~1 rows, ~1 touched)
      IndexLookup [table='customer', candidates=['idx_customer_last']] (~1 rows, ~1 touched)
""", params=("BARBARABLE", 1))


# ---------------------------------------------------------------------------
# Writes: the plan of the row search under the write
# ---------------------------------------------------------------------------

def test_tpcc_new_order_stock_update_by_pk(tpcc_db):
    assert_plan(tpcc_db, (
        "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + 5, "
        "s_order_cnt = s_order_cnt + 1 WHERE s_id = ?"), """
Update [table='stock', set=[('s_quantity', Param(index=0)), ('s_ytd', BinaryOp(op='+', left=ColumnRef(table=None, column='s_ytd'), right=Literal(value=5))), ('s_order_cnt', BinaryOp(op='+', left=ColumnRef(table=None, column='s_order_cnt'), right=Literal(value=1)))]]
  Filter [predicate=BinaryOp(op='=', left=ColumnRef(table=None, column='s_id'), right=Param(index=1))] (~1 rows, ~1 touched)
    IndexLookup [table='stock', candidates=['<pk>']] (~1 rows, ~1 touched)
""", params=(40, 7))


def test_tpcc_delivery_new_order_delete_by_pk(tpcc_db):
    assert_plan(tpcc_db, "DELETE FROM new_order WHERE no_o_id = ?", """
Delete [table='new_order']
  Filter [predicate=BinaryOp(op='=', left=ColumnRef(table=None, column='no_o_id'), right=Param(index=0))] (~1 rows, ~1 touched)
    IndexLookup [table='new_order', candidates=['<pk>']] (~1 rows, ~1 touched)
""", params=(8,))


@pytest.fixture
def write_plan_db():
    from test_write_plan import _database

    return _database()


def test_a_range_update_walks_its_ordered_index(write_plan_db):
    assert_plan(write_plan_db, (
        "UPDATE t SET s = 'new', v = v + 1, f = f * 2 "
        "WHERE v > ? AND v < ?"), """
Update [table='t', set=[('s', Literal(value='new')), ('v', BinaryOp(op='+', left=ColumnRef(table=None, column='v'), right=Literal(value=1))), ('f', BinaryOp(op='*', left=ColumnRef(table=None, column='f'), right=Literal(value=2)))]]
  Filter [predicate=BinaryOp(op='AND', left=BinaryOp(op='>', left=ColumnRef(table=None, column='v'), right=Param(index=0)), right=BinaryOp(op='<', left=ColumnRef(table=None, column='v'), right=Param(index=1)))] (~1 rows, ~2 touched)
    IndexRangeScan [table='t', index='t_v', bounds='? < v < ?'] (~1 rows, ~2 touched)
""", params=(15, 55))


def test_an_unindexed_delete_scans(write_plan_db):
    assert_plan(write_plan_db, "DELETE FROM t WHERE s = ?", """
Delete [table='t']
  Filter [predicate=BinaryOp(op='=', left=ColumnRef(table=None, column='s'), right=Param(index=0))] (~2 rows, ~6 touched)
    Scan [table='t', alias='t'] (~6 rows, ~6 touched)
""", params=("x",))


@pytest.mark.parametrize("sql, params, rows", [
    ("UPDATE t SET s = 'new', v = v + 1 WHERE v > ? AND v < ?", (15, 55), 3),
    ("DELETE FROM t WHERE s = ?", ("x",), 2),
    ("UPDATE t SET v = 0 WHERE id = ? AND a = ?", (2, 1), 1),
])
def test_explain_analyze_of_a_write_changes_nothing(write_plan_db, sql,
                                                    params, rows):
    """EXPLAIN ANALYZE of a write runs its row search, reports the rows
    the write would change, and leaves the table as it was, byte for
    byte, and the rows the write then changes are those."""
    db = write_plan_db
    table = db.tables["t"]
    before = repr((table.rows, table._pk_index, {
        name: index._buckets for name, index in table.indexes.items()}))
    header = db.explain(sql, params, analyze=True).splitlines()[0]
    assert header.startswith(f"EXPLAIN ANALYZE [rows={rows}, ")
    assert repr((table.rows, table._pk_index, {
        name: index._buckets for name, index in table.indexes.items()})) \
        == before
    assert db.execute(sql, params).rowcount == rows


# ---------------------------------------------------------------------------
# EXPLAIN is the plan that runs
# ---------------------------------------------------------------------------

def test_explain_is_the_plan_that_runs():
    """EXPLAIN renders the cached plan executions use, not a second
    planning.  Executed with ``a`` at 700 rows, the join probes ``b``
    through ``b_y`` (700 probes beat a 1 000-row hash build).  ``a`` then
    grows to 1 150 rows, short of the >2x size shift from its
    575-row baseline, so the cached plan keeps running — a fresh planning
    would now pick the hash build, and that is what EXPLAIN used to
    print while ANALYZE and every execution ran the index join."""
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, y INT)")
    db.execute("CREATE INDEX b_y ON b (y)")
    for i in range(1000):
        db.execute("INSERT INTO b VALUES (?, ?)", (i, i))
    for i in range(700):
        db.execute("INSERT INTO a VALUES (?, ?)", (i, i))
    sql = "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y"
    db.execute(sql)
    assert not db.catalog.shifted
    for i in range(700, 1150):
        db.execute("INSERT INTO a VALUES (?, ?)", (i, i))
    assert not db.catalog.shifted

    built = db.executor.plans_built
    plan = db.explain(sql)
    analyzed = db.explain(sql, analyze=True)
    assert db.executor.plans_built == built
    for text in (plan, analyzed):
        assert "strategy='index', index_name='b_y'" in text
    assert db.execute(sql).rowcount == 1000
