"""Golden EXPLAIN plans for routed statements on a sharded backend.

These lock the router's classification (single-shard / scatter / gather),
the merge strategy annotations (k-way ordered merge keys, per-shard LIMIT
pushdown, coordinator gather) and the inner per-shard plan, so any change
to routing rules or the scatter rewrite surfaces as a readable plan diff.

The database is built fresh at module scope with deterministic seed data
so inner-plan row estimates cannot drift with test execution order.
"""

import pytest

from repro.sqldb.shard import PartitionSpec, ShardTopology, ShardedDatabase


@pytest.fixture(scope="module")
def sharded_db():
    topology = ShardTopology(4, {"t": PartitionSpec("grp"),
                                 "child": PartitionSpec("grp")})
    db = ShardedDatabase(topology)
    db.execute_script("""
        CREATE TABLE t (id INTEGER PRIMARY KEY, grp INT, val INT);
        CREATE TABLE child (id INTEGER PRIMARY KEY, grp INT, note TEXT);
        CREATE TABLE lk (id INTEGER PRIMARY KEY, label TEXT);
    """)
    for i in range(20):
        db.execute("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                   (i, i % 5, i * 3 % 7))
        db.execute("INSERT INTO child (id, grp, note) VALUES (?, ?, ?)",
                   (i, i % 5, f"n{i}"))
    for i in range(5):
        db.execute("INSERT INTO lk (id, label) VALUES (?, ?)", (i, f"l{i}"))
    return db


def assert_plan(db, sql, expected, params=None):
    assert db.explain(sql, params) == expected.strip("\n")


# ---------------------------------------------------------------------------
# Single-shard routes
# ---------------------------------------------------------------------------

def test_partition_key_point_lookup_routes_to_one_shard(sharded_db):
    """Partition-key equality resolves at routing time — one shard runs
    the unmodified statement.  Inside the owning shard every row shares
    that grp value, and the snapshot distinct count (one value) prices the
    filter at all four rows."""
    assert_plan(sharded_db, "SELECT id, grp, val FROM t WHERE grp = ?", """
ShardRouting [kind='single', shard=3, key match on t.grp]
  Project
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table=None, column='grp'), right=Param(index=0))] (~4 rows, ~4 touched)
      Scan [table='t', alias='t'] (~4 rows, ~4 touched)
""", params=(3,))


def test_co_partitioned_join_stays_single_shard(sharded_db):
    """An INNER join of two tables partitioned on the same key, pinned by
    an equality on that key, runs entirely on the owning shard."""
    assert_plan(sharded_db, (
        "SELECT t.id, c.note FROM t JOIN child c "
        "ON t.grp = c.grp AND t.id = c.id WHERE t.grp = 2"), """
ShardRouting [kind='single', shard=2, key match on child.grp, t.grp]
  Project
    Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='t', column='grp'), right=ColumnRef(table='c', column='grp'))] (~1 rows, ~8 touched)
      Join [kind='INNER', table='child', strategy='index', index_name='<pk>'] (~1 rows, ~8 touched)
        Filter [predicate=BinaryOp(op='=', left=ColumnRef(table='t', column='grp'), right=Literal(value=2))] (~4 rows, ~4 touched)
          Scan [table='t', alias='t'] (~4 rows, ~4 touched)
""")


# ---------------------------------------------------------------------------
# Scatter-gather with merge
# ---------------------------------------------------------------------------

def test_scatter_with_ordered_merge(sharded_db):
    """An unrestricted ordered read scatters to every shard; the
    coordinator k-way-merges the per-shard ordered streams on the output
    positions of the ORDER BY keys."""
    assert_plan(sharded_db, "SELECT id, grp, val FROM t ORDER BY val DESC, id", """
ShardRouting [kind='scatter', shards=[0, 1, 2, 3], distributive over all shards]
ShardMerge [k-way ordered merge on (2 DESC, 0)]
  Sort [order_by=[OrderItem(expr=ColumnRef(table=None, column='val'), descending=True), OrderItem(expr=ColumnRef(table=None, column='id'), descending=False)]]
    Project
      Scan [table='t', alias='t'] (~8 rows, ~8 touched)
""")


def test_aggregate_gathers_to_coordinator(sharded_db):
    """Global grouping is not distributive: the partitioned table is
    pulled to the coordinator, which runs the original plan locally."""
    assert_plan(sharded_db, "SELECT grp, COUNT(*) FROM t GROUP BY grp", """
ShardRouting [kind='gather', shards=[0, 1, 2, 3], reason='GROUP BY/HAVING needs global grouping']
ShardGather [pull t to coordinator, execute locally]
  Aggregate [group_by=[ColumnRef(table=None, column='grp')]]
    Scan [table='t', alias='t'] (~20 rows, ~20 touched)
""")


# ---------------------------------------------------------------------------
# Scatter with LIMIT pushdown
# ---------------------------------------------------------------------------

def test_scatter_limit_pushdown(sharded_db):
    """The literal LIMIT is pushed per shard: each shard returns at most
    5 rows and the merge applies the global cut."""
    assert_plan(sharded_db, "SELECT id, val FROM t ORDER BY id LIMIT 5", """
ShardRouting [kind='scatter', shards=[0, 1, 2, 3], distributive over all shards]
ShardMerge [k-way ordered merge on (0)]
ShardLimit [pushdown: LIMIT 5 per shard]
  Limit
    Sort [order_by=[OrderItem(expr=ColumnRef(table=None, column='id'), descending=False)]]
      Project
        Scan [table='t', alias='t'] (~8 rows, ~8 touched)
""")


def test_scatter_limit_offset_pushdown_widens_per_shard_cut(sharded_db):
    """LIMIT 3 OFFSET 2 pushes LIMIT 5 per shard (any shard might hold
    all of the skipped prefix); the merge applies the exact global
    offset and limit."""
    assert_plan(sharded_db, (
        "SELECT id, val FROM t WHERE val > 2 "
        "ORDER BY val, id LIMIT 3 OFFSET 2"), """
ShardRouting [kind='scatter', shards=[0, 1, 2, 3], distributive over all shards]
ShardMerge [k-way ordered merge on (1, 0)]
ShardLimit [pushdown: LIMIT 5 per shard]
  Limit
    Sort [order_by=[OrderItem(expr=ColumnRef(table=None, column='val'), descending=False), OrderItem(expr=ColumnRef(table=None, column='id'), descending=False)]]
      Project
        Filter [predicate=BinaryOp(op='>', left=ColumnRef(table=None, column='val'), right=Literal(value=2))] (~2 rows, ~8 touched)
          Scan [table='t', alias='t'] (~8 rows, ~8 touched)
""")


# ---------------------------------------------------------------------------
# Broadcast reads and writes
# ---------------------------------------------------------------------------

def test_broadcast_read_pins_deterministically(sharded_db):
    plan = sharded_db.explain("SELECT id, label FROM lk WHERE id = ?",
                              params=(1,))
    first = plan.splitlines()[0]
    assert first.startswith("ShardRouting [kind='broadcast_read'")
    assert sharded_db.explain("SELECT id, label FROM lk WHERE id = ?",
                              params=(1,)) == plan


def test_write_explains_name_their_targets(sharded_db):
    single = sharded_db.explain("UPDATE t SET val = 0 WHERE grp = 1")
    assert single.splitlines()[0].startswith(
        "ShardRouting [kind='primary_write'")
    broadcast = sharded_db.explain("UPDATE lk SET label = 'x' WHERE id = 1")
    assert broadcast.splitlines()[0].startswith(
        "ShardRouting [kind='broadcast_write'")
