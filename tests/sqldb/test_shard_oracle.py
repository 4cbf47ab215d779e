"""Cross-topology sharding oracle.

Hypothesis generates a partition column, table data (with NULL partition
keys), and a routed query — partition-key point lookups and IN lists,
scatter reads with ORDER BY / LIMIT / OFFSET, joins against a broadcast
table, aggregates and DISTINCT (the gather path), and broadcast-table
reads — then executes it against a single-node :class:`Database` and
against :class:`ShardedDatabase` facades over 1, 2, and 4 shards under
both hash and range partitioning.

The oracle asserts:

- **byte-identical rows** across every topology (exact order for queries
  whose ORDER BY pins a total order; canonical multisets plus an
  order-contract check otherwise — LIMIT cases always order by a unique
  key, since tie-breaking under a cut is not a portable contract);
- **engine invariance** per topology: the sharded facade run under the
  columnar engine and the row engine returns identical rows *and* identical
  ``rows_touched`` (each shard's execution is engine-invariant, so the
  sum across shards must be too);
- the same equivalences after a random interleaving of autocommit
  writes (inserts, partition-preserving updates, deletes).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.sqldb import Database
from repro.sqldb.shard import HASH, RANGE, PartitionSpec, ShardTopology, \
    ShardedDatabase

# ---------------------------------------------------------------------------
# Topologies: (label, shard count, partition method)
# ---------------------------------------------------------------------------

TOPOLOGIES = [
    ("hash-1", 1, HASH),
    ("hash-2", 2, HASH),
    ("hash-4", 4, HASH),
    ("range-2", 2, RANGE),
    ("range-4", 4, RANGE),
]

#: Range split points per partition column, tuned to the generated value
#: domains (grp: 0..4 plus NULL, id: 0..~120).
_RANGE_BOUNDS = {
    "grp": {2: (2,), 4: (1, 2, 3)},
    "id": {2: (6,), 4: (3, 6, 9)},
}


def make_topology(shards, method, part_col):
    if method == RANGE and shards > 1:
        spec = PartitionSpec(part_col, RANGE, _RANGE_BOUNDS[part_col][shards])
    else:
        spec = PartitionSpec(part_col, HASH)
    return ShardTopology(shards, {"t": spec})


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------

_GRP = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
_VAL = st.integers(min_value=0, max_value=9)
_T_ROWS = st.lists(st.tuples(_GRP, _VAL), min_size=0, max_size=12)
_LK_ROWS = st.lists(_VAL, min_size=0, max_size=5)


@st.composite
def queries(draw):
    """(sql, params, order_positions, exact) — ``order_positions`` is the
    ORDER BY contract as output positions, ``exact`` means the topology
    comparison may demand identical row order (the ORDER BY pins a total
    order)."""
    shape = draw(st.sampled_from(
        ["point_grp", "pk", "in_list", "order_limit", "order_loose",
         "join", "agg", "distinct", "broadcast", "count_where"]))
    if shape == "point_grp":
        return ("SELECT id, grp, val FROM t WHERE grp = ? ORDER BY id",
                (draw(_GRP) or 0,), [(0, False)], True)
    if shape == "pk":
        return ("SELECT id, grp, val FROM t WHERE id = ?",
                (draw(st.integers(min_value=0, max_value=12)),), None, True)
    if shape == "in_list":
        a = draw(st.integers(min_value=0, max_value=4))
        b = draw(st.integers(min_value=0, max_value=4))
        return (f"SELECT id, grp, val FROM t WHERE grp IN ({a}, {b}) "
                "ORDER BY id", (), [(0, False)], True)
    if shape == "order_limit":
        col, pos = draw(st.sampled_from([("grp", 1), ("val", 2)]))
        desc = draw(st.booleans())
        d = "DESC" if desc else "ASC"
        limit = draw(st.integers(min_value=0, max_value=8))
        offset = draw(st.integers(min_value=0, max_value=4))
        tail = f" OFFSET {offset}" if draw(st.booleans()) else ""
        # The trailing unique key makes the cut deterministic.
        return (f"SELECT id, grp, val FROM t ORDER BY {col} {d}, id "
                f"LIMIT {limit}{tail}", (),
                [(pos, desc), (0, False)], True)
    if shape == "order_loose":
        desc = draw(st.booleans())
        return ("SELECT id, val FROM t ORDER BY val "
                + ("DESC" if desc else "ASC"), (), [(1, desc)], False)
    if shape == "join":
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        where = ""
        if draw(st.booleans()):
            where = f" WHERE t.val >= {draw(_VAL)}"
        return (f"SELECT t.id, t.grp, lk.label FROM t {kind} lk "
                f"ON t.grp = lk.id{where} ORDER BY t.id", (),
                [(0, False)], True)
    if shape == "agg":
        return ("SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp "
                "ORDER BY grp", (), [(0, False)], True)
    if shape == "distinct":
        return ("SELECT DISTINCT grp FROM t ORDER BY grp", (),
                [(0, False)], True)
    if shape == "broadcast":
        return ("SELECT id, label FROM lk WHERE id = ?",
                (draw(st.integers(min_value=0, max_value=4)),), None, True)
    return ("SELECT COUNT(*) FROM t WHERE val > ?", (draw(_VAL),),
            None, True)


@st.composite
def shard_cases(draw):
    part_col = draw(st.sampled_from(["grp", "id"]))
    t_rows = draw(_T_ROWS)
    lk_rows = draw(_LK_ROWS)
    query = draw(queries())
    return part_col, t_rows, lk_rows, query


_DDL = ("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INT, val INT);"
        "CREATE TABLE lk (id INTEGER PRIMARY KEY, label INT);")


def seed(db, t_rows, lk_rows):
    db.execute_script(_DDL)
    for pk, (grp, val) in enumerate(t_rows):
        db.execute("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                   (pk, grp, val))
    for pk, label in enumerate(lk_rows):
        db.execute("INSERT INTO lk (id, label) VALUES (?, ?)", (pk, label))
    return db


def canon(rows):
    return sorted([tuple(row) for row in rows], key=repr)


def assert_ordered(rows, order_positions):
    """Adjacent pairs respect the ORDER BY keys with the engine's NULL
    placement (first ascending, last descending)."""
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


def _compare(reference, sharded, order_positions, exact):
    assert reference.columns == sharded.columns
    if exact:
        assert reference.rows == sharded.rows
    else:
        assert canon(reference.rows) == canon(sharded.rows)
        if order_positions:
            assert_ordered(sharded.rows, order_positions)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label,shards,method", TOPOLOGIES,
                         ids=[t[0] for t in TOPOLOGIES])
@given(case=shard_cases())
@settings(max_examples=200, deadline=None)
def test_cross_topology_oracle(label, shards, method, case):
    """Single-node == sharded for every routed query shape, and the
    sharded facade agrees with itself exactly across physical engines
    (rows and ``rows_touched``)."""
    part_col, t_rows, lk_rows, (sql, params, order_positions, exact) = case
    topology = make_topology(shards, method, part_col)
    reference = seed(Database("ref"), t_rows, lk_rows).execute(sql, params)

    columnar = seed(ShardedDatabase(topology, engine="columnar"),
                    t_rows, lk_rows).execute(sql, params)
    row = seed(ShardedDatabase(topology, engine="row"),
               t_rows, lk_rows).execute(sql, params)

    _compare(reference, columnar, order_positions, exact)
    assert columnar.rows == row.rows
    assert columnar.columns == row.columns
    assert columnar.rows_touched == row.rows_touched


_WRITE_OPS = st.lists(st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    _GRP, _VAL), min_size=0, max_size=6)


@pytest.mark.parametrize("label,shards,method", TOPOLOGIES,
                         ids=[t[0] for t in TOPOLOGIES])
@given(case=shard_cases(), ops=_WRITE_OPS)
@settings(max_examples=60, deadline=None)
def test_oracle_after_writes(label, shards, method, case, ops):
    """Interleaved autocommit writes (routed inserts, partition-
    preserving updates, deletes) keep every topology in agreement with
    the single-node reference."""
    part_col, t_rows, lk_rows, (sql, params, order_positions, exact) = case
    topology = make_topology(shards, method, part_col)
    databases = [seed(Database("ref"), t_rows, lk_rows),
                 seed(ShardedDatabase(topology), t_rows, lk_rows)]

    next_id = 100
    for op, grp, val in ops:
        if op == "insert":
            stmt = ("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                    (next_id, grp, val))
            next_id += 1
        elif op == "update":
            # Never touches the partition column (cross-shard moves are
            # rejected by the facade; that contract has its own test).
            stmt = ("UPDATE t SET val = ? WHERE val = ?", (val, (val + 1) % 10))
        else:
            stmt = ("DELETE FROM t WHERE val = ?", (val,))
        for db in databases:
            db.execute(*stmt)

    reference, sharded = (db.execute(sql, params) for db in databases)
    _compare(reference, sharded, order_positions, exact)

    full = "SELECT id, grp, val FROM t ORDER BY id"
    assert databases[0].query(full) == databases[1].query(full)
