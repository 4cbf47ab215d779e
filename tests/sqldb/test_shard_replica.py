"""Replica-staleness oracle.

Hypothesis generates interleavings of autocommit writes and single-shard
reads against a replicated :class:`ShardedDatabase` and pins down the
replication contract:

- **Bounded staleness.**  Every replica-served read leaves the serving
  replica within ``staleness_bound`` log entries of its primary, and the
  rows it returned are exactly what a fresh database replaying the
  replica's applied log *prefix* produces — replicas serve a consistent
  prefix of history, never a smear.
- **Read-your-writes on primaries.**  With replica reads disabled (and
  inside transactions, where the facade always pins to primaries) every
  read reflects every prior write, byte-for-byte against a single-node
  shadow.
- **Result-cache coherence.**  A replica's result cache may serve a hit
  only for the state the replica has applied: with bound 0 a write is
  visible on the very next read of the same statement; with a loose
  bound the cached answer still matches the replica's replayed prefix.
- **Read views.**  Reads under an open view bypass replicas and are
  repeatable regardless of concurrent writes and replica lag.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.shard import PartitionSpec, ShardTopology, ShardedDatabase

_DDL = ("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INT, val INT);"
        "CREATE TABLE lk (id INTEGER PRIMARY KEY, label INT);")

_READ = "SELECT id, grp, val FROM t WHERE grp = ? ORDER BY id"


def make_sharded(staleness_bound, shards=2, replicas=1, **kwargs):
    topology = ShardTopology(shards, {"t": PartitionSpec("grp")},
                             replicas=replicas,
                             staleness_bound=staleness_bound)
    db = ShardedDatabase(topology, **kwargs)
    db.execute_script(_DDL)
    return db


def replay_prefix(sh, applied):
    """A fresh database holding exactly the replica's applied state."""
    shadow = Database("shadow")
    shadow.execute_script(_DDL)
    for entry in sh.log[:applied]:
        for stmt, params in entry:
            shadow.execute_parsed(stmt, params)
    return shadow


# ops: (kind, grp, val) — kind "w" inserts, "u" updates, "d" deletes,
# "r" reads grp via the replica path.
_OPS = st.lists(st.tuples(st.sampled_from(["w", "w", "u", "d", "r", "r"]),
                          st.integers(min_value=0, max_value=4),
                          st.integers(min_value=0, max_value=9)),
                min_size=1, max_size=24)


@given(ops=_OPS, bound=st.integers(min_value=0, max_value=3))
@settings(max_examples=120, deadline=None)
def test_bounded_staleness_prefix_consistency(ops, bound):
    """Replica reads stay within the staleness bound and return exactly
    the replayed applied-prefix state."""
    db = make_sharded(bound)
    spec = db.topology.spec_for("t")
    next_id = 0
    for kind, grp, val in ops:
        if kind == "w":
            db.execute("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                       (next_id, grp, val))
            next_id += 1
        elif kind == "u":
            db.execute("UPDATE t SET val = ? WHERE grp = ?", (val, grp))
        elif kind == "d":
            db.execute("DELETE FROM t WHERE grp = ? AND val = ?", (grp, val))
        else:
            result = db.execute(_READ, (grp,))
            shard = spec.shard_of(grp, db.topology.shards)
            sh = db.shards[shard]
            rep = sh.replicas[0]
            assert db.replica_lag(shard) <= bound
            shadow = replay_prefix(sh, rep.applied)
            assert result.rows == shadow.execute(_READ, (grp,)).rows


@given(ops=_OPS)
@settings(max_examples=80, deadline=None)
def test_read_your_writes_on_primary(ops):
    """With replica reads disabled every read sees every prior write."""
    db = make_sharded(staleness_bound=3, read_from_replicas=False)
    shadow = Database("shadow")
    shadow.execute_script(_DDL)
    next_id = 0
    for kind, grp, val in ops:
        if kind == "w":
            stmt = ("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                    (next_id, grp, val))
            next_id += 1
        elif kind == "u":
            stmt = ("UPDATE t SET val = ? WHERE grp = ?", (val, grp))
        elif kind == "d":
            stmt = ("DELETE FROM t WHERE grp = ? AND val = ?", (grp, val))
        else:
            assert (db.execute(_READ, (grp,)).rows
                    == shadow.execute(_READ, (grp,)).rows)
            continue
        db.execute(*stmt)
        shadow.execute(*stmt)


def test_transaction_reads_pin_to_primary():
    """Inside a transaction reads bypass replicas entirely, so writes in
    the transaction are immediately visible (read-your-writes) even with
    a loose staleness bound."""
    db = make_sharded(staleness_bound=3)
    db.execute("BEGIN")
    db.execute("INSERT INTO t (id, grp, val) VALUES (1, 2, 7)")
    assert db.execute(_READ, (2,)).rows == [(1, 2, 7)]
    db.execute("COMMIT")
    # Post-commit the facade may serve replicas again (the loose bound
    # allows the commit to lag there); the primary has it immediately.
    db.read_from_replicas = False
    assert db.execute(_READ, (2,)).rows == [(1, 2, 7)]


def test_zero_bound_write_visible_through_result_cache():
    """With bound 0 the replica catches up before serving, which bumps
    its write versions and invalidates its result cache: a repeated
    statement never serves a stale hit."""
    db = make_sharded(staleness_bound=0)
    db.execute("INSERT INTO t (id, grp, val) VALUES (1, 2, 7)")
    assert db.execute(_READ, (2,)).rows == [(1, 2, 7)]
    # Warm the replica's result cache, then write behind its back.
    assert db.execute(_READ, (2,)).rows == [(1, 2, 7)]
    db.execute("UPDATE t SET val = 8 WHERE grp = 2")
    assert db.execute(_READ, (2,)).rows == [(1, 2, 8)]


def test_loose_bound_cache_hit_matches_replica_prefix():
    """Under a loose bound a cached replica answer is allowed to lag —
    but only to the replica's own applied prefix, never arbitrarily."""
    db = make_sharded(staleness_bound=2)
    spec = db.topology.spec_for("t")
    shard = spec.shard_of(2, db.topology.shards)
    db.execute("INSERT INTO t (id, grp, val) VALUES (1, 2, 7)")
    db.execute(_READ, (2,)).rows  # catches the replica up within the bound
    db.execute("UPDATE t SET val = 8 WHERE grp = 2")
    db.execute("UPDATE t SET val = 9 WHERE grp = 2")
    result = db.execute(_READ, (2,))
    sh = db.shards[shard]
    assert db.replica_lag(shard) <= 2
    shadow = replay_prefix(sh, sh.replicas[0].applied)
    assert result.rows == shadow.execute(_READ, (2,)).rows
    # Forcing freshness (a primary read) sees the final state.
    db.read_from_replicas = False
    assert db.execute(_READ, (2,)).rows == [(1, 2, 9)]


def test_replica_round_robin_spreads_reads():
    """Two replicas alternate serving consecutive reads of one shard."""
    db = make_sharded(staleness_bound=0, replicas=2)
    db.execute("INSERT INTO t (id, grp, val) VALUES (1, 2, 7)")
    stations = set()
    for _ in range(4):
        result = db.execute(_READ, (2,))
        ((station, _rows, _cached),) = result.shard_phases[0]
        stations.add(station)
    shard = db.topology.spec_for("t").shard_of(2, db.topology.shards)
    assert stations == {f"{shard}r0", f"{shard}r1"}
