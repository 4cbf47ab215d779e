"""The sharded, replicated database facade.

:class:`ShardedDatabase` duck-types :class:`repro.sqldb.Database` for every
consumer above the storage layer — :class:`repro.net.server.DatabaseServer`,
the drivers, the app server, the bench harness — while spreading storage
across ``topology.shards`` independent :class:`Database` primaries, each
with ``topology.replicas`` read replicas.

**Reads** go through the :class:`~repro.sqldb.shard.router.Router`:
single-shard and broadcast reads execute on one backend; scatter reads run
the (possibly rewritten) statement on every target shard and merge the
ordered per-shard streams with the engine's own ``SortOp`` sort (stable;
it merges the streams' runs), LIMIT+OFFSET pushed per shard as a plain
``LIMIT`` so each shard's sort-elision / ``limit_hint`` machinery
applies; gather reads lazily sync the referenced partitioned tables into
a coordinator database and execute there.

**Writes** route to primaries (split per shard for INSERT, key-routed for
UPDATE/DELETE), bump the owning shard's table versions — which is what
keeps each shard's result cache correct, exactly as on a single node — and
append to the shard's **replication log**.  Replicas apply log entries on
demand: a replica read first catches up until its lag is within
``topology.staleness_bound`` entries, so bounded staleness is a property
enforced at read time, not a race.  DDL is a replication barrier (replicas
catch up fully, then apply the DDL directly).

**Cost accounting**: every result carries ``shard_phases`` — a tuple of
sequential phases, each a tuple of ``(station, rows_touched, from_cache)``
entries that execute in parallel.  The server charges each phase as the
``max()`` over its stations (see ``docs/cost-model.md``), which is what
makes a scatter over N shards cost one shard's work, not N.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.database import Database
from repro.sqldb.errors import SqlError, SqlTypeError
from repro.sqldb.executor import as_params
from repro.sqldb.parser import parse
from repro.sqldb.plan import explain
from repro.sqldb.plan.physical import resolve_limit, sort_rows
from repro.sqldb.result import ExecResult
from repro.sqldb.result_cache import DEFAULT_RESULT_CACHE_LIMIT
from repro.sqldb.shard.router import (KIND_BROADCAST_READ, KIND_GATHER,
                                      KIND_SCATTER, KIND_SINGLE, Router)

#: station id of the gather coordinator in ``shard_phases``
COORD_STATION = "coord"


class _Replica:
    """One read replica: a full Database plus its replication cursor."""

    __slots__ = ("db", "applied")

    def __init__(self, db):
        self.db = db
        self.applied = 0  # log entries applied so far


class _Shard:
    """One shard: primary, replicas, replication log, txn write buffer."""

    __slots__ = ("index", "primary", "replicas", "log", "txn_buffer",
                 "next_replica")

    def __init__(self, index, primary, replicas):
        self.index = index
        self.primary = primary
        self.replicas = replicas
        # The replication log: each entry is one atomic batch of
        # ``(stmt, params)`` pairs — a single auto-committed write, or all
        # of one transaction's writes appended at COMMIT.
        self.log = []
        self.txn_buffer = []
        self.next_replica = 0


class ShardedResultCache:
    """Aggregate view over every backend's result cache.

    The caches themselves stay per-backend — keyed on that backend's own
    table versions, which is exactly what makes replica cache hits respect
    the staleness bound (a replica's cache can never be fresher than the
    replica).  This facade only fans out ``enabled`` and ``clear`` and sums
    the counters in ``stats()``.
    """

    def __init__(self, owner):
        self._owner = owner
        self._enabled = True

    def _caches(self):
        for db in self._owner.all_databases():
            yield db.result_cache

    @property
    def enabled(self):
        return self._enabled

    @enabled.setter
    def enabled(self, value):
        self._enabled = bool(value)
        for cache in self._caches():
            cache.enabled = self._enabled and cache.limit > 0

    def clear(self):
        for cache in self._caches():
            cache.clear()

    def __len__(self):
        return sum(len(c) for c in self._caches())

    def stats(self):
        totals = {}
        for cache in self._caches():
            for key, value in cache.stats().items():
                if isinstance(value, bool):
                    totals[key] = totals.get(key, False) or value
                elif isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        totals["enabled"] = self._enabled
        return totals


class ShardedDatabase:
    """Hash/range-partitioned cluster of :class:`Database` backends."""

    #: the server's shared-scan batch planner needs direct executor access;
    #: sharded batches fall back to the direct per-statement path.
    supports_batch_plan = False

    def __init__(self, topology, name="sharded", optimizer_options=None,
                 result_cache_size=DEFAULT_RESULT_CACHE_LIMIT,
                 engine=None, read_from_replicas=None):
        self.topology = topology
        self.name = name
        self._result_cache_size = result_cache_size

        def make(suffix, cache_size=result_cache_size):
            return Database(f"{name}-{suffix}",
                            optimizer_options=optimizer_options,
                            result_cache_size=cache_size, engine=engine)

        self.shards = [
            _Shard(i, make(f"s{i}"),
                   [_Replica(make(f"s{i}r{j}"))
                    for j in range(topology.replicas)])
            for i in range(topology.shards)
        ]
        self.router = Router(topology, self.shards[0].primary)
        # The gather coordinator: holds broadcast tables (kept in sync on
        # write) and lazily-synced copies of partitioned tables.  No result
        # cache — its contents are rebuilt, not invalidated.
        self._coord = make("coord", cache_size=0)
        self._coord_synced = {}  # table -> per-shard version signature
        self.read_from_replicas = (topology.replicas > 0
                                   if read_from_replicas is None
                                   else read_from_replicas)
        self.result_cache = ShardedResultCache(self)
        self.total_rows_touched = 0
        self._in_txn = False

    # -- topology plumbing ---------------------------------------------------

    def all_databases(self):
        """Every backend: primaries, replicas, then the coordinator."""
        for sh in self.shards:
            yield sh.primary
            for rep in sh.replicas:
                yield rep.db
        yield self._coord

    @property
    def engine(self):
        return self._coord.engine

    @engine.setter
    def engine(self, value):
        for db in self.all_databases():  # the first backend validates
            db.engine = value

    def primary(self, shard):
        return self.shards[shard].primary

    @property
    def planner_backend(self):
        """A representative backend to plan statements against.

        Shard schemas are identical, so structural plan questions (is
        this a shared-scannable SELECT?  a pk point lookup?) answer the
        same on any primary.  The trace recorder uses this to classify
        single-station statements for cross-request merging."""
        return self.shards[0].primary

    # -- Database facade -----------------------------------------------------

    def execute_parsed(self, stmt, params=()):
        params = as_params(params)
        if isinstance(stmt, A.Select):
            result = self._execute_read(stmt, params)
        else:
            result = self._execute_write(stmt, params)
        self.record_statement(result.rows_touched)
        return result

    def record_statement(self, rows_touched):
        self.total_rows_touched += rows_touched

    # Written against ``self.execute_parsed`` / ``self.execute`` alone: the
    # facade reuses the single-node definitions instead of carrying copies.
    execute = Database.execute
    execute_script = Database.execute_script
    query = Database.query

    def result_cache_stats(self):
        return self.result_cache.stats()

    def table_size(self, name):
        if self.topology.is_partitioned(name):
            return sum(len(sh.primary.tables_get(name)) for sh in self.shards)
        return len(self.shards[0].primary.tables_get(name))

    def snapshot_counts(self):
        counts = {}
        for name in sorted(self.shards[0].primary.tables):
            counts[name] = self.table_size(name)
        return counts

    def engine_stats(self):
        return {
            "engine": self.engine,
            "batches_executed": sum(db.executor.batches_executed
                                    for db in self.all_databases()),
            "plans_built": sum(db.executor.plans_built
                               for db in self.all_databases()),
        }

    # -- reads ---------------------------------------------------------------

    def _execute_read(self, stmt, params):
        decision = self.router.decide(stmt, params)
        if decision.kind in (KIND_SINGLE, KIND_BROADCAST_READ):
            result, station = self._read_on(decision.shards[0], stmt, params)
            return _with_phases(result, (
                ((station, result.rows_touched, result.from_cache),),))
        if decision.kind == KIND_SCATTER:
            return self._execute_scatter(stmt, params, decision)
        return self._execute_gather(stmt, params)

    def _read_on(self, shard, stmt, params):
        """Run one read on a shard — replica when permitted, else primary.

        Returns ``(result, station_id)``.  Replicas are skipped inside
        transactions (read-your-writes needs the primary's uncommitted
        state).
        """
        sh = self.shards[shard]
        if sh.replicas and self.read_from_replicas and not self._in_txn:
            idx = sh.next_replica
            sh.next_replica = (idx + 1) % len(sh.replicas)
            rep = sh.replicas[idx]
            self._catch_up(sh, rep, self.topology.staleness_bound)
            return rep.db.execute_parsed(stmt, params), f"{shard}r{idx}"
        return sh.primary.execute_parsed(stmt, params), shard

    def _execute_scatter(self, stmt, params, decision):
        merge = self.router.plan_select(stmt).merge
        per_shard = []
        entries = []
        for shard in decision.shards:
            result, station = self._read_on(shard, merge.stmt, params)
            per_shard.append(result)
            entries.append((station, result.rows_touched, result.from_cache))
        rows, columns = _merge_streams(per_shard, merge, stmt, params)
        merged = ExecResult(
            columns, rows, rowcount=len(rows),
            rows_touched=sum(r.rows_touched for r in per_shard),
            from_cache=all(r.from_cache for r in per_shard))
        merged.shard_phases = (tuple(entries),)
        return merged

    # -- gather (coordinator) ------------------------------------------------

    def _execute_gather(self, stmt, params):
        plan = self.router.plan_select(stmt)
        sync_entries = []
        for name in sorted(plan.partitioned):
            sync_entries.extend(self._sync_coord_table(name))
        result = self._coord.execute_parsed(stmt, params)
        phases = []
        if sync_entries:
            phases.append(tuple(sync_entries))
        phases.append(((COORD_STATION, result.rows_touched, False),))
        pulled = sum(entry[1] for entry in sync_entries)
        out = ExecResult(result.columns, result.rows, result.rowcount,
                         result.rows_touched + pulled, result.last_insert_id)
        out.shard_phases = tuple(phases)
        return out

    def _sync_coord_table(self, name):
        """Refresh the coordinator's copy of one partitioned table.

        Skipped (and free) when every primary's committed version matches
        the last sync.  Under an open transaction the pull always re-runs
        and the signature is invalidated — the pulled rows are
        transaction-relative.
        """
        unstable = any(sh.primary.transactions.in_transaction
                       for sh in self.shards)
        signature = tuple(sh.primary.tables_get(name).write_version
                          for sh in self.shards)
        if not unstable and self._coord_synced.get(name) == signature:
            return []
        pull = parse(f"SELECT * FROM {name}")
        entries = []
        pulled_rows = []
        for sh in self.shards:
            result = sh.primary.execute_parsed(pull, ())
            entries.append((sh.index, result.rows_touched,
                            result.from_cache))
            pulled_rows.extend(result.rows)
        table = self._coord.tables_get(name)
        table.truncate()
        for row in pulled_rows:
            table.insert_row(list(row))
        self._coord_synced[name] = None if unstable else signature
        return entries

    # -- writes --------------------------------------------------------------

    def _execute_write(self, stmt, params):
        kind = type(stmt)
        if kind is A.Insert:
            return self._write_insert(stmt, params)
        if kind in (A.Update, A.Delete):
            return self._write_update_delete(stmt, params)
        if kind is A.Truncate:
            return self._write_truncate(stmt, params)
        if kind in (A.CreateTable, A.CreateIndex, A.DropTable, A.DropIndex):
            return self._apply_ddl(stmt, params)
        if kind in (A.Begin, A.Commit, A.Rollback):
            return self._txn_control(stmt)
        raise SqlError(f"cannot route statement {stmt!r}")

    def _write_insert(self, stmt, params):
        spec = self.topology.spec_for(stmt.table)
        if spec is None:
            return self._broadcast_write(stmt, params)
        column = self.shards[0].primary.tables_get(
            stmt.table).schema.column(spec.column)
        if stmt.columns is None:  # VALUES in schema order
            key_at = column.ordinal
        elif spec.column in stmt.columns:
            key_at = stmt.columns.index(spec.column)
        else:
            key_at = None  # partition key omitted -> NULL -> shard 0
        groups = {}
        last_shard = None
        for row in stmt.rows:
            # A short row routes anywhere: its shard refuses it.
            value = (None if key_at is None or key_at >= len(row)
                     else _stored_key(column, row[key_at], params,
                                      stmt.table))
            shard = spec.shard_of(value, self.topology.shards)
            groups.setdefault(shard, []).append(row)
            last_shard = shard
        entries = []
        rowcount = 0
        rows_touched = 0
        last_insert_id = None
        for shard in sorted(groups):
            sub = (stmt if len(groups) == 1
                   else A.Insert(stmt.table, stmt.columns, groups[shard]))
            result = self.shards[shard].primary.execute_parsed(sub, params)
            self._log_write(shard, sub, params)
            rowcount += result.rowcount
            rows_touched += result.rows_touched
            entries.append((shard, result.rows_touched, False))
            if shard == last_shard:
                last_insert_id = result.last_insert_id
        out = ExecResult(rowcount=rowcount, rows_touched=rows_touched,
                         last_insert_id=last_insert_id)
        out.shard_phases = (tuple(entries),)
        return out

    def _fan_out(self, stmt, params, shards, log=True, copies=False):
        """Run one write on the primaries of ``shards``, appending it to
        each shard's replication log unless ``log`` is false.  The result
        sums the per-shard counts — or, when the shards hold ``copies`` of
        one logical table (broadcast tables, DDL), is the first shard's:
        the copies are replicas, not additional rows."""
        results = []
        for shard in shards:
            results.append(
                self.shards[shard].primary.execute_parsed(stmt, params))
            if log:
                self._log_write(shard, stmt, params)
        if copies:
            first = results[0]
            out = ExecResult(first.columns, first.rows, first.rowcount,
                             first.rows_touched, first.last_insert_id)
        else:
            out = ExecResult(
                rowcount=sum(r.rowcount for r in results),
                rows_touched=sum(r.rows_touched for r in results))
        out.shard_phases = (tuple(
            (shard, r.rows_touched, False)
            for shard, r in zip(shards, results)),)
        return out

    def _write_update_delete(self, stmt, params):
        spec = self.topology.spec_for(stmt.table)
        if spec is None:
            return self._broadcast_write(stmt, params)
        if isinstance(stmt, A.Update):
            self._check_partition_key_update(stmt, params, spec)
        return self._fan_out(stmt, params,
                             self.router.write_shards(stmt, params))

    def _check_partition_key_update(self, stmt, params, spec):
        """Reject UPDATEs that would move a row to a different shard."""
        for name, expr in stmt.assignments:
            if name != spec.column:
                continue
            shards = self.router.write_shards(stmt, params)
            column = self.shards[0].primary.tables_get(
                stmt.table).schema.column(name)
            new_value = _stored_key(column, expr, params, stmt.table)
            target = spec.shard_of(new_value, self.topology.shards)
            if len(shards) != 1 or shards[0] != target:
                raise SqlError(
                    f"UPDATE would move rows of partitioned table "
                    f"{stmt.table!r} across shards (reassigning "
                    f"{spec.column!r}); delete and re-insert instead")

    def _write_truncate(self, stmt, params):
        if self.topology.spec_for(stmt.table) is None:
            return self._broadcast_write(stmt, params)
        return self._fan_out(stmt, params, range(len(self.shards)))

    def _broadcast_write(self, stmt, params):
        """A write to a broadcast table: applied on every primary and on
        the coordinator, which owns live copies of broadcast tables."""
        out = self._fan_out(stmt, params, range(len(self.shards)),
                            copies=True)
        self._coord.execute_parsed(stmt, params)
        return out

    def _apply_ddl(self, stmt, params):
        """DDL is a replication barrier: every replica catches up fully,
        then the DDL applies everywhere directly (never through the log)."""
        replicas = [(sh, rep) for sh in self.shards for rep in sh.replicas]
        for sh, rep in replicas:
            self._catch_up(sh, rep, 0)
        out = self._fan_out(stmt, params, range(len(self.shards)),
                            log=False, copies=True)
        for _, rep in replicas:
            rep.db.execute_parsed(stmt, params)
        self._coord.execute_parsed(stmt, params)
        return out

    def _txn_control(self, stmt):
        kind = type(stmt)
        for sh in self.shards:
            sh.primary.execute_parsed(stmt, ())
        self._coord.execute_parsed(stmt, ())
        if kind is A.Begin:
            self._in_txn = True
            for sh in self.shards:
                sh.txn_buffer = []
        elif kind is A.Commit:
            self._in_txn = False
            for sh in self.shards:
                if sh.txn_buffer:
                    sh.log.append(sh.txn_buffer)
                sh.txn_buffer = []
        else:  # Rollback
            self._in_txn = False
            for sh in self.shards:
                sh.txn_buffer = []
        out = ExecResult()
        out.shard_phases = (tuple(
            (sh.index, 0, False) for sh in self.shards),)
        return out

    # -- replication ---------------------------------------------------------

    def _log_write(self, shard, stmt, params):
        sh = self.shards[shard]
        if self._in_txn:
            sh.txn_buffer.append((stmt, params))
        else:
            sh.log.append([(stmt, params)])

    def _catch_up(self, sh, rep, staleness_bound):
        """Apply log entries until the replica's lag is within bound."""
        target = len(sh.log) - staleness_bound
        while rep.applied < target:
            for stmt, params in sh.log[rep.applied]:
                rep.db.execute_parsed(stmt, params)
            rep.applied += 1

    def replica_lag(self, shard, replica=0):
        """Log entries the replica has not applied yet (tests/monitoring)."""
        sh = self.shards[shard]
        return len(sh.log) - sh.replicas[replica].applied

    # -- EXPLAIN -------------------------------------------------------------

    def explain(self, sql, params=None, analyze=False):
        """The routed plan: shard routing annotations above the plan of the
        statement each backend actually runs — the backend's cached plan
        (``Executor.plan_for``), rendered as :meth:`Database.explain`
        renders it.

        Single-shard and broadcast reads render the target shard
        primary's plan; scatter reads render shard 0's plan of the
        *rewritten* per-shard statement (appended merge keys, pushed LIMIT)
        plus the merge strategy; gather reads render the coordinator's
        plan.  ``analyze`` is unsupported here — profile the per-shard
        statement on a :class:`Database` directly.
        """
        if analyze:
            raise SqlError("EXPLAIN ANALYZE is per-backend; run it on a "
                           "shard's Database")
        stmt = parse(sql)
        if not isinstance(stmt, A.Select):
            return self._explain_write(stmt, params)
        decision = self.router.decide(stmt, params or ())
        plan = self.router.plan_select(stmt)
        lines = []
        if decision.kind == KIND_SINGLE:
            shard = decision.shards[0]
            lines.append(f"ShardRouting [kind='single', shard={shard}, "
                         f"{decision.detail}]")
            inner_db, inner_stmt = self.shards[shard].primary, stmt
        elif decision.kind == KIND_BROADCAST_READ:
            shard = decision.shards[0]
            lines.append(f"ShardRouting [kind='broadcast_read', "
                         f"shard={shard}, {decision.detail}]")
            inner_db, inner_stmt = self.shards[shard].primary, stmt
        elif decision.kind == KIND_SCATTER:
            merge = plan.merge
            lines.append(f"ShardRouting [kind='scatter', "
                         f"shards={list(decision.shards)}, "
                         f"{decision.detail}]")
            if merge.key_positions:
                keys = ", ".join(
                    ("{}{}".format(pos if not isinstance(pos, tuple)
                                   else pos[1], " DESC" if desc else ""))
                    for pos, desc in merge.key_positions)
                lines.append(f"ShardMerge [k-way ordered merge on ({keys})"
                             + (f", strip {merge.extra_cols} carried "
                                f"key column(s)" if merge.extra_cols else "")
                             + "]")
            else:
                lines.append("ShardMerge [concatenate in shard order]")
            if merge.pushed_limit is not None:
                lines.append(f"ShardLimit [pushdown: LIMIT "
                             f"{merge.pushed_limit} per shard]")
            inner_db, inner_stmt = self.shards[0].primary, merge.stmt
        else:
            lines.append(f"ShardRouting [kind='gather', "
                         f"shards={list(decision.shards)}, "
                         f"reason='{decision.detail}']")
            tables = ", ".join(sorted(plan.partitioned))
            lines.append(f"ShardGather [pull {tables} to coordinator, "
                         f"execute locally]")
            for name in sorted(plan.partitioned):
                self._sync_coord_table(name)
            inner_db, inner_stmt = self._coord, stmt
        rendered = explain(
            inner_db.executor.plan_for(inner_db, inner_stmt).logical)
        lines.extend("  " + line for line in rendered.splitlines())
        return "\n".join(lines)

    def _explain_write(self, stmt, params):
        if isinstance(stmt, (A.Insert, A.Update, A.Delete, A.Truncate)):
            spec = self.topology.spec_for(stmt.table)
            if spec is None:
                return (f"ShardRouting [kind='broadcast_write', "
                        f"shards={list(range(self.topology.shards))}]"
                        f"\n  {stmt!r}")
            if isinstance(stmt, (A.Update, A.Delete)):
                try:
                    shards = self.router.write_shards(stmt, params or ())
                except SqlError:
                    shards = list(range(self.topology.shards))
            else:
                shards = None
            where = (f"shards={shards}" if shards is not None
                     else f"split by {spec.describe()}")
            return (f"ShardRouting [kind='primary_write', {where}]"
                    f"\n  {stmt!r}")
        return repr(stmt)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _with_phases(result, phases):
    out = ExecResult(result.columns, result.rows, result.rowcount,
                     result.rows_touched, result.last_insert_id,
                     result.from_cache)
    out.shard_phases = phases
    return out


def _stored_key(column, expr, params, table):
    """A written partition key as ``column`` stores it (its coercer), so
    ``2.0`` in an INTEGER key is placed where ``2`` is; a value the column
    refuses routes as given — its shard raises."""
    value = _routed_value(expr, params, table)
    try:
        return column.coerce(value)
    except SqlTypeError:
        return value


def _routed_value(expr, params, table):
    if isinstance(expr, A.Literal):
        return expr.value
    if isinstance(expr, A.Param):
        if expr.index >= len(params):
            raise SqlError(f"missing parameter {expr.index}")
        return params[expr.index]
    raise SqlError(
        f"partition key of table {table!r} must be a literal or a "
        f"parameter to route the write")


def _merge_streams(per_shard, merge, stmt, params):
    """Merge per-shard result streams into the global row list."""
    width = len(per_shard[0].columns) - merge.extra_cols
    columns = per_shard[0].columns[:width]
    rows = [row for r in per_shard for row in r.rows]
    if merge.key_positions:
        positions = []
        for pos, _ in merge.key_positions:
            if isinstance(pos, tuple):  # ("name", column) — SELECT * path
                pos = per_shard[0].columns.index(pos[1])
            positions.append(pos)
        # Each stream is sorted on these keys by its shard's SortOp, so the
        # stable sort merges runs, and ties resolve by shard index —
        # deterministic under every topology.
        rows = sort_rows(rows, [[row[pos] for row in rows]
                                for pos in positions],
                         [desc for _, desc in merge.key_positions])
    if stmt.limit is not None:
        limit, offset = resolve_limit(stmt.limit, stmt.offset, params)
        rows = rows[offset:offset + limit]
    if merge.extra_cols:
        rows = [row[:width] for row in rows]
    return rows, columns
