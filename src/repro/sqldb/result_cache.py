"""Cross-request result cache keyed by table write versions.

One cached plan per statement already removes per-request planning cost
(:mod:`repro.sqldb.executor`), but a hot page re-executes the same SELECTs
with the same parameters on every load.  This module removes the execution
too: a bounded LRU of finished result sets, shared by every session of one
:class:`repro.sqldb.database.Database` (the app server's original driver,
the Sloth batch driver and the batch shared-scan planner all land here).

A cache **key** is the statement and what it is planned under plus the
parameters that decide the rows::

    (statement identity, parameters, their types,
     catalog version, optimizer options)

(``executor.param_types``: ``(1,)`` and ``(True,)`` are equal tuples that
bind differently, so they key apart).  No table size is in it: a size
shift comes from writes, whose versions retire the entries.  The executor
is the only caller, through two entries: ``Executor.select`` — one
:meth:`~ResultCache.lookup`, then :func:`current_versions` before the run
and one :meth:`~ResultCache.store` after it — and the probe-only
``Executor.cached_select``.  ``select`` makes none of these calls while the
cache is switched off.  The **entry** additionally records the names and
write versions of every table the plan reads.  A hit requires the key to
match *and* every recorded version to equal the table's current
:attr:`~repro.sqldb.storage.Table.write_version`; a committed write to any
referenced table therefore invalidates exactly the dependent entries
(validation is lazy — a stale entry is dropped, counted in
``invalidations``, when next looked up).

Transactions: statements referencing a table with *uncommitted* writes
bypass the cache entirely — no hit (storage is ahead of the recorded
versions) and no store (the rows reflect work that may roll back).  Writes
bump versions only at COMMIT, so a rolled-back transaction neither
invalidates valid entries nor lets in-flight rows leak into the cache.

A hit returns a fresh :class:`~repro.sqldb.result.ExecResult` carrying the
cached rows with ``rows_touched == 0``: the database did no storage work,
which is what the simulated server's cost model charges for.
"""

from collections import OrderedDict

from repro.sqldb.result import ExecResult

#: Default entry bound, sized to hold the benchmark applications' hottest
#: page working sets (the densest OpenMRS page issues a few thousand
#: distinct statements); matches the parse cache's bound.  Eviction is LRU.
DEFAULT_RESULT_CACHE_LIMIT = 4096


class ResultCache:
    """Bounded LRU of SELECT result sets for one database.

    ``limit <= 0`` disables the cache (every probe misses, nothing is
    stored) — used by differential tests and by benchmark baselines.
    """

    __slots__ = ("limit", "enabled", "_entries", "hits", "misses",
                 "invalidations", "stores", "rejected_stores")

    def __init__(self, limit=DEFAULT_RESULT_CACHE_LIMIT):
        self.limit = limit
        self.enabled = limit > 0
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0
        # Stores refused because a referenced table's write version moved
        # between the executor's pre-execution snapshot and store time —
        # the store/validate race another request's commit can open.
        self.rejected_stores = 0

    # -- the probe/store protocol -------------------------------------------

    def lookup(self, key, db, peek=False):
        """The cached :class:`ExecResult` for ``key``, or None.

        Validates the entry's recorded write versions against the live
        tables and drops it on mismatch.  With ``peek`` the probe is
        side-effect free: no counters, no LRU reorder, no eviction of a
        stale entry (``EXPLAIN`` uses this to report cache status without
        perturbing it).
        """
        if not self.enabled:
            return None
        try:
            entry = self._entries.get(key)
        except TypeError:  # unhashable parameter value
            return None
        if entry is None:
            if not peek:
                self.misses += 1
            return None
        _stmt, table_names, versions, columns, rows, rowcount = entry
        pending = db.transactions.pending_table_names()
        if pending and not pending.isdisjoint(table_names):
            # Uncommitted writes to a referenced table: storage is ahead
            # of the recorded versions, so neither serve nor discard.
            return None
        if versions != current_versions(db, table_names):
            if not peek:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
            return None
        if not peek:
            self.hits += 1
            self._entries.move_to_end(key)
        return ExecResult(columns, list(rows), rowcount=rowcount,
                          rows_touched=0, from_cache=True)

    def store(self, key, stmt, table_names, result, db, expected_versions):
        """Record a freshly executed SELECT's rows under ``key``.

        ``stmt`` is kept in the entry to pin the parsed AST (the key
        embeds ``id(stmt)``, which must not be reused while the entry
        lives — the same pinning trick the plan cache uses).

        ``expected_versions`` is :func:`current_versions` as the executor
        read it *before* execution.  If any referenced table's version has
        moved since — another request's commit landed while the rows were
        being computed — the store is refused: the rows reflect the
        pre-commit state and must never be cached against the post-commit
        versions.
        """
        if not self.enabled:
            return
        pending = db.transactions.pending_table_names()
        if pending and not pending.isdisjoint(table_names):
            return  # rows computed from uncommitted state: never cache
        versions = current_versions(db, table_names)
        if versions is None:
            return
        if versions != expected_versions:
            self.rejected_stores += 1
            return
        entry = (stmt, table_names, versions, tuple(result.columns),
                 tuple(result.rows), result.rowcount)
        try:
            self._entries[key] = entry
        except TypeError:  # unhashable parameter value
            return
        self._entries.move_to_end(key)
        self.stores += 1
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    # -- management ----------------------------------------------------------

    def clear(self):
        """Drop every entry (counters keep accumulating)."""
        self._entries.clear()

    def __len__(self):
        return len(self._entries)

    def stats(self):
        """Hit/miss/invalidation/store counters plus current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "rejected_stores": self.rejected_stores,
            "size": len(self._entries),
            "enabled": self.enabled,
        }


def current_versions(db, table_names):
    """The write versions of ``table_names`` now, or None when any
    table vanished (DDL changes the catalog version in the key, so this
    only guards direct storage edits behind the catalog's back)."""
    versions = []
    for name in table_names:
        table = db.tables.get(name)
        if table is None:
            return None
        versions.append(table.write_version)
    return tuple(versions)
