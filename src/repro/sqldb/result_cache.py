"""Cross-request result cache, invalidated when a write commits.

One cached plan per statement already removes per-request planning cost
(:mod:`repro.sqldb.executor`), but a hot page re-executes the same SELECTs
with the same parameters on every load.  This module removes the execution
too: a bounded LRU of finished result sets, shared by every session of one
:class:`repro.sqldb.database.Database` (the app server's original driver,
the Sloth batch driver and the batch shared-scan planner all land here).

A cache **key** is the statement and what it is planned under plus the
parameters that decide the rows::

    (statement identity, parameters, their types, optimizer options)

(``executor.param_types``: ``(1,)`` and ``(True,)`` are equal tuples that
bind differently, so they key apart).  Beside the LRU the cache keeps a
**reader index**, table name → the keys of the entries that read it.

The work is paid when a write commits, so that a lookup pays a constant.
The executor is the only caller.  It calls :meth:`~ResultCache.invalidate`
with the tables a statement commits — an auto-committed write that changed
rows, a multi-row statement's own transaction, COMMIT with the tables of
its undo log — and the reader index drops exactly the entries that read
them (counted in ``invalidations``).  ROLLBACK invalidates nothing: the
restored contents are the ones the entries were computed from.  DDL
empties the cache (:meth:`~ResultCache.clear`), as it empties the plan
cache.

A :meth:`~ResultCache.lookup` is one dict probe plus the pending check:
an entry that reads a table the open transaction has written (the undo
log's live set of table names) is not served, since storage is ahead of
it, and not dropped, since the write may roll back.  Every lookup counts
exactly one hit or one miss.  A :meth:`~ResultCache.store` refuses rows
that read a pending table (they may roll back) and rows whose run a
commit overlapped: the executor reads :attr:`~ResultCache.epoch`, which
every invalidation and clear moves, before the run, and the store
compares it (counted in ``rejected_stores``).

A hit returns a fresh :class:`~repro.sqldb.result.ExecResult` carrying the
cached rows with ``rows_touched == 0``: the database did no storage work,
which is what the simulated server's cost model charges for.
"""

from collections import OrderedDict, defaultdict

from repro.sqldb.result import ExecResult

#: Default entry bound, sized to hold the benchmark applications' hottest
#: page working sets (the densest OpenMRS page issues a few thousand
#: distinct statements); matches the parse cache's bound.  Eviction is LRU.
DEFAULT_RESULT_CACHE_LIMIT = 4096


class ResultCache:
    """Bounded LRU of SELECT result sets for one database.

    ``limit <= 0`` disables the cache (the executor calls no lookup and no
    store) — used by differential tests and by benchmark baselines.
    """

    __slots__ = ("limit", "enabled", "_entries", "_readers", "epoch", "hits",
                 "misses", "invalidations", "stores", "rejected_stores")

    def __init__(self, limit=DEFAULT_RESULT_CACHE_LIMIT):
        self.limit = limit
        self.enabled = limit > 0
        self._entries = OrderedDict()
        # table name -> the keys of the entries that read it
        self._readers = defaultdict(set)
        self.epoch = 0  # moves at every invalidation and clear
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0
        self.rejected_stores = 0

    # -- the probe/store protocol -------------------------------------------

    def lookup(self, key, db, peek=False):
        """The cached :class:`ExecResult` for ``key``, or None.

        An entry that reads a table with uncommitted writes is not served.
        With ``peek`` the probe is side-effect free: no counters, no LRU
        reorder (``EXPLAIN`` uses this to report cache status without
        perturbing it).
        """
        try:
            entry = self._entries.get(key)
        except TypeError:  # unhashable parameter value
            entry = None
        if entry is not None:
            pending = db.transactions.pending_table_names()
            if pending and not pending.isdisjoint(entry[1]):
                entry = None
        if entry is None:
            if not peek:
                self.misses += 1
            return None
        if not peek:
            self.hits += 1
            self._entries.move_to_end(key)
        _stmt, _tables, columns, rows, rowcount = entry
        return ExecResult(columns, list(rows), rowcount=rowcount,
                          rows_touched=0, from_cache=True)

    def store(self, key, stmt, table_names, result, db, epoch):
        """Record a freshly executed SELECT's rows under ``key``.

        ``stmt`` is kept in the entry to pin the parsed AST (the key
        embeds ``id(stmt)``, which must not be reused while the entry
        lives — the same pinning trick the plan cache uses).

        ``epoch`` is :attr:`epoch` as the executor read it *before* the
        run.  If it moved — a commit landed while the rows were being
        computed — the store is refused: the rows may reflect the
        pre-commit state.
        """
        pending = db.transactions.pending_table_names()
        if pending and not pending.isdisjoint(table_names):
            return  # rows computed from uncommitted state: never cache
        if epoch != self.epoch:
            self.rejected_stores += 1
            return
        entries = self._entries
        try:
            entries[key] = (stmt, table_names, tuple(result.columns),
                            tuple(result.rows), result.rowcount)
        except TypeError:  # unhashable parameter value
            return
        entries.move_to_end(key)
        self.stores += 1
        readers = self._readers
        for name in table_names:
            readers[name].add(key)
        while len(entries) > self.limit:
            self._unlink(*entries.popitem(last=False))

    def invalidate(self, table_names):
        """Drop every entry that reads one of ``table_names``, whose
        contents a write has just committed over."""
        self.epoch += 1
        entries = self._entries
        for name in table_names:
            keys = self._readers.pop(name, ())
            self.invalidations += len(keys)
            for key in keys:
                self._unlink(key, entries.pop(key))

    def _unlink(self, key, entry):
        """Remove a dropped entry's key from its tables' reader sets."""
        readers = self._readers
        for name in entry[1]:
            keys = readers.get(name)
            if keys is not None:
                keys.discard(key)

    # -- management ----------------------------------------------------------

    def clear(self):
        """Drop every entry (DDL; counters keep accumulating)."""
        self.epoch += 1
        self._entries.clear()
        self._readers.clear()

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

