"""Snapshot-consistent read views: an MVCC read-view in miniature.

Under concurrent serving many requests interleave against one
:class:`~repro.sqldb.database.Database`.  Each request opens a
:class:`ReadView` at admission, pinning the committed
:attr:`~repro.sqldb.storage.Table.write_version` of every table; all of the
request's SELECTs then observe exactly that committed state, no matter
which other requests commit in between.  This is the same machinery the
cross-request result cache keys on (PR 4), extended from *validation* to
*time travel*.

The implementation is copy-on-write at table granularity.  Opening a view
copies nothing.  The first mutation that would move a table past a version
some open view still pins triggers a freeze: the executor's write paths
call :meth:`ReadViewManager.before_write` *before* touching storage, and
the manager captures the table's rows, primary-key index and secondary
index internals into a :class:`FrozenTableState` keyed by
``(table, version)``.  Row lists are shared, not deep-copied — storage
never mutates a row list in place (updates swap in a fresh list), so a
shallow container copy is a true snapshot.

A SELECT whose view is *stale* for some referenced table (the live version
moved past the pinned one, or another request's open transaction has
uncommitted writes to it) executes with the frozen state swapped into the
live ``Table`` object for the duration of the plan run — physical
operators resolve tables by name at execution time, so the swap is
invisible to them — and bypasses the result cache entirely in both
directions: a cache hit would serve rows of the *current* version, and
storing view-relative rows would poison entries validated against current
versions.

Read-your-writes: a request that writes a table stops pinning it — the
view follows the live table from then on, so the request sees its own
committed and in-transaction writes.  This is snapshot isolation without
write-conflict detection: two requests writing the *same* table
concurrently are outside the guarantee (the simulated server serializes
writes, so storage stays consistent; only the second writer's view
semantics degrade to read-latest for that table).  DDL concurrent with
open views is likewise unsupported — views are a DML-era construct opened
and closed within one serving window.
"""

from contextlib import contextmanager

from repro.sqldb.indexes import OrderedIndex


class FrozenTableState:
    """One table's committed contents at a pinned write version."""

    __slots__ = ("rows", "pk_index", "index_states")

    def __init__(self, table):
        # Row lists are immutable-in-place by storage contract: container
        # copies are full snapshots.
        self.rows = dict(table.rows)
        self.pk_index = dict(table._pk_index)
        self.index_states = {}
        for name, index in table.indexes.items():
            if isinstance(index, OrderedIndex):
                self.index_states[name] = (
                    list(index._keys),
                    {key: set(ids) for key, ids in index._rows.items()})
            else:
                self.index_states[name] = {
                    key: set(ids) for key, ids in index._buckets.items()}


class ReadView:
    """One request's pinned committed-version snapshot."""

    __slots__ = ("manager", "versions", "own_tables", "closed")

    def __init__(self, manager, versions):
        self.manager = manager
        self.versions = versions  # table name -> pinned write version
        self.own_tables = set()  # tables this request wrote: read live
        self.closed = False

    def version_of(self, name):
        return self.versions.get(name)

    def is_stale(self, name, db):
        """Whether reads of ``name`` need the frozen state, not live."""
        if name in self.own_tables:
            return False  # read-your-writes: follow the live table
        pinned = self.versions.get(name)
        if pinned is None:
            return False  # created after the view opened: read live
        table = db.tables.get(name)
        if table is None:
            return False  # dropped: let execution surface the error
        if table.write_version != pinned:
            return True
        # Version still matches but another request's open transaction may
        # have mutated storage ahead of the (deferred) bump.
        return name in db.transactions.pending_table_names()

    def stale_tables(self, names, db):
        """The subset of ``names`` that must read frozen state."""
        return tuple(n for n in names if self.is_stale(n, db))

    def close(self):
        if not self.closed:
            self.closed = True
            self.manager._close(self)


class ReadViewManager:
    """Opens, freezes for, and swaps in per-request read views."""

    def __init__(self, db):
        self.db = db
        self.active = None  # the view SELECT/write paths consult
        self._views = []
        self._frozen = {}  # (table name, version) -> FrozenTableState
        self.freezes = 0  # copy-on-write captures, for tests/benchmarks

    def open(self):
        """A view pinning every table's current committed version.

        Refused mid-transaction: storage would be ahead of the committed
        versions, so there is no consistent snapshot to pin.
        """
        if self.db.transactions.in_transaction:
            raise RuntimeError(
                "cannot open a read view inside an open transaction")
        versions = {name: table.write_version
                    for name, table in self.db.tables.items()}
        view = ReadView(self, versions)
        self._views.append(view)
        return view

    @contextmanager
    def using(self, view):
        """Make ``view`` the active view for the duration (a request that
        brings no view does not enter this at all)."""
        previous = self.active
        self.active = view
        try:
            yield view
        finally:
            self.active = previous

    def before_write(self, table_name):
        """Copy-on-write hook: called by the executor's write paths before
        any mutation of ``table_name``.

        Freezes the current committed state if some open view still pins
        it and no snapshot exists yet; marks the table as the active
        view's own write (read-your-writes).
        """
        if self.active is not None:
            self.active.own_tables.add(table_name)
        if not self._views:
            return
        table = self.db.tables.get(table_name)
        if table is None:
            return
        if table_name in self.db.transactions.pending_table_names():
            return  # already mutated this transaction: state is not
            # committed, and the first write already froze if needed
        version = table.write_version
        key = (table_name, version)
        if key in self._frozen:
            return
        for view in self._views:
            if (not view.closed and table_name not in view.own_tables
                    and view.versions.get(table_name) == version):
                self._frozen[key] = FrozenTableState(table)
                self.freezes += 1
                return

    @contextmanager
    def reading(self, stale_names):
        """Swap frozen states in for ``stale_names`` while executing.

        The active view decides which version each table swaps to.  A
        no-op for an empty name tuple, so callers can wrap
        unconditionally.
        """
        if not stale_names:
            yield
            return
        view = self.active
        swapped = []
        try:
            for name in stale_names:
                table = self.db.tables_get(name)
                frozen = self._frozen.get((name, view.versions[name]))
                if frozen is None:
                    raise RuntimeError(
                        f"no frozen state for table {name!r} at version "
                        f"{view.versions[name]} (copy-on-write hook "
                        f"missed a mutation path)")
                swapped.append((table, self._swap_in(table, frozen)))
            yield
        finally:
            for table, live in reversed(swapped):
                self._swap_back(table, live)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _swap_in(table, frozen):
        """Point ``table`` at the frozen containers; returns the live ones."""
        live_indexes = {}
        for name, index in table.indexes.items():
            state = frozen.index_states.get(name)
            if state is None:
                continue  # index created after the freeze (unsupported DDL)
            if isinstance(index, OrderedIndex):
                live_indexes[name] = (index._keys, index._rows)
                index._keys, index._rows = state
            else:
                live_indexes[name] = index._buckets
                index._buckets = state
        live = (table.rows, table._pk_index, live_indexes)
        table.rows = frozen.rows
        table._pk_index = frozen.pk_index
        return live

    @staticmethod
    def _swap_back(table, live):
        rows, pk_index, live_indexes = live
        table.rows = rows
        table._pk_index = pk_index
        for name, state in live_indexes.items():
            index = table.indexes.get(name)
            if index is None:
                continue
            if isinstance(index, OrderedIndex):
                index._keys, index._rows = state
            else:
                index._buckets = state

    def _close(self, view):
        try:
            self._views.remove(view)
        except ValueError:
            pass
        if self.active is view:
            self.active = None
        # Drop frozen states no open view pins anymore.
        still_pinned = set()
        for open_view in self._views:
            for name, version in open_view.versions.items():
                if name not in open_view.own_tables:
                    still_pinned.add((name, version))
        for key in [k for k in self._frozen if k not in still_pinned]:
            del self._frozen[key]

    @property
    def open_view_count(self):
        return len(self._views)

    @property
    def frozen_state_count(self):
        return len(self._frozen)
