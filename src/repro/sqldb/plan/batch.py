"""Batch-level shared-scan optimizer.

When the Sloth query store ships a whole batch in one round trip, the
server sees many SELECTs at once — the batch-level optimization window the
paper's §4 gestures at.  This module exploits it: **union-compatible**
SELECTs over the same table (single-table reads whose individual plans
would each sequentially scan it) are grouped, the table is scanned *once*,
and each member's filter/projection/ordering pipeline is demultiplexed off
the shared row stream.  Per-query result sets are byte-identical to
independent execution; only the cost changes — the group touches the table
once instead of N times.

This module owns the grouping, the once-per-group row charge and the
statement counters; the cache protocol and the plan run are the
executor's.  A run of reads is probed ahead (``Executor.cached_select``)
and each miss then runs through ``Executor.select(..., probe=False)`` like
a lone SELECT — a grouped member on the shared rows (``base_rows``).

Grouping never crosses a write: statements are partitioned into read
segments at each non-SELECT, and only reads within one segment (hence one
database snapshot) may share a scan.  Index-served reads (e.g. primary-key
lookups) are cheaper alone and are never grouped.

:func:`execute_batch_plan` is the entry point used by
:class:`repro.net.server.DatabaseServer`'s batch-plan path.
"""

from repro.sqldb import ast_nodes as A
from repro.sqldb.errors import SqlError
from repro.sqldb.executor import as_params
from repro.sqldb.parser import parse
from repro.sqldb.plan.physical import _pad


class SharedScanGroup:
    """One shared scan serving several member statements."""

    __slots__ = ("table", "member_indices", "scan_rows")

    def __init__(self, table, member_indices):
        self.table = table
        self.member_indices = member_indices
        self.scan_rows = 0  # storage rows the shared scan touched

    @property
    def rows_saved(self):
        """Storage-row touches avoided versus independent execution."""
        return self.scan_rows * (len(self.member_indices) - 1)


class BatchPlanResult:
    """Outcome of executing a batch through the shared-scan optimizer."""

    __slots__ = ("results", "groups")

    def __init__(self, results, groups):
        self.results = results  # ExecResult per input statement, in order
        self.groups = groups    # list of SharedScanGroup


def _shared_scan_table(db, stmt):
    """The table this SELECT always sequentially scans, or None.

    Read off the cached physical plan (``PhysicalPlan.shared_scan_table``),
    so eligibility is computed once per statement per catalog version, not
    per flush.  Purely structural: a statement whose predicate could ever
    pin an index stays on its private fast path.  Statements that fail to
    plan (e.g. unknown table) are ineligible — individual execution raises
    the error at the statement's own batch position.
    """
    try:
        return db.executor.plan_for(db, stmt).shared_scan_table
    except SqlError:
        return None


def execute_batch_plan(database, statements):
    """Execute ``[(sql, params), ...]``, sharing scans where possible.

    Returns a :class:`BatchPlanResult`.  Statements parse and execute at
    their own batch positions (reads buffer within a segment but all see
    the same snapshot), so errors — parse errors included — surface from
    the same statement, against the same database state, as sequential
    execution.
    """
    results = [None] * len(statements)
    groups = []

    segment = []  # [(index, stmt, params), ...] consecutive reads
    for index, (sql, params) in enumerate(statements):
        try:
            stmt, params = parse(sql), as_params(params)
        except SqlError:
            # Sequential execution would have run the buffered reads (and
            # surfaced any of their errors) before reaching this statement.
            _flush_segment(database, segment, results, groups)
            raise
        if isinstance(stmt, A.Select):
            segment.append((index, stmt, params))
            continue
        _flush_segment(database, segment, results, groups)
        segment = []
        results[index] = database.execute_parsed(stmt, params)
    _flush_segment(database, segment, results, groups)
    return BatchPlanResult(results, groups)


def _flush_segment(db, segment, results, groups):
    """Execute one run of consecutive reads, grouping shareable scans.

    Statements execute strictly in batch order — a group's shared scan
    happens when its *first* member is reached, and later members
    demultiplex off the cached rows at their own positions — so any error
    surfaces from the same statement it would under sequential execution.
    """
    if not segment:
        return
    # Result cache first: a cached member needs neither an execution nor a
    # slot in a scan group, so grouping runs over the misses only.  The
    # whole segment sees one snapshot, so probing ahead of order is safe.
    fresh = []
    for index, stmt, params in segment:
        cached = db.executor.cached_select(db, stmt, params)
        if cached is not None:
            results[index] = cached  # touches no row: nothing to record
        else:
            fresh.append((index, stmt, params))

    member_counts = {}
    eligible = {}
    for index, stmt, params in fresh:
        table = _shared_scan_table(db, stmt)
        if table is not None:
            eligible[index] = table
            member_counts[table] = member_counts.get(table, 0) + 1

    open_groups = {}  # table -> (SharedScanGroup, shared_rows)
    for index, stmt, params in fresh:
        table = eligible.get(index)
        if table is None or member_counts[table] < 2:
            result = db.executor.select(db, stmt, params, probe=False)
        else:
            entry = open_groups.get(table)
            if entry is None:
                entry = open_groups[table] = _start_shared_scan(db, table)
                groups.append(entry[0])
            group, shared_rows = entry
            result = db.executor.select(db, stmt, params, probe=False,
                                        base_rows=shared_rows)
            # Charge the scan once: the first member carries the shared
            # cost, the demultiplexed rest touch nothing new.
            result.rows_touched = 0 if group.member_indices \
                else group.scan_rows
            group.member_indices.append(index)
        results[index] = result
        db.record_statement(result.rows_touched)


def _start_shared_scan(db, table_name):
    """Scan ``table_name`` once for a group: identical row stream (padded,
    insertion order) to what each member's private SeqScanOp produces."""
    table = db.tables_get(table_name)
    width = len(table.schema.columns)
    shared_rows = [_pad(row, 0, width) for _, row in table.scan()]
    group = SharedScanGroup(table_name, [])
    group.scan_rows = len(shared_rows)
    return group, shared_rows
