"""The result of executing one statement.

Lives in its own module so both the executor facade and the plan pipeline
(:mod:`repro.sqldb.plan`) can build results without importing each other.
A result keeps the list of tuples it is given — the engine's result
operators emit tuples — so a SELECT's rows are not copied on the way out;
the result cache hands each hit a fresh list.
"""


class ExecResult:
    """Result of executing one statement.

    ``columns`` — output column names (empty for writes).
    ``rows`` — list of tuples, kept as given (empty for writes).
    ``rowcount`` — rows returned for reads, rows affected for writes.
    ``rows_touched`` — storage rows examined (cost-model input).  Chunks
    zone maps skip still charge their rows here — skipping changes
    wall-clock, never the simulated cost.
    ``chunks_skipped`` — chunks zone maps proved irrelevant (0 for
    writes).
    ``last_insert_id`` — primary key of the last inserted row, if integral.
    ``from_cache`` — True when the rows came from the cross-request result
    cache (the server charges the flat cache-hit cost instead of the
    per-statement dispatch overhead).
    """

    __slots__ = ("columns", "rows", "rowcount", "rows_touched",
                 "last_insert_id", "from_cache", "chunks_skipped")

    def __init__(self, columns=(), rows=None, rowcount=0, rows_touched=0,
                 last_insert_id=None, from_cache=False, chunks_skipped=0):
        self.columns = list(columns)
        self.rows = [] if rows is None else rows
        self.rowcount = rowcount
        self.rows_touched = rows_touched
        self.last_insert_id = last_insert_id
        self.from_cache = from_cache
        self.chunks_skipped = chunks_skipped

    def __repr__(self):
        return (f"ExecResult(columns={self.columns!r}, "
                f"rowcount={self.rowcount}, rows_touched={self.rows_touched})")

    def scalar(self):
        """The single value of a one-row, one-column result (or None)."""
        if self.rows and self.rows[0]:
            return self.rows[0][0]
        return None
