#!/usr/bin/env python3
"""What a SELECT costs here against sqlite3 in the same process.

    python3 tools/yardstick.py [--smoke] [--seed N] [-k K] [--number N]
        [WORKLOAD ...]

A WORKLOAD is ``reports``, ``pages_sloth``, ``pages_original`` or
``mixed_rw`` (the default is ``reports pages_sloth``).  The tool sets the
perfbench workload up, collects each distinct SELECT it issues —
``reports``' statements as listed, each with the executions a round runs;
the others' as one round sends them to ``DatabaseServer.execute_batch``
(a page sweep; a TPC-C episode, whose dashboards call
``Database.execute`` and are not recorded), each with the parameters it
was first sent with and the times the round sent it — and copies every
database they read into
``sqlite3.connect(":memory:")`` (the loader of
``tests/sqldb/sqlite_reference.py``, plus an index per primary key and
per index of the catalog).  Then, with the result cache off, it times
each statement ``--number`` times here and ``--number`` times in sqlite3,
the two interleaved, ``-k`` times, and keeps the best of each side.

It prints, per statement, its plan shape (the physical operators: the
result operators, then the row-source chain from the top), µs per
execution here and in sqlite3, their ratio, the rows each returned and
its executions per recorded round; then, per plan shape, the statements,
their executions per round (so the workload that runs a shape most is a
number) and the median of each timing column.  A
ratio says where this engine's fixed and per-row costs sit against a
yardstick that neither the day's noise nor the network moves; the tool
claims nothing, and gates nothing.
"""

import argparse
import importlib.util
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("reports", "pages_sloth", "pages_original", "mixed_rw")
DEFAULT_WORKLOADS = ("reports", "pages_sloth")


def _prepare_imports():
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _sqlite_copy():
    """``sqlite_copy`` of the SQLite reference the tests compare with."""
    spec = importlib.util.spec_from_file_location("sqlite_reference", (
        os.path.join(ROOT, "tests", "sqldb", "sqlite_reference.py")))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sqlite_copy


def collect(target, seed=1, smoke=False):
    """``[(name, db, sql, params, executions), ...]``: each distinct SELECT
    ``target`` issues, in first-issued order, with the times one round
    runs it."""
    from perfbench import measure, workloads
    from repro.net.server import DatabaseServer
    from repro.sqldb import ast_nodes as A
    from repro.sqldb.parser import parse
    workload = workloads.make(target, workloads.SMOKE if smoke
                              else workloads.FULL)
    workload.setup(seed)
    if target == "reports":
        return list(workload.statements)
    seen = {}  # sql -> [db, first parameters, executions]
    execute_batch = DatabaseServer.execute_batch

    def recording(server, statements, *args, **kwargs):
        for sql, params in statements:
            if type(parse(sql)) is A.Select:
                seen.setdefault(sql, [server.database, tuple(params), 0])[
                    2] += 1
        return execute_batch(server, statements, *args, **kwargs)

    DatabaseServer.execute_batch = recording
    try:
        workload.run_round(measure.CuTimer())
    finally:
        DatabaseServer.execute_batch = execute_batch
    return [(f"{target}#{n}", db, sql, params, executions)
            for n, (sql, (db, params, executions))
            in enumerate(seen.items(), 1)]


def _lite(db, sqlite_copy):
    """``db``'s tables in sqlite3, indexed as here."""
    lite = sqlite_copy(db)
    for name in sorted(db.tables):
        table = db.tables_get(name)
        pk = table.schema.primary_key
        if pk is not None:
            lite.execute(f"CREATE UNIQUE INDEX {name}__pk ON {name} "
                         f"({pk.name})")
        for index_name, index in sorted(table.indexes.items()):
            lite.execute(f"CREATE INDEX {index_name} ON {name} "
                         f"({', '.join(index.info.columns)})")
    return lite


def shape(db, sql):
    """The physical operators of ``sql``'s plan, ``Project,Limit/IndexLookup``:
    the result operators, then the row-source chain from the top."""
    from repro.sqldb.parser import parse
    plan = db.executor.plan_for(db, parse(sql))
    sources = []
    op = plan.source
    while op is not None:
        sources.append(type(op).__name__.removesuffix("Op"))
        op = getattr(op, "child", None)
    return (",".join(type(op).__name__.removesuffix("Op")
                     for op in plan.result_ops) + "/" + "<".join(sources))


def _timed(run, number):
    """µs per call of ``run``, over ``number`` calls."""
    start = perf_counter()
    for _ in range(number):
        run()
    return (perf_counter() - start) / number * 1e6


def measure_statements(statements, k, number):
    """Per statement ``(name, shape, µs here, µs sqlite3, rows here, rows
    sqlite3, executions, sql)``: each side the best of ``k`` timings of
    ``number`` executions, the sides taking turns."""
    sqlite_copy = _sqlite_copy()
    lites = {}  # id(db) -> its sqlite3 copy
    rows = []
    for name, db, sql, params, executions in statements:
        lite = lites.get(id(db))
        if lite is None:
            lite = lites[id(db)] = _lite(db, sqlite_copy)
        enabled = db.result_cache.enabled
        db.result_cache.enabled = False
        try:
            n_here = len(db.execute(sql, params).rows)
            n_there = len(lite.execute(sql, params).fetchall())
            here = there = float("inf")
            for _ in range(k):
                here = min(here, _timed(lambda: db.execute(sql, params),
                                        number))
                there = min(there, _timed(
                    lambda: lite.execute(sql, params).fetchall(), number))
        finally:
            db.result_cache.enabled = enabled
        rows.append((name, shape(db, sql), here, there, n_here, n_there,
                     executions, sql))
    for lite in lites.values():
        lite.close()
    return rows


def print_report(target, rows, out=sys.stdout):
    """One line per statement (name, µs here, µs in sqlite3, ratio, rows
    here, rows in sqlite3, executions per round, plan shape, SQL), then
    one per plan shape."""
    print(f"# {target}: {len(rows)} statements; us per execution, best of "
          "k; ratio = here / sqlite3", file=out)
    print(f"# {'statement':38s} {'us':>9s} {'us_sqlite':>9s} {'ratio':>7s} "
          f"{'rows':>6s} {'rows_sqlite':>11s} {'execs':>6s}  shape  sql",
          file=out)
    by_shape = {}
    for name, plan_shape, here, there, n_here, n_there, execs, sql in rows:
        print(f"{name:40s} {here:9.1f} {there:9.1f} {here / there:7.2f} "
              f"{n_here:6d} {n_there:11d} {execs:6d}  {plan_shape}  "
              f"{' '.join(sql.split())}", file=out)
        by_shape.setdefault(plan_shape, []).append((here, there, execs))
    print(f"# {target} per plan shape: statements, executions per round, "
          "median us here, median us in sqlite3, median ratio", file=out)
    for plan_shape, times in sorted(by_shape.items()):
        print(f"# {plan_shape:44s} {len(times):4d} "
              f"{sum(e for _, _, e in times):6d} "
              f"{statistics.median(h for h, _, _ in times):9.1f} "
              f"{statistics.median(t for _, t, _ in times):9.1f} "
              f"{statistics.median(h / t for h, t, _ in times):7.2f}",
              file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's smoke sizes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-k", type=int, default=5,
                        help="interleaved timings per side (best kept)")
    parser.add_argument("--number", type=int, default=200,
                        help="executions per timing")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"no such workload: {', '.join(sorted(unknown))}")
    _prepare_imports()
    for target in args.workloads or DEFAULT_WORKLOADS:
        statements = collect(target, args.seed, args.smoke)
        print_report(target, measure_statements(statements, args.k,
                                                args.number))
    return 0


if __name__ == "__main__":
    sys.exit(main())
