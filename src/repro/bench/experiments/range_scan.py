"""Ordered-index range scans: rows-touched deltas over the app databases.

Executes the range/ORDER BY report queries of the three seeded benchmark
applications (``repro.apps.*.reports.RANGE_REPORT_QUERIES``) twice — once
through the full pipeline (ordered-index range scans + sort elision
enabled, the default) and once with the ordered access paths disabled
(``ordered_access=False``: the base table is read by sequential scan and
ORDER BY is an explicit sort, exactly the pre-ordered-index engine) — and
reports per-query and per-app rows touched.

``benchmarks/test_range_rows_touched.py`` asserts the headline claim over
this data (>=2x fewer rows touched per app in aggregate, identical result
multisets); CI exports the raw numbers as a JSON artifact.
"""

from repro.apps import itracker, openmrs
from repro.apps.itracker import reports as itracker_reports
from repro.apps.openmrs import reports as openmrs_reports
from repro.apps.tpcc import data as tpcc_data
from repro.apps.tpcc import reports as tpcc_reports
from repro.bench.report import format_table
from repro.sqldb import Database
from repro.sqldb.plan import OptimizerOptions

# The baseline disables only the ordered access paths: joins still reorder
# and probe indexes, so the delta isolates what the ordered indexes buy.
SEQ_SCAN_BASELINE = OptimizerOptions(ordered_access=False)


def _build_itracker():
    db, _ = itracker.build_app()
    return db


def _build_openmrs():
    db, _ = openmrs.build_app()
    return db


def _build_tpcc():
    db = Database("tpcc")
    tpcc_data.seed(db)
    return db


APPS = (
    ("itracker", _build_itracker, itracker_reports.RANGE_REPORT_QUERIES),
    ("openmrs", _build_openmrs, openmrs_reports.RANGE_REPORT_QUERIES),
    ("tpcc", _build_tpcc, tpcc_reports.RANGE_REPORT_QUERIES),
)


def run(apps=APPS):
    """Execute every range report query both ways.

    Returns ``{app: {"queries": {name: {"optimized": n, "baseline": n,
    "rows": n}}, "totals": {...}}}``; the two executions' result multisets
    are compared by the caller (the benchmark test) — this function only
    measures.
    """
    result = {}
    for name, build, queries in apps:
        optimized_db = build()
        baseline_db = build()
        baseline_db.optimizer_options = SEQ_SCAN_BASELINE
        per_query = {}
        total_optimized = total_baseline = 0
        for query_name, sql, params in queries:
            opt = optimized_db.execute(sql, params)
            base = baseline_db.execute(sql, params)
            per_query[query_name] = {
                "optimized": opt.rows_touched,
                "baseline": base.rows_touched,
                "rows": len(opt.rows),
                "match": sorted(opt.rows, key=repr) == sorted(
                    base.rows, key=repr),
            }
            total_optimized += opt.rows_touched
            total_baseline += base.rows_touched
        result[name] = {
            "queries": per_query,
            "totals": {"optimized": total_optimized,
                       "baseline": total_baseline},
        }
    return result


def format_result(result):
    rows = []
    for app, per_app in result.items():
        for query_name, numbers in per_app["queries"].items():
            rows.append((f"{app}:{query_name}", numbers["optimized"],
                         numbers["baseline"], numbers["rows"]))
        totals = per_app["totals"]
        rows.append((f"{app}:TOTAL", totals["optimized"],
                     totals["baseline"], ""))
    return format_table(
        ("query", "rows touched (ordered)", "rows touched (seq scan)",
         "result rows"), rows,
        title="Ordered-index range scans — rows touched")
