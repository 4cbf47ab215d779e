"""Hot-page speedup from the cross-request result cache.

Every figure experiment measures *cold* page loads (the paper restarts
servers between measurements).  Real traffic is the opposite: a handful of
hot pages loaded over and over with identical parameters.  This experiment
measures what the cross-request result cache
(:mod:`repro.sqldb.result_cache`) buys on exactly that pattern, across the
three benchmark applications:

- **itracker / openmrs** — every benchmark URL is loaded once cold and
  then ``HOT_LOADS`` times hot, in both ``original`` and ``sloth`` modes,
  on one long-lived database (cache enabled; the cache is cleared between
  modes so each mode pays its own cold load).
- **tpcc** — no web tier exists for TPC-C, so its "page" is the range
  report query set (``repro.apps.tpcc.reports.RANGE_REPORT_QUERIES``)
  shipped as one batch through the simulated database server — the batch
  driver path the Sloth query store uses.

Reported per app/mode: cold vs mean-hot virtual load time, the speedup
ratio, result-cache hits, and the storage rows the hot loads did *not*
touch.  ``benchmarks/test_hot_page_cache.py`` asserts the headline claim
(hot loads strictly cheaper, zero rows touched, byte-identical output);
CI exports this data as a JSON artifact.
"""

from repro.apps.tpcc import data as tpcc_data
from repro.apps.tpcc import reports as tpcc_reports
from repro.bench.report import format_table
from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.web.appserver import AppServer, MODE_ORIGINAL, MODE_SLOTH
from repro.web.framework import Request

#: Hot loads measured per URL after the cold load.
HOT_LOADS = 3


def _stats(cold_ms, hot_ms, cold_db_ms, hot_db_ms, hits, hot_rows,
           output_identical):
    """One measurement record (``hot_ms``/``hot_db_ms`` are totals over
    the ``HOT_LOADS`` repeats)."""
    return {
        "cold_ms": round(cold_ms, 3),
        "hot_ms_per_load": round(hot_ms / HOT_LOADS, 3),
        "speedup": round(cold_ms / (hot_ms / HOT_LOADS), 2),
        "cold_db_ms": round(cold_db_ms, 3),
        "hot_db_ms_per_load": round(hot_db_ms / HOT_LOADS, 3),
        "db_speedup": round(cold_db_ms / max(hot_db_ms / HOT_LOADS, 1e-9),
                            2),
        "result_cache_hits": hits,
        "hot_rows_touched": hot_rows,
        "output_identical": output_identical,
    }


def _measure_app(mod):
    """Cold/hot page loads for one web application, both modes."""
    db, dispatcher = mod.build_app()
    cost_model = CostModel()
    per_mode = {}
    for mode in (MODE_ORIGINAL, MODE_SLOTH):
        db.result_cache.clear()
        server = AppServer(db, dispatcher, cost_model, mode=mode)
        cold_ms = hot_ms = cold_db_ms = hot_db_ms = 0.0
        hot_hits = 0
        hot_rows = 0
        matches = True
        for url in mod.BENCHMARK_URLS:
            cold = server.load_page(Request(url))
            cold_ms += cold.time_ms
            cold_db_ms += cold.phases["db"]
            rows_before_hot = db.total_rows_touched
            for _ in range(HOT_LOADS):
                hot = server.load_page(Request(url))
                hot_ms += hot.time_ms
                hot_db_ms += hot.phases["db"]
                hot_hits += hot.result_cache_hits
                matches = matches and hot.html == cold.html
            hot_rows += db.total_rows_touched - rows_before_hot
        per_mode[mode] = _stats(cold_ms, hot_ms, cold_db_ms, hot_db_ms,
                                hot_hits, hot_rows, matches)
    per_mode["cache"] = db.result_cache_stats()
    return per_mode


def _measure_tpcc():
    """Cold/hot report batches through the server's batch-plan path."""
    db = Database("tpcc")
    tpcc_data.seed(db)
    cost_model = CostModel()
    clock = SimClock()
    server = DatabaseServer(db, cost_model)
    driver = BatchDriver(server, clock, cost_model)
    statements = [(sql, params) for _, sql, params
                  in tpcc_reports.RANGE_REPORT_QUERIES]

    from repro.net.clock import PHASE_DB

    start = clock.now
    db_start = clock.phase_time(PHASE_DB)
    cold_results = driver.execute_batch(statements, batch_optimize=True)
    cold_ms = clock.now - start
    cold_db_ms = clock.phase_time(PHASE_DB) - db_start
    rows_before_hot = db.total_rows_touched
    hot_ms = hot_db_ms = 0.0
    matches = True
    for _ in range(HOT_LOADS):
        start = clock.now
        db_start = clock.phase_time(PHASE_DB)
        hot_results = driver.execute_batch(statements, batch_optimize=True)
        hot_ms += clock.now - start
        hot_db_ms += clock.phase_time(PHASE_DB) - db_start
        matches = matches and all(
            a.rows == b.rows for a, b in zip(cold_results, hot_results))
    return {
        "batch": _stats(cold_ms, hot_ms, cold_db_ms, hot_db_ms,
                        driver.stats.result_cache_hits,
                        db.total_rows_touched - rows_before_hot, matches),
        # The driver's whole record (what the harness reads); the hits
        # above are its ``result_cache_hits``.
        "driver": dict(vars(driver.stats)),
        "cache": db.result_cache_stats(),
    }


def run():
    """Measure all three applications; returns a plain-dict result."""
    from repro.apps import itracker, openmrs

    return {
        "itracker": _measure_app(itracker),
        "openmrs": _measure_app(openmrs),
        "tpcc": _measure_tpcc(),
    }


def format_result(result):
    rows = []
    for app, per_app in result.items():
        for mode, numbers in per_app.items():
            if mode in ("cache", "driver"):
                continue
            rows.append((f"{app}:{mode}", numbers["cold_ms"],
                         numbers["hot_ms_per_load"], numbers["speedup"],
                         numbers["cold_db_ms"],
                         numbers["hot_db_ms_per_load"],
                         numbers["db_speedup"],
                         numbers["result_cache_hits"],
                         numbers["hot_rows_touched"]))
    return format_table(
        ("page set", "cold ms", "hot ms/load", "speedup", "cold db ms",
         "hot db ms/load", "db speedup", "cache hits",
         "hot rows touched"), rows,
        title="Hot-page loads — cross-request result cache")
