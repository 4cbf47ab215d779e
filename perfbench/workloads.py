"""The benchmark's workloads: what one *round* of each does and checks.

Every workload offers the same four calls — ``setup(seed)``,
``run_round(timer, tracer)``, ``check()`` and ``digests()`` — so the
measuring loop in :mod:`perfbench.measure` knows nothing about pages,
statements or transactions.  A round is a fixed piece of work:

* ``pages_*``   — one sweep of the 150 benchmark pages in shuffled order;
* ``reports*``  — every report statement once (short ones ``report_reps``
  times per sample), in shuffled order;
* ``mixed_rw*`` — one *episode*: a freshly seeded TPC-C database taken
  through ``blocks`` blocks of ``block_tx`` transactions, each followed by
  a dashboard of full-scan aggregates over the tables just written.

Within a round every *kind* of operation (a page, a statement, a
transaction type, a dashboard statement) is timed on its own; the round
as a whole is timed in calibration units by the caller's ``CuTimer``.

Only the public surface of ``repro`` is imported here.
"""

import gc
import hashlib
import random
from time import perf_counter

from repro.apps import itracker, openmrs, tpcc
from repro.apps.itracker import reports as itracker_reports
from repro.apps.openmrs import reports as openmrs_reports
from repro.apps.tpcc import reports as tpcc_reports
from repro.apps.tpcc.transactions import (
    OriginalClient, SlothClient, TRANSACTION_TYPES, TpccRunner,
)
from repro.bench.harness import load_page
from repro.core.runtime import OptimizationFlags, SlothRuntime
from repro.net.clock import (
    CostModel, PHASE_APP, PHASE_DB, PHASE_NETWORK, SimClock,
)
from repro.net.driver import BatchDriver, Driver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.parser import parse_cache_stats
from repro.web.appserver import MODE_ORIGINAL, MODE_SLOTH

FULL = {"page_stride": 1, "scan_rows": 20000, "report_reps": 20,
        "blocks": 10, "block_tx": 100, "warmup_blocks": 2, "prefix_tx": 300}
SMOKE = {"page_stride": 6, "scan_rows": 1500, "report_reps": 2,
         "blocks": 2, "block_tx": 25, "warmup_blocks": 1, "prefix_tx": 40}

#: Per-round counts every workload reports (0 where the layer is not on
#: its path); the names are the per-layer metric names.
COUNT_METRICS = (
    "core.queries_registered", "core.dedup_hits", "core.batches_flushed",
    "core.thunks_allocated", "core.forces",
    "net.round_trips", "net.statements", "net.largest_batch",
    "net.shared_scan_rows_saved",
    "sqldb.rows_touched", "sqldb.plans_built", "sqldb.parse_misses",
    "sqldb.result_cache_hit_ratio", "sqldb.result_cache_invalidations",
    "sqldb.chunks_executed", "sqldb.chunks_skipped", "sqldb.snapshot_builds",
    "sim.time_ms", "sim.network_ms", "sim.db_ms", "sim.app_ms",
)


class Round:
    """What one round measured."""

    __slots__ = ("raw_s", "cu", "kinds_cu", "ops_cu", "attempted", "failed",
                 "counts")

    def __init__(self, raw_s, cu, kinds_cu, attempted, failed, counts,
                 ops_cu=None):
        self.raw_s = raw_s
        self.cu = cu
        self.kinds_cu = kinds_cu      # kind -> calibration units per op
        # Every operation of the round by position, where a kind occurs
        # more than once per round (else the kinds are the operations).
        self.ops_cu = kinds_cu if ops_cu is None else ops_cu
        self.attempted = attempted
        self.failed = failed
        self.counts = counts          # COUNT_METRICS name -> value


def engine_kwargs(columnar):
    """Constructor arguments for the engine a pass runs on.

    The columnar pass asks for ``engine="columnar"`` only while the
    database offers a choice; once it does not, both passes measure
    ``Database()`` and the metric set stays the same."""
    if columnar and "columnar" in getattr(Database, "ENGINES", ()):
        return {"engine": "columnar"}
    return {}


def settle_heap():
    """Collect what the last round left behind and freeze what is live.

    A full collection walks every live container, so with a seeded
    database on the heap it costs tens of milliseconds and lands on
    whichever operation happens to trip it.  Freezing the data that was
    just seeded — what a long-running server does after start-up — keeps
    the collector's pauses proportional to what a round allocates."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


class _Counts:
    """The per-round counts: opened before a round, closed after it.

    Database and parse-cache counters are cumulative, so they are read
    twice and subtracted; so are the tracer's, when the round is traced."""

    def __init__(self, dbs, tracer=None):
        self.dbs = dbs
        self.tracer = tracer
        self.before = self._read()

    def _read(self):
        totals = {"rows": 0, "plans": 0, "chunks": 0, "hits": 0, "misses": 0,
                  "invalidations": 0,
                  "parse_misses": parse_cache_stats()["misses"],
                  "skipped": 0, "builds": 0}
        for db in self.dbs:
            engine = db.engine_stats()
            cache = db.result_cache_stats()
            totals["rows"] += db.total_rows_touched
            totals["plans"] += engine["plans_built"]
            totals["chunks"] += engine["batches_executed"]
            totals["hits"] += cache["hits"]
            totals["misses"] += cache["misses"]
            totals["invalidations"] += cache["invalidations"]
        if self.tracer is not None:
            totals["skipped"] = self.tracer.chunks_skipped
            totals["builds"] = self.tracer.calls["sqldb.snapshot"]
        return totals

    def close(self):
        """``{COUNT_METRICS name: value}`` with the database side filled."""
        after = self._read()
        delta = {key: after[key] - self.before[key] for key in after}
        probes = delta["hits"] + delta["misses"]
        counts = dict.fromkeys(COUNT_METRICS, 0.0)
        counts["sqldb.rows_touched"] = delta["rows"]
        counts["sqldb.plans_built"] = delta["plans"]
        counts["sqldb.parse_misses"] = delta["parse_misses"]
        counts["sqldb.chunks_executed"] = delta["chunks"]
        counts["sqldb.chunks_skipped"] = delta["skipped"]
        counts["sqldb.snapshot_builds"] = delta["builds"]
        counts["sqldb.result_cache_hit_ratio"] = (
            delta["hits"] / probes if probes else 0.0)
        counts["sqldb.result_cache_invalidations"] = delta["invalidations"]
        return counts


def _add_runtime_counts(counts, runtimes):
    for runtime in runtimes:
        store = runtime.query_store.stats
        counts["core.dedup_hits"] += store.dedup_hits
        counts["core.batches_flushed"] += store.batches_flushed
        counts["core.thunks_allocated"] += runtime.stats.thunks_allocated
        counts["core.forces"] += runtime.stats.forces


def _sha256(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else part)
        digest.update(b"\0")
    return digest.hexdigest()


def _timed(timer, tracer, fn):
    """One calibration-bracketed segment, as a traced operation if asked."""
    if tracer is not None:
        return timer.segment(lambda: tracer.operation(fn))
    return timer.segment(fn)


# -- page loads ------------------------------------------------------------

#: (mode, result cache on) of the three page workloads.
PAGE_CONFIGS = {
    "pages_sloth": (MODE_SLOTH, False),
    "pages_original": (MODE_ORIGINAL, False),
    "pages_hot": (MODE_SLOTH, True),
}


class Pages:
    """A sweep of the itracker + OpenMRS benchmark pages in one mode."""

    def __init__(self, name, sizes):
        self.name = name
        self.mode, self.hot = PAGE_CONFIGS[name]
        self.sizes = sizes

    def setup(self, seed):
        self.rng = random.Random(seed)
        start = perf_counter()
        self.pages = []
        self.dbs = []
        for app_name, app in (("itracker", itracker), ("openmrs", openmrs)):
            db, dispatcher = app.build_app()
            self.dbs.append(db)
            urls = app.BENCHMARK_URLS[::self.sizes["page_stride"]]
            self.pages += [(f"{app_name}:{url}", db, dispatcher, url)
                           for url in urls]
        seeded = perf_counter()
        # The first sweep parses, plans and compiles everything (and, for
        # pages_hot, is the priming sweep that fills the result cache).
        self.reference = {page[0]: self._load(page, self.mode, self.hot).html
                          for page in self.pages}
        return {"setup.seed_s": seeded - start,
                "setup.first_sweep_s": perf_counter() - seeded}

    @staticmethod
    def _load(page, mode, hot):
        _kind, db, dispatcher, url = page
        return load_page(db, dispatcher, url, mode=mode, result_cache=hot)

    def run_round(self, timer, tracer=None):
        order = list(self.pages)
        self.rng.shuffle(order)
        mode, hot = self.mode, self.hot
        load = self._load

        def sweep():
            loads = []
            for page in order:
                start = perf_counter()
                try:
                    result = load(page, mode, hot)
                except Exception:  # counted as a failed operation below
                    result = None
                loads.append((page[0], perf_counter() - start, result))
            return loads

        if tracer is not None:
            del tracer.runtimes[:]
        window = _Counts(self.dbs, tracer)
        loads, raw_s, unit_s = _timed(timer, tracer, sweep)
        counts = window.close()
        if tracer is not None:
            _add_runtime_counts(counts, tracer.runtimes)
        failed = 0
        kinds_cu = {}
        for kind, seconds, result in loads:
            kinds_cu[kind] = seconds / unit_s
            if result is None or not result.html \
                    or result.html != self.reference[kind]:
                failed += 1
                continue
            counts["core.queries_registered"] += result.queries_registered
            counts["net.round_trips"] += result.round_trips
            counts["net.statements"] += result.queries_issued
            counts["net.largest_batch"] = max(counts["net.largest_batch"],
                                              result.largest_batch)
            counts["net.shared_scan_rows_saved"] += (
                result.shared_scan_rows_saved)
            counts["sim.time_ms"] += result.time_ms
            counts["sim.network_ms"] += result.phases[PHASE_NETWORK]
            counts["sim.db_ms"] += result.phases[PHASE_DB]
            counts["sim.app_ms"] += result.phases[PHASE_APP]
        return Round(raw_s, raw_s / unit_s, kinds_cu, len(loads), failed,
                     counts)

    def check(self):
        """Differential: every page renders the same non-empty HTML in the
        other two configurations as it did in this one."""
        attempted = failed = 0
        for config in PAGE_CONFIGS.values():
            if config == (self.mode, self.hot):
                continue
            for page in self.pages:
                attempted += 1
                try:
                    html = self._load(page, *config).html
                except Exception:
                    html = None
                if not html or html != self.reference[page[0]]:
                    failed += 1
        return attempted, failed

    def digests(self):
        return {"html_sha256": _sha256(
            self.reference[page[0]] for page in self.pages)}


# -- report statements -----------------------------------------------------

SCAN_QUERIES = (
    ("scan_filter",
     "SELECT id, amount FROM events WHERE amount > ? AND id < ?",
     (200, 2048)),
    ("join_filter",
     "SELECT e.id, u.name FROM events e "
     "JOIN users u ON e.user_id = u.id WHERE u.segment = ?", (3,)),
    ("project_arith",
     "SELECT id, amount * ? + kind FROM events WHERE amount >= ?",
     (2, 100)),
    ("group_filter_agg",
     "SELECT label, COUNT(*), SUM(amount) FROM events "
     "WHERE amount > ? GROUP BY label", (400,)),
)


#: (app, statements, short): short statements run ``report_reps`` times
#: per sample.  The order is the order of the ``sqldb.stmt_cu.*`` metrics.
REPORT_GROUPS = (
    ("itracker", itracker_reports.REPORT_QUERIES
     + itracker_reports.RANGE_REPORT_QUERIES, True),
    ("openmrs", openmrs_reports.REPORT_QUERIES
     + openmrs_reports.RANGE_REPORT_QUERIES, True),
    ("tpcc", tpcc_reports.RANGE_REPORT_QUERIES, True),
    ("synth", SCAN_QUERIES, False),
)


def _build_scan_tables(db, seed, n_rows):
    """The ``events``/``users`` pair the four scans run over; ids follow
    insertion (chunk) order, every other column comes from ``seed``."""
    rng = random.Random(seed)
    db.execute(
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, segment INT)")
    db.execute(
        "CREATE TABLE events (id INT PRIMARY KEY, user_id INT, kind INT, "
        "amount INT, label TEXT)")
    n_users = max(50, n_rows // 40)
    for i in range(n_users):
        db.execute("INSERT INTO users (id, name, segment) VALUES (?, ?, ?)",
                   (i, f"user{i}", rng.randrange(7)))
    for i in range(n_rows):
        db.execute(
            "INSERT INTO events (id, user_id, kind, amount, label) "
            "VALUES (?, ?, ?, ?, ?)",
            (i, rng.randrange(n_users), rng.randrange(13),
             rng.randrange(1000), f"evt{rng.randrange(23)}"))
    return db


class Reports:
    """The apps' report statements plus four scans, through
    ``Database.execute`` with the result cache off."""

    def __init__(self, name, sizes):
        self.name = name
        self.columnar = name.endswith("_columnar")
        self.sizes = sizes

    def setup(self, seed):
        self.rng = random.Random(seed)
        kwargs = engine_kwargs(self.columnar)

        def fresh():
            return Database(result_cache_size=0, **kwargs)

        start = perf_counter()
        by_app = {
            "itracker": itracker.build_app(db=fresh())[0],
            "openmrs": openmrs.build_app(db=fresh())[0],
            "tpcc": fresh(),
            "synth": _build_scan_tables(fresh(), seed,
                                        self.sizes["scan_rows"]),
        }
        tpcc.seed(by_app["tpcc"])
        self.dbs = list(by_app.values())
        reps = self.sizes["report_reps"]
        self.statements = [
            (f"{app}.{name}", by_app[app], sql, params, reps if short else 1)
            for app, queries, short in REPORT_GROUPS
            for name, sql, params in queries]
        seeded = perf_counter()
        self.reference = {}
        for kind, db, sql, params, _reps in self.statements:
            result = db.execute(sql, params)
            self.reference[kind] = (result.rows, result.rows_touched)
        return {"setup.seed_s": seeded - start,
                "setup.first_sweep_s": perf_counter() - seeded}

    def run_round(self, timer, tracer=None):
        order = list(self.statements)
        self.rng.shuffle(order)

        def execute_all():
            samples = []
            for kind, db, sql, params, reps in order:
                result = None
                start = perf_counter()
                try:
                    for _ in range(reps):
                        result = db.execute(sql, params)
                except Exception:  # counted as a failed operation below
                    result = None
                samples.append((kind, (perf_counter() - start) / reps,
                                reps, result))
            return samples

        window = _Counts(self.dbs, tracer)
        samples, raw_s, unit_s = _timed(timer, tracer, execute_all)
        counts = window.close()
        attempted = failed = 0
        kinds_cu = {}
        for kind, seconds, reps, result in samples:
            kinds_cu[kind] = seconds / unit_s
            attempted += reps
            if result is None or (result.rows, result.rows_touched) \
                    != self.reference[kind]:
                failed += reps
        return Round(raw_s, raw_s / unit_s, kinds_cu, attempted, failed,
                     counts)

    def check(self):
        """Differential: every statement returns the same rows and the same
        ``rows_touched`` on each engine the database offers."""
        attempted = failed = 0
        for engine in getattr(Database, "ENGINES", ()):
            for kind, db, sql, params, _reps in self.statements:
                attempted += 1
                active = db.engine
                db.engine = engine
                try:
                    result = db.execute(sql, params)
                    outcome = (result.rows, result.rows_touched)
                except Exception:
                    outcome = None
                finally:
                    db.engine = active
                if outcome != self.reference[kind]:
                    failed += 1
        return attempted, failed

    def digests(self):
        return {"rows_sha256": _sha256(
            repr((kind, self.reference[kind]))
            for kind, *_rest in self.statements)}


# -- mixed read/write ------------------------------------------------------

WAREHOUSES = 4
TX_MIX = (("new_order", 45), ("payment", 43), ("order_status", 4),
          ("stock_level", 4), ("delivery", 4))
DASHBOARD = (
    ("order_lines_by_warehouse",
     "SELECT ol_w_id, COUNT(*), SUM(ol_amount) FROM order_line "
     "GROUP BY ol_w_id", ()),
    ("stock_by_warehouse",
     "SELECT s_w_id, COUNT(*), SUM(s_quantity), SUM(s_order_cnt) "
     "FROM stock GROUP BY s_w_id", ()),
    ("payments_by_warehouse",
     "SELECT h_w_id, COUNT(*), SUM(h_amount) FROM history "
     "GROUP BY h_w_id", ()),
) + tpcc_reports.RANGE_REPORT_QUERIES


#: Seeds the transaction *keys*, which are the same for every ``--seed``.
_KEY_SEED = 20140622


def _episode_schedule(seed, blocks, size):
    """``blocks`` blocks of ``size`` transactions each.

    Every block holds exactly the TX_MIX proportions with keys drawn from
    a fixed stream, so each ``--seed`` does the same transactions block by
    block; the seed decides the order they arrive in within a block.  (Keys
    drawn per seed moved a whole episode by 5-10 %: which districts the
    few stock-level and delivery transactions hit is most of their cost.)
    """
    keys = random.Random(_KEY_SEED)
    order = random.Random(seed)
    schedule = []
    for _ in range(blocks):
        kinds = []
        for kind, weight in TX_MIX:
            kinds += [kind] * round(size * weight / 100)
        kinds += [TX_MIX[0][0]] * (size - len(kinds))
        block = [(kind, keys.randrange(1_000_000)) for kind in kinds[:size]]
        order.shuffle(block)
        schedule += block
    return schedule


class _Episode:
    """One freshly seeded TPC-C database and the client stack over it."""

    def __init__(self, columnar, lazy=True):
        self.db = Database(**engine_kwargs(columnar))
        tpcc.seed(self.db, warehouses=WAREHOUSES)
        cost_model = CostModel()
        self.clock = SimClock()
        server = DatabaseServer(self.db, cost_model)
        if lazy:
            self.driver = BatchDriver(server, self.clock, cost_model)
            self.runtime = SlothRuntime(
                self.driver, self.clock, cost_model,
                optimizations=OptimizationFlags.all())
            client = SlothClient(self.runtime)
        else:
            self.driver = Driver(server, self.clock, cost_model)
            self.runtime = None
            client = OriginalClient(self.driver, self.clock, cost_model)
        self.runner = TpccRunner(client, warehouses=WAREHOUSES)
        self.dashboard_rows = []

    def run_transactions(self, schedule, times=None):
        """Run ``schedule``; returns how many transactions raised."""
        failed = 0
        for kind, key in schedule:
            start = perf_counter()
            try:
                self.runner.run(kind, key)
            except Exception:
                failed += 1
            if times is not None:
                times.append((kind, perf_counter() - start))
        return failed

    def run_dashboard(self, times):
        failed = 0
        for name, sql, params in DASHBOARD:
            start = perf_counter()
            try:
                self.dashboard_rows.append(self.db.execute(sql, params).rows)
            except Exception:
                failed += 1
            times.append(("dash." + name, perf_counter() - start))
        return failed

    def digest(self):
        """Content of every table (order-free) plus every dashboard row."""
        tables = []
        for table in sorted(self.db.snapshot_counts()):
            rows = self.db.execute(f"SELECT * FROM {table}").rows
            tables.append(table + repr(sorted(map(repr, rows))))
        return _sha256(tables), _sha256(map(repr, self.dashboard_rows))


class MixedRw:
    """TPC-C write bursts with dashboard reads over the written tables."""

    def __init__(self, name, sizes):
        self.name = name
        self.columnar = name.endswith("_columnar")
        self.sizes = sizes
        self.reference = None

    def _block(self, index):
        size = self.sizes["block_tx"]
        return self.schedule[index * size:(index + 1) * size]

    def setup(self, seed):
        self.schedule = _episode_schedule(
            seed, self.sizes["blocks"], self.sizes["block_tx"])
        start = perf_counter()
        episode = _Episode(self.columnar)
        seeded = perf_counter()
        # Warm-up: enough blocks to parse, plan and compile every statement
        # of every transaction type and of the dashboard.
        for index in range(self.sizes["warmup_blocks"]):
            episode.run_transactions(self._block(index))
            episode.run_dashboard([])
        return {"setup.seed_s": seeded - start,
                "setup.first_sweep_s": perf_counter() - seeded}

    def run_round(self, timer, tracer=None):
        episode = _Episode(self.columnar)
        settle_heap()
        window = _Counts([episode.db], tracer)
        raw_s = cu = 0.0
        failed = 0
        sums = {}
        ops_cu = {}
        for index in range(self.sizes["blocks"]):
            times = []
            block = self._block(index)

            def run_block():
                return (episode.run_transactions(block, times)
                        + episode.run_dashboard(times))

            block_failed, block_s, unit_s = _timed(timer, tracer, run_block)
            failed += block_failed
            raw_s += block_s
            cu += block_s / unit_s
            for kind, seconds in times:
                ops_cu[len(ops_cu)] = seconds / unit_s
                entry = sums.setdefault(kind, [0.0, 0])
                entry[0] += seconds / unit_s
                entry[1] += 1
        counts = window.close()
        _add_runtime_counts(counts, [episode.runtime])
        store = episode.runtime.query_store.stats
        driver = episode.driver.stats
        counts["core.queries_registered"] = store.queries_registered
        counts["net.round_trips"] = driver.round_trips
        counts["net.statements"] = driver.statements
        counts["net.largest_batch"] = driver.largest_batch
        counts["net.shared_scan_rows_saved"] = driver.shared_scan_rows_saved
        counts["sim.time_ms"] = episode.clock.now
        counts["sim.network_ms"] = episode.clock.phase_time(PHASE_NETWORK)
        counts["sim.db_ms"] = episode.clock.phase_time(PHASE_DB)
        counts["sim.app_ms"] = episode.clock.phase_time(PHASE_APP)
        # Every episode does the same work, so each must end in the state
        # (and have shown the dashboards) the first one did.
        attempted = len(self.schedule) + self.sizes["blocks"] * len(DASHBOARD)
        digest = episode.digest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            failed += 1
        kinds_cu = {kind: total / n for kind, (total, n) in sums.items()}
        return Round(raw_s, cu, kinds_cu, attempted + 1, failed, counts,
                     ops_cu)

    def check(self):
        """Differential: the other engine ends the episode with the same
        tables and dashboards, and a prefix of the schedule leaves the same
        tables through the original client as through the Sloth one."""
        attempted = failed = 0
        if engine_kwargs(True) != engine_kwargs(False):
            attempted += 1
            other = _Episode(not self.columnar)
            for index in range(self.sizes["blocks"]):
                other.run_transactions(self._block(index))
                other.run_dashboard([])
            if other.digest() != self.reference:
                failed += 1
        prefix = self.schedule[:self.sizes["prefix_tx"]]
        tables = []
        for lazy in (True, False):
            episode = _Episode(self.columnar, lazy=lazy)
            episode.run_transactions(prefix)
            tables.append(episode.digest()[0])
        attempted += 1
        if tables[0] != tables[1]:
            failed += 1
        return attempted, failed

    def digests(self):
        tables, dashboards = self.reference or ("", "")
        return {"tables_sha256": tables, "rows_sha256": dashboards}


WORKLOADS = {
    "pages_sloth": Pages,
    "pages_original": Pages,
    "pages_hot": Pages,
    "reports": Reports,
    "reports_columnar": Reports,
    "mixed_rw": MixedRw,
    "mixed_rw_columnar": MixedRw,
}


def make(name, sizes=FULL):
    return WORKLOADS[name](name, sizes)
