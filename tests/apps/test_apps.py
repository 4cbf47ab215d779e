"""Integration tests over the benchmark applications."""

import json
import os
import subprocess
import sys

import pytest

from repro.apps import itracker, openmrs, tpcc, tpcw
from repro.bench.harness import compare_pages, load_page
from repro.net.clock import CostModel
from repro.web.appserver import MODE_ORIGINAL, MODE_SLOTH


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

# Prints the number of dispatchers built after importing both apps and
# after each app's ``build_app()`` and first read of ``BENCHMARK_URLS`` —
# in one order for itracker, the other for OpenMRS.
_IMPORT_PROBE = """
import json
from repro.web.framework import Dispatcher
built = []
init = Dispatcher.__init__
Dispatcher.__init__ = lambda self: (built.append(self), init(self))[1]
from repro.apps import itracker, openmrs
counts = [len(built)]
urls = itracker.BENCHMARK_URLS
_, dispatcher = itracker.build_app(projects=1, issues_per_project=1)
counts.append(len(built))
assert itracker.BENCHMARK_URLS is urls and isinstance(urls, tuple)
assert urls == tuple(dispatcher.urls())
_, dispatcher = openmrs.build_app(patients=1, obs_per_encounter=1)
urls = openmrs.BENCHMARK_URLS
counts.append(len(built))
assert openmrs.BENCHMARK_URLS is urls and isinstance(urls, tuple)
assert urls == tuple(dispatcher.urls())
print(json.dumps(counts))
"""


def test_importing_the_apps_builds_no_dispatcher():
    """Importing an app parses no template; ``build_app()`` and
    ``BENCHMARK_URLS`` share one dispatcher per app, whichever comes
    first, and ``BENCHMARK_URLS`` is built at first use, once, as the
    dispatcher's URL tuple."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, 1, 2]


class TestItracker:
    def test_benchmark_count_matches_paper(self):
        assert len(itracker.BENCHMARK_URLS) == 38

    def test_every_page_loads_in_both_modes(self, itracker_app):
        db, dispatcher = itracker_app
        cm = CostModel()
        for url in itracker.BENCHMARK_URLS:
            orig = load_page(db, dispatcher, url, cm, MODE_ORIGINAL)
            sloth = load_page(db, dispatcher, url, cm, MODE_SLOTH)
            assert orig.time_ms > 0 and sloth.time_ms > 0
            assert sloth.round_trips < orig.round_trips, url

    def test_sloth_and_original_render_same_dynamic_content(
            self, itracker_app):
        db, dispatcher = itracker_app
        cm = CostModel()
        url = "module-projects/view_issue.jsp"
        orig = load_page(db, dispatcher, url, cm, MODE_ORIGINAL,
                         params={"id": "7"})
        sloth = load_page(db, dispatcher, url, cm, MODE_SLOTH,
                          params={"id": "7"})
        assert orig.html == sloth.html

    def test_view_issue_batches(self, itracker_app):
        db, dispatcher = itracker_app
        sloth = load_page(db, dispatcher,
                          "module-projects/view_issue.jsp", CostModel(),
                          MODE_SLOTH)
        assert sloth.largest_batch >= 3


class TestOpenmrs:
    def test_benchmark_count_matches_paper(self):
        assert len(openmrs.BENCHMARK_URLS) == 112

    def test_all_pages_render_identically(self, openmrs_app):
        db, dispatcher = openmrs_app
        cm = CostModel()
        for url in openmrs.BENCHMARK_URLS[:20]:
            orig = load_page(db, dispatcher, url, cm, MODE_ORIGINAL)
            sloth = load_page(db, dispatcher, url, cm, MODE_SLOTH)
            assert orig.html == sloth.html, url

    def test_encounter_display_matches_paper_pattern(self, openmrs_app):
        """The §6.1 example: ~50 concept fetches collapse into batches."""
        db, dispatcher = openmrs_app
        cm = CostModel()
        url = "encounters/encounterDisplay.jsp"
        orig = load_page(db, dispatcher, url, cm, MODE_ORIGINAL)
        sloth = load_page(db, dispatcher, url, cm, MODE_SLOTH)
        assert orig.round_trips > 50  # 1+N in the original
        assert sloth.round_trips < orig.round_trips / 5
        assert sloth.largest_batch >= 30
        assert sloth.time_ms < orig.time_ms

    def test_some_pages_issue_more_queries_under_sloth(self, openmrs_app):
        db, dispatcher = openmrs_app
        comparisons = compare_pages(db, dispatcher,
                                    openmrs.BENCHMARK_URLS)
        ratios = [c.queries_ratio for c in comparisons]
        assert any(r < 1.0 for r in ratios)  # paper §6.1
        assert any(r > 1.0 for r in ratios)


class TestTpcc:
    @pytest.fixture(scope="class")
    def runner(self, sim_stack_factory=None):
        from repro.apps.tpcc.transactions import OriginalClient
        from repro.net.clock import CostModel, SimClock
        from repro.net.driver import Driver
        from repro.net.server import DatabaseServer
        from repro.sqldb import Database

        db = Database()
        tpcc.seed(db)
        cm = CostModel()
        clock = SimClock()
        driver = Driver(DatabaseServer(db, cm), clock, cm)
        return tpcc.TpccRunner(OriginalClient(driver, clock, cm)), db

    def test_all_transaction_types_commit(self, runner):
        tpcc_runner, db = runner
        for kind in tpcc.TRANSACTION_TYPES:
            tpcc_runner.run(kind, 1)
        assert tpcc_runner.committed == 5

    def test_new_order_inserts_rows(self, runner):
        tpcc_runner, db = runner
        before = db.table_size("orders")
        tpcc_runner.run("new_order", 7)
        assert db.table_size("orders") == before + 1

    def test_payment_updates_balances(self, runner):
        tpcc_runner, db = runner
        before = db.query("SELECT SUM(w_ytd) AS s FROM warehouse")[0]["s"]
        tpcc_runner.run("payment", 3)
        after = db.query("SELECT SUM(w_ytd) AS s FROM warehouse")[0]["s"]
        assert after > before

    def test_delivery_consumes_new_orders(self, runner):
        tpcc_runner, db = runner
        before = db.table_size("new_order")
        tpcc_runner.run("delivery", 0)
        assert db.table_size("new_order") < before


class TestTpcw:
    def test_mixes_run_and_mutate(self):
        from repro.apps.tpcc.transactions import OriginalClient
        from repro.net.clock import CostModel, SimClock
        from repro.net.driver import Driver
        from repro.net.server import DatabaseServer
        from repro.sqldb import Database

        db = Database()
        tpcw.seed(db)
        cm = CostModel()
        clock = SimClock()
        driver = Driver(DatabaseServer(db, cm), clock, cm)
        runner = tpcw.TpcwRunner(OriginalClient(driver, clock, cm))
        for mix in tpcw.MIXES:
            runner.run_mix(mix, 30)
        assert runner.interactions == 90
        # the ordering mix creates carts and orders
        assert db.table_size("cart_line") > 0 or db.table_size("tw_order") > 0
