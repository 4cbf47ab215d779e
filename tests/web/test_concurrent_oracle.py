"""Concurrent-serving oracle: interleaved requests render byte-identically
to serial execution.

Under concurrent serving a request's statements execute while *other*
requests commit writes.  Each request opens a read view at admission, so
its page must render exactly the HTML a serial execution against the
database state at admission would produce — byte for byte, whatever
batching threshold and pipeline depth the request runs with, and whether
the foreign writes land before the request starts or between its batches.

The oracle checks that directly: a seeded write workload interleaves with
page loads on one shared database, and every page is compared against a
reference rendered on a *fresh* database that replays only the writes
committed before that request's admission.
"""

import random

import pytest

from repro.apps import itracker
from repro.net.clock import CostModel
from repro.net.driver import BatchDriver
from repro.web.appserver import AppServer, MODE_SLOTH
from repro.web.framework import Request

PAGES = ("module-projects/list_issues.jsp",
         "module-projects/view_issue.jsp")

#: Every batching shape the oracle must hold under: flush threshold x
#: async pipeline depth.
SHAPES = ((2, 2), (2, 4), (4, 2), (4, 4))


def _random_write(rng, seq):
    """One committed foreign write touching what the pages render."""
    kind = rng.randrange(3)
    issue_id = rng.randrange(1, 51)  # project 1's issues
    if kind == 0:
        return ("UPDATE it_issue SET description = ? WHERE id = ?",
                (f"hijacked #{seq}", issue_id))
    if kind == 1:
        return ("UPDATE it_issue SET status = ? WHERE id = ?",
                (900 + seq, issue_id))
    return ("INSERT INTO it_issue (id, project_id, creator_id, owner_id,"
            " severity, status, resolution, description, last_modified)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (100000 + seq, 1, 1, 2, 1, 1, "open",
             f"interloper #{seq}", "2014-05-01"))


def _load(db, dispatcher, url, threshold, depth, read_view=None,
          driver_factory=None):
    server = AppServer(db, dispatcher, CostModel(), mode=MODE_SLOTH,
                       async_dispatch=True, auto_flush_threshold=threshold,
                       pipeline_depth=depth, driver_factory=driver_factory)
    return server.load_page(Request(url, {}), read_view=read_view)


def _reference_html(writes, url, threshold, depth):
    """Serial execution: a fresh database with ``writes`` replayed."""
    db, dispatcher = itracker.build_app()
    for sql, params in writes:
        db.execute(sql, params)
    return _load(db, dispatcher, url, threshold, depth).html


class TestInterleavedRequestsOracle:
    @pytest.mark.parametrize("threshold,depth", SHAPES)
    def test_admission_time_snapshots_across_foreign_commits(
            self, threshold, depth):
        """Views opened at staggered points; pages loaded in a shuffled
        order after *all* writes committed must render each its own
        admission state."""
        rng = random.Random(20140608 + threshold * 10 + depth)
        db, dispatcher = itracker.build_app()
        writes = []
        requests = []  # (view, url, number of writes committed)
        for i in range(6):
            for _ in range(rng.randrange(3)):
                sql, params = _random_write(rng, len(writes))
                db.execute(sql, params)
                writes.append((sql, params))
            requests.append((db.read_views.open(), PAGES[i % len(PAGES)],
                             len(writes)))
        # A final burst after every admission, so even the last view is
        # stale by load time.
        for _ in range(3):
            sql, params = _random_write(rng, len(writes))
            db.execute(sql, params)
            writes.append((sql, params))
        rng.shuffle(requests)
        for view, url, committed in requests:
            result = _load(db, dispatcher, url, threshold, depth,
                           read_view=view)
            expected = _reference_html(writes[:committed], url,
                                       threshold, depth)
            assert result.html == expected
            view.close()

    @pytest.mark.parametrize("threshold,depth", SHAPES)
    def test_writes_landing_between_batches_stay_invisible(
            self, threshold, depth):
        """A foreign write that commits *between* a request's batches must
        not leak into later batches of the same request."""
        rng = random.Random(77 + threshold * 10 + depth)
        for url in PAGES:
            db, dispatcher = itracker.build_app()
            pre_writes = [_random_write(rng, seq) for seq in range(3)]
            for sql, params in pre_writes:
                db.execute(sql, params)
            mid_writes = [_random_write(rng, seq)
                          for seq in range(50, 54)]

            def interfere():
                if mid_writes:
                    sql, params = mid_writes.pop(0)
                    db.execute(sql, params)

            class InterferingDriver(BatchDriver):
                """Commits one foreign write after each of its batches,
                synchronous or shipped in the background — the
                single-threaded stand-in for a concurrent writer."""

                def execute_batch(self, statements, batch_optimize=False):
                    results = super().execute_batch(statements,
                                                    batch_optimize)
                    interfere()
                    return results

                def execute_batch_async(self, statements,
                                        batch_optimize=False):
                    outcome = super().execute_batch_async(statements,
                                                          batch_optimize)
                    interfere()
                    return outcome

            view = db.read_views.open()
            result = _load(db, dispatcher, url, threshold, depth,
                           read_view=view,
                           driver_factory=InterferingDriver)
            view.close()
            assert len(mid_writes) < 4  # interference really happened
            expected = _reference_html(pre_writes, url, threshold, depth)
            assert result.html == expected

    def test_result_cache_stays_correct_across_views(self):
        """Interleaved loads share the cross-request result cache; stale
        views must neither hit it nor poison it."""
        db, dispatcher = itracker.build_app()
        url = PAGES[0]
        baseline = _load(db, dispatcher, url, 4, 4).html
        view = db.read_views.open()
        db.execute("UPDATE it_issue SET description = 'CHANGED' "
                   "WHERE id = 1")
        # Warm the cache at the new state...
        live_after = _load(db, dispatcher, url, 4, 4).html
        assert live_after != baseline
        # ...the stale view still renders the admission state...
        snapshot = _load(db, dispatcher, url, 4, 4, read_view=view).html
        assert snapshot == baseline
        view.close()
        # ...and the snapshot load did not poison the cache for live reads.
        assert _load(db, dispatcher, url, 4, 4).html == live_after
