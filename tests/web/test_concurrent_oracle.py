"""Foreign-write oracle: pages loaded between other clients' commits
render byte-identically to a fresh database that saw only those commits.

One shared database serves every page load, with its cross-request result
cache on, while a seeded write workload commits between the loads.  Each
page must render exactly the HTML of a reference load on a *fresh*
database that replays the writes committed so far — byte for byte, under
every batching threshold and async pipeline depth.  A cached result that
outlived a write touching its table, or a batch shape that changed what a
page reads, shows up as a byte difference.
"""

import random

import pytest

from repro.apps import itracker
from repro.net.clock import CostModel
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


def _load(db, dispatcher, url, threshold, depth):
    server = AppServer(db, dispatcher, CostModel(), mode=MODE_SLOTH,
                       async_dispatch=True, auto_flush_threshold=threshold,
                       pipeline_depth=depth)
    return server.load_page(Request(url, {}))


def _reference_html(writes, url, threshold, depth):
    """Serial execution: a fresh database with ``writes`` replayed."""
    db, dispatcher = itracker.build_app()
    for sql, params in writes:
        db.execute(sql, params)
    return _load(db, dispatcher, url, threshold, depth).html


class TestForeignWritesBetweenLoadsOracle:
    @pytest.mark.parametrize("threshold,depth", SHAPES)
    def test_each_page_renders_the_writes_committed_before_it(
            self, threshold, depth):
        """Loads alternate with bursts of zero to two foreign writes; every
        load must match the reference for the writes committed so far, and
        the shared cache must really have served some of them."""
        rng = random.Random(20140608 + threshold * 10 + depth)
        db, dispatcher = itracker.build_app()
        writes = []
        hits = 0
        for i in range(8):
            for _ in range(rng.randrange(3)):
                sql, params = _random_write(rng, len(writes))
                db.execute(sql, params)
                writes.append((sql, params))
            url = PAGES[i % len(PAGES)]
            result = _load(db, dispatcher, url, threshold, depth)
            assert result.html == _reference_html(writes, url, threshold,
                                                  depth), (i, len(writes))
            hits += result.result_cache_hits
        assert writes and hits
        assert db.result_cache_stats()["invalidations"]
