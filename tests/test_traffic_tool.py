"""Smoke test for ``tools/traffic.py``: the whole-tree call counter that
ROADMAP's zero-traffic rule is applied with."""

import functools
import importlib.util
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="co_qualname needs Python 3.11")

# Deleted under the rule; a later PR bringing one back needs a workload.
DELETED = {
    "_order_stats_fraction", "_snapshot_range_fraction", "_bound_fraction",
    "_literal_prefix", "_snapshot_stats", "TableStats.range_fraction",
    "OrderedIndex.range_fraction", "OrderedIndex.prefix_range_fraction",
    "compile_vec", "_neg_value", "_concat_value",
    "compile_grouped_item_columnar.<locals>.update_count",
    "compile_grouped_item_columnar.<locals>.update_extremum",
    "compile_grouped_item_columnar.<locals>.update_collect",
    "compile_aggregate_item_columnar.<locals>.first_row_fn",
    "QueryStore.begin_request", "QueryStore.enter_request",
    "ThunkWriter.flushed", "ThunkWriter.write", "ThunkWriter.write_thunk",
    "_TextNode.render", "_VarNode.render", "_ForNode.render",
    "_IfNode.render", "_lookup_until_delayed",
    # the partitioned multi-node backend and the arms that served only it
    *(f"ShardedDatabase.{name}" for name in (
        "__init__", "execute_parsed", "explain", "primary", "all_databases",
        "planner_backend", "_execute_scatter", "_execute_gather",
        "_execute_write", "_write_insert", "_write_update_delete",
        "_broadcast_write", "_catch_up", "replica_lag")),
    *(f"ShardedResultCache.{name}" for name in ("__init__", "stats")),
    *(f"ShardTopology.{name}" for name in ("__init__", "shard_of")),
    "PartitionSpec.shard_of", "Router.plan_select", "Router.decide",
    "Router.broadcast_read_shard", "Router.write_shards", "_merge_streams",
    "_with_phases", "_routed_value", "_pushdown_limit", "shard_topology",
    "DatabaseServer.statement_cost", "Database.planner_backend",
    "_DbPart.__init__", "_Station.__init__", "_ConcurrentSimulation._station",
    # the result cache's lookup-time validation by table write versions
    "current_versions", "Table.bump_write_version", "Table._note_write",
    "Executor._invalidate_plans",
    # the write path's whole-WHERE search and the per-statement helpers
    # of the trip through core and net
    "candidate_rows", "is_read_statement", "QueryStore._new_id",
    # the special cases a stored or bound NaN needed (a NaN enters as NULL)
    "OrderedIndex.walkable", "IndexRangeScanOp._sorted_fallback",
    # the frames of the crossing that only forwarded
    "Driver._check_open", "DatabaseServer._execute_batch_direct",
    # code-level equality over a dictionary lane, once scans read facets
    "_dict_eq",
}


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "traffic", os.path.join(ROOT, "tools", "traffic.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The names ``plan/compile.py``'s ``_loop`` gives the loops it generates.
GENERATED = re.compile(r"cmp_(eq|ne|lt|gt|le|ge)_(num|bool|exact)"
                       r"|between_(num|bool|exact)_(num|bool|exact)"
                       r"|arith_(add|sub|mul|div|mod)_(vv|vs|sv)"
                       r"|project_[pdn]+")


@functools.lru_cache(maxsize=None)
def _mixed_rw_smoke_calls():
    """One profiled smoke episode, shared by the tests that read it."""
    return _load_tool().count_calls("mixed_rw", smoke=True)


@functools.lru_cache(maxsize=None)
def _pages_sloth_smoke_calls():
    """One profiled smoke round of ``pages_sloth``, shared likewise."""
    return _load_tool().count_calls("pages_sloth", smoke=True)


@functools.lru_cache(maxsize=None)
def _pages_original_smoke_calls():
    """One profiled smoke round of ``pages_original``, shared likewise."""
    return _load_tool().count_calls("pages_original", smoke=True)


@functools.lru_cache(maxsize=None)
def _reports_smoke_calls():
    """One profiled smoke round of ``reports``, shared likewise."""
    return _load_tool().count_calls("reports", smoke=True)


def test_reports_smoke_counts_are_repeatable():
    traffic = _load_tool()
    first = _reports_smoke_calls()
    second = traffic.count_calls("reports", smoke=True)
    assert first[traffic.EXECUTE] > 0
    assert set(first) == set(second)
    defined = traffic.defined_functions()
    generated = traffic.generated_loops(first, defined)
    assert generated  # the engine's hottest loops are counted
    assert all(GENERATED.fullmatch(name) for _, name in generated)
    # every other called name is a defined one
    assert set(first) - generated <= defined
    assert not {name for _, name in defined} & DELETED


def test_kernels_lists_each_generated_loop(monkeypatch, capsys):
    """``--kernels``: each loop ``plan/compile.py`` generated and ran is a
    row of kind ``generated`` with its calls and calls per execution.
    ``reports`` runs both arithmetic loops of ``synth.project_arith``'s
    ``amount * ? + kind`` and the comparison loops of its scans' and
    joins' WHERE clauses, each once per chunk (an ordered-index walk
    re-checks none of its bounds, so no BETWEEN loop runs)."""
    traffic = _load_tool()
    calls = _reports_smoke_calls()
    monkeypatch.setattr(traffic, "count_calls",
                        lambda target, seed, smoke: calls)
    assert traffic.main(["--smoke", "--kernels", "reports"]) == 0
    rows = {fields[1]: fields[2:] for fields in
            map(str.split, capsys.readouterr().out.splitlines())
            if fields and fields[0] == "generated"}
    assert {"arith_mul_vs", "arith_add_vv", "cmp_gt_num", "cmp_ge_num",
            "cmp_lt_num", "cmp_eq_num"} <= set(rows)
    executions = calls[traffic.EXECUTE]
    for name, (n, per_execution) in rows.items():
        assert GENERATED.fullmatch(name)
        assert 0 < int(n) < executions
        assert float(per_execution) == pytest.approx(int(n) / executions,
                                                     abs=5e-4)


def test_plan_time_work_does_not_scale_with_executions():
    """A WHERE's lookup shape and a write's row context are built per
    plan; an execution only binds parameters to them.  Judged against the
    executions that need a shape (1 936 in this run; 2 559 while the
    workload's check replayed its episode on a second engine):
    re-deriving per execution made 2.4x as many ``_equality_shapes`` calls
    and one ``_single_table_context`` per UPDATE / DELETE (1 041)."""
    calls = _mixed_rw_smoke_calls()
    access = os.path.join("sqldb", "plan", "access.py")
    executions = calls[access, "resolve_index_lookup"]
    assert executions > 1500
    assert 0 < calls[access, "_equality_shapes"] < executions
    contexts = calls[os.path.join("sqldb", "executor.py"),
                     "_single_table_context"]
    assert 0 < contexts <= executions // 10


def test_a_statement_is_parsed_once_per_side_of_the_wire():
    """Every parse beyond the one an execution needs is a registration:
    the store classifies a statement (read or write) and the server parses
    it to execute it — 21 251 - 19 072 = 2 179 registrations in this run;
    classifying on the server as well made it 2 x 2 179.  Parameters are
    bound once per statement: ``as_params`` runs once per execution, at
    the engine's one door (where a NaN binds as NULL), and the store keys
    a tuple as it comes (binding it there too made 19 072 + 2 179)."""
    calls = _mixed_rw_smoke_calls()
    parses = calls[os.path.join("sqldb", "parser.py"), "parse"]
    executions = calls[os.path.join("sqldb", "database.py"),
                       "Database.execute_parsed"]
    registrations = calls[os.path.join("core", "query_store.py"),
                          "QueryStore.register_query"]
    assert registrations > 2000
    assert parses - executions == registrations
    assert calls[os.path.join("sqldb", "executor.py"),
                 "as_params"] == executions


def test_a_round_trip_is_one_clock_call():
    """Each round trip, a batch or the original driver's one statement,
    is one clock call, ``SimClock.round_trip`` (2 939 here), which charges
    its app leg through ``charge``; every other ``charge`` is app work — a
    thunk allocated or forced, a run of operations.  Three ``charge``s a
    round trip made 10 902 charges where there are 5 024."""
    calls = _mixed_rw_smoke_calls()
    net, core = "net", "core"
    round_trips = (calls[os.path.join(net, "driver.py"), "Driver.execute"]
                   + calls[os.path.join(net, "driver.py"),
                           "BatchDriver.execute_batch"])
    assert round_trips > 2000
    assert calls[os.path.join(net, "clock.py"),
                 "SimClock.round_trip"] == round_trips
    runtime = os.path.join(core, "runtime.py")
    app_work = (calls[runtime, "SlothRuntime.on_thunk_allocated"]
                + calls[runtime, "SlothRuntime.on_force"]
                + calls[runtime, "SlothRuntime.run_ops"]
                + calls[os.path.join("apps", "tpcc", "transactions.py"),
                        "OriginalClient.ops"])
    assert calls[os.path.join(net, "clock.py"), "SimClock.charge"] == \
        app_work + round_trips


def test_a_write_keyed_on_its_primary_key_evaluates_nothing():
    """Every TPC-C UPDATE / DELETE is keyed on its primary key, which
    decides its whole WHERE, and each SET cell is a bind or ``column + - *
    a literal or a parameter``: none of them calls the interpreter, and
    since an ordered walk resolves its prefix and bounds through closures
    built with its plan, nothing else in the episode does either (8 137
    ``evaluate`` calls when every candidate re-checked the whole WHERE, in
    a run that also replayed the episode on a second engine; 296 while the
    walks resolved their constants through the interpreter).  An undo log
    is started by BEGIN and by a new database, never by COMMIT or
    ROLLBACK."""
    calls = _mixed_rw_smoke_calls()
    sqldb = "sqldb"
    assert calls[os.path.join(sqldb, "executor.py"), "_change_rows"] > 700
    assert calls.get((os.path.join(sqldb, "expressions.py"), "evaluate"),
                     0) == 0
    transactions = os.path.join(sqldb, "transactions.py")
    begins = calls[transactions, "TransactionManager.begin"]
    assert begins > 100
    assert calls[transactions, "UndoLog.__init__"] == begins + calls[
        transactions, "TransactionManager.__init__"]


@pytest.mark.parametrize("target", ["pages_sloth", "reports"])
def test_a_cached_plan_resolves_its_constants_once(target):
    """A kernel's or a zone test's literal or parameter, a LIMIT and an
    OFFSET, an ordered walk's prefix and bounds, and an aggregate's plain
    items resolve through closures built with the plan, so no page and no
    report statement calls the interpreter; the only SELECT shapes that
    still would are those with no kernel (``interpreted_lane``: OR, NOT,
    IN, LIKE, ...), which neither workload issues.  A literal LIMIT is
    checked once, when its plan is built: ``resolve_limit`` checks a
    ``LIMIT ?`` value and an invalid literal, and neither workload has
    one.  While those constants went through the interpreter on every
    execution, a smoke run made 1 302 ``evaluate`` and 348
    ``resolve_limit`` calls in ``pages_sloth``, 159 and 18 in
    ``reports``."""
    calls = (_pages_sloth_smoke_calls() if target == "pages_sloth"
             else _reports_smoke_calls())
    traffic = _load_tool()
    assert calls[traffic.EXECUTE] > (1000 if target == "pages_sloth" else 50)
    for name in ((os.path.join("sqldb", "expressions.py"), "evaluate"),
                 (os.path.join("sqldb", "plan", "physical.py"),
                  "resolve_limit"),
                 (traffic.COMPILE, traffic.FALLBACKS[0])):
        assert calls.get(name, 0) == 0, name


@pytest.mark.parametrize("target", ["pages_sloth", "pages_original"])
def test_a_page_equality_reads_its_snapshot(target):
    """Every ``col = ?`` a page sweep tests is a scan's, over chunks of a
    table's snapshot, so each reads the slice's equality facet
    (``_facet_eq``, 477 calls in ``pages_sloth``) and no ``cmp_eq_*`` loop
    runs — 0 left: the sweeps test no ``=`` over index hits or join
    output.  With the loop as the kernel a smoke round ran 240
    ``cmp_eq_exact``, 105 ``cmp_eq_num`` and 132 ``_dict_eq`` (code-level
    equality over a dictionary lane, deleted with its last caller).  A
    column the pages' scans test only with ``=`` needs no zone map:
    ``_column_zones`` reads 0 (10 while ``=`` pruned by ranges).  A
    column's facets are built at most once per snapshot: 10 builds over
    21 snapshots."""
    calls = (_pages_sloth_smoke_calls() if target == "pages_sloth"
             else _pages_original_smoke_calls())
    traffic = _load_tool()
    columnar = os.path.join("sqldb", "columnar.py")
    assert calls[traffic.COMPILE, "_facet_eq"] > 400
    assert calls[columnar, "_column_facets"] <= calls[
        columnar, "ColumnStore.build"]
    assert not {name for file, name in calls
                if file == traffic.COMPILE and name.startswith("cmp_eq_")}
    assert calls.get((columnar, "_column_zones"), 0) == 0


def test_calls_prints_raw_counts_per_target(monkeypatch, capsys):
    """``--calls NAME ... TARGET ...``: one row a function, one column a
    target, raw counts.  Read off it: with the cache on (``mixed_rw``) a
    SELECT is exactly one ``lookup`` and a miss exactly one ``plan_for``
    and one ``store``; with it off (``reports``) a SELECT makes no call
    into the cache at all."""
    traffic = _load_tool()
    runs = {"mixed_rw": _mixed_rw_smoke_calls(),
            "reports": _reports_smoke_calls()}
    monkeypatch.setattr(traffic, "count_calls",
                        lambda target, seed, smoke: runs[target])
    names = ["Executor.select", "ResultCache.lookup", "Executor.plan_for",
             "ResultCache.store"]
    assert traffic.main(["--smoke", "--calls", *names, "mixed_rw",
                         "reports"]) == 0
    header, *rows = [line.split() for line in
                     capsys.readouterr().out.splitlines()
                     if not line.startswith("#")]
    assert header == ["mixed_rw", "reports"]
    assert [row[0] for row in rows] == names
    table = {row[0]: list(map(int, row[1:])) for row in rows}
    selects, lookups, plans, stores = (table[name] for name in names)
    assert selects[0] > 1000 and lookups[0] == selects[0]
    assert 0 < stores[0] == plans[0] <= lookups[0]
    assert selects[1] == plans[1] > 50 and lookups[1] == stores[1] == 0
    with pytest.raises(SystemExit):
        traffic.main(["--calls", "Executor.no_such_function", "reports"])


def test_plans_mode_reports_decisions_and_digest(capsys):
    """``--plans TARGET``: one row a count or a variant, one column a
    target.  On the report statements turning ``ordered_access`` off
    changes plans and scaling the fallback selectivity by 3 changes none.
    Dividing it by 4 changes one: ``encounters_in_period``'s range scan
    then estimates ~30 rows instead of ~120, below the 50-row patient
    table, so both of its joins cross from hash builds to PK probes.

    Every plan's first execution is probed by EXPLAIN ANALYZE: each
    row-source operator of a plan that reads its source to the end gives
    one q-error, and the top-N pages (a ``limit_hint`` stops them after N
    rows) are counted apart."""
    traffic = _load_tool()
    assert traffic.main(["--smoke", "--plans", "reports"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["reports"]
    rows = {name: cells for name, *cells in map(str.split, lines)}
    assert re.fullmatch("[0-9a-f]{12}", rows["digest"][0])
    assert re.fullmatch("[0-9a-f]{12}", rows["shapes"][0])
    assert int(rows["builds"][0]) == int(rows["selects"][0]) > 20
    builds, selects = map(int, rows["ordered_access=False"][0].split("/"))
    assert builds >= selects > 0
    assert rows["FALLBACK_SELECTIVITY*3"] == ["0/0"]
    assert rows["FALLBACK_SELECTIVITY/4"] == ["1/1"]
    assert int(rows["operators"][0]) > int(rows["builds"][0])
    median, p90, worst = (float(rows[name][0])
                          for name in ("q_median", "q_p90", "q_max"))
    assert 1.0 <= median <= p90 <= worst
    assert worst > 2.0  # the fallback prices a range 0.3 whatever it holds
    assert int(rows["limit_cutoff"][0]) > 0


def test_plans_shapes_digest_ignores_build_counts():
    """``digest`` covers every (SQL, EXPLAIN) pair with its build count,
    ``shapes`` the distinct pairs alone: a change that only rebuilds a
    plan less often moves the first and keeps the second."""
    digests = _load_tool().plans_digests
    once = {("SELECT x FROM a", "Scan a"): 1,
            ("SELECT y FROM b", "Scan b"): 1}
    rebuilt = {("SELECT x FROM a", "Scan a"): 7,
               ("SELECT y FROM b", "Scan b"): 1}
    other_plan = {("SELECT x FROM a", "IndexScan a"): 1,
                  ("SELECT y FROM b", "Scan b"): 1}
    digest, shapes = digests(once)
    assert all(re.fullmatch("[0-9a-f]{12}", d) for d in (digest, shapes))
    assert digests(rebuilt)[1] == shapes
    assert digests(rebuilt)[0] != digest
    assert digests(other_plan)[1] != shapes
    assert digests(dict(reversed(once.items()))) == (digest, shapes)


def test_cycles_mode_reads_zero_after_a_page_round(capsys):
    """``--cycles WORKLOAD``: one row a workload, the objects the cycle
    collector found after one round run without it.  A page load frees
    itself (ARCHITECTURE.md, "Request lifetime"), so a page round leaves
    nothing; a target that runs no round is refused."""
    traffic = _load_tool()
    assert traffic.main(["--smoke", "--cycles", "pages_sloth"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["objects", "top", "types"]
    assert [row.split() for row in rows] == [["pages_sloth", "0"]]
    with pytest.raises(SystemExit):
        traffic.main(["--cycles", "figures"])
