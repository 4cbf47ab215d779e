import pytest

from repro.compiler import kernel as K
from repro.compiler.errors import KernelError, KernelParseError
from repro.compiler.lazy_interp import LazyInterpreter
from repro.compiler.optimize import OptimizationPlan
from repro.compiler.parser import parse_program
from repro.compiler.standard_interp import StandardInterpreter
from repro.core.thunk import force


BRANCH_SRC = """
a := R(1);
if (a > 0) { x := 1; } else { x := 2; }
b := R(2);
output x; output b;
"""

COALESCE_SRC = """
a := R(1);
b := a + 1;
c := b + 1;
d := c + 1;
e := d * 2;
output e;
"""

SELECTIVE_SRC = """
fn fmt(v) { t := v + 1; u := t * 2; return u; }
x := R(1);
y := fmt(x);
output y;
"""

ALL_OPTS_SRC = """
fn helper(v) { r := v + 100; return r; }
a := R(1);
b := R(2);
if (a > b) { m := a; } else { m := b; }
c := helper(m);
W(c);
d := R(c);
output d;
"""


def run_both(src, db=None, plan_flags=None):
    program = parse_program(src)
    std = StandardInterpreter(program, db).run()
    plan = None
    if plan_flags is not None:
        plan = OptimizationPlan(program, *plan_flags)
    lazy = LazyInterpreter(program, db, plan).run()
    return std, lazy


class TestStandardSemantics:
    def test_arithmetic_and_vars(self):
        std, _ = run_both("x := 2 + 3 * 4; y := x - 1;")
        assert std.env == {"x": 14, "y": 13}

    def test_while_loop(self):
        std, _ = run_both(
            "i := 0; s := 0; while (i < 5) { s := s + i; i := i + 1; }")
        assert std.env["s"] == 10

    def test_records_and_fields(self):
        std, _ = run_both("p := {x: 1, y: 2}; p.x := 5; v := p.x + p.y;")
        assert std.env["v"] == 7

    def test_reads_and_writes(self):
        std, _ = run_both("a := R(1); W(1); b := R(1); output a + b;",
                          db={1: 10})
        assert std.output == [21]
        assert std.round_trips == 3

    def test_function_call(self):
        std, _ = run_both(
            "fn double(v) { r := v * 2; return r; } x := double(21);")
        assert std.env["x"] == 42

    def test_unbound_variable_raises(self):
        with pytest.raises(KernelError):
            run_both("x := y;")

    def test_step_budget_stops_divergence(self):
        with pytest.raises(KernelError):
            run_both("while (true) { x := 1; }")

    def test_parse_error(self):
        with pytest.raises(KernelParseError):
            parse_program("x := ;")


class TestLazySemantics:
    def test_batching_reduces_round_trips(self):
        src = """
        a := R(1);
        b := R(2);
        c := R(3);
        output a + b + c;
        """
        std, lazy = run_both(src, db={1: 1, 2: 2, 3: 3})
        assert std.output == lazy.output == [6]
        assert std.round_trips == 3
        assert lazy.round_trips == 1
        assert lazy.store.stats.largest_batch == 3

    def test_dependent_queries_force_sequentially(self):
        src = "a := R(1); b := R(a); output b;"
        std, lazy = run_both(src, db={1: 7, 7: 70})
        assert lazy.output == [70]
        assert lazy.round_trips == 2

    def test_unused_query_never_issued(self):
        from repro.compiler.parser import parse_program

        program = parse_program("a := R(1); b := 2; output b;")
        lazy = LazyInterpreter(program, {1: 5}).run(force_final=False)
        # The program never needed a's value: the query stayed pending.
        assert lazy.round_trips == 0
        assert lazy.store.stats.queries_issued == 0
        assert lazy.output == [2]

    def test_write_ships_with_pending_reads(self):
        src = "a := R(1); W(5); output a;"
        std, lazy = run_both(src, db={1: 9})
        assert std.output == lazy.output == [9]
        assert std.round_trips == 2
        assert lazy.round_trips == 1  # read + write in one batch
        assert lazy.store.stats.batches_flushed == 1
        assert lazy.store.stats.largest_batch == 2

    def test_reads_before_write_see_old_db(self):
        src = "a := R(1); W(1); b := R(1); output a; output b;"
        std, lazy = run_both(src, db={1: 3})
        assert std.output == lazy.output == [3, 4]

    def test_dedup_identical_reads(self):
        src = "a := R(1); b := R(1); output a + b;"
        _, lazy = run_both(src, db={1: 4})
        assert lazy.output == [8]
        assert lazy.store.stats.dedup_hits == 1
        assert lazy.round_trips == 1

    def test_heap_writes_not_deferred(self):
        src = "p := {v: 0}; p.v := R(1); q := p.v; output q;"
        std, lazy = run_both(src, db={1: 6})
        assert std.output == lazy.output == [6]

    def test_branch_condition_forces_in_basic_mode(self):
        std, lazy = run_both(BRANCH_SRC, db={1: 1, 2: 9})
        # basic: condition forces a before b registers -> two batches
        assert lazy.round_trips == 2
        assert std.output == lazy.output


class TestOptimizations:
    def test_branch_deferral_merges_batches(self):
        _, basic = run_both(BRANCH_SRC, db={1: 1, 2: 9})
        _, optimized = run_both(BRANCH_SRC, db={1: 1, 2: 9},
                                plan_flags=(False, False, True))
        assert optimized.output == basic.output
        assert optimized.round_trips < basic.round_trips
        assert optimized.store.stats.largest_batch == 2

    def test_coalescing_reduces_allocations(self):
        # Seed the chain with a query result so the arithmetic is genuinely
        # delayed (constants fold away without ever allocating a thunk).
        _, basic = run_both(COALESCE_SRC, db={1: 1})
        _, coalesced = run_both(COALESCE_SRC, db={1: 1},
                                plan_flags=(False, True, False))
        assert coalesced.output == basic.output == [8]
        assert coalesced.thunks_allocated < basic.thunks_allocated

    def test_selective_compilation_skips_nonpersistent_fn(self):
        _, basic = run_both(SELECTIVE_SRC, db={1: 10})
        _, selective = run_both(SELECTIVE_SRC, db={1: 10},
                                plan_flags=(True, False, False))
        assert basic.output == selective.output == [22]

    def test_all_optimizations_preserve_results(self):
        db = {1: 5, 2: 7}
        std, lazy_all = run_both(ALL_OPTS_SRC, db=db,
                                 plan_flags=(True, True, True))
        assert std.output == lazy_all.output
        assert std.db == lazy_all.db
        assert lazy_all.round_trips <= std.round_trips

    def test_a_block_that_removes_no_temporary_costs_one_thunk_more(self):
        # A block is 1 + its live outputs: with no dead temporary to drop
        # it loses to one thunk per statement by exactly the block.
        src = "a := R(1); x := a + 1; y := a + 2; output x; output y;"
        _, basic = run_both(src, db={1: 1})
        _, coalesced = run_both(src, db={1: 1},
                                plan_flags=(False, True, False))
        assert coalesced.output == basic.output == [2, 3]
        assert (basic.thunks_allocated, coalesced.thunks_allocated) == (3, 4)

    def test_a_block_is_allocated_even_when_its_result_is_overwritten(self):
        # Hypothesis seed 3's counterexample to "TC never allocates more":
        # the basic compiler drops R(0)'s thunk unforced (0 round trips),
        # the block reads `a` when the closing force-all runs it.
        src = "a := R(0); a := a; a := 0;"
        std, basic = run_both(src)
        _, coalesced = run_both(src, plan_flags=(False, True, False))
        assert coalesced.env == basic.env == std.env == {"a": 0}
        assert (basic.thunks_allocated, coalesced.thunks_allocated) == (1, 2)
        assert (basic.round_trips, coalesced.round_trips,
                std.round_trips) == (0, 1, 1)

    def test_a_block_evaluates_its_dead_assignment_and_forces_early(self):
        # `c := d + 1` is dead, but the block runs it — forcing d, hence a
        # flush — before R(c) registers: one round trip more than basic,
        # still one fewer than standard.
        src = "d := R(1); c := d + 1; c := 4; e := R(c); W(0);"
        std, basic = run_both(src, db={1: 1})
        _, coalesced = run_both(src, db={1: 1},
                                plan_flags=(False, True, False))
        assert coalesced.env == basic.env == std.env
        assert coalesced.db == basic.db == std.db
        assert (basic.round_trips, coalesced.round_trips,
                std.round_trips) == (1, 2, 3)
        assert (basic.store.stats.largest_batch,
                coalesced.store.stats.largest_batch) == (3, 2)


# (round_trips, thunks_allocated, largest_batch, dedup_hits, queries_issued)
# of the lazy run after force-all, under no plan and under SC+TC+BD — read
# off the interpreter's own counters before it ran on ``repro.core``, so a
# drift in the accounting of Thunk / ThunkBlock / QueryStoreStats /
# DriverStats fails here.
EXACT_COUNTS = {
    "arithmetic": ("x := 2 + 3 * 4; y := x - 1;", None,
                   (0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    "reads_and_writes": ("a := R(1); W(1); b := R(1); output a + b;",
                         {1: 10}, (2, 3, 2, 0, 3), (2, 3, 2, 0, 3)),
    "pure_call": ("fn double(v) { r := v * 2; return r; } x := double(21);",
                  None, (0, 1, 0, 0, 0), (0, 0, 0, 0, 0)),
    "batching": ("a := R(1); b := R(2); c := R(3); output a + b + c;",
                 {1: 1, 2: 2, 3: 3}, (1, 5, 3, 0, 3), (1, 5, 3, 0, 3)),
    "dependent": ("a := R(1); b := R(a); output b;", {1: 7, 7: 70},
                  (2, 2, 1, 0, 2), (2, 2, 1, 0, 2)),
    "unused_then_forced": ("a := R(1); b := 2; output b;", {1: 5},
                           (1, 1, 1, 0, 1), (1, 1, 1, 0, 1)),
    "write_ships": ("a := R(1); W(5); output a;", {1: 9},
                    (1, 1, 2, 0, 2), (1, 1, 2, 0, 2)),
    "old_db": ("a := R(1); W(1); b := R(1); output a; output b;", {1: 3},
               (2, 2, 2, 0, 3), (2, 2, 2, 0, 3)),
    "dedup": ("a := R(1); b := R(1); output a + b;", {1: 4},
              (1, 3, 1, 1, 1), (1, 3, 1, 1, 1)),
    "heap": ("p := {v: 0}; p.v := R(1); q := p.v; output q;", {1: 6},
             (1, 1, 1, 0, 1), (1, 1, 1, 0, 1)),
    "branch": (BRANCH_SRC, {1: 1, 2: 9}, (2, 3, 1, 0, 2), (1, 4, 2, 0, 2)),
    "coalesce": (COALESCE_SRC, {1: 1}, (1, 5, 1, 0, 1), (1, 3, 1, 0, 1)),
    "selective": (SELECTIVE_SRC, {1: 10}, (1, 2, 1, 0, 1), (1, 1, 1, 0, 1)),
    "all_opts": (ALL_OPTS_SRC, {1: 5, 2: 7},
                 (3, 5, 2, 0, 4), (3, 5, 2, 0, 4)),
}


@pytest.mark.parametrize("name", EXACT_COUNTS)
def test_exact_counts_under_no_plan_and_every_optimization(name):
    src, db, basic_counts, optimized_counts = EXACT_COUNTS[name]
    for flags, expected in ((None, basic_counts),
                            ((True, True, True), optimized_counts)):
        std, lazy = run_both(src, db=db, plan_flags=flags)
        stats = lazy.store.stats
        assert (lazy.env, lazy.db, lazy.output) == (
            std.env, std.db, std.output)
        assert (lazy.round_trips, lazy.thunks_allocated, stats.largest_batch,
                stats.dedup_hits, stats.queries_issued) == expected
        # The driver and the store saw the same batches.
        assert lazy.round_trips == stats.batches_flushed


def test_errors_are_delayed_like_values_and_a_batch_fails_as_one():
    program = parse_program(
        "p := {x: 1}; a := R(1); b := R(p); output 7; output a;")
    std = StandardInterpreter(program, {1: 5})
    with pytest.raises(KernelError):
        std.run()
    assert std.output == []  # R(p) raised where it stood

    lazy = LazyInterpreter(program, {1: 5})
    env = {}
    with pytest.raises(KernelError) as raised:
        lazy.exec_stmt(program.main, env)
    assert lazy.output == [7]  # the bad query was only registered
    # a's own query is fine, but it shipped with b's: one round trip, one
    # failure, the same exception from every thunk of the batch, each time.
    for name in ("a", "b", "a"):
        with pytest.raises(KernelError) as again:
            force(env[name])
        assert again.value is raised.value
    assert lazy.store.stats.batches_flushed == 0
    assert lazy.store.stats.queries_issued == 0
    assert lazy.runtime.driver.stats.round_trips == 0
    assert lazy.server.db == {1: 5}
