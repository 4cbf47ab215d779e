"""The paper's formal core: one program, two semantics, same answer.

Writes a kernel-language program (Fig. 4 syntax), runs it under standard
semantics and extended lazy semantics (basic, then with the Sec. 4
optimizations), and shows that the final states agree while the lazy runs
use fewer round trips — the Sec. 3.8 soundness theorem, observably.

The lazy runs execute on the production runtime library (`repro.core`
thunks and query store over `repro.net`'s batch driver), so the counters
printed are the ones every page load reports, and a kernel program has a
virtual clock.

Run:  python examples/kernel_soundness.py
"""

from repro.compiler.lazy_interp import LazyInterpreter
from repro.compiler.optimize import OptimizationPlan
from repro.compiler.parser import parse_program
from repro.compiler.standard_interp import StandardInterpreter

SOURCE = """
# Fetch a patient id, then related records (Fig. 2's shape).
fn summarize(v) {                    # effect-free and query-free
  t := v * 10;
  return t;
}

patient := R(1);
encounters := R(patient + 1);        # needs patient: flushes [R(1)]
visits := R(patient + 2);

# Basic compilation forces the condition, flushing [encounters, visits];
# branch deferral (BD) wraps the whole `if` into one block thunk.
if (encounters > visits) { best := encounters; } else { best := visits; }

allergies := R(patient + 3);         # under BD it joins the pending batch

# Temporaries seeded by query results: one thunk each, or — coalesced
# (TC) — one block with `score` its only live output.
t1 := best * 2;
t2 := t1 + allergies;
t3 := t2 * t2;
t4 := t3 - t1;
score := t4 + 1;

W(patient);                          # never deferred: ships now, the
audit := R(99);                      # pending reads ahead of it
output summarize(score);             # SC: summarize is compiled as is
output audit;
"""

DB = {1: 5, 6: 12, 7: 9, 8: 3, 99: 1}

PLANS = (None, (False, False, True), (False, True, False),
         (True, True, True))  # (SC, TC, BD)


def main():
    program = parse_program(SOURCE)

    std = StandardInterpreter(program, DB).run()
    print(f"{'standard':16s} output={std.output} "
          f"round_trips={std.round_trips}")

    runs = []
    for flags in PLANS:
        plan = flags and OptimizationPlan(program, *flags)
        lazy = LazyInterpreter(program, DB, plan).run()
        runs.append(lazy)
        wire = lazy.runtime.driver.stats
        print(f"{'lazy ' + lazy.runtime.opts.label():16s} "
              f"output={lazy.output} "
              f"round_trips={lazy.round_trips} "
              f"thunks={lazy.thunks_allocated} "
              f"batches_flushed={lazy.store.stats.batches_flushed} "
              f"largest_batch={wire.largest_batch} "
              f"queries_issued={wire.statements} "
              f"virtual_ms={lazy.runtime.clock.now:.3f}")
        assert (lazy.env, lazy.db, lazy.output) == (
            std.env, std.db, std.output)
        assert lazy.round_trips <= std.round_trips

    basic, deferred, coalesced, optimized = runs
    assert deferred.round_trips < basic.round_trips
    assert coalesced.thunks_allocated < basic.thunks_allocated
    print("\nsoundness holds: identical env/db/output across semantics;")
    print(f"round trips {std.round_trips} (standard) -> "
          f"{basic.round_trips} (lazy) -> {optimized.round_trips} "
          f"(optimized); thunks {basic.thunks_allocated} -> "
          f"{optimized.thunks_allocated}")


if __name__ == "__main__":
    main()
