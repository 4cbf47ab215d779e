#!/usr/bin/env python3
"""Which chunk kernels does a perfbench workload actually build and run?

    python3 tools/kernel_traffic.py WORKLOAD [SECONDS] [SEED]

Sets the workload up and measures it for SECONDS (default 3) under a
``sys.setprofile`` hook — no source edit, no switch in ``src/`` — counting
calls into ``sqldb/plan/compile.py``.  A module-level function that returns
closures is a kernel *build* (``_cmp_leaf``, ``compile_project`` ...), a
call of such a closure a kernel *exec* (``node``, ``zone_test``,
``project_fn`` ...), any other function a per-value *helper*.  Closures
named ``interpreted_*`` are the *fallback*s that run ``expressions.evaluate``
per row for a shape with no kernel.  Counts are raw and per
``PhysicalPlan.execute``: a kernel no workload executes, no benchmark sees.
"""

import collections
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import measure, workloads  # noqa: E402

COMPILE = os.path.join("sqldb", "plan", "compile.py")
PHYSICAL = os.path.join("sqldb", "plan", "physical.py")
# Interpreter fallbacks are listed even when never built or run.
FALLBACKS = ("compile_filter.<locals>.interpreted_filter_fn",
             "_pred_operand.<locals>.interpreted_node")


def count_calls(workload, seconds, seed):
    """``{qualname: calls}`` for compile.py, plus ``PhysicalPlan.execute``,
    over set-up (where most plans are first built) and the measured run."""
    calls = collections.Counter()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name.endswith("comp>") or code.co_name == "<genexpr>":
            return  # comprehensions are part of their enclosing call
        if code.co_filename.endswith(COMPILE) or (
                code.co_filename.endswith(PHYSICAL)
                and code.co_qualname == "PhysicalPlan.execute"):
            calls[code.co_qualname] += 1

    sys.setprofile(hook)
    try:
        workload.setup(seed)
        run = measure.measure(workload, seconds, False, min_rounds=1)
    finally:
        sys.setprofile(None)
    return calls, run


def main(name, seconds="3", seed="1"):
    calls, run = count_calls(workloads.make(name), float(seconds), int(seed))
    executions = calls.pop("PhysicalPlan.execute", 0)
    print(f"# {name}: {len(run.rounds)} rounds, {run.failed} failed checks, "
          f"{executions} PhysicalPlan.execute calls")
    print(f"{'kernel (builder / closure)':<58} {'calls':>9} {'per exec':>9}")
    rows = sorted(set(calls) | set(FALLBACKS),
                  key=lambda q: (q.split(".<locals>.")[0], q))
    builders = {q.partition(".<locals>.")[0] for q in rows if "<locals>" in q}
    for qualname in rows:
        builder, _, closure = qualname.partition(".<locals>.")
        kind = ("fallback" if closure.startswith("interpreted")
                else "exec" if closure
                else "build" if builder in builders else "helper")
        label = f"{builder} / {closure}" if closure else builder
        print(f"{kind:<9}{label:<49} {calls[qualname]:>9} "
              f"{calls[qualname] / max(executions, 1):>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
