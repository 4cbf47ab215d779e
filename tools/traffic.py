#!/usr/bin/env python3
"""Which functions of ``src/repro`` does anything actually call?

    python3 tools/traffic.py [--smoke] [--seed N] [--kernels] [TARGET ...]
    python3 tools/traffic.py [--smoke] [--seed N] --calls NAME ... [TARGET ...]
    python3 tools/traffic.py [--smoke] [--seed N] --plans [TARGET ...]
    python3 tools/traffic.py [--smoke] [--seed N] --cycles [WORKLOAD ...]

A TARGET is a perfbench workload (set-up, one round and its output check),
``figures`` (``pytest --benchmark-disable benchmarks`` — pytest-benchmark
switches the profiler off around a benchmarked call, a disabled one runs
plainly) or ``examples`` (every ``examples/*.py``); the default is all of
them.  Each runs in its own interpreter under a ``sys.setprofile`` hook —
no source edit, no switch in ``src/`` — that counts calls per function and
closure, imports included.  The report lists, by module and owning class or
builder, every function *defined* in ``src/repro`` that no target called:
under ROADMAP's standing rule (2) that is grounds for deletion unless the
function is a reference implementation an oracle compares against, SQL /
paper semantics, or an input or error check.

``--kernels`` adds the view ``plan/compile.py`` is judged by: a
module-level function that returns closures is a kernel *build*
(``_cmp_leaf``, ``compile_project`` ...), a call of such a closure a kernel
*exec* (``node``, ``zone_test``, ``project_fn`` ...), any other function a
per-value *helper*; the generic lanes (``_mapped``'s ``mapped``,
``_truth_values``' ``truth``, ``_in_list``'s ``in_list`` and ``_raising``'s
``raising``) are the *fallback*, a node's per-value rule mapped over its
operands' values for every shape with no loop of its own; a
function counted in ``plan/compile.py`` that its source does not define is
a *generated* per-value loop (``cmp_ge_num``, ``between_num_num``,
``arith_mul_vs`` ...: ``_loop`` compiles them under the module's file
name).  Counts are raw and per ``PhysicalPlan.execute``.

``--calls NAME ...`` asks the other question of the same counters: how
often did each target call these functions?  A NAME is a qualname as the
zero-call report prints it (``ResultCache.lookup``, ``Executor.select``);
the table holds raw calls per target — divide by the target's
``Database.execute_parsed`` or ``PhysicalPlan.execute`` row for a
per-statement figure — and replaces the zero-call report.

``--plans`` asks what the optimizer's knobs decide, the way the zero-call
report asks what a function is for.  The target runs with no profiler and
with ``repro.sqldb.executor.plan_select`` wrapped (again no source edit):
at every plan build the statement is re-optimized against the same
database state under each *variant* — each ``OptimizerOptions`` switch
turned off, each ``*_SELECTIVITY`` constant of ``plan/cost.py`` times 3
and divided by 4, all read off the tree, so the tool runs unchanged on any
commit — and its EXPLAIN, estimates stripped, compared with the build's
own.  The table gives per target the builds, the distinct SELECTs (and
how many join), per variant the builds / distinct SELECTs whose plan
changed, a ``digest`` over every (SQL, EXPLAIN with estimates stripped)
pair built and how often, and a ``shapes`` digest over the distinct pairs
alone: two commits that print the same digest for a target built the same
plans for it as often, baselines included; two that print the same
shapes built the same plans, however often each.  All of that is over
SELECTs: an UPDATE or DELETE plans its WHERE as a ``SELECT 1`` (its
items are ``executor._SEARCH_ITEMS``), and those builds are counted
apart, as ``writes`` with their own ``writes_digest``.  It also judges the
estimates the plans were chosen by: ``PhysicalPlan.execute`` is wrapped
too, and after the first execution of each plan (one without shared-scan
rows) the plan runs once more under ``execute_analyze`` with the same
parameters.
Every ``q=`` its text prints is one operator's q-error, estimated against
actual rows; the table gives the operators, q median / p90 / max, and
apart from them the operators of plans that stop after N rows
(``limit_hint``), whose actual is the cutoff rather than what the estimate
describes.  A tree whose EXPLAIN ANALYZE prints no q-error
reads ``n/a``.

``--cycles`` asks what a round leaves to the cycle collector: each
workload (default: the five) is set up, then one round runs with the
collector off, and the table gives the objects the next ``gc.collect()``
finds — garbage that refcounting could not free — with its five commonest
types.  A page load frees itself, so every workload should read 0.

Needs Python 3.11 (``co_qualname``).
"""

import argparse
import collections
import gc
import glob
import hashlib
import json
import math
import os
import re
import runpy
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep

# The two *_columnar workloads have run the same code since PR 12.
WORKLOADS = ("pages_sloth", "pages_original", "pages_hot", "reports",
             "mixed_rw")
TARGETS = WORKLOADS + ("figures", "examples")
COMPILE = os.path.join("sqldb", "plan", "compile.py")
EXECUTE = (os.path.join("sqldb", "plan", "physical.py"),
           "PhysicalPlan.execute")
# The generic lanes are listed even when never built or run.
FALLBACKS = ("_mapped.<locals>.mapped", "_truth_values.<locals>.truth",
             "_in_list.<locals>.in_list", "_raising.<locals>.raising")
_INLINE = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")
# What EXPLAIN appends to a row-source node: estimates, not plan shape.
_ESTIMATE = re.compile(r" \(~\d+ rows, ~\d+ touched\)")
# What EXPLAIN ANALYZE appends to a node with an estimate: its q-error.
_Q_ERROR = re.compile(r" actual \[rows=\d+, q=([0-9.]+)")
_FACTORS = (("*3", 3.0), ("/4", 0.25))


def _run_target(target, seed, smoke):
    """Run one target in this interpreter; its exit status."""
    if target == "figures":
        import pytest
        return pytest.main(["-q", "--benchmark-disable", "-p",
                            "no:cacheprovider",
                            os.path.join(ROOT, "benchmarks")])
    if target == "examples":
        for script in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                    "*.py"))):
            runpy.run_path(script, run_name="__main__")
        return 0
    from perfbench import measure, workloads
    workload = workloads.make(
        target, workloads.SMOKE if smoke else workloads.FULL)
    workload.setup(seed)
    return measure.measure(workload, 0, False, min_rounds=1).failed


def _count_child(target, seed, smoke):
    """Run one target under the hook; print the counts as one JSON line
    ``[[file, qualname, calls], ...]``."""
    calls = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # CO_OPTIMIZED: a function's code, not a class body's or a
            # module's; a comprehension is part of the call around it.
            if (code.co_filename.startswith(SRC) and code.co_flags & 1
                    and code.co_name not in _INLINE):
                calls[code.co_filename[len(SRC):], code.co_qualname] += 1

    sys.setprofile(hook)
    try:
        status = _run_target(target, seed, smoke)
    finally:
        sys.setprofile(None)
    print(json.dumps([[file, name, n]
                      for (file, name), n in sorted(calls.items())]))
    return int(status)


def _cycles_child(target, seed, smoke):
    """Set one workload up, run one round of it with the cycle collector
    off and collect; print ``[objects found, [[type, count], ...]]`` (the
    five commonest types) as one JSON line."""
    from perfbench import measure, workloads
    workload = workloads.make(
        target, workloads.SMOKE if smoke else workloads.FULL)
    workload.setup(seed)
    workloads.settle_heap()
    timer = measure.CuTimer()
    gc.disable()
    try:
        workload.run_round(timer)
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what it finds, to name it
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    types = collections.Counter(type(obj).__qualname__ for obj in gc.garbage)
    print(json.dumps([found, types.most_common(5)]))
    return 0


def _plan_variants():
    """``[(name, options of a build -> variant options, cost overrides)]``:
    each optimizer switch off, each selectivity constant scaled."""
    from repro.sqldb.plan import cost, optimizer

    switches = optimizer.OptimizerOptions.__slots__
    variants = []
    for switch in switches:
        def options(base, switch=switch):
            values = {name: getattr(base, name) for name in switches}
            values[switch] = False
            return optimizer.OptimizerOptions(**values)
        variants.append((f"{switch}=False", options, {}))
    for name, value in sorted(vars(cost).items()):
        if name.endswith("_SELECTIVITY"):
            for label, factor in _FACTORS:
                variants.append((name + label, lambda base: base,
                                 {name: value * factor}))
    return variants


def _q_summary(q_errors):
    """``[median, p90, max]`` of the q-errors (p90 by nearest rank), or
    None when there are none."""
    if not q_errors:
        return None
    ordered = sorted(q_errors)
    return [statistics.median(ordered),
            ordered[math.ceil(0.9 * len(ordered)) - 1], ordered[-1]]


def _plans_child(target, seed, smoke):
    """Run one target with every plan build re-optimized under each
    variant and every plan's first execution probed by EXPLAIN ANALYZE;
    print the summary as one JSON line."""
    from repro.sqldb import executor
    from repro.sqldb.plan import build_select_plan, cost, explain, optimizer
    from repro.sqldb.plan.physical import PhysicalPlan

    def shape(db, stmt, options, overrides):
        saved = {name: getattr(cost, name) for name in overrides}
        vars(cost).update(overrides)
        try:
            logical, sctx = build_select_plan(db, stmt)
            text = explain(optimizer.optimize(logical, sctx, db, options))
        finally:
            vars(cost).update(saved)
        return _ESTIMATE.sub("", text)

    variants = _plan_variants()
    built = collections.Counter()
    writes = collections.Counter()  # the UPDATE / DELETE row searches
    search_items = getattr(executor, "_SEARCH_ITEMS", None)
    joins = set()
    changed = {name: collections.Counter() for name, _, _ in variants}
    plan_select = executor.plan_select

    def wrapped(db, stmt):
        plan = plan_select(db, stmt)
        options = db.optimizer_options or optimizer.DEFAULT_OPTIONS
        sql = stmt.sql or repr(stmt)
        own = shape(db, stmt, options, {})
        if stmt.items is search_items:
            writes[sql, own] += 1
            return plan
        built[sql, own] += 1
        if stmt.joins:
            joins.add(sql)
        for name, variant, overrides in variants:
            if shape(db, stmt, variant(options), overrides) != own:
                changed[name][sql] += 1
        return plan

    execute = PhysicalPlan.execute
    probed = set()
    q_errors = []
    cutoff = []

    def probe(plan, db, params=(), prefetched_base_rows=None):
        result = execute(plan, db, params, prefetched_base_rows)
        if plan not in probed and prefetched_base_rows is None:
            probed.add(plan)
            _, lines = plan.execute_analyze(db, params)
            found = map(float, _Q_ERROR.findall("\n".join(lines)))
            (q_errors if plan.limit_hint is None else cutoff).extend(found)
        return result

    executor.plan_select = wrapped
    PhysicalPlan.execute = probe
    try:
        status = _run_target(target, seed, smoke)
    finally:
        executor.plan_select = plan_select
        PhysicalPlan.execute = execute
    digest, shapes = plans_digests(built)
    print(json.dumps({
        "builds": sum(built.values()),
        "selects": len({sql for sql, _ in built}),
        "joins": len(joins),
        "changed": {name: [sum(c.values()), len(c)]
                    for name, c in changed.items()},
        "operators": len(q_errors),
        "q": _q_summary(q_errors),
        "cutoff": len(cutoff),
        "digest": digest,
        "shapes": shapes,
        "writes": sum(writes.values()),
        "writes_digest": plans_digests(writes)[0],
    }))
    return int(status)


def plans_digests(built):
    """``(digest, shapes)`` of a ``{(SQL, EXPLAIN): builds}`` counter: the
    first over every pair with its count, the second over the pairs
    alone."""
    def sha(value):
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:12]

    return (sha(sorted([sql, text, n] for (sql, text), n in built.items())),
            sha(sorted(built)))


def _child_output(target, seed, smoke, *flags):
    """The last stdout line of a fresh interpreter running one target
    (parse, plan and kernel caches are process-wide), as JSON.  The
    target's own output goes to stderr."""
    argv = [sys.executable, os.path.abspath(__file__), "--child",
            "--seed", str(seed), target, *flags] + (
                ["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stderr.write("\n".join(lines[:-1] + [""]))
    if proc.returncode:
        sys.exit(f"traffic: target {target} failed ({proc.returncode})")
    return json.loads(lines[-1])


def count_calls(target, seed=1, smoke=False):
    """``{(file under src/repro, qualname): calls}`` for one target."""
    return {(file, name): n
            for file, name, n in _child_output(target, seed, smoke)}


def plan_decisions(target, seed=1, smoke=False):
    """What ``--plans`` reports for one target (see the module docstring):
    ``{"builds", "selects", "joins", "changed": {variant: [builds,
    selects]}, "operators", "q", "cutoff", "digest", "shapes", "writes",
    "writes_digest"}``."""
    return _child_output(target, seed, smoke, "--plans")


def cyclic_garbage(target, seed=1, smoke=False):
    """What ``--cycles`` reports for one workload: ``[objects found,
    [[type, count], ...]]``."""
    return _child_output(target, seed, smoke, "--cycles")


def defined_functions():
    """``{(file under src/repro, qualname)}`` of every function, method,
    lambda and closure in the tree (comprehensions belong to the function
    around them; class bodies and modules are not calls)."""
    defined = set()
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as handle:
            todo = [compile(handle.read(), path, "exec")]
        while todo:
            for const in todo.pop().co_consts:
                if hasattr(const, "co_code"):
                    todo.append(const)
                    if const.co_flags & 1 and const.co_name not in _INLINE:
                        defined.add((path[len(SRC):], const.co_qualname))
    return defined


def generated_loops(calls, defined):
    """The generated per-value loops among ``calls``: what was counted in
    ``plan/compile.py`` that its source does not define."""
    return {key for key in calls if key[0] == COMPILE and key not in defined}


def print_kernels(calls, defined):
    """The build / exec / helper / fallback / generated table for
    ``plan/compile.py``."""
    executions = calls.get(EXECUTE, 0)
    counts = {name: n for (file, name), n in calls.items()
              if file == COMPILE}
    generated = {name for _, name in generated_loops(calls, defined)}
    print(f"{'kernel (builder / closure)':<58} {'calls':>9} {'per exec':>9}")
    rows = sorted(set(counts) | set(FALLBACKS),
                  key=lambda q: (q.split(".<locals>.")[0], q))
    builders = {q.partition(".<locals>.")[0] for q in rows if "<locals>" in q}
    for qualname in rows:
        builder, _, closure = qualname.partition(".<locals>.")
        kind = ("generated" if qualname in generated
                else "fallback" if qualname in FALLBACKS
                else "exec" if closure
                else "build" if builder in builders else "helper")
        label = f"{builder} / {closure}" if closure else builder
        n = counts.get(qualname, 0)
        print(f"{kind:<10}{label:<48} {n:>9} {n / max(executions, 1):>9.3f}")


def print_calls(names, per_target):
    """Raw calls of each named function per target, one row a name (a
    qualname defined in two modules is summed)."""
    width = max(map(len, names))
    print(" " * width + "".join(f" {t:>14}" for t in per_target))
    for name in names:
        print(f"{name:<{width}}" + "".join(
            f" {sum(n for (_, q), n in calls.items() if q == name):>14}"
            for calls in per_target.values()))


def print_plans(per_target):
    """Builds, distinct SELECTs and joins per target, builds / SELECTs
    whose plan each variant changed, the operators judged and their
    q-error median / p90 / max, the operators under a stop-after-N cutoff,
    the plans digests, counted and distinct, and the UPDATE / DELETE row
    searches built and their digest."""
    variants = list(dict.fromkeys(
        name for plans in per_target.values() for name in plans["changed"]))
    width = max(map(len, variants))

    def row(name, cell):
        print(f"{name:<{width}}" + "".join(
            f" {cell(plans):>14}" for plans in per_target.values()))

    print(" " * width + "".join(f" {t:>14}" for t in per_target))
    for name in ("builds", "selects", "joins"):
        row(name, lambda plans: plans[name])
    for name in variants:
        row(name, lambda plans: "/".join(map(str, plans["changed"][name])))
    row("operators", lambda plans: plans["operators"])
    for i, name in enumerate(("q_median", "q_p90", "q_max")):
        row(name, lambda plans: "n/a" if plans["q"] is None
            else f"{plans['q'][i]:.1f}")
    row("limit_cutoff", lambda plans: plans["cutoff"])
    row("digest", lambda plans: plans["digest"])
    row("shapes", lambda plans: plans["shapes"])
    row("writes", lambda plans: plans["writes"])
    row("writes_digest", lambda plans: plans["writes_digest"])


def print_cycles(per_target):
    """Objects the cycle collector found after one round, per workload,
    with the five commonest types."""
    width = max(map(len, per_target))
    print(f"{'':<{width}} {'objects':>9}  top types")
    for target, (found, types) in per_target.items():
        print(f"{target:<{width}} {found:>9}  "
              + ", ".join(f"{name} {n}" for name, n in types))


def print_zero_calls(defined, called):
    """Functions nothing called, grouped by module and owner (the class, or
    the builder whose closure it is)."""
    uncalled = sorted(defined - called)
    zero = collections.defaultdict(lambda: collections.defaultdict(list))
    for file, name in uncalled:
        owner, _, rest = name.partition(".")
        zero[file][owner].append(rest.replace("<locals>.", "") or "()")
    per_file = collections.Counter(file for file, _ in defined)
    print(f"# zero calls: {len(uncalled)} of {len(defined)} functions "
          "in src/repro")
    for file in sorted(zero):
        n = sum(len(names) for names in zero[file].values())
        print(f"{file}: {n} of {per_file[file]}")
        for owner, names in zero[file].items():
            print(f"    {owner}: {', '.join(names)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*", metavar="TARGET",
                        help=f"any of {', '.join(TARGETS)}; default all")
    parser.add_argument("--smoke", action="store_true",
                        help="workloads at perfbench's smoke sizes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--kernels", action="store_true",
                        help="also print the plan/compile.py kernel view")
    parser.add_argument("--calls", nargs="+", default=[], metavar="NAME",
                        help="print raw calls per target of these functions "
                        "(qualnames) instead of the zero-call report; "
                        "targets may follow the names")
    parser.add_argument("--plans", action="store_true",
                        help="print what each optimizer switch and "
                        "selectivity constant decides, and the plans digests, "
                        "instead of the zero-call report")
    parser.add_argument("--cycles", action="store_true",
                        help="print the objects the cycle collector finds "
                        "after one round of each workload, instead of the "
                        "zero-call report")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # ``--calls`` takes every word after it: the targets among them.
    args.targets += [name for name in args.calls if name in TARGETS]
    names = [name for name in args.calls if name not in TARGETS]
    unknown = set(args.targets) - set(TARGETS)
    if unknown:
        parser.error(f"unknown target(s): {', '.join(sorted(unknown))}")
    if args.cycles and not set(args.targets) <= set(WORKLOADS):
        parser.error("--cycles runs workloads only: "
                     f"any of {', '.join(WORKLOADS)}")
    if args.child:
        sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
        child = (_plans_child if args.plans else
                 _cycles_child if args.cycles else _count_child)
        return child(args.targets[0], args.seed, args.smoke)
    if args.cycles:
        print_cycles({target: cyclic_garbage(target, args.seed, args.smoke)
                      for target in args.targets or WORKLOADS})
        return 0
    if args.plans:
        print_plans({target: plan_decisions(target, args.seed, args.smoke)
                     for target in args.targets or TARGETS})
        return 0
    defined = defined_functions()
    unknown = set(names) - {qualname for _, qualname in defined}
    if unknown:
        parser.error("no such function in src/repro: "
                     + ", ".join(sorted(unknown)))
    per_target = {}
    for target in args.targets or TARGETS:
        calls = per_target[target] = count_calls(target, args.seed, args.smoke)
        print(f"# {target}: {len(calls)} functions called, "
              f"{sum(calls.values())} calls, "
              f"{calls.get(EXECUTE, 0)} PhysicalPlan.execute")
        if args.kernels:
            print_kernels(calls, defined)
    if names:
        print_calls(names, per_target)
    else:
        print_zero_calls(defined, set().union(*per_target.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
