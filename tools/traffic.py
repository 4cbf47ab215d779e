#!/usr/bin/env python3
"""Which functions of ``src/repro`` does anything actually call?

    python3 tools/traffic.py [--smoke] [--seed N] [--kernels] [TARGET ...]
    python3 tools/traffic.py [--smoke] [--seed N] --calls NAME ... [TARGET ...]

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
per-value *helper*; closures named ``interpreted_*`` are the *fallback*s
that run ``expressions.evaluate`` per row for a shape with no kernel.
Counts are raw and per ``PhysicalPlan.execute``.

``--calls NAME ...`` asks the other question of the same counters: how
often did each target call these functions?  A NAME is a qualname as the
zero-call report prints it (``ResultCache.lookup``, ``Executor.select``);
the table holds raw calls per target — divide by the target's
``Database.execute_parsed`` or ``PhysicalPlan.execute`` row for a
per-statement figure — and replaces the zero-call report.

Needs Python 3.11 (``co_qualname``).
"""

import argparse
import collections
import glob
import json
import os
import runpy
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
# Interpreter fallbacks are listed even when never built or run.
FALLBACKS = ("compile_filter.<locals>.interpreted_filter_fn",
             "_pred_operand.<locals>.interpreted_node")
_INLINE = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def _child(target, seed, smoke):
    """Run one target in this interpreter under the hook; print the counts
    as one JSON line ``[[file, qualname, calls], ...]``."""
    calls = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # CO_OPTIMIZED: a function's code, not a class body's or a
            # module's; a comprehension is part of the call around it.
            if (code.co_filename.startswith(SRC) and code.co_flags & 1
                    and code.co_name not in _INLINE):
                calls[code.co_filename[len(SRC):], code.co_qualname] += 1

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    sys.setprofile(hook)
    try:
        if target == "figures":
            import pytest
            status = pytest.main(["-q", "--benchmark-disable", "-p",
                                  "no:cacheprovider",
                                  os.path.join(ROOT, "benchmarks")])
        elif target == "examples":
            for script in sorted(glob.glob(
                    os.path.join(ROOT, "examples", "*.py"))):
                runpy.run_path(script, run_name="__main__")
            status = 0
        else:
            from perfbench import measure, workloads
            workload = workloads.make(
                target, workloads.SMOKE if smoke else workloads.FULL)
            workload.setup(seed)
            status = measure.measure(workload, 0, False, min_rounds=1).failed
    finally:
        sys.setprofile(None)
    print(json.dumps([[file, name, n]
                      for (file, name), n in sorted(calls.items())]))
    return int(status)


def count_calls(target, seed=1, smoke=False):
    """``{(file under src/repro, qualname): calls}`` for one target, run in
    a fresh interpreter (parse, plan and kernel caches are process-wide).
    The target's own output goes to stderr."""
    argv = [sys.executable, os.path.abspath(__file__), "--child",
            "--seed", str(seed), target] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stderr.write("\n".join(lines[:-1] + [""]))
    if proc.returncode:
        sys.exit(f"traffic: target {target} failed ({proc.returncode})")
    return {(file, name): n for file, name, n in json.loads(lines[-1])}


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


def print_kernels(calls):
    """The build / exec / helper / fallback table for ``plan/compile.py``."""
    executions = calls.get(EXECUTE, 0)
    counts = {name: n for (file, name), n in calls.items()
              if file == COMPILE}
    print(f"{'kernel (builder / closure)':<58} {'calls':>9} {'per exec':>9}")
    rows = sorted(set(counts) | set(FALLBACKS),
                  key=lambda q: (q.split(".<locals>.")[0], q))
    builders = {q.partition(".<locals>.")[0] for q in rows if "<locals>" in q}
    for qualname in rows:
        builder, _, closure = qualname.partition(".<locals>.")
        kind = ("fallback" if closure.startswith("interpreted")
                else "exec" if closure
                else "build" if builder in builders else "helper")
        label = f"{builder} / {closure}" if closure else builder
        n = counts.get(qualname, 0)
        print(f"{kind:<9}{label:<49} {n:>9} {n / max(executions, 1):>9.3f}")


def print_calls(names, per_target):
    """Raw calls of each named function per target, one row a name (a
    qualname defined in two modules is summed)."""
    width = max(map(len, names))
    print(" " * width + "".join(f" {t:>14}" for t in per_target))
    for name in names:
        print(f"{name:<{width}}" + "".join(
            f" {sum(n for (_, q), n in calls.items() if q == name):>14}"
            for calls in per_target.values()))


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
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # ``--calls`` takes every word after it: the targets among them.
    args.targets += [name for name in args.calls if name in TARGETS]
    names = [name for name in args.calls if name not in TARGETS]
    unknown = set(args.targets) - set(TARGETS)
    if unknown:
        parser.error(f"unknown target(s): {', '.join(sorted(unknown))}")
    if args.child:
        return _child(args.targets[0], args.seed, args.smoke)
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
            print_kernels(calls)
    if names:
        print_calls(names, per_target)
    else:
        print_zero_calls(defined, set().union(*per_target.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
