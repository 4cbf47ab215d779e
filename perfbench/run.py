#!/usr/bin/env python3
"""perfbench: real-time page-load, report and mixed read/write benchmark.

One measured run (what the benchmark driver calls)::

    python3 perfbench/run.py --workload pages_sloth --seed 1 \
        --seconds 10 --trace 0

runs that workload in this interpreter, checks its outputs, prints every
metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics (tracing off), ``--trace 1`` the per-layer ones.

Everything at once (what a person runs)::

    python3 perfbench/run.py [--seed N] [--workload NAME ...] [--smoke]
        [--repeat K] [--out PATH]

runs each workload, untraced and traced, one at a time, each in its own
fresh interpreter, and prints (and with ``--out`` writes) the result set
plus the ratios between workloads.  ``--agree A.json [B.json]`` compares
two such files (or the sets of one) against the bounds in
``BENCHMARK.json``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups timed per run: this process's own plus fresh child interpreters.
SETUP_SAMPLES = 5


def prepare_imports():
    """Make ``perfbench`` and ``repro`` importable from a bare checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program to measure: {src}/repro is missing")
    if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
        sys.path[0] = ROOT  # run as a script: do not shadow stdlib names
    elif ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    if src not in sys.path:
        sys.path.insert(1, src)


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# -- one workload, in this interpreter -------------------------------------

def run_one(name, seed, seconds, traced, smoke=False, t0=None):
    """Set up, measure and check one workload; returns the
    :class:`perfbench.measure.Run`."""
    from perfbench import measure, workloads

    if t0 is None:
        t0 = time.perf_counter()
    workload = workloads.make(name, workloads.SMOKE if smoke
                              else workloads.FULL)
    setup = workload.setup(seed)
    samples = [time.perf_counter() - t0]
    if not smoke:
        samples += [_setup_in_child(name, seed)
                    for _ in range(SETUP_SAMPLES - 1)]
    run = measure.measure(workload, seconds, traced,
                          min_rounds=1 if smoke else 2 if traced else 3)
    run.setup = setup
    run.setup_samples = samples
    return run


def result_of(run, traced):
    """The dict whose JSON form is a run's last output line."""
    from perfbench import measure

    metrics = (measure.per_layer_metrics(run) if traced
               else measure.end_to_end_metrics(run))
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def _run_self(*args, **kwargs):
    """Run this script in a fresh interpreter (same hash seed as ours)."""
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"), stdout=subprocess.PIPE,
        text=True, **kwargs)


def _setup_in_child(name, seed):
    """Time one set-up of ``name`` in a fresh interpreter (cold caches)."""
    done = _run_self("--setup-child", "--workload", name,
                     "--seed", str(seed), check=True, timeout=170)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _setup_child(name, seed):
    from perfbench import workloads

    workloads.make(name).setup(seed)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


def _print_run(name, traced, run):
    result = result_of(run, traced)
    detail = dict(run.digests, rounds=len(run.rounds), run_s=run.run_s,
                  setup_samples_s=run.setup_samples,
                  calib_ms_p50=statistics.median(run.timer.calib_s) * 1000)
    print(f"# {name}  trace={int(traced)}  rounds={detail['rounds']}  "
          f"run_s={detail['run_s']:.2f}  "
          f"calib_ms_p50={detail['calib_ms_p50']:.3f}")
    for key, entry in result["metrics"].items():
        print(f"{key:<58} {entry['value']:>14.6g} {entry['unit']}")
    for key, value in run.digests.items():
        print(f"# {key} {value}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return result["correct"]


# -- every workload, each in a fresh interpreter ---------------------------

def run_set(names, seed, seconds, traces, smoke):
    """One result set: ``{workload: {"end_to_end": ..., "per_layer": ...}}``
    plus the totals and digests of each workload's two runs."""
    results = {}
    for name in names:
        entry = results[name] = {"correct": True, "attempted": 0,
                                 "failed": 0, "detail": {}}
        for trace in traces:
            done = _run_self(
                "--workload", name, "--seed", str(seed), "--seconds",
                str(seconds), "--trace", str(trace),
                *(["--smoke"] if smoke else []), timeout=600)
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines
                            if not line.startswith(("{", "detail "))))
            if not lines or not lines[-1].startswith("{"):
                sys.exit(f"perfbench: {name} trace={trace} printed no "
                         f"result (exit {done.returncode})")
            result = json.loads(lines[-1])
            entry["end_to_end" if trace == 0 else "per_layer"] = (
                result["metrics"])
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for line in lines:
                if line.startswith("detail "):
                    entry["detail"][f"trace{trace}"] = json.loads(line[7:])
    return results


def derived_ratios(results):
    """Ratios between workloads: the real-seconds Fig. 13 and the share of
    a cold sweep that is left when every SELECT is a cache hit."""
    def sweep(name):
        entry = results.get(name, {}).get("end_to_end")
        return entry["round_cu_p25"]["value"] if entry else None

    ratios = {}
    pairs = (("derived.lazy_overhead_ratio", "pages_sloth", "pages_original"),
             ("derived.hot_over_cold_ratio", "pages_hot", "pages_sloth"),
             ("derived.reports_columnar_ratio", "reports_columnar",
              "reports"),
             ("derived.mixed_rw_columnar_ratio", "mixed_rw_columnar",
              "mixed_rw"))
    for key, top, base in pairs:
        if sweep(top) and sweep(base):
            ratios[key] = {"value": sweep(top) / sweep(base),
                           "unit": f"{top}/{base} round_cu_p25"}
    return ratios


def run_all(args, spec):
    names = args.workload or [w["name"] for w in spec["workloads"]]
    traces = [0, 1] if args.trace is None else [args.trace]
    sets = []
    for _ in range(args.repeat):
        results = run_set(names, args.seed, args.seconds, traces, args.smoke)
        sets.append({"workloads": results,
                     "derived": derived_ratios(results)})
    document = {
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
        },
        "sets": sets,
    }
    print()
    for index, one in enumerate(sets):
        for name, entry in one["workloads"].items():
            metrics = entry.get("end_to_end", {})
            cells = "  ".join(f"{key}={value['value']:.6g}"
                              for key, value in metrics.items())
            print(f"set {index} {name:<18} correct={entry['correct']} "
                  f"error_share={entry['failed'] / entry['attempted']:.3g}"
                  f"  {cells}")
        for key, value in one["derived"].items():
            print(f"set {index} {key} {value['value']:.4f} ({value['unit']})")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    correct = all(entry["correct"] for one in sets
                  for entry in one["workloads"].values())
    return 0 if correct else 1


# -- comparing two result files --------------------------------------------

def _medians(sets):
    """``{workload: {metric: median over the sets}}``."""
    values = {}
    for one in sets:
        for name, entry in one["workloads"].items():
            for key, metric in entry.get("end_to_end", {}).items():
                values.setdefault(name, {}).setdefault(key, []).append(
                    metric["value"])
    return {name: {key: statistics.median(samples)
                   for key, samples in metrics.items()}
            for name, metrics in values.items()}


def agree(paths, spec):
    """Compare two result files — or, given one file, its first set with
    the rest — metric by metric against the bounds; prints agree/DISAGREE
    per workload row and returns the number of rows that disagree."""
    sets = []
    for path in paths:
        with open(path) as handle:
            sets.append(json.load(handle)["sets"])
    if len(sets) == 1:
        sets = [sets[0][:1], sets[0][1:]]
    first, second = _medians(sets[0]), _medians(sets[1])
    disagreements = 0
    for name in first:
        if name not in second:
            continue
        cells = []
        row_agrees = True
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = first[name][key], second[name][key]
            change = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            within = abs(change) <= metric["bound"]
            row_agrees = row_agrees and within
            cells.append(f"{key} {a:.5g}->{b:.5g} ({change:+.1%}"
                         f"{'' if within else ' > ' + str(metric['bound'])})")
        disagreements += not row_agrees
        print(f"{'agree   ' if row_agrees else 'DISAGREE'} {name:<18} "
              + "  ".join(cells))
    return disagreements


# -- command line ----------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", nargs="+", metavar="NAME")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="how long each run measures "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, tracing off; "
                        "1: per-layer metrics (default: both, in turn)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round: exercises every path")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="produce K result sets")
    parser.add_argument("--out", metavar="PATH",
                        help="write the result sets as JSON")
    parser.add_argument("--agree", nargs="+", metavar="FILE.json",
                        help="compare two result files (or the first set "
                        "of one file with its other sets) against the bounds")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    prepare_imports()
    spec = load_spec()
    if args.agree:
        if len(args.agree) > 2:
            parser.error("--agree takes one or two files")
        return 1 if agree(args.agree, spec) else 0
    known = [w["name"] for w in spec["workloads"]]
    for name in args.workload or ():
        if name not in known:
            parser.error(f"unknown workload {name!r}; one of {known}")
    if args.setup_child:
        return _setup_child(args.workload[0], args.seed)
    if args.seconds is None:
        args.seconds = 0.05 if args.smoke else spec["run_seconds"]
    single = (args.workload and len(args.workload) == 1
              and args.trace is not None and args.repeat == 1
              and not args.out)
    if not single:
        return run_all(args, spec)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process, and with it the layout
        # of every dict: worth ~2 % between otherwise identical runs.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    name = args.workload[0]
    run = run_one(name, args.seed, args.seconds, bool(args.trace),
                  args.smoke, t0=_T0)
    return 0 if _print_run(name, bool(args.trace), run) else 1


if __name__ == "__main__":
    sys.exit(main())
