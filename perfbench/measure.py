"""Measuring one workload: calibrated rounds in, named metrics out.

Timings are reported in **cu** (calibration units): the wall time of a
segment divided by the mean of the two calibration-kernel runs that
bracket it (see :mod:`perfbench.calib`).  Raw milliseconds are reported
beside them.  The untraced run yields the end-to-end metrics; the traced
run measures untraced rounds first and traced rounds after, so the
per-layer shares and the cost of tracing itself come from one process.
"""

import gc
import resource
from statistics import geometric_mean, median
from time import perf_counter

from perfbench import calib, workloads
from perfbench.trace import LAYERS, Tracer

#: A calibration sample older than this is not reused as the "before" of
#: the next segment (a check or a re-seed ran in between).
_STALE_S = 0.002

class CuTimer:
    """Times segments between two runs of the calibration kernel."""

    def __init__(self):
        self.calib_s = []
        self._calibrate()

    def _calibrate(self):
        self._last = calib.kernel()
        self._last_end = perf_counter()
        self.calib_s.append(self._last)

    def segment(self, fn):
        """``(fn(), wall seconds, seconds per calibration unit)``."""
        if perf_counter() - self._last_end > _STALE_S:
            self._calibrate()
        before = self._last
        start = perf_counter()
        result = fn()
        raw_s = perf_counter() - start
        self._calibrate()
        return result, raw_s, (before + self._last) / 2


def percentile(values, q):
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def typical(values):
    """The lower quartile: what a round costs when nothing interferes.

    Other tenants of the box only ever add time, and they add it in
    stretches of seconds that the calibration kernel (4 ms in every
    ~150) samples poorly: in a disturbed run the median round moved by
    20 % while the lower quartile moved by 9 %.  A cost the program itself
    pays in more than a quarter of the rounds still shows."""
    return percentile(values, 25)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def typical_over_rounds(per_round):
    """``{key: typical cost over the rounds}`` from one ``{key: cu}`` per
    round."""
    by_key = {}
    for costs in per_round:
        for key, cu in costs.items():
            by_key.setdefault(key, []).append(cu)
    return {key: typical(values) for key, values in by_key.items()}


def kind_costs(rounds):
    """Each kind's typical cost over the rounds it occurred in."""
    return typical_over_rounds(r.kinds_cu for r in rounds)


class Run:
    """Everything one invocation measured, before it is named."""

    def __init__(self):
        self.rounds = []          # untraced
        self.traced_rounds = []
        self.tracer = None
        self.timer = None
        self.setup = {}
        self.setup_samples = []
        self.check = (0, 0)
        self.run_s = 0.0
        self.digests = {}

    @property
    def attempted(self):
        return (sum(r.attempted for r in self.rounds + self.traced_rounds)
                + self.check[0])

    @property
    def failed(self):
        return (sum(r.failed for r in self.rounds + self.traced_rounds)
                + self.check[1])


def measure(workload, seconds, traced, min_rounds=3):
    """Run rounds of an already set-up ``workload`` for ``seconds``.

    Untraced: rounds back to back, at least ``min_rounds`` of them.
    Traced: untraced rounds for the first half of the time, then the
    wrappers go in once and traced rounds fill the second half — the
    untraced half never sees a patched class, so it is comparable with an
    untraced run, and the ratio of the halves is the cost of tracing."""
    run = Run()
    workloads.settle_heap()
    run.timer = timer = CuTimer()
    start = perf_counter()
    budget = seconds / 2 if traced else seconds
    try:
        while (perf_counter() - start < budget
               or len(run.rounds) < min_rounds):
            run.rounds.append(workload.run_round(timer))
        if traced:
            tracer = run.tracer = Tracer()
            tracer.install()
            try:
                while (perf_counter() - start < seconds
                       or len(run.traced_rounds) < min_rounds):
                    run.traced_rounds.append(
                        workload.run_round(timer, tracer))
            finally:
                tracer.remove()
    finally:
        gc.unfreeze()
    run.check = workload.check()
    run.digests = workload.digests()
    run.run_s = perf_counter() - start
    return run


def end_to_end_metrics(run):
    kinds = kind_costs(run.rounds)
    ops = typical_over_rounds(r.ops_cu for r in run.rounds)
    return {
        "round_cu_p25": (typical(r.cu for r in run.rounds), "cu"),
        "op_cu_gmean": (geometric_mean(kinds.values()), "cu"),
        "op_cu_p95": (percentile(ops.values(), 95), "cu"),
        "setup_s": (median(run.setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def statement_metric_names():
    """The ``sqldb.stmt_cu.*`` suffixes, in metric order."""
    return [f"{app}.{name}" for app, queries, _short in workloads.REPORT_GROUPS
            for name, _sql, _params in queries]


def per_layer_metrics(run):
    """Every per-layer metric, 0 where the workload has nothing to say."""
    tracer = run.tracer
    traced = run.traced_rounds
    n = len(traced)
    metrics = {}
    total_self = sum(tracer.self_s.values())
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = (
            tracer.self_s[layer] / total_self if total_self else 0.0, "share")
        if layer != "harness":  # the root span is not a call into a layer
            metrics[f"layer.{layer}.calls_per_op"] = (
                tracer.calls[layer] / n, "count")
    for name in workloads.COUNT_METRICS:
        values = [r.counts[name] for r in traced]
        unit = ("ms" if name.startswith("sim.")
                else "share" if name.endswith("_ratio") else "count")
        metrics[name] = (sum(values) / n, unit)
    kinds = kind_costs(run.rounds)
    for name in statement_metric_names():
        metrics[f"sqldb.stmt_cu.{name}"] = (kinds.get(name, 0.0), "cu")
    for kind in workloads.TRANSACTION_TYPES:
        metrics[f"tx_cu.{kind}"] = (kinds.get(kind, 0.0), "cu")
    dashboards = [cu for kind, cu in kinds.items()
                  if kind.startswith("dash.")]
    metrics["dash_cu_sum"] = (sum(dashboards), "cu")
    metrics["setup.seed_s"] = (run.setup["setup.seed_s"], "s")
    metrics["setup.first_sweep_s"] = (run.setup["setup.first_sweep_s"], "s")
    raw_ms = [r.raw_s * 1000 for r in run.rounds]
    metrics["raw.calib_ms_p50"] = (median(run.timer.calib_s) * 1000, "ms")
    metrics["raw.round_ms_p50"] = (median(raw_ms), "ms")
    metrics["raw.round_ms_max"] = (max(raw_ms), "ms")
    metrics["raw.rounds"] = (len(raw_ms), "count")
    metrics["raw.run_s"] = (run.run_s, "s")
    untraced_cu = typical(r.cu for r in run.rounds)
    metrics["trace.overhead_ratio"] = (
        typical(r.cu for r in traced) / untraced_cu, "ratio")
    metrics["trace.spans_per_op"] = (tracer.span_count / n, "count")
    metrics["trace.missing_targets"] = (tracer.missing, "count")
    metrics["error_share"] = (run.failed / run.attempted, "share")
    return metrics
