"""Self-check of the benchmark: names, tracing arithmetic, output checks.

Runs every workload once at smoke size (in this process, no children),
so it costs a few seconds inside the tier-1 suite.
"""

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import run as cli  # noqa: E402

cli.prepare_imports()

from perfbench import measure, workloads  # noqa: E402
from perfbench.trace import LAYERS, Tracer, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_runs():
    """One traced smoke run per workload; it measures untraced rounds too,
    so both metric sets can be named from it."""
    return {name: cli.run_one(name, seed=5, seconds=0.0, traced=True,
                              smoke=True) for name in WORKLOADS}


def test_spec_is_within_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_emits_every_declared_metric(smoke_runs, name):
    run = smoke_runs[name]
    assert run.failed == 0 and run.attempted > 0
    for traced, declared in ((False, SPEC["end_to_end"]),
                             (True, SPEC["per_layer"])):
        metrics = cli.result_of(run, traced)["metrics"]
        assert list(metrics) == [m["name"] for m in declared]
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
    end_to_end = cli.result_of(run, False)["metrics"]
    assert all(entry["value"] > 0 for entry in end_to_end.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_shares_sum_to_one(smoke_runs, name):
    metrics = measure.per_layer_metrics(smoke_runs[name])
    shares = [metrics[f"layer.{layer}.self_share"][0] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_layers_off_the_path_have_no_share(smoke_runs):
    reports = measure.per_layer_metrics(smoke_runs["reports"])
    for layer in ("web", "apps", "orm", "core", "net"):
        assert reports[f"layer.{layer}.self_share"][0] == 0
    hot = measure.per_layer_metrics(smoke_runs["pages_hot"])
    assert hot["layer.sqldb.exec.self_share"][0] < 0.05
    assert hot["sqldb.result_cache_hit_ratio"][0] == 1.0
    original = measure.per_layer_metrics(smoke_runs["pages_original"])
    assert original["core.thunks_allocated"][0] == 0
    columnar = measure.per_layer_metrics(smoke_runs["mixed_rw_columnar"])
    assert columnar["sqldb.snapshot_builds"][0] > 0
    assert reports["sqldb.snapshot_builds"][0] == 0


def test_self_time_is_duration_minus_children():
    # root 0..10 { a 1..4 { b 2..3 }, c 5..9 }, then a second root 10..12
    spans = [
        ["harness", "root", 0.0, 10.0, -1, 1],
        ["web", "a", 1.0, 4.0, 0, 1],
        ["core", "b", 2.0, 3.0, 1, 1],
        ["net", "c", 5.0, 9.0, 0, 1],
        ["harness", "root", 10.0, 12.0, -1, 2],
    ]
    own = self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert sum(own[:4]) == spans[0][3] - spans[0][2]


def test_tracer_records_parents_and_folds_by_layer():
    tracer = Tracer()
    inner = tracer.span(lambda: "x", "core", "inner")
    outer = tracer.span(lambda: inner() + inner(), "web", "outer")
    assert tracer.operation(outer) == "xx"
    assert [(s[0], s[4]) for s in tracer.spans] == [
        ("harness", -1), ("web", 0), ("core", 1), ("core", 1)]
    assert tracer.calls["core"] == 2 and tracer.calls["harness"] == 0
    assert tracer.span_count == 3 and tracer.op == 1
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.spans[0][3] - tracer.spans[0][2])


def test_wrappers_are_removed_after_a_traced_run():
    from repro.core.thunk import Thunk
    from repro.sqldb import database, parser
    from repro.sqldb.columnar import ColumnStore
    from repro.web.framework import Dispatcher

    def targets():
        return (database.Database.execute_parsed, parser.parse,
                database.parse, Thunk.force, Dispatcher.route,
                vars(ColumnStore)["build"])

    before = targets()
    tracer = Tracer()
    tracer.install()
    patched = targets()
    tracer.remove()
    assert tracer.missing == 0
    assert all(new is not old for new, old in zip(patched, before))
    assert all(new is old for new, old in zip(targets(), before))
    tracer.install()
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.remove()
    cli.run_one("pages_sloth", seed=1, seconds=0.0, traced=True, smoke=True)
    assert all(new is old for new, old in zip(targets(), before))


def test_corrupted_page_fails_the_html_check():
    workload = workloads.make("pages_sloth", workloads.SMOKE)
    workload.setup(3)
    victim = workload.pages[0][0]
    workload.reference[victim] += "<!-- drift -->"
    round_ = workload.run_round(measure.CuTimer())
    assert round_.failed == 1 and round_.attempted == len(workload.pages)
    attempted, failed = workload.check()
    assert failed == 2 and attempted == 2 * len(workload.pages)


def test_columnar_workloads_survive_a_single_engine(monkeypatch):
    from repro.sqldb import Database

    monkeypatch.setattr(Database, "ENGINES", ("batch", "row"))
    assert workloads.engine_kwargs(True) == {}
    for name in ("reports_columnar", "mixed_rw_columnar"):
        run = cli.run_one(name, seed=2, seconds=0.0, traced=False,
                          smoke=True)
        metrics = cli.result_of(run, False)["metrics"]
        assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
        assert run.failed == 0


def test_agree_flags_a_metric_outside_its_bound(tmp_path, capsys):
    def document(round_cu):
        values = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                  for m in SPEC["end_to_end"]}
        values["round_cu_p25"] = {"value": round_cu, "unit": "cu"}
        return {"sets": [{"workloads": {"reports": {"end_to_end": values}}}]}

    paths = []
    for index, value in enumerate((100.0, 101.0, 150.0)):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(document(value)))
    assert cli.agree(paths[:2], SPEC) == 0
    assert cli.agree([paths[0], paths[2]], SPEC) == 1
    assert "DISAGREE reports" in capsys.readouterr().out
