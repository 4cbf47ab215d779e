"""Smoke test for ``tools/yardstick.py``: each distinct SELECT of a
workload timed here and in sqlite3, side by side."""

import importlib.util
import math
import os

from perfbench import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "yardstick", os.path.join(ROOT, "tools", "yardstick.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(out):
    """``(announced, statements, shapes)`` of the tool's output: per target
    its statement count, per statement ``(target, executions)``, per
    ``(target, shape)`` its ``(statements, executions)``."""
    announced = {}
    statements = {}
    shapes = {}
    target = None
    for line in out.splitlines():
        if line.startswith("# ") and line.endswith("ratio = here / sqlite3"):
            target, count = line[2:].split(":")[0], line.split()[2]
            announced[target] = int(count)
        elif line.startswith("# ") and len(line.split()) == 7:
            _, shape, count, executions, *_ = line.split()
            shapes[target, shape] = (int(count), int(executions))
        elif not line.startswith("#"):
            name, here, there, ratio, rows, rows_there, executions, shape = \
                line.split()[:8]
            assert name not in statements
            statements[name] = (target, int(executions))
            assert math.isfinite(float(ratio)) and float(ratio) > 0
            assert float(here) > 0 and float(there) > 0
            assert rows == rows_there, line
            assert int(executions) > 0
    for target, count in announced.items():
        mine = [n for name, (of, n) in statements.items() if of == target]
        assert len(mine) == count > 0
        assert sum(n for (of, _), (n, _) in shapes.items() if of == target) \
            == count
        assert sum(e for (of, _), (_, e) in shapes.items() if of == target) \
            == sum(mine)
    return announced, statements, shapes


def test_one_finite_ratio_per_statement(capsys):
    """At smoke size, once each: a line per distinct SELECT — every report
    statement, and what one ``pages_sloth`` sweep sends — with a finite
    ratio of µs here to µs in sqlite3, the same rows on both sides, and a
    per-shape summary that covers every statement and its executions."""
    assert _load_tool().main(["--smoke", "-k", "1", "--number", "1"]) == 0
    announced, statements, _ = _report(capsys.readouterr().out)
    assert set(announced) == {"reports", "pages_sloth"}
    assert announced["reports"] == sum(
        len(queries) for _, queries, _ in workloads.REPORT_GROUPS)
    assert sum(n for of, n in statements.values() if of == "reports") == sum(
        len(queries) * (workloads.SMOKE["report_reps"] if short else 1)
        for _, queries, short in workloads.REPORT_GROUPS)


def test_a_recorded_round_counts_each_statement_it_sends(capsys):
    """``pages_original`` goes through the same recording: each distinct
    SELECT once, with the times the sweep sent it — at least once, and
    more for the point reads a page repeats."""
    assert _load_tool().main(["--smoke", "-k", "1", "--number", "1",
                              "pages_original"]) == 0
    announced, statements, shapes = _report(capsys.readouterr().out)
    assert set(announced) == {"pages_original"}
    _, executions = shapes["pages_original", "Project/IndexLookup"]
    assert executions > sum(
        count for (_, shape), (count, _) in shapes.items()
        if shape == "Project/IndexLookup")
