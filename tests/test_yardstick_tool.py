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


def test_one_finite_ratio_per_statement(capsys):
    """At smoke size, once each: a line per distinct SELECT — every report
    statement, and what one ``pages_sloth`` sweep sends — with a finite
    ratio of µs here to µs in sqlite3, the same rows on both sides, and a
    per-shape summary that covers every statement."""
    assert _load_tool().main(["--smoke", "-k", "1", "--number", "1"]) == 0
    reports = sum(len(queries) for _, queries, _ in workloads.REPORT_GROUPS)
    announced = {}
    statements = {}
    shapes = {}
    target = None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("# ") and line.endswith("ratio = here / sqlite3"):
            target, count = line[2:].split(":")[0], line.split()[2]
            announced[target] = int(count)
        elif line.startswith("# ") and len(line.split()) == 6:
            _, shape, count, *_ = line.split()
            shapes[target, shape] = int(count)
        elif not line.startswith("#"):
            name, here, there, ratio, rows, rows_there, shape = \
                line.split()[:7]
            assert name not in statements
            statements[name] = target
            assert math.isfinite(float(ratio)) and float(ratio) > 0
            assert float(here) > 0 and float(there) > 0
            assert rows == rows_there, line
    assert set(announced) == {"reports", "pages_sloth"}
    for target, count in announced.items():
        names = [name for name, of in statements.items() if of == target]
        assert len(names) == count > 0
        assert sum(n for (of, _), n in shapes.items() if of == target) \
            == count
    assert announced["reports"] == reports
