"""No ``import`` statement runs on a per-query, per-value or per-cell path.

An ``import`` inside a function body executes on every call (a
``sys.modules`` lookup and a name bind at best: ``force(1)`` cost 0.84 us
with one, 0.085 us without).  This walks the layered packages and fails on
any import nested in a function unless ``(file, function)`` is allowed
below, with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("core", "orm", "web", "net", "sqldb", "apps")

COLD_EXPLAIN = "cold path: EXPLAIN is a diagnostic, never on a statement's path"
COLD_TOPOLOGY = ("cold path: once per cluster set-up; unsharded runs never "
                 "load the shard package")

ALLOWED = {
    ("sqldb/database.py", "Database.explain"): COLD_EXPLAIN,
    ("sqldb/shard/sharded.py", "ShardedDatabase.explain"): COLD_EXPLAIN,
    ("sqldb/plan/optimizer.py", "_output_passthrough"):
        "cold path: once per plan build; keeps the logical optimizer "
        "loadable without the physical layer",
    ("net/concurrent.py", "record_page_trace"):
        "import cycle (web imports net); once per recorded page",
    ("apps/tpcc/schema.py", "shard_topology"): COLD_TOPOLOGY,
    ("apps/itracker/schema.py", "shard_topology"): COLD_TOPOLOGY,
    ("apps/openmrs/schema.py", "shard_topology"): COLD_TOPOLOGY,
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _nested_imports(tree):
    """``(qualified function name, line)`` of every import in a function."""
    found = []

    def walk(node, names, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    found.append((".".join(names), child.lineno))
            elif isinstance(child, _SCOPES):
                walk(child, names + [child.name],
                     in_function or not isinstance(child, ast.ClassDef))
            else:
                walk(child, names, in_function)

    walk(tree, [], False)
    return found


def test_no_function_level_imports_on_executed_paths():
    offenders, seen = [], set()
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for function, line in _nested_imports(tree):
                seen.add((relative, function))
                if (relative, function) not in ALLOWED:
                    offenders.append(
                        f"src/repro/{relative}:{line} in {function}()")
    assert not offenders, (
        "function-level imports (move to module level, or allow-list with "
        "a reason):\n  " + "\n  ".join(offenders))
    stale = sorted(set(ALLOWED) - seen)
    assert not stale, f"allow-list entries with no import left: {stale}"
