"""No ``import`` statement runs on a per-query, per-value or per-cell path.

An ``import`` inside a function body executes on every call (a
``sys.modules`` lookup and a name bind at best: ``force(1)`` cost 0.84 us
with one, 0.085 us without).  This walks the layered packages and fails on
any import nested in a function unless ``(file, function)`` is allowed
below, with the reason it stays.

The same walk yields the package-level import graph, so the layer stack of
README / ARCHITECTURE ("lower layers never import higher ones") is asserted
here too, not only drawn.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("core", "orm", "web", "net", "sqldb", "apps", "compiler")

# Lowest first: a package imports only from packages to its left.
# ``compiler`` is above ``core`` and ``net`` because compiled code *calls*
# the runtime library (paper §5) — the kernel-language interpreter allocates
# ``core`` thunks and registers through the production query store — and
# only ``bench`` (Fig. 11's persistence analysis) imports it.
LAYERS = ("sqldb", "net", "core", "orm", "web", "apps", "compiler", "bench")
UPWARD_ALLOWED = {
    ("net", "web"): "record_page_trace's function-level import (see ALLOWED)",
}

ALLOWED = {
    ("sqldb/plan/optimizer.py", "_output_passthrough"):
        "cold path: once per plan build; keeps the logical optimizer "
        "loadable without the physical layer",
    ("net/concurrent.py", "record_page_trace"):
        "import cycle (web imports net); once per recorded page",
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


def _trees(packages):
    """``(package, path relative to src/repro, AST)`` of every module."""
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield (package, path.relative_to(SRC).as_posix(),
                   ast.parse(path.read_text(), filename=str(path)))


def test_no_function_level_imports_on_executed_paths():
    offenders, seen = [], set()
    for _, relative, tree in _trees(PACKAGES):
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


def _package_imports():
    """``(importer, imported) -> "file:line"`` over the packages of
    ``src/repro``, imports nested in functions included."""
    edges = {}
    for package, relative, tree in _trees(LAYERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                parts = module.split(".")
                if parts[0] == "repro" and parts[1:2] not in ([], [package]):
                    edges.setdefault((package, parts[1]),
                                     f"{relative}:{node.lineno}")
    return edges


def test_lower_layers_never_import_higher_ones():
    assert {path.name for path in SRC.iterdir()
            if path.is_dir() and path.name != "__pycache__"} == set(LAYERS)
    edges = _package_imports()
    rank = {package: level for level, package in enumerate(LAYERS)}
    upward = {edge: where for edge, where in edges.items()
              if rank[edge[1]] > rank[edge[0]]}
    assert upward.keys() == UPWARD_ALLOWED.keys(), upward
    # The flipped layering: the interpreter runs on the runtime library
    # and the simulated network, and nothing below the figures imports it.
    assert {("compiler", "core"), ("compiler", "net")} <= edges.keys()
    assert {importer for importer, imported in edges
            if imported == "compiler"} == {"bench"}
