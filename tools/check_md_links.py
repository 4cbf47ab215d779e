"""Check intra-repository markdown links and code references.

Scans the given markdown files (default: README.md, ARCHITECTURE.md and
everything under docs/) for ``[text](target)`` links, ignores external
URLs and pure anchors, and verifies every file-path target exists relative
to the linking file.  It also resolves two kinds of code reference
against the repository root: a ``src/...`` path must exist, and a
``tests/....py::name[::name]`` reference must name a file whose module
defines ``name`` (a ``def``, a ``class`` or an assignment at module level;
each further name a ``def`` or ``class`` inside the one before).  Exits
non-zero listing what is broken — the CI docs job runs this so
documentation cannot drift from the tree.

Usage:  python tools/check_md_links.py [file.md ...]
"""

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# [text](target) — target captured without surrounding whitespace; images
# (![alt](target)) match too via the optional leading '!'.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")

# tests/path/file.py::name::name — a pytest id's "[param]" is not part of it.
_TEST_REF = re.compile(r"(?<![\w/.])(tests/[\w/]+\.py)((?:::\w+)+)")
# src/... — a path, ending on a word character (not a sentence's period).
_SRC_PATH = re.compile(r"(?<![\w/.])src/[\w/.-]*\w")


def default_files():
    files = [REPO_ROOT / "README.md", REPO_ROOT / "ARCHITECTURE.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("**/*.md")))
    return [f for f in files if f.exists()]


def _defines(tree, names):
    """Whether module ``tree`` defines ``names[0]`` at module level and
    each further name inside the definition before it."""
    body = tree.body
    for depth, name in enumerate(names):
        found = None
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name == name:
                found = node
            elif depth == 0 and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if any(isinstance(t, ast.Name) and t.id == name
                       for t in targets):
                    found = node
        if found is None:
            return False
        body = getattr(found, "body", [])
    return True


def _broken_code_refs(text):
    """``(offset, reference)`` of each code reference in ``text`` that
    does not resolve."""
    broken = []
    for match in _SRC_PATH.finditer(text):
        if not (REPO_ROOT / match.group(0)).exists():
            broken.append((match.start(), match.group(0)))
    for match in _TEST_REF.finditer(text):
        source = REPO_ROOT / match.group(1)
        names = match.group(2).split("::")[1:]
        if not (source.is_file() and _defines(
                ast.parse(source.read_text(encoding="utf-8")), names)):
            broken.append((match.start(), match.group(0)))
    return broken


def check_file(path):
    broken = []
    text = path.read_text(encoding="utf-8")
    for offset, reference in _broken_code_refs(text):
        broken.append((path, text.count("\n", 0, offset) + 1, reference))
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        # Strip an anchor suffix: FILE.md#section links to FILE.md.
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            line = text.count("\n", 0, match.start()) + 1
            broken.append((path, line, target))
    return broken


def main(argv):
    files = ([Path(arg).resolve() for arg in argv[1:]]
             if len(argv) > 1 else default_files())
    broken = []
    for path in files:
        broken.extend(check_file(path))
    if broken:
        for path, line, target in broken:
            rel = path.relative_to(REPO_ROOT) if path.is_relative_to(
                REPO_ROOT) else path
            print(f"BROKEN {rel}:{line}: {target}")
        return 1
    print(f"checked {len(files)} file(s): all intra-repo links and code "
          "references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
