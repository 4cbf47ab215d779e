"""The simulated figures are a golden file.

``benchmarks/figures.golden.txt`` holds what ``pytest -s
--benchmark-disable benchmarks`` prints — every figure and table the
benchmarks regenerate — from its ``collected`` line on, without the last
line (the wall-clock summary).  The session header before it names the
interpreter, the plugins and the checkout's path, none of which is a
figure.  Every number in the tables is simulated time (``SimClock``), so
the output is byte-stable: a change that moves a figure updates the
golden and says why.  To rewrite the golden::

    PYTHONPATH=src python tests/test_figures_golden.py
"""

import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "figures.golden.txt"
_WALL_CLOCK = re.compile(r"=+ .* in [0-9.]+s( \([0-9:]+\))? =+\n?")


def figures_output():
    """``(exit code, normalised output)`` of the figure benchmarks, run in
    a fresh interpreter from the repository root."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "--benchmark-disable",
         "-p", "no:cacheprovider", "benchmarks"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=False)
    lines = run.stdout.splitlines(keepends=True)
    start = next((i for i, line in enumerate(lines)
                  if line.startswith("collected ")), 0)
    body = lines[start:]
    if body and _WALL_CLOCK.fullmatch(body[-1]):
        body.pop()
    return run.returncode, "".join(body)


def test_the_figures_match_the_golden():
    code, output = figures_output()
    assert code == 0, output[-4000:]
    golden = GOLDEN.read_text()
    diff = "".join(difflib.unified_diff(
        golden.splitlines(keepends=True), output.splitlines(keepends=True),
        "benchmarks/figures.golden.txt", "regenerated"))
    assert not diff, diff[:8000]


if __name__ == "__main__":
    code, output = figures_output()
    if code:
        sys.exit(output)
    GOLDEN.write_text(output)
