"""Check that every mutant of catalog.toml is killed by the tests it names.

    python3 mutants/run.py [NAME ...]

The named tests must first pass on an unmutated copy of the repository.
Then, for each mutant (all, or those named), the runner copies src/ and
tests/ to a temporary directory, replaces the row's `old` text in its file
by `new`, runs only the row's `killed_by` tests there with pytest, and
requires each of them to fail within BUDGET_S seconds.  The rows are
checked os.cpu_count() at a time, each in its own copy, and reported in
catalog order, each with its own time.  It exits 1 when a
mutant survives, a run exceeds its budget, or a row's `old` text does not
occur exactly once in its file.  Needs Python 3.11+ (tomllib) and the test
dependencies.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import tomllib
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog.toml")
# seconds each row's tests may take, mutated or not
BUDGET_S = 120


def _copy(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=ignore)


def _pytest(tree: str, tests: list, budget: float):
    """Each test's outcome (PASSED, FAILED or ERROR) by node id, or None when
    the run timed out.  A test pytest did not run has no entry."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
    try:
        out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=budget)
    except subprocess.TimeoutExpired:
        return None
    outcome = {}
    for line in out.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcome[rest.split(" - ", 1)[0]] = word
    return outcome


def _check(row: dict) -> str:
    """'' when the mutant is killed, else why not."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{row['name']}-") as tree:
        _copy(tree)
        path = os.path.join(tree, row["file"])
        with open(path) as fh:
            text = fh.read()
        found = text.count(row["old"])
        if found != 1:
            return f"stale: its old text occurs {found} times in {row['file']}, not once"
        with open(path, "w") as fh:
            fh.write(text.replace(row["old"], row["new"]))
        outcome = _pytest(tree, row["killed_by"], BUDGET_S)
    if outcome is None:
        return f"over budget: its tests ran past {BUDGET_S} s"
    survived = [t for t in row["killed_by"] if outcome.get(t) not in ("FAILED", "ERROR")]
    return f"survived: not failed by {', '.join(survived)}" if survived else ""


def _timed_check(row: dict) -> tuple:
    t0 = time.monotonic()
    return _check(row), time.monotonic() - t0


def main(argv: list) -> int:
    with open(CATALOG, "rb") as fh:
        rows = tomllib.load(fh)["mutant"]
    unknown = set(argv) - {row["name"] for row in rows}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    rows = [row for row in rows if not argv or row["name"] in argv]
    tests = sorted({t for row in rows for t in row["killed_by"]})
    with tempfile.TemporaryDirectory(prefix="mutant-clean-") as tree:
        _copy(tree)
        outcome = _pytest(tree, tests, BUDGET_S * len(rows))
    bad = tests if outcome is None else [t for t in tests if outcome.get(t) != "PASSED"]
    if bad:
        print(f"error: unmutated, these tests do not pass: {', '.join(bad)}", file=sys.stderr)
        return 1
    status = 0
    # each check waits on its pytest child, so threads run them side by side
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for row, (problem, took) in zip(rows, pool.map(_timed_check, rows)):
            print(f"{row['name']}: {problem or 'killed'} ({took:.1f} s)", flush=True)
            status |= bool(problem)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
