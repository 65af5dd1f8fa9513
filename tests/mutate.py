"""Mutation catalogue: each entry breaks one line of the library, and the
tests must notice.

Usage, from the root of a checkout::

    python tests/mutate.py

For each entry the runner copies the checkout to a fresh temporary
directory, applies the entry's exact-string substitution (which must match
exactly once), and runs ``pytest -x -q -p no:cacheprovider`` on the value
tests and the test files of the layers the catalogue touches.  A failing
run kills the mutant.
The unmutated copy runs first and must pass, so that a broken suite cannot
read as a kill.  The checkout itself is never written.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
the unmutated suite fails or an entry does not match exactly once.

pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# test_values.py, the fastest file, goes first: it kills the constructor
# checks' mutants in about a second under -x.
TESTS = ("tests/test_values.py", "tests/test_farey.py", "tests/test_torus_knots.py",
         "tests/test_bypass.py", "tests/test_transverse.py")

# (file, old text, new text, what the mutant breaks)
CATALOGUE = (
    ("src/torus_cables/torus_knots.py", "if a * y < x * b:", "if a * y <= x * b:",
     "locate: the upper half [n/w, upper) takes its open end"),
    ("src/torus_cables/torus_knots.py", "if x * b < a * y:", "if x * b <= a * y:",
     "locate: the lower half (lower, (n+1)/w) takes its open end"),
    ("src/torus_cables/bypass.py", "if d > 0 and lo <= 0:", "if d > 0 and lo < 0:",
     "bypass: a ruling slope on the lower neighbor is left to the fall-through"),
    ("src/torus_cables/farey.py", "return x, y, p - x, q - y", "return x, y, p - x, q - y + 1",
     "neighbor_terms: the lower neighbor's denominator off by one"),
    ("src/torus_cables/farey.py", "if gcd(num, den) != 1 and den != 0:", "if False:",
     "Slope: an unreduced slope such as 3/9 is accepted"),
    ("src/torus_cables/legendrian.py", "if (tb + rot) % 2 == 0:", "if False:",
     "Generator: a generator with tb + rot even is accepted"),
    ("src/torus_cables/legendrian.py", "if x > gen.bound:", "if x > gen.bound + 1:",
     "Branch: x one past the protection bound is accepted"),
    ("src/torus_cables/transverse.py", "merge_sl > sl_top - 2:", "merge_sl > sl_top:",
     "TransverseBranch: a branch may merge at its own top"),
)


def _copy(dest: Path) -> Path:
    tree = dest / "checkout"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build"))
    return tree


def _suite_passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def _run(entry) -> tuple:
    """(suite passed, seconds) for one entry, or for the unmutated copy
    when ``entry`` is None."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = _copy(Path(tmp))
        if entry is not None:
            path, old, new, _ = entry
            target = tree / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise LookupError(f"{path}: {old!r} matches {text.count(old)} times, not once")
            target.write_text(text.replace(old, new), encoding="utf-8")
        start = perf_counter()
        return _suite_passes(tree), perf_counter() - start


def main() -> int:
    passed, seconds = _run(None)
    print(f"unmutated   {seconds:6.1f} s  {'passes' if passed else 'FAILS'}", flush=True)
    if not passed:
        return 2
    survivors = 0
    for entry in CATALOGUE:
        try:
            passed, seconds = _run(entry)
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        survivors += passed
        print(f"{'SURVIVED' if passed else 'killed':10}  {seconds:6.1f} s  {entry[3]}", flush=True)
    print(f"{len(CATALOGUE) - survivors} of {len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
