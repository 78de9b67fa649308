"""Unsound edits of the program that the test suite must catch.

Each mutant is (module under src/multires, anchor, replacement, what it
breaks). For each one the script copies src/, tests/, pyproject.toml and the
benchmark's recorded answers to a temporary directory, replaces the anchor,
which must occur exactly once, and runs `pytest -x -q` there. It exits 1 if
an anchor is not found once or a mutant does not fail the suite, else 0.
pytest does not collect this file. Run it from anywhere:

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "perfbench/expected")

MUTANTS = (
    (
        "solver.py",
        "    if variant.adjacent and bipartition(g) is not None:",
        "    if (variant.adjacent or variant is Variant.DIM_MS and g.n > 9)"
        " and bipartition(g) is not None:",
        "the bipartite shortcut also taken for DIM_MS above n = 9",
    ),
    (
        "bounds.py",
        "        if len(triple) >= 3:",
        "        if len(triple) >= (2 if g.n > 8 else 3):",
        "an MD triple_open_neighborhood certificate for an open twin pair above n = 8",
    ),
    (
        "bounds.py",
        "            if len(ends) >= 3",
        "            if len(ends) >= 3 or len(ends) == 2 and len(clique) > 6",
        "an LMD triple_k_end certificate for a K-end pair in a clique of order > 6",
    ),
    (
        "solver.py",
        "found = k >= k_min and search(0, k, 0, base)",
        "found = k > k_min and search(0, k, 0, base)",
        "the level search starting one level above the floor k_min",
    ),
    (
        "solver.py",
        "min(n - 1, delta * (delta - 1) ** (d - 1)) + 1 if d else 2",
        "min(n - 1, delta * (delta - 1) ** (d - 1)) if d else 2",
        "a multiset key radix one too small",
    ),
    (
        "solver.py",
        "            row[w] = -(w + 1) * F",
        "            row[w] = -w * F",
        "an outer sentinel that overlaps the keys",
    ),
    (
        "solver.py",
        "    return short <= slots",
        "    return short < slots",
        "_feasible one slot short",
    ),
    (
        "solver.py",
        "        return math.comb(free, slots)",
        "        return math.comb(free + 1, slots)",
        "_completions off by one with no rules",
    ),
    (
        "solver.py",
        "            rule = (sum(1 << v for v in vs), len(vs) - 1, at_most)",
        "            rule = (sum(1 << v for v in vs), len(vs), at_most)",
        "a twin rule that asks for every twin of a class",
    ),
    (
        "bounds.py",
        "    return next((k for k in range(1, n + 1) if fits(k)), n + 1)",
        "    return next((k + 1 for k in range(1, n + 1) if fits(k)), n + 1)",
        "level_lower_bound one level too high",
    ),
    (
        "bounds.py",
        "        hi, lo = min(d, k), max(0, k - (n - 1 - d))",
        "        hi, lo = min(d, k) - 1, max(0, k - (n - 1 - d))",
        "_distinct_counts with each interval one count short",
    ),
    (
        "solver.py",
        "        cols = tuple(int(format(m, spec)[::L], 2) for m in moved)",
        "        cols = tuple(int(format(m, spec)[::L], 2) ^ (w == 1)"
        " for w, m in enumerate(moved))",
        "a vector column with one pair bit flipped",
    ),
)


def copy_tree(dest):
    for part in COPIED:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, dest / part)


def caught(mutant, work):
    """None if the suite fails on the mutated copy, else why not."""
    module, anchor, replacement, _ = mutant
    tree = work / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    copy_tree(tree)
    path = tree / "src" / "multires" / module
    text = path.read_text()
    if text.count(anchor) != 1:
        return f"anchor found {text.count(anchor)} times in {module}"
    path.write_text(text.replace(anchor, replacement))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 1:  # a test failed
        return None
    if proc.returncode == 0:
        return "survived: every test passed"
    return f"pytest exited {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}"


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as work:
        for mutant in MUTANTS:
            t0 = time.perf_counter()
            problem = caught(mutant, Path(work))
            seconds = time.perf_counter() - t0
            print(f"{'caught' if problem is None else 'FAILED'} in {seconds:.1f} s: {mutant[3]}")
            if problem is not None:
                print(f"  {problem}")
                failures += 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
