"""Mutation check: every mutant in MUTANTS must make its test modules fail.

A row names a source file, an exact text in it, the text that replaces it,
and the test modules that must catch the change.  Each mutant is applied to a
fresh copy of the repository's code and tests in a temporary directory
outside the repository, and its modules run there with ``pytest -x``.  The
check fails when a mutant survives, when a row's text no longer occurs
exactly once in its file, or when the unmutated modules do not pass.

    python scripts/mutants.py

New mutants go in the table rather than in prose.  It is not part of the
Tier-1 suite: each row runs whole test modules, a few seconds each.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# what a mutant's copy holds: the package, its tests, and what the tests read
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str     # relative to the repository root
    old: str      # occurs exactly once in path
    new: str
    tests: tuple  # test modules, relative to the repository root


CLI = "src/latticegrow/cli.py"
EST = "src/latticegrow/estimators.py"
EXP = "src/latticegrow/experiments.py"
FPP = "src/latticegrow/fpp.py"
LPP = "src/latticegrow/lpp.py"

MUTANTS = [
    Mutant("bucket takes t <= thr", FPP,
           "        else:\n            take = tf < thr\n",
           "        else:\n            take = tf <= thr\n",
           ("tests/test_fpp.py",)),
    Mutant("the inner rounds cut to one", FPP,
           "            if not (nt < thr).any():\n", "            if True:\n",
           ("tests/test_fpp.py",)),
    Mutant("a bucket vertex whose time drops again is not relaxed again", FPP,
           "            slot[bucket] = -1\n            parts.append(bucket)\n",
           "            slot[bucket] = size\n            parts.append(bucket)\n",
           ("tests/test_fpp.py",)),
    Mutant("a vertex relaxed in two rounds settled twice", FPP,
           "            bucket = bucket[slot[bucket] == at]\n", "            bucket = bucket[at >= 0]\n",
           ("tests/test_fpp.py",)),
    Mutant("the tie check disabled: one pop a step only when thr == t_min", FPP,
           "        if 2 * omega <= math.ulp(thr):\n", "        if thr == t_min:\n",
           ("tests/test_fpp.py",)),
    Mutant("the tie check reads the first trial's least weight", FPP,
           "        if 2 * omega <= math.ulp(thr):\n",
           "        if 2 * float(weights[:, 0].min()) <= math.ulp(thr):\n",
           ("tests/test_fpp.py",)),
    Mutant("a one-pop step goes on to the rest of its bucket", FPP,
           "            thr = t_min\n", "",
           ("tests/test_fpp.py",)),
    Mutant("target cut one vertex early", FPP,
           "    k[bi[hit]] = pos[hit] + 1\n", "    k[bi[hit]] = pos[hit]\n",
           ("tests/test_fpp.py",)),
    Mutant("a trial's stop ends every trial", FPP,
           "            front = front[~stop[front // size]]\n", "            front = front[:0]\n",
           ("tests/test_fpp.py",)),
    Mutant("the vertex cap never binds", FPP,
           "    capped = cap < size\n", "    capped = False\n",
           ("tests/test_fpp.py",)),
    Mutant("tied times left in quick-sort order", FPP,
           "            if (bt[1:] == bt[:-1]).any():\n", "            if False:\n",
           ("tests/test_fpp.py",)),
    Mutant("a pruned solve's omega without its rounding margin", FPP,
           "    omega = min(f.spec.support_min() for f in fields) * (1 - _GOAL_MARGIN)\n",
           "    omega = min(f.spec.support_min() for f in fields)\n",
           ("tests/test_fpp_point.py",)),
    Mutant("a pruned box without its extra layer", FPP,
           "    r = math.ceil(half) + 1\n", "    r = math.ceil(half)\n",
           ("tests/test_fpp_point.py",)),
    Mutant("a pruned solve's omega from the window between 0 and x", FPP,
           "    omega = min(f.spec.support_min() for f in fields) * (1 - _GOAL_MARGIN)\n",
           "    omega = min(float(f.edge_window(tuple(min(0, c) for c in target), tuple(abs(c) + 1"
           " for c in target)).min()) for f in fields) * (1 - _GOAL_MARGIN)\n",
           ("tests/test_fpp_point.py",)),
    Mutant("a pruned solve's omega from half the mean", FPP,
           "    omega = min(f.spec.support_min() for f in fields) * (1 - _GOAL_MARGIN)\n",
           "    omega = min(f.spec.mean() / 2 for f in fields) * (1 - _GOAL_MARGIN)\n",
           ("tests/test_fpp_point.py",)),
    Mutant("the prune drops a time equal to its limit", FPP,
           "                better &= nt <= lim[dest]\n",
           "                better &= nt < lim[dest]\n",
           ("tests/test_fpp_point.py",)),
    Mutant("decision ties go to the later axis", LPP,
           "                np.greater(x, best, out=flags[(k, *box)])\n",
           "                np.greater_equal(x, best, out=flags[(k, *box)])\n",
           ("tests/test_lpp.py",)),
    Mutant("a block read one diagonal late", LPP,
           "        ws = weights(k0, k1)\n", "        ws = weights(k0 - 1, k1 - 1)\n",
           ("tests/test_lpp.py",)),
    Mutant("a block's first diagonal not rehashed", LPP,
           "        for lo in range(k0, k1, step):\n",
           "        for lo in range(k0 + 1, k1, step):\n",
           ("tests/test_lpp.py",)),
    Mutant("backtrack steps along the wrong lead stride", LPP,
           "        back[a] += b * math.prod(lead[j + 1 :])\n",
           "        back[a] += b * math.prod(lead[:j])\n",
           ("tests/test_lpp.py",)),
    Mutant("the seeds of a batch reversed", LPP,
           "_hash_words([f.seed for f in fields],", "_hash_words([f.seed for f in fields][::-1],",
           ("tests/test_lpp.py",)),
    Mutant("the BLAS thread cap dropped", CLI,
           '        os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))\n', "        pass\n",
           ("tests/test_experiments.py",)),
    Mutant("a caller's BLAS thread count overridden", CLI,
           "    if not any(name in os.environ for name in _BLAS_THREADS):\n", "    if True:\n",
           ("tests/test_experiments.py",)),
    Mutant("the pool sized by the workers, not the tasks", EST,
           "    procs = min(workers or 1, len(tasks), MEMORY_BUDGET // task_bytes)\n",
           "    procs = min(workers or 1, MEMORY_BUDGET // task_bytes)\n",
           ("tests/test_experiments.py",)),
    Mutant("the pool ignores the byte cap", EST,
           "    procs = min(workers or 1, len(tasks), MEMORY_BUDGET // task_bytes)\n",
           "    procs = min(workers or 1, len(tasks))\n",
           ("tests/test_experiments.py",)),
    Mutant("the batch helper loses its max(1, ...)", EXP,
           "    return max(1, _BATCH_BYTES // trial_bytes)\n",
           "    return _BATCH_BYTES // trial_bytes\n",
           ("tests/test_experiments.py",)),
    Mutant("the FPP count drops the lim bytes", FPP,
           "(14 * box.dimension + 33 + 8 * pruned)", "(14 * box.dimension + 33)",
           ("tests/test_fpp_point.py",)),
    Mutant("the growth count drops roundness's window", EXP,
           "_roundness_bytes(min(d, 64), 2)", "_grid_bytes(min(d, 64), 2)",
           ("tests/test_memory.py",)),
    Mutant("a flat-edge margin strip one column off", EST,
           "((0, n + 1), (n + 1, m))", "((0, n + 2), (n + 1, m))",
           ("tests/test_estimators.py",)),
]


def stale_rows(rows=MUTANTS) -> list:
    """Names of the rows whose old text does not occur exactly once in their file."""
    return [m.name for m in rows if (ROOT / m.path).read_text().count(m.old) != 1]


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".work"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(rows=MUTANTS) -> bool:
    """Apply and test each row; print one line per row and return whether all were killed."""
    stale = stale_rows(rows)
    for name in stale:
        print(f"STALE     {name}: its old text does not occur exactly once")
    modules = sorted({t for m in rows for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="latticegrow-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        code = _pytest(clean, modules)
        if code != 0:
            print(f"BROKEN    the unmutated modules exit {code}: {' '.join(modules)}")
            return False
        ok = not stale
        for m in rows:
            if m.name in stale:
                continue
            tree = Path(tmp) / "mutant"
            _copy(tree)
            target = tree / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            code = _pytest(tree, m.tests)
            took = time.perf_counter() - start
            shutil.rmtree(tree)
            # pytest exits 1 when a test fails; any other exit is not a kill
            if code == 1:
                print(f"killed    {m.name} ({took:.1f} s)")
            else:
                print(f"{'SURVIVED' if code == 0 else 'ERROR':9} {m.name} (pytest exit {code})")
                ok = False
    return ok


if __name__ == "__main__":
    sys.exit(0 if run() else 1)
