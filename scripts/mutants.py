"""Mutation check: every mutant in MUTANTS must make its test modules fail.

A row names a source file, an exact text in it, the text that replaces it,
and the test modules that must catch the change.  Each mutant is applied to a
fresh copy of the repository's code and tests in a temporary directory
outside the repository, and its modules run there with ``pytest -x``.  The
check fails when a mutant survives, when a row's text no longer occurs
exactly once in its file, or when the unmutated modules do not pass.  A row
whose change cannot alter any result is marked equivalent with the reason,
and its survival passes.

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
    equivalent: str = ""  # why no result can change, for a mutant no test can kill


CLI = "src/latticegrow/cli.py"
EST = "src/latticegrow/estimators.py"
EXP = "src/latticegrow/experiments.py"
FPP = "src/latticegrow/fpp.py"
GRO = "src/latticegrow/growth.py"
LPP = "src/latticegrow/lpp.py"
ORA = "src/latticegrow/oracle.py"
OUT = "src/latticegrow/_output.py"
TAS = "src/latticegrow/tasep.py"
WTS = "src/latticegrow/weights.py"

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
    Mutant("the stdout flush before os._exit dropped", CLI,
           "    if not _drain(sys.stdout):", "    if False:",
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
    Mutant("a config file's unknown key skipped, not refused", EXP,
           '                raise ConfigError(f"{key}: unknown config key")\n',
           "                continue\n",
           ("tests/test_experiments.py",)),
    Mutant("a field its kind does not read may leave its default", EXP,
           "            if f.name not in reads and value != f.default:\n", "            if False:\n",
           ("tests/test_experiments.py",)),
    Mutant("the dist parse skipped for every kind", EXP,
           '        if "dist" in reads:\n', "        if False:\n",
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
    Mutant("the fold step drops its out array", WTS,
           "    return _mix(np.asarray(np.bitwise_xor(h, salted, out=out)))\n",
           "    return _mix(np.asarray(np.bitwise_xor(h, salted)))\n",
           ("tests/test_lpp.py",)),
    Mutant("a word folded without its gold", WTS,
           "    return np.asarray(word, dtype=np.int64).view(np.uint64) + _NP_GOLD\n",
           "    return np.asarray(word, dtype=np.int64).view(np.uint64)\n",
           ("tests/test_weights.py",)),
    Mutant("the seed folded without its gold", WTS,
           "dtype=np.uint64), _NP_GOLD)\n", "dtype=np.uint64), np.uint64(0))\n",
           ("tests/test_weights.py",)),
    Mutant("the exit law loses its sin(m pi / 2) signs", GRO,
           "np.where(m % 4 == 1, 1.0, -1.0) * e", "e",
           ("tests/test_growth.py",)),
    Mutant("a square's jumps transposed", GRO,
           "(rows * side + cols).tolist()", "(cols * side + rows).tolist()",
           ("tests/test_growth.py",)),
    Mutant("a guide-table bucket a cdf value cuts read as direct", GRO,
           "np.where(lo == hi, lo, len(jumps))", "np.where(lo <= hi, lo, len(jumps))",
           ("tests/test_growth.py",)),
    Mutant("Eden's sites counted without their boundary edges", GRO,
           '    edges = 2 * d - 1 if kind == "eden" else 0\n', "    edges = 0\n",
           ("tests/test_experiments.py",)),
    Mutant("the tie rule takes the left time on ties", TAS,
           "            left = (left if left > u else u) + row[n]\n",
           "            left = (left if left >= u else u) + row[n]\n",
           ("tests/test_tasep.py",),
           equivalent="on a tie left and u are the same float, so the max is too"),
    Mutant("a row never becomes the row above", TAS, "        up = row\n", "",
           ("tests/test_tasep.py",)),
    Mutant("the current counts particle 1", TAS,
           "    return int(np.count_nonzero(diag[1:] <= t))\n",
           "    return int(np.count_nonzero(diag <= t))\n",
           ("tests/test_tasep.py",)),
    Mutant("the oracle's l1 bound one step too long", ORA,
           "            if nacc + per_step_floor * l1(v, target) >= best:\n",
           "            if nacc + per_step_floor * (l1(v, target) + 1) >= best:\n",
           ("tests/test_oracle.py",)),
    Mutant("the oracle reads an edge at its upper endpoint", ORA,
           "            for i in box.padded_index(min(u, v)):\n",
           "            for i in box.padded_index(max(u, v)):\n",
           ("tests/test_oracle.py",)),
    Mutant("floats written with 16 digits", OUT,
           '"%.17g" if c.dtype.kind == "f"', '"%.16g" if c.dtype.kind == "f"',
           ("tests/test_exports.py",)),
    Mutant("a write slice drops its last row", OUT,
           "c[a : a + _ROWS_PER_WRITE].tolist()", "c[a : a + _ROWS_PER_WRITE - 1].tolist()",
           ("tests/test_exports.py",)),
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
            elif code == 0 and m.equivalent:
                print(f"survived  {m.name}, equivalent: {m.equivalent} ({took:.1f} s)")
            else:
                print(f"{'SURVIVED' if code == 0 else 'ERROR':9} {m.name} (pytest exit {code})")
                ok = False
    return ok


if __name__ == "__main__":
    sys.exit(0 if run() else 1)
