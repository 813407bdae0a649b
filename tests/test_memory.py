"""Each kind at its CLI limit stays within MEMORY_BUDGET, measured in a child process.

The child lowers ``experiments.MEMORY_BUDGET`` before any solver module
imports it, so the run is small enough for the suite, and the batch bytes
with it, in the same ratio; this process finds the largest value
``validate()`` accepts under the same constants.  The peak is
the child's resident high-water mark from ``wait4``, less that of a child
which only imports numpy, numpy.random and the solvers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticegrow
from latticegrow import experiments
from latticegrow.experiments import ConfigError, ExperimentConfig

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads ru_maxrss in kilobytes")

_BUDGET = 24 << 20  # bytes
_BATCH = _BUDGET * experiments._BATCH_BYTES // experiments.MEMORY_BUDGET
_SRC = str(Path(latticegrow.__file__).parents[1])
# the modules a run loads: their code is not the run's data
_BASE = "import numpy, numpy.random, latticegrow.estimators, latticegrow.growth, latticegrow.tasep"
_RUN = ("import sys\n"
        "from latticegrow import experiments\n"
        "experiments.MEMORY_BUDGET, experiments._BATCH_BYTES = int(sys.argv[1]), int(sys.argv[2])\n"
        "from latticegrow import cli\n"
        "sys.exit(cli.main(sys.argv[3:]))\n")


def _peak(code: str, *args: str) -> int:
    """Resident high-water mark of a fresh interpreter running code, in bytes."""
    env = {**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.returncode == 0, err
    return usage.ru_maxrss * 1024


def _largest(make, lo: int, hi: int) -> int:
    """The largest v in [lo, hi) whose config validate() accepts; it accepts lo, not hi."""
    def ok(v):
        try:
            ExperimentConfig(**make(v)).validate()
            return True
        except ConfigError:
            return False

    assert ok(lo) and not ok(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def _fpp(direction):
    dim = len(direction.split(","))
    return lambda n: dict(kind="radial-g", model="fpp", dist="exp:1.0", direction=direction,
                          dim=dim, n_grid=str(n), trials=2)


# kind -> (config of a value, bounds on the limit) at _BUDGET
_KINDS = {
    "fpp-2d": (_fpp("1,1"), 8, 10_000),
    "fpp-3d": (_fpp("1,1,1"), 1, 1_000),
    "eden": (lambda d: dict(kind="eden", dim=d, steps=1), 1, 64),
    "idla": (lambda d: dict(kind="idla", dim=d, steps=1), 1, 64),
    "flat-edge": (lambda n: dict(kind="flat-edge", dist="twopoint:0.55", n_grid=str(n), trials=1),
                  50, 8000),
    "tasep-coupling": (lambda k: dict(kind="tasep-coupling", steps=k, trials=2), 2, 100_000),
}


@pytest.fixture(scope="module")
def base() -> int:
    return _peak(_BASE)


@pytest.mark.parametrize("kind", _KINDS)
def test_kind_at_its_limit_peaks_within_the_budget(kind, base, monkeypatch, tmp_path):
    make, lo, hi = _KINDS[kind]
    monkeypatch.setattr(experiments, "MEMORY_BUDGET", _BUDGET)
    monkeypatch.setattr(experiments, "_BATCH_BYTES", _BATCH)
    cfg = make(_largest(make, lo, hi))
    argv = [cfg.pop("kind")]
    for key, value in cfg.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    peak = _peak(_RUN, str(_BUDGET), str(_BATCH), *argv, "--out", str(tmp_path / "o"))
    assert peak - base <= _BUDGET, (argv, peak - base)
