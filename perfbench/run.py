"""Benchmark of the latticegrow CLI: two workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lpp-exact --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the workload's CLI invocations run as fresh interpreters,
one after another, repeated until ``--seconds`` have passed.  The
repetitions come in rounds of one per CPU (at most two CPUs): in each, the
single-process invocations run on that CPU alone, because the CPUs of a
shared machine can differ in speed for minutes at a time.  There are at
least two repetitions, and no round starts that would end past
``--seconds`` at the average pace.  The end-to-end metrics below are, for each CPU, the median over
its repetitions, averaged over the CPUs:

- ``wall_s``: spawn to exit of each invocation, summed over the workload;
- ``cpu_s``: user plus system time of every process, pool workers included;
- ``peak_rss_mb``: largest resident set of any process;
- ``setup_s``: median time for a fresh interpreter to import
  ``latticegrow.cli`` and build its parser, over many tries.

The three times are in reference seconds (``reference.py``): the fresh
imports are spread over the run, a few before the first repetition and a
few after each, and a fixed reference loop is timed next to each one.  The
raw times are scaled by the loop's mean speed over those samples, so that
a slow stretch of the shared machine slows both and cancels out.  The raw
times are printed on the ``#`` lines.

With ``--trace 1`` the invocations run once untraced, then are replayed in
this process with ``--workers 1`` and spans around each layer's functions
(see ``tracer.py``); the per-layer metrics come from that replay and are
raw seconds.

Every invocation must exit 0 and pass its output checks (``workloads.py``),
and its output files must hash the same as the first repetition's,
including across the untraced and traced runs.  A failed invocation counts
in ``failed``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the environment and each repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

# fresh imports timed before the first repetition, and after each one
SETUP_TRIES_FIRST = 9
SETUP_TRIES_PER_REP = 4
MIN_REPS = 2
# single-process invocations alternate between this many CPUs, one per repetition
PIN_CPUS = 2
READY = "import latticegrow.cli as c; c.build_parser()"


def _spawn(args: list, env: dict, stderr_path: Path, cpu: int | None = None):
    """Run one child to completion, on CPU ``cpu`` alone if given; return
    (exit code, wall s, cpu s, max rss MB)."""
    allowed = os.sched_getaffinity(0)
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # the child inherits it
        try:
            proc = subprocess.Popen(args, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        finally:
            os.sched_setaffinity(0, allowed)
        try:
            # wait4 reports the child's usage together with the pool workers it reaped
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def child_env(src: Path) -> dict:
    """Environment for CLI children: the checkout's sources come first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def check_setup(env: dict, scratch: Path) -> None:
    """Import the CLI once untimed; this also fills bytecode and file caches."""
    if _spawn([sys.executable, "-c", READY], env, scratch / "setup.stderr")[0] != 0:
        raise RuntimeError(f"importing latticegrow.cli failed: {(scratch / 'setup.stderr').read_text()}")


def time_setup(env: dict, scratch: Path, tries: int, walls: list, refs: list) -> None:
    """Time ``tries`` fresh interpreters becoming ready to run the CLI, with a
    reference sample before the first and after each."""
    refs.append(reference.unit_seconds())
    for _ in range(tries):
        walls.append(_spawn([sys.executable, "-c", READY], env, scratch / "setup.stderr")[1])
        refs.append(reference.unit_seconds())


class Ledger:
    """Counts invocations and failures, and holds the reference output hashes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict = {}
        self.problems: list = []

    def record(self, index: int, kind: str, opts: dict, out: Path, code: int, label: str) -> bool:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = workloads.check_output(kind, opts, out)
        if not problems:
            hashes = workloads.file_hashes(out)
            ref = self.reference.setdefault(index, hashes)
            problems = [f"{name} differs from the first run" for name in sorted(hashes)
                        if hashes[name] != ref.get(name)]
            problems += [f"{name} missing versus the first run" for name in ref if name not in hashes]
        if problems:
            self.failed += 1
            self.problems.append(f"{label} #{index} {kind}: {'; '.join(problems)}")
        return not problems


def run_rep(invocations, seed: int, rep_dir: Path, env: dict, ledger: Ledger, label: str,
            pin: int | None = None) -> dict:
    """Run the invocations once as fresh interpreters, then check their outputs.

    With ``pin``, each single-process invocation runs on that CPU alone;
    those with a worker pool may use every CPU.
    """
    rep_dir.mkdir(parents=True)
    results = []
    walls = []
    cpu = rss = 0.0
    for i, (kind, opts) in enumerate(invocations):
        out = rep_dir / f"{i}-{kind}"
        args = [sys.executable, "-m", "latticegrow.cli"] + workloads.argv(kind, opts, seed, out)
        code, w, c, r = _spawn(args, env, rep_dir / f"{i}-{kind}.stderr",
                               None if opts.get("workers", 1) > 1 else pin)
        walls.append(w)
        cpu += c
        rss = max(rss, r)
        results.append((i, kind, opts, out, code))
    ok = all([ledger.record(i, kind, opts, out, code, label)
              for i, kind, opts, out, code in results])
    return {"wall_s": sum(walls), "walls": walls, "cpu_s": cpu, "peak_rss_mb": rss, "ok": ok}


def _call_main(main, args: list) -> int:
    """Exit code the CLI would give in a fresh interpreter, traceback included."""
    try:
        return main(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def traced_rep(invocations, seed: int, rep_dir: Path, src: Path, ledger: Ledger):
    """Replay the invocations in this process with workers=1, under the tracer."""
    import tracer as tracing

    sys.path.insert(0, str(src))
    from latticegrow import cli

    tracer = tracing.Tracer()
    codes = []
    t0 = time.perf_counter()
    with tracer.installed():
        for i, (kind, opts) in enumerate(invocations):
            tracer.request = i
            args = workloads.argv(kind, opts, seed, rep_dir / f"{i}-{kind}", workers=1)
            with tracer.span("experiments", "cli"), contextlib.redirect_stdout(io.StringIO()):
                codes.append(_call_main(cli.main, args))
    wall = time.perf_counter() - t0
    for i, ((kind, opts), code) in enumerate(zip(invocations, codes)):
        ledger.record(i, kind, opts, rep_dir / f"{i}-{kind}", code, "traced")
    csv_bytes = sum(p.stat().st_size for p in rep_dir.glob("*/*.csv"))
    return tracer, wall, csv_bytes


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def environment_stanza(root: Path, workload: str, invocations) -> list:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    counts = workloads.work_counts(invocations)
    return [
        f"nproc: {len(os.sched_getaffinity(0))}",
        f"python: {platform.python_version()}  numpy: {version('numpy')}  scipy: {version('scipy')}",
        f"commit: {git_commit(root)}",
        f"workload {workload}: " + ", ".join(f"{k} {v}" for k, v in counts.items()),
        "machine settings: none changed (no frequency or cache control); the benchmark "
        "pins its own single-process CLI children to one CPU per repetition",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at the small size the benchmark's tests use")
    args = parser.parse_args(argv)
    # a terminated run still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "latticegrow" / "cli.py").is_file():
        print(f"error: no latticegrow sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    table = workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS
    invocations = table[args.workload]
    seed = args.seed % 2**63  # the CLI takes nonnegative master seeds
    env = child_env(src)

    work = HERE / ".work" / f"{args.workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ledger = Ledger()
    lines = environment_stanza(root, args.workload, invocations)
    try:
        if args.trace:
            metrics = trace_mode(invocations, seed, work, src, env, ledger, lines,
                                 HERE / ".work" / f"spans-{args.workload}.json")
        else:
            metrics = timed_mode(invocations, seed, work, env, ledger, lines, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines.append(f"fail_frac: {ledger.failed}/{ledger.attempted} = "
                 f"{ledger.failed / ledger.attempted:.4f}")
    lines += [f"FAILED {p}" for p in ledger.problems]
    for name, value in metrics.items():
        lines.append(f"{name:40s} {value:>16.6g} {units[name]}")
    for line in lines:
        print(f"# {line}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def timed_mode(invocations, seed, work, env, ledger, lines, seconds) -> dict:
    check_setup(env, work)
    setup_walls, refs = [], []
    time_setup(env, work, SETUP_TRIES_FIRST, setup_walls, refs)
    # the CPUs of a shared machine can differ in speed for minutes at a time, so
    # the repetitions come in rounds, one on each CPU, and each CPU weighs the same
    cpus = sorted(os.sched_getaffinity(0))[:PIN_CPUS]
    reps = {cpu: [] for cpu in cpus}
    done = 0
    t0 = time.perf_counter()
    # at least two repetitions, so that one slow stretch of a shared machine
    # is not the whole sample; after that, no round that would overrun the run
    while done < MIN_REPS or (time.perf_counter() - t0) * (done + len(cpus)) / done < seconds:
        for cpu in cpus:
            rep_dir = work / f"rep{done}"
            rep = run_rep(invocations, seed, rep_dir, env, ledger, f"rep {done}", pin=cpu)
            shutil.rmtree(rep_dir)
            time_setup(env, work, SETUP_TRIES_PER_REP, setup_walls, refs)
            each = ", ".join(f"{kind} {w:.2f}" for (kind, _), w in zip(invocations, rep["walls"]))
            lines.append(f"rep {done} (cpu {cpu}): wall {rep['wall_s']:.3f} s ({each}), "
                         f"cpu {rep['cpu_s']:.3f} s, peak rss {rep['peak_rss_mb']:.1f} MB, "
                         f"outputs {'ok' if rep['ok'] else 'FAILED'}")
            reps[cpu].append(rep)
            done += 1
    setup = statistics.median(setup_walls)
    scale = reference.UNIT_S / statistics.fmean(refs)
    lines.append(f"{done} repetitions in {time.perf_counter() - t0:.1f} s; wall_s, cpu_s and "
                 f"peak_rss_mb are the mean over CPUs {cpus} of the median over each CPU's repetitions")
    lines.append(f"setup is the median of {len(setup_walls)} fresh imports; reference loop "
                 f"{statistics.fmean(refs) * 1e3:.2f} ms per unit over {len(refs)} samples "
                 f"(min {min(refs) * 1e3:.2f}, max {max(refs) * 1e3:.2f}), so times are raw x {scale:.4f}")

    def per_cpu_median(key):
        return statistics.fmean(statistics.median(r[key] for r in reps[cpu]) for cpu in cpus)

    wall, cpu = per_cpu_median("wall_s"), per_cpu_median("cpu_s")
    lines.append(f"raw: wall {wall:.4f} s, cpu {cpu:.4f} s, setup {setup:.4f} s")
    return {
        "wall_s": wall * scale,
        "cpu_s": cpu * scale,
        "setup_s": setup * scale,
        "peak_rss_mb": per_cpu_median("peak_rss_mb"),
    }


def trace_mode(invocations, seed, work, src, env, ledger, lines, spans_path) -> dict:
    import tracer as tracing

    plain = run_rep(invocations, seed, work / "untraced", env, ledger, "untraced")
    tracer, wall, csv_bytes = traced_rep(invocations, seed, work / "traced", src, ledger)
    agg = tracing.layer_metrics(tracer)
    spans_path.write_text(json.dumps(tracer.to_json()))

    covered = sum(agg["layer_self_s"].values())
    lines.append(f"untraced (workers as given): wall {plain['wall_s']:.3f} s, "
                 f"cpu {plain['cpu_s']:.3f} s")
    lines.append(f"traced (workers=1, one process): wall {wall:.3f} s, "
                 f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    for layer, t in agg["layer_self_s"].items():
        lines.append(f"  self time {layer:12s} {t:10.4f} s  {t / wall:6.1%}")
    lines.append(f"  uncovered              {wall - covered:10.4f} s  {(wall - covered) / wall:6.1%}")
    lines.append("fpp.dijkstra_s includes the scalar-route edge hashing, "
                 "which cannot be split out from outside the solver")
    metrics = dict(agg["metrics"])
    metrics["experiments.csv_bytes"] = csv_bytes
    metrics["trace.wall_s"] = wall
    metrics["trace.uncovered_s"] = wall - covered
    metrics["trace.overhead_frac"] = wall / plain["cpu_s"] - 1.0
    return metrics


if __name__ == "__main__":
    sys.exit(main())
