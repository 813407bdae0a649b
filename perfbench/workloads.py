"""Workloads of the latticegrow benchmark and the checks on their outputs.

A workload is a fixed list of CLI invocations.  The benchmark adds
``--seed`` and ``--out`` to each one; the traced replay also sets
``--workers 1``.  Every check here holds under any seed, so a failed check
means the program (or its output) is wrong, not that the seed was unlucky.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# name -> list of (CLI kind, options); options are passed as --key value
WORKLOADS = {
    # criterion 9's shape (LPP DP sweep and vector hashing dominate), then the
    # window solve with vector edge weights, the TASEP recursion and its
    # 1.7 MB table, and the brute-force oracle; growth does no work, and FPP
    # only solves the oracle's 5 x 5 boxes
    "lpp-exact": [
        ("exponents", {"dist": "exp:1.0", "direction": "1,1",
                       "n-grid": "32,64,128,256", "trials": 200, "workers": 2}),
        ("flat-edge", {"dist": "twopoint:0.55", "n-grid": 300, "trials": 20}),
        ("tasep-coupling", {"dist": "exp:1.0", "steps": 256, "trials": 5}),
        ("oracle-check", {"dist": "unif:0.5:1.5", "trials": 20}),
    ],
    # heap Dijkstra plus scalar-route hashing, then IDLA walks (criterion 8's
    # size) and Eden boundary sampling; LPP and vector weights do no work
    "fpp-growth": [
        ("radial-g", {"model": "fpp", "dist": "unif:0.5:1.5", "direction": "1,1",
                      "n-grid": "16,32,64", "trials": 12, "workers": 2}),
        ("idla", {"steps": 20000}),
        ("eden", {"steps": 20000}),
    ],
}

# the same shapes at a size the benchmark's own tests can afford
SMOKE_WORKLOADS = {
    "lpp-exact": [
        ("exponents", {"dist": "exp:1.0", "direction": "1,1",
                       "n-grid": "8,16,32,64", "trials": 200, "workers": 2}),
        ("flat-edge", {"dist": "twopoint:0.55", "n-grid": 50, "trials": 4}),
        ("tasep-coupling", {"dist": "exp:1.0", "steps": 32, "trials": 2}),
        ("oracle-check", {"dist": "unif:0.5:1.5", "trials": 3}),
    ],
    "fpp-growth": [
        ("radial-g", {"model": "fpp", "dist": "unif:0.5:1.5", "direction": "1,1",
                      "n-grid": "4,8", "trials": 4, "workers": 2}),
        ("idla", {"steps": 5000}),
        ("eden", {"steps": 2000}),
    ],
}

# files each kind must write besides summary.json
EXPECTED_FILES = {
    "exponents": ("variance_series.csv", "wandering_series.csv", "fits.json"),
    "radial-g": ("radial_g.csv",),
    "idla": ("idla_trace.csv", "idla_roundness.csv"),
    "eden": ("eden_trace.csv",),
    "flat-edge": ("flat_edge.csv",),
    "tasep-coupling": ("tasep_table.csv",),
    "oracle-check": ("oracle_check.csv",),
}

IDLA_ROUNDNESS_BOUND = 1.15  # acceptance criterion 8


def argv(kind: str, opts: dict, seed: int, out: Path, workers: int | None = None) -> list:
    """CLI arguments of one invocation; ``workers`` overrides the workload's."""
    args = [kind]
    for key, val in opts.items():
        if key == "workers" and workers is not None:
            val = workers
        args += [f"--{key}", str(val)]
    return args + ["--seed", str(seed), "--out", str(out)]


def grid(opts: dict) -> list:
    return [int(n) for n in str(opts["n-grid"]).split(",")]


def work_counts(invocations) -> dict:
    """Trials, LPP DP cells and growth particles the invocations ask for."""
    trials = cells = particles = 0
    for kind, opts in invocations:
        if kind == "exponents":
            ns = grid(opts)
            # variance and wandering series each draw their own trials
            trials += 2 * opts["trials"] * len(ns)
            cells += 2 * opts["trials"] * sum((n + 1) ** 2 for n in ns)
        elif kind in ("radial-g", "flat-edge"):
            trials += opts["trials"] * len(grid(opts))
        elif kind == "tasep-coupling":
            trials += opts["trials"]
            cells += opts["trials"] * opts["steps"] ** 2
        elif kind == "oracle-check":
            trials += opts["trials"]
            cells += opts["trials"] * 25  # one 5 x 5 LPP table per trial
        else:
            particles += opts["steps"]
    return {"trials": trials, "dp_cells": cells, "particles": particles}


def file_hashes(out: Path) -> dict:
    """SHA-256 of every output file except summary.json, which holds a timestamp."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "summary.json"
    }


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_exponents(out, opts, summary):
    problems = []
    ns = grid(opts)
    for name in ("variance_series.csv", "wandering_series.csv"):
        got = [int(r["n"]) for r in _rows(out / name)]
        if got != ns:
            problems.append(f"{name}: rows for n = {got}, expected {ns}")
    fits = json.loads((out / "fits.json").read_text())
    for stat in ("variance", "chi", "xi"):
        slope = fits.get(stat, {}).get("slope")
        if not isinstance(slope, float) or not math.isfinite(slope):
            problems.append(f"fits.json: {stat} slope {slope!r} is not finite")
    return problems


def _check_radial_g(out, opts, summary):
    problems = []
    rows = _rows(out / "radial_g.csv")
    if [int(r["n"]) for r in rows] != grid(opts):
        problems.append(f"radial_g.csv: {len(rows)} rows, expected one per n")
    for r in rows:
        if not 1.0 <= float(r["value"]) <= 2.0:
            problems.append(f"radial_g.csv: mean {r['value']} at n={r['n']} outside [1, 2]")
    if summary["warnings"]:
        problems.append(f"warnings: {summary['warnings']}")
    return problems


def _check_trace(out, name, steps):
    rows = _rows(out / name)
    if [int(r["step"]) for r in rows] != list(range(1, steps + 1)):
        return [f"{name}: {len(rows)} rows, expected steps 1..{steps}"]
    sites = {tuple(v for k, v in r.items() if k != "step") for r in rows}
    if len(sites) != steps:
        return [f"{name}: {steps - len(sites)} repeated sites"]
    return []


def _check_idla(out, opts, summary):
    problems = _check_trace(out, "idla_trace.csv", opts["steps"])
    last = _rows(out / "idla_roundness.csv")[-1]
    if int(last["n"]) != opts["steps"]:
        problems.append(f"idla_roundness.csv: last row n={last['n']}, expected {opts['steps']}")
    ratio = float(last["outradius"]) / float(last["inradius"])
    if not ratio <= IDLA_ROUNDNESS_BOUND:
        problems.append(f"roundness ratio {ratio:.4f} above {IDLA_ROUNDNESS_BOUND}")
    return problems


def _check_eden(out, opts, summary):
    return _check_trace(out, "eden_trace.csv", opts["steps"])


def _check_flat_edge(out, opts, summary):
    rows = _rows(out / "flat_edge.csv")
    if [int(r["n"]) for r in rows] != grid(opts):
        return [f"flat_edge.csv: {len(rows)} rows, expected one per n"]
    return [f"flat_edge.csv: mean ratio {r['value']} at n={r['n']} is not above 1"
            for r in rows if not float(r["value"]) > 1.0]


def _check_tasep(out, opts, summary):
    problems = []
    est = summary["estimates"]
    for key in ("table_mismatches", "probe_failures"):
        if est.get(key) != 0:
            problems.append(f"{key} = {est.get(key)!r}")
    rows = _rows(out / "tasep_table.csv")
    if len(rows) != opts["steps"] ** 2:
        problems.append(f"tasep_table.csv: {len(rows)} rows, expected {opts['steps'] ** 2}")
    return problems


def _check_oracle(out, opts, summary):
    problems = []
    est = summary["estimates"]
    if est.get("mismatches") != 0:
        problems.append(f"mismatches = {est.get('mismatches')!r}")
    if est.get("seeds_checked") != opts["trials"]:
        problems.append(f"seeds_checked = {est.get('seeds_checked')!r}")
    if _rows(out / "oracle_check.csv"):
        problems.append("oracle_check.csv lists mismatches")
    return problems


_CHECKS = {
    "exponents": _check_exponents,
    "radial-g": _check_radial_g,
    "idla": _check_idla,
    "eden": _check_eden,
    "flat-edge": _check_flat_edge,
    "tasep-coupling": _check_tasep,
    "oracle-check": _check_oracle,
}


def check_output(kind: str, opts: dict, out: Path) -> list:
    """Problems with one invocation's outputs; an empty list means it passed."""
    missing = [n for n in EXPECTED_FILES[kind] + ("summary.json",) if not (out / n).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    try:
        summary = json.loads((out / "summary.json").read_text())
        return _CHECKS[kind](out, opts, summary)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]
