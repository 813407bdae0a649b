"""Configuration-driven experiment runner.

Configs are flat key=value text files with CLI-flag overrides, over the
fields of one table, _FIELDS, which the config, its text form, validate,
the summary and the CLI's options walk in order.  Every run emits raw
series CSVs, a machine-readable summary.json (estimates, fits, residuals,
warnings), and a reproducibility stanza echoing the config and the package
version.  Identical configs produce byte-identical CSVs; the only
timestamp lives in the JSON summary.

Each kind is one row of ``_TABLE``, and ``validate`` is one pass over it.  A
kind's footprint is the bytes its largest task holds, from its solver's own
byte count (fpp._trial_bytes, lpp._sweep_bytes, lpp._min_plus_bytes,
tasep._trial_bytes, growth._grid_bytes, _roundness_bytes and _trace_bytes), against
one MEMORY_BUDGET; the same counts size the batches (_batch_trials), cap the
worker pool and check what a run grows to.  d = 1 IDLA's walk moves have a
bound of their own (README, "Command line").

This module imports only the standard library, and json only when a run
writes JSON (_write_json), so a parse loads little beyond argparse.  Law
checks, footprints and runners import their kind's modules when they run,
so a process loads numpy and the solvers it needs and no others: eden and
idla read no dist, so they never load weights.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__

__all__ = ["ExperimentConfig", "ConfigError", "HardFailure", "run_experiment", "KINDS"]

# bytes a run may allocate at once, 256 MiB; growth grids and grown FPP boxes are checked against it
MEMORY_BUDGET = 1 << 28
# bytes one batch of trials holds, 16 MiB: batches of 8 MiB ran lpp-exact 4-8 % slower
_BATCH_BYTES = 16 << 20
# least trials and n, which the estimators check too: a mean's standard error
# needs MIN_RADIAL_TRIALS samples, and log-log fits need MIN_FIT_POINTS grid
# points spanning a factor of MIN_FIT_SPAN
MIN_RADIAL_TRIALS = 2
MIN_VARIANCE_TRIALS = 200
MIN_FLAT_EDGE_N = 50
MIN_FIT_POINTS = 4
MIN_FIT_SPAN = 8
# most walk moves idla --dim 1 accepts, about steps^3 / 12: steps <= 1062
_IDLA_D1_MOVES_MAX = 10 ** 8
# most worker processes a run asks for; the pool starts at most one a task
MAX_WORKERS = 64


def _batch_trials(trial_bytes: int) -> int:
    """Trials one batch holds at trial_bytes each: _BATCH_BYTES of them, at least one."""
    return max(1, _BATCH_BYTES // trial_bytes)


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


class HardFailure(RuntimeError):
    """A run refused after validate() accepted its config; run_experiment raises it."""


class _Field(NamedTuple):
    name: str
    default: int | float | str  # its type is the field's
    help: str                   # its CLI option's
    choices: tuple | None = None


_MODELS = ("fpp", "lpp")
# every config field, in order; kind is the CLI's subcommand, every other field an option
_FIELDS = (
    _Field("kind", "", "experiment kind"),
    _Field("dist", "exp:1.0", "distribution token, e.g. exp:1.0 or unif:0.5:1.5"),
    _Field("dim", 2, "lattice dimension"),
    _Field("model", "", "model for radial-g", _MODELS),
    _Field("direction", "1,1", "direction vector, e.g. 1,1"),
    _Field("n_grid", "", "comma-separated n values"),
    _Field("t", 0.0, "ball time for shape estimates"),
    _Field("trials", 0, "Monte Carlo trials"),
    _Field("steps", 0, "growth steps / particles / table size"),
    _Field("seed", 1, "master seed"),
    _Field("workers", 1, "parallel workers"),
    _Field("out", "out", "output directory"),
)
_DEFAULTS = {f.name: f.default for f in _FIELDS}


class ExperimentConfig(SimpleNamespace):
    """The fields of _FIELDS, by keyword, each at its default unless given."""

    def __init__(self, **fields):
        unknown = sorted(fields.keys() - _DEFAULTS.keys())
        if unknown:
            raise TypeError(f"ExperimentConfig() got an unexpected keyword argument {unknown[0]!r}")
        super().__init__(**{**_DEFAULTS, **fields})

    def n_grid_list(self) -> list:
        try:
            return [int(x) for x in self.n_grid.split(",") if x.strip()]
        except ValueError as e:
            raise ConfigError(f"n_grid: {e}") from None

    def direction_tuple(self) -> tuple:
        try:
            return tuple(float(x) for x in self.direction.split(","))
        except ValueError as e:
            raise ConfigError(f"direction: {e}") from None

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in _FIELDS)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"{key}: unknown config key")
            try:
                # every field is an int, a float or a str, like its default
                setattr(cfg, key, type(_DEFAULTS[key])(val))
            except ValueError:
                raise ConfigError(f"{key}: cannot parse {val!r}") from None
        return cfg

    def validate(self):
        """Return the config's weight law, or None for a kind that reads no dist (eden,
        idla); raise a ConfigError naming the field of any input the run would reject."""
        row = _TABLE.get(self.kind)
        if row is None:
            raise ConfigError(f"kind: must be one of {', '.join(KINDS)}; got {self.kind!r}")
        reads = {"kind": None, "seed": 0, "out": None, **row.reads}
        for f in _FIELDS:
            value = getattr(self, f.name)
            if f.name not in reads and value != f.default:
                raise ConfigError(f"{f.name}: not used by kind {self.kind}; leave it at its "
                                  f"default {f.default!r}, got {value!r}")
        if "model" in reads and self.model not in _MODELS:
            raise ConfigError(f"model: {self.kind} needs 'fpp' or 'lpp', got {self.model!r}")
        spec = None
        if "dist" in reads:
            from .weights import parse_dist_token

            try:
                spec = parse_dist_token(self.dist)
                if row.law:
                    row.law(spec, self)
            except ValueError as e:
                raise ConfigError(f"dist: {e}") from None
        if "direction" in reads and self.dim != len(self.direction_tuple()):
            raise ConfigError(f"dim: {self.kind} works in the dimension of direction "
                              f"({len(self.direction_tuple())}), got {self.dim}")
        grid = self.n_grid_list()  # empty unless read
        if "n_grid" in reads and not grid:
            raise ConfigError(f"n_grid: required for kind {self.kind}")
        if len(set(grid)) < len(grid):
            raise ConfigError(f"n_grid: entries must be distinct, got {grid}")
        for name, least in reads.items():
            value = min(grid) if name == "n_grid" else getattr(self, name)
            if least is not None and value < least:
                raise ConfigError(f"{name}: must be >= {least} for kind {self.kind}, "
                                  f"got {value}")
        if "workers" in reads and self.workers > MAX_WORKERS:
            raise ConfigError(f"workers: must be <= {MAX_WORKERS}, got {self.workers}")
        if "t" in reads and not 0 < self.t < math.inf:
            raise ConfigError(f"t: must be positive and finite for kind {self.kind}, "
                              f"got {self.t}")
        for name, need, unit in row.footprint(self, spec):
            if need > MEMORY_BUDGET:
                raise ConfigError(f"{name}: {self.kind} needs {need} bytes {unit}, "
                                  f"more than {MEMORY_BUDGET}")
        return spec


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment, write its artifacts, return the summary dict."""
    spec = config.validate()
    row = _TABLE[config.kind]
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {"kind": config.kind, "estimates": {}, "fits": {}, "warnings": [],
                     "files": list(row.files)}
    try:
        row.run(config, spec, [out / name for name in row.files], summary)
    except HardFailure:
        raise
    # validate() accepted the config, so the run itself refused: a grid outgrew the
    # budget, a walk its cap, a fit its samples, the oracle its path budget
    except (ValueError, RuntimeError) as e:
        raise HardFailure(str(e)) from e
    except MemoryError as e:  # numpy's ArrayMemoryError included
        raise HardFailure(str(e) or "out of memory") from e
    summary["reproducibility"] = {
        "config": {f.name: getattr(config, f.name) for f in _FIELDS},
        "package_version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    _write_json(out / "summary.json", summary)
    return summary


def _write_json(path: Path, obj) -> None:
    """summary.json or fits.json: indented, keys sorted, one trailing newline."""
    import json

    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# law checks: each raises a ValueError saying what the kind needs
def _fpp_law(spec, config) -> None:
    from .fpp import _check_fpp_law

    if config.model != "lpp":  # radial-g reads a model; the other FPP kinds do not
        _check_fpp_law(spec)


def _needs(test, what: str) -> Callable:
    def law(spec, config) -> None:
        if not test(spec):
            raise ValueError(f"{config.kind} needs {what}, got {config.dist}")

    return law


# footprints: each yields (field, bytes, what holds them) for every bound
def _shape_footprint(config, spec):
    from .estimators import _ball_bytes

    yield "t", _ball_bytes(config.kind[:3], spec, config.t), "for a trial on its largest box"


def _sample_footprint(config, spec, model=""):
    """One task at the largest n, sized as the run sizes it; returns the targets."""
    from .estimators import _grid_targets, _task_size

    model = model or config.model
    try:
        _, _, targets = _grid_targets(model, config.direction_tuple(), config.n_grid_list())
        # exponents (fluctuation_series) walks its geodesics back; radial-g has none
        need = _task_size(model, targets[-1], spec, config.kind == "exponents")[1]
    except ValueError as e:
        raise ConfigError(str(e)) from None
    except OverflowError as e:  # n times direction, or the box around it, past a float's range
        raise ConfigError(f"n_grid: too large to place its points ({e})") from None
    yield "n_grid", need, "for one task's batch of trials"
    return targets


def _exponents_footprint(config, spec):
    grid = config.n_grid_list()
    if len(grid) < MIN_FIT_POINTS or max(grid) < MIN_FIT_SPAN * min(grid):
        raise ConfigError(f"n_grid: exponent fits need {MIN_FIT_POINTS}+ points spanning "
                          f"a factor of {MIN_FIT_SPAN}, got {grid}")
    targets = yield from _sample_footprint(config, spec, "lpp")
    # an oriented path to a point on an axis is straight, so it never wanders
    if any(sum(c > 0 for c in tgt) < 2 for tgt in targets):
        raise ConfigError(f"direction: exponents needs targets off the axes, got {targets}")


def _flat_edge_footprint(config, spec):
    # the budget keeps n below estimators.MAX_FLAT_EDGE_N, where the times stay exact
    from .estimators import _flat_edge_task

    yield "n_grid", _flat_edge_task(max(config.n_grid_list()))[1], "for one task's window solves"


def _grid_footprint(config, spec):
    from .growth import _first_radius, _grid_bytes, _roundness_bytes, _trace_bytes

    # roundness scans a window of reach 2 or more, past any first grid's
    # bytes; in dimension 64 that is far past any budget
    d = config.dim
    yield "dim", _roundness_bytes(min(d, 64), 2), f"or more in dimension {d}"
    try:
        radius = _first_radius(d, config.steps)
    except OverflowError as e:  # steps past a float's range
        raise ConfigError(f"steps: too large to size its grid ({e})") from None
    yield "steps", _grid_bytes(d, radius) + _trace_bytes(config.kind, d, config.steps), \
        "in its first grid and its sites"


def _idla_footprint(config, spec):
    yield from _grid_footprint(config, spec)
    moves = config.steps ** 3 // 12
    if config.dim == 1 and moves > _IDLA_D1_MOVES_MAX:
        raise ConfigError(f"steps: idla needs {moves} walk moves in dimension 1, about "
                          f"steps^3 / 12, more than {_IDLA_D1_MOVES_MAX}")


def _tasep_footprint(config, spec):
    from .tasep import _trial_bytes

    yield "steps", _trial_bytes(config.steps), "for a trial's tables"


# runners: each writes the row's files, in order, to paths
def _run_radial_g(config, spec, paths, summary):
    import numpy as np

    from .estimators import estimate_radial_g
    from .lpp import exact_g, exact_shape_for

    seq = estimate_radial_g(config.model, spec, config.direction_tuple(), config.n_grid_list(),
                            config.trials, config.seed, workers=config.workers)
    seq.to_csv(paths[0])
    est = summary["estimates"]
    est.update(radial_g_last=float(seq.values[-1]), radial_g_last_stderr=float(seq.stderrs[-1]))
    if config.model == "lpp":
        try:
            shape = exact_shape_for(spec)
            tgt = seq.ns[-1] * np.asarray(config.direction_tuple())
            est["exact_g_reference"] = float(exact_g(shape, tgt) / seq.ns[-1])
        except ValueError:
            pass
    for n, count in seq.truncation_warnings.items():
        summary["warnings"].append(f"truncation flagged in {count} trials at n={n}")


def _run_shape(config, spec, paths, summary):
    import numpy as np

    from .estimators import shape_boundary_estimate

    model = config.kind[:3]
    angles = (np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False) if model == "fpp"
              else np.linspace(0.0, math.pi / 2.0, 33))
    est = shape_boundary_estimate(model, spec, config.t, angles, config.trials, config.seed,
                                  workers=config.workers)
    est.to_csv(paths[0])
    summary["estimates"]["convexity_violation_fraction"] = est.convexity_violation_fraction
    if est.truncated_trials:
        summary["warnings"].append(f"truncation flagged in {est.truncated_trials} trials")


def _run_exponents(config, spec, paths, summary):
    from .estimators import fluctuation_series

    fl = fluctuation_series("lpp", spec, config.direction_tuple(), config.n_grid_list(),
                            config.trials, config.seed, workers=config.workers)
    summary["fits"] = fl.fits()  # a fit that refuses its samples leaves no series behind
    fl.variance.to_csv(paths[0])
    fl.wandering.to_csv(paths[1])
    _write_json(paths[2], summary["fits"])


def _run_flat_edge(config, spec, paths, summary):
    from .estimators import Series, flat_edge_probe

    reps = [flat_edge_probe(spec.params[0], n, config.trials, config.seed,
                            workers=config.workers) for n in config.n_grid_list()]
    Series("flat-edge", [r.n for r in reps], [r.mean_ratio for r in reps],
           [r.stderr for r in reps], config.trials).to_csv(paths[0])
    summary["estimates"].update(mean_ratio_last=reps[-1].mean_ratio,
                                stderr_last=reps[-1].stderr)


def _run_eden(config, spec, paths, summary):
    from .growth import eden_grow, roundness

    trace = eden_grow(config.seed, config.dim, config.steps)
    trace.to_csv(paths[0])
    rin, rout = roundness(trace, config.steps)
    summary["estimates"].update(inradius=rin, outradius=rout)


def _run_idla(config, spec, paths, summary):
    from .growth import idla_grow, roundness, roundness_series_to_csv

    trace = idla_grow(config.seed, config.dim, config.steps)
    trace.to_csv(paths[0])
    checkpoints = sorted({max(1, config.steps // 16), config.steps // 4, config.steps})
    rows = [(n, *roundness(trace, n)) for n in checkpoints if n >= 1]
    roundness_series_to_csv(rows, paths[1])
    rin, rout = rows[-1][1:]
    # null, not Infinity, keeps summary.json strict JSON
    summary["estimates"].update(inradius=rin, outradius=rout,
                                roundness_ratio=rout / rin if rin > 0 else None)


def _run_tasep(config, spec, paths, summary):
    from .tasep import _coupling_check, current_at

    k = config.steps
    table, mismatches, probe_failures = _coupling_check(k, config.trials, config.seed)
    table.to_csv(paths[0])
    summary["estimates"].update(
        table_mismatches=mismatches, probe_failures=probe_failures,
        current_at_half_horizon=current_at(table, float(table.s[k - 1, k - 1]) / 2.0))
    if mismatches or probe_failures:
        raise HardFailure(f"coupling verification failed: {mismatches} table mismatches, "
                          f"{probe_failures} probe failures")


def _run_oracle_check(config, spec, paths, summary):
    from ._output import write_csv
    from .oracle import _solver_mismatches

    found = _solver_mismatches(spec, config.trials, config.seed)
    summary["estimates"].update(seeds_checked=config.trials, mismatches=len(found))
    rows = [(trial, model, f'"{list(v)}"') for trial, model, v in found]
    write_csv(paths[0], ("trial", "kind", "target"), list(zip(*rows)) or ((), (), ()))
    if found:
        raise HardFailure(f"oracle disagreement on {len(found)} targets")


class _Kind(NamedTuple):
    reads: dict           # field -> least value or None (n_grid: least n), besides kind, seed, out
    law: Callable | None  # (spec, config)
    footprint: Callable   # (config, spec) -> (field, bytes, what holds them) per bound
    run: Callable         # (config, spec, paths of files, summary)
    files: tuple


_SHAPE = {"dist": None, "t": None, "trials": 1, "workers": 1}
# validate() rejects a field a kind does not read unless it is at its default
_TABLE = {
    "fpp-shape": _Kind(_SHAPE, _fpp_law, _shape_footprint, _run_shape, ("fpp_shape.csv",)),
    "lpp-shape": _Kind(_SHAPE, _needs(lambda spec: spec.mean() > 0, "a positive mean weight"),
                       _shape_footprint, _run_shape, ("lpp_shape.csv",)),
    "radial-g": _Kind({"dist": None, "dim": 1, "model": None, "direction": None, "n_grid": 1,
                       "trials": MIN_RADIAL_TRIALS, "workers": 1},
                      _fpp_law, _sample_footprint, _run_radial_g, ("radial_g.csv",)),
    "exponents": _Kind({"dist": None, "dim": 1, "direction": None, "n_grid": 1,
                        "trials": MIN_VARIANCE_TRIALS, "workers": 1},
                       _needs(lambda spec: spec.variance() != 0, "random weights"),
                       _exponents_footprint, _run_exponents,
                       ("variance_series.csv", "wandering_series.csv", "fits.json")),
    "flat-edge": _Kind({"dist": None, "n_grid": MIN_FLAT_EDGE_N, "trials": 1, "workers": 1},
                       _needs(lambda spec: spec.kind == "twopoint", "a twopoint distribution"),
                       _flat_edge_footprint, _run_flat_edge, ("flat_edge.csv",)),
    "eden": _Kind({"dim": 1, "steps": 1}, None, _grid_footprint, _run_eden, ("eden_trace.csv",)),
    "idla": _Kind({"dim": 1, "steps": 1}, None, _idla_footprint, _run_idla,
                  ("idla_trace.csv", "idla_roundness.csv")),
    # a 1 x 1 table cannot determine the current at any time
    "tasep-coupling": _Kind({"dist": None, "steps": 2, "trials": 1},
                            _needs(lambda s: (s.kind, s.params) == ("exponential", (1.0,)),
                                   "exp:1.0 weights"),
                            _tasep_footprint, _run_tasep, ("tasep_table.csv",)),
    # a fixed 5 x 5 table and radius-3 box
    "oracle-check": _Kind({"dist": None, "trials": 1}, _fpp_law, lambda config, spec: (),
                          _run_oracle_check, ("oracle_check.csv",)),
}
KINDS = tuple(_TABLE)
