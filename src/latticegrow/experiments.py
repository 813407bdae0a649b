"""Configuration-driven experiment runner.

Configs are flat key=value text files with CLI-flag overrides.  Every run
emits raw series CSVs, a machine-readable summary.json (estimates, fits,
residuals, warnings), and a reproducibility stanza echoing the config and
the package version.  Identical configs produce byte-identical CSVs; the
only timestamp lives in the JSON summary.

This module imports only the standard library.  Each kind's checks in
``validate`` and its runner import that kind's solver modules when they run,
so a process loads numpy and the solvers it needs and no others.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

from . import __version__

__all__ = ["ExperimentConfig", "ConfigError", "HardFailure", "run_experiment", "KINDS"]

# largest steps x steps table that tasep-coupling accepts (steps <= 2048); a
# run peaks at about 55 bytes of memory per cell (228 MB at steps = 2048),
# most of it the step-time and LPP tables; the CSV text is a few MB
_TASEP_CELLS_MAX = 1 << 22
# most walk moves idla --dim 1 accepts, about steps^3 / 12: steps <= 1062
_IDLA_D1_MOVES_MAX = 10 ** 8
# most worker processes a run starts; multiprocessing.Pool starts every one
MAX_WORKERS = 64


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


class HardFailure(RuntimeError):
    """Budget exceeded, truncation unresolved, or verification mismatch."""


@dataclass
class ExperimentConfig:
    kind: str = ""
    dist: str = "exp:1.0"
    dim: int = 2
    model: str = ""          # fpp | lpp, for kinds that need it
    direction: str = "1,1"
    n_grid: str = ""         # comma-separated
    t: float = 0.0
    trials: int = 0
    steps: int = 0           # eden steps / idla particles / tasep K=N
    seed: int = 1
    workers: int = 1
    out: str = "out"

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
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in dc_fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cfg = cls()
        known = {f.name for f in dc_fields(cls)}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{key}: unknown config key")
            try:
                # every field is an int, a float or a str, like its default
                setattr(cfg, key, type(getattr(cfg, key))(val))
            except ValueError:
                raise ConfigError(f"{key}: cannot parse {val!r}") from None
        return cfg

    def validate(self) -> None:
        """Raise a ConfigError naming the field for every input the run would reject."""
        kind = self.kind
        if kind not in KINDS:
            raise ConfigError(f"kind: must be one of {', '.join(KINDS)}; got {kind!r}")
        reads = ("kind", "seed", "out", *_READS[kind])
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.name not in reads and value != f.default:
                raise ConfigError(f"{f.name}: not used by kind {kind}; leave it at its "
                                  f"default {f.default!r}, got {value!r}")
        if kind == "radial-g" and self.model not in ("fpp", "lpp"):
            raise ConfigError(f"model: radial-g needs 'fpp' or 'lpp', got {self.model!r}")
        from .weights import exponential, parse_dist_token

        try:
            spec = parse_dist_token(self.dist)
            if kind in ("fpp-shape", "oracle-check") or (kind, self.model) == ("radial-g", "fpp"):
                from .fpp import _check_fpp_law

                _check_fpp_law(spec)
        except ValueError as e:
            raise ConfigError(f"dist: {e}") from None
        if kind == "flat-edge" and spec.kind != "twopoint":
            raise ConfigError(f"dist: flat-edge needs a twopoint distribution, got {self.dist}")
        if kind == "tasep-coupling" and spec != exponential(1.0):
            raise ConfigError("dist: tasep-coupling requires exp:1.0 vertex weights")
        if kind == "lpp-shape" and spec.mean() <= 0:
            raise ConfigError(f"dist: lpp-shape needs a positive mean weight, got {self.dist}")
        if kind == "exponents" and spec.variance() == 0:
            raise ConfigError(f"dist: exponents needs random weights, got {self.dist}")
        if kind in ("radial-g", "exponents"):
            direction = self.direction_tuple()
            if self.dim != len(direction):
                raise ConfigError(f"dim: {kind} works in the dimension of direction "
                                  f"({len(direction)}), got {self.dim}")
            from .estimators import MIN_RADIAL_TRIALS, MIN_VARIANCE_TRIALS

            least_trials = MIN_RADIAL_TRIALS if kind == "radial-g" else MIN_VARIANCE_TRIALS
        else:
            least_trials = 1
        least = {
            "dim": 1,
            "workers": 1,
            "seed": 0,
            "trials": least_trials,
            # a 1 x 1 TASEP table cannot determine the current at any time
            "steps": 2 if kind == "tasep-coupling" else 1,
        }
        for name, low in least.items():
            if name in reads and getattr(self, name) < low:
                raise ConfigError(f"{name}: must be >= {low} for kind {kind}, "
                                  f"got {getattr(self, name)}")
        if "workers" in reads and self.workers > MAX_WORKERS:
            raise ConfigError(f"workers: must be <= {MAX_WORKERS}, got {self.workers}")
        if kind in ("eden", "idla"):
            from .growth import _GRID_CELLS_MAX, _first_radius

            # the first occupancy grid has radius 2 or more: 5^dim cells or more
            name, unit = ("IDLA", "particles") if kind == "idla" else ("Eden", "steps")
            if self.dim > math.log(_GRID_CELLS_MAX, 5):
                raise ConfigError(f"dim: {name} needs a grid of at least 5^{self.dim} cells, "
                                  f"more than {_GRID_CELLS_MAX}")
            cells = (2 * _first_radius(self.dim, self.steps) + 1) ** self.dim
            if cells > _GRID_CELLS_MAX:
                raise ConfigError(f"steps: {name} with {self.steps} {unit} in dimension "
                                  f"{self.dim} needs a grid of {cells} cells, "
                                  f"more than {_GRID_CELLS_MAX}")
        if kind == "idla" and self.dim == 1 and self.steps ** 3 // 12 > _IDLA_D1_MOVES_MAX:
            raise ConfigError(f"steps: IDLA in dimension 1 with {self.steps} particles takes "
                              f"about {self.steps ** 3 // 12} walk moves, "
                              f"more than {_IDLA_D1_MOVES_MAX}")
        if kind == "tasep-coupling" and self.steps ** 2 > _TASEP_CELLS_MAX:
            raise ConfigError(f"steps: tasep-coupling with {self.steps} steps needs a table "
                              f"of {self.steps ** 2} cells, more than {_TASEP_CELLS_MAX}")
        if "t" in reads and not 0 < self.t < math.inf:
            raise ConfigError(f"t: must be positive and finite for kind {kind}, got {self.t}")
        if kind in ("fpp-shape", "lpp-shape"):
            from .estimators import SHAPE_CELLS_MAX, _ball_cells

            try:
                cells = _ball_cells(kind[:3], spec, self.t)
            except OverflowError:  # t / mean overflows a float
                cells = math.inf
            if cells > SHAPE_CELLS_MAX:
                raise ConfigError(f"t: {kind} at t = {self.t} needs more than "
                                  f"{SHAPE_CELLS_MAX} vertices in its first box")
        if "n_grid" not in reads:
            return
        from .estimators import (
            MAX_FLAT_EDGE_N,
            MIN_FIT_POINTS,
            MIN_FIT_SPAN,
            MIN_FLAT_EDGE_N,
            TRIAL_CELLS_MAX,
            _grid_targets,
            _trial_cells,
        )

        grid = self.n_grid_list()
        if not grid:
            raise ConfigError(f"n_grid: required for kind {kind}")
        if kind == "flat-edge":
            if not MIN_FLAT_EDGE_N <= min(grid) <= max(grid) <= MAX_FLAT_EDGE_N:
                raise ConfigError(f"n_grid: flat-edge needs n in [{MIN_FLAT_EDGE_N}, "
                                  f"{MAX_FLAT_EDGE_N}], got {grid}")
            return
        if kind == "exponents" and (len(grid) < MIN_FIT_POINTS
                                    or max(grid) < MIN_FIT_SPAN * min(grid)):
            raise ConfigError(f"n_grid: exponent fits need {MIN_FIT_POINTS}+ points spanning "
                              f"a factor of {MIN_FIT_SPAN}, got {grid}")
        model = "lpp" if kind == "exponents" else self.model
        try:
            _, _, targets = _grid_targets(model, direction, grid)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        cells = _trial_cells(model, targets[-1])
        if cells > TRIAL_CELLS_MAX:
            raise ConfigError(f"n_grid: {kind} at n = {max(grid)} needs {cells} vertices in "
                              f"one trial's box or table, more than {TRIAL_CELLS_MAX}")
        # an oriented path to a point on an axis is straight, so it never wanders
        if kind == "exponents" and any(sum(c > 0 for c in tgt) < 2 for tgt in targets):
            raise ConfigError(f"direction: exponents needs targets off the axes, got {targets}")


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment, write its artifacts, return the summary dict."""
    from .weights import parse_dist_token

    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = parse_dist_token(config.dist)
    summary: dict = {
        "kind": config.kind,
        "estimates": {},
        "fits": {},
        "warnings": [],
        "files": [],
    }

    runner = _RUNNERS[config.kind]
    runner(config, spec, out, summary)

    summary["reproducibility"] = {
        "config": {f.name: getattr(config, f.name) for f in dc_fields(config)},
        "package_version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _record(summary: dict, out: Path, name: str) -> Path:
    summary["files"].append(name)
    return out / name


def _run_radial_g(config, spec, out, summary):
    import numpy as np

    from .estimators import estimate_radial_g
    from .lpp import exact_g, exact_shape_for

    seq = estimate_radial_g(
        config.model, spec, config.direction_tuple(), config.n_grid_list(),
        config.trials, config.seed, workers=config.workers,
    )
    seq.to_csv(_record(summary, out, "radial_g.csv"))
    summary["estimates"]["radial_g_last"] = float(seq.values[-1])
    summary["estimates"]["radial_g_last_stderr"] = float(seq.stderrs[-1])
    if config.model == "lpp":
        try:
            shape = exact_shape_for(spec)
            tgt = seq.ns[-1] * np.asarray(config.direction_tuple())
            summary["estimates"]["exact_g_reference"] = float(
                exact_g(shape, tgt) / seq.ns[-1]
            )
        except ValueError:
            pass
    for n, count in seq.truncation_warnings.items():
        summary["warnings"].append(f"truncation flagged in {count} trials at n={n}")


def _run_shape(config, spec, out, summary):
    import numpy as np

    from .estimators import shape_boundary_estimate

    model = "fpp" if config.kind == "fpp-shape" else "lpp"
    if model == "fpp":
        angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    else:
        angles = np.linspace(0.0, math.pi / 2.0, 33)
    est = shape_boundary_estimate(
        model, spec, config.t, angles, config.trials, config.seed,
        workers=config.workers,
    )
    est.to_csv(_record(summary, out, f"{model}_shape.csv"))
    summary["estimates"]["convexity_violation_fraction"] = est.convexity_violation_fraction
    if est.truncated_trials:
        summary["warnings"].append(
            f"truncation flagged in {est.truncated_trials} trials"
        )


def _run_exponents(config, spec, out, summary):
    from .estimators import (
        chi_from_variance_fit,
        fit_exponent,
        kpz_residual,
        variance_series,
        wandering_series,
    )

    direction = config.direction_tuple()
    grid = config.n_grid_list()
    vs = variance_series("lpp", spec, direction, grid, config.trials,
                         config.seed, workers=config.workers)
    vs.to_csv(_record(summary, out, "variance_series.csv"))
    ws = wandering_series("lpp", spec, direction, grid, config.trials,
                          config.seed, workers=config.workers)
    ws.to_csv(_record(summary, out, "wandering_series.csv"))
    var_fit = fit_exponent(vs.ns, vs.values, vs.stderrs, statistic="variance")
    chi_fit = chi_from_variance_fit(var_fit)
    xi_fit = fit_exponent(ws.ns, ws.values, ws.stderrs, statistic="wandering")
    residual, res_se = kpz_residual(chi_fit, xi_fit)
    summary["fits"] = {
        "variance": var_fit.as_dict(),
        "chi": chi_fit.as_dict(),
        "xi": xi_fit.as_dict(),
        "kpz_residual": residual,
        "kpz_residual_stderr": res_se,
    }
    _record(summary, out, "fits.json").write_text(
        json.dumps(summary["fits"], indent=2, sort_keys=True) + "\n")


def _run_flat_edge(config, spec, out, summary):
    from .estimators import Series, flat_edge_probe

    reps = [
        flat_edge_probe(spec.params[0], n, config.trials, config.seed, workers=config.workers)
        for n in config.n_grid_list()
    ]
    Series("flat-edge", [r.n for r in reps], [r.mean_ratio for r in reps],
           [r.stderr for r in reps], config.trials).to_csv(
        _record(summary, out, "flat_edge.csv"))
    summary["estimates"]["mean_ratio_last"] = reps[-1].mean_ratio
    summary["estimates"]["stderr_last"] = reps[-1].stderr


def _run_eden(config, spec, out, summary):
    from .growth import eden_grow, roundness

    try:
        trace = eden_grow(config.seed, config.dim, config.steps)
    except ValueError as e:
        # validate() bounds the first grid; the grid grows with the cluster
        raise HardFailure(f"dim {config.dim}, steps {config.steps}: {e}") from e
    trace.to_csv(_record(summary, out, "eden_trace.csv"))
    rin, rout = roundness(trace, config.steps)
    summary["estimates"]["inradius"] = rin
    summary["estimates"]["outradius"] = rout


def _run_idla(config, spec, out, summary):
    from .growth import idla_grow, roundness, roundness_series_to_csv

    try:
        trace = idla_grow(config.seed, config.dim, config.steps)
    except (ValueError, RuntimeError) as e:
        # validate() bounds the first grid, not its growth; a walk cap raises RuntimeError
        raise HardFailure(f"dim {config.dim}, steps {config.steps}: {e}") from e
    trace.to_csv(_record(summary, out, "idla_trace.csv"))
    checkpoints = sorted({max(1, config.steps // 16), config.steps // 4, config.steps})
    rows = [(n, *roundness(trace, n)) for n in checkpoints if n >= 1]
    roundness_series_to_csv(rows, _record(summary, out, "idla_roundness.csv"))
    rin, rout = rows[-1][1], rows[-1][2]
    summary["estimates"]["inradius"] = rin
    summary["estimates"]["outradius"] = rout
    # null, not Infinity, keeps summary.json strict JSON
    summary["estimates"]["roundness_ratio"] = rout / rin if rin > 0 else None


def _run_tasep(config, spec, out, summary):
    import numpy as np

    from .lpp import lpp_dp
    from .tasep import coupling_equivalence, current_at, tasep_run
    from .weights import WeightField, derive_seed

    k = config.steps
    mismatches = 0
    probe_failures = 0
    for trial in range(config.trials):
        fld = WeightField(spec, derive_seed(config.seed, "tasep", trial), "vertex", 2)
        table = tasep_run(k, k, field=fld)
        lmap = lpp_dp(fld, (k - 1, k - 1))
        if not np.array_equal(table.s, lmap.table.T):
            mismatches += 1
        if k >= 3:
            rng = np.random.default_rng(derive_seed(config.seed, "tasep-probes", trial))
            tmax = float(table.s[k - 1, k - 1])
            for _ in range(100):
                n = int(rng.integers(1, k - 1))
                t = float(rng.uniform(0.0, tmax))
                if not coupling_equivalence(table, lmap, n, t):
                    probe_failures += 1
    table.to_csv(_record(summary, out, "tasep_table.csv"))
    summary["estimates"]["table_mismatches"] = mismatches
    summary["estimates"]["probe_failures"] = probe_failures
    summary["estimates"]["current_at_half_horizon"] = current_at(
        table, float(table.s[k - 1, k - 1]) / 2.0
    )
    if mismatches or probe_failures:
        raise HardFailure(
            f"coupling verification failed: {mismatches} table mismatches, "
            f"{probe_failures} probe failures"
        )


def _run_oracle_check(config, spec, out, summary):
    import numpy as np

    from ._output import write_csv
    from .fpp import LatticeBox, fpp_dijkstra
    from .lpp import lpp_dp
    from .oracle import BudgetExceeded, brute_force_fpp, brute_force_lpp
    from .weights import WeightField, derive_seed

    mismatches = []
    box = LatticeBox(2, 3)
    try:
        for trial in range(config.trials):
            child = derive_seed(config.seed, "oracle-fpp", trial)
            fld = WeightField(spec, child, "edge", 2)
            pmap = fpp_dijkstra(fld, (0, 0), box)
            for v in sorted(pmap.times):
                exact = brute_force_fpp(fld, box, (0, 0), v)
                if exact != pmap.times[v]:
                    mismatches.append((trial, "fpp", f'"{list(v)}"'))
            vchild = derive_seed(config.seed, "oracle-lpp", trial)
            vfld = WeightField(spec, vchild, "vertex", 2)
            lmap = lpp_dp(vfld, (4, 4))
            for idx in np.ndindex(lmap.table.shape):
                if brute_force_lpp(vfld, idx) != lmap.table[idx]:
                    mismatches.append((trial, "lpp", f'"{list(idx)}"'))
    except BudgetExceeded as e:
        raise HardFailure(str(e)) from e
    summary["estimates"]["seeds_checked"] = config.trials
    summary["estimates"]["mismatches"] = len(mismatches)
    write_csv(_record(summary, out, "oracle_check.csv"), ("trial", "kind", "target"),
              list(zip(*mismatches)) or ((), (), ()))
    if mismatches:
        raise HardFailure(f"oracle disagreement on {len(mismatches)} targets")


_RUNNERS = {
    "fpp-shape": _run_shape,
    "lpp-shape": _run_shape,
    "radial-g": _run_radial_g,
    "exponents": _run_exponents,
    "flat-edge": _run_flat_edge,
    "eden": _run_eden,
    "idla": _run_idla,
    "tasep-coupling": _run_tasep,
    "oracle-check": _run_oracle_check,
}
KINDS = tuple(_RUNNERS)

# the config fields each kind reads besides kind, seed and out; validate()
# rejects any other field set away from its default
_READS = {
    "fpp-shape": ("dist", "t", "trials", "workers"),
    "lpp-shape": ("dist", "t", "trials", "workers"),
    "radial-g": ("dist", "dim", "model", "direction", "n_grid", "trials", "workers"),
    "exponents": ("dist", "dim", "direction", "n_grid", "trials", "workers"),
    "flat-edge": ("dist", "n_grid", "trials", "workers"),
    "eden": ("dim", "steps"),
    "idla": ("dim", "steps"),
    "tasep-coupling": ("dist", "steps", "trials"),
    "oracle-check": ("dist", "trials"),
}
