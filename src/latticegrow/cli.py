"""Command-line entry point.

One subcommand per experiment kind, plus `lpp-exact` for evaluating the
closed-form shape functions.  Exit codes: 0 success, 2 configuration error,
3 hard failure (budget exceeded, verification mismatch, samples a fit cannot
use, or memory exhausted), which ``run_experiment`` raises as HardFailure.

The experiment kinds share one set of options, built once from the config
field table (``experiments._FIELDS``) into a parent parser that every kind's
subparser takes.  This module and ``experiments`` import only the standard
library, and neither dataclasses nor json, so parsing, ``--help`` and usage
errors load argparse and little else, no numpy; a run imports the solver
modules of its own kind (see ``experiments``), and ``lpp-exact`` imports
``lpp``.

``main`` caps numpy's BLAS pool at one thread before numpy loads, unless the
caller set a thread count: the solvers' BLAS calls are short dot products
and matrix-vector products, and OpenBLAS otherwise starts a busy-waiting
thread for each CPU past the first at import.  ``--workers`` is the only
parallelism.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .experiments import _FIELDS, KINDS, ConfigError, ExperimentConfig, HardFailure, run_experiment


# the thread counts numpy's BLAS builds read when the library loads
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _experiment_options() -> argparse.ArgumentParser:
    """The options every experiment kind takes: --config, then one a config field."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file; flags override it")
    for f in _FIELDS:
        if f.name != "kind":  # the subcommand
            typed = {} if isinstance(f.default, str) else {"type": type(f.default)}
            common.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, help=f.help,
                                choices=f.choices, **typed)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticegrow",
        description="Simulation and estimation for lattice random growth models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_experiment_options()]
    for kind in KINDS:
        sub.add_parser(kind, help=f"run a {kind} experiment", parents=common)

    pe = sub.add_parser("lpp-exact", help="evaluate a closed-form limit shape")
    pe.add_argument("--model", choices=("exp", "geom"), required=True)
    pe.add_argument("--p", type=float, help="success probability for geom")
    pe.add_argument("--x", required=True, help="evaluation point, e.g. 1,1")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    text = Path(args.config).read_text() if args.config else ""
    cfg = ExperimentConfig.from_text(text)
    cfg.kind = args.command
    for f in _FIELDS:
        val = getattr(args, f.name, None)
        if f.name != "kind" and val is not None:
            setattr(cfg, f.name, val)
    return cfg


def _lpp_exact(args) -> float:
    """g(x) of the closed-form shape; a ConfigError names the bad option."""
    import numpy as np

    from .lpp import ExactShape, exact_g

    try:
        point = tuple(float(v) for v in args.x.split(","))
    except ValueError as e:
        raise ConfigError(f"x: {e}") from None
    if not all(map(math.isfinite, point)):
        raise ConfigError(f"x: coordinates must be finite, got {args.x}")
    if args.model == "exp":
        if args.p is not None:
            raise ConfigError(f"p: the exp shape takes no --p, got {args.p}")
        shape = ExactShape("exponential")
    else:
        if args.p is None:
            raise ConfigError("p: the geom shape needs --p")
        try:
            shape = ExactShape("geometric", p=args.p)
        except ValueError as e:
            raise ConfigError(f"p: {e}") from None
    try:
        with np.errstate(over="ignore"):  # an overflow is reported below
            value = exact_g(shape, point)
    except ValueError as e:
        raise ConfigError(f"x: {e}") from None
    if not math.isfinite(value):
        raise ConfigError(f"x: g({args.x}) overflows a float")
    return value


def main(argv=None) -> int:
    # before numpy loads: one BLAS thread here and in the workers, unless the caller chose
    if not any(name in os.environ for name in _BLAS_THREADS):
        os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "lpp-exact":
        try:
            value = _lpp_exact(args)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        print(format(value, ".17g"))
        return 0

    try:
        cfg = _config_from_args(args)
        summary = run_experiment(cfg)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except HardFailure as e:
        print(f"hard failure: {e}", file=sys.stderr)
        return 3
    for name in summary["files"]:
        print(f"wrote {cfg.out}/{name}")
    print(f"wrote {cfg.out}/summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
