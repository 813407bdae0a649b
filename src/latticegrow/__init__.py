"""Lattice random growth models: exact solvers, couplings, and estimators.

Every public name below is importable from the package, but each one
resolves on first access: ``import latticegrow`` loads no submodule (and no
numpy), and ``latticegrow.idla_grow`` imports ``latticegrow.growth`` when it
is first read.  So a process pays only for the solvers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "weights": (
        "DistributionSpec",
        "WeightField",
        "constant",
        "derive_seed",
        "exponential",
        "geometric",
        "make_field",
        "parse_dist_token",
        "quantile",
        "two_point",
        "uniform",
    ),
    "fpp": (
        "Geodesic",
        "LatticeBox",
        "PassageTimeMap",
        "fpp_ball",
        "fpp_dijkstra",
        "fpp_geodesic",
        "greedy_forward_path",
        "lattice_point",
        "wandering_deviation",
    ),
    "lpp": (
        "ExactShape",
        "LppTimeMap",
        "OrientedPath",
        "exact_g",
        "exact_shape_for",
        "lpp_dp",
        "lpp_geodesic",
        "lpp_time_between",
        "martin_asymptote",
    ),
    "growth": ("ClusterTrace", "eden_grow", "fpp_infection_order", "idla_grow", "roundness"),
    "tasep": (
        "CurrentUndetermined",
        "StepTimeTable",
        "coupling_equivalence",
        "current_at",
        "current_series",
        "particle_position",
        "tasep_run",
    ),
    "oracle": (
        "BudgetExceeded",
        "EnumerationBudget",
        "brute_force_fpp",
        "brute_force_lpp",
        "oriented_path_count",
    ),
    "estimators": (
        "ExponentFit",
        "FlatEdgeReport",
        "Fluctuations",
        "Series",
        "SubadditiveSequence",
        "chi_from_variance_fit",
        "estimate_radial_g",
        "fekete_envelope",
        "fit_exponent",
        "flat_edge_probe",
        "fluctuation_series",
        "kpz_residual",
        "shape_boundary_estimate",
        "shape_gap_series",
        "variance_series",
        "wandering_series",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
