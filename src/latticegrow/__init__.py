"""Lattice random growth models: exact solvers, couplings, and estimators."""

__version__ = "0.1.0"

from .weights import (
    DistributionSpec,
    WeightField,
    constant,
    derive_seed,
    exponential,
    geometric,
    make_field,
    parse_dist_token,
    quantile,
    two_point,
    uniform,
)
from .fpp import (
    Geodesic,
    LatticeBox,
    PassageTimeMap,
    fpp_ball,
    fpp_dijkstra,
    fpp_geodesic,
    greedy_forward_path,
    lattice_point,
    wandering_deviation,
)
from .lpp import (
    ExactShape,
    LppTimeMap,
    OrientedPath,
    exact_g,
    exact_shape_for,
    lpp_dp,
    lpp_geodesic,
    lpp_time_between,
    martin_asymptote,
)
from .growth import ClusterTrace, eden_grow, fpp_infection_order, idla_grow, roundness
from .tasep import (
    CurrentUndetermined,
    StepTimeTable,
    coupling_equivalence,
    current_at,
    current_series,
    particle_position,
    tasep_run,
)
from .oracle import (
    BudgetExceeded,
    EnumerationBudget,
    brute_force_fpp,
    brute_force_lpp,
    oriented_path_count,
)
from .estimators import (
    ExponentFit,
    FlatEdgeReport,
    Series,
    SubadditiveSequence,
    chi_from_variance_fit,
    estimate_radial_g,
    fekete_envelope,
    fit_exponent,
    flat_edge_probe,
    kpz_residual,
    shape_boundary_estimate,
    shape_gap_series,
    variance_series,
    wandering_series,
)
