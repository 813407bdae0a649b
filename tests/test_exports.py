import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import latticegrow
from latticegrow import (
    LatticeBox,
    constant,
    eden_grow,
    exponential,
    fpp_dijkstra,
    lpp_dp,
    make_field,
)
from latticegrow import _output
from latticegrow.growth import roundness_series_to_csv


# every name the package exports; each resolves on first access
EXPORTED = {
    "weights": ["DistributionSpec", "WeightField", "constant", "derive_seed", "exponential",
                "geometric", "make_field", "parse_dist_token", "quantile", "two_point",
                "uniform"],
    "fpp": ["Geodesic", "LatticeBox", "PassageTimeMap", "fpp_ball", "fpp_dijkstra",
            "fpp_geodesic", "greedy_forward_path", "lattice_point", "wandering_deviation"],
    "lpp": ["ExactShape", "LppTimeMap", "OrientedPath", "exact_g", "exact_shape_for", "lpp_dp",
            "lpp_geodesic", "lpp_time_between", "martin_asymptote"],
    "growth": ["ClusterTrace", "eden_grow", "fpp_infection_order", "idla_grow", "roundness"],
    "tasep": ["CurrentUndetermined", "StepTimeTable", "coupling_equivalence", "current_at",
              "current_series", "particle_position", "tasep_run"],
    "oracle": ["BudgetExceeded", "EnumerationBudget", "brute_force_fpp", "brute_force_lpp",
               "oriented_path_count"],
    "estimators": ["ExponentFit", "FlatEdgeReport", "Fluctuations", "Series",
                   "SubadditiveSequence", "chi_from_variance_fit", "estimate_radial_g",
                   "fekete_envelope", "fit_exponent", "flat_edge_probe", "fluctuation_series",
                   "kpz_residual", "shape_boundary_estimate", "shape_gap_series",
                   "variance_series", "wandering_series"],
}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_package_exports_resolve_lazily(module):
    names = EXPORTED[module]
    source = importlib.import_module(f"latticegrow.{module}")
    listed = dir(latticegrow)
    for name in names:
        assert name in listed, name
        assert getattr(latticegrow, name) is getattr(source, name), name
        namespace = {}
        exec(f"from latticegrow import {name}", namespace)
        assert namespace[name] is getattr(source, name), name


def test_package_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_solver'"):
        latticegrow.no_such_solver
    with pytest.raises(ImportError):
        exec("from latticegrow import no_such_solver", {})


def test_benchmark_tracer_finds_every_traced_name():
    # the benchmark's tracer patches package functions by name; renaming or
    # deleting one must fail here too, and leaving the tracer restores them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    lpp = importlib.import_module("latticegrow.lpp")
    before = lpp.lpp_dp
    with tracer.Tracer().installed():
        assert lpp.lpp_dp is not before
    assert lpp.lpp_dp is before


def test_passage_map_csv(tmp_path):
    f = make_field(constant(1.0), 0, "edge", 2)
    pmap = fpp_dijkstra(f, (0, 0), LatticeBox(2, 2), time_budget=1.0)
    path = tmp_path / "map.csv"
    pmap.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,T"
    assert lines[1] == "0,0,0"
    # values round-trip exactly through the 17-digit format
    for row in lines[1:]:
        x1, x2, t = row.split(",")
        assert pmap.times[(int(x1), int(x2))] == float(t)


def test_lpp_table_csv(tmp_path):
    f = make_field(exponential(1.0), 4, "vertex", 2)
    lmap = lpp_dp(f, (3, 2))
    path = tmp_path / "lpp.csv"
    lmap.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,T"
    assert len(lines) == 1 + 4 * 3
    for row in lines[1:]:
        x1, x2, t = row.split(",")
        assert lmap.time_to((int(x1), int(x2))) == float(t)


def test_cluster_trace_csv(tmp_path):
    trace = eden_grow(3, 2, 25)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,x1,x2"
    assert len(lines) == 26
    step, x1, x2 = lines[5].split(",")
    assert int(step) == 5
    assert (int(x1), int(x2)) == trace.vertices[4]


def test_roundness_series_csv(tmp_path):
    path = tmp_path / "round.csv"
    roundness_series_to_csv([(10, 1.5, 2.0), (20, 2.5, 3.0)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,inradius,outradius"
    assert lines[1] == "10,1.5,2"


def test_write_csv_slices_keep_the_bytes(tmp_path, monkeypatch):
    f = make_field(exponential(1.0), 4, "vertex", 2)
    lmap = lpp_dp(f, (6, 4))  # 35 rows
    whole = tmp_path / "whole.csv"
    lmap.to_csv(whole)
    for rows in (1, 3, 5, 34, 35, 36):
        monkeypatch.setattr(_output, "_ROWS_PER_WRITE", rows)
        sliced = tmp_path / f"sliced{rows}.csv"
        lmap.to_csv(sliced)
        assert sliced.read_bytes() == whole.read_bytes(), rows
    empty = tmp_path / "empty.csv"
    _output.write_csv(empty, ("a", "b"), ((), ()))
    assert empty.read_text() == "a,b\n"
    # every column kind against the per-cell format(x, ".17g") / str(x) text
    columns = [
        np.array(["a", "b c", "%s", "", "%.17g"] * 3),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan] * 3),
        np.array([2 ** 62, -(2 ** 63), 0, 7, -1] * 3, dtype=np.int64),
        np.array([1e-310, 1 / 3, -2.5e300, 5e-324, 1.0] * 3, dtype=np.float64),
        np.array([0.1, 2.5, -3.0, 1e20, 65504.0] * 3, dtype=np.float32),
        7,
    ]
    header = [f"c{i}" for i in range(len(columns))]
    cells = [[format(x, ".17g") if np.asarray(c).dtype.kind == "f" else str(x)
              for x in np.broadcast_to(c, (15,)).tolist()] for c in columns]
    expected = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))
    for rows in (1, 4, 15, 16):
        monkeypatch.setattr(_output, "_ROWS_PER_WRITE", rows)
        mixed = tmp_path / f"mixed{rows}.csv"
        _output.write_csv(mixed, header, columns)
        assert mixed.read_text() == expected, rows
