import numpy as np

from latticegrow import (
    LatticeBox,
    constant,
    eden_grow,
    exponential,
    fpp_ball,
    fpp_dijkstra,
    lpp_dp,
    make_field,
    tasep_run,
)
from latticegrow import _output
from latticegrow.fpp import ball_to_csv
from latticegrow.growth import roundness_series_to_csv
from latticegrow.tasep import current_series, current_series_to_csv


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


def test_ball_snapshot_csv(tmp_path):
    f = make_field(constant(1.0), 0, "edge", 2)
    pmap = fpp_dijkstra(f, (0, 0), LatticeBox(2, 3), time_budget=1.0)
    ball = fpp_ball(pmap, 1.0)
    path = tmp_path / "ball.csv"
    ball_to_csv(ball, 2, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 1 + len(ball)
    assert lines[1:] == sorted(lines[1:], key=lambda s: tuple(map(int, s.split(","))))


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


def test_current_series_csv(tmp_path):
    table = tasep_run(6, 6, clock_seed=1)
    tmax = float(table.s[5, 5]) * 0.99
    rows = current_series(table, np.linspace(0.0, tmax, 8))
    path = tmp_path / "current.csv"
    current_series_to_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,c_t"
    assert len(lines) == 9
    assert lines[1].endswith(",0")


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
