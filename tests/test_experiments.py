import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latticegrow
from latticegrow import estimators, experiments, fpp, growth, oracle
from latticegrow.cli import main
from latticegrow.estimators import MAX_FLAT_EDGE_N, flat_edge_probe
from latticegrow.experiments import (
    MAX_WORKERS,
    ConfigError,
    ExperimentConfig,
    HardFailure,
    _sample_footprint,
    run_experiment,
)
from latticegrow.growth import ClusterTrace
from latticegrow.weights import parse_dist_token


def _cfg(**kw):
    cfg = ExperimentConfig()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_config_round_trips_losslessly():
    cfg = _cfg(kind="radial-g", model="lpp", dist="exp:1.0", n_grid="8,16",
               trials=10, seed=42, direction="1,1", workers=2, out="somewhere")
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again == cfg


# every field in order, at its default: to_text, the repr and summary.json's
# config echo all list the fields in this order
_DEFAULT_TEXT = ("kind = \ndist = exp:1.0\ndim = 2\nmodel = \ndirection = 1,1\nn_grid = \n"
                 "t = 0.0\ntrials = 0\nsteps = 0\nseed = 1\nworkers = 1\nout = out\n")


def test_config_takes_its_fields_by_keyword_and_no_others():
    assert ExperimentConfig().to_text() == _DEFAULT_TEXT
    cfg = ExperimentConfig(kind="eden", steps=5, seed=0)
    assert cfg == _cfg(kind="eden", steps=5, seed=0) == ExperimentConfig.from_text(cfg.to_text())
    assert cfg != ExperimentConfig(kind="eden", steps=5)
    assert repr(cfg) == ("ExperimentConfig(kind='eden', dist='exp:1.0', dim=2, model='', "
                         "direction='1,1', n_grid='', t=0.0, trials=0, steps=5, seed=0, "
                         "workers=1, out='out')")
    with pytest.raises(TypeError, match="frobnicate"):
        ExperimentConfig(kind="eden", frobnicate=3)


def test_config_parse_errors_name_the_problem():
    with pytest.raises(ConfigError, match="frobnicate"):
        ExperimentConfig.from_text("frobnicate = 3")
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig.from_text("trials = many")
    with pytest.raises(ConfigError, match="key = value"):
        ExperimentConfig.from_text("just some words")


@pytest.mark.parametrize(
    "kw,field",
    [
        (dict(kind="exponents", trials=0, n_grid="8,16"), "trials"),
        (dict(kind="sideways", trials=5), "kind"),
        (dict(kind="radial-g", trials=5, n_grid="8,16", model=""), "model"),
        (dict(kind="radial-g", trials=5, n_grid="", model="lpp"), "n_grid"),
        (dict(kind="fpp-shape", trials=5, t=0.0), "t"),
        (dict(kind="eden", steps=0), "steps"),
        (dict(kind="radial-g", trials=5, n_grid="8,16", model="lpp", dist="zeta:2"), "dist"),
        (dict(kind="radial-g", trials=5, n_grid="8,16", model="lpp", workers=0), "workers"),
        (dict(kind="flat-edge", dist="twopoint:0.8", n_grid="10", trials=2), "n_grid"),
        (dict(kind="exponents", n_grid="8,16,32,64", trials=5), "trials"),
        (dict(kind="exponents", n_grid="4,8,16", trials=200), "n_grid"),
        (dict(kind="exponents", n_grid="8,10,12,14", trials=200), "n_grid"),
        (dict(kind="radial-g", model="lpp", n_grid="4,8", trials=1), "trials"),
        (dict(kind="radial-g", model="lpp", n_grid="4,8", trials=5, direction="1,-1"),
         "direction"),
        (dict(kind="radial-g", model="fpp", n_grid="4,8", trials=5, direction="0,0"),
         "direction"),
        (dict(kind="radial-g", model="fpp", n_grid="4,8", trials=5, direction="inf,1"),
         "direction"),
        (dict(kind="radial-g", model="lpp", n_grid="4,4", trials=5), "n_grid"),
        (dict(kind="radial-g", model="fpp", n_grid="4,8", trials=5, dist="const:0"), "dist"),
        (dict(kind="oracle-check", dist="const:0", trials=2), "dist"),
        (dict(kind="tasep-coupling", steps=1, trials=2), "steps"),
        (dict(kind="lpp-shape", trials=2, t=4.0, dim=3), "dim"),
        (dict(kind="radial-g", model="lpp", n_grid="4,8", trials=5, dim=3), "dim"),
        (dict(kind="exponents", n_grid="8,16,32,64", trials=200, dim=3), "dim"),
        (dict(kind="exponents", n_grid="8,16,32,64", trials=200, dist="const:1"), "dist"),
        (dict(kind="exponents", n_grid="8,16,32,64", trials=200, direction="1,0"),
         "direction"),
        (dict(kind="lpp-shape", trials=2, t=4.0, dist="const:0"), "dist"),
        (dict(kind="fpp-shape", trials=2, t=float("inf")), "t"),
        (dict(kind="eden", steps=10, t=5.0, model="lpp", n_grid="3"), "model"),
        (dict(kind="eden", steps=10, dist="twopoint:0.5", trials=7, workers=3), "dist"),
        (dict(kind="idla", steps=10, trials=7), "trials"),
        (dict(kind="eden", steps=10, direction="2,1"), "direction"),
        (dict(kind="lpp-shape", trials=2, t=4.0, n_grid="4,8"), "n_grid"),
        (dict(kind="fpp-shape", trials=2, t=4.0, steps=5), "steps"),
        (dict(kind="oracle-check", trials=2, workers=2), "workers"),
        (dict(kind="tasep-coupling", steps=4, trials=2, model="fpp"), "model"),
        (dict(kind="flat-edge", dist="twopoint:0.8", n_grid="50", trials=2, t=1.0), "t"),
        (dict(kind="radial-g", model="lpp", dist="unif:0.5:inf", n_grid="2,4", trials=3),
         "dist"),
        (dict(kind="radial-g", model="fpp", dist="exp:inf", n_grid="2,4", trials=3), "dist"),
        (dict(kind="lpp-shape", dist="const:inf", t=3.0, trials=2), "dist"),
        (dict(kind="tasep-coupling", steps=2346, trials=1), "steps"),
        (dict(kind="fpp-shape", dist="unif:0.5:1.5", t=1e308, trials=2), "t"),
        (dict(kind="lpp-shape", dist="exp:1e300", t=1.0, trials=2), "t"),
        # the point fits a float, its first FPP box's radius does not
        (dict(kind="radial-g", model="fpp", dist="unif:0.5:1.5", n_grid=str(10 ** 308),
              trials=2), "n_grid"),
        (dict(kind="flat-edge", dist="twopoint:0.8", n_grid="60,50,60", trials=2), "n_grid"),
    ],
)
def test_validation_rejects_naming_field(kw, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        _cfg(**kw).validate()


def test_growth_kinds_honour_dim(tmp_path):
    summary = run_experiment(_cfg(kind="eden", steps=20, dim=3, out=str(tmp_path / "o")))
    assert summary["files"] == ["eden_trace.csv"]
    header = (tmp_path / "o" / "eden_trace.csv").read_text().splitlines()[0]
    assert header == "step,x1,x2,x3"


def _read_all_csvs(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.glob("*.csv"))}


def test_identical_configs_identical_bytes(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg = _cfg(kind="radial-g", model="lpp", dist="exp:1.0", direction="1,1",
                   n_grid="4,8", trials=12, seed=7, out=str(tmp_path / sub))
        run_experiment(cfg)
        outs.append(_read_all_csvs(tmp_path / sub))
    assert outs[0] == outs[1]


def test_worker_count_independence(tmp_path):
    outs = []
    for sub, workers in (("w1", 1), ("w2", 2)):
        cfg = _cfg(kind="radial-g", model="lpp", dist="exp:1.0", direction="1,1",
                   n_grid="4,8", trials=12, seed=7, workers=workers,
                   out=str(tmp_path / sub))
        run_experiment(cfg)
        outs.append(_read_all_csvs(tmp_path / sub))
    assert outs[0] == outs[1]


def test_summary_contains_reproducibility_and_reference(tmp_path):
    cfg = _cfg(kind="radial-g", model="lpp", dist="exp:1.0", direction="1,1",
               n_grid="4,8", trials=10, seed=3, out=str(tmp_path / "o"))
    summary = run_experiment(cfg)
    assert summary["estimates"]["exact_g_reference"] == pytest.approx(4.0)
    blob = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert blob["reproducibility"]["config"]["seed"] == 3
    # the echo holds every field in order, and the file the same values
    echo = summary["reproducibility"]["config"]
    assert list(echo) == [line.split(" =")[0] for line in _DEFAULT_TEXT.splitlines()]
    assert blob["reproducibility"]["config"] == echo == vars(cfg)
    assert blob["reproducibility"]["package_version"]
    assert "generated_at" in blob["reproducibility"]


def test_oracle_check_runs_clean(tmp_path):
    cfg = _cfg(kind="oracle-check", dist="unif:0.5:1.5", trials=3, out=str(tmp_path / "o"))
    summary = run_experiment(cfg)
    assert summary["estimates"]["mismatches"] == 0
    assert summary["estimates"]["seeds_checked"] == 3


def test_tasep_coupling_experiment(tmp_path):
    cfg = _cfg(kind="tasep-coupling", dist="exp:1.0", steps=12, trials=3,
               seed=11, out=str(tmp_path / "o"))
    summary = run_experiment(cfg)
    assert summary["estimates"]["table_mismatches"] == 0
    assert summary["estimates"]["probe_failures"] == 0


def test_idla_summary_is_strict_json_with_zero_inradius(tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    for steps in (1, 3):
        run_experiment(_cfg(kind="idla", steps=steps, seed=0, out=str(tmp_path / str(steps))))
        blob = json.loads((tmp_path / str(steps) / "summary.json").read_text(),
                          parse_constant=reject)
        assert blob["estimates"]["inradius"] == 0.0
        assert blob["estimates"]["roundness_ratio"] is None


def test_idla_experiment_writes_roundness(tmp_path):
    cfg = _cfg(kind="idla", steps=400, seed=2, out=str(tmp_path / "o"))
    summary = run_experiment(cfg)
    assert (tmp_path / "o" / "idla_roundness.csv").exists()
    assert summary["estimates"]["roundness_ratio"] > 1.0


def test_eden_experiment(tmp_path):
    cfg = _cfg(kind="eden", steps=200, seed=5, out=str(tmp_path / "o"))
    summary = run_experiment(cfg)
    assert (tmp_path / "o" / "eden_trace.csv").exists()
    assert summary["estimates"]["outradius"] > 0


def test_flat_edge_experiment(tmp_path):
    cfg = _cfg(kind="flat-edge", dist="twopoint:0.8", n_grid="60", trials=4,
               seed=1, out=str(tmp_path / "o"))
    summary = run_experiment(cfg)
    assert summary["estimates"]["mean_ratio_last"] >= 1.0


def test_flat_edge_rejects_wrong_dist(tmp_path):
    cfg = _cfg(kind="flat-edge", dist="exp:1.0", n_grid="60", trials=2,
               out=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="dist"):
        run_experiment(cfg)


# -- CLI ------------------------------------------------------------------------


def test_cli_lpp_exact_values(capsys):
    assert main(["lpp-exact", "--model", "exp", "--x", "1,1"]) == 0
    assert float(capsys.readouterr().out.strip()) == 4.0
    assert main(["lpp-exact", "--model", "geom", "--p", "0.5", "--x", "1,1"]) == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(4.0 + 2.0 * 2.0**0.5)
    # a --p the shape ignores, a coordinate that is not finite, and a value
    # that overflows are config errors, without a numpy warning on the way
    for options, field in [
        (["--model", "exp", "--p", "0.5", "--x", "1,1"], "p"),
        (["--model", "geom", "--p", "1.5", "--x", "1,1"], "p"),
        (["--model", "exp", "--x", "1,nan"], "x"),
        (["--model", "exp", "--x", "inf,1"], "x"),
        (["--model", "exp", "--x", "1e308,1e308"], "x"),
        (["--model", "geom", "--p", "0.5", "--x", "1e308,1e308"], "x"),
        (["--model", "exp", "--x", "1,-1"], "x"),
        (["--model", "exp", "--x", "1,1,1"], "x"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lpp-exact", *options]) == 2, options
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {field}: "), (options, captured.err)


def test_cli_lpp_exact_missing_p_is_config_error(capsys):
    assert main(["lpp-exact", "--model", "geom", "--x", "1,1"]) == 2
    assert capsys.readouterr().err.startswith("config error: p: ")


def test_cli_config_error_exit_code(tmp_path):
    rc = main(["radial-g", "--model", "lpp", "--dist", "nope:1",
               "--n-grid", "4,8", "--trials", "5", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_runs_experiment_and_reports_files(tmp_path, capsys):
    rc = main(["radial-g", "--model", "lpp", "--dist", "exp:1.0",
               "--direction", "1,1", "--n-grid", "4,8", "--trials", "6",
               "--seed", "2", "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "radial_g.csv" in out and "summary.json" in out
    assert (tmp_path / "o" / "radial_g.csv").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "kind = radial-g\nmodel = lpp\ndist = exp:1.0\ndirection = 1,1\n"
        "n_grid = 4,8\ntrials = 6\nseed = 2\nout = IGNORED\n"
    )
    rc = main(["radial-g", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "summary.json").exists()


def test_cli_hard_failure_exit_code(monkeypatch, tmp_path):
    import latticegrow.cli as cli_mod

    def boom(cfg):
        raise HardFailure("synthetic")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    rc = main(["oracle-check", "--dist", "unif:0.5:1.5", "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 3


def test_tasep_table_limit_is_inclusive():
    # 2345^2 cells at about 48 bytes a cell is the largest run; validate()
    # allocates nothing
    assert _tasep_bytes(2345) <= _BUDGET < _tasep_bytes(2346)
    _cfg(kind="tasep-coupling", steps=2345, trials=1).validate()
    with pytest.raises(ConfigError, match="^steps: .* more than 268435456$"):
        _cfg(kind="tasep-coupling", steps=2346, trials=1).validate()


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 8.00 TiB for an array"),
     "Unable to allocate 8.00 TiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_cli_memory_error_is_hard_failure(monkeypatch, capsys, tmp_path, exc, message):
    def boom(config, spec, paths, summary):
        raise exc

    row = experiments._TABLE["tasep-coupling"]
    monkeypatch.setitem(experiments._TABLE, "tasep-coupling", row._replace(run=boom))
    rc = main(["tasep-coupling", "--steps", "64", "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == f"hard failure: {message}\n"


def test_cli_idla_grid_past_limit_is_hard_failure(tmp_path):
    # validate() accepts the first grid (5^10 cells); the grid outgrows the limit
    src = str(Path(latticegrow.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "latticegrow.cli", "idla", "--dim", "10", "--steps", "40",
         "--seed", "3", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("hard failure: a growth grid in dimension 10 needs ")


@pytest.mark.parametrize("dist", ["geom:0.999", "twopoint:0.9999"])
def test_cli_exponents_on_constant_small_n_is_hard_failure(capsys, tmp_path, dist):
    # validate() accepts the law, but all 200 times at n = 1 are equal, so the
    # variance fit refuses its samples
    rc = main(["exponents", "--dist", dist, "--direction", "1,1", "--n-grid", "1,2,4,8",
               "--trials", "200", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err == "hard failure: exponent fits need strictly positive values\n"
    # the fits refuse before any file is written, so no series is left behind
    # that a reader could take for a finished run's
    assert list((tmp_path / "o").glob("*.csv")) == []


def test_cli_tasep_coupling_mismatch_is_hard_failure(monkeypatch, capsys, tmp_path):
    from latticegrow import tasep

    real = tasep._coupling_check
    monkeypatch.setattr(tasep, "_coupling_check",
                        lambda k, trials, seed: (real(k, trials, seed)[0], 2, 1))
    rc = main(["tasep-coupling", "--dist", "exp:1.0", "--steps", "6", "--trials", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == ("hard failure: coupling verification failed: "
                                       "2 table mismatches, 1 probe failures\n")
    # the table is written before the run refuses, as its diagnostic
    assert (tmp_path / "o" / "tasep_table.csv").exists()


def test_truncated_trials_are_warned_in_the_summary(monkeypatch, tmp_path):
    from test_fpp import _forced_hits

    _forced_hits(monkeypatch)
    # a law of least weight 0: point solves of a positive one are pruned, never truncated
    summary = run_experiment(_cfg(kind="radial-g", model="fpp", dist="exp:1.0",
                                  n_grid="2,4", trials=3, out=str(tmp_path / "g")))
    assert summary["warnings"] == ["truncation flagged in 3 trials at n=2",
                                   "truncation flagged in 3 trials at n=4"]
    summary = run_experiment(_cfg(kind="fpp-shape", dist="unif:0.5:1.5", t=4.0, trials=3,
                                  out=str(tmp_path / "s")))
    assert summary["warnings"] == ["truncation flagged in 3 trials"]


def test_runner_errors_become_hard_failures_and_io_errors_do_not(monkeypatch, tmp_path):
    row = experiments._TABLE["tasep-coupling"]
    for exc, wrapped in ((ValueError("bad samples"), True), (RuntimeError("cap"), True),
                         (HardFailure("mismatch"), False), (OSError("disk full"), False)):
        def boom(config, spec, paths, summary, exc=exc):
            raise exc

        monkeypatch.setitem(experiments._TABLE, "tasep-coupling", row._replace(run=boom))
        with pytest.raises(HardFailure if wrapped else type(exc), match=f"^{exc}$") as info:
            run_experiment(_cfg(kind="tasep-coupling", steps=8, trials=1,
                                out=str(tmp_path / "o")))
        assert (info.value.__cause__ if wrapped else info.value) is exc


def test_cli_idla_in_dimension_one_runs_past_the_old_cap(tmp_path):
    # the cap grew linearly in the cluster size, but d = 1 walks take about
    # size^2 / 4 moves: 600 particles once ended in a traceback
    src = str(Path(latticegrow.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "latticegrow.cli", "idla", "--dim", "1", "--steps", "600",
         "--seed", "11", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "o" / "idla_trace.csv").read_text().splitlines()) == 601


def test_idla_walk_cap_is_hard_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(growth, "_WALK_CAP_BASE", -5200)  # cap 0 for the first walk
    for d in (1, 2, 3):
        with pytest.raises(HardFailure, match="^random walk exceeded"):
            run_experiment(_cfg(kind="idla", dim=d, steps=5, out=str(tmp_path / str(d))))


@pytest.mark.parametrize("kind,dist,t_ok,t_bad", [
    ("fpp-shape", "unif:0.5:1.5", 62.75, 62.76),  # first box radius 261, then 262
    ("lpp-shape", "exp:1.0", 224.0, 224.01),      # first table corner 568, then 569
])
def test_shape_box_limit_is_inclusive(kind, dist, t_ok, t_bad):
    _cfg(kind=kind, dist=dist, t=t_ok, trials=2).validate()
    with pytest.raises(ConfigError, match="^t: "):
        _cfg(kind=kind, dist=dist, t=t_bad, trials=2).validate()


@pytest.mark.parametrize("kind,model,n_ok,n_bad", [
    # first FPP box radius 1045 (2093^2 padded vertices), then 1048 (2099^2)
    ("radial-g", "fpp", 398, 399),
    # one trial's LPP sweep: radial-g keeps two layers, about 680 n bytes, and
    # exponents also its decision bytes and path, about 2 (n + 1)^2
    ("radial-g", "lpp", 394732, 394733),
    ("exponents", "", 11407, 11408),
])
def test_trial_box_limit_is_inclusive(kind, model, n_ok, n_bad):
    kw = dict(kind=kind, model=model, dist="unif:0.5:1.5", trials=2 if model else 200)
    _cfg(n_grid=f"{n_ok // 8},{n_ok // 4},{n_ok // 2},{n_ok}", **kw).validate()
    with pytest.raises(ConfigError, match="^n_grid: .* more than 268435456$"):
        _cfg(n_grid=f"{n_bad // 8},{n_bad // 4},{n_bad // 2},{n_bad}", **kw).validate()


def test_fpp_task_at_the_cli_limit_is_one_trial():
    # a trial on the largest first box the CLI accepts (n = 398 on (1, 1))
    # holds more than a batch, so it is solved alone
    spec = parse_dist_token("unif:0.5:1.5")
    assert fpp._point_task((398, 398), spec) == (1, _fpp_bytes(2091, 2))
    assert fpp._point_task((399, 399), spec) == (1, _fpp_bytes(2097, 2))
    kw = dict(kind="radial-g", model="fpp", dist="unif:0.5:1.5", direction="1,1", trials=2)
    _cfg(n_grid="398", **kw).validate()
    with pytest.raises(ConfigError, match="^n_grid: .* more than 268435456$"):
        _cfg(n_grid="399", **kw).validate()


def test_trial_box_limit_admits_three_dimensional_fpp():
    # 149^3 padded vertices at 75 bytes, about 248 MB
    _cfg(kind="radial-g", model="fpp", dist="unif:0.5:1.5", direction="1,1,1", dim=3,
         n_grid="4,8,16", trials=2).validate()
    with pytest.raises(ConfigError, match="^n_grid: .* more than 268435456$"):
        _cfg(kind="radial-g", model="fpp", dist="unif:0.5:1.5", direction="1,1,1", dim=3,
             n_grid="4,8,17", trials=2).validate()


def test_workers_cap_is_inclusive():
    kw = dict(kind="radial-g", model="fpp", dist="unif:0.5:1.5", n_grid="4,8", trials=2)
    _cfg(workers=MAX_WORKERS, **kw).validate()
    with pytest.raises(ConfigError, match="^workers: "):
        _cfg(workers=MAX_WORKERS + 1, **kw).validate()


def test_cli_rejects_workers_over_cap_before_any_pool(monkeypatch, tmp_path, capsys):
    # in-process, with pools refused: a broken cap must not start a process
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code = main(["radial-g", "--model", "fpp", "--dist", "unif:0.5:1.5", "--n-grid", "4,8",
                 "--trials", "2", "--workers", str(MAX_WORKERS + 1),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: workers: ")
    assert not (tmp_path / "o").exists()


def test_flat_edge_n_limit_is_inclusive():
    # the CLI bound is memory, below the library's exactness bound
    assert _largest(lambda n: _flat_edge_bytes(n) <= _BUDGET, 50, MAX_FLAT_EDGE_N) == 1255
    _cfg(kind="flat-edge", dist="twopoint:0.55", n_grid="1255", trials=1).validate()
    with pytest.raises(ConfigError, match="^n_grid: .* more than 268435456$"):
        _cfg(kind="flat-edge", dist="twopoint:0.55", n_grid="50,1256", trials=1).validate()
    with pytest.raises(ValueError, match="n must lie in"):
        flat_edge_probe(0.55, MAX_FLAT_EDGE_N + 1, 1, 0)


def test_shape_footprint_counts_the_largest_retry_box():
    # the box two retries reach, four times the first side, is the one
    # counted: every first side up to 10^4
    from types import SimpleNamespace

    from latticegrow.experiments import _shape_footprint

    for kind, largest in (("fpp-shape", lambda s: _ball_bytes("fpp", 4 * s)),
                          ("lpp-shape", lambda s: _ball_bytes("lpp", 4 * s))):
        sides = range(1, 10_001)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_ball_side", lambda model, spec, t: t)
            new = [s for s in sides for _f, need, _u in
                   _shape_footprint(SimpleNamespace(kind=kind, t=s), None) if need <= _BUDGET]
        assert new == [s for s in sides if largest(s) <= _BUDGET]
        assert new[-1] == (261 if kind == "fpp-shape" else 568)


@pytest.mark.parametrize("model,direction,n", [
    ("fpp", (1, 1), 8), ("fpp", (1, 1, 1), 4), ("lpp", (1, 1), 256), ("lpp", (1, 1, 1), 32),
])
def test_footprint_counts_the_trials_of_one_sample_task(monkeypatch, model, direction, n):
    # the CLI counts the task _sample_times runs: a full batch of LPP sweeps'
    # tables, without decision bytes, or of FPP solves, sized for a law bounded away from 0 by the
    # smaller box its solve prunes to
    sizes = []

    def spy(fn, tasks, workers, task_bytes):
        sizes.extend(len(task[3]) for task in tasks)
        return [([1.0] * len(task[3]), [math.nan] * len(task[3]), [False] * len(task[3]))
                for task in tasks]

    monkeypatch.setattr(estimators, "_map_trials", spy)
    spec = parse_dist_token("unif:0.5:1.5")
    estimators._sample_times(model, spec, direction, [n], 20, 1, "radial-g", 1)
    cfg = _cfg(kind="radial-g", model=model, dist="unif:0.5:1.5", dim=len(direction),
               direction=",".join(map(str, direction)), n_grid=str(n), trials=20)
    [(_field, count, _unit)] = _sample_footprint(cfg, spec)
    # a 16 MiB batch holds 61 trials on first FPP boxes of 65^2 padded
    # vertices, or one on 55^3; 87 LPP sweeps on a 256^2 corner, 22 on 32^3
    per = {("fpp", 2): 61, ("fpp", 3): 1, ("lpp", 2): 87, ("lpp", 3): 22}[model, len(direction)]
    first = per * _point_bytes(model, n, direction, geodesics=False)
    # 20 trials go in the fewest batches of at most per, their sizes within
    # one: 202 pruned boxes of 31^2 padded vertices or 16 of 23^3 in a task
    per = {("fpp", 2): 202, ("fpp", 3): 16, ("lpp", 2): 87, ("lpp", 3): 22}[model, len(direction)]
    assert sorted(sizes) == {202: [20], 16: [10, 10], 87: [20], 22: [20]}[per]
    # an FPP task holds a batch of pruned boxes, or a batch on the first box,
    # where any trial may grow, whichever is more
    pruned = {("fpp", 2): 202 * _fpp_bytes(29, 2, pruned=True),
              ("fpp", 3): 16 * _fpp_bytes(21, 3, pruned=True)}.get((model, len(direction)), 0)
    assert count == max(first, pruned)


# -- every bound of every kind, each from its closed form in README ---------------

_BUDGET = 1 << 28  # bytes
_BATCH = 16 << 20  # bytes of trials a batch holds, or one trial


def _trials(trial):
    """Trials a batch holds at these bytes each, at least one."""
    return max(1, _BATCH // trial)


def _grid_bytes(d, steps):
    """The first growth grid and its rim: 2 (2 r + 1)^d bytes, r = max(2, floor(1.2 (steps /
    V_d)^(1/d)) + 1)."""
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    return 2 * (2 * max(2, int(1.2 * (steps / ball) ** (1 / d)) + 1) + 1) ** d


def _growth_bytes(kind, d, steps):
    """The first grid and the sites: 40 (1 + e) + 56 d + 64 bytes a site, e = 2 d - 1
    boundary edges for eden and 0 for idla, 168 bytes for each of 2^14 draws, and for
    idla in d = 2 12 bytes for each of the 2^14 buckets of 12 guide tables."""
    e = 2 * d - 1 if kind == "eden" else 0
    guides = 12 * 12 * (1 << 14) if kind == "idla" and d == 2 else 0
    return (_grid_bytes(d, steps) + steps * (40 * (1 + e) + 56 * d + 64) + 168 * (1 << 14)
            + guides)


def _roundness_bytes(d):
    """roundness's window of reach 2 and its partial sum, int32: 4 (5^d + 5^(d - 1)) bytes."""
    return 4 * (5 ** d + 5 ** (d - 1))


def _fpp_bytes(side, d, pruned=False):
    """One FPP trial on a box of this side: 14 d + 33 bytes a padded vertex, 8 more
    pruned, and 16 KiB."""
    return (side + 2) ** d * (14 * d + 33 + 8 * pruned) + (16 << 10)


def _table_bytes(s):
    """lpp_dp on [0, s]^2: its window and full table, 8 bytes a cell each, the skewed
    layers (2 s + 1)(s + 2), a hash slab of up to 2^18 cells, 8 a layer and 16 KiB."""
    cells = (s + 1) ** 2
    return 8 * (2 * cells + (2 * s + 1) * (s + 2) + min(cells, 1 << 18) + 2 * s + 1) + (16 << 10)


def _sweep_bytes(x, geodesics=True):
    """One corner sweep to x: 8 bytes a layer, and with geodesics the lead cells'
    decision bytes, a move byte and d coordinates; 648 bytes a lead cell; two padded
    float layers; 16 KiB."""
    lead = sorted(x)[:-1]
    cells, layers = math.prod(c + 1 for c in lead), sum(x) + 1
    per_layer = 8 + (cells + 1 + 8 * len(x) if geodesics else 0)
    return (layers * per_layer + 648 * cells + 16 * math.prod(c + 2 for c in lead)
            + (16 << 10))


def _tasep_bytes(k):
    """A k x k coupled run: two tables, lpp_dp on [0, k - 1]^2 and 2 MiB of CSV text."""
    return 16 * k * k + _table_bytes(k - 1) + (2 << 20)


def _ball_bytes(model, side):
    """A shape trial on an FPP box of this radius or an LPP table of this corner: its
    solve (with the last, quarter-size table), or the scan of a ball that fills it, 41
    bytes a cell and 4 KiB for each of its 6 side + 18 radial steps."""
    if model == "fpp":
        cells, solve = (2 * side + 1) ** 2, _fpp_bytes(2 * side + 1, 2)
    else:
        cells = (side + 1) ** 2
        solve = _table_bytes(side) + 2 * cells
    return max(solve, 41 * cells + 4096 * (6 * side + 18))


def _shape_bytes(model, mean, t):
    """A shape trial on its largest FPP box or LPP table, four times the first side."""
    if model == "fpp":
        return _ball_bytes("fpp", 4 * (math.ceil(4.0 * t / mean) + 10))
    return _ball_bytes("lpp", 4 * (math.ceil(2.5 * t / mean) + 8))


def _point_bytes(model, n, direction, geodesics):
    """One trial on the first FPP box or of the LPP sweep to x = floor(n direction)."""
    x = [math.floor(n * c) for c in direction]
    if model == "fpp":
        return _fpp_bytes(2 * (math.ceil(1.3 * sum(x)) + 10) + 1, len(x))
    return _sweep_bytes(x, geodesics)


def _task_bytes(model, n, direction, geodesics):
    """A batch of trials at x = floor(n direction); only exponents walks geodesics back."""
    trial = _point_bytes(model, n, direction, geodesics)
    return _trials(trial) * trial


def _min_plus_bytes(size, rounds):
    return 2 * size * size + 2 * (2 * size + 1) * (size + 2) + 8 * size * (size + 1) + 10 * (
        rounds + 1) * size


def _flat_edge_bytes(n):
    """A batch of window solves on [0, n]^2, then one group of margin solves: at most a
    batch, or one on [-n - 1, 2n + 1]^2 with n rounds."""
    probe = _min_plus_bytes(n + 1, 0)
    return _trials(probe) * probe + max(_min_plus_bytes(3 * n + 3, n), _BATCH)


def _largest(ok, lo, hi):
    """The largest n in [lo, hi) with ok(n), where ok holds at lo, fails at hi, and is monotone."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def _bounds():
    """(config for a value, values near the bound, field a value fails on or None)."""
    from latticegrow.experiments import MIN_FLAT_EDGE_N, MIN_RADIAL_TRIALS, MIN_VARIANCE_TRIALS

    base = {
        "fpp-shape": dict(kind="fpp-shape", dist="unif:0.5:1.5", t=4.0, trials=2),
        "lpp-shape": dict(kind="lpp-shape", t=4.0, trials=2),
        "radial-g": dict(kind="radial-g", model="fpp", n_grid="4,8", trials=2),
        "exponents": dict(kind="exponents", n_grid="2,4,8,16", trials=200),
        "flat-edge": dict(kind="flat-edge", dist="twopoint:0.8", n_grid="50", trials=1),
        "eden": dict(kind="eden", steps=10),
        "idla": dict(kind="idla", steps=10),
        "tasep-coupling": dict(kind="tasep-coupling", steps=4, trials=1),
        "oracle-check": dict(kind="oracle-check", dist="unif:0.5:1.5", trials=1),
    }
    least = [(kind, "seed", 0) for kind in base] + [
        ("fpp-shape", "trials", 1), ("lpp-shape", "trials", 1),
        ("radial-g", "trials", MIN_RADIAL_TRIALS), ("exponents", "trials", MIN_VARIANCE_TRIALS),
        ("flat-edge", "trials", 1), ("tasep-coupling", "trials", 1),
        ("oracle-check", "trials", 1), ("eden", "steps", 1), ("idla", "steps", 1),
        ("tasep-coupling", "steps", 2), ("eden", "dim", 1), ("idla", "dim", 1),
        ("radial-g", "n_grid", 1), ("flat-edge", "n_grid", MIN_FLAT_EDGE_N),
    ]
    cases = []
    for kind, field, low in least:
        cases.append((lambda v, kw=base[kind], f=field: {**kw, f: str(v) if f == "n_grid" else v},
                      st.integers(low - 3, low + 3),
                      lambda v, f=field, low=low: f if v < low else None))
    for kind in ("fpp-shape", "lpp-shape", "radial-g", "exponents", "flat-edge"):
        cases.append((lambda v, kw=base[kind]: {**kw, "workers": v},
                      st.integers(-1, 2) | st.integers(62, 66),
                      lambda v: None if 1 <= v <= 64 else "workers"))
    top = _largest(lambda n: _flat_edge_bytes(n) <= _BUDGET, 50, MAX_FLAT_EDGE_N)
    cases.append((lambda v: {**base["flat-edge"], "n_grid": f"50,{v}"},
                  st.integers(top - 3, top + 3),
                  lambda v: "n_grid" if _flat_edge_bytes(v) > _BUDGET else None))
    cases.append((lambda v: {**base["tasep-coupling"], "steps": v}, st.integers(2337, 2353),
                  lambda v: "steps" if _tasep_bytes(v) > _BUDGET else None))
    cases.append((lambda v: {**base["idla"], "dim": 1, "steps": v}, st.integers(1055, 1070),
                  lambda v: "steps" if v ** 3 // 12 > 10 ** 8 else None))
    for kind in ("eden", "idla"):
        cases.append((lambda v, kw=base[kind]: {**kw, "dim": v, "steps": 1},
                      st.integers(9, 14),
                      lambda v: "dim" if _roundness_bytes(v) > _BUDGET else None))
        for d in (2, 3):
            top = _largest(lambda s: _growth_bytes(kind, d, s) <= _BUDGET, 1, 10 ** 10)
            cases.append((lambda v, kw=base[kind], d=d: {**kw, "dim": d, "steps": v},
                          st.integers(top - 3, top + 3),
                          lambda v, kind=kind, d=d:
                              "steps" if _growth_bytes(kind, d, v) > _BUDGET else None))
    for kind, dists in (("fpp-shape", ("unif:0.5:1.5", "exp:2.0", "twopoint:0.6")),
                        ("lpp-shape", ("exp:1.0", "geom:0.5", "unif:0.5:1.5"))):
        for dist in dists:
            model, mean = kind[:3], parse_dist_token(dist).mean()
            top = (62.75 if model == "fpp" else 224.0) * mean
            cases.append((lambda v, kw=base[kind], dist=dist: {**kw, "dist": dist, "t": v},
                          st.just(top) | st.floats(0.99 * top, 1.01 * top),
                          lambda v, model=model, mean=mean:
                              "t" if _shape_bytes(model, mean, v) > _BUDGET else None))
    for kind, model, direction in (("radial-g", "fpp", (1, 1)), ("radial-g", "fpp", (1, 1, 1)),
                                   ("radial-g", "lpp", (2, 1)), ("exponents", "lpp", (1, 1)),
                                   ("exponents", "lpp", (1, 2, 1))):
        def grid_kw(n, kind=kind, model=model, direction=direction):
            # exponents reads no model: it is LPP, with a grid a fit can use
            kw = dict(base[kind], model=model) if kind == "radial-g" else base[kind]
            grid = [n] if kind == "radial-g" else [n // 8, n // 4, n // 2, n]
            return {**kw, "dim": len(direction), "direction": ",".join(map(str, direction)),
                    "n_grid": ",".join(map(str, grid))}

        walks = kind == "exponents"
        top = _largest(lambda n: _task_bytes(model, n, direction, walks) <= _BUDGET, 8, 10 ** 6)
        cases.append((grid_kw, st.integers(top - 3, top + 3),
                      lambda v, model=model, direction=direction, walks=walks:
                          "n_grid" if _task_bytes(model, v, direction, walks) > _BUDGET
                          else None))
    return cases


_BOUNDS = _bounds()


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_validate_accepts_exactly_the_configs_within_every_bound(data):
    # configs of every kind at every least value, footprint threshold, worker
    # cap and the d = 1 IDLA move bound; validate() runs no solve and no pool
    make, values, fails = data.draw(st.sampled_from(_BOUNDS))
    value = data.draw(values)
    cfg, field = _cfg(**make(value)), fails(value)
    if field is None:
        cfg.validate()
        return
    with pytest.raises(ConfigError, match=f"^{field}: "):
        cfg.validate()


def _fresh_python(code: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package,
    with the environment env (by default this process's)."""
    src = str(Path(latticegrow.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**(os.environ if env is None else env), "PYTHONPATH": src},
                          timeout=300)


# what parsing must not load: numpy, the modules a dataclass or a JSON
# summary pulls in, and the weight laws
_NOT_FOR_PARSING = ("numpy", "dataclasses", "inspect", "json", "latticegrow.weights")


def test_cli_parser_loads_no_numpy():
    proc = _fresh_python("import sys; import latticegrow.cli as c; c.build_parser(); "
                         f"print([m for m in {_NOT_FOR_PARSING!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_usage_error_loads_no_numpy():
    proc = _fresh_python("import sys\nfrom latticegrow.cli import main\n"
                         "try:\n    main(['idla', '--steps', 'x'])\n"
                         f"except SystemExit as e:\n    loaded = {_NOT_FOR_PARSING!r}\n"
                         "    print(e.code, [m for m in loaded if m in sys.modules])")
    assert proc.stdout == "2 []\n", proc.stderr


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a CLI run in a fresh interpreter; then the three thread counts as it left them,
# whether numpy is loaded, and the process's thread count (None off Linux)
_BLAS_RUN = ("import os, sys; from latticegrow import cli; assert cli.main(sys.argv[1:]) == 0\n"
             "status = '/proc/self/status'\n"
             "threads = ([int(line.split()[1]) for line in open(status) if "
             "line.startswith('Threads:')][0] if os.path.exists(status) else None)\n"
             f"print(([os.environ.get(v) for v in {_BLAS_THREADS!r}], 'numpy' in sys.modules, "
             "threads))")


def _blas_run(argv, **caller):
    """(thread counts, numpy loaded, threads) after argv, with only caller's thread counts set."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    proc = _fresh_python(_BLAS_RUN, *argv, env={**env, **caller})
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_cli_caps_blas_threads_for_its_workers(tmp_path):
    # two n values are two tasks, so the two workers fork from a capped parent
    caps, numpy_loaded, _ = _blas_run(
        ["radial-g", "--model", "fpp", "--dist", "unif:0.5:1.5", "--n-grid", "2,4",
         "--trials", "2", "--workers", "2", "--out", str(tmp_path / "o")])
    assert numpy_loaded
    assert caps == ["1", "1", "1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cli_process_runs_one_thread_once_numpy_is_loaded():
    # OpenBLAS uncapped starts a thread for each further CPU when numpy loads
    caps, numpy_loaded, threads = _blas_run(["lpp-exact", "--model", "exp", "--x", "1,1"])
    assert numpy_loaded and caps[0] == "1"
    assert threads == 1


def test_cli_keeps_a_callers_thread_count():
    caps, numpy_loaded, _ = _blas_run(["lpp-exact", "--model", "exp", "--x", "1,1"],
                                      OMP_NUM_THREADS="2")
    assert numpy_loaded
    assert caps == [None, "2", None]


# -- the command line's exit --------------------------------------------------------
# `entry` ends the process with os._exit once main has returned and stdout and
# stderr are flushed, unless a profiler or tracer is attached


def _cli(*argv, unbuffered=False, **popen) -> subprocess.CompletedProcess:
    """`python -m latticegrow.cli argv` in a fresh interpreter, stdout and stderr piped
    unless popen redirects them; stdout is block-buffered, as on a pipe by default,
    unless unbuffered sets PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(latticegrow.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "latticegrow.cli", *argv], text=True,
                          env=env, timeout=300,
                          **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen})


@pytest.mark.parametrize("argv,code", [
    (["eden", "--steps", "50"], 0),
    (["radial-g", "--model", "fpp", "--dist", "unif:0.5:1.5", "--n-grid", "2,4", "--trials", "2",
      "--workers", "2"], 0),
    (["idla", "--steps", "0"], 2),
    (["idla", "--dim", "10", "--steps", "40", "--seed", "3"], 3),
    (["lpp-exact", "--model", "geom", "--p", "0.5", "--x", "1,1"], 0),
    (["lpp-exact", "--model", "exp", "--p", "0.5", "--x", "1,1"], 2),
])
def test_cli_process_prints_and_exits_as_main_returns(argv, code, tmp_path, capsys):
    # every line main prints arrives through the pipes, and the process exits
    # with main's code: the "wrote" lines, the value, and the messages of 2 and 3
    if argv[0] != "lpp-exact":
        argv = argv + ["--out", str(tmp_path / "o")]
    assert main(argv) == code
    printed = capsys.readouterr()
    proc = _cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, printed.out, printed.err)
    assert printed.out if code == 0 else printed.err


_EDEN = ["eden", "--steps", "50"]


@pytest.mark.parametrize("argv,unbuffered,closed,code", [
    (_EDEN, False, ("stdout",), 141),
    (_EDEN, True, ("stdout",), 141),
    (["--help"], False, ("stdout",), 141),
    (_EDEN, False, ("stdout", "stderr"), 141),
    (_EDEN, False, ("stderr",), 0),
    (["idla", "--steps", "0"], False, ("stderr",), 2),
    (["idla", "--steps", "0"], False, ("stdout", "stderr"), 2),  # 2>&1 | head -0
    (["idla", "--steps", "x"], False, ("stderr",), 2),  # argparse's usage error
    (["idla", "--dim", "10", "--steps", "40", "--seed", "3"], False, ("stderr",), 3),
])
def test_cli_closed_pipe_exits_without_traceback(argv, unbuffered, closed, code, tmp_path):
    # a reader that closed its pipe before the run reported (`| head -0`): a lost
    # stdout report is exit 141 (buffered, the flush fails, unbuffered, the first
    # print; --help exits in argparse), a lost stderr message keeps main's code,
    # the open pipe gets no traceback, and the run's files are written
    out = tmp_path / "o"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli(*argv, *(["--out", str(out)] if argv != ["--help"] else []),
                    unbuffered=unbuffered, **dict.fromkeys(closed, write))
    finally:
        os.close(write)
    assert proc.returncode == code
    if "stdout" not in closed:
        wrote = f"wrote {out}/eden_trace.csv\nwrote {out}/summary.json\n"
        assert proc.stdout == (wrote if code == 0 else "")
    if "stderr" not in closed:
        assert proc.stderr == ""
    if argv == _EDEN:
        assert sorted(p.name for p in out.iterdir()) == ["eden_trace.csv", "summary.json"]


def test_cli_closed_stdout_descriptor_runs_silently(tmp_path):
    # started with no stdout at all (`>&-`), sys.stdout is None: the run's files
    # are written and it exits 0
    out = tmp_path / "o"
    proc = _cli("eden", "--steps", "50", "--out", str(out), preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in out.iterdir()) == ["eden_trace.csv", "summary.json"]


def test_cli_usage_error_exits_2_through_the_entry():
    proc = _cli("idla", "--steps", "x")
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: argument --steps: invalid int value: 'x'\n")


# a CLI run whose atexit hook writes "teardown" into the file argv[1]; with argv[2]
# "trace" it runs under a trace function first
_TEARDOWN_RUN = ("import atexit, sys\n"
                 "path = sys.argv[1]\n"
                 "atexit.register(lambda: open(path, 'w').write('teardown'))\n"
                 "if sys.argv[2] == 'trace':\n"
                 "    sys.settrace(lambda *event: None)\n"
                 "from latticegrow import cli\n"
                 "cli.entry(sys.argv[3:])\n")


@pytest.mark.parametrize("traced", [False, True])
def test_cli_entry_skips_teardown_unless_traced(traced, tmp_path):
    hook = tmp_path / "hook"
    proc = _fresh_python(_TEARDOWN_RUN, str(hook), "trace" if traced else "plain",
                         "eden", "--steps", "50", "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote ")
    assert hook.exists() == traced


def test_cli_under_cprofile_writes_its_profile(tmp_path):
    src = str(Path(latticegrow.__file__).parents[1])
    profile = tmp_path / "f"
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(profile), "-m",
                           "latticegrow.cli", "eden", "--steps", "50", "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert profile.stat().st_size > 0


def test_console_script_is_the_entry():
    pyproject = Path(latticegrow.__file__).parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("an installed package has no pyproject.toml beside it")
    assert 'latticegrow = "latticegrow.cli:entry"' in pyproject.read_text()


# os._exit is the last call: it reports whether any child of the run is left,
# reaped or not, then exits
_CHILD_CHECK = ("import os, sys\n"
                "from latticegrow import cli\n"
                "exit = os._exit\n"
                "def checked(code):\n"
                "    try:\n"
                "        os.waitpid(-1, os.WNOHANG)\n"
                "        print('a child is left', flush=True)\n"
                "    except ChildProcessError:\n"
                "        print('no child', flush=True)\n"
                "    exit(code)\n"
                "os._exit = checked\n"
                "cli.entry(sys.argv[1:])\n")


def test_cli_pooled_run_leaves_no_child(tmp_path):
    # os._exit skips multiprocessing's exit hooks, so the pool must be gone by then
    proc = _fresh_python(_CHILD_CHECK, "radial-g", "--model", "fpp", "--dist", "unif:0.5:1.5",
                         "--n-grid", "2,4", "--trials", "2", "--workers", "2",
                         "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "no child"


def test_one_task_run_forks_nothing(monkeypatch, tmp_path):
    # the pool starts at most one process a task, and a single task runs in
    # this process
    import multiprocessing

    pools = []
    pool = multiprocessing.Pool

    def spy(processes=None, *args, **kwargs):
        pools.append(processes)
        return pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    # flat-edge at n = 50 solves its 4 trials as one batch
    assert main(["flat-edge", "--dist", "twopoint:0.55", "--n-grid", "50", "--trials", "4",
                 "--workers", "2", "--out", str(tmp_path / "one")]) == 0
    assert pools == []
    # radial-g sends one task an n: two tasks on two of eight workers
    assert main(["radial-g", "--model", "fpp", "--dist", "unif:0.5:1.5", "--n-grid", "2,4",
                 "--trials", "2", "--workers", "8", "--out", str(tmp_path / "two")]) == 0
    assert pools == [2]


def test_pool_starts_at_most_the_processes_the_budget_holds(monkeypatch, tmp_path):
    # a process holds one task at a time, so the pool starts at most
    # MEMORY_BUDGET // (the largest task's bytes) of them, and the samples do
    # not depend on how many
    import multiprocessing

    pools = []
    pool = multiprocessing.Pool

    def spy(processes=None, *args, **kwargs):
        pools.append(processes)
        return pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    spec = parse_dist_token("unif:0.5:1.5")
    # one task an n, each a batch of both trials
    most = max(fpp._point_task((n, n), spec)[1] for n in (2, 4, 8))
    csvs = []
    for budget in (3 * most, 3 * most - 1, 2 * most - 1):
        monkeypatch.setattr(estimators, "MEMORY_BUDGET", budget)
        out = tmp_path / str(budget)
        assert main(["radial-g", "--model", "fpp", "--dist", "unif:0.5:1.5", "--n-grid", "2,4,8",
                     "--trials", "2", "--workers", "8", "--out", str(out)]) == 0
        csvs.append((out / "radial_g.csv").read_bytes())
    assert pools == [3, 2]
    assert csvs[0] == csvs[1] == csvs[2]


# the latticegrow modules each kind loads besides the package itself, cli,
# experiments and _output; eden and idla read no dist, so they skip weights
_ESTIMATION = ("estimators", "fpp", "lpp", "weights")
_KIND_RUNS = [
    (["flat-edge", "--dist", "twopoint:0.55", "--n-grid", "50", "--trials", "4"], _ESTIMATION),
    (["radial-g", "--model", "fpp", "--dist", "unif:0.5:1.5", "--n-grid", "2,4",
      "--trials", "2"], _ESTIMATION),
    (["radial-g", "--model", "lpp", "--n-grid", "2,4", "--trials", "2"], _ESTIMATION),
    (["exponents", "--n-grid", "2,4,8,16", "--trials", "200"], _ESTIMATION),
    (["fpp-shape", "--dist", "unif:0.5:1.5", "--t", "2", "--trials", "2"], _ESTIMATION),
    (["lpp-shape", "--t", "2", "--trials", "2"], _ESTIMATION),
    (["eden", "--steps", "10"], ("growth",)),
    (["idla", "--steps", "10"], ("growth",)),
    (["tasep-coupling", "--steps", "4", "--trials", "1"], ("tasep", "lpp", "weights")),
    (["oracle-check", "--dist", "unif:0.5:1.5", "--trials", "1"],
     ("oracle", "fpp", "lpp", "weights")),
    (["lpp-exact", "--model", "exp", "--x", "1,1"], ("lpp", "weights")),
]


def test_cli_kinds_import_no_scipy(tmp_path):
    # importing scipy.sparse costs about half a second and 30 MB per process,
    # and each kind imports only its own solvers: every kind runs in a fresh
    # interpreter, which then lists the latticegrow and scipy modules it loaded
    code = ("import sys; from latticegrow import cli; assert cli.main(sys.argv[1:]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('latticegrow', 'scipy')))")
    for i, (argv, modules) in enumerate(_KIND_RUNS):
        if argv[0] != "lpp-exact":
            argv = argv + ["--out", str(tmp_path / str(i))]
        proc = _fresh_python(code, *argv)
        assert proc.returncode == 0, proc.stderr
        expected = sorted(["latticegrow", *(f"latticegrow.{m}" for m in
                                            ("cli", "experiments", "_output", *modules))])
        assert proc.stdout.splitlines()[-1] == repr(expected), argv[0]


# a 401-digit integer: a float holds at most 309 digits
_HUGE = "9" * 401


@pytest.mark.parametrize(
    "argv,field",
    [
        (["flat-edge", "--dist", "twopoint:0.8", "--n-grid", "10", "--trials", "2"], "n_grid"),
        (["exponents", "--n-grid", "8,16,32,64", "--trials", "5"], "trials"),
        (["exponents", "--n-grid", "4,8,16", "--trials", "200"], "n_grid"),
        (["radial-g", "--model", "lpp", "--n-grid", "4,8", "--trials", "1"], "trials"),
        (["radial-g", "--model", "lpp", "--n-grid", "4,8", "--trials", "5",
          "--direction", "1,-1"], "direction"),
        (["radial-g", "--model", "lpp", "--n-grid", "4,8", "--trials", "5",
          "--direction", "0,0"], "direction"),
        (["radial-g", "--model", "lpp", "--n-grid", "4,4", "--trials", "5"], "n_grid"),
        (["radial-g", "--model", "fpp", "--dist", "const:0", "--n-grid", "4,8",
          "--trials", "5"], "dist"),
        (["oracle-check", "--dist", "const:0", "--trials", "2"], "dist"),
        (["tasep-coupling", "--steps", "1", "--trials", "2"], "steps"),
        (["lpp-shape", "--t", "4", "--trials", "2", "--dim", "3"], "dim"),
        (["radial-g", "--model", "lpp", "--n-grid", "4,8", "--trials", "5", "--dim", "3"],
         "dim"),
        (["eden", "--steps", "10", "--t", "5", "--model", "lpp", "--n-grid", "3"], "model"),
        (["eden", "--dist", "twopoint:0.5", "--trials", "7", "--workers", "3"], "dist"),
        (["radial-g", "--model", "lpp", "--dist", "unif:0.5:inf", "--n-grid", "2,4",
          "--trials", "3"], "dist"),
        (["radial-g", "--model", "fpp", "--dist", "exp:inf", "--n-grid", "2,4",
          "--trials", "3"], "dist"),
        (["lpp-shape", "--dist", "const:inf", "--t", "3", "--trials", "2"], "dist"),
        (["idla", "--dim", "13", "--steps", "1"], "dim"),
        (["idla", "--steps", "1000000000"], "steps"),
        (["tasep-coupling", "--steps", "100000000", "--trials", "1"], "steps"),
        (["fpp-shape", "--dist", "unif:0.5:1.5", "--t", "1e9", "--trials", "2"], "t"),
        (["lpp-shape", "--dist", "exp:1.0", "--t", "1e9", "--trials", "2"], "t"),
        (["flat-edge", "--dist", "twopoint:0.55", "--n-grid", "50,8192", "--trials", "2"],
         "n_grid"),
        (["radial-g", "--model", "fpp", "--n-grid", "10000000", "--trials", "2"], "n_grid"),
        (["radial-g", "--model", "lpp", "--n-grid", "10000000", "--trials", "2"], "n_grid"),
        (["eden", "--dim", "13", "--steps", "1"], "dim"),
        (["eden", "--steps", "1000000000"], "steps"),
        (["idla", "--dim", "1", "--steps", "1063"], "steps"),
        (["flat-edge", "--dist", "twopoint:0.8", "--n-grid", "60,50,60", "--trials", "2"],
         "n_grid"),
        # integers past a float's range
        (["idla", "--steps", _HUGE], "steps"),
        (["eden", "--steps", _HUGE], "steps"),
        (["radial-g", "--model", "fpp", "--n-grid", _HUGE, "--trials", "2"], "n_grid"),
        (["exponents", "--n-grid", f"8,16,32,{_HUGE}", "--trials", "200"], "n_grid"),
        # entries that do not parse
        (["radial-g", "--model", "fpp", "--n-grid", "4,x", "--trials", "2"], "n_grid"),
        (["radial-g", "--model", "fpp", "--direction", "1,a", "--n-grid", "4", "--trials", "2"],
         "direction"),
        # a law that does not parse
        (["radial-g", "--model", "lpp", "--dist", "nope:1", "--n-grid", "2,4", "--trials", "2"],
         "dist"),
    ],
)
def test_cli_bad_input_exits_2_without_traceback(argv, field, tmp_path):
    src = str(Path(latticegrow.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "latticegrow.cli", *argv, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: {field}: ")
    assert not (tmp_path / "o").exists()


# -- golden bytes -------------------------------------------------------------------
# SHA-256 of every file but summary.json, recorded before the CSV writers were
# merged into one; uniform and two-point weights keep the bytes free of libm's
# log1p wherever the kind allows another law

GOLDEN = {
    "fpp-shape": (dict(kind="fpp-shape", dist="unif:0.5:1.5", t=4.0, trials=3), {
        "fpp_shape.csv": "384da9fc2e7ba63f9154b857bac0d72bb5c197318247fd1271028ebd6fd4eaf3",
    }),
    "lpp-shape": (dict(kind="lpp-shape", dist="unif:0.5:1.5", t=4.0, trials=3), {
        "lpp_shape.csv": "2b8a0ebfc10e3a43388b05c2b51f2686ec9ea5afe541ce631846402e732ae1e1",
    }),
    "radial-g-fpp": (dict(kind="radial-g", model="fpp", dist="unif:0.5:1.5", n_grid="2,4",
                          trials=3), {
        "radial_g.csv": "6530bc1c4b86ade59735f8b1a8cb86d537cc3bfca3b50bd5230f13797e0f2ab0",
    }),
    "radial-g-lpp": (dict(kind="radial-g", model="lpp", dist="twopoint:0.6", direction="2,1",
                          n_grid="2,4,8", trials=4), {
        "radial_g.csv": "e2da92d6f1832a0cf5177b350d2f7e4edf5cead8f7191bd076b46425b4f7dbba",
    }),
    # re-recorded when variance came to share the wandering samples; the
    # earlier digests are pinned to two sample sets below
    "exponents": (dict(kind="exponents", dist="unif:0.5:1.5", n_grid="2,4,8,16",
                       trials=200), {
        "fits.json": "2dc16251133ece11ae2caa2015901fa18d6e0b636f036210be1a03be2a8707f3",
        "variance_series.csv":
            "beb9c6a508d284f65bc92d10c78d21f6dc074570c982ecc95291ac97757e41c3",
        "wandering_series.csv":
            "cbd123e90831b7f2eaa8ad6805016af54c1a4581f9137a23ccf401ddd4c1649e",
    }),
    # d = 3 on permuted, tie-heavy shapes: the longest axis is first, then
    # in the middle
    "exponents-3d": (dict(kind="exponents", dist="twopoint:0.5", dim=3, direction="2,1,1",
                          n_grid="2,4,8,16", trials=200), {
        "fits.json": "8e9d1c0ef1c28521b8406f6888002db28dd75987d4d4045e858cf9c80e4a27e2",
        "variance_series.csv":
            "824fd472b9e8613d5bd0384c45f804119fbd626005f2b09274240b0e3cf53d12",
        "wandering_series.csv":
            "18b88a868f48ad5e2ad2712e78ea8694945c386990c51740ab6f9f5fd23f3434",
    }),
    "radial-g-lpp-3d": (dict(kind="radial-g", model="lpp", dist="geom:0.5", dim=3,
                             direction="1,3,2", n_grid="2,4,8", trials=4), {
        "radial_g.csv": "3ab9a332a9c4342892037e9f62e74681a87bb267c9d1997f03e1f91d6c3e497f",
    }),
    "flat-edge": (dict(kind="flat-edge", dist="twopoint:0.8", n_grid="50", trials=2), {
        "flat_edge.csv": "e910a6d0328f51ed9f1f12cca0c9abb2975dfe344eb5df1aa1f846e08ef7f134",
    }),
    # p = 0.55 reaches the window solve; the p = 0.8 entry never does
    "flat-edge-window": (dict(kind="flat-edge", dist="twopoint:0.55", n_grid="50,120",
                              trials=3), {
        "flat_edge.csv": "1df80de5c668f6473bc72b80f270407f6c53e236bb8cd8bb3ca238386625adbc",
    }),
    "eden": (dict(kind="eden", steps=300, seed=5), {
        "eden_trace.csv": "d525b21fa976d7261c3b106f9bd147bac2e99bbdc917397ad01ee819b9eb3a6c",
    }),
    # re-recorded when the d = 2 walker came to jump across occupied squares;
    # the earlier digests are pinned to the walkers they came from below
    "idla": (dict(kind="idla", steps=300, seed=2), {
        "idla_roundness.csv": "c378af207baad14118cc4bc7f246e5377654cb6c9aee00bb41f6be2d5ee0fcbf",
        "idla_trace.csv": "a6fe12fbfcab737f6fedab3d2a8186a63c584b3f31a76ebb9037d54cd8db93b4",
    }),
    # TASEP coupling only accepts exp:1.0
    "tasep-coupling": (dict(kind="tasep-coupling", dist="exp:1.0", steps=6, trials=2), {
        "tasep_table.csv": "a98a553450b857a4452be72742b5059d9fba5d3fb0592745bb0f5a4c8c7856d0",
    }),
    "oracle-check": (dict(kind="oracle-check", dist="unif:0.5:1.5", trials=2), {
        "oracle_check.csv": "3828d1ae583d629df9f2a42f32d951987bfa0b6226c38e46a270206b8111102b",
    }),
    # the shape configs of scripts/shape_gallery.py, recorded while each trial
    # still shipped its ball as a set and the rays were scanned point by point
    "fpp-shape-gallery-unif": (dict(kind="fpp-shape", dist="unif:0.5:1.5", t=16.0,
                                    trials=40), {
        "fpp_shape.csv": "775eed97a151b3d8b57c2af99cd8764b3d99d65662cb3b7356b953610356d419",
    }),
    "fpp-shape-gallery-twopoint": (dict(kind="fpp-shape", dist="twopoint:0.8", t=24.0,
                                        trials=40), {
        "fpp_shape.csv": "63b21450a27f77bf47ef744f53e8e73d6e030a4c35ff657f0947fdf38727336a",
    }),
    "lpp-shape-gallery-exp": (dict(kind="lpp-shape", dist="exp:1.0", t=32.0, trials=40), {
        "lpp_shape.csv": "c0a14c6e91e38e6d47247571fe95962572cd789573c73a0df78ef1cdb679d42c",
    }),
}


def _digests(d: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.name != "summary.json"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(name, tmp_path):
    kw, expected = GOLDEN[name]
    run_experiment(_cfg(**kw, out=str(tmp_path)))
    assert _digests(tmp_path) == expected


def test_idla_chunk_loop_matches_earlier_golden(monkeypatch, tmp_path):
    from test_growth import _idla_reference_2d

    monkeypatch.setattr(growth, "idla_grow", lambda seed, d, particles: ClusterTrace(
        "idla", seed, d, _idla_reference_2d(seed, particles)))
    run_experiment(_cfg(kind="idla", steps=300, seed=2, out=str(tmp_path)))
    assert _digests(tmp_path) == {
        "idla_roundness.csv": "6f19a9a093f6e6518cc9b79197192b980352b13c6f5efb857818feafd31a3388",
        "idla_trace.csv": "b1792d36c1186a256b266609520b9f121455c6f51eb98af67944f5954be60d28",
    }


def test_exponents_two_sample_sets_match_earlier_golden(monkeypatch, tmp_path):
    # variance and wandering from sample sets of their own, as exponents drew
    # them before one sweep gave both; independent fits have no covariance
    def two_sample_sets(*args, **kw):
        vs = estimators.variance_series(*args, **kw)
        return estimators.Fluctuations(vs, estimators.wandering_series(*args, **kw),
                                       np.zeros(len(vs.ns)))

    monkeypatch.setattr(estimators, "fluctuation_series", two_sample_sets)
    earlier = {
        "exponents": ("610de7120f6d944a0a5764291cabeee9ef8217ce8bbef096eb8ad3f8a10efe82",
                      "6638342fca8f53b21de5ce3e1992066c8504a09cd29821c51dd993ebe4d6153a"),
        "exponents-3d": ("bbb1eb719b9b7acf0b622ab9b02277f127d82e92ab61fd52a8f35572e0b81766",
                         "75aeffd680639be8d060a6dd22ec5b27b635a2377a94362a6d6c7dfc0c58658b"),
    }
    for name, (fits, variance) in earlier.items():
        kw, expected = GOLDEN[name]
        run_experiment(_cfg(**kw, out=str(tmp_path / name)))
        assert _digests(tmp_path / name) == {
            "fits.json": fits, "variance_series.csv": variance,
            "wandering_series.csv": expected["wandering_series.csv"]}


def test_idla_block_walker_matches_earlier_golden(monkeypatch, tmp_path):
    # the step-by-step walker, which d = 2 ran before its jumps
    monkeypatch.setattr(growth, "idla_grow", lambda seed, d, particles: ClusterTrace(
        "idla", seed, d, growth._walk_blocks(seed, d, particles)))
    run_experiment(_cfg(kind="idla", steps=300, seed=2, out=str(tmp_path)))
    assert _digests(tmp_path) == {
        "idla_roundness.csv": "0c570515b7f2016bf3e9166551076ed98959a20f814ed91befddfd7163fe72c2",
        "idla_trace.csv": "69ed5e71ddf2131e5aab83910c02121b7230ee535c6e7bbb6ba942148adec55c",
    }


def test_oracle_mismatch_row_matches_golden(monkeypatch, tmp_path):
    real = oracle.brute_force_lpp
    monkeypatch.setattr(oracle, "brute_force_lpp",
                        lambda f, idx: -1.0 if idx == (0, 1) else real(f, idx))
    with pytest.raises(HardFailure):
        run_experiment(_cfg(kind="oracle-check", dist="unif:0.5:1.5", trials=1,
                            out=str(tmp_path)))
    assert (tmp_path / "oracle_check.csv").read_text() == 'trial,kind,target\n0,lpp,"[0, 1]"\n'
    assert _digests(tmp_path) == {
        "oracle_check.csv": "a007b97030b86aa1d8df1846900685ecff78e032e0685ce9b9bd80865b84076a",
    }
