"""One-off pilot for the acceptance-suite constants.

Runs the heavy Monte Carlo pieces at full acceptance size and prints the
numbers the frozen tolerances rest on.  Not part of the test suite.
"""

import math
import time

from latticegrow import (
    estimate_radial_g,
    exponential,
    flat_edge_probe,
    fluctuation_series,
    geometric,
    idla_grow,
    roundness,
)
from latticegrow.weights import derive_seed

MASTER = 20250810  # the acceptance suite's master seed
WORKERS = 4


def timed(label, fn):
    t0 = time.time()
    out = fn()
    print(f"[{time.time() - t0:7.1f}s] {label}")
    return out


def pilot_flat_edge():
    for p in (0.8, 0.55):
        rep = timed(
            f"flat edge p={p}",
            lambda: flat_edge_probe(p, 300, trials=200, seed=MASTER, workers=WORKERS),
        )
        print(f"  p={p}: mean ratio {rep.mean_ratio:.5f} +- {rep.stderr:.5f}  ci {rep.ci95}")


def pilot_idla():
    ratios = []
    for seed in range(10):
        # criterion 8's seeds, so the pilot reproduces the frozen numbers
        trace = timed(f"idla seed {seed}",
                      lambda: idla_grow(derive_seed(MASTER, "acc8", seed), 2, 20_000))
        rin, rout = roundness(trace, 20_000)
        ratios.append(rout / rin)
        print(f"  seed {seed}: in {rin:.2f} out {rout:.2f} ratio {rout / rin:.4f}")
    print(f"  max ratio {max(ratios):.4f}")


def pilot_rost_and_geometric():
    for spec, label, g in ((exponential(1.0), "exp", 4.0),
                           (geometric(0.5), "geom", 4.0 + 2.0 * math.sqrt(2.0))):
        seq = timed(
            f"radial {label} n=64,256 x500",
            lambda: estimate_radial_g("lpp", spec, (1, 1), [64, 256], 500,
                                      MASTER, workers=WORKERS),
        )
        for n, m, s in zip(seq.ns, seq.values, seq.stderrs):
            print(f"  {label} n={n}: {m:.5f} +- {s:.5f}  (limit {g:.5f})")
        gap_sig = (seq.values[1] - seq.values[0]) / math.hypot(seq.stderrs[0], seq.stderrs[1])
        print(f"  monotone separation: {gap_sig:.1f} combined SEs")


def pilot_exponents():
    grid = [64, 128, 256, 512, 1024]
    fl = timed(
        "variance and wandering series x500",
        lambda: fluctuation_series("lpp", exponential(1.0), (1, 1), grid, 500,
                                   MASTER, workers=WORKERS),
    )
    fits = fl.fits()
    chi, xi = fits["chi"], fits["xi"]
    print(f"  chi = {chi['slope']:.4f} +- {chi['slope_stderr']:.4f}")
    print(f"  xi  = {xi['slope']:.4f} +- {xi['slope_stderr']:.4f}")
    print(f"  kpz residual = {fits['kpz_residual']:.4f} +- {fits['kpz_residual_stderr']:.4f}")
    for n, v, d in zip(grid, fl.variance.values, fl.wandering.values):
        print(f"  n={n}: var {v:.3f} meanD {d:.3f}")


if __name__ == "__main__":
    t0 = time.time()
    pilot_flat_edge()
    pilot_idla()
    pilot_rost_and_geometric()
    pilot_exponents()
    print(f"total {time.time() - t0:.1f}s")
