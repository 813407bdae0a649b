"""Oriented last-passage times by dynamic programming, plus closed-form shapes.

The table entry at x is the maximal total vertex weight over oriented (all
coordinates nondecreasing) paths from the origin to x, with the initial
vertex excluded from every sum, so T(0, 0) = 0 and axis rows are plain
cumulative sums.  Every interior entry satisfies

    T[x] = w[x] + max over the d backward neighbors of T

exactly; the vectorized d = 2 sweep walks anti-diagonals so each cell is
computed by that literal recursion (one max, one add) and the resulting
floats are bit-identical to a scalar raster evaluation.  That makes the
table directly comparable, bit for bit, against the exclusion-process step
times built from the same weight field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._output import write_csv
from .weights import WeightField

__all__ = [
    "LppTimeMap",
    "OrientedPath",
    "ExactShape",
    "lpp_dp",
    "lpp_geodesic",
    "lpp_time_between",
    "exact_g",
    "martin_asymptote",
    "exact_shape_for",
]


@dataclass
class LppTimeMap:
    """Rectangle of last-passage times T(origin, origin + x) for 0 <= x <= corner."""

    corner: tuple
    table: np.ndarray
    field: WeightField
    origin: tuple

    def time_to(self, x) -> float:
        x = tuple(int(c) for c in x)
        if any(c < 0 for c in x) or any(a > b for a, b in zip(x, self.corner)):
            raise KeyError(f"{x} lies outside the computed rectangle {self.corner}")
        return float(self.table[x])

    def to_csv(self, path) -> None:
        d = len(self.corner)
        idx = np.indices(self.table.shape).reshape(d, -1)
        write_csv(path, [f"x{i + 1}" for i in range(d)] + ["T"], [*idx, self.table.ravel()])


def _weights_grid(field: WeightField, corner, origin) -> np.ndarray:
    axes = [np.arange(o, o + c + 1, dtype=np.int64) for o, c in zip(origin, corner)]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return field.vertex_weights(coords)


def _dp_2d(w: np.ndarray) -> np.ndarray:
    """Anti-diagonal sweep of the corner-growth recursion on a weight grid."""
    m, n = w.shape[0] - 1, w.shape[1] - 1
    # pad with one -inf row and column so missing neighbors lose every max
    t = np.full((m + 2, n + 2), -math.inf)
    t[1, 1] = 0.0
    for k in range(1, m + n + 1):
        ii = np.arange(max(0, k - n), min(m, k) + 1)
        jj = k - ii
        up = t[ii, jj + 1]
        left = t[ii + 1, jj]
        # each cell is literally w + max(up, left): bit-exact raster semantics
        t[ii + 1, jj + 1] = w[ii, jj] + np.maximum(up, left)
    return t[1:, 1:]


def _dp_general(w: np.ndarray) -> np.ndarray:
    shape = w.shape
    t = np.zeros(shape)
    for idx in np.ndindex(shape):
        if all(c == 0 for c in idx):
            t[idx] = 0.0
            continue
        best = -math.inf
        for j in range(len(shape)):
            if idx[j] > 0:
                prev = t[idx[:j] + (idx[j] - 1,) + idx[j + 1 :]]
                if prev > best:
                    best = prev
        t[idx] = w[idx] + best
    return t


def lpp_dp(field: WeightField, corner, origin=None) -> LppTimeMap:
    """Exact oriented last-passage table over the rectangle [0, corner].

    origin translates the whole rectangle, which computes T(origin, origin+x)
    on the same environment; this is how superadditivity T(0,z) >= T(0,y) +
    T(y,z) is checked against recomputed shifted tables.
    """
    if field.attachment != "vertex":
        raise ValueError("LPP needs a vertex weight field")
    corner = tuple(int(c) for c in corner)
    if len(corner) != field.dimension:
        raise ValueError("corner does not match field dimension")
    if any(c < 0 for c in corner):
        raise ValueError(f"corner must be componentwise nonnegative, got {corner}")
    if origin is None:
        origin = (0,) * field.dimension
    origin = tuple(int(c) for c in origin)

    w = _weights_grid(field, corner, origin)
    if field.dimension == 2:
        table = _dp_2d(w)
    else:
        table = _dp_general(w)
    return LppTimeMap(corner=corner, table=table, field=field, origin=origin)


def lpp_time_between(field: WeightField, y, z) -> float:
    """T(y, z) recomputed from scratch on the shifted rectangle."""
    y = tuple(int(c) for c in y)
    z = tuple(int(c) for c in z)
    if any(b < a for a, b in zip(y, z)):
        raise ValueError(f"need y <= z componentwise, got {y}, {z}")
    corner = tuple(b - a for a, b in zip(y, z))
    return lpp_dp(field, corner, origin=y).time_to(corner)


@dataclass(frozen=True)
class OrientedPath:
    """Coordinatewise nondecreasing path; vertices exclude the initial point."""

    start: tuple
    vertices: tuple
    total_time: float


def lpp_geodesic(lmap: LppTimeMap, field: WeightField, target) -> OrientedPath:
    """Argmax backtracking through the table; ties prefer the first-axis predecessor."""
    if field is not lmap.field and field != lmap.field:
        raise ValueError("geodesic field does not match the map's field")
    target = tuple(int(c) for c in target)
    if any(c < 0 for c in target) or any(a > b for a, b in zip(target, lmap.corner)):
        raise ValueError(f"target {target} outside rectangle {lmap.corner}")
    d = len(lmap.corner)
    t = lmap.table
    path = []
    cur = target
    while any(c != 0 for c in cur):
        path.append(cur)
        best_axis = None
        best_val = -math.inf
        for j in range(d):
            if cur[j] > 0:
                prev = cur[:j] + (cur[j] - 1,) + cur[j + 1 :]
                val = t[prev]
                # strict > means exact ties keep the smallest axis
                if best_axis is None or val > best_val:
                    best_axis = j
                    best_val = val
        cur = cur[: best_axis] + (cur[best_axis] - 1,) + cur[best_axis + 1 :]
    path.reverse()
    return OrientedPath(
        start=(0,) * d,
        vertices=tuple(path),
        total_time=float(t[target]),
    )


@dataclass(frozen=True)
class ExactShape:
    """Closed-form limit shape function for the two exactly solvable models.

    model 'exponential' is the rate-1 exponential case with
    g(x1, x2) = (sqrt(x1) + sqrt(x2))^2; model 'geometric' with success
    probability p has g(x1, x2) = (x1 + x2 + 2 sqrt(x1 x2 (1-p))) / p.
    Both are homogeneous of degree 1 and symmetric in the coordinates.
    """

    model: str
    p: float | None = None

    def __post_init__(self):
        if self.model not in ("exponential", "geometric"):
            raise ValueError(f"unknown exact shape model {self.model!r}")
        if self.model == "geometric":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError("geometric shape needs p in (0, 1)")


def exact_shape_for(spec) -> ExactShape:
    """The exact shape matching a weight distribution, if one exists."""
    if spec.kind == "exponential" and spec.params[0] == 1.0:
        return ExactShape("exponential")
    if spec.kind == "geometric":
        return ExactShape("geometric", p=spec.params[0])
    raise ValueError(f"no closed-form shape for distribution {spec.token()}")


def exact_g(shape: ExactShape, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 2:
        raise ValueError("exact shapes are two-dimensional")
    if np.any(x < 0):
        raise ValueError("exact shapes are defined on the nonnegative quadrant")
    x1, x2 = x[..., 0], x[..., 1]
    if shape.model == "exponential":
        out = (np.sqrt(x1) + np.sqrt(x2)) ** 2
    else:
        out = (x1 + x2 + 2.0 * np.sqrt(x1 * x2 * (1.0 - shape.p))) / shape.p
    return float(out) if out.ndim == 0 else out


def martin_asymptote(mu: float, sigma: float, a: float) -> float:
    """Leading-order boundary behavior mu + 2 sigma sqrt(a) of g(1, a) as a -> 0."""
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return mu + 2.0 * sigma * math.sqrt(a)
