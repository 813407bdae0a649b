"""Reproducible i.i.d. weight environments over the unbounded lattice.

A weight field assigns one nonnegative random weight to every edge or vertex
of Z^d.  Weights are generated counter-style: the weight of an element is a
pure function of (seed, element identity), so solvers may visit elements in
any data-dependent order and always see the same environment, and the
infinite lattice needs no pre-allocated state.

Two evaluation routes exist and must not be mixed inside a single bit-exact
comparison:

* the scalar route (``weight_at``), built on Python integer arithmetic and
  ``math`` transcendentals, used by the path-at-a-time solvers;
* the vector route (``vertex_weights`` / ``edge_weights``), built on numpy
  uint64 arithmetic and numpy transcendentals, used by the table solvers.

Both routes produce identical hash bits; for distributions whose quantile is
pure arithmetic (uniform, two-point, constant) the final weights are bit
identical as well.  For exponential and geometric weights the two routes may
differ in the last ulp because libm and numpy's vectorized ``log1p`` are not
bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistributionSpec",
    "WeightField",
    "exponential",
    "geometric",
    "uniform",
    "two_point",
    "constant",
    "make_field",
    "weight_at",
    "quantile",
    "parse_dist_token",
    "derive_seed",
]

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_VERTEX_TAG = 0x76
_EDGE_TAG = 0x65


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on Python ints (mod 2^64)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    return z ^ (z >> 31)


def _hash_words_int(seed: int, words) -> int:
    h = _mix_int((seed & _MASK) ^ _GOLD)
    for w in words:
        h = _mix_int(h ^ ((w + _GOLD) & _MASK))
    return h


_NP_GOLD = np.uint64(_GOLD)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_INV53 = 2.0 ** -53


def _mix_np(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> _U30)
    z = z * _NP_MIX1
    z = z ^ (z >> _U27)
    z = z * _NP_MIX2
    return z ^ (z >> _U31)


def _hash_words_np(seed: int, word_arrays) -> np.ndarray:
    """Vector mirror of :func:`_hash_words_int`; word_arrays broadcast together.

    The seed absorption runs through the integer mixer (same function mod
    2^64) so the two routes stay bit-identical word for word.
    """
    shape = np.broadcast_shapes(*(a.shape for a in word_arrays))
    h = np.full(shape, _mix_int((seed & _MASK) ^ _GOLD), dtype=np.uint64)
    for w in word_arrays:
        h = _mix_np(h ^ (np.broadcast_to(w, shape).astype(np.uint64) + _NP_GOLD))
    return h


def _to_u64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64).view(np.uint64)


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class DistributionSpec:
    """One of the supported nonnegative weight distributions.

    kind is 'exponential', 'geometric', 'uniform', 'twopoint' or 'constant';
    params holds the kind-specific parameters.  All kinds have closed-form
    mean and variance.  The geometric distribution is supported on {1, 2, ...}
    with P(k) = p (1-p)^(k-1); the two-point distribution takes value 1 with
    probability p and value 2 otherwise.
    """

    kind: str
    params: tuple

    def mean(self) -> float:
        k, p = self.kind, self.params
        if k == "exponential":
            return 1.0 / p[0]
        if k == "geometric":
            return 1.0 / p[0]
        if k == "uniform":
            return 0.5 * (p[0] + p[1])
        if k == "twopoint":
            return 2.0 - p[0]
        return p[0]

    def variance(self) -> float:
        k, p = self.kind, self.params
        if k == "exponential":
            return 1.0 / p[0] ** 2
        if k == "geometric":
            return (1.0 - p[0]) / p[0] ** 2
        if k == "uniform":
            return (p[1] - p[0]) ** 2 / 12.0
        if k == "twopoint":
            return p[0] * (1.0 - p[0])
        return 0.0

    def support_min(self) -> float:
        k, p = self.kind, self.params
        if k in ("exponential",):
            return 0.0
        if k == "geometric":
            return 1.0
        if k == "uniform":
            return p[0]
        if k == "twopoint":
            return 1.0
        return p[0]

    def is_continuous(self) -> bool:
        return self.kind in ("exponential", "uniform")

    # quantile, scalar route (math.*)
    def quantile_scalar(self, u: float) -> float:
        if not 0.0 <= u < 1.0:
            raise ValueError(f"quantile argument must lie in [0, 1), got {u}")
        k, p = self.kind, self.params
        if k == "exponential":
            return -math.log1p(-u) / p[0]
        if k == "geometric":
            if u == 0.0:
                return 1.0
            return max(1.0, math.ceil(math.log1p(-u) / math.log1p(-p[0])))
        if k == "uniform":
            return p[0] + (p[1] - p[0]) * u
        if k == "twopoint":
            return 1.0 if u < p[0] else 2.0
        return p[0]

    # quantile, vector route (numpy)
    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if np.any(u < 0.0) or np.any(u >= 1.0):
            raise ValueError("quantile argument must lie in [0, 1)")
        k, p = self.kind, self.params
        if k == "exponential":
            return -np.log1p(-u) / p[0]
        if k == "geometric":
            out = np.ceil(np.log1p(-u) / math.log1p(-p[0]))
            return np.maximum(out, 1.0)
        if k == "uniform":
            return p[0] + (p[1] - p[0]) * u
        if k == "twopoint":
            return np.where(u < p[0], 1.0, 2.0)
        return np.full_like(u, p[0])

    def token(self) -> str:
        name = next(t for t, (kind, _, _) in _TOKENS.items() if kind == self.kind)
        return name + "".join(":" + format(v, ".17g") for v in self.params)


def exponential(rate: float) -> DistributionSpec:
    if not rate > 0:
        raise ValueError(f"exponential rate must be positive, got {rate}")
    return DistributionSpec("exponential", (float(rate),))


def geometric(p: float) -> DistributionSpec:
    if not 0.0 < p < 1.0:
        raise ValueError(f"geometric success probability must lie in (0, 1), got {p}")
    return DistributionSpec("geometric", (float(p),))


def uniform(a: float, b: float) -> DistributionSpec:
    if not (0.0 <= a < b):
        raise ValueError(f"uniform needs 0 <= a < b, got a={a}, b={b}")
    return DistributionSpec("uniform", (float(a), float(b)))


def two_point(p: float) -> DistributionSpec:
    if not 0.0 < p < 1.0:
        raise ValueError(f"two-point atom probability must lie in (0, 1), got {p}")
    return DistributionSpec("twopoint", (float(p),))


def constant(c: float) -> DistributionSpec:
    if c < 0:
        raise ValueError(f"constant weight must be nonnegative, got {c}")
    return DistributionSpec("constant", (float(c),))


# token name -> (kind, builder, parameter count)
_TOKENS = {
    "exp": ("exponential", exponential, 1),
    "geom": ("geometric", geometric, 1),
    "unif": ("uniform", uniform, 2),
    "twopoint": ("twopoint", two_point, 1),
    "const": ("constant", constant, 1),
}


def parse_dist_token(token: str) -> DistributionSpec:
    """Parse a textual distribution token such as ``exp:1.0`` or ``unif:0.5:1.5``."""
    parts = token.strip().split(":")
    name = parts[0]
    if name not in _TOKENS:
        raise ValueError(f"unknown distribution token {token!r}")
    _, builder, nargs = _TOKENS[name]
    if len(parts) - 1 != nargs:
        raise ValueError(f"distribution token {token!r} needs {nargs} parameter(s)")
    return builder(*(float(x) for x in parts[1:]))


def quantile(spec: DistributionSpec, u) -> float | np.ndarray:
    """Inverse CDF of spec; monotone in u, pushes Uniform[0,1) to spec."""
    if isinstance(u, np.ndarray):
        return spec.quantile_array(u)
    return spec.quantile_scalar(float(u))


# ---------------------------------------------------------------------------
# weight fields


@dataclass(frozen=True)
class WeightField:
    """Deterministic i.i.d. environment on the edges or vertices of Z^d.

    An edge is identified by its lexicographically lower endpoint and the
    axis it spans, so the two orientations of an edge always yield the same
    weight.  All lookups are pure; fields may be shared freely across
    workers.
    """

    spec: DistributionSpec
    seed: int
    attachment: str  # 'edge' or 'vertex'
    dimension: int

    def __post_init__(self):
        if self.attachment not in ("edge", "vertex"):
            raise ValueError(f"attachment must be 'edge' or 'vertex', got {self.attachment!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    # -- scalar route --------------------------------------------------

    def vertex_weight(self, v) -> float:
        if self.attachment != "vertex":
            raise ValueError("vertex lookup on an edge field")
        v = tuple(int(c) for c in v)
        if len(v) != self.dimension:
            raise ValueError(f"vertex {v} does not match field dimension {self.dimension}")
        h = _hash_words_int(self.seed, (_VERTEX_TAG, *v))
        return self.spec.quantile_scalar((h >> 11) * _INV53)

    def edge_weight(self, x, y) -> float:
        """Weight of the edge {x, y}; symmetric in its endpoints."""
        if self.attachment != "edge":
            raise ValueError("edge lookup on a vertex field")
        x = tuple(int(c) for c in x)
        y = tuple(int(c) for c in y)
        if len(x) != self.dimension or len(y) != self.dimension:
            raise ValueError("edge endpoints do not match field dimension")
        diffs = [i for i in range(self.dimension) if x[i] != y[i]]
        if len(diffs) != 1 or abs(x[diffs[0]] - y[diffs[0]]) != 1:
            raise ValueError(f"{x} and {y} are not nearest neighbors")
        axis = diffs[0]
        lower = x if x[axis] < y[axis] else y
        return self._edge_weight_canonical(lower, axis)

    def _edge_weight_canonical(self, lower, axis: int) -> float:
        h = _hash_words_int(self.seed, (_EDGE_TAG, axis, *lower))
        return self.spec.quantile_scalar((h >> 11) * _INV53)

    # -- vector route ---------------------------------------------------

    def vertex_weights(self, coords: np.ndarray) -> np.ndarray:
        """Weights at an array of vertices; coords has shape (..., d)."""
        if self.attachment != "vertex":
            raise ValueError("vertex lookup on an edge field")
        coords = np.asarray(coords)
        if coords.shape[-1] != self.dimension:
            raise ValueError("coordinate array does not match field dimension")
        tag = np.full(coords.shape[:-1], _VERTEX_TAG, dtype=np.uint64)
        words = [tag] + [_to_u64(coords[..., j]) for j in range(self.dimension)]
        h = _hash_words_np(self.seed, words)
        return self.spec.quantile_array((h >> _U11).astype(np.float64) * _INV53)

    def edge_weights(self, lower: np.ndarray, axis) -> np.ndarray:
        """Weights of edges given by lower endpoints (..., d) and axis indices."""
        if self.attachment != "edge":
            raise ValueError("edge lookup on a vertex field")
        lower = np.asarray(lower)
        if lower.shape[-1] != self.dimension:
            raise ValueError("coordinate array does not match field dimension")
        axis = np.broadcast_to(np.asarray(axis, dtype=np.int64), lower.shape[:-1])
        tag = np.full(axis.shape, _EDGE_TAG, dtype=np.uint64)
        words = [tag, axis.astype(np.uint64)] + [
            _to_u64(lower[..., j]) for j in range(self.dimension)
        ]
        h = _hash_words_np(self.seed, words)
        return self.spec.quantile_array((h >> _U11).astype(np.float64) * _INV53)

    def weight_at(self, element) -> float:
        """Scalar weight of one element.

        For vertex fields, element is a coordinate tuple.  For edge fields it
        is either a pair of adjacent vertices or a (lower_vertex, axis) pair.
        """
        if self.attachment == "vertex":
            return self.vertex_weight(element)
        a, b = element
        if isinstance(b, (int, np.integer)):
            if not 0 <= int(b) < self.dimension:
                raise ValueError(f"axis {b} out of range for dimension {self.dimension}")
            return self._edge_weight_canonical(tuple(int(c) for c in a), int(b))
        return self.edge_weight(a, b)


def make_field(spec: DistributionSpec, seed: int, attachment: str, d: int) -> WeightField:
    return WeightField(spec=spec, seed=int(seed), attachment=attachment, dimension=int(d))


def weight_at(field: WeightField, element) -> float:
    return field.weight_at(element)


def derive_seed(master: int, *parts) -> int:
    """Deterministic child seed from a master seed and a tuple of labels.

    Used to give every (statistic, n, trial) its own independent field or
    stream seed, so aggregation order and worker scheduling never matter.
    """
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode())
    for p in parts:
        h.update(b"\x1f")
        h.update(str(p).encode())
    return int.from_bytes(h.digest(), "little")
