"""Reproducible i.i.d. weight environments over the unbounded lattice.

A weight field assigns one nonnegative random weight to every edge or vertex
of Z^d.  Weights are generated counter-style: the weight of an element is a
pure function of (seed, element identity), so solvers may visit elements in
any data-dependent order and always see the same environment, and the
infinite lattice needs no pre-allocated state.

There is one evaluation route.  An element's identity is a short list of
integer words (a tag, the edge axis, the coordinates); a SplitMix64 fold of
the seed and those words, in numpy uint64 arithmetic, gives 53 uniform bits,
and the distribution's numpy quantile turns them into the weight.  The words
broadcast against each other and the fold mixes each one at the shape of the
words before it, so a window of edges built from per-axis ranges mixes only
its last coordinate at the full window size.  Solvers that compare sums
bit-exactly read their weights from the same window array.

Each law is one row of _LAWS: token, parameter check, moments, least
support value, continuity and quantile.  A DistributionSpec built directly
is checked like the builders and the tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    "quantile",
    "parse_dist_token",
    "derive_seed",
]

_VERTEX_TAG = 0x76
_EDGE_TAG = 0x65

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_NP_GOLD = np.uint64(_GOLD)
_NP_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_MIX2 = np.uint64(0x94D049BB133111EB)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_INV53 = 2.0 ** -53


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on an owned uint64 array (0-d allowed).

    In-place array arithmetic wraps mod 2^64 silently; numpy scalar
    arithmetic would warn on the (intended) overflow.
    """
    z ^= z >> _U30
    z *= _NP_MIX1
    z ^= z >> _U27
    z *= _NP_MIX2
    z ^= z >> _U31
    return z


def _salted(word) -> np.ndarray:
    """An int word, or an array of them, as uint64 plus _NP_GOLD, for _fold."""
    return np.asarray(word, dtype=np.int64).view(np.uint64) + _NP_GOLD


def _fold(h, salted, out=None) -> np.ndarray:
    """One fold step of _hash_words, mix(h ^ salted), in out (which may be h) if given."""
    return _mix(np.asarray(np.bitwise_xor(h, salted, out=out)))


def _hash_words(seed, words) -> np.ndarray:
    """Fold the seed and integer words (ints or int arrays, broadcast together).

    Each word is mixed at the broadcast shape of the words so far, so scalar
    prefixes stay scalars and only the last word mixes at the full shape.
    seed may be a sequence of ints, one per trial: its axis broadcasts
    against the words' last axis.
    """
    # the seed's own step folds the word 0, salted to _NP_GOLD
    h = _fold(np.array(int(seed) & _MASK if np.isscalar(seed) else [int(s) & _MASK for s in seed],
                       dtype=np.uint64), _NP_GOLD)
    for w in words:
        h = _fold(h, _salted(w))
    return h


# ---------------------------------------------------------------------------
# distributions


class _Law(NamedTuple):
    """One weight law.  Its functions and message take the parameters as floats;
    quantile(u, *params) overwrites the float64 array u with the inverse CDF."""

    token: str
    nparams: int
    check: Callable[..., bool]
    message: str
    mean: Callable[..., float]
    variance: Callable[..., float]
    support_min: Callable[..., float]
    continuous: bool
    quantile: Callable[..., np.ndarray]


def _log1p_neg(u: np.ndarray) -> np.ndarray:
    return np.log1p(np.negative(u, out=u), out=u)


# kind -> law.  The geometric law lives on {1, 2, ...} with P(k) = p (1-p)^(k-1);
# the two-point law is 1 with probability p and 2 otherwise.
_LAWS = {
    "exponential": _Law(
        "exp", 1, lambda r: 0 < r < math.inf,
        "exponential rate must be positive and finite, got {}",
        lambda r: 1.0 / r, lambda r: 1.0 / r ** 2, lambda r: 0.0, True,
        lambda u, r: np.divide(_log1p_neg(u), -r, out=u)),  # x / -r is -x / r, bit for bit
    "geometric": _Law(
        "geom", 1, lambda p: 0.0 < p < 1.0,
        "geometric success probability must lie in (0, 1), got {}",
        lambda p: 1.0 / p, lambda p: (1.0 - p) / p ** 2, lambda p: 1.0, False,
        lambda u, p: np.maximum(
            np.ceil(np.divide(_log1p_neg(u), math.log1p(-p), out=u), out=u), 1.0, out=u)),
    "uniform": _Law(
        "unif", 2, lambda a, b: 0.0 <= a < b < math.inf,
        "uniform needs 0 <= a < b < inf, got a={}, b={}",
        lambda a, b: 0.5 * (a + b), lambda a, b: (b - a) ** 2 / 12.0, lambda a, b: a, True,
        lambda u, a, b: np.add(np.multiply(u, b - a, out=u), a, out=u)),
    "twopoint": _Law(
        "twopoint", 1, lambda p: 0.0 < p < 1.0,
        "two-point atom probability must lie in (0, 1), got {}",
        lambda p: 2.0 - p, lambda p: p * (1.0 - p), lambda p: 1.0, False,
        lambda u, p: np.subtract(2.0, u < p, out=u)),
    "constant": _Law(
        "const", 1, lambda c: 0 <= c < math.inf,
        "constant weight must be nonnegative and finite, got {}",
        lambda c: c, lambda c: 0.0, lambda c: c, False,
        lambda u, c: u.fill(c) or u),  # fill returns None
}
_KIND_OF_TOKEN = {law.token: kind for kind, law in _LAWS.items()}


@dataclass(frozen=True)
class DistributionSpec:
    """One of the supported nonnegative weight distributions.

    kind is a key of _LAWS ('exponential', 'geometric', 'uniform', 'twopoint'
    or 'constant'); params holds its parameters, checked and stored as floats.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        law = _LAWS.get(self.kind)
        if law is None:
            raise ValueError(f"unknown distribution kind {self.kind!r}; "
                             f"expected one of {', '.join(_LAWS)}")
        params = tuple(float(v) for v in self.params)
        if len(params) != law.nparams:
            raise ValueError(f"{self.kind} takes {law.nparams} parameter(s), got {params}")
        if not law.check(*params):
            raise ValueError(law.message.format(*params))
        object.__setattr__(self, "params", params)

    def mean(self) -> float:
        return _LAWS[self.kind].mean(*self.params)

    def variance(self) -> float:
        return _LAWS[self.kind].variance(*self.params)

    def support_min(self) -> float:
        return _LAWS[self.kind].support_min(*self.params)

    def is_continuous(self) -> bool:
        return _LAWS[self.kind].continuous

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF at each u in [0, 1); the range is not checked here."""
        return self._quantile_inplace(np.array(u, dtype=np.float64))

    def _quantile_inplace(self, u: np.ndarray) -> np.ndarray:
        """quantile_array computed in, and returned as, the float64 array u."""
        return _LAWS[self.kind].quantile(u, *self.params)

    def token(self) -> str:
        return _LAWS[self.kind].token + "".join(":" + format(v, ".17g") for v in self.params)


def exponential(rate: float) -> DistributionSpec:
    return DistributionSpec("exponential", (rate,))


def geometric(p: float) -> DistributionSpec:
    return DistributionSpec("geometric", (p,))


def uniform(a: float, b: float) -> DistributionSpec:
    return DistributionSpec("uniform", (a, b))


def two_point(p: float) -> DistributionSpec:
    return DistributionSpec("twopoint", (p,))


def constant(c: float) -> DistributionSpec:
    return DistributionSpec("constant", (c,))


def parse_dist_token(token: str) -> DistributionSpec:
    """Parse a textual distribution token such as ``exp:1.0`` or ``unif:0.5:1.5``."""
    name, *params = token.strip().split(":")
    if name not in _KIND_OF_TOKEN:
        raise ValueError(f"unknown distribution token {token!r}")
    return DistributionSpec(_KIND_OF_TOKEN[name], tuple(float(x) for x in params))


def quantile(spec: DistributionSpec, u) -> np.ndarray:
    """Inverse CDF of spec, elementwise; monotone in u, pushes Uniform[0,1) to spec."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile argument must lie in [0, 1)")
    return spec.quantile_array(u)


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

    def _draw(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Weights from the hashes h (overwritten), written into out if given."""
        h >>= _U11
        u = np.multiply(h, _INV53, out=np.empty(h.shape) if out is None else out)
        return self.spec._quantile_inplace(u)

    def vertex_weights(self, coords: np.ndarray) -> np.ndarray:
        """Weights at an array of vertices; coords has shape (..., d)."""
        if self.attachment != "vertex":
            raise ValueError("vertex lookup on an edge field")
        coords = np.asarray(coords)
        if coords.shape[-1] != self.dimension:
            raise ValueError("coordinate array does not match field dimension")
        words = [_VERTEX_TAG] + [coords[..., j] for j in range(self.dimension)]
        return self._draw(_hash_words(self.seed, words))

    def edge_weights(self, lower: np.ndarray, axis) -> np.ndarray:
        """Weights of edges given by lower endpoints (..., d) and axis indices.

        The axes broadcast against lower[..., 0], so one vertex with the axis
        vector arange(d) gives the d edges leaving it forward.
        """
        if self.attachment != "edge":
            raise ValueError("edge lookup on a vertex field")
        lower = np.asarray(lower)
        if lower.shape[-1] != self.dimension:
            raise ValueError("coordinate array does not match field dimension")
        words = [_EDGE_TAG, axis] + [lower[..., j] for j in range(self.dimension)]
        return self._draw(_hash_words(self.seed, words))

    def _window(self, words, lo, shape, out: np.ndarray) -> np.ndarray:
        """Fill out with weights hashed from words plus per-axis ranges over lo + [0, shape)."""
        d = self.dimension
        if len(lo) != d or len(shape) != d:
            raise ValueError("window does not match field dimension")
        ranges = [np.arange(a, a + n, dtype=np.int64).reshape((n,) + (1,) * (d - 1 - j))
                  for j, (a, n) in enumerate(zip(lo, shape))]
        # slabs along the first axis bound the hash temporaries to ~2^18 elements
        rows = max(1, (1 << 18) // max(1, math.prod(shape[1:])))
        for a in range(0, shape[0], rows):
            slab = [*words, ranges[0][a:a + rows], *ranges[1:]]
            self._draw(_hash_words(self.seed, slab), out[a:a + rows])
        return out

    def vertex_window(self, lo, shape) -> np.ndarray:
        """Weights of every vertex in lo + [0, shape); entry [i] is vertex lo + i.

        The coordinate words are per-axis ranges, so no coordinate array is
        built; the bits equal vertex_weights on the same vertices.
        """
        if self.attachment != "vertex":
            raise ValueError("vertex lookup on an edge field")
        return self._window([_VERTEX_TAG], lo, shape, np.empty(tuple(shape)))

    def edge_window(self, lo, shape, out: np.ndarray | None = None) -> np.ndarray:
        """Weights of every edge whose lower endpoint lies in lo + [0, shape).

        Entry [j, i_1, ..., i_d] is the weight of the edge from lo + i to
        lo + i + e_j, written into out when it is given (one trial's slot of
        a batch array).  The coordinate words are per-axis ranges, so no
        coordinate array is built.
        """
        if self.attachment != "edge":
            raise ValueError("edge lookup on a vertex field")
        if out is None:
            out = np.empty((self.dimension, *shape))
        for j in range(self.dimension):
            self._window([_EDGE_TAG, j], lo, shape, out[j])
        return out

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
        return float(self.edge_weights(min(x, y), axis))


def make_field(spec: DistributionSpec, seed: int, attachment: str, d: int) -> WeightField:
    return WeightField(spec=spec, seed=int(seed), attachment=attachment, dimension=int(d))


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
