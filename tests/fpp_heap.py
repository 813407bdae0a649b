"""The FPP tests' reference solver: a binary heap popping one vertex at a time.

``fpp._bucket_settle`` must give this heap's times, settling order, horizon
and flag bit for bit.  ``heap_batch`` and ``heap_solve`` are
``fpp._solve_batch`` and ``fpp_dijkstra`` with every trial settled here.
"""

import heapq
import math

import numpy as np
import pytest

from latticegrow import fpp


def heap_settle(weights, strides, src, tgt, budget, cap, lim=None):
    """Settle one vertex per heap pop, in (time, flat index) order.

    weights[j] holds the weight of the edge from each flat index along +e_j;
    lim, when given, holds the largest time a relaxation may give each flat
    index.  Returns the settled flat indices and times, in settling order.
    """
    # per axis: the flat offset of +e_j and the weights of edges leaving forward
    relax = [(s, memoryview(w)) for s, w in zip(strides, weights)]
    best = [math.inf] * weights.shape[1]
    lim = [math.inf] * weights.shape[1] if lim is None else lim.tolist()
    best[src] = 0.0
    heap = [(0.0, src)]
    order: list = []
    times: list = []

    while heap:
        t, u = heapq.heappop(heap)
        if t > best[u]:
            continue  # stale entry; settled vertices keep their final best
        if t > budget:
            break
        order.append(u)
        times.append(t)
        if u == tgt or len(order) >= cap:
            break
        # settled neighbours fail nt < best[v] since weights are nonnegative,
        # and edges out of the box weigh inf
        for s, w in relax:
            v = u + s
            nt = t + w[u]
            if nt < best[v] and nt <= lim[v]:
                best[v] = nt
                heapq.heappush(heap, (nt, v))
            v = u - s
            nt = t + w[v]
            if nt < best[v] and nt <= lim[v]:
                best[v] = nt
                heapq.heappush(heap, (nt, v))

    return np.array(order, dtype=np.int64), np.array(times)


def heap_runs(weights, strides, src, tgt, budget, cap, delta, lim=None):
    """_bucket_settle's result from one heap solve per trial, pruned alike."""
    lims = [None] * weights.shape[1] if lim is None else lim.reshape(weights.shape[1], -1)
    return [heap_settle(w, strides, src, tgt, budget, cap, lim)
            for w, lim in zip(weights.swapaxes(0, 1), lims)]


def heap_batch(fields, *args, **kw):
    """fpp._solve_batch with every trial settled by the reference heap."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fpp, "_bucket_settle", heap_runs)
        return fpp._solve_batch(fields, *args, **kw)


def heap_solve(field, *args, **kw):
    """fpp_dijkstra settled by the reference heap."""
    return heap_batch([field], *args, **kw)[0]
