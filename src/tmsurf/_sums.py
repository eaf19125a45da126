"""Order-independent floating-point accumulation.

Finite isometry groups act on meshes by permuting vertices, and several
invariants promise bitwise equality between a quantity and its image under
the group (lumped areas, operator entries, projected vectors, distances).
Plain summation cannot deliver that: permuting summands changes the
rounding. Sorting summands first makes every reduction a function of the
multiset only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_sum", "sorted_dot", "segment_sorted_sum"]


def sorted_sum(values):
    """Sum of an array, invariant under any permutation of the input."""
    return float(np.sum(np.sort(np.asarray(values, dtype=float), axis=None, kind="stable")))


def sorted_dot(a, b):
    """Row-wise dot products summed in value order.

    For signed-permutation images (rows of both factors permuted/flipped the
    same way) the products form the same multiset, so the result is bitwise
    identical.
    """
    prod = np.sort(np.asarray(a, dtype=float) * np.asarray(b, dtype=float), axis=-1)
    return prod.sum(axis=-1)


def segment_sorted_sum(index, values, size):
    """Sum ``values`` into ``size`` bins given by ``index``, value-sorted per bin.

    Equivalent to ``np.add.at(out, index, values)`` except the accumulation
    order inside each bin is ascending by value, so bins holding the same
    multiset of summands produce bitwise-equal totals.
    """
    index = np.asarray(index).ravel()
    values = np.asarray(values, dtype=float).ravel()
    out = np.zeros(size, dtype=float)
    if values.size == 0:
        return out
    order = np.lexsort((values, index))
    idx = index[order]
    val = values[order]
    starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    out[idx[starts]] = np.add.reduceat(val, starts)
    return out

