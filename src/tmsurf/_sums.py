"""Order-independent floating-point accumulation.

Finite isometry groups act on meshes by permuting vertices, and several
invariants promise bitwise equality between a quantity and its image under
the group (lumped areas, operator entries, projected vectors, distances).
Plain summation cannot deliver that: permuting summands changes the
rounding. Sorting summands first makes every reduction a function of the
multiset only. ``logsumexp`` is the exception: it keeps scipy's summation
order, so that its results match ``scipy.special.logsumexp`` bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_sum", "ordered3", "sorted_sum3", "segment_sorted_sum", "logsumexp"]

# ``segment_sorted_sum`` sorts the summands of this many index ranges one
# range at a time, so its transient is about this fraction of one sort of all
# (at most 256: a summand's range is held in a uint8).
_SEGMENT_BLOCKS = 8


def sorted_sum(values):
    """Sum of an array, invariant under any permutation of the input."""
    return float(np.sum(np.sort(np.asarray(values, dtype=float), axis=None, kind="stable")))


def ordered3(a, b, c):
    """Elementwise lo <= mid <= hi of three float arrays, by a min/max network.

    It takes six vectorized passes, where a sort along rows of three runs a
    sort per row.  On a tie the network may return one input twice, which
    changes no bit unless the tied values are zeros of opposite sign.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    mid = np.minimum(hi, c)
    np.maximum(mid, lo, out=mid)
    np.minimum(lo, c, out=lo)
    np.maximum(hi, c, out=hi)
    return lo, mid, hi


def sorted_sum3(a, b, c):
    """(lo + mid) + hi elementwise: bitwise the sum of each sorted triple.

    A sorted sum of zeros is -0 only when all three are -0, and no caller has
    such a triple; the final + 0.0 turns the -0 that ``ordered3`` can make of
    zeros of mixed sign back into the sorted sum's +0.
    """
    lo, mid, hi = ordered3(a, b, c)
    lo += mid
    lo += hi
    lo += 0.0
    return lo


def segment_sorted_sum(index, values, size):
    """Sum ``values`` into ``size`` bins given by ``index``, value-sorted per bin.

    Equivalent to ``np.add.at(out, index, values)`` for indices in
    ``range(size)``, except the accumulation order inside each bin is
    ascending by value, so bins holding the same multiset of summands
    produce bitwise-equal totals.  The bins are summed
    in ``_SEGMENT_BLOCKS`` ranges of consecutive indices, one sort per range:
    a bin's sum does not depend on the other bins, and each range keeps its
    summands in input order, so ties (-0.0 and 0.0 too) sort as in one sort
    of all of them.
    """
    index = np.asarray(index).ravel()
    values = np.asarray(values, dtype=float).ravel()
    out = np.zeros(size, dtype=float)
    if values.size == 0:
        return out
    block = np.empty(index.size, dtype=np.uint8)
    np.floor_divide(index, -(-size // _SEGMENT_BLOCKS), out=block, casting="unsafe")
    for k in range(_SEGMENT_BLOCKS):
        in_block = block == k
        idx, val = index[in_block], values[in_block]
        del in_block
        if idx.size == 0:
            continue
        order = np.lexsort((val, idx))
        idx, val = idx[order], val[order]
        del order
        starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
        out[idx[starts]] = np.add.reduceat(val, starts)
    return out


def logsumexp(values) -> float:
    """log(sum(exp(values))) of a 1-D real array, as ``scipy.special.logsumexp``.

    Same operations in the same order as scipy 1.17's version, so the result
    is bitwise equal to it: every entry equal to the maximum is taken out of
    the shifted sum and counted in ``m``.
    """
    a = np.asarray(values, dtype=float).ravel()
    with np.errstate(all="ignore"):
        a_max = a.max()
        mask = a == a_max
        m = np.sum(mask, dtype=float)
        s = np.sum(np.exp(np.where(mask, -np.inf, a) - a_max))
        out = np.log1p(s / m if s != 0 else s) + np.log(m) + a_max
        # an infinite or nan maximum falls back to the direct sum, as scipy does
        return float(out if np.isfinite(out) else np.log(np.sum(np.exp(a))))
