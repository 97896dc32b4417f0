"""Shared NumPy index-arithmetic helpers for the vectorized sweeps."""

from __future__ import annotations

import numpy as np

__all__ = ["ragged_gather", "in_sorted", "sorted_unique"]


def in_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted 1D int64 key array.

    One ``searchsorted`` plus a gather — the hash-free membership probe the
    array-native pipeline uses everywhere a per-node loop would build a set.
    """
    if len(sorted_keys) == 0:
        return np.zeros(len(values), dtype=bool)
    index = np.searchsorted(sorted_keys, values)
    np.minimum(index, len(sorted_keys) - 1, out=index)
    return sorted_keys[index] == values


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for int64 keys via one sort.

    NumPy's hash-based integer ``unique`` costs several ms per call at the
    sizes the cone sweep sees; a sort plus one neighbor compare is an order
    of magnitude cheaper and additionally guarantees sorted output.
    """
    if len(values) < 2:
        return np.sort(values)
    ordered = np.sort(values)
    return ordered[np.r_[True, ordered[1:] != ordered[:-1]]]


def ragged_gather(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Flat indices of the ``[starts[i], ends[i])`` slices, concatenated.

    The standard CSR expansion: given per-row slice bounds into one flat
    array, produce the gather index that visits every row's slice in row
    order.  Used by the level wavefront (consumer expansion) and the
    pairing engine (cut-group and carry-pool expansion) — one home so the
    subtle ``repeat``/``cumsum`` arithmetic exists exactly once.
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return np.repeat(starts - offsets[:-1], counts) + np.arange(total)
