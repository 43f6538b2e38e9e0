"""Integer-array helpers shared by the network and CSP kernels (kept
outside both, so neither subpackage imports the other for them)."""

import numpy as np


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for a 1-D int array, by sort: numpy's hash-based
    integer ``unique`` is ~10x slower at frontier sizes, and its first
    call imports ``numpy.ma`` (~15 ms and ~1 MB of resident memory)."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a
