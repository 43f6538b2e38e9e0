"""Array helpers shared by the network and CSP kernels and the quality
traces (kept outside them, so none imports another for them)."""

import numpy as np


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for a 1-D int or NaN-free float array, by sort:
    numpy's hash-based integer ``unique`` is ~10x slower at frontier
    sizes, and its first call imports ``numpy.ma`` (~15 ms and ~1 MB of
    resident memory).  On floats it keeps, of equal values such as
    ``-0.0`` and ``0.0``, the one ``np.unique``'s sort puts first."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a
