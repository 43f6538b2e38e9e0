"""The memory-mapped twin every storage-equivalence test runs on."""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref

import numpy as np

from repro.networks.arraygraph import ArrayGraph


def mapped_twin(indptr, indices, labels=None) -> ArrayGraph:
    """The CSR ``(indptr, indices)`` saved verbatim to two ``.npy`` files
    and passed to the constructor as ``np.load(f, mmap_mode="r")`` views.

    The arrays are saved in the dtypes the constructor stores, so the
    twin keeps them mapped and every kernel reads the in-RAM graph's
    exact bytes; the files go when the twin is collected.
    """
    ram = ArrayGraph(indptr, indices)
    path = tempfile.mkdtemp(prefix="repro-twin-")
    files = [os.path.join(path, f) for f in ("indptr.npy", "indices.npy")]
    for f, a in zip(files, (ram.indptr, ram.indices)):
        np.save(f, a)
    g = ArrayGraph(*(np.load(f, mmap_mode="r") for f in files), labels)
    assert isinstance(g.indptr, np.memmap)
    assert isinstance(g.indices, np.memmap)
    weakref.finalize(g, shutil.rmtree, path, ignore_errors=True)
    return g
