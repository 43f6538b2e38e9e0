"""Former home of the memory-mapped CSR graph class; now one alias.

Memory-mapped graphs are plain :class:`~repro.networks.arraygraph.
ArrayGraph` instances whose arrays are ``np.memmap`` views (built by
:meth:`~repro.networks.arraygraph.ArrayGraph.from_edge_chunks`, or
passed to the constructor).  The old name stays importable from here
only because the benchmark harness (``perfbench/kernels.py``) imports
it; new code uses ``ArrayGraph``.
"""

from .arraygraph import ArrayGraph

MmapGraph = ArrayGraph
