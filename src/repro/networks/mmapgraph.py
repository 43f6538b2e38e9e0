"""Former home of the memory-mapped CSR graph class; now one alias.

Memory-mapped graphs are plain :class:`~repro.networks.arraygraph.
ArrayGraph` instances whose arrays are ``np.memmap`` views
(:meth:`~repro.networks.arraygraph.ArrayGraph.from_arrays`,
:meth:`~repro.networks.arraygraph.ArrayGraph.from_edge_chunks`,
:meth:`~repro.networks.arraygraph.ArrayGraph.open`).  The old name
stays importable from here only because the benchmark harness
(``perfbench/kernels.py``) imports it; new code uses ``ArrayGraph``.
"""

from .arraygraph import ArrayGraph

MmapGraph = ArrayGraph
