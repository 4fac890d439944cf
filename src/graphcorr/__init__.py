"""Desk-scale computations with graph correspondences.

Subpackages cover the graph data model (finite and rigid circle-covering
graphs), the correspondence with its inner product and actions, a
symbolic Toeplitz word algebra with truncated Fock matrices, exact
equilibrium-state evaluation, isomorphism and local-conjugacy checks, the
double-cover bimodule isomorphism, and permutation cocycles over the
circle.
"""

__version__ = "0.1.0"

from .graphs import (Arc, CircleCoveringGraph, EdgeComponent, FiniteGraph,
                     Path, enumerate_paths, s_section_decomposition,
                     spectral_radius)
from .serialize import graph_from_dict, graph_to_dict, load_graph

__all__ = [
    "Arc", "CircleCoveringGraph", "EdgeComponent", "FiniteGraph", "Path",
    "enumerate_paths", "graph_from_dict", "graph_to_dict",
    "load_graph", "s_section_decomposition", "spectral_radius",
]
