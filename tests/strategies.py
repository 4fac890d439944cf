"""Hypothesis strategies shared by the tests."""
from hypothesis import strategies as st

from graphcorr.graphs import FiniteGraph


@st.composite
def finite_graphs(draw):
    """Finite graphs of 1 to 6 vertices and at most 12 edges, each edge's
    source and range drawn freely: loops, parallel edges, sources, sinks,
    isolated vertices, acyclic and disconnected graphs and graphs with no
    edges all occur."""
    n = draw(st.integers(1, 6))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=12))
    vertices = [f"v{i}" for i in range(n)]
    return FiniteGraph(vertices, [f"e{k}" for k in range(len(ends))],
                       [vertices[s] for s, _ in ends],
                       [vertices[r] for _, r in ends])
