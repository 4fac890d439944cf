"""Hypothesis strategies shared by the tests."""
import math

from hypothesis import strategies as st

from graphcorr.graphs import CircleCoveringGraph, EdgeComponent, FiniteGraph


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


@st.composite
def circle_pairs(draw):
    """Pairs ``(E, F)`` of rigid circle-covering graphs with the same source
    degrees: 1 or 2 components of source degree 1 to 3, range degree a
    nonzero multiple of it (up to 3 times, either sign), offsets on the
    grid ``2 pi k / 64``.  ``F`` is drawn like ``E``, or is ``E`` mirrored
    (every offset negated), or ``E`` with its range offsets negated."""
    def angle():
        return 2.0 * math.pi * draw(st.integers(0, 63)) / 64

    def component(d):
        m = d * draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        return EdgeComponent(d, angle(), m, angle())

    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    E = CircleCoveringGraph([component(d) for d in degrees])
    how = draw(st.sampled_from(("drawn", "mirrored", "ranges negated")))
    if how == "drawn":
        return E, CircleCoveringGraph([component(d) for d in degrees])
    sign = -1.0 if how == "mirrored" else 1.0
    return E, CircleCoveringGraph([
        EdgeComponent(c.source_degree, sign * c.source_offset,
                      c.range_degree, -c.range_offset)
        for c in E.components])
