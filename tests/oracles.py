"""Reference constructions that only the tests use: sampled circle
elements, cover samples as module elements, the trivial frame of a finite
graph, the refined cocycle cover, delta-basis residuals of dict
expansions and the zero test of a word."""
import numpy as np

from graphcorr.bundles import ArcCover, PermCocycle
from graphcorr.conjugacy import FrameData
from graphcorr.double_cover import cover
from graphcorr.errors import FormatError
from graphcorr.graphs import TWO_PI, Arc, wrap_angle
from graphcorr.modules import (ModuleElement, VertexFunction, delta_edge,
                               delta_vertex)
from graphcorr.toeplitz import _basis_residual, _from_dict


def element_from_function(graph, base_n: int, funcs) -> ModuleElement:
    """Sample callables (one per component, argument = angle) on the
    component grids of a circle graph."""
    comps = []
    for comp, f in zip(graph.components, funcs):
        u = TWO_PI * np.arange(comp.source_degree * base_n) \
            / (comp.source_degree * base_n)
        comps.append(np.asarray(f(u), dtype=np.complex128))
    return ModuleElement(graph, tuple(comps), base_n)


def vertex_function_from_function(graph, base_n: int, f) -> VertexFunction:
    """Sample a callable on the base grid of a circle graph."""
    t = TWO_PI * np.arange(base_n) / base_n
    return VertexFunction(graph, np.asarray(f(t), dtype=np.complex128),
                          base_n)


def cover_element(f: np.ndarray, n: int) -> ModuleElement:
    """The cover samples ``f`` as an element of the correspondence of
    :func:`~graphcorr.double_cover.cover` over the size-``n`` base grid."""
    return ModuleElement(cover(), (f,), n)


def finite_frame(graph, v) -> FrameData:
    """Trivial frame at a vertex: ``h = delta_v``, edge deltas over its
    fiber."""
    vi = graph.vertex_index(v)
    fiber = np.flatnonzero(graph.src_idx == vi)
    alphas = np.full((fiber.size, graph.n_vertices), -1)
    alphas[:, vi] = graph.rng_idx[fiber]
    gens = tuple(delta_edge(graph, graph.edges[int(ei)]) for ei in fiber)
    return FrameData(h=delta_vertex(graph, v), gens=gens, alphas=tuple(alphas))


def refine_cover(c: PermCocycle) -> PermCocycle:
    """Split every arc into two overlapping halves, inheriting transitions.

    Transitions between children of the same parent are the identity; all
    others restrict the parent transition to the smaller overlap.
    """
    cover = ArcCover([Arc(wrap_angle(arc.start + s * arc.length),
                          0.6 * arc.length)
                      for arc in c.cover.arcs for s in (0.0, 0.4)])
    transitions = {}
    for (i, j), comps in cover.overlaps.items():
        for cidx, piece in enumerate(comps):
            pi, pj = i // 2, j // 2     # children 2a and 2a + 1 of arc a
            if pi == pj:
                transitions[(i, j, cidx)] = tuple(range(c.rank))
                continue
            t = piece.midpoint()
            pcomp = c.cover.pair_component_at(pi, pj, t)
            if pcomp is None:
                raise FormatError("refined overlap escapes its parents")
            transitions[(i, j, cidx)] = c.sigma(pj, pi, pcomp)
    return PermCocycle(rank=c.rank, cover=cover, transitions=transitions)


def delta_basis_residual(m1: dict, m2: dict) -> float:
    """Largest coefficient of the difference of two delta-basis expansions
    given as dicts."""
    return float(_basis_residual(_from_dict(m1), _from_dict(m2))[0])


def word_is_zero(w) -> bool:
    """Whether a word is zero: a zero coefficient or an all-zero factor."""
    return (w.coeff == 0 or any(x.is_zero() for x in w.left)
            or (w.middle is not None and not w.middle.values.any())
            or any(y.is_zero() for y in w.right))
