"""Reference constructions that only the tests use: sampled circle
elements, cover samples as module elements, the trivial frame of a finite
graph, the refined cocycle cover, delta-basis residuals of dict
expansions, the zero test of a word, and stacks of mixed trial counts."""
import numpy as np

from graphcorr.bundles import ArcCover, PermCocycle
from graphcorr.conjugacy import FrameData
from graphcorr.double_cover import cover
from graphcorr.errors import FormatError
from graphcorr.graphs import TWO_PI, Arc, wrap_angle
from graphcorr.modules import (ModuleElement, VertexFunction, delta_edge,
                               delta_vertex)
from graphcorr.suite import _word_stack
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


def mixed_trial_entry(graph) -> tuple:
    """A KMS-condition entry with one three-trial stack among one-trial
    ones: ``b1`` a one-trial ``(1, 0)`` and a three-trial ``(2, 1)``
    stack, ``b2`` one-trial ``(1, 2)`` and ``(0, 1)`` stacks (the last
    with a middle), coefficient 1, their factors' normals drawn in that
    order from ``default_rng(0)``, one row per trial."""
    rng = np.random.default_rng(0)
    ne, nv = graph.n_edges, graph.n_vertices
    b1, b2 = [], []
    for out, (m, n, trials) in zip((b1, b1, b2, b2), ((1, 0, 1), (2, 1, 3),
                                                      (1, 2, 1), (0, 1, 1))):
        z = rng.standard_normal((trials, 2 * (m + n) * ne
                                 + (0 if m else 2 * nv)))
        out += _word_stack(graph, m, n, z)
    return b1, b2


def trial_of(stack, t: int) -> tuple:
    """Trial ``t`` of a stack as a one-trial stack; a one-trial stack
    serves every trial and is returned as it is."""
    m, n, c, lefts, middles, rights = stack
    if len(c) == 1:
        return stack
    at = slice(t, t + 1)
    return (m, n, c[at], [x[at] for x in lefts],
            None if middles is None else middles[at], [y[at] for y in rights])
