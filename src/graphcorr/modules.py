"""The graph correspondence: inner products, actions, norms, fibers.

Elements over a finite graph are complex vectors indexed by edges; vertex
functions are vectors indexed by vertices.  Over a circle-covering graph a
vertex function is sampled on the uniform base grid ``t_j = 2pi j / N`` and
a module element on component ``c`` (source degree ``d``) is sampled on the
grid ``u_i = 2pi i / (d N)`` of its own circle.  With that convention every
source fiber of a base grid point consists of component grid points: the
sampled graph is a finite graph with ``N`` vertices and ``sum_c d_c N``
edges, on whose index maps all operations below are exact (offsets must sit
on the grid; range compositions also need ``d | m`` per component).
"""
from __future__ import annotations

import functools
import sys

import numpy as np

from .errors import FormatError, MismatchError
from .graphs import TWO_PI, CircleCoveringGraph, FiniteGraph


#: default sample count on the base circle
DEFAULT_BASE_GRID = 1024


def _as_complex(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.complex128))


def _grid_offset(angle: float, n: int, what: str) -> int:
    """Offset angle as a base-grid index; must be within 1e-9 of the grid."""
    raw = angle * n / TWO_PI
    k = int(round(raw))
    if abs(raw - k) > 1e-9 * max(1.0, n):
        raise MismatchError(f"{what} {angle} is not on the size-{n} grid")
    return k % n


def vertex_position(graph, v, base_n: int | None = None) -> int:
    """Base index of a vertex: the index of the vertex id ``v`` of a finite
    graph, or the size-``base_n`` grid index of the on-grid angle ``v``."""
    if base_n is None:
        return graph.vertex_index(v)
    return _grid_offset(float(v), base_n, "angle")


class VertexFunction:
    """Function on the vertex space: by-vertex vector or base-grid samples."""

    def __init__(self, graph, values, base_n: int | None = None):
        self.graph = graph
        self.values = _as_complex(values)
        if isinstance(graph, FiniteGraph):
            if self.values.shape != (graph.n_vertices,):
                raise MismatchError("vertex function has wrong length")
            self.base_n = None
        else:
            if base_n is None:
                base_n = self.values.shape[0]
            if self.values.shape != (base_n,):
                raise MismatchError("grid samples have wrong length")
            self.base_n = int(base_n)

    @property
    def is_circle(self) -> bool:
        return self.base_n is not None

    def conj(self) -> "VertexFunction":
        return VertexFunction(self.graph, self.values.conj(), self.base_n)

    def pointwise(self, other: "VertexFunction") -> "VertexFunction":
        _check_same_base(self, other)
        return VertexFunction(self.graph, self.values * other.values,
                              self.base_n)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def __repr__(self):
        return f"VertexFunction({self.values!r})"


class ModuleElement:
    """Element of the graph correspondence.

    ``values`` is one flat array: by edge, or over a circle graph the
    component sample arrays laid end to end (component-major).
    """

    def __init__(self, graph, values, base_n: int | None = None):
        if isinstance(graph, FiniteGraph):
            values = _as_complex(values)
            if values.shape != (graph.n_edges,):
                raise MismatchError("module element has wrong length")
            base_n = None
        elif isinstance(graph, CircleCoveringGraph):
            if base_n is None:
                raise MismatchError("circle module element needs base_n")
            base_n = int(base_n)
            comps = [np.asarray(v, dtype=np.complex128) for v in values]
            if len(comps) != graph.n_components:
                raise MismatchError("one sample array per component required")
            for arr, comp in zip(comps, graph.components):
                if arr.shape != (comp.source_degree * base_n,):
                    raise MismatchError(
                        "component grid must have d * base_n samples")
            values = np.concatenate(comps)
        else:
            raise FormatError(f"not a graph: {graph!r}")
        self.graph, self.values, self.base_n = graph, values, base_n

    @classmethod
    def _from_values(cls, graph, values, base_n) -> "ModuleElement":
        """Element whose flat ``values`` are already laid out as above."""
        x = cls.__new__(cls)
        x.graph, x.values, x.base_n = graph, values, base_n
        return x

    @property
    def is_circle(self) -> bool:
        return self.base_n is not None

    @property
    def components(self):
        """Read-only views of a circle element's per-component samples;
        ``None`` over a finite graph."""
        if not self.is_circle:
            return None
        sizes = [c.source_degree * self.base_n for c in self.graph.components]
        views = np.split(self.values, np.cumsum(sizes)[:-1])
        for v in views:
            v.flags.writeable = False
        return tuple(views)

    def is_zero(self) -> bool:
        return not self.values.any()

    def __repr__(self):
        if self.is_circle:
            return f"ModuleElement(circle, N={self.base_n})"
        return f"ModuleElement({self.values!r})"


def _check_same_base(a, b):
    if a.graph is not b.graph:
        # allow equal-by-structure graphs only when identical objects
        raise MismatchError("operands live over different graphs")
    if getattr(a, "base_n", None) != getattr(b, "base_n", None):
        raise MismatchError("operands use different sample grids")


def _base_size(graph, base_n: int | None) -> int:
    """Number of base points: vertices, or samples of the base grid."""
    return graph.n_vertices if isinstance(graph, FiniteGraph) else base_n


def _source_index(graph, base_n: int | None) -> np.ndarray:
    """Base index of the source of every sample, in ``values`` order:
    sample ``i`` of a circle component sits over ``(off + i) mod N``."""
    return graph.src_idx if base_n is None \
        else _circle_index(graph.components, base_n, False)


def _range_index(graph, base_n: int | None) -> np.ndarray:
    """Base index of the range of every sample, in ``values`` order:
    ``(roff + (m / d) i) mod N`` on a circle component, which needs ``d | m``
    and, like the source, has period ``N`` in ``i``."""
    return graph.rng_idx if base_n is None \
        else _circle_index(graph.components, base_n, True)


@functools.lru_cache(maxsize=4)
def _circle_index(components, base_n: int, of_range: bool) -> np.ndarray:
    """Read-only circle index map of :func:`_source_index` or, ``of_range``,
    :func:`_range_index`, memoised per components and grid (errors are not)."""
    parts = []
    for ci, comp in enumerate(components):
        d, m = comp.source_degree, comp.range_degree
        if not of_range:
            off = _grid_offset(comp.source_offset, base_n, "source offset")
            row = np.r_[off:base_n, :off]
        elif m % d != 0:
            raise MismatchError(
                f"component {ci}: range degree {m} not divisible by source "
                f"degree {d}; range composition leaves the sample grid")
        else:
            roff = _grid_offset(comp.range_offset, base_n, "range offset")
            row = (roff + (m // d) * np.arange(base_n)) % base_n
        parts.append(np.tile(row, d))
    out = np.concatenate(parts)
    out.flags.writeable = False
    return out


def _tensor_inner(ys, xs, graph, base_n: int | None = None):
    """``<y_1 ... y_k, x_1 ... x_k>`` over the shorter of two lists of
    sample arrays in ``values`` order on any common leading shape, by the
    recursion ``c_1 = <y_1, x_1>``, ``c_j = <y_j, c_{j-1} . x_j>`` (``None``
    for none).  The range map is read only from ``k = 2`` on, so a length-1
    tensor over a circle component needs no ``d | m``."""
    c = None
    for y, x in zip(ys, xs):
        if c is not None:
            x = c[..., _range_index(graph, base_n)] * x
        x = y.conj() * x        # rebound, so no product outlives its step
        c = np.zeros(x.shape[:-1] + (_base_size(graph, base_n),),
                     dtype=np.complex128)
        np.add.at(c, (..., _source_index(graph, base_n)), x)
    return c


def inner_product(x: ModuleElement, y: ModuleElement) -> VertexFunction:
    """``<x, y>(v) = sum_{s(e) = v} conj(x(e)) y(e)``.

    Conjugate-linear in ``x``, linear in ``y``; empty fibers contribute 0.
    """
    _check_same_base(x, y)
    return VertexFunction(x.graph, _tensor_inner([x.values], [y.values],
                                                 x.graph, x.base_n), x.base_n)


def right_action(x: ModuleElement, a: VertexFunction) -> ModuleElement:
    """``(x . a)(e) = x(e) a(s(e))``."""
    _check_same_base(x, a)
    g, n = x.graph, x.base_n
    return ModuleElement._from_values(
        g, x.values * a.values[_source_index(g, n)], n)


def left_action(a: VertexFunction, x: ModuleElement) -> ModuleElement:
    """``(a . x)(e) = a(r(e)) x(e)``.

    On circle components this needs the range degree to be divisible by the
    source degree so that ranges of grid points are base grid points.
    """
    _check_same_base(x, a)
    g, n = x.graph, x.base_n
    return ModuleElement._from_values(
        g, a.values[_range_index(g, n)] * x.values, n)


def module_norm(x: ModuleElement) -> float:
    """``sqrt(sup_v <x, x>(v))``."""
    ip = inner_product(x, x)
    return float(np.sqrt(max(ip.values.real.max(initial=0.0), 0.0)))


def tensor_inner_product(xs, ys) -> VertexFunction:
    """Inner product of elementary tensors of equal length ``k >= 1``.

    Computed by :func:`_tensor_inner`'s recursion ``c_1 = <x_1, y_1>``,
    ``c_j = <x_j, c_{j-1} . y_j>`` (left action on the second argument),
    which agrees with the sum over length-``k`` paths.
    """
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise MismatchError("tensor factors must have equal length")
    if not xs:
        raise MismatchError("degree-0 tensors are vertex functions; use them "
                            "directly")
    for f in xs[1:] + ys:
        _check_same_base(xs[0], f)
    g, n = xs[0].graph, xs[0].base_n
    return VertexFunction(g, _tensor_inner([x.values for x in xs],
                                           [y.values for y in ys], g, n), n)


def fiber_evaluation(x: ModuleElement, v) -> np.ndarray:
    """Restriction of ``x`` to the source fiber over ``v``: the samples
    whose source is ``v``, in index order (by edge, or component-major and
    then by sample over a circle graph).  The squared euclidean norm of the
    result equals ``<x, x>(v)``.
    """
    j = vertex_position(x.graph, v, x.base_n)
    return x.values[_source_index(x.graph, x.base_n) == j]


# ---------------------------------------------------------------------------
# constructors


def delta_edge(graph: FiniteGraph, e) -> ModuleElement:
    v = np.zeros(graph.n_edges, dtype=np.complex128)
    v[graph.edge_index(e)] = 1.0
    return ModuleElement(graph, v)


def delta_vertex(graph: FiniteGraph, v) -> VertexFunction:
    a = np.zeros(graph.n_vertices, dtype=np.complex128)
    a[graph.vertex_index(v)] = 1.0
    return VertexFunction(graph, a)


def random_module_element(graph, rng: np.random.Generator,
                          base_n: int | None = None) -> ModuleElement:
    if isinstance(graph, FiniteGraph):
        v = rng.standard_normal(graph.n_edges) \
            + 1j * rng.standard_normal(graph.n_edges)
        return ModuleElement(graph, v)
    comps = []
    for comp in graph.components:
        sz = comp.source_degree * base_n
        comps.append(rng.standard_normal(sz) + 1j * rng.standard_normal(sz))
    return ModuleElement(graph, tuple(comps), base_n)


def random_vertex_function(graph, rng: np.random.Generator,
                           base_n: int | None = None) -> VertexFunction:
    size = _base_size(graph, base_n)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return VertexFunction(graph, v, base_n)


# ---------------------------------------------------------------------------
# JSON


def finite_real(p) -> bool:
    """Whether a JSON value is a finite real number (not a boolean)."""
    return isinstance(p, (int, float)) and not isinstance(p, bool) \
        and abs(p) <= sys.float_info.max


def complex_from_json(pair) -> complex:
    """A JSON ``[re, im]`` pair, exactly two finite real numbers that are
    not booleans, as a complex number; ``FormatError`` for anything else."""
    if isinstance(pair, list) and len(pair) == 2 \
            and all(map(finite_real, pair)):
        return complex(pair[0], pair[1])
    raise FormatError(f"expected [re, im] of finite reals, got {pair!r}")


def _grid_size(data) -> int:
    """The ``n`` of a circle element or vertex function JSON object."""
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f"grid size n must be an integer >= 1, got {n!r}")
    return n


def _by_id(data, ids_to_index, size: int, what: str) -> np.ndarray:
    """Vector from a JSON object of ``id: [re, im]`` entries."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} JSON must be an object of [re, im] "
                          f"pairs, got {data!r}")
    v = np.zeros(size, dtype=np.complex128)
    for key, pair in data.items():
        v[ids_to_index(key)] = complex_from_json(pair)
    return v


def element_to_dict(x: ModuleElement) -> dict:
    if not x.is_circle:
        return {eid: [float(z.real), float(z.imag)]
                for eid, z in zip(x.graph.edges, x.values)}
    return {"n": x.base_n,
            "components": [[[float(z.real), float(z.imag)] for z in arr]
                           for arr in x.components]}


def element_from_dict(graph, data) -> ModuleElement:
    if isinstance(graph, FiniteGraph):
        if isinstance(data, str):
            return delta_edge(graph, data)
        return ModuleElement(graph, _by_id(data, graph.edge_index,
                                           graph.n_edges, "module element"))
    try:
        n = _grid_size(data)
        comps = tuple(np.array([complex_from_json(p) for p in arr])
                      for arr in data["components"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise FormatError(f"bad circle element JSON: {exc!r}") from None
    return ModuleElement(graph, comps, n)


def vertex_function_to_dict(a: VertexFunction) -> dict:
    if not a.is_circle:
        return {vid: [float(z.real), float(z.imag)]
                for vid, z in zip(a.graph.vertices, a.values)}
    return {"n": a.base_n,
            "values": [[float(z.real), float(z.imag)] for z in a.values]}


def vertex_function_from_dict(graph, data) -> VertexFunction:
    if isinstance(graph, FiniteGraph):
        if isinstance(data, str):
            return delta_vertex(graph, data)
        return VertexFunction(graph, _by_id(data, graph.vertex_index,
                                            graph.n_vertices,
                                            "vertex function"))
    try:
        n = _grid_size(data)
        vals = np.array([complex_from_json(p) for p in data["values"]])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise FormatError(f"bad vertex function JSON: {exc!r}") from None
    return VertexFunction(graph, vals, n)
