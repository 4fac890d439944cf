"""Graph data model: finite graphs and rigid circle-covering graphs.

A finite graph stores vertex and edge ids together with total range and
source maps.  A circle-covering graph has the unit circle as vertex space
and a disjoint union of circles as edge space; on the component ``c`` the
source map is the rigid covering ``t -> s_offset + d*t  (mod 2pi)`` of
degree ``d >= 1`` and the range map is ``t -> r_offset + m*t`` with
``m != 0``.  Angles are stored in ``[0, 2pi)``; arcs are half-open
intervals that may wrap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, SizeLimitError

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-9

#: refuse path enumerations larger than this
MAX_PATHS = 10**6
#: largest covering degree ``|d|``, ``|m|`` a circle component may have;
#: ``graph sections`` samples every section, so its cost is linear in ``d``
MAX_DEGREE = 4096
#: largest local-conjugacy search, in section-pair samples over all arcs
MAX_SEARCH = 10**8
#: largest permutation-cocycle frame, in Gram entries ``(grid + 1) rank^3``
MAX_FRAME = 10**6
#: most random trials one check may draw; the defaults draw 5 to 100
MAX_TRIALS = 10**5


def check_trials(trials: int) -> None:
    """``FormatError`` below 1 trial, ``SizeLimitError`` above
    :data:`MAX_TRIALS`."""
    if trials < 1:
        raise FormatError(f"trials {trials} is below 1")
    if trials > MAX_TRIALS:
        raise SizeLimitError(f"trials {trials} exceeds the {MAX_TRIALS} "
                             "limit")


def wrap_angle(t: float) -> float:
    """Reduce an angle to [0, 2pi)."""
    r = math.fmod(float(t), TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        r = 0.0
    return r


def angle_dist(a, b):
    """Distance between two angles on the circle; elementwise on arrays."""
    d = np.abs(np.mod(a, TWO_PI) - np.mod(b, TWO_PI))
    return np.minimum(d, TWO_PI - d)


# ---------------------------------------------------------------------------
# finite graphs


class FiniteGraph:
    """Finite vertex/edge sets with total range and source maps.

    ``src[e]`` is the source vertex of edge ``e`` and ``rng[e]`` its range.
    The adjacency matrix counts multiplicities:
    ``A[w, v] = #{e : rng(e) = w, src(e) = v}``, so column sums are the
    source-fiber sizes ``|s^{-1}(v)|``.
    """

    def __init__(self, vertices: Sequence, edges: Sequence,
                 src: Sequence, rng: Sequence):
        vertices = tuple(vertices)
        edges = tuple(edges)
        src = tuple(src)
        rng = tuple(rng)
        self._vidx = {v: i for i, v in enumerate(vertices)}
        self._eidx = {e: i for i, e in enumerate(edges)}
        if len(self._vidx) != len(vertices):
            raise FormatError("duplicate vertex ids")
        if len(self._eidx) != len(edges):
            raise FormatError("duplicate edge ids")
        if not (len(src) == len(rng) == len(edges)):
            raise FormatError("src/rng must assign a vertex to every edge")
        for end, ends in (("source", src), ("range", rng)):
            for e, v in zip(edges, ends):
                if v not in self._vidx:
                    raise FormatError(f"edge {e!r}: unknown {end} vertex "
                                      f"{v!r}")
        self.vertices = vertices
        self.edges = edges
        self.src = src
        self.rng = rng
        src_list = [self._vidx[v] for v in src]
        self._rng_list = [self._vidx[v] for v in rng]
        self.src_idx = np.array(src_list, dtype=np.intp)
        self.rng_idx = np.array(self._rng_list, dtype=np.intp)
        A = np.zeros((len(vertices), len(vertices)), dtype=np.int64)
        np.add.at(A, (self.rng_idx, self.src_idx), 1)
        self._adj = A
        # edge indices grouped by source vertex, in edge order
        self._succ = [[] for _ in vertices]
        for f, i in enumerate(src_list):
            self._succ[i].append(f)
        self._max_out = max(map(len, self._succ), default=0)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, v) -> int:
        try:
            return self._vidx[v]
        except KeyError:
            raise FormatError(f"unknown vertex id {v!r}") from None

    def edge_index(self, e) -> int:
        try:
            return self._eidx[e]
        except KeyError:
            raise FormatError(f"unknown edge id {e!r}") from None

    def adjacency(self) -> np.ndarray:
        """Vertex-by-vertex multiplicity matrix (int64 copy)."""
        return self._adj.copy()

    def fiber_count(self, v) -> int:
        """Size of the source fiber ``|s^{-1}(v)|``."""
        return len(self._succ[self.vertex_index(v)])

    def __repr__(self):
        return (f"FiniteGraph({self.n_vertices} vertices, "
                f"{self.n_edges} edges)")


@dataclass(frozen=True)
class Path:
    """A path ``mu = mu_1 ... mu_n`` with ``src(mu_i) = rng(mu_{i+1})``.

    ``edges`` holds edge ids in that order; a length-0 path is a vertex.
    """
    vertex: object          # source vertex of the whole path
    edges: tuple = ()

    def __len__(self):
        return len(self.edges)


def path_counts(graph: FiniteGraph, vi: int, n: int) -> list[int]:
    """``[|E^0 v|, ..., |E^n v|]`` for the vertex ``v`` of index ``vi``,
    computed from adjacency powers."""
    w = np.zeros(graph.n_vertices, dtype=np.int64)
    w[vi] = 1
    counts = [1]
    for _ in range(n):
        w = graph._adj @ w
        c = int(w.sum())
        counts.append(c)
        if c > MAX_PATHS:
            raise SizeLimitError(
                f"path count {c} exceeds the {MAX_PATHS} limit")
    return counts


def _check_path_budget(graph: FiniteGraph, vi: int, n: int) -> None:
    """Raise ``SizeLimitError`` when ``n * |E^n v| > MAX_PATHS``."""
    count = path_counts(graph, vi, min(n, graph.n_vertices))[-1]
    if n > graph.n_vertices and count:
        # a path of length |V| runs through a cycle, so there are paths of
        # every greater length too
        if n > MAX_PATHS:
            raise SizeLimitError(
                f"paths of length {n} exceed the {MAX_PATHS} limit")
        count = path_counts(graph, vi, n)[-1]
    if n * count > MAX_PATHS:
        raise SizeLimitError(
            f"paths of length {n} exceed the {MAX_PATHS} limit")


def path_index_tuples(graph: FiniteGraph, vi: int, n: int) -> list[tuple]:
    """Edge-index tuples ``(f_1, ..., f_n)`` of the length-``n`` paths with
    source vertex index ``vi``, so ``src(f_i) = rng(f_{i+1})`` and
    ``src(f_n) = vi``.

    Paths grow at the front: an edge ``f`` with ``src(f) = rng(mu)`` extends
    ``mu`` to ``f mu``.  Level by level, the extensions of a path stay
    together in edge order.  Refuses, before building any tuple, when the
    tuples would hold more than ``MAX_PATHS`` edge indices in all
    (``n * |E^n v| > MAX_PATHS``).
    """
    if n < 0:
        raise FormatError("path length must be nonnegative")
    # |E^n v| <= d^n for the largest out-degree d settles short requests
    if not (n <= 20 and n * graph._max_out ** n <= MAX_PATHS):
        _check_path_budget(graph, vi, n)
    succ, rng = graph._succ, graph._rng_list
    # per level, (position of the parent path, front edge) for every path;
    # tuples are read back at the end, so long paths cost no re-copying
    fronts, links = [vi], []
    for _ in range(n):
        if not fronts:
            return []
        link = [(i, f) for i, u in enumerate(fronts) for f in succ[u]]
        links.append(link)
        fronts = [rng[f] for _, f in link]
    out = []
    for j in range(len(fronts)):
        edges = []
        for link in reversed(links):
            j, f = link[j]
            edges.append(f)
        out.append(tuple(edges))
    return out


def enumerate_paths(graph: FiniteGraph, v, n: int) -> list[Path]:
    """All paths of length ``n`` with source ``v``, in the deterministic
    order of :func:`path_index_tuples`, as id-level :class:`Path` objects."""
    return [Path(vertex=v, edges=tuple(graph.edges[i] for i in idx))
            for idx in path_index_tuples(graph, graph.vertex_index(v), n)]


def spectral_radius(graph: FiniteGraph, tol: float = 1e-10) -> float:
    """Spectral radius of the adjacency matrix.

    Graphs with at most 64 vertices get ``max |eigvals(A)|`` from one dense
    eigenvalue computation.  Larger graphs iterate on ``B = A + I`` (the
    shift keeps periodic graphs converging) until the Collatz-Wielandt
    bracket of :func:`_collatz_wielandt` closes to ``tol * max(1, hi)``;
    the midpoint, less the shift, is returned.  A bracket that does not
    close (typically a reducible graph whose vertices see different
    radii) raises :class:`SizeLimitError`.  The radius is kept per ``tol``
    in the graph's instance dict; a refusal is not.
    """
    if not 0 < tol < math.inf:
        raise FormatError("tol must be finite and positive")
    radii = graph.__dict__.setdefault("_radii", {})
    if tol in radii:
        return radii[tol]
    if graph.n_edges == 0:
        rho = 0.0
    else:
        A = graph._adj.astype(np.float64)
        if A.shape[0] <= 64:
            rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        else:
            lo, hi = _collatz_wielandt(A, tol)
            rho = max(0.5 * (lo + hi) - 1.0, 0.0)
    radii[tol] = rho
    return rho


def _collatz_wielandt(A: np.ndarray, tol: float) -> tuple[float, float]:
    """Bracket ``lo <= rho(A + I) <= hi`` with ``hi - lo <= tol * max(1, hi)``.

    For a positive vector ``x`` and the nonnegative ``B = A + I``,
    ``min_i (Bx)_i / x_i <= rho(B) <= max_i (Bx)_i / x_i``.  Since
    ``B >= I`` the power iterates stay positive; an entry that falls below
    the smallest normal float (a vertex the dominant part of the graph
    does not reach) ends the iteration, as does the step budget.
    """
    B = A + np.eye(A.shape[0])
    x = np.ones(A.shape[0])
    for _ in range(50_000):
        y = B @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * max(1.0, hi):
            return lo, hi
        x = y / y.max()
        if x.min() < np.finfo(np.float64).tiny:
            raise SizeLimitError("Collatz-Wielandt iterate underflowed; "
                                 "graph too large for the dense radius")
    raise SizeLimitError(f"Collatz-Wielandt bracket did not close to {tol} "
                         "in 50000 steps; graph too large for the dense "
                         "radius")


def growth_sequence(graph: FiniteGraph, n_max: int) -> list[float]:
    """``max_v |E^n v|^{1/n}`` for n = 1..n_max."""
    out = []
    counts = np.ones(graph.n_vertices, dtype=np.int64)
    # counts[v] tracks |E^n v| = column sums of A^n
    for n in range(1, n_max + 1):
        counts = counts @ graph._adj      # 1^T A^n
        out.append(float(np.max(counts)) ** (1.0 / n))
    return out


# ---------------------------------------------------------------------------
# arcs on the circle


@dataclass(frozen=True)
class Arc:
    """Half-open arc ``[start, start + length)``, possibly wrapping."""
    start: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length <= TWO_PI):
            raise FormatError(f"arc length {self.length} outside (0, 2pi]")
        object.__setattr__(self, "start", wrap_angle(self.start))

    @property
    def end(self) -> float:
        return wrap_angle(self.start + self.length)

    def contains(self, t: float, slack: float = 0.0) -> bool:
        rel = wrap_angle(t - self.start)
        if rel >= TWO_PI - slack:
            rel = 0.0
        return rel < self.length + slack

    def unwrap(self, t: float) -> float:
        """Continuous representative of ``t`` in [start, start + 2pi)."""
        return self.start + wrap_angle(t - self.start)

    def midpoint(self) -> float:
        return wrap_angle(self.start + 0.5 * self.length)

    def sample(self, k: int, margin: float = 0.0) -> np.ndarray:
        """k angles spread over the arc interior."""
        rel = np.linspace(margin, self.length - margin, k)
        return (self.start + rel) % TWO_PI

    def intersect(self, other: "Arc") -> tuple["Arc", ...]:
        """Intersection as a tuple of arcs (0, 1 or 2 components)."""
        if self.length >= TWO_PI:
            return (other,)
        if other.length >= TWO_PI:
            return (self,)
        b = wrap_angle(other.start - self.start)
        pieces = []
        for lo in (b, b - TWO_PI):
            hi = lo + other.length
            s, e = max(lo, 0.0), min(hi, self.length)
            if e - s > ANGLE_TOL:
                pieces.append((s, e - s))
        arcs = [Arc(wrap_angle(self.start + s), ln) for s, ln in pieces]
        # merge pieces that abut across the far cut
        if len(arcs) == 2 and angle_dist(arcs[1].end, arcs[0].start) < ANGLE_TOL:
            total = arcs[0].length + arcs[1].length
            if total < TWO_PI - ANGLE_TOL:
                arcs = [Arc(arcs[1].start, total)]
        arcs.sort(key=lambda a: a.start)
        return tuple(arcs)


def arcs_cover_circle(arcs: Iterable[Arc]) -> bool:
    """Do the half-open arcs cover [0, 2pi)?"""
    arcs = list(arcs)
    if any(a.length >= TWO_PI for a in arcs):
        return True
    events = sorted({wrap_angle(a.start) for a in arcs}
                    | {wrap_angle(a.start + a.length) for a in arcs})
    for i, t in enumerate(events):
        t_next = events[(i + 1) % len(events)]
        mid = wrap_angle(t + 0.5 * ((t_next - t) % TWO_PI or TWO_PI))
        if not any(a.contains(mid, slack=ANGLE_TOL) for a in arcs):
            return False
        if not any(a.contains(t, slack=ANGLE_TOL) for a in arcs):
            return False
    return True


# ---------------------------------------------------------------------------
# circle-covering graphs


@dataclass(frozen=True)
class EdgeComponent:
    """One circle component of the edge space of a circle-covering graph."""
    source_degree: int
    source_offset: float = 0.0
    range_degree: int = 1
    range_offset: float = 0.0

    def __post_init__(self):
        try:
            d, m = int(self.source_degree), int(self.range_degree)
        except (ValueError, OverflowError):  # NaN or infinite
            raise FormatError("covering degrees must be finite") from None
        if d != self.source_degree or d < 1:
            raise FormatError("source_degree must be a positive integer")
        if m != self.range_degree or m == 0:
            raise FormatError("range_degree must be a nonzero integer")
        if not (math.isfinite(self.source_offset)
                and math.isfinite(self.range_offset)):
            raise FormatError("covering offsets must be finite angles")
        if max(d, abs(m)) > MAX_DEGREE:
            raise SizeLimitError(f"covering degrees ({d}, {m}) exceed "
                                 f"{MAX_DEGREE}")
        object.__setattr__(self, "source_degree", d)
        object.__setattr__(self, "range_degree", m)
        object.__setattr__(self, "source_offset", wrap_angle(self.source_offset))
        object.__setattr__(self, "range_offset", wrap_angle(self.range_offset))

    def source_map(self, u):
        return (self.source_offset + self.source_degree * np.asarray(u)) % TWO_PI

    def range_map(self, u):
        return (self.range_offset + self.range_degree * np.asarray(u)) % TWO_PI


class CircleCoveringGraph:
    """Vertex space = circle; edge space = disjoint rigid circle coverings."""

    def __init__(self, components: Sequence[EdgeComponent]):
        components = tuple(components)
        if not components:
            raise FormatError("a circle-covering graph needs >= 1 component")
        self.components = components

    @property
    def n_components(self) -> int:
        return len(self.components)

    def total_fiber_degree(self) -> int:
        return sum(c.source_degree for c in self.components)

    def fiber_count(self, v: float) -> int:
        """|s^{-1}(v)|; constant over the connected base circle."""
        wrap_angle(v)
        return self.total_fiber_degree()

    def __repr__(self):
        degs = [c.source_degree for c in self.components]
        return f"CircleCoveringGraph(source degrees {degs})"


@dataclass(frozen=True)
class SSection:
    """One branch of the inverse of a rigid covering source map over an arc.

    ``lift`` maps a base angle ``w`` in the arc ``base`` to the unique point
    of the branch of ``covering`` with ``s(lift(w)) = w``;
    ``range_at = r . lift``.
    """
    component: int
    branch: int
    base: Arc
    covering: EdgeComponent

    @property
    def arc(self) -> Arc:
        d = self.covering.source_degree
        start = (self.base.start - self.covering.source_offset
                 + TWO_PI * self.branch) / d
        return Arc(wrap_angle(start), self.base.length / d)

    def lift(self, w):
        theta = self.base.start + (np.asarray(w, dtype=float)
                                   - self.base.start) % TWO_PI
        u = (theta - self.covering.source_offset
             + TWO_PI * self.branch) / self.covering.source_degree
        return u % TWO_PI

    def range_at(self, w):
        return self.covering.range_map(self.lift(w))


def sections_over_arc(graph: CircleCoveringGraph, W: Arc) -> list[SSection]:
    """Disjoint sections exhausting ``s^{-1}(W)``, component-major order."""
    if W.length >= TWO_PI:
        raise FormatError("sections need an arc shorter than the circle")
    return [SSection(component=ci, branch=k, base=W, covering=comp)
            for ci, comp in enumerate(graph.components)
            for k in range(comp.source_degree)]


def s_section_decomposition(graph: CircleCoveringGraph, v: float,
                            width: float = math.pi):
    """Arc ``W`` around ``v`` and disjoint sections exhausting ``s^{-1}(W)``.

    Any width below ``2pi`` keeps the branches of each component disjoint.
    """
    if not (0.0 < width < TWO_PI):
        raise FormatError("section width must lie in (0, 2pi)")
    W = Arc(wrap_angle(v - 0.5 * width), width)
    return W, sections_over_arc(graph, W)
