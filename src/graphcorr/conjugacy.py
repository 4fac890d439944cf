"""Isomorphism and local-conjugacy machinery.

Contains the nonzero-pattern permutation witness for invertible matrices,
a backtracking finite-graph isomorphism search pruned by the multiplicity
matrix ``|w E^1 v|`` (isomorphisms are vertex and edge index arrays), a
canonical form for that matrix deciding bimodule isomorphism of finite
graphs, scored over all refinement-compatible orderings as one array,
verification of orthogonal frame data, and a local-conjugacy search for
rigid circle-covering graphs restricted to rigid base maps (rotations and
reflections).  A failed rigid search is reported as inconclusive, never
as a refutation; only genuine invariants (sizes, fiber counts) refute.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (FormatError, NoMatchingError, SingularMatrixError,
                     SizeLimitError)
from .graphs import (ANGLE_TOL, MAX_SEARCH, TWO_PI, Arc, CircleCoveringGraph,
                     FiniteGraph, angle_dist, s_section_decomposition,
                     wrap_angle)
from .modules import (DEFAULT_BASE_GRID, ModuleElement, VertexFunction,
                      _range_index, _source_index, inner_product)
from .report import Check


# ---------------------------------------------------------------------------
# nonzero-pattern permutation


@dataclass
class PermutationWitness:
    sigma: tuple            # row i pairs with column sigma[i]
    margin: float           # min_i |B[i, sigma[i]]|
    threshold: float


def _augmenting_matching(pattern: np.ndarray):
    """Perfect matching on a boolean rows-by-columns pattern, or ``None``.

    Kuhn's augmenting-path algorithm; deterministic.
    """
    n_rows, n_cols = pattern.shape
    match_col = [-1] * n_cols

    def try_row(r, seen):
        for c in range(n_cols):
            if pattern[r, c] and not seen[c]:
                seen[c] = True
                if match_col[c] == -1 or try_row(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n_rows):
        if not try_row(r, [False] * n_cols):
            return None
    sigma = [-1] * n_rows
    for c, r in enumerate(match_col):
        if r >= 0:
            sigma[r] = c
    return tuple(sigma)


def nonzero_permutation(B: np.ndarray,
                        threshold: float = 1e-12) -> PermutationWitness:
    """Permutation ``sigma`` with ``B[i, sigma(i)] != 0`` for every row.

    Exists for every invertible matrix (some term of the determinant
    expansion is nonzero).  Near-singular matrices are rejected; the
    matching runs on the pattern ``|B| > threshold`` and the margin
    reports how far the chosen entries sit above it.
    """
    B = np.asarray(B, dtype=np.complex128)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise FormatError("square matrix required")
    sv = np.linalg.svd(B, compute_uv=False)
    if sv[0] == 0 or sv[-1] <= 1e-12 * sv[0]:
        raise SingularMatrixError(
            f"matrix is singular or near-singular (smin/smax = "
            f"{0.0 if sv[0] == 0 else sv[-1] / sv[0]:.3e})")
    pattern = np.abs(B) > threshold
    sigma = _augmenting_matching(pattern)
    if sigma is None:
        raise NoMatchingError(
            f"no perfect matching above threshold {threshold}; largest "
            f"discarded entry {np.abs(B)[~pattern].max(initial=0.0):.3e}")
    margin = float(min(abs(B[i, sigma[i]]) for i in range(B.shape[0])))
    return PermutationWitness(sigma=sigma, margin=margin, threshold=threshold)


# ---------------------------------------------------------------------------
# finite graph isomorphism


#: the canonical form refuses more vertices or orderings than these
MAX_CANONICAL_VERTICES = 10
MAX_ORDERINGS = 500_000


@dataclass
class GraphIsomorphism:
    """A graph isomorphism ``E -> F`` on indices: ``vertices[i]`` is F's
    index of E's vertex ``i`` and ``edges[e]`` F's index of E's edge ``e``."""
    vertices: np.ndarray
    edges: np.ndarray

    def verify(self, E: FiniteGraph, F: FiniteGraph) -> None:
        for what, p, m, n in (
                ("vertex", self.vertices, E.n_vertices, F.n_vertices),
                ("edge", self.edges, E.n_edges, F.n_edges)):
            if np.shape(p) != (m,) \
                    or not np.array_equal(np.sort(p), np.arange(n)):
                raise FormatError(f"{what} map is not a bijection")
        bad = np.argwhere(np.stack([
            F.src_idx[self.edges] != self.vertices[E.src_idx],
            F.rng_idx[self.edges] != self.vertices[E.rng_idx]], axis=1))
        if bad.size:
            e, side = bad[0]
            raise FormatError(f"edge {E.edges[e]!r}: "
                              f"{('source', 'range')[side]} not intertwined")


@dataclass
class Refutation:
    reason: str


def _refine_colors(A: np.ndarray):
    """Iterated degree refinement; returns per-vertex color ids."""
    n = A.shape[0]
    colors = [0] * n
    rows, cols = A.tolist(), A.T.tolist()

    def profile(counts):    # sorted (color, multiplicity) pairs
        return tuple(sorted((colors[w], m) for w, m in enumerate(counts) if m))

    for _ in range(n + 1):
        sig = [(colors[v], profile(cols[v]), profile(rows[v]))
               for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            break
        colors = new
    return colors


def finite_graph_isomorphism(E: FiniteGraph, F: FiniteGraph):
    """Graph isomorphism, or a refutation naming why none exists.

    Backtracking over vertex bijections pruned by refinement colors and by
    the multiplicity matrix; the search is exhaustive, so a failure is a
    proof of non-isomorphism.  Parallel edges are matched in edge-index
    order.  The returned isomorphism is verified before return.
    """
    if E.n_vertices != F.n_vertices or E.n_edges != F.n_edges:
        return Refutation("size mismatch")
    AE, AF = E.adjacency(), F.adjacency()
    ce, cf = _refine_colors(AE), _refine_colors(AF)
    if sorted(ce) != sorted(cf):
        return Refutation("refinement color histogram differs")
    n = E.n_vertices
    order = sorted(range(n), key=lambda v: (ce.count(ce[v]), ce[v], v))
    assignment: dict[int, int] = {}
    used = [False] * n

    def backtrack(pos: int):
        if pos == n:
            return True
        v = order[pos]
        for w in range(n):
            if used[w] or cf[w] != ce[v]:
                continue
            if AE[v, v] == AF[w, w] and all(
                    AE[v, v2] == AF[w, w2] and AE[v2, v] == AF[w2, w]
                    for v2, w2 in assignment.items()):
                assignment[v] = w
                used[w] = True
                if backtrack(pos + 1):
                    return True
                del assignment[v]
                used[w] = False
        return False

    if not backtrack(0):
        return Refutation("exhausted search: multiplicity matrices are not "
                          "simultaneously permutation-equivalent")
    vertices = np.array([assignment[v] for v in range(n)], dtype=np.intp)
    # edges with the same endpoints are interchangeable: the stable sorts
    # pair them first-come, in edge-index order
    edges = np.empty(E.n_edges, dtype=np.intp)
    edges[np.argsort(vertices[E.src_idx] * n + vertices[E.rng_idx],
                     kind="stable")] = np.argsort(F.src_idx * n + F.rng_idx,
                                                  kind="stable")
    iso = GraphIsomorphism(vertices=vertices, edges=edges)
    iso.verify(E, F)
    return iso


def bimodule_invariants(E: FiniteGraph) -> tuple:
    """Canonical form of the multiplicity matrix ``|w E^1 v|``.

    The lexicographic minimum of the row-major flattened matrix over the
    simultaneous row/column permutations that list the degree-refinement
    color classes in sorted-color order, prefixed by the vertex count.
    Every such ordering is one row of a small-int array; at each position
    only the rows reaching the minimum there are kept.  Two finite graphs
    have isomorphic correspondences exactly when these forms coincide.
    """
    if E.n_vertices > MAX_CANONICAL_VERTICES:
        raise SizeLimitError("canonical form capped at "
                             f"{MAX_CANONICAL_VERTICES} vertices")
    A = E.adjacency()
    n = E.n_vertices
    colors = _refine_colors(A)
    classes = [[v for v in range(n) if colors[v] == c]
               for c in sorted(set(colors))]
    n_orderings = math.prod(math.factorial(len(cls)) for cls in classes)
    if n_orderings > MAX_ORDERINGS:
        raise SizeLimitError(
            f"{n_orderings} refinement-compatible orderings; graph too "
            "symmetric for the desk-scale canonical form")
    perms = np.zeros((1, 0), dtype=np.int8)
    for cls in classes:
        table = np.array(list(itertools.permutations(cls)), dtype=np.int8)
        perms = np.hstack([np.repeat(perms, len(table), axis=0),
                           np.tile(table, (len(perms), 1))])
    for i in range(n):
        for j in range(n):
            vals = A[perms[:, i], perms[:, j]]
            perms = perms[vals == vals.min()]
    return (n,) + tuple(A[np.ix_(perms[0], perms[0])].ravel().tolist())


# ---------------------------------------------------------------------------
# frame verification


@dataclass
class FrameData:
    """Orthogonal generators with a common weight and transfer maps.

    ``h`` is a [0, 1]-valued vertex function and ``gens`` are module
    elements with ``<g_i, g_j> = delta_ij h``.  ``alphas[i]`` is an int
    array over the base points (the vertices, or the grid of ``h``): the
    base index ``alpha_i(j)`` to which the left action transfers along
    ``g_i`` over ``j``, and ``-1`` off the support.
    """
    h: VertexFunction
    gens: tuple
    alphas: tuple


@dataclass
class FrameReport:
    passed: bool
    failed_condition: str | None = None
    detail: str = ""
    max_residuals: dict = field(default_factory=dict)
    anchors: list = field(default_factory=list)

    def check(self) -> Check:
        """``frame-verify`` with the largest residual; the detail names the
        failed condition or counts the extracted anchors."""
        return Check("frame-verify", self.passed,
                     max(self.max_residuals.values(), default=0.0),
                     self.failed_condition
                     or f"{len(self.anchors)} anchors extracted")


def frame_verify(graph, fd: FrameData, tol: float = 1e-9) -> FrameReport:
    """Check the three frame conditions and extract the section matching.

    (1) ``<g_i, g_j> = delta_ij h`` pointwise;
    (2) on the open support of ``h`` the fiber matrices ``B[i, c] =
        g_i(c-th sample over the point, by index)`` are square, full rank;
    (3) ``a . g_i = g_i . (a o alpha_i)`` for all ``a``: ``r(e) =
        alpha_i(s(e))`` where ``g_i(e) != 0``, residual ``max |g_i(e)|``
        where not.

    At sampled support points (anchors) the nonzero-pattern permutation of
    ``B`` pairs generators with fiber samples, and ``alpha_i`` must equal
    the range along the matched branch (:func:`_branch_near`) exactly.
    """
    k = len(fd.gens)
    if k == 0 or not np.abs(fd.h.values).max() > 0:
        raise FormatError("frame needs generators and a nonzero weight")
    report = FrameReport(passed=True)
    fail = partial(FrameReport, False, max_residuals=report.max_residuals)

    # (1) orthogonality with common weight
    res1 = 0.0
    for i in range(k):
        for j in range(k):
            ip = inner_product(fd.gens[i], fd.gens[j]).values
            target = fd.h.values if i == j else 0.0
            res1 = max(res1, float(np.max(np.abs(ip - target))))
    report.max_residuals["orthogonality"] = res1
    if res1 > tol:
        return fail("(1) orthogonality", f"residual {res1:.3e}")

    n, floor = fd.h.base_n, max(tol, 1e-12)
    supp = np.flatnonzero(np.abs(fd.h.values) > floor)
    G, alpha = np.array([g.values for g in fd.gens]), np.array(fd.alphas)
    src, rng = _source_index(graph, n), _range_index(graph, n)

    # (2) spanning: fiber matrices square and full rank on the support
    sizes = np.bincount(src, minlength=fd.h.values.size)[supp]
    if np.any(sizes != k):
        return fail("(2) spanning", f"fiber size {sizes[sizes != k][0]} != "
                    f"{k} generators at base point {supp[sizes != k][0]}")
    order = np.argsort(src, kind="stable")
    fibers = order[np.searchsorted(src[order], supp)[:, None] + np.arange(k)]
    B = G[:, fibers].transpose(1, 0, 2)
    sv = np.linalg.svd(B, compute_uv=False)
    deficient = sv[:, -1] <= tol * np.maximum(1.0, sv[:, 0])
    if deficient.any():
        return fail("(2) spanning", "rank-deficient fiber matrix at base "
                    f"point {supp[deficient][0]}")

    # (3) action transfer, exact on the index maps
    res3 = float(np.abs(G[rng != alpha[:, src]]).max(initial=0.0))
    report.max_residuals["action-transfer"] = res3
    if res3 > tol:
        return fail("(3) action transfer", f"residual {res3:.3e}")

    # extraction: permutation and transfer maps at sampled anchors
    report.max_residuals["alpha-extraction"] = 0.0
    for at in range(0, len(supp), max(1, len(supp) // 16)):
        witness = nonzero_permutation(B[at], threshold=min(1e-12, tol))
        ws, es = _branch_near(graph, n, supp[at],
                              fibers[at, list(witness.sigma)])
        inside = np.abs(fd.h.values[ws]) > floor
        ws, es = ws[inside], es[:, inside]
        wrong = np.argwhere(alpha[:, ws] != rng[es])
        if wrong.size:
            i, m = wrong[0]
            report.max_residuals["alpha-extraction"] = 1.0
            return fail("extraction", f"alpha[{i}]({ws[m]}) = "
                        f"{alpha[i, ws[m]]} but the matched branch has range "
                        f"{rng[es[i, m]]}")
        report.anchors.append((int(supp[at]), witness.sigma))
    return report


def _branch_near(graph, n: int | None, j: int, es: np.ndarray):
    """Base points near ``j`` and the samples continuing each of ``es`` (over
    ``j``) along its branch over them: ``j`` alone on a finite graph, on a
    circle the grid points of the arc of width ``0.9 pi`` around ``j``."""
    if n is None:
        return np.array([j]), es[:, None]
    sizes = np.array([c.source_degree * n for c in graph.components])
    c = np.searchsorted(np.cumsum(sizes), es, side="right")
    first, size = (np.cumsum(sizes) - sizes)[c, None], sizes[c, None]
    delta = np.arange(-(9 * n // 40), -(-9 * n // 40))
    return (j + delta) % n, first + (es[:, None] - first + delta) % size


def bump_frame(graph: CircleCoveringGraph,
               base_n: int = DEFAULT_BASE_GRID, center: float = 0.0,
               width: float = 2.4) -> FrameData:
    """The canonical frame over an arc: ``g = sqrt(h o s|_section)``.

    ``h`` is a smooth bump of the given width around ``center``; each
    generator is supported on one branch of the source map over the bump
    and transfers the left action along range-after-inverse-section.
    Fewer than two base-grid points in the open support of the bump leave
    nothing to verify and raise ``FormatError``.
    """
    if not (0.0 < width < math.pi):
        raise FormatError("bump width must lie in (0, pi)")

    def h_func(t):
        t = np.asarray(t, dtype=float)
        rel = (t - center + math.pi) % TWO_PI - math.pi
        out = np.cos(rel * (math.pi / width)) ** 2
        out[np.abs(rel) >= width / 2.0] = 0.0
        return out

    t = TWO_PI * np.arange(base_n) / base_n
    h_vals = h_func(t)
    if np.count_nonzero(h_vals) < 2:
        raise FormatError(f"only {np.count_nonzero(h_vals)} of {base_n} "
                          "base-grid points lie in the bump's support")
    h = VertexFunction(graph, h_vals.astype(np.complex128), base_n)
    src, rng = _source_index(graph, base_n), _range_index(graph, base_n)
    sizes = [c.source_degree * base_n for c in graph.components]
    _, sections = s_section_decomposition(graph, center, width=width)
    gens, alphas = [], []
    for sec in sections:
        comp, sz = graph.components[sec.component], sizes[sec.component]
        first = sum(sizes[:sec.component])
        u = TWO_PI * np.arange(sz) / sz
        rel = (u - sec.arc.start) % TWO_PI
        in_arc = (rel < sec.arc.length + ANGLE_TOL) \
            | (rel >= TWO_PI - ANGLE_TOL)
        vals = np.zeros(src.size, dtype=np.complex128)
        vals[first:first + sz][in_arc] = np.sqrt(
            h_func(comp.source_map(u)[in_arc]).real)
        on = np.flatnonzero(vals)
        alphas.append(np.full(base_n, -1))
        alphas[-1][src[on]] = rng[on]
        gens.append(ModuleElement._from_values(graph, vals, base_n))
    return FrameData(h=h, gens=tuple(gens), alphas=tuple(alphas))


# ---------------------------------------------------------------------------
# local conjugacy for rigid circle graphs

#: the rigid search covers the circle by ``LOCAL_ARCS`` arcs and samples
#: each at ``ARC_SAMPLES`` points
LOCAL_ARCS, ARC_SAMPLES = 6, 12


@dataclass
class RigidCircleMap:
    """``t -> offset + t`` (rotation) or ``t -> offset - t`` (reflection)."""
    offset: float
    reflect: bool = False

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return (self.offset - t) % TWO_PI if self.reflect \
            else (self.offset + t) % TWO_PI


@dataclass
class ArcMatching:
    arc: Arc
    pairs: tuple       # (E-section index, F-section index) pairs


@dataclass
class LocalConjugacyCertificate:
    vertex_map: RigidCircleMap
    matchings: list


@dataclass
class Inconclusive:
    reason: str


def local_conjugacy_check(E: CircleCoveringGraph, F: CircleCoveringGraph,
                          tol: float = 1e-9, grid: int = 720):
    """Search rigid base maps for a local conjugacy certificate.

    The source intertwining holds by construction of the per-arc edge
    maps (each edge section maps onto the matching section through the
    base map), so a matching is admissible iff the range intertwining
    holds on sampled points.  Returns a certificate, a refutation for
    genuine invariants, or an inconclusive report: rigid maps are only a
    slice of all homeomorphisms.

    Rotations come before reflections, each by ascending offset; the first
    map whose arcs all admit a perfect matching wins.  Offsets are tested in
    array blocks, arc by arc, over ``LOCAL_ARCS`` arcs of ``ARC_SAMPLES``
    samples each.  More than ``MAX_SEARCH`` section-pair samples (at most
    ``grid + 2 n_E n_F`` offsets) raise ``SizeLimitError``.
    """
    if not isinstance(E, CircleCoveringGraph) \
            or not isinstance(F, CircleCoveringGraph):
        raise FormatError("rigid circle-covering graphs required")
    k = E.total_fiber_degree()
    if k != F.total_fiber_degree():
        return Refutation("fiber counts differ")
    work = (grid + 2 * E.n_components * F.n_components) * k * k \
        * ARC_SAMPLES * LOCAL_ARCS
    if work > MAX_SEARCH:
        raise SizeLimitError(f"local conjugacy search over {work} section-"
                             f"pair samples exceeds the {MAX_SEARCH} limit")
    offsets = sorted({wrap_angle(TWO_PI * i / grid) for i in range(grid)} | {
        wrap_angle(cf.source_offset + sign * ce.source_offset)
        for ce in E.components for cf in F.components for sign in (-1, 1)})
    arcs = []
    for a in range(LOCAL_ARCS):
        W, se = s_section_decomposition(E, TWO_PI * a / LOCAL_ARCS,
                                        width=TWO_PI / LOCAL_ARCS + 0.2)
        w_s = W.sample(ARC_SAMPLES, margin=1e-3)
        arcs.append((TWO_PI * a / LOCAL_ARCS, W, w_s,
                     np.array([sec.range_at(w_s) for sec in se])))
    # blocks of 1, 8, 64, ... offsets up to 2^16 section-pair samples: an
    # early certificate stays cheap and memory does not grow with the grid
    offs = np.array(offsets)[:, None, None]
    cap = 2 ** 16 // (k * k * ARC_SAMPLES)
    for reflect in (False, True):
        lo, size = 0, 1
        while lo < len(offsets):
            alive, mats = np.arange(lo, min(lo + size, len(offsets))), []
            for arc in arcs:
                if not alive.size:
                    break
                C = _arc_compat(arc, F, RigidCircleMap(offs[alive], reflect),
                                tol)
                keep = C.any(axis=2).all(axis=1) & C.any(axis=1).all(axis=1)
                alive, mats = alive[keep], [c[keep] for c in mats + [C]]
            for i, o in enumerate(alive):
                sigmas = [_augmenting_matching(c[i]) for c in mats]
                if None not in sigmas:
                    return LocalConjugacyCertificate(
                        RigidCircleMap(offsets[o], reflect),
                        [ArcMatching(arc[1], tuple(enumerate(s)))
                         for arc, s in zip(arcs, sigmas)])
            lo, size = lo + size, max(1, min(8 * size, cap))
    return Inconclusive("no rigid certificate found; non-rigid local "
                        "conjugacies are outside the search class")


def _arc_compat(arc, F, phi, tol):
    """Compatibility tensor ``(offset, E-section, F-section)`` of the arc
    ``(center, W, w_s, E's section ranges at w_s)`` under maps ``phi`` of
    offsets ``(K, 1, 1)``; F's sections over ``phi(W)`` as ``SSection``."""
    center, W, w_s, rE = arc
    d, soff, branch, m, roff = np.array(
        [(c.source_degree, c.source_offset, b, c.range_degree, c.range_offset)
         for c in F.components for b in range(c.source_degree)]).T[..., None]
    start = np.fmod(phi(center) - 0.5 * W.length, TWO_PI)   # wrap_angle
    start = np.where(start < 0.0, start + TWO_PI, start)
    start = np.where(start >= TWO_PI, 0.0, start)
    u = (start + (phi(w_s) - start) % TWO_PI - soff + TWO_PI * branch) / d
    rF = (roff + m * (u % TWO_PI)) % TWO_PI
    return angle_dist(phi(rE)[:, :, None], rF[:, None]).max(-1) <= tol
