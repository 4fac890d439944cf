"""Isomorphism and local-conjugacy machinery.

Contains the nonzero-pattern permutation witness for invertible matrices,
a backtracking finite-graph isomorphism search pruned by the multiplicity
matrix ``|w E^1 v|``, a canonical form for that matrix deciding bimodule
isomorphism of finite graphs, verification of orthogonal frame data, and a
local-conjugacy search for rigid circle-covering graphs restricted to
rigid base maps (rotations and reflections).  A failed rigid search is
reported as inconclusive, never as a refutation; only genuine invariants
(sizes, fiber counts) refute.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (FormatError, NoMatchingError, SingularMatrixError,
                     SizeLimitError)
from .graphs import (ANGLE_TOL, TWO_PI, Arc, CircleCoveringGraph, FiniteGraph,
                     angle_dist, s_section_decomposition, wrap_angle)
from .modules import (DEFAULT_BASE_GRID, ModuleElement, VertexFunction,
                      _grid_offset, fiber_evaluation, inner_product,
                      left_action, right_action)
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


@dataclass
class GraphIsomorphism:
    vertex_map: dict
    edge_map: dict

    def verify(self, E: FiniteGraph, F: FiniteGraph) -> None:
        if set(self.vertex_map) != set(E.vertices) \
                or set(self.vertex_map.values()) != set(F.vertices):
            raise FormatError("vertex map is not a bijection")
        if set(self.edge_map) != set(E.edges) \
                or set(self.edge_map.values()) != set(F.edges):
            raise FormatError("edge map is not a bijection")
        for e in E.edges:
            f = self.edge_map[e]
            ei = E.edge_index(e)
            if F.src[F.edge_index(f)] != self.vertex_map[E.src[ei]]:
                raise FormatError(f"edge {e!r}: source not intertwined")
            if F.rng[F.edge_index(f)] != self.vertex_map[E.rng[ei]]:
                raise FormatError(f"edge {e!r}: range not intertwined")


@dataclass
class Refutation:
    reason: str
    invariant: object = None


def _refine_colors(A: np.ndarray):
    """Iterated degree refinement; returns per-vertex color ids."""
    n = A.shape[0]
    colors = [0] * n
    for _ in range(n + 1):
        sig = []
        for v in range(n):
            out_prof = tuple(sorted((colors[w], int(A[w, v]))
                                    for w in range(n) if A[w, v]))
            in_prof = tuple(sorted((colors[w], int(A[v, w]))
                                   for w in range(n) if A[v, w]))
            sig.append((colors[v], out_prof, in_prof))
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            break
        colors = new
    return colors


def finite_graph_isomorphism(E: FiniteGraph, F: FiniteGraph):
    """Graph isomorphism or a refutation with the distinguishing invariant.

    Backtracking over vertex bijections pruned by refinement colors and by
    the multiplicity matrix; the search is exhaustive, so a failure is a
    proof of non-isomorphism.  Returned maps are verified before return.
    """
    if E.n_vertices != F.n_vertices or E.n_edges != F.n_edges:
        return Refutation("size mismatch",
                          (E.n_vertices, E.n_edges, F.n_vertices, F.n_edges))
    AE, AF = E.adjacency(), F.adjacency()
    ce, cf = _refine_colors(AE), _refine_colors(AF)
    if sorted(ce) != sorted(cf):
        return Refutation("refinement color histogram differs",
                          (sorted(ce), sorted(cf)))
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
            ok = True
            for v2, w2 in assignment.items():
                if AE[v, v2] != AF[w, w2] or AE[v2, v] != AF[w2, w]:
                    ok = False
                    break
            if AE[v, v] != AF[w, w]:
                ok = False
            if ok:
                assignment[v] = w
                used[w] = True
                if backtrack(pos + 1):
                    return True
                del assignment[v]
                used[w] = False
        return False

    if not backtrack(0):
        return Refutation("exhausted search: multiplicity matrices are not "
                          "simultaneously permutation-equivalent",
                          bimodule_invariants(E))
    vmap = {E.vertices[v]: F.vertices[w] for v, w in assignment.items()}
    # edges with the same endpoints are interchangeable; match in order
    emap = {}
    buckets: dict = {}
    for f in F.edges:
        fi = F.edge_index(f)
        buckets.setdefault((F.src[fi], F.rng[fi]), []).append(f)
    for e in E.edges:
        ei = E.edge_index(e)
        key = (vmap[E.src[ei]], vmap[E.rng[ei]])
        emap[e] = buckets[key].pop(0)
    iso = GraphIsomorphism(vertex_map=vmap, edge_map=emap)
    iso.verify(E, F)
    return iso


def bimodule_invariants(E: FiniteGraph, max_vertices: int = 10) -> tuple:
    """Canonical form of the multiplicity matrix ``|w E^1 v|``.

    Minimum of the flattened matrix over simultaneous row/column
    permutations compatible with degree refinement (branch and bound).
    Two finite graphs have isomorphic correspondences exactly when these
    canonical forms coincide.
    """
    if E.n_vertices > max_vertices:
        raise SizeLimitError("canonical form capped at "
                             f"{max_vertices} vertices")
    A = E.adjacency()
    n = E.n_vertices
    colors = _refine_colors(A)
    best: list | None = None

    def flatten(perm):
        return tuple(int(A[perm[i], perm[j]]) for i in range(n)
                     for j in range(n))

    # candidates grouped by color; orderings must list color classes in
    # canonical (sorted-color) order to stay isomorphism-invariant
    by_color: dict = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    class_order = [by_color[c] for c in sorted(by_color)]
    n_orderings = 1
    for cls in class_order:
        n_orderings *= math.factorial(len(cls))
    if n_orderings > 500_000:
        raise SizeLimitError(
            f"{n_orderings} refinement-compatible orderings; graph too "
            "symmetric for the desk-scale canonical form")

    def orderings():
        pools = [itertools.permutations(cls) for cls in class_order]
        for combo in itertools.product(*pools):
            yield [v for cls in combo for v in cls]

    for perm in orderings():
        flat = flatten(perm)
        if best is None or flat < best:
            best = flat
    return (n,) + tuple(best)


# ---------------------------------------------------------------------------
# frame verification


@dataclass
class FrameData:
    """Orthogonal generators with a common weight and transfer maps.

    ``h`` is a [0, 1]-valued vertex function, ``gens`` module elements with
    ``<g_i, g_j> = delta_ij h``, and ``alphas[i]`` records where the left
    action transfers along ``g_i``: a dict vertex -> vertex for finite
    graphs, or an angle array over the base grid (NaN off the support) for
    circle graphs.
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


def _support_indices(h: VertexFunction, floor: float):
    return np.flatnonzero(np.abs(h.values) > floor)


def _test_functions(graph, base_n):
    """Callables spanning enough of the vertex functions for action tests."""
    if isinstance(graph, FiniteGraph):
        # vertex indicators, as value maps
        out = []
        for v in graph.vertices:
            out.append((f"ind[{v}]",
                        lambda t, vv=v: np.asarray(t == graph.vertex_index(vv),
                                                   dtype=np.complex128)))
        return out
    return [(f"mode[{k}]", lambda t, kk=k: np.exp(1j * kk * np.asarray(t)))
            for k in (0, 1, 2, -1)]


def frame_verify(graph, fd: FrameData, tol: float = 1e-9) -> FrameReport:
    """Check the three frame conditions and extract the section matching.

    (1) ``<g_i, g_j> = delta_ij h`` pointwise;
    (2) at each point in the open support of ``h`` the generator
        restrictions span the source fiber (square and full rank);
    (3) for test coefficients ``a``: ``a . g_i = g_i . (a o alpha_i)``.

    On success, at sampled support points the nonzero-pattern permutation
    of the fiber matrix pairs generators with fiber branches and the
    transfer maps must agree with range-after-inverse-section on the
    surrounding arc.
    """
    k = len(fd.gens)
    if k == 0 or not np.abs(fd.h.values).max() > 0:
        raise FormatError("frame needs generators and a nonzero weight")
    report = FrameReport(passed=True)
    finite = isinstance(graph, FiniteGraph)
    base_n = None if finite else fd.h.base_n

    # (1) orthogonality with common weight
    res1 = 0.0
    for i in range(k):
        for j in range(k):
            ip = inner_product(fd.gens[i], fd.gens[j]).values
            target = fd.h.values if i == j else 0.0
            res1 = max(res1, float(np.max(np.abs(ip - target))))
    report.max_residuals["orthogonality"] = res1
    if res1 > tol:
        return FrameReport(False, "(1) orthogonality", f"residual {res1:.3e}",
                           report.max_residuals)

    supp = _support_indices(fd.h, floor=max(tol, 1e-12))

    # (2) spanning: fiber matrices square and full rank on the support
    for idx in supp:
        v = graph.vertices[idx] if finite else TWO_PI * idx / base_n
        B = np.array([fiber_evaluation(g, v) for g in fd.gens])
        if B.shape[0] != B.shape[1]:
            return FrameReport(False, "(2) spanning",
                               f"fiber size {B.shape[1]} != {k} generators "
                               f"at {v!r}", report.max_residuals)
        sv = np.linalg.svd(B, compute_uv=False)
        if sv[-1] <= tol * max(1.0, sv[0]):
            return FrameReport(False, "(2) spanning",
                               f"rank-deficient fiber matrix at {v!r}",
                               report.max_residuals)

    # (3) action transfer on test coefficients
    res3 = 0.0
    for name, func in _test_functions(graph, base_n):
        if finite:
            a = VertexFunction(graph, func(np.arange(graph.n_vertices)))
        else:
            t = TWO_PI * np.arange(base_n) / base_n
            a = VertexFunction(graph, func(t), base_n)
        for i in range(k):
            lhs = left_action(a, fd.gens[i])
            atilde = _compose_with_alpha(graph, func, fd.alphas[i], fd.h,
                                         base_n, tol)
            rhs = right_action(fd.gens[i], atilde)
            res3 = max(res3, float(np.max(np.abs(lhs.values - rhs.values))))
    report.max_residuals["action-transfer"] = res3
    if res3 > tol:
        return FrameReport(False, "(3) action transfer",
                           f"residual {res3:.3e}", report.max_residuals)

    # extraction: permutation and transfer maps at sampled anchors
    resa = 0.0
    anchor_idx = supp if finite else supp[:: max(1, len(supp) // 16)]
    for idx in anchor_idx:
        if finite:
            v = graph.vertices[idx]
            B = np.array([fiber_evaluation(g, v) for g in fd.gens])
            witness = nonzero_permutation(B, threshold=min(1e-12, tol))
            fiber_edges = graph.edges_from_index(graph.vertex_index(v))
            for i in range(k):
                e = fiber_edges[witness.sigma[i]]
                target = graph.rng[int(e)]
                got = fd.alphas[i].get(v)
                if got != target:
                    return FrameReport(False, "extraction",
                                       f"alpha[{i}]({v!r}) = {got!r} but the "
                                       f"matched branch has range {target!r}",
                                       report.max_residuals)
            report.anchors.append((v, witness.sigma))
        else:
            v = TWO_PI * idx / base_n
            # a safe section width: stay inside a half circle
            W, sections = s_section_decomposition(graph, v,
                                                  width=math.pi * 0.9)
            # columns ordered like the sections, so the matching indexes them
            B = np.zeros((k, len(sections)), dtype=np.complex128)
            for jsec, sec in enumerate(sections):
                sz = graph.components[sec.component].source_degree * base_n
                m = _grid_offset(float(sec.lift(v)), sz, "section point")
                for i in range(k):
                    B[i, jsec] = fd.gens[i].components[sec.component][m]
            witness = nonzero_permutation(B, threshold=min(1e-12, tol))
            for i in range(k):
                sec = sections[witness.sigma[i]]
                for widx in _grid_indices_in_arc(W, base_n, fd.h, tol):
                    w_angle = TWO_PI * widx / base_n
                    alpha_val = fd.alphas[i][widx]
                    if np.isnan(alpha_val):
                        continue
                    resa = max(resa, angle_dist(alpha_val,
                                                float(sec.range_at(w_angle))))
            report.anchors.append((float(v), witness.sigma))
    report.max_residuals["alpha-extraction"] = resa
    if resa > tol:
        return FrameReport(False, "extraction",
                           f"alpha residual {resa:.3e}", report.max_residuals)
    return report


def _grid_indices_in_arc(W: Arc, base_n: int, h: VertexFunction, tol: float):
    t = TWO_PI * np.arange(base_n) / base_n
    inside = [j for j in range(base_n)
              if W.contains(t[j]) and abs(h.values[j]) > max(tol, 1e-12)]
    return inside


def _compose_with_alpha(graph, func, alpha, h, base_n, tol):
    """``a o alpha_i`` extended by zero off the support of ``h``.

    Only values over the support ever multiply a nonzero generator entry,
    so the extension choice cannot affect the identity being tested.
    """
    if isinstance(graph, FiniteGraph):
        vals = np.zeros(graph.n_vertices, dtype=np.complex128)
        for v, target in alpha.items():
            vals[graph.vertex_index(v)] = func(
                np.asarray(graph.vertex_index(target)))
        return VertexFunction(graph, vals)
    vals = np.zeros(base_n, dtype=np.complex128)
    mask = ~np.isnan(alpha)
    vals[mask] = func(alpha[mask])
    return VertexFunction(graph, vals, base_n)


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
    W, sections = s_section_decomposition(graph, center, width=width)
    gens = []
    alphas = []
    for sec in sections:
        comps = []
        for ci, comp in enumerate(graph.components):
            sz = comp.source_degree * base_n
            vals = np.zeros(sz, dtype=np.complex128)
            if ci == sec.component:
                u = TWO_PI * np.arange(sz) / sz
                s_of_u = comp.source_map(u)
                in_arc = np.array([sec.arc.contains(uu, slack=ANGLE_TOL)
                                   for uu in u])
                vals[in_arc] = np.sqrt(h_func(s_of_u[in_arc]).real)
            comps.append(vals)
        gens.append(ModuleElement(graph, tuple(comps), base_n))
        alpha = np.full(base_n, np.nan)
        for j in range(base_n):
            if h.values[j].real > 0 and W.contains(t[j], slack=ANGLE_TOL):
                alpha[j] = float(sec.range_at(t[j]))
        alphas.append(alpha)
    return FrameData(h=h, gens=tuple(gens), alphas=tuple(alphas))


def finite_frame(graph: FiniteGraph, v) -> FrameData:
    """Trivial frame at a vertex: ``h = delta_v``, edge deltas over its fiber."""
    from .modules import delta_edge, delta_vertex
    h = delta_vertex(graph, v)
    gens = []
    alphas = []
    for ei in graph.edges_from_index(graph.vertex_index(v)):
        e = graph.edges[int(ei)]
        gens.append(delta_edge(graph, e))
        alphas.append({v: graph.rng[int(ei)]})
    return FrameData(h=h, gens=tuple(gens), alphas=tuple(alphas))


# ---------------------------------------------------------------------------
# local conjugacy for rigid circle graphs


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
                          tol: float = 1e-9, grid: int = 720,
                          n_arcs: int = 6, samples: int = 12):
    """Search rigid base maps for a local conjugacy certificate.

    The source intertwining holds by construction of the per-arc edge
    maps (each edge section maps onto the matching section through the
    base map), so a matching is admissible iff the range intertwining
    holds on sampled points.  Returns a certificate, a refutation for
    genuine invariants, or an inconclusive report: rigid maps are only a
    slice of all homeomorphisms.
    """
    if not isinstance(E, CircleCoveringGraph) \
            or not isinstance(F, CircleCoveringGraph):
        raise FormatError("rigid circle-covering graphs required")
    if E.total_fiber_degree() != F.total_fiber_degree():
        return Refutation("fiber counts differ",
                          (E.total_fiber_degree(), F.total_fiber_degree()))
    offsets = {wrap_angle(TWO_PI * i / grid) for i in range(grid)}
    for ce in E.components:
        for cf in F.components:
            offsets.add(wrap_angle(cf.source_offset - ce.source_offset))
            offsets.add(wrap_angle(cf.source_offset + ce.source_offset))
    for reflect in (False, True):
        for off in sorted(offsets):
            phi0 = RigidCircleMap(offset=off, reflect=reflect)
            cert = _try_certificate(E, F, phi0, tol, n_arcs, samples)
            if cert is not None:
                return cert
    return Inconclusive("no rigid certificate found; non-rigid local "
                        "conjugacies are outside the search class")


def _try_certificate(E, F, phi0, tol, n_arcs, samples):
    matchings = []
    for a in range(n_arcs):
        center = TWO_PI * a / n_arcs
        width = TWO_PI / n_arcs + 0.2
        W, se = s_section_decomposition(E, center, width=width)
        _, sf = s_section_decomposition(F, phi0(center), width=width)
        w_s = W.sample(samples, margin=1e-3)
        compat = np.zeros((len(se), len(sf)), dtype=bool)
        for i, secE in enumerate(se):
            targetE = phi0(secE.range_at(w_s))
            for j, secF in enumerate(sf):
                # F-section over phi0(W): lift at phi0(w)
                targetF = secF.range_at(phi0(w_s))
                if np.max(np.abs(np.minimum(
                        np.abs(targetE - targetF),
                        TWO_PI - np.abs(targetE - targetF)))) <= tol:
                    compat[i, j] = True
        sigma = _augmenting_matching(compat)
        if sigma is None:
            return None
        matchings.append(ArcMatching(
            arc=W, pairs=tuple((i, sigma[i]) for i in range(len(se)))))
    return LocalConjugacyCertificate(vertex_map=phi0, matchings=matchings)
