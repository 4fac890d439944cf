import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcorr.conjugacy import (ArcMatching, FrameData, GraphIsomorphism,
                                 Inconclusive, LocalConjugacyCertificate,
                                 Refutation, RigidCircleMap,
                                 _arc_compat, _augmenting_matching,
                                 _refine_colors, bimodule_invariants,
                                 bump_frame, finite_graph_isomorphism,
                                 frame_verify, local_conjugacy_check,
                                 nonzero_permutation)
from graphcorr.errors import (FormatError, NoMatchingError,
                              SingularMatrixError, SizeLimitError)
from graphcorr.fixtures import (FINITE_FIXTURES, circle_double_cover,
                                circle_triple_cover, circle_two_loops,
                                edgeless, fibonacci, k_loops, single_loop,
                                ten_edge)
from graphcorr.graphs import (MAX_DEGREE, TWO_PI, CircleCoveringGraph,
                              EdgeComponent, FiniteGraph, angle_dist,
                              s_section_decomposition, wrap_angle)
from graphcorr.modules import (ModuleElement, VertexFunction, left_action,
                               right_action)
from graphcorr.suite import (CYCLE_PARTITIONS, _cycle_graph_union,
                             _exhaustive_isomorphic, _random_graph,
                             relabeled_copy)

from oracles import finite_frame
from strategies import circle_pairs, finite_graphs

# ---------------------------------------------------------------------------
# oracles


def exhaustive_nonzero_sigma(B, threshold=1e-12):
    """All permutations whose matched entries all clear the threshold."""
    k = B.shape[0]
    out = []
    for sigma in itertools.permutations(range(k)):
        if all(abs(B[i, sigma[i]]) > threshold for i in range(k)):
            out.append(sigma)
    return out


def reference_colors(A):
    """Degree refinement entry by entry: per-vertex color ids."""
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


def reference_invariants(E):
    """The canonical form scored one ordering at a time: the lexicographic
    minimum of the flattened multiplicity matrix, as a Python tuple, over
    every ordering listing the refinement color classes in color order."""
    A, n = E.adjacency(), E.n_vertices
    colors = reference_colors(A)
    assert colors == _refine_colors(A)
    classes = [[v for v in range(n) if colors[v] == c]
               for c in sorted(set(colors))]
    orderings = (sum(combo, ()) for combo in itertools.product(
        *(itertools.permutations(cls) for cls in classes)))
    return (n,) + min(tuple(int(A[p[i], p[j]]) for i in range(n)
                            for j in range(n)) for p in orderings)


def loop_local_conjugacy_check(E, F, tol=1e-9, grid=720, n_arcs=6,
                               samples=12):
    """The rigid search one base map at a time: every offset in order,
    rotations first, each arc's compatibility matrix one section pair at a
    time (:func:`loop_compat`), the first full certificate returned."""
    if E.total_fiber_degree() != F.total_fiber_degree():
        return Refutation("fiber counts differ")
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


def loop_compat(E, F, phi0, a, tol=1e-9, n_arcs=6, samples=12):
    """Arc ``a``'s E arc and compatibility matrix under ``phi0``: section
    pair ``(i, j)`` is compatible when ``phi0`` carries E's range along
    section ``i`` onto F's along section ``j`` at every sample."""
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
            if np.max(angle_dist(targetE, targetF)) <= tol:
                compat[i, j] = True
    return W, compat


def _try_certificate(E, F, phi0, tol, n_arcs, samples):
    matchings = []
    for a in range(n_arcs):
        W, compat = loop_compat(E, F, phi0, a, tol, n_arcs, samples)
        sigma = _augmenting_matching(compat)
        if sigma is None:
            return None
        matchings.append(ArcMatching(
            arc=W, pairs=tuple((i, sigma[i]) for i in range(len(sigma)))))
    return LocalConjugacyCertificate(vertex_map=phi0, matchings=matchings)


# ---------------------------------------------------------------------------
# nonzero permutation


def test_identity_matrix():
    w = nonzero_permutation(np.eye(5))
    assert w.sigma == (0, 1, 2, 3, 4) and w.margin == 1.0


def test_antidiagonal_matrix():
    w = nonzero_permutation(np.fliplr(np.eye(4)))
    assert w.sigma == (3, 2, 1, 0)


def test_random_matrices_against_exhaustive():
    rng = np.random.default_rng(0)
    for _ in range(100):
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        w = nonzero_permutation(B)
        assert all(abs(B[i, w.sigma[i]]) > w.threshold for i in range(6))
        assert w.sigma in exhaustive_nonzero_sigma(B)


def test_sparse_invertible_matrix():
    B = np.zeros((4, 4), dtype=complex)
    perm = (2, 0, 3, 1)
    for i, j in enumerate(perm):
        B[i, j] = 1.0 + 0.5j
    w = nonzero_permutation(B)
    assert w.sigma == perm


def test_singular_rejected():
    B = np.ones((3, 3), dtype=complex)
    with pytest.raises(SingularMatrixError):
        nonzero_permutation(B)


def test_threshold_starves_matching():
    with pytest.raises(NoMatchingError):
        nonzero_permutation(np.eye(3), threshold=2.0)


# ---------------------------------------------------------------------------
# graph isomorphism


def test_identity_isomorphism():
    g = fibonacci()
    res = finite_graph_isomorphism(g, g)
    assert isinstance(res, GraphIsomorphism)
    res.verify(g, g)


def test_relabeled_ten_edge_recovered():
    g = ten_edge()
    rng = np.random.default_rng(1)
    for _ in range(10):
        F, _ = relabeled_copy(g, rng)
        res = finite_graph_isomorphism(g, F)
        assert isinstance(res, GraphIsomorphism)
        res.verify(g, F)


def test_parallel_edges_matched_in_index_order():
    g = k_loops(3)
    res = finite_graph_isomorphism(g, g)
    assert res.vertices.tolist() == [0] and res.edges.tolist() == [0, 1, 2]


def test_relabeled_copy_returns_the_drawn_index_maps():
    g = ten_edge()
    F, iso = relabeled_copy(g, np.random.default_rng(3))
    iso.verify(g, F)
    assert sorted(iso.edges.tolist()) == list(range(g.n_edges))


@pytest.mark.parametrize("vertices, edges, message", [
    ([0, 0], [0, 1, 2], "vertex map is not a bijection"),
    ([0, 1], [0, 1], "edge map is not a bijection"),
    ([1, 0], [0, 1, 2], "source not intertwined"),
    ([0, 1], [1, 0, 2], "range not intertwined"),
])
def test_verify_names_the_broken_condition(vertices, edges, message):
    g = fibonacci()
    iso = GraphIsomorphism(np.array(vertices), np.array(edges))
    with pytest.raises(FormatError, match=message):
        iso.verify(g, g)


def test_size_mismatch_refuted():
    res = finite_graph_isomorphism(single_loop(), k_loops(2))
    assert isinstance(res, Refutation) and "size" in res.reason


def test_equal_degree_sequences_still_refuted():
    # every vertex has in- and out-degree one in both graphs
    E, F = _cycle_graph_union([6]), _cycle_graph_union([3, 3])
    res = finite_graph_isomorphism(E, F)
    assert isinstance(res, Refutation)
    assert not _exhaustive_isomorphic(E, F)


@pytest.mark.parametrize("pair", list(itertools.combinations(
    CYCLE_PARTITIONS, 2)))
def test_cycle_partitions_pairwise_distinguished(pair):
    E, F = _cycle_graph_union(pair[0]), _cycle_graph_union(pair[1])
    assert isinstance(finite_graph_isomorphism(E, F), Refutation)
    assert bimodule_invariants(E) != bimodule_invariants(F)


# ---------------------------------------------------------------------------
# bimodule invariants


def test_single_loop_form():
    assert bimodule_invariants(single_loop()) == (1, 1)


def test_k_loops_form():
    assert bimodule_invariants(k_loops(4)) == (1, 4)


def test_invariance_under_100_relabelings():
    g = ten_edge()
    base = bimodule_invariants(g)
    rng = np.random.default_rng(2)
    for _ in range(100):
        F, _ = relabeled_copy(g, rng)
        assert bimodule_invariants(F) == base


@pytest.mark.parametrize("name", sorted(FINITE_FIXTURES))
def test_canonical_form_matches_reference_on_fixtures(name):
    g = FINITE_FIXTURES[name]()
    assert bimodule_invariants(g) == reference_invariants(g)


@pytest.mark.parametrize("lengths", CYCLE_PARTITIONS)
def test_canonical_form_matches_reference_on_cycle_unions(lengths):
    g = _cycle_graph_union(lengths)
    assert bimodule_invariants(g) == reference_invariants(g)


GENERATED = settings(deadline=None, derandomize=True, database=None)


@GENERATED
@given(g=finite_graphs())
def test_canonical_form_matches_reference_on_generated_graphs(g):
    assert bimodule_invariants(g) == reference_invariants(g)


@GENERATED
@given(g=finite_graphs(), h=finite_graphs(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_isomorphism_matches_exhaustive_oracle_on_generated_graphs(g, h,
                                                                    seed):
    F, _ = relabeled_copy(g, np.random.default_rng(seed))
    for other in (F, h):
        res = finite_graph_isomorphism(g, other)
        assert isinstance(res, GraphIsomorphism) \
            == _exhaustive_isomorphic(g, other)
        if isinstance(res, GraphIsomorphism):
            res.verify(g, other)


def test_canonical_form_matches_reference_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = _random_graph(rng)
        assert bimodule_invariants(g) == reference_invariants(g)


def test_nine_cycle_canonical_form_is_fast():
    # the reference enumeration's answer (9! orderings, about 12 s to
    # recompute): the cycle's adjacency in the ordering that minimises it
    expected = (9,) + tuple(
        np.eye(9, dtype=int)[[8, 7, 6, 5, 3, 2, 1, 0, 4]].ravel().tolist())
    start = time.perf_counter()
    assert bimodule_invariants(_cycle_graph_union([9])) == expected
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("n, message", [
    (11, "canonical form capped at 10 vertices"),
    (10, "3628800 refinement-compatible orderings; graph too symmetric for "
         "the desk-scale canonical form"),
])
def test_canonical_form_refusals(n, message):
    with pytest.raises(SizeLimitError) as exc:
        bimodule_invariants(edgeless(n))
    assert str(exc.value) == message


def test_fibonacci_vs_transpose():
    g = fibonacci()
    gt = FiniteGraph(g.vertices, g.edges, src=g.rng, rng=g.src)
    same = bimodule_invariants(g) == bimodule_invariants(gt)
    assert same == _exhaustive_isomorphic(g, gt)


# ---------------------------------------------------------------------------
# frames


def test_finite_frame_passes():
    g = fibonacci()
    rep = frame_verify(g, finite_frame(g, "a"), tol=1e-9)
    assert rep.passed
    assert rep.anchors and rep.anchors[0][0] == g.vertex_index("a")


@pytest.mark.parametrize("builder", [circle_double_cover, circle_two_loops,
                                     circle_triple_cover])
def test_bump_frame_passes_on_rigid_graphs(builder):
    g = builder()
    fd = bump_frame(g, base_n=128)
    rep = frame_verify(g, fd, tol=1e-9)
    assert rep.passed, (rep.failed_condition, rep.detail)
    assert rep.max_residuals["alpha-extraction"] <= 1e-9


def test_bump_frame_off_center():
    g = circle_double_cover()
    fd = bump_frame(g, base_n=128, center=TWO_PI * 3 / 8, width=2.0)
    rep = frame_verify(g, fd, tol=1e-9)
    assert rep.passed, (rep.failed_condition, rep.detail)


def test_perturbed_frame_fails_orthogonality():
    g = circle_double_cover()
    fd = bump_frame(g, base_n=128)
    pert = ModuleElement(
        g, tuple(a + 1e-3 * b for a, b in zip(fd.gens[0].components,
                                              fd.gens[1].components)),
        fd.h.base_n)
    rep = frame_verify(g, FrameData(h=fd.h, gens=(pert, fd.gens[1]),
                                    alphas=fd.alphas), tol=1e-9)
    assert not rep.passed
    assert rep.failed_condition == "(1) orthogonality"


def test_frame_with_a_fiber_of_the_wrong_size_fails_spanning():
    # one generator over a vertex with two edges: orthogonal with the
    # weight, but its fiber matrices are 2 samples by 1 generator
    g = fibonacci()
    fd = finite_frame(g, "a")
    rep = frame_verify(g, FrameData(h=fd.h, gens=fd.gens[:1],
                                    alphas=fd.alphas[:1]), tol=1e-9)
    assert not rep.passed
    assert rep.failed_condition == "(2) spanning"
    assert rep.detail == "fiber size 2 != 1 generators at base point 0"


def test_rank_deficient_fiber_matrix_fails_spanning():
    # the same generator twice, on a weight just above tol: every inner
    # product is within tol of its target, but the fiber matrix at the
    # vertex has two equal rows
    g = fibonacci()
    fd = finite_frame(g, "a")
    twice = (ModuleElement(g, math.sqrt(0.9e-9) * fd.gens[0].values),) * 2
    h = VertexFunction(g, 1.5e-9 * fd.h.values)
    rep = frame_verify(g, FrameData(h=h, gens=twice, alphas=fd.alphas),
                       tol=1e-9)
    assert not rep.passed
    assert rep.failed_condition == "(2) spanning"
    assert rep.detail == "rank-deficient fiber matrix at base point 0"


def test_wrong_alpha_fails_action_transfer():
    g = circle_double_cover()
    fd = bump_frame(g, base_n=128)
    rolled = tuple(np.roll(a, 7) for a in fd.alphas)
    rep = frame_verify(g, FrameData(h=fd.h, gens=fd.gens, alphas=rolled),
                       tol=1e-9)
    assert not rep.passed


def action_transfer_oracle(graph, fd):
    """Condition (3) through the module actions: the largest entry of
    ``a . g_i - g_i . (a o alpha_i)`` over the indicators ``a`` of all base
    points."""
    n, size = fd.h.base_n, fd.h.values.size
    res = 0.0
    for w in range(size):
        a = VertexFunction(graph, np.arange(size) == w, n)
        for g, alpha in zip(fd.gens, fd.alphas):
            lhs = left_action(a, g).values
            rhs = right_action(g, VertexFunction(graph, alpha == w, n)).values
            res = max(res, float(np.max(np.abs(lhs - rhs))))
    return res


def _broken(fd):
    """The frame with every defined ``alpha_i`` moved to the next base
    point, and with none defined."""
    size = fd.h.values.size
    moved = tuple(np.where(a >= 0, (a + 1) % size, -1) for a in fd.alphas)
    undefined = tuple(np.full(size, -1) for _ in fd.alphas)
    return [FrameData(fd.h, fd.gens, alphas) for alphas in (moved, undefined)]


def _action_transfer(graph, fd):
    rep = frame_verify(graph, fd, tol=1e-9)
    return rep.max_residuals["action-transfer"]


def _finite_action_transfer_matches_indicator_oracle(g):
    """At every vertex, the trivial frame of :func:`oracles.finite_frame`
    and its broken copies: condition (3) as ``frame_verify`` computes it
    equals the indicator oracle's, and is 0 on the frame itself; a vertex
    with an empty source fiber has no generators and is refused."""
    for v in g.vertices:
        fd = finite_frame(g, v)
        if g.fiber_count(v) == 0:
            with pytest.raises(FormatError):
                frame_verify(g, fd, tol=1e-9)
            continue
        for frame in [fd] + _broken(fd):
            assert _action_transfer(g, frame) \
                == action_transfer_oracle(g, frame)
        assert _action_transfer(g, fd) == 0.0


@pytest.mark.parametrize("builder", [fibonacci, lambda: k_loops(3), ten_edge])
def test_finite_action_transfer_matches_indicator_oracle(builder):
    _finite_action_transfer_matches_indicator_oracle(builder())


@GENERATED
@given(g=finite_graphs())
def test_finite_action_transfer_matches_indicator_oracle_on_generated_graphs(
        g):
    # sources, sinks, isolated vertices and graphs with no edges
    _finite_action_transfer_matches_indicator_oracle(g)


@pytest.mark.parametrize("builder", [circle_double_cover, circle_triple_cover,
                                     circle_two_loops])
def test_bump_action_transfer_matches_indicator_oracle(builder):
    g = builder()
    fd = bump_frame(g, base_n=32, width=2.0)
    for frame in [fd] + _broken(fd):
        assert _action_transfer(g, frame) == action_transfer_oracle(g, frame)
    assert _action_transfer(g, fd) == 0.0


def test_generators_swapping_components_fail_extraction():
    # two loops whose ranges differ by a half turn; past the bump's center
    # each generator moves to the other component, which keeps conditions
    # (1)-(3) but breaks the continuation of the matched branch
    n = 64
    g = CircleCoveringGraph([EdgeComponent(1, 0.0, 1, 0.0),
                             EdgeComponent(1, 0.0, 1, math.pi)])
    fd = bump_frame(g, base_n=n)
    assert frame_verify(g, fd, tol=1e-9).passed
    side = np.arange(n) < n // 2           # base points in [0, pi)
    src = np.arange(2 * n) % n
    g0, g1 = (x.values for x in fd.gens)
    a0, a1 = fd.alphas
    swapped = FrameData(fd.h, (
        ModuleElement._from_values(g, np.where(side[src], g0, g1), n),
        ModuleElement._from_values(g, np.where(side[src], g1, g0), n)),
        (np.where(side, a0, a1), np.where(side, a1, a0)))
    rep = frame_verify(g, swapped, tol=1e-9)
    assert rep.max_residuals["orthogonality"] <= 1e-9
    assert rep.max_residuals["action-transfer"] == 0.0
    assert not rep.passed and rep.failed_condition == "extraction"
    assert rep.max_residuals["alpha-extraction"] == 1.0


# ---------------------------------------------------------------------------
# local conjugacy


def test_self_conjugacy():
    g = circle_two_loops()
    res = local_conjugacy_check(g, g, grid=16)
    assert isinstance(res, LocalConjugacyCertificate)


def test_two_loops_conjugate_to_double_cover():
    res = local_conjugacy_check(circle_two_loops(), circle_double_cover(),
                                grid=360)
    assert isinstance(res, LocalConjugacyCertificate)
    assert not res.vertex_map.reflect
    assert abs(res.vertex_map.offset) < 1e-12


def test_fiber_count_mismatch_refuted():
    res = local_conjugacy_check(circle_two_loops(), circle_triple_cover(),
                                grid=8)
    assert isinstance(res, Refutation)


def test_rotated_self_conjugacy():
    from graphcorr.graphs import CircleCoveringGraph, EdgeComponent
    g = CircleCoveringGraph([EdgeComponent(2, 0.0, 2, 0.0)])
    h = CircleCoveringGraph([EdgeComponent(2, 0.5, 2, 0.25)])
    res = local_conjugacy_check(g, h, grid=360)
    assert isinstance(res, (LocalConjugacyCertificate, Inconclusive))


def test_non_rigid_input_rejected():
    with pytest.raises(FormatError):
        local_conjugacy_check(fibonacci(), circle_two_loops())


def _rigid(d, m, s_offset, r_offset):
    return CircleCoveringGraph([EdgeComponent(d, s_offset, m, r_offset)])


def _same_result(got, want):
    if isinstance(want, LocalConjugacyCertificate):
        return got == want
    return type(got) is type(want) and got.reason == want.reason


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(pair=circle_pairs())
def test_search_matches_the_loop_oracle(pair):
    E, F = pair
    for grid in (8, 24):
        assert _same_result(local_conjugacy_check(E, F, grid=grid),
                            loop_local_conjugacy_check(E, F, grid=grid))


#: a certificate pair, an inconclusive pair (range degrees 2 and 4) and a
#: mirrored pair with reflection certificates
COMPAT_PAIRS = [
    (circle_two_loops(), circle_double_cover()),
    (_rigid(2, 2, TWO_PI * 115 / 1024, TWO_PI * 250 / 1024),
     _rigid(2, 4, TWO_PI * 340 / 1024, TWO_PI * 705 / 1024)),
    (_rigid(3, -3, TWO_PI * 5 / 64, TWO_PI * 9 / 64),
     _rigid(3, -3, -TWO_PI * 5 / 64, -TWO_PI * 9 / 64)),
]


@pytest.mark.parametrize("E, F", COMPAT_PAIRS)
def test_compatibility_tensor_is_bitwise_the_loops(E, F):
    grid, n_arcs, samples = 48, 6, 12
    offsets = sorted({wrap_angle(TWO_PI * i / grid) for i in range(grid)})
    phis = np.array(offsets)[:, None, None]
    for a in range(n_arcs):
        center = TWO_PI * a / n_arcs
        W, se = s_section_decomposition(E, center, width=TWO_PI / n_arcs + 0.2)
        w_s = W.sample(samples, margin=1e-3)
        arc = (center, W, w_s, np.array([sec.range_at(w_s) for sec in se]))
        for reflect in (False, True):
            got = _arc_compat(arc, F, RigidCircleMap(phis, reflect), 1e-9)
            for off, matrix in zip(offsets, got):
                _, want = loop_compat(E, F, RigidCircleMap(off, reflect), a)
                assert np.array_equal(matrix, want), (a, off, reflect)


def test_reflection_certificate():
    E = CircleCoveringGraph([EdgeComponent(1, 0.0, 2, 0.1234),
                             EdgeComponent(1, 0.0, 2, 0.5)])
    F = CircleCoveringGraph([EdgeComponent(1, 0.0, 2, -0.1234),
                             EdgeComponent(1, 0.0, 2, -0.5)])
    res = local_conjugacy_check(E, F)
    assert isinstance(res, LocalConjugacyCertificate)
    assert res.vertex_map == RigidCircleMap(0.0, reflect=True)
    assert res == loop_local_conjugacy_check(E, F)


def test_range_degree_two_against_four_is_inconclusive():
    # the benchmark's inconclusive shape: same fibers, range degrees 2 and 4
    E, F = COMPAT_PAIRS[1]
    res = local_conjugacy_check(E, F)
    assert isinstance(res, Inconclusive) and "no rigid certificate" \
        in res.reason
    assert _same_result(res, loop_local_conjugacy_check(E, F))


def test_search_above_the_budget_is_refused_quickly():
    g = _rigid(MAX_DEGREE, MAX_DEGREE, 0.0, 0.0)
    t0 = time.perf_counter()
    with pytest.raises(SizeLimitError, match="exceeds the 100000000 limit"):
        local_conjugacy_check(g, g)
    assert time.perf_counter() - t0 < 1.0


def test_search_at_the_largest_grid_finishes():
    E, F = COMPAT_PAIRS[1]
    assert isinstance(local_conjugacy_check(E, F, grid=2 ** 16), Inconclusive)
