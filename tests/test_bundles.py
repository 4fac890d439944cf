import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcorr.bundles import (Arc, ArcCover, FrameResult, PermCocycle,
                               _chart_transports, cocycle_check,
                               cocycle_from_dict, cocycle_from_graph,
                               cocycle_to_dict, compose,
                               global_frame_over_circle, graph_from_cocycle,
                               inverse, monodromy)
from graphcorr.errors import FormatError
from graphcorr.fixtures import (COCYCLE_FIXTURES, circle_double_cover,
                                circle_triple_cover, circle_two_loops,
                                identity_cocycle, swap_cocycle,
                                three_cycle_cocycle, two_plus_one_cocycle)
from graphcorr.graphs import TWO_PI, CircleCoveringGraph, EdgeComponent

from oracles import refine_cover

# ---------------------------------------------------------------------------
# oracle: follow one lifted point around the circle in small steps


def covering_monodromy_oracle(graph: CircleCoveringGraph):
    """Continuation of each source-fiber point once around the base."""
    k = graph.total_fiber_degree()
    # label fiber points over angle 0 in (component, branch) order
    points = []
    for ci, comp in enumerate(graph.components):
        d = comp.source_degree
        for b in range(d):
            points.append((ci, (0.0 - comp.source_offset + TWO_PI * b) / d
                           % TWO_PI))
    steps = 4096
    lifted = [list(p) for p in points]
    for s in range(1, steps + 1):
        for p in lifted:
            d = graph.components[p[0]].source_degree
            p[1] += (TWO_PI / steps) / d
    perm = []
    for p in lifted:
        ci, u = p[0], p[1] % TWO_PI
        hit = None
        for j, (cj, u0) in enumerate(points):
            if cj == ci and min(abs(u - u0), TWO_PI - abs(u - u0)) < 1e-6:
                hit = j
        assert hit is not None
        perm.append(hit)
    return tuple(perm)


# ---------------------------------------------------------------------------
# checks


def test_rank_one_always_passes():
    assert cocycle_check(identity_cocycle(1)).passed


def test_two_arc_swap_cocycle_passes():
    assert cocycle_check(swap_cocycle()).passed


def test_corrupted_transition_fails_with_location():
    c = swap_cocycle()
    bad = dict(c.transitions)
    # break the inverse pairing on one overlap component
    key = next(iter(k for k in bad if k[0] < k[1]))
    bad[key] = bad[key]
    corrupt = PermCocycle.__new__(PermCocycle)
    corrupt.rank = c.rank
    corrupt.cover = c.cover
    corrupt.transitions = dict(c.transitions)
    corrupt.transitions[(0, 1, 0)] = (0, 1)      # no longer inverse of (1,0,0)
    rep = cocycle_check(corrupt)
    assert not rep.passed
    assert "overlap" in rep.detail


def test_triple_overlap_cocycle_law():
    # three arcs with a common triple overlap and consistent transitions
    arcs = [Arc(0.0, 4.5), Arc(2.0, 4.5), Arc(4.0, 4.5)]
    cover = ArcCover(arcs)
    sigma = (1, 0)
    transitions = {}
    for (i, j), comps in cover.overlaps.items():
        for cidx in range(len(comps)):
            transitions[(i, j, cidx)] = sigma if (i, j) == (0, 1) \
                else ((1, 0) if (i, j) == (1, 2) else (0, 1))
    c = PermCocycle(rank=2, cover=cover, transitions=transitions)
    assert cocycle_check(c).passed


def test_triple_overlap_cocycle_law_violation_fails():
    # every transition the swap: each is its own inverse, but on a triple
    # overlap two swaps compose to the identity, not to the third swap
    cover = ArcCover([Arc(0.0, 4.5), Arc(2.0, 4.5), Arc(4.0, 4.5)])
    c = PermCocycle(rank=2, cover=cover, transitions={
        (i, j, cidx): (1, 0) for (i, j), comps in cover.overlaps.items()
        for cidx in range(len(comps))})
    rep = cocycle_check(c)
    assert not rep.passed
    assert "inverse" not in rep.detail
    assert "cocycle law fails on triple (0,1,2)" in rep.detail


# ---------------------------------------------------------------------------
# graph -> cocycle


def test_two_loops_gives_identity_transitions():
    c = cocycle_from_graph(circle_two_loops())
    for (j, i, comp), perm in c.transitions.items():
        assert perm == (0, 1)


def test_double_cover_gives_one_swap():
    c = cocycle_from_graph(circle_double_cover(), n_arcs=2)
    perms = sorted(c.sigma(1, 0, comp) for comp
                   in range(len(c.cover.overlaps[(0, 1)])))
    assert perms == [(0, 1), (1, 0)]
    assert cocycle_check(c).passed


@pytest.mark.parametrize("builder,expected", [
    (circle_two_loops, (1, 1)),
    (circle_double_cover, (2,)),
    (circle_triple_cover, (3,)),
])
def test_monodromy_matches_continuation_oracle(builder, expected):
    g = builder()
    c = cocycle_from_graph(g)
    mono = monodromy(c)
    assert mono.cycle_type == expected
    oracle = covering_monodromy_oracle(g)
    lengths = tuple(sorted((len(orb) for orb in
                            monodromy_cycles(oracle)), reverse=True))
    assert lengths == expected


def monodromy_cycles(perm):
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        orb = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            orb.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        out.append(orb)
    return out


def test_offset_components_still_match():
    g = CircleCoveringGraph([EdgeComponent(2, math.pi / 4, 2, 0.0),
                             EdgeComponent(1, 1.0, 1, 0.3)])
    c = cocycle_from_graph(g, n_arcs=3)
    assert cocycle_check(c).passed
    assert monodromy(c).cycle_type == (2, 1)


# ---------------------------------------------------------------------------
# monodromy algebra


def test_identity_monodromy():
    m = monodromy(identity_cocycle(4))
    assert m.is_identity and m.cycle_type == (1, 1, 1, 1)


def test_swap_monodromy():
    m = monodromy(swap_cocycle())
    assert m.cycle_type == (2,)
    assert not m.is_identity


def test_block_of_two_swaps():
    cover = swap_cocycle().cover
    perm = (1, 0, 3, 2)
    c = PermCocycle(rank=4, cover=cover, transitions={
        (0, 1, 0): perm, (0, 1, 1): (0, 1, 2, 3)})
    assert monodromy(c).cycle_type == (2, 2)


def test_perm_helpers():
    f, g = (1, 2, 0), (2, 0, 1)
    assert compose(f, inverse(f)) == (0, 1, 2)
    assert compose(f, g) == (f[g[0]], f[g[1]], f[g[2]])


# ---------------------------------------------------------------------------
# cocycle -> graph, round trips


def test_identity_cocycle_gives_loops():
    g = graph_from_cocycle(identity_cocycle(3))
    assert sorted(c.source_degree for c in g.components) == [1, 1, 1]
    assert g.total_fiber_degree() == 3


def test_swap_cocycle_gives_double_cover():
    g = graph_from_cocycle(swap_cocycle())
    assert [c.source_degree for c in g.components] == [2]
    assert [c.range_degree for c in g.components] == [2]


def test_two_plus_one():
    g = graph_from_cocycle(two_plus_one_cocycle())
    assert sorted(c.source_degree for c in g.components) == [1, 2]


@pytest.mark.parametrize("builder", [swap_cocycle, three_cycle_cocycle,
                                     two_plus_one_cocycle,
                                     lambda: identity_cocycle(2)])
def test_round_trip_preserves_cycle_type(builder):
    c = builder()
    g = graph_from_cocycle(c)
    c2 = cocycle_from_graph(g)
    assert monodromy(c2).cycle_type == monodromy(c).cycle_type
    assert g.total_fiber_degree() == c.rank


@pytest.mark.parametrize("builder", [circle_two_loops, circle_double_cover,
                                     circle_triple_cover])
def test_round_trip_preserves_degree_multiset(builder):
    g = builder()
    g2 = graph_from_cocycle(cocycle_from_graph(g))
    assert sorted(c.source_degree for c in g2.components) \
        == sorted(c.source_degree for c in g.components)


# ---------------------------------------------------------------------------
# refinement invariance


@pytest.mark.parametrize("builder", [swap_cocycle, three_cycle_cocycle,
                                     two_plus_one_cocycle,
                                     lambda: identity_cocycle(3)])
def test_refinement_preserves_cocycle_and_monodromy(builder):
    c = builder()
    r = refine_cover(c)
    assert cocycle_check(r).passed
    assert monodromy(r).cycle_type == monodromy(c).cycle_type
    rr = refine_cover(r)
    assert monodromy(rr).cycle_type == monodromy(c).cycle_type


# ---------------------------------------------------------------------------
# global frames

# oracle: the frame one entry at a time


def loop_frame_entry(t_num, t_den, p, j, d):
    """Entry at position ``p`` of column ``j`` of a length-``d`` cycle at
    angle ``2pi t_num / t_den``; the numerator reduced mod its period."""
    num = ((t_num + t_den * p) * j) % (t_den * d)
    return np.exp(2j * math.pi * num / (t_den * d)) / math.sqrt(d)


def loop_local_frame(c, cycles, pos, columns, transports, chart, x):
    """The frame in chart ``chart`` at angle ``x``, row by row."""
    theta = c.cover.arcs[chart].unwrap(x)
    out = np.zeros((c.rank, c.rank), dtype=np.complex128)
    for ell in range(c.rank):
        ci, p = pos[transports[chart][ell]]
        d = len(cycles[ci])
        for col, (cj, j) in enumerate(columns):
            if cj == ci:
                out[ell, col] = np.exp(1j * (theta + TWO_PI * p) * j / d) \
                    / math.sqrt(d)
    return out


def loop_global_frame(c, n):
    """:func:`global_frame_over_circle` with one scalar per grid entry and
    one chart frame per overlap sample."""
    mono = monodromy(c)
    cycles = mono.cycles()
    pos = {sheet: (ci, p) for ci, orb in enumerate(cycles)
           for p, sheet in enumerate(orb)}
    k = c.rank
    columns = tuple((ci, j) for ci, orb in enumerate(cycles)
                    for j in range(len(orb)))
    frames = np.zeros((n + 1, k, k), dtype=np.complex128)
    for t_idx in range(n + 1):
        for col, (ci, j) in enumerate(columns):
            orb = cycles[ci]
            for p, sheet in enumerate(orb):
                frames[t_idx, sheet, col] = loop_frame_entry(t_idx, n, p, j,
                                                             len(orb))
    gram = np.einsum("tij,tik->tjk", frames.conj(), frames)
    unitarity = float(np.max(np.abs(gram - np.eye(k))))
    perm = mono.permutation
    endpoint_exact = all(frames[n, sheet, col] == frames[0, perm[sheet], col]
                         for sheet in range(k) for col in range(k))
    transports = _chart_transports(c)
    residual = 0.0
    for (i, j), comps in c.cover.overlaps.items():
        for cidx, piece in enumerate(comps):
            sig = c.sigma(j, i, cidx)
            for t in piece.sample(5, margin=min(1e-6, piece.length / 4)):
                li, lj = (loop_local_frame(c, cycles, pos, columns,
                                           transports, a, float(t))
                          for a in (i, j))
                permuted = np.zeros_like(li)
                for ell in range(k):
                    permuted[sig[ell], :] = li[ell, :]
                residual = max(residual, float(np.max(np.abs(lj - permuted))))
    return FrameResult(grid=n, frames=frames, columns=columns,
                       unitarity=unitarity, transition_residual=residual,
                       endpoint_exact=endpoint_exact)


def assert_frames_bitwise(got, want):
    assert got.frames.dtype == want.frames.dtype
    assert got.frames.shape == want.frames.shape
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.columns == want.columns
    assert got.unitarity == want.unitarity
    assert got.transition_residual == want.transition_residual
    assert got.endpoint_exact is want.endpoint_exact


@pytest.mark.parametrize("n", [12, 48, 384, 1002])
@pytest.mark.parametrize("name", sorted(COCYCLE_FIXTURES))
def test_frame_matches_loop_oracle_on_fixtures(name, n):
    c = COCYCLE_FIXTURES[name]()
    assert_frames_bitwise(global_frame_over_circle(c, n),
                          loop_global_frame(c, n))


@st.composite
def two_arc_cocycles(draw):
    """Rank 1 to 5 cocycles on the two-arc cover of the swap fixture, one
    drawn permutation per overlap component."""
    k = draw(st.integers(1, 5))
    cover = swap_cocycle().cover
    return PermCocycle(rank=k, cover=cover, transitions={
        (0, 1, cidx): tuple(draw(st.permutations(range(k))))
        for cidx in range(len(cover.overlaps[(0, 1)]))})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(c=two_arc_cocycles())
def test_frame_matches_loop_oracle_on_generated_cocycles(c):
    assert_frames_bitwise(global_frame_over_circle(c, 120),
                          loop_global_frame(c, 120))


def test_identity_monodromy_constant_standard_frame():
    c = identity_cocycle(3)
    fr = global_frame_over_circle(c, 12)
    for t in range(13):
        assert np.array_equal(fr.frames[t], np.eye(3))


@pytest.mark.parametrize("builder,n", [
    (swap_cocycle, 48), (three_cycle_cocycle, 48), (two_plus_one_cocycle, 48)])
def test_twisted_frames(builder, n):
    fr = global_frame_over_circle(builder(), n)
    assert fr.unitarity <= 1e-12
    assert fr.transition_residual <= 1e-12
    assert fr.endpoint_exact


def test_frame_grid_divisibility():
    with pytest.raises(FormatError):
        global_frame_over_circle(three_cycle_cocycle(), 32)   # 3 nmid 32


def test_global_basis_iff_identity_monodromy():
    assert monodromy(identity_cocycle(2)).is_identity
    assert not monodromy(swap_cocycle()).is_identity
    # the frame still exists in the twisted case: bundle-trivial regardless
    fr = global_frame_over_circle(swap_cocycle(), 24)
    assert fr.unitarity <= 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_cocycle_json_round_trip():
    c = three_cycle_cocycle()
    c2 = cocycle_from_dict(cocycle_to_dict(c))
    assert c2.rank == c.rank
    assert monodromy(c2).cycle_type == monodromy(c).cycle_type
    for key, perm in c.transitions.items():
        assert c2.transitions[key] == perm


def test_missing_transition_rejected():
    cover = swap_cocycle().cover
    with pytest.raises(FormatError):
        PermCocycle(rank=2, cover=cover, transitions={(0, 1, 0): (1, 0)})


@pytest.mark.parametrize("key", [(0, 0, 0), (1, 1, 0), (-1, 0, 0),
                                 (0, 1, 2), (1, 0, -1), (0, 2, 0)])
def test_transition_off_the_cover_rejected(key):
    cover = swap_cocycle().cover
    with pytest.raises(FormatError, match="no overlap"):
        PermCocycle(rank=2, cover=cover, transitions={
            (0, 1, 0): (1, 0), (0, 1, 1): (0, 1), key: (0, 1)})


@pytest.mark.parametrize("perm", [(0, 1), (1, 0)])
def test_transition_given_in_both_directions_rejected(perm):
    cover = swap_cocycle().cover
    with pytest.raises(FormatError, match="given twice"):
        PermCocycle(rank=2, cover=cover, transitions={
            (0, 1, 0): (1, 0), (0, 1, 1): (0, 1), (1, 0, 1): perm})


def test_bad_permutation_rejected():
    cover = swap_cocycle().cover
    with pytest.raises(FormatError):
        PermCocycle(rank=2, cover=cover, transitions={
            (0, 1, 0): (0, 0), (0, 1, 1): (0, 1)})
