import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcorr.bundles import PermCocycle
from graphcorr.errors import FormatError, SizeLimitError
from graphcorr.fixtures import (CIRCLE_FIXTURES, COCYCLE_FIXTURES,
                                FINITE_FIXTURES, circle_double_cover,
                                circle_triple_cover, circle_two_loops,
                                edgeless, fibonacci, fixture_path,
                                identity_cocycle, k_loops, single_loop,
                                ten_edge)
from graphcorr.graphs import (Arc, CircleCoveringGraph, EdgeComponent,
                              FiniteGraph, MAX_PATHS, TWO_PI,
                              _collatz_wielandt, arcs_cover_circle,
                              enumerate_paths, growth_sequence,
                              path_index_tuples, s_section_decomposition,
                              spectral_radius, wrap_angle)
from graphcorr.serialize import (cocycle_to_dict, graph_from_dict,
                                 graph_to_dict, load_json)

from strategies import finite_graphs

# ---------------------------------------------------------------------------
# oracles


def dfs_paths(graph: FiniteGraph, v, n):
    """Independent path enumeration: recursive DFS on an id-based table."""
    outgoing = {}
    for e, s, r in zip(graph.edges, graph.src, graph.rng):
        outgoing.setdefault(s, []).append((e, r))

    def extend(front, remaining):
        # choosing an edge out of `front` fixes the path's next-to-last
        # entry, so the recursion naturally emits edges in path order
        if remaining == 0:
            return [()]
        out = []
        for e, r in outgoing.get(front, []):
            for tail in extend(r, remaining - 1):
                out.append(tail + (e,))
        return out

    return set(extend(v, n))


def adjacency_counts(graph: FiniteGraph, v, n):
    """|E^n v| via explicit matrix powers."""
    A = graph.adjacency()
    w = np.zeros(graph.n_vertices, dtype=np.int64)
    w[graph.vertex_index(v)] = 1
    for _ in range(n):
        w = A @ w
    return int(w.sum())


def random_finite_graph(rng, n_max=5, m_max=8) -> FiniteGraph:
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    return FiniteGraph(
        vertices=[f"v{i}" for i in range(n)],
        edges=[f"e{i}" for i in range(m)],
        src=[f"v{int(rng.integers(0, n))}" for _ in range(m)],
        rng=[f"v{int(rng.integers(0, n))}" for _ in range(m)])


# ---------------------------------------------------------------------------
# fiber counts


def test_fiber_count_single_loop():
    assert single_loop().fiber_count("v") == 1


def test_fiber_count_double_cover_everywhere():
    g = circle_double_cover()
    for t in np.linspace(0, TWO_PI, 17):
        assert g.fiber_count(t) == 2


def test_fiber_count_column_sum_oracle():
    g = fibonacci()
    A = g.adjacency()
    for v in g.vertices:
        assert g.fiber_count(v) == A[:, g.vertex_index(v)].sum()


def test_fiber_count_unknown_vertex():
    with pytest.raises(FormatError):
        single_loop().fiber_count("nope")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs())
def test_edge_tables_recount_from_the_id_lists(g):
    # every table the graph derives, recounted edge by edge from its ids
    src = [g.vertices.index(v) for v in g.src]
    rng = [g.vertices.index(v) for v in g.rng]
    assert g.src_idx.tolist() == src and g.rng_idx.tolist() == rng
    succ = [[f for f, i in enumerate(src) if i == vi]
            for vi in range(g.n_vertices)]
    assert g._succ == succ
    assert g._max_out == max(map(len, succ), default=0)
    A = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int64)
    for i, w in zip(src, rng):
        A[w, i] += 1
    assert np.array_equal(g.adjacency(), A)
    for vi, v in enumerate(g.vertices):
        assert g.fiber_count(v) == src.count(vi)


# ---------------------------------------------------------------------------
# path enumeration


def test_paths_length_zero_is_vertex():
    g = fibonacci()
    paths = enumerate_paths(g, "a", 0)
    assert len(paths) == 1 and paths[0].edges == () and paths[0].vertex == "a"


def test_single_loop_one_path_per_length():
    g = single_loop()
    paths = enumerate_paths(g, "v", 5)
    assert len(paths) == 1
    assert paths[0].edges == ("e",) * 5


def test_fibonacci_counts():
    g = fibonacci()
    # column sums of A^n on the Fibonacci graph follow the recurrence
    counts = [len(enumerate_paths(g, "a", n)) for n in range(8)]
    assert counts == [1, 2, 3, 5, 8, 13, 21, 34]


def test_paths_match_dfs_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_finite_graph(rng)
        v = g.vertices[int(rng.integers(0, g.n_vertices))]
        n = int(rng.integers(0, 5))
        got = {p.edges for p in enumerate_paths(g, v, n)}
        assert got == dfs_paths(g, v, n)


def test_paths_consecutive_compatibility():
    g = ten_edge()
    for p in enumerate_paths(g, "v0", 4):
        for i in range(len(p.edges) - 1):
            ei = g.edge_index(p.edges[i])
            ej = g.edge_index(p.edges[i + 1])
            assert g.src[ei] == g.rng[ej]
        assert g.src[g.edge_index(p.edges[-1])] == "v0"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 123456), st.integers(0, 8))
def test_path_count_identity(seed, n):
    rng = np.random.default_rng(seed)
    g = random_finite_graph(rng, n_max=4, m_max=6)
    v = g.vertices[0]
    try:
        paths = enumerate_paths(g, v, n)
    except SizeLimitError:
        return
    assert len(paths) == adjacency_counts(g, v, n)


def test_path_enumeration_size_guard():
    g = k_loops(10)
    with pytest.raises(SizeLimitError):
        enumerate_paths(g, "v", 7)    # 10^7 paths


def test_path_budget_counts_edge_indices():
    # one path per length, so the budget is the length itself
    g = single_loop()
    assert path_index_tuples(g, 0, 1000) == [(0,) * 1000]
    with pytest.raises(SizeLimitError):
        path_index_tuples(g, 0, MAX_PATHS + 1)
    with pytest.raises(SizeLimitError):
        path_index_tuples(g, 0, 3_000_000)
    g = k_loops(2)     # 2^16 paths of 16 edges exceed the budget
    assert len(path_index_tuples(g, 0, 15)) == 2 ** 15
    with pytest.raises(SizeLimitError):
        path_index_tuples(g, 0, 16)


def test_long_paths_on_acyclic_graph_are_empty():
    g = FiniteGraph(vertices=["a", "b", "c"], edges=["ab", "bc"],
                    src=["a", "b"], rng=["b", "c"])
    assert path_index_tuples(g, 0, 2) == [(1, 0)]
    assert path_index_tuples(g, 0, 3) == []
    assert path_index_tuples(g, 0, 10**12) == []


def test_index_tuples_ordered_from_the_source_end():
    # extensions of a path stay together in edge order, so the tuples are
    # sorted lexicographically when read from the source end
    g = ten_edge()
    for vi in range(g.n_vertices):
        for n in range(5):
            tuples = path_index_tuples(g, vi, n)
            assert tuples == sorted(tuples, key=lambda t: t[::-1])


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_k_loops_exact():
    for k in (1, 2, 3, 7):
        assert spectral_radius(k_loops(k)) == float(k)


def test_spectral_radius_fibonacci_char_poly_oracle():
    # root of x^2 - x - 1
    root = max(np.roots([1.0, -1.0, -1.0]))
    assert abs(spectral_radius(fibonacci(), tol=1e-10) - root) <= 1e-9


def test_spectral_radius_edgeless():
    assert spectral_radius(edgeless(3)) == 0.0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_spectral_radius_refuses_non_finite_or_nonpositive_tol(tol):
    with pytest.raises(FormatError, match="finite and positive"):
        spectral_radius(fibonacci(), tol=tol)


def test_spectral_radius_eigenvalue_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_finite_graph(rng)
        rho = spectral_radius(g, tol=1e-10)
        oracle = max(abs(np.linalg.eigvals(g.adjacency().astype(float))),
                     default=0.0)
        assert abs(rho - oracle) <= 1e-9


def graph_from_arcs(n, arcs) -> FiniteGraph:
    return FiniteGraph([f"v{i}" for i in range(n)],
                       [f"e{i}" for i in range(len(arcs))],
                       [f"v{s}" for s, _ in arcs], [f"v{r}" for _, r in arcs])


def test_collatz_wielandt_bracket_on_100_vertices():
    # a Hamiltonian cycle plus random chords is strongly connected, so the
    # bracket closes; the dense eigenvalues are the oracle
    rng = np.random.default_rng(12)
    tol = 1e-10
    arcs = [(i, (i + 1) % 100) for i in range(100)]
    arcs += [tuple(int(v) for v in rng.integers(100, size=2))
             for _ in range(150)]
    g = graph_from_arcs(100, arcs)
    A = g.adjacency().astype(float)
    oracle = max(abs(np.linalg.eigvals(A)))
    lo, hi = _collatz_wielandt(A, tol)
    assert lo <= oracle + 1.0 + 1e-12 and oracle + 1.0 <= hi + 1e-12
    assert hi - lo <= tol * max(1.0, hi)
    assert abs(spectral_radius(g, tol=tol) - oracle) <= tol * max(1.0, oracle)


def test_collatz_wielandt_refuses_unclosed_bracket_quickly():
    rng = np.random.default_rng(13)
    base = [(i, (i + 1) % 50) for i in range(50)]
    base += [tuple(int(v) for v in rng.integers(50, size=2))
             for _ in range(20)]
    copy = [(s + 50, r + 50) for s, r in base]
    cycle = [(s + 50, (s + 1) % 50 + 50) for s in range(50)]
    # tied copies: the bracket narrows like 1/steps and never reaches tol;
    # a plain cycle feeding the denser half: the cycle's entries underflow
    for arcs, why in ((base + copy + [(0, 50)], "did not close"),
                      (base + cycle + [(50, 0)], "underflow")):
        g = graph_from_arcs(100, arcs)
        t0 = time.perf_counter()
        with pytest.raises(SizeLimitError, match=why):
            spectral_radius(g)
        assert time.perf_counter() - t0 < 2.0
        assert not vars(g).get("_radii")        # refusals are not kept


def test_growth_sequence_upper_bounds_radius():
    # max_v |E^n v| is submultiplicative, so every n gives an upper bound
    g = fibonacci()
    rho = spectral_radius(g)
    for val in growth_sequence(g, 12):
        assert rho <= val + 1e-12


def test_growth_cross_check_n20():
    g = fibonacci()
    assert abs(growth_sequence(g, 20)[-1] - spectral_radius(g)) <= 0.02


# ---------------------------------------------------------------------------
# sections


def test_sections_double_cover_at_zero():
    g = circle_double_cover()
    W, secs = s_section_decomposition(g, 0.0)
    assert len(secs) == 2
    assert W.contains(0.0)
    # the two square-root branches land half a circle apart
    lifts = sorted(float(s.lift(0.0)) for s in secs)
    assert abs(lifts[1] - lifts[0] - math.pi) < 1e-12


def test_sections_degree_one_identity_lift():
    g = circle_two_loops()
    _, secs = s_section_decomposition(g, 1.0)
    for s in secs:
        for t in np.linspace(0.6, 1.4, 9):
            assert abs(float(s.lift(t)) - t) < 1e-12


@pytest.mark.parametrize("graph,anchor", [
    (circle_triple_cover(), 0.3),
    (circle_double_cover(), 5.9),
    (circle_two_loops(), 0.0),
])
def test_sections_inverse_identity_256_samples(graph, anchor):
    W, secs = s_section_decomposition(graph, anchor)
    samples = W.sample(256, margin=1e-9)
    assert len(secs) == graph.total_fiber_degree()
    for s in secs:
        comp = graph.components[s.component]
        assert s.covering is comp
        back = comp.source_map(s.lift(samples))
        err = np.minimum(np.abs(back - samples),
                         TWO_PI - np.abs(back - samples))
        assert float(err.max()) <= 1e-12
        # r . lift, written out from the component's fields
        assert np.array_equal(s.range_at(samples), (
            comp.range_offset + comp.range_degree * s.lift(samples))
            % TWO_PI)


def test_sections_disjoint_within_component():
    g = circle_triple_cover()
    W, secs = s_section_decomposition(g, 1.0)
    mid = W.midpoint()
    lifts = sorted(float(s.lift(mid)) for s in secs)
    for a, b in zip(lifts, lifts[1:]):
        assert b - a > 1e-6


# ---------------------------------------------------------------------------
# arcs


def test_wrap_angle_range():
    for t in (-7.0, -1e-17, 0.0, 1.0, TWO_PI, TWO_PI + 3, 100.0):
        w = wrap_angle(t)
        assert 0.0 <= w < TWO_PI


def test_arc_contains_half_open():
    a = Arc(6.0, 1.0)           # wraps through 0
    assert a.contains(6.1) and a.contains(0.5)
    assert not a.contains(1.1)
    assert a.contains(6.0) and not a.contains(6.0 + 1.0 - TWO_PI + 1e-6)


def test_arc_intersection_components():
    a = Arc(0.0, 4.0)
    b = Arc(3.0, 4.0)           # overlaps [3,4) and wraps to [0, 0.717)
    pieces = a.intersect(b)
    assert len(pieces) == 2
    total = sum(p.length for p in pieces)
    assert abs(total - (1.0 + (3.0 + 4.0 - TWO_PI))) < 1e-9


def test_arcs_cover_circle():
    assert arcs_cover_circle([Arc(0.0, 4.0), Arc(3.0, 4.0)])
    assert not arcs_cover_circle([Arc(0.0, 3.0), Arc(4.0, 1.0)])


# ---------------------------------------------------------------------------
# validation and formats


def test_duplicate_ids_rejected():
    with pytest.raises(FormatError):
        FiniteGraph(["v", "v"], [], [], [])
    with pytest.raises(FormatError):
        FiniteGraph(["v"], ["e", "e"], ["v", "v"], ["v", "v"])


def test_dangling_edge_rejected():
    with pytest.raises(FormatError):
        FiniteGraph(["v"], ["e"], ["w"], ["v"])


def test_unknown_sources_are_reported_before_unknown_ranges():
    # e0's range and e1's source are unknown: every source is checked
    # before any range
    with pytest.raises(FormatError, match=r"edge 'e1': unknown source "
                       r"vertex 'x'"):
        FiniteGraph(["v"], ["e0", "e1"], ["v", "x"], ["y", "v"])
    with pytest.raises(FormatError, match=r"edge 'e0': unknown range "
                       r"vertex 'y'"):
        FiniteGraph(["v"], ["e0", "e1"], ["v", "v"], ["y", "v"])


def test_component_validation():
    with pytest.raises(FormatError):
        EdgeComponent(source_degree=0)
    with pytest.raises(FormatError):
        EdgeComponent(source_degree=1, range_degree=0)


def test_json_round_trip_finite():
    g = ten_edge()
    g2 = graph_from_dict(graph_to_dict(g))
    assert g2.vertices == g.vertices and g2.edges == g.edges
    assert g2.src == g.src and g2.rng == g.rng


def test_json_round_trip_circle():
    g = CircleCoveringGraph([EdgeComponent(2, 0.5, 4, 1.25)])
    g2 = graph_from_dict(graph_to_dict(g))
    c, c2 = g.components[0], g2.components[0]
    assert (c.source_degree, c.range_degree) == (c2.source_degree,
                                                 c2.range_degree)
    assert abs(c.source_offset - c2.source_offset) < 1e-15


#: every shipped fixture file name -> the registry builder of its fixture
SHIPPED = {**FINITE_FIXTURES, **CIRCLE_FIXTURES,
           **{f"cocycle-{name}": build
              for name, build in COCYCLE_FIXTURES.items()}}


def _hexed(x):
    """``x`` with every float replaced by its ``float.hex``."""
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_hexed(v) for v in x]
    return x


def assert_is_file(fixture, name):
    """``fixture`` holds, bitwise, what the shipped file ``name`` reads."""
    doc = load_json(fixture_path(name))
    if not isinstance(fixture, PermCocycle):
        assert _hexed(graph_to_dict(fixture)) == _hexed(doc)
        return
    got = cocycle_to_dict(fixture)
    assert (got["rank"], got["transitions"]) == (doc["rank"],
                                                 doc["transitions"])
    assert [(a.start.hex(), a.length.hex()) for a in fixture.cover.arcs] \
        == [(a.hex(), (b - a).hex()) for a, b in doc["arcs"]]


def test_every_shipped_file_has_a_registry_entry():
    folder = os.path.dirname(fixture_path("fibonacci"))
    assert {f.removesuffix(".json") for f in os.listdir(folder)} \
        == set(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_registry_entry_is_its_shipped_file(name):
    assert_is_file(SHIPPED[name](), name)


@pytest.mark.parametrize("name,build", [
    ("three-loops", lambda: k_loops(3)),
    ("edgeless", edgeless),
    ("cocycle-identity-rank2", lambda: identity_cocycle(2)),
])
def test_family_member_is_its_shipped_file(name, build):
    assert_is_file(build(), name)


def test_bad_kind_rejected():
    with pytest.raises(FormatError):
        graph_from_dict({"kind": "mystery"})
