import math

import numpy as np
import pytest
from hypothesis import given, settings

from graphcorr import kms, modules, suite
from graphcorr.errors import (DomainError, FormatError, MismatchError,
                              SizeLimitError)
from graphcorr.fixtures import (FINITE_FIXTURES, edgeless, fibonacci, k_loops,
                                single_loop, ten_edge)
from graphcorr.graphs import FiniteGraph, spectral_radius
from graphcorr.kms import (KMSParameters, KMSState, SweepRow, SweepTable,
                           _element_stack, _word_profile,
                           choose_truncation_depth,
                           extremal_separation_check, kms_condition_check,
                           kms_condition_residuals, kms_eval,
                           kms_eval_truncated,
                           kms_limit_sweep, limit_sweep_words,
                           partition_tail_bound, truncated_partition_sum)
from graphcorr.modules import (ModuleElement, VertexFunction, delta_edge,
                               delta_vertex, random_module_element,
                               random_vertex_function, tensor_inner_product)
from graphcorr.toeplitz import (ToeplitzElement, gauge_scale, iota_word,
                                pi_word, vacuum_projection, word)

from oracles import mixed_trial_entry, trial_of
from strategies import finite_graphs


def point_state(g, beta, v=None):
    params = KMSParameters(g, beta)
    return KMSState.point_mass(params, v if v is not None else g.vertices[0])


def edge_word(g, e, f=None):
    d1 = delta_edge(g, e)
    d2 = d1 if f is None else delta_edge(g, f)
    return ToeplitzElement(g, [word(1.0, (d1,), None, (d2,))])


def resolvent_loop_eval(state, elem) -> complex:
    """One resolvent solve per word, with ``g`` rebuilt from the factors:
    the evaluation loop that ``kms_eval``'s dual vector replaced."""
    p = state.params
    weights = state.measure / p.partition
    total = 0.0 + 0.0j
    for w in elem.words:
        k = w.creations
        if k != w.annihilations:
            continue
        if k:
            g = tensor_inner_product(list(w.right), list(w.left)).values
        elif w.middle is None:
            g = np.ones(p.graph.n_vertices)
        else:
            g = w.middle.values
        z = np.linalg.solve(p.resolvent_t, g)
        total += w.coeff * (p.x ** k) * complex(weights @ z)
    return complex(total)


def word_loop_eval(state, elem) -> complex:
    """One dot product per balanced word, each with its own profile: the
    evaluation loop that the per-element profile stacks replaced."""
    x, u = state.params.x, state.dual
    if elem.graph is not state.params.graph:
        raise MismatchError("element and state live over different graphs")
    total = 0.0 + 0.0j
    for w in elem.words:
        profile = _word_profile(w)
        if profile is None:
            continue
        g, k = profile
        weight = x ** k
        if weight:
            total += w.coeff * weight * (u.sum() if g is None else u @ g)
    return complex(total)


def kms_infty_eval(graph, vertex, elem) -> complex:
    """Vacuum vector state at ``vertex``: words with any creation or
    annihilation evaluate to 0, scalar words evaluate their coefficient
    function at the vertex.  The loop that the ``beta = inf`` state
    replaced."""
    vi = graph.vertex_index(vertex)
    total = 0.0 + 0.0j
    for w in elem.words:
        if w.creations or w.annihilations:
            continue
        a = 1.0 if w.middle is None else w.middle.values[vi]
        total += w.coeff * a
    return complex(total)


def tied_graph():
    """Two copies of a primitive 3-vertex graph joined by one arc: the
    dominant eigenvalue is tied and has a Jordan block."""
    base = [(0, 1), (1, 2), (2, 0), (1, 1), (0, 2)]
    arcs = base + [(s + 3, r + 3) for s, r in base] + [(2, 4)]
    return FiniteGraph([f"v{i}" for i in range(6)],
                       [f"e{i}" for i in range(len(arcs))],
                       [f"v{s}" for s, _ in arcs], [f"v{r}" for _, r in arcs])


def acyclic_graph():
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 4), (0, 3)]
    return FiniteGraph([f"v{i}" for i in range(5)],
                       [f"e{i}" for i in range(len(arcs))],
                       [f"v{s}" for s, _ in arcs], [f"v{r}" for _, r in arcs])


def mixed_element(g, rng) -> ToeplitzElement:
    """Balanced words with k = 0..3 creations, unbalanced words, a scalar
    word and the unit word."""
    words = [word(complex(*rng.standard_normal(2)))]
    for k in range(4):
        for _ in range(2):
            words.append(word(
                complex(*rng.standard_normal(2)),
                tuple(random_module_element(g, rng) for _ in range(k)),
                random_vertex_function(g, rng),
                tuple(random_module_element(g, rng) for _ in range(k))))
    words.append(word(1.0, (random_module_element(g, rng),), None, ()))
    words.append(word(1.0, (), None, tuple(
        random_module_element(g, rng) for _ in range(2))))
    return ToeplitzElement(g, words)


# ---------------------------------------------------------------------------
# partition sums


def test_single_loop_geometric_series():
    g = single_loop()
    for beta in (0.5, 1.0, 2.0, 5.0):
        params = KMSParameters(g, beta)
        assert abs(params.partition_sum("v")
                   - 1.0 / (1.0 - math.exp(-beta))) <= 1e-12


def test_edgeless_partition_is_one():
    g = edgeless(2)
    params = KMSParameters(g, 0.25)     # any beta: spectral radius is 0
    for v in g.vertices:
        assert params.partition_sum(v) == 1.0


def test_partition_matches_truncated_sum():
    g = fibonacci()
    params = KMSParameters(g, 1.0)
    depth = choose_truncation_depth(g, 1.0, eps=1e-13)
    for v in g.vertices:
        exact = params.partition_sum(v)
        assert abs(exact - truncated_partition_sum(g, 1.0, v, 60)) <= 1e-12
        assert abs(exact - truncated_partition_sum(g, 1.0, v, depth)) <= 1e-12


def test_partition_counts_paths_by_source_on_an_unsymmetric_graph():
    # ten-edge's adjacency is not symmetric, so a resolvent transposed by
    # mistake counts paths by range and misses the truncated path sum
    g = ten_edge()
    assert not np.array_equal(g.adjacency(), g.adjacency().T)
    params = KMSParameters(g, 1.0)
    depth = choose_truncation_depth(g, 1.0)
    for v in g.vertices:
        assert abs(params.partition_sum(v)
                   - truncated_partition_sum(g, 1.0, v, depth)) <= 1e-12


def test_truncated_sum_matches_explicit_enumeration():
    # at small depth the damped-power oracle equals a literal path sum
    from graphcorr.graphs import enumerate_paths
    g = fibonacci()
    beta = 1.0
    for v in g.vertices:
        literal = sum(math.exp(-beta * n) * len(enumerate_paths(g, v, n))
                      for n in range(9))
        assert abs(truncated_partition_sum(g, beta, v, 8) - literal) <= 1e-12


def test_truncation_depth_chooser():
    g = fibonacci()
    depth = choose_truncation_depth(g, 1.0, eps=1e-13)
    assert partition_tail_bound(g, 1.0, depth) < 1e-13
    assert partition_tail_bound(g, 1.0, depth - 1) >= 1e-13


def test_truncation_depth_on_acyclic_graph():
    # a directed path has nilpotent adjacency: the tail bound must not read
    # A^20 = 0 as "no tail" while paths of length up to 3 remain
    g = FiniteGraph(vertices=["v0", "v1", "v2", "v3"],
                    edges=["e0", "e1", "e2"], src=["v0", "v1", "v2"],
                    rng=["v1", "v2", "v3"])
    beta = 0.5
    assert partition_tail_bound(g, beta, 1) > 0.0
    assert partition_tail_bound(g, beta, 3) == 0.0
    depth = choose_truncation_depth(g, beta)
    assert depth == 3
    rng = np.random.default_rng(3)
    for v in g.vertices:
        st = point_state(g, beta, v)
        for k in range(3):
            w = ToeplitzElement(g, [word(
                1.0, tuple(random_module_element(g, rng) for _ in range(k)),
                random_vertex_function(g, rng) if k == 0 else None,
                tuple(random_module_element(g, rng) for _ in range(k)))])
            assert abs(kms_eval(st, w)
                       - kms_eval_truncated(st, w, depth)) <= 1e-12


def test_beta_domain_enforced():
    g = fibonacci()
    with pytest.raises(DomainError):
        KMSParameters(g, math.log(1.618))
    with pytest.raises(DomainError):
        KMSParameters(g, 0.0)


# ---------------------------------------------------------------------------
# state evaluation


def test_state_is_unital():
    for g in (single_loop(), fibonacci()):
        st = point_state(g, 1.5)
        one = ToeplitzElement(g, [pi_word(VertexFunction(
            g, np.ones(g.n_vertices)))])
        assert abs(kms_eval(st, one) - 1.0) <= 1e-14
        bare = ToeplitzElement(g, [word(1.0)])
        assert abs(kms_eval(st, bare) - 1.0) <= 1e-14


def test_mixed_state_is_unital_on_an_unsymmetric_graph():
    # the unit word reads sum_v Omega(v) N_v^{-1} N_v = 1 only when the
    # partition sums and the dual vector count paths by source
    g = ten_edge()
    m = np.random.default_rng(4).random(g.n_vertices)
    st = KMSState(KMSParameters(g, 1.0), m / m.sum())
    assert abs(kms_eval(st, ToeplitzElement(g, [word(1.0)])) - 1.0) <= 1e-12


def test_single_loop_edge_word_closed_form():
    g = single_loop()
    for beta in (0.5, 1.0, 2.0):
        st = point_state(g, beta)
        val = kms_eval(st, edge_word(g, "e"))
        assert abs(val - math.exp(-beta)) <= 1e-12
        # independent truncated path-sum oracle
        oracle = kms_eval_truncated(st, edge_word(g, "e"), depth=60)
        assert abs(val - oracle) <= 1e-12


def test_orthogonal_edges_evaluate_to_zero():
    g = fibonacci()
    st = point_state(g, 2.0, "a")
    assert kms_eval(st, edge_word(g, "aa", "ab")) == 0.0


def test_gauge_invariance():
    # words of nonzero degree vanish in every equilibrium state
    g = fibonacci()
    st = point_state(g, 2.0)
    rng = np.random.default_rng(0)
    for m, n in [(1, 0), (0, 1), (2, 1), (1, 2), (2, 0)]:
        w = ToeplitzElement(g, [word(
            1.0, tuple(random_module_element(g, rng) for _ in range(m)),
            None, tuple(random_module_element(g, rng) for _ in range(n)))])
        assert kms_eval(st, w) == 0.0


def test_state_positivity():
    g = fibonacci()
    st = point_state(g, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        m, n = rng.integers(0, 3, size=2)
        w = ToeplitzElement(g, [word(
            complex(*rng.standard_normal(2)),
            tuple(random_module_element(g, rng) for _ in range(m)),
            random_vertex_function(g, rng) if m == 0 else None,
            tuple(random_module_element(g, rng) for _ in range(n)))])
        val = kms_eval(st, w.adjoint() * w)
        assert abs(val.imag) <= 1e-12
        assert val.real >= -1e-12


def test_eval_matches_truncated_oracle_fibonacci():
    g = fibonacci()
    st = point_state(g, 1.0, "a")
    rng = np.random.default_rng(2)
    depth = choose_truncation_depth(g, 1.0, eps=1e-14)
    for _ in range(5):
        k = int(rng.integers(0, 3))
        w = ToeplitzElement(g, [word(
            1.0, tuple(random_module_element(g, rng) for _ in range(k)),
            random_vertex_function(g, rng) if k == 0 else None,
            tuple(random_module_element(g, rng) for _ in range(k)))])
        assert abs(kms_eval(st, w)
                   - kms_eval_truncated(st, w, depth)) <= 1e-11


@pytest.mark.parametrize("name", ["single-loop", "three-loops", "fibonacci",
                                  "ten-edge", "tied", "acyclic"])
def test_dual_vector_matches_per_word_solves(name):
    graph_of = dict(FINITE_FIXTURES, tied=tied_graph, acyclic=acyclic_graph)
    g = graph_of[name]()
    rho = max(abs(np.linalg.eigvals(g.adjacency().astype(float))))
    beta = (math.log(rho) if rho > 1.0 else 0.0) + 0.7
    params = KMSParameters(g, beta)
    rng = np.random.default_rng(7)
    elems = [mixed_element(g, rng) for _ in range(3)]
    measures = [np.eye(g.n_vertices)[i] for i in range(g.n_vertices)]
    for _ in range(3):
        m = rng.random(g.n_vertices) + 0.1
        measures.append(m / m.sum())
    for m in measures:
        st = KMSState(params, m)
        for elem in elems:
            want = resolvent_loop_eval(st, elem)
            assert abs(kms_eval(st, elem) - want) \
                <= 1e-12 * max(1.0, abs(want))


def test_word_profile_computed_once():
    g = fibonacci()
    rng = np.random.default_rng(8)
    xs = (random_module_element(g, rng), random_module_element(g, rng))
    w = word(1.0, xs, None, xs[::-1])
    g_w, k = _word_profile(w)
    assert k == 2 and _word_profile(w)[0] is g_w
    assert _word_profile(word(2.0)) == (None, 0)
    assert _word_profile(word(1.0, xs, None, xs[:1])) is None


def sized_element(g, rng, n_words) -> ToeplitzElement:
    """``n_words`` balanced words, word ``i`` with ``i % 4`` creations."""
    return ToeplitzElement(g, [word(
        complex(*rng.standard_normal(2)),
        tuple(random_module_element(g, rng) for _ in range(i % 4)),
        random_vertex_function(g, rng),
        tuple(random_module_element(g, rng) for _ in range(i % 4)))
        for i in range(n_words)])


def loop_oracle_elements(g, rng) -> list:
    """Unit, scalar, k = 1..3 and unbalanced words; an element of only
    unbalanced words; the empty element; the vacuum projection."""
    x = random_module_element(g, rng)
    return [mixed_element(g, rng), sized_element(g, rng, 12),
            ToeplitzElement(g, [word(1.0, (x,), None, ()),
                                word(2.0, (), None, (x, x))]),
            ToeplitzElement(g), vacuum_projection(g),
            ToeplitzElement(g, [word(2.5 - 1j)])]


def assert_stack_matches_word_loop(g, rng):
    elems = loop_oracle_elements(g, rng)
    unbalanced = elems[2]
    infty = KMSParameters(g, math.inf)
    for v in g.vertices:
        st = KMSState.point_mass(infty, v)
        with np.errstate(over="ignore", invalid="ignore"):
            for elem in elems + [huge_element(g, rng)]:
                got = kms_eval(st, elem)
                assert math.isfinite(abs(got))
                assert repr(got) == repr(word_loop_eval(st, elem))
    rho = max(abs(np.linalg.eigvals(g.adjacency().astype(float))),
              default=0.0)
    params = KMSParameters(g, math.log(max(rho, 1.0)) + 1.0)
    m = rng.random(g.n_vertices) + 0.1
    states = [KMSState.point_mass(params, v) for v in g.vertices]
    for st in states + [KMSState(params, m / m.sum())]:
        for elem in elems:
            want = word_loop_eval(st, elem)
            assert abs(kms_eval(st, elem) - want) \
                <= 1e-12 * max(1.0, elem.norm_bound())
        assert repr(kms_eval(st, unbalanced)) == repr(0j)
        assert repr(kms_eval(st, ToeplitzElement(g))) == repr(0j)


@pytest.mark.parametrize("name", sorted(FINITE_FIXTURES)
                         + ["tied", "acyclic"])
def test_stacked_eval_matches_word_loop_on_fixtures(name):
    g = dict(FINITE_FIXTURES, tied=tied_graph, acyclic=acyclic_graph)[name]()
    assert_stack_matches_word_loop(g, np.random.default_rng(14))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs())
def test_stacked_eval_matches_word_loop_on_generated_graphs(g):
    assert_stack_matches_word_loop(g, np.random.default_rng(15))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs())
def test_stack_rows_are_the_word_profiles(g):
    rng = np.random.default_rng(16)
    for elem in loop_oracle_elements(g, rng):
        G, k, c = _element_stack(elem)
        rows = [w for w in elem.words if w.creations == w.annihilations]
        assert G.shape == (len(rows), g.n_vertices)
        assert k == [w.creations for w in rows]
        assert c == [w.coeff for w in rows]
        for got, w in zip(G, rows):
            if w.creations:
                want = tensor_inner_product(w.right, w.left).values
            elif w.middle is None:
                want = np.ones(g.n_vertices, dtype=np.complex128)
            else:
                want = w.middle.values
            assert got.tobytes() == want.tobytes()


def per_call_eval(state, elem) -> complex:
    """``kms_eval`` with the weights, live rows and coefficient products
    formed on every call: the path that the temperature memo replaced."""
    x, u = state.params.x, state.dual
    G, k, c = _element_stack(elem)
    weight = [x ** j for j in k]
    live = [i for i, w in enumerate(weight) if w]
    d = np.einsum("ij,j->i", G if len(live) == len(k) else G[live], u)
    total = 0.0 + 0.0j
    for i, b in zip(live, d.tolist()):
        total += c[i] * weight[i] * b
    return complex(total)


@pytest.mark.parametrize("name", ["fibonacci", "ten-edge", "tied"])
def test_temperature_memo_matches_a_fresh_element_and_the_per_call_path(
        name):
    # beta1, beta2, beta1 again, then infinity, where the memo keeps only
    # the rows of words without creations
    g = dict(FINITE_FIXTURES, tied=tied_graph)[name]()
    rng = np.random.default_rng(22)
    elem = mixed_element(g, rng)
    log_rho = math.log(spectral_radius(g))
    m = rng.random(g.n_vertices) + 0.1
    rows = len(_element_stack(elem)[1])
    for beta in (log_rho + 0.5, log_rho + 2.0, log_rho + 0.5, math.inf):
        params = KMSParameters(g, beta)
        memos = []
        for st in (KMSState.point_mass(params, g.vertices[-1]),
                   KMSState(params, m / m.sum())):
            got = kms_eval(st, elem)
            memos.append(vars(elem)["_at"])
            want = [kms_eval(st, ToeplitzElement(g, elem.words)),
                    per_call_eval(st, elem)]
            if beta == math.inf and st.measure.max() == 1.0:
                want.append(word_loop_eval(st, elem))
            assert len({(v.real.hex(), v.imag.hex())
                        for v in [got, *want]}) == 1
        # one memo per temperature; at infinity it keeps fewer rows
        assert memos[0] is memos[1]
        assert (len(memos[0][-1]) < rows) == (beta == math.inf)


def test_mismatch_is_raised_before_a_stack_is_built():
    st = point_state(fibonacci(), 2.0, "a")
    for h in (fibonacci(), ten_edge()):
        p = vacuum_projection(h)
        with pytest.raises(MismatchError):
            kms_eval(st, p)
        assert "_stack" not in vars(p)


def test_many_states_share_one_stack_and_no_word_profile(monkeypatch):
    g = ten_edge()
    rng = np.random.default_rng(18)
    elem = sized_element(g, rng, 48)
    params = KMSParameters(g, math.log(spectral_radius(g)) + 1.2)
    ms = rng.random((40, g.n_vertices)) + 0.1
    states = [KMSState(params, m) for m in ms / ms.sum(axis=1)[:, None]]
    stacks, profiles = [], []
    real_stack = kms._element_stack
    monkeypatch.setattr(kms, "_element_stack",
                        lambda e: stacks.append(real_stack(e)) or stacks[-1])
    for mod in (kms, modules):
        monkeypatch.setattr(mod, "tensor_inner_product",
                            lambda *args: profiles.append(args))
    values = [kms_eval(st, elem) for st in states]
    assert len(stacks) == 40 and profiles == []
    assert all(s[0] is stacks[0][0] for s in stacks)
    monkeypatch.undo()
    for st, got in zip(states, values):
        assert abs(got - word_loop_eval(st, elem)) \
            <= 1e-12 * elem.norm_bound()


# ---------------------------------------------------------------------------
# the equilibrium condition


def test_condition_degree_zero():
    g = fibonacci()
    st = point_state(g, 2.0)
    rng = np.random.default_rng(3)
    a = ToeplitzElement(g, [pi_word(random_vertex_function(g, rng))])
    rec = kms_condition_check(st, a, a)
    assert rec.passed and rec.residual <= 1e-14


def test_condition_single_loop_closed_form():
    g = single_loop()
    beta = 1.25
    st = point_state(g, beta)
    d = delta_edge(g, "e")
    ann = ToeplitzElement(g, [word(1.0, (), None, (d,))])
    crt = ToeplitzElement(g, [iota_word(d)])
    # both sides equal e^{-beta}
    lhs = kms_eval(st, ann * crt.scaled(math.exp(-beta)))
    rhs = kms_eval(st, crt * ann)
    assert abs(lhs - math.exp(-beta)) <= 1e-12
    assert abs(rhs - math.exp(-beta)) <= 1e-12
    rec = kms_condition_check(st, ann, crt)
    assert rec.passed


def test_condition_random_words():
    g = fibonacci()
    st = point_state(g, 2.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        m, n = rng.integers(0, 3, size=2)
        b1 = ToeplitzElement(g, [word(
            1.0, tuple(random_module_element(g, rng) for _ in range(m)),
            random_vertex_function(g, rng) if m == 0 else None,
            tuple(random_module_element(g, rng) for _ in range(n)))])
        b2 = ToeplitzElement(g, [word(
            1.0, tuple(random_module_element(g, rng) for _ in range(n)),
            random_vertex_function(g, rng) if n == 0 else None,
            tuple(random_module_element(g, rng) for _ in range(m)))])
        rec = kms_condition_check(st, b1, b2, tol=1e-9)
        assert rec.passed, rec.residual


@pytest.mark.parametrize("beta", [800.0, math.inf])
def test_condition_refuses_a_twist_that_underflows(beta):
    # sigma scales a degree -1 word by e^{beta}, and e^{-beta} is 0 here
    g = single_loop()
    st = point_state(g, beta)
    d = delta_edge(g, "e")
    ann = ToeplitzElement(g, [word(1.0, (), None, (d,))])
    crt = ToeplitzElement(g, [iota_word(d)])
    assert kms_condition_check(st, ann, crt).residual == 0.0
    with pytest.raises(DomainError):
        kms_condition_check(st, crt, ann)


def test_condition_rejects_inhomogeneous():
    g = fibonacci()
    st = point_state(g, 2.0)
    rng = np.random.default_rng(5)
    mixed = ToeplitzElement(g, [
        iota_word(random_module_element(g, rng)),
        pi_word(random_vertex_function(g, rng))])
    with pytest.raises(DomainError):
        kms_condition_check(st, mixed, mixed)


def word_route_condition(state, b1, b2) -> float:
    """Both products as elements, through ``word_multiply`` and the
    element's merge, each evaluated by ``kms_eval``: the per-pair route
    that :func:`kms_condition_residuals` stacks."""
    if len(b1.degrees()) > 1 or len(b2.degrees()) > 1:
        raise DomainError("inputs must be gauge homogeneous")
    twisted = gauge_scale(b2, state.params.x)
    return abs(kms_eval(state, b1 * twisted) - kms_eval(state, b2 * b1))


def homogeneous_element(g, rng, degree, n_words) -> ToeplitzElement:
    """Words of one degree with freely drawn shapes, middles and
    coefficients."""
    words = []
    for _ in range(n_words):
        m = max(degree, 0) + int(rng.integers(0, 2))
        words.append(word(
            complex(*rng.standard_normal(2)),
            tuple(random_module_element(g, rng) for _ in range(m)),
            random_vertex_function(g, rng) if rng.random() < 0.5 else None,
            tuple(random_module_element(g, rng)
                  for _ in range(m - degree))))
    return ToeplitzElement(g, words)


def condition_pairs(g, rng, n_pairs, twist_degrees) -> list:
    """One- to three-word pairs, ``b2`` mostly of the opposite degree and
    otherwise of a degree from ``twist_degrees``."""
    pairs = []
    for _ in range(n_pairs):
        d1 = int(rng.integers(-2, 3))
        d2 = -d1 if rng.random() < 0.7 else int(rng.choice(twist_degrees))
        pairs.append(tuple(homogeneous_element(
            g, rng, d, int(rng.integers(1, 4))) for d in (d1, d2)))
    return pairs


def assert_stacked_condition_matches_word_route(g, beta, rng):
    state = point_state(g, beta)
    twist_degrees = (0, 1, 2) if beta == math.inf else (-2, -1, 0, 1, 2)
    pairs = [(b1, b2) for b1, b2 in condition_pairs(g, rng, 12, twist_degrees)
             if beta < math.inf or degree_of(b2) >= 0]
    want = [word_route_condition(state, b1, b2) for b1, b2 in pairs]
    got = kms_condition_residuals(
        state, [(b1.stacks, b2.stacks) for b1, b2 in pairs])
    assert got.tolist() == want
    assert [kms_condition_check(state, b1, b2).residual
            for b1, b2 in pairs] == want


def degree_of(elem) -> int:
    return next(iter(elem.degrees()), 0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs())
def test_stacked_condition_matches_word_route_on_generated_graphs(g):
    rho = max(abs(np.linalg.eigvals(g.adjacency().astype(float))),
              default=0.0)
    rng = np.random.default_rng(14)
    assert_stacked_condition_matches_word_route(
        g, math.log(max(rho, 1.0)) + 1.0, rng)
    assert_stacked_condition_matches_word_route(g, math.inf, rng)
    # at beta = inf a b2 of negative degree is refused, by both routes
    state = point_state(g, math.inf)
    unit = ToeplitzElement(g, [word(1.0)])
    ann = homogeneous_element(g, rng, -1, 1)
    if ann.words:
        with pytest.raises(DomainError):
            word_route_condition(state, unit, ann)
        with pytest.raises(DomainError):
            kms_condition_residuals(state, [(unit.stacks, ann.stacks)])


def test_stacked_condition_skips_weightless_words_at_infinity():
    # the products' profiles overflow, but every product word has
    # creations, so its weight e^{-beta k} is 0 and it adds nothing
    g = fibonacci()
    state = point_state(g, math.inf)
    rng = np.random.default_rng(16)
    big = huge_element(g, rng)
    pair = (big.stacks, big.stacks)
    with np.errstate(over="ignore", invalid="ignore"):
        assert word_route_condition(state, big, big) == 0.0
        assert kms_condition_residuals(state, [pair]).tolist() == [0.0]


def test_stacked_trials_match_word_route_on_suite_draws():
    # criterion 2's draws, stacked by shape as it stacks them: the factors
    # are those of per-call draws, and each row of a many-trial entry has
    # the residual of its pair
    g = fibonacci()
    state = point_state(g, 2.0)
    rng, old = np.random.default_rng(15), np.random.default_rng(15)
    groups: dict = {}
    for _ in range(60):
        m1, n1, z1 = suite._draw_word(g, rng)
        m2, n2, z2 = suite._draw_word(
            g, rng, n1 - m1 if rng.random() < 0.7 else None)
        b1 = per_call_homogeneous(g, old)
        b2 = per_call_homogeneous(
            g, old, -degree_of(b1) if old.random() < 0.7 else None)
        groups.setdefault((m1, n1, m2, n2), []).append((z1, z2, b1, b2))
    entries, want = [], []
    for (m1, n1, m2, n2), rows in groups.items():
        stacks = [suite._word_stack(g, m, n, np.array([r[i] for r in rows]))
                  for i, (m, n) in enumerate(((m1, n1), (m2, n2)))]
        for t, (_, _, *elems) in enumerate(rows):
            for (w,), (_, _, c, ls, mid, rs) in zip(
                    (e.words for e in elems), (st[0] for st in stacks)):
                assert c[t, 0] == w.coeff
                assert (len(w.left), len(w.right)) == (len(ls), len(rs))
                assert all(np.array_equal(a.values, b[t, 0]) for a, b in zip(
                    w.left + w.right, ls + rs))
                assert (mid is None) == (w.middle is None)
                assert mid is None or np.array_equal(w.middle.values,
                                                     mid[t, 0])
            want.append(word_route_condition(state, *elems))
        entries.append(tuple(stacks))
    assert max(map(len, groups.values())) > 1
    assert kms_condition_residuals(state, entries).tolist() == want


def test_one_trial_operand_serves_every_trial():
    # b1 drawn once and b2 twice, as criterion 2 draws them: the one-trial
    # b1 stack meets each b2 trial, as when repeated to two trials and as
    # in one-trial entries
    g = fibonacci()
    state = point_state(g, 2.0)
    rng = np.random.default_rng(0)
    m1, n1, z1 = suite._draw_word(g, rng)
    draws = [suite._draw_word(g, rng, n1 - m1) for _ in range(2)]
    assert (m1, n1) == (2, 1) and [d[:2] for d in draws] == [(0, 1)] * 2
    z2 = np.array([z for *_, z in draws])
    b2 = suite._word_stack(g, 0, 1, z2)
    one, repeated = (
        kms_condition_residuals(
            state, [(suite._word_stack(g, m1, n1, z), b2)]).tolist()
        for z in (z1[None], np.array([z1, z1])))
    per_trial = kms_condition_residuals(state, [
        (suite._word_stack(g, m1, n1, z1[None]),
         suite._word_stack(g, 0, 1, z[None])) for z in z2]).tolist()
    assert one == repeated == per_trial
    assert all(r > 0.0 for r in per_trial)


def test_mixed_trial_entry_keeps_its_residuals():
    # a one-trial and a three-trial pair of stacks meet on one product
    # shape: each trial's residual is that of its own one-trial entry
    g = fibonacci()
    state = point_state(g, 2.0)
    b1, b2 = mixed_trial_entry(g)
    got = kms_condition_residuals(state, [(b1, b2)]).tolist()
    assert [r.hex() for r in got] == [
        "0x0.0p+0", "0x1.0000000000000p-53", "0x1.6a09e667f3bcdp-51"]
    assert got == kms_condition_residuals(state, [
        ([trial_of(bt, t) for bt in b1], b2) for t in range(3)]).tolist()


def per_call_homogeneous(g, rng, degree=None) -> ToeplitzElement:
    """The one-word element drawn by per-call ``modules.random_*`` draws,
    the middle only without creations: criterion 2's former draws."""
    if degree is None:
        m, n = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    else:
        m = max(degree, 0) + int(rng.integers(0, 2))
        n = m - degree
    xs = tuple(random_module_element(g, rng) for _ in range(m))
    ys = tuple(random_module_element(g, rng) for _ in range(n))
    mid = random_vertex_function(g, rng) if m == 0 else None
    return ToeplitzElement(g, [word(1.0, xs, mid, ys)])


# ---------------------------------------------------------------------------
# the limit states


def test_infty_scalar_words():
    g = fibonacci()
    st = point_state(g, math.inf, "a")
    assert kms_eval(st, ToeplitzElement(
        g, [pi_word(delta_vertex(g, "a"))])) == 1.0
    assert kms_eval(st, ToeplitzElement(
        g, [pi_word(delta_vertex(g, "b"))])) == 0.0


def test_infty_kills_nonscalar_words():
    g = fibonacci()
    st = point_state(g, math.inf, "a")
    rng = np.random.default_rng(6)
    w = ToeplitzElement(g, [word(1.0, (random_module_element(g, rng),), None,
                                 (random_module_element(g, rng),))])
    assert kms_eval(st, w) == 0.0


def test_infty_vacuum_projection_is_one():
    for g in (single_loop(), fibonacci(), k_loops(3)):
        st = point_state(g, math.inf)
        assert kms_eval(st, vacuum_projection(g)) == 1.0


def test_infty_parameters_are_the_vacuum():
    g = ten_edge()
    params = KMSParameters(g, math.inf)
    assert params.x == 0.0 and params.rho is None
    assert (params.resolvent_t == np.eye(g.n_vertices)).all()
    assert (params.partition == 1.0).all()
    st = KMSState.point_mass(params, "v2")
    assert (st.dual == np.eye(g.n_vertices)[2]).all()


def test_infty_needs_no_spectral_radius():
    # a 69-cycle fed by one source: the radius refuses these 70 vertices
    n = 69
    g = FiniteGraph([f"c{i}" for i in range(n)] + ["s"],
                    [f"e{i}" for i in range(n + 1)],
                    [f"c{i}" for i in range(n)] + ["s"],
                    [f"c{(i + 1) % n}" for i in range(n)] + ["c0"])
    with pytest.raises(SizeLimitError):
        spectral_radius(g)
    st = point_state(g, math.inf, "s")
    assert kms_eval(st, ToeplitzElement(g, [word(1.0)])) == 1.0
    assert kms_eval(st, vacuum_projection(g)) == 1.0


def huge_element(g, rng) -> ToeplitzElement:
    """A balanced word with ``|x|, |y| ~ 1e200``, whose profile overflows,
    next to a scalar word: the value stays finite at ``beta = inf``."""
    big = [ModuleElement(g, 1e200 * random_module_element(g, rng).values)
           for _ in range(2)]
    return ToeplitzElement(g, [
        word(1.0, (big[0],), None, (big[1],)),
        word(complex(*rng.standard_normal(2)), (),
             random_vertex_function(g, rng), ())])


def assert_infty_matches_oracle(g, rng):
    elems = [mixed_element(g, rng), vacuum_projection(g),
             huge_element(g, rng), ToeplitzElement(g, [word(2.5 - 1j)])]
    params = KMSParameters(g, math.inf)
    for v in g.vertices:
        st = KMSState.point_mass(params, v)
        for elem in elems:
            want = kms_infty_eval(g, v, elem)
            assert math.isfinite(abs(want))
            with np.errstate(over="ignore", invalid="ignore"):
                assert repr(kms_eval(st, elem)) == repr(want)


@pytest.mark.parametrize("name", sorted(FINITE_FIXTURES))
def test_infty_state_matches_vacuum_loop_on_fixtures(name):
    assert_infty_matches_oracle(FINITE_FIXTURES[name](),
                                np.random.default_rng(11))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs())
def test_infty_state_matches_vacuum_loop_on_generated_graphs(g):
    assert_infty_matches_oracle(g, np.random.default_rng(12))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs())
def test_eval_matches_truncated_oracle_on_generated_graphs(g):
    # a margin of 1 above log rho: the dense radius may be 2.2e-8 off on a
    # defective graph, and the series terms fall like n^5 e^{-n}, so 100
    # terms leave a tail far below the tolerance
    rho = max(abs(np.linalg.eigvals(g.adjacency().astype(float))),
              default=0.0)
    beta = math.log(max(rho, 1.0)) + 1.0
    rng = np.random.default_rng(13)
    m = rng.random(g.n_vertices) + 0.1
    for st in (point_state(g, beta), KMSState(KMSParameters(g, beta),
                                              m / m.sum())):
        for elem in (mixed_element(g, rng), vacuum_projection(g)):
            want = kms_eval_truncated(st, elem, 100)
            assert abs(kms_eval(st, elem) - want) \
                <= 1e-9 * max(1.0, abs(want))


def test_states_refuse_elements_over_another_graph():
    g = fibonacci()
    st = point_state(g, 2.0, "a")
    for h in (fibonacci(), ten_edge()):
        p = vacuum_projection(h)
        with pytest.raises(MismatchError):
            kms_eval(st, p)
        with pytest.raises(MismatchError):
            kms_condition_check(st, p, p)
        with pytest.raises(MismatchError):
            kms_limit_sweep(g, "a", {"p": p}, [2.0])


def test_sweep_single_loop_closed_form():
    # the residual of the one-edge word is exactly e^{-beta}
    g = single_loop()
    words = {"cc*": edge_word(g, "e")}
    table = kms_limit_sweep(g, "v", words, [1.0, 2.0, 3.0])
    for beta, res in table.residuals("cc*"):
        assert abs(res - math.exp(-beta)) <= 1e-12
    assert table.monotone_decreasing()
    assert abs(table.fitted_constant - 1.0) <= 1e-9


def test_sweep_fibonacci_monotone_and_bounded():
    g = fibonacci()
    words = {"p": vacuum_projection(g),
             "pi[a]": ToeplitzElement(g, [pi_word(delta_vertex(g, "a"))])}
    table = kms_limit_sweep(g, "a", words, range(1, 11))
    assert table.monotone_decreasing()
    assert math.isfinite(table.fitted_constant)
    for row in table.rows:
        assert row.residual <= 3.0 * math.exp(-row.beta) \
            * words[row.word_id].norm_bound()


def test_sweep_with_one_rising_residual_is_not_monotone():
    # word "w" rises by 1e-9 from beta 2 to beta 3, rows given out of
    # beta order; word "u" falls
    rows = [SweepRow(2.0, "w", 0j, 0.25), SweepRow(1.0, "w", 0j, 0.5),
            SweepRow(1.0, "u", 0j, 1.0), SweepRow(2.0, "u", 0j, 0.5),
            SweepRow(3.0, "w", 0j, 0.25 + 1e-9)]
    assert SweepTable(rows[:4]).monotone_decreasing()
    assert not SweepTable(rows).monotone_decreasing()


def test_sweep_evaluates_each_limit_once(monkeypatch):
    g = fibonacci()
    words = limit_sweep_words(g)
    calls = []
    monkeypatch.setattr(kms, "kms_eval", lambda st, e: calls.append(
        st.params.beta) or kms_eval(st, e))
    kms_limit_sweep(g, "a", words, [1.0, 2.0, 3.0])
    assert calls.count(math.inf) == len(words)
    assert len(calls) == 4 * len(words)


def test_sweep_computes_the_radius_once(monkeypatch):
    # the radius is kept in the graph per tol: a 10-point sweep solves for
    # the eigenvalues once, and every row is bitwise (by repr) the row of
    # a sweep point that computes the radius afresh
    g = fibonacci()
    words = limit_sweep_words(g)
    betas = [1.0 + 0.5 * i for i in range(10)]
    want = []
    for beta in betas:
        vars(g).pop("_radii", None)
        table = kms_limit_sweep(g, "a", words, [beta])
        want += table.to_csv().splitlines()[1:]
    vars(g).pop("_radii", None)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls.append(a) or eigvals(a))
    got = kms_limit_sweep(g, "a", words, betas).to_csv().splitlines()[1:]
    assert len(calls) == 1
    assert got == want


def test_sweep_rejects_beta_in_forbidden_range():
    g = fibonacci()
    with pytest.raises(DomainError):
        kms_limit_sweep(g, "a", {"one": ToeplitzElement(
            g, [word(1.0)])}, [0.25, 1.0])


# ---------------------------------------------------------------------------
# separation and affinity


def test_separation_single_vertex_trivial():
    g = single_loop()
    params = KMSParameters(g, 1.0)
    recs = extremal_separation_check(params, trials=5, seed=0)
    assert all(r.passed for r in recs)


def test_separation_two_vertices_distinct_loop_counts():
    g = type(fibonacci())(
        vertices=["u", "v"],
        edges=["l1", "l2", "m1"],
        src=["u", "u", "v"],
        rng=["u", "u", "v"])   # two loops at u, one at v
    params = KMSParameters(g, 2.0)
    recs = extremal_separation_check(params, trials=10, seed=1)
    assert all(r.passed for r in recs)


def loop_separation(params) -> list:
    """Separation gaps with one indicator per vertex triple: the loop that
    building each indicator once replaced."""
    g = params.graph
    point_states = {v: KMSState.point_mass(params, v) for v in g.vertices}
    gaps = []
    for i, v in enumerate(g.vertices):
        for w_ in g.vertices[i + 1:]:
            sep = 0.0
            for u in g.vertices:
                ind = ToeplitzElement(g, [pi_word(delta_vertex(g, u))])
                sep = max(sep, abs(kms_eval(point_states[v], ind)
                                   - kms_eval(point_states[w_], ind)))
            gaps.append((f"separate[{v},{w_}]", sep))
    return gaps


@pytest.mark.parametrize("name", ["single-loop", "three-loops", "fibonacci",
                                  "ten-edge", "tied", "acyclic"])
def test_separation_matches_indicator_loop(name):
    g = dict(FINITE_FIXTURES, tied=tied_graph, acyclic=acyclic_graph)[name]()
    for beta in (math.log(max(spectral_radius(g), 1.0)) + 0.5, math.inf):
        params = KMSParameters(g, beta)
        recs = extremal_separation_check(params, trials=1)
        got = [(r.name, r.residual) for r in recs
               if r.name.startswith("separate")]
        assert got == loop_separation(params)


def test_affinity_exact_identity():
    g = fibonacci()
    params = KMSParameters(g, 1.5)
    recs = extremal_separation_check(params, trials=100, seed=2)
    affine = [r for r in recs if r.name.startswith("affine")]
    assert len(affine) == 100
    assert all(r.passed and r.residual <= 1e-12 for r in affine)


def test_measure_validation():
    g = fibonacci()
    params = KMSParameters(g, 1.0)
    # NaN compares false with every bound, so it is refused explicitly
    for m in ([0.7, 0.7], [math.nan, 1.0], [math.inf, 1.0]):
        with pytest.raises(FormatError):
            KMSState(params, np.array(m))
