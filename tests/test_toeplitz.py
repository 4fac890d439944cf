import functools
import json
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcorr import toeplitz
from graphcorr.cli import dispatch
from graphcorr.conjugacy import GraphIsomorphism
from graphcorr.double_cover import run_verification
from graphcorr.errors import FormatError, MismatchError, SizeLimitError
from graphcorr.fixtures import (FINITE_FIXTURES, edgeless, fibonacci,
                                fixture_path, k_loops, single_loop, ten_edge)
from graphcorr.graphs import MAX_TRIALS, FiniteGraph, path_index_tuples
from graphcorr.kms import KMSParameters, extremal_separation_check
from graphcorr.modules import (ModuleElement, VertexFunction, delta_edge,
                               delta_vertex, inner_product, left_action,
                               random_module_element, random_vertex_function)
from graphcorr.report import Check, summarize
from graphcorr.serialize import element_to_json, word_from_dict
from graphcorr.suite import RECONSTRUCT_FIXTURES, relabeled_copy
from graphcorr.toeplitz import (ToeplitzElement, TruncatedFock, Word,
                                _basis_multiply, _batch_product,
                                _concat_batches, _expand,
                                delta_basis_multiply, element_delta_basis,
                                fock_matrix, gauge_scale,
                                iota_word, pi_word, reconstruct_module_check,
                                spectral_component, triple_iso_transport,
                                vacuum_projection, word, word_multiply)

from oracles import (delta_basis_residual, mixed_trial_entry, trial_of,
                     word_is_zero)
from strategies import finite_graphs

# ---------------------------------------------------------------------------
# word products


def test_annihilator_creator_axiom_on_deltas():
    g = fibonacci()
    for e in g.edges:
        for f in g.edges:
            w = word_multiply(word(1.0, (), None, (delta_edge(g, e),)),
                              iota_word(delta_edge(g, f)))
            if e == f:
                assert w is not None and w.creations == w.annihilations == 0
                assert np.array_equal(
                    w.middle.values,
                    delta_vertex(g, g.src[g.edge_index(e)]).values)
            else:
                assert w is None      # orthogonal deltas annihilate


def test_single_loop_projection_word_idempotent_under_fock():
    g = single_loop()
    d = delta_edge(g, "e")
    w = word(1.0, (d,), None, (d,))
    sq = word_multiply(w, w)
    f = TruncatedFock(g, "v", 6)
    m1, m2 = f.word_matrix(w), f.word_matrix(sq)
    valid = f.lengths + 2 <= 6
    assert np.max(np.abs((m1 @ m1 - m2)[:, valid])) < 1e-14


def test_degree_additivity_200_random_pairs():
    g = fibonacci()
    rng = np.random.default_rng(0)
    for _ in range(200):
        m1, n1, m2, n2 = rng.integers(0, 3, size=4)
        w1 = word(1.0, tuple(random_module_element(g, rng)
                             for _ in range(m1)),
                  random_vertex_function(g, rng) if m1 == 0 else None,
                  tuple(random_module_element(g, rng) for _ in range(n1)))
        w2 = word(1.0, tuple(random_module_element(g, rng)
                             for _ in range(m2)),
                  random_vertex_function(g, rng) if m2 == 0 else None,
                  tuple(random_module_element(g, rng) for _ in range(n2)))
        prod = word_multiply(w1, w2)
        if prod is not None:
            assert prod.degree == w1.degree + w2.degree


def test_normal_form_absorbs_middle():
    g = fibonacci()
    rng = np.random.default_rng(1)
    x = random_module_element(g, rng)
    a = random_vertex_function(g, rng)
    w = word(2.0, (x,), a, ())
    assert w.middle is None and len(w.left) == 1


# ---------------------------------------------------------------------------
# fock matrices


def test_unit_coefficient_is_identity():
    g = fibonacci()
    one = VertexFunction(g, np.ones(g.n_vertices))
    fm = fock_matrix(ToeplitzElement(g, [pi_word(one)]), "a", 4)
    assert np.array_equal(fm.matrix, np.eye(fm.fock.dim))


def test_single_loop_creation_is_lower_shift():
    # one path per length, so creating prepends the loop: the shift matrix
    g = single_loop()
    fm = fock_matrix(ToeplitzElement(g, [iota_word(delta_edge(g, "e"))]),
                     "v", 4)
    expected = np.zeros((5, 5), dtype=complex)
    for i in range(4):
        expected[i + 1, i] = 1.0
    assert np.array_equal(fm.matrix, expected)
    assert list(fm.valid_cols) == [True] * 4 + [False]


def test_word_products_match_matrix_products():
    g = ten_edge()
    rng = np.random.default_rng(2)
    f = TruncatedFock(g, "v0", 5)
    for _ in range(30):
        m1, n1 = rng.integers(0, 3, size=2)
        m2, n2 = rng.integers(0, 3, size=2)
        w1 = word(complex(*rng.standard_normal(2)),
                  tuple(random_module_element(g, rng) for _ in range(m1)),
                  random_vertex_function(g, rng) if m1 == 0 else None,
                  tuple(random_module_element(g, rng) for _ in range(n1)))
        w2 = word(complex(*rng.standard_normal(2)),
                  tuple(random_module_element(g, rng) for _ in range(m2)),
                  random_vertex_function(g, rng) if m2 == 0 else None,
                  tuple(random_module_element(g, rng) for _ in range(n2)))
        prod = word_multiply(w1, w2)
        mp = f.word_matrix(prod) if prod is not None \
            else np.zeros((f.dim, f.dim))
        valid = f.lengths + (m1 + m2) <= 5
        lhs = (f.word_matrix(w1) @ f.word_matrix(w2))[:, valid]
        scale = max(np.max(np.abs(lhs)), 1.0)
        assert np.max(np.abs(lhs - mp[:, valid])) <= 1e-12 * scale


def test_depth_too_small_rejected():
    g = fibonacci()
    rng = np.random.default_rng(3)
    xs = tuple(random_module_element(g, rng) for _ in range(3))
    with pytest.raises(SizeLimitError):
        fock_matrix(ToeplitzElement(g, [word(1.0, xs, None, ())]), "a", 2)


def test_dense_matrix_above_the_entry_limit_is_refused():
    # three loops: 3280 paths to depth 7 fit the limit, 9841 to depth 8
    # would take 1.4 GiB dense
    g = k_loops(3)
    unit = ToeplitzElement(g, [word(1.0)])
    assert fock_matrix(unit, "v", 7).fock.dim ** 2 <= toeplitz.MAX_FOCK_ENTRIES
    with pytest.raises(SizeLimitError, match="9841 x 9841 matrix exceeds"):
        fock_matrix(unit, "v", 8)


def test_vanishing_vacuum_expectation():
    # any word with a creation or annihilation has zero vacuum expectation
    g = fibonacci()
    rng = np.random.default_rng(4)
    f = TruncatedFock(g, "a", 4)
    vac = f.index[()]
    for m, n in [(1, 0), (0, 1), (2, 1), (1, 1), (2, 2), (3, 1)]:
        w = word(1.0, tuple(random_module_element(g, rng) for _ in range(m)),
                 None, tuple(random_module_element(g, rng) for _ in range(n)))
        assert f.word_matrix(w)[vac, vac] == 0.0


# ---------------------------------------------------------------------------
# vacuum projection


def test_vacuum_projection_single_loop_depth3():
    g = single_loop()
    fm = fock_matrix(vacuum_projection(g), "v", 3)
    assert np.array_equal(fm.matrix, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_vacuum_projection_edgeless_is_unit():
    g = edgeless(2)
    p = vacuum_projection(g)
    assert len(p.words) == 1 and p.words[0].creations == 0
    fm = fock_matrix(p, "v0", 2)
    assert np.array_equal(fm.matrix, np.eye(1))


@pytest.mark.parametrize("builder", [single_loop, fibonacci, ten_edge,
                                     lambda: k_loops(3)])
def test_vacuum_projection_rank_one_everywhere(builder):
    g = builder()
    p = vacuum_projection(g)
    for v in g.vertices:
        fm = fock_matrix(p, v, 5)
        target = np.zeros_like(fm.matrix)
        target[fm.fock.index[()], fm.fock.index[()]] = 1.0
        assert np.array_equal(fm.matrix, target)


def test_vacuum_projection_symbolic_idempotent_selfadjoint():
    g = ten_edge()
    p = vacuum_projection(g)
    pb = element_delta_basis(p)
    assert delta_basis_residual(delta_basis_multiply(pb, pb, g), pb) == 0.0
    assert delta_basis_residual(element_delta_basis(p.adjoint()), pb) == 0.0


# ---------------------------------------------------------------------------
# grading


def symbolically_equal(a, b):
    return delta_basis_residual(element_delta_basis(a),
                                element_delta_basis(b)) == 0.0


def test_spectral_component_pure_degree():
    g = fibonacci()
    rng = np.random.default_rng(5)
    x = random_module_element(g, rng)
    e = ToeplitzElement(g, [iota_word(x)])
    assert symbolically_equal(spectral_component(e, 1), e)
    assert not spectral_component(e, 0).words


def test_spectral_component_splits_mixed_sum():
    g = fibonacci()
    rng = np.random.default_rng(6)
    x = random_module_element(g, rng)
    a = random_vertex_function(g, rng)
    mixed = ToeplitzElement(g, [iota_word(x), pi_word(a)])
    assert symbolically_equal(spectral_component(mixed, 1),
                              ToeplitzElement(g, [iota_word(x)]))
    assert symbolically_equal(spectral_component(mixed, 0),
                              ToeplitzElement(g, [pi_word(a)]))


def test_spectral_components_orthogonal():
    g = fibonacci()
    rng = np.random.default_rng(7)
    words = [word(1.0, (random_module_element(g, rng),), None, ()),
             word(1.0, (), random_vertex_function(g, rng),
                  (random_module_element(g, rng),))]
    e = ToeplitzElement(g, words)
    for n in (-1, 0, 1):
        for m in (-1, 0, 1):
            if n != m:
                comp = spectral_component(spectral_component(e, n), m)
                assert not comp.words


def test_fourier_average_oracle():
    # averaging the gauge orbit against z^{-n} projects onto degree n
    g = fibonacci()
    rng = np.random.default_rng(8)
    x = random_module_element(g, rng)
    y = random_module_element(g, rng)
    a = random_vertex_function(g, rng)
    e = ToeplitzElement(g, [word(1.0, (x,), None, ()),
                            word(1.0, (), a, (y,)),
                            word(0.5, (x, y), None, (x,))])
    f = TruncatedFock(g, "a", 4)
    for n in (-1, 0, 1):
        avg = np.zeros((f.dim, f.dim), dtype=complex)
        for k in range(64):
            z = np.exp(2j * np.pi * k / 64)
            mat = sum(f.word_matrix(w) for w in gauge_scale(e, z).words)
            avg += mat * z ** (-n)
        avg /= 64
        target = spectral_component(e, n)
        tm = (sum(f.word_matrix(w) for w in target.words)
              if target.words else np.zeros((f.dim, f.dim)))
        assert np.max(np.abs(avg - tm)) < 1e-10


# ---------------------------------------------------------------------------
# reconstruction and transport


def basis_product(elems, graph):
    """Delta-basis expansion of a product, multiplied at the basis level
    through the dict views."""
    out = None
    for e in elems:
        m = element_delta_basis(e) if isinstance(e, ToeplitzElement) else e
        out = m if out is None else delta_basis_multiply(out, m, graph)
    return out if out is not None else {}


def _identity_transport(trials):
    g = fibonacci()
    iso = GraphIsomorphism(vertices=np.arange(g.n_vertices),
                           edges=np.arange(g.n_edges))
    return triple_iso_transport(iso, g, g, trials=trials)


TRIAL_CHECKS = pytest.mark.parametrize("check", [
    lambda t: reconstruct_module_check(fibonacci(), trials=t),
    _identity_transport,
    lambda t: extremal_separation_check(KMSParameters(fibonacci(), 2.0),
                                        trials=t),
    lambda t: run_verification(grid=64, trials=t),
], ids=["reconstruct_module_check", "triple_iso_transport",
        "extremal_separation_check", "run_verification"])


@pytest.mark.parametrize("trials", [0, -1, -3])
@TRIAL_CHECKS
def test_library_refuses_nonpositive_trials(check, trials):
    # no random trial would be checked, so a PASS would be vacuous
    with pytest.raises(FormatError, match="below 1"):
        check(trials)


@TRIAL_CHECKS
def test_library_refuses_trials_above_the_limit(check):
    with pytest.raises(SizeLimitError, match="exceeds the"):
        check(MAX_TRIALS + 1)


@pytest.mark.parametrize("builder", [single_loop, fibonacci])
def test_reconstruction_identities(builder):
    rep = reconstruct_module_check(builder(), trials=20, tol=1e-12, seed=0)
    assert rep.passed, rep.detail


def test_reconstruction_compress_delta_case():
    # with xi = eta = delta_e the compressed identity reduces to the axiom
    g = fibonacci()
    d = delta_edge(g, "ab")
    p = vacuum_projection(g)
    lhs = basis_product(
        [p, ToeplitzElement(g, [word(1.0, (), None, (d,))])
         * ToeplitzElement(g, [iota_word(d)]), p], g)
    rhs = basis_product(
        [ToeplitzElement(g, [pi_word(delta_vertex(g, "a"))]), p], g)
    assert delta_basis_residual(lhs, rhs) == 0.0


def test_transport_identity_isomorphism():
    g = fibonacci()
    iso = GraphIsomorphism(vertices=np.arange(g.n_vertices),
                           edges=np.arange(g.n_edges))
    rep = triple_iso_transport(iso, g, g, trials=3, seed=0)
    assert rep.passed and rep.residual == 0.0


def test_transport_random_relabeling():
    g = ten_edge()
    rng = np.random.default_rng(9)
    F, iso = relabeled_copy(g, rng)
    rep = triple_iso_transport(iso, g, F, trials=5, tol=1e-12, seed=1)
    assert rep.passed


def test_transport_degree_reads_the_carried_factors(monkeypatch):
    # a relabeling that loses the last annihilation of the two-annihilation
    # degree word, and keeps its (m, n) header, fails the degree check;
    # the vacuum projection, with one annihilation, is carried intact
    real = toeplitz._theta

    def lossy(stacks, edge_of, vertex_of):
        return [(m, n, c, ls, mid, rs[:-1] if len(rs) > 1 else rs)
                for m, n, c, ls, mid, rs in real(stacks, edge_of, vertex_of)]
    monkeypatch.setattr(toeplitz, "_theta", lossy)
    rep = _identity_transport(trials=3)
    assert not rep.passed and rep.residual == 1.0


def test_transport_rejects_non_isomorphism():
    g = fibonacci()
    bad = GraphIsomorphism(vertices=np.array([1, 0]),
                           edges=np.arange(g.n_edges))
    with pytest.raises(FormatError):
        triple_iso_transport(bad, g, g)


def test_word_algebra_requires_finite_graph():
    from graphcorr.fixtures import circle_double_cover
    g = circle_double_cover()
    with pytest.raises(FormatError):
        ToeplitzElement(g, [])
    w = iota_word(ModuleElement(g, [np.ones(16)], 8))
    with pytest.raises(FormatError):
        word_multiply(w, w)


# ---------------------------------------------------------------------------
# cross-route consistency


def _random_element(g, rng, n_words=2):
    words = []
    for _ in range(n_words):
        m, n = rng.integers(0, 3, size=2)
        words.append(word(
            complex(*rng.standard_normal(2)),
            tuple(random_module_element(g, rng) for _ in range(m)),
            random_vertex_function(g, rng) if m == 0 else None,
            tuple(random_module_element(g, rng) for _ in range(n))))
    return ToeplitzElement(g, words)


def test_basis_multiply_agrees_with_elementary_route():
    # two independent product implementations: reduce elementary words,
    # then expand, versus expand first and multiply spanning words
    g = fibonacci()
    rng = np.random.default_rng(10)
    for _ in range(20):
        e1 = _random_element(g, rng)
        e2 = _random_element(g, rng)
        direct = element_delta_basis(e1 * e2)
        via_basis = delta_basis_multiply(element_delta_basis(e1),
                                         element_delta_basis(e2), g)
        scale = max((abs(c) for c in direct.values()), default=1.0)
        assert delta_basis_residual(direct, via_basis) <= 1e-12 * scale


def test_elementary_product_associativity():
    g = ten_edge()
    rng = np.random.default_rng(12)
    for _ in range(10):
        e1, e2, e3 = (_random_element(g, rng) for _ in range(3))
        left = element_delta_basis((e1 * e2) * e3)
        right = element_delta_basis(e1 * (e2 * e3))
        scale = max((abs(c) for c in left.values()), default=1.0)
        assert delta_basis_residual(left, right) <= 1e-12 * scale


def test_adjoint_matches_matrix_adjoint():
    g = fibonacci()
    rng = np.random.default_rng(11)
    f = TruncatedFock(g, "a", 6)
    interior = f.lengths + 3 <= 6     # safe window for both directions
    for _ in range(10):
        e = _random_element(g, rng)
        m = sum(f.word_matrix(w) for w in e.words)
        ma = sum(f.word_matrix(w) for w in e.adjoint().words)
        block = np.ix_(interior, interior)
        assert np.max(np.abs(m.conj().T[block] - ma[block])) <= 1e-12


# ---------------------------------------------------------------------------
# table-driven matrices and indexed products against their slow oracles


def _mixed_element(g, rng, n_words):
    """Words of every shape up to three creations and annihilations,
    including non-normal words that keep a middle next to creations."""
    words = []
    for _ in range(n_words):
        m, n = (int(k) for k in rng.integers(0, 4, size=2))
        middle = (random_vertex_function(g, rng)
                  if rng.random() < 0.5 else None)
        words.append(Word(
            complex(*rng.standard_normal(2)),
            tuple(random_module_element(g, rng) for _ in range(m)), middle,
            tuple(random_module_element(g, rng) for _ in range(n))))
    return ToeplitzElement(g, words)


@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
@pytest.mark.parametrize("depth", [3, 4, 5])
def test_fock_matrix_matches_dense_word_products(name, depth):
    g = FINITE_FIXTURES[name]()
    rng = np.random.default_rng(depth)
    for v in g.vertices:
        f = TruncatedFock(g, v, depth)
        for _ in range(4):
            e = _mixed_element(g, rng, n_words=8)
            dense = sum(f.word_matrix(w) for w in e.words)
            got = fock_matrix(e, v, depth).matrix
            scale = max(np.max(np.abs(dense)), 1.0)
            assert np.max(np.abs(got - dense)) <= 1e-12 * scale


@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
def test_window_columns_match_full_matrix(name):
    # the tests' window sums, the word route's numeric oracle, agree with
    # fock_matrix on the valid window columns
    g = FINITE_FIXTURES[name]()
    rng = np.random.default_rng(13)
    for v in g.vertices:
        f = TruncatedFock(g, v, 4)
        e = _mixed_element(g, rng, n_words=6)
        fm = fock_matrix(e, v, 4)
        m_max = max(w.creations for w in e.words)
        window = _dense(f, e.stacks, _window_size(f, m_max))
        assert np.array_equal(window[0], fm.matrix[:, fm.valid_cols])


def _window_size(fock, creations) -> int:
    """Number of columns ``|mu| + creations <= depth`` (a prefix)."""
    return int(np.count_nonzero(fock.lengths + creations <= fock.depth))


def _dense(fock, batches, ncols):
    """The matrices ``(trials, dim, ncols)`` of the trial-stacked shape
    stacks ``batches`` on the columns ``0 .. ncols-1`` of ``fock``: each
    shape's words summed in order on the entries of ``fock``'s plan for
    it, which are distinct, and the shapes added in order; every factor
    passed through ``_times``, as :func:`fock_matrix` does, so that numpy
    never multiplies a large temporary in place with the operands swapped,
    which rounds otherwise."""
    trials = max((bt[2].shape[0] for bt in batches), default=1)
    out = np.zeros((trials, fock.dim, fock.dim), dtype=np.complex128)
    for m, n, coeffs, lefts, middles, rights in batches:
        stripped, ranges, source, created, rows, cols = fock._plan(m, n)
        c = np.repeat(coeffs[..., None], rows.size, axis=-1)
        for y, edges in zip(rights, stripped):
            c = toeplitz._times(c, y[..., edges[source]].conj())
        if middles is not None:
            c = toeplitz._times(c, middles[..., ranges[source]])
        for x, edges in zip(lefts, created):
            c = toeplitz._times(c, x[..., edges])
        out[:, rows, cols] += c.sum(axis=1)
    return out[:, :, :ncols]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_fock_matrix_matches_word_matrices_on_generated_graphs(g, seed):
    # the deepest truncation up to 3 whose basis stays small enough for
    # dense factor matrices, on the words that it holds
    rng = np.random.default_rng(seed)
    e = _mixed_element(g, rng, n_words=6)
    for v in g.vertices:
        f = next(f for f in (TruncatedFock(g, v, d) for d in (3, 2, 1, 0))
                 if f.dim <= 120)
        held = ToeplitzElement(g, [w for w in e.words
                                   if w.creations <= f.depth])
        dense = sum((f.word_matrix(w) for w in held.words),
                    np.zeros((f.dim, f.dim)))
        got = fock_matrix(held, v, f.depth).matrix
        scale = max(np.max(np.abs(dense)), 1.0)
        assert np.max(np.abs(got - dense)) <= 1e-12 * scale


def _scan_multiply(m1, m2, graph):
    """Every pair of terms, in order: the product before indexing by mu2."""
    src, rng = graph.src_idx, graph.rng_idx
    out = {}
    for (mu, v, nu), c1 in m1.items():
        n = len(nu)
        for (mu2, v2, nu2), c2 in m2.items():
            p = len(mu2)
            if n <= p:
                if nu != mu2[:n]:
                    continue
                rem = mu2[n:]
                if rem:
                    if v != rng[rem[0]]:
                        continue
                    key = (mu + rem, v2, nu2)
                else:
                    if v != v2:
                        continue
                    key = (mu, v, nu2)
            else:
                if nu[:p] != mu2:
                    continue
                rem = nu[p:]
                if p == 0 and v2 != rng[rem[0]]:
                    continue
                if nu2 and src[nu2[-1]] != rng[rem[0]]:
                    continue
                key = (mu, v, nu2 + rem)
            c = c1 * c2
            if c != 0:
                out[key] = out.get(key, 0.0) + c
    return {k: v for k, v in out.items() if v != 0}


def _loop_expansion(graph, words):
    """The delta-basis expansion of a list of words over ``graph`` as a
    loop of scalar complex products, word by word, vertex by vertex and
    path by path, entering nonzero terms."""
    paths: dict = {}

    def paths_from(vi, k):
        if (vi, k) not in paths:
            paths[vi, k] = path_index_tuples(graph, vi, k)
        return paths[vi, k]

    out: dict = {}
    for w in words:
        mid = w.middle.values if w.middle is not None else None
        for vi in range(graph.n_vertices):
            rts = paths_from(vi, len(w.right))
            for mu in paths_from(vi, len(w.left)):
                base = w.coeff
                ok = True
                for i, fi in enumerate(mu):
                    base = base * w.left[i].values[fi]
                    if base == 0:
                        ok = False
                        break
                if not ok:
                    continue
                if mid is not None:
                    base = base * mid[vi]
                    if base == 0:
                        continue
                for nu in rts:
                    c = base
                    ok = True
                    for j, fj in enumerate(nu):
                        c = c * np.conj(w.right[j].values[fj])
                        if c == 0:
                            ok = False
                            break
                    if not ok:
                        continue
                    key = (mu, vi, nu)
                    out[key] = out.get(key, 0.0) + c
    return {k: v for k, v in out.items() if v != 0}


def _bits(c):
    c = complex(c)
    return c.real.hex(), c.imag.hex()


def _assert_bits_on(got: dict, want: dict):
    """``got`` is bitwise ``want`` on ``want``'s keys and exactly zero on
    every other key."""
    assert [_bits(got[k]) for k in want] == [_bits(c) for c in want.values()]
    assert all(got[k] == 0 for k in got.keys() - want.keys())


@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
def test_expansion_and_product_match_loop_oracle(name):
    g = FINITE_FIXTURES[name]()
    rng = np.random.default_rng(16)
    for _ in range(6):
        elems = [_random_element(g, rng, n_words=3),
                 _sparse_element(g, rng, n_words=6)]
        want = [_loop_expansion(g, e.words) for e in elems]
        for e, w in zip(elems, want):
            got = element_delta_basis(e)
            _assert_bits_on(got, w)
            assert list(got) == list(w)
        for m1, m2 in [(want[0], want[1]), (want[1], want[0]),
                       (want[1], want[1])]:
            got = delta_basis_multiply(m1, m2, g)
            _assert_bits_on(got, _scan_multiply(m1, m2, g))


@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
def test_indexed_basis_multiply_matches_pair_scan(name):
    g = FINITE_FIXTURES[name]()
    rng = np.random.default_rng(14)
    p = element_delta_basis(vacuum_projection(g))
    for _ in range(10):
        a = element_delta_basis(_random_element(g, rng, n_words=3))
        b = element_delta_basis(_random_element(g, rng, n_words=3))
        for m1, m2 in [(a, b), (b, a), (a, p), (p, a), (a, a)]:
            got = delta_basis_multiply(m1, m2, g)
            want = _scan_multiply(m1, m2, g)
            assert list(got) == list(want)
            assert [_bits(c) for c in got.values()] \
                == [_bits(c) for c in want.values()]


# ---------------------------------------------------------------------------
# batched word products against the Word route


def _oracle_multiply(w1, w2):
    """The Word route's product rule, one pair of words at a time through
    the module layer's ``inner_product`` and ``left_action``: the oracle
    the library's one rule, ``toeplitz._reduce``, is checked against."""
    if w1.graph() is not None and w2.graph() is not None \
            and w1.graph() is not w2.graph():
        raise MismatchError("words live over different graphs")
    c = w1.coeff * w2.coeff
    if c == 0:
        return None
    n, p = len(w1.right), len(w2.left)
    k = min(n, p)
    cc = None
    for j in range(k):
        t = w2.left[j] if cc is None else left_action(cc, w2.left[j])
        cc = inner_product(w1.right[j], t)
    if n <= p:
        mid = _pointwise(w1.middle, cc)
        rem = list(w2.left[n:])
        if rem:
            if mid is not None:
                rem[0] = left_action(mid, rem[0])
            out = word(c, w1.left + tuple(rem), w2.middle, w2.right)
        else:
            out = word(c, w1.left, _pointwise(mid, w2.middle), w2.right)
    else:
        rem = list(w1.right[p:])
        b = _pointwise(cc, w2.middle)
        if b is not None:
            rem[0] = left_action(b.conj(), rem[0])
        out = word(c, w1.left, w1.middle, w2.right + tuple(rem))
    return None if word_is_zero(out) else out


def _pointwise(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a.pointwise(b)


def _word_product(factors) -> list:
    """The Word route: word lists multiplied pair by pair by
    :func:`_oracle_multiply`, each product merged by :func:`_merged`."""
    out = None
    for f in factors:
        out = f if out is None else _merged(
            [p for a in out for b in f
             if (p := _oracle_multiply(a, b)) is not None])
    return out if out is not None else []


def _word_route_reconstruct(graph, trials, tol, seed):
    """``reconstruct_module_check`` by the word route: products of word
    lists by :func:`_oracle_multiply`, expansions by :func:`_loop_expansion`
    and their products by :func:`_scan_multiply`, with no element
    operation of the library merging them."""
    checks = [Check(name, res == 0.0 and num <= tol, max(res, num))
              for name, res, num in _word_route_residuals(graph, trials, seed)]
    first = next((c for c in checks if not c.passed), None)
    return summarize("reconstruction", checks,
                     first.name if first else f"{len(checks)} identities")


def _word_route_identities(graph, trials, seed):
    """Per trial, the identities of ``reconstruct_module_check`` on word
    lists, drawn as it draws them: the name, the factors of both sides, the
    slice of left factors whose product the product rule checks, or
    ``None``, and whether the symbolic side takes that product in their
    place."""
    rng = np.random.default_rng(seed)
    p = list(vacuum_projection(graph).words)
    for t in range(trials):
        a = random_vertex_function(graph, rng)
        xi = random_module_element(graph, rng)
        eta = random_module_element(graph, rng)
        pa = [pi_word(a)]
        yield f"commute[{t}]", [p, pa], [pa, p], slice(0, 2), False
        yield (f"compress[{t}]",
               [p, [word(1.0, (), None, (xi,))], [iota_word(eta)], p],
               [[pi_word(inner_product(xi, eta))], p], slice(1, 3), True)
        for n in (1, 2):
            xs = tuple(random_module_element(graph, rng) for _ in range(n + 1))
            ys = tuple(random_module_element(graph, rng) for _ in range(n))
            yield (f"annihilate[n={n},{t}]", [[word(1.0, xs, None, ys)], p],
                   [[]], None, False)
        yield (f"bimodule[{t}]", [pa, [iota_word(xi)], p],
               [[iota_word(left_action(a, xi))], p], slice(0, 2), True)


def _residual(m1: dict, m2: dict) -> float:
    """Largest ``|coefficient|`` of the difference of two expansions."""
    return max((abs(m1.get(k, 0) - m2.get(k, 0)) for k in m1.keys() | m2),
               default=0.0)


def _word_route_residuals(graph, trials, seed):
    """Per trial and identity of :func:`_word_route_identities`: its name,
    the exact residual of the two sides' expansions, and the product-rule
    residual of the expanded word product against the product of the
    expansions."""
    def expand(words):
        return _loop_expansion(graph, words)

    def times(expansions):
        return functools.reduce(lambda m1, m2: _scan_multiply(m1, m2, graph),
                                expansions)
    out = []
    for name, lhs, rhs, rule, substitute in _word_route_identities(
            graph, trials, seed):
        sym = [expand(f) for f in lhs]
        num = 0.0
        if rule is not None:
            words, prod = expand(_word_product(lhs[rule])), times(sym[rule])
            num = _residual(words, prod)
            sym[rule] = [words if substitute else prod]
        out.append((name, _residual(times(sym),
                                    times([expand(f) for f in rhs])), num))
    return out


def _word_route_arrays(graph, trials, seed) -> list:
    """The exact and the product-rule residuals of
    :func:`_word_route_residuals` as arrays ``(trials, identities)``, as
    the library's trial blocks give them."""
    rows = _word_route_residuals(graph, trials, seed)
    return [np.array([r[k] for r in rows]).reshape(trials, -1)
            for k in (1, 2)]


def _assert_arrays_bitwise(got, want):
    assert [(a.shape, a.tobytes()) for a in got] \
        == [(a.shape, a.tobytes()) for a in want]


@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
def test_word_route_windows_hold_every_identity(name):
    # the old numeric side, kept as an oracle: the merged lhs - rhs of the
    # word route's whole-side products, at every vertex, on the window
    # |mu| + m_max <= 4 (the annihilate[n=2] words create three edges)
    g = FINITE_FIXTURES[name]()
    focks = [TruncatedFock(g, v, 4) for v in g.vertices]
    worst = 0.0
    for _, lhs, rhs, *_ in _word_route_identities(g, trials=20, seed=0):
        diff = _merged(_word_product(lhs) + _rescaled_words(
            _word_product(rhs), lambda w: -1.0))
        m_max = max((w.creations for w in diff), default=0)
        assert m_max <= 3
        # stacked by shape as they stand: _word_stacks merges nothing
        stacks = toeplitz._word_stacks(diff)
        for fock in focks:
            window = _dense(fock, stacks, _window_size(fock, m_max))
            worst = max(worst, float(np.max(np.abs(window), initial=0.0)))
    assert 0.0 < worst <= 1e-12


def _zero_draw(calls, edges=slice(None), draw_element=random_module_element):
    """``random_module_element`` with the draws numbered ``calls`` (from 0)
    zeroed on ``edges`` after they are drawn, so that every other draw
    stays the same."""
    count = iter(range(1 << 30))

    def draw(graph, rng):
        x = draw_element(graph, rng)
        if next(count) not in calls:
            return x
        values = x.values.copy()
        values[edges] *= 0
        return ModuleElement(graph, values)
    return draw


class _ZeroedDraw:
    """The seed's generator with one of the ten module elements a trial of
    the reconstruction identities draws (``xi``, ``eta``, then the factors
    of the annihilate words) set to zero on ``edges`` (all by default) in
    rows ``rows`` of the first block; by default draw 15, the first factor
    of trial 1's annihilate[n=2] word."""

    def __init__(self, graph, seed, element=5, rows=(1,), edges=None):
        self.rng = np.random.default_rng(seed)
        start = 2 * graph.n_vertices + 2 * element * graph.n_edges
        edges = np.arange(graph.n_edges)[slice(None) if edges is None
                                         else edges]
        self.at = np.ix_(list(rows), np.concatenate(
            [start + edges, start + graph.n_edges + edges]))
        self.blocks = 0

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        if not self.blocks:
            z[self.at] = 0.0
        self.blocks += 1
        return z


def test_each_trial_reads_its_own_window(monkeypatch):
    # trial 1's annihilate[n=2] word is zero and trial 0's is not; stacked
    # in one block, each trial still gives the word route's residuals
    g = fibonacci()
    got = toeplitz._reconstruction_block(g, _ZeroedDraw(g, 0), 2,
                                         toeplitz._Shared(g))
    monkeypatch.setitem(globals(), "random_module_element", _zero_draw({15}))
    _assert_arrays_bitwise(got, _word_route_arrays(g, trials=2, seed=0))


# the whole-call traced peak of 100 trials at TRIAL_BLOCK = 25 (1.23 MB and
# 2.14 MB) plus 10%: a larger block, or windows held as dense matrices,
# fails here before it shows in the benchmark's peak RSS
@pytest.mark.parametrize("name, peak_mb", [("three-loops", 1.35),
                                           ("ten-edge", 2.35)])
def test_reconstruction_memory_stays_pinned(name, peak_mb):
    g = FINITE_FIXTURES[name]()
    reconstruct_module_check(g, trials=1)   # numpy's first-call allocations
    tracemalloc.start()
    try:
        reconstruct_module_check(g, trials=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_mb * 1e6


def test_reconstruction_memory_at_scale():
    # a seeded random graph of 160 vertices and 320 edges at one trial: the
    # delta basis alone peaks at about 35 MB traced, where Fock windows on
    # the whole sides' word products took 1.1 GB
    rng = np.random.default_rng(320)
    vs = [f"v{i}" for i in range(160)]
    ends = rng.integers(160, size=(2, 320))
    g = FiniteGraph(vs, [f"e{j}" for j in range(320)],
                    [vs[i] for i in ends[0]], [vs[i] for i in ends[1]])
    tracemalloc.start()
    try:
        assert reconstruct_module_check(g, trials=1).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.parametrize("element, first_vertex_only", [(2, False),
                                                       (0, True)])
@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
def test_plans_are_not_taken_from_one_block(name, element,
                                            first_vertex_only, monkeypatch):
    # the annihilate[n=1] word's first factor (element 2) is zero in both
    # trials of the first block, so there its products and delta-basis
    # terms are exact zeros; the later blocks, whose residuals are rounding
    # and not 0, replay the same plans of the support run.  xi (element 0)
    # zero on the edges out of the first vertex zeroes some of the compress
    # and bimodule chains' candidate words partway; every block still
    # forms them all
    g = FINITE_FIXTURES[name]()
    edges = np.flatnonzero(g.src_idx == 0) if first_vertex_only \
        else slice(None)
    draw = _ZeroedDraw(g, 0, element=element, rows=range(2), edges=edges)
    seen, block = [], toeplitz._reconstruction_block
    monkeypatch.setattr(toeplitz, "TRIAL_BLOCK", 2)
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", lambda seed: draw)
        m.setattr(toeplitz, "_reconstruction_block",
                  lambda *args: seen.append(block(*args)) or seen[-1])
        reconstruct_module_check(g, trials=6, tol=1e-12, seed=0)
    monkeypatch.setitem(globals(), "random_module_element",
                        _zero_draw({element, 10 + element}, edges))
    assert len(seen) == 3
    _assert_arrays_bitwise(map(np.concatenate, zip(*seen)),
                           _word_route_arrays(g, trials=6, seed=0))


def test_identities_are_planned_once_a_call(monkeypatch):
    # the annihilate[n=1] word is zero in the whole first block; the later
    # blocks replay the plans of the support run all the same
    g = fibonacci()
    monkeypatch.setattr(toeplitz, "TRIAL_BLOCK", 2)
    counts = []
    for trials in (2, 100):
        calls = []
        with monkeypatch.context() as m:
            for name in ("_expand_plan", "_multiply_plan"):
                def counted(*args, build=getattr(toeplitz, name), name=name):
                    calls.append(name)
                    return build(*args)
                m.setattr(toeplitz, name, counted)
            draw = _ZeroedDraw(g, 0, element=2, rows=range(2))
            m.setattr(np.random, "default_rng", lambda seed: draw)
            reconstruct_module_check(g, trials=trials)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


def _sparse_element(g, rng, n_words):
    """Normal-form words of every shape up to two creations and two
    annihilations, half of their factors edge deltas, so that many inner
    products vanish."""
    def factor():
        if rng.random() < 0.5:
            return delta_edge(g, g.edges[int(rng.integers(g.n_edges))])
        return random_module_element(g, rng)

    words = []
    for _ in range(n_words):
        m, n = (int(k) for k in rng.integers(0, 3, size=2))
        middle = random_vertex_function(g, rng) if rng.random() < 0.5 \
            else None
        words.append(word(complex(*rng.standard_normal(2)),
                          tuple(factor() for _ in range(m)), middle,
                          tuple(factor() for _ in range(n))))
    return ToeplitzElement(g, words)


def _trial_copies(elem, rng, trials):
    """``trials`` copies of ``elem`` with every coefficient and factor
    scaled by a random complex number: the same word shapes and zeros, and
    other values."""
    def scaled(x):
        return type(x)(x.graph, x.values * complex(*rng.standard_normal(2)))

    return [ToeplitzElement(elem.graph, [
        Word(w.coeff * complex(*rng.standard_normal(2)),
             tuple(map(scaled, w.left)),
             None if w.middle is None else scaled(w.middle),
             tuple(map(scaled, w.right))) for w in elem.words])
        for _ in range(trials)]


def _join_trials(elems) -> list:
    """The word stacks of elements of one word-shape sequence joined on
    the trial axis."""
    out = []
    for stacks in zip(*elems):
        (m, n, _, _, mid, _), cat = stacks[0], np.concatenate
        cs, lefts, mids, rights = zip(*(s[2:] for s in stacks))
        out.append((m, n, cat(cs), [cat(f) for f in zip(*lefts)],
                    None if mid is None else cat(mids),
                    [cat(f) for f in zip(*rights)]))
    return out


@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
def test_trial_rows_match_one_trial_runs(name):
    g = FINITE_FIXTURES[name]()
    rng = np.random.default_rng(17)
    trials = 5
    e1s, e2s = (_trial_copies(_sparse_element(g, rng, n_words=5), rng,
                              trials) for _ in range(2))
    s1, s2 = (_join_trials([e.stacks for e in es])
              for es in (e1s, e2s))
    x1, x2 = _expand(s1, g), _expand(s2, g)
    p = vacuum_projection(g).stacks
    b1, b2 = _concat_batches(s1), _concat_batches(s2)
    stacked = [b1, _batch_product(b1, b2, g), _batch_product(p, b1, g)]
    for t in range(trials):
        y1, y2 = (_expand(e[t].stacks, g) for e in (e1s, e2s))
        for (keys, c), (keys_t, c_t) in [
                (x1, y1), (_basis_multiply(x1, x2, g),
                           _basis_multiply(y1, y2, g))]:
            _assert_bits_on(dict(zip(keys, c[t].tolist())),
                            dict(zip(keys_t, c_t[0].tolist())))
        c1, c2 = e1s[t].stacks, e2s[t].stacks
        single = [c1, _batch_product(c1, c2, g), _batch_product(p, c1, g)]
        for v in g.vertices:
            f = TruncatedFock(g, v, 4)
            for a, b in zip(stacked, single):
                assert _dense(f, a, f.dim)[t].tobytes() \
                    == _dense(f, b, f.dim)[0].tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_expansion_and_product_match_loop_oracle_on_generated_graphs(g,
                                                                     seed):
    rng = np.random.default_rng(seed)
    elems = [ToeplitzElement(g, [_drawn_word(g, rng) for _ in range(3)])
             for _ in range(2)]
    want = [_loop_expansion(g, e.words) for e in elems]
    for e, w in zip(elems, want):
        got = element_delta_basis(e)
        _assert_bits_on(got, w)
        assert list(got) == list(w)
    for m1, m2 in [(want[0], want[1]), (want[1], want[0]),
                   (want[1], want[1])]:
        got, scan = delta_basis_multiply(m1, m2, g), _scan_multiply(m1, m2, g)
        assert list(got) == list(scan)
        assert [_bits(c) for c in got.values()] \
            == [_bits(c) for c in scan.values()]


def _on_arrays(f, batches):
    """``batches`` with ``f`` applied to every coefficient and factor
    array."""
    return [(m, n, f(c), [f(x) for x in ls], None if mid is None else f(mid),
             [f(y) for y in rs]) for m, n, c, ls, mid, rs in batches]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_plan_recorded_on_supports_replays_on_zeroed_values(g, seed):
    # a plan recorded with every entry 1 holds every term that values can
    # make nonzero; replayed on values with a quarter of their entries
    # zeroed, each trial is bitwise the one-shot route's on that route's
    # keys and exactly 0 on the others
    rng = np.random.default_rng(seed)
    trials = 4
    elems = [ToeplitzElement(g, [word(1.0)] + [_drawn_word(g, rng)
                                               for _ in range(3)])
             for _ in range(2)]
    stacks = [_on_arrays(lambda a: a * (rng.random(a.shape) < 0.75),
                         _join_trials([e.stacks for e in
                                       _trial_copies(elem, rng, trials)]))
              for elem in elems]

    def run(plan, s1, s2):
        x1, x2 = _expand(s1, g, plan), _expand(s2, g, plan)
        return x1, x2, _basis_multiply(x1, x2, g, plan)
    plan = toeplitz._Plan()
    run(plan, *(_on_arrays(lambda a: np.ones((1,) + a.shape[1:]), s)
                for s in stacks))
    got = run(plan.replay(), *stacks)
    for t in range(trials):
        want = run(None, *(_on_arrays(lambda a: a[t:t + 1], s)
                           for s in stacks))
        for (keys, c), (keys_t, c_t) in zip(got, want):
            _assert_bits_on(dict(zip(keys, c[t].tolist())),
                            dict(zip(keys_t, c_t[0].tolist())))


def _word_row(w):
    """A word's shape, coefficient and factors as bytes."""
    return (w.creations, w.annihilations, np.complex128(w.coeff).tobytes(),
            tuple(x.values.tobytes() for x in w.left),
            None if w.middle is None else w.middle.values.tobytes(),
            tuple(y.values.tobytes() for y in w.right))


def _batch_rows(batches, t=0):
    """:func:`_word_row` of every word of trial ``t`` of ``batches``, or
    ``None`` for a zero word: a zero coefficient or an all-zero factor."""
    rows = []
    for m, n, c, ls, mid, rs in batches:
        factors = ls + rs + ([] if mid is None else [mid])
        for k in range(c.shape[1]):
            zero = c[t, k] == 0 or not all(f[t, k].any() for f in factors)
            rows.append(None if zero else (
                m, n, c[t, k].tobytes(), tuple(x[t, k].tobytes() for x in ls),
                None if mid is None else mid[t, k].tobytes(),
                tuple(y[t, k].tobytes() for y in rs)))
    return rows


def _product_shape(w1, w2) -> tuple:
    """The shape ``(creations, annihilations, has middle)`` of the normal
    form of ``w1 w2``, zero or not: the meeting annihilations and creations
    cancel, and a middle stands only beside no creation."""
    m1, n1 = w1.creations, w1.annihilations
    m2, n2 = w2.creations, w2.annihilations
    if n1 > m2:
        return m1, n2 + n1 - m2, w1.middle is not None
    m = m1 + m2 - n1
    return m, n2, m == 0 and (n1 > 0 or w1.middle is not None
                              or w2.middle is not None)


def _shape(w) -> tuple:
    """A word's shape ``(creations, annihilations, has middle)``."""
    return w.creations, w.annihilations, w.middle is not None


def _shape_groups(shaped) -> list:
    """The words of ``(shape, word or None)`` pairs grouped by shape,
    shapes as first seen, each group in order."""
    groups: dict = {}
    for k, w in shaped:
        groups.setdefault(k, []).append(w)
    return list(groups.values())


def _oracle_pairs(w1, w2) -> list:
    """``(shape, product or None)`` of every pair of the words ``w1`` and
    ``w2`` by :func:`_oracle_multiply`: by pair of shape groups, pair ``(i,
    j)`` at ``i * k2 + j`` within."""
    g1, g2 = (_shape_groups((_shape(w), w) for w in ws) for ws in (w1, w2))
    return [(_product_shape(a, b), _oracle_multiply(a, b))
            for s1 in g1 for s2 in g2 for a in s1 for b in s2]


def _oracle_rows(e1, e2, got):
    """:func:`_word_row` of the oracle product of every word pair of ``e1``
    and ``e2``, ``None`` where it is zero, in the order of their stacked
    product ``got``: by pair of shape stacks, pair ``(i, j)`` at ``i * k2 +
    j`` within, then grouped by the product shapes in ``got``'s order."""
    prods = _oracle_pairs(e1.words, e2.words)
    return [None if w is None else _word_row(w)
            for m, n, _, _, mid, _ in got for shape, w in prods
            if shape == (m, n, mid is not None)]


@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
def test_batch_product_matches_word_products(name):
    g = FINITE_FIXTURES[name]()
    rng = np.random.default_rng(15)
    shapes, zeros = set(), 0
    for _ in range(8):
        e1 = _sparse_element(g, rng, n_words=5)
        e2 = _sparse_element(g, rng, n_words=5)
        got = _batch_product(e1.stacks, e2.stacks, g)
        shapes |= {(m, n, mid is not None) for m, n, _, _, mid, _ in got}
        # every word pair has its row: a nonzero row is bitwise the
        # oracle's word product, and the zero rows are exactly the
        # products the oracle finds zero
        rows = _batch_rows(got)
        assert rows == _oracle_rows(e1, e2, got)
        zeros += rows.count(None)
    # middles, pure annihilations and pure creations all occur
    assert {(0, 0, True), (0, 1, True), (1, 0, False)} <= shapes
    assert zeros or g.n_edges == 1    # one edge: no orthogonal deltas


def _drawn_word(g, rng):
    """A normal-form word over ``g`` of up to two creations and two
    annihilations; about one in ten is a unit word with no graph, one in
    ten has a zero coefficient, and factors are often edge deltas or
    zero, so that many products vanish."""
    coeff = 0j if rng.random() < 0.1 else complex(*rng.standard_normal(2))
    if rng.random() < 0.1:
        return word(coeff)

    def factor():
        u = rng.random()
        if u < 0.1:
            return ModuleElement(g, np.zeros(g.n_edges))
        if u < 0.5:
            return delta_edge(g, g.edges[int(rng.integers(g.n_edges))])
        return random_module_element(g, rng)

    m, n = (int(k) for k in rng.integers(0, 3, size=2)) if g.n_edges \
        else (0, 0)
    middle = random_vertex_function(g, rng) if rng.random() < 0.5 else None
    return word(coeff, [factor() for _ in range(m)], middle,
                [factor() for _ in range(n)])


GENERATED = settings(deadline=None, derandomize=True, database=None)


@GENERATED
@given(g=finite_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_word_multiply_matches_oracle_on_generated_graphs(g, seed):
    rng = np.random.default_rng(seed)
    words = [_drawn_word(g, rng) for _ in range(6)]
    for w1 in words:
        for w2 in words:
            got, want = word_multiply(w1, w2), _oracle_multiply(w1, w2)
            assert (got is None) == (want is None)
            assert got is None or _word_row(got) == _word_row(want)


@pytest.mark.parametrize("trials", [(1, 1), (3, 3), (1, 3), (3, 1)])
def test_all_pairs_views_match_repeat_and_tile(trials):
    # word i * k2 + j of the pair product of a creation stack and an
    # annihilation stack has word i's coefficient and creation and word
    # j's coefficient and annihilation, on both stacks' trials: the
    # broadcast views of the two stacks read out as np.repeat and np.tile
    # lay them out
    g = fibonacci()
    rng = np.random.default_rng(19)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for k1, k2 in ((1, 1), (1, 3), (3, 1), (2, 4)):
        (t1, t2), ne = trials, g.n_edges
        c1, x, c2, y = draw(t1, k1), draw(t1, k1, ne), draw(t2, k2), \
            draw(t2, k2, ne)

        def rows(a, first):
            a = np.repeat(a, k2, axis=1) if first else \
                np.tile(a, (1, k1) + (1,) * (a.ndim - 2))
            return np.broadcast_to(a, (max(trials),) + a.shape[1:])
        bt1, bt2 = (1, 0, c1, [x], None, []), (0, 1, c2, [], None, [y])
        got = toeplitz._pair_product(bt1, bt2, g)
        assert got[:2] == (1, 1) and got[4] is None
        _assert_arrays_bitwise(
            [got[2], *got[3], *got[5]],
            [toeplitz._cmul(rows(c1, True), rows(c2, False)), rows(x, True),
             rows(y, False)])


def test_one_trial_pair_shares_a_product_shape_with_a_many_trial_pair():
    # (1, 0)(1, 2) of one trial and (2, 1)(1, 2) of three both give (2, 2)
    # words: the one-trial stack serves each trial of the joined stack,
    # whose trial t is the product of trial t of the operands
    g = fibonacci()
    e1, e2 = mixed_trial_entry(g)
    got = _batch_product(e1, e2, g)
    assert [(bt[:2], len(bt[2])) for bt in got] == [((2, 2), 3), ((1, 1), 1)]
    for t in range(3):
        assert _batch_rows([trial_of(bt, t) for bt in got]) == _batch_rows(
            _batch_product([trial_of(bt, t) for bt in e1], e2, g))


@GENERATED
@given(g=finite_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_product_matches_oracle_on_generated_graphs(g, seed):
    rng = np.random.default_rng(seed)
    e1, e2 = (ToeplitzElement(g, [_drawn_word(g, rng) for _ in range(4)])
              for _ in range(2))
    got = _batch_product(e1.stacks, e2.stacks, g)
    assert _batch_rows(got) == _oracle_rows(e1, e2, got)


def test_square_meets_its_own_stacks_on_every_pair():
    # e * e hands the same stack to both sides of each pair product: word
    # i of the left side still meets every word j of the right side
    g = fibonacci()
    rng = np.random.default_rng(23)
    e = ToeplitzElement(g, [iota_word(random_module_element(g, rng),
                                      complex(*rng.standard_normal(2)))
                            for _ in range(3)])
    assert len(e.stacks) == 1
    _assert_words_and_stacks(e * e, _element_product(e.words, e.words))
    got = _batch_product(e.stacks, e.stacks, g)
    assert _batch_rows(got) == _oracle_rows(e, e, got)


@GENERATED
@given(g=finite_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_words_over_two_graphs_do_not_multiply(g, seed):
    # an equal copy of g is still another graph; unit words have none
    h = FiniteGraph(g.vertices, g.edges, g.src, g.rng)
    rng = np.random.default_rng(seed)
    for w1, w2 in zip([_drawn_word(g, rng) for _ in range(4)],
                      [_drawn_word(h, rng) for _ in range(4)]):
        if w1.graph() is not None and w2.graph() is not None:
            with pytest.raises(MismatchError):
                word_multiply(w1, w2)
        else:
            got, want = word_multiply(w1, w2), _oracle_multiply(w1, w2)
            assert (got is None) == (want is None)
            assert got is None or _word_row(got) == _word_row(want)
    if g.n_edges:
        # one word over both graphs, its factors never meeting the other's
        mixed = word(1.0, [random_module_element(g, rng)], None,
                     [random_module_element(h, rng)])
        with pytest.raises(MismatchError):
            word_multiply(mixed, word(1.0))


def test_element_refuses_a_word_over_another_graph():
    g, h = fibonacci(), fibonacci()
    with pytest.raises(MismatchError, match="different graph"):
        ToeplitzElement(g, [iota_word(delta_edge(h, "ab"))])
    # unit words belong to every graph
    assert len(ToeplitzElement(g, [word(2.0),
                                   iota_word(delta_edge(g, "ab"))]).words) == 2


# ---------------------------------------------------------------------------
# elements held as shape stacks against the word route


def _merged_sums(words) -> list:
    """Words with bitwise-identical factors merged at the first, their
    coefficients summed left to right."""
    sums: dict = {}
    for w in words:
        key = _word_row(w)[3:]
        old = sums.get(key)
        sums[key] = w if old is None else Word(old.coeff + w.coeff, old.left,
                                               old.middle, old.right)
    return list(sums.values())


def _merged(words) -> list:
    """The word route's sum: zero words dropped, the rest merged by
    :func:`_merged_sums`, and words whose sum is zero dropped."""
    return [w for w in _merged_sums(w for w in words if not word_is_zero(w))
            if w.coeff != 0]


def _element_words(words) -> list:
    """The word route's element of ``words``: grouped by shape as first
    seen, zero words included, then :func:`_merged`."""
    return _merged(w for ws in _shape_groups((_shape(w), w) for w in words)
                   for w in ws)


def _element_product(w1, w2) -> list:
    """The word route's product of two elements' words: the products of
    :func:`_oracle_pairs` grouped by product shape as first seen, zero
    products included, then :func:`_merged`."""
    return _merged(p for ps in _shape_groups(_oracle_pairs(w1, w2))
                   for p in ps if p is not None)


def _rescaled_words(words, weight):
    return [Word(w.coeff * weight(w), w.left, w.middle, w.right)
            for w in words]


def _word_route_ops(e1, e2, c, z, n):
    """Per element operation, the word route's words of its result."""
    w1, w2 = list(e1.words), list(e2.words)
    return {
        "add": _element_words(w1 + w2),
        "sub": _element_words(w1 + _rescaled_words(w2, lambda w: -1.0)),
        "mul": _element_product(w1, w2),
        "adjoint": _element_words([word(np.conj(w.coeff), w.right, None
                                        if w.middle is None
                                        else w.middle.conj(), w.left)
                                   for w in w1]),
        "scaled": _element_words(_rescaled_words(w1, lambda w: c)),
        "gauge": _element_words(_rescaled_words(w1, lambda w: z ** w.degree)),
        "component": _element_words([w for w in w1 if w.degree == n])}


def _assert_words_and_stacks(elem, want):
    """``elem`` has bitwise the words ``want``, in order, and its stacks
    hold them: one stack per shape, its rows read in order."""
    rows = [_word_row(w) for w in elem.words]
    assert rows == [_word_row(w) for w in want]
    assert _batch_rows(elem.stacks) == rows
    assert len({bt[:2] + (bt[4] is None,) for bt in elem.stacks}) \
        == len(elem.stacks)


def _repeated_words(g, rng, n_words):
    """:func:`_drawn_word` draws with some words repeated and some
    repeated with the opposite coefficient, all shuffled."""
    words = [_drawn_word(g, rng) for _ in range(n_words)]
    for w in [words[int(i)] for i in rng.integers(n_words, size=2)]:
        words.append(w if rng.random() < 0.5 else
                     Word(-w.coeff, w.left, w.middle, w.right))
    return [words[int(i)] for i in rng.permutation(len(words))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_element_operations_match_word_route_on_generated_graphs(g, seed):
    rng = np.random.default_rng(seed)
    w1, w2 = (_repeated_words(g, rng, 4) for _ in range(2))
    e1, e2 = ToeplitzElement(g, w1), ToeplitzElement(g, w2)
    _assert_words_and_stacks(e1, _element_words(w1))
    c = complex(*rng.standard_normal(2)) if rng.random() < 0.8 else 0.0
    z = complex(*rng.standard_normal(2))
    n = int(rng.integers(-2, 3))
    got = {"add": e1 + e2, "sub": e1 - e2, "mul": e1 * e2,
           "adjoint": e1.adjoint(), "scaled": e1.scaled(c),
           "gauge": gauge_scale(e1, z), "component": spectral_component(e1, n)}
    for name, want in _word_route_ops(e1, e2, c, z, n).items():
        _assert_words_and_stacks(got[name], want)
    # one read-only view, the same records on every call
    assert all(a is b for a, b in zip(e1.words, e1.words))
    with pytest.raises(AttributeError):
        e1.words = e2.words


def test_construction_merges_in_first_seen_order_and_drops_zeros():
    g = fibonacci()
    d = {e: delta_edge(g, e) for e in g.edges}
    zero = ModuleElement(g, np.zeros(g.n_edges))
    words = [word(1.0, (d["ab"],)), word(0.5, (), None, (d["ba"],)),
             word(2.0 + 1.0j, (d["ab"],)), word(3.0, (zero,)),
             word(0.0, (d["ba"],)), word(-0.5, (), None, (d["ba"],)),
             word(4.0), word(1.5j, (d["ab"],))]
    elem = ToeplitzElement(g, words)
    # ab's coefficients add left to right, ba's cancel, zeros go
    assert [(w.coeff, len(w.left), len(w.right)) for w in elem.words] \
        == [((1.0 + (2.0 + 1.0j)) + 1.5j, 1, 0), (4.0, 0, 0)]
    assert [bt[:2] for bt in elem.stacks] == [(1, 0), (0, 0)]
    _assert_words_and_stacks(elem, _element_words(words))
    # interleaved shapes: a shape's words come together, at its first
    interleaved = [word(1.0, (d["ab"],)), word(4.0),
                   word(2.0, (d["ba"],)), word(0.5, (), None, (d["aa"],))]
    elem = ToeplitzElement(g, interleaved)
    assert [w.coeff for w in elem.words] == [1.0, 2.0, 4.0, 0.5]
    _assert_words_and_stacks(elem, _element_words(interleaved))


def test_fock_multiply_command_matches_word_route(capsys):
    # seeded multi-word pairs over the finite fixtures; C(d)* P(1) and
    # C(d)* times C(d) are both P(<d, d>), which then merge or cancel
    rng = np.random.default_rng(23)
    merged = cancelled = 0
    for name in RECONSTRUCT_FIXTURES:
        g = FINITE_FIXTURES[name]()
        for t in range(6):
            d = delta_edge(g, g.edges[t % g.n_edges])
            c = complex(*rng.standard_normal(2))
            one = VertexFunction(g, np.ones(g.n_vertices))
            pair = [[word(c, (), None, (d,)), word(c * (-1.0, 2.0)[t % 2],
                                                   (), one, (d,))],
                    [word(1.0, (d,))]]
            docs = [element_to_json(types.SimpleNamespace(
                words=_repeated_words(g, rng, 3) + extra)) for extra in pair]
            factors = [_element_words(word_from_dict(g, w)
                                      for w in doc["words"]) for doc in docs]
            products = [p for _, p in _oracle_pairs(*factors)
                        if p is not None]
            want = element_to_json(types.SimpleNamespace(
                words=_element_product(*factors)))
            assert dispatch(["fock", "multiply", fixture_path(name),
                             "--w1", json.dumps(docs[0]),
                             "--w2", json.dumps(docs[1])]) == 0
            got, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
            assert got == want
            kept = [w for w in products if not word_is_zero(w)]
            merged += len(want["words"]) < len(kept)
            cancelled += any(w.coeff == 0 for w in _merged_sums(kept))
    assert merged and cancelled


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("name", RECONSTRUCT_FIXTURES)
def test_reconstruction_matches_word_route(name, seed):
    g = FINITE_FIXTURES[name]()
    assert reconstruct_module_check(g, trials=20, tol=1e-12, seed=seed) \
        == _word_route_reconstruct(g, trials=20, tol=1e-12, seed=seed)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(g=finite_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_reconstruction_matches_word_route_on_generated_graphs(g, seed):
    assert reconstruct_module_check(g, trials=3, tol=1e-12, seed=seed) \
        == _word_route_reconstruct(g, trials=3, tol=1e-12, seed=seed)
