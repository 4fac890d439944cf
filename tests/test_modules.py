import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcorr.errors import MismatchError
from graphcorr.fixtures import circle_double_cover, fibonacci, ten_edge
from graphcorr.graphs import (TWO_PI, CircleCoveringGraph, EdgeComponent,
                              FiniteGraph, enumerate_paths)
from graphcorr.modules import (ModuleElement, VertexFunction, _circle_index,
                               _range_index, _source_index, delta_edge,
                               delta_vertex, element_from_dict,
                               element_to_dict, fiber_evaluation,
                               inner_product, left_action, module_norm,
                               random_module_element, random_vertex_function,
                               right_action, tensor_inner_product)

from oracles import element_from_function, vertex_function_from_function

# ---------------------------------------------------------------------------
# oracles


def inner_product_loop_oracle(g, x, y):
    out = np.zeros(g.n_vertices, dtype=np.complex128)
    for i in range(g.n_edges):
        out[g.src_idx[i]] += np.conj(x.values[i]) * y.values[i]
    return out


def right_action_loop_oracle(g, x, a):
    return np.array([x.values[i] * a.values[g.src_idx[i]]
                     for i in range(g.n_edges)])


def left_action_loop_oracle(g, a, x):
    return np.array([a.values[g.rng_idx[i]] * x.values[i]
                     for i in range(g.n_edges)])


def tensor_path_sum_oracle(g, xs, ys, v):
    """Sum over length-k paths from v of conj(prod x) * prod y."""
    total = 0.0 + 0.0j
    for p in enumerate_paths(g, v, len(xs)):
        idx = [g.edge_index(e) for e in p.edges]
        cx = np.prod([xs[i].values[idx[i]] for i in range(len(xs))])
        cy = np.prod([ys[i].values[idx[i]] for i in range(len(ys))])
        total += np.conj(cx) * cy
    return total


# ---------------------------------------------------------------------------
# inner product


def test_edge_deltas_orthonormal():
    g = fibonacci()
    for e in g.edges:
        ip = inner_product(delta_edge(g, e), delta_edge(g, e))
        expected = delta_vertex(g, g.src[g.edge_index(e)])
        assert np.array_equal(ip.values, expected.values)
    ip = inner_product(delta_edge(g, "aa"), delta_edge(g, "ab"))
    assert not ip.values.any()


def test_inner_product_loop_oracle_random():
    g = FiniteGraph(["u", "v"], [f"e{i}" for i in range(5)],
                    ["u", "v", "u", "v", "u"], ["v", "u", "u", "v", "v"])
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = random_module_element(g, rng)
        y = random_module_element(g, rng)
        assert np.allclose(inner_product(x, y).values,
                           inner_product_loop_oracle(g, x, y),
                           atol=1e-14, rtol=0)


def test_inner_product_double_cover_branch_formula():
    # <f, f>(e^{it}) sums |f|^2 over the two square-root branches
    g = circle_double_cover()
    n = 64
    f = element_from_function(g, n, [lambda u: np.exp(2j * u) + 0.5])
    ip = inner_product(f, f)
    t = TWO_PI * np.arange(n) / n
    f_of = lambda u: np.exp(2j * u) + 0.5
    expected = (np.abs(f_of(t / 2)) ** 2
                + np.abs(f_of(t / 2 + math.pi)) ** 2)
    assert np.max(np.abs(ip.values - expected)) < 1e-12


def test_positivity_exact():
    g = ten_edge()
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = random_module_element(g, rng)
        ip = inner_product(x, x).values
        # vectorized complex multiplies may contract with FMA, leaving
        # imaginary dust at the last ulp
        assert np.all(ip.real >= 0)
        assert np.max(np.abs(ip.imag)) <= 1e-13 * np.max(ip.real)
    z = ModuleElement(g, np.zeros(g.n_edges))
    assert not inner_product(z, z).values.any()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_adjoint_symmetry(seed):
    rng = np.random.default_rng(seed)
    g = fibonacci()
    x = random_module_element(g, rng)
    y = random_module_element(g, rng)
    assert np.max(np.abs(inner_product(x, y).values
                         - inner_product(y, x).values.conj())) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_right_linearity(seed):
    rng = np.random.default_rng(seed)
    g = ten_edge()
    x = random_module_element(g, rng)
    y = random_module_element(g, rng)
    a = random_vertex_function(g, rng)
    lhs = inner_product(x, right_action(y, a)).values
    rhs = inner_product(x, y).values * a.values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# actions


def test_unit_acts_trivially():
    g = fibonacci()
    rng = np.random.default_rng(2)
    x = random_module_element(g, rng)
    one = VertexFunction(g, np.ones(g.n_vertices))
    assert np.array_equal(right_action(x, one).values, x.values)
    assert np.array_equal(left_action(one, x).values, x.values)


def test_delta_actions():
    g = fibonacci()
    e = "ab"
    x = delta_edge(g, e)
    a = delta_vertex(g, g.src[g.edge_index(e)])
    assert np.array_equal(right_action(x, a).values, x.values)


def test_action_loop_oracles():
    g = ten_edge()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_module_element(g, rng)
        a = random_vertex_function(g, rng)
        assert np.max(np.abs(right_action(x, a).values
                             - right_action_loop_oracle(g, x, a))) <= 1e-13
        assert np.max(np.abs(left_action(a, x).values
                             - left_action_loop_oracle(g, a, x))) <= 1e-13


def test_left_action_adjointability():
    g = fibonacci()
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = random_module_element(g, rng)
        y = random_module_element(g, rng)
        a = random_vertex_function(g, rng)
        lhs = inner_product(left_action(a, y), x).values
        rhs = inner_product(y, left_action(a.conj(), x)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# norm


def test_norm_examples():
    g = fibonacci()
    assert module_norm(delta_edge(g, "aa")) == 1.0
    assert module_norm(ModuleElement(g, np.zeros(g.n_edges))) == 0.0


def test_norm_max_of_sums_oracle():
    g = ten_edge()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = random_module_element(g, rng)
        sums = np.zeros(g.n_vertices)
        for i in range(g.n_edges):
            sums[g.src_idx[i]] += abs(x.values[i]) ** 2
        assert abs(module_norm(x) - math.sqrt(sums.max())) < 1e-12


# ---------------------------------------------------------------------------
# tensor inner products


def test_tensor_k1_is_inner_product():
    g = fibonacci()
    rng = np.random.default_rng(6)
    x = random_module_element(g, rng)
    y = random_module_element(g, rng)
    assert np.array_equal(tensor_inner_product([x], [y]).values,
                          inner_product(x, y).values)


def test_tensor_delta_path_concatenation():
    g = fibonacci()
    # (aa, ba) concatenates: src(aa) = a = rng(ba)
    e, f = "aa", "ba"
    assert g.src[g.edge_index(e)] == g.rng[g.edge_index(f)]
    ip = tensor_inner_product([delta_edge(g, e), delta_edge(g, f)],
                              [delta_edge(g, e), delta_edge(g, f)])
    expected = delta_vertex(g, g.src[g.edge_index(f)])
    assert np.array_equal(ip.values, expected.values)
    # (ba, ba) does not: src(ba) = b but rng(ba) = a
    ip0 = tensor_inner_product([delta_edge(g, "ba"), delta_edge(g, "ba")],
                               [delta_edge(g, "ba"), delta_edge(g, "ba")])
    assert not ip0.values.any()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tensor_path_sum_oracle(k):
    g = FiniteGraph(["u", "v"], ["e0", "e1", "e2", "e3"],
                    ["u", "u", "v", "v"], ["u", "v", "u", "v"])
    rng = np.random.default_rng(7 + k)
    xs = [random_module_element(g, rng) for _ in range(k)]
    ys = [random_module_element(g, rng) for _ in range(k)]
    ip = tensor_inner_product(xs, ys)
    for v in g.vertices:
        oracle = tensor_path_sum_oracle(g, xs, ys, v)
        assert abs(ip.values[g.vertex_index(v)] - oracle) < 1e-10


def test_tensor_length_mismatch():
    g = fibonacci()
    rng = np.random.default_rng(8)
    with pytest.raises(MismatchError):
        tensor_inner_product([random_module_element(g, rng)], [])
    with pytest.raises(MismatchError):
        tensor_inner_product([], [])


def test_tensor_reads_the_range_map_only_from_length_two():
    # d = 2 does not divide m = 3, so ranges of grid samples leave the grid;
    # only the left action inside a tensor of length >= 2 reads them
    g = CircleCoveringGraph([EdgeComponent(2, 0.0, 3, 0.0)])
    rng = np.random.default_rng(12)
    x, y = (random_module_element(g, rng, 16) for _ in range(2))
    assert np.array_equal(tensor_inner_product([x], [y]).values,
                          inner_product(x, y).values)
    with pytest.raises(MismatchError, match="not divisible"):
        tensor_inner_product([x, y], [y, x])
    z = random_module_element(g, rng, 32)
    with pytest.raises(MismatchError, match="different sample grids"):
        tensor_inner_product([x, x], [y, z])


# ---------------------------------------------------------------------------
# fiber evaluation


def test_fiber_evaluation_delta():
    g = fibonacci()
    vec = fiber_evaluation(delta_edge(g, "aa"), "a")
    assert vec.shape == (2,)
    assert sorted(np.abs(vec)) == [0.0, 1.0]


def test_fiber_evaluation_empty():
    g = FiniteGraph(["u", "v"], ["e"], ["u"], ["v"])
    vec = fiber_evaluation(delta_edge(g, "e"), "v")
    assert vec.shape == (0,) and np.linalg.norm(vec) == 0.0


def test_fiber_norm_identity_100_random():
    g = ten_edge()
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = random_module_element(g, rng)
        ip = inner_product(x, x)
        for v in g.vertices:
            vec = fiber_evaluation(x, v)
            lhs = float(np.sum(np.abs(vec) ** 2))
            rhs = float(ip.values[g.vertex_index(v)].real)
            assert abs(lhs - rhs) < 1e-12


def test_fiber_norm_identity_circle():
    g = circle_double_cover()
    rng = np.random.default_rng(10)
    n = 32
    x = random_module_element(g, rng, base_n=n)
    ip = inner_product(x, x)
    for j in range(n):
        vec = fiber_evaluation(x, TWO_PI * j / n)
        assert abs(np.sum(np.abs(vec) ** 2) - ip.values[j].real) < 1e-12


# ---------------------------------------------------------------------------
# circle mechanics and serialization


def test_circle_actions_pointwise():
    g = circle_double_cover()
    n = 16
    f = element_from_function(g, n, [lambda u: np.exp(1j * u)])
    a = vertex_function_from_function(g, n, lambda t: np.cos(t))
    fa = right_action(f, a)
    u = TWO_PI * np.arange(2 * n) / (2 * n)
    expected = np.exp(1j * u) * np.cos(2 * u % TWO_PI)
    assert np.max(np.abs(fa.components[0] - expected)) < 1e-12
    # range = source here, so both actions agree
    af = left_action(a, f)
    assert np.max(np.abs(af.components[0] - expected)) < 1e-12


class SampledCircleOracle:
    """Circle module operations from the source and range maps sampled as
    angles, with no index arithmetic of the library."""

    def __init__(self, g, n):
        self.g, self.n = g, n
        self.src, self.rng = [], []
        for comp in g.components:
            u = self.samples(comp)
            self.src.append(self.base_index(comp.source_map(u)))
            self.rng.append(self.base_index(comp.range_map(u)))

    def samples(self, comp):
        size = comp.source_degree * self.n
        return TWO_PI * np.arange(size) / size

    def base_index(self, angles):
        return np.rint(angles * self.n / TWO_PI).astype(np.intp) % self.n

    def inner(self, x, y):
        out = np.zeros(self.n, dtype=np.complex128)
        for s, xc, yc in zip(self.src, x.components, y.components):
            for i in range(s.size):
                out[s[i]] += np.conj(xc[i]) * yc[i]
        return out

    def left(self, a, x):
        return [a.values[r] * xc for r, xc in zip(self.rng, x.components)]

    def right(self, x, a):
        return [xc * a.values[s] for s, xc in zip(self.src, x.components)]

    def fiber(self, x, j):
        """Per component, the lifts ``(t_j - off + 2pi k) / d`` of every
        branch k, in sample order."""
        out = []
        for comp, xc in zip(self.g.components, x.components):
            d = comp.source_degree
            lifts = []
            for k in range(d):
                u = ((TWO_PI * j / self.n - comp.source_offset + TWO_PI * k)
                     / d) % TWO_PI
                lifts.append(int(np.rint(u * d * self.n / TWO_PI))
                             % (d * self.n))
            out.extend(xc[sorted(lifts)])
        return np.array(out)


def _on_grid(n, k):
    return TWO_PI * k / n


def _multi_component_graphs(n):
    """On-grid offsets; the later components have degree >= 2."""
    return [
        CircleCoveringGraph([
            EdgeComponent(1, _on_grid(n, 3), 2, _on_grid(n, 5)),
            EdgeComponent(2, _on_grid(n, 7), 4, _on_grid(n, 1)),
            EdgeComponent(3, _on_grid(n, n - 2), -3, _on_grid(n, 2))]),
        CircleCoveringGraph([
            EdgeComponent(2, _on_grid(n, n - 1), 2, _on_grid(n, 9)),
            EdgeComponent(1, _on_grid(n, 4), 1, _on_grid(n, 6))]),
    ]


def _close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) <= 1e-12 * scale


@pytest.mark.parametrize("n", [16, 64])
def test_circle_operations_match_sampled_oracle(n):
    rng = np.random.default_rng(n)
    for g in _multi_component_graphs(n):
        oracle = SampledCircleOracle(g, n)
        x, y, z = (random_module_element(g, rng, n) for _ in range(3))
        a = random_vertex_function(g, rng, n)
        assert _close(inner_product(x, y).values, oracle.inner(x, y))
        for got, want in zip(left_action(a, x).components,
                             oracle.left(a, x)):
            assert _close(got, want)
        for got, want in zip(right_action(x, a).components,
                             oracle.right(x, a)):
            assert _close(got, want)
        c = VertexFunction(g, oracle.inner(x, y), n)
        ay = ModuleElement(g, oracle.left(c, z), n)
        assert _close(tensor_inner_product([x, z], [y, z]).values,
                      oracle.inner(z, ay))
        ip = inner_product(x, x).values
        for j in range(n):
            vec = fiber_evaluation(x, TWO_PI * j / n)
            assert np.array_equal(vec, oracle.fiber(x, j))
            assert abs(np.sum(np.abs(vec) ** 2) - ip[j].real) \
                <= 1e-12 * max(1.0, ip[j].real)


def test_circle_layout_and_fiber_order():
    # component-major flat samples; components are read-only views
    n = 4
    g = CircleCoveringGraph([EdgeComponent(1, 0.0, 1, 0.0),
                             EdgeComponent(2, _on_grid(n, 3), 2, 0.0)])
    x = ModuleElement(g, (np.arange(4), 4 + np.arange(8)), n)
    assert np.array_equal(x.values, np.arange(12))
    assert all(np.shares_memory(c, x.values) and not c.flags.writeable
               for c in x.components)
    # over j = 1 < off = 3: samples 2 and (1 - 3) mod 8 = 6, in index order
    assert fiber_evaluation(x, _on_grid(n, 1)).real.tolist() == [1, 6, 10]
    assert fiber_evaluation(x, _on_grid(n, 3)).real.tolist() == [3, 4, 8]


def test_circle_grid_mismatch():
    g = circle_double_cover()
    x = element_from_function(g, 16, [lambda u: np.ones_like(u)])
    y = element_from_function(g, 32, [lambda u: np.ones_like(u)])
    with pytest.raises(MismatchError):
        inner_product(x, y)


def test_element_json_round_trip():
    g = ten_edge()
    rng = np.random.default_rng(11)
    x = random_module_element(g, rng)
    x2 = element_from_dict(g, element_to_dict(x))
    assert np.max(np.abs(x.values - x2.values)) < 1e-15


# ---------------------------------------------------------------------------
# index maps


def test_circle_index_maps_are_memoised_read_only():
    g = CircleCoveringGraph([EdgeComponent(2, TWO_PI * 3 / 64, 4,
                                           TWO_PI * 5 / 64),
                             EdgeComponent(1, 0.0, -3, TWO_PI / 2)])
    h = CircleCoveringGraph(g.components)      # equal components, new graph
    for index, of_range in ((_source_index, False), (_range_index, True)):
        first = index(g, 64)
        assert index(g, 64) is first and index(h, 64) is first
        with pytest.raises(ValueError):
            first[0] = 1
        fresh = _circle_index.__wrapped__(g.components, 64, of_range)
        assert np.array_equal(first, fresh)
        assert index(g, 128) is not first and index(g, 128).size == 3 * 128


def test_refused_range_index_is_not_memoised():
    g = CircleCoveringGraph([EdgeComponent(2, 0.0, 3, 0.0)])
    for _ in range(3):
        with pytest.raises(MismatchError, match="not divisible"):
            _range_index(g, 64)
    assert _source_index(g, 64).size == 2 * 64


def test_finite_graphs_use_their_own_index_arrays():
    g = fibonacci()
    assert _source_index(g, None) is g.src_idx
    assert _range_index(g, None) is g.rng_idx
