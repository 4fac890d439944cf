"""Equilibrium states of the gauge dynamics on the word algebra.

For a finite graph with adjacency matrix ``A`` and ``beta`` above
``log rho(A)``, the partition sum over paths with source ``v`` is

    N_v = sum_{paths mu, src(mu) = v} exp(-beta |mu|)
        = 1^T (I - e^{-beta} A)^{-1} delta_v,

and the state attached to a probability vector ``Omega`` on vertices
evaluates a word ``C^k(x) P(a) C^l(y)*`` to zero unless ``k = l``, and
otherwise to

    e^{-beta k} sum_v Omega(v) N_v^{-1} [g^T (I - e^{-beta} A)^{-1} delta_v]
        = e^{-beta k} u^T g,    u = (I - e^{-beta} A)^{-1} (Omega / N),

with ``g = <y, x>`` the tensor inner product (``g = a`` for scalar words,
``g = 1`` for the unit word).  Each state solves for its dual vector ``u``
once.  Each element keeps the profiles ``g`` of its balanced words as one
matrix ``G``, filled once from its balanced shape stacks, and beside it,
for the last temperature, the live rows and the products ``c e^{-beta k}``:
a further state at that temperature costs one product ``G u`` and the sum.
Truncated path sums, over profiles computed word by word, are kept as an
independent oracle.  At ``beta = inf`` the same state is the vacuum vector
state, which sees only the scalar part of a word.  The KMS condition is
checked on the elements' own shape stacks and word positions, each pair
on the trial axis its caller stacked it on; the words of two stacks meet
pair by pair as broadcast views, with no copy, and each product stack is
evaluated with one row-wise product of its profiles, which
:func:`_profiles` forms as it forms an element's.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError, MismatchError
from .graphs import FiniteGraph, check_trials, spectral_radius
from .modules import (_tensor_inner, delta_edge, delta_vertex,
                      random_module_element, tensor_inner_product)
from .report import Check
from .toeplitz import (ToeplitzElement, Word, _gauge_weight, _live_words,
                       _stack_product, pi_word, vacuum_projection, word)


@dataclass
class KMSParameters:
    """Inverse temperature above the critical value ``log rho(A)``.  At
    ``beta = inf``, above every radius, ``rho`` is not computed (None): then
    ``x = 0``, the resolvent is ``I`` and every ``N_v`` is 1."""
    graph: FiniteGraph
    beta: float

    def __post_init__(self):
        self.rho = None
        if self.beta != math.inf:
            self.rho = spectral_radius(self.graph)
            log_rho = math.log(self.rho) if self.rho > 0 else -math.inf
            if not (self.beta > log_rho):
                raise DomainError(
                    f"beta = {self.beta} must exceed log rho = {log_rho:.6g}")
        self.x = math.exp(-self.beta)
        A = self.graph.adjacency().astype(np.float64)
        self.resolvent_t = np.eye(A.shape[0]) - self.x * A.T
        # N_v = 1^T (I - xA)^{-1} delta_v  for all v at once
        self.partition = np.linalg.solve(self.resolvent_t,
                                         np.ones(A.shape[0]))

    def partition_sum(self, v) -> float:
        """``N_v`` via the resolvent; converges since ``e^{-beta} rho < 1``."""
        return float(self.partition[self.graph.vertex_index(v)])


def truncated_partition_sum(graph: FiniteGraph, beta: float, v,
                            depth: int) -> float:
    """Truncated path-sum oracle ``sum_{|mu| <= depth} e^{-beta |mu|}``.

    Accumulates the Neumann series term by term with the damping folded
    into the matrix power, so it stays bounded; an independent route from
    the direct linear solve.
    """
    A = graph.adjacency().astype(np.float64)
    x = math.exp(-beta)
    w = np.zeros(graph.n_vertices)
    w[graph.vertex_index(v)] = 1.0
    total = 0.0
    for _ in range(depth + 1):
        total += w.sum()
        w = x * (A @ w)
    return total


def partition_tail_bound(graph: FiniteGraph, beta: float, depth: int,
                         block: int = 20) -> float:
    """Upper bound on the discarded tail ``sum_{n > depth} e^{-beta n} a_n``
    with ``a_n = max_v |E^n v|``.

    Submultiplicativity gives ``a_n <= a_B g^n`` for ``g = a_B^{1/B}``, so
    the tail is below ``a_B (e^{-beta} g)^{depth+1} / (1 - e^{-beta} g)``.
    When ``a_B = 0`` the graph is acyclic, no path is longer than
    ``|V| - 1``, and the tail is the finite sum itself.
    """
    A = graph.adjacency().astype(np.float64)
    counts = np.ones(graph.n_vertices)
    for _ in range(block):
        counts = counts @ A
    a_block = float(counts.max())
    if a_block == 0.0:
        tail = 0.0
        counts = np.ones(graph.n_vertices)
        for n in range(1, graph.n_vertices):
            counts = counts @ A
            if n > depth:
                tail += math.exp(-beta * n) * float(counts.max())
        return tail
    g = max(a_block ** (1.0 / block), 1.0)
    q = math.exp(-beta) * g
    if q >= 1.0:
        return math.inf
    return max(a_block, 1.0) * q ** (depth + 1) / (1.0 - q)


def choose_truncation_depth(graph: FiniteGraph, beta: float,
                            eps: float = 1e-13, cap: int = 2000) -> int:
    for depth in range(1, cap):
        if partition_tail_bound(graph, beta, depth) < eps:
            return depth
    raise DomainError("no truncation depth meets the tail bound; "
                      "beta too close to the critical value")


@dataclass
class KMSState:
    """State attached to a finitely supported probability measure.

    ``dual`` is ``(I - e^{-beta} A)^{-1} (Omega / N)``: the state of a
    balanced word with profile ``(g, k)`` is ``e^{-beta k} dual @ g``, and
    of an element with profile stack ``G`` the weighted sum of ``G dual``.
    """
    params: KMSParameters
    measure: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.measure, dtype=np.float64)
        p = self.params
        if m.shape != (p.graph.n_vertices,):
            raise MismatchError("measure must assign a weight to each vertex")
        if (not np.isfinite(m).all() or np.any(m < -1e-15)
                or abs(m.sum() - 1.0) > 1e-12):
            raise FormatError("measure must be a probability vector")
        self.measure = m
        self.dual = np.linalg.solve(p.resolvent_t.T, m / p.partition)

    @classmethod
    def point_mass(cls, params: KMSParameters, v) -> "KMSState":
        m = np.zeros(params.graph.n_vertices)
        m[params.graph.vertex_index(v)] = 1.0
        return cls(params, m)


def _word_profile(w: Word):
    """``(g, k)`` for the evaluation formula (``g`` None for the unit
    word), or None if the word has unequal creation/annihilation length
    and so vanishes in every state.  Computed once per word: the memo sits
    in the frozen word's instance dict.  Only the truncated oracle reads
    it; :func:`kms_eval` reads the stack."""
    try:
        return w.__dict__["_profile"]
    except KeyError:
        pass
    k = w.creations
    if k != w.annihilations:
        profile = None
    elif k:
        profile = tensor_inner_product(w.right, w.left).values, k
    else:
        profile = (None if w.middle is None else w.middle.values), 0
    w.__dict__["_profile"] = profile
    return profile


def _profiles(left, middle, right, graph: FiniteGraph, shape: tuple):
    """The profiles ``g``, ``shape + (vertices,)``, of balanced words from
    their factors on leading shapes that broadcast to ``shape``: the
    :func:`~graphcorr.modules._tensor_inner` of the annihilations and
    creations, else the middles, else 1; broadcast only where a factor's
    shape falls short, so every row is bitwise that word's profile."""
    G = _tensor_inner(right, left, graph) if left else middle
    if G is None or G.shape[:-1] != shape:
        G = np.broadcast_to(1.0 if G is None else G,
                            shape + (graph.n_vertices,))
    return G


def _element_stack(elem: ToeplitzElement):
    """``(G, k, c)``: the profile ``g``, creation count and coefficient of
    each balanced word, in word order (the unit word's row is all ones),
    kept in the element's instance dict.  A balanced stack of the element
    gives the rows of its words at once, by :func:`_profiles`."""
    if "_stack" not in elem.__dict__:
        g = elem.graph
        profiles = {k: _profiles(ls, mid, rs, g, c.shape)[0]
                    for k, (m, n, c, ls, mid, rs) in enumerate(elem.stacks)
                    if m == n}
        rows = [(k, r) for k, r in elem._rows() if k in profiles]
        elem._stack = (np.array([profiles[k][r] for k, r in rows],
                                dtype=np.complex128).reshape(-1, g.n_vertices),
                       [elem.stacks[k][0] for k, _ in rows],
                       [complex(elem.stacks[k][2][0, r]) for k, r in rows])
    return elem._stack


def kms_eval(state: KMSState, elem) -> complex:
    """Exact evaluation of an element in the state: one matrix-vector
    product of the element's profile stack with the dual vector.  A word
    whose weight ``e^{-beta k}`` is zero (every word with creations at
    ``beta = inf``) contributes nothing, even if its profile overflowed.
    Each row's sum runs in index order (as ``u.sum()`` does below eight
    vertices; a BLAS product does not) and the products are summed in word
    order with Python complex arithmetic, so a point-mass state at ``beta =
    inf`` gives bitwise the word-by-word loop's value.  The live rows and
    the products ``c x**k`` are kept with the stack for the last ``x``."""
    x, u = state.params.x, state.dual
    if elem.graph is not state.params.graph:
        raise MismatchError("element and state live over different graphs")
    G, k, c = _element_stack(elem)
    memo = elem.__dict__.get("_at")
    if memo is None or memo[0] != x:
        weight = [x ** j for j in k]
        live = [i for i, w in enumerate(weight) if w]
        memo = elem.__dict__["_at"] = (
            x, G if len(live) == len(k) else G[live],
            [c[i] * weight[i] for i in live])
    return sum(map(operator.mul, memo[2],
                   np.einsum("ij,j->i", memo[1], u).tolist()), 0j)


def kms_eval_truncated(state: KMSState, elem, depth: int) -> complex:
    """Truncated-series oracle for :func:`kms_eval`.

    Sums ``sum_{|mu| <= depth} e^{-beta |mu|} g(r(mu))`` by accumulating
    damped adjacency powers instead of solving the resolvent system.
    Reads only ``graph``, ``x`` and ``partition`` from ``state.params``.
    """
    p = state.params
    A = p.graph.adjacency().astype(np.float64)
    total = 0.0 + 0.0j
    weights = state.measure / p.partition
    for w in elem.words:
        profile = _word_profile(w)
        if profile is None:
            continue
        g, k = profile
        z = np.ones(p.graph.n_vertices, dtype=np.complex128) if g is None \
            else np.asarray(g, dtype=np.complex128)
        acc = np.zeros_like(z)
        for _ in range(depth + 1):
            acc = acc + z
            z = p.x * (z @ A)
        total += w.coeff * (p.x ** k) * complex(weights @ acc)
    return complex(total)


def kms_condition_check(state: KMSState, b1: ToeplitzElement,
                        b2: ToeplitzElement, tol: float = 1e-9) -> Check:
    """Residual of ``phi(b1 * sigma(b2)) = phi(b2 * b1)`` where ``sigma``
    scales a degree-``n`` element by ``e^{-beta n}``, by
    :func:`_stack_residuals` as :func:`kms_condition_residuals` takes each
    entry, on the elements' own shape stacks.

    Both inputs must be gauge homogeneous (they are then analytic for the
    dynamics and the scaling is the analytic continuation evaluated at
    ``i beta``).
    """
    if b1.graph is not state.params.graph or b2.graph is not b1.graph:
        raise MismatchError("element and state live over different graphs")
    residual, = _stack_residuals(state, (b1.stacks, b1.positions),
                                 (b2.stacks, b2.positions))
    return Check("kms-condition", residual <= tol, residual)


def kms_condition_residuals(state: KMSState, pairs) -> np.ndarray:
    """``|phi(b1 sigma(b2)) - phi(b2 b1)|`` for many pairs in one state.

    Each entry of ``pairs`` gives ``b1`` and ``b2`` over the state's graph
    as ``(stacks, positions)``, as :class:`~graphcorr.toeplitz.ToeplitzElement`
    holds them (one stack per shape, and per stack the places of its words
    in word order), every stack on the entry's trial axis; the residuals
    of all trials come back entry by entry, each entry evaluated on its
    own trial axis by :func:`_stack_residuals`.  A residual is bitwise the
    per-pair route's unless two product words coincide, which the product
    element merges first.  ``DomainError`` for an element that is not
    gauge homogeneous, and for ``b2`` of negative degree where
    ``e^{-beta}`` is 0.
    """
    return np.array([r for b1, b2 in pairs
                     for r in _stack_residuals(state, b1, b2)], dtype=float)


def _stack_residuals(state: KMSState, e1, e2) -> list:
    """Per trial, the residual of two elements given as ``(stacks,
    positions)``, with ``x**deg`` folded into ``b2``'s coefficients by
    Python's complex product, bitwise ``_cmul``'s; 0 when no product word
    is balanced."""
    d1, d2 = ({m - n for m, n, *_ in e[0]} for e in (e1, e2))
    if len(d1) > 1 or len(d2) > 1:
        raise DomainError("inputs must be gauge homogeneous")
    s = _gauge_weight(state.params.x, min(d2, default=0))
    if {a + b for a in d1 for b in d2} != {0}:
        # both sides are 0
        return [0.0] * max((len(bt[2]) for bt in (*e1[0], *e2[0])),
                           default=1)
    e1, e2 = ((*e, [bt[2].tolist() for bt in e[0]]) for e in (e1, e2))
    twisted = [[[complex(c) * s for c in row] for row in cs] for cs in e2[2]]
    return [abs(lhs - rhs) for lhs, rhs in zip(
        _product_values(state, e1, (*e2[:2], twisted)),
        _product_values(state, e2, e1))]


def _product_values(state: KMSState, e1, e2) -> list:
    """Per trial, the state of the product of two trial-stacked elements
    given as ``(stacks, positions, coefficient lists)``, whose degrees sum
    to 0, as :func:`kms_eval` takes it on the product element: each pair
    of stacks is formed as :func:`~graphcorr.toeplitz._batch_product` forms
    it, and a term ``c x**k <g, dual>`` per product word with a nonzero
    coefficient and factors, in Python complex arithmetic on the
    coefficients and the row products, is summed in word-pair order."""
    x, u, g = state.params.x, state.dual, state.params.graph
    (stacks1, at1, cs1), (stacks2, at2, cs2) = e1, e2
    trials = max(len(bt[2]) for bt in (*stacks1, *stacks2))
    k2 = sum(map(len, at2))
    terms: list = [{} for _ in range(trials)]
    for bt1, i1, c1s in zip(stacks1, at1, cs1):
        for bt2, i2, c2s in zip(stacks2, at2, cs2):
            left, middle, right = _stack_product(bt1, bt2, g)
            weight = x ** len(left)
            if not weight:
                continue
            shape = (trials, len(i1), len(i2))
            G = _profiles(left, middle, right, g, shape)
            d = np.einsum("ij,j->i", G.reshape(-1, g.n_vertices), u)
            live = _live_words(np.ones(shape, bool), left, middle, right)
            keys = [(a, b, i1[a] * k2 + i2[b]) for a in range(len(i1))
                    for b in range(len(i2))]
            for t, (c1, c2, live_t, d_t) in enumerate(zip(
                    c1s, c2s, live.reshape(trials, -1).tolist(),
                    d.reshape(trials, -1).tolist())):
                for (a, b, p), ok, dw in zip(keys, live_t, d_t):
                    c = c1[a] * c2[b]
                    if ok and c1[a] and c2[b] and c:
                        terms[t][p] = c * weight * dw
    return [sum((t[p] for p in sorted(t)), 0j) for t in terms]


@dataclass
class SweepRow:
    beta: float
    word_id: str
    value: complex
    residual: float


@dataclass
class SweepTable:
    rows: list = field(default_factory=list)
    fitted_constant: float = 0.0

    def residuals(self, word_id: str):
        return [(r.beta, r.residual) for r in self.rows
                if r.word_id == word_id]

    def to_csv(self) -> str:
        """The rows as ``beta,word-id,value,residual`` CSV text."""
        return "beta,word-id,value,residual\n" + "".join(
            f"{r.beta},{r.word_id},{r.value!r},{r.residual!r}\n"
            for r in self.rows)

    def monotone_decreasing(self) -> bool:
        """No word's residual grows by more than ``1e-12`` as beta grows."""
        for wid in {r.word_id for r in self.rows}:
            res = [r for _, r in sorted(self.residuals(wid))]
            if any(b > a + 1e-12 for a, b in zip(res, res[1:])):
                return False
        return True


def limit_sweep_words(graph: FiniteGraph) -> dict:
    """The sweep's word set: every vertex projection ``pi[v]``, every edge
    word ``cc*[e] = C(delta_e) C(delta_e)*`` and the vacuum projection."""
    words = {}
    for v in graph.vertices:
        words[f"pi[{v}]"] = ToeplitzElement(
            graph, [pi_word(delta_vertex(graph, v))])
    for e in graph.edges:
        d = delta_edge(graph, e)
        words[f"cc*[{e}]"] = ToeplitzElement(
            graph, [word(1.0, (d,), None, (d,))])
    words["p"] = vacuum_projection(graph)
    return words


def kms_limit_sweep(graph: FiniteGraph, v, words: dict, betas) -> SweepTable:
    """Residuals ``|phi_v^beta(w) - phi_v^inf(w)|`` over a grid of betas.

    Also fits the smallest ``C`` with residual ``<= C e^{-beta}`` per row
    family, reporting the largest over all words.
    """
    table = SweepTable()
    limit = KMSState.point_mass(KMSParameters(graph, math.inf), v)
    limits = {wid: kms_eval(limit, elem) for wid, elem in words.items()}
    c_fit = 0.0
    for beta in betas:
        state = KMSState.point_mass(KMSParameters(graph, float(beta)), v)
        for wid, elem in words.items():
            val = kms_eval(state, elem)
            res = abs(val - limits[wid])
            c_fit = max(c_fit, res / math.exp(-float(beta)))
            table.rows.append(SweepRow(float(beta), wid, val, res))
    table.fitted_constant = c_fit
    return table


def extremal_separation_check(params: KMSParameters, trials: int = 100,
                              seed: int = 0, tol: float = 1e-12) -> list:
    """Point-mass states separate vertices, and evaluation is affine.

    Separation: for each pair of distinct vertices some vertex indicator
    takes different values in the two point-mass states.  Affinity: for
    random measures ``Omega`` and random scalar-or-balanced words, the
    state of ``Omega`` equals the ``Omega``-average of point-mass states.
    """
    check_trials(trials)
    g = params.graph
    rng = np.random.default_rng(seed)
    checks = []
    point_states = {v: KMSState.point_mass(params, v) for v in g.vertices}
    indicators = [ToeplitzElement(g, [pi_word(delta_vertex(g, u))])
                  for u in g.vertices]
    # values[v][u]: the point state at v on the indicator of u
    values = {v: [kms_eval(st, ind) for ind in indicators]
              for v, st in point_states.items()}
    for v, w_ in itertools.combinations(g.vertices, 2):
        sep = max(0.0, *(abs(a - b) for a, b in zip(values[v], values[w_])))
        checks.append(Check(f"separate[{v},{w_}]", sep > 1e-9, sep,
                            detail="max indicator gap"))
    for t in range(trials):
        m = rng.random(g.n_vertices)
        m /= m.sum()
        omega = KMSState(params, m)
        k = int(rng.integers(0, 3))
        xs = tuple(random_module_element(g, rng) for _ in range(k))
        ys = tuple(random_module_element(g, rng) for _ in range(k))
        elem = ToeplitzElement(g, [word(1.0, xs, None, ys)])
        lhs = kms_eval(omega, elem)
        rhs = sum(m[g.vertex_index(v)] * kms_eval(point_states[v], elem)
                  for v in g.vertices)
        res = abs(lhs - rhs)
        checks.append(Check(f"affine[{t}]", res <= tol, res))
    return checks
