"""Symbolic Toeplitz algebra of a finite graph, with truncated Fock matrices.

Elements are finite sums of words ``coeff * C(x_1)...C(x_m) P(a)
C(y_1)*...`` where ``C`` denotes the module generator (creation) and ``P``
the coefficient embedding.  A word is kept in normal form: when it has
creations, the middle coefficient is absorbed into the last creation via
the right action, so ``middle`` is only present on pure-annihilation and
scalar words.  Products reduce by the annihilator-creator rules

    C(y)* C(z) = P(<y, z>),   P(a) C(z) = C(a . z),   C(z)* P(a) = C(conj(a) . z)*,

so the product of two words is again a single word (or zero).  The rules
are written once, in :func:`_reduce`, on factor arrays of any leading
shape.

The words of one shape ``(m, n, has middle)`` are held as a stack ``(m,
n, coeffs, lefts, middles or None, rights)`` of coefficients ``(trials,
words)`` and factor arrays ``(trials, words, *)``.  A
:class:`ToeplitzElement` is its stacks of one trial, built once, and its
word order is their rows read in order; its operations and the readers
below work on the stacks, and :class:`Word` records are formed only for
``words``: the JSON boundary, norm bounds and the oracles.
:func:`_pair_product` multiplies two stacks on every word pair, pair
``(i, j)`` at word ``i * k2 + j``, for the element product,
:func:`word_multiply` and :func:`_batch_product` alike.
Stacks and delta-basis expansions carry a leading trial axis, each row
with the bits of a one-trial run: numpy's complex array product is the
same at every shape, and coefficients and expansions multiply by parts,
bitwise as scalars.

Exact symbolic identity checking expands elements over the edge-delta
basis, whose spanning words multiply with 0/1 structure constants; the
identities verified here then cancel to exactly zero in floating point.

Vertex representations are realized as matrices on the span of the paths
of length at most ``L`` with a fixed source; column ``mu`` is exact (valid)
iff ``|mu| + (number of creations) <= L``.  :func:`fock_matrix` builds
them from the prepend and strip tables of :class:`TruncatedFock`, stack
by stack; :meth:`TruncatedFock.word_matrix`, the dense product of the
factor matrices, is the reference the tests compare against.

:func:`reconstruct_module_check` checks its identities in the delta basis
alone: exactly, and by a product-rule residual that compares each word
product the library forms with the delta-basis product of its factors'
expansions.  It repeats the same chains of products on every block of
trials, so each layer is split into a structure half and an arithmetic
half that a block runs: the delta-basis keys, gathers and term pairs
are recorded in a :class:`_Plan` by one support run of the identity,
which no drawn value enters.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress, product

import numpy as np

from .errors import DomainError, FormatError, MismatchError, SizeLimitError
from .graphs import (FiniteGraph, check_trials, path_counts,
                     path_index_tuples)
from .modules import (ModuleElement, VertexFunction, _tensor_inner,
                      inner_product, left_action, module_norm,
                      random_module_element, random_vertex_function,
                      right_action)
from .report import Check

__all__ = [
    "Word", "ToeplitzElement", "word", "pi_word", "iota_word",
    "word_multiply", "vacuum_projection", "spectral_component",
    "gauge_scale", "TruncatedFock", "fock_matrix", "FockMatrix",
    "vacuum_projection_checks", "reconstruct_module_check",
    "triple_iso_transport",
]


# ---------------------------------------------------------------------------
# words and elements


@dataclass(frozen=True)
class Word:
    """``coeff * C(left_1)...C(left_m) P(middle) C(right_n)*...C(right_1)*``.

    ``right`` lists the annihilation tensor factors in path order: the
    factor ``right[0]`` acts first.  ``middle is None`` means the unit
    coefficient.  Gauge degree is ``len(left) - len(right)``.
    """
    coeff: complex
    left: tuple
    middle: VertexFunction | None
    right: tuple

    @property
    def degree(self) -> int:
        return len(self.left) - len(self.right)

    @property
    def creations(self) -> int:
        return len(self.left)

    @property
    def annihilations(self) -> int:
        return len(self.right)

    def graph(self):
        if self.left:
            return self.left[0].graph
        if self.middle is not None:
            return self.middle.graph
        if self.right:
            return self.right[0].graph
        return None

    def norm_bound(self) -> float:
        """Submultiplicative bound on the operator norm of the word."""
        b = abs(self.coeff)
        for x in self.left:
            b *= module_norm(x)
        if self.middle is not None:
            b *= self.middle.sup_norm()
        for y in self.right:
            b *= module_norm(y)
        return b


def word(coeff, left=(), middle=None, right=()) -> Word:
    """Build a word in normal form (middle absorbed into the last creation)."""
    left = tuple(left)
    right = tuple(right)
    if middle is not None and left:
        left = left[:-1] + (right_action(left[-1], middle),)
        middle = None
    return Word(complex(coeff), left, middle, right)


def pi_word(a: VertexFunction, coeff=1.0) -> Word:
    return word(coeff, (), a, ())


def iota_word(x: ModuleElement, coeff=1.0) -> Word:
    return word(coeff, (x,), None, ())


def word_multiply(w1: Word, w2: Word):
    """Normal form of ``w1 w2``: a single word, or ``None`` when zero; the
    one-pair case of the element product."""
    factors = [f for w in (w1, w2) for f in (*w.left, w.middle, *w.right)
               if f is not None]
    g = factors[0].graph if factors else None
    if any(f.graph is not g for f in factors):
        raise MismatchError("words live over different graphs")
    if g is not None and not isinstance(g, FiniteGraph):
        raise FormatError("the word algebra is defined for finite graphs")
    bt = _pair_product(_word_stacks([w1])[0], _word_stacks([w2])[0], g)
    return _row_word(g, bt, 0) if _live_words(*bt[2:])[0, 0] else None


def _reduce(f1, f2, graph: FiniteGraph):
    """The product rule: the factors ``(left, middle, right)`` of the
    normal form of ``w1 w2``, less the coefficient, from those of ``w1``
    and ``w2``, lists of edge arrays and a vertex array or ``None`` on any
    common leading shape.  The meeting annihilations and creations chain
    into inner products by :func:`~graphcorr.modules._tensor_inner`; the
    rest acts on the first surviving creation by the left action, or
    conjugated on the first surviving annihilation, and a middle beside
    creations is absorbed into the last one."""
    (l1, mid1, r1), (l2, mid2, r2) = f1, f2
    cc = _tensor_inner(r1, l2, graph)
    if len(r1) <= len(l2):
        mid, rem = _times(mid1, cc), l2[len(r1):]
        if rem and mid is not None:
            rem[0] = mid[..., graph.rng_idx] * rem[0]
        left, middle, right = ((l1 + rem, mid2, r2) if rem
                               else (l1, _times(mid, mid2), r2))
    else:
        rem, b = r1[len(l2):], _times(cc, mid2)
        if b is not None:
            rem[0] = b.conj()[..., graph.rng_idx] * rem[0]
        left, middle, right = l1, mid1, r2 + rem
    if middle is not None and left:
        left[-1], middle = left[-1] * middle[..., graph.src_idx], None
    return left, middle, right


def _times(a, b):
    """``a * b`` with ``None`` as the unit."""
    return b if a is None else a if b is None else a * b


class ToeplitzElement:
    """Finite formal sum of words over a fixed finite graph, held as its
    shape stacks, built once: ``stacks``, one ``(m, n, coeffs, lefts,
    middles or None, rights)`` of one trial per shape ``(m, n, has
    middle)``, shapes as first seen.  Its words are the stacks' rows read
    in order, each shape's words in the order given.  Words with
    bitwise-identical factors are merged at the first, their coefficients
    summed in order, and zero words dropped.  ``words`` lists the words as
    :class:`Word` records, in that order."""

    def __init__(self, graph: FiniteGraph, words=()):
        if not isinstance(graph, FiniteGraph):
            raise FormatError("the word algebra is defined for finite graphs")
        self.graph = graph
        words = tuple(words)
        if any(w.graph() not in (None, graph) for w in words):
            raise MismatchError("a word lives over a different graph")
        self.stacks = _normal_stacks(_word_stacks(words))

    @classmethod
    def _of(cls, graph: FiniteGraph, stacks) -> "ToeplitzElement":
        """The sum of the words of ``stacks``, in order."""
        elem = cls.__new__(cls)
        elem.graph = graph
        elem.stacks = _normal_stacks(stacks)
        return elem

    @property
    def words(self) -> tuple:
        """The same records on every call: the memos of a word sit in its
        instance dict."""
        if "_words" not in self.__dict__:
            self._words = tuple(_row_word(self.graph, bt, r)
                                for bt in self.stacks
                                for r in range(bt[2].shape[1]))
        return self._words

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        self._check(other)
        return ToeplitzElement._of(self.graph, self.stacks + other.stacks)

    def __sub__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return self + other.scaled(-1.0)

    def scaled(self, c) -> "ToeplitzElement":
        return _rescaled(self, lambda m, n: c)

    def __mul__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        """The word pairs' products by :func:`_batch_product`, summed."""
        self._check(other)
        return ToeplitzElement._of(
            self.graph, _batch_product(self.stacks, other.stacks, self.graph))

    def adjoint(self) -> "ToeplitzElement":
        stacks = []
        for m, n, c, lefts, mid, rights in self.stacks:
            left, mid = list(rights), None if mid is None else mid.conj()
            if mid is not None and left:
                left[-1], mid = left[-1] * mid[..., self.graph.src_idx], None
            stacks.append((n, m, c.conj(), left, mid, list(lefts)))
        return ToeplitzElement._of(self.graph, stacks)

    def _check(self, other):
        if self.graph is not other.graph:
            raise MismatchError("elements live over different graphs")

    # -- grading ------------------------------------------------------------

    def degrees(self) -> set[int]:
        return {m - n for m, n, *_ in self.stacks}

    def norm_bound(self) -> float:
        return sum(w.norm_bound() for w in self.words)

    def __repr__(self):
        words = sum(bt[2].shape[1] for bt in self.stacks)
        return f"ToeplitzElement({words} words)"


def _word_stacks(words) -> list:
    """The stacks of ``words`` by shape, shapes as first seen, each shape's
    words in the order given."""
    groups: dict = {}
    for w in words:
        groups.setdefault((len(w.left), len(w.right), w.middle is not None),
                          []).append(w)
    stacks = []
    for (m, n, _), ws in groups.items():
        f = [None if fs[0] is None else np.array([[x.values for x in fs]])
             for fs in zip(*[(*w.left, w.middle, *w.right) for w in ws])]
        stacks.append((m, n, np.array([[w.coeff for w in ws]], dtype=complex),
                       f[:m], f[m], f[m + 1:]))
    return stacks


def _row_word(graph, bt, r: int) -> Word:
    """Word ``r`` of the one-trial stack ``bt``."""
    _, _, c, lefts, middles, rights = bt
    return Word(complex(c[0, r]),
                tuple(ModuleElement(graph, x[0, r]) for x in lefts),
                None if middles is None else VertexFunction(graph,
                                                            middles[0, r]),
                tuple(ModuleElement(graph, y[0, r]) for y in rights))


def _normal_stacks(stacks) -> tuple:
    """The stacks of the sum of the words of ``stacks`` (one trial): the
    stacks of a shape joined in order, shapes as first seen, zero words
    dropped, words with bitwise-identical factors merged at the first,
    their coefficients summed in order by Python's complex addition, and
    words whose sum is zero dropped.  A stack none of whose words moves is
    kept as it is."""
    out = []
    for bt in _concat_batches(stacks):
        coeffs = bt[2][0].tolist()
        factors = np.concatenate([np.zeros((len(coeffs), 0))] + [
            a[0] for a in (*bt[3], bt[4], *bt[5]) if a is not None], axis=1)
        first, sums = {}, {}
        for r, live in enumerate(_live_words(*bt[2:])[0].tolist()):
            if live:
                r0 = first.setdefault(factors[r].tobytes(), r)
                sums[r0] = sums[r0] + coeffs[r] if r0 != r else coeffs[r]
        at = [r for r, c in sums.items() if c != 0]
        if at and at != list(range(len(coeffs))):
            m, n, _, lefts, middles, rights = bt
            bt = (m, n, np.array([[sums[r] for r in at]]),
                  [x[:, at] for x in lefts],
                  None if middles is None else middles[:, at],
                  [y[:, at] for y in rights])
        if at:
            out.append(bt)
    return tuple(out)


def _rescaled(elem: ToeplitzElement, weight) -> ToeplitzElement:
    """``elem`` with the coefficients of a stack of shape ``(m, n)`` times
    ``weight(m, n)``, by Python's complex product as a word is scaled."""
    return ToeplitzElement._of(elem.graph, [
        (m, n, np.array([[x * weight(m, n) for x in c[0].tolist()]]), *f)
        for m, n, c, *f in elem.stacks])


def gauge_scale(elem: ToeplitzElement, z: complex) -> ToeplitzElement:
    """Gauge action: scale each word of degree ``n`` by ``z**n``."""
    weights = {n: _gauge_weight(z, n) for n in sorted(elem.degrees())}
    return _rescaled(elem, lambda m, n: weights[m - n])


def _gauge_weight(z: complex, n: int) -> complex:
    """``z**n``, by which the gauge action scales a word of degree ``n``."""
    if z == 0 and n < 0:
        raise DomainError("z**n is undefined at z = 0 for a word of negative "
                          "degree n (e^-beta is 0 above beta ~ 745)")
    return z ** n


def spectral_component(elem: ToeplitzElement, n: int) -> ToeplitzElement:
    """Sub-sum of words of gauge degree ``n``."""
    return ToeplitzElement._of(
        elem.graph, [bt for bt in elem.stacks if bt[0] - bt[1] == n])


def vacuum_projection(graph: FiniteGraph) -> ToeplitzElement:
    """``1 - sum_e C(delta_e) C(delta_e)*``.

    In every vertex representation this acts as the rank-one projection
    onto the empty path; it is selfadjoint and idempotent in the word
    algebra.  The singleton-edge indicators are the canonical partition of
    unity over a finite edge set, the rows of the identity.
    """
    ne = graph.n_edges
    deltas = np.eye(ne, dtype=complex)[None]
    return ToeplitzElement._of(graph, [
        (0, 0, np.ones((1, 1), dtype=complex), [], None, []),
        (1, 1, np.full((1, ne), -1.0 + 0j), [deltas], None, [deltas])])


# ---------------------------------------------------------------------------
# canonical delta-basis expansion (finite graphs); an expansion is ``(keys,
# coeffs)``, spanning words ``(mu, v, nu)`` and a ``(trials, keys)`` array


def _cmul(a, b):
    """``a * b`` from the parts, ``(ar br - ai bi, ar bi + ai br)``: bitwise
    the scalar complex product, which numpy's array product is not."""
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class _Plan:
    """The structure of a chain of delta-basis steps: recorded in call
    order while the chain runs the first time, each :meth:`step` keeping
    what it builds from keys, shapes and the zero terms of that run, and
    replayed in that order after :meth:`replay`."""

    def __init__(self):
        self.steps: list = []
        self.at = None          # replay position, None while recording

    def step(self, build, *args):
        if self.at is None:
            self.steps.append(build(*args))
            return self.steps[-1]
        self.at += 1
        return self.steps[self.at - 1]

    def replay(self) -> "_Plan":
        self.at = 0
        return self


def _collect_plan(keys, terms):
    """The columns of ``terms`` nonzero in some trial, their keys in
    first-seen order, and the position among them of each such column."""
    live = (terms != 0).any(axis=0)
    index: dict = {}
    pos = [index.setdefault(k, len(index)) for k in compress(keys, live)]
    return live, list(index), np.array(pos, dtype=np.intp)


def _collect(keys, terms, plan: _Plan):
    """Sum the columns of ``terms`` into their ``keys`` in order, skipping
    columns zero in every trial of the run that records ``plan``.  A key
    whose terms cancel keeps a zero sum, which changes no residual and, its
    products being zero terms, no later sum; :func:`_as_dict` drops it."""
    live, index, pos = plan.step(_collect_plan, keys, terms)
    out = np.zeros((terms.shape[0], len(index)), dtype=np.complex128)
    np.add.at(out, (slice(None), pos), terms[:, live])
    return index, out


def _expand_plan(batches, graph: FiniteGraph):
    """For stacks of ``(m, n, coeffs, ...)``: the spanning words ``(mu,
    v, nu)`` of a shape, for ``v``, then paths ``mu`` and ``nu`` from
    ``v``, as the edge gathers of each left and right factor and the vertex
    gather of the middle; and the keys, those words once per word of the
    stack."""
    keys, gathers = [], []
    for m, n, c, *_ in batches:
        words = []
        for vi in range(graph.n_vertices):
            nus = path_index_tuples(graph, vi, n)
            words += [(mu, vi, nu) for mu in path_index_tuples(graph, vi, m)
                      for nu in nus]
        mus, vs, nus = (np.array([w[i] for w in words], dtype=np.intp)
                        .reshape((len(words),) + shape)
                        for i, shape in enumerate(((m,), (), (n,))))
        gathers.append((len(words), mus.T, vs, nus.T))
        keys += words * c.shape[-1]
    return keys, gathers


def _expand(batches, graph: FiniteGraph, plan: _Plan | None = None):
    """Expansion of the words of ``batches`` in order: a word puts ``coeff
    * left_1(mu_1) ... middle(v) conj(right_1(nu_1)) ...``, in that order,
    on each spanning word ``(mu, v, nu)`` of its shape."""
    plan = plan or _Plan()
    keys, gathers = plan.step(_expand_plan, batches, graph)
    terms = []
    for (_, _, coeffs, lefts, middles, rights), (size, mus, vs, nus) in zip(
            batches, gathers):
        c = np.repeat(coeffs[..., None], size, axis=-1)
        for x, f in zip(lefts, mus):
            c = _cmul(c, x[..., f])
        if middles is not None:
            c = _cmul(c, middles[..., vs])
        for y, f in zip(rights, nus):
            c = _cmul(c, y[..., f].conj())
        terms.append(c.reshape(c.shape[0], -1))
    return _collect(keys, np.concatenate(terms, axis=1) if terms
                    else np.zeros((1, 0), dtype=np.complex128), plan)


def _multiply_plan(keys1, keys2, graph: FiniteGraph):
    """The pairs ``(first, second)`` of terms of two expansions whose
    product can be nonzero, in scan order (``keys1``, then ``keys2``), and
    the product key of each.  Structure constants are 0/1, and ``(mu, v,
    nu) (mu2, v2, nu2)`` can be nonzero only when one of ``nu`` and ``mu2``
    is a prefix of the other, so ``keys2`` is looked up by ``mu2``."""
    rng = graph.rng_idx.tolist()
    starting: dict = {}     # (prefix of mu2, joint vertex) -> positions
    full: dict = {}         # (mu2, v2) -> positions
    for pos, (mu2, v2, _) in enumerate(keys2):
        full.setdefault((mu2, v2), []).append(pos)
        for k in range(len(mu2) + 1):
            # a term (mu, v, nu) with |nu| = k meets this one only when v
            # is the range of the rest of mu2, or v2 if nothing is left
            joint = rng[mu2[k]] if k < len(mu2) else v2
            starting.setdefault((mu2[:k], joint), []).append(pos)
    first, second, keys = [], [], []
    for i, (mu, v, nu) in enumerate(keys1):
        # mu2 starts with nu at the joint v, or is a proper prefix of nu
        # ending at v2, the range of the rest of nu
        pos = sorted(starting.get((nu, v), []) + [
            j for p in range(len(nu))
            for j in full.get((nu[:p], rng[nu[p]]), ())])
        first += [i] * len(pos)
        second += pos
        for mu2, v2, nu2 in (keys2[j] for j in pos):
            keys.append((mu + mu2[len(nu):], v2, nu2) if len(nu) <= len(mu2)
                        else (mu, v, nu2 + nu[len(mu2):]))
    return (np.array(first, dtype=np.intp), np.array(second, dtype=np.intp),
            keys)


def _basis_multiply(e1, e2, graph: FiniteGraph, plan: _Plan | None = None):
    """Product of two expansions, each product key summing its pairs in
    the scan order of :func:`_multiply_plan`."""
    plan = plan or _Plan()
    (keys1, c1), (keys2, c2) = e1, e2
    first, second, keys = plan.step(_multiply_plan, keys1, keys2, graph)
    return _collect(keys, _cmul(c1[:, first], c2[:, second]), plan)


def _residual_plan(keys1, keys2):
    """The number of keys of ``keys1`` and ``keys2`` together, and the
    position among them of each key of ``keys2``."""
    index = {k: i for i, k in enumerate(keys1)}
    pos = [index.setdefault(k, len(index)) for k in keys2]
    return len(index), np.array(pos, dtype=np.intp)


def _basis_residual(e1, e2, plan: _Plan | None = None) -> np.ndarray:
    """Per trial, the largest ``|coefficient|`` of ``e1 - e2`` (0.0 for
    none), by ``hypot`` of the parts as the scalar ``abs`` takes it."""
    plan = plan or _Plan()
    (keys1, c1), (keys2, c2) = e1, e2
    size, pos = plan.step(_residual_plan, keys1, keys2)
    d = np.zeros((max(len(c1), len(c2)), size), dtype=np.complex128)
    d[:, :c1.shape[1]] = c1
    d[:, pos] -= c2
    return np.fmax.reduce(np.hypot(d.real, d.imag), axis=1, initial=0.0)


def _from_dict(m: dict):
    return list(m), np.array(list(m.values()), dtype=np.complex128)[None]


def _as_dict(expansion) -> dict:
    """The one-trial ``expansion`` as a dict, keys whose sum is zero
    dropped."""
    return {k: c for k, c in zip(expansion[0], expansion[1][0].tolist())
            if c != 0}


def element_delta_basis(elem: ToeplitzElement) -> dict:
    """Expand an element over the spanning delta-basis words.

    Keys are ``(mu, v, nu)`` with ``mu``/``nu`` edge-index path tuples and
    ``v`` a vertex index, in first-seen order; the value is the complex
    coefficient.  Each key stands for ``C(delta_mu) P(delta_v)
    C(delta_nu)*``.  The one-trial row of the trial-stacked :func:`_expand`
    of the element's stacks, so that the terms of a key add in word order;
    the products, taken from the real and imaginary parts, are bitwise
    scalar complex products.
    """
    return _as_dict(_expand(elem.stacks, elem.graph))


def delta_basis_multiply(m1: dict, m2: dict, graph: FiniteGraph) -> dict:
    """Product of two delta-basis expansions: the one-trial row of the
    trial-stacked :func:`_basis_multiply`, with bitwise scalar pair
    products summed in the order of a scan of all pairs."""
    return _as_dict(_basis_multiply(_from_dict(m1), _from_dict(m2), graph))


# ---------------------------------------------------------------------------
# truncated Fock representation


class TruncatedFock:
    """Matrices on ``span{e_mu : mu path, src(mu) = v, |mu| <= L}``.

    The basis lists the edge-index tuples of the paths by length, each
    length in :func:`~graphcorr.graphs.path_index_tuples` order, so the
    vacuum comes first and every window ``|mu| <= k`` is a prefix.  The
    vertex coefficient acts diagonally by the range of the path; creation
    prepends edges and annihilation strips them, both through index tables:

    - strip table: ``parent[i]`` is path ``i`` without its front edge
      ``first[i]`` (both ``-1`` on the vacuum);
    - prepend table: the one-edge extensions of path ``i`` inside the basis
      are the consecutive rows ``child_start[i] : child_start[i] +
      n_children[i]``.  Every path but the vacuum is the extension of
      exactly one path, so no two extensions share a row.
    """

    def __init__(self, graph: FiniteGraph, v, depth: int):
        if depth < 0:
            raise FormatError("depth must be nonnegative")
        self.graph = graph
        self.vertex = v
        self.depth = depth
        vi = graph.vertex_index(v)
        counts = path_counts(graph, vi, depth)
        if sum(counts) > 200_000:
            raise SizeLimitError("truncated basis would be too large")
        self.basis: list[tuple] = [mu for n in range(depth + 1)
                                   for mu in path_index_tuples(graph, vi, n)]
        self.index = {mu: i for i, mu in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.lengths = np.array([len(mu) for mu in self.basis])
        self.parent = np.array([self.index[mu[1:]] if mu else -1
                                for mu in self.basis], dtype=np.intp)
        self.first = np.array([mu[0] if mu else -1 for mu in self.basis],
                              dtype=np.intp)
        self.ranges = np.full(self.dim, vi, dtype=np.intp)
        self.ranges[1:] = graph.rng_idx[self.first[1:]]
        self.n_children = np.bincount(self.parent[1:], minlength=self.dim)
        self.child_start = 1 + np.cumsum(self.n_children) - self.n_children
        self._plans: dict = {}

    def creation_matrix(self, x: ModuleElement) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=np.complex128)
        M[np.arange(1, self.dim), self.parent[1:]] = x.values[self.first[1:]]
        return M

    def coefficient_matrix(self, a: VertexFunction) -> np.ndarray:
        return np.diag(a.values[self.ranges])

    def word_matrix(self, w: Word) -> np.ndarray:
        """Dense product of the word's factor matrices; the reference the
        table-driven :func:`fock_matrix` is tested against."""
        M = np.eye(self.dim, dtype=np.complex128) * w.coeff
        for x in w.left:
            M = M @ self.creation_matrix(x)
        if w.middle is not None:
            M = M @ self.coefficient_matrix(w.middle)
        for y in reversed(w.right):
            M = M @ self.creation_matrix(y).conj().T
        return M

    def _plan(self, m: int, n: int):
        """Index arrays for words with ``m`` creations and ``n``
        annihilations.

        A column ``mu`` with ``|mu| >= n`` is stripped to a path ``s`` and
        then extended by every ``m``-edge path ``f_1 ... f_m`` that fits in
        the basis; each extension gives one entry ``(f_1 ... f_m s, mu)``.
        Returns the stripped edges (one array per annihilation, over the
        surviving columns), the range index of each ``s``, the surviving
        column behind each entry, the created edges (one array per
        creation, over the entries) and the entries' rows and columns.
        """
        key = (m, n)
        if key not in self._plans:
            cols = np.arange(np.searchsorted(self.lengths, n), self.dim)
            cur, stripped = cols, []
            for _ in range(n):
                stripped.append(self.first[cur])
                cur = self.parent[cur]
            ranges = self.ranges[cur]
            rows, source = cur, np.arange(cur.size)
            for _ in range(m):
                counts = self.n_children[rows]
                rep = np.repeat(np.arange(rows.size), counts)
                offset = np.cumsum(counts) - counts
                rows = (np.repeat(self.child_start[rows] - offset, counts)
                        + np.arange(rep.size))
                source = source[rep]
            created, cur = [], rows
            for _ in range(m):
                created.append(self.first[cur])
                cur = self.parent[cur]
            self._plans[key] = (stripped, ranges, source, created, rows,
                                cols[source])
        return self._plans[key]


def _concat_batches(batches) -> list:
    """Stacks of one shape ``(m, n, has middle)`` joined on the word axis,
    shapes as first seen."""
    groups: dict = {}
    for bt in batches:
        groups.setdefault((bt[0], bt[1], bt[4] is not None), []).append(bt)
    return [_join(stacks) for stacks in groups.values()]


def _join(stacks):
    """Stacks of one shape joined on the word axis, a one-trial stack
    broadcast to the trial count of the others, so that it serves each of
    their trials."""
    if len(stacks) == 1:
        return stacks[0]
    m, n, _, _, mid, _ = stacks[0]
    trials = max(len(s[2]) for s in stacks)

    def cat(arrays):
        return np.concatenate([_on_trials(a, trials) for a in arrays], axis=1)
    return (m, n, cat([s[2] for s in stacks]),
            [cat(f) for f in zip(*(s[3] for s in stacks))],
            None if mid is None else cat([s[4] for s in stacks]),
            [cat(f) for f in zip(*(s[5] for s in stacks))])


def _on_trials(a, trials: int):
    """``a`` on ``trials`` trials: a one-trial array, which serves every
    trial, broadcast to them."""
    return a if len(a) == trials else np.broadcast_to(
        a, (trials,) + a.shape[1:])


#: entries of the largest dense matrix :func:`fock_matrix` builds: 2**24
#: complex entries take 256 MiB
MAX_FOCK_ENTRIES = 2**24


@dataclass
class FockMatrix:
    """A truncated matrix together with its valid-window column mask."""
    matrix: np.ndarray
    valid_cols: np.ndarray
    fock: TruncatedFock


def fock_matrix(elem, v, depth: int) -> FockMatrix:
    """Matrix of an element on the depth-``L`` truncated basis at ``v``.

    Raises when the window cannot hold even the empty path column, i.e.
    when ``L`` is smaller than the creation count of some word, and when
    the dense matrix would have more than :data:`MAX_FOCK_ENTRIES` entries.
    """
    fock = TruncatedFock(elem.graph, v, depth)
    if fock.dim ** 2 > MAX_FOCK_ENTRIES:
        raise SizeLimitError(
            f"a {fock.dim} x {fock.dim} matrix exceeds the "
            f"{MAX_FOCK_ENTRIES} entry limit")
    m_max = max((bt[0] for bt in elem.stacks), default=0)
    if depth < m_max:
        raise SizeLimitError(
            f"depth {depth} below creation length {m_max}; no valid window")
    M = np.zeros((fock.dim, fock.dim), dtype=np.complex128)
    for m, n, coeffs, lefts, middles, rights in elem.stacks:
        # each shape's words summed in order on its entries, which are
        # distinct, and the shapes added in order; each factor goes through
        # the call _times, so that numpy cannot reuse it as a temporary and
        # multiply in place as ``factor * c``, which swaps the operands and
        # can round otherwise
        stripped, ranges, source, created, rows, cols = fock._plan(m, n)
        c = np.repeat(coeffs[..., None], rows.size, axis=-1)
        for y, edges in zip(rights, stripped):
            c = _times(c, y[..., edges[source]].conj())
        if middles is not None:
            c = _times(c, middles[..., ranges[source]])
        for x, edges in zip(lefts, created):
            c = _times(c, x[..., edges])
        M[rows, cols] += c.sum(axis=1)[0]
    valid = fock.lengths + m_max <= depth
    return FockMatrix(matrix=M, valid_cols=valid, fock=fock)


# ---------------------------------------------------------------------------
# vacuum projection and reconstruction identities


def vacuum_projection_checks(graph: FiniteGraph, depth: int) -> list:
    """``idempotent``, ``selfadjoint`` and ``rank-one`` checks of the
    vacuum projection: the first two exactly in the delta basis, the last
    as the bitwise rank-one vacuum matrix at every vertex to ``depth``."""
    p = vacuum_projection(graph)
    pb = _expand(p.stacks, graph)
    r_idem = float(_basis_residual(_basis_multiply(pb, pb, graph), pb)[0])
    r_adj = float(_basis_residual(_expand(p.adjoint().stacks, graph), pb)[0])
    exact = all([np.array_equal(fm.matrix, np.diag(fm.fock.lengths == 0))
                 for fm in (fock_matrix(p, v, depth) for v in graph.vertices)])
    return [Check("idempotent", r_idem == 0.0, r_idem),
            Check("selfadjoint", r_adj == 0.0, r_adj),
            Check("rank-one", exact, 0.0 if exact else 1.0)]


def _batch_product(batches1, batches2, graph: FiniteGraph) -> list:
    """The shape stacks of ``e1 * e2`` from those of ``e1`` and ``e2``,
    trial by trial (a one-trial operand serves every trial): each pair of
    stacks gives the stack of all its word pairs by :func:`_pair_product`,
    so every row is bitwise the product of its two words that the element
    product forms, zero or not; none merged.  The pairs' stacks of one
    product shape are joined by :func:`_join`, in order.  The element
    product, the reconstruction's product rule and the KMS condition all
    multiply here."""
    return _concat_batches([_pair_product(bt1, bt2, graph)
                            for bt1, bt2 in product(batches1, batches2)])


def _pair_product(bt1, bt2, graph: FiniteGraph) -> tuple:
    """The stack of the products of every word ``i`` of ``bt1`` with every
    word ``j`` of ``bt2``, pair ``(i, j)`` at word ``i * k2 + j``, zero
    products kept: factors by :func:`_reduce` and coefficients by
    :func:`_cmul`.  The stacks enter as views ``(trials, k1, 1, *)`` and
    ``(trials, 1, k2, *)``, which meet on pair ``(i, j)`` at ``[:, i, j]``
    by broadcasting (a one-trial stack serves every trial), and the
    products are read out flat, ``(trials, k1 * k2, *)``."""
    c = _cmul(bt1[2][:, :, None], bt2[2][:, None])
    rows = (len(c), c.shape[1] * c.shape[2])

    def flat(a):
        if a.shape[:3] != c.shape:
            full = np.empty(c.shape + a.shape[3:], a.dtype)
            full[...] = a
            a = full
        return a.reshape(rows + a.shape[3:])
    left, middle, right = _reduce(*(
        ([view(a) for a in ls], None if mid is None else view(mid),
         [view(a) for a in rs])
        for (_, _, _, ls, mid, rs), view in (
            (bt1, lambda a: a[:, :, None]), (bt2, lambda a: a[:, None]))),
        graph)
    return (len(left), len(right), flat(c), [flat(x) for x in left],
            None if middle is None else flat(middle), [flat(y) for y in right])


def _one_word_stack(left=(), middle=None, right=()) -> list:
    """The shape batches of the one-word elements ``C(left...) P(middle)
    C(right...)*`` with coefficient 1, from factors ``(trials, *)``, at
    least one given."""
    trials = len(next(f for f in (*left, middle, *right) if f is not None))
    return [(len(left), len(right), np.ones((trials, 1), dtype=complex),
             [x[:, None] for x in left],
             None if middle is None else middle[:, None],
             [y[:, None] for y in right])]


def _live_words(c, ls, mid, rs) -> np.ndarray:
    """Per trial and word: coefficient and every factor array nonzero."""
    live = c != 0
    for a in ls + rs + [mid]:
        if a is not None:
            live = live & a.any(axis=-1)
    return live


#: trials stacked at once: a block's Python work is the same at any size, as
#: the structure of the identities is planned once a call, while a trial's
#: arrays take up to some 40 kB on the larger fixtures
TRIAL_BLOCK = 25


def reconstruct_module_check(graph: FiniteGraph, trials: int = 100,
                             tol: float = 1e-12, seed: int = 0) -> Check:
    """Verify the identities that cut the module back out of the algebra.

    For random module elements ``xi``, ``eta`` and coefficients ``a``:

    (i)   the vacuum projection commutes with ``P(a)``;
    (ii)  ``p C(xi)* C(eta) p = P(<xi, eta>) p``;
    (iii) words of positive degree with at least one annihilation kill the
          projection: ``C^{n+1}(x) C^{n}(y)* p = 0`` for n = 1, 2;
    (iv)  ``P(a) C(xi) p = C(a . xi) p``.

    Each identity is checked in the delta basis alone, twice: exactly,
    where it must cancel to ``0.0``, and by the product rule, where the
    word product that the library forms of some of its left factors
    (``p P(a)``, ``C(xi)* C(eta)``, ``P(a) C(xi)``; none for (iii)) must
    expand to the delta-basis product of those factors' expansions within
    ``tol``.  Trials are drawn in order and stacked :data:`TRIAL_BLOCK` at
    a time on a trial axis (:func:`_reconstruction_block`), every trial
    with the bits of a one-trial run.  The structure of each identity is
    planned once a call and shared by the blocks: its delta-basis keys,
    gathers and term pairs in a :class:`_Plan`, recorded by a support run
    that no block's values choose (:class:`_Shared`).  A trial's identity
    passes when its delta-basis residual is ``0.0`` and its product-rule
    residual at most ``tol``.  The check returned carries the largest
    residual and names the first failing identity, or counts them.
    """
    check_trials(trials)
    shared = _Shared(graph)
    rng = np.random.default_rng(seed)
    sym, num = map(np.concatenate, zip(*[
        _reconstruction_block(graph, rng, min(TRIAL_BLOCK, trials - start),
                              shared)
        for start in range(0, trials, TRIAL_BLOCK)]))
    failed = np.flatnonzero((sym != 0.0) | ~(num <= tol))
    detail = f"{sym.size} identities"
    if failed.size:
        t, i = divmod(int(failed[0]), sym.shape[1])
        detail = shared.names[i].format(t)
    return Check("reconstruction", not failed.size,
                 np.maximum(sym, num).max(), detail)


class _Shared:
    """What the trial blocks of one :func:`reconstruct_module_check` call
    share: the vacuum projection's stacks and expansion, and per identity
    its name and the :class:`_Plan` of its delta-basis steps.

    Each identity's plan is recorded by a support run of it: the vacuum
    projection enters with its 0/1 entries (the absolute values of its
    coefficients; its factors are edge deltas) and every drawn array with
    all entries 1.  That arithmetic adds nonnegative terms and cancels
    nothing, so a sum is zero only when all its terms are, and every term
    that any finite draw makes nonzero is kept, and with it its key.  On a
    block's values the others are exact zeros, and ``x + 0 = x`` leaves
    every sum, so every residual, bitwise as it is.
    """

    def __init__(self, graph: FiniteGraph):
        self.p = vacuum_projection(graph).stacks
        self.p_basis = _expand(self.p, graph)
        p = [(m, n, np.abs(c), *f) for m, n, c, *f in self.p]
        p_basis = (self.p_basis[0], np.abs(self.p_basis[1]))
        v, e = np.ones((1, graph.n_vertices)), np.ones((1, graph.n_edges))
        support = _identities(p, v, e, e, [e] * 8, v, e)
        self.names = [name for name, *_ in support]
        self.plans = [_Plan() for _ in support]
        for (_, *sides), plan in zip(support, self.plans):
            _identity_run(*sides, p, p_basis, graph, plan)


def _identities(p, a, xi, eta, fs, ip, axi) -> list:
    """The identities of :func:`reconstruct_module_check` on the vacuum
    projection's stacks ``p`` and ``(trials, *)`` arrays: the coefficient
    ``a``, the module elements ``xi`` and ``eta``, the eight factors ``fs``
    of the annihilate words, ``ip = <xi, eta>`` and ``axi = a . xi``.  Per
    identity: its name, the factors of both sides, the slice of left
    factors whose word product the product rule checks, or ``None``, and
    whether the symbolic side takes that word product in place of those
    factors, so that both sides share their floating-point arrays and
    cancel through 0/1 constants only."""
    stack = _one_word_stack
    pa, crt_xi = stack(middle=a), stack(left=[xi])
    return [
        ("commute[{}]", [p, pa], [pa, p], slice(0, 2), False),
        ("compress[{}]", [p, stack(right=[xi]), stack(left=[eta]), p],
         [stack(middle=ip), p], slice(1, 3), True),
        ("annihilate[n=1,{}]", [stack(fs[:2], None, fs[2:3]), p], [[]], None,
         False),
        ("annihilate[n=2,{}]", [stack(fs[3:6], None, fs[6:]), p], [[]], None,
         False),
        ("bimodule[{}]", [pa, crt_xi, p], [stack(left=[axi]), p],
         slice(0, 2), True)]


def _identity_run(lhs, rhs, rule, substitute, p, p_basis, graph: FiniteGraph,
                  plan: _Plan):
    """Per trial, an identity's delta-basis residual and its product-rule
    residual (0.0 with no ``rule``): each side's factors ``lhs`` and
    ``rhs`` expanded (``p`` by ``p_basis``) and multiplied in turn, and
    the expansion of the word product of the left factors ``rule``, formed
    on all word pairs by :func:`_batch_product`, against the delta-basis
    product of theirs.  The left side takes that word product in their
    place if ``substitute``, and their delta-basis product otherwise; every
    delta-basis step on ``plan``."""
    def expand(factors):
        return [p_basis if f is p else _expand(f, graph, plan)
                for f in factors]

    def basis(expansions):
        return functools.reduce(
            lambda e1, e2: _basis_multiply(e1, e2, graph, plan), expansions)
    sym = expand(lhs)
    residual = 0.0
    if rule is not None:
        words = _expand(functools.reduce(
            lambda b1, b2: _batch_product(b1, b2, graph), lhs[rule]),
            graph, plan)
        product = basis(sym[rule])
        residual = _basis_residual(words, product, plan)
        sym[rule] = [words if substitute else product]
    return _basis_residual(basis(sym), basis(expand(rhs)), plan), residual


def _reconstruction_block(graph, rng, size: int, shared: _Shared):
    """The next ``size`` trials stacked on a trial axis: arrays ``(size,
    identities)`` of their delta-basis and product-rule residuals."""
    # per trial: a, xi, eta, the words' factors, as modules.random_* draw them
    nv, ne = graph.n_vertices, graph.n_edges
    z = rng.standard_normal((size, 2 * nv + 20 * ne))
    a = z[:, :nv] + 1j * z[:, nv:2 * nv]
    z = z[:, 2 * nv:].reshape(size, 10, 2, ne)
    xi, eta, *fs = (z[:, :, 0] + 1j * z[:, :, 1]).transpose(1, 0, 2)
    ip = _tensor_inner([xi], [eta], graph)
    axi = a[:, graph.rng_idx] * xi
    identities = _identities(shared.p, a, xi, eta, fs, ip, axi)

    sym = np.zeros((size, len(identities)))
    num = np.zeros_like(sym)
    for i, ((_, *sides), plan) in enumerate(zip(identities, shared.plans)):
        sym[:, i], num[:, i] = _identity_run(
            *sides, shared.p, shared.p_basis, graph, plan.replay())
    return sym, num


# ---------------------------------------------------------------------------
# transport of triple isomorphisms


def triple_iso_transport(iso, E: FiniteGraph, F: FiniteGraph,
                         trials: int = 20, tol: float = 1e-12,
                         seed: int = 0) -> Check:
    """Relabel the algebra along ``iso``, a ``GraphIsomorphism`` ``E -> F``
    whose index arrays permute edges and vertices, and verify transport:
    the induced module map ``theta_X(xi) = xi . (edge map)^{-1}`` must
    carry the vacuum projection to the vacuum projection, preserve gauge
    degrees, and intertwine inner products and both module actions, which
    must also meet their definitions ``a(r(e)) xi(e)`` and ``xi(e)
    a(s(e))`` on ``E``; the ``transport`` check returned carries the
    largest residual.  The vacuum projection and a word of one creation
    and two annihilations, whose degree is checked, are carried once a
    call, as no drawn value can change their outcome.
    """
    check_trials(trials)
    iso.verify(E, F)
    rng = np.random.default_rng(seed)

    edge_of = np.argsort(iso.edges)         # E's edge behind each F edge
    vertex_of = np.argsort(iso.vertices)

    def theta_x(x: ModuleElement) -> ModuleElement:
        return ModuleElement(F, x.values[edge_of])

    def theta_m(a: VertexFunction) -> VertexFunction:
        return VertexFunction(F, a.values[vertex_of])

    worst = float(_basis_residual(
        _expand(_theta(vacuum_projection(E).stacks, edge_of, vertex_of), F),
        _expand(vacuum_projection(F).stacks, F))[0])
    ones = np.ones((1, E.n_edges))
    degree_ok = [len(ls) - len(rs) for *_, ls, _, rs in _theta(
        _one_word_stack([ones], None, [ones, ones]), edge_of,
        vertex_of)] == [-1]
    passed = worst == 0.0 and degree_ok
    worst = max(worst, 0.0 if degree_ok else 1.0)

    for _ in range(trials):
        xi = random_module_element(E, rng)
        eta = random_module_element(E, rng)
        a = random_vertex_function(E, rng)
        ax, xa = left_action(a, xi), right_action(xi, a)
        res = [np.max(np.abs(got - want), initial=0.0) for got, want in (
            (inner_product(theta_x(xi), theta_x(eta)).values,
             theta_m(inner_product(xi, eta)).values),
            (theta_x(ax).values, left_action(theta_m(a), theta_x(xi)).values),
            (theta_x(xa).values,
             right_action(theta_x(xi), theta_m(a)).values),
            (ax.values, a.values[E.rng_idx] * xi.values),
            (xa.values, xi.values * a.values[E.src_idx]))]
        passed = passed and all(r <= tol for r in res)
        worst = max(worst, *res)
    return Check("transport", passed, worst)


def _theta(stacks, edge_of, vertex_of) -> list:
    """``stacks`` carried along an isomorphism: every edge array gathered
    by ``edge_of`` and every vertex array by ``vertex_of``, the edge and
    vertex of the source graph behind each of the target's."""
    return [(m, n, c, [x[..., edge_of] for x in lefts],
             None if middles is None else middles[..., vertex_of],
             [y[..., edge_of] for y in rights])
            for m, n, c, lefts, middles, rights in stacks]
