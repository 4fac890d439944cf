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
:class:`ToeplitzElement` is its stacks of one trial, built once, with the
places of their words in word order; its operations and the readers
below work on the stacks, and :class:`Word` records are formed only for
``words``: the JSON boundary, norm bounds and the oracles.
:func:`_pair_product` multiplies two stacks on given word pairs, for
the element product and :func:`word_multiply` on all pairs in loop order
and for :func:`_batch_product` on the pairs that a recorded run finds
nonzero, or on all pairs as broadcast views, for that run's mask.
Stacks and delta-basis expansions carry a leading trial axis, each row
with the bits of a one-trial run: numpy's complex array product is the
same at every shape, and coefficients and expansions multiply by parts,
bitwise as scalars.

Exact symbolic identity checking expands elements over the edge-delta
basis, whose spanning words multiply with 0/1 structure constants; the
identities verified here then cancel to exactly zero in floating point.

Vertex representations are realized as matrices on the span of the paths
of length at most ``L`` with a fixed source; column ``mu`` is exact (valid)
iff ``|mu| + (number of creations) <= L``.  Words act on path indices
through the prepend and strip tables of :class:`TruncatedFock`, stack by
stack; :meth:`TruncatedFock.word_matrix`, the dense product of the factor
matrices, is the reference the tests compare against.

:func:`reconstruct_module_check` repeats the same chains of products on
every block of trials, so each layer is split into a structure half and an
arithmetic half that a block runs: the word pairs of each product and the
delta-basis keys, gathers and term pairs are recorded in a :class:`_Plan`
by one support run of the identity, which no drawn value enters, and
windows are summed on the matrix entries the words reach, each value
formed once (:func:`_window_plan`).
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
from .report import Check, summarize

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
    bt = _pair_product(_word_stacks([w1])[0][0], _word_stacks([w2])[0][0], g,
                       ([0], [0]))
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
    middle)``, shapes as first seen, and ``positions``, the places of each
    stack's words in word order.  Words with bitwise-identical factors are
    merged, their coefficients summed in order, and zero words dropped.
    ``words`` lists the words as :class:`Word` records, in order."""

    def __init__(self, graph: FiniteGraph, words=()):
        if not isinstance(graph, FiniteGraph):
            raise FormatError("the word algebra is defined for finite graphs")
        self.graph = graph
        words = tuple(words)
        if any(w.graph() not in (None, graph) for w in words):
            raise MismatchError("a word lives over a different graph")
        self.stacks, self.positions = _normal_stacks(*_word_stacks(words))

    @classmethod
    def _of(cls, graph: FiniteGraph, stacks, order) -> "ToeplitzElement":
        """The sum of the words of ``stacks`` taken in the order of their
        keys ``order``, one sequence of integers per stack."""
        elem = cls.__new__(cls)
        elem.graph = graph
        elem.stacks, elem.positions = _normal_stacks(stacks, order)
        return elem

    @property
    def words(self) -> tuple:
        """The same records on every call: the memos of a word sit in its
        instance dict."""
        if "_words" not in self.__dict__:
            self._words = tuple(_row_word(self.graph, self.stacks[k], r)
                                for k, r in self._rows())
        return self._words

    def _rows(self) -> list:
        """``(stack, row)`` of every word, in word order."""
        return [(k, r) for _, k, r in sorted(
            (p, k, r) for k, at in enumerate(self.positions)
            for r, p in enumerate(at))]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        self._check(other)
        k = sum(map(len, self.positions))
        return ToeplitzElement._of(
            self.graph, self.stacks + other.stacks,
            self.positions + tuple([p + k for p in at]
                                   for at in other.positions))

    def __sub__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return self + other.scaled(-1.0)

    def scaled(self, c) -> "ToeplitzElement":
        return _rescaled(self, lambda m, n: c)

    def __mul__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        """The word pairs' products, in the order of a loop over the words
        of ``self`` and, within, of ``other``, summed."""
        self._check(other)
        k = sum(map(len, other.positions))
        pairs = list(product(zip(self.stacks, self.positions),
                             zip(other.stacks, other.positions)))
        return ToeplitzElement._of(
            self.graph, [_pair_product(bt1, bt2, self.graph, np.divmod(
                np.arange(len(at1) * len(at2)), len(at2)))
                for (bt1, at1), (bt2, at2) in pairs],
            [[p1 * k + p2 for p1 in at1 for p2 in at2]
             for (_, at1), (_, at2) in pairs])

    def adjoint(self) -> "ToeplitzElement":
        stacks = []
        for m, n, c, lefts, mid, rights in self.stacks:
            left, mid = list(rights), None if mid is None else mid.conj()
            if mid is not None and left:
                left[-1], mid = left[-1] * mid[..., self.graph.src_idx], None
            stacks.append((n, m, c.conj(), left, mid, list(lefts)))
        return ToeplitzElement._of(self.graph, stacks, self.positions)

    def _check(self, other):
        if self.graph is not other.graph:
            raise MismatchError("elements live over different graphs")

    # -- grading ------------------------------------------------------------

    def degrees(self) -> set[int]:
        return {m - n for m, n, *_ in self.stacks}

    def norm_bound(self) -> float:
        return sum(w.norm_bound() for w in self.words)

    def __repr__(self):
        return f"ToeplitzElement({sum(map(len, self.positions))} words)"


def _word_stacks(words) -> tuple:
    """The stacks of ``words`` by shape, shapes as first seen, and per
    stack the places of its words in ``words``."""
    groups: dict = {}
    for i, w in enumerate(words):
        groups.setdefault((len(w.left), len(w.right), w.middle is not None),
                          []).append(i)
    stacks = []
    for (m, n, _), at in groups.items():
        ws = [words[i] for i in at]
        f = [None if fs[0] is None else np.array([[x.values for x in fs]])
             for fs in zip(*[(*w.left, w.middle, *w.right) for w in ws])]
        stacks.append((m, n, np.array([[w.coeff for w in ws]], dtype=complex),
                       f[:m], f[m], f[m + 1:]))
    return stacks, list(groups.values())


def _row_word(graph, bt, r: int) -> Word:
    """Word ``r`` of the one-trial stack ``bt``."""
    _, _, c, lefts, middles, rights = bt
    return Word(complex(c[0, r]),
                tuple(ModuleElement(graph, x[0, r]) for x in lefts),
                None if middles is None else VertexFunction(graph,
                                                            middles[0, r]),
                tuple(ModuleElement(graph, y[0, r]) for y in rights))


def _take(bt, rows) -> tuple:
    """The stack ``bt`` on its words ``rows``, indices or a slice."""
    m, n, c, lefts, middles, rights = bt
    return (m, n, c[:, rows], [x[:, rows] for x in lefts],
            None if middles is None else middles[:, rows],
            [y[:, rows] for y in rights])


def _normal_stacks(stacks, order) -> tuple:
    """The stacks and positions of the sum of the words of ``stacks`` (one
    trial) taken in the order of their keys ``order``: zero words dropped,
    words with bitwise-identical factors merged at the first, their
    coefficients summed in order by Python's complex addition, and words
    whose sum is zero dropped.  A stack none of whose words moves is kept
    as it is."""
    out = []
    for ks in _by_shape(stacks).values():
        bt = _join([stacks[k] for k in ks])
        keys = [p for k in ks for p in order[k]]
        live = _live_words(*bt[2:])[0].tolist()
        factors = np.concatenate([np.zeros((len(keys), 0))] + [
            a[0] for a in (*bt[3], bt[4], *bt[5]) if a is not None], axis=1)
        coeffs = bt[2][0].tolist()
        first, sums = {}, {}
        for r in sorted(range(len(keys)), key=keys.__getitem__):
            if live[r]:
                r0 = first.setdefault(factors[r].tobytes(), r)
                sums[r0] = sums[r0] + coeffs[r] if r0 != r else coeffs[r]
        at = [r for r, c in sums.items() if c != 0]
        if at and at != list(range(len(keys))):
            bt = (*bt[:2], np.array([[sums[r] for r in at]]),
                  *_take(bt, at)[3:])
        if at:
            out.append((bt, [keys[r] for r in at]))
    out.sort(key=lambda stack: stack[1][0])
    rank = {p: i for i, p in enumerate(sorted(p for _, ps in out for p in ps))}
    return (tuple(bt for bt, _ in out),
            tuple(tuple(rank[p] for p in ps) for _, ps in out))


def _rescaled(elem: ToeplitzElement, weight) -> ToeplitzElement:
    """``elem`` with the coefficients of a stack of shape ``(m, n)`` times
    ``weight(m, n)``, by Python's complex product as a word is scaled."""
    return ToeplitzElement._of(elem.graph, [
        (m, n, np.array([[x * weight(m, n) for x in c[0].tolist()]]), *f)
        for m, n, c, *f in elem.stacks], elem.positions)


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
    keep = [k for k, bt in enumerate(elem.stacks) if bt[0] - bt[1] == n]
    return ToeplitzElement._of(elem.graph, [elem.stacks[k] for k in keep],
                               [elem.positions[k] for k in keep])


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
        (1, 1, np.full((1, ne), -1.0 + 0j), [deltas], None, [deltas])],
        [[0], range(1, ne + 1)])


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
    """The structure of a chain of word products and delta-basis steps:
    recorded in call order while the chain runs the first time, each
    :meth:`step` keeping what it builds from keys, shapes and the zero
    masks of that run, and replayed in that order after :meth:`replay`."""

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
    columns and keys zero in every trial of the run that records ``plan``:
    on that run, what a dict of nonzero terms would keep."""
    live, index, pos = plan.step(_collect_plan, keys, terms)
    out = np.zeros((terms.shape[0], len(index)), dtype=np.complex128)
    np.add.at(out, (slice(None), pos), terms[:, live])
    keep = plan.step(lambda: (out != 0).any(axis=0))
    return plan.step(lambda: list(compress(index, keep))), out[:, keep]


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
    return dict(zip(expansion[0], expansion[1][0].tolist()))


def element_delta_basis(elem: ToeplitzElement) -> dict:
    """Expand an element over the spanning delta-basis words.

    Keys are ``(mu, v, nu)`` with ``mu``/``nu`` edge-index path tuples and
    ``v`` a vertex index, in first-seen order; the value is the complex
    coefficient.  Each key stands for ``C(delta_mu) P(delta_v)
    C(delta_nu)*``.  The one-trial row of the trial-stacked :func:`_expand`
    of the element's words in word order, each a one-row view of its
    stack, so that the terms of a key add in word order; the products,
    taken from the real and imaginary parts, are bitwise scalar complex
    products.
    """
    return _as_dict(_expand([_take(elem.stacks[k], slice(r, r + 1))
                             for k, r in elem._rows()], elem.graph))


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
        counts = path_counts(graph, v, depth)
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

    def window_size(self, creations):
        """Number of columns ``|mu| + creations <= depth`` (a prefix)."""
        return np.searchsorted(self.lengths, self.depth - creations,
                               side="right")

    def creation_matrix(self, x: ModuleElement) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=np.complex128)
        M[np.arange(1, self.dim), self.parent[1:]] = x.values[self.first[1:]]
        return M

    def coefficient_matrix(self, a: VertexFunction | None) -> np.ndarray:
        if a is None:
            return np.eye(self.dim, dtype=np.complex128)
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

    def _plan(self, m: int, n: int, ncols: int):
        """Index arrays for words with ``m`` creations and ``n``
        annihilations on the columns ``0 .. ncols-1``.

        A column ``mu`` with ``|mu| >= n`` is stripped to a path ``s`` and
        then extended by every ``m``-edge path ``f_1 ... f_m`` that fits in
        the basis; each extension gives one entry ``(f_1 ... f_m s, mu)``.
        Returns the stripped edges (one array per annihilation, over the
        surviving columns), the range index of each ``s``, the surviving
        column behind each entry, the created edges (one array per
        creation, over the entries) and the entries' rows and columns.
        """
        key = (m, n, ncols)
        if key not in self._plans:
            cols = np.arange(np.searchsorted(self.lengths, n), ncols)
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
    """Stacks of one shape joined on the word axis, shapes as first seen."""
    return [_join([batches[k] for k in at])
            for at in _by_shape(batches).values()]


def _join(stacks):
    """Stacks of one shape joined on the word axis."""
    if len(stacks) == 1:
        return stacks[0]
    m, n, _, _, mid, _ = stacks[0]
    cat = functools.partial(np.concatenate, axis=1)
    return (m, n, cat([s[2] for s in stacks]),
            [cat(f) for f in zip(*(s[3] for s in stacks))],
            None if mid is None else cat([s[4] for s in stacks]),
            [cat(f) for f in zip(*(s[5] for s in stacks))])


def _by_shape(batches) -> dict:
    """Positions of the stacks by shape ``(m, n, has middle)``, shapes as
    first seen."""
    groups: dict = {}
    for k, bt in enumerate(batches):
        groups.setdefault((bt[0], bt[1], bt[4] is not None), []).append(k)
    return groups


def _window_plan(focks, shapes, ncols):
    """How words of the shapes ``(m, n)`` are summed on the columns ``0 ..
    ncols[i]-1`` of ``focks[i]``.

    An entry of a word's matrix reads one entry of each factor: the
    stripped edges, the range of the stripped path (for the middle) and
    the created edges.  Entries that read the same ones have the same
    value, so a shape's values are formed once per distinct combination,
    for every space.  Returns per shape the combinations as index arrays
    (stripped edges, one array per annihilation; ranges; created edges,
    one array per creation), and per space the rows and columns of the
    distinct entries its shapes reach and per shape the position among
    them of each entry of its :meth:`~TruncatedFock._plan`, with the
    combination that entry reads.
    """
    plans = [[f._plan(m, n, k) for m, n in shapes]
             for f, k in zip(focks, ncols)]
    combos, reads = [], []
    for s, (m, n) in enumerate(shapes):
        sigs = [np.stack([*(e[source] for e in stripped), ranges[source],
                          *created], axis=-1)
                for stripped, ranges, source, created, _, _ in
                (p[s] for p in plans)]
        uniq, inverse = _unique_rows(np.concatenate(
            [np.zeros((0, m + n + 1), dtype=np.intp)] + sigs))
        combos.append((uniq.T[:n], uniq.T[n], uniq.T[n + 1:]))
        reads.append(_split(inverse, sigs))
    spaces = []
    for i, k in enumerate(ncols):
        codes = [rows * k + cols for *_, rows, cols in plans[i]]
        entries, inverse = np.unique(
            np.concatenate([np.zeros(0, dtype=np.intp)] + codes),
            return_inverse=True)
        spaces.append((*np.divmod(entries, k), list(zip(
            _split(inverse, codes), (read[i] for read in reads)))))
    return combos, spaces


def _split(a, parts) -> list:
    """``a`` cut into pieces as long as the arrays ``parts``."""
    return np.split(a, np.cumsum([len(p) for p in parts])[:-1])


def _unique_rows(a):
    """The distinct rows of the integer array ``a`` in lexicographic order,
    and the position among them of each row of ``a``."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _apply_batches(focks, batches, ncols, plans: dict):
    """Per space of ``focks``, the entries on its columns ``0 ..
    ncols[i]-1`` of the matrix of the element with shape stacks
    ``batches``, per trial: the rows and columns of the entries the shapes
    reach, and their values ``(trials, entries)``; every other entry is
    zero.  Each shape's words are summed in order and the shapes added in
    order, on the combinations of :func:`_window_plan`, kept in
    ``plans``."""
    key = (tuple(bt[:2] for bt in batches), tuple(ncols))
    if key not in plans:
        plans[key] = _window_plan(focks, *key)
    combos, spaces = plans[key]
    sums = []
    for (m, n, coeffs, lefts, middles, rights), (stripped, ranges, created) \
            in zip(batches, combos):
        c = np.repeat(coeffs[..., None], ranges.size, axis=-1)
        for y, edges in zip(rights, stripped):
            c = c * y[..., edges].conj()
        if middles is not None:
            c = c * middles[..., ranges]
        for x, edges in zip(lefts, created):
            c = c * x[..., edges]
        sums.append(c.sum(axis=1))
    trials = max((bt[2].shape[0] for bt in batches), default=1)
    out = []
    for rows, cols, reads in spaces:
        values = np.zeros((trials, rows.size), dtype=np.complex128)
        for total, (pos, combo) in zip(sums, reads):
            values[:, pos] += total[:, combo]
        out.append((rows, cols, values))
    return out


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
    (rows, cols, values), = _apply_batches([fock], elem.stacks, [fock.dim],
                                           {})
    M = np.zeros((fock.dim, fock.dim), dtype=np.complex128)
    M[rows, cols] = values[0]
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


def _batch_product(batches1, batches2, graph: FiniteGraph,
                   plan: _Plan | None = None) -> list:
    """The shape stacks of ``e1 * e2`` from those of ``e1`` and ``e2``,
    trial by trial (a one-trial operand serves every trial): each pair of
    stacks gives a stack of its word pairs whose products are nonzero in
    some trial of the run that records ``plan`` (as through orthogonal
    deltas), in pair order, by :func:`_pair_product`, so every row is
    bitwise the product of its two words that the element product forms;
    none merged.  A replay forms those pairs, zero or not."""
    plan = plan or _Plan()
    return _concat_batches([
        _pair_product(bt1, bt2, graph, plan.step(_live_pairs, bt1, bt2, graph))
        for bt1, bt2 in product(batches1, batches2)])


def _pair_product(bt1, bt2, graph: FiniteGraph, pairs=None) -> tuple:
    """The stack of the products of the words of two stacks on the word
    pairs ``pairs`` or, given none, on all pairs as :func:`_on_pairs`'s
    broadcast views: factors by :func:`_reduce` and coefficients by
    :func:`_cmul`, zero products kept."""
    left, middle, right = _stack_product(bt1, bt2, graph, pairs)
    c = _cmul(_on_pairs(bt1[2], bt1, bt2, True, pairs),
              _on_pairs(bt2[2], bt1, bt2, False, pairs))
    return len(left), len(right), c, left, middle, right


def _live_pairs(bt1, bt2, graph: FiniteGraph):
    """The word pairs ``(i, j)`` of two stacks whose products are nonzero
    in some trial."""
    live = _live_words(*_pair_product(bt1, bt2, graph)[2:]).any(axis=0)
    return np.divmod(np.flatnonzero(live), bt2[2].shape[1])


def _stack_product(bt1, bt2, graph: FiniteGraph, pairs=None):
    """The factors ``(left, middle, right)`` by :func:`_reduce` of the
    products of the words of two stacks, on :func:`_on_pairs`'s word
    pairs, zero words kept."""
    return _reduce(*(
        ([_on_pairs(a, bt1, bt2, first, pairs) for a in ls],
         None if mid is None else _on_pairs(mid, bt1, bt2, first, pairs),
         [_on_pairs(a, bt1, bt2, first, pairs) for a in rs])
        for (_, _, _, ls, mid, rs), first in ((bt1, True), (bt2, False))),
        graph)


def _on_pairs(a, bt1, bt2, first: bool, pairs=None) -> np.ndarray:
    """An array ``(trials, words, *)`` of the stack ``bt1`` (``first``) or
    ``bt2`` on the word pairs ``w`` of their product, ``(pairs[0][w],
    pairs[1][w])``, and on both stacks' trials (a one-trial stack serves
    every trial).  Without ``pairs``, on all pairs: a view ``(trials, k1,
    1, *)`` or ``(trials, 1, k2, *)``, which meets the other stack's view
    on pair ``(i, j)`` at ``[:, i, j]`` by broadcasting, with no copy."""
    if pairs is None:
        return a[:, :, None] if first else a[:, None]
    a = a[:, pairs[0 if first else 1]]
    trials = max(len(bt1[2]), len(bt2[2]))
    return a if len(a) == trials else np.broadcast_to(
        a, (trials,) + a.shape[1:])


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


def _creation_bound(batches, trials: int) -> np.ndarray:
    """Per trial, the largest creation count of a live word, else 0."""
    out = np.zeros(trials, dtype=np.intp)
    for m, _, *bt in batches:
        out = np.maximum(out, m * _live_words(*bt).any(axis=1))
    return out


#: trials stacked at once: a block's Python work is the same at any size, as
#: the structure of the identities is planned once a call, while a trial's
#: arrays take up to some 70 kB on the larger fixtures
TRIAL_BLOCK = 25


def reconstruct_module_check(graph: FiniteGraph, trials: int = 100,
                             tol: float = 1e-12, seed: int = 0,
                             depth: int = 4) -> Check:
    """Verify the identities that cut the module back out of the algebra.

    For random module elements ``xi``, ``eta`` and coefficients ``a``:

    (i)   the vacuum projection commutes with ``P(a)``;
    (ii)  ``p C(xi)* C(eta) p = P(<xi, eta>) p``;
    (iii) words of positive degree with at least one annihilation kill the
          projection: ``C^{n+1}(x) C^{n}(y)* p = 0`` for n = 1, 2;
    (iv)  ``P(a) C(xi) p = C(a . xi) p``.

    Trials are drawn in order and stacked :data:`TRIAL_BLOCK` at a time on
    a trial axis (:func:`_reconstruction_block`), every trial with the bits
    of a one-trial run.  The structure of each identity is planned once a
    call and shared by the blocks: the word pairs of its products and its
    delta-basis keys, gathers and term pairs in a :class:`_Plan`, recorded
    by a support run that no block's values choose (:class:`_Shared`);
    its window residuals on the Fock entries the words reach, each formed
    once per combination of factor entries it reads
    (:func:`_window_plan`).  The check returned carries the largest
    residual and names the first failing identity, or counts them.
    """
    check_trials(trials)
    shared = _Shared(graph, depth)
    rng = np.random.default_rng(seed)
    checks = []
    for start in range(0, trials, TRIAL_BLOCK):
        checks += _reconstruction_block(
            graph, rng, range(start, min(start + TRIAL_BLOCK, trials)),
            shared, tol, depth)
    first = next((c for c in checks if not c.passed), None)
    return summarize("reconstruction", checks,
                     first.name if first else f"{len(checks)} identities")


class _Shared:
    """What the trial blocks of one :func:`reconstruct_module_check` call
    share: the Fock spaces at every vertex, the vacuum projection's stacks
    and expansion, per identity the :class:`_Plan` of its word products
    and delta-basis steps, and the window plans of :func:`_apply_batches`,
    filled on first use.

    Each identity's plan is recorded by a support run of it: the vacuum
    projection enters with its 0/1 entries (the absolute values of its
    coefficients; its factors are edge deltas) and every drawn array with
    all entries 1.  That arithmetic adds nonnegative terms and cancels
    nothing, so every word, term and key that any finite draw makes
    nonzero is kept.  On a block's values the others are exact zeros, and
    ``x + 0 = x`` leaves every sum, so every residual, bitwise as it is.
    """

    def __init__(self, graph: FiniteGraph, depth: int):
        self.focks = [TruncatedFock(graph, v, depth) for v in graph.vertices]
        self.p = vacuum_projection(graph).stacks
        self.p_basis = _expand(self.p, graph)
        self.windows: dict = {}
        p = [(m, n, np.abs(c), *f) for m, n, c, *f in self.p]
        p_basis = (self.p_basis[0], np.abs(self.p_basis[1]))
        v, e = np.ones((1, graph.n_vertices)), np.ones((1, graph.n_edges))
        support = _identities(p, v, e, e, [e] * 8, v, e)
        self.plans = [_Plan() for _ in support]
        for (_, *sides), plan in zip(support, self.plans):
            _identity_run(*sides, p, p_basis, graph, plan)


def _identities(p, a, xi, eta, fs, ip, axi) -> list:
    """The identities of :func:`reconstruct_module_check` on the vacuum
    projection's stacks ``p`` and ``(trials, *)`` arrays: the coefficient
    ``a``, the module elements ``xi`` and ``eta``, the eight factors ``fs``
    of the annihilate words, ``ip = <xi, eta>`` and ``axi = a . xi``.  Per
    identity: its name, the factors of both sides, and the slice of left
    factors that the symbolic side multiplies out first, so that both sides
    share their floating-point arrays and cancel through 0/1 constants
    only."""
    stack = _one_word_stack
    pa, crt_xi = stack(middle=a), stack(left=[xi])
    return [
        ("commute[{}]", [p, pa], [pa, p], None),
        ("compress[{}]", [p, stack(right=[xi]), stack(left=[eta]), p],
         [stack(middle=ip), p], slice(1, 3)),
        ("annihilate[n=1,{}]", [stack(fs[:2], None, fs[2:3]), p], [[]], None),
        ("annihilate[n=2,{}]", [stack(fs[3:6], None, fs[6:]), p], [[]], None),
        ("bimodule[{}]", [pa, crt_xi, p], [stack(left=[axi]), p],
         slice(0, 2))]


def _identity_run(lhs, rhs, pre, p, p_basis, graph: FiniteGraph,
                  plan: _Plan):
    """The word products of the factors ``lhs`` and ``rhs`` of an
    identity's sides, each chain by :func:`_batch_product` in turn, and
    per trial its delta-basis residual, each side's factors expanded
    (``p`` by ``p_basis``) and multiplied in turn, the left factors
    ``pre`` by their word product; every step on ``plan``."""
    def words(factors):
        return functools.reduce(
            lambda b1, b2: _batch_product(b1, b2, graph, plan), factors)

    def basis(factors):
        return functools.reduce(
            lambda e1, e2: _basis_multiply(e1, e2, graph, plan),
            [p_basis if f is p else _expand(f, graph, plan) for f in factors])
    sides = words(lhs), words(rhs)
    sym = list(lhs)
    if pre:
        sym[pre] = [words(lhs[pre])]
    return (*sides, _basis_residual(basis(sym), basis(rhs), plan))


def _reconstruction_block(graph, rng, block, shared: _Shared, tol, depth):
    """The checks of trials ``block`` stacked on a trial axis: exact in the
    delta basis, and at every vertex on a trial's window ``|mu| + m_max <=
    depth`` of ``lhs - rhs`` (``m_max`` by :func:`_creation_bound`; below it
    ``SizeLimitError`` names the first identity in trial order).  Each
    identity's residuals are finished before the next one's stacks are
    formed."""
    # per trial: a, xi, eta, the words' factors, as modules.random_* draw them
    nv, ne = graph.n_vertices, graph.n_edges
    z = rng.standard_normal((len(block), 2 * nv + 20 * ne))
    a = z[:, :nv] + 1j * z[:, nv:2 * nv]
    z = z[:, 2 * nv:].reshape(len(block), 10, 2, ne)
    xi, eta, *fs = (z[:, :, 0] + 1j * z[:, :, 1]).transpose(1, 0, 2)
    ip = _tensor_inner([xi], [eta], graph)
    axi = a[:, graph.rng_idx] * xi
    identities = _identities(shared.p, a, xi, eta, fs, ip, axi)

    sym = np.zeros((len(block), len(identities)))
    num = np.zeros_like(sym)
    overflow = []       # per identity: (first trial, identity, bound)
    for i, ((_, *sides), plan) in enumerate(zip(identities, shared.plans)):
        lhs, rhs, sym[:, i] = _identity_run(
            *sides, shared.p, shared.p_basis, graph, plan.replay())
        diff = _concat_batches(lhs + [(m, n, -c, *f) for m, n, c, *f in rhs])
        bound = _creation_bound(diff, len(block))
        over = np.flatnonzero(bound > depth)
        if over.size:
            overflow.append((over[0], i, bound[over[0]]))
        if overflow:
            continue
        ncols = [fock.window_size(bound) for fock in shared.focks]
        for (_, cols, values), k in zip(_apply_batches(
                shared.focks, diff, [k.max() for k in ncols],
                shared.windows), ncols):
            res = np.where(cols < k[:, None], np.abs(values), 0.0)
            num[:, i] = np.fmax(num[:, i], res.max(axis=1, initial=0.0))
    if overflow:
        t, i, b = min(overflow)
        raise SizeLimitError(
            f"identity {identities[i][0].format(block[t])}: depth {depth} "
            f"below creation length {b}; no valid window")
    return [Check(name.format(t), s == 0.0 and r <= tol, max(s, r))
            for t, sym_t, num_t in zip(block, sym.tolist(), num.tolist())
            for (name, *_), s, r in zip(identities, sym_t, num_t)]


# ---------------------------------------------------------------------------
# transport of triple isomorphisms


def triple_iso_transport(iso, E: FiniteGraph, F: FiniteGraph,
                         trials: int = 20, tol: float = 1e-12,
                         seed: int = 0) -> Check:
    """Relabel the algebra along ``iso``, a ``GraphIsomorphism`` ``E -> F``
    whose index arrays permute edges and vertices, and verify transport:
    the induced module map ``theta_X(xi) = xi . (edge map)^{-1}`` must
    carry the vacuum projection to the vacuum projection, preserve gauge
    degrees, and intertwine inner products and both module actions; the
    ``transport`` check returned carries the largest residual.
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

    res = float(_basis_residual(
        _expand(_theta(vacuum_projection(E).stacks, edge_of, vertex_of), F),
        _expand(vacuum_projection(F).stacks, F))[0])
    checks = [Check("theta(p) = p", res == 0.0, res)]

    for t in range(trials):
        xi = random_module_element(E, rng)
        eta = random_module_element(E, rng)
        a = random_vertex_function(E, rng)
        for name, got, want in (
                ("inner-product", inner_product(theta_x(xi), theta_x(eta)),
                 theta_m(inner_product(xi, eta))),
                ("left-action", theta_x(left_action(a, xi)),
                 left_action(theta_m(a), theta_x(xi))),
                ("right-action", theta_x(right_action(xi, a)),
                 right_action(theta_x(xi), theta_m(a)))):
            r = np.max(np.abs(got.values - want.values), initial=0.0)
            checks.append(Check(f"{name}[{t}]", r <= tol, r))
        w = word(1.0, (xi,), None, (eta, xi))
        ok = [len(ls) - len(rs) for _, _, _, ls, _, rs in _theta(
            _word_stacks([w])[0], edge_of, vertex_of)] == [w.degree]
        checks.append(Check(f"degree[{t}]", ok, 0.0 if ok else 1.0))
    return summarize("transport", checks)


def _theta(stacks, edge_of, vertex_of) -> list:
    """``stacks`` carried along an isomorphism: every edge array gathered
    by ``edge_of`` and every vertex array by ``vertex_of``, the edge and
    vertex of the source graph behind each of the target's."""
    return [(m, n, c, [x[..., edge_of] for x in lefts],
             None if middles is None else middles[..., vertex_of],
             [y[..., edge_of] for y in rights])
            for m, n, c, lefts, middles, rights in stacks]
