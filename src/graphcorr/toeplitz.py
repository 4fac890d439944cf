"""Symbolic Toeplitz algebra of a finite graph, with truncated Fock matrices.

Elements are finite sums of words ``coeff * C(x_1)...C(x_m) P(a)
C(y_1)*...`` where ``C`` denotes the module generator (creation) and ``P``
the coefficient embedding.  A word is kept in normal form: when it has
creations, the middle coefficient is absorbed into the last creation via
the right action, so ``middle`` is only present on pure-annihilation and
scalar words.  Products reduce by the annihilator-creator rules

    C(y)* C(z) = P(<y, z>),   P(a) C(z) = C(a . z),   C(z)* P(a) = C(conj(a) . z)*,

so the product of two words is again a single word (or zero).

Exact symbolic identity checking expands elements over the edge-delta
basis, whose spanning words multiply with 0/1 structure constants; the
identities verified here then cancel to exactly zero in floating point.

Vertex representations are realized as matrices on the span of the paths
of length at most ``L`` with a fixed source.  A matrix column is exact
when the word cannot create past the window: column ``mu`` is flagged
valid iff ``|mu| + (number of creations) <= L``.  Words act on path
indices through two tables of :class:`TruncatedFock`, a prepend table for
creation and a strip table for annihilation, with the words of an element
batched by shape; numeric checks evaluate only the valid window columns.
The reconstruction identities form no words on their numeric side: two
shape batches multiply as stacked arrays into one stack of ``k1 k2``
words per pair of stacks, and the window is set by the largest creation
count among the words with no zero factor.
:meth:`TruncatedFock.word_matrix`, the dense product of the factor
matrices, is the reference the tests compare against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, MismatchError, SizeLimitError
from .graphs import FiniteGraph, path_counts, path_index_tuples
from .modules import (ModuleElement, VertexFunction, delta_edge,
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

    def adjoint(self) -> "Word":
        mid = self.middle.conj() if self.middle is not None else None
        return word(np.conj(self.coeff), tuple(self.right), mid,
                    tuple(self.left))

    def scaled(self, c: complex) -> "Word":
        return Word(self.coeff * c, self.left, self.middle, self.right)

    def is_zero(self) -> bool:
        # scanned once per word: a product is checked by ``word_multiply``
        # and again when it enters a ``ToeplitzElement``
        zero = self.__dict__.get("_zero")
        if zero is None:
            zero = self.__dict__["_zero"] = (
                self.coeff == 0
                or any(x.is_zero() for x in self.left)
                or (self.middle is not None
                    and not self.middle.values.any())
                or any(y.is_zero() for y in self.right))
        return zero


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
    """Normal form of ``w1 w2``: a single word, or ``None`` when zero."""
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
    return None if out.is_zero() else out


def _pointwise(a: VertexFunction | None, b: VertexFunction | None):
    if a is None:
        return b
    if b is None:
        return a
    return a.pointwise(b)


class ToeplitzElement:
    """Finite formal sum of words over a fixed finite graph."""

    def __init__(self, graph: FiniteGraph, words=()):
        if not isinstance(graph, FiniteGraph):
            raise FormatError("the word algebra is defined for finite graphs")
        self.graph = graph
        self.words = _merge_words([w for w in words if not w.is_zero()])

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        self._check(other)
        return ToeplitzElement(self.graph, list(self.words) + list(other.words))

    def __sub__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        return self + other.scaled(-1.0)

    def scaled(self, c) -> "ToeplitzElement":
        return ToeplitzElement(self.graph, [w.scaled(c) for w in self.words])

    def __mul__(self, other: "ToeplitzElement") -> "ToeplitzElement":
        self._check(other)
        out = []
        for w1 in self.words:
            for w2 in other.words:
                w = word_multiply(w1, w2)
                if w is not None:
                    out.append(w)
        return ToeplitzElement(self.graph, out)

    def adjoint(self) -> "ToeplitzElement":
        return ToeplitzElement(self.graph, [w.adjoint() for w in self.words])

    def _check(self, other):
        if self.graph is not other.graph:
            raise MismatchError("elements live over different graphs")

    # -- grading ------------------------------------------------------------

    def degrees(self) -> set[int]:
        return {w.degree for w in self.words}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def norm_bound(self) -> float:
        return sum(w.norm_bound() for w in self.words)

    def __repr__(self):
        return f"ToeplitzElement({len(self.words)} words)"


def gauge_scale(elem: ToeplitzElement, z: complex) -> ToeplitzElement:
    """Gauge action: scale each word of degree ``n`` by ``z**n``."""
    return ToeplitzElement(
        elem.graph, [w.scaled(z ** w.degree) for w in elem.words])


def spectral_component(elem: ToeplitzElement, n: int) -> ToeplitzElement:
    """Sub-sum of words of gauge degree ``n``."""
    return ToeplitzElement(elem.graph,
                           [w for w in elem.words if w.degree == n])


def _merge_words(words):
    """Combine words with bitwise-identical (left, middle, right) data."""
    merged: dict = {}
    order: list = []
    for w in words:
        key = (
            tuple(x.values.tobytes() for x in w.left),
            None if w.middle is None else w.middle.values.tobytes(),
            tuple(y.values.tobytes() for y in w.right),
        )
        if key in merged:
            old = merged[key]
            merged[key] = Word(old.coeff + w.coeff, old.left, old.middle,
                               old.right)
        else:
            merged[key] = w
            order.append(key)
    return tuple(merged[k] for k in order if merged[k].coeff != 0)


def vacuum_projection(graph: FiniteGraph) -> ToeplitzElement:
    """``1 - sum_e C(delta_e) C(delta_e)*``.

    In every vertex representation this acts as the rank-one projection
    onto the empty path; it is selfadjoint and idempotent in the word
    algebra.  The singleton-edge indicators are the canonical partition of
    unity over a finite edge set.
    """
    words = [word(1.0)]
    for e in graph.edges:
        d = delta_edge(graph, e)
        words.append(word(-1.0, (d,), None, (d,)))
    return ToeplitzElement(graph, words)


# ---------------------------------------------------------------------------
# canonical delta-basis expansion (finite graphs)


def element_delta_basis(elem: ToeplitzElement) -> dict:
    """Expand an element over the spanning delta-basis words.

    Keys are ``(mu, v, nu)`` with ``mu``/``nu`` edge-index path tuples and
    ``v`` a vertex index, in first-seen order; the value is the complex
    coefficient.  Each key stands for ``C(delta_mu) P(delta_v)
    C(delta_nu)*``.  Every coefficient entered is nonzero, so each key's
    sum runs over the words in order.
    """
    graph = elem.graph
    paths: dict = {}

    def paths_from(vi, k):
        if (vi, k) not in paths:
            paths[vi, k] = path_index_tuples(graph, vi, k)
        return paths[vi, k]

    out: dict = {}
    for w in elem.words:
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


def delta_basis_multiply(m1: dict, m2: dict, graph: FiniteGraph) -> dict:
    """Product of two delta-basis expansions; structure constants are 0/1.

    ``(mu, v, nu) (mu2, v2, nu2)`` can be nonzero only when one of ``nu``
    and ``mu2`` is a prefix of the other, so the terms of ``m2`` are looked
    up by ``mu2``.  Matching pairs are visited in ``m1`` order, then ``m2``
    order, as a scan of all pairs would visit them, so every coefficient
    sums in the same order.
    """
    src = graph.src_idx.tolist()
    rng = graph.rng_idx.tolist()
    items2 = list(m2.items())
    starting: dict = {}     # (prefix of mu2, joint vertex) -> positions
    exact: dict = {}        # nonempty mu2 -> positions
    bare: dict = {}         # v2 -> positions of the terms with mu2 = ()
    for pos, ((mu2, v2, _), _) in enumerate(items2):
        if mu2:
            exact.setdefault(mu2, []).append(pos)
        else:
            bare.setdefault(v2, []).append(pos)
        for k in range(len(mu2) + 1):
            # a term (mu, v, nu) with |nu| = k meets this one only when v
            # is the range of the rest of mu2, or v2 if nothing is left
            joint = rng[mu2[k]] if k < len(mu2) else v2
            starting.setdefault((mu2[:k], joint), []).append(pos)
    matches: dict = {}

    def matching(nu, v):
        """The ``m2`` terms, in order, whose ``mu2`` starts with ``nu`` at
        the joint ``v``, or is a proper prefix of ``nu`` (an empty one
        only with ``v2`` at the range of ``nu``)."""
        pos = starting.get((nu, v), [])
        if nu:
            pos = pos + bare.get(rng[nu[0]], []) + [
                i for p in range(1, len(nu)) for i in exact.get(nu[:p], ())]
        return [items2[i] for i in sorted(pos)]

    out: dict = {}
    for (mu, v, nu), c1 in m1.items():
        n = len(nu)
        if (nu, v) not in matches:
            matches[nu, v] = matching(nu, v)
        for (mu2, v2, nu2), c2 in matches[nu, v]:
            p = len(mu2)
            if n <= p:
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


def delta_basis_residual(m1: dict, m2: dict) -> float:
    """Largest coefficient of the difference of two expansions."""
    keys = set(m1) | set(m2)
    res = 0.0
    for k in keys:
        res = max(res, abs(m1.get(k, 0.0) - m2.get(k, 0.0)))
    return res


def symbolically_equal(a: ToeplitzElement, b: ToeplitzElement) -> bool:
    return delta_basis_residual(element_delta_basis(a),
                                element_delta_basis(b)) == 0.0


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

    def window_size(self, creations: int) -> int:
        """Number of columns ``|mu| + creations <= depth`` (a prefix)."""
        return int(np.searchsorted(self.lengths, self.depth - creations,
                                   side="right"))

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

    def vacuum_index(self) -> int:
        return self.index[()]

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


def _shape_batches(elem: ToeplitzElement) -> list:
    """The words of ``elem`` grouped by ``(creations, annihilations,
    has middle)``, each group's factor values stacked into ``(words, *)``
    arrays: ``(m, n, coeffs, lefts, middles or None, rights)``."""
    return _concat_batches([
        (w.creations, w.annihilations, np.array([w.coeff]),
         [x.values[None] for x in w.left],
         None if w.middle is None else w.middle.values[None],
         [y.values[None] for y in w.right]) for w in elem.words])


def _concat_batches(batches) -> list:
    """Stacks of one shape joined in order, shapes in first-seen order."""
    groups: dict = {}
    for bt in batches:
        groups.setdefault((bt[0], bt[1], bt[4] is not None), []).append(bt)
    return [bts[0] if len(bts) == 1 else (
        m, n, np.concatenate([bt[2] for bt in bts]),
        [np.concatenate(f) for f in zip(*(bt[3] for bt in bts))],
        np.concatenate([bt[4] for bt in bts]) if mid else None,
        [np.concatenate(f) for f in zip(*(bt[5] for bt in bts))])
        for (m, n, mid), bts in groups.items()]


def _apply_batches(fock: TruncatedFock, batches, ncols: int) -> np.ndarray:
    """Columns ``0 .. ncols-1`` of the matrix of the element whose
    :func:`_shape_batches` are ``batches``, words of one shape at once."""
    out = np.zeros((fock.dim, ncols), dtype=np.complex128)
    for m, n, coeffs, lefts, middles, rights in batches:
        stripped, ranges, source, created, rows, cols = fock._plan(m, n, ncols)
        c = np.broadcast_to(coeffs[:, None], (coeffs.size, ranges.size))
        for y, edges in zip(rights, stripped):
            c = c * y[:, edges].conj()
        if middles is not None:
            c = c * middles[:, ranges]
        if m:
            c = c[:, source]
            for x, edges in zip(lefts, created):
                c = c * x[:, edges]
        out[rows, cols] += c.sum(axis=0)
    return out


@dataclass
class FockMatrix:
    """A truncated matrix together with its valid-window column mask."""
    matrix: np.ndarray
    valid_cols: np.ndarray
    fock: TruncatedFock


def fock_matrix(elem, v=None, depth: int | None = None,
                fock: TruncatedFock | None = None) -> FockMatrix:
    """Matrix of an element on the depth-``L`` truncated basis.

    Raises when the window cannot hold even the empty path column, i.e.
    when ``L`` is smaller than the creation count of some word.
    """
    if fock is None:
        if v is None or depth is None:
            raise FormatError("vertex and depth required without a basis")
        fock = TruncatedFock(elem.graph, v, depth)
    depth = fock.depth
    m_max = max((w.creations for w in elem.words), default=0)
    if depth < m_max:
        raise SizeLimitError(
            f"depth {depth} below creation length {m_max}; no valid window")
    M = _apply_batches(fock, _shape_batches(elem), fock.dim)
    valid = fock.lengths + m_max <= depth
    return FockMatrix(matrix=M, valid_cols=valid, fock=fock)


# ---------------------------------------------------------------------------
# vacuum projection and reconstruction identities


def vacuum_projection_checks(graph: FiniteGraph, depth: int) -> list:
    """``idempotent``, ``selfadjoint`` and ``rank-one`` checks of the
    vacuum projection: the first two exactly in the delta basis, the last
    as the bitwise rank-one vacuum matrix at every vertex to ``depth``."""
    p = vacuum_projection(graph)
    pb = element_delta_basis(p)
    r_idem = delta_basis_residual(delta_basis_multiply(pb, pb, graph), pb)
    r_adj = delta_basis_residual(element_delta_basis(p.adjoint()), pb)
    exact = True
    for v in graph.vertices:
        fm = fock_matrix(p, v, depth)
        target = np.zeros_like(fm.matrix)
        vac = fm.fock.vacuum_index()
        target[vac, vac] = 1.0
        exact = exact and bool(np.array_equal(fm.matrix, target))
    return [Check("idempotent", r_idem == 0.0, r_idem),
            Check("selfadjoint", r_adj == 0.0, r_adj),
            Check("rank-one", exact, 0.0 if exact else 1.0)]


def basis_product(elems, graph: FiniteGraph) -> dict:
    """Delta-basis expansion of a product, multiplied at the basis level.

    Expanding first and multiplying basis words (whose structure constants
    are 0/1) keeps floating-point coefficients associating identically on
    both sides of the identities below, so true identities cancel exactly.
    """
    out = None
    for e in elems:
        m = element_delta_basis(e) if isinstance(e, ToeplitzElement) else e
        out = m if out is None else delta_basis_multiply(out, m, graph)
    return out if out is not None else {}


def _batch_product(batches1, batches2, graph: FiniteGraph) -> list:
    """The :func:`_shape_batches` of ``e1 * e2`` from those of ``e1`` and
    ``e2``: each pair of stacks gives one stack of ``k1 * k2`` words in
    :meth:`ToeplitzElement.__mul__` pair order, by the rules of
    :func:`word_multiply` in array form; zero words are kept, none merged."""
    src, rng = graph.src_idx, graph.rng_idx
    out = []
    for m1, n1, c1, *f1 in batches1:
        for m2, n2, c2, *f2 in batches2:
            # row i * k2 + j of the product is the pair (word i, word j)
            i, j = np.divmod(np.arange(c1.size * c2.size), c2.size)
            (l1, mid1, r1), (l2, mid2, r2) = (
                ([a[k] for a in ls], None if mid is None else mid[k],
                 [a[k] for a in rs])
                for (ls, mid, rs), k in ((f1, i), (f2, j)))
            cc = None
            for y, x in zip(r1, l2):
                t = x if cc is None else cc[:, rng] * x
                cc = np.zeros((i.size, graph.n_vertices), dtype=np.complex128)
                np.add.at(cc, (slice(None), src), y.conj() * t)
            if n1 <= m2:
                mid, rem = _times(mid1, cc), l2[n1:]
                if rem and mid is not None:
                    rem[0] = mid[:, rng] * rem[0]
                left, middle, right = ((l1 + rem, mid2, r2) if rem
                                       else (l1, _times(mid, mid2), r2))
            else:
                rem, b = r1[m2:], _times(cc, mid2)
                if b is not None:
                    rem[0] = b.conj()[:, rng] * rem[0]
                left, middle, right = l1, mid1, r2 + rem
            if middle is not None and left:
                left[-1], middle = left[-1] * middle[:, src], None
            out.append((len(left), len(right), c1[i] * c2[j], left, middle,
                        right))
    return _concat_batches(out)


def _times(a, b):
    """:func:`_pointwise` on stacked arrays."""
    return b if a is None else a if b is None else a * b


def _creation_bound(batches) -> int:
    """Largest creation count of a word whose coefficient and factor
    arrays are all nonzero, 0 when there is none."""
    return max((m for m, _, c, ls, mid, rs in batches if np.all(
        [c != 0] + [a.any(axis=1) for a in ls + rs + [mid] if a is not None],
        axis=0).any()), default=0)


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

    Each identity is checked exactly in the delta-basis expansion (products
    taken at the basis level) and numerically at every vertex on the valid
    window columns of the truncated matrices, the only columns read: the
    sides' shape batches are multiplied (:func:`_batch_product`), the right
    side's coefficients negated, and the window is ``|mu| + m_max <=
    depth`` with ``m_max`` the largest creation count of a word whose
    coefficient and factor arrays are all nonzero; a ``depth`` below some
    ``m_max`` leaves no window and raises ``SizeLimitError``.  ``p`` is
    expanded and batched once.  The ``reconstruction`` check returned
    carries the largest residual and names the first failing identity, or
    counts them.
    """
    rng = np.random.default_rng(seed)
    p = vacuum_projection(graph)
    p_basis, p_batches = element_delta_basis(p), _shape_batches(p)
    checks = []
    focks = [TruncatedFock(graph, v, depth) for v in graph.vertices]

    def product(factors):
        out, *rest = [p_batches if f is p else _shape_batches(f)
                      for f in factors]
        for b in rest:
            out = _batch_product(out, b, graph)
        return out

    def record(name, lhs_factors, rhs_factors, sym_lhs=None):
        # sym_lhs pre-reduces adjacent factors so that both sides share the
        # identical floating-point arrays; the rest cancels through 0/1
        # structure constants only
        sym = delta_basis_residual(*(
            basis_product([p_basis if f is p else f for f in factors], graph)
            for factors in (sym_lhs or lhs_factors, rhs_factors)))
        diff = _concat_batches(product(lhs_factors) + [
            (m, n, -c, *f) for m, n, c, *f in product(rhs_factors)])
        m_max = _creation_bound(diff)
        if depth < m_max:
            raise SizeLimitError(f"identity {name}: depth {depth} below "
                                 f"creation length {m_max}; no valid window")
        num = 0.0
        for fock in focks:
            window = _apply_batches(fock, diff, fock.window_size(m_max))
            num = max(num, float(np.max(np.abs(window))))
        checks.append(Check(name, sym == 0.0 and num <= tol, max(sym, num)))

    for t in range(trials):
        a = random_vertex_function(graph, rng)
        xi = random_module_element(graph, rng)
        eta = random_module_element(graph, rng)
        pa = ToeplitzElement(graph, [pi_word(a)])
        record(f"commute[{t}]", [p, pa], [pa, p])
        ann_xi = ToeplitzElement(graph, [word(1.0, (), None, (xi,))])
        crt_eta = ToeplitzElement(graph, [iota_word(eta)])
        rhs0 = ToeplitzElement(graph, [pi_word(inner_product(xi, eta))])
        record(f"compress[{t}]", [p, ann_xi, crt_eta, p], [rhs0, p],
               sym_lhs=[p, ann_xi * crt_eta, p])
        for n in (1, 2):
            xs = tuple(random_module_element(graph, rng) for _ in range(n + 1))
            ys = tuple(random_module_element(graph, rng) for _ in range(n))
            wrd = ToeplitzElement(graph, [word(1.0, xs, None, ys)])
            record(f"annihilate[n={n},{t}]", [wrd, p],
                   [ToeplitzElement(graph, [])])
        crt_xi = ToeplitzElement(graph, [iota_word(xi)])
        crt_axi = ToeplitzElement(graph, [iota_word(left_action(a, xi))])
        record(f"bimodule[{t}]", [pa, crt_xi, p], [crt_axi, p],
               sym_lhs=[pa * crt_xi, p])
    first = next((c for c in checks if not c.passed), None)
    return summarize("reconstruction", checks,
                     first.name if first else f"{len(checks)} identities")


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
    iso.verify(E, F)
    rng = np.random.default_rng(seed)

    def theta_x(x: ModuleElement) -> ModuleElement:
        out = np.zeros(F.n_edges, dtype=np.complex128)
        out[iso.edges] = x.values
        return ModuleElement(F, out)

    def theta_m(a: VertexFunction) -> VertexFunction:
        out = np.zeros(F.n_vertices, dtype=np.complex128)
        out[iso.vertices] = a.values
        return VertexFunction(F, out)

    def theta_word(w: Word) -> Word:
        return Word(w.coeff, tuple(theta_x(x) for x in w.left),
                    None if w.middle is None else theta_m(w.middle),
                    tuple(theta_x(y) for y in w.right))

    def theta_elem(elem: ToeplitzElement) -> ToeplitzElement:
        return ToeplitzElement(F, [theta_word(w) for w in elem.words])

    pe, pf = vacuum_projection(E), vacuum_projection(F)
    res = delta_basis_residual(element_delta_basis(theta_elem(pe)),
                               element_delta_basis(pf))
    checks = [Check("theta(p) = p", res == 0.0, res)]

    for t in range(trials):
        xi = random_module_element(E, rng)
        eta = random_module_element(E, rng)
        a = random_vertex_function(E, rng)
        ip = np.max(np.abs(
            inner_product(theta_x(xi), theta_x(eta)).values
            - theta_m(inner_product(xi, eta)).values))
        checks.append(Check(f"inner-product[{t}]", ip <= tol, ip))
        la = np.max(np.abs(
            theta_x(left_action(a, xi)).values
            - left_action(theta_m(a), theta_x(xi)).values))
        checks.append(Check(f"left-action[{t}]", la <= tol, la))
        ra = np.max(np.abs(
            theta_x(right_action(xi, a)).values
            - right_action(theta_x(xi), theta_m(a)).values))
        checks.append(Check(f"right-action[{t}]", ra <= tol, ra))
        wdeg = word(1.0, (xi,), None, (eta, xi))
        ok = theta_word(wdeg).degree == wdeg.degree
        checks.append(Check(f"degree[{t}]", ok, 0.0 if ok else 1.0))
    return summarize("transport", checks)
