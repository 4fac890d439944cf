"""Permutation cocycles over arc covers of the circle.

A rank-``k`` cocycle assigns to each overlap component of a pair of cover
arcs a constant permutation of ``{0..k-1}`` subject to the usual gluing
laws.  Its monodromy (the ordered product of transitions along one
positive traversal of the circle) classifies the associated covering of
the circle up to isomorphism: one loop component of covering degree ``d``
per cycle of length ``d``.

Identity monodromy is equivalent to a continuous global choice of the
``k``-point fibers (``k`` disjoint sections).  Regardless of monodromy,
the associated rank-``k`` vector bundle is trivial over the circle and
the twisted discrete-Fourier sections below exhibit an explicit global
pointwise-unitary frame; the gap between those two notions is exactly
what distinguishes a connected double cover from two disjoint loops.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .graphs import (ANGLE_TOL, TWO_PI, Arc, CircleCoveringGraph,
                     EdgeComponent, angle_dist, arcs_cover_circle,
                     load_json, sections_over_arc, wrap_angle)
from .report import Check

__all__ = [
    "ArcCover", "PermCocycle", "Monodromy", "cocycle_check",
    "cocycle_from_graph", "monodromy", "graph_from_cocycle",
    "global_frame_over_circle", "refine_cover", "has_global_basis",
    "cocycle_to_dict", "cocycle_from_dict", "load_cocycle",
]


def compose(f: tuple, g: tuple) -> tuple:
    """``(f o g)(i) = f[g[i]]``."""
    return tuple(f[g[i]] for i in range(len(g)))


def inverse(f: tuple) -> tuple:
    out = [0] * len(f)
    for i, j in enumerate(f):
        out[j] = i
    return tuple(out)


class ArcCover:
    """Open cover of the circle by arcs, with recorded overlap components."""

    def __init__(self, arcs):
        self.arcs = tuple(arcs)
        if not self.arcs:
            raise FormatError("empty cover")
        if not arcs_cover_circle(self.arcs):
            raise FormatError("arcs do not cover the circle")
        self.overlaps: dict = {}
        m = len(self.arcs)
        for i in range(m):
            for j in range(i + 1, m):
                comps = self.arcs[i].intersect(self.arcs[j])
                if len(comps) > 2:
                    raise FormatError(
                        f"overlap of arcs {i},{j} has {len(comps)} components;"
                        " at most 2 are supported")
                if comps:
                    self.overlaps[(i, j)] = comps

    def triple_overlaps(self, i: int, j: int, k: int) -> tuple:
        out = []
        for c in self.arcs[i].intersect(self.arcs[j]):
            for piece in c.intersect(self.arcs[k]):
                out.append(piece)
        return tuple(out)

    def pair_component_at(self, i: int, j: int, t: float):
        """Index of the (i, j) overlap component containing angle ``t``."""
        key = (min(i, j), max(i, j))
        for idx, c in enumerate(self.overlaps.get(key, ())):
            if c.contains(t, slack=ANGLE_TOL):
                return idx
        return None


class PermCocycle:
    """Constant permutation transition data on an arc cover.

    The input dict key ``(i, j, comp)`` carries arc-``i`` section indices
    to arc-``j`` section indices on overlap component ``comp`` of the pair
    ``(min(i,j), max(i,j))``; inverses are filled in automatically and
    ``sigma(j, i, comp)`` reads out the ``i -> j`` direction.
    """

    def __init__(self, rank: int, cover: ArcCover, transitions: dict):
        if rank < 1:
            raise FormatError("rank must be at least 1")
        self.rank = int(rank)
        self.cover = cover
        self.transitions: dict = {}
        for (i, j, comp), perm in transitions.items():
            perm = tuple(int(p) for p in perm)
            if sorted(perm) != list(range(self.rank)):
                raise FormatError(
                    f"transition ({i},{j},{comp}) is not a permutation "
                    f"of 0..{self.rank - 1}")
            self._store(i, j, comp, perm)
        for (i, j), comps in cover.overlaps.items():
            for cidx in range(len(comps)):
                if (j, i, cidx) not in self.transitions:
                    raise FormatError(
                        f"missing transition for overlap ({i},{j}) "
                        f"component {cidx}")

    def _store(self, i, j, comp, perm):
        old = self.transitions.get((j, i, comp))
        if old is not None and old != perm:
            raise FormatError(
                f"conflicting transitions for ({i},{j}) component {comp}")
        self.transitions[(j, i, comp)] = perm
        self.transitions[(i, j, comp)] = inverse(perm)

    def sigma(self, j: int, i: int, comp: int) -> tuple:
        """Transition from arc-``i`` indices to arc-``j`` indices."""
        if i == j:
            return tuple(range(self.rank))
        return self.transitions[(j, i, comp)]


def cocycle_check(c: PermCocycle) -> Check:
    """Verify identity, inversion and the triple-overlap cocycle law.

    The ``cocycle-check`` returned names each violation on its own line
    of the detail.
    """
    violations = []
    m = len(c.cover.arcs)
    for (i, j), comps in c.cover.overlaps.items():
        for cidx in range(len(comps)):
            s_ji = c.sigma(j, i, cidx)
            s_ij = c.sigma(i, j, cidx)
            if compose(s_ij, s_ji) != tuple(range(c.rank)):
                violations.append(f"inverse law fails on overlap ({i},{j}) "
                                  f"component {cidx}")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if len({i, j, k}) < 3:
                    continue
                for piece in c.cover.triple_overlaps(i, j, k):
                    t = piece.midpoint()
                    cij = c.cover.pair_component_at(i, j, t)
                    cjk = c.cover.pair_component_at(j, k, t)
                    cik = c.cover.pair_component_at(i, k, t)
                    if None in (cij, cjk, cik):
                        continue
                    lhs = compose(c.sigma(k, j, cjk), c.sigma(j, i, cij))
                    rhs = c.sigma(k, i, cik)
                    if lhs != rhs:
                        violations.append(
                            f"cocycle law fails on triple ({i},{j},{k}) "
                            f"at angle {t:.4f}")
    return Check("cocycle-check", not violations, detail="\n".join(violations))


# ---------------------------------------------------------------------------
# graph <-> cocycle


def cocycle_from_graph(graph: CircleCoveringGraph, n_arcs: int = 2,
                       overlap: float = 0.25) -> PermCocycle:
    """Transition data of the source covering over a standard arc cover.

    Sections over each arc are ordered component-major; on each overlap
    component the transition records which section of one arc continues
    which section of the other.  Rigidity makes the transitions constant
    on components (verified on three sample points).
    """
    if n_arcs < 2:
        raise FormatError("need at least two arcs")
    k = graph.total_fiber_degree()
    delta = overlap * math.pi / n_arcs
    arcs = [Arc(wrap_angle(TWO_PI * a / n_arcs - delta),
                TWO_PI / n_arcs + 2 * delta) for a in range(n_arcs)]
    cover = ArcCover(arcs)
    sections = {a: sections_over_arc(graph, arc)
                for a, arc in enumerate(arcs)}
    transitions = {}
    for (i, j), comps in cover.overlaps.items():
        for cidx, piece in enumerate(comps):
            perm = None
            for t in piece.sample(3, margin=min(1e-6, piece.length / 4)):
                cur = _match_sections(sections[i], sections[j], float(t))
                if perm is None:
                    perm = cur
                elif perm != cur:
                    raise FormatError(
                        "transition not constant on an overlap component")
            transitions[(i, j, cidx)] = perm
    return PermCocycle(rank=k, cover=cover, transitions=transitions)


def _match_sections(secs_i, secs_j, t: float) -> tuple:
    perm = []
    for si in secs_i:
        u = float(si.lift(t))
        hit = None
        for jdx, sj in enumerate(secs_j):
            if sj.component == si.component \
                    and angle_dist(float(sj.lift(t)), u) < 1e-9:
                hit = jdx
                break
        if hit is None:
            raise FormatError("section continuation not found; "
                              "arcs may not overlap correctly")
        perm.append(hit)
    return tuple(perm)


@dataclass
class Monodromy:
    permutation: tuple
    cycle_type: tuple       # cycle lengths, descending

    @property
    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.permutation))

    def cycles(self) -> list[tuple]:
        seen = set()
        out = []
        for start in range(len(self.permutation)):
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            nxt = self.permutation[start]
            while nxt != start:
                orbit.append(nxt)
                seen.add(nxt)
                nxt = self.permutation[nxt]
            out.append(tuple(orbit))
        out.sort(key=lambda orb: (-len(orb), orb[0]))
        return out


def _traversal(cover: ArcCover):
    """Forward crossing points between consecutive arcs (sorted by start)."""
    order = sorted(range(len(cover.arcs)), key=lambda a: cover.arcs[a].start)
    steps = []
    m = len(order)
    for pos in range(m):
        i = order[pos]
        j = order[(pos + 1) % m]
        ai, aj = cover.arcs[i], cover.arcs[j]
        start_j = aj.start if pos + 1 < m else aj.start + TWO_PI
        end_i = ai.start + ai.length
        if end_i <= start_j + ANGLE_TOL:
            raise FormatError(
                f"arcs {i} and {j} do not overlap forward; cover cannot "
                "be traversed")
        t = wrap_angle(0.5 * (start_j + min(end_i, start_j + aj.length)))
        comp = cover.pair_component_at(i, j, t)
        if comp is None:
            raise FormatError("forward overlap component not found")
        steps.append((i, j, comp))
    return steps


def monodromy(c: PermCocycle) -> Monodromy:
    """Ordered product of transitions along one positive traversal."""
    check = cocycle_check(c)
    if not check.passed:
        raise FormatError(f"invalid cocycle: {check.detail.splitlines()[0]}")
    total = tuple(range(c.rank))
    for i, j, comp in _traversal(c.cover):
        total = compose(c.sigma(j, i, comp), total)
    lengths = sorted((len(orb) for orb in
                      Monodromy(total, ()).cycles()), reverse=True)
    return Monodromy(permutation=total, cycle_type=tuple(lengths))


def has_global_basis(c: PermCocycle) -> bool:
    """Identity monodromy is equivalent to ``k`` disjoint global sections."""
    return monodromy(c).is_identity


def graph_from_cocycle(c: PermCocycle) -> CircleCoveringGraph:
    """The covering of the circle classified by the monodromy.

    One loop component of covering degree ``d`` per cycle of length ``d``,
    with range = source = the covering projection.
    """
    mono = monodromy(c)
    comps = [EdgeComponent(source_degree=len(orb), source_offset=0.0,
                           range_degree=len(orb), range_offset=0.0)
             for orb in mono.cycles()]
    return CircleCoveringGraph(comps)


def refine_cover(c: PermCocycle) -> PermCocycle:
    """Split every arc into two overlapping halves, inheriting transitions.

    Transitions between children of the same parent are the identity; all
    others restrict the parent transition to the smaller overlap.
    """
    children = []
    parent = []
    for a, arc in enumerate(c.cover.arcs):
        children.append(Arc(arc.start, 0.6 * arc.length))
        parent.append(a)
        children.append(Arc(wrap_angle(arc.start + 0.4 * arc.length),
                            0.6 * arc.length))
        parent.append(a)
    cover = ArcCover(children)
    transitions = {}
    for (i, j), comps in cover.overlaps.items():
        for cidx, piece in enumerate(comps):
            pi, pj = parent[i], parent[j]
            if pi == pj:
                transitions[(i, j, cidx)] = tuple(range(c.rank))
                continue
            t = piece.midpoint()
            pcomp = c.cover.pair_component_at(pi, pj, t)
            if pcomp is None:
                raise FormatError("refined overlap escapes its parents")
            transitions[(i, j, cidx)] = c.sigma(pj, pi, pcomp)
    return PermCocycle(rank=c.rank, cover=cover, transitions=transitions)


# ---------------------------------------------------------------------------
# the twisted Fourier frame


@dataclass
class FrameResult:
    grid: int
    frames: np.ndarray              # (N + 1, k, k): [t, sheet, column]
    columns: tuple                  # (cycle index, power) per column
    unitarity: float
    transition_residual: float
    endpoint_exact: bool

    def check(self) -> Check:
        """``global-frame``: unitary, compatible with the transitions to
        1e-12, and bitwise continuous at the seam."""
        res = max(self.unitarity, self.transition_residual)
        return Check("global-frame", res <= 1e-12 and self.endpoint_exact,
                     res)


def _sheet_positions(mono: Monodromy):
    pos = {}
    cycles = mono.cycles()
    for ci, orb in enumerate(cycles):
        for p, sheet in enumerate(orb):
            pos[sheet] = (ci, p)
    return cycles, pos


def _frame_entry(t_num: int, t_den: int, p: int, j: int, d: int) -> complex:
    # angle = (t + 2pi p) j / d with t = 2pi t_num / t_den; the integer
    # numerator, reduced mod its period, keeps seam values bitwise equal
    num = ((t_num + t_den * p) * j) % (t_den * d)
    return np.exp(2j * math.pi * num / (t_den * d)) / math.sqrt(d)


def global_frame_over_circle(c: PermCocycle, n: int) -> FrameResult:
    """Global pointwise-unitary frame built from twisted Fourier sections.

    For each monodromy cycle of length ``d`` the ``d`` columns

        v_j(t)[position p] = d^{-1/2} exp(i (t + 2pi p) j / d),  j < d,

    glue across the seam exactly along the cycle shift, so they are global
    continuous sections of the associated bundle; columns of distinct
    cycles live on disjoint sheet blocks.  Verifies pointwise unitarity,
    compatibility with the declared transitions on every overlap
    component, and bitwise seam continuity on the grid.
    """
    mono = monodromy(c)
    cycles, pos = _sheet_positions(mono)
    if n < 4 or n % 2:
        raise FormatError("grid size must be even and at least 4")
    for orb in cycles:
        if n % len(orb):
            raise FormatError(
                f"grid size {n} not divisible by cycle length {len(orb)}")
    k = c.rank
    columns = tuple((ci, j) for ci, orb in enumerate(cycles)
                    for j in range(len(orb)))
    frames = np.zeros((n + 1, k, k), dtype=np.complex128)
    for t_idx in range(n + 1):
        for col, (ci, j) in enumerate(columns):
            orb = cycles[ci]
            d = len(orb)
            for p, sheet in enumerate(orb):
                frames[t_idx, sheet, col] = _frame_entry(t_idx, n, p, j, d)
    gram = np.einsum("tij,tik->tjk", frames.conj(), frames)
    unitarity = float(np.max(np.abs(gram - np.eye(k))))

    # seam: value on a sheet at 2pi equals value on its monodromy image at 0
    perm = mono.permutation
    endpoint_exact = all(
        frames[n, sheet, col] == frames[0, perm[sheet], col]
        for sheet in range(k) for col in range(k))

    transition_residual = _transition_compatibility(c, mono, cycles, pos,
                                                    columns)
    return FrameResult(grid=n, frames=frames, columns=columns,
                       unitarity=unitarity,
                       transition_residual=transition_residual,
                       endpoint_exact=endpoint_exact)


def _chart_transports(c: PermCocycle):
    """Sheet labels for each chart: sections of the first sorted arc are
    the sheets; crossing forward relabels by the declared transitions."""
    steps = _traversal(c.cover)
    transports = {steps[0][0]: tuple(range(c.rank))}
    for i, j, comp in steps[:-1]:
        transports[j] = compose(transports[i], inverse(c.sigma(j, i, comp)))
    return transports


def _local_frame(c: PermCocycle, cycles, pos, columns, transports,
                 chart: int, x: float) -> np.ndarray:
    theta = c.cover.arcs[chart].unwrap(x)
    k = c.rank
    out = np.zeros((k, k), dtype=np.complex128)
    for ell in range(k):
        sheet = transports[chart][ell]
        ci, p = pos[sheet]
        d = len(cycles[ci])
        for col, (cj, j) in enumerate(columns):
            if cj != ci:
                continue
            out[ell, col] = np.exp(1j * (theta + TWO_PI * p) * j / d) \
                / math.sqrt(d)
    return out


def _transition_compatibility(c, mono, cycles, pos, columns) -> float:
    transports = _chart_transports(c)
    residual = 0.0
    for (i, j), comps in c.cover.overlaps.items():
        for cidx, piece in enumerate(comps):
            sig = c.sigma(j, i, cidx)
            for t in piece.sample(5, margin=min(1e-6, piece.length / 4)):
                li = _local_frame(c, cycles, pos, columns, transports,
                                  i, float(t))
                lj = _local_frame(c, cycles, pos, columns, transports,
                                  j, float(t))
                permuted = np.zeros_like(li)
                for ell in range(c.rank):
                    permuted[sig[ell], :] = li[ell, :]
                residual = max(residual,
                               float(np.max(np.abs(lj - permuted))))
    return residual


# ---------------------------------------------------------------------------
# JSON


def cocycle_to_dict(c: PermCocycle) -> dict:
    trans = []
    for (i, j), comps in sorted(c.cover.overlaps.items()):
        for cidx in range(len(comps)):
            trans.append({"i": i, "j": j, "component": cidx,
                          "perm": list(c.sigma(j, i, cidx))})
    return {"rank": c.rank,
            "arcs": [[a.start, a.start + a.length] for a in c.cover.arcs],
            "transitions": trans}


def cocycle_from_dict(data: dict) -> PermCocycle:
    try:
        arcs = [Arc(start=p[0], length=p[1] - p[0]) for p in data["arcs"]]
        cover = ArcCover(arcs)
        transitions = {}
        for t in data["transitions"]:
            transitions[(int(t["i"]), int(t["j"]), int(t["component"]))] \
                = tuple(t["perm"])
        return PermCocycle(rank=int(data["rank"]), cover=cover,
                           transitions=transitions)
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"bad cocycle JSON: {exc!r}") from None


def load_cocycle(path: str) -> PermCocycle:
    return cocycle_from_dict(load_json(path))
