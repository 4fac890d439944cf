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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, SizeLimitError
from .graphs import (ANGLE_TOL, MAX_FRAME, TWO_PI, Arc, CircleCoveringGraph,
                     EdgeComponent, angle_dist, arcs_cover_circle,
                     load_json, sections_over_arc, wrap_angle)
from .modules import finite_real
from .report import Check

__all__ = [
    "ArcCover", "PermCocycle", "Monodromy", "cocycle_check",
    "cocycle_from_graph", "monodromy", "graph_from_cocycle",
    "global_frame_over_circle", "cocycle_to_dict", "cocycle_from_dict",
    "load_cocycle",
]


def compose(f: tuple, g: tuple) -> tuple:
    """``(f o g)(i) = f[g[i]]``."""
    return tuple(f[g[i]] for i in range(len(g)))


def inverse(f: tuple) -> tuple:
    return tuple(sorted(range(len(f)), key=f.__getitem__))


class ArcCover:
    """Open cover of the circle by arcs, with recorded overlap components."""

    def __init__(self, arcs):
        self.arcs = tuple(arcs)
        if not self.arcs:
            raise FormatError("empty cover")
        if not arcs_cover_circle(self.arcs):
            raise FormatError("arcs do not cover the circle")
        self.overlaps: dict = {}
        for i, j in itertools.combinations(range(len(self.arcs)), 2):
            comps = self.arcs[i].intersect(self.arcs[j])
            if len(comps) > 2:
                raise FormatError(
                    f"overlap of arcs {i},{j} has {len(comps)} components;"
                    " at most 2 are supported")
            if comps:
                self.overlaps[(i, j)] = comps

    def triple_overlaps(self, i: int, j: int, k: int) -> tuple:
        return tuple(piece for c in self.arcs[i].intersect(self.arcs[j])
                     for piece in c.intersect(self.arcs[k]))

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
    ``sigma(j, i, comp)`` reads out the ``i -> j`` direction.  Each key
    must name an overlap component, and each component is given once, in
    one direction.
    """

    def __init__(self, rank: int, cover: ArcCover, transitions: dict):
        if rank < 1:
            raise FormatError("rank must be at least 1")
        self.rank = int(rank)
        self.cover = cover
        self.transitions: dict = {}
        for (i, j, comp), perm in transitions.items():
            pair = (min(i, j), max(i, j))
            if not 0 <= comp < len(cover.overlaps.get(pair, ())):
                raise FormatError(f"transition ({i},{j},{comp}) names no "
                                  "overlap component")
            if (j, i, comp) in self.transitions:
                raise FormatError(f"overlap {pair} component {comp} is "
                                  "given twice")
            # the length first: ``rank`` alone may be any size
            if len(perm) != self.rank \
                    or sorted(perm) != list(range(self.rank)):
                raise FormatError(
                    f"transition ({i},{j},{comp}) is not a permutation "
                    f"of 0..{self.rank - 1}")
            perm = tuple(int(p) for p in perm)
            self.transitions[(j, i, comp)] = perm
            self.transitions[(i, j, comp)] = inverse(perm)
        for (i, j), comps in cover.overlaps.items():
            for cidx in range(len(comps)):
                if (j, i, cidx) not in self.transitions:
                    raise FormatError(
                        f"missing transition for overlap ({i},{j}) "
                        f"component {cidx}")

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
    violations = [
        f"inverse law fails on overlap ({i},{j}) component {cidx}"
        for (i, j), comps in c.cover.overlaps.items()
        for cidx in range(len(comps))
        if compose(c.sigma(i, j, cidx), c.sigma(j, i, cidx))
        != tuple(range(c.rank))]
    for i, j, k in itertools.permutations(range(len(c.cover.arcs)), 3):
        for piece in c.cover.triple_overlaps(i, j, k):
            t = piece.midpoint()
            cij = c.cover.pair_component_at(i, j, t)
            cjk = c.cover.pair_component_at(j, k, t)
            cik = c.cover.pair_component_at(i, k, t)
            if None in (cij, cjk, cik):
                continue
            if compose(c.sigma(k, j, cjk), c.sigma(j, i, cij)) \
                    != c.sigma(k, i, cik):
                violations.append(f"cocycle law fails on triple "
                                  f"({i},{j},{k}) at angle {t:.4f}")
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
            perms = {_match_sections(sections[i], sections[j], float(t))
                     for t in piece.sample(3, margin=min(1e-6,
                                                         piece.length / 4))}
            if len(perms) > 1:
                raise FormatError(
                    "transition not constant on an overlap component")
            transitions[(i, j, cidx)] = perms.pop()
    return PermCocycle(rank=k, cover=cover, transitions=transitions)


def _match_sections(secs_i, secs_j, t: float) -> tuple:
    perm = []
    for si in secs_i:
        u = float(si.lift(t))
        hit = next((jdx for jdx, sj in enumerate(secs_j)
                    if sj.component == si.component
                    and angle_dist(float(sj.lift(t)), u) < 1e-9), None)
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
        """Orbits from their least sheet, longest first, then by that."""
        out, seen = [], set()
        for start in range(len(self.permutation)):
            orbit, s = [], start
            while s not in seen:
                seen.add(s)
                orbit.append(s)
                s = self.permutation[s]
            if orbit:
                out.append(tuple(orbit))
        return sorted(out, key=lambda orb: (-len(orb), orb[0]))


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
    steps = _traversal(c.cover)     # refuses a one-arc cover of any rank
    total = tuple(range(c.rank))
    for i, j, comp in steps:
        total = compose(c.sigma(j, i, comp), total)
    lengths = sorted((len(orb) for orb in
                      Monodromy(total, ()).cycles()), reverse=True)
    return Monodromy(permutation=total, cycle_type=tuple(lengths))


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


def _frame_indices(cycles):
    """Per sheet its ``(cycle, position)``, per column its ``(cycle, power
    j, length d)``: column ``(ci, j)`` sits where sheet ``cycles[ci][j]``
    sits in the concatenated cycles."""
    lengths = [len(orb) for orb in cycles]
    col_cycle = np.repeat(np.arange(len(cycles)), lengths)
    col_power = np.concatenate([np.arange(d) for d in lengths])
    slot = np.argsort(np.concatenate(cycles))
    return col_cycle[slot], col_power[slot], col_cycle, col_power, \
        np.repeat(lengths, lengths)


def _frame(ix, angle) -> np.ndarray:
    """Entries ``[..., sheet, column]``: ``d^{-1/2} exp(i angle(p, j, d))``
    where the sheet sits at position ``p`` of the column's cycle, else 0."""
    sheet_cycle, sheet_pos, col_cycle, col_power, col_len = ix
    phi = angle(sheet_pos[:, None], col_power, col_len)
    return np.where(sheet_cycle[:, None] == col_cycle,
                    np.exp(1j * phi) / np.sqrt(col_len), 0)


def global_frame_over_circle(c: PermCocycle, n: int) -> FrameResult:
    """Global pointwise-unitary frame built from twisted Fourier sections.

    For each monodromy cycle of length ``d`` the ``d`` columns

        v_j(t)[position p] = d^{-1/2} exp(i (t + 2pi p) j / d),  j < d,

    glue across the seam exactly along the cycle shift, so they are global
    continuous sections of the associated bundle; columns of distinct
    cycles live on disjoint sheet blocks.  Verifies pointwise unitarity,
    compatibility with the declared transitions on every overlap
    component, and bitwise seam continuity on the grid.  More than
    ``MAX_FRAME`` Gram entries ``(n + 1) k^3`` raise ``SizeLimitError``.
    """
    k = c.rank
    if (n + 1) * k ** 3 > MAX_FRAME:
        raise SizeLimitError(f"frame of rank {k} on grid {n} exceeds the "
                             f"{MAX_FRAME} limit")
    mono = monodromy(c)
    cycles = mono.cycles()
    lengths = sorted({len(orb) for orb in cycles})
    if n < 4 or n % 2 or any(n % d for d in lengths):
        raise FormatError(f"grid size {n} is not an even number >= 4 "
                          f"divisible by the cycle lengths {lengths}")
    ix = _frame_indices(cycles)
    columns = tuple(zip(ix[2].tolist(), ix[3].tolist()))
    # angle (t + 2pi p) j / d at t = 2pi t_idx / n; the integer numerator,
    # reduced mod its period, keeps seam values bitwise equal
    t_idx = np.arange(n + 1)[:, None, None]
    frames = _frame(ix, lambda p, j, d:
                    TWO_PI * ((t_idx + n * p) * j % (n * d)) / (n * d))
    gram = np.einsum("tij,tik->tjk", frames.conj(), frames)
    unitarity = float(np.max(np.abs(gram - np.eye(k))))
    # seam: value on a sheet at 2pi equals value on its monodromy image at 0
    endpoint_exact = bool(np.all(frames[n]
                                 == frames[0][list(mono.permutation)]))
    return FrameResult(grid=n, frames=frames, columns=columns,
                       unitarity=unitarity,
                       transition_residual=_transition_residual(c, ix),
                       endpoint_exact=endpoint_exact)


def _chart_transports(c: PermCocycle):
    """Sheet labels for each chart: sections of the first sorted arc are
    the sheets; crossing forward relabels by the declared transitions."""
    steps = _traversal(c.cover)
    transports = {steps[0][0]: tuple(range(c.rank))}
    for i, j, comp in steps[:-1]:
        transports[j] = compose(transports[i], inverse(c.sigma(j, i, comp)))
    return transports


def _transition_residual(c: PermCocycle, ix) -> float:
    """Largest gap between the chart-``j`` frame and the chart-``i`` frame
    with rows carried by the transition, at five samples of every overlap
    component; chart angles are ``arc.unwrap(t)``."""
    transports = _chart_transports(c)
    angles, rows = [], []
    for (i, j), comps in c.cover.overlaps.items():
        for cidx, piece in enumerate(comps):
            ts = piece.sample(5, margin=min(1e-6, piece.length / 4))
            angles += [[c.cover.arcs[a].unwrap(t) for a in (i, j)]
                       for t in ts]
            # row sigma(l) of the carried frame is chart-i row l
            rows += [[compose(transports[i], inverse(c.sigma(j, i, cidx))),
                      transports[j]]] * len(ts)
    theta = np.array(angles)[..., None, None]
    frames = np.take_along_axis(_frame(ix, lambda p, j, d: (
        theta + TWO_PI * p) * j / d), np.array(rows)[..., None], axis=2)
    return float(np.max(np.abs(frames[:, 1] - frames[:, 0])))


# ---------------------------------------------------------------------------
# JSON


def cocycle_to_dict(c: PermCocycle) -> dict:
    trans = [{"i": i, "j": j, "component": cidx,
              "perm": list(c.sigma(j, i, cidx))}
             for (i, j), comps in sorted(c.cover.overlaps.items())
             for cidx in range(len(comps))]
    return {"rank": c.rank,
            "arcs": [[a.start, a.start + a.length] for a in c.cover.arcs],
            "transitions": trans}


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise FormatError(f"cocycle {what} must be an integer, got {x!r}")
    return x


def cocycle_from_dict(data: dict) -> PermCocycle:
    """Integers (not booleans) for ``rank``, ``i``, ``j``, ``component``
    and the ``perm`` entries; arcs as ``[start, end]`` finite reals."""
    try:
        rank = _json_int(data["rank"], "rank")
        ends = data["arcs"]
        for p in ends:
            if not (isinstance(p, list) and len(p) == 2
                    and all(map(finite_real, p))):
                raise FormatError(f"cocycle arc {p!r} is not a [start, end] "
                                  "pair of finite numbers")
        cover = ArcCover([Arc(start=a, length=b - a) for a, b in ends])
        transitions = {}
        for t in data["transitions"]:
            key = tuple(_json_int(t[f], f) for f in ("i", "j", "component"))
            if key in transitions:
                raise FormatError(f"transition {key} is given twice")
            transitions[key] = tuple(_json_int(p, "perm entry")
                                     for p in t["perm"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad cocycle JSON: {exc!r}") from None
    return PermCocycle(rank=rank, cover=cover, transitions=transitions)


def load_cocycle(path: str) -> PermCocycle:
    return cocycle_from_dict(load_json(path))
