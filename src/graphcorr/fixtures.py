"""Bundled test fixtures: graphs and cocycles used across the suite.

Each named fixture is defined once, by its JSON file under
``graphcorr/fixtures/`` (see :func:`fixture_path`): the builders here read
that file, once per process, and return a fresh object on every call, so
the library, the tests and the command line see the same data.  Only the
families ``k_loops(k)``, ``edgeless(n)`` and ``identity_cocycle(k)`` are
built in code; their shipped members (``three-loops``, ``edgeless``,
``cocycle-identity-rank2``) are files like every other fixture.
"""
from __future__ import annotations

import functools
from importlib import resources

from .bundles import PermCocycle
from .graphs import CircleCoveringGraph, FiniteGraph
from .serialize import cocycle_from_dict, graph_from_dict, load_json


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture JSON file."""
    ref = resources.files("graphcorr") / "fixtures" / f"{name}.json"
    return str(ref)


@functools.cache
def _document(name: str) -> dict:
    """The parsed file of fixture ``name``; callers must not mutate it."""
    return load_json(fixture_path(name))


def _graph(name: str):
    return graph_from_dict(_document(name))


def _cocycle(name: str) -> PermCocycle:
    return cocycle_from_dict(_document(f"cocycle-{name}"))


def single_loop() -> FiniteGraph:
    """One vertex, one loop edge."""
    return _graph("single-loop")


def k_loops(k: int) -> FiniteGraph:
    """One vertex with ``k`` loop edges."""
    return FiniteGraph(vertices=["v"], edges=[f"e{i}" for i in range(k)],
                       src=["v"] * k, rng=["v"] * k)


def edgeless(n: int = 2) -> FiniteGraph:
    return FiniteGraph(vertices=[f"v{i}" for i in range(n)], edges=[],
                       src=[], rng=[])


def fibonacci() -> FiniteGraph:
    """Two vertices with multiplicity matrix [[1, 1], [1, 0]].

    Path counts from either vertex follow the Fibonacci recurrence and the
    spectral radius is the golden ratio.
    """
    return _graph("fibonacci")


def ten_edge() -> FiniteGraph:
    """Five vertices, ten edges, with parallel edges and a loop."""
    return _graph("ten-edge")


def circle_two_loops() -> CircleCoveringGraph:
    """Edge space = two circles, each mapping identically to the base."""
    return _graph("two-loops")


def circle_double_cover() -> CircleCoveringGraph:
    """One component with range = source = the squaring double cover."""
    return _graph("double-cover")


def circle_triple_cover() -> CircleCoveringGraph:
    return _graph("triple-cover")


def swap_cocycle() -> PermCocycle:
    """Rank 2, two arcs: identity on one lens, the swap on the other.

    The classical transition data of the connected double cover.
    """
    return _cocycle("swap")


def three_cycle_cocycle() -> PermCocycle:
    """Rank 3 with 3-cycle monodromy (a connected triple cover)."""
    return _cocycle("three-cycle")


def two_plus_one_cocycle() -> PermCocycle:
    """Rank 3 with cycle type 2 + 1 (double cover next to a trivial loop)."""
    return _cocycle("two-plus-one")


def identity_cocycle(k: int) -> PermCocycle:
    """Rank ``k``, identity transitions on the two-arc cover of the
    shipped rank-2 identity cocycle."""
    ident = tuple(range(k))
    return PermCocycle(rank=k, cover=_cocycle("identity-rank2").cover,
                       transitions={(0, 1, 0): ident, (0, 1, 1): ident})


FINITE_FIXTURES = {name: functools.partial(_graph, name) for name in (
    "single-loop", "three-loops", "fibonacci", "ten-edge", "edgeless")}

CIRCLE_FIXTURES = {name: functools.partial(_graph, name) for name in (
    "two-loops", "double-cover", "triple-cover")}

COCYCLE_FIXTURES = {name: functools.partial(_cocycle, name) for name in (
    "swap", "three-cycle", "two-plus-one", "identity-rank2")}
