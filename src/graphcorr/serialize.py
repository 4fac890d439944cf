"""The JSON wire format: every document graphcorr reads or writes.

JSON files and inline arguments are parsed here, and every library object
with a JSON form is read and written here; the rest of the package holds
ids and indices, never JSON.  The documents:

- finite graph: ``{"kind": "finite", "vertices": [id, ...], "edges":
  [{"id": id, "src": id, "rng": id}, ...]}``;
- circle graph: ``{"kind": "circle", "components": [{"d": int,
  "s_offset": real, "m": int, "r_offset": real}, ...]}``, source and
  range degrees and offsets, an offset ``0.0`` when its key is absent;
- permutation cocycle: ``{"rank": int, "arcs": [[start, end], ...],
  "transitions": [{"i": int, "j": int, "component": int, "perm": [int,
  ...]}, ...]}``, arc ends real (``end`` may pass ``2pi``);
- module element: ``{edge-id: [re, im], ...}`` or a bare edge id; over a
  circle graph ``{"n": int, "components": [[[re, im], ...], ...]}``,
  ``n >= 1``, ``d * n`` pairs for each component of source degree ``d``;
- vertex function: ``{vertex-id: [re, im], ...}`` or a bare vertex id;
  over a circle graph ``{"n": int, "values": [[re, im], ...]}``;
- word: ``{"coeff": [re, im], "left": [element, ...], "middle": function
  or null, "right": [element, ...]}``, every key optional (coefficient
  1, no factors), ``[re]`` for a real coefficient; Toeplitz element:
  ``{"words": [word, ...]}`` or a bare word;
- measure: ``{vertex-id: real, ...}``; matrix: ``[[entry, ...], ...]``,
  rows of equal length, each entry an ``[re, im]`` pair or a bare real.

A bare id stands for its indicator; an id-keyed object is 0 at the ids
it omits.  Six readers take every value, and raise :class:`FormatError`
for any other: an object with a fixed key set, an array (never a
string), a string id, an integer (not a boolean or ``2.0``) with an
optional floor, a finite real (not a boolean, NaN or out of the float
range) and an ``[re, im]`` pair of finite reals.
"""
from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from .bundles import ArcCover, PermCocycle
from .errors import FormatError
from .graphs import Arc, CircleCoveringGraph, EdgeComponent, FiniteGraph
from .modules import ModuleElement, VertexFunction, delta_edge, delta_vertex
from .toeplitz import ToeplitzElement, Word, word


def _object(data, what: str, required=(), optional=()) -> dict:
    """A JSON object with all keys of ``required``, others of ``optional``."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object, got {data!r}")
    for key in data:
        if key not in required and key not in optional:
            raise FormatError(f"{what} has an unknown key {key!r}")
    for key in required:
        if key not in data:
            raise FormatError(f"{what} lacks the key {key!r}")
    return data


def _array(data, what: str, length: int | None = None) -> list:
    """A JSON array, of exactly ``length`` entries when that is given."""
    if not isinstance(data, list):
        raise FormatError(f"{what} must be a JSON array, got {data!r}")
    if length is not None and len(data) != length:
        raise FormatError(f"{what} must be a JSON array of length {length}, "
                          f"got length {len(data)}")
    return data


def _id(data, what: str) -> str:
    if not isinstance(data, str):
        raise FormatError(f"{what} must be a string id, got {data!r}")
    return data


def _int(data, what: str, floor: int | None = None) -> int:
    """A JSON integer, not a boolean, at least ``floor`` when given."""
    if isinstance(data, bool) or not isinstance(data, int) \
            or (floor is not None and data < floor):
        kind = "an integer" if floor is None else f"an integer >= {floor}"
        raise FormatError(f"{what} must be {kind}, got {data!r}")
    return data


def _real(data, what: str):
    """A finite real that is not a boolean, returned as given."""
    if isinstance(data, bool) or not isinstance(data, (int, float)) \
            or not abs(data) <= sys.float_info.max:
        raise FormatError(f"{what} must be a finite real, got {data!r}")
    return data


def _pair(data, what: str) -> complex:
    """An ``[re, im]`` pair of finite reals as a complex number."""
    re, im = _array(data, f"{what} [re, im]", 2)
    return complex(_real(re, what), _real(im, what))


def _by_id(data, index, size: int, what: str, read=_pair,
           dtype=np.complex128) -> np.ndarray:
    """Vector of ``read`` values at ``index(id)`` for an id-keyed object."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be an id-keyed object, got {data!r}")
    v = np.zeros(size, dtype=dtype)
    for key, value in data.items():
        v[index(key)] = read(value, f"{what} entry {key!r}")
    return v


def _pair_to_json(z) -> list:
    return [float(z.real), float(z.imag)]


def load_json(path: str):
    """The JSON document in the file ``path``; the one JSON file reader."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}") from None
        except ValueError as exc:       # an integer over Python's digit limit
            raise FormatError(f"{path}: {exc}") from None


def load_argument(text: str):
    """Inline JSON if ``text`` starts with ``{`` or ``[``, else a path."""
    s = text.strip()
    if s.startswith(("{", "[")):
        try:
            return json.loads(s)
        except ValueError as exc:   # also an integer over the digit limit
            raise FormatError(str(exc)) from None
    return load_json(text)


def digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def graph_to_dict(graph) -> dict:
    if isinstance(graph, FiniteGraph):
        return {"kind": "finite", "vertices": list(graph.vertices),
                "edges": [{"id": e, "src": s, "rng": r} for e, s, r
                          in zip(graph.edges, graph.src, graph.rng)]}
    if isinstance(graph, CircleCoveringGraph):
        return {"kind": "circle", "components": [
            {"d": c.source_degree, "s_offset": c.source_offset,
             "m": c.range_degree, "r_offset": c.range_offset}
            for c in graph.components]}
    raise FormatError(f"not a graph: {graph!r}")


def graph_from_dict(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("graph JSON must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "finite":
        doc = _object(data, "a finite graph", ("kind", "vertices", "edges"))
        vertices = [_id(v, "a vertex")
                    for v in _array(doc["vertices"], "vertices")]
        edges = [_object(e, "an edge", ("id", "src", "rng"))
                 for e in _array(doc["edges"], "edges")]
        return FiniteGraph(vertices=vertices,
                           edges=[_id(e["id"], "an edge") for e in edges],
                           src=[_id(e["src"], "a source") for e in edges],
                           rng=[_id(e["rng"], "a range") for e in edges])
    if kind == "circle":
        doc = _object(data, "a circle graph", ("kind", "components"))
        comps = [_object(c, "a circle component", ("d", "m"),
                         ("s_offset", "r_offset"))
                 for c in _array(doc["components"], "components")]
        # every field is read before any component is built, so that a
        # format error is reported ahead of a degree above the cap
        fields = [(_int(c["d"], "source degree d"),
                   _real(c.get("s_offset", 0.0), "s_offset"),
                   _int(c["m"], "range degree m"),
                   _real(c.get("r_offset", 0.0), "r_offset")) for c in comps]
        return CircleCoveringGraph([EdgeComponent(*f) for f in fields])
    raise FormatError(f"unknown graph kind {kind!r}")


def load_graph(path: str):
    return graph_from_dict(load_json(path))


def cocycle_to_dict(c: PermCocycle) -> dict:
    trans = [{"i": i, "j": j, "component": cidx,
              "perm": list(c.sigma(j, i, cidx))}
             for (i, j), comps in sorted(c.cover.overlaps.items())
             for cidx in range(len(comps))]
    return {"rank": c.rank,
            "arcs": [[a.start, a.start + a.length] for a in c.cover.arcs],
            "transitions": trans}


def cocycle_from_dict(data) -> PermCocycle:
    doc = _object(data, "a cocycle", ("rank", "arcs", "transitions"))
    rank = _int(doc["rank"], "cocycle rank")
    ends = [[_real(x, "a cocycle arc end") for x in _array(p, "an arc", 2)]
            for p in _array(doc["arcs"], "cocycle arcs")]
    cover = ArcCover([Arc(start=a, length=b - a) for a, b in ends])
    transitions = {}
    for t in _array(doc["transitions"], "cocycle transitions"):
        t = _object(t, "a transition", ("i", "j", "component", "perm"))
        key = tuple(_int(t[f], f"cocycle {f}") for f in ("i", "j",
                                                          "component"))
        if key in transitions:
            raise FormatError(f"transition {key} is given twice")
        transitions[key] = tuple(_int(p, "cocycle perm entry")
                                 for p in _array(t["perm"], "cocycle perm"))
    return PermCocycle(rank=rank, cover=cover, transitions=transitions)


def element_to_dict(x: ModuleElement) -> dict:
    if not x.is_circle:
        return dict(zip(x.graph.edges, map(_pair_to_json, x.values)))
    return {"n": x.base_n, "components": [list(map(_pair_to_json, arr))
                                          for arr in x.components]}


def element_from_dict(graph, data) -> ModuleElement:
    if isinstance(graph, FiniteGraph):
        if isinstance(data, str):
            return delta_edge(graph, data)
        return ModuleElement(graph, _by_id(data, graph.edge_index,
                                           graph.n_edges, "module element"))
    doc = _object(data, "a circle element", ("n", "components"))
    n = _int(doc["n"], "grid size n", floor=1)
    arrays = _array(doc["components"], "circle element components",
                    graph.n_components)
    return ModuleElement(graph, tuple(np.array([
        _pair(p, f"component {ci}") for p in _array(
            arr, f"component {ci} samples", comp.source_degree * n)])
        for ci, (arr, comp) in enumerate(zip(arrays, graph.components))), n)


def tensor_from_json(graph, data) -> list[ModuleElement]:
    """The factors of an elementary tensor: a JSON array of elements."""
    return [element_from_dict(graph, x) for x in _array(data, "a tensor")]


def vertex_function_to_dict(a: VertexFunction) -> dict:
    if not a.is_circle:
        return dict(zip(a.graph.vertices, map(_pair_to_json, a.values)))
    return {"n": a.base_n, "values": list(map(_pair_to_json, a.values))}


def vertex_function_from_dict(graph, data) -> VertexFunction:
    if isinstance(graph, FiniteGraph):
        if isinstance(data, str):
            return delta_vertex(graph, data)
        return VertexFunction(graph, _by_id(
            data, graph.vertex_index, graph.n_vertices, "vertex function"))
    doc = _object(data, "a circle vertex function", ("n", "values"))
    n = _int(doc["n"], "grid size n", floor=1)
    return VertexFunction(graph, np.array([
        _pair(p, "vertex function") for p in _array(
            doc["values"], "vertex function values", n)]), n)


def measure_from_json(graph: FiniteGraph, data) -> np.ndarray:
    """Vertex weights by id, 0 at every vertex not named."""
    return _by_id(data, graph.vertex_index, graph.n_vertices, "measure",
                  read=_real, dtype=np.float64)


def word_from_dict(graph, data) -> Word:
    doc = _object(data, "a word", optional=("coeff", "left", "middle",
                                             "right"))
    coeff = doc.get("coeff", [1.0, 0.0])
    if isinstance(coeff, list) and len(coeff) == 1:
        coeff = [coeff[0], 0.0]
    coeff = _pair(coeff, "word coeff")
    left = tuple(element_from_dict(graph, x)
                 for x in _array(doc.get("left", []), "word left"))
    mid = doc.get("middle")
    middle = None if mid is None else vertex_function_from_dict(graph, mid)
    right = tuple(element_from_dict(graph, y)
                  for y in _array(doc.get("right", []), "word right"))
    return word(coeff, left, middle, right)


def element_from_json(graph, data) -> ToeplitzElement:
    words = [data]      # a bare word
    if isinstance(data, dict) and "words" in data:
        words = _array(_object(data, "an element", ("words",))["words"],
                       "\"words\"")
    return ToeplitzElement(graph, [word_from_dict(graph, w) for w in words])


def element_to_json(elem: ToeplitzElement) -> dict:
    return {"words": [{
        "coeff": _pair_to_json(w.coeff),
        "left": [element_to_dict(x) for x in w.left],
        "middle": None if w.middle is None
        else vertex_function_to_dict(w.middle),
        "right": [element_to_dict(y) for y in w.right]} for w in elem.words]}


def matrix_from_json(data) -> np.ndarray:
    """Rows of entries, each an ``[re, im]`` pair or a bare finite real."""
    rows = [_array(row, "a matrix row") for row in _array(data, "a matrix")]
    if len({len(row) for row in rows}) > 1:
        raise FormatError("matrix rows must have equal lengths")
    return np.array([[_pair(c, "a matrix entry") if isinstance(c, list)
                      else complex(_real(c, "a matrix entry")) for c in row]
                     for row in rows], dtype=np.complex128)
