"""JSON formats for words, elements and matrices used by the CLI.

A module element over a finite graph is a JSON object keyed by edge id
with ``[re, im]`` pairs, or a bare edge id as shorthand for its indicator;
circle elements carry per-component sample arrays.  A word is

    {"coeff": [re, im], "left": [element, ...],
     "middle": vertex-function-or-null, "right": [element, ...]}

and an algebra element is ``{"words": [word, ...]}`` (a bare word is also
accepted).  Every ``[re, im]`` pair is read by
:func:`~graphcorr.modules.complex_from_json`; a real coefficient may also
be written ``[re]``, and a matrix entry a bare finite real.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import FormatError
from .modules import (complex_from_json, element_from_dict, element_to_dict,
                      finite_real, vertex_function_from_dict,
                      vertex_function_to_dict)
from .toeplitz import ToeplitzElement, Word, word


def word_from_dict(graph, data: dict) -> Word:
    if not isinstance(data, dict):
        raise FormatError(f"a word must be a JSON object, got {data!r}")
    coeff = data.get("coeff", [1.0, 0.0])
    if isinstance(coeff, list) and len(coeff) == 1:
        coeff = [coeff[0], 0.0]
    coeff = complex_from_json(coeff)
    try:
        left = tuple(element_from_dict(graph, x) for x in data.get("left", []))
        mid = data.get("middle")
        middle = None if mid is None else vertex_function_from_dict(graph, mid)
        right = tuple(element_from_dict(graph, y)
                      for y in data.get("right", []))
    except (TypeError, KeyError) as exc:
        raise FormatError(f"bad word JSON: {exc!r}") from None
    return word(coeff, left, middle, right)


def word_to_dict(w: Word) -> dict:
    return {"coeff": [w.coeff.real, w.coeff.imag],
            "left": [element_to_dict(x) for x in w.left],
            "middle": None if w.middle is None
            else vertex_function_to_dict(w.middle),
            "right": [element_to_dict(y) for y in w.right]}


def element_from_json(graph, data) -> ToeplitzElement:
    if isinstance(data, dict) and "words" in data:
        if not isinstance(data["words"], list):
            raise FormatError("\"words\" must be a JSON array of words")
        words = [word_from_dict(graph, w) for w in data["words"]]
    elif isinstance(data, dict):
        words = [word_from_dict(graph, data)]
    else:
        raise FormatError("element JSON must be an object")
    return ToeplitzElement(graph, words)


def element_to_json(elem: ToeplitzElement) -> dict:
    return {"words": [word_to_dict(w) for w in elem.words]}


def matrix_from_json(data) -> np.ndarray:
    """Rows of entries, each an ``[re, im]`` pair or a bare finite real."""
    def entry(c) -> complex:
        if isinstance(c, list):
            return complex_from_json(c)
        if not finite_real(c):
            raise FormatError(f"matrix entry {c!r} is not a finite real "
                              "or an [re, im] pair")
        return complex(c)

    try:
        return np.array([[entry(c) for c in row] for row in data],
                        dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix JSON: {exc!r}") from None


def digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]
