"""Outside-in layer trace of graphcorr.

``Tracer.install`` replaces graphcorr's public layer functions with
wrappers that record a span per call (name, start, end, parent span) and
boundary counters read off arguments and return values.  Every other
graphcorr name bound to the same function object (``from .x import f``
in another module) is re-pointed at the wrapper too, and so are the
criterion functions held in ``suite.CRITERIA``.  Nothing under ``src/``
changes; ``uninstall`` puts the originals back.

Per-array helpers such as ``ModuleElement.is_zero`` are deliberately not
wrapped: the suite calls them some 200k times and the wrapper cost would
swamp their own.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _fock(result, *args, **kwargs):
    return {"dim_sum": result.fock.dim,
            "valid_cols": int(result.valid_cols.sum())}


def _word_multiply(result, *args, **kwargs):
    return {"nonzero": result is not None}


def _delta_terms(result, *args, **kwargs):
    return {"terms": len(result)}


def _delta_multiply(result, m1, m2, *args, **kwargs):
    return {"pairs": len(m1) * len(m2), "terms": len(result)}


def _kms_eval(result, state, elem):
    return {"words": len(getattr(elem, "words", (elem,)))}


def _local_conjugacy(result, *args, **kwargs):
    return {"certified": type(result).__name__ == "LocalConjugacyCertificate"}


#: (module, attribute or Class.method, span name, counter)
LAYERS = (
    ("graphs", "enumerate_paths", "graphs.enumerate_paths", None),
    ("graphs", "spectral_radius", "graphs.spectral_radius", None),
    ("modules", "inner_product", "modules.inner_product", None),
    ("modules", "left_action", "modules.left_action", None),
    ("modules", "right_action", "modules.right_action", None),
    ("modules", "tensor_inner_product", "modules.tensor_inner_product", None),
    ("toeplitz", "TruncatedFock.__init__", "toeplitz.TruncatedFock.init",
     None),
    ("toeplitz", "TruncatedFock.word_matrix", "toeplitz.word_matrix", None),
    ("toeplitz", "fock_matrix", "toeplitz.fock_matrix", _fock),
    ("toeplitz", "word_multiply", "toeplitz.word_multiply", _word_multiply),
    ("toeplitz", "ToeplitzElement.__init__", "toeplitz.ToeplitzElement.init",
     None),
    ("toeplitz", "element_delta_basis", "toeplitz.element_delta_basis",
     _delta_terms),
    ("toeplitz", "delta_basis_multiply", "toeplitz.delta_basis_multiply",
     _delta_multiply),
    ("kms", "KMSParameters.__init__", "kms.KMSParameters.init", None),
    ("kms", "kms_eval", "kms.kms_eval", _kms_eval),
    ("kms", "kms_condition_check", "kms.kms_condition_check", None),
    ("kms", "kms_limit_sweep", "kms.kms_limit_sweep", None),
    ("double_cover", "random_trig_poly", "double_cover.random_trig_poly",
     None),
    ("double_cover", "verify_isometry", "double_cover.verify_isometry", None),
    ("double_cover", "verify_bimodule", "double_cover.verify_bimodule", None),
    ("conjugacy", "local_conjugacy_check", "conjugacy.local_conjugacy_check",
     _local_conjugacy),
    ("conjugacy", "frame_verify", "conjugacy.frame_verify", None),
    ("conjugacy", "bump_frame", "conjugacy.bump_frame", None),
    ("conjugacy", "nonzero_permutation", "conjugacy.nonzero_permutation",
     None),
    ("conjugacy", "finite_graph_isomorphism",
     "conjugacy.finite_graph_isomorphism", None),
    ("bundles", "global_frame_over_circle", "bundles.global_frame_over_circle",
     None),
)


def _sites():
    """(owner, attribute, span name, counter) for every entry of LAYERS;
    the owner is the module or, for a method, the class."""
    for module, path, name, counter in LAYERS:
        owner = sys.modules[f"graphcorr.{module}"]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        yield owner, attr, name, counter


def layer_functions() -> dict:
    """Span name -> original function, for every wrapped layer and every
    acceptance criterion (``suite.<criterion>``)."""
    out = {name: vars(owner)[attr] for owner, attr, name, _ in _sites()}
    for crit, fn, _ in sys.modules["graphcorr.suite"].CRITERIA:
        out[f"suite.{crit}"] = fn
    return out


class Tracer:
    """In-memory spans and counters; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self._stack = [-1]
        self._restore: list = []

    def wrap(self, name: str, fn, counter=None):
        """``fn`` with a span per call; results and exceptions pass through
        unchanged."""
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack, clock = self._stack, self.clock
        totals = self.counters[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                for key, value in counter(result, *args, **kwargs).items():
                    totals[key] += value
            return result
        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer of the imported graphcorr package."""
        counters = {name: counter for *_, name, counter in LAYERS}
        wrappers = {id(fn): self.wrap(name, fn, counters.get(name))
                    for name, fn in layer_functions().items()}
        for owner, attr, _, _ in _sites():
            if isinstance(owner, type):
                self._set(owner, attr, wrappers[id(vars(owner)[attr])])
        # module attributes: the defining name and every re-binding
        mods = [m for key, m in list(sys.modules.items())
                if key == "graphcorr" or key.startswith("graphcorr.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
        suite = sys.modules["graphcorr.suite"]
        self._set(suite, "CRITERIA", tuple(
            (crit, wrappers[id(fn)], seeded)
            for crit, fn, seeded in suite.CRITERIA))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def save(self, path) -> None:
        """Write the spans as arrays: span ``i`` is ``names[name[i]]``,
        child of span ``parent[i]`` (-1 for none), from ``start[i]`` to
        ``end[i]``."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name=np.array([index[n] for n in self.names],
                               dtype=np.int32),
                 parent=np.array(self.parents, dtype=np.int64),
                 start=np.array(self.starts), end=np.array(self.ends))


def span_totals(names, parents, starts, ends) -> dict:
    """Per span name: ``[calls, total_s, self_s]``.

    Self time is a span's duration minus the durations of its direct
    children; the program is single-threaded, so children never overlap.
    """
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict = {}
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
    return out


def top_level_time(parents, starts, ends) -> float:
    return sum(e - s for p, s, e in zip(parents, starts, ends) if p < 0)


#: ratio metrics: field -> (counter numerator, counter or "calls" denominator)
RATIOS = {"valid_col_ratio": ("valid_cols", "dim_sum"),
          "nonzero_ratio": ("nonzero", "calls"),
          "pair_hit_ratio": ("terms", "pairs"),
          "certified_ratio": ("certified", "calls")}


def layer_metric(metric: str, totals: dict, counters: dict) -> float:
    """Value of a per-layer metric ``<span name>.<field>``.

    ``calls`` and ``self_s`` come from the spans, ``s`` is a span's total
    time, a ratio field divides two boundary counters, and any other field
    is a counter itself.  A layer the workload never calls reads 0.
    """
    span, field = metric.rsplit(".", 1)
    calls, total, self_s = totals.get(span, (0, 0.0, 0.0))
    counts = dict(counters.get(span, {}), calls=calls)
    if field == "self_s":
        return self_s
    if field == "s":
        return total
    if field in RATIOS:
        num, den = RATIOS[field]
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    return counts.get(field, 0)
