"""The benchmark's three workloads: seeded inputs, timed batch, oracles.

Each workload has ``make_inputs(seed)``, ``run(inputs)`` and
``check(inputs, outputs)``.  ``run`` is the timed batch and calls only
graphcorr's public entry points.  ``check`` runs the oracles after the clock
has stopped and returns ``(attempted, failures)``.  A task that raises is
recorded as failed and the batch moves on to the next task.

Library functions are always reached through their module
(``kms.kms_eval``), never through a name bound when this file is imported,
so the layer wrappers that ``tracer`` installs see every call.

The inputs vary with the seed only in their random values: graph sizes,
word shapes, grid sizes and task counts are fixed, so the amount of work in
a batch barely depends on the seed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from graphcorr import (bundles, conjugacy, double_cover, fixtures, kms,
                       modules, suite, toeplitz)
from graphcorr.graphs import CircleCoveringGraph, EdgeComponent, FiniteGraph

TWO_PI = 2.0 * math.pi

#: check names that ``suite.run_all`` reports; they do not depend on the seed
SUITE_CHECKS = Path(__file__).with_name("suite_checks.json")


@dataclass
class Raised:
    """Stands in for the output of a task whose call raised."""
    error: str


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:        # a raising call is a failed task
        return Raised(f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# suite: the whole acceptance batch, as `graphcorr suite all` runs it


def suite_inputs(seed: int) -> dict:
    return {"seed": seed}


def suite_run(inputs: dict):
    return attempt(suite.run_all, inputs["seed"])


def suite_check(inputs: dict, report) -> tuple[int, list]:
    expected = json.loads(SUITE_CHECKS.read_text())
    if isinstance(report, Raised):
        return len(expected), [f"run_all raised {report.error}"] * len(
            expected)
    got = report.checks
    n = max(len(expected), len(got))
    failures = []
    for i in range(n):
        want = expected[i] if i < len(expected) else None
        c = got[i] if i < len(got) else None
        if c is None:
            failures.append(f"missing check {want!r}")
        elif c.name != want:
            failures.append(f"check {i} is {c.name!r}, recorded {want!r}")
        elif not c.passed:
            failures.append(f"{c.name} failed, residual {c.residual}")
    return n, failures


# ---------------------------------------------------------------------------
# kms-sweep: beta sweeps, KMS-condition pairs and many-word evaluations
#
# The four graph kinds split the spectral-radius cost: on primitive and
# periodic graphs the power iteration converges in well under a
# millisecond, while on the tied reducible and the acyclic graph it runs all
# of its steps before the dense fallback.  The slow kinds therefore get
# short beta grids, so that spectral_radius and kms_eval each hold a
# sizeable share of the batch and a gain in either one shows.

KMS_KINDS = ("primitive", "periodic", "tied", "acyclic")
SWEEP_OFFSETS = {"primitive": (0.6, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0),
                 "periodic": (0.6, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0),
                 "tied": (1.0, 2.5),
                 "acyclic": (1.0, 2.5)}
EVAL_OFFSET = 1.2           # beta - log(rho) of the evaluation state
N_ELEMENTS = 8              # many-word balanced elements per graph
N_WORDS = 48                # words per element; word i has i % 4 creations
N_MEASURES = 34             # mixed states per graph, besides point masses
N_PAIRS = 40                # KMS-condition pairs per graph
KMS_VALUE_TOL = 1e-9        # relative to the element's norm bound
RHO_TOL = 1e-9


def _relabeled(rng, n: int, arcs: list) -> FiniteGraph:
    perm = rng.permutation(n)
    order = rng.permutation(len(arcs))
    arcs = [arcs[i] for i in order]
    return FiniteGraph([f"v{i}" for i in range(n)],
                       [f"e{i}" for i in range(len(arcs))],
                       [f"v{perm[s]}" for s, _ in arcs],
                       [f"v{perm[r]}" for _, r in arcs])


def _kms_graph(kind: str, rng) -> FiniteGraph:
    if kind == "primitive":
        # a 5-cycle with a loop is strongly connected and aperiodic
        arcs = [(i, (i + 1) % 5) for i in range(5)]
        arcs.append((int(rng.integers(5)),) * 2)
        arcs += [tuple(int(v) for v in rng.integers(5, size=2))
                 for _ in range(3)]
        return _relabeled(rng, 5, arcs)
    if kind == "periodic":
        # every arc goes from class i % 3 to class (i + 1) % 3: period 3
        arcs = [(i, (i + 1) % 6) for i in range(6)]
        for _ in range(3):
            s = int(rng.integers(6))
            r = (s + 1 + 3 * int(rng.integers(2))) % 6
            arcs.append((s, r))
        return _relabeled(rng, 6, arcs)
    if kind == "tied":
        # two copies of one primitive 3-vertex graph and one arc between
        # them: the dominant eigenvalue is tied and has a Jordan block
        base = [(0, 1), (1, 2), (2, 0), (int(rng.integers(3)),) * 2,
                tuple(int(v) for v in rng.integers(3, size=2))]
        arcs = base + [(s + 3, r + 3) for s, r in base]
        arcs.append((int(rng.integers(3)), 3 + int(rng.integers(3))))
        return _relabeled(rng, 6, arcs)
    if kind == "acyclic":
        # a path through all five vertices plus three forward chords
        arcs = [(i, i + 1) for i in range(4)]
        chords = [(i, j) for i in range(5) for j in range(i + 2, 5)]
        arcs += [chords[int(i)] for i in rng.choice(len(chords), size=3,
                                                    replace=False)]
        return _relabeled(rng, 5, arcs)
    raise ValueError(kind)


def _balanced_element(g: FiniteGraph, rng) -> toeplitz.ToeplitzElement:
    words = []
    for i in range(N_WORDS):
        k = i % 4
        c = complex(rng.standard_normal(), rng.standard_normal())
        xs = tuple(modules.random_module_element(g, rng) for _ in range(k))
        ys = tuple(modules.random_module_element(g, rng) for _ in range(k))
        words.append(toeplitz.word(c, xs, modules.random_vertex_function(
            g, rng), ys))
    return toeplitz.ToeplitzElement(g, words)


def _homogeneous(g: FiniteGraph, rng, m: int, n: int):
    words = []
    for _ in range(2):
        xs = tuple(modules.random_module_element(g, rng) for _ in range(m))
        ys = tuple(modules.random_module_element(g, rng) for _ in range(n))
        mid = modules.random_vertex_function(g, rng) if m == 0 else None
        c = complex(rng.standard_normal(), rng.standard_normal())
        words.append(toeplitz.word(c, xs, mid, ys))
    return toeplitz.ToeplitzElement(g, words)


def _condition_pairs(g: FiniteGraph, rng) -> list:
    pairs = []
    for t in range(N_PAIRS):
        m, n = t % 3, (t // 3) % 3
        deg = -(m - n)
        m2 = max(deg, 0) + t % 2
        pairs.append((_homogeneous(g, rng, m, n),
                      _homogeneous(g, rng, m2, m2 - deg)))
    return pairs


def kms_inputs(seed: int) -> dict:
    cases = []
    for ki, kind in enumerate(KMS_KINDS):
        rng = np.random.default_rng([seed, 1, ki])
        g = _kms_graph(kind, rng)
        rho = float(np.max(np.abs(np.linalg.eigvals(
            g.adjacency().astype(float)))))
        log_rho = math.log(rho) if rho > 1.0 else 0.0
        vertex = g.vertices[int(rng.integers(g.n_vertices))]
        sweep_words = {
            f"pi[{v}]": toeplitz.ToeplitzElement(
                g, [toeplitz.pi_word(modules.delta_vertex(g, v))])
            for v in g.vertices}
        for e in g.edges[:3]:
            d = modules.delta_edge(g, e)
            sweep_words[f"cc*[{e}]"] = toeplitz.ToeplitzElement(
                g, [toeplitz.word(1.0, (d,), None, (d,))])
        sweep_words["p"] = toeplitz.vacuum_projection(g)
        sweep_words["mix"] = _balanced_element(g, rng)
        measures = rng.random((N_MEASURES, g.n_vertices)) + 0.1
        cases.append({
            "kind": kind, "graph": g, "vertex": vertex,
            "betas": [log_rho + o for o in SWEEP_OFFSETS[kind]],
            "beta": log_rho + EVAL_OFFSET,
            "sweep_words": sweep_words,
            "measures": measures / measures.sum(axis=1, keepdims=True),
            "elements": [_balanced_element(g, rng)
                         for _ in range(N_ELEMENTS)],
            "pairs": _condition_pairs(g, rng),
        })
    return {"cases": cases}


def _kms_case(case: dict) -> dict:
    g = case["graph"]
    out = {"sweep": attempt(kms.kms_limit_sweep, g, case["vertex"],
                            case["sweep_words"], case["betas"])}
    try:
        params = kms.KMSParameters(g, case["beta"])
        points = [kms.KMSState.point_mass(params, v) for v in g.vertices]
        mixed = [kms.KMSState(params, m) for m in case["measures"]]
    except Exception as exc:        # the evaluation tasks below fail with it
        out["params"] = Raised(f"{type(exc).__name__}: {exc}")
        return out
    out["params"] = params
    out["values"] = [[attempt(kms.kms_eval, state, e)
                      for e in case["elements"]] for state in points + mixed]
    out["conditions"] = [attempt(kms.kms_condition_check, points[0], b1, b2,
                                 tol=1e-9) for b1, b2 in case["pairs"]]
    return out


def kms_run(inputs: dict) -> list:
    return [_kms_case(case) for case in inputs["cases"]]


def _oracle_depth(g: FiniteGraph, beta: float) -> int:
    depth = kms.choose_truncation_depth(g, beta)
    # choose_truncation_depth bounds the tail from |E^20 v|, which is 0 on
    # an acyclic graph, and then answers 1; there every path is shorter
    # than the vertex count, so that depth makes the series exact.
    A = g.adjacency()
    if not np.linalg.matrix_power(A, g.n_vertices).any():
        depth = max(depth, g.n_vertices)
    return depth


def _series_params(g: FiniteGraph, beta: float):
    """What ``kms_eval_truncated`` reads from a ``KMSParameters`` (graph,
    ``x``, partition sums), built from truncated path sums: the oracle
    shares neither the resolvent solve nor the spectral radius with the
    code it checks."""
    depth = _oracle_depth(g, beta)
    partition = np.array([kms.truncated_partition_sum(g, beta, v, depth)
                          for v in g.vertices])
    return SimpleNamespace(graph=g, x=math.exp(-beta),
                           partition=partition), depth


def _point_oracle(g: FiniteGraph, beta: float, elems: list, vertices):
    """Truncated-series values, one row per point-mass state, and the
    truncated partition sums."""
    params, depth = _series_params(g, beta)
    rows = []
    for v in vertices:
        measure = np.zeros(g.n_vertices)
        measure[g.vertex_index(v)] = 1.0
        state = SimpleNamespace(params=params, measure=measure)
        rows.append([kms.kms_eval_truncated(state, e, depth) for e in elems])
    return np.array(rows), params.partition


def _params_failures(label: str, p, partition: np.ndarray) -> list:
    """Spectral radius against eigvals, partition sums against the
    truncated path sums."""
    failures = []
    rho = float(np.max(np.abs(np.linalg.eigvals(
        p.graph.adjacency().astype(float)))))
    if abs(p.rho - rho) > RHO_TOL * max(1.0, rho):
        failures.append(f"{label}: spectral_radius {p.rho!r} but eigvals "
                        f"give {rho!r}")
    if np.any(np.abs(p.partition - partition) > 1e-9 * partition):
        failures.append(f"{label}: partition sums {p.partition} but "
                        f"truncated sums give {partition}")
    return failures


def _value_failures(label, elems, got_rows, want_rows) -> list:
    failures = []
    scales = [max(1.0, e.norm_bound()) for e in elems]
    for got_row, want_row in zip(got_rows, want_rows):
        for i, (scale, got, want) in enumerate(zip(scales, got_row,
                                                   want_row)):
            if isinstance(got, Raised):
                failures.append(f"{label}: element {i} raised {got.error}")
            elif abs(got - want) > KMS_VALUE_TOL * scale:
                failures.append(f"{label}: element {i} gives {got!r}, "
                                f"truncated series {want!r}")
    return failures


def kms_check(inputs: dict, outputs: list) -> tuple[int, list]:
    attempted, failures = 0, []
    for case, out in zip(inputs["cases"], outputs):
        g, kind, v = case["graph"], case["kind"], case["vertex"]
        words = case["sweep_words"]
        attempted += len(case["betas"]) * len(words)
        table = out["sweep"]
        if isinstance(table, Raised):
            failures += [f"{kind}: sweep raised {table.error}"] * (
                len(case["betas"]) * len(words))
        else:
            for beta in case["betas"]:
                label = f"{kind} sweep beta={beta:.3f}"
                rows = [r for r in table.rows if r.beta == beta]
                if [r.word_id for r in rows] != list(words):
                    failures += [f"{label}: rows do not match the "
                                 f"words"] * len(words)
                    continue
                elems = list(words.values())
                want, _ = _point_oracle(g, beta, elems, [v])
                failures += _value_failures(label, elems,
                                            [[r.value for r in rows]], want)
        n_states = g.n_vertices + len(case["measures"])
        attempted += (1 + n_states * len(case["elements"])
                      + len(case["pairs"]))
        p = out["params"]
        if isinstance(p, Raised):
            failures += [f"{kind}: not evaluated, KMSParameters raised "
                         f"{p.error}"] * (1 + n_states * len(case["elements"])
                                          + len(case["pairs"]))
            continue
        point, partition = _point_oracle(g, case["beta"], case["elements"],
                                         g.vertices)
        failures += _params_failures(f"{kind} state", p, partition)
        # a state is affine in its measure, so the point-mass series give
        # the oracle for every mixed state as well
        want = np.vstack([point, case["measures"] @ point])
        failures += _value_failures(f"{kind} state", case["elements"],
                                    out["values"], want)
        for i, rec in enumerate(out["conditions"]):
            if isinstance(rec, Raised) or not rec.passed:
                failures.append(f"{kind}: KMS condition pair {i}: {rec}")
    return attempted, failures


# ---------------------------------------------------------------------------
# circle: the circle-covering side on 1k-4k sample arrays

VERIFY = {"grid": 1024, "trials": 100, "degree": 16}
FRAME_BASE_N = 256
FRAME_CENTERS = 2           # bump frames per cover
COCYCLE_GRID = 384
MODULE_GRIDS = (1024, 2048, 4096)
MODULE_POOL = 4             # module elements per (graph, grid) case
MODULE_CHAINS = 10
MODULE_STEPS = 14
MODULE_TOL = 1e-9           # relative to the largest oracle entry


def _grid_angle(rng, n: int = 1024) -> float:
    return TWO_PI * int(rng.integers(n)) / n


def _module_graphs(rng) -> list:
    return [fixtures.circle_double_cover(), fixtures.circle_triple_cover(),
            CircleCoveringGraph([
                EdgeComponent(2, _grid_angle(rng), 4, _grid_angle(rng)),
                EdgeComponent(1, _grid_angle(rng), 1, _grid_angle(rng))])]


def _phases(g, rng, n: int) -> modules.VertexFunction:
    return modules.VertexFunction(g, np.exp(1j * TWO_PI * rng.random(n)), n)


def _conjugacy_pairs(rng) -> list:
    def rigid(d, m):
        return CircleCoveringGraph([EdgeComponent(d, _grid_angle(rng), m,
                                                  _grid_angle(rng))])
    pairs = []
    for _ in range(2):
        g = rigid(2, 2)
        pairs.append((g, g, "LocalConjugacyCertificate"))
    pairs.append((fixtures.circle_two_loops(), fixtures.circle_double_cover(),
                  "LocalConjugacyCertificate"))
    for _ in range(2):
        # range degree 2 against 4 over the same fibers: no rotation or
        # reflection intertwines the ranges, so the rigid search exhausts
        pairs.append((rigid(2, 2), rigid(2, 4), "Inconclusive"))
    pairs.append((rigid(2, 2), rigid(3, 3), "Refutation"))
    pairs.append((fixtures.circle_two_loops(), rigid(3, 3), "Refutation"))
    return pairs


def circle_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    frames = [(cover(), TWO_PI * int(rng.integers(FRAME_BASE_N))
               / FRAME_BASE_N)
              for cover in (fixtures.circle_double_cover,
                            fixtures.circle_triple_cover)
              for _ in range(FRAME_CENTERS)]
    cases = []
    for g in _module_graphs(rng):
        for n in MODULE_GRIDS:
            cases.append({
                "graph": g, "n": n,
                "xs": [modules.random_module_element(g, rng, n)
                       for _ in range(MODULE_POOL)],
                "as": [_phases(g, rng, n) for _ in range(MODULE_POOL)],
                "bs": [_phases(g, rng, n) for _ in range(MODULE_POOL)],
            })
    return {"verify": dict(VERIFY, seed=seed), "frames": frames,
            "conjugacy": _conjugacy_pairs(rng),
            "cocycles": [(name, build())
                         for name, build in fixtures.COCYCLE_FIXTURES.items()],
            "modules": cases}


def _module_chain(case: dict, start: int) -> np.ndarray:
    """Actions, inner products and one tensor inner product, chained so
    that every call sees distinct inputs; unit-modulus coefficients keep
    the magnitudes fixed."""
    xs, as_, bs = case["xs"], case["as"], case["bs"]
    p = len(xs)
    y = xs[start % p]
    acc = np.zeros(case["n"], dtype=np.complex128)
    for t in range(start, start + MODULE_STEPS):
        y = modules.right_action(modules.left_action(as_[t % p], y),
                                 bs[t % p])
        acc += modules.inner_product(xs[t % p], y).values
    return acc + modules.tensor_inner_product(
        [xs[start % p], y], [xs[(start + 1) % p], xs[(start + 2) % p]]).values


def _frame_task(g, center: float):
    fd = conjugacy.bump_frame(g, base_n=FRAME_BASE_N, center=center)
    return conjugacy.frame_verify(g, fd, tol=1e-9)


def circle_run(inputs: dict) -> dict:
    return {
        "verify": attempt(double_cover.run_verification, **inputs["verify"]),
        "frames": [attempt(_frame_task, g, c) for g, c in inputs["frames"]],
        "conjugacy": [attempt(conjugacy.local_conjugacy_check, e, f)
                      for e, f, _ in inputs["conjugacy"]],
        "cocycles": [attempt(bundles.global_frame_over_circle, c,
                             COCYCLE_GRID) for _, c in inputs["cocycles"]],
        "modules": [[attempt(_module_chain, case, s)
                     for s in range(MODULE_CHAINS)]
                    for case in inputs["modules"]],
    }


class _CircleOracle:
    """Module operations computed from the source and range maps sampled as
    angles, independently of the library's index arithmetic."""

    def __init__(self, g: CircleCoveringGraph, n: int):
        self.n = n
        self.src, self.rng = [], []
        for comp in g.components:
            u = TWO_PI * np.arange(comp.source_degree * n) / (
                comp.source_degree * n)
            self.src.append(self._index(comp.source_map(u)))
            self.rng.append(self._index(comp.range_map(u)))

    def _index(self, angles) -> np.ndarray:
        return np.rint(np.asarray(angles) * self.n / TWO_PI).astype(
            np.intp) % self.n

    def inner(self, x, y) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.complex128)
        for s, xc, yc in zip(self.src, x, y):
            np.add.at(out, s, xc.conj() * yc)
        return out

    def left(self, a, x) -> list:
        return [a[r] * xc for r, xc in zip(self.rng, x)]

    def right(self, x, a) -> list:
        return [xc * a[s] for s, xc in zip(self.src, x)]

    def chain(self, case: dict, start: int) -> np.ndarray:
        xs = [x.components for x in case["xs"]]
        as_ = [a.values for a in case["as"]]
        bs = [b.values for b in case["bs"]]
        p = len(xs)
        y = xs[start % p]
        acc = np.zeros(self.n, dtype=np.complex128)
        for t in range(start, start + MODULE_STEPS):
            y = self.right(self.left(as_[t % p], y), bs[t % p])
            acc += self.inner(xs[t % p], y)
        c = self.inner(xs[start % p], xs[(start + 1) % p])
        return acc + self.inner(y, self.left(c, xs[(start + 2) % p]))


def circle_check(inputs: dict, out: dict) -> tuple[int, list]:
    failures = []
    rep = out["verify"]
    if isinstance(rep, Raised):
        failures.append(f"run_verification raised {rep.error}")
    else:
        ok = (rep.boundary_start <= 1e-14 and rep.boundary_end <= 1e-14
              and rep.unitarity <= 1e-12 and rep.isometry <= 1e-9
              and max(rep.action_right, rep.action_left) <= 1e-9
              and rep.surjectivity <= 1e-13 and rep.endpoint_exact
              and rep.components == (2, 1))
        if not ok:
            failures.append(f"double-cover verification failed: {rep}")
    for (g, center), rep in zip(inputs["frames"], out["frames"]):
        if isinstance(rep, Raised) or not rep.passed \
                or rep.max_residuals.get("alpha-extraction", 1.0) > 1e-9:
            failures.append(f"bump frame at {center:.4f} on {g}: {rep}")
    for (e, f, kind), res in zip(inputs["conjugacy"], out["conjugacy"]):
        if type(res).__name__ != kind:
            failures.append(f"local conjugacy {e} vs {f}: expected {kind}, "
                            f"got {res}")
    for (name, _), fr in zip(inputs["cocycles"], out["cocycles"]):
        if isinstance(fr, Raised) or not (
                fr.unitarity <= 1e-12 and fr.transition_residual <= 1e-12
                and fr.endpoint_exact):
            failures.append(f"global frame over {name}: {fr}")
    n_chains = 0
    for case, results in zip(inputs["modules"], out["modules"]):
        oracle = _CircleOracle(case["graph"], case["n"])
        for start, got in enumerate(results):
            n_chains += 1
            if isinstance(got, Raised):
                failures.append(f"module chain raised {got.error}")
                continue
            want = oracle.chain(case, start)
            scale = max(1.0, float(np.max(np.abs(want))))
            if float(np.max(np.abs(got - want))) > MODULE_TOL * scale:
                failures.append(f"module chain {start} on {case['graph']} "
                                f"N={case['n']} disagrees with the oracle")
    attempted = (1 + len(inputs["frames"]) + len(inputs["conjugacy"])
                 + len(inputs["cocycles"]) + n_chains)
    return attempted, failures


WORKLOADS = {
    "suite": Workload(suite_inputs, suite_run, suite_check),
    "kms-sweep": Workload(kms_inputs, kms_run, kms_check),
    "circle": Workload(circle_inputs, circle_run, circle_check),
}
