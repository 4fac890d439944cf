"""The acceptance suite: every top-level correctness criterion, runnable
as one deterministic batch.

Each criterion function returns :class:`~graphcorr.report.Check` records
with pinned tolerances; :func:`run_all` collects them into a single
report.  The pytest acceptance module and the ``suite`` CLI subcommand
both call into here, so each criterion has exactly one implementation.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace

import numpy as np

from . import fixtures as fx
from .bundles import (cocycle_from_graph, global_frame_over_circle,
                      graph_from_cocycle, monodromy)
from .conjugacy import (FrameData, GraphIsomorphism, Refutation, bump_frame,
                        finite_graph_isomorphism, frame_verify,
                        nonzero_permutation)
from .double_cover import run_verification
from .errors import NoMatchingError, SingularMatrixError
from .graphs import FiniteGraph, growth_sequence, spectral_radius
from .kms import (KMSParameters, KMSState, kms_condition_residuals,
                  kms_eval, kms_limit_sweep, limit_sweep_words)
from .modules import ModuleElement, delta_edge
from .report import Check, RunReport, Timer, summarize
from .toeplitz import (ToeplitzElement, _one_word_stack,
                       reconstruct_module_check, triple_iso_transport,
                       vacuum_projection_checks, word)

KMS_FIXTURES = ("single-loop", "three-loops", "fibonacci")
RECONSTRUCT_FIXTURES = ("single-loop", "three-loops", "fibonacci", "ten-edge")
#: criterion 9's cycle unions: equal degrees, pairwise non-isomorphic
CYCLE_PARTITIONS = ((6,), (3, 3), (4, 2), (2, 2, 2), (5, 1))


def criterion_1_kms_closed_form():
    """Single loop: partition sum and one-edge word in closed form."""
    g = fx.single_loop()
    checks = []
    d = delta_edge(g, "e")
    w = ToeplitzElement(g, [word(1.0, (d,), None, (d,))])
    for beta in (0.5, 1.0, 2.0):
        params = KMSParameters(g, beta)
        n_v = params.partition_sum("v")
        res_n = abs(n_v - 1.0 / (1.0 - math.exp(-beta)))
        checks.append(Check(f"1.partition-sum[beta={beta}]",
                            res_n <= 1e-12, res_n))
        state = KMSState.point_mass(params, "v")
        res_w = abs(kms_eval(state, w) - math.exp(-beta))
        checks.append(Check(f"1.one-edge-word[beta={beta}]",
                            res_w <= 1e-12, res_w))
    return checks


def criterion_2_kms_condition(seed: int = 0):
    """500 random homogeneous one-word pairs across three graphs at beta =
    2, the pairs over a graph in one :func:`kms_condition_residuals` call,
    stacked by word shape."""
    rng = np.random.default_rng(seed)
    counts = (167, 167, 166)
    residuals = []
    for name, n_pairs in zip(KMS_FIXTURES, counts):
        g = fx.FINITE_FIXTURES[name]()
        params = KMSParameters(g, 2.0)
        state = KMSState.point_mass(params, g.vertices[0])
        draws: dict = {}
        for _ in range(n_pairs):
            m1, n1, z1 = _draw_word(g, rng)
            # a drawn word is never zero on these fixtures, which all have
            # edges, so the degree of b2 is drawn as for a nonempty b1
            m2, n2, z2 = _draw_word(g, rng, n1 - m1 if rng.random() < 0.7
                                    else None)
            draws.setdefault((m1, n1, m2, n2), []).append((z1, z2))
        entries = []
        for (m1, n1, m2, n2), zs in draws.items():
            z1, z2 = (np.array(z) for z in zip(*zs))
            entries.append((_word_stack(g, m1, n1, z1),
                            _word_stack(g, m2, n2, z2)))
        residuals += kms_condition_residuals(state, entries).tolist()
    return [Check(f"2.kms-condition[{len(residuals)} pairs]",
                  all(r <= 1e-9 for r in residuals),
                  max(residuals, default=0.0))]


def _draw_word(g, rng, degree=None) -> tuple[int, int, np.ndarray]:
    """Creation and annihilation counts of a random homogeneous one-word
    element ``C(xs) P(mid) C(ys)*`` (``mid`` only without creations), and
    the normals of its factors as one block, drawn in the order in which
    :func:`~graphcorr.modules.random_module_element` and
    :func:`~graphcorr.modules.random_vertex_function` draw them."""
    if degree is None:
        m, n = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    else:
        m = max(degree, 0) + int(rng.integers(0, 2))
        n = m - degree
    z = rng.standard_normal(2 * (m + n) * g.n_edges
                            + (0 if m else 2 * g.n_vertices))
    return m, n, z


def _word_stack(g, m: int, n: int, z: np.ndarray) -> list:
    """The word stack, coefficient 1, of the :func:`_draw_word` blocks
    ``z``, one trial a row."""
    ne, nv = g.n_edges, g.n_vertices
    f = z[:, :2 * (m + n) * ne].reshape(len(z), m + n, 2, ne)
    f = f[:, :, 0] + 1j * f[:, :, 1]
    mid = None if m else z[:, -2 * nv:-nv] + 1j * z[:, -nv:]
    return _one_word_stack([f[:, k] for k in range(m)], mid,
                           [f[:, k] for k in range(m, m + n)])


def criterion_3_kms_limits():
    """Residuals to the vacuum states decrease and obey the e^{-beta} bound."""
    g = fx.fibonacci()
    words = limit_sweep_words(g)
    p = words["p"]
    checks = []
    table = kms_limit_sweep(g, "a", words, range(1, 11))
    checks.append(Check("3.residuals-monotone", table.monotone_decreasing(),
                        table.fitted_constant,
                        detail=f"fitted C = {table.fitted_constant:.3f}"))
    norms = {k: w.norm_bound() for k, w in words.items()}
    bound_ok = True
    worst_ratio = 0.0
    for row in table.rows:
        bound = 3.0 * math.exp(-row.beta) * norms[row.word_id]
        worst_ratio = max(worst_ratio,
                          row.residual / bound if bound else 0.0)
        bound_ok = bound_ok and row.residual <= bound
    checks.append(Check("3.residual-bound", bound_ok, worst_ratio,
                        detail="residual / (3 e^{-beta} |w|) max ratio"))
    vacuum = KMSState.point_mass(KMSParameters(g, math.inf), "a")
    inf_val = kms_eval(vacuum, p)
    checks.append(Check("3.vacuum-projection-infty", inf_val == 1.0,
                        abs(inf_val - 1.0)))
    return checks


def criterion_4_vacuum_projection():
    """Rank-one vacuum matrix at every vertex; selfadjoint idempotent."""
    checks = []
    for name in ("single-loop", "three-loops", "fibonacci", "ten-edge",
                 "edgeless"):
        g = fx.FINITE_FIXTURES[name]()
        idem, adj, rank = vacuum_projection_checks(g, 5)
        checks += [replace(c, name=f"4.{c.name}[{name}]")
                   for c in (rank, idem, adj)]
    return checks


def criterion_5_reconstruction(seed: int = 0):
    """Vacuum compression identities, exact and under truncated matrices."""
    checks = []
    for name in RECONSTRUCT_FIXTURES:
        g = fx.FINITE_FIXTURES[name]()
        c = reconstruct_module_check(g, trials=100, tol=1e-12, seed=seed)
        checks.append(Check(f"5.reconstruction[{name}]", c.passed, c.residual,
                            "" if c.passed else f"first violation {c.detail}"))
    return checks


def relabeled_copy(g: FiniteGraph, rng) -> tuple[FiniteGraph,
                                                 GraphIsomorphism]:
    """A copy of ``g`` with fresh ids (``w*``, ``f*``) and shuffled
    indices, and the isomorphism ``g -> copy`` drawn for it."""
    vperm = rng.permutation(g.n_vertices)
    eperm = rng.permutation(g.n_edges)
    new_v = [f"w{i}" for i in range(g.n_vertices)]
    back = np.argsort(eperm)    # copy's edge j is g's edge back[j]
    F = FiniteGraph(new_v, [f"f{j}" for j in range(g.n_edges)],
                    [new_v[v] for v in vperm[g.src_idx[back]]],
                    [new_v[v] for v in vperm[g.rng_idx[back]]])
    return F, GraphIsomorphism(vertices=vperm, edges=eperm)


def criterion_6_transport(seed: int = 0):
    """Transport along 20 random relabelings of the ten-edge fixture."""
    rng = np.random.default_rng(seed)
    g = fx.ten_edge()
    checks = []
    for t in range(20):
        F, iso = relabeled_copy(g, rng)
        checks.append(triple_iso_transport(iso, g, F, trials=5, seed=seed + t))
    return [summarize("6.triple-iso-transport[20 relabelings]", checks)]


def criterion_7_spectral_radius():
    checks = []
    rho3 = spectral_radius(fx.k_loops(3))
    checks.append(Check("7.k-loops-exact", rho3 == 3.0, abs(rho3 - 3.0)))
    g = fx.fibonacci()
    rho = spectral_radius(g, tol=1e-10)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    checks.append(Check("7.fibonacci-golden", abs(rho - golden) <= 1e-9,
                        abs(rho - golden)))
    g20 = growth_sequence(g, 20)[-1]
    checks.append(Check("7.growth-cross-check[n=20]", abs(g20 - rho) <= 0.02,
                        abs(g20 - rho)))
    return checks


def criterion_8_permutation_lemma(seed: int = 0):
    rng = np.random.default_rng(seed)
    ok = True
    worst_margin = math.inf
    agree = True
    for t in range(500):
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        if t % 10 == 9:
            # the matching on an all-true pattern is (5, 4, 3, 2, 1, 0), so
            # zeros there are matched unless the threshold is applied
            B[np.arange(6), np.arange(5, -1, -1)] = 0
        try:
            w = nonzero_permutation(B)
        except (SingularMatrixError, NoMatchingError):
            ok = False
            continue
        valid = all(abs(B[i, w.sigma[i]]) > w.threshold for i in range(6))
        ok = ok and valid
        worst_margin = min(worst_margin, w.margin)
        if t < 50:
            best = _exhaustive_best_margin(B)
            agree = agree and best > w.threshold and w.margin <= best + 1e-12
    checks = [Check("8.matching[500 matrices]", ok, worst_margin,
                    detail="smallest matched entry"),
              Check("8.exhaustive-agreement[50 matrices]", agree)]
    return checks


def _exhaustive_best_margin(B: np.ndarray) -> float:
    """Largest smallest matched entry over every permutation, scored as
    one array.  ``hypot`` of the parts is bitwise the scalar ``abs`` that
    :func:`nonzero_permutation` takes its margin with; array ``abs`` of a
    complex array is not."""
    k = B.shape[0]
    mags = np.hypot(B.real, B.imag)
    return float(mags[np.arange(k), _permutations(k)].min(axis=1)
                 .max(initial=0.0))


@functools.cache
def _permutations(k: int) -> np.ndarray:
    """Every permutation of ``range(k)``, one a row in lexicographic
    order, built once per ``k`` and read-only, as the exhaustive oracles
    share it."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    perms.flags.writeable = False
    return perms


def _cycle_graph_union(lengths) -> FiniteGraph:
    """Disjoint directed cycles of the given lengths."""
    vertices, edges, src, rng_ = [], [], [], []
    v0 = 0
    for ln in lengths:
        for i in range(ln):
            vertices.append(f"v{v0 + i}")
            edges.append(f"e{v0 + i}")
            src.append(f"v{v0 + i}")
            rng_.append(f"v{v0 + (i + 1) % ln}")
        v0 += ln
    return FiniteGraph(vertices, edges, src, rng_)


def criterion_9_graph_isomorphism(seed: int = 0):
    rng = np.random.default_rng(seed)
    found = True
    for _ in range(100):
        g = _random_graph(rng)
        res = finite_graph_isomorphism(g, relabeled_copy(g, rng)[0])
        found = found and isinstance(res, GraphIsomorphism)
    pairs = [(_cycle_graph_union(a), _cycle_graph_union(b))
             for a, b in itertools.combinations(CYCLE_PARTITIONS, 2)]
    refuted = all(isinstance(finite_graph_isomorphism(E, F), Refutation)
                  for E, F in pairs)
    oracle_confirms = not any(_exhaustive_isomorphic(E, F) for E, F in pairs)
    return [Check("9.relabeled-pairs-found[100]", found),
            Check("9.nonisomorphic-pairs-refuted[10]", refuted),
            Check("9.exhaustive-oracle-agrees", oracle_confirms)]


def _random_graph(rng) -> FiniteGraph:
    n = int(rng.integers(3, 7))
    m = int(rng.integers(2 * n - 2, 2 * n + 3))
    vertices = [f"v{i}" for i in range(n)]
    edges = [f"e{i}" for i in range(m)]
    src = [f"v{int(rng.integers(0, n))}" for _ in range(m)]
    rng_ = [f"v{int(rng.integers(0, n))}" for _ in range(m)]
    return FiniteGraph(vertices, edges, src, rng_)


def _exhaustive_isomorphic(E: FiniteGraph, F: FiniteGraph) -> bool:
    """Whether some vertex permutation ``p`` has ``A_F[p_i, p_j] = A_E[i,
    j]`` throughout, every permutation scored at once."""
    if E.n_vertices != F.n_vertices or E.n_edges != F.n_edges:
        return False
    AE, AF = E.adjacency(), F.adjacency()
    p = _permutations(E.n_vertices)
    return bool((AF[p[:, :, None], p[:, None, :]] == AE).all(axis=(1, 2))
                .any())


def criterion_10_double_cover(seed: int = 0):
    rep = run_verification(grid=1024, trials=100, degree=16, seed=seed)
    return [replace(c, name=f"10.{c.name}") for c in rep.checks(1e-9)]


def criterion_11_bundles():
    checks = []
    c_f = cocycle_from_graph(fx.circle_double_cover())
    checks.append(Check("11.double-cover-monodromy",
                        monodromy(c_f).cycle_type == (2,),
                        detail=f"{monodromy(c_f).cycle_type}"))
    g_round = graph_from_cocycle(fx.swap_cocycle())
    degs = sorted(c.source_degree for c in g_round.components)
    checks.append(Check("11.swap-to-graph", degs == [2], detail=f"{degs}"))
    g_id = graph_from_cocycle(fx.identity_cocycle(3))
    degs_id = sorted(c.source_degree for c in g_id.components)
    checks.append(Check("11.identity-to-loops", degs_id == [1, 1, 1],
                        detail=f"{degs_id}"))
    for name, builder in (("swap", fx.swap_cocycle),
                          ("three-cycle", fx.three_cycle_cocycle),
                          ("two-plus-one", fx.two_plus_one_cocycle)):
        checks.append(replace(global_frame_over_circle(builder(), 48).check(),
                              name=f"11.frame[{name}]"))
    return checks


def criterion_12_frame_lemma():
    g = fx.circle_double_cover()
    fd = bump_frame(g, base_n=256)
    rep = frame_verify(g, fd, tol=1e-9)
    checks = [replace(rep.check(), name="12.bump-frame-passes",
                      detail=rep.failed_condition or "")]
    alpha_res = rep.max_residuals.get("alpha-extraction", math.inf)
    checks.append(Check("12.alpha-extraction", alpha_res <= 1e-9, alpha_res))
    pert = ModuleElement(
        g, tuple(a + 1e-3 * b for a, b in zip(fd.gens[0].components,
                                              fd.gens[1].components)),
        fd.h.base_n)
    rep2 = frame_verify(g, FrameData(h=fd.h, gens=(pert, fd.gens[1]),
                                     alphas=fd.alphas), tol=1e-9)
    checks.append(Check("12.perturbed-fails-orthogonality",
                        (not rep2.passed)
                        and rep2.failed_condition == "(1) orthogonality",
                        detail=str(rep2.failed_condition)))
    return checks


CRITERIA = (
    ("kms-closed-form", criterion_1_kms_closed_form, False),
    ("kms-condition", criterion_2_kms_condition, True),
    ("kms-infty-limits", criterion_3_kms_limits, False),
    ("vacuum-projection", criterion_4_vacuum_projection, False),
    ("reconstruction", criterion_5_reconstruction, True),
    ("triple-iso-transport", criterion_6_transport, True),
    ("spectral-radius", criterion_7_spectral_radius, False),
    ("permutation-lemma", criterion_8_permutation_lemma, True),
    ("graph-isomorphism", criterion_9_graph_isomorphism, True),
    ("double-cover", criterion_10_double_cover, True),
    ("bundle-round-trip", criterion_11_bundles, False),
    ("frame-lemma", criterion_12_frame_lemma, False),
)


def run_criterion(index: int, seed: int = 0):
    """Checks for criterion ``index`` (1-based)."""
    name, func, seeded = CRITERIA[index - 1]
    return func(seed) if seeded else func()


def run_all(seed: int = 0) -> RunReport:
    report = RunReport(command="suite all", seed=seed)
    with Timer() as t:
        for i in range(1, len(CRITERIA) + 1):
            report.checks.extend(run_criterion(i, seed))
    report.wall_time = t.elapsed
    return report
