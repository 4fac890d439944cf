"""Command-line front end.

Exit codes: 0 all checks passed, 1 a check failed or a domain error was
hit, 2 usage or input-format errors.  With ``--json``/``--csv`` the
report is also written to a file; those artifacts exclude wall time and
are byte-identical for identical inputs and seeds.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bundles import (cocycle_check, cocycle_from_graph, cocycle_to_dict,
                      global_frame_over_circle, graph_from_cocycle,
                      load_cocycle, monodromy)
from .conjugacy import (GraphIsomorphism, LocalConjugacyCertificate,
                        Refutation, bump_frame, bimodule_invariants,
                        finite_graph_isomorphism, frame_verify,
                        local_conjugacy_check, nonzero_permutation)
from .double_cover import run_verification
from .errors import (DomainError, FormatError, MismatchError, NoMatchingError,
                     SingularMatrixError, SizeLimitError, WorkbenchError)
from .graphs import (FiniteGraph, enumerate_paths, graph_to_dict,
                     load_graph, load_json, s_section_decomposition,
                     spectral_radius)
from .kms import (KMSInftyState, KMSParameters, KMSState, kms_condition_check,
                  kms_eval, kms_infty_eval, kms_limit_sweep,
                  extremal_separation_check, limit_sweep_words)
from .modules import (element_from_dict, fiber_evaluation, inner_product,
                      left_action, module_norm, right_action,
                      tensor_inner_product, vertex_function_from_dict,
                      vertex_position)
from .report import RunReport, Timer
from .serialize import (digest_file, element_from_json, element_to_json,
                        matrix_from_json)
from .suite import run_all
from .toeplitz import (fock_matrix, spectral_component,
                       reconstruct_module_check, triple_iso_transport,
                       vacuum_projection_checks)

#: operation -> subcommand that reaches it (coverage-tested)
COMMAND_TABLE = {
    "fiber_count": "graph fiber-count",
    "enumerate_paths": "graph paths",
    "spectral_radius": "graph spectral-radius",
    "s_section_decomposition": "graph sections",
    "inner_product": "module inner-product",
    "right_action": "module act",
    "left_action": "module act",
    "module_norm": "module norm",
    "tensor_inner_product": "module tensor-inner-product",
    "fiber_evaluation": "module fiber-eval",
    "word_multiply": "fock multiply",
    "fock_matrix": "fock matrix",
    "vacuum_projection": "fock p-check",
    "spectral_component": "fock component",
    "reconstruct_module_check": "fock reconstruct-check",
    "triple_iso_transport": "fock transport",
    "partition_sum": "kms partition",
    "kms_eval": "kms eval",
    "kms_condition_check": "kms condition",
    "kms_infty_eval": "kms infty",
    "kms_limit_sweep": "kms sweep",
    "extremal_separation_check": "kms separation",
    "nonzero_permutation": "iso nonzero-perm",
    "finite_graph_isomorphism": "iso check",
    "bimodule_invariants": "bimodule invariants",
    "frame_verify": "localconj frame",
    "local_conjugacy_check": "localconj check",
    "build_twist": "example-s5 verify",
    "rho_map": "example-s5 verify",
    "verify_isometry": "example-s5 verify",
    "verify_bimodule": "example-s5 verify",
    "surjectivity_solve": "example-s5 verify",
    "nonisomorphism_witness": "example-s5 verify",
    "cocycle_check": "bundle check",
    "cocycle_from_graph": "bundle from-graph",
    "monodromy": "bundle monodromy",
    "graph_from_cocycle": "bundle to-graph",
    "global_frame_over_circle": "bundle frame",
    "dispatch": "suite all",
}


def _load_any(path: str, report: RunReport):
    g = load_graph(path)
    report.inputs.append((path, digest_file(path)))
    return g


def _load_finite(path: str, report: RunReport) -> FiniteGraph:
    g = _load_any(path, report)
    if not isinstance(g, FiniteGraph):
        raise FormatError(f"{path}: a finite graph is required here")
    return g


def _json_arg(value: str):
    """Inline JSON if it looks like JSON, else a file path."""
    s = value.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    return load_json(value)


def _json_arg_or_id(value: str):
    """Like :func:`_json_arg`, but a bare token that names no file is an
    edge/vertex id."""
    s = value.strip()
    if s.startswith(("{", "[")) or os.path.exists(s):
        return _json_arg(s)
    return s


def _vertex_arg(g, text: str):
    """``--vertex``: a vertex id of a finite graph, a finite angle on a
    circle graph."""
    if isinstance(g, FiniteGraph):
        return text
    try:
        angle = float(text)
    except ValueError:
        angle = math.nan
    if not math.isfinite(angle):
        raise FormatError(f"--vertex expects a finite angle, got {text!r}")
    return angle


#: largest beta grid ``kms sweep`` accepts
MAX_BETAS = 10_000


def _parse_betas(text: str):
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise FormatError(f"--betas expects lo:hi:step, got {text!r}") \
            from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0:
        raise FormatError(f"--betas needs finite bounds and a positive "
                          f"step, got {text!r}")
    if (hi - lo) / step + 1 > MAX_BETAS:
        raise FormatError(f"--betas {text!r} has more than {MAX_BETAS} "
                          "points")
    out = []
    b = lo
    while b <= hi + 1e-12:
        out.append(round(b, 12))
        b += step
    return out


# ---------------------------------------------------------------------------
# handlers


def cmd_graph_validate(args, report):
    g = _load_any(args.graph, report)
    if isinstance(g, FiniteGraph):
        print(f"finite graph: {g.n_vertices} vertices, {g.n_edges} edges")
        report.add("validate", True, detail="finite")
    else:
        degs = [c.source_degree for c in g.components]
        print(f"circle graph: {len(degs)} components, source degrees {degs}, "
              f"fiber count {g.total_fiber_degree()}")
        report.add("validate", True, detail="circle")


def cmd_graph_spectral_radius(args, report):
    g = _load_finite(args.graph, report)
    rho = spectral_radius(g, tol=args.tol)
    print(f"spectral radius: {rho!r}")
    report.add("spectral-radius", True, detail=repr(rho))


def cmd_graph_paths(args, report):
    g = _load_finite(args.graph, report)
    paths = enumerate_paths(g, args.vertex, args.length)
    for p in paths:
        print(" ".join(p.edges) if p.edges else f"({p.vertex})")
    report.add("paths", True, detail=f"{len(paths)} paths")


def cmd_graph_fiber_count(args, report):
    g = _load_any(args.graph, report)
    n = g.fiber_count(_vertex_arg(g, args.vertex))
    print(f"fiber count at {args.vertex}: {n}")
    report.add("fiber-count", True, detail=str(n))


def cmd_graph_sections(args, report):
    g = _load_any(args.graph, report)
    if isinstance(g, FiniteGraph):
        raise FormatError("sections apply to circle graphs")
    W, secs = s_section_decomposition(g, _vertex_arg(g, args.vertex),
                                      width=args.width)
    print(f"arc [{W.start:.6f}, {W.start + W.length:.6f})")
    worst = 0.0
    for s in secs:
        samples = W.sample(256, margin=1e-9)
        comp = g.components[s.component]
        back = comp.source_map(s.lift(samples))
        err = float(np.max(np.abs(np.minimum(
            np.abs(back - samples), 2 * np.pi - np.abs(back - samples)))))
        worst = max(worst, err)
        z = s.arc
        print(f"  component {s.component} branch {s.branch}: "
              f"[{z.start:.6f}, {z.start + z.length:.6f})")
    report.add("section-identity", worst <= 1e-12, worst,
               detail="s o lift = id on 256 samples")


def cmd_module_inner_product(args, report):
    g = _load_any(args.graph, report)
    x = element_from_dict(g, _json_arg_or_id(args.x))
    y = element_from_dict(g, _json_arg_or_id(args.y))
    ip = inner_product(x, y)
    print(np.round(ip.values, 12))
    report.add("inner-product", True)


def cmd_module_norm(args, report):
    g = _load_any(args.graph, report)
    x = element_from_dict(g, _json_arg_or_id(args.x))
    print(f"norm: {module_norm(x)!r}")
    report.add("norm", True)


def cmd_module_tensor_ip(args, report):
    g = _load_any(args.graph, report)
    xs = [element_from_dict(g, d) for d in _json_arg(args.xs)]
    ys = [element_from_dict(g, d) for d in _json_arg(args.ys)]
    ip = tensor_inner_product(xs, ys)
    print(np.round(ip.values, 12))
    report.add("tensor-inner-product", True)


def cmd_module_fiber_eval(args, report):
    g = _load_any(args.graph, report)
    x = element_from_dict(g, _json_arg_or_id(args.x))
    v = _vertex_arg(g, args.vertex)
    vec = fiber_evaluation(x, v)
    norm_sq = float(np.sum(np.abs(vec) ** 2))
    ip = inner_product(x, x)
    expect = float(ip.values[vertex_position(g, v, x.base_n)].real)
    print(np.round(vec, 12))
    report.add("fiber-norm-identity", abs(norm_sq - expect) <= 1e-12,
               abs(norm_sq - expect))


def cmd_module_act(args, report):
    g = _load_any(args.graph, report)
    x = element_from_dict(g, _json_arg_or_id(args.x))
    a = vertex_function_from_dict(g, _json_arg_or_id(args.a))
    out = left_action(a, x) if args.side == "left" else right_action(x, a)
    print(np.round(out.values, 12))
    report.add(f"{args.side}-action", True)


def cmd_fock_matrix(args, report):
    g = _load_finite(args.graph, report)
    elem = element_from_json(g, _json_arg(args.word))
    fm = fock_matrix(elem, args.vertex, args.depth)
    print(f"basis dim {fm.fock.dim}, valid columns "
          f"{int(fm.valid_cols.sum())}/{fm.fock.dim}")
    print(np.round(fm.matrix, 10))
    report.add("fock-matrix", True)


def cmd_fock_multiply(args, report):
    g = _load_finite(args.graph, report)
    e1 = element_from_json(g, _json_arg(args.w1))
    e2 = element_from_json(g, _json_arg(args.w2))
    prod = e1 * e2
    print(json.dumps(element_to_json(prod), indent=1))
    report.add("word-multiply", True,
               detail=f"degrees {sorted(prod.degrees())}")


def cmd_fock_component(args, report):
    g = _load_finite(args.graph, report)
    elem = element_from_json(g, _json_arg(args.word))
    comp = spectral_component(elem, args.degree)
    print(json.dumps(element_to_json(comp), indent=1))
    report.add("spectral-component", True,
               detail=f"{len(comp.words)} words of degree {args.degree}")


def cmd_fock_p_check(args, report):
    g = _load_finite(args.graph, report)
    idem, adj, rank = vacuum_projection_checks(g, args.depth)
    report.add("p-idempotent", idem.passed, idem.residual)
    report.add("p-selfadjoint", adj.passed, adj.residual)
    report.add("p-rank-one-everywhere", rank.passed)


def cmd_fock_reconstruct(args, report):
    g = _load_finite(args.graph, report)
    report.checks.append(reconstruct_module_check(
        g, trials=args.trials, tol=args.tol, seed=args.seed,
        depth=args.depth))


def cmd_fock_transport(args, report):
    E = _load_finite(args.graph_e, report)
    F = _load_finite(args.graph_f, report)
    res = finite_graph_isomorphism(E, F)
    if isinstance(res, Refutation):
        report.add("transport", False, detail=f"not isomorphic: {res.reason}")
        return
    report.checks.append(triple_iso_transport(res, E, F, trials=args.trials,
                                              seed=args.seed))


def cmd_kms_partition(args, report):
    g = _load_finite(args.graph, report)
    params = KMSParameters(g, args.beta)
    n_v = params.partition_sum(args.vertex)
    print(f"partition sum: {n_v!r}")
    report.add("partition-sum", True, detail=repr(n_v))


def cmd_kms_eval(args, report):
    g = _load_finite(args.graph, report)
    params = KMSParameters(g, args.beta)
    if args.measure is None:
        m = np.full(g.n_vertices, 1.0 / g.n_vertices)
    else:
        data = _json_arg(args.measure)
        if not isinstance(data, dict):
            raise FormatError("--measure expects a JSON object mapping "
                              "vertex ids to weights")
        m = np.zeros(g.n_vertices)
        for vid, wt in data.items():
            if isinstance(wt, bool) or not isinstance(wt, (int, float)):
                raise FormatError(f"--measure weight for {vid!r} is not a "
                                  f"number: {wt!r}")
            m[g.vertex_index(vid)] = wt
    state = KMSState(params, m)
    elem = element_from_json(g, _json_arg(args.word))
    val = kms_eval(state, elem)
    print(f"value: {val!r}")
    report.add("kms-eval", True, detail=repr(val))


def cmd_kms_condition(args, report):
    g = _load_finite(args.graph, report)
    params = KMSParameters(g, args.beta)
    state = KMSState.point_mass(params, args.vertex or g.vertices[0])
    b1 = element_from_json(g, _json_arg(args.w1))
    b2 = element_from_json(g, _json_arg(args.w2))
    report.checks.append(kms_condition_check(state, b1, b2, tol=args.tol))


def cmd_kms_infty(args, report):
    g = _load_finite(args.graph, report)
    state = KMSInftyState(g, args.vertex)
    elem = element_from_json(g, _json_arg(args.word))
    val = kms_infty_eval(state, elem)
    print(f"value: {val!r}")
    report.add("kms-infty", True, detail=repr(val))


def cmd_kms_sweep(args, report):
    g = _load_finite(args.graph, report)
    betas = _parse_betas(args.betas)
    table = kms_limit_sweep(g, args.vertex, limit_sweep_words(g), betas)
    lines = ["beta,word-id,value,residual"]
    for row in table.rows:
        lines.append(f"{row.beta},{row.word_id},{row.value!r},"
                     f"{row.residual!r}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        print(csv_text, end="")
    report.add("sweep-monotone", table.monotone_decreasing(),
               table.fitted_constant,
               detail=f"fitted C = {table.fitted_constant:.4f}")


def cmd_kms_separation(args, report):
    g = _load_finite(args.graph, report)
    params = KMSParameters(g, args.beta)
    report.checks += extremal_separation_check(params, trials=args.trials,
                                               seed=args.seed)


def cmd_iso_check(args, report):
    E = _load_finite(args.graph_e, report)
    F = _load_finite(args.graph_f, report)
    res = finite_graph_isomorphism(E, F)
    if isinstance(res, GraphIsomorphism):
        print(json.dumps({"vertices": res.vertex_map, "edges": res.edge_map},
                         indent=1, sort_keys=True))
        report.add("isomorphic", True)
    else:
        print(f"not isomorphic: {res.reason}")
        report.add("isomorphic", False, detail=res.reason)


def cmd_iso_nonzero_perm(args, report):
    B = matrix_from_json(_json_arg(args.matrix))
    try:
        w = nonzero_permutation(B, threshold=args.threshold)
    except (SingularMatrixError, NoMatchingError) as exc:
        report.add("nonzero-permutation", False, detail=str(exc))
        return
    print(f"sigma: {list(w.sigma)}  margin: {w.margin!r}")
    report.add("nonzero-permutation", True, w.margin)


def cmd_bimodule_invariants(args, report):
    g = _load_finite(args.graph, report)
    form = bimodule_invariants(g)
    print(json.dumps(list(form)))
    report.add("canonical-form", True, detail=f"{form}")


def cmd_localconj_check(args, report):
    E = _load_any(args.graph_e, report)
    F = _load_any(args.graph_f, report)
    res = local_conjugacy_check(E, F, tol=args.tol, grid=args.grid)
    if isinstance(res, LocalConjugacyCertificate):
        kind = "reflection" if res.vertex_map.reflect else "rotation"
        print(f"certificate: {kind} by {res.vertex_map.offset:.6f}, "
              f"{len(res.matchings)} arc matchings")
        report.add("local-conjugacy", True,
                   detail=f"{kind} {res.vertex_map.offset:.6f}")
    elif isinstance(res, Refutation):
        print(f"refuted: {res.reason}")
        report.add("local-conjugacy", False, detail=res.reason)
    else:
        print(f"inconclusive: {res.reason}")
        report.add("local-conjugacy", False, detail=res.reason)


def cmd_localconj_frame(args, report):
    g = _load_any(args.graph, report)
    if isinstance(g, FiniteGraph):
        raise FormatError("the bump-frame construction needs a circle graph")
    fd = bump_frame(g, base_n=args.grid_n, center=args.center,
                    width=args.width)
    report.checks.append(frame_verify(g, fd, tol=args.tol).check())


def cmd_example_s5(args, report):
    rep = run_verification(grid=args.grid, trials=args.trials,
                           seed=args.seed)
    report.checks += rep.checks(args.tol)


def cmd_bundle(args, report):
    if args.bundle_cmd == "from-graph":
        g = _load_any(args.file, report)
        if isinstance(g, FiniteGraph):
            raise FormatError("a circle graph is required")
        c = cocycle_from_graph(g)
        print(json.dumps(cocycle_to_dict(c), indent=1, sort_keys=True))
        report.add("from-graph", cocycle_check(c).passed)
        return
    c = load_cocycle(args.file)
    report.inputs.append((args.file, digest_file(args.file)))
    if args.bundle_cmd == "check":
        res = cocycle_check(c)
        violations = res.detail.splitlines()
        for v in violations:
            print(f"violation: {v}")
        report.add("cocycle-check", res.passed,
                   detail=f"{len(violations)} violations")
    elif args.bundle_cmd == "monodromy":
        m = monodromy(c)
        print(f"permutation: {list(m.permutation)}  "
              f"cycle type: {list(m.cycle_type)}")
        report.add("monodromy", True, detail=f"cycle type {m.cycle_type}")
    elif args.bundle_cmd == "to-graph":
        g = graph_from_cocycle(c)
        print(json.dumps(graph_to_dict(g), indent=1, sort_keys=True))
        report.add("to-graph", True)
    elif args.bundle_cmd == "frame":
        fr = global_frame_over_circle(c, args.grid)
        print(f"unitarity {fr.unitarity:.3e}, transitions "
              f"{fr.transition_residual:.3e}, seam exact: "
              f"{fr.endpoint_exact}")
        report.checks.append(fr.check())


def cmd_suite(args, report):
    report.checks += run_all(seed=args.seed).checks


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphcorr",
        description="graph correspondence workbench")
    ap.add_argument("--json", metavar="PATH", help="write the report as JSON")
    ap.add_argument("--csv", metavar="PATH", help="write the report as CSV")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="graph inspection")
    gs = g.add_subparsers(dest="graph_cmd", required=True)
    p = gs.add_parser("validate")
    p.add_argument("graph")
    p.set_defaults(func=cmd_graph_validate)
    p = gs.add_parser("spectral-radius")
    p.add_argument("graph")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_graph_spectral_radius)
    p = gs.add_parser("paths")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=cmd_graph_paths)
    p = gs.add_parser("fiber-count")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=cmd_graph_fiber_count)
    p = gs.add_parser("sections")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--width", type=float, default=3.141592653589793)
    p.set_defaults(func=cmd_graph_sections)

    m = sub.add_parser("module", help="correspondence operations")
    ms = m.add_subparsers(dest="module_cmd", required=True)
    p = ms.add_parser("inner-product")
    p.add_argument("graph")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_module_inner_product)
    p = ms.add_parser("norm")
    p.add_argument("graph")
    p.add_argument("--x", required=True)
    p.set_defaults(func=cmd_module_norm)
    p = ms.add_parser("tensor-inner-product")
    p.add_argument("graph")
    p.add_argument("--xs", required=True)
    p.add_argument("--ys", required=True)
    p.set_defaults(func=cmd_module_tensor_ip)
    p = ms.add_parser("fiber-eval")
    p.add_argument("graph")
    p.add_argument("--x", required=True)
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=cmd_module_fiber_eval)
    p = ms.add_parser("act")
    p.add_argument("graph")
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=cmd_module_act)

    f = sub.add_parser("fock", help="word algebra and truncated matrices")
    fs = f.add_subparsers(dest="fock_cmd", required=True)
    p = fs.add_parser("matrix")
    p.add_argument("graph")
    p.add_argument("--word", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_fock_matrix)
    p = fs.add_parser("multiply")
    p.add_argument("graph")
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.set_defaults(func=cmd_fock_multiply)
    p = fs.add_parser("component")
    p.add_argument("graph")
    p.add_argument("--word", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_fock_component)
    p = fs.add_parser("p-check")
    p.add_argument("graph")
    p.add_argument("--depth", type=int, default=5)
    p.set_defaults(func=cmd_fock_p_check)
    p = fs.add_parser("reconstruct-check")
    p.add_argument("graph")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=cmd_fock_reconstruct)
    p = fs.add_parser("transport")
    p.add_argument("graph_e")
    p.add_argument("graph_f")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fock_transport)

    k = sub.add_parser("kms", help="equilibrium states")
    ks = k.add_subparsers(dest="kms_cmd", required=True)
    p = ks.add_parser("partition")
    p.add_argument("graph")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=cmd_kms_partition)
    p = ks.add_parser("eval")
    p.add_argument("graph")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--measure")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_kms_eval)
    p = ks.add_parser("condition")
    p.add_argument("graph")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--vertex")
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_kms_condition)
    p = ks.add_parser("infty")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_kms_infty)
    p = ks.add_parser("sweep")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--betas", default="1:10:1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kms_sweep)
    p = ks.add_parser("separation")
    p.add_argument("graph")
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_kms_separation)

    i = sub.add_parser("iso", help="graph isomorphism")
    isub = i.add_subparsers(dest="iso_cmd", required=True)
    p = isub.add_parser("check")
    p.add_argument("graph_e")
    p.add_argument("graph_f")
    p.set_defaults(func=cmd_iso_check)
    p = isub.add_parser("nonzero-perm")
    p.add_argument("matrix")
    p.add_argument("--threshold", type=float, default=1e-12)
    p.set_defaults(func=cmd_iso_nonzero_perm)

    b = sub.add_parser("bimodule", help="bimodule invariants")
    bs = b.add_subparsers(dest="bimodule_cmd", required=True)
    p = bs.add_parser("invariants")
    p.add_argument("graph")
    p.set_defaults(func=cmd_bimodule_invariants)

    l = sub.add_parser("localconj", help="local conjugacy")
    ls = l.add_subparsers(dest="localconj_cmd", required=True)
    p = ls.add_parser("check")
    p.add_argument("graph_e")
    p.add_argument("graph_f")
    p.add_argument("--grid", type=int, default=720)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_localconj_check)
    p = ls.add_parser("frame")
    p.add_argument("graph")
    p.add_argument("--grid-n", type=int, default=1024)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--width", type=float, default=2.4)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_localconj_frame)

    e5 = sub.add_parser("example-s5",
                        help="double-cover bimodule isomorphism")
    e5s = e5.add_subparsers(dest="s5_cmd", required=True)
    p = e5s.add_parser("verify")
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_example_s5)

    bu = sub.add_parser("bundle", help="permutation cocycles")
    bus = bu.add_subparsers(dest="bundle_cmd", required=True)
    for name in ("check", "monodromy", "to-graph", "from-graph"):
        p = bus.add_parser(name)
        p.add_argument("file")
        p.set_defaults(func=cmd_bundle)
    p = bus.add_parser("frame")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=48)
    p.set_defaults(func=cmd_bundle)

    s = sub.add_parser("suite", help="acceptance suite")
    ss = s.add_subparsers(dest="suite_cmd", required=True)
    p = ss.add_parser("all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_suite)

    return ap


def _visible_command(argv) -> str:
    """Command string without report-output flags, so that artifacts are
    byte-identical whenever the actual inputs and seed agree."""
    out = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a in ("--json", "--csv"):
            skip = True
            continue
        out.append(a)
    return "graphcorr " + " ".join(out)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    report = RunReport(command=_visible_command(argv),
                       seed=getattr(args, "seed", None))
    try:
        with Timer() as t:
            # a check over no random trials would pass vacuously
            if getattr(args, "trials", 1) < 1:
                raise FormatError(f"--trials {args.trials} is below 1")
            args.func(args, report)
        report.wall_time = t.elapsed
    except (FormatError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SizeLimitError, MismatchError) as exc:
        report.add("domain", False, detail=str(exc))
    except WorkbenchError as exc:
        report.add("error", False, detail=str(exc))
    print(report.render(), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return report.exit_code()


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
