"""Command-line front end.

Exit codes: 0 all checks passed, 1 a check failed or a domain error was
hit, 2 usage or input-format errors.  With ``--json``/``--csv`` the
report is also written to a file; those artifacts exclude wall time and
are byte-identical for identical inputs and seeds.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .bundles import (cocycle_check, cocycle_from_graph, graph_from_cocycle,
                      global_frame_over_circle, monodromy)
from .conjugacy import (GraphIsomorphism, LocalConjugacyCertificate,
                        Refutation, bump_frame, bimodule_invariants,
                        finite_graph_isomorphism, frame_verify,
                        local_conjugacy_check, nonzero_permutation)
from .double_cover import run_verification
from .errors import (DomainError, FormatError, MismatchError, NoMatchingError,
                     SingularMatrixError, SizeLimitError, WorkbenchError)
from .graphs import (FiniteGraph, angle_dist, enumerate_paths,
                     s_section_decomposition, spectral_radius)
from .kms import (KMSParameters, KMSState, kms_condition_check, kms_eval,
                  kms_limit_sweep, extremal_separation_check,
                  limit_sweep_words)
from .modules import (fiber_evaluation, inner_product, left_action,
                      module_norm, right_action, tensor_inner_product,
                      vertex_position)
from .report import RunReport, Timer
from .serialize import (cocycle_from_dict, cocycle_to_dict, digest_file,
                        element_from_dict, element_from_json, element_to_json,
                        graph_from_dict, graph_to_dict, load_argument,
                        load_json, matrix_from_json, measure_from_json,
                        tensor_from_json, vertex_function_from_dict)
from .suite import run_all
from .toeplitz import (fock_matrix, spectral_component,
                       reconstruct_module_check, triple_iso_transport,
                       vacuum_projection_checks)


def _load(path: str, report: RunReport, read=graph_from_dict):
    loaded = read(load_json(path))
    report.inputs.append((path, digest_file(path)))
    return loaded


def _load_finite(path: str, report: RunReport) -> FiniteGraph:
    g = _load(path, report)
    if not isinstance(g, FiniteGraph):
        raise FormatError(f"{path}: a finite graph is required here")
    return g


def _json_arg_or_id(value: str):
    """A JSON argument, or an edge/vertex id if it names no file."""
    s = value.strip()
    if s.startswith(("{", "[")) or os.path.exists(s):
        return load_argument(s)
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
#: largest ``--grid``/``--grid-n`` any command accepts
MAX_GRID = 2 ** 16


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
        if b + step == b:
            raise FormatError(f"--betas {text!r}: the step does not "
                              f"advance the grid past {b!r}")
        b += step
    if not out:
        raise FormatError(f"--betas {text!r} has no points")
    return out


# ---------------------------------------------------------------------------
# handlers


def cmd_graph_validate(args, report):
    g = _load(args.graph, report)
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
    g = _load(args.graph, report)
    n = g.fiber_count(_vertex_arg(g, args.vertex))
    print(f"fiber count at {args.vertex}: {n}")
    report.add("fiber-count", True, detail=str(n))


def cmd_graph_sections(args, report):
    g = _load(args.graph, report)
    if isinstance(g, FiniteGraph):
        raise FormatError("sections apply to circle graphs")
    W, secs = s_section_decomposition(g, _vertex_arg(g, args.vertex),
                                      width=args.width)
    print(f"arc [{W.start:.6f}, {W.start + W.length:.6f})")
    worst, ok = 0.0, True
    for s in secs:
        samples = W.sample(256, margin=1e-9)
        back = s.covering.source_map(s.lift(samples))
        err = float(np.max(angle_dist(back, samples)))
        worst = max(worst, err)
        # the round-off of source_map(lift(t)) grows with the degree
        ok = ok and err <= 1e-12 * s.covering.source_degree
        z = s.arc
        print(f"  component {s.component} branch {s.branch}: "
              f"[{z.start:.6f}, {z.start + z.length:.6f})")
    report.add("section-identity", ok, worst,
               detail="s o lift = id on 256 samples")


def cmd_module_inner_product(args, report):
    g = _load(args.graph, report)
    x = element_from_dict(g, _json_arg_or_id(args.x))
    y = element_from_dict(g, _json_arg_or_id(args.y))
    ip = inner_product(x, y)
    print(np.round(ip.values, 12))
    report.add("inner-product", True)


def cmd_module_norm(args, report):
    g = _load(args.graph, report)
    x = element_from_dict(g, _json_arg_or_id(args.x))
    print(f"norm: {module_norm(x)!r}")
    report.add("norm", True)


def cmd_module_tensor_ip(args, report):
    g = _load(args.graph, report)
    xs = tensor_from_json(g, load_argument(args.xs))
    ys = tensor_from_json(g, load_argument(args.ys))
    ip = tensor_inner_product(xs, ys)
    print(np.round(ip.values, 12))
    report.add("tensor-inner-product", True)


def cmd_module_fiber_eval(args, report):
    g = _load(args.graph, report)
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
    g = _load(args.graph, report)
    x = element_from_dict(g, _json_arg_or_id(args.x))
    a = vertex_function_from_dict(g, _json_arg_or_id(args.a))
    out = left_action(a, x) if args.side == "left" else right_action(x, a)
    print(np.round(out.values, 12))
    report.add(f"{args.side}-action", True)


def cmd_fock_matrix(args, report):
    g = _load_finite(args.graph, report)
    elem = element_from_json(g, load_argument(args.word))
    fm = fock_matrix(elem, args.vertex, args.depth)
    print(f"basis dim {fm.fock.dim}, valid columns "
          f"{int(fm.valid_cols.sum())}/{fm.fock.dim}")
    for part in (fm.matrix.real, fm.matrix.imag):  # complex out= copies
        np.round(part, 10, out=part)
    print(fm.matrix)
    report.add("fock-matrix", True)


def cmd_fock_multiply(args, report):
    g = _load_finite(args.graph, report)
    e1 = element_from_json(g, load_argument(args.w1))
    e2 = element_from_json(g, load_argument(args.w2))
    prod = e1 * e2
    print(json.dumps(element_to_json(prod), indent=1))
    report.add("word-multiply", True,
               detail=f"degrees {sorted(prod.degrees())}")


def cmd_fock_component(args, report):
    g = _load_finite(args.graph, report)
    elem = element_from_json(g, load_argument(args.word))
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
        g, trials=args.trials, tol=args.tol, seed=args.seed))


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
        m = measure_from_json(g, load_argument(args.measure))
    state = KMSState(params, m)
    elem = element_from_json(g, load_argument(args.word))
    val = kms_eval(state, elem)
    print(f"value: {val!r}")
    report.add("kms-eval", True, detail=repr(val))


def cmd_kms_condition(args, report):
    g = _load_finite(args.graph, report)
    params = KMSParameters(g, args.beta)
    state = KMSState.point_mass(params, args.vertex or g.vertices[0])
    b1 = element_from_json(g, load_argument(args.w1))
    b2 = element_from_json(g, load_argument(args.w2))
    report.checks.append(kms_condition_check(state, b1, b2, tol=args.tol))


def cmd_kms_infty(args, report):
    g = _load_finite(args.graph, report)
    state = KMSState.point_mass(KMSParameters(g, math.inf), args.vertex)
    elem = element_from_json(g, load_argument(args.word))
    val = kms_eval(state, elem)
    print(f"value: {val!r}")
    report.add("kms-infty", True, detail=repr(val))


def cmd_kms_sweep(args, report):
    g = _load_finite(args.graph, report)
    betas = _parse_betas(args.betas)
    table = kms_limit_sweep(g, args.vertex, limit_sweep_words(g), betas)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
        print(f"wrote {args.out}")
    else:
        print(table.to_csv(), end="")
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
        vmap = {v: F.vertices[w] for v, w in zip(E.vertices, res.vertices)}
        emap = {e: F.edges[f] for e, f in zip(E.edges, res.edges)}
        print(json.dumps({"vertices": vmap, "edges": emap}, indent=1,
                         sort_keys=True))
        report.add("isomorphic", True)
    else:
        print(f"not isomorphic: {res.reason}")
        report.add("isomorphic", False, detail=res.reason)


def cmd_iso_nonzero_perm(args, report):
    B = matrix_from_json(load_argument(args.matrix))
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
    E = _load(args.graph_e, report)
    F = _load(args.graph_f, report)
    res = local_conjugacy_check(E, F, tol=args.tol, grid=args.grid)
    if isinstance(res, LocalConjugacyCertificate):
        kind = "reflection" if res.vertex_map.reflect else "rotation"
        print(f"certificate: {kind} by {res.vertex_map.offset:.6f}, "
              f"{len(res.matchings)} arc matchings")
        report.add("local-conjugacy", True,
                   detail=f"{kind} {res.vertex_map.offset:.6f}")
    else:
        verdict = "refuted" if isinstance(res, Refutation) else "inconclusive"
        print(f"{verdict}: {res.reason}")
        report.add("local-conjugacy", False, detail=res.reason)


def cmd_localconj_frame(args, report):
    g = _load(args.graph, report)
    if isinstance(g, FiniteGraph):
        raise FormatError("the bump-frame construction needs a circle graph")
    fd = bump_frame(g, base_n=args.grid_n, center=args.center,
                    width=args.width)
    report.checks.append(frame_verify(g, fd, tol=args.tol).check())


def cmd_example_s5(args, report):
    rep = run_verification(grid=args.grid, trials=args.trials,
                           seed=args.seed)
    report.checks += rep.checks(args.tol)


def cmd_bundle_from_graph(args, report):
    g = _load(args.file, report)
    if isinstance(g, FiniteGraph):
        raise FormatError("a circle graph is required")
    c = cocycle_from_graph(g)
    print(json.dumps(cocycle_to_dict(c), indent=1, sort_keys=True))
    report.add("from-graph", cocycle_check(c).passed)


def cmd_bundle_check(args, report):
    res = cocycle_check(_load(args.file, report, cocycle_from_dict))
    violations = res.detail.splitlines()
    for v in violations:
        print(f"violation: {v}")
    report.add("cocycle-check", res.passed,
               detail=f"{len(violations)} violations")


def cmd_bundle_monodromy(args, report):
    m = monodromy(_load(args.file, report, cocycle_from_dict))
    print(f"permutation: {list(m.permutation)}  "
          f"cycle type: {list(m.cycle_type)}")
    report.add("monodromy", True, detail=f"cycle type {m.cycle_type}")


def cmd_bundle_to_graph(args, report):
    g = graph_from_cocycle(_load(args.file, report, cocycle_from_dict))
    print(json.dumps(graph_to_dict(g), indent=1, sort_keys=True))
    report.add("to-graph", True)


def cmd_bundle_frame(args, report):
    fr = global_frame_over_circle(_load(args.file, report, cocycle_from_dict),
                                  args.grid)
    print(f"unitarity {fr.unitarity:.3e}, transitions "
          f"{fr.transition_residual:.3e}, seam exact: {fr.endpoint_exact}")
    report.checks.append(fr.check())


def cmd_suite(args, report):
    report.checks += run_all(seed=args.seed).checks


# ---------------------------------------------------------------------------
# command table


def _arg(*flags, **kwargs):
    """One ``add_argument`` call, as data."""
    return flags, kwargs


def _required(*flags):
    """Required string options."""
    return tuple(_arg(f, required=True) for f in flags)


def _opt(flag, default):
    """An option of its default's type."""
    return _arg(flag, type=type(default), default=default)


GRAPH = (_arg("graph"),)
GRAPH_PAIR = (_arg("graph_e"), _arg("graph_f"))
VERTEX = _arg("--vertex", required=True)
BETA = _arg("--beta", type=float, required=True)
SEED = _opt("--seed", 0)
FILE = (_arg("file"),)

#: group -> help, in ``--help`` order
GROUPS = {
    "graph": "graph inspection",
    "module": "correspondence operations",
    "fock": "word algebra and truncated matrices",
    "kms": "equilibrium states",
    "iso": "graph isomorphism",
    "bimodule": "bimodule invariants",
    "localconj": "local conjugacy",
    "example-s5": "double-cover bimodule isomorphism",
    "bundle": "permutation cocycles",
    "suite": "acceptance suite",
}

#: one entry per subcommand: (path, handler, arguments in ``--help``
#: order, library operations it reaches)
COMMANDS = [
    ("graph validate", cmd_graph_validate, GRAPH, ()),
    ("graph spectral-radius", cmd_graph_spectral_radius,
     GRAPH + (_opt("--tol", 1e-10),), ("spectral_radius",)),
    ("graph paths", cmd_graph_paths,
     GRAPH + (VERTEX, _arg("--length", type=int, required=True)),
     ("enumerate_paths",)),
    ("graph fiber-count", cmd_graph_fiber_count, GRAPH + (VERTEX,),
     ("fiber_count",)),
    ("graph sections", cmd_graph_sections,
     GRAPH + (VERTEX, _opt("--width", math.pi)), ("s_section_decomposition",)),
    ("module inner-product", cmd_module_inner_product,
     GRAPH + _required("--x", "--y"), ("inner_product",)),
    ("module norm", cmd_module_norm, GRAPH + _required("--x"),
     ("module_norm",)),
    ("module tensor-inner-product", cmd_module_tensor_ip,
     GRAPH + _required("--xs", "--ys"), ("tensor_inner_product",)),
    ("module fiber-eval", cmd_module_fiber_eval,
     GRAPH + _required("--x") + (VERTEX,), ("fiber_evaluation",)),
    ("module act", cmd_module_act,
     GRAPH + (_arg("--side", choices=["left", "right"], required=True),)
     + _required("--a", "--x"), ("right_action", "left_action")),
    ("fock matrix", cmd_fock_matrix, GRAPH + _required("--word")
     + (VERTEX, _arg("--depth", type=int, required=True)), ("fock_matrix",)),
    ("fock multiply", cmd_fock_multiply, GRAPH + _required("--w1", "--w2"),
     ("ToeplitzElement.__mul__",)),
    ("fock component", cmd_fock_component, GRAPH + _required("--word")
     + (_arg("--degree", type=int, required=True),), ("spectral_component",)),
    ("fock p-check", cmd_fock_p_check,
     GRAPH + (_opt("--depth", 5),), ("vacuum_projection",)),
    ("fock reconstruct-check", cmd_fock_reconstruct,
     GRAPH + (_opt("--trials", 100), _opt("--tol", 1e-12), SEED),
     ("reconstruct_module_check",)),
    ("fock transport", cmd_fock_transport,
     GRAPH_PAIR + (_opt("--trials", 20), SEED), ("triple_iso_transport",)),
    ("kms partition", cmd_kms_partition, GRAPH + (BETA, VERTEX),
     ("partition_sum",)),
    ("kms eval", cmd_kms_eval,
     GRAPH + (BETA, _arg("--measure")) + _required("--word"), ("kms_eval",)),
    ("kms condition", cmd_kms_condition,
     GRAPH + (BETA, _arg("--vertex")) + _required("--w1", "--w2")
     + (_opt("--tol", 1e-9),), ("kms_condition_check",)),
    ("kms infty", cmd_kms_infty, GRAPH + (VERTEX,) + _required("--word"), ()),
    ("kms sweep", cmd_kms_sweep,
     GRAPH + (VERTEX, _arg("--betas", default="1:10:1"), _arg("--out")),
     ("kms_limit_sweep",)),
    ("kms separation", cmd_kms_separation,
     GRAPH + (_opt("--beta", 2.0), _opt("--trials", 100), SEED),
     ("extremal_separation_check",)),
    ("iso check", cmd_iso_check, GRAPH_PAIR, ("finite_graph_isomorphism",)),
    ("iso nonzero-perm", cmd_iso_nonzero_perm,
     (_arg("matrix"), _opt("--threshold", 1e-12)), ("nonzero_permutation",)),
    ("bimodule invariants", cmd_bimodule_invariants, GRAPH,
     ("bimodule_invariants",)),
    ("localconj check", cmd_localconj_check,
     GRAPH_PAIR + (_opt("--grid", 720), _opt("--tol", 1e-9)),
     ("local_conjugacy_check",)),
    ("localconj frame", cmd_localconj_frame,
     GRAPH + (_opt("--grid-n", 1024), _opt("--center", 0.0),
              _opt("--width", 2.4), _opt("--tol", 1e-9)), ("frame_verify",)),
    ("example-s5 verify", cmd_example_s5,
     (_opt("--grid", 1024), _opt("--trials", 100), _opt("--tol", 1e-9), SEED),
     ("build_twist", "rho_map", "verify_isometry", "verify_bimodule",
      "surjectivity_solve", "nonisomorphism_witness")),
    ("bundle check", cmd_bundle_check, FILE, ("cocycle_check",)),
    ("bundle monodromy", cmd_bundle_monodromy, FILE, ("monodromy",)),
    ("bundle to-graph", cmd_bundle_to_graph, FILE, ("graph_from_cocycle",)),
    ("bundle from-graph", cmd_bundle_from_graph, FILE,
     ("cocycle_from_graph",)),
    ("bundle frame", cmd_bundle_frame, FILE + (_opt("--grid", 48),),
     ("global_frame_over_circle",)),
    ("suite all", cmd_suite, (SEED,), ("dispatch",)),
]

#: operation -> subcommand that reaches it (coverage-tested)
COMMAND_TABLE = {op: path for path, _, _, ops in COMMANDS for op in ops}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphcorr",
        description="graph correspondence workbench")
    ap.add_argument("--json", metavar="PATH", help="write the report as JSON")
    ap.add_argument("--csv", metavar="PATH", help="write the report as CSV")
    sub = ap.add_subparsers(dest="command", required=True)
    # the dests (graph_cmd, ..., s5_cmd) name a missing subcommand in
    # usage errors
    groups = {name: sub.add_parser(name, help=text).add_subparsers(
                  dest=name.split("-")[-1] + "_cmd", required=True)
              for name, text in GROUPS.items()}
    for path, handler, arguments, _ in COMMANDS:
        group, name = path.split()
        p = groups[group].add_parser(name)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=handler)
    return ap


def _visible_command(argv) -> str:
    """Command string without the report-output flags (``--json P``,
    ``--json=P``, ``--js P``, ...), which can only precede the subcommand,
    so that artifacts are byte-identical whenever inputs and seed agree."""
    rest = list(argv)
    while rest and rest[0].startswith("--") and rest[0] != "--":
        del rest[:1 if "=" in rest[0] else 2]
    return "graphcorr " + " ".join(rest)


def check_draws(trials: int, seed: int) -> None:
    """``FormatError`` for ``--trials`` below 1 or a negative ``--seed``."""
    # a check over no random trials would pass vacuously
    if trials < 1:
        raise FormatError(f"--trials {trials} is below 1")
    # numpy's generators take only nonnegative seeds
    if seed < 0:
        raise FormatError(f"--seed {seed} is below 0")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process."""
    return build_parser()


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    report = RunReport(command=_visible_command(argv),
                       seed=getattr(args, "seed", None))
    try:
        with Timer() as t:
            check_draws(getattr(args, "trials", 1), getattr(args, "seed", 0))
            # a nan or infinite tolerance would pass or fail every check
            if not 0 < getattr(args, "tol", 1.0) < math.inf:
                raise FormatError(f"--tol {args.tol} is not a finite "
                                  "positive number")
            # a nan would reach the checks as a value and fail one of them
            for dest, value in vars(args).items():
                if isinstance(value, float) and math.isnan(value):
                    raise FormatError(f"--{dest.replace('_', '-')} {value} "
                                      "is not a number")
            for dest in ("grid", "grid_n"):
                n = getattr(args, dest, 1)
                if not 1 <= n <= MAX_GRID:
                    raise FormatError(f"--{dest.replace('_', '-')} {n} is "
                                      f"outside 1..{MAX_GRID}")
            args.func(args, report)
        report.wall_time = t.elapsed
    except (FormatError, OSError) as exc:
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
