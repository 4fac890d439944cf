import functools
import json
import math
import operator
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcorr.cli import (COMMAND_TABLE, COMMANDS, MAX_GRID, _parser,
                           build_parser, dispatch)
from graphcorr.fixtures import fixture_path
from graphcorr.graphs import (MAX_DEGREE, MAX_FRAME, MAX_TRIALS,
                              graph_to_dict, load_json)
from graphcorr.suite import _cycle_graph_union

FIB = fixture_path("fibonacci")
LOOP = fixture_path("single-loop")
SWAP = fixture_path("cocycle-swap")
TWO_LOOPS = fixture_path("two-loops")
DOUBLE = fixture_path("double-cover")


def run(*argv):
    return dispatch(list(argv))


def run_script(name, *argv, timeout):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ,
               PYTHONPATH=os.path.abspath(os.path.join(root, "src")))
    return subprocess.run(
        [sys.executable, os.path.join(root, "scripts", name), *argv],
        env=env, capture_output=True, text=True, timeout=timeout)


def run_module(name, *argv, timeout):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", name, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


# ---------------------------------------------------------------------------
# exit codes


def test_validate_ok(capsys):
    assert run("graph", "validate", FIB) == 0
    assert "finite graph" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert run("nosuchthing") == 2


def test_parser_is_built_once_and_reused(capsys):
    outputs = []
    for _ in range(2):
        assert run("graph") == 2          # missing subcommand
        assert run("graph", "validate", "--help") == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and "graph_cmd" in outputs[0].err
    assert run("graph", "validate", FIB) == 0
    assert _parser.cache_info().misses == 1


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "finite", oops')
    assert run("graph", "validate", str(bad)) == 2
    assert "line" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path):
    assert run("graph", "validate", str(tmp_path / "nope.json")) == 2


def test_beta_below_threshold_is_check_failure(capsys):
    code = run("kms", "eval", FIB, "--beta", "0.2",
               "--word", '{"left":["aa"],"right":["aa"]}')
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "domain" in out


def test_zero_or_negative_beta_step_is_input_error(capsys):
    for betas in ("1:2:0", "1:2:-0.5"):
        assert run("kms", "sweep", FIB, "--vertex", "a",
                   "--betas", betas) == 2
        assert "positive step" in capsys.readouterr().err


def test_oversized_beta_grid_is_input_error(capsys):
    assert run("kms", "sweep", FIB, "--vertex", "a",
               "--betas", "1:10000:0.5") == 2
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize("betas,error", [
    ("1e16:10000000000000008:1", "--betas '1e16:10000000000000008:1': the "
     "step does not advance the grid past 1e+16"),
    ("5:1:1", "--betas '5:1:1' has no points")])
def test_beta_grid_that_never_advances_or_is_empty_is_input_error(betas,
                                                                 error):
    # in fresh processes, so that a grid that never advances fails the
    # test by its timeout rather than hanging it
    for proc in (run_script("kms_sweep.py", "--betas", betas, timeout=10),
                 run_module("graphcorr.cli", "kms", "sweep", FIB, "--vertex",
                            "a", "--betas", betas, timeout=10)):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"input error: {error}\n"


def test_overlong_path_request_refused_at_once(capsys):
    t0 = time.perf_counter()
    code = run("graph", "paths", LOOP, "--vertex", "v",
               "--length", "3000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "domain" in capsys.readouterr().out


def test_import_does_not_load_scipy():
    # scipy's import time would land on every command
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c",
                    "import graphcorr, graphcorr.cli, sys; "
                    "assert 'scipy' not in sys.modules"],
                   env=env, check=True)


@pytest.mark.parametrize("measure", ['{"a":NaN,"b":1}', '{"a":"x"}',
                                     "[1,2]"])
def test_malformed_measure_is_input_error(measure, capsys):
    code = run("kms", "eval", FIB, "--beta", "2", "--word", '{"coeff":[1,0]}',
               "--measure", measure)
    assert code == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ("module", "norm", FIB, "--x", '{"aa":5}'),
    ("module", "norm", FIB, "--x", '{"aa":[1]}'),
    ("module", "norm", FIB, "--x", '{"aa":"x"}'),
    ("module", "norm", FIB, "--x", "[1,2]"),
    ("fock", "multiply", FIB, "--w1", '{"coeff":"x"}', "--w2", "{}"),
    ("fock", "multiply", FIB, "--w1", '{"words":5}', "--w2", "{}"),
    ("module", "norm", FIB, "--x", '{"aa":[1,0,3]}'),
    ("module", "norm", FIB, "--x", '{"aa":[true,0]}'),
    ("module", "norm", FIB, "--x", '{"aa":[1e400,0]}'),
    ("kms", "eval", FIB, "--beta", "2", "--word", '{"coeff":[1,NaN]}'),
    ("module", "norm", DOUBLE, "--x", '{"n":0,"components":[[]]}'),
    ("module", "act", DOUBLE, "--side", "left", "--a", '{"n":0,"values":[]}',
     "--x", '{"n":0,"components":[[]]}'),
    ("module", "norm", DOUBLE, "--x", '{"n":-1,"components":[[]]}'),
    ("iso", "nonzero-perm", "[[true,0],[0,1]]"),
    ("iso", "nonzero-perm", "[[1,0],[0,1e400]]"),
    # a nan tolerance fails and an infinite one passes every residual
    *(("fock", "reconstruct-check", FIB, "--trials", "2", "--tol", tol)
      for tol in ("nan", "inf", "-1")),
    *(("graph", "spectral-radius", FIB, "--tol", tol)
      for tol in ("nan", "inf", "-1")),
])
def test_malformed_complex_pairs_are_input_errors(argv, capsys):
    assert run(*argv) == 2
    assert "input error" in capsys.readouterr().err


def _argv_with(path, arguments, flag, value):
    """``path`` with ``flag value`` and every other required argument."""
    argv = path.split()
    for flags, kwargs in arguments:
        if flags[0] == flag:
            argv += [flag, value]
        elif not flags[0].startswith("-"):
            argv.append(FIB)
        elif kwargs.get("required"):
            argv += [flags[0], "2" if "type" in kwargs
                     else kwargs.get("choices", ["x"])[0]]
    return argv


@pytest.mark.parametrize("flag", ["--beta", "--center", "--threshold",
                                  "--tol", "--width"])
def test_nan_float_option_is_input_error(flag, capsys):
    specs = [(path, arguments) for path, _, arguments, _ in COMMANDS
             if any(flags[0] == flag and kwargs.get("type") is float
                    for flags, kwargs in arguments)]
    floats = {flags[0] for _, _, arguments, _ in COMMANDS
              for flags, kwargs in arguments if kwargs.get("type") is float}
    assert floats == {"--beta", "--center", "--threshold", "--tol",
                      "--width"} and specs
    want = f"input error: {flag} nan is not a number\n"
    if flag == "--tol":     # the tolerance keeps its own refusal
        want = "input error: --tol nan is not a finite positive number\n"
    for path, arguments in specs:
        assert run(*_argv_with(path, arguments, flag, "nan")) == 2, path
        assert capsys.readouterr() == ("", want), path


#: a double-cover element on the size-4 grid (2 * 4 samples)
DOUBLE_X = json.dumps({"n": 4, "components": [[[1, 0]] * 8]})


@pytest.mark.parametrize("vertex", ["x", "inf", "nan"])
@pytest.mark.parametrize("argv", [
    ("graph", "fiber-count", DOUBLE),
    ("graph", "sections", DOUBLE),
    ("module", "fiber-eval", DOUBLE, "--x", DOUBLE_X),
])
def test_non_finite_circle_vertex_is_input_error(argv, vertex, capsys):
    assert run(*argv, "--vertex", vertex) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "PASS" not in captured.out


TRIAL_COMMANDS = [
    ("fock", "reconstruct-check", FIB),
    ("fock", "transport", FIB, FIB),
    ("kms", "separation", FIB),
    ("example-s5", "verify", "--grid", "64"),
]


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("argv", TRIAL_COMMANDS)
def test_nonpositive_trials_is_input_error(argv, trials, capsys):
    assert run(*argv, "--trials", trials) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "PASS" not in captured.out


SEED_COMMANDS = [(path, arguments) for path, _, arguments, _ in COMMANDS
                 if ("--seed",) in (flags for flags, _ in arguments)]


@pytest.mark.parametrize("path,arguments", SEED_COMMANDS,
                         ids=[path for path, _ in SEED_COMMANDS])
def test_negative_seed_is_input_error(path, arguments, capsys):
    # numpy's generators refuse a negative seed with a ValueError
    graphs = [FIB for flags, _ in arguments if not flags[0].startswith("-")]
    assert run(*path.split(), *graphs, "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: --seed -1 is below 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", TRIAL_COMMANDS)
def test_trials_above_the_limit_are_refused_before_any_work(argv, capsys):
    start = time.monotonic()
    assert run(*argv, "--trials", "1000000000") == 1
    assert time.monotonic() - start < 1.0
    out = capsys.readouterr().out
    assert "FAIL  domain" in out and f"exceeds the {MAX_TRIALS} limit" in out


@pytest.mark.parametrize("grid_n", ["0", "3"])
def test_bump_frame_without_two_support_points_is_input_error(grid_n,
                                                              capsys):
    assert run("localconj", "frame", DOUBLE, "--grid-n", grid_n) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "PASS" not in captured.out


def test_reconstruction_window_must_hold_every_identity(capsys):
    # the annihilate[n=2] words create three edges
    argv = ("fock", "reconstruct-check", FIB, "--trials", "5")
    assert run(*argv, "--depth", "2") == 1
    out = capsys.readouterr().out
    assert "FAIL  domain" in out and "annihilate[n=2,0]: depth 2" in out
    assert run(*argv, "--depth", "3") == 0
    assert "PASS  reconstruction  residual 1.831e-15" \
        in capsys.readouterr().out


def test_transport_on_a_graph_with_no_edges(capsys):
    # the module actions compare empty edge arrays
    edgeless = fixture_path("edgeless")
    assert run("fock", "transport", edgeless, edgeless, "--trials", "3") == 0
    assert "PASS  transport  residual 0.000e+00" in capsys.readouterr().out


def test_reconstruction_on_a_graph_with_no_vertices(tmp_path, capsys):
    # no Fock space, so every identity holds with nothing to compare
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(
        {"kind": "finite", "vertices": [], "edges": []}))
    assert run("fock", "reconstruct-check", str(path), "--trials", "2") == 0
    assert "PASS  reconstruction  residual 0.000e+00  (10 identities)" \
        in capsys.readouterr().out


def test_bump_frame_off_the_sample_grid_is_refused(tmp_path, capsys):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(
        {"kind": "circle", "components": [{"d": 2, "m": 1}]}))
    assert run("localconj", "frame", str(path)) == 1
    out = capsys.readouterr().out
    assert "FAIL  domain" in out and "range degree 1 not divisible" in out


def test_double_cover_demo_script():
    proc = run_script("double_cover_demo.py", "--trials", "1", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "edge-space components: 2 (two loops) vs 1 (double cover)" \
        in proc.stdout


@pytest.mark.parametrize("argv, error", [
    (("--seed", "-1", "--trials", "1"), "--seed -1 is below 0"),
    (("--trials", "0"), "--trials 0 is below 1")])
def test_double_cover_demo_script_refuses_bad_draws(argv, error):
    # numpy's generators end a negative seed in a ValueError traceback
    proc = run_script("double_cover_demo.py", *argv, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"input error: {error}\n"


def test_double_cover_demo_script_reports_trials_above_the_limit(capsys):
    # the line that `graphcorr example-s5 verify` prints, not a traceback
    trials = str(MAX_TRIALS + 1)
    assert run("example-s5", "verify", "--trials", trials) == 1
    line = f"FAIL  domain  (trials {trials} exceeds the {MAX_TRIALS} limit)\n"
    assert line in capsys.readouterr().out
    proc = run_script("double_cover_demo.py", "--trials", trials, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, line, "")


@pytest.mark.parametrize("argv", [
    ("fock", "matrix", fixture_path("three-loops"), "--word",
     '{"coeff": [1, 0]}', "--vertex", "v", "--depth", "8"),
    ("fock", "p-check", fixture_path("three-loops"), "--depth", "8")])
def test_fock_matrix_above_the_entry_limit_is_refused(argv, capsys):
    # 9841 paths to depth 8: the dense matrix would take 1.4 GiB
    t0 = time.perf_counter()
    assert run(*argv) == 1
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert "FAIL  domain" in out and "9841 x 9841 matrix exceeds" in out


def test_acceptance_script_is_the_suite_command(tmp_path):
    out = tmp_path / "report.json"
    proc = run_script("run_acceptance.py", "--json", str(out), timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert (report["command"], report["seed"]) == (
        "graphcorr suite all --seed 42", 42)
    assert all(c["passed"] for c in report["checks"])
    proc = run_script("run_acceptance.py", "--seed", "-1", timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "input error: --seed -1 is below 0\n"


def test_kms_sweep_script_refuses_zero_beta_step():
    proc = run_script("kms_sweep.py", "--betas", "1:2:0", timeout=10)
    assert proc.returncode == 2
    assert "input error" in proc.stderr


def test_kms_sweep_script_reports_a_grid_below_log_rho():
    # the default grid starts at beta = 1, below log 3 on three loops
    proc = run_script("kms_sweep.py", "--fixture", "three-loops", timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ("FAIL  domain  (beta = 1.0 must exceed "
                           "log rho = 1.09861)\n")
    assert "Traceback" not in proc.stderr


def test_kms_sweep_script_refuses_an_unknown_vertex():
    proc = run_script("kms_sweep.py", "--vertex", "zz", timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == "input error: unknown vertex id 'zz'\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ["0", "-5", str(MAX_GRID + 1)])
@pytest.mark.parametrize("argv", [
    ("localconj", "check", TWO_LOOPS, DOUBLE, "--grid"),
    ("localconj", "frame", DOUBLE, "--grid-n"),
    ("example-s5", "verify", "--grid"),
    ("bundle", "frame", SWAP, "--grid"),
])
def test_grid_out_of_bounds_is_refused_before_work(argv, value, capsys):
    t0 = time.perf_counter()
    assert run(*argv, value) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert "input error" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("component", [
    {"d": 2, "s_offset": math.inf, "m": 2},
    {"d": 2, "s_offset": "x", "m": 2},
    {"d": 2, "m": 2, "r_offset": math.nan},
])
def test_non_finite_or_non_numeric_offset_is_input_error(component, tmp_path,
                                                        capsys):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"kind": "circle", "components": [component]}))
    assert run("graph", "validate", str(path)) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "PASS" not in captured.out


def _circle_file(tmp_path, d, m):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(
        {"kind": "circle", "components": [{"d": d, "m": m}]}))
    return str(path)


def test_section_identity_tolerance_scales_with_degree(tmp_path, capsys):
    # the residual is about 2e-12 at degree 2000, above an absolute 1e-12
    path = _circle_file(tmp_path, 2000, 1)
    assert run("graph", "sections", path, "--vertex", "0.5") == 0
    assert "PASS  section-identity" in capsys.readouterr().out


def test_covering_degree_at_the_cap_is_accepted(tmp_path, capsys):
    assert run("graph", "validate", _circle_file(tmp_path, MAX_DEGREE,
                                                 -MAX_DEGREE)) == 0


@pytest.mark.parametrize("d, m", [(MAX_DEGREE + 1, 1), (10 ** 9, 1),
                                  (1, -(MAX_DEGREE + 1)), (2, 10 ** 9)])
@pytest.mark.parametrize("command", [("validate",),
                                     ("sections", "--vertex", "0.5")])
def test_covering_degree_above_the_cap_is_refused(d, m, command, tmp_path,
                                                  capsys):
    name, *rest = command
    t0 = time.perf_counter()
    assert run("graph", name, _circle_file(tmp_path, d, m), *rest) == 1
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert "FAIL  domain" in out and str(MAX_DEGREE) in out


def test_local_conjugacy_search_above_the_budget_is_refused(tmp_path,
                                                             capsys):
    path = _circle_file(tmp_path, MAX_DEGREE, MAX_DEGREE)
    t0 = time.perf_counter()
    assert run("localconj", "check", path, path) == 1
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert "FAIL  domain" in out and "exceeds the 100000000 limit" in out


MISSING = object()
#: JSON values that belong nowhere in a graph file
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                 st.sampled_from([math.nan, math.inf, -math.inf, 0.5]),
                 st.lists(st.integers(0, 2), max_size=2))


def mostly(valid, other=JUNK):
    """``valid`` in seven draws of eight, else ``other``."""
    return st.sampled_from([valid] * 7 + [other]).flatmap(lambda s: s)


def record(**fields):
    """A JSON object of mostly valid fields, a few of them left out."""
    return st.fixed_dictionaries(
        {k: mostly(mostly(v), st.just(MISSING)) for k, v in fields.items()}
    ).map(lambda d: {k: v for k, v in d.items() if v is not MISSING})


NAME = mostly(st.sampled_from(["a", "b", "e"]))
OFFSET = st.one_of(st.floats(-10, 10),
                   st.sampled_from([math.nan, math.inf, -math.inf]))
FINITE_JSON = record(
    kind=st.just("finite"), vertices=st.lists(NAME, max_size=3),
    edges=st.lists(mostly(record(id=NAME, src=NAME, rng=NAME)), max_size=4))
#: degrees stay small, so that no large computation starts
CIRCLE_JSON = record(kind=st.just("circle"), components=st.lists(mostly(
    record(d=st.integers(-1, 8), m=st.integers(-8, 8), s_offset=OFFSET,
           r_offset=OFFSET)), max_size=3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=mostly(st.one_of(FINITE_JSON, CIRCLE_JSON)),
       vertex=st.sampled_from([None, "a", "0.5", "x", "nan"]))
def test_fuzzed_graph_json_exits_cleanly(tmp_path_factory, doc, vertex):
    """``graph validate`` (vertex None) or ``graph fiber-count``."""
    path = str(tmp_path_factory.getbasetemp() / "fuzzed-graph.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = (["validate", path] if vertex is None
            else ["fiber-count", path, "--vertex", vertex])
    assert run("graph", *argv) in (0, 1, 2)


SWAP_DOC = load_json(SWAP)
INDEX = st.integers(-1, 2)
#: ranks stay small, so that no large frame is built
COCYCLE_JSON = record(
    rank=st.integers(0, 3),
    arcs=st.one_of(st.just(SWAP_DOC["arcs"]), st.lists(mostly(st.lists(
        mostly(st.floats(-1, 10)), min_size=2, max_size=2)), max_size=3)),
    transitions=st.one_of(st.just(SWAP_DOC["transitions"]), st.lists(mostly(
        record(i=INDEX, j=INDEX, component=INDEX,
               perm=st.lists(mostly(st.integers(0, 2)), max_size=3))),
        max_size=3)))


#: places in the swap cocycle a drawn value can replace
SWAP_PATHS = [("rank",), ("arcs", 0), ("arcs", 1, 0), ("transitions", 0),
              ("transitions", 0, "perm", 1), *(("transitions", 1, f) for f
                                              in ("i", "j", "component",
                                                  "perm"))]


def _swap_with(path, value):
    doc = json.loads(json.dumps(SWAP_DOC))
    *head, last = path
    functools.reduce(operator.getitem, head, doc)[last] = value
    return doc


SWAP_EDITS = st.builds(_swap_with, st.sampled_from(SWAP_PATHS), st.one_of(
    JUNK, st.integers(-3, 3), st.floats(), st.text(max_size=3)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=st.one_of(SWAP_EDITS, mostly(COCYCLE_JSON)),
       command=st.sampled_from(["check", "frame"]))
def test_fuzzed_cocycle_json_exits_cleanly(tmp_path_factory, doc, command):
    path = str(tmp_path_factory.getbasetemp() / "fuzzed-cocycle.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert run("bundle", command, path) in (0, 1, 2)


@pytest.mark.parametrize("command", ["check", "frame"])
@pytest.mark.parametrize("old, new", [
    ('"rank": 2', '"rank": "x"'), ('"rank": 2', '"rank": 1e400'),
    ('"rank": 2', '"rank": 2.7'), ('"rank": 2', '"rank": true'),
    ('"perm": [1, 0]', '"perm": ["a", "b"]'), ('"i": 0', '"i": "q"'),
    ('"i": 0', '"i": false'), ('[5.890486225480862', '[Infinity'),
    ('[5.890486225480862', '["5.89"')])
def test_cocycle_field_of_the_wrong_type_is_input_error(command, old, new,
                                                         tmp_path, capsys):
    text = json.dumps(SWAP_DOC)
    assert old in text
    path = tmp_path / "cocycle.json"
    path.write_text(text.replace(old, new, 1))
    assert run("bundle", command, str(path)) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("doc, command, message", [
    (dict(SWAP_DOC, rank=3_000_000), "check", "not a permutation"),
    ({"rank": 3_000_000, "arcs": [[0.0, 2 * math.pi]], "transitions": []},
     "monodromy", "cannot be traversed")])
def test_large_cocycle_rank_allocates_nothing(doc, command, message,
                                              tmp_path, capsys):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        assert run("bundle", command, str(path)) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert message in capsys.readouterr().err


def test_cocycle_frame_above_the_budget_is_refused(tmp_path, capsys):
    k = 200
    doc = dict(SWAP_DOC, rank=k, transitions=[
        dict(t, perm=list(range(k))) for t in SWAP_DOC["transitions"]])
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert run("bundle", "frame", str(path)) == 1
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert "FAIL  domain" in out and f"exceeds the {MAX_FRAME} limit" in out


@pytest.mark.parametrize("extra, message", [
    ({"i": 0, "j": 1, "component": 0, "perm": [0, 1]}, "given twice"),
    ({"i": 1, "j": 0, "component": 1, "perm": [0, 1]}, "given twice"),
    ({"i": 5, "j": 9, "component": 3, "perm": [1, 0]}, "no overlap"),
    ({"i": 1, "j": 1, "component": 0, "perm": [1, 0]}, "no overlap")])
def test_cocycle_transition_repeated_or_off_the_cover_is_input_error(
        extra, message, tmp_path, capsys):
    doc = dict(SWAP_DOC, transitions=[*SWAP_DOC["transitions"], extra])
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(doc))
    assert run("bundle", "monodromy", str(path)) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err


def test_integer_over_the_digit_limit_is_input_error(tmp_path, capsys):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(SWAP_DOC).replace('"rank": 2',
                                                  '"rank": ' + "1" * 5000))
    assert run("bundle", "check", str(path)) == 2
    assert run("kms", "eval", FIB, "--beta", "2", "--word",
               '{"coeff": [' + "1" * 5000 + "]}") == 2
    assert capsys.readouterr().err.count("input error") == 2


PAIR = st.lists(st.floats(-2, 2), min_size=2, max_size=2)
FINITE_ELEMENT = st.one_of(
    st.sampled_from(["aa", "ab"]),
    st.dictionaries(st.sampled_from(["aa", "ab", "ba"]), PAIR, max_size=3))
FINITE_VERTEX_FUNCTION = st.one_of(
    st.sampled_from(["a", "b"]),
    st.dictionaries(st.sampled_from(["a", "b"]), PAIR, max_size=2))
WORD = st.fixed_dictionaries({}, optional={
    "coeff": PAIR, "left": st.lists(FINITE_ELEMENT, max_size=2),
    "middle": st.one_of(st.none(), FINITE_VERTEX_FUNCTION),
    "right": st.lists(FINITE_ELEMENT, max_size=2)})
WORDS = st.one_of(WORD, st.builds(lambda ws: {"words": ws},
                                  st.lists(WORD, max_size=2)))


def circle_docs(n):
    """A double-cover element (2 n samples) and a vertex function."""
    return st.tuples(
        st.builds(lambda c: {"n": n, "components": [c]},
                  st.lists(PAIR, min_size=2 * n, max_size=2 * n)),
        st.builds(lambda v: {"n": n, "values": v},
                  st.lists(PAIR, min_size=n, max_size=n)))


#: values a parser must refuse in place of an ``[re, im]`` pair, or of a
#: grid size ``n``
BAD_PAIRS = [[1, 0, 3], [True, 0], [math.inf, 0], [0, math.nan], [1],
             ["1", 0], [10 ** 400, 0], None, "x"]
BAD_GRIDS = [0, -1, 2.5, True, "3", None]


def _slots(doc):
    """``(container, key, what)`` of every pair, grid size ``n`` and other
    object field in ``doc``."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, value in items:
        if key == "n" or (isinstance(value, list) and len(value) == 2
                          and all(isinstance(p, float) for p in value)):
            out.append((doc, key, "n" if key == "n" else "pair"))
        else:
            if isinstance(doc, dict):
                out.append((doc, key, "field"))
            out += _slots(value)
    return out


@st.composite
def fuzzed_commands(draw):
    """``module norm`` or ``module act`` over the fibonacci or the
    double-cover fixture, or ``fock multiply`` or ``kms eval`` over the
    fibonacci one, on well-formed JSON arguments into which at most one
    malformed value or junk field is put.  Returns the argv and what was
    put in (``None``, ``"pair"``, ``"n"`` or ``"field"``)."""
    kind = draw(st.sampled_from(["norm", "act", "multiply", "eval"]))
    graph = FIB
    if kind in ("norm", "act") and draw(st.booleans()):
        graph = DOUBLE
        x, a = draw(circle_docs(draw(st.integers(1, 3))))
    else:
        x, a = draw(FINITE_ELEMENT), draw(FINITE_VERTEX_FUNCTION)
    head, docs = {
        "norm": (["module", "norm"], {"--x": x}),
        "act": (["module", "act", "--side", draw(st.sampled_from(
            ["left", "right"]))], {"--a": a, "--x": x}),
        "multiply": (["fock", "multiply"],
                     {"--w1": draw(WORDS), "--w2": draw(WORDS)}),
        "eval": (["kms", "eval", "--beta", "2"], {"--word": draw(WORDS)}),
    }[kind]
    slots = _slots(list(docs.values()))
    defect = None
    if slots and draw(st.sampled_from([True, True, False])):
        doc, key, defect = draw(st.sampled_from(slots))
        doc[key] = draw(st.sampled_from(BAD_PAIRS) if defect == "pair"
                        else st.sampled_from(BAD_GRIDS) if defect == "n"
                        else JUNK)
    argv = head + [graph]
    for flag, doc in docs.items():
        argv += [flag, doc if isinstance(doc, str) else json.dumps(doc)]
    return argv, defect


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(command=fuzzed_commands())
def test_fuzzed_element_and_word_json_exits_cleanly(command):
    """Exit 0, 1 or 2 with no traceback; a malformed pair or grid size
    exits 2, and well-formed arguments are not input errors."""
    argv, defect = command
    code = run(*argv)
    if defect in ("pair", "n"):
        assert code == 2, argv
    elif defect is None:
        assert code in (0, 1), argv
    else:
        assert code in (0, 1, 2)


def test_localconj_certificate(capsys):
    assert run("localconj", "check", TWO_LOOPS, DOUBLE, "--grid", "180") == 0


def test_suite_subset_via_bundle(capsys):
    assert run("bundle", "monodromy", SWAP) == 0
    assert "cycle type: [2]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# reports


def test_json_report_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("--json", str(p1), "graph", "spectral-radius", FIB) == 0
    assert run("--json", str(p2), "graph", "spectral-radius", FIB) == 0
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["checks"][0]["passed"] is True
    assert data["inputs"][0][0] == FIB


def test_csv_report(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run("--csv", str(out), "fock", "p-check", LOOP) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,status,residual,detail"
    assert all(",pass," in ln for ln in lines[1:])


def test_output_path_stays_out_of_json_artifact(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    forms = [("--json=" + str(paths[0]),), ("--json", str(paths[1])),
             ("--js", str(paths[2]))]
    for form in forms:
        assert run(*form, "graph", "spectral-radius", FIB) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes() \
        == paths[2].read_bytes()


@pytest.mark.parametrize("command", ["check", "monodromy", "to-graph",
                                     "frame"])
def test_cocycle_commands_record_input_digest(command, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("--json", str(out), "bundle", command, SWAP) == 0
    assert json.loads(out.read_text())["inputs"][0][0] == SWAP


def test_sweep_csv_same_from_cli_and_script(tmp_path, capsys):
    cli_csv, script_csv = tmp_path / "cli.csv", tmp_path / "script.csv"
    assert run("kms", "sweep", FIB, "--vertex", "a", "--betas", "1:3:0.5",
               "--out", str(cli_csv)) == 0
    proc = run_script("kms_sweep.py", "--fixture", "fibonacci", "--vertex",
                      "a", "--betas", "1:3:0.5", "--out", str(script_csv),
                      timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert cli_csv.read_bytes() == script_csv.read_bytes()


def test_sweep_csv_columns(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run("kms", "sweep", FIB, "--vertex", "a",
               "--betas", "1:3:1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,word-id,value,residual"
    assert len(lines) > 3


#: residual stands for any value: pinned only where it is 0.0 or null
ANY = object()

#: (command, [(name, passed, detail, residual), ...]) as the checks read
#: when each command had its own copy of the criterion it reports
CHECK_VOCABULARY = [
    (("fock", "p-check", FIB),
     [("p-idempotent", True, "", 0.0), ("p-selfadjoint", True, "", 0.0),
      ("p-rank-one-everywhere", True, "", None)]),
    (("fock", "reconstruct-check", FIB, "--trials", "5"),
     [("reconstruction", True, "25 identities", ANY)]),
    (("fock", "transport", FIB, FIB, "--trials", "3"),
     [("transport", True, "", 0.0)]),
    (("example-s5", "verify", "--grid", "64", "--trials", "3"),
     [("twist-boundary", True, "", 0.0), ("twist-unitary", True, "", ANY),
      ("isometry", True, "", ANY), ("module-actions", True, "", ANY),
      ("surjectivity", True, "", ANY), ("seam-exact", True, "", None),
      ("component-counts", True, "(2, 1)", None)]),
    (("bundle", "frame", SWAP), [("global-frame", True, "", ANY)]),
    (("localconj", "frame", DOUBLE, "--grid-n", "256"),
     [("frame-verify", True, "17 anchors extracted", ANY)]),
    (("kms", "separation", FIB, "--trials", "5"),
     [("separate[a,b]", True, "max indicator gap", ANY),
      ("affine[0]", True, "", 0.0), ("affine[1]", True, "", 0.0),
      ("affine[2]", True, "", ANY), ("affine[3]", True, "", ANY),
      ("affine[4]", True, "", ANY)]),
    (("kms", "condition", FIB, "--beta", "2", "--w1", '{"left":["aa"]}',
      "--w2", '{"right":["aa"]}'),
     [("kms-condition", True, "", 0.0)]),
]


def test_check_vocabulary_of_criterion_commands(tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv, expected in CHECK_VOCABULARY:
        assert run("--json", str(out), *argv) == 0, argv
        checks = json.loads(out.read_text())["checks"]
        got = [(c["name"], c["passed"], c["detail"],
                ANY if want[3] is ANY else c["residual"])
               for c, want in zip(checks, expected)]
        assert len(checks) == len(expected) and got == expected, argv


# ---------------------------------------------------------------------------
# coverage of the operation table


def test_every_operation_reachable():
    ops = {
        "fiber_count", "enumerate_paths", "spectral_radius",
        "s_section_decomposition",
        "inner_product", "right_action", "left_action", "module_norm",
        "tensor_inner_product", "fiber_evaluation",
        "word_multiply", "fock_matrix", "vacuum_projection",
        "spectral_component", "reconstruct_module_check",
        "triple_iso_transport",
        "partition_sum", "kms_eval", "kms_condition_check",
        "kms_limit_sweep", "extremal_separation_check",
        "nonzero_permutation", "finite_graph_isomorphism",
        "bimodule_invariants", "frame_verify", "local_conjugacy_check",
        "build_twist", "rho_map", "verify_isometry", "verify_bimodule",
        "surjectivity_solve", "nonisomorphism_witness",
        "cocycle_check", "cocycle_from_graph", "monodromy",
        "graph_from_cocycle", "global_frame_over_circle",
        "dispatch",
    }
    assert ops <= set(COMMAND_TABLE)
    # and the listed "group subcommand" paths exist in the parser tree
    def choices(parser):
        return parser._subparsers._group_actions[0].choices

    groups = choices(build_parser())
    for op, path in COMMAND_TABLE.items():
        group, command = path.split()
        assert command in choices(groups[group]), (op, path)


def test_readme_lists_every_command():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        listed = {" ".join(line.split()[1:3]) for line in fh
                  if line.startswith("graphcorr ")}
    assert {path for path, _, _, _ in COMMANDS} <= listed


# ---------------------------------------------------------------------------
# a few end-to-end commands


def test_fock_matrix_command(capsys):
    assert run("fock", "matrix", LOOP, "--word", '{"left":["e"]}',
               "--vertex", "v", "--depth", "3") == 0
    assert "basis dim 4" in capsys.readouterr().out


def test_fock_matrix_command_holds_one_copy_of_its_matrix(capsys):
    # 1093 paths to depth 6 on three loops: the matrix takes 19 MB, and is
    # rounded for printing in place
    matrix = 1093 ** 2 * 16
    tracemalloc.start()
    try:
        assert run("fock", "matrix", fixture_path("three-loops"), "--word",
                   '{"left":["e1"],"right":["e1"]}', "--vertex", "v",
                   "--depth", "6") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "basis dim 1093" in capsys.readouterr().out
    assert peak < 1.5 * matrix


def test_iso_check_command(capsys):
    assert run("iso", "check", FIB, FIB) == 0


def _cycle_union_file(tmp_path, lengths):
    path = tmp_path / ("c" + "-".join(map(str, lengths)) + ".json")
    path.write_text(json.dumps(graph_to_dict(_cycle_graph_union(lengths))))
    return str(path)


@pytest.mark.parametrize("command", [("iso", "check"),
                                     ("fock", "transport")])
def test_eleven_vertex_cycle_unions_refuted(command, tmp_path, capsys):
    """The refutation needs no canonical form, so no 10-vertex cap."""
    e = _cycle_union_file(tmp_path, (6, 5))
    f = _cycle_union_file(tmp_path, (11,))
    assert run(*command, e, f) == 1
    out = capsys.readouterr().out
    assert "not isomorphic: exhausted search" in out
    assert "domain" not in out


def test_nine_vertex_cycle_unions_refuted_quickly(tmp_path, capsys):
    e = _cycle_union_file(tmp_path, (3, 3, 3))
    f = _cycle_union_file(tmp_path, (9,))
    start = time.perf_counter()
    assert run("iso", "check", e, f) == 1
    assert time.perf_counter() - start < 2.0
    assert "not isomorphic: exhausted search" in capsys.readouterr().out


def test_example_s5_small(capsys):
    assert run("example-s5", "verify", "--grid", "64",
               "--trials", "3") == 0
    out = capsys.readouterr().out
    assert "seam-exact" in out and "component-counts" in out


def test_kms_infty_is_the_state_at_infinite_beta(capsys):
    word = ('{"words": [{"coeff": [3, 1]}, {"left": ["aa"], "right": ["aa"]},'
            ' {"coeff": [2, 0], "left": ["ab"]}]}')
    assert run("kms", "infty", FIB, "--vertex", "a", "--word", word) == 0
    assert run("kms", "eval", FIB, "--beta", "inf", "--measure", '{"a": 1}',
               "--word", word) == 0
    out = capsys.readouterr().out
    assert out.count("value: (3+1j)") == 2


def test_kms_infty_answers_past_the_dense_radius(tmp_path, capsys):
    # a 69-cycle fed by one source: 70 vertices, no radius needed
    n = 69
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "kind": "finite", "vertices": [f"c{i}" for i in range(n)] + ["s"],
        "edges": [{"id": f"e{i}", "src": f"c{i}", "rng": f"c{(i + 1) % n}"}
                  for i in range(n)] + [{"id": "f", "src": "s",
                                         "rng": "c0"}]}))
    assert run("kms", "infty", str(path), "--vertex", "s",
               "--word", '{"coeff": [1, 0]}') == 0
    assert "value: (1+0j)" in capsys.readouterr().out


def test_kms_separation_command(capsys):
    assert run("kms", "separation", FIB, "--beta", "2.0",
               "--trials", "5") == 0
