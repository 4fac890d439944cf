"""Tests of the benchmark's own code: wrappers, self-time arithmetic and
seeded input generation."""
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_wrapper_passes_results_and_exceptions_through():
    tr = tracer.Tracer()
    token = object()
    error = KeyError("missing")

    def ok(x, *, y):
        return token if (x, y) == (1, 2) else None

    def bad():
        raise error

    assert tr.wrap("ok", ok)(1, y=2) is token
    with pytest.raises(KeyError) as info:
        tr.wrap("bad", bad)()
    assert info.value is error
    assert tr.names == ["ok", "bad"]
    assert all(e >= s for s, e in zip(tr.starts, tr.ends))
    assert tr._stack == [-1]


def test_nested_wrappers_record_parents_and_counters():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("inner", lambda x: x + 1,
                    counter=lambda result, x: {"big": result > 2})
    outer = tr.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert tr.names == ["outer", "inner", "inner"]
    assert tr.parents == [-1, 0, 0]
    assert tr.counters["inner"]["big"] == 1
    totals = tracer.span_totals(tr.names, tr.parents, tr.starts, tr.ends)
    assert totals["outer"] == [1, 5.0, 3.0]
    assert totals["inner"] == [2, 2.0, 2.0]


def test_self_time_on_a_synthetic_span_tree():
    #   root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7];  d [11, 12]
    names = ["root", "a", "b", "c", "d"]
    parents = [-1, 0, 0, 2, -1]
    starts = [0.0, 1.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 9.0, 7.0, 12.0]
    totals = tracer.span_totals(names, parents, starts, ends)
    assert totals == {"root": [1, 10.0, 3.0], "a": [1, 3.0, 3.0],
                      "b": [1, 4.0, 3.0], "c": [1, 1.0, 1.0],
                      "d": [1, 1.0, 1.0]}
    assert tracer.top_level_time(parents, starts, ends) == 11.0
    counters = {"a": {"hits": 3, "tries": 4}}
    assert tracer.layer_metric("root.self_s", totals, counters) == 3.0
    assert tracer.layer_metric("b.s", totals, counters) == 4.0
    assert tracer.layer_metric("a.calls", totals, counters) == 1
    assert tracer.layer_metric("a.hits", totals, counters) == 3
    assert tracer.layer_metric("absent.self_s", totals, counters) == 0.0


def test_install_wraps_rebound_names_and_uninstall_restores():
    from graphcorr import graphs, kms, suite
    original = graphs.spectral_radius
    criteria = suite.CRITERIA
    tr = tracer.Tracer()
    tr.install()
    try:
        assert graphs.spectral_radius is not original
        assert kms.spectral_radius is graphs.spectral_radius
        assert suite.spectral_radius is graphs.spectral_radius
        assert suite.CRITERIA[0][1].__wrapped__ is criteria[0][1]
    finally:
        tr.uninstall()
    assert graphs.spectral_radius is original
    assert kms.spectral_radius is original
    assert suite.CRITERIA is criteria


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name):
    make = workloads.WORKLOADS[name].make_inputs
    first = pickle.dumps(make(3))
    assert pickle.dumps(make(3)) == first
    assert pickle.dumps(make(4)) != first
