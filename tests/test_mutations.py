"""The suite can fail: each row patches one library binding, on every
module that imports it, and names the criterion whose checks must then
fail."""
import inspect
import sys
import textwrap

import numpy as np
import pytest

from graphcorr import (bundles, conjugacy, double_cover, graphs, kms, modules,
                       suite, toeplitz)


def _everywhere(monkeypatch, module, name, patched):
    """Set ``name`` to ``patched`` on every graphcorr module that holds
    ``module``'s binding of it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "graphcorr" \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, patched)


def _edited(module, name, old, new):
    """``module.name`` recompiled from its source with the one occurrence
    of ``old`` replaced by ``new``, in a copy of the module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    return namespace[name]


def _on_result(f, change):
    """``f`` with ``change`` applied to its result, ``None`` kept."""
    def patched(*args, **kwargs):
        out = f(*args, **kwargs)
        return None if out is None else change(out)
    return patched


# per row: the module and name of the binding, its patched value from the
# original, and the criterion that must fail
ROWS = {
    "tensor-inner-scaled": (
        modules, "_tensor_inner",
        lambda f: _on_result(f, lambda c: c * (1 + 1e-10)), 5),
    "tensor-inner-conjugated": (
        modules, "_tensor_inner", lambda f: _on_result(f, lambda c: c.conj()),
        5),
    "cmul-imaginary-sign": (
        toeplitz, "_cmul", lambda f: _on_result(f, lambda c: c.conj()), 5),
    "reduce-unconjugated-middle": (
        toeplitz, "_reduce",
        lambda f: _edited(toeplitz, "_reduce", "b.conj()", "b"), 5),
    "left-action-source-map": (
        modules, "left_action",
        lambda f: _edited(modules, "left_action", "_range_index",
                          "_source_index"), 6),
    "right-action-range-map": (
        modules, "right_action",
        lambda f: _edited(modules, "right_action", "_source_index",
                          "_range_index"), 6),
    "transport-edge-map-not-inverted": (
        toeplitz, "triple_iso_transport",
        lambda f: _edited(toeplitz, "triple_iso_transport",
                          "np.argsort(iso.edges)", "iso.edges"), 6),
    "gauge-weight-absolute-degree": (
        toeplitz, "_gauge_weight",
        lambda f: _edited(toeplitz, "_gauge_weight", "z ** n", "z ** abs(n)"),
        2),
    "vacuum-edge-coefficient": (
        toeplitz, "vacuum_projection",
        lambda f: _edited(toeplitz, "vacuum_projection", "-1.0 + 0j",
                          "-1 + 1e-12j"), 4),
    "kms-weight-power-plus-one": (
        kms, "kms_eval",
        lambda f: _edited(kms, "kms_eval", "x ** j for j in k",
                          "x ** (j + (j > 0)) for j in k"), 1),
    "kms-condition-product-order": (
        kms, "_stack_residuals",
        lambda f: _edited(kms, "_stack_residuals", "_batch_product(e2, e1, g)",
                          "_batch_product(e1, e2, g)"), 2),
    "vacuum-unit-coefficient": (
        toeplitz, "vacuum_projection",
        lambda f: _edited(toeplitz, "vacuum_projection",
                          "np.ones((1, 1), dtype=complex)",
                          "np.full((1, 1), 1 + 1e-12, dtype=complex)"), 3),
    "spectral-radius-scaled": (
        graphs, "spectral_radius",
        lambda f: _on_result(f, lambda rho: rho * (1 + 1e-9)), 7),
    "permutation-margin-max": (
        conjugacy, "nonzero_permutation",
        lambda f: _edited(conjugacy, "nonzero_permutation",
                          "margin = float(min(", "margin = float(max("), 8),
    "permutation-threshold-ignored": (
        conjugacy, "nonzero_permutation",
        lambda f: _edited(conjugacy, "nonzero_permutation",
                          "np.abs(B) > threshold", "np.abs(B) >= 0"), 8),
    "isomorphism-cycle-test-inverted": (
        conjugacy, "finite_graph_isomorphism",
        lambda f: _edited(conjugacy, "finite_graph_isomorphism",
                          "if sorted(ce) != sorted(cf):",
                          "if sorted(ce) == sorted(cf):"), 9),
    "twist-off-diagonal-scaled": (
        double_cover, "build_twist",
        lambda f: _on_result(f, lambda tw: double_cover.TwistPath(
            tw.n, tw.matrices * np.array([[1, 1 + 1e-9], [1, 1]]))), 10),
    "monodromy-cycles-of-identity": (
        bundles, "monodromy",
        lambda f: _edited(bundles, "monodromy", "Monodromy(total, ()).cycles()",
                          "Monodromy(tuple(range(c.rank)), ()).cycles()"),
        11),
    "bump-frame-unsquared": (
        conjugacy, "bump_frame",
        lambda f: _edited(conjugacy, "bump_frame", "np.sqrt(", "("), 12),
}


@pytest.mark.parametrize("row", ROWS)
def test_criterion_fails_under_mutation(row, monkeypatch):
    module, name, mutate, criterion = ROWS[row]
    _everywhere(monkeypatch, module, name, mutate(getattr(module, name)))
    checks = suite.run_criterion(criterion, 0)
    assert not all(c.passed for c in checks), [c.name for c in checks]
