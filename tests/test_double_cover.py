import math
from dataclasses import replace

import numpy as np
import pytest

from graphcorr import double_cover
from graphcorr.double_cover import (SWAP, VerificationReport,
                                    _trig_table, build_twist, cover,
                                    endpoint_identity_exact,
                                    nonisomorphism_witness, random_trig_poly,
                                    rho_map, run_verification,
                                    surjectivity_solve, verify_bimodule,
                                    verify_isometry)
from graphcorr.errors import FormatError, MismatchError
from graphcorr.fixtures import circle_double_cover
from graphcorr.graphs import CircleCoveringGraph, EdgeComponent
from graphcorr.modules import (VertexFunction, inner_product, left_action,
                               right_action)
from graphcorr.serialize import graph_to_dict

from oracles import cover_element

TWO_PI = 2.0 * math.pi


def twist_oracle(t):
    """The unitary path evaluated directly from its formula."""
    return np.array([
        [np.exp(1j * t / 2) * np.cos(t / 4),
         -np.exp(1j * t / 2) * np.sin(t / 4)],
        [np.sin(t / 4), np.cos(t / 4)]])


# ---------------------------------------------------------------------------
# the twist path


def test_boundary_matrices():
    tw = build_twist(64)
    assert np.array_equal(tw.matrices[0], np.eye(2))
    assert np.array_equal(tw.matrices[64], SWAP)
    # the snapped endpoints agree with the formula up to rounding dirt
    assert np.max(np.abs(twist_oracle(TWO_PI) - SWAP)) < 1e-15


def test_interior_matches_formula():
    tw = build_twist(16)
    for j in (1, 4, 8, 13):
        assert np.max(np.abs(tw.matrices[j]
                             - twist_oracle(TWO_PI * j / 16))) < 1e-15


def test_unitarity_at_pi():
    tw = build_twist(8)
    u = tw.matrices[4]           # t = pi
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-14


def test_twist_grid_validation():
    with pytest.raises(FormatError):
        build_twist(2)
    with pytest.raises(FormatError):
        build_twist(9)


# ---------------------------------------------------------------------------
# the module map


def test_rho_of_constant():
    n = 16
    tw = build_twist(n)
    f = np.ones(2 * n, dtype=complex)
    r = rho_map(tw, f)
    for j in range(n):
        assert np.max(np.abs(r[j] - tw.matrices[j] @ [1.0, 1.0])) == 0.0


def test_rho_of_identity_function_at_zero():
    # f(z) = z: branches over t=0 are 1 and -1
    n = 16
    tw = build_twist(n)
    t2 = np.pi * np.arange(2 * n) / n
    f = np.exp(1j * t2)
    r = rho_map(tw, f)
    assert np.max(np.abs(r[0] - np.array([1.0, -1.0]))) < 1e-15


def test_endpoint_identity_bitwise_for_50_random_polys():
    n = 64
    tw = build_twist(n)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = random_trig_poly(rng, 2 * n, degree=8)
        assert endpoint_identity_exact(tw, f)


def test_isometry_constant():
    n = 32
    tw = build_twist(n)
    f = np.ones(2 * n, dtype=complex)
    x = cover_element(f, n)
    assert np.max(np.abs(inner_product(x, x).values - 2.0)) == 0.0
    assert verify_isometry(tw, f, f) <= 1e-14


def test_isometry_random():
    n = 1024
    tw = build_twist(n)
    rng = np.random.default_rng(1)
    for _ in range(5):
        f1 = random_trig_poly(rng, 2 * n)
        f2 = random_trig_poly(rng, 2 * n)
        assert verify_isometry(tw, f1, f2) < 1e-12


def test_isometry_orthogonal_pair():
    # both sides vanish identically for branch-alternating symmetry:
    # f1 odd and f2 even under z -> -z give <f1, f2> = conj(f1)f2 summed
    # over opposite-sign branches, which cancels
    n = 256
    tw = build_twist(n)
    t2 = np.pi * np.arange(2 * n) / n
    f1 = np.exp(1j * t2)               # odd: f1(-z) = -f1(z)
    f2 = np.exp(2j * t2)               # even: f2(-z) = f2(z)
    rhs = inner_product(cover_element(f1, n), cover_element(f2, n)).values
    assert np.max(np.abs(rhs)) < 1e-12
    assert verify_isometry(tw, f1, f2) < 1e-12


def test_bimodule_constant_coefficient():
    n = 64
    tw = build_twist(n)
    rng = np.random.default_rng(2)
    f = random_trig_poly(rng, 2 * n)
    r, l = verify_bimodule(tw, f, np.ones(n, dtype=complex))
    assert r == 0.0 and l == 0.0


def test_bimodule_random():
    n = 1024
    tw = build_twist(n)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = random_trig_poly(rng, 2 * n)
        a = random_trig_poly(rng, n)
        r, l = verify_bimodule(tw, f, a)
        assert max(r, l) < 1e-12


def test_bimodule_hand_check():
    # f constant one, a(w) = w: both sides are U(t) (e^{it}, e^{it})^T
    n = 64
    tw = build_twist(n)
    t = TWO_PI * np.arange(n) / n
    f = np.ones(2 * n, dtype=complex)
    a = np.exp(1j * t)
    fa = f * a[np.arange(2 * n) % n]
    lhs = rho_map(tw, fa)
    for j in range(n):
        oracle = tw.matrices[j] @ np.array([a[j], a[j]])
        assert np.max(np.abs(lhs[j] - oracle)) < 1e-14


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_module_layer_matches_bare_array_formulas(n):
    # the double-cover formulas on bare sample arrays are the oracle for
    # the module layer on the fixture: w = e^{i pi j / N} lies over base
    # index j mod N, and the branches over t_j are samples j and j + N
    assert graph_to_dict(cover()) == graph_to_dict(circle_double_cover())
    rng = np.random.default_rng(n)
    j, jj = np.arange(n), np.arange(2 * n)
    for _ in range(5):
        f1 = random_trig_poly(rng, 2 * n, degree=3)
        f2 = random_trig_poly(rng, 2 * n, degree=3)
        a = random_trig_poly(rng, n, degree=3)
        x1, x2 = cover_element(f1, n), cover_element(f2, n)
        base = VertexFunction(cover(), a, n)
        assert np.array_equal(
            inner_product(x1, x2).values,
            f1[j].conj() * f2[j] + f1[j + n].conj() * f2[j + n])
        assert np.array_equal(right_action(x1, base).components[0],
                              f1 * a[jj % n])
        assert np.array_equal(left_action(base, x1).components[0],
                              a[jj % n] * f1)


def test_grid_mismatch_rejected():
    tw = build_twist(16)
    with pytest.raises(MismatchError):
        rho_map(tw, np.ones(16))
    with pytest.raises(MismatchError):
        verify_bimodule(tw, np.ones(32), np.ones(8))


# ---------------------------------------------------------------------------
# surjectivity


def test_surjectivity_basis_image():
    tw = build_twist(16)
    for j in (0, 3, 8, 16):
        h = tw.matrices[j] @ np.array([1.0, 0.0])
        sol, res = surjectivity_solve(tw, j, h)
        assert np.max(np.abs(sol - np.array([1.0, 0.0]))) < 1e-14
        assert res <= 1e-13


def test_surjectivity_random_angles():
    n = 1000
    tw = build_twist(n)
    rng = np.random.default_rng(4)
    for j in range(0, n + 1, 7):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        _, res = surjectivity_solve(tw, j, h)
        assert res <= 1e-13


def test_surjectivity_swap_at_seam():
    tw = build_twist(8)
    sol, res = surjectivity_solve(tw, 8, np.array([1.0, 0.0]))
    assert np.array_equal(sol, np.array([0.0 + 0j, 1.0 + 0j]))
    assert res == 0.0


# ---------------------------------------------------------------------------
# the witness


def test_component_counts():
    two_loops, cover = nonisomorphism_witness()
    assert two_loops == 2
    assert cover == 1
    # an isomorphism would match the edge-space components
    assert two_loops != cover


def test_three_trivial_loops_components():
    g = CircleCoveringGraph([EdgeComponent(1, 0, 1, 0)] * 3)
    assert g.n_components == 3


def test_full_verification_small_grid():
    rep = run_verification(grid=128, trials=20, seed=5)
    assert max(rep.unitarity, rep.boundary_start, rep.boundary_end,
               rep.isometry, rep.action_right, rep.action_left,
               rep.surjectivity) < 1e-12
    assert rep.endpoint_exact
    assert rep.components == (2, 1)


# ---------------------------------------------------------------------------
# the trig table against per-call polynomials


def _per_call_trig_poly(rng, n_samples, degree=16, sums=None):
    """One ``exp`` pass per frequency, on the polynomial's own grid, summed
    row by row; ``sum |c_k|`` goes to ``sums`` when given."""
    t = TWO_PI * np.arange(n_samples) / n_samples
    out = np.zeros(n_samples, dtype=np.complex128)
    total = 0.0
    for k in range(-degree, degree + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        out += c * np.exp(1j * k * t)
        total += abs(c)
    if sums is not None:
        sums.append(total)
    return out / math.sqrt(2 * degree + 1)


def _summation_bound(coeff_sum, degree):
    """How far two summation orders of ``2 degree + 1`` unit-modulus rows
    with coefficients of total modulus ``coeff_sum`` may part, after the
    division by the row count's root."""
    rows = 2 * degree + 1
    return 2 * rows * np.finfo(float).eps * coeff_sum / math.sqrt(rows)


def _per_call_verification(grid, trials, degree, seed, samples=None):
    """``run_verification`` drawing every polynomial per call; each trial's
    ``(f1, f2, a)`` and their coefficient sums go to ``samples``."""
    rng = np.random.default_rng(seed)
    tw = build_twist(grid)
    rep = VerificationReport(grid=grid, trials=trials)
    rep.unitarity = tw.unitarity_residual()
    rep.boundary_start = float(np.max(np.abs(tw.matrices[0] - np.eye(2))))
    rep.boundary_end = float(np.max(np.abs(tw.matrices[grid] - SWAP)))
    for _ in range(trials):
        sums = []
        f1 = _per_call_trig_poly(rng, 2 * grid, degree, sums)
        f2 = _per_call_trig_poly(rng, 2 * grid, degree, sums)
        a = _per_call_trig_poly(rng, grid, degree, sums)
        if samples is not None:
            samples.append(((f1, f2, a), sums))
        rep.isometry = max(rep.isometry, verify_isometry(tw, f1, f2))
        r, l = verify_bimodule(tw, f1, a)
        rep.action_right = max(rep.action_right, r)
        rep.action_left = max(rep.action_left, l)
        rep.endpoint_exact = rep.endpoint_exact \
            and endpoint_identity_exact(tw, f1)
        j = int(rng.integers(0, grid + 1))
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        _, res = surjectivity_solve(tw, j, h)
        rep.surjectivity = max(rep.surjectivity, res)
    rep.components = nonisomorphism_witness()
    return rep


@pytest.mark.parametrize("grid", [4, 100, 1000, 1024])
def test_trig_table_stride_two_rows_are_per_call_rows(grid):
    coarse = _trig_table(2 * grid, 16)[:, ::2]
    t = TWO_PI * np.arange(grid) / grid
    for row, k in zip(coarse, range(-16, 17)):
        assert np.array_equal(row, np.exp(1j * k * t))
    rng1, rng2 = np.random.default_rng(grid), np.random.default_rng(grid)
    sums = []
    want = _per_call_trig_poly(rng2, grid, 5, sums)
    assert np.abs(random_trig_poly(rng1, grid, 5) - want).max() \
        <= _summation_bound(sums[0], 5)
    assert rng1.random() == rng2.random()


@pytest.mark.parametrize("grid", [4, 100, 1000, 1024])
def test_verification_matches_per_call_polynomials(grid, monkeypatch):
    # the polynomials run_verification hands to the checks, recorded
    drawn = []
    isometry, bimodule = verify_isometry, verify_bimodule
    monkeypatch.setattr(double_cover, "verify_isometry",
                        lambda tw, f1, f2: drawn.append([f1, f2])
                        or isometry(tw, f1, f2))
    monkeypatch.setattr(double_cover, "verify_bimodule",
                        lambda tw, f, a: drawn[-1].append(a)
                        or bimodule(tw, f, a))
    for seed in (0, 42):
        drawn.clear()
        samples = []
        rep = run_verification(grid, 10, 16, seed)
        want = _per_call_verification(grid, 10, 16, seed, samples)
        assert len(drawn) == len(samples) == 10
        for got, (polys, sums) in zip(drawn, samples):
            for f, g, s in zip(got, polys, sums):
                assert np.abs(f - g).max() <= _summation_bound(s, 16)
        # the draws after each trial's polynomials are the same draws
        moved = dict(isometry=0.0, action_right=0.0, action_left=0.0)
        assert replace(rep, **moved) == replace(want, **moved)
        assert max(rep.isometry, rep.action_right, rep.action_left,
                   want.isometry, want.action_right,
                   want.action_left) < 1e-12
