"""Two nonisomorphic circle graphs with isomorphic correspondences.

``E`` has two trivial loop components over the circle (edge space is two
circles, range = source = identity on each); ``F`` is the connected double
cover (range = source = squaring).  ``E`` and ``F`` cannot be isomorphic:
their edge spaces have different component counts.  Their correspondences
are nevertheless isomorphic, witnessed by the unitary path

    U(t) = [[e^{it/2} cos(t/4), -e^{it/2} sin(t/4)],
            [sin(t/4),           cos(t/4)        ]],

which satisfies ``U(0) = I`` and ``U(2pi) = swap``: the map

    rho(f)(e^{it}) = U(t) (f(e^{it/2}), f(-e^{it/2}))^T

takes functions on the double cover to pairs of functions on the circle
(the correspondence of ``E``), is well defined on the circle because the
swap absorbs the branch exchange at ``t = 2pi``, is fiberwise isometric
because ``U(t)`` is unitary, and intertwines both module actions.

Grids: the base circle carries ``N`` samples ``t_j = 2pi j / N``; functions
on the double cover carry ``2N`` samples at ``pi j / N`` so both square
root branches of every base grid point are sample points.  These are the
grids of :mod:`~graphcorr.modules` on the double-cover fixture.  The checks
below take its inner product and actions as formulas on the bare sample
arrays, which the tests pin bitwise to :mod:`~graphcorr.modules`; wrapping
the samples as module elements made :func:`run_verification` (grid 1024,
100 trials) slower, 42.1 against 33.2 ms in the median of 10 alternating
process pairs on a 2-vCPU Xeon.  All identities here are checked pointwise
on these aligned grids, with no interpolation.

Random test functions are trigonometric polynomials (degree 16 in the
suite).  One :func:`run_verification` builds the rows ``exp(1j k t)``,
``|k| <= degree``, once, on the ``2N`` cover points; every second column
is, bitwise, the row computed on the ``N`` base points.  Each trial draws
its three polynomials' coefficients as one block, in the order in which
three :func:`random_trig_poly` calls draw them, and forms them as one
matrix product with the rows.  That product sums in another order than
a row-by-row sum, so a sample may differ from a per-call polynomial's by
up to ``2 (2 degree + 1) eps sum |c_k| / sqrt(2 degree + 1)``.  The
table lives for the call only (1.08 MB at ``N = 1024``, degree 16).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, MismatchError
from .fixtures import circle_double_cover, circle_two_loops
from .graphs import TWO_PI, check_trials
from .report import Check


@functools.cache
def cover():
    """The connected double cover ``F``, over which the cover samples live:
    built from its fixture file on first use, so that importing the
    package reads no file."""
    return circle_double_cover()


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


@dataclass
class TwistPath:
    """Unitaries ``U(t_j)`` at ``t_j = 2pi j / N`` for ``j = 0..N``."""
    n: int
    matrices: np.ndarray        # shape (N + 1, 2, 2)

    def unitarity_residual(self) -> float:
        prods = np.einsum("tij,tkj->tik", self.matrices,
                          self.matrices.conj())
        return float(np.max(np.abs(prods - np.eye(2))))


def build_twist(n: int) -> TwistPath:
    """The unitary path on the grid; endpoints pinned to their exact values.

    ``cos(pi/2)`` and ``e^{i pi}`` carry rounding dirt, so the ``t = 0``
    and ``t = 2pi`` matrices (identity and swap, forced by the boundary
    computation) are written exactly; this makes the endpoint identity of
    :func:`rho_map` hold bitwise on the grid.
    """
    if n < 4 or n % 2:
        raise FormatError("grid size must be even and at least 4")
    t = TWO_PI * np.arange(n + 1) / n
    half = np.exp(1j * t / 2.0)
    c, s = np.cos(t / 4.0), np.sin(t / 4.0)
    mats = np.empty((n + 1, 2, 2), dtype=np.complex128)
    mats[:, 0, 0] = half * c
    mats[:, 0, 1] = -half * s
    mats[:, 1, 0] = s
    mats[:, 1, 1] = c
    mats[0] = np.eye(2)
    mats[n] = SWAP
    tw = TwistPath(n=n, matrices=mats)
    if tw.unitarity_residual() > 1e-12:
        raise FormatError("twist path failed its unitarity invariant")
    return tw


def _check_cover_samples(f: np.ndarray, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (2 * n,):
        raise MismatchError(f"double-cover samples must have length {2 * n}")
    return f


def rho_map(twist: TwistPath, f: np.ndarray) -> np.ndarray:
    """``rho(f)`` sampled on the base grid; shape ``(N, 2)``.

    ``f`` is sampled at ``pi j / N``; the branches over ``t_j`` are the
    samples ``j`` and ``j + N``.
    """
    n = twist.n
    f = _check_cover_samples(f, n)
    u = twist.matrices[:n]
    return u[:, :, 0] * f[:n, None] + u[:, :, 1] * f[n:, None]


def endpoint_identity_exact(twist: TwistPath, f: np.ndarray) -> bool:
    """Bitwise equality of the two grid evaluations at the seam.

    At ``t = 0``: ``U(0) (f(1), f(-1))``; at ``t = 2pi``: ``U(2pi)``
    applied to the swapped branch pair ``(f(-1), f(1))``.
    """
    n = twist.n
    f = _check_cover_samples(f, n)
    at0 = twist.matrices[0] @ np.array([f[0], f[n]])
    at2pi = twist.matrices[n] @ np.array([f[n], f[0]])
    return bool(np.all(at0 == at2pi))


def verify_isometry(twist: TwistPath, f1: np.ndarray,
                    f2: np.ndarray) -> float:
    """Max residual of ``<rho f1, rho f2> = <f1, f2>`` over the grid.

    The cover inner product at ``t_j`` sums the two branches ``j`` and
    ``j + N``, as :func:`~graphcorr.modules.inner_product` does on the
    cover samples as a ``ModuleElement`` of :func:`cover`.
    """
    n = twist.n
    f1, f2 = (_check_cover_samples(f, n) for f in (f1, f2))
    r1, r2 = rho_map(twist, f1), rho_map(twist, f2)
    lhs = r1[:, 0].conj() * r2[:, 0] + r1[:, 1].conj() * r2[:, 1]
    rhs = f1[:n].conj() * f2[:n] + f1[n:].conj() * f2[n:]
    return float(np.max(np.abs(lhs - rhs)))


def verify_bimodule(twist: TwistPath, f: np.ndarray,
                    a: np.ndarray) -> tuple[float, float]:
    """Residuals of ``rho(f . a) = rho(f) . a`` and ``rho(a . f) = a . rho(f)``.

    On the double cover ``(f . a)(w) = f(w) a(w^2)``, where ``w^2`` of the
    samples ``j`` and ``j + N`` is base sample ``j``, as
    :func:`~graphcorr.modules.right_action` has it on the cover samples as
    a ``ModuleElement`` of :func:`cover`, and the left action agrees with
    the right one since range = source;
    downstairs the actions are pointwise multiplication by ``a``.
    """
    n = twist.n
    f = _check_cover_samples(f, n)
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (n,):
        raise MismatchError(f"base-grid samples must have length {n}")
    lifted = np.concatenate([a, a])
    rho_f = rho_map(twist, f)
    lhs_right = rho_map(twist, f * lifted)
    res_right = float(np.max(np.abs(lhs_right - rho_f * a[:, None])))
    lhs_left = rho_map(twist, lifted * f)
    res_left = float(np.max(np.abs(lhs_left - a[:, None] * rho_f)))
    return res_right, res_left


def surjectivity_solve(twist: TwistPath, j: int, h: np.ndarray):
    """Solve ``U(t_j) (x, y)^T = h``; exact since ``U`` is unitary."""
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (2,):
        raise MismatchError("target must be a 2-vector")
    u = twist.matrices[j]
    sol = u.conj().T @ h
    residual = float(np.max(np.abs(u @ sol - h)))
    return sol, residual


def nonisomorphism_witness() -> tuple[int, int]:
    """Component counts of the two edge spaces, two loops then double
    cover: 2 against 1.

    A graph isomorphism would carry edge-space components bijectively, so
    the graphs are not isomorphic even though the correspondence checks in
    this module certify an isomorphism of their bimodules.
    """
    return circle_two_loops().n_components, cover().n_components


def _trig_table(n_samples: int, degree: int = 16) -> np.ndarray:
    """Rows ``exp(1j k t)``, ``k = -degree .. degree``, on the grid
    ``t_j = 2pi j / n_samples``; shape ``(2 degree + 1, n_samples)``.

    Every second column of the table on ``2N`` points is, bitwise, the
    table on ``N`` points: ``2pi (2j) / (2N)`` rounds to ``2pi j / N``.
    """
    t = TWO_PI * np.arange(n_samples) / n_samples
    table = np.empty((2 * degree + 1, n_samples), dtype=np.complex128)
    for row, k in zip(table, range(-degree, degree + 1)):
        np.exp(1j * k * t, out=row)
    return table


def _trig_combinations(rng: np.random.Generator, polys: int,
                       table: np.ndarray) -> np.ndarray:
    """``polys`` random normal complex combinations of the rows of
    ``table``, normalised by the row count's root, one a row.  The
    coefficients are drawn as one block, per row the real part and then the
    imaginary, which are the draws of ``polys`` :func:`random_trig_poly`
    calls."""
    z = rng.standard_normal((polys, len(table), 2))
    return ((z[..., 0] + 1j * z[..., 1]) @ table) / math.sqrt(len(table))


def random_trig_poly(rng: np.random.Generator, n_samples: int,
                     degree: int = 16) -> np.ndarray:
    """Samples of a random trigonometric polynomial on a uniform grid."""
    return _trig_combinations(rng, 1, _trig_table(n_samples, degree))[0]


@dataclass
class VerificationReport:
    grid: int
    trials: int
    unitarity: float = 0.0
    boundary_start: float = 0.0
    boundary_end: float = 0.0
    isometry: float = 0.0
    action_right: float = 0.0
    action_left: float = 0.0
    surjectivity: float = 0.0
    endpoint_exact: bool = True
    components: tuple = (2, 1)

    def checks(self, tol: float) -> list:
        """The verdicts: boundary, unitarity, surjectivity and the seam at
        their pinned tolerances, isometry and module actions within
        ``tol``, and the component counts ``(2, 1)``."""
        boundary = max(self.boundary_start, self.boundary_end)
        actions = max(self.action_right, self.action_left)
        return [
            Check("twist-boundary", boundary <= 1e-14, boundary),
            Check("twist-unitary", self.unitarity <= 1e-12, self.unitarity),
            Check("isometry", self.isometry <= tol, self.isometry),
            Check("module-actions", actions <= tol, actions),
            Check("surjectivity", self.surjectivity <= 1e-13,
                  self.surjectivity),
            Check("seam-exact", self.endpoint_exact),
            Check("component-counts", self.components == (2, 1),
                  detail=f"{self.components}"),
        ]


def run_verification(grid: int = 1024, trials: int = 100,
                     degree: int = 16, seed: int = 0) -> VerificationReport:
    """Full numerical verification at the given grid size."""
    check_trials(trials)
    rng = np.random.default_rng(seed)
    tw = build_twist(grid)
    rep = VerificationReport(grid=grid, trials=trials)
    rep.unitarity = tw.unitarity_residual()
    rep.boundary_start = float(np.max(np.abs(tw.matrices[0] - np.eye(2))))
    rep.boundary_end = float(np.max(np.abs(tw.matrices[grid] - SWAP)))
    rows = _trig_table(2 * grid, degree)
    for _ in range(trials):
        # a's base samples are every second cover sample
        f1, f2, a = _trig_combinations(rng, 3, rows)
        a = a[::2]
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
