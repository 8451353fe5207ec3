"""Constrained eigenvalue problems and the stability criteria.

The working space is the discrete analog of fields vanishing on the outer
boundary and constant on each inner component.  Eliminating the boundary
constants (which carry no quadrature mass) against the interior values gives
the condensed stiffness C = (Ah2 - M D^-1 M^T) / h^2 with unit mass.  C is
never formed: its inverse is h^2 times the interior block of the inverse of
the bordered matrix K of `field.CondensedSystem`.  The smallest eigenvalue of
C + diag(c), optionally plus a rank-one term, comes from shift-invert Lanczos
(ARPACK `eigsh`, fixed start vector) with the shift sigma = min(c); each step
is one solve with K + diag(h^2 (c - sigma), 0), which for constant c is the
cached factorization of K, so one Lanczos run per system serves every
constant c.  The largest eigenvalue of the circulation-free inverse comes
from power iteration on the same solve, so lambda * Lambda = 1 compares two
independent methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import grid as g
from .errors import ConvergenceError, SolverError


@dataclass
class SpectralResult:
    """Extremal eigenvalue with its minimizer and diagnostics."""

    value: float
    minimizer: g.ScalarField
    flux_diag: np.ndarray
    iterations: int
    residual: float


@dataclass
class CriterionReport:
    """Eigenvalue-based stability verdicts for a steady state.

    `criterion_*` are the weak conditions (slope nonnegative, quadratic form
    nonnegative on the constrained space); `arnold_*` the classical strict
    ones (slope positive, slope below the constrained Rayleigh bound).
    """

    lambda_h: float
    mu_min: float
    delta0: float
    gprime_min: float
    gprime_max: float
    arnold_min_ok: bool
    arnold_max_ok: bool
    criterion_min_ok: bool
    criterion_quadform_ok: bool
    trivial_branch: bool
    tol_eig: float
    tol_margin: float

    @property
    def criterion_ok(self) -> bool:
        return self.criterion_min_ok and self.criterion_quadform_ok

    @property
    def arnold_ok(self) -> bool:
        return self.arnold_min_ok and self.arnold_max_ok

    def csv_header(self):
        return (
            "lambda_h,Lambda_h,lambda_Lambda_minus_1,mu_min,delta0,"
            "gprime_min,gprime_max,arnold_min_ok,arnold_max_ok,"
            "criterion_min_ok,criterion_quadform_ok,criterion_ok,arnold_ok,"
            "trivial_branch,tol_eig,tol_margin"
        )

    def csv_row(self):
        lam = self.lambda_h
        Lam = 1.0 / lam if lam else float("nan")
        vals = [
            repr(lam),
            repr(Lam),
            repr(lam * Lam - 1.0),
            repr(self.mu_min),
            repr(self.delta0),
            repr(self.gprime_min),
            repr(self.gprime_max),
            str(int(self.arnold_min_ok)),
            str(int(self.arnold_max_ok)),
            str(int(self.criterion_min_ok)),
            str(int(self.criterion_quadform_ok)),
            str(int(self.criterion_ok)),
            str(int(self.arnold_ok)),
            str(int(self.trivial_branch)),
            repr(self.tol_eig),
            repr(self.tol_margin),
        ]
        return ",".join(vals)


def _lanczos(solve, n):
    """Unit eigenvector, with nonnegative sum, of the largest eigenvalue of
    the symmetric positive operator `solve` on R^n, and the number of solves.

    ARPACK `eigsh` from the start vector of ones, to working precision
    (tol = 0), with 6 Lanczos vectors: the shift-inverted spectrum is well
    separated, so a larger Krylov space only adds solves before the first
    convergence test.
    """
    solves = 0

    def matvec(b):
        nonlocal solves
        solves += 1
        return solve(b)

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        _, vecs = eigsh(op, k=1, which="LA", v0=np.ones(n), ncv=min(n, 6), tol=0.0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError("shift-invert Lanczos did not converge: %s" % exc)
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    if x.sum() < 0:
        x = -x
    return x, solves


def _certified(apply, x, solves, tol):
    """(mu, x, solves, residual): the Rayleigh quotient mu of `apply` at the
    unit vector x, certified by ||apply x - mu x|| <= tol * max(1, |mu|)."""
    ax = apply(x)
    mu = float(x @ ax)
    res = float(np.linalg.norm(ax - mu * x))
    if not res <= tol * max(1.0, abs(mu)):
        raise ConvergenceError(
            "shift-invert Lanczos left residual %.3e after %d solves" % (res, solves)
        )
    return mu, x, solves, res


def _lowest_eig(solve, apply, n, tol):
    """Smallest eigenpair of the symmetric operator `apply` on R^n, given
    `solve` = (apply - sigma)^-1 for a shift sigma strictly below its
    spectrum.

    Lanczos finds the largest eigenvector of `solve`; the eigenvalue is the
    Rayleigh quotient of `apply`, certified by its residual.  Returns
    (mu, x, number of solves, residual) with x of unit norm and nonnegative
    sum.
    """
    return _certified(apply, *_lanczos(solve, n), tol)


def _condensed(sys, c, rank_one=None):
    """(solve, apply) for C + diag(c) (+ rho v v^T) on interior values, with
    the shift sigma = min(c); C is SPD, so sigma lies below the spectrum."""
    h2 = sys.h2
    sigma = float(c.min())
    lu = sys.shifted_lu(h2 * (c - sigma))
    border = np.zeros(sys.n)

    def solve(b):
        return h2 * lu.solve(np.concatenate([b, border]))[: sys.n_int]

    def apply(x):
        y = sys.Ah2 @ x
        if sys.n:
            y -= sys.M @ ((sys.M.T @ x) / sys.Dk)
        return y / h2 + c * x

    if rank_one is None:
        return solve, apply
    rho, v = rank_one
    base, base_apply = solve, apply
    bv = base(v)
    denom = 1.0 + rho * (v @ bv)

    def solve(b):  # Sherman-Morrison
        xb = base(b)
        return xb - rho * (v @ xb) / denom * bv

    def apply(x):
        return base_apply(x) + rho * v * (v @ x)

    return solve, apply


def _result_from_interior(basis, value, u, iters, res):
    sys = basis.system
    dom = basis.domain
    h = dom.h
    u = u / np.sqrt(h * h * float(u @ u))
    theta = sys.theta_of(u)
    fld = g.ScalarField(dom, sys.embed(u, theta))
    flux = np.array(
        [g.boundary_flux(fld, k) for k in range(1, dom.n_components)]
    )
    return SpectralResult(value, fld, flux, iters, res)


def lambda_c(basis, c, tol: float = 1e-8) -> SpectralResult:
    """Smallest value of (grad energy + int c u^2) / int u^2 over the
    constrained space, with its minimizer."""
    sys = basis.system
    if np.isscalar(c):
        c_int = np.full(sys.n_int, float(c))
    else:
        c_int = c.values[basis.domain.interior_ids]
    solve, apply = _condensed(sys, c_int)
    if np.ptp(c_int) == 0:
        # sigma = c, so the shift vanishes and the Lanczos run is that of K
        # itself: one run per system serves every constant c
        if "lanczos_K" not in sys.cache:
            sys.cache["lanczos_K"] = _lanczos(solve, sys.n_int)
        val, u, iters, res = _certified(apply, *sys.cache["lanczos_K"], tol)
    else:
        val, u, iters, res = _lowest_eig(solve, apply, sys.n_int, tol)
    return _result_from_interior(basis, val, u, iters, res)


def lambda_plain(basis, tol: float = 1e-8) -> SpectralResult:
    """Smallest Rayleigh quotient of the Dirichlet energy, cached with the
    domain's other spectral data in `CondensedSystem.cache`."""
    cache = basis.system.cache
    key = ("lambda_plain", tol)
    if key not in cache:
        cache[key] = lambda_c(basis, 0.0, tol)
    return cache[key]


def lambda_big(basis, tol: float = 1e-8) -> SpectralResult:
    """Largest eigenvalue of the circulation-free inverse Laplacian in the
    interior L2 inner product, by power iteration; reciprocal of lambda."""
    sys = basis.system
    dom = basis.domain
    h2 = dom.h * dom.h

    def P(x):
        u, _ = sys.solve_stream(x, np.zeros(sys.n))
        return u

    x = np.ones(sys.n_int)
    x /= np.linalg.norm(x)
    lam = 0.0
    for it in range(1, 4000):
        y = P(x)
        lam = float(x @ y)
        res = float(np.linalg.norm(y - lam * x))
        if res <= tol * max(abs(lam), 1e-300):
            x = y / np.linalg.norm(y)
            break
        x = y / np.linalg.norm(y)
    else:
        raise ConvergenceError("power iteration for the inverse operator stalled")
    if lam <= 0:
        raise SolverError("inverse operator lost positivity")
    u = x / np.sqrt(h2 * float(x @ x))
    fld = g.ScalarField(dom, sys.embed(u))
    flux = np.zeros(sys.n)  # maximizer is an interior density, no flux meaning
    return SpectralResult(lam, fld, flux, it, res)


def check_stability(basis, state, tol_eig: float = 1e-8, tol_margin: float = 1e-6) -> CriterionReport:
    """Evaluate the stability criteria for a certified steady state.

    Weak criterion: slope of the vorticity profile nonnegative everywhere and
    the quadratic form (grad energy minus slope-weighted mass) nonnegative on
    the constrained space.  Classical criterion: slope strictly positive and
    strictly below the constrained Rayleigh bound lambda_h.
    """
    dom = basis.domain
    gp_all = state.g.deriv(state.psi_bar.values)
    gp_min = float(gp_all.min())
    gp_max = float(gp_all.max())
    lam = lambda_plain(basis, tol_eig).value

    gp_int = gp_all[dom.interior_ids]
    mu = lambda_c(basis, g.ScalarField(dom, -gp_all), tol_eig).value
    delta0 = weak_pos_def(basis, state, tol_eig)
    gamma = float(gp_int.sum()) * dom.h * dom.h
    trivial = gamma <= 1e-12 * dom.area * max(1.0, abs(gp_max))

    return CriterionReport(
        lambda_h=lam,
        mu_min=mu,
        delta0=delta0,
        gprime_min=gp_min,
        gprime_max=gp_max,
        arnold_min_ok=gp_min > 0.0,
        arnold_max_ok=gp_max < lam,
        criterion_min_ok=gp_min >= -tol_margin,
        criterion_quadform_ok=mu >= -tol_eig,
        trivial_branch=trivial,
        tol_eig=tol_eig,
        tol_margin=tol_margin,
    )


def weak_pos_def(basis, state, tol: float = 1e-8) -> float:
    """Coercivity margin delta0 of the criterion quadratic form augmented by
    its rank-one mean correction.

    When the slope weight has (numerically) zero mass the correction is
    dropped, which is its continuous limit (the vorticity profile is constant
    and the form reduces to the plain Dirichlet quotient).
    """
    dom = basis.domain
    sys = basis.system
    gp_all = state.g.deriv(state.psi_bar.values)
    gp = gp_all[dom.interior_ids]
    h2 = dom.h * dom.h
    gamma = float(gp.sum()) * h2
    rank_one = None
    if gamma > 1e-12 * dom.area * max(1.0, float(np.abs(gp).max(initial=0.0))):
        rho = h2 * h2 / gamma / h2  # quadratic-form weight over the unit mass
        rank_one = (rho, gp.astype(float))
    ops = _condensed(sys, -gp.astype(float), rank_one)
    return _lowest_eig(*ops, sys.n_int, tol)[0]
