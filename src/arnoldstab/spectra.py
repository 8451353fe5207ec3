"""Constrained eigenvalue problems and the stability criteria.

The working space is the discrete analog of fields vanishing on the outer
boundary and constant on each inner component.  Eliminating the boundary
constants (which carry no quadrature mass) against the interior values gives
the condensed stiffness C = (Ah2 - M D^-1 M^T) / h^2 with unit mass.  C is
never formed: its inverse is h^2 times the interior block of the inverse of
the bordered matrix K of `field.CondensedSystem`.  The smallest eigenvalue of
C + diag(c), optionally plus a rank-one term rho v v^T, is the smallest Ritz
value of that operator on an orthonormal basis, certified by its residual
(`_lowest_eig`; Parlett, The Symmetric Eigenvalue Problem, 1998).  Each basis
vector costs one solve with C^-1, that is with the cached factorization of
K.  For a constant c the basis is the Lanczos basis of C^-1 from the vector
of ones, cached per domain: it serves lambda, every constant c and every
constant-slope weak form, whose rank-one term is along ones.  Since (C +
beta 1 1^T)^-1 maps any x into span{C^-1 x, C^-1 1} (Golub, SIAM Rev. 1973),
from ones it builds the Krylov space of C^-1 for every beta.  A nonconstant
c grows a fresh Davidson basis instead, by C^-1 r for the residual r of each
Ritz pair that fails its certificate (Davidson, J. Comput. Phys. 17, 1975).
The largest eigenvalue of the circulation-free inverse comes from power
iteration on the solve with K, so lambda * Lambda = 1 compares two
independent methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from .errors import ConvergenceError, SolverError

# Lanczos basis: vectors added between two certificate checks, the most a
# basis may hold, and the relative norm below which a new direction counts
# as lying in the space already spanned
_KRYLOV_STEP = 5
_KRYLOV_CAP = 60
_BREAKDOWN = 1e-12

# relative residual bound of an eigen-solve, which is also how far below zero
# a verdict's quadratic form may fall; and the slack of its slope-sign check
_EIG_TOL = 1e-8
_MARGIN_TOL = 1e-6


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

    def write_csv(self, path):
        """One-row criterion table; Lambda_h = 1/lambda_h is derived here."""
        lam = self.lambda_h
        Lam = 1.0 / lam if lam else float("nan")
        g.write_csv(
            path,
            (
                "lambda_h", "Lambda_h", "lambda_Lambda_minus_1", "mu_min", "delta0",
                "gprime_min", "gprime_max", "arnold_min_ok", "arnold_max_ok",
                "criterion_min_ok", "criterion_quadform_ok", "criterion_ok", "arnold_ok",
                "trivial_branch", "tol_eig", "tol_margin",
            ),
            [(
                lam, Lam, lam * Lam - 1.0, self.mu_min, self.delta0,
                self.gprime_min, self.gprime_max, self.arnold_min_ok, self.arnold_max_ok,
                self.criterion_min_ok, self.criterion_quadform_ok, self.criterion_ok,
                self.arnold_ok, self.trivial_branch, self.tol_eig, self.tol_margin,
            )],
        )


class _Krylov:
    """Orthonormal basis of the Krylov space of the symmetric operator
    `solve` from a start vector: Lanczos with full reorthogonalization,
    kept as a list of vectors and grown on demand."""

    def __init__(self, solve, start):
        self.solve = solve
        self.vectors = [start / np.linalg.norm(start)]
        self.exhausted = False  # a new direction lay in the span

    def grow(self, size, residual):
        """Extend the basis to `size` vectors, or to the whole Krylov space."""
        while len(self.vectors) < size and not self.exhausted:
            self._append(self.solve(self.vectors[-1]))

    def _append(self, w):
        """Orthonormalize w against the basis and append it, if not in the span."""
        vs = self.vectors
        scale = np.linalg.norm(w)
        for _ in range(2):  # classical Gram-Schmidt, twice
            for v, coef in zip(vs, [v @ w for v in vs]):
                w -= coef * v
        norm = np.linalg.norm(w)
        if norm > _BREAKDOWN * scale:
            vs.append(w / norm)
        else:
            self.exhausted = True


class _Davidson(_Krylov):
    """Davidson's basis (J. Comput. Phys. 17, 1975) preconditioned by
    `solve`: one vector solve(r) per residual r of a failed Ritz pair."""

    def grow(self, size, residual):
        if residual is not None:
            self._append(self.solve(residual))


# an overflowing potential turns the Rayleigh-Ritz matrix or the residual
# non-finite, which raises `ConvergenceError`; numpy need not warn first
@np.errstate(over="ignore", invalid="ignore")
def _lowest_eig(basis, apply):
    """Smallest eigenpair of the symmetric operator `apply`, by Rayleigh-Ritz
    on a `_Krylov` or `_Davidson` basis.

    V^T apply V is accumulated one column per basis vector; the smallest
    Ritz pair is certified by the residual r of the Rayleigh quotient mu of
    `apply` at the unit Ritz vector x, ||apply x - mu x|| <= _EIG_TOL *
    max(1, |mu|), and until it passes the basis grows, given r, by up to
    `_KRYLOV_STEP` vectors.  Only the vectors a pair needs are read, so a
    pair from a longer cached basis equals that of a fresh one.  A
    non-finite entry of V^T apply V or r raises `ConvergenceError` at once.
    Returns (mu, x, number of solves behind the vectors used, residual)
    with x of nonnegative sum.
    """
    vs = basis.vectors
    vav = np.zeros((_KRYLOV_CAP, _KRYLOV_CAP))
    size, r = 0, None
    while True:
        basis.grow(min(size + _KRYLOV_STEP, _KRYLOV_CAP), r)
        new = min(size + _KRYLOV_STEP, _KRYLOV_CAP, len(vs))
        for j in range(size, new):
            av = apply(vs[j])
            vav[: j + 1, j] = [v @ av for v in vs[: j + 1]]
        if not np.isfinite(vav[:new, size:new]).all():
            raise ConvergenceError("Rayleigh-Ritz matrix is not finite")
        size = new
        y = np.linalg.eigh(vav[:size, :size], UPLO="U")[1][:, 0]
        x = y[0] * vs[0]
        for coef, v in zip(y[1:], vs[1:size]):
            x += coef * v
        x /= np.linalg.norm(x)
        if x.sum() < 0:
            x = -x
        ax = apply(x)
        mu = float(x @ ax)
        r = ax - mu * x
        res = float(np.linalg.norm(r))
        if res <= _EIG_TOL * max(1.0, abs(mu)):
            return mu, x, size - 1, res
        if not np.isfinite(res) or size == _KRYLOV_CAP or (size == len(vs) and basis.exhausted):
            raise ConvergenceError(
                "Rayleigh-Ritz left residual %.3e after %d solves" % (res, size - 1)
            )


def _condensed(sys, c, rank_one=None):
    """(basis, apply) for C + diag(c) (+ rho v v^T) on interior values.

    Every basis vector costs one solve with C^-1, by the cached factorization
    of K.  A constant c (which comes with v along ones) reads the Lanczos
    basis of C^-1 from ones, cached per system: it is the Krylov space of (C
    + c + rho v v^T)^-1 for every c and rho.  A nonconstant c gets a fresh
    `_Davidson` basis, started from v, or from ones without v.
    """
    h2 = sys.h2

    def apply(x):
        y = sys.Ah2 @ x
        if sys.n:
            y -= sys.M @ ((sys.M.T @ x) / sys.Dk)
        y = y / h2 + c * x
        if rank_one is not None:
            rho, v = rank_one
            y += (rho * (v @ x)) * v
        return y

    def solve(b):
        return h2 * sys.solve_shifted(0.0, np.concatenate([b, np.zeros(sys.n)]))[: sys.n_int]

    if np.ptp(c) == 0:
        if "lanczos_basis" not in sys.cache:
            sys.cache["lanczos_basis"] = _Krylov(solve, np.ones(sys.n_int))
        return sys.cache["lanczos_basis"], apply
    start = np.ones(sys.n_int) if rank_one is None else rank_one[1]
    return _Davidson(solve, start), apply


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


def lambda_c(basis, c) -> SpectralResult:
    """Smallest value of (grad energy + int c u^2) / int u^2 over the
    constrained space, with its minimizer."""
    sys = basis.system
    if np.isscalar(c):
        c_int = np.full(sys.n_int, float(c))
    else:
        c_int = c.values[basis.domain.interior_ids]
    val, u, iters, res = _lowest_eig(*_condensed(sys, c_int))
    return _result_from_interior(basis, val, u, iters, res)


def lambda_plain(basis) -> SpectralResult:
    """Smallest Rayleigh quotient of the Dirichlet energy, cached with the
    domain's other spectral data in `CondensedSystem.cache`."""
    cache = basis.system.cache
    if "lambda_plain" not in cache:
        cache["lambda_plain"] = lambda_c(basis, 0.0)
    return cache["lambda_plain"]


def lambda_big(basis, tol: float = _EIG_TOL) -> SpectralResult:
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


def check_stability(basis, state) -> CriterionReport:
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
    lam = lambda_plain(basis).value

    gp_int = gp_all[dom.interior_ids]
    mu = lambda_c(basis, g.ScalarField(dom, -gp_all)).value
    delta0 = weak_pos_def(basis, state)
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
        criterion_min_ok=gp_min >= -_MARGIN_TOL,
        criterion_quadform_ok=mu >= -_EIG_TOL,
        trivial_branch=trivial,
        tol_eig=_EIG_TOL,
        tol_margin=_MARGIN_TOL,
    )


# an overflowing slope makes the weight's mass non-finite, and `_lowest_eig`
# raises on the operator it builds
@np.errstate(over="ignore", invalid="ignore")
def weak_pos_def(basis, state) -> float:
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
    return _lowest_eig(*_condensed(sys, -gp.astype(float), rank_one))[0]
