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
from ones it builds the Krylov space of C^-1 for every beta.  The basis keeps
G = V^T C V, so the Rayleigh-Ritz matrix of each such operator, G + c I +
rho w w^T, needs a product with C only for vectors G has not seen.  A
`_Krylov` basis also records its Lanczos coefficients, from which
`_Krylov.shifted_solve` solves (I - kappa C^-1) u = u0 for every kappa at
once; `steady` keeps one such basis for its linear states.  A nonconstant c
grows a fresh Davidson basis instead, by C^-1 r for the residual r of each
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

# residual, relative to the right-hand side, at which a shifted solve in a
# Krylov basis stops growing it
_SOLVE_TOL = 1e-13

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
    kept as a list of vectors and grown on demand.

    Column j of `hessenberg` holds the coordinates of solve(v_j) in v_0 ..
    v_{j+1}, the last one 0 where the space is exhausted, so that the
    columns give solve V_m = V_{m+1} H_m; `scale` is the norm of the start
    vector.  `gram` keeps V^T A V for the one operator A that its callers
    pair with the basis, one column per basis vector."""

    def __init__(self, solve, start):
        self.solve = solve
        self.scale = float(np.linalg.norm(start))
        self.vectors = [start / self.scale]
        self.hessenberg = []
        self.exhausted = False  # a new direction lay in the span
        self._gram = np.zeros((0, 0))

    def grow(self, size, residual):
        """Extend the basis to `size` vectors, or to the whole Krylov space."""
        while len(self.vectors) < size and not self.exhausted:
            self.hessenberg.append(self._append(self.solve(self.vectors[-1])))

    def _append(self, w):
        """Orthonormalize w against the basis and append it, if not in the
        span; returns the coordinates of w in the basis and the new vector."""
        vs = self.vectors
        scale = np.linalg.norm(w)
        coords = np.zeros(len(vs) + 1)
        for _ in range(2):  # classical Gram-Schmidt, twice
            coefs = [v @ w for v in vs]
            for v, coef in zip(vs, coefs):
                w -= coef * v
            coords[:-1] += coefs
        norm = np.linalg.norm(w)
        if norm > _BREAKDOWN * scale:
            vs.append(w / norm)
            coords[-1] = norm
        else:
            self.exhausted = True
        return coords

    def gram(self, size, op):
        """V^T A V on the first `size` vectors, upper triangle, A the
        symmetric operator `op`: one product with A per vector that no
        earlier call has seen."""
        seen = len(self._gram)
        if size > seen:
            G = np.zeros((size, size))
            G[:seen, :seen] = self._gram
            vs = self.vectors
            for j in range(seen, size):
                av = op(vs[j])
                G[: j + 1, j] = [v @ av for v in vs[: j + 1]]
            self._gram = G
        return self._gram[:size, :size]

    # an overflowing kappa makes the projected matrix or y non-finite; the
    # solve then reports no convergence, and numpy need not warn first
    @np.errstate(over="ignore", invalid="ignore")
    def shifted_solve(self, kappa):
        """(u, converged): u in the Krylov space with (I - kappa S) u = u0,
        S = `solve` and u0 the start vector.

        The Galerkin condition on m vectors reads (I - kappa H_m) y =
        |u0| e_1 with u = V_m y, and leaves the residual -kappa h_{m+1,m}
        y_m v_{m+1} (Saad, Iterative Methods for Sparse Linear Systems, 2003,
        on FOM).  The least m whose residual is at most _SOLVE_TOL |u0| is
        taken, growing the basis one vector at a time, so every kappa reads
        the one basis and its result does not depend on how far earlier
        calls grew it.  An exhausted basis solves exactly.  A solve that
        reaches `_KRYLOV_CAP` first is not converged.
        """
        cols = self.hessenberg
        H = np.zeros((_KRYLOV_CAP, _KRYLOV_CAP))
        y, converged = np.zeros(1), False
        for m in range(1, _KRYLOV_CAP):
            self.grow(m + 1, None)
            if len(cols) < m:
                break
            H[: m + 1, m - 1] = cols[m - 1]
            rhs = np.zeros(m)
            rhs[0] = self.scale
            try:
                y = np.linalg.solve(np.eye(m) - kappa * H[:m, :m], rhs)
            except np.linalg.LinAlgError:
                continue
            if abs(kappa * H[m, m - 1] * y[-1]) <= _SOLVE_TOL * self.scale:
                converged = True
                break
        u = y[0] * self.vectors[0]
        for coef, v in zip(y[1:], self.vectors[1:]):
            u += coef * v
        return u, converged


class _Davidson(_Krylov):
    """Davidson's basis (J. Comput. Phys. 17, 1975) preconditioned by
    `solve`: one vector solve(r) per residual r of a failed Ritz pair."""

    def grow(self, size, residual):
        if residual is not None:
            self._append(self.solve(residual))


def _inverse(sys):
    """C^-1 on interior values: h^2 times the interior block of K^-1.  It
    closes over the factorization, not over `sys`, so a basis that the
    domain keeps holds no reference to the domain's objects."""
    lu, h2, n_int, border = sys._lu_K, sys.h2, sys.n_int, np.zeros(sys.n)

    def solve(b):
        return h2 * lu.solve(np.concatenate([b, border]))[:n_int]

    return solve


class _Operator:
    """C + diag(c) (+ rho v v^T) on interior values, with C the condensed
    stiffness; calling it applies it.  `shift` is c where c is constant."""

    def __init__(self, sys, c, rank_one=None):
        self.sys = sys
        self.c = c
        self.rank_one = rank_one
        self.shift = float(c[0]) if np.ptp(c) == 0 else None

    def stiffness(self, x):
        sys = self.sys
        y = sys.Ah2 @ x
        if sys.n:
            y -= sys.M @ ((sys.M.T @ x) / sys.Dk)
        return y / sys.h2

    def __call__(self, x):
        y = self.stiffness(x) + self.c * x
        if self.rank_one is not None:
            rho, v = self.rank_one
            y += (rho * (v @ x)) * v
        return y

    def rayleigh_ritz(self, basis, size):
        """V^T (this operator) V on the first `size` vectors of `basis`, upper
        triangle, from the basis's `gram`, so only a vector it has not seen
        costs a product.  With a `shift` c it is G + c I + rho w w^T, with G =
        V^T C V and w = V^T v, so the shared Lanczos basis keeps G for every
        constant c; otherwise the basis is a fresh `_Davidson` one of this
        operator alone, and keeps V^T (this operator) V."""
        if self.shift is None:
            return basis.gram(size, self)
        rr = basis.gram(size, self.stiffness) + self.shift * np.eye(size)
        if self.rank_one is not None:
            rho, v = self.rank_one
            w = np.array([u @ v for u in basis.vectors[:size]])
            rr += np.outer(w, rho * w)
        return rr


# an overflowing potential turns the Rayleigh-Ritz matrix or the residual
# non-finite, which raises `ConvergenceError`; numpy need not warn first
@np.errstate(over="ignore", invalid="ignore")
def _lowest_eig(basis, op):
    """Smallest eigenpair of the symmetric `_Operator` op, by Rayleigh-Ritz
    on a `_Krylov` or `_Davidson` basis.

    The smallest Ritz pair of V^T op V (`_Operator.rayleigh_ritz`) is
    certified by the residual r of the Rayleigh quotient mu of op at the
    unit Ritz vector x, ||op x - mu x|| <= _EIG_TOL * max(1, |mu|), and
    until it passes the basis grows, given r, by up to `_KRYLOV_STEP`
    vectors.  Only the vectors a pair needs are read, so a pair from a
    longer cached basis equals that of a fresh one.  A non-finite entry of
    V^T op V or r raises `ConvergenceError` at once.  Returns (mu, x, number
    of solves behind the vectors used, residual) with x of nonnegative sum.
    """
    vs = basis.vectors
    size, r = 0, None
    while True:
        basis.grow(min(size + _KRYLOV_STEP, _KRYLOV_CAP), r)
        size = min(size + _KRYLOV_STEP, _KRYLOV_CAP, len(vs))
        rr = op.rayleigh_ritz(basis, size)
        if not np.isfinite(rr).all():
            raise ConvergenceError("Rayleigh-Ritz matrix is not finite")
        y = np.linalg.eigh(rr, UPLO="U")[1][:, 0]
        x = y[0] * vs[0]
        for coef, v in zip(y[1:], vs[1:size]):
            x += coef * v
        x /= np.linalg.norm(x)
        if x.sum() < 0:
            x = -x
        ax = op(x)
        mu = float(x @ ax)
        r = ax - mu * x
        res = float(np.linalg.norm(r))
        if res <= _EIG_TOL * max(1.0, abs(mu)):
            return mu, x, size - 1, res
        if not np.isfinite(res) or size == _KRYLOV_CAP or (size == len(vs) and basis.exhausted):
            raise ConvergenceError(
                "Rayleigh-Ritz left residual %.3e after %d solves" % (res, size - 1)
            )


def _condensed(basis, c, rank_one=None):
    """(Krylov basis, op) for the `_Operator` C + diag(c) (+ rho v v^T) of
    the harmonic `basis`'s domain.

    Every basis vector costs one solve with C^-1, by the cached factorization
    of K.  A constant c (which comes with v along ones) reads the Lanczos
    basis of C^-1 from ones, kept by the domain (`grid.cached`): it is the
    Krylov space of (C + c + rho v v^T)^-1 for every c and rho, and it keeps
    V^T C V for the Rayleigh-Ritz matrices of them all.  A nonconstant c
    gets a fresh `_Davidson` basis, started from v, or from ones without v.
    """
    sys = basis.system
    op = _Operator(sys, c, rank_one)
    if op.shift is not None:
        ones = np.ones(sys.n_int)
        return g.cached(basis.domain, "lanczos_basis", lambda: _Krylov(_inverse(sys), ones)), op
    start = np.ones(sys.n_int) if rank_one is None else rank_one[1]
    return _Davidson(_inverse(sys), start), op


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
    if np.isscalar(c):
        c_int = np.full(basis.system.n_int, float(c))
    else:
        c_int = c.values[basis.domain.interior_ids]
    return _result_from_interior(basis, *_lowest_eig(*_condensed(basis, c_int)))


def lambda_plain(basis) -> SpectralResult:
    """Smallest Rayleigh quotient of the Dirichlet energy.  The domain keeps
    its eigenpair as arrays (value, interior vector, iterations, residual),
    with its other solver data (`grid.cached`), and each call builds the
    result from them: a kept result would hold the domain through its
    minimizer."""
    zero = np.zeros(basis.system.n_int)
    pair = g.cached(basis.domain, "lambda_plain", lambda: _lowest_eig(*_condensed(basis, zero)))
    return _result_from_interior(basis, *pair)


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
    strictly below the constrained Rayleigh bound lambda_h.  A slope whose
    mass h^2 sum g' over the interior overflows raises `ConvergenceError`
    before any eigen-solve.
    """
    dom = basis.domain
    gp_all = state.g.deriv(state.psi_bar.values)
    gp_min = float(gp_all.min())
    gp_max = float(gp_all.max())
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = float(gp_all[dom.interior_ids].sum()) * dom.h * dom.h
    if not np.isfinite(gamma):
        raise ConvergenceError("slope mass h^2 sum g' = %r is not finite" % gamma)
    lam = lambda_plain(basis).value
    mu = lambda_c(basis, g.ScalarField(dom, -gp_all)).value
    delta0 = weak_pos_def(basis, state)
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
    gp_all = state.g.deriv(state.psi_bar.values)
    gp = gp_all[dom.interior_ids]
    h2 = dom.h * dom.h
    gamma = float(gp.sum()) * h2
    rank_one = None
    if gamma > 1e-12 * dom.area * max(1.0, float(np.abs(gp).max(initial=0.0))):
        rho = h2 * h2 / gamma / h2  # quadratic-form weight over the unit mass
        rank_one = (rho, gp.astype(float))
    return _lowest_eig(*_condensed(basis, -gp.astype(float), rank_one))[0]
