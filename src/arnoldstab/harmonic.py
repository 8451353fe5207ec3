"""Harmonic boundary basis and its Gram matrices.

For a domain with N inner components, zeta_i is the discrete harmonic field
equal to 1 on inner component i and 0 on every other boundary component.  The
Gram matrix p_ij is the Dirichlet inner product of the basis, q its inverse.
These decompose any field vanishing on the outer boundary and constant on the
inner ones into boundary constants plus a zero-boundary remainder.
"""

from __future__ import annotations

import numpy as np

from . import grid as g
from .errors import ConvergenceError, GridError, SolverError
from .field import CondensedSystem

# bound on each zeta's interior Laplacian residual, times max(1, 1/h^2)
_RESIDUAL_TOL = 1e-10


class HarmonicBasis:
    """Harmonic fields zeta_1..zeta_N with Gram matrix p and inverse q."""

    def __init__(self, domain, zetas, p, q):
        self.domain = domain
        self.zetas = tuple(zetas)
        self.p = p
        self.q = q
        self.system = CondensedSystem.of(domain)

    @property
    def n(self) -> int:
        return len(self.zetas)


def solve_basis(domain: g.GridDomain) -> HarmonicBasis:
    """Solve the N harmonic boundary problems and assemble p and q.

    All N come from the factorization of the condensed system: the bordered
    solve with zero vorticity and unit flux through inner component k is
    harmonic, with interior values U[:, k] and boundary constants T[:, k].
    The fields are then recombined so that each takes the value 1 on its
    own component and 0 on the others: zeta = U T^-1.

    Each zeta_i is certified by its interior Laplacian residual; p must be
    symmetric positive definite with p q = I to 1e-10 or the component
    labeling is considered broken.
    """
    n = domain.n_components - 1
    sys = CondensedSystem.of(domain)
    if n == 0:
        # simply-connected degenerate case: empty basis, trivial Gram data
        return HarmonicBasis(domain, (), np.zeros((0, 0)), np.zeros((0, 0)))

    eye = np.eye(n)
    U = np.empty((sys.n_int, n))
    T = np.empty((n, n))
    for k in range(n):
        U[:, k], T[:, k] = sys.solve_stream(np.zeros(sys.n_int), -eye[k])
    Z = np.linalg.solve(T.T, U.T)  # row i: interior values of zeta_i

    zetas = []
    for i in range(n):
        zeta = g.ScalarField(domain, sys.embed(Z[i], eye[i]))
        res = g.linf(g.neg_laplacian(zeta))
        if res > _RESIDUAL_TOL * max(1.0, 1.0 / domain.h**2):
            raise ConvergenceError(
                "harmonic solve for component %d left residual %.3e" % (i + 1, res)
            )
        lo, hi = zeta.values.min(), zeta.values.max()
        if lo < -1e-9 or hi > 1 + 1e-9:
            raise SolverError("harmonic field %d violates its barrier bounds" % (i + 1))
        zetas.append(zeta)

    p = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            p[i, j] = p[j, i] = g.dirichlet_form(zetas[i], zetas[j])
    eigs = np.linalg.eigvalsh(p)
    if eigs.min() <= 0:
        raise SolverError("Gram matrix p is not positive definite (mislabeled components?)")
    q = np.linalg.inv(p)
    q = 0.5 * (q + q.T)
    if np.abs(p @ q - eye).max() > 1e-10:
        raise SolverError("Gram matrix p is too ill-conditioned to invert")
    return HarmonicBasis(domain, zetas, p, q)


def x_decompose(basis: HarmonicBasis, u: g.ScalarField, tol: float = 1e-6):
    """Split u into boundary constants and a zero-boundary remainder.

    Requires u = 0 on the outer boundary and u constant on each inner
    component (within tol relative to the field scale).  Returns
    (theta, v) with u = sum theta_i zeta_i + v.
    """
    dom = basis.domain
    scale = max(1.0, g.linf(u))
    outer = u.values[dom.boundary_ids(0)]
    if np.abs(outer).max(initial=0.0) > tol * scale:
        raise GridError("field does not vanish on the outer boundary")
    for k in range(1, dom.n_components):
        vals = u.values[dom.boundary_ids(k)]
        if vals.size and (vals.max() - vals.min()) > tol * scale:
            raise GridError("field is not constant on inner component %d" % k)

    theta = basis.q @ np.array(
        [g.dirichlet_form(u, z) for z in basis.zetas]
    )
    rem = u.values.copy()
    for i, z in enumerate(basis.zetas):
        rem -= theta[i] * z.values
    return theta, g.ScalarField(dom, rem)
