"""Stream-function solves in multiply-connected domains.

The central object is the condensed linear system: unknowns are the interior
node values together with one constant per inner boundary component, and the
constant rows impose a prescribed flux through that component.  The block
matrix is exactly the discrete Dirichlet form on this space, hence symmetric
positive definite; it is assembled and factorized once per domain, and that
is the only factorization the package makes.  The harmonic basis and the
stream solves reuse it, and so does every eigenproblem: the one Lanczos
basis of its inverse that the domain keeps for a constant potential or a
constant slope, and the Davidson basis it preconditions for a nonconstant
potential (see `spectra`).  The steady state of a linear profile reads a
second Krylov basis, kept by the domain for the latest circulation vector,
that serves every slope, and is refined by a defect-correction solve with
it; a Newton step of a nonlinear profile runs MINRES preconditioned by it on
the matrix with a diagonal shift (`CondensedSystem.solve_shifted`; see
`steady`).  The domain keeps all of it in its one cache (`grid.cached`),
which holds nothing that refers back to the domain, so a domain is freed,
with its factorization, on `del`.

Built on it:

* ``p_apply``       -- the circulation-free inverse (zero flux through every
                       inner component); its inverse is -lap by construction,
* ``h_field``       -- the harmonic field carrying prescribed circulations,
* ``stream_solve``  -- full reconstruction of the stream function from
                       vorticity and circulations,
* ``velocity`` / ``circulation`` -- perpendicular gradient and contour sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.linalg import LinearOperator, minres, splu

from . import grid as g
from .errors import GridError, SolverError

_FOUR_STRUCT = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


# MINRES iteration cap of a shifted solve; at res 32-128 a solve converges
# within 9-16 preconditioner solves
_MINRES_CAP = 100


def _factor(mat, what):
    """Sparse LU of a symmetric positive definite matrix in SuperLU's
    symmetric mode: the minimum-degree ordering of A^T + A, which at res 64
    halves the fill of the default column ordering, and diagonal pivots,
    which an SPD matrix needs no row exchanges for.  No supernodes are relaxed
    and panels are one column wide (relax=1, panel_size=1; SuperLU's defaults
    are 10 and 20): the fill is the same, but at res 64 the factorization
    takes about 30% less time and its peak memory above the matrix falls
    from 30 to 17 MB (2 vCPUs, scipy 1.17)."""
    try:
        return splu(
            mat.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            relax=1,
            panel_size=1,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise SolverError("%s factorization failed: %s" % (what, exc))


class CondensedSystem:
    """Sparse factorized form of the flux-constrained Poisson problem."""

    def __init__(self, domain: g.GridDomain):
        # the system keeps no reference to its domain, whose cache holds it:
        # without that cycle the factorization is freed with the domain, not
        # at the next run of the cyclic garbage collector
        self.n = domain.n_components - 1
        dom = domain
        h2 = dom.h * dom.h

        ii = dom.interior_ids
        self.n_int = len(ii)
        self.n_nodes = dom.n_nodes
        self.int_ids = ii
        self.border_ids = [dom.boundary_ids(k + 1) for k in range(self.n)]
        row_of = np.full(dom.n_nodes, -1, dtype=np.int64)
        row_of[ii] = np.arange(self.n_int)

        # interior block of the Dirichlet form: diag = sum of edge weights,
        # off-diagonal = -w for interior-interior edges
        diag = np.zeros(self.n_int)
        rows, cols, vals = [], [], []
        kinds = dom.node_kind
        mcols = np.zeros((self.n_int, self.n)) if self.n else np.zeros((self.n_int, 0))
        for d in range(4):
            q = dom.nbr[ii, d]
            w = dom.wgt[ii, d]
            diag += w
            qk = kinds[q]
            inter = qk == g.INTERIOR
            if inter.any():
                rows.append(np.arange(self.n_int)[inter])
                cols.append(row_of[q[inter]])
                vals.append(-w[inter])
            for k in range(self.n):
                sel = qk == g.BOUNDARY_BASE + 1 + k
                if sel.any():
                    mcols[sel, k] += w[sel]
        rows.append(np.arange(self.n_int))
        cols.append(np.arange(self.n_int))
        vals.append(diag)
        self.Ah2 = sparse.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_int, self.n_int),
        )
        self.M = mcols  # (n_int, N): weights into each inner component
        self.Dk = mcols.sum(axis=0)  # total edge weight per inner component
        self.h2 = h2
        self._lu_K = _factor(self._bordered(), "condensed system")

    def _bordered(self):
        if not self.n:
            return self.Ah2
        return sparse.bmat(
            [
                [self.Ah2, -sparse.csc_matrix(self.M)],
                [-sparse.csc_matrix(self.M.T), sparse.diags(self.Dk)],
            ],
            format="csc",
        )

    @cached_property
    def K(self):
        """The bordered matrix [[Ah2, -M], [-M^T, D]], assembled again on
        first use: only Newton steps and MINRES runs apply it, and most
        domains need neither after their factorization."""
        return self._bordered()

    @classmethod
    def of(cls, domain: g.GridDomain) -> "CondensedSystem":
        return g.cached(domain, "system", lambda: cls(domain))

    # -- raw solves ------------------------------------------------------------

    def solve_shifted(self, d, rhs):
        """z with (K - diag(d, 0)) z = rhs, for an interior diagonal d (a
        scalar broadcasts) that keeps the matrix nonsingular.

        d = 0 is one solve with the cached factorization of K.  Otherwise
        MINRES (Paige & Saunders 1975) runs on the symmetric, possibly
        indefinite, shifted matrix, preconditioned by that factorization:
        for a scalar d = s the preconditioned spectrum is 1 - s / (h^2 mu)
        over the condensed eigenvalues mu, and 1 on the border, so away from
        resonance a few iterations reach working precision.  A run stopped
        by `_MINRES_CAP` returns its last iterate for the caller to judge.
        """
        d = np.broadcast_to(np.asarray(d, dtype=float), (self.n_int,))
        if not d.any():
            return self._lu_K.solve(rhs)
        n = self.K.shape[0]
        shift = sparse.diags(np.concatenate([d, np.zeros(self.n)]), format="csc")
        precond = LinearOperator((n, n), matvec=self._lu_K.solve, dtype=float)
        # an overflowing d makes z non-finite, which fails the caller's
        # certificate; minres need not warn first
        with np.errstate(over="ignore", invalid="ignore"):
            z, _ = minres(self.K - shift, rhs, M=precond, rtol=0.0, maxiter=_MINRES_CAP)
        return z

    def solve_stream(self, omega_int, a):
        """(u_int, theta) with -lap u = omega and flux_k(u) = -a_k."""
        rhs = np.concatenate([self.h2 * omega_int, -np.asarray(a, dtype=float)])
        z = self._lu_K.solve(rhs)
        if self.n:
            return z[: self.n_int], z[self.n_int :]
        return z, np.zeros(0)

    def embed(self, u_int, theta=None):
        """Full node vector: interior values, theta on inner components, 0 outside."""
        out = np.zeros(self.n_nodes)
        out[self.int_ids] = u_int
        if theta is not None:
            for ids, t in zip(self.border_ids, theta):
                out[ids] = t
        return out

    def theta_of(self, u_int):
        """Boundary constants minimizing the Dirichlet energy for given interior."""
        if self.n == 0:
            return np.zeros(0)
        return (self.M.T @ u_int) / self.Dk


def certificate(psi: g.ScalarField, omega: g.ScalarField, av):
    """A posteriori check of a stream solve: the largest interior residual
    |-lap psi - omega| and, per inner component k, |flux_k(psi) + a_k|."""
    dom = psi.domain
    lap = g.neg_laplacian(psi)
    ii = dom.interior_ids
    residual = float(np.abs(lap.values[ii] - omega.values[ii]).max())
    flux_errors = np.array(
        [abs(g.boundary_flux(psi, k + 1) + av[k]) for k in range(len(av))]
    )
    return residual, flux_errors


@dataclass
class StreamSolution:
    """Stream function reconstructed from vorticity and circulations.  The
    certificate (`residual`, `flux_errors`) is computed when first read."""

    psi: g.ScalarField
    omega: g.ScalarField
    a: np.ndarray

    @cached_property
    def _certificate(self):
        return certificate(self.psi, self.omega, self.a)

    @property
    def residual(self) -> float:
        return self._certificate[0]

    @property
    def flux_errors(self) -> np.ndarray:
        return self._certificate[1]


@dataclass
class VelocityField:
    """Node-valued velocity (vx, vy) = (d_y psi, -d_x psi)."""

    domain: g.GridDomain
    vx: np.ndarray
    vy: np.ndarray

    def speed(self) -> g.ScalarField:
        return g.ScalarField(self.domain, np.hypot(self.vx, self.vy))


def p_apply(basis, phi: g.ScalarField) -> g.ScalarField:
    """Apply the circulation-free inverse Laplacian.

    The result lies in the constrained space: zero on the outer boundary,
    constant on each inner component, zero flux through each inner component.
    Symmetric and positive definite as an operator on interior values.
    """
    sys = basis.system
    u, theta = sys.solve_stream(phi.values[sys.int_ids], np.zeros(sys.n))
    return g.ScalarField(basis.domain, sys.embed(u, theta))


def h_field(basis, a) -> g.ScalarField:
    """Harmonic stream field carrying circulations a: -sum q_ij a_i zeta_j."""
    dom = basis.domain
    av = g.as_circulation(a, dom)
    coef = -(basis.q @ av)
    vals = np.zeros(dom.n_nodes)
    for j, zeta in enumerate(basis.zetas):
        vals += coef[j] * zeta.values
    return g.ScalarField(dom, vals)


def stream_solve(basis, omega: g.ScalarField, a) -> StreamSolution:
    """Solve for the stream function of (omega, a); the residual and flux
    certificate is left to the first reader of the solution."""
    dom = basis.domain
    av = g.as_circulation(a, dom)
    sys = basis.system
    u, theta = sys.solve_stream(omega.values[dom.interior_ids], av)
    return StreamSolution(g.ScalarField(dom, sys.embed(u, theta)), omega, av)


def _parabola_slope(x1, x2, x3):
    """Weights of the samples at x1, x2, x3 in the derivative at 0 of the
    parabola through them."""
    c1 = (-x2 - x3) / ((x1 - x2) * (x1 - x3))
    c2 = (-x1 - x3) / ((x2 - x1) * (x2 - x3))
    c3 = (-x1 - x2) / ((x3 - x1) * (x3 - x2))
    return c1, c2, c3


def _derivative_matrix(dom: g.GridDomain, d_plus, d_minus):
    """Sparse first derivative along the grid line d_minus -> d_plus.

    Every node whose neighbors on both sides exist samples three points: the
    neighbors sit at the distances -a and +b, which are h for fluid neighbors
    and the sub-cell leg (h / edge weight) for boundary neighbors, and the
    row is the derivative of the parabola through the three samples (central
    differences for unit legs).  A node nearly on the wall (leg < 0.25 on one
    side) carries no gradient information on that side, so its own value is
    bypassed: the parabola goes through the wall sample and the next two
    samples away from it, or, where there are no two such samples (or both
    legs are short), the row is the secant through the two neighbors.  Nodes
    with a single neighbor take the one-sided difference, with the span held
    at h/2 or more.  Rows whose coefficients are not finite are zeroed.
    """
    n = dom.n_nodes
    h = dom.h
    qp = dom.nbr[:, d_plus]
    qm = dom.nbr[:, d_minus]
    has_p = qp >= 0
    has_m = qm >= 0
    qp_s = np.clip(qp, 0, None)
    qm_s = np.clip(qm, 0, None)
    # sample distances in units of h: 1 for interior neighbors, the sub-cell
    # leg for boundary neighbors (leg = 1 / edge weight)
    lp = np.where(has_p, 1.0 / dom.wgt[:, d_plus], 1.0)
    lm = np.where(has_m, 1.0 / dom.wgt[:, d_minus], 1.0)
    a = lm * h
    b = lp * h
    qpp = dom.nbr[qp_s, d_plus]
    qmm = dom.nbr[qm_s, d_minus]
    use_pp = dom.is_interior[qp_s] & (qpp >= 0)
    use_mm = dom.is_interior[qm_s] & (qmm >= 0)
    lpp = np.where(use_pp, 1.0 / dom.wgt[qp_s, d_plus], 1.0)
    lmm = np.where(use_mm, 1.0 / dom.wgt[qm_s, d_minus], 1.0)

    both = has_p & has_m
    tiny_m = lm < 0.25
    tiny_p = lp < 0.25
    use_secant = both & ((tiny_m & ~use_pp) | (tiny_p & ~use_mm) | (tiny_m & tiny_p))
    use_far_m = both & tiny_p & use_mm & ~use_secant
    use_far_p = both & tiny_m & use_pp & ~use_secant & ~use_far_m

    def three(r):
        ar, br = a[r], b[r]
        den = ar * br * (ar + br)
        return (qp[r], r, qm[r]), (ar * ar / den, (br * br - ar * ar) / den, -br * br / den)

    def far_p(r):
        return (qm[r], qp[r], qpp[r]), _parabola_slope(-a[r], b[r], b[r] + lpp[r] * h)

    def far_m(r):
        return (qp[r], qm[r], qmm[r]), _parabola_slope(b[r], -a[r], -a[r] - lmm[r] * h)

    def secant(r):
        c = 1.0 / (a[r] + b[r])
        return (qp[r], qm[r]), (c, -c)

    def only_p(r):
        c = 1.0 / (np.maximum(lp[r], 0.5) * h)
        return (qp[r], r), (c, -c)

    def only_m(r):
        c = 1.0 / (np.maximum(lm[r], 0.5) * h)
        return (r, qm[r]), (c, -c)

    rows, cols, vals = [], [], []
    for sel, stencil in (
        (both & ~use_secant & ~use_far_m & ~use_far_p, three),
        (use_far_p, far_p),
        (use_far_m, far_m),
        (use_secant, secant),
        (has_p & ~has_m, only_p),
        (has_m & ~has_p, only_m),
    ):
        r = np.flatnonzero(sel)
        with np.errstate(divide="ignore", invalid="ignore"):
            c, v = stencil(r)
        v = np.array(v)
        v[:, ~np.isfinite(v).all(axis=0)] = 0.0
        rows.append(np.tile(r, len(c)))
        cols.append(np.concatenate(c))
        vals.append(v.ravel())
    mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    mat.eliminate_zeros()
    return mat


def velocity(psi: g.ScalarField) -> VelocityField:
    """Perpendicular gradient of psi, by the derivative stencils of
    `_derivative_matrix` (one sparse product per component), which the
    domain keeps as d/dx and d/dy."""
    dom = psi.domain
    dx, dy = g.cached(
        dom, "gradient", lambda: (_derivative_matrix(dom, 0, 1), _derivative_matrix(dom, 2, 3))
    )
    return VelocityField(dom, dy @ psi.values, -(dx @ psi.values))


def divergence(v: VelocityField) -> g.ScalarField:
    """Discrete divergence by plain central differences (diagnostic).

    Exactly zero wherever the velocity itself came from commuting central
    stencils; the thin ring of wall-adjacent nodes keeps an O(1) defect from
    the one-sided reconstructions there, so the field-wide mean is O(h).
    """
    dom = v.domain
    h = dom.h
    out = np.zeros(dom.n_nodes)
    ii = dom.interior_ids
    e, w, n, s = (dom.nbr[ii, d] for d in range(4))
    out[ii] = (v.vx[e] - v.vx[w]) / (2 * h) + (v.vy[n] - v.vy[s]) / (2 * h)
    return g.ScalarField(dom, out)


def kinetic_energy(v: VelocityField) -> float:
    """(1/2) integral of |v|^2 over the interior quadrature."""
    dom = v.domain
    sq = g.ScalarField(dom, v.vx * v.vx + v.vy * v.vy)
    return 0.5 * g.integrate(sq)


def _hole_region(dom: g.GridDomain, k):
    """Boolean grid of the hole of inner component k: the exterior pockets
    adjacent to its boundary nodes, plus those nodes."""
    nbrs, regions, unbounded = g.exterior_regions(dom.kinds == g.EXTERIOR)
    region = dom.kinds == g.BOUNDARY_BASE + k
    pockets = set(np.unique(nbrs[:, region]).tolist()) - {0, unbounded}
    return region | np.isin(regions, list(pockets))


@dataclass(frozen=True)
class _Contour:
    """Circulation contour around one inner component, as node ids: the
    corners of every enclosed cell (SW, SE, NW, NE; -1 for exterior nodes),
    and the fluid nodes enclosed (`inside`) or on the contour (`fringe`)."""

    corners: tuple
    inside: np.ndarray
    fringe: np.ndarray


def _contour(dom: g.GridDomain, k) -> _Contour:
    """The contour of `circulation` around inner component k.

    It is the staircase boundary of the hole region dilated into the fluid
    far enough that every contour node has a regular central stencil.
    """
    nodes = ndimage.binary_dilation(_hole_region(dom, k), structure=_FOUR_STRUCT)
    cells = nodes[:-1, :-1] | nodes[:-1, 1:] | nodes[1:, :-1] | nodes[1:, 1:]
    if not cells.any():
        raise GridError("contour construction failed for component %d" % k)
    # contour corners (outside the dilated region) must be fluid nodes
    corners = np.zeros((dom.ny, dom.nx), dtype=bool)
    for oy in (0, 1):
        for ox in (0, 1):
            corners[oy : dom.ny - 1 + oy, ox : dom.nx - 1 + ox] |= cells
    if (corners & ~nodes & (dom.kinds != g.INTERIOR)).any():
        raise GridError("contour construction failed for component %d" % k)
    # nodes whose every incident cell is enclosed, and the contour nodes
    padded = np.zeros((dom.ny + 1, dom.nx + 1), dtype=bool)
    padded[1:-1, 1:-1] = cells
    inside = padded[:-1, :-1] & padded[:-1, 1:] & padded[1:, :-1] & padded[1:, 1:]
    fringe = corners & ~inside
    fluid = dom.kinds == g.INTERIOR
    cy, cx = np.nonzero(cells)
    idx = dom.node_index
    return _Contour(
        corners=(idx[cy, cx], idx[cy, cx + 1], idx[cy + 1, cx], idx[cy + 1, cx + 1]),
        inside=idx[inside & fluid],
        fringe=idx[fringe & fluid],
    )


def circulation(v: VelocityField, k: int, omega: g.ScalarField | None = None) -> float:
    """Line sum of v . dr around inner component k.

    The contour (see `_contour`) is the staircase boundary of the hole region
    dilated into the fluid.  The cell-by-cell curl sum telescopes, so the
    result is exactly the trapezoid line integral along that contour,
    oriented so a flow carrying circulation gamma returns gamma (the
    orientation matching the flux identity flux_k(psi) = -a_k).

    If `omega` is given, the vorticity enclosed between the contour and the
    wall is subtracted, making the value comparable to the wall circulation
    itself rather than to the contour's.
    """
    dom = v.domain
    if not 1 <= k < dom.n_components:
        raise GridError("circulation needs an inner component index, got %r" % (k,))
    c = g.cached(dom, ("contour", k), lambda: _contour(dom, k))
    sw, se, nw, ne = c.corners
    # node values with a trailing 0 that the exterior id -1 picks up
    VX = np.append(v.vx, 0.0)
    VY = np.append(v.vy, 0.0)
    h = dom.h
    # counterclockwise circulation around each enclosed cell, trapezoid per edge
    gam = 0.5 * h * (
        (VX[sw] + VX[se])  # south edge, +x direction
        + (VY[se] + VY[ne])  # east edge, +y
        - (VX[nw] + VX[ne])  # north edge, -x
        - (VY[sw] + VY[nw])  # west edge, -y
    )
    total = -float(gam.sum())
    if omega is not None:
        # vorticity mass between the wall and the contour: full weight for
        # nodes whose every incident cell is enclosed, half for contour nodes
        w_in = omega.values[c.inside].sum()
        w_fr = omega.values[c.fringe].sum()
        total += float(w_in + 0.5 * w_fr) * h * h
    return total
