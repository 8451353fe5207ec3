"""Stream-function solves in multiply-connected domains.

The central object is the condensed linear system: unknowns are the interior
node values together with one constant per inner boundary component, and the
constant rows impose a prescribed flux through that component.  The block
matrix is exactly the discrete Dirichlet form on this space, hence symmetric
positive definite; it is assembled and factorized once per domain.

Built on it:

* ``green_solve``   -- inverse Laplacian with zero data on every boundary node,
* ``p_apply``       -- the circulation-free inverse (zero flux through every
                       inner component); its inverse is -lap by construction,
* ``h_field``       -- the harmonic field carrying prescribed circulations,
* ``stream_solve``  -- full reconstruction of the stream function from
                       vorticity and circulations,
* ``velocity`` / ``circulation`` -- perpendicular gradient and contour sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.linalg import splu

from . import grid as g
from .errors import GridError, SolverError

_FOUR_STRUCT = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _factor(mat, what):
    """Sparse LU with the minimum-degree ordering of A^T + A, which suits the
    symmetric matrices here: at res 64 it halves the fill of the default
    column ordering, and the triangular solves speed up with it."""
    try:
        return splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError("%s factorization failed: %s" % (what, exc))


class CondensedSystem:
    """Sparse factorized form of the flux-constrained Poisson problem."""

    def __init__(self, domain: g.GridDomain):
        self.domain = domain
        self.n = domain.n_components - 1
        dom = domain
        h2 = dom.h * dom.h

        ii = dom.interior_ids
        self.n_int = len(ii)
        row_of = np.full(dom.n_nodes, -1, dtype=np.int64)
        row_of[ii] = np.arange(self.n_int)
        self.row_of = row_of
        self.int_ids = ii

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

        if self.n:
            K = sparse.bmat(
                [
                    [self.Ah2, -sparse.csc_matrix(self.M)],
                    [-sparse.csc_matrix(self.M.T), sparse.diags(self.Dk)],
                ],
                format="csc",
            )
        else:
            K = self.Ah2
        self.K = K
        self._lu_K = _factor(K, "condensed system")
        self._lu_A = None
        self.cache = {}  # per-domain spectral data, keyed by its producer

    @classmethod
    def of(cls, domain: g.GridDomain) -> "CondensedSystem":
        if domain._system is None:
            domain._system = cls(domain)
        return domain._system

    # -- raw solves ------------------------------------------------------------

    @property
    def lu_A(self):
        if self._lu_A is None:
            self._lu_A = _factor(self.Ah2, "Dirichlet system")
        return self._lu_A

    def shifted_lu(self, d_int):
        """Factorization of K + diag(d_int, 0): the bordered matrix with a
        diagonal shift on the interior rows only.  A zero shift returns the
        cached factorization of K itself."""
        d = np.broadcast_to(np.asarray(d_int, dtype=float), (self.n_int,))
        if not d.any():
            return self._lu_K
        shift = sparse.diags(np.concatenate([d, np.zeros(self.n)]), format="csc")
        return _factor(self.K + shift, "shifted condensed system")

    def solve_green(self, phi_int):
        """u with -lap u = phi and u = 0 on every boundary node."""
        return self.lu_A.solve(self.h2 * phi_int)

    def solve_stream(self, omega_int, a):
        """(u_int, theta) with -lap u = omega and flux_k(u) = -a_k."""
        rhs = np.concatenate([self.h2 * omega_int, -np.asarray(a, dtype=float)])
        z = self._lu_K.solve(rhs)
        if self.n:
            return z[: self.n_int], z[self.n_int :]
        return z, np.zeros(0)

    def embed(self, u_int, theta=None):
        """Full node vector: interior values, theta on inner components, 0 outside."""
        dom = self.domain
        out = np.zeros(dom.n_nodes)
        out[self.int_ids] = u_int
        if theta is not None:
            for k in range(self.n):
                out[dom.boundary_ids(k + 1)] = theta[k]
        return out

    def theta_of(self, u_int):
        """Boundary constants minimizing the Dirichlet energy for given interior."""
        if self.n == 0:
            return np.zeros(0)
        return (self.M.T @ u_int) / self.Dk


@dataclass
class StreamSolution:
    """Stream function reconstructed from vorticity and circulations."""

    psi: g.ScalarField
    omega: g.ScalarField
    a: np.ndarray
    residual: float
    flux_errors: np.ndarray


@dataclass
class VelocityField:
    """Node-valued velocity (vx, vy) = (d_y psi, -d_x psi)."""

    domain: g.GridDomain
    vx: np.ndarray
    vy: np.ndarray

    def speed(self) -> g.ScalarField:
        return g.ScalarField(self.domain, np.hypot(self.vx, self.vy))


def green_solve(domain: g.GridDomain, phi: g.ScalarField) -> g.ScalarField:
    """Inverse Laplacian with zero Dirichlet data on all boundary nodes."""
    sys = CondensedSystem.of(domain)
    u = sys.solve_green(phi.values[domain.interior_ids])
    return g.ScalarField(domain, sys.embed(u))

def p_apply(basis, phi: g.ScalarField) -> g.ScalarField:
    """Apply the circulation-free inverse Laplacian.

    The result lies in the constrained space: zero on the outer boundary,
    constant on each inner component, zero flux through each inner component.
    Symmetric and positive definite as an operator on interior values.
    """
    sys = basis.system
    u, theta = sys.solve_stream(phi.values[sys.domain.interior_ids], np.zeros(sys.n))
    return g.ScalarField(sys.domain, sys.embed(u, theta))


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
    """Solve for the stream function of (omega, a); certifies residual and flux."""
    dom = basis.domain
    av = g.as_circulation(a, dom)
    sys = basis.system
    u, theta = sys.solve_stream(omega.values[dom.interior_ids], av)
    psi = g.ScalarField(dom, sys.embed(u, theta))
    lap = g.neg_laplacian(psi)
    residual = float(
        np.abs(lap.values[dom.interior_ids] - omega.values[dom.interior_ids]).max()
    )
    flux_errors = np.array(
        [abs(g.boundary_flux(psi, k + 1) + av[k]) for k in range(sys.n)]
    )
    return StreamSolution(psi, omega, av, residual, flux_errors)


def velocity(psi: g.ScalarField) -> VelocityField:
    """Perpendicular gradient of psi.

    Interior nodes use a secant through the two neighboring samples; when a
    neighbor is a boundary node its value is the wall constant, which lives at
    the sub-cell crossing recorded in the edge weights, so the span shrinks
    accordingly (for unit weights this reduces to plain central differences).
    Boundary nodes fall back to one-sided differences.
    """
    dom = psi.domain
    v = psi.values
    h = dom.h

    def quad_deriv(x1, f1, x2, f2, x3, f3):
        # derivative at 0 of the parabola through the three samples
        c1 = (-x2 - x3) / ((x1 - x2) * (x1 - x3))
        c2 = (-x1 - x3) / ((x2 - x1) * (x2 - x3))
        c3 = (-x1 - x2) / ((x3 - x1) * (x3 - x2))
        return c1 * f1 + c2 * f2 + c3 * f3

    def deriv(d_plus, d_minus):
        qp = dom.nbr[:, d_plus]
        qm = dom.nbr[:, d_minus]
        has_p = qp >= 0
        has_m = qm >= 0
        qp_s = np.clip(qp, 0, None)
        qm_s = np.clip(qm, 0, None)
        vp = np.where(has_p, v[qp_s], 0.0)
        vm = np.where(has_m, v[qm_s], 0.0)
        # sample distance in units of h: 1 for interior neighbors, the
        # sub-cell leg for boundary neighbors (leg = 1 / edge weight)
        lp = np.where(has_p, 1.0 / dom.wgt[:, d_plus], 1.0)
        lm = np.where(has_m, 1.0 / dom.wgt[:, d_minus], 1.0)
        a = lm * h
        bb = lp * h
        dp = vp - v
        dm = v - vm
        # three-point nonuniform derivative (difference form), exact for
        # parabolas with samples at -a and +b around the node
        with np.errstate(divide="ignore", invalid="ignore"):
            three = (a * a * dp + bb * bb * dm) / (a * bb * (a + bb))
            secant = (vp - vm) / (a + bb)

        # a node nearly on the wall carries no gradient information on the
        # wall side, so its own value must be bypassed: fit the parabola
        # through the wall sample and the next two samples away from it
        qpp = dom.nbr[qp_s, d_plus]
        lpp = 1.0 / dom.wgt[qp_s, d_plus]
        vpp = np.where(qpp >= 0, v[np.clip(qpp, 0, None)], 0.0)
        use_pp = dom.is_interior[qp_s] & (qpp >= 0)
        far_p = quad_deriv(-a, vm, bb, vp, bb + np.where(use_pp, lpp, 1.0) * h, vpp)

        qmm = dom.nbr[qm_s, d_minus]
        lmm = 1.0 / dom.wgt[qm_s, d_minus]
        vmm = np.where(qmm >= 0, v[np.clip(qmm, 0, None)], 0.0)
        use_mm = dom.is_interior[qm_s] & (qmm >= 0)
        far_m = quad_deriv(bb, vp, -a, vm, -a - np.where(use_mm, lmm, 1.0) * h, vmm)

        tiny_m = lm < 0.25
        tiny_p = lp < 0.25
        est = three
        est = np.where(tiny_m & use_pp, far_p, est)
        est = np.where(tiny_p & use_mm, far_m, est)
        est = np.where((tiny_m & ~use_pp) | (tiny_p & ~use_mm) | (tiny_m & tiny_p), secant, est)

        out = np.zeros(dom.n_nodes)
        both = has_p & has_m
        out[both] = est[both]
        only_p = has_p & ~has_m
        out[only_p] = (vp[only_p] - v[only_p]) / (np.maximum(lp[only_p], 0.5) * h)
        only_m = has_m & ~has_p
        out[only_m] = (v[only_m] - vm[only_m]) / (np.maximum(lm[only_m], 0.5) * h)
        return np.where(np.isfinite(out), out, 0.0)

    dpsi_dx = deriv(0, 1)
    dpsi_dy = deriv(2, 3)
    return VelocityField(dom, dpsi_dy, -dpsi_dx)


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


def _hole_regions(dom: g.GridDomain):
    """Per inner component: boolean grid of its hole (exterior pocket +
    boundary nodes), cached on the domain."""
    if dom._holes is None:
        ext = np.pad(dom.kinds == g.EXTERIOR, 1, constant_values=True)
        lbl, _ = ndimage.label(ext, structure=_FOUR_STRUCT)
        unbounded = lbl[0, 0]
        core = lbl[1:-1, 1:-1]
        holes = []
        for k in range(1, dom.n_components):
            bmask = dom.kinds == g.BOUNDARY_BASE + k
            # hole pocket adjacent to this component
            ids = set()
            bys, bxs = np.nonzero(bmask)
            for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                yy = np.clip(bys + dy, 0, dom.ny - 1)
                xx = np.clip(bxs + dx, 0, dom.nx - 1)
                vals = core[yy, xx]
                ids.update(int(i) for i in np.unique(vals) if i > 0 and i != unbounded)
            region = bmask.copy()
            for i in ids:
                region |= core == i
            holes.append(region)
        dom._holes = holes
    return dom._holes


def circulation(v: VelocityField, k: int, omega: g.ScalarField | None = None) -> float:
    """Line sum of v . dr around inner component k.

    The contour is the staircase boundary of the hole region dilated into the
    fluid far enough that every contour node has a regular central stencil.
    The cell-by-cell curl sum telescopes, so the result is exactly the
    trapezoid line integral along that contour, oriented so a flow carrying
    circulation gamma returns gamma (the orientation matching the flux
    identity flux_k(psi) = -a_k).

    If `omega` is given, the vorticity enclosed between the contour and the
    wall is subtracted, making the value comparable to the wall circulation
    itself rather than to the contour's.
    """
    dom = v.domain
    if not 1 <= k < dom.n_components:
        raise GridError("circulation needs an inner component index, got %r" % (k,))
    region = _hole_regions(dom)[k - 1]
    ring1 = ndimage.binary_dilation(region, structure=_FOUR_STRUCT) & ~region
    nodes = region | ring1
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

    VX = dom.to_grid(v.vx)
    VY = dom.to_grid(v.vy)
    h = dom.h
    # counterclockwise circulation around each grid cell, trapezoid per edge
    gam = 0.5 * h * (
        (VX[:-1, :-1] + VX[:-1, 1:])  # south edge, +x direction
        + (VY[:-1, 1:] + VY[1:, 1:])  # east edge, +y
        - (VX[1:, :-1] + VX[1:, 1:])  # north edge, -x
        - (VY[:-1, :-1] + VY[1:, :-1])  # west edge, -y
    )
    total = -float(gam[cells].sum())
    if omega is not None:
        # vorticity mass between the wall and the contour: full weight for
        # nodes whose every incident cell is enclosed, half for contour nodes
        padded = np.zeros((dom.ny + 1, dom.nx + 1), dtype=bool)
        padded[1:-1, 1:-1] = cells
        inside = (
            padded[:-1, :-1] & padded[:-1, 1:] & padded[1:, :-1] & padded[1:, 1:]
        )
        fringe = corners & ~inside
        fluid = dom.kinds == g.INTERIOR
        w_in = omega.values[dom.node_index[inside & fluid]].sum()
        w_fr = omega.values[dom.node_index[fringe & fluid]].sum()
        total += float(w_in + 0.5 * w_fr) * h * h
    return total
