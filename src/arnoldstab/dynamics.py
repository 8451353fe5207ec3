"""Vorticity-transport simulation with the circulation-corrected closure.

Each step advects the vorticity along the velocity reconstructed from the
current vorticity and the (held-fixed) circulation vector, then re-solves the
stream function.  The scheme is semi-Lagrangian: backtrace by a
midpoint step, project each departure point onto the stream-function level
set of its node, interpolate with a clamped bicubic kernel (range-preserving),
re-solve.  Circulations are a closure parameter re-imposed by every solve, so
the corresponding conservation law is enforced rather than discretized.

Diagnostics monitor the three conserved quantities: kinetic energy (two
independent evaluations), contour circulations, and the vorticity value
histogram.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field as dfield, fields, replace

import numpy as np
from scipy import ndimage

from . import grid as g
from .errors import DynamicsError, GridError
from .field import (
    VelocityField,
    circulation,
    kinetic_energy,
    stream_solve,
    velocity,
)
from .functionals import LegendrePair, casimir, energy
from .rearrange import histogram_distance, swaps_within_radius


@dataclass
class PerturbationSpec:
    """How to perturb a steady state: exact rearrangement swaps or a smooth
    compact bump, with an optional shift of the circulation vector."""

    mode: str = "swap"  # 'swap' | 'bump' | 'none'
    amplitude: float = 0.0
    seed: int = 0
    b_offset: float = 0.0

    def __post_init__(self):
        if self.mode not in ("swap", "bump", "none"):
            raise GridError("unknown perturbation mode %r" % self.mode)
        if not math.isfinite(self.amplitude):
            raise GridError("perturbation amplitude must be finite")
        if self.mode == "swap" and self.amplitude < 0.0:
            raise GridError("swap radius must be nonnegative")


# steps `run` may take before it gives up on reaching t_final
_MAX_STEPS = 2_000_000


@dataclass
class SimConfig:
    """Time-integration configuration.  Distances to the reference are
    discrete L2 norms."""

    t_final: float
    dt: float | None = None
    cfl: float = 0.5
    monitor_every: int = 8
    reference: g.ScalarField | None = None
    legendre: LegendrePair | None = None

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0:
            raise GridError("dt must be positive")
        if not 0.0 < self.cfl <= 0.9:
            raise GridError("CFL target must lie in (0, 0.9]")
        if self.t_final <= 0:
            raise GridError("t_final must be positive")


@dataclass
class SimState:
    """Instantaneous simulation state; psi/velocity are consistent with
    (omega, b) to solver tolerance."""

    basis: object
    t: float
    omega: g.ScalarField
    b: np.ndarray
    psi: g.ScalarField
    vel: VelocityField
    step_index: int = 0


@dataclass
class DiagnosticsSeries:
    """Time-ordered monitor rows plus the per-step distance supremum."""

    columns: tuple
    rows: list = dfield(default_factory=list)
    sup_dist: float = 0.0
    final_omega: g.ScalarField | None = None
    init_dist: float = 0.0

    def write_csv(self, path):
        g.write_csv(path, self.columns, self.rows)

    def column(self, name):
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])


# ghost nodes added on every side of the frame, so that the 4x4 stencils of
# nodes on (or feet near) the frame edge are complete
_PAD = 2


@dataclass(frozen=True)
class _StepGrids:
    """Index grids of the transport step that depend only on the domain, on
    the frame padded by _PAD ghosts per side."""

    fill_src: np.ndarray  # nearest non-exterior node id (the node's own id)
    node_ids: np.ndarray  # node id, -1 on exterior and padding ghosts
    cell_ok: np.ndarray  # cells (by top-left node) with an interior corner


def _step_grids(dom) -> _StepGrids:
    """The domain's `_StepGrids`, built on first use and cached on it."""
    if dom._step_grids is None:
        ext = np.pad(dom.kinds == g.EXTERIOR, _PAD, constant_values=True)
        _, (iy, ix) = ndimage.distance_transform_edt(ext, return_indices=True)
        inter = np.pad(dom.kinds == g.INTERIOR, _PAD)
        dom._step_grids = _StepGrids(
            fill_src=dom.node_index[iy - _PAD, ix - _PAD],
            node_ids=np.pad(dom.node_index, _PAD, constant_values=-1),
            cell_ok=inter[:-1, :-1] | inter[:-1, 1:] | inter[1:, :-1] | inter[1:, 1:],
        )
    return dom._step_grids


def _filled_grid(dom, values):
    """Padded grid (see _PAD) holding every non-exterior node's own value,
    with each exterior or padding ghost set to the value of its nearest
    non-exterior node.

    The wall ring keeps its own values (for psi, the wall constants), and the
    fill is one fixed linear map applied alike to psi, omega and the velocity.
    So a field that is an affine function of psi on the nodes stays the same
    affine function of psi on every stencil node, which is what makes the
    steady state a fixed point of transport.  The fill is also stable under
    repeated resampling: unlike linear extrapolation across the wall, it
    copies values and never amplifies the ring's round-off.
    """
    return values[_step_grids(dom).fill_src]


def _catmull_weights(t):
    t2 = t * t
    t3 = t2 * t
    return (
        -0.5 * t + t2 - 0.5 * t3,
        1.0 - 2.5 * t2 + 1.5 * t3,
        0.5 * t + 2.0 * t2 - 1.5 * t3,
        -0.5 * t2 + 0.5 * t3,
    )


def _catmull_slopes(t):
    """Derivatives of the Catmull-Rom weights with respect to t."""
    t2 = t * t
    return (
        -0.5 + 2.0 * t - 1.5 * t2,
        -5.0 * t + 4.5 * t2,
        0.5 + 4.0 * t - 4.5 * t2,
        -t + 1.5 * t2,
    )


def _dot4(w, f):
    return w[0] * f[0] + w[1] * f[1] + w[2] * f[2] + w[3] * f[3]


def _cell(shape, gx, gy):
    """Flat grid index of the top-left node of each point's 4x4 stencil and
    the point's offsets within its cell; cells are clamped one node inside
    the frame."""
    ny, nx = shape
    i0 = np.clip(np.floor(gx).astype(np.int64), 1, nx - 3)
    j0 = np.clip(np.floor(gy).astype(np.int64), 1, ny - 3)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fy = np.clip(gy - j0, 0.0, 1.0)
    return (j0 - 1) * nx + (i0 - 1), fx, fy


def _stencil_rows(Fgrid, gx, gy):
    """The 4x4 stencil values of each point, as four rows of four columns,
    with the offsets within the cell."""
    nx = Fgrid.shape[1]
    base, fx, fy = _cell(Fgrid.shape, gx, gy)
    flat = Fgrid.ravel()
    rows = [[flat[base + (b * nx + a)] for a in range(4)] for b in range(4)]
    return rows, fx, fy


def _bicubic(Fgrid, gx, gy):
    """Plain Catmull-Rom interpolation on the filled grid."""
    rows, fx, fy = _stencil_rows(Fgrid, gx, gy)
    wx = _catmull_weights(fx)
    return _dot4(_catmull_weights(fy), [_dot4(wx, r) for r in rows])


def _bicubic_grad(Fgrid, gx, gy):
    """Value of the `_bicubic` interpolant and its gradient in grid units."""
    rows, fx, fy = _stencil_rows(Fgrid, gx, gy)
    wx = _catmull_weights(fx)
    sx = _catmull_slopes(fx)
    wy = _catmull_weights(fy)
    along = [_dot4(wx, r) for r in rows]
    slope = [_dot4(sx, r) for r in rows]
    return _dot4(wy, along), _dot4(wy, slope), _dot4(_catmull_slopes(fy), along)


def _window_reduce(F, op):
    """op-reduction of F over the 4x4 window whose top-left node is each
    grid node (nodes too close to the far edges are left at 0)."""
    cols = op(op(F[:, :-3], F[:, 1:-2]), op(F[:, 2:-1], F[:, 3:]))
    out = np.zeros_like(F)
    out[:-3, :-3] = op(op(cols[:-3], cols[1:-2]), op(cols[2:-1], cols[3:]))
    return out.ravel()


def _data_range(dom, values, gx, gy):
    """Range of the node values within the 4x4 stencil of each point on the
    padded grid (inf, -inf where the stencil holds no node)."""
    ids = _step_grids(dom).node_ids
    base, _, _ = _cell(ids.shape, gx, gy)
    # node id -1 picks the appended sentinel
    lo = _window_reduce(np.append(values, np.inf)[ids], np.minimum)
    hi = _window_reduce(np.append(values, -np.inf)[ids], np.maximum)
    return lo[base], hi[base]


def init_state(basis, omega0: g.ScalarField, b) -> SimState:
    dom = basis.domain
    bv = g.as_circulation(b, dom)
    sol = stream_solve(basis, omega0, bv)
    return SimState(basis, 0.0, omega0, bv, sol.psi, velocity(sol.psi), 0)


def _feet(dom, VX, VY, dt):
    """Departure points, in the grid coordinates of the padded grids VX, VY
    from `_filled_grid`, for every non-exterior node under a signed time
    step: midpoint backtrace, with displacements contracted toward the node
    until each point lands in a cell touching the interior."""
    h = dom.h
    x0 = dom.origin[0] - _PAD * h
    y0 = dom.origin[1] - _PAD * h
    x = dom.node_x
    y = dom.node_y
    vx0 = VX[dom.node_iy + _PAD, dom.node_ix + _PAD]
    vy0 = VY[dom.node_iy + _PAD, dom.node_ix + _PAD]
    mx = (x - 0.5 * dt * vx0 - x0) / h
    my = (y - 0.5 * dt * vy0 - y0) / h
    # bilinear midpoint velocity; one cell and one set of weights for both
    ny, nx = VX.shape
    i0 = np.clip(np.floor(mx).astype(np.int64), 0, nx - 2)
    j0 = np.clip(np.floor(my).astype(np.int64), 0, ny - 2)
    fx = np.clip(mx - i0, 0.0, 1.0)
    fy = np.clip(my - j0, 0.0, 1.0)
    corners = j0 * nx + i0
    corners = (corners, corners + 1, corners + nx, corners + nx + 1)
    weights = ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)
    dx = dt * _dot4(weights, [VX.ravel()[c] for c in corners])
    dy = dt * _dot4(weights, [VY.ravel()[c] for c in corners])

    _contract(dom, dx, dy)
    return (x - dx - x0) / h, (y - dy - y0) / h


def _contract(dom, dx, dy):
    """Contract in place the displacements whose feet (node_x - dx,
    node_y - dy) lie outside every cell touching the interior: each takes the
    first of d * 2^-k, k = 0..29, that lands in such a cell, else d * 2^-30.
    All 30 candidates are tested at once, since a few wall-ring feet never
    settle; powers of two keep the result that of 30 successive halvings."""
    h = dom.h
    x0 = dom.origin[0] - _PAD * h
    y0 = dom.origin[1] - _PAD * h
    cell_ok = _step_grids(dom).cell_ok
    ncy, ncx = cell_ok.shape

    def outside(xs, ys, ex, ey):
        gx = (xs - ex - x0) / h
        gy = (ys - ey - y0) / h
        ci = np.clip(np.floor(gx).astype(np.int64), 0, ncx - 1)
        cj = np.clip(np.floor(gy).astype(np.int64), 0, ncy - 1)
        bad = ~cell_ok[cj, ci]
        bad |= (gx < 0) | (gx > ncx) | (gy < 0) | (gy > ncy)
        return bad

    todo = np.flatnonzero(outside(dom.node_x, dom.node_y, dx, dy))
    if todo.size:
        scale = np.ldexp(1.0, -np.arange(30))[:, None]
        bad = outside(dom.node_x[todo], dom.node_y[todo], dx[todo] * scale, dy[todo] * scale)
        k = np.where(bad.all(axis=0), 30, bad.argmin(axis=0))
        dx[todo] = np.ldexp(dx[todo], -k)
        dy[todo] = np.ldexp(dy[todo], -k)


_PROJECT_MAX_ITER = 20


def _project_feet(Pgrid, target, gx, gy, tol):
    """Move the feet (grid coordinates, in place) onto the level sets
    psi_I = target of their nodes, psi_I being the `_bicubic` interpolant of
    the filled stream grid.  Newton steps along grad psi_I, each capped at a
    quarter cell, are repeated on every foot whose residual still exceeds
    `tol`, for at most _PROJECT_MAX_ITER rounds.  The second round is a chord
    step: it evaluates psi_I alone and reuses the first round's gradient,
    which the short first steps leave nearly unchanged; later rounds take a
    fresh gradient."""
    todo = np.arange(gx.size)
    for it in range(_PROJECT_MAX_ITER):
        if it == 1:
            val = _bicubic(Pgrid, gx[todo], gy[todo])
        else:
            val, px, py = _bicubic_grad(Pgrid, gx[todo], gy[todo])
        r = val - target[todo]
        bad = np.abs(r) > tol
        todo, r, px, py = todo[bad], r[bad], px[bad], py[bad]
        if todo.size == 0:
            return
        g2 = px * px + py * py
        cap = 0.25 * np.sqrt(g2)
        s = np.divide(np.clip(r, -cap, cap), g2, out=np.zeros_like(r), where=g2 > 0)
        gx[todo] -= s * px
        gy[todo] -= s * py


def _advect_semi_lagrangian(state: SimState, dt: float) -> np.ndarray:
    """One semi-Lagrangian transport step for every non-exterior node.

    The backtraced feet are projected onto the level sets of the stream
    function: psi_I(foot) = psi(node), with psi_I the same interpolant, on
    the same ghost fill, that resamples omega.  Where omega = a*psi + c on
    the nodes the resampled value is therefore a*psi(node) + c = omega(node)
    up to round-off, so every steady state with an affine profile (the
    `steady_linear` states) is a discrete fixed point of the step, wall ring
    included.

    The interpolated value at each departure point is limited to the range of
    the real field data in its 4x4 stencil, so the update can never leave the
    current (hence the initial) field range; the boundary ring rides along so
    those anchors stay fresh.
    """
    dom = state.basis.domain
    VX = _filled_grid(dom, state.vel.vx)
    VY = _filled_grid(dom, state.vel.vy)
    fwd = _feet(dom, VX, VY, dt)
    psi = state.psi.values
    tol = 1e-14 * float(np.abs(psi).max(initial=0.0))
    _project_feet(_filled_grid(dom, psi), psi, *fwd, tol)
    w0 = state.omega.values
    raw = _bicubic(_filled_grid(dom, w0), *fwd)
    lo, hi = _data_range(dom, w0, *fwd)
    return np.clip(raw, lo, hi)


def step(state: SimState, cfg: SimConfig, dt_cap: float | None = None) -> SimState:
    """Advance one transport step; dt honors the CFL target and dt_cap."""
    dom = state.basis.domain
    vmax = max(
        float(np.abs(state.vel.vx).max(initial=0.0)),
        float(np.abs(state.vel.vy).max(initial=0.0)),
    )
    dt = cfg.dt if cfg.dt is not None else math.inf
    if vmax > 0:
        dt = min(dt, cfg.cfl * dom.h / vmax)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not math.isfinite(dt) or dt <= 0:
        raise DynamicsError("cannot pick a positive time step (velocity zero and no dt)")

    new_vals = _advect_semi_lagrangian(state, dt)
    if not np.all(np.isfinite(new_vals)):
        raise DynamicsError(
            "NaN in vorticity at t=%g (step %d)" % (state.t + dt, state.step_index + 1)
        )
    omega = g.ScalarField(dom, new_vals)
    sol = stream_solve(state.basis, omega, state.b)
    return SimState(
        state.basis,
        state.t + dt,
        omega,
        state.b,
        sol.psi,
        velocity(sol.psi),
        state.step_index + 1,
    )


def _monitor_row(state: SimState, cfg: SimConfig, omega_init, reference):
    basis = state.basis
    dom = basis.domain
    e = energy(basis, state.omega, state.b)
    kin = kinetic_energy(state.vel)
    if cfg.legendre is not None:
        ec = e - casimir(dom, state.omega, cfg.legendre)
    else:
        ec = float("nan")
    dist = g.lp_norm(state.omega - reference)
    hdist = histogram_distance(state.omega, omega_init)
    circs = [
        circulation(state.vel, k, omega=state.omega)
        for k in range(1, dom.n_components)
    ]
    return (state.t, e, kin, ec, dist, hdist, *circs)


def _fast_dist(dom, w_values, ref_values):
    d = np.abs(w_values[dom.interior_ids] - ref_values[dom.interior_ids])
    return float((np.sum(d**2.0) * dom.h * dom.h) ** 0.5)


def run(basis, omega0: g.ScalarField, b, cfg: SimConfig, on_monitor=None) -> DiagnosticsSeries:
    """Integrate to t_final, recording monitor rows at the configured cadence
    and tracking the per-step supremum of the distance to the reference.

    `on_monitor(state)` is invoked at every recorded row (snapshot hook)."""
    dom = basis.domain
    reference = cfg.reference if cfg.reference is not None else omega0
    state = init_state(basis, omega0, b)
    columns = ("t", "energy", "kinetic", "ec", "dist_ref", "hist_drift") + tuple(
        "circ_%d" % k for k in range(1, dom.n_components)
    )
    series = DiagnosticsSeries(columns=columns)
    series.init_dist = _fast_dist(dom, omega0.values, reference.values)
    series.rows.append(_monitor_row(state, cfg, omega0, reference))
    series.sup_dist = series.init_dist
    if on_monitor is not None:
        on_monitor(state)

    while state.t < cfg.t_final - 1e-12:
        if state.step_index >= _MAX_STEPS:
            raise DynamicsError("step budget exhausted before t_final")
        state = step(state, cfg, dt_cap=cfg.t_final - state.t)
        series.sup_dist = max(
            series.sup_dist,
            _fast_dist(dom, state.omega.values, reference.values),
        )
        if (
            state.step_index % max(1, cfg.monitor_every) == 0
            or state.t >= cfg.t_final - 1e-12
        ):
            series.rows.append(_monitor_row(state, cfg, omega0, reference))
            if on_monitor is not None:
                on_monitor(state)
    series.final_omega = state.omega
    return series


def turnover_time(basis, omega0: g.ScalarField, b) -> float:
    """Domain area divided by the integrated initial speed."""
    dom = basis.domain
    sol = stream_solve(basis, omega0, g.as_circulation(b, dom))
    v = velocity(sol.psi)
    total_speed = g.integrate(v.speed())
    if total_speed <= 0:
        raise DynamicsError("initial flow has zero speed; no turnover scale")
    return dom.area / total_speed


def perturb(state, spec: PerturbationSpec):
    """Perturbed initial data (omega0, b) from a steady state.

    'swap' mode returns an exact rearrangement at distance just under the
    amplitude; 'bump' adds a smooth compactly supported bump of unit discrete
    L2 norm scaled by the amplitude, centred on the fluid node farthest from
    the walls and of radius 0.8 times that distance.  The circulation vector
    is shifted uniformly by b_offset.
    """
    dom = state.psi_bar.domain
    b = state.a + spec.b_offset
    if spec.mode == "none" or spec.amplitude == 0.0:
        return state.omega_bar.copy(), b
    if spec.mode == "swap":
        smp = swaps_within_radius(state.omega_bar, spec.amplitude, spec.seed)
        return smp.w, b

    fluid = dom.kinds != g.EXTERIOR
    dist = ndimage.distance_transform_edt(fluid) * dom.h
    j, i = np.unravel_index(np.argmax(dist), dist.shape)
    radius = 0.8 * float(dist[j, i])
    cx = dom.origin[0] + i * dom.h
    cy = dom.origin[1] + j * dom.h
    rho2 = ((dom.node_x - cx) ** 2 + (dom.node_y - cy) ** 2) / radius**2
    vals = np.zeros(dom.n_nodes)
    inside = rho2 < 1.0
    vals[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
    bump = g.ScalarField(dom, vals)
    nrm = g.lp_norm(bump)
    if nrm == 0:
        raise GridError("bump support contains no interior cell")
    omega0 = g.ScalarField(
        dom, state.omega_bar.values + (spec.amplitude / nrm) * vals
    )
    return omega0, b


@dataclass
class ExperimentRow:
    mode: str
    amplitude: float
    b_offset: float
    seed: int
    init_dist: float
    sup_dist: float
    ratio: float
    noise_rel: float


@dataclass
class ExperimentReport:
    """Amplitude sweep of the nonlinear stability experiment."""

    rows: list
    turnover: float
    t_final: float

    def write_csv(self, path):
        g.write_csv(path, [f.name for f in fields(ExperimentRow)], map(astuple, self.rows))

    def monotone_in_amplitude(self, mode: str) -> bool:
        rows = sorted(
            (r for r in self.rows if r.mode == mode), key=lambda r: r.amplitude
        )
        sups = [r.sup_dist for r in rows]
        return all(a <= b * (1 + 1e-9) for a, b in zip(sups, sups[1:]))


def stability_experiment(
    basis,
    state,
    amplitudes,
    cfg: SimConfig,
    modes=("swap",),
    b_offsets=(0.0,),
    seed: int = 0,
) -> ExperimentReport:
    """Run the perturbation sweep around a steady state.

    For every (mode, b_offset, amplitude) the flow is integrated to
    cfg.t_final and the ratio sup_t ||w(t) - w_bar|| / ||w(0) - w_bar|| is
    reported.  A zero-amplitude row reports sup_t ||w(t) - w_bar|| relative
    to ||w_bar|| instead of a ratio.  With b_offset 0 that is the
    scheme-noise floor; with a nonzero b_offset the shifted circulation makes
    w_bar unsteady, and the row measures the flow's response to that shift.
    The unperturbed run does not depend on the mode, so it is integrated
    once per b_offset and its row repeated for every mode.
    """
    wbar = state.omega_bar
    nbar = g.lp_norm(wbar)
    rows = []
    tover = turnover_time(basis, wbar, state.a)
    local = replace(cfg, reference=wbar)
    controls = {}  # b_offset -> series of the unperturbed run
    for mode in modes:
        for boff in b_offsets:
            for amp in amplitudes:
                spec = PerturbationSpec(
                    mode=mode if amp > 0 else "none",
                    amplitude=float(amp),
                    seed=seed,
                    b_offset=boff,
                )
                if spec.mode == "none" and boff in controls:
                    series = controls[boff]
                else:
                    omega0, b = perturb(state, spec)
                    series = run(basis, omega0, b, local)
                    if spec.mode == "none":
                        controls[boff] = series
                init = series.init_dist
                ratio = series.sup_dist / init if init > 0 else float("nan")
                rows.append(
                    ExperimentRow(
                        mode=mode,
                        amplitude=float(amp),
                        b_offset=float(boff),
                        seed=seed,
                        init_dist=init,
                        sup_dist=series.sup_dist,
                        ratio=ratio,
                        noise_rel=series.sup_dist / nbar if nbar > 0 else float("nan"),
                    )
                )
    return ExperimentReport(rows=rows, turnover=tover, t_final=cfg.t_final)
