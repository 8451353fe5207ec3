import math
from dataclasses import replace

import numpy as np
import pytest

from arnoldstab import dynamics as dyn, field, functionals as fn, grid
from arnoldstab.errors import GridError

@pytest.fixture(scope="module")
def short_cfg():
    return dyn.SimConfig(t_final=1e9, monitor_every=10)


def test_config_validation():
    with pytest.raises(GridError):
        dyn.SimConfig(t_final=1.0, cfl=1.2)
    with pytest.raises(GridError):
        dyn.SimConfig(t_final=-1.0)


@pytest.mark.parametrize(
    "settings",
    [dict(t_final=math.nan), dict(t_final=math.inf), dict(monitor_every=0), dict(monitor_every=-3)],
    ids=["t_final-nan", "t_final-inf", "monitor_every-0", "monitor_every-negative"],
)
def test_config_rejects_unbounded_horizon_and_cadence(settings):
    """A horizon that is NaN or infinite, or a monitor cadence below 1, is
    refused when the configuration is built, not met by `run`."""
    with pytest.raises(GridError):
        dyn.SimConfig(**{"t_final": 1.0, **settings})


def test_zero_vorticity_stays_zero(basis32, short_cfg):
    from arnoldstab import steady

    st0 = steady.steady_linear(basis32, 0.0, [0.8])
    state = dyn.init_state(basis32, st0.omega_bar.copy(), st0.a)
    for _ in range(20):
        state = dyn.step(state, short_cfg)
    assert np.abs(state.omega.values).max() == 0.0


def test_steady_state_near_fixed_point(basis32, stable_state32, short_cfg):
    """The steady state (omega_bar = kappa * psi_bar on every non-exterior
    node) is a discrete fixed point of the transport step: feet sit on the
    level sets of the interpolated stream function, so 100 steps drift only
    by accumulated round-off, wall ring included."""
    st = stable_state32
    state = dyn.init_state(basis32, st.omega_bar.copy(), st.a)
    for _ in range(100):
        state = dyn.step(state, short_cfg)
    drift = grid.lp_norm(state.omega - st.omega_bar) / grid.lp_norm(st.omega_bar)
    assert drift <= 1e-9


def test_steady_state_fixed_point_off_centre_hole():
    """A single disc-shaped hole off the centre of a rectangle, with the
    outer wall inside the frame: no symmetry of the domain helps, and one
    step still leaves the steady state unchanged up to round-off."""
    from arnoldstab import harmonic, spectra, steady

    ny, nx = 40, 56
    yy, xx = np.mgrid[0:ny, 0:nx]
    mask = np.zeros((ny, nx), dtype=bool)
    mask[2:-2, 2:-2] = True
    mask &= (xx - 19.3) ** 2 + (yy - 23.6) ** 2 > 6.5**2
    dom = grid.label_components(mask, h=1.0 / 16)
    assert dom.n_components == 2
    basis = harmonic.solve_basis(dom)
    st = steady.steady_linear(basis, 0.4 * spectra.lambda_plain(basis).value, [0.5])
    state = dyn.init_state(basis, st.omega_bar.copy(), st.a)
    state = dyn.step(state, dyn.SimConfig(t_final=1e9))
    err = grid.lp_norm(state.omega - st.omega_bar) / grid.lp_norm(st.omega_bar)
    assert err <= 1e-9


def test_step_skips_stream_certificate(basis32, stable_state32, monkeypatch):
    """The transport step never reads the stream solve's certificate, so it
    never evaluates a Laplacian."""
    calls = []
    lap = grid.neg_laplacian

    def counting(f):
        calls.append(1)
        return lap(f)

    monkeypatch.setattr(grid, "neg_laplacian", counting)
    state = dyn.init_state(basis32, stable_state32.omega_bar.copy(), stable_state32.a)
    for _ in range(3):
        state = dyn.step(state, dyn.SimConfig(t_final=1e9))
    assert calls == []


def test_range_preservation_exact(basis32, stable_state32, short_cfg, rng):
    st = stable_state32
    pert = st.omega_bar.values + np.where(
        st.omega_bar.domain.is_interior,
        0.02 * rng.standard_normal(st.omega_bar.domain.n_nodes),
        0.0,
    )
    f0 = grid.ScalarField(st.omega_bar.domain, pert)
    lo, hi = f0.values.min(), f0.values.max()
    state = dyn.init_state(basis32, f0, st.a)
    for _ in range(25):
        state = dyn.step(state, short_cfg)
        assert state.omega.values.min() >= lo - 1e-14
        assert state.omega.values.max() <= hi + 1e-14


def test_step_respects_cfl(basis32, stable_state32):
    cfg = dyn.SimConfig(t_final=1e9, cfl=0.4)
    state = dyn.init_state(basis32, stable_state32.omega_bar.copy(), stable_state32.a)
    new = dyn.step(state, cfg)
    vmax = max(np.abs(state.vel.vx).max(), np.abs(state.vel.vy).max())
    assert new.t <= 0.4 * basis32.domain.h / vmax + 1e-12


def _contract_by_halving(dom, dx, dy):
    """Reference for `dyn._contract`: halve each displacement whose foot lies
    outside every cell touching the interior, up to 30 times."""
    h = dom.h
    x0 = dom.origin[0] - dyn._PAD * h
    y0 = dom.origin[1] - dyn._PAD * h
    cell_ok = dyn._step_grids(dom).cell_ok
    ncy, ncx = cell_ok.shape
    todo = np.arange(dom.n_nodes)
    for _ in range(30):
        gx = (dom.node_x[todo] - dx[todo] - x0) / h
        gy = (dom.node_y[todo] - dy[todo] - y0) / h
        ci = np.clip(np.floor(gx).astype(np.int64), 0, ncx - 1)
        cj = np.clip(np.floor(gy).astype(np.int64), 0, ncy - 1)
        bad = ~cell_ok[cj, ci]
        bad |= (gx < 0) | (gx > ncx) | (gy < 0) | (gy > ncy)
        todo = todo[bad]
        if todo.size == 0:
            break
        dx[todo] *= 0.5
        dy[todo] *= 0.5


def test_contraction_matches_halving_loop(annulus16, rng):
    dom = annulus16
    dx, dy = rng.standard_normal((2, dom.n_nodes)) * 3.0 * dom.h
    want = dx.copy(), dy.copy()
    _contract_by_halving(dom, *want)
    got = dx.copy(), dy.copy()
    dyn._contract(dom, *got)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    k = np.round(np.log2(np.abs(dx / got[0]))).astype(int)
    assert (k == 0).any() and ((k > 0) & (k < 30)).any() and (k == 30).any()


# The transport kernel as first written, the reference for the stencil
# kernel: one index array per stencil node, the Catmull-Rom weights in their
# textbook form and nested sums.
def _ref_cell(shape, gx, gy):
    ny, nx = shape
    i0 = np.clip(np.floor(gx).astype(np.int64), 1, nx - 3)
    j0 = np.clip(np.floor(gy).astype(np.int64), 1, ny - 3)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fy = np.clip(gy - j0, 0.0, 1.0)
    return (j0 - 1) * nx + (i0 - 1), fx, fy


def _ref_catmull_weights(t):
    t2 = t * t
    t3 = t2 * t
    return (
        -0.5 * t + t2 - 0.5 * t3,
        1.0 - 2.5 * t2 + 1.5 * t3,
        0.5 * t + 2.0 * t2 - 1.5 * t3,
        -0.5 * t2 + 0.5 * t3,
    )


def _ref_catmull_slopes(t):
    t2 = t * t
    return (
        -0.5 + 2.0 * t - 1.5 * t2,
        -5.0 * t + 4.5 * t2,
        0.5 + 4.0 * t - 4.5 * t2,
        -t + 1.5 * t2,
    )


def _ref_dot4(w, f):
    return w[0] * f[0] + w[1] * f[1] + w[2] * f[2] + w[3] * f[3]


def _ref_stencil_rows(Fgrid, gx, gy):
    nx = Fgrid.shape[1]
    base, fx, fy = _ref_cell(Fgrid.shape, gx, gy)
    flat = Fgrid.ravel()
    rows = [[flat[base + (b * nx + a)] for a in range(4)] for b in range(4)]
    return rows, fx, fy


def _ref_bicubic(Fgrid, gx, gy):
    rows, fx, fy = _ref_stencil_rows(Fgrid, gx, gy)
    wx = _ref_catmull_weights(fx)
    return _ref_dot4(_ref_catmull_weights(fy), [_ref_dot4(wx, r) for r in rows])


def _ref_bicubic_grad(Fgrid, gx, gy):
    rows, fx, fy = _ref_stencil_rows(Fgrid, gx, gy)
    wx = _ref_catmull_weights(fx)
    sx = _ref_catmull_slopes(fx)
    wy = _ref_catmull_weights(fy)
    along = [_ref_dot4(wx, r) for r in rows]
    slope = [_ref_dot4(sx, r) for r in rows]
    return _ref_dot4(wy, along), _ref_dot4(wy, slope), _ref_dot4(_ref_catmull_slopes(fy), along)


def _ref_project_feet(Pgrid, target, gx, gy, tol):
    """The projection loop as first written: every round gathers its feet
    and builds their stencil afresh."""
    todo = np.arange(gx.size)
    for it in range(dyn._PROJECT_MAX_ITER):
        if it == 1:
            val = _ref_bicubic(Pgrid, gx[todo], gy[todo])
        else:
            val, px, py = _ref_bicubic_grad(Pgrid, gx[todo], gy[todo])
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


def test_stencil_kernel_equals_reference_bit_for_bit(annulus16, rng):
    """Values and gradients on a stencil equal the reference kernel bit for
    bit, also at points the clamp moves: off the frame on every side and on
    the frame's last cell."""
    dom = annulus16
    F = dyn._filled_grid(dom, rng.standard_normal(dom.n_nodes))
    ny, nx = F.shape
    inside = rng.uniform((0.0, 0.0), (nx - 1.0, ny - 1.0), size=(500, 2)).T
    off = rng.uniform((-3.0, -3.0), (nx + 2.0, ny + 2.0), size=(200, 2)).T
    # the last cell of the clamped range starts at node nx - 3 (ny - 3)
    last = np.array(
        [
            [nx - 3.0, nx - 2.5, nx - 2.0, nx - 1.0, 1.0, 0.5, 0.0],
            [ny - 2.0, 0.0, ny - 3.0, 1.0, ny - 2.5, ny - 1.0, 0.25],
        ]
    )
    gx, gy = np.concatenate([inside, off, last], axis=1)
    clamped = (gx < 1) | (gx >= nx - 2) | (gy < 1) | (gy >= ny - 2)
    assert clamped.sum() >= 50 and (~clamped).sum() >= 400
    st = dyn._stencil(F.shape, gx, gy)
    assert np.array_equal(st.base, _ref_cell(F.shape, gx, gy)[0])
    assert np.array_equal(dyn._bicubic(F, st), _ref_bicubic(F, gx, gy))
    st = dyn._stencil(F.shape, gx, gy, slopes=True)
    for got, want in zip(dyn._bicubic_grad(F, st), _ref_bicubic_grad(F, gx, gy)):
        assert np.array_equal(got, want)


def test_projection_returns_omega_on_the_final_feet(basis32, stable_state32, monkeypatch):
    """On one res-32 step the projection moves the feet as the reference
    loop does, and the omega values and stencil bases it returns equal a
    fresh `_bicubic` and `_cell` at the moved feet, including the feet that
    the second round still moved (sampled again on their own stencil)."""
    st = stable_state32
    spec = dyn.PerturbationSpec(mode="bump", amplitude=0.01 * grid.lp_norm(st.omega_bar))
    state = dyn.init_state(basis32, *dyn.perturb(st, spec))
    dom = basis32.domain
    vmax = max(np.abs(state.vel.vx).max(), np.abs(state.vel.vy).max())
    gx, gy = dyn._feet(dom, state.vel, 0.5 * dom.h / vmax)
    psi, w = state.psi.values, state.omega.values
    P, W = dyn._filled_grid(dom, psi), dyn._filled_grid(dom, w)
    tol = 1e-14 * np.abs(psi).max()
    want = gx.copy(), gy.copy()
    _ref_project_feet(P, psi, *want, tol)

    omega_calls = []
    real = dyn._bicubic

    def recording(Fgrid, stencil):
        if Fgrid is W:
            omega_calls.append(stencil.base.size)
        return real(Fgrid, stencil)

    monkeypatch.setattr(dyn, "_bicubic", recording)
    raw, base = dyn._project_feet(P, psi, gx, gy, tol, W)
    assert gx.tobytes() == want[0].tobytes() and gy.tobytes() == want[1].tobytes()
    assert omega_calls[0] == dom.n_nodes and 0 < omega_calls[1] < dom.n_nodes
    assert np.array_equal(raw, real(W, dyn._stencil(W.shape, gx, gy)))
    assert np.array_equal(raw, _ref_bicubic(W, gx, gy))
    assert np.array_equal(base, dyn._cell(W.shape, gx, gy)[0])


@pytest.mark.parametrize("which", ["annulus", "two-hole"])
def test_filled_grid_keeps_each_node_value(which, annulus16, two_hole_basis, rng):
    """The filled grid holds every non-exterior node's own value at the
    node, bit for bit: `_feet` reads the node velocities directly."""
    dom = annulus16 if which == "annulus" else two_hole_basis.domain
    v = rng.standard_normal(dom.n_nodes)
    got = dyn._filled_grid(dom, v)[dom.node_iy + dyn._PAD, dom.node_ix + dyn._PAD]
    assert got.tobytes() == v.tobytes()


def test_perturb_none(stable_state32):
    spec = dyn.PerturbationSpec(mode="none", amplitude=0.0)
    om0, b = dyn.perturb(stable_state32, spec)
    assert np.array_equal(om0.values, stable_state32.omega_bar.values)
    assert np.array_equal(b, stable_state32.a)


def test_perturb_swap_is_rearrangement(stable_state32):
    spec = dyn.PerturbationSpec(mode="swap", amplitude=0.01, seed=4)
    om0, _ = dyn.perturb(stable_state32, spec)
    from arnoldstab import rearrange

    assert rearrange.histogram_distance(om0, stable_state32.omega_bar) == 0.0


def test_perturb_bump_norm(stable_state32):
    amp = 0.037
    spec = dyn.PerturbationSpec(mode="bump", amplitude=amp, seed=4)
    om0, b = dyn.perturb(stable_state32, spec)
    assert abs(grid.lp_norm(om0 - stable_state32.omega_bar) - amp) <= 1e-12
    spec2 = dyn.PerturbationSpec(mode="bump", amplitude=amp, b_offset=0.25)
    _, b2 = dyn.perturb(stable_state32, spec2)
    assert abs(b2[0] - stable_state32.a[0] - 0.25) <= 1e-15


def test_run_monitors(basis16):
    from arnoldstab import spectra, steady

    lam = spectra.lambda_plain(basis16).value
    st = steady.steady_linear(basis16, 0.5 * lam, [1.0])
    lp = fn.legendre(st.g)
    tover = dyn.turnover_time(basis16, st.omega_bar, st.a)
    cfg = dyn.SimConfig(
        t_final=0.5 * tover, monitor_every=5, reference=st.omega_bar, legendre=lp
    )
    spec = dyn.PerturbationSpec(mode="bump", amplitude=0.01 * grid.lp_norm(st.omega_bar), seed=2)
    om0, b = dyn.perturb(st, spec)
    series = dyn.run(basis16, om0, b, cfg)
    assert len(series.rows) >= 3
    t = series.column("t")
    assert np.all(np.diff(t) > 0)
    E = series.column("energy")
    K = series.column("kinetic")
    assert np.abs(E - K).max() / abs(E[0]) <= 0.02
    C = series.column("circ_1")
    assert np.abs(C - C[0]).max() / abs(C[0]) <= 1e-3
    EC = series.column("ec")
    assert np.all(np.isfinite(EC))


def test_stream_energy_casimir_drift(basis16):
    """Conserved-surrogate check: the stream-form functional drifts little
    over a short stable run."""
    from arnoldstab import spectra, steady

    lam = spectra.lambda_plain(basis16).value
    st = steady.steady_linear(basis16, 0.5 * lam, [1.0])
    gext = fn.extend_g(st.g, st.psi_min - 1.0, st.psi_max + 1.0)
    lp = fn.legendre(gext)
    state = dyn.init_state(basis16, st.omega_bar.copy(), st.a)
    cfg = dyn.SimConfig(t_final=1e9)
    h_vals = []
    for i in range(30):
        pert = grid.ScalarField(
            basis16.domain, state.psi.values - st.psi_bar.values
        )
        h_vals.append(fn.stream_energy_casimir(pert, lp, st))
        state = dyn.step(state, cfg)
    h_vals = np.array(h_vals)
    assert np.abs(h_vals - h_vals[0]).max() <= 0.02 * abs(h_vals[0])


def test_turnover_time_positive(basis32, stable_state32):
    t = dyn.turnover_time(basis32, stable_state32.omega_bar, stable_state32.a)
    assert t > 0


def _monotone_in_amplitude(rep, mode):
    """sup_dist nondecreasing in the amplitude over the rows of one mode."""
    rows = sorted((r for r in rep.rows if r.mode == mode), key=lambda r: r.amplitude)
    sups = [r.sup_dist for r in rows]
    return all(a <= b * (1 + 1e-9) for a, b in zip(sups, sups[1:]))


def test_stability_experiment_smoke(basis16):
    """Fast res-16 pin of criterion 10: the amplitude-0 control stays within
    the criterion's 1e-3 noise gate and a 1% swap stays bounded."""
    from arnoldstab import spectra, steady

    lam = spectra.lambda_plain(basis16).value
    st = steady.steady_linear(basis16, 0.5 * lam, [1.0])
    tover = dyn.turnover_time(basis16, st.omega_bar, st.a)
    cfg = dyn.SimConfig(t_final=0.3 * tover, monitor_every=20)
    delta = 0.01 * grid.lp_norm(st.omega_bar)
    rep = dyn.stability_experiment(
        basis16, st, [0.0, delta], cfg, modes=("swap",), b_offsets=(0.0,), seed=9
    )
    assert len(rep.rows) == 2
    control = [r for r in rep.rows if r.amplitude == 0][0]
    sample = [r for r in rep.rows if r.amplitude > 0][0]
    assert np.isnan(control.ratio)
    assert control.noise_rel <= 1e-3
    assert sample.ratio < 3.0
    assert _monotone_in_amplitude(rep, "swap")


def test_stability_experiment_runs_each_control_once(basis16, monkeypatch):
    """The unperturbed run ignores the mode: one integration per b_offset
    serves the zero-amplitude row of every mode, in the usual row order."""
    from arnoldstab import spectra, steady

    lam = spectra.lambda_plain(basis16).value
    st = steady.steady_linear(basis16, 0.5 * lam, [1.0])
    cfg = dyn.SimConfig(t_final=0.05, monitor_every=50)
    delta = 0.01 * grid.lp_norm(st.omega_bar)
    calls = []
    real_run = dyn.run

    def counting_run(*args, **kwargs):
        calls.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(dyn, "run", counting_run)
    rep = dyn.stability_experiment(
        basis16, st, [0.0, delta], cfg, modes=("swap", "bump"), b_offsets=(0.0, 0.01)
    )
    assert len(calls) == 6
    assert [(r.mode, r.b_offset, r.amplitude) for r in rep.rows] == [
        (m, bo, amp) for m in ("swap", "bump") for bo in (0.0, 0.01) for amp in (0.0, delta)
    ]
    for boff in (0.0, 0.01):
        control = real_run(
            basis16, st.omega_bar.copy(), st.a + boff, replace(cfg, reference=st.omega_bar)
        )
        rows = [r for r in rep.rows if r.amplitude == 0 and r.b_offset == boff]
        assert [r.sup_dist for r in rows] == [control.sup_dist] * 2


def test_experiment_csv(tmp_path, basis16):
    from arnoldstab import spectra, steady

    lam = spectra.lambda_plain(basis16).value
    st = steady.steady_linear(basis16, 0.5 * lam, [1.0])
    cfg = dyn.SimConfig(t_final=0.2, monitor_every=50)
    rep = dyn.stability_experiment(basis16, st, [0.0], cfg, seed=1)
    path = tmp_path / "exp.csv"
    rep.write_csv(path)
    assert path.read_text().startswith("mode,amplitude")
