import gc
import math
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import splu, spsolve

from arnoldstab import dynamics, field, functionals as fn, grid, harmonic, oracle
from arnoldstab import rearrange, spectra, steady
from arnoldstab.errors import GridError

from conftest import random_interior_field, tanh_profile


def _green(dom, phi):
    """Inverse Laplacian with zero data on every boundary node, by a direct
    sparse solve of the zero-boundary block: a reference independent of the
    bordered factorization."""
    sys = field.CondensedSystem.of(dom)
    u = spsolve(sys.Ah2, sys.h2 * phi.values[dom.interior_ids])
    return grid.ScalarField(dom, sys.embed(u))


@pytest.mark.parametrize("fixture", ["annulus32", "two_hole_basis"])
def test_factor_keeps_fill_and_solves_of_default_supernodes(fixture, request, rng):
    """The supernode settings of `field._factor` change how SuperLU schedules
    the factorization, not its fill: nnz(L) + nnz(U) equals that of the
    default settings with the same ordering, and a solve agrees with theirs to
    1e-12 relative (res-32 annulus and the 40 x 64 two-hole mask)."""
    dom = request.getfixturevalue(fixture)
    dom = getattr(dom, "domain", dom)
    K = field.CondensedSystem.of(dom).K.tocsc()
    lu = field._factor(K, "condensed system")
    ref = splu(
        K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
    )
    assert lu.L.nnz + lu.U.nnz == ref.L.nnz + ref.U.nnz
    b = rng.standard_normal(K.shape[0])
    x, x_ref = lu.solve(b), ref.solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_green_matches_radial_oracle(annulus32, radial):
    dom = annulus32
    u2 = _green(dom, dom.constant(1.0))
    prof = oracle.radial_green(radial, lambda r: np.ones_like(r))
    ref = np.interp(np.hypot(dom.node_x, dom.node_y)[dom.interior_ids], radial.r, prof)
    err = np.abs(u2.values[dom.interior_ids] - ref).max() / np.abs(prof).max()
    assert err <= 0.01


def test_p_symmetry_and_positivity(basis32, rng):
    dom = basis32.domain
    worst = 0.0
    for _ in range(20):
        f1 = random_interior_field(dom, rng)
        f2 = random_interior_field(dom, rng)
        P1 = field.p_apply(basis32, f1)
        P2 = field.p_apply(basis32, f2)
        ip12 = grid.integrate(dom.field(f1.values * P2.values))
        ip21 = grid.integrate(dom.field(f2.values * P1.values))
        worst = max(worst, abs(ip12 - ip21) / (grid.lp_norm(f1) * grid.lp_norm(f2)))
        assert grid.integrate(dom.field(f1.values * P1.values)) > 0.0
    assert worst <= 1e-8


def test_p_inverse_is_neg_laplacian(basis32, rng):
    dom = basis32.domain
    phi = random_interior_field(dom, rng)
    Pf = field.p_apply(basis32, phi)
    defect = np.abs(
        grid.neg_laplacian(Pf).values[dom.interior_ids] - phi.values[dom.interior_ids]
    ).max()
    assert defect <= 1e-8


def test_p_zero_flux(basis32, rng):
    Pf = field.p_apply(basis32, random_interior_field(basis32.domain, rng))
    assert abs(grid.boundary_flux(Pf, 1)) <= 1e-10


def test_p_condensed_equals_formula(basis32, rng):
    """Two independent routes to the same operator: the flux-constrained
    solve and the zero-boundary solve plus the basis correction."""
    dom = basis32.domain
    phi = random_interior_field(dom, rng)
    Pf = field.p_apply(basis32, phi)
    Gf = _green(dom, phi)
    formula = Gf.values.copy()
    for i in range(basis32.n):
        moment = grid.integrate(dom.field(basis32.zetas[i].values * phi.values))
        for j in range(basis32.n):
            formula += basis32.q[i, j] * moment * basis32.zetas[j].values
    assert np.abs(formula - Pf.values).max() <= 1e-8


def test_p_energy_identity(basis32, rng):
    """Inner product against the operator equals the Dirichlet energy of the
    result (zero-flux structure makes the boundary terms vanish)."""
    dom = basis32.domain
    phi = random_interior_field(dom, rng)
    Pf = field.p_apply(basis32, phi)
    ip = grid.integrate(dom.field(phi.values * Pf.values))
    en = grid.dirichlet_form(Pf, Pf)
    assert abs(ip - en) <= 1e-8 * max(1.0, abs(ip))


def test_h_field_zero(basis32):
    assert np.abs(field.h_field(basis32, [0.0]).values).max() == 0.0


def test_h_field_closed_form(basis32):
    dom = basis32.domain
    a1 = 0.9
    ha = field.h_field(basis32, [a1])
    r = np.hypot(dom.node_x, dom.node_y)[dom.interior_ids]
    exact = a1 / (2 * math.pi) * np.log(r / 2.0)
    err = np.abs(ha.values[dom.interior_ids] - exact).max() / np.abs(exact).max()
    assert err <= 0.01


def test_h_field_linearity(basis32):
    h1 = field.h_field(basis32, [1.0])
    h2 = field.h_field(basis32, [-2.0])
    assert np.abs(h2.values + 2.0 * h1.values).max() <= 1e-12


def test_stream_zero(basis32):
    sol = field.stream_solve(basis32, basis32.domain.zeros(), [0.0])
    assert np.abs(sol.psi.values).max() <= 1e-14


def test_stream_matches_radial_oracle(basis32, radial):
    dom = basis32.domain
    sol = field.stream_solve(basis32, dom.constant(1.0), [0.5])
    prof = oracle.radial_stream(radial, lambda r: np.ones_like(r), 0.5)
    ref = np.interp(np.hypot(dom.node_x, dom.node_y)[dom.interior_ids], radial.r, prof)
    err = np.abs(sol.psi.values[dom.interior_ids] - ref).max() / np.abs(prof).max()
    assert err <= 0.01
    assert sol.residual <= 1e-6
    assert sol.flux_errors.max() <= 1e-9


def test_stream_flux_identity(basis32, rng):
    sol = field.stream_solve(basis32, random_interior_field(basis32.domain, rng), [0.3])
    assert abs(grid.boundary_flux(sol.psi, 1) + 0.3) <= 1e-9


def test_stream_linearity(basis32, rng):
    dom = basis32.domain
    w1 = random_interior_field(dom, rng)
    w2 = random_interior_field(dom, rng)
    s1 = field.stream_solve(basis32, w1, [0.4])
    s2 = field.stream_solve(basis32, w2, [-0.1])
    s12 = field.stream_solve(basis32, w1 + w2, [0.3])
    assert np.abs(s12.psi.values - s1.psi.values - s2.psi.values).max() <= 1e-9


def test_velocity_constant_field(annulus32):
    v = field.velocity(annulus32.constant(4.2))
    assert np.abs(v.vx).max() <= 1e-12 and np.abs(v.vy).max() <= 1e-12


def test_velocity_azimuthal_speed(basis32):
    dom = basis32.domain
    gam = 0.8
    sol = field.stream_solve(basis32, dom.zeros(), [gam])
    v = field.velocity(sol.psi)
    ii = dom.interior_ids
    r = np.hypot(dom.node_x, dom.node_y)[ii]
    speed = np.hypot(v.vx, v.vy)[ii]
    exact = gam / (2 * math.pi * r)
    assert (np.abs(speed - exact) / exact).max() <= 0.02


def test_velocity_divergence_small(basis32, stable_state32):
    dom = basis32.domain
    v = field.velocity(stable_state32.psi_bar)
    div = field.divergence(v)
    vals = div.values[dom.interior_ids]
    r = np.hypot(dom.node_x, dom.node_y)[dom.interior_ids]
    deep = (r > 1.2) & (r < 1.8)
    assert np.abs(vals[deep]).max() <= 1e-10  # central stencils commute
    # the wall ring has measure O(h), so the average defect is O(h)
    assert grid.lp_norm(div, 1.0) / dom.area <= 2.0 * dom.h


def test_circulation_pure_flow(basis32):
    gam = 0.8
    sol = field.stream_solve(basis32, basis32.domain.zeros(), [gam])
    c = field.circulation(field.velocity(sol.psi), 1)
    assert abs(c / gam - 1.0) <= 0.02


def test_circulation_zero_velocity(annulus32):
    v = field.VelocityField(annulus32, np.zeros(annulus32.n_nodes), np.zeros(annulus32.n_nodes))
    assert field.circulation(v, 1) == 0.0


def test_circulation_additivity(basis32):
    dom = basis32.domain
    s1 = field.stream_solve(basis32, dom.zeros(), [0.5])
    s2 = field.stream_solve(basis32, dom.constant(1.0), [0.2])
    v1 = field.velocity(s1.psi)
    v2 = field.velocity(s2.psi)
    v12 = field.VelocityField(dom, v1.vx + v2.vx, v1.vy + v2.vy)
    assert abs(
        field.circulation(v12, 1) - field.circulation(v1, 1) - field.circulation(v2, 1)
    ) <= 1e-12


def test_circulation_with_vorticity_correction(basis32):
    sol = field.stream_solve(basis32, basis32.domain.constant(1.0), [0.3])
    c = field.circulation(field.velocity(sol.psi), 1, omega=sol.omega)
    assert abs(c - 0.3) <= 0.02 * max(1.0, 0.3)


def test_circulation_component_validation(basis32):
    v = field.velocity(basis32.zetas[0])
    with pytest.raises(GridError):
        field.circulation(v, 0)


def test_kinetic_energy_positive(basis32):
    sol = field.stream_solve(basis32, basis32.domain.zeros(), [1.0])
    assert field.kinetic_energy(field.velocity(sol.psi)) > 0.0


# -- velocity operator against the difference-form stencils ---------------------


def _deriv_oracle(psi, d_plus, d_minus):
    """Reference derivative along d_minus -> d_plus, in difference form, one
    node at a time per branch: three-point nonuniform parabola, far-side
    parabola for legs < 0.25, secant fallback, one-sided at the edges."""
    dom = psi.domain
    v = psi.values
    h = dom.h

    def quad_deriv(x1, f1, x2, f2, x3, f3):
        c1 = (-x2 - x3) / ((x1 - x2) * (x1 - x3))
        c2 = (-x1 - x3) / ((x2 - x1) * (x2 - x3))
        c3 = (-x1 - x2) / ((x3 - x1) * (x3 - x2))
        return c1 * f1 + c2 * f2 + c3 * f3

    qp = dom.nbr[:, d_plus]
    qm = dom.nbr[:, d_minus]
    has_p = qp >= 0
    has_m = qm >= 0
    qp_s = np.clip(qp, 0, None)
    qm_s = np.clip(qm, 0, None)
    vp = np.where(has_p, v[qp_s], 0.0)
    vm = np.where(has_m, v[qm_s], 0.0)
    lp = np.where(has_p, 1.0 / dom.wgt[:, d_plus], 1.0)
    lm = np.where(has_m, 1.0 / dom.wgt[:, d_minus], 1.0)
    a = lm * h
    bb = lp * h
    dp = vp - v
    dm = v - vm
    with np.errstate(divide="ignore", invalid="ignore"):
        three = (a * a * dp + bb * bb * dm) / (a * bb * (a + bb))
        secant = (vp - vm) / (a + bb)

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
    use_far_p = tiny_m & use_pp
    use_far_m = tiny_p & use_mm
    use_secant = (tiny_m & ~use_pp) | (tiny_p & ~use_mm) | (tiny_m & tiny_p)
    est = three
    est = np.where(use_far_p, far_p, est)
    est = np.where(use_far_m, far_m, est)
    est = np.where(use_secant, secant, est)

    out = np.zeros(dom.n_nodes)
    both = has_p & has_m
    out[both] = est[both]
    only_p = has_p & ~has_m
    out[only_p] = (vp[only_p] - v[only_p]) / (np.maximum(lp[only_p], 0.5) * h)
    only_m = has_m & ~has_p
    out[only_m] = (v[only_m] - vm[only_m]) / (np.maximum(lm[only_m], 0.5) * h)
    branches = {
        "far_side": both & (use_far_p | use_far_m) & ~use_secant,
        "secant": both & use_secant,
        "one_sided": only_p | only_m,
    }
    return np.where(np.isfinite(out), out, 0.0), branches


def _two_hole_frame_edge():
    """The two-hole mask whose outer wall lies on the frame edge."""
    mask = np.ones((40, 64), dtype=bool)
    mask[14:26, 12:24] = False
    mask[14:26, 40:52] = False
    return grid.label_components(mask, h=1.0 / 16)


def _short_legs():
    """Three holes, two of them bars that leave interior channels one node
    wide along the frame (one per axis), with seeded sub-cell legs down to
    0.05 on every interior-to-boundary edge, so that the far-side parabola
    and the secant fallback both occur along both axes."""
    mask = np.ones((24, 36), dtype=bool)
    mask[10:18, 10:20] = False
    mask[3, 4:28] = False
    mask[6:20, 32] = False
    base = grid.label_components(mask, h=1.0 / 16)
    frac = np.random.default_rng(7).uniform(0.05, 1.0, (base.ny, base.nx, 4))
    return grid.GridDomain(base.kinds, base.h, base.origin, leg_fraction=frac)


@pytest.mark.parametrize(
    "build",
    [lambda: grid.build_annulus(1.0, 2.0, 32), _two_hole_frame_edge, _short_legs],
    ids=["annulus32", "two_hole_frame_edge", "short_legs"],
)
def test_velocity_matches_difference_form(build):
    dom = build()
    rng = np.random.default_rng(3)
    smooth = np.sin(2.0 * dom.node_x) * np.cos(3.0 * dom.node_y) + dom.node_x**2
    for vals in (smooth, rng.standard_normal(dom.n_nodes)):
        psi = grid.ScalarField(dom, vals)
        v = field.velocity(psi)
        dx, _ = _deriv_oracle(psi, 0, 1)
        dy, _ = _deriv_oracle(psi, 2, 3)
        scale = max(np.abs(dx).max(), np.abs(dy).max())
        assert np.abs(v.vx - dy).max() <= 1e-12 * scale
        assert np.abs(v.vy + dx).max() <= 1e-12 * scale


def test_short_legs_domain_exercises_every_branch():
    dom = _short_legs()
    psi = dom.zeros()
    for axis in ((0, 1), (2, 3)):
        _, branches = _deriv_oracle(psi, *axis)
        for name, sel in branches.items():
            assert sel.any(), name


def test_velocity_operator_built_once_per_domain(monkeypatch):
    calls = []
    build = field._derivative_matrix

    def counting(*args):
        calls.append(args[1:])
        return build(*args)

    monkeypatch.setattr(field, "_derivative_matrix", counting)
    dom = grid.build_annulus(1.0, 2.0, 16)
    psi = dom.field_from_function(lambda x, y: x * y)
    first = field.velocity(psi)
    second = field.velocity(psi)
    assert calls == [(0, 1), (2, 3)]
    assert np.array_equal(first.vx, second.vx) and np.array_equal(first.vy, second.vy)
    other = grid.build_annulus(1.0, 2.0, 16)
    field.velocity(other.zeros())
    assert len(calls) == 4


def _circulation_oracle(v, k, omega=None):
    """Reference contour sum on full grids, with the hole region and the
    contour masks rebuilt on every call."""
    from scipy import ndimage

    dom = v.domain
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    ext = np.pad(dom.kinds == grid.EXTERIOR, 1, constant_values=True)
    lbl, _ = ndimage.label(ext, structure=four)
    core = lbl[1:-1, 1:-1]
    region = dom.kinds == grid.BOUNDARY_BASE + k
    bys, bxs = np.nonzero(region)
    for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        yy = np.clip(bys + dy, 0, dom.ny - 1)
        xx = np.clip(bxs + dx, 0, dom.nx - 1)
        for i in np.unique(core[yy, xx]):
            if i > 0 and i != lbl[0, 0]:
                region = region | (core == i)
    nodes = region | ndimage.binary_dilation(region, structure=four)
    cells = nodes[:-1, :-1] | nodes[:-1, 1:] | nodes[1:, :-1] | nodes[1:, 1:]
    corners = np.zeros((dom.ny, dom.nx), dtype=bool)
    for oy in (0, 1):
        for ox in (0, 1):
            corners[oy : dom.ny - 1 + oy, ox : dom.nx - 1 + ox] |= cells
    VX = dom.to_grid(v.vx)
    VY = dom.to_grid(v.vy)
    h = dom.h
    gam = 0.5 * h * (
        (VX[:-1, :-1] + VX[:-1, 1:])
        + (VY[:-1, 1:] + VY[1:, 1:])
        - (VX[1:, :-1] + VX[1:, 1:])
        - (VY[:-1, :-1] + VY[1:, :-1])
    )
    total = -float(gam[cells].sum())
    if omega is not None:
        padded = np.zeros((dom.ny + 1, dom.nx + 1), dtype=bool)
        padded[1:-1, 1:-1] = cells
        inside = padded[:-1, :-1] & padded[:-1, 1:] & padded[1:, :-1] & padded[1:, 1:]
        fringe = corners & ~inside
        fluid = dom.kinds == grid.INTERIOR
        w_in = omega.values[dom.node_index[inside & fluid]].sum()
        w_fr = omega.values[dom.node_index[fringe & fluid]].sum()
        total += float(w_in + 0.5 * w_fr) * h * h
    return total


@pytest.mark.parametrize(
    "build",
    [lambda: grid.build_annulus(1.0, 2.0, 32), _two_hole_frame_edge],
    ids=["annulus32", "two_hole_frame_edge"],
)
def test_circulation_matches_full_grid_sum(build, monkeypatch):
    """The cached contour gives bit-identical sums, and is built once per
    (domain, component)."""
    builds = []
    contour = field._contour

    def counting(dom, k):
        builds.append(k)
        return contour(dom, k)

    monkeypatch.setattr(field, "_contour", counting)
    dom = build()
    rng = np.random.default_rng(5)
    for k in range(1, dom.n_components):
        for _ in range(3):
            v = field.VelocityField(
                dom, rng.standard_normal(dom.n_nodes), rng.standard_normal(dom.n_nodes)
            )
            omega = dom.field(rng.standard_normal(dom.n_nodes))
            assert field.circulation(v, k) == _circulation_oracle(v, k)
            assert field.circulation(v, k, omega) == _circulation_oracle(v, k, omega)
    assert builds == list(range(1, dom.n_components))


# -- lazy certificate ------------------------------------------------------------


def test_stream_certificate_matches_steady_certify(basis32, stable_state32):
    st = stable_state32
    sol = field.stream_solve(basis32, st.omega_bar, st.a)
    ref = steady._certify(sol.psi, sol.omega, sol.a, st.g, 1)
    assert sol.residual == ref.residual_pde
    assert np.array_equal(sol.flux_errors, ref.flux_errors)


def test_stream_certificate_is_lazy(basis32, monkeypatch):
    calls = []
    lap = grid.neg_laplacian

    def counting(f):
        calls.append(1)
        return lap(f)

    monkeypatch.setattr(grid, "neg_laplacian", counting)
    sol = field.stream_solve(basis32, basis32.domain.constant(1.0), [0.5])
    assert calls == []
    residual = sol.residual
    assert sol.flux_errors.max() <= 1e-9
    assert sol.residual == residual
    assert len(calls) == 1


def _full_pipeline():
    """Weak references to a res-16 annulus and its condensed system after
    the full pipeline on it: basis, lambda, a linear and a tanh state with
    their verdicts, both probes, a transport step and a circulation."""
    dom = grid.build_annulus(1.0, 2.0, 16)
    basis = harmonic.solve_basis(dom)
    lam = spectra.lambda_plain(basis).value
    st = steady.steady_linear(basis, 0.5 * lam, [1.0])
    spectra.check_stability(basis, st)
    spectra.check_stability(basis, steady.steady_newton(basis, tanh_profile(lam), [1.0]))
    rearrange.local_max_probe(basis, st, 0.1 * grid.lp_norm(st.omega_bar), 3, 5)
    gext = fn.extend_g(st.g, st.psi_min, st.psi_max)
    rearrange.supporting_probe(basis, st, gext, 3, 5, fn.legendre(gext))
    state = dynamics.step(
        dynamics.init_state(basis, st.omega_bar, st.a), dynamics.SimConfig(t_final=0.01, dt=0.01)
    )
    field.circulation(state.vel, 1, state.omega)
    return weakref.ref(dom), weakref.ref(basis.system)


def test_condensed_system_freed_without_collector():
    """Nothing the domain caches refers back to it (the condensed system
    keeps no domain, the bases close over its factorization, and lambda is
    kept as arrays), so with the cyclic garbage collector off the domain and
    its condensed system are freed once the last outside reference goes."""
    gc.disable()
    try:
        domain, system = _full_pipeline()
        assert domain() is None
        assert system() is None
    finally:
        gc.enable()
