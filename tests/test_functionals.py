import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator, PPoly

from arnoldstab import field, functionals as fn, grid
from arnoldstab.errors import GridError

from conftest import plain_bisection_mu, random_interior_field, same_float


# -- profiles and extension -----------------------------------------------------


def test_extend_identity_for_compliant_linear():
    g = fn.GFunc.linear(1.0)
    assert fn.extend_g(g, 0.0, 1.0) is g


def test_extend_flat_profile():
    g = fn.GFunc.tabulated([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    ext = fn.extend_g(g, 0.0, 1.0)
    s = np.linspace(-6, 7, 10001)
    vals = ext(s)
    assert np.all(np.diff(vals) >= -1e-12)
    inside = (s >= 0) & (s <= 1)
    assert np.abs(vals[inside]).max() <= 1e-12
    # asymptotic slopes reach 1
    assert abs((ext(10.0) - ext(9.0)) - 1.0) <= 1e-12
    assert abs((ext(-9.0) - ext(-10.0)) - 1.0) <= 1e-12


def test_extension_c1_at_collar_knots():
    g = fn.GFunc.tabulated(np.linspace(-1, 2, 31), 0.2 * np.linspace(-1, 2, 31) ** 3 + np.linspace(-1, 2, 31))
    ext = fn.extend_g(g, -1.0, 2.0)
    eps = 1e-6
    for knot in (-2.0, -1.0, 2.0, 3.0):
        left = (ext(knot) - ext(knot - eps)) / eps
        right = (ext(knot + eps) - ext(knot)) / eps
        assert abs(left - right) <= 1e-4


def test_extension_derivative_nonnegative_everywhere():
    g = fn.GFunc.tabulated(np.linspace(0, 1, 21), np.linspace(0, 1, 21) ** 2)
    ext = fn.extend_g(g, 0.0, 1.0)
    s = np.linspace(-8, 9, 10000)
    assert np.all(ext.deriv(s) >= -1e-12)


def test_extend_rejects_decreasing():
    with pytest.raises(GridError):
        fn.extend_g(fn.GFunc.linear(-0.5), 0.0, 1.0)
    with pytest.raises(GridError):
        fn.GFunc.tabulated([0, 1], [1.0, 0.0])


def test_antiderivative_anchored_at_zero():
    g = fn.GFunc.tabulated(np.linspace(-2, 2, 41), np.tanh(np.linspace(-2, 2, 41)))
    ext = fn.extend_g(g, -2.0, 2.0)
    assert abs(ext.antideriv(0.0)) <= 1e-12
    # derivative of the antiderivative is the profile
    s = np.linspace(-4, 4, 777)
    eps = 1e-6
    num = (ext.antideriv(s + eps) - ext.antideriv(s - eps)) / (2 * eps)
    assert np.abs(num - ext(s)).max() <= 1e-5


def _closed_forms(core, lo, hi):
    """g, g' and G of `extend_g(core, lo, hi)` from the closed forms of its
    collars and tails, branch by branch: the reference for its piecewise
    polynomial."""
    gl, gh = float(core(lo)), float(core(hi))
    dl, dh = float(core.deriv(lo)), float(core.deriv(hi))
    cl, ch = max(dl, 1.0), max(dh, 1.0)
    kl, kh = dl - cl, ch - dh
    v0, v3 = gl - dl + 0.5 * kl, gh + dh + 0.5 * kh
    cuts = lambda s: [s < lo - 1.0, s < lo, s <= hi, s <= hi + 1.0]

    def g(s):
        d_lo, d_hi = s - lo, s - hi
        return np.select(
            cuts(s),
            [
                v0 + cl * (s - (lo - 1.0)),
                gl + dl * d_lo + 0.5 * kl * d_lo**2,
                core(np.clip(s, lo, hi)),
                gh + dh * d_hi + 0.5 * kh * d_hi**2,
            ],
            default=v3 + ch * (s - (hi + 1.0)),
        )

    def gp(s):
        return np.select(
            cuts(s),
            [
                np.full_like(s, cl),
                dl + kl * (s - lo),
                core.deriv(np.clip(s, lo, hi)),
                dh + kh * (s - hi),
            ],
            default=np.full_like(s, ch),
        )

    def phi(s):  # antiderivative anchored at lo
        a_core = lambda t: core.antideriv(np.clip(t, lo, hi)) - core.antideriv(lo)
        phi_t2 = a_core(np.asarray(hi))
        phi_t0 = -gl + 0.5 * dl - kl / 6.0
        phi_t3 = phi_t2 + gh + 0.5 * dh + kh / 6.0
        d_lo, d_hi = s - lo, s - hi
        t0, t3 = s - (lo - 1.0), s - (hi + 1.0)
        return np.select(
            cuts(s),
            [
                phi_t0 + v0 * t0 + 0.5 * cl * t0**2,
                gl * d_lo + 0.5 * dl * d_lo**2 + kl * d_lo**3 / 6.0,
                a_core(s),
                phi_t2 + gh * d_hi + 0.5 * dh * d_hi**2 + kh * d_hi**3 / 6.0,
            ],
            default=phi_t3 + v3 * t3 + 0.5 * ch * t3**2,
        )

    return g, gp, lambda s: phi(s) - phi(np.asarray(0.0))


_TANH_KNOTS = np.linspace(-3.0, 3.0, 25)
_CUBIC_KNOTS = np.linspace(-2.0, 3.0, 21)
_TANH = fn.GFunc.tabulated(_TANH_KNOTS, 0.8 * _TANH_KNOTS + 0.2 * np.tanh(2 * _TANH_KNOTS))
_CUBIC = fn.GFunc.tabulated(_CUBIC_KNOTS, 0.2 * _CUBIC_KNOTS**3 + _CUBIC_KNOTS)
# (core, lo, hi): the cubic table's interval ends fall between its knots
_EXTENSIONS = {
    "tanh": (_TANH, -3.0, 3.0),
    "cubic": (_CUBIC, -1.3, 2.7),
    "flat": (fn.GFunc.tabulated([0.0, 0.5, 1.0], [0.0, 0.0, 0.0]), 0.0, 1.0),
    "linear0": (fn.GFunc.linear(0.0), -1.0, 2.0),
}


@pytest.mark.parametrize("name", list(_EXTENSIONS))
def test_extension_matches_closed_forms(name):
    core, lo, hi = _EXTENSIONS[name]
    ext = fn.extend_g(core, lo, hi)
    assert isinstance(ext.poly, PPoly)
    s = np.union1d(np.linspace(lo - 4.0, hi + 4.0, 4001), ext.poly.x)
    for got, ref in zip((ext, ext.deriv, ext.antideriv), _closed_forms(core, lo, hi)):
        want = ref(s)
        assert np.all(np.abs(got(s) - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", list(_EXTENSIONS))
def test_extension_pieces_join_c1(name):
    """At every interior breakpoint the left and right pieces' polynomials
    agree in value and slope."""
    poly = fn.extend_g(*_EXTENSIONS[name]).poly
    c, x = poly.c, poly.x
    deg = len(c) - 1
    for j in range(1, len(x) - 1):
        t = x[j] - x[j - 1]
        left = np.polyval(c[:, j - 1], t)
        left_slope = np.polyval(c[:-1, j - 1] * np.arange(deg, 0, -1), t)
        assert abs(left - c[-1, j]) <= 1e-13 * max(1.0, abs(c[-1, j]))
        assert abs(left_slope - c[-2, j]) <= 1e-13 * max(1.0, abs(c[-2, j]))


def test_tabulated_profile_is_its_pchip_interpolant():
    vals = np.tanh(_TANH_KNOTS)
    gf = fn.GFunc.tabulated(_TANH_KNOTS, vals)
    pchip = PchipInterpolator(_TANH_KNOTS, vals, extrapolate=True)
    anti = pchip.antiderivative()
    s = np.union1d(np.linspace(-5.0, 5.0, 2001), _TANH_KNOTS)
    assert np.array_equal(gf(s), pchip(s))
    assert np.array_equal(gf.deriv(s), pchip.derivative()(s))
    assert np.array_equal(gf.antideriv(s), anti(s) - anti(0.0))


@pytest.mark.parametrize(
    "knots, values",
    [
        ([0.0, math.nan, 2.0], [0.0, 0.5, 1.0]),
        ([0.0, 1.0, math.inf], [0.0, 0.5, 1.0]),
        ([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
        ([0.0, 1.0, 2.0], [-math.inf, 0.5, 1.0]),
    ],
    ids=["knot-nan", "knot-inf", "value-nan", "value-inf"],
)
def test_tabulated_rejects_non_finite(knots, values):
    with pytest.raises(GridError, match="finite"):
        fn.GFunc.tabulated(knots, values)


# -- Legendre transform -----------------------------------------------------------


def test_legendre_selfdual_quadratic():
    lp = fn.legendre(fn.GFunc.linear(1.0))
    assert abs(lp.Ghat(1.0) - 0.5) <= 1e-12


def test_legendre_scaled_quadratic():
    lp = fn.legendre(fn.GFunc.linear(2.0))
    for s in (-3.0, 0.7, 5.0):
        assert abs(lp.Ghat(s) - s * s / 4.0) <= 1e-10


def test_legendre_requires_tails():
    with pytest.raises(GridError):
        fn.legendre(fn.GFunc.tabulated([0, 1], [0.0, 1.0]))


def test_young_inequality_grid():
    knots = np.linspace(-1, 1, 21)
    g = fn.GFunc.tabulated(knots, 0.5 * knots + 0.3 * np.tanh(knots))
    ext = fn.extend_g(g, -1.0, 1.0)
    lp = fn.legendre(ext)
    S, T = np.meshgrid(np.linspace(-4, 4, 100), np.linspace(-5, 5, 100))
    young = lp.Ghat(S) + lp.G(T) - S * T
    assert young.min() >= -1e-8
    i = np.unravel_index(young.argmin(), young.shape)
    assert abs(float(ext(T[i])) - float(S[i])) <= 1e-4


def test_legendre_brute_force_oracle():
    knots = np.linspace(-2, 2, 41)
    g = fn.GFunc.tabulated(knots, knots + 0.2 * np.sin(knots))
    ext = fn.extend_g(g, -2.0, 2.0)
    lp = fn.legendre(ext)
    taus = np.linspace(-40, 40, 400001)
    Gt = ext.antideriv(taus)
    for s in (-1.3, 0.0, 0.8, 2.9):
        brute = float((s * taus - Gt).max())
        assert abs(lp.Ghat(s) - brute) <= 1e-6 * max(1.0, abs(brute))


def test_generalized_inverse_strictly_increasing():
    g = fn.GFunc.tabulated(np.linspace(0, 1, 11), np.linspace(0, 1, 11) ** 2)
    lp = fn.legendre(fn.extend_g(g, 0.0, 1.0))
    s = np.linspace(-3, 3, 101)
    f = lp.f(s)
    assert np.all(np.diff(f) > 0)
    # inverse property on the strictly increasing region
    assert np.abs(lp.g(f) - s).max() <= 1e-9


# -- flow functionals ---------------------------------------------------------------


def test_energy_zero(basis32):
    assert fn.energy(basis32, basis32.domain.zeros(), [0.0]) == 0.0


def test_energy_equals_kinetic(basis32, stable_state32):
    st = stable_state32
    e = fn.energy(basis32, st.omega_bar, st.a)
    v = field.velocity(field.stream_solve(basis32, st.omega_bar, st.a).psi)
    k = field.kinetic_energy(v)
    assert abs(e - k) / abs(e) <= 0.02


def test_energy_lipschitz(basis32, stable_state32, rng):
    from arnoldstab import spectra

    st = stable_state32
    big = spectra.lambda_big(basis32).value
    ha = field.h_field(basis32, st.a)
    e0 = fn.energy(basis32, st.omega_bar, st.a)
    for scale in (1e-3, 1e-2, 1e-1):
        delta = random_interior_field(basis32.domain, rng, scale)
        e1 = fn.energy(basis32, st.omega_bar + delta, st.a)
        nd = grid.lp_norm(delta)
        bound = nd * (
            big * (grid.lp_norm(st.omega_bar) + 0.5 * nd) + grid.lp_norm(ha)
        )
        assert abs(e1 - e0) <= bound * (1 + 1e-9)


def test_casimir_permutation_invariant_exactly(basis32, stable_state32, rng):
    from arnoldstab import rearrange

    st = stable_state32
    lp = fn.legendre(st.g)
    base = fn.casimir(basis32.domain, st.omega_bar, lp)
    smp = rearrange.random_swaps(st.omega_bar, 200, 7)
    assert fn.casimir(basis32.domain, smp.w, lp) == base


def test_ec_of_constant_field(basis32):
    dom = basis32.domain
    lp = fn.legendre(fn.GFunc.linear(1.0))
    c = 0.7
    w = dom.constant(c)
    ec = fn.energy_casimir(basis32, w, [0.2], lp)
    expected = fn.energy(basis32, w, [0.2]) - dom.area * float(lp.Ghat(c))
    assert abs(ec - expected) <= 1e-12 * max(1.0, abs(expected))


def test_supporting_equalities_at_state(basis32, stable_state32):
    st = stable_state32
    lp = fn.legendre(st.g)
    ec = fn.energy_casimir(basis32, st.omega_bar, st.a, lp)
    d = fn.supporting_d(basis32, st.omega_bar, st.a, st.g)
    dhat, mu = fn.supporting_d_hat(basis32, st.omega_bar, st.a, st.g, st.mass)
    scale = max(1.0, abs(ec))
    assert abs(d - ec) / scale <= 1e-6
    assert abs(dhat - ec) / scale <= 1e-6
    assert abs(mu) <= 1e-6


def test_supporting_d_dominates(basis32, stable_state32, rng):
    from arnoldstab import rearrange

    st = stable_state32
    lp = fn.legendre(st.g)
    scale = max(1.0, abs(fn.energy_casimir(basis32, st.omega_bar, st.a, lp)))
    for t in range(20):
        smp = rearrange.random_swaps(st.omega_bar, 1 + 3 * t, 100 + t)
        ec = fn.energy_casimir(basis32, smp.w, st.a, lp)
        d = fn.supporting_d(basis32, smp.w, st.a, st.g)
        assert d >= ec - 1e-6 * scale


def test_supporting_d_zero_case(basis32):
    val = fn.supporting_d(basis32, basis32.domain.zeros(), [0.0], fn.GFunc.linear(1.0))
    assert abs(val) <= 1e-12


def test_d_s_reduces_to_d(basis32, stable_state32):
    st = stable_state32
    d = fn.supporting_d(basis32, st.omega_bar, st.a, st.g)
    ds = fn.supporting_d_s(basis32, st.omega_bar, st.a, st.g, 0.0, st.mass)
    assert abs(d - ds) <= 1e-12 * max(1.0, abs(d))


def test_d_s_grows_at_bracket_ends(basis32, stable_state32):
    st = stable_state32
    dhat, _ = fn.supporting_d_hat(basis32, st.omega_bar, st.a, st.g, st.mass)
    for s in (-64.0, 64.0):
        assert fn.supporting_d_s(basis32, st.omega_bar, st.a, st.g, s, st.mass) > dhat + 1.0


def test_d_s_stationary_at_mu(basis32, stable_state32, rng):
    from arnoldstab import rearrange

    st = stable_state32
    smp = rearrange.random_swaps(st.omega_bar, 40, 3)
    _, mu = fn.supporting_d_hat(basis32, smp.w, st.a, st.g, st.mass)
    eps = 1e-5
    up = fn.supporting_d_s(basis32, smp.w, st.a, st.g, mu + eps, st.mass)
    dn = fn.supporting_d_s(basis32, smp.w, st.a, st.g, mu - eps, st.mass)
    assert abs(up - dn) / (2 * eps) <= 1e-5


def test_mu_consistent_after_circulation_shift(basis32, stable_state32):
    st = stable_state32
    a2 = st.a + 0.25
    Pw = field.p_apply(basis32, st.omega_bar)
    ha2 = field.h_field(basis32, a2)
    _, mu2 = fn.supporting_d_hat(basis32, st.omega_bar, a2, st.g, st.mass)
    dom = basis32.domain
    resid = (
        float(
            np.sum(
                st.g((Pw.values + ha2.values)[dom.interior_ids] - mu2)
            )
        )
        * dom.h**2
        - st.mass
    )
    assert abs(resid) <= 1e-8


def test_stream_energy_casimir_sandwich(basis32, rng):
    """Quadratic bounds on the stream-form functional for flux-free
    perturbations, using a strictly convex profile."""
    from arnoldstab import steady

    knots = np.linspace(-3.0, 3.0, 61)
    g = fn.GFunc.tabulated(knots, 0.8 * knots + 0.2 * np.tanh(2 * knots))
    st = steady.steady_newton(basis32, fn.extend_g(g, -3.0, 3.0), [1.0])
    assert st.certified
    gext = fn.extend_g(st.g, st.psi_min - 1.0, st.psi_max + 1.0)
    lp = fn.legendre(gext)
    h0 = fn.stream_energy_casimir(basis32.domain.zeros(), lp, st)
    assert math.isfinite(h0)

    dom = basis32.domain
    gp = gext.deriv(np.linspace(st.psi_min - 0.5, st.psi_max + 0.5, 2001))
    fp_min = 1.0 / float(gp.max())
    fp_max = 1.0 / float(gp.min())
    for t in range(5):
        w = random_interior_field(dom, rng, 1e-3)
        phi = field.p_apply(basis32, w)  # flux-free perturbation
        hv = fn.stream_energy_casimir(phi, lp, st)
        grad2 = grid.dirichlet_form(phi, phi)
        lap2 = grid.integrate(dom.field(grid.neg_laplacian(phi).values ** 2))
        lower = 0.5 * grad2 - 0.5 * fp_max * lap2
        upper = 0.5 * grad2 - 0.5 * fp_min * lap2
        slack = 1e-6 * max(1.0, abs(hv - h0))
        assert lower - slack <= hv - h0 <= upper + slack


# -- the per-sample record against the direct formulas ---------------------------


def _direct(basis, w, a):
    """Pw, h_a and (1/2) a.q a, each computed on its own."""
    av = grid.as_circulation(a, basis.domain)
    half_aqa = 0.5 * float(av @ (basis.q @ av))
    return field.p_apply(basis, w), field.h_field(basis, av), half_aqa


def _energy_direct(basis, w, a):
    dom = basis.domain
    Pw, ha, half_aqa = _direct(basis, w, a)
    term1 = 0.5 * grid.integrate(grid.ScalarField(dom, w.values * Pw.values))
    term2 = grid.integrate(grid.ScalarField(dom, ha.values * w.values))
    return term1 + term2 + half_aqa


def _d_s_direct(basis, w, a, gf, s, m):
    dom = basis.domain
    Pw, ha, half_aqa = _direct(basis, w, a)
    quad = -0.5 * grid.integrate(grid.ScalarField(dom, w.values * Pw.values))
    comp = grid.integrate(grid.ScalarField(dom, gf.antideriv(Pw.values + ha.values - s)))
    return quad + comp + s * m + half_aqa


def _d_hat_direct(basis, w, a, gf, m):
    dom = basis.domain
    Pw, ha, half_aqa = _direct(basis, w, a)
    psi_w = Pw.values + ha.values
    mu = fn.solve_mu(dom, psi_w[dom.interior_ids], gf, m)
    quad = -0.5 * grid.integrate(grid.ScalarField(dom, w.values * Pw.values))
    comp = grid.integrate(grid.ScalarField(dom, gf.antideriv(psi_w - mu)))
    return quad + comp + mu * m + half_aqa, mu


def test_functionals_equal_direct_formulas_exactly(basis32, stable_state32):
    """Every public functional reads the shared record with the same
    floating-point operations, in the same order, as its direct formula."""
    from arnoldstab import rearrange

    st = stable_state32
    lp = fn.legendre(st.g)
    dom = basis32.domain
    ws = [st.omega_bar] + [rearrange.random_swaps(st.omega_bar, k, k).w for k in (3, 30, 300)]
    for w in ws:
        for a in (st.a, st.a + 0.3):
            e = _energy_direct(basis32, w, a)
            assert fn.energy(basis32, w, a) == e
            assert fn.energy_casimir(basis32, w, a, lp) == e - fn.casimir(dom, w, lp)
            d = _d_s_direct(basis32, w, a, st.g, 0.0, 0.0)
            assert fn.supporting_d(basis32, w, a, st.g) == d
            for s in (0.37, -1.5, 2.25):
                ds = _d_s_direct(basis32, w, a, st.g, s, st.mass)
                assert fn.supporting_d_s(basis32, w, a, st.g, s, st.mass) == ds
            dhat = _d_hat_direct(basis32, w, a, st.g, st.mass)
            assert fn.supporting_d_hat(basis32, w, a, st.g, st.mass) == dhat


# -- the shift equation against the plain bisection -------------------------------


def _mu_case(seed):
    """psi values, a cell-size stand-in, a linear or affine profile and a mass
    drawn from one seed: sizes 5 to 5,000, scales 1e-6 to 1e3, ties, m = 0,
    and masses whose shift is exactly 0."""
    rng = np.random.default_rng([20240801, seed])
    n = int(rng.choice([5, 17, 100, 1000, 5000]))
    scale = 10.0 ** rng.uniform(-6.0, 3.0)
    psi = (rng.standard_normal(n) + rng.uniform(-2.0, 2.0) * (seed % 2)) * scale
    if seed % 5 == 0:
        psi = np.round(psi / scale * 3.0) * scale / 3.0  # many tied values
    if seed % 11 == 0:
        psi = np.full(n, psi[0])
    dom = SimpleNamespace(h=10.0 ** rng.uniform(-3.0, 0.0))
    slope = 10.0 ** rng.uniform(-3.0, 3.0)
    if seed % 3:
        gf = fn.GFunc.linear(slope)
    else:
        gf = fn.GFunc.affine(slope, rng.standard_normal() * scale)
    m = float(rng.standard_normal() * slope * scale * n * dom.h**2)
    if seed % 4 == 0:
        m = 0.0
    if seed % 13 == 0:
        m = float(np.sum(gf(psi))) * dom.h**2
    return dom, psi, gf, m


@pytest.mark.parametrize("block", range(4))
def test_solve_mu_equals_plain_bisection(block, monkeypatch):
    """Linear and affine profiles skip the midpoints whose sign is known and
    still return the plain bisection's mu bit for bit, with no more profile
    evaluations than it (also where m is the computed sum, so that the
    residual is exactly 0 at the first midpoint)."""
    calls = _count_profile_calls(monkeypatch)
    for seed in range(100 * block, 100 * (block + 1)):
        dom, psi, gf, m = _mu_case(seed)
        calls.clear()
        want = plain_bisection_mu(dom, psi, gf, m)
        n_plain = len(calls)
        calls.clear()
        assert same_float(fn.solve_mu(dom, psi, gf, m), want), seed
        assert len(calls) <= n_plain, (seed, len(calls), n_plain)


def _count_profile_calls(monkeypatch):
    calls = []
    inner = fn.GFunc.__call__

    def counted(self, s):
        calls.append(1)
        return inner(self, s)

    monkeypatch.setattr(fn.GFunc, "__call__", counted)
    return calls


def test_solve_mu_nonlinear_profiles_evaluate_every_midpoint(monkeypatch):
    """Tabulated and extended profiles take the plain bisection, every
    midpoint evaluated."""
    knots = np.linspace(-3.0, 3.0, 201)
    table = fn.GFunc.tabulated(knots, 0.8 * knots + 0.2 * np.tanh(2.0 * knots))
    flat = fn.extend_g(fn.GFunc.linear(0.0), -1.0, 1.0)
    psi = np.random.default_rng(3).uniform(-1.5, 1.5, 400)
    dom = SimpleNamespace(h=0.05)
    calls = _count_profile_calls(monkeypatch)
    for gf in (table, flat):
        for m in (0.0, 0.3):
            calls.clear()
            mu = fn.solve_mu(dom, psi, gf, m)
            n_new = len(calls)
            calls.clear()
            assert mu == plain_bisection_mu(dom, psi, gf, m)
            assert n_new == len(calls) >= 40


def test_solve_mu_evaluations_on_supporting_samples(monkeypatch, basis32, stable_state32):
    """On every supporting sample of the res-32 steady state the shift
    equation takes at most 15 profile evaluations (the plain bisection
    takes about 50)."""
    from arnoldstab import rearrange

    st = stable_state32
    gext = fn.extend_g(st.g, st.psi_min, st.psi_max)
    lp = fn.legendre(gext)
    calls = _count_profile_calls(monkeypatch)
    per_call = []
    inner = fn.solve_mu

    def counted(*args):
        start = len(calls)
        mu = inner(*args)
        per_call.append(len(calls) - start)
        return mu

    monkeypatch.setattr(fn, "solve_mu", counted)
    for seed in (1, 2, 3):
        rearrange.supporting_probe(basis32, st, gext, 10, seed, lp)
    assert len(per_call) == 33
    assert max(per_call) <= 15
