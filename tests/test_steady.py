import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh, spsolve

from arnoldstab import field, functionals as fn, grid, harmonic, oracle, spectra, steady
from arnoldstab.errors import ConvergenceError, SolverError

from conftest import CountingLU, counting_factorizations, kept, tanh_profile


def test_zero_slope_is_circulation_flow(basis32):
    st = steady.steady_linear(basis32, 0.0, [0.7])
    ha = field.h_field(basis32, [0.7])
    assert np.abs(st.psi_bar.values - ha.values).max() <= 1e-10
    assert np.abs(st.omega_bar.values).max() == 0.0


def test_steady_linear_matches_radial_oracle(basis32, lam32, radial):
    kap = 0.5 * lam32
    st = steady.steady_linear(basis32, kap, [1.0])
    prof = oracle.radial_steady_linear(radial, kap, 1.0)
    dom = basis32.domain
    ref = np.interp(np.hypot(dom.node_x, dom.node_y)[dom.interior_ids], radial.r, prof)
    err = np.abs(st.psi_bar.values[dom.interior_ids] - ref).max() / np.abs(prof).max()
    assert err <= 0.01


def test_steady_linear_certificates(stable_state32):
    st = stable_state32
    assert st.certified
    assert st.residual_pde <= 1e-8
    assert st.flux_errors.max() <= 1e-9
    assert st.psi_min <= st.psi_max
    # profile identity held nodewise by construction
    assert np.abs(st.omega_bar.values - st.g(st.psi_bar.values)).max() == 0.0


def test_recovered_circulation(stable_state32):
    assert abs(grid.boundary_flux(stable_state32.psi_bar, 1) + 1.0) <= 0.02


def test_steady_linear_scales_with_circulation(basis32, lam32):
    a = steady.steady_linear(basis32, 0.4 * lam32, [1.0])
    b = steady.steady_linear(basis32, 0.4 * lam32, [2.0])
    assert np.abs(b.psi_bar.values - 2.0 * a.psi_bar.values).max() <= 1e-9


def test_near_resonant_kappa_rejected(basis32, lam32):
    with pytest.raises(SolverError):
        steady.steady_linear(basis32, lam32, [1.0])


def test_kappa_at_dirichlet_ground_certifies(basis32):
    """The shifted bordered matrix is singular only at eigenvalues of the
    condensed operator, so a slope equal to the lowest zero-boundary
    eigenvalue solves and certifies."""
    sys = basis32.system
    lam_d = float(eigsh(sys.Ah2 / sys.h2, k=1, sigma=0, return_eigenvectors=False)[0])
    st = steady.steady_linear(basis32, lam_d, [1.0])
    assert st.certified
    assert st.flux_errors.max() <= 1e-9


@pytest.mark.parametrize("frac", [-1.0, 0.5, 0.99, 1.5, 3.0])
@pytest.mark.parametrize("which", ["annulus", "two_holes"])
def test_steady_linear_matches_direct_solve(which, frac, basis32, two_hole_basis):
    """The MINRES solve of the shifted bordered system agrees with a direct
    sparse solve of the same matrix, below, between and above the lowest
    condensed eigenvalues lambda."""
    basis, a = (basis32, [1.0]) if which == "annulus" else (two_hole_basis, [0.5, 0.2])
    sys = basis.system
    kappa = frac * spectra.lambda_plain(basis).value
    st = steady.steady_linear(basis, kappa, a)
    d = np.concatenate([np.full(sys.n_int, kappa * sys.h2), np.zeros(sys.n)])
    rhs = np.concatenate([np.zeros(sys.n_int), -np.asarray(a)])
    z = spsolve((sys.K - sparse.diags(d)).tocsc(), rhs)
    ref = sys.embed(z[: sys.n_int], z[sys.n_int :])
    assert np.abs(st.psi_bar.values - ref).max() <= 1e-9 * np.abs(ref).max()


def test_steady_linear_solves_with_K(monkeypatch):
    """A res-32 steady state takes at most 30 solves with the cached
    factorization of K, and factorizes nothing."""
    lus = counting_factorizations(monkeypatch)
    basis = harmonic.solve_basis(grid.build_annulus(1.0, 2.0, 32))
    lam = spectra.lambda_plain(basis).value
    for frac in (0.5, 1.5):
        lus[0].solves = 0
        assert steady.steady_linear(basis, frac * lam, [1.0]).certified
        assert len(lus) == 1
        assert 0 < lus[0].solves <= 30


def test_steady_solve_caps_go_to_certificate(basis32, lam32, monkeypatch):
    """A linear state whose Krylov solve is stopped by the basis cap falls
    back to MINRES; with that run stopped by its iteration cap as well and
    no Newton step to refine it, the certificate raises.  A Newton step of
    the tanh state whose MINRES run is capped is judged the same way and
    flagged uncertified."""
    monkeypatch.setattr(field, "_MINRES_CAP", 2)
    monkeypatch.setattr(steady, "_NEWTON_CAP", 0)
    with monkeypatch.context() as m:
        m.setattr(spectra, "_KRYLOV_CAP", 3)
        with pytest.raises(ConvergenceError):
            steady.steady_linear(basis32, 0.5 * lam32, [1.0])
    monkeypatch.setattr(steady, "_NEWTON_CAP", 1)
    st = steady.steady_newton(basis32, tanh_profile(lam32), [1.0])
    assert not st.certified
    assert st.iterations == 2


def test_steady_linear_falls_back_to_minres(basis32, lam32, monkeypatch):
    """A Krylov solve stopped by the basis cap hands the first solve to
    MINRES, whose state certifies without a refinement step and matches a
    direct sparse solve."""
    monkeypatch.setattr(spectra, "_KRYLOV_CAP", 3)
    monkeypatch.setattr(steady, "_NEWTON_CAP", 0)
    sys = basis32.system
    kappa = 0.5 * lam32
    st = steady.steady_linear(basis32, kappa, [1.0])
    assert st.certified and st.iterations == 1
    d = np.concatenate([np.full(sys.n_int, kappa * sys.h2), np.zeros(sys.n)])
    z = spsolve((sys.K - sparse.diags(d)).tocsc(), np.concatenate([np.zeros(sys.n_int), [-1.0]]))
    ref = sys.embed(z[: sys.n_int], z[sys.n_int :])
    assert np.abs(st.psi_bar.values - ref).max() <= 1e-9 * np.abs(ref).max()


def test_second_slope_reads_the_steady_basis(monkeypatch):
    """Every slope kappa on one (domain, a) reads the one Krylov basis of
    the steady solves: once lambda and the first state are built, a second
    slope on the res-32 annulus costs at most 4 LU solves (one MINRES solve
    per slope took 13).  A new circulation vector takes the one slot."""
    lus = counting_factorizations(monkeypatch)
    basis = harmonic.solve_basis(grid.build_annulus(1.0, 2.0, 32))
    lam = spectra.lambda_plain(basis).value
    assert steady.steady_linear(basis, 0.5 * lam, [1.0]).certified
    lus[0].solves = 0
    assert steady.steady_linear(basis, 1.5 * lam, [1.0]).certified
    assert lus[0].solves <= 4
    steady.steady_linear(basis, 0.5 * lam, [0.3])
    assert isinstance(kept(basis.domain, "steady_basis", tag=[0.3]), spectra._Krylov)
    with pytest.raises(LookupError):
        kept(basis.domain, "steady_basis", tag=[1.0])


@pytest.fixture(scope="module")
def basis128():
    return harmonic.solve_basis(grid.build_annulus(1.0, 2.0, 128))


def test_steady_linear_certifies_at_res128(basis128):
    """The res-128 steady state at kappa = lambda / 2 meets the unchanged
    certificate (a direct solve of the shifted matrix left 1.5e-8)."""
    st = steady.steady_linear(basis128, 0.5 * spectra.lambda_plain(basis128).value, [1.0])
    assert st.certified
    assert st.residual_pde <= 1e-8 * max(1.0, float(np.abs(st.omega_bar.values).max()))


def test_steady_linear_refinement_certifies_at_res128(basis128):
    """At kappa = 0.3 lambda the first res-128 solve leaves 1.1e-8, above the
    certificate; one refinement step brings it under."""
    st = steady.steady_linear(basis128, 0.3 * spectra.lambda_plain(basis128).value, [1.0])
    assert st.certified
    assert st.iterations >= 2


def test_linear_refinement_is_one_solve_with_K(basis128, monkeypatch):
    """The refinement step of a linear state is the defect correction
    z - K^-1 F: one solve with the cached factorization (a MINRES step took
    about 15)."""
    sys = basis128.system
    lam = spectra.lambda_plain(basis128).value
    steady.steady_linear(basis128, 0.5 * lam, [1.0])  # the steady basis exists
    counting = CountingLU(sys._lu_K)
    monkeypatch.setattr(sys, "_lu_K", counting)
    st = steady.steady_linear(basis128, 0.3 * lam, [1.0])
    assert st.certified
    assert st.iterations == 2
    assert counting.solves == 1


def _picard(basis, gf, a, iterations=400, damping=0.5):
    """Reference: damped fixed-point iteration psi <- (1-b) psi + b
    stream(g(psi), a) from the flow of zero vorticity."""
    dom = basis.domain
    psi = field.stream_solve(basis, dom.zeros(), a).psi.values
    for _ in range(iterations):
        omega = grid.ScalarField(dom, gf(psi))
        new = field.stream_solve(basis, omega, a).psi.values
        psi = (1.0 - damping) * psi + damping * new
    return psi


def test_newton_agrees_with_picard(basis32, lam32, stable_state32):
    gf = tanh_profile(lam32)
    st = steady.steady_newton(basis32, gf, [1.0])
    assert st.certified
    assert np.abs(st.psi_bar.values - _picard(basis32, gf, [1.0])).max() <= 1e-8
    # a linear profile is the case that certifies at the first solve
    lin = steady.steady_newton(basis32, fn.GFunc.linear(0.5 * lam32), [1.0])
    assert lin.iterations == 1
    assert np.array_equal(lin.psi_bar.values, stable_state32.psi_bar.values)


def test_newton_constant_profile_immediate(basis32):
    gf = fn.GFunc.affine(0.0, 0.8)  # g == 0.8
    st = steady.steady_newton(basis32, gf, [0.3])
    ref = field.stream_solve(basis32, basis32.domain.constant(0.8), [0.3])
    assert st.certified
    assert st.iterations <= 2
    assert np.abs(st.psi_bar.values - ref.psi.values).max() <= 1e-9


def test_newton_affine_profile_certified(basis32, lam32):
    gf = fn.GFunc.affine(0.3 * lam32, 0.2)
    st = steady.steady_newton(basis32, gf, [1.0])
    assert st.certified
    assert st.iterations <= 2  # one Newton step from the linear start
    assert st.residual_pde <= 1e-8
    assert abs(st.mass - grid.integrate(st.omega_bar)) == 0.0
    assert np.abs(st.psi_bar.values - _picard(basis32, gf, [1.0])).max() <= 1e-8


def test_newton_cap_flags_uncertified(basis32, lam32, monkeypatch):
    monkeypatch.setattr(steady, "_NEWTON_CAP", 0)
    st = steady.steady_newton(basis32, tanh_profile(lam32), [1.0])
    assert not st.certified
    assert st.iterations == 1


def test_newton_certifies_tanh_at_res128(basis128):
    """The res-128 tanh state certifies; 81 damped fixed-point iterations
    left it at 2.0e-8."""
    st = steady.steady_newton(basis128, tanh_profile(spectra.lambda_plain(basis128).value), [1.0])
    assert st.certified
    assert st.residual_pde <= 1e-8 * max(1.0, float(np.abs(st.omega_bar.values).max()))


def test_newton_solves_with_K(monkeypatch):
    """The res-32 tanh state factorizes nothing and takes at most 50 solves
    with the cached factorization of K (the damped fixed-point iteration
    took 90)."""
    lus = counting_factorizations(monkeypatch)
    basis = harmonic.solve_basis(grid.build_annulus(1.0, 2.0, 32))
    gf = tanh_profile(spectra.lambda_plain(basis).value)
    lus[0].solves = 0
    assert steady.steady_newton(basis, gf, [1.0]).certified
    assert len(lus) == 1
    assert 0 < lus[0].solves <= 50
