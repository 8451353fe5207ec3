"""End-to-end checks on a domain with two inner components: everything
downstream of the grid is generic in the number of holes."""

import numpy as np
import pytest

from arnoldstab import (
    dynamics as dyn,
    field,
    functionals as fn,
    grid,
    harmonic,
    rearrange as ra,
    spectra,
    steady,
)


def test_geometry_and_gram(two_hole_basis):
    b = two_hole_basis
    assert b.domain.n_components == 3
    assert b.n == 2
    # mirror symmetry of the two holes
    assert abs(b.p[0, 0] - b.p[1, 1]) <= 1e-8 * b.p[0, 0]
    assert b.p[0, 1] < 0  # basis fields overlap through the shared fluid


def test_stream_and_circulations(two_hole_basis):
    b = two_hole_basis
    dom = b.domain
    sol = field.stream_solve(b, dom.constant(0.5), [0.8, -0.3])
    assert sol.flux_errors.max() <= 1e-9
    v = field.velocity(sol.psi)
    assert abs(field.circulation(v, 1, omega=sol.omega) - 0.8) <= 0.02
    assert abs(field.circulation(v, 2, omega=sol.omega) + 0.3) <= 0.02


def test_x_decomposition_two_components(two_hole_basis):
    b = two_hole_basis
    dom = b.domain
    u = grid.ScalarField(
        dom, 2.0 * b.zetas[0].values - 1.5 * b.zetas[1].values
    )
    theta, v = harmonic.x_decompose(b, u)
    assert np.abs(theta - [2.0, -1.5]).max() <= 1e-8
    assert np.abs(v.values).max() <= 1e-8


def test_spectra_and_criterion(two_hole_basis):
    b = two_hole_basis
    lam = spectra.lambda_plain(b)
    big = spectra.lambda_big(b)
    assert abs(lam.value * big.value - 1.0) <= 1e-8
    assert np.abs(lam.flux_diag).max() <= 1e-9

    st = steady.steady_linear(b, 0.4 * lam.value, [0.5, 0.2])
    assert st.certified
    rep = spectra.check_stability(b, st)
    assert rep.criterion_ok and rep.arnold_ok

    lp = fn.legendre(st.g)
    ec = fn.energy_casimir(b, st.omega_bar, st.a, lp)
    dhat, mu = fn.supporting_d_hat(b, st.omega_bar, st.a, st.g, st.mass)
    assert abs(dhat - ec) <= 1e-6 * max(1.0, abs(ec))
    assert abs(mu) <= 1e-6

    probe = ra.local_max_probe(b, st, 0.1 * grid.lp_norm(st.omega_bar), 20, 5)
    assert probe.violations == 0


def test_transport_monitors_both_holes(two_hole_basis):
    b = two_hole_basis
    lam = spectra.lambda_plain(b).value
    st = steady.steady_linear(b, 0.4 * lam, [0.5, 0.2])
    cfg = dyn.SimConfig(t_final=0.5, monitor_every=5, reference=st.omega_bar)
    series = dyn.run(b, st.omega_bar.copy(), st.a, cfg)
    assert series.columns[-2:] == ("circ_1", "circ_2")
    c1 = series.column("circ_1")
    c2 = series.column("circ_2")
    assert np.abs(c1 - c1[0]).max() <= 1e-3 * abs(c1[0])
    assert np.abs(c2 - c2[0]).max() <= 1e-3 * abs(c2[0])


def test_steady_state_fixed_point_at_frame_edge(two_hole_basis):
    """The outer wall of this mask lies on the frame edge, so the stencils of
    its nodes reach past the frame; the steady state must still be a
    discrete fixed point of transport, without any radial symmetry."""
    b = two_hole_basis
    lam = spectra.lambda_plain(b).value
    st = steady.steady_linear(b, 0.4 * lam, [0.5, 0.2])
    cfg = dyn.SimConfig(t_final=0.5, reference=st.omega_bar)
    series = dyn.run(b, st.omega_bar.copy(), st.a, cfg)
    assert series.sup_dist <= 1e-9 * grid.lp_norm(st.omega_bar)


def test_kappa_at_dirichlet_ground_certifies(two_hole_basis):
    """A slope equal to the lowest zero-boundary eigenvalue is no resonance
    of the bordered system, with two inner components as with one."""
    from scipy.sparse.linalg import eigsh

    b = two_hole_basis
    sys = b.system
    lam_d = float(eigsh(sys.Ah2 / sys.h2, k=1, sigma=0, return_eigenvectors=False)[0])
    st = steady.steady_linear(b, lam_d, [0.5, 0.2])
    assert st.certified
    assert st.flux_errors.max() <= 1e-9


def test_steady_linear_near_degenerate_dirichlet_pair():
    """Two holes placed so that the two lowest zero-boundary eigenvalues are
    close (ratio 0.958), which once stalled a zero-boundary ground-value
    iteration in steady_linear's former resonance check."""
    from scipy.sparse.linalg import eigsh

    mask = np.ones((64, 128), dtype=bool)
    for y, x in ((8, 35), (37, 76)):
        mask[y : y + 20, x : x + 20] = False
    b = harmonic.solve_basis(grid.label_components(mask, h=1.0 / 32))
    sys = b.system
    low = np.sort(eigsh(sys.Ah2 / sys.h2, k=2, sigma=0.0, return_eigenvectors=False))
    assert low[0] / low[1] > 0.95

    lam = spectra.lambda_plain(b).value
    st = steady.steady_linear(b, 0.5 * lam, [0.5, 0.2])
    assert st.certified
