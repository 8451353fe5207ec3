import math

import numpy as np
import pytest

from arnoldstab import oracle
from arnoldstab.errors import GridError


def test_radial_problem_validation():
    with pytest.raises(GridError):
        oracle.RadialProblem(2.0, 1.0)
    with pytest.raises(GridError):
        oracle.RadialProblem(1.0, 2.0, n=16)


def test_radial_stream_log_solution(radial):
    gamma = 0.7
    u = oracle.radial_stream(radial, lambda r: 0.0 * r, gamma)
    exact = gamma / (2 * math.pi) * np.log(radial.r / radial.r_out)
    assert np.abs(u - exact).max() < 1e-6


def test_radial_stream_quadratic_log_closed_form(radial):
    # omega = c with zero inner slope: u = -c r^2/4 + A ln r + B; the inner
    # condition u'(r_in) = 0 fixes A, the outer value fixes B
    c = 1.3
    r_in, r_out = radial.r_in, radial.r_out
    A = c * r_in**2 / 2.0
    B = c * r_out**2 / 4.0 - A * math.log(r_out)
    exact = lambda r: -c * r**2 / 4.0 + A * np.log(r) + B

    # closed form satisfies the continuous equation (algebra self-check)
    rs = np.linspace(r_in, r_out, 11)
    upp = -c / 2.0 - A / rs**2
    up = -c * rs / 2.0 + A / rs
    assert np.abs(upp + up / rs + c).max() < 1e-10

    a1 = 0.0 * 2 * math.pi * r_in  # u'(r_in) = 0
    u = oracle.radial_stream(radial, lambda r: np.full_like(r, c), a1)
    assert np.abs(u - exact(radial.r)).max() < 1e-6


def test_radial_stream_second_order():
    errs = []
    for n in (512, 1024):
        rp = oracle.RadialProblem(1.0, 2.0, n)
        ref = oracle.RadialProblem(1.0, 2.0, 16384)
        uref = oracle.radial_stream(ref, lambda r: np.ones_like(r), 0.3)
        u = oracle.radial_stream(rp, lambda r: np.ones_like(r), 0.3)
        errs.append(np.abs(u - np.interp(rp.r, ref.r, uref)).max())
    assert errs[0] / errs[1] > 3.0


def test_radial_green_boundary_values(radial):
    u = oracle.radial_green(radial, lambda r: np.ones_like(r))
    assert abs(u[0]) < 1e-12 and abs(u[-1]) < 1e-12
    assert u.max() > 0


def test_eigen_bracket_sign_change(radial):
    lam = oracle.radial_eigen(radial, "lambda_Y")
    assert oracle.eigen_mismatch(radial, 1e-8) * oracle.eigen_mismatch(radial, 2 * lam) < 0


def test_eigen_monotone_in_gap():
    vals = []
    for r_in in (1.0, 1.3, 1.6):
        rp = oracle.RadialProblem(r_in, 2.0, 2048)
        vals.append(oracle.radial_eigen(rp, "lambda_Y"))
    assert vals[0] < vals[1] < vals[2]


def test_eigen_resolution_stable(radial):
    a = oracle.radial_eigen(radial, "lambda_Y")
    rp2 = oracle.RadialProblem(1.0, 2.0, 2 * radial.n)
    b = oracle.radial_eigen(rp2, "lambda_Y")
    assert abs(a - b) < 1e-6 * max(1.0, a)


def test_lambda_below_dirichlet(radial):
    assert oracle.radial_eigen(radial, "lambda_Y") < oracle.radial_eigen(radial, "dirichlet")


def test_closed_forms():
    zeta, p11, q11 = oracle.annulus_closed_forms(1.0, 2.0)
    assert abs(p11 - 2 * math.pi / math.log(2)) < 1e-14
    assert abs(q11 * p11 - 1.0) < 1e-14
    assert abs(zeta(1.0) - 1.0) < 1e-14 and abs(zeta(2.0)) < 1e-14
    _, p_e, _ = oracle.annulus_closed_forms(1.0, math.e)
    assert abs(p_e - 2 * math.pi) < 1e-12


def test_steady_linear_profile_flux(radial):
    kap = 1.6
    u = oracle.radial_steady_linear(radial, kap, 1.0)
    assert abs(u[-1]) < 1e-12  # outer value
    up0 = (u[1] - u[0]) / radial.dr
    assert abs(2 * math.pi * radial.r_in * up0 - 1.0) < 5e-3  # inner flux


def _bisected_eigen(rp, kind):
    """The eigenvalue by plain bisection of the bracket `radial_eigen` finds,
    to the same width: the reference for its Brent root search."""
    if kind == "lambda_Y":
        mismatch = lambda mu: oracle.eigen_mismatch(rp, mu)
    else:
        mismatch = lambda mu: float(oracle._shoot(rp, mu, 0.0, 1.0)[-1])
    lo, hi = 1e-8, 1.0
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    while f_lo * f_hi > 0:
        hi *= 2.0
        f_hi = mismatch(hi)
    while hi - lo > oracle._BISECT_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        f_mid = mismatch(mid)
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind", ["lambda_Y", "dirichlet"])
def test_eigen_root_search_matches_bisection(kind, monkeypatch):
    """Brent's method finds the root bisection finds, within the stopping
    width, in at most 16 shoots (bisection takes 38 to 40)."""
    rp = oracle.RadialProblem(1.0, 2.0, 1024)
    ref = _bisected_eigen(rp, kind)
    shoot = oracle._shoot
    shoots = []
    monkeypatch.setattr(oracle, "_shoot", lambda *a: shoots.append(a) or shoot(*a))
    lam = oracle.radial_eigen(rp, kind)
    assert abs(lam - ref) <= oracle._BISECT_TOL * max(1.0, ref)
    assert len(shoots) <= 16
