"""Independent radial reference solutions on the annulus.

Everything here is one-dimensional (finite differences on a radial line or
Runge-Kutta shooting) and shares no code with the 2D masked-grid path, so
agreement between the two is genuine evidence.  Closed forms for the harmonic
basis on the annulus are included.

Conventions match the 2D solver: the stream function vanishes at the outer
radius, and a circulation a1 around the inner boundary corresponds to the
flux condition 2 pi r_in u'(r_in) = a1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .errors import ConvergenceError, GridError


@dataclass(frozen=True)
class RadialProblem:
    """Radial grid on [r_in, r_out] with n points."""

    r_in: float
    r_out: float
    n: int = 4096

    def __post_init__(self):
        if not (0.0 < self.r_in < self.r_out):
            raise GridError("need 0 < r_in < r_out")
        if self.n < 256:
            raise GridError("radial oracle needs n >= 256")

    @property
    def r(self):
        return np.linspace(self.r_in, self.r_out, self.n)

    @property
    def dr(self):
        return (self.r_out - self.r_in) / (self.n - 1)


def _radial_fd(rp: RadialProblem, omega, a1, kappa=0.0, inner="flux"):
    """Second-order FD solve of u'' + u'/r + kappa u = -omega(r).

    Outer condition u(r_out) = 0.  Inner condition: either the flux condition
    2 pi r_in u'(r_in) = a1 ('flux', via a ghost node) or u(r_in) = a1
    ('dirichlet').
    """
    r = rp.r
    dr = rp.dr
    n = rp.n
    om = np.asarray(omega(r), dtype=float) if callable(omega) else np.full(n, float(omega))

    # rows 0..n-2 unknown (u[n-1] = 0); banded tridiagonal storage
    lower = np.zeros(n - 1)
    diag = np.zeros(n - 1)
    upper = np.zeros(n - 1)
    rhs = np.zeros(n - 1)

    i = np.arange(1, n - 1)
    ld = 1.0 / dr**2 - 1.0 / (2 * r[i] * dr)
    dd = -2.0 / dr**2 + kappa
    ud = 1.0 / dr**2 + 1.0 / (2 * r[i] * dr)
    diag[i] = dd
    lower[i - 1] = ld
    upper[i] = np.where(i + 1 <= n - 2, ud, 0.0)
    rhs[i] = -om[i]

    if inner == "flux":
        # ghost node u[-1] = u[1] - 2 dr u'(r_in), u'(r_in) = a1/(2 pi r_in)
        up0 = a1 / (2 * math.pi * rp.r_in)
        diag[0] = -2.0 / dr**2 + kappa
        upper[0] = 2.0 / dr**2
        rhs[0] = -om[0] + up0 * (2.0 / dr - 1.0 / r[0])
    elif inner == "dirichlet":
        diag[0] = 1.0
        upper[0] = 0.0
        rhs[0] = a1
    else:
        raise ValueError("unknown inner condition %r" % inner)

    ab = np.zeros((3, n - 1))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[:-1]
    u = solve_banded((1, 1), ab, rhs)
    return np.concatenate([u, [0.0]])


def radial_stream(rp: RadialProblem, omega, a1: float):
    """Stream profile with vorticity omega(r) and inner circulation a1.

    Returns u(r) on rp.r with u(r_out) = 0 and 2 pi r_in u'(r_in) = a1.
    """
    return _radial_fd(rp, omega, a1, kappa=0.0, inner="flux")


def radial_green(rp: RadialProblem, omega):
    """Radial inverse Laplacian with u(r_in) = u(r_out) = 0."""
    return _radial_fd(rp, omega, 0.0, kappa=0.0, inner="dirichlet")


def radial_steady_linear(rp: RadialProblem, kappa: float, a1: float):
    """Shooting solve of u'' + u'/r + kappa u = 0 with u(r_out) = 0 and the
    inner flux condition; the linear steady profile for slope kappa."""
    up0 = a1 / (2 * math.pi * rp.r_in)
    u_a = _shoot(rp, kappa, 1.0, up0)
    u_b = _shoot(rp, kappa, 0.0, up0)
    # superposition: solution = u_b + c (u_a - u_b) with zero outer value
    den = u_a[-1] - u_b[-1]
    if abs(den) < 1e-300:
        raise ConvergenceError("radial steady shoot degenerate (kappa resonant?)")
    c = -u_b[-1] / den
    return u_b + c * (u_a - u_b)


def _shoot(rp: RadialProblem, mu: float, u0: float, up0: float):
    """RK4 integration of u'' + u'/r + mu u = 0 from r_in with (u0, up0)."""
    n = rp.n
    r = rp.r_in
    dr = rp.dr
    u = u0
    v = up0
    out = np.empty(n)
    out[0] = u

    def f(rr, uu, vv):
        return vv, -vv / rr - mu * uu

    for i in range(1, n):
        k1u, k1v = f(r, u, v)
        k2u, k2v = f(r + dr / 2, u + dr / 2 * k1u, v + dr / 2 * k1v)
        k3u, k3v = f(r + dr / 2, u + dr / 2 * k2u, v + dr / 2 * k2v)
        k4u, k4v = f(r + dr, u + dr * k3u, v + dr * k3v)
        u += dr / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v += dr / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        r += dr
        out[i] = u
    return out


def eigen_mismatch(rp: RadialProblem, mu: float) -> float:
    """Outer value of the unit-start zero-slope shoot; roots are eigenvalues
    of the radial problem with u'(r_in) = 0 and u(r_out) = 0."""
    return float(_shoot(rp, mu, 1.0, 0.0)[-1])


# relative width at which the eigenvalue root search of `radial_eigen` stops
_BISECT_TOL = 1e-10


def radial_eigen(rp: RadialProblem, kind: str = "lambda_Y") -> float:
    """Smallest eigenvalue of -lap on the annulus, radial modes.

    kind 'lambda_Y': u'(r_in) = 0, u(r_out) = 0 (the zero-flux problem).
    kind 'dirichlet': u(r_in) = u(r_out) = 0.

    The bracket [1e-8, hi] is widened by doubling hi until the shoot's outer
    value changes sign; Brent's method then finds the root in it to a width
    of _BISECT_TOL * max(1, hi), in a quarter to a third of the shoots that
    bisection takes.
    """
    if kind == "lambda_Y":
        mismatch = lambda mu: eigen_mismatch(rp, mu)
    elif kind == "dirichlet":
        mismatch = lambda mu: float(_shoot(rp, mu, 0.0, 1.0)[-1])
    else:
        raise ValueError("unknown eigenvalue kind %r" % kind)

    lo = 1e-8
    f_lo = mismatch(lo)
    hi = 1.0
    f_hi = mismatch(hi)
    while f_lo * f_hi > 0:
        hi *= 2.0
        if hi > 1e7:
            raise ConvergenceError("no sign change while bracketing the eigenvalue")
        f_hi = mismatch(hi)
    ends = {lo: f_lo, hi: f_hi}  # brentq evaluates both ends again
    return brentq(
        lambda mu: ends[mu] if mu in ends else mismatch(mu),
        lo,
        hi,
        xtol=_BISECT_TOL * max(1.0, hi),
    )


def annulus_closed_forms(r_in: float, r_out: float):
    """Closed-form harmonic basis data on the annulus.

    Returns (zeta, p11, q11) with zeta(r) = ln(r_out / r) / ln(r_out / r_in),
    p11 = 2 pi / ln(r_out / r_in) and q11 = 1 / p11.
    """
    if not (0.0 < r_in < r_out):
        raise GridError("need 0 < r_in < r_out")
    logratio = math.log(r_out / r_in)

    def zeta(r):
        return np.log(r_out / np.asarray(r, dtype=float)) / logratio

    p11 = 2 * math.pi / logratio
    return zeta, p11, 1.0 / p11
