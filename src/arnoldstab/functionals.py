"""Scalar functionals of the flow: kinetic energy, Casimir integrals,
energy-Casimir, and the family of supporting functionals with their
shift-parameter equation.

Vorticity profiles are represented by :class:`GFunc` (affine, or one
piecewise polynomial).  Profiles are extended outside a working interval by
C1 quadratic collars of unit width followed by linear tails, which guarantees
the growth needed by the Legendre transform; the transform itself is
evaluated through the generalized inverse, for which the defining supremum is
attained exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator, PPoly

from . import grid as g
from .errors import ConvergenceError, GridError
from .field import h_field, p_apply


class GFunc:
    """Increasing vorticity profile g with derivative g' and antiderivative G.

    An affine profile (kinds 'linear' and 'affine') holds its `slope` and
    `offset`.  Any other holds one piecewise polynomial `poly` (a scipy
    PPoly, extrapolated by its end pieces): kind 'tabulated' is the C1
    monotone interpolant of a table, kind 'extended' another profile with
    quadratic collars and linear tails (see `extend_g`).  g' and G are that
    polynomial's own derivative and antiderivative, G anchored at 0.
    """

    def __init__(self, kind, slope=0.0, offset=0.0, poly=None):
        if kind not in ("linear", "affine", "tabulated", "extended"):
            raise GridError("unknown profile kind %r" % kind)
        self.kind = kind
        self.slope = float(slope)
        self.offset = float(offset)
        self.poly = poly
        if poly is not None:
            self._dpoly = poly.derivative()
            self._apoly = poly.antiderivative()
            self._apoly0 = self._apoly(0.0)

    # -- evaluation -------------------------------------------------------------

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.poly is not None:
            return self.poly(s)
        if self.kind == "linear":
            return self.slope * s
        return self.slope * s + self.offset

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        if self.poly is not None:
            return self._dpoly(s)
        return np.full_like(s, self.slope)

    def antideriv(self, s):
        """G(s) = integral of g from 0 to s."""
        s = np.asarray(s, dtype=float)
        if self.poly is not None:
            return self._apoly(s) - self._apoly0
        if self.kind == "linear":
            return 0.5 * self.slope * s * s
        return 0.5 * self.slope * s * s + self.offset * s

    # -- structure queries --------------------------------------------------------

    @property
    def has_linear_tails(self) -> bool:
        if self.poly is None:
            return self.slope > 0.0
        return self.kind == "extended"

    def median_slope(self) -> float:
        if self.poly is None:
            return self.slope
        x = self.poly.x
        if self.kind == "extended":
            # the extension interval [lo, hi], inside the tail and collar pieces
            x = np.linspace(x[2], x[-3], 257)
        return float(np.median(self.deriv(x)))

    # -- constructors ---------------------------------------------------------------

    @staticmethod
    def linear(slope) -> "GFunc":
        return GFunc("linear", slope=slope)

    @staticmethod
    def affine(slope, offset) -> "GFunc":
        return GFunc("affine", slope=slope, offset=offset)

    @staticmethod
    def tabulated(knots, values) -> "GFunc":
        knots = np.asarray(knots, dtype=float)
        vals = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != vals.shape or len(knots) < 2:
            raise GridError("tabulated profile needs matching 1D knots/values")
        if not (np.isfinite(knots).all() and np.isfinite(vals).all()):
            raise GridError("tabulated knots and values must be finite")
        if np.any(np.diff(knots) <= 0):
            raise GridError("tabulated knots must be strictly increasing")
        if np.any(np.diff(vals) < 0):
            raise GridError("non-monotone tabulated input")
        return GFunc("tabulated", poly=PchipInterpolator(knots, vals, extrapolate=True))


def extend_g(gf: GFunc, lo: float, hi: float) -> GFunc:
    """Extend an increasing profile beyond [lo, hi].

    The extension equals gf on [lo, hi], blends through C1 quadratic collars
    of unit width, and continues linearly with slopes max(g'(hi), 1) upward
    and max(g'(lo), 1) downward; it is strictly increasing outside [lo, hi]
    and grows linearly at both ends.  Profiles that already satisfy this
    (positive-slope linear/affine) are returned unchanged.

    The result is one piecewise polynomial: a linear tail on [lo - 2, lo - 1]
    (extrapolated to -inf), the collars on [lo - 1, lo] and [hi, hi + 1] with
    gf's pieces between them, and a linear tail on [hi + 1, hi + 2] (to +inf).
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise GridError("need lo < hi for the extension interval")
    if gf.kind in ("linear", "affine"):
        if gf.slope > 0.0:
            return gf
        if gf.slope < 0.0:
            raise GridError("profile is decreasing; cannot extend")
    sample = np.linspace(lo, hi, 1025)
    if np.any(np.diff(gf(sample)) < -1e-12 * max(1.0, float(np.abs(gf(sample)).max()))):
        raise GridError("profile is not increasing on the extension interval")
    if gf.kind == "tabulated":
        if lo < gf.poly.x[0] - 1e-12 or hi > gf.poly.x[-1] + 1e-12:
            raise GridError("extension interval exceeds the tabulated range")

    gp_lo = float(gf.deriv(lo))
    gp_hi = float(gf.deriv(hi))
    c_lo = max(gp_lo, 1.0)
    c_hi = max(gp_hi, 1.0)
    kap_lo = gp_lo - c_lo  # collar curvature below (slope grows to c_lo)
    kap_hi = c_hi - gp_hi
    g_lo = float(gf(lo))
    g_hi = float(gf(hi))
    v_lo = g_lo - gp_lo + 0.5 * kap_lo  # collar value at lo - 1
    v_hi = g_hi + gp_hi + 0.5 * kap_hi  # collar value at hi + 1

    if gf.poly is None:  # an affine core is one piece
        core_x, core = [lo, hi], [[gp_lo, g_lo]]
    else:  # gf's own pieces, by their Taylor coefficients at their left ends
        p = gf.poly
        core_x = np.r_[lo, p.x[(p.x > lo) & (p.x < hi)], hi]
        core = np.transpose([p(core_x[:-1], k) / math.factorial(k) for k in range(len(p.c))[::-1]])
    pieces = [[c_lo, v_lo - c_lo], [0.5 * kap_lo, c_lo, v_lo], *core]
    pieces += [[0.5 * kap_hi, gp_hi, g_hi], [c_hi, v_hi]]
    coef = np.zeros((max(map(len, pieces)), len(pieces)))
    for j, c in enumerate(pieces):
        coef[len(coef) - len(c) :, j] = c
    x = np.r_[lo - 2.0, lo - 1.0, core_x, hi + 1.0, hi + 2.0]
    return GFunc("extended", poly=PPoly(coef, x))


@dataclass
class LegendrePair:
    """Convex antiderivative G, its transform Ghat, and the generalized
    inverse f of the profile; F = Ghat - Ghat(0) is the antiderivative of f."""

    g: GFunc
    f: Callable
    G: Callable
    Ghat: Callable
    ghat0: float

    def F(self, s):
        return self.Ghat(s) - self.ghat0


def _generalized_inverse(gf: GFunc):
    """f(s) = smallest tau with g(tau) = s, by vectorized monotone bisection."""

    if gf.kind in ("linear", "affine") and gf.slope > 0.0:
        return lambda s: (np.asarray(s, dtype=float) - gf.offset) / gf.slope

    def f(s):
        s = np.asarray(s, dtype=float)
        shape = s.shape
        s = np.atleast_1d(s).astype(float)
        lo = np.full(s.shape, -1.0)
        hi = np.full(s.shape, 1.0)
        for _ in range(200):
            bad = gf(lo) >= s
            if not bad.any():
                break
            lo[bad] = 2.0 * lo[bad] - 1.0
        else:
            raise ConvergenceError("inverse bracket expansion failed (lower end)")
        for _ in range(200):
            bad = gf(hi) < s
            if not bad.any():
                break
            hi[bad] = 2.0 * hi[bad] + 1.0
        else:
            raise ConvergenceError("inverse bracket expansion failed (upper end)")
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            ge = gf(mid) >= s
            hi[ge] = mid[ge]
            lo[~ge] = mid[~ge]
        out = hi
        return out.reshape(shape) if shape else float(out[0])

    return f


# relative bracket width, and the iteration cap, of `_golden_min`
_GOLDEN_TOL = 1e-12
_GOLDEN_MAX_ITER = 300


def _golden_min(fun, lo, hi):
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if abs(b - a) <= _GOLDEN_TOL * max(1.0, abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def legendre(gf: GFunc) -> LegendrePair:
    """Build the Legendre transform machinery for a linearly growing profile.

    Ghat(s) = sup_tau (s tau - G(tau)); since g covers the whole line the
    supremum is attained at tau = f(s), so Ghat is evaluated exactly through
    the generalized inverse.  Ghat(0) is cross-checked against a derivative
    free golden-section minimization of G.
    """
    if not gf.has_linear_tails:
        raise GridError("profile must be extended (linear growth) before the transform")
    f = _generalized_inverse(gf)
    G = gf.antideriv

    def Ghat(s):
        tau = f(s)
        return np.asarray(s, dtype=float) * tau - G(tau)

    ghat0 = float(Ghat(0.0))
    # independent route: Ghat(0) = -min G, located by golden section
    root = float(np.atleast_1d(f(0.0))[0])
    x0, gmin = _golden_min(lambda t: float(G(t)), root - 4.0, root + 4.0)
    if abs(-gmin - ghat0) > 1e-8 * max(1.0, abs(ghat0)):
        raise ConvergenceError(
            "Legendre transform self-check failed: envelope %.3e vs search %.3e"
            % (ghat0, -gmin)
        )
    return LegendrePair(g=gf, f=f, G=G, Ghat=Ghat, ghat0=ghat0)


# -- flow functionals ------------------------------------------------------------


class _Sample:
    """One vorticity sample w with circulations a, and the terms that every
    flow functional of it reads: one circulation-free solve Pw, the harmonic
    field h_a, psi_w = Pw + h_a, int w Pw and (1/2) a.q a.

    The public functionals below each build one and read one value from it;
    a probe builds one per sample and reads them all, so it pays for one
    stream solve per sample."""

    def __init__(self, basis, w: g.ScalarField, a):
        dom = basis.domain
        av = g.as_circulation(a, dom)
        self.domain = dom
        self.w = w
        self.Pw = p_apply(basis, w)
        # h_a, kept by the domain for the latest circulations: every sample
        # of a probe has the same ones
        self.ha = g.cached(dom, "h_field", lambda: h_field(basis, av).values, tag=av)
        self.psi_w = self.Pw.values + self.ha
        self.w_pw = g.integrate(g.ScalarField(dom, w.values * self.Pw.values))
        self.half_aqa = 0.5 * float(av @ (basis.q @ av))

    @cached_property
    def energy(self) -> float:
        term1 = 0.5 * self.w_pw
        term2 = g.integrate(g.ScalarField(self.domain, self.ha * self.w.values))
        return term1 + term2 + self.half_aqa

    def energy_casimir(self, lp: LegendrePair) -> float:
        return self.energy - casimir(self.domain, self.w, lp)

    def _d_core(self, gf: GFunc, psi) -> float:
        """-(1/2) int w Pw + int G(psi)."""
        quad = -0.5 * self.w_pw
        return quad + g.integrate(g.ScalarField(self.domain, gf.antideriv(psi)))

    def d(self, gf: GFunc) -> float:
        return self._d_core(gf, self.psi_w) + self.half_aqa

    def d_s(self, gf: GFunc, s: float, m: float) -> float:
        core = self._d_core(gf, self.psi_w - float(s))
        return core + float(s) * float(m) + self.half_aqa

    def d_hat(self, gf: GFunc, m: float):
        if not gf.has_linear_tails:
            raise GridError("profile must be extended before evaluating the infimum")
        mu = solve_mu(self.domain, self.psi_w[self.domain.interior_ids], gf, m)
        core = self._d_core(gf, self.psi_w - mu)
        return core + mu * float(m) + self.half_aqa, mu

    def mu_residual(self, gf: GFunc, mu: float, m: float) -> float:
        """|int g(psi_w - mu) - m|, the residual of the shift equation."""
        h2 = self.domain.h * self.domain.h
        return abs(float(np.sum(gf(self.psi_w[self.domain.interior_ids] - mu))) * h2 - m)


def energy(basis, omega: g.ScalarField, a) -> float:
    """Kinetic energy from vorticity and circulations:
    (1/2) int w Pw + int h_a w + (1/2) a.q a."""
    return _Sample(basis, omega, a).energy


def casimir(domain, w: g.ScalarField, lp: LegendrePair) -> float:
    """int Ghat(w); exactly invariant under permutations of the cell values."""
    return g.integrate(g.ScalarField(domain, lp.Ghat(w.values)))


def energy_casimir(basis, w: g.ScalarField, a, lp: LegendrePair) -> float:
    """EC(w) = E(w, a) - int Ghat(w)."""
    return _Sample(basis, w, a).energy_casimir(lp)


def supporting_d(basis, w: g.ScalarField, a, gf: GFunc) -> float:
    """D(w) = -(1/2) int w Pw + int G(Pw + h_a) + (1/2) a.q a."""
    return _Sample(basis, w, a).d(gf)


def supporting_d_s(basis, w: g.ScalarField, a, gf: GFunc, s: float, m: float) -> float:
    """Shifted supporting functional D_s(w) with mass parameter m."""
    return _Sample(basis, w, a).d_s(gf, s, m)


# largest |s| the bracket of `solve_mu` may reach
_MU_SPAN_CAP = 2.0**20
# secant steps of `solve_mu` before its bisection, and the relative width of
# the signed bracket at which they stop
_MU_SECANT_STEPS = 12
_MU_SECANT_TOL = 2.5e-15


def _signed_bracket(fval, a, fa, b, fb):
    """Points p < q with fval(p) > 0 > fval(q), found by Illinois secant steps
    from a bracket a < b with fa >= 0 >= fb, and as close together as the
    rounding of fval allows within _MU_SECANT_STEPS evaluations.  An end
    whose value is not strictly signed is returned as an infinity."""
    side = 0
    for _ in range(_MU_SECANT_STEPS):
        width = _MU_SECANT_TOL * max(1.0, abs(a), abs(b))
        if not fa > 0.0 > fb or b - a <= width:
            break
        s = b - fb * ((b - a) / (fb - fa))
        # the computed residual is a staircase: a step that would stay on the
        # stair of an end, or leave the bracket, moves width/2 inside instead
        s = min(max(s, a + 0.5 * width), b - 0.5 * width)
        fs = fval(s)
        if fs > 0.0:
            a, fa = s, fs
            if side > 0:
                fb *= 0.5
            side = 1
        elif fs < 0.0:
            b, fb = s, fs
            if side < 0:
                fa *= 0.5
            side = -1
        elif fs == 0.0:
            # s solves the equation as computed, and so may a stair around
            # it: step out from s, eightfold each time, until each side is
            # signed (the bisection then has few midpoints left to evaluate)
            a = _step_out(fval, s, a, -width)
            b = _step_out(fval, s, b, width)
            break
        else:
            break
    return (a if fa > 0.0 else -math.inf), (b if fb < 0.0 else math.inf)


def _step_out(fval, s, end, d):
    """The first of s + d, s + 8d, s + 64d, ... short of `end` whose residual
    is strictly signed (positive below s, negative above), else `end`."""
    t = s + d
    while end < t < s or s < t < end:
        if math.copysign(1.0, d) * fval(t) < 0.0:
            return t
        d *= 8.0
        t = s + d
    return end


def solve_mu(domain, psi_w_interior, gf: GFunc, m: float):
    """Shift mu with int g(psi_w - mu) = m, by monotone bisection.

    The map s -> int g(psi_w - s) is nonincreasing and covers the line thanks
    to the linear tails, so a sign change exists; the bracket is auto-expanded
    by doubling up to _MU_SPAN_CAP.

    For linear and affine profiles of slope >= 0 the residual is
    nonincreasing in s also as computed: fl(psi_i - s), fl(k x), fl(x + b),
    numpy's pairwise sum (whose association does not depend on the values),
    the product with h^2 and the subtraction of m are each monotone.  So
    once secant steps have found p < q with residual > 0 at p and < 0 at q,
    the bisection knows the sign at every midpoint outside (p, q) without
    evaluating it, and returns the same mu as evaluating every midpoint.
    Other profiles evaluate every midpoint.
    """
    h2 = domain.h * domain.h

    def fval(s):
        return float(np.sum(gf(psi_w_interior - s))) * h2 - float(m)

    span = 1.0
    f_lo = fval(-span)
    f_hi = fval(span)
    while f_lo < 0.0 or f_hi > 0.0:
        span *= 2.0
        if span > _MU_SPAN_CAP:
            raise ConvergenceError(
                "no sign change for the shift equation within |s| <= %g" % _MU_SPAN_CAP
            )
        f_lo = fval(-span)
        f_hi = fval(span)
    lo, hi = -span, span
    p, q = -math.inf, math.inf
    if gf.kind in ("linear", "affine") and gf.slope >= 0.0:
        p, q = _signed_bracket(fval, lo, f_lo, hi, f_hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= p:
            fm = 1.0
        elif mid >= q:
            fm = -1.0
        else:
            fm = fval(mid)
        if fm >= 0.0:
            lo = mid
        if fm <= 0.0:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def supporting_d_hat(basis, w: g.ScalarField, a, gf: GFunc, m: float):
    """Infimum of D_s over the shift; returns (value, mu)."""
    return _Sample(basis, w, a).d_hat(gf, m)


def stream_energy_casimir(psi_pert: g.ScalarField, lp: LegendrePair, state) -> float:
    """Stream-form energy-Casimir H evaluated at (steady stream + perturbation):
    H(u) = (1/2) int |grad u|^2 - int F(-lap u)."""
    u = state.psi_bar + psi_pert
    kin = 0.5 * g.dirichlet_form(u, u)
    w = g.neg_laplacian(u)
    dom = u.domain
    return kin - g.integrate(g.ScalarField(dom, lp.F(w.values)))
