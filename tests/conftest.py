import math

import numpy as np
import pytest

from arnoldstab import field, grid, harmonic, oracle, spectra, steady
from arnoldstab.functionals import GFunc


@pytest.fixture(scope="session")
def annulus32():
    return grid.build_annulus(1.0, 2.0, 32)


@pytest.fixture(scope="session")
def basis32(annulus32):
    return harmonic.solve_basis(annulus32)


@pytest.fixture(scope="session")
def annulus16():
    return grid.build_annulus(1.0, 2.0, 16)


@pytest.fixture(scope="session")
def basis16(annulus16):
    return harmonic.solve_basis(annulus16)


@pytest.fixture(scope="session")
def two_hole_basis():
    """Two square holes in a 40 x 64 mask at h = 1/16."""
    mask = np.ones((40, 64), dtype=bool)
    mask[14:26, 12:24] = False
    mask[14:26, 40:52] = False
    return harmonic.solve_basis(grid.label_components(mask, h=1.0 / 16))


@pytest.fixture(scope="session")
def lam32(basis32):
    return spectra.lambda_plain(basis32).value


@pytest.fixture(scope="session")
def stable_state32(basis32, lam32):
    return steady.steady_linear(basis32, 0.5 * lam32, [1.0])


@pytest.fixture(scope="session")
def radial():
    return oracle.RadialProblem(1.0, 2.0, 4096)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240801)


class CountingLU:
    """A factorization that counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def counting_factorizations(monkeypatch):
    """The list that every later factorization is appended to, each as a
    `CountingLU`."""
    lus = []
    splu = field.splu

    def counting_splu(*args, **kwargs):
        lus.append(CountingLU(splu(*args, **kwargs)))
        return lus[-1]

    monkeypatch.setattr(field, "splu", counting_splu)
    return lus


def _unbuilt():
    raise LookupError("the slot holds no value for this key and tag")


def kept(domain, key, tag=None):
    """The value that `grid.cached` keeps for (key, tag) on the domain;
    `LookupError` where the slot would have to be built."""
    return grid.cached(domain, key, _unbuilt, tag)


def same_float(a, b):
    """Equal as floats and of the same sign, so 0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def random_interior_field(dom, rng, scale=1.0):
    vals = np.where(dom.is_interior, rng.standard_normal(dom.n_nodes) * scale, 0.0)
    return grid.ScalarField(dom, vals)


def tanh_profile(lam):
    """The 2001-knot table g = (lambda/2)(0.8 s + 0.2 tanh 2s)."""
    knots = np.linspace(-3.0, 3.0, 2001)
    return GFunc.tabulated(knots, 0.5 * lam * (0.8 * knots + 0.2 * np.tanh(2 * knots)))


def plain_bisection_mu(domain, psi_w_interior, gf, m):
    """The shift equation int g(psi_w - mu) = m solved by the plain bisection
    that evaluates every midpoint: the reference for `solve_mu`."""
    h2 = domain.h * domain.h

    def fval(s):
        return float(np.sum(gf(psi_w_interior - s))) * h2 - float(m)

    span = 1.0
    f_lo = fval(-span)
    f_hi = fval(span)
    while f_lo < 0.0 or f_hi > 0.0:
        span *= 2.0
        assert span <= 2.0**20, "no sign change"
        f_lo = fval(-span)
        f_hi = fval(span)
    lo, hi = -span, span
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fval(mid)
        if fm >= 0.0:
            lo = mid
        if fm <= 0.0:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)
