import math

import numpy as np
import pytest

from arnoldstab import grid, harmonic
from arnoldstab.errors import GridError

from conftest import random_interior_field


def test_zeta_matches_closed_form(annulus32, basis32):
    dom = annulus32
    r = np.hypot(dom.node_x, dom.node_y)[dom.interior_ids]
    exact = np.log(2.0 / r) / math.log(2.0)
    err = np.abs(basis32.zetas[0].values[dom.interior_ids] - exact).max()
    assert err <= 0.01


def test_p11_matches_closed_form(basis32):
    exact = 2 * math.pi / math.log(2.0)
    assert abs(basis32.p[0, 0] / exact - 1.0) <= 0.02


def test_q_is_inverse(basis32):
    n = basis32.n
    assert np.abs(basis32.p @ basis32.q - np.eye(n)).max() <= 1e-10
    assert abs(basis32.q[0, 0] * basis32.p[0, 0] - 1.0) <= 1e-12


def test_zeta_barrier_bounds(basis32):
    z = basis32.zetas[0].values
    assert z.min() >= -1e-9 and z.max() <= 1 + 1e-9


def test_p_spd(basis32):
    eigs = np.linalg.eigvalsh(basis32.p)
    assert eigs.min() > 0


def test_x_decompose_of_zeta(basis32):
    theta, v = harmonic.x_decompose(basis32, basis32.zetas[0])
    assert abs(theta[0] - 1.0) <= 1e-8
    assert np.abs(v.values).max() <= 1e-8


def test_x_decompose_zero_boundary_field(basis32, rng):
    u = random_interior_field(basis32.domain, rng)
    theta, v = harmonic.x_decompose(basis32, u)
    assert np.abs(theta).max() <= 1e-6
    assert np.abs(v.values - u.values).max() <= 1e-6


def test_x_decompose_linearity(basis32, rng):
    dom = basis32.domain
    w = random_interior_field(dom, rng)
    u = grid.ScalarField(dom, 3.0 * basis32.zetas[0].values + w.values)
    theta, _ = harmonic.x_decompose(basis32, u)
    assert abs(theta[0] - 3.0) <= 1e-6


def test_x_decompose_rejects_nonconstant_boundary(basis32, rng):
    dom = basis32.domain
    vals = np.zeros(dom.n_nodes)
    bid = dom.boundary_ids(1)
    vals[bid] = np.linspace(0, 1, len(bid))
    with pytest.raises(GridError):
        harmonic.x_decompose(basis32, dom.field(vals))


def test_p_permutation_equivariance_two_holes():
    # mirror-symmetric two-hole domain: swapping the holes must swap p
    mask = np.ones((30, 52), dtype=bool)
    mask[12:18, 10:16] = False
    mask[12:18, 36:42] = False
    dom = grid.label_components(mask, h=1.0 / 8)
    basis = harmonic.solve_basis(dom)
    assert basis.n == 2
    assert abs(basis.p[0, 0] - basis.p[1, 1]) <= 1e-8 * basis.p[0, 0]
    assert abs(basis.p[0, 1] - basis.p[1, 0]) <= 1e-12
