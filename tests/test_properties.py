"""Property-based checks at the input boundaries and of the exact sum.

* `grid._exact_sum` equals math.fsum bit for bit on finite float64 arrays;
* a field file written by `write_field` reads back exactly, and a domain
  whose node coordinates overflow is rejected with GridError;
* arbitrary bytes given to the file parsers raise nothing but GridError;
* a random mask either is rejected with GridError or labels into a domain
  whose summation-by-parts identity and flux tables hold;
* swap walks are exact rearrangements: histogram distance 0 and
  integrals of pointwise functions bitwise unchanged.
"""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from arnoldstab import grid, rearrange
from arnoldstab.errors import GridError

from conftest import same_float

_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)


# -- exactly rounded sum ----------------------------------------------------------


@st.composite
def sum_inputs(draw):
    """Up to 5,000 values: a seeded bulk with log-uniform magnitudes between
    two drawn binary exponents (subnormals to 1e300), drawn values with the
    negatives of some of them (cancelling pairs), and signed zeros."""
    n = draw(st.integers(0, 5000))
    lo, hi = sorted(draw(st.lists(st.integers(-1074, 996), min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = rng.choice([-1.0, 1.0], n) * np.exp2(rng.uniform(lo, hi, n))
    picked = draw(st.lists(moderate, max_size=40))
    cancel = [-v for v in draw(st.lists(st.sampled_from(picked), max_size=40))] if picked else []
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=4))
    mirror = -bulk[: draw(st.integers(0, n))]
    vals = np.concatenate([bulk, mirror, picked, cancel, zeros]).astype(float)
    rng.shuffle(vals)
    return vals


@_SETTINGS
@given(sum_inputs())
def test_exact_sum_equals_fsum(vals):
    assert same_float(grid._exact_sum(vals), math.fsum(vals))


@_SETTINGS
@given(hnp.arrays(np.float64, st.integers(0, 200), elements=finite))
def test_exact_sum_equals_fsum_full_range(vals):
    try:
        want = math.fsum(vals)
    except OverflowError:
        assume(False)
    assert same_float(grid._exact_sum(vals), want)


# -- field files ------------------------------------------------------------------


def _two_hole_mask():
    mask = np.ones((12, 16), dtype=bool)
    mask[3:6, 3:6] = False
    mask[6:9, 9:13] = False
    return mask


_KINDS = (
    grid.build_annulus(1.0, 2.0, 9).kinds,
    grid.label_components(_two_hole_mask()).kinds,
)


@_SETTINGS
@given(
    st.sampled_from(_KINDS),
    st.floats(min_value=1e-300, max_value=1e307),
    finite,
    finite,
    st.data(),
)
def test_field_file_roundtrip_exact(kinds, h, x0, y0, data):
    """Origins anywhere in the finite range: a domain whose node coordinates
    overflow is rejected, every other one round-trips."""
    iy, ix = np.nonzero(kinds)
    with np.errstate(over="ignore"):
        far = (x0 + ix.max() * h, y0 + iy.max() * h)
    if not np.isfinite(far).all():
        with pytest.raises(GridError, match="finite"):
            grid.GridDomain(kinds, h, origin=(x0, y0))
        return
    dom = grid.GridDomain(kinds, h, origin=(x0, y0))
    values = data.draw(hnp.arrays(np.float64, dom.n_nodes, elements=finite))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.sfld"
        grid.write_field(path, grid.ScalarField(dom, values))
        back = grid.read_field(path)
    assert back.values.tobytes() == values.tobytes()
    assert np.array_equal(back.domain.kinds, kinds)
    assert (back.domain.h, back.domain.origin) == (dom.h, dom.origin)


def _raises_only_grid_error(reader, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(payload)
        try:
            reader(path)
        except GridError:
            pass


small_int = st.integers(0, 12)
junk = st.binary(max_size=64)


@st.composite
def field_bytes(draw):
    """Byte strings with the field magic and a small header, so that the
    parser gets past its first check."""
    nx, ny = draw(small_int), draw(small_int)
    h, x0, y0 = draw(st.tuples(st.floats(), st.floats(), st.floats()))
    head = struct.pack("<II", nx, ny) + struct.pack("<ddd", h, x0, y0)
    tags = bytes(draw(st.lists(st.sampled_from([0, 1, 2, 3, 255]), max_size=nx * ny + 2)))
    return b"SFLD" + head + tags + draw(junk)


def _tokens(draw, n):
    toks = draw(st.lists(st.one_of(small_int.map(str), st.text(max_size=4)), max_size=n))
    return " ".join(toks).encode("utf-8", "surrogatepass")


@st.composite
def pgm_bytes(draw):
    sep = draw(st.sampled_from([b"\n", b" ", b"#c\n", b""]))
    return b"P5 " + _tokens(draw, 4) + sep + draw(junk)


@st.composite
def rle_bytes(draw):
    return b"RLE " + _tokens(draw, 12)


@_SETTINGS
@given(st.one_of(st.binary(max_size=200), field_bytes()))
def test_read_field_raises_only_grid_error(payload):
    _raises_only_grid_error(grid.read_field, payload)


@_SETTINGS
@given(st.one_of(st.binary(max_size=200), pgm_bytes()))
def test_mask_from_pgm_raises_only_grid_error(payload):
    _raises_only_grid_error(grid.mask_from_pgm, payload)


@_SETTINGS
@given(st.one_of(st.binary(max_size=200), rle_bytes()))
def test_mask_from_rle_raises_only_grid_error(payload):
    _raises_only_grid_error(grid.mask_from_rle, payload)


# -- labeled masks ------------------------------------------------------------------


@st.composite
def masks(draw):
    """A fluid rectangle with up to three rectangular holes."""
    ny, nx = draw(st.integers(5, 16)), draw(st.integers(5, 16))
    mask = np.ones((ny, nx), dtype=bool)
    for _ in range(draw(st.integers(0, 3))):
        y0, x0 = draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))
        mask[y0 : y0 + draw(st.integers(1, 4)), x0 : x0 + draw(st.integers(1, 4))] = False
    return mask


@_SETTINGS
@given(masks(), st.integers(0, 2**32 - 1))
def test_labeled_mask_summation_by_parts(mask, seed):
    try:
        dom = grid.label_components(mask)
    except GridError:
        return
    rng = np.random.default_rng(seed)
    u = np.where(dom.is_interior, rng.standard_normal(dom.n_nodes), 0.0)
    v = np.where(dom.is_interior, rng.standard_normal(dom.n_nodes), 0.0)
    consts = rng.standard_normal(dom.n_components)
    for k in range(1, dom.n_components):
        u[dom.boundary_ids(k)] = consts[k]
        v[dom.boundary_ids(k)] = -consts[k]
    fu, fv = dom.field(u), dom.field(v)
    ii = dom.interior_ids
    lhs = float(np.dot(grid.neg_laplacian(fu).values[ii], v[ii]) * dom.h**2)
    rhs = grid.dirichlet_form(fu, fv) - sum(
        -consts[k] * grid.boundary_flux(fu, k) for k in range(1, dom.n_components)
    )
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    # every interior-boundary edge sits in exactly one component's flux table
    n_edges = sum(len(dom._flux_tables[k][0]) for k in range(dom.n_components))
    n_bnd_edges = int((~dom.is_interior[dom.edge_q]).sum())
    assert n_edges == n_bnd_edges


# -- swap walks -------------------------------------------------------------------


_ANNULUS = grid.build_annulus(1.0, 2.0, 9)
_OMEGA = _ANNULUS.field_from_function(lambda x, y: np.sin(3 * x) + x * y)


@_SETTINGS
@given(st.integers(0, 400), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
def test_swap_walks_are_rearrangements(k, seed, radius):
    for smp in (
        rearrange.random_swaps(_OMEGA, k, seed),
        rearrange.swaps_within_radius(_OMEGA, radius, seed),
    ):
        assert rearrange.histogram_distance(smp.w, _OMEGA) == 0.0
        for fn in (np.exp, np.square):
            assert grid.integrate(_ANNULUS.field(fn(smp.w.values))) == grid.integrate(
                _ANNULUS.field(fn(_OMEGA.values))
            )
