import math
import struct
import tracemalloc

import numpy as np
import pytest

from arnoldstab import grid
from arnoldstab.errors import GridError

from conftest import random_interior_field


def test_annulus_interior_count_matches_area(annulus32):
    exact = 3 * math.pi * 32**2
    assert abs(annulus32.n_interior / exact - 1.0) < 0.05


def test_annulus_too_coarse_rejected():
    with pytest.raises(GridError):
        grid.build_annulus(1.0, 2.0, 4)


def test_annulus_precondition_rejected():
    with pytest.raises(GridError):
        grid.build_annulus(2.0, 1.0, 32)


def test_label_components_rectangle_with_hole():
    mask = np.ones((24, 24), dtype=bool)
    mask[9:14, 9:14] = False
    dom = grid.label_components(mask)
    assert dom.n_components == 2


def test_label_components_two_holes():
    mask = np.ones((24, 40), dtype=bool)
    mask[9:14, 8:13] = False
    mask[9:14, 26:31] = False
    dom = grid.label_components(mask)
    assert dom.n_components == 3


def test_label_components_disconnected_interior_rejected():
    mask = np.zeros((12, 24), dtype=bool)
    mask[2:10, 2:10] = True
    mask[2:10, 14:22] = True
    with pytest.raises(GridError):
        grid.label_components(mask)


def test_label_components_deterministic():
    mask = np.ones((20, 34), dtype=bool)
    mask[8:12, 6:10] = False
    mask[8:12, 22:26] = False
    a = grid.label_components(mask)
    b = grid.label_components(mask)
    assert np.array_equal(a.kinds, b.kinds)


def test_integrate_constant_annulus_area(annulus32):
    val = grid.integrate(annulus32.constant(1.0))
    assert abs(val / (3 * math.pi) - 1.0) < 0.02


def test_integrate_zero(annulus32):
    assert grid.integrate(annulus32.zeros()) == 0.0


def test_integrate_indicator_half_exact(annulus32):
    dom = annulus32
    n = dom.n_interior - (dom.n_interior % 2)
    vals = np.zeros(dom.n_nodes)
    vals[dom.interior_ids[: n // 2]] = 1.0
    half = grid.integrate(dom.field(vals))
    vals[dom.interior_ids[:n]] = 1.0
    full = grid.integrate(dom.field(vals))
    assert half == full / 2.0


def test_integrate_linear_and_monotone(annulus32, rng):
    dom = annulus32
    f = random_interior_field(dom, rng)
    gf = random_interior_field(dom, rng)
    lin = grid.integrate(f + gf) - (grid.integrate(f) + grid.integrate(gf))
    assert abs(lin) < 1e-12 * max(1.0, abs(grid.integrate(f)))
    bigger = grid.ScalarField(dom, f.values + np.where(dom.is_interior, 0.5, 0.0))
    assert grid.integrate(bigger) > grid.integrate(f)


def test_boundary_flux_constant_zero(annulus32):
    assert grid.boundary_flux(annulus32.constant(3.7), 1) == 0.0
    assert grid.boundary_flux(annulus32.constant(3.7), 0) == 0.0


def test_boundary_flux_component_range(annulus32):
    with pytest.raises(GridError):
        grid.boundary_flux(annulus32.zeros(), 5)


def test_summation_by_parts_exact(annulus32, rng):
    dom = annulus32
    u = random_interior_field(dom, rng).values
    v = random_interior_field(dom, rng).values
    tu, tv = 0.8, -1.1
    u[dom.boundary_ids(1)] = tu
    v[dom.boundary_ids(1)] = tv
    fu, fv = dom.field(u), dom.field(v)
    lhs = float(
        np.dot(grid.neg_laplacian(fu).values[dom.interior_ids], v[dom.interior_ids])
        * dom.h**2
    )
    rhs = grid.dirichlet_form(fu, fv) - tv * grid.boundary_flux(fu, 1)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_field_length_validation(annulus32):
    with pytest.raises(GridError):
        grid.ScalarField(annulus32, np.ones(3))


def test_field_finite_validation(annulus32):
    vals = np.zeros(annulus32.n_nodes)
    vals[0] = np.nan
    with pytest.raises(GridError):
        grid.ScalarField(annulus32, vals)


def test_field_file_roundtrip(tmp_path, annulus16, rng):
    dom = annulus16
    f = random_interior_field(dom, rng)
    path = tmp_path / "field.sfld"
    grid.write_field(path, f)
    back = grid.read_field(path)
    assert np.array_equal(back.domain.kinds, dom.kinds)
    assert np.array_equal(back.values, f.values)
    attached = grid.read_field(path, domain=dom)
    assert attached.domain is dom


@pytest.mark.parametrize(
    "cell, text",
    [
        (np.float64(1.5), "1.5"),
        (0.1 + 0.2, "0.30000000000000004"),
        (np.float32(0.1), "0.10000000149011612"),
        (math.nan, "nan"),
        (-0.0, "-0.0"),
        (math.inf, "inf"),
        (np.bool_(True), "1"),
        (np.bool_(False), "0"),
        (True, "1"),
        (np.int64(7), "7"),
        ("swap", "swap"),
    ],
)
def test_csv_cell(tmp_path, cell, text):
    """One table cell, as `csv_line` and `write_csv` write it; every float
    reads back bit for bit."""
    assert grid.csv_line([cell, "end"]) == text + ",end"
    path = tmp_path / "table.csv"
    grid.write_csv(path, ("x", "y"), [(cell, "end")])
    assert path.read_bytes() == b"x,y\n" + text.encode() + b",end\n"
    if isinstance(cell, (float, np.floating)):
        assert struct.pack("<d", float(text)) == struct.pack("<d", float(cell))


def test_field_file_geometry_mismatch(tmp_path, annulus16, annulus32):
    path = tmp_path / "field.sfld"
    grid.write_field(path, annulus16.zeros())
    with pytest.raises(GridError):
        grid.read_field(path, domain=annulus32)


@pytest.mark.parametrize(
    "h, origin",
    [(0.5, (math.nan, 0.0)), (0.5, (0.0, -math.inf)), (1e307, (1e308, 0.0))],
)
def test_non_finite_origin_rejected(annulus16, h, origin):
    """A non-finite origin, or a finite one whose node coordinates overflow."""
    with pytest.raises(GridError, match="finite"):
        grid.GridDomain(annulus16.kinds, h, origin=origin)


def test_field_file_non_finite_origin(tmp_path, annulus16):
    """A stored NaN origin is rejected, whether the file rebuilds its domain
    or is attached to a given one."""
    path = tmp_path / "field.sfld"
    grid.write_field(path, annulus16.zeros())
    data = bytearray(path.read_bytes())
    data[20:28] = struct.pack("<d", math.nan)  # x0, after magic, nx, ny and h
    path.write_bytes(bytes(data))
    with pytest.raises(GridError):
        grid.read_field(path)
    with pytest.raises(GridError):
        grid.read_field(path, domain=annulus16)


def test_field_file_truncated(tmp_path, annulus16):
    path = tmp_path / "field.sfld"
    grid.write_field(path, annulus16.zeros())
    data = path.read_bytes()
    for cut in (20, 40, len(data) - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(GridError):
            grid.read_field(path)


def test_mask_rle_roundtrip(tmp_path):
    path = tmp_path / "mask.rle"
    path.write_text("RLE 6 4\n6 1 3 1 1 0 2 1 " + "6 1 " * 2)
    mask = grid.mask_from_rle(path)
    assert mask.shape == (4, 6)
    assert mask.sum() == 6 + 6 + 6 + 6 - 1


def test_mask_rle_malformed_tokens(tmp_path):
    path = tmp_path / "mask.rle"
    for text in ("RLE 6 x\n24 1", "RLE 6 4\n6 1 3.5 1", "RLE 6 4\n-6 1 30 1", "RLE 6 4\n24 one"):
        path.write_text(text)
        with pytest.raises(GridError):
            grid.mask_from_rle(path)


def test_mask_rle_node_cap(tmp_path):
    """A header above the node cap raises before any run is expanded: a mask
    just over the cap, whose runs are consistent and would otherwise be
    accepted, and then the 10^10-node bomb (checked second, so that a parser
    without the cap fails on the small case before it reaches the bomb)."""
    path = tmp_path / "mask.rle"
    side = 1 << 12
    over_cap = "RLE %d %d %d 1" % (side + 1, side, (side + 1) * side)
    for text in (over_cap, "RLE 100000 100000 10000000000 1"):
        path.write_text(text)
        tracemalloc.start()
        try:
            with pytest.raises(GridError, match="above the limit"):
                grid.mask_from_rle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    path.write_text("RLE %d %d %d 1" % (side, side, side * side))
    assert grid.mask_from_rle(path).shape == (side, side)


def test_annulus_node_cap():
    """A resolution whose grid would exceed the node cap raises before the
    grid is allocated (res 10^8 asks for 1.6e17 nodes), and so does a grid
    just over the cap."""
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="above the limit"):
            grid.build_annulus(1.0, 2.0, 100_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(GridError, match="above the limit"):
        grid.build_annulus(1.0, 2.0, 1024)  # 4101^2 nodes, just over 2^24


def test_mask_pgm(tmp_path):
    path = tmp_path / "mask.pgm"
    data = bytes([255] * 12 + [0] * 4 + [255] * 8)
    path.write_bytes(b"P5\n# comment\n6 4\n255\n" + data)
    mask = grid.mask_from_pgm(path)
    assert mask.shape == (4, 6)
    assert mask.sum() == 20


def test_mask_pgm_malformed(tmp_path):
    path = tmp_path / "mask.pgm"
    for data in (b"P5\n6 4\n255\n" + bytes(23), b"P5\n6 four\n255\n" + bytes(24)):
        path.write_bytes(data)
        with pytest.raises(GridError):
            grid.mask_from_pgm(path)


def _loop_kinds(mask):
    """Reference labeling, one boundary node at a time: each takes the
    label of the one exterior region it touches, 0 for the unbounded region
    and the holes numbered by first appearance in raster order."""
    padm = np.pad(mask, 1, constant_values=False)
    bnd = mask & (~padm[1:-1, :-2] | ~padm[1:-1, 2:] | ~padm[:-2, 1:-1] | ~padm[2:, 1:-1])
    nbrs, _, unbounded = grid.exterior_regions(~mask)
    kinds = np.where(mask, grid.INTERIOR, grid.EXTERIOR).astype(np.uint8)
    hole_ids = []
    for y, x in zip(*np.nonzero(bnd)):
        (r,) = set(nbrs[:, y, x][nbrs[:, y, x] > 0].tolist())
        if r == unbounded:
            kinds[y, x] = grid.BOUNDARY_BASE
            continue
        if r not in hole_ids:
            hole_ids.append(r)
        kinds[y, x] = grid.BOUNDARY_BASE + 1 + hole_ids.index(r)
    return kinds


def _seeded_two_hole_mask(seed):
    rng = np.random.default_rng(seed)
    mask = np.ones((64, 128), dtype=bool)
    for y, x in ((34, 10), (18, 90)):
        dy, dx = rng.integers(-6, 7, size=2)
        mask[y + dy : y + dy + 20, x + dx : x + dx + 20] = False
    return mask


def _test_masks():
    one = np.ones((24, 24), dtype=bool)
    one[9:14, 9:14] = False
    two = np.ones((24, 40), dtype=bool)
    two[9:14, 8:13] = False
    two[9:14, 26:31] = False
    # the right hole reaches higher, so it is met first in raster order
    stagger = np.ones((20, 34), dtype=bool)
    stagger[9:13, 6:10] = False
    stagger[5:12, 22:26] = False
    return [one, two, stagger] + [_seeded_two_hole_mask(seed) for seed in (7, 8, 9)]


def test_label_components_matches_node_loop():
    for mask in _test_masks():
        dom = grid.label_components(mask)
        assert np.array_equal(dom.kinds, _loop_kinds(mask))
    assert dom.n_components == 3


def test_label_components_thin_wall_ambiguous():
    # two holes separated by a single-node wall: labeling must be rejected
    mask = np.ones((16, 25), dtype=bool)
    mask[6:10, 6:11] = False
    mask[6:10, 12:17] = False
    with pytest.raises(GridError):
        grid.label_components(mask)
