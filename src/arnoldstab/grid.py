"""Masked Cartesian grids for multiply-connected planar domains.

A :class:`GridDomain` tags every node of a uniform grid as exterior, interior,
or boundary, with one label per boundary component (label 0 is the outer
boundary).  Scalar fields live on the non-exterior nodes; boundary nodes carry
Dirichlet data and zero quadrature weight.

The discrete calculus is built around a weighted five-point Dirichlet form

    a(u, v) = sum_edges w_e (u_p - u_q)(v_p - v_q)

whose weights default to 1 (plain staircase) and, when the true boundary curve
is known (see :func:`build_annulus`), are set to h / ell with ell the distance
from the interior node to the curve along the grid line.  This is the
symmetric sub-cell boundary treatment of Gibou & Fedkiw; it restores
second-order accuracy at the staircase while keeping the operator symmetric
positive definite.  By construction the summation-by-parts identity

    sum_I (-lap u)_i v_i h^2  =  a(u, v) - sum_k (v on comp k) * flux_k(u)

holds to machine precision for any u, v vanishing on the outer component and
constant on each inner one, where flux_k is :func:`boundary_flux` (positive =
outward from the fluid).
"""

from __future__ import annotations

import math
import struct

import numpy as np
from scipy import ndimage

from .errors import GridError

EXTERIOR = 0
INTERIOR = 1
BOUNDARY_BASE = 2  # kind = BOUNDARY_BASE + component label

# neighbor directions: E, W, N, S as (dx, dy)
_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))

_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT = np.ones((3, 3), dtype=bool)


def _shift_kinds(kinds, dx, dy, fill=EXTERIOR):
    """Kind of the (dx, dy) neighbor of each node; out-of-grid = fill."""
    out = np.full_like(kinds, fill)
    ny, nx = kinds.shape
    ys = slice(max(0, -dy), ny - max(0, dy))
    xs = slice(max(0, -dx), nx - max(0, dx))
    yd = slice(max(0, dy), ny - max(0, -dy))
    xd = slice(max(0, dx), nx - max(0, -dx))
    out[ys, xs] = kinds[yd, xd]
    return out


class GridDomain:
    """Immutable masked grid with labeled boundary components.

    Parameters
    ----------
    kinds : (ny, nx) uint8 array
        Per-node tag: 0 exterior, 1 interior, 2+k boundary component k.
    h : float
        Grid spacing.
    origin : (x0, y0)
        Coordinates of node (ix=0, iy=0).
    leg_fraction : optional (ny, nx, 4) float array
        For an interior node and direction d (E, W, N, S), the distance to the
        true boundary curve along that grid line divided by h.  Consulted only
        for interior-to-boundary edges; defaults to 1 everywhere.
    """

    def __init__(self, kinds, h, origin=(0.0, 0.0), leg_fraction=None):
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        if kinds.ndim != 2:
            raise GridError("kinds must be a 2D array")
        self.kinds = kinds
        self.ny, self.nx = kinds.shape
        self.h = float(h)
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise GridError("grid spacing must be positive and finite")
        self.origin = (float(origin[0]), float(origin[1]))

        labels = np.unique(kinds[kinds >= BOUNDARY_BASE]).astype(int) - BOUNDARY_BASE
        self.n_components = len(labels)
        if self.n_components == 0:
            raise GridError("domain has no boundary components")
        if sorted(labels) != list(range(self.n_components)):
            raise GridError("boundary labels must be contiguous starting at 0")

        nonext = kinds != EXTERIOR
        self.n_nodes = int(nonext.sum())
        self.node_index = np.full(kinds.shape, -1, dtype=np.int64)
        self.node_index[nonext] = np.arange(self.n_nodes)
        self.node_iy, self.node_ix = np.nonzero(nonext)
        self.node_kind = kinds[nonext]
        with np.errstate(over="ignore", invalid="ignore"):
            self.node_x = self.origin[0] + self.node_ix * self.h
            self.node_y = self.origin[1] + self.node_iy * self.h
        if not (np.isfinite(self.node_x).all() and np.isfinite(self.node_y).all()):
            raise GridError("origin and node coordinates must be finite")

        # neighbor table (node id or -1) in E, W, N, S order
        nbr = np.full((self.n_nodes, 4), -1, dtype=np.int64)
        for d, (dx, dy) in enumerate(_DIRS):
            jy = self.node_iy + dy
            jx = self.node_ix + dx
            ok = (jy >= 0) & (jy < self.ny) & (jx >= 0) & (jx < self.nx)
            nbr[ok, d] = self.node_index[jy[ok], jx[ok]]
        self.nbr = nbr

        self.is_interior = self.node_kind == INTERIOR
        self.interior_ids = np.nonzero(self.is_interior)[0]
        self.n_interior = len(self.interior_ids)
        if self.n_interior == 0:
            raise GridError("domain has no interior nodes")

        # edge weights seen from each node (meaningful on interior rows)
        wgt = np.ones((self.n_nodes, 4))
        if leg_fraction is not None:
            frac = np.asarray(leg_fraction, dtype=float)
            if frac.shape != (self.ny, self.nx, 4):
                raise GridError("leg_fraction has wrong shape")
            fr = frac[self.node_iy, self.node_ix, :]
            fr = np.clip(fr, 1e-4, 2.0)
            inter = self.is_interior[:, None]
            q = np.where(nbr >= 0, self.node_kind[np.clip(nbr, 0, None)], EXTERIOR)
            to_bnd = inter & (q >= BOUNDARY_BASE)
            wgt[to_bnd] = 1.0 / fr[to_bnd]
        self.wgt = wgt

        self._validate()
        self._build_edges()
        self._build_flux_tables()

        # per-domain solver data, built on first use (see `cached`)
        self._cache = {}

    # -- construction helpers -------------------------------------------------

    def _validate(self):
        kinds = self.kinds
        inter = kinds == INTERIOR
        # interior neighborhoods contain no exterior node
        for dx, dy in _DIRS:
            if np.any(inter & (_shift_kinds(kinds, dx, dy) == EXTERIOR)):
                raise GridError("interior node touches the exterior")
        # interior is one 4-connected component
        _, n_comp = ndimage.label(inter, structure=_FOUR)
        if n_comp != 1:
            raise GridError("interior disconnected (%d components)" % n_comp)
        # each boundary component is one 8-connected set
        for k in range(self.n_components):
            bk = kinds == BOUNDARY_BASE + k
            if not bk.any():
                raise GridError("boundary component %d is empty" % k)
            _, nb = ndimage.label(bk, structure=_EIGHT)
            if nb != 1:
                raise GridError("boundary component %d is not 8-connected" % k)
        # the exterior region each boundary component touches
        nbrs, _, unbounded = exterior_regions(kinds == EXTERIOR)
        for k in range(self.n_components):
            touched = set(np.unique(nbrs[:, kinds == BOUNDARY_BASE + k]).tolist())
            touched.discard(0)
            if len(touched) > 1:
                raise GridError(
                    "boundary component %d touches several exterior regions "
                    "(wall too thin or nested holes)" % k
                )
            if len(touched) == 1:
                is_outer = touched.pop() == unbounded
                if is_outer != (k == 0):
                    raise GridError(
                        "component labels inconsistent with geometry "
                        "(label 0 must be the outer boundary)"
                    )
            elif k == 0:
                raise GridError("outer boundary does not touch the exterior")

    def _build_edges(self):
        """Canonical edge list for the Dirichlet form (each edge once).

        Interior-interior edges are collected from their east/north endpoint;
        interior-boundary edges from the interior endpoint.  Edges between two
        boundary nodes carry no energy.
        """
        ep, eq, ew = [], [], []
        ids = np.arange(self.n_nodes)
        inter = self.is_interior
        for d in range(4):
            q = self.nbr[:, d]
            ok = inter & (q >= 0)
            qq = np.clip(q, 0, None)
            if d in (0, 2):  # E, N: every edge from the interior side
                sel = ok
            else:  # W, S: only edges ending on a boundary node
                sel = ok & ~self.is_interior[qq]
            if not sel.any():
                continue
            ep.append(ids[sel])
            eq.append(q[sel])
            ew.append(self.wgt[sel, d])
        self.edge_p = np.concatenate(ep)
        self.edge_q = np.concatenate(eq)
        self.edge_w = np.concatenate(ew)

    def _build_flux_tables(self):
        """Per-component (interior node, boundary node, weight) triplets."""
        tables = []
        ids = np.arange(self.n_nodes)
        for k in range(self.n_components):
            ps, qs, ws = [], [], []
            for d in range(4):
                q = self.nbr[:, d]
                ok = self.is_interior & (q >= 0)
                qq = np.clip(q, 0, None)
                sel = ok & (self.node_kind[qq] == BOUNDARY_BASE + k)
                if sel.any():
                    ps.append(ids[sel])
                    qs.append(q[sel])
                    ws.append(self.wgt[sel, d])
            if not ps:
                raise GridError("boundary component %d has no interior neighbor" % k)
            tables.append(
                (np.concatenate(ps), np.concatenate(qs), np.concatenate(ws))
            )
        self._flux_tables = tables

    # -- basic queries ---------------------------------------------------------

    def boundary_ids(self, k):
        """Node ids of boundary component k."""
        if not 0 <= k < self.n_components:
            raise GridError("component index %r out of range" % (k,))
        return np.nonzero(self.node_kind == BOUNDARY_BASE + k)[0]

    @property
    def area(self):
        """Quadrature area |D| = (number of interior nodes) * h^2."""
        return self.n_interior * self.h * self.h

    def to_grid(self, values, fill=0.0):
        """Scatter per-node values onto the full (ny, nx) grid."""
        out = np.full((self.ny, self.nx), fill, dtype=float)
        out[self.node_iy, self.node_ix] = values
        return out

    def field(self, values):
        return ScalarField(self, values)

    def zeros(self):
        return ScalarField(self, np.zeros(self.n_nodes))

    def constant(self, c):
        return ScalarField(self, np.full(self.n_nodes, float(c)))

    def field_from_function(self, fn):
        """Evaluate fn(x, y) at every non-exterior node."""
        return ScalarField(self, np.asarray(fn(self.node_x, self.node_y), dtype=float))

    def same_geometry(self, other):
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and self.h == other.h
            and self.origin == other.origin
            and np.array_equal(self.kinds, other.kinds)
        )


class ScalarField:
    """One real value per non-exterior node of a GridDomain."""

    __slots__ = ("domain", "values")

    def __init__(self, domain, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != (domain.n_nodes,):
            raise GridError(
                "field length %r does not match domain node count %d"
                % (values.shape, domain.n_nodes)
            )
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
        self.domain = domain
        self.values = values

    def copy(self):
        return ScalarField(self.domain, self.values.copy())

    @property
    def interior_values(self):
        return self.values[self.domain.interior_ids]

    def _check(self, other):
        if other.domain is not self.domain and not self.domain.same_geometry(other.domain):
            raise GridError("fields live on different domains")

    def __add__(self, other):
        self._check(other)
        return ScalarField(self.domain, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return ScalarField(self.domain, self.values - other.values)

    def __mul__(self, c):
        return ScalarField(self.domain, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.domain, -self.values)


def cached(domain: GridDomain, key, build, tag=None):
    """`build()`, kept in the domain's one cache under `key`: built on first
    use and returned from the cache afterwards.

    With a `tag` (a circulation vector) the slot keeps the value of the
    latest tag only, and is built again when a call brings another one.  A
    kept value holds no reference to the domain (arrays, sparse matrices,
    factorizations, bases that close over those), so that a domain is freed
    on `del` without the cyclic garbage collector."""
    slot = domain._cache.get(key)
    if slot is None or (tag is not None and not np.array_equal(slot[0], tag)):
        slot = domain._cache[key] = (None if tag is None else np.array(tag), build())
    return slot[1]


def as_circulation(a, domain):
    """Normalize a to a length-N float array for the given domain."""
    arr = np.atleast_1d(np.asarray(a, dtype=float)).ravel()
    n = domain.n_components - 1
    if arr.size != n:
        raise GridError("circulation vector has length %d, expected %d" % (arr.size, n))
    return arr


# -- discrete calculus ---------------------------------------------------------


# values per chunk of `_exact_sum`: 2^16 multiples of 2^q, each at most
# 2^(q+36) in magnitude, sum exactly in float64 in any order
_SUM_CHUNK = 1 << 16
# bits peeled off per extraction level, and the levels tried before falling
# back to the exponent bins of `_exact_sum_bins`
_LEVEL_BITS = 36
_MAX_LEVELS = 4
# largest level exponent q: above it the rounding constant 1.5 * 2^(q+52)
# overflows
_Q_MAX = 1023 - 52


def _exact_sum(values) -> float:
    """Exactly rounded sum of float64 values, equal to math.fsum bit for bit.

    Each chunk of at most 2^16 values r is split by error-free extraction
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008).  With 2^e above
    the chunk's largest magnitude, level j = 1, 2, ... takes q = e - 36 j and
    c = 1.5 * 2^(q+52); then hi = (r + c) - c is r rounded to a multiple of
    2^q (below q = -1074, where c is subnormal or zero, hi = r), and r -= hi
    is exact and leaves |r| <= 2^(q-1).  Every hi is a multiple of 2^q of
    magnitude at most 2^(q+36), so every partial sum of a chunk's hi is a
    multiple of 2^q below 2^(q+52) in magnitude: np.sum(hi) is exact
    whatever order it adds in.  The levels stop when r is all zero,
    and math.fsum rounds the exact level sums once.  A correctly rounded sum
    is unique, so the result does not depend on the order of the values.

    A chunk that needs more than _MAX_LEVELS levels (a span of more than
    144 bits), magnitudes of 2^1007 and up, and an intermediate overflow of
    math.fsum all fall back to `_exact_sum_bins`.  Non-finite values give
    their IEEE sum; finite values whose exact sum lies beyond the float range
    raise OverflowError, as math.fsum does.
    """
    x = np.asarray(values, dtype=float).ravel()
    chunks = [x[i : i + _SUM_CHUNK] for i in range(0, x.size, _SUM_CHUNK)]
    # a NaN or an infinity makes its chunk's top non-finite
    tops = [max(float(r.max()), -float(r.min())) for r in chunks]
    if not all(map(math.isfinite, tops)):
        return float(x[~np.isfinite(x)].sum())
    parts = []
    for r, top in zip(chunks, tops):
        if top == 0.0:
            continue
        e = math.frexp(top)[1]
        if e - _LEVEL_BITS > _Q_MAX:
            return _exact_sum_bins(x)
        r = r.copy()
        hi = np.empty_like(r)
        for j in range(1, _MAX_LEVELS + 1):
            q = e - _LEVEL_BITS * j
            c = math.ldexp(1.5, q + 52)
            np.add(r, c, out=hi)
            hi -= c
            r -= hi
            parts.append(float(hi.sum()))
            if not r.any():
                break
        else:
            return _exact_sum_bins(x)
    try:
        return math.fsum(parts)
    except OverflowError:
        return _exact_sum_bins(x)


# values per pass of `_exact_sum_bins`: at most 2^26 integers of magnitude at
# most 2^27 (times a power of two) sum exactly, in any order, in float64
_BIN_CHUNK = 1 << 26
# adding and subtracting it rounds an integer below 2^53 to a multiple of 2^26
_SPLIT = 1.5 * 2.0**78


def _exact_sum_bins(x) -> float:
    """Exactly rounded sum of finite float64 values, by exponent bins.

    np.frexp turns each value into an integer M below 2^53 and an exponent e,
    x = M * 2^(e-53).  M is split into a multiple of 2^26 with at most 27
    significant bits and a remainder below 2^25, and each part is summed per
    exponent with np.bincount.  Those sums are exact, so the few nonzero
    exponent bins are added as Python integers over the common denominator
    2^1126 and rounded once by integer true division.  Slower than the
    extraction levels of `_exact_sum`, but good for any span of exponents.
    """
    num = 0
    for start in range(0, x.size, _BIN_CHUNK):
        mant, expo = np.frexp(x[start : start + _BIN_CHUNK])
        mant *= 2.0**53
        hi = (mant + _SPLIT) - _SPLIT
        lo = mant - hi
        # bin k = e + 1073 >= 0 (the smallest subnormal has e = -1073)
        expo += 1073
        hi_sums = np.bincount(expo, weights=hi)
        lo_sums = np.bincount(expo, weights=lo)
        ks = np.flatnonzero((hi_sums != 0) | (lo_sums != 0))
        for k, a, b in zip(ks.tolist(), hi_sums[ks].tolist(), lo_sums[ks].tolist()):
            num += (int(a) + int(b)) << k
    return num / (1 << 1126)


def integrate(f: ScalarField) -> float:
    """Quadrature sum over interior nodes, h^2 per node.

    Uses an exactly-rounded summation so the result is independent of the
    order of the cell values (rearranging a field leaves integrals of
    pointwise functions of it bitwise unchanged).
    """
    dom = f.domain
    return _exact_sum(f.values[dom.interior_ids]) * dom.h * dom.h


def lp_norm(f: ScalarField, p: float = 2.0) -> float:
    dom = f.domain
    return _lp_norm(f.values[dom.interior_ids], dom.h, p)


def _lp_norm(values, h: float, p: float = 2.0) -> float:
    """Discrete Lp norm of interior cell values, h^2 per cell.  The sum is
    exact, so cells left out of `values` count as zeros: the norm of a
    difference may be taken over the cells where it is nonzero."""
    v = np.abs(values)
    if math.isinf(p):
        return float(v.max(initial=0.0))
    return float((_exact_sum(v**p) * h * h) ** (1.0 / p))


def linf(f: ScalarField) -> float:
    return float(np.abs(f.values).max(initial=0.0))


def dirichlet_form(u: ScalarField, v: ScalarField) -> float:
    """Weighted discrete Dirichlet inner product a(u, v) ~ int grad u . grad v."""
    dom = u.domain
    du = u.values[dom.edge_p] - u.values[dom.edge_q]
    dv = v.values[dom.edge_p] - v.values[dom.edge_q]
    return float(np.dot(dom.edge_w * du, dv))


def neg_laplacian(f: ScalarField) -> ScalarField:
    """-lap f at interior nodes (zero on boundary nodes)."""
    dom = f.domain
    out = np.zeros(dom.n_nodes)
    ii = dom.interior_ids
    acc = np.zeros(len(ii))
    for d in range(4):
        q = dom.nbr[ii, d]
        acc += dom.wgt[ii, d] * (f.values[ii] - f.values[q])
    out[ii] = acc / (dom.h * dom.h)
    return ScalarField(dom, out)


def boundary_flux(u: ScalarField, k: int) -> float:
    """Discrete flux of u through boundary component k, positive = outward.

    Defined as the weighted sum of (u_boundary - u_interior) over adjacent
    node pairs, which is exactly the boundary term of the summation-by-parts
    identity for the discrete Dirichlet form.
    """
    dom = u.domain
    if not 0 <= k < dom.n_components:
        raise GridError("component index %r out of range" % (k,))
    p, q, w = dom._flux_tables[k]
    return float(np.dot(w, u.values[q] - u.values[p]))


def exterior_regions(ext):
    """4-connected regions of the non-fluid nodes of a grid.

    ext is a boolean (ny, nx) grid, True off the fluid.  It is padded with
    one ring of non-fluid nodes before the flood fill, so every region that
    reaches the frame merges into one, the unbounded exterior; the others
    are holes.  Returns the region labels of the four neighbors (E, W, N, S)
    of every node as a (4, ny, nx) array, 0 for a fluid neighbor and the
    unbounded label for one off the grid; the labels of the nodes
    themselves; and the unbounded label.
    """
    ny, nx = ext.shape
    lbl, _ = ndimage.label(np.pad(ext, 1, constant_values=True), structure=_FOUR)
    nbrs = np.stack([lbl[1 + dy : ny + 1 + dy, 1 + dx : nx + 1 + dx] for dx, dy in _DIRS])
    return nbrs, lbl[1:-1, 1:-1], int(lbl[0, 0])


# -- constructors ----------------------------------------------------------------


def build_annulus(r_in: float, r_out: float, n_cells_per_unit: int) -> GridDomain:
    """Concentric annulus r_in <= |x| <= r_out on a uniform grid.

    Every node inside the closed annulus is interior, so the diagonal
    quadrature (h^2 per interior node) estimates areas without a boundary-layer
    bias.  The first ring of nodes outside the annulus becomes the boundary
    (outer circle label 0, inner label 1); the sub-cell distance from each
    interior node to the true circle along the grid line is recorded as an
    edge weight, which keeps the Dirichlet data effectively on the circle.
    """
    r_in = float(r_in)
    r_out = float(r_out)
    if not (0.0 < r_in < r_out < math.inf):
        raise GridError("need 0 < r_in < r_out < inf (got %g, %g)" % (r_in, r_out))
    n = int(n_cells_per_unit)
    if n <= 0:
        raise GridError("n_cells_per_unit must be positive")
    h = 1.0 / n
    cells_across = int(round((r_out - r_in) / h)) - 1
    if cells_across < 8:
        raise GridError(
            "resolution too coarse: %d interior cells across the gap (need >= 8)"
            % cells_across
        )

    half = int(math.ceil((r_out + h) / h)) + 1
    if (2 * half + 1) ** 2 > _RLE_MAX_NODES:
        raise GridError("annulus grid of %d^2 nodes is above the limit" % (2 * half + 1))
    coords = (np.arange(2 * half + 1) - half) * h
    x0 = coords[0]
    X, Y = np.meshgrid(coords, coords)  # X varies along axis 1
    R = np.hypot(X, Y)

    fluid = (R >= r_in) & (R <= r_out)
    pad = np.pad(fluid, 1, constant_values=False)
    near_fluid = (
        pad[1:-1, :-2] | pad[1:-1, 2:] | pad[:-2, 1:-1] | pad[2:, 1:-1]
    )
    kinds = np.full(R.shape, EXTERIOR, dtype=np.uint8)
    kinds[fluid] = INTERIOR
    ring = ~fluid & near_fluid
    kinds[ring & (R > r_out)] = BOUNDARY_BASE + 0
    kinds[ring & (R < r_in)] = BOUNDARY_BASE + 1

    # sub-cell legs: distance from an interior node to the circle of its
    # boundary neighbor, measured along the grid line toward that neighbor
    ny, nx = kinds.shape
    frac = np.ones((ny, nx, 4))
    inter = kinds == INTERIOR
    for d, (dx, dy) in enumerate(_DIRS):
        nk = _shift_kinds(kinds, dx, dy)
        for label, rc in ((0, r_out), (1, r_in)):
            sel = inter & (nk == BOUNDARY_BASE + label)
            if not sel.any():
                continue
            xs = X[sel]
            ys = Y[sel]
            if dx != 0:
                fixed = ys
                along = xs
                step = dx
            else:
                fixed = xs
                along = ys
                step = dy
            disc = rc * rc - fixed * fixed
            has = disc >= 0.0
            root = np.sqrt(np.where(has, disc, 0.0))
            # candidate crossings at +-root; pick the nearest on the neighbor
            # side (distance 0 = node exactly on the circle)
            c1 = (root - along) * step
            c2 = (-root - along) * step
            pos = np.where(
                (c1 >= 0) & ((c1 <= c2) | (c2 < 0)),
                c1,
                np.where(c2 >= 0, c2, np.nan),
            )
            ell = pos / h
            ok = has & np.isfinite(ell) & (ell <= 1.6)
            f = np.ones(len(xs))
            f[ok] = np.clip(ell[ok], 1e-4, 1.6)
            tmp = frac[:, :, d]
            cur = tmp[sel]
            cur[ok] = f[ok]
            tmp[sel] = cur

    return GridDomain(kinds, h, origin=(x0, x0), leg_fraction=frac)


def label_components(mask, h: float = 1.0, origin=(0.0, 0.0)) -> GridDomain:
    """Build a GridDomain from a boolean fluid mask (True = fluid node).

    Fluid nodes adjacent to non-fluid (or the grid frame) become boundary
    nodes, each labeled by the exterior region it touches: label 0 for the
    unbounded one, and the holes 1, 2, ... in the raster order of their first
    boundary node.  A node that touches several regions takes the largest
    region's label, and `GridDomain` then rejects the mask, as it does a
    disconnected interior.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise GridError("mask must be 2D")

    # fluid node with a non-fluid 4-neighbor (or off-grid) -> boundary
    padm = np.pad(mask, 1, constant_values=False)
    nbr_off = (
        ~padm[1:-1, :-2] | ~padm[1:-1, 2:] | ~padm[:-2, 1:-1] | ~padm[2:, 1:-1]
    )
    bnd = mask & nbr_off
    kinds = np.where(mask, INTERIOR, EXTERIOR).astype(np.uint8)

    nbrs, _, unbounded = exterior_regions(~mask)
    region = nbrs.max(axis=0)[bnd]  # in raster order; every one is > 0
    holes, first = np.unique(region[region != unbounded], return_index=True)
    # component label of each exterior region; the unbounded one keeps 0
    label = np.zeros(int(nbrs.max(initial=0)) + 1, dtype=np.uint8)
    label[holes[np.argsort(first)]] = np.arange(1, len(holes) + 1)
    kinds[bnd] = BOUNDARY_BASE + label[region]
    return GridDomain(kinds, h, origin=origin)


# -- field file, table and mask I/O -----------------------------------------------

_MAGIC = b"SFLD"


def write_field(path, f: ScalarField) -> None:
    """Binary field file: magic, nx, ny, h, origin, node kinds, values."""
    dom = f.domain
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", dom.nx, dom.ny))
        fh.write(struct.pack("<ddd", dom.h, dom.origin[0], dom.origin[1]))
        fh.write(dom.kinds.astype("<u1").tobytes(order="C"))
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def _csv_cell(c) -> str:
    if isinstance(c, (bool, np.bool_)):
        return str(int(c))
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    return str(c)


def csv_line(cells) -> str:
    """One CSV line without its newline: booleans as 0/1, floats by repr
    (which round-trips bit for bit), anything else by str.  Nothing is
    quoted; a cell that needs quotes is passed as a quoted string."""
    return ",".join(_csv_cell(c) for c in cells)


def write_csv(path, columns, rows) -> None:
    """Table file: a header line of column names, then one `csv_line` per
    row, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write(csv_line(columns) + "\n")
        for row in rows:
            fh.write(csv_line(row) + "\n")


def read_field(path, domain: GridDomain | None = None) -> ScalarField:
    """Read a field file.

    If `domain` is given its geometry must match the file and the values are
    attached to it (preserving any sub-cell edge weights); otherwise a plain
    staircase domain is rebuilt from the stored node kinds.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    off = 12 + 24
    if data[:4] != _MAGIC or len(data) < off:
        raise GridError("not a field file: %s" % path)
    nx, ny = struct.unpack_from("<II", data, 4)
    h, x0, y0 = struct.unpack_from("<ddd", data, 12)
    if len(data) < off + nx * ny:
        raise GridError("field file %s is truncated in its node tags" % path)
    kinds = np.frombuffer(data, dtype="<u1", count=nx * ny, offset=off).reshape(ny, nx)
    off += nx * ny
    n_nodes = int((kinds != EXTERIOR).sum())
    if len(data) != off + 8 * n_nodes:
        raise GridError(
            "field file %s has %d bytes, its header implies %d"
            % (path, len(data), off + 8 * n_nodes)
        )
    values = np.frombuffer(data, dtype="<f8", count=n_nodes, offset=off).copy()
    if domain is not None:
        if (
            (domain.nx, domain.ny) != (nx, ny)
            or domain.h != h
            or domain.origin != (x0, y0)
            or not np.array_equal(domain.kinds, kinds)
        ):
            raise GridError("field file geometry does not match the given domain")
        return ScalarField(domain, values)
    dom = GridDomain(kinds.copy(), h, origin=(x0, y0))
    return ScalarField(dom, values)


# largest grid of a domain: 4096 x 4096 nodes, 16 MB as a boolean grid; an
# annulus resolution or a mask file header must not make it allocate more
_RLE_MAX_NODES = 1 << 24


def _int_token(tok, path, least):
    """Integer header or body token of a mask file, at least `least`."""
    try:
        val = int(tok)
    except ValueError:
        raise GridError("%s: expected an integer, got %r" % (path, tok[:32])) from None
    if val < least:
        raise GridError("%s: expected an integer >= %d, got %d" % (path, least, val))
    return val


def mask_from_pgm(path):
    """Boolean mask from a binary PGM (P5); pixel > maxval/2 means fluid."""
    with open(path, "rb") as fh:
        data = fh.read()

    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        if data[i : i + 1].isspace():
            i += 1
        elif data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if not tokens or tokens[0] != b"P5" or len(tokens) < 4:
        raise GridError("not a binary PGM (P5) file: %s" % path)
    w, hgt, maxval = (_int_token(t, path, 1) for t in tokens[1:4])
    if maxval > 255:
        raise GridError("only 8-bit PGM supported")
    i += 1  # single whitespace after maxval
    if len(data) < i + w * hgt:
        raise GridError(
            "PGM file %s is truncated: %d of %d pixels" % (path, max(0, len(data) - i), w * hgt)
        )
    pix = np.frombuffer(data, dtype=np.uint8, count=w * hgt, offset=i).reshape(hgt, w)
    return pix > maxval // 2


def mask_from_rle(path):
    """Boolean mask from run-length text: header 'RLE nx ny', then
    whitespace-separated (count, value) pairs in row-major order.  A header
    above `_RLE_MAX_NODES` nodes raises `GridError` before any run is read."""
    with open(path, "rb") as fh:
        tokens = fh.read().split()
    if not tokens or tokens[0] != b"RLE" or len(tokens) < 3:
        raise GridError("not an RLE mask file: %s" % path)
    nx, ny = _int_token(tokens[1], path, 1), _int_token(tokens[2], path, 1)
    if nx * ny > _RLE_MAX_NODES:
        raise GridError(
            "RLE mask of %d x %d nodes is above the limit of %d" % (nx, ny, _RLE_MAX_NODES)
        )
    body = tokens[3:]
    if len(body) % 2:
        raise GridError("RLE mask has dangling token")
    counts = [_int_token(c, path, 0) for c in body[::2]]
    values = [_int_token(v, path, 0) > 0 for v in body[1::2]]
    if sum(counts) != nx * ny:
        raise GridError("RLE mask covers %d of %d nodes" % (sum(counts), nx * ny))
    return np.repeat(np.array(values, dtype=bool), counts).reshape(ny, nx)
