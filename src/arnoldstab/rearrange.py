"""Discrete rearrangement classes and energy probes.

On a uniform grid every permutation of the interior cell values is an exact
measure-preserving rearrangement, so sampling the rearrangement class reduces
to sampling permutations.  The probes test the variational heart of the
stability theory: a certified stable steady vorticity should strictly
maximize the kinetic energy among nearby rearrangements, and the supporting
functionals should dominate the energy-Casimir functional with equality at
the steady state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from itertools import combinations

import numpy as np

from . import grid as g
from .errors import GridError
from .functionals import GFunc, LegendrePair, _Sample, casimir, energy


# slack of the dominance chain EC <= Dhat <= D, relative to the scale of EC
_CHAIN_REL_TOL = 1e-6


@dataclass
class RearrangementSample:
    """A rearranged field with its provenance and discrete L2 distance to the
    source."""

    w: g.ScalarField
    distance_lp: float
    swap_count: int
    seed: int


@dataclass
class ProbeReport:
    """Outcome of a rearrangement probe: per-sample rows plus a verdict."""

    kind: str
    seed: int
    n_samples: int
    tol: float
    violations: int
    max_excess: float
    clean_radius: float
    columns: tuple
    rows: list = dfield(default_factory=list)

    def write_csv(self, path):
        g.write_csv(path, self.columns, self.rows)


# proposals drawn per call of the generator: a block of pairs is the same
# stream as one call per pair, since the bit generator buffers its 32-bit
# halves across calls
_BLOCK = 256
# consecutive rejected proposals that end a walk
_REJECT_RUN = 32
# accepted swaps per interior cell that end a walk
_SWAPS_PER_CELL = 4


def random_swaps(omega_bar: g.ScalarField, k: int, seed: int) -> RearrangementSample:
    """k uniformly random transpositions of the interior cell values; the
    distance is summed over the touched cells only."""
    if k < 0:
        raise GridError("swap count must be nonnegative")
    dom = omega_bar.domain
    rng = np.random.default_rng(seed)
    base = omega_bar.values
    vals = base.copy()
    pairs = dom.interior_ids[rng.integers(0, dom.n_interior, size=(int(k), 2))]
    for a, b in pairs.tolist():
        vals[a], vals[b] = vals[b], vals[a]
    touched = np.unique(pairs)
    dist = g._lp_norm(vals[touched] - base[touched], dom.h)
    return RearrangementSample(g.ScalarField(dom, vals), dist, int(k), int(seed))


def swaps_within_radius(omega_bar: g.ScalarField, radius: float, seed: int) -> RearrangementSample:
    """Random transpositions accepted while the L2 distance stays below radius.

    The squared distance is tracked incrementally on Python floats, and the
    swapped values live in an overlay of the touched cells until the walk
    ends: after a run of _REJECT_RUN rejected proposals, or at
    _SWAPS_PER_CELL accepted swaps per interior cell.  The reported distance
    is summed exactly over the touched cells.
    """
    radius = float(radius)
    if not (math.isfinite(radius) and radius >= 0.0):
        raise GridError("radius must be finite and nonnegative")
    dom = omega_bar.domain
    rng = np.random.default_rng(seed)
    base = omega_bar.values
    ii = dom.interior_ids
    n = len(ii)
    h2 = dom.h * dom.h
    cap = _SWAPS_PER_CELL * n
    moved = {}  # node -> current value, for every touched cell
    dist_p = 0.0
    swaps = rejected = 0
    while swaps < cap and rejected < _REJECT_RUN:
        nodes = ii[rng.integers(0, n, size=(_BLOCK, 2))]
        for a, b, ba, bb in zip(*nodes.T.tolist(), *base[nodes].T.tolist()):
            va = moved.get(a, ba)
            vb = moved.get(b, bb)
            old = (abs(va - ba) ** 2.0 + abs(vb - bb) ** 2.0) * h2
            new = (abs(vb - ba) ** 2.0 + abs(va - bb) ** 2.0) * h2
            trial = dist_p - old + new
            # a round-off negative trial fails, as its NaN root would
            if trial >= 0.0 and trial**0.5 < radius:
                moved[a], moved[b] = vb, va
                dist_p = trial
                swaps += 1
                rejected = 0
                if swaps >= cap:
                    break
            else:
                rejected += 1
                if rejected >= _REJECT_RUN:
                    break
    touched = np.fromiter(moved, dtype=np.intp, count=len(moved))
    vals = base.copy()
    vals[touched] = np.fromiter(moved.values(), dtype=float, count=len(moved))
    dist = g._lp_norm(vals[touched] - base[touched], dom.h)
    return RearrangementSample(g.ScalarField(dom, vals), dist, swaps, int(seed))


def hl_coupling(v0, w_tilde: g.ScalarField) -> g.ScalarField:
    """Sorting coupling: assign the multiset v0 to cells so that the inner
    product with w_tilde is maximal (largest values on the largest cells of
    w_tilde; ties broken by node index)."""
    dom = w_tilde.domain
    v0 = np.asarray(v0, dtype=float).ravel()
    ii = dom.interior_ids
    if v0.size != len(ii):
        raise GridError(
            "multiset size %d does not match interior cell count %d"
            % (v0.size, len(ii))
        )
    order = np.argsort(-w_tilde.values[ii], kind="stable")
    out = np.zeros(dom.n_nodes)
    ranked = np.sort(v0)[::-1]
    tgt = np.empty(len(ii))
    tgt[order] = ranked
    out[ii] = tgt
    return g.ScalarField(dom, out)


def histogram_distance(w1: g.ScalarField, w2: g.ScalarField) -> float:
    """L1 distance between the value histograms of two fields, computed on
    shared bin edges spanning both ranges; each interior cell carries mass h^2.
    Zero exactly for rearrangement pairs.

    The bin count follows Sturges' rule for the cell count, the standard
    choice for comparing empirical distributions of n samples, and is at
    least 8.
    """
    dom = w1.domain
    bins = max(8, int(math.log2(max(dom.n_interior, 2))) + 1)
    a = w1.values[dom.interior_ids]
    b = w2.values[w2.domain.interior_ids]
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi <= lo:
        hi = lo + max(1e-12, 1e-12 * abs(lo))
    edges = np.linspace(lo, hi, bins + 1)
    h1, _ = np.histogram(a, bins=edges)
    h2c, _ = np.histogram(b, bins=edges)
    h2 = dom.h * dom.h
    return float(np.abs(h1 - h2c).sum()) * h2


def _transpositions(w: g.ScalarField, seed: int):
    """Every single transposition of the interior cell values of w."""
    for i, j in combinations(w.domain.interior_ids, 2):
        vals = w.values.copy()
        vals[i], vals[j] = vals[j], vals[i]
        wt = g.ScalarField(w.domain, vals)
        yield RearrangementSample(wt, g.lp_norm(wt - w), 1, seed)


def local_max_probe(
    basis,
    state,
    radius: float,
    n_samples: int,
    seed: int,
) -> ProbeReport:
    """Energy comparison over rearrangements near the steady vorticity.

    Reports every sample with E(w, a) > E(steady) + tol, tol = 1e-8 max(1,
    |E(steady)|), as a violation; a certified stable state should produce
    none for small radii.  On tiny grids (at most 8 interior cells) all
    transpositions are enumerated instead of sampling, and radius and
    n_samples are unused.
    """
    if not state.certified:
        raise GridError("probe requires a certified steady state")
    dom = basis.domain
    wbar = state.omega_bar
    e0 = energy(basis, wbar, state.a)
    tol = 1e-8 * max(1.0, abs(e0))
    exhaustive = dom.n_interior <= 8

    columns = ("seed", "swap_count", "distance", "energy", "delta_e", "violation")
    rows = []
    violations = 0
    max_excess = -math.inf
    clean = 0.0
    if exhaustive:
        samples = _transpositions(wbar, seed)
    else:
        samples = (swaps_within_radius(wbar, radius, seed + t) for t in range(n_samples))
    for smp in samples:
        e = energy(basis, smp.w, state.a)
        de = e - e0
        bad = de > tol and smp.distance_lp > 0
        violations += bad
        max_excess = max(max_excess, de)
        if not bad:
            clean = max(clean, smp.distance_lp)
        rows.append((smp.seed, smp.swap_count, smp.distance_lp, e, de, bad))
    return ProbeReport(
        kind="exhaustive" if exhaustive else "local_max",
        seed=seed,
        n_samples=len(rows),
        tol=tol,
        violations=int(violations),
        max_excess=float(max_excess),
        clean_radius=float(clean),
        columns=columns,
        rows=rows,
    )


def supporting_probe(
    basis,
    state,
    gf: GFunc,
    n_samples: int,
    seed: int,
    lp: LegendrePair,
) -> ProbeReport:
    """Dominance chain check EC <= Dhat <= D on sampled rearrangements, with
    equality of all three at the steady vorticity, each to _CHAIN_REL_TOL
    times max(1, |EC(steady)|); the shift equation residual is reported for
    every sample."""
    if not gf.has_linear_tails:
        raise GridError("profile must be extended for the supporting functionals")
    wbar = state.omega_bar
    # one record per sample, so one stream solve; the t = 0 sample is the
    # steady vorticity itself, whose record also gives the scale
    rec0 = _Sample(basis, wbar, state.a)
    # every sample permutes the interior values of wbar, and the Casimir
    # integral is an exact, order-independent sum of a pointwise function, so
    # it equals cas0 bit for bit: EC = E - cas0 is what energy_casimir returns
    cas0 = casimir(basis.domain, wbar, lp)
    tol = _CHAIN_REL_TOL * max(1.0, abs(rec0.energy - cas0))

    columns = (
        "seed",
        "swap_count",
        "distance",
        "energy",
        "ec",
        "d_hat",
        "d",
        "mu",
        "mu_residual",
        "chain_violation",
    )
    rows = []
    violations = 0
    worst = 0.0
    for t in range(n_samples + 1):
        if t == 0:
            smp = RearrangementSample(wbar, 0.0, 0, seed)
            rec = rec0
        else:
            smp = random_swaps(wbar, 1 + (7 * t) % 64, seed + t)
            rec = _Sample(basis, smp.w, state.a)
        e = rec.energy
        ec = e - cas0
        dval = rec.d(gf)
        dhat, mu = rec.d_hat(gf, state.mass)
        mu_res = rec.mu_residual(gf, mu, state.mass)
        bad = (ec > dhat + tol) or (dhat > dval + tol)
        if t == 0:
            bad = bad or abs(ec - dval) > tol or abs(mu) > _CHAIN_REL_TOL
        violations += bad
        worst = max(worst, ec - dhat, dhat - dval)
        rows.append(
            (smp.seed, smp.swap_count, smp.distance_lp, e, ec, dhat, dval, mu, mu_res, bad)
        )
    return ProbeReport(
        kind="supporting",
        seed=seed,
        n_samples=len(rows),
        tol=tol,
        violations=int(violations),
        max_excess=float(worst),
        clean_radius=float(max(r[2] for r in rows)),
        columns=columns,
        rows=rows,
    )
