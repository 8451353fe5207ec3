import math
from itertools import permutations

import numpy as np
import pytest

from arnoldstab import acceptance, field, functionals as fn, grid, harmonic
from arnoldstab import rearrange as ra, spectra, steady
from arnoldstab.errors import GridError

from conftest import plain_bisection_mu


def test_random_swaps_zero_is_identity(stable_state32):
    smp = ra.random_swaps(stable_state32.omega_bar, 0, 5)
    assert np.array_equal(smp.w.values, stable_state32.omega_bar.values)
    assert smp.distance_lp == 0.0


def test_random_swaps_exact_rearrangement(stable_state32):
    smp = ra.random_swaps(stable_state32.omega_bar, 137, 99)
    assert np.array_equal(
        np.sort(smp.w.interior_values), np.sort(stable_state32.omega_bar.interior_values)
    )
    assert ra.histogram_distance(smp.w, stable_state32.omega_bar) == 0.0


def test_random_swaps_deterministic(stable_state32):
    a = ra.random_swaps(stable_state32.omega_bar, 25, 123)
    b = ra.random_swaps(stable_state32.omega_bar, 25, 123)
    assert np.array_equal(a.w.values, b.w.values)


def test_swap_distance_monotone_in_expectation(stable_state32):
    means = []
    for k in (1, 8, 64, 512):
        dists = [
            ra.random_swaps(stable_state32.omega_bar, k, seed).distance_lp
            for seed in range(100)
        ]
        means.append(np.mean(dists))
    assert means[0] <= means[1] <= means[2] <= means[3]
    # sublinear growth: 8x more swaps gives far less than 8x the distance
    assert means[3] <= 4.0 * means[2]


def test_swaps_within_radius(stable_state32):
    target = 0.05 * grid.lp_norm(stable_state32.omega_bar)
    smp = ra.swaps_within_radius(stable_state32.omega_bar, target, 17)
    assert 0.0 < smp.distance_lp < target
    assert np.array_equal(
        np.sort(smp.w.interior_values), np.sort(stable_state32.omega_bar.interior_values)
    )


# -- bit-identity of the samplers ----------------------------------------------------
#
# The oracles are the samplers as they were written before blocked draws and
# the touched-cell overlay: one generator call per proposal, swaps on a full
# copy, and the distance as the L2 norm of the whole difference.


def _walk_oracle(omega_bar, radius, seed):
    dom = omega_bar.domain
    rng = np.random.default_rng(seed)
    vals = omega_bar.values.copy()
    base = omega_bar.values
    ii = dom.interior_ids
    n = len(ii)
    h2 = dom.h * dom.h
    max_swaps = 4 * n
    dist_p = 0.0
    swaps = 0
    rejected = 0
    while swaps < max_swaps and rejected < 32:
        i, j = rng.integers(0, n, size=2)
        a, bnd = ii[i], ii[j]
        old = (abs(vals[a] - base[a]) ** 2.0 + abs(vals[bnd] - base[bnd]) ** 2.0) * h2
        new = (abs(vals[bnd] - base[a]) ** 2.0 + abs(vals[a] - base[bnd]) ** 2.0) * h2
        with np.errstate(invalid="ignore"):
            accept = (dist_p - old + new) ** 0.5 < radius
        if accept:
            vals[a], vals[bnd] = vals[bnd], vals[a]
            dist_p = dist_p - old + new
            swaps += 1
            rejected = 0
        else:
            rejected += 1
    w = grid.ScalarField(dom, vals)
    return w, grid.lp_norm(w - omega_bar), swaps


def _random_swaps_oracle(omega_bar, k, seed):
    dom = omega_bar.domain
    rng = np.random.default_rng(seed)
    vals = omega_bar.values.copy()
    ii = dom.interior_ids
    for i, j in rng.integers(0, len(ii), size=(k, 2)):
        a, bnd = ii[i], ii[j]
        vals[a], vals[bnd] = vals[bnd], vals[a]
    w = grid.ScalarField(dom, vals)
    return w, grid.lp_norm(w - omega_bar), k


@pytest.fixture(scope="module")
def omega_bars(stable_state32):
    """Steady vorticities at res 24 (h = 1/24 is not a power of two) and 32."""
    b24 = harmonic.solve_basis(grid.build_annulus(1.0, 2.0, 24))
    lam24 = spectra.lambda_plain(b24).value
    return [steady.steady_linear(b24, 0.5 * lam24, [1.0]).omega_bar, stable_state32.omega_bar]


def _same(smp, oracle):
    w, dist, count = oracle
    assert smp.w.values.tobytes() == w.values.tobytes()
    assert (smp.distance_lp, smp.swap_count) == (dist, count)


@pytest.mark.parametrize("frac", [0.01, 0.1, 0.3])
def test_swaps_within_radius_equals_per_proposal_walk(omega_bars, frac):
    for wbar in omega_bars:
        radius = frac * grid.lp_norm(wbar)
        for seed in range(8):
            _same(ra.swaps_within_radius(wbar, radius, seed), _walk_oracle(wbar, radius, seed))
    # a walk that accepts every proposal stops at its cap of 4n swaps, here
    # inside the first block of proposals
    dom = _line_domain(12)
    wbar = dom.zeros()
    wbar.values[dom.interior_ids] = np.sin(np.arange(dom.n_interior) / frac)
    assert 4 * dom.n_interior < ra._BLOCK
    for seed in range(8):
        smp = ra.swaps_within_radius(wbar, 1e300, seed)
        assert smp.swap_count == 4 * dom.n_interior
        _same(smp, _walk_oracle(wbar, 1e300, seed))


@pytest.mark.parametrize("k", [0, 1, 5, 64, 500])
def test_random_swaps_equals_full_norm(omega_bars, k):
    for wbar in omega_bars:
        for seed in range(8):
            _same(ra.random_swaps(wbar, k, seed), _random_swaps_oracle(wbar, k, seed))


def test_block_draws_equal_per_call_draws():
    # near 2^32 about a quarter of the 32-bit draws are rejected and redrawn
    n = 3 * 2**30 + 7
    block = np.random.default_rng(5).integers(0, n, size=(600, 2))
    rng = np.random.default_rng(5)
    assert np.array_equal(block, [rng.integers(0, n, size=2) for _ in range(600)])


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_swaps_within_radius_rejects_bad_input(stable_state32, radius):
    with pytest.raises(GridError):
        ra.swaps_within_radius(stable_state32.omega_bar, radius, 0)


def _line_domain(n):
    return grid.label_components(np.ones((3, n + 2), dtype=bool), h=1.0)


def test_hl_coupling_example():
    dom = _line_domain(3)
    wt = dom.zeros()
    wt.values[dom.interior_ids] = [0.0, 5.0, 1.0]
    v = ra.hl_coupling([1, 2, 3], wt)
    assert list(v.values[dom.interior_ids]) == [1.0, 3.0, 2.0]
    assert float(np.dot(v.values[dom.interior_ids], wt.values[dom.interior_ids])) == 17.0


def test_hl_coupling_constant_ties_index_order():
    dom = _line_domain(4)
    wt = dom.constant(1.0)
    v = ra.hl_coupling([4.0, 1.0, 3.0, 2.0], wt)
    assert list(v.values[dom.interior_ids]) == [4.0, 3.0, 2.0, 1.0]


def test_hl_coupling_beats_random_permutations(stable_state32, rng):
    w = stable_state32.omega_bar
    dom = w.domain
    v0 = rng.standard_normal(dom.n_interior)
    best = ra.hl_coupling(v0, w)
    ip_best = float(np.dot(best.values[dom.interior_ids], w.values[dom.interior_ids]))
    for _ in range(100):
        perm = rng.permutation(v0)
        assert float(np.dot(perm, w.values[dom.interior_ids])) <= ip_best + 1e-12


def test_hl_coupling_brute_force_small():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        dom = _line_domain(n)
        wt = dom.zeros()
        wt.values[dom.interior_ids] = np.round(rng.standard_normal(n), 3)
        v0 = np.round(rng.standard_normal(n), 3)
        got = ra.hl_coupling(v0, wt)
        ip = float(np.dot(got.values[dom.interior_ids], wt.values[dom.interior_ids]))
        brute = max(
            float(np.dot(np.array(p), wt.values[dom.interior_ids]))
            for p in permutations(v0)
        )
        assert ip == brute


def test_hl_coupling_size_mismatch(stable_state32):
    with pytest.raises(GridError):
        ra.hl_coupling([1.0, 2.0], stable_state32.omega_bar)


def test_histogram_shift_counting_oracle(stable_state32):
    w = stable_state32.omega_bar
    dom = w.domain
    bins = max(8, int(math.log2(dom.n_interior)) + 1)  # Sturges' rule
    shifted = grid.ScalarField(dom, w.values + 0.01)
    d = ra.histogram_distance(w, shifted)
    lo = min(w.interior_values.min(), shifted.interior_values.min())
    hi = max(w.interior_values.max(), shifted.interior_values.max())
    edges = np.linspace(lo, hi, bins + 1)
    h1, _ = np.histogram(w.interior_values, bins=edges)
    h2, _ = np.histogram(shifted.interior_values, bins=edges)
    assert d == float(np.abs(h1 - h2).sum()) * dom.h**2


def test_histogram_disjoint_supports(stable_state32):
    w = stable_state32.omega_bar
    dom = w.domain
    far = grid.ScalarField(dom, w.values + 100.0)
    assert abs(ra.histogram_distance(w, far) - 2 * dom.area) <= 1e-9


def test_local_max_probe_no_violations(basis32, stable_state32):
    radius = 0.1 * grid.lp_norm(stable_state32.omega_bar)
    rep = ra.local_max_probe(basis32, stable_state32, radius, 40, 11)
    assert rep.violations == 0
    assert rep.max_excess <= 0.0
    assert all(row[2] < radius for row in rep.rows)


def test_local_max_probe_requires_certified(basis32, stable_state32):
    import dataclasses

    bad = dataclasses.replace(stable_state32, certified=False)
    with pytest.raises(GridError):
        ra.local_max_probe(basis32, bad, 0.1, 5, 0)


def test_exhaustive_probe_tiny_grid():
    tiny = grid.label_components(np.ones((4, 6), dtype=bool), h=1.0)
    assert tiny.n_interior == 8
    tb = harmonic.solve_basis(tiny)
    lam_t = spectra.lambda_plain(tb).value
    st = steady.steady_newton(tb, fn.GFunc.affine(0.3 * lam_t, 1.0), np.zeros(0))
    assert st.certified
    rep = ra.local_max_probe(tb, st, 0.0, 0, 1)
    assert rep.n_samples == 28  # all transpositions of 8 cells
    assert rep.max_excess <= 1e-12


def test_supporting_probe_chain(basis32, stable_state32):
    lp = fn.legendre(stable_state32.g)
    rep = ra.supporting_probe(basis32, stable_state32, stable_state32.g, 15, 21, lp)
    assert rep.violations == 0
    mu_res = max(row[8] for row in rep.rows)
    assert mu_res <= 1e-8


def test_probe_report_csv(tmp_path, basis32, stable_state32):
    rep = ra.local_max_probe(basis32, stable_state32, 0.05, 5, 3)
    path = tmp_path / "probe.csv"
    rep.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == list(rep.columns)
    assert len(lines) == 1 + rep.n_samples


# -- one stream solve per probe sample ----------------------------------------------
#
# The oracles below are the probes as they were written before the per-sample
# record: every functional is a separate public call with its own solve.


def _local_max_rows_oracle(basis, state, radius, n_samples, seed):
    e0 = fn.energy(basis, state.omega_bar, state.a)
    tol = 1e-8 * max(1.0, abs(e0))
    rows = []
    for t in range(n_samples):
        smp = ra.swaps_within_radius(state.omega_bar, radius, seed + t)
        e = fn.energy(basis, smp.w, state.a)
        de = e - e0
        bad = de > tol and smp.distance_lp > 0
        rows.append((seed + t, smp.swap_count, smp.distance_lp, e, de, bad))
    return rows


def _supporting_rows_oracle(basis, state, gf, n_samples, seed, lp, rel_tol=1e-6):
    dom = basis.domain
    wbar = state.omega_bar
    h2 = dom.h * dom.h
    scale = max(1.0, abs(fn.energy_casimir(basis, wbar, state.a, lp)))
    ha = field.h_field(basis, state.a)
    rows = []
    for t in range(n_samples + 1):
        if t == 0:
            smp = ra.RearrangementSample(wbar, 0.0, 0, seed)
        else:
            smp = ra.random_swaps(wbar, 1 + (7 * t) % 64, seed + t)
        e = fn.energy(basis, smp.w, state.a)
        ec = fn.energy_casimir(basis, smp.w, state.a, lp)
        dval = fn.supporting_d(basis, smp.w, state.a, gf)
        dhat, mu = fn.supporting_d_hat(basis, smp.w, state.a, gf, state.mass)
        psi_w = field.p_apply(basis, smp.w).values + ha.values
        mu_res = abs(float(np.sum(gf(psi_w[dom.interior_ids] - mu))) * h2 - state.mass)
        bad = (ec > dhat + rel_tol * scale) or (dhat > dval + rel_tol * scale)
        if t == 0:
            bad = bad or abs(ec - dval) > rel_tol * scale or abs(mu) > rel_tol
        rows.append(
            (smp.seed, smp.swap_count, smp.distance_lp, e, ec, dhat, dval, mu, mu_res, bad)
        )
    return rows, scale


def _count_calls(monkeypatch, owner, attr):
    calls = []
    inner = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def _extended(st):
    gext = fn.extend_g(st.g, st.psi_min, st.psi_max)
    return gext, fn.legendre(gext)


@pytest.mark.parametrize("seed", [11, 404])
def test_probe_rows_equal_one_call_per_functional(basis32, stable_state32, seed):
    st = stable_state32
    gext, lp = _extended(st)
    radius = 0.1 * grid.lp_norm(st.omega_bar)
    loc = ra.local_max_probe(basis32, st, radius, 6, seed)
    assert loc.rows == _local_max_rows_oracle(basis32, st, radius, 6, seed)
    sup = ra.supporting_probe(basis32, st, gext, 6, seed, lp)
    rows, scale = _supporting_rows_oracle(basis32, st, gext, 6, seed, lp)
    assert sup.rows == rows
    assert sup.tol == 1e-6 * scale


@pytest.fixture(scope="module")
def supporting_states(two_hole_basis):
    """Certified linear states on the res-24 annulus and on the two-hole mask."""
    annulus = harmonic.solve_basis(grid.build_annulus(1.0, 2.0, 24))
    out = {}
    for name, basis, a in (("annulus24", annulus, [1.0]), ("two-holes", two_hole_basis, [0.5, 0.2])):
        lam = spectra.lambda_plain(basis).value
        out[name] = basis, steady.steady_linear(basis, 0.4 * lam, a)
    return out


@pytest.mark.parametrize("where", ["annulus24", "two-holes"])
def test_supporting_rows_equal_per_sample_casimir_and_plain_bisection(
    where, supporting_states, monkeypatch
):
    """The probe integrates the Casimir once and skips the bisection midpoints
    of known sign; its rows equal a loop that integrates the Casimir of every
    sample and evaluates every midpoint."""
    basis, st = supporting_states[where]
    gext, lp = _extended(st)
    for seed in (5, 77):
        sup = ra.supporting_probe(basis, st, gext, 8, seed, lp)
        with monkeypatch.context() as mp:
            mp.setattr(fn, "solve_mu", plain_bisection_mu)
            rows, scale = _supporting_rows_oracle(basis, st, gext, 8, seed, lp)
        assert sup.violations == 0
        assert sup.rows == rows
        assert sup.tol == 1e-6 * scale


def test_probes_solve_once_per_sample(monkeypatch, basis32, stable_state32):
    st = stable_state32
    gext, lp = _extended(st)
    p_calls = _count_calls(monkeypatch, fn, "p_apply")
    solves = _count_calls(monkeypatch, field.CondensedSystem, "solve_stream")
    factors = _count_calls(monkeypatch, field, "_factor")
    sums = _count_calls(monkeypatch, grid, "_exact_sum")
    n = 5
    rep = ra.supporting_probe(basis32, st, gext, n, 3, lp)
    # the steady vorticity (t = 0, which also sets the scale) and n samples
    assert rep.n_samples == n + 1
    assert len(p_calls) == n + 1
    assert len(solves) == n + 1
    # one Casimir integral; per record int w Pw, int h_a w, D and Dhat; and
    # the distance of each swapped sample
    assert len(sums) == 1 + 4 * (n + 1) + n
    p_calls.clear()
    solves.clear()
    ra.local_max_probe(basis32, st, 0.1 * grid.lp_norm(st.omega_bar), n, 3)
    assert len(p_calls) == n + 1
    assert len(solves) == n + 1
    # the basis's factorization serves every solve
    assert not factors


def test_criterion_6_values_equal_one_call_per_functional(tmp_path):
    """Criterion 6 reads every functional of a sample from one record; each
    sample's EC, D-hat, D and D_s, and the summary values, equal one call
    per functional."""
    ctx = acceptance.AcceptanceContext(out_dir=str(tmp_path), quick=True, seed=20240801)
    res = acceptance.criterion_6(ctx)
    basis, st = ctx.basis(32), ctx.stable_state(32)
    gf, lp = st.g, fn.legendre(st.g)
    ec0 = fn.energy_casimir(basis, st.omega_bar, st.a, lp)
    d0 = fn.supporting_d(basis, st.omega_bar, st.a, gf)
    dh0, mu0 = fn.supporting_d_hat(basis, st.omega_bar, st.a, gf, st.mass)
    scale = max(1.0, abs(ec0))
    worst = -np.inf
    assert len(res.samples) == 30
    for t, row in enumerate(res.samples):
        smp = ra.random_swaps(st.omega_bar, 1 + (5 * t) % 48, ctx.seed + t)
        ec = fn.energy_casimir(basis, smp.w, st.a, lp)
        dval = fn.supporting_d(basis, smp.w, st.a, gf)
        dhat, _ = fn.supporting_d_hat(basis, smp.w, st.a, gf, st.mass)
        ds = fn.supporting_d_s(basis, smp.w, st.a, gf, 0.37, st.mass)
        assert row == (ec, dhat, dval, ds)
        worst = max(worst, ec - dhat, dhat - dval, dhat - ds)
    assert res.passed
    assert res.details["worst_gap"] == worst
    assert res.details["eq_at_state"] == max(abs(d0 - ec0), abs(dh0 - ec0)) / scale
    assert res.details["mu_at_state"] == abs(mu0)


def test_probes_build_the_harmonic_field_once(monkeypatch):
    """Every sample of a probe has the circulations of the steady state, so
    a fresh domain builds h_a once for both probes together."""
    calls = []
    h_field = fn.h_field

    def counting(basis, a):
        calls.append(1)
        return h_field(basis, a)

    monkeypatch.setattr(fn, "h_field", counting)
    basis = harmonic.solve_basis(grid.build_annulus(1.0, 2.0, 16))
    st = steady.steady_linear(basis, 0.5 * spectra.lambda_plain(basis).value, [1.0])
    gext = fn.extend_g(st.g, st.psi_min, st.psi_max)
    ra.local_max_probe(basis, st, 0.1 * grid.lp_norm(st.omega_bar), 3, 5)
    ra.supporting_probe(basis, st, gext, 3, 5, fn.legendre(gext))
    assert len(calls) == 1
