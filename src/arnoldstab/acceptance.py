"""Acceptance suite: every shipping criterion as an executable check.

Each criterion function returns a :class:`CriterionResult` with the measured
numbers; the CLI `verify-all` and the pytest acceptance module both run these.
Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field as dfield
from itertools import permutations

import numpy as np

from . import dynamics, field, functionals, grid, harmonic, oracle, rearrange, spectra, steady


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: dict = dfield(default_factory=dict)
    elapsed: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        info = "; ".join("%s=%s" % (k, _fmt(v)) for k, v in self.details.items())
        return "%s  criterion %2d  %-38s %s" % (status, self.cid, self.title, info)


def _fmt(v):
    if isinstance(v, float):
        return "%.3g" % v
    return str(v)


class AcceptanceContext:
    """Shared lazily-built objects for the acceptance runs."""

    def __init__(self, out_dir="out", quick=False, seed=20240801):
        self.out_dir = out_dir
        self.quick = bool(quick)
        self.seed = int(seed)
        self._cache = {}
        os.makedirs(out_dir, exist_ok=True)

    def domain(self, res):
        key = ("domain", res)
        if key not in self._cache:
            self._cache[key] = grid.build_annulus(1.0, 2.0, res)
        return self._cache[key]

    def basis(self, res):
        key = ("basis", res)
        if key not in self._cache:
            self._cache[key] = harmonic.solve_basis(self.domain(res))
        return self._cache[key]

    def lam(self, res):
        key = ("lam", res)
        if key not in self._cache:
            self._cache[key] = spectra.lambda_plain(self.basis(res)).value
        return self._cache[key]

    def stable_state(self, res):
        key = ("stable", res)
        if key not in self._cache:
            self._cache[key] = steady.steady_linear(
                self.basis(res), 0.5 * self.lam(res), [1.0]
            )
        return self._cache[key]

    def radial(self, n=4096):
        key = ("radial", n)
        if key not in self._cache:
            self._cache[key] = oracle.RadialProblem(1.0, 2.0, n)
        return self._cache[key]


# -- criteria -------------------------------------------------------------------


def criterion_1(ctx):
    """Harmonic basis against the closed forms, with a refinement ratio."""
    res_hi = 32 if ctx.quick else 64
    res_lo = res_hi // 2
    _, p11_exact, _ = oracle.annulus_closed_forms(1.0, 2.0)

    def zeta_err(res):
        dom = ctx.domain(res)
        basis = ctx.basis(res)
        r = np.hypot(dom.node_x, dom.node_y)[dom.interior_ids]
        exact = np.log(2.0 / r) / math.log(2.0)
        return float(
            np.abs(basis.zetas[0].values[dom.interior_ids] - exact).max()
        )

    err32 = zeta_err(32)
    p11 = ctx.basis(32).p[0, 0]
    ratio = zeta_err(res_lo) / zeta_err(res_hi)
    ok = (
        err32 <= 0.01
        and abs(p11 / p11_exact - 1.0) <= 0.02
        and ratio >= 3.0
    )
    return CriterionResult(
        1,
        "harmonic basis vs closed forms",
        ok,
        {
            "zeta_max_err": err32,
            "p11_rel_err": abs(p11 / p11_exact - 1.0),
            "refine_ratio": ratio,
        },
    )


def criterion_2(ctx):
    """Operator identities: symmetry, positivity, inverse, flux trend."""
    basis = ctx.basis(32)
    dom = basis.domain
    rng = np.random.default_rng(ctx.seed)
    sym_worst = 0.0
    pos_min = math.inf
    inv_worst = 0.0
    for _ in range(20):
        f1 = dom.field(np.where(dom.is_interior, rng.standard_normal(dom.n_nodes), 0.0))
        f2 = dom.field(np.where(dom.is_interior, rng.standard_normal(dom.n_nodes), 0.0))
        P1 = field.p_apply(basis, f1)
        P2 = field.p_apply(basis, f2)
        ip12 = grid.integrate(dom.field(f1.values * P2.values))
        ip21 = grid.integrate(dom.field(f2.values * P1.values))
        sym_worst = max(
            sym_worst, abs(ip12 - ip21) / (grid.lp_norm(f1) * grid.lp_norm(f2))
        )
        pos_min = min(pos_min, grid.integrate(dom.field(f1.values * P1.values)))
        inv_worst = max(
            inv_worst,
            float(
                np.abs(
                    grid.neg_laplacian(P1).values[dom.interior_ids]
                    - f1.values[dom.interior_ids]
                ).max()
            ),
        )
    flux_by_h = {}
    for res in (16, 32, 64) if not ctx.quick else (16, 32):
        bs = ctx.basis(res)
        dm = bs.domain
        f = dm.field(
            np.where(dm.is_interior, np.random.default_rng(ctx.seed).standard_normal(dm.n_nodes), 0.0)
        )
        Pf = field.p_apply(bs, f)
        flux_by_h[res] = abs(grid.boundary_flux(Pf, 1))
    flux_ok = all(v <= 0.1 / res for res, v in flux_by_h.items())
    ok = sym_worst <= 1e-8 and pos_min > 0 and inv_worst <= 1e-8 and flux_ok
    return CriterionResult(
        2,
        "inverse-operator identities",
        ok,
        {
            "sym_defect": sym_worst,
            "pos_min": pos_min,
            "inv_defect": inv_worst,
            "flux_max": max(flux_by_h.values()),
        },
    )


def criterion_3(ctx):
    """Stream solves against the radial oracle, circulation recovery."""
    basis = ctx.basis(32)
    dom = basis.domain
    rp = ctx.radial()
    r2d = np.hypot(dom.node_x, dom.node_y)[dom.interior_ids]

    worst = 0.0
    cases = (
        (lambda r: np.ones_like(r), 0.5),
        (lambda r: r, -0.3),
        (lambda r: np.exp(-4.0 * (r - 1.5) ** 2), 0.4),
    )
    for om_fun, a1 in cases:
        om = dom.field_from_function(lambda x, y: om_fun(np.hypot(x, y)))
        sol = field.stream_solve(basis, om, [a1])
        prof = oracle.radial_stream(rp, om_fun, a1)
        ref = np.interp(r2d, rp.r, prof)
        worst = max(
            worst,
            float(np.abs(sol.psi.values[dom.interior_ids] - ref).max())
            / float(np.abs(prof).max()),
        )
    # circulation recovery from the reconstructed velocity
    sol = field.stream_solve(basis, dom.zeros(), [0.8])
    circ = field.circulation(field.velocity(sol.psi), 1)
    circ_err = abs(circ / 0.8 - 1.0)
    sol2 = field.stream_solve(basis, dom.constant(1.0), [0.5])
    circ2 = field.circulation(field.velocity(sol2.psi), 1, omega=sol2.omega)
    circ_err = max(circ_err, abs(circ2 / 0.5 - 1.0))
    ok = worst <= 0.01 and circ_err <= 0.02
    return CriterionResult(
        3,
        "stream solve vs radial oracle",
        ok,
        {"psi_rel_err": worst, "circ_rel_err": circ_err},
    )


def criterion_4(ctx):
    """Extremal eigenvalues: oracle match, reciprocity, shift, residual."""
    basis = ctx.basis(32)
    dom = basis.domain
    lam_res = spectra.lambda_plain(basis)
    lam_oracle = oracle.radial_eigen(ctx.radial(), "lambda_Y")
    big = spectra.lambda_big(basis)
    shifted = spectra.lambda_c(basis, 0.7)
    el = (
        grid.neg_laplacian(lam_res.minimizer).values[dom.interior_ids]
        - lam_res.value * lam_res.minimizer.values[dom.interior_ids]
    )
    el_norm = math.sqrt(float(np.sum(el**2)) * dom.h**2)
    vals = {
        "lambda_rel_err": abs(lam_res.value / lam_oracle - 1.0),
        "reciprocity": abs(lam_res.value * big.value - 1.0),
        "shift_defect": abs(shifted.value - lam_res.value - 0.7),
        "el_residual": el_norm,
    }
    ok = (
        vals["lambda_rel_err"] <= 0.01
        and vals["reciprocity"] <= 1e-8
        and vals["shift_defect"] <= 1e-8
        and vals["el_residual"] <= 1e-6
    )
    return CriterionResult(4, "constrained eigenvalues", ok, vals)


def criterion_5(ctx):
    """Stability verdicts for the linear profile at 0.5 and 1.5 lambda."""
    basis = ctx.basis(32)
    lam = ctx.lam(32)
    st_ok = ctx.stable_state(32)
    rep_ok = spectra.check_stability(basis, st_ok)
    st_bad = steady.steady_linear(basis, 1.5 * lam, [1.0])
    rep_bad = spectra.check_stability(basis, st_bad)
    delta_bound = lam - 0.5 * lam - 1e-6
    ok = (
        rep_ok.criterion_ok
        and rep_ok.arnold_ok
        and not rep_bad.criterion_quadform_ok
        and rep_ok.delta0 >= delta_bound
    )
    return CriterionResult(
        5,
        "criterion logic stable/violated",
        ok,
        {
            "stable_ok": rep_ok.criterion_ok,
            "violated_detected": not rep_bad.criterion_quadform_ok,
            "delta0": rep_ok.delta0,
            "delta0_bound": delta_bound,
        },
    )


def criterion_6(ctx):
    """Legendre inequality and the supporting-functional dominance chain."""
    basis = ctx.basis(32)
    st = ctx.stable_state(32)
    gf = st.g
    lp = functionals.legendre(gf)

    ss = np.linspace(-4.0, 4.0, 100)
    tt = np.linspace(-5.0, 5.0, 100)
    S, T = np.meshgrid(ss, tt)
    young_min = float((lp.Ghat(S) + lp.G(T) - S * T).min())

    # one record per sample: one stream solve serves every functional
    rec0 = functionals._Sample(basis, st.omega_bar, st.a)
    ec0 = rec0.energy_casimir(lp)
    d0 = rec0.d(gf)
    dh0, mu0 = rec0.d_hat(gf, st.mass)
    scale = max(1.0, abs(ec0))

    chain_viol = 0
    worst_gap = -math.inf
    rng_seed = ctx.seed
    n_samples = 30 if ctx.quick else 100
    for t in range(n_samples):
        smp = rearrange.random_swaps(st.omega_bar, 1 + (5 * t) % 48, rng_seed + t)
        rec = functionals._Sample(basis, smp.w, st.a)
        ec = rec.energy_casimir(lp)
        dval = rec.d(gf)
        dhat, _ = rec.d_hat(gf, st.mass)
        ds = rec.d_s(gf, 0.37, st.mass)
        gap = max(ec - dhat, dhat - dval, dhat - ds)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-6 * scale:
            chain_viol += 1
    vals = {
        "young_min": young_min,
        "eq_at_state": max(abs(d0 - ec0), abs(dh0 - ec0)) / scale,
        "mu_at_state": abs(mu0),
        "chain_violations": chain_viol,
        "worst_gap": worst_gap,
    }
    ok = (
        young_min >= -1e-8
        and vals["eq_at_state"] <= 1e-6
        and abs(mu0) <= 1e-6
        and chain_viol == 0
    )
    return CriterionResult(6, "energy-Casimir functional chain", ok, vals)


def criterion_7(ctx):
    """Local-maximizer probe: sampled rearrangements and exhaustive swaps."""
    basis = ctx.basis(32)
    st = ctx.stable_state(32)
    n_samples = 50 if ctx.quick else 200
    radius = 0.1 * grid.lp_norm(st.omega_bar)
    rep = rearrange.local_max_probe(basis, st, radius, n_samples, ctx.seed)
    rep.write_csv(os.path.join(ctx.out_dir, "probe_local_max.csv"))

    tiny = grid.label_components(np.ones((4, 6), dtype=bool), h=1.0)
    tb = harmonic.solve_basis(tiny)
    lam_t = spectra.lambda_plain(tb).value
    gkt = functionals.GFunc.affine(0.3 * lam_t, 1.0)
    st_t = steady.steady_newton(tb, gkt, np.zeros(0))
    rep_t = rearrange.local_max_probe(tb, st_t, 0.0, 0, ctx.seed)  # 8 cells: exhaustive
    e_scale = abs(functionals.energy(tb, st_t.omega_bar, st_t.a))
    ok = (
        rep.violations == 0
        and rep_t.max_excess <= 1e-12 * max(1.0, e_scale)
    )
    return CriterionResult(
        7,
        "isolated local maximizer probe",
        ok,
        {
            "violations": rep.violations,
            "max_excess": rep.max_excess,
            "tiny_max_excess": rep_t.max_excess,
            "samples": rep.n_samples,
        },
    )


def criterion_8(ctx):
    """Sorting coupling equals the brute-force permutation maximum exactly."""
    worst_defect = 0.0
    checked = 0
    rng = np.random.default_rng(ctx.seed)
    for n in range(2, 9):
        dom = grid.label_components(np.ones((3, n + 2), dtype=bool), h=1.0)
        multisets = [
            np.arange(1.0, n + 1.0),
            np.ones(n),
            np.round(rng.standard_normal(n), 3),
            np.sort(np.round(rng.uniform(-1, 1, n), 2))[::-1],
        ]
        if n >= 3:
            ties = np.ones(n)
            ties[: n // 2] = 2.0
            multisets.append(ties)
        wt = dom.zeros()
        wt.values[dom.interior_ids] = np.round(rng.standard_normal(n), 3)
        for v0 in multisets:
            coupled = rearrange.hl_coupling(v0, wt)
            got = float(
                np.dot(coupled.values[dom.interior_ids], wt.values[dom.interior_ids])
            )
            best = max(
                float(np.dot(np.array(p), wt.values[dom.interior_ids]))
                for p in permutations(v0)
            )
            worst_defect = max(worst_defect, best - got)
            checked += 1
    ok = worst_defect == 0.0
    return CriterionResult(
        8,
        "sorting coupling vs brute force",
        ok,
        {"worst_defect": worst_defect, "cases": checked},
    )


def criterion_9(ctx):
    """Transport conservation monitors over ten turnover times."""
    res = 32 if ctx.quick else 64
    turnovers = 2.0 if ctx.quick else 10.0
    basis = ctx.basis(res)
    st = ctx.stable_state(res)
    spec = dynamics.PerturbationSpec(
        mode="bump", amplitude=0.01 * grid.lp_norm(st.omega_bar), seed=ctx.seed
    )
    omega0, b = dynamics.perturb(st, spec)
    tover = dynamics.turnover_time(basis, st.omega_bar, st.a)
    cfg = dynamics.SimConfig(
        t_final=turnovers * tover,
        cfl=0.5,
        monitor_every=25,
        reference=st.omega_bar,
    )
    series = dynamics.run(basis, omega0, b, cfg)
    series.write_csv(os.path.join(ctx.out_dir, "conservation_series.csv"))
    E = series.column("energy")
    C = series.column("circ_1")
    H = series.column("hist_drift")
    vals = {
        "energy_drift": float(np.abs(E - E[0]).max() / abs(E[0])),
        "circ_drift": float(np.abs(C - C[0]).max() / abs(C[0])),
        "hist_drift": float(H.max() / basis.domain.area),
    }
    ok = (
        vals["energy_drift"] <= 0.02
        and vals["circ_drift"] <= 1e-3
        and vals["hist_drift"] <= 0.02
    )
    return CriterionResult(9, "conservation monitors", ok, vals)


def criterion_10(ctx):
    """Nonlinear stability experiment: bounded response, quiet control."""
    basis = ctx.basis(32)
    st = ctx.stable_state(32)
    lp = functionals.legendre(st.g)
    turnovers = 2.0 if ctx.quick else 10.0
    tover = dynamics.turnover_time(basis, st.omega_bar, st.a)
    delta = 0.01 * grid.lp_norm(st.omega_bar)
    cfg = dynamics.SimConfig(
        t_final=turnovers * tover, monitor_every=50, legendre=lp
    )
    report = dynamics.stability_experiment(
        basis,
        st,
        [0.0, delta],
        cfg,
        modes=("swap", "bump"),
        b_offsets=(0.0, 0.01),
        seed=ctx.seed,
    )
    report.write_csv(os.path.join(ctx.out_dir, "stability_experiment.csv"))
    ratios = [r.ratio for r in report.rows if r.amplitude > 0]
    noise = [r.noise_rel for r in report.rows if r.amplitude == 0]
    vals = {
        "max_ratio": float(max(ratios)),
        "noise_floor": float(max(noise)),
    }
    ok = vals["max_ratio"] <= 3.0 and vals["noise_floor"] <= 1e-3
    return CriterionResult(10, "stability experiment", ok, vals)


def _determinism_pipeline(ctx, out):
    os.makedirs(out, exist_ok=True)
    basis = ctx.basis(16)
    lam = spectra.lambda_plain(basis).value
    st = steady.steady_linear(basis, 0.5 * lam, [1.0])
    rep = spectra.check_stability(basis, st)
    rep.write_csv(os.path.join(out, "criterion.csv"))
    st.write_csv(os.path.join(out, "steady.csv"))
    probe = rearrange.local_max_probe(
        basis, st, 0.1 * grid.lp_norm(st.omega_bar), 20, ctx.seed
    )
    probe.write_csv(os.path.join(out, "probe.csv"))
    cfg = dynamics.SimConfig(t_final=0.5, monitor_every=4, reference=st.omega_bar)
    spec = dynamics.PerturbationSpec(mode="swap", amplitude=0.01, seed=ctx.seed)
    omega0, b = dynamics.perturb(st, spec)
    series = dynamics.run(basis, omega0, b, cfg)
    series.write_csv(os.path.join(out, "series.csv"))
    return ["criterion.csv", "steady.csv", "probe.csv", "series.csv"]


def criterion_11(ctx):
    """Bit-identical CSV outputs for identical configuration and seed."""
    out_a = os.path.join(ctx.out_dir, "determinism_a")
    out_b = os.path.join(ctx.out_dir, "determinism_b")
    files = _determinism_pipeline(ctx, out_a)
    _determinism_pipeline(ctx, out_b)
    mismatch = []
    for name in files:
        with open(os.path.join(out_a, name), "rb") as fh:
            da = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            db = fh.read()
        if da != db:
            mismatch.append(name)
    ok = not mismatch
    return CriterionResult(
        11, "deterministic CSV outputs", ok, {"files": len(files), "mismatch": mismatch}
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run(ctx, ids=None):
    """Run the selected criteria, printing one pass/fail line each."""
    results = []
    for cid in sorted(CRITERIA):
        if ids is not None and cid not in ids:
            continue
        t0 = time.time()
        res = CRITERIA[cid](ctx)
        res.elapsed = time.time() - t0
        results.append(res)
        print(res.line(), flush=True)
    return results


def summary_table(results):
    lines = ["", "criterion summary:"]
    for r in results:
        lines.append("  %s (%.1fs)" % (r.line(), r.elapsed))
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        "  -> %d of %d criteria passed" % (len(results) - n_fail, len(results))
    )
    return "\n".join(lines)


def write_summary(results, path):
    """One row per criterion; the details cell is quoted, since it may hold commas."""
    rows = []
    for r in results:
        detail = ";".join("%s=%s" % (k, _fmt(v)) for k, v in r.details.items())
        rows.append((r.cid, r.title, r.passed, '"%s"' % detail))
    grid.write_csv(path, ("criterion", "title", "passed", "details"), rows)
