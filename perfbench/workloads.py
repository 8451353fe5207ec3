"""The benchmark workloads and their correctness gates.

Each workload is a closed loop with one caller.  ``setup`` builds the inputs
from the seed; ``unit`` runs one gated unit of work and returns its timings.
Only public names of the package are called, through their modules, so that
the traced run can wrap them where they are looked up.

* transport -- segments of a fixed number of steps at a fixed dt from the
  criterion-9 configuration (res-64 annulus, kappa = lambda/2, a = 1, a bump
  of 1% of the steady vorticity norm), monitored every 25 steps.
* verdict   -- cold stability-verdict sweeps: a fresh res-64 annulus and a
  fresh two-hole mask per sweep, each taken from the basis solve to the
  verdicts at 0.5 and 1.5 lambda.
* probe     -- rounds of the local-maximizer and supporting-functional probes
  on a warm res-64 steady state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dfield

import numpy as np

from arnoldstab import dynamics, errors, field, functionals, grid, harmonic
from arnoldstab import oracle, rearrange, spectra, steady

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs FULL, its tests a small copy."""

    res: int = 64  # annulus cells per unit length
    mask_shape: tuple = (64, 128)  # two-hole mask nodes (ny, nx)
    mask_h: float = 1.0 / 32
    hole: int = 20  # hole side in nodes
    holes: tuple = ((34, 10), (18, 90))  # base lower-left hole corners (y, x)
    jitter: int = 6  # seeded shift of each hole, in nodes
    segment_steps: int = 50
    monitor_every: int = 25
    probe_batch: int = 4  # samples per probe call
    setups: int = 3
    defect_res: int = 96


FULL = Sizes()

# Gate tolerances: criterion 9 (transport), criteria 4 and 5 (verdict).
GATES = {
    "energy_drift": 0.02,
    "circ_drift": 1e-3,
    "hist_drift_per_area": 0.02,
    "cfl": 0.5,
    "lambda_rel_err": 0.01,
    "reciprocity": 1e-8,
}

# fixed time step in units of h: CFL about 0.4 for the kappa = lambda/2, a = 1
# flow, so the step count does not depend on the computed velocity
DT_PER_H = 1.9


@dataclass
class Unit:
    """One gated unit of work: per-op latencies (s), ops done, wall time."""

    latencies: list
    n_ops: int
    wall: float
    failures: list = dfield(default_factory=list)
    extra: dict = dfield(default_factory=dict)


def _spanned(tracer, name, fn, *args):
    """fn(*args) inside a benchmark-owned span when tracing."""
    if not tracer.enabled:
        return fn(*args)
    tracer.begin(name)
    try:
        return fn(*args)
    finally:
        tracer.end()


def _finite(*values):
    return all(np.all(np.isfinite(v)) for v in values)


# -- transport ---------------------------------------------------------------------


@dataclass
class TransportCtx:
    basis: object
    steady: object
    omega0: object
    cfg: object
    dt: float


class Transport:
    name = "transport"

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed

    @property
    def nominal_ops(self):
        return self.sizes.segment_steps

    def setup(self):
        s = self.sizes
        dom = grid.build_annulus(1.0, 2.0, s.res)
        basis = harmonic.solve_basis(dom)
        lam = spectra.lambda_plain(basis).value
        st = steady.steady_linear(basis, 0.5 * lam, [1.0])
        omega0 = st.omega_bar + self._bump(st.omega_bar)
        dt = DT_PER_H * dom.h
        vel = dynamics.init_state(basis, omega0, st.a).vel
        cfl = dt * max(np.abs(vel.vx).max(), np.abs(vel.vy).max()) / dom.h
        failures = [] if cfl <= GATES["cfl"] else ["cfl %.3f" % cfl]
        if not st.certified:
            failures.append("steady state not certified")
        cfg = dynamics.SimConfig(t_final=s.segment_steps * dt, dt=dt, cfl=0.9)
        return TransportCtx(basis, st, omega0, cfg, dt), failures

    def _bump(self, omega_bar):
        """Smooth bump of L2 norm 1% of the steady vorticity, centred on the
        mid-radius circle at a seeded angle."""
        dom = omega_bar.domain
        theta = np.random.default_rng(self.seed).uniform(0.0, 2.0 * math.pi)
        rho2 = (
            (dom.node_x - 1.5 * math.cos(theta)) ** 2
            + (dom.node_y - 1.5 * math.sin(theta)) ** 2
        ) / 0.4**2
        vals = np.zeros(dom.n_nodes)
        inside = (rho2 < 1.0) & dom.is_interior
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
        bump = grid.ScalarField(dom, vals)
        return bump * (0.01 * grid.lp_norm(omega_bar) / grid.lp_norm(bump))

    def monitor(self, ctx, state):
        """Conserved quantities of one state: energy (two evaluations),
        contour circulations and the value-histogram drift."""
        dom = ctx.basis.domain
        circs = [
            field.circulation(state.vel, k, omega=state.omega)
            for k in range(1, dom.n_components)
        ]
        return (
            functionals.energy(ctx.basis, state.omega, state.b),
            field.kinetic_energy(state.vel),
            rearrange.histogram_distance(state.omega, ctx.omega0),
            *circs,
        )

    def unit(self, ctx, tracer):
        s = self.sizes
        t_start = clock()
        state = dynamics.init_state(ctx.basis, ctx.omega0, ctx.steady.a)
        rows = [_spanned(tracer, "dynamics.monitor", self.monitor, ctx, state)]
        lat = []
        for k in range(1, s.segment_steps + 1):
            if tracer.enabled:
                tracer.begin("op")
            t0 = clock()
            state = dynamics.step(state, ctx.cfg)
            lat.append(clock() - t0)
            if tracer.enabled:
                tracer.end()
            if k % s.monitor_every == 0 or k == s.segment_steps:
                rows.append(_spanned(tracer, "dynamics.monitor", self.monitor, ctx, state))
        wall = clock() - t_start
        return Unit(lat, s.segment_steps, wall, self.check(ctx, rows, state))

    def check(self, ctx, rows, state):
        rows = np.array(rows, dtype=float)
        failures = []
        if not _finite(rows, state.omega.values, state.psi.values):
            return ["non-finite monitor values or fields"]
        energy, hist, circ = rows[:, 0], rows[:, 2], rows[:, 3:]
        drift = {
            "energy_drift": np.abs(energy - energy[0]).max() / abs(energy[0]),
            "circ_drift": (np.abs(circ - circ[0]).max(axis=0) / np.abs(circ[0])).max(),
            "hist_drift_per_area": hist.max() / ctx.basis.domain.area,
        }
        failures += ["%s %.3g" % (k, v) for k, v in drift.items() if not v <= GATES[k]]
        horizon = self.sizes.segment_steps * ctx.dt
        if abs(state.t - horizon) > 1e-9 * horizon:
            failures.append("time step not held fixed (t=%r)" % state.t)
        return failures


# -- verdict -----------------------------------------------------------------------


@dataclass
class VerdictCtx:
    lam_oracle: float
    rng: np.random.Generator


class Verdict:
    name = "verdict"
    nominal_ops = 1

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed

    def setup(self):
        """The radial oracle is the untimed correctness reference for lambda."""
        lam = oracle.radial_eigen(oracle.RadialProblem(1.0, 2.0, 4096), "lambda_Y")
        return VerdictCtx(lam, np.random.default_rng(self.seed)), []

    def two_hole_mask(self, rng):
        """Fluid mask with two fixed-size square holes, each shifted by a
        seeded offset from an off-centre base position.

        The base layout keeps the two lowest zero-boundary eigenvalues well
        apart (ratio below 0.6 over the whole shift range); near-degenerate
        layouts stall ``dirichlet_ground``, which KNOWN_DEFECTS records.
        """
        s = self.sizes
        mask = np.ones(s.mask_shape, dtype=bool)
        for y, x in s.holes:
            dy, dx = rng.integers(-s.jitter, s.jitter + 1, size=2)
            mask[y + dy : y + dy + s.hole, x + dx : x + dx + s.hole] = False
        return mask

    def verdict(self, dom, a, lam_oracle):
        """Full verdict pipeline on one domain; returns failed gates."""
        basis = harmonic.solve_basis(dom)
        lam = spectra.lambda_plain(basis).value
        big = spectra.lambda_big(basis).value
        st_ok = steady.steady_linear(basis, 0.5 * lam, a)
        rep_ok = spectra.check_stability(basis, st_ok)
        st_bad = steady.steady_linear(basis, 1.5 * lam, a)
        rep_bad = spectra.check_stability(basis, st_bad)
        failures = []
        if lam_oracle is not None and not abs(lam / lam_oracle - 1.0) <= GATES["lambda_rel_err"]:
            failures.append("lambda %.6g vs oracle %.6g" % (lam, lam_oracle))
        if not abs(lam * big - 1.0) <= GATES["reciprocity"]:
            failures.append("lambda * Lambda - 1 = %.3g" % (lam * big - 1.0))
        if not (rep_ok.criterion_ok and rep_ok.arnold_ok):
            failures.append("kappa = lambda/2 not verdicted stable")
        if rep_bad.criterion_quadform_ok:
            failures.append("kappa = 1.5 lambda not flagged violated")
        if not (st_ok.certified and st_bad.certified):
            failures.append("steady state not certified")
        return failures

    def unit(self, ctx, tracer):
        s = self.sizes
        if tracer.enabled:
            tracer.begin("op")
        t0 = clock()
        annulus = grid.build_annulus(1.0, 2.0, s.res)
        failures = self.verdict(annulus, [1.0], ctx.lam_oracle)
        t_annulus = clock() - t0
        mask = grid.label_components(self.two_hole_mask(ctx.rng), h=s.mask_h)
        failures += self.verdict(mask, [0.5, 0.2], None)
        wall = clock() - t0
        if tracer.enabled:
            tracer.end()
        return Unit([wall], 1, wall, failures, {"annulus_s": t_annulus})


# -- probe -------------------------------------------------------------------------


@dataclass
class ProbeCtx:
    basis: object
    steady: object
    gext: object
    legendre: object
    radius: float
    rng: np.random.Generator


class Probe:
    name = "probe"

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed

    @property
    def nominal_ops(self):
        return 2 * self.sizes.probe_batch + 1

    def setup(self):
        dom = grid.build_annulus(1.0, 2.0, self.sizes.res)
        basis = harmonic.solve_basis(dom)
        lam = spectra.lambda_plain(basis).value
        st = steady.steady_linear(basis, 0.5 * lam, [1.0])
        gext = functionals.extend_g(st.g, st.psi_min, st.psi_max)
        lp = functionals.legendre(gext)
        radius = 0.1 * grid.lp_norm(st.omega_bar)
        failures = [] if st.certified else ["steady state not certified"]
        return ProbeCtx(basis, st, gext, lp, radius, np.random.default_rng(self.seed)), failures

    def unit(self, ctx, tracer):
        """One round: both probes on B samples drawn from one seeded seed.
        Ops are samples; the latency is the round's time per sample."""
        b = self.sizes.probe_batch
        sample_seed = int(ctx.rng.integers(0, 2**31 - 1))
        if tracer.enabled:
            tracer.begin("op")
        t0 = clock()
        loc = rearrange.local_max_probe(ctx.basis, ctx.steady, ctx.radius, b, sample_seed)
        sup = rearrange.supporting_probe(
            ctx.basis, ctx.steady, ctx.gext, b, sample_seed, ctx.legendre
        )
        wall = clock() - t0
        if tracer.enabled:
            tracer.end()
        failures = []
        if loc.violations:
            failures.append("%d local-max violations" % loc.violations)
        if sup.violations:
            failures.append("%d supporting-chain violations" % sup.violations)
        n = loc.n_samples + sup.n_samples
        return Unit([wall / n], n, wall, failures)


WORKLOADS = {w.name: w for w in (Transport, Verdict, Probe)}


def _steady_attempt(domain, a):
    basis = harmonic.solve_basis(domain)
    lam = spectra.lambda_plain(basis).value
    try:
        st = steady.steady_linear(basis, 0.5 * lam, a)
    except errors.SolverError as exc:
        return True, "%s: %s" % (type(exc).__name__, exc)
    return False, "certified, residual %.3e" % st.residual_pde


def res96_certificate(sizes: Sizes):
    """Above roughly res 80 ``steady_linear`` raises ConvergenceError: its
    certificate residual is round-off amplified by 1/h^2 while ``cert_tol``
    stays fixed at 1e-8."""
    return _steady_attempt(grid.build_annulus(1.0, 2.0, sizes.defect_res), [1.0])


def dirichlet_stall(sizes: Sizes):
    """On a two-hole mask whose two lowest zero-boundary eigenvalues are close
    (ratio 0.958) the plain inverse power iteration of ``dirichlet_ground``
    stalls at its 400-iteration cap, so ``steady_linear`` raises."""
    mask = np.ones((64, 128), dtype=bool)
    for y, x in ((8, 35), (37, 76)):
        mask[y : y + 20, x : x + 20] = False
    return _steady_attempt(grid.label_components(mask, h=1.0 / 32), [0.5, 0.2])


# Operations that fail at this commit, attempted once per run outside the
# timed workloads: (per-layer metric, description, attempt).
KNOWN_DEFECTS = (
    (
        "steady.res96_known_failure",
        "steady_linear(kappa=lambda/2) on the res-96 annulus",
        res96_certificate,
    ),
    (
        "spectra.dirichlet_stall_known_failure",
        "steady_linear(kappa=lambda/2) on a near-degenerate two-hole mask",
        dirichlet_stall,
    ),
)
