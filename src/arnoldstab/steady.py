"""Construction and certification of steady states.

A steady state couples a stream field psi_bar (zero on the outer boundary,
constant on each inner component) to its vorticity omega_bar = g(psi_bar)
through the stream solve with prescribed circulations.  Both the pointwise
profile identity and the flux identity are certified a posteriori; nothing
downstream trusts the construction route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from . import spectra
from .errors import ConvergenceError, GridError, SolverError
from .field import certificate, stream_solve
from .functionals import GFunc


# largest certificate residual, relative to max(1, max |omega|), of a
# certified steady state
_CERT_TOL = 1e-8


@dataclass
class SteadyState:
    """Certified steady flow: stream, vorticity, circulations, profile."""

    psi_bar: g.ScalarField
    omega_bar: g.ScalarField
    a: np.ndarray
    g: GFunc
    residual_pde: float
    flux_errors: np.ndarray
    psi_min: float
    psi_max: float
    mass: float
    certified: bool
    iterations: int = 0

    def csv_header(self):
        return "residual_pde,psi_min,psi_max,mass,certified,iterations," + ",".join(
            "flux_err_%d" % (k + 1) for k in range(len(self.flux_errors))
        )

    def csv_row(self):
        cells = [
            repr(self.residual_pde),
            repr(self.psi_min),
            repr(self.psi_max),
            repr(self.mass),
            str(int(self.certified)),
            str(self.iterations),
        ] + [repr(float(e)) for e in self.flux_errors]
        return ",".join(cells)


def _certify(psi: g.ScalarField, omega: g.ScalarField, av, gf, iterations):
    residual, flux_errors = certificate(psi, omega, av)
    scale = max(1.0, float(np.abs(omega.values).max(initial=0.0)))
    certified = residual <= _CERT_TOL * scale
    return SteadyState(
        psi_bar=psi,
        omega_bar=omega,
        a=av,
        g=gf,
        residual_pde=residual,
        flux_errors=flux_errors,
        psi_min=float(psi.values.min()),
        psi_max=float(psi.values.max()),
        mass=g.integrate(omega),
        certified=certified,
        iterations=iterations,
    )


def steady_linear(basis, kappa: float, a) -> SteadyState:
    """Steady state with the linear profile g(s) = kappa s.

    Solves the shifted condensed system (Dirichlet form minus kappa times the
    interior mass) with the circulation data, by MINRES preconditioned with
    the domain's one factorization (`CondensedSystem.solve_shifted`): no
    matrix is factorized here.  The border block is invertible, so the
    system is singular exactly when kappa is an eigenvalue of the condensed
    operator; kappa resonant with the lowest one, the constrained ground
    value lambda, is rejected, and every other kappa is left to the
    a-posteriori certificate (residual at most _CERT_TOL relative to
    max(1, max |omega|)), which raises `ConvergenceError` also for a MINRES
    run that stopped at its iteration cap.
    """
    dom = basis.domain
    av = g.as_circulation(a, dom)
    kappa = float(kappa)
    sys = basis.system

    guard = 1e-6
    lam = spectra.lambda_plain(basis).value
    if abs(kappa - lam) <= guard * max(1.0, abs(lam)):
        raise SolverError(
            "kappa = %g is resonant with the constrained eigenvalue %g" % (kappa, lam)
        )

    rhs = np.concatenate([np.zeros(sys.n_int), -av])
    z = sys.solve_shifted(kappa * sys.h2, rhs)
    u = z[: sys.n_int]
    theta = z[sys.n_int :] if sys.n else np.zeros(0)
    psi = g.ScalarField(dom, sys.embed(u, theta))
    omega = g.ScalarField(dom, kappa * psi.values)
    state = _certify(psi, omega, av, GFunc.linear(kappa), 1)
    if not state.certified:
        raise ConvergenceError(
            "steady linear residual %.3e above certification tolerance"
            % state.residual_pde
        )
    return state


def steady_picard(
    basis,
    gf: GFunc,
    a,
    init: g.ScalarField | None = None,
    max_iter: int = 200,
    tol: float = 1e-10,
    damping: float = 0.5,
) -> SteadyState:
    """Damped fixed-point iteration psi <- (1-b) psi + b stream(g(psi), a).

    Converges for increasing profiles with slope safely below the constrained
    ground value.  The iterate is certified as in `steady_linear`.  If the
    iteration cap is hit, or the certificate fails, the last iterate is
    returned flagged non-certified rather than raising.
    """
    dom = basis.domain
    av = g.as_circulation(a, dom)
    if not 0.0 < damping <= 1.0:
        raise GridError("damping must lie in (0, 1]")

    if init is None:
        try:
            init = steady_linear(basis, gf.median_slope(), av).psi_bar
        except SolverError:
            const = g.ScalarField(dom, np.full(dom.n_nodes, float(gf(0.0))))
            init = stream_solve(basis, const, av).psi

    psi = init
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        omega = g.ScalarField(dom, np.asarray(gf(psi.values), dtype=float))
        sol = stream_solve(basis, omega, av)
        new = g.ScalarField(dom, (1.0 - damping) * psi.values + damping * sol.psi.values)
        delta = float(np.abs(new.values - psi.values).max())
        psi = new
        if delta <= tol * max(1.0, float(np.abs(psi.values).max())):
            converged = True
            break

    omega = g.ScalarField(dom, np.asarray(gf(psi.values), dtype=float))
    state = _certify(psi, omega, av, gf, it)
    if not converged:
        state.certified = False
    return state
