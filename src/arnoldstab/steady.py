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
from .errors import ConvergenceError, SolverError
from .field import certificate
from .functionals import GFunc


# largest certificate residual, relative to max(1, max |omega|), of a
# certified steady state
_CERT_TOL = 1e-8

# Newton steps a steady solve may take after its first solve
_NEWTON_CAP = 20


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

    def write_csv(self, path):
        """One-row table of the certificate and the range of psi_bar."""
        g.write_csv(
            path,
            ("residual_pde", "psi_min", "psi_max", "mass", "certified", "iterations")
            + tuple("flux_err_%d" % (k + 1) for k in range(len(self.flux_errors))),
            [(self.residual_pde, self.psi_min, self.psi_max, self.mass, self.certified,
              self.iterations, *self.flux_errors)],
        )


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


def _newton(basis, gf: GFunc, av, z) -> SteadyState:
    """Newton iteration for F(z) = K z - (h^2 g(u), -a) = 0 from z, the
    result of one solve.  It returns the first iterate that certifies, and
    otherwise steps by J dz = -F, J = K - h^2 diag(g'(u), 0), with
    `CondensedSystem.solve_shifted`.  It stops uncertified when the
    certificate residual fails to halve or after `_NEWTON_CAP` steps.
    `iterations` counts the shifted solves."""
    sys = basis.system
    solves, previous = 1, np.inf
    while True:
        psi = g.ScalarField(basis.domain, sys.embed(z[: sys.n_int], z[sys.n_int :]))
        omega = g.ScalarField(basis.domain, np.asarray(gf(psi.values), dtype=float))
        state = _certify(psi, omega, av, gf, solves)
        if state.certified or state.residual_pde > 0.5 * previous or solves > _NEWTON_CAP:
            return state
        previous = state.residual_pde
        F = sys.K @ z - np.concatenate([sys.h2 * omega.values[sys.int_ids], -av])
        z = z + sys.solve_shifted(sys.h2 * gf.deriv(z[: sys.n_int]), -F)
        solves += 1


def _linear_solve(basis, kappa: float, av):
    """One solve of the shifted condensed system of g(s) = kappa s; kappa
    resonant with the constrained ground value lambda raises `SolverError`."""
    sys = basis.system
    lam = spectra.lambda_plain(basis).value
    if abs(kappa - lam) <= 1e-6 * max(1.0, abs(lam)):
        raise SolverError("kappa = %g is resonant with lambda = %g" % (kappa, lam))
    return sys.solve_shifted(kappa * sys.h2, np.concatenate([np.zeros(sys.n_int), -av]))


def steady_linear(basis, kappa: float, a) -> SteadyState:
    """Steady state with the linear profile g(s) = kappa s: `_newton` from
    one solve of the shifted condensed system (Dirichlet form minus kappa
    times the interior mass), which is singular exactly when kappa is an
    eigenvalue of the condensed operator.  kappa resonant with the lowest
    one, lambda, is rejected.  For a constant slope the Newton steps are
    iterative refinement, and a first solve that certifies (residual at most
    _CERT_TOL relative to max(1, max |omega|)) is returned as it is;
    `ConvergenceError` is raised only if refinement ends uncertified."""
    av = g.as_circulation(a, basis.domain)
    kappa = float(kappa)
    state = _newton(basis, GFunc.linear(kappa), av, _linear_solve(basis, kappa, av))
    if not state.certified:
        raise ConvergenceError(
            "steady linear residual %.3e above certification tolerance"
            % state.residual_pde
        )
    return state


def steady_newton(basis, gf: GFunc, a) -> SteadyState:
    """Steady state omega = g(psi) by `_newton`, from the linear state of the
    median slope of g or, where that slope is resonant, from the flow of the
    constant vorticity g(0).  Near a solution with a nonsingular Jacobian,
    as for increasing profiles with slope safely below lambda, the residual
    falls quadratically.  The result is certified as in `steady_linear`; one
    that ends uncertified is returned flagged rather than raising."""
    av = g.as_circulation(a, basis.domain)
    sys = basis.system
    try:
        z = _linear_solve(basis, gf.median_slope(), av)
    except SolverError:
        rhs = np.concatenate([np.full(sys.n_int, sys.h2 * float(gf(0.0))), -av])
        z = sys.solve_shifted(0.0, rhs)
    return _newton(basis, gf, av, z)
