"""Construction and certification of steady states.

A steady state couples a stream field psi_bar (zero on the outer boundary,
constant on each inner component) to its vorticity omega_bar = g(psi_bar)
through the stream solve with prescribed circulations.  Both the pointwise
profile identity and the flux identity are certified a posteriori; nothing
downstream trusts the construction route.

A linear profile g(s) = kappa s is one shifted solve, done in a Krylov basis
of C^-1 that every slope on the same domain and circulations shares, with one
defect-correction solve on the factorization of K where the combination
misses the certificate.  A nonlinear profile starts from the linear state of
its median slope and takes Newton steps, each a MINRES solve preconditioned
by that factorization.
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


def _newton(basis, gf: GFunc, av, z, correct=False) -> SteadyState:
    """Newton iteration for F(z) = K z - (h^2 g(u), -a) = 0 from z, the
    result of one solve.  It returns the first iterate that certifies, and
    otherwise steps by J dz = -F, J = K - h^2 diag(g'(u), 0), with
    `CondensedSystem.solve_shifted`.  With `correct`, z is the Krylov
    solution of the linear state of g itself, and its first step is the
    defect correction dz = -K^-1 F instead: one solve with the cached
    factorization of K, which removes the rounding error that the Krylov
    combination carries.  It stops uncertified when the certificate
    residual fails to halve or after `_NEWTON_CAP` steps.  `iterations`
    counts the first solve and the steps."""
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
        if correct:
            z = z - sys.solve_shifted(0.0, F)
            correct = False
        else:
            z = z + sys.solve_shifted(sys.h2 * gf.deriv(z[: sys.n_int]), -F)
        solves += 1


def _linear_solve(basis, kappa: float, av):
    """(z, krylov): z with (K - kappa h^2 diag(1, 0)) z = (0, -a), the
    shifted condensed system of g(s) = kappa s, and whether it came from
    the Krylov solve; kappa resonant with the constrained ground value
    lambda raises `SolverError`.

    The interior part u solves (I - kappa S) u = u0, with S = C^-1 and u0
    the interior part of K^-1 (0, -a), so one Krylov space of S from u0
    serves every kappa (`spectra._Krylov.shifted_solve`; Jegerlehner,
    hep-lat/9612014, 1996, on shifted Krylov solves).  The domain keeps its
    basis for the latest circulations (`grid.cached`).  The border rows
    give the boundary constants theta = (M^T u - a) / D.  Where the Krylov
    solve does not converge within the basis cap, as for a slope far above
    the spectrum of C, whose solution the smooth space of S does not hold,
    the shifted system is solved by MINRES (`CondensedSystem.solve_shifted`)
    instead."""
    sys = basis.system
    lam = spectra.lambda_plain(basis).value
    if abs(kappa - lam) <= 1e-6 * max(1.0, abs(lam)):
        raise SolverError("kappa = %g is resonant with lambda = %g" % (kappa, lam))
    if not av.any():
        return np.zeros(sys.n_int + sys.n), True

    def build():
        u0, _ = sys.solve_stream(np.zeros(sys.n_int), av)
        return spectra._Krylov(spectra._inverse(sys), u0)

    u, converged = g.cached(basis.domain, "steady_basis", build, tag=av).shifted_solve(kappa)
    if not converged:
        rhs = np.concatenate([np.zeros(sys.n_int), -av])
        return sys.solve_shifted(kappa * sys.h2, rhs), False
    return np.concatenate([u, (sys.M.T @ u - av) / sys.Dk]), True


def steady_linear(basis, kappa: float, a) -> SteadyState:
    """Steady state with the linear profile g(s) = kappa s: `_newton` from
    one solve of the shifted condensed system (Dirichlet form minus kappa
    times the interior mass), which is singular exactly when kappa is an
    eigenvalue of the condensed operator.  kappa resonant with the lowest
    one, lambda, is rejected.  For a constant slope the steps are iterative
    refinement, the first of them a defect correction on K (see `_newton`),
    and a first solve that certifies (residual at most _CERT_TOL relative to
    max(1, max |omega|)) is returned as it is; `ConvergenceError` is raised
    only if refinement ends uncertified."""
    av = g.as_circulation(a, basis.domain)
    kappa = float(kappa)
    state = _newton(basis, GFunc.linear(kappa), av, *_linear_solve(basis, kappa, av))
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
        z, krylov = _linear_solve(basis, gf.median_slope(), av)
    except SolverError:
        rhs = np.concatenate([np.full(sys.n_int, sys.h2 * float(gf(0.0))), -av])
        z, krylov = sys.solve_shifted(0.0, rhs), False
    return _newton(basis, gf, av, z, krylov and gf.kind == "linear")
