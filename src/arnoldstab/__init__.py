"""Numerical toolkit for the stability of steady 2D ideal flows in
multiply-connected domains: circulation-corrected stream solves, constrained
eigenvalue criteria, energy-Casimir machinery, rearrangement probes, and a
vorticity-transport simulator."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    GridDomain,
    ScalarField,
    boundary_flux,
    build_annulus,
    dirichlet_form,
    integrate,
    label_components,
    lp_norm,
    neg_laplacian,
    read_field,
    write_field,
)
from .harmonic import HarmonicBasis, solve_basis, x_decompose  # noqa: F401
from .field import (  # noqa: F401
    StreamSolution,
    VelocityField,
    circulation,
    h_field,
    kinetic_energy,
    p_apply,
    stream_solve,
    velocity,
)
from .functionals import (  # noqa: F401
    GFunc,
    LegendrePair,
    energy,
    energy_casimir,
    extend_g,
    legendre,
    supporting_d,
    supporting_d_hat,
    supporting_d_s,
    stream_energy_casimir,
)
from .spectra import (  # noqa: F401
    CriterionReport,
    SpectralResult,
    check_stability,
    lambda_big,
    lambda_c,
    lambda_plain,
    weak_pos_def,
)
from .steady import SteadyState, steady_linear, steady_newton  # noqa: F401
from .rearrange import (  # noqa: F401
    ProbeReport,
    RearrangementSample,
    hl_coupling,
    histogram_distance,
    local_max_probe,
    random_swaps,
    supporting_probe,
)
from .dynamics import (  # noqa: F401
    DiagnosticsSeries,
    ExperimentReport,
    PerturbationSpec,
    SimConfig,
    SimState,
    perturb,
    run,
    stability_experiment,
    step,
    turnover_time,
)
