"""Riemannian geometry of reversible Markov chains on finite state spaces.

Detailed-balance rate matrices induce a family of metrics on the open
probability simplex through edge mobility functions (log-mean, alpha-mean,
geometric-mean).  This package computes the induced metric tensor, gradient
flows of f-divergences, the Levi-Civita connection, parallel transport,
geodesics, Hessians, and the full Riemann/sectional/Ricci/scalar curvature,
cross-validated against closed forms and a finite-difference chart oracle.
"""

from .errors import (
    BoundaryPoint,
    BvpNoConvergence,
    DegeneratePlane,
    DegenerateStationary,
    DetailedBalanceViolation,
    DisconnectedGraph,
    EqualComponents,
    FloatingPointFailure,
    NearSingular,
    NoDivergenceDefined,
    NonconvexF,
    OnsagerGeoError,
    StepLeavesSimplex,
)
from .chains import (
    PRESETS,
    ReversibleChain,
    build_reversible_chain,
    chain_from_rates,
    grad_matrix,
    lattice3_chain,
    preset_chain,
    triangle_reaction_chain,
)
from .mobility import (
    AlphaMean,
    CustomMean,
    GeometricMean,
    KLLogMean,
    MobilityModel,
    as_simplex_point,
    check_interior,
    model_from_spec,
)
from .metric import (
    arc_length,
    curve_velocity,
    deflated_solve,
    distance,
    eigensystem,
    frame_potentials,
    inner_product,
    mean_zero,
    orthonormal_frame,
    pseudo_inverse,
    response_at,
    response_matrix,
)
from .dynamics import (
    Energy,
    Trajectory,
    dissipation_pair,
    divergence_energy,
    gradient_flow_rhs,
    integrate,
    master_exact,
    master_rhs,
    metric_gradient,
)
from .connection import (
    ConnectionValue,
    GeodesicPath,
    GeodesicRecord,
    SampledPath,
    TransportState,
    geodesic_bvp,
    geodesic_ivp,
    hessian_form,
    levi_civita,
    parallel_transport,
)
from .curvature import (
    CurvatureReport,
    M_CONVENTION,
    SecondDirectional,
    chart_curvature_oracle,
    curvature_report,
    gamma3,
    oracle_contraction,
    ricci_scalar,
    riemann,
    second_directional,
    sectional,
)
from .lattice3 import (
    SWEEP_COLUMNS,
    lattice3_closed_forms,
    lattice3_sweep,
    lattice3_unit_chain,
    sweep_grid,
)
from .acceptance import CriterionResult, run_all

__version__ = "0.1.0"
