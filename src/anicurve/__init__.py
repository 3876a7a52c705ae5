"""Anisotropic expanding curvature flows of convex bodies.

Simulator, elliptic soliton solver, and numerical verification suite for
support-function flows with speed f * u^alpha * sigma_k^beta on axisymmetric
bodies in R^3.
"""

from .sphere import (
    Grid,
    ScalarField,
    make_grid,
    make_field,
    differentiate,
    integrate,
)
from .body import (
    SPHERE_AREA,
    ConvexityLostError,
    CurvatureMatrix,
    BodyGeometry,
    round_body,
    translated_ball,
    spheroid_support,
    curvature_matrix,
    sigma_k,
    convexity_margin,
    body_geometry,
    mixed_volume,
    normalize_body,
    polar_dual,
    profile_curve,
    write_profile_csv,
)
from .functionals import (
    Anisotropy,
    FlowParams,
    DiagnosticsRecord,
    critical_offset,
    constant_anisotropy,
    power_of_linear_anisotropy,
    tabulated_anisotropy,
    speed_factor,
    speed_moment,
    mean_speed_factor,
    lyapunov_functional,
    anisotropy_condition_margin,
    alexandrov_fenchel_margin,
    moment_powers,
    diagnostics,
    diagnostics_csv_header,
    diagnostics_csv_row,
)
from .flow import (
    MODES,
    StoppingConfig,
    RunStats,
    Trajectory,
    speed,
    adaptive_dt,
    step,
    run,
    scale_factor,
    normalized_time,
    barrier,
)
from .soliton import (
    SolitonProblem,
    SolitonResult,
    NewtonStagnationError,
    soliton_residual,
    solve_soliton,
    uniqueness_spread,
    round_soliton_radius,
)
from .counterexample import (
    SubsolutionParams,
    BlowupReport,
    subsolution_profile,
    subsolution_profile_dt,
    profile_radii,
    verify_case_bounds,
    capped_profile_body,
    blowup_experiment,
)
from .config import ConfigError, ExperimentConfig, parse_config, load_config
from .cli import main, run_experiment

__version__ = "0.1.0"
