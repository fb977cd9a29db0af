"""Geodesics, cusps and reachable sets of planar navigation in a rotating current."""

from .brackets import (
    BracketData,
    ExtremalClass,
    ExtremalTag,
    abnormal_headings,
    bracket_data,
    classify,
    singular_feedback,
)
from .cusp import CuspPoint, NotAbnormalError, cusp_historical, cusp_numeric
from .flow import (
    AdjointInit,
    GeodesicTrajectory,
    IntegrationError,
    Residuals,
    StepControl,
    closed_form_trajectory,
    endpoints,
    extended_rhs,
    first_integral_residuals,
    integrate_closed_form_historical,
    integrate_numeric,
    make_adjoint,
    position_speed,
    state_at,
)
from .problems import (
    Chart,
    DomainError,
    ExtendedState,
    ProblemDefinition,
    current_norm,
    make_historical,
    make_powerlaw,
    make_vortex,
    problem_from_descriptor,
    wrap_angle,
)
from .reachability import (
    CutLocusEstimate,
    JumpReport,
    ShootingConfig,
    ShootingGrid,
    SphereAndBall,
    ValueSample,
    ValueScan,
    Wavefront,
    build_shooting_grid,
    cut_locus_estimate,
    discontinuity_scan,
    self_intersections,
    sphere_and_ball,
    value_function,
    wavefront,
)

__version__ = "0.1.0"
