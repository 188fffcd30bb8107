"""Numerical certificates for global solvability and oscillation of
second-order nonlinear ODEs of the form (p0(t,phi) phi')' + q0(t,phi) phi'
+ r0(t,phi) phi = 0.

The toolkit evaluates exponential-integral growth envelopes, checks the
hypotheses of a family of solvability and oscillation criteria on sampled
regions, integrates the equations with zero-crossing and finite-escape
detection, and classifies trajectories, with power-law (Emden-Fowler form)
and Van der Pol type case studies built in.
"""

from .applications import (
    EFBounds,
    EFParams,
    EFTransform,
    VdPParams,
    check_t4_2,
    conditional_stability_delta,
    conditional_stability_experiment,
    ef_bound_triple,
    ef_bounds_A_B,
    ef_equation,
    ef_transform,
    kneser_majorant,
    kneser_solution,
    vdp_bound_triple,
    vdp_equation,
    vdp_family,
)
from .certificates import (
    FALSIFIED,
    GLOBAL_FOR_ALL_IC,
    GLOBAL_MONOTONE,
    INCONCLUSIVE,
    OSC_OR_SINGULAR_FIRST_KIND,
    SINGULAR_SECOND_KIND_IF_NONEXTENDABLE,
    VERIFIED,
    Certificate,
    Witness,
    check_t3_1,
    check_t3_2,
    check_t3_3,
    check_t3_4,
    check_t3_5,
    check_t3_6,
)
from .classify import (
    Classification,
    SweepCell,
    classify,
    export_raster_csv,
    sweep,
)
from .config import equation_from_json, time_function_from_json
from .dynamics import (
    FINITE_ESCAPE,
    REACHED_HORIZON,
    STEP_COLLAPSE,
    IntegrationOptions,
    TerminalStatus,
    Trajectory,
    export_trajectory_csv,
    integrate,
)
from .errors import (
    ConfigError,
    DomainError,
    FieldEvaluationError,
    NegativeIntegrandError,
    NonPositiveWeightError,
    QuadratureBudgetError,
    RangeOverflowError,
    RcertError,
)
from .fields import (
    BoundTriple,
    EquationSpec,
    GridSpec,
    InitialData,
    Rectangle,
    ScalarField,
    system_rhs,
)
from .quadrature import (
    CONVERGING,
    DIVERGING,
    CumulativeIntegral,
    DivergenceVerdict,
    FBound,
    GBound,
    adaptive_quad,
    divergence_probe,
    i_minus,
    i_plus,
)
from .riccati import (
    RiccatiPath,
    auto_segments,
    cauchy_residual,
    difference_residual,
    flux_residual,
    representation_residual,
    transform,
    volterra_residual,
)

__version__ = "0.1.0"
