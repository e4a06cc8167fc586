"""Numerical solver and verification harness for the fifth-order KdV
equation posed on the half line x > 0 with three boundary conditions at
x = 0 (Dirichlet, Neumann, and second-derivative data).

The solution is constructed as a fixed point of the operator

    u  ->  eta(t) * [ e^{-t d^5_x} g_l  +  Duhamel(-1/2 d_x u^2)  +  W(corrected data) ]

where W is a boundary potential built from the three stable roots of the
characteristic equation i*beta + r^5 = 0, and the iteration is controlled
in discrete Bourgain-type norms.  See README.md for the layout.
"""

from .boundary import (
    AccuracyError,
    BoundaryPotential,
    BoundaryQuadrature,
    boundary_potential_traces,
)
from .bourgain import (
    NormIndices,
    bilinear_ratio,
    seeded_band_limited_field,
    xsb_norm,
    xsba_norm,
)
from .cutoffs import (
    check_compatibility,
    eta,
    extend_initial_datum,
    halfline_norm_upper,
    rho,
    right_bump,
    zero_extend_time,
)
from .fixed_point import (
    GammaWorkspace,
    NonContractionError,
    SolveResult,
    SolverConfig,
    SolverData,
    picard_solve,
)
from .grids import (
    GridFunction,
    PreconditionError,
    SpaceTimeField,
    TimeSeries,
    UniformGrid,
    canonical_json,
)
from .propagator import (
    PropagatorPlan,
    apply_group,
    free_field,
    kato_smoothing_ratio,
    trace_at_origin,
)
from .scenarios import Scenario, ScenarioError, run_scenario
from .spectral import sobolev_norm
from .verification import (
    HarnessError,
    extension_independence,
    manufactured_data,
    pde_residual,
    smoothing_report,
    weak_form_residual,
    weak_test_family,
    whole_line_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BoundaryPotential",
    "BoundaryQuadrature",
    "GammaWorkspace",
    "GridFunction",
    "HarnessError",
    "NonContractionError",
    "NormIndices",
    "PreconditionError",
    "PropagatorPlan",
    "Scenario",
    "ScenarioError",
    "SolveResult",
    "SolverConfig",
    "SolverData",
    "SpaceTimeField",
    "TimeSeries",
    "UniformGrid",
    "apply_group",
    "bilinear_ratio",
    "boundary_potential_traces",
    "canonical_json",
    "check_compatibility",
    "eta",
    "extend_initial_datum",
    "extension_independence",
    "free_field",
    "halfline_norm_upper",
    "kato_smoothing_ratio",
    "manufactured_data",
    "pde_residual",
    "picard_solve",
    "rho",
    "right_bump",
    "run_scenario",
    "seeded_band_limited_field",
    "smoothing_report",
    "sobolev_norm",
    "trace_at_origin",
    "weak_form_residual",
    "weak_test_family",
    "whole_line_oracle",
    "xsb_norm",
    "xsba_norm",
    "zero_extend_time",
]
