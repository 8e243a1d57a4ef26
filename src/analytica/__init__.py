"""Exact and numerical tools for deciding real analyticity from
restrictions: homogeneous forms over the rationals, hyperplane gluing,
form recovery from cone samples, Taylor towers built from radial jets,
and analyticity verdicts on planes and 2-spheres through the origin.
"""

from .certify import (
    CertifyError,
    PlaneReport,
    ScanFailure,
    ScanReport,
    check_plane_analytic,
    pullback_through_centered_inversion,
    pullback_through_inversion,
    sample_spheres,
    sphere_scan,
)
from .forms import (
    DimensionMismatchError,
    FormError,
    HomogeneousForm,
    TaylorTower,
    basis_size,
    compose_linear,
    constant_form,
    evaluate_form,
    form_from_coefficients,
    linear_form,
    monomial,
    monomial_basis,
    multiply,
    tower_evaluate,
    zero_form,
)
from .geometry import (
    AffinePlane2,
    Cone,
    DegenerateSphereError,
    GeometryError,
    Hyperplane,
    PoleError,
    SphereThroughOrigin,
    VectorPlane2,
    general_position,
    in_cone,
    invert_mu,
    invert_mu_centered,
    plane_in_subcone,
    plane_to_sphere,
    sphere_to_plane,
)
from .interpolation import (
    CompatibilityReport,
    ConeSampleSet,
    DivisibilityError,
    GluingError,
    HyperplaneRestriction,
    InterpolationError,
    ReconstructionError,
    ReconstructionResult,
    check_compatibility,
    divide_by_linear,
    glue_hyperplanes,
    reconstruct_form_from_cone,
    restriction_of,
)
from .oracle import (
    FunctionOracle,
    OracleError,
    ParseError,
    builtin_counterexample,
    degree_bound,
    evaluate_grid,
    evaluate_oracle,
    oracle_from_text,
    parse_expression,
    substitute,
    to_text,
    translate,
)
from .taylor import (
    RadialJet,
    TaylorError,
    TowerFailure,
    TowerResult,
    build_tower,
    line_convergence_radius,
    line_series,
    radial_jet,
)

__version__ = "0.1.0"
