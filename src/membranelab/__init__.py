"""Grid-based solves and free boundary diagnostics for the two-phase membrane equation."""

from .grid import (
    BoundaryMap,
    Grid2D,
    ScalarField,
    build_grid,
    dump_field_csv,
    float_repr,
    gradient_fields,
    interpolate_many,
    laplacian_interior,
    sample,
)
from .profiles import (
    GlobalProfile,
    OnePhasePolynomial,
    RampFitError,
    dist_to_M,
    eval_many,
    profile_boundary_trace,
)
from .solver import (
    ComparisonResult,
    ProblemSpec,
    SolveReport,
    SolverError,
    comparison_check,
    energy,
    residual_field,
    solve,
)
from .monotonicity import (
    DegenerateRescaleError,
    MonotonicityProfile,
    RadiusLadder,
    acf_psi,
    blowup_rescale,
    directional_parts,
    directional_psi,
    phi_ladder,
    psi_ladder,
    s_norm,
    weiss_phi,
)
from .freeboundary import (
    CircleTrace,
    FieldAnalysis,
    FreeBoundarySet,
    GraphFit,
    NotVerticallySimpleError,
    PhaseLengths,
    PointClass,
    XiTrace,
    ZeroSetEmptyError,
    circle_trace,
    classify_point,
    covering_count,
    dist_to_polynomial_class,
    extract_free_boundary,
    fit_two_graphs,
    perimeter_estimate,
    reflection_xi,
)
from .cli import (
    ConfigError,
    ExperimentConfig,
    StabilityReport,
    SweepHypothesisError,
    SweepRow,
    hausdorff_distance,
    load_config,
    run,
    stability_sweep,
    write_json,
)

__version__ = "0.1.0"
