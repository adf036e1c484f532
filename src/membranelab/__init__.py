"""Grid-based solves and free boundary diagnostics for the two-phase membrane equation."""

from .grid import (
    BoundaryMap,
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
    dist_to_polynomial_class,
    eval_many,
    profile_boundary_trace,
)
from .solver import (
    ProblemSpec,
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
    NotVerticallySimpleError,
    PointClass,
    ZeroSetEmptyError,
    circle_trace,
    classify_point,
    covering_count,
    extract_free_boundary,
    fit_two_graphs,
    graph_frame,
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
