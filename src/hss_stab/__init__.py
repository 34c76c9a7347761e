"""Harmonic state-space modelling and stability assessment."""

from .analysis import (
    EigenClassification,
    EigenSolution,
    EigenTrace,
    Spectrum,
    SpuriousReport,
    StabilityVerdict,
    classify_eigenvalues,
    detect_spurious,
    eigen_decompose,
    eigenvalues_only,
    evaluate_htf,
    fold_to_strip,
    match_eigenvalues,
    spectral_order,
    stability_verdict,
    sweep_parameter,
)
from .assembly import (
    ClosedLoopSystem,
    OpenLoopSystem,
    build_interconnection,
    build_open_loop,
    close_loop,
    stack_resources,
)
from .cider import (
    CiderHss,
    CiderTransforms,
    CtlInput,
    InternalRouting,
    LtpBlock,
    assemble_cider_hss,
    assemble_internal_response,
    identity_series,
    inverse_park_series,
    lti_block,
    make_zero_injection,
    park_series,
    pinv_series,
    stack_blocks,
)
from .errors import (
    ConfigurationError,
    HssError,
    NumericalError,
    PhysicalParameterError,
    PoleProximityError,
    ScenarioError,
    ShapeError,
    SingularOperatingPointError,
    TopologyError,
    WellPosednessError,
    WiringError,
)
from .grid import (
    Branch,
    GridNode,
    GridStateSpace,
    GridTopology,
    build_grid_state_space,
    lift_grid_to_hss,
)
from .harmonic import (
    HarmonicIndexSet,
    default_sample_count,
    node_major_order,
    omega_diagonal,
    sample_series,
    series_from_samples,
    toeplitz_from_fourier,
)
from .model import HssModel, lift_ltp
from .pipeline import SystemModel, assemble_cider, assemble_system
from .references import (
    AffineReference,
    PqReference,
    ReferencePlugin,
    make_operating_point,
)
from .runner import ResultSet, export_results, run_command
from .scenario import Scenario, load_scenario, scenario_from_dict

__version__ = "0.1.0"
