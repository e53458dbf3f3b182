"""Low-frequency source imaging in acoustic waveguides.

Guided-mode synthesis of point-source data on sensor arrays, regularized
mode-amplitude estimation, migration imaging with peak localization, and
effective-rank analysis of vertical, horizontal and planar arrays.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EmptySpectrum,
    GeometryMismatch,
    NoGuidedModes,
    QuadratureNotConverged,
    SingularUnregularized,
    TooFewReceivers,
)
from .estimate import (
    CouplingMatrix,
    EstimationReport,
    HardThreshold,
    RegPolicy,
    SensingMatrix,
    Tikhonov,
    coupling_matrix,
    estimate_amplitudes,
    estimator_matrix,
    mse_decomposition,
    optimal_epsilon,
    project_reduced,
    sensing_matrix,
    svd_estimate,
)
from .image import (
    ImageMap,
    SearchGrid,
    default_grid,
    locate_peak,
    localization_success,
    migrate,
    reverse_time,
)
from .modes import (
    HomogeneousDD,
    HomogeneousDN,
    ModeSet,
    Parabolic,
    solve_modes,
)
from .rank import (
    AbsoluteThreshold,
    MomentFamily,
    PlateauHalf,
    SpectrumReport,
    dense_rank_prediction,
    effective_rank,
    moment_family,
    span_rank_collapse,
    taylor_rank_prediction,
)
from .synth import (
    Dense,
    Discrete,
    FieldSamples,
    PointSource,
    array_samples,
    horizontal_line,
    lhs_design,
    sample_field,
    source_amplitudes,
    vertical_line,
)

__all__ = [name for name in dir() if not name.startswith("_")]
