"""Numerical engine for direction-dependent electromagnetism on
pseudo-Finsler spacetimes: exact derivative jets of closed-form
generating functions, the metric/connection tower, the two-block field
tensor, generalized Maxwell residuals and currents, and charged-particle
dynamics, plus a scene-file CLI.
"""

from .dynamics import ForceEvaluator, Trajectory, TrajectoryState, integrate
from .em import (
    EMSample,
    em_sample,
    gauge_shift,
    isotropic_truncation,
)
from .errors import (
    DegenerateMetricError,
    DomainError,
    ExprSyntaxError,
    FinslerEMError,
    HomogeneityViolationError,
    SceneParseError,
    SignatureMismatchError,
    SingularForceMatrixError,
    StepRejectionLimitError,
    UnknownIdentifierError,
)
from .expr import Jet, ScalarField, check_homogeneity, eval_jet, parse
from .geometry import (
    GeometrySample,
    SpaceDef,
    Tower,
    divergence,
    draw_admissible,
    geometry_sample,
    metric,
)
from .maxwell import (
    CurrentSample,
    MaxwellResiduals,
    continuity_residual,
    current_sample,
    homogeneous_residuals,
    horizontal_current,
    vertical_current,
)
from .scene import Scene, load_scene, parse_scene_text, scene_to_text

__version__ = "0.1.0"
