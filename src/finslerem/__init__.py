"""Numerical engine for direction-dependent electromagnetism on
pseudo-Finsler spacetimes: exact derivative jets of closed-form
generating functions, the metric/connection tower, the two-block field
tensor, generalized Maxwell residuals and currents, and charged-particle
dynamics, plus a scene-file CLI.

Importing the package loads what a scene load and a Tower run: errors,
series, expr, geometry and scene.  The dynamics, em, maxwell and cli
modules, and the names below taken from them, load on first use.
"""

import importlib as _importlib

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
from .scene import Scene, load_scene, parse_scene_text, scene_to_text

__version__ = "0.1.0"

#: the names each lazily loaded module gives the package
_LAZY = {
    "dynamics": ("ForceEvaluator", "Trajectory", "TrajectoryState", "integrate"),
    "em": ("EMSample", "em_sample", "gauge_shift", "isotropic_truncation"),
    "maxwell": (
        "CurrentSample",
        "MaxwellResiduals",
        "continuity_residual",
        "current_sample",
        "homogeneous_residuals",
        "horizontal_current",
        "vertical_current",
    ),
    "cli": (),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """Load a lazy module, or the module of a lazy name, on first use."""
    if name in _LAZY:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))
