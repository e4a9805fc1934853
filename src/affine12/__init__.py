"""12-parameter Euclidean toolkit for orientation-preserving 3D affine maps.

Transforms are represented by a translation vector plus the logs of the
rotation and stretch factors of their polar decomposition, all computed by
closed formulas (no iteration, no diagonalisation). The flat parameter
space makes blending, extrapolation, pose interpolation, and mesh shape
blending ordinary vector arithmetic, with every transform class of the
hierarchy closed under the operations.
"""

from .blend import (
    PoseTrack,
    WeightedTransforms,
    blend,
    deform_point,
    interpolate_pose,
)
from .errors import (
    Affine12Error,
    DegenerateTriangleError,
    FileFormatError,
    IllConditionedWarning,
    NonFiniteInputError,
    NotARotationError,
    NotOrientationPreservingError,
    NotPositiveDefiniteError,
    OrientationFlipWarning,
    OutOfRangeError,
    SolverNotConvergedError,
)
from .expmap import exp_so3, exp_sym3
from .linalg3 import (
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    Vec3,
    sym_eigenvalues,
)
from .logmap import (
    consistent_log_so3,
    inv_sqrt_spd,
    log_so3,
    log_spd_half_gram,
)
from .meshblend import (
    CompatibleSet,
    TriMesh,
    blend_shapes,
    load_obj,
    per_face_affine,
    save_obj,
)
from .param import (
    AffineParam12,
    HomAffine3,
    TransformClass,
    class_contains,
    is_in_class,
    params_to_transform,
    polar_decompose,
    project_to_class,
    transform_to_params,
)

__version__ = "0.1.0"

__all__ = [
    "AffineParam12",
    "AntiSymMat3",
    "Affine12Error",
    "CompatibleSet",
    "DegenerateTriangleError",
    "FileFormatError",
    "HomAffine3",
    "IllConditionedWarning",
    "Mat3",
    "NonFiniteInputError",
    "NotARotationError",
    "NotOrientationPreservingError",
    "NotPositiveDefiniteError",
    "OrientationFlipWarning",
    "OutOfRangeError",
    "PoseTrack",
    "SolverNotConvergedError",
    "SymEig3",
    "SymMat3",
    "TransformClass",
    "TriMesh",
    "Vec3",
    "WeightedTransforms",
    "blend",
    "blend_shapes",
    "class_contains",
    "consistent_log_so3",
    "deform_point",
    "exp_so3",
    "exp_sym3",
    "interpolate_pose",
    "inv_sqrt_spd",
    "is_in_class",
    "load_obj",
    "log_so3",
    "log_spd_half_gram",
    "params_to_transform",
    "per_face_affine",
    "polar_decompose",
    "project_to_class",
    "save_obj",
    "sym_eigenvalues",
    "transform_to_params",
]
