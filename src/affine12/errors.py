"""Exception and warning types shared across the package.

Every failure is raised, as an Affine12Error that names its cause, or as
the builtin :class:`OverflowError` for a result beyond the double range
(e.g. exponentiating a stretch whose leading eigenvalue is too large).
No function of the package warns: IllConditionedWarning and
OrientationFlipWarning are issued by nothing and stay for callers that
filter them.
"""


class Affine12Error(Exception):
    """Base class for all domain errors raised by this package."""


# what a map raises for an input it cannot take (batch rows, CLI exit 2)
_DOMAIN_ERRORS = (Affine12Error, ArithmeticError, ValueError)


class NotPositiveDefiniteError(Affine12Error):
    """A symmetric matrix expected to be positive definite is not."""


class NotARotationError(Affine12Error):
    """Input failed the rotation-matrix precondition (orthogonality, det +1)."""


class NotOrientationPreservingError(Affine12Error):
    """Linear part has non-positive determinant."""


class OutOfRangeError(Affine12Error):
    """Evaluation parameter outside the supported domain: a curve time, a
    branch reference whose rotation angle exceeds 1e7 rad or is not finite,
    or a rotation log whose angle is infinite."""


class DegenerateTriangleError(Affine12Error):
    """Triangle area is too small to define a face frame."""


class SolverNotConvergedError(Affine12Error):
    """Iterative solver stopped without reaching its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


class NonFiniteInputError(Affine12Error):
    """Input holds a NaN or an infinity where a finite number is required."""


class FileFormatError(Affine12Error):
    """Malformed input file; message carries a line/field diagnostic."""


class IllConditionedWarning(UserWarning):
    """Input is close to singular. Issued by nothing: a small determinant says
    nothing of accuracy, which follows the condition number, not the scale."""


class OrientationFlipWarning(UserWarning):
    """A face transform has non-positive determinant. Issued by nothing:
    per_face_affine returns such a map, and its pull-back raises
    NotOrientationPreservingError, as blend_shapes does for the face."""
