"""Exception and warning types shared across the package.

Overflow conditions (e.g. exponentiating a stretch whose leading eigenvalue
exceeds the double-precision range) raise the builtin :class:`OverflowError`.
"""


class Affine12Error(Exception):
    """Base class for all domain errors raised by this package."""


class SingularMatrixError(Affine12Error):
    """Matrix inversion was requested for a singular matrix."""


class DegenerateSpectrumError(Affine12Error):
    """Eigenvalues coincide where a formula requires them pairwise distinct."""


class NotPositiveDefiniteError(Affine12Error):
    """A symmetric matrix expected to be positive definite is not."""


class NotARotationError(Affine12Error):
    """Input failed the rotation-matrix precondition (orthogonality, det +1)."""


class NotOrientationPreservingError(Affine12Error):
    """Linear part has non-positive determinant."""


class OutOfRangeError(Affine12Error):
    """Evaluation parameter outside the supported domain (e.g. curve time)."""


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
    """Input is close to singular; results may lose accuracy."""


class OrientationFlipWarning(UserWarning):
    """A face transform has non-positive determinant."""
