"""The 12-parameter representation of orientation-preserving affine maps.

A transform A = [linear | translation] with det(linear) > 0 factors as
translation * rotation * stretch, where rotation = exp(X) for an
antisymmetric X and stretch = exp(Y) for a symmetric Y (the polar
decomposition of the linear part, taken on the log side). The triple
(translation, X, Y) lives in a flat 12-dimensional space with no
constraints, so transforms can be summed, scaled, interpolated, and
projected coordinate-wise; mapping back is total and always lands on a
positive-determinant transform.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import NotOrientationPreservingError
from .expmap import exp_so3, exp_sym3_with_eig
from .linalg3 import (
    ANTISYM3_ZERO,
    MAT3_IDENTITY,
    SYM3_ZERO,
    VEC3_ZERO,
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    Vec3,
    _MIN_NORMAL,
    _new,
    gram,
    mat_det,
    mat_mul_sym,
    mat_vec,
    sym_char_coeffs,
    sym_eigenvalues,
    vec_add,
)
from .logmap import consistent_log_so3, inv_sqrt_from_log, log_so3, log_spd_half_gram

# relative gap below which a Gram eigenvalue counts as a near-multiple root
_NEWTON_SKIP = 1e-8


class AffineParam12(NamedTuple):
    """Point of the parameter space: translation, rotation log, stretch log."""

    translation: Vec3
    rotation: AntiSymMat3
    stretch: SymMat3

    def to_vector(self) -> tuple[float, ...]:
        """Flatten in the fixed serialization order (translation, rotation, stretch)."""
        return (*self.translation, *self.rotation, *self.stretch)

    @classmethod
    def from_vector(cls, v) -> "AffineParam12":
        if len(v) != 12:
            raise ValueError(f"expected 12 components, got {len(v)}")
        return _new(cls, (_new(Vec3, (v[0], v[1], v[2])),
                          _new(AntiSymMat3, (v[3], v[4], v[5])),
                          _new(SymMat3, (v[6], v[7], v[8], v[9], v[10], v[11]))))

    @classmethod
    def zero(cls) -> "AffineParam12":
        return _PARAM_ZERO


_PARAM_ZERO = AffineParam12(VEC3_ZERO, ANTISYM3_ZERO, SYM3_ZERO)


class HomAffine3(NamedTuple):
    """Affine transform as a 3x3 linear part plus a translation column."""

    linear: Mat3
    translation: Vec3

    @classmethod
    def identity(cls) -> "HomAffine3":
        return cls(MAT3_IDENTITY, VEC3_ZERO)

    def apply(self, point: Vec3) -> Vec3:
        return vec_add(mat_vec(self.linear, point), self.translation)

    def to_rows(self) -> tuple[float, ...]:
        """Row-major 3x4 flattening (translation as the fourth column)."""
        a, t = self.linear, self.translation
        return (a.a11, a.a12, a.a13, t.x,
                a.a21, a.a22, a.a23, t.y,
                a.a31, a.a32, a.a33, t.z)

    @classmethod
    def from_rows(cls, rows) -> "HomAffine3":
        if len(rows) != 12:
            raise ValueError(f"expected 12 entries of a 3x4 block, got {len(rows)}")
        return _new(cls, (_new(Mat3, (rows[0], rows[1], rows[2],
                                      rows[4], rows[5], rows[6],
                                      rows[8], rows[9], rows[10])),
                          _new(Vec3, (rows[3], rows[7], rows[11]))))


def transform_distance2(a: HomAffine3, b: HomAffine3) -> float:
    """Squared Frobenius distance over the 3x4 block."""
    return sum((x - y) ** 2 for x, y in zip(a.to_rows(), b.to_rows()))


def params_to_transform(p: AffineParam12) -> HomAffine3:
    """Map a parameter point to its transform: exp the two logs and translate.

    Total on the whole parameter space; the result always has a
    positive-determinant linear part. Raises OverflowError for stretch
    logs beyond the double-precision exponent range and OutOfRangeError
    for a rotation log whose angle is infinite.
    """
    y = p.stretch
    eig = sym_eigenvalues(y)
    stretch = exp_sym3_with_eig(y, eig)
    linear = mat_mul_sym(exp_so3(p.rotation), stretch)
    return _new(HomAffine3, (linear, p.translation))


def _refined_gram_eig(g: SymMat3, det_linear: float) -> SymEig3:
    """Spectrum of a Gram matrix, polished with the exactly-known determinant.

    The cubic solver is absolutely accurate (~eps * ||G||), which is poor
    relative accuracy for the smallest eigenvalue of an ill-conditioned
    Gram matrix. One Newton step on the characteristic polynomial, with its
    constant term taken as det(linear)^2 (computed from O(1) entries, so
    relatively accurate even when tiny), restores relative accuracy; the
    rotation factor linear * G^(-1/2) then stays orthogonal to roundoff.

    The roots are refined in order l1, l2, l3, each against the roots
    already refined. A root whose derivative p'(l) is below the skip
    threshold is a near-multiple root, where Newton is ill-posed and
    unneeded, and is kept; a NaN derivative is not skipped.
    """
    l1, l2, l3 = sym_eigenvalues(g)
    c2, c1 = sym_char_coeffs(g)
    c0 = det_linear * det_linear
    if l3 <= 0.0:
        # absolute roundoff pushed a positive eigenvalue below zero
        l3 = c0 / max(l1 * l2, _MIN_NORMAL)
    skip = _NEWTON_SKIP * max(1.0, l1 * l1)
    dp = (l1 - l2) * (l1 - l3)
    if not abs(dp) < skip:
        l1 -= (((l1 - c2) * l1 + c1) * l1 - c0) / dp
    dp = (l2 - l1) * (l2 - l3)
    if not abs(dp) < skip:
        l2 -= (((l2 - c2) * l2 + c1) * l2 - c0) / dp
    dp = (l3 - l1) * (l3 - l2)
    if not abs(dp) < skip:
        l3 -= (((l3 - c2) * l3 + c1) * l3 - c0) / dp
    if l1 >= l2 >= l3:
        return _new(SymEig3, (l1, l2, l3))
    # a step reordered the roots, or one is NaN: the list sort's order
    return _new(SymEig3, sorted((l1, l2, l3), reverse=True))


def _newton_orthonormalize(r: Mat3) -> Mat3:
    """One step r <- (r + r^-T)/2 toward the nearest rotation; array-safe.

    The step converges quadratically, and r^-T is the cofactor matrix over
    the determinant.
    """
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = r
    c11 = a22 * a33 - a23 * a32
    c12 = a23 * a31 - a21 * a33
    c13 = a21 * a32 - a22 * a31
    h = 0.5 / (a11 * c11 + a12 * c12 + a13 * c13)
    return _new(Mat3, (
        0.5 * a11 + c11 * h,
        0.5 * a12 + c12 * h,
        0.5 * a13 + c13 * h,
        0.5 * a21 + (a13 * a32 - a12 * a33) * h,
        0.5 * a22 + (a11 * a33 - a13 * a31) * h,
        0.5 * a23 + (a12 * a31 - a11 * a32) * h,
        0.5 * a31 + (a12 * a23 - a13 * a22) * h,
        0.5 * a32 + (a13 * a21 - a11 * a23) * h,
        0.5 * a33 + (a11 * a22 - a12 * a21) * h,
    ))


def _polar_split(linear: Mat3) -> tuple[SymMat3, SymEig3, Mat3]:
    """Stretch half-log, refined Gram spectrum and rotation factor of linear.

    The rotation factor linear * G^(-1/2) gets one Newton orthonormalisation
    step: Gram rounding leaves it non-orthogonal at ~eps * cond(G), and the
    rotation log would carry that defect into the parameters.
    """
    det = mat_det(linear)
    if det <= 0.0:
        raise NotOrientationPreservingError(
            f"linear part has non-positive determinant ({det!r})")
    g = gram(linear)
    eig = _refined_gram_eig(g, det)
    half_log = log_spd_half_gram(g, eig)
    r = mat_mul_sym(linear, inv_sqrt_from_log(half_log, eig))
    return half_log, eig, _newton_orthonormalize(r)


def transform_to_params(a: HomAffine3, ref: AffineParam12 | None = None) -> AffineParam12:
    """Invert the parametrisation: polar-split the linear part on the log side.

    The stretch log comes from the closed-form half-log of the Gram matrix;
    the rotation factor is recovered as linear * G^(-1/2) with the spectrum
    reused, then logged. With a reference point the rotation log is taken
    on the branch closest to the reference (see consistent_log_so3), which
    lets chained calls track turns past pi.

    Raises NotOrientationPreservingError for det <= 0.
    """
    half_log, _, r = _polar_split(a.linear)
    if ref is None:
        x = log_so3(r)
    else:
        x = consistent_log_so3(r, ref.rotation)
    return _new(AffineParam12, (a.translation, x, half_log))


def polar_decompose(linear: Mat3) -> tuple[Mat3, SymMat3]:
    """Rotation/stretch factorisation linear = R * S through the log-side split."""
    half_log, eig, r = _polar_split(linear)
    stretch_eig = SymEig3(0.5 * math.log(eig.l1),
                          0.5 * math.log(eig.l2),
                          0.5 * math.log(eig.l3))
    return r, exp_sym3_with_eig(half_log, stretch_eig)


def weighted_param_sum(params, weights) -> AffineParam12:
    """Componentwise weighted sum of parameter points."""
    acc = [0.0] * 12
    for p, w in zip(params, weights):
        for i, v in enumerate(p.to_vector()):
            acc[i] += w * v
    return AffineParam12.from_vector(acc)


class TransformClass(Enum):
    """The nine transform classes closed under parameter-space blending."""

    R3 = "R3"
    SO3 = "SO3"
    Rplus = "Rplus"
    SE3 = "SE3"
    COplus3 = "COplus3"
    Symplus3 = "Symplus3"
    Simplus3 = "Simplus3"
    GLplus3 = "GLplus3"
    Affplus3 = "Affplus3"


# subspace shape per class: keeps translation, keeps rotation log,
# stretch-log mode (0 = zero, 1 = scalar multiples of I, 2 = unrestricted)
_CLASS_SHAPE = {
    TransformClass.R3: (True, False, 0),
    TransformClass.SO3: (False, True, 0),
    TransformClass.Rplus: (False, False, 1),
    TransformClass.SE3: (True, True, 0),
    TransformClass.COplus3: (False, True, 1),
    TransformClass.Symplus3: (False, False, 2),
    TransformClass.Simplus3: (True, True, 1),
    TransformClass.GLplus3: (False, True, 2),
    TransformClass.Affplus3: (True, True, 2),
}


def class_contains(outer: TransformClass, inner: TransformClass) -> bool:
    """Whether the outer class's subspace contains the inner one's."""
    ol, ox, oy = _CLASS_SHAPE[outer]
    il, ix, iy = _CLASS_SHAPE[inner]
    return (ol or not il) and (ox or not ix) and oy >= iy


def project_to_class(p: AffineParam12, cls: TransformClass) -> AffineParam12:
    """Orthogonal projection onto the class subspace; idempotent."""
    keep_l, keep_x, y_mode = _CLASS_SHAPE[cls]
    l = p.translation if keep_l else VEC3_ZERO
    x = p.rotation if keep_x else ANTISYM3_ZERO
    if y_mode == 2:
        y = p.stretch
    elif y_mode == 1:
        m = (p.stretch.xx + p.stretch.yy + p.stretch.zz) / 3.0
        y = SymMat3(m, 0.0, 0.0, m, 0.0, m)
    else:
        y = SYM3_ZERO
    return AffineParam12(l, x, y)


def is_in_class(p: AffineParam12, cls: TransformClass, tol: float) -> bool:
    """Test whether p lies within tol of the class subspace (Euclidean)."""
    proj = project_to_class(p, cls)
    d2 = sum((a - b) ** 2 for a, b in zip(p.to_vector(), proj.to_vector()))
    return math.sqrt(d2) <= tol
