"""Closed-form logarithms: SPD matrices, rotations, and branch tracking.

The SPD path mirrors the symmetric exponential: eigenvalues from the cubic
solver, then log(S) = (1/2)*((a + log l2)*I - (a+c)*Z + c*Z^2) on the
normalised Z = G/l2, with coefficients built as divided differences of the
analytic helper L2(x) = (log(x) - (x-1))/(x-1). Each is a plain quotient,
guarded only where it is 0/0. The rotation log inverts the axis-angle
formula with one test, the sign of cos t. The angle is always
atan2(sin t, cos t), with sin t the norm of (R - R^T)/2. Acute rotations
take the axis from that antisymmetric part. Obtuse ones take it from the
rank-one residue R + R^T - 2 cos(t) I, because the antisymmetric part,
of norm sin t, amplifies any error in R by 1/sin t toward the half-turn.
There the projection of (R - R^T)/2 on the axis gives only its sign. No
series or clamp is needed: plain t/sin t is accurate down to the smallest
double. A reference-tracking variant follows rotations past 2*pi in one
closed form: the principal angle plus the fewest whole turns that bring it
within pi of the reference angle (a gap of exactly pi keeps the principal
log). References beyond 1e7 rad raise OutOfRangeError.
"""

from __future__ import annotations

import math

from .errors import NotARotationError, NotPositiveDefiniteError, OutOfRangeError
from .expmap import exp_sym3_with_eig
from .linalg3 import (
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    _new,
    antisym_angle,
    mat_det,
)

_ROTATION_TOL = 1e-6
_TWO_PI = 2.0 * math.pi
_MAX_REF_ANGLE = 1e7


def log_quad_coeff(x: float) -> float:
    """L2(x) = (log(x) - (x-1))/(x-1), with L2(1) = 0.

    Evaluated through log1p(x - 1); near x = 1, where x - 1 is exact, the
    error is about eps absolutely. Only x = 1 is 0/0 and returns the
    limit 0.
    """
    u = x - 1.0
    return (math.log1p(u) - u) / u if u else 0.0


def _log_coeffs(lp1: float, lp3: float) -> tuple[float, float]:
    """Coefficients (a, c) of the quadratic form for log on Z = G/l2.

    lp1 >= 1 >= lp3 > 0 are the outer eigenvalues of Z. The divided
    differences are plain quotients by the spread: an error in a or c
    reaches log(G) multiplied by (I - Z)/2 or Z(Z - I)/2, both of the size
    of the spread, so it stays at roundoff however small the spread is.
    Only a spread of exactly 0 (lp1 = lp3 = 1) is 0/0 and returns the
    limit (-3/2, -1/2).
    """
    spread = lp1 - lp3
    if not spread:
        return -1.5, -0.5
    t1 = log_quad_coeff(lp1)
    t3 = log_quad_coeff(lp3)
    a = -1.0 + (lp3 * t1 - lp1 * t3) / spread
    c = (t1 - t3) / spread
    return a, c


def log_spd_half_gram(g: SymMat3, eig: SymEig3) -> SymMat3:
    """(1/2) log(G) for SPD G with its spectrum already in hand.

    With G the Gram matrix of a linear part this is exactly the log of the
    polar stretch factor. Raises NotPositiveDefiniteError when the smallest
    eigenvalue is not positive.
    """
    l1, l2, l3 = eig
    if l3 <= 0.0:
        raise NotPositiveDefiniteError(f"smallest eigenvalue {l3!r} is not positive")
    a, c = _log_coeffs(l1 / l2, l3 / l2)
    k = 0.5 * (a + math.log(l2))
    nac = -0.5 * (a + c)
    hc = 0.5 * c
    inv = 1.0 / l2
    gxx, gxy, gxz, gyy, gyz, gzz = g
    z1, z2, z3 = gxx * inv, gxy * inv, gxz * inv
    z4, z5, z6 = gyy * inv, gyz * inv, gzz * inv
    zz1 = z1 * z1 + z2 * z2 + z3 * z3
    zz2 = z1 * z2 + z2 * z4 + z3 * z5
    zz3 = z1 * z3 + z2 * z5 + z3 * z6
    zz4 = z2 * z2 + z4 * z4 + z5 * z5
    zz5 = z2 * z3 + z4 * z5 + z5 * z6
    zz6 = z3 * z3 + z5 * z5 + z6 * z6
    return _new(SymMat3, (
        k + nac * z1 + hc * zz1,
        nac * z2 + hc * zz2,
        nac * z3 + hc * zz3,
        k + nac * z4 + hc * zz4,
        nac * z5 + hc * zz5,
        k + nac * z6 + hc * zz6,
    ))


def inv_sqrt_from_log(half_log: SymMat3, eig: SymEig3) -> SymMat3:
    """G^(-1/2) = exp(-(1/2) log G), reusing the spectrum of G.

    The eigenvalues of the negated half-log are -log(l_i)/2 with the order
    reversed, so no second eigensolve is needed.
    """
    hxx, hxy, hxz, hyy, hyz, hzz = half_log
    l1, l2, l3 = eig
    return exp_sym3_with_eig((-hxx, -hxy, -hxz, -hyy, -hyz, -hzz),
                             (-0.5 * math.log(l3), -0.5 * math.log(l2), -0.5 * math.log(l1)))


def inv_sqrt_spd(g: SymMat3, eig: SymEig3) -> SymMat3:
    """Inverse square root of an SPD matrix via its half-log."""
    return inv_sqrt_from_log(log_spd_half_gram(g, eig), eig)


def _orth_defect2(r: Mat3) -> float:
    """||R^T R - I||_F^2 with the Gram entries expanded inline; array-safe."""
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = r
    g11 = a11 * a11 + a21 * a21 + a31 * a31
    g12 = a11 * a12 + a21 * a22 + a31 * a32
    g13 = a11 * a13 + a21 * a23 + a31 * a33
    g22 = a12 * a12 + a22 * a22 + a32 * a32
    g23 = a12 * a13 + a22 * a23 + a32 * a33
    g33 = a13 * a13 + a23 * a23 + a33 * a33
    d11, d22, d33 = g11 - 1.0, g22 - 1.0, g33 - 1.0
    return (d11 * d11 + d22 * d22 + d33 * d33
            + 2.0 * (g12 * g12 + g13 * g13 + g23 * g23))


def _check_rotation(r: Mat3) -> None:
    resid2 = _orth_defect2(r)
    if resid2 > _ROTATION_TOL * _ROTATION_TOL:
        raise NotARotationError(
            f"||R^T R - I||_F = {math.sqrt(resid2):.3e} exceeds {_ROTATION_TOL}")
    if mat_det(r) <= 0.0:
        raise NotARotationError("determinant is not positive")


def log_so3(r: Mat3) -> AntiSymMat3:
    """Principal logarithm of a rotation matrix, angle in [0, pi].

    The angle is atan2(sin t, cos t), with cos t from the trace and sin t
    the norm of h = (R - R^T)/2; the branch test is the sign of cos t.
    Acute angles return h t/sin t (h itself at sin t = 0). Obtuse angles,
    where h degenerates toward the half-turn, take the axis as the column
    of R + R^T - 2 cos(t) I with the largest diagonal entry (Shepperd's
    pivot), directed by the sign of the projection of h on it.
    """
    _check_rotation(r)
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = r
    cos_t = 0.5 * (a11 + a22 + a33 - 1.0)
    h12 = 0.5 * (a12 - a21)
    h13 = 0.5 * (a13 - a31)
    h23 = 0.5 * (a23 - a32)
    sin_t = math.sqrt(h12 * h12 + h13 * h13 + h23 * h23)
    theta = math.atan2(sin_t, cos_t)
    if cos_t >= 0.0:
        # t/sin t from the measured sine, not sin(acos(.)), which would lose
        # relative accuracy; sin t is 0 also where the squares of a tiny h
        # underflow, and there t/sin t is 1
        inv_sinc = theta / sin_t if sin_t else 1.0
        return _new(AntiSymMat3, (h12 * inv_sinc, h13 * inv_sinc, h23 * inv_sinc))
    # R + R^T - 2 cos(t) I equals 2 (1 - cos t) k k^T exactly for the unit
    # axis k, so its column with the largest diagonal entry (where R has
    # its largest) is the axis up to sign, free of the 1/sin t
    # amplification of h; its norm is at least 2 (1 - cos t)/sqrt(3) here
    if a11 >= a22 and a11 >= a33:
        v1, v2, v3 = 2.0 * (a11 - cos_t), a12 + a21, a13 + a31
    elif a22 >= a33:
        v1, v2, v3 = a12 + a21, 2.0 * (a22 - cos_t), a23 + a32
    else:
        v1, v2, v3 = a13 + a31, a23 + a32, 2.0 * (a33 - cos_t)
    scale = theta / math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    # h is sin(t) [k]x, so the sign of its projection on v is the sign of
    # k . v (0 at an exact half-turn, which keeps +pi)
    if h13 * v2 - h23 * v1 - h12 * v3 < 0.0:
        scale = -scale
    return _new(AntiSymMat3, (-v3 * scale, v2 * scale, -v1 * scale))


def consistent_log_so3(r: Mat3, ref: AntiSymMat3) -> AntiSymMat3:
    """Logarithm of R on the branch closest to a reference generator.

    Every log of R is k (t + 2 pi n), k and t the unit axis and angle of the
    principal log. The target is the reference angle, negated if k . ref < 0;
    n is the fewest turns that bring t + 2 pi n within pi of it (0 at a gap of
    exactly pi). A half-turn keeps its own axis, so every branch reproduces R.
    A reference angle beyond _MAX_REF_ANGLE (1e7 rad, where 2 pi n would cost
    the 1e-8 round trip), NaN or inf raises OutOfRangeError.
    """
    ref_angle = antisym_angle(ref)
    if not ref_angle <= _MAX_REF_ANGLE:
        raise OutOfRangeError(f"reference angle {ref_angle!r} rad exceeds {_MAX_REF_ANGLE:g}")
    principal = log_so3(r)
    theta = antisym_angle(principal)
    if theta > 1e-12:
        inv = 1.0 / theta
        k12, k13, k23 = principal.m12 * inv, principal.m13 * inv, principal.m23 * inv
    elif ref_angle > 0.0:
        # R is numerically the identity: any axis works, so follow the
        # reference to keep whole turns on its axis
        inv = 1.0 / ref_angle
        k12, k13, k23 = ref.m12 * inv, ref.m13 * inv, ref.m23 * inv
        theta = 0.0
    else:
        return principal
    target = ref_angle if k12 * ref.m12 + k13 * ref.m13 + k23 * ref.m23 >= 0.0 else -ref_angle
    gap = target - theta
    if gap > math.pi:
        n = math.ceil((gap - math.pi) / _TWO_PI)
    elif gap < -math.pi:
        n = -math.ceil((-gap - math.pi) / _TWO_PI)
    else:
        return principal
    angle = theta + n * _TWO_PI
    return AntiSymMat3(k12 * angle, k13 * angle, k23 * angle)
