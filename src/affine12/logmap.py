"""Closed-form logarithms: SPD matrices, rotations, and branch tracking.

The SPD path mirrors the symmetric exponential: eigenvalues from the cubic
solver, then log(S) = (1/2)*((a + log l2)*I - (a+c)*Z + c*Z^2) on the
normalised Z = G/l2, with coefficients built from the analytic helper
L2(x) = (log(x) - (x-1))/(x-1). The rotation log inverts the axis-angle
formula and keeps two guarded regimes: a Taylor form for tiny angles and a
rank-one axis extraction near half-turns, where the antisymmetric part of R
loses the axis. A reference-tracking variant picks the branch of the
logarithm closest to a previous value, so chained calls can follow
rotations past 2*pi.
"""

from __future__ import annotations

import math

from .errors import NotARotationError, NotPositiveDefiniteError
from .expmap import _SINC_TAYLOR, exp_sym3_with_eig, sinc_guarded
from .linalg3 import (
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    antisym_angle,
    antisym_scale,
    mat_det,
)

_L2_TAYLOR = 1e-3
_SPREAD_TAYLOR = 1e-4
_NEAR_PI = 1e-3
_ROTATION_TOL = 1e-6
_AXIS_COMPONENT_EPS = 1e-9


def log_quad_coeff(x: float) -> float:
    """L2(x) = (log(x) - (x-1))/(x-1), with L2(1) = 0.

    Below |x-1| = 1e-3 the alternating series -u/2 + u^2/3 - u^3/4 + u^4/5
    (u = x-1) is used; its truncation error at the switch point is ~1e-16,
    well under the continuity budget of the callers.
    """
    u = x - 1.0
    if abs(u) < _L2_TAYLOR:
        return u * (-0.5 + u * (1.0 / 3.0 + u * (-0.25 + u * 0.2)))
    return (math.log1p(u) - u) / u


def _log_coeffs(lp1: float, lp3: float) -> tuple[float, float]:
    """Coefficients (a, c) of the quadratic form for log on Z = G/l2.

    lp1 >= 1 >= lp3 > 0 are the outer eigenvalues of Z. A confluent
    spectrum forces both toward 1, so the divided differences switch to
    Taylor forms in u = lp - 1.
    """
    if lp1 - lp3 < _SPREAD_TAYLOR:
        u1 = lp1 - 1.0
        u3 = lp3 - 1.0
        c = (-0.5 + (u1 + u3) / 3.0
             - (u1 * u1 + u1 * u3 + u3 * u3) / 4.0
             + (u1 * u1 * u1 + u1 * u1 * u3 + u1 * u3 * u3 + u3 * u3 * u3) / 5.0)
        a = -1.0 + c + u1 * u3 * (1.0 / 3.0 - (u1 + u3) / 4.0)
        return a, c
    t1 = log_quad_coeff(lp1)
    t3 = log_quad_coeff(lp3)
    spread = lp1 - lp3
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
    return SymMat3(
        k + nac * z1 + hc * zz1,
        nac * z2 + hc * zz2,
        nac * z3 + hc * zz3,
        k + nac * z4 + hc * zz4,
        nac * z5 + hc * zz5,
        k + nac * z6 + hc * zz6,
    )


def inv_sqrt_from_log(half_log: SymMat3, eig: SymEig3) -> SymMat3:
    """G^(-1/2) = exp(-(1/2) log G), reusing the spectrum of G.

    The eigenvalues of the negated half-log are -log(l_i)/2 with the order
    reversed, so no second eigensolve is needed.
    """
    neg = SymMat3(-half_log.xx, -half_log.xy, -half_log.xz,
                  -half_log.yy, -half_log.yz, -half_log.zz)
    neg_eig = SymEig3(-0.5 * math.log(eig.l3),
                      -0.5 * math.log(eig.l2),
                      -0.5 * math.log(eig.l1))
    return exp_sym3_with_eig(neg, neg_eig)


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
    return ((g11 - 1.0) ** 2 + (g22 - 1.0) ** 2 + (g33 - 1.0) ** 2
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

    Generic branch: (1/(2 sinc t)) (R - R^T) with t from the trace. Near a
    half-turn the antisymmetric part degenerates, so the axis is recovered
    from the rank-one symmetric residue (R + R^T)/2 - cos(t) I, its sign
    fixed from the surviving antisymmetric entries, and the angle refined
    through asin of the antisymmetric magnitude (the trace alone cannot
    resolve t near pi).
    """
    _check_rotation(r)
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = r
    cos_t = 0.5 * (a11 + a22 + a33 - 1.0)
    if cos_t > 1.0:
        cos_t = 1.0
    elif cos_t < -1.0:
        cos_t = -1.0
    h12 = 0.5 * (a12 - a21)
    h13 = 0.5 * (a13 - a31)
    h23 = 0.5 * (a23 - a32)
    sin_t = math.sqrt(h12 * h12 + h13 * h13 + h23 * h23)
    if sin_t > 1.0:
        sin_t = 1.0
    theta = math.atan2(sin_t, cos_t)
    if math.pi - theta >= _NEAR_PI:
        # sinc evaluated from the measured sine, not sin(acos(.)), which
        # would lose relative accuracy as theta grows
        inv_sinc = 1.0 / sinc_guarded(theta) if theta < _SINC_TAYLOR else theta / sin_t
        return AntiSymMat3(h12 * inv_sinc, h13 * inv_sinc, h23 * inv_sinc)
    return _log_so3_near_pi(r, cos_t)


def _log_so3_near_pi(r: Mat3, cos_t: float) -> AntiSymMat3:
    # (R + R^T)/2 - cos(t) I equals (1 - cos t) v v^T exactly for rotations,
    # so any of its nonzero columns is the axis, free of O(pi - t) noise
    m11 = r.a11 - cos_t
    m22 = r.a22 - cos_t
    m33 = r.a33 - cos_t
    m12 = 0.5 * (r.a12 + r.a21)
    m13 = 0.5 * (r.a13 + r.a31)
    m23 = 0.5 * (r.a23 + r.a32)
    n1 = m11 * m11 + m12 * m12 + m13 * m13
    n2 = m12 * m12 + m22 * m22 + m23 * m23
    n3 = m13 * m13 + m23 * m23 + m33 * m33
    if n1 >= n2 and n1 >= n3:
        v1, v2, v3 = m11, m12, m13
        nn = n1
    elif n2 >= n3:
        v1, v2, v3 = m12, m22, m23
        nn = n2
    else:
        v1, v2, v3 = m13, m23, m33
        nn = n3
    inv = 1.0 / math.sqrt(nn)
    v1 *= inv
    v2 *= inv
    v3 *= inv
    # the extracted axis carries an arbitrary sign; the surviving
    # antisymmetric entries decide it, falling through components that are
    # themselves too small to be informative
    if abs(v2) >= _AXIS_COMPONENT_EPS:
        eps = 1.0 if v2 * (r.a13 - r.a31) >= 0.0 else -1.0
    elif abs(v1) >= _AXIS_COMPONENT_EPS:
        eps = 1.0 if v1 * (r.a32 - r.a23) >= 0.0 else -1.0
    else:
        eps = 1.0 if v3 * (r.a21 - r.a12) >= 0.0 else -1.0
    # refine the angle from the antisymmetric magnitude: sin(t) read off
    # (R - R^T)/2 projected on the axis stays accurate where acos saturates
    s = abs(0.5 * ((r.a32 - r.a23) * v1 + (r.a13 - r.a31) * v2 + (r.a21 - r.a12) * v3))
    if s > 1.0:
        s = 1.0
    theta = eps * (math.pi - math.asin(s))
    return AntiSymMat3(-v3 * theta, v2 * theta, -v1 * theta)


def consistent_log_so3(r: Mat3, ref: AntiSymMat3) -> AntiSymMat3:
    """Logarithm of R on the branch closest to a reference generator.

    Starts from the principal log, flips its sign if it points away from
    the reference, then shifts the angle by multiples of 2*pi until it lies
    within pi of the reference angle. An exact half-turn keeps the
    reference direction scaled to pi (or a fixed generator when the
    reference vanishes): at theta = pi the rotation itself cannot prefer a
    sign, so the reference axis is trusted outright.
    """
    _check_rotation(r)
    cos_t = 0.5 * (r.a11 + r.a22 + r.a33 - 1.0)
    if cos_t <= -1.0:
        ref_angle = antisym_angle(ref)
        if ref_angle > 0.0:
            return antisym_scale(ref, math.pi / ref_angle)
        return AntiSymMat3(math.pi, 0.0, 0.0)
    principal = log_so3(r)
    theta = antisym_angle(principal)
    ref_angle = antisym_angle(ref)
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
    signed = theta
    if k12 * ref.m12 + k13 * ref.m13 + k23 * ref.m23 < 0.0:
        # flipping generator and angle together leaves the product intact;
        # it only re-anchors the angle for the shift loops below
        k12, k13, k23 = -k12, -k13, -k23
        signed = -theta
    shifted = signed
    while ref_angle - shifted > math.pi:
        shifted += 2.0 * math.pi
    while shifted - ref_angle > math.pi:
        shifted -= 2.0 * math.pi
    if shifted == signed:
        return principal
    return AntiSymMat3(k12 * shifted, k13 * shifted, k23 * shifted)
